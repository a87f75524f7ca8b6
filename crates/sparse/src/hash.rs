//! Hashing and deterministic pseudo-random number generation.
//!
//! Kylix partitions feature indices into equal *hash ranges* rather than
//! equal index ranges: power-law data concentrates mass on small indices,
//! so splitting the raw index space would be badly unbalanced. The paper
//! (§III.A) hashes the original indices to the values used for
//! partitioning; we use the splitmix64 finaliser, a full-period bijective
//! mixer with excellent avalanche behaviour and a handful of instructions
//! per key — cheap enough to recompute on the fly rather than ship over
//! the network.
//!
//! The PRNGs here ([`SplitMix64`], [`Xoshiro256`]) exist so that workload
//! generators and the network simulator are deterministic given a seed,
//! with no dependence on external crate version churn. Xoshiro256++ is the
//! same generator family the `rand` ecosystem uses for non-cryptographic
//! simulation work.

/// The splitmix64 finaliser: a bijective mixing of a 64-bit value.
///
/// Used to map feature indices into the 64-bit partitioning space. Being a
/// bijection, distinct indices never collide, so ordering sets by
/// `(mix64(idx), idx)` is a strict total order in which the first component
/// is uniformly distributed.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Inverse of [`mix64`]. Only used by tests to prove bijectivity and to
/// recover indices from hashes when debugging.
#[inline]
pub fn unmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 31) ^ (x >> 62)).wrapping_mul(0x319642B2D24D8EC3);
    x = (x ^ (x >> 27) ^ (x >> 54)).wrapping_mul(0x96DE1B173F119089);
    x ^= x >> 30 ^ x >> 60;
    x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
}

/// Mix several words into one 64-bit value. Handy for deriving per-edge or
/// per-message jitter deterministically from (seed, src, dst, seq).
#[inline]
pub fn mix_many(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64; // pi digits, nothing up the sleeve
    for &w in words {
        acc = mix64(acc ^ w);
    }
    acc
}

/// SplitMix64 sequential generator. Mainly used to seed [`Xoshiro256`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's workhorse PRNG.
///
/// Deterministic, fast, and of well-studied statistical quality; all
/// workload generators and simulator jitter draw from this so experiments
/// replay bit-identically from a seed.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 uniformly distributed bits (xoshiro256++ scrambler).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, data: &mut [T]) {
        for i in (1..data.len()).rev() {
            let j = self.next_index(i + 1);
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_bijective_on_samples() {
        for x in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF, 1 << 63] {
            assert_eq!(unmix64(mix64(x)), x, "round trip failed for {x}");
        }
        let mut rng = Xoshiro256::new(7);
        for _ in 0..10_000 {
            let x = rng.next_u64();
            assert_eq!(unmix64(mix64(x)), x);
        }
    }

    #[test]
    fn mix64_distinct_inputs_distinct_outputs() {
        let mut seen = std::collections::HashSet::new();
        for x in 0..10_000u64 {
            assert!(seen.insert(mix64(x)), "collision at {x}");
        }
    }

    #[test]
    fn mix64_spreads_small_indices() {
        // Consecutive small indices (the power-law "head") must land in
        // different quarters of the hash space often enough to balance
        // 4-way partitions.
        let quarters: Vec<usize> = (0..1000u64).map(|x| (mix64(x) >> 62) as usize).collect();
        let mut counts = [0usize; 4];
        for q in quarters {
            counts[q] += 1;
        }
        for &c in &counts {
            assert!((150..=350).contains(&c), "unbalanced quarters: {counts:?}");
        }
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(123);
        let mut b = Xoshiro256::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256::new(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256::new(2);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::new(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256::new(5);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let x = rng.next_below(10);
            assert!(x < 10);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..=11_000).contains(&c), "nonuniform: {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn mix_many_order_sensitive() {
        assert_ne!(mix_many(&[1, 2]), mix_many(&[2, 1]));
        assert_eq!(mix_many(&[1, 2]), mix_many(&[1, 2]));
    }
}
