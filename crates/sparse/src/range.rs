//! Contiguous half-open ranges of the 64-bit hash space.
//!
//! Kylix's nested partitioning works on the *hash* space: the whole space
//! `[0, 2^64)` is recursively split into equal sub-ranges, one per
//! butterfly-group neighbour at each layer (paper §III.A: "Partitioning is
//! done into equal-size ranges of indices … the original indices are
//! hashed to the values used for partitioning"). Because a node's key set
//! is sorted by hash, extracting the keys of a sub-range is two binary
//! searches — the partition step is O(d log s) for a set of size s split
//! `d` ways, and the extracted parts are contiguous slices (no copying
//! until they are framed into messages).

/// A half-open range `[lo, hi)` of the hash space.
///
/// Bounds are stored as `u128` so the full space `[0, 2^64)` is
/// representable without a special case for the exclusive upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashRange {
    /// Inclusive lower bound (as a 128-bit value; always < 2^64).
    lo: u128,
    /// Exclusive upper bound (as a 128-bit value; ≤ 2^64).
    hi: u128,
}

impl HashRange {
    /// The full 64-bit hash space `[0, 2^64)`.
    pub fn full() -> Self {
        Self {
            lo: 0,
            hi: 1u128 << 64,
        }
    }

    /// A sub-range; panics if bounds are out of order or exceed 2^64.
    pub fn new(lo: u128, hi: u128) -> Self {
        assert!(lo <= hi && hi <= (1u128 << 64), "bad range {lo}..{hi}");
        Self { lo, hi }
    }

    /// Inclusive lower bound, clamped into u64.
    #[inline]
    pub fn lo(&self) -> u64 {
        self.lo as u64
    }

    /// Exclusive upper bound as u128 (may be exactly 2^64).
    #[inline]
    pub fn hi(&self) -> u128 {
        self.hi
    }

    /// Number of hash points covered.
    #[inline]
    pub fn len(&self) -> u128 {
        self.hi - self.lo
    }

    /// True when the range covers no hash points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }

    /// Does this range contain the given hash?
    #[inline]
    pub fn contains(&self, hash: u64) -> bool {
        let h = hash as u128;
        self.lo <= h && h < self.hi
    }

    /// Split into `d` equal (±1 point) consecutive sub-ranges.
    ///
    /// The first `len % d` parts are one point longer so the parts tile the
    /// range exactly. With `d` dividing a power of two (the common case —
    /// butterfly degrees are small integers and the space is 2^64) parts
    /// are exactly equal.
    pub fn split(&self, d: usize) -> Vec<HashRange> {
        assert!(d > 0, "cannot split into 0 parts");
        let d128 = d as u128;
        let base = self.len() / d128;
        let extra = self.len() % d128;
        let mut parts = Vec::with_capacity(d);
        let mut lo = self.lo;
        for t in 0..d128 {
            let len = base + if t < extra { 1 } else { 0 };
            parts.push(HashRange::new(lo, lo + len));
            lo += len;
        }
        debug_assert_eq!(lo, self.hi);
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Xoshiro256;

    #[test]
    fn full_range_covers_everything() {
        let r = HashRange::full();
        assert!(r.contains(0));
        assert!(r.contains(u64::MAX));
        assert_eq!(r.len(), 1u128 << 64);
    }

    #[test]
    fn split_tiles_exactly() {
        let r = HashRange::full();
        for d in [1usize, 2, 3, 4, 5, 7, 8, 16, 64] {
            let parts = r.split(d);
            assert_eq!(parts.len(), d);
            assert_eq!(parts[0].lo, 0);
            assert_eq!(parts[d - 1].hi, 1u128 << 64);
            for w in parts.windows(2) {
                assert_eq!(w[0].hi, w[1].lo, "gap or overlap at {w:?}");
            }
            let total: u128 = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, r.len());
        }
    }

    #[test]
    fn nested_split_is_consistent() {
        // Splitting 8 ways then each part 4 ways tiles like splitting 32 ways.
        let r = HashRange::full();
        let once = r.split(32);
        let nested: Vec<HashRange> = r.split(8).iter().flat_map(|p| p.split(4)).collect();
        assert_eq!(once, nested);
    }

    #[test]
    fn interior_split_puts_each_hash_in_one_part() {
        let mut rng = Xoshiro256::new(21);
        for d in [2usize, 3, 8, 13] {
            let r = HashRange::full().split(5)[2]; // some interior range
            let parts = r.split(d);
            for _ in 0..2000 {
                let h = r.lo() as u128 + (rng.next_u64() as u128 % r.len());
                let owners = parts.iter().filter(|p| p.contains(h as u64)).count();
                assert_eq!(owners, 1, "hash {h}, d {d}");
            }
        }
    }

    #[test]
    fn empty_ranges_behave() {
        let r = HashRange::new(100, 100);
        assert!(r.is_empty());
        assert!(!r.contains(100));
        let parts = r.split(4);
        assert!(parts.iter().all(|p| p.is_empty()));
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn reversed_range_panics() {
        HashRange::new(10, 5);
    }
}
