//! Power-law (Zipf-like) rank sampling.
//!
//! Draws ranks `r ∈ {1, …, n}` with probability approximately
//! `∝ r^{-α}`. We invert the CDF of the *continuous* power-law density on
//! `[1, n+1)` and floor the result: rank `r` then has exact probability
//! `∫_r^{r+1} x^{-α} dx / ∫_1^{n+1} x^{-α} dx`, which matches `r^{-α}` to
//! within its own magnitude everywhere and preserves the log-log slope —
//! the property the Kylix experiments depend on. The sampler is O(1) per
//! draw with no tables, so generating multi-million-edge graphs is cheap.

use kylix_sparse::Xoshiro256;

/// An O(1) sampler of ranks `1..=n` with `P(r) ≈ r^{-α}` (normalised).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    /// `(n+1)^{1-α} − 1`, cached for the inverse CDF (α ≠ 1 branch).
    span: f64,
}

impl Zipf {
    /// Create a sampler over ranks `1..=n` with exponent `α > 0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        let span = if (alpha - 1.0).abs() < 1e-12 {
            ((n + 1) as f64).ln()
        } else {
            ((n + 1) as f64).powf(1.0 - alpha) - 1.0
        };
        Self { n, alpha, span }
    }

    /// Draw one rank in `1..=n`.
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        let u = rng.next_f64();
        let x = if (self.alpha - 1.0).abs() < 1e-12 {
            // F(x) = ln(x)/ln(n+1)  =>  x = (n+1)^u
            (u * self.span).exp()
        } else {
            // F(x) = (x^{1-α} − 1)/((n+1)^{1-α} − 1)
            (1.0 + u * self.span).powf(1.0 / (1.0 - self.alpha))
        };
        // Floor into {1, …, n}; clamp guards the x == n+1 edge.
        (x as u64).clamp(1, self.n)
    }

    /// Draw one rank and return it zero-based (`0..n`), convenient for
    /// array indexing of features/vertices.
    pub fn sample_index(&self, rng: &mut Xoshiro256) -> u64 {
        self.sample(rng) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(100, 1.2);
        let mut rng = Xoshiro256::new(8);
        for _ in 0..50_000 {
            let r = z.sample(&mut rng);
            assert!((1..=100).contains(&r));
        }
    }

    #[test]
    fn rank_one_dominates() {
        let z = Zipf::new(1000, 1.5);
        let mut rng = Xoshiro256::new(9);
        let n = 100_000;
        let ones = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        // For α=1.5, P(1) ≈ (1 - 2^{-0.5}) / (1 - 1001^{-0.5}) ≈ 0.30.
        let frac = ones as f64 / n as f64;
        assert!((0.25..0.36).contains(&frac), "P(rank 1) = {frac}");
    }

    #[test]
    fn empirical_loglog_slope_matches_alpha() {
        for alpha in [0.8f64, 1.0, 1.6] {
            let z = Zipf::new(10_000, alpha);
            let mut rng = Xoshiro256::new(10);
            let mut counts = vec![0u64; 10_001];
            for _ in 0..2_000_000 {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            // Regress log(count) on log(rank) over well-populated ranks.
            let pts: Vec<(f64, f64)> = (2..200)
                .filter(|&r| counts[r] > 50)
                .map(|r| ((r as f64).ln(), (counts[r] as f64).ln()))
                .collect();
            assert!(pts.len() > 50, "not enough populated ranks");
            let n = pts.len() as f64;
            let sx: f64 = pts.iter().map(|p| p.0).sum();
            let sy: f64 = pts.iter().map(|p| p.1).sum();
            let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
            let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
            let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
            assert!((slope + alpha).abs() < 0.12, "alpha {alpha}: slope {slope}");
        }
    }

    #[test]
    fn alpha_one_branch_works() {
        let z = Zipf::new(50, 1.0);
        let mut rng = Xoshiro256::new(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(z.sample(&mut rng));
        }
        assert!(seen.len() > 40, "α=1 sampler collapsed: {}", seen.len());
    }

    #[test]
    fn single_rank_always_one() {
        let z = Zipf::new(1, 2.0);
        let mut rng = Xoshiro256::new(12);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let z = Zipf::new(500, 1.3);
        let a: Vec<u64> = {
            let mut r = Xoshiro256::new(77);
            (0..32).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256::new(77);
            (0..32).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
