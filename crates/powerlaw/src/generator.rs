//! Synthetic sparse power-law partition generators.
//!
//! Generates the per-node sparse vectors / index sets that feed the
//! allreduce experiments, following the paper's data model exactly: the
//! rank-`r` feature occurs in one node's partition with probability
//! `1 − exp(−λ0 r^{-α})` (Poisson occupancy). Two styles are offered:
//!
//! * [`PartitionGenerator::indices`] — exact occupancy sweep over all
//!   features (matches Prop. 4.1 by construction; O(n) per node).
//! * [`PartitionGenerator::draws`] — `N` i.i.d. Zipf draws (a minibatch
//!   of tokens/edges); the resulting occupancy follows the same law with
//!   `λ0 = N / H_n(α)`, which [`lambda_for_draws`] computes.

use crate::density::DensityModel;
use crate::zipf::Zipf;
use kylix_sparse::{mix_many, Xoshiro256};

/// Generalised harmonic number `H_n(α) = Σ_{r=1..n} r^{-α}` (exact head +
/// integral tail, mirroring the density evaluation).
pub fn harmonic(n: u64, alpha: f64) -> f64 {
    let head_n = n.min(1 << 16);
    let mut acc = 0.0;
    for r in 1..=head_n {
        acc += (r as f64).powf(-alpha);
    }
    if n > head_n {
        // ∫_{head+1/2}^{n+1/2} x^{-α} dx
        let a = head_n as f64 + 0.5;
        let b = n as f64 + 0.5;
        acc += if (alpha - 1.0).abs() < 1e-12 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - alpha) - a.powf(1.0 - alpha)) / (1.0 - alpha)
        };
    }
    acc
}

/// The per-feature Poisson scaling factor λ0 induced by drawing `n_draws`
/// i.i.d. Zipf(α) samples over `n` features.
pub fn lambda_for_draws(n: u64, alpha: f64, n_draws: u64) -> f64 {
    n_draws as f64 / harmonic(n, alpha)
}

/// Generates node partitions under a fixed `(n, α, λ0)` data model.
#[derive(Debug, Clone)]
pub struct PartitionGenerator {
    model: DensityModel,
    lambda0: f64,
    seed: u64,
}

impl PartitionGenerator {
    /// Model with an explicit per-node scaling factor λ0.
    pub fn new(model: DensityModel, lambda0: f64, seed: u64) -> Self {
        assert!(lambda0 > 0.0 && lambda0.is_finite());
        Self {
            model,
            lambda0,
            seed,
        }
    }

    /// Model calibrated so each node's partition has the given expected
    /// density (the measurable quantity the paper's workflow starts from).
    pub fn with_density(model: DensityModel, density: f64, seed: u64) -> Self {
        let lambda0 = model.lambda_for_density(density);
        Self::new(model, lambda0, seed)
    }

    /// The per-node scaling factor.
    pub fn lambda0(&self) -> f64 {
        self.lambda0
    }

    /// Exact occupancy sweep: the sorted feature indices present in
    /// `node`'s partition. Distinct nodes use decorrelated streams.
    pub fn indices(&self, node: usize) -> Vec<u64> {
        let mut rng = Xoshiro256::new(mix_many(&[self.seed, node as u64, 0xF00D]));
        let alpha = self.model.alpha;
        let mut out = Vec::new();
        for r in 1..=self.model.n {
            let rate = self.lambda0 * (r as f64).powf(-alpha);
            // Inline Bernoulli(1 − e^{-rate}) with an early cutoff: rates
            // below ~1e-12 can't fire within f64 resolution of the draw.
            if rate > 1e-12 && rng.next_f64() < -(-rate).exp_m1() {
                out.push(r - 1); // zero-based feature index
            }
        }
        out
    }

    /// `n_draws` i.i.d. Zipf draws (with multiplicity) — a minibatch.
    pub fn draws(&self, node: usize, n_draws: usize) -> Vec<u64> {
        let mut rng = Xoshiro256::new(mix_many(&[self.seed, node as u64, 0xBEEF]));
        let z = Zipf::new(self.model.n, self.model.alpha);
        (0..n_draws).map(|_| z.sample_index(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_exact() {
        let h = harmonic(4, 1.0);
        assert!((h - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_large_matches_brute_force() {
        let n = 500_000u64;
        for alpha in [0.7f64, 1.0, 1.5] {
            let brute: f64 = (1..=n).map(|r| (r as f64).powf(-alpha)).sum();
            let fast = harmonic(n, alpha);
            let rel = (fast - brute).abs() / brute;
            assert!(rel < 1e-4, "alpha {alpha}: {fast} vs {brute}");
        }
    }

    #[test]
    fn generated_density_matches_target() {
        let model = DensityModel::new(50_000, 1.2);
        for target in [0.05f64, 0.2] {
            let g = PartitionGenerator::with_density(model, target, 99);
            // Average measured density over a few nodes.
            let mean: f64 = (0..8)
                .map(|node| g.indices(node).len() as f64 / model.n as f64)
                .sum::<f64>()
                / 8.0;
            assert!(
                (mean - target).abs() / target < 0.08,
                "target {target}: measured {mean}"
            );
        }
    }

    #[test]
    fn union_density_matches_layer_prediction() {
        // Merging K nodes' partitions should land on f(K λ0): the fact
        // the whole §IV design workflow rests on.
        let model = DensityModel::new(20_000, 1.0);
        let g = PartitionGenerator::with_density(model, 0.1, 7);
        let k = 8;
        let mut union = std::collections::HashSet::new();
        for node in 0..k {
            union.extend(g.indices(node));
        }
        let measured = union.len() as f64 / model.n as f64;
        let predicted = model.density(k as f64 * g.lambda0());
        assert!(
            (measured - predicted).abs() / predicted < 0.05,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn nodes_are_decorrelated_but_overlapping() {
        let model = DensityModel::new(10_000, 1.2);
        let g = PartitionGenerator::with_density(model, 0.15, 3);
        let a: std::collections::HashSet<u64> = g.indices(0).into_iter().collect();
        let b: std::collections::HashSet<u64> = g.indices(1).into_iter().collect();
        assert_ne!(a, b, "distinct nodes must differ");
        // Power-law heads overlap: intersection is non-trivial.
        let inter = a.intersection(&b).count();
        assert!(inter > 0, "no overlap at all is implausible");
    }

    #[test]
    fn draws_lambda_consistency() {
        // Occupancy from N Zipf draws ≈ f(N / H_n(α)).
        let n = 20_000u64;
        let alpha = 1.1;
        let n_draws = 30_000usize;
        let model = DensityModel::new(n, alpha);
        let g = PartitionGenerator::new(model, 1.0, 5); // λ0 unused by draws
        let d: std::collections::HashSet<u64> = g.draws(0, n_draws).into_iter().collect();
        let measured = d.len() as f64 / n as f64;
        let predicted = model.density(lambda_for_draws(n, alpha, n_draws as u64));
        // The Zipf sampler discretises the continuous power law, which
        // shifts a little mass from the head to the tail relative to the
        // exact r^{-α} law and so produces slightly *more* distinct
        // indices than the idealised model; 10% is the observed envelope.
        assert!(
            (measured - predicted).abs() / predicted < 0.10,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn indices_are_sorted_unique_zero_based() {
        let model = DensityModel::new(5_000, 1.0);
        let g = PartitionGenerator::with_density(model, 0.3, 1);
        let idx = g.indices(2);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < model.n));
    }
}
