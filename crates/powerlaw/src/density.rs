//! The Prop. 4.1 density model: `f(λ)`, its inverse, and per-layer
//! density / message-size predictions.
//!
//! For a vocabulary of `n` features whose rank-`r` frequency is
//! `Poisson(λ r^{-α})`, the expected fraction of features present in a
//! partition is
//!
//! ```text
//! D = f(λ) = (1/n) Σ_{r=1..n} (1 − exp(−λ r^{-α}))
//! ```
//!
//! Summing the partitions of `K` nodes multiplies the rate by `K`, so the
//! density of the data held at node layer `t` of a butterfly with degrees
//! `d_1 × … × d_l` is `f(A_t λ0)` where `A_t = d_1 ⋯ d_t` — and because
//! layer `t` only covers a `1/A_t` slice of the index range, the expected
//! element count per node is `(n / A_t) · f(A_t λ0)`. The communication
//! volume therefore *shrinks* down the network whenever collisions are
//! plentiful — the "Kylix" profile of Fig. 5 — and the per-neighbour
//! packet size divides by one more degree, which drives the optimal
//! degree selection of §IV (implemented in the `kylix` crate's `design`
//! module on top of this model).

/// Above this `n` the sum is evaluated with an exact head plus an
/// integral-approximated tail; below, fully exactly.
const EXACT_N: u64 = 1 << 17;
/// Ranks `1..=HEAD` are always summed exactly.
const HEAD: u64 = 4096;
/// Log-spaced panels for the tail integral.
const PANELS: usize = 2048;

/// The Prop. 4.1 model for one dataset: `n` features with exponent `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityModel {
    /// Total number of features (vector length `n`).
    pub n: u64,
    /// Power-law exponent of the rank-frequency law.
    pub alpha: f64,
}

/// Predicted statistics for one node layer of a butterfly network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPrediction {
    /// Number of original partitions aggregated at this node layer
    /// (`A_t = d_1 ⋯ d_t`; 1 at the top).
    pub aggregated: u64,
    /// Expected vector density `f(A_t λ0)` over the full feature space.
    pub density: f64,
    /// Expected non-zero elements held per node: `(n / A_t) · density`.
    pub elems_per_node: f64,
}

impl DensityModel {
    /// Construct a model; panics on degenerate parameters.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1, "need at least one feature");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        Self { n, alpha }
    }

    /// The density function `f(λ)` (expected fraction of features with
    /// count ≥ 1).
    pub fn density(&self, lambda: f64) -> f64 {
        assert!(lambda >= 0.0 && lambda.is_finite(), "bad lambda {lambda}");
        if lambda == 0.0 {
            return 0.0;
        }
        if self.n <= EXACT_N {
            self.sum_exact(1, self.n, lambda) / self.n as f64
        } else {
            let head = self.sum_exact(1, HEAD, lambda);
            let tail = self.tail_integral(HEAD, self.n, lambda);
            (head + tail) / self.n as f64
        }
    }

    /// Exact `Σ_{r=a..=b} (1 − exp(−λ r^{-α}))`.
    fn sum_exact(&self, a: u64, b: u64, lambda: f64) -> f64 {
        let alpha = self.alpha;
        let mut acc = 0.0;
        for r in a..=b {
            let rate = lambda * (r as f64).powf(-alpha);
            acc += -(-rate).exp_m1();
        }
        acc
    }

    /// `Σ_{r=a+1..=b} g(r)` approximated by `∫_{a+1/2}^{b+1/2} g(x) dx`
    /// with log-spaced trapezoids (`g` is smooth and monotone, so the
    /// midpoint-shifted integral tracks the sum to high accuracy).
    fn tail_integral(&self, a: u64, b: u64, lambda: f64) -> f64 {
        let alpha = self.alpha;
        let lo = a as f64 + 0.5;
        let hi = b as f64 + 0.5;
        let llo = lo.ln();
        let lhi = hi.ln();
        let g = |x: f64| -> f64 { -(-lambda * x.powf(-alpha)).exp_m1() };
        // Trapezoid in u = ln x: ∫ g dx = ∫ g(e^u) e^u du.
        let mut acc = 0.0;
        let step = (lhi - llo) / PANELS as f64;
        let mut prev = g(lo) * lo;
        for i in 1..=PANELS {
            let x = (llo + step * i as f64).exp();
            let cur = g(x) * x;
            acc += 0.5 * (prev + cur) * step;
            prev = cur;
        }
        acc
    }

    /// Invert `f`: the λ at which the model predicts the given density.
    ///
    /// `density` must be in `(0, 1)`; solved by bisection on `ln λ`
    /// (monotone, so convergence is guaranteed).
    pub fn lambda_for_density(&self, density: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&density) && density > 0.0,
            "density must be in (0,1), got {density}"
        );
        let (mut lo, mut hi) = (-60.0f64, 60.0f64); // ln λ bounds
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.density(mid.exp()) < density {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 {
                break;
            }
        }
        (0.5 * (lo + hi)).exp()
    }

    /// The λ at which density reaches 0.9 — the normalisation the paper
    /// uses for the x-axis of Fig. 4.
    pub fn lambda_090(&self) -> f64 {
        self.lambda_for_density(0.9)
    }

    /// Predicted per-node-layer statistics for a butterfly with the given
    /// degrees, starting from a top-layer scaling factor `lambda0`.
    ///
    /// Returns `degrees.len() + 1` entries: node layers `0..=l`. Entry
    /// `t` describes data held *after* `t` communication layers; entry
    /// `t` is also what gets sent during communication layer `t+1`
    /// (split `d_{t+1}` ways).
    pub fn layer_predictions(&self, lambda0: f64, degrees: &[usize]) -> Vec<LayerPrediction> {
        let mut out = Vec::with_capacity(degrees.len() + 1);
        let mut agg = 1u64;
        for t in 0..=degrees.len() {
            if t > 0 {
                agg *= degrees[t - 1] as u64;
            }
            let density = self.density(agg as f64 * lambda0);
            out.push(LayerPrediction {
                aggregated: agg,
                density,
                elems_per_node: (self.n as f64 / agg as f64) * density,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_density(n: u64, alpha: f64, lambda: f64) -> f64 {
        let mut acc = 0.0;
        for r in 1..=n {
            acc += -(-lambda * (r as f64).powf(-alpha)).exp_m1();
        }
        acc / n as f64
    }

    #[test]
    fn density_zero_and_saturation() {
        let m = DensityModel::new(10_000, 1.0);
        assert_eq!(m.density(0.0), 0.0);
        // Huge λ saturates every feature.
        assert!(m.density(1e12) > 0.999);
    }

    #[test]
    fn density_is_monotone_in_lambda() {
        let m = DensityModel::new(100_000, 1.2);
        let mut prev = 0.0;
        for e in -8..8 {
            let d = m.density(10f64.powi(e));
            assert!(d >= prev, "not monotone at 1e{e}");
            prev = d;
        }
    }

    #[test]
    fn tail_approximation_matches_exact_sum() {
        // Force the approximate path by n > EXACT_N and compare against
        // brute force.
        let n = 1_000_000;
        for alpha in [0.5f64, 1.0, 2.0] {
            let m = DensityModel::new(n, alpha);
            for lambda in [0.01f64, 1.0, 100.0, 1e4] {
                let approx = m.density(lambda);
                let exact = exact_density(n, alpha, lambda);
                let rel = (approx - exact).abs() / exact.max(1e-12);
                assert!(
                    rel < 1e-3,
                    "alpha {alpha} lambda {lambda}: {approx} vs {exact} (rel {rel})"
                );
            }
        }
    }

    #[test]
    fn lambda_for_density_round_trips() {
        let m = DensityModel::new(200_000, 1.3);
        for d in [0.01f64, 0.035, 0.21, 0.5, 0.9] {
            let lambda = m.lambda_for_density(d);
            let back = m.density(lambda);
            assert!((back - d).abs() < 1e-6, "target {d}: got {back}");
        }
    }

    #[test]
    fn fig4_shape_modest_alpha_dependence() {
        // Paper Fig. 4: the normalised density curves for α ∈ [0.5, 2]
        // nearly coincide. Check that at λ = λ_0.9 / 10, densities across
        // α stay within a modest band.
        let ds: Vec<f64> = [0.5f64, 1.0, 2.0]
            .iter()
            .map(|&alpha| {
                let m = DensityModel::new(1 << 16, alpha);
                let l09 = m.lambda_090();
                m.density(l09 / 10.0)
            })
            .collect();
        let (lo, hi) = ds
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &d| (l.min(d), h.max(d)));
        assert!(hi - lo < 0.3, "α-dependence too strong: {ds:?}");
    }

    #[test]
    fn layer_predictions_density_grows_volume_shrinks() {
        // Twitter-like setup: density 0.21 at the 64-way partition.
        let m = DensityModel::new(1 << 20, 1.2);
        let lambda0 = m.lambda_for_density(0.21);
        let preds = m.layer_predictions(lambda0, &[8, 4, 2]);
        assert_eq!(preds.len(), 4);
        assert_eq!(preds[0].aggregated, 1);
        assert_eq!(preds[3].aggregated, 64);
        for w in preds.windows(2) {
            assert!(w[1].density > w[0].density, "density must grow downward");
            assert!(
                w[1].elems_per_node < w[0].elems_per_node,
                "per-node volume must shrink downward (power-law collapse)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "density must be in")]
    fn inverse_rejects_bad_density() {
        DensityModel::new(100, 1.0).lambda_for_density(1.5);
    }
}
