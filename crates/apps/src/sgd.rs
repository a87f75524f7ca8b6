//! Mini-batch logistic regression over combined-mode allreduces
//! (paper §I.A.1).
//!
//! The model is *distributed*: feature `f`'s authoritative weight lives
//! on its home machine `hash(f) mod m`, and — following §III to the
//! letter — "every model feature should have a home machine which
//! **always** sends and receives that feature": homes contribute their
//! whole owned shard every round, which is what guarantees the
//! `∪ in ⊆ ∪ out` coverage contract for arbitrary, changing batches.
//! A training round is two combined config+reduce operations whose
//! worker-side index sets change with every batch — the workload the
//! combined mode exists for:
//!
//! 1. **fetch** — workers request the weights of this batch's features;
//!    homes contribute their stored shard (summing with nothing, since
//!    each feature has exactly one home).
//! 2. **push** — workers contribute `−η/b · ∂loss/∂w` at the batch
//!    features; homes request their owned shard back (padding it with
//!    zero contributions) and add the summed update to storage.
//!
//! The result is exact synchronous mini-batch SGD: every round the
//! global weight vector receives the *sum* of all machines' batch
//! gradients, verified against a sequential implementation doing the
//! same math.

use kylix::{Kylix, Result};
use kylix_net::Comm;
use kylix_sparse::{mix64, SumReducer};
use std::collections::HashMap;

/// A labelled sparse example: `(feature, value)` pairs and a ±1 label.
#[derive(Debug, Clone)]
pub struct Example {
    /// Sparse features.
    pub features: Vec<(u64, f64)>,
    /// Label in {−1, +1}.
    pub label: f64,
}

/// Logistic loss gradient factor: `∂/∂z log(1+e^{−yz}) = −y·σ(−yz)`.
fn logistic_grad_factor(z: f64, y: f64) -> f64 {
    -y / (1.0 + (y * z).exp())
}

/// Distributed mini-batch SGD state for one machine.
pub struct SgdWorker {
    /// Owned feature ids (static hash shard of `0..n_features`), sorted.
    owned: Vec<u64>,
    /// Weights aligned with `owned`.
    weights: Vec<f64>,
    /// Learning rate.
    pub learning_rate: f64,
}

impl SgdWorker {
    /// Create a worker owning its hash shard of `0..n_features`.
    pub fn new(rank: usize, m: usize, n_features: u64, learning_rate: f64) -> Self {
        let owned: Vec<u64> = (0..n_features)
            .filter(|&f| (mix64(f) % m as u64) as usize == rank)
            .collect();
        let weights = vec![0.0; owned.len()];
        Self {
            owned,
            weights,
            learning_rate,
        }
    }

    /// The owned `(feature, weight)` shard.
    pub fn shard(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.owned.iter().copied().zip(self.weights.iter().copied())
    }

    /// Process one mini-batch collectively; returns this batch's mean
    /// logistic loss (computed with the pre-update weights). `round`
    /// must be globally consistent and strictly increasing from 1.
    pub fn step<C: Comm>(
        &mut self,
        comm: &mut C,
        kylix: &Kylix,
        batch: &[Example],
        round: u32,
    ) -> Result<f64> {
        // Batch feature set (distinct).
        let mut feats: Vec<u64> = batch
            .iter()
            .flat_map(|e| e.features.iter().map(|p| p.0))
            .collect();
        feats.sort_unstable();
        feats.dedup();

        let channel = round.wrapping_mul(4);

        // --- Fetch: in = batch features, out = owned shard. ---
        let (weights, _) = kylix.allreduce_combined(
            comm,
            &feats,
            &self.owned,
            &self.weights,
            SumReducer,
            channel,
        )?;
        let w: HashMap<u64, f64> = feats.iter().copied().zip(weights).collect();

        // --- Local gradient over the batch. ---
        let mut grad: HashMap<u64, f64> = HashMap::new();
        let mut loss = 0.0;
        for ex in batch {
            let z: f64 = ex.features.iter().map(|(f, x)| w[f] * x).sum();
            loss += (1.0 + (-ex.label * z).exp()).ln();
            let g = logistic_grad_factor(z, ex.label);
            for (f, x) in &ex.features {
                *grad.entry(*f).or_insert(0.0) += g * x;
            }
        }
        let scale = -self.learning_rate / batch.len().max(1) as f64;

        // --- Push: out = scaled batch gradient; in = owned shard
        // (features no batch touched this round read as a 0 update). ---
        let grad_idx: Vec<u64> = grad.keys().copied().collect();
        let grad_val: Vec<f64> = grad_idx.iter().map(|f| grad[f] * scale).collect();
        let (updates, _) = kylix.allreduce_combined(
            comm,
            &self.owned,
            &grad_idx,
            &grad_val,
            SumReducer,
            channel + 2,
        )?;
        for (wgt, u) in self.weights.iter_mut().zip(updates) {
            *wgt += u;
        }
        Ok(loss / batch.len().max(1) as f64)
    }
}

/// Sequential reference doing the identical synchronous math: each
/// round, the global weights receive the summed (scaled) gradients of
/// all machines' batches.
pub fn sgd_reference(
    rounds: &[Vec<Vec<Example>>], // rounds -> machines -> batch
    learning_rate: f64,
) -> HashMap<u64, f64> {
    let mut w: HashMap<u64, f64> = HashMap::new();
    for machines in rounds {
        let mut update: HashMap<u64, f64> = HashMap::new();
        for batch in machines {
            let scale = -learning_rate / batch.len().max(1) as f64;
            for ex in batch {
                let z: f64 = ex
                    .features
                    .iter()
                    .map(|(f, x)| w.get(f).copied().unwrap_or(0.0) * x)
                    .sum();
                let g = logistic_grad_factor(z, ex.label);
                for (f, x) in &ex.features {
                    *update.entry(*f).or_insert(0.0) += g * x * scale;
                }
            }
        }
        for (f, u) in update {
            *w.entry(f).or_insert(0.0) += u;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::Zipf;
    use kylix_sparse::Xoshiro256;

    /// Synthetic sparse classification data: power-law features, true
    /// weights ±1 alternating by feature parity.
    fn synth_batches(
        machines: usize,
        rounds: usize,
        per_batch: usize,
        n_features: u64,
        seed: u64,
    ) -> Vec<Vec<Vec<Example>>> {
        let zipf = Zipf::new(n_features, 1.1);
        let truth = |f: u64| if f.is_multiple_of(2) { 1.0 } else { -1.0 };
        (0..rounds)
            .map(|r| {
                (0..machines)
                    .map(|mc| {
                        let mut rng =
                            Xoshiro256::new(kylix_sparse::mix_many(&[seed, r as u64, mc as u64]));
                        (0..per_batch)
                            .map(|_| {
                                let k = 2 + rng.next_index(5);
                                let mut fs: Vec<u64> =
                                    (0..k).map(|_| zipf.sample_index(&mut rng)).collect();
                                fs.sort_unstable();
                                fs.dedup();
                                let features: Vec<(u64, f64)> =
                                    fs.iter().map(|&f| (f, 1.0)).collect();
                                let score: f64 = fs.iter().map(|&f| truth(f)).sum();
                                let label = if score >= 0.0 { 1.0 } else { -1.0 };
                                Example { features, label }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn distributed_sgd_matches_reference() {
        let m = 4;
        let rounds = 6;
        let n_features = 64;
        let data = synth_batches(m, rounds, 8, n_features, 5);
        let lr = 0.5;
        let expected = sgd_reference(&data, lr);
        let shards: Vec<Vec<(u64, f64)>> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
            let mut worker = SgdWorker::new(me, m, n_features, lr);
            for (r, machines) in data.iter().enumerate() {
                worker
                    .step(&mut comm, &kylix, &machines[me], r as u32 + 1)
                    .unwrap();
            }
            worker.shard().collect()
        });
        let mut got: HashMap<u64, f64> = HashMap::new();
        for shard in shards {
            for (f, w) in shard {
                assert!(!got.contains_key(&f), "feature {f} homed twice");
                got.insert(f, w);
            }
        }
        assert_eq!(got.len(), n_features as usize, "shards must tile the space");
        for (f, w) in &expected {
            let g = got.get(f).copied().unwrap_or(0.0);
            assert!((g - w).abs() < 1e-9, "feature {f}: {g} vs {w}");
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let m = 2;
        let rounds = 30;
        let data = synth_batches(m, rounds, 16, 32, 11);
        let losses: Vec<Vec<f64>> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            let mut worker = SgdWorker::new(me, m, 32, 0.5);
            data.iter()
                .enumerate()
                .map(|(r, machines)| {
                    worker
                        .step(&mut comm, &kylix, &machines[me], r as u32 + 1)
                        .unwrap()
                })
                .collect()
        });
        for per_machine in &losses {
            let early: f64 = per_machine[..5].iter().sum::<f64>() / 5.0;
            let late: f64 = per_machine[rounds - 5..].iter().sum::<f64>() / 5.0;
            assert!(
                late < early * 0.8,
                "loss should drop: early {early:.4} late {late:.4}"
            );
        }
    }

    #[test]
    fn shards_partition_feature_space() {
        let m = 3;
        let n = 100u64;
        let workers: Vec<Vec<u64>> = (0..m)
            .map(|rank| {
                SgdWorker::new(rank, m, n, 0.1)
                    .shard()
                    .map(|(f, _)| f)
                    .collect()
            })
            .collect();
        let mut all: Vec<u64> = workers.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn gradient_factor_signs() {
        // Confident correct prediction -> tiny gradient; wrong -> large.
        assert!(logistic_grad_factor(5.0, 1.0).abs() < 0.01);
        assert!(logistic_grad_factor(-5.0, 1.0).abs() > 0.9);
        assert!(logistic_grad_factor(5.0, -1.0) > 0.9);
    }
}
