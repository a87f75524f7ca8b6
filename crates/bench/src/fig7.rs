//! Fig. 7 — effect of multi-threading on allreduce runtime.
//!
//! The paper (§VI.B, Fig. 7) spawns a thread per message and observes
//! big gains from 1 → 4 threads and marginal benefit beyond 16 (the
//! cc2.8xlarge has 16 hardware threads). In the simulator, receive-side
//! processing (deserialise + merge) occupies a per-node worker pool;
//! sweeping the pool size reproduces the curve: processing serialises
//! behind one worker and overlaps across many.

use crate::fig6::slowest_rank_ends;
use crate::scaling::scaled_nic;
use crate::workload::VectorWorkload;
use kylix::NetworkPlan;
use kylix_netsim::SimCluster;

/// One point of the thread sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Row {
    /// Worker (thread) count per node.
    pub threads: usize,
    /// Allreduce (config + reduce) runtime, full-scale seconds.
    pub runtime: f64,
}

/// Thread levels the paper sweeps.
pub const THREAD_LEVELS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Run the sweep on the Twitter-like workload over 8×4×2.
pub fn run(scale: u64, seed: u64) -> Vec<Fig7Row> {
    let plan = NetworkPlan::new(&[8, 4, 2]);
    // One workload and one seed for every level: only the worker count
    // varies.
    let w = VectorWorkload::twitter_like(64, scale, seed);
    THREAD_LEVELS
        .iter()
        .map(|&threads| {
            let nic = scaled_nic(scale as f64).with_workers(threads);
            let cluster = SimCluster::new(64, nic).seed(seed);
            let ends = slowest_rank_ends(&cluster, &w, &plan, 1, Some);
            let s = scale as f64;
            Fig7Row {
                threads,
                runtime: ends[0] * s + (ends[1] - ends[0]) * s,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_threads_help_then_flatten() {
        let rows = run(4000, 3);
        // Monotone non-increasing runtime (a worker can only help).
        for w in rows.windows(2) {
            assert!(
                w[1].runtime <= w[0].runtime * 1.02,
                "threads {} -> {}: {} -> {}",
                w[0].threads,
                w[1].threads,
                w[0].runtime,
                w[1].runtime
            );
        }
        // Paper shape: 1 -> 4 threads is a significant gain…
        let t1 = rows[0].runtime;
        let t4 = rows[2].runtime;
        assert!(t4 < t1 * 0.85, "1→4 threads: {t1} -> {t4}");
        // …and beyond 16 the benefit is marginal.
        let t16 = rows[4].runtime;
        let t32 = rows[5].runtime;
        assert!(
            t32 > t16 * 0.97,
            "16→32 threads should be marginal: {t16} -> {t32}"
        );
    }
}
