//! Table I — the cost of fault tolerance.
//!
//! The paper's table compares, on the Twitter-like workload:
//!
//! * the optimal unreplicated 64-node network (8×4×2),
//! * an unreplicated 32-node network (8×4) for reference,
//! * the replicated network: 64 physical nodes = 32 logical × 2
//!   replicas on 8×4, with 0–3 dead nodes.
//!
//! Expected shape: replication costs ≈25 % extra configuration time and
//! ≈60 % extra reduction time (fan-out doubles traffic but packet
//! racing claws back latency), and the runtime is flat in the number of
//! failures.

use crate::fig6::slowest_rank_ends;
use crate::scaling::scaled_nic;
use crate::workload::VectorWorkload;
use kylix::{NetworkPlan, ReplicatedComm};
use kylix_net::Comm;
use kylix_netsim::SimCluster;

/// One column of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Configuration label.
    pub system: String,
    /// Physical nodes.
    pub physical_nodes: usize,
    /// Replication factor.
    pub replication: usize,
    /// Dead nodes injected.
    pub dead_nodes: usize,
    /// Configuration makespan, full-scale seconds.
    pub config_time: f64,
    /// Reduce makespan, full-scale seconds.
    pub reduce_time: f64,
}

/// Regenerate Table I.
pub fn run(scale: u64, seed: u64) -> Vec<Table1Row> {
    // One cell: `degrees` replicated `replication` times over the
    // physical cluster, the `dead` physical ranks down from the start;
    // full-scale (config, reduce) seconds over the live ranks.
    let cell = |w: &VectorWorkload, degrees: &[usize], replication: usize, dead: &[usize]| {
        let plan = NetworkPlan::new(degrees);
        let cluster =
            SimCluster::new(plan.size() * replication, scaled_nic(scale as f64)).seed(seed);
        let ends = slowest_rank_ends(&cluster, w, &plan, 1, |comm| {
            (!dead.contains(&comm.rank())).then(|| ReplicatedComm::new(comm, replication))
        });
        let s = scale as f64;
        (ends[0] * s, (ends[1] - ends[0]) * s)
    };
    let mut rows = Vec::new();
    // Column 1: unreplicated 64-node 8x4x2.
    let w64 = VectorWorkload::twitter_like(64, scale, seed);
    let (c, r) = cell(&w64, &[8, 4, 2], 1, &[]);
    rows.push(Table1Row {
        system: "8x4x2 rep=1 (64 nodes)".into(),
        physical_nodes: 64,
        replication: 1,
        dead_nodes: 0,
        config_time: c,
        reduce_time: r,
    });
    // Column 2: unreplicated 32-node 8x4 (same data split 32 ways).
    let w32 = VectorWorkload::twitter_like(32, scale, seed + 1);
    let (c, r) = cell(&w32, &[8, 4], 1, &[]);
    rows.push(Table1Row {
        system: "8x4 rep=1 (32 nodes)".into(),
        physical_nodes: 32,
        replication: 1,
        dead_nodes: 0,
        config_time: c,
        reduce_time: r,
    });
    // Columns 3–6: replicated 8x4 on 64 physical nodes, 0–3 failures.
    for dead_count in 0..=3usize {
        // Kill second replicas of distinct logical nodes (physical
        // ranks 32, 33, 34): each group keeps a survivor.
        let dead: Vec<usize> = (0..dead_count).map(|i| 32 + i).collect();
        let (c, r) = cell(&w32, &[8, 4], 2, &dead);
        rows.push(Table1Row {
            system: "8x4 rep=2 (64 nodes)".into(),
            physical_nodes: 64,
            replication: 2,
            dead_nodes: dead_count,
            config_time: c,
            reduce_time: r,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_overhead_is_moderate() {
        let rows = run(4000, 5);
        let unrep32 = &rows[1];
        let rep0 = &rows[2];
        // Paper: ~+25% config, ~+60% reduce vs the unreplicated 32-node
        // network. Accept the band [1.0, 2.5]x — doubling traffic
        // through one NIC bounds it above by ~2x plus jitter.
        let cfg_ratio = rep0.config_time / unrep32.config_time;
        let red_ratio = rep0.reduce_time / unrep32.reduce_time;
        assert!(
            (1.0..2.5).contains(&cfg_ratio),
            "config ratio {cfg_ratio:.2}"
        );
        assert!(
            (1.0..2.5).contains(&red_ratio),
            "reduce ratio {red_ratio:.2}"
        );
    }

    #[test]
    fn runtime_is_flat_in_failures() {
        let rows = run(4000, 6);
        let reps: Vec<&Table1Row> = rows.iter().filter(|r| r.replication == 2).collect();
        assert_eq!(reps.len(), 4);
        let base = reps[0].reduce_time + reps[0].config_time;
        for r in &reps[1..] {
            let t = r.reduce_time + r.config_time;
            assert!(
                (t - base).abs() / base < 0.25,
                "{} dead: {t} vs baseline {base}",
                r.dead_nodes
            );
        }
    }

    #[test]
    fn all_cells_completed() {
        let rows = run(4000, 7);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.config_time > 0.0 && r.reduce_time > 0.0, "{r:?}");
        }
    }
}
