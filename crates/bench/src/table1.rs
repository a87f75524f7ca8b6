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

use crate::scaling::scaled_nic;
use crate::workload::VectorWorkload;
use kylix::{Kylix, NetworkPlan, ReplicatedComm};
use kylix_net::Comm;
use kylix_netsim::SimCluster;
use kylix_sparse::SumReducer;

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

/// Time one (plan, replication, dead set) cell.
fn time_cell(
    workload: &VectorWorkload,
    plan: &NetworkPlan,
    replication: usize,
    dead: &[usize],
    seed: u64,
) -> (f64, f64) {
    let logical = plan.size();
    let physical = logical * replication;
    let nic = scaled_nic(workload.scale as f64);
    let cluster = SimCluster::new(physical, nic).seed(seed);
    let per_node: Vec<Option<(f64, f64)>> = cluster.run_all(|comm| {
        if dead.contains(&comm.rank()) {
            return None;
        }
        let mut rc = ReplicatedComm::new(comm, replication);
        let me = rc.rank();
        let idx = &workload.node_indices[me];
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix.configure(&mut rc, idx, idx, 0).unwrap();
        let t_cfg = rc.now();
        let vals = vec![1.0f64; idx.len()];
        state.reduce(&mut rc, &vals, SumReducer).unwrap();
        Some((t_cfg, rc.now()))
    });
    let alive: Vec<(f64, f64)> = per_node.into_iter().flatten().collect();
    let config_end = alive.iter().map(|p| p.0).fold(0.0, f64::max);
    let reduce_end = alive.iter().map(|p| p.1).fold(0.0, f64::max);
    let s = workload.scale as f64;
    (config_end * s, (reduce_end - config_end) * s)
}

/// Regenerate Table I.
pub fn run(scale: u64, seed: u64) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    // Column 1: unreplicated 64-node 8x4x2.
    let w64 = VectorWorkload::twitter_like(64, scale, seed);
    let (c, r) = time_cell(&w64, &NetworkPlan::new(&[8, 4, 2]), 1, &[], seed);
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
    let (c, r) = time_cell(&w32, &NetworkPlan::new(&[8, 4]), 1, &[], seed);
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
        let (c, r) = time_cell(&w32, &NetworkPlan::new(&[8, 4]), 2, &dead, seed);
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
