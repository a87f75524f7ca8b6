//! Property tests for the chaos layer: arbitrary *mid-run* kill sets
//! against a 2×-replicated allreduce.
//!
//! The §V guarantee under test: the collective completes with exact
//! results under ANY kill set that leaves at least one live replica per
//! logical node — even when the kills land in the middle of the
//! protocol — and fails *loudly* (bounded by the configured patience,
//! not the 60 s default) the moment a whole replica group dies.

use kylix::{
    reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution, ReplicatedComm,
};
use kylix_net::{ChaosComm, Comm, FaultPlan, LocalCluster, PatienceComm};
use kylix_sparse::{SumReducer, Xoshiro256};
use std::time::{Duration, Instant};

const M_LOGICAL: usize = 4;

fn workload(seed: u64) -> Vec<NodeContribution<u64>> {
    let mut rng = Xoshiro256::new(seed);
    (0..M_LOGICAL)
        .map(|_| {
            let k_out = 1 + rng.next_index(25);
            let out_indices: Vec<u64> = (0..k_out).map(|_| rng.next_below(64)).collect();
            let out_values: Vec<u64> = (0..out_indices.len())
                .map(|_| rng.next_below(1000) + 1)
                .collect();
            let k_in = 1 + rng.next_index(20);
            let in_indices: Vec<u64> = (0..k_in).map(|_| rng.next_below(64)).collect();
            NodeContribution {
                in_indices,
                out_indices,
                out_values,
            }
        })
        .collect()
}

/// Survivable mid-run kill set: bit `i` of `kill_mask` crashes ONE
/// replica of logical node `i` after `ops_budget + i` comm operations.
/// Every rank that finishes must match the reference; every rank not in
/// the kill set must finish.
fn check_survivable(seed: u64, kill_mask: u8, ops_budget: u64) -> Result<(), String> {
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = workload(seed);
    let expected = reference_allreduce(&nodes, SumReducer);
    let mut faults = FaultPlan::new(seed);
    let mut killed = Vec::new();
    for i in 0..M_LOGICAL {
        if kill_mask & (1 << i) != 0 {
            let replica = ((seed >> i) & 1) as usize;
            let rank = i + replica * M_LOGICAL;
            faults = faults.crash_after_ops(rank, ops_budget + i as u64);
            killed.push(rank);
        }
    }
    let got = LocalCluster::run(2 * M_LOGICAL, |c| {
        let mut rc = ReplicatedComm::new(ChaosComm::new(c, faults.clone()), 2);
        let me = rc.rank();
        Kylix::new(plan.clone())
            .allreduce_combined(
                &mut rc,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .map(|(v, _)| v)
    });
    for (phys, res) in got.iter().enumerate() {
        let logical = phys % M_LOGICAL;
        match res {
            Ok(v) => {
                if v != &expected[logical] {
                    return Err(format!("phys {phys}: wrong result {v:?}"));
                }
            }
            // A rank may only fail by being crashed itself (a late ops
            // budget may let it finish first — that is fine too).
            Err(KylixError::Comm {
                source: kylix_net::CommError::Crashed { rank },
                ..
            }) if killed.contains(rank) => {}
            Err(e) => return Err(format!("phys {phys}: unexpected failure {e}")),
        }
    }
    Ok(())
}

/// Whole-group death: both replicas of logical node `group` crash
/// mid-run. Under a short patience, at least one survivor must report a
/// failure, and the whole cluster must unwind in bounded time instead
/// of hanging out the 60 s default.
fn check_group_death(seed: u64, group: usize, ops_budget: u64) -> Result<(), String> {
    const PATIENCE: Duration = Duration::from_millis(300);
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = workload(seed);
    let faults = FaultPlan::new(seed)
        .crash_after_ops(group, ops_budget)
        .crash_after_ops(group + M_LOGICAL, ops_budget + 1);
    let start = Instant::now();
    let got = LocalCluster::run(2 * M_LOGICAL, |c| {
        let patient = PatienceComm::new(ChaosComm::new(c, faults.clone()), PATIENCE);
        let mut rc = ReplicatedComm::new(patient, 2);
        let me = rc.rank();
        Kylix::new(plan.clone())
            .allreduce_combined(
                &mut rc,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .map(|(v, _)| v)
    });
    let elapsed = start.elapsed();
    let failures = got.iter().filter(|r| r.is_err()).count();
    if failures < 2 {
        return Err(format!(
            "dead group must fail its own 2 ranks at least, got {failures}"
        ));
    }
    // Generous bound: a handful of patience-sized waits per rank, far
    // below the 60 s default timeout the patience replaces.
    if elapsed > Duration::from_secs(30) {
        return Err(format!("cluster took {elapsed:?} to unwind"));
    }
    Ok(())
}

/// Any survivable mid-run kill set is exact.
#[test]
fn prop_midrun_kills_with_live_replica_are_exact() {
    for seed in 0..8 {
        let mut rng = Xoshiro256::new(seed);
        let workload_seed = rng.next_below(1_000_000);
        let kill_mask = rng.next_below(16) as u8;
        let ops_budget = 2 + rng.next_below(38);
        assert_eq!(
            check_survivable(workload_seed, kill_mask, ops_budget),
            Ok(()),
            "seed {seed}"
        );
    }
}

/// A whole dead replica group fails loudly within the patience.
#[test]
fn prop_whole_group_death_fails_loudly() {
    for seed in 0..4 {
        let mut rng = Xoshiro256::new(seed);
        let workload_seed = rng.next_below(1_000_000);
        let group = rng.next_index(M_LOGICAL);
        let ops_budget = 2 + rng.next_below(8);
        assert_eq!(
            check_group_death(workload_seed, group, ops_budget),
            Ok(()),
            "seed {seed}"
        );
    }
}
