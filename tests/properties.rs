//! Workspace-level property tests: arbitrary workloads, topologies,
//! reducers, replication factors and kill sets against the sequential
//! reference semantics.

use kylix::{reference_allreduce, Kylix, NetworkPlan, NodeContribution, ReplicatedComm};
use kylix_net::{Comm, LocalCluster};
use kylix_sparse::{MaxReducer, MinReducer, SumReducer, Xoshiro256};

fn workload_u64(m: usize, n_features: u64, seed: u64) -> Vec<NodeContribution<u64>> {
    let mut rng = Xoshiro256::new(seed);
    let nodes: Vec<NodeContribution<u64>> = (0..m)
        .map(|_| {
            let k_out = 1 + rng.next_index(25);
            let out_indices: Vec<u64> = (0..k_out).map(|_| rng.next_below(n_features)).collect();
            let out_values: Vec<u64> = (0..out_indices.len())
                .map(|_| rng.next_below(1000) + 1)
                .collect();
            let k_in = 1 + rng.next_index(20);
            let in_indices: Vec<u64> = (0..k_in).map(|_| rng.next_below(n_features)).collect();
            NodeContribution {
                in_indices,
                out_indices,
                out_values,
            }
        })
        .collect();
    nodes
}

/// Cases per property; the case number seeds its generator, and every
/// failure message names it.
const CASES: u64 = 16;

/// Min/max reducers over arbitrary sparse sets, including requests
/// for indices nobody contributes (identity semantics), on each shape
/// in turn.
#[test]
fn prop_min_max_reducers_match_reference() {
    const SHAPES: [&[usize]; 4] = [&[3], &[2, 2], &[4, 2], &[2, 2, 2]];
    for seed in 0..CASES {
        let plan = NetworkPlan::new(SHAPES[seed as usize % SHAPES.len()]);
        let m = plan.size();
        let nodes = workload_u64(m, 128, seed);
        let expect_min = reference_allreduce(&nodes, MinReducer);
        let expect_max = reference_allreduce(&nodes, MaxReducer);
        let got: Vec<(Vec<u64>, Vec<u64>)> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let (mn, _) = kylix
                .allreduce_combined(
                    &mut comm,
                    &nodes[me].in_indices,
                    &nodes[me].out_indices,
                    &nodes[me].out_values,
                    MinReducer,
                    0,
                )
                .unwrap();
            let (mx, _) = kylix
                .allreduce_combined(
                    &mut comm,
                    &nodes[me].in_indices,
                    &nodes[me].out_indices,
                    &nodes[me].out_values,
                    MaxReducer,
                    1000,
                )
                .unwrap();
            (mn, mx)
        });
        for (rank, (mn, mx)) in got.iter().enumerate() {
            assert_eq!(mn, &expect_min[rank], "seed {seed}: rank {rank}");
            assert_eq!(mx, &expect_max[rank], "seed {seed}: rank {rank}");
        }
    }
}

/// Any kill set leaving one survivor per replica group is exact.
#[test]
fn prop_replication_tolerates_any_survivable_kill_set() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let workload_seed = rng.next_below(1_000_000);
        let kill_mask = rng.next_below(16) as u8;
        // 4 logical nodes x 2 replicas; bit i of kill_mask kills ONE
        // replica of logical node i (alternating which one by seed).
        let m_logical = 4;
        let plan = NetworkPlan::new(&[2, 2]);
        let nodes = workload_u64(m_logical, 64, workload_seed);
        let expected = reference_allreduce(&nodes, SumReducer);
        let mut dead = Vec::new();
        for i in 0..m_logical {
            if kill_mask & (1 << i) != 0 {
                let replica = ((workload_seed >> i) & 1) as usize;
                dead.push(i + replica * m_logical);
            }
        }
        let got = LocalCluster::run(2 * m_logical, |comm| {
            if dead.contains(&comm.rank()) {
                return None;
            }
            let mut rc = ReplicatedComm::new(comm, 2);
            let me = rc.rank();
            let out = Kylix::new(plan.clone()).allreduce_combined(
                &mut rc,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            );
            Some(out.unwrap().0)
        });
        for (phys, res) in got.iter().enumerate() {
            if dead.contains(&phys) {
                assert!(res.is_none(), "seed {seed}: phys {phys}");
                continue;
            }
            let logical = phys % m_logical;
            assert_eq!(
                res.as_ref().unwrap(),
                &expected[logical],
                "seed {seed}: phys {phys}"
            );
        }
    }
}

/// Two consecutive collectives on the same communicator with
/// different channels do not interfere.
#[test]
fn prop_channel_isolation() {
    for seed in 0..CASES {
        let m = 4;
        let plan = NetworkPlan::new(&[2, 2]);
        let a = workload_u64(m, 64, seed);
        let b = workload_u64(m, 64, seed.wrapping_add(1));
        let expect_a = reference_allreduce(&a, SumReducer);
        let expect_b = reference_allreduce(&b, SumReducer);
        let got: Vec<(Vec<u64>, Vec<u64>)> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            // Issue BOTH collectives' sends before receiving results —
            // the tag namespaces must keep them apart.
            let (ra, _) = kylix
                .allreduce_combined(
                    &mut comm,
                    &a[me].in_indices,
                    &a[me].out_indices,
                    &a[me].out_values,
                    SumReducer,
                    0,
                )
                .unwrap();
            let (rb, _) = kylix
                .allreduce_combined(
                    &mut comm,
                    &b[me].in_indices,
                    &b[me].out_indices,
                    &b[me].out_values,
                    SumReducer,
                    500,
                )
                .unwrap();
            (ra, rb)
        });
        for (rank, (ra, rb)) in got.iter().enumerate() {
            assert_eq!(ra, &expect_a[rank], "seed {seed}: rank {rank}");
            assert_eq!(rb, &expect_b[rank], "seed {seed}: rank {rank}");
        }
    }
}

/// Deterministic regression: the exact same workload produces the exact
/// same reduced values across repeated runs (thread scheduling must not
/// leak into results).
#[test]
fn results_are_run_to_run_deterministic() {
    let plan = NetworkPlan::new(&[4, 2]);
    let nodes = workload_u64(8, 256, 99);
    let run = || -> Vec<Vec<u64>> {
        LocalCluster::run(8, |mut comm| {
            let me = comm.rank();
            Kylix::new(plan.clone())
                .allreduce_combined(
                    &mut comm,
                    &nodes[me].in_indices,
                    &nodes[me].out_indices,
                    &nodes[me].out_values,
                    SumReducer,
                    0,
                )
                .unwrap()
                .0
        })
    };
    assert_eq!(run(), run());
    assert_eq!(run(), run());
}
