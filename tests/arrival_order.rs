//! Arrival-order reduction: determinism and chaos-interplay guarantees.
//!
//! The hot path (core's `reduce.rs`) receives slices opportunistically
//! (`recv_any`) instead of in fixed group order. These tests pin the
//! contract that makes that safe to ship as the default:
//!
//! * float reductions, which park out-of-order arrivals and combine in
//!   coordinate order, must produce results bit-identical to the
//!   fixed-order schedule — on the virtual-time simulator under jitter,
//!   across different jitter seeds, and on real racing threads;
//! * integer reducers, which combine immediately on arrival, must stay
//!   exact;
//! * many pooled-buffer `reduce()` ops under ChaosComm
//!   duplicate/delay faults (repaired by `ReliableComm`) must finish
//!   correctly without leaking receive-stash entries.

use kylix::{reference_allreduce, Kylix, NetworkPlan, NodeContribution, RecvOrder};
use kylix_net::{ChaosComm, Comm, FaultPlan, LocalCluster, ReliableComm};
use kylix_netsim::{NicModel, SimCluster};
use kylix_sparse::{SumReducer, Xoshiro256};

const M: usize = 16;
const DEGREES: [usize; 2] = [4, 4];

/// Per-rank overlapping index sets and float values with spread
/// exponents, so the sum genuinely depends on combine order.
fn workload(seed: u64) -> Vec<NodeContribution<f64>> {
    let mut rng = Xoshiro256::new(seed);
    (0..M)
        .map(|_| {
            let k_out = 8 + rng.next_index(24);
            let out_indices: Vec<u64> = (0..k_out).map(|_| rng.next_below(96)).collect();
            let out_values: Vec<f64> = (0..out_indices.len())
                .map(|_| {
                    let mag = rng.next_index(12) as i32 - 6;
                    (rng.next_below(1000) as f64 + 1.0) * 10f64.powi(mag)
                })
                .collect();
            let k_in = 4 + rng.next_index(16);
            let in_indices: Vec<u64> = (0..k_in).map(|_| rng.next_below(96)).collect();
            NodeContribution {
                in_indices,
                out_indices,
                out_values,
            }
        })
        .collect()
}

/// One full configure-then-reduce run on the jittery simulator.
fn sim_run(nodes: &[NodeContribution<f64>], sim_seed: u64, order: RecvOrder) -> Vec<Vec<f64>> {
    let plan = NetworkPlan::new(&DEGREES);
    let cluster = SimCluster::new(M, NicModel::ec2_10g()).seed(sim_seed);
    cluster.run_all(|mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
            .unwrap();
        state.recv_order = order;
        state
            .reduce(&mut comm, &nodes[me].out_values, SumReducer)
            .unwrap()
    })
}

fn assert_bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: rank {rank} length");
        for (i, (u, v)) in x.iter().zip(y).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: rank {rank} elem {i}: {u} vs {v}"
            );
        }
    }
}

/// Float arrival-order reduction is bit-identical to the fixed-order
/// schedule, and stable across jitter seeds (i.e. across genuinely
/// different arrival orders).
#[test]
fn deterministic_mode_is_bit_identical_across_schedules() {
    let nodes = workload(41);
    let fixed = sim_run(&nodes, 1, RecvOrder::Fixed);
    let arrival_a = sim_run(&nodes, 1, RecvOrder::Arrival);
    let arrival_b = sim_run(&nodes, 999, RecvOrder::Arrival);
    assert_bitwise_eq(&fixed, &arrival_a, "fixed vs arrival (same seed)");
    assert_bitwise_eq(&fixed, &arrival_b, "fixed vs arrival (other jitter seed)");
}

/// On real racing threads, float arrival-order runs match the
/// fixed-order baseline bit for bit, reduce after reduce.
#[test]
fn thread_cluster_runs_are_bit_identical() {
    const OPS: usize = 5;
    let nodes = workload(47);
    let plan = NetworkPlan::new(&DEGREES);
    let run = |order: RecvOrder| -> Vec<Vec<Vec<f64>>> {
        LocalCluster::run(M, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            let mut state = kylix
                .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
                .unwrap();
            state.recv_order = order;
            let mut per_op = Vec::new();
            let mut out = Vec::new();
            for _ in 0..OPS {
                state
                    .reduce_into(&mut comm, &nodes[me].out_values, SumReducer, &mut out)
                    .unwrap();
                per_op.push(out.clone());
            }
            per_op
        })
    };
    let fixed = run(RecvOrder::Fixed);
    let arrival = run(RecvOrder::Arrival);
    for (f, a) in fixed.iter().zip(&arrival) {
        assert_bitwise_eq(f, a, "threaded fixed vs arrival");
    }
}

/// Integer reducers combine immediately on arrival and must stay exact.
#[test]
fn integer_arrival_order_is_exact() {
    let mut rng = Xoshiro256::new(53);
    let nodes: Vec<NodeContribution<u64>> = (0..M)
        .map(|_| {
            let k = 4 + rng.next_index(20);
            let out_indices: Vec<u64> = (0..k).map(|_| rng.next_below(64)).collect();
            let out_values: Vec<u64> = (0..out_indices.len())
                .map(|_| rng.next_below(1000))
                .collect();
            NodeContribution {
                in_indices: out_indices.clone(),
                out_indices,
                out_values,
            }
        })
        .collect();
    let expected = reference_allreduce(&nodes, SumReducer);
    let plan = NetworkPlan::new(&DEGREES);
    let got = LocalCluster::run(M, |mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
            .unwrap();
        assert_eq!(
            state.recv_order,
            RecvOrder::Arrival,
            "arrival is the default"
        );
        state
            .reduce(&mut comm, &nodes[me].out_values, SumReducer)
            .unwrap()
    });
    for (rank, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "rank {rank}");
    }
}

/// Chaos interplay: many pooled-buffer reduce ops over duplicated and
/// delayed links (repaired by the reliability layer) finish correctly
/// and leave the receive stash and pending-discard table empty — the
/// pooled hot path must not leak stash entries under chaos.
#[test]
fn pooled_reduces_under_chaos_keep_the_stash_clean() {
    const OPS: usize = 12;
    let nodes = workload(59);
    let expected = reference_allreduce(&nodes, SumReducer);
    let plan = NetworkPlan::new(&DEGREES);
    let faults = FaultPlan::new(61).duplicate_rate(0.15).delay_rate(0.1);
    let out = LocalCluster::run(M, |c| {
        let mut comm = ReliableComm::new(ChaosComm::new(c, faults.clone()));
        let me = comm.rank();
        let kylix = Kylix::new(plan.clone());
        let mut state = kylix
            .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
            .unwrap();
        let mut results = Vec::new();
        let mut out = Vec::new();
        for _ in 0..OPS {
            state
                .reduce_into(&mut comm, &nodes[me].out_values, SumReducer, &mut out)
                .unwrap();
            results.push(out.clone());
        }
        comm.flush().unwrap();
        let tc = comm.into_inner().into_inner();
        (results, tc.stash_len(), tc.pending_discard_len())
    });
    for (rank, (results, stash, pending)) in out.iter().enumerate() {
        for (op, got) in results.iter().enumerate() {
            assert_eq!(got.len(), expected[rank].len());
            for (a, b) in got.iter().zip(&expected[rank]) {
                let tol = 1e-9 * b.abs().max(1.0);
                assert!((a - b).abs() <= tol, "rank {rank} op {op}: {a} vs {b}");
            }
        }
        assert_eq!(*stash, 0, "rank {rank}: leaked stash entries");
        assert_eq!(*pending, 0, "rank {rank}: leaked pending discards");
    }
}
