//! The real-socket substrate under protocol load and under abuse.
//!
//! Three claims pinned here, all over genuine loopback TCP:
//!
//! 1. the full reliability stack composes unchanged on the new
//!    substrate — `ReliableComm<ChaosComm<TcpComm>>` with seeded
//!    drop/duplicate/corrupt faults still produces the exact reference
//!    reduction;
//! 2. killing a rank mid-protocol under a `PatienceComm` surfaces
//!    `Closed`/`Timeout` on the live ranks, bounded by the configured
//!    patience — never a hang (`dead_peer.rs` checks the same death
//!    without a patience wrapper, on every substrate);
//! 3. a successful run tears down cleanly: every socket is closed and
//!    every reader thread joined when the cluster drops, in bounded
//!    time.

use kylix::{reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution};
use kylix_net::{ChaosComm, Comm, CommError, FaultPlan, LinkFaults, PatienceComm, ReliableComm};
use kylix_netsim::Substrate;
use kylix_sparse::{SumReducer, Xoshiro256};
use std::time::{Duration, Instant};

const M: usize = 4;

fn workload(seed: u64) -> Vec<NodeContribution<u64>> {
    let mut rng = Xoshiro256::new(seed);
    (0..M)
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

/// Satellite: chaos over TCP. Every link lossy (drops, duplicates,
/// corruption), the reliable layer repairing on top of real sockets —
/// the reduction must still be exact, for several seeds.
#[test]
fn chaos_over_tcp_still_produces_reference_reduction() {
    for seed in [7u64, 19, 301] {
        let plan = NetworkPlan::new(&[2, 2]);
        let nodes = workload(seed);
        let expected = reference_allreduce(&nodes, SumReducer);
        let mut faults = FaultPlan::new(seed);
        for a in 0..M {
            for b in 0..M {
                if a != b {
                    faults = faults.link(
                        a,
                        b,
                        LinkFaults {
                            drop_p: 0.12,
                            dup_p: 0.1,
                            corrupt_p: 0.08,
                            ..LinkFaults::none()
                        },
                    );
                }
            }
        }
        let (got, _) = Substrate::Tcp.run(M, |c| {
            let mut comm = ReliableComm::new(ChaosComm::new(c, faults.clone()));
            let me = comm.rank();
            let out = Kylix::new(plan.clone())
                .allreduce_combined(
                    &mut comm,
                    &nodes[me].in_indices,
                    &nodes[me].out_indices,
                    &nodes[me].out_values,
                    SumReducer,
                    0,
                )
                .map(|(v, _)| v);
            comm.flush().expect("flush after collective");
            out
        });
        for (rank, res) in got.iter().enumerate() {
            let v = res.as_ref().unwrap_or_else(|e| {
                panic!("seed {seed} rank {rank}: collective failed over chaos+TCP: {e}")
            });
            assert_eq!(
                v, &expected[rank],
                "seed {seed} rank {rank}: wrong reduction over chaos+TCP"
            );
        }
    }
}

/// Is this failure one a survivor of a peer death is allowed to report?
fn is_peer_death_error(e: &KylixError) -> bool {
    matches!(
        e,
        KylixError::Comm {
            source: CommError::Closed | CommError::Timeout { .. } | CommError::TimeoutAny { .. },
            ..
        }
    )
}

/// Satellite: peer death mid-collective. Rank 0 completes the
/// configuration pass, then its closure returns and its endpoint
/// drops — a node vanishing between protocol phases. The live ranks
/// must all resolve (result or error) within the patience-bounded
/// window: depended-on ranks fail with `Closed`/`Timeout`, nobody hangs
/// out the 60 s default, and nobody reports a wrong value.
#[test]
fn rank_death_mid_collective_fails_live_ranks_fast() {
    const PATIENCE: Duration = Duration::from_millis(400);
    let seed = 5u64;
    let plan = NetworkPlan::new(&[2, 2]);
    let nodes = workload(seed);
    let expected = reference_allreduce(&nodes, SumReducer);
    let start = Instant::now();
    let (got, _) = Substrate::Tcp.run(M, |comm| {
        let me = comm.rank();
        let mut patient = PatienceComm::new(comm, PATIENCE);
        let kylix = Kylix::new(plan.clone());
        let state = kylix.configure(
            &mut patient,
            &nodes[me].in_indices,
            &nodes[me].out_indices,
            0,
        );
        if me == 0 {
            // Die between configure and reduce: drop the endpoint.
            return None;
        }
        let mut state = match state {
            Ok(s) => s,
            Err(e) => return Some(Err(e)),
        };
        Some(state.reduce(&mut patient, &nodes[me].out_values, SumReducer))
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "live ranks must unwind within the patience budget, took {elapsed:?}"
    );
    let mut failures = 0;
    for (rank, res) in got.iter().enumerate() {
        match res {
            None => assert_eq!(rank, 0, "only rank 0 was killed"),
            Some(Ok(v)) => assert_eq!(
                v, &expected[rank],
                "rank {rank}: a completing survivor must still be exact"
            ),
            Some(Err(e)) => {
                assert!(
                    is_peer_death_error(e),
                    "rank {rank}: expected Closed/Timeout, got {e}"
                );
                failures += 1;
            }
        }
    }
    assert!(
        failures >= 1,
        "the dead rank's reduction partners must notice its death"
    );
}

/// Satellite: clean shutdown. A fully successful collective, then the
/// whole cluster drops — every worker thread joined, bounded wall
/// clock, exact results. Run twice back-to-back to catch port/thread
/// leakage between clusters.
#[test]
fn successful_run_tears_down_cleanly_and_repeatably() {
    for round in 0..2 {
        let seed = 23 + round as u64;
        let plan = NetworkPlan::new(&[2, 2]);
        let nodes = workload(seed);
        let expected = reference_allreduce(&nodes, SumReducer);
        let start = Instant::now();
        let (got, _) = Substrate::Tcp.run(M, |mut comm| {
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
                .map(|(v, _)| v)
                .unwrap()
        });
        // run() returns only after every rank thread joined, and each
        // rank thread only returns after its endpoint dropped — so this
        // bound covers the full teardown, sockets and workers included.
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(30),
            "round {round}: teardown not bounded, took {elapsed:?}"
        );
        assert_eq!(got, expected, "round {round}: wrong reduction");
    }
}
