//! One dead-peer rule on every substrate.
//!
//! A receive from a rank that is gone — dead from the start on the
//! simulator, an endpoint dropped on the thread and TCP clusters —
//! fails with `CommError::Closed` as soon as nothing it sent is left to
//! take, never after the 60 s default patience. What it sent before it
//! went is still delivered first, and a rank dying between the
//! configuration and reduce passes unwinds every survivor promptly with
//! an exact result or `Closed`, without a `PatienceComm` bounding the
//! wait.

use bytes::Bytes;
use kylix::{reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution};
use kylix_net::{Comm, CommError, LocalCluster, Phase, Tag, TcpCluster, TcpComm, ThreadComm};
use kylix_netsim::{NicModel, SimCluster};
use kylix_sparse::{SumReducer, Xoshiro256};
use std::time::{Duration, Instant};

/// How long a dead-peer receive may take, against the 60 s default.
const PROMPT: Duration = Duration::from_secs(1);

fn tag(seq: u32) -> Tag {
    Tag::new(Phase::App, 0, seq)
}

/// `f`'s result, after asserting it returned within [`PROMPT`].
fn promptly<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    assert!(elapsed < PROMPT, "{what}: took {elapsed:?}");
    out
}

/// Rank 2 of a 3-rank cluster whose ranks 0 and 1 are gone: a selective
/// receive from each and a race over both are `Closed`, promptly.
fn receives_from_the_dead_are_closed<C: Comm>(c2: &mut C) {
    for from in [0, 1] {
        let got = promptly("selective receive", || c2.recv(from, tag(0)));
        assert_eq!(got, Err(CommError::Closed), "receive from rank {from}");
    }
    let got = promptly("racing receive", || c2.recv_any(&[0, 1], tag(0)));
    assert_eq!(got, Err(CommError::Closed));
}

#[test]
fn sim_receive_from_dead_rank_is_closed() {
    let cluster = SimCluster::new(3, NicModel::ideal(1e9)).failures(&[0, 1]);
    let out = cluster.run(|mut c| {
        if c.rank() == 2 {
            receives_from_the_dead_are_closed(&mut c);
        }
    });
    assert!(out[2].is_some(), "rank 2 ran");
}

#[test]
fn thread_receive_from_dropped_rank_is_closed() {
    let mut comms = ThreadComm::make_cluster(3);
    let mut c2 = comms.pop().unwrap();
    drop(comms);
    receives_from_the_dead_are_closed(&mut c2);
}

#[test]
fn tcp_receive_from_dropped_rank_is_closed() {
    let mut comms = TcpCluster::make_cluster(3);
    let mut c2 = comms.pop().unwrap();
    drop(comms);
    receives_from_the_dead_are_closed(&mut c2);
}

/// Rank 0 sends two messages and drops; rank 1 still receives both, the
/// second before the first, and only then sees `Closed`.
fn sent_before_the_drop_is_delivered_first<C: Comm>(mut comms: Vec<C>) {
    let mut c1 = comms.pop().unwrap();
    let mut c0 = comms.pop().unwrap();
    c0.send(1, tag(0), Bytes::from_static(b"first"));
    c0.send(1, tag(1), Bytes::from_static(b"last words"));
    drop(c0);
    assert_eq!(&c1.recv(0, tag(1)).unwrap()[..], b"last words");
    assert_eq!(&c1.recv_any(&[0], tag(0)).unwrap().1[..], b"first");
    let got = promptly("receive after the last message", || c1.recv(0, tag(2)));
    assert_eq!(got, Err(CommError::Closed));
}

#[test]
fn thread_message_sent_before_drop_is_delivered_first() {
    sent_before_the_drop_is_delivered_first(ThreadComm::make_cluster(2));
}

#[test]
fn tcp_message_sent_before_drop_is_delivered_first() {
    sent_before_the_drop_is_delivered_first(TcpCluster::make_cluster(2));
}

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

/// One rank of the mid-collective death: configure, then rank 0 returns
/// (its endpoint drops) while the others reduce, with the default
/// patience on every receive.
fn configure_then_die<C: Comm>(
    mut comm: C,
    plan: &NetworkPlan,
    nodes: &[NodeContribution<u64>],
) -> Option<Result<Vec<u64>, KylixError>> {
    let me = comm.rank();
    let kylix = Kylix::new(plan.clone());
    let state = kylix.configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0);
    if me == 0 {
        return None;
    }
    Some(state.and_then(|mut s| s.reduce(&mut comm, &nodes[me].out_values, SumReducer)))
}

/// Run [`configure_then_die`] on the `[2,2]` plan for seeds 1–5 with
/// `run`; every survivor returns the exact reference or `Closed`, and
/// the whole run takes under 5 s.
fn rank_death_unwinds_survivors(
    run: impl Fn(&NetworkPlan, &[NodeContribution<u64>]) -> Vec<Option<Result<Vec<u64>, KylixError>>>,
) {
    let plan = NetworkPlan::new(&[2, 2]);
    for seed in 1..=5u64 {
        let nodes = workload(seed);
        let expected = reference_allreduce(&nodes, SumReducer);
        let start = Instant::now();
        let got = run(&plan, &nodes);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "seed {seed}: survivors took {elapsed:?} to unwind"
        );
        assert!(got[0].is_none(), "rank 0 died");
        for (rank, res) in got.iter().enumerate().skip(1) {
            match res.as_ref().expect("survivors return") {
                Ok(v) => assert_eq!(v, &expected[rank], "seed {seed} rank {rank}"),
                Err(KylixError::Comm {
                    source: CommError::Closed,
                    ..
                }) => {}
                Err(e) => panic!("seed {seed} rank {rank}: expected Closed, got {e}"),
            }
        }
    }
}

#[test]
fn thread_rank_death_mid_collective_closes_survivors_fast() {
    rank_death_unwinds_survivors(|plan, nodes| {
        LocalCluster::run(M, |c: ThreadComm| configure_then_die(c, plan, nodes))
    });
}

#[test]
fn tcp_rank_death_mid_collective_closes_survivors_fast() {
    rank_death_unwinds_survivors(|plan, nodes| {
        TcpCluster::run(M, |c: TcpComm| configure_then_die(c, plan, nodes))
    });
}
