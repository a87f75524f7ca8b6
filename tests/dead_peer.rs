//! One receive error per failure, on every substrate.
//!
//! The error matrix — {dead peer, silent live peer, corrupt payload} on
//! {sim, thread, TCP} — with one `CommError` variant per row, and no
//! cell taking a second of wall time:
//!
//! * A receive from a rank that is gone — dead from the start on the
//!   simulator, an endpoint dropped or crashed by a `ChaosComm` on any
//!   substrate — fails with `CommError::Closed` as soon as nothing it
//!   sent is left to take, never after the 60 s default patience. What
//!   it sent before it went is still delivered first, and a rank dying
//!   between the configuration and reduce passes unwinds every survivor
//!   promptly with an exact result or `Closed`, without a
//!   `PatienceComm` bounding the wait.
//! * A peer that is alive but silent makes a receive with an explicit
//!   timeout fail with `Timeout { from, tag }`, and a race with
//!   `TimeoutAny { sources, tag }`, once that timeout has passed.
//! * A payload corrupted on one link fails `Kylix::configure` on its
//!   receiver with `Corrupt { from: <sender>, .. }`.

use bytes::Bytes;
use kylix::{reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution};
use kylix_net::{
    ChaosComm, Comm, CommError, FaultPlan, LinkFaults, LocalCluster, Phase, Tag, TcpCluster,
    TcpComm, ThreadComm,
};
use kylix_netsim::{NicModel, SimCluster};
use kylix_sparse::{SumReducer, Xoshiro256};
use std::sync::Barrier;
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

/// The explicit patience a silent live peer is given.
const SILENCE: Duration = Duration::from_millis(50);

/// Rank 2 of a 3-rank cluster whose ranks 0 and 1 are alive and say
/// nothing: a selective receive from each is `Timeout`, a race over both
/// is `TimeoutAny`, and each waits out [`SILENCE`] but not much more.
fn receives_from_the_silent_time_out<C: Comm>(c2: &mut C) {
    for from in [0, 1] {
        let start = Instant::now();
        let got = promptly("selective receive", || {
            c2.recv_timeout(from, tag(0), SILENCE)
        });
        assert_eq!(got, Err(CommError::Timeout { from, tag: tag(0) }));
        assert!(start.elapsed() >= SILENCE, "gave up early");
    }
    let start = Instant::now();
    let got = promptly("racing receive", || {
        c2.recv_any_timeout(&[0, 1], tag(0), SILENCE)
    });
    assert_eq!(
        got,
        Err(CommError::TimeoutAny {
            sources: vec![0, 1],
            tag: tag(0)
        })
    );
    assert!(start.elapsed() >= SILENCE, "gave up early");
}

#[test]
fn sim_receive_from_silent_rank_times_out() {
    // Ranks 0 and 1 stay in the barrier, alive, until rank 2 is done.
    let done = Barrier::new(3);
    SimCluster::new(3, NicModel::ideal(1e9)).run_all(|mut c| {
        if c.rank() == 2 {
            receives_from_the_silent_time_out(&mut c);
        }
        done.wait();
    });
}

#[test]
fn thread_receive_from_silent_rank_times_out() {
    let mut comms = ThreadComm::make_cluster(3);
    let mut c2 = comms.pop().unwrap();
    receives_from_the_silent_time_out(&mut c2);
    drop(comms);
}

#[test]
fn tcp_receive_from_silent_rank_times_out() {
    let mut comms = TcpCluster::make_cluster(3);
    let mut c2 = comms.pop().unwrap();
    receives_from_the_silent_time_out(&mut c2);
    drop(comms);
}

/// Rank 0 sends two messages and drops; rank 1 still receives both, the
/// second before the first, and only then sees `Closed`.
fn sent_before_the_drop_is_delivered_first<C: Comm>(mut comms: Vec<C>) {
    let mut c1 = comms.pop().unwrap();
    speak_then_drop(comms.pop().unwrap());
    last_words_then_closed(&mut c1);
}

/// Rank 0's half: two messages, then its endpoint drops.
fn speak_then_drop<C: Comm>(mut c0: C) {
    c0.send(1, tag(0), Bytes::from_static(b"first"));
    c0.send(1, tag(1), Bytes::from_static(b"last words"));
}

/// Rank 1's half.
fn last_words_then_closed<C: Comm>(c1: &mut C) {
    assert_eq!(&c1.recv(0, tag(1)).unwrap()[..], b"last words");
    assert_eq!(&c1.recv_any(&[0], tag(0)).unwrap().1[..], b"first");
    let got = promptly("receive after the last message", || c1.recv(0, tag(2)));
    assert_eq!(got, Err(CommError::Closed));
}

#[test]
fn sim_message_sent_before_drop_is_delivered_first() {
    SimCluster::new(2, NicModel::ideal(1e9)).run_all(|mut c| {
        if c.rank() == 0 {
            speak_then_drop(c);
        } else {
            last_words_then_closed(&mut c);
        }
    });
}

#[test]
fn thread_message_sent_before_drop_is_delivered_first() {
    sent_before_the_drop_is_delivered_first(ThreadComm::make_cluster(2));
}

#[test]
fn tcp_message_sent_before_drop_is_delivered_first() {
    sent_before_the_drop_is_delivered_first(TcpCluster::make_cluster(2));
}

/// One rank of a 2-rank cluster whose rank 0 crashes on its first
/// operation and lives on, held at `done` until rank 1 has received
/// from it: what each rank's receive returned, and how long it took.
fn crash_then_linger<C: Comm>(comm: C, done: &Barrier) -> (Result<Bytes, CommError>, Duration) {
    let mut comm = ChaosComm::new(comm, FaultPlan::new(1).crash_after_ops(0, 1));
    let start = Instant::now();
    let got = if comm.rank() == 0 {
        comm.recv(1, tag(0))
    } else {
        comm.recv_timeout(0, tag(0), 5 * PROMPT)
    };
    let took = start.elapsed();
    done.wait();
    (got, took)
}

/// A crash is a drop: the crashed rank's own receive is `Crashed`, and
/// its peer's receive from it is `Closed` within [`PROMPT`], although the
/// crashed rank's closure has not returned.
fn crash_is_a_drop(out: Vec<(Result<Bytes, CommError>, Duration)>) {
    assert_eq!(out[0].0, Err(CommError::Crashed { rank: 0 }));
    let (got, took) = &out[1];
    assert_eq!(
        got,
        &Err(CommError::Closed),
        "receive from the crashed rank"
    );
    assert!(
        *took < PROMPT,
        "receive from the crashed rank took {took:?}"
    );
}

#[test]
fn sim_crash_is_a_drop() {
    let done = Barrier::new(2);
    crash_is_a_drop(
        SimCluster::new(2, NicModel::ideal(1e9)).run_all(|c| crash_then_linger(c, &done)),
    );
}

#[test]
fn thread_crash_is_a_drop() {
    let done = Barrier::new(2);
    crash_is_a_drop(LocalCluster::run(2, |c: ThreadComm| {
        crash_then_linger(c, &done)
    }));
}

#[test]
fn tcp_crash_is_a_drop() {
    let done = Barrier::new(2);
    crash_is_a_drop(TcpCluster::run(2, |c: TcpComm| crash_then_linger(c, &done)));
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
fn sim_rank_death_mid_collective_closes_survivors_fast() {
    rank_death_unwinds_survivors(|plan, nodes| {
        SimCluster::new(M, NicModel::ideal(1e9)).run_all(|c| configure_then_die(c, plan, nodes))
    });
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

/// The link whose every payload [`corrupt_one_link`] corrupts.
const CORRUPT_SRC: usize = 1;
const CORRUPT_DST: usize = 0;

/// One rank of a `[2,2]` configuration over a cluster whose link
/// `CORRUPT_SRC → CORRUPT_DST` flips a byte of every payload.
fn configure_over_corrupt_link<C: Comm>(
    comm: C,
    nodes: &[NodeContribution<u64>],
) -> Result<(), KylixError> {
    let mut comm = ChaosComm::new(comm, corrupt_one_link());
    let me = comm.rank();
    let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
    kylix
        .configure(&mut comm, &nodes[me].in_indices, &nodes[me].out_indices, 0)
        .map(drop)
}

fn corrupt_one_link() -> FaultPlan {
    FaultPlan::new(3).link(
        CORRUPT_SRC,
        CORRUPT_DST,
        LinkFaults {
            corrupt_p: 1.0,
            ..LinkFaults::none()
        },
    )
}

/// The receiver of the corrupt link reports `Corrupt` from its sender;
/// every other rank finishes or is `Closed` by the receiver's exit. The
/// whole run takes under [`PROMPT`].
fn corruption_is_reported_from_its_sender(
    run: impl FnOnce(&[NodeContribution<u64>]) -> Vec<Result<(), KylixError>>,
) {
    let nodes = workload(9);
    let got = promptly("configure over a corrupt link", || run(&nodes));
    match &got[CORRUPT_DST] {
        Err(KylixError::Comm {
            source: CommError::Corrupt { from, .. },
            ..
        }) => assert_eq!(*from, CORRUPT_SRC),
        other => panic!("rank {CORRUPT_DST}: expected Corrupt, got {other:?}"),
    }
    for (rank, res) in got.iter().enumerate() {
        if rank == CORRUPT_DST {
            continue;
        }
        match res {
            Ok(())
            | Err(KylixError::Comm {
                source: CommError::Closed,
                ..
            }) => {}
            Err(e) => panic!("rank {rank}: expected Ok or Closed, got {e}"),
        }
    }
}

#[test]
fn sim_corrupt_payload_is_corrupt_from_its_sender() {
    corruption_is_reported_from_its_sender(|nodes| {
        SimCluster::new(M, NicModel::ideal(1e9)).run_all(|c| configure_over_corrupt_link(c, nodes))
    });
}

#[test]
fn thread_corrupt_payload_is_corrupt_from_its_sender() {
    corruption_is_reported_from_its_sender(|nodes| {
        LocalCluster::run(M, |c: ThreadComm| configure_over_corrupt_link(c, nodes))
    });
}

#[test]
fn tcp_corrupt_payload_is_corrupt_from_its_sender() {
    corruption_is_reported_from_its_sender(|nodes| {
        TcpCluster::run(M, |c: TcpComm| configure_over_corrupt_link(c, nodes))
    });
}
