//! One receive error per failure, on every substrate.
//!
//! The error matrix — {dead peer, silent live peer, corrupt payload} on
//! {sim, thread, TCP} — with one `CommError` variant per row, and no
//! cell taking a second of wall time. Each case is one body taking a
//! [`Substrate`], run as one test per substrate (`sim_*`, `thread_*`,
//! `tcp_*`):
//!
//! * A receive from a rank that is gone — its closure returned, or a
//!   `ChaosComm` crashed it — fails with `CommError::Closed` as soon as
//!   nothing it sent is left to take, never after the 60 s default
//!   patience. What it sent before it went is still delivered first,
//!   and a rank dying between the configuration and reduce passes
//!   unwinds every survivor promptly with an exact result or `Closed`,
//!   without a `PatienceComm` bounding the wait.
//! * A peer that is alive but silent makes a receive with an explicit
//!   timeout fail with `Timeout { from, tag }`, and a race with
//!   `TimeoutAny { sources, tag }`, once that timeout has passed.
//! * A payload corrupted on one link fails `Kylix::configure` on its
//!   receiver with `Corrupt { from: <sender>, .. }`, and one byte changed
//!   in an up-pass message fails `reduce` on its receiver the same way.

use bytes::Bytes;
use kylix::{reference_allreduce, Kylix, KylixError, NetworkPlan, NodeContribution};
use kylix_net::{ChaosComm, Comm, CommError, FaultPlan, LinkFaults, Phase, Tag};
use kylix_netsim::{NicModel, Substrate};
use kylix_sparse::{SumReducer, Xoshiro256};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long a dead-peer receive may take, against the 60 s default.
const PROMPT: Duration = Duration::from_secs(1);

fn tag(seq: u32) -> Tag {
    Tag::new(Phase::App, 0, seq)
}

/// The simulator, with no jitter.
fn sim() -> Substrate {
    Substrate::Sim {
        nic: NicModel::ideal(1e9),
        seed: 0,
    }
}

/// One test per substrate, each running the case body `$case` there.
macro_rules! on_every_substrate {
    ($case:ident: $sim:ident, $thread:ident, $tcp:ident) => {
        #[test]
        fn $sim() {
            $case(sim());
        }
        #[test]
        fn $thread() {
            $case(Substrate::Thread);
        }
        #[test]
        fn $tcp() {
            $case(Substrate::Tcp);
        }
    };
}

/// `f`'s result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `f`'s result, after asserting it returned within [`PROMPT`].
fn promptly<T>(what: &str, f: impl FnOnce() -> T) -> T {
    let (out, elapsed) = timed(f);
    assert!(elapsed < PROMPT, "{what}: took {elapsed:?}");
    out
}

/// Rank 2 of a 3-rank cluster whose ranks 0 and 1 are dead from the
/// start: a selective receive from each and a race over both are
/// `Closed`, promptly.
fn receive_from_dead_rank_is_closed(s: Substrate) {
    s.run(3, |mut c| {
        if c.rank() != 2 {
            return;
        }
        for from in [0, 1] {
            let got = promptly(&format!("{s}: selective receive"), || c.recv(from, tag(0)));
            assert_eq!(got, Err(CommError::Closed), "{s}: receive from rank {from}");
        }
        let got = promptly(&format!("{s}: racing receive"), || {
            c.recv_any(&[0, 1], tag(0))
        });
        assert_eq!(got, Err(CommError::Closed), "{s}: racing receive");
    });
}

on_every_substrate!(
    receive_from_dead_rank_is_closed:
    sim_receive_from_dead_rank_is_closed,
    thread_receive_from_dropped_rank_is_closed,
    tcp_receive_from_dropped_rank_is_closed
);

/// The explicit patience a silent live peer is given.
const SILENCE: Duration = Duration::from_millis(50);

/// Rank 2 of a 3-rank cluster whose ranks 0 and 1 are alive and say
/// nothing (they wait in a barrier until rank 2 is done): a selective
/// receive from each is `Timeout`, a race over both is `TimeoutAny`,
/// and each waits out [`SILENCE`] but not much more. The asserts run
/// after the barrier, so a failing one cannot strand ranks 0 and 1.
fn receive_from_silent_rank_times_out(s: Substrate) {
    let done = Barrier::new(3);
    let (out, _) = s.run(3, |mut c| {
        let mut got = Vec::new();
        if c.rank() == 2 {
            for from in [0, 1] {
                got.push(timed(|| c.recv_timeout(from, tag(0), SILENCE).map(drop)));
            }
            got.push(timed(|| {
                c.recv_any_timeout(&[0, 1], tag(0), SILENCE).map(drop)
            }));
        }
        done.wait();
        got
    });
    let want = [
        CommError::Timeout {
            from: 0,
            tag: tag(0),
        },
        CommError::Timeout {
            from: 1,
            tag: tag(0),
        },
        CommError::TimeoutAny {
            sources: vec![0, 1],
            tag: tag(0),
        },
    ];
    assert_eq!(out[2].len(), want.len(), "{s}: rank 2's receives");
    for ((got, took), want) in out[2].iter().zip(want) {
        assert!(*took >= SILENCE, "{s}: {want} gave up early");
        assert!(*took < PROMPT, "{s}: {want} took {took:?}");
        assert_eq!(got, &Err(want), "{s}");
    }
}

on_every_substrate!(
    receive_from_silent_rank_times_out:
    sim_receive_from_silent_rank_times_out,
    thread_receive_from_silent_rank_times_out,
    tcp_receive_from_silent_rank_times_out
);

/// Rank 0 sends two messages and returns; rank 1 still receives both,
/// the second before the first, and only then sees `Closed`.
fn message_sent_before_drop_is_delivered_first(s: Substrate) {
    s.run(2, |mut c| {
        if c.rank() == 0 {
            c.send(1, tag(0), Bytes::from_static(b"first"));
            c.send(1, tag(1), Bytes::from_static(b"last words"));
            return;
        }
        let last = c.recv(0, tag(1)).unwrap();
        assert_eq!(&last[..], b"last words", "{s}: second message");
        let first = c.recv_any(&[0], tag(0)).unwrap().1;
        assert_eq!(&first[..], b"first", "{s}: first message");
        let got = promptly(&format!("{s}: receive after the last message"), || {
            c.recv(0, tag(2))
        });
        assert_eq!(got, Err(CommError::Closed), "{s}: after the last message");
    });
}

on_every_substrate!(
    message_sent_before_drop_is_delivered_first:
    sim_message_sent_before_drop_is_delivered_first,
    thread_message_sent_before_drop_is_delivered_first,
    tcp_message_sent_before_drop_is_delivered_first
);

/// A crash is a drop. Rank 0 of a 2-rank cluster crashes on its first
/// operation and lives on, held at a barrier until rank 1 has received
/// from it. The crashed rank's own receive is `Crashed`, and its peer's
/// receive from it is `Closed` within [`PROMPT`], although the crashed
/// rank's closure has not returned.
fn crash_is_a_drop(s: Substrate) {
    let done = Barrier::new(2);
    let (out, _) = s.run(2, |c| {
        let mut c = ChaosComm::new(c, FaultPlan::new(1).crash_after_ops(0, 1));
        let out = timed(|| {
            if c.rank() == 0 {
                c.recv(1, tag(0))
            } else {
                c.recv_timeout(0, tag(0), 5 * PROMPT)
            }
        });
        done.wait();
        out
    });
    assert_eq!(
        out[0].0,
        Err(CommError::Crashed { rank: 0 }),
        "{s}: the crashed rank's receive"
    );
    let (got, took) = &out[1];
    assert_eq!(
        got,
        &Err(CommError::Closed),
        "{s}: receive from the crashed rank"
    );
    assert!(
        *took < PROMPT,
        "{s}: receive from the crashed rank took {took:?}"
    );
}

on_every_substrate!(
    crash_is_a_drop:
    sim_crash_is_a_drop,
    thread_crash_is_a_drop,
    tcp_crash_is_a_drop
);

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

/// The mid-collective death: every rank configures the `[2,2]` plan,
/// then rank 0 returns (its endpoint drops) while the others reduce,
/// with the default patience on every receive. For seeds 1–5, every
/// survivor returns the exact reference or `Closed`, at least one
/// reports `Closed` (rank 0's reduce partners need its data), and the
/// whole run takes under 5 s.
fn rank_death_unwinds_survivors(s: Substrate) {
    let plan = NetworkPlan::new(&[2, 2]);
    for seed in 1..=5u64 {
        let nodes = workload(seed);
        let expected = reference_allreduce(&nodes, SumReducer);
        let start = Instant::now();
        let (got, _) = s.run(M, |mut c| {
            let me = c.rank();
            let kylix = Kylix::new(plan.clone());
            let state = kylix.configure(&mut c, &nodes[me].in_indices, &nodes[me].out_indices, 0);
            if me == 0 {
                return None;
            }
            Some(state.and_then(|mut st| st.reduce(&mut c, &nodes[me].out_values, SumReducer)))
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "{s} seed {seed}: survivors took {elapsed:?} to unwind"
        );
        assert!(got[0].is_none(), "{s}: rank 0 died");
        let mut closed = 0;
        for (rank, res) in got.iter().enumerate().skip(1) {
            match res.as_ref().expect("survivors return") {
                Ok(v) => assert_eq!(v, &expected[rank], "{s} seed {seed} rank {rank}"),
                Err(KylixError::Comm {
                    source: CommError::Closed,
                    ..
                }) => closed += 1,
                Err(e) => panic!("{s} seed {seed} rank {rank}: expected Closed, got {e}"),
            }
        }
        assert!(
            closed >= 1,
            "{s} seed {seed}: the dead rank's reduce partners must see it closed"
        );
    }
}

on_every_substrate!(
    rank_death_unwinds_survivors:
    sim_rank_death_mid_collective_closes_survivors_fast,
    thread_rank_death_mid_collective_closes_survivors_fast,
    tcp_rank_death_mid_collective_closes_survivors_fast
);

/// The link whose every payload [`corrupt_one_link`] corrupts.
const CORRUPT_SRC: usize = 1;
const CORRUPT_DST: usize = 0;

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

/// A `[2,2]` configuration over a cluster whose link `CORRUPT_SRC →
/// CORRUPT_DST` flips a byte of every payload. The receiver of the
/// corrupt link reports `Corrupt` from its sender; every other rank
/// finishes or is `Closed` by the receiver's exit. The whole run takes
/// under [`PROMPT`].
fn corrupt_payload_is_corrupt_from_its_sender(s: Substrate) {
    let nodes = workload(9);
    let plan = NetworkPlan::new(&[2, 2]);
    let (got, _) = promptly(&format!("{s}: configure over a corrupt link"), || {
        s.run(M, |c| {
            let mut c = ChaosComm::new(c, corrupt_one_link());
            let me = c.rank();
            Kylix::new(plan.clone())
                .configure(&mut c, &nodes[me].in_indices, &nodes[me].out_indices, 0)
                .map(drop)
        })
    });
    match &got[CORRUPT_DST] {
        Err(KylixError::Comm {
            source: CommError::Corrupt { from, .. },
            ..
        }) => assert_eq!(*from, CORRUPT_SRC, "{s}: the corrupt payload's sender"),
        other => panic!("{s} rank {CORRUPT_DST}: expected Corrupt, got {other:?}"),
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
            Err(e) => panic!("{s} rank {rank}: expected Ok or Closed, got {e}"),
        }
    }
}

on_every_substrate!(
    corrupt_payload_is_corrupt_from_its_sender:
    sim_corrupt_payload_is_corrupt_from_its_sender,
    thread_corrupt_payload_is_corrupt_from_its_sender,
    tcp_corrupt_payload_is_corrupt_from_its_sender
);

/// Where in a payload of the given length [`FlipFirstUp`] flips a byte.
type Offset = fn(usize) -> usize;

/// When `armed`, flips one byte — at offset `at(len)` of a payload of
/// `len` bytes — of the first `ReduceUp` payload its rank receives, and
/// remembers which peer sent it.
struct FlipFirstUp<C> {
    inner: C,
    armed: bool,
    at: Offset,
    flipped_from: Option<usize>,
}

impl<C: Comm> Comm for FlipFirstUp<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        self.inner.send(to, tag, payload)
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        let (from, payload) = self.inner.recv_any_timeout(sources, tag, timeout)?;
        if !self.armed || self.flipped_from.is_some() || tag.phase() != Phase::ReduceUp as u8 {
            return Ok((from, payload));
        }
        self.flipped_from = Some(from);
        let mut bad = payload.to_vec();
        let at = (self.at)(bad.len());
        bad[at] ^= 0x10;
        Ok((from, Bytes::from(bad)))
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn telemetry(&self) -> Option<&kylix_net::telemetry::RankTelemetry> {
        self.inner.telemetry()
    }
}

/// The up pass verifies each arrival while it copies it into place: a
/// byte changed in the count word, the values or the seal of the first
/// up-pass message rank 0 receives still fails its `reduce` with
/// `Corrupt` naming that message's sender. Every other rank finishes or
/// is `Closed` by rank 0's exit.
fn corrupt_up_pass_payload_is_corrupt_from_its_sender(s: Substrate) {
    let nodes = workload(10);
    let plan = NetworkPlan::new(&[2, 2]);
    let offsets: [(_, Offset); 3] = [
        ("count word", |_| 0),
        ("values", |len| len / 2),
        ("seal", |len| len - 1),
    ];
    for (what, at) in offsets {
        let (got, _) = promptly(&format!("{s}: reduce over a corrupt {what}"), || {
            s.run(M, |c| {
                let me = c.rank();
                let mut c = FlipFirstUp {
                    inner: c,
                    armed: me == CORRUPT_DST,
                    at,
                    flipped_from: None,
                };
                let n = &nodes[me];
                let mut state = Kylix::new(plan.clone())
                    .configure(&mut c, &n.in_indices, &n.out_indices, 0)
                    .expect("configuration is not corrupted");
                let got = state.reduce(&mut c, &n.out_values, SumReducer).map(drop);
                (got, c.flipped_from)
            })
        });
        match &got[CORRUPT_DST] {
            (
                Err(KylixError::Comm {
                    source: CommError::Corrupt { from, .. },
                    ..
                }),
                Some(sender),
            ) => assert_eq!(from, sender, "{s}: the corrupt {what}'s sender"),
            other => {
                panic!("{s} rank {CORRUPT_DST}, corrupt {what}: expected Corrupt, got {other:?}")
            }
        }
        for (rank, (res, _)) in got.iter().enumerate() {
            if rank == CORRUPT_DST {
                continue;
            }
            match res {
                Ok(())
                | Err(KylixError::Comm {
                    source: CommError::Closed,
                    ..
                }) => {}
                Err(e) => panic!("{s} rank {rank}, corrupt {what}: expected Ok or Closed, got {e}"),
            }
        }
    }
}

on_every_substrate!(
    corrupt_up_pass_payload_is_corrupt_from_its_sender:
    sim_corrupt_up_pass_payload_is_corrupt_from_its_sender,
    thread_corrupt_up_pass_payload_is_corrupt_from_its_sender,
    tcp_corrupt_up_pass_payload_is_corrupt_from_its_sender
);
