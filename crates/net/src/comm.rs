//! The communicator trait.
//!
//! All Kylix protocol code — configuration, reduction, replication, the
//! baselines, the applications — is written against [`Comm`]. The trait
//! is intentionally tiny: point-to-point send, one racing receive
//! ([`Comm::recv_any_timeout`], the primitive behind the paper's replica
//! "packet racing", §V.B), a stash garbage-collection hook
//! ([`Comm::discard`], used by racing wrappers to drop losing copies),
//! and two time hooks that let a virtual-time simulator charge compute
//! and report virtual clocks while a real thread cluster reports wall
//! clocks.
//!
//! A *selective* receive (by source + tag) is a race of one: the
//! provided [`Comm::recv_timeout`] runs `recv_any_timeout(&[from], ..)`
//! and reports a lost race as [`CommError::Timeout`]. A substrate or
//! wrapper therefore writes one receive loop, and the selective and
//! racing receives cannot disagree on an error.
//!
//! Substrates that can hand over *every* incoming message regardless of
//! source and tag additionally implement [`RawComm`]; the reliable
//! delivery wrapper (`crate::reliable::ReliableComm`) is built on that,
//! because it must see acknowledgements from any peer while the
//! protocol above it blocks on one.

use crate::tag::Tag;
use bytes::Bytes;
use kylix_telemetry::RankTelemetry;
use std::time::Duration;

/// Errors a receive can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the timeout for a *selective*
    /// receive (e.g. the peer is dead and the protocol has no replica
    /// to race).
    Timeout {
        /// Rank that was being waited on.
        from: usize,
        /// Tag that was being waited on.
        tag: Tag,
    },
    /// No message with `tag` arrived from *any* of `sources` within the
    /// timeout — a failed packet race: every candidate replica is dead
    /// or silent.
    TimeoutAny {
        /// The racing candidate ranks that were being waited on.
        sources: Vec<usize>,
        /// Tag that was being waited on.
        tag: Tag,
    },
    /// A received payload failed its integrity check: the bytes that
    /// arrived from `from` are not the bytes that were sent (injected
    /// or real corruption). Never silently delivered.
    Corrupt {
        /// Rank whose message was damaged.
        from: usize,
        /// Tag of the damaged message.
        tag: Tag,
    },
    /// This endpoint has crashed (mid-run fault injection): the node is
    /// dark and can neither send nor receive.
    Crashed {
        /// The crashed rank (this endpoint's own rank).
        rank: usize,
    },
    /// The cluster is shutting down (all senders dropped).
    Closed,
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "timed out waiting for rank {from} tag {tag:?}")
            }
            CommError::TimeoutAny { sources, tag } => {
                write!(
                    f,
                    "timed out waiting for any of ranks {sources:?} tag {tag:?}"
                )
            }
            CommError::Corrupt { from, tag } => {
                write!(f, "corrupt payload from rank {from} tag {tag:?}")
            }
            CommError::Crashed { rank } => {
                write!(f, "rank {rank} has crashed (endpoint is dark)")
            }
            CommError::Closed => write!(f, "communicator closed"),
        }
    }
}

impl std::error::Error for CommError {}

/// Default patience for blocking receives — long enough for any test or
/// bench on a loaded machine, short enough that a genuinely lost message
/// fails the run instead of hanging it.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// A per-node communicator endpoint.
///
/// Each rank owns exactly one `Comm` value; methods take `&mut self`
/// because endpoints carry node-local state (receive stashes, virtual
/// clocks). Values are `Send` so ranks can run on their own threads.
///
/// Required: `rank`, `size`, `send`, `recv_any_timeout` and `now`.
/// Every other method is provided; a wrapper overrides one only where
/// it changes what the method does.
pub trait Comm: Send {
    /// This node's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of nodes in the cluster.
    fn size(&self) -> usize;

    /// Fire-and-forget send: it never waits for the receiver to call a
    /// receive. A substrate may wait for its own buffer space —
    /// `TcpComm` writes on the caller's thread and can wait for kernel
    /// socket buffer space — but that always frees up, because every
    /// peer's reader thread drains its socket into an unbounded queue
    /// whether or not the peer is receiving. So ranks that send to each
    /// other before receiving cannot deadlock. Sends to dead/absent
    /// ranks are silently dropped (commodity clusters lose nodes; the
    /// protocol layers above decide whether that is tolerable — see the
    /// replication module of the `kylix` crate).
    fn send(&mut self, to: usize, tag: Tag, payload: Bytes);

    /// Blocking selective receive of the next message from `from` with
    /// tag `tag`, with the given patience: a race with one candidate,
    /// whose lost race is a [`CommError::Timeout`].
    fn recv_timeout(
        &mut self,
        from: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<Bytes, CommError> {
        self.recv_any_timeout(&[from], tag, timeout)
            .map(|(_, payload)| payload)
            .map_err(|e| match e {
                CommError::TimeoutAny { .. } => CommError::Timeout { from, tag },
                other => other,
            })
    }

    /// Blocking selective receive with the default patience.
    fn recv(&mut self, from: usize, tag: Tag) -> Result<Bytes, CommError> {
        self.recv_timeout(from, tag, DEFAULT_TIMEOUT)
    }

    /// Receive the first message with tag `tag` from *any* of `sources`
    /// ("packet racing"): returns the winning source and its payload.
    ///
    /// Losing copies are **not** consumed: a racing caller that fanned
    /// the same logical message out to every source should
    /// [`Comm::discard`] the losers afterwards, or they accumulate in
    /// the receive stash.
    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError>;

    /// `recv_any_timeout` with the default patience.
    fn recv_any(&mut self, sources: &[usize], tag: Tag) -> Result<(usize, Bytes), CommError> {
        self.recv_any_timeout(sources, tag, DEFAULT_TIMEOUT)
    }

    /// Drop one message with `tag` from each of `sources` — whether it
    /// already sits in the receive stash or has not arrived yet (a
    /// pending discard is remembered and applied on arrival).
    ///
    /// This is the stash garbage-collection hook for packet racing
    /// (§V.B): after a race is won, the losing replicas' copies are
    /// dead weight and would otherwise accumulate forever across
    /// collective rounds. The default is a no-op (substrates without a
    /// stash have nothing to collect).
    fn discard(&mut self, _sources: &[usize], _tag: Tag) {}

    /// Current time in seconds: wall-clock since cluster start for real
    /// clusters, virtual time for simulators.
    fn now(&self) -> f64;

    /// Account local computation. Real clusters ignore this (the
    /// computation actually happened); simulators advance the node's
    /// virtual clock.
    fn charge_compute(&mut self, _seconds: f64) {}

    /// Does nothing, and nothing in the workspace calls it: a rank's
    /// own part of a layer is filed as `SelfBytes`/`SelfMsgs` by the
    /// pass that keeps it. The method stays only so that existing
    /// wrappers overriding it still compile.
    fn note_traffic(&mut self, _layer: u16, _bytes: usize) {}

    /// This endpoint's telemetry shard, if counters were attached when
    /// the cluster was built. Wrappers must delegate so instrumentation
    /// added at any layer (reliability, chaos, replication) lands in
    /// the same per-rank shard. Default: no telemetry.
    fn telemetry(&self) -> Option<&RankTelemetry> {
        None
    }
}

/// One incoming message, unfiltered: source, tag, payload.
#[derive(Debug, Clone)]
pub struct RawMessage {
    /// Sender rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Message payload.
    pub payload: Bytes,
}

/// A communicator that can surrender its *next incoming message
/// whatever it is* — the primitive reliable delivery is built on.
///
/// Selective receives ([`Comm::recv_timeout`]) stash non-matching
/// traffic invisibly; a reliability layer must instead observe every
/// arrival (data from anyone, acknowledgements for its own sends), so
/// it drives the substrate exclusively through this method and keeps
/// its own delivery queues.
pub trait RawComm: Comm {
    /// Blocking receive of the next incoming message from any source
    /// with any tag. Returns `Ok(None)` if nothing arrived within
    /// `timeout` (an expected condition in retransmission loops, not an
    /// error). Messages already stashed by earlier selective receives
    /// are yielded first.
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError>;
}

/// A communicator wrapper that bounds every blocking receive with a
/// caller-chosen patience instead of [`DEFAULT_TIMEOUT`].
///
/// Useful for tests and demos that *expect* a peer to be unreachable
/// (e.g. an unreplicated protocol facing a dead node) and want the
/// failure surfaced quickly rather than after a minute.
///
/// ### Timeout semantics
///
/// The patience is an **upper bound**, applied identically to every
/// receive flavour:
///
/// * `recv` / `recv_any` (no explicit timeout) wait exactly the
///   patience instead of [`DEFAULT_TIMEOUT`];
/// * `recv_timeout` / `recv_any_timeout` wait
///   `min(explicit timeout, patience)` — an explicit timeout *shorter*
///   than the patience is honoured as given, a longer one is clamped
///   down to the patience.
pub struct PatienceComm<C: Comm> {
    inner: C,
    patience: Duration,
}

impl<C: Comm> PatienceComm<C> {
    /// Wrap a communicator with the given receive patience.
    pub fn new(inner: C, patience: Duration) -> Self {
        Self { inner, patience }
    }

    /// The configured patience (the upper bound on every receive).
    pub fn patience(&self) -> Duration {
        self.patience
    }

    /// Unwrap the inner communicator.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Comm> Comm for PatienceComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        self.inner.send(to, tag, payload);
    }

    fn recv(&mut self, from: usize, tag: Tag) -> Result<Bytes, CommError> {
        self.inner.recv_timeout(from, tag, self.patience)
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        self.inner
            .recv_any_timeout(sources, tag, timeout.min(self.patience))
    }

    fn recv_any(&mut self, sources: &[usize], tag: Tag) -> Result<(usize, Bytes), CommError> {
        self.inner.recv_any_timeout(sources, tag, self.patience)
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        self.inner.discard(sources, tag);
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn charge_compute(&mut self, seconds: f64) {
        self.inner.charge_compute(seconds);
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.inner.telemetry()
    }
}

impl<C: RawComm> RawComm for PatienceComm<C> {
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        self.inner.recv_raw_timeout(timeout.min(self.patience))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Phase;
    use crate::thread_comm::ThreadComm;
    use std::time::Instant;

    fn tag() -> Tag {
        Tag::new(Phase::App, 0, 0)
    }

    /// Rank 1 of a two-rank cluster, after its peer rank 0. The peer
    /// must stay alive and silent: a dropped peer fails a receive with
    /// `Closed` instead of letting it time out.
    fn beside_a_silent_peer() -> (ThreadComm, ThreadComm) {
        let mut comms = ThreadComm::make_cluster(2);
        let c1 = comms.pop().unwrap();
        (comms.pop().unwrap(), c1)
    }

    /// Regression (both directions of the min semantics): an explicit
    /// timeout shorter than the patience is honoured as given.
    #[test]
    fn explicit_timeout_shorter_than_patience_is_honoured() {
        let (_silent, c1) = beside_a_silent_peer();
        let mut p = PatienceComm::new(c1, Duration::from_secs(5));
        let start = Instant::now();
        let err = p
            .recv_timeout(0, tag(), Duration::from_millis(40))
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, CommError::Timeout { from: 0, .. }));
        assert!(
            elapsed < Duration::from_millis(1500),
            "short explicit timeout must not wait out the patience: {elapsed:?}"
        );
    }

    /// Regression (the other direction): an explicit timeout longer
    /// than the patience is clamped down to the patience, consistently
    /// with `recv`.
    #[test]
    fn explicit_timeout_longer_than_patience_is_clamped() {
        let (_silent, c1) = beside_a_silent_peer();
        let mut p = PatienceComm::new(c1, Duration::from_millis(40));
        let start = Instant::now();
        let err = p
            .recv_timeout(0, tag(), Duration::from_secs(60))
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, CommError::Timeout { from: 0, .. }));
        assert!(
            elapsed < Duration::from_millis(1500),
            "long explicit timeout must be clamped to the patience: {elapsed:?}"
        );

        // recv_any has the same cap.
        let start = Instant::now();
        let err = p
            .recv_any_timeout(&[0], tag(), Duration::from_secs(60))
            .unwrap_err();
        assert!(matches!(err, CommError::TimeoutAny { .. }));
        assert!(start.elapsed() < Duration::from_millis(1500));
    }

    #[test]
    fn default_recv_uses_patience_not_default_timeout() {
        let (_silent, c1) = beside_a_silent_peer();
        let mut p = PatienceComm::new(c1, Duration::from_millis(40));
        let start = Instant::now();
        assert!(matches!(
            p.recv(0, tag()),
            Err(CommError::Timeout { from: 0, .. })
        ));
        assert!(start.elapsed() < Duration::from_millis(1500));
    }

    /// A communicator that never delivers and records the patience of
    /// every receive it is asked for.
    struct Recorder(Vec<Duration>);

    impl Comm for Recorder {
        fn rank(&self) -> usize {
            0
        }
        fn size(&self) -> usize {
            2
        }
        fn send(&mut self, _to: usize, _tag: Tag, _payload: Bytes) {}
        fn recv_any_timeout(
            &mut self,
            sources: &[usize],
            tag: Tag,
            timeout: Duration,
        ) -> Result<(usize, Bytes), CommError> {
            self.0.push(timeout);
            Err(CommError::TimeoutAny {
                sources: sources.to_vec(),
                tag,
            })
        }
        fn now(&self) -> f64 {
            0.0
        }
    }

    /// The patience is what every receive waits, even one longer than
    /// the default timeout: no receive flavour falls back to the
    /// default on the way to the inner race.
    #[test]
    fn patience_longer_than_the_default_is_waited_exactly() {
        let long = DEFAULT_TIMEOUT * 2;
        let mut p = PatienceComm::new(Recorder(Vec::new()), long);
        assert!(matches!(
            p.recv(1, tag()),
            Err(CommError::Timeout { from: 1, .. })
        ));
        assert!(p.recv_any(&[1], tag()).is_err());
        assert!(p.recv_timeout(1, tag(), long * 2).is_err());
        assert!(p.recv_timeout(1, tag(), DEFAULT_TIMEOUT).is_err());
        assert_eq!(p.into_inner().0, vec![long, long, long, DEFAULT_TIMEOUT]);
    }

    #[test]
    fn timeout_any_error_is_self_describing() {
        let e = CommError::TimeoutAny {
            sources: vec![3, 7],
            tag: tag(),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('7'), "{s}");
    }
}
