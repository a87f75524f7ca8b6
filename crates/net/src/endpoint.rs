//! The one real endpoint: [`Endpoint<L>`], generic over the per-peer
//! [`Link`] that carries a frame to a peer.
//!
//! `ThreadComm` and `TcpComm` are this endpoint over two link kinds:
//!
//! * an in-process link (`crate::thread_comm::ChannelLink`) pushes the
//!   message straight into the peer's funnel;
//! * a socket link (`crate::tcp_comm::SocketLink`) writes a
//!   length-prefixed frame to a loopback TCP connection, and the peer's
//!   reader thread for that connection pushes it into the funnel.
//!
//! Everything else is shared. Each endpoint owns one **funnel**, an
//! unbounded [`crate::channel`] of events. Self-addressed sends loop
//! back through it directly on both kinds. The funnel feeds the
//! endpoint's [`Mailbox`], and what it says about each peer (`Eof`,
//! `Corrupt`) is the endpoint's view of that peer's liveness. The
//! receive loops, the send-side telemetry and the clock are written
//! once, here.
//!
//! ### One receive loop
//!
//! [`Comm::recv_any_timeout`] is the endpoint's only loop over
//! candidates; a selective receive is the trait's race of one. Each
//! pass checks the stash for every candidate, then fails if every
//! candidate is closed or corrupt, and otherwise blocks on the funnel:
//! an arrival the race is waiting for is handed straight back without
//! parking in the stash, and anything else is applied to the mailbox
//! and the peer table. [`Comm::discard`] and
//! [`RawComm::recv_raw_timeout`] drain the funnel and work on the
//! mailbox.
//!
//! ### Dead peers
//!
//! Dropping an endpoint closes every link: the peer sees an `Eof` after
//! every message the link already carried, because each link is FIFO.
//! On the surviving side that marks the peer closed. Once nothing from
//! it remains stashed, a receive that has no other candidate fails with
//! [`CommError::Closed`] instead of burning its timeout — a race fails
//! once every candidate is closed — and a framing violation on a socket
//! surfaces [`CommError::Corrupt`] the same way.
//! Since a survivor that fails this way returns and drops its own
//! endpoint, a rank death cascades through the ranks that depend on it.
//! [`RawComm::recv_raw_timeout`] deliberately keeps reporting silence as
//! `Ok(None)`, not `Closed`: the reliability layer's retransmit and
//! linger loops treat peer silence as loss, and must keep servicing the
//! other live links after one peer exits.

use crate::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use crate::comm::{Comm, CommError, RawComm, RawMessage};
use crate::mailbox::Mailbox;
use crate::tag::{count, Tag};
use bytes::Bytes;
use kylix_telemetry::{Counter, RankTelemetry, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a funnel carries to its endpoint.
#[derive(Debug)]
pub(crate) enum Event {
    /// One complete message.
    Msg {
        src: usize,
        tag: Tag,
        payload: Bytes,
    },
    /// The link from `src` closed: it will never speak again.
    Eof { src: usize },
    /// The link from `src` violated framing and was torn down.
    Corrupt { src: usize },
}

/// One endpoint's connection to one peer.
///
/// The two implementations are the in-process
/// [`ChannelLink`](crate::thread_comm::ChannelLink) and the loopback-TCP
/// [`SocketLink`](crate::tcp_comm::SocketLink); the cluster builders
/// ([`crate::ThreadComm::make_cluster`], [`crate::TcpCluster`]) wire
/// them up.
pub trait Link: Send {
    /// Carry one message to the peer. A message to a peer that has gone
    /// vanishes, by the [`Comm::send`] contract.
    fn send(&mut self, tag: Tag, payload: Bytes);

    /// This endpoint is going away: the peer sees EOF after every
    /// message already sent, and whatever the link runs on this side
    /// stops.
    fn close(&mut self);
}

/// What the funnel has said about a peer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Peer {
    Open,
    Closed,
    Corrupt,
}

/// A rank's endpoint in a real cluster, over links of kind `L`. See the
/// module docs.
pub struct Endpoint<L: Link> {
    rank: usize,
    /// One link per peer; `None` exactly at our own index.
    links: Vec<Option<L>>,
    /// Loopback into our own funnel, for self-addressed sends.
    self_tx: Sender<Event>,
    /// The funnel every link delivers into.
    rx: Receiver<Event>,
    mailbox: Mailbox<()>,
    peers: Vec<Peer>,
    epoch: Instant,
}

/// Build the endpoints of an `m`-rank cluster: one funnel per rank, and
/// `links(funnels)` returning, for each rank, its link to every other
/// rank (`None` at its own index). Each endpoint counts into
/// `tel.rank(r)` when `tel` is given.
pub(crate) fn build_cluster<L: Link>(
    m: usize,
    tel: Option<&Telemetry>,
    links: impl FnOnce(&[Sender<Event>]) -> Vec<Vec<Option<L>>>,
) -> Vec<Endpoint<L>> {
    assert!(m > 0, "cluster must have at least one rank");
    if let Some(tel) = tel {
        assert!(
            tel.len() >= m,
            "telemetry has {} rank shards, cluster needs {m}",
            tel.len()
        );
    }
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..m).map(|_| unbounded()).unzip();
    let links = links(&txs);
    let epoch = Instant::now();
    links
        .into_iter()
        .zip(txs.into_iter().zip(rxs))
        .enumerate()
        .map(|(rank, (links, (self_tx, rx)))| Endpoint {
            rank,
            links,
            self_tx,
            rx,
            mailbox: Mailbox::new(tel.map(|t| Arc::clone(t.rank(rank)))),
            peers: vec![Peer::Open; m],
            epoch,
        })
        .collect()
}

impl<L: Link> Endpoint<L> {
    /// Number of messages currently held in the out-of-order stash
    /// (across all sources and tags). Exposed for leak tests.
    pub fn stash_len(&self) -> usize {
        self.mailbox.stash_len()
    }

    /// Number of registered not-yet-arrived discards.
    pub fn pending_discard_len(&self) -> usize {
        self.mailbox.pending_discard_len()
    }

    /// The link to `peer`; `None` for our own rank.
    #[cfg(test)]
    pub(crate) fn link(&self, peer: usize) -> Option<&L> {
        self.links[peer].as_ref()
    }

    fn apply(&mut self, ev: Event) {
        match ev {
            Event::Msg { src, tag, payload } => self.mailbox.accept(src, tag, (), payload),
            Event::Eof { src } => {
                if self.peers[src] == Peer::Open {
                    self.peers[src] = Peer::Closed;
                }
            }
            Event::Corrupt { src } => self.peers[src] = Peer::Corrupt,
        }
    }

    /// Pull everything currently in the funnel into the mailbox.
    fn drain(&mut self) {
        while let Ok(ev) = self.rx.try_recv() {
            self.apply(ev);
        }
    }

    /// Wait until `deadline` for one funnel event. A message that
    /// `wanted` accepts is delivered directly — the caller has just
    /// found its key empty in the stash, and the funnel is FIFO per
    /// peer, so it is the first of its key; anything else is applied.
    fn next_event(
        &mut self,
        deadline: Instant,
        wanted: impl Fn(usize, Tag) -> bool,
    ) -> Result<Option<(usize, Bytes)>, RecvTimeoutError> {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(remaining)? {
            Event::Msg { src, tag, payload } if wanted(src, tag) => Ok(self
                .mailbox
                .deliver(src, tag, (), payload)
                .map(|((), p)| (src, p))),
            ev => {
                self.apply(ev);
                Ok(None)
            }
        }
    }
}

impl<L: Link> Comm for Endpoint<L> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.links.len()
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        debug_assert!(to < self.links.len(), "rank {to} out of range");
        // Send-side accounting counts *payload* bytes at the send call,
        // before the receiver's liveness is known — the same accounting
        // point and unit as the simulator's, so the three-way
        // differential tests can demand exact equality. Framing overhead
        // is a wire detail below the telemetry line.
        let tel = self.mailbox.telemetry();
        count(tel, tag, Counter::BytesSent, payload.len() as u64);
        count(tel, tag, Counter::MsgsSent, 1);
        match &mut self.links[to] {
            Some(link) => link.send(tag, payload),
            None => {
                let _ = self.self_tx.send(Event::Msg {
                    src: to,
                    tag,
                    payload,
                });
            }
        }
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            for &s in sources {
                if let Some(((), p)) = self.mailbox.take(s, tag) {
                    return Ok((s, p));
                }
            }
            // The race fails fast only once EVERY candidate is gone —
            // and with the stash checked first, nothing a gone peer sent
            // is left: a link's FIFO funnels its last message before its
            // `Eof`. Corruption wins over plain closure, being the
            // stronger signal.
            if !sources.is_empty() && sources.iter().all(|&s| self.peers[s] != Peer::Open) {
                // Apply what else has arrived before failing: a caller
                // that drains after a failure relies on the discards it
                // registered meeting their late copies.
                self.drain();
                let corrupt = sources.iter().find(|&&s| self.peers[s] == Peer::Corrupt);
                return Err(match corrupt {
                    Some(&s) => CommError::Corrupt { from: s, tag },
                    None => CommError::Closed,
                });
            }
            match self.next_event(deadline, |s, t| t == tag && sources.contains(&s)) {
                Ok(Some(won)) => return Ok(won),
                Ok(None) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::TimeoutAny {
                        sources: sources.to_vec(),
                        tag,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::Closed),
            }
        }
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        self.drain();
        self.mailbox.discard(sources, tag);
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.mailbox.telemetry()
    }
}

impl<L: Link> RawComm for Endpoint<L> {
    /// Next message from anyone: the smallest stashed `(src, tag)`, FIFO
    /// within a key. Silence — even from dead peers — is `Ok(None)`.
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.drain();
            if let Some(((), msg)) = self.mailbox.take_min_by(|s, t, _| (s, t.raw())) {
                return Ok(Some(msg));
            }
            match self.next_event(deadline, |_, _| false) {
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::Closed),
            }
        }
    }
}

impl<L: Link> Drop for Endpoint<L> {
    fn drop(&mut self) {
        for link in self.links.iter_mut().flatten() {
            link.close();
        }
    }
}

/// The endpoint's behaviour, written once and run on both link kinds by
/// the `thread_comm` and `tcp_comm` test modules. Each function takes
/// the substrate's cluster constructor.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::comm::DEFAULT_TIMEOUT;
    use crate::tag::Phase;
    use std::thread;

    /// A cluster constructor.
    pub(crate) type Make<L> = fn(usize) -> Vec<Endpoint<L>>;
    /// A cluster constructor with telemetry attached.
    pub(crate) type MakeTel<L> = fn(usize, &Telemetry) -> Vec<Endpoint<L>>;

    /// Short patience for receives that are expected to fail.
    const SHORT: Duration = Duration::from_millis(200);

    pub(crate) fn tag(layer: u16, seq: u32) -> Tag {
        Tag::new(Phase::App, layer, seq)
    }

    /// The last two endpoints of a fresh `m`-rank cluster, as
    /// `(rank m-2, rank m-1)`; the others are dropped.
    fn last_two<L: Link>(make: Make<L>, m: usize) -> (Endpoint<L>, Endpoint<L>) {
        let mut comms = make(m);
        let b = comms.pop().unwrap();
        let a = comms.pop().unwrap();
        (a, b)
    }

    /// Run `f` on its own thread and fail the test if it has not
    /// returned within `limit` — a blocked send shows up as a hang, and
    /// this turns the hang into a failure.
    pub(crate) fn finishes_within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let worker = thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(limit) {
            Ok(out) => {
                worker.join().expect("worker sent its result");
                out
            }
            Err(RecvTimeoutError::Timeout) => panic!("did not finish within {limit:?}"),
            // `f` panicked: re-raise its panic here.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(worker.join().expect_err("worker panicked"))
            }
        }
    }

    pub(crate) fn ping_pong<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        thread::scope(|s| {
            s.spawn(move || {
                c0.send(1, tag(0, 0), Bytes::from_static(b"ping"));
                let r = c0.recv(1, tag(0, 1)).unwrap();
                assert_eq!(&r[..], b"pong");
            });
            s.spawn(move || {
                let r = c1.recv(0, tag(0, 0)).unwrap();
                assert_eq!(&r[..], b"ping");
                c1.send(0, tag(0, 1), Bytes::from_static(b"pong"));
            });
        });
    }

    pub(crate) fn out_of_order_selective_receive<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        // Send three tags, receive them in reverse order.
        c0.send(1, tag(0, 0), Bytes::from_static(b"a"));
        c0.send(1, tag(0, 1), Bytes::from_static(b"b"));
        c0.send(1, tag(0, 2), Bytes::from_static(b"c"));
        assert_eq!(&c1.recv(0, tag(0, 2)).unwrap()[..], b"c");
        assert_eq!(&c1.recv(0, tag(0, 1)).unwrap()[..], b"b");
        assert_eq!(&c1.recv(0, tag(0, 0)).unwrap()[..], b"a");
    }

    pub(crate) fn same_tag_messages_keep_fifo_order<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        for i in 0..50u8 {
            c0.send(1, tag(0, 0), Bytes::from(vec![i]));
        }
        for i in 0..50u8 {
            assert_eq!(c1.recv(0, tag(0, 0)).unwrap()[0], i);
        }
    }

    pub(crate) fn self_send_loops_back<L: Link>(make: Make<L>) {
        let mut c0 = make(2).remove(0);
        c0.send(0, tag(1, 0), Bytes::from_static(b"me"));
        assert_eq!(&c0.recv(0, tag(1, 0)).unwrap()[..], b"me");
    }

    pub(crate) fn single_rank_cluster_works<L: Link>(make: Make<L>) {
        let mut c0 = make(1).remove(0);
        c0.send(0, tag(0, 0), Bytes::from_static(b"solo"));
        assert_eq!(&c0.recv(0, tag(0, 0)).unwrap()[..], b"solo");
    }

    pub(crate) fn recv_any_returns_first_available<L: Link>(make: Make<L>) {
        let mut comms = make(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        c1.send(2, tag(1, 0), Bytes::from_static(b"from1"));
        let (src, payload) = c2.recv_any(&[0, 1], tag(1, 0)).unwrap();
        assert_eq!(src, 1);
        assert_eq!(&payload[..], b"from1");
    }

    pub(crate) fn timeout_on_silent_live_peer<L: Link>(make: Make<L>) {
        let (_c0, mut c1) = last_two(make, 2);
        let err = c1.recv_timeout(0, tag(0, 0), SHORT).unwrap_err();
        assert!(matches!(err, CommError::Timeout { from: 0, .. }));
    }

    pub(crate) fn recv_any_timeout_reports_the_sources<L: Link>(make: Make<L>) {
        let mut comms = make(4);
        let mut c3 = comms.pop().unwrap();
        let err = c3.recv_any_timeout(&[0, 2], tag(0, 0), SHORT).unwrap_err();
        match err {
            CommError::TimeoutAny { sources, tag: t } => {
                assert_eq!(sources, vec![0, 2]);
                assert_eq!(t, tag(0, 0));
            }
            other => panic!("expected TimeoutAny, got {other:?}"),
        }
    }

    pub(crate) fn all_to_all_exchange<L: Link>(make: Make<L>) {
        let m = 6;
        let comms = make(m);
        let results: Vec<Vec<u8>> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    s.spawn(move || {
                        let me = c.rank() as u8;
                        for to in 0..m {
                            c.send(to, tag(0, 0), Bytes::from(vec![me]));
                        }
                        let mut got = Vec::new();
                        for from in 0..m {
                            got.push(c.recv(from, tag(0, 0)).unwrap()[0]);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, (0..m as u8).collect::<Vec<_>>());
        }
    }

    pub(crate) fn send_to_dead_rank_is_dropped<L: Link>(make: Make<L>) {
        let (mut c0, dead) = last_two(make, 2);
        drop(dead); // rank 1 never runs
        c0.send(1, tag(0, 0), Bytes::from_static(b"into the void"));
        // Survival is the assertion.
    }

    pub(crate) fn peer_death_surfaces_closed_not_hang<L: Link>(make: Make<L>) {
        let (mut c0, dead) = last_two(make, 2);
        drop(dead); // rank 1 exits before ever speaking
        let start = Instant::now();
        let err = c0.recv_timeout(1, tag(0, 0), DEFAULT_TIMEOUT).unwrap_err();
        assert_eq!(err, CommError::Closed, "dead peer must fail fast");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "must not burn the 60 s default timeout"
        );
    }

    pub(crate) fn messages_sent_before_death_still_deliver<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        c0.send(1, tag(0, 0), Bytes::from_static(b"parting gift"));
        drop(c0); // flushes, then EOF
        assert_eq!(&c1.recv(0, tag(0, 0)).unwrap()[..], b"parting gift");
        // Now the peer is known dead and nothing is stashed.
        let err = c1.recv_timeout(0, tag(0, 1), DEFAULT_TIMEOUT).unwrap_err();
        assert_eq!(err, CommError::Closed);
    }

    pub(crate) fn recv_any_with_all_sources_dead_is_closed<L: Link>(make: Make<L>) {
        let mut comms = make(3);
        let mut c2 = comms.pop().unwrap();
        drop(comms); // ranks 0 and 1 both exit
        let start = Instant::now();
        let err = c2
            .recv_any_timeout(&[0, 1], tag(0, 0), DEFAULT_TIMEOUT)
            .unwrap_err();
        assert_eq!(err, CommError::Closed);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    pub(crate) fn recv_any_with_one_live_source_keeps_racing<L: Link>(make: Make<L>) {
        let mut comms = make(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        drop(comms); // rank 0 dead
        thread::scope(|s| {
            s.spawn(move || {
                thread::sleep(Duration::from_millis(50));
                c1.send(2, tag(0, 0), Bytes::from_static(b"late but alive"));
            });
            let (src, p) = c2.recv_any(&[0, 1], tag(0, 0)).unwrap();
            assert_eq!(src, 1);
            assert_eq!(&p[..], b"late but alive");
        });
    }

    pub(crate) fn drop_order_is_arbitrary_and_clean<L: Link>(make: Make<L>) {
        // Tear endpoints down in a hostile order, with traffic in
        // flight; every Drop must still return.
        let mut comms = make(4);
        for c in comms.iter_mut() {
            for to in 0..4 {
                c.send(to, tag(0, 0), Bytes::from_static(b"inflight"));
            }
        }
        let start = Instant::now();
        drop(comms.remove(2));
        drop(comms.remove(0));
        drop(comms);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    pub(crate) fn sends_to_dropped_peer_return_promptly<L: Link + 'static>(make: Make<L>) {
        let big = Bytes::from(vec![7u8; 1 << 20]);
        finishes_within(Duration::from_secs(5), move || {
            let (mut c0, dead) = last_two(make, 2);
            drop(dead);
            for i in 0..64 {
                c0.send(1, tag(0, i), big.clone());
            }
        });
    }

    pub(crate) fn discard_removes_stashed_copy<L: Link>(make: Make<L>) {
        let mut comms = make(3);
        let mut c2 = comms.pop().unwrap();
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(2, tag(0, 0), Bytes::from_static(b"winner"));
        c1.send(2, tag(0, 0), Bytes::from_static(b"loser"));
        let (_src, _p) = c2.recv_any(&[0, 1], tag(0, 0)).unwrap();
        // One copy remains stashed or in flight; discard the loser.
        c2.discard(&[0, 1], tag(0, 0));
        // Give the in-flight copy time to land: the discard registered
        // or consumed it either way.
        thread::sleep(Duration::from_millis(20));
        assert!(c2.recv_raw_timeout(SHORT).unwrap().is_none());
        assert_eq!(c2.stash_len(), 0, "losing copy must be collected");
    }

    pub(crate) fn discard_applies_to_future_arrival<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        // Discard before the message exists.
        c1.discard(&[0], tag(0, 7));
        c0.send(1, tag(0, 7), Bytes::from_static(b"late loser"));
        c0.send(1, tag(0, 8), Bytes::from_static(b"keeper"));
        // The keeper is receivable; the discarded one is consumed.
        assert_eq!(&c1.recv(0, tag(0, 8)).unwrap()[..], b"keeper");
        assert!(c1.recv_timeout(0, tag(0, 7), SHORT).is_err());
        assert_eq!(c1.stash_len(), 0);
        assert_eq!(c1.pending_discard_len(), 0);
    }

    pub(crate) fn raw_recv_yields_anything_and_times_out_as_none<L: Link>(make: Make<L>) {
        let (mut c0, mut c1) = last_two(make, 2);
        c0.send(1, tag(3, 9), Bytes::from_static(b"raw"));
        let msg = c1
            .recv_raw_timeout(Duration::from_secs(10))
            .unwrap()
            .expect("message");
        assert_eq!(msg.src, 0);
        assert_eq!(msg.tag, tag(3, 9));
        assert_eq!(&msg.payload[..], b"raw");
        assert!(c1.recv_raw_timeout(SHORT).unwrap().is_none());
        // Raw receive stays timeout-shaped (not Closed) after peer
        // death, by contract with the reliability layer.
        drop(c0);
        assert!(c1.recv_raw_timeout(SHORT).unwrap().is_none());
    }

    pub(crate) fn telemetry_counts_sends_deliveries_and_parks<L: Link>(make: MakeTel<L>) {
        use kylix_telemetry::Clock;
        let tel = Telemetry::new(2, Clock::Wall);
        let mut comms = make(2, &tel);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.send(1, tag(2, 0), Bytes::from_static(b"abc"));
        c0.send(1, tag(2, 1), Bytes::from_static(b"defgh"));
        // Reverse order: the first arrival parks in the stash.
        assert_eq!(&c1.recv(0, tag(2, 1)).unwrap()[..], b"defgh");
        assert_eq!(&c1.recv(0, tag(2, 0)).unwrap()[..], b"abc");
        // An own part, filed as the passes file it.
        count(c0.telemetry(), tag(2, 2), Counter::SelfBytes, 7);
        let rep = tel.report();
        let app = Phase::App as u8;
        // Payload bytes, not framed bytes, on every link kind.
        assert_eq!(rep.ranks[0].get(app, 2, Counter::BytesSent), 8);
        assert_eq!(rep.ranks[0].get(app, 2, Counter::MsgsSent), 2);
        assert_eq!(rep.ranks[1].get(app, 2, Counter::BytesRecv), 8);
        assert_eq!(rep.ranks[1].get(app, 2, Counter::MsgsRecv), 2);
        assert!(rep.ranks[1].get(app, 2, Counter::StashParks) >= 1);
        assert_eq!(rep.ranks[0].get(app, 2, Counter::SelfBytes), 7);
        // A layer's whole volume is its wire bytes plus its own parts.
        let volume = rep.on_layer(2, Counter::BytesSent) + rep.on_layer(2, Counter::SelfBytes);
        assert_eq!(volume, 15);
    }

    pub(crate) fn telemetry_counts_discard_consumed_arrivals_as_received<L: Link>(
        make: MakeTel<L>,
    ) {
        use kylix_telemetry::Clock;
        let tel = Telemetry::new(2, Clock::Wall);
        let mut comms = make(2, &tel);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        // Pending discard applied on a future arrival still counts as a
        // delivery, so sent == received holds for conservation tests.
        c1.discard(&[0], tag(0, 7));
        c0.send(1, tag(0, 7), Bytes::from_static(b"late loser"));
        assert!(c1.recv_timeout(0, tag(0, 7), SHORT).is_err());
        let rep = tel.report();
        assert_eq!(rep.total(Counter::MsgsSent), 1);
        assert_eq!(rep.total(Counter::MsgsRecv), 1);
        assert_eq!(rep.total(Counter::BytesRecv), 10);
    }

    pub(crate) fn in_order_arrivals_are_delivered_without_parking<L: Link>(make: MakeTel<L>) {
        use kylix_telemetry::Clock;
        let tel = Telemetry::new(2, Clock::Wall);
        let mut comms = make(2, &tel);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        for seq in 0..3 {
            c0.send(1, tag(0, seq), Bytes::from_static(b"x"));
        }
        // Let all three land in the funnel before the first receive.
        thread::sleep(Duration::from_millis(100));
        for seq in 0..3 {
            assert_eq!(&c1.recv(0, tag(0, seq)).unwrap()[..], b"x");
        }
        let rep = tel.report();
        assert_eq!(rep.ranks[1].total(Counter::MsgsRecv), 3);
        assert_eq!(rep.ranks[1].total(Counter::StashParks), 0);
    }

    pub(crate) fn now_is_monotone<L: Link>(make: Make<L>) {
        let comms = make(1);
        let a = comms[0].now();
        let b = comms[0].now();
        assert!(b >= a);
    }
}
