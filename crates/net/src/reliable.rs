//! Reliable delivery over an unreliable substrate: [`ReliableComm`].
//!
//! The commodity-cluster links Kylix targets lose, duplicate, reorder
//! and damage packets. Replication (§V) absorbs *node* loss; this
//! wrapper absorbs *message* loss, so an unreplicated butterfly
//! completes over lossy links and a replicated one survives crash+loss
//! combined. The mechanism is classic ARQ:
//!
//! * every payload travels in a frame carrying a per-destination
//!   sequence number and sealed with [`checksum`], which detects every
//!   single changed byte with certainty;
//! * the receiver acknowledges every data frame (including duplicates —
//!   the first ack may have been lost) and delivers each sender's frames
//!   in sequence order, parking out-of-order arrivals with their tags,
//!   into a [`Mailbox`] — the stash and racing-discard policy every
//!   substrate shares;
//! * the sender retransmits unacknowledged frames on an exponential
//!   backoff schedule, up to a bounded attempt count;
//! * frames that fail their checksum are silently discarded —
//!   retransmission recovers them, so *corruption becomes loss*.
//!
//! The wrapper drives its substrate exclusively through
//! [`RawComm::recv_raw_timeout`], because it must see acks from any
//! peer while the protocol above it waits on one specific message.
//! All ranks of a cluster must wrap identically: a `ReliableComm`
//! speaks only to other `ReliableComm`s.
//!
//! Numbering frames per peer rather than per `(peer, tag)` keeps the
//! state bounded by the cluster size: every collective op uses fresh
//! tags, so per-tag streams would grow by a few entries per op forever.
//! The price is that one lost frame holds back the sender's later
//! frames, whatever their tags, until its retransmission lands.
//!
//! Because retransmission scheduling runs on *wall* time even over the
//! virtual-time simulator, runs that actually lose messages are not
//! virtual-time-deterministic — see `DESIGN.md` ("Fault model") for
//! the determinism contract.

use crate::checksum::checksum;
use crate::comm::{Comm, CommError, RawComm, RawMessage};
use crate::mailbox::Mailbox;
use crate::tag::{count, Tag};
use bytes::Bytes;
use kylix_telemetry::{Counter, RankTelemetry};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
/// Frame layout: `[kind u8][seq u32 LE][payload…][crc u64 LE]`, crc
/// over everything before it.
const HEADER_LEN: usize = 5;
const CRC_LEN: usize = 8;

/// Retransmission parameters. Only the tests here set anything but
/// the defaults.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryConfig {
    /// Delay before the first retransmission.
    pub base: Duration,
    /// Upper bound on the (doubling) retransmission delay.
    pub cap: Duration,
    /// Total send attempts per frame before giving up on it.
    pub max_attempts: u32,
    /// How long [`ReliableComm::flush`] keeps answering peers'
    /// retransmits after its own sends are all acknowledged.
    pub linger: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        // `max_attempts` is sized so that a *live* peer is effectively
        // never abandoned: even at 25% loss + 10% corruption each way,
        // thirty attempts fail with probability ~1e-7. Abandoning a
        // frame to a live peer would permanently stall every later
        // frame it gets from us, so the budget errs far on the side of
        // patience; a genuinely dead peer still costs only ~1.5s of
        // backoff.
        // `linger` must comfortably exceed `cap`: a peer whose final
        // ack was lost retransmits at most every `cap`, and flush may
        // only declare the link quiet after several such periods have
        // passed silently — otherwise the fast rank exits before the
        // slow rank's next retransmit and the tail is never repaired.
        Self {
            base: Duration::from_millis(3),
            cap: Duration::from_millis(48),
            max_attempts: 30,
            linger: Duration::from_millis(150),
        }
    }
}

struct Pending {
    to: usize,
    tag: Tag,
    seq: u32,
    frame: Bytes,
    attempts: u32,
    due: Instant,
}

/// Receive stream state of one sending peer.
#[derive(Default, Clone)]
struct RecvStream {
    /// Next sequence number to deliver.
    expected: u32,
    /// Arrived ahead of sequence, with their tags.
    parked: BTreeMap<u32, (Tag, Bytes)>,
}

/// Acked, retransmitting, duplicate-suppressing communicator wrapper.
pub struct ReliableComm<C: RawComm> {
    inner: C,
    cfg: RetryConfig,
    /// Next sequence number per destination rank.
    send_seq: Vec<u32>,
    /// Sent-but-unacknowledged frames, in send order.
    unacked: VecDeque<Pending>,
    /// Receive stream per source rank.
    streams: Vec<RecvStream>,
    /// In-order payloads not yet consumed by the protocol. Counts
    /// nothing: the substrate below already counted the frames.
    mailbox: Mailbox<()>,
}

impl<C: RawComm> ReliableComm<C> {
    /// Wrap `inner` with default retransmission parameters.
    pub fn new(inner: C) -> Self {
        Self::with_config(inner, RetryConfig::default())
    }

    /// Wrap `inner` with explicit retransmission parameters.
    pub(crate) fn with_config(inner: C, cfg: RetryConfig) -> Self {
        let size = inner.size();
        Self {
            inner,
            cfg,
            send_seq: vec![0; size],
            unacked: VecDeque::new(),
            streams: vec![RecvStream::default(); size],
            mailbox: Mailbox::new(None),
        }
    }

    /// Number of sent frames still awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Unwrap the inner communicator. Pending retransmission state is
    /// dropped; call [`ReliableComm::flush`] first for a clean handoff.
    pub fn into_inner(self) -> C {
        self.inner
    }

    fn frame(kind: u8, seq: u32, payload: &[u8]) -> Bytes {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
        buf.push(kind);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(payload);
        let crc = checksum(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        Bytes::from(buf)
    }

    /// Parse and verify a frame; `None` if damaged or not a frame.
    fn open_frame(buf: &Bytes) -> Option<(u8, u32, Bytes)> {
        if buf.len() < HEADER_LEN + CRC_LEN {
            return None;
        }
        let body_len = buf.len() - CRC_LEN;
        let mut crc_bytes = [0u8; 8];
        crc_bytes.copy_from_slice(&buf[body_len..]);
        if u64::from_le_bytes(crc_bytes) != checksum(&buf[..body_len]) {
            return None;
        }
        let kind = buf[0];
        if kind != KIND_DATA && kind != KIND_ACK {
            return None;
        }
        let mut seq_bytes = [0u8; 4];
        seq_bytes.copy_from_slice(&buf[1..5]);
        let seq = u32::from_le_bytes(seq_bytes);
        Some((kind, seq, buf.slice(HEADER_LEN..body_len)))
    }

    fn send_ack(&mut self, to: usize, tag: Tag, seq: u32) {
        let frame = Self::frame(KIND_ACK, seq, &[]);
        count(self.inner.telemetry(), tag, Counter::AcksSent, 1);
        self.inner.send(to, tag, frame);
    }

    /// Process one arrival from the substrate. Returns `true` unless it
    /// was a valid ack: a data frame is answered with an ack and a
    /// damaged frame is rejected, both signs of a peer still talking.
    fn handle_frame(&mut self, msg: RawMessage) -> bool {
        let Some((kind, seq, payload)) = Self::open_frame(&msg.payload) else {
            count(self.inner.telemetry(), msg.tag, Counter::CorruptRejects, 1);
            return true;
        };
        match kind {
            KIND_ACK => {
                if let Some(i) = self
                    .unacked
                    .iter()
                    .position(|p| p.to == msg.src && p.seq == seq)
                {
                    self.unacked.remove(i);
                }
                false
            }
            _ => {
                // Data. Ack unconditionally: a duplicate means our
                // previous ack was lost (or the link duplicated).
                self.send_ack(msg.src, msg.tag, seq);
                let stream = &mut self.streams[msg.src];
                if seq < stream.expected || stream.parked.contains_key(&seq) {
                    count(self.inner.telemetry(), msg.tag, Counter::DupesDropped, 1);
                } else {
                    stream.parked.insert(seq, (msg.tag, payload));
                    // Deliver the in-sequence prefix.
                    while let Some((tag, p)) = stream.parked.remove(&stream.expected) {
                        stream.expected = stream.expected.wrapping_add(1);
                        self.mailbox.accept(msg.src, tag, (), p);
                    }
                }
                true
            }
        }
    }

    /// Retransmit whatever is due, then wait up to `max_wait` for one
    /// arrival and process it. The workhorse behind every receive.
    /// Returns whether the link showed activity: a retransmit, a frame
    /// given up on, or an arrival other than an ack.
    fn pump(&mut self, max_wait: Duration) -> Result<bool, CommError> {
        let now = Instant::now();
        let mut active = false;
        let mut next_due: Option<Instant> = None;
        let mut retransmit = Vec::new();
        let mut i = 0;
        while i < self.unacked.len() {
            let p = &mut self.unacked[i];
            if p.due <= now {
                if p.attempts >= self.cfg.max_attempts {
                    // Peer presumed dead; stop burning the link.
                    let tag = p.tag;
                    self.unacked.remove(i);
                    count(self.inner.telemetry(), tag, Counter::GaveUp, 1);
                    active = true;
                    continue;
                }
                p.attempts += 1;
                let backoff = self
                    .cfg
                    .base
                    .saturating_mul(1u32 << (p.attempts - 1).min(16))
                    .min(self.cfg.cap);
                p.due = now + backoff;
                retransmit.push((p.to, p.tag, p.frame.clone()));
            }
            next_due = Some(next_due.map_or(self.unacked[i].due, |d| d.min(self.unacked[i].due)));
            i += 1;
        }
        active |= !retransmit.is_empty();
        for (to, tag, frame) in retransmit {
            count(self.inner.telemetry(), tag, Counter::Retransmits, 1);
            self.inner.send(to, tag, frame);
        }
        // Sleep no longer than the earliest retransmission deadline.
        let wait = match next_due {
            Some(d) => d.saturating_duration_since(now).min(max_wait),
            None => max_wait,
        };
        if let Some(msg) = self.inner.recv_raw_timeout(wait)? {
            active |= self.handle_frame(msg);
        }
        Ok(active)
    }

    /// Drive retransmission until every sent frame is acknowledged (or
    /// abandoned after `max_attempts`), then keep answering peers'
    /// retransmits until the link has been quiet for the configured
    /// linger. Call once per rank after its last collective op — this
    /// closes the "last message" window where a peer's lost final frame
    /// could otherwise never be repaired.
    pub fn flush(&mut self) -> Result<(), CommError> {
        while !self.unacked.is_empty() {
            self.pump(Duration::from_millis(5))?;
        }
        let mut quiet_since = Instant::now();
        while quiet_since.elapsed() < self.cfg.linger {
            if self.pump(Duration::from_millis(5))? || !self.unacked.is_empty() {
                quiet_since = Instant::now();
                while !self.unacked.is_empty() {
                    self.pump(Duration::from_millis(5))?;
                }
            }
        }
        Ok(())
    }
}

impl<C: RawComm> Comm for ReliableComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        let seq = self.send_seq[to];
        self.send_seq[to] = seq.wrapping_add(1);
        let frame = Self::frame(KIND_DATA, seq, &payload);
        self.inner.send(to, tag, frame.clone());
        self.unacked.push_back(Pending {
            to,
            tag,
            seq,
            frame,
            attempts: 1,
            due: Instant::now() + self.cfg.base,
        });
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
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CommError::TimeoutAny {
                    sources: sources.to_vec(),
                    tag,
                });
            }
            self.pump(remaining.min(Duration::from_millis(25)))?;
        }
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        self.mailbox.discard(sources, tag);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChaosComm, FaultPlan, LinkFaults};
    use crate::tag::Phase;
    use crate::thread_comm::ThreadComm;
    use kylix_telemetry::{Clock, Telemetry};
    use std::sync::Arc;
    use std::thread;

    fn tag(seq: u32) -> Tag {
        Tag::new(Phase::App, 0, seq)
    }

    /// Two endpoints counting into one telemetry instance.
    fn pair() -> (ThreadComm, ThreadComm, Arc<Telemetry>) {
        let tel = Telemetry::new(2, Clock::Wall);
        let mut v = ThreadComm::make_cluster_with_telemetry(2, &tel);
        let b = v.pop().unwrap();
        let a = v.pop().unwrap();
        (a, b, tel)
    }

    #[test]
    fn frame_round_trip_and_corruption_rejection() {
        let f = ReliableComm::<ThreadComm>::frame(KIND_DATA, 41, b"payload");
        let (kind, seq, payload) = ReliableComm::<ThreadComm>::open_frame(&f).expect("valid frame");
        assert_eq!(kind, KIND_DATA);
        assert_eq!(seq, 41);
        assert_eq!(&payload[..], b"payload");
        let mut damaged = f.to_vec();
        damaged[6] ^= 0x01;
        assert!(ReliableComm::<ThreadComm>::open_frame(&Bytes::from(damaged)).is_none());
    }

    #[test]
    fn lossless_round_trip() {
        let comms = ThreadComm::make_cluster(2);
        let out: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let mut r = ReliableComm::new(c);
                        let peer = 1 - r.rank();
                        for i in 0..20u32 {
                            r.send(peer, tag(i), Bytes::from(vec![i as u8]));
                        }
                        let mut sum = 0u64;
                        for i in 0..20u32 {
                            sum += r.recv(peer, tag(i)).unwrap()[0] as u64;
                        }
                        r.flush().unwrap();
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(out, vec![190, 190]);
    }

    #[test]
    fn survives_heavy_loss_duplication_and_corruption() {
        let (a, b, tel) = pair();
        let comms = vec![a, b];
        let plan = FaultPlan::new(77)
            .drop_rate(0.25)
            .duplicate_rate(0.1)
            .corrupt_rate(0.1)
            .delay_rate(0.1);
        let out: Vec<u64> = thread::scope(|s| {
            let plan = &plan;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let mut r = ReliableComm::new(ChaosComm::new(c, plan.clone()));
                        let peer = 1 - r.rank();
                        for i in 0..50u32 {
                            r.send(peer, tag(0), Bytes::from(vec![i as u8]));
                        }
                        let mut sum = 0u64;
                        for _ in 0..50u32 {
                            // Same tag: sequence numbers must restore
                            // FIFO despite loss + reordering.
                            sum += r.recv(peer, tag(0)).unwrap()[0] as u64;
                        }
                        r.flush().unwrap();
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let expect: u64 = (0..50u64).sum();
        // Delivery is what matters: every payload arrived intact and in
        // order. (A tail `GaveUp` on a final *ack* after the peer exited
        // is benign and timing-dependent, so it is not asserted.)
        assert_eq!(out, vec![expect, expect]);
        let total_retx = tel.report().total(Counter::Retransmits);
        assert!(total_retx > 0, "25% loss must force retransmissions");
    }

    #[test]
    fn in_order_delivery_per_stream() {
        let comms = ThreadComm::make_cluster(2);
        let plan = FaultPlan::new(3).delay_rate(0.5);
        let out: Vec<Vec<u8>> = thread::scope(|s| {
            let plan = &plan;
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let mut r = ReliableComm::new(ChaosComm::new(c, plan.clone()));
                        let peer = 1 - r.rank();
                        for i in 0..30u8 {
                            r.send(peer, tag(0), Bytes::from(vec![i]));
                        }
                        let mut got = Vec::new();
                        for _ in 0..30 {
                            got.push(r.recv(peer, tag(0)).unwrap()[0]);
                        }
                        r.flush().unwrap();
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in out {
            assert_eq!(got, (0..30u8).collect::<Vec<_>>(), "FIFO restored");
        }
    }

    /// One sequence space per peer: a thousand distinct tags over a
    /// link that drops, duplicates and delays each arrive exactly once,
    /// and the stream state stays one entry per rank.
    #[test]
    fn distinct_tags_share_one_stream_per_peer() {
        const N: u32 = 1000;
        let (a, b, tel) = pair();
        let faults = LinkFaults {
            drop_p: 0.2,
            dup_p: 0.2,
            delay_p: 0.2,
            ..LinkFaults::none()
        };
        // Data flows 0 → 1 over the bad link; acks come back clean, so
        // nothing is given up on.
        let plan = FaultPlan::new(21).link(0, 1, faults);
        let got: Vec<Vec<u32>> = thread::scope(|s| {
            let plan = &plan;
            let handles: Vec<_> = [a, b]
                .into_iter()
                .map(|c| {
                    s.spawn(move || {
                        let mut r = ReliableComm::new(ChaosComm::new(c, plan.clone()));
                        let mut got = Vec::new();
                        if r.rank() == 0 {
                            for i in 0..N {
                                r.send(1, tag(i), Bytes::from(i.to_le_bytes().to_vec()));
                            }
                        } else {
                            // Newest tag first: all but the last wait in
                            // the mailbox under their own tags.
                            for i in (0..N).rev() {
                                let p = r.recv(0, tag(i)).unwrap();
                                got.push(u32::from_le_bytes(p[..].try_into().unwrap()));
                            }
                        }
                        r.flush().unwrap();
                        // A second delivery of anything would sit here.
                        assert_eq!(r.mailbox.stash_len(), 0, "rank {}", r.rank());
                        assert!(r.streams.iter().all(|s| s.parked.is_empty()));
                        assert_eq!((r.send_seq.len(), r.streams.len()), (2, 2));
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(got[1], (0..N).rev().collect::<Vec<_>>());
        let rep = tel.report();
        assert!(
            rep.total(Counter::FaultsDropped) > 0,
            "seed dropped nothing"
        );
        assert!(
            rep.total(Counter::DupesDropped) > 0,
            "no duplicate was caught"
        );
        assert_eq!(rep.total(Counter::GaveUp), 0, "nothing may be abandoned");
    }

    #[test]
    fn gives_up_on_dead_peer_without_hanging() {
        let (a, b, tel) = pair();
        drop(b); // rank 1 dead
        let mut r = ReliableComm::with_config(
            a,
            RetryConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                max_attempts: 3,
                linger: Duration::from_millis(5),
            },
        );
        r.send(1, tag(0), Bytes::from_static(b"anyone there?"));
        r.flush().unwrap();
        assert_eq!(tel.report().total(Counter::GaveUp), 1);
        assert_eq!(r.unacked_len(), 0);
    }

    /// `flush` lingers while `pump` reports activity. An arrival that is
    /// only an ack is not activity; every other event is.
    #[test]
    fn pump_reports_activity_for_everything_but_a_bare_ack() {
        type R = ReliableComm<ThreadComm>;
        let patient = RetryConfig {
            base: Duration::from_secs(3600),
            ..RetryConfig::default()
        };
        let due_now = RetryConfig {
            base: Duration::ZERO,
            ..RetryConfig::default()
        };
        let exhausted = RetryConfig {
            max_attempts: 1,
            ..due_now
        };
        let long = Duration::from_secs(5);
        // Each case: a fresh pair, rank 0 behind `ReliableComm` with
        // `cfg`, one optional frame of ours in flight, one optional raw
        // arrival from rank 1, then a single pump.
        let pump_once = |cfg: RetryConfig, send: bool, arrival: Option<Bytes>, wait| {
            let (a, mut b, _tel) = pair();
            let mut r = R::with_config(a, cfg);
            if send {
                r.send(1, tag(0), Bytes::from_static(b"ours"));
            }
            if let Some(frame) = arrival {
                b.send(0, tag(0), frame);
            }
            let active = r.pump(wait).unwrap();
            (active, r.unacked_len())
        };
        let ack = R::frame(KIND_ACK, 0, &[]);
        assert_eq!(pump_once(patient, true, Some(ack), long), (false, 0));
        let data = R::frame(KIND_DATA, 0, b"theirs");
        assert_eq!(pump_once(patient, false, Some(data), long), (true, 0));
        let corrupt = Bytes::from_static(b"not a frame at all");
        assert_eq!(pump_once(patient, false, Some(corrupt), long), (true, 0));
        let zero = Duration::ZERO;
        assert_eq!(pump_once(due_now, true, None, zero), (true, 1));
        assert_eq!(pump_once(exhausted, true, None, zero), (true, 0));
    }
}
