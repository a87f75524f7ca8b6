//! Deterministic fault injection: [`FaultPlan`] + [`ChaosComm`].
//!
//! Commodity clusters — the paper's target (§I) — lose packets,
//! duplicate them, deliver them late and out of order, flip their bits,
//! and crash nodes mid-protocol. This module makes all of that a
//! *reproducible input*: a [`FaultPlan`] is a pure function from
//! `(seed, src, dst, per-link message index)` to fault decisions, so
//! the same plan injects the same faults into the same messages on
//! every run, on every substrate. [`ChaosComm`] applies the plan at
//! send time around any [`Comm`], which means every protocol, baseline,
//! and application in the workspace can run under faults unchanged.
//!
//! Faults are applied on the *sender* side of a link (the wire eats the
//! message as it leaves), so wrapping every rank's endpoint covers
//! every link exactly once.

use crate::comm::{Comm, CommError, RawComm, RawMessage};
use crate::tag::{count, Tag};
use bytes::Bytes;
use kylix_telemetry::{Counter, RankTelemetry};
use std::collections::HashMap;
use std::time::Duration;

/// `splitmix64` finaliser: a cheap, high-quality 64-bit bit mixer. All
/// fault decisions derive from chains of this, so they depend only on
/// the plan seed and the message coordinates — never on wall time.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Hash a sequence of words into one well-mixed word.
fn mix_chain(parts: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        h = mix64(h ^ p).wrapping_add(0x9e37_79b9_7f4a_7c15);
    }
    mix64(h)
}

/// Per-link fault probabilities, each in `[0, 1]`, applied
/// independently per message.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability one payload byte is flipped in flight.
    pub corrupt_p: f64,
    /// Probability a message is held back and delivered after the
    /// link's next message (reordering).
    pub delay_p: f64,
}

impl LinkFaults {
    /// A perfectly healthy link.
    pub fn none() -> Self {
        Self::default()
    }

    /// A link that only drops, with probability `p`.
    pub fn lossy(p: f64) -> Self {
        Self {
            drop_p: p,
            ..Self::default()
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("dup_p", self.dup_p),
            ("corrupt_p", self.corrupt_p),
            ("delay_p", self.delay_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
    }
}

/// When a node crashes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crash {
    /// Crash the first time the node touches its communicator at or
    /// after time `t` (virtual seconds on the simulator, wall seconds
    /// since cluster start on a thread or TCP cluster).
    AtTime(f64),
    /// Crash on the node's `n`-th communicator operation (send or
    /// receive; 1-based — the `n`-th and later operations do not
    /// execute). A time-free trigger that is deterministic even under
    /// wall-clock scheduling.
    AfterOps(u64),
}

/// A seeded, fully deterministic description of the faults to inject.
///
/// Link faults can be set for every link at once (the `default_*`
/// builders) or per directed link ([`FaultPlan::link`]). Crashes are
/// per node. Two [`ChaosComm`]s built from equal plans make identical
/// decisions for identical message sequences.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: HashMap<(usize, usize), LinkFaults>,
    crashes: HashMap<usize, Crash>,
}

/// Salts separating the per-fault-type hash streams.
const SALT_DROP: u64 = 0xD20B;
const SALT_DUP: u64 = 0xD0B1;
const SALT_CORRUPT: u64 = 0xC0BB;
const SALT_DELAY: u64 = 0xDE1A;
const SALT_BYTE: u64 = 0xB1FE;

impl FaultPlan {
    /// A plan with the given seed and no faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the default per-message drop probability for every link.
    pub fn drop_rate(mut self, p: f64) -> Self {
        self.default_link.drop_p = p;
        self.default_link.validate();
        self
    }

    /// Set the default per-message duplication probability.
    pub fn duplicate_rate(mut self, p: f64) -> Self {
        self.default_link.dup_p = p;
        self.default_link.validate();
        self
    }

    /// Set the default per-message corruption probability.
    pub fn corrupt_rate(mut self, p: f64) -> Self {
        self.default_link.corrupt_p = p;
        self.default_link.validate();
        self
    }

    /// Set the default per-message delay/reorder probability.
    pub fn delay_rate(mut self, p: f64) -> Self {
        self.default_link.delay_p = p;
        self.default_link.validate();
        self
    }

    /// Override the faults of one directed link `src -> dst`.
    pub fn link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        faults.validate();
        self.links.insert((src, dst), faults);
        self
    }

    /// Crash `rank` at time `t` (seconds — virtual on the simulator).
    pub fn crash_at(mut self, rank: usize, t: f64) -> Self {
        self.crashes.insert(rank, Crash::AtTime(t));
        self
    }

    /// Crash `rank` on its `n`-th communicator operation (1-based).
    pub fn crash_after_ops(mut self, rank: usize, n: u64) -> Self {
        self.crashes.insert(rank, Crash::AfterOps(n));
        self
    }

    /// The faults on directed link `src -> dst`.
    pub fn link_faults(&self, src: usize, dst: usize) -> LinkFaults {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// The crash event for `rank`, if any.
    pub fn crash(&self, rank: usize) -> Option<Crash> {
        self.crashes.get(&rank).copied()
    }

    /// Deterministic biased coin: does fault `salt` strike message `k`
    /// on link `src -> dst`?
    fn strikes(&self, p: f64, salt: u64, src: usize, dst: usize, k: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = mix_chain(&[self.seed, salt, src as u64, dst as u64, k]);
        // Map to [0, 1) with 53 bits of precision.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Deterministic position of the byte to flip in a corrupted
    /// payload of length `len` (> 0).
    fn corrupt_pos(&self, src: usize, dst: usize, k: u64, len: usize) -> usize {
        (mix_chain(&[self.seed, SALT_BYTE, src as u64, dst as u64, k]) % len as u64) as usize
    }
}

/// A held-back (delayed) message awaiting release.
struct Held {
    /// Operation count at which it was held; released once a *later*
    /// operation runs, so it lands after at least one newer message.
    op: u64,
    to: usize,
    tag: Tag,
    payload: Bytes,
}

/// Fault-injecting communicator wrapper.
///
/// Applies a [`FaultPlan`] to every outgoing message and crashes the
/// endpoint when the plan says so, the first time the rank touches it
/// at or after the crash point. The crash drops the inner endpoint, so
/// its peers see this rank's links close — on the simulator, thread and
/// TCP substrates alike — after every message it sent before the crash,
/// and a receive from it fails with [`CommError::Closed`]. The crashed
/// rank itself is *dark*: its sends are swallowed, every receive
/// returns [`CommError::Crashed`], and `rank`, `size` and `now` (frozen
/// at the crash) still answer — exactly the fail-stop model of §V
/// ("crashed machines stop talking; they do not babble").
///
/// Injected corruption flips one payload byte; it is up to the layers
/// above (the codec's checksum, `ReliableComm`'s frame CRC) to detect
/// it — `ChaosComm` itself never signals which messages it damaged.
pub struct ChaosComm<C: Comm> {
    /// `None` once the crash has fired (or transiently inside
    /// `into_inner`).
    inner: Option<C>,
    rank: usize,
    size: usize,
    /// The inner endpoint's clock when the crash fired.
    crashed_at: f64,
    plan: FaultPlan,
    /// Per-destination count of send attempts, the `k` in fault hashes.
    link_seq: Vec<u64>,
    /// Messages being delayed for reordering.
    holdback: Vec<Held>,
    /// Count of communicator operations, for `Crash::AfterOps`.
    ops: u64,
}

impl<C: Comm> ChaosComm<C> {
    /// Wrap `inner`, injecting the faults `plan` prescribes for this
    /// rank's outgoing links and its crash event (if any).
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let (rank, size) = (inner.rank(), inner.size());
        Self {
            inner: Some(inner),
            rank,
            size,
            crashed_at: 0.0,
            plan,
            link_seq: vec![0; size],
            holdback: Vec::new(),
            ops: 0,
        }
    }

    /// Unwrap the inner communicator (releases any held-back messages
    /// first). Panics if the crash has fired: the endpoint is gone.
    pub fn into_inner(mut self) -> C {
        self.release_holdback(u64::MAX);
        self.inner
            .take()
            .expect("crashed: the inner endpoint is gone")
    }

    /// The inner endpoint, or `Crashed` once the crash event has fired.
    /// Checked at every operation: firing drops the inner endpoint with
    /// the messages still held back for it (a crashed node's queued
    /// packets die with it), and once dark, always dark.
    fn live(&mut self) -> Result<&mut C, CommError> {
        if let Some(inner) = &self.inner {
            let fire = match self.plan.crash(self.rank) {
                Some(Crash::AtTime(t)) => inner.now() >= t,
                Some(Crash::AfterOps(n)) => self.ops >= n,
                None => false,
            };
            if fire {
                self.crashed_at = inner.now();
                self.holdback.clear();
                self.inner = None;
            }
        }
        self.inner
            .as_mut()
            .ok_or(CommError::Crashed { rank: self.rank })
    }

    /// The inner endpoint; the caller has checked it is still there.
    fn inner_mut(&mut self) -> &mut C {
        self.inner.as_mut().expect("endpoint crashed")
    }

    /// Release held-back messages captured before operation `before`.
    fn release_holdback(&mut self, before: u64) {
        if self.holdback.is_empty() || self.inner.is_none() {
            return;
        }
        let mut released = Vec::new();
        self.holdback.retain_mut(|h| {
            if h.op < before {
                released.push((h.to, h.tag, std::mem::take(&mut h.payload)));
                false
            } else {
                true
            }
        });
        for (to, tag, payload) in released {
            self.inner_mut().send(to, tag, payload);
        }
    }
}

impl<C: Comm> Drop for ChaosComm<C> {
    fn drop(&mut self) {
        // Whatever is still held back has now "arrived late": release
        // it so peers retrying against a live-but-slow link see it.
        self.release_holdback(u64::MAX);
    }
}

impl<C: Comm> Comm for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        self.ops += 1;
        if self.live().is_err() {
            return;
        }
        let src = self.rank;
        let k = self.link_seq[to];
        self.link_seq[to] += 1;
        let lf = self.plan.link_faults(src, to);

        if self.plan.strikes(lf.drop_p, SALT_DROP, src, to, k) {
            count(self.telemetry(), tag, Counter::FaultsDropped, 1);
        } else {
            let payload = if !payload.is_empty()
                && self.plan.strikes(lf.corrupt_p, SALT_CORRUPT, src, to, k)
            {
                count(self.telemetry(), tag, Counter::FaultsCorrupted, 1);
                let mut buf = payload.to_vec();
                let pos = self.plan.corrupt_pos(src, to, k, buf.len());
                buf[pos] ^= 0x55;
                Bytes::from(buf)
            } else {
                payload
            };
            if self.plan.strikes(lf.delay_p, SALT_DELAY, src, to, k) {
                count(self.telemetry(), tag, Counter::FaultsDelayed, 1);
                self.holdback.push(Held {
                    op: self.ops,
                    to,
                    tag,
                    payload,
                });
            } else {
                if self.plan.strikes(lf.dup_p, SALT_DUP, src, to, k) {
                    count(self.telemetry(), tag, Counter::FaultsDuplicated, 1);
                    self.inner_mut().send(to, tag, payload.clone());
                }
                self.inner_mut().send(to, tag, payload);
            }
        }
        // Release messages held at *earlier* operations only now, after
        // this send — so a delayed message genuinely lands behind newer
        // traffic on its link (reordering, not just latency).
        self.release_holdback(self.ops);
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        self.ops += 1;
        self.live()?;
        self.release_holdback(self.ops);
        self.inner_mut().recv_any_timeout(sources, tag, timeout)
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        if let Some(inner) = &mut self.inner {
            inner.discard(sources, tag);
        }
    }

    fn now(&self) -> f64 {
        self.inner.as_ref().map_or(self.crashed_at, C::now)
    }

    fn charge_compute(&mut self, seconds: f64) {
        if let Some(inner) = &mut self.inner {
            inner.charge_compute(seconds);
        }
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.inner.as_ref().and_then(|c| c.telemetry())
    }
}

impl<C: RawComm> RawComm for ChaosComm<C> {
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        self.ops += 1;
        self.live()?;
        self.release_holdback(self.ops);
        self.inner_mut().recv_raw_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::checksum;
    use crate::tag::Phase;
    use crate::thread_comm::ThreadComm;
    use kylix_telemetry::{Clock, Telemetry};
    use std::sync::Arc;

    fn tag(seq: u32) -> Tag {
        Tag::new(Phase::App, 0, seq)
    }

    /// Two endpoints counting into one telemetry instance: the wire
    /// counts of the bottom substrate and the faults `ChaosComm` injects.
    fn pair() -> (ThreadComm, ThreadComm, Arc<Telemetry>) {
        let tel = Telemetry::new(2, Clock::Wall);
        let mut v = ThreadComm::make_cluster_with_telemetry(2, &tel);
        let b = v.pop().unwrap();
        let a = v.pop().unwrap();
        (a, b, tel)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (a, mut b, tel) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(1));
        for i in 0..10 {
            a.send(1, tag(i), Bytes::from(vec![i as u8]));
        }
        for i in 0..10 {
            assert_eq!(b.recv(0, tag(i)).unwrap()[0], i as u8);
        }
        let rep = tel.report();
        assert_eq!(rep.total(Counter::FaultsDropped), 0);
        assert_eq!(rep.ranks[0].total(Counter::MsgsSent), 10);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let (a, mut b, tel) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(1).drop_rate(1.0));
        a.send(1, tag(0), Bytes::from_static(b"gone"));
        assert!(b
            .recv_timeout(0, tag(0), Duration::from_millis(30))
            .is_err());
        let rep = tel.report();
        assert_eq!(rep.total(Counter::FaultsDropped), 1);
        assert_eq!(rep.total(Counter::MsgsSent), 0);
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let run = |seed: u64| -> (Vec<u32>, u64) {
            let (a, mut b, tel) = pair();
            let mut a = ChaosComm::new(a, FaultPlan::new(seed).drop_rate(0.4));
            for i in 0..64 {
                a.send(1, tag(i), Bytes::from(vec![i as u8]));
            }
            let mut got = Vec::new();
            for i in 0..64 {
                if b.recv_timeout(0, tag(i), Duration::from_millis(5)).is_ok() {
                    got.push(i);
                }
            }
            let dropped = tel.report().total(Counter::FaultsDropped);
            assert_eq!(dropped as usize, 64 - got.len(), "every loss counted");
            (got, dropped)
        };
        let (g1, d1) = run(42);
        let (g2, d2) = run(42);
        assert_eq!(g1, g2);
        assert_eq!(d1, d2);
        assert!(d1 > 0, "40% of 64 sends should drop some");
        assert!(g1.len() > 10, "most messages should survive");
        // A different seed picks different victims.
        let (g3, _) = run(43);
        assert_ne!(g1, g3);
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let (a, mut b, tel) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(9).corrupt_rate(1.0));
        let original = vec![0u8; 32];
        a.send(1, tag(0), Bytes::from(original.clone()));
        let got = b.recv(0, tag(0)).unwrap();
        let diffs: Vec<usize> = (0..32).filter(|&i| got[i] != original[i]).collect();
        assert_eq!(diffs.len(), 1, "exactly one byte flipped");
        assert_eq!(tel.report().total(Counter::FaultsCorrupted), 1);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (a, mut b, tel) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(9).duplicate_rate(1.0));
        a.send(1, tag(0), Bytes::from_static(b"twin"));
        assert_eq!(&b.recv(0, tag(0)).unwrap()[..], b"twin");
        assert_eq!(&b.recv(0, tag(0)).unwrap()[..], b"twin");
        let rep = tel.report();
        assert_eq!(rep.total(Counter::FaultsDuplicated), 1);
        assert_eq!(rep.total(Counter::MsgsSent), 2);
    }

    #[test]
    fn delay_reorders_behind_next_message() {
        let (a, mut b, _) = pair();
        // Delay every message: each send holds its message and releases
        // the previously held one, so arrival order is shifted by one.
        let mut a = ChaosComm::new(a, FaultPlan::new(9).delay_rate(1.0));
        let t = tag(0);
        a.send(1, t, Bytes::from_static(b"first"));
        a.send(1, t, Bytes::from_static(b"second"));
        drop(a); // releases the still-held "second"
        assert_eq!(&b.recv(0, t).unwrap()[..], b"first");
        assert_eq!(&b.recv(0, t).unwrap()[..], b"second");
    }

    #[test]
    fn crash_after_ops_goes_dark() {
        let (a, mut b, _) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(9).crash_after_ops(0, 2));
        a.send(1, tag(0), Bytes::from_static(b"alive"));
        a.send(1, tag(1), Bytes::from_static(b"never sent")); // op 2: crash fires
        let err = a.recv_timeout(1, tag(9), Duration::from_millis(5));
        assert!(matches!(err, Err(CommError::Crashed { rank: 0 })));
        assert_eq!(&b.recv(0, tag(0)).unwrap()[..], b"alive");
        assert!(b
            .recv_timeout(0, tag(1), Duration::from_millis(30))
            .is_err());
    }

    #[test]
    fn crash_at_time_zero_is_dark_immediately() {
        let (a, _b, _) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(9).crash_at(0, 0.0));
        let err = a.recv_timeout(1, tag(0), Duration::from_millis(5));
        assert!(matches!(err, Err(CommError::Crashed { rank: 0 })));
    }

    #[test]
    fn per_link_override_beats_default() {
        let plan = FaultPlan::new(5)
            .drop_rate(1.0)
            .link(0, 1, LinkFaults::none());
        assert_eq!(plan.link_faults(0, 1), LinkFaults::none());
        assert_eq!(plan.link_faults(1, 0).drop_p, 1.0);
    }

    #[test]
    fn checksum_detects_single_byte_flip() {
        let mut data = vec![7u8; 100];
        let c0 = checksum(&data);
        data[63] ^= 0x55;
        assert_ne!(c0, checksum(&data));
    }

    #[test]
    fn into_inner_releases_holdback() {
        let (a, mut b, _) = pair();
        let mut a = ChaosComm::new(a, FaultPlan::new(9).delay_rate(1.0));
        a.send(1, tag(0), Bytes::from_static(b"held"));
        let _inner = a.into_inner();
        assert_eq!(&b.recv(0, tag(0)).unwrap()[..], b"held");
    }
}
