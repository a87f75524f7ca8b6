//! The receive stash every substrate shares: [`Mailbox`].
//!
//! Kylix receivers are *opportunistic* (paper §VI.B): messages are
//! pushed asynchronously, and the receiver picks the one the protocol
//! asks for out of its mailbox, keeping the rest for later. That
//! out-of-order stash is what lets every node run the butterfly
//! schedule without global synchronisation.
//!
//! [`Mailbox`] is the one place that knows the stash policy:
//!
//! * a FIFO stash per `(src, tag)`, with a bounded freelist of emptied
//!   queues so the steady-state receive path stops allocating;
//! * cooperative garbage collection for packet racing (§V.B) —
//!   [`Mailbox::discard`] drops a stashed copy, or remembers the
//!   discard and applies it to the matching arrival (bounded, oldest
//!   first evicted, since a discard aimed at a dead peer never
//!   matches);
//! * the receive-side telemetry: every message consumed on behalf of
//!   the protocol — handed over directly, taken from the stash, or
//!   eaten by a pending discard — is counted once as
//!   `BytesRecv`/`MsgsRecv`, and every arrival that waits in the stash
//!   as a `StashParks`.
//!
//! Each stashed item carries a caller-chosen tag `T`: `()` on the real
//! substrates and the reliability layer, the virtual delivery time on
//! the simulator (whose packet race picks the earliest copy).
//!
//! The real endpoint ([`crate::endpoint`]) feeds its mailbox from its
//! event funnel and runs its racing and raw receive loops on top of
//! it.

use crate::comm::RawMessage;
use crate::tag::{count, Tag};
use bytes::Bytes;
use kylix_telemetry::{Counter, RankTelemetry};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Cap on remembered not-yet-arrived discards. A discard aimed at a
/// dead peer never matches an arrival; without a bound those entries
/// would leak instead of the stash. Oldest entries are evicted first.
/// The eviction queue also holds entries of discards already spent; it
/// is swept once it reaches twice this length.
const MAX_PENDING_DISCARDS: usize = 4096;

/// Cap on retained empty stash queues. Enough to cover the distinct
/// `(src, tag)` keys live within one reduction layer on any realistic
/// group degree; beyond that the queues are simply dropped.
const MAX_SPARE_QUEUES: usize = 32;

type Key = (usize, Tag);

/// Per-endpoint receive stash with racing-discard bookkeeping and
/// receive-side accounting. See the module docs.
pub struct Mailbox<T> {
    /// Messages that arrived before the protocol asked for them.
    stash: HashMap<Key, VecDeque<(T, Bytes)>>,
    /// Emptied stash queues kept for reuse.
    spare_queues: Vec<VecDeque<(T, Bytes)>>,
    /// Discards registered before the matching message arrived: how
    /// many per key, and the registration that entered the key.
    pending_discards: HashMap<Key, (u32, u64)>,
    /// Registrations in order, for eviction. An entry is live while its
    /// registration still holds its key in `pending_discards`.
    discard_order: VecDeque<(Key, u64)>,
    /// Registrations made so far.
    registrations: u64,
    /// Where receives are counted; `None` counts nothing.
    shard: Option<Arc<RankTelemetry>>,
}

impl<T> Mailbox<T> {
    /// An empty mailbox counting into `shard` (if any).
    pub fn new(shard: Option<Arc<RankTelemetry>>) -> Self {
        Self {
            stash: HashMap::new(),
            spare_queues: Vec::new(),
            pending_discards: HashMap::new(),
            discard_order: VecDeque::new(),
            registrations: 0,
            shard,
        }
    }

    /// The telemetry shard receives are counted into.
    pub fn telemetry(&self) -> Option<&RankTelemetry> {
        self.shard.as_deref()
    }

    /// Count one message consumed on the protocol's behalf; pairs with
    /// the send-side accounting so fault-free runs conserve messages
    /// per `(phase, layer)`.
    #[inline]
    fn record_recv(&self, tag: Tag, bytes: usize) {
        count(self.telemetry(), tag, Counter::BytesRecv, bytes as u64);
        count(self.telemetry(), tag, Counter::MsgsRecv, 1);
    }

    fn consume_pending_discard(&mut self, key: Key) -> bool {
        match self.pending_discards.get_mut(&key) {
            Some((n, _)) => {
                *n -= 1;
                if *n == 0 {
                    self.pending_discards.remove(&key);
                }
                true
            }
            None => false,
        }
    }

    /// Hand an arrival the caller is waiting for straight back, without
    /// a stash round-trip. Only valid when nothing is stashed under its
    /// key (so it is the first of its key). `None` if a pending discard
    /// claims it instead; counted as received either way.
    pub fn deliver(&mut self, src: usize, tag: Tag, item: T, payload: Bytes) -> Option<(T, Bytes)> {
        self.record_recv(tag, payload.len());
        if self.consume_pending_discard((src, tag)) {
            None
        } else {
            Some((item, payload))
        }
    }

    /// Route one arrival nobody is waiting for: it satisfies a pending
    /// discard (a delivery, for conservation purposes) or it joins the
    /// stash behind earlier arrivals of its key.
    pub fn accept(&mut self, src: usize, tag: Tag, item: T, payload: Bytes) {
        if self.consume_pending_discard((src, tag)) {
            self.record_recv(tag, payload.len());
            return;
        }
        count(self.telemetry(), tag, Counter::StashParks, 1);
        self.stash
            .entry((src, tag))
            .or_insert_with(|| self.spare_queues.pop().unwrap_or_default())
            .push_back((item, payload));
    }

    /// Take the oldest stashed message from `src` with `tag`.
    pub fn take(&mut self, src: usize, tag: Tag) -> Option<(T, Bytes)> {
        let q = self.stash.get_mut(&(src, tag))?;
        let item = q.pop_front();
        if q.is_empty() {
            let q = self.stash.remove(&(src, tag)).expect("entry exists");
            if self.spare_queues.len() < MAX_SPARE_QUEUES {
                self.spare_queues.push(q);
            }
        }
        if let Some((_, p)) = &item {
            self.record_recv(tag, p.len());
        }
        item
    }

    /// The item of the oldest stashed message from `src` with `tag`,
    /// without taking it.
    pub fn peek(&self, src: usize, tag: Tag) -> Option<&T> {
        self.stash.get(&(src, tag))?.front().map(|(item, _)| item)
    }

    /// Take the head of the stash queue whose `key(src, tag, item)` is
    /// smallest — a deterministic pick whatever the arrival order.
    /// Keys must be comparable (no NaN) and distinct across queues.
    pub fn take_min_by<K: PartialOrd>(
        &mut self,
        key: impl Fn(usize, Tag, &T) -> K,
    ) -> Option<(T, RawMessage)> {
        let mut best: Option<(K, Key)> = None;
        for (&(src, tag), q) in &self.stash {
            let k = key(src, tag, &q.front().expect("stash queues are nonempty").0);
            if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
                best = Some((k, (src, tag)));
            }
        }
        let (_, (src, tag)) = best?;
        let (item, payload) = self.take(src, tag).expect("picked queue is nonempty");
        Some((item, RawMessage { src, tag, payload }))
    }

    /// Drop one message with `tag` from each of `sources`: the oldest
    /// stashed copy if there is one, otherwise the next to arrive.
    pub fn discard(&mut self, sources: &[usize], tag: Tag) {
        for &s in sources {
            if self.take(s, tag).is_some() {
                continue;
            }
            let reg = self.registrations;
            let (n, _) = self.pending_discards.entry((s, tag)).or_insert((0, reg));
            if *n == 0 {
                self.discard_order.push_back(((s, tag), reg));
                self.registrations += 1;
            }
            *n += 1;
        }
        if self.discard_order.len() >= 2 * MAX_PENDING_DISCARDS {
            let pending = &self.pending_discards;
            self.discard_order
                .retain(|(key, reg)| pending.get(key).is_some_and(|e| e.1 == *reg));
        }
        while self.pending_discards.len() > MAX_PENDING_DISCARDS {
            let Some((key, reg)) = self.discard_order.pop_front() else {
                break;
            };
            if self.pending_discards.get(&key).is_some_and(|e| e.1 == reg) {
                self.pending_discards.remove(&key);
            }
        }
    }

    /// Number of messages held in the stash, across all keys.
    pub fn stash_len(&self) -> usize {
        self.stash.values().map(|q| q.len()).sum()
    }

    /// Number of registered not-yet-arrived discards.
    pub fn pending_discard_len(&self) -> usize {
        self.pending_discards
            .values()
            .map(|&(n, _)| n as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Phase;
    use kylix_telemetry::{Clock, Telemetry};

    fn tag(layer: u16, seq: u32) -> Tag {
        Tag::new(Phase::App, layer, seq)
    }

    fn b(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }

    fn counted() -> (Mailbox<()>, Arc<RankTelemetry>) {
        let shard = Arc::clone(Telemetry::new(1, Clock::Wall).rank(0));
        (Mailbox::new(Some(Arc::clone(&shard))), shard)
    }

    #[test]
    fn one_key_is_fifo() {
        let mut mb = Mailbox::new(None);
        for i in 0..5u8 {
            mb.accept(0, tag(0, 0), i, Bytes::from(vec![i]));
        }
        mb.accept(1, tag(0, 0), 9, b(b"other"));
        for i in 0..5u8 {
            let (item, p) = mb.take(0, tag(0, 0)).unwrap();
            assert_eq!((item, p[0]), (i, i));
        }
        assert!(mb.take(0, tag(0, 0)).is_none());
        assert_eq!(mb.stash_len(), 1);
    }

    #[test]
    fn discard_removes_a_stashed_copy() {
        let mut mb = Mailbox::new(None);
        mb.accept(0, tag(0, 0), (), b(b"first"));
        mb.accept(0, tag(0, 0), (), b(b"second"));
        mb.discard(&[0], tag(0, 0));
        assert_eq!(mb.pending_discard_len(), 0, "a stashed copy was there");
        assert_eq!(&mb.take(0, tag(0, 0)).unwrap().1[..], b"second");
        assert_eq!(mb.stash_len(), 0);
    }

    #[test]
    fn discard_catches_a_later_arrival() {
        let mut mb = Mailbox::new(None);
        mb.discard(&[0, 1], tag(0, 7));
        assert_eq!(mb.pending_discard_len(), 2);
        mb.accept(0, tag(0, 7), (), b(b"late loser"));
        assert!(mb.deliver(1, tag(0, 7), (), b(b"direct loser")).is_none());
        assert_eq!(mb.pending_discard_len(), 0);
        assert_eq!(mb.stash_len(), 0);
        // The discards are spent: the next copies are kept.
        mb.accept(0, tag(0, 7), (), b(b"keeper"));
        assert_eq!(&mb.take(0, tag(0, 7)).unwrap().1[..], b"keeper");
    }

    #[test]
    fn pending_discards_are_bounded() {
        let mut mb = Mailbox::<()>::new(None);
        // Far more dead-peer discards than the cap.
        for seq in 0..(MAX_PENDING_DISCARDS as u32 * 3) {
            mb.discard(&[0], tag(0, seq));
        }
        assert!(mb.pending_discards.len() <= MAX_PENDING_DISCARDS);
        assert_eq!(mb.discard_order.len(), mb.pending_discards.len());
    }

    #[test]
    fn eviction_at_the_cap_drops_the_oldest_first() {
        let mut mb = Mailbox::new(None);
        let over = 3u32;
        for seq in 0..MAX_PENDING_DISCARDS as u32 + over {
            mb.discard(&[0], tag(0, seq));
        }
        assert_eq!(mb.pending_discards.len(), MAX_PENDING_DISCARDS);
        // The oldest `over` discards were forgotten: their arrivals park.
        for seq in 0..over {
            mb.accept(0, tag(0, seq), (), b(b"kept"));
        }
        assert_eq!(mb.stash_len(), over as usize);
        // The newest discards survive and still consume their arrivals.
        for seq in over..MAX_PENDING_DISCARDS as u32 + over {
            mb.accept(0, tag(0, seq), (), b(b"dropped"));
        }
        assert_eq!(mb.stash_len(), over as usize);
        assert_eq!(mb.pending_discard_len(), 0);
    }

    #[test]
    fn spent_discards_do_not_grow_the_eviction_queue() {
        let mut mb = Mailbox::<()>::new(None);
        // Replicated runs: each race's losing copy lands after its
        // discard was registered, and spends it.
        for seq in 0..10_000 {
            mb.discard(&[0], tag(0, seq));
            mb.accept(0, tag(0, seq), (), b(b"late loser"));
        }
        assert_eq!((mb.pending_discard_len(), mb.stash_len()), (0, 0));
        assert!(
            mb.discard_order.len() <= 2 * MAX_PENDING_DISCARDS,
            "eviction queue holds {} entries",
            mb.discard_order.len()
        );
    }

    #[test]
    fn eviction_skips_spent_registrations() {
        let mut mb = Mailbox::new(None);
        // Key (0, seq 0) is registered and spent; the cap's worth of
        // other keys follows, then seq 0 again, one over the cap. The
        // oldest live registration (seq 1) must go, not the newest one
        // behind the spent entry at the head of the queue.
        mb.discard(&[0], tag(0, 0));
        mb.accept(0, tag(0, 0), (), b(b"spent"));
        for seq in 1..=MAX_PENDING_DISCARDS as u32 {
            mb.discard(&[0], tag(0, seq));
        }
        mb.discard(&[0], tag(0, 0));
        assert_eq!(mb.pending_discards.len(), MAX_PENDING_DISCARDS);
        mb.accept(0, tag(0, 0), (), b(b"dropped"));
        mb.accept(0, tag(0, 1), (), b(b"kept"));
        assert_eq!(mb.stash_len(), 1);
        assert_eq!(&mb.take(0, tag(0, 1)).unwrap().1[..], b"kept");
    }

    #[test]
    fn spare_queues_recycle_and_stay_bounded() {
        let mut mb = Mailbox::new(None);
        // Stash under many distinct keys, then drain them: the emptied
        // queues go to the freelist (capped).
        let keys = MAX_SPARE_QUEUES as u32 * 2;
        for seq in 0..keys {
            mb.accept(0, tag(0, seq), (), b(b"x"));
        }
        for seq in (0..keys).rev() {
            assert_eq!(&mb.take(0, tag(0, seq)).unwrap().1[..], b"x");
        }
        assert_eq!(mb.stash_len(), 0);
        assert_eq!(mb.spare_queues.len(), MAX_SPARE_QUEUES);
        // A fresh key pulls its queue from the freelist.
        mb.accept(0, tag(1, 0), (), b(b"y"));
        assert_eq!(
            mb.spare_queues.len(),
            MAX_SPARE_QUEUES - 1,
            "one queue in use"
        );
        mb.take(0, tag(1, 0)).unwrap();
        assert_eq!(mb.spare_queues.len(), MAX_SPARE_QUEUES);
    }

    #[test]
    fn raw_pick_is_deterministic_by_key() {
        // Same contents, two insertion orders: the same pick sequence.
        let arrivals = [
            (2, tag(0, 0), 0.5),
            (0, tag(0, 1), 0.7),
            (0, tag(0, 0), 0.9),
        ];
        let mut picks = Vec::new();
        for order in [[0, 1, 2], [2, 1, 0]] {
            let mut mb = Mailbox::new(None);
            for &i in &order {
                let (src, t, at) = arrivals[i];
                mb.accept(src, t, at, b(b"p"));
            }
            let by_key: Vec<(usize, Tag)> =
                std::iter::from_fn(|| mb.take_min_by(|s, t, _| (s, t.raw())))
                    .map(|(_, m)| (m.src, m.tag))
                    .collect();
            assert_eq!(by_key, vec![(0, tag(0, 0)), (0, tag(0, 1)), (2, tag(0, 0))]);
            for &i in &order {
                let (src, t, at) = arrivals[i];
                mb.accept(src, t, at, b(b"p"));
            }
            let by_time: Vec<usize> =
                std::iter::from_fn(|| mb.take_min_by(|s, t, &at| (at, s, t.raw())))
                    .map(|(_, m)| m.src)
                    .collect();
            picks.push(by_time);
        }
        assert_eq!(picks[0], vec![2, 0, 0]);
        assert_eq!(picks[0], picks[1]);
    }

    #[test]
    fn discard_consumed_arrival_is_counted_once() {
        let (mut mb, shard) = counted();
        let app = Phase::App as u8;
        mb.discard(&[0], tag(3, 1));
        mb.accept(0, tag(3, 1), (), b(b"late loser"));
        assert_eq!(shard.get(app, 3, Counter::MsgsRecv), 1);
        assert_eq!(shard.get(app, 3, Counter::BytesRecv), 10);
        assert_eq!(shard.get(app, 3, Counter::StashParks), 0);
        // A discard that removes a stashed copy counts at the take, once.
        mb.accept(0, tag(3, 2), (), b(b"abc"));
        mb.discard(&[0], tag(3, 2));
        assert_eq!(shard.get(app, 3, Counter::MsgsRecv), 2);
        assert_eq!(shard.get(app, 3, Counter::BytesRecv), 13);
        assert_eq!(shard.get(app, 3, Counter::StashParks), 1);
        // Direct delivery: counted, never parked.
        assert!(mb.deliver(0, tag(3, 3), (), b(b"de")).is_some());
        assert_eq!(shard.get(app, 3, Counter::MsgsRecv), 3);
        assert_eq!(shard.get(app, 3, Counter::StashParks), 1);
    }
}
