#![warn(missing_docs)]

//! # kylix-telemetry
//!
//! Cross-substrate observability for the Kylix reproduction: per-rank,
//! per-phase, per-layer counters, a bounded log₂ timing histogram, and
//! an optional ring-buffer event trace — all readable from a
//! [`TelemetryReport`] snapshot (the `figures` harness writes it out as
//! JSON).
//!
//! The same facility serves both execution substrates. On
//! `LocalCluster` (real threads) the histogram records wall time; on
//! `SimCluster` it records virtual time. Which one is in effect is
//! carried by the [`Clock`] tag so an export is self-describing.
//!
//! ## Design constraints
//!
//! The PR 2 allocation budget (≤0.4 heap allocations per steady-state
//! reduce op, whole cluster) must hold with telemetry enabled, so the
//! steady-state API is **lock-free and allocation-free**:
//!
//! * counters are a flat, preallocated `Box<[AtomicU64]>` indexed by
//!   `(phase, layer, kind)` — recording is one `fetch_add`;
//! * the histogram is a fixed array of 64 atomic buckets (bucket *i*
//!   holds durations in `[2^(i-1), 2^i)` nanoseconds);
//! * the event trace, when enabled, is a preallocated ring of `Copy`
//!   events behind a `Mutex` (bounded, overwrites the oldest entry);
//!   it is off by default and costs nothing when off.
//!
//! Layers above `MAX_LAYERS-1` clamp into the last slot rather than
//! allocate; phases come from the wire tag and are always in range.
//!
//! ## Counter semantics
//!
//! `BytesSent`/`MsgsSent` are recorded by the substrate at the send
//! call, *before* any receiver-liveness check (matching the simulator's
//! long-standing accounting), so both substrates agree byte-for-byte on
//! deterministic workloads. `BytesRecv`/`MsgsRecv` are recorded at
//! every point a payload is handed to (or discarded on behalf of) the
//! caller, so in a fault-free run Σ sent == Σ received per
//! `(phase, layer)` once all ranks return. A rank's own part of a
//! layer (the part of a scatter that never touches the wire, which the
//! paper's Fig. 5 counts as a packet to self) is filed once, by every
//! pass (config, combined, down and up), as `SelfBytes`/`SelfMsgs`
//! under the pass's own phase and layer. A layer's whole volume is
//! therefore `BytesSent + SelfBytes` there.
//!
//! Every count reaches a shard through [`RankTelemetry::add`] and is
//! read back through a [`TelemetryReport`] snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of phase slots per rank: the six wire phases of
/// `kylix_net::Phase`.
pub const PHASES: usize = 6;

/// Number of layer slots per phase; layers ≥ `MAX_LAYERS` clamp into
/// the last slot (no Kylix machine in the paper's range has >6 layers).
pub const MAX_LAYERS: usize = 64;

/// Number of log₂ histogram buckets (covers 1 ns … ~292 years).
pub const HIST_BUCKETS: usize = 64;

/// What a counter cell measures. The discriminant is the cell index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Counter {
    /// Payload bytes handed to the substrate's send path.
    BytesSent = 0,
    /// Messages handed to the substrate's send path.
    MsgsSent = 1,
    /// Payload bytes delivered to (or discarded on behalf of) a receiver.
    BytesRecv = 2,
    /// Messages delivered to (or discarded on behalf of) a receiver.
    MsgsRecv = 3,
    /// Arrivals parked in the selective-receive stash before delivery.
    StashParks = 4,
    /// Data frames retransmitted by the reliable layer.
    Retransmits = 5,
    /// Duplicate data frames dropped by the reliable layer.
    DupesDropped = 6,
    /// Frames rejected by the reliable layer's checksum.
    CorruptRejects = 7,
    /// Acknowledgement frames sent by the reliable layer.
    AcksSent = 8,
    /// Frames abandoned after the retry budget was exhausted.
    GaveUp = 9,
    /// Messages dropped by injected link faults.
    FaultsDropped = 10,
    /// Messages duplicated by injected link faults.
    FaultsDuplicated = 11,
    /// Messages corrupted by injected link faults.
    FaultsCorrupted = 12,
    /// Messages delayed (reordered) by injected link faults.
    FaultsDelayed = 13,
    /// Self-addressed payload bytes, filed under their true phase.
    SelfBytes = 14,
    /// Self-addressed messages, filed under their true phase.
    SelfMsgs = 15,
}

/// Number of counter kinds (cells per `(phase, layer)` slot).
pub const KINDS: usize = 16;

/// All counter kinds, in cell-index order (for reports and export).
pub const ALL_COUNTERS: [Counter; KINDS] = [
    Counter::BytesSent,
    Counter::MsgsSent,
    Counter::BytesRecv,
    Counter::MsgsRecv,
    Counter::StashParks,
    Counter::Retransmits,
    Counter::DupesDropped,
    Counter::CorruptRejects,
    Counter::AcksSent,
    Counter::GaveUp,
    Counter::FaultsDropped,
    Counter::FaultsDuplicated,
    Counter::FaultsCorrupted,
    Counter::FaultsDelayed,
    Counter::SelfBytes,
    Counter::SelfMsgs,
];

impl Counter {
    /// Stable lowercase name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Counter::BytesSent => "bytes_sent",
            Counter::MsgsSent => "msgs_sent",
            Counter::BytesRecv => "bytes_recv",
            Counter::MsgsRecv => "msgs_recv",
            Counter::StashParks => "stash_parks",
            Counter::Retransmits => "retransmits",
            Counter::DupesDropped => "dupes_dropped",
            Counter::CorruptRejects => "corrupt_rejects",
            Counter::AcksSent => "acks_sent",
            Counter::GaveUp => "gave_up",
            Counter::FaultsDropped => "faults_dropped",
            Counter::FaultsDuplicated => "faults_duplicated",
            Counter::FaultsCorrupted => "faults_corrupted",
            Counter::FaultsDelayed => "faults_delayed",
            Counter::SelfBytes => "self_bytes",
            Counter::SelfMsgs => "self_msgs",
        }
    }
}

/// Which notion of time a telemetry instance records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time — the real-execution substrates: `LocalCluster`
    /// (threads over channels) and `TcpCluster` (threads over loopback
    /// sockets).
    Wall,
    /// Virtual time (`SimCluster`'s deterministic cost model).
    Virtual,
}

impl Clock {
    /// Stable name used in the JSON export.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
        }
    }
}

/// One entry of the optional ring-buffer event trace. `Copy` so the
/// ring can be preallocated once and overwritten in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Timestamp in seconds on the owning instance's [`Clock`].
    pub t: f64,
    /// Protocol phase (wire value).
    pub phase: u8,
    /// Butterfly layer.
    pub layer: u16,
    /// Static label, e.g. `"reduce_op"`.
    pub label: &'static str,
    /// Free payload (duration in ns, byte count, …).
    pub value: u64,
}

/// Fixed-capacity overwrite-oldest ring of trace events.
struct TraceRing {
    buf: Vec<TraceEvent>,
    next: usize,
    total: u64,
}

impl TraceRing {
    fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % cap.max(1);
        self.total += 1;
    }

    /// Events in arrival order (oldest surviving first).
    fn ordered(&self) -> Vec<TraceEvent> {
        if self.buf.len() < self.buf.capacity() {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// Per-rank telemetry shard: every steady-state operation on it is a
/// single atomic RMW on preallocated storage — no locks, no allocation.
pub struct RankTelemetry {
    /// `PHASES × MAX_LAYERS × KINDS` counter cells.
    cells: Box<[AtomicU64]>,
    /// log₂ op-duration histogram (bucket i: `[2^(i-1), 2^i)` ns).
    hist: [AtomicU64; HIST_BUCKETS],
    /// Total recorded ops and their summed duration in nanoseconds.
    ops: AtomicU64,
    op_nanos: AtomicU64,
    /// Optional bounded event trace (None ⇒ tracing disabled).
    trace: Option<Mutex<TraceRing>>,
}

#[inline]
fn cell_index(phase: u8, layer: u16, kind: Counter) -> usize {
    let p = (phase as usize).min(PHASES - 1);
    let l = (layer as usize).min(MAX_LAYERS - 1);
    (p * MAX_LAYERS + l) * KINDS + kind as usize
}

/// Histogram bucket for a duration: 0 ns → bucket 0, else
/// `floor(log₂ n) + 1` clamped to the last bucket.
#[inline]
pub fn hist_bucket(nanos: u64) -> usize {
    ((u64::BITS - nanos.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl RankTelemetry {
    fn new(trace_capacity: usize) -> Self {
        let cells: Vec<AtomicU64> = (0..PHASES * MAX_LAYERS * KINDS)
            .map(|_| AtomicU64::new(0))
            .collect();
        RankTelemetry {
            cells: cells.into_boxed_slice(),
            hist: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            ops: AtomicU64::new(0),
            op_nanos: AtomicU64::new(0),
            trace: (trace_capacity > 0).then(|| {
                Mutex::new(TraceRing {
                    buf: Vec::with_capacity(trace_capacity),
                    next: 0,
                    total: 0,
                })
            }),
        }
    }

    /// Add `n` to a counter cell. Lock-free, allocation-free.
    #[inline]
    pub fn add(&self, phase: u8, layer: u16, kind: Counter, n: u64) {
        self.cells[cell_index(phase, layer, kind)].fetch_add(n, Ordering::Relaxed);
    }

    /// Read one counter cell.
    #[inline]
    pub fn get(&self, phase: u8, layer: u16, kind: Counter) -> u64 {
        self.cells[cell_index(phase, layer, kind)].load(Ordering::Relaxed)
    }

    /// Record one timed operation of `nanos` duration.
    #[inline]
    pub fn record_op(&self, nanos: u64) {
        self.hist[hist_bucket(nanos)].fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        self.op_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Summed duration of all timed operations, in nanoseconds.
    pub fn op_nanos(&self) -> u64 {
        self.op_nanos.load(Ordering::Relaxed)
    }

    /// Whether the event trace is enabled on this shard.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Append an event to the ring trace, if tracing is enabled. The
    /// ring is preallocated; when full the oldest event is overwritten.
    #[inline]
    pub fn trace_event(&self, t: f64, phase: u8, layer: u16, label: &'static str, value: u64) {
        if let Some(ring) = &self.trace {
            ring.lock().unwrap().push(TraceEvent {
                t,
                phase,
                layer,
                label,
                value,
            });
        }
    }

    fn snapshot(&self) -> RankReport {
        let mut counters = BTreeMap::new();
        for p in 0..PHASES as u8 {
            for l in 0..MAX_LAYERS as u16 {
                let mut kinds = [0u64; KINDS];
                let mut any = false;
                for (k, slot) in kinds.iter_mut().enumerate() {
                    *slot = self.get(p, l, ALL_COUNTERS[k]);
                    any |= *slot != 0;
                }
                if any {
                    counters.insert((p, l), kinds);
                }
            }
        }
        let mut hist = [0u64; HIST_BUCKETS];
        for (i, b) in self.hist.iter().enumerate() {
            hist[i] = b.load(Ordering::Relaxed);
        }
        let (events, events_total) = match &self.trace {
            Some(ring) => {
                let r = ring.lock().unwrap();
                (r.ordered(), r.total)
            }
            None => (Vec::new(), 0),
        };
        RankReport {
            counters,
            ops: self.ops.load(Ordering::Relaxed),
            op_nanos: self.op_nanos.load(Ordering::Relaxed),
            hist,
            events,
            events_total,
        }
    }
}

/// Cluster-wide telemetry: one lock-free shard per rank plus the clock
/// tag describing what the timing numbers mean.
pub struct Telemetry {
    clock: Clock,
    ranks: Vec<Arc<RankTelemetry>>,
}

impl Telemetry {
    /// A telemetry instance for `m` ranks with tracing disabled.
    pub fn new(m: usize, clock: Clock) -> Arc<Self> {
        Arc::new(Telemetry {
            clock,
            ranks: (0..m).map(|_| Arc::new(RankTelemetry::new(0))).collect(),
        })
    }

    /// A telemetry instance for `m` ranks with a per-rank event-trace
    /// ring of `trace_capacity` entries.
    pub fn with_trace(m: usize, clock: Clock, trace_capacity: usize) -> Arc<Self> {
        Arc::new(Telemetry {
            clock,
            ranks: (0..m)
                .map(|_| Arc::new(RankTelemetry::new(trace_capacity)))
                .collect(),
        })
    }

    /// Which clock this instance's timings are measured on.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Number of rank shards.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when there are no rank shards.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The shard for one rank (shared; clone the `Arc` into a comm).
    pub fn rank(&self, rank: usize) -> &Arc<RankTelemetry> {
        &self.ranks[rank]
    }

    /// Consistent point-in-time snapshot of every shard.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            clock: self.clock,
            ranks: self.ranks.iter().map(|r| r.snapshot()).collect(),
        }
    }
}

/// Snapshot of one rank's shard.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// Non-zero `(phase, layer)` slots → counts in [`ALL_COUNTERS`] order.
    pub counters: BTreeMap<(u8, u16), [u64; KINDS]>,
    /// Timed operations recorded.
    pub ops: u64,
    /// Summed duration of timed operations, nanoseconds.
    pub op_nanos: u64,
    /// log₂ duration histogram.
    pub hist: [u64; HIST_BUCKETS],
    /// Surviving trace events, oldest first (empty if tracing off).
    pub events: Vec<TraceEvent>,
    /// Total events ever pushed (≥ `events.len()` once the ring wraps).
    pub events_total: u64,
}

impl RankReport {
    /// One counter at one `(phase, layer)` slot.
    pub fn get(&self, phase: u8, layer: u16, kind: Counter) -> u64 {
        self.counters
            .get(&(phase, layer.min(MAX_LAYERS as u16 - 1)))
            .map_or(0, |k| k[kind as usize])
    }

    /// Sum a counter kind over every phase of one layer (clamped like
    /// the live shard's).
    pub fn on_layer(&self, layer: u16, kind: Counter) -> u64 {
        let layer = layer.min(MAX_LAYERS as u16 - 1);
        self.counters
            .iter()
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, k)| k[kind as usize])
            .sum()
    }

    /// Sum a counter kind over all phases and layers.
    pub fn total(&self, kind: Counter) -> u64 {
        self.counters.values().map(|k| k[kind as usize]).sum()
    }
}

/// Snapshot of a whole cluster's telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Clock the timing numbers were measured on.
    pub clock: Clock,
    /// One report per rank.
    pub ranks: Vec<RankReport>,
}

impl TelemetryReport {
    /// Sum a counter kind over every rank, phase, and layer.
    pub fn total(&self, kind: Counter) -> u64 {
        self.ranks.iter().map(|r| r.total(kind)).sum()
    }

    /// Sum a counter kind over every rank and phase of one layer.
    pub fn on_layer(&self, layer: u16, kind: Counter) -> u64 {
        self.ranks.iter().map(|r| r.on_layer(layer, kind)).sum()
    }

    /// Sum a counter kind at one `(phase, layer)` over every rank.
    pub fn on(&self, phase: u8, layer: u16, kind: Counter) -> u64 {
        self.ranks.iter().map(|r| r.get(phase, layer, kind)).sum()
    }

    /// Layers with any non-zero counter, ascending.
    pub fn layers(&self) -> Vec<u16> {
        let mut ls: Vec<u16> = self
            .ranks
            .iter()
            .flat_map(|r| r.counters.keys().map(|&(_, l)| l))
            .collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_clamp() {
        let t = RankTelemetry::new(0);
        t.add(1, 3, Counter::BytesSent, 100);
        t.add(1, 3, Counter::BytesSent, 25);
        t.add(1, 3, Counter::MsgsSent, 1);
        assert_eq!(t.get(1, 3, Counter::BytesSent), 125);
        assert_eq!(t.get(1, 3, Counter::MsgsSent), 1);
        assert_eq!(t.get(1, 3, Counter::BytesRecv), 0);
        // Out-of-range layers clamp into the last slot, never panic.
        t.add(2, 9999, Counter::MsgsSent, 7);
        assert_eq!(t.get(2, MAX_LAYERS as u16 - 1, Counter::MsgsSent), 7);
        assert_eq!(t.get(2, 40000, Counter::MsgsSent), 7);
        // Layer sums cross phases, totals cross everything.
        t.add(3, 3, Counter::BytesSent, 10);
        let snap = t.snapshot();
        assert_eq!(snap.on_layer(3, Counter::BytesSent), 135);
        assert_eq!(snap.total(Counter::MsgsSent), 8);
    }

    #[test]
    fn out_of_range_layer_reads_the_same_live_and_snapshot() {
        let tel = Telemetry::new(1, Clock::Wall);
        let shard = tel.rank(0);
        shard.add(1, 70, Counter::BytesSent, 11);
        shard.add(2, 70, Counter::BytesSent, 4);
        assert_eq!(shard.get(1, 70, Counter::BytesSent), 11);
        let rep = tel.report();
        assert_eq!(rep.ranks[0].get(1, 70, Counter::BytesSent), 11);
        assert_eq!(rep.ranks[0].on_layer(70, Counter::BytesSent), 15);
        assert_eq!(rep.on_layer(70, Counter::BytesSent), 15);
        assert_eq!(rep.on_layer(MAX_LAYERS as u16 - 1, Counter::BytesSent), 15);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(1023), 10);
        assert_eq!(hist_bucket(1024), 11);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        let t = RankTelemetry::new(0);
        t.record_op(3);
        t.record_op(3);
        t.record_op(1024);
        assert_eq!(t.op_nanos(), 1030);
        let snap = t.snapshot();
        assert_eq!(snap.ops, 3);
        assert_eq!(snap.hist[2], 2);
        assert_eq!(snap.hist[11], 1);
        assert_eq!(snap.hist.iter().sum::<u64>(), 3);
    }

    #[test]
    fn trace_ring_overwrites_oldest() {
        let t = RankTelemetry::new(3);
        assert!(t.tracing());
        for i in 0..5u64 {
            t.trace_event(i as f64, 1, 0, "ev", i);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events_total, 5);
        let vals: Vec<u64> = snap.events.iter().map(|e| e.value).collect();
        assert_eq!(vals, [2, 3, 4]);
        // Untraced shard records nothing and stays cheap.
        let off = RankTelemetry::new(0);
        off.trace_event(0.0, 1, 0, "ev", 1);
        assert!(off.snapshot().events.is_empty());
    }

    #[test]
    fn report_aggregates_across_ranks() {
        let tel = Telemetry::new(3, Clock::Wall);
        tel.rank(0).add(1, 0, Counter::BytesSent, 10);
        tel.rank(1).add(1, 0, Counter::BytesSent, 20);
        tel.rank(2).add(2, 1, Counter::BytesSent, 5);
        tel.rank(2).add(3, 0, Counter::BytesSent, 7);
        let rep = tel.report();
        assert_eq!(rep.on(1, 0, Counter::BytesSent), 30);
        assert_eq!(rep.on_layer(0, Counter::BytesSent), 37);
        assert_eq!(rep.total(Counter::BytesSent), 42);
        assert_eq!(rep.layers(), vec![0, 1]);
        assert_eq!(rep.clock, Clock::Wall);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let tel = Telemetry::new(1, Clock::Wall);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let shard = tel.rank(0).clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        shard.add(1, 3, Counter::MsgsSent, 1);
                        shard.record_op(2);
                    }
                });
            }
        });
        let rep = tel.report();
        assert_eq!(rep.on(1, 3, Counter::MsgsSent), 8000);
        assert_eq!(rep.ranks[0].ops, 8000);
        assert_eq!(rep.ranks[0].hist[2], 8000);
    }
}
