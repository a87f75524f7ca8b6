//! The virtual-time communicator and cluster runner.
//!
//! `SimComm` implements `kylix_net::Comm` so that the *same* protocol
//! code that runs on the real thread cluster runs here, but clocks are
//! virtual: each node advances a local clock from the cost model in
//! [`crate::nic::NicModel`] rather than from wall time.
//!
//! ### Timing model
//!
//! * **send** — the message occupies the sender's NIC for
//!   `overhead + bytes/bandwidth` starting at
//!   `max(local_clock, nic_free)`; it is *delivered* one latency (plus
//!   deterministic lognormal jitter) after leaving the NIC. Sends are
//!   asynchronous: the local clock does not advance (the paper's sender
//!   threads fire all messages concurrently, §VI.B).
//! * **recv** — the payload must be processed (deserialised/merged)
//!   before the protocol can use it: processing takes
//!   `cpu_per_msg + bytes·cpu_per_byte` on the first free worker of the
//!   node's pool, starting no earlier than delivery. The receiver's
//!   clock advances to `max(local_clock, processed_at)`. The worker pool
//!   is what reproduces the paper's thread-count effect (Fig. 7).
//! * **recv_any** — models the replicas' *packet race* (§V.B): the race
//!   waits until every open candidate's copy is in (or the candidate is
//!   known dead) and the earliest virtual delivery wins. Only the winner
//!   is consumed and processed; losing copies stay in the stash for the
//!   caller to [`Comm::discard`], like the paper's cancelled listener
//!   threads. Taking the minimum of jittered delivery times is exactly
//!   the latency-variance absorption the paper credits racing with.
//!
//! Jitter is hashed from `(seed, src, dst, per-pair sequence)`, so a
//! simulation is bit-reproducible regardless of OS scheduling.
//!
//! Arrivals wait in a `kylix_net::Mailbox` tagged with their virtual
//! delivery time — the same stash, racing-discard and receive
//! accounting policy the real substrates use.
//!
//! ### Failure model
//!
//! A death is an EOF, as on the real substrates: a dropped `SimComm`
//! pushes an `Eof` into every peer's channel. Each sender's pushes reach
//! a receiver in order, so the `Eof` lands after the rank's last message
//! (fail-stop: it stops talking, it does not babble), and a receiver
//! knows a peer is dead exactly when it has drained that `Eof`. A rank
//! dies when its closure returns (one that is dead from the start
//! returns at once), or when a `kylix_net::ChaosComm` wrapped around it
//! crashes — the wrapper drops its `SimComm` the first time the rank
//! touches it at or after the crash time, a deterministic point in
//! virtual time. Either way the race below waits for every candidate
//! to deliver or close, so when in real time an `Eof` lands moves no
//! virtual time.
//!
//! A selective `recv` from a dead rank fails with `CommError::Closed`
//! once nothing it sent is left, the same error a real endpoint reports
//! for a dropped peer — the unreplicated protocol has no defence, which
//! is the paper's motivation for §V. `recv_any` stops waiting for a dead
//! candidate, so the race completes as soon as every *open* replica's
//! copy is in, and fails with `Closed` once every candidate is dead.
//! Only an expired deadline is a `Timeout`/`TimeoutAny`.

use crate::nic::NicModel;
use bytes::Bytes;
use kylix_net::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use kylix_net::cluster::run_each;
use kylix_net::tag::count;
use kylix_net::{Comm, CommError, Mailbox, RawComm, RawMessage, Tag};
use kylix_sparse::hash::mix_many;
use kylix_telemetry::{Clock, Counter, RankTelemetry, Telemetry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank event-ring capacity of a [`SimCluster::traced`] cluster.
/// Each message costs its sender two events, so a rank can emit 4096
/// messages before the ring wraps (`events_total > events.len()` in the
/// report then tells how many were lost).
const TRACE_CAPACITY: usize = 1 << 13;

/// What a rank's channel carries to it.
enum SimEvent {
    /// A simulated in-flight message: payload plus virtual delivery time.
    Msg {
        src: usize,
        tag: Tag,
        deliver_t: f64,
        payload: Bytes,
    },
    /// The endpoint of `src` dropped: it will never send again.
    Eof { src: usize },
}

/// Virtual-time communicator endpoint for one simulated node.
pub struct SimComm {
    rank: usize,
    size: usize,
    nic: NicModel,
    seed: u64,
    senders: Arc<Vec<Sender<SimEvent>>>,
    rx: Receiver<SimEvent>,
    /// Per rank: false once its `Eof` has been drained.
    open: Vec<bool>,
    /// Arrivals, each tagged with its virtual delivery time, counted
    /// into this rank's telemetry shard (always present: the cluster
    /// owns a virtual-clock `Telemetry`). Every arrival parks here (the
    /// simulator has no direct-delivery path), so its `StashParks`
    /// count is not comparable across substrates.
    mailbox: Mailbox<f64>,
    /// Node-local virtual clock (seconds).
    t_local: f64,
    /// Virtual time at which the NIC finishes its queued sends.
    nic_free: f64,
    /// Virtual free times of the receive-processing workers.
    workers: Vec<f64>,
    /// Per-destination message counters feeding the jitter hash.
    seqs: Vec<u64>,
    /// This node's straggler factor: all its NIC/CPU times are
    /// multiplied by it (1.0 = nominal).
    slowdown: f64,
}

impl SimComm {
    fn jitter(&mut self, to: usize) -> f64 {
        if self.nic.jitter_sigma == 0.0 {
            return 1.0;
        }
        let seq = self.seqs[to];
        self.seqs[to] += 1;
        // Two hashed uniforms -> one standard normal (Box–Muller).
        let h1 = mix_many(&[self.seed, self.rank as u64, to as u64, seq, 1]);
        let h2 = mix_many(&[self.seed, self.rank as u64, to as u64, seq, 2]);
        let u1 = ((h1 >> 11) as f64 + 1.0) / (1u64 << 53) as f64; // (0,1]
        let u2 = (h2 >> 11) as f64 / (1u64 << 53) as f64;
        let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.nic.jitter_sigma * g).exp()
    }

    /// Process a delivered message through the worker pool; returns the
    /// virtual time at which its contents become usable.
    fn process(&mut self, deliver_t: f64, bytes: usize) -> f64 {
        let proc = self.nic.proc_time(bytes) * self.slowdown;
        // First free worker (ties broken by index — deterministic).
        let (w, &free) = self
            .workers
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("at least one worker");
        let done = deliver_t.max(free) + proc;
        self.workers[w] = done;
        done
    }

    fn accept(&mut self, ev: SimEvent) {
        match ev {
            SimEvent::Msg {
                src,
                tag,
                deliver_t,
                payload,
            } => self.mailbox.accept(src, tag, deliver_t, payload),
            SimEvent::Eof { src } => self.open[src] = false,
        }
    }

    fn drain_channel(&mut self) {
        while let Ok(env) = self.rx.try_recv() {
            self.accept(env);
        }
    }

    /// Number of messages currently held in the out-of-order stash.
    /// Exposed for leak tests.
    pub fn stash_len(&self) -> usize {
        self.mailbox.stash_len()
    }
}

impl Comm for SimComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        debug_assert!(to < self.size, "rank {to} out of range");
        // Counted whether or not the receiver is alive, like the real
        // substrates: traffic is charged when the sender commits it.
        let tel = self.mailbox.telemetry();
        count(tel, tag, Counter::BytesSent, payload.len() as u64);
        count(tel, tag, Counter::MsgsSent, 1);
        let start = self.t_local.max(self.nic_free);
        let xfer = self.nic.xfer_time(payload.len()) * self.slowdown;
        self.nic_free = start + xfer;
        let deliver_t = start + xfer + self.nic.latency * self.jitter(to);
        if let Some(tel) = self.mailbox.telemetry().filter(|t| t.tracing()) {
            let (phase, layer, bytes) = (tag.phase(), tag.layer(), payload.len() as u64);
            tel.trace_event(start, phase, layer, "sim_emit", bytes);
            tel.trace_event(deliver_t, phase, layer, "sim_deliver", bytes);
        }
        // A dead rank's receiver is gone: the message vanishes.
        let _ = self.senders[to].send(SimEvent::Msg {
            src: self.rank,
            tag,
            deliver_t,
            payload,
        });
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        // Race (§V.B): wait until every candidate has either delivered a
        // copy or closed, then take the earliest virtual delivery. The
        // winner alone is consumed and processed; losers stay stashed
        // for the caller to discard. Waiting for all candidates (not
        // just the first arrival in real time) is what keeps the winner
        // — and therefore every virtual timestamp downstream —
        // deterministic. A closed candidate with no copy stashed sent
        // none: its `Eof` came after its last message.
        let deadline = Instant::now() + timeout;
        loop {
            self.drain_channel();
            let mut best: Option<(f64, usize)> = None;
            let mut pending = false;
            for &s in sources {
                if let Some(&t) = self.mailbox.peek(s, tag) {
                    match best {
                        Some((bt, bs)) if (bt, bs) <= (t, s) => {}
                        _ => best = Some((t, s)),
                    }
                    continue;
                }
                pending |= self.open[s];
            }
            if !pending {
                return match best {
                    Some((_, src)) => {
                        let (deliver_t, payload) =
                            self.mailbox.take(src, tag).expect("winner stashed");
                        let done = self.process(deliver_t, payload.len());
                        self.t_local = self.t_local.max(done);
                        Ok((src, payload))
                    }
                    // Every candidate is closed with nothing stashed:
                    // the same `Closed` as a real endpoint's.
                    None if !sources.is_empty() => Err(CommError::Closed),
                    None => Err(CommError::TimeoutAny {
                        sources: sources.to_vec(),
                        tag,
                    }),
                };
            }
            // Still waiting on at least one open candidate.
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(ev) => self.accept(ev),
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
        self.drain_channel();
        self.mailbox.discard(sources, tag);
    }

    fn now(&self) -> f64 {
        self.t_local
    }

    fn charge_compute(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0 && seconds.is_finite());
        self.t_local += seconds * self.slowdown;
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        self.mailbox.telemetry()
    }
}

impl Drop for SimComm {
    /// A rank whose endpoint is gone is dead, as on the real
    /// substrates: every peer drains an `Eof` after this rank's last
    /// message and stops waiting for it instead of burning its patience.
    fn drop(&mut self) {
        for (peer, tx) in self.senders.iter().enumerate() {
            if peer != self.rank {
                let _ = tx.send(SimEvent::Eof { src: self.rank });
            }
        }
    }
}

impl RawComm for SimComm {
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        let deadline = Instant::now() + timeout;
        loop {
            self.drain_channel();
            // Deterministic pick: earliest virtual delivery, ties broken
            // by (src, tag).
            if let Some((deliver_t, msg)) =
                self.mailbox.take_min_by(|src, tag, &t| (t, src, tag.raw()))
            {
                let done = self.process(deliver_t, msg.payload.len());
                self.t_local = self.t_local.max(done);
                return Ok(Some(msg));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            match self.rx.recv_timeout(remaining) {
                Ok(ev) => self.accept(ev),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(CommError::Closed),
            }
        }
    }
}

/// Builder/runner for a simulated cluster.
pub struct SimCluster {
    m: usize,
    nic: NicModel,
    seed: u64,
    telemetry: Arc<Telemetry>,
    slowdowns: Vec<(usize, f64)>,
}

impl SimCluster {
    /// A cluster of `m` simulated nodes over the given NIC model.
    pub fn new(m: usize, nic: NicModel) -> Self {
        assert!(m > 0);
        Self {
            m,
            nic,
            seed: 0,
            telemetry: Telemetry::new(m, Clock::Virtual),
            slowdowns: Vec::new(),
        }
    }

    /// Make specific ranks stragglers: their NIC and CPU times are
    /// multiplied by the given factor (>1 = slower). Models the
    /// "variable compute node performance and external loads" of
    /// commodity clouds (paper §II).
    pub fn stragglers(mut self, slow: &[(usize, f64)]) -> Self {
        for &(rank, f) in slow {
            assert!(f > 0.0 && f.is_finite(), "bad straggler factor {f}");
            self.slowdowns.push((rank, f));
        }
        self
    }

    /// Enable message-level tracing: every send pushes two events onto
    /// the sender's telemetry ring, `"sim_emit"` at the virtual time its
    /// NIC starts emitting and `"sim_deliver"` at its virtual delivery
    /// time, each with the payload bytes as `value`. The ring holds
    /// `TRACE_CAPACITY` (8192) events per rank.
    pub fn traced(mut self) -> Self {
        self.telemetry = Telemetry::with_trace(self.m, Clock::Virtual, TRACE_CAPACITY);
        self
    }

    /// Set the jitter seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The cluster's telemetry instance (virtual-clock flavour): every
    /// per-rank, per-phase, per-layer count of a run, and the event
    /// ring of a [`SimCluster::traced`] one. Readable after `run_all`.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Run `f` on every rank concurrently, one OS thread each; returns
    /// the results indexed by rank.
    pub fn run_all<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(SimComm) -> R + Sync,
    {
        let mut txs = Vec::with_capacity(self.m);
        let mut rxs = Vec::with_capacity(self.m);
        for _ in 0..self.m {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        let senders = Arc::new(txs);
        let comms: Vec<SimComm> = rxs
            .into_iter()
            .enumerate()
            .map(|(rank, rx)| SimComm {
                rank,
                size: self.m,
                nic: self.nic,
                seed: self.seed,
                senders: Arc::clone(&senders),
                rx,
                open: vec![true; self.m],
                mailbox: Mailbox::new(Some(Arc::clone(self.telemetry.rank(rank)))),
                t_local: 0.0,
                nic_free: 0.0,
                workers: vec![0.0; self.nic.workers],
                seqs: vec![0; self.m],
                slowdown: self
                    .slowdowns
                    .iter()
                    .find(|(r, _)| *r == rank)
                    .map_or(1.0, |(_, f)| *f),
            })
            .collect();
        run_each(comms, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::{ChaosComm, FaultPlan, Phase};

    fn t(layer: u16, seq: u32) -> Tag {
        Tag::new(Phase::App, layer, seq)
    }

    /// One 1 MB message, no jitter: delivery = overhead + size/bw + L,
    /// usable after worker processing.
    #[test]
    fn single_message_timing_matches_model() {
        let nic = NicModel::ec2_10g_nojitter();
        let cluster = SimCluster::new(2, nic);
        let times = cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(0, 0), Bytes::from(vec![0u8; 1_000_000]));
                0.0
            } else {
                c.recv(0, t(0, 0)).unwrap();
                c.now()
            }
        });
        let expect = nic.xfer_time(1_000_000) + nic.latency + nic.proc_time(1_000_000);
        assert!(
            (times[1] - expect).abs() < 1e-12,
            "got {} want {expect}",
            times[1]
        );
    }

    #[test]
    fn sender_nic_serialises_messages() {
        // Two messages to the same peer: second delivery is one transfer
        // later than the first.
        let nic = NicModel::ec2_10g_nojitter();
        let sz = 500_000;
        let cluster = SimCluster::new(2, nic);
        let times = cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(0, 0), Bytes::from(vec![0u8; sz]));
                c.send(1, t(0, 1), Bytes::from(vec![0u8; sz]));
                (0.0, 0.0)
            } else {
                c.recv(0, t(0, 0)).unwrap();
                let t1 = c.now();
                c.recv(0, t(0, 1)).unwrap();
                (t1, c.now())
            }
        });
        let (t1, t2) = times[1];
        // Deliveries are xfer apart; with 16 workers processing overlaps,
        // so readiness should also be ≈ xfer apart.
        let gap = t2 - t1;
        assert!(
            (gap - nic.xfer_time(sz)).abs() < 1e-4,
            "gap {gap} vs xfer {}",
            nic.xfer_time(sz)
        );
    }

    #[test]
    fn single_worker_serialises_processing() {
        // CPU-bound NIC: processing dominates the wire, so the worker
        // count is the bottleneck (the regime of the paper's Fig. 7).
        let mut base = NicModel::ideal(1e9);
        base.cpu_per_msg = 1e-3;
        let many = 8u32;
        let sz = 100_000;
        let run = |workers: usize| {
            let cluster = SimCluster::new(2, base.with_workers(workers));
            cluster.run_all(|mut c| {
                if c.rank() == 0 {
                    for i in 0..many {
                        c.send(1, t(0, i), Bytes::from(vec![0u8; sz]));
                    }
                    0.0
                } else {
                    for i in 0..many {
                        c.recv(0, t(0, i)).unwrap();
                    }
                    c.now()
                }
            })[1]
        };
        let done1 = run(1);
        let done8 = run(8);
        assert!(
            done1 > done8 + 3.0 * base.cpu_per_msg,
            "1 worker {done1} should trail 8 workers {done8}"
        );
    }

    #[test]
    fn charge_compute_advances_clock() {
        let cluster = SimCluster::new(1, NicModel::ideal(1e9));
        let out = cluster.run_all(|mut c| {
            c.charge_compute(2.5);
            c.now()
        });
        assert_eq!(out[0], 2.5);
    }

    #[test]
    fn deterministic_with_jitter() {
        let run = || {
            let nic = NicModel::ec2_10g().with_jitter(0.5);
            let cluster = SimCluster::new(4, nic).seed(99);
            cluster.run_all(|mut c| {
                let me = c.rank();
                for to in 0..4 {
                    if to != me {
                        c.send(to, t(0, 0), Bytes::from(vec![0u8; 10_000]));
                    }
                }
                for from in 0..4 {
                    if from != me {
                        c.recv(from, t(0, 0)).unwrap();
                    }
                }
                c.now()
            })
        };
        assert_eq!(run(), run(), "virtual times must be bit-reproducible");
    }

    #[test]
    fn racing_takes_earliest_copy() {
        // Rank 2 receives replicated copies from 0 and 1; with jitter the
        // winner must be the earlier virtual delivery.
        let nic = NicModel::ec2_10g().with_jitter(1.0);
        let cluster = SimCluster::new(3, nic).seed(5);
        let out = cluster.run_all(|mut c| match c.rank() {
            0 | 1 => {
                c.send(2, t(0, 0), Bytes::from(vec![c.rank() as u8; 1000]));
                (0, 0.0)
            }
            _ => {
                let (src, _) = c.recv_any(&[0, 1], t(0, 0)).unwrap();
                (src, c.now())
            }
        });
        let (_, t_any) = out[2];
        // Re-run with selective receive from each and confirm the race is
        // at least as fast as the slower single source.
        let cluster2 = SimCluster::new(3, nic).seed(5);
        let out2 = cluster2.run_all(|mut c| match c.rank() {
            0 | 1 => {
                c.send(2, t(0, 0), Bytes::from(vec![c.rank() as u8; 1000]));
                0.0
            }
            _ => {
                c.recv(0, t(0, 0)).unwrap();
                c.recv(1, t(0, 0)).unwrap();
                c.now()
            }
        });
        assert!(t_any <= out2[2] + 1e-12, "race {t_any} vs both {}", out2[2]);
    }

    #[test]
    fn racing_leaves_loser_for_discard() {
        let cluster = SimCluster::new(3, NicModel::ec2_10g_nojitter());
        let out = cluster.run_all(|mut c| match c.rank() {
            0 | 1 => {
                c.send(2, t(0, 0), Bytes::from(vec![c.rank() as u8; 100]));
                (0, 0)
            }
            _ => {
                let losers: Vec<usize> = {
                    let (src, _) = c.recv_any(&[0, 1], t(0, 0)).unwrap();
                    [0, 1].iter().copied().filter(|&s| s != src).collect()
                };
                let before = c.stash_len();
                c.discard(&losers, t(0, 0));
                (before, c.stash_len())
            }
        });
        let (before, after) = out[2];
        assert_eq!(before, 1, "losing copy stays stashed until discarded");
        assert_eq!(after, 0, "discard collects it");
    }

    #[test]
    fn dead_rank_closes_selective_recv() {
        let cluster = SimCluster::new(2, NicModel::ideal(1e9));
        let out = cluster.run_all(|mut c| {
            // Rank 0 is dead from the start.
            (c.rank() == 1).then(|| c.recv_timeout(0, t(0, 0), Duration::from_secs(5)).err())
        });
        assert_eq!(out[1], Some(Some(CommError::Closed)));
        assert!(out[0].is_none());
    }

    #[test]
    fn recv_any_skips_dead_replica() {
        // Rank 0 is dead from the start.
        let cluster = SimCluster::new(3, NicModel::ideal(1e9));
        let out = cluster.run_all(|mut c| match c.rank() {
            1 => {
                c.send(2, t(0, 0), Bytes::from_static(b"live"));
                None
            }
            2 => Some(c.recv_any(&[0, 1], t(0, 0)).unwrap().0),
            _ => None,
        });
        assert_eq!(out[2], Some(1));
    }

    #[test]
    fn recv_any_is_closed_when_all_sources_dead() {
        // Ranks 0 and 1 are dead from the start.
        let cluster = SimCluster::new(3, NicModel::ideal(1e9));
        let out = cluster.run_all(|mut c| {
            (c.rank() == 2).then(|| c.recv_any_timeout(&[0, 1], t(0, 0), Duration::from_secs(5)))
        });
        assert_eq!(out[2], Some(Err(CommError::Closed)));
    }

    #[test]
    fn mid_run_crash_goes_dark_at_virtual_time() {
        // Rank 0 sends one message, burns 1.0s of virtual compute, then
        // crashes at t=0.5 (so the second send is swallowed).
        let cluster = SimCluster::new(2, NicModel::ideal(1e9));
        let out = cluster.run_all(|c| {
            let mut c = ChaosComm::new(c, FaultPlan::new(0).crash_at(0, 0.5));
            if c.rank() == 0 {
                c.send(1, t(0, 0), Bytes::from_static(b"before"));
                c.charge_compute(1.0);
                c.send(1, t(0, 1), Bytes::from_static(b"after")); // dark
                let crashed = matches!(
                    c.recv_timeout(1, t(0, 2), Duration::from_millis(5)),
                    Err(CommError::Crashed { rank: 0 })
                );
                (true, crashed)
            } else {
                let first = c.recv(0, t(0, 0)).is_ok();
                let second = c
                    .recv_timeout(0, t(0, 1), Duration::from_millis(100))
                    .is_ok();
                (first, second)
            }
        });
        assert_eq!(out[1], (true, false), "post-crash send must vanish");
        assert_eq!(out[0], (true, true), "crashed rank observes Crashed");
    }

    #[test]
    fn mid_run_crash_is_observed_by_racers() {
        // Replica pair (0, 1) serves rank 2; replica 1 crashes before
        // sending. The race must complete with 0's copy rather than
        // waiting out the full timeout.
        let cluster = SimCluster::new(3, NicModel::ideal(1e9));
        let out = cluster.run_all(|c| {
            let mut c = ChaosComm::new(c, FaultPlan::new(0).crash_at(1, 0.0));
            match c.rank() {
                0 => {
                    c.send(2, t(0, 0), Bytes::from_static(b"live"));
                    None
                }
                1 => {
                    // First op fires the crash (t_local = 0 >= 0).
                    c.send(2, t(0, 0), Bytes::from_static(b"never"));
                    None
                }
                _ => {
                    let start = Instant::now();
                    let (src, _) = c
                        .recv_any_timeout(&[0, 1], t(0, 0), Duration::from_secs(30))
                        .unwrap();
                    assert!(
                        start.elapsed() < Duration::from_secs(5),
                        "race must not wait out the timeout"
                    );
                    Some(src)
                }
            }
        });
        assert_eq!(out[2], Some(0));
    }

    #[test]
    fn crash_sweep_is_deterministic() {
        let run = || {
            let nic = NicModel::ec2_10g().with_jitter(0.3);
            let cluster = SimCluster::new(4, nic).seed(7);
            cluster.run_all(|c| {
                let mut c = ChaosComm::new(c, FaultPlan::new(0).crash_at(3, 0.0));
                let me = c.rank();
                for to in 0..4 {
                    if to != me {
                        c.send(to, t(0, 0), Bytes::from(vec![0u8; 10_000]));
                    }
                }
                let mut got = 0u32;
                for from in 0..4 {
                    if from != me
                        && c.recv_timeout(from, t(0, 0), Duration::from_millis(200))
                            .is_ok()
                    {
                        got += 1;
                    }
                }
                (got, c.now())
            })
        };
        assert_eq!(run(), run(), "crash runs must be bit-reproducible");
    }

    #[test]
    fn traffic_is_recorded_per_layer() {
        let cluster = SimCluster::new(2, NicModel::ideal(1e9));
        cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(3, 0), Bytes::from(vec![0u8; 100]));
                count(c.telemetry(), t(3, 1), Counter::SelfBytes, 25); // own part
            } else {
                c.recv(0, t(3, 0)).unwrap();
            }
        });
        let r = cluster.telemetry().report();
        let volume = r.on_layer(3, Counter::BytesSent) + r.on_layer(3, Counter::SelfBytes);
        assert_eq!(volume, 125);
        assert_eq!(r.on_layer(3, Counter::MsgsSent), 1);
    }

    #[test]
    fn traced_ring_holds_each_sends_emit_and_delivery() {
        let nic = NicModel::ec2_10g_nojitter();
        let sz = 500_000;
        let cluster = SimCluster::new(2, nic).traced();
        cluster.run_all(|mut c| {
            if c.rank() == 0 {
                c.send(1, t(2, 0), Bytes::from(vec![0u8; sz]));
                c.send(1, t(2, 1), Bytes::from(vec![0u8; sz]));
            } else {
                c.recv(0, t(2, 0)).unwrap();
                c.recv(0, t(2, 1)).unwrap();
            }
        });
        let rep = cluster.telemetry().report();
        assert!(rep.ranks[1].events.is_empty(), "receives push nothing");
        let evs: Vec<(&str, f64, u16, u64)> = rep.ranks[0]
            .events
            .iter()
            .map(|e| (e.label, e.t, e.layer, e.value))
            .collect();
        // The NIC serialises the two sends: the second starts emitting
        // when the first has left.
        let x = nic.xfer_time(sz);
        let b = sz as u64;
        assert_eq!(
            evs,
            [
                ("sim_emit", 0.0, 2, b),
                ("sim_deliver", x + nic.latency, 2, b),
                ("sim_emit", x, 2, b),
                ("sim_deliver", x + x + nic.latency, 2, b),
            ]
        );
        // Untraced clusters keep no ring.
        let plain = SimCluster::new(1, nic);
        assert!(!plain.telemetry().rank(0).tracing());
    }
}
