//! Replication-based fault tolerance (paper §V).
//!
//! The scheme: pick a replication factor `s`; physical node `p` plays
//! *logical* node `p mod m` (with `m = physical/s` logical nodes), every
//! replica holds the same data and runs the same protocol, every message
//! to logical node `j` is fanned out to all of `j`'s replicas, and every
//! receive becomes a **packet race** over the sender's replica set — the
//! first copy wins, the rest are discarded (§V.B). The protocol
//! completes unless *all* replicas of some node are dead; by the
//! birthday argument the expected number of random failures a 2×
//! replicated m-node network absorbs is ≈ √m.
//!
//! Implementation: [`ReplicatedComm`] wraps any physical communicator
//! and presents the *logical* cluster through the same `Comm` trait —
//! the entire Kylix stack (and the baselines, and the applications) run
//! replicated without a single code change. Racing inherits the
//! underlying communicator's `recv_any`: on the simulator the earliest
//! virtual delivery wins (absorbing latency jitter exactly as the paper
//! describes); on the thread cluster the first real arrival wins.

use bytes::Bytes;
use kylix_net::telemetry::RankTelemetry;
use kylix_net::{Comm, CommError, Tag};
use std::time::Duration;

/// A logical view of a replicated physical cluster.
pub struct ReplicatedComm<C: Comm> {
    inner: C,
    logical_size: usize,
    replication: usize,
}

impl<C: Comm> ReplicatedComm<C> {
    /// Wrap a physical communicator; the physical size must be an exact
    /// multiple of `replication`.
    pub fn new(inner: C, replication: usize) -> Self {
        assert!(replication >= 1, "replication factor must be >= 1");
        assert_eq!(
            inner.size() % replication,
            0,
            "physical size {} not divisible by replication {replication}",
            inner.size()
        );
        let logical_size = inner.size() / replication;
        Self {
            inner,
            logical_size,
            replication,
        }
    }

    /// The replication factor `s`.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Physical ranks hosting a logical node.
    pub fn replicas_of(&self, logical: usize) -> Vec<usize> {
        (0..self.replication)
            .map(|r| logical + r * self.logical_size)
            .collect()
    }

    /// Unwrap the physical communicator.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Borrow the physical communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Comm> Comm for ReplicatedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank() % self.logical_size
    }

    fn size(&self) -> usize {
        self.logical_size
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        debug_assert!(to < self.logical_size);
        // Fan out to every replica; `Bytes` clones are refcounted, not
        // copied.
        for r in 0..self.replication {
            self.inner
                .send(to + r * self.logical_size, tag, payload.clone());
        }
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        let physical: Vec<usize> = sources.iter().flat_map(|&s| self.replicas_of(s)).collect();
        let (winner, payload) = self
            .inner
            .recv_any_timeout(&physical, tag, timeout)
            .map_err(|e| match e {
                CommError::TimeoutAny { tag, .. } => CommError::TimeoutAny {
                    sources: sources.to_vec(),
                    tag,
                },
                other => other,
            })?;
        let logical = winner % self.logical_size;
        // Cancel the winner's sibling copies (the paper's cancelled
        // listener threads, §V.B) — without this every race leaks
        // `s - 1` payloads into the receive stash for the rest of the
        // run. Only the winner's own siblings: the other logical
        // sources may still be claimed by a later receive.
        let losers: Vec<usize> = self
            .replicas_of(logical)
            .into_iter()
            .filter(|&r| r != winner)
            .collect();
        self.inner.discard(&losers, tag);
        Ok((logical, payload))
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        let physical: Vec<usize> = sources.iter().flat_map(|&s| self.replicas_of(s)).collect();
        self.inner.discard(&physical, tag);
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
    use kylix_net::{LocalCluster, Phase};

    fn t(seq: u32) -> Tag {
        Tag::new(Phase::App, 0, seq)
    }

    #[test]
    fn logical_addressing() {
        // 6 physical ranks, s=2 -> 3 logical nodes.
        let out = LocalCluster::run(6, |comm| {
            let rc = ReplicatedComm::new(comm, 2);
            (rc.rank(), rc.size())
        });
        assert_eq!(out[0], (0, 3));
        assert_eq!(out[4], (1, 3));
        assert_eq!(out[5], (2, 3));
    }

    #[test]
    fn replicated_ping_reaches_all_replicas() {
        let out = LocalCluster::run(4, |comm| {
            let mut rc = ReplicatedComm::new(comm, 2);
            match rc.inner().rank() {
                0 => {
                    rc.send(1, t(0), Bytes::from_static(b"hi"));
                    None
                }
                1 | 3 => Some(rc.recv(0, t(0)).unwrap().to_vec()),
                _ => None,
            }
        });
        // Both replicas of logical 1 (physical 1 and 3) got the copy.
        assert_eq!(out[1].as_deref(), Some(b"hi".as_ref()));
        assert_eq!(out[3].as_deref(), Some(b"hi".as_ref()));
    }

    #[test]
    fn racing_survives_dead_sender_replica() {
        // Physical 0 (replica 0 of logical 0) is dead; replica 1
        // (physical 2) still serves logical 0's message.
        let out = LocalCluster::run_with_failures(4, &[0], |comm| {
            let mut rc = ReplicatedComm::new(comm, 2);
            match rc.inner().rank() {
                2 => {
                    // Replica of logical 0 sends on its behalf.
                    rc.send(1, t(1), Bytes::from_static(b"alive"));
                    None
                }
                1 | 3 => Some(rc.recv(0, t(1)).unwrap().to_vec()),
                _ => None,
            }
        });
        assert_eq!(out[1].as_ref().unwrap().as_deref(), Some(b"alive".as_ref()));
        assert_eq!(out[3].as_ref().unwrap().as_deref(), Some(b"alive".as_ref()));
    }

    #[test]
    fn races_do_not_leak_stash() {
        // Regression: before discard GC, every replicated receive left
        // the losing replica's copy in the stash forever — O(rounds)
        // growth. Now the stash must stay empty and every registered
        // discard must be matched once the slower replica's copies all
        // arrive.
        const ROUNDS: u32 = 50;
        let out = LocalCluster::run(4, |comm| {
            let mut rc = ReplicatedComm::new(comm, 2);
            let phys = rc.inner().rank();
            for round in 0..ROUNDS {
                match phys {
                    0 | 2 => rc.send(1, t(round), Bytes::from_static(b"ping")),
                    _ => {
                        rc.recv(0, t(round)).unwrap();
                    }
                }
            }
            let mut c = rc.into_inner();
            // Losing copies from the slower replica may still be in
            // flight; keep draining (via a receive that cannot match)
            // until each pending discard has consumed its arrival.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while c.pending_discard_len() > 0 && std::time::Instant::now() < deadline {
                let _ = c.recv_timeout(0, t(u32::MAX), Duration::from_millis(1));
            }
            (c.stash_len(), c.pending_discard_len())
        });
        for &rank in &[1usize, 3] {
            let (stash, pending) = out[rank];
            assert_eq!(stash, 0, "rank {rank}: losing copies must be collected");
            assert_eq!(pending, 0, "rank {rank}: every discard must be matched");
        }
    }

    #[test]
    fn replicas_of_is_consistent() {
        let comms = kylix_net::ThreadComm::make_cluster(8);
        let rc = ReplicatedComm::new(comms.into_iter().next().unwrap(), 4);
        assert_eq!(rc.size(), 2);
        assert_eq!(rc.replicas_of(0), vec![0, 2, 4, 6]);
        assert_eq!(rc.replicas_of(1), vec![1, 3, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_replication_panics() {
        let comms = kylix_net::ThreadComm::make_cluster(5);
        let _ = ReplicatedComm::new(comms.into_iter().next().unwrap(), 2);
    }
}
