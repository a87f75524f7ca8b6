//! In-process cluster runner: one OS thread per rank.
//!
//! [`LocalCluster::run`] spawns `m` node threads, hands each its
//! [`crate::ThreadComm`] endpoint, and collects per-rank results;
//! [`run_each`] does the same for any set of endpoints. A rank dies
//! when its closure returns: its endpoint drops, so traffic addressed
//! to it disappears and a receive from it fails with `Closed`, exactly
//! as a closed socket does on `TcpComm`. A rank that is dead from the
//! start is a closure that returns at once. That is the failure model
//! of the paper's §V (crashed machines stop talking; they do not
//! babble). Faults are a [`crate::ChaosComm`] the closure wraps around
//! its endpoint. `kylix-netsim`'s `Substrate::run` is the same runner
//! over the simulator, threads or TCP, with telemetry attached.

use crate::thread_comm::ThreadComm;
use std::thread;

/// Run `f` on every endpoint, one scoped OS thread each; returns the
/// results indexed by rank. A panicking node thread propagates.
pub fn run_each<C, R, F>(comms: Vec<C>, f: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    thread::scope(|s| {
        let handles: Vec<_> = comms.into_iter().map(|comm| s.spawn(|| f(comm))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    })
}

/// Entry point for running closures as an in-process cluster.
pub struct LocalCluster;

impl LocalCluster {
    /// Run `f(rank's comm)` on `m` concurrent node threads; returns each
    /// rank's result, indexed by rank.
    ///
    /// Panics in any node thread propagate (the run is a test/bench
    /// harness; a panicking protocol is a bug, not a tolerated fault —
    /// tolerated faults are a [`crate::ChaosComm`] inside `f`).
    pub fn run<R, F>(m: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        run_each(ThreadComm::make_cluster(m), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::tag::{Phase, Tag};
    use bytes::Bytes;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = LocalCluster::run(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn ring_pass_sums_ranks() {
        // Each rank sends its rank to the next; sums received value.
        let m = 5;
        let out = LocalCluster::run(m, |mut c| {
            let t = Tag::new(Phase::App, 0, 0);
            let next = (c.rank() + 1) % m;
            let prev = (c.rank() + m - 1) % m;
            c.send(next, t, Bytes::from(vec![c.rank() as u8]));
            c.recv(prev, t).unwrap()[0] as usize
        });
        let total: usize = out.iter().sum();
        assert_eq!(total, (0..m).sum());
    }

    #[test]
    fn failures_leave_none_and_alive_proceed() {
        let out = LocalCluster::run(4, |mut c| {
            // Rank 2 is dead from the start; everyone alive sends to it,
            // and nobody waits on it.
            if c.rank() == 2 {
                return None;
            }
            let t = Tag::new(Phase::App, 0, 0);
            c.send(2, t, Bytes::from_static(b"hello?"));
            Some(c.rank())
        });
        assert_eq!(out[0], Some(0));
        assert_eq!(out[1], Some(1));
        assert_eq!(out[2], None);
        assert_eq!(out[3], Some(3));
    }

    #[test]
    fn single_rank_cluster() {
        let out = LocalCluster::run(1, |c| c.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn chaos_crash_mid_protocol() {
        use crate::comm::CommError;
        use crate::fault::{ChaosComm, FaultPlan};
        use std::time::Duration;
        // Rank 1 crashes on its second comm operation: its first send
        // lands, its second does not, and every rank keeps running.
        let plan = FaultPlan::new(11).crash_after_ops(1, 2);
        let out = LocalCluster::run(3, |c| {
            let mut c = ChaosComm::new(c, plan.clone());
            let t = Tag::new(Phase::App, 0, 0);
            let t2 = Tag::new(Phase::App, 0, 1);
            c.send(2, t, Bytes::from(vec![c.rank() as u8]));
            c.send(2, t2, Bytes::from(vec![c.rank() as u8]));
            if c.rank() == 2 {
                let a = c.recv_timeout(0, t, Duration::from_secs(5)).is_ok();
                let b = c.recv_timeout(1, t, Duration::from_secs(5)).is_ok();
                let c2 = c.recv_timeout(1, t2, Duration::from_millis(100)).is_ok();
                (a, b, c2, false)
            } else {
                // The crashed rank observes its own darkness.
                let dark = matches!(
                    c.recv_timeout(0, t2, Duration::from_millis(1)),
                    Err(CommError::Crashed { .. })
                );
                (true, true, true, dark)
            }
        });
        assert_eq!(out[2], (true, true, false, false));
        assert!(out[1].3, "rank 1 must observe its crash");
        assert!(!out[0].3, "rank 0 never crashes");
    }
}
