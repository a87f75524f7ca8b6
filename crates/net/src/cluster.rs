//! In-process cluster runner: one OS thread per rank.
//!
//! [`LocalCluster::run`] spawns `m` node threads, hands each its
//! [`crate::ThreadComm`] endpoint, and collects per-rank results. The
//! failure-injection variant simply *does not run* the dead ranks — their
//! endpoints are dropped, so traffic addressed to them disappears and a
//! receive from them fails with `Closed`, exactly as a closed socket
//! does on `TcpComm`. That is the failure model of the paper's §V
//! (crashed machines stop talking; they do not babble).

use crate::fault::{ChaosComm, FaultPlan};
use crate::thread_comm::ThreadComm;
use kylix_telemetry::Telemetry;
use std::thread;

/// Run `f` on every endpoint, one scoped OS thread each; returns the
/// results indexed by rank. A panicking node thread propagates.
pub(crate) fn run_each<C, R, F>(comms: Vec<C>, f: F) -> Vec<R>
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

/// Entry points for running closures as an in-process cluster.
pub struct LocalCluster;

impl LocalCluster {
    /// Run `f(rank's comm)` on `m` concurrent node threads; returns each
    /// rank's result, indexed by rank.
    ///
    /// Panics in any node thread propagate (the run is a test/bench
    /// harness; a panicking protocol is a bug, not a tolerated fault —
    /// tolerated faults are injected with [`LocalCluster::run_with_failures`]).
    pub fn run<R, F>(m: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        run_each(ThreadComm::make_cluster(m), f)
    }

    /// [`LocalCluster::run`] with a telemetry instance attached: each
    /// rank's endpoint records sends, deliveries, and stash parks into
    /// `tel.rank(r)` (wall-clock flavour — pair with
    /// `Telemetry::new(m, Clock::Wall)`).
    pub fn run_with_telemetry<R, F>(m: usize, tel: &Telemetry, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        run_each(ThreadComm::make_cluster_with_telemetry(m, tel), f)
    }

    /// Run every rank behind a [`ChaosComm`] applying `plan` — lossy
    /// links, duplicates, corruption, delays, and mid-run crashes, all
    /// deterministic in the plan's seed. Unlike
    /// [`LocalCluster::run_with_failures`], crashed ranks *do* run
    /// until their crash event fires. The crash drops the rank's
    /// endpoint, so its peers see it closed at once, as if its closure
    /// had returned, while the closure itself runs on and gets
    /// `CommError::Crashed` from every later receive.
    pub fn run_with_faults<R, F>(m: usize, plan: &FaultPlan, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(ChaosComm<ThreadComm>) -> R + Sync,
    {
        run_each(ThreadComm::make_cluster(m), |c| {
            f(ChaosComm::new(c, plan.clone()))
        })
    }

    /// [`LocalCluster::run_with_faults`] with telemetry attached: the
    /// underlying endpoints count real wire traffic (post-fault), and
    /// the chaos/reliable wrappers stacked above record their own
    /// counters into the same per-rank shards.
    pub fn run_with_faults_telemetry<R, F>(
        m: usize,
        plan: &FaultPlan,
        tel: &Telemetry,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(ChaosComm<ThreadComm>) -> R + Sync,
    {
        run_each(ThreadComm::make_cluster_with_telemetry(m, tel), |c| {
            f(ChaosComm::new(c, plan.clone()))
        })
    }

    /// Run with the given ranks dead from the start. Dead ranks yield
    /// `None`; their endpoints are dropped so messages to them vanish
    /// and receives from them fail with `Closed`.
    pub fn run_with_failures<R, F>(m: usize, dead: &[usize], f: F) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(ThreadComm) -> R + Sync,
    {
        let comms = ThreadComm::make_cluster(m);
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    if dead.contains(&rank) {
                        None
                    } else {
                        Some(s.spawn(|| f(comm)))
                    }
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("node thread panicked")))
                .collect()
        })
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
        let out = LocalCluster::run_with_failures(4, &[2], |mut c| {
            // Everyone (alive) sends to rank 2; nobody waits on it.
            let t = Tag::new(Phase::App, 0, 0);
            c.send(2, t, Bytes::from_static(b"hello?"));
            c.rank()
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
    fn run_with_faults_crashes_mid_protocol() {
        use crate::comm::CommError;
        use std::time::Duration;
        // Rank 1 crashes on its second comm operation: its first send
        // lands, its second does not, and every rank keeps running.
        let plan = FaultPlan::new(11).crash_after_ops(1, 2);
        let out = LocalCluster::run_with_faults(3, &plan, |mut c| {
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
