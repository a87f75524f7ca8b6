//! One runner over the three substrates.
//!
//! The protocol runs unchanged on the virtual-time simulator, on
//! in-process threads and over loopback TCP. [`Substrate`] names one of
//! them, and [`Substrate::run`] runs a closure on every rank of a
//! cluster there. The closure gets an [`AnyComm`], one concrete type
//! over the three endpoints, so a test that covers every substrate is
//! one body looped over [`Substrate::all`].
//!
//! The runner has no other knobs. A fault is a `kylix_net::ChaosComm`
//! the closure wraps around its endpoint, and a rank that is dead from
//! the start is a closure that returns at once: its endpoint drops and
//! its peers drain an EOF, the one death every substrate has.

use crate::{NicModel, SimCluster, SimComm};
use bytes::Bytes;
use kylix_net::cluster::run_each;
use kylix_net::telemetry::{Clock, RankTelemetry, Telemetry};
use kylix_net::{Comm, CommError, RawComm, RawMessage, Tag, TcpCluster, TcpComm, ThreadComm};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Where a cluster runs.
#[derive(Debug, Clone, Copy)]
pub enum Substrate {
    /// The virtual-time simulator.
    Sim {
        /// The NIC and CPU cost model of every node.
        nic: NicModel,
        /// The jitter seed.
        seed: u64,
    },
    /// One OS thread per rank over in-process channels.
    Thread,
    /// One OS thread per rank over loopback TCP sockets.
    Tcp,
}

impl Substrate {
    /// Every substrate; the simulator's runs over `nic` with jitter
    /// seed `seed`.
    pub fn all(nic: NicModel, seed: u64) -> [Substrate; 3] {
        [
            Substrate::Sim { nic, seed },
            Substrate::Thread,
            Substrate::Tcp,
        ]
    }

    /// Run `f` on every rank of an `m`-rank cluster, one OS thread
    /// each. Returns the results indexed by rank, and the run's
    /// telemetry: on the virtual clock on the simulator, on the wall
    /// clock otherwise. A panicking rank propagates.
    pub fn run<R, F>(&self, m: usize, f: F) -> (Vec<R>, Arc<Telemetry>)
    where
        R: Send,
        F: Fn(AnyComm) -> R + Sync,
    {
        match *self {
            Substrate::Sim { nic, seed } => {
                let cluster = SimCluster::new(m, nic).seed(seed);
                let out = cluster.run_all(|c| f(AnyComm::Sim(c)));
                (out, Arc::clone(cluster.telemetry()))
            }
            Substrate::Thread => {
                let tel = Telemetry::new(m, Clock::Wall);
                let comms = ThreadComm::make_cluster_with_telemetry(m, &tel);
                (run_each(comms, |c| f(AnyComm::Thread(c))), tel)
            }
            Substrate::Tcp => {
                let tel = Telemetry::new(m, Clock::Wall);
                let comms = TcpCluster::make_cluster_with_telemetry(m, &tel);
                (run_each(comms, |c| f(AnyComm::Tcp(c))), tel)
            }
        }
    }
}

impl fmt::Display for Substrate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Substrate::Sim { .. } => "sim",
            Substrate::Thread => "thread",
            Substrate::Tcp => "tcp",
        })
    }
}

/// One rank's endpoint on any substrate.
pub enum AnyComm {
    /// A simulated rank.
    Sim(SimComm),
    /// A rank of an in-process thread cluster.
    Thread(ThreadComm),
    /// A rank of a loopback-TCP cluster.
    Tcp(TcpComm),
}

/// `$body` with `$c` bound to the endpoint inside `$comm`.
macro_rules! each {
    ($comm:expr, $c:ident => $body:expr) => {
        match $comm {
            AnyComm::Sim($c) => $body,
            AnyComm::Thread($c) => $body,
            AnyComm::Tcp($c) => $body,
        }
    };
}

impl AnyComm {
    /// Number of messages held in the endpoint's out-of-order stash.
    pub fn stash_len(&self) -> usize {
        each!(self, c => c.stash_len())
    }
}

// Every method any of the three endpoints overrides is forwarded, so
// no arm falls back to a trait default.
impl Comm for AnyComm {
    fn rank(&self) -> usize {
        each!(self, c => c.rank())
    }

    fn size(&self) -> usize {
        each!(self, c => c.size())
    }

    fn send(&mut self, to: usize, tag: Tag, payload: Bytes) {
        each!(self, c => c.send(to, tag, payload))
    }

    fn recv_any_timeout(
        &mut self,
        sources: &[usize],
        tag: Tag,
        timeout: Duration,
    ) -> Result<(usize, Bytes), CommError> {
        each!(self, c => c.recv_any_timeout(sources, tag, timeout))
    }

    fn discard(&mut self, sources: &[usize], tag: Tag) {
        each!(self, c => c.discard(sources, tag))
    }

    fn now(&self) -> f64 {
        each!(self, c => c.now())
    }

    fn charge_compute(&mut self, seconds: f64) {
        each!(self, c => c.charge_compute(seconds))
    }

    fn telemetry(&self) -> Option<&RankTelemetry> {
        each!(self, c => c.telemetry())
    }
}

impl RawComm for AnyComm {
    fn recv_raw_timeout(&mut self, timeout: Duration) -> Result<Option<RawMessage>, CommError> {
        each!(self, c => c.recv_raw_timeout(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::tag::count;
    use kylix_net::telemetry::Counter;
    use kylix_net::Phase;

    fn tag(seq: u32) -> Tag {
        Tag::new(Phase::App, 0, seq)
    }

    /// Ranks 0 and 1 are replicas sending rank 2 the same message; each
    /// rank charges compute and files an own part. Rank 2 races the
    /// replicas and discards the loser's copy, as a `ReplicatedComm`
    /// receive does, then takes a later message from each replica, so
    /// the loser's copy has surely arrived. Its stash is then empty
    /// only if the discard reached the endpoint.
    fn race<C: Comm>(mut c: C) -> C {
        let me = c.rank();
        c.charge_compute(1e-3 * (me + 1) as f64);
        count(
            c.telemetry(),
            tag(0),
            Counter::SelfBytes,
            8 * (me + 1) as u64,
        );
        if me < 2 {
            c.send(2, tag(0), Bytes::from(vec![me as u8; 64]));
            c.send(2, tag(1), Bytes::from_static(b"later"));
        } else {
            let (winner, _) = c.recv_any(&[0, 1], tag(0)).unwrap();
            c.discard(&[1 - winner], tag(0));
            for src in [0, 1] {
                c.recv(src, tag(1)).unwrap();
            }
        }
        c
    }

    /// Each rank's virtual time, as bits, and stash length after [`race`].
    fn raced<C: Comm>(c: C, stash_len: impl Fn(&C) -> usize) -> (u64, usize) {
        let c = race(c);
        (c.now().to_bits(), stash_len(&c))
    }

    #[test]
    fn any_comm_forwards_every_overridden_method() {
        let (nic, seed) = (NicModel::ec2_10g(), 7);
        let (via_any, any_tel) =
            Substrate::Sim { nic, seed }.run(3, |c| raced(c, AnyComm::stash_len));
        let cluster = SimCluster::new(3, nic).seed(seed);
        let direct = cluster.run_all(|c| raced(c, SimComm::stash_len));
        assert_eq!(via_any, direct, "sim: virtual times and stashes");
        assert_eq!(via_any[2].1, 0, "sim: the loser's copy is discarded");
        let (a, b) = (any_tel.report(), cluster.telemetry().report());
        for (rank, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
            assert_eq!(x.counters, y.counters, "sim: rank {rank}'s counters");
        }
        let (stashes, _) = Substrate::Thread.run(3, |c| race(c).stash_len());
        assert_eq!(stashes, [0, 0, 0], "thread: the loser's copy is discarded");
    }
}
