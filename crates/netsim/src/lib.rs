#![warn(missing_docs)]

//! # kylix-netsim
//!
//! A virtual-time simulator of a commodity cluster network — the
//! stand-in for the paper's 64-node Amazon EC2 (cc2.8xlarge, 10 Gb/s
//! Ethernet) testbed.
//!
//! ## Why simulate
//!
//! Every timing result in the paper (Figs. 2, 6, 7, 8, 9 and Table I) is
//! a *communication-cost* phenomenon: fixed per-message overhead makes
//! small packets inefficient (Fig. 2), which penalises direct all-to-all
//! topologies whose packet size shrinks as `1/m²` (Fig. 6), while
//! per-message CPU work divides across receive workers (Fig. 7) and
//! replica "packet racing" absorbs latency outliers (Table I). All of
//! those follow from a small cost model, which this crate implements and
//! the experiment harness calibrates to the paper's published curve.
//!
//! ## How it works
//!
//! The protocol code (written against `kylix_net::Comm`) runs for real on
//! one thread per simulated node; only *time* is virtual. Each node keeps
//! a local virtual clock, a NIC-free time, and a pool of receive-worker
//! free times. A send stamps its message with a delivery time computed
//! from the sender's state and the [`nic::NicModel`]; a receive advances
//! the receiver's clock to the message's processed-at time. Because
//! every timestamp is computed deterministically (jitter is hashed from
//! `(seed, src, dst, seq)`), a run is bit-reproducible regardless of OS
//! scheduling — a property the tests assert.
//!
//! This is the classic "timestamp piggybacking" conservative simulation:
//! no global event queue is needed because a message's delivery time is
//! fully determined at send time, and selective receives impose program
//! order on the receive side.
//!
//! Modules:
//! * [`nic`] — the LogGP-style NIC/link cost model and EC2 presets.
//! * [`simcomm`] — [`simcomm::SimComm`] (implements `Comm`) and
//!   [`simcomm::SimCluster`] (thread-per-node runner). Every count a
//!   run makes, and the message events of a traced run, land in the
//!   cluster's `kylix_telemetry` instance.
//! * [`substrate`] — [`Substrate`], the one runner over the simulator,
//!   in-process threads and loopback TCP, and [`AnyComm`], the endpoint
//!   its closure gets on any of them.
//! * [`throughput`] — effective-throughput curves (Fig. 2) both closed
//!   form and measured through the simulator.

pub mod nic;
pub mod simcomm;
pub mod substrate;
pub mod throughput;

pub use nic::NicModel;
pub use simcomm::{SimCluster, SimComm};
pub use substrate::{AnyComm, Substrate};
