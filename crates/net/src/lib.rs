#![warn(missing_docs)]

//! # kylix-net
//!
//! Message-passing substrate for the Kylix reproduction.
//!
//! The original Kylix is "modular and can be run self-contained … it does
//! not require an underlying distributed middleware like Hadoop or MPI"
//! (paper §I.B) — it talks plain Java sockets. This crate plays that
//! role: a deliberately small, MPI-free communicator abstraction
//! ([`comm::Comm`]) whose one receive is a *race*: the first message
//! with a tag from any of a set of candidate sources, buffering
//! whatever else arrives in a [`mailbox::Mailbox`]. A selective receive
//! (by source and tag) is the race with one candidate. A real
//! in-process cluster ([`cluster::LocalCluster`]) runs one OS thread
//! per node over the in-house unbounded [`channel`].
//!
//! Three implementations of [`comm::Comm`] exist in the workspace:
//!
//! * [`thread_comm::ThreadComm`] (here) — real concurrent execution over
//!   in-process channels, wall-clock time; used for correctness tests
//!   and real benches.
//! * [`tcp_comm::TcpComm`] (here) — real concurrent execution over
//!   loopback TCP sockets with length-prefixed frames ([`frame`]),
//!   exercising the OS network stack: kernel buffering, torn reads,
//!   connection teardown.
//! * `kylix-netsim`'s `SimComm` — the same protocol code running over a
//!   virtual-time NIC cost model of a commodity 10 Gb/s cluster; used to
//!   reproduce the paper's timing figures.
//!
//! The first two are one type, [`endpoint::Endpoint`], over two kinds
//! of [`endpoint::Link`]: they differ only in how a message reaches a
//! peer's funnel, and share one receive loop, the telemetry and the
//! dead-peer rule. On every substrate a receive from a dead rank fails
//! with [`CommError::Closed`] once nothing it sent is left to take.
//!
//! Because every protocol in the workspace is written against the trait,
//! the *identical* code path is exercised all three ways, and the
//! differential test suite demands identical reduction results and
//! send-side telemetry from each substrate.
//!
//! ## Faults and reliability
//!
//! Commodity clusters misbehave, and this crate makes that misbehaviour
//! an injectable, reproducible input:
//!
//! * [`fault::FaultPlan`] — a seeded, fully deterministic description
//!   of per-link drop/duplicate/corrupt/delay probabilities and
//!   per-node mid-run crashes;
//! * [`fault::ChaosComm`] — a wrapper applying a plan to any `Comm`;
//! * [`reliable::ReliableComm`] — acked, checksummed, retransmitting
//!   delivery that makes protocols complete over lossy links.
//!
//! The wrappers compose: `ReplicatedComm<ReliableComm<ChaosComm<…>>>`
//! survives node crashes *and* message loss at once.

pub mod channel;
pub mod checksum;
pub mod cluster;
pub mod comm;
pub mod endpoint;
pub mod fault;
pub mod frame;
pub mod mailbox;
pub mod reliable;
pub mod tag;
pub mod tcp_comm;
pub mod thread_comm;

pub use checksum::{checksum, Checksum};
pub use cluster::LocalCluster;
pub use comm::{Comm, CommError, PatienceComm, RawComm, RawMessage};
pub use fault::{ChaosComm, Crash, FaultPlan, LinkFaults};
pub use frame::{read_frame, write_frame, FrameError, FRAME_HEADER, MAX_FRAME_BYTES};
pub use mailbox::Mailbox;
pub use reliable::ReliableComm;
pub use tag::{Phase, Tag};
pub use tcp_comm::{TcpCluster, TcpComm};
pub use thread_comm::ThreadComm;

/// Re-export of the cross-substrate telemetry facility, so protocol
/// crates written against [`Comm`] can name counter kinds and build
/// [`telemetry::Telemetry`] instances without a separate dependency.
pub use kylix_telemetry as telemetry;
