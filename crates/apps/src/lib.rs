#![warn(missing_docs)]

//! # kylix-apps
//!
//! The distributed graph-mining and machine-learning applications the
//! paper motivates Kylix with (§I.A), each built on the sparse-allreduce
//! primitive and checked against a sequential reference:
//!
//! * [`matrix`] — an edge-partitioned distributed sparse matrix with
//!   local index compaction; its column set is an allreduce *in* set,
//!   its row set an *out* set (§I.A.2).
//! * [`pagerank`] — the paper's benchmark application (Fig. 8/9):
//!   repeated sparse matrix–vector multiply with per-iteration
//!   compute/communication timing breakdowns.
//! * [`components`] — connected components by min-label propagation
//!   (§I.A.2's "connected components … can be computed from such
//!   matrix-vector products").
//! * [`bfs`] — level-synchronous breadth-first search with a min
//!   reducer.
//! * [`diameter`] — HADI-style effective-diameter estimation with
//!   Flajolet–Martin bitstrings and an OR reducer (§I.A.2, ref.\ 13).
//! * [`sgd`] — mini-batch logistic regression: model features live at
//!   home machines, every batch fetches weights and pushes gradients
//!   through combined-mode allreduces whose index sets change each step
//!   (§I.A.1).
//!
//! Each application runs in a paper figure (`pagerank` in Figs. 8 and 9)
//! or an example, and the root suite's `apps_cross_substrate` test runs
//! each one on the simulator, over TCP or under replication.

pub mod bfs;
pub mod components;
pub mod diameter;
pub mod matrix;
pub mod pagerank;
pub mod sgd;

pub use matrix::DistMatrix;
pub use pagerank::{distributed_pagerank, PageRankConfig, PageRankOutcome};
