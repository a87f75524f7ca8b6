#![warn(missing_docs)]

//! # kylix-powerlaw
//!
//! Statistical models of power-law ("natural graph") data and synthetic
//! workload generators for the Kylix reproduction.
//!
//! The paper's network-design workflow (§IV) rests on one observation:
//! for power-law data, the frequency of the rank-`r` feature is well
//! modelled as `Poisson(λ · r^{-α})`, so the *density* of a sparse vector
//! (fraction of features present) is a closed-form function of the
//! scaling factor λ:
//!
//! ```text
//! D = f(λ) = (1/n) Σ_{r=1..n} (1 − exp(−λ r^{-α}))        (Prop. 4.1)
//! ```
//!
//! When `K` nodes' partitions are summed, the rate scales to `K·λ`, so
//! walking a butterfly network down its layers just walks `λ` up this
//! curve — that is the whole design workflow, reproduced in
//! [`density::DensityModel`].
//!
//! Modules:
//! * [`density`] — `f(λ)`, its inverse, per-layer densities and expected
//!   message sizes (Prop. 4.1; paper Figs. 4 and 5).
//! * [`zipf`] — O(1) power-law rank sampler (continuous inverse-CDF,
//!   discretised) for building synthetic edges and feature draws.
//! * [`generator`] — sparse power-law vector generators (per-node
//!   partitions with a given α and density).
//! * [`graph`] — synthetic power-law graph generation, CSR assembly, and
//!   random edge partitioning (the partitioning scheme the paper uses).
//! * [`datasets`] — scaled-down stand-ins for the paper's Twitter
//!   follower graph and Yahoo! Altavista web graph, calibrated to the
//!   measured per-partition densities (0.21 and 0.035 at 64 nodes).

pub mod datasets;
pub mod density;
pub mod generator;
pub mod graph;
pub mod zipf;

pub use datasets::DatasetSpec;
pub use density::DensityModel;
pub use generator::PartitionGenerator;
pub use graph::{Csr, EdgeList};
pub use zipf::Zipf;
