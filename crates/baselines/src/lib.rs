#![warn(missing_docs)]

//! # kylix-baselines
//!
//! Every comparator the paper measures Kylix against, implemented (or,
//! where the original is a full external system, modelled) from scratch:
//!
//! * [`direct`] — documents **direct all-to-all** (§II.A.2), the
//!   topology used by PowerGraph/Hadoop/Spark-style systems, and the
//!   packet-size pathology that motivates the paper. It is the one-layer
//!   Kylix plan `kylix::NetworkPlan::direct(m)`, not a separate engine.
//! * [`tree`] — **tree allreduce** (§II.A.1), implemented to demonstrate
//!   why it is hopeless for sparse data: intermediate unions grow toward
//!   fully dense at the root.
//! * [`ring`] — the wire volume of a dense ring allreduce
//!   (reduce-scatter + allgather), the scientific-computing classic the
//!   paper distinguishes itself from in §VIII; its cost is independent
//!   of sparsity.
//! * [`powergraph`] — a simplified PowerGraph-style **GAS engine**
//!   (vertex cut over random edge partitions, mirror→master gather,
//!   master→mirror scatter, all direct all-to-all), used for the Fig. 8
//!   system comparison.
//! * [`hadoop`] — a calibrated **Hadoop/Pegasus cost model** (the paper
//!   itself estimates Pegasus runtimes by linear scaling, §VII.D; we do
//!   the same, with the calibration documented).
//!
//! The paper's two butterfly comparators of Fig. 6, direct all-to-all
//! (`[m]`) and the binary butterfly (`[2, 2, …, 2]`), are plans of the
//! Kylix engine itself: `kylix::NetworkPlan::{direct, binary}`.

pub mod direct;
pub mod hadoop;
pub mod powergraph;
pub mod ring;
pub mod tree;

pub use hadoop::HadoopModel;
pub use powergraph::GasEngine;
pub use tree::tree_allreduce;
