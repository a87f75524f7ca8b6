#![warn(missing_docs)]

//! # kylix-bench
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§VII), each exposing a function that *runs* the
//! experiment (on the virtual-time simulator and/or the analytic
//! models) and returns structured rows. The `figures` binary prints
//! them; the crate's tests pin the qualitative shapes the paper reports
//! (who wins, roughly by how much, what is monotone).
//!
//! The comparators the paper measures Kylix against are tools of this
//! evaluation, not part of the system, so they are private here: the
//! PowerGraph-style GAS engine (`powergraph`) and the Hadoop/Pegasus
//! cost model (`hadoop`) behind [`fig8`], the dense ring allreduce's
//! wire volume inside [`ablation`], and the tree allreduce of Fig. 1(a)
//! (`tree`), which only its tests run. Direct all-to-all and the binary
//! butterfly of Fig. 6 are plans of the Kylix engine itself:
//! `kylix::NetworkPlan::{direct, binary}`.
//!
//! ## Scaling discipline
//!
//! The paper's testbed held ~100 MB of reduced data per node; running
//! that through a simulator thousands of times is pointless when the
//! physics is scale-free. Every experiment therefore runs at a
//! configurable *scale divisor* `s`: dataset sizes shrink by `s`, and
//! all **time constants** of the NIC model (per-message overhead,
//! latency, per-message CPU) shrink by the same `s` while bandwidths
//! are unchanged — so every ratio the paper reports (packet size vs
//! minimum efficient size, overhead share vs wire share, compute vs
//! communication) is preserved exactly. [`scaling::scaled_nic`]
//! implements this; EXPERIMENTS.md documents it per experiment.

pub mod ablation;
pub mod fault_sweep;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod hadoop;
pub mod json;
pub mod merge;
mod powergraph;
pub mod scaling;
pub mod straggler;
pub mod table1;
#[cfg(test)]
mod tree;
pub mod workload;
