#![warn(missing_docs)]

//! # kylix-sparse
//!
//! Foundation data structures for the Kylix sparse allreduce
//! (Zhao & Canny, *Kylix: A Sparse Allreduce for Commodity Clusters*,
//! ICPP 2014).
//!
//! Everything in Kylix revolves around **sorted sparse index sets**: each
//! cluster node holds a set of feature indices (the non-zeros of its share
//! of a distributed vector) kept in a canonical order, and the network
//! protocol repeatedly *partitions* those sets into contiguous hash ranges,
//! *merges* sets arriving from butterfly neighbours, and *scatters/gathers*
//! value vectors through position maps built during the merge.
//!
//! This crate provides those primitives:
//!
//! * [`hash`] — the splitmix64 finaliser used to spread power-law keys
//!   uniformly over the partitioning space, plus a small deterministic
//!   PRNG ([`hash::SplitMix64`], [`hash::Xoshiro256`]) used throughout the
//!   workspace so every experiment is reproducible without external
//!   dependencies.
//! * [`key`] — [`key::Key`], an index tagged with its partition hash; sets
//!   are ordered by `(hash, index)` so equal-size *hash ranges* carry
//!   balanced load even on heavily skewed (power-law) index distributions
//!   (paper §III.A: "the original indices are hashed to the values used
//!   for partitioning").
//! * [`index_set`] — [`index_set::IndexSet`], a sorted, deduplicated set of
//!   keys with range splitting by binary search.
//! * [`merge`] — two-way and k-way **tree merge** kernels (paper §VI.A)
//!   producing the union together with the position maps `f`/`g` used for
//!   constant-time scatter-add and gather during reduction.
//! * [`range`] — contiguous half-open ranges of the 64-bit hash space and
//!   their equal subdivision, the basis of the nested partitioning.
//! * <code>vec</code> — the scatter/gather kernels driven by position maps.
//! * [`reducer`] — the [`reducer::Reducer`] trait (sum / min / max / or)
//!   and the [`reducer::Scalar`] byte-codec trait for values travelling
//!   through the network.

pub mod hash;
pub mod index_set;
pub mod key;
pub mod merge;
pub mod range;
pub mod reducer;
pub mod vec;

pub use hash::{mix64, mix_many, SplitMix64, Xoshiro256};
pub use index_set::IndexSet;
pub use key::Key;
pub use merge::{merge_union, tree_merge, MergeResult};
pub use range::HashRange;
pub use reducer::{BitOrReducer, MaxReducer, MinReducer, Reducer, Scalar, SumReducer};
