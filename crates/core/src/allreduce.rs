//! The public sparse-allreduce API.
//!
//! A [`Kylix`] value is a topology (a [`NetworkPlan`]) ready to run
//! collectives over any communicator. Two usage styles mirror the
//! paper's §III:
//!
//! * **configure once, reduce many** — graph workloads (PageRank,
//!   components, …) whose in/out vertex sets are fixed across
//!   iterations: call [`Kylix::configure`] once, then
//!   [`crate::Configured::reduce`] every iteration.
//! * **combined** — minibatch workloads whose feature sets change every
//!   step: [`Kylix::allreduce_combined`] carries values with the
//!   configuration messages in a single down pass.
//!
//! ```
//! use kylix::{Kylix, NetworkPlan};
//! use kylix_net::{Comm, LocalCluster};
//! use kylix_sparse::SumReducer;
//!
//! // 4 nodes, 2x2 butterfly; node i contributes 1.0 at indices {i, i+1}
//! // and asks for index {i}.
//! let results = LocalCluster::run(4, |mut comm| {
//!     let me = comm.rank() as u64;
//!     let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
//!     let out = [me, me + 1];
//!     let vals = [1.0f64, 1.0];
//!     let (got, _state) = kylix
//!         .allreduce_combined(&mut comm, &[me], &out, &vals, SumReducer, 0)
//!         .unwrap();
//!     got[0]
//! });
//! // Index i is contributed by node i and node i-1 (except index 0).
//! assert_eq!(results, vec![1.0, 2.0, 2.0, 2.0]);
//! ```

use crate::config::{run_down_pass, Configured};
use crate::error::Result;
use crate::plan::NetworkPlan;
use crate::reduce::record_op;
use kylix_net::Comm;
use kylix_sparse::{Reducer, Scalar, SumReducer};

/// A sparse allreduce over a nested heterogeneous-degree butterfly.
#[derive(Debug, Clone)]
pub struct Kylix {
    plan: NetworkPlan,
}

impl Kylix {
    /// Create an allreduce instance over the given topology.
    pub fn new(plan: NetworkPlan) -> Self {
        Self { plan }
    }

    /// The topology.
    pub fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// Run the configuration pass (paper §III.A): every rank declares
    /// the indices it wants to receive (`in_indices`) and the indices it
    /// will contribute (`out_indices`); the returned state can issue any
    /// number of [`Configured::reduce`] calls.
    ///
    /// `channel` namespaces this collective's message tags: concurrent
    /// or back-to-back instances on the same communicator must use
    /// channel ids spaced by more than the number of reduce operations
    /// they will issue (each reduce consumes one sequence number).
    pub fn configure<C: Comm>(
        &self,
        comm: &mut C,
        in_indices: &[u64],
        out_indices: &[u64],
        channel: u32,
    ) -> Result<Configured> {
        run_down_pass::<C, f64, _>(
            comm,
            &self.plan,
            channel,
            in_indices,
            out_indices,
            None,
            SumReducer,
        )
        .map(|(configured, _)| configured)
    }

    /// Configuration and reduction in one combined down pass plus an up
    /// pass (paper §III: minibatch mode). Returns the reduced values
    /// aligned with `in_indices`, and the configured state (reusable if
    /// the same sets recur).
    pub fn allreduce_combined<C, V, R>(
        &self,
        comm: &mut C,
        in_indices: &[u64],
        out_indices: &[u64],
        out_values: &[V],
        reducer: R,
        channel: u32,
    ) -> Result<(Vec<V>, Configured)>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        let t0 = comm.now();
        let (mut configured, mut scratch) = run_down_pass(
            comm,
            &self.plan,
            channel,
            in_indices,
            out_indices,
            Some(out_values),
            reducer,
        )?;
        let mut result = Vec::with_capacity(in_indices.len());
        configured.finish_op(comm, reducer, channel, &mut scratch, &mut result)?;
        // The pooled buffers stay on the state for later reduce calls.
        configured.scratch.put(scratch);
        record_op(comm, t0);
        Ok((result, configured))
    }
}
