//! Scalar collectives over the sparse allreduce.
//!
//! Iterative algorithms need tiny control-plane reductions — "how many
//! labels changed anywhere this round?", "what is the global norm?" —
//! alongside their data-plane traffic. Rather than a separate
//! mechanism, these ride the same primitive: a one-index sparse
//! allreduce where every node contributes at, and requests, a single
//! sentinel index. [`ScalarCollective`] configures that once and then
//! reduces one scalar per call.

use crate::allreduce::Kylix;
use crate::config::Configured;
use crate::error::Result;
use crate::plan::NetworkPlan;
use kylix_net::Comm;
use kylix_sparse::{Reducer, Scalar};

/// A reusable one-value collective over a butterfly plan.
pub struct ScalarCollective {
    state: Configured,
}

impl ScalarCollective {
    /// Configure the collective. `channel` must be disjoint from other
    /// collectives on the communicator (spaced past the number of
    /// `reduce` calls, as with [`Kylix::configure`]).
    pub fn new<C: Comm>(comm: &mut C, plan: &NetworkPlan, channel: u32) -> Result<Self> {
        let kylix = Kylix::new(plan.clone());
        let state = kylix.configure(comm, &[0u64], &[0u64], channel)?;
        Ok(Self { state })
    }

    /// Reduce one value across all nodes with the given operator.
    pub fn reduce<C, V, R>(&mut self, comm: &mut C, value: V, reducer: R) -> Result<V>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        Ok(self.state.reduce(comm, &[value], reducer)?[0])
    }

    /// Logical-or across nodes (any node true ⇒ all true), encoded as
    /// a `u64` sum being nonzero.
    pub fn any<C: Comm>(&mut self, comm: &mut C, flag: bool) -> Result<bool> {
        Ok(self.reduce(comm, flag as u64, kylix_sparse::SumReducer)? != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::LocalCluster;
    use kylix_sparse::{MaxReducer, MinReducer, SumReducer};

    #[test]
    fn sum_across_nodes() {
        let out = LocalCluster::run(6, |mut comm| {
            let me = kylix_net::Comm::rank(&comm) as f64;
            let plan = NetworkPlan::new(&[3, 2]);
            let mut coll = ScalarCollective::new(&mut comm, &plan, 0).unwrap();
            coll.reduce(&mut comm, me, SumReducer).unwrap()
        });
        assert!(out.iter().all(|&s| s == 15.0));
    }

    #[test]
    fn repeated_reductions_with_min_max() {
        let out = LocalCluster::run(4, |mut comm| {
            let plan = NetworkPlan::new(&[2, 2]);
            let mut coll = ScalarCollective::new(&mut comm, &plan, 0).unwrap();
            let me = kylix_net::Comm::rank(&comm) as u64 + 10;
            let mn = coll.reduce(&mut comm, me, MinReducer).unwrap();
            let mx = coll.reduce(&mut comm, me, MaxReducer).unwrap();
            (mn, mx)
        });
        assert!(out.iter().all(|&(mn, mx)| mn == 10 && mx == 13));
    }

    #[test]
    fn any_flags_propagate() {
        let out = LocalCluster::run(4, |mut comm| {
            let plan = NetworkPlan::direct(4);
            let mut coll = ScalarCollective::new(&mut comm, &plan, 0).unwrap();
            let me = kylix_net::Comm::rank(&comm);
            let some = coll.any(&mut comm, me == 2).unwrap();
            let none = coll.any(&mut comm, false).unwrap();
            (some, none)
        });
        assert!(out.iter().all(|&(s, n)| s && !n));
    }
}
