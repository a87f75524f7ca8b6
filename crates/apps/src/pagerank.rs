//! Distributed PageRank over a sparse allreduce — the paper's benchmark
//! application (§I.A.2, Figs. 8 and 9).
//!
//! Wiring, per machine holding an edge share `Xᵢ`:
//!
//! * **in set** — the distinct *source* vertices of local edges (the
//!   columns of `Xᵢ`): the machine needs their current ranks.
//! * **out set** — the distinct *destination* vertices (rows): the
//!   machine contributes `Σ rank(src)/deg(src)` partial sums to them.
//!   Sources with no in-edges anywhere are requested but never
//!   contributed to; the allreduce serves them the sum identity (0),
//!   which is exactly their in-sum.
//!
//! Setup runs one extra sum-allreduce to aggregate global out-degrees
//! (each machine contributes its local edge counts per source vertex) —
//! the same primitive bootstrapping its own metadata.
//!
//! Every iteration is then a single [`kylix::Configured::reduce`] plus a
//! local damping update; the per-phase virtual/wall clocks are recorded
//! so the harness can reproduce the paper's compute/communication
//! breakdowns (Fig. 9).

use crate::matrix::DistMatrix;
use kylix::{Kylix, Result};
use kylix_net::Comm;
use kylix_sparse::SumReducer;

/// Tunables for a distributed PageRank run.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (the paper's `(n−1)/n` corresponds to ≈0.85-style
    /// damping; 0.85 is the conventional value we default to).
    pub damping: f64,
    /// Number of power iterations.
    pub iterations: usize,
    /// Simulated compute cost per local edge per iteration, seconds
    /// (charged through `Comm::charge_compute`; calibrated in
    /// EXPERIMENTS.md to the paper's 64-node compute share).
    pub compute_per_edge: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            iterations: 10,
            compute_per_edge: 4.0e-9,
        }
    }
}

/// One machine's outcome: final ranks for its in-vertices plus timing.
#[derive(Debug, Clone)]
pub struct PageRankOutcome {
    /// `(vertex, rank)` for every local in-vertex (distinct sources).
    pub ranks: Vec<(u64, f64)>,
    /// Time spent in the one-time configuration pass (seconds, in the
    /// communicator's clock domain).
    pub config_time: f64,
    /// Total time spent inside reduce calls.
    pub comm_time: f64,
    /// Total time spent in local compute (multiply + apply).
    pub compute_time: f64,
    /// Number of iterations executed.
    pub iterations: usize,
}

/// Run distributed PageRank on this machine's edge share.
///
/// All machines must call this collectively with the same `kylix`
/// topology, `n_vertices`, and config.
pub fn distributed_pagerank<C: Comm>(
    comm: &mut C,
    kylix: &Kylix,
    n_vertices: u64,
    local_edges: &[(u32, u32)],
    cfg: &PageRankConfig,
) -> Result<PageRankOutcome> {
    let share = DistMatrix::pagerank_share(local_edges);
    let srcs = share.col_indices();
    let dsts = share.row_indices();

    let t0 = comm.now();
    // Degree aggregation bootstraps on the same primitive: channel 0.
    // Sources with in-edges nowhere simply read identity (0 in-sum),
    // so no coverage padding is needed.
    let mut deg_state = kylix.configure(comm, &srcs, &srcs, 0)?;
    // Rank exchange uses a disjoint channel namespace, spaced past the
    // iteration count: contribute at rows (destinations), request
    // columns (sources).
    let mut state = kylix.configure(comm, &srcs, &dsts, 1 << 16)?;
    let config_time = comm.now() - t0;

    // Global out-degrees of local sources.
    let deg = deg_state.reduce(comm, &share.col_counts(), SumReducer)?;

    let mut comm_time = 0.0;
    let mut compute_time = 0.0;
    let n = n_vertices as f64;
    // Ranks of local in-vertices (sources), initialised uniformly.
    let mut rank: Vec<f64> = vec![1.0 / n; srcs.len()];

    for _ in 0..cfg.iterations {
        let c0 = comm.now();
        // Local multiply: partial sums at destinations.
        let x: Vec<f64> = rank
            .iter()
            .zip(&deg)
            .map(|(r, d)| if *d > 0.0 { r / d } else { 0.0 })
            .collect();
        let partial = share.multiply(&x);
        comm.charge_compute(cfg.compute_per_edge * share.nnz() as f64);
        let c1 = comm.now();
        compute_time += c1 - c0;

        let sums = state.reduce(comm, &partial, SumReducer)?;
        let c2 = comm.now();
        comm_time += c2 - c1;

        for (r, s) in rank.iter_mut().zip(&sums) {
            *r = (1.0 - cfg.damping) / n + cfg.damping * s;
        }
        comm.charge_compute(1.0e-9 * rank.len() as f64);
        compute_time += comm.now() - c2;
    }

    Ok(PageRankOutcome {
        ranks: srcs.into_iter().zip(rank).collect(),
        config_time,
        comm_time,
        compute_time,
        iterations: cfg.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::{Csr, EdgeList};

    fn check_against_reference(plan: NetworkPlan, m: usize, seed: u64) {
        let n = 300u64;
        let g = EdgeList::power_law(n, 3000, 1.1, 1.1, seed);
        let csr = Csr::from_edges(n, &g.edges);
        let cfg = PageRankConfig {
            damping: 0.85,
            iterations: 6,
            compute_per_edge: 0.0,
        };
        let expected = csr.pagerank_reference(cfg.iterations, cfg.damping);
        let parts = g.partition_random(m, seed + 1);
        let outcomes: Vec<PageRankOutcome> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(plan.clone());
            distributed_pagerank(&mut comm, &kylix, n, &parts[me].edges, &cfg).unwrap()
        });
        let mut checked = 0;
        for o in &outcomes {
            for &(v, r) in &o.ranks {
                assert!(
                    (r - expected[v as usize]).abs() < 1e-9,
                    "vertex {v}: {r} vs {} (plan {plan})",
                    expected[v as usize]
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn pagerank_matches_reference_on_butterfly() {
        check_against_reference(NetworkPlan::new(&[2, 2]), 4, 11);
    }

    #[test]
    fn pagerank_matches_reference_on_direct() {
        check_against_reference(NetworkPlan::direct(6), 6, 12);
    }

    #[test]
    fn pagerank_matches_reference_on_three_layers() {
        check_against_reference(NetworkPlan::new(&[2, 2, 2]), 8, 13);
    }

    #[test]
    fn replicas_agree_on_ranks() {
        use kylix::ReplicatedComm;
        let n = 120u64;
        let g = EdgeList::power_law(n, 1000, 1.0, 1.0, 21);
        let parts = g.partition_random(4, 3);
        let cfg = PageRankConfig {
            iterations: 4,
            ..Default::default()
        };
        let outcomes: Vec<Vec<(u64, f64)>> = LocalCluster::run(8, |comm| {
            let mut rc = ReplicatedComm::new(comm, 2);
            let me = rc.rank();
            let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
            distributed_pagerank(&mut rc, &kylix, n, &parts[me].edges, &cfg)
                .unwrap()
                .ranks
        });
        for logical in 0..4 {
            assert_eq!(
                outcomes[logical],
                outcomes[logical + 4],
                "replica divergence"
            );
        }
    }
}
