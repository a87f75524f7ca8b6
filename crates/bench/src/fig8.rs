//! Fig. 8 — PageRank per-iteration runtime across systems.
//!
//! The paper's log-scale comparison on 64 nodes: BIDMat+Kylix vs
//! PowerGraph vs Hadoop/Pegasus, on the Twitter follower graph and the
//! Yahoo web graph. Kylix lands 3–7× faster than PowerGraph and ~500×
//! faster than Hadoop.
//!
//! We reproduce it with:
//! * **kylix** — `kylix_apps::distributed_pagerank` on the paper's
//!   degrees, timed on the simulated cluster;
//! * **powergraph-style** — the crate's `powergraph` GAS engine
//!   (mirror→master→mirror direct all-to-all), same simulator, same
//!   graph, same per-edge compute charge;
//! * **hadoop/pegasus** — the crate's calibrated linear cost model
//!   (`hadoop`, the paper's own linear estimate of §VII.D) at the
//!   *full-scale* edge count (a fixed 30 s job overhead cannot be
//!   scaled down; that rigidity is precisely Hadoop's pathology).
//!
//! ### Calibration
//!
//! The NIC scale divisor is derived from the workload itself: the
//! paper reports ~0.4 MB direct-topology packets on Twitter@64, i.e.
//! ≈25.6 MB of exchanged state per node per pass; we measure the
//! scaled graph's actual per-node allreduce volume and divide the NIC
//! time constants so the simulated run sits at the identical
//! packet-size regime (64 MB/node for the Yahoo-like workload, as in
//! Figs. 5/6). Reported times are multiplied back by the same factor.

use crate::hadoop;
use crate::powergraph::GasEngine;
use crate::scaling::scaled_nic;
use kylix::{Kylix, NetworkPlan};
use kylix_apps::{distributed_pagerank, PageRankConfig};
use kylix_net::Comm;
use kylix_netsim::SimCluster;
use kylix_powerlaw::{DatasetSpec, EdgeList};

/// One bar of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset name.
    pub dataset: String,
    /// System name.
    pub system: String,
    /// Per-iteration runtime, full-scale seconds.
    pub seconds_per_iter: f64,
}

/// Per-edge compute charge (seconds) shared by both engines; see
/// `PageRankConfig::compute_per_edge`.
const COMPUTE_PER_EDGE: f64 = 4.0e-9;

/// Paper-regime per-node exchanged volume at 64 nodes, bytes
/// (Twitter: 64 × 0.4 MB packets; Yahoo as in Figs. 5/6).
pub fn paper_node_volume(dataset: &str) -> f64 {
    match dataset {
        "twitter-like" => 25.6e6,
        "yahoo-like" => 64.0e6,
        other => panic!("unknown dataset {other}"),
    }
}

/// Mean per-node allreduce volume (bytes of out-state) of a partitioned
/// graph — distinct sources + destinations at 8 B each.
pub fn measured_node_volume(parts: &[EdgeList]) -> f64 {
    let total: usize = parts
        .iter()
        .map(|p| p.distinct_dsts().len() + p.distinct_srcs().len())
        .sum();
    total as f64 * 8.0 / parts.len() as f64
}

/// The NIC scale divisor placing this workload at the paper's
/// packet-size regime.
pub fn nic_scale(dataset: &str, parts: &[EdgeList]) -> f64 {
    (paper_node_volume(dataset) / measured_node_volume(parts)).max(1.0)
}

/// Time Kylix PageRank: per-iteration makespan (excluding the one-time
/// configuration, as the paper reports per-iteration runtime).
fn time_kylix(
    spec: &DatasetSpec,
    parts: &[EdgeList],
    degrees: &[usize],
    scale: f64,
    compute_per_edge: f64,
    seed: u64,
    iters: usize,
) -> f64 {
    let m: usize = degrees.iter().product();
    let cluster = SimCluster::new(m, scaled_nic(scale)).seed(seed + 2);
    let cfg = PageRankConfig {
        damping: 0.85,
        iterations: iters,
        compute_per_edge,
    };
    let times: Vec<(f64, f64)> = cluster.run_all(|mut comm| {
        let me = comm.rank();
        let kylix = Kylix::new(NetworkPlan::new(degrees));
        let out = distributed_pagerank(&mut comm, &kylix, spec.n_vertices, &parts[me].edges, &cfg)
            .unwrap();
        (out.config_time, comm.now())
    });
    let config_end = times.iter().map(|t| t.0).fold(0.0, f64::max);
    let total_end = times.iter().map(|t| t.1).fold(0.0, f64::max);
    (total_end - config_end) / iters as f64 * scale
}

/// Time the PowerGraph-style GAS engine the same way.
fn time_gas(
    spec: &DatasetSpec,
    parts: &[EdgeList],
    m: usize,
    scale: f64,
    compute_per_edge: f64,
    seed: u64,
    iters: usize,
) -> f64 {
    let cluster = SimCluster::new(m, scaled_nic(scale)).seed(seed + 2);
    let times: Vec<(f64, f64)> = cluster.run_all(|mut comm| {
        let me = comm.rank();
        let edges = &parts[me].edges;
        let mut engine = GasEngine::setup(&mut comm, spec.n_vertices, edges, 0).unwrap();
        let setup_end = comm.now();
        for it in 0..iters {
            comm.charge_compute(compute_per_edge * edges.len() as f64);
            engine
                .pagerank_step(&mut comm, 0.85, it as u32 + 1)
                .unwrap();
        }
        (setup_end, comm.now())
    });
    let setup_end = times.iter().map(|t| t.0).fold(0.0, f64::max);
    let total_end = times.iter().map(|t| t.1).fold(0.0, f64::max);
    (total_end - setup_end) / iters as f64 * scale
}

/// Regenerate Fig. 8 at the given dataset scale divisor.
pub fn run(dataset_scale: u64, seed: u64) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for (spec, full_edges) in [
        (DatasetSpec::twitter_like(dataset_scale), 1_500_000_000u64),
        (DatasetSpec::yahoo_like(dataset_scale), 6_000_000_000u64),
    ] {
        let graph = spec.generate(seed);
        let parts = graph.partition_random(64, seed + 1);
        let scale = nic_scale(spec.name, &parts);
        // Virtual compute charge such that (virtual time x nic scale)
        // equals the full-scale compute: edges shrank by the dataset
        // scale while times are re-inflated by the NIC scale.
        let cpe = COMPUTE_PER_EDGE * dataset_scale as f64 / scale;
        let kylix_t = time_kylix(&spec, &parts, spec.paper_degrees, scale, cpe, seed, 3);
        let gas_t = time_gas(&spec, &parts, 64, scale, cpe, seed, 3);
        let hadoop_t = hadoop::pagerank_iteration_time(full_edges);
        rows.push(Fig8Row {
            dataset: spec.name.into(),
            system: "kylix".into(),
            seconds_per_iter: kylix_t,
        });
        rows.push(Fig8Row {
            dataset: spec.name.into(),
            system: "powergraph-style".into(),
            seconds_per_iter: gas_t,
        });
        rows.push(Fig8Row {
            dataset: spec.name.into(),
            system: "hadoop/pegasus".into(),
            seconds_per_iter: hadoop_t,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by(rows: &[Fig8Row], dataset: &str, system: &str) -> f64 {
        rows.iter()
            .find(|r| r.dataset == dataset && r.system == system)
            .unwrap()
            .seconds_per_iter
    }

    #[test]
    fn kylix_beats_powergraph_style() {
        let rows = run(4000, 3);
        for ds in ["twitter-like", "yahoo-like"] {
            let k = by(&rows, ds, "kylix");
            let g = by(&rows, ds, "powergraph-style");
            assert!(g > k * 1.2, "{ds}: powergraph {g} should exceed kylix {k}");
        }
    }

    #[test]
    fn hadoop_is_orders_of_magnitude_slower() {
        let rows = run(4000, 5);
        for ds in ["twitter-like", "yahoo-like"] {
            let k = by(&rows, ds, "kylix");
            let h = by(&rows, ds, "hadoop/pegasus");
            assert!(h / k > 50.0, "{ds}: hadoop/kylix ratio only {:.1}", h / k);
        }
    }

    #[test]
    fn kylix_absolute_time_is_paper_magnitude() {
        // Paper: 0.55 s (Twitter) and 2.5 s (Yahoo) per iteration.
        // Same order of magnitude is the goal.
        let rows = run(4000, 7);
        let t = by(&rows, "twitter-like", "kylix");
        assert!((0.05..5.0).contains(&t), "twitter kylix {t}");
        let y = by(&rows, "yahoo-like", "kylix");
        assert!((0.2..25.0).contains(&y), "yahoo kylix {y}");
    }
}
