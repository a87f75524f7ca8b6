//! A calibrated Hadoop / Pegasus per-iteration cost model for Fig. 8.
//!
//! The paper's Fig. 8 includes Hadoop-based Pegasus, whose runtimes the
//! authors themselves *estimate* "by using their runtime result on a
//! power-law graph with 0.3 billion edges and assuming linear scaling in
//! number of edges", arguing that order-of-magnitude fidelity suffices
//! for a disk-bound MapReduce system (§VII.D). We model it the same
//! way, with the two constants documented below.
//!
//! With these constants the model lands Twitter-scale (1.5 B edges) at
//! ≈270 s/iteration and Yahoo-scale (6 B) at ≈990 s — matching the
//! paper's "about 500× slower than Kylix" log-scale bars.

/// Fixed per-iteration JobTracker/scheduling/HDFS cost, seconds.
/// Hadoop-era measurements put one empty MapReduce round at tens of
/// seconds.
const JOB_OVERHEAD_S: f64 = 30.0;

/// Disk-bound map+shuffle+reduce time per edge, seconds. Pegasus on M45
/// ran a PageRank iteration on a 0.3 B-edge power-law graph in ≈80 s,
/// i.e. ≈1.6·10⁻⁷ s/edge after subtracting the job overhead.
const PER_EDGE_S: f64 = 1.6e-7;

/// Estimated Hadoop/Pegasus PageRank iteration time on a graph with
/// `edges` edges, seconds.
pub(crate) fn pagerank_iteration_time(edges: u64) -> f64 {
    JOB_OVERHEAD_S + PER_EDGE_S * edges as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twitter_scale_matches_paper_band() {
        let t = pagerank_iteration_time(1_500_000_000);
        // Paper: Kylix takes 0.55 s; Hadoop "about 500x" slower.
        assert!((200.0..400.0).contains(&t), "{t}");
        let ratio = t / 0.55;
        assert!((300.0..700.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn yahoo_scale_matches_paper_band() {
        let t = pagerank_iteration_time(6_000_000_000);
        // Kylix: 2.5 s; Hadoop two to three orders slower.
        let ratio = t / 2.5;
        assert!((100.0..1000.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn model_is_linear_in_edges() {
        let a = pagerank_iteration_time(1_000_000);
        let b = pagerank_iteration_time(2_000_000);
        assert!((b - a - PER_EDGE_S * 1_000_000.0).abs() < 1e-9);
    }
}
