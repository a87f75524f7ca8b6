//! Dense ring allreduce (reduce-scatter + allgather): its wire volume.
//!
//! The bandwidth-optimal collective of the scientific-computing world
//! the paper sets itself apart from (§VIII, "other dense Allreduce
//! systems"): each node sends `2·(m−1)/m · n` elements regardless of
//! sparsity. On the power-law workloads Kylix targets, the dense vector
//! is orders of magnitude larger than the sparse traffic, which is the
//! contrast the ablation benches quantify.

/// Wire volume per node of a dense ring allreduce, in elements — the
/// quantity the sparse-vs-dense ablation plots.
pub fn ring_volume_elems(n: usize, m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        2 * (m - 1) * (n / m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_is_sparsity_independent() {
        assert!(ring_volume_elems(1_000_000, 64) > 1_900_000);
        assert_eq!(ring_volume_elems(100, 1), 0);
    }
}
