//! Synthetic power-law graphs, CSR assembly, and random edge
//! partitioning.
//!
//! The paper evaluates on the Twitter follower graph and the Yahoo!
//! Altavista web graph, partitioned by **random edge partitioning**
//! (§II.B — the greedy alternative's precomputation costs far more than
//! the runtime it saves). We generate graphs with power-law in/out degree
//! by sampling each edge's endpoints from independent Zipf laws — a
//! Chung–Lu-style model that reproduces the head-heavy collision
//! behaviour Kylix exploits — and partition edges uniformly at random.

use crate::zipf::Zipf;
use kylix_sparse::{mix_many, Xoshiro256};

/// A directed multigraph as an edge list over vertices `0..n_vertices`.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    /// Number of vertices (ids are `0..n_vertices`).
    pub n_vertices: u64,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(u32, u32)>,
}

impl EdgeList {
    /// Generate a power-law graph: each edge draws `src ~ Zipf(α_out)`
    /// and `dst ~ Zipf(α_in)` independently.
    pub fn power_law(
        n_vertices: u64,
        n_edges: usize,
        alpha_out: f64,
        alpha_in: f64,
        seed: u64,
    ) -> Self {
        assert!(n_vertices <= u32::MAX as u64 + 1, "vertex ids are u32");
        let zo = Zipf::new(n_vertices, alpha_out);
        let zi = Zipf::new(n_vertices, alpha_in);
        let mut rng = Xoshiro256::new(mix_many(&[seed, 0xEDDE]));
        let edges = (0..n_edges)
            .map(|_| {
                (
                    zo.sample_index(&mut rng) as u32,
                    zi.sample_index(&mut rng) as u32,
                )
            })
            .collect();
        Self { n_vertices, edges }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Random edge partitioning into `m` shares (paper §II.B). Every edge
    /// goes to a uniformly random machine; deterministic in `seed`.
    pub fn partition_random(&self, m: usize, seed: u64) -> Vec<EdgeList> {
        let mut shares: Vec<EdgeList> = (0..m)
            .map(|_| EdgeList {
                n_vertices: self.n_vertices,
                edges: Vec::with_capacity(self.edges.len() / m + 1),
            })
            .collect();
        let mut rng = Xoshiro256::new(mix_many(&[seed, 0x9A57]));
        for &e in &self.edges {
            shares[rng.next_index(m)].edges.push(e);
        }
        shares
    }

    /// Distinct destination vertices ("in" features of a PageRank
    /// iteration for this share: the columns of `Xᵢ`).
    pub fn distinct_dsts(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.edges.iter().map(|e| e.1).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct source vertices ("out" features: the rows of `Xᵢ`).
    pub fn distinct_srcs(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.edges.iter().map(|e| e.0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Compressed sparse row adjacency: `cols[row_ptr[v]..row_ptr[v+1]]` are
/// the out-neighbours of vertex `v`.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of vertices.
    pub n: u64,
    /// Row offsets, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Column (destination) ids, length = number of edges.
    pub cols: Vec<u32>,
}

impl Csr {
    /// Assemble CSR from an edge list by counting sort (O(V + E)).
    pub fn from_edges(n_vertices: u64, edges: &[(u32, u32)]) -> Self {
        let n = n_vertices as usize;
        let mut counts = vec![0usize; n + 1];
        for &(s, _) in edges {
            counts[s as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut cols = vec![0u32; edges.len()];
        let mut cursor = row_ptr.clone();
        for &(s, d) in edges {
            let c = &mut cursor[s as usize];
            cols[*c] = d;
            *c += 1;
        }
        Self {
            n: n_vertices,
            row_ptr,
            cols,
        }
    }

    /// Out-degree of a vertex.
    pub fn degree(&self, v: u32) -> usize {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// Out-neighbours of a vertex.
    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.cols[self.row_ptr[v as usize]..self.row_ptr[v as usize + 1]]
    }

    /// Single-node PageRank reference: `rank' = 1/n + (n-1)/n · Xᵀ(rank/deg)`
    /// following the paper's iteration (damping expressed with graph size,
    /// as in the paper's Eq. for PageRank). Runs `iters` sweeps from the
    /// uniform vector; the distributed implementations are checked against
    /// this bit-for-bit given the same iteration count and arithmetic
    /// order tolerance.
    #[allow(clippy::needless_range_loop)] // `v` is a vertex id, not an index
    pub fn pagerank_reference(&self, iters: usize, damping: f64) -> Vec<f64> {
        let n = self.n as usize;
        let mut rank = vec![1.0 / n as f64; n];
        let mut next = vec![0.0f64; n];
        for _ in 0..iters {
            next.iter_mut().for_each(|x| *x = 0.0);
            for v in 0..n {
                let deg = self.degree(v as u32);
                if deg == 0 {
                    continue;
                }
                let share = rank[v] / deg as f64;
                for &d in self.neighbours(v as u32) {
                    next[d as usize] += share;
                }
            }
            for v in 0..n {
                rank[v] = (1.0 - damping) / n as f64 + damping * next[v];
            }
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_graph_has_requested_shape() {
        let g = EdgeList::power_law(1000, 20_000, 1.2, 1.2, 4);
        assert_eq!(g.len(), 20_000);
        assert!(g
            .edges
            .iter()
            .all(|&(s, d)| (s as u64) < 1000 && (d as u64) < 1000));
    }

    #[test]
    fn head_vertices_have_high_degree() {
        let g = EdgeList::power_law(10_000, 100_000, 1.4, 1.4, 5);
        let csr = Csr::from_edges(g.n_vertices, &g.edges);
        let deg0 = csr.degree(0);
        let mid_degrees: usize = (4000u32..4100).map(|v| csr.degree(v)).sum();
        assert!(
            deg0 > mid_degrees / 20,
            "vertex 0 degree {deg0} not power-law-ish vs mid {mid_degrees}"
        );
    }

    #[test]
    fn partition_random_preserves_edges() {
        let g = EdgeList::power_law(500, 5_000, 1.0, 1.0, 6);
        let parts = g.partition_random(8, 1);
        assert_eq!(parts.len(), 8);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, g.len());
        // Multiset equality via sorted concat.
        let mut orig = g.edges.clone();
        let mut cat: Vec<(u32, u32)> = parts.iter().flat_map(|p| p.edges.clone()).collect();
        orig.sort_unstable();
        cat.sort_unstable();
        assert_eq!(orig, cat);
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let g = EdgeList::power_law(500, 64_000, 1.0, 1.0, 7);
        let parts = g.partition_random(16, 2);
        for p in &parts {
            let frac = p.len() as f64 / g.len() as f64;
            assert!((frac - 1.0 / 16.0).abs() < 0.01, "unbalanced: {}", p.len());
        }
    }

    #[test]
    fn csr_round_trips_edges() {
        let edges = vec![(0u32, 1u32), (0, 2), (1, 2), (2, 0), (2, 0)];
        let csr = Csr::from_edges(3, &edges);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(2), 2);
        assert_eq!(csr.neighbours(1), &[2]);
        assert_eq!(csr.neighbours(2), &[0, 0]);
        let total: usize = (0..3).map(|v| csr.degree(v)).sum();
        assert_eq!(total, edges.len());
    }

    #[test]
    fn pagerank_reference_sums_to_one_without_sinks() {
        // Regular ring: no sinks, so total mass is conserved.
        let edges: Vec<(u32, u32)> = (0..100u32).map(|v| (v, (v + 1) % 100)).collect();
        let csr = Csr::from_edges(100, &edges);
        let pr = csr.pagerank_reference(20, 0.85);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // Symmetric structure: all ranks equal.
        for &x in &pr {
            assert!((x - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn pagerank_star_center_dominates() {
        // Star: everyone points to 0; 0 points to 1.
        let mut edges: Vec<(u32, u32)> = (1..50u32).map(|v| (v, 0)).collect();
        edges.push((0, 1));
        let csr = Csr::from_edges(50, &edges);
        let pr = csr.pagerank_reference(30, 0.85);
        assert!(pr[0] > pr[2] * 10.0, "center {} vs leaf {}", pr[0], pr[2]);
        assert!(pr[1] > pr[2], "0's neighbour outranks other leaves");
    }

    #[test]
    fn distinct_endpoint_sets() {
        let el = EdgeList {
            n_vertices: 10,
            edges: vec![(1, 2), (1, 3), (4, 2)],
        };
        assert_eq!(el.distinct_srcs(), vec![1, 4]);
        assert_eq!(el.distinct_dsts(), vec![2, 3]);
    }
}
