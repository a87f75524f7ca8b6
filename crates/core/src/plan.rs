//! The nested heterogeneous-degree butterfly topology.
//!
//! A [`NetworkPlan`] is a list of layer degrees `d_1 × d_2 × … × d_l`
//! whose product is the cluster size `m` (paper §II.A.3: "the ∏ dᵢ nodes
//! can be laid out on a unit grid within a hyper-rectangle"). Node `j`'s
//! coordinate along layer `i` is the mixed-radix digit
//! `cᵢ(j) = (j / strideᵢ) mod dᵢ` with `stride₁ = 1` and
//! `strideᵢ₊₁ = strideᵢ · dᵢ`; its *group* at layer `i` is the set of
//! nodes differing from it only in that digit. Configuration and
//! reduction run one communication round per layer within these groups.
//!
//! Two degenerate plans recover the paper's comparators:
//! * `[m]` — **direct all-to-all** allreduce (one layer, everyone in one
//!   group);
//! * `[2, 2, …, 2]` — the **binary butterfly**.
//!
//! The plan also carries the *hash-range nesting*: after `t` layers node
//! `j` is responsible for the hash range obtained by recursively taking
//! part `cᵢ(j)` of its previous range, for `i = 1..t`. Groups at layer
//! `i` share their layer-`(i−1)` range (they agree on all earlier
//! digits), which is what makes the partition parts of group members
//! align and merge cleanly.

use kylix_sparse::HashRange;

/// A nested butterfly topology: layer degrees and node addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkPlan {
    degrees: Vec<usize>,
    /// `strides[i]` = product of degrees before layer `i` (0-based).
    strides: Vec<usize>,
    m: usize,
}

impl NetworkPlan {
    /// Build a plan from layer degrees (top first). Every degree must be
    /// ≥ 1; degree-1 layers are allowed but pointless and are stripped.
    pub fn new(degrees: &[usize]) -> Self {
        assert!(!degrees.is_empty(), "need at least one layer");
        assert!(degrees.iter().all(|&d| d >= 1), "degrees must be >= 1");
        let degrees: Vec<usize> = degrees.iter().copied().filter(|&d| d > 1).collect();
        let degrees = if degrees.is_empty() { vec![1] } else { degrees };
        let mut strides = Vec::with_capacity(degrees.len());
        let mut s = 1usize;
        for &d in &degrees {
            strides.push(s);
            s = s.checked_mul(d).expect("cluster size overflow");
        }
        Self {
            degrees,
            strides,
            m: s,
        }
    }

    /// The direct all-to-all plan over `m` nodes (single layer).
    pub fn direct(m: usize) -> Self {
        Self::new(&[m])
    }

    /// The binary butterfly over `m = 2^k` nodes.
    pub fn binary(m: usize) -> Self {
        assert!(m.is_power_of_two(), "binary butterfly needs a power of two");
        let k = m.trailing_zeros() as usize;
        Self::new(&vec![2; k.max(1)])
    }

    /// Cluster size `m = ∏ dᵢ`.
    pub fn size(&self) -> usize {
        self.m
    }

    /// Number of communication layers.
    pub fn layers(&self) -> usize {
        self.degrees.len()
    }

    /// The layer degrees, top first.
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// Node `j`'s coordinate (digit) along layer `i` (0-based layer).
    pub fn coordinate(&self, j: usize, layer: usize) -> usize {
        debug_assert!(j < self.m);
        (j / self.strides[layer]) % self.degrees[layer]
    }

    /// The ranks in node `j`'s group at `layer`, ordered by coordinate;
    /// `group[c]` has coordinate `c`, and `j` itself sits at position
    /// [`Self::coordinate`]`(j, layer)`.
    pub fn group(&self, j: usize, layer: usize) -> Vec<usize> {
        let stride = self.strides[layer];
        let d = self.degrees[layer];
        let base = j - self.coordinate(j, layer) * stride;
        (0..d).map(|c| base + c * stride).collect()
    }

    /// The hash range node `j` is responsible for after `t` communication
    /// layers (`t = 0` is the full space).
    pub fn range_at(&self, j: usize, t: usize) -> HashRange {
        debug_assert!(t <= self.layers());
        let mut r = HashRange::full();
        for layer in 0..t {
            r = r.split(self.degrees[layer])[self.coordinate(j, layer)];
        }
        r
    }
}

impl std::fmt::Display for NetworkPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.degrees.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig3_structure_3x2() {
        // Fig. 3 of the paper: a 3×2 network over 6 nodes.
        let p = NetworkPlan::new(&[3, 2]);
        assert_eq!(p.size(), 6);
        assert_eq!(p.layers(), 2);
        // Layer 0: consecutive triples.
        assert_eq!(p.group(0, 0), vec![0, 1, 2]);
        assert_eq!(p.group(4, 0), vec![3, 4, 5]);
        // Layer 1: stride-3 pairs.
        assert_eq!(p.group(0, 1), vec![0, 3]);
        assert_eq!(p.group(4, 1), vec![1, 4]);
    }

    #[test]
    fn groups_are_consistent_and_contain_self() {
        let p = NetworkPlan::new(&[8, 4, 2]);
        assert_eq!(p.size(), 64);
        for j in 0..64 {
            for layer in 0..3 {
                let g = p.group(j, layer);
                assert_eq!(g.len(), p.degrees()[layer]);
                let c = p.coordinate(j, layer);
                assert_eq!(g[c], j, "self must sit at own coordinate");
                // Group membership is symmetric.
                for &k in &g {
                    assert_eq!(p.group(k, layer), g);
                }
            }
        }
    }

    #[test]
    fn group_members_share_previous_range() {
        let p = NetworkPlan::new(&[4, 2, 2]);
        for j in 0..p.size() {
            for layer in 0..p.layers() {
                let r = p.range_at(j, layer);
                for &k in &p.group(j, layer) {
                    assert_eq!(p.range_at(k, layer), r);
                }
            }
        }
    }

    #[test]
    fn ranges_nest_and_tile() {
        let p = NetworkPlan::new(&[2, 3]);
        // At the bottom, the 6 nodes' ranges tile the full space.
        let mut ranges: Vec<HashRange> = (0..6).map(|j| p.range_at(j, 2)).collect();
        ranges.sort_by_key(|r| r.lo());
        let total: u128 = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, HashRange::full().len());
        for w in ranges.windows(2) {
            assert!(w[0].hi() <= w[1].lo() as u128 + w[1].len());
        }
        // Bottom range is inside the layer-1 range.
        for j in 0..6 {
            let outer = p.range_at(j, 1);
            let inner = p.range_at(j, 2);
            assert!(outer.lo() <= inner.lo());
            assert!(inner.hi() <= outer.hi());
        }
    }

    #[test]
    fn direct_and_binary_plans() {
        let d = NetworkPlan::direct(16);
        assert_eq!(d.layers(), 1);
        assert_eq!(d.size(), 16);
        assert_eq!(d.degrees(), &[16]);
        let b = NetworkPlan::binary(16);
        assert_eq!(b.layers(), 4);
        assert_eq!(b.size(), 16);
        assert_eq!(b.degrees(), &[2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn binary_plan_rejects_non_power_of_two() {
        NetworkPlan::binary(12);
    }

    #[test]
    fn degree_one_layers_are_stripped() {
        let p = NetworkPlan::new(&[1, 4, 1, 2]);
        assert_eq!(p.degrees(), &[4, 2]);
        assert_eq!(p.size(), 8);
        let trivial = NetworkPlan::new(&[1]);
        assert_eq!(trivial.size(), 1);
        assert_eq!(trivial.layers(), 1); // single degree-1 "layer"
    }

    #[test]
    fn display_formats_degrees() {
        assert_eq!(NetworkPlan::new(&[8, 4, 2]).to_string(), "8x4x2");
    }

    #[test]
    fn single_node_plan_works() {
        let p = NetworkPlan::new(&[1]);
        assert_eq!(p.size(), 1);
        assert_eq!(p.group(0, 0), vec![0]);
        assert_eq!(p.range_at(0, 1), HashRange::full());
    }
}
