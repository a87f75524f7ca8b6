//! Connected components by min-label propagation.
//!
//! Treats the edge share as undirected: every vertex starts with its own
//! id as label, and each round every vertex takes the minimum label in
//! its closed neighbourhood — distributed as a *min* sparse allreduce
//! where each machine contributes, per local edge `(u,v)`, the candidate
//! labels `label(u)` for `v` and `label(v)` for `u` (plus each vertex's
//! own label, which also keeps the in/out coverage contract satisfied).
//! Convergence is detected with a one-index sum allreduce of per-machine
//! change counters — the primitive again bootstrapping its own control
//! plane.

use kylix::{Kylix, Result};
use kylix_net::Comm;
use kylix_sparse::{IndexSet, MinReducer};

/// Run distributed connected components on this machine's edge share.
///
/// Returns `(vertex, component_label)` for every local vertex; labels
/// are the minimum vertex id in the component. Collective call.
pub fn distributed_components<C: Comm>(
    comm: &mut C,
    kylix: &Kylix,
    local_edges: &[(u32, u32)],
    max_rounds: usize,
) -> Result<Vec<(u64, u64)>> {
    // Local vertex set = endpoints of local edges.
    let endpoints: Vec<u64> = local_edges
        .iter()
        .flat_map(|&(s, d)| [s as u64, d as u64])
        .collect();
    let (verts, pos) = IndexSet::with_positions(&endpoints);
    let vert_ids: Vec<u64> = verts.indices().collect();
    let edge_pos: Vec<(u32, u32)> = pos.chunks_exact(2).map(|p| (p[0], p[1])).collect();

    // Labels allreduce: in = local vertices; out = one candidate per
    // edge endpoint + own label per vertex. Index lists are fixed across
    // rounds, so configure once.
    let out_idx: Vec<u64> = local_edges
        .iter()
        .flat_map(|&(s, d)| [d as u64, s as u64])
        .chain(vert_ids.iter().copied())
        .collect();
    let mut label_state = kylix.configure(comm, &vert_ids, &out_idx, 0)?;
    // Convergence rides a scalar collective on a disjoint channel.
    let mut done = kylix::ScalarCollective::new(comm, kylix.plan(), 1 << 16)?;

    let mut label: Vec<u64> = vert_ids.clone();
    for _ in 0..max_rounds {
        let out_vals: Vec<u64> = edge_pos
            .iter()
            .flat_map(|&(sp, dp)| [label[sp as usize], label[dp as usize]])
            .chain(label.iter().copied())
            .collect();
        let new_labels = label_state.reduce(comm, &out_vals, MinReducer)?;
        let changed = label != new_labels;
        label = new_labels;
        if !done.any(comm, changed)? {
            break;
        }
    }
    Ok(vert_ids.into_iter().zip(label).collect())
}

/// Sequential union-find reference.
pub fn components_reference(n: u64, edges: &[(u32, u32)]) -> Vec<u64> {
    struct Dsu(Vec<u32>);
    impl Dsu {
        fn find(&mut self, x: u32) -> u32 {
            if self.0[x as usize] != x {
                let root = self.find(self.0[x as usize]);
                self.0[x as usize] = root;
            }
            self.0[x as usize]
        }
        fn union(&mut self, a: u32, b: u32) {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra != rb {
                // Attach the larger id under the smaller so roots are
                // component minima.
                let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                self.0[hi as usize] = lo;
            }
        }
    }
    let mut dsu = Dsu((0..n as u32).collect());
    for &(s, d) in edges {
        dsu.union(s, d);
    }
    (0..n as u32).map(|v| dsu.find(v) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::EdgeList;
    use kylix_sparse::Xoshiro256;

    #[test]
    fn reference_finds_minima() {
        // Components {0,1,2}, {3,4}, {5}.
        let labels = components_reference(6, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn distributed_matches_reference() {
        let n = 200u64;
        let mut rng = Xoshiro256::new(14);
        // Sparse random graph with several components: ~0.6 edges/vertex.
        let edges: Vec<(u32, u32)> = (0..120)
            .map(|_| (rng.next_below(n) as u32, rng.next_below(n) as u32))
            .collect();
        let expected = components_reference(n, &edges);
        let m = 4;
        let parts: Vec<Vec<(u32, u32)>> = (0..m)
            .map(|k| {
                edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % m == k)
                    .map(|(_, e)| *e)
                    .collect()
            })
            .collect();
        let results: Vec<Vec<(u64, u64)>> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
            distributed_components(&mut comm, &kylix, &parts[me], 64).unwrap()
        });
        let mut checked = 0;
        for res in &results {
            for &(v, l) in res {
                assert_eq!(l, expected[v as usize], "vertex {v}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn power_law_graph_single_giant_component() {
        let g = EdgeList::power_law(150, 1500, 1.0, 1.0, 15);
        let expected = components_reference(150, &g.edges);
        let parts = g.partition_random(4, 5);
        let results: Vec<Vec<(u64, u64)>> = LocalCluster::run(4, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::direct(4));
            distributed_components(&mut comm, &kylix, &parts[me].edges, 64).unwrap()
        });
        for res in &results {
            for &(v, l) in res {
                assert_eq!(l, expected[v as usize]);
            }
        }
    }
}
