//! Level-synchronous breadth-first search.
//!
//! Distances propagate through a *min* sparse allreduce: each round
//! every machine contributes, per local edge `(u,v)`, the candidate
//! distance `dist(u)+1` for `v`, plus every vertex's current distance
//! (self-candidate, which also satisfies coverage). Unreached vertices
//! carry `u64::MAX` and are guarded against overflow. The frontier
//! terminates when a round changes nothing anywhere (sum allreduce of
//! change counts, as in components).

use kylix::{Kylix, Result};
use kylix_net::Comm;
use kylix_sparse::{IndexSet, MinReducer};

/// Distance label for unreached vertices.
pub const UNREACHED: u64 = u64::MAX;

/// Distributed BFS from `root` over this machine's directed edge share.
///
/// Returns `(vertex, distance)` for local vertices (`UNREACHED` if no
/// path). Collective call.
pub fn distributed_bfs<C: Comm>(
    comm: &mut C,
    kylix: &Kylix,
    local_edges: &[(u32, u32)],
    root: u32,
    max_rounds: usize,
) -> Result<Vec<(u64, u64)>> {
    let endpoints: Vec<u64> = local_edges
        .iter()
        .flat_map(|&(s, d)| [s as u64, d as u64])
        .chain([root as u64])
        .collect();
    let (verts, pos) = IndexSet::with_positions(&endpoints);
    let vert_ids: Vec<u64> = verts.indices().collect();
    let edge_pos: Vec<(u32, u32)> = pos.chunks_exact(2).map(|p| (p[0], p[1])).collect();

    let out_idx: Vec<u64> = local_edges
        .iter()
        .map(|&(_, d)| d as u64)
        .chain(vert_ids.iter().copied())
        .collect();
    let mut dist_state = kylix.configure(comm, &vert_ids, &out_idx, 0)?;
    let mut done = kylix::ScalarCollective::new(comm, kylix.plan(), 1 << 16)?;

    let mut dist: Vec<u64> = vert_ids
        .iter()
        .map(|&v| if v == root as u64 { 0 } else { UNREACHED })
        .collect();
    for _ in 0..max_rounds {
        let out_vals: Vec<u64> = edge_pos
            .iter()
            .map(|&(sp, _)| dist[sp as usize].saturating_add(1))
            .chain(dist.iter().copied())
            .collect();
        let new_dist = dist_state.reduce(comm, &out_vals, MinReducer)?;
        let changed = dist != new_dist;
        dist = new_dist;
        if !done.any(comm, changed)? {
            break;
        }
    }
    Ok(vert_ids.into_iter().zip(dist).collect())
}

/// Sequential BFS reference over an edge list.
pub fn bfs_reference(n: u64, edges: &[(u32, u32)], root: u32) -> Vec<u64> {
    let csr = kylix_powerlaw::Csr::from_edges(n, edges);
    let mut dist = vec![UNREACHED; n as usize];
    dist[root as usize] = 0;
    let mut frontier = vec![root];
    let mut level = 0u64;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in csr.neighbours(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = level;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::EdgeList;

    #[test]
    fn reference_on_path() {
        let edges: Vec<(u32, u32)> = (0..9u32).map(|v| (v, v + 1)).collect();
        let d = bfs_reference(10, &edges, 0);
        assert_eq!(d, (0..10u64).collect::<Vec<_>>());
    }

    #[test]
    fn distributed_matches_reference() {
        let n = 150u64;
        let g = EdgeList::power_law(n, 900, 1.0, 1.0, 33);
        let expected = bfs_reference(n, &g.edges, 3);
        let parts = g.partition_random(4, 6);
        let results: Vec<Vec<(u64, u64)>> = LocalCluster::run(4, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
            distributed_bfs(&mut comm, &kylix, &parts[me].edges, 3, 64).unwrap()
        });
        for res in &results {
            for &(v, d) in res {
                assert_eq!(d, expected[v as usize], "vertex {v}");
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        // Two disjoint chains; BFS from chain 1 never reaches chain 2.
        let edges = [(0u32, 1u32), (1, 2), (10, 11)];
        let results: Vec<Vec<(u64, u64)>> = LocalCluster::run(2, |mut comm| {
            let me = comm.rank();
            let mine: Vec<(u32, u32)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == me)
                .map(|(_, e)| *e)
                .collect();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            distributed_bfs(&mut comm, &kylix, &mine, 0, 16).unwrap()
        });
        for res in &results {
            for &(v, d) in res {
                match v {
                    0 => assert_eq!(d, 0),
                    1 => assert_eq!(d, 1),
                    2 => assert_eq!(d, 2),
                    10 | 11 => assert_eq!(d, UNREACHED, "vertex {v}"),
                    _ => unreachable!(),
                }
            }
        }
    }
}
