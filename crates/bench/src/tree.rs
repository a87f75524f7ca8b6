//! Tree allreduce (paper §II.A.1) — implemented to exhibit its failure
//! mode on sparse data.
//!
//! Values reduce up a binary tree to rank 0 and the full result is
//! broadcast back down. Correct, and bandwidth-minimal for *dense*
//! fixed-size messages — but for sparse data "intermediate reductions
//! grow in size … the middle (full reduction) node will have complete
//! (fully dense) data which will often be intractably large". The tests
//! measure exactly that: the root's union is far larger than any leaf's
//! set, and the broadcast volume is the whole vector per node.

use kylix::codec::{put_keys, put_values, seal, Decoder};
use kylix::error::{comm_err, surface_corrupt, Result};
use kylix_net::{Comm, Phase, Tag};
use kylix_sparse::vec::scatter_combine;
use kylix_sparse::{tree_merge, IndexSet, Key, Reducer, Scalar};

/// Statistics the tree allreduce reports alongside its results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeStats {
    /// Union size this node held when it forwarded up the tree.
    forwarded_elems: usize,
    /// Size of the fully reduced vector broadcast back down.
    broadcast_elems: usize,
}

/// Sparse allreduce over a binary reduction tree rooted at rank 0.
///
/// Returns values aligned with `in_indices`, plus volume statistics.
pub(crate) fn tree_allreduce<C, V, R>(
    comm: &mut C,
    in_indices: &[u64],
    out_indices: &[u64],
    out_values: &[V],
    reducer: R,
    channel: u32,
) -> Result<(Vec<V>, TreeStats)>
where
    C: Comm,
    V: Scalar,
    R: Reducer<V>,
{
    let m = comm.size();
    let me = comm.rank();
    let up_tag = Tag::new(Phase::App, 0, channel);
    let down_tag = Tag::new(Phase::App, 1, channel);

    // Local combine of the caller's contribution.
    let (out0, out_pos) = IndexSet::with_positions(out_indices);
    let mut vals = vec![reducer.identity(); out0.len()];
    for (&p, &v) in out_pos.iter().zip(out_values) {
        reducer.combine(&mut vals[p as usize], v);
    }
    let mut keys = out0.into_keys();

    // Reduce up: children are 2·me+1 and 2·me+2.
    for child in [2 * me + 1, 2 * me + 2] {
        if child >= m {
            continue;
        }
        let payload = comm.recv(child, up_tag).map_err(comm_err("tree up"))?;
        let mut dec = Decoder::new(&payload).map_err(surface_corrupt("tree up", child, up_tag))?;
        let ckeys = dec.keys()?;
        let cvals: Vec<V> = dec.values()?;
        let merged = tree_merge(&[&keys, &ckeys]);
        let mut acc = vec![reducer.identity(); merged.union.len()];
        scatter_combine(&mut acc, &vals, &merged.maps[0], reducer);
        scatter_combine(&mut acc, &cvals, &merged.maps[1], reducer);
        keys = merged.union;
        vals = acc;
    }
    let forwarded_elems = keys.len();
    if me != 0 {
        let parent = (me - 1) / 2;
        let mut buf = Vec::new();
        put_keys(&mut buf, &keys);
        put_values(&mut buf, &vals);
        comm.send(parent, up_tag, seal(buf));
    }

    // Broadcast the full reduction down the same tree.
    let (keys, vals) = if me == 0 {
        (keys, vals)
    } else {
        let parent = (me - 1) / 2;
        let payload = comm.recv(parent, down_tag).map_err(comm_err("tree down"))?;
        let mut dec =
            Decoder::new(&payload).map_err(surface_corrupt("tree down", parent, down_tag))?;
        let k = dec.keys()?;
        let v: Vec<V> = dec.values()?;
        (k, v)
    };
    for child in [2 * me + 1, 2 * me + 2] {
        if child >= m {
            continue;
        }
        let mut buf = Vec::new();
        put_keys(&mut buf, &keys);
        put_values(&mut buf, &vals);
        comm.send(child, down_tag, seal(buf));
    }

    // Serve the caller's requests from the full vector.
    let full = IndexSet::from_sorted_keys(keys);
    let result = in_indices
        .iter()
        .map(|&i| {
            let p = full
                .position(Key::new(i))
                .expect("in index not covered by any out set (contract violation)");
            vals[p]
        })
        .collect();
    Ok((
        result,
        TreeStats {
            forwarded_elems,
            broadcast_elems: full.len(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::{reference_allreduce, NodeContribution};
    use kylix_net::LocalCluster;
    use kylix_sparse::{SumReducer, Xoshiro256};

    #[test]
    fn tree_matches_reference() {
        let nodes: Vec<NodeContribution<f64>> = (0..7)
            .map(|i| NodeContribution {
                in_indices: vec![(i as u64) % 3],
                out_indices: vec![(i as u64) % 3, 10 + i as u64],
                out_values: vec![1.0, 2.0],
            })
            .collect();
        let expected = reference_allreduce(&nodes, SumReducer);
        let got: Vec<Vec<f64>> = LocalCluster::run(7, |mut comm| {
            let me = comm.rank();
            tree_allreduce(
                &mut comm,
                &nodes[me].in_indices,
                &nodes[me].out_indices,
                &nodes[me].out_values,
                SumReducer,
                0,
            )
            .unwrap()
            .0
        });
        for (g, e) in got.iter().zip(&expected) {
            for (a, b) in g.iter().zip(e) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn root_union_blows_up_on_disjoint_sparse_sets() {
        // The §II.A.1 pathology: each node holds 32 distinct indices;
        // the root ends up holding all of them.
        let m = 8;
        let stats: Vec<TreeStats> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank() as u64;
            let mut rng = Xoshiro256::new(me);
            let out: Vec<u64> = (0..32).map(|_| me * 1000 + rng.next_below(900)).collect();
            let vals = vec![1.0f64; out.len()];
            tree_allreduce(&mut comm, &[out[0]], &out, &vals, SumReducer, 0)
                .unwrap()
                .1
        });
        let leaf = stats[m - 1].forwarded_elems; // a leaf of the tree
        let root = stats[0].forwarded_elems;
        assert!(
            root > 6 * leaf,
            "root {root} should dwarf leaf {leaf} for disjoint sets"
        );
        // And everyone pays the full broadcast.
        assert!(stats.iter().all(|s| s.broadcast_elems == root));
    }
}
