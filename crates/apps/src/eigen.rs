//! Dominant-eigenvector power iteration — the §I.A.2 "spectral
//! clustering / eigenvalues … computed from such matrix-vector
//! products" application.
//!
//! Each step is a distributed SpMV (`y = A·v`) through the sparse
//! allreduce, followed by a global 2-norm that itself rides the
//! primitive twice:
//!
//! * **ownership dedup** — a vertex's value is replicated on every
//!   machine whose edge share touches it; a one-time *min* allreduce of
//!   machine ranks elects one owner per vertex, so the squared norm
//!   sums each vertex exactly once;
//! * **scalar sum** — the owners' partial sums combine through a
//!   [`kylix::ScalarCollective`].
//!
//! The iteration converges to the dominant eigenvector/eigenvalue of
//! the (directed) adjacency matrix, verified against a sequential
//! implementation with identical arithmetic.

use crate::matrix::DistMatrix;
use kylix::{Kylix, Result, ScalarCollective};
use kylix_net::Comm;
use kylix_sparse::{MinReducer, SumReducer};

/// One machine's outcome of the power iteration.
#[derive(Debug, Clone)]
pub struct EigenOutcome {
    /// `(vertex, component)` of the normalised eigenvector estimate for
    /// this machine's column vertices.
    pub vector: Vec<(u64, f64)>,
    /// Dominant-eigenvalue estimate (`‖A v‖` at the last step, with
    /// `‖v‖ = 1`).
    pub eigenvalue: f64,
}

/// Run `iters` power-iteration steps on this machine's edge share.
/// Collective call; all machines converge to the same eigenvalue.
pub fn power_iteration<C: Comm>(
    comm: &mut C,
    kylix: &Kylix,
    n_vertices: u64,
    local_edges: &[(u32, u32)],
    iters: usize,
) -> Result<EigenOutcome> {
    let share = DistMatrix::pagerank_share(local_edges);
    // For A·v with A the raw adjacency (edge (s,d) ⇒ A[d][s] = 1), the
    // pagerank_share orientation is exactly what we need. The iterate
    // is tracked on *all* local vertices — dst-only vertices carry
    // nonzero components that the global norm must see.
    let srcs = share.col_indices();
    let dsts = share.row_indices();
    let verts: Vec<u64> = {
        let mut v: Vec<u64> = srcs.iter().chain(dsts.iter()).copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // Position of each column vertex inside `verts`.
    let src_pos: Vec<usize> = srcs
        .iter()
        .map(|s| verts.binary_search(s).expect("src is a vertex"))
        .collect();

    let mut state = kylix.configure(comm, &verts, &dsts, 0)?;
    // Owner election: min machine rank per local vertex.
    let mut owner_state = kylix.configure(comm, &verts, &verts, 1 << 16)?;
    let me = comm.rank() as u64;
    let owner = owner_state.reduce(comm, &vec![me; verts.len()], MinReducer)?;
    let owned: Vec<usize> = owner
        .iter()
        .enumerate()
        .filter(|(_, &o)| o == me)
        .map(|(i, _)| i)
        .collect();
    let mut norm_coll = ScalarCollective::new(comm, kylix.plan(), 1 << 17)?;

    let n = n_vertices as f64;
    let mut v = vec![1.0 / n.sqrt(); verts.len()];
    let mut eigenvalue = 0.0;
    for _ in 0..iters {
        let x: Vec<f64> = src_pos.iter().map(|&p| v[p]).collect();
        let partial = share.multiply(&x);
        let y = state.reduce(comm, &partial, SumReducer)?;
        let local_sq: f64 = owned.iter().map(|&i| y[i] * y[i]).sum();
        let norm = norm_coll.sum(comm, local_sq)?.sqrt();
        if norm == 0.0 {
            // Nilpotent or empty operator: the iteration is exhausted.
            eigenvalue = 0.0;
            v.iter_mut().for_each(|x| *x = 0.0);
            break;
        }
        eigenvalue = norm;
        for (vi, yi) in v.iter_mut().zip(&y) {
            *vi = yi / norm;
        }
    }
    Ok(EigenOutcome {
        vector: verts.into_iter().zip(v).collect(),
        eigenvalue,
    })
}

/// Sequential reference doing identical math over the full edge list.
pub fn power_iteration_reference(
    n_vertices: u64,
    edges: &[(u32, u32)],
    iters: usize,
) -> (Vec<f64>, f64) {
    let n = n_vertices as usize;
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut eigenvalue = 0.0;
    for _ in 0..iters {
        let mut y = vec![0.0f64; n];
        for &(s, d) in edges {
            y[d as usize] += v[s as usize];
        }
        let norm: f64 = y.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return (vec![0.0; n], 0.0);
        }
        eigenvalue = norm;
        for (vi, yi) in v.iter_mut().zip(&y) {
            *vi = yi / norm;
        }
    }
    (v, eigenvalue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::EdgeList;

    #[test]
    fn distributed_matches_reference() {
        let n = 200u64;
        let g = EdgeList::power_law(n, 2000, 1.1, 1.1, 17);
        let iters = 12;
        let (ref_v, ref_lambda) = power_iteration_reference(n, &g.edges, iters);
        let parts = g.partition_random(4, 3);
        let outcomes: Vec<EigenOutcome> = LocalCluster::run(4, |mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let kylix = Kylix::new(NetworkPlan::new(&[2, 2]));
            power_iteration(&mut comm, &kylix, n, &parts[me].edges, iters).unwrap()
        });
        for o in &outcomes {
            assert!(
                (o.eigenvalue - ref_lambda).abs() < 1e-9,
                "eigenvalue {} vs {ref_lambda}",
                o.eigenvalue
            );
            for &(vertex, x) in &o.vector {
                assert!(
                    (x - ref_v[vertex as usize]).abs() < 1e-9,
                    "vertex {vertex}: {x} vs {}",
                    ref_v[vertex as usize]
                );
            }
        }
    }

    #[test]
    fn cycle_has_eigenvalue_one() {
        // A directed n-cycle is a permutation matrix: |λ| = 1 and the
        // uniform vector is invariant.
        let n = 16u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let outcomes: Vec<EigenOutcome> = LocalCluster::run(2, |mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let mine: Vec<(u32, u32)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == me)
                .map(|(_, e)| *e)
                .collect();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            power_iteration(&mut comm, &kylix, n as u64, &mine, 8).unwrap()
        });
        for o in &outcomes {
            assert!((o.eigenvalue - 1.0).abs() < 1e-9, "{}", o.eigenvalue);
        }
    }

    #[test]
    fn nilpotent_chain_collapses_to_zero() {
        // A directed path is nilpotent: power iteration dies out once
        // the mass walks off the end.
        let edges: Vec<(u32, u32)> = (0..5u32).map(|v| (v, v + 1)).collect();
        let outcomes: Vec<EigenOutcome> = LocalCluster::run(2, |mut comm| {
            let me = kylix_net::Comm::rank(&comm);
            let mine: Vec<(u32, u32)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == me)
                .map(|(_, e)| *e)
                .collect();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            power_iteration(&mut comm, &kylix, 6, &mine, 20).unwrap()
        });
        for o in &outcomes {
            assert_eq!(o.eigenvalue, 0.0);
        }
    }
}
