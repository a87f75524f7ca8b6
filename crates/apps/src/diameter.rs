//! HADI-style effective-diameter estimation (paper §I.A.2, ref.\ 13).
//!
//! The HADI algorithm estimates neighbourhood sizes `N(h)` — how many
//! vertex pairs are within `h` hops — with Flajolet–Martin bitstring
//! sketches: vertex `v`'s sketch at radius `h+1` is the bitwise OR of
//! its neighbours' radius-`h` sketches plus its own, which is exactly a
//! sparse allreduce with the `|` reducer. We run `R` independent
//! sketches per vertex (feature id `v·R + r`) and estimate
//! `|N_h(v)| ≈ 2^{b̄} / 0.77351`, where `b̄` is the mean position of the
//! lowest zero bit across the `R` copies. The effective diameter is the
//! smallest `h` with `N(h) ≥ 0.9 · N(h_max)`.

use kylix::{Kylix, Result};
use kylix_net::Comm;
use kylix_sparse::{BitOrReducer, IndexSet, SumReducer, Xoshiro256};

/// Flajolet–Martin correction constant.
const FM_PHI: f64 = 0.77351;

/// One machine's view of the neighbourhood function.
#[derive(Debug, Clone)]
pub struct DiameterEstimate {
    /// `N(h)` for `h = 0, 1, …` — the global neighbourhood function.
    pub neighbourhood: Vec<f64>,
    /// Smallest `h` with `N(h) ≥ 0.9 · N(max)`.
    pub effective_diameter: usize,
}

/// Draw the initial FM sketch of one vertex copy: bit `b` set with
/// probability `2^{-(b+1)}`.
fn initial_sketch(rng: &mut Xoshiro256) -> u64 {
    let u = rng.next_u64();
    // Geometric: position of lowest set bit of a uniform word.
    1u64 << (u.trailing_zeros().min(63))
}

/// Lowest-zero-bit position of a sketch.
fn lowest_zero(sketch: u64) -> u32 {
    (!sketch).trailing_zeros()
}

/// Distributed HADI: estimate the neighbourhood function and effective
/// diameter of the *undirected* view of the graph. Collective call;
/// every machine returns the same estimate.
pub fn distributed_diameter<C: Comm>(
    comm: &mut C,
    kylix: &Kylix,
    local_edges: &[(u32, u32)],
    n_vertices: u64,
    sketches: usize,
    max_h: usize,
    seed: u64,
) -> Result<DiameterEstimate> {
    let r = sketches as u64;
    let endpoints: Vec<u64> = local_edges
        .iter()
        .flat_map(|&(s, d)| [s as u64, d as u64])
        .collect();
    let (verts, pos) = IndexSet::with_positions(&endpoints);
    let vert_ids: Vec<u64> = verts.indices().collect();
    let edge_pos: Vec<(u32, u32)> = pos.chunks_exact(2).map(|p| (p[0], p[1])).collect();

    // Feature space: vertex v copy r -> v*R + r. In = our vertices'
    // copies; out = per (undirected) edge the neighbour's copies, plus
    // self copies for coverage.
    let in_idx: Vec<u64> = vert_ids
        .iter()
        .flat_map(|&v| (0..r).map(move |k| v * r + k))
        .collect();
    let out_idx: Vec<u64> = local_edges
        .iter()
        .flat_map(|&(s, d)| {
            let (s, d) = (s as u64, d as u64);
            (0..r).flat_map(move |k| [d * r + k, s * r + k])
        })
        .chain(in_idx.iter().copied())
        .collect();
    let mut sketch_state = kylix.configure(comm, &in_idx, &out_idx, 0)?;
    let mut sum_state = kylix.configure(comm, &[0u64], &[0u64], 1 << 16)?;

    // Initial sketches: deterministic per (vertex, copy) so every
    // machine holding a replica of a vertex draws identical bits.
    let sketch_of = |v: u64, k: u64| -> u64 {
        let mut rng = Xoshiro256::new(kylix_sparse::mix_many(&[seed, v, k]));
        initial_sketch(&mut rng)
    };
    let mut sketch: Vec<u64> = vert_ids
        .iter()
        .flat_map(|&v| (0..r).map(move |k| sketch_of(v, k)))
        .collect();

    // A vertex may be replicated on several machines; to avoid double
    // counting, each vertex is scored by exactly one machine
    // (hash(v) mod m == rank).
    let m = comm.size();
    let me = comm.rank();
    let scores_mine: Vec<usize> = vert_ids
        .iter()
        .enumerate()
        .filter(|(_, &v)| (kylix_sparse::mix64(v) % m as u64) as usize == me)
        .map(|(i, _)| i)
        .collect();

    let mut neighbourhood = Vec::with_capacity(max_h + 1);
    for h in 0..=max_h {
        if h > 0 {
            // OR-allreduce one hop: value order mirrors `out_idx` —
            // per edge, the destination's copy receives the source's
            // sketch and vice versa, then the self copies.
            let mut out_vals: Vec<u64> =
                Vec::with_capacity(edge_pos.len() * 2 * sketches + sketch.len());
            for &(sp, dp) in &edge_pos {
                for k in 0..sketches {
                    out_vals.push(sketch[sp as usize * sketches + k]);
                    out_vals.push(sketch[dp as usize * sketches + k]);
                }
            }
            out_vals.extend_from_slice(&sketch);
            sketch = sketch_state.reduce(comm, &out_vals, BitOrReducer)?;
        }
        // Local contribution to N(h).
        let local: f64 = scores_mine
            .iter()
            .map(|&i| {
                let mean_b: f64 = (0..sketches)
                    .map(|k| lowest_zero(sketch[i * sketches + k]) as f64)
                    .sum::<f64>()
                    / sketches as f64;
                2f64.powf(mean_b) / FM_PHI
            })
            .sum();
        // Sum across machines (bit-cast through u64 to reuse the u64
        // reducer would lose precision; use a second f64 allreduce).
        let total = sum_state.reduce(comm, &[(local * 1e6) as u64], SumReducer)?[0] as f64 / 1e6;
        neighbourhood.push(total);
    }
    let target = 0.9 * neighbourhood.last().copied().unwrap_or(0.0);
    let effective_diameter = neighbourhood
        .iter()
        .position(|&nh| nh >= target)
        .unwrap_or(max_h);
    let _ = n_vertices; // documented scale parameter, not needed by the estimator
    Ok(DiameterEstimate {
        neighbourhood,
        effective_diameter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix::NetworkPlan;
    use kylix_net::LocalCluster;

    #[test]
    fn sketch_initialisation_is_geometric() {
        let mut rng = Xoshiro256::new(1);
        let mut bit0 = 0usize;
        let n = 100_000;
        for _ in 0..n {
            if initial_sketch(&mut rng) & 1 != 0 {
                bit0 += 1;
            }
        }
        let frac = bit0 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "bit0 rate {frac}");
    }

    #[test]
    fn lowest_zero_examples() {
        assert_eq!(lowest_zero(0b0), 0);
        assert_eq!(lowest_zero(0b1), 1);
        assert_eq!(lowest_zero(0b111), 3);
        assert_eq!(lowest_zero(0b1011), 2);
    }

    #[test]
    fn cycle_has_known_effective_diameter() {
        // A 32-cycle (undirected view): N(h) saturates at h = 16; the
        // 90 % point lands near 0.9*16 ≈ 14.
        let n = 32u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let parts: Vec<Vec<(u32, u32)>> = (0..2)
            .map(|k| {
                edges
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == k)
                    .map(|(_, e)| *e)
                    .collect()
            })
            .collect();
        let estimates: Vec<DiameterEstimate> = LocalCluster::run(2, |mut comm| {
            let me = comm.rank();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            distributed_diameter(&mut comm, &kylix, &parts[me], n as u64, 16, 20, 7).unwrap()
        });
        for e in &estimates {
            assert!(
                (10..=18).contains(&e.effective_diameter),
                "effective diameter {} (N = {:?})",
                e.effective_diameter,
                e.neighbourhood
            );
            // Monotone non-decreasing neighbourhood function.
            for w in e.neighbourhood.windows(2) {
                assert!(w[1] >= w[0] - 1e-6);
            }
        }
        // All machines agree.
        assert_eq!(
            estimates[0].effective_diameter,
            estimates[1].effective_diameter
        );
    }

    #[test]
    fn star_graph_has_tiny_diameter() {
        let edges: Vec<(u32, u32)> = (1..40u32).map(|v| (0, v)).collect();
        let estimates: Vec<DiameterEstimate> = LocalCluster::run(2, |mut comm| {
            let me = comm.rank();
            let mine: Vec<(u32, u32)> = edges
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == me)
                .map(|(_, e)| *e)
                .collect();
            let kylix = Kylix::new(NetworkPlan::direct(2));
            distributed_diameter(&mut comm, &kylix, &mine, 40, 16, 6, 9).unwrap()
        });
        for e in &estimates {
            assert!(
                e.effective_diameter <= 2,
                "star diameter {}",
                e.effective_diameter
            );
        }
    }
}
