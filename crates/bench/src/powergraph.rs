//! A simplified PowerGraph-style GAS (gather–apply–scatter) engine.
//!
//! PowerGraph [Gonzalez et al., OSDI'12] is the strongest published
//! comparator in the paper's Fig. 8. Its execution model on a vertex-cut
//! partition:
//!
//! * every vertex has a **master** machine (here: its hash, mod `m` —
//!   the balanced random assignment the paper also uses);
//! * machines holding edges of a vertex keep **mirror** copies;
//! * each iteration, mirrors *gather* partial sums to the master
//!   (direct all-to-all traffic), the master *applies* the vertex
//!   program, and *scatters* the new value back to mirrors (direct
//!   all-to-all again).
//!
//! The engine here implements exactly that protocol for the PageRank
//! vertex program over a random edge partition: a one-time setup
//! handshake builds subscriber/contributor tables and aggregates global
//! out-degrees at the masters, then each iteration exchanges values
//! positionally along those tables. All traffic is direct all-to-all —
//! the communication pattern whose packet-size pathology Kylix's nested
//! butterfly removes; run on the simulator it reproduces the Fig. 8
//! gap.

use kylix::codec::{decode_values, encode_keys, encode_values};
use kylix::error::{comm_err, KylixError, Result};
use kylix_net::{Comm, Phase, Tag};
use kylix_sparse::{mix64, IndexSet, Key};

/// Per-peer routing tables plus master state for PageRank.
pub(crate) struct GasEngine {
    m: usize,
    n_vertices: u64,
    /// Edges as (src position in `srcs`, dst position in `dsts`).
    edge_pos: Vec<(u32, u32)>,
    /// Distinct local source vertices (mirror set needing ranks).
    srcs: IndexSet,
    /// Distinct local destination vertices (gather contributions).
    dsts: IndexSet,
    /// Vertices mastered on this machine (union of everyone's needs).
    mastered: IndexSet,
    /// For each peer: positions in `mastered` of the dst list that peer
    /// contributes partial sums for.
    contributor_maps: Vec<Vec<u32>>,
    /// For each peer: positions in `mastered` of the src list that peer
    /// subscribed to (ranks to scatter).
    subscriber_maps: Vec<Vec<u32>>,
    /// For each peer: positions in `srcs` of the ranks that peer's
    /// master shard will send us.
    src_recv_maps: Vec<Vec<u32>>,
    /// For each peer: positions in `dsts` of the partial sums we send
    /// that peer's master shard.
    dst_send_maps: Vec<Vec<u32>>,
    /// Global out-degree of each local src (mirror cache).
    src_deg: Vec<f64>,
    /// Current rank of each local src (mirror cache).
    src_rank: Vec<f64>,
    /// Master state: current rank of each mastered vertex.
    master_rank: Vec<f64>,
}

fn master_of(v: u64, m: usize) -> usize {
    (mix64(v) % m as u64) as usize
}

impl GasEngine {
    /// One-time graph finalisation: exchange subscriber/contributor
    /// tables and aggregate global out-degrees at the masters.
    #[allow(clippy::needless_range_loop)] // `p` is a peer rank, not an index
    pub(crate) fn setup<C: Comm>(
        comm: &mut C,
        n_vertices: u64,
        local_edges: &[(u32, u32)],
        channel: u32,
    ) -> Result<Self> {
        let m = comm.size();
        let src_ids: Vec<u64> = local_edges.iter().map(|e| e.0 as u64).collect();
        let dst_ids: Vec<u64> = local_edges.iter().map(|e| e.1 as u64).collect();
        let (srcs, src_pos) = IndexSet::with_positions(&src_ids);
        let (dsts, dst_pos) = IndexSet::with_positions(&dst_ids);
        let edge_pos: Vec<(u32, u32)> = src_pos.into_iter().zip(dst_pos).collect();

        // Partition local src / dst vertex lists by master.
        let split_by_master = |set: &IndexSet| -> Vec<Vec<Key>> {
            let mut parts = vec![Vec::new(); m];
            for k in set.keys() {
                parts[master_of(k.index, m)].push(*k);
            }
            parts
        };
        let src_parts = split_by_master(&srcs);
        let dst_parts = split_by_master(&dsts);

        let t_sub = Tag::new(Phase::Config, 0, channel);
        let t_con = Tag::new(Phase::Config, 1, channel);
        for p in 0..m {
            if p == comm.rank() {
                continue;
            }
            comm.send(p, t_sub, encode_keys(&src_parts[p]));
            comm.send(p, t_con, encode_keys(&dst_parts[p]));
        }
        let mut sub_lists: Vec<Vec<Key>> = vec![Vec::new(); m];
        let mut con_lists: Vec<Vec<Key>> = vec![Vec::new(); m];
        for p in 0..m {
            if p == comm.rank() {
                sub_lists[p] = src_parts[p].clone();
                con_lists[p] = dst_parts[p].clone();
                continue;
            }
            let payload = comm.recv(p, t_sub).map_err(comm_err("gas setup subs"))?;
            sub_lists[p] = kylix::codec::decode_keys(&payload)?;
            let payload = comm
                .recv(p, t_con)
                .map_err(comm_err("gas setup contribs"))?;
            con_lists[p] = kylix::codec::decode_keys(&payload)?;
        }

        // Mastered set = union of everything peers ask about.
        let mut all: Vec<Key> = sub_lists
            .iter()
            .chain(con_lists.iter())
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        let mastered = IndexSet::from_sorted_keys(all);

        let pos_in = |set: &IndexSet, list: &[Key]| -> Vec<u32> {
            list.iter()
                .map(|k| set.position(*k).expect("present by construction") as u32)
                .collect()
        };
        let subscriber_maps: Vec<Vec<u32>> =
            sub_lists.iter().map(|l| pos_in(&mastered, l)).collect();
        let contributor_maps: Vec<Vec<u32>> =
            con_lists.iter().map(|l| pos_in(&mastered, l)).collect();
        let src_recv_maps: Vec<Vec<u32>> = src_parts.iter().map(|l| pos_in(&srcs, l)).collect();
        let dst_send_maps: Vec<Vec<u32>> = dst_parts.iter().map(|l| pos_in(&dsts, l)).collect();

        // Degree aggregation: local edge counts per src → masters → back.
        let mut local_deg = vec![0.0f64; srcs.len()];
        for &(sp, _) in &edge_pos {
            local_deg[sp as usize] += 1.0;
        }
        let t_deg = Tag::new(Phase::Config, 2, channel);
        for p in 0..m {
            if p == comm.rank() {
                continue;
            }
            let vals: Vec<f64> = src_recv_maps[p]
                .iter()
                .map(|&sp| local_deg[sp as usize])
                .collect();
            comm.send(p, t_deg, encode_values(&vals));
        }
        let mut master_deg = vec![0.0f64; mastered.len()];
        for p in 0..m {
            let vals: Vec<f64> = if p == comm.rank() {
                src_recv_maps[p]
                    .iter()
                    .map(|&sp| local_deg[sp as usize])
                    .collect()
            } else {
                let payload = comm.recv(p, t_deg).map_err(comm_err("gas setup degrees"))?;
                decode_values(&payload)?
            };
            if vals.len() != subscriber_maps[p].len() {
                return Err(KylixError::Codec {
                    what: "degree vector misaligned with subscriber list",
                });
            }
            for (&mp, v) in subscriber_maps[p].iter().zip(vals) {
                master_deg[mp as usize] += v;
            }
        }
        // Masters return summed degrees to subscribers.
        let t_deg2 = Tag::new(Phase::Config, 3, channel);
        for p in 0..m {
            if p == comm.rank() {
                continue;
            }
            let vals: Vec<f64> = subscriber_maps[p]
                .iter()
                .map(|&mp| master_deg[mp as usize])
                .collect();
            comm.send(p, t_deg2, encode_values(&vals));
        }
        let mut src_deg = vec![0.0f64; srcs.len()];
        for p in 0..m {
            let vals: Vec<f64> = if p == comm.rank() {
                subscriber_maps[p]
                    .iter()
                    .map(|&mp| master_deg[mp as usize])
                    .collect()
            } else {
                let payload = comm
                    .recv(p, t_deg2)
                    .map_err(comm_err("gas setup degree return"))?;
                decode_values(&payload)?
            };
            for (&sp, v) in src_recv_maps[p].iter().zip(vals) {
                src_deg[sp as usize] = v;
            }
        }

        let n_srcs = srcs.len();
        let n_mastered = mastered.len();
        Ok(Self {
            m,
            n_vertices,
            edge_pos,
            srcs,
            dsts,
            mastered,
            contributor_maps,
            subscriber_maps,
            src_recv_maps,
            dst_send_maps,
            src_deg,
            src_rank: vec![1.0 / n_vertices as f64; n_srcs],
            master_rank: vec![1.0 / n_vertices as f64; n_mastered],
        })
    }

    /// One PageRank GAS super-step. `iter` namespaces the message tags.
    #[allow(clippy::needless_range_loop)] // `p` is a peer rank, not an index
    pub(crate) fn pagerank_step<C: Comm>(
        &mut self,
        comm: &mut C,
        damping: f64,
        iter: u32,
    ) -> Result<()> {
        let me = comm.rank();
        // Gather (local): partial sums over local edges.
        let mut partial = vec![0.0f64; self.dsts.len()];
        for &(sp, dp) in &self.edge_pos {
            let deg = self.src_deg[sp as usize];
            if deg > 0.0 {
                partial[dp as usize] += self.src_rank[sp as usize] / deg;
            }
        }
        // Gather (network): mirrors → masters. Like the real
        // PowerGraph, every message is *keyed* — (vertex id, value)
        // pairs — and the master resolves ids on receipt; ids are not
        // amortised away by a configuration pass.
        let t_g = Tag::new(Phase::App, 0, iter);
        for p in 0..self.m {
            if p == me {
                continue;
            }
            let keys: Vec<kylix_sparse::Key> = self.dst_send_maps[p]
                .iter()
                .map(|&dp| *self.dsts.keys().get(dp as usize).expect("dst pos"))
                .collect();
            let vals: Vec<f64> = self.dst_send_maps[p]
                .iter()
                .map(|&dp| partial[dp as usize])
                .collect();
            let mut buf = Vec::with_capacity(16 + keys.len() * 16);
            kylix::codec::put_keys(&mut buf, &keys);
            kylix::codec::put_values(&mut buf, &vals);
            comm.send(p, t_g, kylix::codec::seal(buf));
        }
        let mut acc = vec![0.0f64; self.mastered.len()];
        // Self contributions use the local tables directly.
        for (&mp, &dp) in self.contributor_maps[me]
            .iter()
            .zip(&self.dst_send_maps[me])
        {
            acc[mp as usize] += partial[dp as usize];
        }
        for p in 0..self.m {
            if p == me {
                continue;
            }
            let payload = comm.recv(p, t_g).map_err(comm_err("gas gather"))?;
            let mut dec = kylix::codec::Decoder::new(&payload)
                .map_err(kylix::error::surface_corrupt("gas gather", p, t_g))?;
            let keys = dec.keys()?;
            let vals: Vec<f64> = dec.values()?;
            if keys.len() != vals.len() {
                return Err(KylixError::Codec {
                    what: "gather keys misaligned with values",
                });
            }
            for (k, v) in keys.iter().zip(vals) {
                let mp = self.mastered.position(*k).ok_or(KylixError::Codec {
                    what: "gathered vertex not mastered here",
                })?;
                acc[mp] += v;
            }
        }
        // Apply.
        let base = (1.0 - damping) / self.n_vertices as f64;
        for (r, a) in self.master_rank.iter_mut().zip(&acc) {
            *r = base + damping * a;
        }
        // Scatter: masters → mirrors, keyed like the gather.
        let t_s = Tag::new(Phase::App, 1, iter);
        for p in 0..self.m {
            if p == me {
                continue;
            }
            let keys: Vec<kylix_sparse::Key> = self.subscriber_maps[p]
                .iter()
                .map(|&mp| self.mastered.keys()[mp as usize])
                .collect();
            let vals: Vec<f64> = self.subscriber_maps[p]
                .iter()
                .map(|&mp| self.master_rank[mp as usize])
                .collect();
            let mut buf = Vec::with_capacity(16 + keys.len() * 16);
            kylix::codec::put_keys(&mut buf, &keys);
            kylix::codec::put_values(&mut buf, &vals);
            comm.send(p, t_s, kylix::codec::seal(buf));
        }
        for (&sp, &mp) in self.src_recv_maps[me].iter().zip(&self.subscriber_maps[me]) {
            self.src_rank[sp as usize] = self.master_rank[mp as usize];
        }
        for p in 0..self.m {
            if p == me {
                continue;
            }
            let payload = comm.recv(p, t_s).map_err(comm_err("gas scatter"))?;
            let mut dec = kylix::codec::Decoder::new(&payload)
                .map_err(kylix::error::surface_corrupt("gas scatter", p, t_s))?;
            let keys = dec.keys()?;
            let vals: Vec<f64> = dec.values()?;
            for (k, v) in keys.iter().zip(vals) {
                let sp = self.srcs.position(*k).ok_or(KylixError::Codec {
                    what: "scattered vertex not a local source",
                })?;
                self.src_rank[sp] = v;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::LocalCluster;
    use kylix_powerlaw::{Csr, EdgeList};

    impl GasEngine {
        /// The `(vertex, rank)` pairs mastered on this machine.
        fn mastered_ranks(&self) -> Vec<(u64, f64)> {
            self.mastered
                .indices()
                .zip(self.master_rank.iter().copied())
                .collect()
        }
    }

    /// Distributed GAS PageRank must match the single-node reference on
    /// every tracked vertex.
    #[test]
    fn gas_pagerank_matches_reference() {
        let g = EdgeList::power_law(200, 2000, 1.1, 1.1, 5);
        let csr = Csr::from_edges(200, &g.edges);
        let iters = 8;
        let expected = csr.pagerank_reference(iters, 0.85);
        let m = 4;
        let parts = g.partition_random(m, 9);
        let ranks: Vec<Vec<(u64, f64)>> = LocalCluster::run(m, |mut comm| {
            let me = comm.rank();
            let mut engine = GasEngine::setup(&mut comm, 200, &parts[me].edges, 0).unwrap();
            for it in 0..iters {
                engine
                    .pagerank_step(&mut comm, 0.85, it as u32 + 1)
                    .unwrap();
            }
            engine.mastered_ranks()
        });
        let mut seen = 0;
        for node_ranks in &ranks {
            for &(v, r) in node_ranks {
                assert!(
                    (r - expected[v as usize]).abs() < 1e-9,
                    "vertex {v}: {r} vs {}",
                    expected[v as usize]
                );
                seen += 1;
            }
        }
        assert!(seen > 0, "no vertices tracked");
    }

    /// Each vertex is mastered on exactly one machine.
    #[test]
    fn masters_partition_tracked_vertices() {
        let g = EdgeList::power_law(100, 500, 1.0, 1.0, 6);
        let parts = g.partition_random(3, 2);
        let mastered: Vec<Vec<u64>> = LocalCluster::run(3, |mut comm| {
            let me = comm.rank();
            let engine = GasEngine::setup(&mut comm, 100, &parts[me].edges, 0).unwrap();
            engine
                .mastered_ranks()
                .into_iter()
                .map(|(v, _)| v)
                .collect()
        });
        let mut all: Vec<u64> = mastered.iter().flatten().copied().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a vertex was mastered twice");
        // And the union covers every vertex with an edge.
        let tracked: std::collections::HashSet<u64> = g
            .edges
            .iter()
            .flat_map(|&(s, d)| [s as u64, d as u64])
            .collect();
        assert_eq!(all.len(), tracked.len());
    }
}
