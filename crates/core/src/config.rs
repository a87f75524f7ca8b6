//! The configuration pass (paper §III.A).
//!
//! Configuration runs **down** the nested butterfly only. At layer `i`
//! every node partitions its current `in` and `out` index sets into `dᵢ`
//! equal hash ranges, ships part `c` to the group member with coordinate
//! `c`, and unions the `dᵢ` parts it receives (own part included) with a
//! tree merge. The merge's position maps are retained:
//!
//! * `out_maps[c]` — the paper's map `f`: positions in the part sent by
//!   coordinate `c` → positions in the out-union. The reduction down
//!   pass scatter-adds value vectors through it in constant time per
//!   element.
//! * `in_maps[c]` — the paper's map `g`: positions in the in-part sent
//!   by coordinate `c` → positions in the in-union. The up pass gathers
//!   a neighbour's requested values through it.
//!
//! Because the partition is by *contiguous hash range* and group members
//! share their previous range, a node's own split spans are contiguous
//! slices of its sorted set — so the up pass can rebuild the previous
//! layer's vector by writing the returned slices back into those spans,
//! the "simply concatenates them" of §III.B.
//!
//! The same down pass optionally carries reduction values along with the
//! out-index parts (*combined mode*, used by minibatch workloads where
//! in/out sets change every operation — §III: "it is more efficient to
//! do configuration and reduction concurrently with combined network
//! messages"). `run_down_pass` therefore takes an optional value
//! rider and is shared by `configure` and `allreduce_combined`. The
//! rider lives in the reduce passes' pooled buffers, and each layer runs
//! the same three steps as theirs: `send_layer`, `recv_layer` and
//! `fold_parked` (see `reduce`). Its value sections stay parked on the
//! wire until the merge has built the maps, then fold in the reduce
//! pass's order, own slice first, so combined results are bit-identical
//! to `configure` + `reduce`.

use crate::codec::{put_keys, put_values, seal, Decoder, SEAL_LEN};
use crate::error::{surface_corrupt, KylixError, Result};
use crate::plan::NetworkPlan;
use crate::reduce::{fold_parked, load, recv_layer, section, send_layer, ReduceScratch};
use bytes::Bytes;
use kylix_net::{Comm, Phase, Tag};
use kylix_sparse::{tree_merge, IndexSet, Key, Reducer, Scalar};
use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

/// Routing state for one communication layer of one node.
#[derive(Debug, Clone)]
pub struct LayerRouting {
    /// Ranks in this node's group, ordered by coordinate.
    pub group: Vec<usize>,
    /// This node's coordinate (= its position in `group`).
    pub my_pos: usize,
    /// Split spans of the node's previous-layer **out** set, per
    /// coordinate (contiguous, in range order; they tile the set).
    pub out_spans: Vec<Range<usize>>,
    /// Union of the received out-parts — the node's out set below.
    pub out_union: IndexSet,
    /// Map `f`: per sender coordinate, part positions → union positions.
    pub out_maps: Vec<Vec<u32>>,
    /// Split spans of the previous-layer **in** set, per coordinate.
    pub in_spans: Vec<Range<usize>>,
    /// Union of the received in-parts — the node's in set below.
    pub in_union: IndexSet,
    /// Map `g`: per sender coordinate, part positions → union positions.
    pub in_maps: Vec<Vec<u32>>,
}

impl LayerRouting {
    /// Length of the previous layer's in set (what the up pass rebuilds).
    pub fn in_prev_len(&self) -> usize {
        self.in_spans.last().map_or(0, |s| s.end)
    }
}

/// Receive scheduling of the reduction passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecvOrder {
    /// Block on group members in coordinate order. One slow peer stalls
    /// the whole layer; kept to benchmark the opportunistic win (and as
    /// the reference schedule that float reductions reproduce bit for
    /// bit in arrival order).
    Fixed,
    /// Take slices as they land (`recv_any` over the group) — the
    /// paper's §VI.B multi-threaded opportunistic communication.
    #[default]
    Arrival,
}

/// Per-value-type scratch slots kept on [`Configured`] between reduce
/// operations (send arena, accumulators, parked arrivals). The store is
/// type-erased because `Configured` itself is not generic over the
/// value type; each `V` gets one slot.
///
/// Cloning a `Configured` starts the clone with an empty store —
/// scratch is a cache, not state.
#[derive(Default)]
pub(crate) struct ScratchStore {
    slots: HashMap<TypeId, Box<dyn Any + Send>>,
}

impl ScratchStore {
    /// Remove and return the slot for `T`, or a fresh default. The
    /// caller puts it back when done — taking it out keeps the borrow
    /// checker happy while the rest of `self` is read.
    pub(crate) fn take<T: Default + Send + 'static>(&mut self) -> Box<T> {
        self.slots
            .remove(&TypeId::of::<T>())
            .and_then(|b| b.downcast().ok())
            .unwrap_or_default()
    }

    pub(crate) fn put<T: Send + 'static>(&mut self, slot: Box<T>) {
        self.slots.insert(TypeId::of::<T>(), slot);
    }
}

impl std::fmt::Debug for ScratchStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScratchStore")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl Clone for ScratchStore {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Fully configured routing state for one node: everything reduction
/// needs, reusable across any number of reduce calls with the same
/// in/out sets (e.g. every PageRank iteration).
#[derive(Debug, Clone)]
pub struct Configured {
    /// The topology.
    pub plan: NetworkPlan,
    /// This node's rank.
    pub rank: usize,
    /// Channel id the instance was configured on (tag namespace).
    pub channel: u32,
    /// Number of reduce operations already issued on this state (used to
    /// derive fresh tag sequence numbers).
    pub ops_issued: u32,
    /// The node's sorted top-layer in set.
    pub in0: IndexSet,
    /// The node's sorted top-layer out set.
    pub out0: IndexSet,
    /// Per-layer routing, top to bottom.
    pub layers: Vec<LayerRouting>,
    /// Positions of the bottom in-union's keys inside the bottom
    /// out-union (where the fully reduced values live); [`MISSING`] for
    /// requests nobody contributed to (served the reducer identity).
    pub bottom_in_to_out: Vec<u32>,
    /// User in-list position → sorted `in0` position.
    pub in_user_map: Vec<u32>,
    /// Sorted `out0` position → the first user out-list position that
    /// holds its index. A reduce loads the caller's values into sorted
    /// layout by gathering through it.
    pub out_first: Vec<u32>,
    /// `(out0 position, user out-list position)` for every later
    /// occurrence of an index in the user out list, in out-list order
    /// per position: folded in after the gather, so duplicates combine
    /// in the caller's order.
    pub out_repeats: Vec<(u32, u32)>,
    /// Receive scheduling of the reduction passes (default: arrival
    /// order, §VI.B).
    pub recv_order: RecvOrder,
    /// Pooled per-op buffers, reused across reduce calls (reset on
    /// clone).
    pub(crate) scratch: ScratchStore,
}

/// Sentinel in `bottom_in_to_out` for a requested index no node
/// contributed to; the reduction serves the reducer identity there.
pub const MISSING: u32 = u32::MAX;

/// Encoded size bookkeeping for self-"messages" (the paper's Fig. 5
/// counts traffic *including packets to its own*). Section sizes only —
/// add [`SEAL_LEN`] once per message for the checksum frame.
pub(crate) fn keys_wire_len(n: usize) -> usize {
    8 + 8 * n
}

pub(crate) fn values_wire_len<V: Scalar>(n: usize) -> usize {
    8 + V::WIDTH * n
}

/// Run the configuration down pass, optionally carrying reduction
/// values (combined mode).
///
/// `user_out_values`, when provided, is aligned with the caller's
/// original out list; the rider is reduced on the way down
/// exactly like a standalone reduce pass would. Returns the configured
/// state and the pooled scratch the pass ran on; in combined mode its
/// `a` holds the node's fully reduced values, aligned with the bottom
/// out-union.
pub(crate) fn run_down_pass<C, V, R>(
    comm: &mut C,
    plan: &NetworkPlan,
    channel: u32,
    in_indices: &[u64],
    out_indices: &[u64],
    user_out_values: Option<&[V]>,
    reducer: R,
) -> Result<(Configured, Box<ReduceScratch<V>>)>
where
    C: Comm,
    V: Scalar,
    R: Reducer<V>,
{
    let rank = comm.rank();
    assert_eq!(
        comm.size(),
        plan.size(),
        "plan size {} != communicator size {}",
        plan.size(),
        comm.size()
    );
    let (in0, in_user_map) = IndexSet::with_positions(in_indices);
    let (out0, out_first, out_repeats) = IndexSet::with_sources(out_indices);

    // Combined mode rides the reduce pass's pooled buffers: the rider
    // starts in sorted layout in `a` and is folded into `b` per layer.
    let mut scratch: Box<ReduceScratch<V>> = Box::default();
    let phase = match user_out_values {
        None => Phase::Config,
        Some(uv) if uv.len() != out_indices.len() => {
            return Err(KylixError::Usage {
                what: "out_values length != out_indices length",
            })
        }
        Some(uv) => {
            load(&mut scratch.a, uv, &out_first, &out_repeats, reducer);
            Phase::Combined
        }
    };
    let combined = phase == Phase::Combined;
    let ReduceScratch {
        a,
        b,
        parked,
        pending,
        ..
    } = &mut *scratch;

    let mut layers: Vec<LayerRouting> = Vec::with_capacity(plan.layers());
    for layer in 0..plan.layers() {
        let (cur_out, cur_in) = current_sets(&layers, &out0, &in0);
        let d = plan.degrees()[layer];
        let group = plan.group(rank, layer);
        let my_pos = plan.coordinate(rank, layer);
        let my_range = plan.range_at(rank, layer);
        let sub_ranges = my_range.split(d);
        debug_assert!(cur_out.all_within(&my_range), "out keys escaped range");
        debug_assert!(cur_in.all_within(&my_range), "in keys escaped range");
        let out_spans: Vec<Range<usize>> = sub_ranges.iter().map(|r| cur_out.span_of(r)).collect();
        let in_spans: Vec<Range<usize>> = sub_ranges.iter().map(|r| cur_in.span_of(r)).collect();
        let tag = Tag::new(phase, layer as u16, channel);

        // A part: the out keys, in combined mode their values, the in
        // keys.
        let wire = |c: usize| {
            let values = if combined {
                values_wire_len::<V>(out_spans[c].len())
            } else {
                0
            };
            keys_wire_len(out_spans[c].len()) + values + keys_wire_len(in_spans[c].len()) + SEAL_LEN
        };
        send_layer(comm, &group, my_pos, tag, wire(my_pos), |c| {
            let mut buf = Vec::with_capacity(wire(c));
            put_keys(&mut buf, &cur_out.keys()[out_spans[c].clone()]);
            if combined {
                put_values(&mut buf, &a[out_spans[c].clone()]);
            }
            put_keys(&mut buf, &cur_in.keys()[in_spans[c].clone()]);
            seal(buf)
        });

        // Every coordinate's parts: the own part borrowed from the local
        // sets, the peers' decoded as they land (§VI.B's opportunistic
        // receive; the union and the maps do not depend on arrival
        // order). In combined mode each peer's value section stays on
        // the wire, parked, until the union's maps exist.
        let mut out_parts = vec![Cow::Borrowed(&cur_out.keys()[out_spans[my_pos].clone()]); d];
        let mut in_parts = vec![Cow::Borrowed(&cur_in.keys()[in_spans[my_pos].clone()]); d];
        parked.clear();
        parked.resize(d, None);
        let on_part = |c: usize, payload: Bytes| -> Result<()> {
            let mut dec =
                Decoder::new(&payload).map_err(surface_corrupt("config down", group[c], tag))?;
            out_parts[c] = Cow::Owned(dec.keys()?);
            if combined {
                let (n, raw) = dec.raw_values::<V>()?;
                if n != out_parts[c].len() {
                    return Err(KylixError::Codec {
                        what: "combined values misaligned with keys",
                    });
                }
                parked[c] = Some(section(&payload, raw));
            }
            in_parts[c] = Cow::Owned(dec.keys()?);
            if !dec.finished() {
                return Err(KylixError::Codec {
                    what: "trailing bytes in config message",
                });
            }
            Ok(())
        };
        recv_layer(
            comm,
            RecvOrder::Arrival,
            pending,
            &group,
            my_pos,
            tag,
            on_part,
        )?;

        // Union with maps (tree merge, §VI.A).
        let mut parts: Vec<&[Key]> = out_parts.iter().map(|p| &p[..]).collect();
        let out_merged = tree_merge(&parts);
        parts.clear();
        parts.extend(in_parts.iter().map(|p| &p[..]));
        let in_merged = tree_merge(&parts);

        // Combined mode: fold the values into the union layout in the
        // reduce pass's order, whatever the arrival order, so results
        // stay bit-identical to `configure` + `reduce`.
        if combined {
            b.clear();
            b.resize(out_merged.union.len(), reducer.identity());
            let own = &a[out_spans[my_pos].clone()];
            fold_parked(b, own, parked, &mut 0, &out_merged.maps, my_pos, reducer);
            std::mem::swap(a, b);
        }

        layers.push(LayerRouting {
            group,
            my_pos,
            out_spans,
            out_union: IndexSet::from_sorted_keys(out_merged.union),
            out_maps: out_merged.maps,
            in_spans,
            in_union: IndexSet::from_sorted_keys(in_merged.union),
            in_maps: in_merged.maps,
        });
    }

    // Bottom: locate every requested (in) key inside the reduced (out)
    // layout. A request nobody contributed to is marked MISSING and
    // served the reducer identity — the sum over an empty set — so
    // callers need not zero-pad their out sets for coverage (the paper
    // states the `∪ in ⊆ ∪ out` contract; we weaken it to "uncovered
    // requests read as identity", which subsumes it).
    let (cur_out, cur_in) = current_sets(&layers, &out0, &in0);
    let bottom_in_to_out = locate_sorted(cur_in.keys(), cur_out.keys());

    let configured = Configured {
        plan: plan.clone(),
        rank,
        channel,
        ops_issued: 0,
        in0,
        out0,
        layers,
        bottom_in_to_out,
        in_user_map,
        out_first,
        out_repeats,
        recv_order: RecvOrder::default(),
        scratch: ScratchStore::default(),
    };
    Ok((configured, scratch))
}

/// The node's current `(out, in)` sets: the last layer's unions, or the
/// top-layer sets before the first layer.
fn current_sets<'a>(
    layers: &'a [LayerRouting],
    out0: &'a IndexSet,
    in0: &'a IndexSet,
) -> (&'a IndexSet, &'a IndexSet) {
    layers
        .last()
        .map_or((out0, in0), |l| (&l.out_union, &l.in_union))
}

/// Position of each of the sorted `needles` in the sorted `hay`, or
/// [`MISSING`]: one linear walk of both.
fn locate_sorted(needles: &[Key], hay: &[Key]) -> Vec<u32> {
    let mut j = 0;
    needles
        .iter()
        .map(|k| {
            while j < hay.len() && hay[j] < *k {
                j += 1;
            }
            if hay.get(j) == Some(k) {
                j as u32
            } else {
                MISSING
            }
        })
        .collect()
}

impl Configured {
    /// Elements of fully reduced data this node holds at the bottom
    /// (the last bar of the paper's Fig. 5).
    pub fn bottom_elems(&self) -> usize {
        self.layers
            .last()
            .map_or(self.out0.len(), |l| l.out_union.len())
    }

    /// Per-layer element counts this node *sends or keeps* during a
    /// reduce down pass (self part included) — the measured volume
    /// profile behind Fig. 5, in elements.
    pub fn down_volume_elems(&self) -> Vec<usize> {
        self.layers
            .iter()
            .map(|l| l.out_spans.iter().map(|s| s.len()).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_net::LocalCluster;
    use kylix_sparse::SumReducer;

    /// The bottom map's linear walk agrees with a binary search of every
    /// bottom in-key in the bottom out-set, uncovered requests included.
    #[test]
    fn bottom_in_to_out_matches_binary_search() {
        let plan = NetworkPlan::new(&[2, 2, 2]);
        let results = LocalCluster::run(plan.size(), |mut comm| {
            let r = comm.rank() as u64;
            // Outs cover 0..400 between them; ins also ask for 1000.. ,
            // which no rank contributes.
            let out: Vec<u64> = (0..80).map(|i| (i * 5 + r * 7) % 400).collect();
            let inn: Vec<u64> = (0..60).map(|i| (i * 11 + r * 13) % 1200).collect();
            run_down_pass::<_, f64, _>(&mut comm, &plan, 0, &inn, &out, None, SumReducer)
                .expect("configure")
                .0
        });
        let mut missing = 0;
        for cfg in &results {
            let bottom = cfg.layers.last().expect("three layers");
            let oracle: Vec<u32> = bottom
                .in_union
                .keys()
                .iter()
                .map(|k| bottom.out_union.position(*k).map_or(MISSING, |p| p as u32))
                .collect();
            assert_eq!(cfg.bottom_in_to_out, oracle, "rank {}", cfg.rank);
            missing += oracle.iter().filter(|&&p| p == MISSING).count();
        }
        assert!(missing > 0, "no uncovered request exercised");
    }
}
