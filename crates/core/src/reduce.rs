//! The reduction passes (paper §III.B).
//!
//! Reduction reuses the routing state built by configuration:
//!
//! * **Down pass** — at layer `i` a node sends each group neighbour the
//!   contiguous slice of its value vector matching the neighbour's hash
//!   sub-range (no gather needed: the partition spans *are* slices of
//!   the sorted layout), then scatter-adds the `dᵢ` incoming slices into
//!   the union layout through map `f`. After `l` layers every node holds
//!   a fully reduced share of the global vector.
//! * **Up pass** — starting from the reduced bottom values projected
//!   onto the bottom in-union, each layer (bottom to top) gathers, via
//!   map `g`, the values each neighbour requested during configuration
//!   and sends them back; the receiver writes the returned slices into
//!   its original partition spans, rebuilding the previous layer's
//!   in-vector ("simply concatenates them").
//!
//! ### The hot path (paper §VI.B)
//!
//! The paper credits *multi-threaded opportunistic communication* —
//! processing slices in arrival order rather than a fixed peer order —
//! for saturating commodity NICs. Receives here therefore default to
//! `recv_any` over the group ([`RecvOrder::Arrival`]): one slow peer no
//! longer stalls the slices that already landed. Because floating-point
//! addition is not associative, order-sensitive scalars (floats, see
//! `Scalar::ORDER_SENSITIVE`) park out-of-order arrivals and combine
//! them in coordinate order — bit-identical to the fixed-order
//! schedule — while exact integer reducers combine immediately on
//! arrival. The up pass writes disjoint spans, so its arrival order
//! never affects results.
//!
//! Steady-state operations are also **allocation-free**: a
//! `ReduceScratch` slot kept on [`Configured`] pools the send arena
//! (split-and-frozen per message, reclaimed when receivers drop their
//! handles), ping-pong accumulator buffers, and the gather staging
//! buffer; received slices are scatter-combined straight from the
//! verified wire body (`Decoder::raw_values` +
//! `scatter_combine_le`/`copy_from_le`) without an intermediate
//! `Vec<V>`.
//!
//! Every value loop writes its destination by slice (`scatter_combine`,
//! `copy_from_le`, `copy_from_slice`) or with one `extend` over a map
//! iterator (`gather_into`, the bottom projection in `finish_op`), never
//! with a per-element `push` through `&mut Vec`: a `push` stores the
//! length and loads it back for every element, while `extend` over a
//! sized iterator keeps one write pointer in a register. On twitter-thread
//! (2-vCPU Xeon, `kybench --trace 1`) the gather kernel reads about 0.8 ns
//! per element this way, against 2.2–2.4 ns for the `push` loop.
//!
//! A [`crate::config::Configured`] can issue any number of reductions —
//! the per-iteration path of PageRank-style workloads where the vertex
//! sets are fixed and only values change.

use crate::codec::{encode_values_into, Decoder, SEAL_LEN};
use crate::config::{values_wire_len, Configured, RecvOrder};
use crate::error::{comm_err, surface_corrupt, KylixError, Result};
use bytes::{Bytes, BytesMut};
use kylix_net::telemetry::Counter;
use kylix_net::{Comm, Phase, Tag};
use kylix_sparse::vec::{copy_from_le, gather_into, scatter_combine, scatter_combine_le};
use kylix_sparse::{Reducer, Scalar};

/// Pooled per-op buffers for one value type, kept on [`Configured`]
/// between reduce calls (see `ScratchStore`). Everything here is a
/// cache: dropping it (`Configured::reset_scratch`) only costs the next
/// op a warm-up.
#[derive(Debug, Default)]
pub(crate) struct ReduceScratch<V> {
    /// Send-buffer arena: each message is written in place, split off as
    /// `Bytes`, and the backing storage reclaimed once receivers drop it.
    arena: BytesMut,
    /// Ping-pong value buffers: `a` holds the current layer's input,
    /// `b` the accumulator being built; swapped per layer.
    a: Vec<V>,
    b: Vec<V>,
    /// Up-pass gather staging.
    gathered: Vec<V>,
    /// Deterministic-mode parking: out-of-order down-pass arrivals per
    /// coordinate, held until their turn in the combine order.
    parked: Vec<Option<Bytes>>,
    /// Peers still outstanding in the current arrival-order loop.
    pending: Vec<usize>,
}

impl Configured {
    /// Run one sparse allreduce over previously configured index sets.
    ///
    /// `out_values` is aligned with the caller's original `out_indices`
    /// order (duplicates are combined); the returned vector is aligned
    /// with the original `in_indices` order.
    pub fn reduce<C, V, R>(&mut self, comm: &mut C, out_values: &[V], reducer: R) -> Result<Vec<V>>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        let mut out = Vec::with_capacity(self.in_user_map.len());
        self.reduce_into(comm, out_values, reducer, &mut out)?;
        Ok(out)
    }

    /// [`Self::reduce`] into a caller-provided buffer. With the pooled
    /// scratch this makes steady-state iterations allocation-free end to
    /// end — the per-iteration path of PageRank-style workloads.
    pub fn reduce_into<C, V, R>(
        &mut self,
        comm: &mut C,
        out_values: &[V],
        reducer: R,
        out: &mut Vec<V>,
    ) -> Result<()>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        if out_values.len() != self.out_user_map.len() {
            return Err(KylixError::Usage {
                what: "out_values length != out_indices length",
            });
        }
        // Fresh tag sequence for this operation: the channel id is the
        // namespace, ops_issued the operation counter. Collisions with a
        // concurrently configured instance require the caller to space
        // channel ids (documented on `Kylix::configure`).
        self.ops_issued += 1;
        let seq = self.channel.wrapping_add(self.ops_issued);
        // Take the scratch slot out of `self` so the routing tables stay
        // freely borrowable; put it back whatever the outcome.
        let mut scratch: Box<ReduceScratch<V>> = self.scratch.take();
        let t0 = comm.now();
        let result = self.reduce_op(comm, out_values, reducer, seq, &mut scratch, out);
        self.scratch.put(scratch);
        if result.is_ok() {
            // Histogram the whole collective through the substrate's own
            // clock: virtual seconds on the simulator, wall seconds on
            // real clusters. Two atomic adds — nothing here allocates.
            let nanos = ((comm.now() - t0) * 1e9).round() as u64;
            if let Some(tel) = comm.telemetry() {
                tel.record_op(nanos);
                if tel.tracing() {
                    tel.trace_event(comm.now(), Phase::App as u8, 0, "reduce_op", nanos);
                }
            }
        }
        result
    }

    fn reduce_op<C, V, R>(
        &self,
        comm: &mut C,
        out_values: &[V],
        reducer: R,
        seq: u32,
        s: &mut ReduceScratch<V>,
        out: &mut Vec<V>,
    ) -> Result<()>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        // User order -> sorted layout, combining duplicate indices.
        s.a.clear();
        s.a.resize(self.out0.len(), reducer.identity());
        for (x, &sp) in out_values.iter().zip(&self.out_user_map) {
            reducer.combine(&mut s.a[sp as usize], *x);
        }

        self.down_values(comm, reducer, seq, s)?;
        self.finish_op(comm, reducer, seq, s, out)
    }

    /// Finish a combined config+reduce pass: `bottom` holds the fully
    /// reduced values aligned with the bottom out-union; returns the
    /// results in the caller's in-order. Runs on the pooled scratch,
    /// which stays on `self` for later reduce calls.
    pub(crate) fn finish_combined<C, V, R>(
        &mut self,
        comm: &mut C,
        bottom: Vec<V>,
        reducer: R,
        seq: u32,
    ) -> Result<Vec<V>>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        let mut scratch: Box<ReduceScratch<V>> = self.scratch.take();
        scratch.a = bottom;
        let mut out = Vec::with_capacity(self.in_user_map.len());
        let result = self.finish_op(comm, reducer, seq, &mut scratch, &mut out);
        self.scratch.put(scratch);
        result.map(|()| out)
    }

    /// Second half of every op: project the fully reduced bottom values
    /// in `s.a` onto the bottom in-union (requested indices nobody
    /// contributed to read as the identity), carry them up, and write
    /// them to `out` in the caller's in-order.
    fn finish_op<C, V, R>(
        &self,
        comm: &mut C,
        reducer: R,
        seq: u32,
        s: &mut ReduceScratch<V>,
        out: &mut Vec<V>,
    ) -> Result<()>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        let a = &s.a;
        s.b.clear();
        s.b.extend(self.bottom_in_to_out.iter().map(|&p| {
            if p == crate::config::MISSING {
                reducer.identity()
            } else {
                a[p as usize]
            }
        }));
        std::mem::swap(&mut s.a, &mut s.b);

        self.up_values_pooled(comm, seq, s)?;

        // Sorted layout -> user order.
        gather_into(&s.a, &self.in_user_map, out);
        Ok(())
    }

    /// Down pass: scatter-reduce `s.a` (aligned with `out0`) to the
    /// bottom layer; leaves values aligned with the bottom out-union in
    /// `s.a`.
    fn down_values<C, V, R>(
        &self,
        comm: &mut C,
        reducer: R,
        seq: u32,
        s: &mut ReduceScratch<V>,
    ) -> Result<()>
    where
        C: Comm,
        V: Scalar,
        R: Reducer<V>,
    {
        let ReduceScratch {
            arena,
            a,
            b,
            parked,
            pending,
            ..
        } = &mut *s;
        for (layer, lr) in self.layers.iter().enumerate() {
            let tag = Tag::new(Phase::ReduceDown, layer as u16, seq);
            for (c, &peer) in lr.group.iter().enumerate() {
                if c == lr.my_pos {
                    let bytes = values_wire_len::<V>(lr.out_spans[c].len()) + SEAL_LEN;
                    comm.note_traffic(layer as u16, bytes);
                    // `note_traffic` files under the pseudo-phase so the
                    // traffic report stays whole; the dedicated self
                    // kinds carry the true phase for per-pass figures.
                    if let Some(tel) = comm.telemetry() {
                        let (p, l) = (Phase::ReduceDown as u8, layer as u16);
                        tel.add(p, l, Counter::SelfBytes, bytes as u64);
                        tel.add(p, l, Counter::SelfMsgs, 1);
                    }
                    continue;
                }
                let msg = encode_values_into(arena, &a[lr.out_spans[c].clone()]);
                comm.send(peer, tag, msg);
            }
            b.clear();
            b.resize(lr.out_union.len(), reducer.identity());
            // Own slice first — the head of the deterministic combine
            // order (and free: it never crosses the network).
            scatter_combine(
                b,
                &a[lr.out_spans[lr.my_pos].clone()],
                &lr.out_maps[lr.my_pos],
                reducer,
            );
            fill_pending(pending, &lr.group, lr.my_pos);
            parked.clear();
            parked.resize(lr.group.len(), None);
            let mut next = 0usize;
            while !pending.is_empty() {
                let (src, payload) = recv_next(comm, self.recv_order, pending, tag, "reduce down")?;
                let c = coord_of(&lr.group, src);
                if !V::ORDER_SENSITIVE {
                    // Exact reducers: combine in arrival order.
                    combine_slice(b, &payload, &lr.out_maps[c], reducer, src, tag)?;
                    continue;
                }
                // Opportunistic receive, fixed combine: park each arrival
                // at its coordinate and fold the prefix that is ready.
                // Results stay bit-identical to the fixed-order schedule
                // while the waiting still overlaps with whoever arrives
                // first.
                parked[c] = Some(payload);
                while next < parked.len() {
                    if next == lr.my_pos {
                        next += 1;
                        continue;
                    }
                    let Some(payload) = parked[next].take() else {
                        break;
                    };
                    combine_slice(
                        b,
                        &payload,
                        &lr.out_maps[next],
                        reducer,
                        lr.group[next],
                        tag,
                    )?;
                    next += 1;
                }
            }
            std::mem::swap(a, b);
        }
        Ok(())
    }

    /// Up pass over pooled scratch: `s.a` in (bottom in-union), `s.a`
    /// out (aligned with `in0`). Returned slices land in disjoint spans,
    /// so arrival order never changes the result — no parking needed.
    fn up_values_pooled<C, V>(&self, comm: &mut C, seq: u32, s: &mut ReduceScratch<V>) -> Result<()>
    where
        C: Comm,
        V: Scalar,
    {
        let ReduceScratch {
            arena,
            a,
            b,
            gathered,
            pending,
            ..
        } = &mut *s;
        for (layer, lr) in self.layers.iter().enumerate().rev() {
            let tag = Tag::new(Phase::ReduceUp, layer as u16, seq);
            for (c, &peer) in lr.group.iter().enumerate() {
                if c == lr.my_pos {
                    let bytes = values_wire_len::<V>(lr.in_maps[c].len()) + SEAL_LEN;
                    comm.note_traffic(layer as u16, bytes);
                    if let Some(tel) = comm.telemetry() {
                        let (p, l) = (Phase::ReduceUp as u8, layer as u16);
                        tel.add(p, l, Counter::SelfBytes, bytes as u64);
                        tel.add(p, l, Counter::SelfMsgs, 1);
                    }
                    continue;
                }
                gather_into(a, &lr.in_maps[c], gathered);
                comm.send(peer, tag, encode_values_into(arena, gathered));
            }
            // Every position is overwritten by a returned slice; the
            // default is just an initialiser.
            b.clear();
            b.resize(lr.in_prev_len(), V::default());
            // Own requested part comes straight from local memory.
            gather_into(a, &lr.in_maps[lr.my_pos], gathered);
            b[lr.in_spans[lr.my_pos].clone()].copy_from_slice(gathered);
            fill_pending(pending, &lr.group, lr.my_pos);
            while !pending.is_empty() {
                let (src, payload) = recv_next(comm, self.recv_order, pending, tag, "reduce up")?;
                let c = coord_of(&lr.group, src);
                fill_span(&mut b[lr.in_spans[c].clone()], &payload, src, tag)?;
            }
            std::mem::swap(a, b);
        }
        Ok(())
    }
}

/// Coordinate of `src` in a layer group (groups are small: linear scan).
#[inline]
pub(crate) fn coord_of(group: &[usize], src: usize) -> usize {
    group
        .iter()
        .position(|&r| r == src)
        .expect("recv_any winner is in the group")
}

/// The group's peers (every member but coordinate `my_pos`), in
/// coordinate order, as the outstanding list.
pub(crate) fn fill_pending(pending: &mut Vec<usize>, group: &[usize], my_pos: usize) {
    pending.clear();
    pending.extend(
        group
            .iter()
            .enumerate()
            .filter(|&(c, _)| c != my_pos)
            .map(|(_, &peer)| peer),
    );
}

/// Receive the next slice of a layer from the peers still `pending`,
/// and retire its sender (keeping the rest in coordinate order).
/// Arrival order races every outstanding peer; fixed order races a
/// one-peer candidate set — the next peer in coordinate order.
pub(crate) fn recv_next<C: Comm>(
    comm: &mut C,
    order: RecvOrder,
    pending: &mut Vec<usize>,
    tag: Tag,
    what: &'static str,
) -> Result<(usize, Bytes)> {
    let candidates = if order == RecvOrder::Fixed {
        &pending[..1]
    } else {
        &pending[..]
    };
    let (src, payload) = comm.recv_any(candidates, tag).map_err(comm_err(what))?;
    let i = pending
        .iter()
        .position(|&r| r == src)
        .expect("recv_any winner was pending");
    pending.remove(i);
    Ok((src, payload))
}

/// Verify one down-pass slice and scatter-combine it straight from the
/// wire body into the accumulator (no intermediate `Vec<V>`).
fn combine_slice<V, R>(
    acc: &mut [V],
    payload: &[u8],
    map: &[u32],
    reducer: R,
    peer: usize,
    tag: Tag,
) -> Result<()>
where
    V: Scalar,
    R: Reducer<V>,
{
    let mut dec = Decoder::new(payload).map_err(surface_corrupt("reduce down", peer, tag))?;
    let (n, raw) = dec
        .raw_values::<V>()
        .map_err(surface_corrupt("reduce down", peer, tag))?;
    if n != map.len() || !dec.finished() {
        return Err(KylixError::Codec {
            what: "down-pass values misaligned with configuration",
        });
    }
    scatter_combine_le(acc, raw, map, reducer);
    Ok(())
}

/// Verify one up-pass slice and decode it straight into its partition
/// span.
fn fill_span<V: Scalar>(dst: &mut [V], payload: &[u8], peer: usize, tag: Tag) -> Result<()> {
    let mut dec = Decoder::new(payload).map_err(surface_corrupt("reduce up", peer, tag))?;
    let (n, raw) = dec
        .raw_values::<V>()
        .map_err(surface_corrupt("reduce up", peer, tag))?;
    if n != dst.len() || !dec.finished() {
        return Err(KylixError::Codec {
            what: "up-pass values misaligned with configuration",
        });
    }
    copy_from_le(dst, raw);
    Ok(())
}
