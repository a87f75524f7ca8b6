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
//! Every pass — these two and the configuration pass — runs each
//! butterfly layer through the same three steps. `send_layer` sends
//! every group member its part in coordinate order before the first
//! receive, and files the own part, which never crosses the network,
//! once, as `SelfBytes`/`SelfMsgs` under the pass's phase and layer.
//! `recv_layer` takes the peers' parts and hands each to the pass.
//! `fold_parked` folds parked value sections into the accumulator in
//! coordinate order, own slice first.
//!
//! The paper credits *multi-threaded opportunistic communication* —
//! processing slices in arrival order rather than a fixed peer order —
//! for saturating commodity NICs. Receives here therefore default to
//! `recv_any` over the group ([`RecvOrder::Arrival`]): one slow peer no
//! longer stalls the slices that already landed. Because floating-point
//! addition is not associative, the down pass verifies each arrival as
//! it lands, parks it as a raw value section and combines the parked
//! sections in coordinate order, so results are bit-identical to the
//! fixed-order schedule. Every scalar takes this one path; integer
//! results would be exact in any order. The up pass writes disjoint
//! spans, so its arrival order never affects results.
//!
//! Steady-state operations are also **allocation-free**: a
//! `ReduceScratch` slot kept on [`Configured`] pools the send arena
//! (split-and-frozen per message, reclaimed when receivers drop their
//! handles) and the ping-pong accumulator buffers.
//!
//! Each value crosses every step in one pass:
//!
//! * **Load.** The caller's values enter sorted layout by a gather
//!   through `out_first` (`a[p] = identity ⊕ v[first[p]]`), then the
//!   few `out_repeats` fold in, in the caller's order.
//! * **Send.** Messages are sealed while they are written: each 32-byte
//!   block is stepped into the checksum as soon as it is full. The up
//!   pass gathers a peer's requested values through map `g` straight
//!   into its message, and its own part straight into its span.
//! * **Receive.** The down pass verifies each arrival and combines it
//!   straight from the wire body (`Decoder::raw_values` +
//!   `scatter_combine_le`). The up pass verifies each arrival while it
//!   decodes it into its span (`codec::decode_values_into`), and only
//!   resizes its accumulator: the spans tile it, so every slot is
//!   written without a refill.
//!
//! Every value loop writes its destination by slice (`scatter_combine`,
//! a span's `iter_mut`) or with one `extend` over a map iterator
//! (`gather_into`, the load, the bottom projection in `finish_op`), never
//! with a per-element `push` through `&mut Vec`: a `push` stores the
//! length and loads it back for every element, while `extend` over a
//! sized iterator keeps one write pointer in a register. On twitter-thread
//! (2-vCPU Xeon, `kybench --trace 1`) the gather kernel reads about 0.8 ns
//! per element this way, against 2.2–2.4 ns for the `push` loop.
//!
//! A [`crate::config::Configured`] can issue any number of reductions —
//! the per-iteration path of PageRank-style workloads where the vertex
//! sets are fixed and only values change.

use crate::codec::{
    decode_values_into, encode_iter_into, encode_values_into, Decoder, MISALIGNED, SEAL_LEN,
};
use crate::config::{values_wire_len, Configured, RecvOrder};
use crate::error::{comm_err, surface_corrupt, KylixError, Result};
use bytes::{Bytes, BytesMut};
use kylix_net::tag::count;
use kylix_net::telemetry::Counter;
use kylix_net::{Comm, Phase, Tag};
use kylix_sparse::vec::{gather_into, scatter_combine, scatter_combine_le};
use kylix_sparse::{Reducer, Scalar};

/// Pooled per-op buffers for one value type, kept on [`Configured`]
/// between reduce calls (see `ScratchStore`). Everything here is a
/// cache: dropping it only costs the next op a warm-up.
#[derive(Debug, Default)]
pub(crate) struct ReduceScratch<V> {
    /// Send-buffer arena: each message is written in place, split off as
    /// `Bytes`, and the backing storage reclaimed once receivers drop it.
    arena: BytesMut,
    /// Ping-pong value buffers: `a` holds the current layer's input,
    /// `b` the accumulator being built; swapped per layer. The combined
    /// config pass carries its value rider in them too.
    pub(crate) a: Vec<V>,
    pub(crate) b: Vec<V>,
    /// Raw value sections per coordinate, held until their turn in the
    /// combine order: down-pass arrivals and combined-mode riders.
    pub(crate) parked: Vec<Option<Bytes>>,
    /// Peers still outstanding in the current receive loop.
    pub(crate) pending: Vec<usize>,
}

/// Histogram one whole collective op (a reduce, or a combined
/// configure-and-reduce) that started at `t0`, through the substrate's
/// own clock: virtual seconds on the simulator, wall seconds on real
/// clusters. Atomic adds only — nothing here allocates.
pub(crate) fn record_op<C: Comm>(comm: &C, t0: f64) {
    let nanos = ((comm.now() - t0) * 1e9).round() as u64;
    if let Some(tel) = comm.telemetry() {
        tel.record_op(nanos);
        if tel.tracing() {
            tel.trace_event(comm.now(), Phase::App as u8, 0, "reduce_op", nanos);
        }
    }
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
        if out_values.len() != self.out_first.len() + self.out_repeats.len() {
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
            record_op(comm, t0);
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
        load(
            &mut s.a,
            out_values,
            &self.out_first,
            &self.out_repeats,
            reducer,
        );
        self.down_values(comm, reducer, seq, s)?;
        self.finish_op(comm, reducer, seq, s, out)
    }

    /// Second half of every op: project the fully reduced bottom values
    /// in `s.a` onto the bottom in-union (requested indices nobody
    /// contributed to read as the identity), carry them up, and write
    /// them to `out` in the caller's in-order.
    pub(crate) fn finish_op<C, V, R>(
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
            let (group, my_pos) = (&lr.group[..], lr.my_pos);
            let own = values_wire_len::<V>(lr.out_spans[my_pos].len()) + SEAL_LEN;
            send_layer(comm, group, my_pos, tag, own, |c| {
                encode_values_into(arena, &a[lr.out_spans[c].clone()])
            });
            b.clear();
            b.resize(lr.out_union.len(), reducer.identity());
            parked.clear();
            parked.resize(group.len(), None);
            let own = &a[lr.out_spans[my_pos].clone()];
            // The own slice heads the combine order, and is free: it
            // never crosses the network.
            let mut next = 0;
            fold_parked(b, own, parked, &mut next, &lr.out_maps, my_pos, reducer);
            // Opportunistic receive, fixed combine: park each arrival at
            // its coordinate and fold the prefix that is ready. Results
            // stay bit-identical to the fixed-order schedule while the
            // waiting still overlaps with whoever arrives first.
            let on_part = |c: usize, payload: Bytes| -> Result<()> {
                let raw = value_section::<V>(&payload, lr.out_maps[c].len(), group[c], tag)?;
                parked[c] = Some(section(&payload, raw));
                fold_parked(b, own, parked, &mut next, &lr.out_maps, my_pos, reducer);
                Ok(())
            };
            recv_layer(comm, self.recv_order, pending, group, my_pos, tag, on_part)?;
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
            pending,
            ..
        } = &mut *s;
        for (layer, lr) in self.layers.iter().enumerate().rev() {
            let tag = Tag::new(Phase::ReduceUp, layer as u16, seq);
            let (group, my_pos) = (&lr.group[..], lr.my_pos);
            let own = values_wire_len::<V>(lr.in_maps[my_pos].len()) + SEAL_LEN;
            // Each peer's requested values are gathered straight into
            // its message.
            send_layer(comm, group, my_pos, tag, own, |c| {
                encode_iter_into(arena, gather(a, &lr.in_maps[c]))
            });
            // The spans tile `b`, and every one is written below: the own
            // part from local memory, each peer's part as it lands. So
            // `b` is only resized, never refilled.
            b.resize(lr.in_prev_len(), V::default());
            let own = &mut b[lr.in_spans[my_pos].clone()];
            for (d, v) in own.iter_mut().zip(gather(a, &lr.in_maps[my_pos])) {
                *d = v;
            }
            let on_part = |c: usize, payload: Bytes| -> Result<()> {
                let span = &mut b[lr.in_spans[c].clone()];
                decode_values_into(&payload, span).map_err(surface_corrupt(
                    pass_of(tag),
                    group[c],
                    tag,
                ))
            };
            recv_layer(comm, self.recv_order, pending, group, my_pos, tag, on_part)?;
            std::mem::swap(a, b);
        }
        Ok(())
    }
}

/// Put the caller's values into sorted layout in `a`, one slot per set
/// position: `a[p] = identity ⊕ values[first[p]]`, then each repeat
/// `(p, i)` folds `values[i]` into `a[p]`. The repeats of a position
/// come in input order, so duplicate indices combine in the caller's
/// order, as a scatter of the whole list into an identity-filled
/// layout would.
pub(crate) fn load<V: Scalar, R: Reducer<V>>(
    a: &mut Vec<V>,
    values: &[V],
    first: &[u32],
    repeats: &[(u32, u32)],
    reducer: R,
) {
    a.clear();
    a.extend(first.iter().map(|&i| {
        let mut x = reducer.identity();
        reducer.combine(&mut x, values[i as usize]);
        x
    }));
    for &(p, i) in repeats {
        reducer.combine(&mut a[p as usize], values[i as usize]);
    }
}

/// The values of `src` at `map`'s positions, in map order (map `g`).
fn gather<'a, V: Copy>(src: &'a [V], map: &'a [u32]) -> impl ExactSizeIterator<Item = V> + 'a {
    map.iter().map(move |&p| src[p as usize])
}

/// Send one layer's parts in coordinate order, all before the layer's
/// first receive (§VI.B); `part(c)` builds coordinate `c`'s message.
/// The own part never crosses the network, but Fig. 5 counts packets to
/// self: it is filed once, as `own_bytes` of `SelfBytes` and one
/// `SelfMsgs` under `tag`.
pub(crate) fn send_layer<C: Comm>(
    comm: &mut C,
    group: &[usize],
    my_pos: usize,
    tag: Tag,
    own_bytes: usize,
    mut part: impl FnMut(usize) -> Bytes,
) {
    for (c, &peer) in group.iter().enumerate() {
        if c == my_pos {
            count(comm.telemetry(), tag, Counter::SelfBytes, own_bytes as u64);
            count(comm.telemetry(), tag, Counter::SelfMsgs, 1);
            continue;
        }
        comm.send(peer, tag, part(c));
    }
}

/// Take one layer's parts from every group member but `my_pos` and hand
/// each `(coordinate, payload)` to `on_part`. [`RecvOrder::Arrival`]
/// races every outstanding peer; [`RecvOrder::Fixed`] races a one-peer
/// candidate set, the next peer in coordinate order. `pending` is the
/// caller's pooled outstanding list.
pub(crate) fn recv_layer<C: Comm>(
    comm: &mut C,
    order: RecvOrder,
    pending: &mut Vec<usize>,
    group: &[usize],
    my_pos: usize,
    tag: Tag,
    mut on_part: impl FnMut(usize, Bytes) -> Result<()>,
) -> Result<()> {
    pending.clear();
    pending.extend_from_slice(group);
    pending.remove(my_pos);
    while !pending.is_empty() {
        let candidates = if order == RecvOrder::Fixed {
            &pending[..1]
        } else {
            &pending[..]
        };
        let (src, payload) = comm
            .recv_any(candidates, tag)
            .map_err(comm_err(pass_of(tag)))?;
        pending.retain(|&r| r != src);
        // Groups are small: a linear scan finds the coordinate.
        let c = group.iter().position(|&r| r == src);
        on_part(c.expect("recv_any winner is in the group"), payload)?;
    }
    Ok(())
}

/// Fold a layer's value slices into `acc` in the deterministic combine
/// order — the own slice `own` first, then the peers' parked raw
/// slices by coordinate — from the cursor `next` (slices folded so far)
/// up to the first slice that has not landed. `maps[c]` carries
/// coordinate `c`'s slice into `acc`.
pub(crate) fn fold_parked<V: Scalar, R: Reducer<V>>(
    acc: &mut [V],
    own: &[V],
    parked: &mut [Option<Bytes>],
    next: &mut usize,
    maps: &[Vec<u32>],
    my_pos: usize,
    reducer: R,
) {
    while *next < parked.len() {
        let c = match *next {
            0 => my_pos,
            k if k <= my_pos => k - 1,
            k => k,
        };
        if c == my_pos {
            scatter_combine(acc, own, &maps[c], reducer);
        } else {
            let Some(raw) = parked[c].take() else {
                break;
            };
            scatter_combine_le(acc, &raw, &maps[c], reducer);
        }
        *next += 1;
    }
}

/// Error context of a pass, from its tag.
fn pass_of(tag: Tag) -> &'static str {
    match tag.phase() {
        p if p == Phase::ReduceDown as u8 => "reduce down",
        p if p == Phase::ReduceUp as u8 => "reduce up",
        _ => "config down",
    }
}

/// `raw`, a section of `payload`, as a slice of the same buffer (no
/// copy).
pub(crate) fn section(payload: &Bytes, raw: &[u8]) -> Bytes {
    let start = raw.as_ptr() as usize - payload.as_ptr() as usize;
    payload.slice(start..start + raw.len())
}

/// Verify one down-pass message from `peer` and return its value
/// section, which must hold `n` scalars; the pass combines it straight
/// from the wire body (no intermediate `Vec<V>`).
fn value_section<V: Scalar>(payload: &[u8], n: usize, peer: usize, tag: Tag) -> Result<&[u8]> {
    let mut dec = Decoder::new(payload).map_err(surface_corrupt(pass_of(tag), peer, tag))?;
    let (len, raw) = dec.raw_values::<V>()?;
    if len != n || !dec.finished() {
        return Err(KylixError::Codec { what: MISALIGNED });
    }
    Ok(raw)
}
