//! The scatter/gather kernels that move values through position maps.
//!
//! During reduction (paper §III.B) the value buffers exchanged between
//! nodes are *positional*: a message carries the values of a contiguous
//! slice of the sender's sorted index set, and the receiver either
//! **scatter-adds** them into its union layout (down pass, map `f`) or
//! **gathers** a requested slice out of its layout (up pass, map `g`).
//! Keeping values positional means no index decoding in the hot loop —
//! one `map[p]` lookup per element, exactly the "constant time per
//! element" the paper claims for its maps.

use crate::reducer::{Reducer, Scalar};

/// Scatter-add `src` into `dst` through a position map:
/// `dst[map[p]] ⊕= src[p]` (paper's map `f`, down pass).
#[inline]
pub fn scatter_combine<V: Copy, R: Reducer<V>>(dst: &mut [V], src: &[V], map: &[u32], reducer: R) {
    debug_assert_eq!(src.len(), map.len());
    for (v, &p) in src.iter().zip(map) {
        reducer.combine(&mut dst[p as usize], *v);
    }
}

/// Scatter-combine straight from a little-endian wire body:
/// `dst[map[p]] ⊕= decode(raw[p])` — the down-pass hot loop fused with
/// decoding, so a received slice needs no intermediate `Vec<V>`.
/// `raw` must hold exactly `map.len()` packed `WIDTH`-byte scalars
/// (checked by the caller against the wire count).
#[inline]
pub fn scatter_combine_le<V: Scalar, R: Reducer<V>>(
    dst: &mut [V],
    raw: &[u8],
    map: &[u32],
    reducer: R,
) {
    debug_assert_eq!(raw.len(), map.len() * V::WIDTH);
    for (chunk, &p) in raw.chunks_exact(V::WIDTH).zip(map) {
        reducer.combine(&mut dst[p as usize], V::read_le(chunk));
    }
}

/// Decode a little-endian wire body straight into a value slice
/// (up-pass span rebuild without an intermediate `Vec<V>`). `raw` must
/// hold exactly `dst.len()` packed scalars.
#[inline]
pub fn copy_from_le<V: Scalar>(dst: &mut [V], raw: &[u8]) {
    debug_assert_eq!(raw.len(), dst.len() * V::WIDTH);
    for (d, chunk) in dst.iter_mut().zip(raw.chunks_exact(V::WIDTH)) {
        *d = V::read_le(chunk);
    }
}

/// Gather through a position map into a reused buffer:
/// `out[p] = src[map[p]]` (paper's map `g`, up pass).
///
/// Whatever `out` held is dropped, and on return `out.len() ==
/// map.len()`. Its capacity is kept, so a buffer reused across ops
/// stops allocating once it has grown to the largest map. The values are
/// written in one `extend` over the map, not with a per-element `push`.
#[inline]
pub fn gather_into<V: Copy>(src: &[V], map: &[u32], out: &mut Vec<V>) {
    out.clear();
    out.extend(map.iter().map(|&p| src[p as usize]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index_set::IndexSet;
    use crate::merge::tree_merge;
    use crate::reducer::SumReducer;
    use crate::Xoshiro256;

    #[test]
    fn scatter_gather_round_trip_through_merge() {
        // Two overlapping sets; scatter both into the union; gather each
        // back and check shared entries accumulated.
        let a = IndexSet::from_indices([1u64, 2, 3]);
        let b = IndexSet::from_indices([3u64, 4]);
        let m = tree_merge(&[a.keys(), b.keys()]);
        let mut acc = vec![0.0f64; m.union.len()];
        scatter_combine(&mut acc, &[1.0, 1.0, 1.0], &m.maps[0], SumReducer);
        scatter_combine(&mut acc, &[2.0, 2.0], &m.maps[1], SumReducer);
        let mut back_a = Vec::new();
        gather_into(&acc, &m.maps[0], &mut back_a);
        // Positions of a = indices 1,2,3 in hash order; index 3 has 1+2.
        let idx3_pos = a.keys().iter().position(|k| k.index == 3).unwrap();
        assert_eq!(back_a[idx3_pos], 3.0);
        let total: f64 = acc.iter().sum();
        assert_eq!(total, 7.0);
    }

    #[test]
    fn scatter_combine_le_matches_decoded_path() {
        let src = [1.5f64, -2.25, 4.0];
        let raw: Vec<u8> = src.iter().flat_map(|v| v.to_le_bytes()).collect();
        let map = [2u32, 0, 2];
        let mut fused = vec![10.0f64; 3];
        scatter_combine_le(&mut fused, &raw, &map, SumReducer);
        let mut reference = vec![10.0f64; 3];
        scatter_combine(&mut reference, &src, &map, SumReducer);
        // Bit-identical: same combine order, same decoded values.
        for (a, b) in fused.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn copy_from_le_round_trips() {
        let src = [7u64, u64::MAX, 0];
        let raw: Vec<u8> = src.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut dst = [0u64; 3];
        copy_from_le(&mut dst, &raw);
        assert_eq!(dst, src);
    }

    #[test]
    fn gather_into_reuses_buffer() {
        let src = [10.0f64, 20.0, 30.0];
        let map = [2u32, 0];
        let mut buf = Vec::with_capacity(8);
        gather_into(&src, &map, &mut buf);
        assert_eq!(buf, vec![30.0, 10.0]);
        gather_into(&src, &[1u32], &mut buf);
        assert_eq!(buf, vec![20.0]);
    }

    /// A reused `out` holding stale values, longer or shorter than the
    /// map, ends up exactly the naive gather, whatever the map's shape.
    #[test]
    fn gather_into_overwrites_stale_buffer() {
        let src: Vec<u64> = (0..97u64).map(|i| i * 7 + 1).collect();
        let mut rng = Xoshiro256::new(5);
        let random: Vec<u32> = (0..64).map(|_| rng.next_index(src.len()) as u32).collect();
        let monotone: Vec<u32> = (0..src.len() as u32).step_by(3).collect();
        for (name, map) in [
            ("random", &random[..]),
            ("monotone", &monotone),
            ("empty", &[]),
        ] {
            let naive: Vec<u64> = map.iter().map(|&p| src[p as usize]).collect();
            for stale_len in [0, map.len() / 2, map.len() + 40] {
                let mut out = vec![u64::MAX; stale_len];
                gather_into(&src, map, &mut out);
                assert_eq!(out.len(), map.len(), "{name} map, {stale_len} stale");
                assert_eq!(out, naive, "{name} map, {stale_len} stale");
            }
        }
    }
}
