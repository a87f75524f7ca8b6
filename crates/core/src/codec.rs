//! Wire encoding of protocol messages.
//!
//! Kylix messages are flat little-endian buffers — no serialisation
//! framework, mirroring the paper's "raw sockets, no reflection"
//! implementation stance (§VI.C, and its criticism of Hadoop's
//! serialisation overhead in §VIII). Three payload shapes exist:
//!
//! * **index lists** (configuration): `u64 count` then `count` raw `u64`
//!   feature indices in key order. Hashes are *not* shipped — the
//!   receiver recomputes `mix64(idx)` locally, trading a few ALU ops for
//!   halving config bandwidth.
//! * **value vectors** (reduction): `u64 count` then `count` fixed-width
//!   scalars, positionally aligned with an index list both sides already
//!   agree on.
//! * **combined records** (minibatch mode, §III: "configuration and
//!   reduction concurrently with combined network messages"): an index
//!   list, its values, and the in-request index list, concatenated.
//!
//! Every payload is **sealed**: an 8-byte [`kylix_net::checksum()`] of the
//! body is appended by [`seal`] (and by the `encode_*` helpers) and
//! verified by [`Decoder::new`] before any field is parsed. The checksum
//! hashes 8-byte words over four independent lanes (about 16 GB/s per
//! core) and detects every single-word change — so every flipped bit
//! and every changed byte — with certainty. A flipped bit in a value
//! vector would otherwise be *silently reduced* into every downstream
//! node's result — an allreduce amplifies corruption — so detection must
//! sit below the protocol, where every message passes through. A
//! mismatch decodes to [`KylixError::Codec`] with
//! [`CHECKSUM_MISMATCH`], which the protocol layers re-surface as
//! `CommError::Corrupt` with the sender's identity attached.

use crate::error::{KylixError, Result};
use bytes::{Bytes, BytesMut};
use kylix_net::checksum;
use kylix_sparse::{Key, Scalar};

/// Bytes the seal appends to every payload.
pub const SEAL_LEN: usize = 8;

/// `what` string of the [`KylixError::Codec`] raised when a payload
/// fails checksum verification. Protocol layers match on it to convert
/// decode failures into `CommError::Corrupt`.
pub const CHECKSUM_MISMATCH: &str = "payload checksum mismatch";

/// Finalise a wire buffer: append the 8-byte [`kylix_net::checksum()`] of
/// its contents, which detects any single changed byte in the sealed
/// message with certainty. Every `comm.send` payload built with `put_*`
/// must go through this.
pub fn seal(mut buf: Vec<u8>) -> Bytes {
    let sum = checksum(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    Bytes::from(buf)
}

/// Encode a key slice as a sealed index list.
pub fn encode_keys(keys: &[Key]) -> Bytes {
    let mut buf = Vec::with_capacity(8 + keys.len() * 8 + SEAL_LEN);
    put_keys(&mut buf, keys);
    seal(buf)
}

/// Append an index list to an existing buffer (combined messages).
pub fn put_keys(buf: &mut Vec<u8>, keys: &[Key]) {
    buf.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    let start = buf.len();
    buf.resize(start + keys.len() * 8, 0);
    for (k, chunk) in keys.iter().zip(buf[start..].chunks_exact_mut(8)) {
        chunk.copy_from_slice(&k.index.to_le_bytes());
    }
}

/// Append a value vector.
pub fn put_values<V: Scalar>(buf: &mut Vec<u8>, vals: &[V]) {
    buf.extend_from_slice(&(vals.len() as u64).to_le_bytes());
    let start = buf.len();
    buf.resize(start + vals.len() * V::WIDTH, 0);
    write_values(&mut buf[start..], vals);
}

/// Write `vals` little-endian into `dst`, exactly `vals.len()` scalars
/// long.
fn write_values<V: Scalar>(dst: &mut [u8], vals: &[V]) {
    for (v, chunk) in vals.iter().zip(dst.chunks_exact_mut(V::WIDTH)) {
        v.write_le_slice(chunk);
    }
}

/// A cursor over the body of a received (and verified) buffer.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Verify a sealed payload and start decoding its body. Fails with
    /// [`CHECKSUM_MISMATCH`] if the trailing checksum does not match the
    /// body (corruption in flight) or the buffer is too short to carry
    /// one (truncation).
    pub fn new(buf: &'a [u8]) -> Result<Self> {
        if buf.len() < SEAL_LEN {
            return Err(KylixError::Codec {
                what: CHECKSUM_MISMATCH,
            });
        }
        let (body, tail) = buf.split_at(buf.len() - SEAL_LEN);
        let want = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if checksum(body) != want {
            return Err(KylixError::Codec {
                what: CHECKSUM_MISMATCH,
            });
        }
        Ok(Self { buf: body, pos: 0 })
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(KylixError::Codec { what })?;
        if end > self.buf.len() {
            return Err(KylixError::Codec { what });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn count(&mut self, what: &'static str) -> Result<usize> {
        let raw = self.take(8, what)?;
        let n = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
        // Sanity: a count can never exceed the bytes *remaining* in the
        // body even at one byte per element. Bounding against the whole
        // body would let a later section of a combined message claim
        // bytes already consumed by earlier sections.
        if n as usize > self.buf.len() - self.pos {
            return Err(KylixError::Codec { what });
        }
        Ok(n as usize)
    }

    /// Read an index list, rebuilding keys (hash recomputed locally).
    pub fn keys(&mut self) -> Result<Vec<Key>> {
        let n = self.count("key count")?;
        let raw = self.take(n * 8, "key data")?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| Key::new(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Read a value vector of scalars.
    pub fn values<V: Scalar>(&mut self) -> Result<Vec<V>> {
        let (_, raw) = self.raw_values::<V>()?;
        Ok(raw.chunks_exact(V::WIDTH).map(V::read_le).collect())
    }

    /// Read a value section *without* materialising a `Vec`: returns the
    /// element count and the packed little-endian body. Pair with
    /// `kylix_sparse::vec::scatter_combine_le` / `copy_from_le` to fuse
    /// decoding with the combine, the reduction hot path.
    pub fn raw_values<V: Scalar>(&mut self) -> Result<(usize, &'a [u8])> {
        let n = self.count("value count")?;
        let raw = self.take(n * V::WIDTH, "value data")?;
        Ok((n, raw))
    }

    /// All body bytes consumed?
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decode a standalone index list.
pub fn decode_keys(buf: &[u8]) -> Result<Vec<Key>> {
    let mut d = Decoder::new(buf)?;
    let keys = d.keys()?;
    if !d.finished() {
        return Err(KylixError::Codec {
            what: "trailing bytes after key list",
        });
    }
    Ok(keys)
}

/// Encode a standalone value vector (sealed).
pub fn encode_values<V: Scalar>(vals: &[V]) -> Bytes {
    let mut buf = Vec::with_capacity(8 + vals.len() * V::WIDTH + SEAL_LEN);
    put_values(&mut buf, vals);
    seal(buf)
}

/// Encode a sealed value vector into a pooled send arena.
///
/// The arena must be empty on entry (it always is after the previous
/// `split`); the message is written in place and split off as an
/// immutable [`Bytes`]. Once every receiver drops its handle the arena's
/// `reserve` reclaims the backing storage, so a steady-state reduce loop
/// stops allocating per message — the zero-copy half of the paper's
/// §VI.B "multi-threaded opportunistic communication" hot path.
pub fn encode_values_into<V: Scalar>(arena: &mut BytesMut, vals: &[V]) -> Bytes {
    debug_assert!(arena.is_empty(), "send arena must start empty");
    let body = 8 + vals.len() * V::WIDTH;
    arena.reserve(body + SEAL_LEN);
    arena.extend_from_slice(&(vals.len() as u64).to_le_bytes());
    let start = arena.len();
    arena.resize(start + vals.len() * V::WIDTH, 0);
    write_values(&mut arena[start..], vals);
    let sum = checksum(&arena[..]);
    arena.extend_from_slice(&sum.to_le_bytes());
    arena.split().freeze()
}

/// Decode a standalone value vector.
pub fn decode_values<V: Scalar>(buf: &[u8]) -> Result<Vec<V>> {
    let mut d = Decoder::new(buf)?;
    let vals = d.values()?;
    if !d.finished() {
        return Err(KylixError::Codec {
            what: "trailing bytes after value list",
        });
    }
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kylix_sparse::IndexSet;

    #[test]
    fn keys_round_trip() {
        let set = IndexSet::from_indices([42u64, 7, 1 << 40, 0]);
        let enc = encode_keys(set.keys());
        let dec = decode_keys(&enc).unwrap();
        assert_eq!(dec, set.keys());
    }

    #[test]
    fn empty_keys_round_trip() {
        let enc = encode_keys(&[]);
        assert_eq!(decode_keys(&enc).unwrap(), Vec::<Key>::new());
    }

    #[test]
    fn values_round_trip() {
        let vals = vec![1.5f64, -2.25, 1e300];
        let enc = encode_values(&vals);
        assert_eq!(decode_values::<f64>(&enc).unwrap(), vals);
        let ints = vec![u32::MAX, 0, 7];
        let enc = encode_values(&ints);
        assert_eq!(decode_values::<u32>(&enc).unwrap(), ints);
    }

    #[test]
    fn combined_sections_round_trip() {
        let out = IndexSet::from_indices([1u64, 2, 3]);
        let vals = vec![0.5f64, 1.5, 2.5];
        let inn = IndexSet::from_indices([9u64, 10]);
        let mut buf = Vec::new();
        put_keys(&mut buf, out.keys());
        put_values(&mut buf, &vals);
        put_keys(&mut buf, inn.keys());
        let sealed = seal(buf);
        let mut d = Decoder::new(&sealed).unwrap();
        assert_eq!(d.keys().unwrap(), out.keys());
        assert_eq!(d.values::<f64>().unwrap(), vals);
        assert_eq!(d.keys().unwrap(), inn.keys());
        assert!(d.finished());
    }

    #[test]
    fn encode_values_into_matches_encode_values() {
        let vals = vec![1.5f64, -2.25, 1e300];
        let mut arena = BytesMut::new();
        for _ in 0..3 {
            // Repeated use of the same arena must keep producing
            // byte-identical frames to the allocating encoder.
            let pooled = encode_values_into(&mut arena, &vals);
            assert_eq!(&pooled[..], &encode_values(&vals)[..]);
            assert_eq!(decode_values::<f64>(&pooled).unwrap(), vals);
        }
        let empty = encode_values_into(&mut arena, &[] as &[u32]);
        assert_eq!(&empty[..], &encode_values::<u32>(&[])[..]);
    }

    #[test]
    fn bulk_sections_match_the_per_element_encoding() {
        // One element at a time, as the sections are defined: the count,
        // then each index or scalar little-endian.
        fn per_element<V: Scalar>(keys: &[Key], vals: &[V]) -> Vec<u8> {
            let mut buf = (keys.len() as u64).to_le_bytes().to_vec();
            for k in keys {
                buf.extend_from_slice(&k.index.to_le_bytes());
            }
            buf.extend_from_slice(&(vals.len() as u64).to_le_bytes());
            for v in vals {
                let mut le = [0u8; 8];
                v.write_le_slice(&mut le[..V::WIDTH]);
                buf.extend_from_slice(&le[..V::WIDTH]);
            }
            buf
        }
        fn bulk<V: Scalar>(keys: &[Key], vals: &[V]) -> Vec<u8> {
            // A non-empty prefix: sections append, they never overwrite.
            let mut buf = vec![0xA5; 3];
            put_keys(&mut buf, keys);
            put_values(&mut buf, vals);
            let body = buf.split_off(3);
            assert_eq!(buf, [0xA5; 3]);
            body
        }
        // Golden bytes for a small record.
        let keys = [Key::new(1), Key::new(0x0102_0304_0506_0708)];
        let golden: Vec<u8> = [
            &[2, 0, 0, 0, 0, 0, 0, 0][..],
            &[1, 0, 0, 0, 0, 0, 0, 0],
            &[8, 7, 6, 5, 4, 3, 2, 1],
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[0xEF, 0xBE, 0xAD, 0xDE],
            &[0xFF, 0xFF, 0xFF, 0xFF],
        ]
        .concat();
        assert_eq!(bulk(&keys, &[0xDEAD_BEEFu32, u32::MAX]), golden);
        assert_eq!(per_element(&keys, &[0xDEAD_BEEFu32, u32::MAX]), golden);
        // Longer sections of every scalar width.
        let keys: Vec<Key> = (0..1000u64).map(|i| Key::new(i * 0x9E37_79B9)).collect();
        let f: Vec<f64> = (0..777).map(|i| i as f64 * -0.37).collect();
        let g: Vec<f32> = (0..5).map(|i| i as f32 + 0.5).collect();
        let u: Vec<u64> = (0..33).map(|i| u64::MAX - i).collect();
        assert_eq!(bulk(&keys, &f), per_element(&keys, &f));
        assert_eq!(bulk(&keys[..1], &g), per_element(&keys[..1], &g));
        assert_eq!(bulk(&[], &u), per_element(&[], &u));
        assert_eq!(bulk::<f64>(&[], &[]), per_element::<f64>(&[], &[]));
    }

    #[test]
    fn raw_values_exposes_the_packed_body() {
        let vals = vec![0.5f64, 1.5];
        let enc = encode_values(&vals);
        let mut d = Decoder::new(&enc).unwrap();
        let (n, raw) = d.raw_values::<f64>().unwrap();
        assert_eq!(n, 2);
        let expect: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(raw, &expect[..]);
        assert!(d.finished());
    }

    #[test]
    fn count_is_bounded_by_remaining_bytes() {
        // A combined message whose *second* section claims more elements
        // than the bytes left after the first — but fewer than the whole
        // body. The old whole-body bound let this through to `take`,
        // which rejected it only by luck of widths; the count check must
        // catch it outright.
        let mut buf = Vec::new();
        put_keys(&mut buf, IndexSet::from_indices([1u64, 2, 3, 4]).keys());
        buf.extend_from_slice(&10u64.to_le_bytes()); // claims 10 values
        buf.extend_from_slice(&[0u8; 8]); // only 1 u64 of data follows
        let sealed = seal(buf);
        let mut d = Decoder::new(&sealed).unwrap();
        d.keys().unwrap();
        assert!(d.values::<u64>().is_err(), "oversized section must fail");
    }

    #[test]
    fn truncated_buffer_errors() {
        let enc = encode_keys(IndexSet::from_indices([1u64, 2, 3]).keys());
        let cut = &enc[..enc.len() - 4];
        assert!(decode_keys(cut).is_err());
    }

    #[test]
    fn oversized_count_errors() {
        let mut buf = u64::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(decode_keys(&seal(buf)).is_err());
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut buf = Vec::new();
        put_keys(&mut buf, &[]);
        buf.push(0xFF);
        assert!(decode_keys(&seal(buf)).is_err());
    }

    #[test]
    fn single_bit_flip_is_detected_anywhere() {
        let vals = vec![1.0f64, 2.0, 3.0, 4.0];
        let enc = encode_values(&vals).to_vec();
        for byte in 0..enc.len() {
            for bit in 0..8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                let err = decode_values::<f64>(&bad).unwrap_err();
                assert_eq!(
                    err,
                    KylixError::Codec {
                        what: CHECKSUM_MISMATCH
                    },
                    "flip at byte {byte} bit {bit} must fail the checksum"
                );
            }
        }
    }

    #[test]
    fn byte_corruption_is_detected_in_multi_block_messages() {
        // Lengths past one 32-byte checksum block, with every tail
        // remainder the f64 counts below produce.
        for n in [0usize, 1, 3, 4, 5, 63, 257] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 3.0).collect();
            let enc = encode_values(&vals).to_vec();
            assert_eq!(decode_values::<f64>(&enc).unwrap(), vals);
            for pos in 0..enc.len() {
                let mut bad = enc.clone();
                bad[pos] ^= 1 + (pos * 37 % 255) as u8;
                assert_eq!(
                    decode_values::<f64>(&bad).unwrap_err(),
                    KylixError::Codec {
                        what: CHECKSUM_MISMATCH
                    },
                    "{n} values: corrupt byte {pos} must fail the checksum"
                );
            }
        }
    }

    #[test]
    fn short_buffer_reports_checksum_failure() {
        for n in 0..SEAL_LEN {
            assert!(Decoder::new(&vec![0u8; n]).is_err());
        }
    }
}
