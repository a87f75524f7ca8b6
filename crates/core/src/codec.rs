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
//! body is appended by [`seal`] (and by the `encode_*` helpers). The
//! value encoders seal while they write: each 32-byte block of the body
//! is stepped into a streaming [`Checksum`] as soon as it is full, so a
//! value is touched once on its way into the message. The checksum
//! hashes 8-byte words over four independent lanes (about 16 GB/s per
//! core) and detects every single-word change — so every flipped bit
//! and every changed byte — with certainty. A flipped bit in a value
//! vector would otherwise be *silently reduced* into every downstream
//! node's result — an allreduce amplifies corruption — so detection must
//! sit below the protocol, where every message passes through. A
//! mismatch decodes to [`KylixError::Codec`] with
//! [`CHECKSUM_MISMATCH`], which the protocol layers re-surface as
//! `CommError::Corrupt` with the sender's identity attached.
//!
//! Which pass verifies when:
//!
//! * [`Decoder::new`] verifies a whole message before any field is
//!   parsed. The configuration and combined passes read every message
//!   through it, and the reduce down pass verifies each arrival through
//!   it as it lands, before parking its value section.
//! * [`decode_values_into`] verifies an up-pass message *while* it
//!   copies the values into their destination: one walk hashes each
//!   block and decodes it. The destination therefore holds unverified
//!   values until the call returns; on any error its contents are
//!   scratch. What still holds is that no caller result is written from
//!   a message before its seal has been checked: the up pass writes the
//!   caller's output only after every layer has succeeded.

use crate::error::{KylixError, Result};
use bytes::{Bytes, BytesMut};
use kylix_net::{checksum, Checksum};
use kylix_sparse::vec::copy_from_le;
use kylix_sparse::{Key, Scalar};

/// Bytes the seal appends to every payload.
pub const SEAL_LEN: usize = 8;

/// `what` string of the [`KylixError::Codec`] raised when a payload
/// fails checksum verification. Protocol layers match on it to convert
/// decode failures into `CommError::Corrupt`.
pub const CHECKSUM_MISMATCH: &str = "payload checksum mismatch";

/// `what` string of the [`KylixError::Codec`] raised when an intact
/// value vector does not hold the number of values its receiver
/// configured for it.
pub const MISALIGNED: &str = "reduce values misaligned with configuration";

/// Bytes per checksum block.
const BLOCK: usize = Checksum::BLOCK;

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
    write_values(&mut buf[start..], &mut vals.iter().copied());
}

/// Write the next values of `vals` little-endian into `dst`, until
/// either runs out.
#[inline(always)]
fn write_values<V: Scalar>(dst: &mut [u8], vals: &mut impl Iterator<Item = V>) {
    // `dst` leads the zip: it runs out first, and must not consume a value.
    for (chunk, v) in dst.chunks_exact_mut(V::WIDTH).zip(vals) {
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
    encode_iter_into(arena, vals.iter().copied())
}

/// [`encode_values_into`] from any exact-size source of values, such
/// as a gather through a position map: the up pass encodes the values a
/// peer requested straight from its layout, with no staging buffer. One
/// pass: each scalar is written once, and each 32-byte block is stepped
/// into the seal as soon as it is full. The bytes equal
/// [`encode_values`] of the collected values.
pub fn encode_iter_into<V: Scalar>(
    arena: &mut BytesMut,
    vals: impl ExactSizeIterator<Item = V>,
) -> Bytes {
    debug_assert!(arena.is_empty(), "send arena must start empty");
    let body = 8 + vals.len() * V::WIDTH;
    arena.reserve(body + SEAL_LEN);
    arena.resize(body, 0);
    let sum = write_body(&mut arena[..], vals);
    arena.extend_from_slice(&sum.to_le_bytes());
    arena.split().freeze()
}

/// Write a value section — its count, then `vals` — into `body`,
/// which is exactly as long as the section, and return the body's
/// checksum, taken block by block as the blocks fill.
fn write_body<V: Scalar>(body: &mut [u8], mut vals: impl Iterator<Item = V>) -> u64 {
    let len = body.len();
    body[..8].copy_from_slice(&(((len - 8) / V::WIDTH) as u64).to_le_bytes());
    let mut sum = Checksum::new();
    let (blocks, tail) = body.as_chunks_mut::<BLOCK>();
    match blocks.split_first_mut() {
        Some((head, rest)) => {
            // The count word heads the first block.
            write_values(&mut head[8..], &mut vals);
            sum.block(head);
            for block in rest {
                // Staged in a local block, which stays in registers: each
                // value is written, hashed and stored without a reload.
                let mut staged = [0u8; BLOCK];
                write_values(&mut staged, &mut vals);
                sum.block(&staged);
                *block = staged;
            }
            write_values(tail, &mut vals);
        }
        None => write_values(&mut tail[8..], &mut vals),
    }
    sum.finish(len, tail)
}

/// Verify a sealed value vector and decode it straight into `dst`, in
/// one walk that hashes each block and copies its values out: the up
/// pass's receive, with no separate verification pass.
///
/// Errors as [`Decoder::new`] would: [`CHECKSUM_MISMATCH`] for any
/// changed or truncated message, and [`MISALIGNED`] for an intact one
/// that does not hold exactly `dst.len()` values. A message whose
/// length or count disagrees with `dst` is verified in full before the
/// error is chosen, so a corrupted header still reads as corruption.
/// On error `dst` holds scratch.
pub fn decode_values_into<V: Scalar>(msg: &[u8], dst: &mut [V]) -> Result<()> {
    let body_len = 8 + dst.len() * V::WIDTH;
    if msg.len() != body_len + SEAL_LEN || msg[..8] != (dst.len() as u64).to_le_bytes() {
        let mut dec = Decoder::new(msg)?;
        dec.raw_values::<V>()?;
        return Err(KylixError::Codec { what: MISALIGNED });
    }
    let (body, seal) = msg.split_at(body_len);
    let mut sum = Checksum::new();
    let (blocks, tail) = body.as_chunks::<BLOCK>();
    match blocks.split_first() {
        Some((head, rest)) => {
            // The count word heads the first block; each later block
            // fills the next `BLOCK / WIDTH` slots.
            let (head_dst, rest_dst) = dst.split_at_mut((BLOCK - 8) / V::WIDTH);
            sum.block(head);
            copy_from_le(head_dst, &head[8..]);
            let mut rest_dst = rest_dst.chunks_exact_mut(BLOCK / V::WIDTH);
            for (block, d) in rest.iter().zip(&mut rest_dst) {
                sum.block(block);
                copy_from_le(d, block);
            }
            copy_from_le(rest_dst.into_remainder(), tail);
        }
        None => copy_from_le(dst, &tail[8..]),
    }
    if sum.finish(body_len, tail) != u64::from_le_bytes(seal.try_into().expect("8 bytes")) {
        return Err(KylixError::Codec {
            what: CHECKSUM_MISMATCH,
        });
    }
    Ok(())
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

    /// Values of every width whose bytes all differ from one position
    /// to the next.
    fn ramp<V: Scalar>(n: usize, from: impl Fn(u64) -> V) -> Vec<V> {
        (0..n as u64)
            .map(|i| from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i))
            .collect()
    }

    #[test]
    fn one_pass_encoder_matches_the_two_pass_bytes() {
        // Every length 0..=40 puts the section's end at every offset of
        // a 32-byte checksum block, for both widths.
        fn check<V: Scalar>(from: impl Fn(u64) -> V) {
            let mut arena = BytesMut::new();
            for n in 0..=40 {
                let vals = ramp(n, &from);
                let two_pass = encode_values(&vals);
                assert_eq!(&encode_values_into(&mut arena, &vals)[..], &two_pass[..]);
                // A gathered source: every other value, backwards.
                let map: Vec<usize> = (0..n).rev().step_by(2).collect();
                let gathered: Vec<V> = map.iter().map(|&p| vals[p]).collect();
                let one_pass = encode_iter_into(&mut arena, map.iter().map(|&p| vals[p]));
                assert_eq!(&one_pass[..], &encode_values(&gathered)[..], "{n} values");
            }
        }
        check(|x| x as u32);
        check(|x| f32::from_bits(x as u32));
        check(|x| x);
        check(f64::from_bits);
    }

    #[test]
    fn verify_and_copy_keeps_the_error_kinds() {
        fn check<V: Scalar>(from: impl Fn(u64) -> V) {
            let mismatch = KylixError::Codec {
                what: CHECKSUM_MISMATCH,
            };
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 13, 40] {
                let vals = ramp(n, &from);
                let msg = encode_values(&vals).to_vec();
                let mut dst = vec![V::default(); n];
                decode_values_into(&msg, &mut dst).unwrap();
                assert_eq!(&encode_values(&dst)[..], &msg[..], "{n} values decode");
                // Every changed byte: count word, values and seal.
                for pos in 0..msg.len() {
                    let mut bad = msg.clone();
                    bad[pos] ^= 1 + (pos * 37 % 255) as u8;
                    let got = decode_values_into(&bad, &mut dst);
                    assert_eq!(got, Err(mismatch.clone()), "{n} values: byte {pos}");
                }
                // Every truncation.
                for len in 0..msg.len() {
                    let got = decode_values_into(&msg[..len], &mut dst);
                    assert_eq!(got, Err(mismatch.clone()), "{n} values cut to {len}");
                }
                // An intact message with the wrong count, of the wrong
                // length or of the right one.
                let misaligned = Err(KylixError::Codec { what: MISALIGNED });
                for wrong in [n + 1, n.wrapping_sub(1)] {
                    if wrong < n + 2 {
                        let mut dst = vec![V::default(); wrong];
                        assert_eq!(decode_values_into(&msg, &mut dst), misaligned);
                    }
                }
                if n > 0 {
                    let mut buf = Vec::new();
                    put_values(&mut buf, &vals[1..]);
                    buf.extend_from_slice(&vec![0; V::WIDTH]);
                    let padded = seal(buf);
                    assert_eq!(padded.len(), msg.len());
                    assert_eq!(decode_values_into(&padded, &mut dst), misaligned);
                }
            }
        }
        check(|x| x as u32);
        check(f64::from_bits);
    }

    #[test]
    fn short_buffer_reports_checksum_failure() {
        for n in 0..SEAL_LEN {
            assert!(Decoder::new(&vec![0u8; n]).is_err());
        }
    }
}
