//! The integrity primitive: a word-parallel 64-bit [`checksum`].
//!
//! Every codec payload is sealed with it and every `ReliableComm`
//! frame carries it, so it runs twice over every byte a collective
//! ships — once on send, once on receive — and must stay well below
//! the cost of moving the byte.
//!
//! The input is hashed as 32-byte blocks over four independent `u64`
//! lanes, one little-endian word per lane per block, each word taken
//! by `lane = rotl((lane ^ word) * K, R)` with `K` odd. The four lanes
//! and then the input length are folded into one state with the same
//! step, the tail bytes past the last whole block follow one at a
//! time, and a xorshift-multiply finaliser mixes the result. The four
//! lane chains are independent, so the CPU overlaps their multiplies
//! and pays one multiply per 8 bytes, not per byte. Measured on one
//! core of a 2-vCPU Intel Xeon VM: 0.063 ns/byte (about 16 GB/s) on
//! 32 KB inputs and 0.16 ns/byte on 64-byte ones.
//!
//! The definition is streaming. [`Checksum`] holds the four lanes and
//! takes one 32-byte block at a time; `finish(len, tail)` folds them
//! with the length and the bytes past the last block. [`checksum()`] is
//! that form applied to a slice, so a caller that feeds the same bytes
//! block by block — the codec, sealing a message as it writes it or
//! verifying one as it copies it out — gets the same value without a
//! second walk over the bytes.
//!
//! Two detection guarantees hold by construction, not by chance:
//!
//! * **Every single-word change is detected with certainty.** The step
//!   is a bijection in the word for a fixed state (xor, multiplication
//!   by an odd constant and rotation are all invertible) and a
//!   bijection in the state for a fixed word, as is the finaliser. A
//!   changed word therefore changes its lane, the changed lane changes
//!   the folded state, and nothing after that can map two states to
//!   one. A single flipped bit or a single changed byte — what
//!   `ChaosComm`'s corrupt fault injects — is a single-word change.
//! * **High bits mix back down.** Without the rotation, flipping bit 63
//!   of the state only flips bit 63 of the product (`K` is odd), so
//!   two bit-63 flips in two words of one lane would cancel. The
//!   rotation moves that difference to a low bit, where the next
//!   multiply spreads it over the whole word.
//!
//! Beyond those, a multi-word corruption goes undetected only by a
//! collision of the 64-bit state. It is not a cryptographic hash: it
//! detects accidents, not adversaries.

/// Odd multiplier of the step (the 64-bit golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Rotation of the step.
const R: u32 = 31;
/// Bytes per block: one `u64` word for each of the four lanes.
const BLOCK: usize = 32;
/// Initial lane states (hex digits of pi), distinct so that equal words
/// in different lanes do not produce equal lanes.
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
/// Initial state of the fold.
const FOLD_SEED: u64 = 0x4528_21e6_38d0_1377;

/// One step: a bijection in `word` for a fixed `state`, and in `state`
/// for a fixed `word`.
#[inline(always)]
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(K).rotate_left(R)
}

/// Word-parallel 64-bit checksum of `bytes`. Shared integrity
/// primitive: the codec seals payloads with it and the reliable-delivery
/// frames carry it. See the [module docs](self) for its guarantees.
///
/// This is the streaming [`Checksum`] applied to a slice: every whole
/// block, then the length and the tail.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (blocks, tail) = bytes.as_chunks::<BLOCK>();
    let mut sum = Checksum::new();
    for block in blocks {
        sum.block(block);
    }
    sum.finish(bytes.len(), tail)
}

/// The streaming form of [`checksum`]: the four lane states, fed one
/// 32-byte block at a time, so a caller can hash a message while it
/// writes or reads it. `finish(len, tail)` over the same bytes gives
/// exactly `checksum(bytes)`.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    lanes: [u64; 4],
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// Bytes per block.
    pub const BLOCK: usize = BLOCK;

    /// The state before any input.
    pub fn new() -> Self {
        Self { lanes: LANE_SEEDS }
    }

    /// Take the next whole block: one little-endian word per lane.
    #[inline(always)]
    pub fn block(&mut self, block: &[u8; BLOCK]) {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in self.lanes.iter_mut().zip(words) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }

    /// The checksum of an input of `len` bytes whose whole blocks have
    /// all been taken, and whose last `len % 32` bytes are `tail`.
    pub fn finish(self, len: usize, tail: &[u8]) -> u64 {
        debug_assert_eq!(tail.len(), len % BLOCK, "tail is what follows the blocks");
        let mut h = self.lanes.iter().fold(FOLD_SEED, |h, &lane| step(h, lane));
        h = step(h, len as u64);
        for &b in tail {
            h = step(h, u64::from(b));
        }
        // xorshift-multiply finaliser (MurmurHash3's fmix64): bijective.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// `splitmix64`: a seeded byte and index source, so every test input
    /// is reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // Lengths 0..=130 cover every tail remainder mod 32 and put
        // flipped words in every lane of up to four blocks.
        let mut rng = Rng(1);
        for len in 0..=130 {
            for data in [vec![0u8; len], rng.bytes(len)] {
                let want = checksum(&data);
                let mut bad = data.clone();
                for byte in 0..len {
                    for bit in 0..8 {
                        bad[byte] ^= 1 << bit;
                        assert_ne!(checksum(&bad), want, "len {len} byte {byte} bit {bit}");
                        bad[byte] ^= 1 << bit;
                    }
                }
            }
        }
    }

    #[test]
    fn paired_bit63_flips_in_one_lane_are_detected() {
        // Bit 63 of a word is bit 7 of its last byte. Word `w` feeds
        // lane `w % 4`; flip it in every pair of words sharing a lane.
        let mut rng = Rng(2);
        let words = 4 * 16;
        for data in [vec![0u8; words * 8 + 5], rng.bytes(words * 8 + 5)] {
            let want = checksum(&data);
            for a in 0..words {
                for b in (a + 4..words).step_by(4) {
                    let mut bad = data.clone();
                    bad[a * 8 + 7] ^= 0x80;
                    bad[b * 8 + 7] ^= 0x80;
                    assert_ne!(checksum(&bad), want, "words {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn random_multi_byte_corruptions_do_not_collide() {
        let mut rng = Rng(3);
        for trial in 0..10_000 {
            let len = 8 + rng.below(1024);
            let data = rng.bytes(len);
            let want = checksum(&data);
            let mut bad = data.clone();
            let flips = 2 + rng.below(7);
            let mut hit = HashSet::new();
            while hit.len() < flips {
                let at = rng.below(len);
                if hit.insert(at) {
                    bad[at] ^= 1 + rng.below(255) as u8;
                }
            }
            assert_ne!(
                checksum(&bad),
                want,
                "trial {trial}: {flips} bytes of {len}"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut rng = Rng(4);
        for data in [vec![0u8; 300], rng.bytes(300)] {
            let sums: HashSet<u64> = (0..=data.len()).map(|n| checksum(&data[..n])).collect();
            assert_eq!(sums.len(), data.len() + 1, "two prefixes share a checksum");
        }
    }

    #[test]
    fn known_answers() {
        // Pinned: a change to these values is a change to the wire format.
        let ramp: Vec<u8> = (0..100).collect();
        assert_eq!(checksum(b""), 0xf109_56e2_c771_92e4);
        assert_eq!(checksum(b"kylix"), 0x1560_ee68_e997_8e08);
        assert_eq!(checksum(&[0u8; 32]), 0xd7b3_2286_f23a_2995);
        assert_eq!(checksum(&ramp), 0x433f_5fca_6406_eff7);
    }
}
