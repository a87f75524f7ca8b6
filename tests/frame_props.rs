//! Property tests for the TCP wire-frame codec.
//!
//! TCP is a byte stream: the kernel may hand the reader any torn,
//! partial, or concatenated view of what was written. Whatever the
//! tearing, `read_frame` must reproduce exactly the frames that were
//! written — same tags, same payloads, same order — and a declared
//! length beyond the cap must be rejected *before* any allocation, no
//! matter where in the stream it appears. Every property reads through
//! [`Chunked`], which hands the wire out in cycling chunk sizes.

use kylix_net::{read_frame, write_frame, Phase, Tag, FRAME_HEADER, MAX_FRAME_BYTES};
use kylix_sparse::Xoshiro256;
use std::io::{self, ErrorKind, Read};

const PHASES: [Phase; 6] = [
    Phase::Config,
    Phase::ReduceDown,
    Phase::ReduceUp,
    Phase::Combined,
    Phase::App,
    Phase::Control,
];

/// Cases per property; the case number seeds its generator, and every
/// failure message names it.
const CASES: u64 = 256;

fn arb_tag(rng: &mut Xoshiro256) -> Tag {
    let phase = PHASES[rng.next_index(PHASES.len())];
    Tag::new(phase, rng.next_u64() as u16, rng.next_u64() as u32)
}

/// A tagged payload of up to 2047 random bytes.
fn arb_message(rng: &mut Xoshiro256) -> (Tag, Vec<u8>) {
    let tag = arb_tag(rng);
    let len = rng.next_index(2048);
    (tag, (0..len).map(|_| rng.next_u64() as u8).collect())
}

/// Between `lo` and `hi - 1` messages.
fn arb_messages(rng: &mut Xoshiro256, lo: usize, hi: usize) -> Vec<(Tag, Vec<u8>)> {
    let n = lo + rng.next_index(hi - lo);
    (0..n).map(|_| arb_message(rng)).collect()
}

/// Up to 15 chunk sizes of 1..=96 bytes; none means the whole wire
/// in one read.
fn arb_chunk_sizes(rng: &mut Xoshiro256) -> Vec<usize> {
    let n_chunks = rng.next_index(16);
    (0..n_chunks).map(|_| 1 + rng.next_index(96)).collect()
}

/// The wire of `msgs`, frame after frame.
fn encode_all(msgs: &[(Tag, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (tag, payload) in msgs {
        write_frame(&mut wire, *tag, payload).unwrap();
    }
    wire
}

/// A `Read` over `wire` whose reads return at most the next size in
/// `chunk_sizes`, cycling — the tearing a socket may show.
struct Chunked<'a> {
    wire: &'a [u8],
    chunk_sizes: Vec<usize>,
    k: usize,
}

impl<'a> Chunked<'a> {
    fn new(wire: &'a [u8], chunk_sizes: Vec<usize>) -> Self {
        Self {
            wire,
            chunk_sizes,
            k: 0,
        }
    }
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let step = if self.chunk_sizes.is_empty() {
            self.wire.len()
        } else {
            self.chunk_sizes[self.k % self.chunk_sizes.len()]
        };
        self.k += 1;
        let n = step.min(buf.len()).min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// Read frames until the stream ends; return every frame read. Any
/// error but EOF panics. `seed` names the case in a failure.
fn read_until_eof(r: &mut impl Read, seed: u64) -> Vec<(Tag, Vec<u8>)> {
    let mut out = Vec::new();
    loop {
        match read_frame(r) {
            Ok((tag, payload)) => out.push((tag, payload.to_vec())),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => return out,
            Err(e) => panic!("seed {seed}: valid wire never errors: {e:?}"),
        }
    }
}

/// Round trip through arbitrary tearing: any message sequence,
/// concatenated on one wire and read back in arbitrary chunk
/// sizes, decodes to exactly the input sequence.
#[test]
fn torn_and_concatenated_reads_round_trip() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let msgs = arb_messages(&mut rng, 0, 20);
        let chunk_sizes = arb_chunk_sizes(&mut rng);
        let wire = encode_all(&msgs);
        let got = read_until_eof(&mut Chunked::new(&wire, chunk_sizes), seed);
        assert_eq!(got, msgs, "seed {seed}");
    }
}

/// A truncated wire — any strict prefix of a valid stream — never
/// errors: `read_frame` yields the complete frames and then reports
/// EOF.
#[test]
fn any_prefix_is_incomplete_never_an_error() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let msgs = arb_messages(&mut rng, 1, 8);
        let cut_frac = rng.next_f64();
        let chunk_sizes = arb_chunk_sizes(&mut rng);
        let wire = encode_all(&msgs);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        let got = read_until_eof(&mut Chunked::new(&wire[..cut], chunk_sizes), seed);
        // Exactly the frames that end inside the prefix came out.
        let mut end = 0;
        let whole = msgs
            .iter()
            .take_while(|(_, p)| {
                end += FRAME_HEADER + p.len();
                end <= cut
            })
            .count();
        assert_eq!(got, msgs[..whole], "seed {seed}");
    }
}

/// Oversized declared lengths are rejected wherever they appear in
/// the stream — including after valid frames — and rejection comes
/// from the 4-byte prefix alone, before the body exists.
#[test]
fn oversized_length_rejected_mid_stream() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let msgs = arb_messages(&mut rng, 0, 4);
        let excess = 1 + rng.next_below(u32::MAX as u64 - 1);
        let declared = (MAX_FRAME_BYTES as u64 + 8 + excess).min(u32::MAX as u64) as u32;
        let chunk_sizes = arb_chunk_sizes(&mut rng);
        let mut wire = encode_all(&msgs);
        // The length word ends the wire: rejection may not wait for
        // the tag or the body.
        wire.extend_from_slice(&declared.to_le_bytes());
        let mut r = Chunked::new(&wire, chunk_sizes);
        for (tag, payload) in &msgs {
            let (t, p) = read_frame(&mut r)
                .unwrap_or_else(|e| panic!("seed {seed}: valid leading frames decode: {e:?}"));
            assert_eq!(t, *tag, "seed {seed}");
            assert_eq!(p.to_vec(), *payload, "seed {seed}");
        }
        let err = read_frame(&mut r).expect_err("hostile prefix must error");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "seed {seed}: {err:?}");
    }
}

/// Undersized declared lengths (too small to hold the tag) are
/// equally fatal.
#[test]
fn undersized_length_rejected() {
    // The whole domain, 0..8, rather than a sample of it.
    for bad_len in 0u32..8 {
        let mut wire = bad_len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Chunked::new(&wire, vec![1 + bad_len as usize]))
            .expect_err("undersized length must error");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "bad_len {bad_len}");
    }
}
