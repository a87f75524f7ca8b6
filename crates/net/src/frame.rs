//! Wire framing for the TCP substrate.
//!
//! A Kylix message on a socket is a *frame*:
//!
//! ```text
//! [body_len u32 LE][tag u64 LE][payload bytes …]
//! ```
//!
//! where `body_len = 8 + payload.len()` counts everything after the
//! length word. The sender rank is not on the wire — each TCP
//! connection carries exactly one direction of one peer pair, so the
//! source is established once at connection handshake and implied for
//! every frame after that.
//!
//! [`write_frame`] hands the header and the payload to the writer as
//! two slices, so the payload is never copied into a frame buffer.
//! [`read_frame`] pulls exactly one frame from a byte stream; TCP may
//! tear or concatenate frames arbitrarily, and `read_exact` hides that.
//! A declared body length above [`MAX_FRAME_BYTES`] (or below the
//! 8-byte tag) is rejected as a [`FrameError`] as soon as the length
//! word arrives, before the tag is read or the body allocated: a
//! corrupted or adversarial length prefix would otherwise make the
//! reader attempt a multi-gigabyte allocation, or wait for bytes that
//! never come. Framing errors are unrecoverable for the connection —
//! once the length prefix cannot be trusted, no later byte boundary
//! can — so the TCP substrate maps them to [`crate::CommError::Corrupt`]
//! and closes the link.

use crate::tag::Tag;
use bytes::Bytes;
use std::io::{self, IoSlice, Read, Write};

/// Upper bound on the *payload* of one frame (64 MiB). Generously above
/// any packet the protocol produces (the paper's largest direct-topology
/// packets are ~1 MB at full scale), while small enough that a garbage
/// length prefix cannot drive allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Bytes of framing overhead per message: the length word plus the tag.
pub const FRAME_HEADER: usize = 4 + 8;

/// A framing violation. The byte stream cannot be re-synchronised after
/// one of these: the connection must be torn down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The declared body length exceeds [`MAX_FRAME_BYTES`] + tag.
    Oversized {
        /// The declared body length.
        len: usize,
    },
    /// The declared body length cannot even hold the 8-byte tag.
    Undersized {
        /// The declared body length.
        len: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame body length {len} exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::Undersized { len } => {
                write!(f, "frame body length {len} cannot hold the 8-byte tag")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one message as a length-prefixed frame. The header and the
/// payload go to the writer as two slices of one `write_vectored` loop,
/// so the payload is not copied.
pub fn write_frame(w: &mut impl Write, tag: Tag, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
        payload.len()
    );
    let mut header = [0u8; FRAME_HEADER];
    header[..4].copy_from_slice(&((8 + payload.len()) as u32).to_le_bytes());
    header[4..].copy_from_slice(&tag.raw().to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read exactly one frame. A stream that ends anywhere, even mid-frame,
/// yields an `UnexpectedEof` error; a bad length word yields an
/// `InvalidData` error wrapping the [`FrameError`], checked before
/// anything after it is read.
pub fn read_frame(r: &mut impl Read) -> io::Result<(Tag, Bytes)> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let body_len = u32::from_le_bytes(word) as usize;
    if body_len < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Undersized { len: body_len },
        ));
    }
    if body_len > MAX_FRAME_BYTES + 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized { len: body_len },
        ));
    }
    let mut tag = [0u8; 8];
    r.read_exact(&mut tag)?;
    let mut payload = vec![0u8; body_len - 8];
    r.read_exact(&mut payload)?;
    Ok((Tag::from_raw(u64::from_le_bytes(tag)), Bytes::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Phase;

    fn tag(layer: u16, seq: u32) -> Tag {
        Tag::new(Phase::App, layer, seq)
    }

    fn encode(tag: Tag, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, tag, payload).unwrap();
        wire
    }

    /// A reader that hands out at most one byte per `read`.
    struct ByteByByte<'a>(&'a [u8]);

    impl Read for ByteByByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn is_eof(r: io::Result<(Tag, Bytes)>) -> bool {
        matches!(r, Err(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }

    fn frame_error(r: io::Result<(Tag, Bytes)>) -> Option<FrameError> {
        let e = r.err()?.into_inner()?;
        e.downcast_ref::<FrameError>().copied()
    }

    #[test]
    fn single_frame_round_trip() {
        let wire = encode(tag(3, 9), b"hello");
        let mut r = &wire[..];
        let (t, p) = read_frame(&mut r).expect("complete frame");
        assert_eq!(t, tag(3, 9));
        assert_eq!(&p[..], b"hello");
        assert!(is_eof(read_frame(&mut r)));
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let wire = encode(tag(0, 0), b"");
        assert_eq!(wire.len(), FRAME_HEADER);
        let (t, p) = read_frame(&mut &wire[..]).expect("complete frame");
        assert_eq!(t, tag(0, 0));
        assert!(p.is_empty());
    }

    #[test]
    fn torn_reads_reassemble_byte_by_byte() {
        let wire = encode(tag(1, 2), b"torn across many reads");
        for cut in 0..wire.len() {
            assert!(
                is_eof(read_frame(&mut ByteByByte(&wire[..cut]))),
                "frame complete early at byte {cut}"
            );
        }
        let (t, p) = read_frame(&mut ByteByByte(&wire)).expect("complete at last byte");
        assert_eq!(t, tag(1, 2));
        assert_eq!(&p[..], b"torn across many reads");
    }

    #[test]
    fn concatenated_frames_split_correctly() {
        let mut wire = Vec::new();
        for i in 0..10u32 {
            write_frame(&mut wire, tag(0, i), &[i as u8; 7]).unwrap();
        }
        let mut r = &wire[..];
        for i in 0..10u32 {
            let (t, p) = read_frame(&mut r).expect("frame i");
            assert_eq!(t, tag(0, i));
            assert_eq!(&p[..], &[i as u8; 7]);
        }
        assert!(is_eof(read_frame(&mut r)));
    }

    #[test]
    fn oversized_length_is_rejected_not_allocated() {
        // The length word alone: rejection must not wait for the tag.
        let wire = u32::MAX.to_le_bytes();
        assert_eq!(
            frame_error(read_frame(&mut &wire[..])),
            Some(FrameError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn undersized_length_is_rejected() {
        let mut wire = 3u32.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            frame_error(read_frame(&mut &wire[..])),
            Some(FrameError::Undersized { len: 3 })
        );
    }

    #[test]
    fn length_exactly_at_cap_is_accepted() {
        // A header declaring exactly MAX_FRAME_BYTES + 8 must parse (the
        // reader just runs out of bytes waiting for the tag), one more
        // must not.
        let wire = ((MAX_FRAME_BYTES + 8) as u32).to_le_bytes();
        assert!(is_eof(read_frame(&mut &wire[..])), "cap-sized body waits");
        let wire = ((MAX_FRAME_BYTES + 9) as u32).to_le_bytes();
        assert!(frame_error(read_frame(&mut &wire[..])).is_some());
    }
}
