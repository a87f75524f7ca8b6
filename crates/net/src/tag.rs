//! Message tags.
//!
//! Kylix's protocol interleaves several logical streams between the same
//! pair of nodes — configuration messages, down-pass reduction values,
//! up-pass gathered values, application payloads — and replication adds
//! duplicate copies of each. A [`Tag`] identifies the stream so receivers
//! can *selectively* receive: `(phase, layer, seq)` packs into one `u64`.
//!
//! The tag is also the telemetry key: [`count`] files a count under the
//! tag's `(phase, layer)`, and every count in the workspace that belongs
//! to a message goes through it.

use kylix_telemetry::{Counter, RankTelemetry};

/// Protocol phase of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    /// Configuration pass (index sets travelling down).
    Config = 0,
    /// Reduction down pass (values being scatter-reduced).
    ReduceDown = 1,
    /// Reduction up pass (values being gathered back).
    ReduceUp = 2,
    /// Combined configuration+reduction messages (minibatch mode).
    Combined = 3,
    /// Application-level traffic.
    App = 4,
    /// Control traffic (barriers, handshakes).
    Control = 5,
}

/// A message tag: `(phase, layer, seq)` packed into 64 bits.
///
/// `layer` is the butterfly communication layer (or any app-chosen
/// sub-channel), `seq` a free-running sequence number distinguishing
/// successive collective operations on the same channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(u64);

impl Tag {
    /// Pack a tag.
    #[inline]
    pub fn new(phase: Phase, layer: u16, seq: u32) -> Self {
        Tag(((phase as u64) << 48) | ((layer as u64) << 32) | seq as u64)
    }

    /// The phase component.
    #[inline]
    pub fn phase(&self) -> u8 {
        (self.0 >> 48) as u8
    }

    /// The layer component.
    #[inline]
    pub fn layer(&self) -> u16 {
        (self.0 >> 32) as u16
    }

    /// The sequence component.
    #[inline]
    pub fn seq(&self) -> u32 {
        self.0 as u32
    }

    /// The raw packed value.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Rebuild a tag from its packed value (the wire form used by the
    /// TCP substrate's frame codec). Inverse of [`Tag::raw`].
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        Tag(raw)
    }
}

/// File `n` of `kind` under `tag`'s `(phase, layer)` in `tel`, if there
/// is a shard to file into.
#[inline]
pub fn count(tel: Option<&RankTelemetry>, tag: Tag, kind: Counter, n: u64) {
    if let Some(t) = tel {
        t.add(tag.phase(), tag.layer(), kind, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let t = Tag::new(Phase::ReduceUp, 7, 123456);
        assert_eq!(t.phase(), Phase::ReduceUp as u8);
        assert_eq!(t.layer(), 7);
        assert_eq!(t.seq(), 123456);
    }

    #[test]
    fn distinct_fields_distinct_tags() {
        let a = Tag::new(Phase::Config, 1, 0);
        let b = Tag::new(Phase::Config, 2, 0);
        let c = Tag::new(Phase::Config, 1, 1);
        let d = Tag::new(Phase::ReduceDown, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn raw_round_trip() {
        let t = Tag::new(Phase::App, 9, 77);
        assert_eq!(Tag::from_raw(t.raw()), t);
    }

    #[test]
    fn extremes_fit() {
        let t = Tag::new(Phase::Control, u16::MAX, u32::MAX);
        assert_eq!(t.layer(), u16::MAX);
        assert_eq!(t.seq(), u32::MAX);
        assert_eq!(t.phase(), Phase::Control as u8);
    }
}
