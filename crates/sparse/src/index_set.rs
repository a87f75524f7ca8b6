//! Sorted, deduplicated sets of hashed feature indices.
//!
//! An [`IndexSet`] is the unit of Kylix's configuration pass: each node's
//! `in` and `out` feature sets are kept in hash order so that
//!
//! * splitting by hash range is two binary searches per boundary,
//! * unions of co-ranged sets are linear merges (see [`crate::merge`]),
//! * positions in the set index directly into the value vectors exchanged
//!   during reduction.
//!
//! The order and the dedup look at the hash alone ([`Key`]'s `Ord` and
//! `Eq`). `mix64` is a bijection, so equal hashes mean equal indices and
//! the hash order is exactly the `(hash, index)` order.
//!
//! Sets are built by one hash-bucket pass rather than a comparison sort.
//! Keys are splitmix64 hashes, uniform by construction, so scattering
//! them into about `n` buckets by the hash's top bits leaves each bucket
//! with O(1) expected keys, and one insertion pass over the scattered
//! array finishes the order (each key moves only within its bucket).
//! Should a bucket hold more than 16 keys (adversarial indices sharing
//! their top hash bits), a `sort_unstable` per bucket keeps the worst
//! case O(n log n) instead. The count and scatter passes hash straight
//! from the caller's indices into the one output buffer. The dedup pass
//! that follows can also record where each input landed
//! ([`IndexSet::with_positions`]), so callers that need their own list
//! in set positions get it without a binary search per element —
//! random-access lookups, not comparisons, were the cost (§VI.A's point,
//! applied to set construction).

use crate::hash::mix64;
use crate::key::Key;
use crate::range::HashRange;

/// A sorted, deduplicated sequence of [`Key`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSet {
    keys: Vec<Key>,
}

impl IndexSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw feature indices (hashes computed, sorted, deduped).
    pub fn from_indices(indices: impl IntoIterator<Item = u64>) -> Self {
        let indices: Vec<u64> = indices.into_iter().collect();
        let mut keys = bucket_sort(&indices, |_, index| index);
        keys.dedup();
        Self { keys }
    }

    /// Build from raw feature indices and report where each one landed:
    /// `map[i]` is the position of `indices[i]` in the returned set.
    /// Duplicates share a position.
    pub fn with_positions(indices: &[u64]) -> (Self, Vec<u32>) {
        // Sort (hash, input position) pairs; the index is restored in
        // the dedup pass. mix64 is a bijection, so equal hashes mean
        // equal indices.
        let mut keys = bucket_sort(indices, |pos, _| pos as u64);
        let mut map = vec![0u32; indices.len()];
        let mut len = 0;
        for r in 0..keys.len() {
            let Key { hash, index: pos } = keys[r];
            let index = indices[pos as usize];
            if len == 0 || keys[len - 1].hash != hash {
                // `len <= r`: the write never clobbers an unread entry.
                keys[len] = Key { hash, index };
                len += 1;
            }
            debug_assert_eq!(keys[len - 1].index, index, "mix64 collision");
            map[pos as usize] = (len - 1) as u32;
        }
        keys.truncate(len);
        (Self { keys }, map)
    }

    /// Build from keys that are already sorted and deduplicated.
    ///
    /// Panics in debug builds if the invariant does not hold.
    pub fn from_sorted_keys(keys: Vec<Key>) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys not sorted/unique"
        );
        Self { keys }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sorted keys.
    #[inline]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Consume into the sorted key vector.
    pub fn into_keys(self) -> Vec<Key> {
        self.keys
    }

    /// Iterate the original feature indices in set (hash) order.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().map(|k| k.index)
    }

    /// Binary-search the position of `key`.
    pub fn position(&self, key: Key) -> Option<usize> {
        self.keys.binary_search(&key).ok()
    }

    /// Does the set contain the feature index?
    pub fn contains_index(&self, index: u64) -> bool {
        self.position(Key::new(index)).is_some()
    }

    /// The position range `[start, end)` of keys whose hash lies in `range`.
    pub fn span_of(&self, range: &HashRange) -> std::ops::Range<usize> {
        let start = self
            .keys
            .partition_point(|k| (k.hash as u128) < range.lo() as u128);
        let end = self.keys.partition_point(|k| (k.hash as u128) < range.hi());
        start..end
    }

    /// Split the set into `d` contiguous slices, one per equal sub-range of
    /// `range`. The concatenation of the slices is exactly the whole set
    /// (assuming all keys lie within `range`, which the caller guarantees
    /// in the Kylix protocol).
    pub fn split_by_range<'a>(&'a self, range: &HashRange, d: usize) -> Vec<&'a [Key]> {
        let parts = range.split(d);
        let mut out = Vec::with_capacity(d);
        for p in &parts {
            out.push(&self.keys[self.span_of(p)]);
        }
        out
    }

    /// Check every key lies within `range` (protocol invariant; used by
    /// debug assertions and tests).
    pub fn all_within(&self, range: &HashRange) -> bool {
        self.keys.iter().all(|k| range.contains(k.hash))
    }
}

/// Most hash bits a bucket pass splits on: at most 2^16 buckets.
const MAX_BUCKET_BITS: u32 = 16;

/// Widest bucket the finishing insertion pass accepts.
const INSERTION_MAX: u32 = 16;

/// Hash `indices` and sort them by hash into one fresh buffer; entry
/// `Key { hash, index: tag(position, index) }` stands for each input.
/// The hashes are scattered into about `indices.len()` buckets by their
/// top bits, then sorted within the buckets: one insertion pass if none
/// is wider than [`INSERTION_MAX`], else `sort_unstable` per bucket,
/// which bounds the worst case. Both the count and the scatter pass hash
/// straight from `indices`, so no keyed copy of the input is built.
fn bucket_sort(indices: &[u64], tag: impl Fn(usize, u64) -> u64) -> Vec<Key> {
    let key = |p: usize, index: u64| Key {
        hash: mix64(index),
        index: tag(p, index),
    };
    if indices.len() < 2 {
        return indices
            .iter()
            .enumerate()
            .map(|(p, &i)| key(p, i))
            .collect();
    }
    assert!(
        u32::try_from(indices.len()).is_ok(),
        "set positions are u32"
    );
    let bits = indices
        .len()
        .next_power_of_two()
        .trailing_zeros()
        .min(MAX_BUCKET_BITS);
    let shift = 64 - bits;
    // ends[b] counts bucket b, then becomes its start, then (after the
    // scatter) its end.
    let mut ends = vec![0u32; 1 << bits];
    for &i in indices {
        ends[(mix64(i) >> shift) as usize] += 1;
    }
    let (mut start, mut widest) = (0, 0);
    for e in &mut ends {
        let count = *e;
        *e = start;
        start += count;
        widest = widest.max(count);
    }
    let mut sorted = vec![Key { hash: 0, index: 0 }; indices.len()];
    for (p, &i) in indices.iter().enumerate() {
        let k = key(p, i);
        let e = &mut ends[(k.hash >> shift) as usize];
        sorted[*e as usize] = k;
        *e += 1;
    }
    if widest <= INSERTION_MAX {
        for i in 1..sorted.len() {
            let (k, mut j) = (sorted[i], i);
            while j > 0 && sorted[j - 1] > k {
                sorted[j] = sorted[j - 1];
                j -= 1;
            }
            sorted[j] = k;
        }
    } else {
        let mut lo = 0;
        for &hi in &ends {
            sorted[lo..hi as usize].sort_unstable();
            lo = hi as usize;
        }
    }
    sorted
}

impl FromIterator<u64> for IndexSet {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_indices(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{unmix64, Xoshiro256};

    /// The fields of each key: `Key`'s own `==` looks at the hash alone,
    /// so this is what shows that the index was restored too.
    fn fields(keys: &[Key]) -> Vec<(u64, u64)> {
        keys.iter().map(|k| (k.hash, k.index)).collect()
    }

    /// Both constructors agree with a comparison sort + dedup of
    /// `indices`, and `with_positions` maps every input to the position
    /// a binary search of that oracle finds.
    fn check_constructors(indices: &[u64]) {
        let mut want: Vec<Key> = indices.iter().map(|&i| Key::new(i)).collect();
        want.sort_unstable();
        want.dedup();
        let from = IndexSet::from_indices(indices.iter().copied());
        assert_eq!(fields(from.keys()), fields(&want));
        let (set, map) = IndexSet::with_positions(indices);
        assert_eq!(fields(set.keys()), fields(&want));
        assert_eq!(map.len(), indices.len());
        for (&i, &p) in indices.iter().zip(&map) {
            assert_eq!(want.binary_search(&Key::new(i)), Ok(p as usize));
        }
    }

    #[test]
    fn tiny_and_duplicate_inputs_match_the_oracle() {
        check_constructors(&[]);
        check_constructors(&[7]);
        check_constructors(&[7, 7]);
        check_constructors(&[7, 3]);
        check_constructors(&[3, 7]);
        check_constructors(&[5, 1, 5, 9, 1, 1, u64::MAX, 0, u64::MAX]);
        let mut rng = Xoshiro256::new(29);
        for n in [3usize, 17, 100, 1000] {
            let indices: Vec<u64> = (0..n).map(|_| rng.next_below(n as u64 / 2 + 1)).collect();
            check_constructors(&indices);
        }
    }

    /// Indices whose hashes carry `top` in their top `bits` bits and
    /// random low bits.
    fn in_bucket(rng: &mut Xoshiro256, bits: u32, top: u64, n: usize) -> Vec<u64> {
        (0..n)
            .map(|_| unmix64(top << (64 - bits) | rng.next_u64() >> bits))
            .collect()
    }

    #[test]
    fn one_crowded_bucket_sorts_in_time() {
        // Every hash shares its top 16 bits: one bucket holds them all,
        // the adversarial case the per-bucket sort exists for.
        let mut rng = Xoshiro256::new(23);
        let mut indices = in_bucket(&mut rng, 16, 0xBEEF, 50_000);
        indices.extend_from_within(..500); // duplicates share positions
        let t = std::time::Instant::now();
        check_constructors(&indices);
        assert!(t.elapsed().as_secs_f64() < 2.0, "took {:?}", t.elapsed());
    }

    #[test]
    fn widest_bucket_on_both_sides_of_the_insertion_pass() {
        // 256 keys use 8 bucket bits: two adjacent buckets of `widest`
        // keys, every other key alone in its bucket.
        for widest in [INSERTION_MAX as usize, INSERTION_MAX as usize + 1] {
            let mut rng = Xoshiro256::new(widest as u64);
            let mut indices = in_bucket(&mut rng, 8, 5, widest);
            indices.extend(in_bucket(&mut rng, 8, 6, widest));
            for b in (7..256).take(256 - 2 * widest) {
                indices.extend(in_bucket(&mut rng, 8, b, 1));
            }
            rng.shuffle(&mut indices);
            assert_eq!(indices.len(), 256);
            check_constructors(&indices);
        }
    }

    #[test]
    fn from_indices_sorts_and_dedups() {
        let s = IndexSet::from_indices([5u64, 1, 5, 9, 1, 1]);
        assert_eq!(s.len(), 3);
        assert!(s.keys().windows(2).all(|w| w[0] < w[1]));
        let mut idx: Vec<u64> = s.indices().collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![1, 5, 9]);
    }

    #[test]
    fn contains_and_position() {
        let s = IndexSet::from_indices(0..100u64);
        for i in 0..100 {
            assert!(s.contains_index(i));
        }
        assert!(!s.contains_index(100));
        for (p, k) in s.keys().iter().enumerate() {
            assert_eq!(s.position(*k), Some(p));
        }
    }

    #[test]
    fn split_by_range_concatenates_to_whole() {
        let mut rng = Xoshiro256::new(17);
        let s = IndexSet::from_indices((0..5000).map(|_| rng.next_below(1_000_000)));
        for d in [1usize, 2, 3, 7, 16] {
            let parts = s.split_by_range(&HashRange::full(), d);
            let cat: Vec<Key> = parts.iter().flat_map(|p| p.iter().copied()).collect();
            assert_eq!(cat, s.keys(), "d={d}");
        }
    }

    #[test]
    fn split_parts_land_in_their_ranges() {
        let mut rng = Xoshiro256::new(19);
        let s = IndexSet::from_indices((0..2000).map(|_| rng.next_u64()));
        let ranges = HashRange::full().split(8);
        let parts = s.split_by_range(&HashRange::full(), 8);
        for (r, p) in ranges.iter().zip(&parts) {
            for k in *p {
                assert!(r.contains(k.hash));
            }
        }
    }

    #[test]
    fn power_law_indices_balance_across_ranges() {
        // Indices 0..n with Zipf-ish duplication collapse to 0..n distinct
        // keys; hashing must spread them evenly across 8 ranges.
        let s = IndexSet::from_indices(0..80_000u64);
        let parts = s.split_by_range(&HashRange::full(), 8);
        for p in &parts {
            let frac = p.len() as f64 / s.len() as f64;
            assert!((frac - 0.125).abs() < 0.01, "unbalanced: {}", p.len());
        }
    }

    #[test]
    fn span_of_empty_range_is_empty() {
        let s = IndexSet::from_indices(0..100u64);
        let r = HashRange::new(42, 42);
        assert!(s.span_of(&r).is_empty());
    }

    #[test]
    fn all_within_detects_outliers() {
        let s = IndexSet::from_indices([1u64, 2, 3]);
        assert!(s.all_within(&HashRange::full()));
        let tiny = HashRange::new(0, 1);
        assert!(!s.all_within(&tiny));
    }
}
