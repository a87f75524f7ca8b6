//! Hashed feature keys.
//!
//! A [`Key`] pairs an application-level feature index with its splitmix64
//! hash. All Kylix index sets are sorted by the hash: it spreads
//! power-law heads uniformly across the partitioning space, so equal hash
//! ranges ≈ equal expected load.
//!
//! Equality, order and `Hash` look at the hash alone. `mix64` is a
//! bijection (`unmix64` inverts it), so two keys built by [`Key::new`]
//! have equal hashes exactly when their indices are equal, and the hash
//! order is exactly the `(hash, index)` order: the index could never
//! break a tie. The set-construction, merge and lookup kernels therefore
//! make one `u64` compare where the tuple took two.
//!
//! Keys are 16 bytes and `Copy`; merge kernels move them by value.

use crate::hash::mix64;
use std::cmp::Ordering;

/// A feature index tagged with its partitioning hash.
///
/// Compared, ordered and hashed by `hash` alone (see the module docs);
/// a key whose `hash` is not `mix64(index)` compares by its `hash`.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// splitmix64 hash of `index` — the sort and partition key.
    pub hash: u64,
    /// The original application-level feature index.
    pub index: u64,
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.hash.cmp(&other.hash)
    }
}

impl std::hash::Hash for Key {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Key {
    /// Build a key from a raw feature index.
    #[inline]
    pub fn new(index: u64) -> Self {
        Self {
            hash: mix64(index),
            index,
        }
    }
}

impl From<u64> for Key {
    #[inline]
    fn from(index: u64) -> Self {
        Key::new(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{unmix64, Xoshiro256};

    #[test]
    fn key_orders_by_hash_first() {
        // Find two indices whose hash order differs from index order.
        let a = Key::new(0);
        let b = Key::new(1);
        if a.hash < b.hash {
            assert!(a < b);
        } else {
            assert!(b < a);
        }
    }

    #[test]
    fn key_new_matches_mix64() {
        let k = Key::new(123456);
        assert_eq!(k.hash, mix64(123456));
        assert_eq!(k.index, 123456);
    }

    /// The `(hash, index)` tuple order, which the hash-only order must
    /// reproduce.
    fn tuple(k: &Key) -> (u64, u64) {
        (k.hash, k.index)
    }

    /// Every ordered pair of `keys` compares and tests equal as the
    /// tuple does.
    fn check_pairs(keys: &[Key]) {
        for w in keys.windows(2) {
            let (a, b) = (w[0], w[1]);
            assert_eq!(a.cmp(&b), tuple(&a).cmp(&tuple(&b)), "{a:?} vs {b:?}");
            assert_eq!(b.cmp(&a), tuple(&b).cmp(&tuple(&a)), "{b:?} vs {a:?}");
            assert_eq!(a == b, tuple(&a) == tuple(&b), "{a:?} vs {b:?}");
        }
    }

    /// Sorting and deduplicating by the hash-only order gives exactly the
    /// tuple order's result.
    fn check_sort(indices: &[u64]) {
        let mut by_hash: Vec<Key> = indices.iter().map(|&i| Key::new(i)).collect();
        let mut by_tuple = by_hash.clone();
        by_hash.sort_unstable();
        by_hash.dedup();
        by_tuple.sort_unstable_by_key(tuple);
        by_tuple.dedup_by_key(|k| tuple(k));
        let got: Vec<_> = by_hash.iter().map(tuple).collect();
        let want: Vec<_> = by_tuple.iter().map(tuple).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn hash_order_is_the_tuple_order_on_random_indices() {
        let mut rng = Xoshiro256::new(31);
        // Wide random indices, small ones (many repeats) and their
        // interleaving: equal pairs occur as well as unequal ones.
        let mut indices: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        indices.extend((0..100_000).map(|_| rng.next_below(5_000)));
        rng.shuffle(&mut indices);
        let keys: Vec<Key> = indices.iter().map(|&i| Key::new(i)).collect();
        check_pairs(&keys);
        check_sort(&indices);
    }

    #[test]
    fn hash_order_is_the_tuple_order_in_a_crowded_bucket() {
        // Hashes that share their top 48 bits, and runs of consecutive
        // hashes: the closest comparisons a bucket pass ever makes.
        let mut rng = Xoshiro256::new(37);
        let mut indices: Vec<u64> = (0..20_000)
            .map(|_| unmix64(0xBEEF_u64 << 48 | rng.next_u64() >> 48))
            .collect();
        let base = rng.next_u64();
        indices.extend((0..1_000).map(|d| unmix64(base.wrapping_add(d))));
        rng.shuffle(&mut indices);
        let keys: Vec<Key> = indices.iter().map(|&i| Key::new(i)).collect();
        check_pairs(&keys);
        check_sort(&indices);
    }

    #[test]
    fn equal_keys_hash_alike() {
        use std::hash::BuildHasher;
        let s = std::collections::hash_map::RandomState::new();
        assert_eq!(s.hash_one(Key::new(9)), s.hash_one(Key::new(9)));
        let set: std::collections::HashSet<Key> = [1u64, 2, 1, 3, 2].map(Key::new).into();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn key_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 16);
    }

    #[test]
    fn from_u64_round_trip() {
        let k: Key = 42u64.into();
        assert_eq!(k, Key::new(42));
    }
}
