//! Property tests on the foundation kernels: merges, splits, maps,
//! scatter/gather — the algebra the whole protocol rests on.

use kylix_sparse::hash::unmix64;
use kylix_sparse::merge::hash_union;
use kylix_sparse::vec::{gather_into, scatter_combine};
use kylix_sparse::Xoshiro256;
use kylix_sparse::{merge_union, mix64, tree_merge, HashRange, IndexSet, Key, SumReducer};
use std::collections::HashSet;

/// Cases per property; the case number seeds its generator, and every
/// failure message names it.
const CASES: u64 = 128;

/// Up to `max_len - 1` indices drawn from `0..universe`, repeats allowed.
fn arb_indices(rng: &mut Xoshiro256, max_len: usize, universe: u64) -> Vec<u64> {
    let len = rng.next_index(max_len);
    (0..len).map(|_| rng.next_below(universe)).collect()
}

/// tree_merge union == hash union for any sets; maps point at the
/// right keys; unions are sorted and unique.
#[test]
fn tree_merge_is_correct_union() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let n_sets = rng.next_index(9);
        let raw: Vec<Vec<u64>> = (0..n_sets)
            .map(|_| arb_indices(&mut rng, 60, 300))
            .collect();
        let sets: Vec<Vec<Key>> = raw
            .iter()
            .map(|ids| IndexSet::from_indices(ids.iter().copied()).into_keys())
            .collect();
        let refs: Vec<&[Key]> = sets.iter().map(|s| s.as_slice()).collect();
        let r = tree_merge(&refs);
        assert_eq!(r.union, hash_union(&refs), "seed {seed}");
        assert!(r.union.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        for (set, map) in refs.iter().zip(&r.maps) {
            assert_eq!(set.len(), map.len(), "seed {seed}");
            for (k, &p) in set.iter().zip(map) {
                assert_eq!(r.union[p as usize], *k, "seed {seed}");
            }
        }
    }
}

/// Scatter-then-gather through merge maps is the identity on each
/// input's positions when inputs are disjoint, and the sum of
/// inputs at shared keys otherwise.
#[test]
fn scatter_gather_semantics() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let a_ids = arb_indices(&mut rng, 50, 200);
        let b_ids = arb_indices(&mut rng, 50, 200);
        let a = IndexSet::from_indices(a_ids.iter().copied()).into_keys();
        let b = IndexSet::from_indices(b_ids.iter().copied()).into_keys();
        let r = merge_union(&a, &b);
        let av: Vec<f64> = (0..a.len()).map(|i| i as f64 + 1.0).collect();
        let bv: Vec<f64> = (0..b.len()).map(|i| (i as f64 + 1.0) * 100.0).collect();
        let mut acc = vec![0.0f64; r.union.len()];
        scatter_combine(&mut acc, &av, &r.maps[0], SumReducer);
        scatter_combine(&mut acc, &bv, &r.maps[1], SumReducer);
        let mut back_a = Vec::new();
        gather_into(&acc, &r.maps[0], &mut back_a);
        for (i, k) in a.iter().enumerate() {
            let b_share = b.iter().position(|bk| bk == k).map_or(0.0, |j| bv[j]);
            assert_eq!(back_a[i], av[i] + b_share, "seed {seed}");
        }
    }
}

/// Range splitting at any depth is a partition: every key lands in
/// exactly one part, parts are ordered, concatenation is identity.
#[test]
fn split_partitions_any_set() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let ids = arb_indices(&mut rng, 200, 1_000_000);
        let d = 1 + rng.next_index(11);
        let set = IndexSet::from_indices(ids.iter().copied());
        let ranges = HashRange::full().split(d);
        let parts: Vec<&[Key]> = ranges.iter().map(|r| &set.keys()[set.span_of(r)]).collect();
        assert_eq!(parts.concat(), set.keys(), "seed {seed}");
        for (r, p) in ranges.iter().zip(&parts) {
            for k in *p {
                assert!(r.contains(k.hash), "seed {seed}");
            }
        }
    }
}

/// mix64 stays bijective on arbitrary samples.
#[test]
fn mix64_injective_on_sample() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let len = rng.next_index(200);
        let xs: HashSet<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let hashed: HashSet<u64> = xs.iter().map(|&x| mix64(x)).collect();
        assert_eq!(hashed.len(), xs.len(), "seed {seed}");
    }
}

/// IndexSet construction is canonical: order and duplicates in the
/// input don't matter.
#[test]
fn index_set_is_canonical() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::new(seed);
        let mut ids = arb_indices(&mut rng, 100, 500);
        let a = IndexSet::from_indices(ids.iter().copied());
        ids.reverse();
        ids.extend(ids.clone()); // duplicates
        let b = IndexSet::from_indices(ids.iter().copied());
        assert_eq!(a, b, "seed {seed}");
    }
}

/// The oracle for set construction: comparison sort, dedup, and a
/// binary search per input for its position.
fn sort_dedup_oracle(indices: &[u64]) -> (Vec<Key>, Vec<u32>) {
    let mut keys: Vec<Key> = indices.iter().map(|&i| Key::new(i)).collect();
    keys.sort_unstable();
    keys.dedup();
    let map = indices
        .iter()
        .map(|&i| keys.binary_search(&Key::new(i)).unwrap() as u32)
        .collect();
    (keys, map)
}

/// Check both constructors against the oracle.
fn assert_matches_oracle(indices: &[u64], what: &str) {
    let (keys, map) = sort_dedup_oracle(indices);
    let (set, positions) = IndexSet::with_positions(indices);
    assert_eq!(set.keys(), keys.as_slice(), "{what}: keys");
    assert_eq!(positions, map, "{what}: positions");
    let plain = IndexSet::from_indices(indices.iter().copied());
    assert_eq!(plain, set, "{what}: from_indices");
}

/// The bucket kernel equals sort + dedup + binary search at every size,
/// including past the 2^16 bucket cap, on distinct-heavy and
/// duplicate-heavy inputs alike.
#[test]
fn bucket_construction_matches_oracle() {
    for seed in 0..4u64 {
        let mut rng = Xoshiro256::new(seed);
        for n in [0usize, 1, 2, 17, 1_000, 70_000] {
            let spread: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            assert_matches_oracle(&spread, &format!("seed {seed} n {n} spread"));
            let universe = (n as u64 / 8).max(1);
            let dupes: Vec<u64> = (0..n).map(|_| rng.next_below(universe)).collect();
            assert_matches_oracle(&dupes, &format!("seed {seed} n {n} dupes"));
        }
    }
}

/// Indices whose hashes all share their top 16 bits land in one bucket;
/// the per-bucket sort must stay O(n log n) there (well under 2 s even
/// unoptimised) and still match the oracle.
#[test]
fn bucket_construction_survives_shared_top_bits() {
    let mut rng = Xoshiro256::new(99);
    let top = 0xABCD_u64 << 48;
    let mut indices: Vec<u64> = (0..50_000)
        .map(|_| unmix64(top | (rng.next_u64() >> 16)))
        .collect();
    indices.extend_from_within(..1_000); // some duplicates too
    assert!(indices.iter().all(|&i| mix64(i) >> 48 == 0xABCD));
    let t0 = std::time::Instant::now();
    let (set, positions) = IndexSet::with_positions(&indices);
    let took = t0.elapsed();
    assert!(took.as_secs_f64() < 2.0, "adversarial build took {took:?}");
    let (keys, map) = sort_dedup_oracle(&indices);
    assert_eq!(set.keys(), keys.as_slice());
    assert_eq!(positions, map);
}
