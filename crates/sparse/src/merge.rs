//! Union-with-position-maps merge kernels.
//!
//! During configuration (paper §III.A) a node receives `d` sorted index
//! sets from its butterfly-group neighbours and must compute
//!
//! 1. the **union** of the sets (the node's index set for the next layer),
//! 2. for every input set, a **position map** from positions in that set
//!    to positions in the union.
//!
//! The maps are what make reduction cheap: the down pass *scatter-adds* a
//! neighbour's value vector into the union layout with one indexed add per
//! element (`map f` in the paper), and the up pass *gathers* the slice a
//! neighbour asked for with one indexed read per element (`map g`).
//!
//! §VI.A of the paper observes that hash tables are the asymptotically
//! obvious way to union sets but lose badly to **merging sorted runs** in
//! practice (5× in their measurements) because of random-access constants.
//! Merging is only efficient when the two runs are comparable in length,
//! so `k` sets are combined along a balanced binary **tree merge**: the
//! sets split into two halves, recursively, and every inner node merges
//! its halves' runs with one two-run loop (which is all [`merge_union`]
//! is). A half that is a single input set is merged straight from the
//! caller's slice, and the merge's placement of it *is* that set's map;
//! only inner nodes build a run. When an inner child's run is merged,
//! its leaves' maps are rewritten in place through the merge's
//! placement, so each leaf owns one map buffer for the whole tree.

use crate::key::Key;

/// Result of unioning `k` sorted sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeResult {
    /// The sorted, deduplicated union of all input sets.
    pub union: Vec<Key>,
    /// `maps[i][p]` = position in `union` of element `p` of input set `i`.
    pub maps: Vec<Vec<u32>>,
}

/// Merge two sorted deduplicated runs, producing the union and, for each
/// input, the map from its positions to union positions.
pub fn merge_union(a: &[Key], b: &[Key]) -> MergeResult {
    tree_merge(&[a, b])
}

/// Union `k` sorted deduplicated sets via a balanced tree merge,
/// returning per-set position maps into the union (paper §VI.A).
///
/// Cost is `O(S log k)` where `S` is the total input size, versus
/// `O(S k)` for naive sequential accumulation into one growing run.
pub fn tree_merge(sets: &[&[Key]]) -> MergeResult {
    let mut maps = vec![Vec::new(); sets.len()];
    let union = match sets {
        [] => Vec::new(),
        [s] => {
            maps[0] = (0..s.len() as u32).collect();
            s.to_vec()
        }
        _ => merge_node(sets, &mut maps),
    };
    MergeResult { union, maps }
}

/// Union of two or more `sets`, writing each set's map into the
/// matching entry of `maps`.
fn merge_node(sets: &[&[Key]], maps: &mut [Vec<u32>]) -> Vec<Key> {
    let mid = sets.len() / 2;
    let (a_maps, b_maps) = maps.split_at_mut(mid);
    // A single set is merged straight from its slice; a larger half
    // first builds its own run.
    let a_run = (mid > 1).then(|| merge_node(&sets[..mid], a_maps));
    let b_run = (sets.len() - mid > 1).then(|| merge_node(&sets[mid..], b_maps));
    let a = a_run.as_deref().unwrap_or(sets[0]);
    let b = b_run.as_deref().unwrap_or(sets[mid]);
    let (union, [place_a, place_b]) = merge_runs(a, b);
    settle(a_maps, place_a);
    settle(b_maps, place_b);
    union
}

/// The one merge loop: the union of sorted runs `a` and `b`, and each
/// run's placement (its positions in the union).
fn merge_runs(a: &[Key], b: &[Key]) -> (Vec<Key>, [Vec<u32>; 2]) {
    let mut union = vec![Key { hash: 0, index: 0 }; a.len() + b.len()];
    let (mut map_a, mut map_b) = (vec![0; a.len()], vec![0; b.len()]);
    let (mut i, mut j, mut n) = (0, 0, 0);
    // Which run advances is data, not control flow: interleaved runs
    // would mispredict a branch per key. A run that does not advance
    // has its slot written again on a later step.
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        union[n] = if x <= y { x } else { y };
        map_a[i] = n as u32;
        map_b[j] = n as u32;
        i += (x <= y) as usize;
        j += (y <= x) as usize;
        n += 1;
    }
    for (tail, map) in [(&a[i..], &mut map_a[i..]), (&b[j..], &mut map_b[j..])] {
        for (k, p) in tail.iter().zip(map) {
            union[n] = *k;
            *p = n as u32;
            n += 1;
        }
    }
    union.truncate(n);
    (union, [map_a, map_b])
}

/// Hand one merged side its maps: a single set's placement is its map;
/// a child run's leaf maps are rewritten in place through the placement.
fn settle(maps: &mut [Vec<u32>], place: Vec<u32>) {
    if let [map] = maps {
        *map = place;
    } else {
        for p in maps.iter_mut().flatten() {
            *p = place[*p as usize];
        }
    }
}

/// Reference union via hash set + sort; used by tests and benches as the
/// baseline the paper's tree merge beat by 5×.
pub fn hash_union(sets: &[&[Key]]) -> Vec<Key> {
    let mut all: std::collections::HashSet<Key> = std::collections::HashSet::new();
    for s in sets {
        all.extend(s.iter().copied());
    }
    let mut v: Vec<Key> = all.into_iter().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::Xoshiro256;
    use crate::index_set::IndexSet;

    fn set(ids: impl IntoIterator<Item = u64>) -> Vec<Key> {
        IndexSet::from_indices(ids).into_keys()
    }

    fn check_maps(result: &MergeResult, inputs: &[&[Key]]) {
        assert_eq!(result.maps.len(), inputs.len());
        for (input, map) in inputs.iter().zip(&result.maps) {
            assert_eq!(input.len(), map.len());
            for (k, &p) in input.iter().zip(map) {
                assert_eq!(result.union[p as usize], *k, "map points at wrong key");
            }
        }
        assert!(
            result.union.windows(2).all(|w| w[0] < w[1]),
            "union not sorted/unique"
        );
    }

    #[test]
    fn merge_two_disjoint() {
        let a = set([1u64, 2, 3]);
        let b = set([10u64, 20, 30]);
        let r = merge_union(&a, &b);
        assert_eq!(r.union.len(), 6);
        check_maps(&r, &[&a, &b]);
    }

    #[test]
    fn merge_two_identical() {
        let a = set(0..50u64);
        let r = merge_union(&a, &a);
        assert_eq!(r.union, a);
        assert_eq!(r.maps[0], r.maps[1]);
        check_maps(&r, &[&a, &a]);
    }

    #[test]
    fn merge_with_empty() {
        let a = set([7u64, 8]);
        let e: Vec<Key> = Vec::new();
        let r = merge_union(&a, &e);
        assert_eq!(r.union, a);
        assert!(r.maps[1].is_empty());
        let r2 = merge_union(&e, &a);
        assert_eq!(r2.union, a);
    }

    #[test]
    fn tree_merge_matches_hash_union() {
        let mut rng = Xoshiro256::new(42);
        for k in [1usize, 2, 3, 4, 5, 8, 9, 16, 17] {
            let sets: Vec<Vec<Key>> = (0..k)
                .map(|_| {
                    let n = rng.next_index(500);
                    set((0..n).map(|_| rng.next_below(1000)))
                })
                .collect();
            let refs: Vec<&[Key]> = sets.iter().map(|s| s.as_slice()).collect();
            let r = tree_merge(&refs);
            assert_eq!(r.union, hash_union(&refs), "k={k}");
            check_maps(&r, &refs);
        }
    }

    #[test]
    fn tree_merge_edge_shapes() {
        let mut rng = Xoshiro256::new(9);
        let mut random = |n: usize| set((0..n).map(|_| rng.next_below(400)));
        let shared = random(120);
        let cases: Vec<Vec<Vec<Key>>> = vec![
            // Uneven halves: 1 + 2 and 3 + 4 sets.
            (0..3).map(|_| random(150)).collect(),
            (0..7).map(|_| random(150)).collect(),
            // Empty sets at odd positions, including a whole empty half.
            (0..7)
                .map(|i| if i % 2 == 1 { Vec::new() } else { random(90) })
                .collect(),
            vec![random(50), Vec::new(), Vec::new(), Vec::new()],
            // Every set identical.
            vec![shared.clone(); 3],
            vec![shared.clone(); 7],
            // One-key sets, repeated and distinct.
            (0..7).map(|i| set([i as u64 % 3])).collect(),
            (0..5).map(|i| set([i as u64 * 1000])).collect(),
        ];
        for (n, sets) in cases.iter().enumerate() {
            let refs: Vec<&[Key]> = sets.iter().map(|s| s.as_slice()).collect();
            let r = tree_merge(&refs);
            assert_eq!(r.union, hash_union(&refs), "case {n}");
            check_maps(&r, &refs);
        }
    }

    #[test]
    fn tree_merge_zero_sets() {
        let r = tree_merge(&[]);
        assert!(r.union.is_empty());
        assert!(r.maps.is_empty());
    }

    #[test]
    fn tree_merge_single_set_is_identity() {
        let a = set([3u64, 1, 4, 1, 5]);
        let r = tree_merge(&[&a]);
        assert_eq!(r.union, a);
        assert_eq!(r.maps[0], (0..a.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_add_through_maps_sums_duplicates() {
        // The whole point of the maps: values at shared indices collapse.
        let a = set([1u64, 2, 3]);
        let b = set([2u64, 3, 4]);
        let r = tree_merge(&[&a, &b]);
        let mut acc = vec![0.0f64; r.union.len()];
        for (v, &p) in [1.0, 1.0, 1.0].iter().zip(&r.maps[0]) {
            acc[p as usize] += v;
        }
        for (v, &p) in [10.0, 10.0, 10.0].iter().zip(&r.maps[1]) {
            acc[p as usize] += v;
        }
        let total: f64 = acc.iter().sum();
        assert_eq!(total, 33.0);
        // index 2 and 3 got both contributions
        let pos2 = r.union.iter().position(|k| k.index == 2).unwrap();
        assert_eq!(acc[pos2], 11.0);
    }

    #[test]
    fn power_law_collision_shrinks_union() {
        // Heads of power-law sets overlap heavily, so the union is much
        // smaller than the concatenation — the effect behind the Kylix
        // volume profile (paper Fig. 5).
        let mut rng = Xoshiro256::new(1);
        let sets: Vec<Vec<Key>> = (0..8)
            .map(|_| {
                set((0..3000).map(|_| {
                    // crude zipf: floor(u^-1) capped
                    let u = rng.next_f64().max(1e-9);
                    ((1.0 / u) as u64).min(9999)
                }))
            })
            .collect();
        let refs: Vec<&[Key]> = sets.iter().map(|s| s.as_slice()).collect();
        let total: usize = refs.iter().map(|s| s.len()).sum();
        let r = tree_merge(&refs);
        assert!(
            r.union.len() * 2 < total,
            "expected heavy collapse: union {} vs total {total}",
            r.union.len()
        );
    }
}
