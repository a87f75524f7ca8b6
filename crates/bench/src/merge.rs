//! §VI.A — the configuration pass's index-set union: sorted-run tree
//! merge versus a hash-table union.
//!
//! The paper reports its tree merge 5× faster than the hash
//! implementation it replaced. This experiment times both kernels on
//! power-law key sets (n = 100 000, α = 1.1, density 0.2 per set) for
//! `k` sets at a time, the per-layer degrees a Kylix plan uses plus 64.
//! The tree merge also builds the per-set position maps into the
//! union; the hash union returns the bare union.
//!
//! Times are wall clock, so unlike every other experiment its rows
//! change from run to run and machine to machine.

use kylix_powerlaw::{DensityModel, PartitionGenerator};
use kylix_sparse::merge::hash_union;
use kylix_sparse::{tree_merge, IndexSet, Key, MergeResult};
use std::hint::black_box;
use std::time::Instant;

/// One `k` of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct MergeRow {
    /// Number of sets unioned at once.
    pub k: usize,
    /// Total keys over the input sets.
    pub keys: usize,
    /// Keys in the union.
    pub union: usize,
    /// Median wall time of one `tree_merge`, ms.
    pub tree_merge_ms: f64,
    /// Median wall time of one `hash_union`, ms.
    pub hash_union_ms: f64,
    /// `hash_union_ms / tree_merge_ms`.
    pub speedup: f64,
}

/// Set counts compared.
pub const KS: [usize; 4] = [2, 8, 16, 64];

/// Index-space size of the generated key sets.
const N: u64 = 100_000;

fn power_law_sets(k: usize, seed: u64) -> Vec<Vec<Key>> {
    let gen = PartitionGenerator::with_density(DensityModel::new(N, 1.1), 0.2, seed);
    (0..k)
        .map(|i| IndexSet::from_indices(gen.indices(i)).into_keys())
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Time both kernels for each of [`KS`]: the median of 21 calls each
/// (5 with `quick`), alternating the two kernels so they share the
/// machine's load.
pub fn run(seed: u64, quick: bool) -> Vec<MergeRow> {
    let reps = if quick { 5 } else { 21 };
    KS.iter()
        .map(|&k| {
            let sets = power_law_sets(k, seed);
            let refs: Vec<&[Key]> = sets.iter().map(|s| s.as_slice()).collect();
            let MergeResult { union, maps } = tree_merge(&refs);
            assert_eq!(union, hash_union(&refs), "k = {k}: the kernels disagree");
            for (set, map) in refs.iter().zip(&maps) {
                let mapped = map.iter().map(|&p| union[p as usize]);
                assert!(
                    mapped.eq(set.iter().copied()),
                    "k = {k}: a map entry misses its key"
                );
            }
            let (mut tree, mut hash) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let t = Instant::now();
                black_box(tree_merge(black_box(&refs)));
                tree.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(hash_union(black_box(&refs)));
                hash.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let (tree_merge_ms, hash_union_ms) = (median(tree), median(hash));
            MergeRow {
                k,
                keys: sets.iter().map(Vec::len).sum(),
                union: union.len(),
                tree_merge_ms,
                hash_union_ms,
                speedup: hash_union_ms / tree_merge_ms,
            }
        })
        .collect()
}
