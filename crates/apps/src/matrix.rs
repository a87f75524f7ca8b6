//! Edge-partitioned distributed sparse matrix.
//!
//! One machine's share of a global sparse matrix, stored with *local
//! index compaction*: the distinct row and column ids become sorted
//! [`IndexSet`]s and every entry holds positions into them, so the local
//! multiply kernel runs on dense-indexed arrays and the sets plug
//! straight into the allreduce as `out` (rows) and `in` (columns) —
//! exactly the wiring of paper §I.A.2.

use kylix_sparse::IndexSet;

/// One machine's triplet share of a sparse matrix, locally compacted.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    rows: IndexSet,
    cols: IndexSet,
    /// Entries as (row position, col position, value).
    entries: Vec<(u32, u32, f64)>,
}

impl DistMatrix {
    /// Build from global `(row, col, value)` triplets.
    pub fn from_triplets(triplets: impl IntoIterator<Item = (u64, u64, f64)>) -> Self {
        let triplets: Vec<(u64, u64, f64)> = triplets.into_iter().collect();
        let row_ids: Vec<u64> = triplets.iter().map(|t| t.0).collect();
        let col_ids: Vec<u64> = triplets.iter().map(|t| t.1).collect();
        let (rows, row_pos) = IndexSet::with_positions(&row_ids);
        let (cols, col_pos) = IndexSet::with_positions(&col_ids);
        let entries = triplets
            .iter()
            .zip(row_pos.iter().zip(&col_pos))
            .map(|(t, (&r, &c))| (r, c, t.2))
            .collect();
        Self {
            rows,
            cols,
            entries,
        }
    }

    /// Adjacency share for PageRank: edge `(s, d)` contributes entry
    /// `(row=d, col=s, 1.0)` — the matrix that sums `rank/deg` over
    /// in-edges once values are divided by degree.
    pub fn pagerank_share(edges: &[(u32, u32)]) -> Self {
        Self::from_triplets(edges.iter().map(|&(s, d)| (d as u64, s as u64, 1.0)))
    }

    /// Number of local entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Distinct local row ids, sorted by hash (the allreduce `out` set).
    pub fn row_indices(&self) -> Vec<u64> {
        self.rows.indices().collect()
    }

    /// Distinct local column ids (the allreduce `in` set).
    pub fn col_indices(&self) -> Vec<u64> {
        self.cols.indices().collect()
    }

    /// The compacted row set.
    pub fn rows(&self) -> &IndexSet {
        &self.rows
    }

    /// The compacted column set.
    pub fn cols(&self) -> &IndexSet {
        &self.cols
    }

    /// Local product `y = A·x`: `x` aligned with [`Self::col_indices`],
    /// result aligned with [`Self::row_indices`].
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols.len(), "x misaligned with columns");
        let mut y = vec![0.0; self.rows.len()];
        for &(r, c, v) in &self.entries {
            y[r as usize] += v * x[c as usize];
        }
        y
    }

    /// Per-column entry counts (local out-degree contributions when the
    /// matrix is a PageRank share).
    pub fn col_counts(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.cols.len()];
        for &(_, c, _) in &self.entries {
            counts[c as usize] += 1.0;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compaction_round_trips() {
        let m = DistMatrix::from_triplets([(3u64, 7u64, 2.0), (3, 2, 1.0), (9, 7, 4.0)]);
        assert_eq!(m.nnz(), 3);
        let mut rows = m.row_indices();
        rows.sort_unstable();
        assert_eq!(rows, vec![3, 9]);
        let mut cols = m.col_indices();
        cols.sort_unstable();
        assert_eq!(cols, vec![2, 7]);
    }

    #[test]
    fn multiply_matches_dense() {
        // A = [[1, 2], [0, 3]] over rows {0,1}, cols {0,1}.
        let m = DistMatrix::from_triplets([(0u64, 0u64, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        // x aligned with col set (hash order!) — map explicitly.
        let cols = m.col_indices();
        let x: Vec<f64> = cols
            .iter()
            .map(|&c| if c == 0 { 5.0 } else { 7.0 })
            .collect();
        let y = m.multiply(&x);
        let rows = m.row_indices();
        for (i, &r) in rows.iter().enumerate() {
            let want = if r == 0 { 5.0 + 14.0 } else { 21.0 };
            assert_eq!(y[i], want);
        }
    }

    #[test]
    fn pagerank_share_orients_edges() {
        // Edge (s=1, d=2): row 2, col 1.
        let m = DistMatrix::pagerank_share(&[(1, 2)]);
        assert_eq!(m.row_indices(), vec![2]);
        assert_eq!(m.col_indices(), vec![1]);
    }

    #[test]
    fn col_counts_count_entries() {
        let m = DistMatrix::pagerank_share(&[(1, 2), (1, 3), (4, 2)]);
        let cols = m.col_indices();
        let counts = m.col_counts();
        for (i, &c) in cols.iter().enumerate() {
            let want = if c == 1 { 2.0 } else { 1.0 };
            assert_eq!(counts[i], want, "col {c}");
        }
    }
}
