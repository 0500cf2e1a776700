//! Compressed sparse row matrices.
//!
//! K-dash stores `U⁻¹` row-major: computing one node's proximity
//! `p_u = c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)` is then a single sparse-row ·
//! sparse-column dot product (§4.2.1 of the paper).

use crate::{CscMatrix, Index, Result};

/// A sparse matrix in compressed-sparse-row form. Column indices within a
/// row are strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Converts a CSC matrix into CSR form (`O(nnz)`).
    pub fn from_csc(csc: &CscMatrix) -> CsrMatrix {
        // CSR of M has the same arrays as CSC of Mᵀ.
        let t = csc.transpose();
        let (col_ptr, row_idx, values) = t.raw();
        CsrMatrix {
            nrows: csc.nrows(),
            ncols: csc.ncols(),
            row_ptr: col_ptr.to_vec(),
            col_idx: row_idx.to_vec(),
            values: values.to_vec(),
        }
    }

    /// Builds directly from CSR arrays with validation.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<f64>,
    ) -> Result<Self> {
        // Reuse the CSC validator on the transposed interpretation.
        let as_csc = CscMatrix::from_raw_parts(ncols, nrows, row_ptr, col_idx, values)?;
        let (p, i, v) = as_csc.raw();
        Ok(CsrMatrix { nrows, ncols, row_ptr: p.to_vec(), col_idx: i.to_vec(), values: v.to_vec() })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: Index) -> (&[Index], &[f64]) {
        let r = r as usize;
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Entry `(r, c)` if stored.
    pub fn get(&self, r: Index, c: Index) -> Option<f64> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Dot product of row `r` with a dense vector.
    #[inline]
    pub fn row_dot_dense(&self, r: Index, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.ncols);
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        acc
    }

    /// Dot product of row `r` with a sparse vector given as parallel sorted
    /// `(indices, values)` slices. Two-pointer merge: `O(nnz_row + nnz_vec)`.
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        debug_assert_eq!(idx.len(), val.len());
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        let (mut a, mut b) = (0usize, 0usize);
        while a < cols.len() && b < idx.len() {
            match cols[a].cmp(&idx[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += vals[a] * val[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Dense `y = A · x` (row-major traversal).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        (0..self.nrows as Index).map(|r| self.row_dot_dense(r, x)).collect()
    }

    /// Converts back to CSC form.
    pub fn to_csc(&self) -> CscMatrix {
        CscMatrix::from_raw_parts(
            self.ncols,
            self.nrows,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            self.values.clone(),
        )
        .expect("valid CSR arrays are a valid CSC transpose")
        .transpose()
    }

    /// Iterator over `(row, col, value)` entries.
    pub fn triplets(&self) -> impl Iterator<Item = (Index, Index, f64)> + '_ {
        (0..self.nrows as Index).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Consumes the matrix into its raw arrays `(row_ptr, col_idx,
    /// values)` — the zero-copy handoff the blocked re-encoder uses (the
    /// value array moves over untouched).
    pub fn into_raw_parts(self) -> (Vec<usize>, Vec<Index>, Vec<f64>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Heap footprint of the arrays in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<Index>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Replaces whole rows, returning a new matrix: rows named by an
    /// update take the update's content, every other row is copied over
    /// verbatim — the row-major twin of
    /// [`crate::CscMatrix::splice_columns`], and the flat reference
    /// [`crate::BlockedCsr::splice_rows`] is checked against. `updates`
    /// must be sorted by strictly increasing row.
    pub fn splice_rows(&self, updates: &[RowUpdate]) -> Result<CsrMatrix> {
        validate_row_updates(self.nrows, self.ncols, updates)?;
        let delta: isize = updates
            .iter()
            .map(|u| u.cols.len() as isize - self.row(u.row).0.len() as isize)
            .sum();
        let new_nnz = (self.nnz() as isize + delta) as usize;
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<Index> = Vec::with_capacity(new_nnz);
        let mut values: Vec<f64> = Vec::with_capacity(new_nnz);
        let mut clean_from = 0usize;
        let flush_clean = |upto: usize,
                               row_ptr: &mut Vec<usize>,
                               col_idx: &mut Vec<Index>,
                               values: &mut Vec<f64>,
                               clean_from: &mut usize| {
            if *clean_from < upto {
                let span = self.row_ptr[*clean_from]..self.row_ptr[upto];
                let base = col_idx.len() as isize - self.row_ptr[*clean_from] as isize;
                col_idx.extend_from_slice(&self.col_idx[span.clone()]);
                values.extend_from_slice(&self.values[span]);
                for r in *clean_from..upto {
                    row_ptr.push((self.row_ptr[r + 1] as isize + base) as usize);
                }
                *clean_from = upto;
            }
        };
        for u in updates {
            let r = u.row as usize;
            flush_clean(r, &mut row_ptr, &mut col_idx, &mut values, &mut clean_from);
            col_idx.extend_from_slice(&u.cols);
            values.extend_from_slice(&u.vals);
            row_ptr.push(col_idx.len());
            clean_from = r + 1;
        }
        flush_clean(self.nrows, &mut row_ptr, &mut col_idx, &mut values, &mut clean_from);
        Ok(CsrMatrix { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, values })
    }
}

/// A replacement for one row of a row-major matrix: the full new content
/// (possibly empty), sorted by column. Consumed by
/// [`CsrMatrix::splice_rows`] and [`crate::BlockedCsr::splice_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct RowUpdate {
    /// Which row the update replaces.
    pub row: Index,
    /// Sorted column indices of the new content.
    pub cols: Vec<Index>,
    /// Values parallel to `cols`.
    pub vals: Vec<f64>,
}

/// Shared validation for the row-splice entry points: updates sorted by
/// strictly increasing in-bounds row, each with sorted in-bounds columns,
/// matching lengths and finite values.
pub(crate) fn validate_row_updates(
    nrows: usize,
    ncols: usize,
    updates: &[RowUpdate],
) -> crate::Result<()> {
    use crate::SparseError;
    for (k, u) in updates.iter().enumerate() {
        if (u.row as usize) >= nrows {
            return Err(SparseError::Malformed(format!(
                "update row {} out of bounds for {} rows",
                u.row, nrows
            )));
        }
        if k > 0 && updates[k - 1].row >= u.row {
            return Err(SparseError::Malformed(
                "updates must be sorted by strictly increasing row".into(),
            ));
        }
        if u.cols.len() != u.vals.len() {
            return Err(SparseError::Malformed(format!(
                "update row {}: {} columns vs {} values",
                u.row,
                u.cols.len(),
                u.vals.len()
            )));
        }
        for (i, &c) in u.cols.iter().enumerate() {
            if (c as usize) >= ncols {
                return Err(SparseError::Malformed(format!(
                    "update row {}: column {c} out of bounds",
                    u.row
                )));
            }
            if i > 0 && u.cols[i - 1] >= c {
                return Err(SparseError::Malformed(format!(
                    "update row {}: columns not strictly increasing",
                    u.row
                )));
            }
        }
        if u.vals.iter().any(|v| !v.is_finite()) {
            return Err(SparseError::Malformed(format!(
                "update row {}: non-finite value",
                u.row
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csc() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        CscMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 0, 4.0), (1, 1, 3.0), (0, 2, 2.0), (2, 2, 5.0)])
            .unwrap()
    }

    #[test]
    fn csc_roundtrip() {
        let csc = sample_csc();
        let csr = CsrMatrix::from_csc(&csc);
        assert_eq!(csr.nnz(), csc.nnz());
        assert_eq!(csr.get(0, 2), Some(2.0));
        assert_eq!(csr.get(2, 0), Some(4.0));
        assert_eq!(csr.get(1, 0), None);
        assert_eq!(csr.to_csc(), csc);
    }

    #[test]
    fn row_access_sorted() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let (cols, vals) = csr.row(2);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[4.0, 5.0]);
    }

    #[test]
    fn matvec_matches_csc() {
        let csc = sample_csc();
        let csr = CsrMatrix::from_csc(&csc);
        let x = [1.0, -1.0, 0.5];
        assert_eq!(csr.matvec(&x), csc.matvec(&x));
    }

    #[test]
    fn row_dot_dense_and_sparse_agree() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let dense = [0.5, 0.0, 2.0];
        let idx = [0 as Index, 2];
        let val = [0.5, 2.0];
        for r in 0..3 {
            let d = csr.row_dot_dense(r, &dense);
            let s = csr.row_dot_sparse(r, &idx, &val);
            assert!((d - s).abs() < 1e-15, "row {r}: {d} vs {s}");
        }
    }

    #[test]
    fn row_dot_sparse_disjoint_is_zero() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        // row 1 has only column 1; sparse vector on {0, 2}
        assert_eq!(csr.row_dot_sparse(1, &[0, 2], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 3], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn splice_rows_matches_from_scratch() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let updates = vec![
            RowUpdate { row: 0, cols: vec![1], vals: vec![9.0] },
            RowUpdate { row: 2, cols: vec![], vals: vec![] },
        ];
        let spliced = csr.splice_rows(&updates).unwrap();
        let scratch = CsrMatrix::from_csc(
            &CscMatrix::from_triplets(3, 3, &[(0, 1, 9.0), (1, 1, 3.0)]).unwrap(),
        );
        assert_eq!(spliced, scratch);
        assert_eq!(csr.splice_rows(&[]).unwrap(), csr);
        // Untouched row survives verbatim.
        assert_eq!(spliced.row(1), csr.row(1));
    }

    #[test]
    fn splice_rows_validates() {
        let csr = CsrMatrix::from_csc(&sample_csc());
        let bad = [
            vec![RowUpdate { row: 9, cols: vec![], vals: vec![] }],
            vec![
                RowUpdate { row: 1, cols: vec![], vals: vec![] },
                RowUpdate { row: 0, cols: vec![], vals: vec![] },
            ],
            vec![RowUpdate { row: 0, cols: vec![5], vals: vec![1.0] }],
            vec![RowUpdate { row: 0, cols: vec![1, 0], vals: vec![1.0, 1.0] }],
            vec![RowUpdate { row: 0, cols: vec![0], vals: vec![f64::INFINITY] }],
            vec![RowUpdate { row: 0, cols: vec![0, 1], vals: vec![1.0] }],
        ];
        for (i, updates) in bad.iter().enumerate() {
            assert!(csr.splice_rows(updates).is_err(), "case {i} must be rejected");
        }
    }
}
