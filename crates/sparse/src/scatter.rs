//! The scatter/gather proximity kernel.
//!
//! K-dash's query hot loop evaluates `p_u = c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)` for
//! every candidate `u`. The right-hand vector `L⁻¹ e_q` is *fixed for the
//! whole query*, so paying a two-pointer merge join
//! (`O(nnz(row) + nnz(col))`, [`CsrMatrix::row_dot_sparse`]) per candidate
//! wastes a full scan of the query column every time. Instead:
//!
//! 1. **scatter** the query column once into a dense, epoch-stamped
//!    accumulator ([`ScatteredColumn::load`], `O(nnz(col))`),
//! 2. **gather** each candidate's proximity over only the candidate row's
//!    nonzeros ([`CsrMatrix::row_dot_scattered`], `O(nnz(row))`).
//!
//! Epoch stamps ([`kdash_graph::EpochStamps`]) make `load` `O(nnz)`
//! instead of `O(n)`: positions written by an earlier query are
//! invalidated wholesale by bumping the generation, the same idiom
//! [`crate::SolveWorkspace`] uses for its visit marks.
//!
//! The gather visits exactly the merge join's matching pairs in exactly the
//! same (ascending-column) order, so the floating-point sum — and therefore
//! every proximity the query engine reports — is **bit-identical** to the
//! merge-join kernel. `row_dot_sparse` stays around as the independent
//! reference implementation; the equivalence suite cross-checks the two.
//!
//! [`row_dot_scattered`](CsrMatrix::row_dot_scattered) below is the
//! one-accumulator reference gather over flat CSR. The production hot
//! path runs the same loop over the blocked encoding of `U⁻¹`
//! ([`crate::BlockedCsr::row_dot_scattered_counting`]), which is
//! bit-identical to it.

use crate::{CsrMatrix, Index};
use kdash_graph::EpochStamps;

/// A sparse column scattered into dense, epoch-stamped storage.
///
/// Reusable across queries: allocate once per worker (it is the largest
/// piece of per-query state at `12 bytes × n`), then [`load`] a new column
/// per query without clearing.
///
/// The stamps and values are deliberately *split* into parallel arrays
/// rather than interleaved: most gather probes fail the stamp check, so
/// the hot data structure is the stamp array alone — 4 bytes per node, 16
/// stamps per cache line — and the value array is only touched on a match.
/// (An interleaved 16-byte slot layout measured ~40 % slower on the
/// `proximity_kernel` benchmark.)
///
/// [`load`]: ScatteredColumn::load
#[derive(Debug, Clone)]
pub struct ScatteredColumn {
    /// Position `i` holds a value of the current column iff marked.
    stamps: EpochStamps,
    /// Dense values, valid only where stamped.
    values: Vec<f64>,
}

impl ScatteredColumn {
    /// An empty buffer for vectors of dimension `n` (nothing loaded).
    pub fn new(n: usize) -> Self {
        ScatteredColumn { stamps: EpochStamps::new(n), values: vec![0.0; n] }
    }

    /// Dimension this buffer serves.
    #[inline]
    pub fn dim(&self) -> usize {
        self.stamps.dim()
    }

    /// Scatters the sparse vector `(idx, val)` as the new contents,
    /// dropping whatever was loaded before. `O(nnz)`. Allocation-free.
    pub fn load(&mut self, idx: &[Index], val: &[f64]) {
        debug_assert_eq!(idx.len(), val.len());
        self.stamps.advance();
        for (&i, &v) in idx.iter().zip(val) {
            self.stamps.mark(i as usize);
            self.values[i as usize] = v;
        }
    }

    /// The loaded value at position `i`, if `i` is part of the current
    /// column. `None` for every position before the first
    /// [`load`](ScatteredColumn::load).
    #[inline]
    pub fn get(&self, i: Index) -> Option<f64> {
        self.stamps.is_marked(i as usize).then(|| self.values[i as usize])
    }

    /// Test hook: forces the internal epoch counter, to exercise the
    /// rollover path without four billion loads.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.stamps.force_epoch(epoch);
    }

    /// Raw view for the blocked gather ([`crate::BlockedCsr`]): the stamp
    /// array, the current generation, and the dense values. Position `i`
    /// holds a current value iff `stamps[i] == generation` — the bulk form
    /// of [`get`](Self::get).
    #[inline]
    pub(crate) fn raw_parts(&self) -> (&[u32], u32, &[f64]) {
        let (stamps, generation) = self.stamps.raw();
        (stamps, generation, &self.values)
    }
}

impl CsrMatrix {
    /// Dot product of row `r` with the column held in `buf`: a gather over
    /// only this row's nonzeros, `O(nnz(row))`.
    ///
    /// Matching pairs are accumulated in ascending column order — the same
    /// pairs in the same order as [`row_dot_sparse`](Self::row_dot_sparse)
    /// against the loaded vector, so the result is bit-identical.
    #[inline]
    pub fn row_dot_scattered(&self, r: Index, buf: &ScatteredColumn) -> f64 {
        debug_assert_eq!(buf.dim(), self.ncols());
        let (cols, vals) = self.row(r);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if buf.stamps.is_marked(c as usize) {
                acc += v * buf.values[c as usize];
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CscMatrix;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_csr(nrows: usize, ncols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trips = Vec::new();
        for r in 0..nrows as Index {
            for c in 0..ncols as Index {
                if rng.gen_bool(density) {
                    trips.push((r, c, rng.gen_range(-2.0..2.0)));
                }
            }
        }
        CsrMatrix::from_csc(&CscMatrix::from_triplets(nrows, ncols, &trips).unwrap())
    }

    fn random_sparse_vec(n: usize, density: f64, seed: u64) -> (Vec<Index>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for i in 0..n as Index {
            if rng.gen_bool(density) {
                idx.push(i);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
        (idx, val)
    }

    #[test]
    fn gather_is_bit_identical_to_merge_join() {
        for seed in 0..20u64 {
            let m = random_csr(30, 40, 0.2, seed);
            let (idx, val) = random_sparse_vec(40, 0.3, seed + 100);
            let mut buf = ScatteredColumn::new(40);
            buf.load(&idx, &val);
            for r in 0..30 as Index {
                let a = m.row_dot_sparse(r, &idx, &val);
                let b = m.row_dot_scattered(r, &buf);
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn reload_drops_previous_column() {
        let m = random_csr(10, 10, 0.5, 3);
        let mut buf = ScatteredColumn::new(10);
        let (i1, v1) = random_sparse_vec(10, 0.8, 4);
        buf.load(&i1, &v1);
        let (i2, v2) = random_sparse_vec(10, 0.2, 5);
        buf.load(&i2, &v2);
        for r in 0..10 as Index {
            assert_eq!(
                m.row_dot_scattered(r, &buf).to_bits(),
                m.row_dot_sparse(r, &i2, &v2).to_bits(),
                "stale entries leaked into row {r}"
            );
        }
    }

    #[test]
    fn fresh_buffer_has_nothing_loaded() {
        let m = random_csr(5, 5, 0.6, 11);
        let buf = ScatteredColumn::new(5);
        for i in 0..5 as Index {
            assert_eq!(buf.get(i), None, "position {i} loaded before any load()");
        }
        for r in 0..5 as Index {
            assert_eq!(m.row_dot_scattered(r, &buf), 0.0, "never-loaded buffer must act empty");
        }
    }

    #[test]
    fn get_reports_only_current_entries() {
        let mut buf = ScatteredColumn::new(5);
        buf.load(&[1, 3], &[0.5, -0.25]);
        assert_eq!(buf.get(0), None);
        assert_eq!(buf.get(1), Some(0.5));
        assert_eq!(buf.get(3), Some(-0.25));
        buf.load(&[0], &[2.0]);
        assert_eq!(buf.get(1), None, "previous load must be invalidated");
        assert_eq!(buf.get(0), Some(2.0));
    }

    #[test]
    fn empty_column_gathers_zero() {
        let m = random_csr(6, 6, 0.5, 7);
        let mut buf = ScatteredColumn::new(6);
        buf.load(&[], &[]);
        for r in 0..6 as Index {
            assert_eq!(m.row_dot_scattered(r, &buf), 0.0);
        }
    }

    #[test]
    fn epoch_rollover_keeps_correctness() {
        let m = random_csr(12, 12, 0.4, 9);
        let mut buf = ScatteredColumn::new(12);
        // A stale full column right before the wrap: after rollover its
        // stamps (== u32::MAX) must not read as current.
        let all: Vec<Index> = (0..12).collect();
        let ones = vec![1.0; 12];
        buf.force_epoch(u32::MAX - 1);
        buf.load(&all, &ones); // epoch becomes u32::MAX
        let (idx, val) = random_sparse_vec(12, 0.3, 10);
        buf.load(&idx, &val); // wraps: stamps cleared, epoch restarts at 1
        for r in 0..12 as Index {
            assert_eq!(
                m.row_dot_scattered(r, &buf).to_bits(),
                m.row_dot_sparse(r, &idx, &val).to_bits(),
                "rollover leaked stale entries into row {r}"
            );
        }
    }
}
