//! Blocked CSR storage: the bandwidth-lean layout for the stored inverses.
//!
//! Once `U⁻¹` outgrows cache, the k=50 hot path is DRAM-bound: every
//! gather streams the row's column indices (4 bytes/nnz in flat CSR) plus
//! stamps and values from memory, and waits on bandwidth, not arithmetic.
//! The exactness argument (Lemmas 1/2 operate on the *values* of sparse
//! `L⁻¹`/`U⁻¹` rows) does not care how the indices are encoded — so
//! [`BlockedCsr`] shrinks them. It is the only in-memory encoding of the
//! stored `U⁻¹`.
//!
//! Column indices are split into **runs**: all consecutive nonzeros of a
//! row whose columns share the same 2¹⁶-wide aligned block are stored as
//! one run header (`u32` block anchor + `u32` end offset) plus one `u16`
//! **local delta** per nonzero (`column = anchor + delta`). Index traffic
//! per nonzero drops from 4 bytes to 2 bytes + 8·runs/nnz amortised —
//! for the fill-dominated inverse rows this is a ≥ 25 % cut in index
//! bytes (~50 % when rows span few blocks, which the reordering makes the
//! common case; a graph under 65 536 nodes needs exactly one run per
//! row). Values are the *same* `f64` array in the *same* order as flat
//! CSR, so every kernel that walks a row in position order produces
//! bit-identical sums.
//!
//! The decoding contract: iterating a row's runs in order and, within a
//! run, its deltas in order yields exactly the flat CSR column sequence
//! (strictly ascending). The scalar gather
//! ([`row_dot_scattered_counting`](BlockedCsr::row_dot_scattered_counting))
//! and the merge join below walk the runs directly, so both are
//! bit-identical to their [`CsrMatrix`] reference kernels.

use crate::{CsrMatrix, Index, Result, ScatteredColumn, SparseError};

/// Width of one column block: deltas are `u16`, so a run covers columns
/// `[anchor, anchor + 2^16)` with `anchor` a multiple of `2^16`.
pub const BLOCK_COLS: u32 = 1 << 16;

/// Sparse rows with block-compressed column indices (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedCsr {
    nrows: usize,
    ncols: usize,
    /// Per-row nonzero span: `row_ptr[r]..row_ptr[r + 1]` into
    /// `deltas`/`values`.
    row_ptr: Vec<usize>,
    /// Per-row run span: `run_ptr[r]..run_ptr[r + 1]` into
    /// `run_base`/`run_end`.
    run_ptr: Vec<usize>,
    /// Aligned block anchor of each run (multiple of [`BLOCK_COLS`]).
    run_base: Vec<u32>,
    /// Exclusive end of each run as a *global* nonzero offset. The run's
    /// start is the previous run's end (or the row's `row_ptr` entry).
    run_end: Vec<u32>,
    /// Column offsets within the run's block: `col = base + delta`.
    deltas: Vec<u16>,
    /// Values, identical order to flat CSR.
    values: Vec<f64>,
}

impl BlockedCsr {
    /// Re-encodes a flat CSR matrix. Values move over untouched (same
    /// array order), only the index encoding changes. Fails when the
    /// matrix is too large for the run offsets (`nnz ≥ 2^32`, far beyond
    /// anything this system builds).
    pub fn from_csr(csr: CsrMatrix) -> Result<BlockedCsr> {
        if csr.nnz() > u32::MAX as usize {
            return Err(SparseError::Malformed(format!(
                "blocked layout limited to < 2^32 stored entries, got {}",
                csr.nnz()
            )));
        }
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        let (row_ptr, col_idx, values) = csr.into_raw_parts();
        let mut run_ptr = Vec::with_capacity(nrows + 1);
        let mut run_base = Vec::new();
        let mut run_end = Vec::new();
        let mut deltas = Vec::with_capacity(col_idx.len());
        run_ptr.push(0);
        for r in 0..nrows {
            let span = row_ptr[r]..row_ptr[r + 1];
            encode_row(&col_idx[span.clone()], span.start, &mut run_base, &mut run_end, &mut deltas);
            run_ptr.push(run_base.len());
        }
        Ok(BlockedCsr { nrows, ncols, row_ptr, run_ptr, run_base, run_end, deltas, values })
    }

    /// Replaces whole rows, returning a new matrix: rows named by a
    /// [`crate::csr::RowUpdate`] are **re-encoded** (the same per-row run
    /// encoder [`from_csr`](Self::from_csr) runs), every other row's
    /// deltas, values and run headers are copied over verbatim with only
    /// the global run offsets shifted — so the result is array-for-array
    /// identical to re-encoding the fully spliced flat matrix, at the
    /// cost of encoding work proportional to the dirty rows only.
    /// `updates` must be sorted by strictly increasing row.
    pub fn splice_rows(&self, updates: &[crate::csr::RowUpdate]) -> Result<BlockedCsr> {
        crate::csr::validate_row_updates(self.nrows, self.ncols, updates)?;
        let delta: isize = updates
            .iter()
            .map(|u| u.cols.len() as isize - self.row_nnz(u.row) as isize)
            .sum();
        let new_nnz = (self.nnz() as isize + delta) as usize;
        if new_nnz > u32::MAX as usize {
            return Err(SparseError::Malformed(format!(
                "blocked layout limited to < 2^32 stored entries, got {new_nnz}"
            )));
        }
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut run_ptr = Vec::with_capacity(self.nrows + 1);
        run_ptr.push(0usize);
        let mut run_base: Vec<u32> = Vec::new();
        let mut run_end: Vec<u32> = Vec::new();
        let mut deltas: Vec<u16> = Vec::with_capacity(new_nnz);
        let mut values: Vec<f64> = Vec::with_capacity(new_nnz);
        let mut up = updates.iter().peekable();
        for r in 0..self.nrows {
            match up.peek() {
                Some(u) if u.row as usize == r => {
                    let u = up.next().expect("peeked");
                    encode_row(&u.cols, deltas.len(), &mut run_base, &mut run_end, &mut deltas);
                    values.extend_from_slice(&u.vals);
                }
                _ => {
                    let span = self.row_ptr[r]..self.row_ptr[r + 1];
                    let shift = deltas.len() as isize - span.start as isize;
                    deltas.extend_from_slice(&self.deltas[span.clone()]);
                    values.extend_from_slice(&self.values[span]);
                    for k in self.run_ptr[r]..self.run_ptr[r + 1] {
                        run_base.push(self.run_base[k]);
                        run_end.push((self.run_end[k] as isize + shift) as u32);
                    }
                }
            }
            row_ptr.push(deltas.len());
            run_ptr.push(run_base.len());
        }
        Ok(BlockedCsr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            run_ptr,
            run_base,
            run_end,
            deltas,
            values,
        })
    }

    /// Rebuilds the flat CSR matrix (exact inverse of
    /// [`from_csr`](Self::from_csr), values bit-identical).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut col_idx = Vec::with_capacity(self.deltas.len());
        for r in 0..self.nrows as Index {
            self.for_each_col(r, |c| col_idx.push(c));
        }
        CsrMatrix::from_raw_parts(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            col_idx,
            self.values.clone(),
        )
        .expect("a valid blocked matrix decodes to a valid CSR matrix")
    }

    /// Builds from raw arrays, re-validating every structural invariant
    /// (the persistence load path). Rejects anything that would make a
    /// decode read out of bounds or produce non-ascending columns.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        run_ptr: Vec<usize>,
        run_base: Vec<u32>,
        run_end: Vec<u32>,
        deltas: Vec<u16>,
        values: Vec<f64>,
    ) -> Result<BlockedCsr> {
        let malformed = |msg: String| Err(SparseError::Malformed(msg));
        if row_ptr.len() != nrows + 1 || run_ptr.len() != nrows + 1 {
            return malformed("pointer array length mismatch".into());
        }
        if deltas.len() != values.len() {
            return malformed("delta/value length mismatch".into());
        }
        if row_ptr[0] != 0
            || run_ptr[0] != 0
            || *row_ptr.last().unwrap() != deltas.len()
            || *run_ptr.last().unwrap() != run_base.len()
            || run_base.len() != run_end.len()
        {
            return malformed("pointer arrays do not cover the payload".into());
        }
        if deltas.len() > u32::MAX as usize {
            return malformed("too many entries for u32 run offsets".into());
        }
        for r in 0..nrows {
            if row_ptr[r] > row_ptr[r + 1] || run_ptr[r] > run_ptr[r + 1] {
                return malformed(format!("row {r}: decreasing pointer"));
            }
            let (has_nnz, has_runs) =
                (row_ptr[r] < row_ptr[r + 1], run_ptr[r] < run_ptr[r + 1]);
            if has_nnz != has_runs {
                return malformed(format!("row {r}: runs and nonzeros disagree"));
            }
            let mut start = row_ptr[r];
            let mut prev_col: Option<u32> = None;
            for k in run_ptr[r]..run_ptr[r + 1] {
                let base = run_base[k];
                let end = run_end[k] as usize;
                if base % BLOCK_COLS != 0 {
                    return malformed(format!("row {r}: unaligned run anchor {base}"));
                }
                if end <= start || end > row_ptr[r + 1] {
                    return malformed(format!("row {r}: run end {end} outside row"));
                }
                for i in start..end {
                    let c = base + deltas[i] as u32;
                    if c as usize >= ncols {
                        return malformed(format!("row {r}: column {c} out of bounds"));
                    }
                    if prev_col.is_some_and(|p| p >= c) {
                        return malformed(format!("row {r}: columns not ascending at {c}"));
                    }
                    prev_col = Some(c);
                }
                start = end;
            }
            if start != row_ptr[r + 1] {
                return malformed(format!("row {r}: runs do not cover the row"));
            }
        }
        for v in &values {
            if !v.is_finite() {
                return malformed("non-finite value".into());
            }
        }
        Ok(BlockedCsr { nrows, ncols, row_ptr, run_ptr, run_base, run_end, deltas, values })
    }

    /// Raw arrays, for persistence.
    #[allow(clippy::type_complexity)]
    pub fn raw(&self) -> (&[usize], &[usize], &[u32], &[u32], &[u16], &[f64]) {
        (&self.row_ptr, &self.run_ptr, &self.run_base, &self.run_end, &self.deltas, &self.values)
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
        self.deltas.len()
    }

    /// Total number of runs across all rows.
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.run_base.len()
    }

    /// Stored entries of row `r`.
    #[inline]
    pub fn row_nnz(&self, r: Index) -> usize {
        let r = r as usize;
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Runs of row `r`.
    #[inline]
    pub fn row_runs(&self, r: Index) -> usize {
        let r = r as usize;
        self.run_ptr[r + 1] - self.run_ptr[r]
    }

    /// Values of row `r` (flat CSR order).
    #[inline]
    pub fn row_values(&self, r: Index) -> &[f64] {
        let r = r as usize;
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// First (smallest) column of row `r`, if any.
    #[inline]
    pub fn row_first_col(&self, r: Index) -> Option<u32> {
        let r = r as usize;
        (self.row_ptr[r] < self.row_ptr[r + 1]).then(|| {
            self.run_base[self.run_ptr[r]] + self.deltas[self.row_ptr[r]] as u32
        })
    }

    /// Last (largest) column of row `r`, if any.
    #[inline]
    pub fn row_last_col(&self, r: Index) -> Option<u32> {
        let r = r as usize;
        (self.row_ptr[r] < self.row_ptr[r + 1]).then(|| {
            self.run_base[self.run_ptr[r + 1] - 1] + self.deltas[self.row_ptr[r + 1] - 1] as u32
        })
    }

    /// Index bytes a gather streams for row `r`: 2 per delta + 8 per run
    /// header. (Flat CSR pays 4 per nonzero.)
    #[inline]
    pub fn row_index_bytes(&self, r: Index) -> usize {
        2 * self.row_nnz(r) + 8 * self.row_runs(r)
    }

    /// Index bytes of the whole matrix (delta + run-header arrays).
    pub fn index_bytes(&self) -> usize {
        2 * self.deltas.len() + 8 * self.run_base.len()
    }

    /// Heap footprint of all arrays in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.run_ptr.len() * std::mem::size_of::<usize>()
            + self.run_base.len() * 4
            + self.run_end.len() * 4
            + self.deltas.len() * 2
            + self.values.len() * 8
    }

    /// Decodes row `r`'s columns in ascending order into `f`.
    #[inline]
    fn for_each_col(&self, r: Index, mut f: impl FnMut(u32)) {
        let r = r as usize;
        let mut start = self.row_ptr[r];
        for k in self.run_ptr[r]..self.run_ptr[r + 1] {
            let base = self.run_base[k];
            let end = self.run_end[k] as usize;
            for &d in &self.deltas[start..end] {
                f(base + d as u32);
            }
            start = end;
        }
    }

    /// Decodes row `r`'s column indices into `out` (cleared first). With
    /// `out` at capacity ≥ the largest row, this allocates nothing.
    #[inline]
    pub fn decode_row_into(&self, r: Index, out: &mut Vec<u32>) {
        out.clear();
        let r = r as usize;
        let mut start = self.row_ptr[r];
        for k in self.run_ptr[r]..self.run_ptr[r + 1] {
            let base = self.run_base[k];
            let end = self.run_end[k] as usize;
            out.extend(self.deltas[start..end].iter().map(|&d| base + d as u32));
            start = end;
        }
    }

    /// **The** proximity gather: the one-accumulator scalar gather over
    /// the blocked row — identical pairs in identical order to
    /// [`CsrMatrix::row_dot_scattered`], hence bit-identical. Also counts
    /// the stamp hits (value loads actually executed), which the
    /// byte-traffic accounting needs.
    #[inline]
    pub fn row_dot_scattered_counting(&self, r: Index, buf: &ScatteredColumn) -> (f64, usize) {
        debug_assert_eq!(buf.dim(), self.ncols);
        let (stamps, generation, colvals) = buf.raw_parts();
        let r = r as usize;
        let mut acc = 0.0;
        let mut hits = 0usize;
        let mut start = self.row_ptr[r];
        for k in self.run_ptr[r]..self.run_ptr[r + 1] {
            let base = self.run_base[k];
            let end = self.run_end[k] as usize;
            // Per-run slices + zip: one bounds check per run, none per
            // element — the decode adds a single u16→u32 widen and add to
            // the flat kernel's loop body.
            for (&d, &v) in self.deltas[start..end].iter().zip(&self.values[start..end]) {
                let c = (base + d as u32) as usize;
                if stamps[c] == generation {
                    acc += v * colvals[c];
                    hits += 1;
                }
            }
            start = end;
        }
        (acc, hits)
    }

    /// Two-pointer merge join against a sorted sparse vector, decoding
    /// columns on the fly — same matching pairs in the same order as
    /// [`CsrMatrix::row_dot_sparse`], hence bit-identical.
    pub fn row_dot_sparse(&self, r: Index, idx: &[Index], val: &[f64]) -> f64 {
        debug_assert_eq!(idx.len(), val.len());
        let r = r as usize;
        let mut acc = 0.0;
        let mut b = 0usize;
        let mut start = self.row_ptr[r];
        'outer: for k in self.run_ptr[r]..self.run_ptr[r + 1] {
            let base = self.run_base[k];
            let end = self.run_end[k] as usize;
            for (&d, &v) in self.deltas[start..end].iter().zip(&self.values[start..end]) {
                let c = base + d as u32;
                while b < idx.len() && idx[b] < c {
                    b += 1;
                }
                if b >= idx.len() {
                    break 'outer;
                }
                if idx[b] == c {
                    acc += v * val[b];
                    b += 1;
                }
            }
            start = end;
        }
        acc
    }

    /// Dot product of row `r` with a dense vector (bit-identical to the
    /// flat [`CsrMatrix::row_dot_dense`]).
    #[inline]
    pub fn row_dot_dense(&self, r: Index, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.ncols);
        let r_us = r as usize;
        let mut acc = 0.0;
        let mut start = self.row_ptr[r_us];
        for k in self.run_ptr[r_us]..self.run_ptr[r_us + 1] {
            let base = self.run_base[k];
            let end = self.run_end[k] as usize;
            for (&d, &v) in self.deltas[start..end].iter().zip(&self.values[start..end]) {
                acc += v * x[(base + d as u32) as usize];
            }
            start = end;
        }
        acc
    }

    /// Dense `y = A · x` (row-major traversal).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        (0..self.nrows as Index).map(|r| self.row_dot_dense(r, x)).collect()
    }

    /// Issues software prefetches for the front of row `r`'s delta and
    /// value spans (a few cache lines each — enough to hide the initial
    /// DRAM latency; the hardware prefetcher streams the rest). A no-op on
    /// architectures without a prefetch hint.
    #[inline]
    pub fn prefetch_row(&self, r: Index) {
        let r = r as usize;
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        if start >= end {
            return;
        }
        prefetch_span(&self.deltas[start..end], 2);
        prefetch_span(&self.values[start..end], 2);
        prefetch_span(&self.run_base[self.run_ptr[r]..self.run_ptr[r + 1]], 1);
    }
}

/// Encodes one row's sorted columns into run headers + deltas, with the
/// row's payload starting at global offset `start`. This is **the** row
/// encoder: `from_csr` runs it for every row and `splice_rows` for the
/// dirty rows only, which is why a spliced matrix is array-for-array
/// identical to a from-scratch re-encode.
#[inline]
fn encode_row(
    cols: &[Index],
    start: usize,
    run_base: &mut Vec<u32>,
    run_end: &mut Vec<u32>,
    deltas: &mut Vec<u16>,
) {
    let mut current_base = u32::MAX; // sentinel: no open run
    for (off, &c) in cols.iter().enumerate() {
        let base = c & !(BLOCK_COLS - 1);
        if base != current_base {
            run_base.push(base);
            run_end.push((start + off) as u32); // provisional; fixed below
            current_base = base;
        }
        *run_end.last_mut().expect("run open") = (start + off + 1) as u32;
        deltas.push((c - base) as u16);
    }
}

/// Prefetches up to `lines` 64-byte cache lines from the start of `span`.
#[inline]
fn prefetch_span<T>(span: &[T], lines: usize) {
    let bytes = std::mem::size_of_val(span);
    let base = span.as_ptr() as *const u8;
    let mut offset = 0usize;
    for _ in 0..lines {
        if offset >= bytes {
            break;
        }
        prefetch_read(base.wrapping_add(offset));
        offset += 64;
    }
}

/// One read-prefetch hint. Safe to call with any address on x86-64
/// (prefetch never faults); a no-op elsewhere.
#[inline]
fn prefetch_read(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch is a hint, does not fault, and SSE is baseline
    // on x86-64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
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
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for i in 0..n as Index {
            if rng.gen_bool(density) {
                idx.push(i);
                val.push(rng.gen_range(-1.0..1.0));
            }
        }
        (idx, val)
    }

    #[test]
    fn roundtrip_is_lossless() {
        for seed in 0..8u64 {
            let csr = random_csr(20, 35, 0.3, seed);
            let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
            assert_eq!(blocked.nnz(), csr.nnz());
            let back = blocked.to_csr();
            assert_eq!(back, csr, "seed {seed}");
        }
    }

    #[test]
    fn runs_split_on_block_boundaries() {
        // Columns straddling the 65536 boundary must land in two runs.
        let trips = vec![
            (0, 10, 1.0),
            (0, 65535, 2.0),
            (0, 65536, 3.0),
            (0, 200_000, 4.0),
        ];
        let csr =
            CsrMatrix::from_csc(&CscMatrix::from_triplets(1, 300_000, &trips).unwrap());
        let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
        assert_eq!(blocked.row_runs(0), 3, "blocks 0, 1 and 3");
        assert_eq!(blocked.row_first_col(0), Some(10));
        assert_eq!(blocked.row_last_col(0), Some(200_000));
        assert_eq!(blocked.to_csr(), csr);
    }

    #[test]
    fn scalar_gather_bit_identical_to_flat() {
        for seed in 0..10u64 {
            let csr = random_csr(25, 40, 0.25, seed);
            let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
            let (idx, val) = random_sparse_vec(40, 0.4, seed + 50);
            let mut buf = ScatteredColumn::new(40);
            buf.load(&idx, &val);
            for r in 0..25 as Index {
                let flat = csr.row_dot_scattered(r, &buf);
                let (got, hits) = blocked.row_dot_scattered_counting(r, &buf);
                assert_eq!(flat.to_bits(), got.to_bits(), "seed {seed} row {r}");
                let (cols, _) = csr.row(r);
                let expect_hits =
                    cols.iter().filter(|&&c| buf.get(c).is_some()).count();
                assert_eq!(hits, expect_hits, "seed {seed} row {r}");
            }
        }
    }

    #[test]
    fn merge_join_and_dense_bit_identical_to_flat() {
        for seed in 0..6u64 {
            let csr = random_csr(18, 30, 0.3, seed);
            let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
            let (idx, val) = random_sparse_vec(30, 0.35, seed + 7);
            let dense: Vec<f64> = (0..30).map(|i| (i as f64) * 0.5 - 7.0).collect();
            for r in 0..18 as Index {
                assert_eq!(
                    csr.row_dot_sparse(r, &idx, &val).to_bits(),
                    blocked.row_dot_sparse(r, &idx, &val).to_bits()
                );
                assert_eq!(
                    csr.row_dot_dense(r, &dense).to_bits(),
                    blocked.row_dot_dense(r, &dense).to_bits()
                );
            }
            assert_eq!(csr.matvec(&dense), blocked.matvec(&dense));
        }
    }

    #[test]
    fn decode_row_matches_flat_columns() {
        let csr = random_csr(12, 50, 0.4, 3);
        let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
        let mut scratch = Vec::new();
        for r in 0..12 as Index {
            blocked.decode_row_into(r, &mut scratch);
            let (cols, _) = csr.row(r);
            assert_eq!(scratch.as_slice(), cols, "row {r}");
            assert_eq!(blocked.row_values(r), csr.row(r).1);
        }
    }

    #[test]
    fn index_bytes_shrink_for_single_block_matrices() {
        // Any matrix under 65 536 columns has one run per non-empty row:
        // 2·nnz + 8·rows vs the flat 4·nnz.
        let csr = random_csr(30, 60, 0.5, 9);
        let nnz = csr.nnz();
        let blocked = BlockedCsr::from_csr(csr).unwrap();
        assert!(blocked.num_runs() <= 30);
        assert_eq!(blocked.index_bytes(), 2 * nnz + 8 * blocked.num_runs());
        assert!(blocked.index_bytes() < 4 * nnz, "blocked must beat flat here");
    }

    #[test]
    fn from_raw_parts_validates() {
        let csr = random_csr(6, 12, 0.5, 4);
        let blocked = BlockedCsr::from_csr(csr).unwrap();
        let (row_ptr, run_ptr, run_base, run_end, deltas, values) = {
            let (a, b, c, d, e, f) = blocked.raw();
            (a.to_vec(), b.to_vec(), c.to_vec(), d.to_vec(), e.to_vec(), f.to_vec())
        };
        // The pristine arrays reconstruct.
        assert!(BlockedCsr::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            run_base.clone(),
            run_end.clone(),
            deltas.clone(),
            values.clone()
        )
        .is_ok());
        // An unaligned anchor is rejected.
        let mut bad_base = run_base.clone();
        bad_base[0] = 3;
        assert!(BlockedCsr::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            bad_base,
            run_end.clone(),
            deltas.clone(),
            values.clone()
        )
        .is_err());
        // A delta pushing a column out of bounds is rejected.
        let mut bad_delta = deltas.clone();
        *bad_delta.last_mut().unwrap() = 50; // ncols is 12
        assert!(BlockedCsr::from_raw_parts(
            6,
            12,
            row_ptr.clone(),
            run_ptr.clone(),
            run_base.clone(),
            run_end.clone(),
            bad_delta,
            values.clone()
        )
        .is_err());
        // Non-ascending columns are rejected.
        if deltas.len() >= 2 {
            let mut swapped = deltas.clone();
            swapped.swap(0, 1);
            assert!(BlockedCsr::from_raw_parts(
                6, 12, row_ptr, run_ptr, run_base, run_end, swapped, values
            )
            .is_err());
        }
    }

    /// The splice contract: re-encoding only the dirty rows produces a
    /// matrix array-for-array equal to re-encoding the fully spliced flat
    /// matrix — run headers, global offsets, deltas and values.
    #[test]
    fn splice_rows_is_identical_to_full_reencode() {
        use crate::csr::RowUpdate;
        for seed in 0..8u64 {
            let csr = random_csr(20, 200_000, 0.0008, seed);
            let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
            // Replace a third of the rows with fresh content spanning
            // several 2^16 blocks (forces multi-run re-encoding).
            let mut rng = StdRng::seed_from_u64(seed + 999);
            let mut updates: Vec<RowUpdate> = Vec::new();
            for r in (0..20u32).step_by(3) {
                let mut cols: Vec<Index> = (0..rng.gen_range(0..40u32))
                    .map(|_| rng.gen_range(0..200_000u32))
                    .collect();
                cols.sort_unstable();
                cols.dedup();
                let vals: Vec<f64> = cols.iter().map(|&c| c as f64 * 0.5 + 1.0).collect();
                updates.push(RowUpdate { row: r, cols, vals });
            }
            let spliced = blocked.splice_rows(&updates).unwrap();
            let reencoded = BlockedCsr::from_csr(csr.splice_rows(&updates).unwrap()).unwrap();
            assert_eq!(spliced, reencoded, "seed {seed}");
            assert_eq!(blocked.splice_rows(&[]).unwrap(), blocked, "seed {seed}: identity");
        }
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        let csr = CsrMatrix::from_raw_parts(3, 5, vec![0, 0, 2, 2], vec![1, 4], vec![1.0, 2.0])
            .unwrap();
        let blocked = BlockedCsr::from_csr(csr.clone()).unwrap();
        assert_eq!(blocked.row_nnz(0), 0);
        assert_eq!(blocked.row_first_col(0), None);
        assert_eq!(blocked.row_last_col(2), None);
        assert_eq!(blocked.row_nnz(1), 2);
        assert_eq!(blocked.to_csr(), csr);
        blocked.prefetch_row(0); // must not fault on empty rows
        blocked.prefetch_row(1);
    }
}
