//! # kdash-sparse
//!
//! Sparse matrix kernels for the K-dash reproduction (*Fujiwara et al.,
//! PVLDB 2012*). Everything §4.2 of the paper needs:
//!
//! * [`CscMatrix`] / [`CsrMatrix`] — compressed sparse column/row storage,
//! * [`triangular`] — sparse triangular solves with *sparse* right-hand
//!   sides using Gilbert–Peierls symbolic reachability (`O(flops)`, not
//!   `O(n)` per solve),
//! * [`lu`] — left-looking sparse LU factorisation `W = LU` following the
//!   paper's Equations (6)–(7) (Doolittle form: unit-diagonal `L`). `W` is
//!   strictly column diagonally dominant, so no pivoting is required,
//! * [`inverse`] — sparse inverses `L⁻¹` and `U⁻¹` (Equations (4)–(5),
//!   computed as `n` sparse solves against unit vectors), plus the
//!   subset driver [`invert_columns_with`] that re-solves only a dirty
//!   column set for the dynamic-update engine,
//! * [`sparsify`] — drop-tolerance sparsified inverses: entries below `ε`
//!   are truncated *during* the column solves (before they propagate),
//!   with per-column dropped ℓ₁ masses returned so the query engine's
//!   certified residual refinement can repair answers back to exact,
//! * [`reach`] — Gilbert–Peierls reach analysis
//!   ([`inverse_dirty_columns`]): given the columns of a triangular
//!   factor that changed, the **exact** set of inverse columns that can
//!   differ — everything outside it is provably bit-identical,
//! * [`rwr`] — the column-normalised transition matrix `A` and
//!   `W = I − (1−c)A` built straight from a [`kdash_graph::CsrGraph`],
//! * [`scatter`] — the scatter/gather proximity kernel: the query column
//!   `L⁻¹ e_q` scattered once into an epoch-stamped dense accumulator
//!   ([`ScatteredColumn`]), each candidate proximity then a gather over
//!   `O(nnz(row))` only — bit-identical to the merge-join kernel it
//!   replaces on the hot path,
//! * [`blocked`] — [`BlockedCsr`], the one in-memory encoding of the
//!   stored `U⁻¹`: `u16` column deltas against aligned `u32` block
//!   anchors, ~half the index traffic of flat CSR on fill-dominated
//!   inverse rows. Its scalar gather
//!   ([`BlockedCsr::row_dot_scattered_counting`]) is the query engine's
//!   only gather, with software prefetch of the next candidate rows
//!   ([`BlockedCsr::prefetch_row`]); it is bit-identical to the
//!   [`CsrMatrix`] reference kernels.
//!
//! ## Conventions
//!
//! * `L` from the factorisation is unit lower triangular and stored
//!   *without* its diagonal. `U` stores its diagonal explicitly.
//! * The inverses store their diagonals explicitly (`L⁻¹` has ones,
//!   `U⁻¹` has `1/U_jj`), so a column of `L⁻¹` is directly the solution of
//!   `L x = e_j`.
//! * Column/row index arrays are sorted ascending; values are finite.

pub mod blocked;
pub mod csc;
pub mod csr;
pub mod inverse;
pub mod lu;
pub mod reach;
pub mod rwr;
pub mod scatter;
pub mod sparsify;
pub mod triangular;

pub use blocked::{BlockedCsr, BLOCK_COLS};
pub use csc::{ColumnUpdate, CscMatrix};
pub use csr::{CsrMatrix, RowUpdate};
pub use inverse::{
    invert_columns_with, invert_lower_unit, invert_lower_unit_with, invert_upper,
    invert_upper_with, InvertOptions,
};
pub use reach::{inverse_dirty_columns, refactor_candidates};
pub use lu::{
    refactor_columns, refactor_columns_with, sparse_lu, sparse_lu_with, LuFactors, RefactorReport,
};
pub use rwr::{transition_matrix, w_matrix, DanglingPolicy};
pub use scatter::ScatteredColumn;
pub use sparsify::{
    sparsify_columns_with, sparsify_lower_unit_with, sparsify_upper_with, validate_drop_tolerance,
    SparsifiedColumns, SparsifiedInverse,
};
pub use triangular::{SolveWorkspace, Triangle};

/// Index type shared with `kdash-graph`.
pub type Index = kdash_graph::NodeId;

/// Errors from sparse kernel construction and factorisation.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Inconsistent dimensions or malformed index arrays.
    Malformed(String),
    /// A pivot was zero (or absent) during LU — the matrix is singular.
    SingularPivot { column: usize, value: f64 },
    /// Operation requires a square matrix.
    NotSquare { nrows: usize, ncols: usize },
    /// Matrix is not triangular in the requested orientation.
    NotTriangular(String),
    /// Restart probability outside `(0, 1)`.
    InvalidRestartProbability(f64),
    /// Drop tolerance for sparsified inversion must be finite and `>= 0`.
    InvalidDropTolerance(f64),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::Malformed(m) => write!(f, "malformed sparse matrix: {m}"),
            SparseError::SingularPivot { column, value } => {
                write!(f, "singular pivot {value} at column {column}")
            }
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "matrix is {nrows}x{ncols}, expected square")
            }
            SparseError::NotTriangular(m) => write!(f, "matrix is not triangular: {m}"),
            SparseError::InvalidRestartProbability(c) => {
                write!(f, "restart probability {c} outside (0, 1)")
            }
            SparseError::InvalidDropTolerance(eps) => {
                write!(f, "drop tolerance {eps} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for SparseError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SparseError>;
