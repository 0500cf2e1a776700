//! # kdash-dynamic
//!
//! Dynamic-graph update engine for the K-dash index: apply edge
//! insertions, deletions and reweights to a built [`KdashIndex`] and
//! patch the stored inverses **incrementally** — with the guarantee that
//! the patched index is *bit-for-bit identical* to rebuilding from
//! scratch on the edited graph under the same node order.
//!
//! ## Why this is possible exactly
//!
//! K-dash precomputes `L⁻¹` and `U⁻¹` of `W = I − (1−c)A`. An edge edit
//! on node `u` renormalises one column of the transition matrix `A`, so
//! one column of `W` changes. The damage to the factors and their
//! inverses is bounded *structurally*:
//!
//! 1. **Incremental refactorisation** — left-looking elimination gives
//!    the factor columns a dependency DAG: column `j` of `L`/`U` is a
//!    function of `W(:, j)` and of the `L` columns in the symbolic reach
//!    of its pattern — `U` is never read back, and every `L`-dependency
//!    edge runs strictly upward in column index. So the columns that can
//!    differ after an edit are exactly the dirty `W` columns plus their
//!    forward reach through that DAG, and
//!    [`kdash_sparse::refactor_columns_with`] re-eliminates **only that
//!    set**, splicing every other column from the old factors
//!    bit-for-bit. The re-elimination reports which recomputed columns
//!    actually changed (bit-level), giving the exact dirty column sets
//!    of `L` and `U` without ever touching the clean ones.
//! 2. **Reach analysis** — column `q` of `T⁻¹` solves `T x = e_q` and
//!    reads exactly the columns in the Gilbert–Peierls reach of `q`. So
//!    the dirty columns of `L⁻¹`/`U⁻¹` are precisely the columns whose
//!    reach intersects the dirty factor columns
//!    ([`kdash_sparse::inverse_dirty_columns`]); every column outside
//!    that set is **provably untouched**, not just assumed so.
//! 3. **Re-solve + splice** — only the dirty inverse columns re-run
//!    their per-column triangular solves (the same work-stealing pool as
//!    the build pipeline), then splice into the stored arrays: `L⁻¹` by
//!    column, the blocked `U⁻¹` ([`kdash_sparse::BlockedCsr`]) by row
//!    with per-row re-encoding — so the byte accounting stays coherent
//!    with a from-scratch build.
//! 4. **Estimator refresh** — `A_max(v)` and `c'` are recomputed for the
//!    edited columns only; the global `A_max` folds over the per-column
//!    maxima.
//!
//! Because every stage either reuses the build pipeline's own kernels on
//! identical inputs or provably leaves bits alone, *incremental update ≡
//! from-scratch rebuild* holds at the array level — index arrays, top-k
//! items and search statistics — which
//! `tests/dynamic_equivalence.rs` pins across graph families, orderings
//! and random edit batches.
//!
//! ## Quick start
//!
//! ```
//! use kdash_core::{IndexOptions, KdashIndex};
//! use kdash_dynamic::{DynamicIndex, UpdateBatch};
//! use kdash_graph::{EdgeEdit, GraphBuilder};
//!
//! let mut b = GraphBuilder::new(32);
//! for v in 0..32u32 { b.add_edge(v, (v + 1) % 32, 1.0); }
//! let graph = b.build().unwrap();
//! let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
//!
//! // Attach the engine (refactorises once), then serve fresh graphs.
//! let mut dynamic = DynamicIndex::new(index).unwrap();
//! let batch = UpdateBatch::new(vec![
//!     EdgeEdit::Insert { src: 0, dst: 16, weight: 2.0 },
//!     EdgeEdit::Reweight { src: 3, dst: 4, weight: 0.5 },
//! ]).unwrap();
//! let report = dynamic.apply(&batch).unwrap();
//! assert!(report.dirty_linv_columns <= dynamic.index().num_nodes());
//! assert_eq!(dynamic.index().update_epoch(), 1);
//!
//! // Queries see the edited graph immediately — and exactly.
//! let fresh = dynamic.index().top_k(0, 5).unwrap();
//! assert_eq!(fresh.items[0].node, 0);
//!
//! // A queue of batches coalesces into one pass (one refactorisation,
//! // one reach analysis, one re-solve) — bit-identical to applying
//! // them one by one, and the epoch still advances by the queue
//! // length. `predict` reports the expected footprint without
//! // mutating anything (the CLI's `update --coalesce --dry-run`).
//! let queue = vec![
//!     UpdateBatch::new(vec![EdgeEdit::Reweight { src: 0, dst: 16, weight: 1.0 }]).unwrap(),
//!     UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 16 }]).unwrap(),
//! ];
//! let prediction = dynamic.predict(&queue).unwrap();
//! let report = dynamic.apply_coalesced(&queue).unwrap();
//! assert!(report.dirty_factor_columns_recomputed <= prediction.candidate_factor_columns);
//! assert_eq!(dynamic.index().update_epoch(), 3);
//! ```
//!
//! Batches come from code ([`UpdateBatch::new`]) or from edit-stream
//! text ([`UpdateBatch::parse_stream`], the `kdash update` CLI format):
//!
//! ```text
//! # one edit per line; blank lines separate batches
//! + 0 16 2.0     # insert 0 -> 16, weight 2
//! = 3 4 0.5      # reweight 3 -> 4
//! - 7 8          # delete 7 -> 8
//! ```
//!
//! ## Durability: the write-ahead journal
//!
//! Applies mutate memory; a crash between snapshots would silently lose
//! every acknowledged batch. Journaled mode closes that hole with a
//! sidecar write-ahead log (see the [`journal`] module for format and
//! contract): each batch's frame is appended and fsynced *before* the
//! patch is installed, a [`DynamicIndex::checkpoint`] persists the
//! snapshot via `save_atomic` and truncates the journal, and
//! [`DynamicIndex::recover`] rebuilds the pre-crash state — replaying
//! the journal's surviving records in one coalesced pass, so the
//! recovered index is **bit-identical** to the one that crashed,
//! tolerating a torn tail from a mid-append crash without panicking.
//!
//! ```no_run
//! use kdash_core::KdashIndex;
//! use kdash_dynamic::{journal::Journal, DynamicIndex, UpdateBatch};
//! use kdash_graph::EdgeEdit;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let index: KdashIndex = unimplemented!();
//! // Journal acknowledged updates next to the snapshot...
//! kdash_core::save_atomic(&index, "graph.kdash")?;
//! let journal = Journal::create(Journal::sidecar_path("graph.kdash"), index.update_epoch())?;
//! let mut dynamic = DynamicIndex::new(index)?.journaled(journal)?;
//! let batch = UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }])?;
//! dynamic.apply(&batch)?;            // durable in the journal before it is acknowledged
//!
//! // ...crash here, any time, at any byte...
//!
//! let snapshot = KdashIndex::load(std::fs::File::open("graph.kdash")?)?;
//! let (mut recovered, report) =
//!     DynamicIndex::recover(snapshot, Journal::sidecar_path("graph.kdash"))?;
//! assert_eq!(report.final_epoch, recovered.index().update_epoch());
//! recovered.checkpoint("graph.kdash")?; // fold the journal into a fresh snapshot
//! # Ok(()) }
//! ```
//!
//! The CLI surfaces the same flow as `kdash update --journal` (which
//! auto-recovers a pending journal before applying) and
//! `kdash recover`; `kdash verify --journal` and `kdash info` inspect a
//! journal without loading the index.

pub mod batch;
pub mod engine;
pub mod journal;

pub use batch::UpdateBatch;
pub use engine::{
    DynamicIndex, UpdatePrediction, UpdateReport, AUTO_CHECKPOINT_DEFAULT_RECORDS,
};
pub use journal::{Journal, JournalError, JournalScan, RecoveryReport};

/// This crate surfaces errors through the core error type: graph-level
/// edit failures (unknown nodes, absent edges, duplicate inserts, bad
/// weights) arrive as [`KdashError::Graph`], numeric failures as
/// [`KdashError::Sparse`].
pub use kdash_core::{KdashError, Result};
