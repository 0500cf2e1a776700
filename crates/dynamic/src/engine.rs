//! The incremental update engine.
//!
//! [`DynamicIndex`] wraps a built [`KdashIndex`] together with the live
//! LU factors of its system matrix and turns it into a mutable,
//! incrementally maintained structure: [`DynamicIndex::apply`] runs one
//! [`UpdateBatch`] through the reach-bounded pipeline
//!
//! ```text
//! edit graph → incremental refactorisation (dirty-W forward reach)
//!            → inverse reach analysis → re-solve dirty inverse columns
//!            → splice → estimator refresh
//! ```
//!
//! and commits the patched components atomically (the index is untouched
//! on any error). Every stage is timed and counted in the returned
//! [`UpdateReport`] — the dirty-column fractions are the observable that
//! makes the update-vs-rebuild speedups legible.
//!
//! The factorisation stage is itself reach-bounded
//! ([`kdash_sparse::refactor_columns_with`]): only factor columns in the
//! forward reach of the edited `W` columns through the left-looking
//! column-dependency DAG are re-eliminated, and the surviving columns
//! are spliced from the old factors bit-for-bit. This killed the one
//! full-`n` stage the engine had — previously ~96% of small-batch update
//! time went into refactorising all of `W` just to discover that a
//! handful of columns changed.
//!
//! [`DynamicIndex::apply_coalesced`] merges a queue of batches into one
//! pass: one merged dirty-`W` set, one incremental refactorisation, one
//! reach analysis, one re-solve — the per-pass overheads are paid once
//! instead of once per batch, while validation still checks each edit
//! against the sequentially edited graph (a delete in batch 3 of an edge
//! inserted in batch 1 validates, exactly as it would applied one by
//! one). [`DynamicIndex::predict`] runs the analysis stages alone and
//! reports the predicted dirty fractions without mutating anything.

use crate::journal::{Journal, JournalError, RecoveryReport};
use crate::{KdashError, Result, UpdateBatch};
use kdash_core::persist::save_atomic_with;
use kdash_core::{IndexPatch, KdashIndex};
use kdash_graph::{EdgeEdit, NodeId};
use kdash_sparse::{
    inverse_dirty_columns, refactor_candidates, refactor_columns_with, sparsify_columns_with,
    transition_matrix, w_matrix, BlockedCsr, Index, InvertOptions, LuFactors, RowUpdate, Triangle,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Default auto-checkpoint threshold (journal records), for
/// [`DynamicIndex::auto_checkpoint`] callers that don't want to tune
/// it: ~16 journaled batches is the measured recovery crossover
/// (BENCH_PR9.json) where replaying the journal starts costing more
/// than loading a fresh snapshot.
pub const AUTO_CHECKPOINT_DEFAULT_RECORDS: u64 = 16;

/// What one applied batch did, stage by stage — the freshness audit
/// trail. All column counts are out of [`UpdateReport::num_columns`]
/// (= the node count), so `dirty_linv_columns as f64 / num_columns as
/// f64` is the dirty fraction the benchmarks report.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Edits the batch carried (summed over all batches when coalesced).
    pub edits: usize,
    /// Update batches this pass represented: `1` for [`DynamicIndex::apply`],
    /// the queue length for [`DynamicIndex::apply_coalesced`]. The index's
    /// update epoch advances by exactly this much.
    pub batches: usize,
    /// Matrix dimension (columns per triangular factor).
    pub num_columns: usize,
    /// Transition-matrix columns the batch renormalised (distinct edited
    /// source nodes).
    pub dirty_w_columns: usize,
    /// Factor columns the incremental refactorisation re-eliminated —
    /// the dirty-`W` columns plus their forward reach through the
    /// column-dependency DAG. Everything outside this set was spliced
    /// from the old factors untouched.
    pub dirty_factor_columns_recomputed: usize,
    /// Columns of the factor `L` that changed under refactorisation.
    pub dirty_l_columns: usize,
    /// Columns of the factor `U` that changed under refactorisation.
    pub dirty_u_columns: usize,
    /// Columns of `L⁻¹` inside the Gilbert–Peierls reach of the dirty
    /// `L` columns — exactly the columns re-solved and spliced.
    pub dirty_linv_columns: usize,
    /// Columns of `U⁻¹` inside the reach of the dirty `U` columns.
    pub dirty_uinv_columns: usize,
    /// Rows of the stored `U⁻¹` re-encoded by the splice (rows holding
    /// entries in a dirty column, before or after the update).
    pub dirty_uinv_rows: usize,
    /// Stored entries the dirty-column re-solves produced (the numeric
    /// work actually paid, against `nnz(L⁻¹) + nnz(U⁻¹)` for a rebuild).
    pub resolved_nnz: usize,
    /// Graph edit + validation time.
    pub graph_time: Duration,
    /// Transition assembly + incremental LU refactorisation time (the
    /// whole stage; [`Self::refactor_time`] and
    /// [`Self::factor_splice_time`] subdivide its LU part).
    pub factorization_time: Duration,
    /// Dependency analysis + dirty-column re-elimination inside the
    /// factorisation stage. A *subdivision* of
    /// [`Self::factorization_time`] — not added again by
    /// [`Self::total_time`].
    pub refactor_time: Duration,
    /// Splicing the recomputed factor columns into the old `L`/`U`.
    /// Also a subdivision of [`Self::factorization_time`].
    pub factor_splice_time: Duration,
    /// Factor column diff time. Always zero since the incremental
    /// refactorisation: changed column sets fall out of the
    /// re-elimination itself instead of a separate full-factor diff.
    /// Kept so longitudinal benchmark series keep their shape.
    pub diff_time: Duration,
    /// Reach-analysis time (both triangles).
    pub reach_time: Duration,
    /// Dirty-column re-solve time (the work-stealing pool).
    pub resolve_time: Duration,
    /// Splice time (`L⁻¹` columns + `U⁻¹` rows + policy refresh).
    pub splice_time: Duration,
    /// Estimator-refresh + commit time.
    pub estimator_time: Duration,
    /// Write-ahead journal append + fsync time (zero when journaled
    /// mode is off) — the durability tax the `recovery_time` bench
    /// series measures.
    pub journal_time: Duration,
    /// True when this apply tripped the auto-checkpoint policy
    /// ([`DynamicIndex::auto_checkpoint`]): the index was snapshotted
    /// and the journal truncated after the commit.
    pub checkpointed: bool,
    /// Auto-checkpoint time (atomic snapshot save + journal
    /// truncation); zero unless [`Self::checkpointed`].
    pub checkpoint_time: Duration,
}

impl UpdateReport {
    /// Total wall-clock of the batch.
    pub fn total_time(&self) -> Duration {
        self.graph_time
            + self.factorization_time
            + self.diff_time
            + self.reach_time
            + self.resolve_time
            + self.splice_time
            + self.estimator_time
            + self.journal_time
            + self.checkpoint_time
    }

    /// Fraction of `L⁻¹` columns the update had to re-solve.
    pub fn linv_dirty_fraction(&self) -> f64 {
        self.dirty_linv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `U⁻¹` columns the update had to re-solve.
    pub fn uinv_dirty_fraction(&self) -> f64 {
        self.dirty_uinv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of factor columns the refactorisation re-eliminated.
    pub fn factor_recompute_fraction(&self) -> f64 {
        self.dirty_factor_columns_recomputed as f64 / self.num_columns.max(1) as f64
    }
}

/// What [`DynamicIndex::predict`] reports: the analysis-stage footprint
/// of a (coalesced) update, computed without mutating the index. The
/// factor count is the *scheduled candidate* set — a provable superset
/// of what an actual apply would recompute; the inverse counts use the
/// current factor patterns and upper-bound the real dirty sets whenever
/// the update leaves those patterns unchanged.
#[derive(Debug, Clone, Default)]
pub struct UpdatePrediction {
    /// Edits across all predicted batches.
    pub edits: usize,
    /// Batches the prediction coalesced.
    pub batches: usize,
    /// Matrix dimension (columns per triangular factor).
    pub num_columns: usize,
    /// Transition-matrix columns the edits renormalise.
    pub dirty_w_columns: usize,
    /// Factor columns the incremental refactorisation would schedule.
    pub candidate_factor_columns: usize,
    /// `L⁻¹` columns predicted inside the dirty reach.
    pub predicted_linv_columns: usize,
    /// `U⁻¹` columns predicted inside the dirty reach.
    pub predicted_uinv_columns: usize,
}

impl UpdatePrediction {
    /// Fraction of `W` columns the edits touch.
    pub fn w_fraction(&self) -> f64 {
        self.dirty_w_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of factor columns scheduled for re-elimination.
    pub fn factor_fraction(&self) -> f64 {
        self.candidate_factor_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `L⁻¹` columns predicted dirty.
    pub fn linv_fraction(&self) -> f64 {
        self.predicted_linv_columns as f64 / self.num_columns.max(1) as f64
    }

    /// Fraction of `U⁻¹` columns predicted dirty.
    pub fn uinv_fraction(&self) -> f64 {
        self.predicted_uinv_columns as f64 / self.num_columns.max(1) as f64
    }
}

/// A [`KdashIndex`] plus the live LU factors of its system matrix —
/// everything needed to patch the stored inverses in place. See the
/// crate docs for the exactness argument.
#[derive(Debug)]
pub struct DynamicIndex {
    index: KdashIndex,
    /// Factors of `W` for the *current* graph — but only when the index
    /// does not already keep its own copy
    /// ([`kdash_core::IndexOptions::keep_factors`]): factor state is
    /// `O(nnz(L) + nnz(U))`, so holding it twice would double a large
    /// resident allocation for nothing. [`Self::current_factors`] reads
    /// whichever copy exists.
    factors: Option<LuFactors>,
    /// Worker threads for the dirty-column re-solves (`0` = all cores).
    threads: usize,
    /// Run the full structural audit after every committed batch.
    verify_after_apply: bool,
    /// The write-ahead journal, when journaled mode is on
    /// ([`Self::journaled`]).
    journal: Option<Journal>,
    /// Auto-checkpoint policy: snapshot path + journal record
    /// threshold ([`Self::auto_checkpoint`]); inert without a journal.
    auto_checkpoint: Option<(PathBuf, u64)>,
}

/// Cloning duplicates the in-memory engine state but **detaches the
/// journal**: two engines appending interleaved epochs to one journal
/// file could not both be telling the truth about durability. The clone
/// is a plain un-journaled engine; attach a separate journal explicitly
/// if the copy needs one.
impl Clone for DynamicIndex {
    fn clone(&self) -> Self {
        DynamicIndex {
            index: self.index.clone(),
            factors: self.factors.clone(),
            threads: self.threads,
            verify_after_apply: self.verify_after_apply,
            journal: None,
            // The policy rides the journal: detached with it (two
            // engines checkpointing to one snapshot path would race).
            auto_checkpoint: None,
        }
    }
}

impl DynamicIndex {
    /// Attaches the update engine to an index. If the index kept its LU
    /// factors ([`kdash_core::IndexOptions::keep_factors`]) they are
    /// used in place; otherwise `W` is refactorised once — the cheap
    /// stage, a few percent of a full build — so loaded (persisted)
    /// indexes attach without a rebuild.
    ///
    /// Attachment then **probes** the stored inverses against the
    /// factors: a few columns are re-solved and bit-compared. This
    /// catches the one silent-corruption hazard of the format history —
    /// a pre-v3 file built with [`DanglingPolicy::SelfLoop`] loads with
    /// the default `Keep` policy (v1/v2 never recorded it), and updating
    /// under the wrong policy would splice mixed-normalisation columns.
    /// The probe always includes dangling nodes (the only nodes whose
    /// transition column the policies disagree on), so a mismatched
    /// policy fails attachment with a typed error instead of serving
    /// wrong proximities later.
    ///
    /// [`DanglingPolicy::SelfLoop`]: kdash_sparse::DanglingPolicy::SelfLoop
    pub fn new(index: KdashIndex) -> Result<DynamicIndex> {
        let factors = match index.factors() {
            Some(_) => None, // read the index's copy, never duplicate it
            None => {
                let a = transition_matrix(index.permuted_graph(), index.dangling_policy());
                let w = w_matrix(&a, index.restart_probability())?;
                Some(kdash_sparse::sparse_lu(&w)?)
            }
        };
        let engine = DynamicIndex {
            index,
            factors,
            threads: 1,
            verify_after_apply: false,
            journal: None,
            auto_checkpoint: None,
        };
        engine.probe_consistency()?;
        Ok(engine)
    }

    /// Bit-compares a handful of re-solved inverse columns against the
    /// stored arrays (see [`DynamicIndex::new`]). Probe set: up to four
    /// dangling nodes — where a mismatched dangling policy *must* show
    /// (their `W` columns differ at the diagonal, so the `U` pivots and
    /// with them `1/U_qq` differ by construction) — plus the first and
    /// last column as general corruption canaries.
    fn probe_consistency(&self) -> Result<()> {
        let n = self.index.num_nodes();
        if n == 0 {
            return Ok(());
        }
        let graph = self.index.permuted_graph();
        let mut probes: Vec<Index> = (0..n as Index)
            .filter(|&v| graph.out_degree(v) == 0)
            .take(4)
            .collect();
        probes.push(0);
        probes.push(n as Index - 1);
        probes.sort_unstable();
        probes.dedup();
        let factors = self.current_factors();
        // The stored columns carry the index's drop tolerance, so the
        // probe solves must truncate identically — a dense solve against
        // a sparsified store would flag every truncated column as
        // corruption. With ε = 0 these are bit-for-bit the plain solves.
        let eps = self.index.drop_tolerance();
        let mut ws = kdash_sparse::SolveWorkspace::new(n);
        let (mut xi, mut xv) = (Vec::new(), Vec::new());
        let mismatch = |q: Index| {
            KdashError::Sparse(kdash_sparse::SparseError::Malformed(format!(
                "stored inverses disagree with the refactorised W at column {q} — was this \
                 index built under a different dangling policy and saved in a pre-v3 format \
                 (which did not record the policy)? Rebuild it, or re-save it under the \
                 current format before attaching the update engine"
            )))
        };
        for &q in &probes {
            // L⁻¹ column q, bit-for-bit.
            ws.solve_unit_truncated(&factors.l, Triangle::Lower, true, q, eps, &mut xi, &mut xv)?;
            let (rows, vals) = self.index.linv_cols().col(q);
            if xi != rows || xv.iter().zip(vals).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return Err(mismatch(q));
            }
            // U⁻¹ diagonal entry of column q (= first stored entry of the
            // upper-triangular row q). The diagonal is the protected seed,
            // so truncation cannot touch it.
            ws.solve_unit_truncated(&factors.u, Triangle::Upper, false, q, eps, &mut xi, &mut xv)?;
            let solved_diag = xi
                .iter()
                .position(|&r| r == q)
                .map(|at| xv[at])
                .ok_or_else(|| mismatch(q))?;
            // Diagonal of stored row q via a single-element merge join —
            // the row is upper triangular, so this reads one entry.
            let stored_diag = self.index.uinv_rows().row_dot_sparse(q, &[q], &[1.0]);
            if stored_diag == 0.0 || solved_diag.to_bits() != stored_diag.to_bits() {
                return Err(mismatch(q));
            }
        }
        Ok(())
    }

    /// The factors of the current graph: the index's kept copy when it
    /// has one, the engine's otherwise.
    fn current_factors(&self) -> &LuFactors {
        self.index
            .factors()
            .or(self.factors.as_ref())
            .expect("exactly one factor copy exists at all times")
    }

    /// Worker threads for the dirty-column re-solves: `0` = one per
    /// available core, `1` (default) = sequential. The patched arrays
    /// are bit-identical at any thread count (same contract as the
    /// build pipeline's inversion stage).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Opt into running the full structural audit
    /// ([`kdash_core::IndexAudit`]) after every committed batch:
    /// triangularity of the spliced inverses, blocked-encoding decode
    /// contract, policy-table and estimator coherence. The audit runs
    /// *after* the patch is installed — a finding means the committed
    /// state is damaged and [`apply`](Self::apply) returns
    /// [`kdash_core::KdashError::AuditFailed`]; treat the index as
    /// suspect and rebuild or reload it. Costs one full pass over the
    /// stored arrays per batch (off by default).
    pub fn verify_after_apply(mut self, verify: bool) -> Self {
        self.verify_after_apply = verify;
        self
    }

    /// Turns on journaled mode: every subsequent [`apply`](Self::apply)
    /// / [`apply_coalesced`](Self::apply_coalesced) appends its batches
    /// to `journal` and fsyncs **before** installing the patch, so an
    /// acknowledged apply is durable by definition (see the
    /// [`journal`](crate::journal) module for the full contract).
    ///
    /// The journal's tail epoch must equal the index's current epoch —
    /// attaching a journal that is ahead (unreplayed records) or behind
    /// (stale truncation) would let acknowledgement and durability
    /// disagree, so it fails with
    /// [`JournalError::EpochMismatch`]; run [`Self::recover`] instead.
    pub fn journaled(mut self, journal: Journal) -> std::result::Result<Self, JournalError> {
        if journal.last_epoch() != self.index.update_epoch() {
            return Err(JournalError::EpochMismatch {
                journal: journal.last_epoch(),
                index: self.index.update_epoch(),
            });
        }
        self.journal = Some(journal);
        Ok(self)
    }

    /// The attached journal, when journaled mode is on.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Turns on the auto-checkpoint policy: after any journaled apply
    /// that leaves **more than** `max_records` records in the journal,
    /// the engine runs [`checkpoint`](Self::checkpoint) to `path`
    /// automatically, so serving-mode journals (and with them, crash
    /// recovery's replay time) stay bounded.
    /// [`AUTO_CHECKPOINT_DEFAULT_RECORDS`] is the measured default.
    ///
    /// The checkpoint runs strictly *after* the commit: a checkpoint
    /// failure surfaces as [`kdash_core::KdashError::JournalFailed`],
    /// but the apply it rode on is already installed and durable (the
    /// journal keeps its records; the next apply or an explicit
    /// [`checkpoint`](Self::checkpoint) retries). Inert without a
    /// journal, and detached by `clone()` along with it.
    pub fn auto_checkpoint<P: Into<PathBuf>>(mut self, path: P, max_records: u64) -> Self {
        self.auto_checkpoint = Some((path.into(), max_records));
        self
    }

    /// Checkpoints journaled state: persists the index to `path` via
    /// the atomic save protocol, then truncates the journal (itself
    /// atomically — rename of a fresh header-only journal). A crash
    /// between the two steps leaves snapshot *and* records; recovery
    /// skips the already-contained records, so nothing is applied
    /// twice. Requires journaled mode
    /// ([`JournalError::NotJournaled`] otherwise).
    pub fn checkpoint<P: AsRef<Path>>(&mut self, path: P) -> std::result::Result<(), JournalError> {
        let journal = self.journal.as_mut().ok_or(JournalError::NotJournaled)?;
        let faults = std::sync::Arc::clone(journal.fault_injector());
        save_atomic_with(&self.index, path, faults.as_ref())?;
        journal.checkpoint(self.index.update_epoch())
    }

    /// Deterministic crash recovery: rebuilds the journaled engine from
    /// a snapshot plus its sidecar journal.
    ///
    /// Scans the journal tolerating a torn tail (a crash mid-append
    /// truncates at the first bad frame — typed handling, never a
    /// panic), replays every intact record above the snapshot's epoch
    /// in **one coalesced pass** — bit-identical to having applied them
    /// live, the property `tests/failure_injection.rs` pins with
    /// `check_index_bit_identity` — and reattaches the (healed) journal
    /// for further journaled applies. Records at or below the
    /// snapshot's epoch are skipped (a crash between snapshot save and
    /// journal truncation leaves both; replay is idempotent), and a
    /// journal strictly *behind* the snapshot (updates ran without
    /// journaling) is resynced by truncating it at the snapshot epoch.
    /// Surviving records that *skip* epochs above the snapshot mean
    /// acknowledged history was lost out-of-band:
    /// [`JournalError::EpochGap`], never a silent skip.
    pub fn recover<P: AsRef<Path>>(
        index: KdashIndex,
        journal_path: P,
    ) -> std::result::Result<(DynamicIndex, RecoveryReport), JournalError> {
        Self::recover_with(index, journal_path, std::sync::Arc::new(kdash_core::NoFaults))
    }

    /// [`Self::recover`] with an injectable fault layer for the
    /// reattached journal (see [`kdash_core::fault`]). Recovery's own
    /// reads are not fault-injected — the sweep injects faults while
    /// *writing* state and asserts recovery afterwards.
    pub fn recover_with<P: AsRef<Path>>(
        index: KdashIndex,
        journal_path: P,
        faults: std::sync::Arc<dyn kdash_core::FaultInjector>,
    ) -> std::result::Result<(DynamicIndex, RecoveryReport), JournalError> {
        let t = Instant::now();
        let snapshot_epoch = index.update_epoch();
        let (records, scan) = Journal::read_records(journal_path.as_ref())?;

        let mut skipped = 0usize;
        let mut replay: Vec<UpdateBatch> = Vec::new();
        for (epoch, batch) in records {
            if epoch <= snapshot_epoch {
                skipped += 1;
            } else {
                if replay.is_empty() && epoch != snapshot_epoch + 1 {
                    return Err(JournalError::EpochGap {
                        snapshot: snapshot_epoch,
                        first_record: epoch,
                    });
                }
                replay.push(batch);
            }
        }

        let mut engine = DynamicIndex::new(index)?;
        let replayed_batches = replay.len();
        let replayed_edits = replay.iter().map(|b| b.len()).sum();
        if !replay.is_empty() {
            engine.apply_coalesced(&replay)?;
        }

        // Reattach for further journaled applies; opening heals the
        // torn tail and a damaged header. A journal strictly behind the
        // recovered epoch (snapshot newer than its sidecar) restarts
        // from the snapshot.
        let mut journal = Journal::open_with(journal_path.as_ref(), faults)?;
        if journal.last_epoch() < engine.index.update_epoch() {
            journal.checkpoint(engine.index.update_epoch())?;
        }
        let report = RecoveryReport {
            snapshot_epoch,
            final_epoch: engine.index.update_epoch(),
            replayed_batches,
            replayed_edits,
            skipped_records: skipped,
            torn_tail: scan
                .torn
                .as_ref()
                .map(|t| format!("{} (byte {})", t.detail, t.offset)),
            header_repaired: !scan.header_ok,
            replay_time: t.elapsed(),
        };
        let engine = engine.journaled(journal)?;
        Ok((engine, report))
    }

    /// The maintained index.
    pub fn index(&self) -> &KdashIndex {
        &self.index
    }

    /// Consumes the engine, returning the index (e.g. to persist it).
    pub fn into_index(self) -> KdashIndex {
        self.index
    }

    /// Applies one batch: validates every edit against the sequentially
    /// edited graph (original node ids in every error), patches the
    /// index, bumps its update epoch, and reports what was touched. On
    /// any error the index is unchanged.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateReport> {
        self.apply_batches(std::slice::from_ref(batch))
    }

    /// Applies a queue of batches in one coalesced pass: the merged edit
    /// list is validated against the sequentially edited graph exactly as
    /// `batches.iter().map(|b| engine.apply(b))` would validate it, but
    /// the pipeline runs **once** — one merged dirty-`W` set, one
    /// incremental refactorisation, one reach analysis, one re-solve,
    /// one splice. The committed index is bit-identical to the
    /// one-by-one sequence and the update epoch advances by
    /// `batches.len()`, so coalescing is observationally equivalent —
    /// with one deliberate exception: application is all-or-nothing. An
    /// invalid edit in *any* batch fails the whole pass with the index
    /// untouched, where the sequential loop would have committed the
    /// batches preceding the bad one.
    ///
    /// Errors with [`kdash_core::KdashError::Sparse`] (malformed) on an
    /// empty queue — an accidental no-op epoch bump would corrupt the
    /// freshness audit trail.
    pub fn apply_coalesced(&mut self, batches: &[UpdateBatch]) -> Result<UpdateReport> {
        if batches.is_empty() {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "apply_coalesced needs at least one batch".into(),
            )));
        }
        self.apply_batches(batches)
    }

    /// Runs the analysis stages of a (coalesced) update without touching
    /// the index: validates the edits, assembles the edited `W`, and
    /// reports the dirty-`W` columns, the factor columns the incremental
    /// refactorisation would *schedule* (the pattern-reach candidate
    /// superset — the recomputed count of a real apply is at most this),
    /// and the inverse columns inside their reach. The inverse counts
    /// are the reach of the *candidate* set over the **current** factor
    /// patterns: an upper bound whenever the update leaves factor
    /// sparsity patterns unchanged (reweights; most small edits), an
    /// estimate otherwise.
    ///
    /// Multiple batches are predicted as one coalesced pass. Errors on
    /// an empty queue, and on invalid edits exactly as
    /// [`Self::apply_coalesced`] would.
    pub fn predict(&self, batches: &[UpdateBatch]) -> Result<UpdatePrediction> {
        if batches.is_empty() {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "predict needs at least one batch".into(),
            )));
        }
        let mut overlay = HashMap::new();
        let mut permuted_edits = Vec::new();
        for batch in batches {
            permuted_edits.extend(self.validate_and_permute(&mut overlay, batch.edits())?);
        }
        let new_graph = self.index.permuted_graph().apply_edits(&permuted_edits)?;
        let mut dirty_w: Vec<Index> = permuted_edits.iter().map(|e| e.src()).collect();
        dirty_w.sort_unstable();
        dirty_w.dedup();
        let a = transition_matrix(&new_graph, self.index.dangling_policy());
        let w = w_matrix(&a, self.index.restart_probability())?;
        let old = self.current_factors();
        let candidates = refactor_candidates(&old.l, &w, &dirty_w);
        let predicted_linv = inverse_dirty_columns(&old.l, &candidates);
        let predicted_uinv = inverse_dirty_columns(&old.u, &candidates);
        Ok(UpdatePrediction {
            edits: permuted_edits.len(),
            batches: batches.len(),
            num_columns: self.index.num_nodes(),
            dirty_w_columns: dirty_w.len(),
            candidate_factor_columns: candidates.len(),
            predicted_linv_columns: predicted_linv.len(),
            predicted_uinv_columns: predicted_uinv.len(),
        })
    }

    /// The shared pipeline behind [`Self::apply`] (one batch) and
    /// [`Self::apply_coalesced`] (a merged queue).
    fn apply_batches(&mut self, batches: &[UpdateBatch]) -> Result<UpdateReport> {
        let mut report = UpdateReport {
            edits: batches.iter().map(|b| b.len()).sum(),
            batches: batches.len(),
            num_columns: self.index.num_nodes(),
            ..Default::default()
        };

        // Stage 1 — validate in user id space against the *running*
        // edge-presence overlay (so batch k sees the edits of batches
        // 0..k, same as applying them one by one), map to permuted ids,
        // edit the permuted graph. (An edited original graph permuted by
        // the frozen order equals the edited permuted graph, so the
        // rebuild reference in the equivalence suite compares apples to
        // apples.)
        let t = Instant::now();
        let mut overlay = HashMap::new();
        let mut permuted_edits = Vec::new();
        for batch in batches {
            permuted_edits.extend(self.validate_and_permute(&mut overlay, batch.edits())?);
        }
        let new_graph = self.index.permuted_graph().apply_edits(&permuted_edits)?;
        let mut dirty_w: Vec<Index> = permuted_edits.iter().map(|e| e.src()).collect();
        dirty_w.sort_unstable();
        dirty_w.dedup();
        report.dirty_w_columns = dirty_w.len();
        report.graph_time = t.elapsed();

        // Stage 2 — incremental refactorisation: only factor columns in
        // the forward reach of the dirty W columns through the
        // column-dependency DAG are re-eliminated; the rest are spliced
        // from the current factors bit-for-bit. The changed column sets
        // fall out of the re-elimination directly, so the old bit-level
        // full-factor diff stage is gone (diff_time stays zero).
        let t = Instant::now();
        let a = transition_matrix(&new_graph, self.index.dangling_policy());
        let w = w_matrix(&a, self.index.restart_probability())?;
        let (new_factors, refactor) = refactor_columns_with(
            self.current_factors(),
            &w,
            &dirty_w,
            InvertOptions { threads: self.threads },
        )?;
        report.factorization_time = t.elapsed();
        report.dirty_factor_columns_recomputed = refactor.recomputed_columns;
        report.refactor_time = refactor.analysis_time + refactor.solve_time;
        report.factor_splice_time = refactor.splice_time;
        let dirty_l = refactor.changed_l_columns;
        let dirty_u = refactor.changed_u_columns;
        report.dirty_l_columns = dirty_l.len();
        report.dirty_u_columns = dirty_u.len();

        // Stage 3 — reach analysis: the exact dirty inverse column sets.
        let t = Instant::now();
        let dirty_linv = inverse_dirty_columns(&new_factors.l, &dirty_l);
        let dirty_uinv = inverse_dirty_columns(&new_factors.u, &dirty_u);
        report.dirty_linv_columns = dirty_linv.len();
        report.dirty_uinv_columns = dirty_uinv.len();
        report.reach_time = t.elapsed();

        // Stage 4 — re-solve only the dirty inverse columns, on the same
        // per-column solves (hence the same bits) the build pipeline runs,
        // under the index's drop tolerance so sparsified stores stay
        // sparsified (ε = 0 delegates to the plain dense solves).
        let t = Instant::now();
        let opts = InvertOptions { threads: self.threads };
        let eps = self.index.drop_tolerance();
        let linv_sparsified =
            sparsify_columns_with(&new_factors.l, Triangle::Lower, true, &dirty_linv, eps, opts)?;
        let uinv_sparsified =
            sparsify_columns_with(&new_factors.u, Triangle::Upper, false, &dirty_uinv, eps, opts)?;
        let linv_updates = linv_sparsified.updates;
        let uinv_updates = uinv_sparsified.updates;
        report.resolved_nnz = linv_updates.iter().chain(&uinv_updates).map(|u| u.rows.len()).sum();
        report.resolve_time = t.elapsed();

        // Stage 5 — splice. L⁻¹ is column-major storage, so the solved
        // columns drop straight in. U⁻¹ is stored row-major (blocked): the
        // solved columns are scattered into per-row updates, merged with
        // each dirty row's surviving entries, and spliced with per-row
        // blocked re-encoding.
        let t = Instant::now();
        let new_linv = self.index.linv_cols().splice_columns(&linv_updates)?;
        let row_updates = uinv_row_updates(self.index.uinv_rows(), &dirty_uinv, &uinv_updates);
        report.dirty_uinv_rows = row_updates.len();
        let new_uinv = self.index.uinv_rows().splice_rows(&row_updates)?;
        report.splice_time = t.elapsed();

        // Stage 6 — estimator refresh on the dirty transition columns
        // only, then the atomic commit (which advances the update epoch
        // by the number of batches this pass represented).
        let t = Instant::now();
        let (a_col_max_old, _, c_prime_old) = self.index.estimator_constants();
        let mut a_col_max = a_col_max_old.to_vec();
        let mut c_prime = c_prime_old.to_vec();
        let c = self.index.restart_probability();
        for &j in &dirty_w {
            a_col_max[j as usize] = a.col(j).1.iter().copied().fold(0.0f64, f64::max);
            let a_jj = a.get(j, j).unwrap_or(0.0);
            c_prime[j as usize] = (1.0 - c) / (1.0 - a_jj + c * a_jj);
        }
        let a_max = a_col_max.iter().copied().fold(0.0f64, f64::max);
        let (nnz_l, nnz_u) = (new_factors.l.nnz(), new_factors.u.nnz());
        // Whichever side held the factor state keeps holding it — the
        // fresh factors move (never clone) into the index's slot when it
        // kept factors, or into the engine's otherwise.
        let (patch_factors, engine_factors) = if self.index.factors().is_some() {
            (Some(new_factors), None)
        } else {
            (None, Some(new_factors))
        };
        // Per-column dropped ℓ₁ masses: carry the old vectors forward and
        // overwrite just the re-solved columns with their fresh masses.
        let (old_linv_dropped, old_uinv_dropped) = self.index.dropped_masses();
        let mut linv_dropped = old_linv_dropped.to_vec();
        for (upd, &mass) in linv_updates.iter().zip(&linv_sparsified.dropped) {
            linv_dropped[upd.col as usize] = mass;
        }
        let mut uinv_dropped = old_uinv_dropped.to_vec();
        for (upd, &mass) in uinv_updates.iter().zip(&uinv_sparsified.dropped) {
            uinv_dropped[upd.col as usize] = mass;
        }
        let patch = IndexPatch {
            graph: new_graph,
            linv: new_linv,
            uinv: new_uinv,
            a_col_max,
            a_max,
            c_prime,
            factors: patch_factors,
            linv_dropped,
            uinv_dropped,
            nnz_l,
            nnz_u,
            epochs: batches.len() as u64,
        };
        report.estimator_time = t.elapsed();
        // Write-ahead: the batches become durable (appended + fsynced)
        // strictly before the patch is installed. On journal failure
        // the patch is dropped and the index stays at its old epoch —
        // acknowledgement and durability cannot disagree. (If the
        // install below were ever to fail, the journal would be ahead
        // of the index; recovery replays the surplus records, so even
        // that window converges to the correct state.)
        if let Some(journal) = self.journal.as_mut() {
            let t = Instant::now();
            journal
                .append_batches(batches, self.index.update_epoch() + 1)
                .map_err(|e| KdashError::JournalFailed { detail: e.to_string() })?;
            report.journal_time = t.elapsed();
        }
        let t = Instant::now();
        self.index.install_patch(patch)?;
        self.factors = engine_factors;
        report.estimator_time += t.elapsed();
        if self.verify_after_apply {
            kdash_core::IndexAudit::run_with_factors(&self.index, self.factors.as_ref())
                .into_result()?;
        }
        // Auto-checkpoint policy: bound journal growth (and with it,
        // recovery replay time) once the record count passes the
        // threshold. Strictly after the commit — on checkpoint failure
        // the apply is already installed and durable, the journal keeps
        // its records, and the error says exactly that.
        if let Some((path, max_records)) = self.auto_checkpoint.clone() {
            if self.journal.as_ref().is_some_and(|j| j.records() > max_records) {
                let t = Instant::now();
                self.checkpoint(&path).map_err(|e| KdashError::JournalFailed {
                    detail: format!(
                        "auto-checkpoint to {} failed after a committed apply (the update \
                         itself is installed and durable; the journal retains its records): {e}",
                        path.display()
                    ),
                })?;
                report.checkpoint_time = t.elapsed();
                report.checkpointed = true;
            }
        }
        Ok(report)
    }

    /// Validates edits against the sequentially edited graph, reporting
    /// errors in *original* node ids, and returns them mapped into the
    /// index's permuted id space. `overlay` is the edge-presence overlay
    /// over all edits validated so far, keyed by the *permuted* pair
    /// (what the graph is indexed by) — callers pass one overlay per
    /// logical pass, so a coalesced queue validates each batch against
    /// the graph as edited by its predecessors.
    fn validate_and_permute(
        &self,
        overlay: &mut HashMap<(NodeId, NodeId), bool>,
        edits: &[EdgeEdit],
    ) -> Result<Vec<EdgeEdit>> {
        let n = self.index.num_nodes();
        let perm = self.index.permutation();
        let graph = self.index.permuted_graph();
        let mut permuted = Vec::with_capacity(edits.len());
        for edit in edits {
            let (src, dst) = (edit.src(), edit.dst());
            for node in [src, dst] {
                if (node as usize) >= n {
                    return Err(KdashError::NodeOutOfBounds { node, num_nodes: n });
                }
            }
            let key = (perm.new_of(src), perm.new_of(dst));
            let present =
                *overlay.entry(key).or_insert_with(|| graph.has_edge(key.0, key.1));
            match edit {
                EdgeEdit::Insert { weight, .. } => {
                    if present {
                        return Err(KdashError::Graph(
                            kdash_graph::GraphError::DuplicateEdge { src, dst },
                        ));
                    }
                    if !(weight.is_finite() && *weight > 0.0) {
                        return Err(KdashError::Graph(
                            kdash_graph::GraphError::InvalidWeight { src, dst, weight: *weight },
                        ));
                    }
                    overlay.insert(key, true);
                }
                EdgeEdit::Delete { .. } => {
                    if !present {
                        return Err(KdashError::Graph(kdash_graph::GraphError::EdgeNotFound {
                            src,
                            dst,
                        }));
                    }
                    overlay.insert(key, false);
                }
                EdgeEdit::Reweight { weight, .. } => {
                    if !present {
                        return Err(KdashError::Graph(kdash_graph::GraphError::EdgeNotFound {
                            src,
                            dst,
                        }));
                    }
                    if !(weight.is_finite() && *weight > 0.0) {
                        return Err(KdashError::Graph(
                            kdash_graph::GraphError::InvalidWeight { src, dst, weight: *weight },
                        ));
                    }
                }
            }
            permuted.push(edit.map_endpoints(|v| perm.new_of(v)));
        }
        Ok(permuted)
    }
}

/// Builds the per-row replacement set for the stored `U⁻¹` from the
/// re-solved dirty columns: a row is dirty iff it holds an entry in a
/// dirty column before or after the update; its new content is its
/// surviving clean-column entries merged (by column) with the re-solved
/// entries. Both sides are sorted and live in disjoint column sets, so
/// the merge is a linear zip — and the result is exactly the row a full
/// `U⁻¹` rebuild would store.
fn uinv_row_updates(
    store: &BlockedCsr,
    dirty_cols: &[Index],
    solved: &[kdash_sparse::ColumnUpdate],
) -> Vec<RowUpdate> {
    let n = store.nrows();
    if dirty_cols.is_empty() {
        return Vec::new();
    }
    let mut dirty_flag = vec![false; store.ncols()];
    for &c in dirty_cols {
        dirty_flag[c as usize] = true;
    }
    let (min_dirty, max_dirty) =
        (*dirty_cols.first().expect("non-empty"), *dirty_cols.last().expect("non-empty"));

    // New entries bucketed by row. Columns are processed in ascending
    // order, so each bucket is ascending in column.
    let mut new_by_row: HashMap<Index, Vec<(Index, f64)>> = HashMap::new();
    for u in solved {
        for (&r, &v) in u.rows.iter().zip(&u.vals) {
            new_by_row.entry(r).or_default().push((u.col, v));
        }
    }

    // Rows with old entries in a dirty column. The row-span check skips
    // most clean rows without decoding them.
    let mut affected: Vec<Index> = new_by_row.keys().copied().collect();
    let mut cols: Vec<Index> = Vec::new();
    for r in 0..n as Index {
        let (Some(first), Some(last)) = (store.row_first_col(r), store.row_last_col(r)) else {
            continue;
        };
        if last < min_dirty || first > max_dirty {
            continue;
        }
        store.decode_row_into(r, &mut cols);
        if cols.iter().any(|&c| dirty_flag[c as usize]) {
            affected.push(r);
        }
    }
    affected.sort_unstable();
    affected.dedup();

    affected
        .into_iter()
        .map(|r| {
            store.decode_row_into(r, &mut cols);
            let kept: Vec<(Index, f64)> = cols
                .iter()
                .zip(store.row_values(r))
                .filter(|(&c, _)| !dirty_flag[c as usize])
                .map(|(&c, &v)| (c, v))
                .collect();
            let added = new_by_row.remove(&r).unwrap_or_default();
            // Sorted merge of two column-disjoint runs.
            let mut merged_cols = Vec::with_capacity(kept.len() + added.len());
            let mut merged_vals = Vec::with_capacity(kept.len() + added.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < kept.len() || j < added.len() {
                let take_kept = match (kept.get(i), added.get(j)) {
                    (Some(&(ck, _)), Some(&(ca, _))) => ck < ca,
                    (Some(_), None) => true,
                    _ => false,
                };
                let (c, v) = if take_kept {
                    i += 1;
                    kept[i - 1]
                } else {
                    j += 1;
                    added[j - 1]
                };
                merged_cols.push(c);
                merged_vals.push(v);
            }
            RowUpdate { row: r, cols: merged_cols, vals: merged_vals }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_core::{IndexBuilder, IndexOptions, NodeOrdering};
    use kdash_graph::{CsrGraph, GraphBuilder};

    fn chorded_ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    /// The core contract on a small graph: after a batch, the index
    /// equals a from-scratch rebuild of the edited graph under the same
    /// permutation — arrays and answers. (The broad property version
    /// lives in `tests/dynamic_equivalence.rs`.)
    #[test]
    fn apply_matches_pinned_rebuild() {
        let graph = chorded_ring(30);
        let options = IndexOptions { ordering: NodeOrdering::Degree, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
            EdgeEdit::Delete { src: 6, dst: 7 },
            EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
        ])
        .unwrap();
        let report = dynamic.apply(&batch).unwrap();
        assert_eq!(report.edits, 3);
        assert_eq!(report.dirty_w_columns, 3);
        assert!(report.dirty_linv_columns >= report.dirty_l_columns);
        assert_eq!(dynamic.index().update_epoch(), 1);

        let edited = graph
            .apply_edits(&[
                EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
                EdgeEdit::Delete { src: 6, dst: 7 },
                EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
            ])
            .unwrap();
        let rebuilt =
            IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
        let (ap, ai, av) = dynamic.index().linv_cols().raw();
        let (bp, bi, bv) = rebuilt.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi), "L⁻¹ structure must match the rebuild");
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(dynamic.index().uinv_rows(), rebuilt.uinv_rows());
        for q in 0..30u32 {
            let a = dynamic.index().top_k(q, 8).unwrap();
            let b = rebuilt.top_k(q, 8).unwrap();
            assert_eq!(a.items, b.items, "q {q}");
            assert_eq!(a.stats, b.stats, "q {q}");
        }
    }

    /// Same pinned-rebuild contract on a *sparsified* index: the engine's
    /// stage-4 re-solves must truncate under the index's drop tolerance,
    /// carry per-column dropped masses through the patch, and keep the
    /// consistency probes honest — so the patched index stays bit-identical
    /// to a from-scratch sparsified rebuild of the edited graph.
    /// A chorded ring with node-dependent weights: the uniform ring is so
    /// symmetric that distinct nodes share *exactly* equal proximities,
    /// which the refined path refuses to certify (by design — exact ties
    /// have no positive gap to separate). Irregular weights break the ties.
    fn weighted_chorded_ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0 + 0.03 * v as f64);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5 + 0.01 * v as f64);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn apply_matches_pinned_rebuild_sparsified() {
        let graph = weighted_chorded_ring(30);
        let options = IndexOptions {
            ordering: NodeOrdering::Degree,
            drop_tolerance: 1e-4,
            ..Default::default()
        };
        let index = KdashIndex::build(&graph, options).unwrap();
        assert!(index.needs_refinement(), "ε = 1e-4 must actually drop mass on this graph");
        let perm = index.permutation().clone();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let edits = vec![
            EdgeEdit::Insert { src: 4, dst: 20, weight: 2.0 },
            EdgeEdit::Delete { src: 6, dst: 7 },
            EdgeEdit::Reweight { src: 0, dst: 1, weight: 3.0 },
        ];
        let report = dynamic.apply(&UpdateBatch::new(edits.clone()).unwrap()).unwrap();
        assert_eq!(report.edits, 3);

        let edited = graph.apply_edits(&edits).unwrap();
        let rebuilt =
            IndexBuilder::from_options(options).permutation(perm).build(&edited).unwrap();
        let (ap, ai, av) = dynamic.index().linv_cols().raw();
        let (bp, bi, bv) = rebuilt.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi), "sparsified L⁻¹ structure must match the rebuild");
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(dynamic.index().uinv_rows(), rebuilt.uinv_rows());
        let (ald, aud) = dynamic.index().dropped_masses();
        let (bld, bud) = rebuilt.dropped_masses();
        assert!(ald.iter().zip(bld).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(aud.iter().zip(bud).all(|(a, b)| a.to_bits() == b.to_bits()));
        for q in 0..30u32 {
            let a = dynamic.index().top_k(q, 8).unwrap();
            let b = rebuilt.top_k(q, 8).unwrap();
            assert_eq!(a.items, b.items, "q {q}");
        }
        // The audit re-run against the patched store must stay green.
        let mut dynamic = dynamic.verify_after_apply(true);
        dynamic
            .apply(&UpdateBatch::new(vec![EdgeEdit::Insert { src: 1, dst: 9, weight: 0.7 }]).unwrap())
            .unwrap();
    }

    /// Auto-checkpoint: once the journal holds more than the threshold,
    /// the next committed apply snapshots and truncates it — and the
    /// snapshot + healed journal recover to the same epoch.
    #[test]
    fn auto_checkpoint_bounds_the_journal() {
        let dir = std::env::temp_dir()
            .join(format!("kdash-auto-ckpt-{}-{}", std::process::id(), std::line!()));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("index.kdash");
        let journal_path = crate::Journal::sidecar_path(&snapshot);
        let graph = chorded_ring(16);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        kdash_core::save_atomic(&index, &snapshot).unwrap();
        let journal = crate::Journal::create(&journal_path, 0).unwrap();
        let mut dynamic = DynamicIndex::new(index)
            .unwrap()
            .journaled(journal)
            .unwrap()
            .auto_checkpoint(&snapshot, 2);

        let mut checkpoints = 0;
        for i in 0..6u32 {
            let batch = UpdateBatch::new(vec![EdgeEdit::Insert {
                src: i,
                dst: (i + 5) % 16,
                weight: 1.0,
            }])
            .unwrap();
            let report = dynamic.apply(&batch).unwrap();
            let records = dynamic.journal().unwrap().records();
            assert!(records <= 3, "journal must stay bounded, holds {records} after apply {i}");
            if report.checkpointed {
                checkpoints += 1;
                assert!(report.checkpoint_time > Duration::ZERO);
                assert_eq!(records, 0, "a checkpoint truncates the journal");
            }
        }
        assert_eq!(checkpoints, 2, "6 applies at threshold 2 checkpoint twice");
        assert_eq!(dynamic.index().update_epoch(), 6);

        // The auto-written snapshot + journal recover to the live epoch.
        let loaded = KdashIndex::load(std::fs::File::open(&snapshot).unwrap()).unwrap();
        let (recovered, _report) = DynamicIndex::recover(loaded, &journal_path).unwrap();
        assert_eq!(recovered.index().update_epoch(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validation_reports_original_ids_and_leaves_index_untouched() {
        let graph = chorded_ring(12);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let before = index.top_k(0, 5).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let cases: Vec<(UpdateBatch, fn(&KdashError) -> bool)> = vec![
            (
                UpdateBatch::new(vec![EdgeEdit::Insert { src: 99, dst: 0, weight: 1.0 }]).unwrap(),
                |e| matches!(e, KdashError::NodeOutOfBounds { node: 99, .. }),
            ),
            (
                UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 5 }]).unwrap(),
                |e| {
                    matches!(
                        e,
                        KdashError::Graph(kdash_graph::GraphError::EdgeNotFound {
                            src: 0,
                            dst: 5
                        })
                    )
                },
            ),
            (
                UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 1, weight: 1.0 }]).unwrap(),
                |e| {
                    matches!(
                        e,
                        KdashError::Graph(kdash_graph::GraphError::DuplicateEdge {
                            src: 0,
                            dst: 1
                        })
                    )
                },
            ),
        ];
        for (batch, check) in cases {
            let err = dynamic.apply(&batch).unwrap_err();
            assert!(check(&err), "unexpected error {err:?}");
        }
        assert_eq!(dynamic.index().update_epoch(), 0, "failed batches must not bump the epoch");
        assert_eq!(dynamic.index().top_k(0, 5).unwrap().items, before.items);
    }

    #[test]
    fn sequential_semantics_within_a_batch() {
        let graph = chorded_ring(10);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        // Insert then delete: validates and nets out to the weight change
        // of nothing — the graph is unchanged, so no inverse column may
        // move.
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 2, dst: 7, weight: 1.0 },
            EdgeEdit::Delete { src: 2, dst: 7 },
        ])
        .unwrap();
        let report = dynamic.apply(&batch).unwrap();
        assert_eq!(report.dirty_l_columns, 0, "net no-op edits must not dirty the factors");
        assert_eq!(report.dirty_linv_columns, 0);
        assert_eq!(report.dirty_uinv_rows, 0);
        assert_eq!(dynamic.index().update_epoch(), 1, "the batch still counts");
    }

    #[test]
    fn engine_reuses_kept_factors() {
        let graph = chorded_ring(14);
        let index = KdashIndex::build(
            &graph,
            IndexOptions { keep_factors: true, ..Default::default() },
        )
        .unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let batch =
            UpdateBatch::new(vec![EdgeEdit::Reweight { src: 3, dst: 4, weight: 2.5 }]).unwrap();
        dynamic.apply(&batch).unwrap();
        // The kept factors were refreshed, not dropped: the ablation
        // path still answers, on the *edited* graph.
        assert!(dynamic.index().factors().is_some());
        let via_lu = dynamic.index().proximities_via_factors(3).unwrap().unwrap();
        let via_inv = dynamic.index().full_proximities(3).unwrap();
        for (a, b) in via_lu.iter().zip(&via_inv) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn coalesced_apply_matches_the_sequential_batches_bitwise() {
        let graph = chorded_ring(36);
        let options = IndexOptions { ordering: NodeOrdering::Degree, ..Default::default() };
        let index = KdashIndex::build(&graph, options).unwrap();
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 2, dst: 19, weight: 1.25 }]).unwrap(),
            UpdateBatch::new(vec![
                EdgeEdit::Delete { src: 2, dst: 19 },
                EdgeEdit::Reweight { src: 5, dst: 6, weight: 0.75 },
            ])
            .unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 30, dst: 1, weight: 2.0 }]).unwrap(),
        ];

        let mut sequential = DynamicIndex::new(index.clone()).unwrap();
        for batch in &batches {
            sequential.apply(batch).unwrap();
        }
        let mut coalesced = DynamicIndex::new(index).unwrap();
        let report = coalesced.apply_coalesced(&batches).unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.edits, 4);
        assert_eq!(
            coalesced.index().update_epoch(),
            sequential.index().update_epoch(),
            "coalescing k batches must advance the epoch by k"
        );
        assert_eq!(coalesced.index().update_epoch(), 3);

        let (sp, si, sv) = sequential.index().linv_cols().raw();
        let (cp, ci, cv) = coalesced.index().linv_cols().raw();
        assert_eq!((sp, si), (cp, ci), "L⁻¹ structure must match");
        assert!(sv.iter().zip(cv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(coalesced.index().uinv_rows(), sequential.index().uinv_rows());
        for q in 0..36u32 {
            assert_eq!(
                coalesced.index().top_k(q, 6).unwrap().items,
                sequential.index().top_k(q, 6).unwrap().items,
                "q {q}"
            );
        }
    }

    #[test]
    fn coalesced_apply_is_all_or_nothing_and_rejects_empty_queues() {
        let graph = chorded_ring(12);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        assert!(dynamic.apply_coalesced(&[]).is_err(), "empty queue must not bump the epoch");
        // First batch is fine, second is invalid: nothing may commit.
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Delete { src: 7, dst: 0 }]).unwrap(),
        ];
        assert!(dynamic.apply_coalesced(&batches).is_err());
        assert_eq!(dynamic.index().update_epoch(), 0);
        // Cross-batch sequencing validates: delete in batch 2 of an edge
        // inserted in batch 1.
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 5, weight: 1.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Delete { src: 0, dst: 5 }]).unwrap(),
        ];
        let report = dynamic.apply_coalesced(&batches).unwrap();
        assert_eq!(report.dirty_l_columns, 0, "net no-op must not dirty the factors");
        assert_eq!(dynamic.index().update_epoch(), 2);
    }

    #[test]
    fn predict_bounds_the_apply_and_does_not_mutate() {
        let graph = chorded_ring(30);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut dynamic = DynamicIndex::new(index).unwrap();
        let batches = vec![
            UpdateBatch::new(vec![EdgeEdit::Reweight { src: 4, dst: 5, weight: 2.0 }]).unwrap(),
            UpdateBatch::new(vec![EdgeEdit::Reweight { src: 9, dst: 10, weight: 0.5 }]).unwrap(),
        ];
        let before = dynamic.index().top_k(0, 5).unwrap();
        let prediction = dynamic.predict(&batches).unwrap();
        assert_eq!(dynamic.index().update_epoch(), 0, "predict must not mutate");
        assert_eq!(dynamic.index().top_k(0, 5).unwrap().items, before.items);
        assert_eq!(prediction.batches, 2);
        assert_eq!(prediction.dirty_w_columns, 2);
        assert!(dynamic.predict(&[]).is_err());

        let report = dynamic.apply_coalesced(&batches).unwrap();
        assert!(
            report.dirty_factor_columns_recomputed <= prediction.candidate_factor_columns,
            "the candidate set is a superset of what the apply recomputes"
        );
        // Reweights keep the factor patterns, so the inverse prediction
        // is a true upper bound (candidates that end up bit-unchanged
        // only over-predict).
        assert!(report.dirty_linv_columns <= prediction.predicted_linv_columns);
        assert!(report.dirty_uinv_columns <= prediction.predicted_uinv_columns);
        assert!(prediction.predicted_linv_columns > 0);
        assert!(prediction.factor_fraction() <= 1.0);
        assert!(prediction.candidate_factor_columns >= report.dirty_l_columns);
    }

    #[test]
    fn threads_do_not_change_bits() {
        let graph = chorded_ring(40);
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let batch = UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 1, dst: 30, weight: 1.5 },
            EdgeEdit::Delete { src: 9, dst: 10 },
        ])
        .unwrap();
        let mut seq = DynamicIndex::new(index.clone()).unwrap();
        seq.apply(&batch).unwrap();
        for threads in [2usize, 0] {
            let mut par = DynamicIndex::new(index.clone()).unwrap().threads(threads);
            par.apply(&batch).unwrap();
            assert_eq!(
                par.index().uinv_rows(),
                seq.index().uinv_rows(),
                "threads {threads}: U⁻¹ must be bit-identical"
            );
            let (sp, si, sv) = seq.index().linv_cols().raw();
            let (pp, pi, pv) = par.index().linv_cols().raw();
            assert_eq!((sp, si), (pp, pi));
            assert!(sv.iter().zip(pv).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
