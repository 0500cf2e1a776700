//! # kdash-core
//!
//! K-dash: exact top-k proximity search for Random Walk with Restart,
//! reproducing *Fujiwara, Nakatsuji, Onizuka, Kitsuregawa — "Fast and Exact
//! Top-k Search for Random Walk with Restart", PVLDB 5(5), 2012*.
//!
//! ## The algorithm in one paragraph
//!
//! RWR proximities from a query node `q` solve
//! `p = (1−c) A p + c e_q  ⇔  p = c W⁻¹ e_q` with `W = I − (1−c)A`
//! (Equations (1)–(2)). K-dash precomputes a node reordering that keeps the
//! triangular inverses of `W = LU` sparse, stores `L⁻¹` (column-major) and
//! `U⁻¹` (row-major), and answers a query by walking a breadth-first tree
//! rooted at `q`: each visited node first gets a cheap upper bound
//! (Definition 1, updated in `O(1)` per Definition 2); the moment the
//! bound of the next node falls below the current K-th best proximity the
//! search *terminates*, provably without missing an answer (Lemmas 1–2,
//! Theorem 2). A node that survives the bound gets its exact proximity as
//! a sparse row-times-column product `c · (U⁻¹)ᵤ · (L⁻¹ e_q)`.
//!
//! ## Quick start
//!
//! ```
//! use kdash_core::{KdashIndex, IndexOptions, NodeOrdering};
//! use kdash_graph::GraphBuilder;
//!
//! // A little directed ring with a chord.
//! let mut b = GraphBuilder::new(5);
//! for v in 0..5u32 { b.add_edge(v, (v + 1) % 5, 1.0); }
//! b.add_edge(0, 2, 2.0);
//! let graph = b.build().unwrap();
//!
//! let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
//! let result = index.top_k(0, 3).unwrap();
//! assert_eq!(result.items.len(), 3);
//! assert_eq!(result.items[0].node, 0); // the query node ranks first
//! ```
//!
//! The default [`IndexOptions`] use the paper's settings: hybrid reordering
//! and restart probability `c = 0.95`.
//!
//! ## One query engine
//!
//! Every query is a [`Query`]: a [`Restart`] — one node, or a restart set
//! the walk returns to uniformly (the paper's footnote 6) — and a
//! [`Stop`] — the top k, every node at or above a threshold θ, or the top
//! k without Lemma-2 pruning (the Figure 7 ablation). [`Searcher::run`]
//! answers all six combinations with one Lemma-2 loop;
//! [`KdashIndex::run`] runs one on a transient workspace, and
//! [`KdashIndex::top_k`] is the paper's single-node top-k (the
//! [`Searcher`] docs show a `Query` in use).
//!
//! ## Building at scale: the staged [`IndexBuilder`] pipeline
//!
//! [`KdashIndex::build`] is a convenience wrapper over a five-stage
//! pipeline — `ordering → factorization → inversion → estimator →
//! assemble` — that [`IndexBuilder`] exposes directly. Each stage is
//! individually timed ([`IndexBuilder::build_with_report`]), and the
//! inversion stage, which dominates precomputation cost (the paper's
//! Figure 6), runs its independent column solves on a work-stealing
//! worker pool: `threads(0)` uses every core, and the stored inverses are
//! **bit-identical** at any thread count.
//!
//! ```
//! use kdash_core::{IndexBuilder, NodeOrdering};
//! use kdash_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(48);
//! for v in 0..48u32 { b.add_edge(v, (v + 1) % 48, 1.0); }
//! let graph = b.build().unwrap();
//!
//! let (index, report) = IndexBuilder::new()
//!     .ordering(NodeOrdering::Hybrid)  // Louvain-backed cluster+degree order
//!     .threads(0)                      // parallel triangular inversion
//!     .build_with_report(&graph)
//!     .unwrap();
//! for timing in &report.stages {
//!     println!("{:<14} {:?}", timing.stage.name(), timing.duration);
//! }
//! assert_eq!(index.top_k(0, 3).unwrap().items.len(), 3);
//! ```
//!
//! ## Serving loops: reuse a [`Searcher`]
//!
//! [`KdashIndex::top_k`] builds a transient query workspace per call. A
//! serving loop should hold a [`Searcher`] instead: the `O(n)` BFS and
//! scatter buffers are allocated once and every query after the first
//! allocates nothing (with [`Searcher::top_k_into`], or any single-node
//! [`Searcher::run`]) — the per-candidate
//! work drops to a dense gather over the stored `U⁻¹` row.
//!
//! ```
//! use kdash_core::{KdashIndex, IndexOptions, TopKResult};
//! use kdash_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new(64);
//! for v in 0..64u32 { b.add_edge(v, (v + 1) % 64, 1.0); b.add_edge(v, (v + 7) % 64, 0.5); }
//! let index = KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap();
//!
//! let mut searcher = index.searcher();       // one per serving thread
//! let mut result = TopKResult::default();    // reused result buffer
//! for q in 0..64u32 {
//!     searcher.top_k_into(q, 10, &mut result).unwrap(); // allocation-free after warm-up
//!     assert_eq!(result.items[0].node, q);
//! }
//! ```
//!
//! Batches fan out with [`batch_top_k`]: a work-stealing queue hands each
//! query to the next idle worker, one `Searcher` per worker thread
//! (`threads = 0` means "use all available cores").
//!
//! ## Serving changing graphs
//!
//! The index does not have to be rebuilt when the graph changes: the
//! `kdash-dynamic` crate wraps a [`KdashIndex`] in a `DynamicIndex` that
//! applies validated edge-edit batches **incrementally** — a
//! Gilbert–Peierls reach analysis bounds exactly which `L⁻¹`/`U⁻¹`
//! columns an edit can touch, only those re-run their triangular
//! solves, and the patched index is bit-for-bit what a from-scratch
//! rebuild under the same node order would produce.
//! [`KdashIndex::update_epoch`] counts applied batches (persisted from
//! index-format v3).
//!
//! Three hot-path levers live on the index and its `Searcher`:
//!
//! * **Lazy frontier** — BFS layers are discovered on demand inside the
//!   search loop, so a query the Lemma 2 bound terminates early never
//!   enumerates the layers it pruned away.
//!   [`SearchStats::frontier_expanded`] reports the traversal work paid;
//!   [`SearchStats::reachable`] is the discovered-so-far count on
//!   early-terminated queries (exact reachability on complete runs).
//! * **Blocked `U⁻¹` encoding, one gather** — the stored `U⁻¹` encodes
//!   column indices as `u16` deltas against aligned block anchors
//!   ([`kdash_sparse::BlockedCsr`]): ~half the index bytes of flat CSR on
//!   the fill-dominated inverse rows. Every proximity is one scalar,
//!   stamp-checked gather of a blocked row against the scattered query
//!   column, bit-identical to the merge join; the per-query byte traffic
//!   and gathered-row count are recorded in [`SearchStats`].
//! * **Prefetched candidate batching** — the search loop prefetches the
//!   next block of candidate rows' index/value spans while the current
//!   row gathers, restoring memory-level parallelism on DRAM-resident
//!   indexes.
//!
//! ## The exactness contract under sparsified indexes
//!
//! [`IndexOptions::drop_tolerance`](precompute::IndexOptions) > 0 builds a
//! **sparsified index tier**: entries of `L⁻¹`/`U⁻¹` below `ε` are
//! truncated during inversion (shrinking both build time and stored
//! bytes), and the per-column dropped ℓ₁ masses are stored alongside.
//! Answers remain *exact* — the brand does not change — because queries on
//! a sparsified index run a **certified residual refinement loop** instead
//! of trusting the stored values:
//!
//! 1. Gather the approximate solution `x̃ ≈ W⁻¹ b` from the sparsified
//!    store (`b` is the unit restart vector `e_q`, or the merged
//!    restart-set vector).
//! 2. Compute the residual `r = b − W x̃` directly against the stored
//!    permuted graph (`W = I − (1−c)A` is never materialised; the residual
//!    streams the graph's edges).
//! 3. Because `A` is column-substochastic, `W⁻¹ = Σ ((1−c)A)^i` is
//!    entrywise non-negative with column sums ≤ `1/c`, so **every** entry
//!    of the error obeys `|p_u − c·x̃_u| ≤ ‖r‖₁`. This is the same
//!    upper/lower-bound style as the paper's Lemma 2, applied to the
//!    refinement residual instead of the BFS frontier.
//! 4. If consecutive ranked proximities (and the k-th/(k+1)-th boundary)
//!    are separated by more than `2‖r‖₁`, the top-k *set and order* are
//!    proven identical to the exact answer — terminate. Otherwise apply
//!    one correction `x̃ += Ũ⁻¹(L̃⁻¹ r)` (the sparsified inverses act as a
//!    preconditioner, so `‖r‖₁` contracts geometrically) and re-certify.
//!
//! The loop fails *loudly* ([`KdashError::RefinementFailed`]) if
//! proximities are genuinely tied or closer than the achievable
//! floating-point floor — it never returns a ranking it could not prove.
//! With `drop_tolerance = 0` (the default) nothing changes: the build
//! routes through the exact inverters bit-for-bit and queries run the
//! classic Lemma-2 path with zero refinement iterations.
//!
//! ## Operational guarantees
//!
//! Exactness is the brand, so the failure modes are engineered to be
//! *loud* rather than approximate:
//!
//! * **Crash-safe writes** — [`persist::save_atomic`] writes a temp file,
//!   fsyncs it, and renames it over the destination (then fsyncs the
//!   directory), so an interrupted save leaves the previous index intact.
//!   `kdash build` and `kdash update --out` both go through it. Transient
//!   failures (`EINTR`-class) are retried with bounded backoff; anything
//!   else surfaces as a typed [`persist::PersistError::Io`] naming the
//!   failing [stage](persist::IoStage) (tmp-write / fsync / rename /
//!   dir-fsync). An fsync that reports an *I/O error* is never retried
//!   (only `EINTR`-class interruptions are): once the kernel has
//!   reported write-back failure, dirty pages may already be gone, and
//!   retry-until-ok would convert data loss into a success report.
//! * **Corruption detection** — the v4 on-disk format checksums every
//!   section (graph, `L⁻¹`, `U⁻¹`, row stats, estimator, trailer) with
//!   CRC32 plus a whole-file footer; [`KdashIndex::load`] reports a typed
//!   [`persist::PersistError`] naming the failing section and byte
//!   offset. Older (v1–v3) files still load, flagged unchecksummed in
//!   [`persist::LoadInfo`].
//! * **Deep auditing** — [`audit::IndexAudit::run`] re-verifies every
//!   structural invariant of a loaded or patched index (triangularity,
//!   permutation bijectivity, blocked `U⁻¹` encoding, estimator constants
//!   recomputed bit-for-bit). Exposed as
//!   `kdash verify <index>` and as an opt-in post-update check on the
//!   dynamic engine (`DynamicIndex::verify_after_apply`).
//! * **Batch failure isolation** — [`batch_top_k_outcomes`] wraps every
//!   query in `catch_unwind`: one poisoned query yields one
//!   [`BatchOutcome::Failed`] while the other queries complete with
//!   bit-identical results. ([`batch_top_k`] keeps fail-fast semantics,
//!   returning the lowest-index error — now including panics as typed
//!   [`KdashError::QueryPanicked`] instead of propagating the unwind.)
//! * **Query budgets** — a [`QueryBudget`] on a [`Searcher`] (or
//!   [`batch::BatchOptions`]) bounds frontier visits, gathered `U⁻¹`
//!   entries, and wall clock per query; a query that would exceed a
//!   ceiling aborts with a typed [`KdashError::BudgetExceeded`] carrying
//!   its [`SearchStats`] — never a silently truncated "exact" answer.
//!
//! ### Durability contract (journaled updates)
//!
//! With a sidecar write-ahead journal attached (`kdash-dynamic`'s
//! journaled mode, `kdash update --journal`), the update path promises:
//!
//! * **After an acknowledged apply** — the batch's journal frame (length
//!   + CRC32 + epoch) was written *and fsynced* before the in-memory
//!   patch was installed, so a crash at any later instant loses nothing:
//!   recovery replays the frame onto the last snapshot and lands on an
//!   index bit-identical to the pre-crash one. If the journal write
//!   itself fails, the apply returns [`KdashError::JournalFailed`] and
//!   the index is *not* modified — acknowledgement and durability cannot
//!   disagree.
//! * **After a checkpoint** — `save_atomic` has durably replaced the
//!   snapshot (old-or-new atomicity, as above) and only then was the
//!   journal truncated — itself atomically, by renaming a fresh
//!   header-only journal into place. A crash between the two steps
//!   leaves snapshot *and* journal records; recovery skips frames at or
//!   below the snapshot's epoch, so replay is idempotent.
//! * **After a torn tail** — a crash mid-append leaves a prefix of a
//!   frame. Recovery (and reopening for append) scans frames, stops at
//!   the first bad length/CRC/epoch, truncates the tail, and replays
//!   only the intact prefix — typed errors throughout, never a panic,
//!   and never a frame acknowledged but not replayed (the torn frame was
//!   by construction never acknowledged). Epochs inside the journal must
//!   be contiguous and ascending; a gap above the snapshot epoch means
//!   acknowledged records were lost out-of-band and recovery refuses
//!   with a typed error rather than silently skipping history.
//!
//! The whole contract is enforced by a crash-point sweep in
//! `tests/failure_injection.rs`: a [`fault::CrashPlan`] kills the
//! pipeline at *every* injectable point (each byte of each write, each
//! fsync, rename and truncate) and recovery must produce an
//! [`IndexAudit`]-clean index, bit-identical to the live-apply state at
//! a well-defined epoch.

pub mod audit;
pub mod batch;
pub mod estimator;
pub mod fault;
pub mod ordering;
pub mod persist;
pub mod pipeline;
pub mod precompute;
pub mod search;
pub mod searcher;
pub mod stats;

pub use audit::{AuditFinding, AuditSection, IndexAudit};
pub use batch::{batch_top_k, batch_top_k_outcomes, BatchOptions, BatchOutcome, IsolatedExecutor};
pub use estimator::{ArbitraryOrderBound, LayerEstimator};
pub use ordering::{compute_ordering, compute_ordering_with_stats, NodeOrdering, OrderingStats};
pub use fault::{CrashPlan, FaultInjector, NoFaults, WriteRuling};
pub use persist::{save_atomic, save_atomic_with, IoStage, LoadInfo, PersistError};
pub use pipeline::{BuildReport, BuildStage, IndexBuilder, StageTiming};
pub use precompute::{IndexOptions, KdashIndex};
#[doc(hidden)]
pub use precompute::IndexPatch;
pub use search::{Query, RankedNode, Restart, Stop, TopKResult};
pub use searcher::{BudgetLimit, QueryBudget, Searcher};
pub use stats::{IndexStats, SearchStats};

/// Errors surfaced by index construction and queries.
#[derive(Debug, Clone, PartialEq)]
pub enum KdashError {
    /// A query or root node id was out of bounds.
    NodeOutOfBounds { node: kdash_graph::NodeId, num_nodes: usize },
    /// A threshold query received a non-positive or non-finite θ.
    InvalidThreshold { theta: f64 },
    /// A restart-set query received an empty set, a duplicate node, or an
    /// otherwise unusable source set.
    InvalidRestartSet { reason: String },
    /// Propagated graph error.
    Graph(kdash_graph::GraphError),
    /// Propagated sparse-kernel error.
    Sparse(kdash_sparse::SparseError),
    /// A query exceeded its [`QueryBudget`]: `limit` names the ceiling
    /// that fired and `stats` carries the work accumulated up to the
    /// abort. The query has no answer — budgets abort, never truncate.
    BudgetExceeded { limit: BudgetLimit, stats: Box<SearchStats> },
    /// A query panicked inside a batch worker and was isolated by
    /// `catch_unwind`; `message` is the panic payload when it was a
    /// string. The rest of the batch is unaffected.
    QueryPanicked { message: String },
    /// A deep structural audit ([`IndexAudit::run`]) found invariant
    /// violations; each entry is `"<section>: <detail>"`.
    AuditFailed { findings: Vec<String> },
    /// The certified refinement loop on a sparsified index could not
    /// separate the top-k set and order within its iteration budget:
    /// after `iterations` correction passes the residual bound was
    /// `residual` but certifying the ranking needed a gap above
    /// `2 × residual`, and the smallest decisive gap was `gap`. This
    /// happens only when proximities are tied (or separated by less than
    /// the achievable floating-point floor) — the query has no answer
    /// rather than a silently mis-ordered one. A dense-exact index
    /// (`drop_tolerance = 0`) never takes this path.
    RefinementFailed { iterations: usize, residual: f64, gap: f64 },
    /// A durability operation on the attached update journal failed
    /// before the patch was installed: the in-memory index is unchanged
    /// and the durable journal prefix still ends at the last
    /// acknowledged batch (a torn partial frame is healed in place or
    /// skipped by recovery). `detail` renders the underlying journal
    /// error; the rich typed form lives in `kdash-dynamic`'s
    /// `JournalError` (this enum is `Clone + PartialEq`, so it cannot
    /// carry the `io::Error` itself).
    JournalFailed { detail: String },
}

impl std::fmt::Display for KdashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KdashError::NodeOutOfBounds { node, num_nodes } => {
                write!(f, "node {node} out of bounds for index over {num_nodes} nodes")
            }
            KdashError::InvalidThreshold { theta } => {
                write!(f, "threshold {theta} must be positive and finite")
            }
            KdashError::InvalidRestartSet { reason } => {
                write!(f, "invalid restart set: {reason}")
            }
            KdashError::Graph(e) => write!(f, "graph error: {e}"),
            KdashError::Sparse(e) => write!(f, "sparse error: {e}"),
            KdashError::BudgetExceeded { limit, stats } => {
                write!(
                    f,
                    "query aborted: {limit} exceeded after visiting {} nodes \
                     ({} stored entries gathered)",
                    stats.visited, stats.nnz_gathered
                )
            }
            KdashError::QueryPanicked { message } => {
                write!(f, "query panicked: {message}")
            }
            KdashError::AuditFailed { findings } => {
                write!(f, "index audit failed with {} finding(s)", findings.len())?;
                if let Some(first) = findings.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            KdashError::RefinementFailed { iterations, residual, gap } => {
                write!(
                    f,
                    "refinement could not certify the top-k order after {iterations} \
                     iteration(s): residual bound {residual:.3e} needs a ranking gap \
                     > {:.3e} but the smallest decisive gap was {gap:.3e} \
                     (tied or near-tied proximities)",
                    2.0 * residual
                )
            }
            KdashError::JournalFailed { detail } => {
                write!(f, "update journal failure (index not modified): {detail}")
            }
        }
    }
}

impl std::error::Error for KdashError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KdashError::Graph(e) => Some(e),
            KdashError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<kdash_graph::GraphError> for KdashError {
    fn from(e: kdash_graph::GraphError) -> Self {
        KdashError::Graph(e)
    }
}

impl From<kdash_sparse::SparseError> for KdashError {
    fn from(e: kdash_sparse::SparseError) -> Self {
        KdashError::Sparse(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KdashError>;
