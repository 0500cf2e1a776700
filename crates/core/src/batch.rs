//! Parallel batch queries with per-query failure isolation.
//!
//! A built [`KdashIndex`] is immutable, hence `Sync`: independent queries
//! can run on separate threads with zero coordination. Queries are handed
//! out through a **work-stealing cursor** (a shared `AtomicUsize` each
//! worker `fetch_add`s): K-dash query latency is wildly skewed — a hub
//! query can visit thousands of candidates while a leaf query terminates
//! after a handful — so static chunking serialises the batch on whichever
//! chunk drew the expensive queries. With a shared cursor, a worker that
//! finishes early simply claims the next pending query.
//!
//! Each worker owns one [`Searcher`], so the per-query `O(n)` BFS and
//! scatter buffers are allocated `threads` times per *batch*, not once per
//! *query*.
//!
//! Two failure models are offered:
//!
//! * [`batch_top_k`] — fail-fast: the first error (by lowest query
//!   index, deterministically) aborts the batch.
//! * [`batch_top_k_outcomes`] — isolated: every query reports its own
//!   [`BatchOutcome`]; one poisoned query (even one that *panics* inside
//!   the search) costs exactly that query, the other N−1 results are
//!   bit-identical to running them alone. Each query additionally runs
//!   wrapped in `catch_unwind`, and a worker whose query panicked
//!   discards its [`Searcher`] (the panic may have left its scratch
//!   buffers mid-update) and rebuilds a fresh one for the next claim.

use crate::{KdashError, KdashIndex, QueryBudget, Result, Searcher, TopKResult};
use kdash_graph::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Batch execution options: worker count and per-query budget. The
/// default is "auto threads, unlimited budget" — the fail-fast
/// [`batch_top_k`] semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Worker threads; `0` means one per available hardware thread. Any
    /// requested count is capped at the batch size, and a single worker
    /// runs inline on the calling thread.
    pub threads: usize,
    /// Per-query work budget, applied to every query in the batch. A
    /// query that exceeds it fails with [`KdashError::BudgetExceeded`] —
    /// under [`batch_top_k_outcomes`] that is one failed outcome, not a
    /// lost batch.
    pub budget: QueryBudget,
}

/// How one query of an isolated batch ended.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The query completed; the result is bit-identical to running it
    /// alone with the same budget.
    Ok(TopKResult),
    /// The query failed — invalid input, exceeded budget, or a panic
    /// inside the search ([`KdashError::QueryPanicked`]). Other queries
    /// in the batch are unaffected.
    Failed(KdashError),
}

impl BatchOutcome {
    /// True when the query completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, BatchOutcome::Ok(_))
    }

    /// The result, if the query completed.
    pub fn ok(self) -> Option<TopKResult> {
        match self {
            BatchOutcome::Ok(r) => Some(r),
            BatchOutcome::Failed(_) => None,
        }
    }

    /// The error, if the query failed.
    pub fn err(&self) -> Option<&KdashError> {
        match self {
            BatchOutcome::Ok(_) => None,
            BatchOutcome::Failed(e) => Some(e),
        }
    }
}

/// Runs `top_k` for every query, fanning out over at most `threads`
/// worker threads. Results are returned in query order; the first error
/// (e.g. an out-of-bounds query, by lowest query index) aborts the batch.
/// A panic inside any query surfaces as [`KdashError::QueryPanicked`]
/// instead of tearing down the caller.
///
/// `threads == 0` means "auto": one worker per available hardware thread
/// (`std::thread::available_parallelism`). Any requested count is capped
/// at the batch size, and a single worker runs inline on the calling
/// thread with one reused [`Searcher`].
pub fn batch_top_k(
    index: &KdashIndex,
    queries: &[NodeId],
    k: usize,
    threads: usize,
) -> Result<Vec<TopKResult>> {
    let options = BatchOptions { threads, budget: QueryBudget::default() };
    let slots = run_batch(index, queries, k, &options, true, &|_, _| {});
    // Stitch back into query order. Indices are claimed in increasing
    // cursor order, so if any query failed, every lower index was claimed
    // too — scanning in order yields the lowest-index error
    // deterministically, and reaches it before any index left unclaimed
    // by the poisoned cursor or by workers stopping on errors.
    let mut out = Vec::with_capacity(queries.len());
    for slot in slots {
        match slot {
            Some(BatchOutcome::Ok(result)) => out.push(result),
            Some(BatchOutcome::Failed(e)) => return Err(e),
            None => {
                // Unreachable under fail-fast stitching (an unclaimed
                // index implies an error at a lower index), but a typed
                // error is the robust answer if the invariant ever broke.
                return Err(KdashError::QueryPanicked {
                    message: "worker terminated before reporting a result".into(),
                });
            }
        }
    }
    Ok(out)
}

/// Runs `top_k` for every query with **per-query failure isolation**: the
/// returned vector has one [`BatchOutcome`] per query, in query order. A
/// query that fails — invalid input, exceeded [`BatchOptions::budget`],
/// or a panic inside the search — yields [`BatchOutcome::Failed`] while
/// every other query still completes, bit-identical to running it alone.
pub fn batch_top_k_outcomes(
    index: &KdashIndex,
    queries: &[NodeId],
    k: usize,
    options: &BatchOptions,
) -> Vec<BatchOutcome> {
    batch_top_k_outcomes_with_hook(index, queries, k, options, &|_, _| {})
}

/// [`batch_top_k_outcomes`] with a pre-query hook `(query index, query
/// node)` invoked on the worker thread *inside* the panic isolation
/// boundary. Hidden: exists so the failure-injection tests can make a
/// chosen query panic without needing a corrupt index.
#[doc(hidden)]
pub fn batch_top_k_outcomes_with_hook(
    index: &KdashIndex,
    queries: &[NodeId],
    k: usize,
    options: &BatchOptions,
    hook: &(dyn Fn(usize, NodeId) + Sync),
) -> Vec<BatchOutcome> {
    run_batch(index, queries, k, options, false, hook)
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| BatchOutcome::Failed(KdashError::QueryPanicked {
                message: "worker terminated before reporting a result".into(),
            }))
        })
        .collect()
}

/// Runs one claimed query inside the panic isolation boundary. On a
/// panic the worker's searcher is discarded (`None`) — the unwound stack
/// may have left its scratch buffers mid-update — and rebuilt on the
/// next claim, so one poisoned query cannot contaminate the next.
fn run_one<'a>(
    index: &'a KdashIndex,
    searcher: &mut Option<Searcher<'a>>,
    options: &BatchOptions,
    q: NodeId,
    i: usize,
    k: usize,
    hook: &(dyn Fn(usize, NodeId) + Sync),
) -> BatchOutcome {
    let s = searcher.get_or_insert_with(|| {
        let mut s = Searcher::new(index);
        s.set_budget(options.budget);
        s
    });
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        hook(i, q);
        s.top_k(q, k)
    }));
    match attempt {
        Ok(Ok(result)) => BatchOutcome::Ok(result),
        Ok(Err(e)) => BatchOutcome::Failed(e),
        Err(payload) => {
            *searcher = None;
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            BatchOutcome::Failed(KdashError::QueryPanicked { message })
        }
    }
}

/// A reusable single-query executor with the exact failure semantics of
/// one [`batch_top_k_outcomes`] worker: per-query `catch_unwind`
/// isolation, [`BatchOptions::budget`] enforcement, and a persistent
/// [`Searcher`] that survives across calls (so the `O(n)` scratch
/// buffers are paid once per executor, not once per query) but is
/// discarded and rebuilt after a panic.
///
/// This is the building block the serving tier (`kdash-serve`) drains
/// its request queue through: each worker thread pins an index epoch,
/// wraps it in one `IsolatedExecutor`, and folds queued queries through
/// [`run`](Self::run) — identical outcome semantics to submitting the
/// same queries as one `batch_top_k_outcomes` batch, but without
/// requiring the whole batch up front.
pub struct IsolatedExecutor<'a> {
    index: &'a KdashIndex,
    options: BatchOptions,
    searcher: Option<Searcher<'a>>,
}

impl<'a> IsolatedExecutor<'a> {
    /// Creates an executor over `index`. (`options.threads` is ignored:
    /// an executor *is* one worker.)
    pub fn new(index: &'a KdashIndex, options: BatchOptions) -> Self {
        IsolatedExecutor { index, options, searcher: None }
    }

    /// The index this executor queries.
    pub fn index(&self) -> &'a KdashIndex {
        self.index
    }

    /// Runs one query. Never panics: invalid input, an exceeded budget,
    /// or a panic inside the search all come back as
    /// [`BatchOutcome::Failed`], and the result of a completed query is
    /// bit-identical to running it alone with the same budget.
    pub fn run(&mut self, query: NodeId, k: usize) -> BatchOutcome {
        run_one(self.index, &mut self.searcher, &self.options, query, 0, k, &|_, _| {})
    }
}

/// The shared execution engine: claims queries off the stealing cursor,
/// runs each through [`run_one`], and returns per-index outcome slots.
/// With `abort_on_error` the cursor is poisoned on the first failure so
/// the other workers stop claiming (the batch is doomed; computing the
/// tail would be wasted work) — unclaimed tail slots stay `None`.
fn run_batch(
    index: &KdashIndex,
    queries: &[NodeId],
    k: usize,
    options: &BatchOptions,
    abort_on_error: bool,
    hook: &(dyn Fn(usize, NodeId) + Sync),
) -> Vec<Option<BatchOutcome>> {
    let threads = resolve_threads(options.threads, queries.len());
    if threads <= 1 {
        let mut searcher: Option<Searcher<'_>> = None;
        let mut slots: Vec<Option<BatchOutcome>> = (0..queries.len()).map(|_| None).collect();
        for (i, &q) in queries.iter().enumerate() {
            let outcome = run_one(index, &mut searcher, options, q, i, k, hook);
            let failed = !outcome.is_ok();
            slots[i] = Some(outcome);
            if failed && abort_on_error {
                break;
            }
        }
        return slots;
    }

    // The work-stealing queue is just a claim cursor: fetch_add hands every
    // index to exactly one worker, in order.
    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, BatchOutcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut searcher: Option<Searcher<'_>> = None;
                    let mut produced = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let outcome =
                            run_one(index, &mut searcher, options, queries[i], i, k, hook);
                        let failed = !outcome.is_ok();
                        produced.push((i, outcome));
                        if failed && abort_on_error {
                            // Poison the cursor so the other workers stop
                            // claiming. Indices below the error were
                            // already handed out (the cursor is
                            // sequential), so the lowest-index error is
                            // still recorded deterministically.
                            cursor.fetch_max(queries.len(), Ordering::Relaxed);
                            break;
                        }
                    }
                    produced
                })
            })
            .collect();
        // Workers never unwind — run_one catches query panics — so a
        // failed join can only mean a panic in the claim loop itself;
        // treat its claims as lost rather than tearing down the caller.
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });

    let mut slots: Vec<Option<BatchOutcome>> = (0..queries.len()).map(|_| None).collect();
    for (i, outcome) in worker_outputs.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "query {i} claimed twice");
        slots[i] = Some(outcome);
    }
    slots
}

/// Resolves the requested worker count: `0` = auto-detect, always at least
/// 1, never more than the batch size.
fn resolve_threads(threads: usize, batch_len: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    threads.max(1).min(batch_len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn graph(n: usize, seed: u64) -> kdash_graph::CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            for _ in 0..3 {
                let t = rng.gen_range(0..n);
                if t != v {
                    b.add_edge(v as NodeId, t as NodeId, 1.0);
                }
            }
        }
        b.build().unwrap()
    }

    fn assert_same_results(a: &[TopKResult], b: &[TopKResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.nodes(), y.nodes());
            for (i, j) in x.items.iter().zip(&y.items) {
                assert_eq!(i.proximity.to_bits(), j.proximity.to_bits());
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = graph(120, 4);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries: Vec<NodeId> = (0..40).map(|i| i * 3).collect();
        let sequential = batch_top_k(&index, &queries, 5, 1).unwrap();
        let parallel = batch_top_k(&index, &queries, 5, 4).unwrap();
        assert_same_results(&sequential, &parallel);
    }

    #[test]
    fn zero_threads_means_auto() {
        let g = graph(80, 11);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries: Vec<NodeId> = (0..30).collect();
        let auto = batch_top_k(&index, &queries, 4, 0).unwrap();
        let sequential = batch_top_k(&index, &queries, 4, 1).unwrap();
        assert_same_results(&auto, &sequential);
    }

    #[test]
    fn skewed_batches_stay_correct_under_stealing() {
        // Hub-heavy community graph: query latencies vary wildly, which is
        // exactly the shape work stealing exists for. Repeating the hub
        // query many times also makes claim interleavings collide.
        let mut b = GraphBuilder::new(200);
        for i in 1..200u32 {
            b.add_edge(0, i, 1.0); // node 0 reaches everything
            b.add_edge(i, (i % 10) + 1, 1.0);
        }
        let g = b.build().unwrap();
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries: Vec<NodeId> = (0..60).map(|i| if i % 2 == 0 { 0 } else { i }).collect();
        let sequential = batch_top_k(&index, &queries, 8, 1).unwrap();
        for threads in [2, 3, 7, 16] {
            let parallel = batch_top_k(&index, &queries, 8, threads).unwrap();
            assert_same_results(&sequential, &parallel);
        }
    }

    #[test]
    fn batch_errors_propagate() {
        let g = graph(10, 5);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries = vec![0, 5, 99]; // 99 out of bounds
        assert!(batch_top_k(&index, &queries, 3, 2).is_err());
        assert!(batch_top_k(&index, &queries, 3, 0).is_err());
    }

    #[test]
    fn error_is_deterministically_the_lowest_index() {
        let g = graph(10, 7);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries = vec![0, 77, 3, 99, 1]; // two bad queries
        for threads in [1, 2, 4] {
            match batch_top_k(&index, &queries, 3, threads) {
                Err(crate::KdashError::NodeOutOfBounds { node, .. }) => {
                    assert_eq!(node, 77, "threads {threads}: lowest-index error wins");
                }
                other => panic!("expected NodeOutOfBounds, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_workers_erroring_still_returns_cleanly() {
        // With two workers and the two leading queries invalid, both
        // workers stop before the tail is claimed; the stitch must still
        // surface the lowest-index error instead of panicking.
        let g = graph(10, 8);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries = vec![50, 60, 1, 2, 3, 4];
        match batch_top_k(&index, &queries, 3, 2) {
            Err(crate::KdashError::NodeOutOfBounds { node, .. }) => assert_eq!(node, 50),
            other => panic!("expected NodeOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_and_excess_threads() {
        let g = graph(10, 6);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(batch_top_k(&index, &[], 3, 8).unwrap().is_empty());
        assert!(batch_top_k(&index, &[], 3, 0).unwrap().is_empty());
        let one = batch_top_k(&index, &[2], 3, 64).unwrap();
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn resolve_threads_rules() {
        // 0 = auto: at least one worker, capped by the batch.
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(0, 1), 1);
        assert_eq!(resolve_threads(5, 2), 2);
        assert_eq!(resolve_threads(5, 100), 5);
        assert_eq!(resolve_threads(1, 0), 1);
    }

    #[test]
    fn outcomes_isolate_bad_queries() {
        let g = graph(30, 9);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries = vec![0, 99, 5, 200, 11]; // two out of bounds
        for threads in [1, 3] {
            let options = BatchOptions { threads, ..Default::default() };
            let outcomes = batch_top_k_outcomes(&index, &queries, 4, &options);
            assert_eq!(outcomes.len(), queries.len());
            assert!(outcomes[0].is_ok() && outcomes[2].is_ok() && outcomes[4].is_ok());
            assert!(matches!(
                outcomes[1].err(),
                Some(KdashError::NodeOutOfBounds { node: 99, .. })
            ));
            assert!(matches!(
                outcomes[3].err(),
                Some(KdashError::NodeOutOfBounds { node: 200, .. })
            ));
            // The good outcomes are bit-identical to solo runs.
            let solo = batch_top_k(&index, &[0, 5, 11], 4, 1).unwrap();
            let good: Vec<TopKResult> = outcomes
                .into_iter()
                .filter_map(|o| o.ok())
                .collect();
            assert_same_results(&good, &solo);
        }
    }

    #[test]
    fn outcomes_apply_the_budget_per_query() {
        let g = graph(60, 12);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let options = BatchOptions {
            threads: 1,
            budget: QueryBudget { max_frontier_nodes: Some(1), ..Default::default() },
            ..Default::default()
        };
        let outcomes = batch_top_k_outcomes(&index, &[0, 1], 5, &options);
        for o in &outcomes {
            assert!(matches!(o.err(), Some(KdashError::BudgetExceeded { .. })), "{o:?}");
        }
    }

    #[test]
    fn panicking_query_costs_only_itself() {
        let g = graph(40, 13);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let queries: Vec<NodeId> = (0..10).collect();
        for threads in [1, 4] {
            let options = BatchOptions { threads, ..Default::default() };
            let outcomes = batch_top_k_outcomes_with_hook(
                &index,
                &queries,
                3,
                &options,
                &|i, _q| {
                    if i == 4 {
                        panic!("injected failure for query 4");
                    }
                },
            );
            for (i, o) in outcomes.iter().enumerate() {
                if i == 4 {
                    match o.err() {
                        Some(KdashError::QueryPanicked { message }) => {
                            assert!(message.contains("injected failure"), "{message}");
                        }
                        other => panic!("expected QueryPanicked, got {other:?}"),
                    }
                } else {
                    assert!(o.is_ok(), "query {i} must survive the poisoned neighbour");
                }
            }
        }
    }

    #[test]
    fn fail_fast_batch_reports_panic_as_typed_error() {
        // The fail-fast API must also survive a panicking query: the
        // whole batch errors, but with a typed error, not an unwind.
        let g = graph(20, 14);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let options = BatchOptions { threads: 2, ..Default::default() };
        let slots = run_batch(&index, &[0, 1, 2, 3], 3, &options, true, &|i, _| {
            if i == 1 {
                panic!("boom");
            }
        });
        let failed: Vec<_> =
            slots.iter().flatten().filter(|o| !o.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert!(matches!(
            failed[0].err(),
            Some(KdashError::QueryPanicked { .. })
        ));
    }
}
