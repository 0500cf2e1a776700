//! The read path: a thread-per-core worker pool over pinned epochs.
//!
//! [`ServeLoop::start`] spawns one worker per core (configurable).
//! Each worker pins the current [`EpochStore`] snapshot, wraps it in a
//! persistent panic-isolated [`IsolatedExecutor`] (so the `O(n)`
//! searcher scratch is paid once per epoch per worker, not per query),
//! and drains the shared lock-free queue in batches of up to
//! [`ServeOptions::max_batch`] requests — the request-batching
//! equivalent of folding the queue into one
//! [`kdash_core::batch_top_k_outcomes`] call. A single atomic load per
//! drain detects a newly published epoch, at which point the worker
//! re-pins and rebuilds its executor.
//!
//! Admission control is the queue bound: [`ServeLoop::submit`] on a
//! full queue sheds with [`ServeError::Overloaded`] immediately. An
//! accepted request is always answered — per-query failures (bad
//! input, exceeded budget, a panic inside the search) come back as
//! [`ServeError::Query`] on that request alone, and shutdown fails
//! still-queued requests with [`ServeError::ShuttingDown`].

use crate::{lock_unpoisoned, EpochStore, MpmcQueue, ServeError, ServeMetrics};
use kdash_core::{BatchOptions, BatchOutcome, IsolatedExecutor, QueryBudget, TopKResult};
use kdash_graph::NodeId;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads; `0` means one per available hardware thread.
    pub workers: usize,
    /// Admission bound: requests queued beyond this are shed with
    /// [`ServeError::Overloaded`]. Rounded up to a power of two.
    pub queue_capacity: usize,
    /// Max requests a worker folds into one drained batch (all served
    /// from one pinned epoch, one freshness-lag sample).
    pub max_batch: usize,
    /// Per-query work budget; an exceeding query fails with
    /// [`kdash_core::KdashError::BudgetExceeded`] on that request alone.
    pub budget: QueryBudget,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_capacity: 1024,
            max_batch: 32,
            budget: QueryBudget::default(),
        }
    }
}

/// One queued request.
struct Request {
    query: NodeId,
    k: usize,
    submitted: Instant,
    slot: Arc<ResponseSlot>,
}

/// A served top-k answer, tagged with the epoch that produced it.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The update epoch of the snapshot this answer was computed
    /// against — the answer is bit-identical to a standalone
    /// [`kdash_core::Searcher::top_k`] on that epoch's index.
    pub epoch: u64,
    /// Acked write epochs the serving snapshot was behind when the
    /// query ran (0 = the answer reflects every acknowledged write).
    pub freshness_lag: u64,
    /// The top-k result itself.
    pub result: TopKResult,
}

/// The one-shot rendezvous between a worker and a waiting client.
struct ResponseSlot {
    done: Mutex<Option<Result<ServeResponse, ServeError>>>,
    cv: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot { done: Mutex::new(None), cv: Condvar::new() }
    }

    fn fulfill(&self, response: Result<ServeResponse, ServeError>) {
        let mut guard = lock_unpoisoned(&self.done);
        if guard.is_none() {
            *guard = Some(response);
        }
        drop(guard);
        self.cv.notify_all();
    }
}

/// A submitted, not-yet-answered request (see [`ServeLoop::submit`]).
pub struct PendingQuery {
    slot: Arc<ResponseSlot>,
}

impl PendingQuery {
    /// Blocks until the request is answered. Every accepted request is
    /// answered — by a worker, or with [`ServeError::ShuttingDown`] at
    /// loop shutdown — so this cannot hang on a live loop.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        let mut guard = lock_unpoisoned(&self.slot.done);
        loop {
            if let Some(response) = guard.take() {
                return response;
            }
            guard = match self.slot.cv.wait(guard) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Non-blocking check; returns `self` back while unanswered.
    pub fn try_wait(self) -> Result<Result<ServeResponse, ServeError>, PendingQuery> {
        let mut guard = lock_unpoisoned(&self.slot.done);
        match guard.take() {
            Some(response) => Ok(response),
            None => {
                drop(guard);
                Err(self)
            }
        }
    }
}

/// State shared between the handle and the workers.
struct Shared {
    store: Arc<EpochStore>,
    queue: MpmcQueue<Request>,
    metrics: Arc<ServeMetrics>,
    stop: AtomicBool,
    paused: AtomicBool,
    sleepers: AtomicUsize,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    max_batch: usize,
    budget: QueryBudget,
}

/// How long an idle worker sleeps between queue polls — also the upper
/// bound on how stale a pinned epoch can go unnoticed while idle.
const IDLE_POLL: Duration = Duration::from_micros(200);

impl Shared {
    /// Parks until work might exist: a submit wakeup, the poll timeout,
    /// or shutdown. The queue re-check under the lock closes the race
    /// with a submitter that pushed between our empty pop and here.
    fn idle_wait(&self) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = lock_unpoisoned(&self.idle_lock);
        let has_work = !self.queue.is_empty() && !self.paused.load(Ordering::Acquire);
        if !self.stop.load(Ordering::Acquire) && !has_work {
            let woken = match self.idle_cv.wait_timeout(guard, IDLE_POLL) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
            drop(woken);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes one parked worker if any are parked (cheap no-op path for
    /// the common case of busy workers).
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(lock_unpoisoned(&self.idle_lock));
            self.idle_cv.notify_one();
        }
    }

    fn wake_all(&self) {
        drop(lock_unpoisoned(&self.idle_lock));
        self.idle_cv.notify_all();
    }
}

/// The serving loop: workers + queue + metrics behind one handle.
/// Submit from any thread ([`ServeLoop::submit`] takes `&self`); drop
/// or [`shutdown`](ServeLoop::shutdown) to stop — both join the
/// workers and fail still-queued requests with
/// [`ServeError::ShuttingDown`].
pub struct ServeLoop {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeLoop {
    /// Spawns the worker pool over `store`. Fails typed if a worker
    /// thread cannot be spawned (no partially started loop is left
    /// behind: spawned workers are stopped and joined on the error path).
    pub fn start(store: Arc<EpochStore>, options: ServeOptions) -> Result<ServeLoop, ServeError> {
        let workers = if options.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            options.workers
        }
        .max(1);

        let shared = Arc::new(Shared {
            store,
            queue: MpmcQueue::with_capacity(options.queue_capacity),
            metrics: Arc::new(ServeMetrics::new()),
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            max_batch: options.max_batch.max(1),
            budget: options.budget,
        });

        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let spawn = std::thread::Builder::new()
                .name(format!("kdash-serve-{i}"))
                .spawn(move || worker_loop(&worker_shared));
            match spawn {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    let mut partial = ServeLoop { shared, workers: handles };
                    partial.stop_and_join();
                    return Err(ServeError::WorkerSpawn { detail: e.to_string() });
                }
            }
        }
        Ok(ServeLoop { shared, workers: handles })
    }

    /// Submits a query for `k` neighbours. Returns immediately: the
    /// [`PendingQuery`] resolves when a worker answers. Sheds with
    /// [`ServeError::Overloaded`] when the queue is at capacity.
    pub fn submit(&self, query: NodeId, k: usize) -> Result<PendingQuery, ServeError> {
        if self.shared.stop.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        self.shared.metrics.record_submitted(self.shared.queue.len() + 1);
        let slot = Arc::new(ResponseSlot::new());
        let request =
            Request { query, k, submitted: Instant::now(), slot: Arc::clone(&slot) };
        match self.shared.queue.push(request) {
            Ok(()) => {
                self.shared.wake_one();
                Ok(PendingQuery { slot })
            }
            Err(_rejected) => {
                self.shared.metrics.record_shed();
                Err(ServeError::Overloaded {
                    depth: self.shared.queue.len(),
                    capacity: self.shared.queue.capacity(),
                })
            }
        }
    }

    /// [`submit`](Self::submit) + [`PendingQuery::wait`] in one call.
    pub fn query_blocking(&self, query: NodeId, k: usize) -> Result<ServeResponse, ServeError> {
        self.submit(query, k)?.wait()
    }

    /// Pauses request draining (submissions still queue up to the
    /// admission bound — useful for maintenance windows and for
    /// deterministic overload tests). Idempotent.
    pub fn pause(&self) {
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes request draining after [`pause`](Self::pause).
    pub fn resume(&self) {
        self.shared.paused.store(false, Ordering::Release);
        self.shared.wake_all();
    }

    /// The shared metrics (also hand this to
    /// [`crate::EpochWriter::attach_metrics`] so swap-install latency
    /// lands in the same snapshot).
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The store this loop serves from.
    pub fn store(&self) -> Arc<EpochStore> {
        Arc::clone(&self.shared.store)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Approximate current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The admission bound (requested capacity rounded up to a power
    /// of two).
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Stops the loop: workers finish their current batch and exit,
    /// then every still-queued request is failed with
    /// [`ServeError::ShuttingDown`]. Dropping the loop does the same.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.workers.drain(..) {
            // Workers never unwind (every query runs inside the
            // executor's catch_unwind); a failed join would mean a bug
            // in the drain loop itself — don't propagate the panic
            // through shutdown.
            let _ = handle.join();
        }
        while let Some(request) = self.shared.queue.pop() {
            request.slot.fulfill(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for ServeLoop {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for ServeLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeLoop")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.shared.queue.len())
            .field("queue_capacity", &self.shared.queue.capacity())
            .field("epoch", &self.shared.store.epoch())
            .finish()
    }
}

/// One worker: pin the current epoch, drain batches against it until
/// the epoch moves or the loop stops, repeat.
fn worker_loop(shared: &Shared) {
    let mut batch: Vec<Request> = Vec::with_capacity(shared.max_batch);
    while !shared.stop.load(Ordering::Acquire) {
        let pinned = shared.store.pin();
        let pinned_epoch = pinned.update_epoch();
        let options = BatchOptions { threads: 1, budget: shared.budget };
        let mut executor = IsolatedExecutor::new(&pinned, options);

        while !shared.stop.load(Ordering::Acquire)
            && shared.store.epoch() == pinned_epoch
        {
            if shared.paused.load(Ordering::Acquire) {
                shared.idle_wait();
                continue;
            }
            batch.clear();
            while batch.len() < shared.max_batch {
                match shared.queue.pop() {
                    Some(request) => batch.push(request),
                    None => break,
                }
            }
            if batch.is_empty() {
                shared.idle_wait();
                continue;
            }
            shared.metrics.record_batch(batch.len());
            let lag = shared.store.acked_epoch().saturating_sub(pinned_epoch);
            for request in batch.drain(..) {
                let response = match executor.run(request.query, request.k) {
                    BatchOutcome::Ok(result) => {
                        Ok(ServeResponse { epoch: pinned_epoch, freshness_lag: lag, result })
                    }
                    BatchOutcome::Failed(e) => Err(ServeError::Query(e)),
                };
                shared.metrics.record_done(request.submitted.elapsed(), lag, response.is_ok());
                request.slot.fulfill(response);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochWriter;
    use kdash_core::{IndexOptions, KdashError, KdashIndex};
    use kdash_dynamic::{DynamicIndex, UpdateBatch};
    use kdash_graph::{EdgeEdit, GraphBuilder};

    fn small_index() -> KdashIndex {
        let mut b = GraphBuilder::new(16);
        for v in 0..16u32 {
            b.add_edge(v, (v + 1) % 16, 1.0);
            b.add_edge(v, (v + 3) % 16, 0.5);
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn serves_queries_and_shuts_down() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (_writer, store) = EpochWriter::new(engine);
        let loop_ = ServeLoop::start(
            Arc::clone(&store),
            ServeOptions { workers: 2, ..Default::default() },
        )
        .unwrap();
        for q in 0..16u32 {
            let response = loop_.query_blocking(q, 5).unwrap();
            assert_eq!(response.epoch, store.epoch());
            assert_eq!(response.freshness_lag, 0);
            assert!(!response.result.items.is_empty());
        }
        let metrics = loop_.metrics();
        loop_.shutdown();
        let snap = metrics.snapshot();
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn per_query_errors_are_typed_and_isolated() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (_writer, store) = EpochWriter::new(engine);
        let loop_ =
            ServeLoop::start(store, ServeOptions { workers: 1, ..Default::default() }).unwrap();
        // Out-of-bounds query fails alone; the next query still works.
        match loop_.query_blocking(999, 5) {
            Err(ServeError::Query(KdashError::NodeOutOfBounds { node: 999, .. })) => {}
            other => panic!("expected typed out-of-bounds, got {other:?}"),
        }
        assert!(loop_.query_blocking(3, 5).is_ok());
    }

    #[test]
    fn paused_loop_sheds_at_capacity_and_recovers() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (_writer, store) = EpochWriter::new(engine);
        let loop_ = ServeLoop::start(
            store,
            ServeOptions { workers: 1, queue_capacity: 4, ..Default::default() },
        )
        .unwrap();
        loop_.pause();
        // Let the worker observe the pause before filling the queue, so
        // the admitted/shed split below is exact.
        std::thread::sleep(Duration::from_millis(20));
        let mut pending = Vec::new();
        let mut shed = 0;
        for q in 0..10u32 {
            match loop_.submit(q % 16, 3) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, 4);
                    shed += 1;
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(pending.len(), 4, "exactly the queue capacity is admitted");
        assert_eq!(shed, 6);
        loop_.resume();
        for p in pending {
            assert!(p.wait().is_ok());
        }
        assert!(loop_.metrics().snapshot().shed_rate() > 0.5);
    }

    #[test]
    fn shutdown_fails_queued_requests_typed() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (_writer, store) = EpochWriter::new(engine);
        let loop_ = ServeLoop::start(
            store,
            ServeOptions { workers: 1, queue_capacity: 8, ..Default::default() },
        )
        .unwrap();
        loop_.pause();
        std::thread::sleep(Duration::from_millis(20));
        let pending: Vec<PendingQuery> =
            (0..4u32).filter_map(|q| loop_.submit(q, 3).ok()).collect();
        loop_.shutdown();
        for p in pending {
            match p.wait() {
                Ok(_) | Err(ServeError::ShuttingDown) => {}
                other => panic!("expected served or ShuttingDown, got {other:?}"),
            }
        }
    }

    #[test]
    fn workers_repin_after_publish() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (mut writer, store) = EpochWriter::new(engine);
        let loop_ = ServeLoop::start(
            Arc::clone(&store),
            ServeOptions { workers: 1, ..Default::default() },
        )
        .unwrap();
        writer.attach_metrics(loop_.metrics());
        let epoch0 = store.epoch();
        let batch =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 8, weight: 2.0 }]).unwrap();
        writer.apply(&batch).unwrap();
        // Poll until a served response carries the new epoch.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let response = loop_.query_blocking(0, 5).unwrap();
            if response.epoch == epoch0 + 1 {
                break;
            }
            assert!(Instant::now() < deadline, "worker never re-pinned");
        }
        assert_eq!(loop_.metrics().snapshot().swaps, 1);
    }
}
