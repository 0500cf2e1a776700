//! Epoch-snapshot serving tier: live queries concurrent with live updates.
//!
//! A built [`kdash_core::KdashIndex`] is immutable, which makes reads
//! trivially parallel — but the ROADMAP north star serves heavy read
//! traffic *while the graph churns*. This crate closes that gap with a
//! classic read-copy-update design: writers never touch the index
//! readers are using, they prepare the next one and swap a pointer.
//!
//! * [`EpochStore`] — the publication point. It holds the current
//!   serving snapshot as an `Arc<KdashIndex>` tagged by its update
//!   epoch. Readers *pin* a snapshot (one `Arc` clone under the mutex
//!   the writer's pointer swap also takes, so a pin can wait for that
//!   swap) and detect staleness with a single atomic load
//!   ([`EpochStore::epoch`]); the store also tracks the latest
//!   **acked** write epoch so freshness lag is observable at any moment.
//! * [`EpochWriter`] — the single-writer update path. It owns a
//!   [`kdash_dynamic::DynamicIndex`] (journaled mode supported, so acks
//!   survive crashes) and, after every committed
//!   `apply`/`apply_coalesced`, clones the patched index into a fresh
//!   immutable snapshot and publishes it. Epoch N+1 is prepared
//!   entirely off the serving path; queries on epoch N are never
//!   blocked, torn, or slowed beyond the memory bandwidth the clone
//!   consumes.
//! * [`ServeLoop`] — the read path: a thread-per-core worker pool
//!   draining a bounded lock-free MPMC request queue ([`MpmcQueue`]).
//!   Each worker pins the current epoch, folds queued queries through a
//!   persistent panic-isolated [`kdash_core::IsolatedExecutor`] (same
//!   outcome semantics as [`kdash_core::batch_top_k_outcomes`], with
//!   per-worker `Searcher` reuse), and re-pins when the epoch moves.
//! * [`ServeMetrics`] — built-in observability, `SearchStats`-style:
//!   per-query latency histograms (p50/p99/p999), queue-depth and shed
//!   counters, freshness-lag distribution and swap-install latency.
//!
//! # Operational guarantees
//!
//! **Epoch semantics.** Every response names the epoch it was computed
//! against ([`ServeResponse::epoch`]) and is **bit-identical** to a
//! standalone [`kdash_core::Searcher::top_k`] against that epoch's
//! pinned snapshot with the same budget — there is no state
//! in between epochs to observe, so torn reads are impossible by
//! construction. A worker serves a whole drained batch from one pinned
//! epoch; it picks up a newly published epoch at the next batch
//! boundary (bounded by the idle-poll interval, ~200µs, when the queue
//! is empty).
//!
//! **Shedding.** Admission control is the queue bound: when the request
//! queue is full, [`ServeLoop::submit`] fails *immediately* with
//! [`ServeError::Overloaded`] instead of queueing unbounded latency.
//! Nothing about overload panics, and an accepted request is always
//! answered — on shutdown, still-queued requests are failed with
//! [`ServeError::ShuttingDown`], never dropped silently.
//!
//! **Freshness lag.** The lag reported per response
//! ([`ServeResponse::freshness_lag`]) and in the metrics is the number
//! of *acknowledged* write epochs the serving snapshot was behind when
//! the query ran: `acked_epoch − serving_epoch`. Zero means the answer
//! reflects every write the writer has acknowledged (for a journaled
//! writer: every write that is durable). A non-zero lag is transient —
//! it spans exactly the swap-install window (snapshot clone + publish,
//! measured as `swap_install` in the metrics) plus at most one batch
//! drain, and converges back to zero as soon as the publish lands;
//! lag is bounded by the write rate times that window, not by read
//! traffic.
//!
//! **Crash recovery.** With a journaled writer, an acked write is
//! durable before it is acked (write-ahead contract of
//! [`kdash_dynamic::Journal`]). After a crash,
//! [`kdash_dynamic::DynamicIndex::recover`] rebuilds the engine at an
//! epoch ≥ the acked floor, and a new [`EpochWriter`]/[`ServeLoop`]
//! pair resumes serving bit-identical answers from there.

mod epoch;
mod metrics;
mod queue;
mod server;

pub use epoch::{EpochStore, EpochWriter};
pub use metrics::{Histogram, MetricsSnapshot, ServeMetrics};
pub use queue::MpmcQueue;
pub use server::{PendingQuery, ServeLoop, ServeOptions, ServeResponse};

use kdash_core::KdashError;
use std::sync::{Mutex, MutexGuard};

/// How a serving-tier request can fail. Everything is typed — the
/// serving loop never panics on a request path.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control shed the request: the queue was at capacity.
    /// Back off and retry; accepted requests are unaffected.
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// The queue's capacity (the admission bound).
        capacity: usize,
    },
    /// The loop is shutting down; the request was not (or will not be)
    /// served.
    ShuttingDown,
    /// The query itself failed — invalid input, exceeded budget, or a
    /// panic inside the search, isolated to this one request.
    Query(KdashError),
    /// A worker thread could not be spawned at startup.
    WorkerSpawn {
        /// The OS error text.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(f, "request shed: queue at capacity ({depth}/{capacity})")
            }
            ServeError::ShuttingDown => write!(f, "serving loop is shutting down"),
            ServeError::Query(e) => write!(f, "query failed: {e}"),
            ServeError::WorkerSpawn { detail } => {
                write!(f, "failed to spawn serve worker: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Locks a mutex, recovering the guard from a poisoned lock. The
/// serving tier holds locks only around pointer-sized swaps and slot
/// fills — no invariant spans a panic inside a critical section, so
/// continuing with the poisoned value is always sound here, and a
/// poisoned publication mutex must not take down every reader.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}
