//! Pins down the `Searcher` hot-path contract: after warm-up,
//! `Searcher::top_k_into` — and `Searcher::run` from a single node under
//! every stop rule — performs **zero heap allocations**.
//!
//! A counting global allocator wraps the system one; the warm-up queries
//! size every reusable buffer (BFS order, scattered column, heap, result
//! items), after which repeated queries — same stop, arbitrary query
//! nodes — must leave the allocation counter untouched. The counter is
//! process-wide, so every measured window lives in one test function.

use kdash_core::{IndexOptions, KdashIndex, Query, Restart, Stop, TopKResult};
use kdash_datagen::barabasi_albert;
use kdash_graph::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn top_k_into_is_allocation_free_after_warmup() {
    // A hub-rich graph so queries traverse substantial candidate sets.
    let graph = barabasi_albert(600, 3, 42);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let n = graph.num_nodes() as NodeId;
    let k = 10;

    let mut searcher = index.searcher();
    let mut result = TopKResult::default();

    // Warm-up: one query per distinct BFS shape we are about to replay,
    // letting every buffer reach its high-water capacity.
    for q in 0..n {
        searcher.top_k_into(q, k, &mut result).unwrap();
    }

    let before = allocations();
    for round in 0..3 {
        for q in 0..n {
            searcher.top_k_into(q, k, &mut result).unwrap();
            assert_eq!(result.items.len(), k.min(graph.num_nodes()), "round {round} q {q}");
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "Searcher::top_k_into allocated {} times across {} warmed-up queries",
        after - before,
        3 * n
    );

    // The threshold and unpruned stops run the same loop; their hits and
    // heap live in the same reused buffers.
    for stop in [Stop::Above(1e-3), Stop::Unpruned(k)] {
        for q in 0..n {
            searcher.run(&Query { restart: Restart::Node(q), stop }, &mut result).unwrap();
        }
        let before = allocations();
        for q in 0..n {
            searcher.run(&Query { restart: Restart::Node(q), stop }, &mut result).unwrap();
            assert!(!result.items.is_empty(), "{stop:?} q {q}: the query node always answers");
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "Searcher::run with {stop:?} allocated {} times across {n} warmed-up queries",
            after - before,
        );
    }
}

#[test]
fn transient_searchers_do_allocate() {
    // Sanity check that the counter actually observes the transient path —
    // otherwise the zero assertion above would be vacuous.
    let graph = barabasi_albert(200, 3, 7);
    let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
    let before = allocations();
    let _ = index.top_k(0, 10).unwrap();
    assert!(allocations() > before, "transient top_k must allocate its workspace");
}
