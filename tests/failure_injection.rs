//! Failure injection: every crate's error surface behaves — invalid
//! inputs are rejected with typed errors, never panics or wrong answers.
//!
//! The second half is the durability sweep: a journaled update pipeline
//! is crashed at **every** injectable I/O point (torn writes byte by
//! byte on the journal, strided through the snapshot, plus every fsync /
//! rename / truncate), and after each crash recovery must come back to a
//! well-defined epoch — audit-clean, bit-identical to the live-applied
//! index at that epoch, never losing an acknowledged batch.

use kdash_core::batch::batch_top_k_outcomes_with_hook;
use kdash_core::{
    batch_top_k_outcomes, save_atomic, save_atomic_with, BatchOptions, BudgetLimit, CrashPlan,
    FaultInjector, IndexAudit, IndexOptions, KdashError, KdashIndex, Query, QueryBudget, Restart,
    Stop,
};
use kdash_dynamic::{DynamicIndex, Journal, UpdateBatch};
use kdash_graph::{
    io::read_edge_list, CsrGraph, EdgeEdit, GraphBuilder, GraphError, MergePolicy, NodeId,
    Permutation,
};
use kdash_harness::check_index_bit_identity;
use kdash_linalg::{invert_dense, DenseMatrix, LinalgError};
use kdash_sparse::{sparse_lu, CscMatrix, SparseError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[test]
fn graph_rejects_malformed_input() {
    // NaN / zero / negative weights.
    for w in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, w);
        assert!(matches!(b.build(), Err(GraphError::InvalidWeight { .. })), "weight {w}");
    }
    // Out-of-bounds endpoints.
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 2, 1.0);
    assert!(matches!(b.build(), Err(GraphError::NodeOutOfBounds { node: 2, .. })));
    // Duplicate ban.
    let mut b = GraphBuilder::new(2);
    b.set_merge_policy(MergePolicy::Error);
    b.add_edge(0, 1, 1.0).add_edge(0, 1, 1.0);
    assert!(matches!(b.build(), Err(GraphError::DuplicateEdge { .. })));
}

#[test]
fn edge_list_parser_reports_line_numbers() {
    for (text, line) in [
        ("0 1\nbroken", 2),
        ("0", 1),
        ("0 1 2 3", 1),
        ("0 x", 1),
        ("-1 0", 1),
    ] {
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line: l, .. }) => assert_eq!(l, line, "{text:?}"),
            other => panic!("{text:?} should fail to parse, got {other:?}"),
        }
    }
}

#[test]
fn permutations_reject_non_bijections() {
    assert!(Permutation::from_new_order(vec![0, 0]).is_err());
    assert!(Permutation::from_new_order(vec![1, 2]).is_err());
    let p = Permutation::identity(3);
    let q = Permutation::identity(4);
    assert!(p.then(&q).is_err(), "length mismatch must fail");
}

#[test]
fn sparse_kernels_reject_bad_shapes() {
    let rect = CscMatrix::zeros(2, 3);
    assert!(matches!(sparse_lu(&rect), Err(SparseError::NotSquare { .. })));
    // Singular matrix (zero column).
    let singular = CscMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
    assert!(matches!(
        sparse_lu(&singular),
        Err(SparseError::SingularPivot { column: 1, .. })
    ));
    // Malformed raw arrays.
    assert!(CscMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
    assert!(CscMatrix::from_raw_parts(2, 1, vec![0, 2], vec![0, 0], vec![1.0, 1.0]).is_err());
}

#[test]
fn dense_kernels_reject_bad_inputs() {
    let singular =
        DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
    assert!(matches!(invert_dense(&singular), Err(LinalgError::Singular { .. })));
    let a = DenseMatrix::zeros(2, 3);
    assert!(a.matmul(&DenseMatrix::zeros(2, 2)).is_err());
    assert!(a.matvec(&[1.0]).is_err());
}

#[test]
fn index_rejects_invalid_queries_and_parameters() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 1.0);
    b.add_edge(1, 2, 1.0);
    b.add_edge(2, 3, 1.0);
    b.add_edge(3, 0, 1.0);
    let g = b.build().unwrap();
    // Bad restart probabilities.
    for c in [0.0, 1.0, -0.1, 2.0, f64::NAN] {
        let r = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: c, ..Default::default() },
        );
        assert!(r.is_err(), "c = {c} must be rejected");
    }
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    // Bad node ids on every query entry point.
    assert!(matches!(
        index.top_k(4, 2),
        Err(KdashError::NodeOutOfBounds { node: 4, .. })
    ));
    for (restart, stop) in [
        (Restart::Node(9), Stop::Unpruned(2)),
        (Restart::Node(9), Stop::Above(0.1)),
        (Restart::Set(&[0, 9]), Stop::TopK(2)),
    ] {
        assert!(matches!(
            index.run(&Query { restart, stop }),
            Err(KdashError::NodeOutOfBounds { node: 9, .. })
        ));
    }
    assert!(index.searcher().top_k_from_root(0, 2, 17).is_err());
    assert!(index.proximity(0, 99).is_err());
    assert!(index.full_proximities(44).is_err());
}

#[test]
fn degenerate_graphs_still_work() {
    // Single node, no edges.
    let g = GraphBuilder::new(1).build().unwrap();
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    let r = index.top_k(0, 1).unwrap();
    assert_eq!(r.items.len(), 1);
    assert_eq!(r.items[0].node, 0);
    assert!((r.items[0].proximity - 0.95).abs() < 1e-12, "p_q = c for a lone dangling node");

    // All-dangling graph (no edges at all).
    let g = GraphBuilder::new(5).build().unwrap();
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    let r = index.top_k(2, 5).unwrap();
    assert_eq!(r.items.len(), 5);
    assert_eq!(r.items[0].node, 2);
    assert!(r.items[1..].iter().all(|i| i.proximity == 0.0));

    // Self-loop-only node.
    let mut b = GraphBuilder::new(2);
    b.add_edge(0, 0, 1.0);
    b.add_edge(1, 0, 1.0);
    let g = b.build().unwrap();
    let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
    let p = index.full_proximities(0).unwrap();
    assert!((p[0] - 1.0).abs() < 1e-9, "walk can never leave node 0: {}", p[0]);
    assert_eq!(p[1], 0.0);
}

fn ring_index() -> KdashIndex {
    let mut b = GraphBuilder::new(30);
    for v in 0..30u32 {
        b.add_edge(v, (v + 1) % 30, 1.0);
        b.add_edge(v, (v + 11) % 30, 0.5);
    }
    KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
}

/// One poisoned query in a batch must cost exactly that query: the other
/// N−1 results come back bit-identical to an uncontaminated batch, and
/// the poisoned slot carries a typed [`KdashError::QueryPanicked`] — the
/// panic never reaches the caller and never tears down a worker pool.
#[test]
fn batch_isolates_a_panicking_query() {
    let index = ring_index();
    let queries: Vec<NodeId> = (0..12).collect();
    let k = 8;
    const BAD: usize = 5;

    for threads in [1, 4] {
        let options = BatchOptions { threads, ..Default::default() };
        let clean = batch_top_k_outcomes(&index, &queries, k, &options);
        let poisoned = batch_top_k_outcomes_with_hook(
            &index,
            &queries,
            k,
            &options,
            &|i, q| {
                if i == BAD {
                    panic!("injected fault at query {q}")
                }
            },
        );

        assert_eq!(poisoned.len(), queries.len());
        for (i, (a, b)) in clean.iter().zip(&poisoned).enumerate() {
            if i == BAD {
                match b.err() {
                    Some(KdashError::QueryPanicked { message }) => {
                        assert!(
                            message.contains("injected fault"),
                            "panic payload must be preserved: {message}"
                        );
                    }
                    other => panic!("query {BAD} should be QueryPanicked, got {other:?}"),
                }
                continue;
            }
            let (a, b) = (a.clone().ok().unwrap(), b.clone().ok().unwrap());
            assert_eq!(a.nodes(), b.nodes(), "query {i} ({threads} threads)");
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(
                    x.proximity.to_bits(),
                    y.proximity.to_bits(),
                    "query {i} node {} must be bit-identical to the clean batch",
                    x.node
                );
            }
        }
    }
}

/// A starved per-query budget fails every query with a typed
/// [`KdashError::BudgetExceeded`] that names the limit and carries the
/// search counters at the abort point; a generous budget changes nothing.
#[test]
fn batch_budget_exhaustion_is_typed_and_carries_stats() {
    let index = ring_index();
    let queries: Vec<NodeId> = (0..6).collect();
    let k = 10;

    let starved = BatchOptions {
        budget: QueryBudget { max_gather_nnz: Some(1), ..Default::default() },
        ..Default::default()
    };
    for (i, outcome) in batch_top_k_outcomes(&index, &queries, k, &starved).iter().enumerate() {
        match outcome.err() {
            Some(KdashError::BudgetExceeded { limit, stats }) => {
                assert!(
                    matches!(limit, BudgetLimit::GatherNnz(1)),
                    "query {i}: wrong limit {limit:?}"
                );
                assert!(stats.nnz_gathered >= 1, "abort must carry the running total");
                assert!(stats.visited >= 1, "at least the root was visited");
            }
            other => panic!("query {i} should exceed its budget, got {other:?}"),
        }
    }

    // A budget generous enough to never fire must not perturb results.
    let generous = BatchOptions {
        budget: QueryBudget {
            max_frontier_nodes: Some(1_000_000),
            max_gather_nnz: Some(1_000_000),
            deadline: Some(std::time::Duration::from_secs(3600)),
        },
        ..Default::default()
    };
    let unbudgeted = batch_top_k_outcomes(&index, &queries, k, &BatchOptions::default());
    let budgeted = batch_top_k_outcomes(&index, &queries, k, &generous);
    for (a, b) in unbudgeted.into_iter().zip(budgeted) {
        let (a, b) = (a.ok().unwrap(), b.ok().unwrap());
        assert_eq!(a.nodes(), b.nodes());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
        }
    }
}

// ---------------------------------------------------------------------
// Durability: the failpoint-driven crash sweep.
// ---------------------------------------------------------------------

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("kdash-failure-injection-{}", std::process::id()))
        .join(name);
    // A leftover from a previous run of the same pid must not leak
    // state into a crash scenario.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep_graph() -> CsrGraph {
    let mut b = GraphBuilder::new(32);
    for v in 0..32u32 {
        b.add_edge(v, (v + 1) % 32, 1.0);
        b.add_edge(v, (v + 7) % 32, 0.5);
    }
    b.build().unwrap()
}

/// Four batches covering all three edit kinds, valid in sequence against
/// [`sweep_graph`]: epochs 1 and 2 are applied singly, 3 and 4 coalesced.
fn sweep_batches() -> Vec<UpdateBatch> {
    vec![
        UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 0, dst: 20, weight: 2.0 },
            EdgeEdit::Reweight { src: 3, dst: 4, weight: 0.25 },
        ])
        .unwrap(),
        UpdateBatch::new(vec![
            EdgeEdit::Delete { src: 5, dst: 6 },
            EdgeEdit::Insert { src: 5, dst: 25, weight: 1.0 },
        ])
        .unwrap(),
        UpdateBatch::new(vec![EdgeEdit::Reweight { src: 10, dst: 17, weight: 0.75 }]).unwrap(),
        UpdateBatch::new(vec![
            EdgeEdit::Insert { src: 8, dst: 30, weight: 1.5 },
            EdgeEdit::Delete { src: 12, dst: 13 },
        ])
        .unwrap(),
    ]
}

/// `refs[e]` = the index after live-applying the first `e` batches — the
/// ground truth every recovered state must be bit-identical to.
fn reference_indexes(base: &KdashIndex, batches: &[UpdateBatch]) -> Vec<KdashIndex> {
    let mut refs = vec![base.clone()];
    let mut engine = DynamicIndex::new(base.clone()).unwrap();
    for batch in batches {
        engine.apply(batch).unwrap();
        refs.push(engine.index().clone());
    }
    refs
}

/// The journaled lifecycle under test: snapshot → journal → two single
/// applies → checkpoint → one coalesced apply of two batches. Returns the
/// highest epoch that was **acknowledged** (the call returned `Ok`)
/// before an injected crash stopped the run — the floor recovery must
/// reach. Every early return models the process dying at that point.
fn run_scenario(
    dir: &Path,
    base: &KdashIndex,
    batches: &[UpdateBatch],
    faults: Arc<dyn FaultInjector>,
) -> u64 {
    let index_path = dir.join("sweep.kdash");
    let journal_path = Journal::sidecar_path(&index_path);
    if save_atomic_with(base, &index_path, faults.as_ref()).is_err() {
        return 0;
    }
    let journal = match Journal::create_with(&journal_path, 0, Arc::clone(&faults)) {
        Ok(j) => j,
        Err(_) => return 0,
    };
    let mut engine = DynamicIndex::new(base.clone()).unwrap().journaled(journal).unwrap();
    if engine.apply(&batches[0]).is_err() {
        return 0;
    }
    if engine.apply(&batches[1]).is_err() {
        return 1;
    }
    if engine.checkpoint(&index_path).is_err() {
        return 2;
    }
    if engine.apply_coalesced(&batches[2..4]).is_err() {
        return 2;
    }
    4
}

/// The sweep invariant: whatever the crash left behind, recovery lands
/// on a well-defined epoch `e` with `acked <= e <= 4`, the recovered
/// index is bit-identical to the live-applied index at epoch `e`, and
/// the deep structural audit is clean. Never a panic, never corruption,
/// never a lost acknowledged batch.
fn assert_recoverable(dir: &Path, refs: &[KdashIndex], acked: u64, context: &str) {
    let index_path = dir.join("sweep.kdash");
    let journal_path = Journal::sidecar_path(&index_path);
    let snapshot = match File::open(&index_path) {
        Ok(f) => KdashIndex::load(BufReader::new(f))
            .unwrap_or_else(|e| panic!("{context}: snapshot must load cleanly: {e}")),
        Err(_) => {
            // The initial save itself crashed: nothing was ever acked.
            assert_eq!(acked, 0, "{context}: snapshot lost after {acked} acked batch(es)");
            return;
        }
    };
    let engine = if journal_path.exists() {
        let (engine, report) = DynamicIndex::recover(snapshot, &journal_path)
            .unwrap_or_else(|e| panic!("{context}: recovery must succeed: {e}"));
        assert_eq!(
            report.final_epoch,
            engine.index().update_epoch(),
            "{context}: report disagrees with the recovered index"
        );
        engine
    } else {
        DynamicIndex::new(snapshot).unwrap()
    };
    let epoch = engine.index().update_epoch();
    assert!(
        (epoch as usize) < refs.len(),
        "{context}: recovered to impossible epoch {epoch}"
    );
    assert!(
        epoch >= acked,
        "{context}: acknowledged batch lost (recovered epoch {epoch} < acked {acked})"
    );
    check_index_bit_identity(engine.index(), &refs[epoch as usize]).unwrap_or_else(|e| {
        panic!("{context}: recovered index differs from live-applied epoch {epoch}: {e}")
    });
    let audit = IndexAudit::run(engine.index());
    assert!(audit.is_clean(), "{context}: audit found: {:?}", audit.findings);
}

/// Pass 1 counts every injectable point of the lifecycle; pass 2 crashes
/// it at each selected point and asserts [`assert_recoverable`]. Journal
/// writes are swept **byte by byte** (every torn-prefix length), the two
/// wide snapshot writes by prime stride plus both edges, and every
/// fsync / rename / truncate everywhere.
#[test]
fn crash_sweep_recovers_from_every_injection_point() {
    let base = KdashIndex::build(&sweep_graph(), IndexOptions::default()).unwrap();
    let batches = sweep_batches();
    let refs = reference_indexes(&base, &batches);
    assert_eq!(refs[4].update_epoch(), 4);

    let count_dir = temp_dir("sweep-count");
    let plan = Arc::new(CrashPlan::count_only());
    let acked = run_scenario(&count_dir, &base, &batches, plan.clone());
    assert_eq!(acked, 4, "counting pass must run the whole lifecycle");
    assert_recoverable(&count_dir, &refs, acked, "clean run");
    assert!(plan.tripped().is_none());

    let planned = plan.planned();
    assert!(
        planned.iter().any(|(_, _, l)| l.contains(".journal"))
            && planned.iter().any(|(_, _, l)| l.starts_with("fsync"))
            && planned.iter().any(|(_, _, l)| l.starts_with("rename")),
        "the lifecycle must expose journal writes, fsyncs and renames: {planned:?}"
    );
    let mut targets: Vec<u64> = Vec::new();
    for (start, width, label) in &planned {
        if *width <= 1 || label.contains(".journal") {
            targets.extend(*start..*start + *width);
        } else {
            targets.push(*start);
            targets.push(*start + *width - 1);
            let mut p = *start + 97;
            while p + 1 < *start + *width {
                targets.push(p);
                p += 997;
            }
        }
    }
    assert!(targets.len() >= 100, "sweep degenerated to {} targets", targets.len());

    for point in targets {
        let dir = temp_dir(&format!("sweep-{point}"));
        let plan = Arc::new(CrashPlan::crash_at(point));
        let acked = run_scenario(&dir, &base, &batches, plan.clone());
        let tripped = plan
            .tripped()
            .unwrap_or_else(|| panic!("point {point} never fired (scenario acked {acked})"));
        assert!(acked < 4, "point {point} ({tripped}) fired yet the run fully acked");
        assert_recoverable(&dir, &refs, acked, &format!("point {point} ({tripped})"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&count_dir);
}

/// Deterministic valid batches for an arbitrary graph: inserts of fresh
/// edges, a delete and a reweight of existing ones, spread so batches
/// stay valid applied in sequence.
fn family_batches(graph: &CsrGraph) -> Vec<UpdateBatch> {
    let n = graph.num_nodes() as NodeId;
    let edges: Vec<(NodeId, NodeId)> = graph.edges().map(|(s, d, _)| (s, d)).collect();
    let edge_set: std::collections::HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let mut fresh = Vec::new();
    'outer: for stride in 1..n {
        for src in 0..n {
            let dst = (src + stride) % n;
            if src != dst && !edge_set.contains(&(src, dst)) {
                fresh.push((src, dst));
                if fresh.len() == 3 {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(fresh.len(), 3, "graph too dense to insert into");
    let (del_src, del_dst) = edges[edges.len() / 2];
    let (rw_src, rw_dst) = edges[edges.len() / 3];
    vec![
        UpdateBatch::new(vec![
            EdgeEdit::Insert { src: fresh[0].0, dst: fresh[0].1, weight: 1.5 },
            EdgeEdit::Reweight { src: rw_src, dst: rw_dst, weight: 0.4 },
        ])
        .unwrap(),
        UpdateBatch::new(vec![EdgeEdit::Delete { src: del_src, dst: del_dst }]).unwrap(),
        UpdateBatch::new(vec![
            EdgeEdit::Insert { src: fresh[1].0, dst: fresh[1].1, weight: 0.8 },
            EdgeEdit::Insert { src: fresh[2].0, dst: fresh[2].1, weight: 2.2 },
        ])
        .unwrap(),
    ]
}

/// Replay ≡ live apply, bit-identically, across ER / BA / RMAT graphs ×
/// single / coalesced application: journal the batches, "crash" before
/// any checkpoint (drop the engine — the snapshot still holds epoch 0),
/// recover from snapshot + journal, and the result must be bit-identical
/// to the engine that applied the same batches live and never crashed.
#[test]
fn journal_replay_is_bit_identical_to_live_apply() {
    use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
    let families: [(&str, CsrGraph); 3] = [
        ("er", erdos_renyi(48, 150, 11)),
        ("ba", barabasi_albert(48, 2, 12)),
        ("rmat", rmat(5, 100, RmatParams::default(), 13)),
    ];
    for (family, graph) in families {
        let base = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let batches = family_batches(&graph);
        for coalesced in [false, true] {
            let context = format!("{family} coalesced={coalesced}");
            let dir = temp_dir(&format!("replay-{family}-{coalesced}"));
            let index_path = dir.join("replay.kdash");
            let journal_path = Journal::sidecar_path(&index_path);

            // Live path: no journal, no crash.
            let mut live = DynamicIndex::new(base.clone()).unwrap();
            if coalesced {
                live.apply_coalesced(&batches).unwrap();
            } else {
                for batch in &batches {
                    live.apply(batch).unwrap();
                }
            }

            // Journaled path, killed before any checkpoint.
            save_atomic(&base, &index_path).unwrap();
            let journal = Journal::create(&journal_path, 0).unwrap();
            let mut engine = DynamicIndex::new(base.clone()).unwrap().journaled(journal).unwrap();
            if coalesced {
                engine.apply_coalesced(&batches).unwrap();
            } else {
                for batch in &batches {
                    engine.apply(batch).unwrap();
                }
            }
            drop(engine); // the "crash": acked epochs live only in the journal

            let snapshot = KdashIndex::load(BufReader::new(File::open(&index_path).unwrap()))
                .unwrap_or_else(|e| panic!("{context}: snapshot load: {e}"));
            assert_eq!(snapshot.update_epoch(), 0, "{context}");
            let (recovered, report) = DynamicIndex::recover(snapshot, &journal_path)
                .unwrap_or_else(|e| panic!("{context}: recovery: {e}"));
            assert_eq!(report.snapshot_epoch, 0, "{context}");
            assert_eq!(report.replayed_batches, batches.len(), "{context}");
            assert_eq!(report.final_epoch, batches.len() as u64, "{context}");
            assert!(report.torn_tail.is_none(), "{context}: {:?}", report.torn_tail);
            assert_eq!(
                recovered.index().update_epoch(),
                live.index().update_epoch(),
                "{context}"
            );
            check_index_bit_identity(recovered.index(), live.index()).unwrap_or_else(|e| {
                panic!("{context}: replayed index differs from live-applied: {e}")
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn error_messages_are_informative() {
    let err = KdashIndex::build(
        &GraphBuilder::new(2).add_edge(0, 1, 1.0).build().unwrap(),
        IndexOptions { restart_probability: 7.0, ..Default::default() },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('7'), "message should carry the bad value: {msg}");
    // Error sources chain for downstream reporting.
    let source = std::error::Error::source(&err);
    assert!(source.is_some());
}
