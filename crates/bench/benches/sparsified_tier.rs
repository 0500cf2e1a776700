//! Headline benchmark for the sparsified tier (PR 8): the
//! memory-vs-refinement-latency trade-off of drop-tolerance sparsified
//! inverses with certified residual refinement.
//!
//! For each drop tolerance ε in the sweep the bench builds a full index
//! (`IndexBuilder::drop_tolerance(ε)`, hybrid ordering) on the same
//! graph and reports:
//!
//! * **build cost** — total wall-clock and the inversion stage, the one
//!   truncation accelerates (a dropped entry never propagates, so the
//!   whole downstream fill subtree is pruned *during* the solve);
//! * **stored footprint** — inverse nnz and heap bytes, against the
//!   dense ε = 0 baseline of the same run (acceptance: some ε reaches a
//!   ≥4× byte reduction at scale 16 with the ranking still pinned);
//! * **query cost** — per-query latency over a fixed spread of roots,
//!   plus the refinement work (iterations, streamed correction nnz)
//!   that is the honest price of the smaller store;
//! * **exactness** — every certified result's positive-proximity prefix
//!   must carry the dense baseline's node sequence exactly (when ε = 0
//!   is in the sweep) and agree across ε values; the first
//!   `KDASH_SPARSIFY_TRUTH` queries are additionally checked against
//!   the iterative ground truth. Uncertifiable queries (adjacent
//!   proximities inside the same ulp) surface as `RefinementFailed` and
//!   are *counted*, not hidden.
//!
//! The graph is RMAT reweighted with deterministic splitmix64 per-edge
//! weights: the stock generators emit unit weights, under which
//! structurally twinned nodes have *exactly* equal proximities — an
//! order no exact method can certify and under which "the" dense
//! ranking is itself arbitrary. Hashed 53-bit weights make distinct-node
//! proximity collisions measure-zero while keeping the structure.
//!
//! Headline numbers land in `BENCH_PR8.json` at the repo root. Like
//! `index_build`, measurement is direct wall-clock: a dense build takes
//! minutes at scale, so criterion-style warm-up would multiply the cost
//! without sharpening anything.
//!
//! Environment knobs:
//!
//! * `KDASH_BENCH_SCALE`    — RMAT scale (default 14 ⇒ 16,384 nodes).
//! * `KDASH_SPARSIFY_EPS`   — comma-separated ε sweep (default
//!   `0,1e-6,1e-5,1e-4,1e-3`; omit `0` to skip the dense baseline —
//!   the scale-18 configuration, where the dense build is the wall the
//!   tier exists to avoid).
//! * `KDASH_QUERIES`        — query roots per series (default 20).
//! * `KDASH_SPARSIFY_K`     — top-k size (default 50).
//! * `KDASH_SPARSIFY_TRUTH` — queries cross-checked against the
//!   iterative definition (default 2; 0 disables).

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::{IndexBuilder, KdashError, NodeOrdering, Searcher, TopKResult};
use kdash_datagen::{rmat, RmatParams};
use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Rebuilds `graph` with deterministic splitmix64 per-edge weights (53
/// bits of granularity), breaking the exact proximity ties unit weights
/// give structurally twinned nodes. Same scheme as the tier-1
/// `sparsified_equivalence` suite.
fn break_ties(graph: &CsrGraph) -> CsrGraph {
    let n = graph.num_nodes();
    let mut b = GraphBuilder::new(n);
    let mix = |v: u64| {
        let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for v in 0..n as NodeId {
        for (t, _) in graph.out_edges(v) {
            let h = mix(((v as u64) << 32) | t as u64) >> 11;
            b.add_edge(v, t, 1.0 + h as f64 / (1u64 << 53) as f64);
        }
    }
    b.build().expect("reweighted graph is structurally unchanged")
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    if xs.is_empty() {
        return f64::NAN;
    }
    xs[xs.len() / 2]
}

/// Positive-proximity prefix of a result: the part of the ranking the
/// exactness contract binds. Past it both paths pad with arbitrary
/// zero-proximity filler in visit order.
fn positive_prefix(r: &TopKResult) -> Vec<NodeId> {
    r.items.iter().take_while(|i| i.proximity > 0.0).map(|i| i.node).collect()
}

struct Series {
    eps: f64,
    build_secs: f64,
    inversion_secs: f64,
    inverse_nnz: usize,
    heap_bytes: usize,
    dropped_mass: f64,
    median_query_secs: f64,
    worst_query_secs: f64,
    median_refine_iters: f64,
    median_refine_nnz: f64,
    certified: usize,
    uncertifiable: usize,
    results: Vec<Option<TopKResult>>,
}

fn main() {
    let scale = env_usize("KDASH_BENCH_SCALE", 14) as u32;
    let num_queries = env_usize("KDASH_QUERIES", 20);
    let k = env_usize("KDASH_SPARSIFY_K", 50);
    let truth_checks = env_usize("KDASH_SPARSIFY_TRUTH", 2);
    let eps_sweep: Vec<f64> = std::env::var("KDASH_SPARSIFY_EPS")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<f64>| !v.is_empty())
        .unwrap_or_else(|| vec![0.0, 1e-6, 1e-5, 1e-4, 1e-3]);

    let n = 1usize << scale;
    let graph = break_ties(&rmat(scale, n * 4, RmatParams::default(), 42));
    println!(
        "sparsified_tier setup: rmat scale {scale} (splitmix64-reweighted): {} nodes, {} \
         edges; eps sweep {:?}, {num_queries} queries, k = {k}",
        graph.num_nodes(),
        graph.num_edges(),
        eps_sweep,
    );
    let queries = kdash_bench::queries_for(&graph, num_queries);

    let mut series: Vec<Series> = Vec::with_capacity(eps_sweep.len());
    for &eps in &eps_sweep {
        let t = Instant::now();
        let (index, report) = IndexBuilder::new()
            .ordering(NodeOrdering::Hybrid)
            .drop_tolerance(eps)
            .build_with_report(&graph)
            .expect("index build");
        let build_secs = t.elapsed().as_secs_f64();
        let stats = index.stats();
        let inversion_secs = report
            .stages
            .iter()
            .find(|s| s.stage.name() == "inversion")
            .map(|s| s.duration.as_secs_f64())
            .unwrap_or(f64::NAN);
        println!(
            "bench sparsified_tier/build eps {eps:e}: {build_secs:.2}s total (inversion \
             {inversion_secs:.2}s); inverse nnz {} (L⁻¹ {}, U⁻¹ {}), heap {} bytes, dropped \
             l1 mass {:.3e}, refinement {}",
            stats.nnz_l_inv + stats.nnz_u_inv,
            stats.nnz_l_inv,
            stats.nnz_u_inv,
            stats.inverse_heap_bytes,
            index.dropped_mass(),
            if index.needs_refinement() { "required" } else { "not required (classic path)" },
        );

        let mut searcher = Searcher::new(&index);
        // One warm-up query so the workspace allocations don't land in
        // the first measured trial.
        let _ = searcher.top_k(queries[0], k);
        let mut lats = Vec::with_capacity(queries.len());
        let mut iters = Vec::new();
        let mut rnnz = Vec::new();
        let mut results = Vec::with_capacity(queries.len());
        let mut uncertifiable = 0usize;
        for &q in &queries {
            let t = Instant::now();
            match searcher.top_k(q, k) {
                Ok(r) => {
                    lats.push(t.elapsed().as_secs_f64());
                    iters.push(r.stats.refinement_iterations as f64);
                    rnnz.push(r.stats.refinement_nnz as f64);
                    results.push(Some(r));
                }
                Err(KdashError::RefinementFailed { iterations, residual, gap }) => {
                    // The honest failure mode: adjacent proximities the
                    // residual bound cannot separate. Counted, never hidden.
                    uncertifiable += 1;
                    results.push(None);
                    println!(
                        "bench sparsified_tier/eps {eps:e} query {q}: UNCERTIFIABLE after \
                         {iterations} iterations (residual {residual:.3e}, gap {gap:.3e})"
                    );
                }
                Err(e) => panic!("query {q} failed structurally: {e}"),
            }
        }
        let certified = results.iter().filter(|r| r.is_some()).count();
        series.push(Series {
            eps,
            build_secs,
            inversion_secs,
            inverse_nnz: stats.nnz_l_inv + stats.nnz_u_inv,
            heap_bytes: stats.inverse_heap_bytes,
            dropped_mass: index.dropped_mass(),
            median_query_secs: median(&mut lats.clone()),
            worst_query_secs: lats.iter().copied().fold(f64::NAN, f64::max),
            median_refine_iters: median(&mut iters),
            median_refine_nnz: median(&mut rnnz),
            certified,
            uncertifiable,
            results,
        });
    }

    // Exactness: all certified results must agree on the
    // positive-proximity prefix, across every pair of series (the dense
    // ε = 0 series, when present, is just the strictest member).
    let mut mismatches = 0usize;
    for (qi, &q) in queries.iter().enumerate() {
        let mut reference: Option<(f64, Vec<NodeId>)> = None;
        for s in &series {
            let Some(r) = &s.results[qi] else { continue };
            let prefix = positive_prefix(r);
            match &reference {
                None => reference = Some((s.eps, prefix)),
                Some((ref_eps, ref_prefix)) => {
                    if *ref_prefix != prefix {
                        mismatches += 1;
                        println!(
                            "bench sparsified_tier/MISMATCH query {q}: eps {:e} and eps {:e} \
                             disagree on the certified ranking",
                            ref_eps, s.eps,
                        );
                    }
                }
            }
        }
    }
    assert_eq!(mismatches, 0, "certified rankings must agree across the eps sweep");

    // Ground-truth spot checks against the iterative definition.
    for &q in queries.iter().take(truth_checks) {
        let truth = IterativeRwr::new(&graph, 0.95).top_k(q, k);
        for s in &series {
            let Some(r) = &s.results[queries.iter().position(|&x| x == q).unwrap()] else {
                continue;
            };
            let ok = r
                .items
                .iter()
                .zip(&truth)
                .take_while(|(got, _)| got.proximity > 0.0)
                .all(|(got, want)| got.node == want.0 && (got.proximity - want.1).abs() < 1e-9);
            assert!(ok, "eps {:e} query {q} diverged from the iterative ground truth", s.eps);
        }
        println!("bench sparsified_tier/truth query {q}: all series match the iterative definition");
    }

    let dense = series.iter().find(|s| s.eps == 0.0);
    for s in &series {
        let (byte_ratio, build_ratio, lat_ratio) = match dense {
            Some(d) if s.eps != 0.0 => (
                format!("{:.2}x", d.heap_bytes as f64 / s.heap_bytes.max(1) as f64),
                format!("{:.2}x", d.build_secs / s.build_secs),
                format!("{:.2}x", s.median_query_secs / d.median_query_secs),
            ),
            _ => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "bench sparsified_tier/summary eps {:e}: build {:.2}s (inversion {:.2}s, {} vs \
             dense), store {} nnz / {} bytes ({} reduction), dropped mass {:.3e} | query \
             median {:.2}ms worst {:.2}ms ({} vs dense) | refinement median {:.1} iters / \
             {:.0} nnz | {}/{} certified, {} uncertifiable",
            s.eps,
            s.build_secs,
            s.inversion_secs,
            build_ratio,
            s.inverse_nnz,
            s.heap_bytes,
            byte_ratio,
            s.dropped_mass,
            1e3 * s.median_query_secs,
            1e3 * s.worst_query_secs,
            lat_ratio,
            s.median_refine_iters,
            s.median_refine_nnz,
            s.certified,
            s.certified + s.uncertifiable,
            s.uncertifiable,
        );
    }
    println!("sparsified_tier done: {} series, {} queries each", series.len(), queries.len());
}
