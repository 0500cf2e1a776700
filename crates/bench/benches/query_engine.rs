//! Query-engine headline benchmark: scatter/gather + `Searcher` reuse,
//! lazy BFS, the blocked `u16` `U⁻¹` encoding and prefetched candidate
//! batching.
//!
//! On a ~65k-node RMAT graph (the paper's Social/Email stand-in):
//!
//! * `kernel_hub/*`, `kernel_mixed/*`, `kernel_cold/*` — the gather in
//!   isolation over three row populations (hit-dominated hub candidates,
//!   a strided mix, and miss-dominated cold rows): the blocked gather the
//!   engine runs against the flat-CSR reference gather it is bit-identical
//!   to.
//! * `query_engine/*` — end-to-end top-k sweeps: the eager merge-join
//!   oracle (`kdash_harness::eager_merge_join`) and one reused lazy
//!   `Searcher`.
//! * `query_engine_k5/*` — the traversal-bound light-query series.
//!
//! The setup prints the index-bytes/nnz report, the lazy-frontier
//! counters, per-population stamp-hit rates and the per-query
//! gather-byte counters. `KDASH_BENCH_SCALE` overrides the RMAT scale
//! (default 16).

use criterion::{criterion_group, criterion_main, Criterion};
use kdash_core::{IndexOptions, KdashIndex, TopKResult};
use kdash_datagen::{rmat, RmatParams};
use kdash_graph::NodeId;
use kdash_harness::eager_merge_join;
use kdash_sparse::ScatteredColumn;

fn bench(c: &mut Criterion) {
    let scale: u32 = std::env::var("KDASH_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let n = 1usize << scale;
    let graph = rmat(scale, n * 4, RmatParams::default(), 42);
    let t0 = std::time::Instant::now();
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("index build");
    let blocked = index.uinv_rows();
    let flat = blocked.to_csr();
    println!(
        "query_engine setup: rmat scale {scale}: {} nodes, {} edges; index built in {:.1?} \
         (nnz L-inv {}, nnz U-inv {})",
        graph.num_nodes(),
        graph.num_edges(),
        t0.elapsed(),
        index.stats().nnz_l_inv,
        index.stats().nnz_u_inv,
    );
    println!(
        "index bytes/nnz: blocked {:.3} vs flat CSR 4.000 ({} runs)",
        blocked.index_bytes() as f64 / blocked.nnz() as f64,
        blocked.num_runs(),
    );

    // Deterministic query mix over non-dangling nodes: hubs and leaves both
    // appear, which is exactly the skew the engine must absorb. One
    // measured iteration sweeps the *whole* mix, so samples are comparable
    // (per-query latencies vary by orders of magnitude).
    let queries: Vec<NodeId> = kdash_bench::queries_for(&graph, 32);
    let k = 50;

    // Lazy-frontier counters plus the gather-byte counters over the mix.
    {
        let mut searcher = index.searcher();
        let (mut expanded, mut discovered, mut full, mut early) = (0usize, 0usize, 0usize, 0usize);
        let (mut bytes, mut val_bytes, mut rows) = (0usize, 0usize, 0usize);
        for &q in &queries {
            let lazy = searcher.top_k(q, k).expect("query");
            let eager = eager_merge_join(&index, &[q], k).expect("query");
            expanded += lazy.stats.frontier_expanded;
            discovered += lazy.stats.reachable;
            full += eager.stats.reachable;
            early += lazy.stats.terminated_early as usize;
            bytes += lazy.stats.bytes_touched;
            val_bytes += lazy.stats.value_bytes_touched;
            rows += lazy.stats.rows_scalar;
        }
        println!(
            "lazy frontier over {} queries (k={k}): expanded {expanded} / discovered \
             {discovered} / full reachable {full} ({} early-terminated); \
             traversal work = {:.1}% of eager",
            queries.len(),
            early,
            100.0 * expanded as f64 / full.max(1) as f64,
        );
        println!("gathers: rows {rows}; index bytes {bytes}, model value bytes {val_bytes}");
    }

    // Gather-level comparison, isolated from BFS and heap costs: the
    // *hub-most* query of the mix (densest scattered `L⁻¹` column — the
    // per-query cost profile the paper's skewed datasets stress) against
    // three row populations of the stored U⁻¹.
    let hub_query = *queries
        .iter()
        .max_by_key(|&&q| index.linv_query_column(q).0.len())
        .expect("non-empty query mix");
    let (col_idx, col_val) = index.linv_query_column(hub_query);
    println!("gather column: query {hub_query}, nnz(L⁻¹ e_q) = {}", col_idx.len());
    let mut column = ScatteredColumn::new(graph.num_nodes());
    column.load(col_idx, col_val);

    // Row populations:
    //  * mixed — a stride over all rows vs the hub column;
    //  * hub   — the 512 highest-overlap rows vs the hub column
    //            (hit-dominated);
    //  * cold  — the same dense rows against the *sparsest* query column
    //            of the mix (miss-dominated: big DRAM-resident rows,
    //            almost every stamp check fails).
    let mixed: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(7).collect();
    let mut by_overlap: Vec<(usize, usize, NodeId)> = (0..graph.num_nodes() as NodeId)
        .map(|r| {
            let (cols, _) = flat.row(r);
            let matched = cols.iter().filter(|&&c| column.get(c).is_some()).count();
            (matched, cols.len(), r)
        })
        .collect();
    by_overlap.sort_by_key(|&(matched, nnz, r)| (std::cmp::Reverse(matched), nnz, r));
    let hubs: Vec<NodeId> = by_overlap.iter().take(512).map(|&(_, _, r)| r).collect();

    let cold_query = *queries
        .iter()
        .filter(|&&q| index.linv_query_column(q).0.len() > 0)
        .min_by_key(|&&q| index.linv_query_column(q).0.len())
        .expect("non-empty query mix");
    let (cold_idx, cold_val) = index.linv_query_column(cold_query);
    println!("cold column: query {cold_query}, nnz(L⁻¹ e_q) = {}", cold_idx.len());
    let mut cold_column = ScatteredColumn::new(graph.num_nodes());
    cold_column.load(cold_idx, cold_val);

    // Per-population observability: the actual stamp-hit rate.
    for (label, rows, col) in [
        ("hub", &hubs, &column),
        ("mixed", &mixed, &column),
        ("cold", &hubs, &cold_column),
    ] {
        let (mut nnz_total, mut matched_total) = (0usize, 0usize);
        for &r in rows.iter() {
            let (cols, _) = flat.row(r);
            nnz_total += cols.len();
            matched_total += cols.iter().filter(|&&c| col.get(c).is_some()).count();
        }
        println!(
            "{label} rows: {} rows, avg nnz {:.0}, actual stamp-hit {:.1}%",
            rows.len(),
            nnz_total as f64 / rows.len().max(1) as f64,
            100.0 * matched_total as f64 / nnz_total.max(1) as f64,
        );
    }

    // The three gather series: blocked (the engine's gather) against the
    // flat-CSR reference.
    for (group_name, rows, col) in [
        ("kernel_hub", &hubs, &column),
        ("kernel_mixed", &mixed, &column),
        ("kernel_cold", &hubs, &cold_column),
    ] {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(30);
        if group_name == "kernel_mixed" {
            // Continuity with BENCH_PR1/PR3: the merge join over the mix,
            // on flat CSR.
            let rows = rows.clone();
            group.bench_function("merge_join", |b| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &r in &rows {
                        acc += flat.row_dot_sparse(r, col_idx, col_val);
                    }
                    std::hint::black_box(acc)
                });
            });
        }
        group.bench_function("flat_scalar", |b| {
            b.iter(|| {
                let acc: f64 = rows.iter().map(|&r| flat.row_dot_scattered(r, col)).sum();
                std::hint::black_box(acc)
            });
        });
        group.bench_function("blocked_scalar", |b| {
            b.iter(|| {
                let acc: f64 =
                    rows.iter().map(|&r| blocked.row_dot_scattered_counting(r, col).0).sum();
                std::hint::black_box(acc)
            });
        });
        group.finish();
    }

    let mut group = c.benchmark_group("query_engine");
    group.sample_size(20);

    group.bench_function("merge_join_transient", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += eager_merge_join(&index, &[q], k).expect("query").items.len();
            }
            std::hint::black_box(total)
        });
    });

    // The lazy production search on one reused Searcher.
    {
        let mut searcher = index.searcher();
        let mut out = TopKResult::default();
        group.bench_function("lazy_reused", |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    searcher.top_k_into(q, k, &mut out).expect("query");
                    total += out.items.len();
                }
                std::hint::black_box(total)
            });
        });
    }
    group.finish();

    // Light queries (k = 5): Lemma 2 fires after a couple of layers, so
    // the *traversal* — not the gather — is the per-query cost.
    let mut light = c.benchmark_group("query_engine_k5");
    light.sample_size(20);
    {
        let k_light = 5;
        let mut searcher = index.searcher();
        let (mut expanded, mut full) = (0usize, 0usize);
        let mut out = TopKResult::default();
        for &q in &queries {
            searcher.top_k_into(q, k_light, &mut out).expect("query");
            expanded += out.stats.frontier_expanded;
            full += eager_merge_join(&index, &[q], k_light).expect("query").stats.frontier_expanded;
        }
        println!(
            "k=5 frontier: lazy expands {expanded} nodes vs eager {full} \
             ({:.1}% of the eager traversal)",
            100.0 * expanded as f64 / full.max(1) as f64
        );
        light.bench_function("lazy_reused", |b| {
            b.iter(|| {
                let mut total = 0usize;
                for &q in &queries {
                    searcher.top_k_into(q, k_light, &mut out).expect("query");
                    total += out.items.len();
                }
                std::hint::black_box(total)
            });
        });
    }
    light.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
