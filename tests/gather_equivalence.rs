//! The gather contract: every proximity the query engine computes is one
//! scalar, stamp-checked gather of a blocked `U⁻¹` row
//! (`BlockedCsr::row_dot_scattered_counting`) against the scattered
//! query column.
//!
//! * Property: across ER/BA/RMAT × orderings, on every row of the stored
//!   `U⁻¹` and several query columns, the blocked gather is
//!   **bit-identical** to the flat-CSR reference gather
//!   (`CsrMatrix::row_dot_scattered`) and to the merge join
//!   (`CsrMatrix::row_dot_sparse`), its hit count is the number of row
//!   entries the column holds, and an unpruned search's gather counters
//!   equal their formulas summed over the reachable rows.
//! * Search results match the iterative ground truth.
//! * The blocked encoding cuts index bytes by at least a quarter against
//!   flat CSR's 4 bytes/nnz.

use kdash_core::{IndexOptions, KdashIndex, NodeOrdering, Query, Restart, Stop};
use kdash_datagen::{barabasi_albert, erdos_renyi, rmat, RmatParams};
use kdash_graph::{BfsScratch, NodeId};
use kdash_harness::exact_top_k_scored;
use kdash_sparse::ScatteredColumn;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..3, 16usize..80, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            1 => barabasi_albert(n, density.min(n - 1).max(1), seed),
            _ => {
                let scale = 4 + (n % 3) as u32;
                rmat(scale, (1usize << scale) * density, RmatParams::default(), seed)
            }
        }
    })
}

fn ordering_for(which: usize) -> NodeOrdering {
    [
        NodeOrdering::Natural,
        NodeOrdering::Degree,
        NodeOrdering::Hybrid,
        NodeOrdering::ReverseCuthillMcKee,
    ][which % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gather_is_bit_identical_to_references((graph, q_sel, which) in
        (graph_strategy(), any::<u32>(), 0usize..4)) {
        let n = graph.num_nodes();
        let index = KdashIndex::build(&graph, IndexOptions {
            ordering: ordering_for(which),
            ..Default::default()
        }).unwrap();
        let blocked = index.uinv_rows();
        let flat = blocked.to_csr();
        let mut column = ScatteredColumn::new(n);
        let mut bfs = BfsScratch::new(n);
        for step in 0..3u32 {
            let q = ((q_sel as usize + 7 * step as usize) % n) as NodeId;
            let (idx, val) = index.linv_query_column(q);
            column.load(idx, val);

            // Row level: all three kernels agree bit for bit, and the hit
            // count is the number of row entries the column holds.
            let mut hits_of = vec![0usize; n];
            for r in 0..n as NodeId {
                let (got, hits) = blocked.row_dot_scattered_counting(r, &column);
                let reference = flat.row_dot_scattered(r, &column);
                let merge_join = flat.row_dot_sparse(r, idx, val);
                prop_assert_eq!(got.to_bits(), reference.to_bits(), "q {} row {}", q, r);
                prop_assert_eq!(got.to_bits(), merge_join.to_bits(), "q {} row {}", q, r);
                let (cols, _) = flat.row(r);
                let expect_hits = cols.iter().filter(|&&c| column.get(c).is_some()).count();
                prop_assert_eq!(hits, expect_hits, "q {} row {}", q, r);
                prop_assert_eq!(
                    blocked.row_index_bytes(r),
                    2 * blocked.row_nnz(r) + 8 * blocked.row_runs(r)
                );
                hits_of[r as usize] = hits;
            }

            // Search level: an unpruned search gathers every reachable row
            // exactly once, so its counters are the row formulas summed
            // over the reachable set.
            let qp = index.permutation().new_of(q);
            bfs.run(index.permuted_graph(), qp);
            let reached = bfs.order();
            let unpruned = Query { restart: Restart::Node(q), stop: Stop::Unpruned(n) };
            let stats = index.run(&unpruned).unwrap().stats;
            prop_assert_eq!(stats.rows_scalar, reached.len());
            prop_assert_eq!(stats.rows_wide, 0);
            prop_assert_eq!(stats.rows_scalar, stats.proximity_computations);
            prop_assert_eq!(
                stats.bytes_touched,
                reached.iter().map(|&u| blocked.row_index_bytes(u)).sum::<usize>()
            );
            prop_assert_eq!(
                stats.value_bytes_touched,
                reached.iter().map(|&u| 8 * hits_of[u as usize]).sum::<usize>()
            );
            prop_assert_eq!(
                stats.nnz_gathered,
                reached.iter().map(|&u| blocked.row_nnz(u)).sum::<usize>()
            );
        }
    }
}

/// Search results match the iterative ground truth.
#[test]
fn search_is_exact_against_iterative_ground_truth() {
    for seed in [3u64, 17] {
        let g = barabasi_albert(90, 3, seed);
        let index = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: 0.9, ..Default::default() },
        )
        .unwrap();
        let mut searcher = index.searcher();
        for q in [0u32, 41, 88] {
            let truth = exact_top_k_scored(&g, 0.9, q, 8);
            let got = searcher.top_k(q, 8).unwrap();
            assert_eq!(got.items.len(), truth.len());
            for (item, (_, want)) in got.items.iter().zip(&truth) {
                assert!(
                    (item.proximity - want).abs() < 1e-9,
                    "seed {seed} q {q}: {} vs ground truth {want}",
                    item.proximity
                );
            }
        }
    }
}

/// On fill-dominated triangular inverses the blocked encoding cuts
/// aggregate index bytes by at least 25 % against flat CSR's 4 bytes/nnz
/// (on sub-65 536-node matrices every non-empty row is a single run, so
/// the cut approaches 50 %).
#[test]
fn blocked_encoding_cuts_index_bytes_by_a_quarter() {
    for (label, graph) in [
        ("rmat-9", rmat(9, 2048, RmatParams::default(), 7)),
        ("ba-400", barabasi_albert(400, 4, 11)),
        ("er-300", erdos_renyi(300, 1500, 13)),
    ] {
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let flat_bytes = 4 * index.stats().nnz_u_inv;
        let blocked_bytes = index.stats().uinv_index_bytes;
        assert_eq!(blocked_bytes, index.uinv_rows().index_bytes(), "{label}");
        assert!(
            (blocked_bytes as f64) <= 0.75 * flat_bytes as f64,
            "{label}: blocked {blocked_bytes} B vs flat {flat_bytes} B \
             ({:.1}% — needs >= 25% reduction)",
            100.0 * (1.0 - blocked_bytes as f64 / flat_bytes as f64)
        );
    }
}
