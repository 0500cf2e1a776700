//! The query-engine equivalence contract, post-lazy-BFS:
//!
//! * every `Restart × Stop` pair of `Searcher::run` is pinned to an
//!   independent reference: `TopK` and `Unpruned` return **bit-identical**
//!   items — and `TopK` identical work counters — to the eager merge-join
//!   oracle (`kdash_harness::eager_merge_join`), and `Above` returns
//!   exactly the full proximity vector's entries at or above θ. (The
//!   gather visits exactly the merge join's matching pairs in the same
//!   ascending-column order.)
//! * the **traversal counters** differ by design: the oracle enumerates
//!   the whole reachable set up front (`reachable` =
//!   `frontier_expanded` = full count), while the lazy path stops
//!   discovering at early termination — `reachable` is then the
//!   discovered-so-far count and `frontier_expanded` is strictly below it
//!   (the death layer was discovered, never expanded). When a search runs
//!   to completion the two paths must agree exactly.
//! * the convenience `KdashIndex::top_k` returns the oracle's items bit
//!   for bit.

use kdash_core::{IndexOptions, KdashIndex, NodeOrdering, Query, Restart, Stop};
use kdash_datagen::{barabasi_albert, erdos_renyi};
use kdash_graph::NodeId;
use kdash_harness::{
    check_every_stop, check_items_bit_identical, check_lazy_vs_eager, eager_merge_join,
};
use proptest::prelude::*;

/// Strategy over the two generator families the paper's datasets span:
/// ER (flat degrees) and BA (heavy-tailed hubs), with sizes small enough
/// to build dozens of indexes per run.
fn graph_strategy() -> impl Strategy<Value = kdash_graph::CsrGraph> {
    (0usize..2, 12usize..90, 1usize..5, any::<u64>()).prop_map(|(family, n, density, seed)| {
        match family {
            0 => erdos_renyi(n, n * density, seed),
            _ => barabasi_albert(n, density.min(n - 1).max(1), seed),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every `Restart × Stop` pair against its reference, bit for bit
    /// where the reference is the merge join, with the traversal counters
    /// obeying the lazy/eager contract.
    #[test]
    fn searcher_matches_merge_join((graph, q_sel, k_sel, c_pick) in
        (graph_strategy(), any::<u32>(), 0usize..12, 0usize..3),
        (picks, theta_exp) in (proptest::collection::vec(any::<u32>(), 2..4), 2u32..7)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let mut set: Vec<NodeId> = picks.iter().map(|&p| (p as usize % n) as NodeId).collect();
        set.sort_unstable();
        set.dedup();
        let c = [0.5, 0.8, 0.95][c_pick];
        let theta = 10f64.powi(-(theta_exp as i32));
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        ).unwrap();
        let mut searcher = index.searcher();
        for k in [k_sel, n / 2, n + 3] {
            let new = searcher.top_k(q, k).unwrap();
            let old = eager_merge_join(&index, &[q], k).unwrap();
            if let Err(msg) = check_lazy_vs_eager(&new, &old) {
                prop_assert!(false, "n={} q={} k={}: {}", n, q, k, msg);
            }
            for sources in [&[q][..], &set] {
                if let Err(msg) = check_every_stop(&index, sources, k, theta) {
                    prop_assert!(false, "n={} sources={:?} k={}: {}", n, sources, k, msg);
                }
            }
        }
    }

    /// A single reused Searcher replays a whole query stream bit-identically
    /// to the merge-join reference — reuse must not leak state, lazy
    /// frontier cursors included.
    #[test]
    fn reused_searcher_matches_merge_join((graph, k_sel) in (graph_strategy(), 1usize..8)) {
        let n = graph.num_nodes();
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut searcher = index.searcher();
        for q in (0..n as NodeId).step_by(7) {
            let new = searcher.top_k(q, k_sel).unwrap();
            let old = eager_merge_join(&index, &[q], k_sel).unwrap();
            if let Err(msg) = check_lazy_vs_eager(&new, &old) {
                prop_assert!(false, "n={} q={} k={}: {}", n, q, k_sel, msg);
            }
        }
    }

    /// The ordering permutation changes the inverse patterns and the visit
    /// order; equivalence must survive all of them.
    #[test]
    fn equivalence_holds_across_orderings((graph, q_sel, which) in
        (graph_strategy(), any::<u32>(), 0usize..4)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let ordering = [
            NodeOrdering::Natural,
            NodeOrdering::Degree,
            NodeOrdering::Hybrid,
            NodeOrdering::ReverseCuthillMcKee,
        ][which];
        let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
            .unwrap();
        let new = index.searcher().top_k(q, 10).unwrap();
        let old = eager_merge_join(&index, &[q], 10).unwrap();
        if let Err(msg) = check_lazy_vs_eager(&new, &old) {
            prop_assert!(false, "{:?} n={} q={}: {}", ordering, n, q, msg);
        }
    }

    /// The convenience `KdashIndex::top_k` (a transient `Searcher`)
    /// returns the merge join's items bit for bit.
    #[test]
    fn index_top_k_is_bit_identical_to_merge_join((graph, q_sel) in
        (graph_strategy(), any::<u32>())) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let new = index.top_k(q, 10).unwrap();
        let old = eager_merge_join(&index, &[q], 10).unwrap();
        if let Err(msg) = check_items_bit_identical(&new, &old) {
            prop_assert!(false, "n={} q={}: {}", n, q, msg);
        }
    }

    /// The unpruned and threshold stops agree with the full proximity
    /// vector, from a node and from a restart set.
    #[test]
    fn other_entry_points_match_full_vector((graph, q_sel, theta_exp) in
        (graph_strategy(), any::<u32>(), 2u32..7)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let set = [q, (q + 1) % n as NodeId];
        for restart in [Restart::Node(q), Restart::Set(&set)] {
            let full = match restart {
                Restart::Node(q) => index.full_proximities(q).unwrap(),
                Restart::Set(s) => index.full_proximities_from_set(s).unwrap(),
            };
            let unpruned = index.run(&Query { restart, stop: Stop::Unpruned(n) }).unwrap();
            // Unpruned searches always run to completion: full reachability.
            prop_assert_eq!(unpruned.stats.frontier_expanded, unpruned.stats.reachable);
            prop_assert!(!unpruned.stats.terminated_early);
            for item in &unpruned.items {
                let want = full[item.node as usize];
                prop_assert!(
                    (item.proximity - want).abs() < 1e-12,
                    "{:?} unpruned node {}: {} vs {}", restart, item.node, item.proximity, want
                );
            }

            let theta = 10f64.powi(-(theta_exp as i32));
            let above = index.run(&Query { restart, stop: Stop::Above(theta) }).unwrap();
            let expect = full.iter().filter(|&&p| p >= theta).count();
            prop_assert_eq!(above.items.len(), expect, "{:?}", restart);
        }
    }
}
