//! Cross-crate integration: the claims the paper's evaluation makes about
//! the *system* (not just the algorithm) hold end-to-end on generated
//! datasets.

use kdash_core::{IndexOptions, KdashIndex, NodeOrdering, Query, Restart, Stop};
use kdash_datagen::{dictionary, DatasetProfile};
use kdash_eval::{precision_at_k, Table};
use kdash_graph::NodeId;
use kdash_harness::{exact_top_k, profile_graph, sample_queries};
use rand::{rngs::StdRng, Rng, SeedableRng};

#[test]
fn hybrid_ordering_beats_random_on_fill() {
    // Figure 5's shape: Degree/Cluster/Hybrid orderings produce far fewer
    // inverse nonzeros than Random on a community-structured graph.
    let graph = profile_graph(DatasetProfile::Dictionary, 500, 2);
    let build = |ordering| {
        KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
            .expect("build")
            .stats()
            .inverse_nnz_ratio()
    };
    let hybrid = build(NodeOrdering::Hybrid);
    let degree = build(NodeOrdering::Degree);
    let random = build(NodeOrdering::Random { seed: 4 });
    assert!(
        hybrid < random,
        "hybrid ratio {hybrid:.1} must beat random {random:.1}"
    );
    assert!(
        degree < random,
        "degree ratio {degree:.1} must beat random {random:.1}"
    );
}

#[test]
fn pruning_reduces_work_on_modular_graphs() {
    // Figure 7's shape: with pruning the search touches a fraction of the
    // graph.
    let graph = profile_graph(DatasetProfile::Dictionary, 600, 8);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let mut pruned_total = 0usize;
    let mut unpruned_total = 0usize;
    for q in sample_queries(&graph, 5) {
        pruned_total += index.top_k(q, 5).expect("q").stats.proximity_computations;
        let unpruned = Query { restart: Restart::Node(q), stop: Stop::Unpruned(5) };
        unpruned_total += index.run(&unpruned).expect("q").stats.proximity_computations;
    }
    assert!(
        pruned_total * 2 < unpruned_total,
        "pruning saved too little: {pruned_total} vs {unpruned_total}"
    );
}

#[test]
fn query_rooting_beats_random_rooting() {
    // Figure 9's shape: rooting the tree at the query needs fewer exact
    // proximity computations than rooting it anywhere else.
    let graph = profile_graph(DatasetProfile::Dictionary, 500, 10);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let mut query_rooted = 0usize;
    let mut random_rooted = 0usize;
    for (i, q) in sample_queries(&graph, 5).into_iter().enumerate() {
        query_rooted += index.top_k(q, 5).expect("q").stats.proximity_computations;
        let root = StdRng::seed_from_u64(i as u64).gen_range(0..graph.num_nodes()) as NodeId;
        random_rooted +=
            index.searcher().top_k_from_root(q, 5, root).expect("q").stats.proximity_computations;
    }
    assert!(
        query_rooted < random_rooted,
        "query rooting {query_rooted} should beat random rooting {random_rooted}"
    );
}

#[test]
fn kdash_precision_is_always_one() {
    // Figure 3's K-dash series: precision 1 everywhere, by construction.
    let graph = profile_graph(DatasetProfile::Citation, 350, 5);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    for q in sample_queries(&graph, 4) {
        let truth = exact_top_k(&graph, 0.95, q, 5);
        let got = index.top_k(q, 5).expect("q").nodes();
        let p = precision_at_k(&got, &truth, 5);
        assert!(
            (p - 1.0).abs() < 1e-12 || proximity_tie(&graph, &got, &truth),
            "precision {p} for q={q}"
        );
    }
}

/// Exact ties can swap ids between the two engines; verify the differing
/// ids carry equal proximities before accepting them.
fn proximity_tie(
    graph: &kdash_graph::CsrGraph,
    got: &[kdash_graph::NodeId],
    truth: &[kdash_graph::NodeId],
) -> bool {
    let engine = kdash_baselines::IterativeRwr::new(graph, 0.95);
    let q = truth[0];
    let p = engine.full(q);
    let differing: Vec<_> = got.iter().filter(|n| !truth.contains(n)).collect();
    let missing: Vec<_> = truth.iter().filter(|n| !got.contains(n)).collect();
    differing.len() == missing.len()
        && differing
            .iter()
            .zip(&missing)
            .all(|(a, b)| (p[**a as usize] - p[**b as usize]).abs() < 1e-9)
}

#[test]
fn dictionary_case_study_recovers_planted_clusters() {
    // Table 2's shape: for each planted head term, the exact top-5
    // (excluding the query itself) is dominated by its planted members.
    let data = dictionary(400, 6);
    let index = KdashIndex::build(&data.graph, IndexOptions::default()).expect("build");
    for cluster in &data.clusters {
        let head = cluster[0];
        let result = index.top_k(head, 6).expect("query");
        let answers: Vec<_> = result.nodes().into_iter().filter(|&n| n != head).collect();
        let planted = &cluster[1..];
        let hits = answers.iter().filter(|n| planted.contains(n)).count();
        assert!(
            hits >= 4,
            "head {} recovered only {hits}/5 planted members: {answers:?}",
            data.labels[head as usize]
        );
    }
}

#[test]
fn full_proximities_roundtrip_through_eval_table() {
    // Smoke-test the eval table against real rows (render only).
    let graph = profile_graph(DatasetProfile::Internet, 300, 3);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let mut table = Table::new(vec!["query", "top1", "proximity"]);
    for q in sample_queries(&graph, 3) {
        let r = index.top_k(q, 1).expect("q");
        table.add_row(vec![
            q.to_string(),
            r.items[0].node.to_string(),
            format!("{:.3e}", r.items[0].proximity),
        ]);
    }
    let rendered = table.render();
    assert_eq!(rendered.lines().count(), 2 + table.num_rows());
}

#[test]
fn index_memory_is_linear_in_edges_with_hybrid() {
    // The "Nimble" claim: inverse storage stays within a small multiple of
    // the edge count under hybrid ordering on modular graphs.
    let graph = profile_graph(DatasetProfile::Dictionary, 700, 17);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let ratio = index.stats().inverse_nnz_ratio();
    assert!(
        ratio < 60.0,
        "inverse nnz ratio {ratio:.1} looks super-linear (m = {})",
        graph.num_edges()
    );
}
