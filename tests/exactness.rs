//! The paper's central claim (Theorem 2): K-dash returns the exact top-k
//! for every dataset shape, ordering, restart probability and K — verified
//! against the iterative definition of Equation (1).

use kdash_core::{IndexOptions, KdashIndex, NodeOrdering, Query, Restart, Stop};
use kdash_datagen::DatasetProfile;
use kdash_harness::{exact_top_k_scored, profile_graph, sample_queries};
use kdash_graph::NodeId;
use kdash_sparse::DanglingPolicy;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Compares the proximity sequences (ids may legitimately differ under
/// exact ties).
fn assert_same_proximities(
    got: &kdash_core::TopKResult,
    want: &[(kdash_graph::NodeId, f64)],
    context: &str,
) {
    assert_eq!(got.items.len(), want.len(), "{context}: length");
    for (g, w) in got.items.iter().zip(want) {
        assert!(
            (g.proximity - w.1).abs() < 1e-9,
            "{context}: proximity {} vs {}",
            g.proximity,
            w.1
        );
    }
}

#[test]
fn exact_on_every_dataset_profile() {
    for profile in DatasetProfile::ALL {
        let graph = profile_graph(profile, 400, 11);
        let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
        for q in sample_queries(&graph, 3) {
            for k in [1usize, 5, 25] {
                let result = index.top_k(q, k).expect("query");
                let truth = exact_top_k_scored(&graph, 0.95, q, k.min(graph.num_nodes()));
                assert_same_proximities(&result, &truth, &format!("{profile} q={q} k={k}"));
            }
        }
    }
}

#[test]
fn exact_for_every_ordering() {
    let graph = profile_graph(DatasetProfile::Dictionary, 350, 3);
    let q = sample_queries(&graph, 1)[0];
    let truth = exact_top_k_scored(&graph, 0.95, q, 10);
    for ordering in [
        NodeOrdering::Natural,
        NodeOrdering::Random { seed: 9 },
        NodeOrdering::Degree,
        NodeOrdering::Cluster,
        NodeOrdering::Hybrid,
        NodeOrdering::ReverseCuthillMcKee,
        NodeOrdering::MinDegree,
    ] {
        let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() })
            .expect("build");
        let result = index.top_k(q, 10).expect("query");
        assert_same_proximities(&result, &truth, ordering.name());
    }
}

#[test]
fn exact_across_restart_probabilities() {
    // §6.3.3: the pruning must stay correct for every proximity
    // distribution shape c induces.
    let graph = profile_graph(DatasetProfile::Citation, 300, 7);
    let q = sample_queries(&graph, 1)[0];
    for c in [0.5, 0.7, 0.9, 0.95, 0.99] {
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        )
        .expect("build");
        let result = index.top_k(q, 8).expect("query");
        let truth = exact_top_k_scored(&graph, c, q, 8);
        assert_same_proximities(&result, &truth, &format!("c={c}"));
    }
}

#[test]
fn pruned_and_unpruned_agree_everywhere() {
    let graph = profile_graph(DatasetProfile::Social, 400, 5);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    for q in sample_queries(&graph, 5) {
        let pruned = index.top_k(q, 10).expect("pruned");
        let unpruned = index
            .run(&Query { restart: Restart::Node(q), stop: Stop::Unpruned(10) })
            .expect("unpruned");
        for (a, b) in pruned.items.iter().zip(&unpruned.items) {
            assert!((a.proximity - b.proximity).abs() < 1e-12);
        }
        assert!(pruned.stats.proximity_computations <= unpruned.stats.proximity_computations);
    }
}

#[test]
fn random_root_variant_stays_exact() {
    let graph = profile_graph(DatasetProfile::Internet, 350, 9);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    let q = sample_queries(&graph, 1)[0];
    let reference = index.top_k(q, 5).expect("reference");
    for seed in 0..4u64 {
        let root = StdRng::seed_from_u64(seed).gen_range(0..graph.num_nodes()) as NodeId;
        let rr = index.searcher().top_k_from_root(q, 5, root).expect("random root");
        for (a, b) in reference.items.iter().zip(&rr.items) {
            assert!(
                (a.proximity - b.proximity).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                a.proximity,
                b.proximity
            );
        }
    }
}

#[test]
fn dangling_policies_are_both_exact() {
    // The Email profile has hubs and dangling nodes; exactness must hold
    // under both dangling treatments.
    let graph = profile_graph(DatasetProfile::Email, 400, 13);
    for policy in [DanglingPolicy::Keep, DanglingPolicy::SelfLoop] {
        let index = KdashIndex::build(
            &graph,
            IndexOptions { dangling: policy, ..Default::default() },
        )
        .expect("build");
        let q = sample_queries(&graph, 1)[0];
        let result = index.top_k(q, 10).expect("query");
        // Self-consistency: the returned proximities must match the
        // index's own full vector, which precompute.rs already ties to the
        // iterative ground truth for Keep.
        let full = index.full_proximities(q).expect("full");
        for item in &result.items {
            assert!((full[item.node as usize] - item.proximity).abs() < 1e-12);
        }
    }
}

#[test]
fn top_k_is_descending_and_unique() {
    let graph = profile_graph(DatasetProfile::Dictionary, 300, 21);
    let index = KdashIndex::build(&graph, IndexOptions::default()).expect("build");
    for q in sample_queries(&graph, 4) {
        let result = index.top_k(q, 20).expect("query");
        for w in result.items.windows(2) {
            assert!(w[0].proximity >= w[1].proximity, "not descending");
        }
        let mut ids = result.nodes();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), result.items.len(), "duplicate nodes in answer");
    }
}
