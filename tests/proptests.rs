//! Property-based tests over randomly generated graphs: the paper's
//! theorems as machine-checked invariants.

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::{IndexOptions, KdashIndex, LayerEstimator, NodeOrdering, Query, Restart, Stop};
use kdash_graph::{BfsTree, CsrGraph, GraphBuilder, NodeId, Permutation};
use kdash_sparse::{
    invert_lower_unit, invert_upper, sparse_lu, transition_matrix, w_matrix, DanglingPolicy,
};
use proptest::prelude::*;

/// Strategy: a random directed weighted graph with n in [2, 40] and a
/// controllable edge density. Self-loops are included deliberately: they
/// give nodes heterogeneous `c'` factors, which stresses the soundness of
/// the search's early-termination test.
fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (2usize..40)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec(
                (0..n as NodeId, 0..n as NodeId, 0.1f64..3.0),
                0..(n * 4),
            );
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                b.add_edge(u, v, w);
            }
            b.build().expect("generated edges are valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 2: the K-dash top-k proximity sequence equals the iterative one.
    #[test]
    fn kdash_matches_iterative((graph, q_sel, k_sel, c_pick) in
        (graph_strategy(), any::<u32>(), 1usize..10, 0usize..3)) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let k = k_sel.min(n);
        let c = [0.5, 0.8, 0.95][c_pick];
        let index = KdashIndex::build(
            &graph,
            IndexOptions { restart_probability: c, ..Default::default() },
        ).unwrap();
        let got = index.top_k(q, k).unwrap();
        let truth = IterativeRwr::new(&graph, c).top_k(q, k);
        prop_assert_eq!(got.items.len(), truth.len());
        for (g, t) in got.items.iter().zip(&truth) {
            prop_assert!((g.proximity - t.1).abs() < 1e-8,
                "proximity {} vs {}", g.proximity, t.1);
        }
    }

    /// Lemma 1: every estimator bound dominates the exact proximity along
    /// the real search order.
    #[test]
    fn estimator_bound_dominates(graph in graph_strategy(), q_sel in any::<u32>()) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let full = index.full_proximities(q).unwrap();
        // Recreate the visit order on the permuted graph.
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let col_max = a.col_max();
        let a_max = a.global_max();
        let c = index.restart_probability();
        let bfs = BfsTree::new(&graph, q);
        let mut est = LayerEstimator::new(a_max);
        for (pos, &u) in bfs.order.iter().enumerate() {
            let p = full[u as usize];
            if pos == 0 {
                est.record_root(p, col_max[u as usize]);
                continue;
            }
            let a_uu = a.get(u, u).unwrap_or(0.0);
            let c_prime = (1.0 - c) / (1.0 - a_uu + c * a_uu);
            let bound = c_prime * est.advance(bfs.layer[u as usize]);
            prop_assert!(bound >= p - 1e-9, "node {}: bound {} < p {}", u, bound, p);
            est.record_selected(bfs.layer[u as usize], p, col_max[u as usize]);
        }
    }

    /// LU correctness: the factors reproduce W (checked via solves).
    #[test]
    fn lu_solves_w_systems(graph in graph_strategy(), q_sel in any::<u32>()) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.9).unwrap();
        let f = sparse_lu(&w).unwrap();
        let mut e = vec![0.0; n];
        e[q as usize] = 1.0;
        let x = f.solve_dense(&e).unwrap();
        let recon = w.matvec(&x);
        for (i, (r, want)) in recon.iter().zip(&e).enumerate() {
            prop_assert!((r - want).abs() < 1e-8, "residual at {}: {}", i, r - want);
        }
    }

    /// The triangular inverses actually invert: L⁻¹ L = I on random columns.
    #[test]
    fn triangular_inverses_invert(graph in graph_strategy()) {
        let a = transition_matrix(&graph, DanglingPolicy::Keep);
        let w = w_matrix(&a, 0.85).unwrap();
        let f = sparse_lu(&w).unwrap();
        let linv = invert_lower_unit(&f.l).unwrap();
        let uinv = invert_upper(&f.u).unwrap();
        let n = graph.num_nodes();
        // (U⁻¹ (L⁻¹ b)) must solve W x = b for a dense RHS of ones.
        let ones = vec![1.0; n];
        let mut y = vec![0.0; n];
        // L has implicit unit diagonal; L⁻¹ carries it explicitly.
        for c in 0..n as NodeId {
            let (rows, vals) = linv.col(c);
            for (&r, &v) in rows.iter().zip(vals) {
                y[r as usize] += v * ones[c as usize];
            }
        }
        let x = uinv.matvec(&y);
        let recon = w.matvec(&x);
        for (i, r) in recon.iter().enumerate() {
            prop_assert!((r - 1.0).abs() < 1e-8, "row {}: {}", i, r);
        }
    }

    /// Proximity is invariant under relabeling: permuting the graph
    /// permutes the proximity vector.
    #[test]
    fn proximity_is_permutation_equivariant(
        graph in graph_strategy(), q_sel in any::<u32>(), seed in any::<u64>()) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let perm = Permutation::from_new_order(order).unwrap();
        let permuted = graph.permute(&perm).unwrap();

        let base = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let moved = KdashIndex::build(&permuted, IndexOptions::default()).unwrap();
        let p_base = base.full_proximities(q).unwrap();
        let p_moved = moved.full_proximities(perm.new_of(q)).unwrap();
        for v in 0..n as NodeId {
            prop_assert!(
                (p_base[v as usize] - p_moved[perm.new_of(v) as usize]).abs() < 1e-9);
        }
    }

    /// Orderings always yield valid bijections, and the index build
    /// succeeds for each (W is always non-singular).
    #[test]
    fn every_ordering_builds(graph in graph_strategy(), which in 0usize..5) {
        let ordering = [
            NodeOrdering::Natural,
            NodeOrdering::Degree,
            NodeOrdering::Hybrid,
            NodeOrdering::ReverseCuthillMcKee,
            NodeOrdering::MinDegree,
        ][which];
        let index = KdashIndex::build(&graph, IndexOptions { ordering, ..Default::default() });
        prop_assert!(index.is_ok(), "{:?} failed: {:?}", ordering, index.err());
    }

    /// Multi-source queries equal the average of the single-source
    /// solutions (linearity of the resolvent).
    #[test]
    fn multi_source_is_linear(graph in graph_strategy(), picks in any::<[u32; 3]>()) {
        let n = graph.num_nodes();
        let mut sources: Vec<NodeId> = picks.iter().map(|&p| (p as usize % n) as NodeId).collect();
        sources.sort_unstable();
        sources.dedup();
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let combined = index.full_proximities_from_set(&sources).unwrap();
        let mut average = vec![0.0; n];
        for &s in &sources {
            for (acc, v) in average.iter_mut().zip(index.full_proximities(s).unwrap()) {
                *acc += v / sources.len() as f64;
            }
        }
        for (i, (a, b)) in combined.iter().zip(&average).enumerate() {
            prop_assert!((a - b).abs() < 1e-10, "node {}: {} vs {}", i, a, b);
        }
    }

    /// Threshold queries return exactly the nodes at or above θ.
    #[test]
    fn threshold_queries_are_exact(
        graph in graph_strategy(), q_sel in any::<u32>(), theta_exp in 1u32..8) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let theta = 10f64.powi(-(theta_exp as i32));
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let got = index.run(&Query { restart: Restart::Node(q), stop: Stop::Above(theta) }).unwrap();
        let full = index.full_proximities(q).unwrap();
        let expect = full.iter().filter(|&&p| p >= theta).count();
        prop_assert_eq!(got.items.len(), expect);
        for item in &got.items {
            prop_assert!(item.proximity >= theta);
            prop_assert!((full[item.node as usize] - item.proximity).abs() < 1e-12);
        }
    }

    /// Save/load round-trips bit-exactly on arbitrary graphs.
    #[test]
    fn persistence_roundtrip(graph in graph_strategy(), q_sel in any::<u32>()) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        let a = index.top_k(q, 5.min(n)).unwrap();
        let b = loaded.top_k(q, 5.min(n)).unwrap();
        prop_assert_eq!(a.nodes(), b.nodes());
        for (x, y) in a.items.iter().zip(&b.items) {
            prop_assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
        }
    }

    /// Proximities are a (sub-)probability distribution and the query
    /// dominates under c = 0.95.
    #[test]
    fn proximities_form_subdistribution(graph in graph_strategy(), q_sel in any::<u32>()) {
        let n = graph.num_nodes();
        let q = (q_sel as usize % n) as NodeId;
        let index = KdashIndex::build(&graph, IndexOptions::default()).unwrap();
        let p = index.full_proximities(q).unwrap();
        let sum: f64 = p.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9, "sum {}", sum);
        prop_assert!(p.iter().all(|&x| x >= -1e-12), "negative proximity");
        for (v, &pv) in p.iter().enumerate() {
            if v != q as usize {
                prop_assert!(p[q as usize] >= pv - 1e-12, "query not maximal");
            }
        }
    }
}
