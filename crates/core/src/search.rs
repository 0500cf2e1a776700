//! The top-k search (Algorithm 4 of the paper) — public entry points.
//!
//! Nodes are visited in BFS-layer order from the query node. Each visited
//! node first receives the `O(1)` upper bound of Definition 2; if the bound
//! of the node about to be visited is below the current K-th candidate
//! proximity θ, the whole search terminates — Lemma 2 guarantees every
//! remaining node is bounded by the same value, so no answer can be missed
//! (Theorem 2). Surviving nodes get their exact proximity from the stored
//! sparse inverses.
//!
//! The production path expands the BFS frontier **lazily**, fused into the
//! search loop: early termination leaves every deeper layer undiscovered,
//! so [`SearchStats::reachable`] reports the discovered-so-far count on
//! early-terminated queries (exact reachability when the search runs to
//! completion) and [`SearchStats::frontier_expanded`] counts the nodes
//! actually expanded — see [`crate::SearchStats`] for the full contract.
//! The eager reference paths below ([`KdashIndex::top_k_merge_join`],
//! [`KdashIndex::top_k_from_set_replay`]) keep the original
//! whole-tree-first behaviour and full `reachable` counts.
//!
//! The algorithms live in [`crate::searcher`]: a [`Searcher`] holds the
//! reusable per-query state (epoch-stamped BFS buffers, the scattered
//! query column, the candidate heap) and serves every query kind. The
//! `KdashIndex` methods below are thin conveniences that run a transient
//! workspace per call — serving loops should hold a `Searcher` instead:
//!
//! * [`KdashIndex::top_k`] — the real algorithm,
//! * [`KdashIndex::top_k_unpruned`] — pruning disabled (Figure 7 ablation),
//! * [`KdashIndex::nodes_above`] — exact threshold queries,
//! * [`KdashIndex::top_k_from_set`] — restart sets (Personalized PageRank),
//! * [`KdashIndex::top_k_random_root`] — BFS tree rooted away from the
//!   query (Appendix D.1 / Figure 9 ablation). A tree rooted elsewhere
//!   breaks the layer structure Definition 1 needs, so this variant uses
//!   the weaker order-agnostic bound of
//!   [`ArbitraryOrderBound`](crate::ArbitraryOrderBound): still exact, can
//!   skip individual nodes, but can never terminate early — which is
//!   precisely why it performs many more proximity computations.
//!
//! [`KdashIndex::top_k_merge_join`] preserves the original per-candidate
//! merge-join kernel. It is deliberately *not* routed through the
//! [`Searcher`]: it is the independent reference implementation the
//! equivalence suite cross-checks the scatter/gather path against
//! (bit-identical proximities), and the baseline the `query_engine`
//! benchmark measures the new kernel's speedup from.

use crate::{KdashIndex, LayerEstimator, Result, SearchStats, Searcher};
use crate::searcher::TopKHeap;
use kdash_graph::{bfs::UNREACHABLE, BfsTree, NodeId};

/// One answer entry: a node and its exact RWR proximity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedNode {
    /// Node id in the caller's (original) id space.
    pub node: NodeId,
    /// Exact proximity `p_node` with respect to the query.
    pub proximity: f64,
}

/// The result of a top-k query.
#[derive(Debug, Clone, Default)]
pub struct TopKResult {
    /// Exactly `min(k, n)` nodes in descending proximity order.
    pub items: Vec<RankedNode>,
    /// Work counters for this query.
    pub stats: SearchStats,
}

impl TopKResult {
    /// Just the node ids, in rank order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.items.iter().map(|r| r.node).collect()
    }
}

impl KdashIndex {
    /// A reusable query workspace over this index — the preferred way to
    /// serve many queries (see [`Searcher`]).
    pub fn searcher(&self) -> Searcher<'_> {
        Searcher::new(self)
    }

    /// Exact top-k search (Algorithm 4). Returns `min(k, n)` nodes in
    /// descending proximity order; when fewer than `k` nodes are reachable
    /// the remainder is padded with unreachable nodes at proximity 0.
    ///
    /// Convenience wrapper over a transient [`Searcher`]; hold one
    /// yourself to amortise the `O(n)` workspace setup across queries.
    pub fn top_k(&self, q: NodeId, k: usize) -> Result<TopKResult> {
        self.searcher().top_k(q, k)
    }

    /// Algorithm 4 with the termination test removed: computes the exact
    /// proximity of every reachable node. This is the "Without pruning"
    /// series of Figure 7.
    pub fn top_k_unpruned(&self, q: NodeId, k: usize) -> Result<TopKResult> {
        self.searcher().top_k_unpruned(q, k)
    }

    /// Exact *threshold* query: every node whose proximity is at least
    /// `theta`, in descending order. Non-positive or non-finite `theta`
    /// returns [`KdashError::InvalidThreshold`](crate::KdashError).
    pub fn nodes_above(&self, q: NodeId, theta: f64) -> Result<TopKResult> {
        self.searcher().nodes_above(q, theta)
    }

    /// Exact top-k for a *restart set*: the walk restarts uniformly over
    /// `sources` (Personalized PageRank in the sense of the paper's
    /// footnote 6).
    pub fn top_k_from_set(&self, sources: &[NodeId], k: usize) -> Result<TopKResult> {
        self.searcher().top_k_from_set(sources, k)
    }

    /// The Appendix D.1 ablation: the search tree is rooted at a random
    /// node instead of the query.
    pub fn top_k_random_root(&self, q: NodeId, k: usize, seed: u64) -> Result<TopKResult> {
        self.searcher().top_k_random_root(q, k, seed)
    }

    /// Random-root search with an explicit root (exposed for tests).
    pub fn top_k_from_root(&self, q: NodeId, k: usize, root: NodeId) -> Result<TopKResult> {
        self.searcher().top_k_from_root(q, k, root)
    }

    /// The original Algorithm 4 implementation with the per-candidate
    /// merge-join proximity kernel (`O(nnz(row) + nnz(col))` per node),
    /// per-query buffer allocation, and the **eager** BFS tree (the whole
    /// reachable set is enumerated up front — its `reachable` is always
    /// the full count and `frontier_expanded` equals it, unlike the lazy
    /// production path, which stops discovering on early termination).
    ///
    /// Kept as the independent exactness reference for the scatter/gather
    /// path and the lazy driver's oracle: results must be bit-identical to
    /// [`top_k`](Self::top_k), and
    /// `tests/query_engine_equivalence.rs` plus the `query_engine`
    /// benchmark hold the two implementations against each other.
    pub fn top_k_merge_join(&self, q: NodeId, k: usize) -> Result<TopKResult> {
        self.check_node(q)?;
        // Mirror the Searcher's k = 0 short-circuit so the two paths stay
        // comparable down to their work counters.
        if k == 0 {
            return Ok(TopKResult::default());
        }
        if self.needs_refinement() {
            // The merge join reads raw sparsified rows, so its "reference"
            // values would be approximate — route through the certified
            // searcher instead. The equivalence contract on sparsified
            // tiers is set-and-order, not bitwise.
            return self.searcher().top_k(q, k);
        }
        let qp = self.permutation().new_of(q);
        let bfs = BfsTree::new(self.permuted_graph(), qp);
        let (col_idx, col_val) = self.linv().col(qp);
        let c = self.restart_probability();

        let mut heap = TopKHeap::new(k);
        let mut estimator = LayerEstimator::new(self.a_max());
        // Eager semantics: the whole tree exists before the search starts.
        let mut stats = SearchStats {
            reachable: bfs.num_reachable(),
            frontier_expanded: bfs.num_reachable(),
            ..Default::default()
        };

        for (pos, &u) in bfs.order.iter().enumerate() {
            stats.visited += 1;
            let layer = bfs.layer[u as usize];
            if pos == 0 {
                let p = c * self.uinv().row_dot_sparse(u, col_idx, col_val);
                stats.proximity_computations += 1;
                estimator.record_root(p, self.a_col_max()[u as usize]);
                heap.offer(p, u);
                continue;
            }
            let terms = estimator.advance(layer);
            if heap.is_full() && self.c_prime_max() * terms < heap.threshold() {
                stats.terminated_early = true;
                break;
            }
            let p = c * self.uinv().row_dot_sparse(u, col_idx, col_val);
            stats.proximity_computations += 1;
            estimator.record_selected(layer, p, self.a_col_max()[u as usize]);
            heap.offer(p, u);
        }

        // Same epilogue as the Searcher: rank order, original ids, padded
        // with unreachable nodes (which can never collide with heap
        // entries — those are all reachable).
        let mut items: Vec<RankedNode> = heap
            .sorted_entries()
            .iter()
            .map(|&(p, u)| RankedNode { node: self.permutation().old_of(u), proximity: p })
            .collect();
        if items.len() < k {
            for v in 0..self.num_nodes() as NodeId {
                if items.len() >= k {
                    break;
                }
                if bfs.layer[v as usize] == UNREACHABLE {
                    items.push(RankedNode {
                        node: self.permutation().old_of(v),
                        proximity: 0.0,
                    });
                }
            }
        }
        Ok(TopKResult { items, stats })
    }

    /// The eager-BFS, merge-join replay of
    /// [`top_k_from_set`](Self::top_k_from_set): the multi-root tree
    /// ([`BfsTree::new_multi`]) is built in full before the search starts
    /// and every proximity is a two-pointer merge join. The multi-root
    /// counterpart of [`top_k_merge_join`](Self::top_k_merge_join), kept
    /// (hidden) as the oracle the lazy restart-set search is property-
    /// tested against: results are bit-identical, and `visited`/`proximity_computations`/`terminated_early` agree,
    /// while `reachable`/`frontier_expanded` carry the eager semantics
    /// (always the full reachable count).
    #[doc(hidden)]
    pub fn top_k_from_set_replay(&self, sources: &[NodeId], k: usize) -> Result<TopKResult> {
        let (col_idx, col_val) = self.merged_query_column(sources)?;
        if k == 0 {
            return Ok(TopKResult::default());
        }
        if self.needs_refinement() {
            // Same routing as `top_k_merge_join`: raw sparsified gathers
            // cannot serve as a reference, the certified path can.
            return self.searcher().top_k_from_set(sources, k);
        }
        let roots: Vec<NodeId> =
            sources.iter().map(|&s| self.permutation().new_of(s)).collect();
        let bfs = BfsTree::new_multi(self.permuted_graph(), &roots);
        let c = self.restart_probability();

        let mut heap = TopKHeap::new(k);
        let mut estimator = LayerEstimator::new(self.a_max());
        let mut stats = SearchStats {
            reachable: bfs.num_reachable(),
            frontier_expanded: bfs.num_reachable(),
            ..Default::default()
        };

        for (pos, &u) in bfs.order.iter().enumerate() {
            stats.visited += 1;
            let layer = bfs.layer[u as usize];
            if layer == 0 {
                let p = c * self.uinv().row_dot_sparse(u, &col_idx, &col_val);
                stats.proximity_computations += 1;
                if pos > 0 {
                    let _ = estimator.advance(0);
                }
                estimator.record_selected(0, p, self.a_col_max()[u as usize]);
                heap.offer(p, u);
                continue;
            }
            let terms = estimator.advance(layer);
            if heap.is_full() && self.c_prime_max() * terms < heap.threshold() {
                stats.terminated_early = true;
                break;
            }
            let p = c * self.uinv().row_dot_sparse(u, &col_idx, &col_val);
            stats.proximity_computations += 1;
            estimator.record_selected(layer, p, self.a_col_max()[u as usize]);
            heap.offer(p, u);
        }

        let mut items: Vec<RankedNode> = heap
            .sorted_entries()
            .iter()
            .map(|&(p, u)| RankedNode { node: self.permutation().old_of(u), proximity: p })
            .collect();
        if items.len() < k {
            for v in 0..self.num_nodes() as NodeId {
                if items.len() >= k {
                    break;
                }
                if bfs.layer[v as usize] == UNREACHABLE {
                    items.push(RankedNode {
                        node: self.permutation().old_of(v),
                        proximity: 0.0,
                    });
                }
            }
        }
        Ok(TopKResult { items, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexOptions, KdashError, KdashIndex, NodeOrdering};
    use kdash_graph::{CsrGraph, GraphBuilder};
    use kdash_sparse::{rwr::rwr_step, transition_matrix, DanglingPolicy};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_graph(n: usize, avg_deg: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            for _ in 0..rng.gen_range(1..=avg_deg * 2) {
                let t = rng.gen_range(0..n);
                if t != v {
                    b.add_edge(v as NodeId, t as NodeId, rng.gen_range(0.5..2.0));
                }
            }
        }
        b.build().unwrap()
    }

    fn iterative_top_k(g: &CsrGraph, c: f64, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        let a = transition_matrix(g, DanglingPolicy::Keep);
        let n = g.num_nodes();
        let mut p = vec![0.0; n];
        p[q as usize] = 1.0;
        let mut next = vec![0.0; n];
        for _ in 0..3000 {
            rwr_step(&a, c, q, &p, &mut next);
            std::mem::swap(&mut p, &mut next);
        }
        let mut pairs: Vec<(NodeId, f64)> =
            p.iter().enumerate().map(|(i, &v)| (i as NodeId, v)).collect();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }

    /// The exactness contract: the returned proximity multiset must match
    /// the iterative ground truth (ids may differ under exact ties).
    fn assert_matches_ground_truth(result: &TopKResult, truth: &[(NodeId, f64)]) {
        assert_eq!(result.items.len(), truth.len());
        for (got, want) in result.items.iter().zip(truth) {
            assert!(
                (got.proximity - want.1).abs() < 1e-9,
                "proximity mismatch: {} vs {}",
                got.proximity,
                want.1
            );
        }
    }

    #[test]
    fn exact_against_iterative_many_graphs() {
        for seed in 0..5u64 {
            let g = random_graph(60, 3, seed);
            let index = KdashIndex::build(
                &g,
                IndexOptions { restart_probability: 0.9, ..Default::default() },
            )
            .unwrap();
            for q in [0u32, 17, 42] {
                for k in [1usize, 5, 12] {
                    let result = index.top_k(q, k).unwrap();
                    let truth = iterative_top_k(&g, 0.9, q, k);
                    assert_matches_ground_truth(&result, &truth);
                }
            }
        }
    }

    #[test]
    fn query_node_ranks_first_under_high_restart() {
        let g = random_graph(40, 3, 9);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        for q in 0..40u32 {
            let r = index.top_k(q, 3).unwrap();
            assert_eq!(r.items[0].node, q, "c = 0.95 makes the query dominate");
        }
    }

    #[test]
    fn unpruned_agrees_with_pruned() {
        let g = random_graph(80, 4, 3);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        for q in [2u32, 31, 77] {
            let a = index.top_k(q, 8).unwrap();
            let b = index.top_k_unpruned(q, 8).unwrap();
            for (x, y) in a.items.iter().zip(&b.items) {
                assert!((x.proximity - y.proximity).abs() < 1e-12);
            }
            // Pruning can only reduce work.
            assert!(a.stats.proximity_computations <= b.stats.proximity_computations);
        }
    }

    #[test]
    fn merge_join_reference_is_bit_identical() {
        for seed in [0u64, 4, 8] {
            let g = random_graph(90, 4, seed);
            let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
            let mut searcher = index.searcher();
            for q in [0u32, 33, 71] {
                for k in [1usize, 6, 90, 120] {
                    let new = searcher.top_k(q, k).unwrap();
                    let old = index.top_k_merge_join(q, k).unwrap();
                    assert_eq!(new.items.len(), old.items.len());
                    for (x, y) in new.items.iter().zip(&old.items) {
                        assert_eq!(x.node, y.node, "seed {seed} q {q} k {k}");
                        assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                    }
                    // Work counters agree; the traversal counters follow
                    // lazy vs eager semantics (see SearchStats::reachable).
                    assert_eq!(new.stats.visited, old.stats.visited);
                    assert_eq!(
                        new.stats.proximity_computations,
                        old.stats.proximity_computations
                    );
                    assert_eq!(new.stats.terminated_early, old.stats.terminated_early);
                    assert_eq!(old.stats.frontier_expanded, old.stats.reachable);
                    if new.stats.terminated_early {
                        assert!(new.stats.reachable <= old.stats.reachable);
                        assert!(
                            new.stats.frontier_expanded < new.stats.reachable,
                            "early termination must leave the last layer unexpanded"
                        );
                    } else {
                        // The merge join never runs the gather kernel, so
                        // its byte counters stay zero — everything else
                        // must agree exactly on complete runs.
                        assert_eq!(
                            new.stats.without_gather(),
                            old.stats.without_gather(),
                            "full runs agree exactly"
                        );
                        assert!(new.stats.bytes_touched > 0, "gather path must account bytes");
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_terminates_early_on_community_graphs() {
        // A graph with strong locality: pruning must kick in.
        let mut b = GraphBuilder::new(300);
        for blk in 0..30 {
            let base = blk * 10;
            for i in 0..10u32 {
                for j in 0..10u32 {
                    if i != j {
                        b.add_edge(base + i, base + j, 1.0);
                    }
                }
            }
            let next = ((blk + 1) % 30) * 10;
            b.add_edge(base, next, 0.1);
        }
        let g = b.build().unwrap();
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let r = index.top_k(5, 5).unwrap();
        assert!(r.stats.terminated_early, "expected early termination");
        assert!(
            r.stats.proximity_computations < g.num_nodes(),
            "visited {} of {}",
            r.stats.proximity_computations,
            g.num_nodes()
        );
        // And still exact.
        let truth = iterative_top_k(&g, 0.95, 5, 5);
        assert_matches_ground_truth(&r, &truth);
    }

    #[test]
    fn random_root_is_exact_but_works_harder() {
        let g = random_graph(100, 4, 7);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        for q in [4u32, 55] {
            let normal = index.top_k(q, 5).unwrap();
            for root in [0u32, 50, 99] {
                let rr = index.top_k_from_root(q, 5, root).unwrap();
                for (x, y) in normal.items.iter().zip(&rr.items) {
                    assert!(
                        (x.proximity - y.proximity).abs() < 1e-9,
                        "root {root}: {} vs {}",
                        x.proximity,
                        y.proximity
                    );
                }
                assert!(rr.stats.proximity_computations >= normal.stats.proximity_computations);
            }
        }
    }

    #[test]
    fn k_larger_than_reachable_pads_with_zeros() {
        // 0 -> 1 -> 2, node 3 isolated.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build().unwrap();
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let r = index.top_k(0, 4).unwrap();
        assert_eq!(r.items.len(), 4);
        assert_eq!(r.items[3].proximity, 0.0);
        assert_eq!(r.items[3].node, 3);
        assert_eq!(r.stats.reachable, 3);
    }

    #[test]
    fn k_zero_and_k_equals_n() {
        let g = random_graph(25, 3, 1);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(index.top_k(0, 0).unwrap().items.is_empty());
        let all = index.top_k(0, 25).unwrap();
        assert_eq!(all.items.len(), 25);
        let truth = iterative_top_k(&g, 0.95, 0, 25);
        assert_matches_ground_truth(&all, &truth);
    }

    #[test]
    fn results_identical_across_orderings() {
        let g = random_graph(70, 3, 12);
        let mut reference: Option<Vec<f64>> = None;
        for ordering in [
            NodeOrdering::Natural,
            NodeOrdering::Random { seed: 5 },
            NodeOrdering::Degree,
            NodeOrdering::Cluster,
            NodeOrdering::Hybrid,
            NodeOrdering::ReverseCuthillMcKee,
            NodeOrdering::MinDegree,
        ] {
            let index =
                KdashIndex::build(&g, IndexOptions { ordering, ..Default::default() }).unwrap();
            let r = index.top_k(11, 6).unwrap();
            let proximities: Vec<f64> = r.items.iter().map(|i| i.proximity).collect();
            match &reference {
                None => reference = Some(proximities),
                Some(expect) => {
                    for (a, b) in proximities.iter().zip(expect) {
                        assert!((a - b).abs() < 1e-9, "{ordering:?}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn estimator_upper_bounds_hold_during_search() {
        // Instrument a manual replay of the search loop: every bound must
        // dominate the node's exact proximity (Lemma 1).
        let g = random_graph(50, 3, 21);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let q = 13u32;
        let qp = index.permutation().new_of(q);
        let bfs = BfsTree::new(index.permuted_graph(), qp);
        let (ci, cv) = index.linv().col(qp);
        let c = index.restart_probability();
        let mut est = LayerEstimator::new(index.a_max());
        for (pos, &u) in bfs.order.iter().enumerate() {
            let p = c * index.uinv().row_dot_sparse(u, ci, cv);
            if pos == 0 {
                est.record_root(p, index.a_col_max()[u as usize]);
                continue;
            }
            let layer = bfs.layer[u as usize];
            let bound = index.c_prime()[u as usize] * est.advance(layer);
            assert!(
                bound >= p - 1e-12,
                "Lemma 1 violated at node {u}: bound {bound} < p {p}"
            );
            est.record_selected(layer, p, index.a_col_max()[u as usize]);
        }
    }

    #[test]
    fn threshold_query_matches_filtered_ground_truth() {
        let g = random_graph(80, 3, 14);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        for q in [0u32, 25, 77] {
            let full = index.full_proximities(q).unwrap();
            for theta in [1e-2, 1e-4, 1e-7] {
                let got = index.nodes_above(q, theta).unwrap();
                let mut expect: Vec<(NodeId, f64)> = full
                    .iter()
                    .enumerate()
                    .filter(|&(_, &p)| p >= theta)
                    .map(|(i, &p)| (i as NodeId, p))
                    .collect();
                expect.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                assert_eq!(got.items.len(), expect.len(), "q={q} theta={theta}");
                for (g_, e) in got.items.iter().zip(&expect) {
                    assert!((g_.proximity - e.1).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn threshold_query_terminates_early_for_high_theta() {
        let g = random_graph(200, 4, 15);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let r = index.nodes_above(5, 0.05).unwrap();
        assert!(r.stats.terminated_early);
        assert!(r.stats.proximity_computations < 200);
        // The query itself always clears any theta <= c.
        assert_eq!(r.items[0].node, 5);
    }

    #[test]
    fn threshold_query_rejects_nonpositive_theta() {
        // A library query API must not panic on bad input: non-positive
        // and non-finite thresholds come back as typed errors.
        let g = random_graph(10, 2, 16);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        for theta in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            match index.nodes_above(0, theta) {
                Err(KdashError::InvalidThreshold { .. }) => {}
                other => panic!("theta {theta}: expected InvalidThreshold, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_source_matches_averaged_singles() {
        // Linearity: the restart-set vector is the average of the
        // single-source vectors, so its top-k must match the top-k of the
        // averaged iterative solutions.
        let g = random_graph(70, 3, 31);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let sources = [3u32, 40, 66];
        let n = g.num_nodes();
        let mut avg = vec![0.0; n];
        for &s in &sources {
            let a = transition_matrix(&g, DanglingPolicy::Keep);
            let mut p = vec![0.0; n];
            p[s as usize] = 1.0;
            let mut next = vec![0.0; n];
            for _ in 0..3000 {
                rwr_step(&a, 0.95, s, &p, &mut next);
                std::mem::swap(&mut p, &mut next);
            }
            for (acc, v) in avg.iter_mut().zip(&p) {
                *acc += v / sources.len() as f64;
            }
        }
        // Full-vector check.
        let full = index.full_proximities_from_set(&sources).unwrap();
        for (i, (a, b)) in full.iter().zip(&avg).enumerate() {
            assert!((a - b).abs() < 1e-9, "node {i}: {a} vs {b}");
        }
        // Search check: proximities of the returned top-k match the truth.
        let mut truth: Vec<(NodeId, f64)> =
            avg.iter().enumerate().map(|(i, &v)| (i as NodeId, v)).collect();
        truth.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        let result = index.top_k_from_set(&sources, 8).unwrap();
        for (got, want) in result.items.iter().zip(&truth) {
            assert!(
                (got.proximity - want.1).abs() < 1e-9,
                "{} vs {}",
                got.proximity,
                want.1
            );
        }
    }

    #[test]
    fn multi_source_singleton_equals_top_k() {
        let g = random_graph(50, 3, 8);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let a = index.top_k(7, 6).unwrap();
        let b = index.top_k_from_set(&[7], 6).unwrap();
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.node, y.node);
            assert!((x.proximity - y.proximity).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_source_validates_input() {
        let g = random_graph(20, 3, 5);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(matches!(
            index.top_k_from_set(&[], 3),
            Err(crate::KdashError::InvalidRestartSet { .. })
        ));
        assert!(matches!(
            index.top_k_from_set(&[1, 1], 3),
            Err(crate::KdashError::InvalidRestartSet { .. })
        ));
        // An out-of-range member is a node error, not a set-shape error.
        assert!(matches!(
            index.top_k_from_set(&[99], 3),
            Err(crate::KdashError::NodeOutOfBounds { node: 99, .. })
        ));
    }
}
