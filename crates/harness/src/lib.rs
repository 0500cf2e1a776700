//! # kdash-harness
//!
//! Hosts the workspace-level integration tests (`/tests`) and runnable
//! examples (`/examples`), plus the helpers they share: ground truth by
//! power iteration, query sampling, the index bit-identity check, and
//! the reference oracle every dense query answer is pinned against —
//! [`eager_merge_join`], the original Algorithm 4 with an eager BFS tree
//! and a two-pointer merge-join proximity kernel, kept out of the
//! library so the library ships one query engine.

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::{
    KdashIndex, LayerEstimator, Query, RankedNode, Restart, SearchStats, Stop, TopKResult,
};
use kdash_datagen::DatasetProfile;
use kdash_graph::{bfs::UNREACHABLE, BfsTree, CsrGraph, NodeId};

/// Generates a dataset profile scaled to roughly `target_nodes` nodes.
pub fn profile_graph(profile: DatasetProfile, target_nodes: usize, seed: u64) -> CsrGraph {
    profile.generate(profile.scale_for_nodes(target_nodes), seed)
}

/// Exact ground-truth top-k via power iteration (node ids only).
pub fn exact_top_k(graph: &CsrGraph, c: f64, q: NodeId, k: usize) -> Vec<NodeId> {
    IterativeRwr::new(graph, c).top_k(q, k).into_iter().map(|(n, _)| n).collect()
}

/// Exact ground-truth top-k with proximities.
pub fn exact_top_k_scored(graph: &CsrGraph, c: f64, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
    IterativeRwr::new(graph, c).top_k(q, k)
}

/// The reference top-k oracle: Algorithm 4 from the restart set
/// `sources` (a single root is a one-element set), written apart from
/// `kdash_core::Searcher`: the whole BFS tree is built before the search
/// starts, every proximity is a two-pointer merge join of a `U⁻¹` row
/// against the merged `L⁻¹` column, and the k best sit in a sorted list.
/// Its items must be bit-identical to `Searcher::run`'s `Stop::TopK(k)`
/// and `Stop::Unpruned(k)`, and its counters obey
/// [`check_lazy_vs_eager`]. Dense indexes only: a sparsified index's raw
/// rows are approximate (its answers are held to the dense twin's).
pub fn eager_merge_join(
    index: &KdashIndex,
    sources: &[NodeId],
    k: usize,
) -> Result<TopKResult, String> {
    if index.needs_refinement() {
        return Err("the merge-join oracle serves dense indexes only".into());
    }
    // Input validation is the library's; the answer below is not.
    let validate = Query { restart: Restart::Set(sources), stop: Stop::TopK(0) };
    index.run(&validate).map_err(|e| e.to_string())?;
    if k == 0 {
        return Ok(TopKResult::default());
    }
    let perm = index.permutation();
    let roots: Vec<NodeId> = sources.iter().map(|&s| perm.new_of(s)).collect();
    // The merged column (1/|S|) Σ_s L⁻¹ e_s, summed in restart-set order.
    let weight = 1.0 / roots.len() as f64;
    let mut pairs: Vec<(NodeId, f64)> = Vec::new();
    for &r in &roots {
        let (idx, val) = index.linv_cols().col(r);
        pairs.extend(idx.iter().zip(val).map(|(&i, &v)| (i, v * weight)));
    }
    pairs.sort_by_key(|&(i, _)| i);
    let (mut col_idx, mut col_val): (Vec<NodeId>, Vec<f64>) = (Vec::new(), Vec::new());
    for (i, v) in pairs {
        match (col_idx.last(), col_val.last_mut()) {
            (Some(&last), Some(acc)) if last == i => *acc += v,
            _ => {
                col_idx.push(i);
                col_val.push(v);
            }
        }
    }

    let bfs = BfsTree::new_multi(index.permuted_graph(), &roots);
    let (a_col_max, a_max, c_prime) = index.estimator_constants();
    let c_prime_max = c_prime.iter().copied().fold(0.0f64, f64::max);
    let c = index.restart_probability();
    let mut estimator = LayerEstimator::new(a_max);
    // The k best so far, in rank order: descending proximity, ties by
    // ascending permuted id.
    let mut best: Vec<(f64, NodeId)> = Vec::with_capacity(k + 1);
    let mut stats = SearchStats {
        reachable: bfs.num_reachable(),
        frontier_expanded: bfs.num_reachable(),
        ..Default::default()
    };
    for (pos, &u) in bfs.order.iter().enumerate() {
        stats.visited += 1;
        let layer = bfs.layer[u as usize];
        if pos > 0 {
            // Layer 0 (the restart nodes) is always computed; Lemma 2
            // ends the search from layer 1 on.
            let terms = estimator.advance(layer);
            if layer > 0 && best.len() == k && c_prime_max * terms < best[k - 1].0 {
                stats.terminated_early = true;
                break;
            }
        }
        let p = c * index.uinv_rows().row_dot_sparse(u, &col_idx, &col_val);
        stats.proximity_computations += 1;
        estimator.record_selected(layer, p, a_col_max[u as usize]);
        let at = best.partition_point(|&(bp, bu)| bp > p || (bp == p && bu < u));
        if at < k {
            best.insert(at, (p, u));
            best.truncate(k);
        }
    }

    let mut items: Vec<RankedNode> =
        best.iter().map(|&(p, u)| RankedNode { node: perm.old_of(u), proximity: p }).collect();
    // Fewer than k reachable answers: pad with unreachable nodes at
    // proximity 0, in ascending permuted id.
    for v in 0..index.num_nodes() as NodeId {
        if items.len() >= k {
            break;
        }
        if bfs.layer[v as usize] == UNREACHABLE {
            items.push(RankedNode { node: perm.old_of(v), proximity: 0.0 });
        }
    }
    Ok(TopKResult { items, stats })
}

/// The lazy-vs-eager query-engine contract, shared by the equivalence
/// suites: `lazy` from the lazy-frontier production path, `eager` from
/// the eager whole-tree-first oracle [`eager_merge_join`].
///
/// Checks: items bit-identical; `visited`/`proximity_computations`/
/// `skipped`/`terminated_early` equal; the eager oracle expands everything
/// it reaches; under early termination the lazy path discovered at most
/// the true reachable count and left the death layer unexpanded
/// (`frontier_expanded` strictly below `reachable`); on complete runs the
/// stats agree exactly.
pub fn check_lazy_vs_eager(lazy: &TopKResult, eager: &TopKResult) -> Result<(), String> {
    check_items_bit_identical(lazy, eager)?;
    let (a, b) = (&lazy.stats, &eager.stats);
    if (a.visited, a.proximity_computations, a.skipped, a.terminated_early)
        != (b.visited, b.proximity_computations, b.skipped, b.terminated_early)
    {
        return Err(format!("work counters differ: {a:?} vs {b:?}"));
    }
    if b.frontier_expanded != b.reachable {
        return Err(format!("eager replay must expand its whole tree: {b:?}"));
    }
    if a.terminated_early {
        if a.reachable > b.reachable {
            return Err(format!(
                "lazy discovery exceeded true reachability: {} > {}",
                a.reachable, b.reachable
            ));
        }
        if a.frontier_expanded >= a.reachable {
            return Err(format!("death layer leaked into the expansion count: {a:?}"));
        }
    } else if a.without_gather() != b.without_gather() {
        // The merge-join oracle never runs the gather, so the byte
        // counters legitimately differ; everything else must agree
        // exactly on complete runs.
        return Err(format!("full runs must agree exactly: {a:?} vs {b:?}"));
    }
    Ok(())
}

/// Same nodes, same proximity bits, same order.
pub fn check_items_bit_identical(a: &TopKResult, b: &TopKResult) -> Result<(), String> {
    if a.items.len() != b.items.len() {
        return Err(format!("lengths differ: {} vs {}", a.items.len(), b.items.len()));
    }
    for (x, y) in a.items.iter().zip(&b.items) {
        if x.node != y.node || x.proximity.to_bits() != y.proximity.to_bits() {
            return Err(format!(
                "item mismatch: ({}, {:.17e}) vs ({}, {:.17e})",
                x.node, x.proximity, y.node, y.proximity
            ));
        }
    }
    Ok(())
}

/// Every [`Stop`] of one restart through `KdashIndex::run`, against the
/// independent references: `TopK(k)` and `Unpruned(k)` against
/// [`eager_merge_join`] (items bit-identical; `TopK`'s work counters per
/// [`check_lazy_vs_eager`]; the unpruned traversal complete), and
/// `Above(theta)` against the full proximity vector filtered at `theta`.
/// A one-element `sources` runs as `Restart::Node`, a longer one as
/// `Restart::Set`. Dense indexes only, like the oracle.
pub fn check_every_stop(
    index: &KdashIndex,
    sources: &[NodeId],
    k: usize,
    theta: f64,
) -> Result<(), String> {
    let restart = match sources {
        [q] => Restart::Node(*q),
        _ => Restart::Set(sources),
    };
    let run = |stop: Stop| index.run(&Query { restart, stop }).map_err(|e| format!("{stop:?}: {e}"));
    let oracle = eager_merge_join(index, sources, k)?;
    check_lazy_vs_eager(&run(Stop::TopK(k))?, &oracle).map_err(|e| format!("TopK: {e}"))?;
    let unpruned = run(Stop::Unpruned(k))?;
    check_items_bit_identical(&unpruned, &oracle).map_err(|e| format!("Unpruned: {e}"))?;
    let s = &unpruned.stats;
    if s.terminated_early || s.frontier_expanded != s.reachable {
        return Err(format!("Unpruned must drain the whole reachable set: {s:?}"));
    }

    let above = run(Stop::Above(theta))?;
    let full = index.full_proximities_from_set(sources).map_err(|e| e.to_string())?;
    let expect = full.iter().filter(|&&p| p >= theta).count();
    let off = above.items.iter().find(|r| (r.proximity - full[r.node as usize]).abs() > 1e-12);
    let sorted = above.items.windows(2).all(|w| w[0].proximity >= w[1].proximity);
    if above.items.len() != expect || off.is_some() || !sorted {
        return Err(format!(
            "Above({theta:e}): {} hits (sorted: {sorted}), the full vector has {expect}; \
             off the full vector: {off:?}",
            above.items.len()
        ));
    }
    Ok(())
}

/// The dynamic-update contract, shared by `tests/dynamic_equivalence.rs`
/// and the update benchmarks: two indexes are **bit-identical at the
/// array level** — same permutation, same permuted graph, same `L⁻¹`
/// arrays (pointer, index and value bits), same blocked `U⁻¹` arrays,
/// same estimator
/// constants, same nnz statistics and same update-relevant metadata.
/// This is the strongest form of "incremental update ≡ from-scratch
/// rebuild": if it holds, every query answer and every `SearchStats`
/// field agrees automatically, on any machine.
pub fn check_index_bit_identity(
    a: &kdash_core::KdashIndex,
    b: &kdash_core::KdashIndex,
) -> Result<(), String> {
    if a.num_nodes() != b.num_nodes() {
        return Err(format!("node counts differ: {} vs {}", a.num_nodes(), b.num_nodes()));
    }
    if a.permutation().order() != b.permutation().order() {
        return Err("permutations differ".into());
    }
    if a.permuted_graph() != b.permuted_graph() {
        return Err("permuted graphs differ".into());
    }
    let (ap, ai, av) = a.linv_cols().raw();
    let (bp, bi, bv) = b.linv_cols().raw();
    if ap != bp || ai != bi {
        return Err("L⁻¹ structure differs".into());
    }
    for (i, (x, y)) in av.iter().zip(bv).enumerate() {
        if x.to_bits() != y.to_bits() {
            return Err(format!("L⁻¹ value {i} differs: {x:e} vs {y:e}"));
        }
    }
    if a.uinv_rows() != b.uinv_rows() {
        return Err("U⁻¹ arrays differ".into());
    }
    let (a_col_max_a, a_max_a, c_prime_a) = a.estimator_constants();
    let (a_col_max_b, a_max_b, c_prime_b) = b.estimator_constants();
    if a_max_a.to_bits() != a_max_b.to_bits() {
        return Err(format!("A_max differs: {a_max_a:e} vs {a_max_b:e}"));
    }
    for (name, xs, ys) in
        [("A_max(v)", a_col_max_a, a_col_max_b), ("c'", c_prime_a, c_prime_b)]
    {
        for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Err(format!("{name}[{i}] differs: {x:e} vs {y:e}"));
            }
        }
    }
    let (sa, sb) = (a.stats(), b.stats());
    if (sa.nnz_l_inv, sa.nnz_u_inv, sa.uinv_index_bytes, sa.num_edges, sa.inverse_heap_bytes)
        != (sb.nnz_l_inv, sb.nnz_u_inv, sb.uinv_index_bytes, sb.num_edges, sb.inverse_heap_bytes)
    {
        return Err(format!("nnz/byte statistics differ: {sa:?} vs {sb:?}"));
    }
    if a.restart_probability() != b.restart_probability()
        || a.dangling_policy() != b.dangling_policy()
    {
        return Err("restart probability or dangling policy differs".into());
    }
    Ok(())
}

/// Picks `count` query nodes with at least one out-edge, deterministically
/// spread over the id space (queries from dangling nodes are legal but
/// uninteresting — their only answer is themselves).
pub fn sample_queries(graph: &CsrGraph, count: usize) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut queries = Vec::with_capacity(count);
    if n == 0 {
        return queries;
    }
    let stride = (n / count.max(1)).max(1);
    let mut v = 0usize;
    while queries.len() < count && v < n * 2 {
        let candidate = (v % n) as NodeId;
        if graph.out_degree(candidate) > 0 && !queries.contains(&candidate) {
            queries.push(candidate);
        }
        v += stride.max(1);
    }
    if queries.is_empty() {
        queries.push(0);
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_graph_scales() {
        let g = profile_graph(DatasetProfile::Internet, 500, 1);
        assert!(g.num_nodes() >= 300 && g.num_nodes() <= 1500, "{}", g.num_nodes());
    }

    #[test]
    fn sample_queries_have_out_edges() {
        let g = profile_graph(DatasetProfile::Email, 600, 2);
        let qs = sample_queries(&g, 10);
        assert!(!qs.is_empty());
        for q in qs {
            assert!(g.out_degree(q) > 0);
        }
    }

    #[test]
    fn exact_top_k_starts_at_query() {
        let g = profile_graph(DatasetProfile::Dictionary, 400, 3);
        let qs = sample_queries(&g, 3);
        for q in qs {
            let top = exact_top_k(&g, 0.95, q, 5);
            assert_eq!(top[0], q);
        }
    }
}
