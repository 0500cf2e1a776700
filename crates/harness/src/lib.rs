//! # kdash-harness
//!
//! Hosts the workspace-level integration tests (`/tests`) and runnable
//! examples (`/examples`), plus a few helpers they share. The crate
//! re-exports nothing new; its value is wiring every other crate into one
//! dependency set for cross-crate targets.

use kdash_baselines::{IterativeRwr, TopKEngine};
use kdash_core::TopKResult;
use kdash_datagen::DatasetProfile;
use kdash_graph::{CsrGraph, NodeId};

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

/// The lazy-vs-eager query-engine contract, shared by the equivalence
/// suites: `lazy` from the lazy-frontier production path, `eager` from
/// an eager whole-tree-first replay oracle
/// (`top_k_merge_join`, `top_k_from_set_replay`, `top_k_eager_into`).
///
/// Checks: items bit-identical; `visited`/`proximity_computations`/
/// `skipped`/`terminated_early` equal; the eager oracle expands everything
/// it reaches; under early termination the lazy path discovered at most
/// the true reachable count and left the death layer unexpanded
/// (`frontier_expanded` strictly below `reachable`); on complete runs the
/// stats agree exactly.
pub fn check_lazy_vs_eager(lazy: &TopKResult, eager: &TopKResult) -> Result<(), String> {
    if lazy.items.len() != eager.items.len() {
        return Err(format!("lengths differ: {} vs {}", lazy.items.len(), eager.items.len()));
    }
    for (x, y) in lazy.items.iter().zip(&eager.items) {
        if x.node != y.node || x.proximity.to_bits() != y.proximity.to_bits() {
            return Err(format!(
                "item mismatch: ({}, {:.17e}) vs ({}, {:.17e})",
                x.node, x.proximity, y.node, y.proximity
            ));
        }
    }
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
        // The merge-join oracles never run the gather, so the byte
        // counters legitimately differ; everything else must agree
        // exactly on complete runs.
        return Err(format!("full runs must agree exactly: {a:?} vs {b:?}"));
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
