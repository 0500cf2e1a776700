//! Instrumentation records for precomputation and search.

use std::time::Duration;

/// What index construction cost and produced — the quantities behind the
/// paper's Figures 5 (nnz ratio) and 6 (precomputation time).
#[derive(Debug, Clone, Default)]
pub struct IndexStats {
    /// Time spent computing the node ordering.
    pub ordering_time: Duration,
    /// Time spent assembling `A` and `W` and factoring `W = LU`.
    pub factorization_time: Duration,
    /// Time spent inverting the triangular factors.
    pub inversion_time: Duration,
    /// Time spent precomputing the estimator constants
    /// (`A_max`, `A_max(v)`, `c'`).
    pub estimator_time: Duration,
    /// Time spent assembling and validating the final index.
    pub assemble_time: Duration,
    /// Stored entries of the factor `L` (diagonal implicit).
    pub nnz_l: usize,
    /// Stored entries of the factor `U`.
    pub nnz_u: usize,
    /// Stored entries of `L⁻¹` (diagonal explicit).
    pub nnz_l_inv: usize,
    /// Stored entries of `U⁻¹` (diagonal explicit).
    pub nnz_u_inv: usize,
    /// Edges of the indexed graph.
    pub num_edges: usize,
    /// Nodes of the indexed graph.
    pub num_nodes: usize,
    /// Approximate heap footprint of the stored inverses in bytes.
    pub inverse_heap_bytes: usize,
    /// Column-index bytes of the stored `U⁻¹` in its blocked encoding —
    /// what a full sweep of the gather path streams from memory
    /// (2/nnz + 8/run).
    pub uinv_index_bytes: usize,
}

impl IndexStats {
    /// Total wall-clock spent building the index.
    pub fn total_time(&self) -> Duration {
        self.ordering_time
            + self.factorization_time
            + self.inversion_time
            + self.estimator_time
            + self.assemble_time
    }

    /// The Figure 5 metric: stored inverse entries per graph edge.
    pub fn inverse_nnz_ratio(&self) -> f64 {
        if self.num_edges == 0 {
            return 0.0;
        }
        (self.nnz_l_inv + self.nnz_u_inv) as f64 / self.num_edges as f64
    }
}

/// Per-query counters (Figures 7 and 9).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes whose upper bound was evaluated.
    pub visited: usize,
    /// Nodes whose exact proximity was computed (Fig. 9's y-axis).
    pub proximity_computations: usize,
    /// Nodes skipped by a per-node bound without terminating
    /// (random-root variant only).
    pub skipped: usize,
    /// True when the search ended through the Lemma 2 early-termination.
    pub terminated_early: bool,
    /// Nodes the search tree had *discovered* when the search ended.
    ///
    /// The search expands its BFS frontier lazily, one layer at a time, so
    /// a query that terminates early (`terminated_early == true`) never
    /// enumerates the rest of the reachable set: this field then reports
    /// the discovered-so-far count — a lower bound on true reachability —
    /// not the size of the full reachable set. When the search ran to
    /// completion the traversal is exhaustive and this is the exact
    /// reachable count. (An unpruned run — [`Stop::Unpruned`](crate::Stop)
    /// — always reports the full count, as does the eager merge-join
    /// oracle `kdash_harness::eager_merge_join`; consumers wanting a
    /// "computed/reachable" ratio must take one of those as the
    /// denominator.)
    pub reachable: usize,
    /// Nodes whose out-edges the lazy BFS frontier actually scanned.
    ///
    /// Always `<= reachable`; equal when the search ran to completion and
    /// *strictly* smaller on early-terminated queries (the layer the
    /// search died in was discovered but never expanded). The gap is the
    /// traversal work Lemma 2 saved on top of the skipped proximity
    /// computations.
    pub frontier_expanded: usize,
    /// Index bytes the proximity gathers streamed from the blocked `U⁻¹`
    /// (2/nnz + 8/run). Zero on paths that never run the gather (the
    /// merge-join oracle).
    pub bytes_touched: usize,
    /// Value bytes the gathers touched under a fixed accounting model
    /// (8 per stamp hit, the value loads the gather executes) —
    /// machine-independent.
    pub value_bytes_touched: usize,
    /// Candidate rows run through the gather.
    pub rows_scalar: usize,
    /// Always 0: there is one (scalar) gather. Kept because benchmark
    /// reports read it.
    pub rows_wide: usize,
    /// Stored `U⁻¹` entries of every gathered row — the work metric
    /// [`QueryBudget::max_gather_nnz`](crate::QueryBudget) meters. It
    /// counts stored entries, not executed loads. Zero on paths that
    /// never run the gather.
    pub nnz_gathered: usize,
    /// Certified-refinement correction passes the query ran. Zero on a
    /// dense-exact index (the classic Lemma-2 path never refines); on a
    /// sparsified index every answer was certified after this many
    /// residual/correction iterations — a pure function of index content
    /// and query.
    pub refinement_iterations: usize,
    /// Stored entries the refinement loop moved: residual accumulations
    /// over the permuted graph plus `L̃⁻¹`/`Ũ⁻¹` entries scattered and
    /// gathered by the correction solves. The refinement-work currency the
    /// memory/latency tradeoff benches record. Zero when no refinement
    /// ran.
    pub refinement_nnz: usize,
}

impl SearchStats {
    /// This record with every gather field cleared (byte counters, row
    /// count). Search-work comparisons against the merge-join oracle pin
    /// everything else — visits, proximity computations, termination,
    /// traversal — while the gather fields stay zero on the oracle.
    pub fn without_gather(&self) -> SearchStats {
        SearchStats {
            bytes_touched: 0,
            value_bytes_touched: 0,
            rows_scalar: 0,
            rows_wide: 0,
            nnz_gathered: 0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_handles_empty_graph() {
        let s = IndexStats::default();
        assert_eq!(s.inverse_nnz_ratio(), 0.0);
    }

    #[test]
    fn ratio_and_total_time() {
        let s = IndexStats {
            ordering_time: Duration::from_millis(1),
            factorization_time: Duration::from_millis(2),
            inversion_time: Duration::from_millis(3),
            nnz_l_inv: 30,
            nnz_u_inv: 20,
            num_edges: 10,
            ..Default::default()
        };
        assert_eq!(s.total_time(), Duration::from_millis(6));
        assert!((s.inverse_nnz_ratio() - 5.0).abs() < 1e-12);
    }
}
