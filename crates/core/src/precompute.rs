//! Index construction (§4.2 of the paper).
//!
//! Builds everything a query needs: the reordering permutation, the
//! permuted graph (for BFS), the sparse triangular inverses `L⁻¹` / `U⁻¹`,
//! and the estimator's precomputed quantities `A_max`, `A_max(v)` and the
//! per-node `c'` factors.

use crate::{IndexBuilder, IndexStats, KdashError, NodeOrdering, Result};
use kdash_graph::{CsrGraph, NodeId, Permutation};
use kdash_sparse::{BlockedCsr, CscMatrix, DanglingPolicy, LuFactors};

/// Index construction options. Defaults follow the paper's evaluation:
/// hybrid reordering, `c = 0.95`, dangling nodes kept as-is.
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// Node reordering applied before LU (Figure 5/6 variable).
    pub ordering: NodeOrdering,
    /// Restart probability `c` (the paper uses 0.95 throughout).
    pub restart_probability: f64,
    /// Treatment of nodes without out-edges.
    pub dangling: DanglingPolicy,
    /// Keep the raw LU factors alongside the inverses. Costs extra memory;
    /// enables [`KdashIndex::proximities_via_factors`], the
    /// "solve instead of stored inverses" ablation.
    pub keep_factors: bool,
    /// Drop tolerance `ε` for the stored inverses: entries of `L⁻¹`/`U⁻¹`
    /// below `ε` in magnitude are truncated *during* inversion (before
    /// they propagate), shrinking the index far below the dense-exact
    /// wall. Queries stay **exact**: the per-column dropped ℓ₁ masses are
    /// recorded and every answer on a sparsified index passes through the
    /// certified residual-refinement loop, which repairs and proves the
    /// top-k set and order. `0.0` (the default) keeps the classic
    /// dense-exact index bit-for-bit.
    pub drop_tolerance: f64,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            ordering: NodeOrdering::Hybrid,
            restart_probability: 0.95,
            dangling: DanglingPolicy::Keep,
            keep_factors: false,
            drop_tolerance: 0.0,
        }
    }
}

/// The precomputed K-dash index: everything needed to answer exact top-k
/// RWR queries without touching the original graph again.
///
/// All internal state lives in *permuted* node ids; the public API
/// translates at the boundary, so callers only ever see original ids.
#[derive(Debug, Clone)]
pub struct KdashIndex {
    c: f64,
    ordering: NodeOrdering,
    /// Dangling-node treatment the transition matrix was built with —
    /// recorded so incremental updates renormalise edited columns the
    /// same way a rebuild would.
    dangling: DanglingPolicy,
    /// How many update batches have been applied since the from-scratch
    /// build (0 for a fresh index). Bumped by
    /// [`install_patch`](Self::install_patch), persisted from format v3.
    update_epoch: u64,
    perm: Permutation,
    /// The permuted graph (drives the BFS tree construction per query).
    graph: CsrGraph,
    /// `L⁻¹`, column-major: column `q` is `L⁻¹ e_q`.
    linv: CscMatrix,
    /// `U⁻¹`, row-major in the blocked index encoding: a node's proximity
    /// is one gather of a stored row against the scattered query column.
    uinv: BlockedCsr,
    /// `A_max(v)` per (permuted) node.
    a_col_max: Vec<f64>,
    /// Global `A_max`.
    a_max: f64,
    /// Per-node `c'_u = (1−c)/(1 − A_uu + c·A_uu)`.
    c_prime: Vec<f64>,
    /// `max_u c'_u` — the factor the *termination* test must use: Lemma 2
    /// makes the term sum monotone, but with self-loops `c'` varies per
    /// node, so a later node may carry a larger factor than the node that
    /// triggered termination. Multiplying the monotone terms by the
    /// maximum keeps the early exit sound for every unvisited node (and
    /// degenerates to the paper's constant `1−c` on self-loop-free
    /// graphs).
    c_prime_max: f64,
    /// Raw factors, kept only when requested.
    factors: Option<LuFactors>,
    /// Drop tolerance `ε` the stored inverses were truncated with
    /// (`0.0` = dense-exact).
    drop_tolerance: f64,
    /// Dropped ℓ₁ mass per `L⁻¹` column (all zeros when dense-exact).
    linv_dropped: Vec<f64>,
    /// Dropped ℓ₁ mass per `U⁻¹` solve lane (CSC column of the inversion;
    /// all zeros when dense-exact).
    uinv_dropped: Vec<f64>,
    /// Cached `Σ linv_dropped + Σ uinv_dropped` — the routing switch:
    /// `> 0` sends every query through certified refinement.
    dropped_total: f64,
    stats: IndexStats,
}

/// A full replacement set for the mutable components of a [`KdashIndex`]
/// — what one incremental update batch produces. Consumed by
/// [`KdashIndex::install_patch`]; construct one only from spliced
/// components that a from-scratch rebuild would reproduce.
#[doc(hidden)]
pub struct IndexPatch {
    /// The edited permuted graph.
    pub graph: CsrGraph,
    /// `L⁻¹` with the dirty columns re-solved and spliced.
    pub linv: CscMatrix,
    /// `U⁻¹` with the dirty rows re-encoded and spliced.
    pub uinv: BlockedCsr,
    /// `A_max(v)` with the dirty entries recomputed.
    pub a_col_max: Vec<f64>,
    /// Global `A_max` over the patched transition matrix.
    pub a_max: f64,
    /// `c'` with the dirty entries recomputed.
    pub c_prime: Vec<f64>,
    /// Fresh factors to keep on the index (`None` drops any kept ones —
    /// stale factors must never survive a graph change).
    pub factors: Option<LuFactors>,
    /// Full replacement for the per-column `L⁻¹` dropped masses (dirty
    /// columns re-sparsified under the index's `ε`, clean ones copied).
    pub linv_dropped: Vec<f64>,
    /// Full replacement for the per-lane `U⁻¹` dropped masses.
    pub uinv_dropped: Vec<f64>,
    /// Stored entries of the fresh factor `L` (stats refresh).
    pub nnz_l: usize,
    /// Stored entries of the fresh factor `U` (stats refresh).
    pub nnz_u: usize,
    /// Update batches this patch represents — the epoch advance. A plain
    /// apply is 1; a coalesced apply of `k` batches is `k`, so the epoch
    /// counts *batches*, identically whether they were applied one by
    /// one or merged into a single pass. Must be at least 1.
    pub epochs: u64,
}

/// Everything the build pipeline (or deserialisation) hands over to become
/// a [`KdashIndex`]. Components are assumed structurally consistent; the
/// persistence path validates before constructing one.
pub(crate) struct IndexParts {
    pub c: f64,
    pub ordering: NodeOrdering,
    pub dangling: DanglingPolicy,
    pub update_epoch: u64,
    pub perm: Permutation,
    pub graph: CsrGraph,
    pub linv: CscMatrix,
    pub uinv: BlockedCsr,
    pub a_col_max: Vec<f64>,
    pub a_max: f64,
    pub c_prime: Vec<f64>,
    pub factors: Option<LuFactors>,
    pub drop_tolerance: f64,
    pub linv_dropped: Vec<f64>,
    pub uinv_dropped: Vec<f64>,
    pub stats: IndexStats,
}

impl KdashIndex {
    /// Builds the index with the paper's monolithic entry point: runs the
    /// reordering, assembles `W = I − (1−c)A`, factors it and inverts the
    /// triangular factors — sequentially. Staged construction, per-stage
    /// timings and parallel inversion live on [`IndexBuilder`].
    pub fn build(graph: &CsrGraph, options: IndexOptions) -> Result<KdashIndex> {
        IndexBuilder::from_options(options).build(graph)
    }

    /// Finalises an index from pipeline (or deserialisation) output.
    pub(crate) fn from_parts(parts: IndexParts) -> KdashIndex {
        let c_prime_max = parts.c_prime.iter().copied().fold(0.0f64, f64::max);
        let dropped_total = parts.linv_dropped.iter().sum::<f64>()
            + parts.uinv_dropped.iter().sum::<f64>();
        KdashIndex {
            c: parts.c,
            ordering: parts.ordering,
            dangling: parts.dangling,
            update_epoch: parts.update_epoch,
            perm: parts.perm,
            graph: parts.graph,
            linv: parts.linv,
            uinv: parts.uinv,
            a_col_max: parts.a_col_max,
            a_max: parts.a_max,
            c_prime: parts.c_prime,
            c_prime_max,
            factors: parts.factors,
            drop_tolerance: parts.drop_tolerance,
            linv_dropped: parts.linv_dropped,
            uinv_dropped: parts.uinv_dropped,
            dropped_total,
            stats: parts.stats,
        }
    }

    /// Number of indexed nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The restart probability the index was built with.
    pub fn restart_probability(&self) -> f64 {
        self.c
    }

    /// The reordering strategy the index was built with.
    pub fn ordering(&self) -> NodeOrdering {
        self.ordering
    }

    /// The dangling-node policy the transition matrix was built with.
    pub fn dangling_policy(&self) -> DanglingPolicy {
        self.dangling
    }

    /// How many update batches have been applied since the from-scratch
    /// build: `0` for a fresh index, incremented once per
    /// [`install_patch`](Self::install_patch) (i.e. per `kdash-dynamic`
    /// batch). Persisted from index-format v3, so freshness survives a
    /// save/load round trip.
    pub fn update_epoch(&self) -> u64 {
        self.update_epoch
    }

    /// The drop tolerance `ε` the stored inverses were truncated with
    /// (`0.0` for a dense-exact index).
    pub fn drop_tolerance(&self) -> f64 {
        self.drop_tolerance
    }

    /// Whether the index was built under a positive drop tolerance — the
    /// *tier* label (`ε > 0` ⇒ "sparsified", else "dense-exact"). Note an
    /// `ε > 0` build may still have dropped nothing (every inverse entry
    /// cleared the bar); [`needs_refinement`](Self::needs_refinement) is
    /// the routing switch.
    pub fn is_sparsified(&self) -> bool {
        self.drop_tolerance > 0.0
    }

    /// Whether queries must pass through the certified refinement loop:
    /// true exactly when the stored inverses dropped any ℓ₁ mass. When
    /// false the stored inverses are bit-for-bit the dense-exact ones and
    /// every query takes the classic path unchanged.
    pub fn needs_refinement(&self) -> bool {
        self.dropped_total > 0.0
    }

    /// Total ℓ₁ mass the truncated inversion dropped across both stored
    /// inverses (`0.0` for a dense-exact index).
    pub fn dropped_mass(&self) -> f64 {
        self.dropped_total
    }

    /// The per-column dropped ℓ₁ masses `(L⁻¹, U⁻¹ solve lanes)`. Hidden:
    /// the persistence and audit paths serialise/validate them, and the
    /// dynamic engine splices replacements for dirty columns.
    #[doc(hidden)]
    pub fn dropped_masses(&self) -> (&[f64], &[f64]) {
        (&self.linv_dropped, &self.uinv_dropped)
    }

    /// Build-time statistics (Figure 5/6 quantities).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// Pipeline access: the assemble stage stamps its own duration after
    /// the index exists.
    pub(crate) fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    /// Exact proximity of a single node `u` with respect to query `q`
    /// (both in original ids): `c · (U⁻¹)ᵤ,⋆ · (L⁻¹ e_q)`. On a
    /// sparsified index the raw dot product is only approximate, so the
    /// value is refined to the certified residual floor first (see
    /// [`full_proximities`](Self::full_proximities)).
    pub fn proximity(&self, q: NodeId, u: NodeId) -> Result<f64> {
        self.check_node(q)?;
        self.check_node(u)?;
        if self.needs_refinement() {
            return Ok(self.searcher().refined_full_proximities(&[q])?[u as usize]);
        }
        let (qi, ui) = (self.perm.new_of(q), self.perm.new_of(u));
        let (idx, val) = self.linv.col(qi);
        Ok(self.c * self.uinv.row_dot_sparse(ui, idx, val))
    }

    /// The full proximity vector for `q` in original id space,
    /// `p = c · U⁻¹ (L⁻¹ e_q)`. `O(nnz(L⁻¹ column) + nnz(U⁻¹))` on a
    /// dense-exact index; on a sparsified one the vector is refined until
    /// the residual bound drops below `1e-13`, so every entry is within
    /// that distance of exact (and the call can fail with
    /// [`KdashError::RefinementFailed`](crate::KdashError) if the
    /// tolerance was set too aggressively for the loop to contract).
    pub fn full_proximities(&self, q: NodeId) -> Result<Vec<f64>> {
        self.full_proximities_from_set(&[q])
    }

    /// Full proximity vector for a *restart set*: the walk restarts
    /// uniformly over `sources` (`q = (1/|S|) Σ_s e_s`), the Personalized
    /// PageRank generalisation the paper's footnote 6 mentions. By
    /// linearity this is the average of the single-source vectors, but it
    /// is computed in one pass over the merged `L⁻¹` columns.
    pub fn full_proximities_from_set(&self, sources: &[NodeId]) -> Result<Vec<f64>> {
        if self.needs_refinement() {
            return self.searcher().refined_full_proximities(sources);
        }
        // Scatter the merged L⁻¹ column, apply U⁻¹, scale by c, and
        // un-permute into original ids.
        let (idx, val) = self.merged_query_column(sources)?;
        let mut y = vec![0.0; self.num_nodes()];
        for (&i, &v) in idx.iter().zip(&val) {
            y[i as usize] = v;
        }
        let mut permuted = self.uinv.matvec(&y);
        for p in &mut permuted {
            *p *= self.c;
        }
        Ok(self.perm.unpermute_values(&permuted))
    }

    /// Merges the `L⁻¹` columns of a restart set into one sorted sparse
    /// vector `(1/|S|) Σ_s L⁻¹ e_s` (permuted index space). Validates and
    /// rejects empty or duplicate-containing sets.
    pub(crate) fn merged_query_column(
        &self,
        sources: &[NodeId],
    ) -> Result<(Vec<NodeId>, Vec<f64>)> {
        if sources.is_empty() {
            return Err(KdashError::InvalidRestartSet {
                reason: "restart set must be non-empty".into(),
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(sources.len());
        for &s in sources {
            self.check_node(s)?;
            if !seen.insert(s) {
                return Err(KdashError::InvalidRestartSet {
                    reason: format!("node {s} appears twice in the restart set"),
                });
            }
        }
        let weight = 1.0 / sources.len() as f64;
        let mut pairs: Vec<(NodeId, f64)> = Vec::new();
        for &s in sources {
            let (idx, val) = self.linv.col(self.perm.new_of(s));
            pairs.extend(idx.iter().zip(val).map(|(&i, &v)| (i, v * weight)));
        }
        // Stable: a row shared by several sources sums in restart-set
        // order, so the merged column depends on nothing but the set.
        pairs.sort_by_key(|&(i, _)| i);
        let mut out_idx: Vec<NodeId> = Vec::with_capacity(pairs.len());
        let mut out_val: Vec<f64> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if out_idx.last() == Some(&i) {
                *out_val.last_mut().expect("parallel arrays") += v;
            } else {
                out_idx.push(i);
                out_val.push(v);
            }
        }
        Ok((out_idx, out_val))
    }

    /// The "no stored inverses" alternative: solves `L y = e_q`, `U x = y`
    /// per query via Gilbert–Peierls. Requires `keep_factors`; returns the
    /// full proximity vector in original ids. Benchmarked against
    /// [`full_proximities`](Self::full_proximities) by
    /// `ablation_solve_vs_inverse`.
    pub fn proximities_via_factors(&self, q: NodeId) -> Result<Option<Vec<f64>>> {
        self.check_node(q)?;
        let Some(factors) = &self.factors else {
            return Ok(None);
        };
        let qi = self.perm.new_of(q);
        let mut ws = kdash_sparse::SolveWorkspace::new(self.num_nodes());
        let (xi, xv) = factors.solve_unit_sparse(&mut ws, qi)?;
        let mut out = vec![0.0; self.num_nodes()];
        for (&i, &v) in xi.iter().zip(&xv) {
            out[self.perm.old_of(i) as usize] = self.c * v;
        }
        Ok(Some(out))
    }

    /// Reassembles an index from previously validated components
    /// (deserialisation path). Statistics carry the nnz counts but zero
    /// durations. Fails when component dimensions disagree.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        c: f64,
        ordering: NodeOrdering,
        dangling: DanglingPolicy,
        update_epoch: u64,
        perm: Permutation,
        graph: CsrGraph,
        linv: CscMatrix,
        uinv: BlockedCsr,
        a_col_max: Vec<f64>,
        a_max: f64,
        c_prime: Vec<f64>,
        drop_tolerance: f64,
        linv_dropped: Vec<f64>,
        uinv_dropped: Vec<f64>,
    ) -> Result<KdashIndex> {
        let n = graph.num_nodes();
        kdash_sparse::rwr::validate_restart(c)?;
        kdash_sparse::validate_drop_tolerance(drop_tolerance)?;
        if perm.len() != n
            || linv.nrows() != n
            || linv.ncols() != n
            || uinv.nrows() != n
            || uinv.ncols() != n
            || a_col_max.len() != n
            || c_prime.len() != n
            || linv_dropped.len() != n
            || uinv_dropped.len() != n
        {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "component dimensions disagree".into(),
            )));
        }
        if linv_dropped.iter().chain(&uinv_dropped).any(|m| !(m.is_finite() && *m >= 0.0)) {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "dropped-mass entries must be finite and non-negative".into(),
            )));
        }
        let stats = IndexStats {
            nnz_l_inv: linv.nnz(),
            nnz_u_inv: uinv.nnz(),
            uinv_index_bytes: uinv.index_bytes(),
            num_edges: graph.num_edges(),
            num_nodes: n,
            inverse_heap_bytes: linv.heap_bytes() + uinv.heap_bytes(),
            ..Default::default()
        };
        Ok(KdashIndex::from_parts(IndexParts {
            c,
            ordering,
            dangling,
            update_epoch,
            perm,
            graph,
            linv,
            uinv,
            a_col_max,
            a_max,
            c_prime,
            factors: None,
            drop_tolerance,
            linv_dropped,
            uinv_dropped,
            stats,
        }))
    }

    /// Validates a caller-supplied node id.
    pub(crate) fn check_node(&self, v: NodeId) -> Result<()> {
        if (v as usize) < self.num_nodes() {
            Ok(())
        } else {
            Err(KdashError::NodeOutOfBounds { node: v, num_nodes: self.num_nodes() })
        }
    }

    /// Installs an incrementally patched component set — the commit stage
    /// of the `kdash-dynamic` update engine. Validates structural
    /// consistency, refreshes the derived statistics and the cached
    /// `c'_max`, replaces the kept LU factors (stale ones must never
    /// survive a graph change) and bumps the update epoch. On any
    /// validation error the index is left untouched.
    ///
    /// Hidden: the only supported caller is `kdash_dynamic::DynamicIndex`,
    /// which is what upholds the "patched ≡ rebuilt" guarantee; splicing
    /// arbitrary components through this API forfeits it.
    #[doc(hidden)]
    pub fn install_patch(&mut self, patch: IndexPatch) -> Result<()> {
        let n = self.num_nodes();
        if patch.graph.num_nodes() != n
            || patch.linv.nrows() != n
            || patch.linv.ncols() != n
            || patch.uinv.nrows() != n
            || patch.uinv.ncols() != n
            || patch.a_col_max.len() != n
            || patch.c_prime.len() != n
            || patch.linv_dropped.len() != n
            || patch.uinv_dropped.len() != n
        {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "patch component dimensions disagree with the index".into(),
            )));
        }
        if patch
            .linv_dropped
            .iter()
            .chain(&patch.uinv_dropped)
            .any(|m| !(m.is_finite() && *m >= 0.0))
        {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "patch dropped-mass entries must be finite and non-negative".into(),
            )));
        }
        if !(patch.a_max.is_finite() && patch.a_max >= 0.0) {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                format!("patch A_max {} is not a finite non-negative value", patch.a_max),
            )));
        }
        if patch.epochs == 0 {
            return Err(KdashError::Sparse(kdash_sparse::SparseError::Malformed(
                "patch must advance the update epoch by at least one batch".into(),
            )));
        }
        self.graph = patch.graph;
        self.linv = patch.linv;
        self.uinv = patch.uinv;
        self.a_col_max = patch.a_col_max;
        self.a_max = patch.a_max;
        self.c_prime = patch.c_prime;
        self.c_prime_max = self.c_prime.iter().copied().fold(0.0f64, f64::max);
        self.factors = patch.factors;
        self.linv_dropped = patch.linv_dropped;
        self.uinv_dropped = patch.uinv_dropped;
        self.dropped_total = self.linv_dropped.iter().sum::<f64>()
            + self.uinv_dropped.iter().sum::<f64>();
        self.update_epoch += patch.epochs;
        self.stats.num_edges = self.graph.num_edges();
        self.stats.nnz_l = patch.nnz_l;
        self.stats.nnz_u = patch.nnz_u;
        self.stats.nnz_l_inv = self.linv.nnz();
        self.stats.nnz_u_inv = self.uinv.nnz();
        self.stats.uinv_index_bytes = self.uinv.index_bytes();
        self.stats.inverse_heap_bytes = self.linv.heap_bytes() + self.uinv.heap_bytes();
        Ok(())
    }

    /// The kept LU factors, if the index was built with
    /// [`IndexOptions::keep_factors`]. Hidden: the dynamic engine uses
    /// this to seed its factor state without refactorising.
    #[doc(hidden)]
    pub fn factors(&self) -> Option<&LuFactors> {
        self.factors.as_ref()
    }

    /// Benchmark/diagnostic access to the stored `U⁻¹` (row-major, blocked
    /// encoding). Hidden: the encoding and permutation are internal; use
    /// the query API for answers.
    #[doc(hidden)]
    pub fn uinv_rows(&self) -> &BlockedCsr {
        &self.uinv
    }

    /// Benchmark/diagnostic access to the stored `L⁻¹` (column-major).
    /// Hidden for the same reason as [`uinv_rows`](Self::uinv_rows); the
    /// determinism tests use it to compare raw inverse arrays across
    /// thread counts.
    #[doc(hidden)]
    pub fn linv_cols(&self) -> &CscMatrix {
        &self.linv
    }

    /// Benchmark/diagnostic access to the permuted query column `L⁻¹ e_q`
    /// for original node id `q`. Hidden for the same reason as
    /// [`uinv_rows`](Self::uinv_rows).
    #[doc(hidden)]
    pub fn linv_query_column(&self, q: NodeId) -> (&[NodeId], &[f64]) {
        self.linv.col(self.perm.new_of(q))
    }

    /// The estimator's precomputed constants `(A_max(v), A_max, c')`, in
    /// permuted node order. Hidden: the dynamic engine reads them to
    /// recompute only the dirty entries.
    #[doc(hidden)]
    pub fn estimator_constants(&self) -> (&[f64], f64, &[f64]) {
        (&self.a_col_max, self.a_max, &self.c_prime)
    }

    // Internal accessors for the search module (`pub` + hidden: the
    // dynamic engine maps edits into permuted space through them).
    #[doc(hidden)]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }
    #[doc(hidden)]
    pub fn permuted_graph(&self) -> &CsrGraph {
        &self.graph
    }
    pub(crate) fn linv(&self) -> &CscMatrix {
        &self.linv
    }
    pub(crate) fn uinv(&self) -> &BlockedCsr {
        &self.uinv
    }
    pub(crate) fn a_col_max(&self) -> &[f64] {
        &self.a_col_max
    }
    pub(crate) fn a_max(&self) -> f64 {
        self.a_max
    }
    pub(crate) fn c_prime(&self) -> &[f64] {
        &self.c_prime
    }
    pub(crate) fn c_prime_max(&self) -> f64 {
        self.c_prime_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::GraphBuilder;
    use kdash_sparse::rwr::rwr_step;
    use kdash_sparse::transition_matrix;

    fn ring_with_chords(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v as NodeId, ((v + 1) % n) as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v as NodeId, ((v + n / 2) % n) as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    /// Ground truth via power iteration on the original graph.
    fn iterative_proximities(g: &CsrGraph, c: f64, q: NodeId) -> Vec<f64> {
        let a = transition_matrix(g, DanglingPolicy::Keep);
        let n = g.num_nodes();
        let mut p = vec![0.0; n];
        p[q as usize] = 1.0;
        let mut next = vec![0.0; n];
        for _ in 0..2000 {
            rwr_step(&a, c, q, &p, &mut next);
            std::mem::swap(&mut p, &mut next);
        }
        p
    }

    #[test]
    fn full_proximities_match_iterative() {
        let g = ring_with_chords(24);
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let index = KdashIndex::build(
                &g,
                IndexOptions { ordering, restart_probability: 0.8, ..Default::default() },
            )
            .unwrap();
            for q in [0u32, 5, 13] {
                let got = index.full_proximities(q).unwrap();
                let expect = iterative_proximities(&g, 0.8, q);
                for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                    assert!((a - b).abs() < 1e-9, "{ordering:?} q={q} node {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn single_proximity_matches_vector() {
        let g = ring_with_chords(15);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let full = index.full_proximities(3).unwrap();
        for u in 0..15u32 {
            let single = index.proximity(3, u).unwrap();
            assert!((single - full[u as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn proximities_sum_to_one_without_dangling() {
        let g = ring_with_chords(12);
        assert_eq!(g.num_dangling(), 0);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let p = index.full_proximities(0).unwrap();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn dangling_keep_leaks_mass_self_loop_preserves_it() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0); // 1 and 2 dangle
        let g = b.build().unwrap();
        let keep = KdashIndex::build(
            &g,
            IndexOptions { dangling: DanglingPolicy::Keep, ..Default::default() },
        )
        .unwrap();
        let p_keep: f64 = keep.full_proximities(0).unwrap().iter().sum();
        assert!(p_keep < 1.0);
        let looped = KdashIndex::build(
            &g,
            IndexOptions { dangling: DanglingPolicy::SelfLoop, ..Default::default() },
        )
        .unwrap();
        let p_loop: f64 = looped.full_proximities(0).unwrap().iter().sum();
        assert!((p_loop - 1.0).abs() < 1e-9);
    }

    #[test]
    fn factors_path_matches_inverse_path() {
        let g = ring_with_chords(20);
        let index =
            KdashIndex::build(&g, IndexOptions { keep_factors: true, ..Default::default() })
                .unwrap();
        let via_inv = index.full_proximities(7).unwrap();
        let via_lu = index.proximities_via_factors(7).unwrap().expect("factors kept");
        for (a, b) in via_inv.iter().zip(&via_lu) {
            assert!((a - b).abs() < 1e-10);
        }
        // Without keep_factors the ablation path is unavailable.
        let plain = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(plain.proximities_via_factors(7).unwrap().is_none());
    }

    #[test]
    fn stats_are_populated() {
        let g = ring_with_chords(18);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        let s = index.stats();
        assert_eq!(s.num_nodes, 18);
        assert_eq!(s.num_edges, g.num_edges());
        assert!(s.nnz_l_inv >= 18, "diagonal alone is n entries");
        assert!(s.nnz_u_inv >= 18);
        assert!(s.inverse_heap_bytes > 0);
        assert!(s.inverse_nnz_ratio() > 0.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let g = ring_with_chords(6);
        let index = KdashIndex::build(&g, IndexOptions::default()).unwrap();
        assert!(matches!(
            index.proximity(9, 0),
            Err(KdashError::NodeOutOfBounds { node: 9, .. })
        ));
        assert!(index.full_proximities(6).is_err());
    }

    #[test]
    fn invalid_restart_probability_rejected() {
        let g = ring_with_chords(6);
        let r = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: 1.5, ..Default::default() },
        );
        assert!(matches!(r, Err(KdashError::Sparse(_))));
    }

    #[test]
    fn self_loops_shape_c_prime() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build().unwrap();
        let c = 0.9;
        let index = KdashIndex::build(
            &g,
            IndexOptions { restart_probability: c, ..Default::default() },
        )
        .unwrap();
        // Node 0 has A_00 = 0.5 -> c' = (1-c)/(1 - 0.5 + 0.45) != (1-c).
        let new0 = index.permutation().new_of(0);
        let expect = (1.0 - c) / (1.0 - 0.5 + c * 0.5);
        assert!((index.c_prime()[new0 as usize] - expect).abs() < 1e-12);
        let new1 = index.permutation().new_of(1);
        assert!((index.c_prime()[new1 as usize] - (1.0 - c)).abs() < 1e-12);
    }
}
