//! Staged index construction — the build-side twin of the query engine.
//!
//! [`IndexBuilder`] decomposes index construction into five named stages,
//!
//! ```text
//! ordering → factorization → inversion → estimator → assemble
//! ```
//!
//! each individually timed and surfaced through a [`BuildReport`]
//! ([`IndexBuilder::build_with_report`]). The stages are the quantities the
//! paper's Figure 6 measures: the reordering heuristic, the sparse LU of
//! `W = I − (1−c)A`, and — dominating everything at scale — the triangular
//! inversion that materialises `L⁻¹` and `U⁻¹`.
//!
//! The inversion stage is parallel: columns of a triangular inverse are
//! independent Gilbert–Peierls solves, so [`IndexBuilder::threads`] fans
//! them out over a work-stealing chunk cursor (the same pattern
//! [`batch_top_k`](crate::batch_top_k) uses for queries), one solve
//! workspace per worker. The gathered result is **bit-identical** to the
//! sequential inversion at every thread count, which the tier-1
//! `build_determinism` suite pins.

use crate::ordering::{compute_ordering_with_stats, OrderingStats};
use crate::precompute::IndexParts;
use crate::{IndexOptions, IndexStats, KdashError, KdashIndex, NodeOrdering, Result};
use kdash_graph::{CsrGraph, NodeId, Permutation};
use kdash_sparse::{
    sparse_lu_with, sparsify_lower_unit_with, sparsify_upper_with, transition_matrix,
    validate_drop_tolerance, w_matrix, BlockedCsr, CsrMatrix, DanglingPolicy, InvertOptions,
};
use std::time::{Duration, Instant};

/// The five steps of the build pipeline, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStage {
    /// Node reordering and graph permutation (§4.2.2).
    Ordering,
    /// Transition matrix `A`, system matrix `W`, and the sparse LU `W = LU`.
    Factorization,
    /// Triangular inversion: `L⁻¹` and `U⁻¹` (Equations (4)–(5)).
    Inversion,
    /// Estimator constants `A_max`, `A_max(v)` and the `c'` factors.
    Estimator,
    /// Statistics and final index assembly.
    Assemble,
}

impl BuildStage {
    /// Every stage, in pipeline order.
    pub const ALL: [BuildStage; 5] = [
        BuildStage::Ordering,
        BuildStage::Factorization,
        BuildStage::Inversion,
        BuildStage::Estimator,
        BuildStage::Assemble,
    ];

    /// Display name used in reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            BuildStage::Ordering => "ordering",
            BuildStage::Factorization => "factorization",
            BuildStage::Inversion => "inversion",
            BuildStage::Estimator => "estimator",
            BuildStage::Assemble => "assemble",
        }
    }
}

/// One timed pipeline step.
#[derive(Debug, Clone, Copy)]
pub struct StageTiming {
    /// Which step.
    pub stage: BuildStage,
    /// Wall-clock the step took.
    pub duration: Duration,
}

/// What a build did, stage by stage.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Per-stage wall-clock, in pipeline order.
    pub stages: Vec<StageTiming>,
    /// What the ordering stage observed (community structure for the
    /// Louvain-backed cluster/hybrid orderings).
    pub ordering: OrderingStats,
    /// Resolved inversion worker count (after `threads = 0` auto-detect).
    pub inversion_threads: usize,
}

impl BuildReport {
    /// Wall-clock of one stage (zero if the stage was not recorded).
    pub fn duration_of(&self, stage: BuildStage) -> Duration {
        self.stages
            .iter()
            .find(|t| t.stage == stage)
            .map(|t| t.duration)
            .unwrap_or_default()
    }

    /// Total wall-clock across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|t| t.duration).sum()
    }
}

/// Staged, parallel index construction.
///
/// ```
/// use kdash_core::{IndexBuilder, NodeOrdering};
/// use kdash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(32);
/// for v in 0..32u32 { b.add_edge(v, (v + 1) % 32, 1.0); }
/// let graph = b.build().unwrap();
///
/// let (index, report) = IndexBuilder::new()
///     .ordering(NodeOrdering::Degree)
///     .threads(0) // parallel inversion, one worker per core
///     .build_with_report(&graph)
///     .unwrap();
/// assert_eq!(index.num_nodes(), 32);
/// assert_eq!(report.stages.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    options: IndexOptions,
    threads: usize,
    /// When set, the ordering stage is skipped and this permutation pins
    /// the node order (see [`IndexBuilder::permutation`]).
    pinned_permutation: Option<Permutation>,
}

impl Default for IndexBuilder {
    fn default() -> Self {
        IndexBuilder::new()
    }
}

impl IndexBuilder {
    /// Builder with the paper's defaults (hybrid ordering, `c = 0.95`)
    /// and sequential inversion.
    pub fn new() -> Self {
        IndexBuilder::from_options(IndexOptions::default())
    }

    /// Builder seeded from existing [`IndexOptions`].
    pub fn from_options(options: IndexOptions) -> Self {
        IndexBuilder { options, threads: 1, pinned_permutation: None }
    }

    /// Node reordering applied before LU.
    pub fn ordering(mut self, ordering: NodeOrdering) -> Self {
        self.options.ordering = ordering;
        self
    }

    /// Restart probability `c`.
    pub fn restart_probability(mut self, c: f64) -> Self {
        self.options.restart_probability = c;
        self
    }

    /// Treatment of nodes without out-edges.
    pub fn dangling(mut self, policy: DanglingPolicy) -> Self {
        self.options.dangling = policy;
        self
    }

    /// Pins the node order to an explicit permutation: the ordering stage
    /// skips the heuristic and uses `perm` verbatim (the configured
    /// [`NodeOrdering`] survives only as a label). This is how the
    /// dynamic-update equivalence suite rebuilds an edited graph *under
    /// the index's frozen order* — an incremental update never re-runs
    /// the ordering heuristic (edits would otherwise shift the
    /// permutation and with it every stored array), so the from-scratch
    /// reference it must match bit-for-bit has to hold the order fixed
    /// too. The permutation length is validated against the graph at
    /// build time.
    pub fn permutation(mut self, perm: Permutation) -> Self {
        self.pinned_permutation = Some(perm);
        self
    }

    /// Keep the raw LU factors alongside the inverses.
    pub fn keep_factors(mut self, keep: bool) -> Self {
        self.options.keep_factors = keep;
        self
    }

    /// Drop tolerance `ε` for the stored inverses (see
    /// [`IndexOptions::drop_tolerance`]). `0.0` (the default) builds the
    /// dense-exact index bit-for-bit; `ε > 0` truncates sub-`ε` inverse
    /// entries during inversion and routes queries through certified
    /// residual refinement, keeping answers exact.
    pub fn drop_tolerance(mut self, eps: f64) -> Self {
        self.options.drop_tolerance = eps;
        self
    }

    /// Worker threads for the inversion stage: `0` = one per available
    /// hardware thread, `1` (the default) = sequential. Output is
    /// bit-identical at every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective options.
    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    /// Runs the pipeline.
    pub fn build(&self, graph: &CsrGraph) -> Result<KdashIndex> {
        self.build_with_report(graph).map(|(index, _)| index)
    }

    /// Runs the pipeline and reports per-stage timings and observations.
    pub fn build_with_report(&self, graph: &CsrGraph) -> Result<(KdashIndex, BuildReport)> {
        let options = self.options;
        validate_drop_tolerance(options.drop_tolerance)?;
        let mut report = BuildReport::default();

        // Stage 1 — ordering: permutation + permuted graph for the BFS.
        let t = Instant::now();
        let (perm, ordering_stats) = match &self.pinned_permutation {
            Some(pinned) => {
                if pinned.len() != graph.num_nodes() {
                    return Err(KdashError::Graph(kdash_graph::GraphError::InvalidPermutation(
                        format!(
                            "pinned permutation has length {} but graph has {} nodes",
                            pinned.len(),
                            graph.num_nodes()
                        ),
                    )));
                }
                (pinned.clone(), OrderingStats::default())
            }
            None => compute_ordering_with_stats(graph, options.ordering),
        };
        let permuted = graph.permute(&perm)?;
        let ordering_time = t.elapsed();
        report.ordering = ordering_stats;
        report.stages.push(StageTiming { stage: BuildStage::Ordering, duration: ordering_time });

        // Stage 2 — factorization: A, W = I − (1−c)A, and W = LU.
        let t = Instant::now();
        let a = transition_matrix(&permuted, options.dangling);
        let w = w_matrix(&a, options.restart_probability)?;
        let factors = sparse_lu_with(&w, InvertOptions { threads: self.threads })?;
        let factorization_time = t.elapsed();
        report
            .stages
            .push(StageTiming { stage: BuildStage::Factorization, duration: factorization_time });

        // Stage 3 — inversion: the independent column solves, fanned out.
        // Under a positive drop tolerance the solves truncate sub-ε
        // entries before they propagate (the sparsify drivers delegate to
        // the plain inverters at ε = 0, so the dense-exact path stays
        // bit-identical); the per-column dropped ℓ₁ masses ride along into
        // the index for the certified refinement loop.
        let t = Instant::now();
        let eps = options.drop_tolerance;
        let invert_options = InvertOptions { threads: self.threads };
        report.inversion_threads = invert_options.resolved_threads(permuted.num_nodes());
        let sparsified_l = sparsify_lower_unit_with(&factors.l, eps, invert_options)?;
        let (linv, linv_dropped) = (sparsified_l.inverse, sparsified_l.dropped);
        let sparsified_u = sparsify_upper_with(&factors.u, eps, invert_options)?;
        let (uinv_csc, uinv_dropped) = (sparsified_u.inverse, sparsified_u.dropped);
        let uinv = CsrMatrix::from_csc(&uinv_csc);
        let inversion_time = t.elapsed();
        report.stages.push(StageTiming { stage: BuildStage::Inversion, duration: inversion_time });

        // Stage 4 — estimator: the Definition 1/2 precomputed constants.
        let t = Instant::now();
        let a_col_max = a.col_max();
        let a_max = a.global_max();
        let c = options.restart_probability;
        let c_prime: Vec<f64> = (0..permuted.num_nodes() as NodeId)
            .map(|v| {
                let a_vv = a.get(v, v).unwrap_or(0.0);
                (1.0 - c) / (1.0 - a_vv + c * a_vv)
            })
            .collect();
        let estimator_time = t.elapsed();
        report.stages.push(StageTiming { stage: BuildStage::Estimator, duration: estimator_time });

        // Stage 5 — assemble: the blocked encoding of U⁻¹, statistics, and
        // the final immutable index. The timer covers the assembly itself, so
        // it is stamped into the finished index afterwards.
        let t = Instant::now();
        let uinv = BlockedCsr::from_csr(uinv)?;
        let stats = IndexStats {
            ordering_time,
            factorization_time,
            inversion_time,
            estimator_time,
            nnz_l: factors.l.nnz(),
            nnz_u: factors.u.nnz(),
            nnz_l_inv: linv.nnz(),
            nnz_u_inv: uinv.nnz(),
            num_edges: graph.num_edges(),
            num_nodes: graph.num_nodes(),
            inverse_heap_bytes: linv.heap_bytes() + uinv.heap_bytes(),
            uinv_index_bytes: uinv.index_bytes(),
            ..Default::default()
        };
        let mut index = KdashIndex::from_parts(IndexParts {
            c,
            ordering: options.ordering,
            dangling: options.dangling,
            update_epoch: 0,
            perm,
            graph: permuted,
            linv,
            uinv,
            a_col_max,
            a_max,
            c_prime,
            factors: options.keep_factors.then_some(factors),
            drop_tolerance: eps,
            linv_dropped,
            uinv_dropped,
            stats,
        });
        let assemble_time = t.elapsed();
        index.stats_mut().assemble_time = assemble_time;
        report.stages.push(StageTiming { stage: BuildStage::Assemble, duration: assemble_time });
        Ok((index, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_graph::GraphBuilder;

    fn ring(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.add_edge(v, (v + 1) % n as NodeId, 1.0);
            if v % 3 == 0 {
                b.add_edge(v, (v + n as NodeId / 2) % n as NodeId, 0.5);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn report_covers_every_stage() {
        let g = ring(30);
        let (index, report) = IndexBuilder::new().build_with_report(&g).unwrap();
        assert_eq!(report.stages.len(), BuildStage::ALL.len());
        for (timing, stage) in report.stages.iter().zip(BuildStage::ALL) {
            assert_eq!(timing.stage, stage, "stages must report in pipeline order");
        }
        assert_eq!(report.inversion_threads, 1);
        assert_eq!(report.total(), index.stats().total_time());
    }

    #[test]
    fn builder_matches_legacy_build_bitwise() {
        let g = ring(40);
        for ordering in [NodeOrdering::Natural, NodeOrdering::Degree, NodeOrdering::Hybrid] {
            let options = IndexOptions { ordering, ..Default::default() };
            let legacy = KdashIndex::build(&g, options).unwrap();
            for threads in [1usize, 2, 0] {
                let staged =
                    IndexBuilder::from_options(options).threads(threads).build(&g).unwrap();
                for q in [0u32, 7, 21] {
                    let a = legacy.top_k(q, 6).unwrap();
                    let b = staged.top_k(q, 6).unwrap();
                    assert_eq!(a.nodes(), b.nodes(), "{ordering:?} threads {threads}");
                    for (x, y) in a.items.iter().zip(&b.items) {
                        assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                    }
                }
                assert_eq!(legacy.stats().nnz_l_inv, staged.stats().nnz_l_inv);
                assert_eq!(legacy.stats().nnz_u_inv, staged.stats().nnz_u_inv);
            }
        }
    }

    #[test]
    fn community_stats_flow_through_report() {
        let g = ring(24);
        let (_, hybrid) =
            IndexBuilder::new().ordering(NodeOrdering::Hybrid).build_with_report(&g).unwrap();
        assert!(hybrid.ordering.communities.is_some());
        let (_, degree) =
            IndexBuilder::new().ordering(NodeOrdering::Degree).build_with_report(&g).unwrap();
        assert_eq!(degree.ordering, OrderingStats::default());
    }

    #[test]
    fn builder_setters_compose() {
        let b = IndexBuilder::new()
            .ordering(NodeOrdering::Degree)
            .restart_probability(0.8)
            .keep_factors(true)
            .threads(4);
        assert_eq!(b.options().ordering, NodeOrdering::Degree);
        assert_eq!(b.options().restart_probability, 0.8);
        assert!(b.options().keep_factors);
        let g = ring(12);
        let index = b.build(&g).unwrap();
        assert!(index.proximities_via_factors(3).unwrap().is_some());
    }

    #[test]
    fn pinned_permutation_reproduces_the_heuristic_build() {
        let g = ring(36);
        let (reference, report) =
            IndexBuilder::new().ordering(NodeOrdering::Hybrid).build_with_report(&g).unwrap();
        assert!(report.ordering.communities.is_some());
        // Pinning the exact permutation the heuristic chose must
        // reproduce the index bit-for-bit (the equivalence-suite rebuild
        // path), while skipping the heuristic itself.
        let (pinned, pinned_report) = IndexBuilder::new()
            .ordering(NodeOrdering::Hybrid)
            .permutation(reference.permutation().clone())
            .build_with_report(&g)
            .unwrap();
        assert_eq!(pinned_report.ordering, OrderingStats::default());
        let (ap, ai, av) = reference.linv_cols().raw();
        let (bp, bi, bv) = pinned.linv_cols().raw();
        assert_eq!((ap, ai), (bp, bi));
        assert!(av.iter().zip(bv).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(reference.uinv_rows(), pinned.uinv_rows());
        for q in [0u32, 17, 35] {
            let (a, b) = (reference.top_k(q, 5).unwrap(), pinned.top_k(q, 5).unwrap());
            assert_eq!(a.items, b.items);
        }
        // Wrong-length pins are typed errors.
        let err = IndexBuilder::new()
            .permutation(kdash_graph::Permutation::identity(7))
            .build(&g);
        assert!(matches!(err, Err(KdashError::Graph(_))));
    }

    #[test]
    fn fresh_builds_start_at_epoch_zero() {
        let g = ring(12);
        let index = IndexBuilder::new().build(&g).unwrap();
        assert_eq!(index.update_epoch(), 0);
        assert_eq!(index.dangling_policy(), DanglingPolicy::Keep);
    }

    #[test]
    fn duration_of_unknown_stage_is_zero() {
        let report = BuildReport::default();
        assert_eq!(report.duration_of(BuildStage::Inversion), Duration::ZERO);
        assert_eq!(report.total(), Duration::ZERO);
    }

    #[test]
    fn build_errors_propagate_through_pipeline() {
        let g = ring(10);
        let err = IndexBuilder::new().restart_probability(2.0).build(&g);
        assert!(err.is_err());
    }
}
