//! The reusable query workspace and the one query engine.
//!
//! A [`Searcher`] owns every piece of per-query state the search needs —
//! the epoch-stamped BFS buffers ([`kdash_graph::BfsScratch`]), the
//! scattered query column ([`kdash_sparse::ScatteredColumn`]) and the
//! top-k heap — so a serving loop pays the `O(n)` allocations once and
//! every subsequent query touches only the state it actually visits. Once
//! the buffers have reached their high-water mark (i.e. after warm-up
//! queries covering the largest reachable set, `k` and hit count the loop
//! will serve), single-node [`Searcher::run`] calls — and so
//! [`Searcher::top_k_into`] — perform **zero heap allocations** (the
//! `tests/zero_alloc.rs` integration test pins this down with a counting
//! allocator).
//!
//! # One engine
//!
//! [`Searcher::run`] answers every [`Query`]: a [`Restart`] (one node or
//! a restart set) crossed with a [`Stop`] (top-k, threshold, or top-k
//! without pruning). One prologue loads the `L⁻¹` column and seeds the
//! BFS at the restart nodes; one Lemma-2 loop then visits nodes in
//! BFS-layer order, always computing layer 0 (the restart nodes), and
//! the stop rule decides only when the bound ends the search and where
//! each proximity goes. [`Searcher::top_k_from_root`], the Appendix D.1
//! ablation, is the one search outside it: its order-agnostic bound
//! shares nothing with Lemma 2.
//!
//! # Lazy frontier
//!
//! The BFS that orders the visit is fused into the search loop: layers are
//! discovered on demand ([`BfsScratch::expand_next_layer`]), so a query
//! the Lemma 2 bound terminates after a few layers never enumerates —
//! never even *discovers* — the rest of the reachable set. The layer the
//! search died in is the last one discovered, and nothing below it is
//! expanded; [`SearchStats::frontier_expanded`] counts the nodes whose
//! out-edges were actually scanned, and [`SearchStats::reachable`]
//! consequently reports the discovered-so-far count on early-terminated
//! queries (exact reachability when the search runs to completion).
//! Layer-at-a-time expansion reproduces the eager queue order exactly, so
//! results and visit order are identical to an eager traversal — only
//! the traversal cost shrinks.
//!
//! # The proximity gather
//!
//! Proximities come from the scatter/gather kernel: the fixed query column
//! `L⁻¹ e_q` is scattered once per query, then each candidate costs one
//! scalar, stamp-checked gather over only `nnz((U⁻¹)ᵤ)` — straight from
//! the index's blocked `U⁻¹` rows
//! ([`BlockedCsr::row_dot_scattered_counting`], the one gather path).
//! It visits the merge join's matching pairs in the same order, so every
//! proximity is bit-identical to a merge join (the eager merge-join
//! oracle `kdash_harness::eager_merge_join` pins this). Candidate rows
//! are software-prefetched a block ahead (`PREFETCH_BLOCK`), and every
//! query's byte traffic lands in [`SearchStats`].
//!
//! # Certified refinement (sparsified tier)
//!
//! On an index built with a positive `drop_tolerance` the stored inverses
//! are truncated, so a raw gather is only approximate. [`Searcher::run`]
//! detects this ([`KdashIndex::needs_refinement`]) and runs the certified
//! refinement loop instead of the Lemma-2 search: it solves the whole
//! reachable set approximately, streams the residual `r = b − W x̃` from
//! the stored graph, and corrects `x̃ += Ũ⁻¹(L̃⁻¹ r)` until every decisive
//! gap exceeds `2‖r‖₁` — the bound on `|p_u − c·x̃_u|` — so the answer's
//! set and order are provably the dense-exact ones (see the crate docs,
//! "The exactness contract under sparsified indexes"). Tied proximities
//! never separate, so the loop fails loudly with
//! [`KdashError::RefinementFailed`] instead of guessing. Returned values
//! are `c·x̃`; ties among certified answers break by ascending *permuted*
//! id, matching the heap's rank order.

use crate::{
    ArbitraryOrderBound, KdashError, KdashIndex, LayerEstimator, Query, RankedNode, Restart,
    Result, SearchStats, Stop, TopKResult,
};
use kdash_graph::{BfsScratch, NodeId};
use kdash_sparse::{BlockedCsr, DanglingPolicy, ScatteredColumn};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Candidate rows per prefetch block: when the visit cursor enters a new
/// block, the whole block's `U⁻¹` row spans are software-prefetched before
/// the first of them is gathered — so on DRAM-resident indexes the next
/// rows' cache misses overlap the current row's arithmetic instead of
/// serialising behind it. Small enough that a Lemma 2 termination wastes
/// at most a handful of speculative prefetches.
const PREFETCH_BLOCK: usize = 8;

/// Hard ceiling on certified-refinement correction passes. The loop
/// contracts `‖r‖₁` geometrically when it converges at all, so a query
/// still uncertified after this many passes is tied (or past the
/// floating-point floor) and fails loudly instead of spinning.
const REFINE_MAX_ITERATIONS: usize = 64;

/// Residual floor the full-vector refined paths iterate down to: the
/// returned vector is within this `ℓ∞` distance of the exact proximities
/// (and exactly exact when the residual reaches zero). Chosen a couple of
/// decades above `f64` epsilon so accumulation noise cannot stall the
/// loop short of its goal.
pub(crate) const FULL_VECTOR_FLOOR: f64 = 1e-13;

/// The resource ceiling a runaway query hit first — carried inside
/// [`KdashError::BudgetExceeded`] so callers can tell *which* knob fired
/// without parsing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// [`QueryBudget::max_frontier_nodes`] was reached.
    FrontierNodes(usize),
    /// [`QueryBudget::max_gather_nnz`] was reached.
    GatherNnz(usize),
    /// [`QueryBudget::deadline`] elapsed.
    Deadline(Duration),
}

impl std::fmt::Display for BudgetLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetLimit::FrontierNodes(n) => write!(f, "frontier budget of {n} visited nodes"),
            BudgetLimit::GatherNnz(n) => write!(f, "gather budget of {n} stored entries"),
            BudgetLimit::Deadline(d) => write!(f, "wall-clock deadline of {d:?}"),
        }
    }
}

/// Per-query resource ceilings for serving tiers that cannot let one
/// pathological query monopolise a worker. The default is unlimited —
/// exactly the pre-budget behaviour, bit for bit.
///
/// Budgets never truncate: a query that would exceed a ceiling is
/// *aborted* with [`KdashError::BudgetExceeded`] (carrying the
/// [`SearchStats`] accumulated so far), never answered with a silently
/// incomplete "exact" result. The two work meters are deterministic and
/// execution-strategy-independent — `max_frontier_nodes` counts visited
/// candidates and `max_gather_nnz` counts stored `U⁻¹` entries of
/// gathered rows, both identical across thread counts — so the same
/// budget admits exactly the same queries everywhere. Only `deadline` is
/// inherently wall-clock (and therefore machine-dependent); use it as the
/// outermost safety net.
///
/// Checks run once per candidate visit, *before* the candidate's work,
/// so a budget of `N` admits at most `N` whole units — a partial visit
/// is never half-charged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Abort once this many candidates have been visited (frontier work).
    pub max_frontier_nodes: Option<usize>,
    /// Abort once the gathered rows' stored entries reach this total
    /// (proximity work — the dominant cost on dense hub rows).
    pub max_gather_nnz: Option<usize>,
    /// Abort once this much wall clock has elapsed since the query began.
    pub deadline: Option<Duration>,
}

impl QueryBudget {
    /// No limits — the default, bit-identical to pre-budget behaviour.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// The clock anchor for [`deadline`](Self::deadline); `None` when no
    /// deadline is set so unbudgeted queries never touch the clock.
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.deadline.map(|_| Instant::now())
    }

    /// The first ceiling the running totals have reached, if any.
    #[inline]
    fn exceeded(
        &self,
        visited: usize,
        gathered_nnz: usize,
        started: Option<Instant>,
    ) -> Option<BudgetLimit> {
        if let Some(max) = self.max_frontier_nodes {
            if visited >= max {
                return Some(BudgetLimit::FrontierNodes(max));
            }
        }
        if let Some(max) = self.max_gather_nnz {
            if gathered_nnz >= max {
                return Some(BudgetLimit::GatherNnz(max));
            }
        }
        if let (Some(deadline), Some(started)) = (self.deadline, started) {
            if started.elapsed() >= deadline {
                return Some(BudgetLimit::Deadline(deadline));
            }
        }
        None
    }
}

/// The one rank order of every answer list: descending proximity, ties
/// by ascending node id. `total_cmp` makes it total without a panic site,
/// and on the proximities the engine produces — finite, and never `-0.0`
/// because every gather accumulates from `+0.0` — it is the order
/// `partial_cmp` would give.
#[inline]
fn rank_desc(a: (f64, NodeId), b: (f64, NodeId)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Fixed-capacity heap keeping the K best-ranked `(proximity, node)`
/// pairs under [`rank_desc`], so the kept set is the K best by that order
/// whatever order the pairs arrive in — ties at the K-th place included.
/// θ (the K-th best proximity so far) is the root once the heap is full.
/// Reusable: [`reset`](TopKHeap::reset) keeps the backing storage.
#[derive(Debug, Clone)]
pub(crate) struct TopKHeap {
    k: usize,
    /// Root = the worst-ranked entry kept.
    entries: Vec<(f64, NodeId)>,
}

/// `a` ranks strictly below `b`.
#[inline]
fn ranks_below(a: (f64, NodeId), b: (f64, NodeId)) -> bool {
    rank_desc(a, b) == Ordering::Greater
}

impl TopKHeap {
    pub(crate) fn new(k: usize) -> Self {
        TopKHeap { k, entries: Vec::with_capacity(k) }
    }

    /// Empties the heap for a new query of size `k`, keeping capacity.
    pub(crate) fn reset(&mut self, k: usize) {
        self.k = k;
        self.entries.clear();
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// The paper's θ: K-th best proximity, 0 while dummies remain.
    pub(crate) fn threshold(&self) -> f64 {
        if self.k > 0 && self.is_full() {
            self.entries[0].0
        } else {
            0.0
        }
    }

    pub(crate) fn offer(&mut self, proximity: f64, node: NodeId) {
        if self.k == 0 {
            return;
        }
        let entry = (proximity, node);
        if !self.is_full() {
            self.entries.push(entry);
            let mut i = self.entries.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if ranks_below(self.entries[parent], self.entries[i]) {
                    break;
                }
                self.entries.swap(i, parent);
                i = parent;
            }
        } else if ranks_below(self.entries[0], entry) {
            self.entries[0] = entry;
            let mut i = 0;
            loop {
                let (l, r) = (2 * i + 1, 2 * i + 2);
                let mut worst = i;
                if l < self.entries.len() && ranks_below(self.entries[l], self.entries[worst]) {
                    worst = l;
                }
                if r < self.entries.len() && ranks_below(self.entries[r], self.entries[worst]) {
                    worst = r;
                }
                if worst == i {
                    break;
                }
                self.entries.swap(i, worst);
                i = worst;
            }
        }
    }

    /// Sorts the entries into [`rank_desc`] order in place and returns
    /// them. The order is total over distinct nodes, so the unstable sort
    /// is deterministic — and allocation-free, unlike the stable one.
    pub(crate) fn sorted_entries(&mut self) -> &[(f64, NodeId)] {
        self.entries.sort_unstable_by(|&a, &b| rank_desc(a, b));
        &self.entries
    }
}

/// Workspace of the certified refinement loop — allocated on the first
/// refined query (sparsified tier only) and reused afterwards. Dense
/// vectors are indexed by permuted node id; the touched-entry lists make
/// per-iteration resets proportional to the work done, not to `n`.
#[derive(Debug)]
struct RefineState {
    /// The approximate solution `x̃`, zero outside the current reachable
    /// set; reset via the BFS order after every refined query.
    x: Vec<f64>,
    /// The residual `r = b − W x̃` and its touched-entry bookkeeping.
    resid: Vec<f64>,
    resid_supp: Vec<NodeId>,
    in_resid: Vec<bool>,
    /// The correction intermediate `y = L̃⁻¹ r` and its bookkeeping.
    y: Vec<f64>,
    y_supp: Vec<NodeId>,
    in_y: Vec<bool>,
    /// Values of `y` in `y_supp` order, feeding `ycol`.
    y_val: Vec<f64>,
    /// Scattered form of `y` the correction row-gathers run against.
    ycol: ScatteredColumn,
    /// Top-`(k+1)` scratch the certification check ranks candidates with.
    cert: TopKHeap,
}

impl RefineState {
    fn new(n: usize) -> Self {
        RefineState {
            x: vec![0.0; n],
            resid: vec![0.0; n],
            resid_supp: Vec::new(),
            in_resid: vec![false; n],
            y: vec![0.0; n],
            y_supp: Vec::new(),
            in_y: vec![false; n],
            y_val: Vec::new(),
            ycol: ScatteredColumn::new(n),
            cert: TopKHeap::new(0),
        }
    }
}

/// What the refinement loop must prove before it may stop.
enum RefineGoal<'o> {
    /// Certify the top-k set and order; the winners land in the
    /// workspace heap (ties by ascending permuted id).
    TopK(usize),
    /// Certify every reachable node's side of the threshold and the order
    /// of the hits; the hits (permuted ids) land in the list, sorted.
    Threshold(f64, &'o mut Vec<RankedNode>),
    /// Iterate the residual down to [`FULL_VECTOR_FLOOR`]; `c·x̃` lands
    /// in the provided dense permuted vector.
    FullVector(&'o mut [f64]),
}

/// Appends `j` to a touched-entry list exactly once per reset cycle.
#[inline]
fn touch(supp: &mut Vec<NodeId>, seen: &mut [bool], j: NodeId) {
    if !seen[j as usize] {
        seen[j as usize] = true;
        supp.push(j);
    }
}

/// Top-k certification: ranks the `k + 1` best candidates (the entry
/// below the last ranked one is the exact-zero proximity of the
/// unreached padding) and demands every consecutive gap among the top
/// `k` exceed `2δ` — then no exchange across any of those boundaries can
/// survive the error bound, so set and order are proven. A zero residual
/// certifies unconditionally (the values are exact; ties fall to the
/// deterministic comparator). Returns the verdict and the smallest
/// decisive gap for diagnostics.
fn certify_top_k(
    x: &[f64],
    order: &[NodeId],
    c: f64,
    k: usize,
    delta: f64,
    cert: &mut TopKHeap,
) -> (bool, f64) {
    cert.reset(k + 1);
    for &u in order {
        cert.offer(c * x[u as usize], u);
    }
    let ranked = cert.sorted_entries();
    let m = ranked.len();
    let limit = k.min(m);
    let mut min_gap = f64::INFINITY;
    for i in 0..limit {
        let next = if i + 1 < m { ranked[i + 1].0 } else { 0.0 };
        min_gap = min_gap.min(ranked[i].0 - next);
    }
    if !min_gap.is_finite() {
        min_gap = 0.0;
    }
    (delta == 0.0 || min_gap > 2.0 * delta, min_gap)
}

/// Threshold certification: every reachable node must sit provably on
/// one side of `theta` (margin `> δ`) and the hits must be provably
/// ordered among themselves (gaps `> 2δ`). Fills `hits` with the
/// candidate answers (permuted ids), sorted; on the accepting iteration
/// they are the final ones.
fn certify_threshold(
    x: &[f64],
    order: &[NodeId],
    c: f64,
    theta: f64,
    delta: f64,
    hits: &mut Vec<RankedNode>,
) -> (bool, f64) {
    hits.clear();
    let mut min_margin = f64::INFINITY;
    for &u in order {
        let p = c * x[u as usize];
        min_margin = min_margin.min((p - theta).abs());
        if p >= theta {
            hits.push(RankedNode { node: u, proximity: p });
        }
    }
    hits.sort_unstable_by(|a, b| rank_desc((a.proximity, a.node), (b.proximity, b.node)));
    let mut min_gap = 2.0 * min_margin;
    for pair in hits.windows(2) {
        min_gap = min_gap.min(pair[0].proximity - pair[1].proximity);
    }
    if !min_gap.is_finite() {
        min_gap = 0.0;
    }
    (delta == 0.0 || (min_margin > delta && min_gap > 2.0 * delta), min_gap)
}

/// A reusable query workspace over one [`KdashIndex`].
///
/// Construction is `O(n)`; each query after the first allocates nothing
/// (for single-node [`run`](Searcher::run) and
/// [`top_k_into`](Searcher::top_k_into)) or only its result vector.
/// A `Searcher` is single-threaded by design — for parallel serving, give
/// each worker its own (see [`crate::batch_top_k`], which does exactly
/// that over a work-stealing queue).
///
/// ```
/// use kdash_core::{IndexOptions, KdashIndex, Query, Restart, Stop, TopKResult};
/// use kdash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(5);
/// for v in 0..5u32 { b.add_edge(v, (v + 1) % 5, 1.0); }
/// let index = KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap();
///
/// let mut searcher = index.searcher();
/// let mut result = TopKResult::default();
/// for q in 0..5u32 {
///     searcher.top_k_into(q, 3, &mut result).unwrap();   // no allocations after warm-up
///     assert_eq!(result.items[0].node, q);
/// }
/// // Every other query kind is one `Query` away.
/// let query = Query { restart: Restart::Set(&[0, 2]), stop: Stop::Above(0.01) };
/// searcher.run(&query, &mut result).unwrap();
/// assert!(result.items.iter().all(|r| r.proximity >= 0.01));
/// ```
#[derive(Debug)]
pub struct Searcher<'a> {
    index: &'a KdashIndex,
    /// Epoch-stamped lazy BFS layers/order, reused across queries.
    bfs: BfsScratch,
    /// The dense scattered query column `L⁻¹ e_q`.
    column: ScatteredColumn,
    /// Top-k candidates of the current query.
    heap: TopKHeap,
    /// The current query's restart nodes, permuted — layer 0 of the BFS.
    sources_p: Vec<NodeId>,
    /// Gather traffic counters, reset per query and folded into
    /// [`SearchStats`].
    counters: GatherCounters,
    /// Visit position up to which candidate rows have been prefetched.
    prefetched_until: usize,
    /// Per-query resource ceilings (default: unlimited).
    budget: QueryBudget,
    /// Certified-refinement workspace, allocated on the first refined
    /// query. Stays `None` forever on a dense-exact index.
    refine: Option<Box<RefineState>>,
}

impl<'a> Searcher<'a> {
    /// A fresh workspace for `index`. `O(n)` once; queries then reuse it.
    pub fn new(index: &'a KdashIndex) -> Self {
        let n = index.num_nodes();
        Searcher {
            index,
            bfs: BfsScratch::new(n),
            column: ScatteredColumn::new(n),
            heap: TopKHeap::new(0),
            sources_p: Vec::new(),
            counters: GatherCounters::default(),
            prefetched_until: 0,
            budget: QueryBudget::default(),
            refine: None,
        }
    }

    /// The index this workspace serves.
    pub fn index(&self) -> &'a KdashIndex {
        self.index
    }

    /// Installs per-query resource ceilings for every subsequent query on
    /// this workspace. `QueryBudget::default()` removes them again.
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    /// The active per-query budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// The typed abort for a query that hit a budget ceiling: folds the
    /// traversal and gather progress made so far into the carried stats so
    /// the caller can see exactly how far the runaway got. The workspace
    /// itself stays fully reusable — every query re-seeds its state.
    #[cold]
    fn budget_abort(&self, limit: BudgetLimit, mut stats: SearchStats) -> KdashError {
        self.record_traversal(&mut stats);
        KdashError::BudgetExceeded { limit, stats: Box::new(stats) }
    }

    /// The shared query prologue: validates the restart, scatters its
    /// `L⁻¹` column (borrowed for a node, merged for a set), seeds the
    /// lazy BFS at the restart nodes (layer 0 only — deeper layers are
    /// discovered on demand) and resets the gather counters.
    fn prepare(&mut self, restart: Restart<'_>) -> Result<()> {
        let index = self.index;
        let perm = index.permutation();
        self.sources_p.clear();
        match restart {
            Restart::Node(q) => {
                index.check_node(q)?;
                let qp = perm.new_of(q);
                let (col_idx, col_val) = index.linv().col(qp);
                self.column.load(col_idx, col_val);
                self.sources_p.push(qp);
            }
            Restart::Set(sources) => {
                let (col_idx, col_val) = index.merged_query_column(sources)?;
                self.column.load(&col_idx, &col_val);
                self.sources_p.extend(sources.iter().map(|&s| perm.new_of(s)));
            }
        }
        self.bfs.begin_multi(index.permuted_graph(), &self.sources_p);
        self.counters = GatherCounters::default();
        self.prefetched_until = 0;
        Ok(())
    }

    /// One candidate proximity gather (without the `c` factor): row `u`
    /// of the stored `U⁻¹` against the scattered query column, with byte
    /// traffic accumulated.
    #[inline]
    fn gather(&mut self, u: NodeId) -> f64 {
        self.counters.gather(self.index.uinv(), u, &self.column)
    }

    /// Candidate batching: on entering a new block of visit positions,
    /// prefetches the whole block's row spans (index and values) so their
    /// DRAM fetches overlap the gathers that precede them.
    #[inline]
    fn prefetch_block(&mut self, pos: usize) {
        if pos < self.prefetched_until {
            return;
        }
        let end = (pos + PREFETCH_BLOCK).min(self.bfs.num_discovered());
        let uinv = self.index.uinv();
        for &u in &self.bfs.order()[pos..end] {
            uinv.prefetch_row(u);
        }
        self.prefetched_until = end;
    }

    /// One lazy-frontier step: ensures the node at visit position `pos` is
    /// discovered, expanding exactly one further layer if the cursor has
    /// consumed everything discovered so far. Returns the node, or `None`
    /// when the traversal is exhausted.
    #[inline]
    fn next_visit(&mut self, pos: usize) -> Option<NodeId> {
        if pos == self.bfs.num_discovered() && self.bfs.expand_next_layer(self.index.permuted_graph()) == 0
        {
            return None;
        }
        Some(self.bfs.order()[pos])
    }

    /// Folds the traversal and gather counters of the finished (or
    /// abandoned) run into `stats`.
    #[inline]
    fn record_traversal(&self, stats: &mut SearchStats) {
        stats.reachable = self.bfs.num_discovered();
        stats.frontier_expanded = self.bfs.num_expanded();
        stats.bytes_touched = self.counters.index_bytes;
        stats.value_bytes_touched = self.counters.value_bytes;
        stats.rows_scalar = self.counters.rows;
        stats.rows_wide = 0;
        stats.nnz_gathered = self.counters.nnz;
    }

    /// Exact top-k search from one node: [`run`](Self::run) with
    /// [`Restart::Node`] and [`Stop::TopK`], into a fresh result.
    pub fn top_k(&mut self, q: NodeId, k: usize) -> Result<TopKResult> {
        let mut out = TopKResult::default();
        self.top_k_into(q, k, &mut out).map(|()| out)
    }

    /// [`top_k`](Self::top_k) writing into a caller-owned result — the
    /// zero-allocation serving path.
    pub fn top_k_into(&mut self, q: NodeId, k: usize, out: &mut TopKResult) -> Result<()> {
        self.run(&Query { restart: Restart::Node(q), stop: Stop::TopK(k) }, out)
    }

    /// Answers `query` into `out`, reusing `out`'s allocation.
    ///
    /// Validation comes first: an out-of-bounds node or an empty,
    /// duplicate-containing or out-of-bounds restart set, and a
    /// non-positive or non-finite [`Stop::Above`] threshold, return typed
    /// errors with `out` untouched. A budget abort or refinement failure
    /// leaves `out` empty.
    ///
    /// After warm-up (buffers at their high-water mark), a
    /// [`Restart::Node`] query allocates nothing. A [`Restart::Set`]
    /// query allocates its merged `L⁻¹` column.
    pub fn run(&mut self, query: &Query<'_>, out: &mut TopKResult) -> Result<()> {
        self.prepare(query.restart)?;
        if let Stop::Above(theta) = query.stop {
            if !(theta > 0.0 && theta.is_finite()) {
                return Err(KdashError::InvalidThreshold { theta });
            }
        }
        out.items.clear();
        out.stats = SearchStats::default();
        if let Stop::TopK(0) | Stop::Unpruned(0) = query.stop {
            // The answer is known empty; skip the traversal entirely.
            return Ok(());
        }
        if self.index.needs_refinement() {
            // Sparsified tier: gathered values are approximate, so the
            // Lemma-2 path is unsound — certify instead.
            return self.refined_answer(query.stop, out);
        }
        self.search(query.stop, out)
    }

    /// The Lemma-2 search (Algorithm 4) behind every dense-tier query:
    /// visit nodes in BFS-layer order, compute each exact proximity, and
    /// stop at the first node whose bound the stop rule rejects. Layer 0
    /// (the restart nodes, which carry the restart term) is always
    /// computed; from layer 1 on, Lemmas 1–2 hold unchanged (every
    /// non-restart node satisfies `p_u = c'_u Σ_v A_uv p_v`). For a single
    /// root this is the paper's search exactly: the estimator treats the
    /// root as an ordinary layer-0 selection.
    ///
    /// `stop` decides two things only: the termination test (heap full
    /// and bound `< θ_k`, bound `< θ`, or never) and where each proximity
    /// goes (the heap, or the hit list in `out.items`).
    fn search(&mut self, stop: Stop, out: &mut TopKResult) -> Result<()> {
        let index = self.index;
        let c = index.restart_probability();
        let started = self.budget.start();
        if let Stop::TopK(k) | Stop::Unpruned(k) = stop {
            self.heap.reset(k);
        }
        let mut estimator = LayerEstimator::new(index.a_max());
        let mut stats = SearchStats::default();

        // The frontier is pulled lazily: `next_visit` discovers one more
        // layer exactly when the cursor has consumed everything known, so
        // breaking out of this loop leaves every deeper layer unexpanded.
        let mut pos = 0;
        while let Some(u) = self.next_visit(pos) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                out.items.clear();
                return Err(self.budget_abort(limit, stats));
            }
            self.prefetch_block(pos);
            stats.visited += 1;
            let layer = self.bfs.layer(u);
            if pos > 0 {
                // Termination must cover every unvisited node, whose c'
                // may exceed this node's when self-loops are present — so
                // the bound uses max c'. By Lemma 2 it bounds every
                // unvisited node, discovered or not, so the undiscovered
                // layers need never be enumerated.
                let bound = index.c_prime_max() * estimator.advance(layer);
                let done = layer > 0
                    && match stop {
                        Stop::TopK(_) => self.heap.is_full() && bound < self.heap.threshold(),
                        Stop::Above(theta) => bound < theta,
                        Stop::Unpruned(_) => false,
                    };
                if done {
                    stats.terminated_early = true;
                    break;
                }
            }
            let p = c * self.gather(u);
            stats.proximity_computations += 1;
            estimator.record_selected(layer, p, index.a_col_max()[u as usize]);
            match stop {
                Stop::Above(theta) => {
                    if p >= theta {
                        out.items.push(RankedNode { node: u, proximity: p });
                    }
                }
                Stop::TopK(_) | Stop::Unpruned(_) => self.heap.offer(p, u),
            }
            pos += 1;
        }
        self.record_traversal(&mut stats);
        match stop {
            Stop::TopK(k) | Stop::Unpruned(k) => self.finish(k, true, stats, out),
            Stop::Above(_) => {
                // Rank the hits (permuted ids), then map to original ids.
                out.items.sort_unstable_by(|a, b| {
                    rank_desc((a.proximity, a.node), (b.proximity, b.node))
                });
                for item in &mut out.items {
                    item.node = index.permutation().old_of(item.node);
                }
                out.stats = stats;
            }
        }
        Ok(())
    }

    /// The Appendix D.1 ablation: top-k from `q` with the search tree
    /// rooted at `root` instead of the query. The layer bound is no
    /// longer valid, so an order-agnostic bound is used — exact answers,
    /// per-node skipping only, and every node must still be visited. (The
    /// paper draws `root` at random.)
    pub fn top_k_from_root(&mut self, q: NodeId, k: usize, root: NodeId) -> Result<TopKResult> {
        let index = self.index;
        self.prepare(Restart::Node(q))?;
        index.check_node(root)?;
        let mut out = TopKResult::default();
        if k == 0 {
            return Ok(out);
        }
        if index.needs_refinement() {
            // The ablation's visit order is irrelevant to a refined
            // answer — every reachable node is solved and certified
            // regardless — so the random root routes through the standard
            // refined query and stays exact on sparsified tiers.
            self.refined_answer(Stop::TopK(k), &mut out)?;
            return Ok(out);
        }
        // The order-agnostic bound can never terminate the search, so every
        // node must be visited regardless — the lazy frontier has nothing
        // to save here and the tree is drained eagerly up front. Its
        // counters are exact: `reachable` is the full root-reachable set
        // and `frontier_expanded` equals it.
        self.bfs.run(index.permuted_graph(), index.permutation().new_of(root));
        let qp = self.sources_p[0];
        let c = index.restart_probability();
        let started = self.budget.start();
        self.heap.reset(k);
        let mut bound = ArbitraryOrderBound::new(index.a_max());
        let mut stats = SearchStats::default();

        // Visit order: BFS from the root, then every node the root cannot
        // reach (they may still be answers — the walk starts at q, not at
        // the root).
        let unreached = (0..index.num_nodes() as NodeId).filter(|&v| !self.bfs.is_reached(v));
        for u in self.bfs.order().iter().copied().chain(unreached) {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats));
            }
            stats.visited += 1;
            // The order-agnostic bound only holds for non-query nodes.
            if u != qp
                && self.heap.is_full()
                && index.c_prime()[u as usize] * bound.bound_term() < self.heap.threshold()
            {
                stats.skipped += 1;
                continue;
            }
            let p = c * self.counters.gather(index.uinv(), u, &self.column);
            stats.proximity_computations += 1;
            bound.record(p, index.a_col_max()[u as usize]);
            self.heap.offer(p, u);
        }
        self.record_traversal(&mut stats);
        // Every node was visited (or skipped soundly); no padding needed.
        self.finish(k, false, stats, &mut out);
        Ok(out)
    }

    /// Shared top-k epilogue: drains the heap in rank order, maps back to
    /// original ids, and (when `pad_unreached` is set) pads with
    /// unreachable, zero-proximity nodes when fewer than `k` candidates
    /// exist. Heap entries are always reached nodes, so pads can never
    /// collide with them.
    ///
    /// Padding and lazy discovery cannot conflict: fewer than `k` heap
    /// entries means the heap never filled, so the Lemma 2 termination
    /// (which requires a full heap) never fired, the traversal ran to
    /// exhaustion, and `is_reached` is exact reachability.
    fn finish(&mut self, k: usize, pad_unreached: bool, stats: SearchStats, out: &mut TopKResult) {
        let index = self.index;
        out.stats = stats;
        out.items.clear();
        for &(p, u) in self.heap.sorted_entries() {
            out.items.push(RankedNode { node: index.permutation().old_of(u), proximity: p });
        }
        if pad_unreached && out.items.len() < k {
            for v in 0..index.num_nodes() as NodeId {
                if out.items.len() >= k {
                    break;
                }
                if !self.bfs.is_reached(v) {
                    out.items.push(RankedNode {
                        node: index.permutation().old_of(v),
                        proximity: 0.0,
                    });
                }
            }
        }
    }

    /// The sparsified-tier answer to `stop`: the certified refinement
    /// loop in place of the Lemma-2 search (which cannot prune against
    /// approximate proximities, so [`Stop::Unpruned`] certifies the same
    /// top-k). Expects the prologue ([`prepare`](Self::prepare)) to have
    /// run.
    fn refined_answer(&mut self, stop: Stop, out: &mut TopKResult) -> Result<()> {
        let mut stats = SearchStats::default();
        match stop {
            Stop::TopK(k) | Stop::Unpruned(k) => {
                self.refined_run(RefineGoal::TopK(k), &mut stats)?;
                self.record_traversal(&mut stats);
                self.finish(k, true, stats, out);
            }
            Stop::Above(theta) => {
                let certified =
                    self.refined_run(RefineGoal::Threshold(theta, &mut out.items), &mut stats);
                if let Err(e) = certified {
                    out.items.clear();
                    return Err(e);
                }
                self.record_traversal(&mut stats);
                // The accepting certification pass left the hits sorted.
                for item in &mut out.items {
                    item.node = self.index.permutation().old_of(item.node);
                }
                out.stats = stats;
            }
        }
        Ok(())
    }

    /// The full proximity vector (original id space) through the
    /// certified refinement loop, iterated down to [`FULL_VECTOR_FLOOR`]:
    /// every returned value is within that bound of exact (and exact when
    /// the residual reaches zero). `sources` restart uniformly, so a
    /// singleton slice reproduces the single-query vector. This is the
    /// sparsified-tier backend of [`KdashIndex::full_proximities`] and
    /// friends.
    pub(crate) fn refined_full_proximities(&mut self, sources: &[NodeId]) -> Result<Vec<f64>> {
        self.prepare(Restart::Set(sources))?;
        let mut permuted = vec![0.0; self.index.num_nodes()];
        let mut stats = SearchStats::default();
        self.refined_run(RefineGoal::FullVector(&mut permuted), &mut stats)?;
        Ok(self.index.permutation().unpermute_values(&permuted))
    }

    /// The certified refinement driver (see the module docs): drains the
    /// reachable set, solves it approximately through the sparsified
    /// inverses, and iterates residual/correction passes until `goal` is
    /// proven. Expects the prologue ([`prepare`](Self::prepare)) to have
    /// run: the BFS seeded at the restart nodes and their `L̃⁻¹` column
    /// loaded. The restart vector is `b = Σ_s e_s / |S|` over them.
    fn refined_run(&mut self, mut goal: RefineGoal<'_>, stats: &mut SearchStats) -> Result<()> {
        // The Lemma-2 bound cannot prune against approximate proximities,
        // so the refined path always drains the whole reachable set —
        // supp(x̃), supp(r) and the correction all stay inside it.
        while self.bfs.expand_next_layer(self.index.permuted_graph()) > 0 {}
        let mut st = self
            .refine
            .take()
            .unwrap_or_else(|| Box::new(RefineState::new(self.index.num_nodes())));
        let result = self.refined_run_inner(&mut st, &mut goal, stats);
        // Zero x̃ over the visited set before parking the state, so an
        // error leaves the workspace exactly as reusable as success does.
        for &u in &self.bfs.order()[..self.bfs.num_discovered()] {
            st.x[u as usize] = 0.0;
        }
        self.refine = Some(st);
        result
    }

    fn refined_run_inner(
        &mut self,
        st: &mut RefineState,
        goal: &mut RefineGoal<'_>,
        stats: &mut SearchStats,
    ) -> Result<()> {
        let index = self.index;
        let graph = index.permuted_graph();
        let c = index.restart_probability();
        let one_minus_c = 1.0 - c;
        let dangling = index.dangling_policy();
        let started = self.budget.start();
        let reach = self.bfs.num_discovered();
        let restart_weight = 1.0 / self.sources_p.len() as f64;

        // Initial approximate solve x̃ = Ũ⁻¹(L̃⁻¹ b): one gather per
        // reachable node, exactly the classic search's per-candidate cost.
        for pos in 0..reach {
            if let Some(limit) = self.budget.exceeded(stats.visited, self.counters.nnz, started) {
                return Err(self.budget_abort(limit, stats.clone()));
            }
            self.prefetch_block(pos);
            let u = self.bfs.order()[pos];
            stats.visited += 1;
            let v = self.gather(u);
            stats.proximity_computations += 1;
            st.x[u as usize] = v;
        }

        let mut iterations = 0usize;
        let mut prev_norm = f64::INFINITY;
        loop {
            // Residual r = b − W x̃ = b − x̃ + (1−c)·A x̃, streamed from
            // the permuted graph's out-edges (the index stores the graph
            // exactly, so this is the true residual): column j of A is
            // node j's out-distribution, self-looped when dangling under
            // that policy, empty when dangling is kept absorbing.
            for &j in &st.resid_supp {
                st.resid[j as usize] = 0.0;
                st.in_resid[j as usize] = false;
            }
            st.resid_supp.clear();
            let mut edge_terms = 0usize;
            for pos in 0..reach {
                let j = self.bfs.order()[pos];
                let xj = st.x[j as usize];
                if xj == 0.0 {
                    continue;
                }
                touch(&mut st.resid_supp, &mut st.in_resid, j);
                st.resid[j as usize] -= xj;
                let out_sum = graph.out_weight_sum(j);
                if out_sum > 0.0 {
                    let scale = one_minus_c * xj / out_sum;
                    for (t, w) in graph.out_edges(j) {
                        touch(&mut st.resid_supp, &mut st.in_resid, t);
                        st.resid[t as usize] += scale * w;
                        edge_terms += 1;
                    }
                } else if dangling == DanglingPolicy::SelfLoop {
                    st.resid[j as usize] += one_minus_c * xj;
                }
            }
            for &root in &self.sources_p {
                touch(&mut st.resid_supp, &mut st.in_resid, root);
                st.resid[root as usize] += restart_weight;
            }
            stats.refinement_nnz += edge_terms;
            let delta: f64 =
                st.resid_supp.iter().map(|&j| st.resid[j as usize].abs()).sum();

            // |p_u − c·x̃_u| ≤ ‖r‖₁ for every node (column sums of W⁻¹
            // are at most 1/c, cancelling the c in p = c·x): certify the
            // goal against that uniform bound.
            let order = &self.bfs.order()[..reach];
            let (certified, min_gap) = match goal {
                RefineGoal::TopK(k) => {
                    certify_top_k(&st.x, order, c, *k, delta, &mut st.cert)
                }
                RefineGoal::Threshold(theta, hits) => {
                    certify_threshold(&st.x, order, c, *theta, delta, hits)
                }
                RefineGoal::FullVector(_) => (delta <= FULL_VECTOR_FLOOR, delta),
            };
            if certified {
                break;
            }
            if iterations >= REFINE_MAX_ITERATIONS || delta >= prev_norm {
                // Tied (or sub-floating-point-separated) proximities can
                // never certify, and a non-contracting residual means the
                // drop tolerance out-weighs the preconditioner: fail
                // loudly, never return an unproven ranking.
                return Err(KdashError::RefinementFailed {
                    iterations,
                    residual: delta,
                    gap: min_gap,
                });
            }
            prev_norm = delta;

            // One correction pass x̃ += Ũ⁻¹(L̃⁻¹ r): scatter the L̃⁻¹
            // columns of the residual support into y, then gather every
            // reachable Ũ⁻¹ row against it — the same gather and cost
            // model as the initial solve.
            for &u in &st.y_supp {
                st.y[u as usize] = 0.0;
                st.in_y[u as usize] = false;
            }
            st.y_supp.clear();
            let linv = index.linv();
            for &j in &st.resid_supp {
                let rj = st.resid[j as usize];
                if rj == 0.0 {
                    continue;
                }
                let (idx, val) = linv.col(j);
                stats.refinement_nnz += idx.len();
                for (&i, &v) in idx.iter().zip(val) {
                    touch(&mut st.y_supp, &mut st.in_y, i);
                    st.y[i as usize] += rj * v;
                }
            }
            st.y_val.clear();
            st.y_val.extend(st.y_supp.iter().map(|&i| st.y[i as usize]));
            st.ycol.load(&st.y_supp, &st.y_val);
            let nnz_before = self.counters.nnz;
            for pos in 0..reach {
                if let Some(limit) =
                    self.budget.exceeded(stats.visited, self.counters.nnz, started)
                {
                    return Err(self.budget_abort(limit, stats.clone()));
                }
                if pos % PREFETCH_BLOCK == 0 {
                    let end = (pos + PREFETCH_BLOCK).min(reach);
                    let uinv = index.uinv();
                    for &v in &self.bfs.order()[pos..end] {
                        uinv.prefetch_row(v);
                    }
                }
                let u = self.bfs.order()[pos];
                let d = self.counters.gather(index.uinv(), u, &st.ycol);
                st.x[u as usize] += d;
            }
            stats.refinement_nnz += self.counters.nnz - nnz_before;
            iterations += 1;
        }
        stats.refinement_iterations = iterations;

        // Deliver the certified answer.
        match goal {
            RefineGoal::TopK(k) => {
                // The certification scratch already ranked the k+1 best
                // candidates (descending proximity, ties by ascending
                // permuted id); the first k are the proven answer.
                self.heap.reset(*k);
                let ranked = st.cert.sorted_entries();
                for &(p, u) in ranked.iter().take(*k) {
                    self.heap.offer(p, u);
                }
            }
            RefineGoal::Threshold(..) => {
                // The accepting certification pass left the final hits in
                // the goal's list, already sorted.
            }
            RefineGoal::FullVector(out) => {
                for pos in 0..reach {
                    let u = self.bfs.order()[pos];
                    out[u as usize] = c * st.x[u as usize];
                }
            }
        }
        Ok(())
    }
}

/// Gather traffic of one query under a fixed accounting model: every
/// gathered row streams its blocked index bytes, and is charged 8 value
/// bytes per stamp hit (the value loads the scalar gather executes).
#[derive(Debug, Clone, Copy, Default)]
struct GatherCounters {
    /// Rows gathered.
    rows: usize,
    /// Index bytes streamed (2 per stored entry + 8 per run).
    index_bytes: usize,
    /// Value bytes touched (8 per stamp hit).
    value_bytes: usize,
    /// Stored entries of every gathered row — the query-budget currency
    /// ([`QueryBudget::max_gather_nnz`] meters this).
    nnz: usize,
}

impl GatherCounters {
    /// Row `r` of `uinv` against `column`, counted. Every proximity the
    /// searcher computes runs through here.
    #[inline]
    fn gather(&mut self, uinv: &BlockedCsr, r: NodeId, column: &ScatteredColumn) -> f64 {
        let (acc, hits) = uinv.row_dot_scattered_counting(r, column);
        self.rows += 1;
        self.index_bytes += uinv.row_index_bytes(r);
        self.value_bytes += 8 * hits;
        self.nnz += uinv.row_nnz(r);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;
    use kdash_graph::GraphBuilder;

    fn tiny_index() -> KdashIndex {
        let mut b = GraphBuilder::new(6);
        for v in 0..6u32 {
            b.add_edge(v, (v + 1) % 6, 1.0);
            b.add_edge(v, (v + 2) % 6, 0.5);
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn heap_keeps_largest_k() {
        let mut h = TopKHeap::new(3);
        for (p, n) in [(0.1, 1u32), (0.5, 2), (0.3, 3), (0.9, 4), (0.2, 5)] {
            h.offer(p, n);
        }
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![4, 2, 3]);
    }

    #[test]
    fn heap_threshold_tracks_kth_best() {
        let mut h = TopKHeap::new(2);
        assert_eq!(h.threshold(), 0.0);
        h.offer(0.4, 1);
        assert_eq!(h.threshold(), 0.0, "not full yet");
        h.offer(0.7, 2);
        assert!((h.threshold() - 0.4).abs() < 1e-15);
        h.offer(0.5, 3);
        assert!((h.threshold() - 0.5).abs() < 1e-15);
        h.offer(0.1, 4); // too small, ignored
        assert!((h.threshold() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn heap_with_k_zero_accepts_and_returns_nothing() {
        let mut h = TopKHeap::new(0);
        assert!(h.is_full(), "a zero-capacity heap is trivially full");
        assert_eq!(h.threshold(), 0.0, "but its threshold stays the dummy 0");
        for (p, n) in [(0.9, 1u32), (0.1, 2)] {
            h.offer(p, n);
        }
        assert!(h.sorted_entries().is_empty());
    }

    #[test]
    fn heap_with_k_beyond_population_keeps_everything() {
        let mut h = TopKHeap::new(100);
        for (p, n) in [(0.1, 1u32), (0.5, 2), (0.3, 3)] {
            h.offer(p, n);
        }
        assert!(!h.is_full());
        assert_eq!(h.threshold(), 0.0, "threshold is 0 while dummies remain");
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![2, 3, 1]);
    }

    #[test]
    fn heap_reset_reuses_storage_across_sizes() {
        let mut h = TopKHeap::new(3);
        for i in 0..10u32 {
            h.offer(f64::from(i) * 0.05, i);
        }
        h.reset(1);
        h.offer(0.2, 7);
        h.offer(0.9, 8);
        let top: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(top, vec![8]);
        h.reset(0);
        h.offer(1.0, 1);
        assert!(h.sorted_entries().is_empty());
    }

    #[test]
    fn heap_ties_break_by_ascending_node_id() {
        let mut h = TopKHeap::new(4);
        for n in [9u32, 3, 7, 1] {
            h.offer(0.25, n);
        }
        let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
        assert_eq!(nodes, vec![1, 3, 7, 9]);
    }

    #[test]
    fn searcher_reuse_matches_fresh_searchers() {
        let index = tiny_index();
        let mut reused = index.searcher();
        for q in 0..6u32 {
            for k in [0usize, 2, 6, 10] {
                let a = reused.top_k(q, k).unwrap();
                let b = index.searcher().top_k(q, k).unwrap();
                assert_eq!(a.items.len(), b.items.len());
                for (x, y) in a.items.iter().zip(&b.items) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                }
            }
        }
    }

    #[test]
    fn top_k_into_reuses_the_result_buffer() {
        let index = tiny_index();
        let mut searcher = index.searcher();
        let mut out = TopKResult::default();
        searcher.top_k_into(0, 4, &mut out).unwrap();
        let first: Vec<NodeId> = out.items.iter().map(|r| r.node).collect();
        searcher.top_k_into(3, 4, &mut out).unwrap();
        assert_eq!(out.items.len(), 4);
        assert_eq!(out.items[0].node, 3, "buffer must hold the *new* query's answer");
        searcher.top_k_into(0, 4, &mut out).unwrap();
        let again: Vec<NodeId> = out.items.iter().map(|r| r.node).collect();
        assert_eq!(first, again);
    }

    /// `Searcher::run` on a fresh result.
    fn run(s: &mut Searcher<'_>, restart: Restart<'_>, stop: Stop) -> Result<TopKResult> {
        let mut out = TopKResult::default();
        s.run(&Query { restart, stop }, &mut out).map(|()| out)
    }

    #[test]
    fn heap_keeps_the_best_ranked_whatever_the_arrival_order() {
        // Ties at the k-th place resolve by ascending node id, so the kept
        // set never depends on the order candidates arrive in.
        let offers = [(0.5, 4u32), (0.25, 9), (0.25, 3), (0.25, 7), (0.75, 1)];
        for rotation in 0..offers.len() {
            let mut h = TopKHeap::new(3);
            for i in 0..offers.len() {
                let (p, n) = offers[(i + rotation) % offers.len()];
                h.offer(p, n);
            }
            let nodes: Vec<NodeId> = h.sorted_entries().iter().map(|&(_, n)| n).collect();
            assert_eq!(nodes, vec![1, 4, 3], "rotation {rotation}");
        }
    }

    #[test]
    fn mixed_entry_points_share_one_workspace() {
        // Interleaving different query kinds must not leak state between
        // them: each call replays identically to a fresh workspace.
        let index = tiny_index();
        let mut s = index.searcher();
        let queries = [
            (Restart::Node(1), Stop::TopK(3)),
            (Restart::Node(2), Stop::Above(1e-4)),
            (Restart::Set(&[0, 4]), Stop::TopK(3)),
            (Restart::Set(&[0, 4]), Stop::Above(1e-4)),
            (Restart::Node(1), Stop::Unpruned(3)),
            (Restart::Set(&[3, 5]), Stop::Unpruned(3)),
        ];
        for round in 0..3 {
            let d = s.top_k_from_root(1, 3, 5).unwrap();
            let fresh_d = index.searcher().top_k_from_root(1, 3, 5).unwrap();
            let mut pairs = vec![(d, fresh_d)];
            for (restart, stop) in queries {
                let got = run(&mut s, restart, stop).unwrap();
                let want = run(&mut index.searcher(), restart, stop).unwrap();
                assert_eq!(got.stats, want.stats, "round {round}: {restart:?} {stop:?}");
                pairs.push((got, want));
            }
            for (got, want) in &pairs {
                assert_eq!(got.items.len(), want.items.len(), "round {round}");
                for (x, y) in got.items.iter().zip(&want.items) {
                    assert_eq!(x.node, y.node);
                    assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
                }
            }
            // Pruned and unpruned top-k agree on the answer.
            for (x, y) in pairs[1].0.items.iter().zip(&pairs[5].0.items) {
                assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
            }
        }
    }

    #[test]
    fn invalid_thresholds_are_errors_not_panics() {
        let index = tiny_index();
        let mut s = index.searcher();
        for theta in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match run(&mut s, Restart::Node(0), Stop::Above(theta)) {
                Err(KdashError::InvalidThreshold { .. }) => {}
                other => panic!("theta {theta}: expected InvalidThreshold, got {other:?}"),
            }
        }
        // The workspace stays usable after a rejected query.
        assert!(run(&mut s, Restart::Node(0), Stop::Above(1e-3)).is_ok());
    }

    #[test]
    fn frontier_budget_aborts_with_typed_error_and_stats() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            max_frontier_nodes: Some(2),
            ..QueryBudget::default()
        });
        match s.top_k(0, 6) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::FrontierNodes(2));
                assert_eq!(stats.visited, 2, "the budget admits exactly 2 visits");
                assert!(stats.proximity_computations <= 2);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The same workspace answers exactly once the budget is lifted.
        s.set_budget(QueryBudget::unlimited());
        let a = s.top_k(0, 6).unwrap();
        let b = index.searcher().top_k(0, 6).unwrap();
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
        }
    }

    #[test]
    fn gather_budget_meters_stored_entries() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget { max_gather_nnz: Some(1), ..QueryBudget::default() });
        match s.top_k(0, 6) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::GatherNnz(1));
                assert!(stats.nnz_gathered >= 1, "the abort carries the running total");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn budgets_cover_every_entry_point() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            max_frontier_nodes: Some(1),
            ..QueryBudget::default()
        });
        for restart in [Restart::Node(0), Restart::Set(&[0, 3])] {
            for stop in [Stop::TopK(6), Stop::Above(1e-6), Stop::Unpruned(6)] {
                assert!(
                    matches!(run(&mut s, restart, stop), Err(KdashError::BudgetExceeded { .. })),
                    "{restart:?} {stop:?}"
                );
            }
        }
        assert!(matches!(
            s.top_k_from_root(0, 6, 2),
            Err(KdashError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn expired_deadline_aborts_before_any_work() {
        let index = tiny_index();
        let mut s = index.searcher();
        s.set_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            ..QueryBudget::default()
        });
        match s.top_k(0, 3) {
            Err(KdashError::BudgetExceeded { limit, stats }) => {
                assert_eq!(limit, BudgetLimit::Deadline(Duration::ZERO));
                assert_eq!(stats.visited, 0);
                assert_eq!(stats.proximity_computations, 0);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_no_budget() {
        let index = tiny_index();
        let mut budgeted = index.searcher();
        budgeted.set_budget(QueryBudget {
            max_frontier_nodes: Some(usize::MAX),
            max_gather_nnz: Some(usize::MAX),
            deadline: Some(Duration::from_secs(3600)),
            ..QueryBudget::default()
        });
        let mut plain = index.searcher();
        for q in 0..6u32 {
            let a = budgeted.top_k(q, 4).unwrap();
            let b = plain.top_k(q, 4).unwrap();
            assert_eq!(a.stats, b.stats, "budget checks must not perturb the search");
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
            }
        }
    }
}
