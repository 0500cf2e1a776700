//! The workloads and the fixed settings every run shares.

use kdash_graph::{CsrGraph, GraphBuilder, NodeId};
use std::time::Duration;

/// Top-k of every read (the serving default).
pub const K: usize = 10;
/// Outstanding requests in the saturate phase: twice the serve loop's
/// default `max_batch` of 32, so drained batches can fill.
pub const WINDOW: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Paced answers per run replayed on a standalone `Searcher` (1 in N).
pub const REPLAY_EVERY: usize = 16;
/// In the traced part of the paced phase, every Nth answer is replayed
/// inline under a span; replaying all of them would double the client's
/// work and put the generator behind its schedule on the sparse index.
pub const TRACE_REPLAY_EVERY: usize = 2;
/// Answers per run compared with the iterative RWR oracle, on each of
/// the initial and the final graph.
pub const ORACLE_SAMPLES: usize = 32;
/// RMAT edges per node.
pub const EDGE_FACTOR: usize = 4;
/// Queries of the traced run's tie probe on the unit-weight graph.
pub const TIE_PROBE_QUERIES: usize = 512;
/// Rounds of paced then saturating reads in one run.
pub const ROUNDS: u32 = 8;
/// Unrecorded paced reads between set-up and the measured phases.
pub const WARMUP: Duration = Duration::from_millis(500);
/// A paced send later than this behind its schedule counts as late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// RMAT scale: `2^scale` nodes.
    pub scale: u32,
    /// `0` builds the dense exact index; `> 0` the sparsified one.
    pub drop_tolerance: f64,
    /// Paced reads per second, about a third of saturated throughput.
    pub read_rate: f64,
    /// Single-edge writes per second.
    pub write_rate: f64,
    /// Whether the writer runs beside the read phases, or alone after them.
    pub writes_with_reads: bool,
}

pub const ALL: &[Workload] = &[
    Workload {
        name: "read-exact",
        why: "Dense exact index, RMAT scale 12: 1000 paced reads/s and saturating reads, then 12 \
              writes/s alone. Frontier, Lemma-2 bound and U^-1 gather do the reads; inversion \
              dominates set-up.",
        scale: 12,
        drop_tolerance: 0.0,
        read_rate: 1000.0,
        write_rate: 12.0,
        writes_with_reads: false,
    },
    Workload {
        name: "mixed-exact",
        why: "The read-exact index and reads, with a journaled writer at 12 single-edge writes/s \
              beside them: apply, WAL fsync, checkpoints, snapshot clone and pin contend with the \
              read path.",
        scale: 12,
        drop_tolerance: 0.0,
        read_rate: 1000.0,
        write_rate: 12.0,
        writes_with_reads: true,
    },
    Workload {
        name: "read-sparse",
        why: "Sparsified index (eps 1e-4), RMAT scale 13, fits in L2: 160 paced reads/s, saturating \
              reads, then 12 writes/s alone. Refinement does the reads, LU the set-up.",
        scale: 13,
        drop_tolerance: 1e-4,
        read_rate: 160.0,
        write_rate: 12.0,
        writes_with_reads: false,
    },
];

/// The weight of edge `src -> dst`: 1 plus a splitmix64 hash of the pair
/// in `[0, 1)`, with 53 bits of granularity (the scheme of the
/// repository's `sparsified_equivalence` suite). Unit weights give
/// structurally twinned nodes exactly equal proximities, which the
/// sparsified index cannot certify an order for (`RefinementFailed`);
/// hashed weights make such ties measure-zero and keep the structure.
pub fn edge_weight(src: NodeId, dst: NodeId) -> f64 {
    let mut z = ((u64::from(src) << 32) | u64::from(dst)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    1.0 + ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// `graph` with every edge weighted by [`edge_weight`].
pub fn hashed_weights(graph: &CsrGraph) -> CsrGraph {
    let n = graph.num_nodes();
    let mut b = GraphBuilder::new(n);
    for v in 0..n as NodeId {
        for (t, _) in graph.out_edges(v) {
            b.add_edge(v, t, edge_weight(v, t));
        }
    }
    b.build().expect("reweighting keeps the graph's structure")
}

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// How one run's `--seconds` divide among its phases.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub paced: Duration,
    pub saturate: Duration,
    /// The writer's span: beside both read phases, or alone after them.
    pub writes: Duration,
}

impl Phases {
    pub fn of(seconds: f64) -> Phases {
        let s = Duration::from_secs_f64(seconds);
        let paced = s.mul_f64(0.4);
        let saturate = s.mul_f64(0.4);
        Phases {
            paced,
            saturate,
            writes: paced + saturate,
        }
    }
}
