//! The load generators: paced reads, saturating reads and paced writes.
//! None of them spins: each sleeps until its next scheduled time.

use crate::trace::Tracer;
use kdash_core::{KdashError, KdashIndex};
use kdash_dynamic::{UpdateBatch, UpdateReport};
use kdash_graph::{CsrGraph, EdgeEdit, NodeId};
use kdash_serve::{EpochWriter, PendingQuery, ServeError, ServeLoop, ServeResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// When one request was due, sent and answered.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Instant,
    pub sent: Instant,
    pub replied: Instant,
}

impl Timing {
    /// From the scheduled send time to the reply, so a slow reply also
    /// charges the delay it imposes on the requests behind it.
    pub fn latency(&self) -> Duration {
        self.replied.saturating_duration_since(self.due)
    }

    /// How far behind its schedule the generator sent this request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Open-loop pacing with at most one request outstanding: request `i` is
/// due at `start + i / rate`, is sent when due (or as soon as the previous
/// reply lets it), and `after` sees each reply with its timing.
pub fn paced<T>(
    start: Instant,
    rate: f64,
    until: Instant,
    mut request: impl FnMut(usize) -> T,
    mut after: impl FnMut(usize, &Timing, T),
) -> Vec<Timing> {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut timings = Vec::new();
    for i in 0.. {
        let due = start + interval.mul_f64(i as f64);
        if due >= until {
            break;
        }
        sleep_until(due);
        let sent = Instant::now();
        let outcome = request(i);
        let timing = Timing {
            due,
            sent,
            replied: Instant::now(),
        };
        after(i, &timing, outcome);
        timings.push(timing);
    }
    timings
}

/// Uniform query sources over the nodes with out-degree > 0 (a dangling
/// node's answer is trivial and skips every search layer).
pub struct QueryStream {
    rng: StdRng,
    sources: Vec<NodeId>,
}

impl QueryStream {
    pub fn new(graph: &CsrGraph, seed: u64) -> Self {
        let sources = (0..graph.num_nodes() as NodeId)
            .filter(|&v| graph.out_degree(v) > 0)
            .collect();
        QueryStream {
            rng: StdRng::seed_from_u64(seed),
            sources,
        }
    }

    pub fn next_query(&mut self) -> NodeId {
        self.sources[self.rng.gen_range(0..self.sources.len())]
    }
}

/// What the closed-loop phase saw.
#[derive(Debug, Default)]
pub struct Saturated {
    pub ok: u64,
    pub failed: u64,
    /// Failures that were `RefinementFailed` (counted in `failed` too).
    pub refinement_failed: u64,
    pub shed: u64,
    /// Successful replies per [`SLICE`] of the phase, in order.
    pub per_slice: Vec<u64>,
}

/// The saturate phase's throughput is sampled per slice of this length.
pub const SLICE: Duration = Duration::from_millis(100);

impl Saturated {
    /// Adds another phase's counts; its slices follow this one's.
    pub fn merge(&mut self, other: Saturated) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.refinement_failed += other.refinement_failed;
        self.shed += other.shed;
        self.per_slice.extend(other.per_slice);
    }

    /// Successful replies per second: the mean over the middle half of
    /// the full slices, so a short stall of the host moves it less than
    /// a whole-phase mean would.
    pub fn interquartile_rate(&self) -> f64 {
        let mut counts = self.per_slice.clone();
        counts.sort_unstable();
        let middle = &counts[counts.len() / 4..counts.len() - counts.len() / 4];
        middle.iter().sum::<u64>() as f64 / middle.len() as f64 / SLICE.as_secs_f64()
    }
}

/// Keeps `window` requests outstanding until `until`, waiting on the
/// oldest before submitting the next, then drains.
pub fn saturate(
    serve: &ServeLoop,
    queries: &mut QueryStream,
    k: usize,
    window: usize,
    until: Instant,
) -> Saturated {
    let start = Instant::now();
    let mut out = Saturated::default();
    let mut outstanding: VecDeque<PendingQuery> = VecDeque::with_capacity(window);
    let settle = |reply: Result<ServeResponse, ServeError>, out: &mut Saturated| match reply {
        Ok(_) => {
            out.ok += 1;
            let slice = (start.elapsed().as_nanos() / SLICE.as_nanos()) as usize;
            if out.per_slice.len() <= slice {
                out.per_slice.resize(slice + 1, 0);
            }
            out.per_slice[slice] += 1;
        }
        Err(e) => {
            out.failed += 1;
            let refinement = matches!(e, ServeError::Query(KdashError::RefinementFailed { .. }));
            out.refinement_failed += u64::from(refinement);
        }
    };
    while Instant::now() < until {
        while outstanding.len() < window {
            match serve.submit(queries.next_query(), k) {
                Ok(pending) => outstanding.push_back(pending),
                Err(ServeError::Overloaded { .. }) => {
                    out.shed += 1;
                    break;
                }
                Err(e) => panic!("serve loop refused a request: {e}"),
            }
        }
        if let Some(oldest) = outstanding.pop_front() {
            settle(oldest.wait(), &mut out);
        }
    }
    // Only whole slices before `until` count towards the rate.
    let full = (until.saturating_duration_since(start).as_nanos() / SLICE.as_nanos()) as usize;
    for pending in outstanding {
        settle(pending.wait(), &mut out);
    }
    out.per_slice.resize(full.max(1), 0);
    out
}

/// Single-edge batches of the tiny-reach class: inserts out of nodes with
/// in-degree 0 into nodes outside that set (so the set keeps in-degree 0
/// and each insert's reach stays small), or deletes of edges this stream
/// inserted. An edit out of the graph's core can cost about a full
/// rebuild, and one such edit would set the run length.
pub struct EditStream {
    rng: StdRng,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    inserted: Vec<(NodeId, NodeId)>,
    /// Every committed edit, in order: the final graph is the initial one
    /// with these applied.
    pub committed: Vec<EdgeEdit>,
}

impl EditStream {
    pub fn new(graph: &CsrGraph, seed: u64) -> Self {
        let in_degree = graph.in_degrees();
        let (sources, targets) =
            (0..graph.num_nodes() as NodeId).partition(|&v| in_degree[v as usize] == 0);
        EditStream {
            rng: StdRng::seed_from_u64(seed),
            sources,
            targets,
            inserted: Vec::new(),
            committed: Vec::new(),
        }
    }

    fn next_edit(&mut self, index: &KdashIndex) -> EdgeEdit {
        if !self.inserted.is_empty() && (self.inserted.len() >= 32 || self.rng.gen_bool(0.5)) {
            let at = self.rng.gen_range(0..self.inserted.len());
            let (src, dst) = self.inserted.swap_remove(at);
            return EdgeEdit::Delete { src, dst };
        }
        let perm = index.permutation();
        loop {
            let src = self.sources[self.rng.gen_range(0..self.sources.len())];
            let dst = self.targets[self.rng.gen_range(0..self.targets.len())];
            if !index
                .permuted_graph()
                .has_edge(perm.new_of(src), perm.new_of(dst))
            {
                self.inserted.push((src, dst));
                return EdgeEdit::Insert {
                    src,
                    dst,
                    weight: crate::workload::edge_weight(src, dst),
                };
            }
        }
    }
}

/// One write, from its scheduled time to the published epoch.
#[derive(Debug)]
pub struct WriteSample {
    pub timing: Timing,
    pub report: Result<UpdateReport, KdashError>,
    /// CPU nanoseconds the writer's thread spent on this write.
    pub cpu_ns: u64,
}

const CPU_TIME: &str = "per-thread CPU time needs /proc/thread-self/schedstat";

/// Applies one single-edge batch every `1 / rate` seconds until `until`
/// through the journaled writer, which returns once the write is durable
/// and published.
pub fn paced_writes(
    writer: &mut EpochWriter,
    edits: &mut EditStream,
    rate: f64,
    start: Instant,
    until: Instant,
    tracer: &mut Tracer,
) -> Vec<WriteSample> {
    let mut reports = Vec::new();
    let timings = paced(
        start,
        rate,
        until,
        |_| {
            let cpu_before = crate::cpu::thread_ns().expect(CPU_TIME);
            let edit = edits.next_edit(writer.engine().index());
            let before = writer.epoch();
            let report =
                writer.apply(&UpdateBatch::new(vec![edit]).expect("one valid edit per batch"));
            if writer.epoch() > before {
                edits.committed.push(edit);
            }
            let cpu = crate::cpu::thread_ns().expect(CPU_TIME) - cpu_before;
            (report, cpu)
        },
        |i, timing, (report, cpu)| {
            if tracer.enabled() {
                let request = Some(i as u64);
                let id = tracer.record(
                    "EpochWriter::apply",
                    None,
                    request,
                    timing.sent,
                    timing.replied,
                );
                if let Ok(r) = &report {
                    tracer.record_stages(id, request, timing.sent, &update_stages(r));
                }
            }
            reports.push((report, cpu));
        },
    );
    timings
        .into_iter()
        .zip(reports)
        .map(|(timing, (report, cpu_ns))| WriteSample {
            timing,
            report,
            cpu_ns,
        })
        .collect()
}

/// The stage durations an `UpdateReport` carries, in execution order.
pub fn update_stages(r: &UpdateReport) -> [(&'static str, Duration); 8] {
    [
        ("dynamic.graph", r.graph_time),
        ("dynamic.journal", r.journal_time),
        ("dynamic.factorization", r.factorization_time),
        ("dynamic.reach", r.reach_time),
        ("dynamic.resolve", r.resolve_time),
        ("dynamic.splice", r.splice_time),
        ("dynamic.estimator", r.estimator_time),
        ("dynamic.checkpoint", r.checkpoint_time),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_rate_ignores_the_outer_quarters() {
        let sat = Saturated {
            per_slice: vec![0, 10, 10, 10, 100, 10, 10, 10],
            ..Default::default()
        };
        assert_eq!(sat.interquartile_rate(), 10.0 / SLICE.as_secs_f64());
    }

    #[test]
    fn latency_runs_from_the_scheduled_send_time() {
        let start = Instant::now();
        let interval = Duration::from_millis(10);
        // Request 0 stalls for 2.5 intervals; 1 and 2 are answered at once
        // but could only be sent after the stall.
        let timings = paced(
            start,
            100.0,
            start + interval * 4 - Duration::from_millis(5),
            |i| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(25));
                }
            },
            |_, _, ()| {},
        );
        assert_eq!(timings.len(), 4);
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(
                t.due,
                start + interval * i as u32,
                "due times follow the schedule"
            );
            assert!(t.sent >= t.due, "never sent early");
        }
        assert!(timings[0].latency() >= Duration::from_millis(25));
        // Request 1 was due at 10 ms and sent after the stall at ~25 ms:
        // its latency includes the wait behind request 0.
        assert!(timings[1].late() >= Duration::from_millis(15));
        assert!(timings[1].latency() >= Duration::from_millis(15));
        assert!(timings[2].latency() >= Duration::from_millis(5));
    }
}
