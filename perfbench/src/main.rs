//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-exact --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates an RMAT graph and the read and write streams from `--seed`,
//! builds the index, serves it through `kdash-serve`, drives it for
//! `--seconds`, checks the answers, and prints one JSON line last:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Files for the run go to `.bench_out/` in the working
//! directory. See `README.md` beside this crate.

mod check;
mod cpu;
mod drive;
mod json;
mod schema;
mod stats;
mod trace;
mod workload;

use drive::{QueryStream, Saturated, Timing, WriteSample};
use json::quote;
use kdash_baselines::IterativeRwr;
use kdash_core::{
    save_atomic, BuildReport, BuildStage, IndexBuilder, IndexStats, KdashError, KdashIndex,
    SearchStats, Searcher, TopKResult,
};
use kdash_datagen::{rmat, RmatParams};
use kdash_dynamic::{DynamicIndex, Journal, AUTO_CHECKPOINT_DEFAULT_RECORDS};
use kdash_graph::{CsrGraph, NodeId};
use kdash_serve::{
    EpochStore, EpochWriter, MetricsSnapshot, PendingQuery, ServeError, ServeLoop, ServeOptions,
    ServeResponse,
};
use stats::Sample;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{
    Phases, Workload, K, ORACLE_SAMPLES, REPLAY_EVERY, SETUP_REPS, TRACE_REPLAY_EVERY, WINDOW,
};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <read-exact|mixed-exact|read-sparse> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}; {USAGE}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value; {USAGE}"))
    };
    if argv.len() != 8 {
        return Err(USAGE.to_string());
    }
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name}; {USAGE}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Independent streams from one seed (SplitMix64 finaliser).
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One set-up's serving stack.
struct Stack {
    serve: ServeLoop,
    store: Arc<EpochStore>,
    writer: Option<EpochWriter>,
}

struct SetupOut {
    build: BuildReport,
    index_stats: IndexStats,
    attach: Option<Duration>,
    wall: Duration,
}

/// Saves the initial snapshot, opens its journal and attaches the
/// journaled update engine with the default auto-checkpoint policy.
fn attach_writer(
    index: KdashIndex,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(EpochWriter, Duration), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let snapshot = dir.join("index.kdash");
    save_atomic(&index, &snapshot).map_err(|e| format!("save snapshot: {e}"))?;
    let journal = Journal::create(Journal::sidecar_path(&snapshot), index.update_epoch())
        .map_err(|e| format!("create journal: {e}"))?;
    let t = Instant::now();
    let engine = DynamicIndex::new(index).map_err(|e| format!("attach engine: {e}"))?;
    let attached = Instant::now();
    tracer.record("DynamicIndex::new", None, None, t, attached);
    let engine = engine
        .journaled(journal)
        .map_err(|e| format!("attach journal: {e}"))?
        .auto_checkpoint(&snapshot, AUTO_CHECKPOINT_DEFAULT_RECORDS);
    Ok((EpochWriter::new(engine).0, attached - t))
}

/// Builds the index on every core, attaches the writer when writes run
/// beside reads, starts the serve loop and waits for its first answer.
fn setup(
    w: &Workload,
    graph: &CsrGraph,
    dir: &Path,
    first_query: NodeId,
    tracer: &mut Tracer,
) -> Result<(Stack, SetupOut), String> {
    let t = Instant::now();
    let (index, build) = IndexBuilder::new()
        .threads(0)
        .drop_tolerance(w.drop_tolerance)
        .build_with_report(graph)
        .map_err(|e| format!("build: {e}"))?;
    let built = Instant::now();
    let id = tracer.record("IndexBuilder::build_with_report", None, None, t, built);
    let stages: Vec<_> = build
        .stages
        .iter()
        .map(|s| (s.stage.name(), s.duration))
        .collect();
    tracer.record_stages(id, None, t, &stages);
    let index_stats = index.stats().clone();
    let (store, mut writer, attach) = if w.writes_with_reads {
        let (writer, attach) = attach_writer(index, dir, tracer)?;
        (writer.store(), Some(writer), Some(attach))
    } else {
        (Arc::new(EpochStore::new(index)), None, None)
    };
    let serve = ServeLoop::start(Arc::clone(&store), ServeOptions::default())
        .map_err(|e| format!("start serve loop: {e}"))?;
    if let Some(writer) = writer.as_mut() {
        writer.attach_metrics(serve.metrics());
    }
    serve
        .query_blocking(first_query, K)
        .map_err(|e| format!("first request: {e}"))?;
    let wall = t.elapsed();
    Ok((
        Stack {
            serve,
            store,
            writer,
        },
        SetupOut {
            build,
            index_stats,
            attach,
            wall,
        },
    ))
}

/// Sampled answers, replayed on a standalone `Searcher` while their
/// epoch is still pinned, and checked against the oracle when they name
/// the initial graph.
struct Verifier<'a> {
    store: &'a EpochStore,
    base_epoch: u64,
    base_oracle: &'a IterativeRwr,
    certified: bool,
    pinned: Option<Arc<KdashIndex>>,
    pending: Vec<(NodeId, Result<TopKResult, KdashError>)>,
    replayed: usize,
    oracle_checked: usize,
    unpinnable: usize,
    mismatches: Vec<String>,
}

impl<'a> Verifier<'a> {
    fn new(store: &'a EpochStore, base_oracle: &'a IterativeRwr, certified: bool) -> Self {
        Verifier {
            store,
            base_epoch: store.epoch(),
            base_oracle,
            certified,
            pinned: None,
            pending: Vec::new(),
            replayed: 0,
            oracle_checked: 0,
            unpinnable: 0,
            mismatches: Vec::new(),
        }
    }

    /// Queues an answer; replays the queue whenever the epoch moves, so
    /// at most one superseded snapshot stays pinned.
    fn add(&mut self, q: NodeId, epoch: u64, answer: Result<TopKResult, KdashError>) {
        if self.pinned.as_ref().map(|p| p.update_epoch()) != Some(epoch) {
            self.flush();
            let pinned = self.store.pin();
            let current = pinned.update_epoch();
            self.pinned = Some(pinned);
            if current != epoch {
                self.unpinnable += 1;
                return;
            }
        }
        self.pending.push((q, answer));
    }

    fn flush(&mut self) {
        let Some(index) = self.pinned.as_deref() else {
            return;
        };
        for (q, answer) in self.pending.drain(..) {
            self.replayed += 1;
            self.mismatches
                .extend(check::replay_mismatch(index, q, K, &answer));
            if let Ok(result) = &answer {
                if index.update_epoch() == self.base_epoch && self.oracle_checked < ORACLE_SAMPLES {
                    self.oracle_checked += 1;
                    let oracle = self.base_oracle.full(q);
                    if let Some(m) = check::oracle_mismatch(&oracle, K, result, self.certified) {
                        self.mismatches
                            .push(format!("query {q} on the initial graph: {m}"));
                    }
                }
            }
        }
    }
}

/// One paced read as the client saw it.
struct Read {
    failed: bool,
    refinement_failed: bool,
    stats: Option<SearchStats>,
}

/// The answer a reply carries and the epoch it names; a typed error
/// names none. Shed and shutdown replies carry no answer.
fn served_answer(
    reply: &Result<ServeResponse, ServeError>,
) -> Option<(Option<u64>, Result<TopKResult, KdashError>)> {
    match reply {
        Ok(r) => Some((Some(r.epoch), Ok(r.result.clone()))),
        Err(ServeError::Query(e)) => Some((None, Err(e.clone()))),
        Err(_) => None,
    }
}

fn is_refinement_failure(reply: &Result<ServeResponse, ServeError>) -> bool {
    matches!(
        reply,
        Err(ServeError::Query(KdashError::RefinementFailed { .. }))
    )
}

/// Traced-part samples of the paced phase.
#[derive(Default)]
struct Traced {
    service_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    pin_us: Vec<f64>,
}

fn peak_rss_reset() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's commit, read from `.git` without running git (the
/// benchmark may run from a plain copy of the tree).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unavailable: not a git checkout".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(Path::new(".git").join(reference))
        .map(|s| s.trim().to_string())
        .ok()
        .or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    Sample::new(values.into_iter().collect()).median()
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn result_line(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    s.push_str("}}");
    s
}

fn run(args: Args) -> Result<(Outcome, String), String> {
    let origin = Instant::now();
    let w = args.workload;
    let phases = Phases::of(args.seconds);
    let out_dir = PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-trace{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&out_dir);
    let wal_dir = out_dir.join("wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("create {}: {e}", wal_dir.display()))?;

    let graph_seed = derive(args.seed, 1);
    let unit_graph = rmat(
        w.scale,
        workload::EDGE_FACTOR << w.scale,
        RmatParams::default(),
        graph_seed,
    );
    let graph = workload::hashed_weights(&unit_graph);
    let mut queries = QueryStream::new(&graph, derive(args.seed, 2));
    let mut edits = drive::EditStream::new(&graph, derive(args.seed, 3));
    let first_query = QueryStream::new(&graph, derive(args.seed, 4)).next_query();
    let mut tracer = Tracer::new(args.trace, origin, 0);
    let mut writer_tracer = Tracer::new(args.trace, origin, 1);

    // Set-up, several times; the last stack serves the run.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for rep in 0..SETUP_REPS {
        drop(stack.take());
        let (s, out) = setup(
            w,
            &graph,
            &wal_dir.join(format!("setup{rep}")),
            first_query,
            &mut tracer,
        )?;
        setups.push(out);
        stack = Some(s);
    }
    let Stack {
        serve,
        store,
        mut writer,
    } = stack.expect("at least one set-up");
    let pinned0 = store.pin();
    let restart = pinned0.restart_probability();
    let serve_workers = serve.workers();
    drop(pinned0);
    let base_oracle = IterativeRwr::new(&graph, restart);
    let rss_reset = peak_rss_reset();

    // Unrecorded paced reads first, so the measured phases start warm.
    let mut warmup_queries = QueryStream::new(&graph, derive(args.seed, 6));
    let now = Instant::now();
    drive::paced(
        now,
        w.read_rate,
        now + workload::WARMUP,
        |_| serve.query_blocking(warmup_queries.next_query(), K).is_ok(),
        |_, _, _| {},
    );
    // The read phases alternate in rounds, so a slow spell of the host
    // lands on both; in a traced run the first round is the untraced
    // reference for `trace.overhead_pct`.
    let lead = Duration::from_millis(20);
    let rounds = workload::ROUNDS;
    let round_paced = phases.paced / rounds;
    let round_saturate = phases.saturate / rounds;
    let round_len = round_paced + round_saturate;
    let reads_start = Instant::now() + lead;
    let reads_end = reads_start + round_len * rounds;
    let certified = w.drop_tolerance > 0.0;
    let mut verifier = Verifier::new(&store, &base_oracle, certified);
    let mut reads: Vec<Read> = Vec::new();
    let mut traced = Traced::default();
    let mut writes: Vec<WriteSample> = Vec::new();
    let mut timings: Vec<Timing> = Vec::new();
    let mut untraced_reads = 0;
    let mut saturated = Saturated::default();
    // CPU nanoseconds and successful reads of each saturate block.
    let mut saturate_cpu: Vec<(u64, u64)> = Vec::new();
    let writer_tid = std::sync::atomic::AtomicU64::new(0);
    let no_proc = || "per-thread CPU time needs /proc/thread-self/schedstat".to_string();

    let mut on_reply = |i: usize,
                        timing: &Timing,
                        (q, reply): (NodeId, Result<ServeResponse, ServeError>),
                        trace_this: bool| {
        let refinement_failed = is_refinement_failure(&reply);
        let stats = reply.as_ref().ok().map(|r| r.result.stats.clone());
        reads.push(Read {
            failed: reply.is_err(),
            refinement_failed,
            stats,
        });
        let answer = served_answer(&reply);
        if trace_this && i.is_multiple_of(TRACE_REPLAY_EVERY) {
            let request = Some(i as u64);
            tracer.record(
                "ServeLoop::submit..wait",
                None,
                request,
                timing.sent,
                timing.replied,
            );
            let t = Instant::now();
            let index = store.pin();
            let pinned = Instant::now();
            tracer.record("EpochStore::pin", None, request, t, pinned);
            traced.pin_us.push(secs(pinned - t) * 1e6);
            let Some((epoch, served)) = answer else {
                return;
            };
            if epoch.is_some_and(|e| e != index.update_epoch()) {
                return;
            }
            let mut searcher = Searcher::new(&index);
            let mut out = TopKResult {
                items: Vec::with_capacity(K),
                stats: SearchStats::default(),
            };
            let t = Instant::now();
            let replay = searcher.top_k_into(q, K, &mut out).map(|()| out);
            let done = Instant::now();
            tracer.record("Searcher::top_k_into", None, request, t, done);
            let service = ms(done - t);
            traced.service_ms.push(service);
            traced
                .queue_wait_ms
                .push((ms(timing.replied - timing.sent) - service).max(0.0));
            if !check::bit_identical(&replay, &served) {
                verifier.mismatches.push(format!(
                    "query {q} at epoch {}: served {served:?}, standalone {replay:?}",
                    index.update_epoch()
                ));
            }
        } else if i.is_multiple_of(REPLAY_EVERY) {
            if let Some((epoch, served)) = answer {
                // A typed error names no epoch: replay it on the current one.
                let epoch = epoch.unwrap_or_else(|| store.epoch());
                verifier.add(q, epoch, served);
            }
        }
    };
    std::thread::scope(|scope| {
        let writer_thread = writer.as_mut().map(|wr| {
            let (edits, wt, tid) = (&mut edits, &mut writer_tracer, &writer_tid);
            scope.spawn(move || {
                tid.store(cpu::thread_id().unwrap_or(0), Ordering::Relaxed);
                drive::paced_writes(wr, edits, w.write_rate, reads_start, reads_end, wt)
            })
        });
        for round in 0..rounds {
            let start = reads_start + round_len * round;
            let offset = timings.len();
            let trace_this = args.trace && round > 0;
            timings.extend(drive::paced(
                start,
                w.read_rate,
                start + round_paced,
                |_| {
                    let q = queries.next_query();
                    (q, serve.submit(q, K).and_then(PendingQuery::wait))
                },
                |i, timing, outcome| on_reply(offset + i, timing, outcome, trace_this),
            ));
            if round == 0 {
                untraced_reads = timings.len();
            }
            let until = start + round_len - lead;
            // The writer's own CPU is not the reads' cost.
            let skip = Some(writer_tid.load(Ordering::Relaxed));
            let cpu_before = cpu::process_ns(skip).ok_or_else(no_proc)?;
            let block = drive::saturate(&serve, &mut queries, K, WINDOW, until);
            let cpu_ns = cpu::process_ns(skip).ok_or_else(no_proc)? - cpu_before;
            saturate_cpu.push((cpu_ns, block.ok));
            saturated.merge(block);
        }
        if let Some(handle) = writer_thread {
            writes = handle.join().expect("writer thread panicked");
        }
        Ok::<(), String>(())
    })?;
    verifier.flush();
    let read_metrics: MetricsSnapshot = serve.metrics().snapshot();
    let Verifier {
        mut mismatches,
        replayed,
        oracle_checked,
        unpinnable,
        ..
    } = verifier;

    // Read-only workloads: the writer runs alone after the reads.
    let (serve, writer, attach) = match writer {
        Some(wr) => (serve, wr, setups.last().and_then(|s| s.attach)),
        None => {
            let index = KdashIndex::clone(&store.pin());
            drop(serve);
            drop(store);
            let (mut wr, attach) =
                attach_writer(index, &wal_dir.join("writes"), &mut writer_tracer)?;
            let serve = ServeLoop::start(wr.store(), ServeOptions::default())
                .map_err(|e| format!("start serve loop: {e}"))?;
            wr.attach_metrics(serve.metrics());
            let start = Instant::now() + lead;
            writes = drive::paced_writes(
                &mut wr,
                &mut edits,
                w.write_rate,
                start,
                start + phases.writes,
                &mut writer_tracer,
            );
            (serve, wr, Some(attach))
        }
    };
    let peak_rss = peak_rss_mb()?;

    // The final epoch against the oracle on the final graph.
    let final_graph = graph
        .apply_edits(&edits.committed)
        .map_err(|e| format!("replaying the committed edits: {e}"))?;
    let final_oracle = IterativeRwr::new(&final_graph, restart);
    let final_epoch = writer.epoch();
    let mut final_queries = QueryStream::new(&graph, derive(args.seed, 5));
    let (mut final_failed, mut final_refinement_failed) = (0u64, 0u64);
    for _ in 0..ORACLE_SAMPLES {
        let q = final_queries.next_query();
        let reply = serve.query_blocking(q, K);
        final_refinement_failed += u64::from(is_refinement_failure(&reply));
        match reply {
            Ok(r) if r.epoch != final_epoch => mismatches.push(format!(
                "query {q}: served epoch {} after the writer stopped at {final_epoch}",
                r.epoch
            )),
            Ok(r) => {
                if let Some(m) =
                    check::oracle_mismatch(&final_oracle.full(q), K, &r.result, certified)
                {
                    mismatches.push(format!("query {q} on the final graph: {m}"));
                }
            }
            Err(_) => final_failed += 1,
        }
    }
    drop(serve);
    drop(writer);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Counting.
    let paced_failed = reads.iter().filter(|r| r.failed).count() as u64;
    let writes_failed = writes.iter().filter(|s| s.report.is_err()).count() as u64;
    let attempted = reads.len() as u64
        + saturated.ok
        + saturated.failed
        + saturated.shed
        + writes.len() as u64
        + ORACLE_SAMPLES as u64;
    let failed = paced_failed + saturated.failed + saturated.shed + writes_failed + final_failed;
    let correct = mismatches.is_empty();

    // End-to-end.
    let read_latency = Sample::new(timings.iter().map(|t| ms(t.latency())).collect());
    let write_latency = Sample::new(writes.iter().map(|s| ms(s.timing.latency())).collect());
    let setup_s = median_of(setups.iter().map(|s| secs(s.wall)));
    let end_to_end = vec![
        ("setup_s", setup_s, "s"),
        (
            "read_cpu_us",
            median_of(
                saturate_cpu
                    .iter()
                    .map(|&(ns, ok)| ns as f64 / 1e3 / ok.max(1) as f64),
            ),
            "us",
        ),
        (
            "write_cpu_ms",
            stats::median_block_mean(
                &writes.iter().map(|s| s.cpu_ns as f64 / 1e6).collect::<Vec<_>>(),
                AUTO_CHECKPOINT_DEFAULT_RECORDS as usize,
            ),
            "ms",
        ),
        ("peak_rss_mb", peak_rss, "MB"),
        (
            "success_rate",
            1.0 - failed as f64 / attempted as f64,
            "fraction",
        ),
    ];

    let metrics = if !args.trace {
        end_to_end
    } else {
        let stage = |s: BuildStage| median_of(setups.iter().map(|o| secs(o.build.duration_of(s))));
        let ok_stats: Vec<&SearchStats> = reads.iter().filter_map(|r| r.stats.as_ref()).collect();
        let sum = |f: fn(&SearchStats) -> usize| ok_stats.iter().map(|s| f(s) as f64).sum::<f64>();
        let per_ok = |f: fn(&SearchStats) -> usize| sum(f) / ok_stats.len().max(1) as f64;
        let computed = sum(|s| s.proximity_computations);
        let rows = sum(|s| s.rows_wide + s.rows_scalar);
        let all_reads =
            reads.len() as u64 + saturated.ok + saturated.failed + ORACLE_SAMPLES as u64;
        let refinement_failed = reads.iter().filter(|r| r.refinement_failed).count() as u64
            + saturated.refinement_failed
            + final_refinement_failed;
        let tail_or_zero = |v: &[f64]| Sample::new(v.to_vec()).best_tail(0.99).map_or(0.0, |t| t.1);
        let median_or_zero = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                median_of(v.iter().copied())
            }
        };
        let reports: Vec<_> = writes
            .iter()
            .filter_map(|s| s.report.as_ref().ok())
            .collect();
        let publish_ms: Vec<f64> = writes
            .iter()
            .filter_map(|s| {
                s.report
                    .as_ref()
                    .ok()
                    .map(|r| ms(s.timing.replied - s.timing.sent) - ms(r.total_time()))
            })
            .collect();
        let checkpoints: Vec<_> = reports.iter().filter(|r| r.checkpointed).collect();
        let recomputed: f64 = reports
            .iter()
            .map(|r| r.dirty_factor_columns_recomputed as f64)
            .sum();
        let changed: f64 = reports
            .iter()
            .map(|r| (r.dirty_l_columns + r.dirty_u_columns) as f64)
            .sum();
        let late: Vec<f64> = timings.iter().map(|t| ms(t.late())).collect();
        let (untraced, traced_part) = timings.split_at(untraced_reads);
        let p50 = |t: &[Timing]| median_of(t.iter().map(|t| ms(t.latency())));
        let overhead_pct = 100.0 * (p50(traced_part) / p50(untraced) - 1.0);
        vec![
            ("read_p50_ms", read_latency.median(), "ms"),
            ("read_p99_ms", read_latency.tail(0.99, "paced reads")?, "ms"),
            ("read_qps_max", saturated.interquartile_rate(), "queries/s"),
            ("write_p50_ms", write_latency.median(), "ms"),
            ("write_p90_ms", write_latency.tail(0.9, "writes")?, "ms"),
            ("core.build.ordering_s", stage(BuildStage::Ordering), "s"),
            (
                "core.build.factorization_s",
                stage(BuildStage::Factorization),
                "s",
            ),
            ("core.build.inversion_s", stage(BuildStage::Inversion), "s"),
            (
                "core.index.inverse_mb",
                setups[0].index_stats.inverse_heap_bytes as f64 / 1e6,
                "MB",
            ),
            (
                "core.search.service_ms_p50",
                median_or_zero(&traced.service_ms),
                "ms",
            ),
            (
                "core.search.service_ms_p99",
                tail_or_zero(&traced.service_ms),
                "ms",
            ),
            (
                "core.search.computed_per_q",
                per_ok(|s| s.proximity_computations),
                "count",
            ),
            (
                "core.search.useful_ratio",
                (K * ok_stats.len()) as f64 / computed.max(1.0),
                "ratio",
            ),
            (
                "core.search.early_stop_share",
                per_ok(|s| usize::from(s.terminated_early)),
                "fraction",
            ),
            (
                "graph.frontier.expanded_per_q",
                per_ok(|s| s.frontier_expanded),
                "count",
            ),
            (
                "sparse.gather.nnz_per_q",
                per_ok(|s| s.nnz_gathered),
                "count",
            ),
            (
                "sparse.gather.index_bytes_per_q",
                per_ok(|s| s.bytes_touched),
                "bytes",
            ),
            (
                "sparse.gather.value_bytes_per_q",
                per_ok(|s| s.value_bytes_touched),
                "bytes",
            ),
            (
                "sparse.gather.wide_row_share",
                sum(|s| s.rows_wide) / rows.max(1.0),
                "fraction",
            ),
            (
                "core.refine.iters_per_q",
                per_ok(|s| s.refinement_iterations),
                "count",
            ),
            (
                "core.refine.nnz_per_q",
                per_ok(|s| s.refinement_nnz),
                "count",
            ),
            (
                "core.refine.failed_share",
                refinement_failed as f64 / all_reads as f64,
                "fraction",
            ),
            (
                "core.refine.unit_weight_failed_share",
                tie_probe(w, &unit_graph, derive(args.seed, 6))?,
                "fraction",
            ),
            (
                "serve.queue_wait_ms_p50",
                median_or_zero(&traced.queue_wait_ms),
                "ms",
            ),
            (
                "serve.queue_wait_ms_p99",
                tail_or_zero(&traced.queue_wait_ms),
                "ms",
            ),
            ("serve.mean_batch", read_metrics.mean_batch, "count"),
            (
                "serve.max_queue_depth",
                read_metrics.max_queue_depth as f64,
                "count",
            ),
            ("serve.shed", read_metrics.shed as f64, "count"),
            ("serve.pin_us_p99", tail_or_zero(&traced.pin_us), "us"),
            ("serve.publish_ms_p50", median_or_zero(&publish_ms), "ms"),
            (
                "serve.freshness_lag_max",
                read_metrics.freshness_lag_max as f64,
                "count",
            ),
            ("dynamic.attach_s", attach.map_or(0.0, secs), "s"),
            (
                "dynamic.graph_ms",
                mean_of(&reports, |r| ms(r.graph_time)),
                "ms",
            ),
            (
                "dynamic.factorization_ms",
                mean_of(&reports, |r| ms(r.factorization_time)),
                "ms",
            ),
            (
                "dynamic.reach_ms",
                mean_of(&reports, |r| ms(r.reach_time)),
                "ms",
            ),
            (
                "dynamic.resolve_ms",
                mean_of(&reports, |r| ms(r.resolve_time)),
                "ms",
            ),
            (
                "dynamic.splice_ms",
                mean_of(&reports, |r| ms(r.splice_time)),
                "ms",
            ),
            (
                "dynamic.estimator_ms",
                mean_of(&reports, |r| ms(r.estimator_time)),
                "ms",
            ),
            (
                "dynamic.journal_ms",
                mean_of(&reports, |r| ms(r.journal_time)),
                "ms",
            ),
            (
                "dynamic.checkpoint_ms",
                mean_of(&checkpoints, |r| ms(r.checkpoint_time)),
                "ms",
            ),
            ("dynamic.checkpoints", checkpoints.len() as f64, "count"),
            (
                "dynamic.factor_cols_recomputed",
                mean_of(&reports, |r| r.dirty_factor_columns_recomputed as f64),
                "count",
            ),
            (
                "dynamic.resolved_nnz",
                mean_of(&reports, |r| r.resolved_nnz as f64),
                "count",
            ),
            (
                "dynamic.changed_per_recomputed",
                changed / (2.0 * recomputed).max(1.0),
                "ratio",
            ),
            (
                "driver.error_rate",
                failed as f64 / attempted as f64,
                "fraction",
            ),
            (
                "driver.late_share",
                late.iter()
                    .filter(|&&l| l > ms(workload::LATE_AFTER))
                    .count() as f64
                    / late.len().max(1) as f64,
                "fraction",
            ),
            ("driver.late_ms_p99", tail_or_zero(&late), "ms"),
            ("trace.overhead_pct", overhead_pct, "%"),
        ]
    };

    let spec = if args.trace {
        schema::PER_LAYER
    } else {
        schema::END_TO_END
    };
    schema::validate(spec, &metrics)?;
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics,
    };

    // Files for the run.
    let spans: Vec<_> = tracer
        .into_spans()
        .into_iter()
        .chain(writer_tracer.into_spans())
        .collect();
    let mut details = String::new();
    let _ = write!(
        details,
        "{{\"paced_reads\": {}, \"read_p99_samples_beyond\": {}, \"writes\": {}, \
         \"write_p90_samples_beyond\": {}, \"saturate_ok\": {}, \"replayed\": {}, \
         \"oracle_checked_initial\": {}, \"oracle_checked_final\": {}, \"unpinnable\": {}, \
         \"committed_edits\": {}, \"final_epoch\": {final_epoch}, \"mismatches\": [{}], \
         \"self_time_ns\": {{{}}}}}",
        read_latency.len(),
        stats::beyond(read_latency.len(), 0.99),
        write_latency.len(),
        stats::beyond(write_latency.len(), 0.9),
        saturated.ok,
        replayed,
        oracle_checked,
        ORACLE_SAMPLES as u64 - final_failed,
        unpinnable,
        edits.committed.len(),
        mismatches
            .iter()
            .take(20)
            .map(|m| quote(m))
            .collect::<Vec<_>>()
            .join(", "),
        trace::self_time_ns(&spans)
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect::<Vec<_>>()
            .join(", "),
    );
    let line = result_line(&outcome);
    let manifest = manifest(
        &args,
        w,
        &phases,
        &graph,
        graph_seed,
        &setups,
        serve_workers,
        rss_reset,
    );
    let write_file = |name: &str, text: &str| {
        std::fs::write(out_dir.join(name), text).map_err(|e| format!("write {name}: {e}"))
    };
    write_file("manifest.json", &manifest)?;
    write_file(
        "result.json",
        &format!("{{\"result\": {line}, \"details\": {details}}}\n"),
    )?;
    let tsv = |rows: &mut dyn Iterator<Item = &Timing>| {
        let mut out = String::from("due_ms\tlate_ms\tlatency_ms\n");
        for t in rows {
            let _ = writeln!(
                out,
                "{:.3}\t{:.3}\t{:.3}",
                ms(t.due - origin),
                ms(t.late()),
                ms(t.latency())
            );
        }
        out
    };
    write_file("reads.tsv", &tsv(&mut timings.iter()))?;
    write_file("writes.tsv", &tsv(&mut writes.iter().map(|s| &s.timing)))?;
    let slices: Vec<String> = saturated.per_slice.iter().map(u64::to_string).collect();
    write_file("saturate_slices.txt", &(slices.join("\n") + "\n"))?;
    if args.trace {
        write_file("spans.jsonl", &trace::to_json_lines(&spans))?;
    }
    for m in mismatches.iter().take(20) {
        eprintln!("perfbench: wrong answer: {m}");
    }
    Ok((outcome, line))
}

/// The share of [`workload::TIE_PROBE_QUERIES`] top-k queries that fail
/// with `RefinementFailed` on the workload's index built from the
/// unit-weight graph: the tie defect that the hashed weights keep out of
/// the measured operations. A dense index never refines, so it is 0 there.
fn tie_probe(w: &Workload, unit_graph: &CsrGraph, seed: u64) -> Result<f64, String> {
    if w.drop_tolerance == 0.0 {
        return Ok(0.0);
    }
    let (index, _) = IndexBuilder::new()
        .threads(0)
        .drop_tolerance(w.drop_tolerance)
        .build_with_report(unit_graph)
        .map_err(|e| format!("tie probe build: {e}"))?;
    let mut searcher = Searcher::new(&index);
    let mut queries = QueryStream::new(unit_graph, seed);
    let mut failed = 0usize;
    for _ in 0..workload::TIE_PROBE_QUERIES {
        let q = queries.next_query();
        match searcher.top_k(q, K) {
            Ok(_) => {}
            Err(KdashError::RefinementFailed { .. }) => failed += 1,
            Err(e) => return Err(format!("tie probe query {q}: {e}")),
        }
    }
    Ok(failed as f64 / workload::TIE_PROBE_QUERIES as f64)
}

#[allow(clippy::too_many_arguments)]
fn manifest(
    args: &Args,
    w: &Workload,
    phases: &Phases,
    graph: &CsrGraph,
    graph_seed: u64,
    setups: &[SetupOut],
    serve_workers: usize,
    rss_reset: bool,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let build_threads = setups.last().map_or(0, |s| s.build.inversion_threads);
    let options = ServeOptions::default();
    let fields = [
        ("schema_version", schema::SCHEMA_VERSION.to_string()),
        ("workload", quote(w.name)),
        ("why", quote(w.why)),
        ("seed", args.seed.to_string()),
        ("graph_seed", graph_seed.to_string()),
        (
            "generator",
            quote(
                "rmat, RmatParams::default(), duplicates merged; each edge then weighted \
                 1 + splitmix64(src << 32 | dst) / 2^64 at 53 bits",
            ),
        ),
        ("scale", w.scale.to_string()),
        ("nodes", graph.num_nodes().to_string()),
        ("edges", graph.num_edges().to_string()),
        ("drop_tolerance", w.drop_tolerance.to_string()),
        ("k", K.to_string()),
        ("read_rate_per_s", w.read_rate.to_string()),
        ("write_rate_per_s", w.write_rate.to_string()),
        ("writes_with_reads", w.writes_with_reads.to_string()),
        ("saturate_window", WINDOW.to_string()),
        ("serve_workers", serve_workers.to_string()),
        ("serve_max_batch", options.max_batch.to_string()),
        ("serve_queue_capacity", options.queue_capacity.to_string()),
        ("seconds", args.seconds.to_string()),
        ("paced_s", secs(phases.paced).to_string()),
        ("saturate_s", secs(phases.saturate).to_string()),
        ("writes_s", secs(phases.writes).to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("build_threads", build_threads.to_string()),
        (
            "flush_policy",
            quote(&format!(
                "WAL append + fsync per single-edge batch; auto-checkpoint after \
                 {AUTO_CHECKPOINT_DEFAULT_RECORDS} records; run-private directory"
            )),
        ),
        ("peak_rss_reset_after_setup", rss_reset.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_model", quote(&cpu_model())),
        ("git_rev", quote(&git_rev())),
        (
            "note",
            quote(
                "BENCH_PR1..BENCH_PR10 were measured on a 1-core container with other benchmark programs; \
                 they are not baselines for this benchmark",
            ),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  {}: {v}", quote(k)))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok((outcome, line)) => {
            println!("{line}");
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
