//! Seeded end-to-end and per-layer benchmark of the TopL-ICDE system.
//!
//! One run is one workload in one process: the inputs come from the seed,
//! the program is driven only through its public API, every answer is
//! checked outside the timed phase, and the result is one JSON line. See
//! `NOTES.md` beside this crate for why each workload exists and which layer
//! metric should move which end-to-end metric.

pub mod check;
pub mod inputs;
pub mod measure;
pub mod query_cold;
pub mod serve_hot;
pub mod stream_mixed;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// How many times each workload runs its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Latency samples the serving workloads take, evenly spaced over their
/// ops. Throughput counts every op, but the tail is the percentile with 10
/// samples beyond it, so the sample size sets it: over millions of hits it
/// would sit at p99.999, and from about p99 up it flips from run to run
/// between hand-off latency and the VM scheduler's stalls (3 runnable
/// threads on 2 vCPUs stall roughly 1% of the time). 400 samples put it at
/// p97.5.
pub const LATENCY_SAMPLES: usize = 400;

/// Stride between latency samples for `ops` ops.
pub fn sample_stride(ops: usize) -> usize {
    (ops / LATENCY_SAMPLES).max(1)
}

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Direct TopL/DTopL calls on distinct queries: the online kernel only.
    QueryCold,
    /// Cache hits through the serving runtime off an mmap-loaded snapshot.
    ServeHot,
    /// Update batches, publishes and post-publish misses on one client thread.
    StreamMixed,
}

impl Workload {
    /// Every workload, in the order the notes describe them.
    pub const ALL: [Workload; 3] = [
        Workload::QueryCold,
        Workload::ServeHot,
        Workload::StreamMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query_cold",
            Workload::ServeHot => "serve_hot",
            Workload::StreamMixed => "stream_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Whether a metric is printed by untraced or by traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the system sees; measured with tracing off.
    EndToEnd,
    /// One layer's share, derived from the traced run.
    PerLayer,
}

/// A metric every run of its kind prints, whatever the workload.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name in the result object.
    pub name: &'static str,
    /// Unit printed beside the value.
    pub unit: &'static str,
    /// Which runs print it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        kind: Kind::PerLayer,
    }
}

/// Every metric, in print order. A layer a workload does not exercise
/// reads 0 there.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("peak_rss_mb", "MB"),
    e2e("query_p50_ms", "ms"),
    e2e("query_tail_ms", "ms"),
    e2e("queries_per_s", "1/s"),
    // set-up layers (medians over the set-up repeats)
    layer("precompute.build_s", "s"),
    layer("precompute.table_phase_s", "s"),
    layer("precompute.seed_phase_s", "s"),
    layer("index.build_ms", "ms"),
    layer("snapshot.write_ms", "ms"),
    layer("snapshot.load_ms", "ms"),
    layer("serving.warmup_s", "s"),
    layer("streaming.init_ms", "ms"),
    // the TopL kernel (timed phase)
    layer("topl.query_ms.in_grid", "ms"),
    layer("topl.query_ms.above_grid", "ms"),
    layer("topl.heap_pops", "count"),
    layer("topl.refinements", "count"),
    layer("topl.refine_yield", "ratio"),
    layer("topl.exact_verifications", "count"),
    layer("topl.refinements_per_result", "ratio"),
    layer("dtopl.query_ms", "ms"),
    layer("dtopl.diversity_pruned", "count"),
    // serving
    layer("serving.hit_us", "us"),
    layer("serving.hit_rate", "ratio"),
    layer("serving.miss_ms", "ms"),
    layer("serving.miss_wait_ms", "ms"),
    layer("serving.executions", "count"),
    layer("serving.duplicate_executions", "count"),
    // streaming maintenance
    layer("streaming.update_ms", "ms"),
    layer("streaming.update_tail_ms", "ms"),
    layer("streaming.updates_per_s", "1/s"),
    layer("streaming.first_batch_ms", "ms"),
    layer("streaming.apply_ms", "ms"),
    layer("streaming.publish_ms", "ms"),
    layer("streaming.support_patch_ms", "ms"),
    layer("streaming.ball_recompute_ms", "ms"),
    layer("streaming.index_patch_ms", "ms"),
    layer("streaming.vertices_recomputed", "count"),
    layer("streaming.ball_overlap", "count"),
    layer("streaming.repacks", "count"),
    layer("streaming.compactions", "count"),
    // memory
    layer("setup.rss_mb", "MB"),
    layer("timed.rss_mb", "MB"),
    // the trace itself
    layer("trace.spans", "count"),
    layer("trace.coverage", "ratio"),
    layer("trace.overhead_pct", "%"),
    layer("self.setup_ms", "ms"),
    layer("self.timed_ms", "ms"),
];

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Nominal length of the timed phase; sets the op count through each
    /// workload's fixed nominal rate, never through a timer.
    pub seconds: u64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Graph size override (toy-size tests); `None` keeps the workload's.
    pub vertices: Option<usize>,
}

/// Usage text for command-line errors.
pub const USAGE: &str = "usage: topl-benchmark --workload <query_cold|serve_hot|stream_mixed> \
     --seed <n> --seconds <n> --trace <0|1> [--vertices <n>]";

impl Args {
    /// Parses `--flag value` pairs (program name excluded).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            if flags.insert(flag.clone(), value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        let mut take = |flag: &str| flags.remove(flag);
        let number = |flag: &str, v: Option<String>| -> Result<Option<u64>, String> {
            v.map(|s| {
                s.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {s}"))
            })
            .transpose()
        };
        let workload = take("--workload").ok_or("--workload is required")?;
        let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
        let seed = number("--seed", take("--seed"))?.ok_or("--seed is required")?;
        let seconds = number("--seconds", take("--seconds"))?.ok_or("--seconds is required")?;
        if !(1..=3600).contains(&seconds) {
            return Err(format!("--seconds must lie in 1..=3600, got {seconds}"));
        }
        let trace = match take("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        let vertices = number("--vertices", take("--vertices"))?.map(|v| v as usize);
        if vertices.is_some_and(|v| v < 1000) {
            return Err("--vertices must be at least 1000".to_string());
        }
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag {flag}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            vertices,
        })
    }

    /// Op count for a nominal rate: the work is fixed by the arguments, so
    /// every run of one seed does the same work and only its speed varies.
    pub fn ops(&self, per_second: f64) -> usize {
        ((self.seconds as f64 * per_second).round() as usize).max(1)
    }
}

/// State one run accumulates: spans, metrics, op tallies and failed checks.
#[derive(Debug)]
pub struct Run {
    /// The command line.
    pub args: Args,
    /// Spans (recorded only when tracing).
    pub tracer: Tracer,
    metrics: BTreeMap<&'static str, f64>,
    /// Timed ops issued.
    pub attempted: u64,
    /// Timed ops that errored or whose answer failed a check.
    pub failed: u64,
    /// Self-checks that did not hold (same-work counts, set-up determinism).
    pub problems: Vec<String>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
    timed_span: trace::SpanId,
    timed_start: Option<Instant>,
    timed_wall: Duration,
}

impl Run {
    /// A fresh run for `args`.
    pub fn new(args: Args) -> Self {
        Run {
            tracer: Tracer::new(args.trace),
            args,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            notes: Vec::new(),
            timed_span: trace::NO_SPAN,
            timed_start: None,
            timed_wall: Duration::ZERO,
        }
    }

    /// Ends set-up and starts the timed phase: records the set-up memory
    /// peak, then resets the kernel's peak mark so the timed phase's peak is
    /// its own.
    pub fn begin_timed(&mut self) {
        self.set("setup.rss_mb", measure::peak_rss_mb());
        if !measure::reset_peak_rss() {
            self.notes
                .push("peak RSS could not be reset; timed.rss_mb includes set-up".to_string());
        }
        self.timed_span = self.tracer.open("timed", 0);
        self.timed_start = Some(Instant::now());
    }

    /// Ends the timed phase and returns its wall time; records its memory
    /// peak and the run's peak (set-up or timed, whichever is higher).
    pub fn end_timed(&mut self) -> Duration {
        let start = self.timed_start.take().expect("begin_timed comes first");
        self.timed_wall = start.elapsed();
        self.tracer.close(self.timed_span);
        let timed = measure::peak_rss_mb();
        let setup = self.metrics.get("setup.rss_mb").copied().unwrap_or(0.0);
        self.set("timed.rss_mb", timed);
        self.set("peak_rss_mb", setup.max(timed));
        self.notes.push(format!(
            "timed phase {:.3} s (traced: {})",
            self.timed_wall.as_secs_f64(),
            self.args.trace
        ));
        self.timed_wall
    }

    /// Sets a metric; the name must be in [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            METRICS.iter().any(|m| m.name == name),
            "metric {name} is not declared"
        );
        self.metrics.insert(name, value);
    }

    /// Records a failed self-check.
    pub fn problem(&mut self, what: String) {
        eprintln!("self-check failed: {what}");
        self.problems.push(what);
    }

    /// Records the latency tail and names its percentile and sample count.
    pub fn set_tail(&mut self, name: &'static str, samples: &measure::Samples) {
        let (value, pct) = samples.tail();
        self.set(name, value);
        self.notes
            .push(format!("{name} is p{pct} of {} samples", samples.len()));
    }

    /// Runs `f` inside a span called `name`, returning its result and wall
    /// time.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.tracer.open(name, op);
        let out = timed(f);
        self.tracer.close(id);
        out
    }

    /// Directory for the run's scratch files and trace output, inside the
    /// benchmark's own directory.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Sets the TopL-phase work counts of the timed kernel executions.
pub fn set_topl_counts(run: &mut Run, stats: &icde_core::PruningStats, communities: usize) {
    let refinements = stats.candidates_refined + stats.candidates_without_community;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    run.set("topl.heap_pops", stats.heap_pops as f64);
    run.set("topl.refinements", refinements as f64);
    run.set(
        "topl.refine_yield",
        ratio(stats.candidates_refined, refinements),
    );
    run.set("topl.exact_verifications", stats.exact_verifications as f64);
    run.set(
        "topl.refinements_per_result",
        ratio(refinements, communities),
    );
}

/// Median duration in milliseconds of the spans called `name` (0 without
/// tracing).
pub fn span_p50_ms(run: &Run, name: &str) -> f64 {
    measure::Samples::from(run.tracer.durations_ms(name)).p50()
}

/// Times `f`, returning its result and the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Per-repeat set-up timings; [`SetupLog::finish`] sets each metric to the
/// median over the repeats.
#[derive(Debug, Default)]
pub struct SetupLog(BTreeMap<&'static str, Vec<f64>>);

impl SetupLog {
    /// Logs one repeat's value of a set-up metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Sets every logged metric to its median.
    pub fn finish(self, run: &mut Run) {
        for (name, values) in self.0 {
            run.set(name, measure::Samples::from(values).p50());
        }
    }
}

/// The offline build of one set-up repeat: the precompute, then the index
/// over it, each in its own span.
pub fn build_index(
    run: &mut Run,
    log: &mut SetupLog,
    g: &icde_graph::SocialNetwork,
    rep: u64,
) -> icde_core::CommunityIndex {
    let config = inputs::precompute_config();
    let ((data, stats), build) = run.span("precompute", rep, || {
        icde_core::PrecomputedData::compute_with_stats(g, config.clone())
    });
    let (index, index_time) = run.span("index", rep, || {
        icde_core::IndexBuilder::new(config).build_from_precomputed(g, data)
    });
    log.push("precompute.build_s", build.as_secs_f64());
    log.push("precompute.table_phase_s", stats.table_phase_secs);
    log.push("precompute.seed_phase_s", stats.seed_phase_secs);
    log.push("index.build_ms", index_time.as_secs_f64() * 1e3);
    index
}

/// The result a run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every answer checked out and every self-check held.
    pub correct: bool,
    /// Timed ops issued.
    pub attempted: u64,
    /// Timed ops that errored or answered wrongly.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable facts (tail percentiles, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The one-line JSON result object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload and gathers its outcome.
pub fn run(args: Args) -> Outcome {
    let mut run = Run::new(args);
    match run.args.workload {
        Workload::QueryCold => query_cold::run(&mut run),
        Workload::ServeHot => serve_hot::run(&mut run),
        Workload::StreamMixed => stream_mixed::run(&mut run),
    }
    finish(run)
}

/// Fills the trace metrics, writes the spans and selects the metrics of the
/// run's kind.
fn finish(mut run: Run) -> Outcome {
    let kind = if run.args.trace {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
        let v = run.metrics.get(m.name).copied().unwrap_or(0.0);
        if !(v.is_finite() && v > 0.0) {
            run.problem(format!("end-to-end metric {} read {v}", m.name));
        }
    }
    if run.args.trace {
        let spans = run.tracer.len() as f64;
        let wall_ns = run.timed_wall.as_nanos() as f64;
        let self_ms = run.tracer.self_ms_by_name();
        run.set("trace.spans", spans);
        run.set("trace.coverage", run.tracer.coverage(run.timed_span));
        run.set(
            "trace.overhead_pct",
            100.0 * spans * trace::span_cost_ns() / wall_ns.max(1.0),
        );
        run.set(
            "self.setup_ms",
            self_ms.get("setup").copied().unwrap_or(0.0) / SETUP_REPEATS as f64,
        );
        run.set(
            "self.timed_ms",
            self_ms.get("timed").copied().unwrap_or(0.0),
        );
        let path = run.out_dir().join(format!(
            "trace-{}-{}.jsonl",
            run.args.workload.name(),
            run.args.seed
        ));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => run
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => run.problem(format!("cannot write spans to {}: {e}", path.display())),
        }
    }
    let metrics = METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| {
            (
                m.name,
                run.metrics.get(m.name).copied().unwrap_or(0.0),
                m.unit,
            )
        })
        .collect();
    Outcome {
        correct: run.failed == 0 && run.problems.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        notes: run.notes,
    }
}
