//! `serve_hot`: cache hits through the serving runtime.
//!
//! The graph and index are written as binary snapshots and mmap-loaded, a
//! `ServingRuntime` with 2 workers answers every pool query once during
//! set-up, and then one client keeps a fixed window of queries in flight
//! over a Zipf(1.1) stream drawn from that in-grid pool. The pool fits the
//! default LRU, so after warm-up the serving layer (bounded queue, sharded
//! LRU, `Arc` hand-off, latency histograms) does all the timed work and the
//! kernel none. Per-query serving overhead shows here and nowhere else.

use crate::inputs::{self, Stream};
use crate::measure::Samples;
use crate::{build_index, check, sample_stride, Run, SetupLog, SETUP_REPEATS};
use icde_core::serving::QueryTicket;
use icde_core::snapshot::{read_index_snapshot, write_index_snapshot};
use icde_core::{ServingConfig, ServingRuntime, TopLAnswer, TopLProcessor, TopLQuery};
use icde_graph::snapshot::{read_graph_snapshot, write_graph_snapshot};
use icde_graph::SocialNetwork;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Graph size.
const VERTICES: usize = 50_000;
/// Distinct in-grid queries; far below the default LRU capacity (4096).
const POOL: usize = 256;
/// Serving worker threads.
const WORKERS: usize = 2;
/// Queries the client keeps in flight.
const WINDOW: usize = 16;
/// Zipf exponent of the query stream.
const ZIPF_S: f64 = 1.1;
/// Ops per nominal second on a 2-vCPU host (sets the op count, not a rate).
const OPS_PER_SECOND: f64 = 300_000.0;
/// Ops per span in a traced run (individual spans only for sampled ops).
const SPAN_BATCH: usize = 4096;

/// A runtime warmed with every pool query, plus the answers warm-up served.
struct Warm {
    runtime: ServingRuntime,
    served: Vec<Arc<TopLAnswer>>,
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let n = run.args.vertices.unwrap_or(VERTICES);
    let seed = run.args.seed;
    let ops = run.args.ops(OPS_PER_SECOND);
    let g = inputs::graph(n, seed);
    let pool = inputs::query_pool(seed, Stream::Queries, POOL, &inputs::SERVING_THETAS, 0);
    let order = inputs::zipf_sequence(seed, POOL, ZIPF_S, ops);
    let sample_every = sample_stride(ops);
    let dir = run
        .out_dir()
        .join(format!("serve_hot-{}", std::process::id()));

    let Warm { runtime, served } = setup(run, &g, &pool, &dir);

    // Expected answers: the kernel run directly on the served snapshot.
    let snapshot = runtime.current();
    let direct = TopLProcessor::new(&snapshot.graph, &snapshot.index);
    let wrong: Vec<bool> = pool
        .iter()
        .zip(&served)
        .map(|(q, answer)| !direct.run(q).is_ok_and(|a| check::same_topl(answer, &a)))
        .collect();
    drop(snapshot);

    // --- timed phase ------------------------------------------------------
    let before = runtime.stats();
    let mut latency_ms = Samples::new();
    let mut failed = 0u64;
    let mut foreign: Vec<(usize, Arc<TopLAnswer>)> = Vec::new();
    let mut hits_per_query = vec![0u64; POOL];
    let mut inflight: VecDeque<(usize, usize, Instant, QueryTicket)> =
        VecDeque::with_capacity(WINDOW);
    run.begin_timed();
    let mut batch_span = run.tracer.open("client", 0);
    let mut complete =
        |run: &mut Run, (op, qid, start, ticket): (usize, usize, Instant, QueryTicket)| {
            let answer = ticket.wait();
            let end = Instant::now();
            if op.is_multiple_of(sample_every) {
                latency_ms.push_ms(end - start);
                run.tracer.record("serve", op as u64, start, end);
            }
            match answer {
                Ok(a) if Arc::ptr_eq(&a.answer, &served[qid]) => hits_per_query[qid] += 1,
                Ok(a) => foreign.push((qid, a.answer)),
                Err(_) => failed += 1,
            }
        };
    for (op, &rank) in order.iter().enumerate() {
        if op % SPAN_BATCH == 0 && op > 0 {
            run.tracer.close(batch_span);
            batch_span = run.tracer.open("client", op as u64);
        }
        if inflight.len() == WINDOW {
            complete(run, inflight.pop_front().expect("window is full"));
        }
        let qid = rank as usize;
        inflight.push_back((op, qid, Instant::now(), runtime.submit(pool[qid].clone())));
    }
    for pending in inflight.drain(..) {
        complete(run, pending);
    }
    run.tracer.close(batch_span);
    let wall = run.end_timed();
    let after = runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // --- checks (untimed) -------------------------------------------------
    // A hit hands out the Arc warm-up stored, so an answer identical by
    // pointer is the warm-up answer, already checked against the kernel;
    // any other answer is compared in full.
    for (qid, &bad) in wrong.iter().enumerate() {
        if bad {
            eprintln!("pool query {qid}: served answer differs from the direct kernel");
            failed += hits_per_query[qid];
        }
    }
    for (qid, answer) in &foreign {
        if wrong[*qid] || !check::same_topl(answer, &served[*qid]) {
            failed += 1;
        }
    }
    run.attempted = ops as u64;
    run.failed = failed;
    let executions = after.queries_executed - before.queries_executed;
    if executions != 0 {
        run.problem(format!(
            "{executions} kernel executions in the timed phase (expected 0)"
        ));
    }
    let lookups =
        (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
    run.set("query_p50_ms", latency_ms.p50());
    run.set_tail("query_tail_ms", &latency_ms);
    run.set("queries_per_s", ops as f64 / wall.as_secs_f64());
    run.set("serving.hit_us", crate::span_p50_ms(run, "serve") * 1e3);
    run.set(
        "serving.hit_rate",
        (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
    );
    run.set("serving.executions", executions as f64);
    run.notes.push(format!(
        "{ops} queries through {WORKERS} workers, window {WINDOW}; {} served off another answer",
        foreign.len()
    ));
}

/// Builds, persists, loads and warms a runtime [`SETUP_REPEATS`] times and
/// keeps the last; records the set-up metrics.
fn setup(run: &mut Run, g: &SocialNetwork, pool: &[TopLQuery], dir: &Path) -> Warm {
    let graph_path = dir.join("graph.snap");
    let index_path = dir.join("index.snap");
    std::fs::create_dir_all(dir).expect("benchmark output directory is writable");
    let mut log = SetupLog::default();
    let mut kept: Option<Warm> = None;
    for rep in 0..SETUP_REPEATS as u64 {
        if let Some(old) = kept.take() {
            old.runtime.shutdown();
        }
        let start = Instant::now();
        let span = run.tracer.open("setup", rep);
        let index = build_index(run, &mut log, g, rep);
        let ((), write) = run.span("snapshot.write", rep, || {
            write_graph_snapshot(g, &graph_path).expect("graph snapshot writes");
            write_index_snapshot(&index, &index_path).expect("index snapshot writes");
        });
        drop(index);
        let ((g2, index2), load) = run.span("snapshot.load", rep, || {
            (
                read_graph_snapshot(&graph_path).expect("graph snapshot loads"),
                read_index_snapshot(&index_path).expect("index snapshot loads"),
            )
        });
        let (warm, warmup) = run.span("warmup", rep, || {
            let runtime = ServingRuntime::start(ServingConfig::with_workers(WORKERS), g2, index2)
                .expect("runtime starts on a matching pair");
            let tickets: Vec<_> = pool.iter().map(|q| runtime.submit(q.clone())).collect();
            let served = tickets
                .into_iter()
                .map(|t| t.wait().expect("warm-up query answers").answer)
                .collect();
            Warm { runtime, served }
        });
        run.tracer.close(span);
        log.push("setup_s", start.elapsed().as_secs_f64());
        log.push("snapshot.write_ms", write.as_secs_f64() * 1e3);
        log.push("snapshot.load_ms", load.as_secs_f64() * 1e3);
        log.push("serving.warmup_s", warmup.as_secs_f64());
        let executed = warm.runtime.stats().queries_executed;
        if executed != pool.len() as u64 {
            run.problem(format!(
                "warm-up ran the kernel {executed} times for {} distinct queries",
                pool.len()
            ));
        }
        kept = Some(warm);
    }
    log.finish(run);
    kept.expect("at least one set-up")
}
