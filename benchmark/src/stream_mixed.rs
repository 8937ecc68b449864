//! `stream_mixed`: writes beside reads on the largest graph.
//!
//! One client thread repeats three steps: `StreamingMaintainer::apply_batch`
//! on the next batch of a seeded Zipf hot-spot insert/delete stream,
//! `publish_to` a 2-worker serving runtime, and a small Zipf window of
//! in-grid queries whose cache entries that publish just invalidated. The
//! overlay, support patch, ball recompute, index patch and publish do the
//! update work, while the post-publish misses load the kernel and serving,
//! so a change that speeds one side at the other's cost shows here. The
//! per-batch cost should not depend on n; only a large graph exposes a new
//! O(n) term in the batch path.

use crate::inputs::{self, Stream};
use crate::measure::Samples;
use crate::{
    build_index, check, sample_stride, set_topl_counts, span_p50_ms, Run, SetupLog, SETUP_REPEATS,
};
use icde_core::{
    EdgeUpdate, IndexBuilder, MaintainerStats, ServingConfig, ServingRuntime, StreamingMaintainer,
    TopLProcessor,
};
use icde_graph::{GraphBuilder, SocialNetwork};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Graph size.
const VERTICES: usize = 200_000;
/// Distinct in-grid queries the windows draw from.
const POOL: usize = 32;
/// Queries submitted after each publish.
const WINDOW: usize = 8;
/// Edge updates per batch.
const BATCH: usize = 8;
/// Serving worker threads.
const WORKERS: usize = 2;
/// Zipf exponent of the query windows.
const ZIPF_S: f64 = 1.1;
/// Steps (batch + publish + window) per nominal second on a 2-vCPU host
/// (sets the op count, not a rate).
const STEPS_PER_SECOND: f64 = 14.0;
/// Leading batches a set-up repeat replays to check that the maintainer does
/// the same work on the same stream.
const REPLAY_BATCHES: usize = 16;

/// Per-batch work counts that must repeat exactly for one stream.
fn work_counts(d: &MaintainerStats) -> [u64; 6] {
    [
        d.vertices_recomputed,
        d.ball_overlap,
        d.index_patches,
        d.repacks,
        d.compactions,
        d.updates_skipped,
    ]
}

/// `after - before` for the counters and phase times of one batch.
fn delta(after: &MaintainerStats, before: &MaintainerStats) -> MaintainerStats {
    MaintainerStats {
        batches: after.batches - before.batches,
        inserts_applied: after.inserts_applied - before.inserts_applied,
        removes_applied: after.removes_applied - before.removes_applied,
        updates_skipped: after.updates_skipped - before.updates_skipped,
        vertices_recomputed: after.vertices_recomputed - before.vertices_recomputed,
        ball_overlap: after.ball_overlap - before.ball_overlap,
        compactions: after.compactions - before.compactions,
        index_patches: after.index_patches - before.index_patches,
        repacks: after.repacks - before.repacks,
        publishes_skipped: after.publishes_skipped - before.publishes_skipped,
        support_patch_secs: after.support_patch_secs - before.support_patch_secs,
        ball_recompute_secs: after.ball_recompute_secs - before.ball_recompute_secs,
        index_patch_secs: after.index_patch_secs - before.index_patch_secs,
        publish_secs: after.publish_secs - before.publish_secs,
    }
}

/// One served window query, kept for the serving metrics.
struct Served {
    qid: usize,
    epoch: u64,
    hit: bool,
    latency: Duration,
    kernel: Duration,
    communities: usize,
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let n = run.args.vertices.unwrap_or(VERTICES);
    let seed = run.args.seed;
    let steps = run.args.ops(STEPS_PER_SECOND);
    let g = inputs::graph(n, seed);
    let pool = inputs::query_pool(seed, Stream::Queries, POOL, &inputs::SERVING_THETAS, 0);
    let stream = inputs::update_stream(&g, seed, steps * BATCH);
    let order = inputs::zipf_sequence(seed, POOL, ZIPF_S, steps * WINDOW);
    let sample_every = sample_stride(steps * WINDOW);

    let (mut maintainer, runtime, replayed) = setup(run, &g, &stream);
    drop(g);

    // --- timed phase ------------------------------------------------------
    let stats_before = maintainer.stats();
    let serving_before = runtime.stats();
    let mut update_ms = Samples::new();
    let (mut apply_ms, mut publish_ms) = (Samples::new(), Samples::new());
    let mut phase_ms: [Samples; 3] = Default::default();
    let mut batch_counts: Vec<[u64; 6]> = Vec::with_capacity(REPLAY_BATCHES);
    let mut batch_time = Duration::ZERO;
    let mut first_batch = Duration::ZERO;
    let mut query_ms = Samples::new();
    let mut served: Vec<Served> = Vec::with_capacity(steps * WINDOW);
    let mut failed = 0u64;
    run.begin_timed();
    for (step, batch) in stream.chunks(BATCH).enumerate() {
        let op = step as u64;
        let step_span = run.tracer.open("step", op);
        let before = maintainer.stats();
        let s = run.tracer.open("apply", op);
        let t0 = Instant::now();
        maintainer.apply_batch(batch);
        let t1 = Instant::now();
        run.tracer.close(s);
        let s = run.tracer.open("publish", op);
        let published = maintainer.publish_to(&runtime);
        let t2 = Instant::now();
        run.tracer.close(s);
        if published.is_err() {
            failed += 1;
        }
        let d = delta(&maintainer.stats(), &before);
        if step < REPLAY_BATCHES {
            batch_counts.push(work_counts(&d));
        }
        if step == 0 {
            first_batch = t2 - t0;
        } else {
            update_ms.push_ms(t2 - t0);
            apply_ms.push_ms(t1 - t0);
            publish_ms.push_ms(t2 - t1);
            phase_ms[0].push(d.support_patch_secs * 1e3);
            phase_ms[1].push(d.ball_recompute_secs * 1e3);
            phase_ms[2].push(d.index_patch_secs * 1e3);
        }
        batch_time += t2 - t0;

        let s = run.tracer.open("window", op);
        let ranks = &order[step * WINDOW..(step + 1) * WINDOW];
        let tickets: Vec<_> = ranks
            .iter()
            .map(|&r| {
                (
                    r as usize,
                    Instant::now(),
                    runtime.submit(pool[r as usize].clone()),
                )
            })
            .collect();
        for (j, (qid, start, ticket)) in tickets.into_iter().enumerate() {
            let answer = ticket.wait();
            let end = Instant::now();
            run.tracer.record("query", op, start, end);
            if (step * WINDOW + j).is_multiple_of(sample_every) {
                query_ms.push_ms(end - start);
            }
            match answer {
                Ok(a) => served.push(Served {
                    qid,
                    epoch: a.epoch,
                    hit: a.cache_hit,
                    latency: end - start,
                    kernel: a.answer.elapsed,
                    communities: a.answer.communities.len(),
                }),
                Err(_) => failed += 1,
            }
        }
        run.tracer.close(s);
        run.tracer.close(step_span);
    }
    let wall = run.end_timed();
    let stats = delta(&maintainer.stats(), &stats_before);
    let serving_after = runtime.stats();

    // --- checks (untimed) -------------------------------------------------
    // The final state, served, against a from-scratch rebuild of the live
    // edge table.
    let tickets: Vec<_> = pool.iter().map(|q| runtime.submit(q.clone())).collect();
    let live: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let scratch = rebuild(maintainer.graph());
    let scratch_index = IndexBuilder::new(inputs::precompute_config()).build(&scratch);
    let fresh = TopLProcessor::new(&scratch, &scratch_index);
    for (qid, (q, served)) in pool.iter().zip(&live).enumerate() {
        let ok = match (served, fresh.run(q)) {
            (Ok(s), Ok(f)) => check::same_topl(&s.answer, &f),
            _ => false,
        };
        if !ok {
            eprintln!("pool query {qid}: live answer differs from a from-scratch rebuild");
            failed += 1;
        }
    }
    runtime.shutdown();
    if let Some(replayed) = replayed {
        if replayed != batch_counts {
            run.problem(format!(
                "maintainer work differs on a replay of the first {} batches",
                replayed.len()
            ));
        }
    }
    if stats.updates_skipped != 0 {
        run.problem(format!("{} updates skipped", stats.updates_skipped));
    }

    // --- metrics ----------------------------------------------------------
    run.attempted = (steps + steps * WINDOW) as u64;
    run.failed = failed;
    run.set("query_p50_ms", query_ms.p50());
    run.set_tail("query_tail_ms", &query_ms);
    run.set(
        "queries_per_s",
        (steps * WINDOW) as f64 / wall.as_secs_f64(),
    );

    run.set("streaming.update_ms", update_ms.p50());
    run.set_tail("streaming.update_tail_ms", &update_ms);
    run.set(
        "streaming.updates_per_s",
        stream.len() as f64 / batch_time.as_secs_f64(),
    );
    run.set("streaming.first_batch_ms", first_batch.as_secs_f64() * 1e3);
    run.set("streaming.apply_ms", span_p50_ms(run, "apply"));
    run.set("streaming.publish_ms", span_p50_ms(run, "publish"));
    run.set("streaming.support_patch_ms", phase_ms[0].p50());
    run.set("streaming.ball_recompute_ms", phase_ms[1].p50());
    run.set("streaming.index_patch_ms", phase_ms[2].p50());
    run.set(
        "streaming.vertices_recomputed",
        stats.vertices_recomputed as f64,
    );
    run.set("streaming.ball_overlap", stats.ball_overlap as f64);
    run.set("streaming.repacks", stats.repacks as f64);
    run.set("streaming.compactions", stats.compactions as f64);

    let misses: Vec<&Served> = served.iter().filter(|s| !s.hit).collect();
    let mut hit_us = Samples::new();
    let (mut miss_ms, mut wait_ms, mut kernel_ms) =
        (Samples::new(), Samples::new(), Samples::new());
    for s in &served {
        if s.hit {
            hit_us.push(s.latency.as_secs_f64() * 1e6);
        }
    }
    for s in &misses {
        miss_ms.push_ms(s.latency);
        wait_ms.push_ms(s.latency.saturating_sub(s.kernel));
        kernel_ms.push_ms(s.kernel);
    }
    let distinct: HashSet<(usize, u64)> = misses.iter().map(|s| (s.qid, s.epoch)).collect();
    let executions = serving_after.queries_executed - serving_before.queries_executed;
    let (after, before) = (serving_after.pruning, serving_before.pruning);
    let mut pruning = icde_core::PruningStats::new();
    pruning.heap_pops = after.heap_pops - before.heap_pops;
    pruning.candidates_refined = after.candidates_refined - before.candidates_refined;
    pruning.candidates_without_community =
        after.candidates_without_community - before.candidates_without_community;
    pruning.exact_verifications = after.exact_verifications - before.exact_verifications;
    let results: usize = misses.iter().map(|s| s.communities).sum();
    set_topl_counts(run, &pruning, results);
    run.set("topl.query_ms.in_grid", kernel_ms.p50());
    run.set("serving.hit_us", hit_us.p50());
    run.set(
        "serving.hit_rate",
        (served.len() - misses.len()) as f64 / served.len().max(1) as f64,
    );
    run.set("serving.miss_ms", miss_ms.p50());
    run.set("serving.miss_wait_ms", wait_ms.p50());
    run.set("serving.executions", executions as f64);
    run.set(
        "serving.duplicate_executions",
        executions.saturating_sub(distinct.len() as u64) as f64,
    );
    run.notes.push(format!(
        "{steps} batches of {BATCH} updates, {} window queries ({} misses); \
         {} vertices recomputed, {} repacks, {} compactions",
        served.len(),
        misses.len(),
        stats.vertices_recomputed,
        stats.repacks,
        stats.compactions
    ));
}

/// A fresh CSR over the live edge table: the graph with no overlay, as a
/// from-scratch build would see it.
fn rebuild(g: &SocialNetwork) -> SocialNetwork {
    let mut b = GraphBuilder::with_vertices(g.num_vertices());
    for v in g.vertices() {
        b.set_keywords(v, g.keyword_set(v).clone())
            .expect("vertex exists");
    }
    for (u, v, p_uv, p_vu) in g.edge_table_iter() {
        b.add_edge(u, v, p_uv, p_vu);
    }
    b.build().expect("live edge table is a valid graph")
}

/// Builds the index, starts the runtime and primes the maintainer
/// [`SETUP_REPEATS`] times, keeping the last. The first repeat, once its
/// clock stops, replays the stream's leading batches and returns their work
/// counts.
fn setup(
    run: &mut Run,
    g: &SocialNetwork,
    stream: &[EdgeUpdate],
) -> (StreamingMaintainer, ServingRuntime, Option<Vec<[u64; 6]>>) {
    let mut log = SetupLog::default();
    let mut kept = None;
    let mut replayed = None;
    for rep in 0..SETUP_REPEATS as u64 {
        if let Some((_, old)) = kept.take() {
            ServingRuntime::shutdown(old);
        }
        let start = Instant::now();
        let span = run.tracer.open("setup", rep);
        let index = build_index(run, &mut log, g, rep);
        let (runtime, _) = run.span("serving.start", rep, || {
            let config = ServingConfig::with_workers(WORKERS);
            ServingRuntime::start(config, g.clone(), index.clone())
                .expect("runtime starts on a matching pair")
        });
        let (maintainer, init) = run.span("streaming.init", rep, || {
            StreamingMaintainer::new(g.clone(), index)
        });
        run.tracer.close(span);
        log.push("setup_s", start.elapsed().as_secs_f64());
        log.push("streaming.init_ms", init.as_secs_f64() * 1e3);
        if rep == 0 && SETUP_REPEATS > 1 {
            let mut replay = maintainer;
            let mut counts = Vec::new();
            for batch in stream.chunks(BATCH).take(REPLAY_BATCHES) {
                let before = replay.stats();
                replay.apply_batch(batch);
                counts.push(work_counts(&delta(&replay.stats(), &before)));
            }
            replayed = Some(counts);
            runtime.shutdown();
            continue;
        }
        kept = Some((maintainer, runtime));
    }
    log.finish(run);
    let (maintainer, runtime) = kept.expect("at least one set-up");
    (maintainer, runtime, replayed)
}
