//! `query_cold`: one client calling the online kernel directly.
//!
//! The client answers a seeded pool of distinct TopL queries with
//! `TopLProcessor::run`; every 8th op is a DTopL query
//! (`DTopLProcessor::run`, lazy greedy with pruning, `n = 3`). No cache
//! sits in front of the kernel, so the progressive heap, seed extraction,
//! influence expansion, pruning and the DTopL greedy do all the timed work,
//! and serving and streaming do none. One TopL query in eight takes a `θ`
//! above the precomputed grid: that is the Θ(n) query tail, which stays in
//! the workload on purpose.
//!
//! The graph has 25k vertices. An above-grid query grows with n (one took
//! 8.6 s at 100k), and the tail is the 11th-slowest TopL query: at 50k a
//! run held ~46 above-grid queries, the 11th-slowest fell between two shape
//! groups, and it swung by 29% of its median across ten seeds. At 25k a run
//! holds ~87, the slowest shape group alone has ~14 members, and the tail
//! is one of them.

use crate::check::{self, DTopLMatch};
use crate::inputs::{self, Stream};
use crate::measure::Samples;
use crate::{build_index, set_topl_counts, span_p50_ms, Run, SetupLog, SETUP_REPEATS};
use icde_core::{
    CommunityIndex, DTopLAnswer, DTopLProcessor, DTopLQuery, DTopLStrategy, IndexBuilder,
    PruningStats, TopLAnswer, TopLProcessor,
};
use rand::Rng;
use std::time::Instant;

/// Graph size.
const VERTICES: usize = 25_000;
/// Ops per nominal second on a 2-vCPU host (sets the op count, not a rate).
const OPS_PER_SECOND: f64 = 32.0;
/// Every this many ops, one is a DTopL query.
const DTOPL_EVERY: usize = 8;
/// Every this many TopL queries, one has `θ` above the grid.
const ABOVE_GRID_EVERY: usize = 8;
/// DTopL candidate multiplier `n`.
const DTOPL_MULTIPLIER: usize = 3;
/// One op in this many (seeded) is re-answered by the checks.
const CHECK_ONE_IN: u32 = 20;
/// Shape of the second index the checks answer from.
const CHECK_FANOUT: usize = 4;
const CHECK_LEAF_CAPACITY: usize = 8;

/// One timed op: an index into the TopL or the DTopL pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    TopL(usize),
    DTopL(usize),
}

/// What an op returned; the answer itself is kept only when the op is
/// checked.
enum Outcome {
    TopL(PruningStats, usize, Option<TopLAnswer>),
    DTopL(PruningStats, Option<DTopLAnswer>),
    Failed,
}

/// Runs the workload.
pub fn run(run: &mut Run) {
    let n = run.args.vertices.unwrap_or(VERTICES);
    let seed = run.args.seed;
    let total = run.args.ops(OPS_PER_SECOND);
    // op i is DTopL when i % 8 == 7; each kind walks its own pool in order
    let schedule: Vec<Op> = (0..total)
        .map(|i| match i % DTOPL_EVERY == DTOPL_EVERY - 1 {
            true => Op::DTopL(i / DTOPL_EVERY),
            false => Op::TopL(i - i / DTOPL_EVERY),
        })
        .collect();
    let dtopl_ops = total / DTOPL_EVERY;
    let topl_ops = total - dtopl_ops;
    let g = inputs::graph(n, seed);
    let pool = inputs::query_pool(
        seed,
        Stream::Queries,
        topl_ops,
        &inputs::IN_GRID_THETAS,
        ABOVE_GRID_EVERY,
    );
    let dtopl_pool: Vec<DTopLQuery> = inputs::query_pool(
        seed,
        Stream::DTopLQueries,
        dtopl_ops,
        &inputs::IN_GRID_THETAS,
        0,
    )
    .into_iter()
    .map(|q| DTopLQuery::new(q, DTOPL_MULTIPLIER))
    .collect();
    let mut check_rng = inputs::rng(seed, Stream::Check);
    let checked: Vec<bool> = (0..total)
        .map(|_| check_rng.gen_range(0..CHECK_ONE_IN) == 0)
        .collect();

    let index = setup(run, &g);

    // --- timed phase ------------------------------------------------------
    let topl = TopLProcessor::new(&g, &index);
    let dtopl = DTopLProcessor::new(&g, &index);
    let mut topl_ms = Samples::new();
    let mut topl_stats = PruningStats::new();
    let mut communities = 0usize;
    let mut dtopl_ms = Samples::new();
    let mut diversity_pruned = 0usize;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(total);
    run.begin_timed();
    for (i, &op) in schedule.iter().enumerate() {
        let keep = checked[i];
        let start = Instant::now();
        let outcome = match op {
            Op::TopL(q) => match topl.run(&pool[q]) {
                Ok(a) => Outcome::TopL(a.stats, a.communities.len(), keep.then_some(a)),
                Err(_) => Outcome::Failed,
            },
            Op::DTopL(q) => match dtopl.run(&dtopl_pool[q], DTopLStrategy::GreedyWithPruning) {
                Ok(a) => Outcome::DTopL(a.stats, keep.then_some(a)),
                Err(_) => Outcome::Failed,
            },
        };
        let end = Instant::now();
        let span = match op {
            Op::TopL(q) if inputs::above_grid(pool[q].theta) => "topl.above_grid",
            Op::TopL(_) => "topl.in_grid",
            Op::DTopL(_) => "dtopl",
        };
        run.tracer.record(span, i as u64, start, end);
        match (&outcome, op) {
            (Outcome::TopL(stats, found, _), _) => {
                topl_ms.push_ms(end - start);
                topl_stats.merge(stats);
                communities += found;
            }
            (Outcome::DTopL(stats, _), _) => {
                dtopl_ms.push_ms(end - start);
                diversity_pruned += stats.diversity_pruned;
            }
            (Outcome::Failed, Op::TopL(_)) => topl_ms.push_ms(end - start),
            (Outcome::Failed, Op::DTopL(_)) => dtopl_ms.push_ms(end - start),
        }
        outcomes.push(outcome);
    }
    let wall = run.end_timed();
    run.attempted = total as u64;
    run.failed = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Failed))
        .count() as u64;

    run.set("query_p50_ms", topl_ms.p50());
    run.set_tail("query_tail_ms", &topl_ms);
    run.set("queries_per_s", topl_ms.len() as f64 / wall.as_secs_f64());
    set_topl_counts(run, &topl_stats, communities);
    run.set("topl.query_ms.in_grid", span_p50_ms(run, "topl.in_grid"));
    run.set(
        "topl.query_ms.above_grid",
        span_p50_ms(run, "topl.above_grid"),
    );
    run.set("dtopl.query_ms", span_p50_ms(run, "dtopl"));
    run.set("dtopl.diversity_pruned", diversity_pruned as f64);
    run.notes.push(format!(
        "{} TopL ops ({} above the grid), {} DTopL ops, dtopl p50 {:.3} ms",
        topl_ms.len(),
        pool.iter().filter(|q| inputs::above_grid(q.theta)).count(),
        dtopl_ms.len(),
        dtopl_ms.p50()
    ));

    // --- checks (untimed) -------------------------------------------------
    let second = IndexBuilder::new(inputs::precompute_config())
        .with_fanout(CHECK_FANOUT)
        .with_leaf_capacity(CHECK_LEAF_CAPACITY)
        .build_from_precomputed(&g, index.precomputed.clone());
    let (topl2, dtopl2) = (
        TopLProcessor::new(&g, &second),
        DTopLProcessor::new(&g, &second),
    );
    let mut rechecked = 0usize;
    let mut ties = 0usize;
    for (i, (outcome, &op)) in outcomes.iter().zip(&schedule).enumerate() {
        let ok = match (outcome, op) {
            (Outcome::TopL(stats, _, Some(a)), Op::TopL(q)) => {
                let again = topl.run(&pool[q]).map(|b| b.stats == *stats);
                if again != Ok(true) {
                    run.problem(format!("op {i}: TopL work counts differ on a re-run"));
                }
                topl2.run(&pool[q]).is_ok_and(|b| check::same_topl(a, &b))
            }
            (Outcome::DTopL(stats, Some(a)), Op::DTopL(q)) => {
                // Lazy-greedy pruning follows D(S) gains whose last bits
                // depend on HashMap order (see `check`), so only the
                // TopL-phase counts must repeat.
                let topl_phase = |s: &PruningStats| PruningStats {
                    diversity_pruned: 0,
                    ..*s
                };
                let strategy = DTopLStrategy::GreedyWithPruning;
                let query = &dtopl_pool[q];
                let again = dtopl
                    .run(query, strategy)
                    .map(|b| topl_phase(&b.stats) == topl_phase(stats));
                if again != Ok(true) {
                    run.problem(format!("op {i}: DTopL work counts differ on a re-run"));
                }
                // The index only supplies the greedy's candidates, the
                // top-n·L TopL answer: those must match exactly.
                let candidates = query
                    .base
                    .with_result_size(query.base.l * query.candidate_multiplier.max(1));
                let same_candidates = match (topl.run(&candidates), topl2.run(&candidates)) {
                    (Ok(c), Ok(c2)) => check::same_topl(&c, &c2).then_some(c),
                    _ => None,
                };
                let verdict = same_candidates
                    .zip(dtopl2.run(query, strategy).ok())
                    .map(|(c, b)| check::compare_dtopl(a, &b, &c.communities));
                ties += usize::from(verdict == Some(DTopLMatch::Tied));
                matches!(verdict, Some(DTopLMatch::Same | DTopLMatch::Tied))
            }
            _ => continue,
        };
        rechecked += 1;
        if !ok {
            eprintln!("op {i}: answer differs on an index of another shape");
            run.failed += 1;
        }
    }
    run.notes.push(format!(
        "{rechecked} of {total} ops re-answered off a fanout-{CHECK_FANOUT}/leaf-{CHECK_LEAF_CAPACITY} index; \
         {ties} DTopL answers broke a tie between marginal gains the other way, with equal D(S)"
    ));
}

/// Builds the index [`SETUP_REPEATS`] times and keeps the last; records the
/// set-up metrics and checks every build produced the same index.
fn setup(run: &mut Run, g: &icde_graph::SocialNetwork) -> CommunityIndex {
    let mut log = SetupLog::default();
    let mut fingerprints = vec![];
    let mut kept = None;
    for rep in 0..SETUP_REPEATS as u64 {
        drop(kept.take());
        let start = Instant::now();
        let span = run.tracer.open("setup", rep);
        let index = build_index(run, &mut log, g, rep);
        run.tracer.close(span);
        log.push("setup_s", start.elapsed().as_secs_f64());
        fingerprints.push(index.content_fingerprint());
        kept = Some(index);
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        run.problem("set-up repeats built different indexes".to_string());
    }
    log.finish(run);
    kept.expect("at least one set-up")
}
