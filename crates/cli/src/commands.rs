//! Command implementations for the `topl-icde` binary.

use crate::args::Command;
use icde_core::dtopl::{DTopLProcessor, DTopLQuery, DTopLStrategy};
use icde_core::index::{CommunityIndex, IndexBuilder};
use icde_core::precompute::PrecomputeConfig;
use icde_core::query::TopLQuery;
use icde_core::seed::SeedCommunity;
use icde_core::serving::{EpochLatency, LatencyHistogram, ServingConfig, ServingRuntime};
use icde_core::snapshot::{read_index_snapshot, write_index_snapshot};
use icde_core::streaming::{EdgeUpdate, MaintainerStats, StreamingMaintainer};
use icde_core::topl::TopLProcessor;
use icde_graph::generators::DatasetSpec;
use icde_graph::snapshot::{
    self as graph_snapshot, path_is_snapshot, LoadMode, Snapshot, KIND_GRAPH,
};
use icde_graph::statistics::graph_statistics;
use icde_graph::{io, KeywordSet, SocialNetwork, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runs one parsed command; error strings are printed by `main`.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help => {
            println!("{}", crate::args::USAGE);
            Ok(())
        }
        Command::Generate {
            kind,
            vertices,
            seed,
            keyword_domain,
            keywords_per_vertex,
            out,
        } => {
            let spec = DatasetSpec::new(kind, vertices, seed)
                .with_keyword_domain(keyword_domain)
                .with_keywords_per_vertex(keywords_per_vertex);
            let graph = spec.generate();
            io::write_edge_list_file(&graph, &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} ({} vertices, {} edges, kind {:?})",
                out,
                graph.num_vertices(),
                graph.num_edges(),
                kind
            );
            Ok(())
        }
        Command::Stats { graph } => {
            let g = load_graph(&graph)?;
            let stats = graph_statistics(&g);
            println!(
                "{}",
                serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Index {
            graph,
            out,
            r_max,
            fanout,
            thresholds,
            threads,
        } => {
            let g = load_graph(&graph)?;
            let config = PrecomputeConfig::new(r_max, thresholds).with_num_threads(threads);
            let workers = config.worker_count(g.num_vertices());
            let start = std::time::Instant::now();
            let index = IndexBuilder::new(config).with_fanout(fanout).build(&g);
            let offline = start.elapsed();
            write_index_snapshot(&index, &out).map_err(|e| e.to_string())?;
            let rate = g.num_vertices() as f64 / offline.as_secs_f64().max(f64::MIN_POSITIVE);
            println!(
                "offline build: {:.2?} on {} worker thread{} ({:.0} vertices/sec)",
                offline,
                workers,
                if workers == 1 { "" } else { "s" },
                rate
            );
            println!(
                "wrote {} ({} nodes, height {})",
                out,
                index.node_count(),
                index.height(),
            );
            Ok(())
        }
        Command::Query {
            graph,
            index,
            keywords,
            k,
            r,
            theta,
            l,
            json,
            explain,
        } => {
            let g = load_graph(&graph)?;
            let idx = load_index(&index)?;
            let query = TopLQuery::new(KeywordSet::from_ids(keywords), k, r, theta, l);
            let answer = TopLProcessor::new(&g, &idx)
                .run(&query)
                .map_err(|e| e.to_string())?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&answer.communities).map_err(|e| e.to_string())?
                );
            } else {
                print_communities(&answer.communities);
                println!(
                    "{} answers in {:.2?} ({} candidates pruned)",
                    answer.communities.len(),
                    answer.elapsed,
                    answer.stats.total_pruned_candidates()
                );
            }
            if explain {
                println!("{}", answer.stats);
            }
            Ok(())
        }
        Command::DQuery {
            graph,
            index,
            keywords,
            k,
            r,
            theta,
            l,
            n,
            json,
        } => {
            let g = load_graph(&graph)?;
            let idx = load_index(&index)?;
            let base = TopLQuery::new(KeywordSet::from_ids(keywords), k, r, theta, l);
            let query = DTopLQuery::new(base, n);
            let answer = DTopLProcessor::new(&g, &idx)
                .run(&query, DTopLStrategy::GreedyWithPruning)
                .map_err(|e| e.to_string())?;
            if json {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&answer.communities).map_err(|e| e.to_string())?
                );
            } else {
                print_communities(&answer.communities);
                println!(
                    "diversity score {:.2}, {} answers in {:.2?}",
                    answer.diversity_score,
                    answer.communities.len(),
                    answer.elapsed
                );
            }
            Ok(())
        }
        Command::Serve {
            graph,
            index,
            workers,
            queries,
            seed,
            k,
            r,
            theta,
            l,
            json,
            update_rate,
            compact_threshold,
            repack_threshold,
        } => {
            let g = load_graph(&graph)?;
            let idx = load_index(&index)?;
            run_serve(
                g,
                idx,
                ServeOptions {
                    workers,
                    queries,
                    seed,
                    k,
                    r,
                    theta,
                    l,
                    json,
                    update_rate,
                    compact_threshold,
                    repack_threshold,
                },
            )
        }
        Command::Update {
            graph,
            index,
            updates,
            batch,
            compact_threshold,
            repack_threshold,
            out_graph,
            out_index,
            keywords,
            k,
            r,
            theta,
            l,
            json,
        } => {
            let g = load_graph(&graph)?;
            let idx = load_index(&index)?;
            let text = std::fs::read_to_string(&updates)
                .map_err(|e| format!("cannot read {updates}: {e}"))?;
            let stream = parse_update_stream(&text)?;
            if stream.is_empty() {
                return Err(format!("{updates} contains no updates"));
            }

            let mut maintainer = StreamingMaintainer::new(g, idx)
                .with_compact_threshold(compact_threshold)
                .with_repack_threshold(repack_threshold);
            let started = std::time::Instant::now();
            let mut batches = 0u64;
            for chunk in stream.chunks(batch) {
                maintainer.apply_batch(chunk);
                batches += 1;
            }
            let wall = started.elapsed();
            // snapshot writers serialize the live edge table, which folds the
            // overlay and renumbers edge ids past tombstone holes; compact
            // explicitly first so the saved index's edge supports are keyed
            // by the same id space as the written graph
            if out_graph.is_some() || out_index.is_some() {
                maintainer.compact_now();
            }
            let stats = maintainer.stats();
            let updates_per_sec =
                stats.updates_applied() as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE);

            if let Some(out) = &out_graph {
                write_graph_out(maintainer.graph(), out)?;
            }
            if let Some(out) = &out_index {
                write_index_snapshot(maintainer.index(), out).map_err(|e| e.to_string())?;
            }

            if json {
                let doc = serde_json::Value::Object(vec![
                    (
                        "updates_total".to_string(),
                        serde_json::Value::UInt(stream.len() as u64),
                    ),
                    (
                        "inserts_applied".to_string(),
                        serde_json::Value::UInt(stats.inserts_applied),
                    ),
                    (
                        "removes_applied".to_string(),
                        serde_json::Value::UInt(stats.removes_applied),
                    ),
                    (
                        "updates_skipped".to_string(),
                        serde_json::Value::UInt(stats.updates_skipped),
                    ),
                    ("batches".to_string(), serde_json::Value::UInt(batches)),
                    (
                        "vertices_recomputed".to_string(),
                        serde_json::Value::UInt(stats.vertices_recomputed),
                    ),
                    (
                        "compactions".to_string(),
                        serde_json::Value::UInt(stats.compactions),
                    ),
                    (
                        "ball_overlap".to_string(),
                        serde_json::Value::UInt(stats.ball_overlap),
                    ),
                    (
                        "index_patches".to_string(),
                        serde_json::Value::UInt(stats.index_patches),
                    ),
                    (
                        "repacks".to_string(),
                        serde_json::Value::UInt(stats.repacks),
                    ),
                    (
                        "support_patch_secs".to_string(),
                        serde_json::Value::Float(stats.support_patch_secs),
                    ),
                    (
                        "ball_recompute_secs".to_string(),
                        serde_json::Value::Float(stats.ball_recompute_secs),
                    ),
                    (
                        "index_patch_secs".to_string(),
                        serde_json::Value::Float(stats.index_patch_secs),
                    ),
                    (
                        "publish_secs".to_string(),
                        serde_json::Value::Float(stats.publish_secs),
                    ),
                    (
                        "wall_seconds".to_string(),
                        serde_json::Value::Float(wall.as_secs_f64()),
                    ),
                    (
                        "updates_per_sec".to_string(),
                        serde_json::Value::Float(updates_per_sec),
                    ),
                    (
                        "graph_vertices".to_string(),
                        serde_json::Value::UInt(maintainer.graph().num_vertices() as u64),
                    ),
                    (
                        "graph_edges".to_string(),
                        serde_json::Value::UInt(maintainer.graph().num_edges() as u64),
                    ),
                ]);
                println!(
                    "{}",
                    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
                );
            } else {
                println!(
                    "applied {} updates ({} inserts, {} removes, {} skipped) in {} batch{} \
                     over {:.2?} ({:.0} updates/sec)",
                    stats.updates_applied(),
                    stats.inserts_applied,
                    stats.removes_applied,
                    stats.updates_skipped,
                    batches,
                    if batches == 1 { "" } else { "es" },
                    wall,
                    updates_per_sec
                );
                println!(
                    "refreshed {} vertices ({} ball overlap), {} compaction{}; graph now {} \
                     vertices, {} edges",
                    stats.vertices_recomputed,
                    stats.ball_overlap,
                    stats.compactions,
                    if stats.compactions == 1 { "" } else { "s" },
                    maintainer.graph().num_vertices(),
                    maintainer.graph().num_edges()
                );
                println!(
                    "index refreshes: {} patch{}, {} repack{}; phases: support patch {:.1} ms, \
                     ball recompute {:.1} ms, index patch {:.1} ms, publish {:.1} ms",
                    stats.index_patches,
                    if stats.index_patches == 1 { "" } else { "es" },
                    stats.repacks,
                    if stats.repacks == 1 { "" } else { "s" },
                    stats.support_patch_secs * 1e3,
                    stats.ball_recompute_secs * 1e3,
                    stats.index_patch_secs * 1e3,
                    stats.publish_secs * 1e3
                );
                if let Some(out) = &out_graph {
                    println!("wrote refreshed graph {out}");
                }
                if let Some(out) = &out_index {
                    println!("wrote refreshed index {out}");
                }
            }

            if !keywords.is_empty() {
                let query = TopLQuery::new(KeywordSet::from_ids(keywords), k, r, theta, l);
                let answer = TopLProcessor::new(maintainer.graph(), maintainer.index())
                    .run(&query)
                    .map_err(|e| e.to_string())?;
                if json {
                    println!(
                        "{}",
                        serde_json::to_string_pretty(&answer.communities)
                            .map_err(|e| e.to_string())?
                    );
                } else {
                    print_communities(&answer.communities);
                    println!(
                        "{} answers on the refreshed pair in {:.2?}",
                        answer.communities.len(),
                        answer.elapsed
                    );
                }
            }
            Ok(())
        }
        Command::SnapshotSave { graph, out } => {
            let g = load_graph(&graph)?;
            graph_snapshot::write_graph_snapshot(&g, &out).map_err(|e| e.to_string())?;
            println!(
                "wrote graph snapshot {} ({} vertices, {} edges, {} bytes, fingerprint \
                 {:#018x})",
                out,
                g.num_vertices(),
                g.num_edges(),
                file_size(&out),
                g.content_fingerprint()
            );
            Ok(())
        }
        Command::SnapshotLoad { file, buffered } => {
            let mode = if buffered {
                LoadMode::Buffered
            } else {
                LoadMode::Auto
            };
            // one open: the header's payload kind dispatches, so the file is
            // read (and checksummed) exactly once
            let start = std::time::Instant::now();
            let snap = Snapshot::open_with(&file, mode).map_err(|e| e.to_string())?;
            if snap.kind() == KIND_GRAPH {
                let g = graph_snapshot::graph_from_snapshot(&snap).map_err(|e| e.to_string())?;
                println!(
                    "graph snapshot {}: {} vertices, {} edges, fingerprint {:#018x}, \
                     loaded in {:.2?} ({})",
                    file,
                    g.num_vertices(),
                    g.num_edges(),
                    g.content_fingerprint(),
                    start.elapsed(),
                    if g.is_mmap_backed() {
                        "mmap zero-copy"
                    } else if g.is_snapshot_backed() {
                        "buffered region"
                    } else {
                        "owned"
                    }
                );
            } else {
                let idx =
                    icde_core::snapshot::index_from_snapshot(&snap).map_err(|e| e.to_string())?;
                println!(
                    "index snapshot {}: {} nodes, height {}, {} vertices covered, \
                     fingerprint {:#018x}, loaded in {:.2?}",
                    file,
                    idx.node_count(),
                    idx.height(),
                    idx.num_graph_vertices(),
                    idx.content_fingerprint(),
                    start.elapsed()
                );
            }
            Ok(())
        }
    }
}

fn file_size(path: &str) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Merges the per-epoch server-side histograms into one hit aggregate and one
/// executed-miss aggregate.
fn split_latency(epochs: &[EpochLatency]) -> (LatencyHistogram, LatencyHistogram) {
    let mut hits = LatencyHistogram::default();
    let mut misses = LatencyHistogram::default();
    for e in epochs {
        hits.merge(&e.hits);
        misses.merge(&e.misses);
    }
    (hits, misses)
}

fn histogram_json(h: &LatencyHistogram) -> serde_json::Value {
    serde_json::Value::Object(vec![
        ("count".to_string(), serde_json::Value::UInt(h.count)),
        (
            "mean_us".to_string(),
            serde_json::Value::Float(h.mean_micros()),
        ),
        (
            "p50_us_upper".to_string(),
            serde_json::Value::UInt(h.quantile_upper_micros(0.50)),
        ),
        (
            "p99_us_upper".to_string(),
            serde_json::Value::UInt(h.quantile_upper_micros(0.99)),
        ),
        ("max_us".to_string(), serde_json::Value::UInt(h.max_micros)),
    ])
}

fn latency_epochs_json(epochs: &[EpochLatency]) -> serde_json::Value {
    serde_json::Value::Array(
        epochs
            .iter()
            .map(|e| {
                serde_json::Value::Object(vec![
                    ("epoch".to_string(), serde_json::Value::UInt(e.epoch)),
                    ("hits".to_string(), histogram_json(&e.hits)),
                    ("misses".to_string(), histogram_json(&e.misses)),
                ])
            })
            .collect(),
    )
}

/// SplitMix64 step — the workload generator's only source of randomness, so
/// a fixed `--seed` reproduces the exact query stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative Zipf(s) distribution over ranks `0..n` (rank 0 most popular).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 0..n {
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cdf.push(total);
    }
    for v in &mut cdf {
        *v /= total;
    }
    cdf
}

fn sample_zipf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Distinct keyword ids present in the graph, ascending — the vocabulary the
/// synthetic workload draws from.
fn graph_keywords(g: &SocialNetwork) -> Vec<u32> {
    let mut ids: Vec<u32> = g
        .vertices()
        .flat_map(|v| g.keyword_set(v).iter().map(|kw| kw.0).collect::<Vec<_>>())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Parses an edge-update stream file: one update per line, `#` comments and
/// blank lines skipped. `+ u v p_uv p_vu` inserts `{u, v}` with the two
/// directed activation probabilities; `- u v` removes the edge.
fn parse_update_stream(text: &str) -> Result<Vec<EdgeUpdate>, String> {
    let mut stream = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line has a first token");
        let mut field = |name: &str| -> Result<&str, String> {
            parts
                .next()
                .ok_or_else(|| format!("line {lineno}: missing {name}"))
        };
        let parse_vertex = |name: &str, v: &str| -> Result<VertexId, String> {
            v.parse::<u32>()
                .map(VertexId)
                .map_err(|_| format!("line {lineno}: invalid {name} '{v}'"))
        };
        let parse_probability = |name: &str, v: &str| -> Result<f64, String> {
            match v.parse::<f64>() {
                Ok(p) if p > 0.0 && p <= 1.0 => Ok(p),
                _ => Err(format!(
                    "line {lineno}: invalid {name} '{v}' (must be in (0, 1])"
                )),
            }
        };
        let update = match op {
            "+" => {
                let u = parse_vertex("u", field("u")?)?;
                let v = parse_vertex("v", field("v")?)?;
                let p_uv = parse_probability("p_uv", field("p_uv")?)?;
                let p_vu = parse_probability("p_vu", field("p_vu")?)?;
                EdgeUpdate::Insert { u, v, p_uv, p_vu }
            }
            "-" => {
                let u = parse_vertex("u", field("u")?)?;
                let v = parse_vertex("v", field("v")?)?;
                EdgeUpdate::Remove { u, v }
            }
            other => {
                return Err(format!(
                    "line {lineno}: unknown op '{other}' (expected '+' or '-')"
                ))
            }
        };
        if let Some(extra) = parts.next() {
            return Err(format!(
                "line {lineno}: unexpected trailing token '{extra}'"
            ));
        }
        stream.push(update);
    }
    Ok(stream)
}

/// Writes a graph to `out`: a `.snap` name gets a binary snapshot, any
/// other name an attributed edge list.
fn write_graph_out(g: &SocialNetwork, out: &str) -> Result<(), String> {
    if out.ends_with(".snap") {
        graph_snapshot::write_graph_snapshot(g, out).map_err(|e| e.to_string())
    } else {
        io::write_edge_list_file(g, out).map_err(|e| e.to_string())
    }
}

/// Options of the `serve` command (one struct so the workload surface grows
/// without widening the function signature further).
struct ServeOptions {
    workers: usize,
    queries: usize,
    seed: u64,
    k: u32,
    r: u32,
    theta: f64,
    l: usize,
    json: bool,
    /// Target synthetic edge updates/sec pushed through the maintenance
    /// thread while the queries run (0 = serving only).
    update_rate: f64,
    compact_threshold: f64,
    repack_threshold: f64,
}

/// Generates the next batch of always-valid synthetic edge updates for the
/// `serve --update-rate` churn: inserts fresh edges between random vertices
/// (checked against the initial graph plus the mirror of what the stream
/// already added) and removes only edges the stream inserted earlier.
fn next_update_batch(
    g0: &SocialNetwork,
    state: &mut u64,
    added: &mut Vec<(VertexId, VertexId)>,
    added_set: &mut std::collections::BTreeSet<(u32, u32)>,
    size: usize,
) -> Vec<EdgeUpdate> {
    let n = g0.num_vertices() as u64;
    let key = |u: VertexId, v: VertexId| (u.0.min(v.0), u.0.max(v.0));
    let mut batch = Vec::with_capacity(size);
    while batch.len() < size {
        if splitmix64(state).is_multiple_of(2) && !added.is_empty() {
            let i = (splitmix64(state) % added.len() as u64) as usize;
            let (u, v) = added.swap_remove(i);
            added_set.remove(&key(u, v));
            batch.push(EdgeUpdate::Remove { u, v });
        } else {
            let u = VertexId((splitmix64(state) % n) as u32);
            let v = VertexId((splitmix64(state) % n) as u32);
            if u == v || added_set.contains(&key(u, v)) || g0.contains_edge(u, v) {
                continue;
            }
            let p_uv = 0.2 + unit_f64(state) * 0.3;
            let p_vu = 0.2 + unit_f64(state) * 0.3;
            added.push((u, v));
            added_set.insert(key(u, v));
            batch.push(EdgeUpdate::Insert { u, v, p_uv, p_vu });
        }
    }
    batch
}

/// Drives the serving runtime with a closed-loop synthetic workload:
/// `2 × workers` client threads submit Zipf-skewed keyword queries and wait
/// for each answer, so per-query latency covers queueing and execution.
/// With `update_rate > 0` a paced updater additionally streams synthetic
/// edge updates through the maintenance thread, which hot-swaps each
/// refreshed snapshot into the runtime while the queries drain.
fn run_serve(g: SocialNetwork, idx: CommunityIndex, options: ServeOptions) -> Result<(), String> {
    let ServeOptions {
        workers,
        queries,
        seed,
        k,
        r,
        theta,
        l,
        json,
        update_rate,
        compact_threshold,
        repack_threshold,
    } = options;
    let keywords = graph_keywords(&g);
    if keywords.is_empty() {
        return Err("graph has no keywords to build a workload from".to_string());
    }
    let per_query = keywords.len().min(3);
    let cdf = zipf_cdf(keywords.len(), 1.1);
    let mut state = seed ^ 0x5bf0_3635;
    let workload: Vec<TopLQuery> = (0..queries)
        .map(|_| {
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < per_query {
                picked.insert(keywords[sample_zipf(&cdf, unit_f64(&mut state))]);
            }
            TopLQuery::new(KeywordSet::from_ids(picked), k, r, theta, l)
        })
        .collect();

    // the maintainer (and the churn generator) need their own copies of the
    // pair before the runtime takes ownership of the originals
    let update_pair = if update_rate > 0.0 {
        Some((g.clone(), idx.clone()))
    } else {
        None
    };
    let runtime = Arc::new(
        ServingRuntime::start(ServingConfig::with_workers(workers), g, idx)
            .map_err(|e| e.to_string())?,
    );
    let clients = (workers * 2).clamp(1, queries.max(1));
    let started = std::time::Instant::now();
    let stop_updates = AtomicBool::new(false);
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(queries);
    let mut update_stats = MaintainerStats::default();
    let mut update_wall_s = 0.0f64;
    std::thread::scope(|scope| -> Result<(), String> {
        let updater = update_pair.map(|(g0, idx0)| {
            let runtime = Arc::clone(&runtime);
            let stop = &stop_updates;
            let mut churn_state = seed ^ 0x7d1e_55ab;
            scope.spawn(move || -> (MaintainerStats, f64) {
                let feed = StreamingMaintainer::new(g0.clone(), idx0)
                    .with_compact_threshold(compact_threshold)
                    .with_repack_threshold(repack_threshold)
                    .spawn(Arc::clone(&runtime));
                // ~20 batches/sec pacing against the wall clock
                let batch_size = ((update_rate / 20.0).round() as usize).max(1);
                let t0 = std::time::Instant::now();
                let mut added = Vec::new();
                let mut added_set = std::collections::BTreeSet::new();
                let mut sent = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let target = (t0.elapsed().as_secs_f64() * update_rate) as u64;
                    while sent < target {
                        let batch = next_update_batch(
                            &g0,
                            &mut churn_state,
                            &mut added,
                            &mut added_set,
                            batch_size,
                        );
                        sent += batch.len() as u64;
                        if !feed.push(batch) {
                            break;
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                let maintainer = feed.finish();
                (maintainer.stats(), t0.elapsed().as_secs_f64())
            })
        });
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let runtime = &runtime;
                let slice: Vec<TopLQuery> =
                    workload.iter().skip(c).step_by(clients).cloned().collect();
                scope.spawn(move || -> Result<Vec<u64>, String> {
                    let mut lat = Vec::with_capacity(slice.len());
                    for q in slice {
                        let t0 = std::time::Instant::now();
                        runtime.submit(q).wait().map_err(|e| e.to_string())?;
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                    Ok(lat)
                })
            })
            .collect();
        for h in handles {
            latencies_ns.extend(h.join().expect("serve client thread panicked")?);
        }
        stop_updates.store(true, Ordering::Relaxed);
        if let Some(updater) = updater {
            let (stats, wall_s) = updater.join().expect("serve updater thread panicked");
            update_stats = stats;
            update_wall_s = wall_s;
        }
        Ok(())
    })?;
    let wall = started.elapsed();
    let snapshot = runtime.current();
    let stats = Arc::try_unwrap(runtime)
        .ok()
        .expect("all runtime references joined")
        .shutdown();

    latencies_ns.sort_unstable();
    let pct_ms = |p: f64| -> f64 {
        let i = ((latencies_ns.len() - 1) as f64 * p).round() as usize;
        latencies_ns[i] as f64 / 1e6
    };
    let qps = queries as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let updates_per_sec = if update_wall_s > 0.0 {
        update_stats.updates_applied() as f64 / update_wall_s
    } else {
        0.0
    };
    if json {
        let doc = serde_json::Value::Object(vec![
            (
                "workers".to_string(),
                serde_json::Value::UInt(workers as u64),
            ),
            (
                "queries".to_string(),
                serde_json::Value::UInt(queries as u64),
            ),
            (
                "wall_seconds".to_string(),
                serde_json::Value::Float(wall.as_secs_f64()),
            ),
            ("qps".to_string(), serde_json::Value::Float(qps)),
            ("p50_ms".to_string(), serde_json::Value::Float(pct_ms(0.50))),
            ("p99_ms".to_string(), serde_json::Value::Float(pct_ms(0.99))),
            (
                "p999_ms".to_string(),
                serde_json::Value::Float(pct_ms(0.999)),
            ),
            (
                "cache_hit_rate".to_string(),
                serde_json::Value::Float(stats.hit_rate()),
            ),
            (
                "cache_hits".to_string(),
                serde_json::Value::UInt(stats.cache_hits),
            ),
            (
                "queries_executed".to_string(),
                serde_json::Value::UInt(stats.queries_executed),
            ),
            (
                "queries_failed".to_string(),
                serde_json::Value::UInt(stats.queries_failed),
            ),
            (
                "updates_applied".to_string(),
                serde_json::Value::UInt(update_stats.updates_applied()),
            ),
            (
                "updates_per_sec".to_string(),
                serde_json::Value::Float(updates_per_sec),
            ),
            (
                "update_rate_requested".to_string(),
                serde_json::Value::Float(update_rate),
            ),
            (
                "compactions".to_string(),
                serde_json::Value::UInt(update_stats.compactions),
            ),
            (
                "index_patches".to_string(),
                serde_json::Value::UInt(update_stats.index_patches),
            ),
            (
                "repacks".to_string(),
                serde_json::Value::UInt(update_stats.repacks),
            ),
            (
                "publishes_skipped".to_string(),
                serde_json::Value::UInt(update_stats.publishes_skipped),
            ),
            (
                "ball_overlap".to_string(),
                serde_json::Value::UInt(update_stats.ball_overlap),
            ),
            (
                "support_patch_secs".to_string(),
                serde_json::Value::Float(update_stats.support_patch_secs),
            ),
            (
                "ball_recompute_secs".to_string(),
                serde_json::Value::Float(update_stats.ball_recompute_secs),
            ),
            (
                "index_patch_secs".to_string(),
                serde_json::Value::Float(update_stats.index_patch_secs),
            ),
            (
                "publish_secs".to_string(),
                serde_json::Value::Float(update_stats.publish_secs),
            ),
            (
                "snapshot_swaps".to_string(),
                serde_json::Value::UInt(stats.swaps),
            ),
            (
                "snapshot_epoch".to_string(),
                serde_json::Value::UInt(snapshot.epoch()),
            ),
            (
                "snapshot_fingerprint".to_string(),
                serde_json::Value::Str(format!("{:#018x}", snapshot.fingerprint())),
            ),
            (
                "latency_by_epoch".to_string(),
                latency_epochs_json(&stats.latency_by_epoch),
            ),
        ]);
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        println!(
            "served {} queries on {} worker{} in {:.2?} ({:.0} QPS)",
            queries,
            workers,
            if workers == 1 { "" } else { "s" },
            wall,
            qps
        );
        println!(
            "latency: p50 {:.3}ms | p99 {:.3}ms | p999 {:.3}ms",
            pct_ms(0.50),
            pct_ms(0.99),
            pct_ms(0.999)
        );
        println!(
            "cache: {:.1}% hit rate ({} hits, {} executed, {} failed)",
            stats.hit_rate() * 100.0,
            stats.cache_hits,
            stats.queries_executed,
            stats.queries_failed
        );
        // server-side split: every snapshot swap invalidates the answer LRU,
        // so each hot query re-executes the kernel once per epoch — the tail
        // is those per-epoch misses, not slow hits
        let (hits, misses) = split_latency(&stats.latency_by_epoch);
        if hits.count + misses.count > 0 {
            println!(
                "server-side: {} cache hits (mean {:.1}µs, p99 ≤ {}µs) | {} kernel \
                 executions (mean {:.1}µs, p99 ≤ {}µs) across {} epoch{}",
                hits.count,
                hits.mean_micros(),
                hits.quantile_upper_micros(0.99),
                misses.count,
                misses.mean_micros(),
                misses.quantile_upper_micros(0.99),
                stats.latency_by_epoch.len(),
                if stats.latency_by_epoch.len() == 1 {
                    ""
                } else {
                    "s"
                }
            );
        }
        if update_rate > 0.0 {
            println!(
                "updates: {} applied ({:.0}/sec sustained, target {:.0}/sec), \
                 {} compaction{}, {} snapshot swap{}",
                update_stats.updates_applied(),
                updates_per_sec,
                update_rate,
                update_stats.compactions,
                if update_stats.compactions == 1 {
                    ""
                } else {
                    "s"
                },
                stats.swaps,
                if stats.swaps == 1 { "" } else { "s" }
            );
            println!(
                "maintenance: {} index patch{}, {} repack{}, {} publish{} skipped; phases: \
                 support patch {:.1}ms, ball recompute {:.1}ms, index patch {:.1}ms, \
                 publish {:.1}ms",
                update_stats.index_patches,
                if update_stats.index_patches == 1 {
                    ""
                } else {
                    "es"
                },
                update_stats.repacks,
                if update_stats.repacks == 1 { "" } else { "s" },
                update_stats.publishes_skipped,
                if update_stats.publishes_skipped == 1 {
                    ""
                } else {
                    "es"
                },
                update_stats.support_patch_secs * 1e3,
                update_stats.ball_recompute_secs * 1e3,
                update_stats.index_patch_secs * 1e3,
                update_stats.publish_secs * 1e3
            );
        }
        println!(
            "snapshot: epoch {}, fingerprint {:#018x}",
            snapshot.epoch(),
            snapshot.fingerprint()
        );
    }
    if stats.queries_failed > 0 {
        return Err(format!("{} queries failed", stats.queries_failed));
    }
    Ok(())
}

/// Reads a graph: a binary snapshot if the file starts with the snapshot
/// magic bytes, an attributed edge list otherwise.
fn load_graph(path: &str) -> Result<SocialNetwork, String> {
    if path_is_snapshot(path) {
        graph_snapshot::read_graph_snapshot(path).map_err(|e| e.to_string())
    } else {
        io::read_edge_list_file(path).map_err(|e| e.to_string())
    }
}

/// Reads an index; the binary snapshot is its only on-disk format.
fn load_index(path: &str) -> Result<CommunityIndex, String> {
    read_index_snapshot(path).map_err(|e| e.to_string())
}

fn print_communities(communities: &[SeedCommunity]) {
    for (rank, c) in communities.iter().enumerate() {
        let members: Vec<String> = c.vertices.iter().map(|v| v.0.to_string()).collect();
        println!(
            "#{rank}: center {} | score {:.3} | {} members [{}] | {} influenced users",
            c.center,
            c.influential_score,
            c.len(),
            members.join(","),
            c.influenced_only()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use icde_graph::generators::DatasetKind;

    fn temp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .to_string()
    }

    #[test]
    fn generate_index_query_pipeline() {
        let graph_path = temp_path("topl_cli_test_graph.txt");
        let index_path = temp_path("topl_cli_test_index.idx");
        let index_snap = temp_path("topl_cli_test_index.snap");

        run(Command::Generate {
            kind: DatasetKind::Uniform,
            vertices: 200,
            seed: 3,
            keyword_domain: 10,
            keywords_per_vertex: 3,
            out: graph_path.clone(),
        })
        .unwrap();

        run(Command::Stats {
            graph: graph_path.clone(),
        })
        .unwrap();

        // the index is written as a snapshot whatever its name
        for out in [&index_path, &index_snap] {
            run(Command::Index {
                graph: graph_path.clone(),
                out: out.clone(),
                r_max: 3,
                fanout: 8,
                thresholds: vec![0.1, 0.2, 0.3],
                threads: Some(2),
            })
            .unwrap();
        }
        assert_eq!(
            std::fs::read(&index_path).unwrap(),
            std::fs::read(&index_snap).unwrap()
        );

        run(Command::Query {
            graph: graph_path.clone(),
            index: index_path.clone(),
            keywords: vec![0, 1, 2, 3],
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: true,
            explain: true,
        })
        .unwrap();

        run(Command::DQuery {
            graph: graph_path.clone(),
            index: index_path.clone(),
            keywords: vec![0, 1, 2, 3],
            k: 3,
            r: 2,
            theta: 0.2,
            l: 2,
            n: 2,
            json: false,
        })
        .unwrap();

        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(index_path);
        let _ = std::fs::remove_file(index_snap);
    }

    #[test]
    fn snapshot_save_load_query_pipeline() {
        let graph_path = temp_path("topl_cli_snap_graph.txt");
        let graph_snap = temp_path("topl_cli_snap_graph.snap");
        let index_snap = temp_path("topl_cli_snap_index.snap");

        run(Command::Generate {
            kind: DatasetKind::Uniform,
            vertices: 150,
            seed: 9,
            keyword_domain: 10,
            keywords_per_vertex: 3,
            out: graph_path.clone(),
        })
        .unwrap();

        // graph → binary snapshot; index built straight into a snapshot
        run(Command::SnapshotSave {
            graph: graph_path.clone(),
            out: graph_snap.clone(),
        })
        .unwrap();
        run(Command::Index {
            graph: graph_snap.clone(),
            out: index_snap.clone(),
            r_max: 3,
            fanout: 8,
            thresholds: vec![0.1, 0.2, 0.3],
            threads: None,
        })
        .unwrap();

        // both snapshots verify through the load command (mmap and fallback)
        for buffered in [false, true] {
            run(Command::SnapshotLoad {
                file: graph_snap.clone(),
                buffered,
            })
            .unwrap();
            run(Command::SnapshotLoad {
                file: index_snap.clone(),
                buffered,
            })
            .unwrap();
        }

        // queries run directly off the binary snapshots
        run(Command::Query {
            graph: graph_snap.clone(),
            index: index_snap.clone(),
            keywords: vec![0, 1, 2, 3],
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: false,
            explain: false,
        })
        .unwrap();

        // corrupt snapshots are rejected, not mis-loaded
        let mut bytes = std::fs::read(&graph_snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&graph_snap, &bytes).unwrap();
        assert!(run(Command::SnapshotLoad {
            file: graph_snap.clone(),
            buffered: false,
        })
        .is_err());

        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(graph_snap);
        let _ = std::fs::remove_file(index_snap);
    }

    #[test]
    fn serve_runs_a_small_workload() {
        let graph_path = temp_path("topl_cli_serve_graph.txt");
        let index_path = temp_path("topl_cli_serve_index.idx");
        run(Command::Generate {
            kind: DatasetKind::Uniform,
            vertices: 150,
            seed: 5,
            keyword_domain: 10,
            keywords_per_vertex: 3,
            out: graph_path.clone(),
        })
        .unwrap();
        run(Command::Index {
            graph: graph_path.clone(),
            out: index_path.clone(),
            r_max: 2,
            fanout: 8,
            thresholds: vec![0.1, 0.2, 0.3],
            threads: Some(1),
        })
        .unwrap();
        run(Command::Serve {
            graph: graph_path.clone(),
            index: index_path.clone(),
            workers: 2,
            queries: 40,
            seed: 7,
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: true,
            update_rate: 0.0,
            compact_threshold: icde_graph::graph::DEFAULT_COMPACT_THRESHOLD,
            repack_threshold: icde_core::streaming::DEFAULT_REPACK_THRESHOLD,
        })
        .unwrap();
        // with churn: the updater streams edge updates through the
        // maintenance thread while the same workload drains
        run(Command::Serve {
            graph: graph_path.clone(),
            index: index_path.clone(),
            workers: 2,
            queries: 40,
            seed: 7,
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: true,
            update_rate: 400.0,
            compact_threshold: 0.02,
            repack_threshold: 0.5,
        })
        .unwrap();
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(index_path);
    }

    #[test]
    fn update_stream_refreshes_graph_and_index() {
        let graph_path = temp_path("topl_cli_update_graph.txt");
        let index_path = temp_path("topl_cli_update_index.idx");
        let updates_path = temp_path("topl_cli_update_stream.txt");
        let out_graph = temp_path("topl_cli_update_graph_out.snap");
        let out_index = temp_path("topl_cli_update_index_out.idx");

        run(Command::Generate {
            kind: DatasetKind::Uniform,
            vertices: 150,
            seed: 11,
            keyword_domain: 10,
            keywords_per_vertex: 3,
            out: graph_path.clone(),
        })
        .unwrap();
        run(Command::Index {
            graph: graph_path.clone(),
            out: index_path.clone(),
            r_max: 2,
            fanout: 8,
            thresholds: vec![0.1, 0.2, 0.3],
            threads: Some(1),
        })
        .unwrap();

        // build a stream off the actual graph: remove two live edges, insert
        // two fresh ones
        let g = load_graph(&graph_path).unwrap();
        let removals: Vec<_> = g.edges().take(2).map(|(_, u, v)| (u, v)).collect();
        let mut inserts = Vec::new();
        'outer: for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.contains_edge(u, v) {
                    inserts.push((u, v));
                    if inserts.len() == 2 {
                        break 'outer;
                    }
                }
            }
        }
        let mut stream = String::from("# synthetic churn\n\n");
        for (u, v) in &removals {
            stream.push_str(&format!("- {} {}\n", u.0, v.0));
        }
        for (u, v) in &inserts {
            stream.push_str(&format!("+ {} {} 0.4 0.35\n", u.0, v.0));
        }
        std::fs::write(&updates_path, stream).unwrap();

        run(Command::Update {
            graph: graph_path.clone(),
            index: index_path.clone(),
            updates: updates_path.clone(),
            batch: 2,
            compact_threshold: 0.001, // tiny: force a compaction
            repack_threshold: icde_core::streaming::DEFAULT_REPACK_THRESHOLD,
            out_graph: Some(out_graph.clone()),
            out_index: Some(out_index.clone()),
            keywords: vec![0, 1, 2],
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: true,
        })
        .unwrap();

        // the refreshed pair round-trips: the written graph reflects the
        // stream and answers queries against the written index
        let refreshed = load_graph(&out_graph).unwrap();
        for (u, v) in &removals {
            assert!(!refreshed.contains_edge(*u, *v));
        }
        for (u, v) in &inserts {
            assert!(refreshed.contains_edge(*u, *v));
        }
        run(Command::Query {
            graph: out_graph.clone(),
            index: out_index.clone(),
            keywords: vec![0, 1, 2],
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: false,
            explain: false,
        })
        .unwrap();

        // persisting with a *pending* overlay (threshold never crossed): the
        // update command must compact before writing, so the saved supports
        // are keyed by the same renumbered id space as the written graph
        let overlay_stream: String = load_graph(&graph_path)
            .unwrap()
            .edges()
            .take(3)
            .map(|(_, u, v)| format!("- {} {}\n", u.0, v.0))
            .collect();
        std::fs::write(&updates_path, overlay_stream).unwrap();
        run(Command::Update {
            graph: graph_path.clone(),
            index: index_path.clone(),
            updates: updates_path.clone(),
            batch: 64,
            compact_threshold: 1000.0, // huge: no batch-triggered compaction
            repack_threshold: 0.0,     // every batch repacks: exercise the rebuild path
            out_graph: Some(out_graph.clone()),
            out_index: Some(out_index.clone()),
            keywords: Vec::new(),
            k: 3,
            r: 2,
            theta: 0.2,
            l: 3,
            json: false,
        })
        .unwrap();
        let reloaded_graph = load_graph(&out_graph).unwrap();
        let reloaded_index = load_index(&out_index).unwrap();
        let scratch_index = IndexBuilder::new(PrecomputeConfig::new(2, vec![0.1, 0.2, 0.3]))
            .with_fanout(8)
            .build(&reloaded_graph);
        assert_eq!(
            reloaded_index.precomputed.edge_supports.as_slice(),
            scratch_index.precomputed.edge_supports.as_slice(),
            "persisted supports must live in the written graph's id space"
        );

        // malformed streams are rejected with line numbers
        std::fs::write(&updates_path, "+ 1 2 0.4\n").unwrap();
        assert!(run(Command::Update {
            graph: graph_path.clone(),
            index: index_path.clone(),
            updates: updates_path.clone(),
            batch: 64,
            compact_threshold: 0.125,
            repack_threshold: f64::INFINITY, // never repack: pure patch path
            out_graph: None,
            out_index: None,
            keywords: Vec::new(),
            k: 4,
            r: 2,
            theta: 0.2,
            l: 5,
            json: false,
        })
        .is_err());

        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(index_path);
        let _ = std::fs::remove_file(updates_path);
        let _ = std::fs::remove_file(out_graph);
        let _ = std::fs::remove_file(out_index);
    }

    #[test]
    fn missing_files_produce_errors() {
        assert!(run(Command::Stats {
            graph: "/no/such/file.txt".into(),
        })
        .is_err());
        let query = |graph: &str, index: &str| {
            run(Command::Query {
                graph: graph.into(),
                index: index.into(),
                keywords: vec![1],
                k: 3,
                r: 2,
                theta: 0.2,
                l: 2,
                json: false,
                explain: false,
            })
        };
        assert!(query("/no/such/file.txt", "/no/such/index.snap").is_err());

        // an index argument must be a snapshot: an edge list, or an index in
        // the retired JSON format, is rejected by its magic bytes
        let graph_path = temp_path("topl_cli_bad_index_graph.txt");
        let old_json_index = temp_path("topl_cli_bad_index.json");
        run(Command::Generate {
            kind: DatasetKind::Uniform,
            vertices: 50,
            seed: 4,
            keyword_domain: 10,
            keywords_per_vertex: 3,
            out: graph_path.clone(),
        })
        .unwrap();
        std::fs::write(
            &old_json_index,
            r#"{"format_version":3,"index":{"precomputed":{"config":{"r_max":2}}}}"#,
        )
        .unwrap();
        for index in [&graph_path, &old_json_index] {
            assert_eq!(
                query(&graph_path, index).unwrap_err(),
                "not a TopL-ICDE snapshot (bad magic)",
                "{index}"
            );
        }
        let _ = std::fs::remove_file(graph_path);
        let _ = std::fs::remove_file(old_json_index);
    }
}
