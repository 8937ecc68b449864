//! Graph-substrate micro-benchmarks over the frozen CSR store.
//!
//! Every phase of the TopL-ICDE pipeline reduces to three adjacency-bound
//! primitives: bounded BFS over r-hop balls (Algorithm 2 / radius pruning),
//! triangle counting via sorted-slice intersection (truss supports, Lemma 3),
//! and single-source best-probability Dijkstra (MIA `upp`, Eqs. 1–3). This
//! bench tracks them on the paper-default 50k-vertex small-world graph so CSR
//! regressions surface immediately; the archived `BENCH_2.json` records the
//! trajectory against the earlier adjacency-list store.
//!
//! Run: `cargo bench -p icde-bench --bench graph_primitives`
//! CI smoke: `cargo bench -p icde-bench --bench graph_primitives -- --test`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use icde_graph::generators::{small_world, SmallWorldConfig};
use icde_graph::traversal::bfs_within;
use icde_graph::{SocialNetwork, VertexId};
use icde_influence::mia::single_source_upp;
use icde_truss::triangle::count_triangles;
use std::time::Duration;

const SCALE: usize = 50_000;
const SEED: u64 = 20240614;

fn graph() -> SocialNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SEED);
    small_world(&SmallWorldConfig::paper_default(SCALE), &mut rng)
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_primitives");
    group
        .sample_size(5)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("build_50k_small_world", |b| b.iter(|| black_box(graph())));
    group.finish();
}

fn bench_triangles(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("graph_primitives");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("triangle_count_50k", |b| {
        b.iter(|| black_box(count_triangles(&g)))
    });
    group.finish();
}

fn bench_rhop_bfs(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("graph_primitives");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("rhop_bfs_r3_x2000", |b| {
        b.iter(|| {
            let mut reached = 0usize;
            for i in 0..2000 {
                let v = VertexId::from_index(i * (SCALE / 2000));
                reached += bfs_within(&g, v, 3).distances.len();
            }
            black_box(reached)
        })
    });
    group.finish();
}

fn bench_upp(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("graph_primitives");
    group
        .sample_size(5)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("single_source_upp_x200", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..200 {
                let v = VertexId::from_index(i * (SCALE / 200));
                acc += single_source_upp(&g, v, 0.01).iter().sum::<f64>();
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(
    graph_primitives,
    bench_build,
    bench_triangles,
    bench_rhop_bfs,
    bench_upp
);
criterion_main!(graph_primitives);
