//! Toy-size runs of every workload through the benchmark binary.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;
use topl_benchmark::inputs::{self, Stream};
use topl_benchmark::{Kind, Workload, METRICS};

/// Vertices of the toy graphs.
const TOY_VERTICES: &str = "2000";

/// Runs the binary at toy size and parses its last line.
fn toy_run(workload: Workload, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_topl-benchmark"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .args(["--vertices", TOY_VERTICES])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload:?} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("the last line is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => {
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        Value::Float(f) => f,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

fn metric_names(result: &Value) -> BTreeSet<String> {
    match field(result, "metrics") {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn metric(result: &Value, name: &str) -> f64 {
    number(field(field(field(result, "metrics"), name), "value"))
}

/// Checks the result object's shape: every metric of `kind` and nothing
/// else, each with its declared unit; a correct run with no failed op.
fn assert_result(workload: Workload, result: &Value, kind: Kind) {
    match result {
        Value::Object(fields) => {
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
        other => panic!("result is not an object: {other:?}"),
    }
    assert_eq!(field(result, "correct"), &Value::Bool(true), "{workload:?}");
    assert!(number(field(result, "attempted")) >= 1.0);
    assert_eq!(number(field(result, "failed")), 0.0, "{workload:?}");
    let expected: BTreeSet<String> = METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(metric_names(result), expected, "{workload:?} {kind:?}");
    for m in METRICS.iter().filter(|m| m.kind == kind) {
        let entry = field(field(result, "metrics"), m.name);
        assert_eq!(field(entry, "unit"), &Value::Str(m.unit.to_string()));
        let value = number(field(entry, "value"));
        assert!(value.is_finite() && value >= 0.0, "{}: {value}", m.name);
        if kind == Kind::EndToEnd {
            assert!(value > 0.0, "{workload:?}: end-to-end {} reads 0", m.name);
        }
    }
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in Workload::ALL {
        assert_result(workload, &toy_run(workload, 1, false), Kind::EndToEnd);
        assert_result(workload, &toy_run(workload, 1, true), Kind::PerLayer);
    }
}

#[test]
fn a_second_seed_changes_the_inputs_not_the_metrics() {
    let n = 2000;
    let (g1, g2) = (inputs::graph(n, 1), inputs::graph(n, 2));
    let keywords = |g: &icde_graph::SocialNetwork| {
        g.vertices()
            .map(|v| g.keyword_set(v).clone())
            .collect::<Vec<_>>()
    };
    assert_ne!(keywords(&g1), keywords(&g2));
    assert_eq!(keywords(&g1), keywords(&inputs::graph(n, 1)));
    let pool = |seed| inputs::query_pool(seed, Stream::Queries, 64, &inputs::IN_GRID_THETAS, 8);
    assert_ne!(pool(1), pool(2));
    assert_eq!(pool(1), pool(1));
    assert_ne!(
        inputs::update_stream(&g1, 1, 64),
        inputs::update_stream(&g2, 2, 64)
    );
    for workload in Workload::ALL {
        for trace in [false, true] {
            assert_eq!(
                metric_names(&toy_run(workload, 2, trace)),
                metric_names(&toy_run(workload, 3, trace)),
                "{workload:?} trace={trace}"
            );
        }
    }
}

/// Work counts that depend on neither time nor thread interleaving repeat
/// exactly across two traced runs of one seed.
#[test]
fn work_counts_repeat_for_a_seed() {
    let repeatable: [(Workload, &[&str]); 3] = [
        (
            Workload::QueryCold,
            &[
                "topl.heap_pops",
                "topl.refinements",
                "topl.exact_verifications",
            ],
        ),
        (Workload::ServeHot, &["serving.executions"]),
        (
            Workload::StreamMixed,
            &[
                "streaming.vertices_recomputed",
                "streaming.ball_overlap",
                "streaming.repacks",
                "streaming.compactions",
            ],
        ),
    ];
    for (workload, names) in repeatable {
        let (a, b) = (toy_run(workload, 7, true), toy_run(workload, 7, true));
        for &name in names {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload:?} {name}");
        }
    }
}

/// The benchmark description at the repository root lists exactly the
/// metrics and workloads this crate prints.
#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let entries = |key: &str| -> Vec<(String, String)> {
        match field(&spec, key) {
            Value::Array(items) => items
                .iter()
                .map(|m| match (field(m, "name"), field(m, "unit")) {
                    (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                    other => panic!("bad metric entry {other:?}"),
                })
                .collect(),
            other => panic!("{key} is not an array: {other:?}"),
        }
    };
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let declared: Vec<(String, String)> = METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(entries(key), declared, "{key}");
    }
    let workloads: Vec<String> = match field(&spec, "workloads") {
        Value::Array(items) => items
            .iter()
            .map(|w| match field(w, "name") {
                Value::Str(s) => s.clone(),
                other => panic!("bad workload name {other:?}"),
            })
            .collect(),
        other => panic!("workloads is not an array: {other:?}"),
    };
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}
