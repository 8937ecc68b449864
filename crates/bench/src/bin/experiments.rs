//! Experiment driver regenerating every table and figure of the paper.
//!
//! ```text
//! cargo run -p icde-bench --release --bin experiments -- all
//! cargo run -p icde-bench --release --bin experiments -- fig2 --scale 10000
//! cargo run -p icde-bench --release --bin experiments -- fig3h --max-scale 50000
//! cargo run -p icde-bench --release --bin experiments -- fig6a --optimal --json
//! ```
//!
//! Available experiments: `table2`, `fig2`, `fig3a`..`fig3h`, `fig4`, `fig5`,
//! `fig6a`..`fig6e`, `offline` (index-construction cost), and `all`.
//!
//! Options:
//! * `--scale N` — number of vertices per generated graph (default 5 000);
//!   the paper's default is 250 000, which also works but takes much longer.
//! * `--max-scale N` — upper bound for the scalability sweeps (fig3h, fig6d).
//! * `--optimal` — include the exponential Optimal strategy in fig6a.
//! * `--json` — additionally print every table as JSON.
//! * `--seed N` — RNG seed for graph generation and query sampling.

use icde_bench::figures;
use icde_bench::params::{ExperimentParams, GRAPH_SIZE_VALUES};
use icde_bench::report::{seconds, Table};
use icde_bench::workload::Workload;
use icde_graph::generators::DatasetKind;

/// Every experiment name `main` dispatches on.
const EXPERIMENTS: [&str; 19] = [
    "table2", "offline", "fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e", "fig3f", "fig3g",
    "fig3h", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "all",
];

struct Options {
    experiments: Vec<String>,
    scale: usize,
    max_scale: usize,
    include_optimal: bool,
    json: bool,
    seed: u64,
}

fn parse_options() -> Options {
    let mut options = Options {
        experiments: Vec::new(),
        scale: icde_bench::params::DEFAULT_SCALE,
        max_scale: 50_000,
        include_optimal: false,
        json: false,
        seed: 20240614,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                options.scale = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scale requires a number");
                    std::process::exit(2);
                });
            }
            "--max-scale" => {
                i += 1;
                options.max_scale = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--max-scale requires a number");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                options.seed = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed requires a number");
                    std::process::exit(2);
                });
            }
            "--optimal" => options.include_optimal = true,
            "--json" => options.json = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option {other}");
                print_usage();
                std::process::exit(2);
            }
            name if EXPERIMENTS.contains(&name) => options.experiments.push(name.to_string()),
            other => {
                eprintln!("unknown experiment {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if options.experiments.is_empty() {
        options.experiments.push("all".to_string());
    }
    options
}

fn print_usage() {
    eprintln!(
        "usage: experiments [table2|fig2|fig3a..fig3h|fig4|fig5|fig6a..fig6e|offline|all]... \
         [--scale N] [--max-scale N] [--optimal] [--json] [--seed N]"
    );
}

fn emit(table: &Table, json: bool) {
    println!("{table}");
    if json {
        println!("{}", table.to_json());
    }
    println!();
}

/// Offline cost report: graph generation, pre-computation + index build time
/// and index shape per dataset (not a paper figure, but needed to interpret
/// the online numbers).
fn offline_report(params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Offline phase: generation and index construction",
        &[
            "dataset",
            "generation (s)",
            "offline (s)",
            "index nodes",
            "height",
        ],
    );
    for kind in DatasetKind::ALL {
        let workload = Workload::build(kind, params);
        table.push_row(vec![
            kind.label().to_string(),
            seconds(workload.generation_time),
            seconds(workload.offline_time),
            workload.index.node_count().to_string(),
            workload.index.height().to_string(),
        ]);
    }
    table
}

fn scalability_sizes(max_scale: usize) -> Vec<usize> {
    GRAPH_SIZE_VALUES
        .iter()
        .copied()
        .filter(|s| *s <= max_scale)
        .collect()
}

fn main() {
    let options = parse_options();
    let params = ExperimentParams::at_scale(options.scale).with_seed(options.seed);
    println!(
        "# TopL-ICDE experiment harness — scale {} vertices, seed {}\n",
        options.scale, options.seed
    );

    let run_all = options.experiments.iter().any(|e| e == "all");
    let wants = |name: &str| run_all || options.experiments.iter().any(|e| e == name);

    if wants("table2") {
        emit(&figures::table2_dataset_statistics(&params), options.json);
    }
    if wants("offline") {
        emit(&offline_report(&params), options.json);
    }
    if wants("fig2") {
        emit(&figures::fig2_datasets(&params), options.json);
    }
    if wants("fig3a") {
        emit(&figures::fig3_theta(&params), options.json);
    }
    if wants("fig3b") {
        emit(&figures::fig3_query_keywords(&params), options.json);
    }
    if wants("fig3c") {
        emit(&figures::fig3_support(&params), options.json);
    }
    if wants("fig3d") {
        emit(&figures::fig3_radius(&params), options.json);
    }
    if wants("fig3e") {
        emit(&figures::fig3_result_size(&params), options.json);
    }
    if wants("fig3f") {
        emit(&figures::fig3_keywords_per_vertex(&params), options.json);
    }
    if wants("fig3g") {
        emit(&figures::fig3_keyword_domain(&params), options.json);
    }
    if wants("fig3h") {
        let sizes = scalability_sizes(options.max_scale);
        emit(&figures::fig3_graph_size(&params, &sizes), options.json);
    }
    if wants("fig4") {
        let (pruned, time) = figures::fig4_ablation(&params);
        emit(&pruned, options.json);
        emit(&time, options.json);
    }
    if wants("fig5") {
        emit(&figures::fig5_case_study(&params), options.json);
    }
    if wants("fig6a") {
        emit(
            &figures::fig6_datasets(&params, options.include_optimal),
            options.json,
        );
    }
    if wants("fig6b") {
        emit(&figures::fig6_result_size(&params), options.json);
    }
    if wants("fig6c") {
        emit(&figures::fig6_multiplier(&params), options.json);
    }
    if wants("fig6d") {
        let sizes = scalability_sizes(options.max_scale);
        emit(&figures::fig6_graph_size(&params, &sizes), options.json);
    }
    if wants("fig6e") {
        emit(&figures::fig6_accuracy(&params), options.json);
    }
}
