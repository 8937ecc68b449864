//! Index explorer: inspect the offline phase — pre-computation cost, index
//! shape, and how much work each pruning rule saves on a real query.
//!
//! ```text
//! cargo run --release --example index_explorer
//! ```

use topl_icde::core::topl::PruningToggles;
use topl_icde::prelude::*;

fn main() {
    let graph = DatasetSpec::new(DatasetKind::DblpLike, 4_000, 3).generate();
    println!(
        "DBLP-like co-authorship graph: {} authors, {} co-author edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Offline phase with explicit configuration.
    let config = PrecomputeConfig {
        r_max: 3,
        thresholds: vec![0.1, 0.2, 0.3],
        signature_bits: 128,
        parallel: true,
        num_threads: None,
    };
    let start = std::time::Instant::now();
    let index = IndexBuilder::new(config)
        .with_fanout(8)
        .with_leaf_capacity(16)
        .build(&graph);
    println!(
        "offline phase finished in {:.2?}: {} nodes, height {}, fan-out {}, leaf capacity {}",
        start.elapsed(),
        index.node_count(),
        index.height(),
        index.fanout(),
        index.leaf_capacity()
    );

    // Show how the aggregates look for a few vertices.
    println!("\nsample pre-computed aggregates (radius 2):");
    for v in graph.vertices().take(5) {
        let agg = index.precomputed.aggregate(v, 2);
        println!(
            "  {v}: region size {}, support bound {}, score bounds {:?}",
            agg.region_size,
            agg.support_upper_bound,
            agg.score_upper_bounds
                .iter()
                .map(|s| format!("{s:.1}"))
                .collect::<Vec<_>>()
        );
    }

    // Run the same query under each pruning configuration (the Fig. 4 study).
    let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2, 3, 4]), 4, 2, 0.2, 5);
    let processor = TopLProcessor::new(&graph, &index);
    println!("\npruning ablation on one query (k=4, r=2, theta=0.2, L=5):");
    for (label, toggles) in [
        ("no pruning           ", PruningToggles::none()),
        ("keyword              ", PruningToggles::keyword_only()),
        ("keyword+support      ", PruningToggles::keyword_support()),
        ("keyword+support+score", PruningToggles::all()),
    ] {
        let answer = processor
            .run_with_toggles(&query, toggles)
            .expect("valid query");
        println!(
            "  {label} | {:>7} pruned | {:>5} refined | {:>8.2?} | best score {:.1}",
            answer.stats.total_pruned_candidates(),
            answer.stats.candidates_refined,
            answer.elapsed,
            answer.best_score().max(0.0)
        );
    }
}
