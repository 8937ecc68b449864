//! Timed executions of our approach and the baselines.
//!
//! Each function runs one method against one prepared [`Workload`] and
//! returns a [`Measurement`] with the wall-clock time (the metric the paper
//! reports) plus the numbers the figures need (answer scores, pruning
//! counters, diversity scores, accuracy).

use crate::workload::Workload;
use icde_core::baseline::atindex::ATIndex;
use icde_core::baseline::bruteforce::brute_force_topl;
use icde_core::dtopl::{DTopLProcessor, DTopLStrategy};
use icde_core::stats::PruningStats;
use icde_core::topl::{PruningToggles, TopLProcessor};
use serde::Serialize;
use std::time::{Duration, Instant};

/// The outcome of running one method once.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Method label (e.g. "TopL-ICDE", "ATindex", "Greedy_WP").
    pub method: String,
    /// Online wall-clock time.
    pub wall_clock: Duration,
    /// Number of communities returned.
    pub answers: usize,
    /// Best influential score among the answers (0.0 when empty).
    pub best_score: f64,
    /// Diversity score (DTopL methods only; 0.0 otherwise).
    pub diversity_score: f64,
    /// Pruning counters (methods that track them).
    pub stats: PruningStats,
}

impl Measurement {
    /// Wall-clock time in seconds (the unit of every figure in the paper).
    pub fn seconds(&self) -> f64 {
        self.wall_clock.as_secs_f64()
    }
}

/// Runs our TopL-ICDE processor (Algorithm 3) with all pruning rules.
pub fn run_topl(workload: &Workload) -> Measurement {
    run_topl_with_toggles(workload, PruningToggles::all(), "TopL-ICDE")
}

/// Runs our TopL-ICDE processor with an explicit pruning configuration
/// (the Figure 4 ablation study).
pub fn run_topl_with_toggles(
    workload: &Workload,
    toggles: PruningToggles,
    label: &str,
) -> Measurement {
    run_topl_query(workload, &workload.topl_query(), toggles, label)
}

/// Runs our TopL-ICDE processor against an explicit query (used by the
/// parameter sweeps of Figure 3, which reuse one workload with many queries).
pub fn run_topl_query(
    workload: &Workload,
    query: &icde_core::query::TopLQuery,
    toggles: PruningToggles,
    label: &str,
) -> Measurement {
    let start = Instant::now();
    let answer = TopLProcessor::new(&workload.graph, &workload.index)
        .run_with_toggles(query, toggles)
        .expect("workload queries are always valid");
    let wall_clock = start.elapsed();
    Measurement {
        method: label.to_string(),
        wall_clock,
        answers: answer.communities.len(),
        best_score: answer.best_score().max(0.0),
        diversity_score: 0.0,
        stats: answer.stats,
    }
}

/// Runs the ATindex competitor (offline truss decomposition is *not* charged
/// to the online time, mirroring the paper's setup).
pub fn run_atindex(workload: &Workload) -> Measurement {
    let query = workload.topl_query();
    let at = ATIndex::build(&workload.graph);
    let start = Instant::now();
    let answer = at.run(&workload.graph, &query);
    let wall_clock = start.elapsed();
    Measurement {
        method: "ATindex".to_string(),
        wall_clock,
        answers: answer.communities.len(),
        best_score: answer.best_score().max(0.0),
        diversity_score: 0.0,
        stats: answer.stats,
    }
}

/// Runs the brute-force exhaustive method (used for sanity rows, not part of
/// the paper's figures).
pub fn run_bruteforce(workload: &Workload) -> Measurement {
    let query = workload.topl_query();
    let start = Instant::now();
    let answer = brute_force_topl(&workload.graph, &query);
    let wall_clock = start.elapsed();
    Measurement {
        method: "BruteForce".to_string(),
        wall_clock,
        answers: answer.communities.len(),
        best_score: answer.best_score().max(0.0),
        diversity_score: 0.0,
        stats: answer.stats,
    }
}

/// Runs one DTopL-ICDE strategy with the workload's default query.
pub fn run_dtopl(workload: &Workload, strategy: DTopLStrategy) -> Measurement {
    run_dtopl_query(workload, &workload.dtopl_query(), strategy)
}

/// Runs one DTopL-ICDE strategy against an explicit query (Figure 6 sweeps).
pub fn run_dtopl_query(
    workload: &Workload,
    query: &icde_core::dtopl::DTopLQuery,
    strategy: DTopLStrategy,
) -> Measurement {
    let label = match strategy {
        DTopLStrategy::GreedyWithPruning => "Greedy_WP",
        DTopLStrategy::GreedyWithoutPruning => "Greedy_WoP",
        DTopLStrategy::Optimal => "Optimal",
    };
    let start = Instant::now();
    let answer = DTopLProcessor::new(&workload.graph, &workload.index)
        .run(query, strategy)
        .expect("workload queries are always valid");
    let wall_clock = start.elapsed();
    Measurement {
        method: label.to_string(),
        wall_clock,
        answers: answer.communities.len(),
        best_score: answer
            .communities
            .iter()
            .map(|c| c.influential_score)
            .fold(0.0, f64::max),
        diversity_score: answer.diversity_score,
        stats: answer.stats,
    }
}

/// The DTopL-ICDE accuracy metric of Figure 6(e): the ratio of the greedy
/// diversity score to the optimal diversity score (1.0 when both are empty).
pub fn dtopl_accuracy(workload: &Workload) -> f64 {
    let greedy = run_dtopl(workload, DTopLStrategy::GreedyWithPruning);
    let optimal = run_dtopl(workload, DTopLStrategy::Optimal);
    if optimal.diversity_score <= 0.0 {
        1.0
    } else {
        greedy.diversity_score / optimal.diversity_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;
    use icde_graph::generators::DatasetKind;

    fn workload() -> Workload {
        Workload::build(
            DatasetKind::Uniform,
            &ExperimentParams::at_scale(250).with_keyword_domain(10),
        )
    }

    #[test]
    fn topl_and_baselines_agree_on_scores() {
        let w = workload();
        let ours = run_topl(&w);
        let at = run_atindex(&w);
        let bf = run_bruteforce(&w);
        assert!(ours.answers > 0);
        assert!((ours.best_score - at.best_score).abs() < 1e-6);
        assert!((ours.best_score - bf.best_score).abs() < 1e-6);
        assert!(ours.seconds() >= 0.0);
    }

    #[test]
    fn ablation_configurations_run() {
        let w = workload();
        let kw = run_topl_with_toggles(&w, PruningToggles::keyword_only(), "keyword");
        let ks = run_topl_with_toggles(&w, PruningToggles::keyword_support(), "keyword+support");
        let all = run_topl_with_toggles(&w, PruningToggles::all(), "all");
        assert_eq!(kw.best_score, ks.best_score);
        assert_eq!(kw.best_score, all.best_score);
        // more rules => no more candidate regions need refinement
        let attempted =
            |m: &Measurement| m.stats.candidates_refined + m.stats.candidates_without_community;
        assert!(attempted(&all) <= attempted(&ks));
        assert!(attempted(&ks) <= attempted(&kw));
    }

    #[test]
    fn dtopl_strategies_and_accuracy() {
        let w = workload();
        let wp = run_dtopl(&w, DTopLStrategy::GreedyWithPruning);
        let wop = run_dtopl(&w, DTopLStrategy::GreedyWithoutPruning);
        assert!((wp.diversity_score - wop.diversity_score).abs() < 1e-6);
        let accuracy = dtopl_accuracy(&w);
        assert!(
            (0.63..=1.0 + 1e-9).contains(&accuracy),
            "accuracy {accuracy}"
        );
    }
}
