//! Pruning-power instrumentation.
//!
//! The ablation study (Figure 4) reports how many candidate communities each
//! pruning rule eliminates and how that affects wall-clock time. Every query
//! processor therefore carries a [`PruningStats`] record that counts, per
//! rule, the index entries and candidate centres that were discarded without
//! refinement.

use serde::Serialize;
use std::ops::AddAssign;

/// Counters describing how much work one query avoided (or performed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PruningStats {
    /// Index entries (non-leaf) pruned by the keyword rule (Lemma 5).
    pub index_keyword_pruned: usize,
    /// Index entries pruned by the support rule (Lemma 6).
    pub index_support_pruned: usize,
    /// Index entries pruned by the influential-score rule (Lemma 7).
    pub index_score_pruned: usize,
    /// Candidate centres (leaf entries) pruned by the keyword rule (Lemma 1).
    pub candidate_keyword_pruned: usize,
    /// Candidate centres pruned by the support rule (Lemma 2).
    pub candidate_support_pruned: usize,
    /// Candidate centres pruned by the influential-score rule (Lemma 4).
    pub candidate_score_pruned: usize,
    /// Candidate centres whose r-hop region produced no valid seed community
    /// (radius / truss / keyword constraints failed during refinement).
    pub candidates_without_community: usize,
    /// Candidate centres fully refined (seed community extracted and its
    /// exact influential score computed).
    pub candidates_refined: usize,
    /// Heap entries *abandoned in the queue* when the early-termination test
    /// fired (Algorithm 3 lines 7–8) — entries that were never popped.
    pub early_terminated_entries: usize,
    /// Popped entries whose key triggered early termination (at most one per
    /// traversal; kept separate from [`early_terminated_entries`] so the two
    /// populations — inspected vs never reached — stay distinguishable).
    ///
    /// [`early_terminated_entries`]: PruningStats::early_terminated_entries
    pub early_termination_pops: usize,
    /// Diversity-score re-computations avoided by the lazy-greedy pruning
    /// rule (Lemma 9) during DTopL-ICDE refinement.
    pub diversity_pruned: usize,
    /// Exact influence expansions (`σ` and `|g^Inf|` of one extracted
    /// community) the query ran. Every refinement extracts its community;
    /// the progressive kernel then expands each *distinct* vertex set once
    /// per query and answers repeats from its answer cache, so
    /// `exact_verifications ≤ candidates_refined` always holds. The eager
    /// path expands every refinement and keeps the two equal.
    pub exact_verifications: usize,
    /// Candidate bounds tightened cheaply (seed-community bound beneath the
    /// region bound) without running an exact verification.
    pub bound_tightenings: usize,
    /// Entries (index nodes and candidates) popped off the best-first heap.
    pub heap_pops: usize,
}

impl PruningStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of candidate communities pruned before refinement (the
    /// quantity plotted in Figure 4(a)).
    pub fn total_pruned_candidates(&self) -> usize {
        self.candidate_keyword_pruned
            + self.candidate_support_pruned
            + self.candidate_score_pruned
            + self.early_terminated_entries
            + self.early_termination_pops
    }

    /// Total number of index entries pruned at non-leaf level.
    pub fn total_pruned_index_entries(&self) -> usize {
        self.index_keyword_pruned + self.index_support_pruned + self.index_score_pruned
    }

    /// Entries pruned by the keyword rule at any level.
    pub fn keyword_pruned(&self) -> usize {
        self.index_keyword_pruned + self.candidate_keyword_pruned
    }

    /// Entries pruned by the support rule at any level.
    pub fn support_pruned(&self) -> usize {
        self.index_support_pruned + self.candidate_support_pruned
    }

    /// Entries pruned by the influential-score rule at any level (including
    /// early termination, which is score-based).
    pub fn score_pruned(&self) -> usize {
        self.index_score_pruned
            + self.candidate_score_pruned
            + self.early_terminated_entries
            + self.early_termination_pops
    }

    /// Folds another counter set into this one, field by field.
    ///
    /// The serving worker pool accumulates one `PruningStats` per worker
    /// thread and merges them after the run; because every field is a plain
    /// sum, the merged result is independent of worker count and merge order
    /// — N workers' merged counters equal the sequential run's over the same
    /// queries.
    pub fn merge(&mut self, other: &PruningStats) {
        *self += *other;
    }
}

/// Multi-line human-readable counter breakdown (the CLI's `--explain`
/// output).
impl std::fmt::Display for PruningStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "index entries pruned:    {} keyword, {} support, {} score",
            self.index_keyword_pruned, self.index_support_pruned, self.index_score_pruned
        )?;
        writeln!(
            f,
            "candidates pruned:       {} keyword, {} support, {} score",
            self.candidate_keyword_pruned,
            self.candidate_support_pruned,
            self.candidate_score_pruned
        )?;
        writeln!(
            f,
            "early termination:       {} abandoned in heap, {} trigger pops",
            self.early_terminated_entries, self.early_termination_pops
        )?;
        writeln!(
            f,
            "refinement:              {} refined, {} exact verifications, {} without community",
            self.candidates_refined, self.exact_verifications, self.candidates_without_community
        )?;
        write!(
            f,
            "kernel:                  {} heap pops, {} bound tightenings, {} diversity pruned",
            self.heap_pops, self.bound_tightenings, self.diversity_pruned
        )
    }
}

impl AddAssign for PruningStats {
    fn add_assign(&mut self, other: Self) {
        self.index_keyword_pruned += other.index_keyword_pruned;
        self.index_support_pruned += other.index_support_pruned;
        self.index_score_pruned += other.index_score_pruned;
        self.candidate_keyword_pruned += other.candidate_keyword_pruned;
        self.candidate_support_pruned += other.candidate_support_pruned;
        self.candidate_score_pruned += other.candidate_score_pruned;
        self.candidates_without_community += other.candidates_without_community;
        self.candidates_refined += other.candidates_refined;
        self.early_terminated_entries += other.early_terminated_entries;
        self.early_termination_pops += other.early_termination_pops;
        self.diversity_pruned += other.diversity_pruned;
        self.exact_verifications += other.exact_verifications;
        self.bound_tightenings += other.bound_tightenings;
        self.heap_pops += other.heap_pops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_rules() {
        let stats = PruningStats {
            index_keyword_pruned: 1,
            index_support_pruned: 2,
            index_score_pruned: 3,
            candidate_keyword_pruned: 10,
            candidate_support_pruned: 20,
            candidate_score_pruned: 30,
            candidates_without_community: 4,
            candidates_refined: 5,
            early_terminated_entries: 7,
            early_termination_pops: 1,
            diversity_pruned: 6,
            exact_verifications: 4,
            bound_tightenings: 9,
            heap_pops: 50,
        };
        assert_eq!(stats.total_pruned_candidates(), 68);
        assert_eq!(stats.total_pruned_index_entries(), 6);
        assert_eq!(stats.keyword_pruned(), 11);
        assert_eq!(stats.support_pruned(), 22);
        assert_eq!(stats.score_pruned(), 41);
    }

    #[test]
    fn display_breaks_down_every_counter() {
        let stats = PruningStats {
            index_keyword_pruned: 1,
            candidate_score_pruned: 30,
            early_terminated_entries: 7,
            early_termination_pops: 1,
            candidates_refined: 5,
            exact_verifications: 4,
            bound_tightenings: 9,
            heap_pops: 50,
            ..Default::default()
        };
        let text = stats.to_string();
        for needle in [
            "1 keyword",
            "30 score",
            "7 abandoned in heap",
            "1 trigger pops",
            "5 refined",
            "4 exact verifications",
            "50 heap pops",
            "9 bound tightenings",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = PruningStats {
            candidates_refined: 2,
            ..Default::default()
        };
        let b = PruningStats {
            candidates_refined: 3,
            candidate_keyword_pruned: 1,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.candidates_refined, 5);
        assert_eq!(a.candidate_keyword_pruned, 1);
    }

    #[test]
    fn merge_is_order_and_partition_independent() {
        let parts = [
            PruningStats {
                candidates_refined: 2,
                heap_pops: 7,
                ..Default::default()
            },
            PruningStats {
                index_score_pruned: 4,
                heap_pops: 1,
                ..Default::default()
            },
            PruningStats {
                candidate_keyword_pruned: 3,
                exact_verifications: 5,
                ..Default::default()
            },
        ];
        let mut forward = PruningStats::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = PruningStats::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.heap_pops, 8);
        assert_eq!(forward.candidates_refined, 2);
        assert_eq!(forward.exact_verifications, 5);
    }

    #[test]
    fn default_is_zero() {
        let stats = PruningStats::new();
        assert_eq!(stats.total_pruned_candidates(), 0);
        assert_eq!(stats.total_pruned_index_entries(), 0);
    }
}
