//! Answer comparisons that need no oracle.
//!
//! Two answers to one query are compared by what they contain, not by which
//! centre reported a community: when two centres tie bit-exactly on score,
//! which one the kernel credits follows traversal order, so it differs
//! between index shapes and update histories. A TopL answer is therefore
//! reduced to its communities' score bits, reach (influenced size) and
//! vertex sets, in a canonical order.
//!
//! DTopL answers get a tolerance on the diversity score `D(S)`: the
//! influenced communities and the diversity state are kept in std
//! `HashMap`s, whose iteration order is random per instance, so summing the
//! same community members in another order moves the last bits of `D(S)`
//! and of every marginal gain, even between identical indexes in one
//! process. When two candidates' gains tie in exact arithmetic, that order
//! also decides which one the greedy takes, so the selected communities may
//! differ while `D(S)` does not. An index only supplies the candidates the
//! greedy picks from (the query's top-`n·L` TopL answer), so the caller
//! checks those exactly and [`compare_dtopl`] accepts such a tie.

use icde_core::{DTopLAnswer, SeedCommunity, TopLAnswer};
use std::collections::BTreeSet;

/// Relative tolerance on `D(S)` between two DTopL answers.
pub const DIVERSITY_REL_TOL: f64 = 1e-9;

/// A community without its centre: (score bits, reach, sorted vertex ids).
type Content = (u64, usize, Vec<u32>);

fn content(c: &SeedCommunity) -> Content {
    (
        c.influential_score.to_bits(),
        c.influenced_size,
        c.vertices.as_slice().iter().map(|v| v.0).collect(),
    )
}

/// The centre-insensitive content of a TopL answer, canonically ordered.
pub fn topl_content(answer: &TopLAnswer) -> Vec<Content> {
    let mut all: Vec<Content> = answer.communities.iter().map(content).collect();
    all.sort_unstable();
    all
}

/// Whether two TopL answers hold the same communities.
pub fn same_topl(a: &TopLAnswer, b: &TopLAnswer) -> bool {
    topl_content(a) == topl_content(b)
}

/// How two DTopL answers to one query compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DTopLMatch {
    /// The same communities in the same order, `D(S)` within
    /// [`DIVERSITY_REL_TOL`].
    Same,
    /// Other picks from the same candidates with `D(S)` within
    /// [`DIVERSITY_REL_TOL`]: the greedy met a tie between marginal gains
    /// and summation order broke it.
    Tied,
    /// Anything else: a wrong answer.
    Differ,
}

/// Compares two DTopL answers to one query whose greedy picked from
/// `candidates`, the query's top-`n·L` TopL communities.
pub fn compare_dtopl(a: &DTopLAnswer, b: &DTopLAnswer, candidates: &[SeedCommunity]) -> DTopLMatch {
    let picks = |x: &DTopLAnswer| x.communities.iter().map(content).collect::<Vec<_>>();
    let (pa, pb) = (picks(a), picks(b));
    let scale = a
        .diversity_score
        .abs()
        .max(b.diversity_score.abs())
        .max(1.0);
    if (a.diversity_score - b.diversity_score).abs() > DIVERSITY_REL_TOL * scale {
        return DTopLMatch::Differ;
    }
    if pa == pb {
        return DTopLMatch::Same;
    }
    let pool: BTreeSet<Content> = candidates.iter().map(content).collect();
    let valid = |p: &[Content]| {
        p.iter().all(|c| pool.contains(c)) && p.iter().collect::<BTreeSet<_>>().len() == p.len()
    };
    match pa.len() == pb.len() && valid(&pa) && valid(&pb) {
        true => DTopLMatch::Tied,
        false => DTopLMatch::Differ,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icde_core::PruningStats;
    use icde_graph::{VertexId, VertexSubset};
    use std::time::Duration;

    fn community(center: u32, score: f64) -> SeedCommunity {
        SeedCommunity {
            center: VertexId(center),
            vertices: VertexSubset::from_iter([VertexId(center), VertexId(center + 1)]),
            influential_score: score,
            influenced_size: 3,
        }
    }

    fn answer(picks: &[&SeedCommunity], diversity_score: f64) -> DTopLAnswer {
        DTopLAnswer {
            communities: picks.iter().map(|c| (*c).clone()).collect(),
            diversity_score,
            stats: PruningStats::new(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn tied_picks_with_equal_diversity_pass() {
        let (x, y, z) = (community(0, 3.0), community(10, 2.5), community(20, 2.0));
        let candidates = [x.clone(), y.clone(), z.clone()];
        let a = answer(&[&x, &y], 4.0);
        let cmp = |picks: &[&SeedCommunity], d| compare_dtopl(&a, &answer(picks, d), &candidates);
        assert_eq!(cmp(&[&x, &y], 4.0 + 1e-15), DTopLMatch::Same);
        assert_eq!(cmp(&[&x, &z], 4.0 + 1e-15), DTopLMatch::Tied);
        assert_eq!(cmp(&[&x, &z], 4.0 + 1e-6), DTopLMatch::Differ);
        assert_eq!(cmp(&[&x, &y], 4.0 + 1e-6), DTopLMatch::Differ);
    }

    #[test]
    fn picks_outside_the_candidates_or_repeated_fail() {
        let (x, y, z) = (community(0, 3.0), community(10, 2.5), community(20, 2.0));
        let candidates = [x.clone(), y.clone()];
        let a = answer(&[&x, &y], 4.0);
        let cmp = |picks: &[&SeedCommunity]| compare_dtopl(&a, &answer(picks, 4.0), &candidates);
        assert_eq!(cmp(&[&x, &z]), DTopLMatch::Differ);
        assert_eq!(cmp(&[&x, &x]), DTopLMatch::Differ);
        assert_eq!(cmp(&[&x]), DTopLMatch::Differ);
    }
}
