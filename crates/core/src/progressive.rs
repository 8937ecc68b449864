//! The progressive bound-driven refinement kernel behind the online phase.
//!
//! The eager formulation of Algorithm 3 ([`TopLProcessor::run_eager_with_toggles`])
//! refines **every** leaf vertex that survives the cheap filters the moment
//! its leaf pops — full `extract_seed_community` plus an exact
//! `influenced_community` expansion each, tens of thousands of times on a
//! large graph. This kernel instead keeps index nodes *and* leaf candidates
//! in one best-bound-first heap and defers all exact work until a
//! candidate's upper bound actually reaches the top: following Bi et al.'s
//! progressive top-k framework, the moment the `L`-th confirmed answer's
//! exact score dominates every open upper bound the traversal stops, having
//! verified only the handful of candidates whose bounds ever mattered.
//!
//! Two ingredients make the bounds tight enough to matter:
//!
//! * the per-candidate key is the **minimum** of the region bound
//!   `σ_z(hop(v, r))` and the offline seed-community bound
//!   `σ_z(X_all(v; 3, r))` ([`PrecomputedData::seed_score_bound`]) — the
//!   latter scores the largest community any qualifying query could realise
//!   at this centre instead of the whole ball, which on the benchmark
//!   workload shrinks the survivor set from tens of thousands to tens;
//! * refined vertex sets are cached by fingerprint, so duplicate maximal
//!   communities (different centres, same set) cost one exact expansion.
//!
//! # Refinement cost
//!
//! Each refinement extracts the candidate's maximal seed community
//! ([`crate::seed`]: one local CSR per ball, re-peeled incrementally),
//! looks its member list up in the `AnswerCache` (a fingerprint map over
//! one flat vertex pool) and, on a miss, scores it with
//! [`InfluenceEvaluator::score_and_size`], which never materialises `g^Inf`.
//! Only a community that enters the running top-`L` becomes a
//! [`VertexSubset`].
//!
//! # Bit-identity with the eager reference
//!
//! The kernel must return *bit-identical* answers to the eager path under
//! every [`PruningToggles`] configuration; the eager path stays in-tree as
//! the oracle (`crates/core/tests/progressive_equivalence.rs`). Identity
//! rests on three observations:
//!
//! 1. **Canonical candidate order is reproducible.** With keys monotone
//!    along tree edges (a node's bound dominates its children's) the popped
//!    keys of a best-first traversal are non-increasing, and because
//!    children always carry smaller ids than their parent, equal-key nodes
//!    pop in descending-id order — the exact order the eager heap produces.
//!    Leaf pops therefore happen in the same relative order no matter how
//!    candidate entries interleave, so numbering candidates consecutively
//!    as their leaf pops (in leaf-slice order) reproduces the eager
//!    processing order as a *rank*.
//! 2. **Ranks stand in for arrival order.** The eager collector resolves
//!    score ties by arrival. [`RankedCollector`] orders by
//!    `(score desc, rank asc)` and dedups equal vertex sets keeping the
//!    smallest rank, so late refinement of an early-rank candidate lands in
//!    exactly the slot eager would have given it.
//! 3. **All bound comparisons are strict.** The eager path may prune on
//!    `bound ≤ σ_L` because its insertion order *is* the canonical order —
//!    a later tie always loses. Here σ_L may have been raised by a
//!    larger-rank candidate first, so pruning a tie could drop a candidate
//!    eager keeps; every skip, node prune and the termination test use
//!    strict `<`, which only abandons candidates provably *below* the final
//!    `σ_L`.
//!
//! [`TopLProcessor::run_eager_with_toggles`]:
//!   crate::topl::TopLProcessor::run_eager_with_toggles
//! [`PruningToggles`]: crate::topl::PruningToggles
//! [`PrecomputedData::seed_score_bound`]:
//!   crate::precompute::PrecomputedData::seed_score_bound

use crate::index::{CommunityIndex, NodeRef};
use crate::precompute::SEED_BOUND_SUPPORT;
use crate::pruning;
use crate::query::TopLQuery;
use crate::seed::{extract_seed_members, SeedCommunity};
use crate::stats::PruningStats;
use crate::topl::PruningToggles;
use icde_graph::snapshot::{fnv1a, fnv1a_extend};
use icde_graph::workspace::{with_thread_workspace, TraversalWorkspace};
use icde_graph::{SocialNetwork, VertexId, VertexSubset};
use icde_influence::{InfluenceConfig, InfluenceEvaluator};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// FNV-1a over the sorted ids of a vertex set — the dedup key for "same
/// community, different centre". Equal sets always hash equal (the slice is
/// sorted); collisions are resolved by a full comparison at every use site.
pub(crate) fn vertex_set_fingerprint(vertices: &[VertexId]) -> u64 {
    let mut h = fnv1a(b"icde-vertex-set-v1");
    for v in vertices {
        h = fnv1a_extend(h, &v.0.to_le_bytes());
    }
    h
}

/// One best-first heap entry: an index node awaiting expansion or a leaf
/// candidate awaiting exact refinement.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Node {
        key: f64,
        id: usize,
    },
    Candidate {
        key: f64,
        rank: u32,
        center: VertexId,
    },
}

impl Entry {
    fn key(&self) -> f64 {
        match self {
            Entry::Node { key, .. } | Entry::Candidate { key, .. } => *key,
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // key first; at equal keys nodes expand before candidates refine,
        // node-node ties pop the larger id first (the eager heap's order),
        // and candidate-candidate ties refine the smaller (earlier) rank
        self.key()
            .partial_cmp(&other.key())
            .unwrap_or(Ordering::Equal)
            .then_with(|| match (self, other) {
                (Entry::Node { id: a, .. }, Entry::Node { id: b, .. }) => a.cmp(b),
                (Entry::Node { .. }, Entry::Candidate { .. }) => Ordering::Greater,
                (Entry::Candidate { .. }, Entry::Node { .. }) => Ordering::Less,
                (Entry::Candidate { rank: a, .. }, Entry::Candidate { rank: b, .. }) => b.cmp(a),
            })
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Chain terminator of [`CacheEntry::next`].
const NO_ENTRY: u32 = u32::MAX;

/// One verified community of the [`AnswerCache`].
struct CacheEntry {
    /// The members are `pool[start..start + len]`.
    start: u32,
    len: u32,
    /// The previous entry with the same fingerprint, or [`NO_ENTRY`].
    next: u32,
    influenced_size: u32,
    score: f64,
}

/// The kernel's per-query answer cache: the exact `(σ, |g^Inf|)` of every
/// distinct community verified so far, keyed by [`vertex_set_fingerprint`].
/// All members live in one flat vertex pool; entries whose fingerprints
/// collide are chained and compared in full, so a collision costs at most a
/// second verification, never a wrong score.
#[derive(Default)]
struct AnswerCache {
    /// Fingerprint → the newest entry with that fingerprint.
    heads: HashMap<u64, u32>,
    entries: Vec<CacheEntry>,
    pool: Vec<VertexId>,
}

impl AnswerCache {
    /// The cached `(score, influenced size)` of `members`; on a miss,
    /// `verify` computes it and the cache stores it.
    fn get_or_verify(
        &mut self,
        fingerprint: u64,
        members: &[VertexId],
        verify: impl FnOnce() -> (f64, usize),
    ) -> (f64, usize) {
        let head = self.heads.get(&fingerprint).copied().unwrap_or(NO_ENTRY);
        let mut at = head;
        while at != NO_ENTRY {
            let entry = &self.entries[at as usize];
            let start = entry.start as usize;
            if self.pool[start..start + entry.len as usize] == *members {
                return (entry.score, entry.influenced_size as usize);
            }
            at = entry.next;
        }
        let (score, influenced_size) = verify();
        let index = u32::try_from(self.entries.len()).expect("fewer than 2^32 cached communities");
        self.entries.push(CacheEntry {
            start: u32::try_from(self.pool.len()).expect("cache pool below 2^32 vertices"),
            len: u32::try_from(members.len()).expect("community below 2^32 vertices"),
            next: head,
            influenced_size: u32::try_from(influenced_size).expect("vertex ids fit in u32"),
            score,
        });
        self.pool.extend_from_slice(members);
        self.heads.insert(fingerprint, index);
        (score, influenced_size)
    }
}

/// A collected answer plus the canonical rank of the candidate that produced
/// it (see the module docs on why ranks reproduce eager tie order).
struct Ranked {
    rank: u32,
    fingerprint: u64,
    community: SeedCommunity,
}

/// The running top-`L` set ordered by `(score desc, rank asc)` with
/// fingerprint-keyed duplicate elimination keeping the smallest rank.
struct RankedCollector {
    capacity: usize,
    entries: Vec<Ranked>,
}

impl RankedCollector {
    fn new(capacity: usize) -> Self {
        RankedCollector {
            capacity,
            entries: Vec::with_capacity(capacity + 1),
        }
    }

    /// Whether the collector already holds `L` confirmed communities.
    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// `σ_L`: the `L`-th best confirmed score, `-∞` while under capacity.
    fn sigma_l(&self) -> f64 {
        if self.entries.len() < self.capacity {
            f64::NEG_INFINITY
        } else {
            self.entries
                .last()
                .map_or(f64::NEG_INFINITY, |e| e.community.influential_score)
        }
    }

    /// Slot keeping `(score desc, rank asc)` order.
    fn position(&self, score: f64, rank: u32) -> usize {
        self.entries.partition_point(|e| {
            e.community.influential_score > score
                || (e.community.influential_score == score && e.rank < rank)
        })
    }

    /// Offers one refined community; its [`VertexSubset`] is only built if
    /// it enters the top `L`.
    fn insert(
        &mut self,
        rank: u32,
        fingerprint: u64,
        center: VertexId,
        members: &[VertexId],
        score: f64,
        influenced_size: usize,
    ) {
        if let Some(pos) = self.entries.iter().position(|e| {
            e.fingerprint == fingerprint && e.community.vertices.as_slice() == members
        }) {
            // Same vertex set: the score is a pure function of the set, so
            // in practice this is always a tie and only the rank (which
            // centre "owns" the community) can improve.
            let existing = &self.entries[pos];
            let better = score > existing.community.influential_score
                || (score == existing.community.influential_score && rank < existing.rank);
            if better {
                let mut entry = self.entries.remove(pos);
                entry.rank = rank;
                entry.community.center = center;
                entry.community.influential_score = score;
                entry.community.influenced_size = influenced_size;
                let at = self.position(score, rank);
                self.entries.insert(at, entry);
            }
            return;
        }
        let at = self.position(score, rank);
        if at >= self.capacity {
            return; // L better-(score, rank) entries already exist
        }
        self.entries.insert(
            at,
            Ranked {
                rank,
                fingerprint,
                community: SeedCommunity {
                    center,
                    vertices: VertexSubset::from_iter(members.iter().copied()),
                    influential_score: score,
                    influenced_size,
                },
            },
        );
        if self.entries.len() > self.capacity {
            self.entries.pop();
        }
    }

    fn into_sorted(self) -> Vec<SeedCommunity> {
        self.entries.into_iter().map(|e| e.community).collect()
    }
}

/// Runs the progressive kernel over one validated query.
pub(crate) fn run_progressive(
    graph: &SocialNetwork,
    index: &CommunityIndex,
    query: &TopLQuery,
    toggles: PruningToggles,
) -> (Vec<SeedCommunity>, PruningStats) {
    let mut stats = PruningStats::new();
    let query_signature = query.keyword_signature(index.signature_bits());
    let evaluator = InfluenceEvaluator::new(graph, InfluenceConfig { theta: query.theta });
    let mut refinement = Refinement {
        graph,
        query,
        evaluator,
        collector: RankedCollector::new(query.l),
        cache: AnswerCache::default(),
        members: Vec::new(),
    };
    // The offline seed bounds are computed at support SEED_BOUND_SUPPORT;
    // they only dominate communities of queries at least that demanding.
    let use_seed_bound = query.support >= SEED_BOUND_SUPPORT;

    // Sequential pre-scan of every vertex's cheap verdict (see
    // [`scan_candidates`]): leaves pop in bound order, which is *random*
    // order over the flat aggregate tables — at benchmark scale the four
    // dependent cache misses per vertex cost several times the bound
    // arithmetic itself. One streaming pass computes the same verdicts at
    // memory bandwidth; the pop loop then reads nine bytes per vertex.
    let scan = scan_candidates(index, query, &query_signature, toggles, use_seed_bound);

    let mut heap = BinaryHeap::new();
    heap.push(Entry::Node {
        key: f64::INFINITY,
        id: index.root(),
    });
    let mut next_rank: u32 = 0;

    with_thread_workspace(|ws| {
        while let Some(entry) = heap.pop() {
            stats.heap_pops += 1;
            // Termination must be strict (see the module docs): every open
            // bound below sigma_L is provably outside the answer, a tie is
            // not.
            if toggles.score && entry.key() < refinement.collector.sigma_l() {
                stats.early_termination_pops += 1;
                stats.early_terminated_entries += heap.len();
                break;
            }
            match entry {
                Entry::Node { id, .. } => match index.node(id) {
                    NodeRef::Leaf { vertices } => {
                        for &v in vertices {
                            let rank = next_rank;
                            next_rank += 1;
                            let vi = v.index();
                            let tag = scan.tags[vi];
                            if tag == TAG_KEYWORD_PRUNED {
                                stats.candidate_keyword_pruned += 1;
                                continue;
                            }
                            if tag == TAG_SUPPORT_PRUNED {
                                stats.candidate_support_pruned += 1;
                                continue;
                            }
                            if tag == TAG_KEY_TIGHTENED {
                                stats.bound_tightenings += 1;
                            }
                            let key = scan.keys[vi];
                            if toggles.score && key < refinement.collector.sigma_l() {
                                stats.candidate_score_pruned += 1;
                                continue;
                            }
                            // Warm-up: while fewer than L answers are
                            // confirmed, sigma_L is -inf and nothing prunes,
                            // so deferring just floods the heap (node bounds
                            // dominate candidate keys and the whole tree
                            // would drain first). Refining survivors
                            // immediately raises sigma_L after the first
                            // leaf; refining extra candidates never changes
                            // the answer (the collector is insertion-order
                            // invariant), it only spends a few extra exact
                            // verifications — all of which the eager path
                            // performs too.
                            if toggles.score && !refinement.collector.is_full() {
                                refinement.refine(ws, rank, v, &mut stats);
                            } else {
                                heap.push(Entry::Candidate {
                                    key,
                                    rank,
                                    center: v,
                                });
                            }
                        }
                    }
                    NodeRef::Internal { children } => {
                        for &child in children {
                            let child = child as usize;
                            let aggregate = index.aggregate(child, query.radius);
                            if toggles.keyword
                                && pruning::can_prune_by_keyword_signature(
                                    aggregate.keyword_signature,
                                    &query_signature,
                                )
                            {
                                stats.index_keyword_pruned += 1;
                                continue;
                            }
                            if toggles.support
                                && pruning::can_prune_by_support(
                                    aggregate.support_upper_bound,
                                    query.support,
                                )
                            {
                                stats.index_support_pruned += 1;
                                continue;
                            }
                            let bound = index.node_score_bound(child, query.radius, query.theta);
                            if toggles.score && bound < refinement.collector.sigma_l() {
                                stats.index_score_pruned += 1;
                                continue;
                            }
                            heap.push(Entry::Node {
                                key: bound,
                                id: child,
                            });
                        }
                    }
                },
                Entry::Candidate { rank, center, .. } => {
                    refinement.refine(ws, rank, center, &mut stats);
                }
            }
        }
    });

    (refinement.collector.into_sorted(), stats)
}

/// Pruned by the keyword signature — no region vertex carries any query
/// keyword.
const TAG_KEYWORD_PRUNED: u8 = 0;
/// Pruned by the support upper bound.
const TAG_SUPPORT_PRUNED: u8 = 1;
/// Survives the static filters; the key is the region bound.
const TAG_KEY: u8 = 2;
/// Survives the static filters; the offline seed bound was strictly tighter
/// than the region bound (counted as a `bound_tightenings` when consumed).
const TAG_KEY_TIGHTENED: u8 = 3;

/// Per-vertex verdict of the candidate filters, precomputed in one pass.
struct CandidateScan {
    tags: Vec<u8>,
    keys: Vec<f64>,
}

/// Applies the candidate-level keyword/support filters and bound arithmetic
/// to **every** vertex in one sequential sweep over the flat aggregate and
/// seed-bound tables.
///
/// The verdicts themselves depend only on the query (never on σ_L, which is
/// checked per pop), so hoisting them out of the traversal changes no
/// behaviour: the pop loop charges each [`PruningStats`] counter at the
/// moment the vertex's leaf pops, exactly as the per-pop formulation did.
/// What changes is the memory access pattern — leaf pops are bound-ordered,
/// i.e. effectively random over tables that dwarf the cache, and the four
/// dependent lookups per vertex (signature, support, region score, seed
/// score) each miss. The streaming pass pays sequential bandwidth instead,
/// a ~4x win on the candidate-scan share of the 50k benchmark. The wasted
/// work when early termination strands unvisited leaves is bounded by the
/// same sweep cost (about a millisecond at 50k vertices).
fn scan_candidates(
    index: &CommunityIndex,
    query: &TopLQuery,
    query_signature: &icde_graph::BitVector,
    toggles: PruningToggles,
    use_seed_bound: bool,
) -> CandidateScan {
    let n = index.precomputed.num_vertices();
    let mut tags = vec![TAG_KEY; n];
    let mut keys = vec![0.0f64; n];
    for (vi, (tag, key)) in tags.iter_mut().zip(&mut keys).enumerate() {
        let v = VertexId::from_index(vi);
        let aggregate = index.precomputed.aggregate(v, query.radius);
        if toggles.keyword
            && pruning::can_prune_by_keyword_signature(aggregate.keyword_signature, query_signature)
        {
            *tag = TAG_KEYWORD_PRUNED;
            continue;
        }
        if toggles.support
            && pruning::can_prune_by_support(aggregate.support_upper_bound, query.support)
        {
            *tag = TAG_SUPPORT_PRUNED;
            continue;
        }
        let region = index.precomputed.score_bound(v, query.radius, query.theta);
        *key = if use_seed_bound {
            let seed = index
                .precomputed
                .seed_score_bound(v, query.radius, query.theta);
            if seed < region {
                *tag = TAG_KEY_TIGHTENED;
                seed
            } else {
                region
            }
        } else {
            region
        };
    }
    CandidateScan { tags, keys }
}

/// The exact-refinement step and the state it feeds: the running top-`L`,
/// the answer cache and a reused member buffer.
struct Refinement<'a> {
    graph: &'a SocialNetwork,
    query: &'a TopLQuery,
    evaluator: InfluenceEvaluator<'a>,
    collector: RankedCollector,
    cache: AnswerCache,
    /// Members of the community extracted last, ascending.
    members: Vec<VertexId>,
}

impl Refinement<'_> {
    /// Exactly refines one candidate centre: extract its maximal seed
    /// community, look the member list up in the answer cache (one exact
    /// influence expansion per *distinct* community), and offer the result
    /// to the collector under the candidate's canonical rank.
    fn refine(
        &mut self,
        ws: &mut TraversalWorkspace,
        rank: u32,
        center: VertexId,
        stats: &mut PruningStats,
    ) {
        let query = self.query;
        let members = &mut self.members;
        if !extract_seed_members(
            ws,
            self.graph,
            center,
            query.support,
            query.radius,
            Some(&query.keywords),
            members,
        ) {
            stats.candidates_without_community += 1;
            return;
        }
        stats.candidates_refined += 1;
        let fingerprint = vertex_set_fingerprint(members);
        let evaluator = &self.evaluator;
        let (score, influenced_size) = self.cache.get_or_verify(fingerprint, members, || {
            stats.exact_verifications += 1;
            evaluator.score_and_size(ws, members, query.theta)
        });
        self.collector
            .insert(rank, fingerprint, center, members, score, influenced_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn community(score: f64, ids: &[u32]) -> SeedCommunity {
        SeedCommunity {
            center: VertexId(ids[0]),
            vertices: ids.iter().map(|i| VertexId(*i)).collect(),
            influential_score: score,
            influenced_size: ids.len(),
        }
    }

    fn insert(c: &mut RankedCollector, rank: u32, sc: SeedCommunity) {
        let members = sc.vertices.as_slice();
        let fp = vertex_set_fingerprint(members);
        c.insert(
            rank,
            fp,
            sc.center,
            members,
            sc.influential_score,
            sc.influenced_size,
        );
    }

    #[test]
    fn fingerprint_depends_only_on_the_set() {
        let a: VertexSubset = [3u32, 1, 2].iter().map(|i| VertexId(*i)).collect();
        let b: VertexSubset = [1u32, 2, 3].iter().map(|i| VertexId(*i)).collect();
        let c: VertexSubset = [1u32, 2, 4].iter().map(|i| VertexId(*i)).collect();
        assert_eq!(
            vertex_set_fingerprint(a.as_slice()),
            vertex_set_fingerprint(b.as_slice())
        );
        assert_ne!(
            vertex_set_fingerprint(a.as_slice()),
            vertex_set_fingerprint(c.as_slice())
        );
    }

    #[test]
    fn answer_cache_keeps_colliding_sets_apart() {
        // two distinct sets under one forged fingerprint: both are stored
        // and found, and a repeat of either is a hit, so the number of exact
        // verifications equals the number of distinct sets
        let a = [VertexId(1), VertexId(2), VertexId(3)];
        let b = [VertexId(4), VertexId(5)];
        let c = [VertexId(1), VertexId(2)];
        let forged = 0xdead_beef;
        let mut cache = AnswerCache::default();
        let mut stats = PruningStats::new();
        let mut lookup = |members: &[VertexId], fingerprint: u64| {
            cache.get_or_verify(fingerprint, members, || {
                stats.exact_verifications += 1;
                (members.len() as f64 + 0.5, members.len() * 10)
            })
        };
        for (members, fingerprint) in [
            (&a[..], forged),
            (&b[..], forged),
            (&a[..], forged),
            (&c[..], vertex_set_fingerprint(&c)),
            (&b[..], forged),
            (&c[..], vertex_set_fingerprint(&c)),
        ] {
            let (score, size) = lookup(members, fingerprint);
            assert_eq!(score, members.len() as f64 + 0.5, "{members:?}");
            assert_eq!(size, members.len() * 10, "{members:?}");
        }
        assert_eq!(stats.exact_verifications, 3);
    }

    #[test]
    fn collector_orders_ties_by_rank_not_arrival() {
        // two distinct equal-scoring sets arriving out of rank order must
        // come back in rank order — the eager path's arrival order
        let mut c = RankedCollector::new(3);
        insert(&mut c, 7, community(2.0, &[1, 2, 3]));
        insert(&mut c, 2, community(2.0, &[4, 5, 6]));
        insert(&mut c, 5, community(3.0, &[7, 8, 9]));
        let out = c.into_sorted();
        assert_eq!(out[0].vertices.as_slice()[0], VertexId(7));
        assert_eq!(out[1].vertices.as_slice()[0], VertexId(4)); // rank 2
        assert_eq!(out[2].vertices.as_slice()[0], VertexId(1)); // rank 7
    }

    #[test]
    fn collector_dedup_keeps_the_smallest_rank() {
        let mut c = RankedCollector::new(2);
        insert(&mut c, 9, community(2.0, &[1, 2, 3]));
        insert(&mut c, 4, community(2.0, &[1, 2, 3])); // same set, earlier rank
        insert(&mut c, 6, community(2.0, &[4, 5, 6]));
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        // the duplicate kept rank 4, so it now precedes the rank-6 entry
        assert_eq!(out[0].vertices.as_slice()[0], VertexId(1));
        assert_eq!(out[1].vertices.as_slice()[0], VertexId(4));
        // and its centre is the rank-4 copy's centre
        assert_eq!(out[0].center, VertexId(1));
    }

    #[test]
    fn collector_eviction_respects_rank_ties_at_the_boundary() {
        let mut c = RankedCollector::new(2);
        insert(&mut c, 3, community(1.0, &[1]));
        insert(&mut c, 4, community(1.0, &[2]));
        // equal score, smaller rank: pushes the rank-4 entry out
        insert(&mut c, 1, community(1.0, &[3]));
        let out = c.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].vertices.as_slice()[0], VertexId(3));
        assert_eq!(out[1].vertices.as_slice()[0], VertexId(1));
        // equal score, larger rank than the current floor: dropped
        let mut c = RankedCollector::new(1);
        insert(&mut c, 1, community(1.0, &[1]));
        insert(&mut c, 2, community(1.0, &[2]));
        assert_eq!(c.into_sorted()[0].vertices.as_slice()[0], VertexId(1));
    }

    #[test]
    fn heap_entry_order_matches_the_eager_heap() {
        let mut heap = BinaryHeap::new();
        heap.push(Entry::Node { key: 1.0, id: 4 });
        heap.push(Entry::Node { key: 1.0, id: 9 });
        heap.push(Entry::Candidate {
            key: 1.0,
            rank: 0,
            center: VertexId(0),
        });
        heap.push(Entry::Candidate {
            key: 1.0,
            rank: 3,
            center: VertexId(1),
        });
        heap.push(Entry::Node { key: 2.0, id: 1 });
        // key desc; ties: nodes (larger id first) before candidates
        // (smaller rank first)
        let popped: Vec<String> = std::iter::from_fn(|| heap.pop())
            .map(|e| match e {
                Entry::Node { id, .. } => format!("n{id}"),
                Entry::Candidate { rank, .. } => format!("c{rank}"),
            })
            .collect();
        assert_eq!(popped, ["n1", "n9", "n4", "c0", "c3"]);
    }
}
