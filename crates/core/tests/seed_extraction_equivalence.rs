//! The seed-community extractor's contract: the maximal seed community of
//! Definition 2, identical to the from-scratch fixpoint.
//!
//! The reference below is the extraction loop as first written: every round
//! builds the maximal k-truss of the current candidate set from scratch,
//! keeps the centre's component and trims it to the radius, until nothing
//! changes. The extractor builds one local view per ball and re-peels it
//! incrementally; both must return the same vertex set for every centre,
//! `k ∈ 2..=5`, `r ∈ 1..=3` and keyword set, including the unconstrained
//! `X_all` and a keyword set no vertex carries.

use icde_core::seed::{
    extract_seed_community_with, extract_unconstrained_seed_community_with, is_valid_seed_community,
};
use icde_graph::generators::{DatasetKind, DatasetSpec};
use icde_graph::traversal::{hop_distances_within_subset, hop_subgraph};
use icde_graph::workspace::TraversalWorkspace;
use icde_graph::{GraphBuilder, KeywordSet, SocialNetwork, VertexId, VertexSubset};
use icde_truss::ktruss::maximal_ktruss;
use proptest::prelude::*;

/// The from-scratch-rounds fixpoint of Definition 2.
fn reference_extract(
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: Option<&KeywordSet>,
) -> Option<VertexSubset> {
    if !g.contains_vertex(center) {
        return None;
    }
    if let Some(q) = query_keywords {
        if !g.keyword_set(center).intersects(q) {
            return None;
        }
    }
    let ball = hop_subgraph(g, center, radius);
    let mut candidate = match query_keywords {
        Some(q) => VertexSubset::from_iter(ball.iter().filter(|v| g.keyword_set(*v).intersects(q))),
        None => ball,
    };
    loop {
        if candidate.len() <= 1 {
            return None;
        }
        let component = maximal_ktruss(g, &candidate, support).component_containing(center)?;
        let distances = hop_distances_within_subset(g, &component, center);
        let within: VertexSubset = distances
            .distances
            .iter()
            .filter(|(_, d)| *d <= radius)
            .map(|(v, _)| *v)
            .collect();
        if within.len() == component.len() && within == candidate {
            return Some(within);
        }
        if within.len() <= 1 {
            return None;
        }
        candidate = within;
    }
}

/// Extracts through the public entry points (`None` = `X_all`).
fn extract(
    ws: &mut TraversalWorkspace,
    g: &SocialNetwork,
    center: VertexId,
    support: u32,
    radius: u32,
    query_keywords: Option<&KeywordSet>,
) -> Option<VertexSubset> {
    match query_keywords {
        Some(q) => extract_seed_community_with(ws, g, center, support, radius, q),
        None => extract_unconstrained_seed_community_with(ws, g, center, support, radius),
    }
}

/// Compares the extractor with the reference on every centre and parameter
/// combination; returns how many communities were found.
fn assert_matches_reference(g: &SocialNetwork, keyword_domain: u32) -> usize {
    let every_keyword = KeywordSet::from_ids(0..keyword_domain);
    let keyword_sets = [
        None,
        Some(KeywordSet::from_ids([0])),
        Some(KeywordSet::from_ids([1, keyword_domain - 1])),
        Some(KeywordSet::from_ids([keyword_domain + 7])), // matches nothing
    ];
    let mut ws = TraversalWorkspace::new();
    let mut found = 0;
    for center in g.vertices() {
        for support in 2..=5 {
            for radius in 1..=3 {
                for q in &keyword_sets {
                    let got = extract(&mut ws, g, center, support, radius, q.as_ref());
                    let want = reference_extract(g, center, support, radius, q.as_ref());
                    assert_eq!(
                        got, want,
                        "centre {center} k {support} r {radius} keywords {q:?}"
                    );
                    if let Some(community) = got {
                        found += 1;
                        // every generated vertex carries a keyword, so X_all
                        // validates against the whole domain
                        let q = q.as_ref().unwrap_or(&every_keyword);
                        assert!(
                            is_valid_seed_community(g, &community, center, support, radius, q),
                            "centre {center} k {support} r {radius}: invalid {:?}",
                            community.as_slice()
                        );
                    }
                }
            }
        }
    }
    found
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn extractor_matches_the_from_scratch_fixpoint(
        n in 6usize..48,
        seed in any::<u64>(),
        keyword_domain in 2u32..6,
        kind in prop_oneof![
            Just(DatasetKind::Uniform),
            Just(DatasetKind::DblpLike),
            Just(DatasetKind::AmazonLike),
        ],
    ) {
        let g = DatasetSpec::new(kind, n, seed)
            .with_keyword_domain(keyword_domain)
            .generate();
        assert_matches_reference(&g, keyword_domain);
    }
}

#[test]
fn extractor_finds_communities_on_triangle_rich_graphs() {
    // guards the property test against passing vacuously on graphs where
    // nothing qualifies
    let g = DatasetSpec::new(DatasetKind::Uniform, 40, 3)
        .with_keyword_domain(3)
        .generate();
    assert!(assert_matches_reference(&g, 3) > 100);
}

/// Triangles {0,1,2}, {1,2,3}, {0,5,6} and {3,4,7}; a bridge 4-5 in no
/// triangle; a path 0-8-7 through a vertex in no triangle. Every vertex
/// carries keyword 0.
fn trim_cascade_graph() -> SocialNetwork {
    let mut b = GraphBuilder::new();
    for _ in 0..9 {
        b.add_vertex(KeywordSet::from_ids([0]));
    }
    for (u, v) in [
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 3),
        (0, 5),
        (0, 6),
        (5, 6),
        (3, 4),
        (3, 7),
        (4, 7),
        (4, 5),
        (0, 8),
        (8, 7),
    ] {
        b.add_symmetric_edge(VertexId(u), VertexId(v), 0.5);
    }
    b.build().unwrap()
}

#[test]
fn radius_trim_forces_a_second_peel_round() {
    // Centre 0, k = 3, r = 2. The ball holds all nine vertices. The first
    // peel drops the bridge and the path, and the component {0..7} reaches
    // 7 only through 3 and 4 (distance 3), so 7 is trimmed. The second peel
    // then loses triangle {3,4,7}: edge 3-4 dies and vertex 4 — still two
    // hops away over the peeled bridge — leaves the component. A third
    // round confirms the fixpoint.
    let g = trim_cascade_graph();
    let q = KeywordSet::from_ids([0]);
    let mut ws = TraversalWorkspace::new();
    let expected = VertexSubset::from_iter([0, 1, 2, 3, 5, 6].map(VertexId));
    for query in [Some(&q), None] {
        let got = extract(&mut ws, &g, VertexId(0), 3, 2, query);
        assert_eq!(got.as_ref(), Some(&expected), "keywords {query:?}");
        assert_eq!(reference_extract(&g, VertexId(0), 3, 2, query), got);
    }
    assert!(is_valid_seed_community(
        &g,
        &expected,
        VertexId(0),
        3,
        2,
        &q
    ));
    // the 3-truss component before any trim is larger: the trim decided it
    let untrimmed = maximal_ktruss(&g, &VertexSubset::from_iter(g.vertices()), 3)
        .component_containing(VertexId(0))
        .unwrap();
    assert_eq!(untrimmed.len(), 8);
    // every centre and parameter agrees with the reference here too
    assert_matches_reference(&g, 1);
}
