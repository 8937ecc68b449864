//! Newman–Watts–Strogatz small-world generator (Section VIII-A).
//!
//! The paper's synthetic graphs are produced by: (1) arranging `|V(G)|`
//! vertices on a ring, (2) connecting each vertex to its `m` nearest ring
//! neighbours, and (3) for each resulting edge `e_{u,v}`, adding — with
//! probability `µ` — a new shortcut edge `e_{u,w}` to a uniformly random
//! vertex `w`. The paper uses `m = 6` and `µ = 0.167`.
//!
//! Edge weights are assigned separately (see [`super::weights`]).

use crate::builder::GraphBuilder;
use crate::graph::SocialNetwork;
use crate::types::VertexId;
use rand::Rng;
use serde::Serialize;

/// Parameters of the Newman–Watts–Strogatz generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SmallWorldConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Each vertex connects to its `m` nearest ring neighbours (`m/2` on each
    /// side; the paper uses `m = 6`).
    pub ring_neighbors: usize,
    /// Shortcut probability `µ` per ring edge (the paper uses 0.167).
    pub shortcut_probability: f64,
}

impl SmallWorldConfig {
    /// The paper's parameters: `m = 6`, `µ = 0.167`.
    pub fn paper_default(num_vertices: usize) -> Self {
        SmallWorldConfig {
            num_vertices,
            ring_neighbors: 6,
            shortcut_probability: 0.167,
        }
    }

    /// A locality-dominated variant for the million-vertex scaling runs:
    /// the paper's ring degree (`m = 6`) but only `µ = 0.0002` shortcuts, so
    /// an `r_max`-hop ball stays ring-sized instead of exploding through
    /// shortcut hubs. At `n = 10⁶` this still sprinkles ~600 shortcuts —
    /// enough to exercise the edges between the offline build's per-worker
    /// vertex ranges while keeping per-ball work (and thus per-worker
    /// scratch) bounded.
    pub fn locality(num_vertices: usize) -> Self {
        SmallWorldConfig {
            num_vertices,
            ring_neighbors: 6,
            shortcut_probability: 0.0002,
        }
    }
}

/// Generates a Newman–Watts–Strogatz small-world graph. All edges carry a
/// placeholder weight of 0.5 until [`super::assign_uniform_weights`] is run.
///
/// # Panics
/// Panics if `ring_neighbors` is odd or zero, if the graph is too small to
/// host the requested ring (fewer than `ring_neighbors + 1` vertices), or if
/// `shortcut_probability` is not a probability.
pub fn small_world<R: Rng>(config: &SmallWorldConfig, rng: &mut R) -> SocialNetwork {
    let n = config.num_vertices;
    let m = config.ring_neighbors;
    assert!(
        m >= 2 && m.is_multiple_of(2),
        "ring_neighbors must be a positive even number"
    );
    assert!(n > m, "need more than ring_neighbors vertices");
    assert!(
        (0.0..=1.0).contains(&config.shortcut_probability),
        "shortcut_probability must be in [0, 1], got {}",
        config.shortcut_probability
    );

    let mut b = GraphBuilder::with_vertices(n);

    // Ring lattice: connect each vertex to the next m/2 vertices around the
    // ring (covering m neighbours in total once both directions are counted).
    let half = m / 2;
    let mut ring_edges = Vec::with_capacity(n * half);
    for i in 0..n {
        for offset in 1..=half {
            let j = (i + offset) % n;
            let u = VertexId::from_index(i);
            let v = VertexId::from_index(j);
            if b.try_add_symmetric_edge(u, v, 0.5) {
                ring_edges.push((u, v));
            }
        }
    }

    // Newman–Watts shortcuts: for each ring edge, with probability µ add a
    // brand-new edge from u to a random vertex w (no rewiring, no removals).
    for &(u, _v) in &ring_edges {
        if rng.gen_bool(config.shortcut_probability) {
            // A handful of retries keeps the expected shortcut count close to
            // µ·|ring edges| even when collisions occur.
            for _ in 0..8 {
                let w = VertexId::from_index(rng.gen_range(0..n));
                if w != u && !b.contains_edge(u, w) {
                    let added = b.try_add_symmetric_edge(u, w, 0.5);
                    debug_assert!(added, "checked before insertion");
                    break;
                }
            }
        }
    }
    b.build().expect("generator buffers only admissible edges")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = small_world(&SmallWorldConfig::paper_default(500), &mut rng);
        assert_eq!(g.num_vertices(), 500);
        // ring alone contributes n*m/2 = 1500 edges; shortcuts add ~µ more
        assert!(g.num_edges() >= 1500);
        assert!(g.num_edges() <= (1500.0 * (1.0 + 0.167) * 1.1) as usize);
    }

    #[test]
    fn ring_makes_graph_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = small_world(&SmallWorldConfig::paper_default(200), &mut rng);
        assert!(is_connected(&g));
    }

    #[test]
    fn every_vertex_has_at_least_ring_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = SmallWorldConfig {
            num_vertices: 100,
            ring_neighbors: 4,
            shortcut_probability: 0.1,
        };
        let g = small_world(&cfg, &mut rng);
        for v in g.vertices() {
            assert!(g.degree(v) >= 4, "vertex {v} has degree {}", g.degree(v));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = SmallWorldConfig::paper_default(300);
        let a = small_world(&cfg, &mut StdRng::seed_from_u64(9));
        let b = small_world(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.num_edges(), b.num_edges());
        let edges_a: Vec<_> = a.edges().map(|(_, u, v)| (u, v)).collect();
        let edges_b: Vec<_> = b.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(edges_a, edges_b);
    }

    #[test]
    fn zero_shortcut_probability_gives_pure_ring() {
        let cfg = SmallWorldConfig {
            num_vertices: 50,
            ring_neighbors: 6,
            shortcut_probability: 0.0,
        };
        let g = small_world(&cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(g.num_edges(), 50 * 3);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    fn locality_config_keeps_balls_ring_sized() {
        let cfg = SmallWorldConfig::locality(20_000);
        assert_eq!(cfg.ring_neighbors, 6);
        let g = small_world(&cfg, &mut StdRng::seed_from_u64(5));
        assert_eq!(g.num_vertices(), 20_000);
        // ring contributes exactly n·m/2 edges; shortcuts add ~µ·n·m/2 ≈ 12
        let ring_edges = 20_000 * 3;
        assert!(g.num_edges() >= ring_edges);
        assert!(
            g.num_edges() <= ring_edges + 60,
            "too many shortcuts: {}",
            g.num_edges() - ring_edges
        );
        assert!(is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_ring_neighbors_panics() {
        let cfg = SmallWorldConfig {
            num_vertices: 50,
            ring_neighbors: 5,
            shortcut_probability: 0.0,
        };
        let _ = small_world(&cfg, &mut StdRng::seed_from_u64(0));
    }
}
