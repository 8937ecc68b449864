//! The Table III parameter grid.
//!
//! | Parameter | Values (default in bold) |
//! |-----------|--------------------------|
//! | influence threshold θ | 0.1, **0.2**, 0.3 |
//! | query keyword set size \|Q\| | 2, 3, **5**, 8, 10 |
//! | truss support k | 3, **4**, 5 |
//! | radius r | 1, **2**, 3 |
//! | result size L | 2, 3, **5**, 8, 10 |
//! | keywords per vertex \|v.W\| | 1, 2, **3**, 4, 5 |
//! | keyword domain size \|Σ\| | 10, 20, **50**, 80 |
//! | graph size \|V(G)\| | 10K … 1M (paper default **250K**) |
//! | DTopL-ICDE multiplier n | 2, **3**, 5, 8, 10 |
//!
//! The harness keeps the same sweep values; only the *default graph size* is
//! scaled down (configurable via `--scale`) because the paper's Python
//! implementation ran for hours at 250K vertices and the point of the
//! reproduction is the relative shape, not the absolute seconds.

use serde::Serialize;

/// Default number of vertices used by the experiment harness (the paper's
/// default is 250K; see the module docs for why this is smaller by default).
pub const DEFAULT_SCALE: usize = 5_000;

/// Sweep values for the influence threshold θ.
pub const THETA_VALUES: [f64; 3] = [0.1, 0.2, 0.3];
/// Sweep values for the query keyword set size |Q|.
pub const QUERY_KEYWORDS_VALUES: [usize; 5] = [2, 3, 5, 8, 10];
/// Sweep values for the truss support k.
pub const SUPPORT_VALUES: [u32; 3] = [3, 4, 5];
/// Sweep values for the radius r.
pub const RADIUS_VALUES: [u32; 3] = [1, 2, 3];
/// Sweep values for the result size L.
pub const RESULT_SIZE_VALUES: [usize; 5] = [2, 3, 5, 8, 10];
/// Sweep values for the number of keywords per vertex |v.W|.
pub const KEYWORDS_PER_VERTEX_VALUES: [usize; 5] = [1, 2, 3, 4, 5];
/// Sweep values for the keyword domain size |Σ|.
pub const KEYWORD_DOMAIN_VALUES: [u32; 4] = [10, 20, 50, 80];
/// Sweep values for the graph size |V(G)| (the full paper sweep).
pub const GRAPH_SIZE_VALUES: [usize; 7] =
    [10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000];
/// Sweep values for the DTopL-ICDE candidate multiplier n.
pub const MULTIPLIER_VALUES: [usize; 5] = [2, 3, 5, 8, 10];

/// One concrete parameter assignment (a row of the experiment grid).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ExperimentParams {
    /// Influence threshold θ.
    pub theta: f64,
    /// Query keyword set size |Q|.
    pub query_keywords: usize,
    /// Truss support parameter k.
    pub support: u32,
    /// Seed-community radius r.
    pub radius: u32,
    /// Result size L.
    pub result_size: usize,
    /// Keywords per vertex |v.W|.
    pub keywords_per_vertex: usize,
    /// Keyword domain size |Σ|.
    pub keyword_domain: u32,
    /// Graph size |V(G)|.
    pub graph_size: usize,
    /// DTopL-ICDE candidate multiplier n.
    pub multiplier: usize,
    /// RNG seed shared by graph generation and query sampling.
    pub seed: u64,
}

impl Default for ExperimentParams {
    /// Table III defaults at the harness's default scale.
    fn default() -> Self {
        ExperimentParams {
            theta: 0.2,
            query_keywords: 5,
            support: 4,
            radius: 2,
            result_size: 5,
            keywords_per_vertex: 3,
            keyword_domain: 50,
            graph_size: DEFAULT_SCALE,
            multiplier: 3,
            seed: 20240614,
        }
    }
}

impl ExperimentParams {
    /// Defaults with an explicit graph size.
    pub fn at_scale(graph_size: usize) -> Self {
        ExperimentParams {
            graph_size,
            ..Default::default()
        }
    }

    /// Returns a copy with a different θ.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Returns a copy with a different |Q|.
    pub fn with_query_keywords(mut self, q: usize) -> Self {
        self.query_keywords = q;
        self
    }

    /// Returns a copy with a different k.
    pub fn with_support(mut self, k: u32) -> Self {
        self.support = k;
        self
    }

    /// Returns a copy with a different radius r.
    pub fn with_radius(mut self, r: u32) -> Self {
        self.radius = r;
        self
    }

    /// Returns a copy with a different L.
    pub fn with_result_size(mut self, l: usize) -> Self {
        self.result_size = l;
        self
    }

    /// Returns a copy with a different |v.W|.
    pub fn with_keywords_per_vertex(mut self, w: usize) -> Self {
        self.keywords_per_vertex = w;
        self
    }

    /// Returns a copy with a different |Σ|.
    pub fn with_keyword_domain(mut self, d: u32) -> Self {
        self.keyword_domain = d;
        self
    }

    /// Returns a copy with a different graph size.
    pub fn with_graph_size(mut self, n: usize) -> Self {
        self.graph_size = n;
        self
    }

    /// Returns a copy with a different DTopL multiplier n.
    pub fn with_multiplier(mut self, n: usize) -> Self {
        self.multiplier = n;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let p = ExperimentParams::default();
        assert_eq!(p.theta, 0.2);
        assert_eq!(p.query_keywords, 5);
        assert_eq!(p.support, 4);
        assert_eq!(p.radius, 2);
        assert_eq!(p.result_size, 5);
        assert_eq!(p.keywords_per_vertex, 3);
        assert_eq!(p.keyword_domain, 50);
        assert_eq!(p.multiplier, 3);
    }

    #[test]
    fn sweep_values_match_table_iii() {
        assert_eq!(THETA_VALUES.len(), 3);
        assert_eq!(QUERY_KEYWORDS_VALUES, [2, 3, 5, 8, 10]);
        assert_eq!(SUPPORT_VALUES, [3, 4, 5]);
        assert_eq!(RADIUS_VALUES, [1, 2, 3]);
        assert_eq!(RESULT_SIZE_VALUES, [2, 3, 5, 8, 10]);
        assert_eq!(KEYWORDS_PER_VERTEX_VALUES, [1, 2, 3, 4, 5]);
        assert_eq!(KEYWORD_DOMAIN_VALUES, [10, 20, 50, 80]);
        assert_eq!(GRAPH_SIZE_VALUES[0], 10_000);
        assert_eq!(*GRAPH_SIZE_VALUES.last().unwrap(), 1_000_000);
        assert_eq!(MULTIPLIER_VALUES, [2, 3, 5, 8, 10]);
    }

    #[test]
    fn builder_methods_override_single_fields() {
        let p = ExperimentParams::default()
            .with_theta(0.3)
            .with_support(5)
            .with_radius(1)
            .with_result_size(8)
            .with_query_keywords(2)
            .with_keywords_per_vertex(4)
            .with_keyword_domain(10)
            .with_graph_size(1234)
            .with_multiplier(5)
            .with_seed(7);
        assert_eq!(p.theta, 0.3);
        assert_eq!(p.support, 5);
        assert_eq!(p.radius, 1);
        assert_eq!(p.result_size, 8);
        assert_eq!(p.query_keywords, 2);
        assert_eq!(p.keywords_per_vertex, 4);
        assert_eq!(p.keyword_domain, 10);
        assert_eq!(p.graph_size, 1234);
        assert_eq!(p.multiplier, 5);
        assert_eq!(p.seed, 7);
    }
}
