//! Vertex-subset views over a [`SocialNetwork`].
//!
//! Seed communities, r-hop subgraphs `hop(v, r)` and influenced communities
//! are all *vertex-induced subgraphs* of the data graph. Materialising each
//! of them as a standalone graph would copy adjacency lists constantly, so
//! the workspace instead works with [`VertexSubset`]: a sorted vertex list
//! with a binary-search membership test, borrowed against the parent graph
//! when edges need to be enumerated.

use crate::graph::SocialNetwork;
use crate::types::{EdgeId, VertexId};
use serde::Serialize;
use std::collections::HashSet;

/// An induced-subgraph vertex set: distinct vertices in ascending id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VertexSubset {
    /// Vertices in ascending id order, no duplicates.
    vertices: Vec<VertexId>,
}

/// Serialises as the sorted vertex array.
impl Serialize for VertexSubset {
    fn to_value(&self) -> serde::Value {
        self.vertices.to_value()
    }
}

impl VertexSubset {
    /// Creates an empty subset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices in the subset.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` if the subset is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Membership test: a binary search over the sorted vertices.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.binary_search(&v).is_ok()
    }

    /// Adds a vertex; returns `true` if it was newly inserted.
    pub fn insert(&mut self, v: VertexId) -> bool {
        match self.vertices.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.vertices.insert(pos, v);
                true
            }
        }
    }

    /// Removes a vertex; returns `true` if it was present.
    pub fn remove(&mut self, v: VertexId) -> bool {
        match self.vertices.binary_search(&v) {
            Ok(pos) => {
                self.vertices.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices.iter().copied()
    }

    /// Returns the members as a sorted slice.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset_of(&self, other: &VertexSubset) -> bool {
        self.vertices.iter().all(|v| other.contains(*v))
    }

    /// Number of vertices present in both subsets.
    pub fn intersection_size(&self, other: &VertexSubset) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small
            .vertices
            .iter()
            .filter(|v| large.contains(**v))
            .count()
    }

    /// Iterates over the edges of the subgraph induced by this subset in the
    /// parent graph `g`, yielding each undirected edge once (`u < v`).
    pub fn induced_edges<'a>(
        &'a self,
        g: &'a SocialNetwork,
    ) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + 'a {
        self.vertices.iter().flat_map(move |&u| {
            g.neighbors(u)
                .iter()
                .filter(move |&(n, _)| u < n && self.contains(n))
                .map(move |(n, e)| (e, u, n))
        })
    }

    /// Number of edges in the induced subgraph.
    pub fn induced_edge_count(&self, g: &SocialNetwork) -> usize {
        self.induced_edges(g).count()
    }

    /// Degree of `v` restricted to the induced subgraph.
    pub fn induced_degree(&self, g: &SocialNetwork, v: VertexId) -> usize {
        g.neighbors(v)
            .iter()
            .filter(|&(n, _)| self.contains(n))
            .count()
    }

    /// Neighbours of `v` that fall inside the subset.
    pub fn induced_neighbors<'a>(
        &'a self,
        g: &'a SocialNetwork,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, EdgeId)> + 'a {
        g.neighbors(v)
            .iter()
            .filter(move |&(n, _)| self.contains(n))
    }

    /// Number of common neighbours of `u` and `v` *inside* the subset (the
    /// edge support within the induced subgraph). One merge over the two CSR
    /// slices, no intermediate allocation.
    pub fn induced_common_neighbors(&self, g: &SocialNetwork, u: VertexId, v: VertexId) -> usize {
        let mut count = 0usize;
        g.for_each_common_neighbor(u, v, |w, _, _| {
            if self.contains(w) {
                count += 1;
            }
        });
        count
    }

    /// Returns `true` if the induced subgraph is connected (an empty subset
    /// counts as connected).
    pub fn is_connected(&self, g: &SocialNetwork) -> bool {
        if self.vertices.is_empty() {
            return true;
        }
        let start = self.vertices[0];
        let mut seen: HashSet<VertexId> = HashSet::with_capacity(self.len());
        seen.insert(start);
        let mut stack = vec![start];
        while let Some(u) = stack.pop() {
            for (n, _) in g.neighbors(u) {
                if self.contains(n) && seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == self.len()
    }
}

/// Collects vertices into a subset (duplicates ignored, order normalised).
impl FromIterator<VertexId> for VertexSubset {
    fn from_iter<T: IntoIterator<Item = VertexId>>(iter: T) -> Self {
        let mut vertices: Vec<VertexId> = iter.into_iter().collect();
        vertices.sort_unstable();
        vertices.dedup();
        VertexSubset { vertices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 5-vertex graph: a triangle {0,1,2} plus a path 2-3-4.
    fn sample() -> SocialNetwork {
        let mut b = crate::builder::GraphBuilder::with_vertices(5);
        b.add_symmetric_edge(VertexId(0), VertexId(1), 0.5);
        b.add_symmetric_edge(VertexId(1), VertexId(2), 0.5);
        b.add_symmetric_edge(VertexId(0), VertexId(2), 0.5);
        b.add_symmetric_edge(VertexId(2), VertexId(3), 0.5);
        b.add_symmetric_edge(VertexId(3), VertexId(4), 0.5);
        b.build().unwrap()
    }

    #[test]
    fn from_iter_dedups_and_sorts() {
        let s = VertexSubset::from_iter([VertexId(3), VertexId(1), VertexId(3)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.as_slice(), &[VertexId(1), VertexId(3)]);
        assert!(s.contains(VertexId(1)));
        assert!(!s.contains(VertexId(2)));
    }

    #[test]
    fn insert_and_remove() {
        let mut s = VertexSubset::new();
        assert!(s.insert(VertexId(2)));
        assert!(!s.insert(VertexId(2)));
        assert!(s.insert(VertexId(1)));
        assert_eq!(s.as_slice(), &[VertexId(1), VertexId(2)]);
        assert!(s.remove(VertexId(1)));
        assert!(!s.remove(VertexId(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn induced_edges_of_triangle() {
        let g = sample();
        let s = VertexSubset::from_iter([VertexId(0), VertexId(1), VertexId(2)]);
        assert_eq!(s.induced_edge_count(&g), 3);
        assert_eq!(s.induced_degree(&g, VertexId(0)), 2);
        assert_eq!(s.induced_common_neighbors(&g, VertexId(0), VertexId(1)), 1);
        // every induced edge is reported once, canonical orientation
        for (_, u, v) in s.induced_edges(&g) {
            assert!(u < v);
            assert!(s.contains(u) && s.contains(v));
        }
    }

    #[test]
    fn induced_edges_exclude_outside_vertices() {
        let g = sample();
        let s = VertexSubset::from_iter([VertexId(2), VertexId(4)]);
        // 2 and 4 are not adjacent (only via 3, which is excluded)
        assert_eq!(s.induced_edge_count(&g), 0);
        assert_eq!(s.induced_degree(&g, VertexId(2)), 0);
    }

    #[test]
    fn connectivity_checks() {
        let g = sample();
        let connected =
            VertexSubset::from_iter([VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        assert!(connected.is_connected(&g));
        let disconnected = VertexSubset::from_iter([VertexId(0), VertexId(4)]);
        assert!(!disconnected.is_connected(&g));
        assert!(VertexSubset::new().is_connected(&g));
        let single = VertexSubset::from_iter([VertexId(3)]);
        assert!(single.is_connected(&g));
    }

    #[test]
    fn subset_and_intersection() {
        let a = VertexSubset::from_iter([VertexId(1), VertexId(2)]);
        let b = VertexSubset::from_iter([VertexId(1), VertexId(2), VertexId(3)]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(b.intersection_size(&a), 2);
    }

    #[test]
    fn equality_is_by_vertex_set() {
        let a = VertexSubset::from_iter([VertexId(2), VertexId(1)]);
        let b = VertexSubset::from_iter([VertexId(1), VertexId(2)]);
        assert_eq!(a, b);
    }
}
