//! Graph payload of the binary snapshot format: saving a frozen
//! [`SocialNetwork`] and loading it back with the CSR arrays viewed in place.
//!
//! # Sections (payload kind [`KIND_GRAPH`])
//!
//! | id | contents                                             | elements |
//! |----|------------------------------------------------------|----------|
//! | 1  | meta: `[num_vertices, num_edges]`                    | u64 × 2  |
//! | 2  | CSR row offsets                                      | u32 × n+1|
//! | 3  | packed CSR `(neighbour, edge id)` pairs              | u32 × 4m |
//! | 4  | per-slot outgoing weights                            | f64 × 2m |
//! | 5  | canonical edge endpoints `(u, v)`, `u < v`           | u32 × 2m |
//! | 6  | forward directed weights `p_{u→v}`                   | f64 × m  |
//! | 7  | backward directed weights `p_{v→u}`                  | f64 × m  |
//! | 8  | keyword-pool offsets per vertex                      | u32 × n+1|
//! | 9  | keyword-id pool (each vertex's ids ascending)        | u32 × Σ|W||
//!
//! Loading performs an O(n + m) structural validation (offset monotonicity,
//! id ranges, array-length agreement) so that a file which passes cannot
//! drive any graph accessor out of bounds; corruption is caught earlier by
//! the file checksum.

use super::storage::FlatVec;
use super::{LoadMode, Snapshot, SnapshotError, SnapshotResult, SnapshotWriter};
use crate::graph::SocialNetwork;
use crate::keywords::KeywordSet;
use crate::types::{EdgeId, VertexId};
use std::path::Path;

/// Payload kind of a graph snapshot.
pub const KIND_GRAPH: u32 = 1;

const SEC_META: u32 = 1;
const SEC_OFFSETS: u32 = 2;
const SEC_CSR: u32 = 3;
const SEC_OUT_WEIGHTS: u32 = 4;
const SEC_EDGES: u32 = 5;
const SEC_WEIGHT_FWD: u32 = 6;
const SEC_WEIGHT_BWD: u32 = 7;
const SEC_KW_OFFSETS: u32 = 8;
const SEC_KW_POOL: u32 = 9;

/// Runtime proof that a pair of id newtypes is laid out as two consecutive
/// `u32`s (rustc does not guarantee tuple field order for `repr(Rust)`, but
/// `VertexId`/`EdgeId` are `repr(transparent)` and same-size tuple fields are
/// kept in order by every current layout algorithm — this check makes the
/// zero-copy cast *conditional on observed truth* rather than assumption).
fn pair_layout_is_transparent() -> bool {
    if std::mem::size_of::<(VertexId, EdgeId)>() != 8
        || std::mem::align_of::<(VertexId, EdgeId)>() != 4
        || std::mem::size_of::<(VertexId, VertexId)>() != 8
    {
        return false;
    }
    let sample = [
        (VertexId(0x11), EdgeId(0x22)),
        (VertexId(0x33), EdgeId(0x44)),
    ];
    // Safety: reading the sample's memory as u32s; any layout yields *some*
    // four u32s, we only compare them against the expected order.
    let words = unsafe { std::slice::from_raw_parts(sample.as_ptr() as *const u32, 4) };
    words == [0x11, 0x22, 0x33, 0x44]
}

fn pairs_to_u32s<A: Copy + Into<u32>, B: Copy + Into<u32>>(pairs: &[(A, B)]) -> Vec<u32> {
    let mut out = Vec::with_capacity(pairs.len() * 2);
    for &(a, b) in pairs {
        out.push(a.into());
        out.push(b.into());
    }
    out
}

/// Serialises a frozen graph into snapshot bytes (exposed for tests; use
/// [`write_graph_snapshot`] for files). The graph must be overlay-free —
/// [`write_graph_snapshot`] compacts a pending overlay into a fresh CSR
/// before reaching this writer.
pub(crate) fn graph_snapshot_writer(g: &SocialNetwork) -> SnapshotWriter {
    debug_assert!(
        !g.has_overlay(),
        "snapshot writer requires a compacted graph"
    );
    let parts = g.raw_parts();
    let mut w = SnapshotWriter::new(KIND_GRAPH);
    w.add_u64s(SEC_META, &[g.num_vertices() as u64, g.num_edges() as u64]);
    w.add_u32s(SEC_OFFSETS, parts.offsets);
    w.add_u32s(SEC_CSR, &pairs_to_u32s(parts.csr));
    w.add_f64s(SEC_OUT_WEIGHTS, parts.csr_out_weights);
    w.add_u32s(SEC_EDGES, &pairs_to_u32s(parts.edges));
    w.add_f64s(SEC_WEIGHT_FWD, parts.weight_forward);
    w.add_f64s(SEC_WEIGHT_BWD, parts.weight_backward);
    let mut kw_offsets = Vec::with_capacity(parts.keywords.len() + 1);
    let mut kw_pool = Vec::new();
    kw_offsets.push(0u32);
    for set in parts.keywords {
        kw_pool.extend(set.iter().map(|kw| kw.0));
        kw_offsets.push(kw_pool.len() as u32);
    }
    w.add_u32s(SEC_KW_OFFSETS, &kw_offsets);
    w.add_u32s(SEC_KW_POOL, &kw_pool);
    w
}

/// Writes a binary snapshot of the graph to `path` (crash-safe
/// write-then-rename). A pending delta overlay is folded into a fresh CSR
/// first (on a clone; `g` itself is untouched), so the written file always
/// holds a dense, overlay-free store — edge ids in the file are the
/// post-compaction ids.
pub fn write_graph_snapshot<P: AsRef<Path>>(g: &SocialNetwork, path: P) -> SnapshotResult<()> {
    if g.has_overlay() {
        let mut compacted = g.clone();
        compacted.compact();
        graph_snapshot_writer(&compacted).write_to(path)
    } else {
        graph_snapshot_writer(g).write_to(path)
    }
}

/// Loads a graph snapshot with [`LoadMode::Auto`] (mmap where available,
/// buffered read elsewhere).
pub fn read_graph_snapshot<P: AsRef<Path>>(path: P) -> SnapshotResult<SocialNetwork> {
    read_graph_snapshot_with(path, LoadMode::Auto)
}

/// Loads a graph snapshot with an explicit load mode.
pub fn read_graph_snapshot_with<P: AsRef<Path>>(
    path: P,
    mode: LoadMode,
) -> SnapshotResult<SocialNetwork> {
    let snap = Snapshot::open_with(path, mode)?;
    graph_from_snapshot(&snap)
}

fn malformed(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

/// Reconstructs a [`SocialNetwork`] from an already-opened snapshot (for
/// callers that sniffed the payload kind themselves). The five big arrays
/// stay views into the snapshot region; the (tiny, variable-length) keyword
/// sets are decoded into owned storage.
pub fn graph_from_snapshot(snap: &Snapshot) -> SnapshotResult<SocialNetwork> {
    snap.expect_kind(KIND_GRAPH)?;
    let meta = snap.u64s_vec(SEC_META)?;
    if meta.len() != 2 {
        return Err(malformed("graph meta section must hold [n, m]"));
    }
    let n = usize::try_from(meta[0]).map_err(|_| malformed("vertex count overflows usize"))?;
    let m = usize::try_from(meta[1]).map_err(|_| malformed("edge count overflows usize"))?;
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return Err(malformed("graph exceeds the u32 id space"));
    }

    let layout_ok = pair_layout_is_transparent();
    let offsets = snap.flat_u32s(SEC_OFFSETS)?;
    let csr: FlatVec<(VertexId, EdgeId)> =
        snap.flat_u32_pairs(SEC_CSR, layout_ok, |a, b| (VertexId(a), EdgeId(b)))?;
    let csr_out_weight = snap.flat_f64s(SEC_OUT_WEIGHTS)?;
    let edges: FlatVec<(VertexId, VertexId)> =
        snap.flat_u32_pairs(SEC_EDGES, layout_ok, |a, b| (VertexId(a), VertexId(b)))?;
    let weight_forward = snap.flat_f64s(SEC_WEIGHT_FWD)?;
    let weight_backward = snap.flat_f64s(SEC_WEIGHT_BWD)?;
    let kw_offsets = snap.flat_u32s(SEC_KW_OFFSETS)?;
    let kw_pool = snap.flat_u32s(SEC_KW_POOL)?;

    // --- structural validation: nothing past this point may go out of
    // bounds or violate a SocialNetwork invariant -------------------------
    if offsets.len() != n + 1 {
        return Err(malformed(format!(
            "offset section holds {} entries for {n} vertices",
            offsets.len()
        )));
    }
    if csr.len() != 2 * m {
        return Err(malformed(format!(
            "CSR section holds {} slots for {m} edges",
            csr.len()
        )));
    }
    if csr_out_weight.len() != 2 * m
        || edges.len() != m
        || weight_forward.len() != m
        || weight_backward.len() != m
    {
        return Err(malformed("edge-indexed section lengths disagree"));
    }
    if offsets[0] != 0 || offsets[n] as usize != 2 * m {
        return Err(malformed("CSR offsets do not span the slot array"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("CSR offsets are not monotone"));
    }
    for &(u, v) in edges.iter() {
        if u.index() >= n || v.index() >= n || u >= v {
            return Err(malformed(
                "edge table entry is out of range or not canonical",
            ));
        }
    }
    // Per-row walk: neighbour ids strictly ascending (edge_between and
    // patch_out_weight binary-search rows) and every slot's edge id must
    // name exactly this row's vertex and its neighbour in the edge table.
    // With all 2m slots consistent and no duplicates within a row, each
    // edge necessarily appears once in both endpoints' rows — full
    // adjacency symmetry without a separate pass.
    for vertex in 0..n {
        let row = &csr[offsets[vertex] as usize..offsets[vertex + 1] as usize];
        let mut previous: Option<VertexId> = None;
        for &(neighbor, edge) in row {
            if neighbor.index() >= n || edge.index() >= m {
                return Err(malformed("CSR slot references an out-of-range id"));
            }
            if previous.is_some_and(|p| p >= neighbor) {
                return Err(malformed(format!(
                    "CSR row of vertex {vertex} is not strictly sorted"
                )));
            }
            previous = Some(neighbor);
            let (lo, hi) = edges[edge.index()];
            let expected = if VertexId(vertex as u32) < neighbor {
                (VertexId(vertex as u32), neighbor)
            } else {
                (neighbor, VertexId(vertex as u32))
            };
            if (lo, hi) != expected {
                return Err(malformed(format!(
                    "CSR slot of vertex {vertex} disagrees with the edge table"
                )));
            }
        }
    }
    if kw_offsets.len() != n + 1
        || kw_offsets[0] != 0
        || kw_offsets[n] as usize != kw_pool.len()
        || kw_offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(malformed("keyword pool offsets are inconsistent"));
    }

    let keywords: Vec<KeywordSet> = (0..n)
        .map(|v| {
            let range = kw_offsets[v] as usize..kw_offsets[v + 1] as usize;
            // the writer emits each set in ascending order, so this is the
            // O(n) single-allocation path
            KeywordSet::from_sorted_ids(kw_pool[range].iter().copied())
        })
        .collect();

    Ok(SocialNetwork::from_snapshot_parts(
        offsets,
        csr,
        csr_out_weight,
        edges,
        weight_forward,
        weight_backward,
        keywords,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::{DatasetKind, DatasetSpec};

    fn sample_graph() -> SocialNetwork {
        DatasetSpec::new(DatasetKind::Uniform, 150, 5)
            .with_keyword_domain(12)
            .generate()
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("icde_graph_snap_{}_{name}", std::process::id()))
    }

    #[test]
    fn pair_layout_check_passes_here() {
        // every supported target lays the id pairs out transparently; should
        // this ever fail, the loader silently switches to the decode path,
        // but we want to know
        assert!(pair_layout_is_transparent());
    }

    #[test]
    fn roundtrip_is_bit_identical_on_both_paths() {
        let g = sample_graph();
        let path = temp("roundtrip.snap");
        write_graph_snapshot(&g, &path).unwrap();
        for mode in [LoadMode::Auto, LoadMode::Buffered] {
            let back = read_graph_snapshot_with(&path, mode).unwrap();
            assert_eq!(back.content_fingerprint(), g.content_fingerprint());
            assert_eq!(back.num_vertices(), g.num_vertices());
            assert_eq!(back.num_edges(), g.num_edges());
            for v in g.vertices() {
                assert_eq!(back.neighbors(v).to_vec(), g.neighbors(v).to_vec());
                assert_eq!(back.keyword_set(v), g.keyword_set(v));
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_load_is_zero_copy_and_mutation_detaches() {
        let g = sample_graph();
        let path = temp("zero_copy.snap");
        write_graph_snapshot(&g, &path).unwrap();
        let snap = Snapshot::open_with(&path, LoadMode::Mmap).unwrap();
        assert!(snap.is_mapped());
        let mut back = graph_from_snapshot(&snap).unwrap();
        assert!(back.is_snapshot_backed());
        // attribute mutation must copy-on-write, not fault on the read-only map
        let (e, u, _) = back.edges().next().unwrap();
        back.set_edge_weights(e, 0.123, 0.456).unwrap();
        assert_eq!(
            back.activation_probability(u, back.edge_endpoints(e).1)
                .unwrap(),
            0.123
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn empty_and_tiny_graphs_roundtrip() {
        for g in [SocialNetwork::new(), {
            let mut b = GraphBuilder::new();
            b.add_vertex(KeywordSet::from_ids([3, 9]));
            b.build().unwrap()
        }] {
            let path = temp(&format!("tiny_{}.snap", g.num_vertices()));
            write_graph_snapshot(&g, &path).unwrap();
            let back = read_graph_snapshot(&path).unwrap();
            assert_eq!(back.content_fingerprint(), g.content_fingerprint());
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn index_kind_snapshot_is_rejected() {
        let path = temp("wrong_kind.snap");
        SnapshotWriter::new(super::super::KIND_INDEX)
            .write_to(&path)
            .unwrap();
        assert!(matches!(
            read_graph_snapshot(&path),
            Err(SnapshotError::WrongKind { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unsorted_or_lying_csr_rows_are_rejected() {
        let g = sample_graph();
        let parts = g.raw_parts();
        let vertex = (0..g.num_vertices())
            .find(|v| parts.offsets[v + 1] - parts.offsets[*v] >= 2)
            .expect("a vertex with degree ≥ 2 exists");
        let write_with =
            |csr: &[(VertexId, EdgeId)], edges: &[(VertexId, VertexId)], name: &str| {
                let mut w = SnapshotWriter::new(KIND_GRAPH);
                w.add_u64s(SEC_META, &[g.num_vertices() as u64, g.num_edges() as u64]);
                w.add_u32s(SEC_OFFSETS, parts.offsets);
                w.add_u32s(SEC_CSR, &pairs_to_u32s(csr));
                w.add_f64s(SEC_OUT_WEIGHTS, parts.csr_out_weights);
                w.add_u32s(SEC_EDGES, &pairs_to_u32s(edges));
                w.add_f64s(SEC_WEIGHT_FWD, parts.weight_forward);
                w.add_f64s(SEC_WEIGHT_BWD, parts.weight_backward);
                let mut kw_offsets = vec![0u32; g.num_vertices() + 1];
                for (i, o) in kw_offsets.iter_mut().enumerate().skip(1) {
                    *o = kw_offsets_sum(&g, i);
                }
                let kw_pool: Vec<u32> = g
                    .vertices()
                    .flat_map(|v| g.keyword_set(v).iter().map(|k| k.0).collect::<Vec<_>>())
                    .collect();
                w.add_u32s(SEC_KW_OFFSETS, &kw_offsets);
                w.add_u32s(SEC_KW_POOL, &kw_pool);
                let path = temp(name);
                w.write_to(&path).unwrap();
                path
            };
        fn kw_offsets_sum(g: &SocialNetwork, upto: usize) -> u32 {
            (0..upto)
                .map(|v| g.keyword_set(VertexId(v as u32)).len() as u32)
                .sum()
        }

        // swapping two slots inside one row breaks the strict sort
        let mut unsorted = parts.csr.to_vec();
        let start = parts.offsets[vertex] as usize;
        unsorted.swap(start, start + 1);
        let path = write_with(&unsorted, parts.edges, "unsorted_row.snap");
        assert!(matches!(
            read_graph_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(path);

        // an in-range but wrong edge id must be caught by the edge-table
        // agreement check (it would silently corrupt directed weights)
        let mut lying = parts.csr.to_vec();
        let (n0, e0) = lying[start];
        let other_edge = (0..g.num_edges())
            .map(EdgeId::from_index)
            .find(|e| {
                *e != e0 && {
                    let (lo, hi) = g.edge_endpoints(*e);
                    (lo, hi)
                        != (
                            VertexId(vertex as u32).min(n0),
                            VertexId(vertex as u32).max(n0),
                        )
                }
            })
            .expect("another edge exists");
        lying[start] = (n0, other_edge);
        let path = write_with(&lying, parts.edges, "lying_row.snap");
        assert!(matches!(
            read_graph_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(path);

        // an edge-table entry with an out-of-range endpoint, or with its
        // endpoints swapped (a duplicate of the canonical orientation), is
        // caught by the edge-table check before any CSR row is walked
        let (lo, hi) = parts.edges[0];
        let out_of_range = (lo, VertexId(g.num_vertices() as u32));
        for (bad, name) in [
            (out_of_range, "edge_out_of_range.snap"),
            ((hi, lo), "edge_swapped.snap"),
        ] {
            let mut edges = parts.edges.to_vec();
            edges[0] = bad;
            let path = write_with(parts.csr, &edges, name);
            match read_graph_snapshot(&path) {
                Err(SnapshotError::Malformed(msg)) => {
                    assert!(msg.contains("edge table entry"), "{name}: {msg}")
                }
                other => panic!("{name}: expected a malformed edge table, got {other:?}"),
            }
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn inconsistent_sections_are_rejected() {
        // hand-build a snapshot whose meta disagrees with the arrays
        let g = sample_graph();
        let mut w = SnapshotWriter::new(KIND_GRAPH);
        w.add_u64s(SEC_META, &[999_999, 1]);
        let parts = g.raw_parts();
        w.add_u32s(SEC_OFFSETS, parts.offsets);
        w.add_u32s(SEC_CSR, &pairs_to_u32s(parts.csr));
        w.add_f64s(SEC_OUT_WEIGHTS, parts.csr_out_weights);
        w.add_u32s(SEC_EDGES, &pairs_to_u32s(parts.edges));
        w.add_f64s(SEC_WEIGHT_FWD, parts.weight_forward);
        w.add_f64s(SEC_WEIGHT_BWD, parts.weight_backward);
        w.add_u32s(SEC_KW_OFFSETS, &[0]);
        w.add_u32s(SEC_KW_POOL, &[]);
        let path = temp("inconsistent.snap");
        w.write_to(&path).unwrap();
        assert!(matches!(
            read_graph_snapshot(&path),
            Err(SnapshotError::Malformed(_))
        ));
        let _ = std::fs::remove_file(path);
    }
}
