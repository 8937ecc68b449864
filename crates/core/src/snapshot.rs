//! Binary snapshot persistence for the [`CommunityIndex`].
//!
//! Uses the same sectioned, versioned, checksummed container as the graph
//! snapshots ([`icde_graph::snapshot`]) with payload kind
//! [`icde_graph::snapshot::KIND_INDEX`]. Because PR 4 flattened both the
//! per-vertex pre-computed data and the tree into struct-of-arrays form
//! ([`crate::aggregate::AggregateTable`]), the writer dumps each flat array
//! as one section and the loader serves every section as a zero-copy
//! [`icde_graph::snapshot::FlatVec`] view straight into the mapped (or
//! buffered) file — no parsing, no per-node allocation, no memcpy, so
//! index load is O(1) in the table sizes. Incremental maintenance still
//! works on a loaded index: the first mutation of any array copies it out
//! of the file (whole-array copy-on-write via [`FlatVec::to_mut`]).
//!
//! [`FlatVec::to_mut`]: icde_graph::snapshot::FlatVec::to_mut
//!
//! # Sections (payload kind 2)
//!
//! | id | contents                                        | elements |
//! |----|-------------------------------------------------|----------|
//! | 1  | meta (see [`Meta`])                             | u64 × 9  |
//! | 2  | pre-selected thresholds `θ_1..θ_m`              | f64 × m  |
//! | 3  | per-edge supports                               | u32      |
//! | 4  | per-vertex signature words                      | u64      |
//! | 5  | per-vertex support bounds                       | u32      |
//! | 6  | per-vertex score bounds                         | f64      |
//! | 7  | per-vertex region sizes                         | u32      |
//! | 8  | tree `item_start`                               | u32      |
//! | 9  | tree item pool (leaf vertices / child node ids) | u32      |
//! | 10 | tree leaf mask                                  | u64      |
//! | 11 | per-node signature words                        | u64      |
//! | 12 | per-node support bounds                         | u32      |
//! | 13 | per-node score bounds                           | f64      |
//! | 14 | per-node region sizes                           | u32      |
//! | 15 | per-vertex seed-community score bounds          | f64      |

use crate::aggregate::AggregateTable;
use crate::index::CommunityIndex;
use crate::precompute::{PrecomputeConfig, PrecomputedData};
use icde_graph::snapshot::{
    LoadMode, Snapshot, SnapshotError, SnapshotResult, SnapshotWriter, KIND_INDEX,
};
use std::path::Path;

const SEC_META: u32 = 1;
const SEC_THRESHOLDS: u32 = 2;
const SEC_EDGE_SUPPORTS: u32 = 3;
const SEC_V_SIGS: u32 = 4;
const SEC_V_SUPPORTS: u32 = 5;
const SEC_V_SCORES: u32 = 6;
const SEC_V_REGION: u32 = 7;
const SEC_ITEM_START: u32 = 8;
const SEC_ITEM_POOL: u32 = 9;
const SEC_LEAF_MASK: u32 = 10;
const SEC_N_SIGS: u32 = 11;
const SEC_N_SUPPORTS: u32 = 12;
const SEC_N_SCORES: u32 = 13;
const SEC_N_REGION: u32 = 14;
const SEC_SEED_BOUNDS: u32 = 15;

/// Order of the `u64` meta words in section 1.
struct Meta {
    num_vertices: u64,
    root: u64,
    num_graph_vertices: u64,
    fanout: u64,
    leaf_capacity: u64,
    r_max: u64,
    signature_bits: u64,
    num_thresholds: u64,
    parallel: u64,
}

impl Meta {
    fn to_words(&self) -> [u64; 9] {
        [
            self.num_vertices,
            self.root,
            self.num_graph_vertices,
            self.fanout,
            self.leaf_capacity,
            self.r_max,
            self.signature_bits,
            self.num_thresholds,
            self.parallel,
        ]
    }

    fn from_words(words: &[u64]) -> SnapshotResult<Meta> {
        if words.len() != 9 {
            return Err(SnapshotError::Malformed(
                "index meta section must hold 9 words".to_string(),
            ));
        }
        Ok(Meta {
            num_vertices: words[0],
            root: words[1],
            num_graph_vertices: words[2],
            fanout: words[3],
            leaf_capacity: words[4],
            r_max: words[5],
            signature_bits: words[6],
            num_thresholds: words[7],
            parallel: words[8],
        })
    }
}

fn add_table(w: &mut SnapshotWriter, table: &AggregateTable, base: [u32; 4]) {
    w.add_u64s(base[0], table.raw_signatures());
    w.add_u32s(base[1], table.raw_supports());
    w.add_f64s(base[2], table.raw_scores());
    w.add_u32s(base[3], table.raw_region_sizes());
}

fn read_table(
    snap: &Snapshot,
    entities: usize,
    config: &PrecomputeConfig,
    base: [u32; 4],
) -> SnapshotResult<AggregateTable> {
    AggregateTable::from_raw(
        entities,
        config.r_max,
        config.signature_bits,
        config.thresholds.len(),
        snap.flat_u64s(base[0])?,
        snap.flat_u32s(base[1])?,
        snap.flat_f64s(base[2])?,
        snap.flat_u32s(base[3])?,
    )
    .map_err(SnapshotError::Malformed)
}

/// Serialises an index into a snapshot writer (exposed for tests).
pub(crate) fn index_snapshot_writer(index: &CommunityIndex) -> SnapshotWriter {
    let config = &index.precomputed.config;
    let (item_start, item_pool, leaf_mask) = index.tree_parts();
    let mut w = SnapshotWriter::new(KIND_INDEX);
    w.add_u64s(
        SEC_META,
        &Meta {
            num_vertices: index.precomputed.num_vertices() as u64,
            root: index.root() as u64,
            num_graph_vertices: index.num_graph_vertices() as u64,
            fanout: index.fanout() as u64,
            leaf_capacity: index.leaf_capacity() as u64,
            r_max: u64::from(config.r_max),
            signature_bits: config.signature_bits as u64,
            num_thresholds: config.thresholds.len() as u64,
            parallel: u64::from(config.parallel),
        }
        .to_words(),
    );
    w.add_f64s(SEC_THRESHOLDS, &config.thresholds);
    w.add_u32s(SEC_EDGE_SUPPORTS, &index.precomputed.edge_supports);
    add_table(
        &mut w,
        index.precomputed.table(),
        [SEC_V_SIGS, SEC_V_SUPPORTS, SEC_V_SCORES, SEC_V_REGION],
    );
    w.add_u32s(SEC_ITEM_START, item_start);
    w.add_u32s(SEC_ITEM_POOL, item_pool);
    w.add_u64s(SEC_LEAF_MASK, leaf_mask);
    add_table(
        &mut w,
        index.node_aggregates(),
        [SEC_N_SIGS, SEC_N_SUPPORTS, SEC_N_SCORES, SEC_N_REGION],
    );
    w.add_f64s(SEC_SEED_BOUNDS, index.precomputed.seed_bounds());
    w
}

/// Writes a binary snapshot of the index to `path` (crash-safe
/// write-then-rename).
pub fn write_index_snapshot<P: AsRef<Path>>(index: &CommunityIndex, path: P) -> SnapshotResult<()> {
    index_snapshot_writer(index).write_to(path)
}

/// Loads an index snapshot with [`LoadMode::Auto`].
pub fn read_index_snapshot<P: AsRef<Path>>(path: P) -> SnapshotResult<CommunityIndex> {
    read_index_snapshot_with(path, LoadMode::Auto)
}

/// Loads an index snapshot with an explicit load mode.
pub fn read_index_snapshot_with<P: AsRef<Path>>(
    path: P,
    mode: LoadMode,
) -> SnapshotResult<CommunityIndex> {
    let snap = Snapshot::open_with(path, mode)?;
    index_from_snapshot(&snap)
}

fn usize_from(v: u64, what: &str) -> SnapshotResult<usize> {
    usize::try_from(v).map_err(|_| SnapshotError::Malformed(format!("{what} overflows usize")))
}

/// Reconstructs a [`CommunityIndex`] from an already-opened snapshot (for
/// callers that sniffed the payload kind themselves).
pub fn index_from_snapshot(snap: &Snapshot) -> SnapshotResult<CommunityIndex> {
    snap.expect_kind(KIND_INDEX)?;
    let meta = Meta::from_words(&snap.u64s_vec(SEC_META)?)?;
    let thresholds = snap.flat_f64s(SEC_THRESHOLDS)?.as_slice().to_vec();
    if thresholds.len() != usize_from(meta.num_thresholds, "threshold count")? {
        return Err(SnapshotError::Malformed(
            "threshold section disagrees with the meta word".to_string(),
        ));
    }
    if thresholds.is_empty() || meta.r_max == 0 || meta.signature_bits == 0 {
        return Err(SnapshotError::Malformed(
            "index configuration dimensions must be positive".to_string(),
        ));
    }
    if !thresholds
        .windows(2)
        .all(|w| w[0] < w[1] && w[0].is_finite())
        || thresholds.iter().any(|t| !(0.0..1.0).contains(t))
    {
        return Err(SnapshotError::Malformed(
            "thresholds must be strictly increasing within [0, 1)".to_string(),
        ));
    }
    let config = PrecomputeConfig {
        r_max: u32::try_from(meta.r_max)
            .map_err(|_| SnapshotError::Malformed("r_max overflows u32".to_string()))?,
        thresholds,
        signature_bits: usize_from(meta.signature_bits, "signature width")?,
        parallel: meta.parallel != 0,
        // a runtime knob, not data: never persisted in the binary format
        num_threads: None,
    };

    let num_vertices = usize_from(meta.num_vertices, "vertex count")?;
    let vertex_table = read_table(
        snap,
        num_vertices,
        &config,
        [SEC_V_SIGS, SEC_V_SUPPORTS, SEC_V_SCORES, SEC_V_REGION],
    )?;
    let edge_supports = snap.flat_u32s(SEC_EDGE_SUPPORTS)?;
    let seed_bounds = snap.flat_f64s(SEC_SEED_BOUNDS)?;
    let precomputed =
        PrecomputedData::from_table(config.clone(), vertex_table, edge_supports, seed_bounds)
            .map_err(SnapshotError::Malformed)?;

    let item_start = snap.flat_u32s(SEC_ITEM_START)?;
    let item_pool = snap.flat_u32s(SEC_ITEM_POOL)?;
    let leaf_mask = snap.flat_u64s(SEC_LEAF_MASK)?;
    let nodes = item_start.len().saturating_sub(1);
    let node_table = read_table(
        snap,
        nodes,
        &config,
        [SEC_N_SIGS, SEC_N_SUPPORTS, SEC_N_SCORES, SEC_N_REGION],
    )?;

    CommunityIndex::from_flat_parts(
        precomputed,
        item_start,
        item_pool,
        leaf_mask,
        node_table,
        usize_from(meta.root, "root id")?,
        usize_from(meta.num_graph_vertices, "graph vertex count")?,
        usize_from(meta.fanout, "fanout")?,
        usize_from(meta.leaf_capacity, "leaf capacity")?,
    )
    .map_err(SnapshotError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::query::TopLQuery;
    use crate::streaming::{EdgeUpdate, StreamingMaintainer};
    use crate::topl::TopLProcessor;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::{KeywordSet, SocialNetwork};

    fn build() -> (SocialNetwork, CommunityIndex) {
        let g = DatasetSpec::new(DatasetKind::Uniform, 150, 8)
            .with_keyword_domain(10)
            .generate();
        let index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .with_fanout(4)
        .with_leaf_capacity(8)
        .build(&g);
        (g, index)
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("icde_index_snap_{}_{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_content_and_answers_on_both_paths() {
        let (g, index) = build();
        let path = temp("roundtrip.snap");
        write_index_snapshot(&index, &path).unwrap();
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2]), 3, 2, 0.2, 3);
        let expected = TopLProcessor::new(&g, &index).run(&query).unwrap();
        for mode in [LoadMode::Auto, LoadMode::Buffered] {
            let back = read_index_snapshot_with(&path, mode).unwrap();
            assert_eq!(back.content_fingerprint(), index.content_fingerprint());
            assert_eq!(back.node_count(), index.node_count());
            assert_eq!(back.height(), index.height());
            let answer = TopLProcessor::new(&g, &back).run(&query).unwrap();
            assert_eq!(answer.communities.len(), expected.communities.len());
            for (a, b) in answer.communities.iter().zip(expected.communities.iter()) {
                assert_eq!(a.vertices, b.vertices);
                assert_eq!(a.influential_score.to_bits(), b.influential_score.to_bits());
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn graph_snapshot_is_rejected_as_index() {
        let (g, _) = build();
        let path = temp("wrong_kind.snap");
        icde_graph::snapshot::write_graph_snapshot(&g, &path).unwrap();
        assert!(matches!(
            read_index_snapshot(&path),
            Err(SnapshotError::WrongKind { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_index_snapshot_is_rejected() {
        let (_, index) = build();
        let path = temp("corrupt.snap");
        write_index_snapshot(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_index_snapshot(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // truncation at several points
        let full = {
            write_index_snapshot(&index, &path).unwrap();
            std::fs::read(&path).unwrap()
        };
        for cut in [0, 7, 31, full.len() / 3, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(read_index_snapshot(&path).is_err(), "prefix of {cut} bytes");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn maintenance_keeps_working_on_a_reloaded_index() {
        // a snapshot-loaded index owns its tables, so incremental
        // maintenance must be able to patch rows in place
        let (g, index) = build();
        let path = temp("maintenance.snap");
        write_index_snapshot(&index, &path).unwrap();
        let back = read_index_snapshot(&path).unwrap();
        let (u, v) = {
            let mut found = None;
            'outer: for u in g.vertices() {
                for v in g.vertices() {
                    if u < v && !g.contains_edge(u, v) {
                        found = Some((u, v));
                        break 'outer;
                    }
                }
            }
            found.expect("graph is not complete")
        };
        let mut maintainer = StreamingMaintainer::new(g, back);
        let refreshed = maintainer.apply_batch(&[EdgeUpdate::Insert {
            u,
            v,
            p_uv: 0.55,
            p_vu: 0.55,
        }]);
        assert!(refreshed > 0);
        assert!(maintainer.graph().contains_edge(u, v));
        assert_eq!(
            maintainer.index().num_graph_vertices(),
            maintainer.graph().num_vertices()
        );
        let _ = std::fs::remove_file(path);
    }
}
