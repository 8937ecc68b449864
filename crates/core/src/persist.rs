//! Index persistence: save the offline phase to disk and reload it later.
//!
//! The offline pre-computation (Algorithm 2) is the expensive part of the
//! pipeline — minutes for large graphs — while the online phase is
//! milliseconds to seconds. Production deployments therefore build the index
//! once, persist it next to the graph snapshot, and reload it on start-up.
//!
//! Two formats live behind this module:
//!
//! * the **binary snapshot** ([`save_index_snapshot`] /
//!   [`load_index_snapshot`], implemented in [`crate::snapshot`]) — the
//!   production path: sectioned, checksummed, loaded with one `memcpy` per
//!   flat array (the archived `BENCH_4.json` records the gap vs JSON),
//! * the **JSON envelope** ([`save_index`] / [`load_index`]) — the
//!   compatibility path: human-readable, diff-able, versioned by
//!   [`INDEX_FORMAT_VERSION`].
//!
//! [`load_index_auto`] sniffs the file's magic bytes and dispatches, so
//! callers (the CLI, services) accept either format transparently. All
//! writers are crash-safe (write-to-temp + rename).

use crate::error::{CoreError, CoreResult};
use crate::index::CommunityIndex;
use icde_graph::io::atomic_write;
use icde_graph::snapshot::{path_is_snapshot, LoadMode};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// Current JSON format version. Bump when the index layout changes.
/// Version 1 (the pointer-rich pre-PR-4 tree) is no longer readable — the
/// aggregate layout changed shape — and version 2 predates the seed-community
/// score-bound table the progressive online kernel requires; rebuild the
/// index from the graph.
pub const INDEX_FORMAT_VERSION: u32 = 3;

/// Versioned envelope around a serialised index.
#[derive(Debug, Serialize, Deserialize)]
struct IndexEnvelope {
    format_version: u32,
    index: CommunityIndex,
}

/// Serialises an index (including its pre-computed data) to a JSON string.
pub fn index_to_json(index: &CommunityIndex) -> CoreResult<String> {
    let envelope = IndexEnvelope {
        format_version: INDEX_FORMAT_VERSION,
        index: index.clone(),
    };
    serde_json::to_string(&envelope).map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Reconstructs an index from a JSON string produced by [`index_to_json`].
pub fn index_from_json(json: &str) -> CoreResult<CommunityIndex> {
    let envelope: IndexEnvelope =
        serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))?;
    if envelope.format_version != INDEX_FORMAT_VERSION {
        return Err(CoreError::Serialization(format!(
            "unsupported index format version {} (expected {}; version-1 indexes predate \
             the flattened layout — rebuild the index from the graph)",
            envelope.format_version, INDEX_FORMAT_VERSION
        )));
    }
    // the derive accepts any field combination; run the same structural
    // validation the binary snapshot loader applies so a hand-edited or
    // corrupted JSON file errors here instead of panicking on first access
    envelope
        .index
        .validate()
        .map_err(|e| CoreError::Serialization(format!("invalid index: {e}")))?;
    Ok(envelope.index)
}

/// Writes an index to a JSON file (crash-safe write-then-rename).
pub fn save_index<P: AsRef<Path>>(index: &CommunityIndex, path: P) -> CoreResult<()> {
    let json = index_to_json(index)?;
    atomic_write(path.as_ref(), json.as_bytes())
        .map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Loads an index from a JSON file written by [`save_index`].
pub fn load_index<P: AsRef<Path>>(path: P) -> CoreResult<CommunityIndex> {
    let json = fs::read_to_string(path).map_err(|e| CoreError::Serialization(e.to_string()))?;
    index_from_json(&json)
}

/// Writes an index as a **binary snapshot** (crash-safe; see
/// [`crate::snapshot`] for the format).
pub fn save_index_snapshot<P: AsRef<Path>>(index: &CommunityIndex, path: P) -> CoreResult<()> {
    crate::snapshot::write_index_snapshot(index, path)
        .map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Loads an index from a binary snapshot (mmap where available, buffered
/// fallback elsewhere).
pub fn load_index_snapshot<P: AsRef<Path>>(path: P) -> CoreResult<CommunityIndex> {
    crate::snapshot::read_index_snapshot(path).map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Loads an index from a binary snapshot with an explicit load mode.
pub fn load_index_snapshot_with<P: AsRef<Path>>(
    path: P,
    mode: LoadMode,
) -> CoreResult<CommunityIndex> {
    crate::snapshot::read_index_snapshot_with(path, mode)
        .map_err(|e| CoreError::Serialization(e.to_string()))
}

/// Loads an index from either format: files starting with the snapshot magic
/// bytes take the binary path, everything else is parsed as JSON.
pub fn load_index_auto<P: AsRef<Path>>(path: P) -> CoreResult<CommunityIndex> {
    let path = path.as_ref();
    if path_is_snapshot(path) {
        load_index_snapshot(path)
    } else {
        load_index(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::precompute::PrecomputeConfig;
    use crate::query::TopLQuery;
    use crate::topl::TopLProcessor;
    use icde_graph::generators::{DatasetKind, DatasetSpec};
    use icde_graph::KeywordSet;

    fn build() -> (icde_graph::SocialNetwork, CommunityIndex) {
        let g = DatasetSpec::new(DatasetKind::Uniform, 150, 8)
            .with_keyword_domain(10)
            .generate();
        let index = IndexBuilder::new(PrecomputeConfig {
            parallel: false,
            ..Default::default()
        })
        .build(&g);
        (g, index)
    }

    #[test]
    fn json_roundtrip_preserves_query_answers() {
        let (g, index) = build();
        let json = index_to_json(&index).unwrap();
        let reloaded = index_from_json(&json).unwrap();
        assert_eq!(reloaded.num_graph_vertices(), index.num_graph_vertices());
        assert_eq!(reloaded.node_count(), index.node_count());
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2]), 3, 2, 0.2, 3);
        let a = TopLProcessor::new(&g, &index).run(&query).unwrap();
        let b = TopLProcessor::new(&g, &reloaded).run(&query).unwrap();
        assert_eq!(a.communities.len(), b.communities.len());
        for (x, y) in a.communities.iter().zip(b.communities.iter()) {
            assert_eq!(x.vertices, y.vertices);
            assert!((x.influential_score - y.influential_score).abs() < 1e-12);
        }
    }

    #[test]
    fn file_roundtrip() {
        let (_g, index) = build();
        let path = std::env::temp_dir().join("topl_icde_index_test.json");
        save_index(&index, &path).unwrap();
        let reloaded = load_index(&path).unwrap();
        assert_eq!(reloaded.node_count(), index.node_count());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (_g, index) = build();
        let json = index_to_json(&index).unwrap();
        let tampered = json.replacen(
            &format!("\"format_version\":{INDEX_FORMAT_VERSION}"),
            "\"format_version\":999",
            1,
        );
        assert_ne!(json, tampered, "envelope carries the current version");
        assert!(matches!(
            index_from_json(&tampered),
            Err(CoreError::Serialization(_))
        ));
    }

    #[test]
    fn auto_loader_dispatches_on_magic_bytes() {
        let (g, index) = build();
        let dir = std::env::temp_dir();
        let json_path = dir.join(format!("icde_persist_auto_{}.json", std::process::id()));
        let snap_path = dir.join(format!("icde_persist_auto_{}.snap", std::process::id()));
        save_index(&index, &json_path).unwrap();
        save_index_snapshot(&index, &snap_path).unwrap();
        let from_json = load_index_auto(&json_path).unwrap();
        let from_snap = load_index_auto(&snap_path).unwrap();
        assert_eq!(from_json.content_fingerprint(), index.content_fingerprint());
        assert_eq!(from_snap.content_fingerprint(), index.content_fingerprint());
        // the reloaded indexes answer queries identically
        let query = TopLQuery::new(KeywordSet::from_ids([0, 1, 2]), 3, 2, 0.2, 3);
        let a = TopLProcessor::new(&g, &from_json).run(&query).unwrap();
        let b = TopLProcessor::new(&g, &from_snap).run(&query).unwrap();
        assert_eq!(a.communities.len(), b.communities.len());
        let _ = std::fs::remove_file(json_path);
        let _ = std::fs::remove_file(snap_path);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(index_from_json("not json").is_err());
        assert!(load_index("/definitely/not/here.json").is_err());
    }

    #[test]
    fn structurally_inconsistent_json_is_rejected_not_panicking() {
        let (_g, index) = build();
        let json = index_to_json(&index).unwrap();
        // shrink the item pool without touching item_start: the partition
        // invariant breaks, which must surface as an error on load
        let pool_field = "\"item_pool\":[";
        let start = json.find(pool_field).expect("item_pool serialised") + pool_field.len();
        let end = start + json[start..].find(']').expect("pool closes");
        let mut tampered = json.clone();
        tampered.replace_range(start..end, "0");
        assert_ne!(json, tampered);
        assert!(matches!(
            index_from_json(&tampered),
            Err(CoreError::Serialization(_))
        ));
        // a cyclic "tree" (node referencing a non-smaller id) is rejected
        // too: clear the leaf mask so node 0 becomes internal and its pool
        // slice is reinterpreted as child ids ≥ its own id
        let mut cyclic = json.clone();
        let mask_field = "\"leaf_mask\":[";
        let ms = cyclic.find(mask_field).expect("leaf_mask serialised") + mask_field.len();
        let me = ms + cyclic[ms..].find(']').expect("mask closes");
        let zeros = cyclic[ms..me].split(',').count();
        cyclic.replace_range(ms..me, &vec!["0"; zeros].join(","));
        assert!(matches!(
            index_from_json(&cyclic),
            Err(CoreError::Serialization(_))
        ));
    }
}
