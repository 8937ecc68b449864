//! Reading and writing social networks as text.
//!
//! The **attributed edge list** is the human-readable graph format, close
//! to the SNAP edge lists the real DBLP/Amazon datasets ship in, extended
//! with keyword and weight annotations so a full [`SocialNetwork`]
//! round-trips:
//!
//! ```text
//! # comments and blank lines are ignored
//! v <id> <kw1,kw2,...>          # vertex with keyword ids
//! e <u> <v> <p_uv> [p_vu]       # undirected edge with directed weights
//! ```
//!
//! Plain SNAP edge lists (`<u> <v>` per line) also parse: vertices are
//! created on demand with empty keyword sets and a default weight. The
//! binary snapshot ([`crate::snapshot`]) is the other graph format: the
//! same content, loaded without parsing.

use crate::builder::GraphBuilder;
use crate::error::{GraphError, GraphResult};
use crate::graph::SocialNetwork;
use crate::keywords::KeywordSet;
use crate::types::VertexId;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` **crash-safely**: the content goes to a uniquely
/// named temporary file in the *same directory* (same filesystem, so the
/// final step is a true rename, not a copy) and is renamed into place after
/// being flushed. A process killed mid-write can leave a stray `*.tmp-*`
/// file behind but never a truncated file under the final name; concurrent
/// writers last-write-win without ever exposing a partial file.
///
/// Every file writer in the workspace (edge lists, graph and index
/// snapshots) routes through this helper.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "cannot atomically write to {}: no file name",
                path.display()
            ),
        )
    })?;
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp-{}-{unique}", std::process::id()));
    let tmp_path = path.with_file_name(tmp_name);
    let result = (|| {
        let mut file = fs::File::create(&tmp_path)?;
        file.write_all(bytes)?;
        // flush userspace buffers and the OS cache before the rename makes
        // the file visible under its final name
        file.sync_all()?;
        fs::rename(&tmp_path, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    result
}

/// Default activation probability used for plain `u v` edge lines that carry
/// no explicit weight (midpoint of the paper's `[0.5, 0.6)` range).
pub const DEFAULT_EDGE_WEIGHT: f64 = 0.55;

/// Parses an attributed edge-list document (see the module docs for the
/// grammar).
pub fn parse_edge_list(text: &str) -> GraphResult<SocialNetwork> {
    let mut builder = GraphBuilder::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') || line.starts_with("//") {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let first = tokens.next().expect("non-empty line has a first token");
        match first {
            "v" => {
                let id = parse_vertex(tokens.next(), lineno)?;
                builder.ensure_vertex(id);
                let keywords = match tokens.next() {
                    None | Some("-") => KeywordSet::new(),
                    Some(list) => parse_keyword_list(list, lineno)?,
                };
                builder
                    .set_keywords(id, keywords)
                    .map_err(|_| parse_err(lineno, "vertex id out of range"))?;
            }
            "e" => {
                let u = parse_vertex(tokens.next(), lineno)?;
                let v = parse_vertex(tokens.next(), lineno)?;
                let p_uv = parse_weight(tokens.next(), lineno)?.unwrap_or(DEFAULT_EDGE_WEIGHT);
                let p_vu = parse_weight(tokens.next(), lineno)?.unwrap_or(p_uv);
                builder.add_edge(u, v, p_uv, p_vu);
            }
            // Plain SNAP line: "<u> <v>" (optionally with a weight).
            _ => {
                let u = parse_vertex(Some(first), lineno)?;
                let v = parse_vertex(tokens.next(), lineno)?;
                let p = parse_weight(tokens.next(), lineno)?.unwrap_or(DEFAULT_EDGE_WEIGHT);
                builder.add_edge(u, v, p, p);
            }
        }
    }
    builder.build()
}

fn parse_err(line: usize, message: impl Into<String>) -> GraphError {
    GraphError::Parse {
        line,
        message: message.into(),
    }
}

fn parse_vertex(token: Option<&str>, line: usize) -> GraphResult<VertexId> {
    let token = token.ok_or_else(|| parse_err(line, "missing vertex id"))?;
    token
        .parse::<u32>()
        .map(VertexId)
        .map_err(|_| parse_err(line, format!("invalid vertex id '{token}'")))
}

fn parse_weight(token: Option<&str>, line: usize) -> GraphResult<Option<f64>> {
    match token {
        None => Ok(None),
        Some(t) => t
            .parse::<f64>()
            .map(Some)
            .map_err(|_| parse_err(line, format!("invalid weight '{t}'"))),
    }
}

fn parse_keyword_list(list: &str, line: usize) -> GraphResult<KeywordSet> {
    let mut ids = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let id = part
            .parse::<u32>()
            .map_err(|_| parse_err(line, format!("invalid keyword id '{part}'")))?;
        ids.push(id);
    }
    Ok(KeywordSet::from_ids(ids))
}

/// Serialises a graph into the attributed edge-list text format.
pub fn to_edge_list(g: &SocialNetwork) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# topl-icde attributed edge list");
    let _ = writeln!(
        out,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    for v in g.vertices() {
        let kws: Vec<String> = g.keyword_set(v).iter().map(|k| k.0.to_string()).collect();
        let kw_field = if kws.is_empty() {
            "-".to_string()
        } else {
            kws.join(",")
        };
        let _ = writeln!(out, "v {} {}", v.0, kw_field);
    }
    for (e, u, v) in g.edges() {
        let _ = writeln!(
            out,
            "e {} {} {} {}",
            u.0,
            v.0,
            g.directed_weight(e, u),
            g.directed_weight(e, v)
        );
    }
    out
}

/// Loads a graph from an attributed edge-list file.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> GraphResult<SocialNetwork> {
    let text = fs::read_to_string(path)?;
    parse_edge_list(&text)
}

/// Writes a graph to an attributed edge-list file (crash-safe
/// write-then-rename, see [`atomic_write`]).
pub fn write_edge_list_file<P: AsRef<Path>>(g: &SocialNetwork, path: P) -> GraphResult<()> {
    atomic_write(path.as_ref(), to_edge_list(g).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::VertexId;

    const SAMPLE: &str = "\
# sample graph
v 0 1,2
v 1 2
v 2 3
e 0 1 0.8 0.7
e 1 2 0.6
e 0 2 0.9
";

    #[test]
    fn parses_attributed_edge_list() {
        let g = parse_edge_list(SAMPLE).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(
            g.activation_probability(VertexId(0), VertexId(1)).unwrap(),
            0.8
        );
        assert_eq!(
            g.activation_probability(VertexId(1), VertexId(0)).unwrap(),
            0.7
        );
        // single-weight edge is symmetric
        assert_eq!(
            g.activation_probability(VertexId(2), VertexId(1)).unwrap(),
            0.6
        );
        assert!(g.keyword_set(VertexId(0)).contains(crate::Keyword(2)));
    }

    #[test]
    fn parses_plain_snap_lines() {
        let g = parse_edge_list("0 1\n1 2\n2 3 0.7\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(
            g.activation_probability(VertexId(0), VertexId(1)).unwrap(),
            DEFAULT_EDGE_WEIGHT
        );
        assert_eq!(
            g.activation_probability(VertexId(2), VertexId(3)).unwrap(),
            0.7
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_edge_list("v 0 1\ne 0 x 0.5\n").unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let err = parse_edge_list("e 0 1 nope\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        let text = to_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        for (e, u, v) in g.edges() {
            let e2 = back.edge_between(u, v).unwrap();
            assert!((back.directed_weight(e2, u) - g.directed_weight(e, u)).abs() < 1e-12);
        }
        for v in g.vertices() {
            assert_eq!(back.keyword_set(v), g.keyword_set(v));
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = parse_edge_list(SAMPLE).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("topl_icde_io_test.graph");
        write_edge_list_file(&g, &path).unwrap();
        let back = read_edge_list_file(&path).unwrap();
        assert_eq!(back.num_edges(), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("icde_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // overwrite must swap the whole content in one rename
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temporary files left behind");
        // writing to a path without a parent file name errors cleanly
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_file("/nonexistent/definitely/not/here.graph").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
