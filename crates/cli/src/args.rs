//! Argument parsing for the `topl-icde` binary (no external CLI crate; the
//! option surface is small and stable).

use icde_graph::generators::DatasetKind;
use std::cell::RefCell;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  topl-icde generate --kind <uniform|gaussian|zipf|dblp|amazon> --vertices N [--seed N]
                     [--keyword-domain N] [--keywords-per-vertex N] --out FILE
  topl-icde stats    --graph FILE
  topl-icde index    --graph FILE --out FILE [--rmax N] [--fanout N] [--thresholds a,b,c]
                     [--threads N]
  topl-icde query    --graph FILE --index FILE --keywords a,b,c [--k N] [--r N]
                     [--theta X] [--l N] [--json] [--explain]
  topl-icde dquery   --graph FILE --index FILE --keywords a,b,c [--k N] [--r N]
                     [--theta X] [--l N] [--n N] [--json]
  topl-icde serve    --graph FILE --index FILE [--workers N] [--queries N]
                     [--seed N] [--k N] [--r N] [--theta X] [--l N] [--json]
                     [--update-rate N] [--compact-threshold X] [--repack-threshold X]
  topl-icde update   --graph FILE --index FILE --updates FILE [--batch N]
                     [--compact-threshold X] [--repack-threshold X]
                     [--out-graph FILE] [--out-index FILE]
                     [--keywords a,b,c [--k N] [--r N] [--theta X] [--l N]] [--json]
  topl-icde snapshot save --graph FILE --out FILE    (binary graph snapshot)
  topl-icde snapshot load --file FILE [--buffered]   (verify + summarise)

A graph FILE is an attributed edge list or a binary snapshot (told apart by
its magic bytes); an index FILE is always a binary snapshot, which `index
--out` and `update --out-index` write whatever the name. `update --out-graph`
writes a snapshot for a `.snap` name and an edge list for any other. A flag
the command does not take is a usage error. `index --threads N` pins the
worker count of the offline pre-computation (default: all cores); each
worker starts on its own contiguous vertex range, and every worker count
writes the same index bytes. `query --explain` prints the pruning-counter
breakdown after the answers. `serve`
starts the concurrent serving runtime (worker pool + query LRU) and drives
it with --queries synthetic Zipf-skewed keyword queries, reporting QPS,
latency percentiles and the cache hit rate; --update-rate N additionally
streams ~N synthetic edge updates/sec through the maintenance thread
(delta-overlay patches, hot snapshot swaps) while the queries run, reporting
updates/sec and the compaction count. `update` applies an edge-update stream
file against a graph + index pair through the same maintenance loop (lines:
`+ u v p_uv p_vu` inserts, `- u v` removes, `#` comments) in --batch-sized
batches, optionally writes the refreshed pair back out and answers a query
on it. --compact-threshold X sets the overlay fraction that triggers folding
the delta overlay back into the CSR base (default 0.125). --repack-threshold X
sets the dirty-vertex fraction above which a maintenance batch rebuilds the
re-sorted index tree instead of patching it in place (default 0.25; 0 repacks
every batch, inf never repacks).";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the usage text and exit successfully.
    Help,
    /// Generate a synthetic graph and write it to a file.
    Generate {
        /// Dataset family to generate.
        kind: DatasetKind,
        /// Number of vertices.
        vertices: usize,
        /// RNG seed.
        seed: u64,
        /// Keyword domain size |Σ|.
        keyword_domain: u32,
        /// Keywords per vertex |v.W|.
        keywords_per_vertex: usize,
        /// Output path (attributed edge-list format).
        out: String,
    },
    /// Print summary statistics of a graph file.
    Stats {
        /// Path to the graph file.
        graph: String,
    },
    /// Build the offline index for a graph and write it to a file.
    Index {
        /// Path to the graph file.
        graph: String,
        /// Output path for the index snapshot.
        out: String,
        /// Maximum pre-computed radius.
        r_max: u32,
        /// Tree fan-out.
        fanout: usize,
        /// Pre-selected influence thresholds.
        thresholds: Vec<f64>,
        /// Worker-thread count for the offline pre-computation (`None` = all
        /// cores).
        threads: Option<usize>,
    },
    /// Run a TopL-ICDE query.
    Query {
        /// Path to the graph file.
        graph: String,
        /// Path to the index file.
        index: String,
        /// Query keyword ids.
        keywords: Vec<u32>,
        /// Truss support k.
        k: u32,
        /// Radius r.
        r: u32,
        /// Influence threshold θ.
        theta: f64,
        /// Result size L.
        l: usize,
        /// Emit JSON instead of text.
        json: bool,
        /// Print the pruning-counter breakdown after the answers.
        explain: bool,
    },
    /// Run a DTopL-ICDE query.
    DQuery {
        /// Path to the graph file.
        graph: String,
        /// Path to the index file.
        index: String,
        /// Query keyword ids.
        keywords: Vec<u32>,
        /// Truss support k.
        k: u32,
        /// Radius r.
        r: u32,
        /// Influence threshold θ.
        theta: f64,
        /// Result size L.
        l: usize,
        /// Candidate multiplier n.
        n: usize,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Start the concurrent serving runtime and drive it with a synthetic
    /// Zipf-skewed workload.
    Serve {
        /// Path to the graph file.
        graph: String,
        /// Path to the index file.
        index: String,
        /// Worker-thread count of the serving pool.
        workers: usize,
        /// Number of synthetic queries to push through the pool.
        queries: usize,
        /// Workload RNG seed.
        seed: u64,
        /// Truss support k of the generated queries.
        k: u32,
        /// Radius r of the generated queries.
        r: u32,
        /// Influence threshold θ of the generated queries.
        theta: f64,
        /// Result size L of the generated queries.
        l: usize,
        /// Emit JSON instead of text.
        json: bool,
        /// Target synthetic edge updates per second streamed through the
        /// maintenance thread while the queries run (0 disables updates).
        update_rate: f64,
        /// Overlay fraction above which the maintainer compacts the delta
        /// overlay back into the CSR base.
        compact_threshold: f64,
        /// Dirty-vertex fraction above which a maintenance batch repacks
        /// (re-sorts and rebuilds) the index tree instead of patching it.
        repack_threshold: f64,
    },
    /// Apply an edge-update stream file against a graph + index pair via the
    /// streaming maintenance loop.
    Update {
        /// Path to the graph file.
        graph: String,
        /// Path to the index file.
        index: String,
        /// Path to the update-stream file (`+ u v p_uv p_vu` / `- u v`).
        updates: String,
        /// Updates per maintenance batch.
        batch: usize,
        /// Overlay fraction above which a batch triggers compaction.
        compact_threshold: f64,
        /// Dirty-vertex fraction above which a batch repacks the index tree
        /// instead of patching it in place (0 = every batch, inf = never).
        repack_threshold: f64,
        /// Optional output path for the refreshed graph.
        out_graph: Option<String>,
        /// Optional output path for the refreshed index.
        out_index: Option<String>,
        /// Keyword ids of an optional query to answer on the refreshed pair
        /// (empty = no query).
        keywords: Vec<u32>,
        /// Truss support k of the optional query.
        k: u32,
        /// Radius r of the optional query.
        r: u32,
        /// Influence threshold θ of the optional query.
        theta: f64,
        /// Result size L of the optional query.
        l: usize,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Convert a graph file into a binary snapshot.
    SnapshotSave {
        /// Path to the graph file (edge list or snapshot).
        graph: String,
        /// Output path for the binary snapshot.
        out: String,
    },
    /// Load (and thereby verify) a binary snapshot and print a summary.
    SnapshotLoad {
        /// Path to the snapshot file (graph or index; auto-detected).
        file: String,
        /// Force the buffered-read fallback instead of `mmap`.
        buffered: bool,
    },
}

/// Simple key-value flag map over the argument list. Every lookup records
/// the name it asked for, so once a command has read its options,
/// [`Flags::reject_unknown`] refuses any other `--name`.
struct Flags<'a> {
    args: &'a [String],
    asked: RefCell<Vec<&'static str>>,
}

impl<'a> Flags<'a> {
    fn get(&self, name: &'static str) -> Option<&'a str> {
        self.asked.borrow_mut().push(name);
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &'static str) -> bool {
        self.asked.borrow_mut().push(name);
        self.args.iter().any(|a| a == name)
    }

    fn required(&self, name: &'static str) -> Result<&'a str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required flag {name}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, name: &'static str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    /// Errors on the first `--name` the command never asked for.
    fn reject_unknown(&self) -> Result<(), String> {
        let asked = self.asked.borrow();
        match self
            .args
            .iter()
            .find(|a| a.starts_with("--") && !asked.contains(&a.as_str()))
        {
            Some(flag) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

fn parse_kind(value: &str) -> Result<DatasetKind, String> {
    match value.to_ascii_lowercase().as_str() {
        "uniform" | "uni" => Ok(DatasetKind::Uniform),
        "gaussian" | "gau" => Ok(DatasetKind::Gaussian),
        "zipf" => Ok(DatasetKind::Zipf),
        "dblp" => Ok(DatasetKind::DblpLike),
        "amazon" => Ok(DatasetKind::AmazonLike),
        other => Err(format!("unknown dataset kind '{other}'")),
    }
}

fn parse_u32_list(value: &str) -> Result<Vec<u32>, String> {
    value
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().map_err(|_| format!("invalid keyword id '{p}'")))
        .collect()
}

/// An optional count flag that must be at least 1 when given.
fn parse_count(flags: &Flags<'_>, name: &'static str) -> Result<Option<usize>, String> {
    match flags.get(name) {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("invalid value for {name}: {v}")),
        },
    }
}

fn parse_compact_threshold(flags: &Flags<'_>) -> Result<f64, String> {
    let threshold = flags.parse_or(
        "--compact-threshold",
        icde_graph::graph::DEFAULT_COMPACT_THRESHOLD,
    )?;
    if threshold > 0.0 && threshold.is_finite() {
        Ok(threshold)
    } else {
        Err("--compact-threshold must be a finite positive number".to_string())
    }
}

fn parse_repack_threshold(flags: &Flags<'_>) -> Result<f64, String> {
    let threshold = flags.parse_or(
        "--repack-threshold",
        icde_core::streaming::DEFAULT_REPACK_THRESHOLD,
    )?;
    // 0 (repack every batch) and inf (never repack) are both meaningful.
    if threshold >= 0.0 {
        Ok(threshold)
    } else {
        Err("--repack-threshold must be a non-negative number".to_string())
    }
}

fn parse_f64_list(value: &str) -> Result<Vec<f64>, String> {
    value
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.parse().map_err(|_| format!("invalid threshold '{p}'")))
        .collect()
}

/// Parses a full command line (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(command) = args.first() else {
        return Err("no command given".to_string());
    };
    if command == "--help" || command == "-h" || command == "help" {
        return Ok(Command::Help);
    }
    // `snapshot` takes an action word before its flags
    let flag_args = if command == "snapshot" {
        args.get(2..).unwrap_or_default()
    } else {
        &args[1..]
    };
    let flags = Flags {
        args: flag_args,
        asked: RefCell::default(),
    };
    let parsed = parse_command(command, args.get(1), &flags)?;
    flags.reject_unknown()?;
    Ok(parsed)
}

/// Builds one command from its flags; `action` is the word after the
/// command name, which only `snapshot` reads.
fn parse_command(
    command: &str,
    action: Option<&String>,
    flags: &Flags<'_>,
) -> Result<Command, String> {
    match command {
        "generate" => Ok(Command::Generate {
            kind: parse_kind(flags.required("--kind")?)?,
            vertices: flags
                .required("--vertices")?
                .parse()
                .map_err(|_| "invalid --vertices".to_string())?,
            seed: flags.parse_or("--seed", 42u64)?,
            keyword_domain: flags.parse_or("--keyword-domain", 50u32)?,
            keywords_per_vertex: flags.parse_or("--keywords-per-vertex", 3usize)?,
            out: flags.required("--out")?.to_string(),
        }),
        "stats" => Ok(Command::Stats {
            graph: flags.required("--graph")?.to_string(),
        }),
        "snapshot" => {
            let action =
                action.ok_or_else(|| "snapshot requires an action: save or load".to_string())?;
            match action.as_str() {
                "save" => Ok(Command::SnapshotSave {
                    graph: flags.required("--graph")?.to_string(),
                    out: flags.required("--out")?.to_string(),
                }),
                "load" => Ok(Command::SnapshotLoad {
                    file: flags.required("--file")?.to_string(),
                    buffered: flags.has("--buffered"),
                }),
                other => Err(format!("unknown snapshot action '{other}'")),
            }
        }
        "serve" => {
            let workers = flags.parse_or("--workers", 4usize)?;
            if workers == 0 {
                return Err("--workers must be at least 1".to_string());
            }
            let update_rate = flags.parse_or("--update-rate", 0.0f64)?;
            if !(update_rate >= 0.0 && update_rate.is_finite()) {
                return Err("--update-rate must be a finite non-negative number".to_string());
            }
            Ok(Command::Serve {
                graph: flags.required("--graph")?.to_string(),
                index: flags.required("--index")?.to_string(),
                workers,
                queries: flags.parse_or("--queries", 10_000usize)?,
                seed: flags.parse_or("--seed", 42u64)?,
                k: flags.parse_or("--k", 3u32)?,
                r: flags.parse_or("--r", 2u32)?,
                theta: flags.parse_or("--theta", 0.2f64)?,
                l: flags.parse_or("--l", 5usize)?,
                json: flags.has("--json"),
                update_rate,
                compact_threshold: parse_compact_threshold(flags)?,
                repack_threshold: parse_repack_threshold(flags)?,
            })
        }
        "update" => {
            let batch = flags.parse_or("--batch", 64usize)?;
            if batch == 0 {
                return Err("--batch must be at least 1".to_string());
            }
            Ok(Command::Update {
                graph: flags.required("--graph")?.to_string(),
                index: flags.required("--index")?.to_string(),
                updates: flags.required("--updates")?.to_string(),
                batch,
                compact_threshold: parse_compact_threshold(flags)?,
                repack_threshold: parse_repack_threshold(flags)?,
                out_graph: flags.get("--out-graph").map(str::to_string),
                out_index: flags.get("--out-index").map(str::to_string),
                keywords: match flags.get("--keywords") {
                    None => Vec::new(),
                    Some(v) => parse_u32_list(v)?,
                },
                k: flags.parse_or("--k", 4u32)?,
                r: flags.parse_or("--r", 2u32)?,
                theta: flags.parse_or("--theta", 0.2f64)?,
                l: flags.parse_or("--l", 5usize)?,
                json: flags.has("--json"),
            })
        }
        "index" => Ok(Command::Index {
            graph: flags.required("--graph")?.to_string(),
            out: flags.required("--out")?.to_string(),
            r_max: flags.parse_or("--rmax", 3u32)?,
            fanout: flags.parse_or("--fanout", 8usize)?,
            thresholds: match flags.get("--thresholds") {
                None => vec![0.1, 0.2, 0.3],
                Some(v) => parse_f64_list(v)?,
            },
            threads: parse_count(flags, "--threads")?,
        }),
        "query" | "dquery" => {
            let keywords = parse_u32_list(flags.required("--keywords")?)?;
            let k = flags.parse_or("--k", 4u32)?;
            let r = flags.parse_or("--r", 2u32)?;
            let theta = flags.parse_or("--theta", 0.2f64)?;
            let l = flags.parse_or("--l", 5usize)?;
            let graph = flags.required("--graph")?.to_string();
            let index = flags.required("--index")?.to_string();
            let json = flags.has("--json");
            if command == "query" {
                Ok(Command::Query {
                    graph,
                    index,
                    keywords,
                    k,
                    r,
                    theta,
                    l,
                    json,
                    explain: flags.has("--explain"),
                })
            } else {
                Ok(Command::DQuery {
                    graph,
                    index,
                    keywords,
                    k,
                    r,
                    theta,
                    l,
                    n: flags.parse_or("--n", 3usize)?,
                    json,
                })
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv(&[
            "generate",
            "--kind",
            "amazon",
            "--vertices",
            "1000",
            "--out",
            "g.txt",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                kind: DatasetKind::AmazonLike,
                vertices: 1000,
                seed: 7,
                keyword_domain: 50,
                keywords_per_vertex: 3,
                out: "g.txt".to_string(),
            }
        );
    }

    #[test]
    fn parses_query_with_defaults() {
        let cmd = parse(&argv(&[
            "query",
            "--graph",
            "g.txt",
            "--index",
            "i.json",
            "--keywords",
            "1,2,3",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                keywords,
                k,
                r,
                theta,
                l,
                json,
                explain,
                ..
            } => {
                assert_eq!(keywords, vec![1, 2, 3]);
                assert_eq!(k, 4);
                assert_eq!(r, 2);
                assert_eq!(theta, 0.2);
                assert_eq!(l, 5);
                assert!(!json);
                assert!(!explain);
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_query_explain_and_eager() {
        let query = ["query", "--graph", "g", "--index", "i", "--keywords", "1"];
        let cmd = parse(&argv(&[&query[..], &["--explain"]].concat())).unwrap();
        match cmd {
            Command::Query { explain, .. } => assert!(explain),
            other => panic!("expected query, got {other:?}"),
        }
        // the eager reference path is not a CLI option
        assert!(parse(&argv(&[&query[..], &["--eager"]].concat())).is_err());
    }

    #[test]
    fn parses_dquery_multiplier_and_json() {
        let cmd = parse(&argv(&[
            "dquery",
            "--graph",
            "g",
            "--index",
            "i",
            "--keywords",
            "4",
            "--n",
            "5",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::DQuery { n, json, .. } => {
                assert_eq!(n, 5);
                assert!(json);
            }
            other => panic!("expected dquery, got {other:?}"),
        }
    }

    #[test]
    fn parses_index_thresholds() {
        let cmd = parse(&argv(&[
            "index",
            "--graph",
            "g",
            "--out",
            "i",
            "--thresholds",
            "0.05,0.15",
            "--fanout",
            "4",
        ]))
        .unwrap();
        match cmd {
            Command::Index {
                thresholds,
                fanout,
                r_max,
                ..
            } => {
                assert_eq!(thresholds, vec![0.05, 0.15]);
                assert_eq!(fanout, 4);
                assert_eq!(r_max, 3);
            }
            other => panic!("expected index, got {other:?}"),
        }
    }

    #[test]
    fn parses_threads_flag() {
        let cmd = parse(&argv(&[
            "index",
            "--graph",
            "g",
            "--out",
            "i",
            "--threads",
            "6",
        ]))
        .unwrap();
        match cmd {
            Command::Index { threads, .. } => assert_eq!(threads, Some(6)),
            other => panic!("expected index, got {other:?}"),
        }
        let cmd = parse(&argv(&["index", "--graph", "g", "--out", "i"])).unwrap();
        match cmd {
            Command::Index { threads, .. } => assert_eq!(threads, None),
            other => panic!("expected index, got {other:?}"),
        }
        // zero or garbage thread counts are rejected
        assert!(parse(&argv(&[
            "index",
            "--graph",
            "g",
            "--out",
            "i",
            "--threads",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "index",
            "--graph",
            "g",
            "--out",
            "i",
            "--threads",
            "lots"
        ]))
        .is_err());
    }

    #[test]
    fn parses_snapshot_commands() {
        let cmd = parse(&argv(&[
            "snapshot", "save", "--graph", "g.txt", "--out", "g.snap",
        ]));
        assert_eq!(
            cmd.unwrap(),
            Command::SnapshotSave {
                graph: "g.txt".to_string(),
                out: "g.snap".to_string(),
            }
        );
        let cmd = parse(&argv(&[
            "snapshot",
            "load",
            "--file",
            "g.snap",
            "--buffered",
        ]));
        assert_eq!(
            cmd.unwrap(),
            Command::SnapshotLoad {
                file: "g.snap".to_string(),
                buffered: true,
            }
        );
        // save takes only a graph (an index is always written as a
        // snapshot already); a missing graph and unknown actions are errors
        assert!(parse(&argv(&["snapshot", "save", "--out", "x"])).is_err());
        assert!(parse(&argv(&[
            "snapshot", "save", "--index", "i.json", "--out", "i.snap"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "snapshot", "save", "--graph", "g", "--index", "i", "--out", "x"
        ]))
        .is_err());
        assert!(parse(&argv(&["snapshot"])).is_err());
        assert!(parse(&argv(&["snapshot", "frobnicate"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let cmd = parse(&argv(&["serve", "--graph", "g", "--index", "i"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                graph: "g".to_string(),
                index: "i".to_string(),
                workers: 4,
                queries: 10_000,
                seed: 42,
                k: 3,
                r: 2,
                theta: 0.2,
                l: 5,
                json: false,
                update_rate: 0.0,
                compact_threshold: icde_graph::graph::DEFAULT_COMPACT_THRESHOLD,
                repack_threshold: icde_core::streaming::DEFAULT_REPACK_THRESHOLD,
            }
        );
        let cmd = parse(&argv(&[
            "serve",
            "--graph",
            "g",
            "--index",
            "i",
            "--workers",
            "2",
            "--queries",
            "500",
            "--seed",
            "9",
            "--theta",
            "0.3",
            "--json",
            "--update-rate",
            "250",
            "--compact-threshold",
            "0.05",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                workers,
                queries,
                seed,
                theta,
                json,
                update_rate,
                compact_threshold,
                ..
            } => {
                assert_eq!(workers, 2);
                assert_eq!(queries, 500);
                assert_eq!(seed, 9);
                assert_eq!(theta, 0.3);
                assert!(json);
                assert_eq!(update_rate, 250.0);
                assert_eq!(compact_threshold, 0.05);
            }
            other => panic!("expected serve, got {other:?}"),
        }
        // zero workers, bad rates/thresholds and missing files are rejected
        assert!(parse(&argv(&[
            "serve",
            "--graph",
            "g",
            "--index",
            "i",
            "--workers",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "serve",
            "--graph",
            "g",
            "--index",
            "i",
            "--update-rate",
            "-5"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "serve",
            "--graph",
            "g",
            "--index",
            "i",
            "--compact-threshold",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&["serve", "--graph", "g"])).is_err());
    }

    #[test]
    fn parses_update_with_defaults_and_overrides() {
        let cmd = parse(&argv(&[
            "update",
            "--graph",
            "g",
            "--index",
            "i",
            "--updates",
            "u.txt",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Update {
                graph: "g".to_string(),
                index: "i".to_string(),
                updates: "u.txt".to_string(),
                batch: 64,
                compact_threshold: icde_graph::graph::DEFAULT_COMPACT_THRESHOLD,
                repack_threshold: icde_core::streaming::DEFAULT_REPACK_THRESHOLD,
                out_graph: None,
                out_index: None,
                keywords: Vec::new(),
                k: 4,
                r: 2,
                theta: 0.2,
                l: 5,
                json: false,
            }
        );
        let cmd = parse(&argv(&[
            "update",
            "--graph",
            "g",
            "--index",
            "i",
            "--updates",
            "u.txt",
            "--batch",
            "16",
            "--compact-threshold",
            "0.01",
            "--repack-threshold",
            "0",
            "--out-graph",
            "g2.snap",
            "--out-index",
            "i2.snap",
            "--keywords",
            "1,2",
            "--theta",
            "0.3",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Update {
                batch,
                compact_threshold,
                repack_threshold,
                out_graph,
                out_index,
                keywords,
                theta,
                json,
                ..
            } => {
                assert_eq!(batch, 16);
                assert_eq!(compact_threshold, 0.01);
                assert_eq!(repack_threshold, 0.0);
                assert_eq!(out_graph.as_deref(), Some("g2.snap"));
                assert_eq!(out_index.as_deref(), Some("i2.snap"));
                assert_eq!(keywords, vec![1, 2]);
                assert_eq!(theta, 0.3);
                assert!(json);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // a zero batch and a missing stream file flag are rejected
        assert!(parse(&argv(&[
            "update",
            "--graph",
            "g",
            "--index",
            "i",
            "--updates",
            "u",
            "--batch",
            "0"
        ]))
        .is_err());
        assert!(parse(&argv(&["update", "--graph", "g", "--index", "i"])).is_err());
        // negative repack thresholds are rejected (0 and inf are valid)
        assert!(parse(&argv(&[
            "update",
            "--graph",
            "g",
            "--index",
            "i",
            "--updates",
            "u",
            "--repack-threshold",
            "-1"
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv(&[])).is_err());
        assert!(parse(&argv(&["frobnicate"])).is_err());
        assert!(parse(&argv(&[
            "generate",
            "--kind",
            "nope",
            "--vertices",
            "10",
            "--out",
            "x"
        ]))
        .is_err());
        assert!(parse(&argv(&[
            "query",
            "--graph",
            "g",
            "--index",
            "i",
            "--keywords",
            "a,b"
        ]))
        .is_err());
        assert!(parse(&argv(&["generate", "--vertices", "10", "--out", "x"])).is_err());
        // every flag a command does not take is a usage error
        for bad in [
            &[
                "generate",
                "--kind",
                "uniform",
                "--vertices",
                "10",
                "--out",
                "g.txt",
                "--bogus-flag",
                "3",
            ][..],
            &["stats", "--graph", "g.txt", "--threads", "3", "--whatever"],
            &["stats", "--graph", "g.txt", "--threads", "3"],
            &[
                "query",
                "--graph",
                "g",
                "--index",
                "i",
                "--keywords",
                "1",
                "--eagr",
            ],
            // the worker count alone partitions the offline build
            &["index", "--graph", "g", "--out", "i", "--shards", "4"],
            // flags of a sibling command are not shared
            &[
                "dquery",
                "--graph",
                "g",
                "--index",
                "i",
                "--keywords",
                "1",
                "--explain",
            ],
            &["snapshot", "load", "--file", "g.snap", "--out", "x"],
        ] {
            let err = parse(&argv(bad)).expect_err(&bad.join(" "));
            assert!(
                err.starts_with("unknown flag --"),
                "{}: {err}",
                bad.join(" ")
            );
        }
    }
}
