//! `topl-icde` — command-line front-end for the TopL-ICDE pipeline.
//!
//! ```text
//! topl-icde generate --kind uniform --vertices 10000 --out graph.txt
//! topl-icde stats    --graph graph.txt
//! topl-icde index    --graph graph.txt --out graph.index.snap
//! topl-icde query    --graph graph.txt --index graph.index.snap \
//!                    --keywords 0,1,2,3,4 --k 4 --r 2 --theta 0.2 --l 5
//! topl-icde dquery   --graph graph.txt --index graph.index.snap \
//!                    --keywords 0,1,2 --l 3 --n 3
//! ```
//!
//! Graphs are read as the attributed edge list of `icde_graph::io` (plain
//! SNAP edge lists also parse) or as a binary snapshot of
//! `icde_graph::snapshot`; indexes are stored only as binary snapshots via
//! `icde_core::snapshot`.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(command) => match commands::run(command) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Err(message) => {
            eprintln!("error: {message}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
