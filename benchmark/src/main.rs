//! Command-line entry: runs one workload and prints its result object as the
//! last line of standard output.

use std::process::ExitCode;
use topl_benchmark::{run, Args, USAGE};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(args);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
