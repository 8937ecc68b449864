//! # icde-bench — benchmark harness reproducing the paper's evaluation
//!
//! Section VIII of the paper evaluates TopL-ICDE and DTopL-ICDE over five
//! graph families and a grid of parameters (Table III). This crate contains
//! everything needed to regenerate every table and figure:
//!
//! * [`params`] — the Table III parameter grid (defaults in bold there are
//!   defaults here),
//! * [`workload`] — dataset construction and index building for each
//!   experiment,
//! * [`runner`] — timed executions of our approach and the baselines,
//!   returning per-row measurements,
//! * [`figures`] — one driver per table/figure that produces the same
//!   rows/series the paper reports,
//! * [`report`] — plain-text table rendering of those rows.
//!
//! Two front-ends consume the harness: the `experiments` binary
//! (`cargo run -p icde-bench --release --bin experiments -- <figure>`) and
//! the Criterion benches under `benches/`.

pub mod figures;
pub mod params;
pub mod report;
pub mod runner;
pub mod workload;

pub use params::ExperimentParams;
pub use report::Table;
pub use workload::Workload;
