//! Experiment harness shared by the figure/table binaries.
//!
//! * [`runner`] — builds suite problems and runs solves, resolving the
//!   paper's storage-format names (`float64`, `float32`, `float16`,
//!   `frsz2_32`, Table II compressor configs) through the solver's
//!   basis-format registry,
//! * [`model`] — the H100 time projection of Fig. 11,
//! * [`report`] — aligned-column console tables, CSV emission into
//!   `results/`, and `BENCH_<name>.json` emission for the perf
//!   trajectory,
//! * [`json`] — the offline JSON emitter/parser and the `BENCH_*.json`
//!   schema validator used by the `bench_json` binary and CI.

pub mod json;
pub mod model;
pub mod report;
pub mod runner;
