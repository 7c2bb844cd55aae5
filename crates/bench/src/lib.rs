//! Experiment harness regenerating every validated claim of the paper.
//!
//! The paper is a theory paper with no empirical tables; DESIGN.md §4 maps
//! each theorem/lemma/claim to an experiment E1–E21. Each experiment module
//! produces an [`ExpReport`] (a printable table plus the paper's claim),
//! and the `experiments` binary runs any subset:
//!
//! ```text
//! cargo run --release -p sinr-bench --bin experiments -- all
//! cargo run --release -p sinr-bench --bin experiments -- e1 e3 --quick
//! ```
//!
//! The one bench target, `benches/resolver.rs`, times the SINR model with
//! its grid off and on and writes `BENCH_resolver.json`.

pub mod experiments;
pub mod obs;
pub mod report;
pub mod stats;
pub mod workload;

pub use report::ExpReport;
