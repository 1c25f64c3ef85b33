//! Benchmark harnesses regenerating the paper's tables and figures.
//!
//! The compile-and-execute pipeline itself lives in
//! [`fto_exec::Session`]; this crate layers the paper's experiments on
//! top. The binaries in `src/bin/` regenerate every table and figure of
//! the paper (see DESIGN.md's experiment index); end-to-end timing is
//! `benchmark/`'s job.

#![deny(missing_docs)]

pub mod answer;
pub mod corpus;
pub mod envknob;
pub mod harness;

pub use fto_exec::{
    ExecutionProfile, ObsOptions, Observability, PlanMetrics, PreparedQuery, QueryOutput, Session,
    StatementOutput,
};
