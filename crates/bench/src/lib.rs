//! # flexrel-bench
//!
//! Experiment harness for the flexrel reproduction: workload construction
//! and table printing behind the `harness` binary that regenerates every
//! experiment row of EXPERIMENTS.md.

pub mod experiments;
pub mod report;

pub use report::Table;
