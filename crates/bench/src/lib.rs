//! # flexrel-bench
//!
//! Experiment harness for the flexrel reproduction: workload construction
//! and table printing behind the `harness` binary that regenerates every
//! experiment row of EXPERIMENTS.md.

pub mod compare;
pub mod driver;
pub mod experiments;
pub mod report;

pub use compare::{compare_dirs, Comparison};
pub use driver::{run_driver, DriverConfig, DriverReport};
pub use report::{Headline, Table};
