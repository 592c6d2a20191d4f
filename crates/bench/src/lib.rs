#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Benchmark harness for the MrCC reproduction.
//!
//! The [`runner`] module knows how to construct every method with the
//! paper's tuning for a given dataset spec, run it under a wall-clock budget
//! while tracking peak heap usage, and score the result with the paper's
//! Quality metrics. The [`experiments`] module drives one experiment per
//! figure/table of Section IV (see DESIGN.md's per-experiment index) and
//! renders markdown + JSON tables into a results directory; the
//! `experiments` binary is its CLI.

pub mod experiments;
pub mod runner;
pub mod viz;

pub use experiments::{run_experiment, ExperimentOptions, ALL_EXPERIMENTS};
pub use runner::{run_method, MethodKind, RunRecord};
pub use viz::{pair_grid_svg, scatter_svg};
