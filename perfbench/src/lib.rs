//! End-to-end and per-layer benchmark of the MrCC workspace.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` generates the workload's
//! input from the seed, runs it through the public API of `mrcc-common`,
//! `mrcc-counting-tree`, `mrcc` and `mrcc-stats`, checks every result bit
//! for bit, and prints a run record followed by one JSON line of metrics.
//! See `perfbench/README.md`.

pub mod digest;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;
