#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Command-line interface for the MrCC reproduction.
//!
//! The `mrcc` binary wires the workspace into a small data-pipeline tool:
//!
//! ```text
//! mrcc cluster  --input data.csv --output labels.csv [--method mrcc] [--alpha 1e-10] ...
//! mrcc generate --dims 10 --points 10000 --clusters 4 --output data.csv
//! mrcc evaluate --found labeled.csv --truth truth.csv
//! mrcc info     --input data.csv
//! ```
//!
//! All argument parsing and command logic lives in this library so it can be
//! unit-tested; the binary (`src/bin/mrcc.rs`) is a thin `main`.

pub mod args;
pub mod commands;

pub use args::{parse_args, Command};
pub use commands::run;

/// CLI result type: user-facing error strings.
pub type CliResult<T> = Result<T, String>;
