//! Command-line entry point; see the crate docs and `perfbench/README.md`.

use std::process::ExitCode;

use mrcc_eval::TrackingAllocator;
use mrcc_perfbench::report::{parse_args, record, summary, USAGE};
use mrcc_perfbench::run::run;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name);
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!("attempted {} failed {}", outcome.attempted, outcome.failed);
    println!("{}", record(&args, &outcome));
    println!("{}", summary(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
