//! Thread-count sweep for the deterministic parallel pipeline.
//!
//! ```text
//! parallel [--points N] [--runs R] [--out FILE]
//! ```
//!
//! Generates one fixed-seed synthetic workload (default 100 000 points,
//! 10 axes, 4 clusters), then times the sharded Counting-tree build and the
//! full `MrCC::fit` at 1/2/4/8 worker threads, best of `R` runs each
//! (default 3). Every parallel run is checked bit-identical to the serial
//! result before its timing is recorded, so the sweep doubles as an
//! end-to-end equivalence check.
//!
//! The report (default `BENCH_parallel.json`) records
//! `available_parallelism` alongside the timings: on a single-core host the
//! sweep measures pure scheduling + merge overhead and no wall-clock speedup
//! can appear — interpret `speedup_vs_serial` together with the core count.

use std::path::PathBuf;

use mrcc::{MrCC, MrCCConfig};
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};
use serde_json::{ToJson, Value};

/// Thread counts swept, serial first so later entries can report speedups.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One (phase, threads) measurement.
struct Sample {
    phase: &'static str,
    threads: usize,
    best_seconds: f64,
    speedup_vs_serial: f64,
    identical_to_serial: bool,
}

impl ToJson for Sample {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("phase".to_string(), self.phase.to_json()),
            ("threads".to_string(), self.threads.to_json()),
            ("best_seconds".to_string(), self.best_seconds.to_json()),
            (
                "speedup_vs_serial".to_string(),
                self.speedup_vs_serial.to_json(),
            ),
            (
                "identical_to_serial".to_string(),
                self.identical_to_serial.to_json(),
            ),
        ])
    }
}

fn main() {
    let mut n_points = 100_000usize;
    let mut runs = 3usize;
    let mut out = PathBuf::from("BENCH_parallel.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => {
                let v = args.next().expect("--points needs a value");
                n_points = v.parse().expect("--points needs an integer");
            }
            "--runs" => {
                let v = args.next().expect("--runs needs a value");
                runs = v.parse::<usize>().expect("--runs needs an integer").max(1);
            }
            "--out" => {
                out = args.next().expect("--out needs a path").into();
            }
            other => {
                eprintln!("usage: parallel [--points N] [--runs R] [--out FILE]");
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("generating {n_points}-point workload ({cores} core(s) available)...");
    let synth = generate(&SyntheticSpec::new("parallel", 10, n_points, 4, 0.15, 42));
    let ds = &synth.dataset;
    let resolutions = MrCCConfig::default().resolutions;

    let mut samples: Vec<Sample> = Vec::new();

    // Phase 1: Counting-tree construction (serial `build` vs `build_sharded`).
    let serial_tree = CountingTree::build(ds, resolutions).expect("serial build");
    let mut serial_secs = 0.0;
    for &t in &THREADS {
        let mut best = f64::INFINITY;
        let mut identical = true;
        for _ in 0..runs {
            let start = std::time::Instant::now();
            let tree = CountingTree::build_sharded(ds, resolutions, t).expect("sharded build");
            best = best.min(start.elapsed().as_secs_f64());
            identical &= tree.identical(&serial_tree);
        }
        if t == 1 {
            serial_secs = best;
        }
        assert!(identical, "tree at {t} threads differs from serial");
        println!(
            "tree_build  threads={t}: best {best:.3}s (x{:.2})",
            serial_secs / best
        );
        samples.push(Sample {
            phase: "tree_build",
            threads: t,
            best_seconds: best,
            speedup_vs_serial: serial_secs / best,
            identical_to_serial: identical,
        });
    }

    // Full fit (sharded build + serial β-cluster search + chunked merge).
    let serial_fit = MrCC::new(MrCCConfig::default())
        .fit(ds)
        .expect("serial fit");
    let mut serial_secs = 0.0;
    for &t in &THREADS {
        let method = MrCC::new(MrCCConfig::default().with_threads(t));
        let mut best = f64::INFINITY;
        let mut identical = true;
        for _ in 0..runs {
            let start = std::time::Instant::now();
            let fit = method.fit(ds).expect("parallel fit");
            best = best.min(start.elapsed().as_secs_f64());
            identical &= fit.clustering.labels() == serial_fit.clustering.labels()
                && fit.clusters.len() == serial_fit.clusters.len()
                && fit.beta_clusters.len() == serial_fit.beta_clusters.len();
        }
        if t == 1 {
            serial_secs = best;
        }
        assert!(identical, "fit at {t} threads differs from serial");
        println!(
            "fit         threads={t}: best {best:.3}s (x{:.2})",
            serial_secs / best
        );
        samples.push(Sample {
            phase: "fit",
            threads: t,
            best_seconds: best,
            speedup_vs_serial: serial_secs / best,
            identical_to_serial: identical,
        });
    }

    let report = Value::Object(vec![
        ("n_points".to_string(), n_points.to_json()),
        ("dims".to_string(), ds.dims().to_json()),
        ("resolutions".to_string(), resolutions.to_json()),
        ("runs_per_point".to_string(), runs.to_json()),
        ("available_parallelism".to_string(), cores.to_json()),
        ("samples".to_string(), samples.to_json()),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json).expect("write report");
    println!("wrote {}", out.display());
}
