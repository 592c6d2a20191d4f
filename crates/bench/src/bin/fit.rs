//! Fit bench: the whole MrCC fit and each of its phases, timed on datagen
//! workloads, with every timed run checked bit-identical to a reference.
//!
//! ```text
//! fit [--points N] [--runs R] [--out FILE]
//! ```
//!
//! `--points` sets the largest η of every sweep (default 100 000), `--runs`
//! takes the best of R runs per sample (default 3) and `--out` names the
//! report (default `BENCH_fit.json`). The report has three sections:
//!
//! * `threads` — the sharded Counting-tree build and the full `MrCC::fit`
//!   at 1/2/4/8 worker threads on one 10-axis, 4-cluster workload of η
//!   points. Every tree must be `identical` to the serial tree and every fit
//!   bit-identical to the serial fit.
//! * `merge` — phase three alone over the first η/8 … η points of the same
//!   workload, at the β set found on all η points. Every run must be
//!   bit-identical to the quadratic `merge-oracle` path. `linearity_ratio`
//!   is the per-point cost at this η over the per-point cost at η/8: near 1
//!   means merge time is linear in η at fixed β.
//! * `scaling` — full fits for η ∈ {η/8 … η} at d = 10, d ∈ {5, 10, 20, 30}
//!   at η/4 and H ∈ {4, 8, 16, 32} at η/4, with one column per phase from
//!   `FitStats` (best run by total time). Every run must be bit-identical to
//!   the first run of its row.
//!
//! Every check is an `assert!` that runs before its sample is recorded, so
//! any divergence exits nonzero and writes no report. The header records
//! `available_parallelism`: with fewer cores than threads, the thread sweep
//! measures scheduling overhead and no wall-clock speedup can appear.

use std::path::PathBuf;
use std::time::Instant;

use mrcc::{merge, search, BetaCluster, CorrelationCluster, MrCC, MrCCConfig, MrCCResult};
use mrcc_common::{BoundingBox, Dataset, SubspaceClustering};
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};
use serde_json::{json, Value};

/// Thread counts swept, serial first so later entries can report speedups.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Divisors of `--points` for the η sweeps, smallest η first.
const ETA_DIVISORS: [usize; 4] = [8, 4, 2, 1];

/// The comparable part of a fit: β-clusters, correlation clusters, labels.
type Output<'a> = (
    &'a [BetaCluster],
    &'a [CorrelationCluster],
    &'a SubspaceClustering,
);

fn output(fit: &MrCCResult) -> Output<'_> {
    (&fit.beta_clusters, &fit.clusters, &fit.clustering)
}

fn same_box(a: &BoundingBox, b: &BoundingBox) -> bool {
    a.dims() == b.dims()
        && (0..a.dims()).all(|j| {
            a.lower(j).to_bits() == b.lower(j).to_bits()
                && a.upper(j).to_bits() == b.upper(j).to_bits()
        })
}

/// True iff `a` and `b` agree in every field, floats by bit pattern: the
/// labels; each β's level, centre, bounds, axes, `axis_stats` and
/// `relevance_threshold`; each cluster's axes, members, size and hull.
fn same_result(a: Output<'_>, b: Output<'_>) -> bool {
    let ((a_betas, a_clusters, a_labels), (b_betas, b_clusters, b_labels)) = (a, b);
    a_labels.labels() == b_labels.labels()
        && a_betas.len() == b_betas.len()
        && a_betas.iter().zip(b_betas).all(|(x, y)| {
            x.level == y.level
                && x.center_coords == y.center_coords
                && same_box(&x.bounds, &y.bounds)
                && x.axes == y.axes
                && x.relevance_threshold.to_bits() == y.relevance_threshold.to_bits()
                && x.axis_stats.len() == y.axis_stats.len()
                && x.axis_stats.iter().zip(&y.axis_stats).all(|(s, t)| {
                    s.neighborhood == t.neighborhood
                        && s.center == t.center
                        && s.critical == t.critical
                        && s.relevance.to_bits() == t.relevance.to_bits()
                })
        })
        && a_clusters.len() == b_clusters.len()
        && a_clusters.iter().zip(b_clusters).all(|(x, y)| {
            x.axes == y.axes
                && x.beta_indices == y.beta_indices
                && x.size == y.size
                && same_box(&x.hull, &y.hull)
        })
}

/// Best wall time of `runs` calls of `f`; `check` asserts on each output
/// before its time counts.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T, check: impl Fn(&T)) -> f64 {
    (0..runs)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let seconds = start.elapsed().as_secs_f64();
            check(&out);
            seconds
        })
        .fold(f64::INFINITY, f64::min)
}

fn spec_json(spec: &SyntheticSpec) -> Value {
    json!({
        "dims": spec.dims,
        "points": spec.n_points,
        "clusters": spec.n_clusters,
        "noise": spec.noise_fraction,
        "seed": spec.seed,
    })
}

/// Tree build and full fit at every thread count, against serial.
fn threads_section(ds: &Dataset, runs: usize) -> Vec<Value> {
    let resolutions = MrCCConfig::default().resolutions;
    let serial_tree = CountingTree::build(ds, resolutions).expect("serial build");
    let serial_fit = MrCC::default().fit(ds).expect("serial fit");
    let (mut serial_tree_s, mut serial_fit_s) = (0.0, 0.0);
    THREADS
        .iter()
        .map(|&t| {
            let tree_s = best_of(
                runs,
                || CountingTree::build_sharded(ds, resolutions, t).expect("sharded build"),
                |tree| assert!(tree.identical(&serial_tree), "tree at {t} threads differs"),
            );
            let method = MrCC::new(MrCCConfig::default().with_threads(t));
            let fit_s = best_of(
                runs,
                || method.fit(ds).expect("fit"),
                |fit| {
                    assert!(
                        same_result(output(fit), output(&serial_fit)),
                        "fit at {t} threads differs from serial"
                    );
                },
            );
            if t == 1 {
                (serial_tree_s, serial_fit_s) = (tree_s, fit_s);
            }
            println!(
                "threads={t}: tree {tree_s:.3}s (x{:.2}), fit {fit_s:.3}s (x{:.2})",
                serial_tree_s / tree_s,
                serial_fit_s / fit_s
            );
            json!({
                "threads": t,
                "tree_build_s": tree_s,
                "tree_speedup_vs_serial": serial_tree_s / tree_s,
                "fit_s": fit_s,
                "fit_speedup_vs_serial": serial_fit_s / fit_s,
                "identical_to_serial": true,
            })
        })
        .collect()
}

/// Phase three over growing prefixes of `ds` at a frozen β set, against
/// the oracle. Returns the β count and the samples.
fn merge_section(ds: &Dataset, runs: usize) -> (usize, Vec<Value>) {
    let config = MrCCConfig::default();
    let mut tree = CountingTree::build(ds, config.resolutions).expect("tree build");
    let betas = search::find_beta_clusters(&mut tree, &config);
    let mut smallest_cost = None;
    let samples = ETA_DIVISORS
        .iter()
        .map(|&f| {
            let n = (ds.len() / f).max(1);
            let prefix = ds.as_flat()[..n * ds.dims()].to_vec();
            let slice = Dataset::from_flat(ds.dims(), prefix).expect("prefix");
            let start = Instant::now();
            let (oracle_clusters, oracle_labels) =
                merge::build_correlation_clusters_oracle(&slice, &betas);
            let oracle_s = start.elapsed().as_secs_f64();
            let best = best_of(
                runs,
                || merge::build_correlation_clusters(&slice, &betas, 1),
                |(clusters, labels, _)| {
                    assert!(
                        same_result(
                            (&betas, clusters, labels),
                            (&betas, &oracle_clusters, &oracle_labels)
                        ),
                        "merge at η={n} differs from the oracle"
                    );
                },
            );
            let cost = best / n as f64;
            let linearity_ratio = cost / *smallest_cost.get_or_insert(cost);
            println!(
                "merge η={n:>7}: {best:.4}s (oracle {oracle_s:.4}s, x{:.1}), linearity {linearity_ratio:.2}",
                oracle_s / best
            );
            json!({
                "points": n,
                "best_s": best,
                "points_per_second": n as f64 / best,
                "oracle_s": oracle_s,
                "speedup_vs_oracle": oracle_s / best,
                "linearity_ratio": linearity_ratio,
                "identical_to_oracle": true,
            })
        })
        .collect();
    (betas.len(), samples)
}

/// One `scaling` row: the best of `runs` fits of `spec` at `resolutions`.
fn scaling_row(sweep: &str, spec: &SyntheticSpec, resolutions: usize, runs: usize) -> Value {
    let ds = generate(spec).dataset;
    let method = MrCC::new(MrCCConfig {
        resolutions,
        ..MrCCConfig::default()
    });
    let first = method.fit(&ds).expect("fit");
    let mut stats = first.stats.clone();
    for _ in 1..runs {
        let fit = method.fit(&ds).expect("fit");
        assert!(
            same_result(output(&fit), output(&first)),
            "{sweep} row differs between runs"
        );
        if fit.stats.total_time() < stats.total_time() {
            stats = fit.stats;
        }
    }
    println!(
        "scaling {sweep:<11} η={:>7} d={:>2} H={resolutions:>2}: fit {:.3}s",
        spec.n_points,
        spec.dims,
        stats.total_time().as_secs_f64()
    );
    json!({
        "sweep": sweep,
        "workload": spec_json(spec),
        "resolutions": resolutions,
        "tree_build_s": stats.tree_build.as_secs_f64(),
        "beta_search_s": stats.beta_search.as_secs_f64(),
        "merge_s": stats.merge_phase.as_secs_f64(),
        "fit_s": stats.total_time().as_secs_f64(),
        "tree_memory_bytes": stats.tree_memory_bytes,
        "beta_clusters": first.beta_clusters.len(),
        "clusters": first.n_clusters(),
        "identical_across_runs": true,
    })
}

fn main() {
    let mut n_points = 100_000usize;
    let mut runs = 3usize;
    let mut out = PathBuf::from("BENCH_fit.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--points", Some(v)) => n_points = v.parse().expect("--points needs an integer"),
            ("--runs", Some(v)) => {
                runs = v.parse::<usize>().expect("--runs needs an integer").max(1);
            }
            ("--out", Some(v)) => out = v.into(),
            _ => {
                eprintln!("usage: fit [--points N] [--runs R] [--out FILE]");
                std::process::exit(2);
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("fit bench: η up to {n_points}, best of {runs}, {cores} core(s) available");
    let spec = SyntheticSpec::new("fit", 10, n_points, 4, 0.15, 42);
    let ds = generate(&spec).dataset;
    let threads = threads_section(&ds, runs);
    let (beta_clusters, merge) = merge_section(&ds, runs);

    let quarter = (n_points / 4).max(1);
    let mut scaling: Vec<Value> = ETA_DIVISORS
        .iter()
        .map(|&f| {
            let spec = SyntheticSpec::new("points", 10, (n_points / f).max(1), 4, 0.15, 11);
            scaling_row("points", &spec, 4, runs)
        })
        .collect();
    for d in [5, 10, 20, 30] {
        let spec = SyntheticSpec::new("dims", d, quarter, 4, 0.15, 12);
        scaling.push(scaling_row("dims", &spec, 4, runs));
    }
    let spec_h = SyntheticSpec::new("resolutions", 10, quarter, 4, 0.15, 13);
    for h in [4, 8, 16, 32] {
        scaling.push(scaling_row("resolutions", &spec_h, h, runs));
    }

    let report = json!({
        "runs": runs,
        "available_parallelism": cores,
        "threads": json!({
            "workload": spec_json(&spec),
            "resolutions": MrCCConfig::default().resolutions,
            "samples": threads,
        }),
        "merge": json!({
            "workload": spec_json(&spec),
            "beta_clusters": beta_clusters,
            "samples": merge,
        }),
        "scaling": scaling,
    });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, text).expect("write report");
    println!("wrote {}", out.display());
}
