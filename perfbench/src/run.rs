//! One benchmark run: set-up, correctness gate, then either the untraced
//! end-to-end measurement or the traced per-layer measurement.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mrcc::convolution::convolve;
use mrcc::search::NULL_REGION_SHARE;
use mrcc::{dataset_scan_count, merge, search, FitStats, MrCC, MrCCConfig, MrCCResult};
use mrcc_common::parallel::shard_ranges;
use mrcc_common::{csv, BoundingBox, BoxIndex, Dataset, SubspaceClustering};
use mrcc_counting_tree::{CountingTree, Direction};
use mrcc_eval::{measure_peak, quality, subspace_quality, MemoryReport};
use mrcc_stats::{binomial_critical_value, mdl_cut};
use serde_json::{json, Value};

use crate::digest::{digest, soft_digest};
use crate::trace::{Span, Tracer, FIT};
use crate::workload::{make_input, Workload};

/// Ingest repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed operations per untraced run, whatever `--seconds` says.
pub const MIN_SAMPLES: usize = 3;
/// After each timed operation, `soft_memberships` runs at least once and
/// for this share of the operation's time; `soft_s` is the median.
pub const SOFT_SHARE: f64 = 0.25;
/// Each statistics replay repeats until it has run this long, so that the
/// per-call figure is not a handful of clock ticks.
pub const REPLAY_BUDGET: Duration = Duration::from_millis(20);

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations checked by the gate.
    pub attempted: u64,
    /// Checked operations that errored or failed the gate.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Self-describing run record: samples, gate outcome, spans.
    pub record: Vec<(String, Value)>,
}

/// The correctness gate: every checked result must reproduce the run's
/// reference composition bit for bit.
#[derive(Debug)]
pub struct Gate {
    perm: Vec<usize>,
    /// Digest of the reference composition's result.
    pub reference: u64,
    /// Digest of the reference result's soft memberships.
    pub soft_reference: u64,
    attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Gate {
    /// A gate for results on data with axis permutation `perm`.
    pub fn new(perm: Vec<usize>, reference: &MrCCResult, ds: &Dataset) -> Self {
        Gate {
            reference: digest(reference, &perm),
            soft_reference: soft_digest(&reference.soft_memberships(ds)),
            perm,
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one checked operation; records `what` as a failure unless `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }

    /// Checks a fit-like result against the reference digest.
    pub fn check(&mut self, what: &str, result: Result<&MrCCResult, &mrcc_common::Error>) {
        match result {
            Ok(r) => {
                let ok = digest(r, &self.perm) == self.reference;
                self.expect(&format!("{what}: digest differs from the reference"), ok);
            }
            Err(e) => self.expect(&format!("{what}: {e}"), false),
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak heap of one measured operation in MB, or an error when no
/// tracking allocator serves the process (a 0 would read as a real figure).
pub fn heap_mb(report: &MemoryReport) -> Result<f64, String> {
    if report.tracked {
        Ok(report.peak_bytes as f64 / 1e6)
    } else {
        Err("peak_heap_mb needs mrcc_eval::TrackingAllocator as the global allocator".into())
    }
}

fn ns_per(secs: f64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        secs * 1e9 / calls as f64
    }
}

/// `csv::read_dataset` then `Dataset::normalize_unit`, as `mrcc cluster`
/// pays them.
fn ingest(bytes: &[u8], t: &mut Tracer) -> mrcc_common::Result<Dataset> {
    let mut ds = t.span("common.csv_parse", |_| csv::read_dataset(bytes))?;
    t.span("common.normalize", |_| ds.normalize_unit())?;
    Ok(ds)
}

fn result(
    beta_clusters: Vec<mrcc::BetaCluster>,
    merged: (
        Vec<mrcc::CorrelationCluster>,
        SubspaceClustering,
        mrcc::MergeCache,
    ),
    tree: &CountingTree,
) -> MrCCResult {
    let (clusters, clustering, merge_cache) = merged;
    MrCCResult {
        clustering,
        clusters,
        beta_clusters,
        merge_cache,
        // Phase times live in the spans; the digest ignores stats.
        stats: FitStats {
            tree_memory_bytes: tree.memory_bytes(),
            tree_build: Duration::ZERO,
            beta_search: Duration::ZERO,
            merge_phase: Duration::ZERO,
        },
    }
}

/// The fit assembled phase by phase from the public phase functions.
/// Returns the result and the searched tree.
pub fn compose(
    ds: &Dataset,
    config: &MrCCConfig,
    t: &mut Tracer,
) -> mrcc_common::Result<(MrCCResult, CountingTree)> {
    let mut tree = t.span("tree.build", |_| {
        CountingTree::build_sharded(ds, config.resolutions, config.threads)
    })?;
    let betas = t.span("search.find", |_| {
        search::find_beta_clusters(&mut tree, config)
    });
    let merged = t.span("merge.build", |_| {
        merge::build_correlation_clusters(ds, &betas, config.threads)
    });
    Ok((result(betas, merged, &tree), tree))
}

/// Runs workload `w` on the input drawn from `seed`, measuring for
/// `seconds`; `trace` selects the per-layer run.
///
/// # Errors
/// Fails when the input cannot be ingested or the heap cannot be measured;
/// a result that differs from the reference is not an error but a gate
/// failure in the outcome.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let input = make_input(w, seed);
    let config = MrCCConfig::default().with_threads(w.threads);
    let mut t = Tracer::new(trace);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ingested = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let ds = t
            .span("setup", |t| ingest(&input.csv, t))
            .map_err(|e| format!("ingest failed: {e}"))?;
        setup.push(start.elapsed().as_secs_f64());
        ingested = Some(ds);
    }
    let ds = ingested.expect("SETUP_REPS > 0");
    drop(input.csv);

    // Gate references: the phase-by-phase composition (which also warms
    // the caches), checked against the committed digest, and the serial
    // fit when the workload runs on several threads.
    let (reference, _) = compose(&ds, &config, &mut Tracer::new(false))
        .map_err(|e| format!("reference composition failed: {e}"))?;
    let perm = json!(input.perm.clone());
    let mut gate = Gate::new(input.perm, &reference, &ds);
    drop(reference);
    if let Some(committed) = w.reference {
        gate.expect(
            "reference composition: digest differs from the committed one",
            (gate.reference, gate.soft_reference) == committed,
        );
    }
    if w.threads > 1 {
        let serial = MrCC::new(config.clone().with_threads(1)).fit(&ds);
        gate.check("serial fit", serial.as_ref());
    }

    let mut bench = Bench {
        w,
        ds: &ds,
        config: &config,
        gate,
        record: vec![
            ("axis_permutation".into(), perm),
            ("setup_s_samples".into(), json!(setup.clone())),
        ],
    };
    let metrics = if trace {
        let mut layer = vec![
            metric(
                "common.csv_parse_s",
                median(&span_secs(&t, "common.csv_parse")),
                "s",
            ),
            metric(
                "common.normalize_s",
                median(&span_secs(&t, "common.normalize")),
                "s",
            ),
        ];
        layer.extend(bench.traced(seconds, &mut t)?);
        bench
            .record
            .push(("self_time_by_layer".into(), t.self_time_by_layer()));
        bench.record.push(("spans".into(), t.spans_json()));
        layer
    } else {
        let mut all = vec![metric("setup_s", median(&setup), "s")];
        all.extend(bench.untraced(seconds, &input.truth)?);
        all
    };

    let Bench {
        gate, mut record, ..
    } = bench;
    let failed = u64::try_from(gate.failures.len()).expect("failure count fits in u64");
    record.push((
        "gate".into(),
        json!({
            "reference_digest": hex_pair((gate.reference, gate.soft_reference)),
            "committed_digest": w.reference.map(hex_pair),
            "attempted": gate.attempted,
            "failed_frac": failed as f64 / gate.attempted.max(1) as f64,
            "failures": gate.failures.clone(),
        }),
    ));
    Ok(Outcome {
        attempted: gate.attempted,
        failed,
        metrics,
        record,
    })
}

fn hex_pair((fit, soft): (u64, u64)) -> String {
    format!("{fit:#018x}/{soft:#018x}")
}

fn span_secs(t: &Tracer, name: &str) -> Vec<f64> {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .collect()
}

/// A run's state once its input is ingested and its reference is known.
struct Bench<'a> {
    w: &'a Workload,
    ds: &'a Dataset,
    config: &'a MrCCConfig,
    gate: Gate,
    record: Vec<(String, Value)>,
}

impl Bench<'_> {
    /// Runs the measured operation, one untraced `MrCC::fit`. Returns the
    /// result, its wall time and its peak heap, then checks the result and
    /// the merge layer's one-pass contract.
    fn operation(&mut self, what: &str) -> (Option<MrCCResult>, Duration, MemoryReport) {
        let scans = dataset_scan_count();
        let ((result, elapsed), mem) = measure_peak(|| {
            let start = Instant::now();
            let r = MrCC::new(self.config.clone()).fit(self.ds);
            (r, start.elapsed())
        });
        self.gate.check(what, result.as_ref());
        self.gate.expect(
            &format!("{what}: merge made other than one dataset pass"),
            dataset_scan_count() - scans == 1,
        );
        (result.ok(), elapsed, mem)
    }

    /// End-to-end measurement with tracing off: rounds of one timed
    /// operation followed by `soft_memberships` on the first result, for
    /// [`SOFT_SHARE`] of the operation's time, so that both see the same
    /// machine conditions. Rounds start while the previous round's length
    /// still fits in `seconds`.
    fn untraced(
        &mut self,
        seconds: f64,
        truth: &SubspaceClustering,
    ) -> Result<Vec<Metric>, String> {
        let (mut fit, mut heap, mut soft) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<MrCCResult> = None;
        let start = Instant::now();
        let mut round = 0.0;
        while fit.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() + round <= seconds {
            let round_start = Instant::now();
            let (result, elapsed, mem) = self.operation("timed fit");
            fit.push(elapsed.as_secs_f64());
            heap.push(heap_mb(&mem)?);
            if first.is_none() {
                first = result;
            }
            if let Some(r) = &first {
                let soft_start = Instant::now();
                loop {
                    let s = Instant::now();
                    let memberships = black_box(r.soft_memberships(self.ds));
                    soft.push(s.elapsed().as_secs_f64());
                    if soft.len() == 1 {
                        let ok = soft_digest(&memberships) == self.gate.soft_reference;
                        self.gate
                            .expect("soft memberships: digest differs from the reference", ok);
                    }
                    if soft_start.elapsed() >= elapsed.mul_f64(SOFT_SHARE) {
                        break;
                    }
                }
            }
            round = round_start.elapsed().as_secs_f64();
        }
        let result = first.ok_or("no timed fit succeeded")?;

        self.record
            .push(("fit_s_samples".into(), json!(fit.clone())));
        self.record
            .push(("soft_s_samples".into(), json!(soft.clone())));
        self.record
            .push(("peak_heap_mb_samples".into(), json!(heap.clone())));
        Ok(vec![
            metric("fit_s", median(&fit), "s"),
            metric("soft_s", median(&soft), "s"),
            metric("peak_heap_mb", median(&heap), "MB"),
            metric(
                "quality",
                quality(&result.clustering, truth).quality,
                "ratio",
            ),
            metric(
                "subspaces_quality",
                subspace_quality(&result.clustering, truth).quality,
                "ratio",
            ),
        ])
    }

    /// Per-layer measurement: cycles of (untraced operation, traced
    /// operation, probes) until `seconds` have passed; each metric is the
    /// median over cycles.
    fn traced(&mut self, seconds: f64, t: &mut Tracer) -> Result<Vec<Metric>, String> {
        let mut cycles: Vec<Vec<Metric>> = Vec::new();
        let mut overhead = Vec::new();
        let mut shares = Vec::new();
        let start = Instant::now();
        while cycles.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let (m, o, s) = self.cycle(t)?;
            cycles.push(m);
            overhead.push(o);
            shares.push(s);
        }
        let (claimed, min_share) = self.w.claimed;
        let share = median(&shares);
        self.record.push(("cycles".into(), json!(cycles.len())));
        self.record
            .push(("tracing_overhead_s_samples".into(), json!(overhead)));
        self.record.push((
            "claimed_phases".into(),
            json!({
                "spans": claimed.to_vec(),
                "share_of_fit": share,
                "min_share": min_share,
                "met": min_share.is_none_or(|m| share >= m),
            }),
        ));
        Ok(cycles[0]
            .iter()
            .enumerate()
            .map(|(i, first)| {
                let values: Vec<f64> = cycles.iter().map(|c| c[i].value).collect();
                metric(first.name, median(&values), first.unit)
            })
            .collect())
    }

    /// One traced cycle. Returns its metrics, the tracing overhead (traced
    /// fit's phase spans minus the untraced operation) and the share of the
    /// traced fit spent in the workload's claimed phases.
    fn cycle(&mut self, t: &mut Tracer) -> Result<(Vec<Metric>, f64, f64), String> {
        let untraced_s = self.operation("untraced fit").1.as_secs_f64();

        // The traced fit: the phase-by-phase composition on a fresh tree.
        let fit_id = t.spans().len();
        let (composed, dataset_scans) = t.span(FIT, |t| {
            let before = dataset_scan_count();
            let r = compose(self.ds, self.config, t);
            (r, dataset_scan_count() - before)
        });
        let (result, mut tree) = composed.map_err(|e| format!("traced composition failed: {e}"))?;
        self.gate.check("traced composition", Ok(&result));

        let fit_s = t.spans()[fit_id].secs();
        let phases: f64 = t.children(fit_id).map(Span::secs).sum();
        let claimed: f64 = self
            .w
            .claimed
            .0
            .iter()
            .map(|n| t.child_secs(fit_id, n))
            .sum();
        let build_s = t.child_secs(fit_id, "tree.build");
        let find_s = t.child_secs(fit_id, "search.find");
        let merge_s = t.child_secs(fit_id, "merge.build");

        let p = t.span("probe", |t| {
            probes(t, self.ds, self.config, &result, &mut tree, &mut self.gate)
        })?;
        let cells: usize = tree.levels().map(mrcc_counting_tree::Level::n_cells).sum();
        let metrics = vec![
            metric("common.boxindex_query_ns", p.boxindex_ns, "ns"),
            metric("tree.build_s", build_s, "s"),
            metric("tree.merge_from_s", p.merge_from_s, "s"),
            metric("tree.insert_ns", p.insert_ns, "ns"),
            metric("tree.neighbor_ns", p.neighbor_ns, "ns"),
            metric("tree.cells", cells as f64, "count"),
            metric("tree.memory_bytes", tree.memory_bytes() as f64, "bytes"),
            metric("search.find_s", find_s, "s"),
            metric("search.convolve_pass_s", p.convolve_pass_s, "s"),
            metric("search.convolve_ns", p.convolve_ns, "ns"),
            metric("search.pass_equiv", find_s / p.convolve_pass_s, "ratio"),
            metric(
                "search.beta_clusters",
                result.beta_clusters.len() as f64,
                "count",
            ),
            metric("stats.critical_value_ns", p.critical_ns, "ns"),
            metric("stats.mdl_cut_ns", p.mdl_ns, "ns"),
            metric("merge.build_s", merge_s, "s"),
            metric("merge.dataset_scans", dataset_scans as f64, "count"),
            metric("merge.clusters", result.clusters.len() as f64, "count"),
            metric("trace.overhead_s", phases - untraced_s, "s"),
        ];
        Ok((metrics, phases - untraced_s, claimed / fit_s))
    }
}

/// Figures of the probe spans: calls into single layers, outside the fit.
struct Probes {
    insert_ns: f64,
    merge_from_s: f64,
    neighbor_ns: f64,
    convolve_pass_s: f64,
    convolve_ns: f64,
    critical_ns: f64,
    mdl_ns: f64,
    boxindex_ns: f64,
}

/// Repeats `once` (which returns the calls it made) until [`REPLAY_BUDGET`]
/// has passed; returns the total calls.
fn replay(mut once: impl FnMut() -> usize) -> usize {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        let n = once();
        calls += n;
        if n == 0 || start.elapsed() >= REPLAY_BUDGET {
            return calls;
        }
    }
}

/// Times single-layer calls over the composed fit's `result` and searched
/// `tree`, checking what each call can be checked against.
fn probes(
    t: &mut Tracer,
    ds: &Dataset,
    config: &MrCCConfig,
    result: &MrCCResult,
    tree: &mut CountingTree,
    gate: &mut Gate,
) -> Result<Probes, String> {
    let err = |e: mrcc_common::Error| format!("probe failed: {e}");
    let (d, n, h) = (ds.dims(), ds.len(), config.resolutions);
    tree.reset_used();

    // CountingTree::insert, point by point into an empty tree.
    let mut fresh = CountingTree::empty(d, h).map_err(err)?;
    let (inserted, insert_s) = t.timed("tree.insert", |_| {
        ds.iter().try_for_each(|p| fresh.insert(p))
    });
    gate.expect(
        "inserted tree differs from the built one",
        inserted.is_ok() && fresh.identical(tree),
    );
    drop(fresh);

    // CountingTree::merge_from over per-shard trees (at least two shards).
    let flat = ds.as_flat();
    let mut shards = shard_ranges(n, config.threads.max(2))
        .into_iter()
        .map(|r| {
            Dataset::from_flat(d, flat[r.start * d..r.end * d].to_vec())
                .and_then(|part| CountingTree::build(&part, h))
        })
        .collect::<mrcc_common::Result<Vec<_>>>()
        .map_err(err)?;
    let mut merged = shards.remove(0);
    let (absorbed, merge_from_s) = t.timed("tree.merge_from", |_| {
        shards.iter().try_for_each(|s| merged.merge_from(s))
    });
    gate.expect(
        "merged tree differs from the built one",
        absorbed.is_ok() && merged.identical(tree),
    );
    drop((merged, shards));

    // Level::neighbor: every face neighbor of every cell at the deepest level.
    let level = tree.level(tree.deepest_level());
    let (lookups, neighbor_s) = t.timed("tree.neighbor", |_| {
        let mut lookups = 0;
        for (id, _) in level.iter() {
            for axis in 0..d {
                for dir in [Direction::Lower, Direction::Upper] {
                    black_box(level.neighbor(id, axis, dir));
                    lookups += 1;
                }
            }
        }
        lookups
    });

    // convolution::convolve: one pass over every cell of levels >= 2.
    let (convolutions, convolve_pass_s) = t.timed("search.convolve_pass", |_| {
        let mut calls = 0;
        for lh in 2..=tree.deepest_level() {
            let level = tree.level(lh);
            for (id, _) in level.iter() {
                black_box(convolve(level, id, d, config.mask));
                calls += 1;
            }
        }
        calls
    });

    // mrcc-stats replays over the fit's β-cluster statistics.
    let tests: Vec<(u64, u64)> = result
        .beta_clusters
        .iter()
        .flat_map(|b| b.axis_stats.iter().map(|s| (s.neighborhood, s.critical)))
        .collect();
    let replayed = tests
        .iter()
        .all(|&(nb, crit)| binomial_critical_value(nb, NULL_REGION_SHARE, config.alpha) == crit);
    gate.expect("binomial critical value differs from the fit's", replayed);
    let (critical_calls, critical_s) = t.timed("stats.critical_value", |_| {
        replay(|| {
            for &(nb, _) in &tests {
                black_box(binomial_critical_value(
                    black_box(nb),
                    NULL_REGION_SHARE,
                    config.alpha,
                ));
            }
            tests.len()
        })
    });
    let relevances: Vec<Vec<f64>> = result
        .beta_clusters
        .iter()
        .map(|b| {
            let mut r: Vec<f64> = b.axis_stats.iter().map(|s| s.relevance).collect();
            r.sort_by(f64::total_cmp);
            r
        })
        .collect();
    let (mdl_calls, mdl_s) = t.timed("stats.mdl_cut", |_| {
        replay(|| {
            for r in &relevances {
                black_box(mdl_cut(black_box(r)));
            }
            relevances.len()
        })
    });

    // BoxIndex::containing for every point over the fit's β-boxes.
    let boxes: Vec<BoundingBox> = result
        .beta_clusters
        .iter()
        .map(|b| b.bounds.clone())
        .collect();
    let index = BoxIndex::new(&boxes);
    let mut out = Vec::new();
    let (hits, boxindex_s) = t.timed("common.boxindex_query", |_| {
        ds.iter()
            .map(|p| {
                index.containing(p, &mut out);
                out.len()
            })
            .sum::<usize>()
    });
    let cache = &result.merge_cache;
    let expected: usize = (0..cache.n_boxes()).map(|k| cache.box_count(k)).sum();
    gate.expect(
        "BoxIndex hits differ from the merge pass's box counts",
        hits == expected,
    );

    Ok(Probes {
        insert_ns: ns_per(insert_s, n),
        merge_from_s,
        neighbor_ns: ns_per(neighbor_s, lookups),
        convolve_pass_s,
        convolve_ns: ns_per(convolve_pass_s, convolutions),
        critical_ns: ns_per(critical_s, critical_calls),
        mdl_ns: ns_per(mdl_s, mdl_calls),
        boxindex_ns: ns_per(boxindex_s, n),
    })
}
