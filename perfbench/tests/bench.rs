//! The benchmark's own tests, on tiny workloads.

use mrcc::MrCCConfig;
use mrcc_common::csv;
use mrcc_eval::{MemoryReport, TrackingAllocator};
use mrcc_perfbench::report::{parse_args, summary};
use mrcc_perfbench::run::{compose, heap_mb, run, Gate, Outcome};
use mrcc_perfbench::trace::Tracer;
use mrcc_perfbench::workload::{make_input, Workload, WORKLOADS};
use serde_json::Value;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn tiny(threads: usize) -> Workload {
    Workload {
        name: "tiny",
        dims: 5,
        points: 4000,
        clusters: 2,
        threads,
        claimed: (&["search.find"], None),
        reference: None,
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("name").to_string();
            (name, m["unit"].as_str().expect("unit").to_string())
        })
        .collect()
}

fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let Value::Object(metrics) = &summary(outcome)["metrics"] else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some(), "{name} has a numeric value");
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

fn record(outcome: &Outcome, key: &str) -> Value {
    outcome
        .record
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("record has {key}"))
        .1
        .clone()
}

#[test]
fn untraced_run_prints_every_end_to_end_metric_with_its_unit() {
    let outcome = run(&tiny(1), 3, 0.01, false).expect("tiny run");
    assert_eq!(outcome.failed, 0, "{:?}", record(&outcome, "gate"));
    assert_eq!(printed(&outcome), declared("end_to_end"));
    assert!(metric(&outcome, "peak_heap_mb") > 0.0);
    assert!(metric(&outcome, "quality") > 0.5);
}

#[test]
fn traced_run_prints_every_per_layer_metric_with_its_unit() {
    let outcome = run(&tiny(1), 3, 0.01, true).expect("tiny traced run");
    assert_eq!(outcome.failed, 0, "{:?}", record(&outcome, "gate"));
    assert_eq!(printed(&outcome), declared("per_layer"));
    assert_eq!(metric(&outcome, "merge.dataset_scans"), 1.0);
    assert!(metric(&outcome, "search.beta_clusters") >= 1.0);
}

#[test]
fn threaded_run_passes_the_gate() {
    let outcome = run(&tiny(2), 9, 0.01, false).expect("tiny run");
    assert_eq!(outcome.failed, 0, "{:?}", record(&outcome, "gate"));
    // The serial fit, three timed fits with their scan checks, and the soft
    // memberships.
    assert!(outcome.attempted >= 8, "{}", outcome.attempted);
}

#[test]
fn gate_fails_on_a_tampered_committed_digest() {
    let mut w = tiny(1);
    let honest = run(&w, 1, 0.01, false).expect("tiny run");
    let digests = record(&honest, "gate")["reference_digest"].clone();
    assert!(digests.as_str().is_some_and(|d| d.contains('/')));

    w.reference = Some((0xdead_beef, 0xfeed_face));
    let tampered = run(&w, 1, 0.01, false).expect("tiny run");
    assert_eq!(tampered.failed, 1);
    assert_eq!(summary(&tampered)["correct"], Value::Bool(false));
    let failures = record(&tampered, "gate")["failures"].clone();
    assert!(failures.to_string().contains("committed"), "{failures}");
}

#[test]
fn gate_fails_on_a_tampered_result() {
    let w = tiny(1);
    let input = make_input(&w, 5);
    let mut ds = csv::read_dataset(&input.csv[..]).expect("csv");
    ds.normalize_unit().expect("normalize");
    let config = MrCCConfig::default();
    let (result, _) = compose(&ds, &config, &mut Tracer::new(false)).expect("fit");
    let mut gate = Gate::new(input.perm.clone(), &result, &ds);
    gate.check("same result", Ok(&result));
    assert!(gate.failures.is_empty());

    let mut tampered = result.clone();
    let bounds = &mut tampered.beta_clusters[0].bounds;
    bounds.set_upper(0, f64::from_bits(bounds.upper(0).to_bits() - 1));
    gate.check("tampered result", Ok(&tampered));
    assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
}

#[test]
fn every_seed_reproduces_the_same_digest() {
    let w = tiny(1);
    let digest = |seed| {
        let outcome = run(&w, seed, 0.01, false).expect("tiny run");
        record(&outcome, "gate")["reference_digest"].clone()
    };
    let first = digest(1);
    for seed in [2, 77, u64::MAX] {
        assert_eq!(digest(seed), first, "seed {seed}");
    }
}

#[test]
fn probe_spans_lie_outside_the_fit() {
    let outcome = run(&tiny(1), 3, 0.01, true).expect("tiny traced run");
    let spans = record(&outcome, "spans");
    let spans = spans.as_array().expect("span list");
    let outside = |name: &str| {
        let matching: Vec<bool> = spans
            .iter()
            .filter(|s| s["name"].as_str() == Some(name))
            .map(|s| s["outside_fit"].as_bool().expect("flag"))
            .collect();
        assert!(!matching.is_empty(), "{name} recorded");
        matching.iter().all(|&o| o)
    };
    for probe in [
        "tree.merge_from",
        "tree.insert",
        "tree.neighbor",
        "search.convolve_pass",
        "stats.critical_value",
        "stats.mdl_cut",
        "common.boxindex_query",
    ] {
        assert!(outside(probe), "{probe} must be outside the fit");
    }
    for phase in ["fit", "tree.build", "search.find", "merge.build"] {
        assert!(!outside(phase), "{phase} must be inside the fit");
    }
    for s in spans {
        assert!(s["end_ns"].as_f64() >= s["start_ns"].as_f64());
        assert!(s.get("parent").is_some());
    }
    assert!(record(&outcome, "self_time_by_layer").is_array());
}

#[test]
fn peak_heap_is_an_error_without_the_tracking_allocator() {
    let untracked = MemoryReport {
        peak_bytes: 0,
        tracked: false,
    };
    assert!(heap_mb(&untracked).is_err());
    let tracked = MemoryReport {
        peak_bytes: 2_000_000,
        tracked: true,
    };
    assert_eq!(heap_mb(&tracked), Ok(2.0));
}

#[test]
fn benchmark_json_names_exactly_the_workloads() {
    let json = benchmark_json();
    let names: Vec<&str> = json["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    assert!(WORKLOADS.iter().all(|w| w.reference.is_some()));
}

#[test]
fn arguments_are_checked() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&args("--workload scan-d5 --seed 4 --seconds 2.5 --trace 1")).expect("ok");
    assert_eq!(
        (ok.workload.name, ok.seed, ok.seconds, ok.trace),
        ("scan-d5", 4, 2.5, true)
    );
    for bad in [
        "--workload nope --seed 4 --seconds 2 --trace 0",
        "--workload scan-d5 --seed -1 --seconds 2 --trace 0",
        "--workload scan-d5 --seed 4 --seconds 0 --trace 0",
        "--workload scan-d5 --seed 4 --seconds 2 --trace 2",
        "--workload scan-d5 --seed 4 --seconds 2",
        "--workload scan-d5 --seed 4 --seconds 2 --trace 0 --extra 1",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
