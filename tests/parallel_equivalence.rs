//! Serial ↔ parallel equivalence layer.
//!
//! The parallel pipeline (sharded Counting-tree build + chunked merge scan)
//! promises **bit-identical** output to a serial fit for every thread
//! count — not "statistically the same", the exact same `MrCCResult`. These
//! tests pin that contract on random workloads (proptest), on degenerate
//! shard geometries (fewer points than workers, single points, all-noise
//! data), and on every thread count in `{2, 3, 8}` plus an optional
//! CI-supplied count from the `MRCC_TEST_THREADS` environment variable.
//!
//! Floats are compared through [`f64::to_bits`]: equality of representation,
//! not approximate closeness, is the claim under test.

use mrcc_repro::prelude::*;

/// Thread counts every test sweeps; `MRCC_TEST_THREADS` appends one more.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![2usize, 3, 8];
    if let Ok(v) = std::env::var("MRCC_TEST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Panics unless `a` and `b` are the same fit output bit-for-bit
/// (timings in `stats` excluded — they are the one legitimately
/// nondeterministic field).
fn assert_bit_identical(a: &MrCCResult, b: &MrCCResult, context: &str) {
    assert_eq!(
        a.clustering.labels(),
        b.clustering.labels(),
        "{context}: point labels differ"
    );
    assert_eq!(
        a.beta_clusters.len(),
        b.beta_clusters.len(),
        "{context}: β-cluster count differs"
    );
    for (k, (x, y)) in a
        .beta_clusters
        .iter()
        .zip(b.beta_clusters.iter())
        .enumerate()
    {
        assert_eq!(x.level, y.level, "{context}: β {k} level differs");
        assert_eq!(x.axes, y.axes, "{context}: β {k} axes differ");
        assert_eq!(
            x.center_coords, y.center_coords,
            "{context}: β {k} center differs"
        );
        assert_eq!(
            x.relevance_threshold.to_bits(),
            y.relevance_threshold.to_bits(),
            "{context}: β {k} relevance threshold differs"
        );
        for j in 0..x.bounds.dims() {
            assert_eq!(
                x.bounds.lower(j).to_bits(),
                y.bounds.lower(j).to_bits(),
                "{context}: β {k} lower bound {j} differs"
            );
            assert_eq!(
                x.bounds.upper(j).to_bits(),
                y.bounds.upper(j).to_bits(),
                "{context}: β {k} upper bound {j} differs"
            );
        }
        assert_eq!(
            x.axis_stats.len(),
            y.axis_stats.len(),
            "{context}: β {k} axis-stat count differs"
        );
        for (j, (s, t)) in x.axis_stats.iter().zip(y.axis_stats.iter()).enumerate() {
            assert_eq!(s.neighborhood, t.neighborhood, "{context}: β {k} stat {j}");
            assert_eq!(s.center, t.center, "{context}: β {k} stat {j}");
            assert_eq!(s.critical, t.critical, "{context}: β {k} stat {j}");
            assert_eq!(
                s.relevance.to_bits(),
                t.relevance.to_bits(),
                "{context}: β {k} stat {j} relevance differs"
            );
        }
    }
    assert_eq!(
        a.clusters.len(),
        b.clusters.len(),
        "{context}: correlation cluster count differs"
    );
    for (k, (x, y)) in a.clusters.iter().zip(b.clusters.iter()).enumerate() {
        assert_eq!(x.axes, y.axes, "{context}: γ {k} axes differ");
        assert_eq!(
            x.beta_indices, y.beta_indices,
            "{context}: γ {k} members differ"
        );
        assert_eq!(x.size, y.size, "{context}: γ {k} size differs");
        for j in 0..x.hull.dims() {
            assert_eq!(
                x.hull.lower(j).to_bits(),
                y.hull.lower(j).to_bits(),
                "{context}: γ {k} hull lower {j} differs"
            );
            assert_eq!(
                x.hull.upper(j).to_bits(),
                y.hull.upper(j).to_bits(),
                "{context}: γ {k} hull upper {j} differs"
            );
        }
    }
}

/// Fits `ds` serially and at every swept thread count, asserting each
/// parallel result is bit-identical to the serial one.
fn check_all_thread_counts(ds: &Dataset, context: &str) {
    let serial = MrCC::new(MrCCConfig::default()).fit(ds).unwrap();
    #[cfg(feature = "strict-invariants")]
    serial.check_invariants();
    for k in thread_counts() {
        let parallel = MrCC::new(MrCCConfig::default().with_threads(k))
            .fit(ds)
            .unwrap();
        assert_bit_identical(&serial, &parallel, &format!("{context} @ {k} threads"));
    }
}

mod random_workloads {
    use super::*;
    use proptest::prelude::*;

    /// Strategy: clustered synthetic workloads over the generator's seed /
    /// size / shape space — the same family the paper's evaluation draws
    /// from, scaled down for test time.
    fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
        (2usize..=8, 200usize..=1_500, 0usize..=3, 1u64..=1_000).prop_map(
            |(dims, points, clusters, seed)| {
                SyntheticSpec::new("pe", dims, points, clusters, 0.15, seed)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// `with_threads(k)` is a pure speed knob on random workloads.
        #[test]
        fn parallel_fit_is_bit_identical(spec in spec_strategy()) {
            let synth = generate(&spec);
            check_all_thread_counts(&synth.dataset, &spec.name);
        }
    }
}

#[test]
fn fewer_points_than_workers() {
    // 3 points, up to 8 workers: most shards are empty, some hold one point.
    let ds = Dataset::from_rows(&[[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]]).unwrap();
    check_all_thread_counts(&ds, "3 points");
}

#[test]
fn single_point_dataset() {
    let ds = Dataset::from_rows(&[[0.42, 0.17, 0.93]]).unwrap();
    check_all_thread_counts(&ds, "1 point");
}

#[test]
fn all_noise_dataset() {
    // Structure-free data: the β-cluster search finds nothing; every thread
    // count must agree on that nothing, too.
    let spec = SyntheticSpec::new("pe-noise", 6, 4_000, 0, 0.5, 9);
    let synth = generate(&spec);
    check_all_thread_counts(&synth.dataset, "all noise");
}

#[test]
fn clustered_workload_at_many_thread_counts() {
    // One richer workload swept across a denser thread grid than the
    // proptest (including counts above the chunk count, forcing idle
    // workers in the scan's work queue).
    let synth = generate(&SyntheticSpec::new("pe-dense", 8, 6_000, 4, 0.15, 77));
    let serial = MrCC::new(MrCCConfig::default())
        .fit(&synth.dataset)
        .unwrap();
    for k in [2usize, 3, 4, 5, 7, 8, 16, 64] {
        let parallel = MrCC::new(MrCCConfig::default().with_threads(k))
            .fit(&synth.dataset)
            .unwrap();
        assert_bit_identical(&serial, &parallel, &format!("dense @ {k} threads"));
    }
}
