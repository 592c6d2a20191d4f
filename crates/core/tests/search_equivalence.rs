//! Rank-once β-cluster search ↔ sweep-and-rescan oracle equivalence.
//!
//! The rewritten phase two (`search::find_beta_clusters`) convolves and ranks
//! every level once and walks a per-level cursor; it promises the exact same
//! β-clusters as the superseded search that re-convolves every level on
//! every sweep, retained as `search::find_beta_clusters_oracle` behind the
//! `search-oracle` feature. Both the returned `Vec<BetaCluster>` (floats
//! compared through [`f64::to_bits`]) and the `usedCell` flags the search
//! leaves on the tree must match. These proptests pin that contract over
//! small generated workloads across `d`, `H`, `α`, both axis-selection rules
//! and both convolution masks, on trees built from `{1, 2, 3, 8}` shards plus
//! an optional CI-supplied count from `MRCC_TEST_THREADS` (the
//! `parallel-equivalence` job re-runs this file at 4 threads), with and
//! without `usedCell` flags set before the search starts.

use mrcc::beta::BetaCluster;
use mrcc::search::{find_beta_clusters, find_beta_clusters_oracle};
use mrcc::{AxisSelection, MaskKind, MrCCConfig};
use mrcc_common::Dataset;
use mrcc_counting_tree::CountingTree;
use mrcc_datagen::{generate, SyntheticSpec};
use proptest::prelude::*;

/// Thread counts every case sweeps; `MRCC_TEST_THREADS` appends one more.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 3, 8];
    if let Ok(v) = std::env::var("MRCC_TEST_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 && !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

/// Asserts two β-cluster lists are identical, floats bit for bit.
fn assert_same_betas(got: &[BetaCluster], want: &[BetaCluster], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: β-cluster count differs");
    for (k, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.level, y.level, "{context}: β {k} level differs");
        assert_eq!(
            x.center_coords, y.center_coords,
            "{context}: β {k} centre differs"
        );
        assert_eq!(x.axes, y.axes, "{context}: β {k} axes differ");
        assert_eq!(
            x.relevance_threshold.to_bits(),
            y.relevance_threshold.to_bits(),
            "{context}: β {k} relevance threshold differs"
        );
        assert_eq!(x.bounds.dims(), y.bounds.dims(), "{context}: β {k} dims");
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
        for (j, (s, t)) in x.axis_stats.iter().zip(&y.axis_stats).enumerate() {
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
}

/// Every level's `usedCell` flags in arena order.
fn used_flags(tree: &CountingTree) -> Vec<Vec<bool>> {
    tree.levels()
        .map(|level| level.iter().map(|(_, cell)| cell.used()).collect())
        .collect()
}

/// Sets the `usedCell` flag on every `stride`-th cell (offset by `offset`)
/// of every level from 2 down; `stride == 0` marks nothing.
fn pre_mark(tree: &mut CountingTree, stride: usize, offset: usize) {
    if stride == 0 {
        return;
    }
    for h in 2..=tree.deepest_level() {
        let level = tree.level_mut(h);
        let ids: Vec<_> = level.iter().map(|(id, _)| id).collect();
        for id in ids.into_iter().skip(offset % stride).step_by(stride) {
            level.set_used(id, true);
        }
    }
}

/// Runs the oracle on a serial tree and the ranked search on a tree built
/// from each swept shard count, all pre-marked alike, and asserts the
/// β-clusters and post-search `usedCell` flags agree.
fn run_case(ds: &Dataset, config: &MrCCConfig, stride: usize, offset: usize, context: &str) {
    let mut oracle_tree = CountingTree::build(ds, config.resolutions).unwrap();
    pre_mark(&mut oracle_tree, stride, offset);
    let oracle = find_beta_clusters_oracle(&mut oracle_tree, config);
    let oracle_used = used_flags(&oracle_tree);
    for threads in thread_counts() {
        let mut tree = CountingTree::build_sharded(ds, config.resolutions, threads).unwrap();
        pre_mark(&mut tree, stride, offset);
        let betas = find_beta_clusters(&mut tree, &config.clone().with_threads(threads));
        let context = format!("{context} @ {threads}t");
        assert_same_betas(&betas, &oracle, &context);
        assert_eq!(
            used_flags(&tree),
            oracle_used,
            "{context}: used flags differ"
        );
    }
}

/// Decodes the raw knobs into a configuration: `α` from a ladder spanning
/// loose to paper-strict, the MDL rule or a fixed share cut, and the full
/// mask only where its `3^d` cost stays small.
fn config(dims: usize, resolutions: usize, alpha: u8, selection: u8, full: bool) -> MrCCConfig {
    let alpha = [1e-2, 1e-4, 1e-6, 1e-10, 1e-20][usize::from(alpha % 5)];
    let selection = match selection % 4 {
        0 => AxisSelection::Mdl,
        1 => AxisSelection::Share(30.0),
        2 => AxisSelection::Share(45.0),
        _ => AxisSelection::Share(60.0),
    };
    let mask = if full && dims <= 6 {
        MaskKind::Full
    } else {
        MaskKind::FaceOnly
    };
    MrCCConfig::with_params(alpha, resolutions)
        .with_axis_selection(selection)
        .with_mask(mask)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small workloads: the ranked search must reproduce the oracle's
    /// β-clusters and `usedCell` flags at every shard count, with and
    /// without pre-set flags.
    #[test]
    fn ranked_search_matches_oracle(
        (dims, points, clusters, seed) in (2usize..=8, 100usize..=1_200, 0usize..=4, 1u64..=1_000),
        resolutions in 3usize..=5,
        (alpha, selection, full) in (0u8..=4, 0u8..=3, any::<bool>()),
        (stride, offset) in (0usize..=7, 0usize..=6),
    ) {
        let spec = SyntheticSpec::new("se", dims, points, clusters, 0.15, seed);
        let ds = generate(&spec).dataset;
        let config = config(dims, resolutions, alpha, selection, full);
        // Strides 1–2 would mark most of the tree; keep pre-marking sparse.
        let stride = if stride < 3 { 0 } else { stride };
        let context = format!(
            "d={dims} η={points} k={clusters} seed={seed} H={resolutions} {config:?} stride={stride}"
        );
        run_case(&ds, &config, stride, offset, &context);
    }
}

#[test]
fn full_mask_at_six_dimensions() {
    let ds = generate(&SyntheticSpec::new("se-full", 6, 1_500, 3, 0.15, 21)).dataset;
    for selection in [AxisSelection::Mdl, AxisSelection::Share(45.0)] {
        let config = MrCCConfig::default()
            .with_mask(MaskKind::Full)
            .with_axis_selection(selection);
        run_case(&ds, &config, 0, 0, &format!("full mask {selection:?}"));
    }
}

#[test]
fn pre_marked_winners_are_skipped() {
    // Pre-mark every cell the first search used, then search again: the
    // ranked cursor must skip all of them exactly as the rescan does.
    let ds = generate(&SyntheticSpec::new("se-used", 5, 2_000, 3, 0.15, 5)).dataset;
    let config = MrCCConfig::with_params(1e-4, 4);
    let mut first = CountingTree::build(&ds, 4).unwrap();
    let found = find_beta_clusters(&mut first, &config);
    assert!(!found.is_empty(), "fixture must yield β-clusters");
    let marks = used_flags(&first);
    let mark = |tree: &mut CountingTree| {
        for (h, flags) in (1..).zip(&marks) {
            let level = tree.level_mut(h);
            let ids: Vec<_> = level.iter().map(|(id, _)| id).collect();
            for (id, &used) in ids.into_iter().zip(flags) {
                level.set_used(id, used);
            }
        }
    };
    let mut oracle_tree = CountingTree::build(&ds, 4).unwrap();
    mark(&mut oracle_tree);
    let oracle = find_beta_clusters_oracle(&mut oracle_tree, &config);
    for threads in thread_counts() {
        let mut tree = CountingTree::build_sharded(&ds, 4, threads).unwrap();
        mark(&mut tree);
        let betas = find_beta_clusters(&mut tree, &config);
        assert_same_betas(&betas, &oracle, &format!("re-search @ {threads}t"));
        assert_eq!(used_flags(&tree), used_flags(&oracle_tree));
    }
}

#[test]
fn structure_free_and_tiny_inputs() {
    let noise = generate(&SyntheticSpec::new("se-noise", 4, 3_000, 0, 0.5, 9)).dataset;
    run_case(&noise, &MrCCConfig::default(), 0, 0, "all noise");
    let single = Dataset::from_rows(&[[0.42, 0.17, 0.93]]).unwrap();
    run_case(&single, &MrCCConfig::default(), 0, 0, "1 point");
    let three = Dataset::from_rows(&[[0.1, 0.2], [0.5, 0.6], [0.9, 0.1]]).unwrap();
    run_case(&three, &MrCCConfig::with_params(1e-2, 3), 3, 1, "3 points");
}
