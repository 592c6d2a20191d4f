//! Property-based invariants of the Counting-tree, and its packed level
//! layout checked against a naive reference model.

use std::collections::HashMap;

use mrcc_common::Dataset;
use mrcc_counting_tree::{CountingTree, Direction};
use proptest::prelude::*;

/// Strategy: a random dataset with 1–200 points in 1–8 dimensions, all
/// coordinates in [0, 1).
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..=8).prop_flat_map(|d| {
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d..=d), 1..200)
            .prop_map(move |rows| Dataset::from_rows(&rows).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every level counts every point exactly once.
    #[test]
    fn levels_conserve_mass(ds in dataset_strategy(), h in 3usize..=7) {
        let tree = CountingTree::build(&ds, h).unwrap();
        #[cfg(feature = "strict-invariants")]
        tree.check_invariants();
        for level in tree.levels() {
            prop_assert_eq!(level.total_points(), ds.len() as u64);
        }
    }

    /// No level materializes more cells than there are points, and every
    /// cell is non-empty with coordinates inside the grid extent.
    #[test]
    fn cells_are_sparse_and_in_range(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        for level in tree.levels() {
            prop_assert!(level.n_cells() <= ds.len());
            for (_, cell) in level.iter() {
                prop_assert!(cell.n() >= 1);
                for c in cell.coords() {
                    prop_assert!(c < level.grid_extent());
                }
            }
        }
    }

    /// Half-space counts never exceed the cell count and the two halves sum
    /// to the whole: P[j] ∈ [0, n].
    #[test]
    fn half_space_counts_bounded(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        for level in tree.levels() {
            for (_, cell) in level.iter() {
                for j in 0..tree.dims() {
                    prop_assert!(cell.half_count(j) <= cell.n());
                }
            }
        }
    }

    /// Each cell's count equals the sum of its children's counts.
    #[test]
    fn parent_child_mass(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 5).unwrap();
        #[cfg(feature = "strict-invariants")]
        tree.check_invariants();
        let d = tree.dims();
        for h in 1..tree.deepest_level() {
            let level = tree.level(h);
            let child = tree.level(h + 1);
            // Accumulate child masses into parent keys.
            use std::collections::HashMap;
            let mut acc: HashMap<Vec<u64>, u64> = HashMap::new();
            for (_, cc) in child.iter() {
                let key: Vec<u64> = (0..d).map(|k| cc.coord(k) >> 1).collect();
                *acc.entry(key).or_insert(0) += cc.n();
            }
            for (_, cell) in level.iter() {
                prop_assert_eq!(acc.get(&cell.coords()).copied().unwrap_or(0), cell.n());
            }
        }
    }

    /// Face-neighbor relation is symmetric.
    #[test]
    fn neighbor_symmetry(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 4).unwrap();
        for level in tree.levels() {
            for (id, _) in level.iter() {
                for j in 0..tree.dims() {
                    if let Some(up) = level.neighbor(id, j, Direction::Upper) {
                        prop_assert_eq!(level.neighbor(up, j, Direction::Lower), Some(id));
                    }
                    if let Some(lo) = level.neighbor(id, j, Direction::Lower) {
                        prop_assert_eq!(level.neighbor(lo, j, Direction::Upper), Some(id));
                    }
                }
            }
        }
    }

    /// Sharded builds are bit-for-bit identical to serial builds for every
    /// thread count, including counts exceeding the point count.
    #[test]
    fn sharded_build_equals_serial(ds in dataset_strategy(), threads in 2usize..=9) {
        let serial = CountingTree::build(&ds, 4).unwrap();
        let sharded = CountingTree::build_sharded(&ds, 4, threads).unwrap();
        prop_assert!(sharded.identical(&serial));
        #[cfg(feature = "strict-invariants")]
        sharded.check_invariants();
    }

    /// The deepest level's cell bounds actually contain the points that were
    /// inserted: rebuild membership by brute force and compare counts.
    #[test]
    fn deepest_cells_contain_their_points(ds in dataset_strategy()) {
        let tree = CountingTree::build(&ds, 4).unwrap();
        let h = tree.deepest_level();
        let level = tree.level(h);
        let side = level.side();
        for (_, cell) in level.iter() {
            let brute = ds
                .iter()
                .filter(|p| {
                    (0..tree.dims()).all(|j| {
                        p[j] >= cell.lower_bound(j, side) && p[j] < cell.upper_bound(j, side)
                    })
                })
                .count() as u64;
            prop_assert_eq!(brute, cell.n());
        }
    }
}

/// A naive model of one level, built straight from the points: each cell's
/// coordinates (`⌊v·2^h⌋` per axis), point count and half-space counts, in
/// first-touch order, plus a coordinates → rank map.
#[derive(Default)]
struct ModelLevel {
    rank: HashMap<Vec<u64>, usize>,
    coords: Vec<Vec<u64>>,
    n: Vec<u64>,
    p: Vec<Vec<u64>>,
}

/// Grid coordinate of `v ∈ [0, 1)` at level `h` (scaling by a power of two
/// is exact, so the floor is too).
fn grid(v: f64, h: usize) -> u64 {
    (v * 2f64.powi(h as i32)).floor() as u64
}

/// The reference model of levels `1..H` of the tree over `ds`.
fn model(ds: &Dataset, resolutions: usize) -> Vec<ModelLevel> {
    (1..resolutions)
        .map(|h| {
            let mut m = ModelLevel::default();
            for point in ds.iter() {
                let coords: Vec<u64> = point.iter().map(|&v| grid(v, h)).collect();
                let r = match m.rank.get(&coords) {
                    Some(&r) => r,
                    None => {
                        m.rank.insert(coords.clone(), m.coords.len());
                        m.coords.push(coords);
                        m.n.push(0);
                        m.p.push(vec![0; ds.dims()]);
                        m.coords.len() - 1
                    }
                };
                m.n[r] += 1;
                for (slot, &v) in m.p[r].iter_mut().zip(point) {
                    // Lower half of the cell ⇔ even coordinate one level finer.
                    *slot += u64::from(grid(v, h + 1).is_multiple_of(2));
                }
            }
            m
        })
        .collect()
}

/// Checks every level against the model in arena order: coordinates via
/// `coord(j)`, `n`, `P`, `used` (expected set on every third cell),
/// `find`, and both face neighbors on every axis.
fn check_against_model(tree: &CountingTree, model: &[ModelLevel]) {
    let d = tree.dims();
    prop_assert_eq!(tree.levels().count(), model.len());
    for (level, m) in tree.levels().zip(model) {
        prop_assert_eq!(level.n_cells(), m.coords.len());
        let extent = level.grid_extent();
        for (id, cell) in level.iter() {
            let r = id as usize;
            let coords = &m.coords[r];
            for (j, &c) in coords.iter().enumerate() {
                prop_assert_eq!(cell.coord(j), c, "h={} cell {} axis {}", level.h(), r, j);
                prop_assert_eq!(cell.half_count(j), m.p[r][j]);
            }
            prop_assert_eq!(cell.n(), m.n[r]);
            prop_assert_eq!(cell.used(), r.is_multiple_of(3));
            prop_assert_eq!(level.find(coords), Some(id));
            for j in 0..d {
                let mut probe = coords.clone();
                for (dir, moved) in [
                    (Direction::Lower, coords[j].checked_sub(1)),
                    (
                        Direction::Upper,
                        Some(coords[j] + 1).filter(|&c| c < extent),
                    ),
                ] {
                    let expect = moved.and_then(|c| {
                        probe[j] = c;
                        m.rank.get(&probe).map(|&nr| nr as u32)
                    });
                    prop_assert_eq!(
                        level.neighbor(id, j, dir),
                        expect,
                        "h={} cell {} axis {} {:?}",
                        level.h(),
                        r,
                        j,
                        dir
                    );
                }
            }
        }
    }
}

/// Marks every third cell of every level used.
fn mark_every_third(tree: &mut CountingTree) {
    for h in 1..=tree.deepest_level() {
        let level = tree.level_mut(h);
        for id in (0..level.n_cells()).step_by(3) {
            level.set_used(id as u32, true);
        }
    }
}

/// Strategy: `1..40` points in `d` dimensions, drawn inside a box of side
/// `2^-g` (g ∈ 0..=10) so that cells at every level have materialized face
/// neighbors.
fn clustered_rows(d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        0i32..=10,
        proptest::collection::vec(0.0f64..1.0, d..=d),
        proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d..=d), 1..40),
    )
        .prop_map(|(g, base, offsets)| {
            let s = 2f64.powi(-g);
            offsets
                .into_iter()
                .map(|off| {
                    base.iter()
                        .zip(off)
                        .map(|(&b, o)| (b * (1.0 - s) + o * s).min(1.0 - f64::EPSILON))
                        .collect()
                })
                .collect()
        })
}

/// Builds serially and sharded, marks every third cell used, and checks
/// both trees against the model.
fn check_layout(rows: &[Vec<f64>], resolutions: usize) {
    let ds = Dataset::from_rows(rows).unwrap();
    let expected = model(&ds, resolutions);
    let mut serial = CountingTree::build(&ds, resolutions).unwrap();
    let mut sharded = CountingTree::build_sharded(&ds, resolutions, 3).unwrap();
    mark_every_third(&mut serial);
    mark_every_third(&mut sharded);
    check_against_model(&serial, &expected);
    check_against_model(&sharded, &expected);
    serial.reset_used();
    prop_assert!(serial.levels().all(|l| l.iter().all(|(_, c)| !c.used())));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// d ∈ 1..=40 and H ∈ 3..=12: one- and multi-word keys, with axes on
    /// both sides of every word boundary.
    #[test]
    fn levels_match_reference_model(
        rows in (1usize..=40).prop_flat_map(clustered_rows),
        resolutions in 3usize..=12,
    ) {
        check_layout(&rows, resolutions);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// H = 64, the largest tree: levels up to h = 63, one axis per word.
    #[test]
    fn deepest_resolution_matches_reference_model(rows in (1usize..=4).prop_flat_map(clustered_rows)) {
        check_layout(&rows, 64);
    }
}
