//! Phase two: finding β-clusters (Algorithm 2).
//!
//! Starting at the coarsest useful resolution (level 2) and refining, the
//! search convolves the Laplacian mask over every not-yet-used cell that does
//! not share space with a previously found β-cluster, takes the cell with the
//! largest convolved value — the densest region at this resolution outside
//! known clusters — and checks whether it *stands out in a statistical
//! sense*: per axis, the points of the centre cell's parent neighborhood are
//! split into six consecutive equal-size regions, and the centre region's
//! count `cP_j` is tested one-sided against `Binomial(nP_j, 1/6)`. A cell
//! significant on at least one axis seeds a new β-cluster; its relevant axes
//! come from an MDL cut over the per-axis relevances and its bounds from the
//! centre cell refined by its face neighbors. After every find the search
//! restarts from level 2; it stops after a full sweep finds nothing.
//!
//! Cell counts never change during the search, so each level's eligible
//! cells are convolved and ranked once, when a sweep first reaches the
//! level, and every later sweep resumes a per-level cursor into that ranking
//! instead of re-convolving the level; `RankedLevel` says why the cursor
//! picks exactly the cells a full rescan would. The search is serial.

use std::cmp::Reverse;

use mrcc_common::{AxisMask, BoundingBox};
use mrcc_counting_tree::{Cell, CellId, CountingTree, Direction, Level};
use mrcc_stats::{binomial_critical_value, mdl_cut};

use crate::beta::{AxisStats, BetaCluster};
use crate::config::{AxisSelection, MaskKind, MrCCConfig};
use crate::convolution::convolve;

/// Number of consecutive equal-size regions the parent neighborhood is split
/// into along each axis (Section III-B): the parent's two halves plus the two
/// halves of each face neighbor.
pub const NEIGHBORHOOD_REGIONS: u64 = 6;

/// The uniform null hypothesis gives each of the six regions an equal share
/// of the neighborhood mass: `cP_j ~ Binomial(nP_j, 1/6)`.
pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;

/// Runs the full β-cluster search over a freshly built Counting-tree.
///
/// Each level `2..=H−1` is convolved and ranked once, when a sweep first
/// reaches it (see `RankedLevel`); each later sweep takes the first
/// still-eligible cell of that ranking instead of re-convolving the level.
/// The returned β-clusters, and the `usedCell` flags left on the tree, are
/// exactly those of the sweep-and-rescan formulation of Algorithm 2. The
/// search is serial: `config.threads` does not affect it.
pub fn find_beta_clusters(tree: &mut CountingTree, config: &MrCCConfig) -> Vec<BetaCluster> {
    let dims = tree.dims();
    let mut ranked: Vec<Option<RankedLevel>> = (2..=tree.deepest_level()).map(|_| None).collect();
    let mut betas: Vec<BetaCluster> = Vec::new();
    'search: loop {
        // One sweep from the coarsest convolvable level down.
        for (h, slot) in (2..).zip(&mut ranked) {
            let ranking = slot
                .get_or_insert_with(|| RankedLevel::new(tree.level(h), dims, &betas, config.mask));
            let Some(winner) = ranking.take_eligible(tree.level(h), dims, &betas) else {
                continue;
            };
            tree.level_mut(h).set_used(winner, true);
            if let Some(beta) = confirm_beta_cluster(tree, h, winner, config) {
                betas.push(beta);
                continue 'search; // restart at level 2 (Algorithm 2, line 2)
            }
        }
        break; // full sweep, no new β-cluster (line 31)
    }
    betas
}

/// One level's eligible cells ranked by convolved value, plus the search's
/// cursor into that ranking.
///
/// Ranking once is exact because nothing the ranking depends on changes
/// during the search: cell counts are fixed once the tree is built, and a
/// cell only ever goes from eligible to ineligible (its `usedCell` flag is
/// set, or a new β-box comes to share space with it). So a cell that is
/// ineligible when the level is ranked can be left out, a cell the cursor
/// has passed never needs revisiting, and the first eligible cell at or
/// after the cursor is exactly the winner of a full rescan: the maximum
/// under (convolved value descending, `CellId` ascending), which is the
/// serial scan's "first maximum wins" over ascending ids.
struct RankedLevel {
    /// The level's cells that were eligible when it was ranked, in rank
    /// order.
    order: Vec<CellId>,
    /// Position of the first cell not yet passed.
    cursor: usize,
}

impl RankedLevel {
    /// Convolves every eligible cell of `level` once and ranks them.
    fn new(level: &Level, dims: usize, betas: &[BetaCluster], mask: MaskKind) -> Self {
        let side = level.side();
        let mut keyed: Vec<(Reverse<i64>, CellId)> = level
            .iter()
            .filter(|(_, cell)| !cell.used() && !shares_space_with_any(*cell, side, dims, betas))
            .map(|(id, _)| (Reverse(convolve(level, id, dims, mask)), id))
            .collect();
        keyed.sort_unstable();
        let order = keyed.iter().map(|&(_, id)| id).collect();
        RankedLevel { order, cursor: 0 }
    }

    /// Moves the cursor past cells that share space with a β-box and returns
    /// the first eligible cell (the cursor moves past it too: the caller
    /// marks it used), or `None` when the level is spent. No cell ahead of
    /// the cursor is used: used cells were left out of the ranking, and the
    /// search marks only cells the cursor has passed.
    fn take_eligible(
        &mut self,
        level: &Level,
        dims: usize,
        betas: &[BetaCluster],
    ) -> Option<CellId> {
        let side = level.side();
        while let Some(&id) = self.order.get(self.cursor) {
            self.cursor += 1;
            let cell = level.cell(id);
            if !shares_space_with_any(cell, side, dims, betas) {
                return Some(id);
            }
        }
        None
    }
}

/// The sweep-and-rescan search this module used before ranking: every sweep
/// convolves every eligible cell of every level again and keeps the first
/// maximum in ascending id order. Kept as the equivalence oracle for
/// [`find_beta_clusters`]; compiled only for tests and under the
/// `search-oracle` feature.
#[cfg(any(test, feature = "search-oracle"))]
pub fn find_beta_clusters_oracle(tree: &mut CountingTree, config: &MrCCConfig) -> Vec<BetaCluster> {
    let mut betas: Vec<BetaCluster> = Vec::new();
    let h_max = tree.deepest_level();
    'search: loop {
        for h in 2..=h_max {
            let Some(winner) = scan_level_oracle(tree.level(h), tree.dims(), &betas, config) else {
                continue;
            };
            tree.level_mut(h).set_used(winner, true);
            if let Some(beta) = confirm_beta_cluster(tree, h, winner, config) {
                betas.push(beta);
                continue 'search;
            }
        }
        break;
    }
    betas
}

/// The oracle's full scan of one level: the unused, non-overlapping cell
/// with the largest convolved value, the lowest id on ties.
#[cfg(any(test, feature = "search-oracle"))]
fn scan_level_oracle(
    level: &Level,
    dims: usize,
    betas: &[BetaCluster],
    config: &MrCCConfig,
) -> Option<CellId> {
    let side = level.side();
    let mut best: Option<(CellId, i64)> = None;
    for (id, cell) in level.iter() {
        if cell.used() || shares_space_with_any(cell, side, dims, betas) {
            continue;
        }
        let value = convolve(level, id, dims, config.mask);
        if best.is_none_or(|(_, v)| value > v) {
            best = Some((id, value));
        }
    }
    best.map(|(id, _)| id)
}

/// The cell-vs-β-cluster share-space predicate (strict interior overlap; a
/// cell that merely touches a β-box face is outside it and stays eligible —
/// grid-aligned bounds make touching ubiquitous, see
/// [`BoundingBox::overlaps_strict`]).
fn shares_space_with_any(cell: Cell<'_>, side: f64, dims: usize, betas: &[BetaCluster]) -> bool {
    betas.iter().any(|beta| {
        (0..dims).all(|j| {
            cell.upper_bound(j, side) > beta.bounds.lower(j)
                && cell.lower_bound(j, side) < beta.bounds.upper(j)
        })
    })
}

/// Statistics of the six-region neighborhood of `winner` along every axis.
fn neighborhood_stats(tree: &CountingTree, h: usize, winner: CellId, alpha: f64) -> Vec<AxisStats> {
    let dims = tree.dims();
    let level = tree.level(h);
    let cell = level.cell(winner);
    let parent_level = tree.level(h - 1);
    let parent_coords = cell.parent_coords();
    #[expect(clippy::expect_used, reason = "parents of non-empty cells exist")]
    let parent_id = parent_level
        .find(&parent_coords)
        .expect("tree structure invariant: the parent of a non-empty cell is non-empty");
    let parent = parent_level.cell(parent_id);

    (0..dims)
        .map(|j| {
            // Predecessor + its two face neighbors along e_j (the paper's
            // internal and external neighbors N I / N E of a_{h−1}): three
            // consecutive level-(h−1) cells, i.e. six half-cell regions.
            let neighborhood = parent.n()
                + parent_level.neighbor_count(parent_id, j, Direction::Lower)
                + parent_level.neighbor_count(parent_id, j, Direction::Upper);
            // Centre region: the half of the parent that contains the winner.
            // Half-space count P[j] is the parent's lower half, so take it
            // directly when the winner's loc bit is 0, its complement when 1.
            let center = if cell.loc_bit(j) {
                parent.n() - parent.half_count(j)
            } else {
                parent.half_count(j)
            };
            let critical = binomial_critical_value(neighborhood, NULL_REGION_SHARE, alpha);
            let relevance = if neighborhood > 0 {
                100.0 * center as f64 / neighborhood as f64
            } else {
                0.0
            };
            AxisStats {
                neighborhood,
                center,
                critical,
                relevance,
            }
        })
        .collect()
}

/// Applies the significance test at `winner`; on success builds the full
/// β-cluster description (relevant axes + refined bounds).
fn confirm_beta_cluster(
    tree: &CountingTree,
    h: usize,
    winner: CellId,
    config: &MrCCConfig,
) -> Option<BetaCluster> {
    let stats = neighborhood_stats(tree, h, winner, config.alpha);
    if !stats.iter().any(AxisStats::significant) {
        return None;
    }
    let dims = tree.dims();

    // Relevant-axis threshold: an absolute majority-share cut (default) or
    // the paper's MDL cut floored by the effect-size guard (see
    // AxisSelection and MrCCConfig::relevance_floor).
    let cut = match config.axis_selection {
        AxisSelection::Mdl => {
            let mut ordered: Vec<f64> = stats.iter().map(|s| s.relevance).collect();
            #[expect(clippy::expect_used, reason = "relevance ratios are finite")]
            ordered.sort_by(|a, b| {
                a.partial_cmp(b)
                    .expect("relevance ratios are finite by construction invariant")
            });
            mdl_cut(&ordered).threshold.max(config.relevance_floor)
        }
        AxisSelection::Share(t) => t,
    };
    let axes = AxisMask::from_bools(&stats.iter().map(|s| s.relevance >= cut).collect::<Vec<_>>());
    if axes.is_empty() {
        // Statistically significant but with no usable effect on any axis —
        // a diffuse bump, not a cluster.
        return None;
    }

    // Bounds: irrelevant axes span [0,1]; relevant axes take the winner
    // cell's bounds, stretched by one cell side toward face neighbors that
    // hold a meaningful share of the cluster's mass (Algorithm 2, lines
    // 23–28, says "containing at least one point"; at realistic scales
    // background noise puts at least one point in *every* coarse neighbor,
    // which would balloon every box to three cells per axis — we require the
    // neighbor to carry at least a few percent of the centre cell's count,
    // which degenerates to the paper's ≥1 rule exactly when the centre is
    // small; see DESIGN.md).
    let level = tree.level(h);
    let cell = level.cell(winner);
    let side = level.side();
    let spill_threshold = (cell.n() / 20).max(1);
    let mut bounds = BoundingBox::unit(dims);
    for j in axes.iter() {
        let mut lo = cell.lower_bound(j, side);
        let mut hi = cell.upper_bound(j, side);
        if level.neighbor_count(winner, j, Direction::Lower) >= spill_threshold {
            lo = (lo - side).max(0.0);
        }
        if level.neighbor_count(winner, j, Direction::Upper) >= spill_threshold {
            hi = (hi + side).min(1.0);
        }
        bounds.set_lower(j, lo);
        bounds.set_upper(j, hi);
    }

    Some(BetaCluster {
        bounds,
        axes,
        level: h,
        center_coords: cell.coords(),
        axis_stats: stats,
        relevance_threshold: cut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::Dataset;

    /// ~1400 points: a tight 2-d Gaussian-ish blob plus a uniform grid of
    /// noise. The blob should produce exactly one β-cluster relevant on both
    /// axes.
    fn blob_and_noise() -> Dataset {
        let mut rows: Vec<[f64; 2]> = Vec::new();
        // Deterministic pseudo-random blob centred at (0.3, 0.7), σ ≈ 0.02.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..1000 {
            // Irwin–Hall(4) − 2 ≈ Gaussian(0, 0.577).
            let g1: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            let g2: f64 = (0..4).map(|_| next()).sum::<f64>() - 2.0;
            rows.push([
                (0.3 + 0.03 * g1).clamp(0.0, 0.999),
                (0.7 + 0.03 * g2).clamp(0.0, 0.999),
            ]);
        }
        for _ in 0..400 {
            rows.push([next() * 0.999, next() * 0.999]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn finds_the_blob_as_a_beta_cluster() {
        let ds = blob_and_noise();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        assert!(!betas.is_empty(), "no β-cluster found");
        // The first (densest) β-cluster covers the blob centre.
        let b = &betas[0];
        assert!(
            b.bounds.contains(&[0.3, 0.7]),
            "bounds {:?} miss the blob centre",
            b.bounds
        );
        assert!(b.axes.contains(0) && b.axes.contains(1));
    }

    #[test]
    fn uniform_data_yields_no_beta_cluster() {
        // A uniform grid has no density bump that can reject the null at
        // α = 1e−10.
        let mut rows = Vec::new();
        for i in 0..32 {
            for j in 0..32 {
                rows.push([i as f64 / 32.0, j as f64 / 32.0]);
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        assert!(
            betas.is_empty(),
            "found {} spurious β-clusters",
            betas.len()
        );
    }

    #[test]
    fn search_is_deterministic() {
        let ds = blob_and_noise();
        let run = || {
            let mut tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&mut tree, &MrCCConfig::default())
                .iter()
                .map(|b| (b.level, b.center_coords.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_search_equals_serial() {
        let ds = blob_and_noise();
        let describe = |betas: &[BetaCluster]| {
            betas
                .iter()
                .map(|b| {
                    (
                        b.level,
                        b.center_coords.clone(),
                        b.axes.iter().collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let serial = find_beta_clusters(&mut tree, &MrCCConfig::default());
        for threads in [2usize, 3, 8] {
            let mut tree = CountingTree::build_sharded(&ds, 4, threads).unwrap();
            let config = MrCCConfig::default().with_threads(threads);
            let parallel = find_beta_clusters(&mut tree, &config);
            assert_eq!(
                describe(&parallel),
                describe(&serial),
                "threads={threads} diverged"
            );
        }
    }

    /// Every field of every β-cluster, floats as bit patterns.
    fn fingerprint(betas: &[BetaCluster]) -> Vec<String> {
        betas
            .iter()
            .map(|b| {
                let bounds: Vec<(u64, u64)> = (0..b.bounds.dims())
                    .map(|j| (b.bounds.lower(j).to_bits(), b.bounds.upper(j).to_bits()))
                    .collect();
                let stats: Vec<(u64, u64, u64, u64)> = b
                    .axis_stats
                    .iter()
                    .map(|s| (s.neighborhood, s.center, s.critical, s.relevance.to_bits()))
                    .collect();
                format!(
                    "{} {:?} {:?} {:?} {} {:?}",
                    b.level,
                    b.center_coords,
                    b.axes.iter().collect::<Vec<_>>(),
                    bounds,
                    b.relevance_threshold.to_bits(),
                    stats
                )
            })
            .collect()
    }

    #[test]
    fn rank_order_is_value_desc_then_id_asc() {
        // A 4×4 grid with one point per cell: every interior cell has the
        // same convolved value, and so do all edge cells and all corners,
        // so each value class is one large tie.
        let mut rows = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                rows.push([(f64::from(i) + 0.5) / 4.0, (f64::from(j) + 0.5) / 4.0]);
            }
        }
        let ds = Dataset::from_rows(&rows).unwrap();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let level = tree.level(2);
        let ranked = RankedLevel::new(level, 2, &[], MaskKind::FaceOnly);
        let keyed: Vec<(i64, CellId)> = ranked
            .order
            .iter()
            .map(|&id| (convolve(level, id, 2, MaskKind::FaceOnly), id))
            .collect();
        assert_eq!(keyed.len(), level.n_cells());
        let distinct: std::collections::BTreeSet<i64> = keyed.iter().map(|k| k.0).collect();
        assert!(distinct.len() < keyed.len(), "fixture must contain ties");
        for pair in keyed.windows(2) {
            let ((va, ia), (vb, ib)) = (pair[0], pair[1]);
            assert!(va > vb || (va == vb && ia < ib), "{pair:?} out of order");
        }
    }

    #[test]
    fn rerun_after_reset_used_reproduces_the_search() {
        let ds = blob_and_noise();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let config = MrCCConfig::default();
        let first = find_beta_clusters(&mut tree, &config);
        tree.reset_used();
        let second = find_beta_clusters(&mut tree, &config);
        assert!(!first.is_empty());
        assert_eq!(fingerprint(&first), fingerprint(&second));
    }

    #[test]
    fn pre_used_cell_is_never_chosen() {
        let ds = blob_and_noise();
        let config = MrCCConfig::default();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let first = find_beta_clusters(&mut tree, &config);
        let target = &first[0];
        // Mark the first β-cluster's centre cell used before a fresh search.
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let level = tree.level(target.level);
        let id = level.find(&target.center_coords).unwrap();
        tree.level_mut(target.level).set_used(id, true);
        let betas = find_beta_clusters(&mut tree, &config);
        assert!(betas
            .iter()
            .all(|b| (b.level, &b.center_coords) != (target.level, &target.center_coords)));
    }

    #[test]
    fn beta_clusters_do_not_share_space_pairwise_centers() {
        // Found β-clusters carve space: no later centre cell may fall inside
        // an earlier β-cluster's box.
        let ds = blob_and_noise();
        let mut tree = CountingTree::build(&ds, 4).unwrap();
        let betas = find_beta_clusters(&mut tree, &MrCCConfig::default());
        for (i, b) in betas.iter().enumerate() {
            let side = (0.5f64).powi(b.level as i32);
            for earlier in &betas[..i] {
                let disjoint = (0..2).any(|j| {
                    let lo = b.center_coords[j] as f64 * side;
                    let hi = lo + side;
                    hi < earlier.bounds.lower(j) || lo > earlier.bounds.upper(j)
                });
                assert!(disjoint, "β-cluster {i} centre inside an earlier box");
            }
        }
    }

    #[test]
    fn loose_alpha_finds_more_clusters_than_tight_alpha() {
        let ds = blob_and_noise();
        let count = |alpha: f64| {
            let mut tree = CountingTree::build(&ds, 4).unwrap();
            find_beta_clusters(&mut tree, &MrCCConfig::with_params(alpha, 4)).len()
        };
        assert!(count(1e-2) >= count(1e-40));
    }
}
