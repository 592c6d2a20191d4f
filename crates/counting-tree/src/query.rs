//! Range-count queries over the Counting-tree.
//!
//! The tree is a multi-resolution histogram, so it can answer "how many
//! points fall in this axis-aligned box?" without touching the data:
//! exactly when the box is aligned to some level's grid (every β-cluster
//! box is — their bounds are built from cell edges), and approximately for
//! arbitrary boxes by prorating the deepest level's partially-covered cells
//! by overlap volume.

use crate::tree::CountingTree;
use mrcc_common::num::{count_to_f64, trunc_to_u64};

/// How close to a grid line a bound must sit to count as aligned.
const ALIGN_EPS: f64 = 1e-9;

impl CountingTree {
    /// Exact count of points inside `[lower_j, upper_j)` for every axis,
    /// provided the box aligns with level `h`'s grid (all bounds sit on
    /// multiples of `1/2^h`). Returns `None` when any bound is off-grid.
    ///
    /// Runs in `O(cells at level h)` — it scans the level's materialized
    /// cells and sums those inside the box; no point data is touched.
    ///
    /// # Panics
    /// Panics when the bounds' length differs from the tree's
    /// dimensionality, any `lower > upper`, or `h` is out of range.
    pub fn count_in_aligned_box(&self, h: usize, lower: &[f64], upper: &[f64]) -> Option<u64> {
        assert_eq!(lower.len(), self.dims(), "bounds dimensionality mismatch");
        assert_eq!(upper.len(), self.dims(), "bounds dimensionality mismatch");
        let level = self.level(h);
        let extent = level.grid_extent();
        let side = level.side();

        // Convert bounds to integer grid coordinates; reject off-grid.
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        for (j, (&lb, &ub)) in lower.iter().zip(upper).enumerate() {
            assert!(lb <= ub, "axis {j}: inverted bounds");
            let l = lb / side;
            let u = ub / side;
            if (l - l.round()).abs() > ALIGN_EPS || (u - u.round()).abs() > ALIGN_EPS {
                return None;
            }
            lo.push(trunc_to_u64(l.round()).min(extent));
            hi.push(trunc_to_u64(u.round()).min(extent));
        }

        let mut total = 0u64;
        for (_, cell) in level.iter() {
            let inside = lo
                .iter()
                .zip(&hi)
                .enumerate()
                .all(|(j, (&l, &u))| (l..u).contains(&cell.coord(j)));
            if inside {
                total += cell.n();
            }
        }
        Some(total)
    }

    /// Approximate count of points inside an arbitrary box `[lower, upper)`:
    /// deepest-level cells fully inside count whole; partially-overlapped
    /// cells contribute their count prorated by overlap volume (a uniform-
    /// within-cell assumption). Error shrinks with the cell side `1/2^(H−1)`.
    ///
    /// # Panics
    /// Panics on mismatched bound lengths or inverted bounds.
    pub fn approx_count_in_box(&self, lower: &[f64], upper: &[f64]) -> f64 {
        assert_eq!(lower.len(), self.dims(), "bounds dimensionality mismatch");
        assert_eq!(upper.len(), self.dims(), "bounds dimensionality mismatch");
        let level = self.level(self.deepest_level());
        let side = level.side();
        let mut total = 0.0f64;
        'cell: for (_, cell) in level.iter() {
            let mut fraction = 1.0f64;
            for (j, (&lb, &ub)) in lower.iter().zip(upper).enumerate() {
                assert!(lb <= ub, "axis {j}: inverted bounds");
                let c_lo = cell.lower_bound(j, side);
                let c_hi = cell.upper_bound(j, side);
                let overlap = (ub.min(c_hi) - lb.max(c_lo)).max(0.0);
                if overlap <= 0.0 {
                    continue 'cell;
                }
                fraction *= overlap / side;
            }
            total += count_to_f64(cell.n()) * fraction;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrcc_common::Dataset;

    fn dataset() -> Dataset {
        // Deterministic scatter of 400 points.
        let mut state = 0x9A17u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows = Vec::new();
        for _ in 0..400 {
            rows.push([next() * 0.999, next() * 0.999]);
        }
        Dataset::from_rows(&rows).unwrap()
    }

    fn brute(ds: &Dataset, lower: &[f64], upper: &[f64]) -> u64 {
        ds.iter()
            .filter(|p| (0..2).all(|j| p[j] >= lower[j] && p[j] < upper[j]))
            .count() as u64
    }

    #[test]
    fn aligned_counts_are_exact() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 5).unwrap();
        for h in 1..=4 {
            let side = (0.5f64).powi(h as i32);
            // Several aligned boxes per level.
            for (a, b, c, d) in [(0, 1, 0, 1), (0, 2, 1, 2), (1, 2, 0, 2)] {
                let lower = [a as f64 * side, c as f64 * side];
                let upper = [b as f64 * side, d as f64 * side];
                let got = tree.count_in_aligned_box(h, &lower, &upper).unwrap();
                assert_eq!(
                    got,
                    brute(&ds, &lower, &upper),
                    "h={h} box {lower:?}..{upper:?}"
                );
            }
        }
    }

    #[test]
    fn whole_cube_counts_everything() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let got = tree
            .count_in_aligned_box(2, &[0.0, 0.0], &[1.0, 1.0])
            .unwrap();
        assert_eq!(got, ds.len() as u64);
    }

    #[test]
    fn off_grid_bounds_return_none() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 4).unwrap();
        assert!(tree
            .count_in_aligned_box(2, &[0.1, 0.0], &[0.5, 1.0])
            .is_none());
        assert!(tree
            .count_in_aligned_box(2, &[0.25, 0.0], &[0.6, 1.0])
            .is_none());
        assert!(tree
            .count_in_aligned_box(2, &[0.25, 0.0], &[0.5, 1.0])
            .is_some());
    }

    #[test]
    fn approx_count_tracks_brute_force() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 6).unwrap();
        for (lower, upper) in [
            ([0.1, 0.2], [0.6, 0.9]),
            ([0.33, 0.0], [0.34, 1.0]),
            ([0.0, 0.0], [1.0, 1.0]),
        ] {
            let exact = brute(&ds, &lower, &upper) as f64;
            let approx = tree.approx_count_in_box(&lower, &upper);
            // Proration error bounded by points in boundary cells.
            let tolerance = 0.15 * ds.len() as f64 * (upper[0] - lower[0]).max(0.05);
            assert!(
                (approx - exact).abs() <= tolerance.max(8.0),
                "box {lower:?}..{upper:?}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_box_counts_zero() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let z = tree.approx_count_in_box(&[0.4, 0.4], &[0.4, 0.4]);
        assert_eq!(z, 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_width_panics() {
        let ds = dataset();
        let tree = CountingTree::build(&ds, 4).unwrap();
        let _ = tree.count_in_aligned_box(2, &[0.0], &[1.0]);
    }
}
