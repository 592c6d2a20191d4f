//! A view of one Counting-tree cell.
//!
//! The paper's cell structure is `<loc, n, P[d], usedCell, ptr>`. Here `loc`
//! and `ptr` are subsumed by the absolute grid coordinates (see the crate
//! docs); `n`, `P[d]` and `usedCell` are stored verbatim. A level keeps its
//! cells as parallel arrays ([`crate::level`]), so a [`Cell`] is a `Copy`
//! view into them rather than an owned record.

use std::fmt;

use mrcc_common::num::grid_to_f64;

use crate::level::Level;

/// Index of a cell within its level's arena.
pub type CellId = u32;

/// A `d`-dimensional hyper-cube cell of side `1/2^h` at tree level `h`,
/// borrowed from its [`Level`] (see [`Level::cell`] and [`Level::iter`]).
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    /// The level the cell belongs to (for the key layout).
    pub(crate) level: &'a Level,
    /// The cell's packed grid coordinates.
    pub(crate) key: &'a [u64],
    /// Half-space counts: `p[j]` = points in the **lower** half of the cell
    /// along axis `e_j` (`a_h.P[j]`).
    pub(crate) p: &'a [u64],
    /// Number of points inside the cell (`a_h.n`).
    pub(crate) n: u64,
    /// The paper's `usedCell` flag.
    pub(crate) used: bool,
}

impl<'a> Cell<'a> {
    /// Absolute grid coordinate of axis `e_j`, in `[0, 2^h)`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub fn coord(&self, j: usize) -> u64 {
        self.level.key_field(self.key, j)
    }

    /// Absolute grid coordinates of the cell, one per axis. Allocates; hot
    /// paths read single axes with [`Cell::coord`].
    pub fn coords(&self) -> Vec<u64> {
        (0..self.p.len()).map(|j| self.coord(j)).collect()
    }

    /// Point count `n`.
    #[inline]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Half-space count `P[j]`: points in the lower half along axis `e_j`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub fn half_count(&self, j: usize) -> u64 {
        self.p[j]
    }

    /// All half-space counts.
    #[inline]
    pub fn half_counts(&self) -> &'a [u64] {
        self.p
    }

    /// The paper's `usedCell` flag.
    #[inline]
    pub fn used(&self) -> bool {
        self.used
    }

    /// Relative position bit (`loc`) of axis `e_j`: `true` when the cell sits
    /// in the **upper** half of its parent along `e_j`.
    #[inline]
    pub fn loc_bit(&self, j: usize) -> bool {
        self.coord(j) & 1 == 1
    }

    /// Coordinates of the immediate parent cell (one level up).
    pub fn parent_coords(&self) -> Vec<u64> {
        (0..self.p.len()).map(|j| self.coord(j) >> 1).collect()
    }

    /// Lower bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn lower_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coord(j)) * side
    }

    /// Upper bound of the cell on axis `e_j`, given the level's cell side.
    #[inline]
    pub fn upper_bound(&self, j: usize, side: f64) -> f64 {
        grid_to_f64(self.coord(j) + 1) * side
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("coords", &self.coords())
            .field("n", &self.n)
            .field("p", &self.p)
            .field("used", &self.used)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::level::tests::level_with;

    #[test]
    fn counting_updates_half_spaces() {
        // Level 2 counted from level-3 coordinates (`shift` 1): a point is in
        // the lower half along e_j iff its finer coordinate is even.
        let mut l = crate::level::Level::new(2, 2);
        let mut key = Vec::new();
        for fine in [[4, 6], [4, 7], [5, 7]] {
            l.count_point(&fine, 1, &mut key);
        }
        assert_eq!(l.n_cells(), 1);
        let c = l.cell(0);
        assert_eq!(c.coords(), [2, 3]);
        assert_eq!(c.n(), 3);
        assert_eq!(c.half_count(0), 2);
        assert_eq!(c.half_count(1), 1);
        assert_eq!(c.half_counts(), &[2, 1]);
        assert!(!c.used());
    }

    #[test]
    fn loc_bits_and_parent() {
        let l = level_with(3, &[&[5, 2, 7]]);
        let c = l.cell(0);
        assert!(c.loc_bit(0)); // 5 is odd → upper half of parent
        assert!(!c.loc_bit(1)); // 2 is even → lower half
        assert!(c.loc_bit(2));
        assert_eq!(c.coords(), [5, 2, 7]);
        assert_eq!(c.parent_coords(), [2, 1, 3]);
    }

    #[test]
    fn bounds_scale_with_side() {
        let l = level_with(2, &[&[3]]);
        let c = l.cell(0);
        let side = l.side(); // level 2
        assert!((c.lower_bound(0, side) - 0.75).abs() < 1e-12);
        assert!((c.upper_bound(0, side) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn used_flag_round_trips() {
        let mut l = level_with(2, &[&[0]]);
        assert!(!l.cell(0).used());
        l.set_used(0, true);
        assert!(l.cell(0).used());
    }

    #[test]
    #[should_panic]
    fn coord_out_of_range_panics() {
        let l = level_with(2, &[&[1, 2]]);
        let _ = l.cell(0).coord(2);
    }

    #[test]
    fn debug_prints_coordinates() {
        let l = level_with(2, &[&[1, 2]]);
        let s = format!("{:?}", l.cell(0));
        assert!(s.contains("coords: [1, 2]"), "{s}");
    }
}
