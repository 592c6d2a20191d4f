//! Sharded Counting-tree construction and exact partial-tree merging.
//!
//! The Counting-tree is a **purely additive** count structure: every cell
//! payload (`n`, the half-space vector `P[d]`) is a sum over the points that
//! fall into the cell, and no build-time decision depends on the counts seen
//! so far. Partial trees built over disjoint point shards therefore merge
//! *exactly* — cell by cell, adding `n` and `P[j]` — into the very tree a
//! serial [`CountingTree::build`] over the whole dataset produces.
//!
//! ## Determinism argument
//!
//! Bit-for-bit equality with the serial build — including the **arena order**
//! of every level, which downstream tie-breaking in the β-cluster search can
//! observe — holds because of three facts:
//!
//! 1. shards are **contiguous, index-ordered** point ranges
//!    ([`mrcc_common::parallel::shard_ranges`]), built into partial trees
//!    by [`mrcc_common::parallel::ordered_map`], which returns them in
//!    shard order;
//! 2. each partial level stores its cells in first-touch order of its own
//!    shard, and [`Level::absorb`] walks the donor's arena **in order**,
//!    looking each packed key up as is (levels with the same `h` and `d`
//!    share one key layout) and appending the cells not yet present;
//! 3. partial trees are merged in **ascending shard order**.
//!
//! A cell's position in the serial arena is the rank of the first point that
//! touches it. Since every point of shard `i` precedes every point of shard
//! `i+1`, merging shard arenas in shard order reproduces exactly that rank
//! order. Counts are sums of `u64`s — associative and order-insensitive — so
//! the payloads match bit-for-bit too. The `parallel_equivalence`
//! integration tests and the unit tests below assert both properties.

use mrcc_common::parallel::{ordered_map, shard_ranges};
use mrcc_common::{Dataset, Error, Result};

use crate::level::Level;
use crate::tree::CountingTree;

impl Level {
    /// Adds every cell of `other` (same level number and dimensionality)
    /// into this level: each donor cell's packed key is looked up as is,
    /// existing cells accumulate `n`/`P[j]` (and OR their `usedCell` flag),
    /// and missing cells are appended in the donor's arena order.
    ///
    /// Merging the shard levels of [`CountingTree::build_sharded`] in shard
    /// order reproduces the serial arena order exactly (see the module
    /// docs); absorbing in any other order yields the same cell *contents*
    /// but may permute the arena.
    ///
    /// # Panics
    /// Panics when the levels differ in `h` or in dimensionality.
    pub fn absorb(&mut self, other: &Level) {
        assert!(
            self.same_layout(other),
            "absorb requires levels with the same h and dimensionality"
        );
        for (_, cell) in other.iter() {
            let id = self.get_or_insert(cell.key);
            self.add_counts(id, cell.n(), cell.half_counts(), cell.used());
        }
    }
}

impl CountingTree {
    /// Merges another partial tree (same dimensionality and resolution
    /// count) into this one, level by level via [`Level::absorb`].
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when the trees index different spaces;
    /// [`Error::InvalidParameter`] when their resolution counts differ.
    pub fn merge_from(&mut self, other: &CountingTree) -> Result<()> {
        if self.dims != other.dims {
            return Err(Error::DimensionMismatch {
                expected: self.dims,
                got: other.dims,
            });
        }
        if self.resolutions != other.resolutions {
            return Err(Error::InvalidParameter {
                name: "resolutions",
                message: format!(
                    "cannot merge trees with H = {} and H = {}",
                    self.resolutions, other.resolutions
                ),
            });
        }
        for (mine, donor) in self.levels.iter_mut().zip(&other.levels) {
            mine.absorb(donor);
        }
        self.n_points += other.n_points;
        Ok(())
    }

    /// Builds one partial tree per contiguous point shard on `n_threads`
    /// workers ([`mrcc_common::parallel::ordered_map`]), then merges the
    /// partial trees in shard order.
    ///
    /// The result is **bit-for-bit identical** to [`CountingTree::build`] on
    /// the same dataset — same cells, same counts, same half-space vectors,
    /// same arena order (see the module docs for why) — so callers may
    /// switch thread counts freely without perturbing any downstream result.
    /// `n_threads <= 1` runs the serial build directly. A dataset with fewer
    /// points than threads gets one single-point shard per point.
    ///
    /// # Errors
    /// Exactly the errors of [`CountingTree::build`]: invalid `resolutions`,
    /// an empty dataset, or a coordinate outside `[0, 1)` (the reported
    /// error is the one the serial build would raise first).
    pub fn build_sharded(
        ds: &Dataset,
        resolutions: usize,
        n_threads: usize,
    ) -> Result<CountingTree> {
        if n_threads <= 1 {
            return CountingTree::build(ds, resolutions);
        }
        // Validate resolutions/dims up front so every worker would succeed
        // in constructing its empty partial tree.
        let probe = CountingTree::empty(ds.dims(), resolutions)?;
        if ds.is_empty() {
            return Err(Error::EmptyDataset);
        }
        let ranges = shard_ranges(ds.len(), n_threads.min(ds.len()));
        let partials = ordered_map(&ranges, n_threads, |range| -> Result<CountingTree> {
            let mut partial = CountingTree::empty(ds.dims(), resolutions)?;
            for i in range {
                partial.insert(ds.point(i))?;
            }
            Ok(partial)
        });

        // Reduce in shard order. The first error in shard order is the error
        // the serial build would hit first: workers scan their shard in
        // index order, so the lowest failing shard fails on the globally
        // first offending point.
        let mut merged = probe;
        for partial in partials {
            merged.merge_from(&partial?)?;
        }
        merged.shrink_to_fit();
        Ok(merged)
    }

    /// Order-**insensitive** structural equality: same shape (`d`, `η`, `H`)
    /// and, per level, the same set of materialized cells with the same
    /// count, half-space vector and `usedCell` flag — irrespective of arena
    /// order. This is the invariant merging shards in *any* order preserves.
    #[must_use]
    pub fn same_contents(&self, other: &CountingTree) -> bool {
        if self.dims != other.dims
            || self.n_points != other.n_points
            || self.resolutions != other.resolutions
        {
            return false;
        }
        self.levels.iter().zip(&other.levels).all(|(a, b)| {
            a.n_cells() == b.n_cells()
                && a.iter().all(|(_, cell)| {
                    b.lookup(cell.key).is_some_and(|id| {
                        let bc = b.cell(id);
                        bc.n() == cell.n()
                            && bc.half_counts() == cell.half_counts()
                            && bc.used() == cell.used()
                    })
                })
        })
    }

    /// Order-**sensitive** equality: [`CountingTree::same_contents`] plus
    /// identical arena order on every level (cell `i` of every level has the
    /// same coordinates in both trees). Two trees that are `identical` are
    /// indistinguishable to any downstream consumer, including consumers
    /// that break ties by [`crate::CellId`]; this is the property
    /// [`CountingTree::build_sharded`] guarantees against the serial build.
    #[must_use]
    pub fn identical(&self, other: &CountingTree) -> bool {
        self.same_contents(other)
            && self.levels.iter().zip(&other.levels).all(|(a, b)| {
                a.iter()
                    .zip(b.iter())
                    .all(|((_, ca), (_, cb))| ca.key == cb.key)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Direction;
    use mrcc_common::parallel::shard_ranges;

    /// Deterministic pseudo-random dataset with duplicate cell touches
    /// across shard boundaries.
    fn dataset(n: usize, dims: usize, seed: u64) -> Dataset {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dims).map(|_| next() * 0.999).collect())
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn partial_trees(ds: &Dataset, shards: usize, resolutions: usize) -> Vec<CountingTree> {
        shard_ranges(ds.len(), shards)
            .into_iter()
            .map(|range| {
                let mut t = CountingTree::empty(ds.dims(), resolutions).unwrap();
                for i in range {
                    t.insert(ds.point(i)).unwrap();
                }
                t
            })
            .collect()
    }

    #[test]
    fn sharded_build_is_identical_to_serial() {
        for &(n, threads) in &[(257usize, 2usize), (300, 3), (1000, 8), (50, 7)] {
            let ds = dataset(n, 3, 0xC0FFEE ^ n as u64);
            let serial = CountingTree::build(&ds, 5).unwrap();
            let sharded = CountingTree::build_sharded(&ds, 5, threads).unwrap();
            assert!(
                sharded.identical(&serial),
                "n={n} threads={threads}: sharded build diverged from serial"
            );
        }
    }

    #[test]
    fn degenerate_shards_merge_exactly() {
        // Fewer points than threads: surplus shards are empty.
        let ds = dataset(3, 2, 42);
        let serial = CountingTree::build(&ds, 4).unwrap();
        let sharded = CountingTree::build_sharded(&ds, 4, 8).unwrap();
        assert!(sharded.identical(&serial));
        assert_eq!(sharded.n_points(), 3);
        // Single point, many threads.
        let one = dataset(1, 2, 43);
        assert!(CountingTree::build_sharded(&one, 4, 16)
            .unwrap()
            .identical(&CountingTree::build(&one, 4).unwrap()));
    }

    #[test]
    fn merge_in_any_shard_order_gives_same_contents() {
        let ds = dataset(400, 3, 7);
        let serial = CountingTree::build(&ds, 5).unwrap();
        let shards = 5;
        // Try several shard permutations, including reversed.
        let orders: Vec<Vec<usize>> = vec![
            (0..shards).collect(),
            (0..shards).rev().collect(),
            vec![2, 0, 4, 1, 3],
            vec![4, 2, 0, 3, 1],
        ];
        for order in orders {
            let partials = partial_trees(&ds, shards, 5);
            let mut merged = CountingTree::empty(ds.dims(), 5).unwrap();
            for &s in &order {
                merged.merge_from(&partials[s]).unwrap();
            }
            assert!(
                merged.same_contents(&serial),
                "shard order {order:?} changed cell contents"
            );
            // In-order merging additionally reproduces the arena order.
            if order.windows(2).all(|w| w[0] < w[1]) {
                assert!(merged.identical(&serial));
            }
        }
    }

    #[test]
    fn out_of_order_merge_may_permute_arena_but_counts_survive() {
        let ds = dataset(200, 2, 99);
        let partials = partial_trees(&ds, 4, 4);
        let mut forward = CountingTree::empty(2, 4).unwrap();
        let mut backward = CountingTree::empty(2, 4).unwrap();
        for p in &partials {
            forward.merge_from(p).unwrap();
        }
        for p in partials.iter().rev() {
            backward.merge_from(p).unwrap();
        }
        assert!(forward.same_contents(&backward));
        for h in 1..=forward.deepest_level() {
            assert_eq!(
                forward.level(h).total_points(),
                backward.level(h).total_points()
            );
        }
    }

    #[test]
    fn used_flag_survives_merge() {
        let ds = dataset(100, 2, 5);
        let mut a = CountingTree::build(&ds, 4).unwrap();
        // Mark one cell used on the receiving tree and one on the donor.
        a.level_mut(2).set_used(0, true);
        let mut donor = CountingTree::build(&ds, 4).unwrap();
        let last = donor.level(2).n_cells() - 1;
        donor
            .level_mut(2)
            .set_used(mrcc_common::num::bounded_to_u32(last), true);
        a.merge_from(&donor).unwrap();
        // Both flags present after the merge (OR semantics)...
        assert!(a.level(2).cell(0).used());
        assert!(a
            .level(2)
            .cell(mrcc_common::num::bounded_to_u32(last))
            .used());
        // ...and counts doubled.
        assert_eq!(a.n_points(), 200);
        assert_eq!(a.level(2).total_points(), 200);
    }

    #[test]
    fn external_face_neighbors_resolve_after_merge() {
        // Two shards whose points land in *adjacent* cells: the neighbor
        // lookup must work across the shard boundary after merging even
        // though neither partial tree contains both cells.
        let rows = [[0.20f64, 0.30], [0.30, 0.30]]; // level-2 cells (0,1), (1,1)
        let ds = Dataset::from_rows(&rows).unwrap();
        let partials = partial_trees(&ds, 2, 4);
        // Each partial holds exactly one level-2 cell, with no neighbor.
        for p in &partials {
            assert_eq!(p.level(2).n_cells(), 1);
            let (id, _) = p.level(2).iter().next().unwrap();
            assert_eq!(p.level(2).neighbor(id, 0, Direction::Upper), None);
            assert_eq!(p.level(2).neighbor(id, 0, Direction::Lower), None);
        }
        let mut merged = CountingTree::empty(2, 4).unwrap();
        for p in &partials {
            merged.merge_from(p).unwrap();
        }
        let l2 = merged.level(2);
        let a = l2.find(&[0, 1]).expect("cell (0,1) present post-merge");
        let b = l2.find(&[1, 1]).expect("cell (1,1) present post-merge");
        assert_eq!(l2.neighbor(a, 0, Direction::Upper), Some(b));
        assert_eq!(l2.neighbor(b, 0, Direction::Lower), Some(a));
        assert_eq!(l2.neighbor_count(a, 0, Direction::Upper), 1);
    }

    #[test]
    fn merge_rejects_mismatched_trees() {
        let ds = dataset(10, 2, 1);
        let other_dims = dataset(10, 3, 1);
        let mut base = CountingTree::build(&ds, 4).unwrap();
        let wrong_d = CountingTree::build(&other_dims, 4).unwrap();
        assert!(matches!(
            base.merge_from(&wrong_d),
            Err(Error::DimensionMismatch { .. })
        ));
        let wrong_h = CountingTree::build(&ds, 5).unwrap();
        assert!(base.merge_from(&wrong_h).is_err());
    }

    #[test]
    fn build_sharded_propagates_serial_errors() {
        let empty = Dataset::new(2).unwrap();
        assert!(matches!(
            CountingTree::build_sharded(&empty, 4, 4),
            Err(Error::EmptyDataset)
        ));
        let ds = dataset(10, 2, 3);
        assert!(CountingTree::build_sharded(&ds, 2, 4).is_err()); // H too small
        assert!(CountingTree::build_sharded(&ds, 4, 0).is_ok()); // 0 → serial
    }

    #[test]
    fn content_comparisons_detect_differences() {
        let ds = dataset(50, 2, 11);
        let a = CountingTree::build(&ds, 4).unwrap();
        let b = CountingTree::build(&ds, 4).unwrap();
        assert!(a.identical(&b));
        let other = dataset(50, 2, 12);
        let c = CountingTree::build(&other, 4).unwrap();
        assert!(!a.same_contents(&c));
        let mut d = CountingTree::build(&ds, 4).unwrap();
        d.level_mut(1).set_used(0, true);
        assert!(!a.same_contents(&d), "used flag must participate");
    }
}
