//! One resolution level of the Counting-tree, stored as a structure of arrays.
//!
//! Level `h` is a hyper-grid of side `ξ_h = 1/2^h`. Only non-empty cells are
//! stored, in first-touch ("arena") order, and cell `i` owns
//!
//! * `keys[i·w .. (i+1)·w]`: its absolute grid coordinates, bit-packed at
//!   `h` bits per axis and `⌊64/h⌋` axes per `u64` word, so a key is
//!   `w = ⌈d / ⌊64/h⌋⌉` words (one word for `d ≤ 21` at `h = 3`, one axis per
//!   word at `h ≥ 33`);
//! * `n[i]`: its point count;
//! * `p[i·d .. (i+1)·d]`: its half-space counts `P[j]`;
//! * `used[i]`: the paper's `usedCell` flag.
//!
//! An open-addressing hash index (linear probing, at most half full) maps a
//! packed key to its cell. A slot holds only a cell id and a 32-bit hash tag;
//! candidate keys are compared word by word against `keys`, so the
//! coordinates are stored once. Each axis's `(word, shift)` position is
//! tabulated per level, so neither packing nor lookup divides. A face
//! neighbor patches one field of one word, hashes `w` words and probes: the
//! "each node is an array of cells" view of the paper with `O(1)`
//! expected-time neighbor resolution instead of a root-to-level tree walk.

use std::iter::zip;

use crate::cell::{Cell, CellId};
use crate::hasher::hash_word;
use mrcc_common::num::{bounded_to_u32, powi_exp, u32_to_usize};

/// Direction of a face neighbor along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Neighbor at `coords[j] − 1`.
    Lower,
    /// Neighbor at `coords[j] + 1`.
    Upper,
}

/// Where one axis's `h`-bit field sits in a packed key.
#[derive(Debug, Clone, Copy)]
struct Field {
    word: usize,
    shift: u32,
}

/// One hash-index slot: a cell id plus the high half of its key's hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: CellId,
    tag: u32,
}

/// The id of an empty slot. No level reaches `u32::MAX` cells: that would
/// take tens of gigabytes of keys and counts.
const EMPTY: CellId = CellId::MAX;

/// Slot count of a new level's index (a power of two).
const MIN_SLOTS: usize = 16;

/// A fully materialized resolution level.
#[derive(Debug)]
pub struct Level {
    h: u32,
    dims: usize,
    /// Words per packed key (`w`).
    words: usize,
    /// `2^h − 1`, the mask of one axis field.
    field_mask: u64,
    /// Axis `j`'s position in a packed key.
    fields: Vec<Field>,
    keys: Vec<u64>,
    n: Vec<u64>,
    p: Vec<u64>,
    used: Vec<bool>,
    /// The hash index: a power-of-two slot count, at most half full.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: a key's home slot is `hash >> slot_shift`.
    slot_shift: u32,
}

impl Level {
    /// An empty level `h ∈ [1, 63]` over `dims` axes.
    pub(crate) fn new(h: u32, dims: usize) -> Self {
        debug_assert!((1..64).contains(&h), "level {h} outside [1, 63]");
        let per_word = u32_to_usize(64 / h);
        let fields = (0..dims)
            .map(|j| Field {
                word: j / per_word,
                shift: bounded_to_u32(j % per_word) * h,
            })
            .collect();
        Level {
            h,
            dims,
            words: dims.div_ceil(per_word),
            field_mask: u64::MAX >> (64 - h),
            fields,
            keys: Vec::new(),
            n: Vec::new(),
            p: Vec::new(),
            used: Vec::new(),
            slots: vec![Slot { id: EMPTY, tag: 0 }; MIN_SLOTS],
            slot_shift: 64 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// The level number `h` (cells have side `1/2^h`).
    #[inline]
    pub fn h(&self) -> u32 {
        self.h
    }

    /// Cell side size `ξ_h = 1/2^h`.
    #[inline]
    pub fn side(&self) -> f64 {
        // Exact for h ≤ 1023; h is capped far below that.
        (0.5f64).powi(powi_exp(u32_to_usize(self.h)))
    }

    /// Number of grid positions per axis (`2^h`), saturating at `u64::MAX`.
    #[inline]
    pub fn grid_extent(&self) -> u64 {
        1u64.checked_shl(self.h).unwrap_or(u64::MAX)
    }

    /// Number of materialized (non-empty) cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.n.len()
    }

    /// A view of the cell `id`.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[inline]
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let i = u32_to_usize(id);
        Cell {
            level: self,
            key: self.stored_key(id),
            p: &self.p[i * self.dims..(i + 1) * self.dims], // xtask-allow: indexing — documented `# Panics` contract
            n: self.n[i],       // xtask-allow: indexing — documented `# Panics` contract
            used: self.used[i], // xtask-allow: indexing — documented `# Panics` contract
        }
    }

    /// Iterate over `(id, cell)` pairs in arena order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (CellId, Cell<'_>)> + '_ {
        (0..self.n_cells()).map(|i| {
            let id = bounded_to_u32(i);
            (id, self.cell(id))
        })
    }

    /// Look up the cell at the given absolute coordinates. `None` when no
    /// such cell is materialized, including for a coordinate outside
    /// `[0, 2^h)` or a coordinate slice of the wrong length.
    pub fn find(&self, coords: &[u64]) -> Option<CellId> {
        if coords.len() != self.dims {
            return None;
        }
        let mut key = vec![0u64; self.words];
        for (&c, field) in zip(coords, &self.fields) {
            // An out-of-range value would spill into the next field.
            if c > self.field_mask {
                return None;
            }
            key[field.word] |= c << field.shift; // xtask-allow: indexing — a field's word is below `words`
        }
        self.lookup(&key)
    }

    /// The face neighbor of `id` along `axis` in `dir`, if that grid position
    /// is materialized (the paper's `N I`/`N E`; a missing external neighbor
    /// means either the space border or an unrefined empty region).
    ///
    /// # Panics
    /// Panics on an out-of-range id or axis.
    pub fn neighbor(&self, id: CellId, axis: usize, dir: Direction) -> Option<CellId> {
        let Field { word, shift } = self.fields[axis];
        let key = self.stored_key(id);
        let old = key[word];
        let field = (old >> shift) & self.field_mask;
        let patched = match dir {
            Direction::Lower if field > 0 => old - (1 << shift),
            Direction::Upper if field < self.field_mask => old + (1 << shift),
            _ => return None, // the space border
        };
        let word_at = |i: usize| if i == word { patched } else { key[i] };
        let hash = (0..self.words).fold(0, |hash, i| hash_word(hash, word_at(i)));
        self.probe(hash, |stored| {
            stored.iter().enumerate().all(|(i, &w)| w == word_at(i))
        })
        .ok()
    }

    /// Point count of the face neighbor, 0 when absent (how the convolution
    /// treats empty space).
    #[inline]
    pub fn neighbor_count(&self, id: CellId, axis: usize, dir: Direction) -> u64 {
        self.neighbor(id, axis, dir)
            .map_or(0, |nid| self.n[u32_to_usize(nid)])
    }

    /// Marks a cell's `usedCell` flag.
    pub fn set_used(&mut self, id: CellId, used: bool) {
        self.used[u32_to_usize(id)] = used;
    }

    /// Clears every `usedCell` flag.
    pub(crate) fn reset_used(&mut self) {
        self.used.fill(false);
    }

    /// Releases the cell arrays' growth slack once a build is complete.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.n.shrink_to_fit();
        self.p.shrink_to_fit();
        self.used.shrink_to_fit();
    }

    /// Counts one point (the body of Algorithm 1 for this level). `fine`
    /// holds the point's coordinates on the grid `shift ≥ 1` levels finer;
    /// `key` is scratch space for the packed key.
    pub(crate) fn count_point(&mut self, fine: &[u64], shift: u32, key: &mut Vec<u64>) {
        key.clear();
        key.resize(self.words, 0);
        for (&f, field) in zip(fine, &self.fields) {
            key[field.word] |= (f >> shift) << field.shift;
        }
        let i = u32_to_usize(self.get_or_insert(key));
        self.n[i] += 1;
        // The point is in the lower half of this cell along e_j iff its
        // coordinate one level finer is even.
        let p = &mut self.p[i * self.dims..(i + 1) * self.dims];
        for (slot, &f) in zip(p, fine) {
            *slot += u64::from((f >> (shift - 1)) & 1 == 0);
        }
    }

    /// Adds counts into cell `id`: `n` and every `P[j]` are summed, `used`
    /// is OR-ed.
    pub(crate) fn add_counts(&mut self, id: CellId, n: u64, p: &[u64], used: bool) {
        let i = u32_to_usize(id);
        self.n[i] += n;
        for (slot, &add) in zip(&mut self.p[i * self.dims..(i + 1) * self.dims], p) {
            *slot += add;
        }
        self.used[i] |= used;
    }

    /// The id of the cell with packed key `key`, appending an empty cell
    /// (`n = 0`, `P = 0`, unused) when there is none.
    pub(crate) fn get_or_insert(&mut self, key: &[u64]) -> CellId {
        assert_eq!(key.len(), self.words, "packed key width");
        let hash = hash_key(key);
        match self.probe(hash, |stored| same_words(stored, key)) {
            Ok(id) => id,
            Err(pos) => {
                let id = bounded_to_u32(self.n_cells());
                self.keys.extend_from_slice(key);
                self.n.push(0);
                self.p.resize(self.p.len() + self.dims, 0);
                self.used.push(false);
                self.slots[pos] = Slot {
                    id,
                    tag: tag_of(hash),
                };
                if 2 * self.n_cells() > self.slots.len() {
                    self.grow_index();
                }
                id
            }
        }
    }

    /// The id of the cell with packed key `key` (the layout of a level with
    /// the same `h` and `d`), if materialized.
    pub(crate) fn lookup(&self, key: &[u64]) -> Option<CellId> {
        self.probe(hash_key(key), |stored| same_words(stored, key))
            .ok()
    }

    /// `true` when `other` has this level's number and dimensionality, so
    /// its packed keys mean the same cells.
    pub(crate) fn same_layout(&self, other: &Level) -> bool {
        self.h == other.h && self.dims == other.dims
    }

    /// The grid coordinate of axis `j` in packed key `key`.
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    #[inline]
    pub(crate) fn key_field(&self, key: &[u64], j: usize) -> u64 {
        let Field { word, shift } = self.fields[j]; // xtask-allow: indexing — documented `# Panics` contract
        (key[word] >> shift) & self.field_mask // xtask-allow: indexing — a field's word is below `words`
    }

    /// The packed key of cell `id`.
    #[inline]
    fn stored_key(&self, id: CellId) -> &[u64] {
        let start = u32_to_usize(id) * self.words;
        &self.keys[start..start + self.words] // xtask-allow: indexing — callers pass ids of stored cells (`cell` documents its panic)
    }

    /// Linear probing from the home slot of `hash`: the id of the cell whose
    /// stored key satisfies `same`, or the empty slot where that key goes.
    /// Terminates because the index is at most half full.
    #[inline]
    fn probe(&self, hash: u64, same: impl Fn(&[u64]) -> bool) -> Result<CellId, usize> {
        let mask = self.slots.len() - 1;
        let tag = tag_of(hash);
        let mut pos = home_of(hash, self.slot_shift);
        loop {
            let slot = self.slots[pos]; // xtask-allow: indexing — positions are masked to the slot count
            if slot.id == EMPTY {
                return Err(pos);
            }
            if slot.tag == tag && same(self.stored_key(slot.id)) {
                return Ok(slot.id);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Doubles the slot count and re-inserts every cell.
    fn grow_index(&mut self) {
        let len = self.slots.len() * 2;
        self.slots = vec![Slot { id: EMPTY, tag: 0 }; len];
        self.slot_shift -= 1;
        for i in 0..self.n_cells() {
            let id = bounded_to_u32(i);
            let hash = hash_key(self.stored_key(id));
            let mut pos = home_of(hash, self.slot_shift);
            while self.slots[pos].id != EMPTY {
                pos = (pos + 1) & (len - 1);
            }
            self.slots[pos] = Slot {
                id,
                tag: tag_of(hash),
            };
        }
    }

    /// Re-verifies the layout: the arrays agree on the cell count, the index
    /// is at most half full, and every cell is found under its own key.
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn check_layout(&self) {
        let cells = self.n_cells();
        assert!(
            self.keys.len() == cells * self.words
                && self.p.len() == cells * self.dims
                && self.used.len() == cells,
            "invariant violated: level {} arrays disagree on the cell count",
            self.h
        );
        assert!(
            2 * cells <= self.slots.len(),
            "invariant violated: level {} index more than half full",
            self.h
        );
        for i in 0..cells {
            let id = bounded_to_u32(i);
            assert_eq!(
                self.lookup(self.stored_key(id)),
                Some(id),
                "invariant violated: level {} cell {i} not indexed under its key",
                self.h
            );
        }
    }

    /// Sum of point counts over all cells (must equal `η`; used by tests and
    /// debug assertions).
    pub fn total_points(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Heap footprint in bytes: the allocated capacity of every array (keys,
    /// counts, flags, index slots, the axis table) plus the level itself.
    pub fn memory_bytes(&self) -> usize {
        size_of::<Level>()
            + capacity_bytes(&self.fields)
            + capacity_bytes(&self.keys)
            + capacity_bytes(&self.n)
            + capacity_bytes(&self.p)
            + capacity_bytes(&self.used)
            + capacity_bytes(&self.slots)
    }
}

/// The hash of a packed key.
#[inline]
fn hash_key(key: &[u64]) -> u64 {
    let mut hash = 0;
    for &word in key {
        hash = hash_word(hash, word);
    }
    hash
}

/// The home slot of `hash`: its top `64 − slot_shift` bits, which the
/// multiply in [`hash_word`] mixes from every key bit.
#[inline]
fn home_of(hash: u64, slot_shift: u32) -> usize {
    // Never fails: the result is below the slot count, itself a `usize`.
    usize::try_from(hash >> slot_shift).unwrap_or(0)
}

/// The slot tag of `hash`: its high 32 bits.
#[inline]
fn tag_of(hash: u64) -> u32 {
    // Never fails: a `u64` shifted right by 32 fits in 32 bits.
    u32::try_from(hash >> 32).unwrap_or(0)
}

/// Word-by-word key equality. An explicit loop: slice `==` calls `memcmp`,
/// which costs more than the comparison itself for keys of a word or two.
#[inline]
fn same_words(a: &[u64], b: &[u64]) -> bool {
    a.len() == b.len() && zip(a, b).all(|(x, y)| x == y)
}

/// Allocated bytes of a vector's buffer.
fn capacity_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A level `h` holding one point per coordinate list (lower half on
    /// every axis), in the given order.
    pub(crate) fn level_with(h: u32, coords: &[&[u64]]) -> Level {
        let mut l = Level::new(h, coords[0].len());
        let mut key = Vec::new();
        for c in coords {
            // Level-(h+1) coordinates 2c: the same cell, lower halves.
            let fine: Vec<u64> = c.iter().map(|&x| x << 1).collect();
            l.count_point(&fine, 1, &mut key);
        }
        l
    }

    #[test]
    fn insert_and_find() {
        let l = level_with(2, &[&[0, 1], &[3, 2]]);
        assert_eq!(l.n_cells(), 2);
        assert_eq!(l.find(&[0, 1]), Some(0));
        assert_eq!(l.find(&[3, 2]), Some(1));
        assert!(l.find(&[1, 1]).is_none());
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut l = Level::new(3, 2);
        let a = l.get_or_insert(&[1 | (2 << 3)]);
        let b = l.get_or_insert(&[1 | (2 << 3)]);
        assert_eq!(a, b);
        assert_eq!(l.n_cells(), 1);
        assert_eq!(l.cell(a).coords(), [1, 2]);
    }

    #[test]
    fn neighbors_respect_borders() {
        // Level 2 → coordinates in [0, 4).
        let l = level_with(2, &[&[0, 0], &[1, 0], &[3, 0]]);
        let id0 = l.find(&[0, 0]).unwrap();
        let id3 = l.find(&[3, 0]).unwrap();
        // Lower neighbor of coordinate 0 falls off the space border.
        assert_eq!(l.neighbor(id0, 0, Direction::Lower), None);
        // Upper neighbor of coordinate 3 falls off the border at extent 4.
        assert_eq!(l.neighbor(id3, 0, Direction::Upper), None);
        // Materialized neighbor found.
        assert_eq!(l.neighbor(id0, 0, Direction::Upper), l.find(&[1, 0]));
        // Unmaterialized (empty) neighbor is None, counted as 0.
        assert_eq!(l.neighbor(id0, 1, Direction::Upper), None);
        assert_eq!(l.neighbor_count(id0, 1, Direction::Upper), 0);
        assert_eq!(l.neighbor_count(id0, 0, Direction::Upper), 1);
    }

    #[test]
    fn neighbor_symmetry() {
        let l = level_with(2, &[&[1, 1], &[2, 1]]);
        let a = l.find(&[1, 1]).unwrap();
        let b = l.find(&[2, 1]).unwrap();
        assert_eq!(l.neighbor(a, 0, Direction::Upper), Some(b));
        assert_eq!(l.neighbor(b, 0, Direction::Lower), Some(a));
    }

    #[test]
    fn side_halves_per_level() {
        assert_eq!(Level::new(1, 1).side(), 0.5);
        assert_eq!(Level::new(3, 1).side(), 0.125);
        assert_eq!(Level::new(2, 1).grid_extent(), 4);
    }

    #[test]
    fn total_points_sums_counts() {
        let l = level_with(2, &[&[0, 0], &[1, 0], &[3, 0]]);
        assert_eq!(l.total_points(), 3);
    }

    #[test]
    fn memory_estimate_grows_with_cells() {
        let small = level_with(2, &[&[0, 0]]);
        let coords: Vec<[u64; 2]> = (0..4).flat_map(|x| (0..4).map(move |y| [x, y])).collect();
        let refs: Vec<&[u64]> = coords.iter().map(|c| &c[..]).collect();
        let big = level_with(2, &refs);
        assert!(big.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn memory_bytes_sums_capacities() {
        let l = level_with(3, &[&[1, 2, 3], &[4, 5, 6]]);
        let expected = size_of::<Level>()
            + l.fields.capacity() * size_of::<Field>()
            + l.keys.capacity() * 8
            + l.n.capacity() * 8
            + l.p.capacity() * 8
            + l.used.capacity()
            + l.slots.capacity() * size_of::<Slot>();
        assert_eq!(l.memory_bytes(), expected);
        // One word per key, no coordinate copy in the 8-byte slots.
        assert_eq!(l.keys.len(), 2);
        assert_eq!(size_of::<Slot>(), 8);
    }

    #[test]
    fn key_layout_packs_floor_64_over_h_axes_per_word() {
        for (h, d, words) in [
            (3, 21, 1),
            (3, 22, 2),
            (4, 16, 1),
            (4, 30, 2),
            (63, 3, 3),
            (32, 5, 3),
        ] {
            let l = Level::new(h, d);
            assert_eq!(l.words, words, "h={h} d={d}");
        }
    }

    #[test]
    fn find_rejects_overflowing_coordinates_and_wrong_lengths() {
        // h = 2: fields at bits 0, 2, 4. The value 4 on axis 0 would spill
        // into axis 1's field, i.e. alias the cell (0, 1, 0).
        let l = level_with(2, &[&[0, 1, 0], &[1, 0, 0]]);
        assert_eq!(l.find(&[0, 1, 0]), Some(0));
        assert_eq!(l.find(&[4, 0, 0]), None);
        assert_eq!(l.find(&[5, 0, 0]), None);
        assert_eq!(l.find(&[0, 0, 4]), None);
        assert_eq!(l.find(&[u64::MAX, 0, 0]), None);
        assert_eq!(l.find(&[0, 1]), None);
        assert_eq!(l.find(&[0, 1, 0, 0]), None);
        assert_eq!(l.find(&[]), None);
        // One axis per word at h = 63: the largest coordinate is 2^63 − 1.
        let top = (1u64 << 63) - 1;
        let wide = level_with(63, &[&[top, 0]]);
        assert_eq!(wide.find(&[top, 0]), Some(0));
        assert_eq!(wide.find(&[top + 1, 0]), None);
    }

    /// `d` coordinates, zero except the listed `(axis, value)` pairs.
    fn coords_with(d: usize, pairs: &[(usize, u64)]) -> Vec<u64> {
        let mut c = vec![0u64; d];
        for &(j, v) in pairs {
            c[j] = v;
        }
        c
    }

    #[test]
    fn neighbors_stop_at_the_border_across_word_boundaries() {
        use Direction::{Lower, Upper};
        // h = 3: 21 axes per word, so axis 20 is the last field of word 0
        // (bits 60..63) and axis 21 the first field of word 1.
        let cell = |pairs: &[(usize, u64)]| coords_with(23, pairs);
        let top = cell(&[(20, 7), (21, 7)]);
        let zero = cell(&[]);
        let above = cell(&[(22, 1)]);
        // The cells a field spilling into the next one would alias: 7 + 1 on
        // axis 21 of `top` carries into axis 22, and 0 − 1 on axis 21 of
        // `above` borrows from it.
        let carried = cell(&[(20, 7), (22, 1)]);
        let borrowed = cell(&[(21, 7)]);
        let l = level_with(
            3,
            &[&top, &zero, &above, &carried, &borrowed].map(Vec::as_slice),
        );
        assert_eq!(l.words, 2);
        let id = |c: &[u64]| l.find(c).unwrap();
        assert_eq!(l.neighbor(id(&top), 20, Upper), None);
        assert_eq!(l.neighbor(id(&top), 21, Upper), None);
        assert_eq!(l.neighbor(id(&zero), 20, Lower), None);
        assert_eq!(l.neighbor(id(&zero), 21, Lower), None);
        assert_eq!(l.neighbor(id(&above), 21, Lower), None);
        // Inside the grid, neighbors in the second word resolve.
        assert_eq!(l.neighbor(id(&zero), 22, Upper), Some(id(&above)));
        assert_eq!(l.neighbor(id(&above), 22, Lower), Some(id(&zero)));
        assert_eq!(
            l.neighbor(id(&carried), 22, Lower),
            l.find(&cell(&[(20, 7)]))
        );

        // h = 4 fills all 64 bits of a word: axis 14's carry would land in
        // axis 15, and axis 15's would leave the word and wrap to zero.
        let cell = |pairs: &[(usize, u64)]| coords_with(17, pairs);
        let top14 = cell(&[(14, 15)]);
        let top15 = cell(&[(15, 15)]);
        let carried = cell(&[(15, 1)]);
        let zero = cell(&[]);
        let l = level_with(4, &[&top14, &top15, &carried, &zero].map(Vec::as_slice));
        assert_eq!(l.words, 2);
        let id = |c: &[u64]| l.find(c).unwrap();
        assert_eq!(l.neighbor(id(&top14), 14, Upper), None);
        assert_eq!(l.neighbor(id(&top15), 15, Upper), None);
        assert_eq!(l.neighbor(id(&carried), 14, Lower), None);
        assert_eq!(l.neighbor(id(&zero), 15, Upper), Some(id(&carried)));
        assert_eq!(l.neighbor(id(&carried), 15, Lower), Some(id(&zero)));
    }

    #[test]
    fn index_stays_correct_across_growth() {
        // 12 000 distinct cells force the index through ten doublings.
        let mut l = Level::new(8, 3);
        let mut key = Vec::new();
        let coords: Vec<[u64; 3]> = (0..12_000u64)
            .map(|i| [i % 256, (i / 256) % 256, (i * 7) % 256])
            .collect();
        for c in &coords {
            let fine: Vec<u64> = c.iter().map(|&x| x << 1).collect();
            l.count_point(&fine, 1, &mut key);
        }
        assert_eq!(l.n_cells(), coords.len());
        assert!(2 * l.n_cells() <= l.slots.len());
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(l.find(c), Some(i as CellId), "cell {c:?}");
            assert_eq!(l.cell(i as CellId).coords(), c);
        }
        // Absent cells stay absent: the third axis never differs from 7i.
        for i in 0..2_000u64 {
            let c = [i % 256, (i / 256) % 256, (i * 7 + 1) % 256];
            assert_eq!(l.find(&c), None, "cell {c:?}");
        }
    }
}
