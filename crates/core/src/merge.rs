//! Phase three: building correlation clusters (Algorithm 3).
//!
//! β-clusters sharing space in the full `d`-dimensional data space are
//! transitively grouped into one correlation cluster; the cluster's relevant
//! axes are those relevant to *any* member β-cluster. Points are then labeled
//! after the regions covered by the correlation clusters — a point belongs to
//! cluster `k` iff it falls inside the box of some member β-cluster — and
//! everything else is noise. Because distinct correlation clusters never
//! share space, the labeling is unambiguous and the clusters partition the
//! clustered points (Definition 2's disjointness).
//!
//! # Single-scan engine
//!
//! The paper's headline bound (Sec. IV) is time linear in the number of
//! points `η`. A naive phase three breaks it: one full-dataset containment
//! scan per β-cluster for the box populations, another per overlapping
//! β-pair for the junction-density numerators, and a third pass for
//! labeling — `O(β²·η·d)` overall. This module instead performs **exactly
//! one dataset pass**: a [`BoxIndex`] (per-axis interval stabbing over the
//! β-bounds) maps each point to its containing-box set, from which the pass
//! simultaneously accumulates per-β point counts, sparse pairwise
//! co-containment counts and the per-point containment lists. Union–find,
//! axis union, hulls and point labels are all derived from that recorded
//! pass with zero further dataset scans, and the per-β counts plus per-point
//! containment are handed to the caller as a [`MergeCache`] so downstream
//! consumers (soft memberships) never re-scan either. With `threads > 1`
//! the pass maps contiguous point chunks through
//! [`mrcc_common::parallel::ordered_map`] and folds the per-chunk partials
//! in ascending chunk order — all accumulators are either additive integers
//! or per-point records, so the result is bit-identical to the serial pass.
//!
//! The superseded multi-scan implementation is retained behind
//! `#[cfg(any(test, feature = "merge-oracle"))]` as
//! [`build_correlation_clusters_oracle`], the equivalence oracle the test
//! layer checks the engine against.

use std::cell::Cell;
use std::collections::HashMap;

use mrcc_common::num::bounded_to_u32;
use mrcc_common::parallel::{chunk_ranges, ordered_map};
use mrcc_common::{AxisMask, BoundingBox, BoxIndex, Dataset, SubspaceCluster, SubspaceClustering};

use crate::beta::BetaCluster;

/// Fraction of the smaller box's points that must sit in the shared region
/// for two β-clusters to merge (see `build_correlation_clusters`).
const JUNCTION_DENSITY: f64 = 0.20;

/// Points per work unit of the parallel merge scan: large enough that
/// claiming a chunk is noise next to the stabbing queries, small
/// enough to load-balance datasets whose dense regions cluster in index
/// order.
const MERGE_CHUNK: usize = 4096;

thread_local! {
    /// Debug scan counter, see [`dataset_scan_count`].
    static DATASET_SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Debug instrumentation: how many full-dataset counting passes the merge /
/// soft-labeling layer has performed **on the calling thread** since it
/// started. The single-scan contract says one fit increments this by
/// exactly 1 during phase three and `soft_memberships` by 0; regression
/// tests pin both. Thread-local so concurrently running tests cannot
/// observe each other's passes.
#[must_use]
pub fn dataset_scan_count() -> u64 {
    DATASET_SCANS.with(Cell::get)
}

/// Records one full-dataset counting pass (see [`dataset_scan_count`]).
fn note_dataset_scan() {
    DATASET_SCANS.with(|c| c.set(c.get() + 1));
}

/// A final correlation cluster `δ_γC_k = (δ_γE_k, δ_γS_k)`.
#[derive(Debug, Clone)]
pub struct CorrelationCluster {
    /// Relevant axes: union over member β-clusters.
    pub axes: AxisMask,
    /// Indices (into the β-cluster list) of the members, ascending.
    pub beta_indices: Vec<usize>,
    /// Bounding hull of the member boxes (reporting only; membership uses
    /// the exact union of member boxes).
    pub hull: BoundingBox,
    /// Number of points labeled into this cluster.
    pub size: usize,
}

/// The artifacts of the merge phase's single dataset pass, cached on
/// [`crate::MrCCResult`] so later consumers (notably
/// [`crate::MrCCResult::soft_memberships`]) reuse them instead of
/// re-scanning the dataset.
///
/// Holds the per-β-cluster point counts and, in compressed sparse row
/// form, each point's containing-box set (ascending β indices per point).
#[derive(Debug, Clone)]
pub struct MergeCache {
    /// `box_counts[k]`: points inside β-cluster `k`'s box.
    box_counts: Vec<usize>,
    /// CSR offsets into `ids`: point `i`'s containment list is
    /// `ids[offsets[i]..offsets[i + 1]]`. Length `η + 1`.
    offsets: Vec<usize>,
    /// Concatenated containing-box ids, ascending within each point.
    ids: Vec<u32>,
}

impl MergeCache {
    /// An empty cache for `n_points` points and zero β-clusters (the
    /// no-β-clusters fit; every containment list is empty).
    #[must_use]
    pub fn empty(n_points: usize) -> Self {
        MergeCache {
            box_counts: Vec::new(),
            offsets: vec![0; n_points + 1],
            ids: Vec::new(),
        }
    }

    /// Number of points the cache covers.
    #[must_use]
    pub fn n_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of β-cluster boxes the cache covers.
    #[must_use]
    pub fn n_boxes(&self) -> usize {
        self.box_counts.len()
    }

    /// Points inside β-cluster `k`'s box (the merge pass's exact count).
    ///
    /// # Panics
    /// Panics when `k` is not a valid β-cluster index.
    #[must_use]
    pub fn box_count(&self, k: usize) -> usize {
        self.box_counts[k] // xtask-allow: indexing — documented `# Panics` contract
    }

    /// The β-clusters whose boxes contain point `i`, ascending.
    ///
    /// # Panics
    /// Panics when `i` is not a valid point index.
    #[must_use]
    pub fn containing(&self, i: usize) -> &[u32] {
        // xtask-allow: indexing — documented `# Panics` contract
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Everything the single pass produces: the cacheable artifacts plus the
/// sparse junction numerators (only needed transiently by the merge).
struct ScanResult {
    cache: MergeCache,
    /// `pair_counts[(a, b)]` with `a < b`: points inside both boxes.
    pair_counts: HashMap<(u32, u32), usize>,
}

/// One chunk's partial scan: everything is either additive (counts) or a
/// per-point record (containment), so folding chunks in ascending chunk
/// order reproduces the serial pass bit for bit.
struct ChunkScan {
    box_counts: Vec<usize>,
    /// Containment list lengths for each point of the chunk, in order.
    list_lens: Vec<u32>,
    /// Concatenated containment ids for the chunk's points.
    ids: Vec<u32>,
    pair_counts: HashMap<(u32, u32), usize>,
}

/// Accumulates one point's containment list into the chunk partial.
fn record_point(buf: &[u32], acc: &mut ChunkScan) {
    for (pos, &a) in buf.iter().enumerate() {
        // xtask-allow: indexing — ids are minted from β indices < betas.len()
        acc.box_counts[a as usize] += 1;
        for &b in &buf[pos + 1..] {
            // `buf` is ascending, so (a, b) is already ordered.
            *acc.pair_counts.entry((a, b)).or_insert(0) += 1;
        }
    }
    acc.ids.extend_from_slice(buf);
    acc.list_lens.push(bounded_to_u32(buf.len()));
}

/// Scans one contiguous point range against the index.
fn scan_chunk(dataset: &Dataset, index: &BoxIndex, range: std::ops::Range<usize>) -> ChunkScan {
    let mut acc = ChunkScan {
        box_counts: vec![0; index.n_boxes()],
        list_lens: Vec::with_capacity(range.len()),
        ids: Vec::new(),
        pair_counts: HashMap::new(),
    };
    let mut buf: Vec<u32> = Vec::new();
    for i in range {
        index.containing(dataset.point(i), &mut buf);
        record_point(&buf, &mut acc);
    }
    acc
}

/// The single dataset pass: builds the β-box index, then walks every point
/// exactly once — chunk-parallel when `threads > 1` via [`ordered_map`],
/// whose results come back in ascending chunk order, so the fold below
/// yields output bit-identical to the serial walk.
fn scan_dataset(dataset: &Dataset, betas: &[BetaCluster], threads: usize) -> ScanResult {
    note_dataset_scan();
    let boxes: Vec<BoundingBox> = betas.iter().map(|b| b.bounds.clone()).collect();
    let index = BoxIndex::new(&boxes);
    let n = dataset.len();
    let partials = ordered_map(&chunk_ranges(n, MERGE_CHUNK), threads, |range| {
        scan_chunk(dataset, &index, range)
    });

    // Fold partials in ascending chunk order: counts are additive, the CSR
    // segments concatenate in point order.
    let mut cache = MergeCache {
        box_counts: vec![0; betas.len()],
        offsets: Vec::with_capacity(n + 1),
        ids: Vec::new(),
    };
    cache.offsets.push(0);
    let mut end = 0usize;
    let mut pair_counts: HashMap<(u32, u32), usize> = HashMap::new();
    for mut partial in partials {
        for (total, part) in cache.box_counts.iter_mut().zip(&partial.box_counts) {
            *total += part;
        }
        for (&pair, &count) in &partial.pair_counts {
            *pair_counts.entry(pair).or_insert(0) += count;
        }
        cache.ids.append(&mut partial.ids);
        for &len in &partial.list_lens {
            end += len as usize;
            cache.offsets.push(end);
        }
    }
    ScanResult { cache, pair_counts }
}

/// Minimal union–find with path halving and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    // Indexing invariant: `parent` and `size` are length-`n` arrays whose
    // entries are always indices `< n` (`new` seeds them that way and `union`
    // only stores roots returned by `find`), so element access cannot go out
    // of bounds for any `x < n`.
    fn find(&mut self, mut x: usize) -> usize {
        // xtask-allow: indexing — see invariant above
        while self.parent[x] != x {
            // xtask-allow: indexing — see invariant above
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x]; // xtask-allow: indexing — see invariant above
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // xtask-allow: indexing — see invariant above
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra; // xtask-allow: indexing — see invariant above
        self.size[ra] += self.size[rb]; // xtask-allow: indexing — see invariant above
    }
}

/// Collects union–find groups in deterministic order (by smallest member
/// index), returning the member lists and each β-cluster's group id.
fn collect_groups(uf: &mut UnionFind, n: usize) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut root_to_group: Vec<Option<usize>> = vec![None; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(n);
    // `find` returns an index < n and group ids are only handed out by the
    // push below, so every lookup in this loop stays in bounds.
    for i in 0..n {
        let root = uf.find(i);
        // xtask-allow: indexing — see invariant above
        let g = match root_to_group[root] {
            Some(g) => {
                groups[g].push(i); // xtask-allow: indexing — see invariant above
                g
            }
            None => {
                let g = groups.len();
                root_to_group[root] = Some(g); // xtask-allow: indexing — see invariant above
                groups.push(vec![i]);
                g
            }
        };
        group_of.push(g);
    }
    (groups, group_of)
}

/// Builds the cluster descriptions (axis unions and hulls) from the groups.
/// Every group is non-empty and its members are indices into `betas`.
fn describe_groups(
    groups: &[Vec<usize>],
    betas: &[BetaCluster],
    dims: usize,
) -> Vec<CorrelationCluster> {
    groups
        .iter()
        .map(|members| {
            let mut axes = AxisMask::empty(dims);
            // xtask-allow: indexing — see invariant above
            let mut hull = betas[members[0]].bounds.clone();
            for &m in members {
                axes = axes.union(&betas[m].axes); // xtask-allow: indexing
                hull = hull.hull(&betas[m].bounds); // xtask-allow: indexing
            }
            CorrelationCluster {
                axes,
                beta_indices: members.clone(),
                hull,
                size: 0,
            }
        })
        .collect()
}

/// Groups β-clusters into correlation clusters and labels every dataset
/// point, using **one** dataset pass (see the module docs). Returns the
/// clusters (ordered by smallest member β index), the resulting partition,
/// and the [`MergeCache`] of reusable scan artifacts.
///
/// `threads` parallelizes the dataset pass (chunks mapped by
/// [`ordered_map`]); the output is bit-identical for every thread count.
pub fn build_correlation_clusters(
    dataset: &Dataset,
    betas: &[BetaCluster],
    threads: usize,
) -> (Vec<CorrelationCluster>, SubspaceClustering, MergeCache) {
    let dims = dataset.dims();
    if betas.is_empty() {
        return (
            Vec::new(),
            SubspaceClustering::empty(dataset.len(), dims),
            MergeCache::empty(dataset.len()),
        );
    }

    let ScanResult { cache, pair_counts } = scan_dataset(dataset, betas, threads);

    // Pairwise share-space → union (Algorithm 3, lines 1–5), with a
    // junction-density check: two β-boxes only describe the same cluster
    // when the region they share actually holds a meaningful slice of the
    // smaller box's points. Fragments of one (possibly rotated) cluster meet
    // where the cluster is — dense junctions — while boxes of *different*
    // clusters that happen to cross geometrically meet in mostly-empty
    // space (a coarse-level box spans `[0,1]` on its irrelevant axes, so
    // such crossings are unavoidable). See DESIGN.md. The junction counts
    // come from the recorded pass; no β-pair ever re-reads the dataset.
    let mut uf = UnionFind::new(betas.len());
    for (i, beta_i) in betas.iter().enumerate() {
        for (j, beta_j) in betas.iter().enumerate().skip(i + 1) {
            if !beta_i.shares_space(beta_j) {
                continue;
            }
            let key = (bounded_to_u32(i), bounded_to_u32(j));
            let junction = pair_counts.get(&key).copied().unwrap_or(0);
            let needed =
                (cache.box_count(i).min(cache.box_count(j)) as f64 * JUNCTION_DENSITY).ceil();
            if junction as f64 >= needed.max(1.0) {
                uf.union(i, j);
            }
        }
    }

    let (groups, group_of) = collect_groups(&mut uf, betas.len());
    let mut clusters = describe_groups(&groups, betas, dims);

    // Label points after the covered regions; the first matching cluster
    // wins (regions of distinct correlation clusters are disjoint up to
    // shared boundaries). "First cluster whose member box contains the
    // point" is exactly the smallest group id over the point's recorded
    // containing-box set — no containment is re-evaluated.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
    for i in 0..dataset.len() {
        // xtask-allow: indexing — containment ids index `betas`, groups index `members`
        if let Some(&g) = cache
            .containing(i)
            .iter()
            .map(|&b| &group_of[b as usize])
            .min()
        {
            members[g].push(i); // xtask-allow: indexing — see above
        }
    }
    for (cluster, m) in clusters.iter_mut().zip(&members) {
        cluster.size = m.len();
    }

    let subspace_clusters: Vec<SubspaceCluster> = clusters
        .iter()
        .zip(members)
        .map(|(c, pts)| SubspaceCluster::new(pts, c.axes))
        .collect();
    let clustering = SubspaceClustering::new(dataset.len(), dims, subspace_clusters);
    (clusters, clustering, cache)
}

/// The superseded `O(β²·η·d)` merge/labeling path, kept verbatim as the
/// equivalence oracle for the single-scan engine: one dataset scan per
/// β-cluster, one per overlapping pair, and a final labeling pass (every
/// pass ticks [`dataset_scan_count`]). Compiled only for tests and under
/// the `merge-oracle` feature (the `merge` bench binary asserts
/// bit-identity against it on every timed workload).
#[cfg(any(test, feature = "merge-oracle"))]
pub fn build_correlation_clusters_oracle(
    dataset: &Dataset,
    betas: &[BetaCluster],
) -> (Vec<CorrelationCluster>, SubspaceClustering) {
    let dims = dataset.dims();
    if betas.is_empty() {
        return (Vec::new(), SubspaceClustering::empty(dataset.len(), dims));
    }

    note_dataset_scan();
    let box_counts: Vec<usize> = betas
        .iter()
        .map(|b| dataset.iter().filter(|p| b.bounds.contains(p)).count())
        .collect();
    let mut uf = UnionFind::new(betas.len());
    for (i, (beta_i, &count_i)) in betas.iter().zip(&box_counts).enumerate() {
        let rest = betas.iter().zip(&box_counts).enumerate().skip(i + 1);
        for (j, (beta_j, &count_j)) in rest {
            if !beta_i.shares_space(beta_j) {
                continue;
            }
            note_dataset_scan();
            let bi = &beta_i.bounds;
            let bj = &beta_j.bounds;
            let junction = dataset
                .iter()
                .filter(|p| bi.contains(p) && bj.contains(p))
                .count();
            let needed = (count_i.min(count_j) as f64 * JUNCTION_DENSITY).ceil();
            if junction as f64 >= needed.max(1.0) {
                uf.union(i, j);
            }
        }
    }

    let (groups, _) = collect_groups(&mut uf, betas.len());
    let mut clusters = describe_groups(&groups, betas, dims);

    note_dataset_scan();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
    for (i, p) in dataset.iter().enumerate() {
        'point: for (cluster, bucket) in clusters.iter().zip(members.iter_mut()) {
            for &m in &cluster.beta_indices {
                // xtask-allow: indexing — `beta_indices` index `betas`
                if betas[m].bounds.contains(p) {
                    bucket.push(i);
                    break 'point;
                }
            }
        }
    }
    for (cluster, m) in clusters.iter_mut().zip(&members) {
        cluster.size = m.len();
    }

    let subspace_clusters: Vec<SubspaceCluster> = clusters
        .iter()
        .zip(members)
        .map(|(c, pts)| SubspaceCluster::new(pts, c.axes))
        .collect();
    let clustering = SubspaceClustering::new(dataset.len(), dims, subspace_clusters);
    (clusters, clustering)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beta(lo: &[f64], hi: &[f64], axes: &[usize]) -> BetaCluster {
        let d = lo.len();
        BetaCluster {
            bounds: BoundingBox::new(lo.to_vec(), hi.to_vec()),
            axes: AxisMask::from_axes(d, axes.iter().copied()),
            level: 2,
            center_coords: vec![0; d],
            axis_stats: Vec::new(),
            relevance_threshold: 50.0,
        }
    }

    fn grid_dataset() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                rows.push([i as f64 / 10.0, j as f64 / 10.0]);
            }
        }
        Dataset::from_rows(&rows).unwrap()
    }

    /// Asserts the single-scan engine and the quadratic oracle agree
    /// exactly on `ds`/`betas`, at 1 and 4 threads, and returns the
    /// engine's output.
    fn build_checked(
        ds: &Dataset,
        betas: &[BetaCluster],
    ) -> (Vec<CorrelationCluster>, SubspaceClustering, MergeCache) {
        let (oc, ocl) = build_correlation_clusters_oracle(ds, betas);
        for threads in [1usize, 4] {
            let (c, cl, cache) = build_correlation_clusters(ds, betas, threads);
            assert_eq!(cl.labels(), ocl.labels(), "labels diverge @ {threads}t");
            assert_eq!(c.len(), oc.len(), "cluster count diverges @ {threads}t");
            for (k, (a, b)) in c.iter().zip(&oc).enumerate() {
                assert_eq!(a.axes, b.axes, "γ {k} axes @ {threads}t");
                assert_eq!(a.beta_indices, b.beta_indices, "γ {k} members @ {threads}t");
                assert_eq!(a.size, b.size, "γ {k} size @ {threads}t");
                for j in 0..a.hull.dims() {
                    assert_eq!(a.hull.lower(j).to_bits(), b.hull.lower(j).to_bits());
                    assert_eq!(a.hull.upper(j).to_bits(), b.hull.upper(j).to_bits());
                }
            }
            assert_eq!(cache.n_points(), ds.len());
            assert_eq!(cache.n_boxes(), betas.len());
        }
        build_correlation_clusters(ds, betas, 1)
    }

    #[test]
    fn no_betas_all_noise() {
        let ds = grid_dataset();
        let (clusters, clustering, cache) = build_checked(&ds, &[]);
        assert!(clusters.is_empty());
        assert_eq!(clustering.noise().len(), ds.len());
        assert_eq!(cache.n_points(), ds.len());
        assert!(cache.containing(0).is_empty());
    }

    #[test]
    fn overlapping_betas_merge() {
        let ds = grid_dataset();
        let betas = vec![
            beta(&[0.0, 0.0], &[0.3, 0.3], &[0]),
            beta(&[0.15, 0.15], &[0.5, 0.5], &[0, 1]), // overlaps + shares e1
            beta(&[0.8, 0.8], &[0.95, 0.95], &[0, 1]), // separate
        ];
        let (clusters, clustering, _) = build_checked(&ds, &betas);
        assert_eq!(clusters.len(), 2);
        // Merged cluster carries the union of relevant axes.
        assert_eq!(clusters[0].beta_indices, vec![0, 1]);
        assert_eq!(clusters[0].axes.count(), 2);
        assert_eq!(clusters[1].beta_indices, vec![2]);
        assert_eq!(clustering.len(), 2);
    }

    #[test]
    fn transitive_merge_through_a_chain() {
        let ds = grid_dataset();
        // a–b overlap, b–c overlap, a–c do not: all three must merge.
        let betas = vec![
            beta(&[0.0, 0.0], &[0.2, 0.2], &[0]),
            beta(&[0.05, 0.05], &[0.45, 0.45], &[0]),
            beta(&[0.3, 0.3], &[0.6, 0.6], &[0, 1]),
        ];
        let (clusters, _, _) = build_checked(&ds, &betas);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].beta_indices, vec![0, 1, 2]);
    }

    #[test]
    fn points_label_after_member_boxes() {
        let ds = grid_dataset();
        let betas = vec![beta(&[0.0, 0.0], &[0.25, 0.25], &[0, 1])];
        let (clusters, clustering, cache) = build_checked(&ds, &betas);
        // Points with both coordinates in {0.0, 0.1, 0.2} → 9 points.
        assert_eq!(clusters[0].size, 9);
        assert_eq!(clustering.clusters()[0].len(), 9);
        assert_eq!(clustering.noise().len(), 100 - 9);
        assert_eq!(cache.box_count(0), 9);
    }

    #[test]
    fn touching_boxes_stay_separate_and_labels_stay_disjoint() {
        let ds = grid_dataset();
        // Boxes sharing only a face have zero-volume intersection → two
        // clusters; the boundary point goes to the first match and is never
        // double-assigned.
        let betas = vec![
            beta(&[0.0, 0.0], &[0.5, 0.5], &[0]),
            beta(&[0.5, 0.0], &[0.9, 0.5], &[0]),
        ];
        let (clusters, clustering, _) = build_checked(&ds, &betas);
        assert_eq!(clusters.len(), 2);
        let total: usize = clustering.clusters().iter().map(SubspaceCluster::len).sum();
        assert_eq!(total + clustering.noise().len(), ds.len());
    }

    #[test]
    fn hull_covers_members() {
        let ds = grid_dataset();
        let betas = vec![
            beta(&[0.0, 0.0], &[0.2, 0.2], &[0]),
            beta(&[0.1, 0.1], &[0.5, 0.6], &[0, 1]),
        ];
        let (clusters, _, _) = build_checked(&ds, &betas);
        let h = &clusters[0].hull;
        assert_eq!(h.lower(0), 0.0);
        assert_eq!(h.upper(1), 0.6);
    }

    #[test]
    fn cache_containment_matches_brute_force() {
        let ds = grid_dataset();
        let betas = vec![
            beta(&[0.0, 0.0], &[0.3, 0.3], &[0]),
            beta(&[0.2, 0.2], &[0.7, 0.7], &[0, 1]),
            beta(&[0.0, 0.0], &[1.0, 1.0], &[0]), // everything
        ];
        let (_, _, cache) = build_checked(&ds, &betas);
        for (i, p) in ds.iter().enumerate() {
            let brute: Vec<u32> = betas
                .iter()
                .enumerate()
                .filter(|(_, b)| b.bounds.contains(p))
                .map(|(k, _)| u32::try_from(k).unwrap())
                .collect();
            assert_eq!(cache.containing(i), &brute[..], "point {i}");
        }
        assert_eq!(cache.box_count(2), 100);
    }

    #[test]
    fn merge_phase_performs_exactly_one_dataset_pass() {
        let ds = grid_dataset();
        let betas = vec![
            beta(&[0.0, 0.0], &[0.3, 0.3], &[0]),
            beta(&[0.2, 0.2], &[0.5, 0.5], &[0, 1]),
        ];
        let before = dataset_scan_count();
        let _ = build_correlation_clusters(&ds, &betas, 1);
        assert_eq!(
            dataset_scan_count() - before,
            1,
            "serial engine must scan once"
        );
        let before = dataset_scan_count();
        let _ = build_correlation_clusters(&ds, &betas, 4);
        assert_eq!(
            dataset_scan_count() - before,
            1,
            "parallel engine must scan once"
        );
        // The oracle, by contrast, scans at least thrice on overlapping βs.
        let before = dataset_scan_count();
        let _ = build_correlation_clusters_oracle(&ds, &betas);
        assert!(dataset_scan_count() - before >= 3);
    }
}
