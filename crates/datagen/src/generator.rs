//! Gaussian subspace-cluster generation.
//!
//! "Clusters with random sizes were created in subspaces with randomly
//! chosen original axes […] Each cluster follows Gaussian distributions with
//! random means and standard deviations" (Section IV-B). On its relevant
//! axes a cluster is a truncated Gaussian (resampled into `[0,1)`); on every
//! other axis it is uniform — which is exactly what makes it invisible to
//! full-dimensional methods and a correlation cluster in the paper's sense.

use mrcc_common::{AxisMask, Dataset, SubspaceCluster, SubspaceClustering};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rotation::rotate_dataset;
use crate::spec::SyntheticSpec;

/// A generated dataset plus its ground truth.
#[derive(Debug, Clone)]
pub struct Synthetic {
    /// Dataset name (from the spec).
    pub name: String,
    /// The generated points, unit-normalized.
    pub dataset: Dataset,
    /// Ground-truth clusters: point memberships and relevant axes
    /// (the *real clusters* of Section IV-A).
    pub ground_truth: SubspaceClustering,
    /// The spec that produced this dataset.
    pub spec: SyntheticSpec,
}

/// Range of *irrelevant* axes per cluster: at least 1 (otherwise the cluster
/// is full-dimensional, not a subspace cluster), at most `min(6, d − 2)`.
///
/// The paper quotes subspace dimensionalities of 5–17 but leaves the
/// irrelevant-axis count per cluster unspecified. The count is what governs
/// detectability for *any* full-space grid method: a cluster uniform on `m`
/// irrelevant axes spreads its points over `2^m` level-1 cells, and MrCC's
/// binomial test needs a few dozen points per cell neighborhood to reject
/// the null at `α = 1e−10` (the paper says as much: clusters "in
/// low-dimensional subspaces … tend to be extremely sparse in spaces with
/// several dimensions" and can be missed). Bounding `m ≤ 6` keeps the
/// embedded clusters statistically detectable at the paper's dataset sizes,
/// matching the reported Quality levels; see DESIGN.md.
fn n_irrelevant_range(d: usize) -> (usize, usize) {
    let hi = 6.min(d.saturating_sub(2)).max(1);
    (1, hi)
}

/// One standard Gaussian sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    // Draw until u1 > 0 to keep ln finite.
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Truncated Gaussian in `[0, 1)`: resample until inside (cheap for the
/// means/σ the generator draws), falling back to clamping after 64 tries.
fn truncated_gaussian(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    for _ in 0..64 {
        let v = mean + std * gaussian(rng);
        if (0.0..1.0).contains(&v) {
            return v;
        }
    }
    (mean + std * gaussian(rng)).clamp(0.0, 1.0 - 1e-9)
}

/// Generates the dataset and its ground truth for a spec.
///
/// ```
/// use mrcc_datagen::{generate, SyntheticSpec};
///
/// let synth = generate(&SyntheticSpec::new("demo", 8, 1_000, 2, 0.1, 7));
/// assert_eq!(synth.dataset.len(), 1_000);
/// assert_eq!(synth.ground_truth.len(), 2);
/// assert!(synth.dataset.is_unit_normalized());
/// ```
///
/// # Panics
/// Panics on a spec that [`SyntheticSpec::validate`] rejects (0 dims/points,
/// noise fraction outside `[0, 1)`, more clusters than clustered points).
pub fn generate(spec: &SyntheticSpec) -> Synthetic {
    if let Err(e) = spec.validate() {
        panic!("invalid synthetic spec: {e}");
    }
    let n_clustered = spec.n_clustered();

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let d = spec.dims;

    // Random cluster sizes: weights in [0.5, 1.5) normalized over the
    // clustered point budget, remainder to the last cluster.
    let mut sizes = vec![0usize; spec.n_clusters];
    if spec.n_clusters > 0 {
        let weights: Vec<f64> = (0..spec.n_clusters)
            .map(|_| rng.gen_range(0.5..1.5))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut assigned = 0usize;
        for k in 0..spec.n_clusters {
            let s = if k + 1 == spec.n_clusters {
                n_clustered - assigned
            } else {
                // Keep at least one point per remaining cluster.
                let remaining_clusters = spec.n_clusters - k - 1;
                let raw = (weights[k] / total * n_clustered as f64).round() as usize;
                raw.max(1).min(n_clustered - assigned - remaining_clusters)
            };
            sizes[k] = s;
            assigned += s;
        }
    }

    let (lo_irr, hi_irr) = n_irrelevant_range(d);
    let mut ds = Dataset::new(d).expect("valid dims");
    let mut point = vec![0.0f64; d];
    let mut clusters: Vec<SubspaceCluster> = Vec::with_capacity(spec.n_clusters);
    let mut next_index = 0usize;

    for &size in &sizes {
        // Random subspace: δ = d − (irrelevant count) distinct axes.
        let delta = d - rng.gen_range(lo_irr..=hi_irr);
        let mut axes: Vec<usize> = (0..d).collect();
        // Partial Fisher–Yates shuffle to pick δ axes.
        for i in 0..delta {
            let j = rng.gen_range(i..d);
            axes.swap(i, j);
        }
        let axes = &axes[..delta];
        let mask = AxisMask::from_axes(d, axes.iter().copied());
        // Random Gaussian parameters per relevant axis: means keep the
        // ±3σ bulk inside the cube, σ small enough that the cluster is
        // locally dense.
        let means: Vec<f64> = axes.iter().map(|_| rng.gen_range(0.15..0.85)).collect();
        let stds: Vec<f64> = axes.iter().map(|_| rng.gen_range(0.005..0.025)).collect();

        let members: Vec<usize> = (next_index..next_index + size).collect();
        next_index += size;
        for _ in 0..size {
            for slot in &mut point {
                *slot = rng.gen_range(0.0..1.0); // irrelevant axes: uniform
            }
            for (a, (&m, &s)) in axes.iter().zip(means.iter().zip(&stds)) {
                point[*a] = truncated_gaussian(&mut rng, m, s);
            }
            ds.push(&point).expect("generated point in range");
        }
        clusters.push(SubspaceCluster::new(members, mask));
    }

    // Uniform noise: everything the clusters did not claim (equals the
    // spec's noise budget, plus the whole dataset when there are no
    // clusters).
    for _ in 0..(spec.n_points - next_index) {
        for slot in &mut point {
            *slot = rng.gen_range(0.0..1.0);
        }
        ds.push(&point).expect("noise point in range");
    }

    // Optional rotations (cluster memberships survive; subspaces become
    // linear combinations of the original axes, as in the paper's `_r` group).
    if spec.rotations > 0 {
        rotate_dataset(&mut ds, spec.rotations, &mut rng);
    }

    let ground_truth = SubspaceClustering::new(ds.len(), d, clusters);
    Synthetic {
        name: spec.name.clone(),
        dataset: ds,
        ground_truth,
        spec: spec.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SyntheticSpec {
        SyntheticSpec::new("t", 8, 2000, 3, 0.15, 42)
    }

    #[test]
    fn respects_counts_and_range() {
        let s = generate(&spec());
        assert_eq!(s.dataset.len(), 2000);
        assert_eq!(s.dataset.dims(), 8);
        assert!(s.dataset.is_unit_normalized());
        assert_eq!(s.ground_truth.len(), 3);
        assert_eq!(s.ground_truth.noise().len(), 300);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&spec());
        let b = generate(&spec());
        assert_eq!(a.dataset, b.dataset);
        let mut other = spec();
        other.seed = 43;
        let c = generate(&other);
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn cluster_points_concentrate_on_relevant_axes() {
        let s = generate(&spec());
        for cluster in s.ground_truth.clusters() {
            for j in 0..8 {
                let values: Vec<f64> = cluster
                    .points
                    .iter()
                    .map(|&i| s.dataset.point(i)[j])
                    .collect();
                let std = mrcc_stats_like_std(&values);
                if cluster.axes.contains(j) {
                    assert!(std < 0.10, "relevant axis {j} too spread: σ={std}");
                } else {
                    assert!(std > 0.15, "irrelevant axis {j} too tight: σ={std}");
                }
            }
        }
    }

    /// Local σ helper (avoid a dev-dependency cycle on mrcc-stats).
    fn mrcc_stats_like_std(v: &[f64]) -> f64 {
        let m = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64).sqrt()
    }

    #[test]
    fn irrelevant_axis_count_is_bounded() {
        for d in [3usize, 5, 6, 10, 18, 30] {
            let (lo, hi) = n_irrelevant_range(d);
            assert!(lo >= 1 && lo <= hi);
            assert!(hi <= 6 && hi <= d - 2, "d={d}: hi={hi}");
        }
        // Every generated cluster leaves 1–6 irrelevant axes.
        let s = generate(&SyntheticSpec::new("r", 12, 3000, 4, 0.1, 5));
        for c in s.ground_truth.clusters() {
            let irr = 12 - c.axes.count();
            assert!((1..=6).contains(&irr), "irrelevant count {irr}");
        }
    }

    #[test]
    fn zero_clusters_all_noise() {
        let s = generate(&SyntheticSpec::new("n", 4, 100, 0, 0.0, 1));
        assert_eq!(s.ground_truth.len(), 0);
        assert_eq!(s.dataset.len(), 100);
    }

    #[test]
    fn rotation_keeps_memberships_and_range() {
        let mut sp = spec();
        sp = sp.rotated(4);
        let s = generate(&sp);
        assert!(s.dataset.is_unit_normalized());
        assert_eq!(s.ground_truth.len(), 3);
        assert_eq!(s.dataset.len(), 2000);
    }

    #[test]
    fn sizes_are_random_but_exhaustive() {
        let s = generate(&spec());
        let total: usize = s
            .ground_truth
            .clusters()
            .iter()
            .map(SubspaceCluster::len)
            .sum();
        assert_eq!(total, 1700);
        // Random sizes: not all equal.
        let sizes: Vec<usize> = s
            .ground_truth
            .clusters()
            .iter()
            .map(SubspaceCluster::len)
            .collect();
        assert!(sizes.iter().any(|&x| x != sizes[0]));
    }
}
