//! Declarative description of a synthetic dataset.

use mrcc_common::dataset::MAX_DIMS;
use mrcc_common::{Error, Result};

/// Specification of one synthetic dataset, mirroring the knobs the paper
/// varies: dimensionality, number of points, number of correlation clusters,
/// noise percentile and (for the `*_r` group) rotations.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Dataset name as used in the paper (e.g. `"14d"`, `"250k"`, `"10d_r"`).
    pub name: String,
    /// Space dimensionality `d`.
    pub dims: usize,
    /// Total number of points `η` (clusters + noise).
    pub n_points: usize,
    /// Number of correlation clusters embedded.
    pub n_clusters: usize,
    /// Fraction of points drawn uniformly as noise, in `[0, 1)`.
    pub noise_fraction: f64,
    /// Number of random plane rotations applied after generation
    /// (0 = axis-parallel subspaces; the paper's rotated group uses 4).
    pub rotations: usize,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl SyntheticSpec {
    /// A compact constructor with no rotations.
    pub fn new(
        name: impl Into<String>,
        dims: usize,
        n_points: usize,
        n_clusters: usize,
        noise_fraction: f64,
        seed: u64,
    ) -> Self {
        SyntheticSpec {
            name: name.into(),
            dims,
            n_points,
            n_clusters,
            noise_fraction,
            rotations: 0,
            seed,
        }
    }

    /// Same spec with `rotations` random plane rotations and a `_r` suffix.
    pub fn rotated(mut self, rotations: usize) -> Self {
        self.rotations = rotations;
        self.name.push_str("_r");
        self
    }

    /// Scales the number of points by `factor` (≥ 0), keeping at least one
    /// point; used by the experiment harness to run paper-shaped workloads
    /// at laptop scale.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_points = ((self.n_points as f64 * factor).round() as usize).max(1);
        self
    }

    /// Number of noise points implied by the spec.
    pub fn n_noise(&self) -> usize {
        (self.n_points as f64 * self.noise_fraction).round() as usize
    }

    /// Number of clustered points implied by the spec.
    pub fn n_clustered(&self) -> usize {
        self.n_points - self.n_noise()
    }

    /// Checks that [`generate`](crate::generate) can honour the spec: 2 to
    /// [`MAX_DIMS`] dimensions, at least one point, a noise fraction in
    /// `[0, 1)` and no more clusters than clustered points.
    ///
    /// # Errors
    /// [`Error::UnsupportedDimensionality`] for too many dimensions, else
    /// [`Error::InvalidParameter`] naming the first field out of range.
    pub fn validate(&self) -> Result<()> {
        if self.dims > MAX_DIMS {
            return Err(Error::UnsupportedDimensionality {
                dims: self.dims,
                max: MAX_DIMS,
            });
        }
        let invalid = |name, message: String| Err(Error::InvalidParameter { name, message });
        if self.dims < 2 {
            return invalid(
                "dims",
                format!("need at least 2 dimensions, got {}", self.dims),
            );
        }
        if self.n_points == 0 {
            return invalid("n_points", "need at least one point".into());
        }
        if !(0.0..1.0).contains(&self.noise_fraction) {
            return invalid(
                "noise_fraction",
                format!("must be in [0,1), got {}", self.noise_fraction),
            );
        }
        if self.n_clustered() < self.n_clusters {
            return invalid(
                "n_clusters",
                format!(
                    "{} clusters but only {} clustered points",
                    self.n_clusters,
                    self.n_clustered()
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_split_adds_up() {
        let s = SyntheticSpec::new("t", 10, 1000, 5, 0.15, 7);
        assert_eq!(s.n_noise(), 150);
        assert_eq!(s.n_clustered(), 850);
        assert_eq!(s.n_noise() + s.n_clustered(), s.n_points);
    }

    #[test]
    fn validate_bounds_noise_and_accepts_zero_clusters() {
        let ok = SyntheticSpec::new("t", 2, 10, 0, 0.0, 7);
        assert!(ok.validate().is_ok());
        for noise in [-0.1, 1.0, f64::NAN] {
            let spec = SyntheticSpec {
                noise_fraction: noise,
                ..ok.clone()
            };
            assert!(matches!(
                spec.validate(),
                Err(Error::InvalidParameter {
                    name: "noise_fraction",
                    ..
                })
            ));
        }
    }

    #[test]
    fn rotated_renames() {
        let s = SyntheticSpec::new("10d", 10, 100, 2, 0.1, 7).rotated(4);
        assert_eq!(s.name, "10d_r");
        assert_eq!(s.rotations, 4);
    }

    #[test]
    fn scaling_rounds_and_clamps() {
        let s = SyntheticSpec::new("t", 5, 100, 2, 0.0, 7).scaled(0.25);
        assert_eq!(s.n_points, 25);
        let tiny = SyntheticSpec::new("t", 5, 1, 1, 0.0, 7).scaled(0.01);
        assert_eq!(tiny.n_points, 1);
    }
}
