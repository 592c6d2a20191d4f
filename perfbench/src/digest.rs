//! Bit-exact digest of a clustering result, in layout axis order.
//!
//! The digest covers every point's label, and per β-cluster its level,
//! centre cell, bounds (via `f64::to_bits`), relevant axes, per-axis test
//! statistics and relevance threshold, and per correlation cluster its axes
//! and member β-clusters. Per-axis values are read through the input's axis
//! permutation, so a correct run at any seed yields the same digest as the
//! unpermuted layout.

use mrcc::{MrCCResult, SoftClustering};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.u64(u64::try_from(x).expect("usize fits in u64"));
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn bool(&mut self, x: bool) {
        self.u64(u64::from(x));
    }
}

/// Digest of `result`, computed on data whose column `j` holds layout axis
/// `perm[j]`.
pub fn digest(result: &MrCCResult, perm: &[usize]) -> u64 {
    // col[a]: the column holding layout axis a.
    let mut col = vec![0; perm.len()];
    for (j, &a) in perm.iter().enumerate() {
        col[a] = j;
    }
    let mut h = Fnv::new();
    let labels = result.clustering.labels();
    h.usize(labels.len());
    for l in labels {
        h.u64(u64::from(l.cast_unsigned()));
    }
    h.usize(result.beta_clusters.len());
    for b in &result.beta_clusters {
        h.usize(b.level);
        h.f64(b.relevance_threshold);
        for &j in &col {
            let s = &b.axis_stats[j];
            h.f64(b.bounds.lower(j));
            h.f64(b.bounds.upper(j));
            h.bool(b.axes.contains(j));
            h.u64(b.center_coords[j]);
            h.u64(s.neighborhood);
            h.u64(s.center);
            h.u64(s.critical);
            h.f64(s.relevance);
        }
    }
    h.usize(result.clusters.len());
    for c in &result.clusters {
        h.usize(c.size);
        for &j in &col {
            h.bool(c.axes.contains(j));
        }
        for &k in &c.beta_indices {
            h.usize(k);
        }
    }
    h.0
}

/// Digest of soft memberships: every point's `(cluster, weight)` list,
/// weights via `f64::to_bits`. Memberships carry no axes, so no
/// permutation applies.
pub fn soft_digest(soft: &SoftClustering) -> u64 {
    let mut h = Fnv::new();
    h.usize(soft.n_points());
    h.usize(soft.n_clusters());
    for i in 0..soft.n_points() {
        let m = soft.memberships(i);
        h.usize(m.len());
        for &(k, w) in m {
            h.usize(k);
            h.f64(w);
        }
    }
    h.0
}
