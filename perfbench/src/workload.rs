//! The benchmark's workloads and the seeded inputs it generates for them.
//!
//! Every workload is a `mrcc-datagen` dataset with a fixed cluster layout
//! (datagen seed [`LAYOUT_SEED`], noise [`NOISE`]). The `--seed` argument
//! draws a permutation of the axes, which changes every input byte, cell
//! key and hash bucket but not the work MrCC does: the method treats axes
//! symmetrically, so its result on the permuted input is the reference
//! result with axes relabeled. That keeps the cost of one run the same at
//! every seed — across datagen seeds the β-cluster count of `search-d20`
//! ranges from 19 to 48 and its fit time by 4× — and lets every run check
//! its output against one committed digest (see [`crate::digest`]).

use mrcc_common::{csv, AxisMask, Dataset, SubspaceClustering};
use mrcc_datagen::{generate, SyntheticSpec};
use serde_json::{json, Value};

/// Noise fraction of every workload.
pub const NOISE: f64 = 0.15;

/// Datagen seed that fixes each workload's cluster layout.
pub const LAYOUT_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Space dimensionality `d`.
    pub dims: usize,
    /// Number of points `η`.
    pub points: usize,
    /// Embedded correlation clusters.
    pub clusters: usize,
    /// `MrCCConfig::threads` for every phase.
    pub threads: usize,
    /// Fit spans this workload is chosen to load, and the share of the
    /// traced fit they must reach together, if a share is claimed.
    pub claimed: (&'static [&'static str], Option<f64>),
    /// Digests every run's fit result and soft memberships must equal (see
    /// [`crate::digest`]); `None` for ad-hoc workloads such as the tests'
    /// tiny ones.
    pub reference: Option<(u64, u64)>,
}

/// The benchmark's workloads (see the README for why each was chosen).
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "search-d20",
        dims: 20,
        points: 100_000,
        clusters: 10,
        threads: 1,
        claimed: (&["search.find"], Some(0.8)),
        reference: Some((0x54d2_7213_5940_0a27, 0x1318_2431_6d72_1822)),
    },
    Workload {
        name: "scan-d5",
        dims: 5,
        points: 1_000_000,
        clusters: 5,
        threads: 1,
        claimed: (&["tree.build", "merge.build"], Some(0.7)),
        reference: Some((0x919f_6761_ac90_f30b, 0x9a27_2f83_0d04_c41f)),
    },
    Workload {
        name: "sharded-d10-t2",
        dims: 10,
        points: 400_000,
        clusters: 6,
        threads: 2,
        claimed: (&["tree.build"], None),
        reference: Some((0x3e5e_a8bd_2029_13f0, 0xac94_7a32_282c_9193)),
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's description for the run record.
    pub fn spec_json(&self) -> Value {
        json!({
            "name": self.name,
            "dims": self.dims,
            "points": self.points,
            "clusters": self.clusters,
            "noise": NOISE,
            "layout_seed": LAYOUT_SEED,
            "threads": self.threads,
        })
    }
}

/// A run's generated input.
#[derive(Debug)]
pub struct Input {
    /// The dataset as CSV bytes, as `mrcc cluster` would read them.
    pub csv: Vec<u8>,
    /// The generator's ground truth, with axes permuted like the data.
    pub truth: SubspaceClustering,
    /// `perm[j]`: the layout axis stored in column `j`.
    pub perm: Vec<usize>,
}

/// SplitMix64: a small, well-mixed generator for the axis permutation.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded axis permutation (Fisher–Yates).
pub fn axis_permutation(dims: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut perm: Vec<usize> = (0..dims).collect();
    for i in (1..dims).rev() {
        let bound = u64::try_from(i + 1).expect("dims fit in u64");
        let j = usize::try_from(splitmix(&mut state) % bound).expect("index below dims");
        perm.swap(i, j);
    }
    perm
}

/// Generates the workload's input for `seed`.
pub fn make_input(w: &Workload, seed: u64) -> Input {
    let synth = generate(&SyntheticSpec::new(
        w.name,
        w.dims,
        w.points,
        w.clusters,
        NOISE,
        LAYOUT_SEED,
    ));
    let perm = axis_permutation(w.dims, seed);
    let mut flat = Vec::with_capacity(w.points * w.dims);
    for p in synth.dataset.iter() {
        flat.extend(perm.iter().map(|&a| p[a]));
    }
    let permuted = Dataset::from_flat(w.dims, flat).expect("generated points are finite");
    drop(synth.dataset);

    let mut csv = Vec::new();
    csv::write_dataset(&mut csv, &permuted, None).expect("writing to memory cannot fail");

    let masks: Vec<AxisMask> = synth
        .ground_truth
        .clusters()
        .iter()
        .map(|c| AxisMask::from_axes(w.dims, (0..w.dims).filter(|&j| c.axes.contains(perm[j]))))
        .collect();
    let truth = SubspaceClustering::from_labels(&synth.ground_truth.labels(), &masks, w.dims);
    Input { csv, truth, perm }
}
