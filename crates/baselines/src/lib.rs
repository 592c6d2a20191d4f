#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Clean-room Rust implementations of the subspace / projected clustering
//! methods MrCC is evaluated against (paper Section IV), plus the plain
//! k-means substrate two of them build on.
//!
//! | Module | Algorithm | Original paper |
//! |--------|-----------|----------------|
//! | [`kmeans`] | Lloyd's k-means with k-means++ seeding | substrate |
//! | [`clique`] | CLIQUE: bottom-up dense-unit mining | Agrawal et al., SIGMOD 1998 |
//! | [`proclus`] | PROCLUS: k-medoid projected clustering | Aggarwal et al., SIGMOD 1999 |
//! | [`lac`] | LAC: locally adaptive (weighted) clustering | Domeniconi et al., DMKD 2007 |
//! | [`doc`] | DOC / FastDOC: Monte-Carlo projective clustering (the CFPC core) | Procopiuc et al., SIGMOD 2002 |
//! | [`epch`] | EPCH: projective clustering by histograms | Ng, Fu, Wong, TKDE 2005 |
//! | [`p3c`] | P3C: projected clustering via cluster cores | Moise, Sander, Ester, KAIS 2008 |
//! | [`harp`] | HARP: hierarchical projected clustering | Yip, Cheung, Ng, TKDE 2004 |
//! | [`sting`] | STING: statistical information grid (the paper's cited basis) | Wang, Yang, Muntz, VLDB 1997 |
//!
//! Every method implements [`SubspaceClusterer`], producing the same
//! [`SubspaceClustering`] output MrCC does, so the evaluation harness scores
//! all of them identically. These are reimplementations from the original
//! papers, not ports of the authors' binaries (which the MrCC authors
//! obtained privately); absolute constants differ, asymptotics and
//! qualitative behaviour match.

pub mod clique;
pub mod doc;
pub mod epch;
pub mod harp;
pub mod kmeans;
pub mod lac;
pub mod p3c;
pub mod proclus;
pub mod sting;

pub use clique::{Clique, CliqueConfig};
pub use doc::{Doc, DocConfig};
pub use epch::{Epch, EpchConfig};
pub use harp::{Harp, HarpConfig};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use lac::{Lac, LacConfig};
pub use p3c::{P3c, P3cConfig};
pub use proclus::{Proclus, ProclusConfig};
pub use sting::{Sting, StingConfig};

use mrcc_common::{Dataset, Result, SubspaceClustering};

/// Common interface for every clustering method in the comparison.
///
/// `Send + Sync` so the harness can run methods on budgeted worker threads.
pub trait SubspaceClusterer: Send + Sync {
    /// Short display name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Clusters a unit-normalized dataset.
    ///
    /// # Errors
    /// Implementation-specific validation failures.
    fn fit(&self, dataset: &Dataset) -> Result<SubspaceClustering>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_objects_are_usable() {
        let methods: Vec<Box<dyn SubspaceClusterer>> = vec![
            Box::new(Lac::new(LacConfig::new(2))),
            Box::new(Doc::new(DocConfig::new(2))),
        ];
        assert_eq!(methods[0].name(), "LAC");
        assert_eq!(methods[1].name(), "CFPC");
    }
}
