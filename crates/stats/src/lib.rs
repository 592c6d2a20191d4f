#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(not(test), warn(clippy::as_conversions))]
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Statistics substrate for the MrCC reproduction.
//!
//! Everything numerical the clustering stack needs, implemented from scratch:
//!
//! * [`gamma`] — log-gamma (Lanczos), log-factorials, log binomial
//!   coefficients.
//! * [`beta`] — the regularized incomplete beta function `I_x(a, b)` via the
//!   Lentz continued fraction, which yields *exact* binomial tails at any `n`.
//! * [`gamma_inc`] — regularized incomplete gamma `P(a, x)` / `Q(a, x)`
//!   (series + continued fraction), which yields Poisson tails (used by the
//!   P3C baseline).
//! * [`binomial`] — the binomial distribution, its survival function and the
//!   **critical value** `θ_j^α` of the paper's null-hypothesis test
//!   (`cP_j ~ Binomial(nP_j, 1/6)` under uniformity, Section III-B).
//! * [`poisson`] — Poisson tails for the P3C baseline.
//! * [`normal`] — standard normal CDF and quantile.
//! * [`mdl`] — the Minimum Description Length cut over a sorted array of axis
//!   relevances that tunes MrCC's relevant-axis threshold `cThreshold`.
//! * [`describe`] — small descriptive-statistics helpers.

pub mod beta;
pub mod binomial;
pub mod describe;
pub mod gamma;
pub mod gamma_inc;
pub mod mdl;
pub mod normal;
pub mod poisson;

pub use binomial::{binomial_critical_value, binomial_sf, Binomial};
pub use mdl::{mdl_cut, MdlCut};
