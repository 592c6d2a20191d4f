//! Paper-constant conformance: the code must still say what the paper says.
//!
//! MrCC's statistical guarantees hinge on a handful of exact constants
//! (Sections III–IV of Cordeiro et al., ICDE 2010): the `Binomial(nP_j, 1/6)`
//! null hypothesis over six half-cell regions, the integer Laplacian mask
//! weights (`2d` centre / `−1` faces; `3^d − 1` centre for the full mask),
//! the default significance level `α = 1e−10`, `H = 4` resolutions with
//! `H ≥ 3`. A silent drift in any of them — a refactor replacing `1/6` with
//! a parameter default of `0.15`, say — would keep every unit test green
//! while quietly changing what the library computes.
//!
//! Each [`Check`] below names a crate, a file, and a code pattern. Matching
//! is deliberately dumb: all whitespace is stripped from both the pattern and
//! the file's *masked* code view (comments and string-literal contents
//! blanked — prose cannot satisfy a check), then a substring search runs.
//! Dumb matching is robust against formatting and precise enough for
//! constants. There is no `--bless` for this table: if the paper-derived code
//! must change, change the table here in the same commit, visibly.

use super::Finding;

use super::CrateAst;

/// One paper-conformance rule.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Package name the rule applies to.
    pub crate_name: &'static str,
    /// Repo-relative path suffix of the file that must hold the pattern.
    pub file_suffix: &'static str,
    /// Code pattern; whitespace-insensitive substring of the masked source.
    pub pattern: &'static str,
    /// What the pattern pins down, for the failure message.
    pub what: &'static str,
}

/// The conformance table.
pub const CHECKS: [Check; 9] = [
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/search.rs",
        pattern: "pub const NEIGHBORHOOD_REGIONS: u64 = 6;",
        what: "six half-cell regions per axis (Sec. III-B)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/search.rs",
        pattern: "pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;",
        what: "uniform null share p = 1/6 (Sec. III-B)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/search.rs",
        pattern: "binomial_critical_value(neighborhood, NULL_REGION_SHARE, alpha)",
        what: "the β-cluster test draws its critical value from Binomial(nP_j, 1/6)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/convolution.rs",
        pattern: "2 * dims as i64 * center",
        what: "face-only Laplacian centre weight 2d (Sec. III-A, Fig. 2)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/convolution.rs",
        pattern: "3i64.pow(dims as u32) - 1",
        what: "full Laplacian centre weight 3^d − 1 (Sec. III-A)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/config.rs",
        pattern: "alpha: 1e-10,",
        what: "paper default significance level α = 1e−10 (Sec. IV-D)",
    },
    Check {
        crate_name: "mrcc",
        file_suffix: "core/src/config.rs",
        pattern: "resolutions: 4,",
        what: "paper default resolution count H = 4 (Sec. IV-D)",
    },
    Check {
        crate_name: "mrcc-counting-tree",
        file_suffix: "counting-tree/src/tree.rs",
        pattern: "pub const MIN_RESOLUTIONS: usize = 3;",
        what: "the method requires H ≥ 3 resolutions (Sec. III)",
    },
    Check {
        crate_name: "mrcc-stats",
        file_suffix: "stats/src/binomial.rs",
        pattern: "inc_beta(count_to_f64(k), count_to_f64(self.n - k + 1), self.p)",
        what: "exact binomial tail via the incomplete-beta identity P(X ≥ k) = I_p(k, n−k+1)",
    },
];

/// Strips every whitespace character.
fn squash(text: &str) -> String {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Evaluates one check against the loaded crates. `None` means conforming.
pub fn evaluate(crates: &[CrateAst], check: &Check) -> Option<Finding> {
    let Some(krate) = crates.iter().find(|c| c.name == check.crate_name) else {
        return Some(Finding {
            path: check.file_suffix.to_string(),
            line: 0,
            slug: "paper-constant",
            message: format!(
                "crate `{}` not found in the workspace — cannot verify {}",
                check.crate_name, check.what
            ),
        });
    };
    let Some(src) = krate
        .files
        .iter()
        .find(|s| s.file.path.ends_with(check.file_suffix))
    else {
        return Some(Finding {
            path: check.file_suffix.to_string(),
            line: 0,
            slug: "paper-constant",
            message: format!(
                "file `…{}` not found in crate `{}` — cannot verify {}",
                check.file_suffix, check.crate_name, check.what
            ),
        });
    };
    let code = squash(&src.file.code.join("\n"));
    if code.contains(&squash(check.pattern)) {
        None
    } else {
        Some(Finding {
            path: src.file.path.clone(),
            line: 0,
            slug: "paper-constant",
            message: format!(
                "paper constant drifted: expected `{}` ({}); if this change is \
                 deliberate, update the table in crates/xtask/src/analyze/constants.rs",
                check.pattern, check.what
            ),
        })
    }
}

/// Runs the whole table.
pub fn check(crates: &[CrateAst]) -> Vec<Finding> {
    CHECKS.iter().filter_map(|c| evaluate(crates, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: Check = Check {
        crate_name: "mrcc",
        file_suffix: "core/src/search.rs",
        pattern: "pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;",
        what: "uniform null share",
    };

    fn core_crate(src: &str) -> Vec<CrateAst> {
        vec![CrateAst::from_sources(
            "mrcc",
            &[("crates/core/src/search.rs", src)],
        )]
    }

    #[test]
    fn whitespace_differences_do_not_matter() {
        let crates = core_crate("pub const NULL_REGION_SHARE:f64   =\n    1.0/6.0;\n");
        assert!(evaluate(&crates, &CHECK).is_none());
    }

    #[test]
    fn a_deleted_constant_is_reported() {
        let crates = core_crate("pub const NULL_REGION_SHARE: f64 = 0.15;\n");
        let finding = evaluate(&crates, &CHECK).expect("drift must be flagged");
        assert_eq!(finding.slug, "paper-constant");
        assert_eq!(finding.path, "crates/core/src/search.rs");
    }

    #[test]
    fn a_comment_cannot_satisfy_a_check() {
        // The pattern appears only in prose; the masked code view blanks it.
        let crates = core_crate("// pub const NULL_REGION_SHARE: f64 = 1.0 / 6.0;\n");
        assert!(evaluate(&crates, &CHECK).is_some());
    }

    #[test]
    fn missing_crate_or_file_is_reported() {
        assert!(evaluate(&[], &CHECK).is_some());
        let crates = vec![CrateAst::from_sources(
            "mrcc",
            &[("crates/core/src/lib.rs", "pub fn f() {}\n")],
        )];
        assert!(evaluate(&crates, &CHECK).is_some());
    }

    #[test]
    fn the_committed_table_targets_only_audited_paths() {
        for c in &CHECKS {
            assert!(
                c.file_suffix.contains("/src/"),
                "{} is not a library source path",
                c.file_suffix
            );
        }
    }
}
