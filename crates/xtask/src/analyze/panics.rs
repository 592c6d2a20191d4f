//! Panic-path audit: which public functions can transitively panic?
//!
//! Per audited crate, every parsed function body is scanned for *direct*
//! panic sources:
//!
//! * panic-family macros — `panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`;
//! * assertion macros — `assert!`, `assert_eq!`, `assert_ne!`
//!   (`debug_assert*` is deliberately excluded: it compiles out of release
//!   builds, which are what this audit models);
//! * the unwrap family — `.unwrap()`, `.expect()`, `.unwrap_err()`,
//!   `.expect_err()` (an `.expect("… invariant …")` is still a panic path —
//!   deliberate, documented ones live in the baseline until burned down);
//! * slice/array indexing `x[…]` without an `// xtask-allow: indexing`
//!   annotation documenting the bounds invariant.
//!
//! A call graph is then built by name resolution against the audited crates'
//! own functions (`Type::method(…)` exactly; bare calls against free
//! functions, same crate first; `.method(…)` against every known method of
//! that name — a deliberate over-approximation: a false edge can only make
//! the audit stricter, never let a real panic path through). Panic-ness
//! propagates to a fixed point, and every *public* function of the audited
//! crates that can panic must be listed in the committed baseline
//! `crates/xtask/panic-baseline.txt`: new paths fail the build, stale
//! entries fail too (burn-down is enforced), `--bless` rewrites the file.
//!
//! Test code (`#[cfg(test)]`) and the `strict-invariants` verification layer
//! are outside the audit: both exist to panic.

use super::Finding;
use crate::ast::{Token, Vis};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use super::CrateAst;

/// The crates whose public surface must not grow new panic paths.
pub const AUDITED_CRATES: [&str; 4] = ["mrcc-common", "mrcc-stats", "mrcc-counting-tree", "mrcc"];

/// Repo-relative path of the committed allowlist.
pub const BASELINE_PATH: &str = "crates/xtask/panic-baseline.txt";

/// A direct panic source inside one function body.
#[derive(Debug, Clone)]
pub struct PanicSource {
    /// Human-readable description (`` `panic!` ``, `` `.unwrap()` ``, …).
    pub what: &'static str,
    /// 1-based line.
    pub line: usize,
}

/// One call site extracted from a function body.
#[derive(Debug, Clone)]
struct Call {
    /// Path qualifier immediately before the name (`Binomial::new` → `Binomial`).
    qualifier: Option<String>,
    /// Called name.
    name: String,
    /// `true` for `.name(…)` method-call syntax.
    method: bool,
}

/// A call-graph node.
#[derive(Debug)]
struct Node {
    crate_name: String,
    key: String,
    self_ty: Option<String>,
    file: String,
    line: usize,
    gated: bool,
    sources: Vec<PanicSource>,
    calls: Vec<Call>,
}

/// Why a node panics (for witness-path reporting).
#[derive(Debug, Clone, Copy)]
enum Why {
    Direct,
    Calls(usize),
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
const UNWRAP_FAMILY: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];

/// Keywords that can directly precede `(`/`[` without forming a call/index.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "in"
            | "move"
            | "as"
            | "let"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "unsafe"
            | "where"
            | "use"
            | "pub"
            | "fn"
            | "impl"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "dyn"
            | "box"
            | "await"
    )
}

/// Scans a function body for direct panic sources. `allows` suppresses
/// indexing findings annotated `// xtask-allow: indexing`.
fn direct_sources(body: &[Token], file: &crate::source::SourceFile) -> Vec<PanicSource> {
    let mut out = Vec::new();
    for (i, tok) in body.iter().enumerate() {
        let next = body.get(i + 1);
        if tok.is_ident && next.is_some_and(|n| n.text == "!") {
            // `name !` — macro invocation (a trailing `!=` never parses this
            // way: `!` followed by `=` belongs to an expression where the
            // preceding token is not an invocation head; the distinction
            // does not matter for these macro names).
            let followed_by_delim = body
                .get(i + 2)
                .is_some_and(|d| d.text == "(" || d.text == "[" || d.text == "{");
            if followed_by_delim {
                if PANIC_MACROS.contains(&tok.text.as_str()) {
                    out.push(PanicSource {
                        what: "panic-family macro",
                        line: tok.line + 1,
                    });
                } else if ASSERT_MACROS.contains(&tok.text.as_str()) {
                    out.push(PanicSource {
                        what: "assertion macro",
                        line: tok.line + 1,
                    });
                }
            }
        }
        if tok.is_ident
            && UNWRAP_FAMILY.contains(&tok.text.as_str())
            && i > 0
            && body[i - 1].text == "."
            && next.is_some_and(|n| n.text == "(")
        {
            out.push(PanicSource {
                what: "unwrap-family call",
                line: tok.line + 1,
            });
        }
        if tok.text == "[" && i > 0 {
            let prev = &body[i - 1];
            let indexes_place =
                (prev.is_ident && !is_keyword(&prev.text)) || prev.text == ")" || prev.text == "]";
            if indexes_place && !file.allows(tok.line, "indexing") {
                out.push(PanicSource {
                    what: "unchecked slice indexing",
                    line: tok.line + 1,
                });
            }
        }
    }
    out
}

/// Extracts the call sites of a function body.
fn body_calls(body: &[Token]) -> Vec<Call> {
    let mut out = Vec::new();
    for (i, tok) in body.iter().enumerate() {
        if tok.text != "(" || i == 0 {
            continue;
        }
        let prev = &body[i - 1];
        if !prev.is_ident || is_keyword(&prev.text) {
            continue;
        }
        let before = i.checked_sub(2).map(|j| &body[j]);
        match before.map(|t| t.text.as_str()) {
            Some(".") => out.push(Call {
                qualifier: None,
                name: prev.text.clone(),
                method: true,
            }),
            Some("fn") | Some("!") => {} // nested fn decl / macro head
            _ => {
                // Path qualifier: `ident :: name (`.
                let qualifier = (i >= 4
                    && body[i - 2].text == ":"
                    && body[i - 3].text == ":"
                    && body[i - 4].is_ident)
                    .then(|| body[i - 4].text.clone());
                out.push(Call {
                    qualifier,
                    name: prev.text.clone(),
                    method: false,
                });
            }
        }
    }
    out
}

/// Builds the call-graph nodes for the audited crates.
fn build_nodes(crates: &[CrateAst]) -> Vec<Node> {
    let mut nodes = Vec::new();
    for c in crates {
        if !AUDITED_CRATES.contains(&c.name.as_str()) {
            continue;
        }
        for src in &c.files {
            for f in &src.parsed.fns {
                if f.is_test || f.strict_invariants {
                    continue;
                }
                nodes.push(Node {
                    crate_name: c.name.clone(),
                    key: f.key(),
                    self_ty: f.self_ty.clone(),
                    file: src.file.path.clone(),
                    line: f.line + 1,
                    gated: f.vis == Vis::Pub && !f.in_trait_impl,
                    sources: direct_sources(&f.body, &src.file),
                    calls: body_calls(&f.body),
                });
            }
        }
    }
    nodes
}

/// Resolves every call of every node to callee indices by name.
fn resolve_edges(nodes: &[Node]) -> Vec<Vec<usize>> {
    let mut assoc: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        match &n.self_ty {
            Some(ty) => {
                assoc
                    .entry((ty.as_str(), n.key_name()))
                    .or_default()
                    .push(i);
                methods.entry(n.key_name()).or_default().push(i);
            }
            None => free.entry(n.key_name()).or_default().push(i),
        }
    }
    nodes
        .iter()
        .map(|n| {
            let mut edges = BTreeSet::new();
            for call in &n.calls {
                if call.method {
                    if let Some(ids) = methods.get(call.name.as_str()) {
                        edges.extend(ids.iter().copied());
                    }
                    continue;
                }
                match call.qualifier.as_deref() {
                    Some("Self") => {
                        if let Some(ty) = &n.self_ty {
                            if let Some(ids) = assoc.get(&(ty.as_str(), call.name.as_str())) {
                                edges.extend(ids.iter().copied());
                            }
                        }
                    }
                    Some(q) => {
                        if let Some(ids) = assoc.get(&(q, call.name.as_str())) {
                            edges.extend(ids.iter().copied());
                        } else if q.chars().next().is_some_and(char::is_lowercase) {
                            // Module-qualified free call (`search::find(…)`).
                            if let Some(ids) = free.get(call.name.as_str()) {
                                edges.extend(ids.iter().copied());
                            }
                        }
                    }
                    None => {
                        if let Some(ids) = free.get(call.name.as_str()) {
                            // Same-crate candidates win; otherwise any crate
                            // (cross-crate imports like `mdl_cut`).
                            let same: Vec<usize> = ids
                                .iter()
                                .copied()
                                .filter(|&j| nodes[j].crate_name == n.crate_name)
                                .collect();
                            edges.extend(if same.is_empty() { ids.clone() } else { same });
                        }
                    }
                }
            }
            edges.into_iter().collect()
        })
        .collect()
}

impl Node {
    /// The bare function name (`Type::name` → `name`).
    fn key_name(&self) -> &str {
        self.key.rsplit("::").next().unwrap_or(&self.key)
    }
}

/// Fixed-point panic propagation; returns per-node `Option<Why>`.
fn propagate(nodes: &[Node], edges: &[Vec<usize>]) -> Vec<Option<Why>> {
    let mut why: Vec<Option<Why>> = nodes
        .iter()
        .map(|n| (!n.sources.is_empty()).then_some(Why::Direct))
        .collect();
    loop {
        let mut changed = false;
        for i in 0..nodes.len() {
            if why[i].is_some() {
                continue;
            }
            if let Some(&callee) = edges[i].iter().find(|&&j| why[j].is_some()) {
                why[i] = Some(Why::Calls(callee));
                changed = true;
            }
        }
        if !changed {
            return why;
        }
    }
}

/// Reconstructs a readable witness path `f → g → h: <source> at file:line`.
fn witness(nodes: &[Node], why: &[Option<Why>], start: usize) -> String {
    let mut path = Vec::new();
    let mut at = start;
    for _ in 0..8 {
        path.push(nodes[at].key.clone());
        match why[at] {
            Some(Why::Calls(next)) if next != at => at = next,
            _ => break,
        }
    }
    let terminal = &nodes[at];
    let source = terminal.sources.first().map_or_else(String::new, |s| {
        format!("{} at {}:{}", s.what, terminal.file, s.line)
    });
    format!("{} — {source}", path.join(" → "))
}

/// The result of one audit pass.
pub struct Audit {
    /// Baseline-shaped `crate key` lines for every panicking public function.
    pub current: BTreeMap<String, String>,
    /// Findings against the given baseline.
    pub findings: Vec<Finding>,
}

/// Audits `crates` against `baseline` text (lines of `crate fn-key`;
/// `#` comments and blanks ignored).
pub fn audit(crates: &[CrateAst], baseline: &str) -> Audit {
    let nodes = build_nodes(crates);
    let edges = resolve_edges(&nodes);
    let why = propagate(&nodes, &edges);

    // `crate key` → witness message, for every panicking public function.
    let mut current: BTreeMap<String, String> = BTreeMap::new();
    let mut location: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.gated && why[i].is_some() {
            let entry = format!("{} {}", n.crate_name, n.key);
            current
                .entry(entry.clone())
                .or_insert_with(|| witness(&nodes, &why, i));
            location.entry(entry).or_insert((n.file.clone(), n.line));
        }
    }

    let allowed: BTreeSet<&str> = baseline
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();

    let mut findings = Vec::new();
    for (entry, path) in &current {
        if !allowed.contains(entry.as_str()) {
            let (file, line) = location.get(entry).cloned().unwrap_or_default();
            findings.push(Finding {
                path: file,
                line,
                slug: "panic-path",
                message: format!(
                    "new panic path from public function: {path}; make it infallible \
                     or accept it with `analyze --bless`"
                ),
            });
        }
    }
    for entry in &allowed {
        if !current.contains_key(*entry) {
            findings.push(Finding {
                path: BASELINE_PATH.to_string(),
                line: 0,
                slug: "panic-baseline",
                message: format!(
                    "stale baseline entry `{entry}` — this function no longer panics; \
                     remove the line (or run `analyze --bless`)"
                ),
            });
        }
    }
    Audit { current, findings }
}

/// Renders the committed baseline file from an audit.
pub fn render_baseline(audit: &Audit) -> String {
    let mut out = String::from(
        "# Panic-path baseline — public functions of the audited crates that can\n\
         # transitively reach a panic source (see crates/xtask/src/analyze/panics.rs).\n\
         # Every line is `<crate> <function-key>`. New panic paths must NOT be added\n\
         # here casually: fix the code, or justify the entry in the PR. Burned-down\n\
         # entries are removed by `cargo run -p xtask -- analyze --bless`.\n",
    );
    for entry in audit.current.keys() {
        out.push_str(entry);
        out.push('\n');
    }
    out
}

/// Filesystem wrapper: audits against the committed baseline, rewriting it
/// under `--bless`.
pub fn audit_repo(repo: &Path, crates: &[CrateAst], bless: bool) -> Vec<Finding> {
    let path = repo.join(BASELINE_PATH);
    let baseline = std::fs::read_to_string(&path).unwrap_or_default();
    let result = audit(crates, &baseline);
    if bless {
        if let Err(err) = std::fs::write(&path, render_baseline(&result)) {
            return vec![Finding {
                path: BASELINE_PATH.to_string(),
                line: 0,
                slug: "io",
                message: format!("cannot write baseline: {err}"),
            }];
        }
        return Vec::new();
    }
    result.findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_crate(src: &str) -> Vec<CrateAst> {
        vec![CrateAst::from_sources(
            "mrcc-stats",
            &[("crates/stats/src/lib.rs", src)],
        )]
    }

    #[test]
    fn direct_panic_in_public_fn_is_reported() {
        let crates = one_crate("pub fn boom() { panic!(\"no\"); }\n");
        let a = audit(&crates, "");
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].slug, "panic-path");
        assert!(a.current.contains_key("mrcc-stats boom"));
    }

    #[test]
    fn transitive_panic_propagates_to_public_callers() {
        let src = "fn inner(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   pub fn outer() -> u32 { inner(None) }\n";
        let a = audit(&one_crate(src), "");
        assert!(
            a.current.contains_key("mrcc-stats outer"),
            "{:?}",
            a.current
        );
        // The private inner fn is a source but not itself gated.
        assert!(!a.current.contains_key("mrcc-stats inner"));
        assert!(a.current["mrcc-stats outer"].contains("inner"));
    }

    #[test]
    fn baseline_suppresses_known_paths_and_flags_stale_ones() {
        let crates = one_crate("pub fn boom() { panic!(\"no\"); }\n");
        let a = audit(&crates, "# comment\nmrcc-stats boom\n");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
        let a = audit(&crates, "mrcc-stats boom\nmrcc-stats gone\n");
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].slug, "panic-baseline");
    }

    #[test]
    fn indexing_is_a_source_unless_annotated() {
        let bad = "pub fn pick(v: &[u32]) -> u32 { v[0] }\n";
        assert!(!audit(&one_crate(bad), "").findings.is_empty());
        let good = "pub fn pick(v: &[u32]) -> u32 {\n\
                    \x20   // xtask-allow: indexing — caller guarantees non-empty\n\
                    \x20   v[0]\n}\n";
        assert!(audit(&one_crate(good), "").findings.is_empty());
        let get = "pub fn pick(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\n";
        assert!(audit(&one_crate(get), "").findings.is_empty());
    }

    #[test]
    fn tests_and_strict_invariants_are_exempt() {
        let src = "#[cfg(feature = \"strict-invariants\")]\n\
                   pub fn check(&self) { assert!(false); }\n\
                   #[cfg(test)]\nmod tests {\n    pub fn t() { panic!(); }\n}\n";
        let a = audit(&one_crate(src), "");
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn method_resolution_links_across_crates() {
        let tree = CrateAst::from_sources(
            "mrcc-counting-tree",
            &[(
                "crates/counting-tree/src/lib.rs",
                "pub struct Level;\nimpl Level {\n    pub fn cell(&self, i: usize) -> u32 { self.cells[i] }\n}\n",
            )],
        );
        let core = CrateAst::from_sources(
            "mrcc",
            &[(
                "crates/core/src/lib.rs",
                "pub fn probe(l: &Level) -> u32 { l.cell(3) }\n",
            )],
        );
        let a = audit(&[tree, core], "");
        assert!(a.current.contains_key("mrcc probe"), "{:?}", a.current);
        assert!(a.current.contains_key("mrcc-counting-tree Level::cell"));
    }

    #[test]
    fn assert_counts_but_debug_assert_does_not() {
        let src = "pub fn a(x: u32) { assert!(x > 0); }\n\
                   pub fn d(x: u32) { debug_assert!(x > 0); }\n";
        let a = audit(&one_crate(src), "");
        assert!(a.current.contains_key("mrcc-stats a"));
        assert!(!a.current.contains_key("mrcc-stats d"));
    }

    #[test]
    fn unaudited_crates_are_ignored() {
        let crates = vec![CrateAst::from_sources(
            "mrcc-eval",
            &[("crates/eval/src/lib.rs", "pub fn boom() { panic!(); }\n")],
        )];
        assert!(audit(&crates, "").findings.is_empty());
    }
}
