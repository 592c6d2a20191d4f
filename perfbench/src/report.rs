//! Command-line parsing and the two output lines of a run.

use serde_json::{json, Value};

use crate::run::Outcome;
use crate::workload::{self, Workload};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Usage line printed on bad arguments.
pub const USAGE: &str =
    "usage: mrcc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all required).
///
/// # Errors
/// Names the first missing, unknown or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The git revision of the checkout in the working directory, read from
/// `.git` without leaving it; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run record: what ran, where, and everything measured on the way.
pub fn record(args: &Args, outcome: &Outcome) -> Value {
    let rev = git_revision();
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut fields = vec![
        (
            "run_id".to_string(),
            json!(format!(
                "{}-seed{}-trace{}-{}",
                args.workload.name,
                args.seed,
                u8::from(args.trace),
                rev.get(..12).unwrap_or(&rev)
            )),
        ),
        ("workload".into(), args.workload.spec_json()),
        ("seed".into(), json!(args.seed)),
        ("seconds".into(), json!(args.seconds)),
        ("trace".into(), json!(args.trace)),
        ("git_revision".into(), json!(rev)),
        ("available_parallelism".into(), json!(parallelism)),
        ("threads".into(), json!(args.workload.threads)),
    ];
    fields.extend(outcome.record.iter().cloned());
    json!({ "record": Value::Object(fields) })
}

/// The last line: `correct`, `attempted`, `failed` and every metric with
/// its unit.
pub fn summary(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                json!({ "value": m.value, "unit": m.unit }),
            )
        })
        .collect();
    json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    })
}
