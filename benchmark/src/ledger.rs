//! The recorded baseline (`baseline.json` next to this crate): per
//! workload, the latest medians with their per-rep extremes and the host
//! they came from. `--record` rewrites the entries of the workloads it
//! ran; `--check` gates against them.

use crate::report::{Better, Summary, END_TO_END};
use crate::workload::{Workload, REPS};
use dg_serve::json::{self, obj, Json};
use std::path::PathBuf;

/// The baseline file.
fn baseline_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json"))
}

/// What identifies a host for gating. The commit is recorded but never
/// compared: a check exists to compare commits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Whether the CPU reports AVX2.
    pub avx2: bool,
    /// Whether the CPU reports AVX-512F.
    pub avx512f: bool,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Fingerprint {
    /// This host, now.
    pub fn current() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
                .unwrap_or_default()
        };
        let flags = field("flags");
        let has = |f: &str| flags.split_whitespace().any(|x| x == f);
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: field("model name"),
            avx2: has("avx2"),
            avx512f: has("avx512f"),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .unwrap_or_default()
                .trim()
                .to_owned(),
            commit,
        }
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("avx2", Json::Bool(self.avx2)),
            ("avx512f", Json::Bool(self.avx512f)),
            ("kernel", Json::Str(self.kernel.clone())),
            ("commit", Json::Str(self.commit.clone())),
        ])
    }

    fn from_json(v: &Json) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: usize::try_from(v.get("nproc")?.as_u64()?).ok()?,
            cpu_model: v.get("cpu_model")?.as_str()?.to_owned(),
            avx2: v.get("avx2")?.as_bool()?,
            avx512f: v.get("avx512f")?.as_bool()?,
            kernel: v.get("kernel")?.as_str()?.to_owned(),
            commit: v.get("commit")?.as_str()?.to_owned(),
        })
    }

    /// Whether two hosts are the same for gating (commit ignored).
    fn same_host(&self, other: &Fingerprint) -> bool {
        (
            self.nproc,
            &self.cpu_model,
            self.avx2,
            self.avx512f,
            &self.kernel,
        ) == (
            other.nproc,
            &other.cpu_model,
            other.avx2,
            other.avx512f,
            &other.kernel,
        )
    }
}

fn load() -> Result<Json, String> {
    let path = baseline_path();
    match std::fs::read_to_string(&path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(_) => Ok(obj(vec![])),
    }
}

/// Writes the summaries into the baseline, replacing those workloads'
/// entries.
///
/// # Errors
///
/// An unreadable or unwritable baseline file.
pub fn record(summaries: &[Summary], seed: u64, seconds: f64) -> Result<(), String> {
    let old = load()?;
    let mut entries: Vec<(String, Json)> = Workload::ALL
        .iter()
        .filter_map(|w| Some((w.name().to_owned(), old.get(w.name())?.clone())))
        .collect();
    let host = Fingerprint::current().to_json();
    for s in summaries {
        let metrics = END_TO_END
            .iter()
            .filter_map(|m| {
                let v = s.values.get(m.name)?;
                Some((
                    m.name,
                    obj(vec![
                        ("median", Json::Num(v.value)),
                        ("min", Json::Num(v.min)),
                        ("max", Json::Num(v.max)),
                        ("unit", Json::Str(m.unit.to_owned())),
                        ("better", Json::Str(m.better.label().to_owned())),
                        ("bound", Json::Num(m.bound)),
                    ]),
                ))
            })
            .collect();
        let plan = s.workload.plan(seconds);
        let entry = obj(vec![
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("reps", Json::Num(REPS as f64)),
            ("requests_per_rep", Json::Num(plan.requests as f64)),
            ("open_loop_rps", Json::Num(plan.open_loop_rps)),
            ("tail_percentile", Json::Num(s.tail_percentile)),
            ("host", host.clone()),
            ("metrics", obj(metrics)),
        ]);
        entries.retain(|(name, _)| name != s.workload.name());
        entries.push((s.workload.name().to_owned(), entry));
    }
    entries.sort_by_key(|(name, _)| Workload::parse(name).map_or(usize::MAX, |w| w as usize));
    let mut text = String::new();
    pretty(&Json::Obj(entries), 0, &mut text);
    text.push('\n');
    let path = baseline_path();
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Renders `v` with one member per line for objects that hold objects;
/// every other value stays on one line.
fn pretty(v: &Json, indent: usize, out: &mut String) {
    let Json::Obj(pairs) = v else {
        out.push_str(&v.render());
        return;
    };
    if !pairs.iter().any(|(_, x)| matches!(x, Json::Obj(_))) {
        out.push_str(&v.render());
        return;
    }
    out.push_str("{\n");
    for (i, (key, x)) in pairs.iter().enumerate() {
        out.push_str(&"  ".repeat(indent + 1));
        out.push_str(&Json::Str(key.clone()).render());
        out.push_str(": ");
        pretty(x, indent + 1, out);
        out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    out.push_str(&"  ".repeat(indent));
    out.push('}');
}

/// The verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline median by more than the bound.
    Regressed,
    /// The baseline's own per-rep spread exceeds the bound, so no
    /// difference within it can be resolved.
    Unresolved,
}

/// Compares a median against a baseline `(median, min, max)`.
pub fn judge(better: Better, bound: f64, now: f64, base: (f64, f64, f64)) -> Verdict {
    let (median, min, max) = base;
    if median <= 0.0 || (max - min) / median > bound {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (now - median) / median,
        Better::Higher => (median - now) / median,
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Gates the summaries against the baseline. Returns `Ok(false)` on any
/// regression; a host that differs from the recorded one is reported and
/// never gated.
///
/// # Errors
///
/// An unreadable baseline file.
pub fn check(summaries: &[Summary]) -> Result<bool, String> {
    let base = load()?;
    let here = Fingerprint::current();
    let mut ok = true;
    for s in summaries {
        let entry = base.get(s.workload.name());
        let recorded = entry
            .and_then(|e| e.get("host"))
            .and_then(Fingerprint::from_json);
        let gated = recorded.as_ref().is_some_and(|r| r.same_host(&here));
        if !gated {
            eprintln!(
                "check {}: host {here:?} differs from the recorded {recorded:?}; reporting only",
                s.workload.name()
            );
        }
        for m in END_TO_END {
            let (Some(v), Some(b)) = (
                s.values.get(m.name),
                entry
                    .and_then(|e| e.get("metrics"))
                    .and_then(|e| e.get(m.name)),
            ) else {
                eprintln!("check {} {}: no baseline", s.workload.name(), m.name);
                continue;
            };
            let num = |k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let verdict = judge(
                m.better,
                m.bound,
                v.value,
                (num("median"), num("min"), num("max")),
            );
            ok &= !(gated && verdict == Verdict::Regressed);
            eprintln!(
                "check {} {}: {:?} (now {:.4}, baseline {:.4} [{:.4}, {:.4}], bound {:.0}%)",
                s.workload.name(),
                m.name,
                verdict,
                v.value,
                num("median"),
                num("min"),
                num("max"),
                m.bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let base = (100.0, 98.0, 103.0);
        assert_eq!(judge(Better::Lower, 0.10, 109.0, base), Verdict::Ok);
        assert_eq!(judge(Better::Lower, 0.10, 111.0, base), Verdict::Regressed);
        assert_eq!(judge(Better::Higher, 0.10, 111.0, base), Verdict::Ok);
        assert_eq!(judge(Better::Higher, 0.10, 89.0, base), Verdict::Regressed);
        assert_eq!(
            judge(Better::Lower, 0.10, 500.0, (100.0, 80.0, 130.0)),
            Verdict::Unresolved
        );
    }
}
