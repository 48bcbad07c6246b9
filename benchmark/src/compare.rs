//! `--compare A.json B.json`: each workload's end-to-end medians side by
//! side, judged against the bounds in `BENCHMARK.json`.
//!
//! Within one run the medians hold steady; the noise that matters is the
//! host's speed drifting between runs. Each record carries the median time
//! of the native mirror set, sampled between the passes, so the comparison
//! sees that drift: a host time (unit `s`, `ns` or `1/s`) is unresolved
//! when the native medians of A and B differ by more than its bound, and
//! the drift-cancelled `slowdown_vs_native` decides.

use crate::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

/// How B reads against A for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better than A by more than the bound.
    Improved,
    /// Worse than A by more than the bound.
    Regressed,
    /// A band wider than the bound: the runs cannot tell.
    Unresolved,
    /// A host time while the host's speed moved by more than the bound
    /// (the relative change of the native mirror's median, B against A).
    Drift(f64),
}

impl Verdict {
    fn label(self) -> String {
        match self {
            Verdict::Same => "same".into(),
            Verdict::Improved => "improved".into(),
            Verdict::Regressed => "REGRESSED".into(),
            Verdict::Unresolved => "unresolved (band)".into(),
            Verdict::Drift(d) => format!("unresolved (host drift {:+.1}%)", d * 100.0),
        }
    }
}

/// One side of a comparison: a median and its interquartile range as a
/// share of the median.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median.
    pub value: f64,
    /// `(q3 - q1) / median`.
    pub iqr_rel: f64,
}

/// Judge B against A. `bound` is the share of A's median by which B may
/// be worse and still count as the same. `drift` is the host's change of
/// speed between the sets for a host time, `None` for a metric that does
/// not move with it.
pub fn verdict(a: Side, b: Side, lower_is_better: bool, bound: f64, drift: Option<f64>) -> Verdict {
    if let Some(d) = drift.filter(|d| d.abs() > bound) {
        return Verdict::Drift(d);
    }
    if a.iqr_rel > bound || b.iqr_rel > bound {
        return Verdict::Unresolved;
    }
    let worse = if lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// Whether a metric of this unit is a host time, which moves with the
/// host's speed.
fn host_timed(unit: &str) -> bool {
    matches!(unit, "s" | "ns" | "1/s")
}

/// The run settings both files must share for their medians to compare.
const SETTINGS: [&str; 3] = ["seed", "seconds", "trace"];

/// Why two result files cannot be compared: settings that differ, or a
/// traced file, whose passes run with stage timers on.
fn incomparable(a: &Value, b: &Value) -> Vec<String> {
    let mut why: Vec<String> = SETTINGS
        .iter()
        .filter(|k| a.get(k) != b.get(k))
        .map(|k| {
            let show = |r: &Value| r.get(k).map_or("missing".into(), Value::to_string);
            format!("{k} differs: {} in A, {} in B", show(a), show(b))
        })
        .collect();
    if [a, b]
        .iter()
        .any(|r| r.get("trace") != Some(&Value::Bool(false)))
    {
        why.push("only untraced result files compare".into());
    }
    why
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A metric's side in a results file.
fn side(results: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.num()?;
    let iqr = match (
        m.get("q1").and_then(Value::num),
        m.get("q3").and_then(Value::num),
    ) {
        (Some(q1), Some(q3)) => (q3 - q1) / value,
        _ => 0.0,
    };
    Some(Side {
        value,
        iqr_rel: iqr,
    })
}

/// A workload's number `key` in a results file.
fn workload_num(results: &Value, workload: &str, key: &str) -> Option<f64> {
    results.get("workloads")?.get(workload)?.get(key)?.num()
}

/// Run the comparison from the repository root (where `BENCHMARK.json`
/// lives). Exits 1 on any regression, 2 on input that cannot be compared.
pub fn main(a_path: &Path, b_path: &Path) -> ExitCode {
    let (spec, a, b) = match (
        load(Path::new("BENCHMARK.json")),
        load(a_path),
        load(b_path),
    ) {
        (Ok(s), Ok(a), Ok(b)) => (s, a, b),
        (s, a, b) => {
            for e in [s.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("compare: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let why = incomparable(&a, &b);
    if !why.is_empty() {
        for e in why {
            eprintln!("compare: {e}");
        }
        return ExitCode::from(2);
    }
    let workloads: Vec<&str> = a
        .get("workloads")
        .map_or(&[][..], Value::members)
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    println!(
        "{:<11} {:<19} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = false;
    for w in workloads {
        // The host's change of speed between the sets, seen by the native
        // mirror samples taken between the passes.
        let (na, nb) = (
            workload_num(&a, w, "native_s"),
            workload_num(&b, w, "native_s"),
        );
        let drift = match (na, nb) {
            (Some(na), Some(nb)) => {
                println!(
                    "{w:<11} {:<19} {na:>14.6e} {nb:>14.6e} {:>8.4}",
                    "native_s",
                    nb / na
                );
                nb / na - 1.0
            }
            _ => {
                println!("{w:<11} {:<19} missing on one side", "native_s");
                regressed = true;
                continue;
            }
        };
        for m in spec.get("end_to_end").map_or(&[][..], Value::items) {
            let (Some(name), Some(unit), Some(bound)) = (
                m.get("name").and_then(Value::str),
                m.get("unit").and_then(Value::str),
                m.get("bound").and_then(Value::num),
            ) else {
                continue;
            };
            let lower = m.get("better").and_then(Value::str) == Some("lower");
            let (Some(sa), Some(sb)) = (side(&a, w, name), side(&b, w, name)) else {
                println!("{w:<11} {name:<19} missing on one side");
                regressed = true;
                continue;
            };
            let v = verdict(sa, sb, lower, bound, host_timed(unit).then_some(drift));
            regressed |= v == Verdict::Regressed;
            println!(
                "{w:<11} {name:<19} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {}",
                sa.value,
                sb.value,
                sb.value / sa.value,
                bound,
                v.label()
            );
        }
        // Failed runs have an absolute bound of zero.
        let (fa, fb) = (
            workload_num(&a, w, "fail_frac").unwrap_or(1.0),
            workload_num(&b, w, "fail_frac").unwrap_or(1.0),
        );
        let v = if fb > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Same
        };
        regressed |= v == Verdict::Regressed;
        println!(
            "{w:<11} {:<19} {fa:>14} {fb:>14} {:>8} {:>6}  {}",
            "fail_frac",
            "",
            0,
            v.label()
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, iqr_rel: f64) -> Side {
        Side { value, iqr_rel }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = s(100.0, 0.02);
        let v = |b, lower| verdict(a, b, lower, 0.10, None);
        assert_eq!(v(s(105.0, 0.02), true), Verdict::Same);
        assert_eq!(v(s(95.0, 0.02), true), Verdict::Same);
        assert_eq!(v(s(111.0, 0.02), true), Verdict::Regressed);
        assert_eq!(v(s(89.0, 0.02), true), Verdict::Improved);
        // Higher is better: a drop is the regression.
        assert_eq!(v(s(89.0, 0.02), false), Verdict::Regressed);
        assert_eq!(v(s(111.0, 0.02), false), Verdict::Improved);
    }

    #[test]
    fn a_band_wider_than_the_bound_is_unresolved() {
        let a = s(100.0, 0.02);
        assert_eq!(
            verdict(a, s(150.0, 0.11), true, 0.10, None),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 0.2), s(100.0, 0.0), true, 0.10, None),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_host_time_is_unresolved_when_the_host_drifted_beyond_the_bound() {
        let a = s(100.0, 0.02);
        // The host slowed by 30% and so did the pass: no regression call.
        assert_eq!(
            verdict(a, s(130.0, 0.02), true, 0.10, Some(0.30)),
            Verdict::Drift(0.30)
        );
        assert_eq!(
            verdict(a, s(100.0, 0.02), true, 0.10, Some(-0.12)),
            Verdict::Drift(-0.12)
        );
        // Drift within the bound leaves the ordinary verdicts.
        assert_eq!(
            verdict(a, s(130.0, 0.02), true, 0.10, Some(0.05)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(a, s(104.0, 0.02), true, 0.10, Some(0.05)),
            Verdict::Same
        );
        assert!(host_timed("s") && host_timed("ns") && host_timed("1/s"));
        assert!(!host_timed("x") && !host_timed("MB"));
    }

    #[test]
    fn files_of_different_settings_or_traced_files_do_not_compare() {
        let file = |seed: u32, seconds: u32, trace: bool| {
            json::parse(&format!(
                r#"{{"seed": {seed}, "seconds": {seconds}, "trace": {trace}, "nproc": 2, "workloads": {{}}}}"#
            ))
            .unwrap()
        };
        assert!(incomparable(&file(0, 15, false), &file(0, 15, false)).is_empty());
        assert_eq!(
            incomparable(&file(0, 15, false), &file(3, 15, false)),
            ["seed differs: 0 in A, 3 in B"]
        );
        assert_eq!(
            incomparable(&file(0, 15, false), &file(0, 60, false)).len(),
            1
        );
        assert_eq!(
            incomparable(&file(0, 15, false), &file(0, 15, true)),
            [
                "trace differs: false in A, true in B",
                "only untraced result files compare"
            ]
        );
        assert_eq!(
            incomparable(&file(0, 15, true), &file(0, 15, true)),
            ["only untraced result files compare"]
        );
        let bare = json::parse(r#"{"workloads": {}}"#).unwrap();
        assert_eq!(incomparable(&bare, &file(0, 15, false)).len(), 4);
    }

    #[test]
    fn sides_are_read_from_a_results_file() {
        let r = json::parse(
            r#"{"workloads": {"w": {"fail_frac": 0, "native_s": 0.5, "metrics": {
                "pass_s_p50": {"value": 2.0, "unit": "s", "q1": 1.9, "q3": 2.1, "n": 30},
                "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}}}"#,
        )
        .unwrap();
        let p = side(&r, "w", "pass_s_p50").unwrap();
        assert_eq!(p.value, 2.0);
        assert!((p.iqr_rel - 0.1).abs() < 1e-12);
        assert_eq!(side(&r, "w", "peak_rss_mb").unwrap().iqr_rel, 0.0);
        assert!(side(&r, "w", "setup_s").is_none());
        assert!(side(&r, "v", "pass_s_p50").is_none());
        assert_eq!(workload_num(&r, "w", "native_s"), Some(0.5));
        assert_eq!(workload_num(&r, "v", "native_s"), None);
    }
}
