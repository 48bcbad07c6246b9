//! The repository benchmark: five guest workloads, end-to-end run metrics,
//! and a traced per-layer breakdown. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace [0|1]]    every workload
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --compare A.json B.json
//! ```
//!
//! With `--workload` the run prints `workload metric value unit` lines
//! and, last, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones); it also writes that record with each metric's quartiles and
//! sample count to `target/benchmark/<workload>.json` (`-trace.json` when
//! traced). Without `--workload`, each workload runs in a child process of
//! its own, so peak RSS is per workload, and the records are collected in
//! `target/benchmark/results.json` (`results-trace.json` when traced).

mod compare;
mod guests;
mod json;
mod runner;
mod stats;
mod trace;

use guests::WORKLOADS;
use json::Value;
use runner::{Opts, Report, OUT_DIR};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Timed seconds per workload run; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;
/// Fewest timed passes per run.
const MIN_PASSES: usize = 11;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
       benchmark --compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--compare" => {
                out.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            // A bare `--trace` means `--trace 1`.
            "--trace" => {
                out.trace = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::main(a, b);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// The record of one workload run. `detail` adds each metric's quartiles
/// and sample count, the failure share and the native mirror's median
/// time, by which `--compare` sees the host drift between runs.
fn record(r: &Report, detail: bool) -> Value {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            let mut v = vec![
                ("value".to_string(), Value::Num(m.band.median)),
                ("unit".to_string(), Value::Str(m.unit.into())),
            ];
            if detail {
                v.push(("q1".into(), Value::Num(m.band.q1)));
                v.push(("q3".into(), Value::Num(m.band.q3)));
                v.push(("n".into(), Value::Num(m.band.n as f64)));
            }
            (m.name.to_string(), Value::Obj(v))
        })
        .collect();
    let mut out = vec![
        ("correct".to_string(), Value::Bool(r.failed == 0)),
        ("attempted".into(), Value::Num(r.attempted as f64)),
        ("failed".into(), Value::Num(r.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ];
    if detail {
        out.push(("fail_frac".into(), Value::Num(r.fail_frac())));
        out.push(("native_s".into(), Value::Num(r.native_s)));
    }
    Value::Obj(out)
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(w) = guests::workload(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let opts = Opts {
        size: fpvm_workloads::Size::S,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS) as f64,
        trace: args.trace,
        min_passes: MIN_PASSES,
    };
    let report = match runner::run(w, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("{name}: FAILED {e}");
    }
    for m in &report.metrics {
        let b = &m.band;
        let band = if b.n > 1 {
            format!(" q1={} q3={} n={}", b.q1, b.q3, b.n)
        } else {
            String::new()
        };
        let detail = if m.detail.is_empty() {
            String::new()
        } else {
            format!(" {}", m.detail)
        };
        println!("{name} {} {} {}{band}{detail}", m.name, b.median, m.unit);
    }
    println!(
        "{name} fail_frac {} ratio attempted={} failed={}",
        report.fail_frac(),
        report.attempted,
        report.failed
    );
    println!("{name} native_s {} s", report.native_s);
    for n in &report.notes {
        println!("{name} {n}");
    }
    let path = record_path(name, args.trace);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, format!("{}\n", record(&report, true))));
    if let Err(e) = written {
        eprintln!("{name}: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{}", record(&report, false));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a one-workload run writes its detailed record.
fn record_path(workload: &str, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    Path::new(OUT_DIR).join(format!("{workload}{suffix}.json"))
}

/// Every workload, each in a child process; collects their records.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut ok = true;
    let mut records = Vec::new();
    for w in &WORKLOADS {
        let detail = record_path(w.name, args.trace);
        let _ = std::fs::remove_file(&detail);
        let child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                ok = false;
                continue;
            }
        };
        ok &= child.status.success();
        // Forward the human-readable lines; the last line is the JSON
        // record, read back in full from the detail file instead.
        let text = String::from_utf8_lossy(&child.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        match std::fs::read_to_string(&detail)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t))
        {
            Ok(v) => records.push((w.name.to_string(), v)),
            Err(e) => {
                eprintln!("{}: no record ({e})", w.name);
                ok = false;
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Value::Obj(vec![
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(seconds as f64)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(nproc as f64)),
        ("workloads".into(), Value::Obj(records)),
    ]);
    let path = Path::new(OUT_DIR).join(if args.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    if let Err(e) = std::fs::write(&path, format!("{results}\n")) {
        eprintln!("benchmark: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results: {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpvm_workloads::Size;

    fn strings(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_one_workload_and_the_all_workloads_command_lines() {
        let a = parse_args(&strings(&[
            "--workload",
            "bigfloat",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("bigfloat"), 7, Some(15), false)
        );
        assert!(parse_args(&strings(&["--trace", "1"])).unwrap().trace);
        assert!(parse_args(&strings(&["--trace"])).unwrap().trace);
        assert!(
            parse_args(&strings(&["--trace", "--seed", "3"]))
                .unwrap()
                .trace
        );
        let c = parse_args(&strings(&["--compare", "a.json", "b.json"])).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--seed", "x"])).is_err());
        assert!(parse_args(&strings(&["--compare", "a.json"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get(field).and_then(Value::str).unwrap().to_string())
                .collect()
        };
        let ours = |t: &[(&str, &str)], i: usize| -> Vec<String> {
            t.iter()
                .map(|p| if i == 0 { p.0 } else { p.1 }.to_string())
                .collect()
        };
        assert_eq!(names("end_to_end", "name"), ours(&runner::END_TO_END, 0));
        assert_eq!(names("end_to_end", "unit"), ours(&runner::END_TO_END, 1));
        assert_eq!(names("per_layer", "name"), ours(&runner::PER_LAYER, 0));
        assert_eq!(names("per_layer", "unit"), ours(&runner::PER_LAYER, 1));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        assert_eq!(
            spec.get("run_seconds").and_then(Value::num),
            Some(DEFAULT_SECONDS as f64)
        );
    }

    /// A Size::Tiny run of every workload, untraced and traced, emits every
    /// named metric with no failed run.
    #[test]
    fn tiny_smoke_of_every_workload() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    size: Size::Tiny,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    min_passes: 2,
                };
                let r = runner::run(w, opts).unwrap();
                assert!(r.attempted > 0, "{}", w.name);
                assert_eq!(
                    (r.failed, r.fail_frac()),
                    (0, 0.0),
                    "{}: {:?}",
                    w.name,
                    r.errors
                );
                let table = if trace {
                    &runner::PER_LAYER[..]
                } else {
                    &runner::END_TO_END[..]
                };
                let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = table.iter().map(|p| p.0).collect();
                assert_eq!(names, want, "{}", w.name);
                assert!(
                    r.metrics.iter().all(|m| m.band.median.is_finite()),
                    "{}",
                    w.name
                );
                if !trace {
                    assert!(r.metrics.iter().all(|m| m.band.median > 0.0), "{}", w.name);
                }
                // The last output line parses back with exactly its four keys.
                let line = json::parse(&record(&r, false).to_string()).unwrap();
                let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }
}
