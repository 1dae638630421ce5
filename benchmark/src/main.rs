//! The repository's benchmark: client-seen verdict latency, CPU per
//! verdict, window-tick time and delivered share over six named
//! workloads, with a separate traced run for the per-layer table.
//! `README.md` beside this package explains every name.
//!
//! ```text
//! covenant-benchmark                          every workload, each in a fresh process
//! covenant-benchmark --trace                  the traced run of every workload
//! covenant-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! covenant-benchmark --quick                  a ~10 s smoke of every workload
//! covenant-benchmark --sets K                 K sets; per-metric spread against its bound
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines and, as
//! its last line, one JSON object `{correct, attempted, failed, metrics}`;
//! it exits non-zero, without that line, when an output check broke.

mod awake;
mod gen;
mod loadgen;
mod procfs;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use covenant_core::json::Value;
use report::{END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, RunCfg, Workload, WORKLOADS};

/// Seconds per workload when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        sets: 1,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--sets" => {
                args.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--quick" => args.quick = true,
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = it.peek().map(String::as_str) != Some("0");
                if matches!(it.peek().map(String::as_str), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Cluster node processes are this executable started again.
    covenant_cluster::maybe_run_node();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("covenant-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        None => run_all(&args),
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(workload) => run_one(workload, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("covenant-benchmark: unknown workload {name}; one of {names:?}");
                ExitCode::from(2)
            }
        },
    }
}

fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args
            .seconds
            .unwrap_or(if args.quick { 0.5 } else { DEFAULT_SECONDS }),
        trace: args.trace,
        quick: args.quick,
    };
    let name = workload.name;
    let out: Outcome = (workload.run)(&cfg);
    if let Some(table) = &out.table {
        eprintln!("{table}");
    }
    if !out.violations.is_empty() {
        for v in &out.violations {
            eprintln!("{name}: output check failed: {v}");
        }
        return ExitCode::FAILURE;
    }
    let names = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (metric, unit) in names {
        let value = out.metrics.get(metric).copied().unwrap_or(0.0);
        println!("{name} {metric} {value} {unit}");
    }
    println!("{}", report::result_line(&out, names));
    ExitCode::SUCCESS
}

/// One workload in a fresh process; its parsed result line.
fn spawn_one(name: &str, seed: u64, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (last, lines) = stdout
        .trim_end()
        .rsplit_once('\n')
        .map_or(("", ""), |(l, last)| (last, l));
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    println!("{lines}");
    Value::parse(last).map_err(|e| format!("{name}: bad result line: {e:?}"))
}

fn run_all(args: &Args) -> ExitCode {
    let header = report::header();
    println!("# {header}");
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    // values[(workload, metric)] over the sets.
    let mut values: std::collections::BTreeMap<(usize, &str), Vec<f64>> = Default::default();
    let mut results = Vec::new();
    let mut ok = true;
    for set in 0..args.sets.max(1) {
        let seed = args.seed + set as u64;
        for (w, Workload { name, why, .. }) in WORKLOADS.iter().enumerate() {
            println!("# {name}: {why}");
            match spawn_one(name, seed, args) {
                Ok(result) => {
                    for (metric, _) in names {
                        let v = result
                            .get("metrics")
                            .and_then(|m| m.get(metric))
                            .and_then(|m| m.get("value"));
                        values
                            .entry((w, metric))
                            .or_default()
                            .extend(v.and_then(Value::as_f64));
                    }
                    results.push(format!(
                        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"result\": {}}}",
                        result.to_pretty()
                    ));
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let doc = format!(
        "{{\"header\": {header}, \"results\": [\n{}\n]}}\n",
        results.join(",\n")
    );
    report::write_out(&format!("results-{kind}.json"), &doc);
    if args.sets > 1 && !args.trace {
        let bounds = std::fs::read_to_string("BENCHMARK.json")
            .ok()
            .and_then(|t| Value::parse(&t).ok())
            .map(|doc| report::bounds(&doc))
            .unwrap_or_default();
        println!(
            "# spread over {} sets: (q3 - q1) / median, against the metric's bound",
            args.sets
        );
        for ((w, metric), v) in &mut values {
            let bound = bounds.get(*metric).copied().unwrap_or(f64::NAN);
            let spread = stats::relative_spread(v);
            let flag = if *metric != "setup_s" && spread > bound {
                "  OVER"
            } else {
                ""
            };
            println!(
                "{} {metric} median {} spread {spread:.4} bound {bound}{flag}",
                WORKLOADS[*w].name,
                stats::median(v)
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
