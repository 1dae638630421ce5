//! The metric vocabulary (which must match `BENCHMARK.json`), the result
//! line the driver reads, and the header every result file carries.

use crate::procfs;
use crate::workloads::Outcome;
use covenant_core::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them; `README.md` says what each means where.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("cpu_ns_per_verdict", "ns"),
    ("share_ratio_min", "ratio"),
    ("capacity_use_ratio", "ratio"),
];

/// Per-layer metrics of the traced run, `layer.metric`. The unprefixed ones
/// are the operation's 90th percentile — too unsteady on a shared two-core
/// box to carry a bound — and the issue's end-to-end names that only some
/// workloads have.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_p90_us", "us"),
    ("verdict_p50_us", "us"),
    ("verdict_p90_us", "us"),
    ("shard_cpu_ns_per_verdict", "ns"),
    ("sat_verdicts_per_cpu_s", "1/s"),
    ("floor_first_try_share", "ratio"),
    ("tick_p50_us", "us"),
    ("tick_p90_us", "us"),
    ("tick_samples", "count"),
    ("sim_events_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("http.parse_head_ns", "ns"),
    ("reactor.wakes", "count"),
    ("reactor.verdicts_per_wake", "ratio"),
    ("reactor.shed", "count"),
    ("l7.pingpong_rtt_us", "us"),
    ("l7.admit_302", "count"),
    ("l7.self_302", "count"),
    ("l7.other_status", "count"),
    ("l7.verdict_p99_us", "us"),
    ("l7.verdict_samples", "count"),
    ("l7.sat_verdicts_per_s", "1/s"),
    ("l7.shard_busy_share", "ratio"),
    ("enforce.try_admit_ns", "ns"),
    ("enforce.defer_ns", "ns"),
    ("enforce.admitted", "count"),
    ("enforce.deferred", "count"),
    ("enforce.ewma_observe_ns", "ns"),
    ("enforce.gate_roll_ns", "ns"),
    ("enforce.tick_self_us", "us"),
    ("coord.publish_ns", "ns"),
    ("coord.read_ns", "ns"),
    ("sched.plan_window_us", "us"),
    ("sched.cache_hits", "count"),
    ("sched.cache_misses", "count"),
    ("sched.cache_hit_ratio", "ratio"),
    ("lp.cold_plan_us", "us"),
    ("lp.cold_solve_us", "us"),
    ("lp.warm_solve_us", "us"),
    ("lp.pivots_per_window", "ratio"),
    ("lp.warm_hits", "count"),
    ("lp.cold_fallbacks", "count"),
    ("lp.dense_fallbacks", "count"),
    ("lp.refactorizations", "count"),
    ("lp.busy_share", "ratio"),
    ("agreements.access_levels_ms", "ms"),
    ("wire.frame_encode_ns", "ns"),
    ("wire.frame_decode_ns", "ns"),
    ("wire.frames_sent", "count"),
    ("wire.rounds_completed", "count"),
    ("wire.rounds_forced", "count"),
    ("wire.frames_per_round", "ratio"),
    ("wire.reconnects", "count"),
    ("wire.rtt_us", "us"),
    ("cluster.launch_ms", "ms"),
    ("cluster.scrape_ms", "ms"),
    ("cluster.leaf_cpu_ns_per_verdict", "ns"),
    ("sim.events_processed", "count"),
    ("sim.peak_event_queue", "count"),
    ("sim.run_s", "s"),
    ("sim.transfers", "count"),
    ("core.scenario_parse_us", "us"),
    ("core.build_sim_ms", "ms"),
    ("verify.check_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.lateness_p90_us", "us"),
    ("gen.lateness_max_us", "us"),
    ("gen.cpu_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.windows", "count"),
    ("trace.window_coverage_p01", "ratio"),
];

/// The last line of a run's standard output.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let attempted = out.attempted.max(1);
    let failed = (out.failed + out.violations.len() as u64).min(attempted);
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        out.violations.is_empty(),
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every result file carries, as one JSON object: what ran,
/// on what, built how. All live traffic is loopback, never a real link.
pub fn header() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!(
        "{{\"git_rev\": \"{}\", \"nproc\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"kernel\": \"{}\", \"network\": \"loopback\"}}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        procfs::nproc(),
        command_line("rustc", &["--version"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        kernel.trim(),
    )
}

/// Writes `benchmark/out/<name>` under the current directory (the
/// repository root, where `run.sh` starts the binary).
pub fn write_out(name: &str, contents: &str) {
    let dir = std::path::Path::new("benchmark/out");
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("could not write benchmark/out/{name}: {e}");
    }
}

/// Each end-to-end metric's regression bound, from a parsed
/// `BENCHMARK.json`.
pub fn bounds(doc: &Value) -> BTreeMap<String, f64> {
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above are one vocabulary.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json is JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k| w.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert_eq!(seconds, crate::DEFAULT_SECONDS);
        let bounds = bounds(&doc);
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.values().all(|b| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn result_line_is_the_contracts_shape() {
        let mut out = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        out.metrics.insert("setup_s", 0.25);
        out.metrics.insert("op_p50_us", f64::NAN);
        let line = result_line(&out, &END_TO_END[..3]);
        let v = Value::parse(&line).expect("one JSON object");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let value = |name: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64)
        };
        assert_eq!(value("setup_s"), Some(0.25));
        // A metric nobody measured, or one that is not a number, reads 0.
        assert_eq!(value("peak_rss_mb"), Some(0.0));
        assert_eq!(value("op_p50_us"), Some(0.0));
        assert!(!line.contains('\n'));
    }
}
