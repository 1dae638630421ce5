//! `covenant` CLI: run agreement-enforcement deployments and scenarios
//! from JSON specs and regenerate the paper's experiments.
//!
//! ```text
//! covenant example-spec                 # print a starter deployment spec
//! covenant check spec.json [--json] [--deny all|V1,...] [--list-rules]
//!                                      # static agreement-contract verifier:
//!                                      # rules V1-V10 with file:line:col
//!                                      # diagnostics; exits non-zero on
//!                                      # errors or denied warnings
//! covenant levels spec.json            # entitlement table for a spec
//! covenant sim scenario.json [--csv | --json] [--deny ...] [--sweep KEY=v1,v2,...]
//!                                      # simulate the full scenario: shared
//!                                      # links, timeline dynamics, seeded
//!                                      # reply sizes; the table output adds
//!                                      # a per-phase rate table when the
//!                                      # file declares "phases"; --json
//!                                      # output is replay-deterministic;
//!                                      # --sweep runs once per value of one
//!                                      # spec key (see `cli`)
//! covenant figures                     # Figure 1, then Figures 6-10 from
//!                                      # examples/scenarios/fig*.json
//! covenant cluster spec.json [secs] [--deny ...]
//!                                      # launch the spec's combining tree as
//!                                      # real OS processes, run for `secs`
//!                                      # (default 5), scrape every node's
//!                                      # /metrics endpoint, and tear down
//! ```
//!
//! All spec-taking subcommands share one flag surface (see `cli`):
//! `--json`, `--csv`, and `--deny` mean the same thing everywhere, and
//! every spec is verified before it runs. `levels` and `cluster` read a
//! scenario file's deployment (net and timeline ignored); `sim`
//! materializes everything.

/// `print!` for the CLI's standard output. When the reader has gone
/// (`covenant sim … --csv | head`), the process stops writing and exits 0
/// instead of panicking as `print!` does on a closed pipe.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::emit(format_args!($($arg)*))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

mod cli;
mod figures;

use cli::Options;
use covenant::agreements::PrincipalId;
use covenant::core::json::{Spanned, Value};
use covenant::core::{DeploymentSpec, ScenarioOutcome, ScenarioSpec, SpecError};
use covenant::sim::{SimConfig, SimReport};
use covenant::verify::Diagnostic;
use std::process::ExitCode;

fn main() -> ExitCode {
    // If this process was fork/exec'd as a cluster node, run the node and
    // never return; the CLI path continues below otherwise.
    covenant::cluster::maybe_run_node();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    let opts = match cli::parse(args.get(1..).unwrap_or(&[])) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.sweep.is_some() && cmd != Some("sim") {
        eprintln!("error: --sweep applies only to `covenant sim`");
        return ExitCode::FAILURE;
    }
    match cmd {
        Some("example-spec") => {
            outln!("{EXAMPLE_SPEC}");
            ExitCode::SUCCESS
        }
        Some("check") => check_cmd(&opts),
        Some("levels") => with_spec(&opts, false, |spec| {
            let g = spec.build_graph()?;
            let lv = g.access_levels();
            outln!(
                "{:<16}{:>12}{:>14}{:>14}",
                "principal", "capacity", "mandatory", "optional"
            );
            for (i, p) in g.principals().iter().enumerate() {
                let id = PrincipalId(i);
                outln!(
                    "{:<16}{:>12.1}{:>14.1}{:>14.1}",
                    p.name,
                    p.capacity,
                    lv.mandatory(id),
                    lv.optional(id)
                );
            }
            Ok(())
        }),
        Some("sim") => sim_cmd(&opts),
        Some("cluster") => with_spec(&opts, true, |spec| {
            let secs = opts
                .rest
                .first()
                .and_then(|a| a.parse::<f64>().ok())
                .unwrap_or(5.0)
                .clamp(0.5, 600.0);
            // Plain `println!`: on a closed pipe it panics, and unwinding
            // drops the cluster, which stops its node processes.
            let mut cluster = covenant::cluster::Cluster::launch(spec)?;
            println!("origin backend: http://{}/", cluster.origin_addr());
            println!("{:<6}{:<12}{:<24}{:<24}{:<24}", "node", "role", "wire", "metrics", "http");
            for n in cluster.nodes() {
                println!(
                    "{:<6}{:<12}{:<24}{:<24}{:<24}",
                    n.node,
                    n.role,
                    n.wire_addr.to_string(),
                    n.metrics_addr.to_string(),
                    n.http_addr.map(|a| a.to_string()).unwrap_or_else(|| "-".into())
                );
            }
            println!("\nrunning for {secs:.1} s …\n");
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            let ids: Vec<usize> = cluster.nodes().iter().map(|n| n.node).collect();
            for node in ids {
                println!("--- node {node} /metrics ---");
                match cluster.scrape(node) {
                    Ok(body) => print!("{body}"),
                    Err(e) => println!("scrape failed: {e}"),
                }
            }
            cluster.shutdown();
            Ok(())
        }),
        Some("figures") => exit_of(figures::run(&opts)),
        _ => {
            eprintln!(
                "usage: covenant <example-spec | check <spec.json> [--json] [--deny all|V1,...] \
                 [--list-rules] | levels <spec.json> | \
                 sim <scenario.json> [--csv | --json] [--sweep KEY=v1,v2,...] | figures | \
                 cluster <spec.json> [secs]>"
            );
            ExitCode::FAILURE
        }
    }
}

/// `covenant check`: run the static verifier over a spec file and report
/// `file:line:col` diagnostics. Exits non-zero on error-severity findings
/// or on any finding whose rule appears in `--deny`.
fn check_cmd(opts: &Options) -> ExitCode {
    use covenant::verify::{has_errors, to_json, RuleMeta, VRule};
    if opts.list_rules {
        for r in VRule::registry() {
            outln!("{:<4}{:<9}{}", r.code(), r.severity().to_string(), r.describe());
        }
        return ExitCode::SUCCESS;
    }
    let path = match opts
        .require_path("covenant check <spec.json> [--json] [--deny all|V1,...] [--list-rules]")
    {
        Ok(path) => path,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let diags = match read_and_check(path) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let failed = has_errors(&diags) || diags.iter().any(|d| opts.deny.contains(&d.rule));
    let say = |args: std::fmt::Arguments<'_>| emit_or_exit(args, i32::from(failed));
    if opts.json {
        say(format_args!("{}\n", to_json(&diags)));
    } else {
        for d in &diags {
            say(format_args!("{d}\n"));
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    if !opts.json {
        if diags.is_empty() {
            say(format_args!("{path}: OK\n"));
        } else {
            say(format_args!("{path}: OK with {} warning(s)\n", diags.len()));
        }
    }
    ExitCode::SUCCESS
}

/// `covenant sim`: materialize a full scenario — shared links, timeline
/// dynamics, seeded reply sizes — and run it on the streaming engine. The
/// table output ends with the per-phase rate table when the scenario
/// declares `phases`. With `--sweep`, every point is verified and built
/// before the first one runs, so a bad value fails before any output.
fn sim_cmd(opts: &Options) -> ExitCode {
    const USAGE: &str =
        "covenant sim <scenario.json> [--csv | --json] [--deny ...] [--sweep KEY=v1,v2,...]";
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let path = opts.require_path(USAGE)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let Some(sweep) = &opts.sweep else {
            let (sc, outcome) = simulate(path, &text, opts)?;
            print_run(opts, &sc, &outcome);
            return Ok(());
        };
        let source = Spanned::parse(&text).map_err(SpecError::Json)?;
        let doc = source.clone().into_value();
        let mut points = Vec::new();
        for value in &sweep.values {
            let point = sweep.point(&doc, value)?;
            points.push((value, prepare(path, &source, &point, opts)?));
        }
        if opts.csv {
            outln!("{},time_s,principal,rate_req_s", sweep.key);
        }
        let mut docs = Vec::new();
        for (i, (value, (sc, cfg))) in points.into_iter().enumerate() {
            let outcome = ScenarioOutcome::run(&sc, cfg);
            if opts.json {
                docs.push(report_json(&sc, &outcome.report));
            } else if opts.csv {
                print_csv(&sc, &outcome.report, &format!("{value},"));
            } else {
                let gap = if i == 0 { "" } else { "\n" };
                outln!("{gap}== {} = {value} ==", sweep.key);
                print_run(opts, &sc, &outcome);
            }
        }
        if opts.json {
            outln!("{}", Value::Arr(docs).to_pretty());
        }
        Ok(())
    };
    exit_of(run())
}

/// Prints one `sim` run as plain `covenant sim` does: the JSON document
/// with `--json`, the per-second series with `--csv`, else the rate table
/// and the phase table.
fn print_run(opts: &Options, sc: &ScenarioSpec, outcome: &ScenarioOutcome) {
    if opts.json {
        outln!("{}", report_json(sc, &outcome.report).to_pretty());
    } else if opts.csv {
        outln!("time_s,principal,rate_req_s");
        print_csv(sc, &outcome.report, "");
    } else {
        print_table(sc, &outcome.report);
        if !sc.phases.is_empty() {
            out!("\n{}", outcome.phase_table());
        }
    }
}

/// The one scenario path behind `sim` and `figures`: verify the text
/// (labelled `label` in diagnostics), decode it, build it, run it, and
/// summarize its phases.
fn simulate(
    label: &str,
    text: &str,
    opts: &Options,
) -> Result<(ScenarioSpec, ScenarioOutcome), Box<dyn std::error::Error>> {
    let source = Spanned::parse(text).map_err(SpecError::Json)?;
    let (sc, cfg) = prepare(label, &source, &source.clone().into_value(), opts)?;
    let outcome = ScenarioOutcome::run(&sc, cfg);
    Ok((sc, outcome))
}

/// Verifies `doc` (positioned in `source`, labelled `label`), decodes it
/// and builds its simulator configuration.
fn prepare(
    label: &str,
    source: &Spanned,
    doc: &Value,
    opts: &Options,
) -> Result<(ScenarioSpec, SimConfig), Box<dyn std::error::Error>> {
    verify_gate(covenant::verify::check_value(label, source, doc)?, opts)?;
    let sc = ScenarioSpec::from_value(doc)?;
    let cfg = sc.build_sim()?;
    Ok((sc, cfg))
}

fn with_spec(
    opts: &Options,
    verify: bool,
    f: impl FnOnce(&DeploymentSpec) -> Result<(), Box<dyn std::error::Error>>,
) -> ExitCode {
    let run = || -> Result<(), Box<dyn std::error::Error>> {
        let path = opts.require_path("covenant <subcommand> <spec.json> [flags]")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        if verify {
            verify_gate(covenant::verify::check_text(path, &text)?, opts)?;
        }
        let spec = DeploymentSpec::from_json(&text)?;
        f(&spec)
    };
    exit_of(run())
}

/// Writes to standard output; a closed pipe ends the process with status 0
/// (the reader asked for no more), any other write error with status 1.
fn emit(args: std::fmt::Arguments<'_>) {
    emit_or_exit(args, 0)
}

/// [`emit`], with the status a closed pipe ends the process with:
/// `check`'s status is its verdict, whether or not its reader stayed.
fn emit_or_exit(args: std::fmt::Arguments<'_>, closed: i32) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(closed);
        }
        eprintln!("error: writing to standard output: {e}");
        std::process::exit(1);
    }
}

fn exit_of(r: Result<(), Box<dyn std::error::Error>>) -> ExitCode {
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_and_check(path: &str) -> Result<Vec<covenant::verify::Diagnostic>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    covenant::verify::check_text(path, &text).map_err(|e| format!("{path}: {e}"))
}

/// Prints a spec's verifier findings (rules V1–V10 over the full
/// scenario) and fails on error-severity findings or anything in `--deny`.
fn verify_gate(diags: Vec<Diagnostic>, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    use covenant::verify::RuleMeta;
    for d in &diags {
        eprintln!("{d}");
    }
    if covenant::verify::has_errors(&diags) {
        return Err("spec failed verification; see diagnostics above (suppress a \
                    rule deliberately via the spec's \"allow\" list)"
            .into());
    }
    if let Some(d) = diags.iter().find(|d| opts.deny.contains(&d.rule)) {
        return Err(format!(
            "spec failed verification: {} finding denied by --deny (suppress it \
             deliberately via the spec's \"allow\" list)",
            d.rule.code()
        )
        .into());
    }
    Ok(())
}

/// The replay-deterministic JSON document of one run.
fn report_json(sc: &ScenarioSpec, report: &SimReport) -> Value {
    covenant::core::run_report_json(&names(sc), sc.deployment.duration, report)
}

fn names(sc: &ScenarioSpec) -> Vec<String> {
    sc.deployment.principals.iter().map(|p| p.name.clone()).collect()
}

/// The per-second served-rate series, one `prefix,time,principal,rate` row
/// per sample.
fn print_csv(sc: &ScenarioSpec, report: &SimReport, prefix: &str) {
    for (i, name) in names(sc).iter().enumerate() {
        for (t, r) in report.rates.series(PrincipalId(i)) {
            outln!("{prefix}{t},{name},{r}");
        }
    }
}

/// The `sim` rate table: offered, served, deferred and response time per
/// principal, then the run's server, tree and link counters.
fn print_table(sc: &ScenarioSpec, report: &SimReport) {
    let duration = sc.deployment.duration;
    outln!(
        "{:<16}{:>12}{:>12}{:>12}{:>14}",
        "principal", "offered", "served/s", "deferred", "mean resp ms"
    );
    for (i, name) in names(sc).iter().enumerate() {
        let id = PrincipalId(i);
        outln!(
            "{:<16}{:>12}{:>12.1}{:>12}{:>14.1}",
            name,
            report.offered[i],
            report.rates.mean_rate_secs(id, duration * 0.2, duration),
            report.deferred[i],
            report.response[i].mean().unwrap_or(0.0) * 1000.0
        );
    }
    outln!(
        "\nserver drops: {}; tree messages: {} (pairwise equivalent {})",
        report.dropped_server, report.tree_messages, report.pairwise_messages_equivalent
    );
    if let Some(net) = covenant::core::sim_counters(report).net {
        outln!(
            "net: {} transfers, {:.2} MB over shared links, peak {} concurrent, \
             mean transfer {:.1} ms",
            net.transfers,
            net.bytes / 1.0e6,
            net.peak_concurrent,
            net.mean_transfer_secs * 1000.0
        );
    }
}

const EXAMPLE_SPEC: &str = r#"{
  "principals": [
    {"name": "provider", "capacity": 320.0},
    {"name": "gold"},
    {"name": "bronze"}
  ],
  "agreements": [
    {"issuer": "provider", "holder": "gold", "lb": 0.7, "ub": 1.0},
    {"issuer": "provider", "holder": "bronze", "lb": 0.1, "ub": 1.0}
  ],
  "redirector_tree": [null, 0],
  "policy": {"kind": "community"},
  "queue_mode": {"kind": "credit_retry", "retry_delay": 0.05},
  "clients": [
    {"principal": "gold", "redirector": 0, "phases": [[60.0, 300.0]], "max_outstanding": 64},
    {"principal": "bronze", "redirector": 1, "phases": [[60.0, 300.0]], "max_outstanding": 64}
  ],
  "duration": 60.0
}"#;
