//! `covenant sim --sweep KEY=v1,v2,…` through the real binary: a sweep
//! point prints what plain `covenant sim` prints for the file with that key
//! edited, bad arguments are usage errors, and the §4.1 load ramp
//! (`examples/scenarios/explicit_vs_implicit.json`) reproduces the paper's
//! explicit-versus-implicit queuing result from one sweep. A reader that
//! closes the pipe early (`covenant sim … | head`) ends the run quietly.

use covenant::core::json::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn covenant(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_covenant"))
        .args(args)
        .output()
        .expect("the covenant binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn scenario(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios").join(file)
}

/// Writes `file` with `from` replaced by `to` (which must occur once) to a
/// temporary path and returns it.
fn edited_copy(file: &str, from: &str, to: &str) -> PathBuf {
    let text = std::fs::read_to_string(scenario(file)).expect("scenario readable");
    assert_eq!(text.matches(from).count(), 1, "{from} must occur once in {file}");
    let path = std::env::temp_dir().join(format!("covenant-sweep-{}-{file}", std::process::id()));
    std::fs::write(&path, text.replace(from, to)).expect("temp file writable");
    path
}

/// A one-point sweep against plain `sim` on the edited copy, in the table,
/// `--json` and `--csv` formats.
fn assert_point_matches_edited_file(file: &str, key: &str, value: &str, copy: &Path) {
    let original = scenario(file);
    let (original, copy) = (original.to_str().unwrap(), copy.to_str().unwrap());
    let sweep = format!("{key}={value}");
    let run = |path: &str, extra: &[&str]| {
        let mut args = vec!["sim", path];
        args.extend_from_slice(extra);
        stdout(&covenant(&args))
    };

    let table = run(original, &["--sweep", &sweep]);
    assert_eq!(table, format!("== {key} = {value} ==\n{}", run(copy, &[])));

    let swept = Value::parse(&run(original, &["--sweep", &sweep, "--json"])).expect("JSON");
    let points = swept.as_array().expect("--sweep --json prints an array");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].to_pretty(), run(copy, &["--json"]).trim_end());

    let csv = run(original, &["--sweep", &sweep, "--csv"]);
    let plain = run(copy, &["--csv"]);
    let prefixed: String = plain.lines().skip(1).map(|l| format!("{value},{l}\n")).collect();
    assert_eq!(csv, format!("{key},{}\n{prefixed}", plain.lines().next().unwrap()));
}

#[test]
fn one_point_sweep_is_plain_sim_on_the_edited_file() {
    let copy = edited_copy(
        "fig6.json",
        r#""duration": 90.0,"#,
        r#""duration": 90.0, "window_secs": 0.05,"#,
    );
    assert_point_matches_edited_file("fig6.json", "window_secs", "0.05", &copy);
    std::fs::remove_file(&copy).ok();

    let copy = edited_copy(
        "explicit_vs_implicit.json",
        r#"{"kind": "credit_retry"}"#,
        r#"{"kind": "explicit"}"#,
    );
    assert_point_matches_edited_file(
        "explicit_vs_implicit.json",
        "queue_mode.kind",
        "explicit",
        &copy,
    );
    std::fs::remove_file(&copy).ok();
}

/// §4.1: implicit (credit) queuing serves the offered load up to the
/// 320 req/s capacity; explicit queuing's window-boundary release holds the
/// 16 closed-loop slots to ~160 req/s.
#[test]
fn explicit_vs_implicit_sweep_reproduces_the_queuing_result() {
    let path = scenario("explicit_vs_implicit.json");
    let out = stdout(&covenant(&[
        "sim",
        path.to_str().unwrap(),
        "--sweep",
        "queue_mode.kind=explicit,credit_retry",
    ]));
    let mut mode = "";
    let mut rows = 0;
    for line in out.lines() {
        if let Some(header) = line.strip_prefix("== queue_mode.kind = ") {
            mode = header.trim_end_matches(" ==");
        }
        let Some(row) = line.strip_prefix("offered ") else {
            continue;
        };
        let fields: Vec<f64> = row.split_whitespace().filter_map(|f| f.parse().ok()).collect();
        let (offered, served) = (fields[0], *fields.last().unwrap());
        match mode {
            "explicit" if offered >= 200.0 => {
                assert!(served <= 165.0, "explicit at {offered}: {served}")
            }
            "credit_retry" => {
                let expect = offered.min(320.0);
                assert!(
                    (served - expect).abs() <= 0.01 * expect,
                    "implicit at {offered}: {served}"
                );
            }
            _ => {}
        }
        rows += 1;
    }
    assert_eq!(rows, 24, "twelve offered loads per mode:\n{out}");
}

#[test]
fn bad_sweeps_are_errors_that_say_why() {
    let fig6 = scenario("fig6.json");
    let fig6 = fig6.to_str().unwrap();
    let fails_with = |args: &[&str], needle: &str| {
        let out = covenant(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    };
    fails_with(&["sim", fig6, "--sweep", "windo_secs=0.1"], "unknown key 'windo_secs'");
    fails_with(&["sim", fig6, "--sweep", "window_secs"], "--sweep needs KEY=v1,v2");
    fails_with(&["sim", fig6, "--sweep", "window_secs="], "--sweep needs KEY=v1,v2");
    fails_with(&["check", fig6, "--sweep", "window_secs=0.1"], "only to `covenant sim`");
    fails_with(&["levels", fig6, "--sweep", "window_secs=0.1"], "only to `covenant sim`");
    // Every point is built before the first runs: a bad later value fails
    // the sweep before it prints anything.
    fails_with(&["sim", fig6, "--sweep", "window_secs=0.1,0.00001"], "window_secs is 0.00001");
}

/// Reads the first line of `args`' output, closes the pipe, and checks the
/// process stops writing without a panic and exits with `code`.
fn closed_pipe_ends_quietly(args: &[&str], code: i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_covenant"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the covenant binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first line");
    assert!(!first.is_empty(), "{args:?} printed nothing");
    // The reader (and with it the pipe) is dropped here, mid-output.
    let out = child.wait_with_output().expect("the process ends");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{args:?}: {err}");
    assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
}

#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    let fig8 = scenario("fig8.json");
    let fig8 = fig8.to_str().unwrap();
    // Each sweep point prints after it runs, so the later points write
    // into the closed pipe.
    closed_pipe_ends_quietly(&["sim", fig8, "--csv", "--sweep", "extra_tree_lag=10,10,10,10"], 0);
    closed_pipe_ends_quietly(&["figures"], 0);
}

#[test]
fn a_check_whose_reader_leaves_early_still_fails() {
    // 3000 agreements with undeclared holders: 3000 V1 errors, far more
    // output than a pipe buffers, so the later lines meet the closed pipe.
    let agreements: Vec<String> = (0..3000)
        .map(|i| format!(r#"{{"issuer": "S", "holder": "Z{i}", "lb": 0.0, "ub": 0.1}}"#))
        .collect();
    let spec = format!(
        r#"{{"principals": [{{"name": "S", "capacity": 100.0}}], "agreements": [{}],
            "clients": [], "duration": 1.0}}"#,
        agreements.join(",\n")
    );
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("check_closed_pipe.json");
    std::fs::write(&path, spec).unwrap();
    closed_pipe_ends_quietly(&["check", path.to_str().unwrap()], 1);
}
