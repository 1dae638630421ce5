//! Fixture tests: each rule has at least one triggering and one
//! non-triggering fixture under `tests/fixtures/`. Fixtures are fed to the
//! linter under in-scope workspace-relative paths; the fixture directory
//! itself is outside the workspace walk, so these files never pollute a
//! real `covenant-lint` run.

use covenant_lint::{Diagnostic, Linter, Rule};

fn lint_as(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let mut linter = Linter::new();
    linter.add_file(rel_path, src);
    linter.finish()
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn r1_wall_clock_fires() {
    let diags = lint_as(
        "crates/enforce/src/fixture.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::WallClock), "{diags:?}");
    assert_eq!(diags[0].line, 6);
    assert_eq!(diags[1].line, 11);
}

#[test]
fn r1_wall_clock_clean() {
    let diags = lint_as(
        "crates/enforce/src/fixture.rs",
        include_str!("fixtures/r1_ok.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r1_allowlisted_file_is_exempt() {
    // The same wall-clock reads in the http clock module are sanctioned.
    let diags = lint_as(
        "crates/http/src/clock.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r2_no_panic_fires_on_all_four_forms() {
    let diags = lint_as(
        "crates/coord/src/fixture.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    // unwrap(), expect(), panic!, and v[0] — four sites.
    assert_eq!(diags.len(), 4, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == Rule::NoPanic), "{diags:?}");
}

#[test]
fn r2_no_panic_clean_and_skips_test_modules() {
    let diags = lint_as(
        "crates/coord/src/fixture.rs",
        include_str!("fixtures/r2_ok.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r2_out_of_scope_crate_is_exempt() {
    // `workload` is not on the admission path: R2 does not apply.
    let diags = lint_as(
        "crates/workload/src/fixture.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r3_float_eq_fires() {
    let diags = lint_as(
        "crates/workload/src/fixture.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(rules_fired(&diags), vec![Rule::FloatEq, Rule::FloatEq], "{diags:?}");
}

#[test]
fn r3_float_eq_clean_incl_tuple_indices() {
    let diags = lint_as(
        "crates/workload/src/fixture.rs",
        include_str!("fixtures/r3_ok.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r5_reactor_blocking_fires() {
    // In the reactor crate itself, and in any file that uses it: the same
    // fixture behind a `use covenant_reactor` line (which shifts it by one).
    let uses_reactor = format!("use covenant_reactor::Shard;\n{}", include_str!("fixtures/r5_bad.rs"));
    for (rel, src, shift) in [
        ("crates/reactor/src/fixture.rs", include_str!("fixtures/r5_bad.rs"), 0),
        ("crates/wire/src/fixture.rs", uses_reactor.as_str(), 1),
    ] {
        let diags = lint_as(rel, src);
        let r5: Vec<_> = diags.iter().filter(|d| d.rule == Rule::ReactorBlocking).collect();
        let lines: Vec<u32> = r5.iter().map(|d| d.line - shift).collect();
        assert_eq!(lines, [8, 13, 17], "{rel}: {diags:?}");
    }
}

/// R5 follows the shard drivers by what they use, not by their paths: a
/// blocking call added to either plane's driver, as it ships, is flagged,
/// and the driver itself is clean.
#[test]
fn r5_follows_the_shard_drivers() {
    let stall = "\nfn stall() {\n    std::thread::sleep(std::time::Duration::from_millis(1));\n}\n";
    for (rel, src) in [
        ("crates/l7/src/shard.rs", include_str!("../../l7/src/shard.rs")),
        ("crates/l4/src/shard.rs", include_str!("../../l4/src/shard.rs")),
        ("crates/l7/src/machine.rs", include_str!("../../l7/src/machine.rs")),
    ] {
        assert!(lint_as(rel, src).is_empty(), "{rel} as shipped");
        let diags = lint_as(rel, &format!("{src}{stall}"));
        let sleep_line = src.lines().count() as u32 + 3;
        assert_eq!(rules_fired(&diags), [Rule::ReactorBlocking], "{rel}: {diags:?}");
        assert_eq!(diags[0].line, sleep_line, "{rel}: {diags:?}");
    }
}

#[test]
fn r5_nonblocking_idiom_is_clean() {
    let diags = lint_as(
        "crates/reactor/src/fixture.rs",
        include_str!("fixtures/r5_ok.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn r5_out_of_scope_file_is_exempt() {
    // The same blocking calls in the thread-per-connection test servers
    // are their prerogative: they do not use the reactor.
    let diags = lint_as(
        "crates/http/src/server.rs",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert!(
        diags.iter().all(|d| d.rule != Rule::ReactorBlocking),
        "{diags:?}"
    );
}

#[test]
fn allow_pragma_suppresses_both_forms() {
    let diags = lint_as(
        "crates/coord/src/fixture.rs",
        include_str!("fixtures/pragma_allow.rs"),
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn non_source_paths_are_ignored() {
    // Only `crates/*/src/**` and the root `src/**` are in scope.
    let src = include_str!("fixtures/r2_bad.rs");
    for rel in ["crates/coord/tests/t.rs", "crates/coord/benches/b.rs", "tests/x.rs"] {
        let diags = lint_as(rel, src);
        assert!(diags.is_empty(), "{rel}: {diags:?}");
    }
}

#[test]
fn the_workspace_itself_is_clean() {
    // The acceptance gate, as a test: `covenant-lint` over this repo's own
    // sources reports nothing. CARGO_MANIFEST_DIR = crates/lint.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let diags = covenant_lint::lint_workspace(root);
    assert!(diags.is_empty(), "workspace violations: {diags:#?}");
}
