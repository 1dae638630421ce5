//! Tier-1 gates over the shipped scenario library (`examples/scenarios/`,
//! the paper's `fig*.json` testbeds included): every scenario must verify
//! clean under the strictest setting (findings a file deliberately allows
//! are suppressed by its `"allow"` list), and must
//! be replay-deterministic — two runs with the declared seed produce
//! byte-identical report JSON (the same document `covenant sim --json`
//! prints).

use covenant::agreements::PrincipalId;
use covenant::core::{run_report_json, ScenarioSpec};
use covenant::sim::Simulation;
use std::path::PathBuf;

fn shipped_scenarios() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    // Seven library scenarios plus the paper's five figure files.
    assert!(
        paths.len() >= 12,
        "scenario library must ship at least 12 scenarios, found {}",
        paths.len()
    );
    paths
}

#[test]
fn every_shipped_scenario_replays_byte_identically() {
    for path in shipped_scenarios() {
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let sc = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let names: Vec<String> =
            sc.deployment.principals.iter().map(|p| p.name.clone()).collect();
        let render = || {
            let report = Simulation::new(sc.build_sim().expect("scenario builds")).run();
            run_report_json(&names, sc.deployment.duration, &report).to_pretty()
        };
        let (a, b) = (render(), render());
        assert!(!a.is_empty());
        assert_eq!(a, b, "{} is not replay-deterministic", path.display());
    }
}

#[test]
fn every_shipped_scenario_verifies_clean_under_deny_all() {
    for path in shipped_scenarios() {
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let name = path.display().to_string();
        let diags = covenant::verify::check_text(&name, &text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            diags.is_empty(),
            "{name} must pass `covenant check --deny all` with zero findings: {diags:?}"
        );
    }
}

#[test]
fn shipped_scenarios_exercise_links_and_every_dynamic() {
    let mut kinds: Vec<String> = Vec::new();
    let mut with_net = 0usize;
    for path in shipped_scenarios() {
        let text = std::fs::read_to_string(&path).expect("scenario readable");
        let sc = ScenarioSpec::from_json(&text).expect("scenario parses");
        if sc.net.is_some() {
            with_net += 1;
        }
        kinds.extend(sc.timeline.iter().map(|ev| ev.kind().to_string()));
    }
    assert!(with_net >= 5, "the library must exercise the link model broadly");
    for required in [
        "flash_crowd",
        "diurnal",
        "renegotiate",
        "server_fail",
        "server_recover",
        "inflate",
        "restart_redirector",
    ] {
        assert!(
            kinds.iter().any(|k| k == required),
            "no shipped scenario uses timeline kind {required}"
        );
    }
}

/// A resale hierarchy (§2.1) is plain agreements: in
/// `hierarchical_asp.json` an ASP sells to a sub-ASP, which resells to two
/// retail customers, and to a direct customer. With every leaf flooding,
/// transitive ticket flow alone must serve each leaf its end-to-end
/// mandatory rate, less a small allowance for the closed-loop clients.
#[test]
fn hierarchy_leaves_get_their_transitive_floors() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios/hierarchical_asp.json");
    let text = std::fs::read_to_string(&path).expect("scenario readable");
    let sc = ScenarioSpec::from_json(&text).expect("scenario parses");
    let levels = sc.deployment.build_graph().expect("graph builds").access_levels();
    let report = Simulation::new(sc.build_sim().expect("scenario builds")).run();
    let principals = &sc.deployment.principals;
    for client in &sc.deployment.clients {
        let leaf = principals.iter().position(|p| p.name == client.principal).map(PrincipalId);
        let leaf = leaf.expect("client principal exists");
        let served = report.rates.mean_rate_secs(leaf, 10.0, 40.0);
        let floor = levels.mandatory(leaf);
        assert!(
            served >= floor - 8.0,
            "{}: served {served:.1} req/s below its floor {floor:.1}",
            client.principal
        );
    }
}

/// The engine's work on two library scenarios, pinned exactly: the events
/// it models, the events it pops from its queue and the most it ever held
/// pending. A change that makes the simulator do more (or less) work shows
/// here as an edit to these numbers, whatever the machine's speed.
/// `events_processed` and `peak_event_queue` are part of `covenant sim
/// --json`; `queue_pops` falls as the engine decides more of a principal's
/// certain re-deferrals at once.
#[test]
fn engine_work_on_library_scenarios_is_pinned() {
    // (file, queue_pops, events_processed, peak_event_queue)
    let pinned = [
        ("adversarial_inflation.json", 42_990, 2_345_589, 7_716),
        ("flash_crowd.json", 35_807, 847_218, 2_345),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    for (file, pops, events, peak) in pinned {
        let text = std::fs::read_to_string(dir.join(file)).expect("scenario readable");
        let sc = ScenarioSpec::from_json(&text).expect("scenario parses");
        let report = Simulation::new(sc.build_sim().expect("scenario builds")).run();
        let work = (report.queue_pops, report.events_processed, report.peak_event_queue);
        assert_eq!(work, (pops, events, peak), "{file}: (queue_pops, events_processed, peak)");
    }
}
