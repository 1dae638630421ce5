//! Simulator-vs-live differential test: the tentpole claim of the shared
//! enforcement core is that a live control plane and a simulation of the
//! same scenario make *identical* per-window admission decisions.
//!
//! The simulator runs a Figure-6-style two-redirector overload scenario
//! with per-arrival decision recording on. The recorded arrival sequence is
//! then replayed in virtual time against two live [`ShardCore`]s — the
//! state machines the reactor shards own — joined to one [`Coordinator`]
//! tree with the same topology, levels, and scheduler configuration. Every
//! decision must match the recorded one exactly (admit/defer *and*
//! assigned server), with tolerance zero.
//!
//! Replay ordering mirrors the engine's event tie-break (window ticks sort
//! before same-time arrivals): before feeding an arrival at time `t`, every
//! window boundary `k·w ≤ t` is rolled on all nodes, in node order — the
//! same lock-step order the engine uses. Boundary times are computed with
//! the engine's exact expression (`k as f64 * window`) so float ties break
//! identically.

use covenant::agreements::AgreementGraph;
use covenant::coord::{Coordinator, ShardCore};
use covenant::sim::{ArrivalDecision, QueueMode, SimConfig, Simulation};
use covenant::tree::Topology;
use covenant::workload::{ClientMachine, PhasedLoad};
use covenant::enforce::ArrivalOutcome;
use covenant::sched::SchedulerConfig;

/// Figure 6's community: one server at 100 req/s, A entitled to
/// [0.2, 1.0], B to [0.8, 1.0].
fn fig6_graph() -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 100.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).unwrap();
    g.add_agreement(s, b, 0.8, 1.0).unwrap();
    g
}

/// Runs the simulator scenario — with `extra_lag` seconds of injected
/// staleness on the tree — and returns its recorded decision trace.
fn simulate(duration: f64, extra_lag: f64) -> Vec<ArrivalDecision> {
    let g = fig6_graph();
    let a = covenant::agreements::PrincipalId(1);
    let b = covenant::agreements::PrincipalId(2);
    // A overloads redirector 0 for the whole run; B joins at redirector 1
    // after one second — demand shifts mid-run, so the replay exercises
    // cold start, conservative fallback, EWMA tracking, and contention.
    let cfg = SimConfig::new(g, duration)
        .with_tree(Topology::star(2, 0.0), extra_lag)
        .with_mode(QueueMode::CreditRetry { retry_delay: 0.05 })
        .client(ClientMachine::uniform(0, a, PhasedLoad::constant(90.0, duration)), 0)
        .client(
            ClientMachine::uniform(1, b, PhasedLoad::new().idle(1.0).then(duration - 1.0, 70.0)),
            1,
        )
        .with_decision_recording();
    Simulation::new(cfg).run().decisions
}

/// Replays the trace in virtual time against two live [`ShardCore`]s —
/// node `i` coordinating through `make_coordinator(i)` — and returns, per
/// decision, what the live control plane decided. `settle(k)` runs after
/// the `k`-th boundary has rolled on every node: transports that deliver
/// asynchronously block there until the round has closed everywhere.
fn replay(
    decisions: &[ArrivalDecision],
    duration: f64,
    make_coordinator: impl Fn(usize) -> Coordinator,
    mut settle: impl FnMut(u64),
) -> Vec<Option<usize>> {
    let levels = fig6_graph().access_levels();
    let window = SchedulerConfig::community_default().window_secs;
    let mut shards: Vec<_> = (0..2)
        .map(|node| {
            ShardCore::new(
                node,
                &levels,
                SchedulerConfig::community_default(),
                make_coordinator(node),
            )
        })
        .collect();

    // Next window boundary to roll; index 0 is the engine's priming tick
    // at t = 0 (it observes zero arrivals into the estimator).
    let mut boundary: u64 = 0;
    let mut outcomes = Vec::with_capacity(decisions.len());
    for d in decisions {
        // The engine sorts ticks before same-time arrivals, so a boundary
        // exactly at the arrival time rolls first. Exact float comparison
        // on the engine's own boundary expression keeps ties identical.
        loop {
            let t = boundary as f64 * window;
            if t > d.time || t > duration {
                break;
            }
            for shard in shards.iter_mut() {
                shard.roll_window_at(None, t);
            }
            boundary += 1;
            settle(boundary);
        }
        assert_eq!(d.cost, 1.0, "replay assumes unit-cost arrivals");
        outcomes.push(shards[d.redirector].try_admit_at(d.principal, None, d.time));
    }
    outcomes
}

/// Replay over the in-process combining tree with `extra_lag` seconds of
/// injected staleness: both shards share one [`Coordinator`].
fn replay_in_process(
    decisions: &[ArrivalDecision],
    duration: f64,
    extra_lag: f64,
) -> Vec<Option<usize>> {
    let coordinator = Coordinator::new(Topology::star(2, 0.0), extra_lag);
    replay(decisions, duration, |_| coordinator.clone(), |_| {})
}

/// Asserts the trace is substantial and exercises contention on both
/// redirectors, otherwise a comparison against it proves nothing.
fn assert_trace_exercises_contention(decisions: &[ArrivalDecision]) {
    assert!(decisions.len() > 300, "thin trace: {}", decisions.len());
    for r in 0..2 {
        let on_r = decisions.iter().filter(|d| d.redirector == r);
        assert!(on_r.clone().count() > 50, "redirector {r} barely used");
        assert!(
            on_r.clone().any(|d| matches!(d.outcome, ArrivalOutcome::Forward { .. })),
            "redirector {r} admitted nothing"
        );
        assert!(
            on_r.clone().any(|d| d.outcome == ArrivalOutcome::Defer),
            "redirector {r} deferred nothing (no contention exercised)"
        );
    }
}

/// Asserts every recorded simulator decision — admit/defer and the
/// assigned server — was reproduced by the live replay, with tolerance
/// zero; prints the first few divergences otherwise.
fn assert_no_mismatches(decisions: &[ArrivalDecision], live: &[Option<usize>], medium: &str) {
    assert_eq!(live.len(), decisions.len());
    let mut mismatches = 0;
    for (i, (d, got)) in decisions.iter().zip(live).enumerate() {
        let want = match d.outcome {
            ArrivalOutcome::Forward { server } => Some(server),
            ArrivalOutcome::Defer => None,
            ArrivalOutcome::Queued => {
                panic!("credit-retry scenarios never queue internally: decision {i}")
            }
        };
        if *got != want {
            mismatches += 1;
            if mismatches <= 5 {
                eprintln!(
                    "decision {i} at t={:.4} (redirector {}, principal {:?}): \
                     sim {:?}, {medium} {:?}",
                    d.time, d.redirector, d.principal, want, got
                );
            }
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} of {} decisions diverged between sim and {medium}",
        decisions.len()
    );
}

/// The tentpole acceptance test: the recorded trace replayed through
/// per-shard [`ShardCore`]s (no mutex, one tree leaf per shard) over the
/// in-process tree reproduces every simulator decision.
#[test]
fn live_control_plane_reproduces_simulator_decisions_exactly() {
    let duration = 3.0;
    let decisions = simulate(duration, 0.0);
    assert_trace_exercises_contention(&decisions);
    let live = replay_in_process(&decisions, duration, 0.0);
    assert_no_mismatches(&decisions, &live, "live");
}

/// The same scenario with one window of extra lag injected on the tree in
/// both worlds: every plan is solved on a view two windows stale, and sim
/// and live must still agree on what that view was.
#[test]
fn stale_view_reproduces_simulator_decisions_exactly() {
    let duration = 3.0;
    let extra_lag = SchedulerConfig::community_default().window_secs;
    let decisions = simulate(duration, extra_lag);
    assert_trace_exercises_contention(&decisions);
    let live = replay_in_process(&decisions, duration, extra_lag);
    assert_no_mismatches(&decisions, &live, "live (one window of extra lag)");
}

/// The wire transport's acceptance test: the same trace replayed over real
/// loopback sockets — every node a socket endpoint with its own epoll
/// runtime thread, coordinating through length-prefixed `Up`/`Down` frames
/// instead of shared memory — still reproduces every simulator decision.
/// Virtual stamping plus a per-boundary barrier on round completion keeps
/// the replay deterministic: each boundary's global total is on every node
/// before the next read. Only the medium changes.
#[test]
fn wire_transport_reproduces_simulator_decisions_exactly() {
    use std::time::{Duration, Instant};

    let duration = 3.0;
    let decisions = simulate(duration, 0.0);
    assert!(decisions.len() > 300, "thin trace: {}", decisions.len());

    let window = SchedulerConfig::community_default().window_secs;
    let nodes = covenant::wire::spawn_local(
        &[None, Some(0)],
        1,
        covenant::wire::StampMode::Virtual,
        Duration::from_secs_f64(window),
    )
    .expect("spawn loopback wire tree");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();
    let live = replay(
        &decisions,
        duration,
        |node| Coordinator::with_transport(transports[node].clone()),
        // Barrier: the round published at this boundary must close on
        // every node (its Down must arrive) before anyone reads again.
        |boundary| {
            let deadline = Instant::now() + Duration::from_secs(10);
            for tp in &transports {
                while tp.completed_rounds() < boundary {
                    assert!(Instant::now() < deadline, "wire round {boundary} stalled");
                    std::thread::yield_now();
                }
            }
        },
    );
    assert_no_mismatches(&decisions, &live, "the wire transport");
}

/// The replay itself is deterministic: running it twice against fresh live
/// control planes yields identical decision vectors (guards against hidden
/// wall-clock dependence in the virtual-time path).
#[test]
fn live_replay_is_deterministic() {
    let duration = 1.5;
    let decisions = simulate(duration, 0.0);
    assert!(!decisions.is_empty());
    assert_eq!(
        replay_in_process(&decisions, duration, 0.0),
        replay_in_process(&decisions, duration, 0.0)
    );
}
