//! The production engine against its oracle on random worlds.
//!
//! [`Simulation::run`] folds every re-deferral that is certain before the
//! next roll, a whole room of a principal's retries at once, and keeps the
//! retries in rooms; `Simulation::run_reference` polls every retry through
//! the heap. Their reports must agree on every behavioural observable, the
//! decision trace element by element. The worlds mix what makes a fold
//! easy to get wrong: uniform clients on one shared rate (exact equal-time
//! retries), sized and fractional costs (sums in a different order), retry
//! gaps from a fiftieth of a window to two windows, restarts and capacity
//! changes at window boundaries, and closed-loop limits. Some worlds add a
//! principal that floods at 5–10× its ceiling for the whole run, so its
//! room grows large, and some add two clients of one principal on one
//! redirector whose requests cost 0.3 and 2.5 units, so a small request
//! can still be admitted after a large one was deferred.

use crate::{QueueMode, RequestCost, SimClient, SimConfig, Simulation};
use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_tree::Topology;
use covenant_workload::{ClientMachine, PhasedLoad, ReplySizes};
use proptest::prelude::*;

/// One generated client: principal (1..=3), redirector (reduced modulo
/// the tree), Poisson seed (`None` = uniform at the shared rate), cost
/// kind, closed-loop limit.
type ClientDraw = (usize, usize, Option<u64>, u8, Option<usize>);

fn client_strategy() -> impl Strategy<Value = ClientDraw> {
    (1usize..4, 0usize..3, 0u64..2000, 0u8..4, 0usize..96).prop_map(
        |(principal, redirector, seed, cost, limit)| {
            // Half the clients are Poisson, half closed-loop.
            let poisson = (seed >= 1000).then_some(seed);
            (principal, redirector, poisson, cost, (limit < 48).then_some(1 + limit))
        },
    )
}

/// Everything else about a world: redirectors, window, retry gap as a
/// multiple of the window, hop latency, shared uniform rate, server
/// capacity, run length, an optional restart and capacity change (times as
/// fractions of the run).
type WorldDraw = (usize, f64, f64, f64, f64, f64, f64, Option<(f64, usize)>, Option<(f64, f64)>);

fn world_strategy() -> impl Strategy<Value = WorldDraw> {
    let shape = (1usize..4, 0.05..0.2f64, 0.02..2.0f64, 0.0..0.008f64, 0usize..32);
    let load = (40.0..400.0f64, 60.0..300.0f64, 1.5..4.0f64);
    let timeline = (0.0..2.0f64, 0usize..3, 0.0..2.0f64, 30.0..400.0f64);
    (shape, load, timeline).prop_map(
        |((redirectors, window, gap, hop, grid), (rate, capacity, duration), (r, ri, c, cap))| {
            // Half the worlds put the retry gap and the uniform arrivals
            // on one grid of a 100 ms window, so originals and retries of
            // different clients fall due at exactly the same times.
            let (window, gap, rate) = match grid {
                0..16 => (0.1, [0.2, 0.25, 0.5, 1.0][grid % 4], [100.0, 150.0, 200.0, 250.0][grid / 4]),
                _ => (window, gap, rate),
            };
            // Half the other worlds have no hop latency; each timeline
            // entry is present in half of all worlds, a restart only in the
            // last 70 % of the run (see `build`).
            let hop = if grid < 16 || hop < 0.004 { 0.0 } else { hop - 0.004 };
            let restart = (r < 1.0).then_some((0.3 + 0.7 * r, ri));
            let change = (c < 1.0).then_some((c, cap));
            (redirectors, window, gap, hop, rate, capacity, duration, restart, change)
        },
    )
}

/// The additions some worlds get: a flood of principal A at this multiple
/// of its ceiling, and (`true`) B's two clients of 0.3 and 2.5 units on
/// redirector 0.
type ExtraDraw = (Option<f64>, bool);

fn extra_strategy() -> impl Strategy<Value = ExtraDraw> {
    (0u8..4, 5.0..10.0f64).prop_map(|(which, factor)| ((which & 1 == 1).then_some(factor), which & 2 == 2))
}

fn build(world: WorldDraw, clients: &[ClientDraw], (flood, mixed): ExtraDraw) -> SimConfig {
    let (redirectors, window, gap, hop, rate, capacity, duration, restart, change) = world;
    // The oracle polls every retry of a flood, so a flooded world is kept
    // small enough for it: a short run, a small server, a gap of at least
    // a quarter window.
    let (gap, capacity, duration) = match flood {
        Some(_) => (gap.max(0.25), capacity.min(100.0), duration.min(2.0)),
        None => (gap, capacity, duration),
    };
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", capacity);
    for (name, lb) in [("A", 0.2), ("B", 0.3), ("C", 0.1)] {
        let holder = g.add_principal(name, 0.0);
        g.add_agreement(s, holder, lb, 1.0).expect("valid agreement");
    }
    // The gap is the whole round trip a self-redirect costs.
    let retry_delay = (gap * window - 2.0 * hop).max(gap * window / 2.0);
    let mut cfg = SimConfig::new(g, duration)
        .with_mode(QueueMode::CreditRetry { retry_delay })
        .with_tree(Topology::star(redirectors, 0.0), 0.0)
        .with_network_latency(hop)
        .with_decision_recording();
    cfg.window_secs = window;
    for (ci, &(principal, redirector, poisson, cost, limit)) in clients.iter().enumerate() {
        let (p, load) = (PrincipalId(principal), PhasedLoad::constant(rate, duration));
        let machine = match poisson {
            Some(seed) => ClientMachine::poisson(ci, p, load, seed),
            None => ClientMachine::uniform(ci, p, load),
        };
        let cost = match cost {
            0 => RequestCost::Unit,
            1 => RequestCost::Fixed(0.3),
            2 => RequestCost::Fixed(2.5),
            _ => RequestCost::SizeDistributed {
                sizes: ReplySizes::default(),
                mean_bytes: 6144.0,
                seed: ci as u64,
            },
        };
        let redirector = redirector % redirectors;
        cfg.clients.push(SimClient { machine, redirector, max_outstanding: limit, cost });
    }
    if let Some(factor) = flood {
        // A's ceiling is the whole server (its upper bound is 1).
        let load = PhasedLoad::constant(factor * capacity, duration);
        let machine = ClientMachine::uniform(cfg.clients.len(), PrincipalId(1), load);
        cfg.clients.push(SimClient { machine, redirector: 0, max_outstanding: None, cost: RequestCost::Unit });
    }
    if mixed {
        for cost in [RequestCost::Fixed(0.3), RequestCost::Fixed(2.5)] {
            let load = PhasedLoad::constant(rate, duration);
            let machine = ClientMachine::uniform(cfg.clients.len(), PrincipalId(2), load);
            cfg.clients.push(SimClient { machine, redirector: 0, max_outstanding: None, cost });
        }
    }
    // The oracle closes every round centrally, so it only matches the
    // tree's own rounds around a restart once those have settled, and only
    // when the node that restarts is not the root of a larger tree: the
    // rounds a restarted root or an early restart breaks realign
    // differently, which is the tree's business, not this property's.
    if let Some((at, r)) = restart.filter(|&(_, r)| redirectors == 1 || r % redirectors != 0) {
        cfg = cfg.with_redirector_restart(at * duration, r % redirectors);
    }
    if let Some((at, capacity)) = change {
        cfg = cfg.with_capacity_change(at * duration, PrincipalId(0), capacity);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `run` and `run_reference` tell the same story: every observable
    /// `outcome_eq` compares, the decision traces element by element, and
    /// every re-presentation counted once whether it was folded or popped.
    #[test]
    fn folded_run_matches_polling_reference(
        world in world_strategy(),
        clients in proptest::collection::vec(client_strategy(), 1..5),
        extra in extra_strategy(),
    ) {
        let streamed = Simulation::new(build(world, &clients, extra)).run();
        let reference = Simulation::new(build(world, &clients, extra)).run_reference();
        let (s, r) = (&streamed.decisions, &reference.decisions);
        if let Some(i) = s.iter().zip(r).position(|(s, r)| s != r) {
            return Err(proptest::TestCaseError::fail(format!(
                "decision {i} differs: {:?} vs {:?} in {world:?} {clients:?} {extra:?}",
                s[i], r[i]
            )));
        }
        prop_assert_eq!(s.len(), r.len());
        prop_assert!(streamed.outcome_eq(&reference), "{:?} {:?} {:?}", world, clients, extra);
        prop_assert_eq!(reference.queue_pops, reference.events_processed);
        prop_assert!(streamed.queue_pops <= streamed.events_processed);
    }
}
