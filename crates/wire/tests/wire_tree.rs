//! Loopback integration tests for the wire combining tree: real sockets,
//! real epoll loops, one runtime thread per node.
//!
//! The headline properties: a round costs exactly 2(n−1) data frames
//! network-wide; totals delivered over the wire equal the in-process
//! aggregation; and killing a node degrades admissions to last-good
//! values — bounded staleness, never blocking.

use covenant_agreements::AgreementGraph;
use covenant_coord::{Coordinator, ShardCore};
use covenant_sched::SchedulerConfig;
use covenant_tree::CoordTransport;
use covenant_wire::{spawn_local, StampMode, WireNode, WireNodeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls `cond` until it holds or the deadline passes.
fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sum of data frames sent across all live nodes.
fn total_frames_sent(nodes: &[WireNode]) -> u64 {
    nodes.iter().map(|n| n.stats().frames_sent()).sum()
}

#[test]
fn three_node_star_totals_and_frame_economy() {
    let window = Duration::from_millis(100);
    let nodes = spawn_local(&[None, Some(0), Some(0)], 1, StampMode::Virtual, window)
        .expect("spawn loopback tree");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();

    const ROUNDS: u64 = 5;
    for r in 0..ROUNDS {
        let t = r as f64 * 0.1;
        for (i, tp) in transports.iter().enumerate() {
            tp.publish_at(i, vec![(i + 1) as f64], t);
        }
        wait_for("round completion on every node", Duration::from_secs(5), || {
            transports.iter().all(|tp| tp.completed_rounds() > r)
        });
        // Virtual mode never forces: every total is exact.
        let expect = vec![6.0]; // 1 + 2 + 3
        for (i, tp) in transports.iter().enumerate() {
            assert_eq!(tp.read_at(i, t), Some(expect.clone()), "node {i} round {r}");
            if r == 0 {
                // Strictly-before the first boundary there is nothing.
                assert_eq!(tp.read_before(i, t), None, "node {i}");
            }
        }
    }

    // The paper's message economy, now counted on sockets: per round one
    // Up per leaf and one Down per leaf — 2(n−1) data frames.
    let n = nodes.len() as u64;
    assert_eq!(total_frames_sent(&nodes), ROUNDS * 2 * (n - 1));
    for tp in &transports {
        assert_eq!(tp.stats().rounds_forced(), 0, "virtual mode never forces");
    }
}

#[test]
fn chain_topology_cascades_through_the_interior() {
    // 0 ← 1 ← 2: node 1 combines its own demand with node 2's Up before
    // sending one Up to the root, and forwards the root's Down onward.
    let window = Duration::from_millis(100);
    let nodes = spawn_local(&[None, Some(0), Some(1)], 7, StampMode::Virtual, window)
        .expect("spawn loopback chain");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();

    for (i, tp) in transports.iter().enumerate() {
        tp.publish_at(i, vec![10.0 * (i + 1) as f64, 1.0], 0.5);
    }
    wait_for("chain round completion", Duration::from_secs(5), || {
        transports.iter().all(|tp| tp.completed_rounds() >= 1)
    });
    for (i, tp) in transports.iter().enumerate() {
        assert_eq!(tp.read_at(i, 0.5), Some(vec![60.0, 3.0]), "node {i}");
    }
    // Chain economy: Ups on 2←1 and 1←0 edges, Downs back — still 2(n−1).
    assert_eq!(total_frames_sent(&nodes), 4);
}

#[test]
fn killing_a_leaf_degrades_to_last_good_values() {
    let window = Duration::from_millis(25);
    let mut nodes = spawn_local(&[None, Some(0), Some(0)], 2, StampMode::Live, window)
        .expect("spawn loopback tree");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();
    let clock = transports[0].clock();

    // A few healthy rounds so every node has published and the root holds
    // last-good values for both children.
    for r in 0..3u64 {
        for (i, tp) in transports.iter().enumerate() {
            tp.publish_at(i, vec![(i + 1) as f64], clock.now());
        }
        wait_for("healthy rounds", Duration::from_secs(5), || {
            transports[0].completed_rounds() > r
        });
    }
    assert_eq!(transports[0].read_at(0, clock.now()), Some(vec![6.0]));

    // Kill leaf 2: drop its runtime (sockets close, thread joins).
    let dead = nodes.remove(2);
    drop(dead);

    // The surviving nodes keep publishing; the root can no longer hear
    // node 2, so rounds are forced at the window boundary with node 2's
    // last-good demand — admissions degrade to bounded staleness instead
    // of blocking.
    let before_forced = transports[0].stats().rounds_forced();
    for r in 3..6u64 {
        for (i, tp) in transports.iter().take(2).enumerate() {
            tp.publish_at(i, vec![(i + 1) as f64 * 10.0], clock.now());
        }
        wait_for("forced rounds after the kill", Duration::from_secs(5), || {
            transports[0].completed_rounds() > r
                && transports[1].completed_rounds() > r
        });
    }
    // Totals now carry fresh node-0/1 demand plus node 2's last-good 3.0.
    assert_eq!(transports[0].read_at(0, clock.now()), Some(vec![33.0]));
    assert_eq!(transports[1].read_at(1, clock.now()), Some(vec![33.0]));
    assert!(
        transports[0].stats().rounds_forced() > before_forced,
        "rounds past the kill must have been forced on the timeout path"
    );
}

#[test]
fn restarted_child_rejoins_with_fresh_demand() {
    let window = Duration::from_millis(25);
    let epoch = 4;
    let mut nodes = spawn_local(&[None, Some(0), Some(0)], epoch, StampMode::Live, window)
        .expect("spawn loopback tree");
    let transports: Vec<_> = nodes.iter().map(|n| n.transport()).collect();
    let clock = transports[0].clock();
    let root_addr = nodes[0].listen_addr();

    // Healthy rounds first, so the root's last-good round for leaf 2
    // climbs well past the round counter a restarted process begins from
    // — and past the whole post-restart publish budget below, so without
    // rebasing the restarted child could never catch up in this test.
    for r in 0..12u64 {
        for (i, tp) in transports.iter().enumerate() {
            tp.publish_at(i, vec![(i + 1) as f64], clock.now());
        }
        wait_for("healthy rounds", Duration::from_secs(5), || {
            transports[0].completed_rounds() > r
        });
    }
    assert_eq!(transports[0].read_at(0, clock.now()), Some(vec![6.0]));

    // Kill leaf 2, then restart it as a brand-new runtime: same node id
    // and epoch, but a round counter reset to the beginning — exactly what
    // a respawned cluster process looks like to its parent.
    drop(nodes.remove(2));
    let restarted = WireNode::start(WireNodeConfig {
        node: 2,
        nodes: 3,
        parent: Some(root_addr),
        children: Vec::new(),
        epoch,
        mode: StampMode::Live,
        window,
        bind: "127.0.0.1:0".parse().expect("loopback bind"),
    })
    .expect("restart leaf 2");
    let t2 = restarted.transport();

    // Everyone publishes fresh demand. Without round rebasing on rejoin
    // the root rejects the restarted child's Up frames as stale (rounds
    // 1, 2, … all below the pre-crash last-good round 12), so inside this
    // 8-publish budget the global total would stay pinned at crash-era
    // values; with rebasing the first post-restart Up already counts.
    let mut combined = false;
    for _ in 0..8 {
        for (i, tp) in transports.iter().take(2).enumerate() {
            tp.publish_at(i, vec![(i + 1) as f64 * 10.0], clock.now());
        }
        t2.publish_at(2, vec![100.0], clock.now());
        std::thread::sleep(window);
        if transports[0].read_at(0, clock.now()) == Some(vec![130.0]) {
            combined = true;
            break;
        }
    }
    assert!(combined, "root never combined the restarted child's fresh demand");
    // The rejoined child hears global totals again too (Down cascade).
    wait_for("restarted child closes rounds", Duration::from_secs(5), || {
        t2.completed_rounds() >= 1
    });
}

/// One server at 100 req/s; A entitled to [0.2, 1.0], B to [0.8, 1.0] —
/// the Figure-6 community.
fn fig6_graph() -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 100.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).expect("agreement S-A");
    g.add_agreement(s, b, 0.8, 1.0).expect("agreement S-B");
    g
}

#[test]
fn admission_over_the_wire_survives_a_dead_peer() {
    let mut cfg = SchedulerConfig::community_default();
    cfg.window_secs = 0.025;
    let window = Duration::from_secs_f64(cfg.window_secs);
    let mut nodes = spawn_local(&[None, Some(0)], 3, StampMode::Live, window)
        .expect("spawn loopback pair");
    let graph = fig6_graph();
    let levels = graph.access_levels();
    let a = covenant_agreements::PrincipalId(1);

    // Two real shard cores, each over its own process-local wire
    // transport — the coordinator adopts the transport's measurement
    // clock, so data-plane stamps and wire arrival stamps share a base.
    let mut cores: Vec<_> = (0..2)
        .map(|i| {
            let transport: Arc<dyn CoordTransport> = nodes[i].transport();
            ShardCore::new(i, &levels, cfg.clone(), Coordinator::with_transport(transport))
        })
        .collect();
    let roll = |core: &mut ShardCore| core.roll_window_at(None, core.coordinator().now());
    let offer = |core: &mut ShardCore| {
        let now = core.coordinator().now();
        (0..3).filter(|_| core.try_admit_at(a, None, now).is_some()).count()
    };

    let mut admitted_before = 0;
    for _ in 0..4 {
        cores.iter_mut().for_each(roll);
        std::thread::sleep(window);
        admitted_before += offer(&mut cores[0]);
    }
    assert!(admitted_before > 0, "healthy cluster must admit");
    let t0 = nodes[0].transport();
    wait_for("coordinated rounds", Duration::from_secs(5), || t0.completed_rounds() >= 1);

    // Kill the peer process outright (its shard core goes silent).
    let dead = nodes.remove(1);
    drop(dead);
    cores.truncate(1);

    // The survivor keeps rolling windows: rounds force at each boundary
    // with the dead peer's last-good demand, the view keeps advancing,
    // and admission keeps working — one window of staleness, no blocking.
    let completed_at_kill = t0.completed_rounds();
    let mut admitted_after = 0;
    for _ in 0..6 {
        roll(&mut cores[0]);
        std::thread::sleep(window + Duration::from_millis(5));
        admitted_after += offer(&mut cores[0]);
    }
    assert!(admitted_after > 0, "survivor must keep admitting on last-good state");
    assert!(
        t0.completed_rounds() > completed_at_kill,
        "rounds must keep closing (forced) after the peer dies"
    );
}
