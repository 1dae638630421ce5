//! Loopback integration tests for the wire combining tree: real sockets,
//! real epoll loops, one runtime thread per node.
//!
//! Only what needs a socket lives here: a round costs exactly 2(n−1) data
//! frames network-wide, the view holds totals back by the configured extra
//! lag, and a killed-and-restarted process rejoins. The protocol's fault
//! stories run without sockets or sleeping against the node itself, in
//! `crates/tree/tests/node.rs`.

use covenant_tree::CoordTransport;
use covenant_wire::{spawn_local, StampMode, WireNode, WireNodeConfig, WireTransport};
use std::time::{Duration, Instant};

/// Polls `cond` until it holds or the deadline passes.
fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The newest total visible to the transport's node at `t`, a total
/// stamped exactly `t` included.
fn read(tp: &WireTransport, t: f64) -> Option<Vec<f64>> {
    tp.read_before(tp.node(), t + 1e-9)
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
            if r == 0 {
                // Strictly-before the first boundary there is nothing.
                assert_eq!(tp.read_before(i, t), None, "node {i}");
            }
            assert_eq!(read(tp, t), Some(expect.clone()), "node {i} round {r}");
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
fn extra_lag_holds_totals_back_by_whole_windows() {
    // What `covenant cluster` passes from the spec's `extra_tree_lag`: a
    // round published at boundary k is stamped k·w and readable once it is
    // `extra_lag` old — at boundary k + 2 for a lag of a window and a half,
    // where the unlagged view shows it at k + 1.
    let w = 0.1;
    let lagged = WireNode::start(WireNodeConfig {
        node: 0,
        nodes: 1,
        parent: None,
        children: Vec::new(),
        epoch: 1,
        mode: StampMode::Virtual,
        window: Duration::from_secs_f64(w),
        extra_lag: 1.5 * w,
        bind: "127.0.0.1:0".parse().expect("loopback bind"),
    })
    .expect("start lagged root");
    let plain = spawn_local(&[None], 1, StampMode::Virtual, Duration::from_secs_f64(w))
        .expect("start plain root");
    let (lagged, plain) = (lagged.transport(), plain[0].transport());
    let boundary = |k: u64| k as f64 * w;
    for k in 1..=6u64 {
        for tp in [&lagged, &plain] {
            tp.publish_at(0, vec![k as f64], boundary(k));
        }
        wait_for("round completion", Duration::from_secs(5), || {
            lagged.completed_rounds() >= k && plain.completed_rounds() >= k
        });
        // Read-before-publish at boundary k + 1, as a shard would.
        let next = boundary(k + 1);
        assert_eq!(plain.read_before(0, next), Some(vec![k as f64]), "boundary {}", k + 1);
        let want = (k >= 2).then(|| vec![(k - 1) as f64]);
        assert_eq!(lagged.read_before(0, next), want, "boundary {}", k + 1);
    }
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
    assert_eq!(read(&transports[0], clock.now()), Some(vec![6.0]));

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
        extra_lag: 0.0,
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
        if read(&transports[0], clock.now()) == Some(vec![130.0]) {
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
