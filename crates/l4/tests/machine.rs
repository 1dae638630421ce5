//! L4 admission driven as scripts: connection ids in, verdicts out, with
//! no sockets, no threads and no sleeping. Each test names the loopback
//! test it replaces (`crates/l4/src/shard.rs`).

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_l4::{Admit, L4Machine};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use std::net::{IpAddr, Ipv4Addr};

const W: f64 = 0.1;

fn ip(i: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, i))
}

fn core(g: &AgreementGraph, coordinator: &Coordinator) -> ShardCore {
    ShardCore::new(0, &g.access_levels(), SchedulerConfig::community_default(), coordinator.clone())
}

fn machine(g: &AgreementGraph, park_limit: usize) -> L4Machine<u32> {
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    L4Machine::new(core(g, &coordinator), g.access_levels().len(), park_limit)
}

/// One server of `capacity`/s, shared by A `[share_a, 1]` and B `[share_b, 1]`;
/// Z holds nothing.
fn system(capacity: f64, share_a: f64, share_b: f64) -> (AgreementGraph, [PrincipalId; 3]) {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", capacity);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    let z = g.add_principal("Z", 0.0);
    g.add_agreement(s, a, share_a, 1.0).unwrap();
    g.add_agreement(s, b, share_b, 1.0).unwrap();
    (g, [a, b, z])
}

/// Parked connections come back in the order they parked, window after
/// window, each once. Replaces the reinjection half of
/// `sharded_l4_enforces_shares_end_to_end` (loopback).
#[test]
fn parked_connections_readmit_in_fifo_order() {
    let (g, [a, ..]) = system(100.0, 1.0, 0.0);
    let mut m = machine(&g, 1000);
    // Cold start: nothing is admitted before the first roll.
    for id in 0..60 {
        assert_eq!(m.accept(id, a, ip(1), 0.05), Admit::Parked);
    }
    let mut readmitted = Vec::new();
    let mut per_window = Vec::new();
    for k in 1..=12 {
        let before = readmitted.len();
        m.roll(f64::from(k) * W, &mut readmitted);
        per_window.push(readmitted.len() - before);
    }
    let ids: Vec<u32> = readmitted.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, (0..ids.len() as u32).collect::<Vec<_>>(), "FIFO: {per_window:?}");
    assert!(ids.len() == 60, "the backlog never drained: {per_window:?}");
    assert!(per_window.iter().filter(|&&n| n > 0).count() > 1, "drained in one go: {per_window:?}");
}

/// Past the park limit a deferred connection is handed back to be shed,
/// and a parked one is never readmitted without credit. Replaces
/// `park_limit_sheds_overflow_per_shard` (loopback).
#[test]
fn the_park_limit_sheds_the_overflow() {
    let (g, [.., z]) = system(100.0, 0.5, 0.5);
    let mut m = machine(&g, 2);
    let verdicts: Vec<Admit<u32>> = (0..6).map(|id| m.accept(id, z, ip(1), 0.05)).collect();
    let (park, shed) = (Admit::Parked, Admit::Shed);
    assert_eq!(verdicts, [park, Admit::Parked, shed(2), shed(3), shed(4), shed(5)]);
    let mut readmitted = Vec::new();
    for k in 1..=5 {
        m.roll(f64::from(k) * W, &mut readmitted);
    }
    assert!(readmitted.is_empty(), "no credit, no readmission: {readmitted:?}");
    assert_eq!(m.accept(6, z, ip(1), 0.55), Admit::Shed(6), "the two parked still fill the limit");
}

/// A client admitted to one server is readmitted to it while its
/// allocation lasts, although another server has more left — the server
/// readmission picks when no client is pinned. Replaces
/// `affinity_pins_client_to_one_backend` (loopback).
#[test]
fn readmission_prefers_the_clients_server() {
    // A holds up to 10 a window on the small server and 20 on the big one.
    let mut g = AgreementGraph::new();
    let small = g.add_principal("S1", 100.0);
    let big = g.add_principal("S2", 200.0);
    let a = g.add_principal("A", 0.0);
    g.add_agreement(small, a, 0.5, 1.0).unwrap();
    g.add_agreement(big, a, 0.5, 1.0).unwrap();
    // Two parking slots: the flood's overflow is shed, not queued ahead.
    let mut m = machine(&g, 2);
    let (mut readmitted, mut id, mut t) = (Vec::new(), 0, 0.0);
    let mut filler = |m: &mut L4Machine<u32>, t: f64| {
        id += 1;
        m.accept(id, a, IpAddr::V4(Ipv4Addr::from(id)), t)
    };
    for k in 1..=10 {
        t = f64::from(k) * W;
        m.roll(t, &mut readmitted);
        for _ in 0..30 {
            filler(&mut m, t + 0.01);
        }
    }
    t += W;
    m.roll(t, &mut readmitted);
    // X is admitted until the big server runs dry and X lands on the small.
    let x = ip(1);
    let mut x_id = 10_000;
    loop {
        x_id += 1;
        match m.accept(x_id, a, x, t + 0.01) {
            Admit::Relay(_, s) if s == small.0 => break,
            Admit::Relay(..) => {}
            other => panic!("X never reached the small server: {other:?}"),
        }
    }
    // The rest of the window's credit goes to fillers, then X parks.
    assert!((0..100).any(|_| filler(&mut m, t + 0.02) == Admit::Parked));
    assert_eq!(m.accept(x_id + 1, a, x, t + 0.03), Admit::Parked);
    readmitted.clear();
    m.roll(t + W, &mut readmitted);
    let filler_server = readmitted.first().map(|&(_, s)| s);
    assert_eq!(filler_server, Some(big.0), "an unpinned client goes where most is left");
    assert_eq!(readmitted.get(1), Some(&(x_id + 1, small.0)), "X keeps its server");
}

/// What a roll publishes is the core's own demand plus exactly the parked
/// depth: a twin core fed the same arrivals and that depth as its backlog
/// publishes the same vector, roll after roll, and the depth shrinks by
/// what each roll readmitted.
#[test]
fn the_published_backlog_is_the_parked_depth() {
    let (g, [a, b, z]) = system(100.0, 0.5, 0.5);
    let live = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let twin_tree = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let mut m: L4Machine<u32> = L4Machine::new(core(&g, &live), g.access_levels().len(), 1000);
    let mut twin = core(&g, &twin_tree);
    let mut depth = vec![0.0; g.access_levels().len()];
    let mut readmitted = Vec::new();
    let mut id = 0;
    for k in 1..=6 {
        let t = f64::from(k) * W;
        for (p, n) in [(a, 7), (b, 3), (z, 2)] {
            for _ in 0..n {
                id += 1;
                // Fresh clients, so no affinity: the twin admits alike.
                let client = IpAddr::V4(Ipv4Addr::from(id));
                let verdict = m.accept(id, p, client, t - 0.05);
                assert_eq!(twin.try_admit_at(p, None, t - 0.05).is_some(), matches!(verdict, Admit::Relay(..)));
                if verdict == Admit::Parked {
                    depth[p.0] += 1.0;
                }
            }
        }
        readmitted.clear();
        m.roll(t, &mut readmitted);
        twin.roll_window_at(Some(&depth), t);
        assert_eq!(live.read_at(0, t + W), twin_tree.read_at(0, t + W), "window {k}");
        for &(id, _) in &readmitted {
            // Ids run a, b, z in each window's batch.
            let p = match (id - 1) % 12 {
                0..=6 => a,
                7..=9 => b,
                _ => z,
            };
            depth[p.0] -= 1.0;
            assert!(twin.readmit_at(p, None, t).is_some());
        }
    }
    assert!(depth[z.0] >= 12.0, "Z parks and never leaves: {depth:?}");
}

/// Two flooding principals, 1:3 by agreement, relayed or readmitted in
/// that ratio within the capacity. Replaces
/// `sharded_l4_enforces_shares_end_to_end` (loopback).
#[test]
fn relays_follow_the_agreed_shares() {
    let (g, [a, b, _]) = system(200.0, 0.25, 0.75);
    let mut m = machine(&g, 8);
    let mut got = [0u32; 2];
    let mut readmitted = Vec::new();
    let mut id = 0;
    for k in 1..=40 {
        let t = f64::from(k) * W;
        readmitted.clear();
        m.roll(t, &mut readmitted);
        for &(id, _) in &readmitted {
            got[(id % 2) as usize] += 1;
        }
        // 60 connection attempts per principal per window, 6× capacity:
        // even ids are A's, odd ones B's.
        for _ in 0..120 {
            id += 1;
            let p = if id % 2 == 0 { a } else { b };
            if let Admit::Relay(..) = m.accept(id, p, ip((id % 200) as u8), t + 0.05) {
                got[(id % 2) as usize] += 1;
            }
        }
    }
    let (a_got, b_got) = (got[0], got[1]);
    let ratio = f64::from(b_got) / f64::from(a_got.max(1));
    assert!((2.0..=4.5).contains(&ratio), "B/A {ratio:.2} (A={a_got}, B={b_got})");
    assert!(a_got + b_got <= 20 * 41, "over capacity: {}", a_got + b_got);
    assert!(a_got + b_got >= 20 * 30, "under-used: {}", a_got + b_got);
}
