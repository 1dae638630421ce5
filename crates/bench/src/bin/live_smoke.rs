//! Loopback smoke test for the live prototypes: the sharded L7 redirector
//! and sharded L4 proxy (the thread-per-core epoll data planes) must
//! forward real requests end-to-end within a couple of seconds.
//!
//! Run by `scripts/tier1.sh`: exits non-zero if either transport fails to
//! complete a request, and prints each data plane's counter snapshot as
//! JSON (`live_counters_sharded_json`) so CI logs show admission,
//! plan-cache, LP, and shedding activity at a glance.

use covenant_agreements::AgreementGraph;
use covenant_coord::Coordinator;
use covenant_core::live_counters_sharded_json;
use covenant_http::{HttpClient, OriginServer, StatusCode};
use covenant_l4::{L4Config, L4Service, ShardedL4};
use covenant_l7::{L7Config, ShardedL7};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Server 200 req/s; A entitled to [0.5, 1].
fn system() -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 200.0);
    let a = g.add_principal("A", 0.0);
    g.add_agreement(s, a, 0.5, 1.0).unwrap();
    g
}

/// Issues requests against `url` until the deadline passes; returns
/// completions (HTTP 200).
fn drive(url: &str, deadline: Instant) -> u64 {
    let client = HttpClient {
        max_redirects: 64,
        self_redirect_pause: Duration::from_millis(5),
        timeout: Duration::from_millis(500),
    };
    let mut done = 0;
    while Instant::now() < deadline {
        if let Ok(r) = client.get(url) {
            if r.response.status == StatusCode::OK {
                done += 1;
            }
        }
    }
    done
}

fn main() {
    const SHARDS: usize = 2;
    let g = system();
    let levels = g.access_levels();
    let a = covenant_agreements::PrincipalId(1);
    let mut failed = false;

    let origin =
        OriginServer::bind("127.0.0.1:0", 2000.0, 64, Duration::from_secs(2)).expect("origin");

    // --- Sharded L7: reuseport reactor shards + credit gate + self-redirect. ---
    let l7 = ShardedL7::start(
        "127.0.0.1:0",
        L7Config {
            principal_names: vec!["S".into(), "A".into()],
            backends: [(0, origin.addr())].into(),
        },
        SHARDS,
        &levels,
        SchedulerConfig::community_default(),
        Coordinator::new(Topology::star(SHARDS, 0.0), 0.0),
    )
    .expect("sharded l7 redirector");
    let l7_done = drive(
        &format!("http://{}/org/A/page", l7.addr()),
        Instant::now() + Duration::from_millis(900),
    );
    println!("l7_completed: {l7_done}");
    println!("l7_counters: {}", live_counters_sharded_json(&l7.shard_snapshots()).to_pretty());
    if l7_done == 0 {
        eprintln!("FAIL: no request completed through the sharded L7 redirector");
        failed = true;
    }

    // --- Sharded L4: accept-time admission + parking on reactor shards. ---
    let l4 = ShardedL4::start(
        L4Config {
            services: vec![L4Service { principal: a, bind: "127.0.0.1:0".into() }],
            backends: HashMap::from([(0, origin.addr())]),
            park_limit: 256,
        },
        SHARDS,
        &levels,
        SchedulerConfig::community_default(),
        Coordinator::new(Topology::star(SHARDS, 0.0), 0.0),
    )
    .expect("sharded l4 redirector");
    let l4_done = drive(
        &format!("http://{}/page", l4.service_addr(a).expect("service addr")),
        Instant::now() + Duration::from_millis(900),
    );
    println!("l4_completed: {l4_done}");
    println!("l4_counters: {}", live_counters_sharded_json(&l4.shard_snapshots()).to_pretty());
    if l4_done == 0 {
        eprintln!("FAIL: no request completed through the sharded L4 proxy");
        failed = true;
    }

    // The sharded planes must have actually rolled windows and admitted.
    for (name, snaps) in [("l7", l7.shard_snapshots()), ("l4", l4.shard_snapshots())] {
        let admitted: u64 = snaps.iter().map(|s| s.counters.admitted).sum();
        if admitted == 0 {
            eprintln!("FAIL: sharded {name} control plane admitted nothing");
            failed = true;
        }
    }

    drop(l7);
    drop(l4);
    if failed {
        std::process::exit(1);
    }
    println!("live smoke: OK");
}
