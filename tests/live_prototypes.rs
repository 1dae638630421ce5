//! Live-socket integration: both prototype redirectors enforcing the same
//! agreement graph on loopback, driven through the public umbrella API.

use covenant::agreements::AgreementGraph;
use covenant::coord::Coordinator;
use covenant::http::{HttpClient, OriginServer, StatusCode};
use covenant::l4::{L4Config, L4Service, ShardedL4};
use covenant::l7::{L7Config, ShardedL7};
use covenant::sched::SchedulerConfig;
use covenant::tree::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One origin, A [0.3,1] and B [0.6,1].
fn system(capacity: f64) -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", capacity);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.3, 1.0).unwrap();
    g.add_agreement(s, b, 0.6, 1.0).unwrap();
    g
}

#[test]
fn l7_and_l4_enforce_the_same_agreements() {
    let g = system(150.0);
    let levels = g.access_levels();
    let origin = OriginServer::bind("127.0.0.1:0", 2000.0, 64, Duration::from_secs(2)).unwrap();

    // Shared coordinator: both redirectors (one shard each) are nodes of
    // one combining tree, exactly the paper's deployment shape.
    let coordinator = Coordinator::new(Topology::star(2, 0.0), 0.0);
    let l7 = ShardedL7::start_at(
        "127.0.0.1:0",
        L7Config {
            principal_names: vec!["S".into(), "A".into(), "B".into()],
            backends: [(0, origin.addr())].into(),
        },
        1,
        &levels,
        SchedulerConfig::community_default(),
        coordinator.clone(),
        0,
    )
    .unwrap();
    let l4 = ShardedL4::start_at(
        L4Config {
            services: vec![L4Service {
                principal: covenant::agreements::PrincipalId(2),
                bind: "127.0.0.1:0".into(),
            }],
            backends: [(0, origin.addr())].into(),
            park_limit: 256,
        },
        1,
        &levels,
        SchedulerConfig::community_default(),
        coordinator.clone(),
        1,
    )
    .unwrap();

    // A's clients flood via L7; B's clients flood via L4.
    let l7_addr = l7.addr();
    let l4_addr = l4.service_addr(covenant::agreements::PrincipalId(2)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    let a_done = Arc::new(AtomicU64::new(0));
    let b_done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let done = Arc::clone(&a_done);
        handles.push(std::thread::spawn(move || {
            let client = HttpClient {
                max_redirects: 64,
                self_redirect_pause: Duration::from_millis(10),
                ..HttpClient::new()
            };
            while Instant::now() < deadline {
                if let Ok(r) = client.get(&format!("http://{l7_addr}/org/A/x")) {
                    if r.response.status == StatusCode::OK {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
        let done = Arc::clone(&b_done);
        handles.push(std::thread::spawn(move || {
            let client = HttpClient { timeout: Duration::from_millis(500), ..HttpClient::new() };
            while Instant::now() < deadline {
                if let Ok(r) = client.get(&format!("http://{l4_addr}/x")) {
                    if r.response.status == StatusCode::OK {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let a_rate = a_done.load(Ordering::Relaxed) as f64 / 3.0;
    let b_rate = b_done.load(Ordering::Relaxed) as f64 / 3.0;
    // θ-fairness with floors 45/90 and 15 leftover; under symmetric flood B
    // lands near 90+ and A near 45+; exact splits depend on demand noise,
    // so assert the enforcement-critical properties only.
    assert!(a_rate >= 30.0, "A starved: {a_rate}");
    assert!(b_rate >= 70.0, "B under floor: {b_rate}");
    assert!(b_rate > a_rate, "B ({b_rate}) must outpace A ({a_rate})");
    assert!(a_rate + b_rate <= 170.0, "pool overrun: {}", a_rate + b_rate);
    // Coordination actually happened over the shared tree.
    assert!(coordinator.read_at(0, coordinator.now()).is_some());
}
