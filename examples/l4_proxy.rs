//! Live Layer-4 enforcement on loopback.
//!
//! Starts one origin server (250 req/s) and a Layer-4 redirector fronting
//! two principals on separate ports (the pure-L4 way to attribute traffic).
//! `heavy` holds a [0.6, 1.0] agreement, `light` holds [0.2, 1.0]. Both are
//! flooded by concurrent clients; completions track the agreement shares,
//! and the transparent proxying means clients see plain 200s with no
//! redirects.
//!
//! ```text
//! cargo run --release --example l4_proxy
//! ```

use covenant::agreements::AgreementGraph;
use covenant::coord::Coordinator;
use covenant::http::{HttpClient, OriginServer, StatusCode};
use covenant::l4::{L4Config, L4Service, ShardedL4};
use covenant::sched::SchedulerConfig;
use covenant::tree::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let origin = OriginServer::bind("127.0.0.1:0", 250.0, 2048, Duration::from_secs(2))
        .expect("bind origin");

    let mut g = AgreementGraph::new();
    let owner = g.add_principal("owner", 250.0);
    let heavy = g.add_principal("heavy", 0.0);
    let light = g.add_principal("light", 0.0);
    g.add_agreement(owner, heavy, 0.6, 1.0).unwrap();
    g.add_agreement(owner, light, 0.2, 1.0).unwrap();

    let redirector = ShardedL4::start(
        L4Config {
            services: vec![
                L4Service { principal: heavy, bind: "127.0.0.1:0".into() },
                L4Service { principal: light, bind: "127.0.0.1:0".into() },
            ],
            backends: [(0, origin.addr())].into(),
            park_limit: 64,
        },
        1,
        &g.access_levels(),
        SchedulerConfig::community_default(),
        Coordinator::new(Topology::star(1, 0.0), 0.0),
    )
    .expect("start L4 redirector");

    println!("origin on {}", origin.addr());
    for (name, p) in [("heavy", heavy), ("light", light)] {
        println!("  service '{name}' fronted at {}", redirector.service_addr(p).unwrap());
    }

    let run_secs = 5.0;
    let deadline = Instant::now() + Duration::from_secs_f64(run_secs);
    let counters: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut handles = Vec::new();
    for (ci, p) in [heavy, light].into_iter().enumerate() {
        let addr = redirector.service_addr(p).unwrap();
        for _ in 0..6 {
            let done = Arc::clone(&counters[ci]);
            handles.push(std::thread::spawn(move || {
                let client =
                    HttpClient { timeout: Duration::from_millis(500), ..HttpClient::new() };
                while Instant::now() < deadline {
                    if let Ok(r) = client.get(&format!("http://{addr}/data")) {
                        if r.response.status == StatusCode::OK {
                            assert_eq!(r.redirects, 0, "L4 is transparent");
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let h_rate = counters[0].load(Ordering::Relaxed) as f64 / run_secs;
    let l_rate = counters[1].load(Ordering::Relaxed) as f64 / run_secs;
    println!("\n== measured over {run_secs:.0}s of overload ==");
    println!("  heavy: {h_rate:>6.1} req/s   (mandatory floor {:.0})", 0.6 * 250.0);
    println!("  light: {l_rate:>6.1} req/s   (mandatory floor {:.0})", 0.2 * 250.0);
    println!(
        "  spliced {} connections, refused {} at the park limit",
        redirector.spliced(),
        redirector.refused()
    );
}
