//! ASP hosting over real sockets: the paper's service-provider context,
//! live on loopback.
//!
//! An application service provider runs one origin server and sells SLAs to
//! two customers: `gold` gets [0.7, 1.0] of the capacity, `bronze` gets
//! [0.1, 1.0]. Both customers' clients flood the Layer-7 redirector, which
//! answers each request with a 302 — either to the origin (admitted) or to
//! itself (implicitly queued). After a few seconds of load the admitted
//! shares match the SLA.
//!
//! ```text
//! cargo run --release --example asp_hosting
//! ```

use covenant::agreements::{AgreementGraph, PrincipalId};
use covenant::coord::Coordinator;
use covenant::http::{HttpClient, OriginServer, StatusCode};
use covenant::l7::{L7Config, ShardedL7};
use covenant::sched::SchedulerConfig;
use covenant::tree::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // The provider's server: 300 req/s capacity, 6 KB replies.
    let origin = OriginServer::bind("127.0.0.1:0", 300.0, 6144, Duration::from_secs(2))
        .expect("bind origin");

    // SLAs: gold [0.7, 1.0], bronze [0.1, 1.0].
    let mut g = AgreementGraph::new();
    let provider = g.add_principal("provider", 300.0);
    let gold = g.add_principal("gold", 0.0);
    let bronze = g.add_principal("bronze", 0.0);
    g.add_agreement(provider, gold, 0.7, 1.0).unwrap();
    g.add_agreement(provider, bronze, 0.1, 1.0).unwrap();

    let redirector = ShardedL7::start(
        "127.0.0.1:0",
        L7Config {
            principal_names: vec!["provider".into(), "gold".into(), "bronze".into()],
            backends: [(0, origin.addr())].into(),
        },
        1,
        &g.access_levels(),
        SchedulerConfig::community_default(),
        Coordinator::new(Topology::star(1, 0.0), 0.0),
    )
    .expect("start redirector");
    let raddr = redirector.addr();
    println!("origin on {}, redirector on {raddr}", origin.addr());

    // Flooding clients: 4 threads per customer, closed loop.
    let run_secs = 5.0;
    let deadline = Instant::now() + Duration::from_secs_f64(run_secs);
    let counters: Vec<Arc<AtomicU64>> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut handles = Vec::new();
    for (ci, name) in ["gold", "bronze"].iter().enumerate() {
        for _ in 0..4 {
            let done = Arc::clone(&counters[ci]);
            let name = name.to_string();
            handles.push(std::thread::spawn(move || {
                let client = HttpClient {
                    max_redirects: 64,
                    self_redirect_pause: Duration::from_millis(10),
                    ..HttpClient::new()
                };
                while Instant::now() < deadline {
                    if let Ok(r) = client.get(&format!("http://{raddr}/org/{name}/app")) {
                        if r.response.status == StatusCode::OK {
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

    let g_done = counters[0].load(Ordering::Relaxed) as f64 / run_secs;
    let b_done = counters[1].load(Ordering::Relaxed) as f64 / run_secs;
    let counters = redirector.shard_snapshots()[0].counters;
    let (admitted, deferred) = (counters.admitted, counters.deferred);
    println!("\n== measured over {run_secs:.0}s of overload ==");
    println!("  gold:   {g_done:>6.1} req/s completed  (SLA floor {:.0})", 0.7 * 300.0);
    println!("  bronze: {b_done:>6.1} req/s completed  (SLA floor {:.0})", 0.1 * 300.0);
    println!("  redirector: {admitted} admitted, {deferred} self-redirected");
    println!(
        "  gold/bronze ratio {:.2} (expected ≈ {:.2}: gold's floor pins 210, θ-fairness pushes the 90 leftover to bronze)",
        g_done / b_done.max(1.0),
        210.0 / 90.0
    );
    let _ = (PrincipalId(1), gold, bronze);
}
