//! Figure 6 over real sockets: the sharded L7 prototype on loopback.
//!
//! The simulator version (`covenant figures`, Figure 6) reproduces the exact
//! rate levels; this binary runs the same experiment through the actual HTTP
//! redirector stack — origin server, two coordinated *sharded* L7
//! redirectors (each a thread-per-core epoll data plane; shard *i* of
//! redirector *k* publishes as tree leaf `k·shards + i`), and rate-capped
//! client threads — to show the prototype enforcing the same shares on a
//! real network path.
//!
//! Default phases are 8 s (pass a phase length in seconds to change).

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_coord::Coordinator;
use covenant_http::{HttpClient, OriginServer, StatusCode};
use covenant_l7::{L7Config, ShardedL7};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A paced client thread: sends up to `rate` requests/second for `active`
/// (start offset, duration), counting completions into `done`.
#[allow(clippy::too_many_arguments)]
fn client_thread(
    url: String,
    rate: f64,
    start_at: f64,
    active_secs: f64,
    epoch: Instant,
    done: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let client = HttpClient {
            max_redirects: 64,
            self_redirect_pause: Duration::from_millis(5),
            timeout: Duration::from_millis(800),
        };
        let interval = Duration::from_secs_f64(1.0 / rate);
        // Wait for the phase start.
        while epoch.elapsed().as_secs_f64() < start_at {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let phase_end = start_at + active_secs;
        let mut next = Instant::now();
        while epoch.elapsed().as_secs_f64() < phase_end && !stop.load(Ordering::Relaxed) {
            if let Ok(r) = client.get(&url) {
                if r.response.status == StatusCode::OK {
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }
            next += interval;
            let now = Instant::now();
            if next > now {
                std::thread::sleep(next - now);
            } else {
                next = now;
            }
        }
    })
}

fn main() {
    let phase: f64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(8.0);
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 320.0);
    let a = g.add_principal("A", 0.0);
    let b = g.add_principal("B", 0.0);
    g.add_agreement(s, a, 0.2, 1.0).unwrap();
    g.add_agreement(s, b, 0.8, 1.0).unwrap();
    let levels = g.access_levels();

    let origin =
        OriginServer::bind("127.0.0.1:0", 2000.0, 64, Duration::from_secs(2)).expect("origin");
    // Two sharded redirectors on one coordination tree: redirector k's
    // shard i publishes as leaf k·SHARDS + i, so the tree spans every
    // reactor thread in the deployment.
    const SHARDS: usize = 2;
    let coordinator = Coordinator::new(Topology::star(2 * SHARDS, 0.0), 0.0);
    let mk = |redirector: usize| {
        ShardedL7::start_at(
            "127.0.0.1:0",
            L7Config {
                principal_names: vec!["S".into(), "A".into(), "B".into()],
                backends: [(0, origin.addr())].into(),
            },
            SHARDS,
            &levels,
            SchedulerConfig::community_default(),
            coordinator.clone(),
            redirector * SHARDS,
        )
        .expect("redirector")
    };
    let r1 = mk(0);
    let r2 = mk(1);

    let epoch = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let a_done = Arc::new(AtomicU64::new(0));
    let b_done = Arc::new(AtomicU64::new(0));

    // A: two 135 req/s clients via R1, active all three phases.
    // B: one 135 req/s client via R2, active phases 1 and 3 only.
    let mut handles = Vec::new();
    for _ in 0..2 {
        handles.push(client_thread(
            format!("http://{}/org/A/page", r1.addr()),
            135.0,
            0.0,
            3.0 * phase,
            epoch,
            Arc::clone(&a_done),
            Arc::clone(&stop),
        ));
    }
    for (start, dur) in [(0.0, phase), (2.0 * phase, phase)] {
        handles.push(client_thread(
            format!("http://{}/org/B/page", r2.addr()),
            135.0,
            start,
            dur,
            epoch,
            Arc::clone(&b_done),
            Arc::clone(&stop),
        ));
    }

    // Sample per-phase completions.
    println!("Figure 6 live (phases of {phase:.0} s):");
    println!("{:<10}{:>10}{:>10}", "phase", "A req/s", "B req/s");
    let mut last_a = 0;
    let mut last_b = 0;
    for p in 1..=3 {
        while epoch.elapsed().as_secs_f64() < p as f64 * phase {
            std::thread::sleep(Duration::from_millis(20));
        }
        let ca = a_done.load(Ordering::Relaxed);
        let cb = b_done.load(Ordering::Relaxed);
        // Trim the first quarter of the phase as settling time is folded
        // in; report raw phase means for simplicity.
        println!(
            "{:<10}{:>10.1}{:>10.1}",
            format!("phase {p}"),
            (ca - last_a) as f64 / phase,
            (cb - last_b) as f64 / phase
        );
        last_a = ca;
        last_b = cb;
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    println!("\nsimulator / paper levels: phase 1 (A 185, B 135); phase 2 (A 270); phase 3 = 1");
    let _ = (PrincipalId(1), PrincipalId(2));
}
