//! Multi-process cluster soak: launch a real 3-process combining tree
//! (root + two redirector leaves), drive HTTP load through both leaves'
//! data planes for a few seconds, then scrape every node's `/metrics`
//! endpoint and assert the deployment actually did its job:
//!
//! - every node exchanged wire frames and completed aggregation rounds;
//! - both redirectors admitted traffic (the enforcement core ran);
//! - the exposition bodies carry the documented metric families.
//!
//! Run by `scripts/tier1.sh`; exits non-zero on any failure. Pass a load
//! duration in seconds to soak longer (default 4).
//!
//! Stays beside `benchmark/` as the only launcher of the multi-process
//! cluster outside it: the `/metrics` families are checked nowhere else,
//! and the process-chaos runs of ROADMAP item 8b build on this file.

use covenant_cluster::{maybe_run_node, Cluster};
use covenant_core::DeploymentSpec;
use covenant_http::{HttpClient, StatusCode};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Three nodes: root 0, redirector leaves 1 and 2. A is entitled to at
/// least half of S's 200 req/s, B to at least 30%.
const SPEC: &str = r#"{
  "principals": [
    {"name": "S", "capacity": 200.0},
    {"name": "A"},
    {"name": "B"}
  ],
  "agreements": [
    {"issuer": "S", "holder": "A", "lb": 0.5, "ub": 1.0},
    {"issuer": "S", "holder": "B", "lb": 0.3, "ub": 1.0}
  ],
  "redirector_tree": [null, 0, 0],
  "window_secs": 0.1,
  "clients": [],
  "duration": 5.0
}"#;

/// Pulls `url` as fast as completions allow until `stop`.
fn load_thread(
    addr: SocketAddr,
    path: &str,
    done: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let url = format!("http://{addr}{path}");
    std::thread::spawn(move || {
        let client = HttpClient {
            max_redirects: 64,
            self_redirect_pause: Duration::from_millis(5),
            timeout: Duration::from_millis(800),
        };
        while !stop.load(Ordering::Relaxed) {
            if let Ok(r) = client.get(&url) {
                if r.response.status == StatusCode::OK {
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    })
}

/// Extracts the value of the first sample of `family` in an exposition
/// body (ignores `# TYPE` lines; labels don't matter for the checks).
fn metric(body: &str, family: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(family) && l[family.len()..].starts_with('{'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn main() {
    // Re-exec hook: child processes take the node path here.
    maybe_run_node();

    let secs = std::env::args()
        .nth(1)
        .and_then(|a| a.parse::<f64>().ok())
        .unwrap_or(4.0)
        .clamp(1.0, 900.0);
    let spec = DeploymentSpec::from_json(SPEC).expect("soak spec parses");
    let mut cluster = Cluster::launch(&spec).expect("cluster launches");
    let redirectors = cluster.redirector_addrs();
    assert_eq!(redirectors.len(), 2, "both leaves run data planes");
    println!("cluster up: origin {}, redirectors {redirectors:?}", cluster.origin_addr());

    let stop = Arc::new(AtomicBool::new(false));
    let a_done = Arc::new(AtomicU64::new(0));
    let b_done = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..2 {
        handles.push(load_thread(
            redirectors[0],
            "/org/A/page",
            Arc::clone(&a_done),
            Arc::clone(&stop),
        ));
        handles.push(load_thread(
            redirectors[1],
            "/org/B/page",
            Arc::clone(&b_done),
            Arc::clone(&stop),
        ));
    }
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        let _ = h.join();
    }
    let (a, b) = (a_done.load(Ordering::Relaxed), b_done.load(Ordering::Relaxed));
    println!("completions over {secs:.1} s: A {a}, B {b}");

    let mut failed = false;
    if a == 0 || b == 0 {
        eprintln!("FAIL: a redirector served nothing (A {a}, B {b})");
        failed = true;
    }

    // Scrape every process and check the tree actually ran everywhere.
    let required_everywhere = [
        "covenant_tree_frames_sent",
        "covenant_tree_frames_received",
        "covenant_tree_rounds_completed",
        "covenant_tree_rounds_forced",
        "covenant_tree_reconnects",
        "covenant_tree_rtt_us",
    ];
    for node in [0usize, 1, 2] {
        let body = match cluster.scrape(node) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("FAIL: scraping node {node}: {e}");
                failed = true;
                continue;
            }
        };
        for family in required_everywhere {
            if metric(&body, family).is_none() {
                eprintln!("FAIL: node {node} /metrics missing {family}");
                failed = true;
            }
        }
        let frames = metric(&body, "covenant_tree_frames_sent").unwrap_or(0.0);
        let rounds = metric(&body, "covenant_tree_rounds_completed").unwrap_or(0.0);
        println!("node {node}: frames_sent {frames}, rounds_completed {rounds}");
        if frames < 1.0 {
            eprintln!("FAIL: node {node} sent no wire frames");
            failed = true;
        }
        if rounds < 1.0 {
            eprintln!("FAIL: node {node} completed no aggregation rounds");
            failed = true;
        }
        if node > 0 {
            let admitted = metric(&body, "covenant_admitted").unwrap_or(0.0);
            println!("node {node}: admitted {admitted}");
            if admitted < 1.0 {
                eprintln!("FAIL: redirector {node} admitted nothing");
                failed = true;
            }
        }
    }

    cluster.shutdown();
    if failed {
        std::process::exit(1);
    }
    println!("cluster soak: OK");
}
