//! `cluster_contended`: the real deployment. `Cluster::launch` starts a
//! root and two redirector leaves as OS processes joined by the wire
//! tree; server S serves 2 000 req/s, A holds `[0.5, 1]` of it, B
//! `[0.3, 1]`, windows are 100 ms.
//!
//! One generator thread, one pipelined connection per leaf, open loop: A
//! offers 600 req/s at the first leaf — under its floor, so the paper
//! promises it is never held back — while B floods 1 500 req/s at each
//! leaf. A client answered with a self-redirect sends the request again
//! after 25 ms until 300 ms have passed since it first wanted to send, then
//! gives up (a deferral by design, not a failure). No origin fetch
//! follows an admit: the `302` is the system's output.
//!
//! Loopback is not a link, and four processes share two cores; the load
//! (a few thousand requests a second) is kept far below what they can do
//! so that the numbers are the system's and not the scheduler's. The
//! generator keeps the first core and the node processes the others, which
//! never halt (`awake::Placement`): where a leaf's thread wakes, and from
//! what, is then the same in every run.

use super::l7::{check_lateness, check_responses, replay_stream, verdict_metrics, window_counts};
use super::{floors, own_peak_rss_mb, repeat_setup, Delivery, Outcome, RunCfg};
use crate::awake::Placement;
use crate::gen::{request_pool, Rng};
use crate::loadgen::{self, GenCfg, Mode, Retry, Stream};
use crate::procfs;
use crate::stats;
use covenant_agreements::AccessLevels;
use covenant_cluster::{Cluster, SENTINEL};
use covenant_core::DeploymentSpec;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CAPACITY: f64 = 2000.0;
const WINDOW_SECS: f64 = 0.1;
const SPEC: &str = r#"{
  "principals": [{"name": "S", "capacity": 2000.0}, {"name": "A"}, {"name": "B"}],
  "agreements": [
    {"issuer": "S", "holder": "A", "lb": 0.5, "ub": 1.0},
    {"issuer": "S", "holder": "B", "lb": 0.3, "ub": 1.0}
  ],
  "redirector_tree": [null, 0, 0],
  "window_secs": 0.1,
  "clients": [],
  "duration": 60.0
}"#;
const A: usize = 1;
const B: usize = 2;
/// `(principal, leaf, requests per second)` of each open-loop stream.
const STREAMS: [(usize, usize, f64); 3] = [(A, 0, 600.0), (B, 0, 1500.0), (B, 1, 1500.0)];
const RETRY: Retry = Retry {
    pause: Duration::from_millis(25),
    deadline: Duration::from_millis(300),
};

struct Live {
    levels: AccessLevels,
    cluster: Cluster,
    leaves: Vec<SocketAddr>,
    pools: Vec<Vec<Vec<u8>>>,
    launch_ms: f64,
}

/// Set-up to the first verdict from every leaf: parse and verify the
/// spec, launch the three processes, wait for the last READY, connect.
fn start(seed: u64) -> Live {
    let spec = DeploymentSpec::from_json(SPEC).expect("the built-in spec parses");
    let levels = spec
        .build_graph()
        .expect("the built-in spec is a valid graph")
        .access_levels();
    let t = Instant::now();
    let cluster = Cluster::launch(&spec).expect("the cluster launches");
    let launch_ms = t.elapsed().as_secs_f64() * 1e3;
    let leaves = cluster.redirector_addrs();
    let mut rng = Rng::new(seed);
    let pools = vec![
        Vec::new(),
        request_pool(&mut rng, "A", 256),
        request_pool(&mut rng, "B", 256),
    ];
    for &leaf in &leaves {
        loadgen::ping_pong(leaf, &pools[A], 1).expect("a leaf answers its first request");
    }
    Live {
        levels,
        cluster,
        leaves,
        pools,
        launch_ms,
    }
}

/// The first sample of `family` in a `/metrics` body.
fn sample(body: &str, family: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| {
            l.strip_prefix(family)
                .is_some_and(|rest| rest.starts_with('{'))
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Every node scraped once, with how long each scrape took.
struct Scrape {
    bodies: Vec<String>,
    ms: Vec<f64>,
}

impl Scrape {
    fn take(cluster: &Cluster) -> Scrape {
        let mut s = Scrape {
            bodies: Vec::new(),
            ms: Vec::new(),
        };
        for node in cluster.nodes() {
            let t = Instant::now();
            s.bodies.push(cluster.scrape(node.node).unwrap_or_default());
            s.ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        s
    }

    fn sum(&self, family: &str) -> f64 {
        self.bodies.iter().map(|b| sample(b, family)).sum()
    }
}

/// The node processes, found as an operator would: children of this
/// process started with the cluster sentinel. Returns `(pid, is_leaf)`.
fn node_processes() -> Vec<(u32, bool)> {
    procfs::children(procfs::own_pid())
        .into_iter()
        .filter(|(_, cmd)| cmd.contains(SENTINEL))
        .map(|(pid, cmd)| (pid, !cmd.contains("node=0 ")))
        .collect()
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let (live, setup_s) = repeat_setup(cfg.quick, || start(cfg.seed));
    out.check(live.leaves.len() == 2, || {
        format!("{} leaves run a data plane", live.leaves.len())
    });
    if !out.violations.is_empty() {
        return out;
    }
    let procs = node_processes();
    let pids: Vec<u32> = procs.iter().map(|p| p.0).collect();
    let _placement = Placement::fix(&pids);
    let leaf_cpu = |procs: &[(u32, bool)]| -> u64 {
        procs
            .iter()
            .filter(|p| p.1)
            .map(|p| procfs::cpu_ns(p.0, ""))
            .sum()
    };
    let measure = Duration::from_secs_f64(cfg.plain_seconds());
    let gen_cfg = GenCfg {
        conns: live.leaves.clone(),
        backends: vec![format!("http://{}", live.cluster.origin_addr())],
        pools: live.pools.clone(),
        mode: Mode::Open(
            STREAMS
                .iter()
                .map(|&(principal, conn, rate)| Stream {
                    principal,
                    conn,
                    rate,
                })
                .collect(),
        ),
        retry: Some(RETRY),
        warmup: cfg.warmup(),
        measure,
        seed: cfg.seed,
    };
    let before = Scrape::take(&live.cluster);
    let cpu_before = leaf_cpu(&procs);
    let gen = loadgen::run(&gen_cfg, || ()).expect("the generator's connections stay up");
    std::thread::sleep(Duration::from_millis(20));
    let cpu_after = leaf_cpu(&procs);
    let after = Scrape::take(&live.cluster);
    let peak_rss: f64 =
        own_peak_rss_mb() + procs.iter().map(|p| procfs::peak_rss_mb(p.0)).sum::<f64>();

    // Output checks.
    let delta = |family: &str| after.sum(family) - before.sum(family);
    let served = delta("covenant_batched_verdicts");
    let depth = (gen.max_outstanding * live.leaves.len()) as f64;
    out.check((served - gen.responses_total as f64).abs() <= depth, || {
        format!(
            "client read {} responses but the leaves served {served} verdicts",
            gen.responses_total
        )
    });
    let decided = delta("covenant_admitted") + delta("covenant_deferred");
    out.check(decided == served, || {
        format!("admitted + deferred = {decided} but verdicts = {served}")
    });
    for (node, body) in live.cluster.nodes().iter().zip(&after.bodies) {
        let rounds = sample(body, "covenant_tree_rounds_completed");
        out.check(rounds > 0.0, || {
            format!("node {} completed no aggregation round", node.node)
        });
    }
    check_responses(&gen, &mut out);
    check_lateness(&gen, &mut out);
    let delivery = Delivery {
        offered: &gen.offered(),
        delivered: &gen.delivered(),
        floors: &floors(&live.levels),
        capacity: CAPACITY,
        secs: measure.as_secs_f64(),
        min_entitled: 1.0,
    };
    delivery.check(&mut out, CAPACITY * WINDOW_SECS * 2.0, 0.1);

    let s = delivery.shares();
    let cpu_per_verdict = (cpu_after - cpu_before) as f64 / served.max(1.0);
    if !cfg.trace {
        let p50 = gen.latency.quantile_us(0.5);
        out.end_to_end(setup_s, peak_rss, p50, cpu_per_verdict, &s);
        return out;
    }

    verdict_metrics(&gen, A, &mut out);
    let e = &mut out.metrics;
    e.insert("reactor.wakes", delta("covenant_reactor_wakes"));
    e.insert(
        "reactor.verdicts_per_wake",
        served / delta("covenant_reactor_wakes").max(1.0),
    );
    e.insert("reactor.shed", delta("covenant_shed"));
    e.insert("wire.frames_sent", delta("covenant_tree_frames_sent"));
    e.insert(
        "wire.rounds_completed",
        delta("covenant_tree_rounds_completed"),
    );
    e.insert("wire.rounds_forced", delta("covenant_tree_rounds_forced"));
    e.insert(
        "wire.frames_per_round",
        delta("covenant_tree_frames_sent") / delta("covenant_tree_rounds_completed").max(1.0),
    );
    e.insert("wire.reconnects", delta("covenant_tree_reconnects"));
    let rtt = after
        .bodies
        .iter()
        .map(|b| sample(b, "covenant_tree_rtt_us"))
        .fold(0.0, f64::max);
    e.insert("wire.rtt_us", rtt);
    e.insert("cluster.launch_ms", live.launch_ms);
    let mut scrape_ms: Vec<f64> = before.ms.iter().chain(&after.ms).copied().collect();
    e.insert("cluster.scrape_ms", stats::median(&mut scrape_ms));
    e.insert("cluster.leaf_cpu_ns_per_verdict", cpu_per_verdict);

    // The fresh arrivals of the same schedule, replayed in process through
    // two cores on the in-process tree. Retries are the clients' reaction to
    // the live system's answers and are not replayed.
    let windows = ((cfg.warmup() + measure).as_secs_f64() / WINDOW_SECS) as usize;
    let rates: Vec<f64> = STREAMS.iter().map(|s| s.2).collect();
    let stream = window_counts(
        cfg.seed,
        &rates,
        windows,
        |i| (STREAMS[i].1, STREAMS[i].0),
        2,
        live.levels.len(),
    );
    replay_stream(
        "cluster_contended",
        &live.levels,
        &stream,
        &live.pools,
        true,
        &mut out,
    );
    out
}
