//! Live data-plane throughput: admission verdicts per second through the
//! sharded L7 reactor, on loopback, measured server-side.
//!
//! A driver thread keeps several keep-alive connections saturated with
//! pipelined bursts of `GET /org/A/…` requests; every request costs one
//! admission verdict in a shard's enforcement core, so the per-shard
//! [`covenant_enforce::ShardStats`] deltas over the measured interval are
//! the authoritative throughput number (the client-side completion count
//! is a cross-check).
//!
//! Modes:
//!
//! * default (smoke, run by `scripts/tier1.sh`): one shard, sub-second
//!   measure, exits non-zero below the floor (`COVENANT_LIVE_FLOOR`
//!   verdicts/s, default 3 700 000 — half of the 7.4–7.7 M/s this smoke
//!   measures on the 2-vCPU box, and above the 3.0–3.5 M/s it measured
//!   with the `str` head parser, so losing the scanner fails tier-1).
//! * `--full`: measures the 1/2/4-shard scaling curve for three seconds
//!   each and writes `BENCH_live.json` at the workspace root.

use covenant_agreements::{AgreementGraph, PrincipalId};
use covenant_coord::Coordinator;
use covenant_core::json::Value;
use covenant_core::live_counters_sharded_json;
use covenant_enforce::ShardSnapshot;
use covenant_l7::{L7Config, ShardedL7};
use covenant_sched::SchedulerConfig;
use covenant_tree::Topology;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pipelined requests per burst, per connection. Large bursts are what
/// turn readiness wakes into big verdict batches.
const BURST: usize = 512;
const REQUEST: &[u8] = b"GET /org/A/p HTTP/1.1\r\nhost: b\r\n\r\n";

/// One measured configuration.
struct Measure {
    shards: usize,
    secs: f64,
    verdicts: u64,
    admitted: u64,
    wakes: u64,
    driven: u64,
    snaps: Vec<ShardSnapshot>,
}

impl Measure {
    fn verdicts_per_sec(&self) -> f64 {
        self.verdicts as f64 / self.secs
    }

    fn to_json(&self) -> Value {
        let per_wake = self.verdicts as f64 / (self.wakes.max(1)) as f64;
        Value::Obj(vec![
            ("shards".into(), Value::Num(self.shards as f64)),
            ("duration_secs".into(), Value::Num(self.secs)),
            ("verdicts".into(), Value::Num(self.verdicts as f64)),
            ("verdicts_per_sec".into(), Value::Num(self.verdicts_per_sec())),
            ("admitted_per_sec".into(), Value::Num(self.admitted as f64 / self.secs)),
            ("reactor_wakes".into(), Value::Num(self.wakes as f64)),
            ("verdicts_per_wake".into(), Value::Num(per_wake)),
            ("client_responses".into(), Value::Num(self.driven as f64)),
            ("counters".into(), live_counters_sharded_json(&self.snaps)),
        ])
    }
}

/// Counts `\r\n\r\n` occurrences across chunk boundaries; `state` is how
/// far into the pattern the previous chunk ended.
fn count_terminators(bytes: &[u8], state: &mut usize) -> usize {
    const PAT: [u8; 4] = *b"\r\n\r\n";
    let mut count = 0;
    for &b in bytes {
        if b == PAT[*state] {
            *state += 1;
            if *state == PAT.len() {
                count += 1;
                *state = 0;
            }
        } else if b == b'\r' {
            *state = 1;
        } else {
            *state = 0;
        }
    }
    count
}

/// Writes one burst down every connection, then reads every response
/// back. Returns responses observed (each one is one verdict served).
fn pump_round(conns: &mut [TcpStream], burst: &[u8], buf: &mut [u8]) -> u64 {
    for c in conns.iter_mut() {
        c.write_all(burst).expect("burst write");
    }
    let mut total = 0u64;
    for c in conns.iter_mut() {
        let mut terms = 0usize;
        let mut state = 0usize;
        while terms < BURST {
            let n = c.read(buf).expect("burst read");
            assert!(n > 0, "server closed mid-burst");
            terms += count_terminators(buf.get(..n).expect("read len"), &mut state);
        }
        total += terms as u64;
    }
    total
}

/// Stands up a `shards`-wide reactor against an unlimited-quota principal
/// and saturates it for `duration`. Capacity is sized so the credit gate
/// admits essentially everything — the measurement is the verdict path
/// itself, not a starved scheduler.
fn run_once(shards: usize, duration: Duration) -> Measure {
    let mut g = AgreementGraph::new();
    let s = g.add_principal("S", 50_000_000.0);
    let _a = g.add_principal("A", 0.0);
    g.add_agreement(s, PrincipalId(1), 1.0, 1.0).expect("agreement");
    let levels = g.access_levels();

    let backend: SocketAddr = "127.0.0.1:9".parse().expect("backend addr");
    let l7 = ShardedL7::start(
        "127.0.0.1:0",
        L7Config {
            principal_names: vec!["S".into(), "A".into()],
            backends: [(0, backend)].into(),
        },
        shards,
        &levels,
        SchedulerConfig::community_default(),
        Coordinator::new(Topology::star(shards.max(1), 0.0), 0.0),
    )
    .expect("sharded l7");

    // Several connections per shard so the reuseport hash spreads load.
    let n_conns = (2 * shards).max(2);
    let mut conns: Vec<TcpStream> = (0..n_conns)
        .map(|_| {
            let c = TcpStream::connect(l7.addr()).expect("connect");
            c.set_nodelay(true).expect("nodelay");
            c.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            c
        })
        .collect();
    let mut burst = Vec::with_capacity(BURST * REQUEST.len());
    for _ in 0..BURST {
        burst.extend_from_slice(REQUEST);
    }
    let mut buf = vec![0u8; 64 * 1024];

    // Warm up across at least one window boundary so quota is installed
    // and buffers have grown, then baseline the counters.
    pump_round(&mut conns, &burst, &mut buf);
    std::thread::sleep(Duration::from_millis(120));
    pump_round(&mut conns, &burst, &mut buf);
    std::thread::sleep(Duration::from_millis(10)); // let the wake's stats store land
    let base = l7.shard_snapshots();

    let t0 = Instant::now();
    let mut driven = 0u64;
    while t0.elapsed() < duration {
        driven += pump_round(&mut conns, &burst, &mut buf);
    }
    let secs = t0.elapsed().as_secs_f64();
    std::thread::sleep(Duration::from_millis(10));
    let snaps = l7.shard_snapshots();

    let delta = |f: fn(&ShardSnapshot) -> u64| -> u64 {
        snaps.iter().map(&f).sum::<u64>() - base.iter().map(&f).sum::<u64>()
    };
    Measure {
        shards,
        secs,
        verdicts: delta(|s| s.batched_verdicts),
        admitted: delta(|s| s.counters.admitted),
        wakes: delta(|s| s.reactor_wakes),
        driven,
        snaps,
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    if !full {
        // Smoke: one shard, sub-second, floor-guarded.
        let floor: f64 = std::env::var("COVENANT_LIVE_FLOOR")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(3_700_000.0);
        let m = run_once(1, Duration::from_millis(700));
        let rate = m.verdicts_per_sec();
        println!(
            "live_throughput smoke: {:.0} verdicts/s (floor {floor:.0}), {:.1} verdicts/wake",
            rate,
            m.verdicts as f64 / m.wakes.max(1) as f64
        );
        if m.driven != m.verdicts {
            // Client observed a different count than the shard recorded:
            // tolerate boundary noise of one burst, nothing more.
            let drift = m.driven.abs_diff(m.verdicts);
            if drift > (BURST * 2) as u64 {
                eprintln!("FAIL: client/server verdict drift {drift}");
                std::process::exit(1);
            }
        }
        if rate < floor {
            eprintln!("FAIL: {rate:.0} verdicts/s below floor {floor:.0}");
            std::process::exit(1);
        }
        println!("live throughput smoke: OK");
        return;
    }

    // Full: the shard-scaling curve, written to BENCH_live.json.
    let mut curve = Vec::new();
    let mut peak = 0.0f64;
    for shards in [1usize, 2, 4] {
        let m = run_once(shards, Duration::from_secs(3));
        println!(
            "shards={}: {:.0} verdicts/s ({:.1} verdicts/wake, {} wakes)",
            m.shards,
            m.verdicts_per_sec(),
            m.verdicts as f64 / m.wakes.max(1) as f64,
            m.wakes
        );
        peak = peak.max(m.verdicts_per_sec());
        curve.push(m.to_json());
    }
    let doc = Value::Obj(vec![
        ("bench".into(), Value::Str("live_throughput".into())),
        ("transport".into(), Value::Str("sharded-l7-reactor (epoll, SO_REUSEPORT)".into())),
        ("burst".into(), Value::Num(BURST as f64)),
        ("target_admissions_per_sec".into(), Value::Num(1_000_000.0)),
        ("peak_admissions_per_sec".into(), Value::Num(peak)),
        ("curve".into(), Value::Arr(curve)),
    ]);
    std::fs::write("BENCH_live.json", doc.to_pretty()).expect("write BENCH_live.json");
    println!("wrote BENCH_live.json (peak {peak:.0} admissions/s)");
}
