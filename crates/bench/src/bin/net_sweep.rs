//! Transfer-time curves: fixed-delay network vs shared-bottleneck links.
//!
//! Runs one canonical two-tenant deployment (200 req/s offered, 6 KB mean
//! replies ⇒ ~1.23 MB/s of reply traffic) through the scenario API at a
//! ladder of link rates under both disciplines, plus the fixed-delay
//! degenerate configuration, and writes the `transfer_curves` section of
//! `BENCH_net.json`. The interesting shape: as the link rate approaches
//! the offered byte rate from above, FIFO mean transfer time blows up
//! faster than fair-share (heavy-tailed replies let one 500 KB response
//! wedge the queue), while far above the knee both converge to the
//! serialization time and the fixed-delay model's constant.
//!
//! Sweep points are independent scenario runs with fixed seeds, run in
//! order (each takes milliseconds).
//!
//! Stays beside `benchmark/` because these simulated link means are the
//! numbers the closed-form queueing oracles of ROADMAP item 6 must
//! explain; `sim_replay` runs links at one rate each.

use covenant_bench::emit_net_bench_section;
use covenant_core::{sim_counters, ScenarioSpec};
use covenant_sim::Simulation;

/// Mean reply size, bytes (the paper's 6 KB average).
const UNIT_BYTES: f64 = 6144.0;
/// Total offered load across both tenants, req/s.
const OFFERED_REQ_S: f64 = 200.0;
/// Link rate ladder, as multiples of the offered byte rate.
const RATE_FACTORS: [f64; 5] = [0.9, 1.2, 1.6, 2.4, 4.0];

fn scenario_json(net: Option<(f64, &str)>) -> String {
    let net_block = match net {
        Some((rate, discipline)) => format!(
            ",\n  \"net\": {{\"links\": [{{\"rate_bytes_per_sec\": {rate}, \
             \"discipline\": \"{discipline}\"}}], \"unit_bytes\": {UNIT_BYTES}}}"
        ),
        None => String::new(),
    };
    format!(
        r#"{{
  "principals": [
    {{"name": "S", "capacity": 300.0}},
    {{"name": "A"}},
    {{"name": "B"}}
  ],
  "agreements": [
    {{"issuer": "S", "holder": "A", "lb": 0.6, "ub": 1.0}},
    {{"issuer": "S", "holder": "B", "lb": 0.3, "ub": 1.0}}
  ],
  "clients": [
    {{"principal": "A", "phases": [[40.0, 130.0]]}},
    {{"principal": "B", "phases": [[40.0, 70.0]]}}
  ],
  "duration": 40.0,
  "seed": 17{net_block}
}}"#
    )
}

struct Point {
    label: String,
    discipline: Option<&'static str>,
    rate: f64,
}

fn main() {
    let offered_bytes = OFFERED_REQ_S * UNIT_BYTES;
    let mut points = vec![Point { label: "fixed_delay".into(), discipline: None, rate: 0.0 }];
    for discipline in ["fifo", "fair_share"] {
        for f in RATE_FACTORS {
            points.push(Point {
                label: format!("{discipline}@{f}x"),
                discipline: Some(discipline),
                rate: offered_bytes * f,
            });
        }
    }

    let mut rows = Vec::new();
    for p in &points {
        let json = scenario_json(p.discipline.map(|d| (p.rate, d)));
        let sc = ScenarioSpec::from_json(&json).expect("sweep scenario parses");
        let report = Simulation::new(sc.build_sim().expect("sweep scenario builds")).run();
        let delivered: u64 = report.response.iter().map(|r| r.count).sum();
        let total_resp: f64 = report.response.iter().map(|r| r.total).sum();
        let mean_resp_ms =
            if delivered > 0 { total_resp / delivered as f64 * 1000.0 } else { 0.0 };
        let net = sim_counters(&report).net;
        let (transfers, mean_transfer_ms) =
            net.map_or((0, 0.0), |n| (n.transfers, n.mean_transfer_secs * 1000.0));
        let row = format!(
            "{{\"point\": \"{}\", \"discipline\": {}, \"rate_bytes_per_sec\": {:.0}, \
             \"delivered\": {delivered}, \"transfers\": {transfers}, \
             \"mean_transfer_ms\": {mean_transfer_ms:.3}, \"mean_response_ms\": {mean_resp_ms:.3}}}",
            p.label,
            p.discipline.map_or("null".to_string(), |d| format!("\"{d}\"")),
            p.rate,
        );
        println!("net sweep: {row}");
        rows.push(row);
    }

    let body = format!(
        "{{\"unit_bytes\": {UNIT_BYTES}, \"offered_req_s\": {OFFERED_REQ_S}, \
         \"offered_bytes_per_sec\": {offered_bytes:.0}, \"points\": [{}]}}",
        rows.join(", ")
    );
    emit_net_bench_section("transfer_curves", &body).expect("BENCH_net.json is writable");
    println!("net sweep: wrote transfer_curves ({} points) to BENCH_net.json", rows.len());
}
