//! Combining-tree wire bench: measures what the simulator only models.
//!
//! Spawns balanced binary trees of n ∈ {3, 7, 15} wire runtimes on
//! loopback (`spawn_local`, virtual-time stamping so every round closes
//! deterministically), drives a few hundred aggregation rounds, and
//! records to `BENCH_tree.json`:
//!
//! - data frames per round, asserted equal to the paper's `2(n−1)`
//!   (one Up and one Down per tree edge — Hello frames excluded);
//! - round-close latency: publish-everywhere to total-delivered-everywhere
//!   wall time through the full tree depth, mean / p50 / p99;
//! - a leaf's measured Up→Down RTT from the runtime's own stats;
//!
//! under a `commit`/`date` header saying which tree was measured.
//!
//! Stays beside `benchmark/` because no workload there varies tree depth
//! (`cluster_contended` is one root and two leaves), which is the axis of
//! `BENCH_tree.json`. Not a tier-1 step: the frame economy is a `cargo
//! test` (`covenant-wire`'s `wire_tree.rs`).

use covenant_bench::first_line;
use covenant_core::json::Value;
use covenant_tree::CoordTransport;
use covenant_wire::{spawn_local, StampMode};
use std::time::{Duration, Instant};

/// Balanced binary heap-order tree: node 0 root, parent of i is (i−1)/2.
fn balanced_parents(n: usize) -> Vec<Option<usize>> {
    (0..n).map(|i| if i == 0 { None } else { Some((i - 1) / 2) }).collect()
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let rounds: u64 = 300;
    let window = Duration::from_millis(10);
    let window_secs = window.as_secs_f64();

    let mut trees = Vec::new();
    let mut failed = false;
    for n in [3usize, 7, 15] {
        let parents = balanced_parents(n);
        let nodes = spawn_local(&parents, 1, StampMode::Virtual, window).expect("spawn tree");
        let transports: Vec<_> = nodes.iter().map(|h| h.transport()).collect();

        // Settle connections: run one throwaway round so Hello exchange
        // and socket setup stay out of the measured latencies.
        for (i, tp) in transports.iter().enumerate() {
            tp.publish_at(i, vec![1.0], window_secs);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while transports.iter().any(|tp| tp.completed_rounds() < 1) {
            assert!(Instant::now() < deadline, "warmup round never closed (n={n})");
            std::thread::yield_now();
        }
        let frames_base: u64 = nodes.iter().map(|h| h.stats().frames_sent()).sum();

        let mut latencies_us: Vec<f64> = Vec::with_capacity(rounds as usize);
        for r in 0..rounds {
            let t = (r + 2) as f64 * window_secs;
            let start = Instant::now();
            for (i, tp) in transports.iter().enumerate() {
                tp.publish_at(i, vec![1.0, (i % 4) as f64], t);
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while transports.iter().any(|tp| tp.completed_rounds() < r + 2) {
                assert!(Instant::now() < deadline, "round {r} never closed (n={n})");
                std::thread::yield_now();
            }
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
        }

        // Frame economy: exactly one Up and one Down per edge per round.
        let frames_total: u64 =
            nodes.iter().map(|h| h.stats().frames_sent()).sum::<u64>() - frames_base;
        let frames_per_round = frames_total as f64 / rounds as f64;
        let expected = (2 * (n - 1)) as u64;
        if frames_total != rounds * expected {
            eprintln!(
                "FAIL: n={n}: {frames_total} data frames over {rounds} rounds, expected {}",
                rounds * expected
            );
            failed = true;
        }
        let forced: u64 = nodes.iter().map(|h| h.stats().rounds_forced()).sum();
        if forced != 0 {
            eprintln!("FAIL: n={n}: {forced} forced rounds in a virtual-time run");
            failed = true;
        }

        latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
        let p50 = percentile(&latencies_us, 0.50);
        let p99 = percentile(&latencies_us, 0.99);
        // Deepest leaf: last node in heap order.
        let leaf_rtt_us = nodes[n - 1].stats().last_rtt_us();
        println!(
            "n={n:<3} frames/round {frames_per_round:>5.1} (expect {expected:>2})  \
             round-close µs mean {mean:>7.1}  p50 {p50:>7.1}  p99 {p99:>7.1}  \
             leaf rtt µs {leaf_rtt_us}"
        );

        trees.push(Value::Obj(vec![
            ("nodes".into(), (n as f64).into()),
            ("depth".into(), ((n + 1).ilog2() as f64).into()),
            ("rounds".into(), (rounds as f64).into()),
            ("frames_per_round".into(), frames_per_round.into()),
            ("expected_frames_per_round".into(), (expected as f64).into()),
            ("round_close_us_mean".into(), mean.into()),
            ("round_close_us_p50".into(), p50.into()),
            ("round_close_us_p99".into(), p99.into()),
            ("leaf_rtt_us".into(), (leaf_rtt_us as f64).into()),
        ]));

        for mut node in nodes {
            node.shutdown();
        }
    }

    let doc = Value::Obj(vec![
        ("bench".into(), "wire_combining_tree".into()),
        // Which tree the numbers are of: the commit built (`-dirty` when
        // the working tree had uncommitted changes) and the day it ran.
        ("commit".into(), first_line("git", &["describe", "--always", "--dirty"]).into()),
        ("date".into(), first_line("date", &["-u", "+%Y-%m-%d"]).into()),
        ("transport".into(), "length-prefixed frames over loopback TCP (epoll)".into()),
        ("stamp_mode".into(), "virtual".into()),
        ("window_ms".into(), (window.as_millis() as f64).into()),
        ("trees".into(), Value::Arr(trees)),
    ]);
    std::fs::write("BENCH_tree.json", doc.to_pretty()).expect("write BENCH_tree.json");
    println!("wrote BENCH_tree.json");
    if failed {
        std::process::exit(1);
    }
    println!("tree bench: OK");
}
