//! Multiple resource types: when bandwidth, not request rate, binds.
//!
//! §3.1.1 of the paper notes that with multiple resource types the
//! capacities and access levels "should be represented as vectors". This
//! example builds a CPU + bandwidth system and shows the window scheduler
//! limiting a bandwidth-heavy principal by its scarce dimension while a
//! CPU-only principal runs at full CPU entitlement.
//!
//! ```text
//! cargo run --release --example multi_resource
//! ```

use covenant::agreements::{MultiAgreementGraph, ResourceKind, ResourceVector};
use covenant::sched::MultiCommunityScheduler;

fn main() {
    // A server with 200 CPU units/s and 80 bandwidth units/s, shared
    // equally between a media service (bandwidth-heavy) and an API service
    // (CPU-only).
    let mut g = MultiAgreementGraph::new(&["cpu", "bandwidth"]);
    let server = g.add_principal("server", ResourceVector(vec![200.0, 80.0]));
    let media = g.add_principal("media", ResourceVector(vec![0.0, 0.0]));
    let api = g.add_principal("api", ResourceVector(vec![0.0, 0.0]));
    g.add_agreement(server, media, 0.5, 0.5).unwrap();
    g.add_agreement(server, api, 0.5, 0.5).unwrap();

    let levels = g.access_levels();
    // Request profiles: media = 1 cpu + 4 bandwidth; api = 2 cpu only.
    let costs = vec![
        ResourceVector(vec![1.0, 0.0]),
        ResourceVector(vec![1.0, 4.0]),
        ResourceVector(vec![2.0, 0.0]),
    ];

    println!("== entitlements (per second) ==");
    for (name, id) in [("media", media), ("api", api)] {
        let cost = &costs[id.index()];
        let kind = levels.binding_kind(id, cost).expect("some kind binds");
        println!(
            "  {name:<6} guaranteed {:>5.1} req/s, ceiling {:>5.1} req/s (bound by {})",
            levels.mandatory_rate(id, cost),
            levels.ceiling_rate(id, cost),
            g.kind_names()[kind.0]
        );
    }

    // One 100 ms scheduling window under flood from both.
    let window = levels.kind(ResourceKind(0)).capacities(); // just for shape
    let _ = window;
    let scheduler = MultiCommunityScheduler::new(costs.clone());
    let window_levels = covenant::agreements::MultiAccessLevels::clone(&levels);
    let plan = scheduler.plan(&window_levels, &[0.0, 1000.0, 1000.0]);

    println!("\n== one saturated scheduling interval ==");
    for (name, id) in [("media", media), ("api", api)] {
        println!("  {name:<6} admitted {:>6.1} req/s", plan.admitted(id));
    }
    for (kname, k) in [("cpu", 0usize), ("bandwidth", 1)] {
        let used: f64 = (0..3)
            .map(|i| plan.amount(i, 0) * costs[i].0[k])
            .sum();
        let cap = levels.kind(ResourceKind(k)).capacities()[0];
        println!("  {kname:<9} used {used:>6.1} / {cap:.0}");
    }
    println!("\nmedia is pinned by its bandwidth share (40/4 = 10 req/s);");
    println!("api by its CPU share (100/2 = 50 req/s).");
}
