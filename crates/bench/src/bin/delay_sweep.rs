//! Ablation — coordination-lag sensitivity (Figure 8 generalized).
//!
//! Sweeps the combining-tree information lag and reports the length of the
//! competition transient after A's load starts (time until B's rate falls
//! within 10% of its enforced 65 req/s level). The transient should track
//! the lag roughly one-for-one — the paper's claim that the scheme copes
//! gracefully "as long as request patterns are stable for time scales
//! longer than network delays".
//!
//! Each lag is an independent 250 s simulated run of the Figure 8 scenario
//! file with its `extra_tree_lag` replaced, so the sweep fans out across
//! worker threads and prints rows in sweep order.

use covenant_agreements::PrincipalId;
use covenant_bench::run_sweep;
use covenant_core::ScenarioSpec;
use covenant_sim::Simulation;

const FIG8: &str = include_str!("../../../../examples/scenarios/fig8.json");

fn main() {
    println!("{:>10} {:>18} {:>14} {:>14}", "lag s", "transient s", "ph4 A req/s", "ph4 B req/s");
    let lags = vec![0.0, 1.0, 2.0, 5.0, 10.0, 20.0];
    let rows = run_sweep(lags, |_, &lag| {
        let mut spec = ScenarioSpec::from_json(FIG8).expect("fig8.json decodes");
        spec.deployment.extra_tree_lag = lag;
        let report = Simulation::new(spec.build_sim().expect("fig8.json builds")).run();
        let (a, b) = (PrincipalId(1), PrincipalId(2));
        // A's load starts at t=60; find when B settles to 65 ± 10%.
        let series = report.rates.series(b);
        let settle = series
            .iter()
            .find(|(t, r)| *t >= 60.0 && (r - 65.0).abs() <= 6.5)
            .map(|(t, _)| t - 60.0)
            .unwrap_or(f64::NAN);
        // Phase 4 (enforced) runs from the end of the lag-long transient to
        // A's departure at t=150; its first 10 s are trimmed as settling.
        let p4 = |p| report.rates.mean_rate_secs(p, (60.0 + lag) + 10.0, 150.0);
        format!("{:>10.0} {:>18.0} {:>14.1} {:>14.1}", lag, settle, p4(a), p4(b))
    });
    for row in rows {
        println!("{row}");
    }
    println!("\npaper (lag 10): ~10 s transient, then A 255 / B 65");
}
