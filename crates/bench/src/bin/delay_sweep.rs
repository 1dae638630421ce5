//! Ablation — coordination-lag sensitivity (Figure 8 generalized).
//!
//! Sweeps the combining-tree information lag and reports the length of the
//! competition transient after A's load starts (time until B's rate falls
//! within 10% of its enforced 65 req/s level). The transient should track
//! the lag roughly one-for-one — the paper's claim that the scheme copes
//! gracefully "as long as request patterns are stable for time scales
//! longer than network delays".
//!
//! Each lag is an independent 120 s simulated run, so the sweep fans out
//! across worker threads and prints rows in sweep order.

use covenant_agreements::PrincipalId;
use covenant_bench::run_sweep;
use covenant_core::scenarios::fig8;

fn main() {
    println!("{:>10} {:>18} {:>14} {:>14}", "lag s", "transient s", "ph4 A req/s", "ph4 B req/s");
    let lags = vec![0.0, 1.0, 2.0, 5.0, 10.0, 20.0];
    let rows = run_sweep(lags, |_, &lag| {
        let outcome = fig8(lag).run();
        let b = PrincipalId(2);
        // A's load starts at t=60; find when B settles to 65 ± 10%.
        let series = outcome.report.rates.series(b);
        let settle = series
            .iter()
            .find(|(t, r)| *t >= 60.0 && (r - 65.0).abs() <= 6.5)
            .map(|(t, _)| t - 60.0)
            .unwrap_or(f64::NAN);
        let p4 = outcome
            .phases
            .iter()
            .find(|p| p.name.contains("phase 4"))
            .expect("phase 4");
        format!(
            "{:>10.0} {:>18.0} {:>14.1} {:>14.1}",
            lag,
            settle,
            p4.rate("A"),
            p4.rate("B")
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!("\npaper (lag 10): ~10 s transient, then A 255 / B 65");
}
