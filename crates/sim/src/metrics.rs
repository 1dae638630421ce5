//! Measurement collection: the per-second rate series the paper plots,
//! plus response-time and loss statistics.

use covenant_agreements::PrincipalId;
use serde::{Deserialize, Serialize};

/// Per-principal, per-bucket completed-request rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RateSeries {
    bucket_secs: f64,
    /// `counts[principal][bucket]` = completions in that bucket.
    counts: Vec<Vec<f64>>,
}

impl RateSeries {
    /// Creates a series for `n` principals with the given bucket width
    /// (1 s to match the paper's figures).
    pub fn new(n: usize, bucket_secs: f64) -> Self {
        assert!(bucket_secs > 0.0);
        RateSeries { bucket_secs, counts: vec![Vec::new(); n] }
    }

    /// Records one completion of `cost` units for `principal` at `time`.
    pub fn record(&mut self, principal: PrincipalId, time: f64, cost: f64) {
        let bucket = (time / self.bucket_secs).floor() as usize;
        let row = &mut self.counts[principal.0];
        if row.len() <= bucket {
            row.resize(bucket + 1, 0.0);
        }
        row[bucket] += cost;
    }

    /// The rate (units/second) of `principal` in bucket `b`.
    pub fn rate(&self, principal: PrincipalId, b: usize) -> f64 {
        self.counts[principal.0].get(b).copied().unwrap_or(0.0) / self.bucket_secs
    }

    /// Mean rate of `principal` over the bucket range `[from, to)` —
    /// the per-phase averages quoted in the paper's prose.
    pub fn mean_rate(&self, principal: PrincipalId, from: usize, to: usize) -> f64 {
        if to <= from {
            return 0.0;
        }
        let row = &self.counts[principal.0];
        let total: f64 = (from..to).map(|b| row.get(b).copied().unwrap_or(0.0)).sum();
        total / ((to - from) as f64 * self.bucket_secs)
    }

    /// Mean rate over a time range in seconds.
    pub fn mean_rate_secs(&self, principal: PrincipalId, from_s: f64, to_s: f64) -> f64 {
        let from = (from_s / self.bucket_secs).round() as usize;
        let to = (to_s / self.bucket_secs).round() as usize;
        self.mean_rate(principal, from, to)
    }

    /// The full series of one principal as (bucket start seconds, rate).
    pub fn series(&self, principal: PrincipalId) -> Vec<(f64, f64)> {
        self.counts[principal.0]
            .iter()
            .enumerate()
            .map(|(b, c)| (b as f64 * self.bucket_secs, c / self.bucket_secs))
            .collect()
    }
}

impl RateSeries {
    /// Realized provider income over the run: for every bucket,
    /// `Σ_i price_i × max(0, served_i − MC_i·bucket)` — revenue for service
    /// beyond the mandatory level, matching the provider LP's objective
    /// (`p_i (x_i − min(MC_i, n_i))`: a principal demanding less than its
    /// mandatory level earns nothing extra, and `max(0, ·)` reproduces
    /// that case because its service then stays below `MC_i`).
    pub fn provider_income(&self, prices: &[f64], mandatory_rates: &[f64]) -> f64 {
        assert_eq!(prices.len(), self.counts.len());
        assert_eq!(mandatory_rates.len(), self.counts.len());
        let mut income = 0.0;
        for (i, row) in self.counts.iter().enumerate() {
            let floor = mandatory_rates[i] * self.bucket_secs;
            for &served in row {
                income += prices[i] * (served - floor).max(0.0);
            }
        }
        income
    }
}

/// Accumulated response-time statistics for one principal.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResponseStats {
    /// Completed request count.
    pub count: u64,
    /// Sum of response times (arrival at redirector → completion).
    pub total: f64,
    /// Maximum observed response time.
    pub max: f64,
}

impl ResponseStats {
    /// Records one completed request's response time.
    pub fn record(&mut self, response_time: f64) {
        self.count += 1;
        self.total += response_time;
        if response_time > self.max {
            self.max = response_time;
        }
    }

    /// Mean response time, `None` if nothing completed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total / self.count as f64)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` seeded Poisson arrival times at rate `lambda`.
    pub(crate) fn poisson_times(seed: u64, lambda: f64, n: usize) -> impl Iterator<Item = f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n).map(move |_| {
            t += -(1.0 - rng.gen::<f64>()).ln() / lambda;
            t
        })
    }

    /// Asserts that the closed-form `expected` lies inside the 99 %
    /// batch-means confidence interval of the per-customer `samples` (the
    /// first tenth dropped as warm-up, the rest cut into 20 batches), and
    /// that the interval is tight enough (±10 %) to mean something.
    pub(crate) fn assert_in_batch_means_ci(samples: &[f64], expected: f64, what: &str) {
        const BATCHES: usize = 20;
        const T_99: f64 = 2.861; // Student t, 19 degrees of freedom, two-sided 99 %
        let body = &samples[samples.len() / 10..];
        let size = body.len() / BATCHES;
        let means: Vec<f64> =
            body.chunks_exact(size).map(|b| b.iter().sum::<f64>() / size as f64).collect();
        let mean = means.iter().sum::<f64>() / BATCHES as f64;
        let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
        let half = T_99 * (var / BATCHES as f64).sqrt();
        assert!(
            (mean - expected).abs() <= half && half <= 0.1 * expected,
            "{what}: closed form {expected:.4}, simulated {mean:.4} ± {half:.4}"
        );
    }

    #[test]
    fn records_into_buckets() {
        let mut s = RateSeries::new(2, 1.0);
        s.record(PrincipalId(0), 0.25, 1.0);
        s.record(PrincipalId(0), 0.75, 1.0);
        s.record(PrincipalId(0), 1.5, 1.0);
        s.record(PrincipalId(1), 2.9, 2.0);
        assert_eq!(s.rate(PrincipalId(0), 0), 2.0);
        assert_eq!(s.rate(PrincipalId(0), 1), 1.0);
        assert_eq!(s.rate(PrincipalId(1), 2), 2.0);
        assert_eq!(s.rate(PrincipalId(1), 0), 0.0);
    }

    #[test]
    fn mean_rate_over_phase() {
        let mut s = RateSeries::new(1, 1.0);
        for b in 0..10 {
            s.record(PrincipalId(0), b as f64 + 0.5, 100.0);
        }
        assert_eq!(s.mean_rate(PrincipalId(0), 0, 10), 100.0);
        assert_eq!(s.mean_rate(PrincipalId(0), 5, 10), 100.0);
        assert_eq!(s.mean_rate(PrincipalId(0), 10, 20), 0.0);
        assert_eq!(s.mean_rate_secs(PrincipalId(0), 0.0, 10.0), 100.0);
    }

    #[test]
    fn sub_second_buckets() {
        let mut s = RateSeries::new(1, 0.1);
        s.record(PrincipalId(0), 0.05, 1.0);
        assert!((s.rate(PrincipalId(0), 0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn series_export() {
        let mut s = RateSeries::new(1, 1.0);
        s.record(PrincipalId(0), 0.5, 5.0);
        s.record(PrincipalId(0), 1.5, 7.0);
        assert_eq!(s.series(PrincipalId(0)), vec![(0.0, 5.0), (1.0, 7.0)]);
    }

    #[test]
    fn response_stats() {
        let mut r = ResponseStats::default();
        assert_eq!(r.mean(), None);
        r.record(0.1);
        r.record(0.3);
        assert_eq!(r.count, 2);
        assert!((r.mean().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(r.max, 0.3);
    }
}
