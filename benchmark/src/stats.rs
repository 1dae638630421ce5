//! Timing statistics: a log-linear histogram for the hot paths, exact
//! percentiles for short sample vectors, and the quartile spread the
//! `--sets` report compares against each metric's bound.

/// Sub-buckets per octave: 128 gives buckets at most 0.8 % wide, and
/// percentiles interpolate inside a bucket, so a 3 % shift in a median is
/// well resolved.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;

/// Log-linear histogram of nanosecond values. Recording is two shifts and
/// an increment, so it can sit in a load generator's inner loop.
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        // Octaves 0..=57 above the linear range cover every u64.
        Histogram {
            buckets: vec![0; (SUB as usize) * 59],
            count: 0,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        (((shift + 1) as u64 * SUB) + ((v >> shift) - SUB)) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            return (i, 1);
        }
        let shift = (i / SUB - 1) as u32;
        ((SUB + i % SUB) << shift, 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`), interpolated inside its bucket;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (below + c) as f64 {
                let (lo, width) = Self::bounds(i);
                let inside = (rank - below as f64 + 0.5) / c as f64;
                return (lo as f64 + inside * width as f64).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    /// `quantile` in microseconds, for values recorded in nanoseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile(q) / 1e3
    }
}

/// Exact `q`-quantile of a sample vector (linear interpolation between
/// order statistics); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method), which is what the driver uses.
pub fn quartiles(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let at = |k: usize| {
        // Position k(n+1)/4 in 1-based order statistics, clamped.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        let lo = values[j - 1];
        let hi = values[j.min(n - 1)];
        lo + (hi - lo) * frac
    };
    if n < 2 {
        let v = values.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn relative_spread(values: &mut [f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn histogram_quantiles_match_sorted_vector_oracle() {
        let mut rng = Rng::new(11);
        let mut h = Histogram::new();
        let mut all = Vec::new();
        for i in 0..200_000u64 {
            // Three decades of values with a heavy tail, like latencies.
            let v = (20_000.0 * rng.exp(1.0)) as u64 + 500 + (i % 7) * 13;
            let v = if i % 1000 == 0 { v * 50 } else { v };
            h.record(v);
            all.push(v as f64);
        }
        assert_eq!(h.count(), 200_000);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = quantile(&mut all, q);
            let got = h.quantile(q);
            let err = (got - exact).abs() / exact;
            assert!(err < 0.01, "q={q}: histogram {got} vs exact {exact}");
        }
        assert_eq!(h.max() as f64, quantile(&mut all, 1.0));
    }

    #[test]
    fn histogram_index_and_bounds_agree() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let (lo, width) = Histogram::bounds(Histogram::index(v));
            assert!(lo <= v && v - lo < width, "v={v} lo={lo} width={width}");
        }
    }

    #[test]
    fn empty_histogram_reads_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let mut v = vec![3.0, 1.0, 2.0];
        assert_eq!(quartiles(&mut v), (1.0, 3.0));
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&mut v) - 1.0).abs() < 1e-12);
    }
}
