//! Seeded input generation: everything a workload feeds the program is
//! derived here from `--seed`, so the same seed replays the same inputs.

use covenant_agreements::AgreementGraph;

/// SplitMix64: small, fast, and good enough to draw arrival processes.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for sub-generator `k` of this seed.
    pub fn fork(&self, k: u64) -> Rng {
        let mut r = Rng(self.0 ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize
    }

    /// Exponential with the given rate (mean `1/rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.f64()).ln() / rate
    }

    /// Poisson with the given mean: Knuth's product method for small means,
    /// a rounded normal beyond (the workloads only need the right mean and
    /// variance, not the exact tail).
    pub fn poisson(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut k = 0u32;
            let mut p = self.f64();
            while p > limit {
                k += 1;
                p *= self.f64();
            }
            return k;
        }
        let (u1, u2) = (1.0 - self.f64(), self.f64());
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + mean.sqrt() * normal).round().max(0.0) as u32
    }
}

/// A pool of distinct, well-formed request heads for principal `name`:
/// `GET /org/<name>/<random path> HTTP/1.1` with a `host` header. Paths
/// vary in length so the parser sees more than one shape.
pub fn request_pool(rng: &mut Rng, name: &str, variants: usize) -> Vec<Vec<u8>> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    (0..variants)
        .map(|_| {
            let len = 4 + rng.below(28);
            let path: String = (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len())] as char)
                .collect();
            format!("GET /org/{name}/{path} HTTP/1.1\r\nhost: bench.local\r\n\r\n").into_bytes()
        })
        .collect()
}

/// A two-tier agreement community of `n` principals, shaped like
/// `covenant_bench::bipartite_graph` (re-implemented here because the
/// benchmark may not depend on the bench crate): the first ⌈n/2⌉ are
/// capacity-holding providers, the rest consumers holding agreements with
/// up to three providers each, so every agreement path has length one and
/// the window LP keeps its `n² + 1`-variable, agreement-sparse shape.
pub fn bipartite_graph(n: usize, rng: &mut Rng) -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let providers = n.div_ceil(2).max(1);
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let cap = if i < providers {
                100.0 + rng.f64() * 1000.0
            } else {
                0.0
            };
            g.add_principal(format!("P{i}"), cap)
        })
        .collect();
    // Per-provider mandatory budget so the grants stay feasible.
    let mut budget = vec![0.9f64; providers];
    for (c, &cid) in ids.iter().enumerate().skip(providers) {
        let mut chosen = [usize::MAX; 3];
        for slot in 0..3usize {
            let p = (c + slot * 131 + rng.below(providers)) % providers;
            if budget[p] <= 0.05 || chosen.contains(&p) {
                continue;
            }
            chosen[slot] = p;
            let lb = (0.02 + rng.f64() * 0.1).min(budget[p] - 0.02);
            let ub = (lb + rng.f64() * 0.3).min(1.0);
            g.add_agreement(ids[p], cid, lb, ub)
                .expect("grant within the provider's budget");
            budget[p] -= lb;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let base = Rng::new(5);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
    }

    #[test]
    fn poisson_and_exp_have_the_right_mean() {
        let mut r = Rng::new(3);
        for mean in [0.5, 8.0, 200.0] {
            let n = 40_000;
            let total: u64 = (0..n).map(|_| r.poisson(mean) as u64).sum();
            let got = total as f64 / n as f64;
            assert!(
                (got - mean).abs() < 0.03 * mean + 0.02,
                "mean {mean}: got {got}"
            );
        }
        let total: f64 = (0..40_000).map(|_| r.exp(4.0)).sum();
        assert!((total / 40_000.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn request_pool_is_seeded_and_parses() {
        let a = request_pool(&mut Rng::new(9), "A", 32);
        let b = request_pool(&mut Rng::new(9), "A", 32);
        assert_eq!(a, b);
        for req in &a {
            let end = covenant_http::header_block_end(req, 0).expect("complete head");
            assert_eq!(end, req.len());
            let head = covenant_http::parse_request_head(req).expect("well-formed");
            assert!(head.path.starts_with("/org/A/"));
        }
    }

    #[test]
    fn bipartite_graph_is_seeded_and_feasible() {
        let a = bipartite_graph(64, &mut Rng::new(42));
        let b = bipartite_graph(64, &mut Rng::new(42));
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        a.access_levels().check_mandatory_feasible(1e-9).unwrap();
        assert!(a
            .agreements()
            .iter()
            .all(|ag| ag.issuer.0 < 32 && ag.holder.0 >= 32));
    }
}
