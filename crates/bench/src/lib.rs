//! Shared helpers for the bench binaries and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use covenant_agreements::AgreementGraph;

/// Builds a random-but-deterministic agreement graph with `n` principals,
/// edge probability `density`, and capacities in `[100, 1100)` — the
/// workload for LP/flow scaling benches.
pub fn random_graph(n: usize, density: f64, seed: u64) -> AgreementGraph {
    let mut rng = SmallLcg::new(seed);
    let mut g = AgreementGraph::new();
    let ids: Vec<_> = (0..n)
        .map(|i| g.add_principal(format!("P{i}"), 100.0 + rng.next_f64() * 1000.0))
        .collect();
    for (x, &i) in ids.iter().enumerate() {
        // Budget of mandatory fraction to hand out.
        let mut budget: f64 = 0.9;
        for (y, &j) in ids.iter().enumerate() {
            if x == y || budget <= 0.02 {
                continue;
            }
            if rng.next_f64() < density {
                let lb = rng.next_f64() * budget.min(0.3);
                let ub = (lb + rng.next_f64() * 0.4).min(1.0);
                g.add_agreement(i, j, lb, ub).expect("within budget");
                budget -= lb;
            }
        }
    }
    g
}

/// Builds a deterministic two-tier agreement community for large-`n`
/// LP/scheduler benches: the first ⌈n/2⌉ principals are capacity-holding
/// providers, the rest are consumers holding agreements with up to three
/// providers each. Every simple agreement path has length one, so the
/// exact transitive-flow closure stays linear in the edge count —
/// [`random_graph`]'s free-form topology puts most principals in one
/// strongly connected component, and the exact closure is exponential in
/// that component's size — while the window LP it feeds
/// keeps the same shape (`θ` plus one variable per agreement-backed pair —
/// about two per principal here — over `3n` principal rows and `n` server
/// rows).
pub fn bipartite_graph(n: usize, seed: u64) -> AgreementGraph {
    let mut rng = SmallLcg::new(seed);
    let mut g = AgreementGraph::new();
    let providers = n.div_ceil(2).max(1);
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let cap = if i < providers { 100.0 + rng.next_f64() * 1000.0 } else { 0.0 };
            g.add_principal(format!("P{i}"), cap)
        })
        .collect();
    // Per-provider mandatory budget so the grants stay feasible.
    let mut budget = vec![0.9f64; providers];
    for (c, &cid) in ids.iter().enumerate().skip(providers) {
        let mut chosen = [usize::MAX; 3];
        for spread in 0..3usize {
            let p = (c + spread * 131 + (rng.next_f64() * providers as f64) as usize) % providers;
            if budget[p] <= 0.05 || chosen.contains(&p) {
                continue;
            }
            chosen[spread] = p;
            let lb = (0.02 + rng.next_f64() * 0.1).min(budget[p] - 0.02);
            let ub = (lb + rng.next_f64() * 0.3).min(1.0);
            g.add_agreement(ids[p], cid, lb, ub).expect("within budget");
            budget[p] -= lb;
        }
    }
    g
}

/// A tiny self-contained LCG so the bench *library* stays free of external
/// dependencies (criterion is a dev-dependency only).
mod rand_free {
    /// Deterministic 64-bit LCG.
    pub struct SmallLcg(u64);

    impl SmallLcg {
        /// Seeds the generator.
        pub fn new(seed: u64) -> Self {
            SmallLcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }

        /// Next value in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64) / ((1u64 << 53) as f64)
        }
    }
}

use rand_free::SmallLcg;

mod perfjson {
    use std::fs;
    use std::io;
    use std::path::{Path, PathBuf};

    fn repo_root_file(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(name)
    }

    /// Writes or replaces one top-level section of `BENCH_lp.json`.
    ///
    /// The file is a JSON object with one section per line (`"name": {…},`),
    /// a format this emitter both writes and re-reads so the `lp` and
    /// `sched` benches can update their own sections independently.
    /// `body_json` must be a JSON value serialized on a single line. Every
    /// write also stamps the `commit` and `date` lines with the tree and
    /// day of this run, as `BENCH_tree.json` carries them.
    pub fn emit_bench_section(section: &str, body_json: &str) -> io::Result<()> {
        emit_section_at(&repo_root_file("BENCH_lp.json"), section, body_json)
    }

    /// Writes or replaces one top-level section of `BENCH_net.json` (same
    /// one-section-per-line format as [`emit_bench_section`]).
    pub fn emit_net_bench_section(section: &str, body_json: &str) -> io::Result<()> {
        emit_section_at(&repo_root_file("BENCH_net.json"), section, body_json)
    }

    pub(super) fn emit_section_at(path: &Path, section: &str, body_json: &str) -> io::Result<()> {
        assert!(!body_json.contains('\n'), "section body must be one line");
        let mut sections: Vec<(String, String)> = Vec::new();
        if let Ok(existing) = fs::read_to_string(path) {
            for line in existing.lines() {
                let line = line.trim().trim_end_matches(',');
                if let Some(rest) = line.strip_prefix('"') {
                    if let Some((name, body)) = rest.split_once("\": ") {
                        sections.push((name.to_string(), body.to_string()));
                    }
                }
            }
        }
        sections.retain(|(name, _)| ![section, "commit", "date"].contains(&name.as_str()));
        sections.push((section.to_string(), body_json.to_string()));
        // Which tree the numbers are of: the commit built (`-dirty` when
        // the working tree had uncommitted changes) and the day it ran.
        let commit = crate::first_line("git", &["describe", "--always", "--dirty"]);
        let date = crate::first_line("date", &["-u", "+%Y-%m-%d"]);
        sections.push(("commit".into(), format!("\"{commit}\"")));
        sections.push(("date".into(), format!("\"{date}\"")));
        sections.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("{\n");
        for (i, (name, body)) in sections.iter().enumerate() {
            let sep = if i + 1 < sections.len() { "," } else { "" };
            out.push_str(&format!("\"{name}\": {body}{sep}\n"));
        }
        out.push_str("}\n");
        fs::write(path, out)
    }
}

pub use perfjson::{emit_bench_section, emit_net_bench_section};

/// First line of `cmd`'s output, or "unknown" where it cannot run.
pub fn first_line(cmd: &str, args: &[&str]) -> String {
    let out = std::process::Command::new(cmd).args(args).output().ok();
    let text = out.and_then(|o| String::from_utf8(o.stdout).ok());
    text.and_then(|t| t.lines().next().map(str::to_owned)).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic_and_valid() {
        let a = random_graph(8, 0.4, 7);
        let b = random_graph(8, 0.4, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Mandatory feasibility must hold by construction.
        a.access_levels().check_mandatory_feasible(1e-9).unwrap();
    }

    #[test]
    fn density_zero_means_no_agreements() {
        let g = random_graph(5, 0.0, 1);
        assert!(g.agreements().is_empty());
    }

    #[test]
    fn bipartite_graph_is_deterministic_valid_and_shallow() {
        let a = bipartite_graph(64, 42);
        let b = bipartite_graph(64, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let levels = a.access_levels();
        levels.check_mandatory_feasible(1e-9).unwrap();
        // Only the provider tier grants, so every agreement path has
        // length one — the property that keeps the exact path closure
        // (and thus large-n workload construction) linear.
        for ag in a.agreements() {
            assert!(ag.issuer.0 < 32, "consumer issued an agreement");
            assert!(ag.holder.0 >= 32, "provider holds an agreement");
        }
        assert!(!a.agreements().is_empty());
    }

    #[test]
    fn bench_json_sections_merge_and_replace() {
        let path = std::env::temp_dir().join("covenant_bench_json_test.json");
        let _ = std::fs::remove_file(&path);
        crate::perfjson::emit_section_at(&path, "lp", r#"{"a": 1}"#).unwrap();
        crate::perfjson::emit_section_at(&path, "sched", r#"{"b": 2}"#).unwrap();
        crate::perfjson::emit_section_at(&path, "lp", r#"{"a": 3}"#).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[1].starts_with("\"commit\": \"") && lines[2].starts_with("\"date\": \""));
        assert_eq!(lines[3..], ["\"lp\": {\"a\": 3},", "\"sched\": {\"b\": 2}", "}"]);
        let _ = std::fs::remove_file(&path);
    }
}
