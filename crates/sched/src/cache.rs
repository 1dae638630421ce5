//! Memoization of per-window plans.
//!
//! In steady state the EWMA demand estimator converges to a floating-point
//! fixpoint, so consecutive windows solve the LP on *identical* queue
//! vectors. [`PlanCache`] memoizes recently solved
//! `(access-levels fingerprint, quantized queue vector) → Plan` entries so
//! those windows skip the simplex entirely. Queue lengths are quantized at
//! [`PlanCache::QUANTUM`] (`1e-6` requests) before comparison: differences
//! below the quantum cannot move any plan by a meaningful amount, while the
//! key stays an exact integer comparison (no tolerance-chaining bugs).
//!
//! The cache is bounded at [`PlanCache::DEFAULT_CAPACITY`] entries with
//! least-recently-used eviction — per-window demand fingerprints churn
//! continuously at large principal counts, and an unbounded map would grow
//! with every distinct quantized vector ever seen. Evictions are counted
//! ([`PlanCache::evictions`]) so deployments can see when the working set
//! outgrows the cache. The whole cache is invalidated whenever the access
//! levels change.
//!
//! Since the warm-started solver landed, the cache is a fast *pre-check* in
//! front of an already-cheap re-solve (a hit saves the dual-simplex repair
//! and the plan extraction), not the only thing standing between a window
//! and a full cold solve.

use crate::Plan;
use covenant_agreements::{AccessLevels, PrincipalId};

/// FNV-style fold over a sequence of 64-bit words, one whole word per step.
fn fold(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        h = (h ^ w).wrapping_mul(0x100000001b3);
    }
    h
}

/// A stable fingerprint of everything the scheduling LPs read from the
/// access levels: principal count, each principal's row of pairwise
/// mandatory/optional shares (its length, then every entry's server and
/// bits), and capacities. Two level tables with equal fingerprints produce
/// identical constraint matrices.
pub fn levels_fingerprint(levels: &AccessLevels) -> u64 {
    let n = levels.len();
    let mut h = 0xcbf29ce484222325u64 ^ (n as u64).wrapping_mul(0x9e3779b97f4a7c15);
    for i in 0..n {
        let row = levels.row(PrincipalId(i));
        h = fold(h, [row.len() as u64]);
        h = fold(h, row.iter().flat_map(|&(j, m, o)| [j as u64, m.to_bits(), o.to_bits()]));
    }
    fold(h, levels.capacities().iter().map(|c| c.to_bits()))
}

/// One memoized window.
#[derive(Debug, Clone)]
struct Entry {
    key: Vec<i64>,
    plan: Plan,
    /// Logical time of last use (hit or store) — the LRU ordering.
    used: u64,
}

/// Bounded LRU memo of recently solved windows.
#[derive(Debug, Clone)]
pub struct PlanCache {
    fingerprint: u64,
    entries: Vec<Entry>,
    /// The quantized key of the lookup in progress (scratch).
    probe: Vec<i64>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// Queue-length quantization step for cache keys, in requests.
    pub const QUANTUM: f64 = 1e-6;

    /// Default entry cap. Demand walks oscillate over a handful of
    /// quantized vectors (EWMA fixpoints, alternating phases); a few dozen
    /// entries cover that working set while keeping lookup a short linear
    /// scan and memory bounded regardless of churn.
    pub const DEFAULT_CAPACITY: usize = 32;

    /// An empty cache bound to the given levels fingerprint.
    pub fn new(fingerprint: u64) -> Self {
        Self::with_capacity(fingerprint, Self::DEFAULT_CAPACITY)
    }

    /// An empty cache with an explicit entry cap (at least 1).
    pub fn with_capacity(fingerprint: u64, capacity: usize) -> Self {
        PlanCache {
            fingerprint,
            entries: Vec::new(),
            probe: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Drops every stored plan and rebinds to a new levels fingerprint
    /// (call when capacities or agreements change).
    pub fn invalidate(&mut self, fingerprint: u64) {
        self.fingerprint = fingerprint;
        self.entries.clear();
    }

    fn quantized(q: f64) -> i64 {
        // Saturating cast: demands far beyond i64 range all collapse to the
        // same key, which only costs a cache miss, never a wrong plan.
        (q / Self::QUANTUM).round() as i64
    }

    /// Looks `queues` up: the entry holding their plan if they quantize to
    /// a stored key (a hit, which refreshes the entry's LRU position; read
    /// it with [`Self::plan`]), `None` on a miss, after which
    /// [`Self::store`] files the solved plan under the key this lookup
    /// quantized.
    pub fn lookup(&mut self, queues: &[f64]) -> Option<usize> {
        self.clock += 1;
        self.probe.clear();
        self.probe.extend(queues.iter().map(|&q| Self::quantized(q)));
        match self.entries.iter().position(|e| e.key == self.probe) {
            Some(at) => {
                self.entries[at].used = self.clock;
                self.hits += 1;
                Some(at)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The plan of the entry a hit returned.
    pub fn plan(&self, entry: usize) -> &Plan {
        &self.entries[entry].plan
    }

    /// Stores `plan` under the key of the last [`Self::lookup`], a miss.
    /// A full cache evicts its least recently used entry and reuses that
    /// entry's buffers, so a steady state of misses allocates nothing.
    pub fn store(&mut self, plan: &Plan) {
        if self.entries.len() < self.capacity {
            self.entries.push(Entry { key: self.probe.clone(), plan: plan.clone(), used: self.clock });
            return;
        }
        let oldest = (self.entries.iter().enumerate())
            .min_by_key(|(_, e)| e.used)
            .map_or(0, |(at, _)| at);
        self.evictions += 1;
        let entry = &mut self.entries[oldest];
        entry.key.clone_from(&self.probe);
        entry.plan.clone_from(plan);
        entry.used = self.clock;
    }

    /// The levels fingerprint this cache is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that returned a memoized plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the solver.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries pushed out by the LRU cap since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covenant_agreements::AgreementGraph;

    fn levels() -> AccessLevels {
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 100.0);
        let a = g.add_principal("A", 0.0);
        g.add_agreement(s, a, 0.5, 0.5).unwrap();
        g.access_levels()
    }

    /// Looks `queues` up, storing a zero plan on a miss; true on a hit.
    fn hit(c: &mut PlanCache, queues: &[f64]) -> bool {
        let found = c.lookup(queues).is_some();
        if !found {
            c.store(&Plan::zero(queues.len()));
        }
        found
    }

    #[test]
    fn identical_queues_hit() {
        let mut c = PlanCache::new(levels_fingerprint(&levels()));
        let plan = Plan::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
        assert_eq!(c.lookup(&[1.0, 2.0]), None);
        c.store(&plan);
        let at = c.lookup(&[1.0, 2.0]).expect("memoized");
        assert_eq!(c.plan(at), &plan);
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn an_evicted_entry_takes_the_new_key_and_plan() {
        let mut c = PlanCache::with_capacity(0, 1);
        hit(&mut c, &[1.0]);
        let plan = Plan::from_dense(&[vec![4.0, 5.0]]);
        assert_eq!(c.lookup(&[2.0]), None);
        c.store(&plan);
        assert_eq!((c.len(), c.evictions()), (1, 1));
        assert_eq!(c.lookup(&[1.0]), None, "the old key is gone");
        c.store(&plan);
        let at = c.lookup(&[1.0]).expect("stored again");
        assert_eq!(c.plan(at), &plan);
    }

    #[test]
    fn sub_quantum_differences_still_hit() {
        let mut c = PlanCache::new(0);
        assert!(!hit(&mut c, &[10.0]));
        assert!(hit(&mut c, &[10.0 + 1e-9]));
        assert!(!hit(&mut c, &[10.0 + 1e-5]));
    }

    #[test]
    fn invalidation_clears_every_entry() {
        let mut c = PlanCache::new(1);
        hit(&mut c, &[5.0]);
        hit(&mut c, &[6.0]);
        c.invalidate(2);
        assert!(c.is_empty());
        assert!(!hit(&mut c, &[5.0]));
        assert!(!hit(&mut c, &[6.0]));
        assert_eq!(c.fingerprint(), 2);
    }

    #[test]
    fn multiple_entries_coexist() {
        // An alternating two-phase demand walk must hit on both vectors —
        // the single-entry design this replaces thrashed here.
        let mut c = PlanCache::new(0);
        hit(&mut c, &[1.0]);
        hit(&mut c, &[2.0]);
        assert!(hit(&mut c, &[1.0]));
        assert!(hit(&mut c, &[2.0]));
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn lru_cap_evicts_oldest() {
        let mut c = PlanCache::with_capacity(0, 2);
        hit(&mut c, &[1.0]);
        hit(&mut c, &[2.0]);
        // Touch [1.0] so [2.0] becomes the LRU victim.
        assert!(hit(&mut c, &[1.0]));
        hit(&mut c, &[3.0]);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.len(), 2);
        assert!(hit(&mut c, &[1.0]));
        assert!(hit(&mut c, &[3.0]));
        assert!(!hit(&mut c, &[2.0]), "LRU entry must be gone");
    }

    #[test]
    fn churn_stays_bounded() {
        let mut c = PlanCache::with_capacity(0, 4);
        for i in 0..100 {
            hit(&mut c, &[i as f64]);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions(), 96);
        // The four most recent keys survive.
        for i in 96..100 {
            assert!(hit(&mut c, &[i as f64]), "key {i}");
        }
    }

    #[test]
    fn fingerprint_tracks_level_changes() {
        let a = levels_fingerprint(&levels());
        let mut g = AgreementGraph::new();
        let s = g.add_principal("S", 200.0);
        let x = g.add_principal("A", 0.0);
        g.add_agreement(s, x, 0.5, 0.5).unwrap();
        let b = levels_fingerprint(&g.access_levels());
        assert_ne!(a, b);
        assert_eq!(a, levels_fingerprint(&levels()));
    }
}
