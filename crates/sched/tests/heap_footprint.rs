//! Heap footprint of set-up at n = 512: the access levels and one window
//! scheduler built from them must stay proportional to the agreement
//! graph, not to n².
//!
//! A counting global allocator tracks the live heap, its peak and the
//! largest single allocation while `access_levels()` and
//! `WindowScheduler::new` run on a two-tier community of 256 providers and
//! 256 consumers holding about 768 agreements — the `tick_large`
//! benchmark's shape. One n×n table of `f64`s is 2 MiB on its own.

use covenant_agreements::AgreementGraph;
use covenant_sched::{SchedulerConfig, WindowScheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting.
struct Counting;

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as if old and new were live at once, as a moving
            // realloc has them.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// SplitMix64, as the benchmark's generator draws.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize
    }
}

/// The first ⌈n/2⌉ principals own capacity; each of the rest holds
/// agreements from up to three of them, within each provider's 0.9
/// mandatory budget.
fn bipartite_graph(n: usize, rng: &mut Rng) -> AgreementGraph {
    let mut g = AgreementGraph::new();
    let providers = n.div_ceil(2).max(1);
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let cap = if i < providers { 100.0 + rng.f64() * 1000.0 } else { 0.0 };
            g.add_principal(format!("P{i}"), cap)
        })
        .collect();
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
            g.add_agreement(ids[p], cid, lb, ub).expect("grant within the provider's budget");
            budget[p] -= lb;
        }
    }
    g
}

#[test]
fn levels_and_a_window_scheduler_at_n512_stay_under_a_mebibyte() {
    const N: usize = 512;
    let graph = bipartite_graph(N, &mut Rng(0x5EED_C0DE));
    assert!((700..=768).contains(&graph.agreements().len()), "{}", graph.agreements().len());

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    LARGEST.store(0, Relaxed);
    let levels = graph.access_levels();
    let sched = WindowScheduler::new(
        &levels,
        SchedulerConfig { window_secs: 0.1, ..SchedulerConfig::community_default() },
    );
    let (peak, largest) = (PEAK.load(Relaxed) - base, LARGEST.load(Relaxed));
    drop(sched);
    drop(levels);

    assert!(peak < 1 << 20, "set-up heap peaked at {peak} bytes above its start");
    assert!(largest < N * N * 8, "one allocation of {largest} bytes: an n×n table");
}
