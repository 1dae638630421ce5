//! Work per window tick, counted exactly: heap allocations, LP pivots and
//! basis rebuilds.
//!
//! Wall time on a shared machine cannot tell "this tick does more work"
//! from "the box was slow"; these counts can. A counting global allocator
//! (per thread, so the test harness's own threads do not leak in) counts
//! what one tick allocates after warm-up, on a fixed seeded arrival
//! sequence, at n = 4 and at n = 512 (the `tick_large` community; the
//! generator is the set-up heap test's):
//!
//! - `EnforcementCore::on_window_tick` in both credit modes allocates
//!   nothing: the plan is written where the scheduler keeps it, the basis
//!   reuses its scratch;
//! - `ShardCore::roll_window_at` allocates exactly what its tree I/O does:
//!   the view `Coordinator::read_at` copies out and the demand vector
//!   `publish_at` takes;
//! - the LP's pivots and rebuilds over the measured windows are pinned, so
//!   a change in solver work shows up as a change to this file; so are the
//!   pivots of the first window's cold solve, which at n = 512 must finish
//!   from the plain slack basis, without the lexicographic restart.

use covenant_agreements::{AccessLevels, AgreementGraph, PrincipalId};
use covenant_coord::{Coordinator, ShardCore};
use covenant_enforce::{EnforcementCore, QueueMode};
use covenant_sched::{Request, RequestId, SchedulerConfig};
use covenant_tree::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

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
/// mandatory budget (`crates/sched/tests/heap_footprint.rs`).
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

const WINDOW_SECS: f64 = 0.1;
/// Windows before counting: enough for the basis and the gate's buffers to
/// reach their size. The pinned pivots and rebuilds are those of windows
/// 40–51 of the drifting demand, so the value stays where the pins were
/// taken.
const WARM_WINDOWS: usize = 40;
/// Windows counted.
const MEASURED_WINDOWS: usize = 12;

/// A seeded arrival model after the `tick_*` workloads': each principal
/// offers 0.4–1.6 times its mandatory level per window, drifting ±3 % on a
/// 50-window sine.
struct Demand {
    /// Mean cost per window, and the drift's phase, per principal.
    mean: Vec<(f64, f64)>,
    rng: Rng,
}

impl Demand {
    fn new(levels: &AccessLevels, seed: u64) -> Demand {
        let mut rng = Rng(seed);
        let mean = (0..levels.len())
            .map(|i| {
                let m = levels.mandatory(PrincipalId(i)) * WINDOW_SECS;
                (m * (0.4 + 1.2 * rng.f64()), rng.f64())
            })
            .collect();
        Demand { mean, rng }
    }

    /// Window `w`'s demand of principal `i`, in cost units: the drifting
    /// mean, ±20 % noise in place of the workloads' Poisson draw, rounded
    /// to a whole request at random.
    fn cost(&mut self, w: usize, i: usize) -> f64 {
        let (mean, phase) = self.mean[i];
        let drift = 1.0 + 0.03 * (std::f64::consts::TAU * (w as f64 / 50.0 + phase)).sin();
        let noise = 0.4 * (self.rng.f64() - 0.5);
        (mean * (drift + noise) + self.rng.f64()).floor()
    }
}

/// What the measured windows of one driver did, in total, and the cold
/// solve of its first window.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    allocations: u64,
    pivots: u64,
    rebuilds: u64,
    cold: Cold,
}

/// The first window's cold solve: its pivots, and whether its plain slack
/// basis ran out of budget and the solve restarted from the lexicographic
/// one.
#[derive(Debug, PartialEq, Eq)]
struct Cold {
    pivots: u64,
    lexicographic_starts: u64,
}

/// One lone redirector's `EnforcementCore` at `n` principals, planning on
/// the demand it published the window before (a one-node tree). Each
/// principal's window demand arrives as four requests of a quarter of it,
/// so a tick sees the arrival sums of the workloads without their request
/// count.
fn core_ticks(n: usize, mode: QueueMode) -> Work {
    let levels = bipartite_graph(n, &mut Rng(0x5EED_C0DE)).access_levels();
    let mut demand = Demand::new(&levels, 7);
    let mut core = EnforcementCore::new(&levels, SchedulerConfig::community_default(), mode);
    let (mut view, mut next) = (Vec::with_capacity(n), Vec::with_capacity(n));
    // The driver's release buffer holds the most a window can release:
    // credit never exceeds two windows of the whole capacity, and no
    // request here costs less than a quarter.
    let capacity: f64 = levels.capacities().iter().sum();
    let mut released = Vec::with_capacity((8.0 * capacity * WINDOW_SECS) as usize + 4 * n);
    let mut id = 0;
    let mut work = Work {
        allocations: 0,
        pivots: 0,
        rebuilds: 0,
        cold: Cold { pivots: 0, lexicographic_starts: 0 },
    };
    for w in 0..WARM_WINDOWS + MEASURED_WINDOWS {
        let t = w as f64 * WINDOW_SECS;
        for i in 0..n {
            let cost = demand.cost(w, i) / 4.0;
            for _ in 0..4 {
                id += 1;
                if cost > 0.0 {
                    let principal = PrincipalId(i);
                    core.on_arrival(Request { id: RequestId(id), principal, arrival: t, cost });
                }
            }
        }
        let lp_before = core.warm_stats();
        let published: Option<&[f64]> = (w > 0).then_some(&view);
        let allocations = allocations_in(|| {
            next.clear();
            next.extend_from_slice(core.on_window_tick(published, None, &mut released));
        });
        std::mem::swap(&mut view, &mut next);
        if lp_before.solves == 0 {
            // Until the first solve, which is the cold one.
            let lp = core.warm_stats();
            work.cold = Cold { pivots: lp.pivots, lexicographic_starts: lp.lexicographic_starts };
        }
        if w >= WARM_WINDOWS {
            let lp = core.warm_stats();
            work.allocations += allocations;
            work.pivots += lp.pivots - lp_before.pivots;
            work.rebuilds += lp.refactorizations - lp_before.refactorizations;
        }
    }
    work
}

/// One `ShardCore` on a one-leaf in-process tree at `n` principals, fed
/// unit requests through `try_admit_at` (at most four per principal and
/// window, which keeps the n = 512 run short) and rolled with
/// `roll_window_at`. Returns the allocations of the measured rolls.
fn shard_rolls(n: usize) -> u64 {
    let levels = bipartite_graph(n, &mut Rng(0x5EED_C0DE)).access_levels();
    let mut demand = Demand::new(&levels, 7);
    let coordinator = Coordinator::new(Topology::star(1, 0.0), 0.0);
    let mut shard = ShardCore::new(0, &levels, SchedulerConfig::community_default(), coordinator);
    let mut allocations = 0;
    for w in 0..WARM_WINDOWS + MEASURED_WINDOWS {
        let t = w as f64 * WINDOW_SECS;
        for i in 0..n {
            for _ in 0..(demand.cost(w, i) as usize).min(4) {
                shard.try_admit_at(PrincipalId(i), None, t + WINDOW_SECS / 2.0);
            }
        }
        let rolled = allocations_in(|| shard.roll_window_at(None, t + WINDOW_SECS));
        if w >= WARM_WINDOWS {
            allocations += rolled;
        }
    }
    allocations
}

#[test]
fn a_steady_state_tick_allocates_nothing_and_its_lp_work_is_pinned() {
    let retry = QueueMode::CreditRetry { retry_delay: 0.05 };
    let work = |allocations, pivots, rebuilds, cold_pivots| Work {
        allocations,
        pivots,
        rebuilds,
        cold: Cold { pivots: cold_pivots, lexicographic_starts: 0 },
    };
    for (n, mode, expected) in [
        (4, retry.clone(), work(0, 6, 2, 5)),
        (4, QueueMode::CreditPark, work(0, 7, 2, 7)),
        (512, retry, work(0, 573, 5, 1284)),
        (512, QueueMode::CreditPark, work(0, 425, 4, 1840)),
    ] {
        let got = core_ticks(n, mode.clone());
        assert_eq!(got, expected, "n = {n}, {mode:?}, over {MEASURED_WINDOWS} ticks");
    }
}

/// Per roll: the view `read_at` copies out, the vector `publish_at` takes,
/// and the copy of it the in-process tree queues when it closes the round.
#[test]
fn a_shard_roll_allocates_only_its_tree_io() {
    for n in [4, 512] {
        let got = shard_rolls(n);
        assert_eq!(got, 3 * MEASURED_WINDOWS as u64, "n = {n}, over {MEASURED_WINDOWS} rolls");
    }
}
