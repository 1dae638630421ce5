//! Sparse revised simplex with a warm-started dual phase.
//!
//! The dense tableau in [`crate::simplex`] is the right tool for a few
//! dozen principals. The window LPs the schedulers build carry one
//! variable per agreement-backed `(principal, server)` pair plus `θ` —
//! `O(agreements)` columns over `O(n)` rows — and at n = 512 that is
//! about a thousand columns over two thousand rows, where a dense tableau
//! would spend its time on zeros. This module is the engine behind
//! `Problem::solve_warm`, and everything in it is proportional to the
//! nonzeros it touches:
//!
//! - **Sparse problem columns and rows.** The constraint matrix is stored
//!   once per prepared shape in compressed sparse column form (FTRAN
//!   scatters, column dots) and again row-wise (the problem's own
//!   coefficient order), so a pivot row `ρ·A` is priced over the rows where
//!   `ρ` is nonzero instead of one dot product per column. Slack columns
//!   are implicit unit columns. Columns boxed to zero width never enter
//!   pricing.
//! - **Product-form basis inverse.** The basis inverse is an eta file
//!   (elementary column transforms) grown by one eta per pivot and rebuilt
//!   every `refactor_after` appended etas: the row count `m`, kept between
//!   8 and `64 + m/32`, so a small basis never carries more etas than it
//!   has rows. The rebuild peels the structural basics like a triangular
//!   matrix — column singletons and row singletons pivot without
//!   elimination, the column that blocks the peeling (`θ`, which sits in
//!   every coverage row) is set aside to go last — and indexes its etas by
//!   row, so that an FTRAN or BTRAN of a sparse vector visits only the
//!   etas its nonzeros reach. Its scratch lives in the [`WarmBasis`], so
//!   once that has grown to the basis a rebuild allocates nothing, and
//!   neither does a steady-state solve. Replacing a single basic column
//!   (the θ coefficient changes with every window's queue lengths) is a
//!   rank-one update: one FTRAN plus one appended eta.
//! - **Hypersparse BTRAN.** The etas appended since the last rebuild are
//!   marked, one bit each, in every row they reach, so the BTRAN of a pivot
//!   row — a unit vector whose image has about a dozen nonzeros at
//!   n = 512 — visits only the appended etas those nonzeros reach instead
//!   of all of them (up to `refactor_after`, 128 at 2 048 rows): Hall and
//!   McKinnon's hyper-sparsity. A row's bits take a few word operations to
//!   read, so a vector that fills in costs no more than the walk did. An
//!   eta left out would only have written a zero over a zero: no value
//!   changes.
//! - **Warm-started dual simplex.** Consecutive windows differ only in
//!   queue-derived right-hand sides and bounds, so the previous window's
//!   optimal basis stays *dual* feasible. [`WarmBasis`] persists the basis,
//!   bound statuses, and eta file across solves; `solve_warm` repairs
//!   primal feasibility with dual simplex pivots instead of re-solving
//!   from scratch. Per solve it re-reads only what a window can change —
//!   coefficient values, right-hand sides, bounds, costs — and recognises
//!   the shape by the fingerprint the [`Problem`] keeps as it is built. A
//!   pivot works on the nonzeros of its row and column: the violated rows
//!   and the reduced costs are kept current from those, not recomputed by
//!   sweeps. A cold solve is the same dual simplex started from the
//!   all-slack basis (trivially dual feasible for the scheduler LPs, whose
//!   positive-cost variables are all boxed).
//! - **Canonical vertex.** The returned vertex is the one of the optimal
//!   face that maximizes a fixed tie-break weight per column, so it is a
//!   function of the problem and not of the solve history. The weight is
//!   derived from [`Problem::tiebreak_id`], which lets a problem that
//!   leaves out the zero-bounded columns of a larger formulation keep that
//!   formulation's vertex. The dual phase is lexicographic in the two
//!   objectives: each solve starts by computing both sets of reduced costs
//!   (one BTRAN of the pair of cost vectors, one pass over the columns),
//!   carries both along every pivot row, and breaks the many ties of its
//!   degenerate ratio tests by the tie-break reduced costs. From the
//!   previous window's canonical basis it therefore stops on the new
//!   canonical vertex. (The slack basis of a cold start is not dual
//!   feasible for the tie-break objective, so there its reduced costs order
//!   nothing: a cold dual phase breaks ties by pivot size and column id
//!   alone.) A primal walk over the optimal face stays as the guarantee; it
//!   reads face membership off the true reduced costs and its entering
//!   candidates off the carried tie-break ones, and in steady state pivots
//!   nowhere.
//!
//! Cost of one warm solve on a 512-principal two-tier community (2 048
//! rows, `θ` + 1 022 pair columns, demand drifting around the mandatory
//! levels the way the `tick_large` benchmark draws it), before and after
//! the dual phase became lexicographic and BTRAN hypersparse — timers
//! inside this file, on a copy, one core of a 2-vCPU Xeon:
//!
//! | where | before | after |
//! |---|---|---|
//! | dual phase | 1.35 ms (152 pivots, 104 under Bland's rule) | 0.84 ms (132 pivots, none under Bland's rule) |
//! | canonicalization | 0.93 ms (103 pivots) | 0.03 ms (no pivots) |
//! | BTRAN, inside the two rows above | 0.71 ms | 0.14 ms |
//! | refactorization, inside the two rows above | 0.39 ms | 0.17 ms |
//! | whole solve | 2.47 ms | 1.03 ms |
//!
//! Without the lexicographic ties nearly every dual pivot is degenerate
//! (the entering column is already on the optimal face), so the
//! anti-cycling rule took over early in every solve and the face walk then
//! undid what it had chosen. A cold solve takes the same pivots as before
//! (at n = 512, 4 157 when demand is far above every entitlement, 1 947
//! around the mandatory levels) and about the same time.
//!
//! The engine refuses problems it cannot start dual-feasible (a variable
//! with positive cost and no upper bound) or that misbehave numerically,
//! returning [`WarmOutcome::Unsuitable`]; callers fall back to the dense
//! solver. Every optimal claim is verified against the problem's own
//! feasibility checker before being returned.

use crate::{Problem, Relation};

/// Dual-feasibility tolerance on reduced costs.
const DTOL: f64 = 1e-7;
/// Primal-feasibility tolerance on basic-variable bound violations.
const PTOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIV_TOL: f64 = 1e-8;
/// Entries below this are dropped when storing an eta column.
const ETA_DROP: f64 = 1e-12;
/// Tolerance used when verifying a claimed optimum against the problem.
const VERIFY_TOL: f64 = 1e-5;
/// Consecutive degenerate pivots before the anti-cycling rule
/// (smallest-index leaving row and entering column) engages; any strict
/// progress resets both the streak and the rule. From a warm start progress
/// is lexicographic: a pivot that moves the true dual objective or, failing
/// that, the tie-break one.
const BLAND_AFTER: usize = 24;
/// A true-objective reduced cost below this is treated as exactly zero
/// when walking the optimal face: the column is free to enter without
/// moving the objective. Sits well above accumulated update noise
/// (~1e-13) and well below genuinely binding reduced costs (≥ DTOL).
const FACE_TOL: f64 = 1e-9;
/// Minimum tie-break-objective improvement worth a canonicalization pivot.
const WTOL: f64 = 1e-9;

/// Result of a warm (or cold) revised-simplex solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmOutcome {
    /// A verified finite optimum; read it from [`WarmBasis::x`] and
    /// [`WarmBasis::objective_value`].
    Optimal,
    /// No point satisfies the constraints (confirmed by a cold restart).
    Infeasible,
    /// The engine cannot handle this problem (dual-infeasible start,
    /// singular basis, or persistent numerical trouble): the caller should
    /// use the dense solver.
    Unsuitable,
}

/// Lifetime counters of one [`WarmBasis`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Total solves routed through this handle.
    pub solves: u64,
    /// Solves that reused the previous optimal basis (warm starts).
    pub warm_solves: u64,
    /// Solves that restarted from the all-slack basis (first solve, shape
    /// change, or recovery from numerical trouble).
    pub cold_starts: u64,
    /// Basis changes performed, of both phases.
    pub pivots: u64,
    /// The part of `pivots` spent walking the optimal face to the
    /// canonical vertex after the dual phase had stopped elsewhere.
    pub face_pivots: u64,
    /// Basis rebuilds (scheduled refactorizations plus recoveries).
    pub refactorizations: u64,
}

impl WarmStats {
    /// Adds `other`'s counts to these: the lifetime counters of a handle
    /// and the one it replaced.
    pub fn merge(&mut self, other: WarmStats) {
        let WarmStats { solves, warm_solves, cold_starts, pivots, face_pivots, refactorizations } =
            other;
        self.solves += solves;
        self.warm_solves += warm_solves;
        self.cold_starts += cold_starts;
        self.pivots += pivots;
        self.face_pivots += face_pivots;
        self.refactorizations += refactorizations;
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Fixed (equal bounds — zero-width box); never enters.
    Fixed,
}

const NOT_BASIC: u32 = u32::MAX;
/// "No rebuild eta pivots at this row" in [`EtaFile::of_row`].
const NO_ETA: u32 = u32::MAX;

/// Positions that may have a property (a written entry, a violated row, an
/// improving column), each listed once, in the order they were listed —
/// so whatever is chosen by scanning them must not depend on that order.
/// Whoever makes a position a candidate lists it; whoever scans the list
/// may drop the ones that no longer qualify: a scan costs the candidates,
/// not the whole range.
#[derive(Debug, Clone, Default)]
struct Worklist {
    items: Vec<u32>,
    listed: Vec<bool>,
}

impl Worklist {
    /// Empties the list, for positions `0..len`.
    fn reset(&mut self, len: usize) {
        self.items.clear();
        self.listed.clear();
        self.listed.resize(len, false);
    }

    /// Empties the list, at the cost of its items.
    fn clear(&mut self) {
        for &i in &self.items {
            self.listed[i as usize] = false;
        }
        self.items.clear();
    }

    /// Lists `i`; true if it was not listed yet.
    #[inline]
    fn push(&mut self, i: usize) -> bool {
        let fresh = !self.listed[i];
        if fresh {
            self.listed[i] = true;
            self.items.push(i as u32);
        }
        fresh
    }

    /// Visits every listed position, keeping those `keep` accepts.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let listed = &mut self.listed;
        self.items.retain(|&i| {
            let kept = keep(i as usize);
            listed[i as usize] = kept;
            kept
        });
    }
}

/// A dense value array plus the positions written since the last clear (a
/// superset of the nonzeros), so that clearing, scanning and storing cost
/// the nonzeros and not the length.
#[derive(Debug, Clone, Default)]
struct SparseVec {
    val: Vec<f64>,
    written: Worklist,
}

impl SparseVec {
    fn reset(&mut self, len: usize) {
        self.val.clear();
        self.val.resize(len, 0.0);
        self.written.reset(len);
    }

    fn clear(&mut self) {
        for &i in &self.written.items {
            self.val[i as usize] = 0.0;
        }
        self.written.clear();
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        self.written.push(i);
    }

    /// The written positions.
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.written.items.iter().map(|&i| i as usize)
    }
}

/// The product-form basis inverse: one elementary column transform per
/// pivot, applied in order by FTRAN and in reverse by BTRAN.
///
/// The file has two parts. Etas `[0, base)` came out of the last rebuild,
/// where every row pivots at most once: they are indexed by the row they
/// pivot at (`of_row`) and by the rows they have entries in (`feeds`), so
/// a transform of a *sparse* vector visits only the etas its nonzeros
/// reach instead of the whole file. Etas `[base, count)` were appended by
/// pivots since; they are few (the rebuild cadence bounds them), FTRAN
/// walks them one by one, and BTRAN finds them through a bit set per row
/// of the appended etas reaching it — pivoting there or with an entry
/// there — so that it too visits only the etas its nonzeros reach (Hall
/// and McKinnon's hyper-sparsity).
#[derive(Debug, Clone, Default)]
struct EtaFile {
    slot: Vec<u32>,
    pivot: Vec<f64>,
    start: Vec<usize>,
    row: Vec<u32>,
    val: Vec<f64>,
    /// Etas below this index are the rebuild's; see the type docs.
    base: usize,
    /// `of_row[r]`: the rebuild eta that pivoted at row `r`, or [`NO_ETA`].
    of_row: Vec<u32>,
    /// Rebuild etas with an entry in row `r`: `feeds[feeds_ptr[r]..feeds_ptr[r + 1]]`.
    feeds_ptr: Vec<u32>,
    feeds: Vec<u32>,
    /// The appended etas reaching each row, one bit per eta: bit `b` of
    /// `reach[w · m + r]` stands for eta `base + 64·w + b` reaching row `r`.
    reach: Vec<u64>,
    /// Scratch of the sparse transforms: one bit per eta waiting its turn.
    /// A transform only ever queues etas on the side it has not reached
    /// yet, so sweeping the words once in its direction visits them in
    /// order.
    waiting: Vec<u64>,
    /// Scratch of [`Self::index_rebuilt`]: the next free slot of each row's
    /// `feeds` run.
    cursor: Vec<u32>,
}

impl EtaFile {
    /// Empties the file for a basis over `m` rows.
    fn clear(&mut self, m: usize) {
        self.base = 0;
        self.slot.clear();
        self.pivot.clear();
        self.start.clear();
        self.start.push(0);
        self.row.clear();
        self.val.clear();
        self.of_row.clear();
        self.of_row.resize(m, NO_ETA);
        self.feeds_ptr.clear();
        self.feeds_ptr.resize(m + 1, 0);
        self.feeds.clear();
        self.reach.clear();
        self.waiting.clear();
    }

    fn count(&self) -> usize {
        self.slot.len()
    }

    /// Etas appended since the last rebuild. A rebuild seeds one eta per
    /// structural basic, so the every-k cadence must count only these —
    /// comparing the raw length against the cadence would re-trigger
    /// immediately whenever the basis holds more structurals than the
    /// cadence allows.
    fn grown(&self) -> usize {
        self.count() - self.base
    }

    /// Stores the eta for pivoting column `w` into slot `p`; `w.val[p]` is
    /// the pivot element.
    fn store(&mut self, p: usize, w: &SparseVec) {
        self.slot.push(p as u32);
        self.pivot.push(w.val[p]);
        for i in w.positions() {
            let v = w.val[i];
            if i != p && v.abs() > ETA_DROP {
                self.row.push(i as u32);
                self.val.push(v);
            }
        }
        self.start.push(self.row.len());
        self.waiting.resize(self.count().div_ceil(64), 0);
    }

    /// Appends the eta for pivoting column `w` into slot `p`, marking it in
    /// the rows it reaches.
    fn push(&mut self, p: usize, w: &SparseVec) {
        let (k, m) = (self.count(), self.of_row.len());
        self.store(p, w);
        let (word, bit) = ((k - self.base) / 64, (k - self.base) % 64);
        self.reach.resize((word + 1) * m, 0);
        let rows = &mut self.reach[word * m..];
        rows[p] |= 1 << bit;
        for &r in &self.row[self.start[k]..self.start[k + 1]] {
            rows[r as usize] |= 1 << bit;
        }
    }

    /// [`Self::store`] during a rebuild: row `p` has not pivoted before.
    fn push_rebuilt(&mut self, p: usize, w: &SparseVec) {
        self.of_row[p] = self.count() as u32;
        self.store(p, w);
        self.base = self.count();
    }

    /// Ends a rebuild: indexes its etas by the rows they have entries in.
    fn index_rebuilt(&mut self) {
        let m = self.of_row.len();
        self.feeds_ptr.clear();
        self.feeds_ptr.resize(m + 1, 0);
        for &r in &self.row {
            self.feeds_ptr[r as usize + 1] += 1;
        }
        for r in 0..m {
            self.feeds_ptr[r + 1] += self.feeds_ptr[r];
        }
        self.feeds.clear();
        self.feeds.resize(self.row.len(), 0);
        self.cursor.clone_from(&self.feeds_ptr);
        for k in 0..self.base {
            for at in self.start[k]..self.start[k + 1] {
                let r = self.row[at] as usize;
                self.feeds[self.cursor[r] as usize] = k as u32;
                self.cursor[r] += 1;
            }
        }
    }

    /// Applies eta `k` to `v` given the (nonzero) pivot-slot entry `vp`,
    /// reporting every row it writes.
    #[inline]
    fn apply(&self, k: usize, vp: f64, v: &mut [f64], mut wrote: impl FnMut(usize)) {
        let t = vp / self.pivot[k];
        for at in self.start[k]..self.start[k + 1] {
            let r = self.row[at] as usize;
            v[r] -= self.val[at] * t;
            wrote(r);
        }
        v[self.slot[k] as usize] = t;
    }

    /// Applies the basis inverse to a dense vector: `v ← B⁻¹ v`.
    fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.count() {
            let vp = v[self.slot[k] as usize];
            // Exact-zero skip of an untouched pivot entry, not a tolerance.
            if vp != 0.0 { // covenant: allow(float-eq)
                self.apply(k, vp, v, |_| {});
            }
        }
    }

    /// [`Self::ftran`] over a sparse vector, recording the fill-in. Among
    /// the rebuild's etas a nonzero in row `r` can trigger only
    /// `of_row[r]`, so only those are visited — in emission order; fill-in
    /// landing on a row whose eta has already been passed is, correctly,
    /// not revisited. (Mid-rebuild the whole file is rebuild etas, so this
    /// is also the FTRAN the rebuild itself runs on.)
    fn ftran_sparse(&mut self, v: &mut SparseVec) {
        let SparseVec { val, written } = v;
        let mut waiting = std::mem::take(&mut self.waiting);
        for &i in &written.items {
            let k = self.of_row[i as usize];
            if k != NO_ETA {
                waiting[k as usize / 64] |= 1 << (k % 64);
            }
        }
        for word in 0..waiting.len() {
            while waiting[word] != 0 {
                let bit = waiting[word].trailing_zeros() as usize;
                waiting[word] &= !(1 << bit);
                let k = word * 64 + bit;
                let vp = val[self.slot[k] as usize];
                if vp != 0.0 { // covenant: allow(float-eq)
                    self.apply(k, vp, val, |r| {
                        let later = self.of_row[r] as usize;
                        if written.push(r) && later != NO_ETA as usize && later > k {
                            waiting[later / 64] |= 1 << (later % 64);
                        }
                    });
                }
            }
        }
        self.waiting = waiting;
        for k in self.base..self.count() {
            let vp = val[self.slot[k] as usize];
            if vp != 0.0 { // covenant: allow(float-eq)
                self.apply(k, vp, val, |r| {
                    written.push(r);
                });
            }
        }
    }

    /// Applies the transposed inverse to two dense vectors at once:
    /// `v[r] ← (B⁻ᵀ v₀)[r], (B⁻ᵀ v₁)[r]` — the duals of two objectives over
    /// one pass of the file.
    fn btran_pair(&self, v: &mut [[f64; 2]]) {
        for k in (0..self.count()).rev() {
            let p = self.slot[k] as usize;
            let [mut s0, mut s1] = v[p];
            for at in self.start[k]..self.start[k + 1] {
                let (a, [v0, v1]) = (self.val[at], v[self.row[at] as usize]);
                s0 -= a * v0;
                s1 -= a * v1;
            }
            v[p] = [s0 / self.pivot[k], s1 / self.pivot[k]];
        }
    }

    /// Queues for a sparse BTRAN the etas below `below` that a nonzero in
    /// row `r` reaches: the rebuild eta pivoting there, the rebuild etas
    /// with an entry there, and the appended etas marked there.
    fn queue_reaching(&mut self, r: usize, below: u32) {
        let own = self.of_row[r];
        let fed = &self.feeds[self.feeds_ptr[r] as usize..self.feeds_ptr[r + 1] as usize];
        for &k in fed.iter().chain(std::iter::once(&own)) {
            if k < below {
                self.waiting[k as usize / 64] |= 1 << (k % 64);
            }
        }
        // The appended etas, a word of the bit set at a time, shifted onto
        // the waiting set's alignment.
        let m = self.of_row.len();
        for word in 0..self.reach.len() / m {
            let first = self.base + 64 * word;
            if first >= below as usize {
                break;
            }
            let mut bits = self.reach[word * m + r];
            if below as usize - first < 64 {
                bits &= (1 << (below as usize - first)) - 1;
            }
            let (at, shift) = (first / 64, first % 64);
            self.waiting[at] |= bits << shift;
            if shift > 0 && bits >> (64 - shift) != 0 {
                self.waiting[at + 1] |= bits >> (64 - shift);
            }
        }
    }

    /// `v ← B⁻ᵀ v` over a sparse vector. Only eta slots are ever written,
    /// so the nonzeros stay inside the start set plus those; and an eta can
    /// only change its slot if the vector is nonzero there or in one of the
    /// eta's rows, so those are found through the row indexes — latest
    /// first, newly filled rows queueing the earlier etas they reach —
    /// instead of by walking the file. An eta left out would only have
    /// written a zero over a zero.
    fn btran_sparse(&mut self, v: &mut SparseVec) {
        for r in v.positions() {
            if v.val[r] != 0.0 { // covenant: allow(float-eq)
                self.queue_reaching(r, NO_ETA);
            }
        }
        for word in (0..self.waiting.len()).rev() {
            while self.waiting[word] != 0 {
                let bit = 63 - self.waiting[word].leading_zeros() as usize;
                self.waiting[word] &= !(1 << bit);
                let k = word * 64 + bit;
                let p = self.slot[k] as usize;
                let mut out = v.val[p];
                for at in self.start[k]..self.start[k + 1] {
                    out -= self.val[at] * v.val[self.row[at] as usize];
                }
                out /= self.pivot[k];
                let was_zero = v.val[p] == 0.0; // covenant: allow(float-eq)
                if v.written.listed[p] || out != 0.0 { // covenant: allow(float-eq)
                    v.touch(p);
                    v.val[p] = out;
                }
                if was_zero && out != 0.0 { // covenant: allow(float-eq)
                    self.queue_reaching(p, k as u32);
                }
            }
        }
    }
}

/// Persistent warm-start state for one prepared problem shape: the sparse
/// column store, the current basis with its eta-file inverse, and per-column
/// bound statuses. Create once per prepared skeleton and pass to
/// [`Problem::solve_warm`] every window; the handle detects shape changes
/// and rebuilds itself (a cold start) automatically.
#[derive(Debug, Clone, Default)]
pub struct WarmBasis {
    // ---- shape ----
    /// Structural variable count of the bound shape.
    n_vars: usize,
    /// Constraint rows of the bound shape.
    m: usize,
    /// Pattern fingerprint of the bound shape (0 = unbound).
    shape: u64,

    // ---- sparse column store (structural columns; slacks implicit) ----
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    col_val: Vec<f64>,
    // ---- the same matrix row-wise, in the problem's coefficient order ----
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    row_val: Vec<f64>,
    /// Maps a row-wise slot to its column-wise slot, so per-window value
    /// sync is one linear pass over the problem's coefficients.
    fill_perm: Vec<usize>,

    // ---- per-column data (structural then slacks) ----
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    /// Canonicalization weight per structural column (slacks carry none).
    tiebreak: Vec<f64>,
    status: Vec<CStat>,
    /// Non-fixed columns — the only ones pricing ever visits.
    active: Vec<u32>,
    /// Reduced costs (maintained for active columns).
    d: Vec<f64>,
    /// Tie-break reduced costs (maintained for active columns, alongside
    /// `d`).
    dw: Vec<f64>,
    /// Face columns whose tie-break reduced cost may call them into the
    /// basis: the entering candidates of canonicalization.
    improving: Worklist,

    // ---- basis ----
    basis: Vec<u32>,
    pos_in_basis: Vec<u32>,
    x_basic: Vec<f64>,
    /// Basis slots whose value may violate a bound: the leaving candidates
    /// of the dual phase.
    violated: Worklist,
    rhs: Vec<f64>,
    eta: EtaFile,
    refactor_after: usize,

    // ---- scratch ----
    /// Dense row-space vector (basic values under construction).
    work: Vec<f64>,
    /// Dense row-space pairs: the true and the tie-break duals.
    duals: Vec<[f64; 2]>,
    /// The entering column `B⁻¹ A_q`.
    col: SparseVec,
    /// The pivot row of the inverse, `B⁻ᵀ e_r`.
    rho: SparseVec,
    /// The pivot row `ρ·A` over all columns.
    alpha: SparseVec,
    /// Basis slots whose column changed value since the last solve.
    changed: Worklist,
    // Refactorization scratch.
    row_free: Vec<bool>,
    col_state: Vec<ColState>,
    free_entries: Vec<u32>,
    row_waiting: Vec<u32>,
    /// The structural basics a rebuild pivots in.
    rebuild_cols: Vec<u32>,
    /// The rebuild's singleton queue.
    peel: Vec<Peel>,
    x_out: Vec<f64>,
    objective: f64,

    // ---- counters ----
    stats: WarmStats,
}

/// A structural column's part in a rebuild of the eta file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    /// Not in the basis.
    Absent,
    /// Basic, not pivoted in yet, counted in its free rows.
    Waiting,
    /// Basic, set aside to be pivoted in last.
    Aside,
    /// Pivoted in.
    Placed,
}

/// A singleton the rebuild's peeling has yet to look at.
#[derive(Debug, Clone, Copy)]
enum Peel {
    /// A waiting column with one entry left in the free rows.
    Col(u32),
    /// A free row with one waiting column left in it.
    Row(u32),
}

enum LoopResult {
    Optimal,
    Infeasible,
    Trouble,
}

impl WarmBasis {
    /// An unbound handle; the first [`Problem::solve_warm`] binds it to the
    /// problem's shape with a cold start.
    pub fn new() -> Self {
        Self::default()
    }

    /// Structural-variable values of the last optimal solve.
    pub fn x(&self) -> &[f64] {
        &self.x_out
    }

    /// Objective value of the last optimal solve.
    pub fn objective_value(&self) -> f64 {
        self.objective
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// True when the handle currently holds a reusable basis for the last
    /// bound shape.
    pub fn is_warm(&self) -> bool {
        self.shape != 0 && !self.basis.is_empty()
    }

    fn slack_col(&self, row: usize) -> usize {
        self.n_vars + row
    }

    fn ncols(&self) -> usize {
        self.n_vars + self.m
    }

    /// Builds both sparse stores and the per-column tables for a new shape.
    fn rebuild_store(&mut self, problem: &Problem) {
        let n = problem.n_vars();
        let m = problem.n_constraints();
        self.n_vars = n;
        self.m = m;
        let ncols = n + m;

        // Column counts and row lengths, then prefix sums.
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        self.row_ptr.clear();
        self.row_ptr.push(0);
        for c in problem.constraints() {
            for &(j, _) in &c.coeffs {
                self.col_ptr[j + 1] += 1;
            }
            self.row_ptr.push(self.row_ptr[self.row_ptr.len() - 1] + c.coeffs.len());
        }
        for j in 0..n {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        let nnz = self.col_ptr[n];
        self.row_idx.clear();
        self.row_idx.resize(nnz, 0);
        self.col_val.clear();
        self.col_val.resize(nnz, 0.0);
        self.col_idx.clear();
        self.row_val.clear();
        self.fill_perm.clear();
        let mut cursor: Vec<usize> = self.col_ptr[..n].to_vec();
        for (i, c) in problem.constraints().iter().enumerate() {
            for &(j, v) in &c.coeffs {
                let at = cursor[j];
                cursor[j] += 1;
                self.row_idx[at] = i as u32;
                self.col_val[at] = v;
                self.col_idx.push(j as u32);
                self.row_val.push(v);
                self.fill_perm.push(at);
            }
        }

        self.lower.clear();
        self.lower.resize(ncols, 0.0);
        self.upper.clear();
        self.upper.resize(ncols, f64::INFINITY);
        self.cost.clear();
        self.cost.resize(ncols, 0.0);
        self.tiebreak.clear();
        self.tiebreak.extend((0..n).map(|j| 1.0 / (problem.tiebreak_id(j) as f64 + 2.0)));
        self.status.clear();
        self.status.resize(ncols, CStat::AtLower);
        self.d.clear();
        self.d.resize(ncols, 0.0);
        self.dw.clear();
        self.dw.resize(ncols, 0.0);
        self.pos_in_basis.clear();
        self.pos_in_basis.resize(ncols, NOT_BASIC);
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        for (i, c) in problem.constraints().iter().enumerate() {
            let s = self.slack_col(i);
            match c.rel {
                Relation::Le => {
                    self.lower[s] = 0.0;
                    self.upper[s] = f64::INFINITY;
                }
                Relation::Ge => {
                    self.lower[s] = f64::NEG_INFINITY;
                    self.upper[s] = 0.0;
                }
                Relation::Eq => {
                    self.lower[s] = 0.0;
                    self.upper[s] = 0.0;
                }
            }
        }
        self.work.clear();
        self.work.resize(m, 0.0);
        self.duals.clear();
        self.duals.resize(m, [0.0; 2]);
        self.col.reset(m);
        self.rho.reset(m);
        self.alpha.reset(ncols);
        self.violated.reset(m);
        self.improving.reset(ncols);
        self.changed.reset(m);
        self.x_out.clear();
        self.x_out.resize(n, 0.0);
        self.basis.clear();
        self.x_basic.clear();
        self.eta.clear(m);
        // Refactorization cadence. Every transform walks the etas appended
        // since the last rebuild one by one, while the rebuild's own etas
        // are reached through their row index — so the appended ones are
        // what a long cadence costs, and a rebuild (column singletons
        // first, sparse FTRANs) is cheap enough to come often. `64 + m/32`
        // was measured flat between 100 and 200 pivots at 2 048 and 4 096
        // rows; below ~70 rows it let a basis carry more appended etas
        // than it has rows through every BTRAN, FTRAN and reduced-cost
        // pass, so there the cadence is the row count, never below 8. On
        // the 4-principal `tick_small` community (16 rows, ~3 etas a
        // window) that took a warm window solve from ~4.7 µs to ~2.9 µs.
        // A trigger on the appended etas' entries against the rebuilt
        // file's was as fast on drifting demand at n = 4 … 512, but the
        // cold solve of the `lp` bench's n = 32 window ran out of
        // iterations under it and fell back to the dense solver.
        self.refactor_after = m.clamp(8, 64 + m / 32);
        self.shape = problem.pattern_fingerprint();
    }

    /// Syncs mutable problem data (coefficient values, bounds, rhs,
    /// objective) into the store, leaving in `changed` the basis slots
    /// whose columns changed value. Returns whether any structural
    /// bound moved (the active list may then be stale).
    fn sync_values(&mut self, problem: &Problem) -> bool {
        let mut seq = 0usize;
        for c in problem.constraints() {
            for &(j, v) in &c.coeffs {
                if self.row_val[seq].to_bits() != v.to_bits() {
                    self.row_val[seq] = v;
                    self.col_val[self.fill_perm[seq]] = v;
                    let p = self.pos_in_basis[j];
                    if p != NOT_BASIC {
                        self.changed.push(p as usize);
                    }
                }
                seq += 1;
            }
        }
        for (i, c) in problem.constraints().iter().enumerate() {
            self.rhs[i] = c.rhs;
        }
        let mut bounds_moved = false;
        for (j, ub) in problem.upper_bounds().iter().enumerate() {
            let u = match ub {
                Some(u) => u.max(0.0),
                None => f64::INFINITY,
            };
            if self.upper[j].to_bits() != u.to_bits() {
                self.upper[j] = u;
                bounds_moved = true;
            }
        }
        self.cost[..self.n_vars].copy_from_slice(problem.objective());
        bounds_moved
    }

    /// Rebuilds the active-column list (everything not fixed to a
    /// zero-width box).
    fn rebuild_active(&mut self) {
        self.active.clear();
        for j in 0..self.ncols() {
            if self.upper[j] - self.lower[j] > PTOL {
                self.active.push(j as u32);
            } else if self.pos_in_basis[j] == NOT_BASIC {
                self.status[j] = CStat::Fixed;
            }
        }
    }

    /// Scatters column `j` (structural or slack) into the cleared `out`.
    fn scatter_column(&self, j: usize, out: &mut SparseVec) {
        out.clear();
        if j < self.n_vars {
            for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.row_idx[at] as usize;
                out.touch(r);
                out.val[r] += self.col_val[at];
            }
        } else {
            out.touch(j - self.n_vars);
            out.val[j - self.n_vars] = 1.0;
        }
    }

    /// `B⁻¹ A_j` into `self.col`.
    fn ftran_column(&mut self, j: usize) {
        let mut w = std::mem::take(&mut self.col);
        self.scatter_column(j, &mut w);
        self.col = w;
        self.eta.ftran_sparse(&mut self.col);
    }

    /// Pivots structural basic `j` into the free row `r` during a rebuild,
    /// if its transformed column is large enough there; tells the peeling
    /// (`work`) which rows and columns became singletons by it.
    fn claim_row(&mut self, r: usize, j: usize, work: &mut Vec<Peel>) -> bool {
        self.ftran_column(j);
        if self.col.val[r].abs() <= PIV_TOL {
            return false;
        }
        self.eta.push_rebuilt(r, &self.col);
        self.row_free[r] = false;
        self.basis[r] = j as u32;
        let was_waiting = std::mem::replace(&mut self.col_state[j], ColState::Placed);
        // The column no longer counts in the rows it shares…
        if was_waiting == ColState::Waiting {
            self.leave_rows(j, work);
        }
        // …and the row no longer counts as free in the columns it holds.
        for at in self.row_ptr[r]..self.row_ptr[r + 1] {
            let j2 = self.col_idx[at] as usize;
            if self.col_state[j2] == ColState::Waiting {
                self.free_entries[j2] -= 1;
                if self.free_entries[j2] == 1 {
                    work.push(Peel::Col(j2 as u32));
                }
            }
        }
        true
    }

    /// Takes waiting column `j` out of the counts of its free rows.
    fn leave_rows(&mut self, j: usize, work: &mut Vec<Peel>) {
        for at in self.col_ptr[j]..self.col_ptr[j + 1] {
            let r = self.row_idx[at] as usize;
            if self.row_free[r] {
                self.row_waiting[r] -= 1;
                if self.row_waiting[r] == 1 {
                    work.push(Peel::Row(r as u32));
                }
            }
        }
    }

    /// Rebuilds the eta file from the identity (slack) basis by pivoting in
    /// every non-slack basic column. Fails on a (numerically) singular
    /// basis.
    ///
    /// The order of the pivots decides how much the etas fill in. Rows owned
    /// by basic slacks are taken from the start; the structural basics are
    /// then peeled like a triangular matrix. A column with a single entry
    /// left in the free rows pivots there (nothing to eliminate), and so
    /// does a free row with a single column left in it (no later column can
    /// trigger that eta). When neither exists, the column with the most
    /// entries in free rows is set aside — in the window LPs that is `θ`,
    /// which sits in every coverage row and would otherwise smear into every
    /// eta; without it the assignment columns form a forest and peel
    /// completely. Columns set aside go last, sparsest first, each into the
    /// free row where its transformed column is largest.
    fn refactorize(&mut self) -> Result<(), ()> {
        // The scratch lists live in the handle, so a rebuild allocates
        // nothing once they have grown to the basis.
        let mut cols = std::mem::take(&mut self.rebuild_cols);
        let mut work = std::mem::take(&mut self.peel);
        let rebuilt = self.rebuild_from(&mut cols, &mut work);
        self.rebuild_cols = cols;
        self.peel = work;
        rebuilt
    }

    /// [`Self::refactorize`] over its scratch: `cols` collects the
    /// structural basics, `work` is the peeling's singleton queue.
    fn rebuild_from(&mut self, cols: &mut Vec<u32>, work: &mut Vec<Peel>) -> Result<(), ()> {
        self.stats.refactorizations += 1;
        let m = self.m;
        self.eta.clear(m);
        self.row_free.clear();
        self.row_free.resize(m, true);
        self.col_state.clear();
        self.col_state.resize(self.n_vars, ColState::Absent);
        // At most `m` basics, and the peeling lists each of them and each
        // row at most once (a count reaches 1 once): sized once per shape.
        cols.clear();
        cols.reserve(m);
        work.clear();
        work.reserve(2 * m);
        for &c in &self.basis {
            let j = c as usize;
            if j >= self.n_vars {
                self.row_free[j - self.n_vars] = false;
            } else {
                self.col_state[j] = ColState::Waiting;
                cols.push(c);
            }
        }
        cols.sort_unstable();
        for r in 0..m {
            self.basis[r] = self.slack_col(r) as u32;
        }
        // Entries each waiting column has in free rows, and waiting columns
        // each free row holds.
        self.free_entries.clear();
        self.free_entries.resize(self.n_vars, 0);
        self.row_waiting.clear();
        self.row_waiting.resize(m, 0);
        for &c in cols.iter() {
            for at in self.col_ptr[c as usize]..self.col_ptr[c as usize + 1] {
                let r = self.row_idx[at] as usize;
                if self.row_free[r] {
                    self.free_entries[c as usize] += 1;
                    self.row_waiting[r] += 1;
                }
            }
        }
        work.extend(cols.iter().filter(|&&c| self.free_entries[c as usize] == 1).map(|&c| Peel::Col(c)));
        work.extend((0..m).filter(|&r| self.row_waiting[r] == 1).map(|r| Peel::Row(r as u32)));
        let mut waiting = cols.len();
        let mut head = 0;
        while waiting > 0 {
            let Some(&peel) = work.get(head) else {
                // Stuck: set the fullest waiting column aside.
                let Some(&spike) = cols
                    .iter()
                    .filter(|&&c| self.col_state[c as usize] == ColState::Waiting)
                    .max_by_key(|&&c| (self.free_entries[c as usize], std::cmp::Reverse(c)))
                else {
                    break;
                };
                self.col_state[spike as usize] = ColState::Aside;
                self.leave_rows(spike as usize, work);
                waiting -= 1;
                continue;
            };
            head += 1;
            // A singleton recorded earlier may have been used up since.
            let found = match peel {
                Peel::Col(j) if self.col_state[j as usize] == ColState::Waiting => {
                    (self.col_ptr[j as usize]..self.col_ptr[j as usize + 1])
                        .map(|at| self.row_idx[at] as usize)
                        .find(|&r| self.row_free[r])
                        .map(|r| (r, j as usize))
                }
                Peel::Row(r) if self.row_free[r as usize] => {
                    (self.row_ptr[r as usize]..self.row_ptr[r as usize + 1])
                        .map(|at| self.col_idx[at] as usize)
                        .find(|&j| self.col_state[j] == ColState::Waiting)
                        .map(|j| (r as usize, j))
                }
                _ => None,
            };
            if let Some((r, j)) = found {
                if self.claim_row(r, j, work) {
                    waiting -= 1;
                }
            }
        }

        // Whatever was set aside or refused its singleton pivot.
        cols.retain(|&c| self.col_state[c as usize] != ColState::Placed);
        cols.sort_by_key(|&c| {
            let j = c as usize;
            (self.col_ptr[j + 1] - self.col_ptr[j], c)
        });
        for &c in cols.iter() {
            self.ftran_column(c as usize);
            let mut best = usize::MAX;
            let mut best_abs = PIV_TOL;
            for r in self.col.positions() {
                let a = self.col.val[r].abs();
                // Largest entry; the lowest row among equals.
                if self.row_free[r] && (a > best_abs || (a >= best_abs && r < best)) {
                    best_abs = a;
                    best = r;
                }
            }
            if best == usize::MAX || !self.claim_row(best, c as usize, work) {
                return Err(());
            }
        }
        for p in self.pos_in_basis.iter_mut() {
            *p = NOT_BASIC;
        }
        for (r, &c) in self.basis.iter().enumerate() {
            self.pos_in_basis[c as usize] = r as u32;
        }
        self.eta.index_rebuilt();
        Ok(())
    }

    /// The value a nonbasic column currently sits at.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            CStat::AtUpper => self.upper[j],
            CStat::Basic => unreachable!("nonbasic_value on basic column"),
            _ => {
                if self.lower[j].is_finite() {
                    self.lower[j]
                } else {
                    0.0
                }
            }
        }
    }

    /// Recomputes basic values `x_B = B⁻¹ (b − N x_N)`.
    fn compute_x_basic(&mut self) {
        let mut w = std::mem::take(&mut self.work);
        w.copy_from_slice(&self.rhs);
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                continue;
            }
            let v = self.nonbasic_value(j);
            // Exact-zero value skip (most nonbasics sit at zero).
            if v != 0.0 { // covenant: allow(float-eq)
                if j < self.n_vars {
                    for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                        w[self.row_idx[at] as usize] -= self.col_val[at] * v;
                    }
                } else {
                    w[j - self.n_vars] -= v;
                }
            }
        }
        self.eta.ftran(&mut w);
        self.x_basic.clear();
        self.x_basic.extend_from_slice(&w);
        self.work = w;
        self.violated.reset(self.m);
        for r in 0..self.m {
            if self.violation(r) > PTOL {
                self.violated.push(r);
            }
        }
    }

    /// By how much the value in basis slot `r` is outside its bounds
    /// (negative inside).
    fn violation(&self, r: usize) -> f64 {
        let (x, b) = (self.x_basic[r], self.basis[r] as usize);
        (self.lower[b] - x).max(x - self.upper[b])
    }

    /// Recomputes, for every active column, both reduced costs: the true
    /// ones `d_j = c_j − y·A_j`, `y = B⁻ᵀ c_B`, and the tie-break ones
    /// `dw_j = w_j − yw·A_j`, `yw = B⁻ᵀ w_B` — one BTRAN of the pair and
    /// one pass over the columns.
    fn compute_reduced_costs(&mut self) {
        let mut y = std::mem::take(&mut self.duals);
        for (v, &b) in y.iter_mut().zip(&self.basis) {
            *v = [self.cost[b as usize], self.tiebreak_weight(b as usize)];
        }
        self.eta.btran_pair(&mut y);
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                self.d[j] = 0.0;
                self.dw[j] = 0.0;
                continue;
            }
            let [s, sw] = if j < self.n_vars {
                let (mut s, mut sw) = (0.0, 0.0);
                for at in self.col_ptr[j]..self.col_ptr[j + 1] {
                    let (a, [y0, y1]) = (self.col_val[at], y[self.row_idx[at] as usize]);
                    s += a * y0;
                    sw += a * y1;
                }
                [s, sw]
            } else {
                y[j - self.n_vars]
            };
            self.d[j] = self.cost[j] - s;
            self.dw[j] = self.tiebreak_weight(j) - sw;
        }
        self.duals = y;
    }

    /// Makes every nonbasic active column dual feasible, flipping to the
    /// opposite bound where the reduced-cost sign demands it. Fails when a
    /// flip target is unbounded (the dense solver must take over).
    fn repair_statuses(&mut self) -> Result<(), ()> {
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                self.status[j] = CStat::Basic;
                continue;
            }
            // A previously fixed column whose box re-opened re-enters the
            // nonbasic pool at a bound chosen by its reduced cost below.
            let mut st = self.status[j];
            if st == CStat::Basic || st == CStat::Fixed {
                st = CStat::AtLower;
            }
            // Never park on an infinite bound.
            if st == CStat::AtUpper && !self.upper[j].is_finite() {
                st = CStat::AtLower;
            }
            if st == CStat::AtLower && !self.lower[j].is_finite() {
                st = CStat::AtUpper;
            }
            let d = self.d[j];
            if st == CStat::AtLower && d > DTOL {
                if self.upper[j].is_finite() {
                    st = CStat::AtUpper;
                } else {
                    return Err(());
                }
            } else if st == CStat::AtUpper && d < -DTOL {
                if self.lower[j].is_finite() {
                    st = CStat::AtLower;
                } else {
                    return Err(());
                }
            }
            if !(match st {
                CStat::AtLower => self.lower[j].is_finite(),
                CStat::AtUpper => self.upper[j].is_finite(),
                _ => true,
            }) {
                return Err(());
            }
            self.status[j] = st;
        }
        Ok(())
    }

    /// Resets to the all-slack basis with statuses chosen by cost sign.
    fn reset_to_slack_basis(&mut self) -> Result<(), ()> {
        self.stats.cold_starts += 1;
        self.eta.clear(self.m);
        self.basis.clear();
        for r in 0..self.m {
            self.basis.push(self.slack_col(r) as u32);
        }
        for p in self.pos_in_basis.iter_mut() {
            *p = NOT_BASIC;
        }
        for (r, &c) in self.basis.iter().enumerate() {
            self.pos_in_basis[c as usize] = r as u32;
        }
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            if self.pos_in_basis[j] != NOT_BASIC {
                self.status[j] = CStat::Basic;
                continue;
            }
            // y = 0 ⇒ d_j = c_j: positive costs must start at a finite
            // upper bound, everything else at the (finite) lower bound.
            self.status[j] = if self.cost[j] > DTOL {
                if !self.upper[j].is_finite() {
                    return Err(());
                }
                CStat::AtUpper
            } else if self.lower[j].is_finite() {
                CStat::AtLower
            } else if self.upper[j].is_finite() {
                CStat::AtUpper
            } else {
                return Err(());
            };
            self.d[j] = self.cost[j];
        }
        Ok(())
    }

    /// Prices pivot row `r`: `ρ = B⁻ᵀ e_r` into `self.rho`, then
    /// `α_j = ρ·A_j` into `self.alpha` by walking the rows of `A` where `ρ`
    /// is nonzero.
    fn price_row(&mut self, r: usize) {
        self.rho.clear();
        self.rho.touch(r);
        self.rho.val[r] = 1.0;
        self.eta.btran_sparse(&mut self.rho);
        self.alpha.clear();
        for i in self.rho.positions() {
            let ri = self.rho.val[i];
            if ri == 0.0 { // covenant: allow(float-eq)
                continue;
            }
            for at in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[at] as usize;
                self.alpha.touch(j);
                self.alpha.val[j] += self.row_val[at] * ri;
            }
            let s = self.n_vars + i;
            self.alpha.touch(s);
            self.alpha.val[s] = ri;
        }
    }

    /// Swaps column `q` into basis slot `r` (its transformed column is in
    /// `self.col`), parking the leaving column at its upper or lower bound.
    fn swap_basis(&mut self, r: usize, q: usize, leaving_to_upper: bool) {
        let leaving = self.basis[r] as usize;
        self.status[leaving] = if self.upper[leaving] - self.lower[leaving] <= PTOL {
            CStat::Fixed
        } else if leaving_to_upper {
            CStat::AtUpper
        } else {
            CStat::AtLower
        };
        self.status[q] = CStat::Basic;
        self.pos_in_basis[leaving] = NOT_BASIC;
        self.pos_in_basis[q] = r as u32;
        self.basis[r] = q as u32;
        self.eta.push(r, &self.col);
        self.stats.pivots += 1;
    }

    /// The dual simplex loop: repair primal feasibility while preserving
    /// dual feasibility. Assumes `x_basic`, `d` and `dw` are current.
    /// `warm`: the basis is the previous solve's canonical one (see the
    /// degeneracy streak below).
    fn dual_simplex(&mut self, warm: bool) -> LoopResult {
        let m = self.m;
        let max_iters = 200 + 12 * (m + self.active.len());
        let mut streak = 0usize;
        let mut refactored_here = false;
        for _ in 0..max_iters {
            if self.eta.grown() > self.refactor_after {
                if self.refactorize().is_err() {
                    return LoopResult::Trouble;
                }
                self.compute_x_basic();
            }
            let bland = streak >= BLAND_AFTER;
            // Leaving row: worst bound violation, the lowest row among
            // equals (Bland: the lowest violated row).
            let mut r = usize::MAX;
            let mut worst = PTOL;
            let mut violated = std::mem::take(&mut self.violated);
            violated.retain(|i| {
                let viol = self.violation(i);
                if viol <= PTOL {
                    return false;
                }
                let better = r == usize::MAX
                    || if bland { i < r } else { viol > worst || (viol >= worst && i < r) };
                if better {
                    r = i;
                    worst = viol;
                }
                true
            });
            self.violated = violated;
            if r == usize::MAX {
                return LoopResult::Optimal;
            }
            let leaving = self.basis[r] as usize;
            // σ = +1: too high, must decrease; σ = −1: too low, must rise.
            let sigma = if self.x_basic[r] > self.upper[leaving] { 1.0 } else { -1.0 };

            self.price_row(r);

            // Dual ratio test over eligible columns, lexicographic in the
            // two objectives: the smallest |d_j/α_j|; among those within
            // 1e-12 of it the smallest s_j·dw_j/|α_j| (s = −1 at lower, +1
            // at upper: the tie-break reduced cost that reaches its bound
            // first, so the step keeps those signs too; on a cold start,
            // where those signs do not hold, every key is zero); among
            // those within 1e-12 of that the largest |α|, then the smallest
            // column id (Bland: the smallest id among those).
            let ratio_of = |this: &Self, j: usize| {
                let a = this.alpha.val[j];
                let eligible = match this.status[j] {
                    CStat::AtLower => sigma * a > PIV_TOL,
                    CStat::AtUpper => sigma * a < -PIV_TOL,
                    _ => false,
                };
                eligible.then(|| (this.d[j] / a).abs())
            };
            let least = (self.alpha.positions())
                .filter_map(|j| ratio_of(self, j))
                .fold(f64::INFINITY, f64::min);
            let tie_key = |this: &Self, j: usize| {
                let tied = ratio_of(this, j).is_some_and(|ratio| ratio < least + 1e-12);
                let s = if this.status[j] == CStat::AtLower { -1.0 } else { 1.0 };
                tied.then(|| if warm { s * this.dw[j] / this.alpha.val[j].abs() } else { 0.0 })
            };
            let least_key = (self.alpha.positions())
                .filter_map(|j| tie_key(self, j))
                .fold(f64::INFINITY, f64::min);
            let mut q = usize::MAX;
            let mut best_abs = 0.0;
            for j in self.alpha.positions() {
                if !tie_key(self, j).is_some_and(|key| key < least_key + 1e-12) {
                    continue;
                }
                let a = self.alpha.val[j].abs();
                let better = q == usize::MAX
                    || if bland { j < q } else { a > best_abs || (a >= best_abs && j < q) };
                if better {
                    q = j;
                    best_abs = a;
                }
            }
            if q == usize::MAX {
                // A violated row no entering column can fix: primal empty.
                return LoopResult::Infeasible;
            }

            // w = B⁻¹ A_q; its r-th entry is the pivot.
            self.ftran_column(q);
            let pivot = self.col.val[r];
            if pivot.abs() < PIV_TOL {
                // FTRAN disagrees with BTRAN pricing: factorization has
                // drifted. Rebuild once and retry; twice is fatal.
                if refactored_here || self.refactorize().is_err() {
                    return LoopResult::Trouble;
                }
                refactored_here = true;
                self.compute_x_basic();
                self.compute_reduced_costs();
                continue;
            }
            refactored_here = false;

            // Step: drive the leaving variable exactly to its violated
            // bound; the entering variable absorbs the difference.
            let target = if sigma > 0.0 { self.upper[leaving] } else { self.lower[leaving] };
            let delta = (self.x_basic[r] - target) / pivot;
            for i in self.col.positions() {
                self.x_basic[i] -= self.col.val[i] * delta;
                self.violated.push(i);
            }
            self.x_basic[r] = self.nonbasic_value(q) + delta;

            // Dual steps γ and γ_w zero the entering reduced costs; columns
            // the pivot row misses keep theirs.
            let gamma = self.d[q] / self.alpha.val[q];
            let gamma_w = self.dw[q] / self.alpha.val[q];
            for j in self.alpha.positions() {
                if matches!(self.status[j], CStat::AtLower | CStat::AtUpper) {
                    self.d[j] -= gamma * self.alpha.val[j];
                    self.dw[j] -= gamma_w * self.alpha.val[j];
                }
            }
            self.d[q] = 0.0;
            self.dw[q] = 0.0;
            self.d[leaving] = -gamma;
            self.dw[leaving] = -gamma_w;
            self.swap_basis(r, q, sigma > 0.0);

            // Degeneracy streak: the dual objective moves by |γ|·|violation|,
            // the tie-break one by |γ_w|·|violation|. The second counts as
            // progress only from a warm start: the previous canonical basis
            // is (up to the window's drift) dual feasible for the tie-break
            // objective too, so that objective only ever moves one way. From
            // the slack basis, where it is not, it can move both ways and
            // proves nothing against cycling.
            let moved = if warm { gamma.abs().max(gamma_w.abs()) } else { gamma.abs() };
            if moved * worst > 1e-12 {
                streak = 0;
            } else {
                streak = streak.saturating_add(1);
            }
        }
        LoopResult::Trouble
    }

    /// Deterministic tie-break weight of column `j`: positive, strictly
    /// decreasing in the column's tie-break id, generic enough that the
    /// weighted optimum over an optimal face is (generically) unique. Slack
    /// columns carry no weight — canonicalization orients *structural*
    /// variables.
    fn tiebreak_weight(&self, j: usize) -> f64 {
        self.tiebreak.get(j).copied().unwrap_or(0.0)
    }

    /// Walks the optimal face to its canonical vertex.
    ///
    /// The dual phase stops at *some* vertex of the optimal face, and
    /// which one depends on the starting basis — i.e. on solve history.
    /// Distributed enforcement needs the plan to be a function of the
    /// problem alone: every redirector solves the same global window LP
    /// and releases its own share of the plan, so two redirectors whose
    /// warm bases evolved differently must not land on different
    /// (mirror-image) optimal assignments, or their combined releases
    /// overload one server while another idles. The cold dense solver had
    /// this history independence for free; this pass restores it for the
    /// warm engine. Holding the true objective at its optimum — only
    /// columns whose true reduced cost is zero may enter, so every step
    /// stays on the optimal face — it maximizes a fixed generic secondary
    /// weight with primal simplex steps. The endpoint, the weight-maximal
    /// vertex of the face, is unique for generic weights and therefore
    /// independent of whichever optimal basis the dual phase reached.
    ///
    /// The dual phase already breaks its ties by the same weight, so from
    /// a canonical warm start it ends on the canonical vertex and this walk
    /// finds nothing to improve; it stays as the guarantee.
    ///
    /// Errors when a refactorization fails (basis left unusable), and when
    /// the walk hits its iteration cap or a non-finite step: the point is
    /// then optimal but not canonical, and returning it would hand two
    /// redirectors the mirror vertices the walk exists to rule out. The
    /// caller falls back to a cold start, then to the dense solver.
    fn canonicalize(&mut self) -> Result<(), ()> {
        let m = self.m;
        // The face: nonbasic columns whose true reduced cost `d` is zero.
        // Their tie-break reduced costs `dw` came along the dual phase's
        // pivot rows, and are carried from vertex to vertex here the same
        // way. A column entering at zero true reduced cost does not move
        // the true duals, so the face only ever gains the columns that
        // leave the basis.
        self.improving.clear();
        for k in 0..self.active.len() {
            let j = self.active[k] as usize;
            let nonbasic = matches!(self.status[j], CStat::AtLower | CStat::AtUpper);
            if nonbasic && self.d[j].abs() <= FACE_TOL {
                self.improving.push(j);
            }
        }

        let max_iters = 100 + 4 * (m + self.active.len());
        let mut streak = 0usize;
        for _ in 0..max_iters {
            if self.eta.grown() > self.refactor_after {
                self.refactorize()?;
                self.compute_x_basic();
            }
            // Entering column: largest tie-break improvement on the face,
            // the smallest id among equals (Bland: the smallest improving
            // id).
            let bland = streak >= BLAND_AFTER;
            let mut q = usize::MAX;
            let mut best = WTOL;
            let mut improving = std::mem::take(&mut self.improving);
            improving.retain(|j| {
                let dw = self.dw[j];
                let improves = match self.status[j] {
                    CStat::AtLower => dw > WTOL,
                    CStat::AtUpper => dw < -WTOL,
                    _ => false,
                };
                if !improves || self.d[j].abs() > FACE_TOL {
                    return false;
                }
                let better = q == usize::MAX
                    || if bland { j < q } else { dw.abs() > best || (dw.abs() >= best && j < q) };
                if better {
                    q = j;
                    best = dw.abs();
                }
                true
            });
            self.improving = improving;
            if q == usize::MAX {
                return Ok(());
            }
            let q_dw = self.dw[q];
            // Direction sign: entering rises off its lower bound or falls
            // off its upper bound.
            let s = if self.status[q] == CStat::AtLower { 1.0 } else { -1.0 };

            self.ftran_column(q);

            // Bounded ratio test: the entering column moves by t ≥ 0,
            // basic i by −s·w[i]·t, and the first bound hit wins — the
            // entering column's own opposite bound unless a basic hits its
            // bound sooner by more than 1e-12; among the basics within
            // 1e-12 of the soonest, the largest pivot, then the lowest row.
            let limit_of = |this: &Self, i: usize| {
                let step = s * this.col.val[i];
                let b = this.basis[i] as usize;
                if step > PIV_TOL && this.lower[b].is_finite() {
                    Some((((this.x_basic[i] - this.lower[b]) / step).max(0.0), false))
                } else if step < -PIV_TOL && this.upper[b].is_finite() {
                    Some((((this.upper[b] - this.x_basic[i]) / (-step)).max(0.0), true))
                } else {
                    None
                }
            };
            let soonest = (self.col.positions())
                .filter_map(|i| limit_of(self, i))
                .fold(f64::INFINITY, |least, (limit, _)| least.min(limit));
            let mut t = self.upper[q] - self.lower[q]; // own bound flip
            let mut leave = usize::MAX;
            let mut leave_up = false;
            let mut best_piv = 0.0;
            if soonest < t - 1e-12 {
                for i in self.col.positions() {
                    let Some((limit, up)) = limit_of(self, i).filter(|l| l.0 < soonest + 1e-12)
                    else {
                        continue;
                    };
                    let piv = self.col.val[i].abs();
                    if leave == usize::MAX || piv > best_piv || (piv >= best_piv && i < leave) {
                        t = limit;
                        leave = i;
                        leave_up = up;
                        best_piv = piv;
                    }
                }
            }
            if !t.is_finite() {
                // Numerically unbounded tie-break direction (cannot happen
                // with boxed structural columns).
                return Err(());
            }

            if leave == usize::MAX {
                // Bound flip: the entering column crosses its own box; the
                // basis, and with it every reduced cost, is unchanged.
                for i in self.col.positions() {
                    self.x_basic[i] -= s * self.col.val[i] * t;
                }
                self.status[q] = if s > 0.0 { CStat::AtUpper } else { CStat::AtLower };
            } else {
                let pivot = self.col.val[leave];
                if pivot.abs() < PIV_TOL {
                    self.refactorize()?;
                    self.compute_x_basic();
                    continue;
                }
                let leaving = self.basis[leave] as usize;
                for i in self.col.positions() {
                    self.x_basic[i] -= s * self.col.val[i] * t;
                }
                self.x_basic[leave] = self.nonbasic_value(q) + s * t;
                // Both sets of reduced costs move along the pivot row.
                self.price_row(leave);
                let (gamma, gamma_w) = (self.d[q] / pivot, q_dw / pivot);
                for j in self.alpha.positions() {
                    if matches!(self.status[j], CStat::AtLower | CStat::AtUpper) {
                        self.d[j] -= gamma * self.alpha.val[j];
                        self.dw[j] -= gamma_w * self.alpha.val[j];
                        self.improving.push(j);
                    }
                }
                self.d[q] = 0.0;
                self.dw[q] = 0.0;
                self.d[leaving] = -gamma;
                self.dw[leaving] = -gamma_w;
                self.swap_basis(leave, q, leave_up);
                self.stats.face_pivots += 1;
                self.improving.push(leaving);
            }

            // Progress is tie-break-objective gain; degenerate steps feed
            // the anti-cycling streak.
            if q_dw.abs() * t > 1e-12 {
                streak = 0;
            } else {
                streak = streak.saturating_add(1);
            }
        }
        Err(())
    }

    /// Extracts the structural solution and objective.
    fn extract(&mut self, problem: &Problem) {
        for j in 0..self.n_vars {
            let p = self.pos_in_basis[j];
            let v = if p != NOT_BASIC {
                self.x_basic[p as usize]
            } else {
                self.nonbasic_value(j)
            };
            self.x_out[j] = v.max(0.0);
        }
        self.objective = problem.objective_at(&self.x_out);
    }

    /// One full attempt from the current basis, `warm` when that is the
    /// previous solve's. `x_basic`, `d` and `dw` must not be assumed
    /// current; they are recomputed here.
    fn attempt(&mut self, problem: &Problem, warm: bool) -> LoopResult {
        self.compute_reduced_costs();
        if self.repair_statuses().is_err() {
            return LoopResult::Trouble;
        }
        self.compute_x_basic();
        let out = self.dual_simplex(warm);
        if let LoopResult::Optimal = out {
            if self.canonicalize().is_err() {
                return LoopResult::Trouble;
            }
            self.extract(problem);
            if !problem.is_feasible(&self.x_out, VERIFY_TOL) {
                return LoopResult::Trouble;
            }
        }
        out
    }

    /// Cold path: rebuild nothing but the basis — reset to slacks and solve.
    fn cold_attempt(&mut self, problem: &Problem) -> WarmOutcome {
        if self.reset_to_slack_basis().is_err() {
            self.shape = 0; // force rebuild next time
            return WarmOutcome::Unsuitable;
        }
        match self.attempt(problem, false) {
            LoopResult::Optimal => WarmOutcome::Optimal,
            LoopResult::Infeasible => WarmOutcome::Infeasible,
            LoopResult::Trouble => {
                self.shape = 0;
                WarmOutcome::Unsuitable
            }
        }
    }

    /// Solves `problem` through this handle. See [`Problem::solve_warm`].
    pub(crate) fn solve(&mut self, problem: &Problem) -> WarmOutcome {
        self.stats.solves += 1;
        if self.shape != problem.pattern_fingerprint() {
            self.rebuild_store(problem);
            self.sync_values(problem);
            self.rebuild_active();
            return self.cold_attempt(problem);
        }

        if self.sync_values(problem) {
            self.rebuild_active();
        }
        if self.basis.is_empty() {
            return self.cold_attempt(problem);
        }

        // Rank-one basis updates for changed basic columns (the θ column,
        // most windows); a near-singular replacement forces a rebuild.
        let mut need_refactor = false;
        for at in 0..self.changed.items.len() {
            let p = self.changed.items[at] as usize;
            self.ftran_column(self.basis[p] as usize);
            if self.col.val[p].abs() < PIV_TOL {
                need_refactor = true;
                break;
            }
            self.eta.push(p, &self.col);
        }
        self.changed.clear();
        if need_refactor && self.refactorize().is_err() {
            return self.cold_attempt(problem);
        }

        self.stats.warm_solves += 1;
        match self.attempt(problem, true) {
            LoopResult::Optimal => WarmOutcome::Optimal,
            // Dual-simplex infeasibility proofs are exact in exact
            // arithmetic but tolerance-based here; confirm from a clean
            // start before reporting an empty feasible region.
            LoopResult::Infeasible => self.cold_attempt(problem),
            LoopResult::Trouble => self.cold_attempt(problem),
        }
    }
}

impl Problem {
    /// Solves through a persistent [`WarmBasis`]: a warm-started dual
    /// simplex over sparse columns when the handle already holds this
    /// problem shape's basis, a cold (all-slack-basis) dual simplex
    /// otherwise. On [`WarmOutcome::Optimal`] the solution is read from
    /// [`WarmBasis::x`] / [`WarmBasis::objective_value`] without
    /// allocating. [`WarmOutcome::Unsuitable`] means this engine cannot
    /// solve the problem (e.g. a positive-cost variable with no upper
    /// bound makes the slack basis dual infeasible) — use
    /// [`Problem::solve_in_place`] instead.
    pub fn solve_warm(&self, warm: &mut WarmBasis) -> WarmOutcome {
        warm.solve(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpOutcome, Relation};

    fn assert_matches_reference(p: &Problem, warm: &mut WarmBasis) {
        let out = p.solve_warm(warm);
        match p.solve_reference() {
            LpOutcome::Optimal(s) => {
                assert_eq!(out, WarmOutcome::Optimal, "reference optimal {}", s.objective);
                assert!(
                    (warm.objective_value() - s.objective).abs() < 1e-6,
                    "warm {} vs reference {}",
                    warm.objective_value(),
                    s.objective
                );
                assert!(p.is_feasible(warm.x(), 1e-6));
            }
            LpOutcome::Infeasible => assert_eq!(out, WarmOutcome::Infeasible),
            other => panic!("reference returned {other:?}"),
        }
    }

    #[test]
    fn basic_two_var_max() {
        let mut p = Problem::new(2);
        p.set_objective(vec![3.0, 2.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        p.set_upper_bound(0, 10.0);
        p.set_upper_bound(1, 10.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() - 12.0).abs() < 1e-9);
        assert!((warm.x()[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ge_and_eq_constraints() {
        let mut p = Problem::new(2);
        p.set_objective(vec![-1.0, -1.0]);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Eq, 0.5);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() + 2.0).abs() < 1e-9);
        assert!((warm.x()[0] - 0.5).abs() < 1e-9);
        assert!((warm.x()[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_no_normalization_needed() {
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, -1.0);
        p.set_upper_bound(0, 50.0);
        p.set_upper_bound(1, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.x()[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(1);
        p.set_objective(vec![-1.0]);
        p.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        p.add_constraint(vec![(0, 1.0)], Relation::Le, 3.0);
        assert_eq!(p.solve_warm(&mut WarmBasis::new()), WarmOutcome::Infeasible);
    }

    #[test]
    fn unbounded_is_unsuitable() {
        // max x with x free above: the slack basis cannot be made dual
        // feasible, so the engine hands off to the dense solver.
        let mut p = Problem::new(2);
        p.set_objective(vec![1.0, 0.0]);
        p.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert_eq!(p.solve_warm(&mut WarmBasis::new()), WarmOutcome::Unsuitable);
    }

    #[test]
    fn unfinished_face_walk_is_unsuitable() {
        // x is optimal anywhere in [0, ∞), and the tie-break weight pulls
        // it up without end: the face walk cannot reach a canonical vertex,
        // so the engine must not claim the history-dependent x = 0 as one.
        let mut p = Problem::new(1);
        p.set_objective(vec![0.0]);
        assert_eq!(p.solve_warm(&mut WarmBasis::new()), WarmOutcome::Unsuitable);
    }

    #[test]
    fn bounded_by_upper_bounds_only() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 2.0, 3.0]);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 2.0);
        p.set_upper_bound(2, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.x(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn zero_variable_problems() {
        let p = Problem::new(0);
        let mut warm = WarmBasis::new();
        assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Optimal);
        assert_eq!(warm.objective_value(), 0.0);
        let mut p = Problem::new(0);
        p.add_constraint(vec![], Relation::Ge, 1.0);
        assert_eq!(p.solve_warm(&mut warm), WarmOutcome::Infeasible);
    }

    #[test]
    fn community_theta_shape() {
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 0.0, 0.0]);
        p.set_upper_bound(0, 1.0);
        p.add_constraint(vec![(1, 1.0), (0, -40.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(2, 1.0), (0, -20.0)], Relation::Ge, 0.0);
        p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
        p.set_upper_bound(1, 40.0);
        p.set_upper_bound(2, 20.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.x()[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warm_resolve_after_rhs_change_reuses_basis() {
        // A θ-style program whose rhs and θ-coefficients drift per window.
        let build = |q: [f64; 2]| {
            let mut p = Problem::new(3);
            p.set_objective(vec![1.0, 0.0, 0.0]);
            p.set_upper_bound(0, 1.0);
            p.add_constraint(vec![(0, -q[0]), (1, 1.0)], Relation::Ge, 0.0);
            p.add_constraint(vec![(0, -q[1]), (2, 1.0)], Relation::Ge, 0.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 30.0);
            p.add_constraint(vec![(1, 1.0)], Relation::Le, q[0]);
            p.add_constraint(vec![(2, 1.0)], Relation::Le, q[1]);
            p.set_upper_bound(1, 40.0);
            p.set_upper_bound(2, 20.0);
            p
        };
        let mut warm = WarmBasis::new();
        let windows = [[40.0, 20.0], [41.0, 19.5], [39.0, 21.0], [45.0, 18.0], [40.0, 20.0]];
        for q in windows {
            assert_matches_reference(&build(q), &mut warm);
        }
        let stats = warm.stats();
        assert_eq!(stats.solves, 5);
        assert!(stats.warm_solves >= 4, "stats {stats:?}");
        assert_eq!(stats.cold_starts, 1);
    }

    #[test]
    fn optimal_vertex_is_history_independent() {
        // A mirror-symmetric window LP: two principals, two equal servers,
        // pure-θ objective. The optimal face is fat (any split of each
        // principal across the servers achieves θ*), so without the
        // canonicalization pass the returned vertex depends on the basis
        // the dual phase started from. Distributed enforcement requires
        // the plan to be a function of the problem alone: handles with
        // different solve histories must agree on the same vertex.
        // Columns: θ, x_A1, x_A2, x_B1, x_B2.
        let build = |q: [f64; 2]| {
            let mut p = Problem::new(5);
            p.set_objective(vec![1.0, 0.0, 0.0, 0.0, 0.0]);
            p.set_upper_bound(0, 1.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0), (0, -q[0])], Relation::Ge, 0.0);
            p.add_constraint(vec![(3, 1.0), (4, 1.0), (0, -q[1])], Relation::Ge, 0.0);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, q[0]);
            p.add_constraint(vec![(3, 1.0), (4, 1.0)], Relation::Le, q[1]);
            p.add_constraint(vec![(1, 1.0), (3, 1.0)], Relation::Le, 16.0);
            p.add_constraint(vec![(2, 1.0), (4, 1.0)], Relation::Le, 16.0);
            for j in 1..5 {
                p.set_upper_bound(j, 16.0);
            }
            p
        };
        // Two handles with deliberately different warm histories.
        let mut warm_a = WarmBasis::new();
        let mut warm_b = WarmBasis::new();
        for q in [[90.0, 84.0], [94.75, 84.0], [89.5, 90.5]] {
            assert_eq!(build(q).solve_warm(&mut warm_a), WarmOutcome::Optimal);
        }
        for q in [[30.0, 69.0], [70.0, 84.0], [89.5, 69.0], [70.0, 30.0]] {
            assert_eq!(build(q).solve_warm(&mut warm_b), WarmOutcome::Optimal);
        }
        let p = build([90.0, 90.0]);
        assert_eq!(p.solve_warm(&mut warm_a), WarmOutcome::Optimal);
        assert_eq!(p.solve_warm(&mut warm_b), WarmOutcome::Optimal);
        for j in 0..5 {
            assert!(
                (warm_a.x()[j] - warm_b.x()[j]).abs() < 1e-8,
                "histories disagree at {j}: {:?} vs {:?}",
                warm_a.x(),
                warm_b.x()
            );
        }
        // Re-solving the identical problem must be a fixpoint: same
        // vertex, and no pivots at all (the canonical vertex prices out).
        let x_prev = warm_a.x().to_vec();
        let pivots_prev = warm_a.stats().pivots;
        assert_eq!(p.solve_warm(&mut warm_a), WarmOutcome::Optimal);
        assert_eq!(warm_a.x(), &x_prev[..]);
        assert_eq!(warm_a.stats().pivots, pivots_prev);
    }

    #[test]
    fn shape_change_triggers_cold_restart() {
        let mut p1 = Problem::new(2);
        p1.set_objective(vec![1.0, 1.0]);
        p1.set_upper_bound(0, 5.0);
        p1.set_upper_bound(1, 5.0);
        p1.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        let mut p2 = Problem::new(3);
        p2.set_objective(vec![1.0, 1.0, 1.0]);
        for j in 0..3 {
            p2.set_upper_bound(j, 5.0);
        }
        p2.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 6.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p1, &mut warm);
        assert_matches_reference(&p2, &mut warm);
        assert_matches_reference(&p1, &mut warm);
        assert_eq!(warm.stats().cold_starts, 3);
        assert_eq!(warm.stats().warm_solves, 0);
    }

    #[test]
    fn fixed_columns_stay_out_of_the_basis() {
        // Middle variable boxed to zero: it must never enter.
        let mut p = Problem::new(3);
        p.set_objective(vec![1.0, 5.0, 1.0]);
        p.set_upper_bound(0, 2.0);
        p.set_upper_bound(1, 0.0);
        p.set_upper_bound(2, 2.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 3.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert_eq!(warm.x()[1], 0.0);
        assert!((warm.objective_value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bound_widening_reactivates_fixed_columns() {
        // Provider-style: a queue going 0 → positive re-opens the box.
        let build = |q: f64| {
            let mut p = Problem::new(2);
            p.set_objective(vec![2.0, 1.0]);
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 10.0);
            p.set_upper_bound_exact(0, 8.0);
            p.set_upper_bound_exact(1, q);
            p
        };
        let mut warm = WarmBasis::new();
        for q in [0.0, 0.0, 6.0, 3.0, 0.0, 6.0] {
            assert_matches_reference(&build(q), &mut warm);
        }
    }

    #[test]
    fn degenerate_beale_with_boxes() {
        // Beale's cycling example, boxed so the dual engine can start.
        let mut p = Problem::new(4);
        p.set_objective(vec![0.75, -150.0, 0.02, -6.0]);
        for j in 0..4 {
            p.set_upper_bound(j, 100.0);
        }
        p.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], Relation::Le, 0.0);
        p.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], Relation::Le, 0.0);
        p.add_constraint(vec![(2, 1.0)], Relation::Le, 1.0);
        let mut warm = WarmBasis::new();
        assert_matches_reference(&p, &mut warm);
        assert!((warm.objective_value() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn many_windows_force_refactorization() {
        // Enough drifting windows to exceed the eta budget several times.
        let build = |t: f64| {
            let mut p = Problem::new(4);
            p.set_objective(vec![1.0, 2.0, 3.0, 4.0]);
            for j in 0..4 {
                p.set_upper_bound(j, 5.0 + (j as f64));
            }
            p.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0 + t);
            p.add_constraint(vec![(1, 1.0), (2, 1.0)], Relation::Le, 5.0 - t * 0.5);
            p.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Le, 6.0 + t * 0.25);
            p.add_constraint(vec![(0, 1.0), (3, 1.0)], Relation::Ge, 1.0 + t * 0.1);
            p
        };
        let mut warm = WarmBasis::new();
        for w in 0..400 {
            let t = (w % 7) as f64 * 0.37;
            assert_matches_reference(&build(t), &mut warm);
        }
        assert!(warm.stats().warm_solves > 300);
    }
}
