//! Transitive flow computation (paper Figure 5, Formulae 1–2).
//!
//! `MI_ji` — the mandatory resource flow from principal `j`'s physical
//! capacity into principal `i`'s currency — is the sum over all *simple*
//! paths `j → k_1 → … → i` of `V_j · lb(j,k_1) · lb(k_1,k_2) ⋯ lb(k_{r}, i)`:
//! mandatory value flows along mandatory tickets only.
//!
//! `OI_ji` — the optional flow — captures paths where mandatory value
//! travels some prefix of the path via mandatory tickets, crosses *one*
//! optional ticket (the `ub − lb` slice), and continues via agreement upper
//! bounds thereafter: for a path with edges `e_1 … e_m`,
//! `Σ_{r=0}^{m-1} (Π_{s≤r} lb_s) · (ub_{r+1} − lb_{r+1}) · (Π_{s>r+1} ub_s)`.
//!
//! Both sums exclude paths revisiting a node (the paper's summation
//! constraints `k_p ≠ k_q, k ≠ i, j`), so cyclic agreement graphs are safe.
//! Because `MI_ji = V_j × MT_ji` and `OI_ji = V_j × OT_ji`, the `MT`/`OT`
//! coefficients are precomputed once per graph shape and reused as
//! capacities fluctuate. They are kept sparse: row `j` holds only the
//! principals some path from `j` reaches.
//!
//! # Computation
//!
//! Extending a path by one agreement `[lb, ub]` maps its pair of partial
//! sums linearly, `(mand, opt) → (mand·lb, opt·ub + mand·(ub − lb))`, so
//! paths that end at the same principal having visited the same set can
//! be summed before they are extended. A simple path never returns to a
//! strongly connected component (SCC) it has left, so from each source the
//! SCCs are taken in topological order of the condensation: the sums
//! entering an SCC are carried across the DAG edge by edge, and only
//! inside an SCC of two or more principals does a DP over (visited set,
//! principal) run, seeded with what entered it. A tree or DAG of
//! agreements — the paper's hierarchical case — costs `O(E)` per source.
//! A single path's coefficient is computed edge by edge from the source,
//! so it is the product the paper writes, rounded the same way; a pair
//! reached along several paths sums them in the DP's order.
//!
//! # Complexity
//!
//! Per source, `O(E)` plus, per SCC of `k` principals, `O(2^k · k · deg)`
//! time — exponential in the largest SCC, not in `n`. Exact sums are not
//! to be had in polynomial time in general: they are weighted sums over
//! the simple paths, and counting simple `s`–`t` paths is #P-complete
//! (Valiant, "The complexity of enumeration and reliability problems",
//! SIAM J. Comput. 8(3), 1979). The DP keeps only the (visited set,
//! principal) states some path reaches, so a sparse SCC — a long ring of
//! agreements — costs what its few paths cost, while a complete SCC of
//! `k` reaches all `(k − 1) · 2^(k−2) + 1` states from each source that
//! enters it at one principal.

use crate::{AgreementGraph, PrincipalId};
use serde::{Deserialize, Serialize};

/// Precomputed flow coefficients for an agreement graph, one sparse row per
/// source.
///
/// Row `j` lists `(i, MT_ji, OT_ji)` for every principal `i` that a path
/// from `j` reaches with a non-zero coefficient, `i` ascending:
/// `MI_ji = V_j × MT_ji` and `OI_ji = V_j × OT_ji`. The diagonal
/// `(j, 1, 0)` is always present (a principal's own capacity flows to
/// itself entirely and mandatorily); an absent pair reads 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowMatrices {
    n: usize,
    /// Row `j` is `entries[starts[j]..starts[j + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(usize, f64, f64)>,
    /// `Σ_k lb_ik` per principal: the fraction of `i`'s currency leaked out
    /// via mandatory tickets.
    out_fraction: Vec<f64>,
    /// Each principal's strongly connected component.
    component: Vec<usize>,
}

impl FlowMatrices {
    /// Computes the coefficients of `graph`.
    pub fn compute(graph: &AgreementGraph) -> Self {
        Closure::new(graph).matrices(graph)
    }

    /// Number of principals.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the graph had no principals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Row `j`: `(i, MT_ji, OT_ji)` for every principal `i` reached from
    /// `j`, `i` ascending, the diagonal included.
    #[inline]
    pub fn row(&self, j: PrincipalId) -> &[(usize, f64, f64)] {
        &self.entries[self.starts[j.0]..self.starts[j.0 + 1]]
    }

    fn entry(&self, j: PrincipalId, i: PrincipalId) -> Option<&(usize, f64, f64)> {
        let row = self.row(j);
        row.binary_search_by_key(&i.0, |e| e.0).ok().map(|at| &row[at])
    }

    /// Capacity-independent mandatory coefficient `MT_ji` (flow from `j`'s
    /// physical resource into `i`'s currency, per unit of `V_j`).
    #[inline]
    pub fn mt(&self, j: PrincipalId, i: PrincipalId) -> f64 {
        self.entry(j, i).map_or(0.0, |e| e.1)
    }

    /// Capacity-independent optional coefficient `OT_ji`.
    #[inline]
    pub fn ot(&self, j: PrincipalId, i: PrincipalId) -> f64 {
        self.entry(j, i).map_or(0.0, |e| e.2)
    }

    /// The mandatory leak-out fraction `Σ_k lb_ik` of principal `i`.
    #[inline]
    pub fn out_fraction(&self, i: PrincipalId) -> f64 {
        self.out_fraction[i.0]
    }

    /// Each principal's strongly connected component of the agreement
    /// graph — the decomposition the closure ran on — numbered in
    /// topological order of the condensation: every agreement stays in
    /// its issuer's component or goes to a later one.
    #[inline]
    pub fn components(&self) -> &[usize] {
        &self.component
    }

    /// Per principal `i`, for concrete capacities `v`: the real mandatory
    /// value of its currency `Σ_j V_j × MT_ji = V_i + Σ_{j≠i} MI_ji` (before
    /// excluding outbound leaks; in Figure 3 this is 1900 for `B`), and its
    /// optional in-flow `Σ_j OI_ji`. Both sums run in `j` order.
    pub fn inflows(&self, v: &[f64]) -> Vec<(f64, f64)> {
        let mut sums = vec![(0.0, 0.0); self.n];
        for (j, &vj) in v.iter().enumerate().take(self.n) {
            for &(i, mt, ot) in self.row(PrincipalId(j)) {
                sums[i].0 += vj * mt;
                sums[i].1 += vj * ot;
            }
        }
        sums
    }
}

/// Extends a path's `(mand, opt)` sums over one agreement `[lb, ub]`:
/// mandatory value continues at `lb`; optional value is what was already
/// optional, continuing at `ub`, plus the mandatory value switching to the
/// `ub − lb` slice here.
#[inline]
fn extend([mand, opt]: [f64; 2], lb: f64, ub: f64) -> [f64; 2] {
    [mand * lb, opt * ub + mand * (ub - lb)]
}

#[inline]
fn add(into: &mut [f64; 2], x: [f64; 2]) {
    into[0] += x[0];
    into[1] += x[1];
}

/// Strongly connected components of the graph whose out-edges from `v`
/// are `edges[start[v]..start[v + 1]]` (Tarjan's algorithm, iteratively),
/// numbered in topological order of the condensation: every edge stays in
/// its component or goes to a later one.
fn components(start: &[usize], edges: &[(usize, f64, f64)]) -> Vec<usize> {
    const NONE: usize = usize::MAX;
    let n = start.len() - 1;
    let (mut index, mut low, mut comp) = (vec![NONE; n], vec![0; n], vec![NONE; n]);
    let (mut stack, mut call) = (Vec::new(), Vec::new());
    let (mut next, mut found) = (0, 0);
    for root in 0..n {
        if index[root] != NONE {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        call.push((root, start[root]));
        while let Some(top) = call.last_mut() {
            let v = top.0;
            let edge = (top.1 < start[v + 1]).then(|| edges[top.1].0);
            top.1 += 1;
            match edge {
                Some(w) if index[w] == NONE => {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    call.push((w, start[w]));
                }
                Some(w) => {
                    // Visited and not yet in a component: still on the stack.
                    if comp[w] == NONE {
                        low[v] = low[v].min(index[w]);
                    }
                }
                None => {
                    call.pop();
                    if let Some(&(u, _)) = call.last() {
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        while let Some(w) = stack.pop() {
                            comp[w] = found;
                            if w == v {
                                break;
                            }
                        }
                        found += 1;
                    }
                }
            }
        }
    }
    // Tarjan closes sink components first.
    comp.into_iter().map(|c| found - 1 - c).collect()
}

/// The closure engine: the graph split by SCC, and per-source scratch.
struct Closure {
    n: usize,
    comp: Vec<usize>,
    /// The members of component `c`, ascending, are
    /// `members[member_start[c]..member_start[c + 1]]`.
    members: Vec<usize>,
    member_start: Vec<usize>,
    /// Principal `v`'s agreements, each part in agreement order:
    /// `edges[edge_start[v]..split[v]]` stay in its component, as
    /// `(holder slot, lb, ub)` — a slot is a principal's position among its
    /// component's members — and `edges[split[v]..edge_start[v + 1]]` leave
    /// it, as `(holder, lb, ub)`.
    edges: Vec<(usize, f64, f64)>,
    edge_start: Vec<usize>,
    split: Vec<usize>,
    /// `sums[i]`: the `(mand, opt)` sums of the paths from the current
    /// source that end at `i` — entering `i`'s component until it is
    /// processed, every such path afterwards.
    sums: Vec<[f64; 2]>,
    seen: Vec<bool>,
    reached: Vec<usize>,
    todo: Vec<usize>,
    /// The DP's visited sets, in the order they are first reached: each
    /// one's principals (`words` u64s a set) in `masks` and its last
    /// state in `heads`; an open-addressing index of the sets (entry
    /// `set + 1`, 0 when empty); and the visited set being looked up.
    masks: Vec<u64>,
    heads: Vec<usize>,
    index: Vec<usize>,
    key: Vec<u64>,
    /// The DP's states: each one's sums in `table`, and its slot and the
    /// state before it in its set (`NONE` for the first) in `links`.
    table: Vec<[f64; 2]>,
    links: Vec<(usize, usize)>,
    /// The sums the set being read sends to each slot, the slots it sends
    /// to, in the order first sent, and a flag per slot marking them.
    acc: Vec<[f64; 2]>,
    sent: Vec<usize>,
    sending: Vec<bool>,
}

impl Closure {
    fn new(graph: &AgreementGraph) -> Closure {
        let n = graph.len();
        let mut edge_start = vec![0; n + 1];
        for a in graph.agreements() {
            edge_start[a.issuer.0 + 1] += 1;
        }
        for i in 0..n {
            edge_start[i + 1] += edge_start[i];
        }
        let mut edges = vec![(0, 0.0, 0.0); edge_start[n]];
        let mut split = edge_start[..n].to_vec();
        for a in graph.agreements() {
            let at = &mut split[a.issuer.0];
            edges[*at] = (a.holder.0, a.lb.get(), a.ub.get());
            *at += 1;
        }
        let comp = components(&edge_start, &edges);

        let count = comp.iter().max().map_or(0, |c| c + 1);
        let mut member_start = vec![0; count + 1];
        for &c in &comp {
            member_start[c + 1] += 1;
        }
        for c in 0..count {
            member_start[c + 1] += member_start[c];
        }
        let (mut members, mut slot) = (vec![0; n], vec![0; n]);
        // `split` is free until the agreements are split below.
        split[..count].copy_from_slice(&member_start[..count]);
        for (i, &c) in comp.iter().enumerate() {
            slot[i] = split[c] - member_start[c];
            members[split[c]] = i;
            split[c] += 1;
        }
        for i in 0..n {
            let mine = &mut edges[edge_start[i]..edge_start[i + 1]];
            mine.sort_by_key(|e| comp[e.0] != comp[i]);
            let stay = mine.iter().take_while(|e| comp[e.0] == comp[i]).count();
            for e in &mut mine[..stay] {
                e.0 = slot[e.0];
            }
            split[i] = edge_start[i] + stay;
        }
        Closure {
            n,
            comp,
            members,
            member_start,
            edges,
            edge_start,
            split,
            sums: vec![[0.0; 2]; n],
            seen: vec![false; n],
            reached: Vec::new(),
            todo: Vec::new(),
            masks: Vec::new(),
            heads: Vec::new(),
            index: Vec::new(),
            key: Vec::new(),
            table: Vec::new(),
            links: Vec::new(),
            acc: Vec::new(),
            sent: Vec::new(),
            sending: Vec::new(),
        }
    }

    fn matrices(mut self, graph: &AgreementGraph) -> FlowMatrices {
        let mut starts = Vec::with_capacity(self.n + 1);
        let mut entries = Vec::new();
        starts.push(0);
        for s in 0..self.n {
            self.source(s, &mut entries);
            starts.push(entries.len());
        }
        let out_fraction = graph.mandatory_out_fractions();
        FlowMatrices { n: self.n, starts, entries, out_fraction, component: self.comp }
    }

    /// Appends row `s`: every path from `s`, component by component.
    fn source(&mut self, s: usize, row: &mut Vec<(usize, f64, f64)>) {
        self.reached.clear();
        self.todo.clear();
        self.reach(s);
        let mut at = 0;
        while let Some(&v) = self.reached.get(at) {
            at += 1;
            for e in self.split[v]..self.edge_start[v + 1] {
                self.reach(self.edges[e].0);
            }
        }
        self.todo.sort_unstable();

        self.sums[s] = [1.0, 0.0];
        for t in 0..self.todo.len() {
            let c = self.todo[t];
            let members = self.member_start[c]..self.member_start[c + 1];
            if members.len() > 1 {
                self.within(c);
            }
            for &w in &self.members[members] {
                let from = self.sums[w];
                if from == [0.0; 2] {
                    continue;
                }
                for &(x, lb, ub) in &self.edges[self.split[w]..self.edge_start[w + 1]] {
                    add(&mut self.sums[x], extend(from, lb, ub));
                }
            }
        }

        self.reached.sort_unstable();
        for &i in &self.reached {
            let total = std::mem::take(&mut self.sums[i]);
            self.seen[i] = false;
            if i == s {
                row.push((i, 1.0, 0.0));
            } else if total != [0.0; 2] {
                row.push((i, total[0], total[1]));
            }
        }
    }

    /// Marks `v`'s whole component reached (its members reach each other).
    fn reach(&mut self, v: usize) {
        if self.seen[v] {
            return;
        }
        let c = self.comp[v];
        for &m in &self.members[self.member_start[c]..self.member_start[c + 1]] {
            self.seen[m] = true;
            self.reached.push(m);
        }
        self.todo.push(c);
    }

    /// Runs the DP over (visited set, principal) inside component `c`,
    /// seeded with the sums entering its members, and leaves in `sums`
    /// the sums of every path ending at each member.
    ///
    /// Only the visited sets some path reaches are kept, each with the
    /// states (principals a path over exactly that set ends at) reached.
    /// A state `(S ∪ {y}, y)` is reached only from the states of `S`, so
    /// reading the sets in the order they are first reached — by size —
    /// finds each complete, and reading one set sums everything it sends
    /// to each `y` before `S ∪ {y}` is looked up: one lookup a state. A
    /// sparse component — a long ring — costs what its few paths cost.
    fn within(&mut self, c: usize) {
        let k = self.member_start[c + 1] - self.member_start[c];
        let members = self.member_start[c];
        let words = k.div_ceil(64);
        self.masks.clear();
        self.heads.clear();
        self.index.clear();
        self.index.resize(64, 0);
        self.table.clear();
        self.links.clear();
        self.acc.clear();
        self.acc.resize(k, [0.0; 2]);
        self.sending.clear();
        self.sending.resize(k, false);
        for b in 0..k {
            let entering = std::mem::take(&mut self.sums[self.members[members + b]]);
            if entering == [0.0; 2] {
                continue;
            }
            self.table.push(entering);
            self.key.clear();
            self.key.resize(words, 0);
            self.key[b / 64] |= 1 << (b % 64);
            let set = self.set();
            self.link(set, b);
        }
        let mut set = 0;
        while set < self.heads.len() {
            let mut state = self.heads[set];
            while state != NONE {
                let (b, before) = self.links[state];
                let v = self.members[members + b];
                let from = self.table[state];
                if from != [0.0; 2] {
                    add(&mut self.sums[v], from);
                    let mask = &self.masks[set * words..(set + 1) * words];
                    for &(y, lb, ub) in &self.edges[self.edge_start[v]..self.split[v]] {
                        if mask[y / 64] >> (y % 64) & 1 == 1 {
                            continue;
                        }
                        if !self.sending[y] {
                            self.sending[y] = true;
                            self.sent.push(y);
                        }
                        add(&mut self.acc[y], extend(from, lb, ub));
                    }
                }
                state = before;
            }
            for t in 0..self.sent.len() {
                let y = self.sent[t];
                self.sending[y] = false;
                let acc = std::mem::take(&mut self.acc[y]);
                self.table.push(acc);
                self.key.clear();
                self.key.extend_from_slice(&self.masks[set * words..(set + 1) * words]);
                self.key[y / 64] |= 1 << (y % 64);
                let to = self.set();
                self.link(to, y);
            }
            self.sent.clear();
            set += 1;
        }
    }

    /// Adds to `set` a state ending at `slot`, its sums the last pair of
    /// `table`.
    fn link(&mut self, set: usize, slot: usize) {
        self.links.push((slot, self.heads[set]));
        self.heads[set] = self.links.len() - 1;
    }

    /// The DP's set for the visited set `key`, added (with no states) if it
    /// is new.
    fn set(&mut self) -> usize {
        let words = self.key.len();
        if 2 * (self.heads.len() + 1) > self.index.len() {
            let size = 2 * self.index.len();
            self.index.clear();
            self.index.resize(size, 0);
            for s in 0..self.heads.len() {
                let mut at = self.probe(&self.masks[s * words..(s + 1) * words]);
                while self.index[at] != 0 {
                    at = (at + 1) & (size - 1);
                }
                self.index[at] = s + 1;
            }
        }
        let mut at = self.probe(&self.key);
        loop {
            let Some(s) = self.index[at].checked_sub(1) else {
                let s = self.heads.len();
                self.index[at] = s + 1;
                self.masks.extend_from_slice(&self.key);
                self.heads.push(NONE);
                return s;
            };
            if self.masks[s * words..(s + 1) * words] == self.key[..] {
                return s;
            }
            at = (at + 1) & (self.index.len() - 1);
        }
    }

    /// Home position of a visited set in the DP's index.
    fn probe(&self, mask: &[u64]) -> usize {
        let mut h = 0u64;
        for &w in mask {
            h = (h ^ w).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 31;
        }
        h as usize & (self.index.len() - 1)
    }
}

/// Ends a set's chain of states.
const NONE: usize = usize::MAX;

/// The simple-path walk Formulae 1–2 describe, kept as the oracle for the
/// closure: dense `(MT, OT)` matrices from a depth-first walk over every
/// simple path from every source.
#[cfg(test)]
pub(crate) fn walk(graph: &AgreementGraph) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    fn dfs(
        src: usize,
        at: usize,
        (mand, opt): (f64, f64),
        edges: &[Vec<(usize, f64, f64)>],
        visited: &mut [bool],
        mt: &mut [Vec<f64>],
        ot: &mut [Vec<f64>],
    ) {
        for &(next, lb, ub) in &edges[at] {
            if visited[next] {
                continue;
            }
            let [nmand, nopt] = extend([mand, opt], lb, ub);
            if nmand > 0.0 || nopt > 0.0 {
                mt[src][next] += nmand;
                ot[src][next] += nopt;
                visited[next] = true;
                dfs(src, next, (nmand, nopt), edges, visited, mt, ot);
                visited[next] = false;
            }
        }
    }
    let n = graph.len();
    let mut mt = vec![vec![0.0; n]; n];
    let mut ot = vec![vec![0.0; n]; n];
    let mut edges: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
    for a in graph.agreements() {
        edges[a.issuer.0].push((a.holder.0, a.lb.get(), a.ub.get()));
    }
    for j in 0..n {
        mt[j][j] = 1.0;
        let mut visited = vec![false; n];
        visited[j] = true;
        dfs(j, j, (1.0, 0.0), &edges, &mut visited, &mut mt, &mut ot);
    }
    (mt, ot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AgreementGraph;
    use proptest::prelude::*;

    fn figure3() -> (AgreementGraph, PrincipalId, PrincipalId, PrincipalId) {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 1000.0);
        let b = g.add_principal("B", 1500.0);
        let c = g.add_principal("C", 0.0);
        g.add_agreement(a, b, 0.4, 0.6).unwrap();
        g.add_agreement(b, c, 0.6, 1.0).unwrap();
        (g, a, b, c)
    }

    #[test]
    fn figure3_mandatory_currency_values() {
        let (g, a, b, c) = figure3();
        let inflows = g.flows().inflows(&g.capacities());
        // B's currency: 1500 + 1000×0.4 = 1900; C's: 0.6×1900 = 1140.
        assert!((inflows[a.0].0 - 1000.0).abs() < 1e-9);
        assert!((inflows[b.0].0 - 1900.0).abs() < 1e-9);
        assert!((inflows[c.0].0 - 1140.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_flow_coefficients() {
        let (g, a, b, c) = figure3();
        let f = g.flows();
        // MT: A→B 0.4; A→C 0.4×0.6 = 0.24; B→C 0.6.
        assert!((f.mt(a, b) - 0.4).abs() < 1e-12);
        assert!((f.mt(a, c) - 0.24).abs() < 1e-12);
        assert!((f.mt(b, c) - 0.6).abs() < 1e-12);
        assert_eq!(f.mt(b, a), 0.0);
        assert_eq!(f.mt(c, a), 0.0);
        // OT: A→B 0.2; B→C 0.4; A→C 0.2×1.0 + 0.4×0.4 = 0.36.
        assert!((f.ot(a, b) - 0.2).abs() < 1e-12);
        assert!((f.ot(b, c) - 0.4).abs() < 1e-12);
        assert!((f.ot(a, c) - 0.36).abs() < 1e-12);
        // Rows list only what each source reaches.
        assert_eq!(f.row(c), &[(c.0, 1.0, 0.0)]);
        assert_eq!(f.row(b).len(), 2);
    }

    #[test]
    fn figure3_ticket_real_values_from_flows() {
        // The paper's real values: M-Ticket1 1000×0.4 = 400, O-Ticket2
        // 1000×0.2 = 200, M-Ticket3 1900×0.6 = 1140, and O-Ticket4
        // 1900×0.4 + 200×1.0 = 960. In flow terms a mandatory ticket is the
        // issuer's real value times lb, and C's optional in-flow is
        // V_A×OT_AC + V_B×OT_BC.
        let (g, a, b, c) = figure3();
        let f = g.flows();
        let v = g.capacities();
        let inflows = f.inflows(&v);
        let m_ticket1 = inflows[a.0].0 * 0.4;
        let m_ticket3 = inflows[b.0].0 * 0.6;
        let o_ticket2 = v[a.0] * f.ot(a, b);
        let o_ticket4 = inflows[c.0].1;
        let real_values =
            [(m_ticket1, 400.0), (o_ticket2, 200.0), (m_ticket3, 1140.0), (o_ticket4, 960.0)];
        for (got, paper) in real_values {
            assert!((got - paper).abs() < 1e-9, "{got} != {paper}");
        }
    }

    #[test]
    fn cycles_do_not_diverge() {
        // A ⇄ B with generous bounds: simple-path restriction must keep the
        // flows finite and each pair's coefficient a plain product.
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 100.0);
        let b = g.add_principal("B", 200.0);
        g.add_agreement(a, b, 0.5, 1.0).unwrap();
        g.add_agreement(b, a, 0.5, 1.0).unwrap();
        let f = g.flows();
        assert!((f.mt(a, b) - 0.5).abs() < 1e-12);
        assert!((f.mt(b, a) - 0.5).abs() < 1e-12);
        // No A→B→A→B… amplification.
        assert!(f.mt(a, a) <= 1.0 + 1e-12);
    }

    #[test]
    fn three_cycle_flows_are_simple_paths_only() {
        let mut g = AgreementGraph::new();
        let a = g.add_principal("A", 90.0);
        let b = g.add_principal("B", 90.0);
        let c = g.add_principal("C", 90.0);
        g.add_agreement(a, b, 0.3, 0.3).unwrap();
        g.add_agreement(b, c, 0.3, 0.3).unwrap();
        g.add_agreement(c, a, 0.3, 0.3).unwrap();
        let f = g.flows();
        // A→C: only the path A→B→C (A→B→C→A→… revisits A).
        assert!((f.mt(a, c) - 0.09).abs() < 1e-12);
        assert!((f.mt(a, b) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn conservation_of_mandatory_flow_per_source() {
        // For any graph, the retained shares of one source's capacity across
        // all principals sum to exactly that capacity:
        //   Σ_i MT_ji × (1 − out_i) = 1 when every lb-budget leak eventually
        // terminates (acyclic case).
        let (g, ..) = figure3();
        let f = g.flows();
        for j in 0..g.len() {
            let total: f64 = f
                .row(PrincipalId(j))
                .iter()
                .map(|&(i, mt, _)| mt * (1.0 - f.out_fraction[i]))
                .sum();
            assert!((total - 1.0).abs() < 1e-9, "source {j}: {total}");
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = AgreementGraph::new();
        let f = g.flows();
        assert!(f.is_empty());

        let mut g = AgreementGraph::new();
        let a = g.add_principal("solo", 42.0);
        let f = g.flows();
        assert_eq!(f.len(), 1);
        assert_eq!(f.mt(a, a), 1.0);
        assert_eq!(f.ot(a, a), 0.0);
        assert!((f.inflows(&[42.0])[0].0 - 42.0).abs() < 1e-12);
    }

    #[test]
    fn components_are_numbered_in_topological_order() {
        // 0 ⇄ 1 → 2 → 3 ⇄ 4, and 5 alone.
        let e = |h| (h, 0.1, 0.2);
        let edges = [e(1), e(0), e(2), e(3), e(4), e(3)];
        let start = [0, 1, 3, 4, 5, 6, 6];
        let comp = components(&start, &edges);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert!(comp[1] < comp[2] && comp[2] < comp[3]);
        for i in 0..6 {
            for &(h, ..) in &edges[start[i]..start[i + 1]] {
                assert!(comp[i] <= comp[h], "edge {i}→{h} goes backwards");
            }
        }
    }

    /// Relative agreement to 1e-12 (absolute below 1e-300).
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1e-300)
    }

    /// Checks `f` against the walk's dense matrices: every stored entry to
    /// 1e-12 relative, every absent pair exactly 0 in the walk.
    fn matches_walk(
        f: &FlowMatrices,
        (mt, ot): &(Vec<Vec<f64>>, Vec<Vec<f64>>),
    ) -> Result<(), String> {
        let n = f.len();
        for j in 0..n {
            let row = f.row(PrincipalId(j));
            if !row.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("row {j} not strictly ascending: {row:?}"));
            }
            for i in 0..n {
                let (got_m, got_o) =
                    (f.mt(PrincipalId(j), PrincipalId(i)), f.ot(PrincipalId(j), PrincipalId(i)));
                if !close(got_m, mt[j][i]) || !close(got_o, ot[j][i]) {
                    return Err(format!(
                        "({j},{i}): closure ({got_m}, {got_o}), walk ({}, {})",
                        mt[j][i], ot[j][i]
                    ));
                }
                let stored = row.iter().any(|e| e.0 == i);
                if !stored && (mt[j][i] != 0.0 || ot[j][i] != 0.0) {
                    return Err(format!("({j},{i}) missing from the row"));
                }
            }
        }
        Ok(())
    }

    /// Random graphs of up to nine principals: `density` is the chance of
    /// each ordered pair getting an agreement, so the strategy spans
    /// sparse DAG-like graphs through complete (one-SCC) ones. No
    /// self-loops; each issuer stays solvent.
    fn graph_strategy() -> impl Strategy<Value = AgreementGraph> {
        (2usize..10, 0.0..1.0f64).prop_flat_map(|(n, density)| {
            let caps = proptest::collection::vec(0.0..1000.0f64, n);
            let edges = proptest::collection::vec((0.0..1.0f64, 0.0..0.3f64, 0.0..0.6f64), n * n);
            (caps, edges).prop_map(move |(caps, edges)| {
                let mut g = AgreementGraph::new();
                for (i, &c) in caps.iter().enumerate() {
                    g.add_principal(format!("P{i}"), c);
                }
                let mut budget = vec![1.0f64; n];
                for (idx, (coin, lb_raw, width)) in edges.into_iter().enumerate() {
                    let (i, j) = (idx / n, idx % n);
                    if i == j || coin >= density {
                        continue;
                    }
                    let lb = lb_raw.min(budget[i] - 0.01).max(0.0);
                    let ub = (lb + width).min(1.0);
                    if g.add_agreement(PrincipalId(i), PrincipalId(j), lb, ub).is_ok() {
                        budget[i] -= lb;
                    }
                }
                g
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The closure equals the simple-path walk, and every sparse access
        /// level equals the dense one derived from the walk, with absent
        /// pairs reading 0.
        #[test]
        fn closure_matches_the_path_walk(g in graph_strategy()) {
            let n = g.len();
            let oracle = walk(&g);
            prop_assert_eq!(matches_walk(&g.flows(), &oracle), Ok(()));

            let (mt, ot) = oracle;
            let v = g.capacities();
            let lv = g.access_levels();
            let out = g.mandatory_out_fractions();
            for i in 0..n {
                let pi = PrincipalId(i);
                let (keep, leak) = (1.0 - out[i], out[i]);
                let (mut mc, mut oc) = (0.0, 0.0);
                for j in 0..n {
                    let pj = PrincipalId(j);
                    let mi = v[j] * mt[j][i];
                    let (mand, opt) = (mi * keep, v[j] * ot[j][i] + mi * leak);
                    prop_assert!(close(lv.mand_share(pi, pj), mand), "mand ({}, {}): {} vs {}", i, j, lv.mand_share(pi, pj), mand);
                    prop_assert!(close(lv.opt_share(pi, pj), opt), "opt ({}, {}): {} vs {}", i, j, lv.opt_share(pi, pj), opt);
                    if !lv.row(pi).iter().any(|e| e.0 == j) {
                        prop_assert_eq!(lv.mand_share(pi, pj), 0.0);
                        prop_assert_eq!(lv.opt_share(pi, pj), 0.0);
                        prop_assert!(mand == 0.0 && opt == 0.0, "({}, {}) absent but worth {}, {}", i, j, mand, opt);
                    }
                    mc += mand;
                    oc += opt;
                }
                prop_assert!(close(lv.mandatory(pi), mc), "MC {}: {} vs {}", i, lv.mandatory(pi), mc);
                prop_assert!(close(lv.optional(pi), oc), "OC {}: {} vs {}", i, lv.optional(pi), oc);
            }
        }
    }

    #[test]
    fn a_single_path_is_rounded_as_the_walk_rounds_it() {
        // A chain into a 3-cycle and out of it: every pair has one path, so
        // the closure must equal the walk bit for bit.
        let mut g = AgreementGraph::new();
        let ids: Vec<_> =
            (0..6).map(|i| g.add_principal(format!("P{i}"), 100.0 + i as f64)).collect();
        for (i, h, lb, ub) in [
            (0, 1, 0.13, 0.71),
            (1, 2, 0.29, 0.37),
            (2, 3, 0.31, 0.93),
            (3, 1, 0.07, 0.11),
            (3, 4, 0.17, 0.59),
            (4, 5, 0.23, 0.61),
        ] {
            g.add_agreement(ids[i], ids[h], lb, ub).unwrap();
        }
        let (mt, ot) = walk(&g);
        let f = g.flows();
        for j in 0..6 {
            for i in 0..6 {
                let (pj, pi) = (PrincipalId(j), PrincipalId(i));
                assert_eq!(f.mt(pj, pi).to_bits(), mt[j][i].to_bits(), "MT ({j},{i})");
                assert_eq!(f.ot(pj, pi).to_bits(), ot[j][i].to_bits(), "OT ({j},{i})");
            }
        }
    }

    #[test]
    fn a_long_ring_costs_what_its_paths_cost() {
        // One SCC of 200 principals: 2^200 visited sets, but a ring has
        // one simple path per pair, and so few reachable states.
        let n = 200;
        let mut g = AgreementGraph::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_principal(format!("P{i}"), 10.0)).collect();
        for i in 0..n {
            g.add_agreement(ids[i], ids[(i + 1) % n], 0.5, 0.75).unwrap();
        }
        let f = g.flows();
        assert_eq!(matches_walk(&f, &walk(&g)), Ok(()));
        assert_eq!(f.row(ids[0]).len(), 200, "(0.5)^199 is still a normal float");
    }
}
