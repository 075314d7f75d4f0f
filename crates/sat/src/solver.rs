//! The CDCL core: watched-literal unit propagation over the explicit
//! clause database (at-least-one rows + learned clauses), theory-style
//! propagators for the implicit constraint families (at-most-one per op,
//! dependence difference bounds, modulo resource capacities), 1-UIP
//! conflict analysis with clause learning, VSIDS branching, and Luby
//! restarts.
//!
//! Everything the solver does is a deterministic function of the instance
//! and the work budgets: tie-breaks are by variable index, activities are
//! IEEE doubles updated in a fixed order, and restarts follow the Luby
//! sequence on conflict counts. Two runs of the same instance truncate at
//! identical points — the property every differential and determinism
//! test in this repository leans on. Only the optional wall-clock deadline
//! breaks reproducibility, and it reports itself via
//! [`SolveOutcome::Unknown`] `deadline_hit` so callers can refuse to
//! memoize.

use crate::encode::Instance;
use std::time::Instant;

/// A literal: variable index shifted left, low bit = negated.
pub(crate) type Lit = u32;

#[inline]
fn lit(var: u32, neg: bool) -> Lit {
    (var << 1) | u32::from(neg)
}

#[inline]
fn var_of(l: Lit) -> u32 {
    l >> 1
}

#[inline]
fn is_neg(l: Lit) -> bool {
    l & 1 != 0
}

#[inline]
fn negate(l: Lit) -> Lit {
    l ^ 1
}

/// Why a variable holds its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A branching decision (or unassigned).
    Decision,
    /// Propagated by the clause at this index (unit under the assignment).
    Clause(u32),
    /// Implied by a single true literal: the stored literal is the *false*
    /// antecedent (`¬y` for true `y`), i.e. the reason clause is
    /// `(this ∨ stored)`. Covers at-most-one and dependence propagations,
    /// whose reason clauses are always binary.
    Binary(Lit),
    /// Forbidden because the resource group at this index is saturated;
    /// the explanation is reconstructed from the group's true members
    /// assigned earlier on the trail.
    Resource(u32),
}

/// Outcome of one solve at a fixed II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SolveOutcome {
    /// Satisfiable: issue time per op.
    Sat(Vec<i64>),
    /// Proven unsatisfiable (conflict at decision level 0).
    Unsat,
    /// Budget ran out before a verdict. `deadline_hit` marks the
    /// host-dependent wall-clock truncations as opposed to the
    /// deterministic conflict/propagation budgets.
    Unknown {
        /// Wall-clock deadline fired.
        deadline_hit: bool,
    },
}

/// Deterministic work counters of one solve.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SolveStats {
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub learned_literals: u64,
}

/// Work budgets for one solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveBudget {
    pub conflict_limit: u64,
    pub propagation_limit: u64,
    pub deadline: Option<Instant>,
}

const LUBY_UNIT: u64 = 64;
const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;

/// The i-th term (1-based) of the Luby restart sequence.
fn luby(mut i: u64) -> u64 {
    // Find the largest k with 2^k - 1 <= i; recurse on the remainder.
    loop {
        let mut k = 1u64;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

struct Clause {
    lits: Vec<Lit>,
}

/// Max-activity variable order: a binary heap with position tracking so
/// activity bumps can sift in place. Ties break toward the smaller
/// variable index, keeping branching fully deterministic.
struct VarOrder {
    heap: Vec<u32>,
    pos: Vec<i32>,
}

impl VarOrder {
    fn new(n: usize) -> VarOrder {
        VarOrder {
            heap: (0..n as u32).collect(),
            pos: (0..n as i32).collect(),
        }
    }

    #[inline]
    fn before(act: &[f64], a: u32, b: u32) -> bool {
        act[a as usize] > act[b as usize] || (act[a as usize] == act[b as usize] && a < b)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if Self::before(act, self.heap[i], self.heap[p]) {
                self.heap.swap(i, p);
                self.pos[self.heap[i] as usize] = i as i32;
                self.pos[self.heap[p] as usize] = p as i32;
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len() && Self::before(act, self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            if Self::before(act, self.heap[c], self.heap[i]) {
                self.heap.swap(i, c);
                self.pos[self.heap[i] as usize] = i as i32;
                self.pos[self.heap[c] as usize] = c as i32;
                i = c;
            } else {
                break;
            }
        }
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.pos[v as usize] >= 0 {
            return;
        }
        self.pos[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = -1;
        let last = self.heap.pop().expect("nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: u32, act: &[f64]) {
        let p = self.pos[v as usize];
        if p >= 0 {
            self.sift_up(p as usize, act);
        }
    }
}

pub(crate) struct Solver<'a> {
    inst: &'a Instance,
    /// Per-variable assignment: 0 unassigned, 1 true, -1 false.
    value: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    /// Trail position per variable (valid while assigned).
    tpos: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    clauses: Vec<Clause>,
    /// `watches[l]`: clause indices watching literal `l` (visited when `l`
    /// becomes false).
    watches: Vec<Vec<u32>>,
    /// Occupied capacity per resource group (sum of member multiplicities
    /// currently true).
    group_count: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    phase: Vec<bool>,
    seen: Vec<bool>,
    root_conflict: bool,
    pub stats: SolveStats,
}

impl<'a> Solver<'a> {
    pub(crate) fn new(inst: &'a Instance) -> Solver<'a> {
        let n = inst.n_vars;
        let mut s = Solver {
            inst,
            value: vec![0; n],
            level: vec![0; n],
            reason: vec![Reason::Decision; n],
            tpos: vec![0; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            group_count: vec![0; inst.groups.len()],
            activity: vec![0.0; n],
            var_inc: 1.0,
            order: VarOrder::new(n),
            phase: vec![true; n],
            seen: vec![false; n],
            root_conflict: false,
            stats: SolveStats::default(),
        };
        // At-least-one row per op: the only eagerly materialized clauses.
        for op in 0..inst.n_ops {
            let lits: Vec<Lit> = inst.vars_of_op(op).map(|v| lit(v, false)).collect();
            s.add_clause(lits);
        }
        s
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        let v = self.value[var_of(l) as usize];
        if is_neg(l) {
            -v
        } else {
            v
        }
    }

    #[inline]
    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Install a clause. Unit clauses enqueue at the root; empty clauses
    /// and root-level contradictions mark the instance unsatisfiable.
    fn add_clause(&mut self, lits: Vec<Lit>) {
        match lits.len() {
            0 => self.root_conflict = true,
            1 => {
                if !self.enqueue(lits[0], Reason::Decision) {
                    self.root_conflict = true;
                }
            }
            _ => {
                let ci = self.clauses.len() as u32;
                self.watches[lits[0] as usize].push(ci);
                self.watches[lits[1] as usize].push(ci);
                self.clauses.push(Clause { lits });
            }
        }
    }

    /// Assert a literal. Returns `false` on contradiction with the current
    /// assignment (the caller builds the conflict explanation).
    fn enqueue(&mut self, l: Lit, why: Reason) -> bool {
        match self.lit_value(l) {
            1 => true,
            -1 => false,
            _ => {
                let v = var_of(l) as usize;
                self.value[v] = if is_neg(l) { -1 } else { 1 };
                self.level[v] = self.current_level();
                self.reason[v] = why;
                self.tpos[v] = self.trail.len() as u32;
                self.trail.push(l);
                if !is_neg(l) {
                    for &(g, mult) in &self.inst.groups_of_var[v] {
                        self.group_count[g as usize] += mult;
                    }
                }
                true
            }
        }
    }

    /// Unit propagation to fixpoint: clause watches plus the implicit
    /// propagators. Returns the conflict clause (all-false literals) if one
    /// arises.
    fn propagate(&mut self) -> Option<Vec<Lit>> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            if let Some(c) = self.propagate_clauses(p) {
                return Some(c);
            }
            if !is_neg(p) {
                if let Some(c) = self.propagate_theory(p) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Visit the watch list of `¬p` (now false) in the classic two-watch
    /// scheme.
    fn propagate_clauses(&mut self, p: Lit) -> Option<Vec<Lit>> {
        let false_lit = negate(p);
        let mut ws = std::mem::take(&mut self.watches[false_lit as usize]);
        let mut i = 0;
        'next: while i < ws.len() {
            let ci = ws[i] as usize;
            // Normalize: the false literal sits at position 1.
            if self.clauses[ci].lits[0] == false_lit {
                self.clauses[ci].lits.swap(0, 1);
            }
            // Satisfied clause: keep the watch.
            let first = self.clauses[ci].lits[0];
            if self.lit_value(first) == 1 {
                i += 1;
                continue;
            }
            // Hunt a replacement watch.
            let len = self.clauses[ci].lits.len();
            for k in 2..len {
                let lk = self.clauses[ci].lits[k];
                if self.lit_value(lk) != -1 {
                    self.clauses[ci].lits.swap(1, k);
                    self.watches[lk as usize].push(ci as u32);
                    ws.swap_remove(i);
                    continue 'next;
                }
            }
            // Unit or conflicting.
            if self.lit_value(first) == -1 {
                let conflict = self.clauses[ci].lits.clone();
                self.watches[false_lit as usize] = ws;
                return Some(conflict);
            }
            let ok = self.enqueue(first, Reason::Clause(ci as u32));
            debug_assert!(ok, "unassigned literal always enqueues");
            i += 1;
        }
        self.watches[false_lit as usize] = ws;
        None
    }

    /// Theory propagation for a newly-true op-time literal: at-most-one
    /// across the op's window, difference bounds along dependence arcs,
    /// and modulo resource capacities.
    fn propagate_theory(&mut self, p: Lit) -> Option<Vec<Lit>> {
        let v = var_of(p);
        let op = self.inst.op_of[v as usize] as usize;
        let t = self.inst.time_of[v as usize];
        let antecedent = negate(p); // the false "¬x" literal for reasons

        // At-most-one: every other time of this op is out.
        for q in self.inst.vars_of_op(op) {
            if q != v && !self.forbid(q, antecedent) {
                return Some(vec![lit(q, true), antecedent]);
            }
        }
        // Dependences: t(succ) ≥ t + w  and  t(pred) ≤ t − w.
        for &(b, w) in &self.inst.succ[op] {
            let (lo, hi) = self.inst.windows[b as usize];
            let cut = (t + w).min(hi + 1);
            for tb in lo..cut {
                let q = self.inst.var_at(b as usize, tb);
                if !self.forbid(q, antecedent) {
                    return Some(vec![lit(q, true), antecedent]);
                }
            }
        }
        for &(a, w) in &self.inst.pred[op] {
            let (lo, hi) = self.inst.windows[a as usize];
            let cut = (t - w + 1).max(lo);
            for ta in cut..=hi {
                let q = self.inst.var_at(a as usize, ta);
                if !self.forbid(q, antecedent) {
                    return Some(vec![lit(q, true), antecedent]);
                }
            }
        }
        // Resource groups this literal occupies (counts were bumped at
        // enqueue time): forbid members that no longer fit.
        for &(g, _mult) in &self.inst.groups_of_var[v as usize] {
            let group = &self.inst.groups[g as usize];
            let used = self.group_count[g as usize];
            if used > group.units {
                return Some(self.resource_conflict(g));
            }
            let free = group.units - used;
            for mi in 0..group.members.len() {
                let (m, mmult) = self.inst.groups[g as usize].members[mi];
                if mmult > free && self.value[m as usize] == 0 && !self.forbid_resource(m, g) {
                    unreachable!("unassigned literal always enqueues");
                }
            }
        }
        None
    }

    /// Set variable `q` false with a binary reason. Returns `false` when
    /// `q` is already true (conflict).
    #[inline]
    fn forbid(&mut self, q: u32, antecedent: Lit) -> bool {
        self.enqueue(lit(q, true), Reason::Binary(antecedent))
    }

    #[inline]
    fn forbid_resource(&mut self, q: u32, g: u32) -> bool {
        self.enqueue(lit(q, true), Reason::Resource(g))
    }

    /// Conflict explanation for an over-subscribed group: every true
    /// member, negated.
    fn resource_conflict(&self, g: u32) -> Vec<Lit> {
        self.inst.groups[g as usize]
            .members
            .iter()
            .filter(|&&(m, _)| self.value[m as usize] == 1)
            .map(|&(m, _)| lit(m, true))
            .collect()
    }

    /// Reason clause of an assigned literal, minus the literal itself:
    /// the false antecedents that forced it.
    fn reason_lits(&self, l: Lit) -> Vec<Lit> {
        let v = var_of(l) as usize;
        match self.reason[v] {
            Reason::Decision => Vec::new(),
            Reason::Binary(a) => vec![a],
            Reason::Clause(ci) => self.clauses[ci as usize]
                .lits
                .iter()
                .copied()
                .filter(|&q| var_of(q) != v as u32)
                .collect(),
            Reason::Resource(g) => {
                // True members assigned before this propagation whose
                // multiplicities saturated the group.
                let group = &self.inst.groups[g as usize];
                let my_pos = self.tpos[v];
                let (_, my_mult) = group
                    .members
                    .iter()
                    .find(|&&(m, _)| m == v as u32)
                    .expect("member of its own group");
                let needed = group.units.saturating_sub(*my_mult) + 1;
                let mut antecedents: Vec<(u32, Lit, u32)> = group
                    .members
                    .iter()
                    .filter(|&&(m, _)| {
                        self.value[m as usize] == 1 && self.tpos[m as usize] < my_pos
                    })
                    .map(|&(m, mult)| (self.tpos[m as usize], lit(m, true), mult))
                    .collect();
                antecedents.sort_unstable_by_key(|&(p, _, _)| p);
                let mut out = Vec::new();
                let mut total = 0u32;
                for (_, l, mult) in antecedents {
                    out.push(l);
                    total += mult;
                    if total >= needed {
                        break;
                    }
                }
                debug_assert!(total >= needed, "explanation must saturate the group");
                out
            }
        }
    }

    #[inline]
    fn bump(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.order.bumped(v, &self.activity);
    }

    /// 1-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: Vec<Lit>) -> (Vec<Lit>, u32) {
        let current = self.current_level();
        let mut learned: Vec<Lit> = vec![0];
        let mut counter = 0u32;
        let mut idx = self.trail.len();
        let mut reason = conflict;
        let mut cleared: Vec<u32> = Vec::new();
        loop {
            for &q in &reason {
                let v = var_of(q);
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    cleared.push(v);
                    self.bump(v);
                    if self.level[v as usize] == current {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            let p = loop {
                idx -= 1;
                let l = self.trail[idx];
                if self.seen[var_of(l) as usize] {
                    break l;
                }
            };
            self.seen[var_of(p) as usize] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = negate(p);
                break;
            }
            reason = self.reason_lits(p);
        }
        for v in cleared {
            self.seen[v as usize] = false;
        }
        // Backjump to the deepest level among the other literals, with
        // that literal in watch position 1.
        let mut bj = 0u32;
        let mut at = 1usize;
        for (i, &q) in learned.iter().enumerate().skip(1) {
            let lv = self.level[var_of(q) as usize];
            if lv > bj {
                bj = lv;
                at = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, at);
        }
        (learned, bj)
    }

    /// Undo the trail down to `level`.
    fn backtrack(&mut self, level: u32) {
        while self.current_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = var_of(l);
                if !is_neg(l) {
                    for &(g, mult) in &self.inst.groups_of_var[v as usize] {
                        self.group_count[g as usize] -= mult;
                    }
                }
                self.phase[v as usize] = !is_neg(l);
                self.value[v as usize] = 0;
                self.reason[v as usize] = Reason::Decision;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Pick the next branching literal: the most active unassigned
    /// variable in its saved phase.
    fn decide(&mut self) -> Option<Lit> {
        loop {
            let v = self.order.pop(&self.activity)?;
            if self.value[v as usize] == 0 {
                return Some(lit(v, !self.phase[v as usize]));
            }
        }
    }

    /// Extract per-op issue times from a full satisfying assignment.
    fn extract(&self) -> Vec<i64> {
        (0..self.inst.n_ops)
            .map(|op| {
                let v = self
                    .inst
                    .vars_of_op(op)
                    .find(|&v| self.value[v as usize] == 1)
                    .expect("every op has a true slot in a model");
                self.inst.time_of[v as usize]
            })
            .collect()
    }

    /// Run CDCL until SAT, UNSAT, or budget exhaustion.
    pub(crate) fn solve(&mut self, budget: &SolveBudget) -> SolveOutcome {
        if self.root_conflict {
            return SolveOutcome::Unsat;
        }
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = LUBY_UNIT * luby(1);
        let mut since_poll = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.current_level() == 0 {
                    return SolveOutcome::Unsat;
                }
                let (learned, bj) = self.analyze(conflict);
                self.stats.learned_literals += learned.len() as u64;
                self.backtrack(bj);
                let assert_lit = learned[0];
                if learned.len() == 1 {
                    if !self.enqueue(assert_lit, Reason::Decision) {
                        return SolveOutcome::Unsat;
                    }
                } else {
                    let ci = self.clauses.len() as u32;
                    self.watches[learned[0] as usize].push(ci);
                    self.watches[learned[1] as usize].push(ci);
                    self.clauses.push(Clause { lits: learned });
                    if !self.enqueue(assert_lit, Reason::Clause(ci)) {
                        unreachable!("asserting literal is unassigned after backjump");
                    }
                }
                self.var_inc /= VAR_DECAY;
                if self.stats.conflicts >= budget.conflict_limit
                    || self.stats.propagations >= budget.propagation_limit
                {
                    return SolveOutcome::Unknown {
                        deadline_hit: false,
                    };
                }
                if budget.deadline.is_some_and(|d| Instant::now() >= d) {
                    return SolveOutcome::Unknown { deadline_hit: true };
                }
                if self.stats.conflicts >= conflicts_until_restart {
                    // Luby restart: back to the root, keep what we learned.
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_until_restart =
                        self.stats.conflicts + LUBY_UNIT * luby(restart_count + 1);
                    self.backtrack(0);
                }
            } else {
                // Deterministic budget checks between conflicts too: a
                // satisfiable descent can propagate a great deal without
                // ever conflicting.
                if self.stats.propagations >= budget.propagation_limit {
                    return SolveOutcome::Unknown {
                        deadline_hit: false,
                    };
                }
                since_poll += 1;
                if since_poll >= 64 {
                    since_poll = 0;
                    if budget.deadline.is_some_and(|d| Instant::now() >= d) {
                        return SolveOutcome::Unknown { deadline_hit: true };
                    }
                }
                match self.decide() {
                    None => return SolveOutcome::Sat(self.extract()),
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        if !self.enqueue(l, Reason::Decision) {
                            unreachable!("decision variable is unassigned");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_prefix_is_canonical() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (1..=want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}
