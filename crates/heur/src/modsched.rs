//! Branch-and-bound enumeration of modulo schedules at a fixed II
//! (Figure 1 of the paper) with the catch-point pruning rules of §2.4.

use crate::bankopt::PairingContext;
use crate::restable::{identical_resources, ResTable};
use swp_ir::{Ddg, LongestPaths, Loop, OpId};
use swp_machine::Machine;

/// Outcome statistics of one scheduling attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptStats {
    /// Backtracks consumed.
    pub backtracks: u32,
    /// Operations (re)placed.
    pub placements: u64,
    /// Same-cycle bank pairs formed.
    pub pairs_formed: u32,
    /// Priority inversions caused by pairing (§2.9's pressure signal).
    pub pairing_priority_changes: u32,
}

/// One scheduled entry on the priority list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placed {
    cycle: i64,
    range_hi: i64,
}

/// The in-progress scheduling state.
struct State<'a> {
    lp: &'a Loop,
    ddg: &'a Ddg,
    machine: &'a Machine,
    ii: u32,
    lpaths: &'a LongestPaths,
    order: &'a [OpId],
    pos_of: Vec<usize>,
    table: ResTable,
    /// Indexed by priority position.
    placed: Vec<Option<Placed>>,
    /// Indexed by op.
    time: Vec<Option<i64>>,
}

const INF: i64 = i64::MAX / 4;

/// Legal range of cycles for `op` against an explicit time vector
/// (§2.4 step 2a). Within a nontrivial SCC the longest-path table against
/// scheduled members bounds both sides — those bounds are hard. For other
/// ops only *scheduled* direct predecessors/successors constrain the
/// placement, and the constraints are soft: §2.5's pipestage postpass can
/// repair any cross-component arc by moving whole components in II
/// multiples, so when the window is empty the successor bound is dropped
/// rather than failing. The range is clipped to II consecutive cycles.
fn compute_range(
    ddg: &Ddg,
    lpaths: &LongestPaths,
    ii: u32,
    time: &[Option<i64>],
    op: OpId,
) -> Option<(i64, i64, bool)> {
    let ii = i64::from(ii);
    let mut lo = -INF;
    let mut hi = INF;
    if ddg.in_cycle(op) {
        let scc = ddg.scc_of(op);
        for &m in &ddg.sccs()[scc.index()].members {
            if m == op {
                continue;
            }
            let Some(tm) = time[m.index()] else { continue };
            if let Some(d) = lpaths.get(m, op) {
                lo = lo.max(tm + d);
            }
            if let Some(d) = lpaths.get(op, m) {
                hi = hi.min(tm - d);
            }
        }
        let prefer_late = lo == -INF && hi != INF;
        let (lo, hi) = clip(lo, hi, ii);
        (lo <= hi).then_some((lo, hi, prefer_late))
    } else {
        for e in ddg.pred_edges(op) {
            if e.from == op {
                continue;
            }
            if let Some(tf) = time[e.from.index()] {
                lo = lo.max(tf + e.latency - ii * i64::from(e.distance));
            }
        }
        for e in ddg.succ_edges(op) {
            if e.to == op {
                continue;
            }
            if let Some(tt) = time[e.to.index()] {
                hi = hi.min(tt - e.latency + ii * i64::from(e.distance));
            }
        }
        if lo != -INF && hi != INF && lo > hi {
            // Empty window between scheduled preds and succs: prefer the
            // predecessor side; the postpass will move components to
            // satisfy the successor arcs.
            hi = INF;
        }
        // §2.7: when only consumers are scheduled (backward orders), place
        // the op as low (late) as possible to shorten its live range from
        // the definition side.
        let prefer_late = lo == -INF && hi != INF;
        let (lo, hi) = clip(lo, hi, ii);
        Some((lo, hi, prefer_late))
    }
}

fn clip(lo: i64, hi: i64, ii: i64) -> (i64, i64) {
    if lo == -INF && hi == INF {
        (0, ii - 1)
    } else if lo == -INF {
        (hi - ii + 1, hi)
    } else {
        (lo, hi.min(lo + ii - 1))
    }
}

impl<'a> State<'a> {
    fn new(
        lp: &'a Loop,
        ddg: &'a Ddg,
        machine: &'a Machine,
        ii: u32,
        lpaths: &'a LongestPaths,
        order: &'a [OpId],
    ) -> State<'a> {
        let mut pos_of = vec![usize::MAX; lp.len()];
        for (i, &op) in order.iter().enumerate() {
            pos_of[op.index()] = i;
        }
        State {
            lp,
            ddg,
            machine,
            ii,
            lpaths,
            order,
            pos_of,
            table: ResTable::new(machine, ii),
            placed: vec![None; lp.len()],
            time: vec![None; lp.len()],
        }
    }

    /// Legal range for `op` in the current state (see [`compute_range`]).
    fn legal_range(&self, op: OpId) -> Option<(i64, i64, bool)> {
        compute_range(self.ddg, self.lpaths, self.ii, &self.time, op)
    }

    /// First cycle in `[from, hi]` where `op` fits, or `None`. With
    /// `late`, the scan runs downward from `hi` (live-range shortening for
    /// consumer-bounded ops, §2.7).
    fn find_cycle(&self, op: OpId, from: i64, hi: i64, late: bool) -> Option<i64> {
        let class = self.lp.op(op).class;
        if late {
            (from..=hi)
                .rev()
                .find(|&c| self.table.fits(self.machine, class, c))
        } else {
            (from..=hi).find(|&c| self.table.fits(self.machine, class, c))
        }
    }

    /// Like [`State::find_cycle`], but for memory references under the
    /// §2.9 bank heuristics: prefer a cycle whose row holds no memory
    /// reference that is same-bank or unknown relative to `op`. Falls back
    /// to plain first-fit when no bank-safe cycle exists.
    fn find_cycle_bank_aware(&self, op: OpId, from: i64, hi: i64, late: bool) -> Option<i64> {
        /// How far past the first fit the safe-cycle search may wander —
        /// bounding the live-range growth the avoidance can cause (§2.9's
        /// register-pressure feedback in miniature).
        const MAX_DISPLACEMENT: i64 = 3;
        let class = self.lp.op(op).class;
        let ii = i64::from(self.ii);
        let first_fit = self.find_cycle(op, from, hi, late)?;
        let lo_w = if late {
            (first_fit - MAX_DISPLACEMENT).max(from)
        } else {
            first_fit
        };
        let hi_w = if late {
            first_fit
        } else {
            hi.min(first_fit + MAX_DISPLACEMENT)
        };
        let safe = (lo_w..=hi_w).find(|&c| {
            if !self.table.fits(self.machine, class, c) {
                return false;
            }
            let row = c.rem_euclid(ii);
            self.lp.mem_ops().all(|o| {
                if o.id == op {
                    return true;
                }
                match self.time[o.id.index()] {
                    Some(t) if t.rem_euclid(ii) == row => {
                        PairingContext::safe_together(self.lp, op, c, o.id, t, self.ii)
                    }
                    _ => true,
                }
            })
        });
        Some(safe.unwrap_or(first_fit))
    }

    fn place(&mut self, pos: usize, cycle: i64, hi: i64) {
        let op = self.order[pos];
        self.table.place(self.machine, self.lp.op(op).class, cycle);
        self.placed[pos] = Some(Placed {
            cycle,
            range_hi: hi,
        });
        self.time[op.index()] = Some(cycle);
    }

    fn unschedule(&mut self, pos: usize) {
        if let Some(p) = self.placed[pos].take() {
            let op = self.order[pos];
            self.table
                .remove(self.machine, self.lp.op(op).class, p.cycle);
            self.time[op.index()] = None;
        }
    }

    /// Whether `pos` may be a catch point under rule 1: the op is either
    /// not in a nontrivial SCC, or is the first of its SCC on the list.
    fn may_catch_rule1(&self, pos: usize) -> bool {
        let op = self.order[pos];
        if !self.ddg.in_cycle(op) {
            return true;
        }
        let scc = self.ddg.scc_of(op);
        let first = self.ddg.sccs()[scc.index()]
            .members
            .iter()
            .map(|&m| self.pos_of[m.index()])
            .min()
            .expect("scc nonempty");
        first == pos
    }
}

/// Schedule `order` at the given II. On success the times satisfy all
/// resource constraints and all *within-SCC* dependences; cross-SCC arcs
/// may still be violated and are repaired by
/// [`crate::postpass::adjust_pipestages`].
///
/// `budget` caps backtracks; `pairing` enables the §2.9 memory-bank
/// heuristics.
#[allow(clippy::too_many_arguments)]
pub fn schedule_at(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    order: &[OpId],
    budget: u32,
    mut pairing: Option<&mut PairingContext>,
    stats: &mut AttemptStats,
) -> Option<Vec<i64>> {
    let lpaths = LongestPaths::compute(ddg, ii)?;
    let mut st = State::new(lp, ddg, machine, ii, &lpaths, order);
    let mut budget_left = budget;
    let n = order.len();
    let mut i = 0usize;
    // Pending minimum cycle for the op at position i (set on backtrack).
    let mut min_cycle: Option<i64> = None;

    while i < n {
        if st.placed[i].is_some() {
            // Already placed out of order by the pairing hook.
            i += 1;
            min_cycle = None;
            continue;
        }
        let op = order[i];
        let ranged = st.legal_range(op);
        let bank_aware = pairing.is_some() && lp.op(op).is_mem();
        let slot = ranged.and_then(|(lo, hi, late)| {
            let from = min_cycle.map_or(lo, |m| m.max(lo));
            // Backtracking resumption always walks forward through the
            // range, so a pending minimum cycle forces the upward scan.
            let late = late && min_cycle.is_none();
            let found = if bank_aware {
                st.find_cycle_bank_aware(op, from, hi, late)
            } else {
                st.find_cycle(op, from, hi, late)
            };
            found.map(|c| (c, hi))
        });
        min_cycle = None;
        match slot {
            Some((c, hi)) => {
                st.place(i, c, hi);
                stats.placements += 1;
                // Memory-bank pairing hook (§2.9).
                if let Some(px) = pairing.as_deref_mut() {
                    px.after_place(
                        &mut PairingView {
                            lp,
                            machine,
                            order,
                            pos_of: &st.pos_of,
                            table: &mut st.table,
                            placed: &mut st.placed,
                            time: &mut st.time,
                            ddg,
                            lpaths: &lpaths,
                            ii,
                        },
                        i,
                        c,
                        stats,
                    );
                }
                i += 1;
            }
            None => {
                // Backtrack (Figure 1 step 4 with §2.4 pruning).
                if budget_left == 0 {
                    return None;
                }
                budget_left -= 1;
                stats.backtracks += 1;
                match find_catch_point(&mut st, i) {
                    Some(j) => {
                        let next = st.placed[j].expect("catch point is placed");
                        for p in (j..i).rev() {
                            st.unschedule(p);
                        }
                        // Also unschedule any ops after i placed by pairing.
                        for p in i..n {
                            if st.placed[p].is_some() {
                                st.unschedule(p);
                            }
                        }
                        i = j;
                        min_cycle = Some(next.cycle + 1);
                    }
                    None => return None,
                }
            }
        }
    }
    Some(
        (0..lp.len())
            .map(|v| st.time[v].expect("all ops scheduled"))
            .collect(),
    )
}

/// Find the largest catch point `j < i` per §2.4: first under the strict
/// rule (non-identical resources and unscheduling helps), then under the
/// loose rule (identical resources allowed if `i` lands in a different
/// slot than `j` held).
fn find_catch_point(st: &mut State<'_>, i: usize) -> Option<usize> {
    let op_i = st.order[i];
    let class_i = st.lp.op(op_i).class;
    for strict in [true, false] {
        // Progressively unschedule from i-1 down to j, testing at each step.
        // Work on a scratch clone so the real state survives failures.
        let mut scratch_table = st.table.clone();
        let mut scratch_time = st.time.clone();
        for j in (0..i).rev() {
            // Unschedule position j in the scratch state.
            if let Some(p) = st.placed[j] {
                let opj = st.order[j];
                scratch_table.remove(st.machine, st.lp.op(opj).class, p.cycle);
                scratch_time[opj.index()] = None;

                if p.cycle >= p.range_hi {
                    continue; // legal range exhausted
                }
                if !st.may_catch_rule1(j) {
                    continue;
                }
                let class_j = st.lp.op(opj).class;
                let identical = identical_resources(st.machine, class_i, class_j);
                if strict && identical {
                    continue;
                }
                // Can i be scheduled now (with j..i-1 unscheduled)?
                let range = compute_range(st.ddg, st.lpaths, st.ii, &scratch_time, op_i);
                let Some((lo, hi, _)) = range else { continue };
                let found = (lo..=hi).find(|&c| scratch_table.fits(st.machine, class_i, c));
                match found {
                    Some(c) => {
                        if !strict && identical && c == p.cycle {
                            // Rule 3 requires a *different* slot; look past it.
                            let alt = ((c + 1)..=hi)
                                .find(|&cc| scratch_table.fits(st.machine, class_i, cc));
                            if alt.is_none() {
                                continue;
                            }
                        }
                        return Some(j);
                    }
                    None => continue,
                }
            }
        }
    }
    None
}

/// A narrowed view of the scheduler state handed to the pairing hook.
pub(crate) struct PairingView<'a, 'b> {
    pub lp: &'a Loop,
    pub machine: &'a Machine,
    pub order: &'a [OpId],
    pub pos_of: &'b [usize],
    pub table: &'b mut ResTable,
    pub placed: &'b mut [Option<Placed>],
    pub time: &'b mut [Option<i64>],
    pub ddg: &'a Ddg,
    pub lpaths: &'a LongestPaths,
    pub ii: u32,
}

impl PairingView<'_, '_> {
    /// Attempt to place the op at priority position `pos` at `cycle`,
    /// respecting its legal range and resources. Returns true on success.
    pub fn try_place_at(&mut self, pos: usize, cycle: i64) -> bool {
        if self.placed[pos].is_some() {
            return false;
        }
        let op = self.order[pos];
        let Some((lo, hi, _)) = compute_range(self.ddg, self.lpaths, self.ii, self.time, op) else {
            return false;
        };
        if cycle < lo || cycle > hi {
            return false;
        }
        let class = self.lp.op(op).class;
        if !self.table.fits(self.machine, class, cycle) {
            return false;
        }
        self.table.place(self.machine, class, cycle);
        self.placed[pos] = Some(Placed {
            cycle,
            range_hi: hi,
        });
        self.time[op.index()] = Some(cycle);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{priority_list, PriorityHeuristic};
    use swp_ir::{LoopBuilder, Schedule};
    use swp_machine::Machine;

    fn sched(lp: &Loop, ii: u32) -> Option<Vec<i64>> {
        let m = Machine::r8000();
        let ddg = Ddg::build(lp, &m);
        let order = priority_list(lp, &ddg, &m, PriorityHeuristic::Fdms);
        let mut stats = AttemptStats::default();
        schedule_at(lp, &ddg, &m, ii, &order, 400, None, &mut stats)
    }

    #[test]
    fn saxpy_schedules_at_min_ii() {
        let mut b = LoopBuilder::new("saxpy");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let r = b.fmadd(a, xv, yv);
        b.store(y, 0, 8, r);
        let lp = b.finish();
        let m = Machine::r8000();
        let ddg = Ddg::build(&lp, &m);
        let ii = ddg.min_ii();
        assert_eq!(ii, 2, "3 mem refs on 2 pipes");
        let times = sched(&lp, ii).expect("schedulable at MinII");
        // Within-SCC + postpass story: here no SCCs, so validate after the
        // postpass (which may shift components by multiples of II).
        let adjusted = crate::postpass::adjust_pipestages(&lp, &ddg, ii, times);
        let s = Schedule::new(ii, adjusted);
        assert_eq!(s.validate(&lp, &ddg, &m), Ok(()));
    }

    #[test]
    fn reduction_respects_recurrence() {
        let mut b = LoopBuilder::new("sum");
        let x = b.array("x", 8);
        let v = b.load(x, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fadd(s.value(), v);
        b.close(s, s1, 1);
        let lp = b.finish();
        let m = Machine::r8000();
        let ddg = Ddg::build(&lp, &m);
        assert_eq!(ddg.min_ii(), 4);
        let times = sched(&lp, 4).expect("schedulable");
        let adjusted = crate::postpass::adjust_pipestages(&lp, &ddg, 4, times);
        let s = Schedule::new(4, adjusted);
        assert_eq!(s.validate(&lp, &ddg, &m), Ok(()));
    }

    #[test]
    fn infeasible_ii_fails() {
        // 5 loads cannot fit at II=2 (2 memory pipes).
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let mut acc = b.load(x, 0, 8);
        for k in 1..5 {
            let v = b.load(x, 800 * k, 8);
            acc = b.fadd(acc, v);
        }
        b.store(x, 80000, 8, acc);
        let lp = b.finish();
        assert!(sched(&lp, 2).is_none());
        assert!(sched(&lp, 3).is_some());
    }

    #[test]
    fn backtracking_rescues_tight_schedules() {
        // Many FP ops at a tight II force slot competition: zero budget may
        // fail where a real budget succeeds. (Construct a case where naive
        // first-fit placement runs out of issue slots.)
        let mut b = LoopBuilder::new("t");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let v1 = b.load(x, 0, 8);
        let v2 = b.load(y, 0, 8);
        let mut ops = Vec::new();
        for _ in 0..6 {
            ops.push(b.fadd(v1, v2));
        }
        let mut acc = ops[0];
        for &o in &ops[1..] {
            acc = b.fadd(acc, o);
        }
        b.store(x, 80000, 8, acc);
        let lp = b.finish();
        let m = Machine::r8000();
        let ddg = Ddg::build(&lp, &m);
        let min_ii = ddg.min_ii();
        let order = priority_list(&lp, &ddg, &m, PriorityHeuristic::Hms);
        let mut stats = AttemptStats::default();
        let result = schedule_at(&lp, &ddg, &m, min_ii, &order, 1000, None, &mut stats);
        assert!(
            result.is_some(),
            "budget allows a schedule at MinII={min_ii}"
        );
    }
}
