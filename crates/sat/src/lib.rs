//! swp-sat — the third "optimal" backend: a CDCL difference-logic
//! scheduler for the modulo-scheduling problem.
//!
//! Where MOST (`swp-most`) phrases each candidate II as an integer linear
//! program, this crate phrases it as propositional satisfiability over the
//! direct encoding `x[i][t]` and solves it with a small conflict-driven
//! clause-learning solver: watched-literal unit propagation, implicit
//! theory propagators for the at-most-one / dependence / modulo-resource
//! families, 1-UIP conflict analysis with clause learning, VSIDS
//! branching, and Luby restarts. The II ladder around the solver is
//! MOST's, verbatim: start at MinII, climb to MaxII, accept the first II
//! whose schedule also register-allocates, otherwise fall back to the
//! heuristic pipeliner (when enabled).
//!
//! Crucially the per-II search box is **MOST's horizon** — times in
//! `[0, II·(kmax+1))` with the same `kmax` stage bound — so a SAT/UNSAT
//! verdict here lines up with ILP feasible/infeasible there, and the two
//! backends achieve the same II on every loop both can solve within
//! budget. The differential suite holds them to that.
//!
//! All budgets that matter are deterministic work measures (conflicts,
//! propagations); wall clocks exist for latency control and always
//! confess via `deadline_hit`, which the schedule cache treats as "do not
//! memoize".
//!
//! # Examples
//!
//! ```
//! use swp_sat::{pipeline_sat, SatOptions};
//! use swp_ir::LoopBuilder;
//! use swp_machine::Machine;
//!
//! let m = Machine::r8000();
//! let mut b = LoopBuilder::new("scale");
//! let a = b.invariant_f("a");
//! let x = b.array("x", 8);
//! let v = b.load(x, 0, 8);
//! let w = b.fmul(a, v);
//! b.store(x, 0, 8, w);
//! let lp = b.finish();
//! let r = pipeline_sat(&lp, &m, &SatOptions::default()).expect("schedules");
//! assert!(!r.stats.fell_back);
//! assert!(r.schedule.ii() >= 1);
//! ```

mod compact;
mod encode;
mod solver;

use solver::{SolveBudget, SolveOutcome, Solver};
use std::time::{Duration, Instant};
use swp_heur::HeurOptions;
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_regalloc::{allocate, AllocOutcome, Allocation};

/// Controls for the SAT pipeliner.
#[derive(Debug, Clone)]
pub struct SatOptions {
    /// Conflict budget per II solve (deterministic; tests rely on this).
    pub conflict_limit: u64,
    /// Propagation budget per II solve. A satisfiable descent can
    /// propagate enormously without conflicting, so the conflict budget
    /// alone does not bound work.
    pub propagation_limit: u64,
    /// Wall-clock budget per II solve, mirroring MOST's 3-minute regime.
    pub time_limit: Option<Duration>,
    /// `MaxII = max_ii_factor × MinII`, as for the other pipeliners.
    pub max_ii_factor: u32,
    /// Fall back to the heuristic pipeliner when SAT fails (§4.4's
    /// arrangement, transplanted).
    pub fallback: bool,
    /// Overall wall-clock budget for the whole II ladder on one loop.
    pub loop_time_limit: Option<Duration>,
    /// Deterministic analogue of [`loop_time_limit`](Self::loop_time_limit):
    /// total conflicts across the whole II ladder. Once spent, no further
    /// II is attempted (the solve in flight still completes, so the
    /// overshoot is at most one `conflict_limit`).
    pub loop_conflict_limit: Option<u64>,
    /// Loops larger than this are not attempted at all — the direct
    /// encoding is `O(n · II · kmax)` variables and beyond MOST's
    /// practical ceiling the solves only burn their budgets.
    pub max_ops: usize,
}

impl Default for SatOptions {
    fn default() -> SatOptions {
        SatOptions {
            conflict_limit: 200_000,
            propagation_limit: 100_000_000,
            time_limit: Some(Duration::from_secs(180)),
            max_ii_factor: 2,
            fallback: true,
            loop_time_limit: Some(Duration::from_secs(180)),
            loop_conflict_limit: None,
            max_ops: 80,
        }
    }
}

impl SatOptions {
    /// Small deterministic budgets, the SAT counterpart of
    /// `MostOptions::quick`: conflict and propagation counts only, every
    /// wall-clock limit off, so a schedule replays bit-identically on any
    /// host.
    pub fn quick() -> SatOptions {
        SatOptions {
            conflict_limit: 20_000,
            propagation_limit: 2_000_000,
            time_limit: None,
            loop_time_limit: None,
            loop_conflict_limit: Some(60_000),
            max_ops: 64,
            ..SatOptions::default()
        }
    }

    /// The same budgets with the internal heuristic fallback disabled.
    /// The degradation ladder runs SAT this way: demotion to the heuristic
    /// is the ladder's job, and keeping the fallback inside SAT would blur
    /// which rung actually produced a schedule.
    pub fn without_fallback(&self) -> SatOptions {
        SatOptions {
            fallback: false,
            ..self.clone()
        }
    }
}

/// Statistics of a SAT run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SatStats {
    /// MinII of the loop.
    pub min_ii: u32,
    /// Branching decisions across all solves.
    pub decisions: u64,
    /// Conflicts across all solves (the coarse deterministic work
    /// measure, the analogue of MOST's branch-and-bound nodes).
    pub conflicts: u64,
    /// Unit propagations across all solves (the fine-grained deterministic
    /// work measure, the analogue of simplex pivots).
    pub propagations: u64,
    /// Luby restarts across all solves.
    pub restarts: u64,
    /// Literals in learned clauses across all solves.
    pub learned_literals: u64,
    /// SAT solves performed (one per II actually searched).
    pub solves: u32,
    /// Whether any wall-clock deadline truncated the
    /// search. A result carrying this flag depends on host load and is
    /// *not* reproducible; the schedule cache refuses to memoize it.
    pub deadline_hit: bool,
    /// Whether every II below the achieved one was *proven* unsatisfiable
    /// and the winning solve ran to completion — a rate-optimality
    /// certificate. Trivially holds when the achieved II is MinII.
    pub optimal_ii: bool,
    /// Whether the heuristic fallback produced the result.
    pub fell_back: bool,
    /// IIs probed.
    pub iis_tried: Vec<u32>,
    /// Wall-clock time spent in SAT solving.
    pub solve_time: Duration,
    /// Nanoseconds spent in register allocation (including the fallback's
    /// allocation attempts, when it ran).
    pub alloc_ns: u64,
}

/// A loop pipelined by the SAT backend (or its heuristic fallback).
#[derive(Debug, Clone)]
pub struct SatPipelined {
    /// The scheduled body (identical to the input unless the fallback
    /// spilled).
    pub body: Loop,
    /// The accepted schedule.
    pub schedule: Schedule,
    /// A valid register allocation.
    pub allocation: Allocation,
    /// Run statistics.
    pub stats: SatStats,
}

impl SatPipelined {
    /// The achieved II.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Why the SAT backend (and its fallback, if enabled) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatError {
    /// The loop body is empty.
    EmptyLoop,
    /// No schedule found up to MaxII and the fallback was disabled or
    /// failed too.
    NoSchedule {
        /// MinII bound.
        min_ii: u32,
        /// MaxII bound.
        max_ii: u32,
        /// Whether a wall-clock deadline truncated the
        /// search. When set, the failure is host-load-dependent (retrying
        /// may succeed); the schedule cache never memoizes it.
        deadline_hit: bool,
    },
}

impl std::fmt::Display for SatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SatError::EmptyLoop => write!(f, "cannot pipeline an empty loop"),
            SatError::NoSchedule {
                min_ii,
                max_ii,
                deadline_hit,
            } => {
                write!(f, "SAT found no schedule in II range [{min_ii}, {max_ii}]")?;
                if *deadline_hit {
                    write!(f, " (wall-clock deadline hit; result is host-dependent)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SatError {}

/// Pipeline a loop with the CDCL scheduler, MOST-style ladder.
///
/// # Errors
///
/// [`SatError::EmptyLoop`] on empty bodies, [`SatError::NoSchedule`] when
/// nothing (including the fallback) works.
pub fn pipeline_sat(
    lp: &Loop,
    machine: &Machine,
    opts: &SatOptions,
) -> Result<SatPipelined, SatError> {
    if lp.is_empty() {
        return Err(SatError::EmptyLoop);
    }
    if lp.len() > opts.max_ops {
        return fallback_or_fail(lp, machine, opts, 0, 0, false);
    }
    let ddg = Ddg::build(lp, machine);
    let min_ii = ddg.min_ii();
    let max_ii = (min_ii * opts.max_ii_factor.max(1)).max(min_ii + 1);
    let mut stats = SatStats {
        min_ii,
        ..SatStats::default()
    };

    let started = Instant::now();
    let loop_deadline = opts.loop_time_limit.map(|d| started + d);
    // Rate-optimality bookkeeping: stays true while every lower II that
    // was passed over carries a real UNSAT proof (not a budget timeout,
    // not a register-allocation failure).
    let mut proven_below = true;
    for ii in min_ii..=max_ii {
        if loop_deadline.is_some_and(|d| Instant::now() >= d) {
            stats.deadline_hit = true;
            break;
        }
        if opts
            .loop_conflict_limit
            .is_some_and(|l| stats.conflicts >= l)
        {
            break;
        }
        stats.iis_tried.push(ii);
        swp_obs::count(swp_obs::Counter::SatIiSteps, 1);
        let step_span = swp_obs::span("sat.ii_step").with_i("ii", i64::from(ii));
        let solved = solve_at_ii(lp, &ddg, machine, ii, opts, loop_deadline, &mut stats);
        drop(step_span);
        match solved {
            IiOutcome::Schedule(schedule, complete) => {
                debug_assert_eq!(schedule.validate(lp, &ddg, machine), Ok(()));
                let (outcome, alloc_ns) =
                    swp_obs::timed_ns("regalloc.attempt", || allocate(lp, &schedule, machine));
                stats.alloc_ns = stats.alloc_ns.saturating_add(alloc_ns);
                match outcome {
                    AllocOutcome::Allocated(allocation) => {
                        stats.optimal_ii = proven_below && complete;
                        stats.solve_time = started.elapsed();
                        return Ok(SatPipelined {
                            body: lp.clone(),
                            schedule,
                            allocation,
                            stats,
                        });
                    }
                    AllocOutcome::Failed { .. } => {
                        // SAT has no spilling; a larger II gives the
                        // allocator more slack. The passed-over II *was*
                        // schedulable, so optimality is forfeited.
                        proven_below = false;
                        continue;
                    }
                }
            }
            IiOutcome::ProvenUnsat => continue,
            IiOutcome::Unknown => {
                proven_below = false;
                continue;
            }
        }
    }
    stats.solve_time = started.elapsed();
    let mut r = fallback_or_fail(lp, machine, opts, min_ii, max_ii, stats.deadline_hit);
    if let Ok(p) = &mut r {
        p.stats.min_ii = stats.min_ii;
        p.stats.decisions = stats.decisions;
        p.stats.conflicts = stats.conflicts;
        p.stats.propagations = stats.propagations;
        p.stats.restarts = stats.restarts;
        p.stats.learned_literals = stats.learned_literals;
        p.stats.solves = stats.solves;
        p.stats.deadline_hit = stats.deadline_hit;
        p.stats.iis_tried = stats.iis_tried;
        p.stats.solve_time = stats.solve_time;
        p.stats.alloc_ns = p.stats.alloc_ns.saturating_add(stats.alloc_ns);
    }
    r
}

/// What one II attempt concluded.
enum IiOutcome {
    /// A model, and whether the solve ran without budget truncation
    /// (`true` ⇒ an UNSAT verdict at this II would also have been found).
    Schedule(Schedule, bool),
    /// Proven unsatisfiable at this II (within the shared horizon).
    ProvenUnsat,
    /// Budget ran out first.
    Unknown,
}

/// Encode and solve one II, folding solver work into `stats` and the
/// telemetry counters.
fn solve_at_ii(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    opts: &SatOptions,
    loop_deadline: Option<Instant>,
    stats: &mut SatStats,
) -> IiOutcome {
    let Some(inst) = encode::build(lp, ddg, machine, ii) else {
        // Positive dependence cycle or an empty longest-path window: a
        // structural UNSAT proof, no search needed.
        return IiOutcome::ProvenUnsat;
    };
    let solve_deadline = opts.time_limit.map(|d| Instant::now() + d);
    let deadline = match (solve_deadline, loop_deadline) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let budget = SolveBudget {
        conflict_limit: opts.conflict_limit,
        propagation_limit: opts.propagation_limit,
        deadline,
    };
    let mut solver = Solver::new(&inst);
    stats.solves += 1;
    let outcome = solver.solve(&budget);
    stats.decisions += solver.stats.decisions;
    stats.conflicts += solver.stats.conflicts;
    stats.propagations += solver.stats.propagations;
    stats.restarts += solver.stats.restarts;
    stats.learned_literals += solver.stats.learned_literals;
    swp_obs::count(swp_obs::Counter::SatDecisions, solver.stats.decisions);
    swp_obs::count(swp_obs::Counter::SatConflicts, solver.stats.conflicts);
    swp_obs::count(swp_obs::Counter::SatPropagations, solver.stats.propagations);
    swp_obs::count(swp_obs::Counter::SatRestarts, solver.stats.restarts);
    swp_obs::count(
        swp_obs::Counter::SatLearnedLiterals,
        solver.stats.learned_literals,
    );
    match outcome {
        SolveOutcome::Sat(mut times) => {
            // The model is an arbitrary feasible point; shrink its def-use
            // spans so the coloring allocator sees MOST-like pressure
            // (see `compact`). Without this, loops MOST only schedules
            // thanks to buffer minimization fail allocation here and the
            // two backends diverge on achieved II.
            compact::compact(&inst, ddg, &mut times);
            IiOutcome::Schedule(Schedule::new(ii, times), true)
        }
        SolveOutcome::Unsat => IiOutcome::ProvenUnsat,
        SolveOutcome::Unknown { deadline_hit } => {
            stats.deadline_hit |= deadline_hit;
            IiOutcome::Unknown
        }
    }
}

/// The same arrangement as MOST's §4.4 fallback: when the optimal method
/// cannot schedule in time, hand the loop to the heuristic pipeliner.
fn fallback_or_fail(
    lp: &Loop,
    machine: &Machine,
    opts: &SatOptions,
    min_ii: u32,
    max_ii: u32,
    deadline_hit: bool,
) -> Result<SatPipelined, SatError> {
    if opts.fallback {
        if let Ok(h) = swp_heur::pipeline(lp, machine, &HeurOptions::default()) {
            swp_obs::count(swp_obs::Counter::SatFallbacks, 1);
            let stats = SatStats {
                fell_back: true,
                deadline_hit,
                alloc_ns: h.stats.alloc_ns,
                ..SatStats::default()
            };
            return Ok(SatPipelined {
                body: h.body,
                schedule: h.schedule,
                allocation: h.allocation,
                stats,
            });
        }
    }
    Err(SatError::NoSchedule {
        min_ii,
        max_ii,
        deadline_hit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swp_ir::LoopBuilder;

    fn saxpy() -> Loop {
        let mut b = LoopBuilder::new("saxpy");
        let a = b.invariant_f("a");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let r = b.fmadd(a, xv, yv);
        b.store(y, 0, 8, r);
        b.finish()
    }

    fn dot() -> Loop {
        let mut b = LoopBuilder::new("dot");
        let x = b.array("x", 8);
        let y = b.array("y", 8);
        let xv = b.load(x, 0, 8);
        let yv = b.load(y, 0, 8);
        let s = b.carried_f("s");
        let s1 = b.fmadd(xv, yv, s.value());
        b.close(s, s1, 1);
        b.finish()
    }

    #[test]
    fn sat_matches_min_ii_on_saxpy() {
        let m = Machine::r8000();
        let r = pipeline_sat(&saxpy(), &m, &SatOptions::default()).expect("schedules");
        assert_eq!(r.ii(), 2);
        assert!(r.stats.optimal_ii);
        assert!(!r.stats.fell_back);
    }

    #[test]
    fn sat_agrees_with_most_ii() {
        let m = Machine::r8000();
        for lp in [saxpy(), dot()] {
            let sat = pipeline_sat(&lp, &m, &SatOptions::default()).expect("sat");
            let most =
                swp_most::pipeline_most(&lp, &m, &swp_most::MostOptions::default()).expect("most");
            assert_eq!(sat.ii(), most.ii(), "loop {}", lp.name());
            assert!(!sat.stats.fell_back);
        }
    }

    #[test]
    fn below_min_ii_is_proven_unsat() {
        // The recurrence in `dot` forces RecMII; the solver must prove
        // UNSAT (not time out) strictly below MinII.
        let m = Machine::r8000();
        let lp = dot();
        let ddg = Ddg::build(&lp, &m);
        let min_ii = ddg.min_ii();
        assert!(min_ii > 1);
        let mut stats = SatStats::default();
        let opts = SatOptions {
            time_limit: None,
            loop_time_limit: None,
            ..SatOptions::default()
        };
        let out = solve_at_ii(&lp, &ddg, &m, min_ii - 1, &opts, None, &mut stats);
        assert!(matches!(out, IiOutcome::ProvenUnsat));
    }

    #[test]
    fn conflict_budget_truncates_deterministically() {
        // A conflict budget is a pure work measure: two runs of the same
        // input must do identical work and never set the wall-clock flag.
        let m = Machine::r8000();
        let opts = SatOptions {
            conflict_limit: 3,
            propagation_limit: 500,
            time_limit: None,
            loop_time_limit: None,
            fallback: false,
            ..SatOptions::default()
        };
        let a = pipeline_sat(&dot(), &m, &opts);
        let b = pipeline_sat(&dot(), &m, &opts);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.stats.propagations, y.stats.propagations);
                assert_eq!(x.stats.conflicts, y.stats.conflicts);
                assert_eq!(x.schedule.times(), y.schedule.times());
                assert!(!x.stats.deadline_hit);
                assert!(!y.stats.deadline_hit);
            }
            (Err(x), Err(y)) => {
                assert_eq!(x, y);
                assert!(matches!(
                    x,
                    SatError::NoSchedule {
                        deadline_hit: false,
                        ..
                    }
                ));
            }
            (a, b) => panic!("runs disagreed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn fallback_engages_when_budget_exhausted() {
        let m = Machine::r8000();
        let opts = SatOptions {
            conflict_limit: 0,
            propagation_limit: 0,
            time_limit: None,
            ..SatOptions::default()
        };
        let r = pipeline_sat(&saxpy(), &m, &opts).expect("fallback rescues");
        assert!(r.stats.fell_back);
        let ddg = Ddg::build(&r.body, &m);
        assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
    }

    #[test]
    fn empty_loop_is_error() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("e").finish();
        assert!(matches!(
            pipeline_sat(&lp, &m, &SatOptions::default()),
            Err(SatError::EmptyLoop)
        ));
    }
}
