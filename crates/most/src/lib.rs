//! MOST — the McGill "optimal" ILP-based software pipeliner (§3 of the
//! paper), embedded exactly as the study embedded it in MIPSpro:
//!
//! 1. at each II (starting from MinII), solve the **resource-constrained**
//!    scheduling ILP first (§3.3 adjustment 1 — the integrated
//!    formulation was "just too slow"),
//! 2. re-solve with the **buffer-minimization objective** and accept the
//!    best incumbent when the budget runs out (§3.3 adjustment 2),
//! 3. drive the solver's branch-and-bound with the **same multiple
//!    priority orders** as the SGI scheduler (§3.3 adjustment 3 — "by far
//!    the most important factor"),
//! 4. register-allocate the result with the standard coloring allocator
//!    (the \[NiGa93\] flow: rate-optimal schedule, then coloring), and
//! 5. optionally **fall back to the heuristic pipeliner** when MOST cannot
//!    schedule in time (§4.4's experimental setup).
//!
//! # Examples
//!
//! ```
//! use swp_most::{pipeline_most, MostOptions};
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
//! let r = pipeline_most(&lp, &m, &MostOptions::default()).expect("schedules");
//! assert!(!r.stats.fell_back);
//! assert!(r.schedule.ii() >= 1);
//! ```

mod formulation;

pub use formulation::{build_model, Objective, SchedulingModel};

use std::time::{Duration, Instant};
use swp_heur::{priority_list, HeurOptions, PriorityHeuristic};
use swp_ilp::{solve_ilp, SolveOptions, Status};
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_regalloc::{allocate, AllocOutcome, Allocation};

/// Controls for the MOST pipeliner.
#[derive(Debug, Clone)]
pub struct MostOptions {
    /// Minimize buffers after establishing feasibility (§3.3 adj. 2);
    /// `false` stops at the first feasible schedule.
    pub minimize_buffers: bool,
    /// Node budget per ILP solve (deterministic; tests rely on this).
    pub node_limit: u64,
    /// Simplex pivot budget per ILP solve. Like `node_limit` this is a
    /// deterministic measure of work — identical inputs truncate at
    /// identical points regardless of host load — but it bounds work at a
    /// much finer grain: a single pathological node LP cannot eat the
    /// whole budget unnoticed.
    pub pivot_limit: u64,
    /// Wall-clock budget per ILP solve. The study used 3 minutes (§3.3).
    pub time_limit: Option<Duration>,
    /// Drive branching with the SGI priority orders (§3.3 adj. 3).
    pub use_priority_orders: bool,
    /// `MaxII = max_ii_factor × MinII`, as for the heuristic pipeliner.
    pub max_ii_factor: u32,
    /// Fall back to the heuristic pipeliner when MOST fails (§4.4).
    pub fallback: bool,
    /// Overall wall-clock budget for the whole II search on one loop (the
    /// paper's three-minute regime was per search; this caps the loop).
    pub loop_time_limit: Option<Duration>,
    /// Deterministic analogue of [`loop_time_limit`](Self::loop_time_limit):
    /// total simplex pivots across the whole II ladder. Once the ladder
    /// has spent this many pivots, no further II is attempted (the solve
    /// in flight still completes, so the overshoot is at most one
    /// `pivot_limit`). Without it, a loop whose schedules keep failing
    /// register allocation retries every II up to MaxII at full budget —
    /// and the only way to bound that was wall clock, which quick budgets
    /// must not depend on.
    pub loop_pivot_limit: Option<u64>,
    /// Loops larger than this are not attempted by the ILP at all — §5.0
    /// reports MOST's practical ceiling at 61 operations; beyond it the
    /// solves only burn their full budgets before failing.
    pub max_ops: usize,
}

impl Default for MostOptions {
    fn default() -> MostOptions {
        MostOptions {
            minimize_buffers: true,
            node_limit: 200_000,
            pivot_limit: 10_000_000,
            time_limit: Some(Duration::from_secs(180)),
            use_priority_orders: true,
            max_ii_factor: 2,
            fallback: true,
            loop_time_limit: Some(Duration::from_secs(180)),
            loop_pivot_limit: None,
            max_ops: 80,
        }
    }
}

impl MostOptions {
    /// Small deterministic budgets: node and pivot counts only, every
    /// wall-clock limit off, so results are identical on any host at any
    /// load. Tests, CI gates, the quick experiments and the compile
    /// service run MOST this way.
    pub fn quick() -> MostOptions {
        MostOptions {
            node_limit: 20_000,
            pivot_limit: 400_000,
            time_limit: None,
            loop_time_limit: None,
            // ~3 full solves' worth of pivots across all IIs tried for one
            // loop, so a loop whose schedules keep failing allocation
            // cannot grind through every II to MaxII at full budget.
            loop_pivot_limit: Some(1_200_000),
            max_ops: 64,
            ..MostOptions::default()
        }
    }

    /// The same budgets with the internal heuristic fallback disabled.
    /// The degradation ladder runs MOST this way: demotion to the
    /// heuristic is the ladder's job, and keeping the fallback inside
    /// MOST would blur which rung actually produced a schedule.
    pub fn without_fallback(&self) -> MostOptions {
        MostOptions {
            fallback: false,
            ..self.clone()
        }
    }
}

/// Statistics of a MOST run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MostStats {
    /// MinII of the loop.
    pub min_ii: u32,
    /// Branch-and-bound nodes across all solves.
    pub nodes: u64,
    /// Simplex pivots across all solves (the deterministic work measure).
    pub pivots: u64,
    /// ILP solves performed.
    pub solves: u32,
    /// Whether any wall-clock deadline truncated the search. A result
    /// carrying this flag depends on host load and is *not* reproducible;
    /// the schedule cache refuses to memoize such results.
    pub deadline_hit: bool,
    /// Whether the achieved II equals MinII with a completed search
    /// (a certificate of rate-optimality).
    pub optimal_ii: bool,
    /// Total FIFO buffers of the accepted schedule, when minimized.
    pub buffers: Option<u32>,
    /// Whether the heuristic fallback produced the result.
    pub fell_back: bool,
    /// IIs probed.
    pub iis_tried: Vec<u32>,
    /// Wall-clock time spent in ILP solving.
    pub solve_time: Duration,
    /// Nanoseconds spent in register allocation (including the
    /// fallback's allocation attempts, when it ran).
    pub alloc_ns: u64,
}

/// A loop pipelined by MOST (or its heuristic fallback).
#[derive(Debug, Clone)]
pub struct MostPipelined {
    /// The scheduled body (identical to the input unless the fallback
    /// spilled).
    pub body: Loop,
    /// The accepted schedule.
    pub schedule: Schedule,
    /// A valid register allocation.
    pub allocation: Allocation,
    /// Run statistics.
    pub stats: MostStats,
}

impl MostPipelined {
    /// The achieved II.
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }
}

/// Why MOST (and its fallback, if enabled) failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MostError {
    /// The loop body is empty.
    EmptyLoop,
    /// No schedule found up to MaxII and the fallback was disabled or
    /// failed too.
    NoSchedule {
        /// MinII bound.
        min_ii: u32,
        /// MaxII bound.
        max_ii: u32,
        /// Whether a wall-clock deadline truncated the search. When set,
        /// the failure is host-load-dependent (retrying may succeed); the
        /// schedule cache never memoizes it.
        deadline_hit: bool,
    },
}

impl std::fmt::Display for MostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MostError::EmptyLoop => write!(f, "cannot pipeline an empty loop"),
            MostError::NoSchedule {
                min_ii,
                max_ii,
                deadline_hit,
            } => {
                write!(f, "MOST found no schedule in II range [{min_ii}, {max_ii}]")?;
                if *deadline_hit {
                    write!(f, " (wall-clock deadline hit; result is host-dependent)")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MostError {}

/// Pipeline a loop with the ILP method, §3-style.
///
/// # Errors
///
/// [`MostError::EmptyLoop`] on empty bodies, [`MostError::NoSchedule`]
/// when nothing (including the fallback) works.
pub fn pipeline_most(
    lp: &Loop,
    machine: &Machine,
    opts: &MostOptions,
) -> Result<MostPipelined, MostError> {
    if lp.is_empty() {
        return Err(MostError::EmptyLoop);
    }
    if lp.len() > opts.max_ops {
        return fallback_or_fail(lp, machine, opts, 0, 0, false);
    }
    let ddg = Ddg::build(lp, machine);
    let min_ii = ddg.min_ii();
    let max_ii = (min_ii * opts.max_ii_factor.max(1)).max(min_ii + 1);
    let mut stats = MostStats {
        min_ii,
        ..MostStats::default()
    };

    let orders: Vec<Vec<swp_ir::OpId>> = if opts.use_priority_orders {
        PriorityHeuristic::ALL
            .iter()
            .map(|&h| priority_list(lp, &ddg, machine, h))
            .collect()
    } else {
        vec![lp.ops().iter().map(|o| o.id).collect()]
    };

    let started = Instant::now();
    let loop_deadline = opts.loop_time_limit.map(|d| started + d);
    for ii in min_ii..=max_ii {
        if loop_deadline.is_some_and(|d| Instant::now() >= d) {
            stats.deadline_hit = true;
            break;
        }
        if opts.loop_pivot_limit.is_some_and(|l| stats.pivots >= l) {
            break;
        }
        stats.iis_tried.push(ii);
        swp_obs::count(swp_obs::Counter::MostIiSteps, 1);
        let step_span = swp_obs::span("most.ii_step").with_i("ii", i64::from(ii));
        let solved = solve_at_ii(lp, &ddg, machine, ii, opts, &orders, &mut stats);
        drop(step_span);
        if let Some((schedule, buffers, complete)) = solved {
            debug_assert_eq!(schedule.validate(lp, &ddg, machine), Ok(()));
            let (outcome, alloc_ns) =
                swp_obs::timed_ns("regalloc.attempt", || allocate(lp, &schedule, machine));
            stats.alloc_ns = stats.alloc_ns.saturating_add(alloc_ns);
            match outcome {
                AllocOutcome::Allocated(allocation) => {
                    stats.optimal_ii = ii == min_ii && complete;
                    stats.buffers = buffers;
                    stats.solve_time = started.elapsed();
                    return Ok(MostPipelined {
                        body: lp.clone(),
                        schedule,
                        allocation,
                        stats,
                    });
                }
                AllocOutcome::Failed { .. } => {
                    // MOST has no spilling; try a larger II (more slack,
                    // fewer overlapped stages) before falling back.
                    continue;
                }
            }
        }
    }
    stats.solve_time = started.elapsed();
    let mut r = fallback_or_fail(lp, machine, opts, min_ii, max_ii, stats.deadline_hit);
    if let Ok(p) = &mut r {
        p.stats.min_ii = stats.min_ii;
        p.stats.nodes = stats.nodes;
        p.stats.pivots = stats.pivots;
        p.stats.solves = stats.solves;
        p.stats.deadline_hit = stats.deadline_hit;
        p.stats.iis_tried = stats.iis_tried;
        p.stats.solve_time = stats.solve_time;
        p.stats.alloc_ns = p.stats.alloc_ns.saturating_add(stats.alloc_ns);
    }
    r
}

/// §4.4: "instead of falling back to the single block scheduler … it
/// instead falls back to the MIPSpro pipeliner itself."
fn fallback_or_fail(
    lp: &Loop,
    machine: &Machine,
    opts: &MostOptions,
    min_ii: u32,
    max_ii: u32,
    deadline_hit: bool,
) -> Result<MostPipelined, MostError> {
    if opts.fallback {
        if let Ok(h) = swp_heur::pipeline(lp, machine, &HeurOptions::default()) {
            swp_obs::count(swp_obs::Counter::MostFallbacks, 1);
            let stats = MostStats {
                fell_back: true,
                deadline_hit,
                alloc_ns: h.stats.alloc_ns,
                ..MostStats::default()
            };
            return Ok(MostPipelined {
                body: h.body,
                schedule: h.schedule,
                allocation: h.allocation,
                stats,
            });
        }
    }
    Err(MostError::NoSchedule {
        min_ii,
        max_ii,
        deadline_hit,
    })
}

/// Solve one II: feasibility first, then optional buffer minimization.
/// Returns `(schedule, buffers, search_complete)`.
fn solve_at_ii(
    lp: &Loop,
    ddg: &Ddg,
    machine: &Machine,
    ii: u32,
    opts: &MostOptions,
    orders: &[Vec<swp_ir::OpId>],
    stats: &mut MostStats,
) -> Option<(Schedule, Option<u32>, bool)> {
    // Adjustment 1: resource-constrained feasibility as a filter.
    let feas_model = build_model(lp, ddg, machine, ii, Objective::Feasibility);
    let mut feasible: Option<(Vec<f64>, bool)> = None;
    for order in orders {
        let solve_opts = SolveOptions {
            stop_at_first: true,
            node_limit: opts.node_limit,
            pivot_limit: opts.pivot_limit,
            time_limit: opts.time_limit,
            branch_order: Some(feas_model.branch_order(order)),
            // Fixing the LP-preferred a[i][t] to 1 first turns the DFS
            // dive into a priority-guided list scheduler (see
            // SolveOptions docs).
            branch_groups: Some(feas_model.branch_groups(order)),
            branch_up_first: true,
            ..SolveOptions::default()
        };
        stats.solves += 1;
        let r = solve_ilp(&feas_model.model, &solve_opts);
        stats.nodes += r.nodes;
        stats.pivots += r.pivots;
        stats.deadline_hit |= r.deadline_hit;
        match r.status {
            Status::Optimal | Status::Feasible => {
                let complete = r.status == Status::Optimal || r.solution.is_some();
                feasible = Some((
                    r.solution.expect("status implies solution").values,
                    complete,
                ));
                break;
            }
            Status::Infeasible => {
                // Proven infeasible: no other order will change that.
                return None;
            }
            Status::Unknown => continue, // try the next priority order
        }
    }
    let (feas_values, complete) = feasible?;

    if !opts.minimize_buffers {
        let times = feas_model.extract_times(&feas_values);
        return Some((Schedule::new(ii, times), None, complete));
    }

    // Adjustment 2: buffer minimization, accepting the best incumbent.
    let buf_model = build_model(lp, ddg, machine, ii, Objective::MinBuffers);
    let mut best: Option<(Vec<f64>, Option<u32>)> = None;
    for order in orders {
        let solve_opts = SolveOptions {
            node_limit: opts.node_limit,
            pivot_limit: opts.pivot_limit,
            time_limit: opts.time_limit,
            branch_order: Some(buf_model.branch_order(order)),
            branch_groups: Some(buf_model.branch_groups(order)),
            branch_up_first: true,
            // Seed the search with the feasibility schedule (extended by
            // its implied buffer counts — the two models share the
            // schedule-variable prefix): the solve starts with an
            // incumbent and an armed cutoff, while branching stays
            // LP-guided. Steering the dive toward this solution instead
            // would anchor a truncated search at the feasibility dive's
            // sprawled leaf, which is usually far worse than where the
            // buffer relaxation points.
            warm_start: Some(buf_model.warm_start_from(lp, &feas_values)),
            ..SolveOptions::default()
        };
        stats.solves += 1;
        let r = solve_ilp(&buf_model.model, &solve_opts);
        stats.nodes += r.nodes;
        stats.pivots += r.pivots;
        stats.deadline_hit |= r.deadline_hit;
        if let Some(sol) = r.solution {
            let buffers = buf_model.total_buffers(&sol.values);
            best = Some((sol.values, buffers));
            break;
        }
        if r.status == Status::Infeasible {
            break; // cannot happen if feasibility held; defensive
        }
    }
    match best {
        Some((values, buffers)) => {
            let times = buf_model.extract_times(&values);
            Some((Schedule::new(ii, times), buffers, complete))
        }
        None => {
            // Accept the feasibility schedule (the paper's "if any").
            let times = feas_model.extract_times(&feas_values);
            Some((Schedule::new(ii, times), None, complete))
        }
    }
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

    #[test]
    fn most_matches_min_ii_on_saxpy() {
        let m = Machine::r8000();
        let r = pipeline_most(&saxpy(), &m, &MostOptions::default()).expect("schedules");
        assert_eq!(r.ii(), 2);
        assert!(r.stats.optimal_ii);
        assert!(!r.stats.fell_back);
    }

    #[test]
    fn most_agrees_with_heuristic_ii() {
        // The paper's headline: the optimal technique only very rarely
        // beats the heuristic II. They must agree on these loops.
        let m = Machine::r8000();
        let mk_loops: Vec<Loop> = vec![saxpy(), {
            let mut b = LoopBuilder::new("dot");
            let x = b.array("x", 8);
            let y = b.array("y", 8);
            let xv = b.load(x, 0, 8);
            let yv = b.load(y, 0, 8);
            let s = b.carried_f("s");
            let s1 = b.fmadd(xv, yv, s.value());
            b.close(s, s1, 1);
            b.finish()
        }];
        for lp in mk_loops {
            let most = pipeline_most(&lp, &m, &MostOptions::default()).expect("most");
            let heur =
                swp_heur::pipeline(&lp, &m, &swp_heur::HeurOptions::default()).expect("heur");
            assert_eq!(most.ii(), heur.ii(), "loop {}", lp.name());
        }
    }

    #[test]
    fn no_fallback_and_tiny_budget_reports_failure_or_succeeds() {
        let m = Machine::r8000();
        let opts = MostOptions {
            node_limit: 1,
            fallback: false,
            time_limit: None,
            ..MostOptions::default()
        };
        // With a 1-node budget per solve the search is truncated; the
        // result must be an explicit error, never a bogus schedule.
        match pipeline_most(&saxpy(), &m, &opts) {
            Ok(r) => {
                let ddg = Ddg::build(&r.body, &m);
                assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
            }
            Err(MostError::NoSchedule { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn fallback_engages_when_budget_exhausted() {
        let m = Machine::r8000();
        let opts = MostOptions {
            node_limit: 1,
            time_limit: None,
            ..MostOptions::default()
        };
        let r = pipeline_most(&saxpy(), &m, &opts).expect("fallback rescues");
        assert!(r.stats.fell_back);
        let ddg = Ddg::build(&r.body, &m);
        assert_eq!(r.schedule.validate(&r.body, &ddg, &m), Ok(()));
    }

    #[test]
    fn pivot_budget_truncates_deterministically() {
        // A pivot budget is a pure work measure: two runs of the same
        // input must do identical work and never set the wall-clock flag.
        let m = Machine::r8000();
        let opts = MostOptions {
            pivot_limit: 40,
            time_limit: None,
            loop_time_limit: None,
            fallback: false,
            ..MostOptions::default()
        };
        let a = pipeline_most(&saxpy(), &m, &opts);
        let b = pipeline_most(&saxpy(), &m, &opts);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.stats.pivots, y.stats.pivots);
                assert_eq!(x.stats.nodes, y.stats.nodes);
                assert!(!x.stats.deadline_hit);
                assert!(!y.stats.deadline_hit);
            }
            (Err(x), Err(y)) => {
                assert_eq!(x, y);
                assert!(matches!(
                    x,
                    MostError::NoSchedule {
                        deadline_hit: false,
                        ..
                    }
                ));
            }
            (a, b) => panic!("runs disagreed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn empty_loop_is_error() {
        let m = Machine::r8000();
        let lp = LoopBuilder::new("e").finish();
        assert!(matches!(
            pipeline_most(&lp, &m, &MostOptions::default()),
            Err(MostError::EmptyLoop)
        ));
    }

    #[test]
    fn buffer_minimization_does_not_worsen_ii() {
        let m = Machine::r8000();
        let with = pipeline_most(&saxpy(), &m, &MostOptions::default()).expect("with");
        let without = pipeline_most(
            &saxpy(),
            &m,
            &MostOptions {
                minimize_buffers: false,
                ..MostOptions::default()
            },
        )
        .expect("without");
        assert_eq!(with.ii(), without.ii());
        assert!(with.stats.buffers.is_some());
    }
}
