//! The scheduling core. Every compile path — a direct compile, a ladder
//! rung, a portfolio backend — runs its scheduler through [`schedule`] and
//! turns the product into a [`CompiledLoop`] through [`finish`], so each
//! engine has exactly one call site and the compile statistics have
//! exactly one constructor.

use crate::compile::{CompileError, CompileStats, CompiledLoop};
use crate::ladder::Rung;
use std::borrow::Cow;
use swp_codegen::{list_schedule, PipelinedLoop};
use swp_heur::{HeurOptions, PipelineError};
use swp_ir::{Ddg, Loop, Schedule};
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_regalloc::{allocate, AllocOutcome, Allocation};
use swp_sat::SatOptions;

/// One scheduling engine with its options.
pub(crate) enum Backend<'a> {
    /// The SGI-style heuristic modulo scheduler (§2).
    Heuristic(Cow<'a, HeurOptions>),
    /// The MOST ILP pipeliner (§3).
    Ilp(Cow<'a, MostOptions>),
    /// The CDCL difference-logic pipeliner.
    Sat(Cow<'a, SatOptions>),
    /// The §4.1 list schedule viewed as a modulo schedule whose II is the
    /// whole sequential iteration: every op sits in stage 0, so the
    /// expansion degenerates to a one-iteration kernel that the auditors
    /// can still certify and the simulator can still run.
    Sequential,
}

impl Backend<'_> {
    /// Trace span of the backend call.
    fn span(&self) -> &'static str {
        match self {
            Backend::Heuristic(_) => "sched.heur",
            Backend::Ilp(_) => "sched.ilp",
            Backend::Sat(_) => "sched.sat",
            Backend::Sequential => "sched.sequential",
        }
    }
}

/// A backend's product before expansion: the scheduled body plus the
/// backend's work and quality measures, in [`CompileStats`] terms.
pub(crate) struct Scheduled {
    body: Loop,
    schedule: Schedule,
    allocation: Allocation,
    min_ii: u32,
    fell_back: bool,
    optimal: bool,
    search_effort: u64,
    pivots: u64,
    deadline_hit: bool,
    spills: u32,
    alloc_ns: u64,
    /// MOST's minimized FIFO buffer total, observed by [`finish`] on the
    /// thread that owns the telemetry collector.
    buffers: Option<u32>,
    /// Wall time of the whole backend call, register allocation included.
    wall_ns: u64,
}

impl Scheduled {
    /// A product with no search statistics beyond MinII and allocation
    /// time; the backends fill in what they measure.
    fn new(
        body: Loop,
        schedule: Schedule,
        allocation: Allocation,
        min_ii: u32,
        alloc_ns: u64,
    ) -> Scheduled {
        Scheduled {
            body,
            schedule,
            allocation,
            min_ii,
            fell_back: false,
            optimal: false,
            search_effort: 0,
            pivots: 0,
            deadline_hit: false,
            spills: 0,
            alloc_ns,
            buffers: None,
            wall_ns: 0,
        }
    }
}

/// Run one backend on `lp`. Nothing is expanded and nothing but the
/// backend's own telemetry is recorded, so the portfolio may try several
/// backends and [`finish`] only the one it ships.
///
/// # Errors
///
/// The backend's own failure, mapped onto [`CompileError`].
pub(crate) fn schedule(
    backend: &Backend<'_>,
    lp: &Loop,
    machine: &Machine,
) -> Result<Scheduled, CompileError> {
    let (result, wall_ns) = swp_obs::timed_ns(backend.span(), || run(backend, lp, machine));
    let mut scheduled = result?;
    scheduled.wall_ns = wall_ns;
    Ok(scheduled)
}

fn run(backend: &Backend<'_>, lp: &Loop, machine: &Machine) -> Result<Scheduled, CompileError> {
    Ok(match backend {
        Backend::Heuristic(opts) => {
            let p = swp_heur::pipeline(lp, machine, opts).map_err(CompileError::Heuristic)?;
            Scheduled {
                search_effort: u64::from(p.stats.backtracks),
                spills: p.stats.spills,
                ..Scheduled::new(
                    p.body,
                    p.schedule,
                    p.allocation,
                    p.stats.min_ii,
                    p.stats.alloc_ns,
                )
            }
        }
        Backend::Ilp(opts) => {
            let p = swp_most::pipeline_most(lp, machine, opts).map_err(CompileError::Ilp)?;
            Scheduled {
                fell_back: p.stats.fell_back,
                optimal: p.stats.optimal_ii,
                search_effort: p.stats.nodes,
                pivots: p.stats.pivots,
                deadline_hit: p.stats.deadline_hit,
                buffers: p.stats.buffers,
                ..Scheduled::new(
                    p.body,
                    p.schedule,
                    p.allocation,
                    p.stats.min_ii,
                    p.stats.alloc_ns,
                )
            }
        }
        Backend::Sat(opts) => {
            let p = swp_sat::pipeline_sat(lp, machine, opts).map_err(CompileError::Sat)?;
            Scheduled {
                fell_back: p.stats.fell_back,
                optimal: p.stats.optimal_ii,
                search_effort: p.stats.conflicts,
                pivots: p.stats.propagations,
                deadline_hit: p.stats.deadline_hit,
                ..Scheduled::new(
                    p.body,
                    p.schedule,
                    p.allocation,
                    p.stats.min_ii,
                    p.stats.alloc_ns,
                )
            }
        }
        Backend::Sequential => {
            if lp.is_empty() {
                return Err(CompileError::Heuristic(PipelineError::EmptyLoop));
            }
            let ddg = Ddg::build(lp, machine);
            let schedule = list_schedule(lp, &ddg, machine).as_schedule();
            let (outcome, alloc_ns) =
                swp_obs::timed_ns("regalloc.attempt", || allocate(lp, &schedule, machine));
            let AllocOutcome::Allocated(allocation) = outcome else {
                // Unreachable for machine-sized loops (one non-overlapped
                // iteration has minimal pressure), but a structured error
                // beats a panic if a generated loop ever proves otherwise.
                return Err(CompileError::Internal {
                    rung: Some(Rung::Sequential),
                    message: "sequential rung: register allocation failed".to_owned(),
                });
            };
            Scheduled::new(lp.clone(), schedule, allocation, ddg.min_ii(), alloc_ns)
        }
    })
}

/// Expand a scheduled loop and assemble its compile result. The only
/// place that expands, observes [`swp_obs::Histo::Buffers`] and builds
/// [`CompileStats`].
pub(crate) fn finish(s: Scheduled) -> CompiledLoop {
    if let Some(buffers) = s.buffers {
        swp_obs::observe(swp_obs::Histo::Buffers, u64::from(buffers));
    }
    let (code, expand_ns) = swp_obs::timed_ns("expand", || {
        PipelinedLoop::expand(&s.body, &s.schedule, &s.allocation)
    });
    CompiledLoop {
        stats: CompileStats {
            min_ii: s.min_ii,
            ii: code.ii(),
            fell_back: s.fell_back,
            optimal: s.optimal,
            search_effort: s.search_effort,
            pivots: s.pivots,
            deadline_hit: s.deadline_hit,
            opt_passes: Vec::new(),
            spills: s.spills,
            driver_threads: crate::par::driver_threads_hint(),
            sched_ns: s.wall_ns.saturating_sub(s.alloc_ns),
            alloc_ns: s.alloc_ns,
            expand_ns,
        },
        code,
        audit: None,
        rung: None,
        attempts: Vec::new(),
    }
}
