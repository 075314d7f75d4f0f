//! Portfolio: try the backends in priority order, ship the first success.
//!
//! The paper's production arrangement is sequential (§4.4): MOST runs
//! under a limit, and the heuristic pipeliner runs only if MOST fails.
//! The portfolio generalises it to the ladder's first three rungs — ILP,
//! then SAT, then the heuristic, each with its internal fallback off,
//! because the next backend *is* the fallback — and stops at the first
//! success. It has no verify gate, escalation or sequential last resort;
//! that is the ladder's job.
//!
//! The winner is decided by fixed priority alone (ILP > SAT > heuristic),
//! so the shipped code is bit-identical across hosts and driver thread
//! counts, up to the backends' own wall-clock budgets, which taint
//! results via `deadline_hit` exactly as in direct compiles. Everything
//! runs on the calling thread, so the backends' counters and spans land
//! on the caller's telemetry collector, next to the portfolio's own
//! (`portfolio.races`, `portfolio.winner.*`).

use crate::backend::{finish, schedule, Backend};
use crate::compile::{CompileError, CompiledLoop};
use crate::ladder::Rung;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use swp_heur::HeurOptions;
use swp_ir::Loop;
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_sat::SatOptions;

/// Configuration of one portfolio compile.
#[derive(Debug, Clone)]
pub struct PortfolioOptions {
    /// Try the MOST ILP backend (priority 0).
    pub use_ilp: bool,
    /// Try the CDCL SAT backend (priority 1).
    pub use_sat: bool,
    /// Try the heuristic pipeliner (priority 2).
    pub use_heur: bool,
    /// ILP budgets (internal fallback forced off; the lower-priority
    /// backends play that role).
    pub most: MostOptions,
    /// SAT budgets (internal fallback forced off, ditto).
    pub sat: SatOptions,
    /// Heuristic budgets.
    pub heur: HeurOptions,
}

impl Default for PortfolioOptions {
    fn default() -> PortfolioOptions {
        PortfolioOptions {
            use_ilp: true,
            use_sat: true,
            use_heur: true,
            most: MostOptions::default(),
            sat: SatOptions::default(),
            heur: HeurOptions::default(),
        }
    }
}

/// The enabled backends in priority order: the rungs the ladder would
/// try first, with internal fallbacks off.
fn backends(opts: &PortfolioOptions) -> Vec<(Rung, Backend<'_>)> {
    let mut backends = Vec::new();
    if opts.use_ilp {
        let most = opts.most.without_fallback();
        backends.push((Rung::Ilp, Backend::Ilp(Cow::Owned(most))));
    }
    if opts.use_sat {
        let sat = opts.sat.without_fallback();
        backends.push((Rung::Sat, Backend::Sat(Cow::Owned(sat))));
    }
    if opts.use_heur {
        backends.push((
            Rung::Heuristic,
            Backend::Heuristic(Cow::Borrowed(&opts.heur)),
        ));
    }
    backends
}

/// Try the enabled backends in priority order and ship the first success.
///
/// # Errors
///
/// When every backend fails, the highest-priority backend's error is
/// returned. [`CompileError::Internal`] when no backend is enabled, or
/// when the top-priority backend panicked and none below it succeeded.
pub fn compile_portfolio(
    lp: &Loop,
    machine: &Machine,
    opts: &PortfolioOptions,
) -> Result<CompiledLoop, CompileError> {
    let backends = backends(opts);
    if backends.is_empty() {
        return Err(CompileError::Internal {
            rung: None,
            message: "portfolio: no backends enabled".to_owned(),
        });
    }
    swp_obs::count(swp_obs::Counter::PortfolioRaces, 1);
    let _span = swp_obs::span("portfolio")
        .with_s("loop", lp.name())
        .with_i("backends", backends.len() as i64);

    let mut top_error = None;
    // A deadline-truncated failure above the winner makes which backend
    // won host-dependent; taint the result so the cache skips it.
    let mut outranked_by_deadline = false;
    for (rung, backend) in &backends {
        let result = catch_unwind(AssertUnwindSafe(|| schedule(backend, lp, machine)))
            .unwrap_or_else(|payload| {
                Err(CompileError::Internal {
                    rung: Some(*rung),
                    message: crate::ladder::panic_message(payload.as_ref()),
                })
            });
        match result {
            Ok(scheduled) => {
                swp_obs::count(
                    match rung {
                        Rung::Ilp => swp_obs::Counter::PortfolioWinnerIlp,
                        Rung::Sat => swp_obs::Counter::PortfolioWinnerSat,
                        _ => swp_obs::Counter::PortfolioWinnerHeuristic,
                    },
                    1,
                );
                let winner_span = swp_obs::span("portfolio.winner").with_s("backend", rung.name());
                let mut compiled = finish(scheduled);
                drop(winner_span);
                compiled.stats.deadline_hit |= outranked_by_deadline;
                compiled.rung = Some(*rung);
                return Ok(compiled);
            }
            Err(e) => {
                outranked_by_deadline |= e.deadline_hit();
                top_error.get_or_insert(e);
            }
        }
    }
    Err(top_error.expect("at least one backend ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile_loop, SchedulerChoice};
    use swp_ir::LoopBuilder;
    use swp_obs::{Counter, Telemetry};

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

    /// Deterministic budgets: work measures only, no wall clocks.
    fn quick() -> PortfolioOptions {
        PortfolioOptions {
            most: MostOptions::quick(),
            sat: SatOptions::quick(),
            ..PortfolioOptions::default()
        }
    }

    /// ILP disqualified (`max_ops: 0`, fallback off), so SAT wins.
    fn ilp_handicapped() -> PortfolioOptions {
        PortfolioOptions {
            most: MostOptions {
                max_ops: 0,
                ..MostOptions::quick()
            },
            ..quick()
        }
    }

    fn heuristic_only() -> PortfolioOptions {
        PortfolioOptions {
            use_ilp: false,
            use_sat: false,
            ..quick()
        }
    }

    #[test]
    fn ilp_outranks_everyone_when_it_succeeds() {
        let m = Machine::r8000();
        let c = compile_portfolio(&saxpy(), &m, &quick()).expect("compiles");
        assert_eq!(c.rung, Some(Rung::Ilp));
        assert!(c.stats.optimal);
    }

    #[test]
    fn ships_the_first_successful_standalone_backend() {
        let m = Machine::r8000();
        let lp = saxpy();
        for (opts, expected) in [
            (quick(), Rung::Ilp),
            (ilp_handicapped(), Rung::Sat),
            (heuristic_only(), Rung::Heuristic),
        ] {
            let standalone = [
                (
                    opts.use_ilp,
                    Rung::Ilp,
                    SchedulerChoice::IlpWith(opts.most.without_fallback()),
                ),
                (
                    opts.use_sat,
                    Rung::Sat,
                    SchedulerChoice::SatWith(opts.sat.without_fallback()),
                ),
                (
                    opts.use_heur,
                    Rung::Heuristic,
                    SchedulerChoice::HeuristicWith(opts.heur.clone()),
                ),
            ]
            .into_iter()
            .filter(|(enabled, _, _)| *enabled)
            .find_map(|(_, rung, choice)| compile_loop(&lp, &m, &choice).ok().map(|c| (rung, c)));
            let (rung, first) = standalone.expect("some backend schedules saxpy");
            assert_eq!(rung, expected);
            let c = compile_portfolio(&lp, &m, &opts).expect("compiles");
            assert_eq!(c.rung, Some(rung));
            assert_eq!(c.code, first.code);
        }
    }

    #[test]
    fn backend_work_lands_on_the_callers_collector() {
        let m = Machine::r8000();
        let counted = |opts: &PortfolioOptions| {
            let telemetry = Telemetry::new();
            let _guard = telemetry.install();
            compile_portfolio(&saxpy(), &m, opts).expect("compiles");
            telemetry.counters()
        };
        let full = counted(&quick());
        assert!(full.get(Counter::IlpSolves) > 0);
        assert_eq!(full.get(Counter::PortfolioWinnerIlp), 1);

        let handicapped = counted(&ilp_handicapped());
        assert!(handicapped.get(Counter::SatPropagations) > 0);
        assert!(handicapped
            .iter()
            .all(|(c, n)| !c.name().starts_with("ilp.") || n == 0));
        assert_eq!(handicapped.get(Counter::PortfolioWinnerSat), 1);
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            use_heur: false,
            ..heuristic_only()
        };
        assert!(matches!(
            compile_portfolio(&saxpy(), &m, &opts),
            Err(CompileError::Internal { .. })
        ));
    }

    #[test]
    fn all_fail_returns_the_top_priority_error() {
        let m = Machine::r8000();
        let empty = LoopBuilder::new("empty").finish();
        let e = compile_portfolio(&empty, &m, &quick()).expect_err("nothing schedules");
        assert!(matches!(e, CompileError::Ilp(_)), "got {e:?}");
    }
}
