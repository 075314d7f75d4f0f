//! Portfolio racing: run the backends concurrently, ship the best.
//!
//! The paper's production tension is optimal-but-slow (MOST) versus
//! fast-but-heuristic (§2); the ladder resolves it *sequentially* by
//! demotion. The portfolio resolves it in *wall-clock* terms: every
//! enabled backend races on its own scoped thread, and as soon as a
//! backend succeeds, every **strictly lower-priority** racer is
//! cooperatively cancelled — their results can no longer matter.
//!
//! Determinism is the load-bearing property. The winner is chosen by
//! fixed backend priority (ILP > SAT > heuristic) **at join**, never by
//! completion order, and a backend may only be cancelled once a
//! higher-priority backend has already succeeded — at which point its own
//! outcome is irrelevant to both the winner and the all-fail error. ILP,
//! the highest priority, is never cancelled at all. Consequently the
//! shipped code is bit-identical across hosts, driver thread counts, and
//! scheduling jitter (up to the backends' own wall-clock budgets, which
//! taint results via `deadline_hit` exactly as in direct compiles).
//!
//! Racer threads are fresh scoped threads and therefore carry **no**
//! thread-local telemetry collector: losers record nothing, so counters
//! cannot leak nondeterministic work measures. The calling thread records
//! the race-level counters (`portfolio.races`, `portfolio.winner.*`,
//! `portfolio.cancellations`) and finishes the winning schedule itself.

use crate::backend::{finish, schedule, Backend, Scheduled};
use crate::compile::{CompileError, CompiledLoop};
use crate::ladder::Rung;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use swp_heur::HeurOptions;
use swp_ir::Loop;
use swp_machine::Machine;
use swp_most::MostOptions;
use swp_obs::CancelToken;
use swp_sat::SatOptions;

/// Configuration of one portfolio race.
///
/// The `cancel` fields inside [`SatOptions`] and [`HeurOptions`] are
/// overridden for the racers: the portfolio owns their cancellation. The
/// ILP racer cannot be cancelled at all.
#[derive(Debug, Clone)]
pub struct PortfolioOptions {
    /// Race the MOST ILP backend (priority 0, never cancelled).
    pub use_ilp: bool,
    /// Race the CDCL SAT backend (priority 1).
    pub use_sat: bool,
    /// Race the heuristic pipeliner (priority 2).
    pub use_heur: bool,
    /// ILP racer budgets (internal fallback forced off; the heuristic
    /// racer plays that role).
    pub most: MostOptions,
    /// SAT racer budgets (internal fallback forced off, ditto).
    pub sat: SatOptions,
    /// Heuristic racer budgets.
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

/// The racers, in priority order (lower index wins at join): the rungs
/// the ladder would try one by one, with internal fallbacks off — the
/// heuristic racer *is* the fallback, running concurrently — and the
/// cancellable backends wired to their racer's token.
fn racers(opts: &PortfolioOptions) -> Vec<(Rung, Backend<'_>, CancelToken)> {
    let mut racers = Vec::new();
    if opts.use_ilp {
        let most = opts.most.without_fallback();
        racers.push((
            Rung::Ilp,
            Backend::Ilp(Cow::Owned(most)),
            CancelToken::never(),
        ));
    }
    if opts.use_sat {
        let cancel = CancelToken::new();
        let sat = SatOptions {
            cancel: cancel.clone(),
            ..opts.sat.without_fallback()
        };
        racers.push((Rung::Sat, Backend::Sat(Cow::Owned(sat)), cancel));
    }
    if opts.use_heur {
        let cancel = CancelToken::new();
        let heur = HeurOptions {
            cancel: cancel.clone(),
            ..opts.heur.clone()
        };
        racers.push((
            Rung::Heuristic,
            Backend::Heuristic(Cow::Owned(heur)),
            cancel,
        ));
    }
    racers
}

/// Race the enabled backends and ship the highest-priority success.
///
/// # Errors
///
/// When every racer fails, the highest-priority enabled backend's error
/// is returned (deterministic: an all-fail race by construction involved
/// no cancellation). [`CompileError::Internal`] when no backend is
/// enabled or a racer panicked and won by default.
pub fn compile_portfolio(
    lp: &Loop,
    machine: &Machine,
    opts: &PortfolioOptions,
) -> Result<CompiledLoop, CompileError> {
    let racers = racers(opts);
    if racers.is_empty() {
        return Err(CompileError::Internal {
            rung: None,
            message: "portfolio: no backends enabled".to_owned(),
        });
    }
    swp_obs::count(swp_obs::Counter::PortfolioRaces, 1);
    let _span = swp_obs::span("portfolio")
        .with_s("loop", lp.name())
        .with_i("backends", racers.len() as i64);

    let slots: Vec<Mutex<Option<Result<Scheduled, CompileError>>>> =
        racers.iter().map(|_| Mutex::new(None)).collect();
    let mut cancellations = 0u64;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, bool)>();
        for (i, (rung, backend, _)) in racers.iter().enumerate() {
            let tx = tx.clone();
            let slots = &slots;
            s.spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| schedule(backend, lp, machine)))
                    .unwrap_or_else(|payload| {
                        Err(CompileError::Internal {
                            rung: Some(*rung),
                            message: crate::ladder::panic_message(payload.as_ref()),
                        })
                    });
                let ok = result.is_ok();
                *slots[i].lock().expect("racer slot lock") = Some(result);
                // The scope owns the receiver's lifetime; a racer outliving
                // it is impossible, so a send failure is, too.
                let _ = tx.send((i, ok));
            });
        }
        drop(tx);
        // As success notifications arrive, cancel every racer that can no
        // longer win. Completion *order* only affects how early losers
        // stop burning cycles — never which backend wins.
        let mut cancelled = vec![false; racers.len()];
        while let Ok((i, ok)) = rx.recv() {
            if !ok {
                continue;
            }
            for (j, c) in cancelled.iter_mut().enumerate().skip(i + 1) {
                if !*c {
                    *c = true;
                    racers[j].2.cancel();
                    cancellations += 1;
                }
            }
        }
    });
    swp_obs::count(swp_obs::Counter::PortfolioCancellations, cancellations);

    let mut results: Vec<Result<Scheduled, CompileError>> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("racer slot lock")
                .expect("scope joined, so every racer reported")
        })
        .collect();
    let Some(w) = results.iter().position(Result::is_ok) else {
        // All failed ⇒ nothing was ever cancelled ⇒ every error is as
        // deterministic as its backend; report the highest-priority one.
        return results.swap_remove(0).map(finish);
    };
    // A deadline-truncated failure *above* the winner makes which backend
    // won host-dependent; taint the result so the cache skips it (losers
    // below the winner were cancelled or outranked — irrelevant).
    let outranked_by_deadline = results[..w]
        .iter()
        .any(|r| r.as_ref().is_err_and(CompileError::deadline_hit));
    let rung = racers[w].0;
    swp_obs::count(
        match rung {
            Rung::Ilp => swp_obs::Counter::PortfolioWinnerIlp,
            Rung::Sat => swp_obs::Counter::PortfolioWinnerSat,
            _ => swp_obs::Counter::PortfolioWinnerHeuristic,
        },
        1,
    );
    let winner_span = swp_obs::span("portfolio.winner").with_s("backend", rung.name());
    let mut compiled = finish(results.swap_remove(w).expect("winner is Ok"));
    drop(winner_span);
    compiled.stats.deadline_hit |= outranked_by_deadline;
    compiled.rung = Some(rung);
    Ok(compiled)
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

    /// Deterministic racer budgets: work measures only, no wall clocks.
    fn quick() -> PortfolioOptions {
        PortfolioOptions {
            most: MostOptions::quick(),
            sat: SatOptions::quick(),
            ..PortfolioOptions::default()
        }
    }

    #[test]
    fn ilp_outranks_everyone_when_it_succeeds() {
        let m = Machine::r8000();
        let c = compile_portfolio(&saxpy(), &m, &quick()).expect("races");
        assert_eq!(c.rung, Some(Rung::Ilp));
        assert!(c.stats.optimal);
    }

    #[test]
    fn winner_is_fixed_priority_not_wall_clock() {
        // With ILP pushed aside (max_ops 0, fallback off), SAT must win
        // even though the heuristic almost always finishes first.
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            most: MostOptions {
                max_ops: 0,
                ..quick().most
            },
            ..quick()
        };
        for _ in 0..3 {
            let c = compile_portfolio(&saxpy(), &m, &opts).expect("races");
            assert_eq!(c.rung, Some(Rung::Sat));
        }
    }

    #[test]
    fn subset_portfolio_ships_the_heuristic() {
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            use_ilp: false,
            use_sat: false,
            ..quick()
        };
        let c = compile_portfolio(&saxpy(), &m, &opts).expect("races");
        assert_eq!(c.rung, Some(Rung::Heuristic));
    }

    #[test]
    fn empty_portfolio_is_an_error() {
        let m = Machine::r8000();
        let opts = PortfolioOptions {
            use_ilp: false,
            use_sat: false,
            use_heur: false,
            ..quick()
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
