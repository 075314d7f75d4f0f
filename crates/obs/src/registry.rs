//! The metric registry: every counter and histogram the compiler can emit.
//!
//! Metrics are registered statically — an enum variant plus a metadata row —
//! so the collector can back them with a fixed array of atomics and the
//! dead-metric lint can enumerate what *should* have fired.

/// Determinism class of a metric.
///
/// `Exact` metrics count algorithmic work (nodes, pivots, backtracks …) and
/// must aggregate to bit-identical totals at any `--threads N` as long as the
/// compile options themselves are deterministic (no wall-clock budgets).
/// `Timing` metrics measure wall clock or scheduling luck (in-flight waits,
/// compile-time histograms) and are exempt from the cross-thread invariant
/// and from the dead-metric lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Exact,
    Timing,
}

macro_rules! counters {
    ($( $variant:ident => ($name:literal, $subsystem:literal, $class:ident), )+) => {
        /// Every counter the compiler registers, across all subsystems.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $($variant,)+
        }

        impl Counter {
            /// All registered counters, in registry order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)+];

            /// Number of registered counters.
            pub const COUNT: usize = Counter::ALL.len();

            /// Stable metric name, `subsystem.metric`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }

            /// Owning subsystem (crate-level grouping for reports).
            pub fn subsystem(self) -> &'static str {
                match self {
                    $(Counter::$variant => $subsystem,)+
                }
            }

            /// Determinism class.
            pub fn class(self) -> Class {
                match self {
                    $(Counter::$variant => Class::$class,)+
                }
            }

            /// Index into the collector's counter array.
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

counters! {
    // swp-heur: the backtracking modulo scheduler.
    HeurAttempts => ("heur.attempts", "heur", Exact),
    HeurBacktracks => ("heur.backtracks", "heur", Exact),
    HeurPlacements => ("heur.placements", "heur", Exact),
    HeurIisTried => ("heur.iis_tried", "heur", Exact),
    HeurPairsFormed => ("heur.pairs_formed", "heur", Exact),
    HeurSpills => ("heur.spills", "heur", Exact),
    HeurSpillRounds => ("heur.spill_rounds", "heur", Exact),
    // swp-ilp: dual-simplex LP engine + branch & bound.
    IlpSolves => ("ilp.solves", "ilp", Exact),
    IlpNodes => ("ilp.nodes", "ilp", Exact),
    IlpPrunes => ("ilp.prunes", "ilp", Exact),
    IlpPivots => ("ilp.pivots", "ilp", Exact),
    IlpRefactorizations => ("ilp.refactorizations", "ilp", Exact),
    IlpBoundFlips => ("ilp.bound_flips", "ilp", Exact),
    IlpWarmStartHits => ("ilp.warm_start_hits", "ilp", Exact),
    // swp-most: the optimal scheduler's II ladder.
    MostIiSteps => ("most.ii_steps", "most", Exact),
    MostFallbacks => ("most.fallbacks", "most", Exact),
    // swp-sat: the CDCL difference-logic scheduler's II ladder.
    SatIiSteps => ("sat.ii_steps", "sat", Exact),
    SatDecisions => ("sat.decisions", "sat", Exact),
    SatConflicts => ("sat.conflicts", "sat", Exact),
    SatPropagations => ("sat.propagations", "sat", Exact),
    SatRestarts => ("sat.restarts", "sat", Exact),
    SatLearnedLiterals => ("sat.learned_literals", "sat", Exact),
    SatFallbacks => ("sat.fallbacks", "sat", Exact),
    // swp-core portfolio. The winner tallies are Exact because the winner
    // is the first backend to succeed in fixed priority order, never the
    // fastest — identical inputs crown identical winners at any --threads N.
    PortfolioRaces => ("portfolio.races", "portfolio", Exact),
    PortfolioWinnerIlp => ("portfolio.winner.ilp", "portfolio", Exact),
    PortfolioWinnerSat => ("portfolio.winner.sat", "portfolio", Exact),
    PortfolioWinnerHeuristic => ("portfolio.winner.heuristic", "portfolio", Exact),
    // swp-core cache.
    CacheHits => ("cache.hits", "cache", Exact),
    CacheMisses => ("cache.misses", "cache", Exact),
    CacheInflightWaits => ("cache.inflight_waits", "cache", Timing),
    // swp-core degradation ladder.
    LadderDemotions => ("ladder.demotions", "ladder", Exact),
    LadderGateRejections => ("ladder.gate_rejections", "ladder", Exact),
    LadderPanicsCaught => ("ladder.panics_caught", "ladder", Exact),
    LadderChaosInjected => ("ladder.chaos_injected", "ladder", Exact),
    LadderChaosEscapes => ("ladder.chaos_escapes", "ladder", Exact),
    // swp-verify translation validation.
    VerifyAudits => ("verify.audits", "verify", Exact),
    VerifyFindings => ("verify.findings", "verify", Exact),
    // swp-ir mid-end pass pipeline.
    OptPassFold => ("opt.pass.fold", "opt", Exact),
    OptPassSimplify => ("opt.pass.simplify", "opt", Exact),
    OptPassStrength => ("opt.pass.strength", "opt", Exact),
    OptPassGvn => ("opt.pass.gvn", "opt", Exact),
    OptPassDce => ("opt.pass.dce", "opt", Exact),
    OptPassReassoc => ("opt.pass.reassoc", "opt", Exact),
    OptOpsRemoved => ("opt.ops_removed", "opt", Exact),
    OptRecMiiBefore => ("opt.recmii_before", "opt", Exact),
    OptRecMiiAfter => ("opt.recmii_after", "opt", Exact),
    // swp-serve: the fault-tolerant compile service. Admission counts are
    // Exact (one per loop admitted, independent of load); everything that
    // depends on scheduling luck — demotions under load, disk-store hits,
    // corrupt-entry recoveries, in-flight waits — is Timing.
    ServeAdmitted => ("serve.admitted", "serve", Exact),
    ServeDemotedByLoad => ("serve.demoted_by_load", "serve", Timing),
    ServeStoreHits => ("serve.store_hit", "serve", Timing),
    ServeStoreCorruptRecovered => ("serve.store_corrupt_recovered", "serve", Timing),
    ServeInflightWaits => ("serve.inflight", "serve", Timing),
}

macro_rules! histograms {
    ($( $variant:ident => ($name:literal, $class:ident, $unit:literal, $edges:expr), )+) => {
        /// Every histogram the compiler registers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Histo {
            $($variant,)+
        }

        impl Histo {
            /// All registered histograms, in registry order.
            pub const ALL: &'static [Histo] = &[$(Histo::$variant,)+];

            /// Number of registered histograms.
            pub const COUNT: usize = Histo::ALL.len();

            /// Stable metric name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Histo::$variant => $name,)+
                }
            }

            /// Determinism class (same semantics as counters).
            pub fn class(self) -> Class {
                match self {
                    $(Histo::$variant => Class::$class,)+
                }
            }

            /// Unit label for reports.
            pub fn unit(self) -> &'static str {
                match self {
                    $(Histo::$variant => $unit,)+
                }
            }

            /// Inclusive upper edges of the finite buckets; one extra
            /// overflow bucket catches everything above the last edge.
            pub const fn edges(self) -> &'static [u64] {
                match self {
                    $(Histo::$variant => $edges,)+
                }
            }

            /// Index into the collector's histogram array.
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

histograms! {
    CompileTimeUs => ("compile_time_us", Timing, "us",
        &[100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
          100_000, 250_000, 500_000, 1_000_000, 4_000_000]),
    IiMinusMii => ("ii_minus_mii", Exact, "cycles", &[0, 1, 2, 3, 4, 6, 8, 16]),
    MaxLive => ("max_live", Exact, "regs", &[4, 8, 12, 16, 20, 24, 28, 32]),
    Buffers => ("buffers", Exact, "regs", &[2, 4, 8, 12, 16, 24, 32, 64]),
}

/// Maximum bucket count any histogram needs (finite edges + overflow).
pub(crate) const MAX_BUCKETS: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < Histo::COUNT {
        let n = Histo::ALL[i].edges().len() + 1;
        if n > max {
            max = n;
        }
        i += 1;
    }
    max
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_prefixed() {
        for (i, a) in Counter::ALL.iter().enumerate() {
            assert!(a.name().starts_with(a.subsystem()), "{}", a.name());
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        for (i, a) in Histo::ALL.iter().enumerate() {
            for b in &Histo::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn histogram_edges_are_strictly_increasing() {
        for h in Histo::ALL {
            let e = h.edges();
            assert!(!e.is_empty());
            assert!(e.windows(2).all(|w| w[0] < w[1]), "{}", h.name());
            assert!(e.len() < MAX_BUCKETS);
        }
    }

    #[test]
    fn indices_match_positions() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Histo::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }
}
