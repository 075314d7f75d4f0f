//! Golden cache keys: `cache_key_with` values for one loop under every
//! scheduler choice, verify level and opt level.
//!
//! Keys address the in-memory cache and the compile service's on-disk
//! store, so a change to any of these values silently invalidates every
//! stored record. This test makes such a change deliberate: it fails until
//! the table below is updated along with the key code.

use showdown::swp_heur::HeurOptions;
use showdown::swp_ir::{Loop, LoopBuilder};
use showdown::swp_machine::Machine;
use showdown::swp_most::MostOptions;
use showdown::swp_sat::SatOptions;
use showdown::{
    cache_key_with, ChaosFault, ChaosOptions, CompileOptions, Corruption, LadderOptions, OptLevel,
    PortfolioOptions, Rung, SchedulerChoice, VerifyLevel,
};

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

/// Every `SchedulerChoice` variant; the `…With` variants carry
/// non-default options so that every folded field reaches the key.
fn choices() -> Vec<(&'static str, SchedulerChoice)> {
    let most = MostOptions {
        node_limit: 20_000,
        pivot_limit: 400_000,
        time_limit: None,
        loop_time_limit: None,
        loop_pivot_limit: Some(1_200_000),
        max_ops: 64,
        ..MostOptions::default()
    };
    let sat = SatOptions {
        conflict_limit: 20_000,
        propagation_limit: 2_000_000,
        time_limit: None,
        loop_time_limit: None,
        loop_conflict_limit: Some(60_000),
        max_ops: 64,
        ..SatOptions::default()
    };
    let heur = HeurOptions {
        backtrack_budget: 6400,
        bank_pairing: false,
        ..HeurOptions::default()
    };
    vec![
        ("Heuristic", SchedulerChoice::Heuristic),
        (
            "HeuristicWith",
            SchedulerChoice::HeuristicWith(heur.clone()),
        ),
        ("Ilp", SchedulerChoice::Ilp),
        ("IlpWith", SchedulerChoice::IlpWith(most.without_fallback())),
        ("Sat", SchedulerChoice::Sat),
        ("SatWith", SchedulerChoice::SatWith(sat.clone())),
        ("Ladder", SchedulerChoice::Ladder),
        (
            "LadderWith",
            SchedulerChoice::LadderWith(Box::new(LadderOptions {
                most: most.clone(),
                sat: sat.clone(),
                heur: heur.clone(),
                escalation_rounds: 2,
                gate: VerifyLevel::Schedule,
                start_rung: Rung::Sat,
                chaos: ChaosOptions::default().with_fault(
                    Rung::Heuristic,
                    ChaosFault::Corrupt(Corruption::NegativeTime),
                ),
            })),
        ),
        ("Portfolio", SchedulerChoice::Portfolio),
        (
            "PortfolioWith",
            SchedulerChoice::PortfolioWith(Box::new(PortfolioOptions {
                use_ilp: true,
                use_sat: true,
                use_heur: false,
                most,
                sat,
                heur,
            })),
        ),
    ]
}

#[rustfmt::skip]
const GOLDEN: [(&str, VerifyLevel, OptLevel, u64); 40] = [
    ("Heuristic", VerifyLevel::Off, OptLevel::Off, 0x0e92adaf0808ed65),
    ("Heuristic", VerifyLevel::Off, OptLevel::Full, 0x0e92abaf0808e9ff),
    ("Heuristic", VerifyLevel::Full, OptLevel::Off, 0xfcfbbfaefdff30db),
    ("Heuristic", VerifyLevel::Full, OptLevel::Full, 0xfcfbc1aefdff3441),
    ("HeuristicWith", VerifyLevel::Off, OptLevel::Off, 0x420c5b520ad24048),
    ("HeuristicWith", VerifyLevel::Off, OptLevel::Full, 0x420c5d520ad243ae),
    ("HeuristicWith", VerifyLevel::Full, OptLevel::Off, 0x54e9895215f12c32),
    ("HeuristicWith", VerifyLevel::Full, OptLevel::Full, 0x54e9875215f128cc),
    ("Ilp", VerifyLevel::Off, OptLevel::Off, 0xeaf19ebed81a3058),
    ("Ilp", VerifyLevel::Off, OptLevel::Full, 0xeaf1a0bed81a33be),
    ("Ilp", VerifyLevel::Full, OptLevel::Off, 0xfdceccbee3391c42),
    ("Ilp", VerifyLevel::Full, OptLevel::Full, 0xfdcecabee33918dc),
    ("IlpWith", VerifyLevel::Off, OptLevel::Off, 0x86b0b287db021fa7),
    ("IlpWith", VerifyLevel::Off, OptLevel::Full, 0x86b0b487db02230d),
    ("IlpWith", VerifyLevel::Full, OptLevel::Off, 0x9627e087e33de291),
    ("IlpWith", VerifyLevel::Full, OptLevel::Full, 0x9627de87e33ddf2b),
    ("Sat", VerifyLevel::Off, OptLevel::Off, 0x69c703552fa89fa1),
    ("Sat", VerifyLevel::Off, OptLevel::Full, 0x69c701552fa89c3b),
    ("Sat", VerifyLevel::Full, OptLevel::Off, 0x5a4fd555276cdcb7),
    ("Sat", VerifyLevel::Full, OptLevel::Full, 0x5a4fd755276ce01d),
    ("SatWith", VerifyLevel::Off, OptLevel::Off, 0x1380dfcf1988ca49),
    ("SatWith", VerifyLevel::Off, OptLevel::Full, 0x1380ddcf1988c6e3),
    ("SatWith", VerifyLevel::Full, OptLevel::Off, 0x0409b1cf114d075f),
    ("SatWith", VerifyLevel::Full, OptLevel::Full, 0x0409b3cf114d0ac5),
    ("Ladder", VerifyLevel::Off, OptLevel::Off, 0xe576a1fca94f7bcf),
    ("Ladder", VerifyLevel::Off, OptLevel::Full, 0xe576a3fca94f7f35),
    ("Ladder", VerifyLevel::Full, OptLevel::Off, 0xf6a0cffcb2fcd339),
    ("Ladder", VerifyLevel::Full, OptLevel::Full, 0xf6a0cdfcb2fccfd3),
    ("LadderWith", VerifyLevel::Off, OptLevel::Off, 0xb0553b98d5b30cae),
    ("LadderWith", VerifyLevel::Off, OptLevel::Full, 0xb0553998d5b30948),
    ("LadderWith", VerifyLevel::Full, OptLevel::Off, 0x9d0b4d98ca37bba4),
    ("LadderWith", VerifyLevel::Full, OptLevel::Full, 0x9d0b4f98ca37bf0a),
    ("Portfolio", VerifyLevel::Off, OptLevel::Off, 0xc978813bb69cfded),
    ("Portfolio", VerifyLevel::Off, OptLevel::Full, 0xc9787f3bb69cfa87),
    ("Portfolio", VerifyLevel::Full, OptLevel::Off, 0xba01533bae613b03),
    ("Portfolio", VerifyLevel::Full, OptLevel::Full, 0xba01553bae613e69),
    ("PortfolioWith", VerifyLevel::Off, OptLevel::Off, 0xfe6f40a8482e3cdd),
    ("PortfolioWith", VerifyLevel::Off, OptLevel::Full, 0xfe6f3ea8482e3977),
    ("PortfolioWith", VerifyLevel::Full, OptLevel::Off, 0xed4512a83e80e573),
    ("PortfolioWith", VerifyLevel::Full, OptLevel::Full, 0xed4514a83e80e8d9),
];

#[test]
fn cache_keys_match_the_golden_table() {
    let lp = saxpy();
    let m = Machine::r8000();
    let mut computed = Vec::new();
    for (name, choice) in choices() {
        for verify in [VerifyLevel::Off, VerifyLevel::Full] {
            for opt in [OptLevel::Off, OptLevel::Full] {
                let options = CompileOptions {
                    choice: choice.clone(),
                    verify,
                    opt,
                    ..CompileOptions::default()
                };
                computed.push((name, verify, opt, cache_key_with(&lp, &m, &options)));
            }
        }
    }
    let table: String = computed
        .iter()
        .map(|(n, v, o, k)| {
            format!("    ({n:?}, VerifyLevel::{v:?}, OptLevel::{o:?}, {k:#018x}),\n")
        })
        .collect();
    assert_eq!(computed.len(), GOLDEN.len(), "computed table:\n{table}");
    for (got, want) in computed.iter().zip(GOLDEN.iter()) {
        assert_eq!(got, want, "computed table:\n{table}");
    }
}
