//! `layerbench`: the layered compile-and-serve benchmark.
//!
//! ```text
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload corpus-direct --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Prints one `metric <name> <value> <unit>`
//! line per metric (untraced: the end-to-end metrics; `--trace 1`: the
//! per-layer metrics), notes on correctness and determinism above them,
//! and a JSON summary as the last line. Scratch files (the service's
//! socket and store, the Chrome trace of a traced run) go under
//! `.layerbench/`. `--list` prints the metric registry and the layer
//! table: which end-to-end metric each layer should move, and where it
//! should stay flat. See `BENCHMARK.json` for why each workload exists.

mod cli;
mod compile;
mod inputs;
mod metrics;
mod serve;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use showdown::swp_machine::Machine;

/// Driver threads: the benchmark is sized for a 2-core host.
pub const THREADS: usize = 2;

/// Untraced runs make at least this many passes, so a job's latency
/// averages passes made at different moments of the host's drift.
pub const MIN_PASSES: usize = 3;

/// Whether a run that started at `started` has room for one more pass
/// (or traced/untraced pair) lasting about as long as the last one: a run
/// may overshoot its budget by at most half a pass.
pub fn another_pass(started: Instant, last: Duration, budget: Duration) -> bool {
    started.elapsed() + last / 2 < budget
}

/// Scratch directory, relative to the working directory.
const WORK_DIR: &str = ".layerbench";

fn list() -> String {
    let mut out = String::new();
    for (mode, defs) in [
        ("end-to-end (--trace 0)", metrics::END_TO_END),
        ("per-layer (--trace 1)", metrics::PER_LAYER),
    ] {
        out.push_str(&format!("{mode}:\n"));
        for d in defs {
            out.push_str(&format!(
                "  {:<32} {:<8} {} is better\n",
                d.name,
                d.unit,
                d.better.name()
            ));
        }
    }
    out.push_str("layers:\n");
    for r in metrics::LAYERS {
        out.push_str(&format!(
            "  {}: {}\n    should move: {}\n    flat on: {}\n",
            r.layer,
            r.metrics.join(", "),
            r.moves,
            r.flat_on
        ));
    }
    out
}

fn run(a: &cli::Args) -> std::io::Result<metrics::Report> {
    let machine = Machine::r8000();
    let root = Path::new(WORK_DIR);
    let trace_path = root.join(format!("trace-{}-seed{}.json", a.workload, a.seed));
    let kind = match a.workload {
        "livermore-ladder" => Some(compile::Kind::Livermore),
        "corpus-direct" => Some(compile::Kind::Corpus),
        _ => None,
    };
    Ok(match (kind, a.trace) {
        (Some(k), false) => compile::run(k, a.seed, a.seconds, &machine),
        (Some(k), true) => compile::run_traced(k, a.seed, a.seconds, &machine, &trace_path),
        (None, false) => serve::run(a.seed, a.seconds, &machine, root)?,
        (None, true) => serve::run_traced(a.seed, a.seconds, &machine, root, &trace_path)?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(cli::Command::List) => {
            print!("{}", list());
            return ExitCode::SUCCESS;
        }
        Ok(cli::Command::Run(a)) => a,
        Err(e) => {
            eprintln!("layerbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let registry = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let defs: Vec<&metrics::MetricDef> = registry
        .iter()
        .filter(|d| args.metrics.is_empty() || args.metrics.contains(&d.name))
        .collect();
    print!("{}", report.render(&defs));
    ExitCode::SUCCESS
}
