//! The two compile workloads, `livermore-ladder` and `corpus-direct`.
//!
//! Both are closed loops over a fixed, seeded set of compile jobs on a
//! 2-thread [`Driver`]. A *pass* compiles every job once on a fresh
//! driver and cache; the run repeats passes until its time is up. The
//! first pass is checked loop by loop (outside the timed region); every
//! later pass must ship bit-identical code, job by job.
//!
//! The traced run alternates untraced passes (driver path, as above) with
//! traced passes in which the benchmark calls each layer's public entry
//! point itself and records a span around each call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use showdown::swp_codegen::PipelinedLoop;
use showdown::swp_ir::{Loop, OptLevel, PassManager};
use showdown::swp_machine::Machine;
use showdown::swp_obs::{Counter, CounterSnapshot};
use showdown::{
    cache_key_with, compile_ladder, CompileError, CompileOptions, CompileStats, CompiledLoop,
    Driver, LadderOptions, Rung, RungOutcome, ScheduleCache, SchedulerChoice, Telemetry,
    VerifyLevel,
};
use swp_bench::Effort;
use swp_serve::code_fingerprint;

use crate::inputs::{self, check, Case, Quality};
use crate::metrics::{median, ratio, report_timing, Report, Value};
use crate::trace::{JobTrace, Trace};
use crate::THREADS;

/// Random loops added to the 23 suite loops in `corpus-direct`: 16-96
/// ops and 8-15 ops.
const CORPUS_LARGE: usize = 72;
const CORPUS_SMALL: usize = 384;

/// Set-up repetitions before the first pass and after every pass;
/// `setup_s` is their median. Spreading them over the run samples the
/// host at many moments instead of one.
const SETUP_REPS: usize = 5;

/// Passes an untraced run makes at least. A `livermore-ladder` pass takes
/// about 12 s on two cores and its latency percentiles rest on 24 jobs,
/// so that run makes four passes (about 50 s) whatever `--seconds` says.
fn min_passes(kind: Kind) -> usize {
    match kind {
        Kind::Livermore => crate::MIN_PASSES + 1,
        Kind::Corpus => crate::MIN_PASSES,
    }
}

/// Which compile workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Livermore,
    Corpus,
}

/// How one job is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Ladder,
    Heuristic,
    Sat,
}

/// The inputs of one compile workload: cases plus (case, backend) jobs.
struct Workload {
    cases: Vec<Case>,
    jobs: Vec<(usize, Backend)>,
}

fn ladder_options() -> LadderOptions {
    swp_serve::quick_ladder_options()
}

fn choice(backend: Backend) -> SchedulerChoice {
    match backend {
        Backend::Ladder => SchedulerChoice::LadderWith(Box::new(ladder_options())),
        Backend::Heuristic => SchedulerChoice::Heuristic,
        Backend::Sat => SchedulerChoice::SatWith(Effort::Quick.sat_options()),
    }
}

fn options(backend: Backend) -> CompileOptions {
    CompileOptions {
        choice: choice(backend),
        verify: VerifyLevel::Full,
        opt: OptLevel::Full,
        telemetry: Telemetry::disabled(),
    }
}

/// The larger half of the loops is issued largest first, as a build
/// orders its longest compiles first: a multi-second compile then starts
/// at once instead of wherever work stealing happens to reach it, which
/// would make the makespan of a pass depend on scheduling luck. The
/// smaller half is dealt in between, largest first too, so small
/// compiles run all through the pass rather than together in its last
/// second: host speed drifts within a pass, and the jobs near the median
/// latency would otherwise all sample the same moment of it.
fn setup(kind: Kind, seed: u64) -> Workload {
    let (cases, backends): (Vec<Case>, &[Backend]) = match kind {
        Kind::Livermore => (inputs::livermore(seed), &[Backend::Ladder]),
        Kind::Corpus => (
            inputs::corpus(seed, CORPUS_LARGE, CORPUS_SMALL),
            &[Backend::Heuristic, Backend::Sat],
        ),
    };
    let mut order: Vec<usize> = (0..cases.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cases[i].body.len()));
    let half = order.len().div_ceil(2);
    let jobs = (0..order.len())
        .map(|k| order[if k % 2 == 0 { k / 2 } else { half + k / 2 }])
        .flat_map(|i| backends.iter().map(move |&b| (i, b)))
        .collect();
    Workload { cases, jobs }
}

/// Build the inputs [`SETUP_REPS`] times, adding each build time to
/// `samples`; returns the last build.
fn timed_setup(kind: Kind, seed: u64, samples: &mut Vec<f64>) -> Workload {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(setup(kind, seed));
        samples.push(t.elapsed().as_secs_f64());
    }
    built.expect("SETUP_REPS > 0")
}

type Outcome = Result<Arc<CompiledLoop>, CompileError>;

/// One untraced pass: every job once, on a fresh driver and cache.
struct Pass {
    wall: Duration,
    outcomes: Vec<(Outcome, Duration)>,
    cache_hits: u64,
    cache_lookups: u64,
}

fn untraced_pass(w: &Workload, machine: &Machine) -> Pass {
    let opts: Vec<CompileOptions> = [Backend::Ladder, Backend::Heuristic, Backend::Sat]
        .into_iter()
        .map(options)
        .collect();
    let driver = Driver::new(THREADS);
    let start = Instant::now();
    let outcomes = driver.run_indexed(w.jobs.len(), |j| {
        let (case, backend) = w.jobs[j];
        let t = Instant::now();
        let r = driver.compile_with(&w.cases[case].body, machine, &opts[backend as usize]);
        (r, t.elapsed())
    });
    let wall = start.elapsed();
    let stats = driver.cache_stats();
    Pass {
        wall,
        outcomes,
        cache_hits: stats.hits,
        cache_lookups: stats.hits + stats.misses,
    }
}

/// Code fingerprint per job (`None` for a failed compile).
fn fingerprints<'a>(
    outcomes: impl Iterator<Item = &'a Result<CompiledLoop, String>>,
) -> Vec<Option<u64>> {
    outcomes
        .map(|o| o.as_ref().ok().map(code_fingerprint))
        .collect()
}

fn pass_results(p: &Pass) -> Vec<Result<CompiledLoop, String>> {
    p.outcomes
        .iter()
        .map(|(o, _)| o.as_ref().map(|c| (**c).clone()).map_err(|e| e.to_string()))
        .collect()
}

/// Check every job of a pass; returns the pass quality and a note per
/// failure.
fn assess(
    w: &Workload,
    results: &[Result<CompiledLoop, String>],
    machine: &Machine,
) -> (Quality, Vec<String>) {
    let mut q = Quality::default();
    let mut per_backend: [Quality; 3] = Default::default();
    let mut notes = Vec::new();
    for (j, r) in results.iter().enumerate() {
        let (case, backend) = w.jobs[j];
        let name = w.cases[case].body.name();
        let b = &mut per_backend[backend as usize];
        q.attempted += 1;
        b.attempted += 1;
        match r {
            Err(e) => {
                q.errors += 1;
                b.errors += 1;
                notes.push(format!("compile error: {name} ({backend:?}): {e}"));
            }
            Ok(c) => match check(&w.cases[case], c, machine) {
                Ok(s) => {
                    q.add(&s);
                    b.add(&s);
                }
                Err(e) => {
                    q.wrong += 1;
                    b.wrong += 1;
                    notes.push(format!("WRONG OUTPUT: {name} ({backend:?}): {e}"));
                }
            },
        }
    }
    for (backend, b) in [Backend::Ladder, Backend::Heuristic, Backend::Sat]
        .iter()
        .zip(&per_backend)
        .filter(|(_, b)| b.attempted > 0)
    {
        notes.push(format!(
            "{backend:?}: shipped {} of {} | sum II {} sum MinII {} | certified {} | regs {} | \
             sim cycles {}",
            b.shipped, b.attempted, b.sum_ii, b.sum_min_ii, b.certified, b.regs, b.cycles
        ));
    }
    (q, notes)
}

fn workload_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Livermore => "livermore-ladder",
        Kind::Corpus => "corpus-direct",
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(kind: Kind, seed: u64, seconds: u64, machine: &Machine) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let w = timed_setup(kind, seed, &mut setups);

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut first: Option<(Vec<Option<u64>>, Quality)> = None;
    let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); w.jobs.len()];
    let mut rates = Vec::new();
    let mut timed = Duration::ZERO;
    let mut last = Duration::ZERO;
    let mut per_backend_ms = [0.0f64; 3];
    while rates.len() < min_passes(kind) || crate::another_pass(started, last, budget) {
        let lap = Instant::now();
        let pass = untraced_pass(&w, machine);
        timed += pass.wall;
        rates.push(pass.outcomes.len() as f64 / pass.wall.as_secs_f64());
        for (j, (_, lat)) in pass.outcomes.iter().enumerate() {
            latencies_ms[j].push(lat.as_secs_f64() * 1e3);
            per_backend_ms[w.jobs[j].1 as usize] += lat.as_secs_f64() * 1e3;
        }
        // Checking happens here, outside the timed region.
        let results = pass_results(&pass);
        let fps = fingerprints(results.iter());
        match &first {
            None => {
                let (q, notes) = assess(&w, &results, machine);
                for n in notes {
                    report.note(n);
                }
                report.note(format!(
                    "cache: {} hits of {} lookups",
                    pass.cache_hits, pass.cache_lookups
                ));
                first = Some((fps, q));
            }
            Some((fps0, q0)) => {
                let changed = fps.iter().zip(fps0).filter(|(a, b)| a != b).count() as u64;
                if changed > 0 {
                    report.note(format!(
                        "NONDETERMINISTIC: pass {} shipped different code for {changed} job(s) \
                         than pass 1 on the same inputs",
                        rates.len()
                    ));
                }
                report.wrong += changed;
                report.failed += changed + q0.failed();
                report.attempted += q0.attempted;
            }
        }
        last = lap.elapsed();
        // More set-ups, outside the timed region and the pass clock.
        timed_setup(kind, seed, &mut setups);
    }
    report.set("setup_s", median(&setups));
    let (_, q) = first.expect("at least one pass");
    report.attempted += q.attempted;
    report.failed += q.failed();
    report.wrong += q.wrong;
    q.report(&mut report);
    report_timing(&mut report, &rates, &latencies_ms);
    report.note(format!(
        "{}: seed {seed}, {} jobs x {} pass(es) in {:.3} s timed, {THREADS} driver threads",
        workload_name(kind),
        w.jobs.len(),
        rates.len(),
        timed.as_secs_f64(),
    ));
    match kind {
        Kind::Livermore => report.note(format!(
            "sanity anchor: sum II {} over sum MinII {} (expected sum II 185)",
            q.sum_ii, q.sum_min_ii
        )),
        Kind::Corpus => report.note(format!(
            "compile time by backend (per-loop latency summed over all passes): heuristic {:.1} ms, sat {:.1} ms",
            per_backend_ms[Backend::Heuristic as usize],
            per_backend_ms[Backend::Sat as usize]
        )),
    }
    report
}

/// Per-pass facts of a traced pass the metrics are built from.
struct TracedPass {
    trace: Trace,
    wall: Duration,
    job_ns: u64,
    counters: CounterSnapshot,
    ops_removed: u64,
    /// `(scheduler span name, certified)` per shipped ladder compile.
    shipped: Vec<(&'static str, bool)>,
    rungs: [u64; 5],
    heur_failures: u64,
    fps: Vec<Option<u64>>,
    results: Vec<Result<CompiledLoop, String>>,
}

/// The mid-end exactly as `compile_loop_with` runs it at `OptLevel::Full`
/// with verify on: every pass application differentially validated.
fn run_opt(lp: &Loop, machine: &Machine) -> (Loop, u64) {
    let validate = |a: &Loop, b: &Loop| showdown::swp_sim::check_loops_equivalent(a, b, 12, 0.0);
    let mut body = lp.clone();
    let outcome = PassManager::new(OptLevel::Full)
        .with_validator(&validate)
        .run(&mut body, machine);
    (body, outcome.ops_removed() as u64)
}

struct JobOut {
    result: Result<CompiledLoop, String>,
    ops_removed: u64,
    rung: Option<Rung>,
    heur_failures: u64,
    trace: JobTrace,
    ns: u64,
}

/// One job through the layers' public entry points, each under a span.
fn traced_job(
    w: &Workload,
    j: usize,
    machine: &Machine,
    epoch: Instant,
    probe: &ScheduleCache,
) -> JobOut {
    let t0 = Instant::now();
    let (case, backend) = w.jobs[j];
    let lp = &w.cases[case].body;
    let mut tr = JobTrace::new(epoch, j as u64);
    let opts = options(backend);
    tr.time("cache", |_| {
        probe.peek(cache_key_with(lp, machine, &opts)).is_some()
    });
    let (body, ops_removed) = tr.time("opt", |_| run_opt(lp, machine));
    let mut rung = None;
    let mut heur_failures = 0;
    let result = match backend {
        Backend::Ladder => {
            let r = tr.time("ladder", |_| {
                compile_ladder(&body, machine, &ladder_options())
            });
            match r {
                Ok(c) => {
                    // The ladder exposes only the shipped rung's split; the
                    // gate, the lints and any rejected rung stay inside the
                    // ladder span's self time.
                    let sched = rung_span(c.rung);
                    tr.reported_child("ladder", sched, c.stats.sched_ns);
                    tr.reported_child("ladder", "regalloc", c.stats.alloc_ns);
                    tr.reported_child("ladder", "expand", c.stats.expand_ns);
                    rung = c.rung;
                    heur_failures = c
                        .attempts
                        .iter()
                        .filter(|a| {
                            matches!(a.rung, Rung::Heuristic | Rung::Escalated)
                                && matches!(a.outcome, RungOutcome::SchedulerFailed(_))
                        })
                        .count() as u64;
                    Ok(c)
                }
                Err(e) => Err(e.to_string()),
            }
        }
        Backend::Heuristic | Backend::Sat => {
            let lints = tr.time("verify", |_| {
                showdown::swp_verify::lint_findings(&body, machine)
            });
            let scheduled = if backend == Backend::Heuristic {
                tr.time("heur", |_| {
                    showdown::swp_heur::pipeline(&body, machine, &Default::default())
                        .map(|p| {
                            (
                                p.body,
                                p.schedule,
                                p.allocation,
                                p.stats.min_ii,
                                false,
                                p.stats.alloc_ns,
                            )
                        })
                        .map_err(|e| e.to_string())
                })
            } else {
                tr.time("sat", |_| {
                    showdown::swp_sat::pipeline_sat(&body, machine, &Effort::Quick.sat_options())
                        .map(|p| {
                            (
                                p.body,
                                p.schedule,
                                p.allocation,
                                p.stats.min_ii,
                                p.stats.optimal_ii,
                                p.stats.alloc_ns,
                            )
                        })
                        .map_err(|e| e.to_string())
                })
            };
            match scheduled {
                Err(e) => {
                    heur_failures = u64::from(backend == Backend::Heuristic);
                    Err(e)
                }
                Ok((pbody, schedule, allocation, min_ii, optimal, alloc_ns)) => {
                    let sched = if backend == Backend::Heuristic {
                        "heur"
                    } else {
                        "sat"
                    };
                    tr.reported_child(sched, "regalloc", alloc_ns);
                    let code = tr.time("expand", |_| {
                        PipelinedLoop::expand(&pbody, &schedule, &allocation)
                    });
                    let mut audit = tr.time("verify", |_| {
                        showdown::swp_verify::audit(&code, machine, VerifyLevel::Full)
                    });
                    audit.findings.splice(0..0, lints);
                    let ii = code.ii();
                    Ok(CompiledLoop {
                        code,
                        stats: CompileStats {
                            min_ii,
                            ii,
                            optimal,
                            alloc_ns,
                            ..CompileStats::default()
                        },
                        audit: Some(audit),
                        rung: None,
                        attempts: Vec::new(),
                    })
                }
            }
        }
    };
    JobOut {
        result,
        ops_removed,
        rung,
        heur_failures,
        trace: tr,
        ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Span name of the scheduler layer behind a ladder rung.
fn rung_span(rung: Option<Rung>) -> &'static str {
    match rung {
        Some(Rung::Ilp) => "most",
        Some(Rung::Sat) => "sat",
        Some(Rung::Heuristic) | Some(Rung::Escalated) => "heur",
        Some(Rung::Sequential) | None => "sequential",
    }
}

fn traced_pass(w: &Workload, machine: &Machine) -> TracedPass {
    let telemetry = Telemetry::new();
    let probe = ScheduleCache::new();
    let driver = Driver::uncached(THREADS);
    let epoch = Instant::now();
    let outs = driver.run_indexed(w.jobs.len(), |j| {
        let _installed = telemetry.install();
        traced_job(w, j, machine, epoch, &probe)
    });
    let mut p = TracedPass {
        trace: Trace::default(),
        wall: epoch.elapsed(),
        job_ns: 0,
        counters: telemetry.counters(),
        ops_removed: 0,
        shipped: Vec::new(),
        rungs: [0; 5],
        heur_failures: 0,
        fps: Vec::new(),
        results: Vec::new(),
    };
    for out in outs {
        p.job_ns += out.ns;
        p.ops_removed += out.ops_removed;
        p.heur_failures += out.heur_failures;
        if let Some(r) = out.rung {
            p.rungs[r.index()] += 1;
        }
        if let (Ok(c), Some(_)) = (&out.result, out.rung) {
            p.shipped.push((rung_span(out.rung), c.stats.optimal));
        }
        p.trace.add(out.trace);
        p.results.push(out.result);
    }
    p.fps = fingerprints(p.results.iter());
    p
}

/// Exact counters the traced runs report; they must repeat exactly.
pub const EXACT: [(&str, Counter); 10] = [
    ("heur.backtracks", Counter::HeurBacktracks),
    ("heur.spills", Counter::HeurSpills),
    ("sat.conflicts", Counter::SatConflicts),
    ("sat.propagations", Counter::SatPropagations),
    ("sat.fallbacks", Counter::SatFallbacks),
    ("ilp.pivots", Counter::IlpPivots),
    ("ilp.nodes", Counter::IlpNodes),
    ("most.ii_steps", Counter::MostIiSteps),
    ("verify.findings", Counter::VerifyFindings),
    ("ladder.demotions", Counter::LadderDemotions),
];

/// The traced run: per-layer metrics plus tracing overhead.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
    machine: &Machine,
    trace_path: &std::path::Path,
) -> Report {
    let mut report = Report::default();
    let w = setup(kind, seed);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut untraced_time, mut untraced_loops) = (Duration::ZERO, 0u64);
    let (mut traced_time, mut traced_loops) = (Duration::ZERO, 0u64);
    let mut reference: Option<Vec<Option<u64>>> = None;
    let mut first: Option<TracedPass> = None;
    let mut cache = (0u64, 0u64);
    let mut last = Duration::ZERO;
    while first.is_none() || crate::another_pass(started, last, budget) {
        let lap = Instant::now();
        let pass = untraced_pass(&w, machine);
        untraced_time += pass.wall;
        untraced_loops += pass.outcomes.len() as u64;
        cache = (pass.cache_hits, pass.cache_lookups);
        let fps = fingerprints(pass_results(&pass).iter());
        reference.get_or_insert(fps);

        let tp = traced_pass(&w, machine);
        traced_time += tp.wall;
        traced_loops += tp.fps.len() as u64;
        report.attempted += tp.fps.len() as u64;
        // The benchmark's own layer-by-layer path must ship exactly what
        // the driver path ships.
        let reference = reference.as_ref().expect("set above");
        let diverged = tp.fps.iter().zip(reference).filter(|(a, b)| a != b).count() as u64;
        if diverged > 0 {
            report.note(format!(
                "DIVERGED: traced layer calls shipped different code than the driver for {diverged} job(s)"
            ));
        }
        report.wrong += diverged;
        report.failed += diverged + tp.results.iter().filter(|r| r.is_err()).count() as u64;
        match &first {
            None => first = Some(tp),
            Some(f0) => {
                for (name, counter) in EXACT {
                    let (a, b) = (f0.counters.get(counter), tp.counters.get(counter));
                    if a != b {
                        report.note(format!(
                            "NONDETERMINISTIC: exact counter {name} read {a} then {b} on identical passes"
                        ));
                        report.wrong += 1;
                    }
                }
            }
        }
        last = lap.elapsed();
    }
    let p = first.expect("at least one traced pass");
    let (q, notes) = assess(&w, &p.results, machine);
    for n in notes {
        report.note(n);
    }
    report.wrong += q.wrong;
    for (name, counter) in EXACT {
        report.set(name, p.counters.get(counter) as f64);
    }
    report.set("opt.busy_ms", p.trace.self_ms("opt"));
    report.set("opt.ops_removed", p.ops_removed as f64);
    report.set("regalloc.busy_ms", p.trace.self_ms("regalloc"));
    report.set("expand.busy_ms", p.trace.self_ms("expand"));
    report.set("heur.failures", p.heur_failures as f64);
    let certified = |name: &str| {
        let shipped: Vec<bool> = p
            .shipped
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.1)
            .collect();
        if shipped.is_empty() {
            Value::Idle
        } else {
            Value::Measured(ratio(
                shipped.iter().filter(|&&c| c).count() as f64,
                shipped.len() as f64,
            ))
        }
    };
    let busy = |name: &str| {
        if p.trace.self_ns().contains_key(name) {
            Value::Measured(p.trace.self_ms(name))
        } else {
            Value::Idle
        }
    };
    report.put("heur.busy_ms", busy("heur"));
    report.put("sat.busy_ms", busy("sat"));
    report.put("most.busy_ms", busy("most"));
    report.set(
        "driver.idle_share",
        1.0 - ratio(p.job_ns as f64, THREADS as f64 * p.wall.as_nanos() as f64),
    );
    report.set("cache.hit_ratio", ratio(cache.0 as f64, cache.1 as f64));
    report.set(
        "cache.lookup_us",
        p.trace.self_ms("cache") * 1e3 / p.fps.len().max(1) as f64,
    );
    match kind {
        Kind::Livermore => {
            report.put("sat.certified_ratio", certified("sat"));
            report.put("most.certified_ratio", certified("most"));
            for (i, name) in [
                "ladder.rung.ilp",
                "ladder.rung.sat",
                "ladder.rung.heuristic",
                "ladder.rung.escalated",
                "ladder.rung.sequential",
            ]
            .into_iter()
            .enumerate()
            {
                report.set(name, p.rungs[i] as f64);
            }
            // The gate audits inside each rung; no public call exposes it.
            report.put("verify.busy_ms", Value::Unmeasured);
            let total_ms = p.job_ns as f64 / 1e6;
            report.note(format!(
                "attribution: most {:.1} ms of {:.1} ms job time ({:.1}%); ladder self (gate, lints, \
                 rejected rungs; unmeasured split) {:.1} ms",
                p.trace.self_ms("most"),
                total_ms,
                100.0 * ratio(p.trace.self_ms("most"), total_ms),
                p.trace.self_ms("ladder")
            ));
        }
        Kind::Corpus => {
            let direct = |b: Backend| {
                let jobs: Vec<_> = w
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, bk))| *bk == b)
                    .map(|(j, _)| j)
                    .collect();
                let shipped: Vec<_> = jobs
                    .iter()
                    .filter_map(|&j| p.results[j].as_ref().ok())
                    .collect();
                ratio(
                    shipped.iter().filter(|c| c.stats.optimal).count() as f64,
                    shipped.len() as f64,
                )
            };
            report.set("sat.certified_ratio", direct(Backend::Sat));
            report.put("most.certified_ratio", Value::Idle);
            report.set("verify.busy_ms", p.trace.self_ms("verify"));
            for name in [
                "ladder.rung.ilp",
                "ladder.rung.sat",
                "ladder.rung.heuristic",
                "ladder.rung.escalated",
                "ladder.rung.sequential",
            ] {
                report.put(name, Value::Idle);
            }
        }
    }
    for name in [
        "serve.proto.decode_us",
        "serve.proto.encode_us",
        "serve.proto.bytes",
        "serve.admission.demoted_share",
        "serve.admission.waits",
        "serve.store.hit_ratio",
        "serve.store.load_us",
        "serve.store.persist_us",
        "serve.store.bytes_written",
    ] {
        report.put(name, Value::Idle);
    }
    let traced_lps = traced_loops as f64 / traced_time.as_secs_f64();
    let untraced_lps = untraced_loops as f64 / untraced_time.as_secs_f64();
    report.set("trace.loops_per_s.traced", traced_lps);
    report.set("trace.loops_per_s.untraced", untraced_lps);
    report.set("trace.overhead_share", untraced_lps / traced_lps - 1.0);
    match p.trace.write_chrome(trace_path) {
        Ok(()) => report.note(format!(
            "trace: {} spans written to {}",
            p.trace.span_count(),
            trace_path.display()
        )),
        Err(e) => report.note(format!(
            "trace: could not write {}: {e}",
            trace_path.display()
        )),
    }
    report
}
