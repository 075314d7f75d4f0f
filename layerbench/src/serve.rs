//! The `serve-repeat` workload: the in-process compile daemon on a Unix
//! socket with a disk store, driven by two closed-loop clients.
//!
//! Each client owns one connection and a seeded stream of small
//! `WireChoice::Sat` batches at `OptLevel::Off` / `VerifyLevel::Off`.
//! Most loops come from the client's hot set, compiled during set-up; a
//! small share are first-time loops that compile and persist. Halfway
//! through, the server restarts on the same store, so the second half
//! reads records the first half wrote.
//!
//! The two clients draw from disjoint hot sets and first-time loops:
//! admission budgets are per client and no key is shared, so every
//! demotion, cache hit and store hit is a function of the inputs alone,
//! never of how the two clients interleave.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use showdown::swp_ir::OptLevel;
use showdown::swp_machine::Machine;
use showdown::{
    cache_key_with, CompileOptions, ScheduleCache, SchedulerChoice, Telemetry, VerifyLevel,
};
use swp_serve::{
    code_fingerprint, decode_payload, encode_message, server::quick_sat_options, Client, DiskStore,
    LoopOk, Message, RequestBatch, ResponseBatch, ServeStats, Server, ServerHandle, ServerOptions,
    WireChoice,
};

use crate::inputs::{check, small_loops, Case, Quality, Rng, Shipped};
use crate::metrics::{median, ratio, report_timing, Report, Value};
use crate::trace::{JobTrace, Trace};

const CLIENTS: usize = 2;
/// Hot loops per client, all compiled during set-up. At most 31 fit in a
/// fresh admission bucket at full effort, so set-up is never demoted.
const HOT_PER_CLIENT: usize = 24;
/// Batches each client sends per pass; the restart falls halfway.
const BATCHES_PER_CLIENT: usize = 12_000;
/// Every 3750th loop slot holds a first-time loop: 8 per client and pass.
/// With the demoted repeats that miss the cache (96 per pass), about one
/// request in 200 compiles, so `latency_ms.p99` falls well inside the
/// warm requests (memory hits, and store loads after the restart) rather
/// than at their boundary with the compiling ones. A compiling request
/// spends most of its time writing its store record (a few hundred
/// microseconds per small-file write on a 2-vCPU VM), and those writes
/// vary more than anything else the workload does: with one request in
/// fifty compiling, the p99 tracked the file system, not the service.
const FRESH_EVERY: usize = 3750;
/// Generator seed of the loop pool.
const POOL_SEED: u64 = 1996;
/// Set-ups whose median is `setup_s` (extra set-ups run when fewer
/// passes fit in the run).
const MIN_SETUPS: usize = 3;

/// Where a batch slot's loop comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Hot(usize),
    Fresh(usize),
}

struct ClientInputs {
    hot: Vec<Case>,
    fresh: Vec<Case>,
    batches: Vec<Vec<Slot>>,
}

impl ClientInputs {
    fn case(&self, slot: Slot) -> &Case {
        match slot {
            Slot::Hot(i) => &self.hot[i],
            Slot::Fresh(i) => &self.fresh[i],
        }
    }
}

/// Per client: a hot set and first-time loops, and a stream of batches of
/// 1-4 loops (the sizes cycle) in which every 160th slot is the next
/// first-time loop and every other slot a seeded pick from the hot set.
/// The loops come from one fixed pool and the seed only shapes the stream
/// (which hot loop repeats where, and the order of the first-time loops):
/// the compile time of small SAT loops is heavy-tailed, and per-seed loop
/// bodies made the compile work of a pass vary twofold between seeds. The
/// stream's shape is the same for every seed, so the admission decisions
/// are too.
fn setup_inputs(seed: u64) -> Vec<ClientInputs> {
    let mut pool = Rng::new(POOL_SEED);
    let mut rng = Rng::new(seed);
    let slots: usize = (0..BATCHES_PER_CLIENT).map(|b| b % 4 + 1).sum();
    (0..CLIENTS)
        .map(|_| {
            let hot = small_loops(&mut pool, HOT_PER_CLIENT);
            let mut fresh = small_loops(&mut pool, slots / FRESH_EVERY);
            rng.shuffle(&mut fresh);
            let mut slot = 0;
            let batches: Vec<Vec<Slot>> = (0..BATCHES_PER_CLIENT)
                .map(|b| {
                    (0..=b % 4)
                        .map(|_| {
                            slot += 1;
                            if slot % FRESH_EVERY == 0 {
                                Slot::Fresh(slot / FRESH_EVERY - 1)
                            } else {
                                Slot::Hot(rng.range(0, HOT_PER_CLIENT as u64 - 1) as usize)
                            }
                        })
                        .collect()
                })
                .collect();
            ClientInputs {
                hot,
                fresh,
                batches,
            }
        })
        .collect()
}

fn request(
    c: usize,
    batch: usize,
    client: &str,
    loops: Vec<showdown::swp_ir::Loop>,
) -> RequestBatch {
    RequestBatch {
        batch_id: (c * BATCHES_PER_CLIENT + batch) as u64,
        client: client.to_owned(),
        deadline_ms: 0,
        choice: WireChoice::Sat,
        opt: OptLevel::Off,
        verify: VerifyLevel::Off,
        loops,
    }
}

/// The compile options the server uses for a `WireChoice::Sat` loop at a
/// demotion level (mirrors the service's demotion presets). The replies'
/// code fingerprints prove the mirror right: a mismatch is reported as a
/// wrong output.
fn served_options(demotion: u8) -> CompileOptions {
    let choice = if demotion >= 2 {
        SchedulerChoice::Heuristic
    } else {
        let mut sat = quick_sat_options();
        if demotion == 1 {
            sat.loop_conflict_limit = Some(15_000);
            sat.conflict_limit = sat.conflict_limit.min(5_000);
        }
        SchedulerChoice::SatWith(sat)
    };
    CompileOptions {
        choice,
        verify: VerifyLevel::Off,
        opt: OptLevel::Off,
        telemetry: Telemetry::disabled(),
    }
}

fn start(machine: &Machine, dir: &Path, telemetry: &Telemetry) -> std::io::Result<ServerHandle> {
    let mut opts = ServerOptions::at(dir.join("s.sock"));
    opts.store_dir = Some(dir.join("store"));
    opts.telemetry = telemetry.clone();
    Server::start(machine.clone(), opts)
}

/// Remove what an earlier pass left in `dir`. Callers do this before
/// they start a set-up clock: deleting the last pass's records is the
/// benchmark's housekeeping, not the service's set-up.
fn clear(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    Ok(())
}

/// Fresh store directory (cleared by the caller), started server, hot
/// sets compiled.
fn setup_server(
    inputs: &[ClientInputs],
    machine: &Machine,
    dir: &Path,
    telemetry: &Telemetry,
) -> std::io::Result<ServerHandle> {
    std::fs::create_dir_all(dir)?;
    let server = start(machine, dir, telemetry)?;
    for (c, ci) in inputs.iter().enumerate() {
        let mut client = Client::connect(server.socket()).map_err(std::io::Error::other)?;
        let loops = ci.hot.iter().map(|h| h.body.clone()).collect();
        let resp = client
            .compile_batch(&request(c, 0, &format!("warm-{c}"), loops))
            .map_err(std::io::Error::other)?;
        if let Some(bad) = resp.results.iter().find(|r| r.outcome.is_err()) {
            return Err(std::io::Error::other(format!(
                "pre-warm failed on {}",
                bad.name
            )));
        }
    }
    Ok(server)
}

/// One request as the client saw it.
struct Sent {
    client: usize,
    batch: usize,
    latency: Duration,
    reply: Result<ResponseBatch, String>,
}

fn run_phase(
    server: &ServerHandle,
    inputs: &[ClientInputs],
    batches: std::ops::Range<usize>,
    epoch: Instant,
    trace: Option<&mut Trace>,
) -> Vec<Sent> {
    let traced = trace.is_some();
    let per_client: Vec<(Vec<Sent>, Option<JobTrace>)> = std::thread::scope(|scope| {
        let joins: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(c, ci)| {
                let batches = batches.clone();
                scope.spawn(move || {
                    let mut tr = traced.then(|| JobTrace::new(epoch, c as u64));
                    let mut sent = Vec::new();
                    let mut client = Client::connect(server.socket());
                    for b in batches {
                        let loops = ci.batches[b]
                            .iter()
                            .map(|&s| ci.case(s).body.clone())
                            .collect();
                        let req = request(c, b, &format!("client-{c}"), loops);
                        let t = Instant::now();
                        let reply = match (&mut client, &mut tr) {
                            (Ok(cl), Some(tr)) => tr.time("request", |_| cl.compile_batch(&req)),
                            (Ok(cl), None) => cl.compile_batch(&req),
                            (Err(e), _) => Err(swp_serve::ProtoError::Io(e.to_string())),
                        };
                        sent.push(Sent {
                            client: c,
                            batch: b,
                            latency: t.elapsed(),
                            reply: reply.map_err(|e| e.to_string()),
                        });
                    }
                    (sent, tr)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread"))
            .collect()
    });
    let mut all = Vec::new();
    let mut trace = trace;
    for (sent, tr) in per_client {
        all.extend(sent);
        if let (Some(trace), Some(tr)) = (trace.as_deref_mut(), tr) {
            trace.add(tr);
        }
    }
    all
}

/// One pass: set-up (untimed), then both halves and the restart (timed).
struct Pass {
    setup: Duration,
    wall: Duration,
    sent: Vec<Sent>,
    /// Counters of the first and the restarted server.
    stats: [ServeStats; 2],
    /// Index of the first request sent after the restart, per client.
    restart_at: usize,
}

fn pass(
    inputs: &[ClientInputs],
    machine: &Machine,
    dir: &Path,
    telemetry: &Telemetry,
    mut trace: Option<&mut Trace>,
) -> std::io::Result<Pass> {
    clear(dir)?;
    let t = Instant::now();
    let server = setup_server(inputs, machine, dir, telemetry)?;
    let setup = t.elapsed();
    let half = BATCHES_PER_CLIENT / 2;
    let epoch = Instant::now();
    let mut sent = run_phase(&server, inputs, 0..half, epoch, trace.as_deref_mut());
    let first = server.stats();
    drop(server);
    let server = start(machine, dir, telemetry)?;
    sent.extend(run_phase(
        &server,
        inputs,
        half..BATCHES_PER_CLIENT,
        epoch,
        trace,
    ));
    let wall = epoch.elapsed();
    let second = server.stats();
    drop(server);
    Ok(Pass {
        setup,
        wall,
        sent,
        stats: [first, second],
        restart_at: half,
    })
}

/// The request a `Sent` record stands for, rebuilt from the inputs.
fn sent_request(inputs: &[ClientInputs], s: &Sent) -> RequestBatch {
    let ci = &inputs[s.client];
    let loops = ci.batches[s.batch]
        .iter()
        .map(|&slot| ci.case(slot).body.clone())
        .collect();
    request(s.client, s.batch, &format!("client-{}", s.client), loops)
}

fn pass_loops(inputs: &[ClientInputs], p: &Pass) -> u64 {
    p.sent
        .iter()
        .map(|s| inputs[s.client].batches[s.batch].len() as u64)
        .sum()
}

/// Reply fingerprints in request order (`None` for an error), the
/// determinism witness between passes.
fn reply_fps(inputs: &[ClientInputs], p: &Pass) -> Vec<Option<u64>> {
    p.sent
        .iter()
        .flat_map(|s| match &s.reply {
            Ok(r) => r
                .results
                .iter()
                .map(|l| l.outcome.as_ref().ok().map(|o| o.code_fp))
                .collect(),
            Err(_) => vec![None; inputs[s.client].batches[s.batch].len()],
        })
        .collect()
}

/// A served (client, slot, demotion) triple: what the store keys.
type Served = (usize, Slot, u8);

/// Everything the first pass is checked against, outside the timed
/// region: each reply's code fingerprint equals a local compile under the
/// same options, the local compile simulates bit-exactly, and every
/// triple served before and after the restart carries one fingerprint.
struct Assessed {
    quality: Quality,
    notes: Vec<String>,
    local: ScheduleCache,
    /// Distinct served triples with their reply.
    served: BTreeMap<Served, LoopOk>,
}

fn assess(inputs: &[ClientInputs], p: &Pass, machine: &Machine) -> Assessed {
    let local = ScheduleCache::new();
    let mut q = Quality::default();
    let mut notes = Vec::new();
    let mut checked: BTreeMap<Served, Result<Shipped, String>> = BTreeMap::new();
    let mut served: BTreeMap<Served, LoopOk> = BTreeMap::new();
    let mut phase_fp: [BTreeMap<Served, u64>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for s in &p.sent {
        let ci = &inputs[s.client];
        let slots = &ci.batches[s.batch];
        q.attempted += slots.len() as u64;
        let replies = match &s.reply {
            Ok(r) if r.results.len() == slots.len() => &r.results,
            Ok(_) | Err(_) => {
                q.errors += slots.len() as u64;
                notes.push(format!(
                    "request failed: client {} batch {}: {:?}",
                    s.client,
                    s.batch,
                    s.reply.as_ref().err()
                ));
                continue;
            }
        };
        for (&slot, reply) in slots.iter().zip(replies) {
            let ok = match &reply.outcome {
                Ok(ok) => ok,
                Err(e) => {
                    q.errors += 1;
                    notes.push(format!("error reply for {}: {e}", reply.name));
                    continue;
                }
            };
            let key: Served = (s.client, slot, ok.demotion);
            let case = ci.case(slot);
            let verdict = checked.entry(key).or_insert_with(|| {
                let compiled = local
                    .get_or_compile_with(&case.body, machine, &served_options(ok.demotion))
                    .map_err(|e| format!("local compile failed: {e}"))?;
                if code_fingerprint(&compiled) != ok.code_fp {
                    return Err(
                        "served code differs from a local compile under the same options".into(),
                    );
                }
                check(case, &compiled, machine)
            });
            match verdict {
                Ok(_) => {}
                Err(e) => {
                    q.wrong += 1;
                    notes.push(format!("WRONG OUTPUT: {}: {e}", reply.name));
                }
            }
            let phase = usize::from(s.batch >= p.restart_at);
            if let Some(before) = phase_fp[phase].insert(key, ok.code_fp) {
                if before != ok.code_fp {
                    q.wrong += 1;
                    notes.push(format!(
                        "WRONG OUTPUT: {} served two different codes",
                        reply.name
                    ));
                }
            }
            served.entry(key).or_insert_with(|| ok.clone());
        }
    }
    let mut across = 0;
    for (key, fp) in &phase_fp[1] {
        if let Some(before) = phase_fp[0].get(key) {
            across += 1;
            if before != fp {
                q.wrong += 1;
                notes.push(format!(
                    "WRONG OUTPUT: {:?} changed code across the restart",
                    key
                ));
            }
        }
    }
    notes.push(format!("restart check: {across} loop(s) served before and after the restart, same code_fp required"));
    for (key, verdict) in &checked {
        if let (Ok(s), Some(ok)) = (verdict, served.get(key)) {
            q.add(&Shipped {
                ii: ok.ii,
                min_ii: ok.min_ii,
                certified: ok.optimal,
                ..*s
            });
        }
    }
    Assessed {
        quality: q,
        notes,
        local,
        served,
    }
}

fn stats_note(p: &Pass) -> String {
    let [a, b] = p.stats;
    format!(
        "server: admitted {}+{} demoted {}+{} waits {}+{} | cache hits {}+{} misses {}+{} | \
         store hits {}+{} misses {}+{} persisted {}+{} (before+after restart)",
        a.admitted,
        b.admitted,
        a.demoted,
        b.demoted,
        a.inflight_waits,
        b.inflight_waits,
        a.cache.hits,
        b.cache.hits,
        a.cache.misses,
        b.cache.misses,
        a.store.hits,
        b.store.hits,
        a.store.misses,
        b.store.misses,
        a.store.persisted,
        b.store.persisted
    )
}

fn work_dir(root: &Path, seed: u64) -> PathBuf {
    root.join(format!("serve-{}-{seed}", std::process::id()))
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, machine: &Machine, root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let t = Instant::now();
    let inputs = setup_inputs(seed);
    let input_s = t.elapsed().as_secs_f64();
    let dir = work_dir(root, seed);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut latencies_ms: Vec<Vec<f64>> = Vec::new();
    let mut rates = Vec::new();
    let mut timed = Duration::ZERO;
    let mut last = Duration::ZERO;
    let mut first: Option<(Vec<Option<u64>>, Quality)> = None;
    while rates.len() < crate::MIN_PASSES || crate::another_pass(started, last, budget) {
        let lap = Instant::now();
        let p = pass(&inputs, machine, &dir, &Telemetry::disabled(), None)?;
        setups.push(input_s + p.setup.as_secs_f64());
        timed += p.wall;
        latencies_ms.resize(p.sent.len(), Vec::new());
        let mut loops = 0;
        for (i, s) in p.sent.iter().enumerate() {
            latencies_ms[i].push(s.latency.as_secs_f64() * 1e3);
            loops += inputs[s.client].batches[s.batch].len();
        }
        rates.push(loops as f64 / p.wall.as_secs_f64());
        let fps = reply_fps(&inputs, &p);
        match &first {
            None => {
                let a = assess(&inputs, &p, machine);
                for n in a.notes {
                    report.note(n);
                }
                report.note(stats_note(&p));
                first = Some((fps, a.quality));
            }
            Some((fps0, q0)) => {
                let changed = fps.iter().zip(fps0).filter(|(a, b)| a != b).count() as u64;
                if changed > 0 {
                    report.note(format!(
                        "NONDETERMINISTIC: pass {} served different code for {changed} loop(s)",
                        rates.len()
                    ));
                }
                report.wrong += changed;
                report.failed += changed + q0.failed();
                report.attempted += q0.attempted;
            }
        }
        last = lap.elapsed();
    }
    while setups.len() < MIN_SETUPS {
        clear(&dir)?;
        let t = Instant::now();
        let server = setup_server(&inputs, machine, &dir, &Telemetry::disabled())?;
        setups.push(input_s + t.elapsed().as_secs_f64());
        drop(server);
    }
    std::fs::remove_dir_all(&dir)?;
    let (_, q) = first.expect("at least one pass");
    report.attempted += q.attempted;
    report.failed += q.failed();
    report.wrong += q.wrong;
    q.report(&mut report);
    report.set("setup_s", median(&setups));
    report_timing(&mut report, &rates, &latencies_ms);
    report.note(format!(
        "serve-repeat: seed {seed}, {CLIENTS} clients x {BATCHES_PER_CLIENT} batches x {} pass(es) \
         in {:.3} s timed, {} set-ups",
        rates.len(),
        timed.as_secs_f64(),
        setups.len()
    ));
    Ok(report)
}

/// Mean of per-call microseconds, timing `f` under a span per call.
fn replay<T>(tr: &mut JobTrace, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for it in items {
        tr.time(name, |_| f(it));
    }
    ratio(t.elapsed().as_secs_f64() * 1e6, items.len() as f64)
}

/// The traced run: per-layer metrics plus tracing overhead.
pub fn run_traced(
    seed: u64,
    seconds: u64,
    machine: &Machine,
    root: &Path,
    trace_path: &Path,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    let inputs = setup_inputs(seed);
    let dir = work_dir(root, seed);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut untraced_time, mut untraced_loops) = (Duration::ZERO, 0u64);
    let (mut traced_time, mut traced_loops) = (Duration::ZERO, 0u64);
    let mut trace = Trace::default();
    let mut first: Option<(Pass, Telemetry)> = None;
    let mut last = Duration::ZERO;
    while first.is_none() || crate::another_pass(started, last, budget) {
        let lap = Instant::now();
        let p = pass(&inputs, machine, &dir, &Telemetry::disabled(), None)?;
        untraced_time += p.wall;
        untraced_loops += pass_loops(&inputs, &p);
        let telemetry = Telemetry::new();
        let mut pass_trace = Trace::default();
        let p = pass(&inputs, machine, &dir, &telemetry, Some(&mut pass_trace))?;
        traced_time += p.wall;
        traced_loops += pass_loops(&inputs, &p);
        match &first {
            None => {
                trace = pass_trace;
                first = Some((p, telemetry));
            }
            Some((p0, t0)) => {
                let (c0, c1) = (t0.counters(), telemetry.counters());
                for (name, counter) in crate::compile::EXACT {
                    if c0.get(counter) != c1.get(counter) {
                        report.note(format!(
                            "NONDETERMINISTIC: exact counter {name} differs between identical passes"
                        ));
                        report.wrong += 1;
                    }
                }
                if p0.stats != p.stats {
                    report.note(
                        "NONDETERMINISTIC: admission, cache or store counts differ between identical passes",
                    );
                    report.wrong += 1;
                }
            }
        }
        last = lap.elapsed();
    }
    let (p, telemetry) = first.expect("at least one traced pass");
    let a = assess(&inputs, &p, machine);
    for n in a.notes {
        report.note(n);
    }
    report.note(stats_note(&p));
    report.attempted = a.quality.attempted;
    report.failed = a.quality.failed();
    report.wrong += a.quality.wrong;

    // Replays of the public calls the server makes, on the same frames
    // and keys, each under a span.
    let epoch = Instant::now();
    let mut tr = JobTrace::new(epoch, u64::MAX);
    let frames: Vec<Vec<u8>> = p
        .sent
        .iter()
        .flat_map(|s| {
            let mut f = vec![encode_message(&Message::Request(sent_request(&inputs, s)))];
            if let Ok(r) = &s.reply {
                f.push(encode_message(&Message::Response(r.clone())));
            }
            f
        })
        .collect();
    let messages: Vec<Message> = p
        .sent
        .iter()
        .flat_map(|s| {
            let mut m = vec![Message::Request(sent_request(&inputs, s))];
            if let Ok(r) = &s.reply {
                m.push(Message::Response(r.clone()));
            }
            m
        })
        .collect();
    let encode_us = replay(&mut tr, "serve.proto.encode", &messages, |m| {
        std::hint::black_box(encode_message(m));
    });
    let mut decode_errors = 0;
    let decode_us = replay(&mut tr, "serve.proto.decode", &frames, |f| {
        decode_errors += u64::from(decode_payload(&f[8..]).is_err());
    });
    report.wrong += decode_errors;
    let keys: Vec<(u64, LoopOk)> = a
        .served
        .iter()
        .map(|(&(c, slot, demotion), ok)| {
            let body = &inputs[c].case(slot).body;
            (
                cache_key_with(body, machine, &served_options(demotion)),
                ok.clone(),
            )
        })
        .collect();
    let store = DiskStore::open(&dir.join("store"))?;
    let mut missing = 0;
    let load_us = replay(&mut tr, "serve.store.load", &keys, |(k, _)| {
        missing += u64::from(!matches!(store.load(*k), swp_serve::Lookup::Hit(_)));
    });
    if missing > 0 {
        report.note(format!(
            "store replay: {missing} served key(s) not found in the store"
        ));
    }
    let scratch = DiskStore::open(&dir.join("replay-store"))?;
    let persist_us = replay(&mut tr, "serve.store.persist", &keys, |(k, ok)| {
        let _ = scratch.persist(*k, ok);
    });
    let served: Vec<&Served> = a.served.keys().collect();
    let lookup_us = replay(&mut tr, "cache.lookup", &served, |&&(c, slot, demotion)| {
        let key = cache_key_with(
            &inputs[c].case(slot).body,
            machine,
            &served_options(demotion),
        );
        std::hint::black_box(a.local.peek(key));
    });
    trace.add(tr);
    let bytes_written: u64 = std::fs::read_dir(dir.join("store"))?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    std::fs::remove_dir_all(&dir)?;

    let [s0, s1] = p.stats;
    let counters = telemetry.counters();
    for (name, counter) in crate::compile::EXACT {
        report.set(name, counters.get(counter) as f64);
    }
    let sat_served: Vec<&LoopOk> = a.served.values().filter(|ok| ok.demotion < 2).collect();
    report.set(
        "sat.certified_ratio",
        ratio(
            sat_served.iter().filter(|ok| ok.optimal).count() as f64,
            sat_served.len() as f64,
        ),
    );
    report.set("heur.failures", a.quality.errors as f64);
    // Scheduling, allocation and expansion run inside the server; no
    // public call exposes their time.
    for name in [
        "sat.busy_ms",
        "heur.busy_ms",
        "regalloc.busy_ms",
        "expand.busy_ms",
    ] {
        report.put(name, Value::Unmeasured);
    }
    for name in [
        "opt.busy_ms",
        "opt.ops_removed",
        "most.busy_ms",
        "most.certified_ratio",
        "verify.busy_ms",
        "ladder.rung.ilp",
        "ladder.rung.sat",
        "ladder.rung.heuristic",
        "ladder.rung.escalated",
        "ladder.rung.sequential",
        "driver.idle_share",
    ] {
        report.put(name, Value::Idle);
    }
    // The server's memory-cache `peek` fast path counts nothing, so the
    // memory hits are what remains of the admitted loops after store hits
    // and compiles.
    let admitted = (s0.admitted + s1.admitted) as f64;
    let memory_hits =
        admitted - (s0.store.hits + s1.store.hits + s0.cache.misses + s1.cache.misses) as f64;
    report.set("cache.hit_ratio", ratio(memory_hits, admitted));
    let hot: Vec<u8> = p
        .sent
        .iter()
        .filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r)))
        .flat_map(|(s, r)| {
            inputs[s.client].batches[s.batch]
                .iter()
                .zip(&r.results)
                .filter(|(slot, _)| matches!(slot, Slot::Hot(_)))
                .filter_map(|(_, l)| l.outcome.as_ref().ok().map(|o| o.demotion))
                .collect::<Vec<_>>()
        })
        .collect();
    report.note(format!(
        "warm repeats: {} of {} requests for already-compiled hot loops were demoted (each demotion \
         level keys separately, so a demoted repeat can miss the cache); memory-cache hits {} of {} \
         admitted loops",
        hot.iter().filter(|&&d| d > 0).count(),
        hot.len(),
        memory_hits,
        admitted
    ));
    report.set("cache.lookup_us", lookup_us);
    report.set("serve.proto.encode_us", encode_us);
    report.set("serve.proto.decode_us", decode_us);
    report.set(
        "serve.proto.bytes",
        frames.iter().map(|f| f.len() as f64).sum(),
    );
    report.set(
        "serve.admission.demoted_share",
        ratio(
            (s0.demoted + s1.demoted) as f64,
            (s0.admitted + s1.admitted) as f64,
        ),
    );
    report.set(
        "serve.admission.waits",
        (s0.inflight_waits + s1.inflight_waits) as f64,
    );
    let store_hits = (s0.store.hits + s1.store.hits) as f64;
    report.set(
        "serve.store.hit_ratio",
        ratio(
            store_hits,
            store_hits + (s0.store.misses + s1.store.misses) as f64,
        ),
    );
    report.set("serve.store.load_us", load_us);
    report.set("serve.store.persist_us", persist_us);
    report.set("serve.store.bytes_written", bytes_written as f64);
    let traced_lps = traced_loops as f64 / traced_time.as_secs_f64();
    let untraced_lps = untraced_loops as f64 / untraced_time.as_secs_f64();
    report.set("trace.loops_per_s.traced", traced_lps);
    report.set("trace.loops_per_s.untraced", untraced_lps);
    report.set("trace.overhead_share", untraced_lps / traced_lps - 1.0);
    report.note(format!(
        "request span self time {:.1} ms over {} requests (server-side split unmeasured)",
        trace.self_ms("request"),
        p.sent.len()
    ));
    match trace.write_chrome(trace_path) {
        Ok(()) => report.note(format!(
            "trace: {} spans written to {}",
            trace.span_count(),
            trace_path.display()
        )),
        Err(e) => report.note(format!(
            "trace: could not write {}: {e}",
            trace_path.display()
        )),
    }
    Ok(report)
}
