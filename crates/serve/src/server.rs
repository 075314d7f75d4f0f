//! The compile server: a thread-per-connection Unix-socket daemon
//! layered over the schedule cache and the disk store.
//!
//! Per-loop flow: admit (possibly demoting) → memory cache peek → disk
//! store lookup → compile through [`showdown::ScheduleCache`] (which
//! dedups concurrent identical requests) → persist the reply if it is
//! deterministic. The compile key [`showdown::cache_key_with`] covers
//! the loop, the machine, and *every* option that can change the result
//! — including the demotion level via `start_rung` and any deadline —
//! so a demoted or deadline-truncated compile can never alias a
//! full-effort record on disk or in memory.
//!
//! Fault posture: a client that sends garbage gets a structured error
//! frame and its connection closed; a client that vanishes mid-frame
//! costs its handler thread and nothing else; a persist failure costs
//! the persistence, not the reply. The accept loop and every handler
//! check a shared shutdown flag, so [`ServerHandle::shutdown`] (or
//! dropping the handle) quiesces the whole tree without leaking
//! threads.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use showdown::swp_most::MostOptions;
use showdown::swp_sat::SatOptions;
use showdown::{
    cache_key_with, CacheStats, CompileOptions, CompiledLoop, LadderOptions, PortfolioOptions,
    ScheduleCache, SchedulerChoice, Telemetry,
};
use swp_ir::Loop;
use swp_machine::{Machine, RegClass};

use crate::admission::{Admission, AdmissionOptions};
use crate::proto::{
    self, fnv1a, Enc, LoopOk, LoopReply, Message, ProtoError, RequestBatch, ResponseBatch,
    WireChoice,
};
use crate::store::{DiskStore, Lookup, StoreStats};

/// The service's SAT budgets, [`SatOptions::quick`]. No wall-clock limit
/// appears in any service preset — a served result must be reproducible
/// on any host, or the disk store could never return it. Per-request
/// deadlines are layered on top (and those results are then transient by
/// the cache's own rules).
pub fn quick_sat_options() -> SatOptions {
    SatOptions::quick()
}

/// The service's base ladder: quick deterministic budgets, full gate.
pub fn quick_ladder_options() -> LadderOptions {
    LadderOptions {
        most: MostOptions::quick(),
        sat: SatOptions::quick(),
        ..LadderOptions::default()
    }
}

/// The service's portfolio: every backend on quick deterministic
/// budgets, so the fixed-priority winner is host-independent.
pub fn quick_portfolio_options() -> PortfolioOptions {
    PortfolioOptions {
        most: MostOptions::quick(),
        sat: SatOptions::quick(),
        ..PortfolioOptions::default()
    }
}

/// Server configuration.
pub struct ServerOptions {
    /// Unix socket path to bind. An existing file at this path is
    /// replaced.
    pub socket: PathBuf,
    /// Root of the persistent store; `None` disables persistence.
    pub store_dir: Option<PathBuf>,
    /// Admission tunables.
    pub admission: AdmissionOptions,
    /// Telemetry collector handler threads install; disabled by default.
    pub telemetry: Telemetry,
    /// Chaos hook: make every persist crash after writing its temp file.
    pub fail_persist_after_tmp: bool,
}

impl ServerOptions {
    /// Defaults with an explicit socket path.
    pub fn at(socket: PathBuf) -> ServerOptions {
        ServerOptions {
            socket,
            store_dir: None,
            admission: AdmissionOptions::default(),
            telemetry: Telemetry::disabled(),
            fail_persist_after_tmp: false,
        }
    }
}

/// Point-in-time service counters, for reports and gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Loops admitted.
    pub admitted: u64,
    /// Admissions demoted by load or budget.
    pub demoted: u64,
    /// Arrivals that blocked on the hard in-flight cap.
    pub inflight_waits: u64,
    /// In-memory cache counters.
    pub cache: CacheStats,
    /// Disk store counters (zeroes when persistence is off).
    pub store: StoreStats,
}

struct Shared {
    machine: Machine,
    cache: ScheduleCache,
    store: Option<DiskStore>,
    admission: Admission,
    telemetry: Telemetry,
    shutdown: AtomicBool,
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread it spawned.
pub struct ServerHandle {
    shared: Arc<Shared>,
    socket: PathBuf,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Current service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            admitted: self.shared.admission.admitted(),
            demoted: self.shared.admission.demoted(),
            inflight_waits: self.shared.admission.waits(),
            cache: self.shared.cache.stats(),
            store: self
                .shared
                .store
                .as_ref()
                .map(DiskStore::stats)
                .unwrap_or_default(),
        }
    }

    /// Stop accepting, drain handlers, join all threads, remove the
    /// socket file. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = UnixStream::connect(&self.socket);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The server itself — constructors only; the running state lives in
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Bind the socket and start the accept loop.
    ///
    /// # Errors
    ///
    /// Socket bind or store-open failure. Nothing is spawned on error.
    pub fn start(machine: Machine, opts: ServerOptions) -> std::io::Result<ServerHandle> {
        let store = match &opts.store_dir {
            Some(dir) => {
                let store = DiskStore::open(dir)?;
                store
                    .fail_persist_after_tmp
                    .store(opts.fail_persist_after_tmp, Ordering::Relaxed);
                Some(store)
            }
            None => None,
        };
        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        let shared = Arc::new(Shared {
            machine,
            cache: ScheduleCache::new(),
            store,
            admission: Admission::new(opts.admission),
            telemetry: opts.telemetry,
            shutdown: AtomicBool::new(false),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            // Handler threads are tracked so shutdown can join them —
            // "zero hangs" includes the server's own exit path.
            let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let conn_shared = accept_shared.clone();
                let t = std::thread::spawn(move || handle_connection(conn_shared, stream));
                handlers.lock().expect("handler list").push(t);
            }
            for t in handlers.into_inner().expect("handler list") {
                let _ = t.join();
            }
        });
        Ok(ServerHandle {
            shared,
            socket: opts.socket,
            accept: Some(accept),
        })
    }
}

/// Poll interval for the shutdown flag while a handler waits for bytes.
const READ_TICK: Duration = Duration::from_millis(100);

fn handle_connection(shared: Arc<Shared>, mut stream: UnixStream) {
    let _telemetry = shared
        .telemetry
        .is_enabled()
        .then(|| shared.telemetry.install());
    let _ = stream.set_read_timeout(Some(READ_TICK));
    loop {
        let mut header = [0u8; 8];
        match read_full_interruptible(&mut stream, &mut header, &shared.shutdown) {
            ReadOutcome::Complete => {}
            ReadOutcome::CleanEof | ReadOutcome::Shutdown => return,
            ReadOutcome::Error(e) => {
                send_error(&mut stream, &e);
                return;
            }
        }
        // The payload read uses the plain blocking reader: once a header
        // has arrived the client owes the rest of the frame, and the
        // read timeout still bounds each individual wait.
        let payload = match read_payload_interruptible(&mut stream, &header, &shared.shutdown) {
            Ok(p) => p,
            Err(e) => {
                send_error(&mut stream, &e);
                return;
            }
        };
        let msg = match proto::decode_payload(&payload) {
            Ok(m) => m,
            Err(e) => {
                send_error(&mut stream, &e);
                return;
            }
        };
        match msg {
            Message::Request(req) => {
                let resp = process_batch(&shared, &req);
                if proto::write_message(&mut stream, &Message::Response(resp)).is_err() {
                    // Client went away mid-reply; nothing else to do.
                    return;
                }
            }
            // Clients must not send server-only frames.
            Message::Response(_) | Message::Error(_) => {
                send_error(
                    &mut stream,
                    &ProtoError::Malformed("unexpected message kind from client".into()),
                );
                return;
            }
        }
    }
}

fn send_error(stream: &mut UnixStream, e: &ProtoError) {
    // Best effort: the peer may already be gone, and framing may be
    // lost; the connection closes right after.
    let _ = proto::write_message(stream, &Message::Error(e.to_string()));
    let _ = stream.flush();
}

enum ReadOutcome {
    Complete,
    CleanEof,
    Shutdown,
    Error(ProtoError),
}

/// Fill `buf`, treating read timeouts as shutdown-check ticks. Between
/// frames a timeout is idle waiting; inside a frame it just re-arms the
/// same read, so a slow client is fine and a dead one is bounded by the
/// shutdown flag.
fn read_full_interruptible(
    stream: &mut UnixStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> ReadOutcome {
    use std::io::Read;
    let mut got = 0;
    while got < buf.len() {
        if shutdown.load(Ordering::SeqCst) {
            return ReadOutcome::Shutdown;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Error(ProtoError::MidFrameEof {
                        got,
                        want: buf.len() - got,
                    })
                };
            }
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return ReadOutcome::Error(e.into()),
        }
    }
    ReadOutcome::Complete
}

fn read_payload_interruptible(
    stream: &mut UnixStream,
    header: &[u8; 8],
    shutdown: &AtomicBool,
) -> Result<Vec<u8>, ProtoError> {
    let magic: [u8; 4] = header[..4].try_into().unwrap();
    if magic != proto::MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > proto::MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    match read_full_interruptible(stream, &mut payload, shutdown) {
        ReadOutcome::Complete => Ok(payload),
        ReadOutcome::CleanEof => Err(ProtoError::MidFrameEof { got: 0, want: len }),
        ReadOutcome::Shutdown => Err(ProtoError::Io("server shutting down".into())),
        ReadOutcome::Error(e) => Err(e),
    }
}

fn process_batch(shared: &Shared, req: &RequestBatch) -> ResponseBatch {
    let mut results = Vec::with_capacity(req.loops.len());
    for lp in &req.loops {
        let permit = shared.admission.admit(&req.client);
        let demotion = permit.demotion;
        let outcome = compile_one(shared, lp, req, demotion);
        drop(permit);
        results.push(LoopReply {
            name: lp.name().to_owned(),
            outcome,
        });
    }
    ResponseBatch {
        batch_id: req.batch_id,
        results,
    }
}

fn scheduler_for(req: &RequestBatch, demotion: u32) -> SchedulerChoice {
    let deadline = (req.deadline_ms > 0).then(|| Duration::from_millis(u64::from(req.deadline_ms)));
    // The optimal backends' budgets below demotion level 2: quick, leashed
    // at level 1, bounded by the request's deadline. The direct choices
    // and the portfolio share them (`layerbench` mirrors the SAT numbers).
    let most = || {
        let mut most = MostOptions::quick();
        if demotion == 1 {
            most.loop_pivot_limit = Some(100_000);
            most.pivot_limit = most.pivot_limit.min(100_000);
            most.node_limit = most.node_limit.min(2_000);
        }
        if let Some(d) = deadline {
            most.loop_time_limit = Some(d);
        }
        most
    };
    let sat = || {
        let mut sat = SatOptions::quick();
        if demotion == 1 {
            sat.loop_conflict_limit = Some(15_000);
            sat.conflict_limit = sat.conflict_limit.min(5_000);
        }
        if let Some(d) = deadline {
            sat.loop_time_limit = Some(d);
        }
        sat
    };
    match req.choice {
        WireChoice::Ladder => {
            let mut opts = quick_ladder_options().demoted(demotion);
            if let Some(d) = deadline {
                opts.most.loop_time_limit = Some(d);
            }
            SchedulerChoice::LadderWith(Box::new(opts))
        }
        WireChoice::Heuristic => SchedulerChoice::Heuristic,
        // Past level 1 every optimal choice sheds to the heuristic.
        _ if demotion >= 2 => SchedulerChoice::Heuristic,
        WireChoice::Ilp => SchedulerChoice::IlpWith(most()),
        WireChoice::Sat => SchedulerChoice::SatWith(sat()),
        // The heuristic keeps its full strength, so a leashed portfolio
        // still ships something.
        WireChoice::Portfolio => SchedulerChoice::PortfolioWith(Box::new(PortfolioOptions {
            most: most(),
            sat: sat(),
            ..quick_portfolio_options()
        })),
    }
}

fn compile_one(
    shared: &Shared,
    lp: &Loop,
    req: &RequestBatch,
    demotion: u32,
) -> Result<LoopOk, String> {
    let options = CompileOptions {
        choice: scheduler_for(req, demotion),
        verify: req.verify,
        opt: req.opt,
        telemetry: shared.telemetry.clone(),
    };
    let key = cache_key_with(lp, &shared.machine, &options);
    // Memory first: a ready entry needs no disk touch.
    if let Some(hit) = shared.cache.peek(key) {
        return hit
            .map(|c| loop_ok(&c, demotion))
            .map_err(|e| e.to_string());
    }
    // Then the persistent layer — this is what survives restarts.
    if let Some(store) = &shared.store {
        if let Lookup::Hit(mut ok) = store.load(key) {
            // The demotion level is keyed, so a stored record always
            // matches the level it was compiled at; echo the live one.
            ok.demotion = demotion as u8;
            return Ok(ok);
        }
    }
    let result = shared
        .cache
        .get_or_compile_with(lp, &shared.machine, &options);
    match result {
        Ok(c) => {
            let ok = loop_ok(&c, demotion);
            if let Some(store) = &shared.store {
                // Host-dependent (deadline-truncated) results must never
                // be persisted; the memory cache already refused them
                // too.
                if !c.stats.deadline_hit && !store.contains(key) {
                    let _ = store.persist(key, &ok);
                }
            }
            Ok(ok)
        }
        Err(e) => Err(e.to_string()),
    }
}

fn loop_ok(c: &CompiledLoop, demotion: u32) -> LoopOk {
    LoopOk {
        rung: c.rung.map(|r| r.index() as u8),
        demotion: demotion as u8,
        ii: c.stats.ii,
        min_ii: c.stats.min_ii,
        optimal: c.stats.optimal,
        fell_back: c.stats.fell_back,
        spills: c.stats.spills,
        search_effort: c.stats.search_effort,
        pivots: c.stats.pivots,
        code_fp: code_fingerprint(c),
        diagnostics: c.attempts.iter().map(|a| a.render()).collect(),
    }
}

/// Stable fingerprint of the emitted code: schedule times, all three
/// expanded sections, and register usage, FNV-hashed over a canonical
/// little-endian encoding. Everything hashed is deterministic output of
/// the compiler, so equal fingerprints across a restart certify the
/// disk store returned exactly what a cold compile produces.
pub fn code_fingerprint(c: &CompiledLoop) -> u64 {
    let code = &c.code;
    let mut e = Enc::default();
    e.u32(code.ii());
    e.u32(code.stage_count());
    e.u32(code.unroll());
    for &t in code.schedule().times() {
        e.i64(t);
    }
    for section in [code.prologue(), code.kernel(), code.epilogue()] {
        e.u32(section.len() as u32);
        for op in section {
            e.u32(op.op.0);
            e.i64(op.iteration);
            e.i64(op.cycle);
        }
    }
    for class in RegClass::ALL {
        e.u32(code.regs_used(class));
    }
    e.u32(code.total_regs());
    fnv1a(&e.buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use showdown::{OptLevel, VerifyLevel};
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

    /// `(choice, demotion, deadline_ms, cache_key_with)` for saxpy on the
    /// R8000, as the server compiles it. These keys address on-disk store
    /// records, so a change to the demotion presets that moves any value
    /// here invalidates every stored record; make it deliberately.
    const GOLDEN: &[(WireChoice, u32, u32, u64)] = &[
        (WireChoice::Ladder, 0, 0, 0xa140bee4ad1b8877),
        (WireChoice::Ladder, 0, 250, 0xb6f88409d7545f2e),
        (WireChoice::Ladder, 1, 0, 0x89008b8accdd70d8),
        (WireChoice::Ladder, 1, 250, 0x6fdf8b9b06635311),
        (WireChoice::Ladder, 2, 0, 0xbfb7f99a532f024e),
        (WireChoice::Ladder, 2, 250, 0xed2d7db64a72603b),
        (WireChoice::Heuristic, 0, 0, 0x0e92adaf0808ed65),
        (WireChoice::Heuristic, 0, 250, 0x0e92adaf0808ed65),
        (WireChoice::Heuristic, 1, 0, 0x0e92adaf0808ed65),
        (WireChoice::Heuristic, 1, 250, 0x0e92adaf0808ed65),
        (WireChoice::Heuristic, 2, 0, 0x0e92adaf0808ed65),
        (WireChoice::Heuristic, 2, 250, 0x0e92adaf0808ed65),
        (WireChoice::Ilp, 0, 0, 0xa1086c9875f54c3c),
        (WireChoice::Ilp, 0, 250, 0x6352726c2ef57157),
        (WireChoice::Ilp, 1, 0, 0xdeed08c8423e8218),
        (WireChoice::Ilp, 1, 250, 0x0d2f96a3ef98f6c3),
        (WireChoice::Ilp, 2, 0, 0x0e92adaf0808ed65),
        (WireChoice::Ilp, 2, 250, 0x0e92adaf0808ed65),
        (WireChoice::Sat, 0, 0, 0x1380dfcf1988ca49),
        (WireChoice::Sat, 0, 250, 0xc62f4e5702d53fd2),
        (WireChoice::Sat, 1, 0, 0xfc6cb3034002081a),
        (WireChoice::Sat, 1, 250, 0x6fc5d586313d8935),
        (WireChoice::Sat, 2, 0, 0x0e92adaf0808ed65),
        (WireChoice::Sat, 2, 250, 0x0e92adaf0808ed65),
        (WireChoice::Portfolio, 0, 0, 0x4979166e4afed551),
        (WireChoice::Portfolio, 0, 250, 0xc10de5bf6a1aa433),
        (WireChoice::Portfolio, 1, 0, 0x85624d88bc98d980),
        (WireChoice::Portfolio, 1, 250, 0xbfd341f014d2af36),
        (WireChoice::Portfolio, 2, 0, 0x0e92adaf0808ed65),
        (WireChoice::Portfolio, 2, 250, 0x0e92adaf0808ed65),
    ];

    #[test]
    fn served_compile_keys_are_frozen() {
        let lp = saxpy();
        let m = Machine::r8000();
        let mut keys = Vec::new();
        for choice in [
            WireChoice::Ladder,
            WireChoice::Heuristic,
            WireChoice::Ilp,
            WireChoice::Sat,
            WireChoice::Portfolio,
        ] {
            for demotion in 0..=2 {
                for deadline_ms in [0, 250] {
                    let req = RequestBatch {
                        batch_id: 0,
                        client: "golden".to_owned(),
                        deadline_ms,
                        choice,
                        opt: OptLevel::Off,
                        verify: VerifyLevel::Off,
                        loops: Vec::new(),
                    };
                    let options = CompileOptions {
                        choice: scheduler_for(&req, demotion),
                        verify: req.verify,
                        opt: req.opt,
                        telemetry: Telemetry::disabled(),
                    };
                    let key = cache_key_with(&lp, &m, &options);
                    keys.push((choice, demotion, deadline_ms, key));
                }
            }
        }
        assert_eq!(keys, GOLDEN);
    }
}
