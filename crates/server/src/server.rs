//! The serving loop: TCP accept, per-connection framing, fair scheduling
//! onto a worker pool, admission control, and response writing.
//!
//! Threading model (std-only, DESIGN.md §4.17): one accept thread, one
//! reader thread per connection, and N worker threads popping a
//! [`FairQueue`] keyed by tenant. Workers execute jobs through one shared
//! [`Engine`] (so the SMT query cache spans jobs and connections) with
//! every execution wrapped in `catch_unwind`: a panicking job produces an
//! `EINTERNAL` error frame, never a dead worker. Responses are written
//! under a per-connection mutex and correlated by client-chosen id, so a
//! connection may pipeline requests and receive completions out of order.

use crate::jobs::{Engine, JobSpec};
use crate::journal::{self, Wal, WalRecord};
use crate::protocol::{
    parse_request, render_done, render_error, render_error_detail, ErrorCode, Frame, FrameReader,
};
use crate::shard_exec::{run_sharded, Isolation, ShardExecError};
use sciduction::exec::{lock_ignoring_poison, panic_message, FairQueue, FaultPlan, Offer};
use sciduction::json::{self, Value};
use sciduction::persist::DiskCacheTier;
use sciduction::{Budget, BudgetMeter, BudgetReceipt};
use sciduction_analysis::{Report, Severity};
use sciduction_smt::SmtQueryCache;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// On-disk generation of the query-cache tier (`cache.log` in the state
/// dir); bump on any entry-format change so stale tiers reset.
pub const CACHE_GENERATION: u64 = 1;

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use `127.0.0.1:0` to let the OS pick a port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-tenant admission budget: each tenant's account meters the
    /// receipts of its finished jobs against this cap and refuses new
    /// jobs (with `EADMIT`) once exhausted.
    pub tenant_budget: Budget,
    /// Where certificate artifacts are written (`None` disables files).
    pub proofs_dir: Option<PathBuf>,
    /// Durable state directory (query-cache tier + job WAL). `None`
    /// keeps the pre-durability behavior: everything dies with the
    /// process. With a state dir, startup runs a recovery pass (replay,
    /// then the SRV/DUR audits) and **refuses to serve** from a corrupt
    /// or forged journal.
    pub state_dir: Option<PathBuf>,
    /// Bound on the fair queue's total depth; `0` = unbounded. At
    /// capacity new jobs are shed with `EBUSY` (nothing charged).
    pub queue_depth: usize,
    /// Per-job resource ceiling, applied as a dimension-wise `min` with
    /// each job's own budget (the logical-clock `deadline` dimension is
    /// the per-request deadline). The clamped spec is what's executed
    /// and recorded, so replay and `SRV002` see the real limits.
    pub job_budget: Budget,
    /// Write timeout on client sockets, so one stalled reader cannot
    /// wedge a worker mid-response. `None` = block forever.
    pub write_timeout: Option<Duration>,
    /// Seeded durability fault plan driving the cache-tier and WAL
    /// writers (`TornWrite`/`ShortWrite`/`ProcessKill` sites). Test-only
    /// in spirit; `None` in production.
    pub durability_faults: Option<Arc<FaultPlan>>,
    /// How workers execute compute jobs (DESIGN.md §4.19):
    /// [`Isolation::InProcess`] runs them in the worker thread;
    /// [`Isolation::Process`] races them as crash-contained
    /// subprocesses, so the per-job blast radius is one subprocess.
    pub isolation: Isolation,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            tenant_budget: Budget::UNLIMITED,
            proofs_dir: None,
            state_dir: None,
            queue_depth: 0,
            job_budget: Budget::UNLIMITED,
            write_timeout: Some(Duration::from_secs(10)),
            durability_faults: None,
            isolation: Isolation::InProcess,
        }
    }
}

/// What was served for one admitted job (the transcript's record).
#[derive(Clone, Debug)]
pub struct ServedRecord {
    /// The canonical verdict string sent to the client.
    pub verdict: String,
    /// The receipt sent to the client.
    pub receipt: BudgetReceipt,
    /// Whether the receipt was settled into the tenant account (false
    /// when settlement itself was refused at the account limit).
    pub settled: bool,
}

/// One admitted job in the server's append-only protocol transcript.
#[derive(Clone, Debug)]
pub struct TranscriptEntry {
    /// Client-chosen id.
    pub id: u64,
    /// Billed tenant.
    pub tenant: String,
    /// The parsed job (re-executable: thread counts and fault seeds ride
    /// inside, which is what lets `SRV002` replay it).
    pub spec: JobSpec,
    /// Whether admission control accepted the job.
    pub admitted: bool,
    /// Filled in when a worker finishes the job.
    pub served: Option<ServedRecord>,
}

/// Monotonic service counters, all relaxed (they are reporting, not
/// synchronization).
#[derive(Debug, Default)]
struct Counters {
    jobs_admitted: AtomicU64,
    jobs_served: AtomicU64,
    jobs_shed: AtomicU64,
    protocol_errors: AtomicU64,
    job_errors: AtomicU64,
    internal_errors: AtomicU64,
    admission_refusals: AtomicU64,
}

struct Shared {
    engine: Engine,
    queue: FairQueue<String, QueuedJob>,
    queue_depth: usize,
    stopping: AtomicBool,
    tenant_budget: Budget,
    job_budget: Budget,
    write_timeout: Option<Duration>,
    tenants: Mutex<HashMap<String, BudgetMeter>>,
    transcript: Mutex<Vec<TranscriptEntry>>,
    /// Transcript entries replayed from the job WAL at startup. Kept
    /// separate from the live transcript: clients may legitimately reuse
    /// (tenant, id) pairs across restarts, which `SRV001` would flag as
    /// duplicates inside one transcript.
    recovered: Vec<TranscriptEntry>,
    /// What startup recovery cost, phase by phase.
    recovery: RecoveryStats,
    /// The job WAL (`state_dir` only).
    wal: Option<Wal>,
    /// The query-cache disk tier handle (`state_dir` only) — held for
    /// shutdown sync; writes flow through the cache's write-behind hook.
    disk_tier: Option<Arc<DiskCacheTier>>,
    counters: Counters,
    job_seq: AtomicU64,
    isolation: Isolation,
    /// Copy of the served certificate directory, for shard-mode
    /// publication (workers stage under `proofs_dir/pending/`).
    proofs_dir: Option<PathBuf>,
}

struct QueuedJob {
    /// Server-unique sequence number, assigned at admission (it keys the
    /// WAL's admit/settle/respond records and names artifact files).
    seq: u64,
    id: u64,
    tenant: String,
    spec: JobSpec,
    /// Index of this job's transcript entry.
    transcript_idx: usize,
    conn: Arc<Mutex<TcpStream>>,
}

/// A running `scid-server` instance. Dropping it stops the threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Wall time of each startup recovery phase, and how many transcript
/// entries the job WAL replayed; the `stats` job reports them. All zero
/// without a state dir.
#[derive(Default)]
struct RecoveryStats {
    decode_ms: f64,
    replay_ms: f64,
    /// The `SRV001`/`SRV003` audits.
    audit_ms: f64,
    srv002_ms: f64,
    cache_ms: f64,
    jobs: usize,
}

/// Runs `f`, storing its wall time in ms into `ms`.
fn timed<T>(ms: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *ms = start.elapsed().as_secs_f64() * 1e3;
    out
}

/// What the state-dir recovery pass rebuilt (internal to [`Server::start`]).
struct Recovered {
    engine: Engine,
    stats: RecoveryStats,
    wal: Option<Wal>,
    disk_tier: Option<Arc<DiskCacheTier>>,
    tenants: HashMap<String, BudgetMeter>,
    entries: Vec<TranscriptEntry>,
    next_seq: u64,
}

/// Opens the state dir, replays the WAL and cache tier, and runs the
/// SRV/DUR audits over everything recovered — *before* the listener
/// accepts a single connection. Any audit error refuses startup: serving
/// from a corrupt or forged journal could double-charge a tenant or
/// surface a corrupt record, and both are worse than staying down.
fn recover_state(config: &ServerConfig) -> std::io::Result<Recovered> {
    let Some(dir) = &config.state_dir else {
        return Ok(Recovered {
            engine: Engine::new(config.proofs_dir.clone()),
            stats: RecoveryStats::default(),
            wal: None,
            disk_tier: None,
            tenants: HashMap::new(),
            entries: Vec::new(),
            next_seq: 0,
        });
    };
    std::fs::create_dir_all(dir)?;
    let mut stats = RecoveryStats::default();

    // Query-cache tier: replay durable entries into a fresh shared
    // cache, then attach write-behind. Disk hits re-enter through the
    // solver's certify-on-reuse path like any memory hit — the tier
    // extends the cache's *lifetime*, never its trust.
    let (tier, cache) = timed(&mut stats.cache_ms, || {
        let (tier, cache_rec) = DiskCacheTier::open(dir.join("cache.log"), CACHE_GENERATION)?;
        let tier = match &config.durability_faults {
            Some(plan) => tier.with_fault_plan(Arc::clone(plan)),
            None => tier,
        };
        let cache = Arc::new(SmtQueryCache::new());
        let tier = sciduction_smt::attach_disk_tier(&cache, tier, &cache_rec.entries);
        Ok::<_, std::io::Error>((tier, cache))
    })?;
    let engine = Engine::with_cache(config.proofs_dir.clone(), cache);

    // Job WAL: decode, replay the admit/settle/respond state machine,
    // and audit the result exactly like a live transcript.
    let mut report = Report::new();
    let (wal, records) = timed(&mut stats.decode_ms, || {
        let (wal, wal_rec) = Wal::open(dir.join("jobs.wal"))?;
        let records = journal::decode_records(&wal_rec.records, "recovery", &mut report);
        Ok::<_, std::io::Error>((wal, records))
    })?;
    let wal = match &config.durability_faults {
        Some(plan) => wal.with_fault_plan(Arc::clone(plan)),
        None => wal,
    };
    let replayed = timed(&mut stats.replay_ms, || {
        journal::replay(&records, config.tenant_budget, "recovery", &mut report)
    });
    stats.jobs = replayed.entries.len();
    timed(&mut stats.audit_ms, || {
        crate::audit::audit_recovered_transcript(&replayed.entries, "recovery", &mut report);
        let accounts: HashMap<String, BudgetReceipt> = replayed
            .accounts
            .iter()
            .map(|(t, m)| (t.clone(), m.receipt()))
            .collect();
        crate::audit::audit_admission_accounts(
            &replayed.entries,
            &accounts,
            "recovery",
            &mut report,
        );
    });
    timed(&mut stats.srv002_ms, || {
        crate::audit::audit_served_verdicts(&replayed.entries, "recovery", &mut report);
    });
    if report.has_errors() {
        let mut reasons: Vec<String> = report
            .diagnostics()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .take(4)
            .map(|d| format!("{} {}: {}", d.code, d.location, d.message))
            .collect();
        if report.count(Severity::Error) > reasons.len() {
            reasons.push(format!("… {} errors total", report.count(Severity::Error)));
        }
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "refusing to serve from corrupt state dir {}: {}",
                dir.display(),
                reasons.join("; ")
            ),
        ));
    }
    // In-flight jobs at the crash are refused deterministically: shed
    // them in the journal so the next restart sees them closed, never
    // silently re-run. (The client got no response and resubmits.) The
    // in-memory entries flip to un-admitted to match the records just
    // written — an orphan is exactly an admitted entry with no serve.
    let mut entries = replayed.entries;
    if !replayed.orphaned.is_empty() {
        for seq in &replayed.orphaned {
            wal.record(&WalRecord::Shed { seq: *seq });
        }
        for e in entries.iter_mut() {
            if e.admitted && e.served.is_none() {
                e.admitted = false;
            }
        }
    }
    Ok(Recovered {
        engine,
        stats,
        wal: Some(wal),
        disk_tier: Some(tier),
        tenants: replayed.accounts,
        entries,
        next_seq: replayed.next_seq,
    })
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns. With
    /// a `state_dir` configured, recovery (replay + SRV/DUR audits) runs
    /// first and a corrupt journal refuses startup with
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        if let Some(dir) = &config.proofs_dir {
            std::fs::create_dir_all(dir)?;
        }
        let recovered = recover_state(&config)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: recovered.engine,
            queue: FairQueue::bounded(config.queue_depth),
            queue_depth: config.queue_depth,
            stopping: AtomicBool::new(false),
            tenant_budget: config.tenant_budget,
            job_budget: config.job_budget,
            write_timeout: config.write_timeout,
            tenants: Mutex::new(recovered.tenants),
            transcript: Mutex::new(Vec::new()),
            recovered: recovered.entries,
            recovery: recovered.stats,
            wal: recovered.wal,
            disk_tier: recovered.disk_tier,
            counters: Counters::default(),
            job_seq: AtomicU64::new(recovered.next_seq),
            isolation: config.isolation.clone(),
            proofs_dir: config.proofs_dir.clone(),
        });

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (with the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the protocol transcript (this run only; see
    /// [`Server::recovered_transcript`] for what the WAL replayed).
    pub fn transcript(&self) -> Vec<TranscriptEntry> {
        lock_ignoring_poison(&self.shared.transcript).clone()
    }

    /// The transcript entries recovered from the job WAL at startup
    /// (empty without a `state_dir`). Kept apart from the live
    /// transcript because clients may reuse (tenant, id) pairs across
    /// restarts.
    pub fn recovered_transcript(&self) -> &[TranscriptEntry] {
        &self.shared.recovered
    }

    /// A snapshot of the tenant admission accounts.
    pub fn accounts(&self) -> HashMap<String, BudgetReceipt> {
        lock_ignoring_poison(&self.shared.tenants)
            .iter()
            .map(|(t, m)| (t.clone(), m.receipt()))
            .collect()
    }

    /// Total internal errors served so far (the fuzz suite pins this 0).
    pub fn internal_errors(&self) -> u64 {
        self.shared.counters.internal_errors.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Durability barrier on clean shutdown (crash-killed processes
        // never reach this; recovery handles their torn tails).
        if let Some(wal) = &self.shared.wal {
            let _ = wal.sync();
        }
        if let Some(tier) = &self.shared.disk_tier {
            let _ = tier.sync();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stopping.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        // Responses are small single lines; Nagle would stall every
        // request/response roundtrip on a delayed ACK.
        let _ = stream.set_nodelay(true);
        // A slow (or stalled) reader must not wedge the worker writing
        // its response: time the write out and drop the line (the job
        // already ran and is settled; the client just loses the answer,
        // exactly as if it had disconnected).
        let _ = stream.set_write_timeout(shared.write_timeout);
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || connection_loop(stream, &shared));
    }
}

/// Sends one response line; a dead peer is not an error (the job already
/// ran, the client just did not wait for the answer).
fn send_line(conn: &Arc<Mutex<TcpStream>>, line: &str) {
    let mut stream = lock_ignoring_poison(conn);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    // A finite read timeout keeps the reader responsive to shutdown.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let conn = Arc::new(Mutex::new(stream));
    let mut frames = FrameReader::new(reader);
    loop {
        match frames.next_frame() {
            Ok(Frame::Idle) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(Frame::Eof) | Err(_) => return,
            Ok(Frame::Oversize) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                send_line(
                    &conn,
                    &render_error(
                        None,
                        ErrorCode::Oversize,
                        &format!(
                            "frame exceeds {} bytes; discarded to next newline",
                            crate::protocol::MAX_FRAME
                        ),
                    ),
                );
            }
            Ok(Frame::Line(bytes)) => handle_frame(&bytes, &conn, shared),
        }
    }
}

fn handle_frame(bytes: &[u8], conn: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) {
    let req = match parse_request(bytes) {
        Ok(r) => r,
        Err((id, msg)) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            send_line(conn, &render_error(id, ErrorCode::Proto, &msg));
            return;
        }
    };
    let spec = match JobSpec::from_json(&req.job) {
        Ok(s) => s,
        Err(msg) => {
            shared.counters.job_errors.fetch_add(1, Ordering::Relaxed);
            send_line(conn, &render_error(Some(req.id), ErrorCode::Job, &msg));
            return;
        }
    };
    match spec {
        JobSpec::Stats => send_line(conn, &render_done_stats(req.id, shared)),
        JobSpec::Audit => send_line(conn, &render_done_audit(req.id, shared)),
        spec => {
            debug_assert!(spec.is_compute());
            // Per-request ceilings (including the logical-clock
            // deadline) come from the server's job budget; the clamped
            // spec is what's executed AND recorded, so WAL replay and
            // SRV002 see the same limits the worker did.
            let spec = spec.clamped(shared.job_budget);
            // Admission: an exhausted tenant account refuses the job
            // before any compute is spent on it.
            {
                let mut tenants = lock_ignoring_poison(&shared.tenants);
                let meter = tenants
                    .entry(req.tenant.clone())
                    .or_insert_with(|| BudgetMeter::new(shared.tenant_budget));
                if let Some(cause) = meter.cause() {
                    drop(tenants);
                    shared
                        .counters
                        .admission_refusals
                        .fetch_add(1, Ordering::Relaxed);
                    send_line(
                        conn,
                        &render_error_detail(
                            Some(req.id),
                            ErrorCode::Admit,
                            &format!("tenant {:?} refused: {cause}", req.tenant),
                            &offender_detail(&req.tenant, req.id),
                        ),
                    );
                    return;
                }
            }
            // Sequence and journal the admission *before* the queue
            // offer: the WAL state machine requires every settle/shed
            // to follow its admit, whatever the worker races do.
            let seq = shared.job_seq.fetch_add(1, Ordering::Relaxed);
            let transcript_idx = {
                let mut transcript = lock_ignoring_poison(&shared.transcript);
                transcript.push(TranscriptEntry {
                    id: req.id,
                    tenant: req.tenant.clone(),
                    spec: spec.clone(),
                    admitted: true,
                    served: None,
                });
                transcript.len() - 1
            };
            shared
                .counters
                .jobs_admitted
                .fetch_add(1, Ordering::Relaxed);
            if let Some(wal) = &shared.wal {
                wal.record(&WalRecord::Admit {
                    seq,
                    tenant: req.tenant.clone(),
                    id: req.id,
                    spec: spec.clone(),
                });
            }
            let queued = QueuedJob {
                seq,
                id: req.id,
                tenant: req.tenant,
                spec,
                transcript_idx,
                conn: Arc::clone(conn),
            };
            match shared.queue.offer(queued.tenant.clone(), queued) {
                Offer::Accepted => {}
                Offer::Saturated(job) => {
                    // Overload shedding: structured EBUSY, nothing
                    // charged, the journal closes the job.
                    shed_job(shared, &job);
                    shared.counters.jobs_shed.fetch_add(1, Ordering::Relaxed);
                    send_line(
                        conn,
                        &render_error_detail(
                            Some(job.id),
                            ErrorCode::Busy,
                            &format!(
                                "queue at capacity ({}); job shed, nothing charged — back \
                                 off and resubmit",
                                shared.queue_depth
                            ),
                            &offender_detail(&job.tenant, job.id),
                        ),
                    );
                }
                Offer::Closed(job) => {
                    shed_job(shared, &job);
                    send_line(
                        conn,
                        &render_error_detail(
                            Some(job.id),
                            ErrorCode::Internal,
                            "server is stopping",
                            &offender_detail(&job.tenant, job.id),
                        ),
                    );
                }
            }
        }
    }
}

/// The machine-readable offender fields for `EADMIT`/`EBUSY`/`EINTERNAL`
/// error frames, so diagnosis needs no transcript pull.
fn offender_detail(tenant: &str, id: u64) -> Vec<(String, Value)> {
    vec![
        ("tenant".to_string(), Value::Str(tenant.to_string())),
        (
            "job".to_string(),
            if id <= i64::MAX as u64 {
                Value::Int(id as i64)
            } else {
                Value::Null
            },
        ),
    ]
}

/// Closes a job that will never settle: journal a shed record and mark
/// its transcript entry unadmitted (it is not chargeable work).
fn shed_job(shared: &Arc<Shared>, job: &QueuedJob) {
    if let Some(wal) = &shared.wal {
        wal.record(&WalRecord::Shed { seq: job.seq });
    }
    lock_ignoring_poison(&shared.transcript)[job.transcript_idx].admitted = false;
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        // Artifact names carry the admission-assigned sequence number,
        // so two tenants reusing the same id cannot clobber each
        // other's files (and the tag matches the job's WAL records).
        let tag = format!("job-{}-{}", job.seq, job.id);
        let result = catch_unwind(AssertUnwindSafe(|| match &shared.isolation {
            Isolation::InProcess => shared
                .engine
                .execute(&tag, &job.spec)
                .map_err(ShardExecError::Job),
            Isolation::Process(iso) => {
                run_sharded(&tag, &job.spec, iso, shared.proofs_dir.as_deref())
            }
        }));
        match result {
            Ok(Ok(output)) => {
                // Settle what the job spent against the tenant account.
                let settled = {
                    let mut tenants = lock_ignoring_poison(&shared.tenants);
                    let meter = tenants
                        .entry(job.tenant.clone())
                        .or_insert_with(|| BudgetMeter::new(shared.tenant_budget));
                    meter.charge_receipt(&output.receipt).is_ok()
                };
                // Journal the settlement before the response leaves:
                // a crash between the two re-serves on replay rather
                // than double-charges (the settle is durable, the
                // respond may not be).
                if let Some(wal) = &shared.wal {
                    wal.record(&WalRecord::Settle {
                        seq: job.seq,
                        verdict: output.verdict.clone(),
                        receipt: output.receipt,
                        settled,
                    });
                }
                {
                    let mut transcript = lock_ignoring_poison(&shared.transcript);
                    transcript[job.transcript_idx].served = Some(ServedRecord {
                        verdict: output.verdict.clone(),
                        receipt: output.receipt,
                        settled,
                    });
                }
                shared.counters.jobs_served.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &job.conn,
                    &render_done(
                        job.id,
                        &output.verdict,
                        &output.receipt,
                        output.certificate.as_ref(),
                        &output.detail,
                    ),
                );
                if let Some(wal) = &shared.wal {
                    wal.record(&WalRecord::Respond { seq: job.seq });
                }
            }
            Ok(Err(ShardExecError::Job(err))) => {
                shed_job(shared, &job);
                shared.counters.job_errors.fetch_add(1, Ordering::Relaxed);
                send_line(
                    &job.conn,
                    &render_error(Some(job.id), ErrorCode::Job, &err.to_string()),
                );
            }
            Ok(Err(ShardExecError::Infra { shard, reason })) => {
                // The shard-failure detail payload: which subprocess the
                // supervisor blames, under process isolation. The server
                // itself is fine — that is the whole point.
                shed_job(shared, &job);
                shared
                    .counters
                    .internal_errors
                    .fetch_add(1, Ordering::Relaxed);
                let mut detail = offender_detail(&job.tenant, job.id);
                detail.push(("isolation".to_string(), Value::Str("process".into())));
                detail.push((
                    "shard".to_string(),
                    match shard {
                        Some(s) if s <= i64::MAX as u64 => Value::Int(s as i64),
                        _ => Value::Null,
                    },
                ));
                send_line(
                    &job.conn,
                    &render_error_detail(
                        Some(job.id),
                        ErrorCode::Internal,
                        &format!("shard execution failed: {reason}"),
                        &detail,
                    ),
                );
            }
            Err(payload) => {
                shed_job(shared, &job);
                shared
                    .counters
                    .internal_errors
                    .fetch_add(1, Ordering::Relaxed);
                send_line(
                    &job.conn,
                    &render_error_detail(
                        Some(job.id),
                        ErrorCode::Internal,
                        &format!("job panicked: {}", panic_message(payload.as_ref())),
                        &offender_detail(&job.tenant, job.id),
                    ),
                );
            }
        }
    }
}

fn render_done_stats(id: u64, shared: &Arc<Shared>) -> String {
    let cache = shared.engine.smt_cache().stats();
    let c = &shared.counters;
    let counter = |a: &AtomicU64| Value::Int(a.load(Ordering::Relaxed) as i64);
    let receipt = BudgetMeter::new(Budget::UNLIMITED).receipt();
    let detail = vec![
        ("jobs_admitted".to_string(), counter(&c.jobs_admitted)),
        ("jobs_served".to_string(), counter(&c.jobs_served)),
        ("jobs_shed".to_string(), counter(&c.jobs_shed)),
        ("protocol_errors".to_string(), counter(&c.protocol_errors)),
        ("job_errors".to_string(), counter(&c.job_errors)),
        ("internal_errors".to_string(), counter(&c.internal_errors)),
        (
            "admission_refusals".to_string(),
            counter(&c.admission_refusals),
        ),
        (
            "queue_depth".to_string(),
            Value::Int(shared.queue.len() as i64),
        ),
        (
            "tenants".to_string(),
            Value::Int(lock_ignoring_poison(&shared.tenants).len() as i64),
        ),
        (
            "smt_cache".to_string(),
            json::obj(vec![
                ("hits", Value::Int(cache.hits as i64)),
                ("misses", Value::Int(cache.misses as i64)),
                ("insertions", Value::Int(cache.insertions as i64)),
                ("evictions", Value::Int(cache.evictions as i64)),
            ]),
        ),
        (
            "recovered_jobs".to_string(),
            Value::Int(shared.recovery.jobs as i64),
        ),
        ("recovery_ms".to_string(), {
            let r = &shared.recovery;
            let ms = |v: f64| Value::Float((v * 1e3).round() / 1e3);
            json::obj(vec![
                ("decode", ms(r.decode_ms)),
                ("replay", ms(r.replay_ms)),
                ("audit", ms(r.audit_ms)),
                ("srv002", ms(r.srv002_ms)),
                ("cache", ms(r.cache_ms)),
            ])
        }),
    ];
    render_done(id, "stats", &receipt, None, &detail)
}

fn render_done_audit(id: u64, shared: &Arc<Shared>) -> String {
    let entries = lock_ignoring_poison(&shared.transcript).clone();
    let accounts: HashMap<String, BudgetReceipt> = lock_ignoring_poison(&shared.tenants)
        .iter()
        .map(|(t, m)| (t.clone(), m.receipt()))
        .collect();
    let mut report = Report::new();
    crate::audit::audit_transcript(&entries, "server_audit", &mut report);
    crate::audit::audit_admission_accounts(&entries, &accounts, "server_audit", &mut report);
    let diags: Vec<Value> = report
        .diagnostics()
        .iter()
        .map(|d| {
            json::obj(vec![
                ("code", Value::Str(d.code.into())),
                ("severity", Value::Str(d.severity.to_string())),
                ("pass", Value::Str(d.pass.into())),
                ("artifact", Value::Str(d.location.clone())),
                ("message", Value::Str(d.message.clone())),
            ])
        })
        .collect();
    let verdict = if report.has_errors() {
        "dirty"
    } else {
        "clean"
    };
    let detail = vec![
        ("diagnostics".to_string(), Value::Arr(diags)),
        (
            "errors".to_string(),
            Value::Int(report.count(Severity::Error) as i64),
        ),
        (
            "warnings".to_string(),
            Value::Int(report.count(Severity::Warning) as i64),
        ),
        ("entries".to_string(), Value::Int(entries.len() as i64)),
    ];
    let receipt = BudgetMeter::new(Budget::UNLIMITED).receipt();
    render_done(id, verdict, &receipt, None, &detail)
}
