//! Process-isolated portfolio sharding: diversified entrants run as
//! crash-contained **subprocesses** under a supervising race
//! (DESIGN.md §4.19).
//!
//! [`Supervisor::race`](crate::recover::Supervisor::race) contains a panic;
//! it cannot contain an abort, a runaway allocation, or a scheduler
//! wedge — any of those takes the whole process, and with it every
//! other tenant's in-flight work. This module moves that blast radius
//! across an OS process boundary:
//!
//! * **Wire protocol** — supervisor and worker exchange the same
//!   length-checked CRC32 frames the durable [`RecordLog`] uses
//!   ([`persist::encode_frame`]), over the worker's stdin/stdout. One
//!   request frame in ([`ShardRequest`]); heartbeat/result/error frames
//!   out ([`ShardReply`]). A corrupt frame from a worker is *refused*
//!   and the worker treated as dead — a garbling shard is a dead shard.
//! * **Kill-on-winner** — the first shard to return a result frame
//!   settles the race; every other live shard is SIGKILLed. Entrants
//!   must be diversified only in *cost*, never in *answer* (the server
//!   runs the identical deterministic engine in every shard), so which
//!   shard wins can never change the verdict.
//! * **Watchdog** — a shard that stops heartbeating for longer than the
//!   configured deadline is killed and the kill is charged to the job's
//!   budget as fuel ([`WATCHDOG_KILL_CHARGE`]), like a PR-4 retry.
//! * **Restart with backoff** — dead shards are relaunched under the
//!   existing [`RetryPolicy`]: the schedule is pure in
//!   `(seed, site, attempt)` and every backoff unit is charged as fuel
//!   *before* the respawn, so supervision can never spend past the job
//!   budget.
//! * **Graceful degradation** — when every shard of a job dies past its
//!   retries, the race settles as `Unknown` with a certified
//!   [`Exhausted`] cause and a coherent [`BudgetReceipt`] — never a
//!   flipped verdict, never a wedged supervisor.
//!
//! Every supervision decision, and each attempt's first heartbeat, is
//! appended to a [`ShardLog`], which the `SUP001`–`SUP003` lints replay
//! like a certificate (a beat before every answer, charges re-derived
//! from the policy seed, winner integrity, degradation justification).
//!
//! Fault injection: [`FaultKind::ShardKill`] / [`FaultKind::ShardHang`]
//! / [`FaultKind::ShardGarbage`] are *self-inflicted by the worker* from
//! the pure [`FaultPlan::decides`] ground truth (the request carries the
//! seed and the per-attempt site), so the supervisor stays honest — it
//! only ever observes a death, a stall, or a corrupt frame, exactly as
//! it would under a real crash, SIGSTOP, or kernel-mangled pipe.
//!
//! [`RecordLog`]: crate::persist::RecordLog
//! [`persist::encode_frame`]: crate::persist::encode_frame

use crate::budget::{BudgetMeter, BudgetReceipt, Exhausted};
use crate::exec::{FaultKind, FaultPlan};
use crate::persist::{crc32, encode_frame, FRAME_HEADER, MAX_RECORD};
use crate::recover::{retry_site, settling_index, RetryPolicy};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often a healthy worker emits a heartbeat frame.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);

/// Default watchdog deadline: a shard silent for this long is declared
/// hung and killed. Generous relative to [`HEARTBEAT_INTERVAL`] so a
/// loaded scheduler cannot produce false kills (a false kill is still
/// only a restart — it can never flip a verdict).
pub const DEFAULT_HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

/// Default supervisor poll granularity (message wait + watchdog sweep).
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Fuel charged to the job's budget for each watchdog kill of a hung
/// shard — the process-level analogue of a PR-4 retry charge.
pub const WATCHDOG_KILL_CHARGE: u64 = 1;

// ---------------------------------------------------------------------------
// Frame I/O (the RecordLog encoding, streamed over a pipe)
// ---------------------------------------------------------------------------

/// Writes one length-checked CRC32 frame (the [`RecordLog`] encoding)
/// and flushes.
///
/// [`RecordLog`]: crate::persist::RecordLog
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Reads until `buf` is full or EOF; returns how many bytes landed.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads one frame from a stream. `Ok(None)` on clean EOF (the stream
/// ended exactly on a frame boundary); `Err` on anything torn, oversize,
/// or CRC-corrupt — which the supervisor treats as shard death, never as
/// data.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, String> {
    let mut header = [0u8; FRAME_HEADER];
    let got = read_full(r, &mut header).map_err(|e| format!("frame header read: {e}"))?;
    if got == 0 {
        return Ok(None);
    }
    if got < FRAME_HEADER {
        return Err(format!(
            "truncated frame header ({got}/{FRAME_HEADER} bytes)"
        ));
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
    let want = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD {
        return Err(format!("frame length {len} exceeds cap {MAX_RECORD}"));
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload).map_err(|e| format!("frame payload read: {e}"))?;
    if (got as u64) < len {
        return Err(format!("truncated frame payload ({got}/{len} bytes)"));
    }
    let have = crc32(&payload);
    if have != want {
        return Err(format!(
            "frame CRC mismatch (want {want:#010x}, have {have:#010x})"
        ));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Envelopes
// ---------------------------------------------------------------------------

/// The single request frame a worker reads from stdin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRequest {
    /// The per-attempt fault site ([`retry_site`] of the shard index),
    /// so a fault decision at attempt 0 re-rolls on every restart.
    pub site: u64,
    /// Seed of the shard-level fault plan the worker self-injects from
    /// ([`FaultPlan::decides`]); `None` = no injected shard faults.
    pub fault_seed: Option<u64>,
    /// The opaque job payload (the server ships a JSON job spec).
    pub payload: Vec<u8>,
}

impl ShardRequest {
    /// Renders the request envelope: `site LE | seed-flag | seed LE |
    /// payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(17 + self.payload.len());
        out.extend_from_slice(&self.site.to_le_bytes());
        match self.fault_seed {
            Some(seed) => {
                out.push(1);
                out.extend_from_slice(&seed.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a request envelope back.
    pub fn decode(bytes: &[u8]) -> Result<ShardRequest, String> {
        if bytes.len() < 17 {
            return Err(format!(
                "request envelope too short ({} bytes)",
                bytes.len()
            ));
        }
        let site = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
        let flag = bytes[8];
        let seed = u64::from_le_bytes(bytes[9..17].try_into().expect("8 bytes"));
        let fault_seed = match flag {
            0 => None,
            1 => Some(seed),
            other => return Err(format!("bad fault-seed flag {other}")),
        };
        Ok(ShardRequest {
            site,
            fault_seed,
            payload: bytes[17..].to_vec(),
        })
    }
}

/// Reply-frame tag for a heartbeat.
const TAG_HEARTBEAT: u8 = b'H';
/// Reply-frame tag for a result payload.
const TAG_RESULT: u8 = b'R';
/// Reply-frame tag for a definitive worker-side error.
const TAG_ERROR: u8 = b'E';

/// One frame a worker writes to stdout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardReply {
    /// Liveness signal; carries no data.
    Heartbeat,
    /// The definitive answer payload — wins the race.
    Result(Vec<u8>),
    /// A definitive worker-side failure (the job itself errored). This
    /// also settles the race: the computation is deterministic, so every
    /// shard would fail the same way.
    Error(String),
}

impl ShardReply {
    /// Renders the reply envelope: one tag byte plus the body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ShardReply::Heartbeat => vec![TAG_HEARTBEAT],
            ShardReply::Result(p) => {
                let mut out = Vec::with_capacity(1 + p.len());
                out.push(TAG_RESULT);
                out.extend_from_slice(p);
                out
            }
            ShardReply::Error(m) => {
                let mut out = Vec::with_capacity(1 + m.len());
                out.push(TAG_ERROR);
                out.extend_from_slice(m.as_bytes());
                out
            }
        }
    }

    /// Parses a reply envelope back; an unknown tag or malformed body is
    /// refused (and the supervisor treats the shard as dead).
    pub fn decode(bytes: &[u8]) -> Result<ShardReply, String> {
        match bytes.first() {
            None => Err("empty reply frame".into()),
            Some(&TAG_HEARTBEAT) => Ok(ShardReply::Heartbeat),
            Some(&TAG_RESULT) => Ok(ShardReply::Result(bytes[1..].to_vec())),
            Some(&TAG_ERROR) => match String::from_utf8(bytes[1..].to_vec()) {
                Ok(m) => Ok(ShardReply::Error(m)),
                Err(_) => Err("error reply is not UTF-8".into()),
            },
            Some(&tag) => Err(format!("unknown reply tag {tag:#04x}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Runs the worker half of the protocol over arbitrary streams: read
/// one [`ShardRequest`], heartbeat every [`HEARTBEAT_INTERVAL`] while
/// `compute` runs, then write one result or error frame.
///
/// When the request carries a fault seed, the worker first consults the
/// pure [`FaultPlan::decides`] ground truth at the request's site and
/// self-injects at most one shard fault (kill preempts hang preempts
/// garbage, mirroring the portfolio's fault precedence):
///
/// * [`FaultKind::ShardKill`] — `std::process::abort()`: the supervisor
///   sees an exit with no result.
/// * [`FaultKind::ShardHang`] — sleep forever without heartbeats: the
///   watchdog must reap us.
/// * [`FaultKind::ShardGarbage`] — write a deliberately CRC-corrupt
///   frame and exit: the supervisor must refuse it as shard death.
pub fn run_worker<R, W, F>(input: &mut R, mut output: W, compute: F) -> Result<(), String>
where
    R: Read,
    W: Write + Send + 'static,
    F: FnOnce(&[u8]) -> Result<Vec<u8>, String>,
{
    let frame = read_frame(input)?.ok_or("empty request stream")?;
    let req = ShardRequest::decode(&frame)?;

    if let Some(seed) = req.fault_seed {
        if FaultPlan::decides(seed, FaultKind::ShardKill, req.site) {
            std::process::abort();
        }
        if FaultPlan::decides(seed, FaultKind::ShardHang, req.site) {
            // A SIGSTOP-style wedge: no heartbeats, no answer, no exit.
            loop {
                thread::sleep(Duration::from_secs(3600));
            }
        }
        if FaultPlan::decides(seed, FaultKind::ShardGarbage, req.site) {
            let mut garbled = encode_frame(b"shard-garbage");
            garbled[FRAME_HEADER - 1] ^= 0xFF; // break the CRC, keep the length
            output
                .write_all(&garbled)
                .map_err(|e| format!("garbage write: {e}"))?;
            return output.flush().map_err(|e| format!("garbage flush: {e}"));
        }
    }

    // The output stream is shared between the heartbeat thread and the
    // final result write; `done` is flipped under the same lock that
    // guards writes, so a heartbeat can never land after (or inside)
    // the result frame. The first beat is written here, before `compute`
    // starts, so every result is preceded by at least one heartbeat; a
    // failed write means the supervisor hung up, which the result write
    // reports.
    let _ = write_frame(&mut output, &ShardReply::Heartbeat.encode());
    let shared = Arc::new(Mutex::new((output, false)));
    let beater = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || loop {
            thread::sleep(HEARTBEAT_INTERVAL);
            {
                let mut guard = match shared.lock() {
                    Ok(g) => g,
                    Err(_) => return,
                };
                let (out, done) = &mut *guard;
                if *done {
                    return;
                }
                if write_frame(out, &ShardReply::Heartbeat.encode()).is_err() {
                    // Supervisor hung up; nothing left to signal.
                    return;
                }
            }
        })
    };

    let reply = match compute(&req.payload) {
        Ok(payload) => ShardReply::Result(payload),
        Err(message) => ShardReply::Error(message),
    };
    let result = {
        let mut guard = shared
            .lock()
            .map_err(|_| "output lock poisoned".to_string())?;
        let (out, done) = &mut *guard;
        *done = true;
        write_frame(out, &reply.encode()).map_err(|e| format!("result write: {e}"))
    };
    let _ = beater.join();
    result
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

/// One portfolio entrant: the worker process to launch and the request
/// payload to feed it. Entrants may differ in payload (diversification)
/// but must be answer-equivalent — kill-on-winner assumes any winner's
/// answer is *the* answer.
#[derive(Clone, Debug)]
pub struct ShardCommand {
    /// Worker executable (typically the serving binary re-executed in a
    /// worker mode).
    pub program: PathBuf,
    /// Arguments selecting the worker mode.
    pub args: Vec<String>,
    /// The opaque request payload for this entrant.
    pub payload: Vec<u8>,
}

/// Supervision parameters for one [`race_shards`] call.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Restart policy: deterministic backoff charged as fuel against
    /// `retry.budget` (the job's budget), pure in `(seed, site,
    /// attempt)`.
    pub retry: RetryPolicy,
    /// Watchdog deadline: a shard silent this long is killed.
    pub heartbeat_timeout: Duration,
    /// Supervisor poll granularity.
    pub poll_interval: Duration,
    /// Shard-level fault seed forwarded to workers for self-injection;
    /// `None` (production) injects nothing.
    pub fault_seed: Option<u64>,
}

impl ShardConfig {
    /// A config with default watchdog/poll timings under `retry`.
    pub fn new(retry: RetryPolicy) -> Self {
        ShardConfig {
            retry,
            heartbeat_timeout: DEFAULT_HEARTBEAT_TIMEOUT,
            poll_interval: DEFAULT_POLL_INTERVAL,
            fault_seed: None,
        }
    }
}

/// Why a shard attempt ended without answering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardDeath {
    /// The process exited (crash, abort, or external SIGKILL) without a
    /// result frame. `code` is `None` when it died to a signal.
    Exited {
        /// The exit code, if the process exited rather than was killed.
        code: Option<i32>,
    },
    /// The process wrote a corrupt or undecodable frame; it was killed
    /// and its bytes refused.
    Garbage {
        /// What the frame reader refused.
        reason: String,
    },
    /// The watchdog killed it after [`ShardConfig::heartbeat_timeout`]
    /// of silence.
    Hung,
    /// The process could not be launched at all.
    SpawnFailed {
        /// The OS error.
        reason: String,
    },
}

/// One supervision decision, in the order it was taken. The `SUP` lints
/// replay this log like a certificate.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardEvent {
    /// Attempt `attempt` of shard `shard` was launched.
    Spawned {
        /// Shard index (the base supervision site).
        shard: u64,
        /// Attempt number (0 = first launch).
        attempt: u32,
    },
    /// The attempt's first heartbeat arrived. Later beats only feed the
    /// watchdog and are not logged; `SUP001` refuses an answer from an
    /// attempt with no earlier beat.
    Beat {
        /// Shard index.
        shard: u64,
        /// The attempt that beat.
        attempt: u32,
    },
    /// The attempt died without answering.
    Died {
        /// Shard index.
        shard: u64,
        /// Attempt that died.
        attempt: u32,
        /// How it died.
        reason: ShardDeath,
    },
    /// The deterministic backoff for the *next* attempt was paid.
    /// `charge` must equal [`RetryPolicy::backoff`]`(seed, shard,
    /// attempt)` — `SUP002` re-derives it.
    Retried {
        /// Shard index.
        shard: u64,
        /// The attempt this charge paid for (≥ 1).
        attempt: u32,
        /// Fuel units charged.
        charge: u64,
    },
    /// The watchdog kill of a hung attempt was charged
    /// ([`WATCHDOG_KILL_CHARGE`] fuel).
    WatchdogCharged {
        /// Shard index.
        shard: u64,
        /// The hung attempt.
        attempt: u32,
        /// Fuel units charged (always [`WATCHDOG_KILL_CHARGE`]).
        charge: u64,
    },
    /// The shard is permanently lost: retries exhausted or a charge
    /// refused.
    GaveUp {
        /// Shard index.
        shard: u64,
        /// Attempts launched before giving up.
        attempts: u32,
        /// The certified cause parked for the verdict.
        cause: Exhausted,
    },
    /// The shard returned the race's answer.
    Won {
        /// Shard index.
        shard: u64,
        /// The winning attempt.
        attempt: u32,
    },
    /// A live loser was SIGKILLed after the winner answered.
    KilledByWinner {
        /// Shard index.
        shard: u64,
        /// The attempt that was running when killed.
        attempt: u32,
    },
    /// Every shard gave up: the race settles `Unknown(cause)`.
    Degraded {
        /// The deterministic verdict cause (lowest-indexed parked
        /// non-`Cancelled` cause, mirroring the in-process convention).
        cause: Exhausted,
    },
}

/// The replayable audit trail of one [`race_shards`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardLog {
    /// The retry policy's seed (audits re-derive charges from it).
    pub seed: u64,
    /// The retry cap the race ran under.
    pub max_retries: u32,
    /// Every supervision decision, in order.
    pub events: Vec<ShardEvent>,
}

/// A winning shard's definitive reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardAnswer {
    /// The result payload.
    Result(Vec<u8>),
    /// A deterministic worker-side failure (served as a job error, the
    /// same as an in-process engine error).
    Error(String),
}

/// What a [`race_shards`] call settled on.
#[derive(Clone, Debug)]
pub struct ShardRace {
    /// Index of the winning shard, if any answered.
    pub winner: Option<usize>,
    /// The winner's reply (`None` exactly when `winner` is `None`).
    pub answer: Option<ShardAnswer>,
    /// The certified degradation cause when no shard answered.
    pub cause: Option<Exhausted>,
    /// The supervision meter's statement of account (backoff charges and
    /// watchdog kills, metered against the job's budget).
    pub receipt: BudgetReceipt,
    /// The replayable supervision log.
    pub log: ShardLog,
}

/// Per-shard supervisor state.
enum SlotState {
    Running,
    GaveUp,
    Killed,
}

struct Slot {
    attempt: u32,
    state: SlotState,
    child: Option<Child>,
    last_seen: Instant,
    /// Whether the current attempt's first beat is logged.
    beaten: bool,
    cause: Option<Exhausted>,
}

enum Note {
    Beat,
    Answer(ShardAnswer),
    /// The reader hit EOF (`None`) or refused a corrupt frame (`Some`).
    Dead(Option<String>),
}

struct Msg {
    shard: usize,
    attempt: u32,
    note: Note,
}

struct Supervision<'a> {
    commands: &'a [ShardCommand],
    config: &'a ShardConfig,
    meter: BudgetMeter,
    events: Vec<ShardEvent>,
    slots: Vec<Slot>,
    tx: mpsc::Sender<Msg>,
}

impl Supervision<'_> {
    /// Launches `attempt` of `shard`: spawn, feed the request frame, and
    /// start a frame-reader thread. A failed spawn is a death like any
    /// other (and goes through the same retry path).
    fn spawn(&mut self, shard: usize, attempt: u32) {
        self.events.push(ShardEvent::Spawned {
            shard: shard as u64,
            attempt,
        });
        // Record the attempt before launching so a failed spawn still
        // advances the retry counter through `after_death`.
        self.slots[shard].attempt = attempt;
        self.slots[shard].state = SlotState::Running;
        self.slots[shard].beaten = false;
        let cmd = &self.commands[shard];
        let spawned = Command::new(&cmd.program)
            .args(&cmd.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match spawned {
            Ok(c) => c,
            Err(e) => {
                self.events.push(ShardEvent::Died {
                    shard: shard as u64,
                    attempt,
                    reason: ShardDeath::SpawnFailed {
                        reason: e.to_string(),
                    },
                });
                self.after_death(shard);
                return;
            }
        };
        let request = ShardRequest {
            site: retry_site(shard as u64, attempt),
            fault_seed: self.config.fault_seed,
            payload: cmd.payload.clone(),
        };
        if let Some(mut stdin) = child.stdin.take() {
            // A write failure means the child died on arrival; the
            // reader thread will report the EOF as a death.
            let _ = write_frame(&mut stdin, &request.encode());
        }
        let mut stdout = child.stdout.take().expect("child stdout is piped");
        let tx = self.tx.clone();
        thread::spawn(move || loop {
            let note = match read_frame(&mut stdout) {
                Ok(Some(frame)) => match ShardReply::decode(&frame) {
                    Ok(ShardReply::Heartbeat) => Note::Beat,
                    Ok(ShardReply::Result(p)) => Note::Answer(ShardAnswer::Result(p)),
                    Ok(ShardReply::Error(m)) => Note::Answer(ShardAnswer::Error(m)),
                    Err(reason) => Note::Dead(Some(reason)),
                },
                Ok(None) => Note::Dead(None),
                Err(reason) => Note::Dead(Some(reason)),
            };
            let terminal = !matches!(note, Note::Beat);
            if tx
                .send(Msg {
                    shard,
                    attempt,
                    note,
                })
                .is_err()
                || terminal
            {
                return;
            }
        });
        let slot = &mut self.slots[shard];
        slot.child = Some(child);
        slot.last_seen = Instant::now();
    }

    /// Reaps the slot's child (kill if still running) and returns its
    /// exit code, if it exited rather than died to a signal.
    fn reap(&mut self, shard: usize, kill_first: bool) -> Option<i32> {
        let mut child = self.slots[shard].child.take()?;
        if kill_first {
            let _ = child.kill();
        }
        match child.wait() {
            Ok(status) => status.code(),
            Err(_) => None,
        }
    }

    /// Handles a death of the slot's current attempt: retry under the
    /// policy (backoff charged first) or give the shard up.
    fn after_death(&mut self, shard: usize) {
        let next = self.slots[shard].attempt + 1;
        if next > self.config.retry.max_retries {
            self.give_up(shard, Exhausted::Faulted { site: shard as u64 });
            return;
        }
        let charge = self.config.retry.backoff_for(shard as u64, next);
        match self.meter.charge_fuel_batch(charge) {
            Ok(()) => {
                self.events.push(ShardEvent::Retried {
                    shard: shard as u64,
                    attempt: next,
                    charge,
                });
                self.spawn(shard, next);
            }
            Err(cause) => self.give_up(shard, cause),
        }
    }

    /// Marks the shard permanently lost with a parked cause.
    fn give_up(&mut self, shard: usize, cause: Exhausted) {
        let slot = &mut self.slots[shard];
        slot.state = SlotState::GaveUp;
        slot.cause = Some(cause);
        let attempts = slot.attempt + 1;
        self.events.push(ShardEvent::GaveUp {
            shard: shard as u64,
            attempts,
            cause,
        });
    }
}

/// Races `commands` as supervised subprocesses to the first reply.
///
/// Tie-breaking between near-simultaneous winners follows message
/// arrival (like the in-process portfolio at `threads > 1`); entrants
/// must therefore be answer-equivalent. Every supervision decision is
/// logged, every restart and watchdog kill is charged, and a race with
/// no survivors settles with a certified cause instead of wedging.
pub fn race_shards(commands: &[ShardCommand], config: &ShardConfig) -> ShardRace {
    let (tx, rx) = mpsc::channel();
    let mut sup = Supervision {
        commands,
        config,
        meter: BudgetMeter::new(config.retry.budget),
        events: Vec::new(),
        slots: commands
            .iter()
            .map(|_| Slot {
                attempt: 0,
                state: SlotState::GaveUp,
                child: None,
                last_seen: Instant::now(),
                beaten: false,
                cause: None,
            })
            .collect(),
        tx,
    };
    for shard in 0..commands.len() {
        sup.spawn(shard, 0);
    }

    let mut winner: Option<(usize, ShardAnswer)> = None;
    while winner.is_none()
        && sup
            .slots
            .iter()
            .any(|s| matches!(s.state, SlotState::Running))
    {
        match rx.recv_timeout(config.poll_interval) {
            Ok(msg) => {
                let current = {
                    let slot = &sup.slots[msg.shard];
                    matches!(slot.state, SlotState::Running) && slot.attempt == msg.attempt
                };
                if !current {
                    // A stale reader from an attempt the watchdog (or
                    // the winner) already settled.
                    continue;
                }
                match msg.note {
                    Note::Beat => {
                        let slot = &mut sup.slots[msg.shard];
                        slot.last_seen = Instant::now();
                        if !slot.beaten {
                            slot.beaten = true;
                            sup.events.push(ShardEvent::Beat {
                                shard: msg.shard as u64,
                                attempt: msg.attempt,
                            });
                        }
                    }
                    Note::Answer(answer) => {
                        sup.events.push(ShardEvent::Won {
                            shard: msg.shard as u64,
                            attempt: msg.attempt,
                        });
                        sup.reap(msg.shard, true);
                        winner = Some((msg.shard, answer));
                    }
                    Note::Dead(reason) => {
                        let reason = match reason {
                            None => ShardDeath::Exited {
                                code: sup.reap(msg.shard, false),
                            },
                            Some(why) => {
                                // A garbling shard may still be running;
                                // kill before refusing its bytes.
                                sup.reap(msg.shard, true);
                                ShardDeath::Garbage { reason: why }
                            }
                        };
                        sup.events.push(ShardEvent::Died {
                            shard: msg.shard as u64,
                            attempt: msg.attempt,
                            reason,
                        });
                        sup.after_death(msg.shard);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if winner.is_some() {
            break;
        }
        // Watchdog sweep: kill anything silent past the deadline.
        let now = Instant::now();
        for shard in 0..sup.slots.len() {
            let hung = {
                let slot = &sup.slots[shard];
                matches!(slot.state, SlotState::Running)
                    && slot.child.is_some()
                    && now.duration_since(slot.last_seen) > config.heartbeat_timeout
            };
            if !hung {
                continue;
            }
            let attempt = sup.slots[shard].attempt;
            sup.reap(shard, true);
            sup.events.push(ShardEvent::Died {
                shard: shard as u64,
                attempt,
                reason: ShardDeath::Hung,
            });
            // The kill itself is budgeted work, like a PR-4 retry; a
            // refused charge is honest exhaustion of the job budget.
            match sup.meter.charge_fuel_batch(WATCHDOG_KILL_CHARGE) {
                Ok(()) => {
                    sup.events.push(ShardEvent::WatchdogCharged {
                        shard: shard as u64,
                        attempt,
                        charge: WATCHDOG_KILL_CHARGE,
                    });
                    sup.after_death(shard);
                }
                Err(cause) => sup.give_up(shard, cause),
            }
        }
    }

    let (winner_idx, answer) = match winner {
        Some((idx, answer)) => {
            // Kill-on-winner: every other live shard dies now.
            for shard in 0..sup.slots.len() {
                if shard == idx {
                    continue;
                }
                if matches!(sup.slots[shard].state, SlotState::Running) {
                    let attempt = sup.slots[shard].attempt;
                    sup.reap(shard, true);
                    sup.slots[shard].state = SlotState::Killed;
                    sup.events.push(ShardEvent::KilledByWinner {
                        shard: shard as u64,
                        attempt,
                    });
                }
            }
            (Some(idx), Some(answer))
        }
        None => (None, None),
    };

    let cause = if winner_idx.is_none() {
        let cause = settling_index(sup.slots.iter().map(|s| s.cause))
            .and_then(|i| sup.slots[i].cause)
            .unwrap_or(Exhausted::Faulted { site: 0 });
        sup.events.push(ShardEvent::Degraded { cause });
        Some(cause)
    } else {
        None
    };

    ShardRace {
        winner: winner_idx,
        answer,
        cause,
        receipt: sup.meter.receipt(),
        log: ShardLog {
            seed: config.retry.seed,
            max_retries: config.retry.max_retries,
            events: sup.events,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip_and_corruption() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Flip a payload byte: the CRC must refuse it.
        let mut corrupt = buf.clone();
        corrupt[FRAME_HEADER] ^= 0x01;
        let mut r = Cursor::new(corrupt);
        assert!(read_frame(&mut r).unwrap_err().contains("CRC"));

        // Truncate mid-payload: refused, not surfaced.
        let mut r = Cursor::new(buf[..FRAME_HEADER + 2].to_vec());
        assert!(read_frame(&mut r).unwrap_err().contains("truncated"));
    }

    #[test]
    fn request_envelope_round_trips() {
        for req in [
            ShardRequest {
                site: 0,
                fault_seed: None,
                payload: Vec::new(),
            },
            ShardRequest {
                site: u64::MAX,
                fault_seed: Some(0),
                payload: b"payload".to_vec(),
            },
            ShardRequest {
                site: retry_site(3, 2),
                fault_seed: Some(u64::MAX),
                payload: vec![0u8; 1024],
            },
        ] {
            assert_eq!(ShardRequest::decode(&req.encode()).unwrap(), req);
        }
        assert!(ShardRequest::decode(&[0u8; 5]).is_err());
        let mut bad_flag = ShardRequest {
            site: 1,
            fault_seed: None,
            payload: Vec::new(),
        }
        .encode();
        bad_flag[8] = 7;
        assert!(ShardRequest::decode(&bad_flag).is_err());
    }

    #[test]
    fn reply_envelope_round_trips() {
        for reply in [
            ShardReply::Heartbeat,
            ShardReply::Result(b"42".to_vec()),
            ShardReply::Result(Vec::new()),
            ShardReply::Error("boom".into()),
        ] {
            assert_eq!(ShardReply::decode(&reply.encode()).unwrap(), reply);
        }
        assert!(ShardReply::decode(&[]).is_err());
        assert!(ShardReply::decode(&[0x7F, 1, 2]).is_err());
    }

    /// A `Write` that appends into a shared buffer (the worker side
    /// needs `Send + 'static`).
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drain_replies(bytes: &[u8]) -> Vec<ShardReply> {
        let mut r = Cursor::new(bytes.to_vec());
        let mut out = Vec::new();
        while let Some(frame) = read_frame(&mut r).expect("worker output stays well-framed") {
            out.push(ShardReply::decode(&frame).expect("worker frames decode"));
        }
        out
    }

    #[test]
    fn worker_answers_and_heartbeats_cleanly() {
        let mut input = Vec::new();
        let req = ShardRequest {
            site: 9,
            fault_seed: None,
            payload: b"double me".to_vec(),
        };
        write_frame(&mut input, &req.encode()).unwrap();
        let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        run_worker(&mut Cursor::new(input), sink.clone(), |payload| {
            let mut doubled = payload.to_vec();
            doubled.extend_from_slice(payload);
            Ok(doubled)
        })
        .unwrap();
        let replies = drain_replies(&sink.0.lock().unwrap());
        // At least one heartbeat precedes the result; the result is last.
        assert!(matches!(replies.first(), Some(ShardReply::Heartbeat)));
        assert_eq!(
            replies.last(),
            Some(&ShardReply::Result(b"double medouble me".to_vec()))
        );
    }

    #[test]
    fn worker_reports_compute_errors_as_error_frames() {
        let mut input = Vec::new();
        let req = ShardRequest {
            site: 1,
            fault_seed: None,
            payload: Vec::new(),
        };
        write_frame(&mut input, &req.encode()).unwrap();
        let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        run_worker(&mut Cursor::new(input), sink.clone(), |_| {
            Err("bad job".to_string())
        })
        .unwrap();
        let replies = drain_replies(&sink.0.lock().unwrap());
        assert_eq!(replies.last(), Some(&ShardReply::Error("bad job".into())));
    }

    #[test]
    fn worker_self_injects_garbage_from_the_pure_decision() {
        // Find a seed whose site-0 decision garbles without first
        // killing or hanging (the fault precedence would preempt it).
        let site = retry_site(0, 0);
        let seed = (1..)
            .find(|&s| {
                FaultPlan::decides(s, FaultKind::ShardGarbage, site)
                    && !FaultPlan::decides(s, FaultKind::ShardKill, site)
                    && !FaultPlan::decides(s, FaultKind::ShardHang, site)
            })
            .expect("a garbage-only seed exists");
        let mut input = Vec::new();
        let req = ShardRequest {
            site,
            fault_seed: Some(seed),
            payload: Vec::new(),
        };
        write_frame(&mut input, &req.encode()).unwrap();
        let sink = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        run_worker(&mut Cursor::new(input), sink.clone(), |_| {
            panic!("a garbling worker must never reach compute")
        })
        .unwrap();
        let bytes = sink.0.lock().unwrap().clone();
        let mut r = Cursor::new(bytes);
        assert!(
            read_frame(&mut r).unwrap_err().contains("CRC"),
            "the garbled frame must be refused by the reader"
        );
    }

    #[test]
    fn empty_race_degrades_with_a_certified_cause() {
        let race = race_shards(&[], &ShardConfig::new(RetryPolicy::new(7, 2)));
        assert_eq!(race.winner, None);
        assert!(race.answer.is_none());
        let cause = race.cause.expect("degraded races carry a cause");
        assert!(race.receipt.coherent());
        assert!(race.receipt.certifies(&cause));
        assert_eq!(race.log.events, vec![ShardEvent::Degraded { cause }]);
    }

    #[test]
    fn missing_worker_binary_exhausts_retries_and_degrades() {
        let commands = vec![ShardCommand {
            program: PathBuf::from("/nonexistent/sciduction-shard-worker"),
            args: Vec::new(),
            payload: Vec::new(),
        }];
        let config = ShardConfig::new(RetryPolicy::new(11, 2));
        let race = race_shards(&commands, &config);
        assert_eq!(race.winner, None);
        let cause = race.cause.expect("no shard answered");
        assert_eq!(cause, Exhausted::Faulted { site: 0 });
        assert!(race.receipt.coherent());
        assert!(race.receipt.certifies(&cause));
        // Three spawns (attempt 0..=2), three deaths, two paid retries.
        let spawns = race
            .log
            .events
            .iter()
            .filter(|e| matches!(e, ShardEvent::Spawned { .. }))
            .count();
        let deaths = race
            .log
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ShardEvent::Died {
                        reason: ShardDeath::SpawnFailed { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!((spawns, deaths), (3, 3));
        let charged: u64 = race
            .log
            .events
            .iter()
            .filter_map(|e| match e {
                ShardEvent::Retried { charge, .. } => Some(*charge),
                _ => None,
            })
            .sum();
        assert_eq!(charged, race.receipt.fuel);
        assert_eq!(
            charged,
            RetryPolicy::backoff(11, 0, 1) + RetryPolicy::backoff(11, 0, 2)
        );
    }

    #[test]
    fn refused_backoff_parks_the_budget_cause() {
        // A fuel budget of 0 refuses the first backoff charge: the
        // shard gives up with the meter's own certified cause.
        let policy = RetryPolicy::new(5, 3).with_budget(crate::Budget::with_fuel(0));
        let commands = vec![ShardCommand {
            program: PathBuf::from("/nonexistent/sciduction-shard-worker"),
            args: Vec::new(),
            payload: Vec::new(),
        }];
        let race = race_shards(&commands, &ShardConfig::new(policy));
        let cause = race.cause.expect("no shard answered");
        assert!(matches!(cause, Exhausted::Fuel { limit: 0, .. }));
        assert!(race.receipt.coherent());
        assert!(race.receipt.certifies(&cause));
    }
}
