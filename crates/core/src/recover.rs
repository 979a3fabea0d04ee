//! Supervised recovery: panic isolation, deterministic retry/backoff,
//! and circuit breakers over the scheduling layer (DESIGN.md §4.15).
//!
//! PR 3 taught the stack to *inject* faults deterministically
//! ([`FaultPlan`]) and to *account* for exhaustion ([`crate::budget`]);
//! this module teaches it to *recover*. The supervision contract:
//!
//! * **Panic isolation** — a panicking entrant or oracle worker becomes a
//!   parked [`Exhausted::Faulted`] cause (with the payload's message kept
//!   for the report), never a process abort or a poisoned lock.
//! * **Deterministic retry** — a [`RetryPolicy`] re-runs faulted attempts
//!   with a backoff schedule that is a *pure function* of
//!   `(seed, site, attempt)`, charged to the existing [`Budget`] as fuel,
//!   so supervised verdicts stay thread-count invariant and the total
//!   retry charge can never exceed the budget (refuse-at-limit metering).
//! * **Circuit breaking** — a per-entrant [`CircuitBreaker`] trips open
//!   after consecutive failures and cools down before half-opening; its
//!   op log is audited like a certificate ([`replay_breaker`] is the
//!   ground truth lint `REC002` re-checks).
//!
//! Each retry re-rolls the fault dice at a fresh site
//! ([`retry_site`]`(site, attempt)`), so a supervised run under any
//! seeded fault plan completes with the clean verdict whenever budget
//! remains — injected faults cost backoff fuel, never the answer.

use crate::budget::{Budget, BudgetMeter, BudgetReceipt, Exhausted};
use crate::exec::{
    lock_ignoring_poison, panic_message, ExecError, FaultKind, FaultPlan, ParallelOracle, StopFlag,
};
use sciduction_rng::{RngCore, SeedableRng, Xoshiro256PlusPlus};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Environment variable naming the maximum supervised retries per
/// entrant (see [`RetryPolicy::from_env`]).
pub const RETRIES_ENV: &str = "SCIDUCTION_RETRIES";

/// Retries attempted when [`RETRIES_ENV`] is unset: three retries, four
/// attempts in total.
pub const DEFAULT_RETRIES: u32 = 3;

/// Parses a [`RETRIES_ENV`] value: a decimal `u32` retry count (`0` is
/// legal and disables retrying). Garbage means "use the default".
pub fn parse_retries(raw: &str) -> Option<u32> {
    raw.trim().parse::<u32>().ok()
}

/// Why a checkpoint journal was rejected. Shared by the three loop
/// journals (`CegisJournal`, `MeasurementJournal`, `GuardSearchJournal`):
/// each crate serializes its own format, but rejection — and the `REC001`
/// audit built on it — speaks one language.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalError {
    /// The serialized journal could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// The journal was recorded under a different configuration than the
    /// resume was asked to run (seed, widths, dimensions…).
    Mismatch {
        /// The configuration field that disagreed.
        field: &'static str,
    },
    /// Replay divergence (`REC001`): re-running the journaled prefix
    /// produced different queries or inputs than the journal recorded —
    /// the journal lies about the run it claims to checkpoint.
    Divergence {
        /// Index of the first diverging journal entry.
        at: usize,
        /// What diverged.
        detail: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Parse { line, reason } => {
                write!(f, "journal parse error at line {line}: {reason}")
            }
            JournalError::Mismatch { field } => {
                write!(f, "journal was recorded under a different {field}")
            }
            JournalError::Divergence { at, detail } => {
                write!(f, "journal replay diverged at entry {at}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Reads a v1 checkpoint journal: the `header` line, then one
/// `key value` line per field, with blank lines skipped. Yields each
/// field line with its 1-based number; a line without a space is a
/// [`JournalError::Parse`] at that line. The three loop journals share
/// this reader and differ only in their keys.
///
/// # Errors
///
/// [`JournalError::Parse`] at line 1 for an empty text or a header
/// other than `header`.
pub fn read_journal<'a>(
    text: &'a str,
    header: &str,
) -> Result<impl Iterator<Item = Result<JournalLine<'a>, JournalError>> + 'a, JournalError> {
    let mut lines = text.lines();
    let found = lines.next().ok_or_else(|| JournalError::Parse {
        line: 1,
        reason: "empty journal".into(),
    })?;
    if found.trim() != header {
        return Err(JournalError::Parse {
            line: 1,
            reason: format!("bad header {found:?}, expected {header:?}"),
        });
    }
    Ok(lines.enumerate().filter_map(|(idx, raw)| {
        let raw = raw.trim();
        let number = idx + 2;
        (!raw.is_empty()).then(|| match raw.split_once(' ') {
            Some((key, value)) => Ok(JournalLine { number, key, value }),
            None => Err(JournalError::Parse {
                line: number,
                reason: format!("expected `key value`, got {raw:?}"),
            }),
        })
    }))
}

/// One `key value` line of a checkpoint journal (see [`read_journal`]).
/// Its decoders build a [`JournalError::Parse`] naming this line, and
/// only on failure.
#[derive(Clone, Copy, Debug)]
pub struct JournalLine<'a> {
    /// 1-based line number.
    pub number: usize,
    /// The key: everything before the first space.
    pub key: &'a str,
    /// The value: everything after the first space.
    pub value: &'a str,
}

impl JournalLine<'_> {
    /// A [`JournalError::Parse`] at this line.
    pub fn error(&self, reason: String) -> JournalError {
        JournalError::Parse {
            line: self.number,
            reason,
        }
    }

    /// The key, rejected as unknown.
    pub fn unknown_key(&self) -> JournalError {
        self.error(format!("unknown key {:?}", self.key))
    }

    /// Parses `raw`, part of this line, as a `T`; `what` names it in
    /// the error.
    pub fn parse<T: std::str::FromStr>(&self, raw: &str, what: &str) -> Result<T, JournalError>
    where
        T::Err: std::fmt::Display,
    {
        raw.parse()
            .map_err(|e| self.error(format!("bad {what} {raw:?}: {e}")))
    }

    /// Parses `raw`, part of this line, as hexadecimal `u64` bits.
    pub fn hex(&self, raw: &str, what: &str) -> Result<u64, JournalError> {
        u64::from_str_radix(raw, 16).map_err(|e| self.error(format!("bad {what} {raw:?}: {e}")))
    }

    /// Parses the whole value as a `T`, named by the key in the error.
    pub fn field<T: std::str::FromStr>(&self) -> Result<T, JournalError>
    where
        T::Err: std::fmt::Display,
    {
        self.parse(self.value, self.key)
    }

    /// Parses the value as exactly `N` whitespace-separated `T`s.
    pub fn fields<T: std::str::FromStr, const N: usize>(&self) -> Result<[T; N], JournalError>
    where
        T::Err: std::fmt::Display,
    {
        let parsed: Vec<T> = self
            .value
            .split_whitespace()
            .map(|word| self.parse(word, self.key))
            .collect::<Result<_, _>>()?;
        let got = parsed.len();
        parsed
            .try_into()
            .map_err(|_| self.error(format!("expected {N} {} values, got {got}", self.key)))
    }

    /// Splits `raw`, part of this line, at the first `sep`.
    pub fn split<'s>(&self, raw: &'s str, sep: &str) -> Result<(&'s str, &'s str), JournalError> {
        raw.split_once(sep)
            .ok_or_else(|| self.error(format!("expected {sep:?} in {raw:?}")))
    }

    /// Decodes `raw`, part of this line, as a comma-separated list (the
    /// inverse of [`journal_list`]); an empty `raw` is the empty list.
    pub fn list<T>(
        &self,
        raw: &str,
        item: impl Fn(&str) -> Result<T, JournalError>,
    ) -> Result<Vec<T>, JournalError> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',').map(|s| item(s.trim())).collect()
    }
}

/// Encodes `items` as a comma-separated journal list, each written by
/// `item` (the inverse of [`JournalLine::list`]).
pub fn journal_list<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    items.iter().map(item).collect::<Vec<_>>().join(",")
}

/// The deterministic fault site of attempt `attempt` at base site
/// `site`: each retry re-rolls every [`FaultPlan`] decision at a fresh
/// site (offset far past any real base site), so a fault that killed
/// attempt 0 does not automatically kill attempt 1 — while staying a
/// pure function, reproducible by the `FLT001`/`REC003` audits.
pub fn retry_site(site: u64, attempt: u32) -> u64 {
    site + ((attempt as u64) << 32)
}

/// Deterministic retry/backoff policy for supervised entrants.
///
/// The schedule is pure in `(seed, site, attempt)` — see
/// [`RetryPolicy::backoff`] — and every backoff unit is charged to a
/// [`BudgetMeter`] over `budget` as fuel *before* the attempt runs, so a
/// supervised run can never spend past its budget waiting to retry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
    /// Maximum retries per entrant (attempt 0 is free: `max_retries = 0`
    /// means exactly one attempt and no recovery).
    pub max_retries: u32,
    /// The budget retry charges are metered against, per entrant.
    pub budget: Budget,
}

impl RetryPolicy {
    /// A policy with `max_retries` retries and an unlimited retry budget.
    pub fn new(seed: u64, max_retries: u32) -> Self {
        RetryPolicy {
            seed,
            max_retries,
            budget: Budget::UNLIMITED,
        }
    }

    /// The policy named by [`RETRIES_ENV`] (falling back to
    /// [`DEFAULT_RETRIES`]), with an unlimited retry budget.
    pub fn from_env(seed: u64) -> Self {
        let max_retries = std::env::var(RETRIES_ENV)
            .ok()
            .and_then(|raw| parse_retries(&raw))
            .unwrap_or(DEFAULT_RETRIES);
        RetryPolicy::new(seed, max_retries)
    }

    /// Replaces the retry budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The pure backoff schedule: fuel units to pay before `attempt` at
    /// `site`. Attempt 0 is always immediate (zero charge); attempt
    /// `k ≥ 1` pays an exponential base `2^(k-1)` plus a deterministic
    /// jitter in `[0, 2^(k-1))` drawn from the forked `(seed, site,
    /// attempt)` stream — the decorrelation of real jittered backoff,
    /// without the nondeterminism of a clock.
    pub fn backoff(seed: u64, site: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return 0;
        }
        let base = 1u64 << (attempt - 1).min(16);
        let jitter = Xoshiro256PlusPlus::seed_from_u64(seed)
            .fork(site)
            .fork(attempt as u64)
            .next_u64()
            % base;
        base + jitter
    }

    /// [`RetryPolicy::backoff`] under this policy's seed.
    pub fn backoff_for(&self, site: u64, attempt: u32) -> u64 {
        RetryPolicy::backoff(self.seed, site, attempt)
    }
}

/// One paid backoff charge, as recorded in an [`EntrantLog`]. The
/// `REC003` lint re-derives `charge` from the policy seed and refuses
/// logs whose schedule was not followed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryEvent {
    /// The entrant's base supervision site.
    pub site: u64,
    /// The attempt this charge paid for (always ≥ 1).
    pub attempt: u32,
    /// Fuel units charged: [`RetryPolicy::backoff`]`(seed, site, attempt)`.
    pub charge: u64,
}

/// Circuit-breaker states (the classic closed → open → half-open
/// machine).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BreakerState {
    /// Normal operation: attempts flow through.
    Closed,
    /// Tripped after consecutive failures: attempts are denied while the
    /// cooldown drains.
    Open,
    /// Cooldown elapsed: one probe attempt is let through; success
    /// closes the breaker, failure re-opens it.
    HalfOpen,
}

/// One operation applied to a [`CircuitBreaker`], as recorded in its op
/// log. The log plus [`replay_breaker`] is the audit trail: a forged
/// grant or a skipped transition cannot replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BreakerOp {
    /// An admission request, and whether it was granted.
    Allow {
        /// `true` when the attempt was let through.
        granted: bool,
    },
    /// The guarded attempt answered.
    Success,
    /// The guarded attempt faulted (panic or injected fault).
    Failure,
}

/// A state transition of a [`CircuitBreaker`], with the index of the op
/// that caused it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BreakerEvent {
    /// State before the transition.
    pub from: BreakerState,
    /// State after the transition.
    pub to: BreakerState,
    /// Index into the op log of the causing operation.
    pub op_index: usize,
}

/// A per-entrant circuit breaker with an auditable op log.
///
/// `threshold` consecutive failures trip the breaker open; `cooldown`
/// denied admissions later it half-opens and lets one probe through. The
/// breaker is driven exclusively through [`CircuitBreaker::allow`],
/// [`CircuitBreaker::success`] and [`CircuitBreaker::failure`], each of
/// which appends to the op log — so the whole run can be replayed by
/// [`replay_breaker`] and audited (`REC002`).
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: u32,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    ops: Vec<BreakerOp>,
    events: Vec<BreakerEvent>,
}

/// Consecutive failures before a default breaker opens.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 3;

/// Denied admissions before a default breaker half-opens.
pub const DEFAULT_BREAKER_COOLDOWN: u32 = 1;

impl CircuitBreaker {
    /// A closed breaker tripping after `threshold` consecutive failures
    /// and half-opening after `cooldown` denied admissions (both clamped
    /// to ≥ 1).
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            ops: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The operations applied so far, in order.
    pub fn ops(&self) -> &[BreakerOp] {
        &self.ops
    }

    /// The state transitions so far, in order.
    pub fn events(&self) -> &[BreakerEvent] {
        &self.events
    }

    /// Requests admission for one attempt. Denied admissions drain the
    /// cooldown of an open breaker; the admission after the cooldown
    /// half-opens it.
    pub fn allow(&mut self) -> bool {
        let granted = match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                    false
                } else {
                    self.transition(BreakerState::HalfOpen);
                    true
                }
            }
        };
        self.ops.push(BreakerOp::Allow { granted });
        granted
    }

    /// Reports that the admitted attempt answered: resets the failure
    /// streak and closes a half-open breaker.
    pub fn success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.transition(BreakerState::Closed);
        }
        self.ops.push(BreakerOp::Success);
    }

    /// Reports that the admitted attempt faulted: extends the failure
    /// streak, tripping a closed breaker at the threshold and re-opening
    /// a half-open one immediately.
    pub fn failure(&mut self) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.cooldown_left = self.cooldown;
                    self.transition(BreakerState::Open);
                }
            }
            BreakerState::HalfOpen => {
                self.cooldown_left = self.cooldown;
                self.transition(BreakerState::Open);
            }
            BreakerState::Open => {}
        }
        self.ops.push(BreakerOp::Failure);
    }

    /// Records a transition caused by the op about to be pushed.
    fn transition(&mut self, to: BreakerState) {
        self.events.push(BreakerEvent {
            from: self.state,
            to,
            op_index: self.ops.len(),
        });
        self.state = to;
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(DEFAULT_BREAKER_THRESHOLD, DEFAULT_BREAKER_COOLDOWN)
    }
}

/// Replays an op log through a fresh breaker — the pure ground truth of
/// the `REC002` audit. Returns the final state and the transitions the
/// machine *must* have taken, or `None` when a logged `Allow` grant
/// contradicts the replayed machine (a forged admission).
pub fn replay_breaker(
    threshold: u32,
    cooldown: u32,
    ops: &[BreakerOp],
) -> Option<(BreakerState, Vec<BreakerEvent>)> {
    let mut breaker = CircuitBreaker::new(threshold, cooldown);
    for op in ops {
        match *op {
            BreakerOp::Allow { granted } => {
                if breaker.allow() != granted {
                    return None;
                }
            }
            BreakerOp::Success => breaker.success(),
            BreakerOp::Failure => breaker.failure(),
        }
    }
    Some((breaker.state, breaker.events))
}

/// What one supervised attempt produced. Supervised entrants return this
/// instead of a bare `Option`, so the supervisor can tell *honest*
/// exhaustion (not retried — the budget is genuinely spent) from a
/// *fault* (retried — the work was lost, not completed).
#[derive(Clone, Debug)]
pub enum Attempt<T> {
    /// A definite answer; the entrant wins the race.
    Answer(T),
    /// The entrant gave up honestly: budget exhausted (`Some(cause)`) or
    /// cancelled/lost (`None`). Not retried.
    GaveUp(Option<Exhausted>),
    /// The attempt was lost to a fault (injected or infrastructural).
    /// Retried while the policy allows.
    Faulted(Exhausted),
}

/// A caught panic, as recorded in an [`EntrantLog`]: the attempt site it
/// happened at and the payload's message (see
/// [`panic_message`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PanicNote {
    /// The [`retry_site`] of the panicking attempt.
    pub site: u64,
    /// The panic payload's message.
    pub message: String,
}

/// The audit trail of one supervised entrant: every retry charge, the
/// full breaker history, caught panics, and the retry meter's receipt.
/// The `REC002`/`REC003` lints validate these like certificates.
#[derive(Clone, Debug)]
pub struct EntrantLog {
    /// The entrant index (also its base supervision site).
    pub entrant: usize,
    /// Attempts actually admitted (killed attempts included, breaker
    /// denials excluded).
    pub attempts: u32,
    /// `true` when the entrant produced an answer.
    pub answered: bool,
    /// The parked exhaustion cause when it did not.
    pub cause: Option<Exhausted>,
    /// Backoff charges paid, in attempt order.
    pub retries: Vec<RetryEvent>,
    /// The retry meter's statement of account.
    pub receipt: BudgetReceipt,
    /// Every breaker operation, in order.
    pub breaker_ops: Vec<BreakerOp>,
    /// Every breaker transition, in order.
    pub breaker_events: Vec<BreakerEvent>,
    /// The breaker's final state.
    pub breaker_state: BreakerState,
    /// Panics caught and converted to faults.
    pub panics: Vec<PanicNote>,
}

/// The winning entrant of a portfolio race.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaceWin<T> {
    /// Index of the entrant that answered first.
    pub winner: usize,
    /// The answer it produced.
    pub value: T,
}

/// The result of a supervised race: the win (if any entrant answered)
/// plus one [`EntrantLog`] per *started* entrant (`None` for entrants a
/// sequential race never reached).
#[derive(Clone, Debug)]
pub struct SupervisedRace<T> {
    /// The winning entrant and its answer, if any.
    pub win: Option<RaceWin<T>>,
    /// Per-entrant supervision logs, indexed like the entrants.
    pub logs: Vec<Option<EntrantLog>>,
    /// The policy the race ran under (audits re-derive schedules from
    /// its seed).
    pub policy: RetryPolicy,
}

/// The index of the parked cause that settles a race no entrant
/// answered: the lowest-indexed cause that is not `Cancelled`, falling
/// back to the lowest-indexed `Cancelled` one. `None` entries (entrants
/// that never started or parked nothing) are skipped. Pure in the cause
/// list, so the settlement is the same at every thread count; the
/// in-process race and `race_shards` both settle through it.
pub fn settling_index(causes: impl IntoIterator<Item = Option<Exhausted>>) -> Option<usize> {
    let mut cancelled = None;
    for (i, cause) in causes.into_iter().enumerate() {
        match cause {
            Some(Exhausted::Cancelled) => {
                cancelled.get_or_insert(i);
            }
            Some(_) => return Some(i),
            None => {}
        }
    }
    cancelled
}

impl<T> SupervisedRace<T> {
    /// The log of the entrant whose parked cause settles a race no
    /// entrant answered (see [`settling_index`]).
    pub fn settling_log(&self) -> Option<&EntrantLog> {
        if self.win.is_some() {
            return None;
        }
        let causes = self.logs.iter().map(|log| log.as_ref()?.cause);
        self.logs[settling_index(causes)?].as_ref()
    }

    /// The race's exhaustion cause when no entrant answered: the cause
    /// of the [`SupervisedRace::settling_log`].
    pub fn verdict_cause(&self) -> Option<Exhausted> {
        self.settling_log()?.cause
    }
}

/// The first panic a race caught, reported as an unsupervised race
/// reports it: [`ExecError::WorkerPanicked`] naming the lowest-indexed
/// entrant whose log holds a [`PanicNote`].
pub fn first_panic(logs: &[Option<EntrantLog>]) -> Option<ExecError> {
    logs.iter().flatten().find_map(|log| {
        log.panics.first().map(|note| ExecError::WorkerPanicked {
            worker: log.entrant,
            message: note.message.clone(),
        })
    })
}

/// Supervises portfolio entrants: panic isolation, deterministic retry
/// with metered backoff, and per-entrant circuit breakers, optionally
/// under a seeded [`FaultPlan`] whose entrant-level decisions are
/// re-rolled per attempt at [`retry_site`]s.
///
/// This is the one in-process race every engine portfolio runs through:
/// an unsupervised race is a supervised race whose policy allows zero
/// retries (`RetryPolicy::new(seed, 0)`).
#[derive(Clone, Debug)]
pub struct Supervisor {
    threads: usize,
    policy: RetryPolicy,
    plan: Option<Arc<FaultPlan>>,
}

impl Supervisor {
    /// A supervisor racing on `threads` workers under `policy`.
    pub fn new(threads: usize, policy: RetryPolicy) -> Self {
        Supervisor {
            threads: threads.max(1),
            policy,
            plan: None,
        }
    }

    /// Attaches a fault-injection plan: entrant-level kill/cancel
    /// decisions are applied per attempt at [`retry_site`]s.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The entrant-level fault this plan injects at `attempt_site`, if
    /// any (worker death preempts spurious cancellation).
    fn attempt_fault(&self, attempt_site: u64) -> Option<FaultKind> {
        let plan = self.plan.as_deref()?;
        if plan.fires(FaultKind::WorkerDeath, attempt_site) {
            Some(FaultKind::WorkerDeath)
        } else if plan.fires(FaultKind::SpuriousCancel, attempt_site) {
            Some(FaultKind::SpuriousCancel)
        } else {
            None
        }
    }

    /// Runs one entrant under supervision: admission through the
    /// breaker, metered backoff before every retry, per-attempt fault
    /// decisions, and `catch_unwind` around the entrant body.
    fn supervise_one<T, F>(
        &self,
        index: usize,
        entrant: &F,
        stop: &StopFlag,
    ) -> (Option<T>, EntrantLog)
    where
        F: Fn(&StopFlag, u32) -> Attempt<T>,
    {
        let site = index as u64;
        let mut meter = BudgetMeter::new(self.policy.budget);
        let mut breaker = CircuitBreaker::default();
        let mut retries = Vec::new();
        let mut panics: Vec<PanicNote> = Vec::new();
        let mut attempts = 0u32;
        let mut answer: Option<T> = None;
        let mut parked: Option<Exhausted> = None;

        'attempts: for attempt in 0..=self.policy.max_retries {
            if stop.is_stopped() {
                // A sibling answered; losing the race is not a fault.
                parked = Some(Exhausted::Cancelled);
                break;
            }
            // Pay the deterministic backoff before the attempt; a
            // refused charge is honest exhaustion of the retry budget.
            if attempt > 0 {
                let charge = self.policy.backoff_for(site, attempt);
                match meter.charge_fuel_batch(charge) {
                    Ok(()) => retries.push(RetryEvent {
                        site,
                        attempt,
                        charge,
                    }),
                    Err(cause) => {
                        parked = Some(cause);
                        break;
                    }
                }
            }
            if !breaker.allow() {
                // Open breaker: the attempt is denied while the
                // cooldown drains (its backoff was still paid).
                continue;
            }
            attempts += 1;
            let attempt_site = retry_site(site, attempt);
            let outcome = match self.attempt_fault(attempt_site) {
                Some(kind @ FaultKind::WorkerDeath) => {
                    // Killed before running: the attempt is lost.
                    Attempt::Faulted(Exhausted::Injected {
                        seed: self.plan.as_deref().map(|p| p.seed()).unwrap_or(0),
                        kind,
                        site: attempt_site,
                    })
                }
                fault => {
                    // Spurious cancellation runs the entrant against a
                    // pre-stopped private flag; a clean attempt gets the
                    // shared race flag.
                    let flag = if fault.is_some() {
                        let private = StopFlag::new();
                        private.stop();
                        private
                    } else {
                        stop.clone()
                    };
                    match panic::catch_unwind(AssertUnwindSafe(|| entrant(&flag, attempt))) {
                        Ok(Attempt::GaveUp(cause)) if fault.is_some() => {
                            // Giving up under an injected cancellation is
                            // the fault's doing, not honest exhaustion.
                            Attempt::Faulted(cause.unwrap_or(Exhausted::Injected {
                                seed: self.plan.as_deref().map(|p| p.seed()).unwrap_or(0),
                                kind: FaultKind::SpuriousCancel,
                                site: attempt_site,
                            }))
                        }
                        Ok(outcome) => outcome,
                        Err(payload) => {
                            panics.push(PanicNote {
                                site: attempt_site,
                                message: panic_message(payload.as_ref()),
                            });
                            Attempt::Faulted(Exhausted::Faulted { site })
                        }
                    }
                }
            };
            match outcome {
                Attempt::Answer(value) => {
                    breaker.success();
                    answer = Some(value);
                    parked = None;
                    break 'attempts;
                }
                Attempt::GaveUp(cause) => {
                    // Honest exhaustion (or a lost race): retrying would
                    // just re-spend a budget that is already gone.
                    parked = Some(cause.unwrap_or(Exhausted::Cancelled));
                    break 'attempts;
                }
                Attempt::Faulted(cause) => {
                    breaker.failure();
                    // With no retry allowed the fault itself settles the
                    // entrant; retries that were allowed and spent park
                    // the generic retries-exhausted cause.
                    parked = Some(if self.policy.max_retries == 0 {
                        cause
                    } else {
                        Exhausted::Faulted { site }
                    });
                }
            }
        }
        let log = EntrantLog {
            entrant: index,
            attempts,
            answered: answer.is_some(),
            cause: if answer.is_some() { None } else { parked },
            retries,
            receipt: meter.receipt(),
            breaker_ops: breaker.ops().to_vec(),
            breaker_events: breaker.events().to_vec(),
            breaker_state: breaker.state(),
            panics,
        };
        (answer, log)
    }

    /// Races supervised entrants to the first answer.
    ///
    /// Each entrant is a *reusable* closure `(stop, attempt) →`
    /// [`Attempt`] — it must rebuild any engine state per attempt, which
    /// is what makes retrying a panicked or killed attempt sound. The
    /// race runs on [`ParallelOracle::map`]: an entrant claimed after a
    /// winner tripped the stop flag is never started (its log is
    /// `None`), so at one thread the winner is the lowest-indexed
    /// entrant that answers. A panic never cancels siblings: supervision
    /// turns it into a parked fault, and the race goes on.
    pub fn race<T, F>(&self, entrants: Vec<F>) -> SupervisedRace<T>
    where
        T: Send,
        F: Fn(&StopFlag, u32) -> Attempt<T> + Sync,
    {
        let stop = StopFlag::new();
        let win: Mutex<Option<RaceWin<T>>> = Mutex::new(None);
        let logs = ParallelOracle::new(self.threads)
            .map(&entrants, |i, entrant| {
                if stop.is_stopped() {
                    return None;
                }
                let (answer, log) = self.supervise_one(i, entrant, &stop);
                if let Some(value) = answer {
                    // Record-then-cancel: the answer is stored before
                    // losers are told to stop, so cancellation cannot
                    // lose it.
                    lock_ignoring_poison(&win).get_or_insert(RaceWin { winner: i, value });
                    stop.stop();
                }
                Some(log)
            })
            .expect("supervised entrants isolate panics");
        let win = lock_ignoring_poison(&win).take();
        SupervisedRace {
            win,
            logs,
            policy: self.policy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciduction_rng::rngs::StdRng;
    use sciduction_rng::Rng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn journal_reader_numbers_lines_and_round_trips_lists() {
        let text = "demo v1\n\nlist 1,2,3\n  pair 4 5  \n";
        let lines: Vec<_> = read_journal(text, "demo v1")
            .expect("header matches")
            .collect::<Result<_, _>>()
            .expect("every line is `key value`");
        assert_eq!(
            lines.iter().map(|l| (l.number, l.key)).collect::<Vec<_>>(),
            [(3, "list"), (4, "pair")]
        );
        let list: Vec<u64> = lines[0]
            .list(lines[0].value, |s| lines[0].parse(s, "item"))
            .unwrap();
        assert_eq!(list, [1, 2, 3]);
        let shown = journal_list(&list, |v| v.to_string());
        assert_eq!(shown, lines[0].value);
        assert_eq!(lines[1].fields::<u64, 2>(), Ok([4, 5]));
        assert!(lines[0].list(" ", |_| Ok(())).unwrap().is_empty());
        // Numbering counts the skipped blank line too.
        let mut bare = read_journal("demo v1\n\nkeyonly\n", "demo v1").unwrap();
        assert!(matches!(
            bare.next(),
            Some(Err(JournalError::Parse { line: 3, .. }))
        ));
    }

    // -- RetryPolicy property tests (satellite: purity, charge bound,
    //    attempt-0 immediacy) ------------------------------------------

    #[test]
    fn backoff_is_pure_in_seed_site_attempt() {
        for seed in [0u64, 1, 7, 0xDEAD] {
            for site in 0..16u64 {
                for attempt in 0..8u32 {
                    let a = RetryPolicy::backoff(seed, site, attempt);
                    let b = RetryPolicy::backoff(seed, site, attempt);
                    assert_eq!(a, b, "schedule not pure at ({seed},{site},{attempt})");
                }
            }
        }
        // Distinct seeds decorrelate the jitter somewhere.
        let a: Vec<u64> = (0..64).map(|s| RetryPolicy::backoff(1, s, 3)).collect();
        let b: Vec<u64> = (0..64).map(|s| RetryPolicy::backoff(2, s, 3)).collect();
        assert_ne!(a, b, "seeds must produce distinct schedules");
    }

    #[test]
    fn attempt_zero_is_always_immediate() {
        let mut rng = StdRng::seed_from_u64(0xA77E);
        for _ in 0..200 {
            let seed = rng.random::<u64>();
            let site = rng.random_range(0..1_000u64);
            assert_eq!(RetryPolicy::backoff(seed, site, 0), 0);
        }
    }

    #[test]
    fn backoff_charge_bounds_and_base_growth() {
        // attempt k pays in [2^(k-1), 2^k): exponential base, bounded
        // jitter.
        for seed in 0..8u64 {
            for site in 0..8u64 {
                for attempt in 1..12u32 {
                    let base = 1u64 << (attempt - 1).min(16);
                    let charge = RetryPolicy::backoff(seed, site, attempt);
                    assert!(
                        (base..2 * base).contains(&charge),
                        "charge {charge} outside [{base}, {})",
                        2 * base
                    );
                }
            }
        }
    }

    #[test]
    fn total_retry_charge_never_exceeds_the_budget() {
        let mut rng = StdRng::seed_from_u64(0xB0FF);
        for case in 0..200 {
            let budget = Budget::with_fuel(rng.random_range(0..40u64));
            let policy = RetryPolicy::new(rng.random::<u64>(), 8).with_budget(budget);
            let site = rng.random_range(0..64u64);
            let mut meter = BudgetMeter::new(policy.budget);
            let mut paid = 0u64;
            for attempt in 1..=8u32 {
                match meter.charge_fuel_batch(policy.backoff_for(site, attempt)) {
                    Ok(()) => paid += policy.backoff_for(site, attempt),
                    Err(_) => break,
                }
            }
            let receipt = meter.receipt();
            assert!(receipt.coherent(), "case {case}: {receipt:?}");
            assert!(
                receipt.fuel <= budget.fuel,
                "case {case}: retry charge {} overran budget {}",
                receipt.fuel,
                budget.fuel
            );
            assert_eq!(receipt.fuel.min(paid), paid, "case {case}");
        }
    }

    // -- Circuit breaker ----------------------------------------------

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(2, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.failure();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.failure(); // second consecutive failure trips it
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open breaker denies");
        assert!(!b.allow(), "cooldown of 2 denies twice");
        assert!(b.allow(), "then half-opens and probes");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.success();
        assert_eq!(b.state(), BreakerState::Closed);
        // The audit trail replays exactly.
        let (state, events) = replay_breaker(2, 2, b.ops()).expect("honest log replays");
        assert_eq!(state, b.state());
        assert_eq!(events, b.events());
        assert_eq!(events.len(), 3, "open, half-open, closed");
    }

    #[test]
    fn halfopen_failure_reopens() {
        let mut b = CircuitBreaker::new(1, 1);
        assert!(b.allow());
        b.failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.failure();
        assert_eq!(b.state(), BreakerState::Open);
        let (state, _) = replay_breaker(1, 1, b.ops()).unwrap();
        assert_eq!(state, BreakerState::Open);
    }

    #[test]
    fn forged_breaker_grants_fail_the_replay() {
        let mut b = CircuitBreaker::new(1, 1);
        assert!(b.allow());
        b.failure();
        let mut forged = b.ops().to_vec();
        // Claim an admission the open breaker would deny.
        forged.push(BreakerOp::Allow { granted: true });
        assert!(replay_breaker(1, 1, &forged).is_none());
    }

    // -- Supervisor ---------------------------------------------------

    #[test]
    fn panicking_entrant_is_retried_to_an_answer() {
        for threads in [1, 2] {
            let sup = Supervisor::new(threads, RetryPolicy::new(5, 3));
            let out = sup.race(vec![|_: &StopFlag, attempt: u32| {
                if attempt < 2 {
                    panic!("transient failure on attempt {attempt}");
                }
                Attempt::Answer(attempt)
            }]);
            assert_eq!(out.verdict_cause(), None);
            let win = out.win.expect("supervision recovers the answer");
            assert_eq!(win.winner, 0);
            assert_eq!(win.value, 2);
            let log = out.logs[0].as_ref().expect("entrant 0 started");
            assert!(log.answered);
            assert_eq!(log.attempts, 3);
            assert_eq!(log.panics.len(), 2);
            assert!(
                log.panics[0].message.contains("transient failure"),
                "panic message lost: {:?}",
                log.panics[0]
            );
            // Two paid retries, schedule-exact.
            assert_eq!(log.retries.len(), 2);
            for ev in &log.retries {
                assert_eq!(ev.charge, RetryPolicy::backoff(5, ev.site, ev.attempt));
            }
            // Breaker log replays (the REC002 invariant at the source).
            let (state, events) = replay_breaker(
                DEFAULT_BREAKER_THRESHOLD,
                DEFAULT_BREAKER_COOLDOWN,
                &log.breaker_ops,
            )
            .expect("honest log");
            assert_eq!(state, log.breaker_state);
            assert_eq!(events, log.breaker_events);
        }
    }

    #[test]
    fn always_panicking_entrant_parks_a_faulted_cause() {
        let sup = Supervisor::new(1, RetryPolicy::new(9, 2));
        let out = sup.race::<u32, _>(vec![|_: &StopFlag, _: u32| -> Attempt<u32> {
            panic!("permanently broken")
        }]);
        assert!(out.win.is_none());
        assert_eq!(out.verdict_cause(), Some(Exhausted::Faulted { site: 0 }));
        let log = out.logs[0].as_ref().unwrap();
        assert!(!log.answered);
        assert_eq!(log.attempts, 3, "initial attempt + 2 retries");
        assert_eq!(log.panics.len(), 3);
    }

    #[test]
    fn zero_retry_faults_park_their_own_cause() {
        // Entrant 0's only attempt is killed: with no retry allowed it
        // parks the injection itself, not the retries-exhausted cause.
        let seed = (1u64..)
            .find(|&s| FaultPlan::decides(s, FaultKind::WorkerDeath, 0))
            .expect("such a seed exists");
        let out = Supervisor::new(1, RetryPolicy::new(seed, 0))
            .with_fault_plan(Arc::new(FaultPlan::targeting(seed, FaultKind::WorkerDeath)))
            .race(vec![|_: &StopFlag, _: u32| Attempt::Answer(0u32)]);
        let injected = Exhausted::Injected {
            seed,
            kind: FaultKind::WorkerDeath,
            site: 0,
        };
        assert_eq!(out.verdict_cause(), Some(injected));
        assert_eq!(out.settling_log().map(|log| log.entrant), Some(0));
        // A panicking only attempt parks Faulted and surfaces as the
        // unsupervised race's WorkerPanicked error.
        let entrants: Vec<_> = (0..2u64)
            .map(|i| {
                move |_: &StopFlag, _: u32| -> Attempt<u32> {
                    if i == 0 {
                        Attempt::GaveUp(Some(Exhausted::Cancelled))
                    } else {
                        panic!("member {i} broke")
                    }
                }
            })
            .collect();
        let out = Supervisor::new(1, RetryPolicy::new(1, 0)).race(entrants);
        assert_eq!(out.verdict_cause(), Some(Exhausted::Faulted { site: 1 }));
        assert_eq!(
            first_panic(&out.logs),
            Some(ExecError::WorkerPanicked {
                worker: 1,
                message: "member 1 broke".into()
            })
        );
    }

    #[test]
    fn honest_exhaustion_is_not_retried() {
        let calls = AtomicUsize::new(0);
        let sup = Supervisor::new(1, RetryPolicy::new(1, 5));
        let cause = Exhausted::Steps { limit: 1, spent: 1 };
        let out = sup.race::<u32, _>(vec![|_: &StopFlag, _: u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            Attempt::GaveUp(Some(cause))
        }]);
        assert!(out.win.is_none());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "GaveUp must not retry");
        assert_eq!(out.verdict_cause(), Some(cause));
    }

    #[test]
    fn starved_retry_budget_parks_the_refusal_cause() {
        // Fuel 0: the first retry's backoff charge is refused.
        let policy = RetryPolicy::new(3, 4).with_budget(Budget::with_fuel(0));
        let sup = Supervisor::new(1, policy);
        let out = sup.race::<u32, _>(vec![|_: &StopFlag, _: u32| -> Attempt<u32> {
            panic!("always faulting")
        }]);
        assert!(out.win.is_none());
        let log = out.logs[0].as_ref().unwrap();
        assert_eq!(log.attempts, 1, "no budget, no retries");
        assert!(
            matches!(log.cause, Some(Exhausted::Fuel { limit: 0, .. })),
            "cause {:?}",
            log.cause
        );
        assert!(log.receipt.certifies(&log.cause.unwrap()));
    }

    #[test]
    fn supervised_race_is_deterministic_at_one_thread_and_invariant_elsewhere() {
        let run = |threads: usize| {
            let sup = Supervisor::new(threads, RetryPolicy::new(11, 3));
            let entrants: Vec<_> = (0..4usize)
                .map(|i| {
                    move |_: &StopFlag, attempt: u32| {
                        // Entrant i needs i retries to answer.
                        if (attempt as usize) < i {
                            Attempt::Faulted(Exhausted::Faulted { site: i as u64 })
                        } else {
                            Attempt::Answer(i)
                        }
                    }
                })
                .collect();
            sup.race(entrants)
        };
        let seq = run(1);
        let win = seq.win.as_ref().expect("entrant 0 answers immediately");
        assert_eq!(win.winner, 0, "sequential race prefers the lowest index");
        for threads in [2, 4] {
            let par = run(threads);
            let win = par.win.as_ref().expect("some entrant answers");
            // Any winner's value equals its index here; every answer a
            // supervised entrant can produce is correct by construction.
            assert_eq!(win.value, win.winner);
        }
    }

    #[test]
    fn supervised_race_recovers_from_worker_death_plans() {
        // A seed that kills entrant 0's first attempt but not all of its
        // retries: supervision must still get an answer from it.
        let seed = (1u64..)
            .find(|&s| {
                FaultPlan::decides(s, FaultKind::WorkerDeath, retry_site(0, 0))
                    && !FaultPlan::decides(s, FaultKind::WorkerDeath, retry_site(0, 1))
                    && !FaultPlan::decides(s, FaultKind::SpuriousCancel, retry_site(0, 1))
            })
            .expect("such a seed exists");
        let sup = Supervisor::new(1, RetryPolicy::new(1, 3))
            .with_fault_plan(Arc::new(FaultPlan::new(seed)));
        let out = sup.race(vec![|_: &StopFlag, attempt: u32| Attempt::Answer(attempt)]);
        let win = out.win.expect("supervision outlives the injected death");
        assert_eq!(win.winner, 0);
        assert!(win.value > 0, "attempt 0 was killed, a retry answered");
        let log = out.logs[0].as_ref().unwrap();
        assert!(!log.retries.is_empty(), "recovery paid for its retries");
    }

    #[test]
    fn settling_index_prefers_the_lowest_non_cancelled_cause() {
        let conflicts = Exhausted::Conflicts { limit: 1, spent: 1 };
        let causes = [
            Some(Exhausted::Cancelled),
            None,
            Some(Exhausted::Faulted { site: 2 }),
            Some(conflicts),
        ];
        assert_eq!(settling_index(causes), Some(2));
        assert_eq!(settling_index([None, Some(Exhausted::Cancelled)]), Some(1));
        assert_eq!(settling_index([None, None]), None);
    }

    #[test]
    fn retries_env_parsing() {
        assert_eq!(parse_retries("4"), Some(4));
        assert_eq!(parse_retries(" 0 "), Some(0));
        assert_eq!(parse_retries("many"), None);
        assert_eq!(RetryPolicy::new(1, 2).max_retries, 2);
        assert_eq!(retry_site(3, 0), 3);
        assert_eq!(retry_site(3, 2), 3 + (2u64 << 32));
    }
}
