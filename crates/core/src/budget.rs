//! Deterministic resource budgets and three-valued verdicts.
//!
//! Sciduction's conditional soundness (`valid(H) ⟹ sound(P)`) only covers
//! answers the engines actually return. Real deployments also run out of
//! resources, and an engine that panics or spins forever when it does is
//! unsound in practice even when its answers are sound in theory (cf. Jha
//! & Seshia's resource-bounded formalization of oracle-guided synthesis,
//! arXiv:1505.03953, and Neider et al.'s learning with an "unknown"-
//! returning teacher, arXiv:1712.05581). This module gives every engine a
//! common vocabulary for bounded work:
//!
//! * [`Budget`] — limits on four deterministic counters: SAT *conflicts*,
//!   engine *steps* (SMT checks, CEGIS/OGIS iterations, measurement
//!   trials), *fuel* (SAT decisions, simulation-oracle queries), and a
//!   logical-clock *deadline* over the sum of all charges. No wall-clock
//!   time anywhere: exhaustion is a pure function of the work performed,
//!   so it reproduces bit-for-bit across hosts and thread counts.
//! * [`BudgetMeter`] — the accountant an engine threads through its inner
//!   loop. A charge that would cross a limit is *refused* (the counter
//!   never exceeds its limit, so accounting can never underflow or
//!   overrun) and the meter records a sticky [`Exhausted`] cause.
//! * [`Verdict`] — the three-valued answer type: `Known(T)` or
//!   `Unknown(Exhausted)`. Engines must never collapse `Unknown` into a
//!   definite verdict; the `BUD`/`FLT` lints in `sciduction-analysis`
//!   audit exactly that.
//! * [`BudgetReceipt`] — the post-run statement of account, carrying the
//!   invariant `clock == conflicts + steps + fuel` and, when the run was
//!   cut short, the certified cause ([`BudgetReceipt::certifies`]).
//!
//! An unlimited budget ([`Budget::UNLIMITED`], all limits `u64::MAX`)
//! never refuses a charge, so metered engines behave bit-for-bit like
//! their historical unbounded selves — the property the `budget_props`
//! suite pins on the fig6/fig8/fig10 workloads.

use crate::exec::FaultKind;
use std::fmt;

/// Environment knob naming a logical-clock deadline for budgeted entry
/// points that consult the environment (see [`Budget::from_env`]).
pub const BUDGET_ENV: &str = "SCIDUCTION_BUDGET";

/// Parses a `SCIDUCTION_BUDGET` value: a positive decimal `u64` logical-
/// clock deadline. Anything else (empty, zero, garbage) means "no budget".
pub fn parse_budget(raw: &str) -> Option<u64> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Deterministic resource limits for one engine run.
///
/// Each field is an inclusive cap on the matching [`BudgetMeter`] counter;
/// `u64::MAX` means unlimited. The `deadline` caps the *total* number of
/// charges of any kind (the logical clock), mirroring a wall-clock timeout
/// without the nondeterminism of one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Budget {
    /// Maximum SAT conflicts.
    pub conflicts: u64,
    /// Maximum engine steps (SMT checks, synthesis iterations, trials).
    pub steps: u64,
    /// Maximum fuel units (SAT decisions, simulation-oracle queries).
    pub fuel: u64,
    /// Maximum logical-clock value (total charges of every kind).
    pub deadline: u64,
}

impl Budget {
    /// The budget that never exhausts: metered runs under it are
    /// bit-identical to unmetered ones.
    pub const UNLIMITED: Budget = Budget {
        conflicts: u64::MAX,
        steps: u64::MAX,
        fuel: u64::MAX,
        deadline: u64::MAX,
    };

    /// [`Budget::UNLIMITED`] as a function, for `Default`-style call sites.
    pub fn unlimited() -> Self {
        Budget::UNLIMITED
    }

    /// Unlimited except for a conflict cap.
    pub fn with_conflicts(conflicts: u64) -> Self {
        Budget {
            conflicts,
            ..Budget::UNLIMITED
        }
    }

    /// Unlimited except for a step cap.
    pub fn with_steps(steps: u64) -> Self {
        Budget {
            steps,
            ..Budget::UNLIMITED
        }
    }

    /// Unlimited except for a fuel cap.
    pub fn with_fuel(fuel: u64) -> Self {
        Budget {
            fuel,
            ..Budget::UNLIMITED
        }
    }

    /// Unlimited except for a logical-clock deadline.
    pub fn with_deadline(deadline: u64) -> Self {
        Budget {
            deadline,
            ..Budget::UNLIMITED
        }
    }

    /// True when no limit is finite.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::UNLIMITED
    }

    /// The budget named by the `SCIDUCTION_BUDGET` environment variable: a
    /// logical-clock deadline, or [`Budget::UNLIMITED`] when the variable
    /// is unset or unparsable.
    pub fn from_env() -> Self {
        match std::env::var(BUDGET_ENV) {
            Ok(raw) => parse_budget(&raw)
                .map(Budget::with_deadline)
                .unwrap_or(Budget::UNLIMITED),
            Err(_) => Budget::UNLIMITED,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::UNLIMITED
    }
}

/// Why an engine stopped without a definite answer.
///
/// Counter variants carry the limit and the amount actually spent so a
/// downstream audit ([`BudgetReceipt::certifies`], lint `BUD002`) can
/// re-check that the claimed exhaustion really happened; `Injected` names
/// the fault-plan decision that forged it (lint `FLT001` re-derives it);
/// `Cancelled` marks a run stopped from outside (a sibling's answer or a
/// spurious-cancellation fault).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Exhausted {
    /// The conflict cap was reached.
    Conflicts {
        /// The cap.
        limit: u64,
        /// Conflicts charged when the run stopped.
        spent: u64,
    },
    /// The step cap was reached.
    Steps {
        /// The cap.
        limit: u64,
        /// Steps charged when the run stopped.
        spent: u64,
    },
    /// The fuel cap was reached.
    Fuel {
        /// The cap.
        limit: u64,
        /// Fuel charged when the run stopped.
        spent: u64,
    },
    /// The logical-clock deadline passed.
    Deadline {
        /// The deadline.
        limit: u64,
        /// The logical clock when the run stopped.
        clock: u64,
    },
    /// A seeded fault plan injected exhaustion at `site`.
    Injected {
        /// The fault plan's seed.
        seed: u64,
        /// The injected fault kind.
        kind: FaultKind,
        /// The injection site (e.g. a portfolio member index).
        site: u64,
    },
    /// The run was cancelled from outside before it could answer.
    Cancelled,
    /// The supervised entrant at `site` kept failing (panic or repeated
    /// faults) until its retry policy gave up. The `REC` lints audit the
    /// retry schedule and breaker log that justify this cause.
    Faulted {
        /// The supervision site (e.g. a portfolio member index).
        site: u64,
    },
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exhausted::Conflicts { limit, spent } => {
                write!(f, "conflict budget exhausted ({spent}/{limit})")
            }
            Exhausted::Steps { limit, spent } => {
                write!(f, "step budget exhausted ({spent}/{limit})")
            }
            Exhausted::Fuel { limit, spent } => {
                write!(f, "fuel budget exhausted ({spent}/{limit})")
            }
            Exhausted::Deadline { limit, clock } => {
                write!(
                    f,
                    "logical-clock deadline passed (clock {clock} >= {limit})"
                )
            }
            Exhausted::Injected { seed, kind, site } => {
                write!(
                    f,
                    "fault injected ({kind:?} at site {site}, seed {seed:#x})"
                )
            }
            Exhausted::Cancelled => write!(f, "cancelled before answering"),
            Exhausted::Faulted { site } => {
                write!(
                    f,
                    "supervision gave up after repeated faults at site {site}"
                )
            }
        }
    }
}

/// A three-valued engine answer: the definite result, or `Unknown` with a
/// certified exhaustion cause. `Unknown` must propagate — treating it as
/// either definite arm silently is exactly the unsoundness the budget
/// subsystem exists to prevent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Verdict<T> {
    /// The engine ran to a definite answer.
    Known(T),
    /// The engine stopped early; the cause says why.
    Unknown(Exhausted),
}

impl<T> Verdict<T> {
    /// True for `Known`.
    pub fn is_known(&self) -> bool {
        matches!(self, Verdict::Known(_))
    }

    /// The definite answer, if any.
    pub fn known(self) -> Option<T> {
        match self {
            Verdict::Known(t) => Some(t),
            Verdict::Unknown(_) => None,
        }
    }

    /// The exhaustion cause, if the verdict is `Unknown`.
    pub fn unknown_cause(&self) -> Option<Exhausted> {
        match self {
            Verdict::Known(_) => None,
            Verdict::Unknown(c) => Some(*c),
        }
    }

    /// Maps the `Known` arm, preserving `Unknown` causes.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Verdict<U> {
        match self {
            Verdict::Known(t) => Verdict::Known(f(t)),
            Verdict::Unknown(c) => Verdict::Unknown(c),
        }
    }

    /// Unwraps `Known`, panicking with `msg` and the cause otherwise. Only
    /// for call sites that supplied an unlimited budget, where `Unknown`
    /// is a bug by construction.
    pub fn expect_known(self, msg: &str) -> T {
        match self {
            Verdict::Known(t) => t,
            Verdict::Unknown(c) => panic!("{msg}: {c}"),
        }
    }
}

/// The one canonical rendering of a three-valued answer, shared by every
/// layer (SAT, SMT, OGIS, GameTime): the definite answer's own display,
/// or `unknown: <cause>` with the certified exhaustion cause — never a
/// bare `unknown` that hides *why* the engine stopped.
impl<T: fmt::Display> fmt::Display for Verdict<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Known(t) => write!(f, "{t}"),
            Verdict::Unknown(cause) => write!(f, "unknown: {cause}"),
        }
    }
}

/// The accountant an engine threads through its inner loop.
///
/// Charge semantics: a charge that would cross its limit is refused —
/// the counter is **not** advanced, the sticky cause is recorded, and the
/// charge returns `Err`. Consequently `spent <= limit` always holds (no
/// underflow, no overrun), an exhausted meter keeps refusing (idempotent),
/// and `spent == limit` at refusal certifies the cause. Every successful
/// charge also advances the logical clock and re-checks the deadline, so
/// `clock == conflicts + steps + fuel` is an invariant of any receipt.
#[derive(Clone, Debug)]
pub struct BudgetMeter {
    budget: Budget,
    conflicts: u64,
    steps: u64,
    fuel: u64,
    clock: u64,
    cause: Option<Exhausted>,
}

impl BudgetMeter {
    /// A fresh meter over `budget`.
    pub fn new(budget: Budget) -> Self {
        BudgetMeter {
            budget,
            conflicts: 0,
            steps: 0,
            fuel: 0,
            clock: 0,
            cause: None,
        }
    }

    /// A meter that never exhausts.
    pub fn unlimited() -> Self {
        BudgetMeter::new(Budget::UNLIMITED)
    }

    /// Restores a meter from a previously taken [`BudgetReceipt`], so a
    /// resumed run keeps paying against the same account instead of
    /// getting a fresh budget. The receipt must be coherent; the sticky
    /// cause (if any) is restored verbatim, so an exhausted journal stays
    /// exhausted on resume.
    pub fn from_receipt(receipt: &BudgetReceipt) -> Self {
        assert!(
            receipt.coherent(),
            "cannot restore a meter from an incoherent receipt: {receipt:?}"
        );
        BudgetMeter {
            budget: receipt.budget,
            conflicts: receipt.conflicts,
            steps: receipt.steps,
            fuel: receipt.fuel,
            clock: receipt.clock,
            cause: receipt.cause,
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The sticky exhaustion cause, once any charge has been refused.
    pub fn cause(&self) -> Option<Exhausted> {
        self.cause
    }

    /// Advances the logical clock by `n` successful charges and re-checks
    /// the deadline.
    fn tick(&mut self, n: u64) -> Result<(), Exhausted> {
        self.clock += n;
        if self.budget.deadline != u64::MAX && self.clock >= self.budget.deadline {
            let c = Exhausted::Deadline {
                limit: self.budget.deadline,
                clock: self.clock,
            };
            self.cause = Some(c);
            return Err(c);
        }
        Ok(())
    }

    /// Charges one SAT conflict.
    pub fn charge_conflict(&mut self) -> Result<(), Exhausted> {
        if self.conflicts >= self.budget.conflicts {
            let c = Exhausted::Conflicts {
                limit: self.budget.conflicts,
                spent: self.conflicts,
            };
            self.cause = Some(c);
            return Err(c);
        }
        self.conflicts += 1;
        self.tick(1)
    }

    /// Charges `n` SAT conflicts at once (e.g. a whole job's receipt
    /// settled against a tenant account); refusal semantics as
    /// [`BudgetMeter::charge_step_batch`].
    pub fn charge_conflict_batch(&mut self, n: u64) -> Result<(), Exhausted> {
        let remaining = self.budget.conflicts.saturating_sub(self.conflicts);
        if n > remaining {
            self.conflicts += remaining;
            self.clock += remaining;
            let c = Exhausted::Conflicts {
                limit: self.budget.conflicts,
                spent: self.conflicts,
            };
            self.cause = Some(c);
            return Err(c);
        }
        self.conflicts += n;
        self.tick(n)
    }

    /// Settles a finished job's [`BudgetReceipt`] against this meter:
    /// conflicts, steps, and fuel are batch-charged in that order, so a
    /// tenant account accumulates exactly what its jobs spent and refuses
    /// (with a certified cause) once any dimension would overrun. Used by
    /// `scid-server` admission control.
    pub fn charge_receipt(&mut self, receipt: &BudgetReceipt) -> Result<(), Exhausted> {
        self.charge_conflict_batch(receipt.conflicts)?;
        self.charge_step_batch(receipt.steps)?;
        self.charge_fuel_batch(receipt.fuel)
    }

    /// Charges one engine step.
    pub fn charge_step(&mut self) -> Result<(), Exhausted> {
        self.charge_step_batch(1)
    }

    /// Charges `n` engine steps at once (e.g. a measurement batch sized
    /// before a parallel fan-out, so the charge is identical at every
    /// thread count). On refusal the remaining headroom is consumed — the
    /// counter lands exactly on its limit — so the recorded cause is
    /// certified by `spent == limit`.
    pub fn charge_step_batch(&mut self, n: u64) -> Result<(), Exhausted> {
        let remaining = self.budget.steps - self.steps;
        if n > remaining {
            self.steps += remaining;
            self.clock += remaining;
            let c = Exhausted::Steps {
                limit: self.budget.steps,
                spent: self.steps,
            };
            self.cause = Some(c);
            return Err(c);
        }
        self.steps += n;
        self.tick(n)
    }

    /// Charges one fuel unit.
    pub fn charge_fuel(&mut self) -> Result<(), Exhausted> {
        self.charge_fuel_batch(1)
    }

    /// Charges `n` fuel units at once; refusal semantics as
    /// [`BudgetMeter::charge_step_batch`].
    pub fn charge_fuel_batch(&mut self, n: u64) -> Result<(), Exhausted> {
        let remaining = self.budget.fuel - self.fuel;
        if n > remaining {
            self.fuel += remaining;
            self.clock += remaining;
            let c = Exhausted::Fuel {
                limit: self.budget.fuel,
                spent: self.fuel,
            };
            self.cause = Some(c);
            return Err(c);
        }
        self.fuel += n;
        self.tick(n)
    }

    /// Records an injected exhaustion (a [`FaultKind`] fired by a seeded
    /// fault plan) as the sticky cause and returns it.
    pub fn inject(&mut self, seed: u64, kind: FaultKind, site: u64) -> Exhausted {
        let c = Exhausted::Injected { seed, kind, site };
        self.cause = Some(c);
        c
    }

    /// Records an external cancellation as the sticky cause and returns it.
    pub fn cancel(&mut self) -> Exhausted {
        let c = Exhausted::Cancelled;
        self.cause = Some(c);
        c
    }

    /// The statement of account at this point of the run.
    pub fn receipt(&self) -> BudgetReceipt {
        BudgetReceipt {
            budget: self.budget,
            conflicts: self.conflicts,
            steps: self.steps,
            fuel: self.fuel,
            clock: self.clock,
            cause: self.cause,
        }
    }
}

/// What a metered run actually spent, plus the cause if it was cut short.
///
/// Receipts are plain data so audits (and the corrupted-artifact tests)
/// can forge them; [`BudgetReceipt::coherent`] and
/// [`BudgetReceipt::certifies`] are the ground truth the `BUD001`–`BUD003`
/// lints re-check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BudgetReceipt {
    /// The budget that was enforced.
    pub budget: Budget,
    /// Conflicts charged.
    pub conflicts: u64,
    /// Steps charged.
    pub steps: u64,
    /// Fuel charged.
    pub fuel: u64,
    /// Total charges (the logical clock).
    pub clock: u64,
    /// The sticky exhaustion cause, if any charge was refused.
    pub cause: Option<Exhausted>,
}

impl BudgetReceipt {
    /// True when no counter overruns its limit (`BUD001`) and the clock
    /// equals the sum of the counters (`BUD003`) — both invariants of any
    /// receipt a real [`BudgetMeter`] can produce.
    pub fn coherent(&self) -> bool {
        self.conflicts <= self.budget.conflicts
            && self.steps <= self.budget.steps
            && self.fuel <= self.budget.fuel
            && self
                .conflicts
                .checked_add(self.steps)
                .and_then(|sum| sum.checked_add(self.fuel))
                == Some(self.clock)
    }

    /// True when `cause` is certified by this receipt: the claimed limit
    /// matches the enforced budget, the claimed spend matches the recorded
    /// counter, and the spend actually reached the limit. `Injected` and
    /// `Cancelled` causes carry no counters to certify here (`FLT001`
    /// re-derives injections from the fault-plan seed instead).
    pub fn certifies(&self, cause: &Exhausted) -> bool {
        match *cause {
            Exhausted::Conflicts { limit, spent } => {
                limit == self.budget.conflicts && spent == self.conflicts && spent >= limit
            }
            Exhausted::Steps { limit, spent } => {
                limit == self.budget.steps && spent == self.steps && spent >= limit
            }
            Exhausted::Fuel { limit, spent } => {
                limit == self.budget.fuel && spent == self.fuel && spent >= limit
            }
            Exhausted::Deadline { limit, clock } => {
                limit == self.budget.deadline && clock == self.clock && clock >= limit
            }
            Exhausted::Injected { .. } | Exhausted::Cancelled | Exhausted::Faulted { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_refuses() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            m.charge_conflict().unwrap();
            m.charge_step().unwrap();
            m.charge_fuel().unwrap();
        }
        let r = m.receipt();
        assert!(r.coherent());
        assert_eq!(r.cause, None);
        assert_eq!(r.clock, 30_000);
    }

    #[test]
    fn conflict_cap_refuses_at_limit_and_is_sticky() {
        let mut m = BudgetMeter::new(Budget::with_conflicts(3));
        for _ in 0..3 {
            m.charge_conflict().unwrap();
        }
        let c = m.charge_conflict().unwrap_err();
        assert_eq!(c, Exhausted::Conflicts { limit: 3, spent: 3 });
        // Refused charges never advance the counter.
        assert_eq!(m.charge_conflict().unwrap_err(), c);
        let r = m.receipt();
        assert!(r.coherent());
        assert!(r.certifies(&c));
        assert_eq!(r.conflicts, 3);
        // Other counters still have headroom.
        m.charge_step().unwrap();
    }

    #[test]
    fn deadline_counts_every_charge_kind() {
        let mut m = BudgetMeter::new(Budget::with_deadline(3));
        m.charge_conflict().unwrap();
        m.charge_step().unwrap();
        let c = m.charge_fuel().unwrap_err();
        assert_eq!(c, Exhausted::Deadline { limit: 3, clock: 3 });
        let r = m.receipt();
        assert!(r.coherent());
        assert!(r.certifies(&c));
    }

    #[test]
    fn batch_charge_lands_exactly_on_the_limit() {
        let mut m = BudgetMeter::new(Budget::with_steps(10));
        m.charge_step_batch(8).unwrap();
        let c = m.charge_step_batch(5).unwrap_err();
        assert_eq!(
            c,
            Exhausted::Steps {
                limit: 10,
                spent: 10
            }
        );
        let r = m.receipt();
        assert!(r.coherent());
        assert!(r.certifies(&c));
        assert_eq!(r.steps, 10);
        assert_eq!(r.clock, 10);
    }

    #[test]
    fn receipts_settle_against_a_tenant_account() {
        let mut job = BudgetMeter::new(Budget::UNLIMITED);
        job.charge_conflict_batch(3).unwrap();
        job.charge_step_batch(4).unwrap();
        job.charge_fuel_batch(2).unwrap();
        let paid = job.receipt();

        let mut account = BudgetMeter::new(Budget {
            conflicts: 10,
            steps: 10,
            fuel: 10,
            ..Budget::UNLIMITED
        });
        account.charge_receipt(&paid).unwrap();
        let r = account.receipt();
        assert!(r.coherent());
        assert_eq!((r.conflicts, r.steps, r.fuel), (3, 4, 2));

        // Two more identical jobs overrun the step cap first (3×4 > 10);
        // the refusal lands exactly on the limit and is certified.
        account.charge_receipt(&paid).unwrap();
        let cause = account.charge_receipt(&paid).unwrap_err();
        assert_eq!(
            cause,
            Exhausted::Steps {
                limit: 10,
                spent: 10
            }
        );
        let r = account.receipt();
        assert!(r.coherent() && r.certifies(&cause));
        // The third job's conflicts were charged before the step refusal,
        // and its fuel never was.
        assert_eq!((r.conflicts, r.fuel), (9, 4));
        // A refused account stays refused (sticky cause).
        assert_eq!(account.cause(), Some(cause));
    }

    #[test]
    fn conflict_batch_matches_single_charge_semantics() {
        let mut single = BudgetMeter::new(Budget::with_conflicts(3));
        let mut batch = BudgetMeter::new(Budget::with_conflicts(3));
        for _ in 0..3 {
            single.charge_conflict().unwrap();
            batch.charge_conflict_batch(1).unwrap();
        }
        let c1 = single.charge_conflict().unwrap_err();
        let c2 = batch.charge_conflict_batch(1).unwrap_err();
        assert_eq!(c1, c2);
        assert_eq!(single.receipt(), batch.receipt());
    }

    #[test]
    fn forged_receipts_fail_the_audits() {
        let mut m = BudgetMeter::new(Budget::with_fuel(2));
        m.charge_fuel_batch(2).unwrap();
        let cause = m.charge_fuel().unwrap_err();
        let honest = m.receipt();
        assert!(honest.coherent() && honest.certifies(&cause));

        let mut overrun = honest;
        overrun.fuel = 5; // spent past the limit: impossible for a meter
        assert!(!overrun.coherent());

        let mut drifted = honest;
        drifted.clock += 1; // clock decoupled from the counters
        assert!(!drifted.coherent());

        // Counters whose sum overflows cannot equal any clock.
        let wrapped = BudgetReceipt {
            budget: Budget::UNLIMITED,
            conflicts: u64::MAX,
            steps: 1,
            fuel: 1,
            clock: 1,
            cause: None,
        };
        assert!(!wrapped.coherent());

        // A claimed exhaustion that never happened.
        let early = Exhausted::Fuel { limit: 2, spent: 1 };
        assert!(!honest.certifies(&early));
        assert!(!honest.certifies(&Exhausted::Conflicts { limit: 2, spent: 2 }));
    }

    #[test]
    fn restored_meter_keeps_paying_against_the_same_account() {
        let mut m = BudgetMeter::new(Budget::with_steps(4));
        m.charge_step_batch(3).unwrap();
        let snapshot = m.receipt();
        // Drive the original to exhaustion; the restored copy must reach
        // the very same refusal from the snapshot.
        let cause = m.charge_step_batch(2).unwrap_err();
        let mut restored = BudgetMeter::from_receipt(&snapshot);
        assert_eq!(restored.charge_step_batch(2).unwrap_err(), cause);
        assert_eq!(restored.receipt(), m.receipt());
        // A restored exhausted meter stays exhausted.
        let revived = BudgetMeter::from_receipt(&m.receipt());
        assert_eq!(revived.cause(), Some(cause));
    }

    #[test]
    fn faulted_cause_is_certified_without_counters() {
        let m = BudgetMeter::new(Budget::UNLIMITED);
        let r = m.receipt();
        assert!(r.certifies(&Exhausted::Faulted { site: 2 }));
        assert!(!format!("{}", Exhausted::Faulted { site: 2 }).is_empty());
    }

    #[test]
    fn verdict_helpers_propagate_unknown() {
        let known: Verdict<u32> = Verdict::Known(7);
        assert_eq!(known.map(|n| n * 2), Verdict::Known(14));
        assert_eq!(known.known(), Some(7));
        let cause = Exhausted::Cancelled;
        let unknown: Verdict<u32> = Verdict::Unknown(cause);
        assert!(!unknown.is_known());
        assert_eq!(unknown.map(|n| n * 2), Verdict::Unknown(cause));
        assert_eq!(unknown.unknown_cause(), Some(cause));
    }

    #[test]
    fn verdict_display_always_carries_the_cause() {
        let known: Verdict<&str> = Verdict::Known("unsat");
        assert_eq!(format!("{known}"), "unsat");
        let unknown: Verdict<&str> = Verdict::Unknown(Exhausted::Fuel {
            limit: 10,
            spent: 10,
        });
        assert_eq!(
            format!("{unknown}"),
            "unknown: fuel budget exhausted (10/10)"
        );
        let cancelled: Verdict<&str> = Verdict::Unknown(Exhausted::Cancelled);
        assert_eq!(
            format!("{cancelled}"),
            "unknown: cancelled before answering"
        );
    }

    #[test]
    fn env_parsing_ignores_garbage() {
        assert_eq!(parse_budget("500"), Some(500));
        assert_eq!(parse_budget(" 42 "), Some(42));
        assert_eq!(parse_budget("0"), None);
        assert_eq!(parse_budget("-3"), None);
        assert_eq!(parse_budget("lots"), None);
        assert!(Budget::default().is_unlimited());
        assert_eq!(Budget::with_deadline(9).deadline, 9);
    }
}
