//! SRV audit passes over server protocol transcripts.
//!
//! The server keeps an append-only transcript of every admitted job and
//! what was served for it, plus the per-tenant admission accounts. These
//! passes re-check that record after the fact:
//!
//! * `SRV001` — transcript well-formedness: every served job was
//!   admitted, no (tenant, id) pair is recorded twice, served receipts
//!   cohere.
//! * `SRV002` — the served verdict matches a direct re-execution of the
//!   same spec through the library (the server-never-changes-verdicts
//!   invariant, checked from the record alone).
//! * `SRV003` — admission accounting: each tenant account's counters
//!   equal the sum of the receipts settled against it, and the account
//!   receipt coheres.
//!
//! The passes produce a [`sciduction_analysis::Report`], so their
//! findings render exactly like every other lint family (including
//! through `scilint --json`-shaped output on the server's `audit` job).

use crate::jobs::Engine;
use crate::server::{ServedRecord, TranscriptEntry};
use sciduction::exec::{default_threads, panic_message, ParallelOracle};
use sciduction::BudgetReceipt;
use sciduction_analysis::codes::{SRV001, SRV002, SRV003};
use sciduction_analysis::Report;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `SRV001`: structural checks on the transcript itself.
pub fn audit_transcript(entries: &[TranscriptEntry], pass: &'static str, report: &mut Report) {
    let mut seen: HashMap<(String, u64), usize> = HashMap::new();
    for (i, e) in entries.iter().enumerate() {
        let loc = location(e);
        if let Some(prev) = seen.insert((e.tenant.clone(), e.id), i) {
            report.error(
                SRV001,
                pass,
                loc.clone(),
                format!("(tenant, id) already recorded at transcript entry {prev}"),
            );
        }
        audit_entry(e, loc, pass, report);
    }
}

/// Like [`audit_transcript`], for a WAL-recovered transcript spanning
/// multiple server runs. Every per-entry check applies unchanged, but
/// (tenant, id) uniqueness does not: clients legitimately reuse their
/// correlation ids across restarts, and in the journal identity is the
/// server-assigned sequence number — whose uniqueness the replay itself
/// enforces as `DUR003`.
pub fn audit_recovered_transcript(
    entries: &[TranscriptEntry],
    pass: &'static str,
    report: &mut Report,
) {
    for e in entries {
        audit_entry(e, location(e), pass, report);
    }
}

/// An entry's diagnostic location: `tenant#id (label)`.
fn location(e: &TranscriptEntry) -> String {
    format!("{}#{} ({})", e.tenant, e.id, e.spec.label())
}

fn audit_entry(e: &TranscriptEntry, loc: String, pass: &'static str, report: &mut Report) {
    if let Some(served) = &e.served {
        if !e.admitted {
            report.error(SRV001, pass, loc.clone(), "served but never admitted");
        }
        if !served.receipt.coherent() {
            report.error(
                SRV001,
                pass,
                loc.clone(),
                "served receipt fails its coherence check",
            );
        }
        if served.verdict.is_empty() {
            report.error(SRV001, pass, loc, "served verdict is empty");
        }
    }
}

/// `SRV002`: re-executes every served job through one fresh [`Engine`]
/// and compares verdict strings byte-for-byte. Thread counts and fault
/// seeds travel inside the spec, so the re-execution sees exactly the
/// same configuration the server did.
///
/// Re-running is as expensive as serving was, so the re-executions fan
/// out over [`ParallelOracle::map`] at the machine's available
/// parallelism ([`default_threads`]). That is not the per-job
/// `SCIDUCTION_THREADS` width: the server runs this pass at startup,
/// before any worker or listener exists, so every core is otherwise
/// idle. A job whose verdict depends on what the shared engine already
/// ran ([`verdict_depends_on_order`]) re-executes alone, after
/// every earlier entry and before any later one, so each entry sees the
/// engine state a one-at-a-time replay in transcript order would give
/// it. Comparison and reporting are one sequential pass in transcript
/// order, so the [`Report`] is the same at any width. A re-execution that
/// panics is an `SRV002` error at its entry, not an unwind out of the
/// caller. The cost still grows linearly with the transcript; callers
/// sample or snapshot accordingly.
///
/// [`verdict_depends_on_order`]: crate::jobs::JobSpec::verdict_depends_on_order
pub fn audit_served_verdicts(entries: &[TranscriptEntry], pass: &'static str, report: &mut Report) {
    let engine = Engine::new(None);
    let oracle = ParallelOracle::new(default_threads());
    let replay = |e: &TranscriptEntry| {
        e.served.as_ref()?;
        let run = catch_unwind(AssertUnwindSafe(|| {
            engine.execute("srv002-replay", &e.spec)
        }));
        Some(match run {
            Ok(Ok(direct)) => Ok(direct.verdict),
            Ok(Err(err)) => Err(format!("served a verdict but re-execution fails: {err}")),
            Err(payload) => Err(format!(
                "served a verdict but re-execution panicked: {}",
                panic_message(payload.as_ref())
            )),
        })
    };
    let mut replays = Vec::with_capacity(entries.len());
    for run in entries.split_inclusive(|e| e.spec.verdict_depends_on_order()) {
        let (batch, alone) = match run.split_last() {
            Some((last, init)) if last.spec.verdict_depends_on_order() => (init, Some(last)),
            _ => (run, None),
        };
        replays.extend(
            oracle
                .map(batch, |_, e| replay(e))
                .expect("every re-execution catches its own panic"),
        );
        replays.extend(alone.map(&replay));
    }
    for (e, replay) in entries.iter().zip(replays) {
        let (Some(served), Some(replay)) = (&e.served, replay) else {
            continue;
        };
        match replay {
            Ok(direct) => {
                if direct != served.verdict {
                    if certified_degradation(served) {
                        // Process-isolation degradation (§4.19): every
                        // shard of the job died, and the supervisor
                        // settled as the canonical `unknown: …` with the
                        // cause parked in a coherent receipt that
                        // certifies it. A weaker answer than the direct
                        // run is the documented contract; a *different*
                        // definite verdict still errors below.
                        continue;
                    }
                    report.error(
                        SRV002,
                        pass,
                        location(e),
                        format!(
                            "served verdict {:?} but direct re-execution says {direct:?}",
                            served.verdict
                        ),
                    );
                }
            }
            Err(message) => report.error(SRV002, pass, location(e), message),
        }
    }
}

/// Whether a served record is an honest §4.19 degradation settlement:
/// the verdict is exactly the canonical rendering of the cause parked in
/// its own receipt, and that receipt both coheres and certifies the
/// cause. Nothing weaker is tolerated by `SRV002`.
fn certified_degradation(served: &ServedRecord) -> bool {
    let Some(cause) = &served.receipt.cause else {
        return false;
    };
    served.verdict == format!("unknown: {cause}")
        && served.receipt.coherent()
        && served.receipt.certifies(cause)
}

/// `SRV003`: checks each tenant's account receipt against the sum of the
/// served receipts recorded for that tenant. `accounts` maps tenant →
/// account receipt (what the admission meter reports).
pub fn audit_admission_accounts(
    entries: &[TranscriptEntry],
    accounts: &HashMap<String, BudgetReceipt>,
    pass: &'static str,
    report: &mut Report,
) {
    let mut sums: HashMap<&str, (u64, u64, u64)> = HashMap::new();
    for e in entries {
        if let Some(served) = &e.served {
            if !served.settled {
                continue; // refused settlements are not in the account
            }
            let s = sums.entry(e.tenant.as_str()).or_default();
            s.0 += served.receipt.conflicts;
            s.1 += served.receipt.steps;
            s.2 += served.receipt.fuel;
        }
    }
    for (tenant, account) in accounts {
        if !account.coherent() {
            report.error(
                SRV003,
                pass,
                tenant.clone(),
                "tenant account receipt fails its coherence check",
            );
            continue;
        }
        let (c, s, f) = sums.get(tenant.as_str()).copied().unwrap_or_default();
        // The account may hold *more* than the fully-settled sum: the
        // refusing settlement consumed headroom up to the limit. Holding
        // less than what was settled is impossible for an honest meter.
        if account.conflicts < c || account.steps < s || account.fuel < f {
            report.error(
                SRV003,
                pass,
                tenant.clone(),
                format!(
                    "account holds ({}, {}, {}) but settled receipts sum to ({c}, {s}, {f})",
                    account.conflicts, account.steps, account.fuel
                ),
            );
        }
    }
    for tenant in sums.keys() {
        if !accounts.contains_key(*tenant) {
            report.error(
                SRV003,
                pass,
                tenant.to_string(),
                "receipts were settled for a tenant with no account",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{FigJob, JobCommon, JobSpec};
    use crate::server::ServedRecord;
    use sciduction::{Budget, BudgetMeter};

    fn served_entry(tenant: &str, id: u64, verdict: &str) -> TranscriptEntry {
        let mut meter = BudgetMeter::new(Budget::UNLIMITED);
        meter.charge_step_batch(2).unwrap();
        TranscriptEntry {
            id,
            tenant: tenant.to_string(),
            spec: JobSpec::Fig(FigJob {
                name: "fig8_p1_equiv_w8".into(),
                proof: false,
                common: JobCommon {
                    threads: 1,
                    ..JobCommon::default()
                },
            }),
            admitted: true,
            served: Some(ServedRecord {
                verdict: verdict.to_string(),
                receipt: meter.receipt(),
                settled: true,
            }),
        }
    }

    #[test]
    fn clean_transcripts_stay_clean_and_corrupt_ones_are_flagged() {
        let entries = vec![served_entry("a", 1, "unsat"), served_entry("b", 1, "unsat")];
        let mut accounts = HashMap::new();
        for t in ["a", "b"] {
            let mut m = BudgetMeter::new(Budget::UNLIMITED);
            m.charge_step_batch(2).unwrap();
            accounts.insert(t.to_string(), m.receipt());
        }
        let mut report = Report::new();
        audit_transcript(&entries, "test", &mut report);
        audit_admission_accounts(&entries, &accounts, "test", &mut report);
        assert!(report.is_clean(), "{report:?}");

        // Same (tenant, id) twice → SRV001.
        let dup = vec![served_entry("a", 1, "unsat"), served_entry("a", 1, "unsat")];
        let mut report = Report::new();
        audit_transcript(&dup, "test", &mut report);
        assert!(report.has_code(SRV001), "{report:?}");

        // Served without admission → SRV001.
        let mut ghost = served_entry("a", 2, "unsat");
        ghost.admitted = false;
        let mut report = Report::new();
        audit_transcript(&[ghost], "test", &mut report);
        assert!(report.has_code(SRV001));

        // Account short of its settled receipts → SRV003.
        let mut report = Report::new();
        let mut short = HashMap::new();
        short.insert(
            "a".to_string(),
            BudgetMeter::new(Budget::UNLIMITED).receipt(),
        );
        short.insert(
            "b".to_string(),
            *accounts.get("b").expect("b has an account"),
        );
        audit_admission_accounts(&entries, &short, "test", &mut report);
        assert!(report.has_code(SRV003), "{report:?}");
    }

    #[test]
    fn verdict_divergence_is_flagged_and_agreement_is_not() {
        let honest = vec![served_entry("a", 1, "unsat")];
        let mut report = Report::new();
        audit_served_verdicts(&honest, "test", &mut report);
        assert!(report.is_clean(), "{report:?}");

        let forged = vec![served_entry("a", 2, "sat")];
        let mut report = Report::new();
        audit_served_verdicts(&forged, "test", &mut report);
        assert!(report.has_code(SRV002), "{report:?}");
    }

    #[test]
    fn budgeted_cache_hit_audits_clean_after_its_unbudgeted_twin() {
        let budgeted = |id: u64| {
            let mut e = served_entry("b", id, "unsat");
            let JobSpec::Fig(j) = &mut e.spec else {
                unreachable!("served_entry builds a fig job")
            };
            j.common.budget = Budget {
                conflicts: 1,
                ..Budget::UNLIMITED
            };
            e
        };
        // On its own the budgeted query starves; the server answered it
        // `unsat` from the cache its unbudgeted twin had filled.
        let alone = Engine::new(None)
            .execute("alone", &budgeted(0).spec)
            .expect("executes");
        assert!(alone.verdict.starts_with("unknown"), "{}", alone.verdict);
        let entries = vec![
            served_entry("a", 0, "unsat"),
            budgeted(1),
            budgeted(2),
            budgeted(3),
        ];
        for _ in 0..3 {
            let mut report = Report::new();
            audit_served_verdicts(&entries, "test", &mut report);
            assert!(report.diagnostics().is_empty(), "{report:?}");
        }
    }

    #[test]
    fn parallel_replay_reports_in_transcript_order() {
        use sciduction::Exhausted;
        use sciduction_analysis::Severity;

        let degraded = |id: u64| {
            let cause = Exhausted::Faulted { site: 0 };
            let mut e = served_entry("deg", id, &format!("unknown: {cause}"));
            e.served.as_mut().expect("served").receipt.cause = Some(cause);
            e
        };
        let unserved = |id: u64| TranscriptEntry {
            served: None,
            ..served_entry("idle", id, "unsat")
        };
        // Forged at 3 (a wrong definite verdict) and 9 (an `unknown`
        // whose receipt certifies no cause).
        let entries = vec![
            served_entry("a", 0, "unsat"),
            unserved(1),
            degraded(2),
            served_entry("b", 3, "sat"),
            served_entry("a", 4, "unsat"),
            unserved(5),
            served_entry("a", 6, "unsat"),
            degraded(7),
            served_entry("a", 8, "unsat"),
            served_entry("c", 9, "unknown: faulted at site 0"),
            served_entry("a", 10, "unsat"),
            served_entry("a", 11, "unsat"),
        ];
        let run = || {
            let mut report = Report::new();
            audit_served_verdicts(&entries, "test", &mut report);
            report
        };
        let report = run();
        assert_eq!(report.count(Severity::Error), 2, "{report:?}");
        let flagged: Vec<(&str, &str)> = report
            .diagnostics()
            .iter()
            .map(|d| (d.code, d.location.as_str()))
            .collect();
        assert_eq!(
            flagged,
            [
                (SRV002, location(&entries[3]).as_str()),
                (SRV002, location(&entries[9]).as_str()),
            ]
        );
        for _ in 0..3 {
            assert_eq!(run().diagnostics(), report.diagnostics());
        }
    }
}
