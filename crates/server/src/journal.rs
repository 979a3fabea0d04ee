//! The server job WAL: a durable admit/settle/respond journal over
//! [`RecordLog`], so a restarted `scid-server` recovers its transcript,
//! its tenant accounts, and its job sequence from `--state-dir`
//! (DESIGN.md §4.18).
//!
//! One record per state transition, keyed by the server-unique job
//! sequence number:
//!
//! * **admit** — the job passed admission; carries tenant, client id,
//!   and the (budget-clamped) spec, so `SRV002` can re-execute exactly
//!   what the worker ran.
//! * **settle** — the job finished; carries the verdict, the *lossless*
//!   receipt, and whether the receipt was charged into the tenant
//!   account.
//! * **respond** — the response line was handed to the client socket.
//! * **shed** — the job will never settle: shed under overload
//!   (`EBUSY`), failed (`EJOB`/`EINTERNAL`), or refused on recovery
//!   (an orphaned in-flight job is deterministically *refused*, never
//!   silently re-run — the client resubmits).
//!
//! [`replay`] folds a recovered record stream back into transcript
//! entries and tenant accounts, reporting every state-machine violation
//! (settle without admit, duplicate settle, respond without settle) as
//! `DUR003` — a forged or double-charging journal refuses to start the
//! server rather than mischarge a tenant.
//!
//! [`RecordLog`]: sciduction::persist::RecordLog

use crate::jobs::JobSpec;
use crate::server::{ServedRecord, TranscriptEntry};
use sciduction::exec::{lock_ignoring_poison, FaultKind, FaultPlan};
use sciduction::json::{self, Value};
use sciduction::persist::{RecordLog, Recovery};
use sciduction::{Budget, BudgetMeter, BudgetReceipt, Exhausted};
use sciduction_analysis::codes::{DUR001, DUR003};
use sciduction_analysis::Report;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The WAL's on-disk generation; bump on any incompatible record-shape
/// change so stale journals reset instead of misreplaying.
pub const WAL_GENERATION: u64 = 1;

/// One journal record (see the module docs for the state machine).
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// The job passed admission and entered the queue.
    Admit {
        /// Server-unique job sequence number.
        seq: u64,
        /// Billed tenant.
        tenant: String,
        /// Client-chosen correlation id.
        id: u64,
        /// The budget-clamped spec the worker will execute.
        spec: JobSpec,
    },
    /// The job finished and its receipt was (maybe) charged.
    Settle {
        /// Server-unique job sequence number.
        seq: u64,
        /// The canonical verdict string served.
        verdict: String,
        /// What the job spent.
        receipt: BudgetReceipt,
        /// Whether the receipt was settled into the tenant account.
        settled: bool,
    },
    /// The response line was written toward the client.
    Respond {
        /// Server-unique job sequence number.
        seq: u64,
    },
    /// The job will never settle (shed, failed, or refused on recovery).
    Shed {
        /// Server-unique job sequence number.
        seq: u64,
    },
}

impl WalRecord {
    /// Renders this record as its JSON payload. Every `u64` rides as a
    /// decimal string, so `u64::MAX` (the unlimited sentinel) and
    /// full-range counters survive — the wire protocol's lossy
    /// `null`-for-unrepresentable rendering is *not* acceptable in a
    /// journal that must replay bit-exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let v = match self {
            WalRecord::Admit {
                seq,
                tenant,
                id,
                spec,
            } => json::obj(vec![
                ("t", Value::Str("admit".into())),
                ("seq", u64_lossless(*seq)),
                ("tenant", Value::Str(tenant.clone())),
                ("id", u64_lossless(*id)),
                ("spec", spec.to_json()),
            ]),
            WalRecord::Settle {
                seq,
                verdict,
                receipt,
                settled,
            } => json::obj(vec![
                ("t", Value::Str("settle".into())),
                ("seq", u64_lossless(*seq)),
                ("verdict", Value::Str(verdict.clone())),
                ("receipt", receipt_lossless(receipt)),
                ("settled", Value::Bool(*settled)),
            ]),
            WalRecord::Respond { seq } => json::obj(vec![
                ("t", Value::Str("respond".into())),
                ("seq", u64_lossless(*seq)),
            ]),
            WalRecord::Shed { seq } => json::obj(vec![
                ("t", Value::Str("shed".into())),
                ("seq", u64_lossless(*seq)),
            ]),
        };
        v.to_string().into_bytes()
    }

    /// Parses a record payload back; `Err` carries the reason (these are
    /// `DUR001` material — the frame passed its CRC but is not a WAL
    /// record).
    pub fn from_bytes(bytes: &[u8]) -> Result<WalRecord, String> {
        let v = json::parse_bytes(bytes).map_err(|e| format!("bad JSON: {e}"))?;
        let tag = v
            .get("t")
            .and_then(Value::as_str)
            .ok_or("record needs a string \"t\" tag")?;
        let seq = parse_u64_field(&v, "seq")?;
        match tag {
            "admit" => Ok(WalRecord::Admit {
                seq,
                tenant: v
                    .get("tenant")
                    .and_then(Value::as_str)
                    .ok_or("admit needs a string \"tenant\"")?
                    .to_string(),
                id: parse_u64_field(&v, "id")?,
                spec: JobSpec::from_json(v.get("spec").ok_or("admit needs a \"spec\"")?)
                    .map_err(|e| format!("admit spec: {e}"))?,
            }),
            "settle" => Ok(WalRecord::Settle {
                seq,
                verdict: v
                    .get("verdict")
                    .and_then(Value::as_str)
                    .ok_or("settle needs a string \"verdict\"")?
                    .to_string(),
                receipt: parse_receipt(v.get("receipt").ok_or("settle needs a \"receipt\"")?)?,
                settled: v
                    .get("settled")
                    .and_then(Value::as_bool)
                    .ok_or("settle needs a boolean \"settled\"")?,
            }),
            "respond" => Ok(WalRecord::Respond { seq }),
            "shed" => Ok(WalRecord::Shed { seq }),
            other => Err(format!("unknown record tag {other:?}")),
        }
    }
}

fn u64_lossless(n: u64) -> Value {
    Value::Str(n.to_string())
}

fn parse_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::Str(s) => s.parse::<u64>().map_err(|e| format!("bad u64 {s:?}: {e}")),
        other => Err(format!("u64 must ride as a decimal string, got {other}")),
    }
}

fn parse_u64_field(v: &Value, key: &str) -> Result<u64, String> {
    parse_u64(v.get(key).ok_or_else(|| format!("missing \"{key}\""))?)
        .map_err(|e| format!("\"{key}\": {e}"))
}

/// A [`BudgetReceipt`] with nothing dropped: every counter and limit as
/// a decimal string, the cause structurally encoded (the wire protocol's
/// `receipt_json` flattens the cause to display text and `null`s
/// unrepresentable numbers, which cannot replay).
pub(crate) fn receipt_lossless(r: &BudgetReceipt) -> Value {
    json::obj(vec![
        (
            "budget",
            json::obj(vec![
                ("conflicts", u64_lossless(r.budget.conflicts)),
                ("steps", u64_lossless(r.budget.steps)),
                ("fuel", u64_lossless(r.budget.fuel)),
                ("deadline", u64_lossless(r.budget.deadline)),
            ]),
        ),
        ("conflicts", u64_lossless(r.conflicts)),
        ("steps", u64_lossless(r.steps)),
        ("fuel", u64_lossless(r.fuel)),
        ("clock", u64_lossless(r.clock)),
        (
            "cause",
            match &r.cause {
                None => Value::Null,
                Some(c) => cause_lossless(c),
            },
        ),
    ])
}

fn cause_lossless(c: &Exhausted) -> Value {
    match c {
        Exhausted::Conflicts { limit, spent } => json::obj(vec![
            ("kind", Value::Str("conflicts".into())),
            ("limit", u64_lossless(*limit)),
            ("spent", u64_lossless(*spent)),
        ]),
        Exhausted::Steps { limit, spent } => json::obj(vec![
            ("kind", Value::Str("steps".into())),
            ("limit", u64_lossless(*limit)),
            ("spent", u64_lossless(*spent)),
        ]),
        Exhausted::Fuel { limit, spent } => json::obj(vec![
            ("kind", Value::Str("fuel".into())),
            ("limit", u64_lossless(*limit)),
            ("spent", u64_lossless(*spent)),
        ]),
        Exhausted::Deadline { limit, clock } => json::obj(vec![
            ("kind", Value::Str("deadline".into())),
            ("limit", u64_lossless(*limit)),
            ("clock", u64_lossless(*clock)),
        ]),
        Exhausted::Injected { seed, kind, site } => json::obj(vec![
            ("kind", Value::Str("injected".into())),
            ("seed", u64_lossless(*seed)),
            ("fault", Value::Str(kind.to_string())),
            ("site", u64_lossless(*site)),
        ]),
        Exhausted::Cancelled => json::obj(vec![("kind", Value::Str("cancelled".into()))]),
        Exhausted::Faulted { site } => json::obj(vec![
            ("kind", Value::Str("faulted".into())),
            ("site", u64_lossless(*site)),
        ]),
    }
}

pub(crate) fn parse_receipt(v: &Value) -> Result<BudgetReceipt, String> {
    let b = v.get("budget").ok_or("receipt needs a \"budget\"")?;
    Ok(BudgetReceipt {
        budget: Budget {
            conflicts: parse_u64_field(b, "conflicts")?,
            steps: parse_u64_field(b, "steps")?,
            fuel: parse_u64_field(b, "fuel")?,
            deadline: parse_u64_field(b, "deadline")?,
        },
        conflicts: parse_u64_field(v, "conflicts")?,
        steps: parse_u64_field(v, "steps")?,
        fuel: parse_u64_field(v, "fuel")?,
        clock: parse_u64_field(v, "clock")?,
        cause: match v.get("cause") {
            None | Some(Value::Null) => None,
            Some(c) => Some(parse_cause(c)?),
        },
    })
}

fn parse_cause(v: &Value) -> Result<Exhausted, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("cause needs a string \"kind\"")?;
    match kind {
        "conflicts" => Ok(Exhausted::Conflicts {
            limit: parse_u64_field(v, "limit")?,
            spent: parse_u64_field(v, "spent")?,
        }),
        "steps" => Ok(Exhausted::Steps {
            limit: parse_u64_field(v, "limit")?,
            spent: parse_u64_field(v, "spent")?,
        }),
        "fuel" => Ok(Exhausted::Fuel {
            limit: parse_u64_field(v, "limit")?,
            spent: parse_u64_field(v, "spent")?,
        }),
        "deadline" => Ok(Exhausted::Deadline {
            limit: parse_u64_field(v, "limit")?,
            clock: parse_u64_field(v, "clock")?,
        }),
        "injected" => {
            let name = v
                .get("fault")
                .and_then(Value::as_str)
                .ok_or("injected cause needs a string \"fault\"")?;
            let fault = FaultKind::ALL
                .into_iter()
                .find(|k| k.to_string() == name)
                .ok_or_else(|| format!("unknown fault kind {name:?}"))?;
            Ok(Exhausted::Injected {
                seed: parse_u64_field(v, "seed")?,
                kind: fault,
                site: parse_u64_field(v, "site")?,
            })
        }
        "cancelled" => Ok(Exhausted::Cancelled),
        "faulted" => Ok(Exhausted::Faulted {
            site: parse_u64_field(v, "site")?,
        }),
        other => Err(format!("unknown cause kind {other:?}")),
    }
}

/// The durable job journal: a thread-safe appender over a [`RecordLog`].
/// Appends are best-effort by design — an injected durability fault (or
/// a real disk failure) kills the *writer*, never the serving path; the
/// suffix simply won't survive a restart, exactly like a SIGKILL between
/// two writes.
#[derive(Debug)]
pub struct Wal {
    log: Mutex<RecordLog>,
}

impl Wal {
    /// Opens (creating if missing) the journal at `path`, returning the
    /// raw frame recovery for [`decode_records`] + [`replay`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Wal, Recovery)> {
        let (log, recovery) = RecordLog::open(path, WAL_GENERATION)?;
        Ok((
            Wal {
                log: Mutex::new(log),
            },
            recovery,
        ))
    }

    /// Attaches a seeded durability fault plan to the writer.
    pub fn with_fault_plan(self, plan: Arc<FaultPlan>) -> Wal {
        let log = self.log.into_inner().unwrap_or_else(|p| p.into_inner());
        Wal {
            log: Mutex::new(log.with_fault_plan(plan)),
        }
    }

    /// Appends one record; returns whether it is durable.
    pub fn record(&self, rec: &WalRecord) -> bool {
        lock_ignoring_poison(&self.log)
            .append(&rec.to_bytes())
            .unwrap_or(false)
    }

    /// Whether an injected durability fault has killed the writer.
    pub fn is_dead(&self) -> bool {
        lock_ignoring_poison(&self.log).is_dead()
    }

    /// Forces appended records to the OS.
    pub fn sync(&self) -> io::Result<()> {
        lock_ignoring_poison(&self.log).sync()
    }
}

/// Decodes recovered frames into records. A frame that survived the
/// CRC gate but does not parse as a record is reported as `DUR001` —
/// framing said it was written whole, so an undecodable payload means a
/// writer bug or a forged file, and recovery must refuse rather than
/// guess.
pub fn decode_records(
    frames: &[Vec<u8>],
    pass: &'static str,
    report: &mut Report,
) -> Vec<WalRecord> {
    let mut records = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        match WalRecord::from_bytes(frame) {
            Ok(r) => records.push(r),
            Err(e) => report.error(
                DUR001,
                pass,
                format!("wal frame {i}"),
                format!("CRC-valid frame does not decode as a WAL record: {e}"),
            ),
        }
    }
    records
}

/// What [`replay`] rebuilt from a recovered journal.
pub struct Replayed {
    /// The recovered transcript, in job-sequence order. Settled jobs
    /// carry their [`ServedRecord`]; orphaned in-flight jobs (admitted,
    /// never settled or shed — the writer died or the process was
    /// killed mid-job) appear admitted with nothing served.
    pub entries: Vec<TranscriptEntry>,
    /// Per-tenant meters rebuilt by re-charging every `settled: true`
    /// receipt in sequence order against `tenant_budget` — the
    /// double-charge refusal: a receipt is charged exactly once no
    /// matter how many times the server restarts.
    pub accounts: HashMap<String, BudgetMeter>,
    /// The next job sequence number (max recovered + 1).
    pub next_seq: u64,
    /// Sequence numbers of orphaned in-flight jobs. The server refuses
    /// them deterministically on recovery (sheds them in the journal),
    /// so a second restart sees them closed.
    pub orphaned: Vec<u64>,
}

/// Folds a record stream through the admit/settle/respond state machine.
/// Violations — settlement without admission (a forged settlement),
/// duplicate admission or settlement (a double charge), response without
/// settlement, or a settled receipt that no longer fits its tenant's
/// account — are reported as `DUR003` errors; the caller refuses to
/// serve from a journal that produced any.
pub fn replay(
    records: &[WalRecord],
    tenant_budget: Budget,
    pass: &'static str,
    report: &mut Report,
) -> Replayed {
    struct Pending {
        tenant: String,
        id: u64,
        spec: JobSpec,
        served: Option<ServedRecord>,
        shed: bool,
        responded: bool,
    }
    let mut jobs: BTreeMap<u64, Pending> = BTreeMap::new();
    for rec in records {
        match rec {
            WalRecord::Admit {
                seq,
                tenant,
                id,
                spec,
            } => {
                if jobs.contains_key(seq) {
                    report.error(
                        DUR003,
                        pass,
                        format!("job seq {seq}"),
                        "admitted twice (duplicate sequence number)",
                    );
                    continue;
                }
                jobs.insert(
                    *seq,
                    Pending {
                        tenant: tenant.clone(),
                        id: *id,
                        spec: spec.clone(),
                        served: None,
                        shed: false,
                        responded: false,
                    },
                );
            }
            WalRecord::Settle {
                seq,
                verdict,
                receipt,
                settled,
            } => match jobs.get_mut(seq) {
                None => report.error(
                    DUR003,
                    pass,
                    format!("job seq {seq}"),
                    "settlement without admission (forged settlement)",
                ),
                Some(p) if p.served.is_some() => report.error(
                    DUR003,
                    pass,
                    format!("{}#{} (seq {seq})", p.tenant, p.id),
                    "settled twice (double charge)",
                ),
                Some(p) if p.shed => report.error(
                    DUR003,
                    pass,
                    format!("{}#{} (seq {seq})", p.tenant, p.id),
                    "settled after being shed",
                ),
                Some(p) => {
                    p.served = Some(ServedRecord {
                        verdict: verdict.clone(),
                        receipt: *receipt,
                        settled: *settled,
                    });
                }
            },
            WalRecord::Respond { seq } => match jobs.get_mut(seq) {
                None => report.error(
                    DUR003,
                    pass,
                    format!("job seq {seq}"),
                    "response without admission",
                ),
                Some(p) if p.served.is_none() && !p.shed => report.error(
                    DUR003,
                    pass,
                    format!("{}#{} (seq {seq})", p.tenant, p.id),
                    "response without settlement",
                ),
                Some(p) => p.responded = true,
            },
            WalRecord::Shed { seq } => match jobs.get_mut(seq) {
                None => report.error(
                    DUR003,
                    pass,
                    format!("job seq {seq}"),
                    "shed without admission",
                ),
                Some(p) if p.served.is_some() => report.error(
                    DUR003,
                    pass,
                    format!("{}#{} (seq {seq})", p.tenant, p.id),
                    "shed after settlement",
                ),
                Some(p) => p.shed = true,
            },
        }
    }

    let mut accounts: HashMap<String, BudgetMeter> = HashMap::new();
    let mut entries = Vec::with_capacity(jobs.len());
    let mut orphaned = Vec::new();
    let next_seq = jobs.keys().next_back().map_or(0, |&s| s + 1);
    for (seq, p) in jobs {
        if let Some(served) = &p.served {
            if served.settled {
                let meter = accounts
                    .entry(p.tenant.clone())
                    .or_insert_with(|| BudgetMeter::new(tenant_budget));
                if meter.charge_receipt(&served.receipt).is_err() {
                    report.error(
                        DUR003,
                        pass,
                        format!("{}#{} (seq {seq})", p.tenant, p.id),
                        "replayed settled receipt no longer fits the tenant \
                         account (budget shrank or journal forged)",
                    );
                }
            }
        } else if !p.shed {
            orphaned.push(seq);
        }
        entries.push(TranscriptEntry {
            id: p.id,
            tenant: p.tenant,
            spec: p.spec,
            // A shed job never entered the worker pool as chargeable
            // work; recovery records it as not admitted so the SRV
            // audits don't expect a serving for it.
            admitted: !p.shed,
            served: p.served,
        });
    }
    Replayed {
        entries,
        accounts,
        next_seq,
        orphaned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{FigJob, JobCommon};
    use sciduction_analysis::codes::DUR003 as D3;

    fn fig_spec() -> JobSpec {
        JobSpec::Fig(FigJob {
            name: "fig8_p1_equiv_w8".into(),
            proof: false,
            common: JobCommon {
                threads: 1,
                fault_seed: Some(3),
                budget: Budget::with_deadline(1_000_000),
            },
        })
    }

    fn receipt(steps: u64) -> BudgetReceipt {
        let mut m = BudgetMeter::new(Budget::UNLIMITED);
        m.charge_step_batch(steps).unwrap();
        m.receipt()
    }

    #[test]
    fn records_roundtrip_losslessly_including_extreme_receipts() {
        let mut exhausted = BudgetMeter::new(Budget::with_fuel(2));
        let _ = exhausted.charge_fuel_batch(5);
        let records = vec![
            WalRecord::Admit {
                seq: 0,
                tenant: "acme".into(),
                id: u64::MAX >> 1,
                spec: fig_spec(),
            },
            WalRecord::Settle {
                seq: 0,
                verdict: "unsat".into(),
                receipt: receipt(17),
                settled: true,
            },
            WalRecord::Settle {
                seq: 1,
                verdict: "unknown: fuel budget exhausted (2/2)".into(),
                receipt: exhausted.receipt(),
                settled: false,
            },
            WalRecord::Settle {
                seq: 2,
                verdict: "unknown".into(),
                receipt: BudgetReceipt {
                    budget: Budget::UNLIMITED,
                    conflicts: u64::MAX - 1,
                    steps: 0,
                    fuel: 0,
                    clock: u64::MAX - 1,
                    cause: Some(Exhausted::Injected {
                        seed: u64::MAX,
                        kind: FaultKind::ProcessKill,
                        site: 42,
                    }),
                },
                settled: false,
            },
            WalRecord::Respond { seq: 0 },
            WalRecord::Shed { seq: 3 },
        ];
        for rec in &records {
            let back = WalRecord::from_bytes(&rec.to_bytes()).expect("roundtrip");
            assert_eq!(&back, rec);
        }
        assert!(WalRecord::from_bytes(b"{\"t\":\"warp\",\"seq\":\"0\"}").is_err());
        assert!(WalRecord::from_bytes(b"not json").is_err());
    }

    #[test]
    fn sat_admit_record_bytes_are_pinned() {
        // The journal text of a SAT admission, pinned literally: a change
        // to how SAT specs are stored must not move the WAL bytes that
        // SRV002 replays.
        let text = r#"{"t":"admit","seq":"7","tenant":"acme","id":"42","spec":{"kind":"sat","num_vars":3,"clauses":[[1,-2],[],[3,3,-1],[-3]],"proof":true,"threads":1,"fault_seed":5,"budget":{"conflicts":50}}}"#;
        let rec = WalRecord::from_bytes(text.as_bytes()).expect("pinned record parses");
        assert!(matches!(
            &rec,
            WalRecord::Admit {
                seq: 7,
                spec: JobSpec::Sat(_),
                ..
            }
        ));
        assert_eq!(String::from_utf8(rec.to_bytes()).unwrap(), text);
    }

    #[test]
    fn replay_rebuilds_transcript_accounts_and_orphans() {
        let records = vec![
            WalRecord::Admit {
                seq: 0,
                tenant: "a".into(),
                id: 1,
                spec: fig_spec(),
            },
            WalRecord::Settle {
                seq: 0,
                verdict: "unsat".into(),
                receipt: receipt(10),
                settled: true,
            },
            WalRecord::Respond { seq: 0 },
            // Shed under overload: never charged.
            WalRecord::Admit {
                seq: 1,
                tenant: "b".into(),
                id: 1,
                spec: fig_spec(),
            },
            WalRecord::Shed { seq: 1 },
            // In-flight at the crash: admitted, nothing else.
            WalRecord::Admit {
                seq: 2,
                tenant: "a".into(),
                id: 2,
                spec: fig_spec(),
            },
        ];
        let mut report = Report::new();
        let r = replay(&records, Budget::UNLIMITED, "test", &mut report);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(r.next_seq, 3);
        assert_eq!(r.orphaned, vec![2]);
        assert_eq!(r.entries.len(), 3);
        assert!(r.entries[0].served.as_ref().is_some_and(|s| s.settled));
        assert!(!r.entries[1].admitted, "shed job is not chargeable work");
        assert!(r.entries[2].admitted && r.entries[2].served.is_none());
        let a = r.accounts.get("a").expect("tenant a charged");
        assert_eq!(a.receipt().steps, 10);
        assert!(!r.accounts.contains_key("b"), "shed tenants uncharged");

        // Replaying the same journal again yields the same accounts —
        // the double-charge refusal across arbitrarily many restarts.
        let mut report = Report::new();
        let again = replay(&records, Budget::UNLIMITED, "test", &mut report);
        assert_eq!(again.accounts.get("a").unwrap().receipt().steps, 10);
    }

    #[test]
    fn forged_and_double_charging_journals_are_refused() {
        let admit = WalRecord::Admit {
            seq: 0,
            tenant: "a".into(),
            id: 1,
            spec: fig_spec(),
        };
        let settle = WalRecord::Settle {
            seq: 0,
            verdict: "unsat".into(),
            receipt: receipt(5),
            settled: true,
        };
        // Forged settlement: no admission anywhere.
        let mut report = Report::new();
        replay(
            std::slice::from_ref(&settle),
            Budget::UNLIMITED,
            "test",
            &mut report,
        );
        assert!(report.has_code(D3), "{report:?}");

        // Duplicate settlement = double charge.
        let mut report = Report::new();
        replay(
            &[admit.clone(), settle.clone(), settle.clone()],
            Budget::UNLIMITED,
            "test",
            &mut report,
        );
        assert!(report.has_code(D3), "{report:?}");

        // Response without settlement.
        let mut report = Report::new();
        replay(
            &[admit.clone(), WalRecord::Respond { seq: 0 }],
            Budget::UNLIMITED,
            "test",
            &mut report,
        );
        assert!(report.has_code(D3), "{report:?}");

        // A settled receipt that no longer fits the (shrunken) budget.
        let mut report = Report::new();
        replay(&[admit, settle], Budget::with_steps(1), "test", &mut report);
        assert!(report.has_code(D3), "{report:?}");
    }

    #[test]
    fn wal_survives_reopen_and_decode_reports_undecodable_frames() {
        let path =
            std::env::temp_dir().join(format!("sciduction-wal-test-{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();
        let admit = WalRecord::Admit {
            seq: 0,
            tenant: "a".into(),
            id: 1,
            spec: fig_spec(),
        };
        {
            let (wal, rec) = Wal::open(&path).unwrap();
            assert!(rec.records.is_empty());
            assert!(wal.record(&admit));
            wal.sync().unwrap();
        }
        let (_, rec) = Wal::open(&path).unwrap();
        let mut report = Report::new();
        let records = decode_records(&rec.records, "test", &mut report);
        assert!(report.is_clean());
        assert_eq!(records, vec![admit]);

        // A CRC-valid but non-record frame is DUR001.
        let mut report = Report::new();
        let records = decode_records(&[b"{\"t\":1}".to_vec()], "test", &mut report);
        assert!(records.is_empty());
        assert!(report.has_code(DUR001), "{report:?}");
        std::fs::remove_file(&path).ok();
    }
}
