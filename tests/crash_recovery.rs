//! Crash-recovery suite for the durability tier (DESIGN.md §4.18): the
//! cache-tier and job-WAL writers are killed at every fault site the
//! seeded plan reaches — torn final frame, short write, process-style
//! kill — while fig6/fig8/fig10 traffic is served; then the server is
//! restarted fault-free against whatever bytes survived.
//!
//! The contract, per case in the kind × seed × thread matrix:
//!
//! * **Verdicts never change.** Durability faults kill writers, not
//!   solvers: every verdict served while the writers are dying — and
//!   every verdict re-served after recovery — is bit-identical to a
//!   cold direct-library run of the same workload.
//! * **Recovery refuses corruption, silently truncates torn tails.**
//!   The fault-free restart must come up (its replay + SRV/DUR audit
//!   pass found nothing wrong), and no recovered record may surface a
//!   verdict the library would not produce.
//! * **Nothing is double-charged.** The restarted tenant account must
//!   equal the sum of recovered settled receipts plus what the new run
//!   settled — a receipt is charged exactly once across restarts.
//! * **The on-disk artifacts end clean.** After a graceful stop the
//!   cache log and job WAL must scan with zero `DUR` diagnostics, and a
//!   third start must replay them idempotently.

use sciduction::exec::{FaultKind, FaultPlan};
use sciduction::json::{self, Value};
use sciduction::Budget;
use sciduction_analysis::passes::audit_record_log;
use sciduction_analysis::Report;
use sciduction_sat::{solve_portfolio, Cnf, PortfolioConfig};
use sciduction_server::server::CACHE_GENERATION;
use sciduction_server::{Client, JobSpec, Server, ServerConfig, WAL_GENERATION};
use sciduction_smt::{Solver as SmtSolver, TermId};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const FIG_NAMES: [&str; 5] = [
    "fig6_crc8_infeasible_path",
    "fig6_crc8_feasible_path",
    "fig8_p1_equiv_w8",
    "fig8_p2_equiv_w8",
    "fig10_mode_exclusion",
];

const TENANT: &str = "crash";

/// Fault seeds and job thread counts (trimmed in debug builds, where the
/// full cross is needlessly slow for tier-1).
fn matrix() -> (&'static [u64], &'static [usize]) {
    if cfg!(debug_assertions) {
        (&[1], &[1, 2])
    } else {
        (&[1, 2], &[1, 2, 4])
    }
}

// ---------------------------------------------------------------------------
// The cold direct-library reference (written independently of the server)
// ---------------------------------------------------------------------------

/// The fig10 pigeonhole instance (7 modes, 6 exclusive actuation slots),
/// reconstructed here so the comparison does not lean on server code.
fn mode_exclusion(n: usize, m: usize) -> Cnf {
    let var = |i: usize, j: usize| (i * m + j + 1) as i64;
    let mut clauses: Vec<Vec<i64>> = (0..n)
        .map(|i| (0..m).map(|j| var(i, j)).collect())
        .collect();
    for i1 in 0..n {
        for i2 in (i1 + 1)..n {
            for j in 0..m {
                clauses.push(vec![-var(i1, j), -var(i2, j)]);
            }
        }
    }
    Cnf {
        num_vars: n * m,
        clauses,
    }
}

/// Rebuilds the named fig6/fig8 SMT query.
fn fig_query(s: &mut SmtSolver, name: &str) -> Vec<TermId> {
    match name {
        "fig6_crc8_infeasible_path" | "fig6_crc8_feasible_path" => {
            use sciduction_cfg::{path_formula, unroll, Dag};
            let f = sciduction_ir::programs::crc8();
            let dag = Dag::build(unroll(&f, 8)).expect("crc8 unrolls");
            let paths = dag.enumerate_paths(1000);
            let path = if name == "fig6_crc8_infeasible_path" {
                paths.iter().min_by_key(|p| p.edges.len())
            } else {
                paths.iter().max_by_key(|p| p.edges.len())
            }
            .expect("crc8 DAG has paths");
            path_formula(s, &dag, path).constraints
        }
        "fig8_p1_equiv_w8" => {
            let p = s.terms_mut();
            let x = p.var("x", 8);
            let one = p.bv(1, 8);
            let zero = p.bv(0, 8);
            let xm1 = p.bv_sub(x, one);
            let spec = p.bv_and(x, xm1);
            let negx = p.bv_sub(zero, x);
            let iso = p.bv_and(x, negx);
            let cand = p.bv_sub(x, iso);
            vec![p.neq(spec, cand)]
        }
        "fig8_p2_equiv_w8" => {
            let p = s.terms_mut();
            let x = p.var("x", 8);
            let k45 = p.bv(45, 8);
            let spec = p.bv_mul(x, k45);
            let s5 = p.bv(5, 8);
            let s3 = p.bv(3, 8);
            let s2 = p.bv(2, 8);
            let t5 = p.bv_shl(x, s5);
            let t3 = p.bv_shl(x, s3);
            let t2 = p.bv_shl(x, s2);
            let sum = p.bv_add(t5, t3);
            let sum = p.bv_add(sum, t2);
            let cand = p.bv_add(sum, x);
            vec![p.neq(spec, cand)]
        }
        other => panic!("unknown workload {other}"),
    }
}

/// The cold (no server, no shared cache) verdict string for a workload.
fn direct_verdict(name: &str) -> String {
    if name == "fig10_mode_exclusion" {
        let outcome = solve_portfolio(&mode_exclusion(7, 6), &[], &PortfolioConfig::default())
            .expect("portfolio degrades, never errors");
        return outcome.verdict.to_string();
    }
    let mut s = SmtSolver::new();
    for t in fig_query(&mut s, name) {
        s.assert_term(t);
    }
    s.check_bounded(&Budget::UNLIMITED).to_string()
}

// ---------------------------------------------------------------------------
// Harness helpers
// ---------------------------------------------------------------------------

fn fig_job(name: &str, threads: usize) -> Value {
    json::obj(vec![
        ("kind", Value::Str("fig".into())),
        ("name", Value::Str(name.into())),
        ("threads", Value::Int(threads as i64)),
        ("proof", Value::Bool(false)),
    ])
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr(), Duration::from_secs(300)).expect("client connects")
}

fn served_verdict(resp: &Value, tag: &str) -> String {
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{tag}: expected a done frame, got {resp}"
    );
    resp.get("verdict")
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{tag}: done frame without a verdict: {resp}"))
        .to_string()
}

fn state_dir(kind: FaultKind, seed: u64, threads: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "scid-crash-{}-{kind}-{seed}-t{threads}",
        std::process::id()
    ))
}

fn durable_config(dir: &Path, threads: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: threads,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Sum of settled receipt clocks across a transcript slice.
fn settled_clock(entries: &[sciduction_server::TranscriptEntry]) -> u64 {
    entries
        .iter()
        .filter_map(|e| e.served.as_ref())
        .filter(|s| s.settled)
        .map(|s| s.receipt.clock)
        .sum()
}

fn expected_for(spec: &JobSpec, expected: &[(&str, String)]) -> Option<String> {
    let JobSpec::Fig(fig) = spec else { return None };
    expected
        .iter()
        .find(|(name, _)| *name == fig.name)
        .map(|(_, v)| v.clone())
}

// ---------------------------------------------------------------------------
// The kill-anywhere matrix
// ---------------------------------------------------------------------------

fn run_case(kind: FaultKind, seed: u64, threads: usize, expected: &[(&str, String)]) {
    let tag = format!("{kind}/seed{seed}/t{threads}");
    let dir = state_dir(kind, seed, threads);
    let _ = std::fs::remove_dir_all(&dir);

    // Phase A: serve two rounds of every fig workload while the seeded
    // plan kills the cache-tier and WAL writers mid-append.
    let mut config = durable_config(&dir, threads);
    config.durability_faults = Some(Arc::new(FaultPlan::targeting(seed, kind)));
    let mut server = Server::start(config).unwrap_or_else(|e| panic!("{tag}: fresh start: {e}"));
    {
        let mut client = connect(&server);
        for round in 0..2 {
            for (name, want) in expected {
                let resp = client
                    .request(TENANT, fig_job(name, threads))
                    .unwrap_or_else(|e| panic!("{tag}: round {round} {name}: {e}"));
                assert_eq!(
                    &served_verdict(&resp, &tag),
                    want,
                    "{tag}: dying writers must never change the served verdict for {name}"
                );
            }
        }
    }
    server.stop();
    drop(server);

    // Phase B: fault-free restart against whatever bytes survived. The
    // recovery pass (replay + SRV/DUR audits) must find nothing wrong —
    // torn tails are truncated, never served.
    let mut server = Server::start(durable_config(&dir, threads))
        .unwrap_or_else(|e| panic!("{tag}: recovery refused a survivable crash: {e}"));
    for entry in server.recovered_transcript() {
        let Some(served) = &entry.served else {
            continue;
        };
        let want = expected_for(&entry.spec, expected)
            .unwrap_or_else(|| panic!("{tag}: recovered a job this test never sent: {entry:?}"));
        assert_eq!(
            served.verdict, want,
            "{tag}: a recovered settlement surfaced a corrupt verdict"
        );
    }
    let recovered_clock = settled_clock(server.recovered_transcript());
    {
        let mut client = connect(&server);
        for (name, want) in expected {
            let resp = client
                .request(TENANT, fig_job(name, threads))
                .unwrap_or_else(|e| panic!("{tag}: warm {name}: {e}"));
            assert_eq!(
                &served_verdict(&resp, &tag),
                want,
                "{tag}: the warm restart must serve {name} bit-identically to a cold run"
            );
        }
    }
    let live_clock = settled_clock(&server.transcript());
    let account = server
        .accounts()
        .get(TENANT)
        .cloned()
        .unwrap_or_else(|| panic!("{tag}: tenant account vanished across the restart"));
    assert_eq!(
        account.clock,
        recovered_clock + live_clock,
        "{tag}: tenant accounting must balance — every settled receipt charged exactly once"
    );
    server.stop();
    drop(server);

    // The artifacts end structurally clean: a graceful stop leaves both
    // logs scanning with zero DUR diagnostics.
    let mut report = Report::new();
    let cache_bytes =
        std::fs::read(dir.join("cache.log")).unwrap_or_else(|e| panic!("{tag}: cache.log: {e}"));
    audit_record_log(
        &cache_bytes,
        CACHE_GENERATION,
        "crash-recovery",
        &mut report,
    );
    let wal_bytes =
        std::fs::read(dir.join("jobs.wal")).unwrap_or_else(|e| panic!("{tag}: jobs.wal: {e}"));
    audit_record_log(&wal_bytes, WAL_GENERATION, "crash-recovery", &mut report);
    assert!(
        !report.has_errors(),
        "{tag}: artifacts corrupt after graceful stop: {report}"
    );

    // A third start replays the already-recovered journal idempotently.
    let mut server = Server::start(durable_config(&dir, threads))
        .unwrap_or_else(|e| panic!("{tag}: second recovery not idempotent: {e}"));
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_anywhere_recovery_matrix() {
    let expected: Vec<(&str, String)> = FIG_NAMES
        .iter()
        .map(|name| (*name, direct_verdict(name)))
        .collect();
    let (seeds, thread_counts) = matrix();
    for kind in FaultKind::DURABILITY {
        for &seed in seeds {
            for &threads in thread_counts {
                run_case(kind, seed, threads, &expected);
            }
        }
    }
}

/// An in-flight job at the kill is refused deterministically, not
/// silently re-run: recovery sheds it in the journal, the entry replays
/// un-admitted and uncharged, and a further restart sees it closed.
#[test]
fn orphaned_in_flight_jobs_are_refused_not_rerun() {
    use sciduction_server::{journal, Wal, WalRecord};

    let dir = std::env::temp_dir().join(format!("scid-crash-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state dir");

    // Forge the crash scene directly: an admitted job whose settlement
    // never made it to disk.
    {
        let (wal, _) = Wal::open(dir.join("jobs.wal")).expect("fresh wal");
        assert!(wal.record(&WalRecord::Admit {
            seq: 0,
            tenant: TENANT.into(),
            id: 1,
            spec: JobSpec::Fig(sciduction_server::FigJob {
                name: "fig8_p1_equiv_w8".into(),
                proof: false,
                common: sciduction_server::JobCommon::default(),
            }),
        }));
        wal.sync().expect("sync");
    }

    // Recovery closes the orphan: replayed un-admitted, nothing charged.
    let mut server =
        Server::start(durable_config(&dir, 1)).expect("orphaned journal recovers cleanly");
    assert_eq!(server.recovered_transcript().len(), 1);
    let entry = &server.recovered_transcript()[0];
    assert!(!entry.admitted, "orphan must be refused, not re-run");
    assert!(entry.served.is_none());
    server.stop();
    drop(server);

    // The shed record is durable: a raw replay of the journal now sees
    // the job closed and a further restart recovers the same state.
    let (_, recovery) = Wal::open(dir.join("jobs.wal")).expect("reopen wal");
    let mut report = Report::new();
    let records = journal::decode_records(&recovery.records, "orphan", &mut report);
    assert!(
        records.contains(&WalRecord::Shed { seq: 0 }),
        "recovery must journal the refusal: {records:?}"
    );
    let replayed = journal::replay(&records, Budget::UNLIMITED, "orphan", &mut report);
    assert!(!report.has_errors(), "{report}");
    assert!(replayed.orphaned.is_empty(), "the orphan is closed");

    let mut server = Server::start(durable_config(&dir, 1)).expect("idempotent restart");
    assert!(server.recovered_transcript().iter().all(|e| !e.admitted));
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged settlement refuses startup: a WAL of honest fig jobs with one
/// `Settle` record whose verdict no re-execution produces must fail the
/// `SRV002` replay, and the refusal names the forged job. The same WAL
/// without the forgery starts cleanly.
#[test]
fn forged_settlement_refuses_startup_with_srv002() {
    use sciduction::BudgetMeter;
    use sciduction_server::{FigJob, JobCommon, Wal, WalRecord};

    const FORGED_SEQ: u64 = 2;
    let write_wal = |dir: &Path, forge: bool| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("state dir");
        let (wal, _) = Wal::open(dir.join("jobs.wal")).expect("fresh wal");
        let mut meter = BudgetMeter::new(Budget::UNLIMITED);
        meter.charge_step_batch(3).expect("unlimited");
        for (seq, name) in (0u64..).zip(FIG_NAMES) {
            let honest = direct_verdict(name);
            let verdict = if forge && seq == FORGED_SEQ {
                assert_eq!(honest, "unsat", "the forgery below must differ");
                "sat".to_string()
            } else {
                honest
            };
            for rec in [
                WalRecord::Admit {
                    seq,
                    tenant: TENANT.into(),
                    id: seq,
                    spec: JobSpec::Fig(FigJob {
                        name: name.into(),
                        proof: false,
                        common: JobCommon {
                            threads: 1,
                            ..JobCommon::default()
                        },
                    }),
                },
                WalRecord::Settle {
                    seq,
                    verdict,
                    receipt: meter.receipt(),
                    settled: true,
                },
                WalRecord::Respond { seq },
            ] {
                assert!(wal.record(&rec), "journal write");
            }
        }
        wal.sync().expect("sync");
    };

    let dir = std::env::temp_dir().join(format!("scid-crash-forged-{}", std::process::id()));
    write_wal(&dir, true);
    let err = match Server::start(durable_config(&dir, 1)) {
        Ok(_) => panic!("a forged settlement must refuse startup"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let message = err.to_string();
    let forged_job = format!("{TENANT}#{FORGED_SEQ} ({})", FIG_NAMES[FORGED_SEQ as usize]);
    assert!(
        message.contains("SRV002") && message.contains(&forged_job),
        "the refusal must name SRV002 and {forged_job}: {message}"
    );

    write_wal(&dir, false);
    let mut server = Server::start(durable_config(&dir, 1)).expect("honest journal recovers");
    assert_eq!(server.recovered_transcript().len(), FIG_NAMES.len());
    // `stats` reports what recovery replayed and what each phase cost.
    let stats = connect(&server)
        .request(
            TENANT,
            json::obj(vec![("kind", Value::Str("stats".into()))]),
        )
        .expect("stats");
    let detail = stats.get("detail").expect("stats detail");
    assert_eq!(
        detail.get("recovered_jobs").and_then(Value::as_u64),
        Some(FIG_NAMES.len() as u64),
        "{stats}"
    );
    let phases = detail.get("recovery_ms").expect("recovery_ms");
    for phase in ["decode", "replay", "audit", "srv002", "cache"] {
        let ms = phases.get(phase).and_then(Value::as_f64);
        assert!(ms.is_some_and(|ms| ms >= 0.0), "{phase}: {stats}");
    }
    server.stop();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Overload shedding: with a bounded queue and saturated workers, excess
/// jobs come back as structured `EBUSY` frames naming the offending
/// tenant and job id — and shed jobs are never charged.
#[test]
fn saturated_queue_sheds_with_ebusy_and_charges_nothing() {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    })
    .expect("server starts");

    // Many concurrent clients racing one worker behind a depth-1 queue:
    // at least one request must be shed, and every response is either a
    // correct verdict or a structured EBUSY naming tenant and job.
    let want = direct_verdict("fig8_p1_equiv_w8");
    let addr = server.addr();
    let results: Vec<(String, Value)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let want = want.clone();
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr, Duration::from_secs(300)).expect("connect");
                    let tenant = format!("busy-{c}");
                    let mut out = Vec::new();
                    for _ in 0..4 {
                        let resp = client
                            .request(&tenant, fig_job("fig8_p1_equiv_w8", 2))
                            .expect("request");
                        if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                            assert_eq!(
                                resp.get("verdict").and_then(Value::as_str),
                                Some(want.as_str()),
                                "shedding must never corrupt served verdicts"
                            );
                        }
                        out.push((tenant.clone(), resp));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut shed = 0usize;
    for (tenant, resp) in &results {
        if resp.get("ok").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        assert_eq!(
            resp.get("code").and_then(Value::as_str),
            Some("EBUSY"),
            "the only refusal under pure overload is EBUSY: {resp}"
        );
        let detail = resp.get("detail").expect("EBUSY carries a detail object");
        assert_eq!(
            detail.get("tenant").and_then(Value::as_str),
            Some(tenant.as_str()),
            "EBUSY names the offending tenant: {resp}"
        );
        assert!(
            detail.get("job").and_then(Value::as_i64).is_some(),
            "EBUSY names the offending job id: {resp}"
        );
        shed += 1;
    }
    assert!(
        shed > 0,
        "a depth-1 queue behind one worker under 6×4 requests must shed"
    );

    // Shed jobs ride the transcript un-admitted and uncharged: the
    // tenant accounts must balance against settled receipts only.
    let transcript = server.transcript();
    let shed_entries = transcript.iter().filter(|e| !e.admitted).count();
    assert_eq!(shed_entries, shed, "every EBUSY is a transcript shed");
    for (tenant, receipt) in server.accounts() {
        let settled: u64 = transcript
            .iter()
            .filter(|e| e.tenant == tenant)
            .filter_map(|e| e.served.as_ref())
            .filter(|s| s.settled)
            .map(|s| s.receipt.clock)
            .sum();
        assert_eq!(
            receipt.clock, settled,
            "{tenant}: shed jobs must never be charged"
        );
    }
    server.stop();
}
