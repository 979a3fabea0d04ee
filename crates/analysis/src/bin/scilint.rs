//! `scilint` — runs the full cross-layer validation suite over the
//! workspace's bundled benchmark instances and exits nonzero when any
//! error-severity diagnostic is found.
//!
//! ```text
//! scilint              run every pass over every bundled instance
//! scilint --codes      print the lint-code registry and exit
//! scilint --verbose    also print warnings and per-suite progress
//! scilint --json       emit every diagnostic as a JSON report on stdout
//! scilint --suite S    run only the named suite(s); repeatable, or a
//!                      comma-separated list
//! ```

use sciduction::exec::{FaultKind, FaultPlan, QueryCache};
use sciduction::recover::{
    retry_site, RetryPolicy, DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD,
};
use sciduction::shard::{
    race_shards, run_worker, ShardAnswer, ShardCommand, ShardConfig, ShardEvent,
};
use sciduction::Verdict;
use sciduction_analysis::passes::{
    audit_cache_stats, audit_cegis_journal, audit_entrant_log, audit_guard_journal,
    audit_measurement_journal, audit_sat_proof, audit_shard_log, audit_smt_certificate,
    BasisValidator, DagValidator, IrValidator, PortfolioValidator, SatValidator,
    SwitchingLogicValidator, SynthProgramValidator, TermPoolValidator,
};
use sciduction_analysis::{codes, Report, Severity, Validator};
use sciduction_cfg::{extract_basis, unroll, BasisConfig, Dag, SmtOracle};
use sciduction_gametime::{analyze_journaled, GameTimeConfig, MicroarchPlatform};
use sciduction_hybrid::{
    synthesize_switching, synthesize_switching_journaled, systems, Grid, HyperBox, HyperboxGuards,
    ReachConfig, SwitchSynthConfig,
};
use sciduction_ir::programs;
use sciduction_ogis::{
    benchmarks, synthesize, synthesize_journaled, ComponentLibrary, IoOracle, SynthesisConfig,
    SynthesisOutcome,
};
use sciduction_proof::SmtCertificate;
use sciduction_sat::{
    solve_portfolio, solve_portfolio_supervised, Cnf, Lit, PortfolioConfig, SolveResult,
    Solver as SatSolver, Var,
};
use sciduction_smt::Solver as SmtSolver;
use std::process::ExitCode;
use std::sync::Arc;

/// The bundled IR workloads with their loop-unrolling bounds.
fn workloads() -> Vec<(&'static str, sciduction_ir::Function, usize)> {
    vec![
        ("fig4_toy", programs::fig4_toy(), 1),
        ("modexp", programs::modexp(), 8),
        ("crc8", programs::crc8(), 8),
        ("fir4", programs::fir4(), 4),
        ("bubble_pass", programs::bubble_pass(), 3),
    ]
}

fn lint_ir(report: &mut Report) {
    for (_, f, bound) in workloads() {
        IrValidator::new(&f).validate(report);
        // The unrolled variant must additionally be loop-free; its overflow
        // block is reachable, so the same pass applies unchanged.
        let u = unroll(&f, bound);
        IrValidator::new(&u.func)
            .require_loop_free()
            .validate(report);
    }
}

fn lint_cfg(report: &mut Report) {
    for (_, f, bound) in workloads() {
        let dag = match Dag::from_function(&f, bound) {
            Ok(d) => d,
            Err(e) => {
                report.error(codes::CFG001, "cfg", f.name.clone(), format!("{e:?}"));
                continue;
            }
        };
        DagValidator::new(&dag).validate(report);
        let mut oracle = SmtOracle::new();
        let basis = extract_basis(&dag, &mut oracle, BasisConfig::default());
        BasisValidator::new(&dag, &basis).validate(report);
    }
}

fn lint_smt(report: &mut Report) {
    // Exercise the term pool with the symbolic executor: encode every
    // enumerable path of the toy DAG plus a handful of modexp paths, check
    // one, then re-validate the accumulated DAG of terms.
    let mut solver = SmtSolver::new();
    for (_, f, bound) in workloads() {
        let dag = Dag::from_function(&f, bound).expect("bundled programs unroll");
        for path in dag.enumerate_paths(4) {
            let pf = sciduction_cfg::path_formula(&mut solver, &dag, &path);
            solver.push();
            for c in &pf.constraints {
                solver.assert_term(*c);
            }
            let _ = solver.check();
            solver.pop();
        }
    }
    TermPoolValidator::new(solver.terms()).validate(report);
}

fn lint_sat(report: &mut Report) {
    // A pigeonhole-style instance plus a satisfiable band: enough structure
    // to exercise learning, restarts, and the certifying model check.
    let mut solver = SatSolver::new();
    let n = 30usize;
    let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
    // Ring implications x_i -> x_{i+1}.
    for i in 0..n {
        let a = Lit::negative(vars[i]);
        let b = Lit::positive(vars[(i + 1) % n]);
        solver.add_clause([a, b]);
    }
    // A few wide clauses forcing some assignment.
    for i in 0..n / 3 {
        solver.add_clause([
            Lit::positive(vars[i]),
            Lit::positive(vars[(i + 7) % n]),
            Lit::negative(vars[(i + 13) % n]),
        ]);
    }
    match solver.solve() {
        SolveResult::Sat => {
            let model = solver.model();
            SatValidator::new(&solver)
                .with_model(&model)
                .validate(report);
        }
        SolveResult::Unsat => {
            report.error(
                codes::SAT004,
                "sat",
                "instance",
                "satisfiable instance reported UNSAT",
            );
        }
    }
}

fn lint_portfolio(report: &mut Report) {
    // The same ring-plus-wide-clauses family as `lint_sat`, raced by a
    // 4-member diversified portfolio. The validator re-solves sequentially
    // (PAR002) and certifies the winner's model against every member's
    // clause database, learnt clauses included (PAR001).
    let n = 30i64;
    let mut clauses: Vec<Vec<i64>> = Vec::new();
    for i in 0..n {
        clauses.push(vec![-(i + 1), (i + 1) % n + 1]);
    }
    for i in 0..n / 3 {
        clauses.push(vec![i + 1, (i + 7) % n + 1, -((i + 13) % n + 1)]);
    }
    let cnf = Cnf {
        num_vars: n as usize,
        clauses,
    };
    let config = PortfolioConfig {
        members: 4,
        ..PortfolioConfig::default()
    };

    // Unconstrained race, then an UNSAT-under-assumptions race (the ring
    // forces x0 -> x5, so assuming x0 ∧ ¬x5 must fail with a witness).
    let races: [&[Lit]; 2] = [
        &[],
        &[
            Lit::positive(Var::from_index(0)),
            Lit::negative(Var::from_index(5)),
        ],
    ];
    for assumptions in races {
        match solve_portfolio(&cnf, assumptions, &config) {
            Ok(outcome) => {
                PortfolioValidator::new(&cnf, assumptions, &outcome).validate(report);
            }
            Err(e) => {
                report.error(
                    codes::PAR002,
                    "portfolio",
                    "race",
                    format!("portfolio member panicked: {e}"),
                );
            }
        }
    }

    // Exercise a bounded shared cache past its capacity and audit the
    // counters for coherence (PAR003).
    let cache: QueryCache<u64, u64> = QueryCache::bounded(8);
    for _ in 0..2 {
        for k in 0..16u64 {
            if cache.get(&k).is_none() {
                cache.insert(k, k * k);
            }
        }
    }
    audit_cache_stats(&cache.stats(), "portfolio", report);
}

fn lint_ogis_bench(
    name: &str,
    lib: ComponentLibrary,
    mut oracle: impl IoOracle,
    report: &mut Report,
) {
    let (outcome, _) = synthesize(&lib, &mut oracle, &SynthesisConfig::default());
    match outcome {
        SynthesisOutcome::Synthesized {
            program, examples, ..
        } => {
            SynthProgramValidator::new(&program)
                .with_library(&lib)
                .with_examples(&examples)
                .validate(report);
        }
        other => {
            report.error(
                codes::OGS005,
                "ogis",
                name,
                format!("benchmark failed to synthesize: {other:?}"),
            );
        }
    }
}

fn lint_ogis(report: &mut Report) {
    let (lib, oracle) = benchmarks::p1_with_width(8);
    lint_ogis_bench("p1", lib, oracle, report);
    let (lib, oracle) = benchmarks::p2_with_width(8);
    lint_ogis_bench("p2", lib, oracle, report);
}

fn lint_hybrid(report: &mut Report) {
    let mds = systems::water_tank();
    let config = SwitchSynthConfig {
        grid: Grid::new(0.05),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 100.0,
            min_dwell: 0.0,
            equilibrium_eps: 1e-9,
        },
        max_rounds: 8,
        seed_budget: 256,
        ..SwitchSynthConfig::default()
    };
    let out = synthesize_switching(
        &mds,
        systems::water_tank_initial(),
        &[Some(vec![5.0]), Some(vec![5.0])],
        &config,
    );
    if !out.converged {
        report.error(
            codes::HYB004,
            "hybrid",
            "water_tank",
            "synthesis did not converge",
        );
        return;
    }
    let hypothesis = HyperboxGuards {
        grid: config.grid,
        dim: mds.dim,
    };
    let domain = HyperBox::new(vec![1.0], vec![10.0]); // the safe band 1 ≤ ℓ ≤ 10
    SwitchingLogicValidator::new(&mds, &out.logic)
        .with_hypothesis(&hypothesis)
        .with_domain(&domain)
        .validate(report);
}

fn lint_recovery(report: &mut Report) {
    // Supervised SAT race under a lethal fault plan: the verdict must
    // match the clean portfolio's, and every entrant's supervision log —
    // budget receipt, breaker op log, retry schedule — must audit clean
    // (BUD001/BUD003, REC002, REC003).
    let n = 30i64;
    let mut clauses: Vec<Vec<i64>> = Vec::new();
    for i in 0..n {
        clauses.push(vec![-(i + 1), (i + 1) % n + 1]);
    }
    for i in 0..n / 3 {
        clauses.push(vec![i + 1, (i + 7) % n + 1, -((i + 13) % n + 1)]);
    }
    let cnf = Cnf {
        num_vars: n as usize,
        clauses,
    };
    let config = PortfolioConfig {
        members: 4,
        ..PortfolioConfig::default()
    };
    let clean = match solve_portfolio(&cnf, &[], &config) {
        Ok(outcome) => outcome.verdict,
        Err(e) => {
            report.error(
                codes::PAR002,
                "recovery",
                "race",
                format!("clean portfolio member panicked: {e}"),
            );
            return;
        }
    };
    for kind in [
        FaultKind::WorkerDeath,
        FaultKind::SpuriousCancel,
        FaultKind::BudgetExhaustion,
    ] {
        let plan = Arc::new(FaultPlan::targeting(9, kind));
        let supervised = solve_portfolio_supervised(
            &cnf,
            &[],
            &config,
            RetryPolicy::new(9, 3),
            Some(Arc::clone(&plan)),
        );
        match (&clean, &supervised.verdict) {
            (Verdict::Known(c), Verdict::Known(s)) if c != s => report.error(
                codes::FLT002,
                "recovery",
                format!("{kind:?}"),
                format!("supervised verdict {s:?} flips clean verdict {c:?}"),
            ),
            (Verdict::Known(c), Verdict::Unknown(cause)) => report.error(
                codes::FLT002,
                "recovery",
                format!("{kind:?}"),
                format!(
                    "supervised run lost the clean verdict {c:?} to {cause:?} \
                     despite remaining budget"
                ),
            ),
            _ => {}
        }
        for log in supervised.logs.iter().flatten() {
            audit_entrant_log(
                &supervised.policy,
                DEFAULT_BREAKER_THRESHOLD,
                DEFAULT_BREAKER_COOLDOWN,
                log,
                "recovery",
                report,
            );
        }
    }

    // One checkpoint journal per iterative loop, audited for structural
    // consistency and an exact wire round trip (REC001).
    let (lib, mut oracle) = benchmarks::p1_with_width(8);
    let (_, journal) =
        synthesize_journaled(&lib, &mut oracle, &SynthesisConfig::default(), Some(1));
    audit_cegis_journal(&journal, "recovery", report);

    let f = programs::fig4_toy();
    let mut platform = MicroarchPlatform::new(f.clone());
    let gt_config = GameTimeConfig {
        unroll_bound: 1,
        trials: 10,
        ..GameTimeConfig::default()
    };
    match analyze_journaled(&f, &mut platform, &gt_config, Some(3)) {
        Ok((_, journal)) => audit_measurement_journal(&journal, "recovery", report),
        Err(e) => report.error(
            codes::REC001,
            "recovery",
            "gametime-journal",
            format!("journaled analysis failed: {e}"),
        ),
    }

    let mds = systems::water_tank();
    let config = SwitchSynthConfig {
        grid: Grid::new(0.05),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 100.0,
            min_dwell: 0.0,
            equilibrium_eps: 1e-9,
        },
        ..SwitchSynthConfig::default()
    };
    let (_, journal) = synthesize_switching_journaled(
        &mds,
        systems::water_tank_initial(),
        &[Some(vec![5.0]), Some(vec![5.0])],
        &config,
        Some(1),
    );
    audit_guard_journal(&journal, "recovery", report);
}

fn lint_durability(report: &mut Report) {
    use sciduction::persist::{RecordLog, HEADER_LEN};
    use sciduction_analysis::passes::audit_record_log;

    const GENERATION: u64 = 7;
    let dir = std::env::temp_dir().join(format!("scilint-durability-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let payloads: Vec<Vec<u8>> = (0..24u8).map(|i| vec![i; (i as usize % 7) + 1]).collect();

    // A healthy log written through the real writer must audit clean and
    // surface exactly the appended records.
    let path = dir.join("healthy.log");
    let _ = std::fs::remove_file(&path);
    match RecordLog::open(&path, GENERATION) {
        Ok((mut log, recovery)) => {
            if recovery.reset || !recovery.records.is_empty() {
                report.error(
                    codes::DUR001,
                    "durability",
                    "fresh-log",
                    "fresh log reported prior records or a reset",
                );
            }
            for p in &payloads {
                match log.append(p) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => report.error(
                        codes::DUR001,
                        "durability",
                        "healthy-append",
                        "fault-free append did not report durable",
                    ),
                }
            }
            let _ = log.sync();
        }
        Err(e) => {
            report.error(
                codes::DUR001,
                "durability",
                "healthy-open",
                format!("cannot open record log: {e}"),
            );
            return;
        }
    }
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            report.error(
                codes::DUR001,
                "durability",
                "healthy-read",
                format!("cannot read log back: {e}"),
            );
            return;
        }
    };
    let scan = audit_record_log(&bytes, GENERATION, "durability", report);
    if scan.records != payloads {
        report.error(
            codes::DUR001,
            "durability",
            "healthy-replay",
            "scanned records differ from the appended records",
        );
    }

    // Seeded torn/short/killed writers: recovery must surface exactly the
    // records `append` reported durable — never more, never fewer.
    for kind in sciduction::exec::FaultKind::DURABILITY {
        for seed in [3u64, 11] {
            let path = dir.join(format!("faulted-{kind}-{seed}.log"));
            let _ = std::fs::remove_file(&path);
            let (log, _) = match RecordLog::open(&path, GENERATION) {
                Ok(ok) => ok,
                Err(e) => {
                    report.error(
                        codes::DUR001,
                        "durability",
                        format!("{kind}/{seed}"),
                        format!("cannot open record log: {e}"),
                    );
                    continue;
                }
            };
            let mut log = log.with_fault_plan(Arc::new(FaultPlan::targeting(seed, kind)));
            let mut durable: Vec<Vec<u8>> = Vec::new();
            for p in &payloads {
                if log.append(p).unwrap_or(false) {
                    durable.push(p.clone());
                }
            }
            drop(log);
            match RecordLog::open(&path, GENERATION) {
                Ok((_, recovery)) => {
                    if recovery.records != durable {
                        report.error(
                            codes::DUR001,
                            "durability",
                            format!("{kind}/{seed}"),
                            format!(
                                "recovered {} record(s) but the writer reported {} durable",
                                recovery.records.len(),
                                durable.len()
                            ),
                        );
                    }
                }
                Err(e) => report.error(
                    codes::DUR001,
                    "durability",
                    format!("{kind}/{seed}"),
                    format!("cannot reopen faulted log: {e}"),
                ),
            }
        }
    }

    // Negative controls into a scratch report: corruption the audit fails
    // to flag is itself a lint failure.
    let mut scratch = Report::new();
    let mut flipped = bytes.clone();
    flipped[HEADER_LEN + 4] ^= 0xFF; // first frame's CRC field
    audit_record_log(&flipped, GENERATION, "durability", &mut scratch);
    if !scratch.has_code(codes::DUR001) {
        report.error(
            codes::DUR001,
            "durability",
            "flipped-crc",
            "a flipped frame CRC was not flagged",
        );
    }
    let mut scratch = Report::new();
    audit_record_log(&bytes, GENERATION + 1, "durability", &mut scratch);
    if !scratch.has_code(codes::DUR002) {
        report.error(
            codes::DUR002,
            "durability",
            "stale-generation",
            "a stale log generation was not flagged",
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The hidden argv flag that flips `scilint` into a shard *echo worker*
/// for the supervision suite (the analysis crate cannot depend on the
/// server, so the suite self-execs its own binary as the worker; the
/// worker just echoes the request payload, which is all the supervision
/// lints need — they audit the race, not the answer).
const SHARD_ECHO_WORKER: &str = "--shard-echo-worker";

fn lint_supervision(report: &mut Report) {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            report.error(
                codes::SUP001,
                "supervision",
                "self-exec",
                format!("cannot resolve own executable: {e}"),
            );
            return;
        }
    };
    let echo = |payload: &[u8]| ShardCommand {
        program: exe.clone(),
        args: vec![SHARD_ECHO_WORKER.to_string()],
        payload: payload.to_vec(),
    };

    // A clean two-shard race must answer with the echoed payload and
    // leave a log that replays clean through SUP001–SUP003.
    let config = ShardConfig::new(RetryPolicy::new(21, 2));
    let race = race_shards(&[echo(b"alpha"), echo(b"alpha")], &config);
    match (&race.winner, &race.answer) {
        (Some(_), Some(ShardAnswer::Result(p))) if p == b"alpha" => {}
        other => report.error(
            codes::SUP003,
            "supervision",
            "clean-race",
            format!("clean echo race did not answer with its payload: {other:?}"),
        ),
    }
    audit_shard_log(&race, "supervision", report);

    // Negative control: the same clean log with its first heartbeats
    // struck out claims answers no beat preceded.
    let mut beatless = race.clone();
    beatless
        .log
        .events
        .retain(|e| !matches!(e, ShardEvent::Beat { .. }));
    let mut scratch = Report::new();
    audit_shard_log(&beatless, "supervision", &mut scratch);
    if !scratch.has_code(codes::SUP001) {
        report.error(
            codes::SUP001,
            "supervision",
            "forged-beatless-win",
            "an answer with no earlier heartbeat was not flagged",
        );
    }

    // The hung-shard path, deterministically: a seed whose pure fault
    // plan hangs attempt 0 of shard 0 (kill must not preempt it) and
    // leaves attempt 1 clean. The watchdog must reap the hang, charge
    // the kill as fuel, and the restarted attempt still answers.
    let clean_site = |seed: u64, site: u64| {
        FaultKind::SHARD
            .iter()
            .all(|&k| !FaultPlan::decides(seed, k, site))
    };
    let hang_seed = (0..20_000u64).find(|&s| {
        let s0 = retry_site(0, 0);
        !FaultPlan::decides(s, FaultKind::ShardKill, s0)
            && FaultPlan::decides(s, FaultKind::ShardHang, s0)
            && clean_site(s, retry_site(0, 1))
    });
    match hang_seed {
        Some(seed) => {
            let config = ShardConfig {
                retry: RetryPolicy::new(seed, 1),
                heartbeat_timeout: std::time::Duration::from_millis(300),
                poll_interval: std::time::Duration::from_millis(10),
                fault_seed: Some(seed),
            };
            let race = race_shards(&[echo(b"hung")], &config);
            audit_shard_log(&race, "supervision", report);
            if !matches!(&race.answer, Some(ShardAnswer::Result(p)) if p == b"hung") {
                report.error(
                    codes::SUP003,
                    "supervision",
                    "hung-shard",
                    format!(
                        "restart after a watchdog kill lost the answer: {:?} / {:?}",
                        race.answer, race.cause
                    ),
                );
            }
            let charged = race
                .log
                .events
                .iter()
                .any(|e| matches!(e, ShardEvent::WatchdogCharged { .. }));
            if !charged || race.receipt.fuel == 0 {
                report.error(
                    codes::SUP002,
                    "supervision",
                    "hung-shard",
                    "watchdog kill was not charged to the budget",
                );
            }
        }
        None => report.error(
            codes::SUP001,
            "supervision",
            "hung-shard",
            "no seed hangs shard 0 attempt 0 cleanly (fault plan changed?)",
        ),
    }

    // Seeded chaos: whatever mix of kill/hang/garbage the plan picks,
    // the race must settle as the clean answer or certified degradation,
    // and every log must replay clean.
    for seed in 1..=4u64 {
        let config = ShardConfig {
            retry: RetryPolicy::new(seed, 2),
            heartbeat_timeout: std::time::Duration::from_millis(300),
            poll_interval: std::time::Duration::from_millis(10),
            fault_seed: Some(seed),
        };
        let race = race_shards(&[echo(b"beta"), echo(b"beta")], &config);
        audit_shard_log(&race, "supervision", report);
        match (&race.answer, race.cause) {
            (Some(ShardAnswer::Result(p)), None) if p == b"beta" => {}
            (None, Some(cause)) if race.receipt.certifies(&cause) => {}
            other => report.error(
                codes::SUP003,
                "supervision",
                format!("chaos-seed-{seed}"),
                format!("chaos race settled dishonestly: {other:?}"),
            ),
        }
    }

    // Negative controls: corrupted supervision artifacts the lints fail
    // to flag are themselves lint failures. Base artifact: a race whose
    // worker binary does not exist (real deaths, retries, and charges —
    // no subprocesses spent).
    let base = race_shards(
        &[ShardCommand {
            program: "/nonexistent/scilint-shard-worker".into(),
            args: Vec::new(),
            payload: b"x".to_vec(),
        }],
        &ShardConfig::new(RetryPolicy::new(11, 1)),
    );
    audit_shard_log(&base, "supervision", report);

    let mut forged = base.clone();
    for e in &mut forged.log.events {
        if let ShardEvent::Retried { charge, .. } = e {
            *charge += 1;
        }
    }
    let mut scratch = Report::new();
    audit_shard_log(&forged, "supervision", &mut scratch);
    if !scratch.has_code(codes::SUP002) {
        report.error(
            codes::SUP002,
            "supervision",
            "forged-charge",
            "a forged retry charge was not flagged",
        );
    }

    let mut doubled = base.clone();
    doubled.log.events.push(ShardEvent::Won {
        shard: 0,
        attempt: 0,
    });
    let mut scratch = Report::new();
    audit_shard_log(&doubled, "supervision", &mut scratch);
    if !scratch.has_code(codes::SUP001) {
        report.error(
            codes::SUP001,
            "supervision",
            "forged-win",
            "a win forged into a degraded log was not flagged",
        );
    }

    let mut flipped = base;
    flipped.cause = Some(sciduction::Exhausted::Cancelled);
    let mut scratch = Report::new();
    audit_shard_log(&flipped, "supervision", &mut scratch);
    if !scratch.has_code(codes::SUP003) {
        report.error(
            codes::SUP003,
            "supervision",
            "flipped-cause",
            "a flipped degradation cause was not flagged",
        );
    }
}

fn lint_proof(report: &mut Report) {
    // SAT: a pigeonhole refutation raced by a proof-logging portfolio at
    // the configured thread count; the winner's DRAT log must replay
    // through the independent checker (PRF001–PRF003).
    let (n, m) = (5usize, 4usize);
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
    let cnf = Cnf {
        num_vars: n * m,
        clauses,
    };
    let config = PortfolioConfig {
        proof: true,
        ..PortfolioConfig::default()
    };
    match solve_portfolio(&cnf, &[], &config) {
        Ok(outcome) => {
            if outcome.verdict != Verdict::Known(SolveResult::Unsat) {
                report.error(
                    codes::PRF001,
                    "proof",
                    "pigeonhole(5,4)",
                    format!("expected certified UNSAT, got {:?}", outcome.verdict),
                );
            } else {
                match (&outcome.proof, &outcome.proof_cnf) {
                    (Some(proof), Some(pcnf)) => {
                        audit_sat_proof(pcnf, proof, "pigeonhole(5,4)", "proof", report);
                    }
                    _ => report.error(
                        codes::PRF002,
                        "proof",
                        "pigeonhole(5,4)",
                        "certified UNSAT race produced no proof",
                    ),
                }
            }
        }
        Err(e) => report.error(
            codes::PRF001,
            "proof",
            "pigeonhole(5,4)",
            format!("portfolio member panicked: {e}"),
        ),
    }

    // SMT: a certifying solver refutes a contradictory bit-vector query;
    // the end-to-end certificate (blasted CNF + assumption units +
    // blasting map + proof) must replay through the checker, and its
    // `scicert v1` text form must round-trip exactly (PRF004 guards the
    // blasting map).
    let mut smt = SmtSolver::certifying();
    let (e1, e2);
    {
        let p = smt.terms_mut();
        let x = p.var("x", 8);
        let k3 = p.bv(3, 8);
        let prod = p.bv_mul(x, k3);
        let k5 = p.bv(5, 8);
        let k9 = p.bv(9, 8);
        e1 = p.eq(prod, k5);
        e2 = p.eq(prod, k9);
    }
    smt.assert_term(e1);
    smt.assert_term(e2);
    if smt.check() != sciduction_smt::CheckResult::Unsat {
        report.error(
            codes::PRF001,
            "proof",
            "mul-contradiction",
            "expected UNSAT from contradictory equations",
        );
        return;
    }
    match smt.unsat_certificate() {
        Some(cert) => {
            audit_smt_certificate(&cert, "mul-contradiction", "proof", report);
            match SmtCertificate::parse(&cert.to_text()) {
                Ok(reparsed) if reparsed == cert => {}
                Ok(_) => report.error(
                    codes::PRF004,
                    "proof",
                    "mul-contradiction",
                    "scicert text round trip is lossy",
                ),
                Err(e) => report.error(
                    codes::PRF001,
                    "proof",
                    "mul-contradiction",
                    format!("scicert text does not re-parse: {e}"),
                ),
            }
        }
        None => report.error(
            codes::PRF002,
            "proof",
            "mul-contradiction",
            "certifying solver returned no certificate for a computed UNSAT",
        ),
    }
}

/// Minimal JSON string escaping for the `--json` report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() -> ExitCode {
    // Echo-worker dispatch for the supervision suite, before any flag
    // parsing (the supervisor self-execs this binary with the flag in
    // first position).
    if std::env::args().nth(1).as_deref() == Some(SHARD_ECHO_WORKER) {
        let mut input = std::io::stdin();
        return match run_worker(&mut input, std::io::stdout(), |p| Ok(p.to_vec())) {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::from(3),
        };
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--suite` takes a value, so peel flag/value pairs off before the
    // unknown-argument scan sees the suite names.
    let mut args: Vec<String> = Vec::new();
    let mut suite_filter: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--suite" {
            match it.next() {
                Some(v) => suite_filter.extend(
                    v.split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty()),
                ),
                None => {
                    eprintln!("scilint: --suite needs a suite name");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            args.push(a);
        }
    }
    if let Some(bad) = args.iter().find(|a| {
        !matches!(
            a.as_str(),
            "--codes" | "--verbose" | "-v" | "--json" | "--help" | "-h"
        )
    }) {
        eprintln!("scilint: unknown argument '{bad}'");
        eprintln!("usage: scilint [--codes] [--verbose|-v] [--json] [--suite NAME] [--help|-h]");
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("scilint — cross-layer artifact validation over the bundled instances");
        println!("usage: scilint [--codes] [--verbose|-v] [--json] [--suite NAME]");
        println!("  --codes       print the lint-code registry and exit");
        println!("  --verbose/-v  print every diagnostic and per-suite counts");
        println!("  --json        emit every diagnostic as a JSON report on stdout");
        println!("  --suite NAME  run only the named suite; repeat or comma-separate for more");
        println!("exits nonzero if any error-severity diagnostic is produced");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--codes") {
        // Write errors (e.g. a closed pipe from `scilint --codes | head`)
        // just end the listing; they are not a lint failure.
        use std::io::Write;
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for (code, desc) in codes::ALL {
            if writeln!(out, "{code}  {desc}").is_err() {
                break;
            }
        }
        return ExitCode::SUCCESS;
    }
    let verbose = args.iter().any(|a| a == "--verbose" || a == "-v");
    let json = args.iter().any(|a| a == "--json");

    type Suite = (&'static str, fn(&mut Report));
    let suites: [Suite; 11] = [
        ("ir", lint_ir),
        ("cfg", lint_cfg),
        ("smt", lint_smt),
        ("sat", lint_sat),
        ("portfolio", lint_portfolio),
        ("ogis", lint_ogis),
        ("hybrid", lint_hybrid),
        ("recovery", lint_recovery),
        ("durability", lint_durability),
        ("supervision", lint_supervision),
        ("proof", lint_proof),
    ];
    if let Some(bad) = suite_filter
        .iter()
        .find(|want| !suites.iter().any(|(name, _)| name == want))
    {
        let known: Vec<&str> = suites.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "scilint: unknown suite '{bad}' (known suites: {})",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let selected: Vec<Suite> = suites
        .into_iter()
        .filter(|(name, _)| suite_filter.is_empty() || suite_filter.iter().any(|w| w == name))
        .collect();

    let mut report = Report::new();
    for &(name, run) in &selected {
        let before = report.diagnostics().len();
        run(&mut report);
        if verbose && !json {
            println!(
                "suite {name:<7} {} diagnostic(s)",
                report.diagnostics().len() - before
            );
        }
    }

    let errors = report.count(Severity::Error);
    if json {
        // Machine-readable report: every diagnostic, regardless of
        // severity, as `{code, severity, layer, artifact, message}`.
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in report.diagnostics().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"layer\": \"{}\", \
                 \"artifact\": \"{}\", \"message\": \"{}\"}}",
                json_escape(d.code),
                d.severity,
                json_escape(d.pass),
                json_escape(&d.location),
                json_escape(&d.message)
            ));
        }
        if !report.diagnostics().is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {},\n  \"suites\": {}\n}}",
            errors,
            report.count(Severity::Warning),
            selected.len()
        ));
        println!("{out}");
    } else {
        for d in report.diagnostics() {
            if d.severity == Severity::Error || verbose {
                println!("{d}");
            }
        }
        println!(
            "scilint: {} error(s), {} warning(s) across {} suites",
            errors,
            report.count(Severity::Warning),
            selected.len()
        );
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
