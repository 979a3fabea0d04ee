//! Supervised recovery vs clean reference: the PR's acceptance matrix.
//!
//! * **Fault matrix** — under every PR-3 fault kind × seed × thread
//!   count, a *supervised* portfolio (panic isolation + deterministic
//!   retry + circuit breakers) returns the **clean verdict** whenever
//!   budget remains — where an unsupervised faulted race may degrade to
//!   `Unknown`, the supervised one answers.
//! * **Kill/resume** — each of the three iterative loops (OGIS CEGIS,
//!   GameTime measurement, hybrid guard search) is killed mid-run on its
//!   paper workload, resumed from its checkpoint journal, and must reach
//!   the bit-identical artifact of an uninterrupted run.
//! * **Log audits** — every supervision log and journal produced along
//!   the way survives the independent `REC001`–`REC003` audits.

use sciduction::exec::{FaultKind, FaultPlan};
use sciduction::recover::{RetryPolicy, DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD};
use sciduction::{Budget, Verdict};
use sciduction_analysis::passes::{
    audit_cegis_journal, audit_entrant_log, audit_guard_journal, audit_measurement_journal,
};
use sciduction_analysis::Report;
use sciduction_gametime::{
    analyze, analyze_journaled, analyze_resume, GameTimeConfig, MicroarchPlatform,
};
use sciduction_hybrid::{
    synthesize_switching, synthesize_switching_journaled, synthesize_switching_resume, systems,
    Grid, GuardSearchJournal, ReachConfig, SwitchSynthConfig,
};
use sciduction_ir::programs;
use sciduction_ogis::{
    benchmarks, synthesize, synthesize_journaled, synthesize_portfolio_supervised,
    synthesize_resume, CegisJournal, ParallelSynthesisConfig, SynthesisConfig, SynthesisOutcome,
};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{Rng, SeedableRng};
use sciduction_sat::{
    solve_portfolio_supervised, solve_portfolio_with_faults, Cnf, PortfolioConfig,
    PortfolioOutcome, SolveResult,
};
use sciduction_smt::BvValue;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 4];
const FAULT_SEEDS: [u64; 3] = [1, 2, 3];

/// Kinds that take a portfolio member out of the race entirely.
const LETHAL: [FaultKind; 3] = [
    FaultKind::WorkerDeath,
    FaultKind::SpuriousCancel,
    FaultKind::BudgetExhaustion,
];

fn random_3sat(rng: &mut StdRng) -> Cnf {
    let num_vars = rng.random_range(12..30u64) as usize;
    let ratio = 3.5 + rng.random_range(0..14u64) as f64 / 10.0;
    let num_clauses = (num_vars as f64 * ratio) as usize;
    let clauses = (0..num_clauses)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let v = rng.random_range(0..num_vars as u64) as i64 + 1;
                    if rng.random::<bool>() {
                        v
                    } else {
                        -v
                    }
                })
                .collect()
        })
        .collect();
    Cnf { num_vars, clauses }
}

fn certify(cnf: &Cnf, model: &[bool]) -> bool {
    model.len() == cnf.num_vars
        && cnf.clauses.iter().all(|cl| {
            cl.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                model[v] ^ (l < 0)
            })
        })
}

/// The `REC002`/`REC003`/`BUD` audit over every entrant's supervision
/// log, using the supervisor's default breaker settings.
fn audit_race_logs(out: &PortfolioOutcome, tag: &str) {
    let mut r = Report::new();
    for log in out.logs.iter().flatten() {
        audit_entrant_log(
            &out.policy,
            DEFAULT_BREAKER_THRESHOLD,
            DEFAULT_BREAKER_COOLDOWN,
            log,
            "recovery",
            &mut r,
        );
    }
    assert!(r.is_clean(), "{tag}: {r}");
}

#[test]
fn sat_supervised_matrix_recovers_the_clean_verdict() {
    let mut rng = StdRng::seed_from_u64(0x05EC_07E4);
    for instance in 0..4 {
        let cnf = random_3sat(&mut rng);
        let clean_config = PortfolioConfig {
            members: 4,
            threads: 1,
            budget: Budget::UNLIMITED,
            ..PortfolioConfig::default()
        };
        let clean =
            solve_portfolio_with_faults(&cnf, &[], &clean_config, None).expect("no member panics");
        let clean_result = clean.verdict.expect_known("clean run cannot exhaust");

        for kind in FaultKind::ALL {
            for seed in FAULT_SEEDS {
                let mut verdicts = Vec::new();
                for threads in THREADS {
                    let plan = Arc::new(FaultPlan::targeting(seed, kind));
                    let config = PortfolioConfig {
                        members: 4,
                        threads,
                        budget: Budget::UNLIMITED,
                        ..PortfolioConfig::default()
                    };
                    // `RetryPolicy::from_env` lets ci.sh sweep
                    // SCIDUCTION_RETRIES; any retry count recovers these
                    // plans because each attempt re-rolls the fault site.
                    let out = solve_portfolio_supervised(
                        &cnf,
                        &[],
                        &config,
                        RetryPolicy::from_env(seed),
                        Some(plan),
                    );
                    let tag =
                        format!("instance {instance}, {kind:?}, seed {seed}, {threads} thread(s)");
                    // The whole point of supervision: not merely "no
                    // flip", but the clean answer despite the faults.
                    let result = match out.verdict {
                        Verdict::Known(result) => result,
                        Verdict::Unknown(cause) => {
                            panic!("{tag}: supervised race lost the verdict to {cause:?}")
                        }
                    };
                    assert_eq!(result, clean_result, "{tag}: verdict flipped");
                    if result == SolveResult::Sat {
                        assert!(certify(&cnf, &out.model), "{tag}: bad model");
                    }
                    audit_race_logs(&out, &tag);
                    verdicts.push(out.verdict);
                }
                assert!(
                    verdicts.windows(2).all(|w| w[0] == w[1]),
                    "instance {instance}, {kind:?}, seed {seed}: verdict varies \
                     with thread count: {verdicts:?}"
                );
            }
        }
    }
}

/// A seed whose pure fault decision fires `kind` at every member's
/// first-attempt site — unsupervised, the whole portfolio faults and the
/// race degrades; supervised, the retries re-roll at fresh sites and the
/// race must still answer.
fn total_loss_seed(kind: FaultKind, members: usize) -> u64 {
    (1u64..)
        .find(|&s| (0..members as u64).all(|i| FaultPlan::decides(s, kind, i)))
        .unwrap()
}

#[test]
fn sat_supervision_outlives_total_first_attempt_loss() {
    let mut rng = StdRng::seed_from_u64(0x05EC_07A1);
    let cnf = random_3sat(&mut rng);
    let clean_config = PortfolioConfig {
        members: 2,
        threads: 1,
        budget: Budget::UNLIMITED,
        ..PortfolioConfig::default()
    };
    let clean =
        solve_portfolio_with_faults(&cnf, &[], &clean_config, None).expect("no member panics");
    let clean_result = clean.verdict.expect_known("clean run cannot exhaust");
    for kind in LETHAL {
        let seed = total_loss_seed(kind, 2);
        for threads in THREADS {
            let config = PortfolioConfig {
                members: 2,
                threads,
                budget: Budget::UNLIMITED,
                ..PortfolioConfig::default()
            };
            let plan = Arc::new(FaultPlan::targeting(seed, kind));
            let out = solve_portfolio_supervised(
                &cnf,
                &[],
                &config,
                RetryPolicy::new(seed, 4),
                Some(plan),
            );
            let tag = format!("{kind:?}, seed {seed}, {threads} thread(s)");
            assert_eq!(
                out.verdict,
                Verdict::Known(clean_result),
                "{tag}: total first-attempt loss was not recovered"
            );
            audit_race_logs(&out, &tag);
            // Someone actually paid for a retry: the recovery is real,
            // not a lucky miss of the fault plan.
            let retried: usize = out.logs.iter().flatten().map(|log| log.retries.len()).sum();
            assert!(retried > 0, "{tag}: no retries yet every member faulted");
        }
    }
}

#[test]
fn ogis_supervised_matrix_recovers_the_clean_program() {
    let width = 3u32;
    let (lib, mut oracle) = benchmarks::p1_with_width(width);
    let config = SynthesisConfig::default();
    let (clean, _) = synthesize(&lib, &mut oracle, &config);
    let SynthesisOutcome::Synthesized {
        program: clean_prog,
        ..
    } = clean
    else {
        panic!("clean run must synthesize P1: {clean:?}");
    };
    let mut rng = StdRng::seed_from_u64(0x0006_F175);
    let probes: Vec<Vec<BvValue>> = (0..64)
        .map(|_| {
            (0..lib.num_inputs)
                .map(|_| BvValue::new(rng.random(), width))
                .collect()
        })
        .collect();

    for kind in LETHAL {
        for seed in [1u64, 2] {
            for threads in [1usize, 4] {
                let plan = Arc::new(FaultPlan::targeting(seed, kind));
                let out = synthesize_portfolio_supervised(
                    &lib,
                    |_| benchmarks::p1_with_width(width).1,
                    &config,
                    &ParallelSynthesisConfig {
                        threads,
                        ..ParallelSynthesisConfig::default()
                    },
                    RetryPolicy::new(seed, 4),
                    Some(plan),
                );
                let tag = format!("{kind:?}, seed {seed}, {threads} thread(s)");
                let SynthesisOutcome::Synthesized { program, .. } = &out.outcome else {
                    panic!(
                        "{tag}: supervised synthesis lost the answer: {:?}",
                        out.outcome
                    );
                };
                assert!(
                    probes.iter().all(|x| program.eval(x) == clean_prog.eval(x)),
                    "{tag}: supervised program diverges semantically"
                );
                assert!(out.winner.is_some(), "{tag}: synthesized without a winner");
                let mut r = Report::new();
                for log in out.logs.iter().flatten() {
                    audit_entrant_log(
                        &out.policy,
                        DEFAULT_BREAKER_THRESHOLD,
                        DEFAULT_BREAKER_COOLDOWN,
                        log,
                        "recovery",
                        &mut r,
                    );
                }
                assert!(r.is_clean(), "{tag}: {r}");
            }
        }
    }
}

#[test]
fn fig8_cegis_kill_resume_is_bit_identical() {
    // Paper Fig. 8 P1 (XOR-swap deobfuscation), width 4.
    let (lib, mut oracle) = benchmarks::p1_with_width(4);
    let config = SynthesisConfig::default();
    let (clean, clean_stats) = synthesize(&lib, &mut oracle, &config);
    let SynthesisOutcome::Synthesized {
        program: clean_prog,
        iterations: clean_iterations,
        examples: clean_examples,
    } = clean
    else {
        panic!("P1 must synthesize: {clean:?}");
    };
    for k in 1..=clean_iterations {
        let (dead, journal) =
            synthesize_journaled(&lib, &mut benchmarks::p1_with_width(4).1, &config, Some(k));
        assert!(dead.is_none(), "kill at {k} must not produce an outcome");
        let mut r = Report::new();
        audit_cegis_journal(&journal, "recovery", &mut r);
        assert!(r.is_clean(), "kill at {k}: {r}");
        let journal = CegisJournal::parse(&journal.serialize()).expect("wire round-trip");
        let (resumed, stats) =
            synthesize_resume(&lib, &mut benchmarks::p1_with_width(4).1, &config, &journal)
                .expect("honest journal");
        let SynthesisOutcome::Synthesized {
            program,
            iterations,
            examples,
        } = resumed
        else {
            panic!("resume from {k} lost the answer");
        };
        assert_eq!(program.lines, clean_prog.lines, "kill at {k}");
        assert_eq!(program.outputs, clean_prog.outputs, "kill at {k}");
        assert_eq!(iterations, clean_iterations, "kill at {k}");
        assert_eq!(examples, clean_examples, "kill at {k}");
        assert_eq!(stats.smt_checks, clean_stats.smt_checks, "kill at {k}");
        assert_eq!(stats.oracle_queries, clean_stats.oracle_queries);
    }
}

#[test]
fn fig6_measurement_kill_resume_is_bit_identical() {
    // Paper Fig. 6 workload: modexp on the microarchitectural platform.
    let f = programs::modexp();
    let cfg = GameTimeConfig {
        unroll_bound: 8,
        trials: 60,
        seed: 7,
        ..GameTimeConfig::default()
    };
    let clean = analyze(&f, &mut MicroarchPlatform::new(f.clone()), &cfg).unwrap();
    for kill_at in [0usize, 13, 59] {
        let (dead, journal) = analyze_journaled(
            &f,
            &mut MicroarchPlatform::new(f.clone()),
            &cfg,
            Some(kill_at),
        )
        .unwrap();
        assert!(dead.is_none(), "kill at {kill_at} must not fit a model");
        assert_eq!(journal.completed.len(), kill_at);
        let mut r = Report::new();
        audit_measurement_journal(&journal, "recovery", &mut r);
        assert!(r.is_clean(), "kill at {kill_at}: {r}");
        let journal = sciduction_gametime::MeasurementJournal::parse(&journal.serialize())
            .expect("wire round-trip");
        let resumed =
            analyze_resume(&f, &mut MicroarchPlatform::new(f.clone()), &cfg, &journal).unwrap();
        assert_eq!(resumed.model.weights, clean.model.weights, "kill={kill_at}");
        assert_eq!(resumed.model.basis_means, clean.model.basis_means);
        assert_eq!(resumed.measurements, clean.measurements);
        assert_eq!(resumed.smt_queries, clean.smt_queries);
        let a = resumed.predict_wcet().unwrap();
        let b = clean.predict_wcet().unwrap();
        assert_eq!(a.predicted_cycles, b.predicted_cycles, "kill={kill_at}");
        assert_eq!(a.test.args, b.test.args, "kill={kill_at}");
    }
}

#[test]
fn fig10_guard_search_kill_resume_is_bit_identical() {
    // Paper Sec. 5 workload: the water-tank controller (the transmission
    // figures' small sibling, same loop).
    let mds = systems::water_tank();
    let cfg = SwitchSynthConfig {
        grid: Grid::new(0.05),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 100.0,
            min_dwell: 0.0,
            equilibrium_eps: 1e-9,
        },
        budget: Budget::UNLIMITED,
        ..SwitchSynthConfig::default()
    };
    let seeds = vec![Some(vec![5.0]), Some(vec![5.0])];
    let clean = synthesize_switching(&mds, systems::water_tank_initial(), &seeds, &cfg);
    assert!(clean.converged, "water tank must converge");
    let bits = |g: &sciduction_hybrid::HyperBox| -> Vec<(u64, u64)> {
        g.lo.iter()
            .zip(&g.hi)
            .map(|(l, h)| (l.to_bits(), h.to_bits()))
            .collect()
    };
    for k in 0..clean.rounds {
        let (dead, journal) = synthesize_switching_journaled(
            &mds,
            systems::water_tank_initial(),
            &seeds,
            &cfg,
            Some(k),
        );
        assert!(dead.is_none(), "kill at {k} must not synthesize");
        assert_eq!(journal.rounds, k);
        let mut r = Report::new();
        audit_guard_journal(&journal, "recovery", &mut r);
        assert!(r.is_clean(), "kill at {k}: {r}");
        let journal = GuardSearchJournal::parse(&journal.serialize()).expect("wire round-trip");
        let resumed = synthesize_switching_resume(&mds, &seeds, &cfg, &journal).expect("resume");
        assert_eq!(resumed.converged, clean.converged, "kill at {k}");
        assert_eq!(resumed.rounds, clean.rounds, "kill at {k}");
        assert_eq!(resumed.oracle_queries, clean.oracle_queries, "kill at {k}");
        for (r_guard, c_guard) in resumed.logic.guards.iter().zip(&clean.logic.guards) {
            assert_eq!(
                bits(r_guard),
                bits(c_guard),
                "guard bits diverged after kill at {k}"
            );
        }
    }
}
