//! Property tests for the resource-budget subsystem.
//!
//! The contract under test:
//!
//! * **Refuse-at-limit** — a [`BudgetMeter`] never spends past any limit
//!   (no counter underflow/overrun is representable in its receipt), and
//!   the first refusal's cause is sticky.
//! * **Determinism** — metering is a pure fold over the charge sequence:
//!   the same sequence yields bitwise-identical receipts, and a starved
//!   solver race reports the same `Unknown` cause at every thread count.
//! * **Pay-as-you-go** — an ample finite budget is observationally
//!   identical to `Budget::UNLIMITED` on the paper's fig. 6 (GameTime),
//!   fig. 8 (OGIS), and fig. 10 (hybrid) workloads: bounded checking
//!   costs nothing until a limit actually binds.

use sciduction::{Budget, BudgetMeter, BudgetReceipt, Exhausted, Verdict};
use sciduction_gametime::{analyze, GameTimeConfig, MicroarchPlatform};
use sciduction_hybrid::{synthesize_switching, systems, Grid, SwitchSynthConfig};
use sciduction_ir::programs;
use sciduction_ogis::{
    benchmarks, synthesize, synthesize_portfolio, ParallelSynthesisConfig, SynthesisConfig,
    SynthesisOutcome,
};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{Rng, SeedableRng};
use sciduction_sat::{solve_portfolio, Cnf, PortfolioConfig, SolveResult};

// ---------------------------------------------------------------------------
// Meter properties
// ---------------------------------------------------------------------------

/// One randomized charge against the meter, mirrored onto a shadow model.
fn random_charge(meter: &mut BudgetMeter, rng: &mut StdRng) -> Result<(), Exhausted> {
    match rng.random_range(0..5u64) {
        0 => meter.charge_conflict(),
        1 => meter.charge_step(),
        2 => meter.charge_fuel(),
        3 => meter.charge_step_batch(rng.random_range(0..7u64)),
        _ => meter.charge_fuel_batch(rng.random_range(0..7u64)),
    }
}

#[test]
fn meter_never_spends_past_any_limit() {
    let mut rng = StdRng::seed_from_u64(0xB06E7);
    for case in 0..200 {
        let budget = Budget {
            conflicts: rng.random_range(0..12u64),
            steps: rng.random_range(0..12u64),
            fuel: rng.random_range(0..12u64),
            deadline: rng.random_range(1..24u64),
        };
        // A metered engine stops at the first refusal — that is the
        // contract these invariants hold under.
        let mut meter = BudgetMeter::new(budget);
        let mut refusal = None;
        for _ in 0..64 {
            match random_charge(&mut meter, &mut rng) {
                Ok(()) => {}
                Err(cause) => {
                    refusal = Some(cause);
                    break;
                }
            }
            let r = meter.receipt();
            assert!(
                r.conflicts <= budget.conflicts
                    && r.steps <= budget.steps
                    && r.fuel <= budget.fuel
                    && r.clock < budget.deadline,
                "case {case}: receipt overran its budget: {r:?}"
            );
            assert!(r.coherent(), "case {case}: incoherent receipt {r:?}");
            assert_eq!(r.cause, None, "case {case}: cause before any refusal");
        }
        let cause = refusal.expect("a budget this small must bind within 64 charges");
        let r = meter.receipt();
        assert_eq!(r.cause, Some(cause), "case {case}");
        assert!(r.coherent(), "case {case}: incoherent receipt {r:?}");
        assert!(
            r.certifies(&cause),
            "case {case}: uncertified {cause:?} by {r:?}"
        );
        // No counter ever overruns its limit, refusal included: the
        // refused charge either left the counter alone or consumed the
        // exact remaining headroom.
        assert!(
            r.conflicts <= budget.conflicts && r.steps <= budget.steps && r.fuel <= budget.fuel,
            "case {case}: counter overran at refusal: {r:?}"
        );
        // Re-issuing the refused charge keeps refusing with the very
        // same certified cause; nothing is spent after exhaustion.
        let replay = match cause {
            Exhausted::Conflicts { .. } => meter.charge_conflict(),
            Exhausted::Steps { .. } => meter.charge_step(),
            Exhausted::Fuel { .. } => meter.charge_fuel(),
            Exhausted::Deadline { .. } => continue,
            other => panic!("case {case}: unexpected cause {other:?}"),
        };
        assert_eq!(replay, Err(cause), "case {case}: refusal not stable");
        assert_eq!(meter.receipt(), r, "case {case}: spend after exhaustion");
    }
}

#[test]
fn metering_is_a_pure_fold_over_the_charge_sequence() {
    for seed in 0..50u64 {
        let budget = Budget {
            conflicts: 9,
            steps: 6,
            fuel: 4,
            deadline: 15,
        };
        let run = || -> BudgetReceipt {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut meter = BudgetMeter::new(budget);
            for _ in 0..48 {
                let _ = random_charge(&mut meter, &mut rng);
            }
            meter.receipt()
        };
        assert_eq!(run(), run(), "seed {seed}: replay diverged");
    }
}

#[test]
fn deadline_counts_every_charge_kind() {
    let mut meter = BudgetMeter::new(Budget::with_deadline(3));
    assert!(meter.charge_conflict().is_ok());
    assert!(meter.charge_step().is_ok());
    // The third charge of *any* kind lands on the deadline and is the
    // one refused — the logical clock is charge-kind blind.
    let cause = meter.charge_fuel().unwrap_err();
    assert_eq!(cause, Exhausted::Deadline { limit: 3, clock: 3 });
    let r = meter.receipt();
    assert!(r.coherent() && r.certifies(&cause), "{r:?}");
}

// ---------------------------------------------------------------------------
// Thread-count invariance of exhaustion
// ---------------------------------------------------------------------------

/// Pigeonhole PHP(n+1, n): UNSAT, and hard enough that a small conflict
/// budget deterministically binds.
fn php(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| (p * holes + h + 1) as i64;
    let mut clauses: Vec<Vec<i64>> = (0..pigeons)
        .map(|p| (0..holes).map(|h| var(p, h)).collect())
        .collect();
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![-var(p1, h), -var(p2, h)]);
            }
        }
    }
    Cnf {
        num_vars: pigeons * holes,
        clauses,
    }
}

#[test]
fn starved_race_reports_the_same_cause_at_every_thread_count() {
    let cnf = php(5);
    let mut verdicts = Vec::new();
    for threads in [1usize, 2, 4] {
        let config = PortfolioConfig {
            members: 4,
            threads,
            budget: Budget::with_conflicts(3),
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
        assert!(
            matches!(
                out.verdict,
                Verdict::Unknown(Exhausted::Conflicts { limit: 3, .. })
            ),
            "{threads} thread(s): {:?}",
            out.verdict
        );
        verdicts.push(out.verdict);
    }
    assert!(
        verdicts.windows(2).all(|w| w[0] == w[1]),
        "exhaustion cause varies with thread count: {verdicts:?}"
    );

    // An ample budget resolves the same instance identically everywhere.
    for threads in [1usize, 2, 4] {
        let config = PortfolioConfig {
            members: 4,
            threads,
            budget: Budget::with_conflicts(1_000_000),
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
        assert_eq!(out.verdict, Verdict::Known(SolveResult::Unsat));
    }
}

/// The `(cause, iterations)` of a `BudgetExhausted` outcome.
fn exhaustion(outcome: &SynthesisOutcome) -> Option<(Exhausted, usize)> {
    match outcome {
        SynthesisOutcome::BudgetExhausted { cause, iterations } => Some((*cause, *iterations)),
        _ => None,
    }
}

#[test]
fn starved_ogis_race_keeps_member_zeros_exhaustion_at_every_thread_count() {
    // Three SMT checks cannot close the floor-average loop for any
    // member: the race must settle on member 0's own outcome, as its
    // direct run reports it.
    let width = 3u32;
    let (lib, mut oracle) = benchmarks::extra::average_floor(width);
    let config = SynthesisConfig {
        budget: Budget::with_steps(3),
        ..SynthesisConfig::default()
    };
    let (direct, _) = synthesize(&lib, &mut oracle, &config);
    let expected = exhaustion(&direct).expect("three steps cannot synthesize the average");
    for threads in [1usize, 2, 4] {
        let out = synthesize_portfolio(
            &lib,
            |_| benchmarks::extra::average_floor(width).1,
            &config,
            &ParallelSynthesisConfig {
                threads,
                ..ParallelSynthesisConfig::default()
            },
        )
        .expect("no member panics");
        assert_eq!(out.winner, None, "{threads} thread(s)");
        assert_eq!(
            exhaustion(&out.outcome),
            Some(expected),
            "{threads} thread(s): {:?}",
            out.outcome
        );
    }
}

// ---------------------------------------------------------------------------
// Ample-finite ≡ unlimited on the paper workloads
// ---------------------------------------------------------------------------

/// A finite budget far above what the workloads below actually spend.
fn ample() -> Budget {
    Budget {
        conflicts: 50_000_000,
        steps: 50_000_000,
        fuel: 50_000_000,
        deadline: 100_000_000,
    }
}

#[test]
fn fig6_gametime_bit_identical_under_ample_budget() {
    let f = programs::modexp();
    let run = |budget: Budget| {
        let config = GameTimeConfig {
            unroll_bound: 8,
            trials: 60,
            budget,
            ..GameTimeConfig::default()
        };
        let mut platform = MicroarchPlatform::new(f.clone());
        analyze(&f, &mut platform, &config).expect("analysis succeeds")
    };
    let unlimited = run(Budget::UNLIMITED);
    let bounded = run(ample());
    assert_eq!(unlimited.measurements, bounded.measurements);
    assert_eq!(unlimited.smt_queries, bounded.smt_queries);
    assert_eq!(unlimited.basis.rank(), bounded.basis.rank());
    // Weights are exact rationals, so equality is already bit-identity.
    assert_eq!(unlimited.model.weights, bounded.model.weights);
    assert_eq!(unlimited.model.basis_means, bounded.model.basis_means);
    match (unlimited.predict_wcet(), bounded.predict_wcet()) {
        (Some(u), Some(b)) => {
            assert_eq!(u.predicted_cycles, b.predicted_cycles);
            assert_eq!(u.test.args, b.test.args);
        }
        (u, b) => panic!("wcet presence diverged ({u:?} vs {b:?})"),
    }
}

#[test]
fn fig8_ogis_bit_identical_under_ample_budget() {
    let (lib, _) = benchmarks::p1_with_width(4);
    let run = |budget: Budget| {
        let config = SynthesisConfig {
            budget,
            ..SynthesisConfig::default()
        };
        let mut oracle = benchmarks::p1_with_width(4).1;
        synthesize(&lib, &mut oracle, &config)
    };
    let (unlimited, u_stats) = run(Budget::UNLIMITED);
    let (bounded, b_stats) = run(ample());
    let (
        SynthesisOutcome::Synthesized {
            program: u_prog,
            iterations: u_iters,
            examples: u_examples,
        },
        SynthesisOutcome::Synthesized {
            program: b_prog,
            iterations: b_iters,
            examples: b_examples,
        },
    ) = (unlimited, bounded)
    else {
        panic!("P1 must synthesize under both budgets");
    };
    assert_eq!(u_prog, b_prog, "programs diverged");
    assert_eq!(u_iters, b_iters);
    assert_eq!(u_examples, b_examples);
    assert_eq!(u_stats.smt_checks, b_stats.smt_checks);
}

#[test]
fn fig10_hybrid_bit_identical_under_ample_budget() {
    let mds = systems::water_tank();
    let run = |budget: Budget| {
        let config = SwitchSynthConfig {
            grid: Grid::new(0.05),
            budget,
            ..SwitchSynthConfig::default()
        };
        synthesize_switching(
            &mds,
            systems::water_tank_initial(),
            &[Some(vec![5.0]), Some(vec![5.0])],
            &config,
        )
    };
    let unlimited = run(Budget::UNLIMITED);
    let bounded = run(ample());
    assert!(bounded.exhausted.is_none());
    assert_eq!(unlimited.converged, bounded.converged);
    assert_eq!(unlimited.rounds, bounded.rounds);
    assert_eq!(unlimited.oracle_queries, bounded.oracle_queries);
    assert_eq!(unlimited.logic.guards, bounded.logic.guards);
}
