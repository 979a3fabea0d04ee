//! Portfolio SAT solving: diversified CDCL instances racing per query.
//!
//! Each member of the portfolio solves the same formula under a distinct
//! [`SolverConfig`] — different initial-phase seeds (drawn from a forked
//! `sciduction-rng` stream), restart bases, and activity-decay rates —
//! and the first member to answer cancels the rest through the shared
//! stop flag of the supervised race ([`sciduction::recover::Supervisor`]).
//! Because SAT is a decision problem, every member's answer is
//! interchangeable: a model from any member certifies SAT, a refutation
//! from any member certifies UNSAT, so first-winner racing preserves
//! verdicts exactly.
//!
//! Member 0 always runs the default configuration, which makes the
//! sequential fallback (`threads = 1`, where members run in index order
//! and member 0 always answers) bit-identical to a plain [`Solver`].

use crate::{Cnf, Lit, SolveResult, Solver, SolverConfig, Var};
use sciduction::budget::{Budget, Exhausted, Verdict};
use sciduction::exec::{lock_ignoring_poison, ExecError, FaultKind, FaultPlan, StopFlag};
use sciduction::recover::{first_panic, retry_site, Attempt, EntrantLog, RetryPolicy, Supervisor};
use sciduction_proof::{CnfFormula, Proof};
use sciduction_rng::{Rng, SeedableRng, Xoshiro256PlusPlus};
use std::sync::{Arc, Mutex};

/// Portfolio parameters.
#[derive(Clone, Copy, Debug)]
pub struct PortfolioConfig {
    /// Number of racing solver instances.
    pub members: usize,
    /// Seed diversifying the members' initial phases.
    pub seed: u64,
    /// Worker threads (1 = deterministic sequential fallback). Size this
    /// with [`sciduction::exec::configured_threads`] to honor the
    /// `SCIDUCTION_THREADS` knob.
    pub threads: usize,
    /// Per-member resource budget. Each member meters its own search
    /// against this budget; if *every* member exhausts (or is faulted
    /// away), the race reports [`Verdict::Unknown`] instead of an answer.
    /// Defaults to the `SCIDUCTION_BUDGET` knob via [`Budget::from_env`].
    pub budget: Budget,
    /// Enable DRAT proof logging on every member. The *winner's* proof is
    /// the one certified (exposed through [`PortfolioOutcome::proof`]);
    /// losers keep their entrant logs on their parked solvers. Because each
    /// member's search is deterministic and the winner is selected
    /// deterministically, the certified proof is thread-count invariant.
    pub proof: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            members: 4,
            seed: 0x5C1D_0C71,
            threads: sciduction::exec::configured_threads(),
            budget: Budget::from_env(),
            proof: false,
        }
    }
}

/// The outcome of a portfolio race, including every member that ran —
/// losers keep their clause databases, which the `PAR001` lint re-checks
/// the winner's model against.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The three-valued verdict: `Known` when some member answered,
    /// `Unknown` with a certified cause when every member exhausted its
    /// budget, was killed, or was cancelled.
    pub verdict: Verdict<SolveResult>,
    /// Index of the winning member; `None` when no member answered.
    pub winner: Option<usize>,
    /// The winner's model (empty on UNSAT or `Unknown`), dense over
    /// variables.
    pub model: Vec<bool>,
    /// The winner's failed-assumption set (empty on SAT or `Unknown`).
    pub failed_assumptions: Vec<Lit>,
    /// Every member that ran, in member order, as its last attempt left
    /// it; members never started (or killed before running) are `None`.
    /// Each ran member carries a [`Solver::budget_receipt`] the `BUD`
    /// lints audit.
    pub solvers: Vec<Option<Solver>>,
    /// The winning member's DRAT proof, present exactly when
    /// [`PortfolioConfig::proof`] was set and the verdict is
    /// `Known(Unsat)`. Checkable against [`PortfolioOutcome::proof_cnf`]
    /// (plus one unit clause per assumption, if any were supplied).
    pub proof: Option<Proof>,
    /// The certificate CNF matching [`PortfolioOutcome::proof`]: the
    /// formula exactly as the members received it.
    pub proof_cnf: Option<CnfFormula>,
    /// Per-member supervision logs (retry charges, breaker history,
    /// caught panics), indexed like the members; the `REC` lints audit
    /// them.
    pub logs: Vec<Option<EntrantLog>>,
    /// The retry policy the race ran under (zero retries for
    /// [`solve_portfolio_with_faults`]).
    pub policy: RetryPolicy,
}

/// The diversified member configurations for an `n`-member portfolio.
///
/// Member 0 is always [`SolverConfig::default`]; members 1.. vary the
/// initial-phase seed (forked from `seed` so each member's stream is
/// independent of scheduling), the restart base, and the VSIDS decay.
pub fn diversified_configs(n: usize, seed: u64) -> Vec<SolverConfig> {
    let parent = Xoshiro256PlusPlus::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i == 0 {
                return SolverConfig::default();
            }
            let mut stream = parent.fork(i as u64);
            SolverConfig {
                // A nonzero phase seed per member: the dominant
                // diversification axis.
                phase_seed: stream.random::<u64>() | 1,
                restart_base: [50, 100, 200, 400][i % 4],
                var_decay: [0.90, 0.95, 0.99][i % 3],
                ..SolverConfig::default()
            }
        })
        .collect()
}

/// Races a diversified portfolio on `cnf` under `assumptions`, with the
/// fault plan (if any) configured by the `SCIDUCTION_FAULT_SEED` knob.
///
/// Returns [`ExecError`] only if a member panicked; a clean race always
/// yields an outcome because member 0 never gives up on its own (under an
/// unlimited budget and no faults, the verdict is always `Known`).
pub fn solve_portfolio(
    cnf: &Cnf,
    assumptions: &[Lit],
    config: &PortfolioConfig,
) -> Result<PortfolioOutcome, ExecError> {
    solve_portfolio_with_faults(
        cnf,
        assumptions,
        config,
        FaultPlan::from_env().map(Arc::new),
    )
}

/// [`solve_portfolio`] with an explicit fault plan (the differential
/// fault-matrix tests inject per-kind plans here): the supervised race
/// allowing zero retries, with a member panic surfaced as an error.
///
/// Degradation contract: a faulted or exhausted member can only *fail to
/// answer* — it parks its exhaustion cause and loses the race, so a
/// surviving sibling's verdict is never flipped or masked. Only when
/// every member fails does the outcome turn `Unknown`, with the cause of
/// the lowest-indexed member parking a non-`Cancelled` one (deterministic
/// at every thread count, since fault decisions are pure in the member
/// index).
pub fn solve_portfolio_with_faults(
    cnf: &Cnf,
    assumptions: &[Lit],
    config: &PortfolioConfig,
    plan: Option<Arc<FaultPlan>>,
) -> Result<PortfolioOutcome, ExecError> {
    let out = solve_portfolio_supervised(
        cnf,
        assumptions,
        config,
        RetryPolicy::new(config.seed, 0),
        plan,
    );
    first_panic(&out.logs).map_or(Ok(out), Err)
}

/// Races a diversified portfolio under supervision: every member runs
/// inside `catch_unwind` panic isolation with deterministic retry and a
/// circuit breaker (see `sciduction::recover`).
///
/// Recovery contract: an *injected* fault (worker death, spurious
/// cancellation, forged budget exhaustion) is retried at a fresh
/// [`retry_site`] while `policy` allows, so under any fault seed the race
/// completes with the clean verdict whenever budget remains. *Honest*
/// exhaustion (the real budget binding) is not retried — the supervised
/// verdict under a tight budget equals the unsupervised one. Each attempt
/// rebuilds its solver from scratch, so a retried member searches exactly
/// as an uninterrupted first attempt would; the last attempt's solver is
/// parked in [`PortfolioOutcome::solvers`].
pub fn solve_portfolio_supervised(
    cnf: &Cnf,
    assumptions: &[Lit],
    config: &PortfolioConfig,
    policy: RetryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> PortfolioOutcome {
    let members = config.members.max(1);
    let configs = diversified_configs(members, config.seed);
    // Every attempt parks its solver here, win or lose, so the lints can
    // audit the losers' clause databases and receipts after the race.
    let parked: Vec<Mutex<Option<Solver>>> = (0..members).map(|_| Mutex::new(None)).collect();
    let (parked_ref, plan_ref) = (&parked, plan.as_deref());
    let entrants: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(i, member_config)| {
            move |stop: &StopFlag, attempt: u32| {
                // A fresh solver per attempt: retried members restart
                // from a clean clause database.
                let mut solver = Solver::with_config(member_config);
                if config.proof {
                    solver.enable_proof_logging();
                }
                let vars: Vec<Var> = (0..cnf.num_vars).map(|_| solver.new_var()).collect();
                for cl in &cnf.clauses {
                    let lits: Vec<Lit> = cl
                        .iter()
                        .map(|&v| Lit::new(vars[(v.unsigned_abs() - 1) as usize], v < 0))
                        .collect();
                    solver.add_clause(lits);
                }
                // Per-attempt budget-exhaustion injection: each retry
                // re-rolls the decision at its own site, so an injected
                // exhaustion costs a retry, not the answer.
                let site = retry_site(i as u64, attempt);
                let outcome = match plan_ref.filter(|p| p.fires(FaultKind::BudgetExhaustion, site))
                {
                    Some(p) => Attempt::Faulted(solver.record_injected_exhaustion(
                        p.seed(),
                        FaultKind::BudgetExhaustion,
                        site,
                    )),
                    None => {
                        solver.set_stop_flag(stop.handle());
                        match solver.solve_bounded_interruptible(assumptions, &config.budget) {
                            Some(Verdict::Known(r)) => Attempt::Answer((
                                r,
                                solver.model(),
                                solver.failed_assumptions().to_vec(),
                            )),
                            // Honest exhaustion: the budget is genuinely
                            // spent, retrying would only re-spend it.
                            Some(Verdict::Unknown(cause)) => Attempt::GaveUp(Some(cause)),
                            // Cancelled: lost the race (or an injected
                            // cancel, which the supervisor converts to a
                            // retryable fault).
                            None => Attempt::GaveUp(None),
                        }
                    }
                };
                *lock_ignoring_poison(&parked_ref[i]) = Some(solver);
                outcome
            }
        })
        .collect();

    let mut supervisor = Supervisor::new(config.threads, policy);
    if let Some(p) = plan.as_ref() {
        supervisor = supervisor.with_fault_plan(Arc::clone(p));
    }
    let race = supervisor.race(entrants);
    let solvers: Vec<Option<Solver>> = parked
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        })
        .collect();
    let (verdict, winner, model, failed_assumptions) = match race.win {
        Some(win) => {
            let (result, model, failed_assumptions) = win.value;
            (
                Verdict::Known(result),
                Some(win.winner),
                model,
                failed_assumptions,
            )
        }
        None => (
            Verdict::Unknown(race.verdict_cause().unwrap_or(Exhausted::Cancelled)),
            None,
            Vec::new(),
            Vec::new(),
        ),
    };
    let (proof, proof_cnf) = match (verdict, winner) {
        (Verdict::Known(SolveResult::Unsat), Some(w)) => solvers[w]
            .as_ref()
            .map_or((None, None), |s| (s.unsat_proof(), s.proof_cnf())),
        _ => (None, None),
    };
    PortfolioOutcome {
        verdict,
        winner,
        model,
        failed_assumptions,
        solvers,
        proof,
        proof_cnf,
        logs: race.logs,
        policy: race.policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pigeonhole(n: usize, m: usize) -> Cnf {
        // n pigeons into m holes: UNSAT iff n > m.
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

    fn check_model(cnf: &Cnf, model: &[bool]) {
        for cl in &cnf.clauses {
            assert!(
                cl.iter().any(|&v| {
                    let val = model[(v.unsigned_abs() - 1) as usize];
                    if v < 0 {
                        !val
                    } else {
                        val
                    }
                }),
                "model falsifies clause {cl:?}"
            );
        }
    }

    #[test]
    fn portfolio_agrees_with_sequential_on_verdicts() {
        for threads in [1, 4] {
            let config = PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            };
            let sat = pigeonhole(4, 4);
            let out = solve_portfolio(&sat, &[], &config).unwrap();
            assert_eq!(
                out.verdict,
                Verdict::Known(SolveResult::Sat),
                "threads={threads}"
            );
            check_model(&sat, &out.model);

            let unsat = pigeonhole(5, 4);
            let out = solve_portfolio(&unsat, &[], &config).unwrap();
            assert_eq!(
                out.verdict,
                Verdict::Known(SolveResult::Unsat),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn sequential_fallback_is_bit_identical_to_plain_solver() {
        let cnf = pigeonhole(4, 4);
        let config = PortfolioConfig {
            threads: 1,
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&cnf, &[], &config).unwrap();
        assert_eq!(out.winner, Some(0), "sequential mode must pick member 0");
        let (mut plain, _) = cnf.into_solver();
        assert_eq!(plain.solve(), SolveResult::Sat);
        assert_eq!(out.model, plain.model(), "bit-reproducibility broken");
    }

    #[test]
    fn portfolio_respects_assumptions() {
        // (x1 ∨ x2) with assumptions forcing both false: UNSAT under
        // assumptions, and the failed set is reported.
        let cnf = Cnf {
            num_vars: 2,
            clauses: vec![vec![1, 2]],
        };
        let assumptions = [
            Lit::negative(Var::from_index(0)),
            Lit::negative(Var::from_index(1)),
        ];
        for threads in [1, 4] {
            let config = PortfolioConfig {
                threads,
                ..PortfolioConfig::default()
            };
            let out = solve_portfolio(&cnf, &assumptions, &config).unwrap();
            assert_eq!(out.verdict, Verdict::Known(SolveResult::Unsat));
            assert!(!out.failed_assumptions.is_empty());
        }
    }

    #[test]
    fn starved_portfolio_reports_certified_unknown_at_every_thread_count() {
        let cnf = pigeonhole(5, 4);
        for threads in [1, 4] {
            let config = PortfolioConfig {
                threads,
                budget: Budget::with_conflicts(1),
                ..PortfolioConfig::default()
            };
            let out = solve_portfolio(&cnf, &[], &config).unwrap();
            let cause = out
                .verdict
                .unknown_cause()
                .unwrap_or_else(|| panic!("1 conflict cannot refute php(5,4), threads={threads}"));
            assert_eq!(out.winner, None);
            // Some parked member's receipt certifies the reported cause.
            let certified = out.solvers.iter().flatten().any(|s| {
                s.budget_receipt()
                    .is_some_and(|r| r.coherent() && r.cause == Some(cause) && r.certifies(&cause))
            });
            assert!(
                certified,
                "uncertified cause {cause:?} at threads={threads}"
            );
        }
    }

    #[test]
    fn killed_members_never_flip_the_verdict() {
        // For several fault seeds: any verdict the faulted portfolio does
        // produce must equal the clean verdict; Unknown is the only other
        // legal outcome.
        let cnf = pigeonhole(5, 4);
        for seed in 1..=8u64 {
            for threads in [1, 4] {
                let config = PortfolioConfig {
                    threads,
                    ..PortfolioConfig::default()
                };
                let plan = Arc::new(FaultPlan::targeting(seed, FaultKind::WorkerDeath));
                let out = solve_portfolio_with_faults(&cnf, &[], &config, Some(plan)).unwrap();
                match out.verdict {
                    Verdict::Known(r) => assert_eq!(r, SolveResult::Unsat, "seed={seed}"),
                    Verdict::Unknown(cause) => {
                        // All four members killed: the cause re-derives.
                        assert!(matches!(
                            cause,
                            Exhausted::Injected {
                                kind: FaultKind::WorkerDeath,
                                ..
                            } | Exhausted::Cancelled
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn supervised_portfolio_outlives_lethal_fault_plans() {
        use sciduction::recover::RetryPolicy;
        // Plans that kill every member's first attempt turn the faulted
        // portfolio Unknown; the supervised one retries at fresh sites
        // and must still deliver the clean UNSAT verdict.
        let cnf = pigeonhole(5, 4);
        for kind in [
            FaultKind::WorkerDeath,
            FaultKind::SpuriousCancel,
            FaultKind::BudgetExhaustion,
        ] {
            for seed in 1..=3u64 {
                for threads in [1, 4] {
                    let config = PortfolioConfig {
                        threads,
                        ..PortfolioConfig::default()
                    };
                    let plan = Arc::new(FaultPlan::targeting(seed, kind));
                    let policy = RetryPolicy::new(seed, 3);
                    let out = solve_portfolio_supervised(&cnf, &[], &config, policy, Some(plan));
                    assert_eq!(
                        out.verdict,
                        Verdict::Known(SolveResult::Unsat),
                        "kind={kind:?} seed={seed} threads={threads}"
                    );
                    assert!(out.winner.is_some());
                }
            }
        }
    }

    #[test]
    fn supervised_portfolio_parks_honest_exhaustion_without_retrying() {
        use sciduction::recover::RetryPolicy;
        // A one-conflict budget is honest exhaustion: supervision must
        // report it (certified), not burn retries re-spending it.
        let cnf = pigeonhole(5, 4);
        let config = PortfolioConfig {
            threads: 1,
            budget: Budget::with_conflicts(1),
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio_supervised(&cnf, &[], &config, RetryPolicy::new(7, 3), None);
        let cause = out
            .verdict
            .unknown_cause()
            .expect("1 conflict cannot refute php(5,4)");
        assert!(matches!(cause, Exhausted::Conflicts { limit: 1, .. }));
        let log = out.logs[0].as_ref().expect("member 0 started");
        assert_eq!(log.attempts, 1, "honest exhaustion must not retry");
        assert!(log.retries.is_empty());
    }

    #[test]
    fn diversified_member_zero_is_default() {
        let configs = diversified_configs(4, 7);
        assert_eq!(configs[0].phase_seed, 0);
        assert_eq!(configs[0].restart_base, 100);
        // Later members are pairwise distinct in phase seed.
        assert_ne!(configs[1].phase_seed, configs[2].phase_seed);
        assert_ne!(configs[2].phase_seed, configs[3].phase_seed);
        for c in &configs[1..] {
            assert_ne!(c.phase_seed, 0);
        }
    }

    #[test]
    fn phase_seed_changes_branching_but_not_verdicts() {
        let cnf = pigeonhole(5, 5);
        for seed in [0u64, 1, 0xABCD] {
            let cfg = SolverConfig {
                phase_seed: seed,
                ..SolverConfig::default()
            };
            let mut s = Solver::with_config(cfg);
            let vars: Vec<Var> = (0..cnf.num_vars).map(|_| s.new_var()).collect();
            for cl in &cnf.clauses {
                let lits: Vec<Lit> = cl
                    .iter()
                    .map(|&v| Lit::new(vars[(v.unsigned_abs() - 1) as usize], v < 0))
                    .collect();
                s.add_clause(lits);
            }
            assert_eq!(s.solve(), SolveResult::Sat);
        }
    }

    #[test]
    fn interrupted_solver_remains_usable() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let cnf = pigeonhole(6, 5);
        let (mut s, _) = cnf.into_solver();
        let flag = Arc::new(AtomicBool::new(true)); // pre-tripped
        s.set_stop_flag(Arc::clone(&flag));
        assert_eq!(s.solve_interruptible(&[]), None, "must observe the flag");
        // Clear and re-solve to completion: state is clean.
        s.clear_stop_flag();
        assert_eq!(s.solve(), SolveResult::Unsat);
    }
}
