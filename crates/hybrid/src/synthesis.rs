//! Switching-logic synthesis: the fixpoint loop of paper Sec. 5.2.
//!
//! "Our overall approach … operates within a fixpoint computation loop
//! that initializes each guard with an overapproximate hyperbox, and then
//! iteratively shrinks entry guards using the hyperbox learning algorithm
//! that selects states, queries the simulator for labels, and then infers
//! a smaller hyperbox from the resulting labeled states."

use crate::hyperbox::{find_seed, learn_hyperbox, Grid, HyperBox};
use crate::journal::GuardSearchJournal;
use crate::mds::{reach_label, DwellPrefixCache, Mds, ReachConfig, ReachVerdict, SwitchingLogic};
use sciduction::budget::{Budget, BudgetMeter, Exhausted};
use sciduction::exec::{ExecError, ParallelOracle};
use sciduction::recover::JournalError;
use sciduction::ValidityEvidence;

/// Configuration of the synthesis loop.
#[derive(Clone, Debug)]
pub struct SwitchSynthConfig {
    /// The guard grid (paper: finite-precision recording of continuous
    /// variables; the transmission experiment uses 0.01).
    pub grid: Grid,
    /// Reach-oracle (numerical simulation) settings, including the
    /// dwell-time requirement for the Eq. (4) variant.
    pub reach: ReachConfig,
    /// Maximum fixpoint rounds.
    pub max_rounds: usize,
    /// Query budget for seed search when no hint is given.
    pub seed_budget: u64,
    /// Resource budget: each fixpoint round charges one step, and every
    /// simulation-oracle query charges one fuel unit. Exhaustion stops
    /// the loop gracefully — the partially-shrunk guards are returned
    /// with [`SwitchSynthesis::exhausted`] set, never silently presented
    /// as converged. Defaults to the `SCIDUCTION_BUDGET` knob.
    pub budget: Budget,
}

impl Default for SwitchSynthConfig {
    fn default() -> Self {
        SwitchSynthConfig {
            grid: Grid::new(0.01),
            reach: ReachConfig::default(),
            max_rounds: 8,
            seed_budget: 256,
            budget: Budget::from_env(),
        }
    }
}

/// The result of switching-logic synthesis.
#[derive(Clone, Debug)]
pub struct SwitchSynthesis {
    /// The synthesized guards.
    pub logic: SwitchingLogic,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Whether a fixpoint was reached within the round budget.
    pub converged: bool,
    /// Total reachability-oracle (simulation) queries.
    pub oracle_queries: u64,
    /// Set when the resource budget ran out mid-synthesis: the guards are
    /// a partial refinement (each still inside its initial
    /// overapproximation) and must be validated before use.
    pub exhausted: Option<Exhausted>,
}

/// Synthesizes switching logic for safety by fixpoint iteration of
/// hyperbox learning.
///
/// `initial` supplies the overapproximate guards (the paper initializes
/// them with the safety region); transitions marked non-learnable keep
/// their guards verbatim. `seeds[t]`, when provided, anchors the learner
/// for transition `t` at a state known (or believed) safe — the codified
/// human insight the structure hypothesis represents; otherwise a grid
/// scan finds a seed.
pub fn synthesize_switching(
    mds: &Mds,
    initial: SwitchingLogic,
    seeds: &[Option<Vec<f64>>],
    config: &SwitchSynthConfig,
) -> SwitchSynthesis {
    let mut record = GuardSearchJournal::default();
    synthesize_rounds(
        mds,
        initial,
        seeds,
        config,
        0,
        0,
        BudgetMeter::new(config.budget),
        None,
        &mut record,
    )
    .expect("a run with no kill point always completes")
}

/// [`synthesize_switching`] with a checkpoint journal, plus an optional
/// crash point for differential testing: `kill_at = Some(k)` aborts the
/// run at the boundary *before* fixpoint round `k + 1`, returning `None`
/// and a journal holding exactly `k` completed rounds. The journal is
/// updated at every round boundary regardless, so callers can persist it
/// incrementally and [`synthesize_switching_resume`] after a real crash.
pub fn synthesize_switching_journaled(
    mds: &Mds,
    initial: SwitchingLogic,
    seeds: &[Option<Vec<f64>>],
    config: &SwitchSynthConfig,
    kill_at: Option<usize>,
) -> (Option<SwitchSynthesis>, GuardSearchJournal) {
    let mut record = GuardSearchJournal::default();
    let out = synthesize_rounds(
        mds,
        initial,
        seeds,
        config,
        0,
        0,
        BudgetMeter::new(config.budget),
        kill_at,
        &mut record,
    );
    (out, record)
}

/// Resumes a guard search from a [`GuardSearchJournal`], reaching the
/// bit-identical artifact an uninterrupted run would have produced: each
/// fixpoint round is a pure function of the current guards and the
/// configuration, the journal restores the guards by exact `f64` bit
/// pattern, and the budget meter is restored from the journaled receipt
/// so the resumed run keeps paying against the same account.
///
/// The initial overapproximation is not needed — the journaled guards
/// (checkpointed at round 0) already carry it.
///
/// # Errors
///
/// [`JournalError::Mismatch`] when the journal was recorded under a
/// different grid, budget, or system shape; [`JournalError::Divergence`]
/// when its internal ledger is inconsistent (see
/// [`GuardSearchJournal::check`]).
pub fn synthesize_switching_resume(
    mds: &Mds,
    seeds: &[Option<Vec<f64>>],
    config: &SwitchSynthConfig,
    journal: &GuardSearchJournal,
) -> Result<SwitchSynthesis, JournalError> {
    journal.check()?;
    if journal.grid != config.grid.precision.to_bits() {
        return Err(JournalError::Mismatch { field: "grid" });
    }
    if journal.budget != config.budget {
        return Err(JournalError::Mismatch { field: "budget" });
    }
    if journal.guards.len() != mds.transitions.len() {
        return Err(JournalError::Mismatch {
            field: "transition count",
        });
    }
    if journal.rounds > config.max_rounds {
        return Err(JournalError::Divergence {
            at: journal.rounds,
            detail: "more completed rounds than the configured maximum".into(),
        });
    }
    let logic = SwitchingLogic {
        guards: journal.decode_guards(),
    };
    if logic.guards.iter().any(|g| g.dim() != mds.dim) {
        return Err(JournalError::Mismatch {
            field: "state dimension",
        });
    }
    let meter = BudgetMeter::from_receipt(&journal.receipt());
    let mut record = GuardSearchJournal::default();
    Ok(synthesize_rounds(
        mds,
        logic,
        seeds,
        config,
        journal.rounds,
        journal.oracle_queries,
        meter,
        None,
        &mut record,
    )
    .expect("a run with no kill point always completes"))
}

/// The fixpoint loop itself, parameterized over restored state (for
/// resume) and a kill point (for crash testing). Checkpoints `record` at
/// every round boundary.
#[allow(clippy::too_many_arguments)]
fn synthesize_rounds(
    mds: &Mds,
    mut logic: SwitchingLogic,
    seeds: &[Option<Vec<f64>>],
    config: &SwitchSynthConfig,
    mut rounds: usize,
    mut queries: u64,
    mut meter: BudgetMeter,
    kill_at: Option<usize>,
    record: &mut GuardSearchJournal,
) -> Option<SwitchSynthesis> {
    assert_eq!(logic.guards.len(), mds.transitions.len());
    assert_eq!(seeds.len(), mds.transitions.len());
    record.grid = config.grid.precision.to_bits();
    record.budget = config.budget;
    record.checkpoint(&logic.guards, rounds, queries, &meter.receipt());
    let mut converged = false;
    let mut exhausted = None;
    // The oracle's dwell prefixes, memoized for this call only: a hit is
    // still one query, counted and charged like a miss.
    let mut oracle = DwellPrefixCache::new(mds, &config.reach);
    'rounds: while rounds < config.max_rounds {
        if kill_at == Some(rounds) {
            return None;
        }
        // One step per fixpoint round; a refused charge ends synthesis
        // with the guards refined so far (learning only shrinks, so each
        // partial guard is still inside its initial overapproximation).
        if let Err(cause) = meter.charge_step() {
            exhausted = Some(cause);
            break;
        }
        rounds += 1;
        let mut changed = false;
        for (t, transition) in mds.transitions.iter().enumerate() {
            if !transition.learnable {
                continue;
            }
            let target_mode = transition.to;
            let bound = logic.guards[t].clone();
            if bound.is_empty() {
                continue;
            }
            let mut label =
                |x: &[f64]| oracle.reach_label(&logic, target_mode, x) == ReachVerdict::Safe;
            // Seed: hint if provided, else grid scan.
            let (seed, s1) = match &seeds[t] {
                Some(hint) => find_seed(
                    &bound,
                    std::slice::from_ref(hint),
                    config.grid,
                    config.seed_budget,
                    &mut label,
                ),
                None => find_seed(&bound, &[], config.grid, config.seed_budget, &mut label),
            };
            queries += s1.queries;
            let mut learn_queries = 0;
            let new_guard = match seed {
                None => HyperBox::empty(mds.dim),
                Some(seed) => {
                    let (learned, s2) = learn_hyperbox(&bound, &seed, config.grid, &mut label);
                    queries += s2.queries;
                    learn_queries = s2.queries;
                    learned
                        .map(|b| b.intersect(&bound))
                        .unwrap_or_else(|| HyperBox::empty(mds.dim))
                }
            };
            if new_guard != logic.guards[t] {
                logic.guards[t] = new_guard;
                changed = true;
            }
            // Fuel accounting for the simulation-oracle queries this
            // transition consumed; a refused batch keeps the guard just
            // learned but refines nothing further.
            if let Err(cause) = meter.charge_fuel_batch(s1.queries + learn_queries) {
                exhausted = Some(cause);
                break 'rounds;
            }
        }
        record.checkpoint(&logic.guards, rounds, queries, &meter.receipt());
        if !changed {
            converged = true;
            break;
        }
    }
    // Certificate check: every synthesized guard must have the state
    // dimension, carry no NaN bound, and — since learning only ever
    // shrinks — stay inside its initial overapproximation. In debug builds
    // the guards are additionally audited against the recording grid.
    for (t, g) in logic.guards.iter().enumerate() {
        assert!(
            g.dim() == mds.dim && g.lo.iter().chain(&g.hi).all(|v| !v.is_nan()),
            "switching-logic certificate violation: malformed guard for \
             transition '{}'",
            mds.transitions[t].name
        );
        debug_assert!(
            g.is_empty()
                || g.lo.iter().chain(&g.hi).all(|&v| {
                    !v.is_finite()
                        || ((v / config.grid.precision).round() * config.grid.precision - v).abs()
                            < config.grid.precision * 1e-6 + 1e-9
                }),
            "switching-logic deep audit: guard vertex for transition '{}' \
             is off the recording grid",
            mds.transitions[t].name
        );
    }
    Some(SwitchSynthesis {
        logic,
        rounds,
        converged,
        oracle_queries: queries,
        exhausted,
    })
}

/// The deterministic stratified validation samples of every learnable,
/// non-empty guard: `samples_per_guard` points along each guard's
/// diagonal (coordinate 0 on unbounded dimensions), each paired with the
/// transition's target mode.
fn validation_samples(
    mds: &Mds,
    logic: &SwitchingLogic,
    samples_per_guard: usize,
) -> Vec<(usize, Vec<f64>)> {
    let mut samples = Vec::new();
    for (t, tr) in mds.transitions.iter().enumerate() {
        let g = &logic.guards[t];
        if !tr.learnable || g.is_empty() {
            continue;
        }
        for k in 0..samples_per_guard {
            let frac = (k as f64 + 0.5) / samples_per_guard as f64;
            let x =
                g.lo.iter()
                    .zip(&g.hi)
                    .map(|(l, h)| {
                        if l.is_finite() && h.is_finite() {
                            l + frac * (h - l)
                        } else {
                            0.0
                        }
                    })
                    .collect();
            samples.push((tr.to, x));
        }
    }
    samples
}

/// The evidence of a validation sweep over `trials` samples.
fn sweep_evidence(trials: usize, violations: usize) -> ValidityEvidence {
    ValidityEvidence::EmpiricallyTested {
        description: "dense sweep: every sampled switching state in every learned guard \
                      keeps the trajectory safe until an exit is enabled"
            .into(),
        trials: trials as u64,
        violations: violations as u64,
    }
}

/// A-posteriori validation of synthesized logic (paper Sec. 5.3: when the
/// hypothesis or the simulator's ideality is in doubt, "one must
/// separately formally verify that the synthesized system satisfies the
/// safety property"): densely samples every learnable guard and checks the
/// reach oracle's verdict.
pub fn validate_logic(
    mds: &Mds,
    logic: &SwitchingLogic,
    samples_per_guard: usize,
    config: &ReachConfig,
) -> ValidityEvidence {
    let samples = validation_samples(mds, logic, samples_per_guard);
    let violations = samples
        .iter()
        .filter(|(mode, x)| reach_label(mds, logic, *mode, x, config) != ReachVerdict::Safe)
        .count();
    sweep_evidence(samples.len(), violations)
}

/// [`validate_logic`] with the per-sample reachability simulations fanned
/// out across `threads` workers (1 = sequential). The sample set and the
/// per-sample verdicts are deterministic, so trial and violation counts
/// are identical to the sequential sweep at every thread count.
///
/// # Errors
///
/// [`ExecError`] if a simulation worker panics.
pub fn par_validate_logic(
    mds: &Mds,
    logic: &SwitchingLogic,
    samples_per_guard: usize,
    config: &ReachConfig,
    threads: usize,
) -> Result<ValidityEvidence, ExecError> {
    let samples = validation_samples(mds, logic, samples_per_guard);
    let verdicts = ParallelOracle::new(threads).map(&samples, |_, (mode, x)| {
        reach_label(mds, logic, *mode, x, config) == ReachVerdict::Safe
    })?;
    let violations = verdicts.iter().filter(|&&safe| !safe).count();
    Ok(sweep_evidence(samples.len(), violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mds::tests::thermostat;
    use std::sync::Arc;

    #[test]
    fn thermostat_guards_shrink_to_safe_band() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        let out = synthesize_switching(&mds, initial, &seeds, &cfg);
        assert!(out.converged, "fixpoint not reached");
        // Entering either mode is safe exactly within the band (the other
        // mode's guard, as an exit, is enabled throughout the band).
        for g in &out.logic.guards {
            assert!(g.lo[0] >= 14.9, "lo {}", g.lo[0]);
            assert!(g.hi[0] <= 30.1, "hi {}", g.hi[0]);
            assert!(g.hi[0] - g.lo[0] > 10.0, "band too small: {g}");
        }
        assert!(out.oracle_queries > 0);
        // Validation: all sampled guard states safe.
        match validate_logic(&mds, &out.logic, 25, &cfg.reach) {
            ValidityEvidence::EmpiricallyTested {
                trials, violations, ..
            } => {
                assert_eq!(violations, 0, "unsafe switching state survived");
                assert_eq!(trials, 50);
            }
            other => panic!("unexpected evidence {other:?}"),
        }
    }

    #[test]
    fn parallel_validation_matches_sequential_counts() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        let out = synthesize_switching(&mds, initial, &seeds, &cfg);
        let ValidityEvidence::EmpiricallyTested {
            trials: st,
            violations: sv,
            ..
        } = validate_logic(&mds, &out.logic, 25, &cfg.reach)
        else {
            panic!("unexpected evidence shape");
        };
        for threads in [1, 4] {
            match par_validate_logic(&mds, &out.logic, 25, &cfg.reach, threads).unwrap() {
                ValidityEvidence::EmpiricallyTested {
                    trials, violations, ..
                } => {
                    assert_eq!(trials, st, "threads={threads}");
                    assert_eq!(violations, sv, "threads={threads}");
                }
                other => panic!("unexpected evidence {other:?}"),
            }
        }
    }

    #[test]
    fn batched_simulation_matches_individual_runs() {
        use crate::mds::{simulate_hybrid_batch, simulate_hybrid_with_policy, SwitchPolicy};
        let mds = thermostat();
        let mut logic = SwitchingLogic::permissive(&mds);
        logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
        logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);
        let cfg = ReachConfig {
            horizon: 5.0,
            ..ReachConfig::default()
        };
        let starts: Vec<Vec<f64>> = (0..6).map(|i| vec![17.0 + i as f64 * 1.5]).collect();
        for threads in [1, 4] {
            let batch = simulate_hybrid_batch(
                &mds,
                &logic,
                &[0, 1],
                &starts,
                &cfg,
                SwitchPolicy::Eager,
                threads,
            )
            .unwrap();
            assert_eq!(batch.len(), starts.len());
            for (x0, (samples, safe)) in starts.iter().zip(&batch) {
                let (expect, expect_safe) = simulate_hybrid_with_policy(
                    &mds,
                    &logic,
                    &[0, 1],
                    x0,
                    &cfg,
                    SwitchPolicy::Eager,
                );
                assert_eq!(*safe, expect_safe, "threads={threads}, x0={x0:?}");
                assert_eq!(samples.len(), expect.len());
                for (a, b) in samples.iter().zip(&expect) {
                    assert_eq!(a.time.to_bits(), b.time.to_bits());
                    assert_eq!(a.mode, b.mode);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a.state), bits(&b.state));
                }
            }
        }
    }

    #[test]
    fn starved_synthesis_degrades_gracefully_and_never_claims_convergence() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        // Step starvation: one round runs, the second is refused.
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            budget: Budget::with_steps(1),
            ..SwitchSynthConfig::default()
        };
        let out = synthesize_switching(&mds, initial.clone(), &seeds, &cfg);
        assert_eq!(out.rounds, 1);
        assert!(!out.converged, "a starved run must not claim convergence");
        assert_eq!(out.exhausted, Some(Exhausted::Steps { limit: 1, spent: 1 }));
        // Partial guards stay inside the initial overapproximation.
        for g in &out.logic.guards {
            assert!(g.lo[0] >= 0.0 && g.hi[0] <= 50.0, "guard escaped: {g}");
        }
        // Fuel starvation: the first transition's oracle queries overrun
        // the cap; its learned guard is kept, nothing further refines.
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            budget: Budget::with_fuel(10),
            ..SwitchSynthConfig::default()
        };
        let out = synthesize_switching(&mds, initial.clone(), &seeds, &cfg);
        assert!(matches!(
            out.exhausted,
            Some(Exhausted::Fuel { limit: 10, .. })
        ));
        assert!(!out.converged);
        // An ample budget reproduces the unlimited run exactly.
        let ample = SwitchSynthConfig {
            grid: Grid::new(0.1),
            budget: Budget {
                steps: 1_000,
                fuel: 1_000_000,
                ..Budget::UNLIMITED
            },
            ..SwitchSynthConfig::default()
        };
        let unlimited_cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let a = synthesize_switching(&mds, initial.clone(), &seeds, &ample);
        let u = synthesize_switching(&mds, initial, &seeds, &unlimited_cfg);
        assert!(a.exhausted.is_none());
        assert_eq!(a.converged, u.converged);
        assert_eq!(a.rounds, u.rounds);
        assert_eq!(a.oracle_queries, u.oracle_queries);
        assert_eq!(a.logic.guards, u.logic.guards);
    }

    #[test]
    fn killed_and_resumed_synthesis_reaches_the_identical_guards() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let clean = synthesize_switching(&mds, initial.clone(), &seeds, &cfg);
        assert!(clean.converged);
        assert!(clean.rounds >= 2, "workload too easy: {}", clean.rounds);
        let bits = |g: &HyperBox| -> Vec<(u64, u64)> {
            g.lo.iter()
                .zip(&g.hi)
                .map(|(l, h)| (l.to_bits(), h.to_bits()))
                .collect()
        };
        for k in 0..clean.rounds {
            let (out, journal) =
                synthesize_switching_journaled(&mds, initial.clone(), &seeds, &cfg, Some(k));
            assert!(out.is_none(), "kill at {k} did not kill");
            assert_eq!(journal.rounds, k);
            // The journal survives its wire format.
            let journal = GuardSearchJournal::parse(&journal.serialize()).expect("round trip");
            let resumed =
                synthesize_switching_resume(&mds, &seeds, &cfg, &journal).expect("resume");
            assert_eq!(resumed.converged, clean.converged, "kill at {k}");
            assert_eq!(resumed.rounds, clean.rounds, "kill at {k}");
            assert_eq!(resumed.oracle_queries, clean.oracle_queries, "kill at {k}");
            assert_eq!(resumed.exhausted, clean.exhausted, "kill at {k}");
            for (r, c) in resumed.logic.guards.iter().zip(&clean.logic.guards) {
                assert_eq!(bits(r), bits(c), "guard bits diverged after kill at {k}");
            }
        }
        // A kill point past the fixpoint never fires.
        let (out, _) = synthesize_switching_journaled(
            &mds,
            initial.clone(),
            &seeds,
            &cfg,
            Some(clean.rounds + 1),
        );
        let full = out.expect("run past the fixpoint completes");
        assert_eq!(full.rounds, clean.rounds);
        assert_eq!(full.logic.guards, clean.logic.guards);
    }

    #[test]
    fn resume_pays_against_the_journaled_budget_account() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        // Probe the fixpoint depth, then set a step budget one short of
        // it so the clean run provably exhausts.
        let probe_cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            budget: Budget::UNLIMITED,
            ..SwitchSynthConfig::default()
        };
        let probe = synthesize_switching(&mds, initial.clone(), &seeds, &probe_cfg);
        assert!(probe.converged && probe.rounds >= 2);
        let starve = probe.rounds as u64 - 1;
        let cfg = SwitchSynthConfig {
            budget: Budget::with_steps(starve),
            ..probe_cfg
        };
        let clean = synthesize_switching(&mds, initial.clone(), &seeds, &cfg);
        assert_eq!(clean.rounds as u64, starve);
        assert_eq!(
            clean.exhausted,
            Some(Exhausted::Steps {
                limit: starve,
                spent: starve
            })
        );
        // Resume after one completed round: the restored meter has one
        // step left, not a fresh budget of two.
        let (out, journal) = synthesize_switching_journaled(&mds, initial, &seeds, &cfg, Some(1));
        assert!(out.is_none());
        let resumed = synthesize_switching_resume(&mds, &seeds, &cfg, &journal).expect("resume");
        assert_eq!(resumed.rounds, clean.rounds);
        assert_eq!(resumed.exhausted, clean.exhausted);
        assert_eq!(resumed.oracle_queries, clean.oracle_queries);
        assert_eq!(resumed.logic.guards, clean.logic.guards);
    }

    #[test]
    fn tampered_journals_are_rejected_not_replayed() {
        let mds = thermostat();
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let seeds = vec![Some(vec![22.0]), Some(vec![22.0])];
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let (_, journal) = synthesize_switching_journaled(&mds, initial, &seeds, &cfg, Some(1));
        // Claiming an extra round without paying for it skews the ledger.
        let mut forged = journal.clone();
        forged.rounds += 1;
        assert!(matches!(
            synthesize_switching_resume(&mds, &seeds, &cfg, &forged),
            Err(JournalError::Divergence { .. })
        ));
        // A journal recorded under a different grid or budget is refused.
        let coarse = SwitchSynthConfig {
            grid: Grid::new(0.5),
            ..cfg.clone()
        };
        assert!(matches!(
            synthesize_switching_resume(&mds, &seeds, &coarse, &journal),
            Err(JournalError::Mismatch { field: "grid" })
        ));
        let capped = SwitchSynthConfig {
            budget: Budget::with_fuel(10),
            ..cfg.clone()
        };
        assert!(matches!(
            synthesize_switching_resume(&mds, &seeds, &capped, &journal),
            Err(JournalError::Mismatch { field: "budget" })
        ));
        // A journal for a different system shape is refused.
        let mut dropped = journal.clone();
        dropped.guards.pop();
        assert!(matches!(
            synthesize_switching_resume(&mds, &seeds, &cfg, &dropped),
            Err(JournalError::Mismatch {
                field: "transition count"
            })
        ));
    }

    #[test]
    fn unsatisfiable_safety_empties_guards() {
        let mut mds = thermostat();
        // Impossible safety: nothing is safe.
        mds.safe = Arc::new(|_m, _x| false);
        let initial = SwitchingLogic {
            guards: vec![
                HyperBox::new(vec![0.0], vec![50.0]),
                HyperBox::new(vec![0.0], vec![50.0]),
            ],
        };
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.5),
            seed_budget: 64,
            ..SwitchSynthConfig::default()
        };
        let out = synthesize_switching(&mds, initial, &[None, None], &cfg);
        assert!(out.logic.guards.iter().all(|g| g.is_empty()));
    }

    #[test]
    fn non_learnable_guards_stay_fixed() {
        let mut mds = thermostat();
        mds.transitions[1].learnable = false;
        let fixed = HyperBox::new(vec![17.0], vec![19.0]);
        let initial = SwitchingLogic {
            guards: vec![HyperBox::new(vec![0.0], vec![50.0]), fixed.clone()],
        };
        let cfg = SwitchSynthConfig {
            grid: Grid::new(0.1),
            ..SwitchSynthConfig::default()
        };
        let out = synthesize_switching(&mds, initial, &[Some(vec![22.0]), None], &cfg);
        assert_eq!(out.logic.guards[1], fixed);
    }
}
