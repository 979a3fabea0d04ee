//! Oracle-guided synthesis: the location-variable SMT encoding (after Jha,
//! Gulwani, Seshia, Tiwari, ICSE 2010 — the algorithm paper Sec. 4
//! summarizes) and the distinguishing-input loop.
//!
//! Each iteration (paper Sec. 4.2): "the routine constructs an SMT formula
//! whose satisfying assignment yields a program consistent with all
//! input-output examples seen so far. It also queries the SMT solver for
//! another such program which is semantically different from the first, as
//! well as a distinguishing input that demonstrates this semantic
//! difference. If no such alternative program exists, the process
//! terminates."

use crate::component::{ComponentLibrary, IoOracle, Op, SynthProgram};
use crate::journal::CegisJournal;
use sciduction::budget::{Budget, BudgetMeter, Exhausted, Verdict};
use sciduction::exec::{
    lock_ignoring_poison, CacheStats, ExecError, FaultKind, FaultPlan, StopFlag,
};
use sciduction::recover::{
    first_panic, retry_site, Attempt, EntrantLog, JournalError, RetryPolicy, Supervisor,
};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{Rng, SeedableRng, Xoshiro256PlusPlus};
use sciduction_smt::{BvValue, CheckResult, SmtQueryCache, Solver, TermId};
use std::sync::{Arc, Mutex};

/// Synthesis configuration.
#[derive(Clone, Copy, Debug)]
pub struct SynthesisConfig {
    /// Maximum candidate/distinguishing iterations.
    pub max_iterations: usize,
    /// Random I/O examples to seed the loop with.
    pub initial_examples: usize,
    /// RNG seed for the initial examples.
    pub seed: u64,
    /// Resource budget: each SMT check charges one step against it, and
    /// its conflict/fuel caps bound each individual SMT query. Exhaustion
    /// ends the loop with [`SynthesisOutcome::BudgetExhausted`] carrying
    /// the certified cause. Defaults to the `SCIDUCTION_BUDGET` knob.
    pub budget: Budget,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_iterations: 64,
            initial_examples: 2,
            seed: 1,
            budget: Budget::from_env(),
        }
    }
}

/// Outcome of a synthesis run (the decision structure of the paper's
/// Fig. 7).
#[derive(Clone, Debug)]
pub enum SynthesisOutcome {
    /// A program consistent with the oracle and *semantically unique* in
    /// C_H given the accumulated examples. Correct iff the library
    /// hypothesis is valid (paper Theorem 4 reference).
    Synthesized {
        /// The program.
        program: SynthProgram,
        /// Iterations of the loop.
        iterations: usize,
        /// Accumulated I/O examples (the teaching sequence).
        examples: Vec<(Vec<BvValue>, Vec<BvValue>)>,
    },
    /// No composition of the library matches the examples — "I/O pairs
    /// show infeasibility" (Fig. 7: infeasibility reported).
    Infeasible {
        /// Iterations spent.
        iterations: usize,
        /// The refuting examples.
        examples: Vec<(Vec<BvValue>, Vec<BvValue>)>,
    },
    /// Resource budget exhausted — the loop stopped without an answer.
    /// Never a misreported `Synthesized`/`Infeasible`: partial progress
    /// is discarded.
    BudgetExhausted {
        /// Iterations reached when the budget ran out.
        iterations: usize,
        /// What ran out, certified by the meter that refused the charge.
        cause: Exhausted,
    },
}

/// Counters for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct SynthesisStats {
    /// SMT satisfiability checks.
    pub smt_checks: u64,
    /// Oracle queries.
    pub oracle_queries: u64,
    /// Distinguishing inputs found.
    pub distinguishing_inputs: u64,
}

/// The incremental SMT encoding of "some well-formed program over L
/// consistent with all examples so far".
struct Encoding {
    solver: Solver,
    lib: ComponentLibrary,
    out_loc: Vec<TermId>,
    in_loc: Vec<Vec<TermId>>,
    ret_loc: Vec<TermId>,
    loc_width: u32,
    examples: Vec<(Vec<BvValue>, Vec<BvValue>)>,
    fresh: usize,
    stats: SynthesisStats,
    /// Meters the loop itself: one step per SMT check.
    meter: BudgetMeter,
    /// Bounds each individual SMT query (the budget's conflict/fuel caps
    /// with unlimited steps/deadline, which the loop meter owns).
    query_budget: Budget,
}

impl Encoding {
    fn new(lib: &ComponentLibrary, cache: Option<Arc<SmtQueryCache>>, budget: Budget) -> Self {
        let num_locs = lib.num_locations();
        // Wide enough to hold the exclusive upper bound `num_locs` itself.
        let loc_width = (usize::BITS - num_locs.leading_zeros()).max(1);
        let mut solver = Solver::new();
        if let Some(cache) = cache {
            solver.attach_cache(cache);
        }
        let p = solver.terms_mut();
        let out_loc: Vec<TermId> = (0..lib.components.len())
            .map(|i| p.var(&format!("olA_{i}"), loc_width))
            .collect();
        let in_loc: Vec<Vec<TermId>> = lib
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (0..c.arity())
                    .map(|j| p.var(&format!("ilA_{i}_{j}"), loc_width))
                    .collect()
            })
            .collect();
        let ret_loc: Vec<TermId> = (0..lib.num_outputs)
            .map(|k| p.var(&format!("rlA_{k}"), loc_width))
            .collect();
        let mut enc = Encoding {
            solver,
            lib: lib.clone(),
            out_loc,
            in_loc,
            ret_loc,
            loc_width,
            examples: Vec::new(),
            fresh: 0,
            stats: SynthesisStats::default(),
            meter: BudgetMeter::new(budget),
            query_budget: Budget {
                conflicts: budget.conflicts,
                fuel: budget.fuel,
                ..Budget::UNLIMITED
            },
        };
        let (o, i, r) = (enc.out_loc.clone(), enc.in_loc.clone(), enc.ret_loc.clone());
        enc.assert_wfp(&o, &i, &r);
        enc
    }

    /// Well-formedness constraints for one set of location variables.
    fn assert_wfp(&mut self, out_loc: &[TermId], in_loc: &[Vec<TermId>], ret_loc: &[TermId]) {
        let ni = self.lib.num_inputs;
        let nl = self.lib.num_locations();
        let lw = self.loc_width;
        let mut constraints = Vec::new();
        {
            let p = self.solver.terms_mut();
            let lo = p.bv(ni as u64, lw);
            let hi = p.bv(nl as u64, lw);
            for &ol in out_loc {
                constraints.push(p.bv_ule(lo, ol));
                constraints.push(p.bv_ult(ol, hi));
            }
            for a in 0..out_loc.len() {
                for b in (a + 1)..out_loc.len() {
                    constraints.push(p.neq(out_loc[a], out_loc[b]));
                }
            }
            for (i, ports) in in_loc.iter().enumerate() {
                for &il in ports {
                    constraints.push(p.bv_ult(il, out_loc[i]));
                }
            }
            for &rl in ret_loc {
                constraints.push(p.bv_ult(rl, hi));
            }
            // Symmetry breaking: identical components are interchangeable,
            // so order their output locations. This prunes the search
            // space by the factorial of each duplicate group — decisive
            // for the final uniqueness (UNSAT) proof.
            for a in 0..out_loc.len() {
                for b in (a + 1)..out_loc.len() {
                    if self.lib.components[a] == self.lib.components[b] {
                        constraints.push(p.bv_ult(out_loc[a], out_loc[b]));
                        break; // chain a<b<c… via consecutive pairs
                    }
                }
            }
        }
        for c in constraints {
            self.solver.assert_term(c);
        }
    }

    /// Selects the value at a symbolic location from a location-indexed
    /// value array (an ite chain).
    fn select(&mut self, loc: TermId, values: &[TermId]) -> TermId {
        let lw = self.loc_width;
        let p = self.solver.terms_mut();
        let mut acc = values[0];
        for (l, &v) in values.iter().enumerate().skip(1) {
            let lc = p.bv(l as u64, lw);
            let eq = p.eq(loc, lc);
            acc = p.ite(eq, v, acc);
        }
        acc
    }

    /// Emits the dataflow semantics of one program copy on the given input
    /// terms, returning the output terms. Fresh value variables are
    /// created per location; `tag` keeps names unique.
    fn dataflow(
        &mut self,
        out_loc: &[TermId],
        in_loc: &[Vec<TermId>],
        ret_loc: &[TermId],
        inputs: &[TermId],
        tag: &str,
    ) -> Vec<TermId> {
        let ni = self.lib.num_inputs;
        let nl = self.lib.num_locations();
        let w = self.lib.width;
        // Location-indexed value variables.
        let mut values: Vec<TermId> = Vec::with_capacity(nl);
        {
            let p = self.solver.terms_mut();
            for l in 0..nl {
                values.push(p.var(&format!("v{tag}_{l}"), w));
            }
        }
        // Bind inputs.
        for (j, &x) in inputs.iter().enumerate() {
            let eq = self.solver.terms_mut().eq(values[j], x);
            self.solver.assert_term(eq);
        }
        // Component semantics: the value at out_loc[i] equals op_i applied
        // to the values selected by in_loc[i].
        let components = self.lib.components.clone();
        for (i, op) in components.iter().enumerate() {
            let args: Vec<TermId> = in_loc[i]
                .iter()
                .map(|&il| self.select(il, &values))
                .collect();
            let out_val = op.encode(self.solver.terms_mut(), &args);
            // out_loc[i] == ℓ ⟹ values[ℓ] == out_val, for component slots.
            for (l, &vl) in values.iter().enumerate().skip(ni) {
                let lw = self.loc_width;
                let p = self.solver.terms_mut();
                let lc = p.bv(l as u64, lw);
                let at = p.eq(out_loc[i], lc);
                let same = p.eq(vl, out_val);
                let imp = p.implies(at, same);
                self.solver.assert_term(imp);
            }
        }
        // Outputs.
        ret_loc.iter().map(|&rl| self.select(rl, &values)).collect()
    }

    /// Permanently adds one I/O example constraint for program A.
    fn add_example(&mut self, inputs: Vec<BvValue>, outputs: Vec<BvValue>) {
        let tag = format!("A{}", self.examples.len());
        let in_terms: Vec<TermId> = inputs
            .iter()
            .map(|v| self.solver.terms_mut().bv_const(*v))
            .collect();
        let (ol, il, rl) = (
            self.out_loc.clone(),
            self.in_loc.clone(),
            self.ret_loc.clone(),
        );
        let outs = self.dataflow(&ol, &il, &rl, &in_terms, &tag);
        for (&o, want) in outs.iter().zip(&outputs) {
            let k = self.solver.terms_mut().bv_const(*want);
            let eq = self.solver.terms_mut().eq(o, k);
            self.solver.assert_term(eq);
        }
        self.examples.push((inputs, outputs));
    }

    /// Finds a program consistent with all examples, if any; `Err` means
    /// the budget refused the check (or the check itself exhausted).
    fn find_candidate(&mut self) -> Result<Option<SynthProgram>, Exhausted> {
        self.meter.charge_step()?;
        self.stats.smt_checks += 1;
        match self.solver.check_bounded(&self.query_budget) {
            Verdict::Known(CheckResult::Sat) => Ok(Some(self.decode())),
            Verdict::Known(CheckResult::Unsat) => Ok(None),
            Verdict::Unknown(cause) => Err(cause),
        }
    }

    fn decode(&self) -> SynthProgram {
        let ni = self.lib.num_inputs;
        let n = self.lib.components.len();
        let loc_of = |t: TermId| self.solver.model_value(t).as_bv().as_u64() as usize;
        // Map output location → component index.
        let mut slot: Vec<usize> = vec![usize::MAX; n];
        for (i, &ol) in self.out_loc.iter().enumerate() {
            slot[loc_of(ol) - ni] = i;
        }
        let lines: Vec<(Op, Vec<usize>)> = slot
            .iter()
            .map(|&i| {
                let op = self.lib.components[i];
                let operands: Vec<usize> = self.in_loc[i].iter().map(|&il| loc_of(il)).collect();
                (op, operands)
            })
            .collect();
        let outputs: Vec<usize> = self.ret_loc.iter().map(|&rl| loc_of(rl)).collect();
        let program = SynthProgram {
            num_inputs: ni,
            width: self.lib.width,
            lines,
            outputs,
        };
        // Deep audit (debug builds): the well-formedness constraints of the
        // encoding must yield a topologically ordered, in-range program —
        // eval would panic (or silently misbehave) otherwise.
        debug_assert!(
            program
                .lines
                .iter()
                .enumerate()
                .all(|(li, (op, operands))| {
                    operands.len() == op.arity() && operands.iter().all(|&o| o < ni + li)
                })
                && program
                    .outputs
                    .iter()
                    .all(|&o| o < ni + program.lines.len()),
            "OGIS decode audit: candidate violates well-formedness constraints"
        );
        program
    }

    /// Searches for a distinguishing input: a second well-formed program B
    /// consistent with all examples plus an input on which B differs from
    /// the (concrete) candidate A.
    fn find_distinguishing(
        &mut self,
        candidate: &SynthProgram,
    ) -> Result<Option<Vec<BvValue>>, Exhausted> {
        self.meter.charge_step()?;
        self.fresh += 1;
        let tag = self.fresh;
        self.solver.push();
        // Program B's location variables + well-formedness.
        let (out_b, in_b, ret_b) = {
            let p = self.solver.terms_mut();
            let out_b: Vec<TermId> = (0..self.lib.components.len())
                .map(|i| p.var(&format!("olB{tag}_{i}"), self.loc_width))
                .collect();
            let in_b: Vec<Vec<TermId>> = self
                .lib
                .components
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (0..c.arity())
                        .map(|j| p.var(&format!("ilB{tag}_{i}_{j}"), self.loc_width))
                        .collect()
                })
                .collect();
            let ret_b: Vec<TermId> = (0..self.lib.num_outputs)
                .map(|k| p.var(&format!("rlB{tag}_{k}"), self.loc_width))
                .collect();
            (out_b, in_b, ret_b)
        };
        self.assert_wfp(&out_b, &in_b, &ret_b);
        // B consistent with every accumulated example.
        let examples = self.examples.clone();
        for (e, (ins, outs)) in examples.iter().enumerate() {
            let in_terms: Vec<TermId> = ins
                .iter()
                .map(|v| self.solver.terms_mut().bv_const(*v))
                .collect();
            let got = self.dataflow(&out_b, &in_b, &ret_b, &in_terms, &format!("B{tag}e{e}"));
            for (&g, want) in got.iter().zip(outs) {
                let k = self.solver.terms_mut().bv_const(*want);
                let eq = self.solver.terms_mut().eq(g, k);
                self.solver.assert_term(eq);
            }
        }
        // Fresh input x; A(x) from the concrete candidate, B(x) from the
        // dataflow net; require a difference.
        let xs: Vec<TermId> = {
            let p = self.solver.terms_mut();
            (0..self.lib.num_inputs)
                .map(|j| p.var(&format!("xd{tag}_{j}"), self.lib.width))
                .collect()
        };
        let a_out = candidate.encode(self.solver.terms_mut(), &xs);
        let b_out = self.dataflow(&out_b, &in_b, &ret_b, &xs, &format!("B{tag}x"));
        let mut diffs = Vec::new();
        for (&a, &b) in a_out.iter().zip(&b_out) {
            diffs.push(self.solver.terms_mut().neq(a, b));
        }
        let any = self.solver.terms_mut().or_many(&diffs);
        self.solver.assert_term(any);
        self.stats.smt_checks += 1;
        let result = match self.solver.check_bounded(&self.query_budget) {
            Verdict::Known(CheckResult::Sat) => Ok(Some(
                xs.iter()
                    .map(|&x| self.solver.model_value(x).as_bv())
                    .collect(),
            )),
            Verdict::Known(CheckResult::Unsat) => Ok(None),
            Verdict::Unknown(cause) => Err(cause),
        };
        self.solver.pop();
        result
    }
}

/// Runs the oracle-guided synthesis loop.
pub fn synthesize(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
) -> (SynthesisOutcome, SynthesisStats) {
    synthesize_with_cache(library, oracle, config, None)
}

/// [`synthesize`] with an optional shared SMT query cache: every
/// satisfiability query the encoding issues is first looked up by the
/// canonical key of its term DAG, and answers are published for other
/// runs (portfolio siblings, repeated invocations) sharing the cache.
pub fn synthesize_with_cache(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
    cache: Option<Arc<SmtQueryCache>>,
) -> (SynthesisOutcome, SynthesisStats) {
    synthesize_run(library, oracle, config, cache, None)
        .expect("synthesis without a stop flag always runs to an outcome")
}

/// The synthesis loop core: optionally cache-backed and cancellable.
/// Returns `None` only when `stop` trips between iterations (a portfolio
/// sibling already answered).
fn synthesize_run(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
    cache: Option<Arc<SmtQueryCache>>,
    stop: Option<&StopFlag>,
) -> Option<(SynthesisOutcome, SynthesisStats)> {
    let mut record = CegisJournal::default();
    synthesize_core(library, oracle, config, cache, stop, &[], None, &mut record)
        .expect("an empty replay tape cannot diverge")
}

/// [`synthesize`] with checkpoint journaling: the run records every
/// accumulated example into the returned [`CegisJournal`], and — when
/// `kill_at` is `Some(k)` — dies right before loop iteration `k` runs
/// (modeling a crash mid-synthesis), returning `None` for the outcome
/// and the journal checkpointed so far. Feed that journal to
/// [`synthesize_resume`] to finish the run.
pub fn synthesize_journaled(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
    kill_at: Option<usize>,
) -> (Option<(SynthesisOutcome, SynthesisStats)>, CegisJournal) {
    let mut record = CegisJournal::default();
    let outcome = synthesize_core(
        library,
        oracle,
        config,
        None,
        None,
        &[],
        kill_at,
        &mut record,
    )
    .expect("an empty replay tape cannot diverge");
    (outcome, record)
}

/// Resumes a killed synthesis run from its [`CegisJournal`].
///
/// Resumption is *replay*: the loop re-runs from the start, consuming
/// the journal's recorded oracle answers instead of querying `oracle`
/// for the journaled prefix — while verifying that every replayed input
/// (seed example or distinguishing input) is exactly what the journal
/// recorded. The SMT side is a pure function of the example sequence, so
/// a resumed run reaches the bit-identical artifact an uninterrupted run
/// would have; any disagreement means the journal does not describe this
/// `(library, config)` run and is rejected as [`JournalError::Divergence`]
/// (the `REC001` condition).
///
/// # Errors
///
/// [`JournalError::Mismatch`] when the journal's configuration echo
/// disagrees with `library`/`config`; [`JournalError::Divergence`] when
/// replay contradicts the recorded history.
pub fn synthesize_resume(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
    journal: &CegisJournal,
) -> Result<(SynthesisOutcome, SynthesisStats), JournalError> {
    journal.check()?;
    if journal.seed != config.seed {
        return Err(JournalError::Mismatch { field: "seed" });
    }
    if journal.width != library.width {
        return Err(JournalError::Mismatch { field: "width" });
    }
    if journal.num_inputs != library.num_inputs {
        return Err(JournalError::Mismatch {
            field: "input arity",
        });
    }
    if journal.num_outputs != library.num_outputs {
        return Err(JournalError::Mismatch {
            field: "output arity",
        });
    }
    if journal.initial_examples != config.initial_examples.max(1) {
        return Err(JournalError::Mismatch {
            field: "initial example count",
        });
    }
    let mut record = CegisJournal::default();
    let outcome = synthesize_core(
        library,
        oracle,
        config,
        None,
        None,
        &journal.examples,
        None,
        &mut record,
    )?;
    Ok(outcome.expect("a resume without a stop flag runs to an outcome"))
}

/// The journaling/replaying synthesis core. `tape` is the recorded
/// example prefix to replay (empty for a fresh run); `kill_at` simulates
/// a crash before that loop iteration; `record` receives the journal of
/// everything this run accumulated.
#[allow(clippy::too_many_arguments)]
fn synthesize_core(
    library: &ComponentLibrary,
    oracle: &mut dyn IoOracle,
    config: &SynthesisConfig,
    cache: Option<Arc<SmtQueryCache>>,
    stop: Option<&StopFlag>,
    tape: &[(Vec<BvValue>, Vec<BvValue>)],
    kill_at: Option<usize>,
    record: &mut CegisJournal,
) -> Result<Option<(SynthesisOutcome, SynthesisStats)>, JournalError> {
    record.seed = config.seed;
    record.width = library.width;
    record.num_inputs = library.num_inputs;
    record.num_outputs = library.num_outputs;
    record.initial_examples = config.initial_examples.max(1);
    record.iterations = 0;
    record.examples.clear();
    let mut cursor = 0usize;
    // Consumes the next tape entry for the replayed input `inputs`, or
    // queries the live oracle past the end of the tape. A tape entry
    // whose input differs from the replayed one is the REC001 condition.
    fn answer(
        tape: &[(Vec<BvValue>, Vec<BvValue>)],
        cursor: &mut usize,
        oracle: &mut dyn IoOracle,
        inputs: &[BvValue],
        what: &str,
    ) -> Result<Vec<BvValue>, JournalError> {
        let outputs = match tape.get(*cursor) {
            Some((recorded_in, recorded_out)) => {
                if recorded_in != inputs {
                    return Err(JournalError::Divergence {
                        at: *cursor,
                        detail: format!(
                            "replayed {what} {inputs:?} differs from recorded {recorded_in:?}"
                        ),
                    });
                }
                recorded_out.clone()
            }
            None => oracle.query(inputs),
        };
        *cursor += 1;
        Ok(outputs)
    }

    let mut enc = Encoding::new(library, cache, config.budget);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for _ in 0..config.initial_examples.max(1) {
        let inputs: Vec<BvValue> = (0..library.num_inputs)
            .map(|_| BvValue::new(rng.random(), library.width))
            .collect();
        let outputs = answer(tape, &mut cursor, oracle, &inputs, "seed example")?;
        enc.stats.oracle_queries += 1;
        record.examples.push((inputs.clone(), outputs.clone()));
        enc.add_example(inputs, outputs);
    }
    for iteration in 1..=config.max_iterations {
        if kill_at == Some(iteration) {
            // The simulated crash: the journal holds everything up to
            // (excluding) this iteration.
            return Ok(None);
        }
        if stop.is_some_and(|s| s.is_stopped()) {
            return Ok(None);
        }
        match enc.find_candidate() {
            Err(cause) => {
                let stats = enc.stats;
                return Ok(Some((
                    SynthesisOutcome::BudgetExhausted {
                        iterations: iteration - 1,
                        cause,
                    },
                    stats,
                )));
            }
            Ok(None) => {
                if cursor < tape.len() {
                    return Err(JournalError::Divergence {
                        at: cursor,
                        detail: "replay reached infeasibility with recorded examples left over"
                            .into(),
                    });
                }
                record.iterations = iteration;
                let stats = enc.stats;
                return Ok(Some((
                    SynthesisOutcome::Infeasible {
                        iterations: iteration,
                        examples: enc.examples,
                    },
                    stats,
                )));
            }
            Ok(Some(candidate)) => match enc.find_distinguishing(&candidate) {
                Err(cause) => {
                    let stats = enc.stats;
                    return Ok(Some((
                        SynthesisOutcome::BudgetExhausted {
                            iterations: iteration - 1,
                            cause,
                        },
                        stats,
                    )));
                }
                Ok(None) => {
                    if cursor < tape.len() {
                        return Err(JournalError::Divergence {
                            at: cursor,
                            detail: "replay converged with recorded examples left over".into(),
                        });
                    }
                    // Certificate check: the SMT encoding claims the decoded
                    // program reproduces every accumulated example; re-run
                    // the program concretely to confirm before handing it
                    // out. Linear in examples, negligible next to the loop.
                    for (inputs, outputs) in &enc.examples {
                        let got = candidate.eval(inputs);
                        assert_eq!(
                            &got, outputs,
                            "OGIS certificate violation: candidate disagrees \
                             with a recorded example (encoding or decode bug)"
                        );
                    }
                    record.iterations = iteration;
                    let stats = enc.stats;
                    return Ok(Some((
                        SynthesisOutcome::Synthesized {
                            program: candidate,
                            iterations: iteration,
                            examples: enc.examples,
                        },
                        stats,
                    )));
                }
                Ok(Some(x)) => {
                    let y = answer(tape, &mut cursor, oracle, &x, "distinguishing input")?;
                    enc.stats.oracle_queries += 1;
                    enc.stats.distinguishing_inputs += 1;
                    record.examples.push((x.clone(), y.clone()));
                    record.iterations = iteration;
                    enc.add_example(x, y);
                }
            },
        }
    }
    let stats = enc.stats;
    Ok(Some((
        SynthesisOutcome::BudgetExhausted {
            iterations: config.max_iterations,
            cause: Exhausted::Steps {
                limit: config.max_iterations as u64,
                spent: config.max_iterations as u64,
            },
        },
        stats,
    )))
}

/// Parallel-synthesis parameters.
#[derive(Clone, Copy, Debug)]
pub struct ParallelSynthesisConfig {
    /// Racing synthesis instances (each with a forked example seed).
    pub members: usize,
    /// Worker threads (1 = deterministic sequential fallback: member 0
    /// runs first and wins, reproducing [`synthesize`] exactly).
    pub threads: usize,
    /// Shared SMT query cache capacity (0 = unbounded).
    pub cache_capacity: usize,
}

impl Default for ParallelSynthesisConfig {
    fn default() -> Self {
        ParallelSynthesisConfig {
            members: 4,
            threads: sciduction::exec::configured_threads(),
            cache_capacity: 0,
        }
    }
}

/// The outcome of a parallel synthesis race.
#[derive(Clone, Debug)]
pub struct ParallelSynthesisOutcome {
    /// The winning member's outcome; when no member answered (all
    /// exhausted, killed, or cancelled) this is the
    /// [`SynthesisOutcome::BudgetExhausted`] of the member whose parked
    /// cause settles the race.
    pub outcome: SynthesisOutcome,
    /// The winning (or settling) member's counters.
    pub stats: SynthesisStats,
    /// Index of the winning member; `None` when no member answered.
    pub winner: Option<usize>,
    /// Shared SMT query cache counters at the end of the race.
    pub cache: CacheStats,
    /// Per-member supervision logs, indexed like the members; the `REC`
    /// lints audit them.
    pub logs: Vec<Option<EntrantLog>>,
    /// The retry policy the race ran under (zero retries for
    /// [`synthesize_portfolio_with_faults`]).
    pub policy: RetryPolicy,
}

/// Races `members` seed-diversified synthesis instances over one library.
///
/// Member 0 uses `config` verbatim; members 1.. fork the example seed
/// from a `sciduction-rng` stream, so each member accumulates a different
/// teaching sequence and explores the candidate space in a different
/// order. All members share one canonical-key SMT query cache, so a
/// query solved by any member is free for the rest. The first member to
/// synthesize or prove infeasibility cancels its siblings; a member that
/// exhausts its budget loses the race instead.
///
/// `make_oracle(i)` builds member `i`'s private I/O oracle; oracles for
/// the same specification must agree pointwise.
///
/// # Errors
///
/// [`ExecError`] if a member panics.
pub fn synthesize_portfolio<O, F>(
    library: &ComponentLibrary,
    make_oracle: F,
    config: &SynthesisConfig,
    par: &ParallelSynthesisConfig,
) -> Result<ParallelSynthesisOutcome, ExecError>
where
    O: IoOracle,
    F: Fn(usize) -> O + Sync,
{
    synthesize_portfolio_with_faults(
        library,
        make_oracle,
        config,
        par,
        FaultPlan::from_env().map(Arc::new),
    )
}

/// [`synthesize_portfolio`] with an explicit fault plan: the supervised
/// race allowing zero retries, with a member panic surfaced as an error.
///
/// Degradation contract mirrors the SAT portfolio: an exhausted or
/// fault-injected member parks its cause and loses the race instead of
/// answering, so a surviving sibling's outcome is never flipped or
/// masked; only when every member fails does the race report
/// `winner: None`, settled by the lowest-indexed member parking a
/// non-`Cancelled` cause. The fault plan is also attached to the shared
/// SMT query cache, so `CacheMissStorm` faults exercise recomputation
/// paths.
///
/// # Errors
///
/// [`ExecError`] if a member panics.
pub fn synthesize_portfolio_with_faults<O, F>(
    library: &ComponentLibrary,
    make_oracle: F,
    config: &SynthesisConfig,
    par: &ParallelSynthesisConfig,
    plan: Option<Arc<FaultPlan>>,
) -> Result<ParallelSynthesisOutcome, ExecError>
where
    O: IoOracle,
    F: Fn(usize) -> O + Sync,
{
    let out = synthesize_portfolio_supervised(
        library,
        make_oracle,
        config,
        par,
        RetryPolicy::new(config.seed, 0),
        plan,
    );
    first_panic(&out.logs).map_or(Ok(out), Err)
}

/// Races the synthesis portfolio under supervision: every member runs
/// inside `catch_unwind` with deterministic retry and a circuit breaker,
/// and injected faults (worker death, spurious cancellation, forged
/// budget exhaustion) are re-rolled per attempt at fresh [`retry_site`]s
/// while `policy` allows — so under any fault seed a supervised race with
/// remaining budget completes with the clean outcome. Honest budget
/// exhaustion is never retried. Each attempt restarts its member's loop
/// from scratch (sharing the SMT query cache, so repeated work is
/// mostly hits).
pub fn synthesize_portfolio_supervised<O, F>(
    library: &ComponentLibrary,
    make_oracle: F,
    config: &SynthesisConfig,
    par: &ParallelSynthesisConfig,
    policy: RetryPolicy,
    plan: Option<Arc<FaultPlan>>,
) -> ParallelSynthesisOutcome
where
    O: IoOracle,
    F: Fn(usize) -> O + Sync,
{
    let members = par.members.max(1);
    let mut cache = if par.cache_capacity == 0 {
        SmtQueryCache::new()
    } else {
        SmtQueryCache::bounded(par.cache_capacity)
    };
    if let Some(p) = plan.as_ref() {
        cache = cache.with_fault_plan(Arc::clone(p));
    }
    let cache = Arc::new(cache);

    // Members that stop without answering park their exhausted outcome
    // here so the race can report the settling member's outcome.
    let exhausted: Vec<Mutex<Option<(SynthesisOutcome, SynthesisStats)>>> =
        (0..members).map(|_| Mutex::new(None)).collect();
    let (exhausted_ref, plan_ref, cache_ref, make_oracle) =
        (&exhausted, plan.as_deref(), &cache, &make_oracle);

    let parent = Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let entrants: Vec<_> = (0..members)
        .map(|i| {
            let member_config = if i == 0 {
                *config
            } else {
                let mut stream = parent.fork(i as u64);
                SynthesisConfig {
                    seed: stream.random(),
                    ..*config
                }
            };
            move |stop: &StopFlag, attempt: u32| {
                // Per-attempt budget-exhaustion injection: a retry
                // re-rolls the decision at its own site.
                let site = retry_site(i as u64, attempt);
                if let Some(p) = plan_ref.filter(|p| p.fires(FaultKind::BudgetExhaustion, site)) {
                    let cause = Exhausted::Injected {
                        seed: p.seed(),
                        kind: FaultKind::BudgetExhaustion,
                        site,
                    };
                    let outcome = SynthesisOutcome::BudgetExhausted {
                        iterations: 0,
                        cause,
                    };
                    *lock_ignoring_poison(&exhausted_ref[i]) =
                        Some((outcome, SynthesisStats::default()));
                    return Attempt::Faulted(cause);
                }
                let mut oracle = make_oracle(i);
                match synthesize_run(
                    library,
                    &mut oracle,
                    &member_config,
                    Some(Arc::clone(cache_ref)),
                    Some(stop),
                ) {
                    Some((outcome @ SynthesisOutcome::BudgetExhausted { cause, .. }, stats)) => {
                        // Honest exhaustion: must lose the race and must
                        // not be retried.
                        *lock_ignoring_poison(&exhausted_ref[i]) = Some((outcome, stats));
                        Attempt::GaveUp(Some(cause))
                    }
                    Some(answer) => Attempt::Answer(answer),
                    None => Attempt::GaveUp(None),
                }
            }
        })
        .collect();

    let mut supervisor = Supervisor::new(par.threads, policy);
    if let Some(p) = plan.as_ref() {
        supervisor = supervisor.with_fault_plan(Arc::clone(p));
    }
    let race = supervisor.race(entrants);
    let (outcome, stats, winner) = match race.win {
        Some(win) => (win.value.0, win.value.1, Some(win.winner)),
        None => {
            // The settling member's parked outcome, unless a later
            // attempt of that member settled it with another cause.
            let settling = race.settling_log();
            let cause = settling
                .and_then(|log| log.cause)
                .unwrap_or(Exhausted::Cancelled);
            let parked =
                settling.and_then(|log| lock_ignoring_poison(&exhausted[log.entrant]).take());
            let (outcome, stats) = match parked {
                Some((outcome @ SynthesisOutcome::BudgetExhausted { cause: c, .. }, stats))
                    if c == cause =>
                {
                    (outcome, stats)
                }
                _ => (
                    SynthesisOutcome::BudgetExhausted {
                        iterations: 0,
                        cause,
                    },
                    SynthesisStats::default(),
                ),
            };
            (outcome, stats, None)
        }
    };
    ParallelSynthesisOutcome {
        outcome,
        stats,
        winner,
        cache: cache.stats(),
        logs: race.logs,
        policy: race.policy,
    }
}

/// Post-hoc check of the synthesized program against the oracle — the
/// paper's Fig. 7 caveat: when the library hypothesis is invalid the loop
/// can output an incorrect program, so one must "separately verify".
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerificationResult {
    /// Exhaustively checked over the full input space.
    Equivalent,
    /// Agreed on all sampled inputs (input space too large to exhaust).
    ProbablyEquivalent {
        /// Number of samples checked.
        samples: u64,
    },
    /// A concrete disagreement.
    CounterexampleFound {
        /// The disagreeing input.
        input: Vec<BvValue>,
    },
}

/// Verifies `program` against `oracle`, exhaustively when the input space
/// has at most `2^exhaustive_bits` points, else by random sampling.
pub fn verify_against_oracle(
    program: &SynthProgram,
    oracle: &mut dyn IoOracle,
    exhaustive_bits: u32,
    samples: u64,
    seed: u64,
) -> VerificationResult {
    let total_bits = program.num_inputs as u32 * program.width;
    if total_bits <= exhaustive_bits {
        for x in 0u64..1 << total_bits {
            let inputs: Vec<BvValue> = (0..program.num_inputs)
                .map(|j| BvValue::new(x >> (j as u32 * program.width), program.width))
                .collect();
            if program.eval(&inputs) != oracle.query(&inputs) {
                return VerificationResult::CounterexampleFound { input: inputs };
            }
        }
        VerificationResult::Equivalent
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..samples {
            let inputs: Vec<BvValue> = (0..program.num_inputs)
                .map(|_| BvValue::new(rng.random(), program.width))
                .collect();
            if program.eval(&inputs) != oracle.query(&inputs) {
                return VerificationResult::CounterexampleFound { input: inputs };
            }
        }
        VerificationResult::ProbablyEquivalent { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::FnOracle;

    fn bv(x: u64, w: u32) -> BvValue {
        BvValue::new(x, w)
    }

    #[test]
    fn synthesizes_double_via_add() {
        // Library {add}; oracle f(x) = x + x.
        let lib = ComponentLibrary::new(vec![Op::Add], 1, 1, 8);
        let mut oracle = FnOracle::new("double", |xs: &[BvValue]| vec![xs[0].add(xs[0])]);
        let (out, stats) = synthesize(&lib, &mut oracle, &SynthesisConfig::default());
        match out {
            SynthesisOutcome::Synthesized { program, .. } => {
                for x in 0..=255u64 {
                    assert_eq!(program.eval(&[bv(x, 8)])[0].as_u64(), (2 * x) & 0xFF);
                }
            }
            other => panic!("expected synthesis, got {other:?}"),
        }
        assert!(stats.smt_checks >= 2);
    }

    #[test]
    fn synthesizes_swap_with_xors() {
        // The P1 shape at width 8: three xors swap two values.
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let mut oracle = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
        let (out, _) = synthesize(&lib, &mut oracle, &SynthesisConfig::default());
        match out {
            SynthesisOutcome::Synthesized {
                program, examples, ..
            } => {
                let mut check = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
                assert_eq!(
                    verify_against_oracle(&program, &mut check, 16, 0, 0),
                    VerificationResult::Equivalent
                );
                // Small teaching sequence (paper: "small teaching
                // dimension" in practice).
                assert!(examples.len() < 12, "used {} examples", examples.len());
            }
            other => panic!("expected synthesis, got {other:?}"),
        }
    }

    #[test]
    fn insufficient_library_reports_infeasible() {
        // Library {not}: cannot realize f(x) = x + 1 once examples rule
        // the single candidate out.
        let lib = ComponentLibrary::new(vec![Op::Not], 1, 1, 8);
        let mut oracle = FnOracle::new("inc", |xs: &[BvValue]| vec![xs[0].add(BvValue::one(8))]);
        let (out, _) = synthesize(&lib, &mut oracle, &SynthesisConfig::default());
        match out {
            SynthesisOutcome::Infeasible { examples, .. } => {
                assert!(!examples.is_empty());
            }
            // A degenerate alternative: with one component the unique
            // candidate may coincidentally match the seed example but then
            // be killed by its distinguishing input in a later round.
            other => panic!("expected infeasibility, got {other:?}"),
        }
    }

    #[test]
    fn incorrect_program_possible_when_hypothesis_invalid_then_caught() {
        // Library {and}: target f(x, y) = x | y. On some example sets an
        // AND program survives; verification must catch it (Fig. 7's
        // "incorrect program" branch) or the loop must report infeasible.
        let lib = ComponentLibrary::new(vec![Op::And], 2, 1, 4);
        let mut oracle = FnOracle::new("or", |xs: &[BvValue]| vec![xs[0].or(xs[1])]);
        let (out, _) = synthesize(&lib, &mut oracle, &SynthesisConfig::default());
        match out {
            SynthesisOutcome::Synthesized { program, .. } => {
                let mut check = FnOracle::new("or", |xs: &[BvValue]| vec![xs[0].or(xs[1])]);
                let v = verify_against_oracle(&program, &mut check, 16, 0, 0);
                assert!(
                    matches!(v, VerificationResult::CounterexampleFound { .. }),
                    "an AND-only program cannot equal OR"
                );
            }
            SynthesisOutcome::Infeasible { .. } => {} // also acceptable
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn portfolio_synthesizes_at_every_thread_count() {
        let lib = ComponentLibrary::new(vec![Op::Add], 1, 1, 8);
        for threads in [1, 4] {
            let par = ParallelSynthesisConfig {
                members: 4,
                threads,
                cache_capacity: 0,
            };
            let out = synthesize_portfolio(
                &lib,
                |_i| FnOracle::new("double", |xs: &[BvValue]| vec![xs[0].add(xs[0])]),
                &SynthesisConfig::default(),
                &par,
            )
            .unwrap();
            match out.outcome {
                SynthesisOutcome::Synthesized { program, .. } => {
                    for x in 0..=255u64 {
                        assert_eq!(
                            program.eval(&[bv(x, 8)])[0].as_u64(),
                            (2 * x) & 0xFF,
                            "threads={threads}"
                        );
                    }
                }
                other => panic!("threads={threads}: expected synthesis, got {other:?}"),
            }
            assert!(out.winner.expect("answered race has a winner") < par.members);
        }
    }

    #[test]
    fn sequential_portfolio_reproduces_plain_synthesis() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig::default();
        let mut oracle = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
        let (plain, plain_stats) = synthesize(&lib, &mut oracle, &config);
        let par = ParallelSynthesisConfig {
            members: 4,
            threads: 1,
            cache_capacity: 0,
        };
        let out = synthesize_portfolio(
            &lib,
            |_i| FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]),
            &config,
            &par,
        )
        .unwrap();
        assert_eq!(
            out.winner,
            Some(0),
            "sequential fallback must pick member 0"
        );
        assert_eq!(out.stats.smt_checks, plain_stats.smt_checks);
        match (out.outcome, plain) {
            (
                SynthesisOutcome::Synthesized {
                    program: a,
                    iterations: ia,
                    examples: ea,
                },
                SynthesisOutcome::Synthesized {
                    program: b,
                    iterations: ib,
                    examples: eb,
                },
            ) => {
                assert_eq!(ia, ib);
                assert_eq!(ea, eb);
                assert_eq!(a.lines, b.lines, "bit-reproducibility broken");
                assert_eq!(a.outputs, b.outputs);
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn shared_cache_replays_a_repeated_run() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig::default();
        let cache = Arc::new(SmtQueryCache::new());
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let mut oracle = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
            let (out, _) =
                synthesize_with_cache(&lib, &mut oracle, &config, Some(Arc::clone(&cache)));
            outcomes.push(out);
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "identical second run must hit the cache: {stats:?}"
        );
        match (&outcomes[0], &outcomes[1]) {
            (
                SynthesisOutcome::Synthesized { program: a, .. },
                SynthesisOutcome::Synthesized { program: b, .. },
            ) => {
                // Cached models may pick a different (equally certified)
                // witness; both programs must realize the specification.
                for (p, tag) in [(a, "uncached"), (b, "cached")] {
                    let mut check = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
                    assert_eq!(
                        verify_against_oracle(p, &mut check, 16, 0, 0),
                        VerificationResult::Equivalent,
                        "{tag} program must realize swap"
                    );
                }
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn starved_synthesis_reports_exhaustion_not_a_guess() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig {
            budget: Budget::with_steps(1),
            ..SynthesisConfig::default()
        };
        let mut oracle = FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
        let (out, stats) = synthesize(&lib, &mut oracle, &config);
        match out {
            SynthesisOutcome::BudgetExhausted {
                iterations,
                cause: Exhausted::Steps { limit: 1, spent: 1 },
            } => assert_eq!(iterations, 0),
            other => panic!("expected step exhaustion, got {other:?}"),
        }
        assert_eq!(stats.smt_checks, 1, "only the charged check may run");
    }

    #[test]
    fn fully_starved_portfolio_loses_gracefully() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig {
            budget: Budget::with_steps(1),
            ..SynthesisConfig::default()
        };
        for threads in [1, 4] {
            let par = ParallelSynthesisConfig {
                members: 4,
                threads,
                cache_capacity: 0,
            };
            let out = synthesize_portfolio(
                &lib,
                |_i| FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]),
                &config,
                &par,
            )
            .unwrap();
            assert_eq!(out.winner, None, "threads={threads}");
            assert!(
                matches!(
                    out.outcome,
                    SynthesisOutcome::BudgetExhausted {
                        cause: Exhausted::Steps { limit: 1, .. },
                        ..
                    }
                ),
                "threads={threads}: {:?}",
                out.outcome
            );
        }
    }

    #[test]
    fn killed_and_resumed_synthesis_reaches_the_identical_artifact() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig::default();
        let swap = || FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
        let (clean, clean_stats) = synthesize(&lib, &mut swap(), &config);
        let SynthesisOutcome::Synthesized {
            program: clean_program,
            iterations: clean_iterations,
            examples: clean_examples,
        } = clean
        else {
            panic!("swap must synthesize: {clean:?}");
        };
        for k in 1..=clean_iterations {
            let (dead, journal) = synthesize_journaled(&lib, &mut swap(), &config, Some(k));
            assert!(dead.is_none(), "kill at {k} must not produce an outcome");
            assert_eq!(journal.iterations, k - 1);
            // Round-trip the wire format, as a real process restart would.
            let journal = CegisJournal::parse(&journal.serialize()).expect("wire round-trip");
            let (resumed, stats) =
                synthesize_resume(&lib, &mut swap(), &config, &journal).expect("honest journal");
            let SynthesisOutcome::Synthesized {
                program,
                iterations,
                examples,
            } = resumed
            else {
                panic!("resume from {k} lost the answer");
            };
            assert_eq!(program.lines, clean_program.lines, "kill at {k}");
            assert_eq!(program.outputs, clean_program.outputs, "kill at {k}");
            assert_eq!(iterations, clean_iterations, "kill at {k}");
            assert_eq!(examples, clean_examples, "kill at {k}");
            assert_eq!(stats.smt_checks, clean_stats.smt_checks, "kill at {k}");
            assert_eq!(stats.oracle_queries, clean_stats.oracle_queries);
        }
    }

    #[test]
    fn journaled_run_without_a_kill_matches_plain_synthesis() {
        let lib = ComponentLibrary::new(vec![Op::Add], 1, 1, 8);
        let config = SynthesisConfig::default();
        let double = || FnOracle::new("double", |xs: &[BvValue]| vec![xs[0].add(xs[0])]);
        let (plain, _) = synthesize(&lib, &mut double(), &config);
        let (journaled, journal) = synthesize_journaled(&lib, &mut double(), &config, None);
        let (journaled, _) = journaled.expect("no kill: runs to the outcome");
        match (plain, journaled) {
            (
                SynthesisOutcome::Synthesized { program: a, .. },
                SynthesisOutcome::Synthesized { program: b, .. },
            ) => {
                assert_eq!(a.lines, b.lines);
                assert_eq!(a.outputs, b.outputs);
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
        // The completed journal replays to the same artifact too.
        assert!(journal.check().is_ok());
        let (resumed, _) =
            synthesize_resume(&lib, &mut double(), &config, &journal).expect("honest journal");
        assert!(matches!(resumed, SynthesisOutcome::Synthesized { .. }));
    }

    #[test]
    fn tampered_journal_is_rejected_not_replayed() {
        let lib = ComponentLibrary::new(vec![Op::Xor, Op::Xor, Op::Xor], 2, 2, 8);
        let config = SynthesisConfig::default();
        let swap = || FnOracle::new("swap", |xs: &[BvValue]| vec![xs[1], xs[0]]);
        let (_, journal) = synthesize_journaled(&lib, &mut swap(), &config, Some(2));
        assert!(!journal.examples.is_empty());
        // Flip a recorded input: replay must detect the divergence
        // (REC001) instead of silently synthesizing from forged history.
        let mut forged = journal.clone();
        let old = forged.examples[0].0[0];
        forged.examples[0].0[0] = BvValue::new(old.as_u64() ^ 1, old.width());
        let err = synthesize_resume(&lib, &mut swap(), &config, &forged).unwrap_err();
        assert!(
            matches!(err, JournalError::Divergence { at: 0, .. }),
            "{err}"
        );
        // A journal from a different seed is refused outright.
        let other_config = SynthesisConfig {
            seed: config.seed + 1,
            ..config
        };
        let err = synthesize_resume(&lib, &mut swap(), &other_config, &journal).unwrap_err();
        assert!(
            matches!(err, JournalError::Mismatch { field: "seed" }),
            "{err}"
        );
    }

    #[test]
    fn supervised_portfolio_outlives_lethal_fault_plans() {
        let lib = ComponentLibrary::new(vec![Op::Add], 1, 1, 8);
        let config = SynthesisConfig::default();
        for kind in [
            FaultKind::WorkerDeath,
            FaultKind::SpuriousCancel,
            FaultKind::BudgetExhaustion,
        ] {
            for seed in 1..=2u64 {
                for threads in [1, 4] {
                    let par = ParallelSynthesisConfig {
                        members: 4,
                        threads,
                        cache_capacity: 0,
                    };
                    let plan = Arc::new(FaultPlan::targeting(seed, kind));
                    let out = synthesize_portfolio_supervised(
                        &lib,
                        |_i| FnOracle::new("double", |xs: &[BvValue]| vec![xs[0].add(xs[0])]),
                        &config,
                        &par,
                        RetryPolicy::new(seed, 3),
                        Some(plan),
                    );
                    let SynthesisOutcome::Synthesized { program, .. } = out.outcome else {
                        panic!(
                            "kind={kind:?} seed={seed} threads={threads}: {:?}",
                            out.outcome
                        );
                    };
                    for x in 0..=255u64 {
                        assert_eq!(program.eval(&[bv(x, 8)])[0].as_u64(), (2 * x) & 0xFF);
                    }
                }
            }
        }
    }

    #[test]
    fn verification_modes() {
        let p = SynthProgram {
            num_inputs: 1,
            width: 8,
            lines: vec![(Op::AddConst(1), vec![0])],
            outputs: vec![1],
        };
        let mut good = FnOracle::new("inc", |xs: &[BvValue]| vec![xs[0].add(BvValue::one(8))]);
        assert_eq!(
            verify_against_oracle(&p, &mut good, 16, 0, 0),
            VerificationResult::Equivalent
        );
        let mut good2 = FnOracle::new("inc", |xs: &[BvValue]| vec![xs[0].add(BvValue::one(8))]);
        assert_eq!(
            verify_against_oracle(&p, &mut good2, 4, 100, 0),
            VerificationResult::ProbablyEquivalent { samples: 100 }
        );
        let mut bad = FnOracle::new("dec", |xs: &[BvValue]| vec![xs[0].sub(BvValue::one(8))]);
        assert!(matches!(
            verify_against_oracle(&p, &mut bad, 16, 0, 0),
            VerificationResult::CounterexampleFound { .. }
        ));
    }
}
