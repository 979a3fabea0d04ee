//! The per-layer validation passes.
//!
//! Each pass borrows a public artifact type from one workspace crate and
//! re-checks, from first principles, the invariants its producer is
//! supposed to maintain. Passes never mutate and never panic on malformed
//! artifacts — malformedness is what they report.

use crate::{codes, Report, Validator};
use sciduction::exec::{CacheStats, FaultPlan};
use sciduction::recover::{replay_breaker, EntrantLog, RetryPolicy};
use sciduction::shard::{ShardDeath, ShardEvent, ShardRace};
use sciduction::{BudgetReceipt, Exhausted, Verdict};
use sciduction_cfg::{Basis, Dag, RankTracker};
use sciduction_gametime::MeasurementJournal;
use sciduction_hybrid::{GuardSearchJournal, HyperBox, HyperboxGuards, Mds, SwitchingLogic};
use sciduction_ir::{Function, Operand, Terminator};
use sciduction_ogis::{CegisJournal, ComponentLibrary, SynthProgram};
use sciduction_proof::{
    check_certificate, check_drat, CheckError, CnfFormula, Proof, SmtCertificate,
};
use sciduction_sat::{Cnf, Lit, PortfolioOutcome, SolveResult, Solver as SatSolver};
use sciduction_smt::{BvValue, Sort, Term, TermPool};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

/// Validates a [`Function`]: register/width/terminator well-formedness,
/// def-before-use via a must-defined dataflow, reachability, and
/// (optionally) loop-freeness.
pub struct IrValidator<'a> {
    func: &'a Function,
    require_loop_free: bool,
}

impl<'a> IrValidator<'a> {
    /// A validator over `func` with loop-freeness not required.
    pub fn new(func: &'a Function) -> Self {
        IrValidator {
            func,
            require_loop_free: false,
        }
    }

    /// Additionally requires the block graph to be acyclic (`IR005`) — the
    /// contract for unrolled GameTime functions and OGIS-style programs.
    pub fn require_loop_free(mut self) -> Self {
        self.require_loop_free = true;
        self
    }
}

impl Validator for IrValidator<'_> {
    fn name(&self) -> &'static str {
        "ir"
    }

    fn validate(&self, report: &mut Report) {
        let f = self.func;
        let pass = self.name();
        let nblocks = f.blocks.len();
        if nblocks == 0 {
            report.error(codes::IR003, pass, f.name.clone(), "function has no blocks");
            return;
        }
        if !(1..=64).contains(&f.width) {
            report.error(
                codes::IR002,
                pass,
                f.name.clone(),
                format!("word width {} outside 1..=64", f.width),
            );
        }
        if f.entry.index() >= nblocks {
            report.error(
                codes::IR003,
                pass,
                f.name.clone(),
                format!("entry block {} does not exist", f.entry),
            );
            return;
        }
        let mask = if f.width >= 64 {
            u64::MAX
        } else {
            (1u64 << f.width) - 1
        };

        // Per-operand structural checks.
        let check_operand = |report: &mut Report, loc: &str, o: Operand| match o {
            Operand::Reg(r) => {
                if r.index() >= f.num_regs {
                    report.error(
                        codes::IR004,
                        pass,
                        loc.to_string(),
                        format!("register {r} out of range (num_regs = {})", f.num_regs),
                    );
                }
            }
            Operand::Imm(v) => {
                if v & !mask != 0 {
                    report.warning(
                        codes::IR002,
                        pass,
                        loc.to_string(),
                        format!("immediate {v:#x} exceeds the {}-bit word width", f.width),
                    );
                }
            }
        };

        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, instr) in b.instrs.iter().enumerate() {
                let loc = format!("{}/block{}/instr{}", f.name, bi, ii);
                if let Some(d) = instr.def() {
                    if d.index() >= f.num_regs {
                        report.error(
                            codes::IR004,
                            pass,
                            loc.clone(),
                            format!("destination {d} out of range (num_regs = {})", f.num_regs),
                        );
                    }
                }
                for u in instr.uses() {
                    check_operand(report, &loc, u);
                }
            }
            let loc = format!("{}/block{}/terminator", f.name, bi);
            match &b.terminator {
                Terminator::Jump(t) => {
                    if t.index() >= nblocks {
                        report.error(
                            codes::IR003,
                            pass,
                            loc,
                            format!("jump targets missing block {t}"),
                        );
                    }
                }
                Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                } => {
                    check_operand(report, &loc, *cond);
                    for t in [then_to, else_to] {
                        if t.index() >= nblocks {
                            report.error(
                                codes::IR003,
                                pass,
                                loc.clone(),
                                format!("branch targets missing block {t}"),
                            );
                        }
                    }
                }
                Terminator::Return(v) => check_operand(report, &loc, *v),
            }
        }

        // Successor lists, clipped to existing blocks (dangling targets were
        // already reported above).
        let succs: Vec<Vec<usize>> = f
            .blocks
            .iter()
            .map(|b| {
                b.terminator
                    .successors()
                    .into_iter()
                    .map(|s| s.index())
                    .filter(|&s| s < nblocks)
                    .collect()
            })
            .collect();

        // Reachability from entry (IR006) — BFS.
        let mut reachable = vec![false; nblocks];
        let mut queue = vec![f.entry.index()];
        reachable[f.entry.index()] = true;
        while let Some(b) = queue.pop() {
            for &s in &succs[b] {
                if !reachable[s] {
                    reachable[s] = true;
                    queue.push(s);
                }
            }
        }
        for (bi, &r) in reachable.iter().enumerate() {
            if !r {
                report.warning(
                    codes::IR006,
                    pass,
                    format!("{}/block{}", f.name, bi),
                    "block unreachable from entry",
                );
            }
        }

        // Loop-freeness (IR005) — DFS back-edge detection.
        if self.require_loop_free {
            if let Some((from, to)) = find_back_edge(&succs, f.entry.index()) {
                report.error(
                    codes::IR005,
                    pass,
                    format!("{}/block{}", f.name, from),
                    format!("back edge to block{to} in a function required to be loop-free"),
                );
            }
        }

        // Def-before-use (IR001) — must-defined forward dataflow. A register
        // is surely defined at block entry iff it is defined along *every*
        // path from entry; uses of registers not surely defined are flagged.
        let preds: Vec<Vec<usize>> = {
            let mut p = vec![Vec::new(); nblocks];
            for (b, ss) in succs.iter().enumerate() {
                for &s in ss {
                    p[s].push(b);
                }
            }
            p
        };
        let nregs = f.num_regs;
        // defined_out[b]: bitset over registers; start from the optimistic
        // all-defined top and iterate down to the greatest fixpoint.
        let mut defined_out: Vec<Vec<bool>> = vec![vec![true; nregs]; nblocks];
        let block_defs: Vec<Vec<usize>> = f
            .blocks
            .iter()
            .map(|b| {
                b.instrs
                    .iter()
                    .filter_map(|i| i.def())
                    .map(|r| r.index())
                    .filter(|&r| r < nregs)
                    .collect()
            })
            .collect();
        let entry_in: Vec<bool> = (0..nregs).map(|r| r < f.num_params).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nblocks {
                if !reachable[b] {
                    continue;
                }
                let mut in_set = if b == f.entry.index() {
                    entry_in.clone()
                } else {
                    let mut acc = vec![true; nregs];
                    let mut any = false;
                    for &p in &preds[b] {
                        if !reachable[p] {
                            continue;
                        }
                        any = true;
                        for (a, o) in acc.iter_mut().zip(&defined_out[p]) {
                            *a = *a && *o;
                        }
                    }
                    if !any {
                        // Reachable only via the entry edge case handled above.
                        vec![false; nregs]
                    } else {
                        acc
                    }
                };
                for &d in &block_defs[b] {
                    in_set[d] = true;
                }
                if in_set != defined_out[b] {
                    defined_out[b] = in_set;
                    changed = true;
                }
            }
        }

        for (bi, b) in f.blocks.iter().enumerate() {
            if !reachable[bi] {
                continue;
            }
            let mut defined: Vec<bool> = if bi == f.entry.index() {
                entry_in.clone()
            } else {
                let mut acc = vec![true; nregs];
                let mut any = false;
                for &p in &preds[bi] {
                    if !reachable[p] {
                        continue;
                    }
                    any = true;
                    for (a, o) in acc.iter_mut().zip(&defined_out[p]) {
                        *a = *a && *o;
                    }
                }
                if any {
                    acc
                } else {
                    vec![false; nregs]
                }
            };
            let flag_use = |report: &mut Report, loc: &str, o: Operand, defined: &[bool]| {
                if let Operand::Reg(r) = o {
                    if r.index() < nregs && !defined[r.index()] {
                        report.error(
                            codes::IR001,
                            pass,
                            loc.to_string(),
                            format!("use of register {r} with no dominating definition"),
                        );
                    }
                }
            };
            for (ii, instr) in b.instrs.iter().enumerate() {
                let loc = format!("{}/block{}/instr{}", f.name, bi, ii);
                for u in instr.uses() {
                    flag_use(report, &loc, u, &defined);
                }
                if let Some(d) = instr.def() {
                    if d.index() < nregs {
                        defined[d.index()] = true;
                    }
                }
            }
            let loc = format!("{}/block{}/terminator", f.name, bi);
            match &b.terminator {
                Terminator::Branch { cond, .. } => flag_use(report, &loc, *cond, &defined),
                Terminator::Return(v) => flag_use(report, &loc, *v, &defined),
                Terminator::Jump(_) => {}
            }
        }
    }
}

/// First DFS back edge `(from, to)` of the block graph, if any.
fn find_back_edge(succs: &[Vec<usize>], entry: usize) -> Option<(usize, usize)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; succs.len()];
    let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
    color[entry] = Color::Gray;
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        if *next < succs[node].len() {
            let s = succs[node][*next];
            *next += 1;
            match color[s] {
                Color::Gray => return Some((node, s)),
                Color::White => {
                    color[s] = Color::Gray;
                    stack.push((s, 0));
                }
                Color::Black => {}
            }
        } else {
            color[node] = Color::Black;
            stack.pop();
        }
    }
    None
}

// ---------------------------------------------------------------------------
// SMT
// ---------------------------------------------------------------------------

/// Validates a [`TermPool`]: dangling ids, hash-consing integrity, and a
/// full bottom-up sort re-check of the term DAG.
pub struct TermPoolValidator<'a> {
    pool: &'a TermPool,
}

impl<'a> TermPoolValidator<'a> {
    /// A validator over `pool`.
    pub fn new(pool: &'a TermPool) -> Self {
        TermPoolValidator { pool }
    }
}

impl Validator for TermPoolValidator<'_> {
    fn name(&self) -> &'static str {
        "smt"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let pool = self.pool;
        let mut seen: HashMap<&Term, usize> = HashMap::new();
        for (id, t) in pool.iter() {
            let idx = id.index();
            let loc = format!("term#{idx}");

            // SMT003: children must be strictly older than their parent.
            let mut dangling = false;
            for c in term_children(t) {
                if c.index() >= idx {
                    report.error(
                        codes::SMT003,
                        pass,
                        loc.clone(),
                        format!(
                            "child term#{} is not older than its parent (append-only DAG violated)",
                            c.index()
                        ),
                    );
                    dangling = true;
                }
            }

            // SMT002: hash-consing must intern structurally equal terms once.
            if let Some(&prev) = seen.get(t) {
                report.error(
                    codes::SMT002,
                    pass,
                    loc.clone(),
                    format!("structurally equal to term#{prev} — hash-consing violated"),
                );
            } else {
                seen.insert(t, idx);
            }

            // SMT001/SMT004: bottom-up sort re-check (children's *recorded*
            // sorts are used; they were themselves re-checked earlier).
            if dangling {
                continue; // sorts of forward references are meaningless
            }
            match recompute_sort(pool, t) {
                Ok(expected) => {
                    let recorded = pool.sort(id);
                    if recorded != expected {
                        report.error(
                            codes::SMT001,
                            pass,
                            loc,
                            format!("recorded sort {recorded} but structure implies {expected}"),
                        );
                    }
                }
                Err(msg) => {
                    report.error(codes::SMT004, pass, loc, msg);
                }
            }
        }
    }
}

/// The child ids of a term.
fn term_children(t: &Term) -> Vec<sciduction_smt::TermId> {
    match t {
        Term::BoolConst(_) | Term::BvConst(_) | Term::Var(..) => vec![],
        Term::Not(a) | Term::BvNot(a) | Term::BvNeg(a) => vec![*a],
        Term::Extract(_, _, a) | Term::ZeroExt(_, a) | Term::SignExt(_, a) => vec![*a],
        Term::And(a, b)
        | Term::Or(a, b)
        | Term::Xor(a, b)
        | Term::Eq(a, b)
        | Term::Concat(a, b) => vec![*a, *b],
        Term::BvBin(_, a, b) | Term::BvCmp(_, a, b) => vec![*a, *b],
        Term::Ite(c, t, e) => vec![*c, *t, *e],
    }
}

/// Recomputes the sort a term must have from its children's recorded
/// sorts; errors describe structural (SMT004-class) malformations.
fn recompute_sort(pool: &TermPool, t: &Term) -> Result<Sort, String> {
    let bv_width = |id: sciduction_smt::TermId| -> Result<u32, String> {
        pool.sort(id)
            .width()
            .ok_or_else(|| format!("term#{} used as a bit-vector but has sort Bool", id.index()))
    };
    let want_bool = |id: sciduction_smt::TermId| -> Result<(), String> {
        if pool.sort(id) == Sort::Bool {
            Ok(())
        } else {
            Err(format!(
                "term#{} used as Bool but has sort {}",
                id.index(),
                pool.sort(id)
            ))
        }
    };
    match t {
        Term::BoolConst(_) => Ok(Sort::Bool),
        Term::BvConst(v) => Ok(Sort::BitVec(v.width())),
        Term::Var(_, s) => Ok(*s),
        Term::Not(a) => {
            want_bool(*a)?;
            Ok(Sort::Bool)
        }
        Term::And(a, b) | Term::Or(a, b) | Term::Xor(a, b) => {
            want_bool(*a)?;
            want_bool(*b)?;
            Ok(Sort::Bool)
        }
        Term::Ite(c, th, el) => {
            want_bool(*c)?;
            let st = pool.sort(*th);
            let se = pool.sort(*el);
            if st != se {
                return Err(format!("ite branches have different sorts {st} vs {se}"));
            }
            Ok(st)
        }
        Term::Eq(a, b) => {
            let sa = pool.sort(*a);
            let sb = pool.sort(*b);
            if sa != sb {
                return Err(format!("eq operands have different sorts {sa} vs {sb}"));
            }
            Ok(Sort::Bool)
        }
        Term::BvBin(_, a, b) => {
            let wa = bv_width(*a)?;
            let wb = bv_width(*b)?;
            if wa != wb {
                return Err(format!("bit-vector operands have widths {wa} vs {wb}"));
            }
            Ok(Sort::BitVec(wa))
        }
        Term::BvNot(a) | Term::BvNeg(a) => Ok(Sort::BitVec(bv_width(*a)?)),
        Term::BvCmp(_, a, b) => {
            let wa = bv_width(*a)?;
            let wb = bv_width(*b)?;
            if wa != wb {
                return Err(format!("comparison operands have widths {wa} vs {wb}"));
            }
            Ok(Sort::Bool)
        }
        Term::Concat(hi, lo) => {
            let wh = bv_width(*hi)?;
            let wl = bv_width(*lo)?;
            if wh + wl > 64 {
                return Err(format!("concat width {} exceeds 64", wh + wl));
            }
            Ok(Sort::BitVec(wh + wl))
        }
        Term::Extract(hi, lo, a) => {
            let w = bv_width(*a)?;
            if lo > hi || *hi >= w {
                return Err(format!("extract [{hi}:{lo}] out of bounds for width {w}"));
            }
            Ok(Sort::BitVec(hi - lo + 1))
        }
        Term::ZeroExt(w, a) | Term::SignExt(w, a) => {
            let wa = bv_width(*a)?;
            if *w < wa || *w > 64 {
                return Err(format!("extension to width {w} from width {wa} malformed"));
            }
            Ok(Sort::BitVec(*w))
        }
    }
}

// ---------------------------------------------------------------------------
// SAT
// ---------------------------------------------------------------------------

/// Audits a clause set: variable bounds (`SAT001`), tautologies
/// (`SAT002`), and duplicate literals (`SAT003`).
pub fn audit_clauses(
    num_vars: usize,
    clauses: impl IntoIterator<Item = impl AsRef<[Lit]>>,
    pass: &'static str,
    report: &mut Report,
) {
    for (ci, clause) in clauses.into_iter().enumerate() {
        let lits = clause.as_ref();
        let loc = format!("clause#{ci}");
        let mut pos = vec![false; num_vars];
        let mut neg = vec![false; num_vars];
        for &l in lits {
            let v = l.var().index();
            if v >= num_vars {
                report.error(
                    codes::SAT001,
                    pass,
                    loc.clone(),
                    format!("literal {l} over variable x{v} outside range (num_vars = {num_vars})"),
                );
                continue;
            }
            let bucket = if l.is_negative() { &mut neg } else { &mut pos };
            if bucket[v] {
                report.warning(
                    codes::SAT003,
                    pass,
                    loc.clone(),
                    format!("duplicate literal {l}"),
                );
            }
            bucket[v] = true;
        }
        if (0..num_vars).any(|v| pos[v] && neg[v]) {
            report.warning(codes::SAT002, pass, loc, "tautological clause (x ∨ ¬x)");
        }
    }
}

/// Certifying model check: re-evaluates every clause under `model`
/// (`SAT004`), after shape-checking the model itself (`SAT005`).
pub fn certify_model(
    num_vars: usize,
    clauses: impl IntoIterator<Item = impl AsRef<[Lit]>>,
    model: &[bool],
    pass: &'static str,
    report: &mut Report,
) {
    if model.len() != num_vars {
        report.error(
            codes::SAT005,
            pass,
            "model",
            format!("model has {} entries for {num_vars} variables", model.len()),
        );
        return;
    }
    for (ci, clause) in clauses.into_iter().enumerate() {
        let lits = clause.as_ref();
        let satisfied = lits.iter().any(|&l| {
            let v = l.var().index();
            v < num_vars && (model[v] ^ l.is_negative())
        });
        if !satisfied {
            report.error(
                codes::SAT004,
                pass,
                format!("clause#{ci}"),
                format!("clause {lits:?} evaluates to false under the claimed model"),
            );
        }
    }
}

/// Validates a [`SatSolver`]'s live clause database, optionally certifying
/// a returned model against it.
pub struct SatValidator<'a> {
    solver: &'a SatSolver,
    model: Option<&'a [bool]>,
}

impl<'a> SatValidator<'a> {
    /// Audits the solver's clause database only.
    pub fn new(solver: &'a SatSolver) -> Self {
        SatValidator {
            solver,
            model: None,
        }
    }

    /// Additionally re-evaluates every live clause against `model`.
    pub fn with_model(mut self, model: &'a [bool]) -> Self {
        self.model = Some(model);
        self
    }
}

impl Validator for SatValidator<'_> {
    fn name(&self) -> &'static str {
        "sat"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let clauses: Vec<&[Lit]> = self.solver.clauses().map(|c| c.lits()).collect();
        audit_clauses(
            self.solver.num_vars(),
            clauses.iter().copied(),
            pass,
            report,
        );
        if let Some(model) = self.model {
            certify_model(self.solver.num_vars(), clauses, model, pass, report);
        }
    }
}

// ---------------------------------------------------------------------------
// Portfolio / parallel execution
// ---------------------------------------------------------------------------

/// Validates a [`PortfolioOutcome`] against the [`Cnf`] it raced on.
///
/// * `PAR002` — the portfolio verdict is re-derived by an independent
///   sequential solve of the same formula under the same assumptions; a
///   disagreement, or an UNSAT-under-assumptions outcome with no
///   failed-assumption witness, is reported.
/// * `PAR001` — on SAT, the winner's model is re-checked against **every**
///   parked member's clause database, losers included. Learnt clauses are
///   derived by resolution from the clause database alone (assumptions
///   enter as decisions, not clauses), so they are implied by the formula
///   and a genuine model must satisfy all of them; a falsified clause in
///   any member means either a bogus model or an unsound learnt clause.
pub struct PortfolioValidator<'a> {
    cnf: &'a Cnf,
    assumptions: &'a [Lit],
    outcome: &'a PortfolioOutcome,
}

impl<'a> PortfolioValidator<'a> {
    /// A validator re-checking `outcome` against the formula it solved.
    pub fn new(cnf: &'a Cnf, assumptions: &'a [Lit], outcome: &'a PortfolioOutcome) -> Self {
        PortfolioValidator {
            cnf,
            assumptions,
            outcome,
        }
    }
}

impl Validator for PortfolioValidator<'_> {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let out = self.outcome;
        let winner_site = || match out.winner {
            Some(w) => format!("winner#{w}"),
            None => "winner#none".to_string(),
        };

        // BUD001/BUD003 — every parked member's receipt must be coherent,
        // win or lose.
        for (mi, member) in out.solvers.iter().enumerate() {
            let Some(solver) = member else { continue };
            if let Some(receipt) = solver.budget_receipt() {
                audit_budget_receipt(receipt, &format!("member#{mi}"), pass, report);
            }
        }

        let result = match out.verdict {
            Verdict::Known(result) => result,
            Verdict::Unknown(cause) => {
                // An exhausted race parks no winner and no model.
                if out.winner.is_some() || !out.model.is_empty() {
                    report.error(
                        codes::BUD002,
                        pass,
                        winner_site(),
                        "unknown verdict carries a winner or a model",
                    );
                }
                match cause {
                    Exhausted::Injected { seed, kind, site } => {
                        // FLT001 — the injection must be reproducible from
                        // the pure fault decision.
                        if !FaultPlan::decides(seed, kind, site) {
                            report.error(
                                codes::FLT001,
                                pass,
                                format!("member#{site}"),
                                format!(
                                    "claimed {kind:?} injection at site {site} is not \
                                     what seed {seed} decides"
                                ),
                            );
                        }
                    }
                    Exhausted::Cancelled => {
                        // Cooperative cancellation leaves no counter to
                        // certify.
                    }
                    Exhausted::Faulted { .. } => {
                        // A panic-parked entrant leaves no counter to
                        // certify; the supervision log carries the
                        // evidence (the `REC` audits re-check it).
                    }
                    resource => {
                        // BUD002 — a resource-exhaustion cause must be
                        // certified by some parked member's receipt.
                        let certified =
                            out.solvers.iter().flatten().any(|s| {
                                s.budget_receipt().is_some_and(|r| r.certifies(&resource))
                            });
                        if !certified {
                            report.error(
                                codes::BUD002,
                                pass,
                                winner_site(),
                                format!("no parked receipt certifies {resource:?}"),
                            );
                        }
                    }
                }
                return;
            }
        };

        // PAR002 — independent sequential re-solve. SAT verdicts are
        // unique even though models are not, so verdict equality is the
        // whole equivalence contract.
        let (mut seq, vars) = self.cnf.into_solver();
        let assumptions: Vec<Lit> = self
            .assumptions
            .iter()
            .map(|&l| Lit::new(vars[l.var().index()], l.is_negative()))
            .collect();
        let reference = seq.solve_with_assumptions(&assumptions);
        if reference != result {
            report.error(
                codes::PAR002,
                pass,
                winner_site(),
                format!(
                    "portfolio verdict {result:?} disagrees with sequential re-solve {reference:?}"
                ),
            );
        }
        if result == SolveResult::Unsat
            && !self.assumptions.is_empty()
            && out.failed_assumptions.is_empty()
        {
            report.error(
                codes::PAR002,
                pass,
                winner_site(),
                "UNSAT under assumptions but the failed-assumption witness is empty",
            );
        }

        // PAR001 — on SAT, the winner's model against every member's full
        // clause database (original + learnt).
        if result == SolveResult::Sat {
            for (mi, member) in out.solvers.iter().enumerate() {
                let Some(solver) = member else { continue };
                if out.model.len() != solver.num_vars() {
                    report.error(
                        codes::PAR001,
                        pass,
                        format!("member#{mi}"),
                        format!(
                            "model has {} entries for member's {} variables",
                            out.model.len(),
                            solver.num_vars()
                        ),
                    );
                    continue;
                }
                for (ci, clause) in solver.clauses().enumerate() {
                    let lits = clause.lits();
                    let satisfied = lits.iter().any(|&l| {
                        let v = l.var().index();
                        v < out.model.len() && (out.model[v] ^ l.is_negative())
                    });
                    if !satisfied {
                        report.error(
                            codes::PAR001,
                            pass,
                            format!("member#{mi}/clause#{ci}"),
                            format!("winner's model falsifies {lits:?} in member {mi}'s database"),
                        );
                    }
                }
            }
        }
    }
}

/// Audits shared query-cache counters for coherence (`PAR003`): every
/// insertion is preceded by a miss and every eviction by an insertion, so
/// `insertions ≤ misses` and `evictions ≤ insertions` must hold at any
/// quiescent point.
pub fn audit_cache_stats(stats: &CacheStats, pass: &'static str, report: &mut Report) {
    if stats.insertions > stats.misses {
        report.error(
            codes::PAR003,
            pass,
            "cache",
            format!(
                "{} insertions exceed {} misses",
                stats.insertions, stats.misses
            ),
        );
    }
    if stats.evictions > stats.insertions {
        report.error(
            codes::PAR003,
            pass,
            "cache",
            format!(
                "{} evictions exceed {} insertions",
                stats.evictions, stats.insertions
            ),
        );
    }
}

/// Audits a [`BudgetReceipt`] from first principles.
///
/// * `BUD001` — a counter exceeding its declared limit is a forged
///   overrun: refuse-at-limit metering can never spend past a limit.
/// * `BUD003` — the logical clock must equal the sum of the counters.
pub fn audit_budget_receipt(
    receipt: &BudgetReceipt,
    site: &str,
    pass: &'static str,
    report: &mut Report,
) {
    for (name, spent, limit) in [
        ("conflicts", receipt.conflicts, receipt.budget.conflicts),
        ("steps", receipt.steps, receipt.budget.steps),
        ("fuel", receipt.fuel, receipt.budget.fuel),
    ] {
        if spent > limit {
            report.error(
                codes::BUD001,
                pass,
                site.to_string(),
                format!("{name} counter {spent} exceeds its limit {limit}"),
            );
        }
    }
    let sum = receipt.conflicts + receipt.steps + receipt.fuel;
    if receipt.clock != sum {
        report.error(
            codes::BUD003,
            pass,
            site.to_string(),
            format!(
                "logical clock {} differs from counter sum {sum}",
                receipt.clock
            ),
        );
    }
}

/// Audits a [`FaultPlan`]'s event log: every recorded injection must be
/// reproducible from the plan's seed via the pure fault decision
/// (`FLT001`). A log that cannot be re-derived means the injection was
/// forged or the plan was mutated after the fact.
pub fn audit_fault_plan(plan: &FaultPlan, pass: &'static str, report: &mut Report) {
    for event in plan.events() {
        if !FaultPlan::decides(plan.seed(), event.kind, event.site) {
            report.error(
                codes::FLT001,
                pass,
                format!("site#{}", event.site),
                format!(
                    "logged {:?} at site {} is not what seed {} decides",
                    event.kind,
                    event.site,
                    plan.seed()
                ),
            );
        }
    }
}

/// Audits a faulted run's verdict against a clean run's verdict of the
/// same problem (`FLT002`): faults may only degrade `Known` to `Unknown`,
/// never change a `Known` answer.
pub fn audit_fault_verdicts<T: PartialEq + std::fmt::Debug>(
    clean: &Verdict<T>,
    faulted: &Verdict<T>,
    pass: &'static str,
    report: &mut Report,
) {
    if let (Verdict::Known(c), Verdict::Known(f)) = (clean, faulted) {
        if c != f {
            report.error(
                codes::FLT002,
                pass,
                "faulted-run",
                format!("faulted verdict {f:?} flips clean verdict {c:?}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery (supervision logs and checkpoint journals)
// ---------------------------------------------------------------------------

/// Audits an [`EntrantLog`]'s circuit-breaker record (`REC002`): the op
/// log is replayed through a fresh breaker ([`replay_breaker`] is the
/// ground truth), and the replayed final state and transition events must
/// equal what the log claims. A replay failure means a logged `Allow`
/// grant contradicts the machine — a forged admission.
pub fn audit_breaker_log(
    threshold: u32,
    cooldown: u32,
    log: &EntrantLog,
    pass: &'static str,
    report: &mut Report,
) {
    let site = format!("entrant#{}", log.entrant);
    match replay_breaker(threshold, cooldown, &log.breaker_ops) {
        None => report.error(
            codes::REC002,
            pass,
            site,
            "breaker op log contains a grant the replayed machine refuses (forged admission)",
        ),
        Some((state, events)) => {
            if state != log.breaker_state {
                report.error(
                    codes::REC002,
                    pass,
                    site.clone(),
                    format!(
                        "logged breaker state {:?} but the op log replays to {state:?}",
                        log.breaker_state
                    ),
                );
            }
            if events != log.breaker_events {
                report.error(
                    codes::REC002,
                    pass,
                    site,
                    format!(
                        "logged {} breaker transition(s) but the op log replays {}",
                        log.breaker_events.len(),
                        events.len()
                    ),
                );
            }
        }
    }
}

/// Audits an [`EntrantLog`]'s retry record against the deterministic
/// backoff schedule (`REC003`): every paid charge must re-derive from the
/// policy seed via [`RetryPolicy::backoff`], attempt 0 can never appear
/// (first tries are free, not retries), and the paid total can never
/// exceed the fuel the log's receipt metered.
pub fn audit_retry_schedule(
    policy: &RetryPolicy,
    log: &EntrantLog,
    pass: &'static str,
    report: &mut Report,
) {
    let site = format!("entrant#{}", log.entrant);
    let mut paid = 0u64;
    for ev in &log.retries {
        if ev.attempt == 0 {
            report.error(
                codes::REC003,
                pass,
                site.clone(),
                format!("retry recorded for attempt 0 at site {}", ev.site),
            );
            continue;
        }
        let expected = policy.backoff_for(ev.site, ev.attempt);
        if ev.charge != expected {
            report.error(
                codes::REC003,
                pass,
                site.clone(),
                format!(
                    "attempt {} at site {} paid {} but the schedule derives {expected}",
                    ev.attempt, ev.site, ev.charge
                ),
            );
        }
        paid += ev.charge;
    }
    if paid > log.receipt.fuel {
        report.error(
            codes::REC003,
            pass,
            site,
            format!(
                "recorded retries paid {paid} fuel but the receipt metered only {}",
                log.receipt.fuel
            ),
        );
    }
}

/// Audits one supervised entrant's full log: budget receipt
/// (`BUD001`/`BUD003`), breaker replay (`REC002`), and retry schedule
/// (`REC003`).
pub fn audit_entrant_log(
    policy: &RetryPolicy,
    threshold: u32,
    cooldown: u32,
    log: &EntrantLog,
    pass: &'static str,
    report: &mut Report,
) {
    audit_budget_receipt(
        &log.receipt,
        &format!("entrant#{}", log.entrant),
        pass,
        report,
    );
    audit_breaker_log(threshold, cooldown, log, pass, report);
    audit_retry_schedule(policy, log, pass, report);
}

/// Audits the raw bytes of a durable record log (DESIGN.md §4.18).
///
/// * `DUR001` — structural corruption: a missing/forged header, a frame
///   whose CRC fails, a truncated frame, or an impossible frame length.
///   Recovery *truncates* such tails silently to keep serving; the audit
///   exists to surface them after the fact, because an artifact handed
///   to the linter is being asserted intact, and trusting a corrupt
///   frame would serve garbage.
/// * `DUR002` — the generation header does not match the reader's
///   expected format generation: a stale log that must be reset, never
///   misread under the wrong layout.
///
/// Returns the scan so callers can audit the surfaced record payloads
/// (the server's WAL recovery decodes them and reports undecodable ones
/// as `DUR001` at that layer).
pub fn audit_record_log(
    bytes: &[u8],
    expected_generation: u64,
    pass: &'static str,
    report: &mut Report,
) -> sciduction::persist::LogScan {
    use sciduction::persist::Corruption;
    let scan = sciduction::persist::scan(bytes);
    if let Some(c) = scan.corruption {
        let site = match c {
            Corruption::TruncatedHeader | Corruption::BadMagic | Corruption::BadHeaderCrc => {
                "header".to_string()
            }
            Corruption::TruncatedFrame { offset }
            | Corruption::BadFrameCrc { offset }
            | Corruption::OversizedFrame { offset, .. } => format!("offset#{offset}"),
        };
        report.error(
            codes::DUR001,
            pass,
            site,
            format!(
                "{c}; {} of {} bytes survive as a valid prefix ({} records)",
                scan.valid_len,
                bytes.len(),
                scan.records.len()
            ),
        );
    }
    if let Some(generation) = scan.generation {
        if generation != expected_generation {
            report.error(
                codes::DUR002,
                pass,
                "header",
                format!(
                    "log generation {generation} does not match expected {expected_generation}"
                ),
            );
        }
    }
    scan
}

/// Audits a [`CegisJournal`] (`REC001`): structural self-consistency plus
/// an exact wire-format round trip.
pub fn audit_cegis_journal(journal: &CegisJournal, pass: &'static str, report: &mut Report) {
    if let Err(e) = journal.check() {
        report.error(codes::REC001, pass, "cegis-journal", e.to_string());
    }
    audit_round_trip(
        journal,
        CegisJournal::serialize,
        CegisJournal::parse,
        "cegis-journal",
        pass,
        report,
    );
}

/// Audits a [`MeasurementJournal`] (`REC001`): an exact wire-format round
/// trip (its replay divergence check lives in the resume path, which
/// re-derives the trial schedule from the seed).
pub fn audit_measurement_journal(
    journal: &MeasurementJournal,
    pass: &'static str,
    report: &mut Report,
) {
    audit_round_trip(
        journal,
        MeasurementJournal::serialize,
        MeasurementJournal::parse,
        "gametime-journal",
        pass,
        report,
    );
}

/// Audits a [`GuardSearchJournal`] (`REC001`): structural
/// self-consistency (ledger coherence) plus an exact wire-format round
/// trip.
pub fn audit_guard_journal(journal: &GuardSearchJournal, pass: &'static str, report: &mut Report) {
    if let Err(e) = journal.check() {
        report.error(codes::REC001, pass, "hybrid-journal", e.to_string());
    }
    audit_round_trip(
        journal,
        GuardSearchJournal::serialize,
        GuardSearchJournal::parse,
        "hybrid-journal",
        pass,
        report,
    );
}

// ---------------------------------------------------------------------------
// Shard supervision (SUP001–SUP003)
// ---------------------------------------------------------------------------

/// Replays a [`ShardRace`]'s supervision log like a certificate
/// (DESIGN.md §4.19).
///
/// * `SUP001` — structure: every beat/death/win/kill names a spawned
///   attempt, attempts per shard are contiguous from 0, a winning
///   attempt logged its first beat before its answer (a death before
///   any beat is legal), each shard has at most one terminal event
///   (gave-up, won, or killed-by-winner), and the race records at most
///   one winner or one degradation, never both.
/// * `SUP002` — charges: each retry charge re-derives from
///   [`RetryPolicy::backoff`] under the log's seed, each watchdog
///   charge equals [`sciduction::shard::WATCHDOG_KILL_CHARGE`], and the
///   supervision receipt meters *exactly* the sum of the recorded charges
///   as fuel (supervision charges nothing else, so `clock == fuel` too).
/// * `SUP003` — settlement: the `winner`/`answer`/`cause` fields agree
///   with the log, a degradation cause is certified by the receipt and
///   matches a recorded give-up, and a retries-exhausted give-up is
///   justified by exactly `max_retries + 1` recorded deaths.
pub fn audit_shard_log(race: &ShardRace, pass: &'static str, report: &mut Report) {
    use std::collections::HashSet;
    let log = &race.log;
    let mut spawned: HashSet<(u64, u32)> = HashSet::new();
    let mut beaten: HashSet<(u64, u32)> = HashSet::new();
    let mut next_attempt: HashMap<u64, u32> = HashMap::new();
    let mut deaths: HashMap<u64, u32> = HashMap::new();
    let mut hung: HashSet<(u64, u32)> = HashSet::new();
    let mut terminal: HashMap<u64, &'static str> = HashMap::new();
    let mut winner: Option<(u64, u32)> = None;
    let mut degraded: Option<Exhausted> = None;
    let mut gave_up: Vec<(u64, u32, Exhausted)> = Vec::new();
    let mut retry_fuel = 0u64;
    let mut watchdog_fuel = 0u64;
    let site = |shard: u64| format!("shard#{shard}");

    let require_spawned = |shard: u64,
                           attempt: u32,
                           what: &str,
                           spawned: &HashSet<(u64, u32)>,
                           report: &mut Report| {
        if !spawned.contains(&(shard, attempt)) {
            report.error(
                codes::SUP001,
                pass,
                site(shard),
                format!("{what} recorded for attempt {attempt}, which was never spawned"),
            );
        }
    };
    let require_open =
        |shard: u64, what: &str, terminal: &HashMap<u64, &'static str>, report: &mut Report| {
            if let Some(prev) = terminal.get(&shard) {
                report.error(
                    codes::SUP001,
                    pass,
                    site(shard),
                    format!("{what} recorded after the shard already settled ({prev})"),
                );
            }
        };

    for ev in &log.events {
        if degraded.is_some() {
            report.error(
                codes::SUP001,
                pass,
                "race".to_string(),
                format!("event {ev:?} recorded after the race degraded"),
            );
        }
        match ev {
            ShardEvent::Spawned { shard, attempt } => {
                let expected = next_attempt.entry(*shard).or_insert(0);
                if *attempt != *expected {
                    report.error(
                        codes::SUP001,
                        pass,
                        site(*shard),
                        format!("spawned attempt {attempt} but expected attempt {expected}"),
                    );
                }
                *expected = attempt + 1;
                require_open(*shard, "a spawn", &terminal, report);
                spawned.insert((*shard, *attempt));
            }
            ShardEvent::Beat { shard, attempt } => {
                require_spawned(*shard, *attempt, "a first heartbeat", &spawned, report);
                require_open(*shard, "a first heartbeat", &terminal, report);
                beaten.insert((*shard, *attempt));
            }
            ShardEvent::Died {
                shard,
                attempt,
                reason,
            } => {
                require_spawned(*shard, *attempt, "a death", &spawned, report);
                require_open(*shard, "a death", &terminal, report);
                *deaths.entry(*shard).or_insert(0) += 1;
                if matches!(reason, ShardDeath::Hung) {
                    hung.insert((*shard, *attempt));
                }
            }
            ShardEvent::Retried {
                shard,
                attempt,
                charge,
            } => {
                if *attempt == 0 {
                    report.error(
                        codes::SUP002,
                        pass,
                        site(*shard),
                        "retry charge recorded for attempt 0 (first tries are never retries)",
                    );
                }
                let expected = RetryPolicy::backoff(log.seed, *shard, *attempt);
                if *charge != expected {
                    report.error(
                        codes::SUP002,
                        pass,
                        site(*shard),
                        format!(
                            "attempt {attempt} paid {charge} but the schedule derives {expected}"
                        ),
                    );
                }
                if *attempt > log.max_retries {
                    report.error(
                        codes::SUP001,
                        pass,
                        site(*shard),
                        format!(
                            "retry for attempt {attempt} exceeds the policy cap {}",
                            log.max_retries
                        ),
                    );
                }
                retry_fuel += charge;
            }
            ShardEvent::WatchdogCharged {
                shard,
                attempt,
                charge,
            } => {
                if !hung.contains(&(*shard, *attempt)) {
                    report.error(
                        codes::SUP002,
                        pass,
                        site(*shard),
                        format!("watchdog charge for attempt {attempt}, which never hung"),
                    );
                }
                if *charge != sciduction::shard::WATCHDOG_KILL_CHARGE {
                    report.error(
                        codes::SUP002,
                        pass,
                        site(*shard),
                        format!(
                            "watchdog charged {charge}, not the fixed kill charge {}",
                            sciduction::shard::WATCHDOG_KILL_CHARGE
                        ),
                    );
                }
                watchdog_fuel += charge;
            }
            ShardEvent::GaveUp {
                shard,
                attempts,
                cause,
            } => {
                require_open(*shard, "a give-up", &terminal, report);
                terminal.insert(*shard, "gave up");
                gave_up.push((*shard, *attempts, *cause));
            }
            ShardEvent::Won { shard, attempt } => {
                require_spawned(*shard, *attempt, "a win", &spawned, report);
                require_open(*shard, "a win", &terminal, report);
                if !beaten.contains(&(*shard, *attempt)) {
                    report.error(
                        codes::SUP001,
                        pass,
                        site(*shard),
                        format!("attempt {attempt} answered with no earlier heartbeat"),
                    );
                }
                terminal.insert(*shard, "won");
                if let Some((prev, _)) = winner {
                    report.error(
                        codes::SUP001,
                        pass,
                        site(*shard),
                        format!("second winner recorded (shard#{prev} already won)"),
                    );
                }
                winner = Some((*shard, *attempt));
            }
            ShardEvent::KilledByWinner { shard, attempt } => {
                require_spawned(*shard, *attempt, "a kill-on-winner", &spawned, report);
                require_open(*shard, "a kill-on-winner", &terminal, report);
                terminal.insert(*shard, "killed by winner");
                if winner.is_none() {
                    report.error(
                        codes::SUP001,
                        pass,
                        site(*shard),
                        "killed-by-winner recorded before any winner",
                    );
                }
            }
            ShardEvent::Degraded { cause } => {
                if winner.is_some() {
                    report.error(
                        codes::SUP001,
                        pass,
                        "race".to_string(),
                        "race records both a winner and a degradation",
                    );
                }
                degraded = Some(*cause);
            }
        }
    }

    // SUP002: the supervision meter charges fuel through exactly two
    // paths (paid retries, charged watchdog kills) and nothing else.
    let charged = retry_fuel + watchdog_fuel;
    if race.receipt.fuel != charged {
        report.error(
            codes::SUP002,
            pass,
            "race".to_string(),
            format!(
                "receipt meters {} fuel but the log records {charged} in charges",
                race.receipt.fuel
            ),
        );
    }
    if race.receipt.clock != race.receipt.fuel || !race.receipt.coherent() {
        report.error(
            codes::SUP002,
            pass,
            "race".to_string(),
            "supervision receipt incoherent (it must meter only fuel)",
        );
    }

    // SUP003: the race's settlement agrees with its own log.
    match (race.winner, &race.answer, race.cause) {
        (Some(idx), Some(_), None) => match winner {
            Some((shard, _)) if shard == idx as u64 => {}
            Some((shard, _)) => report.error(
                codes::SUP003,
                pass,
                "race".to_string(),
                format!("race names shard#{idx} the winner but the log records shard#{shard}"),
            ),
            None => report.error(
                codes::SUP003,
                pass,
                "race".to_string(),
                format!("race names shard#{idx} the winner but the log records no win"),
            ),
        },
        (None, None, Some(cause)) => {
            if !race.receipt.certifies(&cause) {
                report.error(
                    codes::SUP003,
                    pass,
                    "race".to_string(),
                    format!("degradation cause {cause:?} is not certified by the receipt"),
                );
            }
            match degraded {
                Some(logged) if logged == cause => {}
                Some(logged) => report.error(
                    codes::SUP003,
                    pass,
                    "race".to_string(),
                    format!("race cause {cause:?} but the log degraded with {logged:?}"),
                ),
                None => report.error(
                    codes::SUP003,
                    pass,
                    "race".to_string(),
                    "race settled degraded but the log records no degradation",
                ),
            }
            if !gave_up.is_empty() && !gave_up.iter().any(|(_, _, parked)| *parked == cause) {
                report.error(
                    codes::SUP003,
                    pass,
                    "race".to_string(),
                    format!("degradation cause {cause:?} matches no recorded give-up"),
                );
            }
        }
        (w, a, c) => report.error(
            codes::SUP003,
            pass,
            "race".to_string(),
            format!(
                "settlement fields disagree: winner={w:?} answer={} cause={c:?}",
                if a.is_some() { "some" } else { "none" }
            ),
        ),
    }

    // A retries-exhausted give-up must be justified by the deaths: the
    // policy demands max_retries + 1 failed attempts before giving up.
    for (shard, attempts, cause) in &gave_up {
        let died = deaths.get(shard).copied().unwrap_or(0);
        if died != *attempts {
            report.error(
                codes::SUP003,
                pass,
                site(*shard),
                format!("gave up after {attempts} attempts but the log records {died} deaths"),
            );
        }
        if let Exhausted::Faulted { site: s } = cause {
            if *s != *shard {
                report.error(
                    codes::SUP003,
                    pass,
                    site(*shard),
                    format!("retries-exhausted cause names site {s}, not the shard itself"),
                );
            }
            if *attempts != log.max_retries + 1 {
                report.error(
                    codes::SUP003,
                    pass,
                    site(*shard),
                    format!(
                        "gave up as retries-exhausted after {attempts} attempts under a \
                         max_retries={} policy",
                        log.max_retries
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Proof certification (PRF001–PRF004)
// ---------------------------------------------------------------------------

/// Maps a proof-checker rejection to its stable lint code.
fn proof_error_code(e: &CheckError) -> &'static str {
    match e {
        CheckError::NoEmptyClause => codes::PRF002,
        CheckError::ForgedDeletion { .. } => codes::PRF003,
        CheckError::BlastingMap(_) => codes::PRF004,
        CheckError::Dimacs(_) | CheckError::Malformed { .. } | CheckError::NotRup { .. } => {
            codes::PRF001
        }
    }
}

/// Replays a claimed SAT refutation through the independent forward
/// RUP/DRAT checker (`PRF001`–`PRF003`). `location` names the instance the
/// proof claims to refute.
pub fn audit_sat_proof(
    cnf: &CnfFormula,
    proof: &Proof,
    location: &str,
    pass: &'static str,
    report: &mut Report,
) {
    if let Err(e) = check_drat(cnf, proof) {
        report.error(proof_error_code(&e), pass, location, e.to_string());
    }
}

/// Replays an end-to-end SMT `unsat` certificate — blasting-map
/// validation, assumption units, DRAT replay — through the independent
/// checker (`PRF001`–`PRF004`).
pub fn audit_smt_certificate(
    cert: &SmtCertificate,
    location: &str,
    pass: &'static str,
    report: &mut Report,
) {
    if let Err(e) = check_certificate(cert) {
        report.error(proof_error_code(&e), pass, location, e.to_string());
    }
}

fn audit_round_trip<J, E>(
    journal: &J,
    serialize: impl Fn(&J) -> String,
    parse: impl Fn(&str) -> Result<J, E>,
    site: &'static str,
    pass: &'static str,
    report: &mut Report,
) where
    J: PartialEq,
    E: std::fmt::Display,
{
    match parse(&serialize(journal)) {
        Ok(parsed) if parsed == *journal => {}
        Ok(_) => report.error(
            codes::REC001,
            pass,
            site,
            "wire-format round trip altered the journal",
        ),
        Err(e) => report.error(
            codes::REC001,
            pass,
            site,
            format!("journal rejects its own serialization: {e}"),
        ),
    }
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

/// Validates a [`Dag`]: edge sanity, independently re-derived acyclicity
/// (`CFG001`), and source→sink coverage (`CFG002`).
pub struct DagValidator<'a> {
    dag: &'a Dag,
}

impl<'a> DagValidator<'a> {
    /// A validator over `dag`.
    pub fn new(dag: &'a Dag) -> Self {
        DagValidator { dag }
    }
}

impl Validator for DagValidator<'_> {
    fn name(&self) -> &'static str {
        "cfg"
    }

    fn validate(&self, report: &mut Report) {
        let edges: Vec<(usize, usize)> = self.dag.edges().iter().map(|e| (e.from, e.to)).collect();
        audit_edge_graph(
            self.dag.num_nodes(),
            &edges,
            self.dag.source(),
            self.dag.sink(),
            self.name(),
            report,
        );
    }
}

/// Audits a raw single-source/single-sink edge graph: endpoint bounds and
/// independently re-derived acyclicity via Kahn's algorithm (`CFG001`),
/// then source→sink coverage of every node (`CFG002`). This is the core of
/// [`DagValidator`], exposed over plain edge lists so corrupted graphs —
/// which [`Dag`]'s constructor refuses to build — can still be audited.
pub fn audit_edge_graph(
    num_nodes: usize,
    edges: &[(usize, usize)],
    source: usize,
    sink: usize,
    pass: &'static str,
    report: &mut Report,
) {
    let n = num_nodes;
    let mut adj = vec![Vec::new(); n];
    let mut radj = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (ei, &(from, to)) in edges.iter().enumerate() {
        if from >= n || to >= n {
            report.error(
                codes::CFG001,
                pass,
                format!("edge#{ei}"),
                format!("edge endpoints {from}→{to} out of node range {n}"),
            );
            continue;
        }
        adj[from].push(to);
        radj[to].push(from);
        indeg[to] += 1;
    }

    // CFG001 — Kahn's algorithm, re-derived from the raw edge list rather
    // than trusting any stored topological order.
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut emitted = 0usize;
    let mut indeg_work = indeg.clone();
    while let Some(v) = queue.pop() {
        emitted += 1;
        for &s in &adj[v] {
            indeg_work[s] -= 1;
            if indeg_work[s] == 0 {
                queue.push(s);
            }
        }
    }
    if emitted < n {
        let on_cycle: Vec<usize> = (0..n).filter(|&v| indeg_work[v] > 0).collect();
        report.error(
            codes::CFG001,
            pass,
            format!("node#{}", on_cycle.first().copied().unwrap_or(0)),
            format!("{} node(s) lie on a cycle: {:?}", on_cycle.len(), on_cycle),
        );
        return; // reachability over a cyclic graph would mislead
    }

    // CFG002 — every node should lie on some source→sink path.
    let reach_from = |starts: &[usize], edges: &[Vec<usize>]| -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = starts.to_vec();
        for &s in starts {
            seen[s] = true;
        }
        while let Some(v) = stack.pop() {
            for &s in &edges[v] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    };
    let fwd = reach_from(&[source], &adj);
    let bwd = reach_from(&[sink], &radj);
    for v in 0..n {
        if !(fwd[v] && bwd[v]) {
            report.warning(
                codes::CFG002,
                pass,
                format!("node#{v}"),
                "node lies on no source→sink path",
            );
        }
    }
}

/// Validates a [`Basis`] against its [`Dag`]: rank bound (`CFG003`), path
/// coherence (`CFG004`), and independently re-derived linear independence
/// (`CFG005`).
pub struct BasisValidator<'a> {
    dag: &'a Dag,
    basis: &'a Basis,
}

impl<'a> BasisValidator<'a> {
    /// A validator over `basis` as extracted from `dag`.
    pub fn new(dag: &'a Dag, basis: &'a Basis) -> Self {
        BasisValidator { dag, basis }
    }
}

impl Validator for BasisValidator<'_> {
    fn name(&self) -> &'static str {
        "basis"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let dag = self.dag;
        let basis = self.basis;
        let ambient = dag.path_space_dim();
        if basis.dim != ambient {
            report.error(
                codes::CFG003,
                pass,
                "basis",
                format!(
                    "recorded dimension {} but DAG has m−n+2 = {ambient}",
                    basis.dim
                ),
            );
        }
        if basis.rank() > ambient {
            report.error(
                codes::CFG003,
                pass,
                "basis",
                format!(
                    "rank {} exceeds path-space dimension {ambient}",
                    basis.rank()
                ),
            );
        }

        let num_edges = dag.num_edges();
        let mut coherent = true;
        for (pi, bp) in basis.paths.iter().enumerate() {
            let loc = format!("basis/path#{pi}");
            let edges = &bp.path.edges;
            if edges.is_empty() {
                report.error(codes::CFG004, pass, loc.clone(), "empty edge sequence");
                coherent = false;
                continue;
            }
            if edges.iter().any(|e| e.index() >= num_edges) {
                report.error(
                    codes::CFG004,
                    pass,
                    loc.clone(),
                    format!("edge id out of range (num_edges = {num_edges})"),
                );
                coherent = false;
                continue;
            }
            let first = dag.edges()[edges[0].index()];
            if first.from != dag.source() {
                report.error(
                    codes::CFG004,
                    pass,
                    loc.clone(),
                    format!("path starts at node {} instead of the source", first.from),
                );
                coherent = false;
            }
            for w in edges.windows(2) {
                let a = dag.edges()[w[0].index()];
                let b = dag.edges()[w[1].index()];
                if a.to != b.from {
                    report.error(
                        codes::CFG004,
                        pass,
                        loc.clone(),
                        format!(
                            "edges {}→{} and {}→{} do not chain",
                            a.from, a.to, b.from, b.to
                        ),
                    );
                    coherent = false;
                }
            }
            let last = dag.edges()[edges.last().unwrap().index()];
            if last.to != dag.sink() {
                report.error(
                    codes::CFG004,
                    pass,
                    loc,
                    format!("path ends at node {} instead of the sink", last.to),
                );
                coherent = false;
            }
        }

        // CFG005 — re-derive independence with a fresh rank tracker.
        if coherent {
            let mut tracker = RankTracker::new();
            for (pi, bp) in basis.paths.iter().enumerate() {
                let v = bp.path.edge_vector(dag);
                if !tracker.insert(&v) {
                    report.error(
                        codes::CFG005,
                        pass,
                        format!("basis/path#{pi}"),
                        "path is a linear combination of earlier basis paths",
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hybrid
// ---------------------------------------------------------------------------

/// Validates a [`SwitchingLogic`] against its [`Mds`] and, optionally, the
/// structure hypothesis and a domain (mode-invariant) box.
pub struct SwitchingLogicValidator<'a> {
    mds: &'a Mds,
    logic: &'a SwitchingLogic,
    hypothesis: Option<&'a HyperboxGuards>,
    domain: Option<&'a HyperBox>,
}

impl<'a> SwitchingLogicValidator<'a> {
    /// A validator over `logic` for the system `mds`.
    pub fn new(mds: &'a Mds, logic: &'a SwitchingLogic) -> Self {
        SwitchingLogicValidator {
            mds,
            logic,
            hypothesis: None,
            domain: None,
        }
    }

    /// Additionally checks every guard against the structure hypothesis
    /// (grid membership, `HYB005`).
    pub fn with_hypothesis(mut self, h: &'a HyperboxGuards) -> Self {
        self.hypothesis = Some(h);
        self
    }

    /// Additionally checks every guard is contained in `domain` (`HYB007`),
    /// the mode-invariant / operating-region box.
    pub fn with_domain(mut self, domain: &'a HyperBox) -> Self {
        self.domain = Some(domain);
        self
    }
}

impl Validator for SwitchingLogicValidator<'_> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let mds = self.mds;
        let logic = self.logic;
        let nmodes = mds.modes.len();

        for (ti, t) in mds.transitions.iter().enumerate() {
            if t.from >= nmodes || t.to >= nmodes {
                report.error(
                    codes::HYB006,
                    pass,
                    format!("transition#{ti}({})", t.name),
                    format!("endpoints {}→{} out of mode range {nmodes}", t.from, t.to),
                );
            }
        }

        if logic.guards.len() != mds.transitions.len() {
            report.error(
                codes::HYB001,
                pass,
                "logic",
                format!(
                    "{} guard(s) for {} transition(s)",
                    logic.guards.len(),
                    mds.transitions.len()
                ),
            );
            return; // per-guard loop below would misattribute transitions
        }

        for (gi, g) in logic.guards.iter().enumerate() {
            let t = &mds.transitions[gi];
            let loc = format!("guard#{gi}({})", t.name);
            if g.dim() != mds.dim || g.hi.len() != g.lo.len() {
                report.error(
                    codes::HYB002,
                    pass,
                    loc.clone(),
                    format!(
                        "guard dimension {} but state dimension {}",
                        g.dim(),
                        mds.dim
                    ),
                );
                continue;
            }
            if g.lo.iter().chain(&g.hi).any(|v| v.is_nan()) {
                report.error(codes::HYB003, pass, loc.clone(), "NaN guard bound");
                continue;
            }
            if g.is_empty() {
                if t.learnable {
                    report.warning(
                        codes::HYB004,
                        pass,
                        loc.clone(),
                        "empty guard: the transition can never fire",
                    );
                }
                continue;
            }
            if let Some(h) = self.hypothesis {
                let single = SwitchingLogic {
                    guards: vec![g.clone()],
                };
                if !sciduction::StructureHypothesis::contains(h, &single) {
                    report.error(
                        codes::HYB005,
                        pass,
                        loc.clone(),
                        format!(
                            "guard vertex off the {}-pitch hypothesis grid",
                            h.grid.precision
                        ),
                    );
                }
            }
            if let Some(domain) = self.domain {
                if t.learnable && !g.is_subset_of(domain) {
                    report.error(
                        codes::HYB007,
                        pass,
                        loc,
                        format!("guard {g} escapes the domain box {domain}"),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// OGIS
// ---------------------------------------------------------------------------

/// Validates a [`SynthProgram`]: loop-freeness/topological order
/// (`OGS001`), index bounds (`OGS002`), arities (`OGS003`/`OGS004`), and a
/// certifying re-evaluation against recorded I/O examples (`OGS005`).
pub struct SynthProgramValidator<'a> {
    program: &'a SynthProgram,
    library: Option<&'a ComponentLibrary>,
    examples: &'a [(Vec<BvValue>, Vec<BvValue>)],
}

impl<'a> SynthProgramValidator<'a> {
    /// A structural validator over `program`.
    pub fn new(program: &'a SynthProgram) -> Self {
        SynthProgramValidator {
            program,
            library: None,
            examples: &[],
        }
    }

    /// Additionally checks the program's shape against the component
    /// library it was synthesized from.
    pub fn with_library(mut self, library: &'a ComponentLibrary) -> Self {
        self.library = Some(library);
        self
    }

    /// Additionally re-evaluates the program on `examples` (`OGS005`) —
    /// the certificate the inductive engine's SMT encoding claims.
    pub fn with_examples(mut self, examples: &'a [(Vec<BvValue>, Vec<BvValue>)]) -> Self {
        self.examples = examples;
        self
    }
}

impl Validator for SynthProgramValidator<'_> {
    fn name(&self) -> &'static str {
        "ogis"
    }

    fn validate(&self, report: &mut Report) {
        let pass = self.name();
        let p = self.program;
        let total = p.num_inputs + p.lines.len();
        let mut structurally_sound = true;

        for (li, (op, operands)) in p.lines.iter().enumerate() {
            let loc = format!("line#{li}({})", op.name());
            if operands.len() != op.arity() {
                report.error(
                    codes::OGS003,
                    pass,
                    loc.clone(),
                    format!(
                        "{} operand(s) for arity-{} component",
                        operands.len(),
                        op.arity()
                    ),
                );
                structurally_sound = false;
            }
            for &o in operands {
                if o >= total {
                    report.error(
                        codes::OGS002,
                        pass,
                        loc.clone(),
                        format!("operand index {o} out of range (total values = {total})"),
                    );
                    structurally_sound = false;
                } else if o >= p.num_inputs + li {
                    report.error(
                        codes::OGS001,
                        pass,
                        loc.clone(),
                        format!(
                            "operand references value #{o}, not computed before line {li} \
                             (program not loop-free/topologically ordered)"
                        ),
                    );
                    structurally_sound = false;
                }
            }
        }

        for (oi, &o) in p.outputs.iter().enumerate() {
            if o >= total {
                report.error(
                    codes::OGS002,
                    pass,
                    format!("output#{oi}"),
                    format!("output index {o} out of range (total values = {total})"),
                );
                structurally_sound = false;
            }
        }

        if let Some(lib) = self.library {
            if p.num_inputs != lib.num_inputs || p.width != lib.width {
                report.error(
                    codes::OGS002,
                    pass,
                    "program",
                    format!(
                        "program shape ({} inputs, width {}) disagrees with library \
                         ({} inputs, width {})",
                        p.num_inputs, p.width, lib.num_inputs, lib.width
                    ),
                );
                structurally_sound = false;
            }
            if p.outputs.len() != lib.num_outputs {
                report.error(
                    codes::OGS004,
                    pass,
                    "program",
                    format!(
                        "{} output(s) but the library specifies {}",
                        p.outputs.len(),
                        lib.num_outputs
                    ),
                );
                structurally_sound = false;
            }
        }

        // OGS005 — certifying re-evaluation. Only run on structurally sound
        // programs: evaluation of a malformed program would panic.
        if structurally_sound {
            for (ei, (inputs, outputs)) in self.examples.iter().enumerate() {
                let loc = format!("example#{ei}");
                if inputs.len() != p.num_inputs || inputs.iter().any(|v| v.width() != p.width) {
                    report.error(
                        codes::OGS005,
                        pass,
                        loc,
                        "recorded example has mismatched arity or width",
                    );
                    continue;
                }
                let got = p.eval(inputs);
                if &got != outputs {
                    report.error(
                        codes::OGS005,
                        pass,
                        loc,
                        format!("program yields {got:?} but the example records {outputs:?}"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod shard_audit_tests {
    use super::*;
    use crate::codes;
    use sciduction::shard::{ShardAnswer, ShardLog, ShardRace};
    use sciduction::{Budget, BudgetMeter, Exhausted};

    /// A hand-built clean single-shard win: spawn, win, nothing charged.
    fn clean_win() -> ShardRace {
        ShardRace {
            winner: Some(0),
            answer: Some(ShardAnswer::Result(b"ok".to_vec())),
            cause: None,
            receipt: BudgetMeter::new(Budget::UNLIMITED).receipt(),
            log: ShardLog {
                seed: 7,
                max_retries: 1,
                events: vec![
                    ShardEvent::Spawned {
                        shard: 0,
                        attempt: 0,
                    },
                    ShardEvent::Beat {
                        shard: 0,
                        attempt: 0,
                    },
                    ShardEvent::Won {
                        shard: 0,
                        attempt: 0,
                    },
                ],
            },
        }
    }

    /// A hand-built honest degradation: one shard, one paid retry, both
    /// attempts die, give up with the retries-exhausted cause.
    fn honest_degradation() -> ShardRace {
        let seed = 7u64;
        let charge = RetryPolicy::backoff(seed, 0, 1);
        let mut meter = BudgetMeter::new(Budget::UNLIMITED);
        meter.charge_fuel_batch(charge).expect("unlimited");
        let cause = Exhausted::Faulted { site: 0 };
        ShardRace {
            winner: None,
            answer: None,
            cause: Some(cause),
            receipt: meter.receipt(),
            log: ShardLog {
                seed,
                max_retries: 1,
                events: vec![
                    ShardEvent::Spawned {
                        shard: 0,
                        attempt: 0,
                    },
                    ShardEvent::Died {
                        shard: 0,
                        attempt: 0,
                        reason: ShardDeath::Exited { code: None },
                    },
                    ShardEvent::Retried {
                        shard: 0,
                        attempt: 1,
                        charge,
                    },
                    ShardEvent::Spawned {
                        shard: 0,
                        attempt: 1,
                    },
                    ShardEvent::Died {
                        shard: 0,
                        attempt: 1,
                        reason: ShardDeath::Exited { code: Some(134) },
                    },
                    ShardEvent::GaveUp {
                        shard: 0,
                        attempts: 2,
                        cause,
                    },
                    ShardEvent::Degraded { cause },
                ],
            },
        }
    }

    #[test]
    fn honest_races_audit_clean() {
        for race in [clean_win(), honest_degradation()] {
            let mut report = Report::new();
            audit_shard_log(&race, "test", &mut report);
            assert!(report.is_clean(), "{report:?}");
        }
    }

    #[test]
    fn forged_retry_charge_is_sup002() {
        let mut race = honest_degradation();
        for ev in &mut race.log.events {
            if let ShardEvent::Retried { charge, .. } = ev {
                *charge += 1;
            }
        }
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP002), "{report:?}");
    }

    #[test]
    fn receipt_fuel_off_the_log_is_sup002() {
        let mut race = clean_win();
        race.receipt.fuel = 3;
        race.receipt.clock = 3;
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP002), "{report:?}");
    }

    #[test]
    fn watchdog_charge_without_a_hang_is_sup002() {
        let mut race = clean_win();
        race.log.events.insert(
            1,
            ShardEvent::WatchdogCharged {
                shard: 0,
                attempt: 0,
                charge: sciduction::shard::WATCHDOG_KILL_CHARGE,
            },
        );
        race.receipt.fuel = sciduction::shard::WATCHDOG_KILL_CHARGE;
        race.receipt.clock = race.receipt.fuel;
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP002), "{report:?}");
    }

    /// Whether `report` holds a `SUP001` whose message contains `needle`,
    /// so each negative control pins its own rule rather than any SUP001.
    fn sup001_says(report: &Report, needle: &str) -> bool {
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == codes::SUP001 && d.message.contains(needle))
    }

    #[test]
    fn unspawned_win_and_double_winner_are_sup001() {
        let mut race = clean_win();
        race.log.events[2] = ShardEvent::Won {
            shard: 0,
            attempt: 5,
        };
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP001), "{report:?}");
        assert!(sup001_says(&report, "never spawned"), "{report:?}");

        let mut race = honest_degradation();
        race.log.events.push(ShardEvent::Won {
            shard: 0,
            attempt: 0,
        });
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP001), "{report:?}");
        assert!(
            sup001_says(&report, "after the race degraded"),
            "{report:?}"
        );
    }

    #[test]
    fn answer_without_a_first_beat_is_sup001() {
        let mut race = clean_win();
        race.log
            .events
            .retain(|e| !matches!(e, ShardEvent::Beat { .. }));
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(sup001_says(&report, "no earlier heartbeat"), "{report:?}");
    }

    #[test]
    fn flipped_degradation_cause_is_sup003() {
        let mut race = honest_degradation();
        race.cause = Some(Exhausted::Cancelled);
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP003), "{report:?}");
    }

    #[test]
    fn winner_disagreeing_with_the_log_is_sup003() {
        let mut race = clean_win();
        race.winner = Some(2);
        let mut report = Report::new();
        audit_shard_log(&race, "test", &mut report);
        assert!(report.has_code(codes::SUP003), "{report:?}");
    }
}
