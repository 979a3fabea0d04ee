//! Corrupted-artifact tests: each validation pass is fed a deliberately
//! broken artifact and must emit exactly the documented lint code — plus a
//! clean negative on the corresponding well-formed artifact. Together these
//! pin the code registry of `sciduction_analysis::codes`.

use sciduction::exec::{CacheStats, FaultKind, FaultPlan, StopFlag};
use sciduction::recover::{
    Attempt, BreakerOp, BreakerState, EntrantLog, RetryEvent, RetryPolicy, Supervisor,
    DEFAULT_BREAKER_COOLDOWN, DEFAULT_BREAKER_THRESHOLD,
};
use sciduction::{Budget, BudgetReceipt, Exhausted, Verdict};
use sciduction_analysis::passes::{
    audit_breaker_log, audit_budget_receipt, audit_cache_stats, audit_cegis_journal, audit_clauses,
    audit_edge_graph, audit_entrant_log, audit_fault_plan, audit_fault_verdicts,
    audit_guard_journal, audit_measurement_journal, audit_retry_schedule, audit_sat_proof,
    audit_smt_certificate, certify_model, BasisValidator, DagValidator, IrValidator,
    PortfolioValidator, SwitchingLogicValidator, SynthProgramValidator, TermPoolValidator,
};
use sciduction_analysis::{codes, Report, Severity, Validator};
use sciduction_cfg::{extract_basis, BasisConfig, Dag, SmtOracle};
use sciduction_gametime::MeasurementJournal;
use sciduction_hybrid::{
    Grid, GuardSearchJournal, HyperBox, HyperboxGuards, Mds, Mode, SwitchingLogic, Transition,
};
use sciduction_ir::{programs, BinOp, Block, BlockId, Function, Instr, Operand, Reg, Terminator};
use sciduction_ogis::{CegisJournal, ComponentLibrary, Op, SynthProgram};
use sciduction_proof::{CnfFormula, Proof, ProofStep, SmtCertificate};
use sciduction_sat::{solve_portfolio, Cnf, Lit, PortfolioConfig, SolveResult, Var};
use sciduction_smt::{BvValue, CheckResult, Solver as SmtSolver, Sort, Term, TermId, TermPool};
use std::sync::Arc;

fn lit(i: usize, neg: bool) -> Lit {
    if neg {
        Lit::negative(Var::from_index(i))
    } else {
        Lit::positive(Var::from_index(i))
    }
}

// -------------------------------------------------------------------------
// IR
// -------------------------------------------------------------------------

/// A minimal single-block function `f(p0) = p0 + 1` to corrupt from.
fn tiny_func() -> Function {
    Function {
        name: "tiny".into(),
        num_params: 1,
        num_regs: 2,
        width: 8,
        blocks: vec![Block {
            instrs: vec![Instr::Bin {
                dst: Reg::from_index(1),
                op: BinOp::Add,
                a: Operand::Reg(Reg::from_index(0)),
                b: Operand::Imm(1),
            }],
            terminator: Terminator::Return(Operand::Reg(Reg::from_index(1))),
        }],
        entry: BlockId::from_index(0),
    }
}

#[test]
fn ir_clean_negatives() {
    for f in [
        tiny_func(),
        programs::fig4_toy(),
        programs::modexp(),
        programs::crc8(),
        programs::fir4(),
        programs::bubble_pass(),
    ] {
        let r = IrValidator::new(&f).run();
        assert!(!r.has_errors(), "{}: {r}", f.name);
    }
}

#[test]
fn ir001_use_without_definition() {
    let mut f = tiny_func();
    // Read r1 before it is written.
    f.blocks[0].instrs.insert(
        0,
        Instr::Bin {
            dst: Reg::from_index(1),
            op: BinOp::Add,
            a: Operand::Reg(Reg::from_index(1)),
            b: Operand::Imm(1),
        },
    );
    let r = IrValidator::new(&f).run();
    assert!(r.has_code(codes::IR001), "{r}");
}

#[test]
fn ir001_partially_defined_join() {
    // r1 is defined on only one arm of a diamond; the join uses it.
    let reg = Reg::from_index;
    let f = Function {
        name: "diamond".into(),
        num_params: 1,
        num_regs: 2,
        width: 8,
        blocks: vec![
            Block {
                instrs: vec![],
                terminator: Terminator::Branch {
                    cond: Operand::Reg(reg(0)),
                    then_to: BlockId::from_index(1),
                    else_to: BlockId::from_index(2),
                },
            },
            Block {
                instrs: vec![Instr::Const {
                    dst: reg(1),
                    value: 7,
                }],
                terminator: Terminator::Jump(BlockId::from_index(3)),
            },
            Block {
                instrs: vec![],
                terminator: Terminator::Jump(BlockId::from_index(3)),
            },
            Block {
                instrs: vec![],
                terminator: Terminator::Return(Operand::Reg(reg(1))),
            },
        ],
        entry: BlockId::from_index(0),
    };
    let r = IrValidator::new(&f).run();
    assert!(r.has_code(codes::IR001), "{r}");
}

#[test]
fn ir002_width_violations() {
    let mut f = tiny_func();
    f.width = 65;
    assert!(IrValidator::new(&f).run().has_code(codes::IR002));

    let mut f = tiny_func();
    f.blocks[0].instrs[0] = Instr::Bin {
        dst: Reg::from_index(1),
        op: BinOp::Add,
        a: Operand::Reg(Reg::from_index(0)),
        b: Operand::Imm(0x100), // does not fit in 8 bits
    };
    let r = IrValidator::new(&f).run();
    assert!(r.has_code(codes::IR002), "{r}");
    assert!(!r.has_errors(), "oversized immediate is a warning: {r}");
}

#[test]
fn ir003_terminator_malformations() {
    let mut f = tiny_func();
    f.blocks[0].terminator = Terminator::Jump(BlockId::from_index(9));
    assert!(IrValidator::new(&f).run().has_code(codes::IR003));

    let mut f = tiny_func();
    f.blocks.clear();
    assert!(IrValidator::new(&f).run().has_code(codes::IR003));
}

#[test]
fn ir004_register_out_of_range() {
    let mut f = tiny_func();
    f.blocks[0].instrs[0] = Instr::Const {
        dst: Reg::from_index(5),
        value: 1,
    };
    assert!(IrValidator::new(&f).run().has_code(codes::IR004));
}

#[test]
fn ir005_back_edge_when_loop_free_required() {
    let mut f = tiny_func();
    f.blocks[0].terminator = Terminator::Branch {
        cond: Operand::Reg(Reg::from_index(1)),
        then_to: BlockId::from_index(0),
        else_to: BlockId::from_index(0),
    };
    assert!(!IrValidator::new(&f).run().has_code(codes::IR005));
    let r = IrValidator::new(&f).require_loop_free().run();
    assert!(r.has_code(codes::IR005), "{r}");
    // The loopy bundled programs also trip it once unrolling is skipped.
    let f = programs::modexp();
    assert!(IrValidator::new(&f)
        .require_loop_free()
        .run()
        .has_code(codes::IR005));
}

#[test]
fn ir006_unreachable_block() {
    let mut f = tiny_func();
    f.blocks.push(Block {
        instrs: vec![],
        terminator: Terminator::Return(Operand::Imm(0)),
    });
    let r = IrValidator::new(&f).run();
    assert!(r.has_code(codes::IR006), "{r}");
    assert!(!r.has_errors(), "unreachable block is a warning: {r}");
}

// -------------------------------------------------------------------------
// SMT
// -------------------------------------------------------------------------

#[test]
fn smt_clean_negative() {
    let mut pool = TermPool::new();
    let x = pool.var("x", 8);
    let y = pool.var("y", 8);
    let s = pool.bv_add(x, y);
    let k = pool.bv(3, 8);
    let eq = pool.eq(s, k);
    let b = pool.bool_var("b");
    let _ = pool.and(eq, b);
    let r = TermPoolValidator::new(&pool).run();
    assert!(r.is_clean(), "{r}");
}

#[test]
fn smt001_recorded_sort_disagrees() {
    let mut pool = TermPool::new();
    pool.raw_push(Term::BoolConst(true), Sort::BitVec(8));
    let r = TermPoolValidator::new(&pool).run();
    assert!(r.has_code(codes::SMT001), "{r}");
}

#[test]
fn smt002_hash_consing_violated() {
    let mut pool = TermPool::new();
    pool.raw_push(Term::Var("x".into(), Sort::BitVec(8)), Sort::BitVec(8));
    pool.raw_push(Term::Var("x".into(), Sort::BitVec(8)), Sort::BitVec(8));
    let r = TermPoolValidator::new(&pool).run();
    assert!(r.has_code(codes::SMT002), "{r}");
    // The duplicate is structurally fine otherwise.
    assert!(!r.has_code(codes::SMT001), "{r}");
}

#[test]
fn smt003_dangling_forward_reference() {
    let mut pool = TermPool::new();
    // Term #0 references term #7, which does not exist.
    pool.raw_push(Term::Not(TermId::from_raw(7)), Sort::Bool);
    let r = TermPoolValidator::new(&pool).run();
    assert!(r.has_code(codes::SMT003), "{r}");
}

#[test]
fn smt004_extract_bounds_malformed() {
    let mut pool = TermPool::new();
    let x = pool.var("x", 8);
    pool.raw_push(Term::Extract(9, 2, x), Sort::BitVec(8));
    let r = TermPoolValidator::new(&pool).run();
    assert!(r.has_code(codes::SMT004), "{r}");

    let mut pool = TermPool::new();
    let x = pool.var("x", 8);
    pool.raw_push(Term::ZeroExt(4, x), Sort::BitVec(4)); // narrowing "extension"
    assert!(TermPoolValidator::new(&pool).run().has_code(codes::SMT004));
}

// -------------------------------------------------------------------------
// SAT
// -------------------------------------------------------------------------

#[test]
fn sat_clean_negative() {
    let clauses = vec![
        vec![lit(0, false), lit(1, true)],
        vec![lit(1, false), lit(2, false)],
    ];
    let mut r = Report::new();
    audit_clauses(3, &clauses, "sat", &mut r);
    certify_model(3, &clauses, &[true, true, false], "sat", &mut r);
    assert!(r.is_clean(), "{r}");
}

#[test]
fn sat001_variable_out_of_range() {
    let mut r = Report::new();
    audit_clauses(3, &[vec![lit(0, false), lit(5, false)]], "sat", &mut r);
    assert!(r.has_code(codes::SAT001), "{r}");
}

#[test]
fn sat002_tautology() {
    let mut r = Report::new();
    audit_clauses(
        3,
        &[vec![lit(0, false), lit(0, true), lit(1, false)]],
        "sat",
        &mut r,
    );
    assert!(r.has_code(codes::SAT002), "{r}");
    assert!(!r.has_errors(), "tautology is a warning: {r}");
}

#[test]
fn sat003_duplicate_literal() {
    let mut r = Report::new();
    audit_clauses(
        3,
        &[vec![lit(0, false), lit(0, false), lit(1, false)]],
        "sat",
        &mut r,
    );
    assert!(r.has_code(codes::SAT003), "{r}");
    assert!(
        !r.has_code(codes::SAT002),
        "same-polarity duplicate is not a tautology: {r}"
    );
}

#[test]
fn sat004_model_falsifies_clause() {
    let clauses = vec![vec![lit(0, false), lit(1, false)]];
    let mut r = Report::new();
    certify_model(2, &clauses, &[false, false], "sat", &mut r);
    assert!(r.has_code(codes::SAT004), "{r}");
    assert_eq!(r.count(Severity::Error), 1);
}

#[test]
fn sat005_model_wrong_length() {
    let mut r = Report::new();
    certify_model(3, &[vec![lit(0, false)]], &[true], "sat", &mut r);
    assert!(r.has_code(codes::SAT005), "{r}");
    assert!(
        !r.has_code(codes::SAT004),
        "clause check is skipped on malformed models: {r}"
    );
}

// -------------------------------------------------------------------------
// Portfolio / parallel execution
// -------------------------------------------------------------------------

/// An implication ring with a handful of wide clauses: satisfiable, and
/// flipping any single model bit falsifies one of the ring clauses.
fn ring_cnf() -> Cnf {
    let n = 12i64;
    let mut clauses: Vec<Vec<i64>> = (0..n).map(|i| vec![-(i + 1), (i + 1) % n + 1]).collect();
    clauses.push(vec![1, 4, -7]);
    Cnf {
        num_vars: n as usize,
        clauses,
    }
}

#[test]
fn portfolio_clean_negatives() {
    let cnf = ring_cnf();
    for threads in [1, 4] {
        let config = PortfolioConfig {
            members: 4,
            threads,
            ..PortfolioConfig::default()
        };
        let sat = solve_portfolio(&cnf, &[], &config).expect("no member panics");
        assert_eq!(sat.verdict, Verdict::Known(SolveResult::Sat));
        let mut r = Report::new();
        PortfolioValidator::new(&cnf, &[], &sat).validate(&mut r);
        assert!(r.is_clean(), "{r}");

        // x0 ∧ ¬x5 contradicts the implication ring: UNSAT with a witness.
        let assumptions = [lit(0, false), lit(5, true)];
        let unsat = solve_portfolio(&cnf, &assumptions, &config).expect("no member panics");
        assert_eq!(unsat.verdict, Verdict::Known(SolveResult::Unsat));
        let mut r = Report::new();
        PortfolioValidator::new(&cnf, &assumptions, &unsat).validate(&mut r);
        assert!(r.is_clean(), "{r}");
    }
}

#[test]
fn par001_corrupted_winner_model() {
    let cnf = ring_cnf();
    let config = PortfolioConfig {
        members: 4,
        threads: 1,
        ..PortfolioConfig::default()
    };
    let mut out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
    out.model[3] = !out.model[3];
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &out).validate(&mut r);
    assert!(r.has_code(codes::PAR001), "{r}");
}

#[test]
fn par002_verdict_disagrees_with_resolve() {
    let cnf = ring_cnf();
    let config = PortfolioConfig {
        members: 2,
        threads: 1,
        ..PortfolioConfig::default()
    };
    let mut out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
    out.verdict = Verdict::Known(SolveResult::Unsat);
    out.model.clear();
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &out).validate(&mut r);
    assert!(r.has_code(codes::PAR002), "{r}");
}

#[test]
fn par002_unsat_without_failed_assumption_witness() {
    let cnf = ring_cnf();
    let config = PortfolioConfig {
        members: 2,
        threads: 1,
        ..PortfolioConfig::default()
    };
    let assumptions = [lit(0, false), lit(5, true)];
    let mut out = solve_portfolio(&cnf, &assumptions, &config).expect("no member panics");
    assert_eq!(out.verdict, Verdict::Known(SolveResult::Unsat));
    assert!(!out.failed_assumptions.is_empty());
    out.failed_assumptions.clear();
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &assumptions, &out).validate(&mut r);
    assert!(r.has_code(codes::PAR002), "{r}");
}

#[test]
fn par003_incoherent_cache_counters() {
    let coherent = CacheStats {
        hits: 5,
        misses: 10,
        insertions: 10,
        evictions: 2,
    };
    let mut r = Report::new();
    audit_cache_stats(&coherent, "portfolio", &mut r);
    assert!(r.is_clean(), "{r}");

    let phantom_insert = CacheStats {
        insertions: 11,
        ..coherent
    };
    let mut r = Report::new();
    audit_cache_stats(&phantom_insert, "portfolio", &mut r);
    assert!(r.has_code(codes::PAR003), "{r}");

    let phantom_evict = CacheStats {
        evictions: 11,
        ..coherent
    };
    let mut r = Report::new();
    audit_cache_stats(&phantom_evict, "portfolio", &mut r);
    assert!(r.has_code(codes::PAR003), "{r}");
}

// -------------------------------------------------------------------------
// Budgets & faults
// -------------------------------------------------------------------------

/// A receipt as the refuse-at-limit meter would actually write it:
/// exhausted on fuel, counters at their limits, clock equal to the sum.
fn honest_receipt() -> BudgetReceipt {
    BudgetReceipt {
        budget: Budget {
            conflicts: 10,
            fuel: 3,
            ..Budget::UNLIMITED
        },
        conflicts: 7,
        steps: 0,
        fuel: 3,
        clock: 10,
        cause: Some(Exhausted::Fuel { limit: 3, spent: 3 }),
    }
}

#[test]
fn bud001_forged_counter_overrun() {
    let mut r = Report::new();
    audit_budget_receipt(&honest_receipt(), "member#0", "budget", &mut r);
    assert!(r.is_clean(), "{r}");

    // A counter past its limit is impossible under refuse-at-limit
    // metering: the charge that would cross the limit is refused.
    let forged = BudgetReceipt {
        fuel: 4,
        clock: 11,
        ..honest_receipt()
    };
    let mut r = Report::new();
    audit_budget_receipt(&forged, "member#0", "budget", &mut r);
    assert!(r.has_code(codes::BUD001), "{r}");
    assert!(!r.has_code(codes::BUD003), "{r}");
}

#[test]
fn bud003_logical_clock_out_of_step() {
    let skewed = BudgetReceipt {
        clock: 9,
        ..honest_receipt()
    };
    let mut r = Report::new();
    audit_budget_receipt(&skewed, "member#0", "budget", &mut r);
    assert!(r.has_code(codes::BUD003), "{r}");
    assert!(!r.has_code(codes::BUD001), "{r}");
}

/// Runs the ring portfolio with zero fuel: no decision can be charged, so
/// every member parks `Fuel {limit: 0, spent: 0}` and the race reports a
/// certified Unknown.
fn starved_outcome(cnf: &Cnf) -> sciduction_sat::PortfolioOutcome {
    let config = PortfolioConfig {
        members: 2,
        threads: 1,
        budget: Budget::with_fuel(0),
        ..PortfolioConfig::default()
    };
    let out = solve_portfolio(cnf, &[], &config).expect("no member panics");
    assert_eq!(
        out.verdict,
        Verdict::Unknown(Exhausted::Fuel { limit: 0, spent: 0 })
    );
    out
}

#[test]
fn bud002_uncertified_exhaustion_cause() {
    let cnf = ring_cnf();
    let out = starved_outcome(&cnf);
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &out).validate(&mut r);
    assert!(r.is_clean(), "{r}");

    // Forge the spend: no parked receipt recorded 7 fuel, so the cause is
    // uncertified.
    let mut forged = starved_outcome(&cnf);
    forged.verdict = Verdict::Unknown(Exhausted::Fuel { limit: 0, spent: 7 });
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &forged).validate(&mut r);
    assert!(r.has_code(codes::BUD002), "{r}");

    // An Unknown that still carries a model is equally forged.
    let mut with_model = starved_outcome(&cnf);
    with_model.model = vec![true; cnf.num_vars];
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &with_model).validate(&mut r);
    assert!(r.has_code(codes::BUD002), "{r}");
}

#[test]
fn flt001_nonreproducible_injection() {
    let cnf = ring_cnf();
    let seed = 0xFA57;
    let kind = FaultKind::WorkerDeath;
    let fired = (0..).find(|&s| FaultPlan::decides(seed, kind, s)).unwrap();
    let skipped = (0..).find(|&s| !FaultPlan::decides(seed, kind, s)).unwrap();

    // A genuinely decided injection validates clean.
    let mut out = starved_outcome(&cnf);
    out.verdict = Verdict::Unknown(Exhausted::Injected {
        seed,
        kind,
        site: fired,
    });
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &out).validate(&mut r);
    assert!(r.is_clean(), "{r}");

    // Claiming an injection at a site the seed never fires is forged.
    out.verdict = Verdict::Unknown(Exhausted::Injected {
        seed,
        kind,
        site: skipped,
    });
    let mut r = Report::new();
    PortfolioValidator::new(&cnf, &[], &out).validate(&mut r);
    assert!(r.has_code(codes::FLT001), "{r}");

    // A real plan's own event log is always reproducible.
    let plan = FaultPlan::new(seed);
    for site in 0..32 {
        plan.fires(kind, site);
    }
    let mut r = Report::new();
    audit_fault_plan(&plan, "faults", &mut r);
    assert!(r.is_clean(), "{r}");
}

#[test]
fn flt002_faulted_verdict_flip() {
    // Degrading Known to Unknown is graceful; flipping Known is not.
    let clean = Verdict::Known(SolveResult::Sat);
    let mut r = Report::new();
    audit_fault_verdicts(&clean, &Verdict::Known(SolveResult::Sat), "faults", &mut r);
    audit_fault_verdicts(
        &clean,
        &Verdict::Unknown(Exhausted::Cancelled),
        "faults",
        &mut r,
    );
    assert!(r.is_clean(), "{r}");

    let mut r = Report::new();
    audit_fault_verdicts(
        &clean,
        &Verdict::Known(SolveResult::Unsat),
        "faults",
        &mut r,
    );
    assert!(r.has_code(codes::FLT002), "{r}");
}

// -------------------------------------------------------------------------
// CFG
// -------------------------------------------------------------------------

#[test]
fn cfg_clean_negative() {
    let f = programs::fig4_toy();
    let dag = Dag::from_function(&f, 1).unwrap();
    let mut oracle = SmtOracle::new();
    let basis = extract_basis(&dag, &mut oracle, BasisConfig::default());
    let mut r = DagValidator::new(&dag).run();
    r.merge(BasisValidator::new(&dag, &basis).run());
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn cfg001_cycle_and_bad_endpoints() {
    let mut r = Report::new();
    audit_edge_graph(3, &[(0, 1), (1, 0), (1, 2)], 0, 2, "cfg", &mut r);
    assert!(r.has_code(codes::CFG001), "{r}");

    let mut r = Report::new();
    audit_edge_graph(2, &[(0, 1), (0, 9)], 0, 1, "cfg", &mut r);
    assert!(r.has_code(codes::CFG001), "{r}");
}

#[test]
fn cfg002_node_off_every_path() {
    let mut r = Report::new();
    // Node 2 dangles off the source→sink spine.
    audit_edge_graph(3, &[(0, 1), (0, 2)], 0, 1, "cfg", &mut r);
    assert!(r.has_code(codes::CFG002), "{r}");
    assert!(!r.has_errors(), "coverage gap is a warning: {r}");
}

#[test]
fn cfg003_dimension_and_rank() {
    let f = programs::fig4_toy();
    let dag = Dag::from_function(&f, 1).unwrap();
    let mut oracle = SmtOracle::new();
    let mut basis = extract_basis(&dag, &mut oracle, BasisConfig::default());
    basis.dim = 99;
    let r = BasisValidator::new(&dag, &basis).run();
    assert!(r.has_code(codes::CFG003), "{r}");
}

#[test]
fn cfg004_incoherent_path() {
    let f = programs::fig4_toy();
    let dag = Dag::from_function(&f, 1).unwrap();
    let mut oracle = SmtOracle::new();
    let mut basis = extract_basis(&dag, &mut oracle, BasisConfig::default());
    // Drop the final edge: the walk no longer reaches the sink.
    let p = &mut basis.paths[0].path;
    assert!(p.edges.len() >= 2, "fig4_toy paths have several edges");
    p.edges.pop();
    let r = BasisValidator::new(&dag, &basis).run();
    assert!(r.has_code(codes::CFG004), "{r}");
}

#[test]
fn cfg005_linearly_dependent_paths() {
    let f = programs::fig4_toy();
    let dag = Dag::from_function(&f, 1).unwrap();
    let mut oracle = SmtOracle::new();
    let mut basis = extract_basis(&dag, &mut oracle, BasisConfig::default());
    let dup = basis.paths[0].clone();
    basis.paths.push(dup);
    let r = BasisValidator::new(&dag, &basis).run();
    assert!(r.has_code(codes::CFG005), "{r}");
}

// -------------------------------------------------------------------------
// Hybrid
// -------------------------------------------------------------------------

/// A 1-D two-mode system to validate guards against.
fn toy_mds() -> Mds {
    Mds {
        dim: 1,
        modes: vec![
            Mode {
                name: "up".into(),
                dynamics: Arc::new(|_x, out| out[0] = 1.0),
            },
            Mode {
                name: "down".into(),
                dynamics: Arc::new(|_x, out| out[0] = -1.0),
            },
        ],
        transitions: vec![
            Transition {
                name: "u2d".into(),
                from: 0,
                to: 1,
                learnable: true,
            },
            Transition {
                name: "d2u".into(),
                from: 1,
                to: 0,
                learnable: true,
            },
        ],
        safe: Arc::new(|_m, x| (0.0..=10.0).contains(&x[0])),
    }
}

fn good_logic() -> SwitchingLogic {
    SwitchingLogic {
        guards: vec![
            HyperBox::new(vec![2.0], vec![8.0]),
            HyperBox::new(vec![1.5], vec![6.5]),
        ],
    }
}

#[test]
fn hybrid_clean_negative() {
    let mds = toy_mds();
    let logic = good_logic();
    let hyp = HyperboxGuards {
        grid: Grid::new(0.5),
        dim: 1,
    };
    let domain = HyperBox::new(vec![0.0], vec![10.0]);
    let r = SwitchingLogicValidator::new(&mds, &logic)
        .with_hypothesis(&hyp)
        .with_domain(&domain)
        .run();
    assert!(r.is_clean(), "{r}");
}

#[test]
fn hyb001_guard_count_mismatch() {
    let mds = toy_mds();
    let logic = SwitchingLogic {
        guards: vec![HyperBox::new(vec![2.0], vec![8.0])],
    };
    let r = SwitchingLogicValidator::new(&mds, &logic).run();
    assert!(r.has_code(codes::HYB001), "{r}");
}

#[test]
fn hyb002_guard_dimension_mismatch() {
    let mds = toy_mds();
    let mut logic = good_logic();
    logic.guards[0] = HyperBox::new(vec![2.0, 0.0], vec![8.0, 1.0]);
    let r = SwitchingLogicValidator::new(&mds, &logic).run();
    assert!(r.has_code(codes::HYB002), "{r}");
}

#[test]
fn hyb003_nan_bound() {
    let mds = toy_mds();
    let mut logic = good_logic();
    logic.guards[1] = HyperBox::new(vec![f64::NAN], vec![6.5]);
    let r = SwitchingLogicValidator::new(&mds, &logic).run();
    assert!(r.has_code(codes::HYB003), "{r}");
}

#[test]
fn hyb004_empty_guard_on_learnable_transition() {
    let mds = toy_mds();
    let mut logic = good_logic();
    logic.guards[0] = HyperBox::empty(1);
    let r = SwitchingLogicValidator::new(&mds, &logic).run();
    assert!(r.has_code(codes::HYB004), "{r}");
    assert!(!r.has_errors(), "empty guard is a warning: {r}");
}

#[test]
fn hyb005_vertex_off_grid() {
    let mds = toy_mds();
    let mut logic = good_logic();
    logic.guards[0] = HyperBox::new(vec![2.03], vec![8.0]);
    let hyp = HyperboxGuards {
        grid: Grid::new(0.5),
        dim: 1,
    };
    let r = SwitchingLogicValidator::new(&mds, &logic)
        .with_hypothesis(&hyp)
        .run();
    assert!(r.has_code(codes::HYB005), "{r}");
}

#[test]
fn hyb006_transition_to_missing_mode() {
    let mut mds = toy_mds();
    mds.transitions[0].to = 7;
    let r = SwitchingLogicValidator::new(&mds, &good_logic()).run();
    assert!(r.has_code(codes::HYB006), "{r}");
}

#[test]
fn hyb007_guard_escapes_domain() {
    let mds = toy_mds();
    let mut logic = good_logic();
    logic.guards[0] = HyperBox::new(vec![2.0], vec![15.0]); // beyond 10
    let domain = HyperBox::new(vec![0.0], vec![10.0]);
    let r = SwitchingLogicValidator::new(&mds, &logic)
        .with_domain(&domain)
        .run();
    assert!(r.has_code(codes::HYB007), "{r}");
}

// -------------------------------------------------------------------------
// OGIS
// -------------------------------------------------------------------------

type IoExamples = Vec<(Vec<BvValue>, Vec<BvValue>)>;

/// `f(x) = !x` over 8 bits, with its one-component library and a matching
/// example.
fn tiny_program() -> (SynthProgram, ComponentLibrary, IoExamples) {
    let program = SynthProgram {
        num_inputs: 1,
        width: 8,
        lines: vec![(Op::Not, vec![0])],
        outputs: vec![1],
    };
    let library = ComponentLibrary {
        components: vec![Op::Not],
        num_inputs: 1,
        num_outputs: 1,
        width: 8,
    };
    let examples = vec![(
        vec![BvValue::new(5, 8)],
        vec![BvValue::new(!5u64 & 0xff, 8)],
    )];
    (program, library, examples)
}

#[test]
fn ogis_clean_negative() {
    let (program, library, examples) = tiny_program();
    let r = SynthProgramValidator::new(&program)
        .with_library(&library)
        .with_examples(&examples)
        .run();
    assert!(r.is_clean(), "{r}");
}

#[test]
fn ogs001_operand_references_later_line() {
    let (mut program, ..) = tiny_program();
    program.lines[0].1 = vec![1]; // line 0 referencing its own result
    let r = SynthProgramValidator::new(&program).run();
    assert!(r.has_code(codes::OGS001), "{r}");
}

#[test]
fn ogs002_index_out_of_range() {
    let (mut program, ..) = tiny_program();
    program.lines[0].1 = vec![9];
    assert!(SynthProgramValidator::new(&program)
        .run()
        .has_code(codes::OGS002));

    let (mut program, ..) = tiny_program();
    program.outputs = vec![9];
    assert!(SynthProgramValidator::new(&program)
        .run()
        .has_code(codes::OGS002));
}

#[test]
fn ogs003_component_arity_mismatch() {
    let (mut program, ..) = tiny_program();
    program.lines[0].1 = vec![0, 0]; // Not is unary
    let r = SynthProgramValidator::new(&program).run();
    assert!(r.has_code(codes::OGS003), "{r}");
}

#[test]
fn ogs004_output_arity_mismatch() {
    let (mut program, library, _) = tiny_program();
    program.outputs = vec![1, 0];
    let r = SynthProgramValidator::new(&program)
        .with_library(&library)
        .run();
    assert!(r.has_code(codes::OGS004), "{r}");
}

#[test]
fn ogs005_example_disagrees() {
    let (program, library, _) = tiny_program();
    let bad = vec![(vec![BvValue::new(5, 8)], vec![BvValue::new(5, 8)])];
    let r = SynthProgramValidator::new(&program)
        .with_library(&library)
        .with_examples(&bad)
        .run();
    assert!(r.has_code(codes::OGS005), "{r}");
}

#[test]
fn ogs005_skipped_on_malformed_program() {
    // A malformed program must be reported structurally without panicking
    // inside eval: the example certificate is gated on structural health.
    let (mut program, library, examples) = tiny_program();
    program.lines[0].1 = vec![9];
    let r = SynthProgramValidator::new(&program)
        .with_library(&library)
        .with_examples(&examples)
        .run();
    assert!(r.has_code(codes::OGS002), "{r}");
    assert!(!r.has_code(codes::OGS005), "{r}");
}

// ---------------------------------------------------------------------------
// REC — supervision logs and checkpoint journals
// ---------------------------------------------------------------------------

/// An honest supervision log: the entrant panics on its first attempt and
/// answers on the retry, so the log carries one paid retry, breaker
/// traffic, and a coherent receipt.
fn supervised_log() -> (RetryPolicy, EntrantLog) {
    let policy = RetryPolicy::new(7, 3);
    let sup = Supervisor::new(1, policy);
    let race = sup.race(vec![|_: &StopFlag, attempt: u32| {
        if attempt == 0 {
            panic!("first attempt lost");
        }
        Attempt::Answer(42u32)
    }]);
    let log = race.logs[0].clone().expect("entrant ran");
    assert!(log.answered, "fixture must recover");
    assert!(!log.retries.is_empty(), "fixture must have retried");
    (policy, log)
}

fn audit_log(policy: &RetryPolicy, log: &EntrantLog) -> Report {
    let mut r = Report::new();
    audit_entrant_log(
        policy,
        DEFAULT_BREAKER_THRESHOLD,
        DEFAULT_BREAKER_COOLDOWN,
        log,
        "test",
        &mut r,
    );
    r
}

#[test]
fn recovery_clean_negatives() {
    let (policy, log) = supervised_log();
    let r = audit_log(&policy, &log);
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn rec002_forged_breaker_grant() {
    let (policy, log) = supervised_log();
    // An admission the replayed machine never granted: flip a logged
    // grant so the op log contradicts the state machine.
    let mut forged = log.clone();
    let allow = forged
        .breaker_ops
        .iter()
        .position(|op| matches!(op, BreakerOp::Allow { .. }))
        .expect("fixture admits at least once");
    forged.breaker_ops[allow] = BreakerOp::Allow { granted: false };
    let r = audit_log(&policy, &forged);
    assert!(r.has_code(codes::REC002), "{r}");
}

#[test]
fn rec002_fabricated_final_state() {
    let (policy, log) = supervised_log();
    let mut forged = log.clone();
    forged.breaker_state = BreakerState::Open;
    let r = audit_log(&policy, &forged);
    assert!(r.has_code(codes::REC002), "{r}");
    // Fabricated transitions are caught independently of the state.
    let mut forged = log;
    forged.breaker_events.clear();
    forged.breaker_ops.push(BreakerOp::Failure);
    forged.breaker_ops.push(BreakerOp::Failure);
    forged.breaker_ops.push(BreakerOp::Failure);
    let mut r = Report::new();
    audit_breaker_log(
        DEFAULT_BREAKER_THRESHOLD,
        DEFAULT_BREAKER_COOLDOWN,
        &forged,
        "test",
        &mut r,
    );
    assert!(r.has_code(codes::REC002), "{r}");
}

#[test]
fn rec003_off_schedule_retry_charge() {
    let (policy, log) = supervised_log();
    let mut forged = log.clone();
    forged.retries[0].charge += 1;
    let r = audit_log(&policy, &forged);
    assert!(r.has_code(codes::REC003), "{r}");
    // A retry claimed for attempt 0: first tries are never retries.
    let mut forged = log.clone();
    forged.retries.push(RetryEvent {
        site: 0,
        attempt: 0,
        charge: 0,
    });
    let r = audit_log(&policy, &forged);
    assert!(r.has_code(codes::REC003), "{r}");
    // Schedule-exact duplicates still overrun the metered fuel.
    let mut forged = log;
    let dup = forged.retries[0];
    forged.retries.push(dup);
    let mut r = Report::new();
    audit_retry_schedule(&policy, &forged, "test", &mut r);
    assert!(r.has_code(codes::REC003), "{r}");
}

#[test]
fn rec001_tampered_journals() {
    // A structurally valid CEGIS journal audits clean...
    let journal = CegisJournal {
        seed: 5,
        width: 8,
        num_inputs: 1,
        num_outputs: 1,
        initial_examples: 1,
        iterations: 1,
        examples: vec![(vec![BvValue::new(3, 8)], vec![BvValue::new(9, 8)])],
    };
    let mut r = Report::new();
    audit_cegis_journal(&journal, "test", &mut r);
    assert!(!r.has_errors(), "{r}");
    // ...and an arity forgery does not.
    let mut forged = journal.clone();
    forged.examples[0].0.push(BvValue::new(1, 8));
    let mut r = Report::new();
    audit_cegis_journal(&forged, "test", &mut r);
    assert!(r.has_code(codes::REC001), "{r}");

    let journal = MeasurementJournal {
        seed: 7,
        trials: 10,
        completed: vec![(0, 12), (1, 9)],
    };
    let mut r = Report::new();
    audit_measurement_journal(&journal, "test", &mut r);
    assert!(!r.has_errors(), "{r}");

    let clean = GuardSearchJournal::default();
    let mut r = Report::new();
    audit_guard_journal(&clean, "test", &mut r);
    assert!(!r.has_errors(), "{r}");
    // A round claimed without its metered step skews the ledger.
    let mut forged = clean;
    forged.rounds = 1;
    let mut r = Report::new();
    audit_guard_journal(&forged, "test", &mut r);
    assert!(r.has_code(codes::REC001), "{r}");
}

#[test]
fn bud002_faulted_cause_needs_no_receipt() {
    // A panic-parked race verdict carries `Exhausted::Faulted`, which no
    // budget receipt can certify — the validator must not demand one.
    let cnf = Cnf {
        num_vars: 2,
        clauses: vec![vec![1, 2]],
    };
    let outcome = sciduction_sat::PortfolioOutcome {
        verdict: Verdict::Unknown(Exhausted::Faulted { site: 3 }),
        winner: None,
        model: Vec::new(),
        failed_assumptions: Vec::new(),
        solvers: Vec::new(),
        proof: None,
        proof_cnf: None,
        logs: Vec::new(),
        policy: RetryPolicy::new(0, 0),
    };
    let r = PortfolioValidator::new(&cnf, &[], &outcome).run();
    assert!(!r.has_errors(), "{r}");
}

// -------------------------------------------------------------------------
// Proof certification (PRF)
// -------------------------------------------------------------------------

/// A pigeonhole refutation produced by a proof-logging portfolio race: the
/// canonical well-formed (CNF, proof) pair to corrupt from.
fn certified_refutation() -> (CnfFormula, Proof) {
    let (n, m) = (4usize, 3usize);
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
        threads: 1,
        proof: true,
        ..PortfolioConfig::default()
    };
    let out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
    assert_eq!(out.verdict, Verdict::Known(SolveResult::Unsat));
    (out.proof_cnf.unwrap(), out.proof.unwrap())
}

/// A contradictory bit-vector query refuted by a certifying SMT solver:
/// the canonical well-formed certificate to corrupt from.
fn certified_smt_refutation() -> SmtCertificate {
    let mut s = SmtSolver::certifying();
    let (e1, e2);
    {
        let p = s.terms_mut();
        let x = p.var("x", 8);
        let k3 = p.bv(3, 8);
        let prod = p.bv_mul(x, k3);
        let k5 = p.bv(5, 8);
        let k9 = p.bv(9, 8);
        e1 = p.eq(prod, k5);
        e2 = p.eq(prod, k9);
    }
    s.assert_term(e1);
    s.assert_term(e2);
    assert_eq!(s.check(), CheckResult::Unsat);
    s.unsat_certificate().expect("computed unsat must certify")
}

#[test]
fn prf_clean_negatives() {
    let (cnf, proof) = certified_refutation();
    let mut r = Report::new();
    audit_sat_proof(&cnf, &proof, "pigeonhole(4,3)", "proof", &mut r);
    assert!(r.is_clean(), "{r}");

    let cert = certified_smt_refutation();
    let mut r = Report::new();
    audit_smt_certificate(&cert, "mul-contradiction", "proof", &mut r);
    assert!(r.is_clean(), "{r}");
}

#[test]
fn prf002_dropped_final_step() {
    // Dropping the terminal empty-clause addition leaves every remaining
    // step RUP-valid but the refutation incomplete.
    let (cnf, mut proof) = certified_refutation();
    assert!(proof.steps.pop().unwrap().lits().is_empty());
    let mut r = Report::new();
    audit_sat_proof(&cnf, &proof, "pigeonhole(4,3)", "proof", &mut r);
    assert!(r.has_code(codes::PRF002), "{r}");
    assert!(!r.has_code(codes::PRF001), "{r}");
}

#[test]
fn prf001_permuted_steps() {
    // Moving the empty clause to the front asserts a refutation before any
    // supporting lemma exists: the very first step fails its RUP check.
    let (cnf, mut proof) = certified_refutation();
    let last = proof.steps.pop().unwrap();
    proof.steps.insert(0, last);
    let mut r = Report::new();
    audit_sat_proof(&cnf, &proof, "pigeonhole(4,3)", "proof", &mut r);
    assert!(r.has_code(codes::PRF001), "{r}");
}

#[test]
fn prf003_forged_deletion() {
    // Deleting a clause that is neither an original nor a prior addition
    // is a forgery, caught even though deletions never weaken a proof.
    let (cnf, mut proof) = certified_refutation();
    proof
        .steps
        .insert(0, ProofStep::Delete(vec![1, -2, 3, -4, 5]));
    let mut r = Report::new();
    audit_sat_proof(&cnf, &proof, "pigeonhole(4,3)", "proof", &mut r);
    assert!(r.has_code(codes::PRF003), "{r}");
}

#[test]
fn prf004_stale_blasting_map() {
    // A blasting-map entry pointing outside the CNF's variable range means
    // the map belongs to a different (older or newer) blasted formula.
    let cert = certified_smt_refutation();
    assert!(!cert.blasting.is_empty());

    let mut stale = cert.clone();
    let n = stale.cnf.num_vars as i64;
    stale.blasting[0].lits[0] = n + 7;
    let mut r = Report::new();
    audit_smt_certificate(&stale, "mul-contradiction", "proof", &mut r);
    assert!(r.has_code(codes::PRF004), "{r}");

    // A duplicated entry is equally stale: two generations of the same
    // variable cannot both be current.
    let mut dup = cert.clone();
    let entry = dup.blasting[0].clone();
    dup.blasting.push(entry);
    let mut r = Report::new();
    audit_smt_certificate(&dup, "mul-contradiction", "proof", &mut r);
    assert!(r.has_code(codes::PRF004), "{r}");
}

// -------------------------------------------------------------------------
// Durable record logs and the job WAL (DUR)
// -------------------------------------------------------------------------

/// A well-formed three-record log rendered purely (no filesystem): the
/// canonical healthy artifact the DUR corruptions start from.
fn healthy_log(generation: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
    use sciduction::persist::{encode_frame, encode_header};
    let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0xA5; 300]];
    let mut bytes = encode_header(generation).to_vec();
    for p in &payloads {
        bytes.extend_from_slice(&encode_frame(p));
    }
    (bytes, payloads)
}

#[test]
fn dur_clean_log_audits_clean_and_surfaces_every_record() {
    let (bytes, payloads) = healthy_log(3);
    let mut r = Report::new();
    let scan = sciduction_analysis::passes::audit_record_log(&bytes, 3, "durability", &mut r);
    assert!(!r.has_errors(), "{r}");
    assert_eq!(scan.records, payloads);
    assert_eq!(scan.valid_len, bytes.len());
}

#[test]
fn dur001_flipped_frame_crc() {
    use sciduction::persist::HEADER_LEN;
    let (mut bytes, _) = healthy_log(3);
    bytes[HEADER_LEN + 4] ^= 0x01; // first frame's CRC field
    let mut r = Report::new();
    let scan = sciduction_analysis::passes::audit_record_log(&bytes, 3, "durability", &mut r);
    assert!(r.has_code(codes::DUR001), "{r}");
    // Nothing after the corrupt frame is surfaced: a bad CRC ends the
    // valid prefix right there.
    assert!(scan.records.is_empty());
    assert_eq!(scan.valid_len, HEADER_LEN);
}

#[test]
fn dur001_truncated_tail() {
    let (bytes, payloads) = healthy_log(3);
    let cut = &bytes[..bytes.len() - 100]; // mid-way through the last frame
    let mut r = Report::new();
    let scan = sciduction_analysis::passes::audit_record_log(cut, 3, "durability", &mut r);
    assert!(r.has_code(codes::DUR001), "{r}");
    assert_eq!(
        scan.records,
        payloads[..2].to_vec(),
        "clean prefix survives"
    );
}

#[test]
fn dur002_stale_generation() {
    let (bytes, _) = healthy_log(3);
    let mut r = Report::new();
    sciduction_analysis::passes::audit_record_log(&bytes, 4, "durability", &mut r);
    assert!(r.has_code(codes::DUR002), "{r}");
    assert!(!r.has_code(codes::DUR001), "structure itself is sound: {r}");
}

/// A minimal executable spec for WAL records.
fn wal_fig_spec() -> sciduction_server::JobSpec {
    sciduction_server::JobSpec::Fig(sciduction_server::FigJob {
        name: "fig8_p1_equiv_w8".into(),
        proof: false,
        common: sciduction_server::JobCommon::default(),
    })
}

fn wal_receipt(steps: u64) -> BudgetReceipt {
    let mut m = sciduction::BudgetMeter::new(Budget::UNLIMITED);
    m.charge_step_batch(steps).unwrap();
    m.receipt()
}

#[test]
fn dur003_forged_settlement_is_refused() {
    use sciduction_server::journal::replay;
    use sciduction_server::WalRecord;
    // A settlement for a job that was never admitted: forged.
    let records = vec![WalRecord::Settle {
        seq: 9,
        verdict: "unsat".into(),
        receipt: wal_receipt(5),
        settled: true,
    }];
    let mut r = Report::new();
    let replayed = replay(&records, Budget::UNLIMITED, "recovery", &mut r);
    assert!(r.has_code(codes::DUR003), "{r}");
    assert!(replayed.entries.is_empty(), "a forged job is never served");
}

#[test]
fn dur003_double_charge_is_refused_and_clean_journal_is_not() {
    use sciduction_server::journal::replay;
    use sciduction_server::WalRecord;
    let admit = WalRecord::Admit {
        seq: 0,
        tenant: "acme".into(),
        id: 7,
        spec: wal_fig_spec(),
    };
    let settle = WalRecord::Settle {
        seq: 0,
        verdict: "unsat".into(),
        receipt: wal_receipt(5),
        settled: true,
    };

    // Clean: admit → settle → respond replays without diagnostics and
    // charges the tenant exactly once.
    let clean = vec![admit.clone(), settle.clone(), WalRecord::Respond { seq: 0 }];
    let mut r = Report::new();
    let replayed = replay(&clean, Budget::UNLIMITED, "recovery", &mut r);
    assert!(!r.has_errors(), "{r}");
    assert_eq!(replayed.entries.len(), 1);
    assert_eq!(replayed.accounts["acme"].receipt().steps, 5);

    // Corrupt: a second settlement of the same sequence number is a
    // double charge.
    let double = vec![admit, settle.clone(), settle];
    let mut r = Report::new();
    replay(&double, Budget::UNLIMITED, "recovery", &mut r);
    assert!(r.has_code(codes::DUR003), "{r}");
}
