//! End-to-end proof certification over the figure workloads: every UNSAT
//! verdict the deductive stack produces on fig6/fig8/fig10-representative
//! queries must carry a proof the independent checker accepts, at every
//! thread count, and the PRF audit passes must stay clean on them.

use sciduction::exec::{FaultKind, FaultPlan};
use sciduction::recover::{retry_site, RetryPolicy};
use sciduction_analysis::passes::{audit_sat_proof, audit_smt_certificate};
use sciduction_analysis::Report;
use sciduction_cfg::{path_formula, unroll, Dag};
use sciduction_ir::programs;
use sciduction_proof::{check_certificate, check_drat, SmtCertificate};
use sciduction_sat::{
    solve_portfolio, solve_portfolio_supervised, Cnf, PortfolioConfig, SolveResult,
};
use sciduction_smt::{CheckResult, Solver as SmtSolver};
use std::sync::Arc;

/// Pigeonhole CNF standing in for the fig10 mode-exclusion conflict.
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

/// Asserts the certificate checks standalone and passes the PRF audit.
fn assert_certified(cert: &SmtCertificate, what: &str) {
    check_certificate(cert).unwrap_or_else(|e| panic!("{what}: certificate rejected: {e}"));
    let mut report = Report::new();
    audit_smt_certificate(cert, what, "proof_certification", &mut report);
    assert!(report.is_clean(), "{what}: PRF audit flagged: {report:?}");
    // Round trip through the on-disk `scicert v1` format.
    let reparsed = SmtCertificate::parse(&cert.to_text()).expect("scicert text parses back");
    check_certificate(&reparsed).expect("reparsed certificate still checks");
}

#[test]
fn fig6_infeasible_paths_certify() {
    // The raw (unsimplified) crc8 unrolling keeps structurally present but
    // deductively infeasible early-exit paths; each infeasibility verdict
    // is an UNSAT the checker must be able to replay.
    let f = programs::crc8();
    let dag = Dag::build(unroll(&f, 8)).expect("crc8 unrolls");
    let paths = dag.enumerate_paths(1000);
    let mut shortest: Vec<_> = paths.iter().collect();
    shortest.sort_by_key(|p| p.edges.len());
    let mut certified = 0;
    for p in shortest.into_iter().take(3) {
        let mut s = SmtSolver::certifying();
        let pf = path_formula(&mut s, &dag, p);
        for &c in &pf.constraints {
            s.assert_term(c);
        }
        if s.check() == CheckResult::Unsat {
            let cert = s.unsat_certificate().expect("unsat must certify");
            assert_certified(&cert, "fig6 infeasible path");
            certified += 1;
        }
    }
    assert!(certified >= 1, "crc8 must have an infeasible short path");
}

#[test]
fn fig8_verification_queries_certify() {
    // The CEGIS-closing check: no input distinguishes the candidate from
    // the spec (P1: x & (x-1) vs. x - (x & -x)).
    let mut s = SmtSolver::certifying();
    let p = s.terms_mut();
    let x = p.var("x", 8);
    let one = p.bv(1, 8);
    let zero = p.bv(0, 8);
    let xm1 = p.bv_sub(x, one);
    let spec = p.bv_and(x, xm1);
    let negx = p.bv_sub(zero, x);
    let iso = p.bv_and(x, negx);
    let cand = p.bv_sub(x, iso);
    let distinguisher = p.neq(spec, cand);
    s.assert_term(distinguisher);
    assert_eq!(s.check(), CheckResult::Unsat);
    let cert = s.unsat_certificate().expect("unsat must certify");
    assert!(
        cert.blasting.iter().any(|e| e.name == "x"),
        "blasting map must cover the program input"
    );
    assert_certified(&cert, "fig8 p1 equivalence");
}

#[test]
fn fig10_mode_exclusion_certifies_at_every_thread_count() {
    let cnf = mode_exclusion(6, 5);
    for threads in [1usize, 2, 4] {
        let config = PortfolioConfig {
            threads,
            proof: true,
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
        assert_eq!(
            out.verdict
                .expect_known("unlimited default budget cannot exhaust"),
            SolveResult::Unsat
        );
        let proof = out.proof.expect("proof accompanies portfolio unsat");
        let proof_cnf = out.proof_cnf.expect("proof CNF accompanies the proof");
        let outcome = check_drat(&proof_cnf, &proof)
            .unwrap_or_else(|e| panic!("threads={threads}: proof rejected: {e}"));
        assert!(outcome.additions > 0, "refutation needs at least one step");
        let mut report = Report::new();
        audit_sat_proof(
            &proof_cnf,
            &proof,
            &format!("fig10 mode exclusion t{threads}"),
            "proof_certification",
            &mut report,
        );
        assert!(report.is_clean(), "threads={threads}: {report:?}");
    }
}

#[test]
fn supervised_fig10_mode_exclusion_certifies_after_a_killed_attempt() {
    let cnf = mode_exclusion(6, 5);
    // A seed that kills member 0's first attempt but not its first retry.
    let seed = (1u64..)
        .find(|&s| {
            FaultPlan::decides(s, FaultKind::WorkerDeath, retry_site(0, 0))
                && !FaultPlan::decides(s, FaultKind::WorkerDeath, retry_site(0, 1))
        })
        .expect("such a seed exists");
    for threads in [1usize, 2, 4] {
        let config = PortfolioConfig {
            threads,
            proof: true,
            ..PortfolioConfig::default()
        };
        let plan = Arc::new(FaultPlan::targeting(seed, FaultKind::WorkerDeath));
        let out =
            solve_portfolio_supervised(&cnf, &[], &config, RetryPolicy::new(seed, 3), Some(plan));
        assert_eq!(
            out.verdict
                .expect_known("unlimited default budget cannot exhaust"),
            SolveResult::Unsat
        );
        if threads == 1 {
            // The retry, not a sibling, answered.
            assert_eq!(out.winner, Some(0));
            assert_eq!(out.logs[0].as_ref().map(|log| log.attempts), Some(2));
        }
        let proof = out.proof.expect("proof accompanies supervised unsat");
        let proof_cnf = out.proof_cnf.expect("proof CNF accompanies the proof");
        let outcome = check_drat(&proof_cnf, &proof)
            .unwrap_or_else(|e| panic!("threads={threads}: proof rejected: {e}"));
        assert!(outcome.additions > 0, "refutation needs at least one step");
    }
}
