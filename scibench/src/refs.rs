//! Direct library calls: the reference every served verdict is diffed
//! against, and the layer-by-layer replays of the traced run. Nothing
//! here goes through `sciduction_server::Engine`, so a server-side bug
//! cannot make both sides agree.

use sciduction::json::Value;
use sciduction::Budget;
use sciduction_ogis::{
    benchmarks, synthesize_portfolio, ComponentLibrary, IoOracle, ParallelSynthesisConfig,
    SynthesisConfig, SynthesisOutcome, SynthesisStats,
};
use sciduction_sat::{solve_portfolio_with_faults, Cnf, PortfolioConfig, PortfolioOutcome};
use sciduction_smt::{SmtQueryCache, Solver as SmtSolver, TermId};
use std::sync::Arc;

/// What a served job must answer: the verdict string and, for
/// synthesis, the program text in `detail.program`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Canonical verdict string.
    pub verdict: String,
    /// Synthesized program text, when the job is a synthesis job.
    pub program: Option<String>,
}

/// Emits the named fig6/fig8 query's assertions into `s` (the
/// constructions `solver_bench` and the server's engine use).
fn build_fig_query(s: &mut SmtSolver, name: &str) -> Vec<TermId> {
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
            .expect("crc8 has paths");
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
        other => panic!("no SMT query for {other}"),
    }
}

/// A solver with the named figure query asserted: certifying, or
/// attached to `cache`.
pub fn fig_solver(name: &str, certifying: bool, cache: Option<&Arc<SmtQueryCache>>) -> SmtSolver {
    let mut s = if certifying {
        SmtSolver::certifying()
    } else {
        SmtSolver::new()
    };
    if let Some(c) = cache {
        s.attach_cache(Arc::clone(c));
    }
    for t in build_fig_query(&mut s, name) {
        s.assert_term(t);
    }
    s
}

/// The CNF of a `sat` job object.
pub fn job_cnf(job: &Value) -> Cnf {
    let num_vars = job.get("num_vars").and_then(Value::as_u64).unwrap_or(0) as usize;
    let clauses = job
        .get("clauses")
        .and_then(Value::as_arr)
        .map(|cls| {
            cls.iter()
                .map(|c| {
                    c.as_arr()
                        .map(|ls| ls.iter().filter_map(Value::as_i64).collect())
                        .unwrap_or_default()
                })
                .collect()
        })
        .unwrap_or_default();
    Cnf { num_vars, clauses }
}

/// A single-threaded, unlimited SAT portfolio run.
pub fn solve_sat(cnf: &Cnf, proof: bool) -> PortfolioOutcome {
    let config = PortfolioConfig {
        threads: 1,
        proof,
        budget: Budget::UNLIMITED,
        ..PortfolioConfig::default()
    };
    solve_portfolio_with_faults(cnf, &[], &config, None).expect("portfolio degrades, never errors")
}

fn make_benchmark(name: &str, width: u32) -> (ComponentLibrary, Box<dyn IoOracle>) {
    match name {
        "p1_xor_chain" => {
            let (lib, oracle) = benchmarks::p1_with_width(width);
            (lib, Box::new(oracle))
        }
        "turn_off_rightmost_one" => {
            let (lib, oracle) = benchmarks::extra::turn_off_rightmost_one(width);
            (lib, Box::new(oracle))
        }
        "isolate_rightmost_one" => {
            let (lib, oracle) = benchmarks::extra::isolate_rightmost_one(width);
            (lib, Box::new(oracle))
        }
        other => panic!("unknown synthesis benchmark {other}"),
    }
}

/// The OGIS portfolio run a `synth` job asks for (four members, one
/// thread, no shared cache — the served configuration).
pub fn synth_portfolio(job: &Value) -> (SynthesisOutcome, SynthesisStats) {
    let name = job.get("name").and_then(Value::as_str).unwrap_or("");
    let width = job.get("width").and_then(Value::as_u64).unwrap_or(4) as u32;
    let config = SynthesisConfig {
        max_iterations: job
            .get("max_iterations")
            .and_then(Value::as_u64)
            .unwrap_or(64) as usize,
        seed: job.get("seed").and_then(Value::as_u64).unwrap_or(0),
        budget: Budget::UNLIMITED,
        ..SynthesisConfig::default()
    };
    let par = ParallelSynthesisConfig {
        members: 4,
        threads: 1,
        cache_capacity: 0,
    };
    let (library, _) = make_benchmark(name, width);
    let out = synthesize_portfolio(&library, |_| make_benchmark(name, width).1, &config, &par)
        .expect("synthesis portfolio runs");
    (out.outcome, out.stats)
}

/// The expected answer of a served job, by direct library call.
pub fn expected(job: &Value) -> Expected {
    let kind = job.get("kind").and_then(Value::as_str).unwrap_or("");
    let name = job.get("name").and_then(Value::as_str).unwrap_or("");
    let proof = job.get("proof").and_then(Value::as_bool).unwrap_or(false);
    let verdict = |v: String| Expected {
        verdict: v,
        program: None,
    };
    match (kind, name) {
        ("sat", _) => verdict(solve_sat(&job_cnf(job), false).verdict.to_string()),
        ("fig", "fig10_mode_exclusion") => verdict(
            solve_sat(&sciduction_server::jobs::mode_exclusion(7, 6), proof)
                .verdict
                .to_string(),
        ),
        ("fig", name) => verdict(
            fig_solver(name, proof, None)
                .check_bounded(&Budget::UNLIMITED)
                .to_string(),
        ),
        ("synth", _) => match synth_portfolio(job).0 {
            SynthesisOutcome::Synthesized { program, .. } => Expected {
                verdict: "synthesized".into(),
                program: Some(program.to_string()),
            },
            SynthesisOutcome::Infeasible { .. } => verdict("infeasible".into()),
            SynthesisOutcome::BudgetExhausted { cause, .. } => verdict(format!("unknown: {cause}")),
        },
        other => panic!("no reference for job {other:?}"),
    }
}

/// The served answer in the shape of [`Expected`], or the reason the
/// response is a failure (error frame or malformed reply).
pub fn served(resp: &Value) -> Result<Expected, String> {
    if resp.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error frame {resp}"));
    }
    let verdict = resp
        .get("verdict")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("reply without a verdict: {resp}"))?;
    let program = resp
        .get("detail")
        .and_then(|d| d.get("program"))
        .and_then(Value::as_str)
        .map(str::to_string);
    Ok(Expected {
        verdict: verdict.to_string(),
        program,
    })
}
