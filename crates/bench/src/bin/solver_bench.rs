//! `solver_bench` — the first solver-level perf baseline: solve times and
//! conflict counts for representative fig6/fig8/fig10 deductive queries,
//! with proof logging off vs. on, so later PRs can gate on regressions.
//!
//! Run with `cargo run --release -p sciduction-bench --bin solver_bench`.
//!
//! Every UNSAT workload re-checks its emitted proof with the independent
//! checker before recording it, and writes the artifacts (DIMACS + DRAT,
//! or `scicert` certificates) under `target/proofs/` so CI can replay
//! them through the standalone `scicheck` binary. Results land in
//! `BENCH_solver.json` at the repository root, together with the
//! in-process median time of that independent check (`check_ms`), so
//! check-vs-solve cost is tracked alongside the solve times.

use sciduction_bench::print_table;
use sciduction_cfg::{path_formula, Dag};
use sciduction_ir::programs;
use sciduction_proof::{check_certificate, check_drat};
use sciduction_sat::{solve_portfolio, Cnf, PortfolioConfig, SolveResult};
use sciduction_smt::{CheckResult, Solver as SmtSolver, TermId};
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// One measured workload row.
struct Row {
    name: String,
    layer: &'static str,
    threads: usize,
    result: String,
    proof_off_ms: f64,
    proof_on_ms: f64,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    proof_steps: usize,
    /// Median in-process time of the independent proof check; `None` for
    /// SAT rows, which carry no proof.
    check_ms: Option<f64>,
}

impl Row {
    fn overhead_pct(&self) -> f64 {
        if self.proof_off_ms <= 0.0 {
            0.0
        } else {
            (self.proof_on_ms / self.proof_off_ms - 1.0) * 100.0
        }
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn proofs_dir() -> PathBuf {
    let dir = repo_root().join("target/proofs");
    fs::create_dir_all(&dir).expect("create proofs dir");
    dir
}

/// Discarded warmup runs before any sample is taken (first runs pay for
/// page faults, lazy allocation, and branch-predictor training, which
/// used to show up as nonsense overhead on microsecond-scale queries).
const WARMUP_ITERS: usize = 3;

/// Timed samples per workload; the median of 31 is robust to the odd
/// scheduler preemption in a way the old median-of-5 was not.
const TIMING_SAMPLES: usize = 31;

/// Repetitions per timing sample for a workload whose single run took
/// `pilot_ms`: one for runs of a millisecond or more, otherwise enough
/// back-to-back runs to cross ~10 ms of wall clock.
fn reps_for(pilot_ms: f64) -> usize {
    if pilot_ms >= 1.0 {
        1
    } else {
        ((10.0 / pilot_ms.max(1e-6)).ceil() as usize).min(20_000)
    }
}

/// Per-run milliseconds of `reps` back-to-back runs of `f`.
fn sample(f: &mut dyn FnMut(), reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Paired median per-run wall-clock milliseconds of `off` and `on` over
/// [`TIMING_SAMPLES`] interleaved samples each, after [`WARMUP_ITERS`]
/// warmup runs of both.
///
/// The two variants are sampled alternately (off, on, off, on, …) so
/// slow environmental drift — CPU frequency ramp-up, thermal throttling,
/// allocator arena growth — hits both equally instead of biasing
/// whichever variant is measured second. Sub-millisecond workloads are
/// batched (see [`reps_for`]), so timer granularity and scheduler noise
/// stop dominating queries that finish in microseconds (the old
/// measure-all-of-off-then-all-of-on single-run sampling reported a −40%
/// "proof overhead" on `fig6_crc8_infeasible_path` for exactly these
/// reasons).
fn paired_median_ms(mut off: impl FnMut(), mut on: impl FnMut()) -> (f64, f64) {
    for _ in 0..WARMUP_ITERS {
        off();
        on();
    }
    let reps_off = reps_for(sample(&mut off, 1));
    let reps_on = reps_for(sample(&mut on, 1));
    let mut samples_off = Vec::with_capacity(TIMING_SAMPLES);
    let mut samples_on = Vec::with_capacity(TIMING_SAMPLES);
    for _ in 0..TIMING_SAMPLES {
        samples_off.push(sample(&mut off, reps_off));
        samples_on.push(sample(&mut on, reps_on));
    }
    (median(samples_off), median(samples_on))
}

/// Median per-run wall-clock milliseconds of `f` over [`TIMING_SAMPLES`]
/// samples after [`WARMUP_ITERS`] warmup runs, batched like
/// [`paired_median_ms`].
fn median_ms(mut f: impl FnMut()) -> f64 {
    for _ in 0..WARMUP_ITERS {
        f();
    }
    let reps = reps_for(sample(&mut f, 1));
    median((0..TIMING_SAMPLES).map(|_| sample(&mut f, reps)).collect())
}

/// Benchmarks an SMT query: `build` emits terms into the pool and returns
/// the assertions. The query runs on a plain solver (proof logging off)
/// and a certifying one (on); UNSAT answers must certify.
fn bench_smt_query(
    name: &str,
    expected: CheckResult,
    build: impl Fn(&mut SmtSolver) -> Vec<TermId>,
) -> Row {
    let run = |certifying: bool| -> SmtSolver {
        let mut s = if certifying {
            SmtSolver::certifying()
        } else {
            SmtSolver::new()
        };
        for t in build(&mut s) {
            s.assert_term(t);
        }
        assert_eq!(s.check(), expected, "{name}");
        s
    };
    let (proof_off_ms, proof_on_ms) = paired_median_ms(
        || {
            run(false);
        },
        || {
            run(true);
        },
    );

    let s = run(true);
    let stats = s.sat_stats();
    let (proof_steps, check_ms) = if expected == CheckResult::Unsat {
        let cert = s
            .unsat_certificate()
            .expect("certifying unsat must yield a certificate");
        check_certificate(&cert).unwrap_or_else(|e| panic!("{name}: certificate rejected: {e}"));
        let check_ms = median_ms(|| {
            check_certificate(&cert).expect("checked above");
        });
        let path = proofs_dir().join(format!("{name}.scicert"));
        fs::write(&path, cert.to_text()).expect("write scicert");
        (cert.proof.len(), Some(check_ms))
    } else {
        (0, None)
    };
    Row {
        name: name.to_string(),
        layer: "smt",
        threads: 1,
        result: format!("{expected:?}").to_lowercase(),
        proof_off_ms,
        proof_on_ms,
        conflicts: stats.conflicts,
        decisions: stats.decisions,
        propagations: stats.propagations,
        proof_steps,
        check_ms,
    }
}

/// Fig. 6 (GameTime): path-feasibility queries on the raw (unsimplified)
/// unrolled `crc8` DAG, where early loop exits are structurally present
/// but deductively infeasible — the UNSAT half of test generation.
fn fig6_rows() -> Vec<Row> {
    let f = programs::crc8();
    let dag = Dag::build(sciduction_cfg::unroll(&f, 8)).expect("crc8 unrolls");
    let paths = dag.enumerate_paths(1000);
    let shortest = paths
        .iter()
        .min_by_key(|p| p.edges.len())
        .expect("crc8 has paths")
        .clone();
    let longest = paths
        .iter()
        .max_by_key(|p| p.edges.len())
        .expect("crc8 has paths")
        .clone();
    let constraints_of = |s: &mut SmtSolver, path| {
        let pf = path_formula(s, &dag, path);
        pf.constraints
    };
    vec![
        bench_smt_query("fig6_crc8_infeasible_path", CheckResult::Unsat, |s| {
            constraints_of(s, &shortest)
        }),
        bench_smt_query("fig6_crc8_feasible_path", CheckResult::Sat, |s| {
            constraints_of(s, &longest)
        }),
    ]
}

/// Fig. 8 (OGIS): the verification queries that close the CEGIS loop —
/// "no input distinguishes the candidate from the spec" is UNSAT.
fn fig8_rows() -> Vec<Row> {
    let p1 = bench_smt_query("fig8_p1_equiv_w8", CheckResult::Unsat, |s| {
        // P1 (turn off rightmost one): x & (x-1)  ≡  x - (x & -x).
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
    });
    let p2 = bench_smt_query("fig8_p2_equiv_w8", CheckResult::Unsat, |s| {
        // P2 (multiply by 45): x * 45  ≡  (x<<5) + (x<<3) + (x<<2) + x.
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
    });
    vec![p1, p2]
}

/// Fig. 10 (hybrid switching): mode-scheduling conflict at the SAT core —
/// seven gear modes demanding six exclusive actuation slots (a pigeonhole
/// instance), raced by the portfolio at each thread count.
fn fig10_rows() -> Vec<Row> {
    let n = 7;
    let m = 6;
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

    [1usize, 4]
        .into_iter()
        .map(|threads| {
            let solve = |proof: bool| {
                let config = PortfolioConfig {
                    threads,
                    proof,
                    ..PortfolioConfig::default()
                };
                let out = solve_portfolio(&cnf, &[], &config).expect("no member panics");
                assert_eq!(
                    out.verdict
                        .expect_known("unlimited default budget cannot exhaust"),
                    SolveResult::Unsat
                );
                out
            };
            let (proof_off_ms, proof_on_ms) = paired_median_ms(
                || {
                    solve(false);
                },
                || {
                    solve(true);
                },
            );

            let out = solve(true);
            let proof = out.proof.expect("unsat portfolio with proof on");
            let proof_cnf = out.proof_cnf.expect("proof CNF accompanies the proof");
            check_drat(&proof_cnf, &proof)
                .unwrap_or_else(|e| panic!("fig10 t{threads}: proof rejected: {e}"));
            let check_ms = median_ms(|| {
                check_drat(&proof_cnf, &proof).expect("checked above");
            });
            let name = format!("fig10_mode_exclusion_t{threads}");
            fs::write(
                proofs_dir().join(format!("{name}.cnf")),
                proof_cnf.to_dimacs(),
            )
            .expect("write cnf");
            fs::write(proofs_dir().join(format!("{name}.drat")), proof.to_drat())
                .expect("write drat");
            let stats = out.winner.map_or_else(Default::default, |w| {
                out.solvers[w].as_ref().expect("winner ran").stats()
            });
            Row {
                name,
                layer: "sat",
                threads,
                result: "unsat".into(),
                proof_off_ms,
                proof_on_ms,
                conflicts: stats.conflicts,
                decisions: stats.decisions,
                propagations: stats.propagations,
                proof_steps: proof.len(),
                check_ms: Some(check_ms),
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn write_json(rows: &[Row]) -> PathBuf {
    let mut entries = Vec::new();
    for r in rows {
        entries.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"layer\": \"{}\",\n      \"threads\": {},\n      \"result\": \"{}\",\n      \"proof_off_ms\": {:.3},\n      \"proof_on_ms\": {:.3},\n      \"proof_overhead_pct\": {:.1},\n      \"conflicts\": {},\n      \"decisions\": {},\n      \"propagations\": {},\n      \"proof_steps\": {},\n      \"proof_checked\": {},\n      \"check_ms\": {}\n    }}",
            json_escape(&r.name),
            r.layer,
            r.threads,
            r.result,
            r.proof_off_ms,
            r.proof_on_ms,
            r.overhead_pct(),
            r.conflicts,
            r.decisions,
            r.propagations,
            r.proof_steps,
            r.check_ms.is_some(),
            r.check_ms
                .map_or_else(|| "null".to_string(), |ms| format!("{ms:.4}")),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"sciduction-solver-bench/v1\",\n  \"command\": \"cargo run --release -p sciduction-bench --bin solver_bench\",\n  \"timing\": \"median of {TIMING_SAMPLES} interleaved off/on samples after {WARMUP_ITERS} warmup runs, per-run milliseconds; sub-millisecond workloads batched to >=10ms per sample; check_ms is the median of {TIMING_SAMPLES} samples of the in-process independent proof check\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = repo_root().join("BENCH_solver.json");
    fs::write(&path, json).expect("write BENCH_solver.json");
    path
}

fn main() {
    println!("== solver_bench: fig6/fig8/fig10 deductive queries, proof logging off vs on ==");
    let mut rows = Vec::new();
    rows.extend(fig6_rows());
    rows.extend(fig8_rows());
    rows.extend(fig10_rows());

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.layer.into(),
                r.threads.to_string(),
                r.result.clone(),
                format!("{:.3}", r.proof_off_ms),
                format!("{:.3}", r.proof_on_ms),
                format!("{:+.1}%", r.overhead_pct()),
                r.conflicts.to_string(),
                r.proof_steps.to_string(),
                r.check_ms
                    .map_or_else(|| "-".to_string(), |ms| format!("{ms:.4}")),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "layer",
            "threads",
            "result",
            "off_ms",
            "on_ms",
            "overhead",
            "conflicts",
            "steps",
            "check_ms",
        ],
        &table,
    );

    let path = write_json(&rows);
    println!("\nbaseline written to {}", path.display());
    println!("proof artifacts written to {}", proofs_dir().display());
}
