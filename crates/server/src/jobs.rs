//! Job specifications and the engine that executes them.
//!
//! A [`JobSpec`] is the parsed payload of a request frame; the
//! [`Engine`] maps it onto the existing library stack — SAT portfolios,
//! SMT queries (certifying or cache-backed), and OGIS synthesis races —
//! and returns a [`JobOutput`] whose verdict string is the *canonical*
//! `Verdict` rendering. The server never post-processes verdicts: the
//! string a client receives is byte-for-byte what the library produced,
//! which is the invariant the differential conformance suite pins.

use sciduction::exec::FaultPlan;
use sciduction::json::{self, Value};
use sciduction::{Budget, BudgetMeter, BudgetReceipt};
use sciduction_ogis::{
    benchmarks, synthesize_portfolio, ParallelSynthesisConfig, SynthesisConfig, SynthesisOutcome,
};
use sciduction_proof::{check_certificate, check_drat};
use sciduction_sat::{solve_portfolio_with_faults, Cnf, PortfolioConfig};
use sciduction_smt::{SmtQueryCache, Solver as SmtSolver, TermId};
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// The fig-workload names a [`JobSpec::Fig`] job may ask for, mirroring
/// the `solver_bench` workload table.
pub const FIG_NAMES: &[&str] = &[
    "fig6_crc8_infeasible_path",
    "fig6_crc8_feasible_path",
    "fig8_p1_equiv_w8",
    "fig8_p2_equiv_w8",
    "fig10_mode_exclusion",
];

/// The synthesis benchmark names a [`JobSpec::Synth`] job may ask for.
pub const SYNTH_NAMES: &[&str] = &[
    "p1_xor_chain",
    "turn_off_rightmost_one",
    "isolate_rightmost_one",
    "average_floor",
];

/// Knobs shared by every compute job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobCommon {
    /// Worker threads for the underlying portfolio (0 = library default).
    pub threads: usize,
    /// Seeded fault plan to run the job under ([`FaultPlan::new`]); the
    /// degradation contract (faults never flip verdicts) carries over the
    /// wire unchanged.
    pub fault_seed: Option<u64>,
    /// Resource budget for the job (defaults to unlimited).
    pub budget: Budget,
}

impl Default for JobCommon {
    fn default() -> Self {
        JobCommon {
            threads: 0,
            fault_seed: None,
            budget: Budget::UNLIMITED,
        }
    }
}

/// A raw CNF decision job.
#[derive(Clone, Debug, PartialEq)]
pub struct SatJob {
    /// Number of variables.
    pub num_vars: usize,
    /// The clauses as DIMACS-style signed literals, flat, with a 0 after
    /// each clause. Every admitted spec stays in the live transcript, so
    /// the job keeps one allocation rather than one per clause; `num_vars`
    /// is at most 100000, so every literal fits an `i32`.
    lits: Vec<i32>,
    /// Emit (and serve a reference to) a DRAT proof on unsat.
    pub proof: bool,
    /// Shared knobs.
    pub common: JobCommon,
}

impl SatJob {
    /// The clauses, in order, each without its 0 terminator.
    pub fn clauses(&self) -> impl Iterator<Item = &[i32]> {
        self.lits
            .split_inclusive(|&l| l == 0)
            .map(|c| &c[..c.len() - 1])
    }
}

/// A named figure workload (fig6/fig8 SMT queries, fig10 SAT race).
#[derive(Clone, Debug, PartialEq)]
pub struct FigJob {
    /// One of [`FIG_NAMES`].
    pub name: String,
    /// Certify the answer (certifying solver / DRAT-logging portfolio).
    /// Certifying SMT jobs bypass the shared query cache: an adopted
    /// answer carries no fresh proof.
    pub proof: bool,
    /// Shared knobs.
    pub common: JobCommon,
}

impl FigJob {
    /// Whether the job's query runs on the engine-wide SMT cache: an SMT
    /// figure query that neither certifies nor runs under a fault plan.
    fn shares_query_cache(&self) -> bool {
        self.name != "fig10_mode_exclusion" && !self.proof && self.common.fault_seed.is_none()
    }
}

/// An OGIS synthesis job over a named component-library benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthJob {
    /// One of [`SYNTH_NAMES`].
    pub name: String,
    /// Bit-vector width.
    pub width: u32,
    /// Example-seed for the CEGIS loop.
    pub seed: u64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Shared knobs.
    pub common: JobCommon,
}

/// A parsed job payload.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Solve a raw CNF.
    Sat(SatJob),
    /// Run a named figure workload.
    Fig(FigJob),
    /// Synthesize a program for a named benchmark.
    Synth(SynthJob),
    /// Audit the server's own protocol transcript (SRV lint passes).
    Audit,
    /// Report server counters and cache statistics.
    Stats,
}

impl JobSpec {
    /// True for the kinds the worker pool executes (as opposed to the
    /// introspection kinds answered inline by the connection thread).
    pub fn is_compute(&self) -> bool {
        matches!(self, JobSpec::Sat(_) | JobSpec::Fig(_) | JobSpec::Synth(_))
    }

    /// True when this job's verdict depends on which jobs ran before it
    /// on the same engine: a query on the engine-wide SMT cache adopts a
    /// cached answer even with its budget spent, so under a bounded
    /// budget it answers `unknown` or the cached verdict depending on
    /// what the cache already holds. Every other job's verdict follows
    /// from its spec alone.
    pub fn verdict_depends_on_order(&self) -> bool {
        match self {
            JobSpec::Fig(j) => j.shares_query_cache() && !j.common.budget.is_unlimited(),
            _ => false,
        }
    }

    /// The shared knobs of a compute job (`None` for the introspection
    /// kinds, which carry none).
    pub fn common(&self) -> Option<&JobCommon> {
        match self {
            JobSpec::Sat(j) => Some(&j.common),
            JobSpec::Fig(j) => Some(&j.common),
            JobSpec::Synth(j) => Some(&j.common),
            JobSpec::Audit | JobSpec::Stats => None,
        }
    }

    /// A short label for transcripts and logs.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Sat(j) => format!("sat[v{} c{}]", j.num_vars, j.clauses().count()),
            JobSpec::Fig(j) => j.name.clone(),
            JobSpec::Synth(j) => format!("synth:{}[w{}]", j.name, j.width),
            JobSpec::Audit => "audit".into(),
            JobSpec::Stats => "stats".into(),
        }
    }

    /// Renders this spec back to the `"job"` JSON object shape
    /// [`JobSpec::from_json`] parses — the round-trip is exact, which is
    /// what lets the job WAL persist admitted specs and lets `SRV002`
    /// re-execute them after a restart. Defaults (library thread count,
    /// unlimited budget dimensions, no fault seed) are omitted.
    pub fn to_json(&self) -> Value {
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut push = |k: &str, v: Value| fields.push((k.to_string(), v));
        match self {
            JobSpec::Sat(j) => {
                push("kind", Value::Str("sat".into()));
                push("num_vars", Value::Int(j.num_vars as i64));
                push(
                    "clauses",
                    Value::Arr(
                        j.clauses()
                            .map(|cl| {
                                Value::Arr(cl.iter().map(|&l| Value::Int(l.into())).collect())
                            })
                            .collect(),
                    ),
                );
                if j.proof {
                    push("proof", Value::Bool(true));
                }
                common_to_json(&j.common, &mut fields);
            }
            JobSpec::Fig(j) => {
                push("kind", Value::Str("fig".into()));
                push("name", Value::Str(j.name.clone()));
                if j.proof {
                    push("proof", Value::Bool(true));
                }
                common_to_json(&j.common, &mut fields);
            }
            JobSpec::Synth(j) => {
                push("kind", Value::Str("synth".into()));
                push("name", Value::Str(j.name.clone()));
                push("width", Value::Int(j.width as i64));
                push("seed", Value::Int(j.seed as i64));
                push("max_iterations", Value::Int(j.max_iterations as i64));
                common_to_json(&j.common, &mut fields);
            }
            JobSpec::Audit => push("kind", Value::Str("audit".into())),
            JobSpec::Stats => push("kind", Value::Str("stats".into())),
        }
        Value::Obj(fields)
    }

    /// Returns this spec with its budget clamped dimension-wise to `cap`
    /// (per-request deadline and resource ceilings from the server
    /// configuration). The clamped spec is what gets executed, recorded,
    /// and re-executed by `SRV002`, so replay sees the same limits the
    /// worker did. Introspection kinds are returned unchanged.
    pub fn clamped(&self, cap: Budget) -> JobSpec {
        let clamp = |common: &JobCommon| JobCommon {
            budget: Budget {
                conflicts: common.budget.conflicts.min(cap.conflicts),
                steps: common.budget.steps.min(cap.steps),
                fuel: common.budget.fuel.min(cap.fuel),
                deadline: common.budget.deadline.min(cap.deadline),
            },
            ..common.clone()
        };
        match self {
            JobSpec::Sat(j) => JobSpec::Sat(SatJob {
                common: clamp(&j.common),
                ..j.clone()
            }),
            JobSpec::Fig(j) => JobSpec::Fig(FigJob {
                common: clamp(&j.common),
                ..j.clone()
            }),
            JobSpec::Synth(j) => JobSpec::Synth(SynthJob {
                common: clamp(&j.common),
                ..j.clone()
            }),
            introspection => introspection.clone(),
        }
    }

    /// Parses the `"job"` object of a request. Errors are [`ErrorCode::Job`]
    /// material: the envelope was fine, the payload is not.
    ///
    /// [`ErrorCode::Job`]: crate::protocol::ErrorCode::Job
    pub fn from_json(job: &Value) -> Result<JobSpec, String> {
        let kind = job
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("job needs a string \"kind\" field")?;
        match kind {
            "sat" => Ok(JobSpec::Sat(parse_sat(job)?)),
            "fig" => Ok(JobSpec::Fig(parse_fig(job)?)),
            "synth" => Ok(JobSpec::Synth(parse_synth(job)?)),
            "audit" => Ok(JobSpec::Audit),
            "stats" => Ok(JobSpec::Stats),
            other => Err(format!(
                "unknown job kind {other:?} (expected sat|fig|synth|audit|stats)"
            )),
        }
    }
}

/// Renders the shared knobs, omitting defaults so the output parses back
/// through [`parse_common`] unchanged. Budget dimensions past `i64::MAX`
/// cannot ride the wire's integer type and are omitted too — the parser
/// could never have produced them, so this loses nothing round-trippable.
fn common_to_json(common: &JobCommon, fields: &mut Vec<(String, Value)>) {
    if common.threads != 0 {
        fields.push(("threads".to_string(), Value::Int(common.threads as i64)));
    }
    if let Some(seed) = common.fault_seed {
        fields.push(("fault_seed".to_string(), Value::Int(seed as i64)));
    }
    let dims = [
        ("conflicts", common.budget.conflicts),
        ("steps", common.budget.steps),
        ("fuel", common.budget.fuel),
        ("deadline", common.budget.deadline),
    ];
    let bounded: Vec<(&str, Value)> = dims
        .iter()
        .filter(|(_, v)| *v <= i64::MAX as u64)
        .map(|&(k, v)| (k, Value::Int(v as i64)))
        .collect();
    if !bounded.is_empty() {
        fields.push(("budget".to_string(), json::obj(bounded)));
    }
}

fn parse_common(job: &Value) -> Result<JobCommon, String> {
    let mut common = JobCommon::default();
    if let Some(t) = job.get("threads") {
        common.threads = t
            .as_u64()
            .filter(|&n| (1..=64).contains(&n))
            .ok_or("\"threads\" must be an integer in 1..=64")? as usize;
    }
    if let Some(s) = job.get("fault_seed") {
        common.fault_seed = Some(s.as_u64().ok_or("\"fault_seed\" must be a u64")?);
    }
    if let Some(b) = job.get("budget") {
        if b.as_obj().is_none() {
            return Err("\"budget\" must be an object".into());
        }
        let dim = |key: &str, dflt: u64| -> Result<u64, String> {
            match b.get(key) {
                None | Some(Value::Null) => Ok(dflt),
                Some(v) => v
                    .as_u64()
                    .filter(|&n| n > 0)
                    .ok_or(format!("budget.{key} must be a positive integer")),
            }
        };
        common.budget = Budget {
            conflicts: dim("conflicts", u64::MAX)?,
            steps: dim("steps", u64::MAX)?,
            fuel: dim("fuel", u64::MAX)?,
            deadline: dim("deadline", u64::MAX)?,
        };
    }
    Ok(common)
}

fn parse_sat(job: &Value) -> Result<SatJob, String> {
    let num_vars = job
        .get("num_vars")
        .and_then(Value::as_u64)
        .filter(|&n| n <= 100_000)
        .ok_or("sat job needs \"num_vars\" (integer, at most 100000)")? as usize;
    let raw = job
        .get("clauses")
        .and_then(Value::as_arr)
        .ok_or("sat job needs a \"clauses\" array")?;
    if raw.len() > 1_000_000 {
        return Err("too many clauses (limit 1000000)".into());
    }
    // Sized exactly: the spec lives on in the transcript.
    let size = raw
        .iter()
        .map(|cl| cl.as_arr().map_or(0, <[Value]>::len) + 1)
        .sum();
    let mut lits = Vec::with_capacity(size);
    for (i, cl) in raw.iter().enumerate() {
        let cl = cl
            .as_arr()
            .ok_or(format!("clause {i} must be an array of literals"))?;
        for l in cl {
            let v = l
                .as_i64()
                .filter(|&v| v != 0 && v.unsigned_abs() <= num_vars as u64)
                .ok_or(format!(
                    "clause {i}: literals must be nonzero integers with |lit| <= num_vars"
                ))?;
            lits.push(v as i32);
        }
        lits.push(0);
    }
    let proof = match job.get("proof") {
        None => false,
        Some(v) => v.as_bool().ok_or("\"proof\" must be a boolean")?,
    };
    Ok(SatJob {
        num_vars,
        lits,
        proof,
        common: parse_common(job)?,
    })
}

fn parse_fig(job: &Value) -> Result<FigJob, String> {
    let name = job
        .get("name")
        .and_then(Value::as_str)
        .ok_or("fig job needs a string \"name\" field")?;
    if !FIG_NAMES.contains(&name) {
        return Err(format!(
            "unknown fig workload {name:?} (expected one of {FIG_NAMES:?})"
        ));
    }
    let proof = match job.get("proof") {
        None => false,
        Some(v) => v.as_bool().ok_or("\"proof\" must be a boolean")?,
    };
    Ok(FigJob {
        name: name.to_string(),
        proof,
        common: parse_common(job)?,
    })
}

fn parse_synth(job: &Value) -> Result<SynthJob, String> {
    let name = job
        .get("name")
        .and_then(Value::as_str)
        .ok_or("synth job needs a string \"name\" field")?;
    if !SYNTH_NAMES.contains(&name) {
        return Err(format!(
            "unknown synth benchmark {name:?} (expected one of {SYNTH_NAMES:?})"
        ));
    }
    let width = job
        .get("width")
        .and_then(Value::as_u64)
        .filter(|&w| (1..=16).contains(&w))
        .unwrap_or(4) as u32;
    let seed = job.get("seed").and_then(Value::as_u64).unwrap_or(0x0615);
    let max_iterations = job
        .get("max_iterations")
        .and_then(Value::as_u64)
        .filter(|&n| (1..=10_000).contains(&n))
        .unwrap_or(64) as usize;
    Ok(SynthJob {
        name: name.to_string(),
        width,
        seed,
        max_iterations,
        common: parse_common(job)?,
    })
}

/// The result of executing one compute job.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The canonical verdict string — exactly what the library's
    /// `Verdict` display (or the synthesis outcome mapping) produced.
    pub verdict: String,
    /// What the job spent.
    pub receipt: BudgetReceipt,
    /// Reference to the certificate artifact(s) written for an unsat
    /// answer, as the JSON value served to the client.
    pub certificate: Option<Value>,
    /// Job-kind-specific extras (program text, winner index, …).
    pub detail: Vec<(String, Value)>,
}

/// Execution failure inside a job: served as an `EJOB`/`EINTERNAL` error
/// frame, never a dropped connection.
#[derive(Clone, Debug)]
pub struct JobError(pub String);

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The compute engine shared by every worker: one SMT query cache spans
/// all jobs, and certificate artifacts land in one directory.
pub struct Engine {
    smt_cache: Arc<SmtQueryCache>,
    proofs_dir: Option<PathBuf>,
}

impl Engine {
    /// An engine writing certificates under `proofs_dir` (certificates
    /// are disabled when `None`; proof-requesting jobs still verify their
    /// proofs in memory, they just serve no file reference).
    pub fn new(proofs_dir: Option<PathBuf>) -> Self {
        Engine::with_cache(proofs_dir, Arc::new(SmtQueryCache::new()))
    }

    /// An engine over a caller-provided query cache — the durability
    /// layer's entry point: the server preloads the cache from its disk
    /// tier (and attaches write-behind) before handing it over. Cache
    /// contents are never trusted into verdicts: hits pass the solver's
    /// certify-on-reuse adoption regardless of where they came from.
    pub fn with_cache(proofs_dir: Option<PathBuf>, smt_cache: Arc<SmtQueryCache>) -> Self {
        Engine {
            smt_cache,
            proofs_dir,
        }
    }

    /// The shared SMT query cache (for stats reporting).
    pub fn smt_cache(&self) -> &Arc<SmtQueryCache> {
        &self.smt_cache
    }

    /// Executes a compute job. `job_tag` names the certificate artifacts
    /// (callers pass a server-unique tag so tenants cannot collide).
    pub fn execute(&self, job_tag: &str, spec: &JobSpec) -> Result<JobOutput, JobError> {
        match spec {
            JobSpec::Sat(j) => self.run_sat(job_tag, &to_cnf(j), &[], j.proof, &j.common, vec![]),
            JobSpec::Fig(j) => self.run_fig(job_tag, j),
            JobSpec::Synth(j) => run_synth(j),
            JobSpec::Audit | JobSpec::Stats => Err(JobError(
                "audit/stats are answered by the server, not the engine".into(),
            )),
        }
    }

    /// Solves a CNF with the portfolio; the verdict is the canonical
    /// `Verdict<SolveResult>` rendering.
    fn run_sat(
        &self,
        job_tag: &str,
        cnf: &Cnf,
        assumptions: &[sciduction_sat::Lit],
        proof: bool,
        common: &JobCommon,
        mut detail: Vec<(String, Value)>,
    ) -> Result<JobOutput, JobError> {
        let config = PortfolioConfig {
            threads: effective_threads(common),
            proof,
            budget: common.budget,
            ..PortfolioConfig::default()
        };
        let plan = common.fault_seed.map(|s| Arc::new(FaultPlan::new(s)));
        let out = solve_portfolio_with_faults(cnf, assumptions, &config, plan)
            .map_err(|e| JobError(format!("portfolio failed: {e}")))?;
        let verdict = out.verdict.to_string();
        let receipt = out
            .solvers
            .iter()
            .flatten()
            .find_map(|s| s.budget_receipt().cloned())
            .unwrap_or_else(|| BudgetMeter::new(common.budget).receipt());
        let mut certificate = None;
        if let (Some(p), Some(pc)) = (&out.proof, &out.proof_cnf) {
            // Verify before serving: the front door never ships an
            // unchecked refutation.
            check_drat(pc, p).map_err(|e| JobError(format!("emitted proof rejected: {e}")))?;
            if let Some(dir) = &self.proofs_dir {
                let cnf_path = dir.join(format!("{job_tag}.cnf"));
                let drat_path = dir.join(format!("{job_tag}.drat"));
                write_artifact(&cnf_path, &pc.to_dimacs())?;
                write_artifact(&drat_path, &p.to_drat())?;
                certificate = Some(json::obj(vec![
                    ("kind", Value::Str("drat".into())),
                    ("cnf", Value::Str(cnf_path.display().to_string())),
                    ("proof", Value::Str(drat_path.display().to_string())),
                ]));
            }
        }
        if let Some(w) = out.winner {
            detail.push(("winner".to_string(), Value::Int(w as i64)));
        }
        Ok(JobOutput {
            verdict,
            receipt,
            certificate,
            detail,
        })
    }

    fn run_fig(&self, job_tag: &str, j: &FigJob) -> Result<JobOutput, JobError> {
        match j.name.as_str() {
            "fig10_mode_exclusion" => {
                let detail = vec![("workload".to_string(), Value::Str(j.name.clone()))];
                self.run_sat(
                    job_tag,
                    &mode_exclusion(7, 6),
                    &[],
                    j.proof,
                    &j.common,
                    detail,
                )
            }
            name => self.run_smt_fig(job_tag, name, j),
        }
    }

    /// Runs one of the SMT figure queries. Proofless jobs share the
    /// engine-wide query cache; certifying jobs run uncached (a cache
    /// adoption carries no fresh proof), and a faulted job gets a
    /// job-local storm-injected cache so the shared table stays clean.
    fn run_smt_fig(&self, job_tag: &str, name: &str, j: &FigJob) -> Result<JobOutput, JobError> {
        let mut s = if j.proof {
            SmtSolver::certifying()
        } else {
            SmtSolver::new()
        };
        if j.shares_query_cache() {
            s.attach_cache(Arc::clone(&self.smt_cache));
        } else if let (false, Some(seed)) = (j.proof, j.common.fault_seed) {
            s.attach_cache(Arc::new(
                SmtQueryCache::new().with_fault_plan(Arc::new(FaultPlan::new(seed))),
            ));
        }
        for t in build_fig_query(&mut s, name)? {
            s.assert_term(t);
        }
        let verdict = s.check_bounded(&j.common.budget);
        let receipt = s
            .budget_receipt()
            .cloned()
            .unwrap_or_else(|| BudgetMeter::new(j.common.budget).receipt());
        let mut certificate = None;
        if j.proof && verdict == sciduction::Verdict::Known(sciduction_smt::CheckResult::Unsat) {
            let cert = s
                .unsat_certificate()
                .ok_or_else(|| JobError("certifying unsat yielded no certificate".into()))?;
            check_certificate(&cert)
                .map_err(|e| JobError(format!("emitted certificate rejected: {e}")))?;
            if let Some(dir) = &self.proofs_dir {
                let path = dir.join(format!("{job_tag}.scicert"));
                write_artifact(&path, &cert.to_text())?;
                certificate = Some(json::obj(vec![
                    ("kind", Value::Str("scicert".into())),
                    ("path", Value::Str(path.display().to_string())),
                ]));
            }
        }
        Ok(JobOutput {
            verdict: verdict.to_string(),
            receipt,
            certificate,
            detail: vec![("workload".to_string(), Value::Str(name.to_string()))],
        })
    }
}

/// The library default when the job did not pin a thread count.
fn effective_threads(common: &JobCommon) -> usize {
    if common.threads == 0 {
        sciduction::exec::configured_threads()
    } else {
        common.threads
    }
}

fn write_artifact(path: &PathBuf, text: &str) -> Result<(), JobError> {
    fs::write(path, text).map_err(|e| JobError(format!("cannot write {}: {e}", path.display())))
}

fn to_cnf(j: &SatJob) -> Cnf {
    Cnf {
        num_vars: j.num_vars,
        clauses: j
            .clauses()
            .map(|cl| cl.iter().map(|&l| l.into()).collect())
            .collect(),
    }
}

/// The fig10 pigeonhole instance: `n` modes demanding `m` exclusive
/// actuation slots (same construction as `solver_bench`).
pub fn mode_exclusion(n: usize, m: usize) -> Cnf {
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

/// Emits the named fig6/fig8 query's assertions into `s`, mirroring the
/// `solver_bench` constructions exactly.
fn build_fig_query(s: &mut SmtSolver, name: &str) -> Result<Vec<TermId>, JobError> {
    match name {
        "fig6_crc8_infeasible_path" | "fig6_crc8_feasible_path" => {
            use sciduction_cfg::{path_formula, unroll, Dag};
            let f = sciduction_ir::programs::crc8();
            let dag = Dag::build(unroll(&f, 8))
                .map_err(|e| JobError(format!("crc8 unroll failed: {e:?}")))?;
            let paths = dag.enumerate_paths(1000);
            let path = if name == "fig6_crc8_infeasible_path" {
                paths.iter().min_by_key(|p| p.edges.len())
            } else {
                paths.iter().max_by_key(|p| p.edges.len())
            }
            .ok_or_else(|| JobError("crc8 DAG has no paths".into()))?;
            Ok(path_formula(s, &dag, path).constraints)
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
            Ok(vec![p.neq(spec, cand)])
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
            Ok(vec![p.neq(spec, cand)])
        }
        other => Err(JobError(format!("no SMT query for workload {other:?}"))),
    }
}

/// Runs a synthesis job via the OGIS portfolio (member 0 at threads=1 is
/// bit-identical to the sequential loop, so served programs match direct
/// library calls exactly).
///
/// Synthesis runs *uncached*: a shared-cache model adoption could steer
/// the CEGIS loop to a different (equally correct) program, and the
/// conformance contract pins program text, not just feasibility.
fn run_synth(j: &SynthJob) -> Result<JobOutput, JobError> {
    let (library, _) = make_benchmark(&j.name, j.width);
    let config = SynthesisConfig {
        max_iterations: j.max_iterations,
        seed: j.seed,
        budget: j.common.budget,
        ..SynthesisConfig::default()
    };
    let par = ParallelSynthesisConfig {
        members: 4,
        threads: effective_threads(&j.common),
        cache_capacity: 0,
    };
    let out = synthesize_portfolio(
        &library,
        |_member| make_benchmark(&j.name, j.width).1,
        &config,
        &par,
    )
    .map_err(|e| JobError(format!("synthesis portfolio failed: {e}")))?;

    // Account the run: each SMT check is a step, each oracle query fuel.
    let mut meter = BudgetMeter::new(Budget::UNLIMITED);
    let _ = meter.charge_step_batch(out.stats.smt_checks);
    let _ = meter.charge_fuel_batch(out.stats.oracle_queries);

    let mut detail = vec![("benchmark".to_string(), Value::Str(j.name.clone()))];
    if let Some(w) = out.winner {
        detail.push(("winner".to_string(), Value::Int(w as i64)));
    }
    let verdict = match out.outcome {
        SynthesisOutcome::Synthesized {
            program,
            iterations,
            ..
        } => {
            detail.push(("program".to_string(), Value::Str(program.to_string())));
            detail.push(("iterations".to_string(), Value::Int(iterations as i64)));
            "synthesized".to_string()
        }
        SynthesisOutcome::Infeasible { iterations, .. } => {
            detail.push(("iterations".to_string(), Value::Int(iterations as i64)));
            "infeasible".to_string()
        }
        SynthesisOutcome::BudgetExhausted { cause, iterations } => {
            detail.push(("iterations".to_string(), Value::Int(iterations as i64)));
            format!("unknown: {cause}")
        }
    };
    Ok(JobOutput {
        verdict,
        receipt: meter.receipt(),
        certificate: None,
        detail,
    })
}

fn make_benchmark(
    name: &str,
    width: u32,
) -> (
    sciduction_ogis::ComponentLibrary,
    Box<dyn sciduction_ogis::IoOracle>,
) {
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
        "average_floor" => {
            let (lib, oracle) = benchmarks::extra::average_floor(width);
            (lib, Box::new(oracle))
        }
        other => unreachable!("parse_synth admits only known names, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(kind_json: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(&json::parse(kind_json).unwrap())
    }

    #[test]
    fn job_parsing_accepts_the_documented_shapes() {
        let sat =
            parse(r#"{"kind":"sat","num_vars":2,"clauses":[[1,-2],[2]],"proof":true}"#).unwrap();
        match sat {
            JobSpec::Sat(j) => {
                assert_eq!(j.num_vars, 2);
                assert_eq!(j.clauses().collect::<Vec<_>>(), [&[1, -2][..], &[2]]);
                assert!(j.proof);
            }
            other => panic!("wrong spec {other:?}"),
        }
        let fig = parse(
            r#"{"kind":"fig","name":"fig10_mode_exclusion","threads":2,"fault_seed":3,
                "budget":{"conflicts":100}}"#,
        )
        .unwrap();
        match fig {
            JobSpec::Fig(j) => {
                assert_eq!(j.common.threads, 2);
                assert_eq!(j.common.fault_seed, Some(3));
                assert_eq!(j.common.budget.conflicts, 100);
                assert_eq!(j.common.budget.steps, u64::MAX);
            }
            other => panic!("wrong spec {other:?}"),
        }
        assert_eq!(parse(r#"{"kind":"stats"}"#).unwrap(), JobSpec::Stats);
        assert_eq!(parse(r#"{"kind":"audit"}"#).unwrap(), JobSpec::Audit);
    }

    #[test]
    fn sat_specs_roundtrip_exactly_through_the_flat_clause_store() {
        for (text, label, clauses) in [
            (
                r#"{"kind":"sat","num_vars":0,"clauses":[]}"#,
                "sat[v0 c0]",
                0,
            ),
            (
                r#"{"kind":"sat","num_vars":2,"clauses":[[]]}"#,
                "sat[v2 c1]",
                1,
            ),
            (
                r#"{"kind":"sat","num_vars":3,"clauses":[[1,-2],[],[3,3,-1],[-3]],"proof":true,"threads":1}"#,
                "sat[v3 c4]",
                4,
            ),
        ] {
            let spec = parse(text).unwrap();
            assert_eq!(spec.to_json().to_string(), text);
            assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
            assert_eq!(spec.label(), label);
            let JobSpec::Sat(j) = &spec else {
                panic!("wrong spec {spec:?}")
            };
            assert_eq!(j.clauses().count(), clauses);
            assert_eq!(to_cnf(j).clauses.len(), clauses);
        }
    }

    #[test]
    fn job_parsing_rejects_bad_payloads_with_reasons() {
        for (bad, needle) in [
            (r#"{"nope":1}"#, "kind"),
            (r#"{"kind":"warp"}"#, "unknown job kind"),
            (r#"{"kind":"sat","num_vars":2}"#, "clauses"),
            (r#"{"kind":"sat","num_vars":2,"clauses":[[0]]}"#, "nonzero"),
            (r#"{"kind":"sat","num_vars":2,"clauses":[[3]]}"#, "num_vars"),
            (r#"{"kind":"fig","name":"fig99"}"#, "unknown fig"),
            (
                r#"{"kind":"fig","name":"fig8_p1_equiv_w8","threads":0}"#,
                "threads",
            ),
            (r#"{"kind":"synth","name":"mystery"}"#, "unknown synth"),
            (
                r#"{"kind":"fig","name":"fig8_p1_equiv_w8","budget":{"steps":0}}"#,
                "budget.steps",
            ),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn spec_json_roundtrips_and_budget_clamps_dimension_wise() {
        let specs = [
            parse(r#"{"kind":"sat","num_vars":2,"clauses":[[1,-2],[2]],"proof":true}"#).unwrap(),
            parse(
                r#"{"kind":"fig","name":"fig8_p1_equiv_w8","threads":2,"fault_seed":3,
                    "budget":{"conflicts":100,"deadline":50}}"#,
            )
            .unwrap(),
            parse(r#"{"kind":"synth","name":"p1_xor_chain","width":5,"seed":9}"#).unwrap(),
            JobSpec::Audit,
            JobSpec::Stats,
        ];
        for spec in &specs {
            let back = JobSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(&back, spec, "{}", spec.label());
        }

        let fig = &specs[1];
        let clamped = fig.clamped(Budget {
            conflicts: 500, // above the job's own 100: the job's wins
            steps: u64::MAX,
            fuel: 7,
            deadline: 10, // below the job's 50: the cap wins
        });
        match &clamped {
            JobSpec::Fig(j) => {
                assert_eq!(j.common.budget.conflicts, 100);
                assert_eq!(j.common.budget.steps, u64::MAX);
                assert_eq!(j.common.budget.fuel, 7);
                assert_eq!(j.common.budget.deadline, 10);
                assert_eq!(j.common.threads, 2, "non-budget knobs untouched");
            }
            other => panic!("clamp changed the kind: {other:?}"),
        }
        // The clamped spec still round-trips (WAL replay integrity).
        assert_eq!(JobSpec::from_json(&clamped.to_json()).unwrap(), clamped);
        // An unlimited cap is the identity.
        assert_eq!(&fig.clamped(Budget::UNLIMITED), fig);
    }

    #[test]
    fn engine_serves_fig8_with_a_checked_certificate() {
        let dir = std::env::temp_dir().join("scid-server-test-jobs");
        fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(Some(dir.clone()));
        let spec = JobSpec::Fig(FigJob {
            name: "fig8_p1_equiv_w8".into(),
            proof: true,
            common: JobCommon {
                threads: 1,
                ..JobCommon::default()
            },
        });
        let out = engine.execute("t-fig8", &spec).unwrap();
        assert_eq!(out.verdict, "unsat");
        let cert = out.certificate.expect("unsat with proof serves a cert");
        assert_eq!(cert.get("kind").unwrap().as_str(), Some("scicert"));
        let path = cert.get("path").unwrap().as_str().unwrap();
        let text = fs::read_to_string(path).unwrap();
        let reparsed = sciduction_proof::SmtCertificate::parse(&text).unwrap();
        check_certificate(&reparsed).expect("served certificate replays");
    }

    #[test]
    fn engine_sat_jobs_answer_and_account() {
        let engine = Engine::new(None);
        let sat =
            parse(r#"{"kind":"sat","num_vars":2,"clauses":[[1,-2],[2]],"threads":1}"#).unwrap();
        let out = engine.execute("t-sat", &sat).unwrap();
        assert_eq!(out.verdict, "sat");
        assert!(out.receipt.coherent());

        let unsat =
            parse(r#"{"kind":"sat","num_vars":1,"clauses":[[1],[-1]],"proof":true,"threads":1}"#)
                .unwrap();
        let out = engine.execute("t-unsat", &unsat).unwrap();
        assert_eq!(out.verdict, "unsat");
        // proofs_dir is None: proof verified in memory, no file served.
        assert!(out.certificate.is_none());
    }

    #[test]
    fn engine_synth_matches_direct_library_call() {
        let engine = Engine::new(None);
        let spec = JobSpec::Synth(SynthJob {
            name: "turn_off_rightmost_one".into(),
            width: 4,
            seed: 7,
            max_iterations: 64,
            common: JobCommon {
                threads: 1,
                ..JobCommon::default()
            },
        });
        let out = engine.execute("t-synth", &spec).unwrap();
        assert_eq!(out.verdict, "synthesized");
        let served_program = out
            .detail
            .iter()
            .find(|(k, _)| k == "program")
            .and_then(|(_, v)| v.as_str())
            .expect("synthesized job serves the program text")
            .to_string();

        let (lib, mut oracle) = benchmarks::extra::turn_off_rightmost_one(4);
        let config = SynthesisConfig {
            max_iterations: 64,
            seed: 7,
            budget: Budget::UNLIMITED,
            ..SynthesisConfig::default()
        };
        let (direct, _) = sciduction_ogis::synthesize_with_cache(&lib, &mut oracle, &config, None);
        match direct {
            SynthesisOutcome::Synthesized { program, .. } => {
                assert_eq!(served_program, program.to_string());
            }
            other => panic!("direct synthesis failed: {other:?}"),
        }
    }
}
