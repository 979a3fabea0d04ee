//! `apps_journaled`: the three sciduction applications called as a
//! library by one caller, each task's checkpoint journal serialised and
//! parsed back, and set-up measured as parse + resume of every journal.

use crate::gen::{app_task, AppTask};
use crate::metrics::Layers;
use crate::stats::{blocked_percentile, median, percentile};
use crate::trace::Tracer;
use crate::{proc_hwm_mb, Ctx, Outcome, P99_BLOCK, SETUP_REPEATS};
use sciduction::Budget;
use sciduction_cfg::{extract_basis, Dag, SmtOracle};
use sciduction_gametime::{
    analyze, analyze_journaled, analyze_resume, GameTimeAnalysis, GameTimeConfig,
    MeasurementJournal, MicroarchPlatform,
};
use sciduction_hybrid::transmission::{guard_seeds, initial_guards, transmission};
use sciduction_hybrid::{
    synthesize_switching, synthesize_switching_journaled, synthesize_switching_resume, systems,
    GuardSearchJournal, Mds, ReachConfig, SwitchSynthConfig, SwitchSynthesis, SwitchingLogic,
};
use sciduction_ir::{programs, Function};
use sciduction_microarch::{Machine, MachineState};
use sciduction_ogis::{
    benchmarks, synthesize, synthesize_journaled, synthesize_resume, CegisJournal,
    ComponentLibrary, IoOracle, SynthesisConfig, SynthesisOutcome,
};
use std::collections::BTreeMap;
use std::time::Instant;

fn program(name: &str) -> Function {
    match name {
        "modexp" => programs::modexp(),
        "crc8" => programs::crc8(),
        "fir4" => programs::fir4(),
        "bubble_pass" => programs::bubble_pass(),
        other => panic!("unknown program {other}"),
    }
}

fn gametime_config(trials: usize, seed: u64) -> GameTimeConfig {
    GameTimeConfig {
        unroll_bound: 8,
        trials,
        seed,
        budget: Budget::UNLIMITED,
        ..GameTimeConfig::default()
    }
}

fn ogis_benchmark(bench: &str, width: u32) -> (ComponentLibrary, Box<dyn IoOracle>) {
    match bench {
        "p1" => {
            let (lib, oracle) = benchmarks::p1_with_width(width);
            (lib, Box::new(oracle))
        }
        "p2" => {
            let (lib, oracle) = benchmarks::p2_with_width(width);
            (lib, Box::new(oracle))
        }
        other => panic!("unknown OGIS benchmark {other}"),
    }
}

fn ogis_config(seed: u64) -> SynthesisConfig {
    SynthesisConfig {
        seed,
        budget: Budget::UNLIMITED,
        ..SynthesisConfig::default()
    }
}

/// The system, initial guards, learner seeds and configuration of a
/// hybrid task (the `eq3_eq4` binary's and the kill/resume suite's).
fn hybrid_setup(
    system: &str,
) -> (
    Mds,
    SwitchingLogic,
    Vec<Option<Vec<f64>>>,
    SwitchSynthConfig,
) {
    let transmission_config = |min_dwell: f64| SwitchSynthConfig {
        grid: sciduction_hybrid::Grid::new(0.01),
        reach: ReachConfig {
            dt: 0.01,
            horizon: 200.0,
            min_dwell,
            equilibrium_eps: 1e-9,
        },
        max_rounds: 8,
        seed_budget: 512,
        budget: Budget::UNLIMITED,
    };
    match system {
        "transmission_eq3" | "transmission_dwell5" => {
            let mds = transmission();
            let init = initial_guards(&mds);
            let seeds = guard_seeds(&mds);
            let dwell = if system == "transmission_eq3" {
                0.0
            } else {
                5.0
            };
            (mds, init, seeds, transmission_config(dwell))
        }
        "water_tank" => {
            let config = SwitchSynthConfig {
                grid: sciduction_hybrid::Grid::new(0.05),
                reach: ReachConfig {
                    dt: 0.01,
                    horizon: 100.0,
                    min_dwell: 0.0,
                    equilibrium_eps: 1e-9,
                },
                budget: Budget::UNLIMITED,
                ..SwitchSynthConfig::default()
            };
            (
                systems::water_tank(),
                systems::water_tank_initial(),
                vec![Some(vec![5.0]), Some(vec![5.0])],
                config,
            )
        }
        other => panic!("unknown hybrid system {other}"),
    }
}

fn gametime_artifact(a: &GameTimeAnalysis) -> String {
    let wcet = a.predict_wcet().expect("a fitted model predicts a WCET");
    format!(
        "rank={} wcet_bits={:016x} wcet_args={:?}",
        a.basis.rank(),
        wcet.predicted_cycles.to_bits(),
        wcet.test.args
    )
}

fn ogis_artifact(outcome: &SynthesisOutcome) -> String {
    match outcome {
        SynthesisOutcome::Synthesized { program, .. } => format!("program={program}"),
        other => format!("not synthesized: {other:?}"),
    }
}

fn hybrid_artifact(s: &SwitchSynthesis) -> String {
    let bits: Vec<String> = s
        .logic
        .guards
        .iter()
        .map(|g| {
            g.lo.iter()
                .chain(&g.hi)
                .map(|x| format!("{:016x}", x.to_bits()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    format!("guards=[{}] converged={}", bits.join(";"), s.converged)
}

/// The artifact of an uninterrupted, unjournaled run of `task`: what
/// every journaled run and every resume must reproduce exactly.
fn reference(task: &AppTask) -> String {
    match task {
        AppTask::GameTime {
            program: name,
            trials,
            seed,
        } => {
            let f = program(name);
            let a = analyze(
                &f,
                &mut MicroarchPlatform::new(f.clone()),
                &gametime_config(*trials, *seed),
            )
            .expect("bundled programs analyze");
            gametime_artifact(&a)
        }
        AppTask::Ogis { bench, width, seed } => {
            let (lib, mut oracle) = ogis_benchmark(bench, *width);
            let (outcome, _) = synthesize(&lib, oracle.as_mut(), &ogis_config(*seed));
            ogis_artifact(&outcome)
        }
        AppTask::Hybrid { system } => {
            let (mds, init, seeds, config) = hybrid_setup(system);
            hybrid_artifact(&synthesize_switching(&mds, init, &seeds, &config))
        }
    }
}

/// One finished task: its artifact and its serialised journal.
struct TaskRun {
    /// The artifact the journaled run produced.
    pub artifact: String,
    /// The journal text, after a parse/serialise round trip.
    pub journal: String,
}

/// Runs `task` journaled, serialises its journal and parses it back.
/// With the tracer on, spans cover each library call, and the traced
/// run also times basis extraction and per-input machine runs.
fn run_task(task: &AppTask, rid: u64, tracer: &Tracer, layers: &Layers) -> TaskRun {
    let traced = tracer.enabled();
    let slot = tracer.reserve("apps.task", rid);
    let p = Some(slot);
    let run = match task {
        AppTask::GameTime {
            program: name,
            trials,
            seed,
        } => {
            let f = program(name);
            let cfg = gametime_config(*trials, *seed);
            let ((analysis, journal), secs) = tracer.span("gametime.analyze", rid, p, || {
                analyze_journaled(&f, &mut MicroarchPlatform::new(f.clone()), &cfg, None)
                    .expect("bundled programs analyze")
            });
            let analysis = analysis.expect("an unkilled run completes");
            let (text, ser) =
                tracer.span("journal.gametime.serialize", rid, p, || journal.serialize());
            let (back, parse) = tracer.span("journal.gametime.parse", rid, p, || {
                MeasurementJournal::parse(&text).expect("journal round-trips")
            });
            assert_eq!(back, journal, "gametime journal changed in a round trip");
            if traced {
                layers.add("gametime.analyze_ms", secs * 1e3);
                layers.add("gametime.smt_queries", analysis.smt_queries as f64);
                layers.add("gametime.measurements", analysis.measurements as f64);
                layers.add("journal.gametime.serialize_us", ser * 1e6);
                layers.add("journal.gametime.parse_us", parse * 1e6);
                layers.add("journal.gametime.bytes", text.len() as f64);
                let ((), basis) = tracer.span("cfg.basis", rid, p, || {
                    let dag = Dag::from_function(&f, cfg.unroll_bound).expect("unrolls");
                    extract_basis(&dag, &mut SmtOracle::new(), cfg.basis);
                });
                layers.add("cfg.basis_ms", basis * 1e3);
                let machine = Machine::new();
                for path in &analysis.basis.paths {
                    let mut state = MachineState::cold(machine.config());
                    let (_, secs) = tracer.span("microarch.run", rid, p, || {
                        machine
                            .run(&f, &path.test.args, path.test.memory.clone(), &mut state)
                            .expect("basis tests terminate")
                    });
                    layers.add("microarch.run_us", secs * 1e6);
                }
            }
            TaskRun {
                artifact: gametime_artifact(&analysis),
                journal: text,
            }
        }
        AppTask::Ogis { bench, width, seed } => {
            let (lib, mut oracle) = ogis_benchmark(bench, *width);
            let config = ogis_config(*seed);
            let ((outcome, journal), secs) = tracer.span("ogis.cegis", rid, p, || {
                synthesize_journaled(&lib, oracle.as_mut(), &config, None)
            });
            let (outcome, stats) = outcome.expect("an unkilled run completes");
            let (text, ser) = tracer.span("journal.ogis.serialize", rid, p, || journal.serialize());
            let (back, parse) = tracer.span("journal.ogis.parse", rid, p, || {
                CegisJournal::parse(&text).expect("journal round-trips")
            });
            assert_eq!(
                back.serialize(),
                text,
                "ogis journal changed in a round trip"
            );
            if traced {
                layers.add("ogis.cegis_ms", secs * 1e3);
                layers.add("ogis.smt_checks", stats.smt_checks as f64);
                layers.add("ogis.oracle_queries", stats.oracle_queries as f64);
                if let SynthesisOutcome::Synthesized { iterations, .. } = &outcome {
                    layers.add("ogis.iterations", *iterations as f64);
                }
                layers.add("journal.ogis.serialize_us", ser * 1e6);
                layers.add("journal.ogis.parse_us", parse * 1e6);
                layers.add("journal.ogis.bytes", text.len() as f64);
            }
            TaskRun {
                artifact: ogis_artifact(&outcome),
                journal: text,
            }
        }
        AppTask::Hybrid { system } => {
            let (mds, init, seeds, config) = hybrid_setup(system);
            let ((out, journal), secs) = tracer.span("hybrid.synth", rid, p, || {
                synthesize_switching_journaled(&mds, init, &seeds, &config, None)
            });
            let out = out.expect("an unkilled run completes");
            let (text, ser) =
                tracer.span("journal.hybrid.serialize", rid, p, || journal.serialize());
            let (back, parse) = tracer.span("journal.hybrid.parse", rid, p, || {
                GuardSearchJournal::parse(&text).expect("journal round-trips")
            });
            assert_eq!(
                back.serialize(),
                text,
                "hybrid journal changed in a round trip"
            );
            if traced {
                layers.add("hybrid.synth_ms", secs * 1e3);
                layers.add("hybrid.oracle_queries", out.oracle_queries as f64);
                layers.add("hybrid.rounds", out.rounds as f64);
                layers.add("journal.hybrid.serialize_us", ser * 1e6);
                layers.add("journal.hybrid.parse_us", parse * 1e6);
                layers.add("journal.hybrid.bytes", text.len() as f64);
            }
            TaskRun {
                artifact: hybrid_artifact(&out),
                journal: text,
            }
        }
    };
    tracer.finish(slot);
    run
}

/// Parses `journal` and resumes `task` from it; returns the artifact.
fn resume(task: &AppTask, journal: &str, rid: u64, tracer: &Tracer, layers: &Layers) -> String {
    let traced = tracer.enabled();
    match task {
        AppTask::GameTime {
            program: name,
            trials,
            seed,
        } => {
            let f = program(name);
            let (a, secs) = tracer.span("journal.gametime.resume", rid, None, || {
                let j = MeasurementJournal::parse(journal).expect("journal parses");
                analyze_resume(
                    &f,
                    &mut MicroarchPlatform::new(f.clone()),
                    &gametime_config(*trials, *seed),
                    &j,
                )
                .expect("journal resumes")
            });
            if traced {
                layers.add("journal.gametime.resume_ms", secs * 1e3);
            }
            gametime_artifact(&a)
        }
        AppTask::Ogis { bench, width, seed } => {
            let (lib, mut oracle) = ogis_benchmark(bench, *width);
            let ((outcome, _), secs) = tracer.span("journal.ogis.resume", rid, None, || {
                let j = CegisJournal::parse(journal).expect("journal parses");
                synthesize_resume(&lib, oracle.as_mut(), &ogis_config(*seed), &j)
                    .expect("journal resumes")
            });
            if traced {
                layers.add("journal.ogis.resume_ms", secs * 1e3);
            }
            ogis_artifact(&outcome)
        }
        AppTask::Hybrid { system } => {
            let (mds, _, seeds, config) = hybrid_setup(system);
            let (out, secs) = tracer.span("journal.hybrid.resume", rid, None, || {
                let j = GuardSearchJournal::parse(journal).expect("journal parses");
                synthesize_switching_resume(&mds, &seeds, &config, &j).expect("journal resumes")
            });
            if traced {
                layers.add("journal.hybrid.resume_ms", secs * 1e3);
            }
            hybrid_artifact(&out)
        }
    }
}

/// What one closed-loop pass over the task stream produced.
pub struct AppsPass {
    /// Per-task latency, seconds.
    pub latencies: Vec<f64>,
    /// Wall time of the timed region, seconds.
    pub wall: f64,
    /// CPU time of this process over the timed region, seconds.
    pub cpu: f64,
    /// Distinct tasks run, with the artifact and journal of their runs.
    pub runs: BTreeMap<AppTask, (String, String)>,
    /// Tasks whose repeated runs disagreed with each other.
    pub unstable: Vec<String>,
}

/// Runs the task stream of `seed` for `seconds`.
pub fn run_pass(seed: u64, seconds: f64, tracer: &Tracer, layers: &Layers) -> AppsPass {
    let cpu0 = crate::proc_cpu_seconds("self").unwrap_or(0.0);
    let t0 = Instant::now();
    let mut latencies = Vec::new();
    let mut runs: BTreeMap<AppTask, (String, String)> = BTreeMap::new();
    let mut unstable = Vec::new();
    let mut index = 0;
    while t0.elapsed().as_secs_f64() < seconds {
        let task = app_task(seed, index);
        let t = Instant::now();
        let run = run_task(&task, index, tracer, layers);
        latencies.push(t.elapsed().as_secs_f64());
        match runs.get(&task) {
            Some((artifact, journal)) => {
                if *artifact != run.artifact || *journal != run.journal {
                    unstable.push(task.label());
                }
            }
            None => {
                runs.insert(task, (run.artifact, run.journal));
            }
        }
        index += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::proc_cpu_seconds("self").unwrap_or(0.0) - cpu0;
    AppsPass {
        latencies,
        wall,
        cpu,
        runs,
        unstable,
    }
}

/// Diffs every distinct task's artifact against an uninterrupted,
/// unjournaled reference run; returns the references.
pub fn check_apps(pass: &AppsPass, plant: bool) -> Result<BTreeMap<AppTask, String>, String> {
    if let Some(label) = pass.unstable.first() {
        return Err(format!(
            "task {label} produced different artifacts on repeated runs"
        ));
    }
    let mut refs = BTreeMap::new();
    for (n, (task, (artifact, _))) in pass.runs.iter().enumerate() {
        let mut want = reference(task);
        if plant && n == 0 {
            want = format!("planted-wrong-{want}");
        }
        if *artifact != want {
            return Err(format!(
                "task {}: journaled run gave {artifact}, uninterrupted reference {want}",
                task.label()
            ));
        }
        refs.insert(task.clone(), want);
    }
    Ok(refs)
}

/// Parses every distinct journal and resumes it; each resumed artifact
/// must equal the reference. Returns the seconds it took.
fn resume_all(
    pass: &AppsPass,
    refs: &BTreeMap<AppTask, String>,
    tracer: &Tracer,
    layers: &Layers,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut resumed = Vec::with_capacity(pass.runs.len());
    for (rid, (task, (_, journal))) in pass.runs.iter().enumerate() {
        resumed.push((task, resume(task, journal, rid as u64, tracer, layers)));
    }
    let secs = t0.elapsed().as_secs_f64();
    for (task, artifact) in resumed {
        if refs.get(task) != Some(&artifact) {
            return Err(format!(
                "task {}: resumed artifact {artifact} differs from the reference",
                task.label()
            ));
        }
    }
    Ok(secs)
}

pub fn run_apps(ctx: &Ctx, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let off = Tracer::new(false);
    let unused = Layers::default();
    let pass = run_pass(ctx.seed, seconds, &off, &unused);
    let rss = proc_hwm_mb("self").unwrap_or(0.0);
    let refs = check_apps(&pass, ctx.plant)?;
    let setups = (0..SETUP_REPEATS)
        .map(|_| resume_all(&pass, &refs, &off, &unused))
        .collect::<Result<Vec<f64>, String>>()?;
    let lat: Vec<f64> = pass.latencies.iter().map(|s| s * 1e3).collect();
    let n = lat.len();
    out.attempted += n;
    out.push(
        "latency_p50_ms",
        percentile(&lat, 0.50),
        "ms",
        format!("p50 of {n} tasks"),
    );
    out.push(
        "latency_p99_ms",
        blocked_percentile(&lat, 0.99, P99_BLOCK),
        "ms",
        format!("median p99 of {P99_BLOCK}-task blocks, {n} tasks"),
    );
    out.push(
        "throughput_jobs_s",
        n as f64 / pass.wall,
        "1/s",
        format!("{n} tasks in {:.3} s", pass.wall),
    );
    out.push(
        "cpu_ms_per_job",
        pass.cpu * 1e3 / n.max(1) as f64,
        "ms",
        format!("caller user+sys {:.2} s over {n} tasks", pass.cpu),
    );
    out.push("rss_peak_mb", rss, "MB", "caller VmHWM".into());
    out.push(
        "setup_s",
        median(&setups),
        "s",
        format!(
            "median of {SETUP_REPEATS} parse+resume passes over {} distinct journals",
            pass.runs.len()
        ),
    );
    Ok(())
}

/// A traced apps pass plus one traced resume of every journal.
pub fn apps_traced(
    ctx: &Ctx,
    seconds: f64,
    tracer: &Tracer,
    layers: &Layers,
) -> Result<AppsPass, String> {
    let pass = run_pass(ctx.seed, seconds, tracer, layers);
    let refs = check_apps(&pass, ctx.plant)?;
    resume_all(&pass, &refs, tracer, layers)?;
    Ok(pass)
}
