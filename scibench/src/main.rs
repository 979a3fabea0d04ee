//! `scibench` — the repository's benchmark: `scid-server` and the three
//! sciduction applications (GameTime, OGIS, switching-logic synthesis),
//! end to end and per layer. See `scibench/README.md` for the workloads,
//! the metrics, and the layer → end-to-end map.
//!
//! ```text
//! cargo run --release --quiet --manifest-path scibench/Cargo.toml -- \
//!     --workload served_unique --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any output that does
//! not match a direct library call exits non-zero and prints no numbers.

mod apps;
mod gen;
mod metrics;
mod refs;
mod served;
mod stats;
mod trace;

use apps::{apps_traced, check_apps, run_apps};
use metrics::{reduce, sample_key, Layers, END_TO_END, PER_LAYER, SELF_TIME_LAYERS};
use sciduction::json::{self, Value};
use served::{latencies_ms, run_served, served_session, served_traced, ServerSetup};
use stats::{median, percentile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Every workload the benchmark can run.
pub const WORKLOADS: &[&str] = &[
    "served_unique",
    "served_repeat",
    "served_isolated",
    "apps_journaled",
];

/// The workloads `BENCHMARK.json` lists, in its order. `served_repeat`
/// and `served_isolated` run on request but are left out: on a shared
/// 2-core host their run-to-run spread (a sub-millisecond p99; process
/// spawn per job) exceeds every bound a regression gate can use. See
/// README, "Workloads".
pub const BENCHMARKED: &[&str] = &["served_unique", "apps_journaled"];

/// Environment knobs the library reads, and what the benchmark pins
/// them to (`None` = removed), so a developer's shell cannot change a
/// workload. Children inherit the pinned environment.
const PINNED_ENV: &[(&str, Option<&str>)] = &[
    ("SCIDUCTION_THREADS", Some("1")),
    ("SCIDUCTION_BUDGET", None),
    ("SCIDUCTION_FAULT_SEED", None),
    ("SCIDUCTION_RETRIES", None),
    ("SCIDUCTION_SOAK", None),
];

/// Set-up is measured this many times per run; the median is reported.
pub const SETUP_REPEATS: usize = 3;

/// A run that has not finished by then kills its children and fails.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// Requests per block of the tail-latency estimate ([`blocked_percentile`]):
/// each block's p99 has ten samples beyond it.
pub const P99_BLOCK: usize = 1000;

/// Length of each complementary traced session (see README, "Traced run").
const COMPLEMENT_SECONDS: f64 = 1.0;

const USAGE: &str = "\
usage: scibench --workload NAME --seed N --seconds S --trace 0|1 [--plant-wrong-expected]
       scibench --spread RESULT.json...

workloads: served_unique, served_repeat, served_isolated, apps_journaled
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
--plant-wrong-expected corrupts one expected answer (negative control:
the run must then fail). --spread reads result files (.scibench/out/) and
prints, per workload and metric, the median and the quartile spread
(Q3 - Q1) / median of the runs.";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plant = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or("--seconds: a number in (0, 120]")?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                })
            }
            "--plant-wrong-expected" => plant = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        plant,
    })
}

/// User + system CPU seconds of `/proc/<pid>` and its reaped children.
pub fn proc_cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14–17 of proc(5) (utime, stime, cutime, cstime), in clock
    // ticks of 1/100 s (USER_HZ on Linux).
    let ticks: u64 = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<u64>().ok())
        .sum::<Option<u64>>()?;
    Some(ticks as f64 / 100.0)
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, MB.
pub fn proc_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the real `scid-server` binary from the repository's own
/// workspace and returns its path.
fn build_server(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "sciduction-server"])
        .args(["--bin", "scid-server", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building scid-server failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("scid-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no scid-server binary at {}", bin.display()))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine block every result records.
fn machine_block(args: &Args, root: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let server = if args.workload.starts_with("served") {
        ServerSetup::of(&args.workload).describe()
    } else {
        "none (library only, one caller)".into()
    };
    json::obj(vec![
        ("nproc", Value::Int(nproc as i64)),
        (
            "profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_rev", Value::Str(git)),
        ("rustc", Value::Str(command_line("rustc", &["--version"]))),
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::Int(args.seed as i64)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("server_config", Value::Str(server)),
        ("client_connections", Value::Int(served::CONNS as i64)),
        (
            "pinned_env",
            Value::Str(
                PINNED_ENV
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.unwrap_or("<unset>")))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        ),
    ])
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// (name, value, unit, note on how it was measured).
    pub metrics: Vec<(String, f64, String, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &str, note: String) {
        self.metrics
            .push((name.to_string(), value, unit.to_string(), note));
    }
}

pub struct Ctx {
    pub seed: u64,
    pub plant: bool,
    pub server_bin: PathBuf,
    pub scratch: PathBuf,
}

/// The workloads whose short traced sessions fill in the layers a
/// traced run's own workload never reaches, in the order they are tried.
fn complements(workload: &str) -> &'static [&'static str] {
    match workload {
        "served_repeat" => &["served_unique", "apps_journaled"],
        "apps_journaled" => &["served_unique", "served_repeat"],
        _ => &["served_repeat", "apps_journaled"],
    }
}

fn run_traced(ctx: &Ctx, workload: &str, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let half = seconds / 2.0;
    let off = Tracer::new(false);
    let unused = Layers::default();
    let tracer = Tracer::new(true);
    let own = Layers::default();
    // Untraced then traced, same inputs: the p50 difference is the
    // tracing overhead.
    let (untraced_p50, traced_p50) = if workload == "apps_journaled" {
        let u = apps::run_pass(ctx.seed, half, &off, &unused);
        check_apps(&u, ctx.plant)?;
        let t = apps_traced(ctx, half, &tracer, &own)?;
        out.attempted += u.latencies.len() + t.latencies.len();
        (percentile(&u.latencies, 0.5), percentile(&t.latencies, 0.5))
    } else {
        let u = served_session(ctx, workload, half, "untraced", None, &off, &unused)?;
        let t = served_traced(ctx, workload, half, "traced", &tracer, &own)?;
        out.attempted += u.replies.len() + t.replies.len();
        out.failed += u.checked.failed.len() + t.checked.failed.len();
        (
            percentile(&latencies_ms(&u.replies, &u.checked), 0.5),
            percentile(&latencies_ms(&t.replies, &t.checked), 0.5),
        )
    };
    own.add("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);

    let missing = |sets: &[&Layers]| {
        PER_LAYER.iter().any(|&(name, _)| {
            !name.starts_with("trace.") && !sets.iter().any(|l| l.has(sample_key(name).0))
        })
    };
    let mut fills: Vec<(&str, Layers)> = Vec::new();
    for &other in complements(workload) {
        let sets: Vec<&Layers> = std::iter::once(&own)
            .chain(fills.iter().map(|f| &f.1))
            .collect();
        if !missing(&sets) {
            break;
        }
        let layers = Layers::default();
        if other == "apps_journaled" {
            let p = apps_traced(ctx, COMPLEMENT_SECONDS, &tracer, &layers)?;
            out.attempted += p.latencies.len();
        } else {
            let s = served_traced(ctx, other, COMPLEMENT_SECONDS, other, &tracer, &layers)?;
            out.attempted += s.replies.len();
            out.failed += s.checked.failed.len();
        }
        fills.push((other, layers));
    }

    let spans = tracer.spans();
    let self_time = trace::self_time_by_layer(&spans);
    for layer in SELF_TIME_LAYERS {
        let count = spans.iter().filter(|s| s.layer() == *layer).count();
        if count > 0 {
            let key = PER_LAYER
                .iter()
                .map(|m| m.0)
                .find(|name| name.strip_prefix("trace.self_ms.") == Some(layer))
                .expect("every self-time layer has a metric");
            own.add(
                key,
                self_time.get(layer).copied().unwrap_or(0.0) * 1e3 / count as f64,
            );
        }
    }
    let out_dir = ctx
        .scratch
        .parent()
        .expect("scratch has a parent")
        .join("out");
    let spans_path = out_dir.join(format!("{workload}-seed{}.spans.jsonl", ctx.seed));
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write spans: {e}"))?;

    for &(name, unit) in PER_LAYER {
        let (key, how) = sample_key(name);
        let (source, samples) = if own.has(key) {
            (workload, own.get(key))
        } else if let Some((w, l)) = fills.iter().find(|(_, l)| l.has(key)) {
            (*w, l.get(key))
        } else {
            ("not reached", Vec::new())
        };
        out.push(
            name,
            reduce(&samples, how),
            unit,
            format!("{} sample(s) from {source}", samples.len()),
        );
    }
    Ok(())
}

fn run(args: &Args, server_bin: PathBuf) -> Result<Outcome, String> {
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".scibench")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let ctx = Ctx {
        seed: args.seed,
        plant: args.plant,
        server_bin,
        scratch: scratch.clone(),
    };
    let mut out = Outcome::default();
    let result = match (args.trace, args.workload.as_str()) {
        (true, w) => run_traced(&ctx, w, args.seconds, &mut out),
        (false, "apps_journaled") => run_apps(&ctx, args.seconds, &mut out),
        (false, w) => run_served(&ctx, w, args.seconds, &mut out),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|()| out)
}

/// `--spread`: run-to-run spread of every metric across result files,
/// the way the acceptance rule judges it.
fn spread(files: &[String]) -> ExitCode {
    let mut by_metric: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for f in files {
        let parsed = std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t).map_err(|e| e.to_string()));
        let v = match parsed {
            Ok(v) => v,
            Err(e) => {
                eprintln!("scibench: {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let workload = v
            .get("machine")
            .and_then(|m| m.get("workload"))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_obj)
            .into_iter()
            .flatten()
        {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                by_metric
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    for ((workload, name), values) in &by_metric {
        let med = median(values);
        let iqr = stats::quartiles(values).map_or(f64::NAN, |(q1, q3)| q3 - q1);
        println!(
            "{workload:<16} {name:<36} n={:<3} median={med:<14.6} spread={:.4}",
            values.len(),
            iqr / med
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spread") {
        return spread(&argv[1..]);
    }
    for (key, value) in PINNED_ENV {
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("scibench sits in the repository root")
        .to_path_buf();
    let server_bin = match build_server(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("scibench: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The deadline starts once the build is done (a first build in a
    // fresh checkout may take minutes). The watchdog is never joined: it
    // either finds the run over or ends the process itself.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        for pid in served::CHILDREN.lock().unwrap().iter() {
            let _ = Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
        }
        eprintln!("scibench: run exceeded {RUN_DEADLINE:?}; aborted");
        std::process::exit(3);
    });
    let started = Instant::now();
    let out = match run(&args, server_bin) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("scibench: FAILED: {e}");
            return ExitCode::FAILURE;
        }
    };

    let machine = machine_block(&args, &root);
    println!(
        "scibench {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine {machine}");
    for (name, value, unit, note) in &out.metrics {
        println!("  {name:<36} {value:>14.4} {unit:<6} {note}");
    }
    let error_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<36} {error_frac:>14.4} {:<6} {} failed of {} attempted",
        "error_frac", "frac", out.failed, out.attempted
    );
    println!("  run wall time {:.1} s", started.elapsed().as_secs_f64());

    let metric_values: Vec<(String, Value)> = out
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            (
                name.clone(),
                json::obj(vec![
                    ("value", Value::Float(*value)),
                    ("unit", Value::Str(unit.clone())),
                ]),
            )
        })
        .collect();
    let wanted: BTreeSet<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let got: BTreeSet<&str> = out.metrics.iter().map(|m| m.0.as_str()).collect();
    if wanted != got
        || out
            .metrics
            .iter()
            .any(|m| !m.1.is_finite() || !metrics::valid_name(&m.0))
    {
        eprintln!("scibench: FAILED: metric set incomplete or not finite: {got:?}");
        return ExitCode::FAILURE;
    }
    let detail = json::obj(vec![
        ("machine", machine),
        ("error_frac", Value::Float(error_frac)),
        (
            "notes",
            Value::Obj(
                out.metrics
                    .iter()
                    .map(|(n, _, _, note)| (n.clone(), Value::Str(note.clone())))
                    .collect(),
            ),
        ),
        ("metrics", Value::Obj(metric_values.clone())),
    ]);
    let out_dir = Path::new(".scibench").join("out");
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&file, format!("{detail}\n")))
    {
        eprintln!("scibench: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    let result = json::obj(vec![
        ("correct", Value::Bool(true)),
        ("attempted", Value::Int(out.attempted as i64)),
        ("failed", Value::Int(out.failed as i64)),
        ("metrics", Value::Obj(metric_values)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
