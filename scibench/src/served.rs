//! The served workloads: the real `scid-server` binary as a child
//! process, driven closed-loop over TCP, with every reply checked against
//! a direct library call outside the timed region.

use crate::gen::{repeat_job, request_line, unique_job, ServedJob};
use crate::metrics::Layers;
use crate::refs::{self, Expected};
use crate::stats::{blocked_percentile, median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome, P99_BLOCK, SETUP_REPEATS};
use sciduction::json::{self, Value};
use sciduction::persist::DiskCacheTier;
use sciduction::{Budget, BudgetReceipt};
use sciduction_analysis::Report;
use sciduction_proof::{check_certificate, check_drat, parse_dimacs, Proof, SmtCertificate};
use sciduction_server::protocol::{parse_request, render_done};
use sciduction_server::shard_exec::{run_sharded, ShardIsolation, SHARD_WORKER_FLAG};
use sciduction_server::{audit, journal, Engine, JobSpec, Wal, WalRecord};
use sciduction_smt::{attach_disk_tier, SmtQueryCache};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop client connections (at most `nproc` = 2).
pub const CONNS: usize = 2;

/// How a served workload's server is configured.
#[derive(Clone, Copy, Debug)]
pub struct ServerSetup {
    /// `--workers`.
    pub workers: usize,
    /// `--shards` under `--isolation process`; `None` is in-process.
    pub shards: Option<usize>,
}

impl ServerSetup {
    /// The configuration of a served workload: workers × per-job
    /// parallelism (threads 1, or `shards` processes) never exceeds 2.
    pub fn of(workload: &str) -> ServerSetup {
        match workload {
            "served_isolated" => ServerSetup {
                workers: 1,
                shards: Some(2),
            },
            _ => ServerSetup {
                workers: 2,
                shards: None,
            },
        }
    }

    /// As recorded in the machine block.
    pub fn describe(&self) -> String {
        match self.shards {
            Some(s) => format!(
                "workers={} isolation=process shards={s} threads=1",
                self.workers
            ),
            None => format!("workers={} isolation=inproc threads=1", self.workers),
        }
    }
}

/// The job generator of a served workload.
fn job_at(workload: &str, seed: u64, index: u64) -> ServedJob {
    match workload {
        "served_repeat" => repeat_job(seed, index),
        _ => unique_job(seed, index),
    }
}

/// Child processes to kill if the run overruns its deadline.
pub static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// A running `scid-server` child. Dropping it kills and reaps it.
pub struct ServerProc {
    child: Child,
    /// The address it accepts on.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server on `state` and `proofs` and waits until it
    /// accepts a connection; returns it with the seconds that took.
    pub fn spawn(
        bin: &Path,
        setup: ServerSetup,
        state: &Path,
        proofs: &Path,
    ) -> Result<(ServerProc, f64), String> {
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers"])
            .arg(setup.workers.to_string())
            .arg("--state-dir")
            .arg(state)
            .arg("--proofs-dir")
            .arg(proofs);
        if let Some(shards) = setup.shards {
            cmd.args(["--isolation", "process", "--shards"])
                .arg(shards.to_string());
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        CHILDREN.lock().unwrap().push(child.id());
        let mut banner = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut banner));
        let mut proc = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        if !matches!(read, Some(Ok(n)) if n > 0) {
            let status = proc.child.wait().map_err(|e| e.to_string())?;
            return Err(format!("scid-server exited before listening: {status}"));
        }
        proc.addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected banner {banner:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match TcpStream::connect(proc.addr) {
                Ok(_) => break,
                Err(e) if Instant::now() > deadline => return Err(format!("never accepted: {e}")),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((proc, t0.elapsed().as_secs_f64()))
    }

    /// User + system CPU of the server and its reaped children, seconds.
    pub fn cpu_seconds(&self) -> f64 {
        crate::proc_cpu_seconds(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Peak resident set (VmHWM), MB.
    pub fn rss_peak_mb(&self) -> f64 {
        crate::proc_hwm_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        CHILDREN.lock().unwrap().retain(|&p| p != self.child.id());
    }
}

/// One request's outcome as the client saw it.
pub struct Reply {
    /// Stream index (also the request id).
    pub index: u64,
    /// Send to parsed reply, seconds.
    pub latency: f64,
    /// When the reply arrived, seconds since the timed region began.
    pub done_at: f64,
    /// The reply, or why there was none (timeout, I/O error).
    pub resp: Result<Value, String>,
}

/// Drives `addr` closed-loop from [`CONNS`] connections for `seconds`,
/// drawing jobs from the shared index counter. Returns every reply and
/// the wall time until the last reply.
fn drive(
    addr: SocketAddr,
    seconds: f64,
    gen: &(dyn Fn(u64) -> ServedJob + Sync),
    replay: Option<&Replayer>,
) -> (Vec<Reply>, f64) {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let per_conn: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let next = &next;
                scope.spawn(move || {
                    let mut replies = Vec::new();
                    let stream = match TcpStream::connect(addr) {
                        Ok(s) => s,
                        Err(e) => {
                            replies.push(Reply {
                                index: u64::MAX,
                                latency: 0.0,
                                done_at: 0.0,
                                resp: Err(format!("connect: {e}")),
                            });
                            return replies;
                        }
                    };
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
                    let mut writer = stream.try_clone().expect("clone socket");
                    let mut reader = BufReader::new(stream);
                    let mut buf = String::new();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let job = gen(index);
                        let mut line = request_line(index, conn, &job.job);
                        line.push('\n');
                        buf.clear();
                        let t = Instant::now();
                        let got = writer
                            .write_all(line.as_bytes())
                            .and_then(|()| reader.read_line(&mut buf))
                            .map_err(|e| format!("request {index}: {e}"))
                            .and_then(|n| match n {
                                0 => Err(format!("request {index}: connection closed")),
                                _ => json::parse(buf.trim_end())
                                    .map_err(|e| format!("request {index}: bad reply: {e}")),
                            });
                        let latency = t.elapsed().as_secs_f64();
                        let failed = got.is_err();
                        if let (Some(r), Ok(resp)) = (replay, &got) {
                            r.replay(index, &job, line.trim_end().as_bytes(), resp, latency);
                        }
                        replies.push(Reply {
                            index,
                            latency,
                            done_at: t0.elapsed().as_secs_f64(),
                            resp: got,
                        });
                        if failed {
                            break;
                        }
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut replies: Vec<Reply> = per_conn.into_iter().flatten().collect();
    replies.sort_by_key(|r| r.index);
    (replies, wall)
}

/// Sends a `stats` job and returns its `detail` object.
fn fetch_stats(addr: SocketAddr) -> Result<Value, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(b"{\"id\":0,\"tenant\":\"bench\",\"job\":{\"kind\":\"stats\"}}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    json::parse(line.trim_end())
        .map_err(|e| e.to_string())?
        .get("detail")
        .cloned()
        .ok_or_else(|| format!("stats reply without detail: {line}"))
}

/// The result of diffing a session's replies against the library.
#[derive(Default)]
pub struct Checked {
    /// Indices of requests that failed: error frames, timeouts, and
    /// `unknown: …` where a definite verdict was expected.
    pub failed: std::collections::BTreeSet<u64>,
    /// Replies that contradict the library, and certificates that do not
    /// check: any of these fails the run.
    pub mismatches: Vec<String>,
}

/// The expected answer of every distinct job among `replies`, by direct
/// library call on [`CONNS`] threads (the server is stopped by then).
fn expected_answers(
    replies: &[Reply],
    gen: &(dyn Fn(u64) -> ServedJob + Sync),
) -> HashMap<String, Expected> {
    let mut jobs: HashMap<String, Value> = HashMap::new();
    for r in replies.iter().filter(|r| r.resp.is_ok()) {
        let job = gen(r.index).job;
        jobs.entry(job.to_string()).or_insert(job);
    }
    let jobs: Vec<(String, Value)> = jobs.into_iter().collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|k| {
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .skip(k)
                        .step_by(CONNS)
                        .map(|(key, job)| (key.clone(), refs::expected(job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Diffs every reply against a direct library call and re-checks every
/// certificate a certifying job wrote. Runs outside the timed region.
/// `plant` corrupts the first expected verdict (the negative control).
fn verify(
    replies: &[Reply],
    gen: &(dyn Fn(u64) -> ServedJob + Sync),
    plant: bool,
    tracer: &Tracer,
    layers: &Layers,
) -> Checked {
    let mut out = Checked::default();
    let expected = expected_answers(replies, gen);
    let mut checked_certs: HashMap<String, Result<(), String>> = HashMap::new();
    for (n, reply) in replies.iter().enumerate() {
        let resp = match &reply.resp {
            Ok(v) => v,
            Err(_) => {
                out.failed.insert(reply.index);
                continue;
            }
        };
        let job = gen(reply.index);
        let mut want = expected[&job.job.to_string()].clone();
        if plant && n == 0 {
            want.verdict = format!("planted-wrong-{}", want.verdict);
        }
        let got = match refs::served(resp) {
            Ok(g) => g,
            Err(_) => {
                out.failed.insert(reply.index);
                continue;
            }
        };
        if got.verdict.starts_with("unknown:") && !want.verdict.starts_with("unknown:") {
            out.failed.insert(reply.index);
            continue;
        }
        if got != want {
            out.mismatches.push(format!(
                "request {} ({}): served {got:?}, library says {want:?}",
                reply.index, job.family
            ));
            continue;
        }
        if job.family == "cert" {
            let cert = resp.get("certificate").cloned().unwrap_or(Value::Null);
            if cert == Value::Null {
                out.mismatches.push(format!(
                    "request {}: certifying job served no certificate",
                    reply.index
                ));
                continue;
            }
            // Untraced runs check each distinct certificate once; the
            // traced run times every check.
            let result = read_certificate(&cert).and_then(|text| match checked_certs.get(&text) {
                Some(done) if !tracer.enabled() => done.clone(),
                _ => {
                    let r = check_cert(&text, reply.index, tracer, layers);
                    checked_certs.insert(text, r.clone());
                    r
                }
            });
            if let Err(e) = result {
                out.mismatches.push(format!(
                    "request {}: certificate rejected: {e}",
                    reply.index
                ));
            }
        }
    }
    out
}

/// A served certificate's files as one key: `scicert\n<text>` or
/// `drat\n<cnf>\0<proof>`.
fn read_certificate(cert: &Value) -> Result<String, String> {
    let read = |field: &str| -> Result<String, String> {
        let path = cert
            .get(field)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("certificate without {field:?}: {cert}"))?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    match cert.get("kind").and_then(Value::as_str) {
        Some("scicert") => Ok(format!("scicert\n{}", read("path")?)),
        Some("drat") => Ok(format!("drat\n{}\0{}", read("cnf")?, read("proof")?)),
        other => Err(format!("unknown certificate kind {other:?}")),
    }
}

fn check_cert(text: &str, rid: u64, tracer: &Tracer, layers: &Layers) -> Result<(), String> {
    let (result, secs) = tracer.span("proof.check", rid, None, || {
        if let Some(body) = text.strip_prefix("scicert\n") {
            let cert = SmtCertificate::parse(body).map_err(|e| format!("{e:?}"))?;
            check_certificate(&cert).map_err(|e| format!("{e:?}"))
        } else {
            let body = text.strip_prefix("drat\n").unwrap_or(text);
            let (cnf, proof) = body.split_once('\0').unwrap_or((body, ""));
            let cnf = parse_dimacs(cnf).map_err(|e| format!("{e:?}"))?;
            let proof = Proof::parse_drat(proof).map_err(|e| format!("{e:?}"))?;
            check_drat(&cnf, &proof).map_err(|e| format!("{e:?}"))
        }
    });
    let outcome = result?;
    if tracer.enabled() {
        layers.add("proof.check_ms", secs * 1e3);
        layers.add("proof.steps", outcome.steps as f64);
        layers.add("proof.cert_bytes", text.len() as f64);
    }
    Ok(())
}

/// The traced run's in-process replay of each served request through
/// the layers' public functions, from the benchmark's side.
pub struct Replayer<'a> {
    tracer: &'a Tracer,
    layers: &'a Layers,
    engine: Engine,
    layer_cache: Arc<SmtQueryCache>,
    wal: Wal,
    seq: AtomicU64,
    shard: ShardIsolation,
    server_bin: PathBuf,
    shard_every: u64,
    /// Replays whose answer disagreed with the served one.
    pub mismatches: Mutex<Vec<String>>,
}

impl<'a> Replayer<'a> {
    /// A replayer with its own engine, query cache and scratch WAL under
    /// `scratch`. Every `shard_every`-th request also runs as a shard
    /// race of `server_bin --shard-worker` processes.
    pub fn new(
        tracer: &'a Tracer,
        layers: &'a Layers,
        scratch: &Path,
        server_bin: &Path,
        shard_every: u64,
    ) -> Result<Self, String> {
        std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
        let (wal, _) = Wal::open(scratch.join("replay.wal")).map_err(|e| e.to_string())?;
        Ok(Replayer {
            tracer,
            layers,
            engine: Engine::new(None),
            layer_cache: Arc::new(SmtQueryCache::new()),
            wal,
            seq: AtomicU64::new(0),
            shard: ShardIsolation {
                worker: Some((
                    server_bin.to_path_buf(),
                    vec![SHARD_WORKER_FLAG.to_string()],
                )),
                ..ShardIsolation::default()
            },
            server_bin: server_bin.to_path_buf(),
            shard_every,
            mismatches: Mutex::new(Vec::new()),
        })
    }

    fn mismatch(&self, msg: String) {
        self.mismatches.lock().unwrap().push(msg);
    }

    /// Replays request `i` (`bytes` as sent, `resp` as served).
    pub fn replay(&self, i: u64, job: &ServedJob, bytes: &[u8], resp: &Value, latency: f64) {
        let (t, l) = (self.tracer, self.layers);
        let slot = t.reserve("bench.replay", i);
        let p = Some(slot);
        let ((req, spec), parse) = t.span("server.parse", i, p, || {
            let req = parse_request(bytes).expect("generated requests parse");
            let spec = JobSpec::from_json(&req.job).expect("generated jobs parse");
            (req, spec)
        });
        l.add("server.parse_us", parse * 1e6);
        let tag = format!("replay-{i}");
        let (out, exec) = t.span("core.execute", i, p, || self.engine.execute(&tag, &spec));
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                self.mismatch(format!("request {i}: engine replay failed: {e}"));
                t.finish(slot);
                return;
            }
        };
        l.add("server.front_door_ms", (latency - exec) * 1e3);
        if resp.get("verdict").and_then(Value::as_str) != Some(out.verdict.as_str()) {
            self.mismatch(format!(
                "request {i}: served {:?}, engine replay says {:?}",
                resp.get("verdict"),
                out.verdict
            ));
        }
        let (_, render) = t.span("server.render", i, p, || {
            render_done(
                req.id,
                &out.verdict,
                &out.receipt,
                out.certificate.as_ref(),
                &out.detail,
            )
        });
        l.add("server.render_us", render * 1e6);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let receipt = out.receipt;
        let (_, wal) = t.span("server.wal_append", i, p, || {
            self.wal.record(&WalRecord::Admit {
                seq,
                tenant: req.tenant.clone(),
                id: req.id,
                spec: spec.clone(),
            });
            self.wal.record(&WalRecord::Settle {
                seq,
                verdict: out.verdict.clone(),
                receipt,
                settled: true,
            });
            self.wal.record(&WalRecord::Respond { seq });
        });
        l.add("server.wal_append_us", wal * 1e6);
        self.layer_calls(i, job, p);
        if i.is_multiple_of(self.shard_every) {
            self.shard_calls(i, &tag, &spec, &out.verdict, exec, p);
        }
        t.finish(slot);
    }

    /// The same job through the SMT, SAT and OGIS entry points directly.
    fn layer_calls(&self, i: u64, job: &ServedJob, p: Option<usize>) {
        let (t, l) = (self.tracer, self.layers);
        let j = &job.job;
        let name = j.get("name").and_then(Value::as_str).unwrap_or("");
        let proof = j.get("proof").and_then(Value::as_bool).unwrap_or(false);
        match j.get("kind").and_then(Value::as_str).unwrap_or("") {
            "fig" if name != "fig10_mode_exclusion" => {
                let cache = (!proof).then_some(&self.layer_cache);
                let (mut solver, build) =
                    t.span("smt.build", i, p, || refs::fig_solver(name, proof, cache));
                l.add("smt.build_us", build * 1e6);
                let hits = self.layer_cache.stats().hits;
                let mut open = t.begin("smt.check", i, p);
                solver.check_bounded(&Budget::UNLIMITED);
                let hit = self.layer_cache.stats().hits > hits;
                if hit {
                    open.name = "smt.hit";
                }
                let secs = t.end(open);
                if hit {
                    l.add("smt.hit_us", secs * 1e6);
                } else {
                    l.add("smt.check_ms", secs * 1e3);
                }
            }
            "fig" | "sat" => {
                let cnf = if name == "fig10_mode_exclusion" {
                    sciduction_server::jobs::mode_exclusion(7, 6)
                } else {
                    refs::job_cnf(j)
                };
                let (out, secs) = t.span("sat.solve", i, p, || refs::solve_sat(&cnf, proof));
                let (mut conflicts, mut decisions, mut props) = (0u64, 0u64, 0u64);
                for s in out.solvers.iter().flatten() {
                    let st = s.stats();
                    conflicts += st.conflicts;
                    decisions += st.decisions;
                    props += st.propagations;
                }
                l.add("sat.solve_ms", secs * 1e3);
                l.add("sat.conflicts", conflicts as f64);
                l.add("sat.decisions", decisions as f64);
                l.add("sat.propagations", props as f64);
                if secs > 0.0 {
                    l.add("sat.props_per_ms", props as f64 / (secs * 1e3));
                }
            }
            "synth" => {
                let ((_, stats), secs) = t.span("ogis.synth", i, p, || refs::synth_portfolio(j));
                l.add("ogis.synth_ms", secs * 1e3);
                l.add("ogis.smt_checks", stats.smt_checks as f64);
                l.add("ogis.oracle_queries", stats.oracle_queries as f64);
            }
            _ => {}
        }
    }

    /// Spawn cost of the worker binary, and the job as a shard race.
    fn shard_calls(
        &self,
        i: u64,
        tag: &str,
        spec: &JobSpec,
        verdict: &str,
        exec: f64,
        p: Option<usize>,
    ) {
        let (t, l) = (self.tracer, self.layers);
        let (_, spawn) = t.span("core.shard_spawn", i, p, || {
            Command::new(&self.server_bin)
                .arg(SHARD_WORKER_FLAG)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
        });
        l.add("core.shard_spawn_ms", spawn * 1e3);
        let (out, run) = t.span("core.shard_run", i, p, || {
            run_sharded(&format!("{tag}-shard"), spec, &self.shard, None)
        });
        l.add("core.shard_run_ms", run * 1e3);
        l.add("core.shard_overhead_ms", (run - exec) * 1e3);
        let degraded = match &out {
            Ok(o) if o.verdict.starts_with("unknown:") => true,
            Ok(o) => {
                if o.verdict != verdict {
                    self.mismatch(format!(
                        "request {i}: shard race says {:?}, engine says {verdict:?}",
                        o.verdict
                    ));
                }
                false
            }
            Err(_) => true,
        };
        l.add("core.shard_degraded", f64::from(u8::from(degraded)));
    }
}

/// Replays recovery from outside on a stopped server's state dir, one
/// span per phase, exactly as `Server::start` runs it.
fn recover_split(state: &Path, tracer: &Tracer, layers: &Layers) -> Result<(), String> {
    let mut report = Report::new();
    let (records, decode) = tracer.span("server.recover.decode", 0, None, || {
        let (_wal, rec) = Wal::open(state.join("jobs.wal")).map_err(|e| e.to_string())?;
        Ok::<_, String>(journal::decode_records(&rec.records, "bench", &mut report))
    });
    let records = records?;
    let (replayed, replay) = tracer.span("server.recover.replay", 0, None, || {
        journal::replay(&records, Budget::UNLIMITED, "bench", &mut report)
    });
    let ((), audit_s) = tracer.span("server.recover.audit", 0, None, || {
        audit::audit_recovered_transcript(&replayed.entries, "bench", &mut report);
        let accounts: HashMap<String, BudgetReceipt> = replayed
            .accounts
            .iter()
            .map(|(t, m)| (t.clone(), m.receipt()))
            .collect();
        audit::audit_admission_accounts(&replayed.entries, &accounts, "bench", &mut report);
    });
    let ((), srv002) = tracer.span("server.recover.srv002", 0, None, || {
        audit::audit_served_verdicts(&replayed.entries, "bench", &mut report);
    });
    let (cache, cache_s) = tracer.span("server.recover.cache", 0, None, || {
        let generation = sciduction_server::server::CACHE_GENERATION;
        let (tier, rec) =
            DiskCacheTier::open(state.join("cache.log"), generation).map_err(|e| e.to_string())?;
        attach_disk_tier(&Arc::new(SmtQueryCache::new()), tier, &rec.entries);
        Ok::<_, String>(())
    });
    cache?;
    if report.has_errors() {
        return Err(format!(
            "recovery audit of the run's state dir failed: {report}"
        ));
    }
    layers.add("server.recover.decode_ms", decode * 1e3);
    layers.add("server.recover.replay_ms", replay * 1e3);
    layers.add("server.recover.audit_ms", audit_s * 1e3);
    layers.add("server.recover.srv002_ms", srv002 * 1e3);
    layers.add("server.recover.cache_ms", cache_s * 1e3);
    Ok(())
}

/// Latencies in ms; a failed request counts as missing every limit.
pub fn latencies_ms(replies: &[Reply], checked: &Checked) -> Vec<f64> {
    replies
        .iter()
        .map(|r| {
            if checked.failed.contains(&r.index) {
                f64::INFINITY
            } else {
                r.latency * 1e3
            }
        })
        .collect()
}

pub struct ServedSession {
    pub replies: Vec<Reply>,
    pub wall: f64,
    pub cpu: f64,
    pub rss_mb: f64,
    pub stats: Value,
    pub state: PathBuf,
    pub proofs: PathBuf,
    pub checked: Checked,
}

impl ServedSession {
    pub fn completed(&self) -> usize {
        self.replies.len() - self.checked.failed.len()
    }
}

/// One served session: a fresh server, a closed loop for `seconds`, a
/// `stats` read, the server stopped, then every reply checked.
pub fn served_session(
    ctx: &Ctx,
    workload: &str,
    seconds: f64,
    dir: &str,
    replay: Option<&Replayer>,
    tracer: &Tracer,
    layers: &Layers,
) -> Result<ServedSession, String> {
    let base = ctx.scratch.join(dir);
    let (state, proofs) = (base.join("state"), base.join("proofs"));
    for d in [&state, &proofs] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let setup = ServerSetup::of(workload);
    let (server, _) = ServerProc::spawn(&ctx.server_bin, setup, &state, &proofs)?;
    let seed = ctx.seed;
    let gen = move |i: u64| job_at(workload, seed, i);
    let cpu0 = server.cpu_seconds();
    let (replies, wall) = drive(server.addr, seconds, &gen, replay);
    let cpu = server.cpu_seconds() - cpu0;
    let rss_mb = server.rss_peak_mb();
    let stats = fetch_stats(server.addr)?;
    // Let the last respond records reach the WAL before the kill.
    std::thread::sleep(Duration::from_millis(100));
    drop(server);
    let mut checked = verify(&replies, &gen, ctx.plant, tracer, layers);
    if let Some(r) = replay {
        checked
            .mismatches
            .extend(r.mismatches.lock().unwrap().drain(..));
    }
    if let Some(m) = checked.mismatches.first() {
        return Err(format!(
            "{} output mismatch(es) on {workload}; first: {m}",
            checked.mismatches.len()
        ));
    }
    Ok(ServedSession {
        replies,
        wall,
        cpu,
        rss_mb,
        stats,
        state,
        proofs,
        checked,
    })
}

pub fn run_served(
    ctx: &Ctx,
    workload: &str,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let unused = Layers::default();
    let s = served_session(ctx, workload, seconds, "run", None, &off, &unused)?;
    let lat = latencies_ms(&s.replies, &s.checked);
    let n = lat.len();
    let done = s.completed().max(1);
    out.attempted += s.replies.len();
    out.failed += s.checked.failed.len();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (server, secs) = ServerProc::spawn(
            &ctx.server_bin,
            ServerSetup::of(workload),
            &s.state,
            &s.proofs,
        )?;
        drop(server);
        setups.push(secs);
    }
    let jobs = served_count(&s.stats, "jobs_served");
    out.push(
        "latency_p50_ms",
        percentile(&lat, 0.50),
        "ms",
        format!("p50 of {n} requests"),
    );
    out.push(
        "latency_p99_ms",
        blocked_percentile(&lat, 0.99, P99_BLOCK),
        "ms",
        format!("median p99 of {P99_BLOCK}-request blocks, {n} requests"),
    );
    let mut per_second = vec![0usize; s.wall.ceil() as usize];
    for r in &s.replies {
        if let Some(slot) = per_second.get_mut(r.done_at as usize) {
            *slot += 1;
        }
    }
    out.push(
        "throughput_jobs_s",
        s.completed() as f64 / s.wall,
        "1/s",
        format!(
            "{} jobs in {:.3} s; per second {per_second:?}",
            s.completed(),
            s.wall
        ),
    );
    out.push(
        "cpu_ms_per_job",
        s.cpu * 1e3 / done as f64,
        "ms",
        format!("server user+sys {:.2} s over {done} jobs", s.cpu),
    );
    out.push("rss_peak_mb", s.rss_mb, "MB", "server VmHWM".into());
    out.push(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUP_REPEATS} restarts on a WAL of {jobs} served jobs"),
    );
    Ok(())
}

fn served_count(stats: &Value, key: &str) -> f64 {
    stats.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

/// A traced served session's counters, state sizes and recovery split.
pub fn served_traced(
    ctx: &Ctx,
    workload: &str,
    seconds: f64,
    dir: &str,
    tracer: &Tracer,
    layers: &Layers,
) -> Result<ServedSession, String> {
    let shard_every = if workload == "served_isolated" { 1 } else { 4 };
    let replayer = Replayer::new(
        tracer,
        layers,
        &ctx.scratch.join(dir).join("replay"),
        &ctx.server_bin,
        shard_every,
    )?;
    let s = served_session(ctx, workload, seconds, dir, Some(&replayer), tracer, layers)?;
    for (key, name) in [
        ("jobs_served", "server.jobs_served"),
        ("job_errors", "server.job_errors"),
        ("jobs_shed", "server.jobs_shed"),
        ("internal_errors", "server.internal_errors"),
    ] {
        layers.add(name, served_count(&s.stats, key));
    }
    let cache = s.stats.get("smt_cache");
    let hits = cache.map_or(0.0, |c| served_count(c, "hits"));
    let misses = cache.map_or(0.0, |c| served_count(c, "misses"));
    layers.add(
        "core.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    let size = |f: &str| std::fs::metadata(s.state.join(f)).map_or(0, |m| m.len()) as f64;
    layers.add(
        "server.wal_bytes_per_job",
        size("jobs.wal") / served_count(&s.stats, "jobs_served").max(1.0),
    );
    layers.add("core.cache_log_bytes", size("cache.log"));
    recover_split(&s.state, tracer, layers)?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(index: u64, body: String) -> Reply {
        Reply {
            index,
            latency: 0.001,
            done_at: 0.001,
            resp: Ok(json::parse(&body).expect("test reply parses")),
        }
    }

    fn done(index: u64, verdict: &str) -> Reply {
        reply(
            index,
            format!(r#"{{"id":{index},"ok":true,"verdict":"{verdict}","certificate":null}}"#),
        )
    }

    #[test]
    fn a_planted_wrong_expected_verdict_fails_the_check() {
        let gen = |i: u64| repeat_job(0, i);
        let truth: Vec<String> = (0..4)
            .map(|i| refs::expected(&gen(i).job).verdict)
            .collect();
        let replies: Vec<Reply> = (0..4).map(|i| done(i, &truth[i as usize])).collect();
        let (off, layers) = (Tracer::new(false), Layers::default());

        let clean = verify(&replies, &gen, false, &off, &layers);
        assert!(clean.mismatches.is_empty(), "{:?}", clean.mismatches);
        assert!(clean.failed.is_empty());

        // Negative control: one corrupted expectation must be caught.
        let planted = verify(&replies, &gen, true, &off, &layers);
        assert_eq!(planted.mismatches.len(), 1, "{:?}", planted.mismatches);
    }

    #[test]
    fn wrong_verdicts_mismatch_and_error_frames_fail() {
        let gen = |i: u64| repeat_job(0, i);
        let truth = refs::expected(&gen(0).job).verdict;
        let flipped = if truth == "sat" { "unsat" } else { "sat" };
        let replies = vec![
            done(0, flipped),
            reply(
                1,
                r#"{"id":1,"ok":false,"code":"EBUSY","message":"shed"}"#.into(),
            ),
            done(2, "unknown: deadline"),
        ];
        let (off, layers) = (Tracer::new(false), Layers::default());
        let checked = verify(&replies, &gen, false, &off, &layers);
        assert_eq!(checked.mismatches.len(), 1, "{:?}", checked.mismatches);
        assert_eq!(
            checked.failed.iter().copied().collect::<Vec<_>>(),
            vec![1, 2]
        );
    }
}
