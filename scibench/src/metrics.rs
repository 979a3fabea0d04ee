//! The metric catalogue and the per-layer sample collector.
//!
//! `END_TO_END` and `PER_LAYER` are exactly the metrics `BENCHMARK.json`
//! lists (a test holds the two in step). Layers collect raw samples under
//! a key; [`sample_key`] maps a reported metric to its key and reduction.

use crate::stats::{mean, percentile};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// End-to-end metrics of an untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_jobs_s", "1/s"),
    ("cpu_ms_per_job", "ms"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// How a per-layer metric is derived from its collected samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    /// Median of the samples.
    P50,
    /// 99th percentile of the samples.
    P99,
    /// Mean of the samples.
    Mean,
}

/// Per-layer metrics of a traced run: (name, unit). A name ending in
/// `.p50`/`.p99` reports that percentile of the samples collected under
/// the name without the suffix; any other name reports the mean of its
/// samples (per-operation counts and sizes, single values).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.parse_us.p50", "us"),
    ("server.parse_us.p99", "us"),
    ("server.render_us.p50", "us"),
    ("server.render_us.p99", "us"),
    ("server.wal_append_us.p50", "us"),
    ("server.wal_append_us.p99", "us"),
    ("server.front_door_ms.p50", "ms"),
    ("server.front_door_ms.p99", "ms"),
    ("server.jobs_served", "count"),
    ("server.job_errors", "count"),
    ("server.jobs_shed", "count"),
    ("server.internal_errors", "count"),
    ("server.wal_bytes_per_job", "bytes"),
    ("server.recover.decode_ms", "ms"),
    ("server.recover.replay_ms", "ms"),
    ("server.recover.audit_ms", "ms"),
    ("server.recover.srv002_ms", "ms"),
    ("server.recover.cache_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_log_bytes", "bytes"),
    ("core.shard_spawn_ms.p50", "ms"),
    ("core.shard_spawn_ms.p99", "ms"),
    ("core.shard_run_ms.p50", "ms"),
    ("core.shard_run_ms.p99", "ms"),
    ("core.shard_overhead_ms.p50", "ms"),
    ("core.shard_overhead_ms.p99", "ms"),
    ("core.shard_degraded", "count"),
    ("smt.build_us.p50", "us"),
    ("smt.build_us.p99", "us"),
    ("smt.check_ms.p50", "ms"),
    ("smt.check_ms.p99", "ms"),
    ("smt.hit_us.p50", "us"),
    ("smt.hit_us.p99", "us"),
    ("sat.solve_ms.p50", "ms"),
    ("sat.solve_ms.p99", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_ms", "1/ms"),
    ("proof.check_ms.p50", "ms"),
    ("proof.check_ms.p99", "ms"),
    ("proof.steps", "count"),
    ("proof.cert_bytes", "bytes"),
    ("ogis.synth_ms.p50", "ms"),
    ("ogis.synth_ms.p99", "ms"),
    ("ogis.cegis_ms.p50", "ms"),
    ("ogis.cegis_ms.p99", "ms"),
    ("ogis.smt_checks", "count"),
    ("ogis.oracle_queries", "count"),
    ("ogis.iterations", "count"),
    ("gametime.analyze_ms.p50", "ms"),
    ("gametime.analyze_ms.p99", "ms"),
    ("cfg.basis_ms.p50", "ms"),
    ("cfg.basis_ms.p99", "ms"),
    ("microarch.run_us.p50", "us"),
    ("microarch.run_us.p99", "us"),
    ("gametime.smt_queries", "count"),
    ("gametime.measurements", "count"),
    ("hybrid.synth_ms.p50", "ms"),
    ("hybrid.synth_ms.p99", "ms"),
    ("hybrid.oracle_queries", "count"),
    ("hybrid.rounds", "count"),
    ("journal.gametime.serialize_us.p50", "us"),
    ("journal.gametime.serialize_us.p99", "us"),
    ("journal.gametime.parse_us.p50", "us"),
    ("journal.gametime.parse_us.p99", "us"),
    ("journal.gametime.bytes", "bytes"),
    ("journal.gametime.resume_ms.p50", "ms"),
    ("journal.gametime.resume_ms.p99", "ms"),
    ("journal.ogis.serialize_us.p50", "us"),
    ("journal.ogis.serialize_us.p99", "us"),
    ("journal.ogis.parse_us.p50", "us"),
    ("journal.ogis.parse_us.p99", "us"),
    ("journal.ogis.bytes", "bytes"),
    ("journal.ogis.resume_ms.p50", "ms"),
    ("journal.ogis.resume_ms.p99", "ms"),
    ("journal.hybrid.serialize_us.p50", "us"),
    ("journal.hybrid.serialize_us.p99", "us"),
    ("journal.hybrid.parse_us.p50", "us"),
    ("journal.hybrid.parse_us.p99", "us"),
    ("journal.hybrid.bytes", "bytes"),
    ("journal.hybrid.resume_ms.p50", "ms"),
    ("journal.hybrid.resume_ms.p99", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.self_ms.server", "ms"),
    ("trace.self_ms.core", "ms"),
    ("trace.self_ms.smt", "ms"),
    ("trace.self_ms.sat", "ms"),
    ("trace.self_ms.proof", "ms"),
    ("trace.self_ms.ogis", "ms"),
    ("trace.self_ms.gametime", "ms"),
    ("trace.self_ms.cfg", "ms"),
    ("trace.self_ms.microarch", "ms"),
    ("trace.self_ms.hybrid", "ms"),
    ("trace.self_ms.journal", "ms"),
];

/// The sample key a per-layer metric reads and how it reduces them.
pub fn sample_key(name: &str) -> (&str, Reduce) {
    if let Some(key) = name.strip_suffix(".p50") {
        (key, Reduce::P50)
    } else if let Some(key) = name.strip_suffix(".p99") {
        (key, Reduce::P99)
    } else {
        (name, Reduce::Mean)
    }
}

/// Layers whose self time the traced run reports (`trace.self_ms.*`).
pub const SELF_TIME_LAYERS: &[&str] = &[
    "server",
    "core",
    "smt",
    "sat",
    "proof",
    "ogis",
    "gametime",
    "cfg",
    "microarch",
    "hybrid",
    "journal",
];

/// Raw per-layer samples, keyed by [`sample_key`].
#[derive(Default)]
pub struct Layers {
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Layers {
    /// Records one sample.
    pub fn add(&self, key: &'static str, value: f64) {
        self.samples
            .lock()
            .unwrap()
            .entry(key)
            .or_default()
            .push(value);
    }

    /// Whether any sample was recorded under `key`.
    pub fn has(&self, key: &str) -> bool {
        self.samples
            .lock()
            .unwrap()
            .get(key)
            .is_some_and(|v| !v.is_empty())
    }

    /// The samples recorded under `key`.
    pub fn get(&self, key: &str) -> Vec<f64> {
        self.samples
            .lock()
            .unwrap()
            .get(key)
            .cloned()
            .unwrap_or_default()
    }
}

/// Reduces a sample set to one reported value.
pub fn reduce(samples: &[f64], how: Reduce) -> f64 {
    match how {
        Reduce::P50 => percentile(samples, 0.50),
        Reduce::P99 => percentile(samples, 0.99),
        Reduce::Mean => mean(samples),
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sciduction::json::{self, Value};
    use std::collections::BTreeSet;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-'))
            );
        }
        assert!(!valid_name("a b"));
        assert!(!valid_name(".p50"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |list: Vec<(&str, &str)>| -> Vec<(String, String)> {
            list.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END.to_vec()));
        assert_eq!(listed("per_layer"), ours(PER_LAYER.to_vec()));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::BENCHMARKED.to_vec());
        assert!(crate::BENCHMARKED
            .iter()
            .all(|w| crate::WORKLOADS.contains(w)));
    }

    #[test]
    fn percentile_suffixes_pick_the_reduction() {
        assert_eq!(
            sample_key("smt.check_ms.p99"),
            ("smt.check_ms", Reduce::P99)
        );
        assert_eq!(
            sample_key("smt.check_ms.p50"),
            ("smt.check_ms", Reduce::P50)
        );
        assert_eq!(sample_key("sat.conflicts"), ("sat.conflicts", Reduce::Mean));
    }

    #[test]
    fn reductions_on_known_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reduce(&v, Reduce::P50), 50.0);
        assert_eq!(reduce(&v, Reduce::P99), 99.0);
        assert_eq!(reduce(&v, Reduce::Mean), 50.5);
    }
}
