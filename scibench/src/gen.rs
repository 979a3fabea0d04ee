//! Seeded input generation. Every input is a pure function of
//! `(workload seed, index)`, so a stream is unbounded, the same seed gives
//! a byte-identical stream, and neither the server nor the library sees
//! the seed itself — only the inputs generated from it.

use sciduction::json::{self, Value};
use sciduction_rng::rngs::StdRng;
use sciduction_rng::{splitmix64, Rng, SeedableRng};

/// The four proofless SMT figure queries `served_repeat` cycles over.
pub const REPEAT_QUERIES: [&str; 4] = [
    "fig6_crc8_infeasible_path",
    "fig6_crc8_feasible_path",
    "fig8_p1_equiv_w8",
    "fig8_p2_equiv_w8",
];

/// The RNG for input `index` of the stream seeded by `seed`.
fn rng_at(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut s = seed ^ stream.rotate_left(32);
    let a = splitmix64(&mut s);
    let mut t = a ^ index;
    StdRng::seed_from_u64(splitmix64(&mut t))
}

/// One served request: the job object and the family it was drawn from.
#[derive(Clone, Debug)]
pub struct ServedJob {
    /// `sat3`, `cert` or `synth` (unique mix) or `repeat`.
    pub family: &'static str,
    /// The `"job"` object of the request frame.
    pub job: Value,
}

/// Job `index` of the `served_unique` mix (also `served_isolated`'s):
/// random 3-SAT near the satisfiability threshold, certifying figure
/// jobs, and synthesis jobs with fresh example seeds. Every job pins
/// `threads` to 1.
///
/// The family shares are exact: an interleaved 40-job cycle holds 30
/// 3-SAT jobs, five certifying jobs (two `fig8_p1`, two `fig8_p2`, one
/// `fig10`) and five synthesis jobs (`p1_xor_chain` in one cycle of
/// four). The seed moves only the instances, so a run's total work does
/// not swing with how many heavy jobs it happened to draw, and the
/// certifying fig10 jobs (2.5 %, the heaviest) hold the p99.
pub fn unique_job(seed: u64, index: u64) -> ServedJob {
    let mut rng = rng_at(seed, 1, index);
    let cycle = index / 40;
    match (index * 13) % 40 {
        slot @ 30..=34 => {
            let name = [
                "fig8_p1_equiv_w8",
                "fig8_p2_equiv_w8",
                "fig10_mode_exclusion",
            ][(slot as usize - 30) / 2];
            ServedJob {
                family: "cert",
                job: json::obj(vec![
                    ("kind", Value::Str("fig".into())),
                    ("name", Value::Str(name.into())),
                    ("proof", Value::Bool(true)),
                    ("threads", Value::Int(1)),
                ]),
            }
        }
        slot @ 35..=39 => {
            let (name, width) = match slot {
                39 if cycle.is_multiple_of(4) => ("p1_xor_chain", 3 + (cycle / 4) % 2),
                35 | 36 => ("turn_off_rightmost_one", 4 + (cycle + slot) % 5),
                _ => ("isolate_rightmost_one", 4 + (cycle + slot) % 5),
            };
            let example_seed = rng.random::<u64>() >> 1;
            ServedJob {
                family: "synth",
                job: json::obj(vec![
                    ("kind", Value::Str("synth".into())),
                    ("name", Value::Str(name.into())),
                    ("width", Value::Int(width as i64)),
                    ("seed", Value::Int(example_seed as i64)),
                    ("max_iterations", Value::Int(64)),
                    ("threads", Value::Int(1)),
                ]),
            }
        }
        _ => {
            let num_vars = rng.random_range(40..71u64) as usize;
            // Clause/variable ratio 4.0–4.5, around the 4.26 threshold.
            let ratio = 4.0 + rng.random_range(0..11u64) as f64 * 0.05;
            let num_clauses = (num_vars as f64 * ratio).round() as usize;
            let clauses: Vec<Value> = (0..num_clauses)
                .map(|_| {
                    Value::Arr(
                        (0..3)
                            .map(|_| {
                                let v = rng.random_range(1..num_vars as u64 + 1) as i64;
                                Value::Int(if rng.random::<bool>() { v } else { -v })
                            })
                            .collect(),
                    )
                })
                .collect();
            ServedJob {
                family: "sat3",
                job: json::obj(vec![
                    ("kind", Value::Str("sat".into())),
                    ("num_vars", Value::Int(num_vars as i64)),
                    ("clauses", Value::Arr(clauses)),
                    ("threads", Value::Int(1)),
                ]),
            }
        }
    }
}

/// Job `index` of `served_repeat`: the four proofless figure queries in
/// a cycle whose phase the seed picks, so all but the first four
/// requests hit the shared query cache.
pub fn repeat_job(seed: u64, index: u64) -> ServedJob {
    let name = REPEAT_QUERIES[((seed % 4) + index) as usize % REPEAT_QUERIES.len()];
    ServedJob {
        family: "repeat",
        job: json::obj(vec![
            ("kind", Value::Str("fig".into())),
            ("name", Value::Str(name.into())),
            ("threads", Value::Int(1)),
        ]),
    }
}

/// One library task of `apps_journaled`. The parameter space is small on
/// purpose: tasks recur with the same parameters, so every distinct task
/// has one uninterrupted reference run and one journal to resume.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppTask {
    /// GameTime `analyze_journaled` on a bundled program.
    GameTime {
        /// `modexp`, `crc8`, `fir4` or `bubble_pass`.
        program: &'static str,
        /// Measurement trials.
        trials: usize,
        /// Measurement-schedule seed.
        seed: u64,
    },
    /// OGIS `synthesize_journaled` on a P1/P2-class benchmark.
    Ogis {
        /// `p1` (XOR swap) or `p2` (multiply by 45).
        bench: &'static str,
        /// Bit-vector width.
        width: u32,
        /// CEGIS example seed.
        seed: u64,
    },
    /// Hybrid `synthesize_switching_journaled`.
    Hybrid {
        /// `transmission_eq3` (safety only, Eq. (3)), `transmission_dwell5`
        /// (5 s dwell, Eq. (4)) or `water_tank`.
        system: &'static str,
    },
}

impl AppTask {
    /// A stable label, used to key references and journals.
    pub fn label(&self) -> String {
        match self {
            AppTask::GameTime {
                program,
                trials,
                seed,
            } => format!("gametime:{program}:t{trials}:s{seed}"),
            AppTask::Ogis { bench, width, seed } => format!("ogis:{bench}:w{width}:s{seed}"),
            AppTask::Hybrid { system } => format!("hybrid:{system}"),
        }
    }
}

/// Task `index` of `apps_journaled`. Like the served mix, the shares are
/// exact over an interleaved 100-task cycle: 60 `crc8`, 24 `modexp`,
/// 4 `fir4`, 2 `bubble_pass`, 4 OGIS, and 6 hybrid (two each of
/// transmission Eq. (3), transmission with a 5 s dwell, water tank).
/// The seed picks the GameTime schedule seeds and the phase of the OGIS
/// example seeds. The mean task is near 6.5 ms; `crc8` alone spans the
/// median and the 5 s-dwell transmission task (~120 ms, 2 %) the p99.
pub fn app_task(seed: u64, index: u64) -> AppTask {
    let mut rng = rng_at(seed, 2, index);
    let cycle = index / 100;
    let program = match (index * 37) % 100 {
        0..=59 => "crc8",
        60..=83 => "modexp",
        84..=87 => "fir4",
        88..=89 => "bubble_pass",
        slot @ 90..=93 => {
            // Every OGIS (benchmark, example seed) pair in turn.
            let k = cycle * 4 + (slot - 90);
            return AppTask::Ogis {
                bench: ["p1", "p2"][(k % 2) as usize],
                width: 3,
                seed: (k / 2 + seed) % 4,
            };
        }
        slot => {
            let system = match slot {
                94 | 95 => "transmission_eq3",
                96 | 97 => "transmission_dwell5",
                _ => "water_tank",
            };
            return AppTask::Hybrid { system };
        }
    };
    AppTask::GameTime {
        program,
        trials: 60,
        seed: rng.random_range(0..8u64),
    }
}

/// The full request frame for served job `index` on connection `conn`,
/// exactly as it goes on the wire (without the trailing newline).
pub fn request_line(index: u64, conn: usize, job: &Value) -> String {
    json::obj(vec![
        ("id", Value::Int(index as i64)),
        ("tenant", Value::Str(format!("conn-{conn}"))),
        ("job", job.clone()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: u64) -> String {
        let mut out = String::new();
        for i in 0..n {
            out.push_str(&request_line(i, 0, &unique_job(seed, i).job));
            out.push_str(&request_line(i, 1, &repeat_job(seed, i).job));
            out.push_str(&app_task(seed, i).label());
            out.push('\n');
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(stream(7, 300), stream(7, 300));
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(stream(7, 300), stream(8, 300));
        assert_ne!(
            unique_job(1, 0).job.to_string(),
            unique_job(2, 0).job.to_string()
        );
    }

    #[test]
    fn every_served_job_pins_one_thread_and_parses() {
        for i in 0..500 {
            for job in [unique_job(3, i), repeat_job(3, i)] {
                assert_eq!(job.job.get("threads").and_then(Value::as_u64), Some(1));
                sciduction_server::JobSpec::from_json(&job.job).expect("generated job parses");
            }
        }
    }

    #[test]
    fn the_unique_mix_draws_every_family() {
        let fams: std::collections::BTreeSet<_> =
            (0..500).map(|i| unique_job(11, i).family).collect();
        assert_eq!(
            fams.into_iter().collect::<Vec<_>>(),
            vec!["cert", "sat3", "synth"]
        );
    }
}
