//! Differential tests of the simulation oracle against test-only copies
//! of the code it replaced: the allocating RK4 step, the single-loop
//! `reach_label`, and the hybrid-trajectory simulator that stepped through
//! them. Every verdict must match, every integration step must match bit
//! for bit, and the dwell-prefix cache must stop exactly where the old
//! loop first reached the dwell.

use super::tests::thermostat;
use super::*;
use crate::ode::{integrate, rk4_step};
use crate::systems::water_tank;
use crate::transmission::{guard_seeds, initial_guards, modes, transmission};

/// The allocating RK4 step the in-place one replaced, verbatim.
fn old_rk4_step<F: VectorField + ?Sized>(f: &F, x: &[f64], dt: f64) -> Vec<f64> {
    let n = x.len();
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut tmp = vec![0.0; n];
    f.eval(x, &mut k1);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k1[i];
    }
    f.eval(&tmp, &mut k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k2[i];
    }
    f.eval(&tmp, &mut k3);
    for i in 0..n {
        tmp[i] = x[i] + dt * k3[i];
    }
    f.eval(&tmp, &mut k4);
    (0..n)
        .map(|i| x[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
        .collect()
}

/// The single-loop oracle `reach_label` replaced, verbatim except that
/// it also returns the `(x, t)` of every sample it checked.
fn old_reach_trace(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode: usize,
    state: &[f64],
    config: &ReachConfig,
) -> (ReachVerdict, Vec<(Vec<f64>, f64)>) {
    let exits = mds.exits_of(mode);
    let dyn_f = mds.modes[mode].dynamics.clone();
    let field = (mds.dim, move |x: &[f64], out: &mut [f64]| dyn_f(x, out));
    let mut x = state.to_vec();
    let mut t = 0.0;
    let mut deriv = vec![0.0; mds.dim];
    let mut trace = Vec::new();
    loop {
        trace.push((x.clone(), t));
        if !(mds.safe)(mode, &x) {
            return (ReachVerdict::Unsafe, trace);
        }
        if t >= config.min_dwell && exits.iter().any(|&e| logic.guards[e].contains(&x)) {
            return (ReachVerdict::Safe, trace);
        }
        field.eval(&x, &mut deriv);
        let norm: f64 = deriv.iter().map(|d| d * d).sum::<f64>().sqrt();
        if norm < config.equilibrium_eps {
            return (ReachVerdict::Safe, trace);
        }
        if t >= config.horizon {
            return (ReachVerdict::HorizonExhausted, trace);
        }
        x = old_rk4_step(&field, &x, config.dt);
        t += config.dt;
    }
}

/// The hybrid-trajectory simulator before the in-place step, verbatim.
fn old_simulate(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode_sequence: &[usize],
    x0: &[f64],
    config: &ReachConfig,
    policy: SwitchPolicy,
) -> (Vec<HybridSample>, bool) {
    let mut samples = Vec::new();
    let mut x = x0.to_vec();
    let mut t = 0.0;
    let mut all_safe = true;
    let mut deriv = vec![0.0; mds.dim];
    for (leg, &mode) in mode_sequence.iter().enumerate() {
        let next = mode_sequence.get(leg + 1).copied();
        let trans = next.map(|n| {
            mds.transitions
                .iter()
                .position(|tr| tr.from == mode && tr.to == n)
                .unwrap_or_else(|| panic!("no transition {mode} → {n}"))
        });
        let dyn_f = mds.modes[mode].dynamics.clone();
        let field = (mds.dim, move |s: &[f64], out: &mut [f64]| dyn_f(s, out));
        let t_enter = t;
        loop {
            samples.push(HybridSample {
                time: t,
                mode,
                state: x.clone(),
            });
            if !(mds.safe)(mode, &x) {
                all_safe = false;
            }
            match trans {
                None => {
                    field.eval(&x, &mut deriv);
                    let norm: f64 = deriv.iter().map(|d| d * d).sum::<f64>().sqrt();
                    if norm < config.equilibrium_eps || t - t_enter >= config.horizon {
                        return (samples, all_safe);
                    }
                }
                Some(tr) => {
                    let enabled = t - t_enter >= config.min_dwell && logic.guards[tr].contains(&x);
                    if enabled {
                        match policy {
                            SwitchPolicy::Eager => break,
                            SwitchPolicy::LatestSafe => {
                                let ahead = old_rk4_step(&field, &x, config.dt);
                                let stationary = ahead
                                    .iter()
                                    .zip(&x)
                                    .all(|(a, b)| (a - b).abs() < config.equilibrium_eps);
                                if stationary
                                    || !logic.guards[tr].contains(&ahead)
                                    || !(mds.safe)(mode, &ahead)
                                {
                                    break;
                                }
                            }
                        }
                    }
                    if t - t_enter >= config.horizon {
                        return (samples, all_safe);
                    }
                }
            }
            x = old_rk4_step(&field, &x, config.dt);
            t += config.dt;
        }
    }
    (samples, all_safe)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// SplitMix64: a seeded, dependency-free case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// A system under test: its name, the MDS, and the per-dimension range
/// its random states and guard bounds are drawn from.
type System = (&'static str, Mds, Vec<(f64, f64)>);

/// The three systems under test.
fn systems() -> Vec<System> {
    vec![
        ("thermostat", thermostat(), vec![(12.0, 33.0)]),
        ("water_tank", water_tank(), vec![(0.5, 11.0)]),
        (
            "transmission",
            transmission(),
            vec![(-5.0, 1800.0), (-1.0, 45.0)],
        ),
    ]
}

/// A random state drawn from `ranges`.
fn random_state(rng: &mut Rng, ranges: &[(f64, f64)]) -> Vec<f64> {
    ranges.iter().map(|&(lo, hi)| rng.range(lo, hi)).collect()
}

/// Random switching logic: each guard is unconstrained, empty, or a box
/// whose every dimension is either unbounded or a random sub-interval.
fn random_logic(rng: &mut Rng, mds: &Mds, ranges: &[(f64, f64)]) -> SwitchingLogic {
    let guards = (0..mds.transitions.len())
        .map(|_| match rng.below(4) {
            0 => HyperBox::whole(mds.dim),
            1 => HyperBox::empty(mds.dim),
            _ => {
                let (lo, hi) = ranges
                    .iter()
                    .map(|&(a, b)| {
                        if rng.below(3) == 0 {
                            (f64::NEG_INFINITY, f64::INFINITY)
                        } else {
                            let (p, q) = (rng.range(a, b), rng.range(a, b));
                            (p.min(q), p.max(q))
                        }
                    })
                    .unzip();
                HyperBox::new(lo, hi)
            }
        })
        .collect();
    SwitchingLogic { guards }
}

fn reach_config(min_dwell: f64, horizon: f64) -> ReachConfig {
    ReachConfig {
        dt: 0.01,
        horizon,
        min_dwell,
        equilibrium_eps: 1e-9,
    }
}

/// Asks one query three ways — the old loop, `reach_label`, and `cache` —
/// and checks that all verdicts agree, that every step of the old
/// trajectory is one in-place step bit for bit, and that the cached
/// prefix ends where the old loop first reached `min_dwell`. Returns the
/// verdict.
fn check_query(
    cache: &mut DwellPrefixCache<'_>,
    logic: &SwitchingLogic,
    mode: usize,
    state: &[f64],
    ctx: &str,
) -> ReachVerdict {
    let (mds, config) = (cache.mds, cache.config);
    let (want, trace) = old_reach_trace(mds, logic, mode, state, config);
    assert_eq!(
        reach_label(mds, logic, mode, state, config),
        want,
        "{ctx}: uncached"
    );
    assert_eq!(cache.reach_label(logic, mode, state), want, "{ctx}: cached");

    let field = mode_field(mds, mode);
    let n = state.len();
    let mut k1 = vec![0.0; n];
    let mut scratch = vec![0.0; 4 * n];
    for (step, w) in trace.windows(2).enumerate() {
        let mut x = w[0].0.clone();
        field.eval(&x, &mut k1);
        rk4_advance(&field, &mut x, &k1, config.dt, &mut scratch);
        assert_eq!(bits(&x), bits(&w[1].0), "{ctx}: in-place step {step}");
        assert_eq!(
            bits(&rk4_step(&field, &w[0].0, config.dt)),
            bits(&w[1].0),
            "{ctx}: wrapped step {step}"
        );
    }

    let key = (mode, bits(state));
    if 0.0 < config.min_dwell {
        let dwelt = trace.iter().find(|(_, t)| *t >= config.min_dwell);
        match (&cache.prefixes[&key], dwelt) {
            (Prefix::Settled(verdict), None) => assert_eq!(*verdict, want, "{ctx}"),
            (Prefix::Dwelt { x, t }, Some((old_x, old_t))) => {
                assert_eq!(bits(x), bits(old_x), "{ctx}: dwelt state");
                assert_eq!(t.to_bits(), old_t.to_bits(), "{ctx}: dwelt time");
            }
            (prefix, dwelt) => panic!("{ctx}: cached {prefix:?}, old loop dwelt at {dwelt:?}"),
        }
    } else {
        assert!(cache.prefixes.is_empty(), "{ctx}: zero dwell uses no map");
    }
    want
}

#[test]
fn cached_and_in_place_oracle_matches_the_old_loop_on_random_queries() {
    let mut rng = Rng(0x5c1d_0c7e);
    for (name, mds, ranges) in systems() {
        for min_dwell in [0.0, 0.3, 5.0] {
            for horizon in [2.0, 8.0, 20.0] {
                let config = reach_config(min_dwell, horizon);
                let mut cache = DwellPrefixCache::new(&mds, &config);
                let mut verdicts = [0usize; 3];
                for case in 0..24 {
                    let mode = rng.below(mds.modes.len());
                    let state = random_state(&mut rng, &ranges);
                    let ctx = format!(
                        "{name} dwell={min_dwell} horizon={horizon} case {case} \
                         mode {mode} state {state:?}"
                    );
                    // The same key twice, under two different logics: the
                    // second ask is a cache hit whenever the dwell is
                    // positive.
                    for _ in 0..2 {
                        let logic = random_logic(&mut rng, &mds, &ranges);
                        let verdict = check_query(&mut cache, &logic, mode, &state, &ctx);
                        verdicts[verdict as usize] += 1;
                    }
                }
                assert!(
                    verdicts.iter().filter(|&&k| k > 0).count() >= 2,
                    "{name} dwell={min_dwell} horizon={horizon}: one-sided cases {verdicts:?}"
                );
            }
        }
    }
}

#[test]
fn prefix_edge_cases_match_the_old_loop() {
    let thermo = thermostat();
    let mut logic = SwitchingLogic::permissive(&thermo);
    logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
    logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);

    // The horizon ends inside the dwell: heating from 16 for 2 s.
    let short = reach_config(5.0, 2.0);
    let mut cache = DwellPrefixCache::new(&thermo, &short);
    let v = check_query(&mut cache, &logic, 0, &[16.0], "horizon < dwell");
    assert_eq!(v, ReachVerdict::HorizonExhausted);

    // The state turns unsafe inside the dwell: heating from 28 crosses 30
    // at t = 1 < 5.
    let dwell5 = reach_config(5.0, 100.0);
    let mut cache = DwellPrefixCache::new(&thermo, &dwell5);
    let v = check_query(&mut cache, &logic, 0, &[28.0], "unsafe inside dwell");
    assert_eq!(v, ReachVerdict::Unsafe);
    assert!(matches!(
        cache.prefixes[&(0, bits(&[28.0]))],
        Prefix::Settled(ReachVerdict::Unsafe)
    ));

    // One key asked under changed guards: heating from 18 reaches 28 at
    // the end of a 5 s dwell, so the verdict follows the exit guard.
    let key_ctx = "repeated key";
    assert_eq!(
        check_query(&mut cache, &logic, 0, &[18.0], key_ctx),
        ReachVerdict::Safe
    );
    let mut closed = logic.clone();
    closed.guards[0] = HyperBox::empty(1);
    assert_eq!(
        check_query(&mut cache, &closed, 0, &[18.0], key_ctx),
        ReachVerdict::Unsafe
    );
    let mut late = logic.clone();
    late.guards[0] = HyperBox::new(vec![29.0], vec![29.5]);
    assert_eq!(
        check_query(&mut cache, &late, 0, &[18.0], key_ctx),
        ReachVerdict::Safe
    );
    assert_eq!(
        check_query(&mut cache, &logic, 0, &[18.0], key_ctx),
        ReachVerdict::Safe
    );
    assert_eq!(cache.prefixes.len(), 2, "one entry per (mode, state)");

    // An equilibrium inside the dwell: Neutral never moves.
    let trans = transmission();
    let logic = initial_guards(&trans);
    let mut cache = DwellPrefixCache::new(&trans, &dwell5);
    let v = check_query(&mut cache, &logic, modes::N, &[0.0, 20.0], "neutral");
    assert_eq!(v, ReachVerdict::Safe);
    assert!(matches!(
        cache.prefixes[&(modes::N, bits(&[0.0, 20.0]))],
        Prefix::Settled(ReachVerdict::Safe)
    ));

    // `-0.0` and `0.0` are distinct keys, each answered as uncached.
    for mode in [modes::G1U, modes::G1D, modes::G3D] {
        for omega in [0.0, -0.0] {
            let ctx = format!("signed zero, mode {mode}, ω = {omega:?}");
            check_query(&mut cache, &logic, mode, &[-0.0, omega], &ctx);
        }
    }
    assert_eq!(cache.prefixes.len(), 1 + 3 * 2);
}

#[test]
fn integrate_matches_the_allocating_step_bit_for_bit() {
    let mut rng = Rng(0x1e7e_9a7e);
    for (name, mds, ranges) in systems() {
        for mode in 0..mds.modes.len() {
            let field = mode_field(&mds, mode);
            let x0 = random_state(&mut rng, &ranges);
            // 0.03 does not divide 1.0: the last step is shortened.
            for dt in [0.01, 0.03] {
                let tr = integrate(&field, &x0, 1.0, dt);
                let (mut t, mut x) = (0.0, x0.clone());
                assert_eq!(bits(&tr.states[0]), bits(&x0));
                for (time, state) in tr.times.iter().zip(&tr.states).skip(1) {
                    let step = dt.min(1.0 - t);
                    x = old_rk4_step(&field, &x, step);
                    t += step;
                    assert_eq!(time.to_bits(), t.to_bits(), "{name} mode {mode} dt {dt}");
                    assert_eq!(bits(state), bits(&x), "{name} mode {mode} dt {dt} t {t}");
                }
                assert!(t >= 1.0 - 1e-12, "{name}: trajectory stopped early");
            }
        }
    }
}

#[test]
fn hybrid_simulation_matches_the_allocating_simulator_bit_for_bit() {
    let trans = transmission();
    let reach = reach_config(0.0, 200.0);
    let config = crate::synthesis::SwitchSynthConfig {
        grid: crate::hyperbox::Grid::new(0.01),
        reach,
        max_rounds: 8,
        seed_budget: 512,
        ..Default::default()
    };
    let logic = crate::synthesis::synthesize_switching(
        &trans,
        initial_guards(&trans),
        &guard_seeds(&trans),
        &config,
    )
    .logic;
    let fig10 = [
        modes::N,
        modes::G1U,
        modes::G2U,
        modes::G3U,
        modes::G3D,
        modes::G2D,
        modes::G1D,
    ];
    let thermo = thermostat();
    let mut thermo_logic = SwitchingLogic::permissive(&thermo);
    thermo_logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
    thermo_logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);
    type Run<'a> = (
        &'a Mds,
        &'a SwitchingLogic,
        &'a [usize],
        Vec<f64>,
        ReachConfig,
    );
    let runs: [Run; 3] = [
        (
            &trans,
            &logic,
            &fig10,
            vec![0.0, 0.0],
            reach_config(5.0, 120.0),
        ),
        (
            &trans,
            &logic,
            &fig10,
            vec![0.0, 0.0],
            reach_config(0.0, 120.0),
        ),
        (
            &thermo,
            &thermo_logic,
            &[0, 1, 0],
            vec![20.0],
            reach_config(0.5, 5.0),
        ),
    ];
    for (mds, logic, seq, x0, cfg) in &runs {
        for policy in [SwitchPolicy::Eager, SwitchPolicy::LatestSafe] {
            let (got, got_safe) = simulate_hybrid_with_policy(mds, logic, seq, x0, cfg, policy);
            let (want, want_safe) = old_simulate(mds, logic, seq, x0, cfg, policy);
            let ctx = format!("seq {seq:?} dwell {} {policy:?}", cfg.min_dwell);
            assert_eq!(got_safe, want_safe, "{ctx}");
            assert_eq!(got.len(), want.len(), "{ctx}: sample count");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.time.to_bits(), b.time.to_bits(), "{ctx}");
                assert_eq!(a.mode, b.mode, "{ctx}");
                assert_eq!(bits(&a.state), bits(&b.state), "{ctx} t {}", a.time);
            }
        }
    }
}
