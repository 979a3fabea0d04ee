//! Multi-modal dynamical systems, switching logic, the simulation-based
//! reachability oracle, and hybrid-trajectory simulation.
//!
//! Paper Sec. 5.1: "An MDS is a physical system that can operate in
//! different modes. The dynamics of the plant in each mode is known …
//! to achieve safe and efficient operation, it is typically necessary to
//! switch between the different operating modes using carefully
//! constructed switching logic: guards on transitions between modes. The
//! MDS along with its switching logic constitutes a hybrid system."

use crate::hyperbox::HyperBox;
use crate::ode::{rk4_advance, VectorField};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::sync::Arc;

/// A mode's vector field: `f(x, out)` writes `dx/dt` into `out`.
/// `Send + Sync` so validation sweeps and simulation batches can share an
/// [`Mds`] across worker threads.
pub type Dynamics = Arc<dyn Fn(&[f64], &mut [f64]) + Send + Sync>;

/// A mode-dependent safety predicate `safe(mode, x)`.
pub type SafetyPredicate = Arc<dyn Fn(usize, &[f64]) -> bool + Send + Sync>;

/// One operating mode: a name plus its continuous dynamics.
#[derive(Clone)]
pub struct Mode {
    /// Human-readable name (e.g. `G2U`).
    pub name: String,
    /// The vector field `dx/dt = f(x)` in this mode.
    pub dynamics: Dynamics,
}

impl fmt::Debug for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mode({})", self.name)
    }
}

/// A transition between modes; its guard lives in a [`SwitchingLogic`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transition {
    /// Guard name (e.g. `g12U`).
    pub name: String,
    /// Source mode index.
    pub from: usize,
    /// Target mode index.
    pub to: usize,
    /// Whether the synthesizer may shrink this guard (equality guards such
    /// as the paper's `g1ND` stay fixed).
    pub learnable: bool,
}

/// A multi-modal dynamical system.
#[derive(Clone)]
pub struct Mds {
    /// Continuous state dimension.
    pub dim: usize,
    /// Modes.
    pub modes: Vec<Mode>,
    /// Transition structure.
    pub transitions: Vec<Transition>,
    /// The safety property: `safe(mode, x)` — mode-dependent because
    /// quantities like the transmission efficiency η are functions of the
    /// active gear.
    pub safe: SafetyPredicate,
}

impl Mds {
    /// Transitions leaving mode `m`.
    pub fn exits_of(&self, m: usize) -> Vec<usize> {
        (0..self.transitions.len())
            .filter(|&t| self.transitions[t].from == m)
            .collect()
    }

    /// Transitions entering mode `m`.
    pub fn entries_of(&self, m: usize) -> Vec<usize> {
        (0..self.transitions.len())
            .filter(|&t| self.transitions[t].to == m)
            .collect()
    }
}

/// The switching logic: one guard hyperbox per transition. This is the
/// artifact the synthesis of Sec. 5 produces.
#[derive(Clone, PartialEq, Debug)]
pub struct SwitchingLogic {
    /// Guard per transition (indexed like `Mds::transitions`).
    pub guards: Vec<HyperBox>,
}

impl SwitchingLogic {
    /// Logic with all guards unconstrained.
    pub fn permissive(mds: &Mds) -> Self {
        SwitchingLogic {
            guards: vec![HyperBox::whole(mds.dim); mds.transitions.len()],
        }
    }
}

impl fmt::Display for SwitchingLogic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.guards.iter().enumerate() {
            writeln!(f, "guard[{i}] = {g}")?;
        }
        Ok(())
    }
}

/// The verdict of the reachability oracle on a switching state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReachVerdict {
    /// Trajectory stays safe until some exit guard becomes enabled (or the
    /// system reaches a safe equilibrium).
    Safe,
    /// Trajectory violates the safety property before any exit is enabled.
    Unsafe,
    /// The horizon elapsed without an answer (treated conservatively as
    /// unsafe by the synthesizer).
    HorizonExhausted,
}

/// Configuration for the oracle's numerical simulation.
#[derive(Clone, Copy, Debug)]
pub struct ReachConfig {
    /// Integration step.
    pub dt: f64,
    /// Simulation horizon (model time units).
    pub horizon: f64,
    /// Minimum dwell time before an exit may be taken (0 for Eq. (3);
    /// 5 s for the paper's Eq. (4) variant).
    pub min_dwell: f64,
    /// Norm threshold below which the state counts as an equilibrium.
    pub equilibrium_eps: f64,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            dt: 0.01,
            horizon: 100.0,
            min_dwell: 0.0,
            equilibrium_eps: 1e-6,
        }
    }
}

/// The deductive engine of Sec. 5: labels a switching state by numerical
/// simulation. "If we enter m in state s and follow its dynamics, will the
/// trajectory visit only safe states until some exit guard becomes true?"
///
/// The trajectory is integrated with fixed RK4 steps of `config.dt`. At
/// every sample it must be safe; the answer is [`ReachVerdict::Safe`] once
/// an exit guard of `mode` contains the state, or once the field's norm
/// drops below `equilibrium_eps` (a safe equilibrium never moves again),
/// and [`ReachVerdict::HorizonExhausted`] once `horizon` has elapsed.
///
/// With `min_dwell > 0` (the Eq. (4) dwell-time variant) exit guards only
/// count from the first sample at `t >= min_dwell`. The simulation
/// therefore runs in two parts with the same per-sample statements: a
/// *dwell prefix* while `t < min_dwell`, which never reads `logic`, and
/// the *remainder* from the prefix's final `(x, t)`. Because the prefix
/// depends only on `(mds, mode, state, config)`, one synthesis call
/// memoizes it across the learner's queries (see `DwellPrefixCache`);
/// this function is the uncached composition of the two parts.
pub fn reach_label(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode: usize,
    state: &[f64],
    config: &ReachConfig,
) -> ReachVerdict {
    let mut x = state.to_vec();
    let mut t = 0.0;
    let mut buf = vec![0.0; 5 * x.len()];
    match dwell_prefix(mds, mode, config, &mut x, &mut t, &mut buf) {
        Some(verdict) => verdict,
        None => reach_remainder(mds, logic, mode, config, &mut x, t, &mut buf),
    }
}

/// Mode `mode`'s vector field, borrowed from `mds`.
fn mode_field(mds: &Mds, mode: usize) -> impl VectorField + '_ {
    (mds.dim, &*mds.modes[mode].dynamics)
}

/// The statements every oracle sample ends with, once its checks on `x`
/// have passed: the equilibrium test, the horizon test, and one RK4 step
/// that reuses the field value of the equilibrium test as `k1`. `buf`
/// holds that field value followed by the step's scratch (`5 * x.len()`
/// slots). Returns the verdict when the simulation ends here.
fn settle_or_step<F: VectorField>(
    field: &F,
    config: &ReachConfig,
    x: &mut [f64],
    t: &mut f64,
    buf: &mut [f64],
) -> Option<ReachVerdict> {
    let (deriv, scratch) = buf.split_at_mut(x.len());
    field.eval(x, deriv);
    let norm: f64 = deriv.iter().map(|d| d * d).sum::<f64>().sqrt();
    if norm < config.equilibrium_eps {
        // Safe equilibrium: the state never changes again; with the
        // dwell already satisfied or no exit ever needed, this is safe.
        return Some(ReachVerdict::Safe);
    }
    if *t >= config.horizon {
        return Some(ReachVerdict::HorizonExhausted);
    }
    rk4_advance(field, x, deriv, config.dt, scratch);
    *t += config.dt;
    None
}

/// The dwell prefix of [`reach_label`]: simulates from `(x, t)` while
/// `t < min_dwell`, checking safety, the equilibrium norm and the
/// horizon, but no exit guard — it never reads the switching logic.
/// Returns the verdict if one of those checks settles it; otherwise
/// leaves `(x, t)` at the first sample with `t >= min_dwell`.
fn dwell_prefix(
    mds: &Mds,
    mode: usize,
    config: &ReachConfig,
    x: &mut [f64],
    t: &mut f64,
    buf: &mut [f64],
) -> Option<ReachVerdict> {
    let field = mode_field(mds, mode);
    while *t < config.min_dwell {
        if !(mds.safe)(mode, x) {
            return Some(ReachVerdict::Unsafe);
        }
        if let Some(verdict) = settle_or_step(&field, config, x, t, buf) {
            return Some(verdict);
        }
    }
    None
}

/// The remainder of [`reach_label`]: the full oracle loop, exit guards
/// included, started from the `(x, t)` its dwell prefix ended at.
fn reach_remainder(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode: usize,
    config: &ReachConfig,
    x: &mut [f64],
    mut t: f64,
    buf: &mut [f64],
) -> ReachVerdict {
    let exits = mds.exits_of(mode);
    let field = mode_field(mds, mode);
    loop {
        if !(mds.safe)(mode, x) {
            return ReachVerdict::Unsafe;
        }
        if t >= config.min_dwell && exits.iter().any(|&e| logic.guards[e].contains(x)) {
            return ReachVerdict::Safe;
        }
        if let Some(verdict) = settle_or_step(&field, config, x, &mut t, buf) {
            return verdict;
        }
    }
}

/// Where a query's dwell prefix ended.
#[derive(Debug)]
enum Prefix {
    /// The prefix settled the verdict: `Unsafe`, an equilibrium `Safe`,
    /// or `HorizonExhausted`.
    Settled(ReachVerdict),
    /// The exact state and time of the first sample with
    /// `t >= min_dwell`, where the remainder starts.
    Dwelt { x: Vec<f64>, t: f64 },
}

/// [`reach_label`] with its dwell prefix memoized per `(mode, state)`.
///
/// The learner of one synthesis call asks the oracle about the same
/// switching states again and again under shrinking guards. The dwell
/// prefix never reads the guards, so its outcome is a function of
/// `(mode, state)` for a fixed `mds` and `config`; this cache binds both
/// for its lifetime and is meant to live for exactly one synthesis call.
/// Keys are the states' `f64` bit patterns, so `-0.0` and `0.0` are
/// separate entries and every answer is the one [`reach_label`] gives.
/// With `min_dwell <= 0` the prefix is empty and the map is skipped. The
/// cache also owns the query scratch, so a query allocates no simulation
/// buffers.
pub(crate) struct DwellPrefixCache<'a> {
    mds: &'a Mds,
    config: &'a ReachConfig,
    prefixes: HashMap<(usize, Vec<u64>), Prefix>,
    x: Vec<f64>,
    buf: Vec<f64>,
}

impl<'a> DwellPrefixCache<'a> {
    /// An empty cache for queries on `mds` under `config`.
    pub(crate) fn new(mds: &'a Mds, config: &'a ReachConfig) -> Self {
        DwellPrefixCache {
            mds,
            config,
            prefixes: HashMap::new(),
            x: Vec::with_capacity(mds.dim),
            buf: vec![0.0; 5 * mds.dim],
        }
    }

    /// The verdict [`reach_label`] gives for `(logic, mode, state)`.
    pub(crate) fn reach_label(
        &mut self,
        logic: &SwitchingLogic,
        mode: usize,
        state: &[f64],
    ) -> ReachVerdict {
        self.x.clear();
        self.x.extend_from_slice(state);
        self.buf.resize(5 * state.len(), 0.0);
        let mut t = 0.0;
        if 0.0 < self.config.min_dwell {
            let key = (mode, state.iter().map(|v| v.to_bits()).collect());
            let prefix = match self.prefixes.entry(key) {
                Entry::Occupied(hit) => hit.into_mut(),
                Entry::Vacant(miss) => {
                    let verdict = dwell_prefix(
                        self.mds,
                        mode,
                        self.config,
                        &mut self.x,
                        &mut t,
                        &mut self.buf,
                    );
                    miss.insert(match verdict {
                        Some(verdict) => Prefix::Settled(verdict),
                        None => Prefix::Dwelt {
                            x: self.x.clone(),
                            t,
                        },
                    })
                }
            };
            match prefix {
                Prefix::Settled(verdict) => return *verdict,
                Prefix::Dwelt { x, t: dwelt } => {
                    self.x.copy_from_slice(x);
                    t = *dwelt;
                }
            }
        }
        reach_remainder(
            self.mds,
            logic,
            mode,
            self.config,
            &mut self.x,
            t,
            &mut self.buf,
        )
    }
}

/// When a prescribed-sequence simulation takes each transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SwitchPolicy {
    /// As soon as the guard is enabled (and the dwell has elapsed).
    #[default]
    Eager,
    /// As late as safely possible: while the guard is enabled, keep going
    /// until the *next* integration step would leave the guard or violate
    /// the safety property. This is the driving style of the paper's
    /// Fig. 10, where the efficiency visibly dips to ≈ 0.5 at each gear
    /// change.
    LatestSafe,
}

/// One step of a simulated hybrid trajectory.
#[derive(Clone, Debug)]
pub struct HybridSample {
    /// Model time.
    pub time: f64,
    /// Active mode index.
    pub mode: usize,
    /// Continuous state.
    pub state: Vec<f64>,
}

/// Simulates the hybrid system along a prescribed mode sequence: in each
/// leg, integrate the current mode's dynamics and take the next
/// transition as soon as (a) at least `min_dwell` has elapsed in the mode
/// and (b) the transition's guard is enabled. Returns the sampled
/// trajectory and whether every sample was safe.
///
/// This is the paper's Fig. 10 experiment driver ("the behavior of the
/// transmission system when it is made to switch from Neutral mode
/// through the six gear modes and back").
///
/// # Panics
///
/// Panics if consecutive sequence entries are not connected by a
/// transition.
pub fn simulate_hybrid(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode_sequence: &[usize],
    x0: &[f64],
    config: &ReachConfig,
) -> (Vec<HybridSample>, bool) {
    simulate_hybrid_with_policy(mds, logic, mode_sequence, x0, config, SwitchPolicy::Eager)
}

/// [`simulate_hybrid`] with an explicit switching policy.
///
/// # Panics
///
/// Panics if consecutive sequence entries are not connected by a
/// transition.
pub fn simulate_hybrid_with_policy(
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
    // The `LatestSafe` peek-ahead state, and `f(x)` followed by the RK4
    // scratch.
    let mut ahead = vec![0.0; x.len()];
    let mut buf = vec![0.0; 5 * x.len()];
    let (deriv, scratch) = buf.split_at_mut(x.len());
    for (leg, &mode) in mode_sequence.iter().enumerate() {
        let next = mode_sequence.get(leg + 1).copied();
        let trans = next.map(|n| {
            mds.transitions
                .iter()
                .position(|tr| tr.from == mode && tr.to == n)
                .unwrap_or_else(|| panic!("no transition {mode} → {n}"))
        });
        let field = mode_field(mds, mode);
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
            // `f(x)`: the equilibrium test's norm and the next step's `k1`.
            field.eval(&x, deriv);
            let mut peeked = false;
            match trans {
                None => {
                    // Final leg: run until equilibrium or horizon.
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
                                // Peek one step ahead: switch when
                                // continuing would lose the guard or
                                // safety — or gains nothing because the
                                // mode is at an equilibrium.
                                ahead.copy_from_slice(&x);
                                rk4_advance(&field, &mut ahead, deriv, config.dt, scratch);
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
                                peeked = true;
                            }
                        }
                    }
                    if t - t_enter >= config.horizon {
                        // Guard never enabled: abandon (caller sees a
                        // truncated trajectory).
                        return (samples, all_safe);
                    }
                }
            }
            if peeked {
                // The peek already took exactly this step.
                std::mem::swap(&mut x, &mut ahead);
            } else {
                rk4_advance(&field, &mut x, deriv, config.dt, scratch);
            }
            t += config.dt;
        }
    }
    (samples, all_safe)
}

/// Simulates one hybrid trajectory per initial state in parallel batches
/// of `threads` workers (1 = sequential) — the driver for sweeping a
/// family of starting conditions through one mode sequence (the paper's
/// Fig. 10 experiment, repeated per seed state). Results are returned in
/// input order and are bitwise identical to per-call
/// [`simulate_hybrid_with_policy`] at every thread count, because each
/// trajectory depends only on its own initial state.
///
/// # Errors
///
/// [`sciduction::exec::ExecError`] if a simulation worker panics (e.g. a
/// start state whose leg has no connecting transition).
pub fn simulate_hybrid_batch(
    mds: &Mds,
    logic: &SwitchingLogic,
    mode_sequence: &[usize],
    starts: &[Vec<f64>],
    config: &ReachConfig,
    policy: SwitchPolicy,
    threads: usize,
) -> Result<Vec<(Vec<HybridSample>, bool)>, sciduction::exec::ExecError> {
    sciduction::exec::ParallelOracle::new(threads).map(starts, |_, x0| {
        simulate_hybrid_with_policy(mds, logic, mode_sequence, x0, config, policy)
    })
}

#[cfg(test)]
mod oracle_diff;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A thermostat: mode 0 = heating (ṪΔ = +2), mode 1 = cooling
    /// (Ṫ = −1). Safe band: T ∈ [15, 30].
    pub(crate) fn thermostat() -> Mds {
        Mds {
            dim: 1,
            modes: vec![
                Mode {
                    name: "heat".into(),
                    dynamics: Arc::new(|_x, out| out[0] = 2.0),
                },
                Mode {
                    name: "cool".into(),
                    dynamics: Arc::new(|_x, out| out[0] = -1.0),
                },
            ],
            transitions: vec![
                Transition {
                    name: "h2c".into(),
                    from: 0,
                    to: 1,
                    learnable: true,
                },
                Transition {
                    name: "c2h".into(),
                    from: 1,
                    to: 0,
                    learnable: true,
                },
            ],
            safe: Arc::new(|_m, x| (15.0..=30.0).contains(&x[0])),
        }
    }

    #[test]
    fn reach_label_identifies_safe_and_unsafe_entries() {
        let mds = thermostat();
        let mut logic = SwitchingLogic::permissive(&mds);
        // Exit of heat (h2c) enabled for T ≥ 25; exit of cool for T ≤ 20.
        logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
        logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);
        let cfg = ReachConfig::default();
        // Entering heat at 20: heats to 25, exit enabled before 30 → safe.
        assert_eq!(
            reach_label(&mds, &logic, 0, &[20.0], &cfg),
            ReachVerdict::Safe
        );
        // Entering heat at 14.5: already outside the safe band.
        assert_eq!(
            reach_label(&mds, &logic, 0, &[14.0], &cfg),
            ReachVerdict::Unsafe
        );
        // Entering cool at 29: cools to 20, exit enabled before 15 → safe.
        assert_eq!(
            reach_label(&mds, &logic, 1, &[29.0], &cfg),
            ReachVerdict::Safe
        );
        // Entering cool at 31: unsafe immediately.
        assert_eq!(
            reach_label(&mds, &logic, 1, &[31.0], &cfg),
            ReachVerdict::Unsafe
        );
    }

    #[test]
    fn reach_label_with_disabled_exits_hits_unsafe_or_horizon() {
        let mds = thermostat();
        let mut logic = SwitchingLogic::permissive(&mds);
        logic.guards[0] = HyperBox::empty(1); // heat can never exit
        logic.guards[1] = HyperBox::empty(1);
        let cfg = ReachConfig::default();
        // Heating forever exits the band at 30 → unsafe.
        assert_eq!(
            reach_label(&mds, &logic, 0, &[20.0], &cfg),
            ReachVerdict::Unsafe
        );
    }

    #[test]
    fn dwell_requirement_rejects_fast_exits() {
        let mds = thermostat();
        let mut logic = SwitchingLogic::permissive(&mds);
        logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
        logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);
        // Dwell 4 s in heat from 28: reaches 30 (unsafe edge) after 1 s of
        // waiting... heating 2°/s from 28 crosses 30 at t=1 < dwell → the
        // trajectory leaves the band before it may exit → unsafe.
        let cfg = ReachConfig {
            min_dwell: 4.0,
            ..ReachConfig::default()
        };
        assert_eq!(
            reach_label(&mds, &logic, 0, &[28.0], &cfg),
            ReachVerdict::Unsafe
        );
        // From 18: reaches 26 at dwell end — exit enabled there → safe.
        assert_eq!(
            reach_label(&mds, &logic, 0, &[18.0], &cfg),
            ReachVerdict::Safe
        );
    }

    #[test]
    fn simulate_hybrid_bounces_between_modes() {
        let mds = thermostat();
        let mut logic = SwitchingLogic::permissive(&mds);
        logic.guards[0] = HyperBox::new(vec![25.0], vec![f64::INFINITY]);
        logic.guards[1] = HyperBox::new(vec![f64::NEG_INFINITY], vec![20.0]);
        // Final leg truncates at the horizon (cooling never equilibrates),
        // so pick a horizon that keeps the last leg inside the band.
        let cfg = ReachConfig {
            horizon: 5.0,
            ..ReachConfig::default()
        };
        let (samples, safe) = simulate_hybrid(&mds, &logic, &[0, 1], &[20.0], &cfg);
        assert!(safe, "thermostat trajectory must stay in the band");
        // Temperature must stay within [15, 30] and visit all legs.
        let modes_seen: std::collections::HashSet<usize> = samples.iter().map(|s| s.mode).collect();
        assert_eq!(modes_seen.len(), 2);
        for s in &samples {
            assert!((14.9..=30.1).contains(&s.state[0]));
        }
    }

    #[test]
    fn entries_and_exits() {
        let mds = thermostat();
        assert_eq!(mds.exits_of(0), vec![0]);
        assert_eq!(mds.entries_of(0), vec![1]);
    }
}
