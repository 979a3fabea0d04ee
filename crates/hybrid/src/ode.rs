//! Numerical ODE integration: classic RK4 and adaptive RKF45.
//!
//! This is the reproduction's stand-in for the paper's "Matlab-based
//! numerical simulator" (Sec. 5.4) — the *deductive engine* of the
//! switching-logic application. The paper argues (Sec. 5.2) that a
//! numerical simulator is a deductive procedure: it solves constraint
//! systems (the ODEs) by applying rules (the integration scheme) about the
//! underlying theory (real arithmetic).

/// Right-hand side of an ODE: `dx/dt = f(x)` (autonomous; time-dependence
/// can be folded into a state variable).
pub trait VectorField {
    /// Writes `dx/dt` into `out`.
    fn eval(&self, x: &[f64], out: &mut [f64]);

    /// State dimension.
    fn dim(&self) -> usize;
}

impl<F: Fn(&[f64], &mut [f64])> VectorField for (usize, F) {
    fn eval(&self, x: &[f64], out: &mut [f64]) {
        (self.1)(x, out)
    }

    fn dim(&self) -> usize {
        self.0
    }
}

/// One classic fourth-order Runge–Kutta step of size `dt`, in place:
/// `x` becomes the next state. `k1` must hold `f(x)` — callers that
/// already evaluated the field at `x` (an equilibrium test, say) pass that
/// value instead of paying a fifth evaluation. `scratch` holds the `k2`,
/// `k3`, `k4` stages and the stage argument, so it needs at least
/// `4 * x.len()` slots; the step allocates nothing.
///
/// This is the one RK4 body in the crate: [`rk4_step`], [`integrate`], the
/// reachability oracle and the hybrid-trajectory simulator all step here.
///
/// # Panics
///
/// Panics if `scratch` is shorter than `4 * x.len()`.
pub(crate) fn rk4_advance<F: VectorField + ?Sized>(
    f: &F,
    x: &mut [f64],
    k1: &[f64],
    dt: f64,
    scratch: &mut [f64],
) {
    let n = x.len();
    let (k2, rest) = scratch.split_at_mut(n);
    let (k3, rest) = rest.split_at_mut(n);
    let (k4, rest) = rest.split_at_mut(n);
    let tmp = &mut rest[..n];
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k1[i];
    }
    f.eval(tmp, k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * dt * k2[i];
    }
    f.eval(tmp, k3);
    for i in 0..n {
        tmp[i] = x[i] + dt * k3[i];
    }
    f.eval(tmp, k4);
    // Index `i` reads only `x[i]`, so overwriting `x` in place is safe;
    // `x[i] += e` rounds once, exactly as `x[i] + e` does.
    for i in 0..n {
        x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// One classic fourth-order Runge–Kutta step of size `dt`, returning the
/// next state. A wrapper that allocates the state and stage buffers around
/// the crate's in-place step, so the RK4 arithmetic exists in one place.
pub fn rk4_step<F: VectorField + ?Sized>(f: &F, x: &[f64], dt: f64) -> Vec<f64> {
    let n = x.len();
    let mut k1 = vec![0.0; n];
    f.eval(x, &mut k1);
    let mut next = x.to_vec();
    rk4_advance(f, &mut next, &k1, dt, &mut vec![0.0; 4 * n]);
    next
}

/// One Runge–Kutta–Fehlberg 4(5) step: returns the fifth-order estimate
/// and an error estimate (difference of the embedded orders).
pub fn rkf45_step<F: VectorField + ?Sized>(f: &F, x: &[f64], dt: f64) -> (Vec<f64>, f64) {
    const A: [[f64; 5]; 5] = [
        [1.0 / 4.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [
            -8.0 / 27.0,
            2.0,
            -3544.0 / 2565.0,
            1859.0 / 4104.0,
            -11.0 / 40.0,
        ],
    ];
    const B5: [f64; 6] = [
        16.0 / 135.0,
        0.0,
        6656.0 / 12825.0,
        28561.0 / 56430.0,
        -9.0 / 50.0,
        2.0 / 55.0,
    ];
    const B4: [f64; 6] = [
        25.0 / 216.0,
        0.0,
        1408.0 / 2565.0,
        2197.0 / 4104.0,
        -1.0 / 5.0,
        0.0,
    ];
    let n = x.len();
    let mut k: Vec<Vec<f64>> = Vec::with_capacity(6);
    let mut k0 = vec![0.0; n];
    f.eval(x, &mut k0);
    k.push(k0);
    let mut tmp = vec![0.0; n];
    for a_row in &A {
        for i in 0..n {
            let mut acc = x[i];
            for (j, kj) in k.iter().enumerate() {
                acc += dt * a_row[j] * kj[i];
            }
            tmp[i] = acc;
        }
        let mut ks = vec![0.0; n];
        f.eval(&tmp, &mut ks);
        k.push(ks);
    }
    let mut x5 = vec![0.0; n];
    let mut err = 0.0f64;
    for i in 0..n {
        let mut hi5 = x[i];
        let mut hi4 = x[i];
        for (j, kj) in k.iter().enumerate() {
            hi5 += dt * B5[j] * kj[i];
            hi4 += dt * B4[j] * kj[i];
        }
        x5[i] = hi5;
        err = err.max((hi5 - hi4).abs());
    }
    (x5, err)
}

/// A recorded trajectory.
#[derive(Clone, Debug, Default)]
pub struct Trajectory {
    /// Sample times.
    pub times: Vec<f64>,
    /// Sample states (one per time).
    pub states: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Final state, if any.
    pub fn last(&self) -> Option<(&f64, &Vec<f64>)> {
        self.times.last().zip(self.states.last())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Integrates `f` from `x0` over `[0, t_end]` with fixed RK4 steps,
/// recording every step.
pub fn integrate<F: VectorField + ?Sized>(f: &F, x0: &[f64], t_end: f64, dt: f64) -> Trajectory {
    let mut tr = Trajectory {
        times: vec![0.0],
        states: vec![x0.to_vec()],
    };
    let mut t = 0.0;
    let mut x = x0.to_vec();
    let mut buf = vec![0.0; 5 * x.len()];
    let (k1, scratch) = buf.split_at_mut(x.len());
    while t < t_end - 1e-12 {
        let step = dt.min(t_end - t);
        f.eval(&x, k1);
        rk4_advance(f, &mut x, k1, step, scratch);
        t += step;
        tr.times.push(t);
        tr.states.push(x.clone());
    }
    tr
}

/// Integrates adaptively (RKF45) until `t_end`, keeping the local error
/// below `tol` per step.
pub fn integrate_adaptive<F: VectorField + ?Sized>(
    f: &F,
    x0: &[f64],
    t_end: f64,
    tol: f64,
) -> Trajectory {
    let mut tr = Trajectory {
        times: vec![0.0],
        states: vec![x0.to_vec()],
    };
    let mut t = 0.0;
    let mut x = x0.to_vec();
    let mut dt = (t_end / 100.0).max(1e-6);
    while t < t_end - 1e-12 {
        let step = dt.min(t_end - t);
        let (next, err) = rkf45_step(f, &x, step);
        if err <= tol || step <= 1e-9 {
            x = next;
            t += step;
            tr.times.push(t);
            tr.states.push(x.clone());
            if err < tol / 10.0 {
                dt *= 1.5;
            }
        } else {
            dt *= 0.5;
        }
    }
    tr
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dx/dt = -x: exact solution e^{-t}.
    fn decay() -> (usize, impl Fn(&[f64], &mut [f64])) {
        (1, |x: &[f64], out: &mut [f64]| out[0] = -x[0])
    }

    #[test]
    fn rk4_matches_exponential_decay() {
        let f = decay();
        let tr = integrate(&f, &[1.0], 1.0, 0.01);
        let end = tr.last().unwrap().1[0];
        assert!((end - (-1.0f64).exp()).abs() < 1e-8, "got {end}");
    }

    #[test]
    fn rk4_is_fourth_order() {
        // Halving dt must reduce the error by about 2^4.
        let f = decay();
        let err = |dt: f64| {
            let tr = integrate(&f, &[1.0], 1.0, dt);
            (tr.last().unwrap().1[0] - (-1.0f64).exp()).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        let ratio = e1 / e2;
        assert!(ratio > 10.0 && ratio < 25.0, "order ratio {ratio}");
    }

    /// Harmonic oscillator: energy conservation check.
    #[test]
    fn oscillator_conserves_energy() {
        let f = (2usize, |x: &[f64], out: &mut [f64]| {
            out[0] = x[1];
            out[1] = -x[0];
        });
        let tr = integrate(&f, &[1.0, 0.0], 20.0, 0.01);
        for s in &tr.states {
            let e = s[0] * s[0] + s[1] * s[1];
            assert!((e - 1.0).abs() < 1e-6, "energy {e}");
        }
    }

    #[test]
    fn adaptive_integrator_meets_tolerance() {
        let f = decay();
        let tr = integrate_adaptive(&f, &[1.0], 2.0, 1e-10);
        let end = tr.last().unwrap().1[0];
        assert!((end - (-2.0f64).exp()).abs() < 1e-7, "got {end}");
        // Adaptive stepping should take fewer steps than fixed fine-grid.
        assert!(tr.len() < 2000);
    }

    #[test]
    fn rkf45_error_estimate_is_positive_for_coarse_steps() {
        let f = (1usize, |x: &[f64], out: &mut [f64]| out[0] = x[0]);
        let (_, err) = rkf45_step(&f, &[1.0], 1.0);
        assert!(err > 0.0);
        let (_, err_small) = rkf45_step(&f, &[1.0], 0.01);
        assert!(err_small < err);
    }

    #[test]
    fn trajectory_accessors() {
        let tr = Trajectory::default();
        assert!(tr.is_empty());
        assert!(tr.last().is_none());
        let f = decay();
        let tr = integrate(&f, &[1.0], 0.1, 0.05);
        assert_eq!(tr.len(), 3);
    }
}
