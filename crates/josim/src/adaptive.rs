//! Adaptive-timestep transient integration over the sparse MNA core.
//!
//! The fixed-step engine in [`crate::engine`] resolves a 60 ps SFQ run at
//! the 0.02 ps step the *switching events* need, even though the junctions
//! sit quiescent for most of the run. This module drives the same stamps
//! through [`crate::sparse`] with predictor–corrector local-truncation-error
//! (LTE) control instead:
//!
//! * every trial step is one trapezoidal solve. A quadratic predictor
//!   through the last three accepted points seeds Newton, and the gap
//!   between the solve (the corrector) and the prediction over the node
//!   voltages estimates the trapezoid's LTE (Milne's device): with `h1`
//!   and `h2` the two previous steps,
//!   `LTE = max|x_c - x_p| * h^2 / (2 (h + h1) (h + h1 + h2))`;
//! * a run's first two steps have no history to predict from: they are
//!   single unestimated solves at [`AdaptiveSpec::h_init`];
//! * the LTE scales as `h^3`, so step sizes follow the cube-root rule: the
//!   step shrinks through JJ phase slips (where the sine branch makes the
//!   solution stiff) and grows geometrically through quiescent stretches,
//!   bounded by [`AdaptiveSpec::h_max`];
//! * a Newton divergence at some `h` is treated as "step too large", not
//!   failure: the step shrinks and retries until [`AdaptiveSpec::h_min`];
//! * the per-step `h` is threaded through every companion model and the
//!   dissipation integral (the same `commit_step` the fixed-step path
//!   uses).
//!
//! All numeric scratch lives in a reusable [`Workspace`] — the sparsity
//! pattern and its symbolic LU are analyzed once per engine, and repeated
//! runs (parameter sweeps re-simulating the same topology) allocate
//! nothing beyond the returned trace.

// lint:allow-file(index, step-history indices are bounded by the ring length beside them)

use crate::circuit::NodeId;
use crate::engine::{
    ElementStates, Engine, SimulationError, Transient, TransientWork, MAX_NEWTON, NEWTON_TOL,
};
use crate::sparse::{SingularMatrix, SparseLu, SparseMatrix, SymbolicLu};

/// Parameters of an adaptive transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Simulation end time (s).
    pub stop: f64,
    /// Initial step size (s).
    pub h_init: f64,
    /// Smallest step the controller may take (s). Reaching it forces
    /// acceptance (the error floor of the method).
    pub h_min: f64,
    /// Largest step the controller may take (s). Bounds how far the engine
    /// coasts through quiescent stretches (and how much of a narrow input
    /// pulse a single step could leap over).
    pub h_max: f64,
    /// Per-step LTE tolerance on node voltages (V).
    pub tol: f64,
}

impl AdaptiveSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < h_min <= h_init <= h_max <= stop` and
    /// `tol > 0`, all finite.
    #[must_use]
    pub fn new(stop: f64, h_init: f64, h_min: f64, h_max: f64, tol: f64) -> Self {
        assert!(stop > 0.0 && stop.is_finite(), "stop time must be positive");
        assert!(h_min > 0.0 && h_min.is_finite(), "h_min must be positive");
        assert!(
            h_min <= h_init && h_init <= h_max,
            "need h_min <= h_init <= h_max"
        );
        assert!(h_max <= stop, "h_max must not exceed stop time");
        assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
        Self {
            stop,
            h_init,
            h_min,
            h_max,
            tol,
        }
    }

    /// Defaults for picosecond-scale SFQ circuits: start at 0.05 ps, floor
    /// at 0.1 as, cap at 1 ps (narrower than any SFQ input pulse, so a
    /// quiescent coast cannot leap over one), and a 0.2 uV per-step LTE
    /// tolerance (~0.03% of the ~mV pulse peak), tight enough that pulse
    /// counts and crossing times match the 0.02 ps fixed-step oracle within
    /// 1%. It is half the 0.4 uV that step doubling used, because the
    /// predictor–corrector estimate misses more switchings at 0.4 uV: over
    /// 5,000 single-junction bias/kick cases it leaves 10 kicks unswitched
    /// that the 0.01 ps fixed-step oracle switches (step doubling at
    /// 0.4 uV: 6; this tolerance: 4 of those 6), each the smallest
    /// switching kick of its bias to 0.001 Ic.
    ///
    /// # Panics
    ///
    /// Panics if `stop` is not at least a picosecond.
    #[must_use]
    pub fn sfq(stop: f64) -> Self {
        assert!(stop >= 1e-12, "SFQ runs are picosecond-scale");
        Self::new(stop, 0.05e-12, 1e-19, 1.0e-12, 2e-7)
    }
}

/// Reusable per-engine numeric scratch: the stamped sparse matrix and its
/// LU factorization, the RHS and solution buffers, the last three accepted
/// solutions the predictor extrapolates, and the committed element states.
#[derive(Debug)]
pub struct Workspace {
    a: SparseMatrix,
    /// Cached linear-stamp values for `base_h` (the junction linearization
    /// is re-added on top each Newton iteration).
    base_values: Vec<f64>,
    base_h: f64,
    lu: SparseLu,
    /// Step size of the linear circuit's factors in `lu` (NaN = none); a
    /// nonlinear circuit refactors every Newton iteration.
    lu_h: f64,
    rhs_base: Vec<f64>,
    rhs: Vec<f64>,
    /// Accepted solutions, newest first: `x_n`, `x_{n-1}`, `x_{n-2}`.
    history: [Vec<f64>; 3],
    /// The accepted step sizes ending at `x_n` and at `x_{n-1}`.
    history_h: [f64; 2],
    /// The trial's Newton seed, then its iterate and solution.
    x_new: Vec<f64>,
    /// The trial's prediction, kept for the error estimate.
    predicted: Vec<f64>,
    states: ElementStates,
}

impl Workspace {
    fn new(engine: &Engine) -> Self {
        let pattern = engine.mna_pattern();
        let symbolic = SymbolicLu::analyze(&pattern);
        let n = pattern.dim();
        let a = SparseMatrix::zeros(pattern);
        Self {
            base_values: vec![0.0; a.values().len()],
            base_h: f64::NAN,
            lu: SparseLu::new(symbolic),
            lu_h: f64::NAN,
            rhs_base: vec![0.0; n],
            rhs: vec![0.0; n],
            history: [vec![0.0; n], vec![0.0; n], vec![0.0; n]],
            history_h: [f64::NAN; 2],
            x_new: vec![0.0; n],
            predicted: vec![0.0; n],
            a,
            states: ElementStates::for_circuit(engine.circuit()),
        }
    }

    /// Resets all numeric state for a fresh run (buffers keep their
    /// allocations). The older history points and step sizes need no
    /// reset: a run predicts only after two accepted steps rewrote them.
    fn reset(&mut self) {
        self.base_h = f64::NAN;
        self.lu_h = f64::NAN;
        self.history[0].fill(0.0);
        self.states
            .caps
            .iter_mut()
            .for_each(|s| *s = Default::default());
        self.states
            .inds
            .iter_mut()
            .for_each(|s| *s = Default::default());
        self.states
            .jjs
            .iter_mut()
            .for_each(|s| *s = Default::default());
    }

    /// Extrapolates the quadratic through the three accepted solutions to
    /// a step `h` past the newest into `predicted`, and returns Milne's
    /// factor `h^2 / (2 (h + h1) (h + h1 + h2))` that turns the
    /// corrector–predictor gap into the trapezoid's LTE.
    fn predict(&mut self, h: f64) -> f64 {
        let [h1, h2] = self.history_h;
        // Lagrange weights of x_n, x_{n-1}, x_{n-2} at t_n + h.
        let w0 = (h + h1) * (h + h1 + h2) / (h1 * (h1 + h2));
        let w1 = -h * (h + h1 + h2) / (h1 * h2);
        let w2 = h * (h + h1) / (h2 * (h1 + h2));
        let [x0, x1, x2] = &self.history;
        for (p, ((a, b), c)) in self.predicted.iter_mut().zip(x0.iter().zip(x1).zip(x2)) {
            *p = w0 * a + w1 * b + w2 * c;
        }
        h * h / (2.0 * (h + h1) * (h + h1 + h2))
    }

    /// Makes the trial solution in `x_new` the newest accepted point, `h`
    /// after the previous one.
    fn accept(&mut self, h: f64) {
        self.history.rotate_right(1);
        std::mem::swap(&mut self.history[0], &mut self.x_new);
        self.history_h = [h, self.history_h[0]];
    }
}

impl Engine {
    /// Analyzes the circuit's sparsity pattern (symbolic stamps + fill-in)
    /// and allocates the numeric scratch for adaptive runs. Reuse the
    /// returned workspace across runs of the same engine via
    /// [`Engine::run_adaptive_with`] to amortize all allocation.
    #[must_use]
    pub fn prepare_workspace(&self) -> Workspace {
        Workspace::new(self)
    }

    /// Runs an adaptive-timestep transient with a fresh workspace.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::Singular`] for ill-formed circuits, and
    /// [`SimulationError::NewtonDiverged`] only if the junction iteration
    /// still fails at [`AdaptiveSpec::h_min`].
    ///
    /// # Panics
    ///
    /// Panics if a probe node does not belong to the circuit.
    pub fn run_adaptive(
        &self,
        spec: AdaptiveSpec,
        probes: &[NodeId],
    ) -> Result<Transient, SimulationError> {
        let mut ws = self.prepare_workspace();
        self.run_adaptive_with(spec, probes, &mut ws)
    }

    /// [`Engine::run_adaptive`] reusing a previously prepared workspace:
    /// repeated runs allocate nothing beyond the returned trace.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_adaptive`].
    ///
    /// # Panics
    ///
    /// Panics if a probe node does not belong to the circuit or the
    /// workspace was prepared for a different circuit topology.
    pub fn run_adaptive_with(
        &self,
        spec: AdaptiveSpec,
        probes: &[NodeId],
        ws: &mut Workspace,
    ) -> Result<Transient, SimulationError> {
        for p in probes {
            assert!(
                p.index() < self.circuit().node_count(),
                "probe node {} does not exist",
                p.index()
            );
        }
        assert_eq!(
            ws.a.dim(),
            self.unknown_count(),
            "workspace belongs to a different circuit"
        );
        ws.reset();
        let mut work = TransientWork {
            runs: 1,
            ..TransientWork::default()
        };

        let mut times = Vec::new();
        let mut voltages: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
        times.push(0.0);
        for (pi, p) in probes.iter().enumerate() {
            voltages[pi].push(self.node_voltage(&ws.history[0], *p));
        }

        let n_volt = self.circuit().node_count() - 1;
        let mut dissipated = 0.0;
        let mut t = 0.0;
        let mut h = spec.h_init.min(spec.stop);
        // Remainders below the step floor are snapped onto `stop` so the
        // trace always ends there exactly.
        let snap = 0.5 * spec.h_min;

        while t < spec.stop {
            h = h.clamp(spec.h_min, spec.h_max).min(spec.stop - t);
            // The predictor needs three accepted points: the first two
            // steps start Newton from the last solution and go unestimated.
            let estimated = times.len() >= 3;
            let est = loop {
                if spec.stop - (t + h) < snap {
                    h = spec.stop - t;
                }
                let milne = if estimated {
                    let milne = ws.predict(h);
                    ws.x_new.copy_from_slice(&ws.predicted);
                    Some(milne)
                } else {
                    ws.x_new.copy_from_slice(&ws.history[0]);
                    None
                };
                match (self.solve_step(t + h, h, ws, &mut work), milne) {
                    (Ok(()), None) => break None,
                    (Ok(()), Some(milne)) => {
                        let gap = max_abs_diff(&ws.x_new[..n_volt], &ws.predicted[..n_volt]);
                        let est = milne * gap;
                        if est <= spec.tol || h <= spec.h_min * (1.0 + 1e-12) {
                            break Some(est);
                        }
                        work.rejected_trials += 1;
                        h = (h * step_factor(spec.tol, est).clamp(0.1, 0.5)).max(spec.h_min);
                    }
                    (Err(SimulationError::NewtonDiverged { .. }), _) if h > spec.h_min => {
                        // A JJ switching edge the current step leapt over:
                        // shrink hard and retry.
                        work.rejected_trials += 1;
                        h = (h * 0.25).max(spec.h_min);
                    }
                    (Err(e), _) => return Err(e),
                }
            };

            dissipated += self.commit_step(&ws.x_new, h, &mut ws.states);
            ws.accept(h);
            t += h;
            times.push(t);
            for (pi, p) in probes.iter().enumerate() {
                voltages[pi].push(self.node_voltage(&ws.history[0], *p));
            }

            // Grow (or keep) the step for the next interval; the unestimated
            // opening steps keep theirs.
            if let Some(est) = est {
                h *= step_factor(spec.tol, est).clamp(0.2, 2.0);
            }
        }

        Ok(Transient::from_parts(
            times,
            probes.to_vec(),
            voltages,
            dissipated,
            work,
        ))
    }

    /// Solves one trial: a trapezoidal step to `t_new` of size `h` from
    /// the committed states, starting Newton from `ws.x_new` and leaving
    /// the solution there. Nothing is committed — the caller accepts or
    /// retries.
    fn solve_step(
        &self,
        t_new: f64,
        h: f64,
        ws: &mut Workspace,
        work: &mut TransientWork,
    ) -> Result<(), SimulationError> {
        work.trials += 1;
        // Refresh the cached linear stamp if the step size changed.
        if ws.base_h != h {
            ws.a.clear();
            self.stamp_linear(&mut ws.a, h);
            ws.base_values.copy_from_slice(ws.a.values());
            ws.base_h = h;
        }
        self.rhs_linear_into(t_new, h, &ws.states, &mut ws.rhs_base);
        let singular = |s: SingularMatrix| SimulationError::Singular { column: s.column };

        if !self.circuit().is_nonlinear() {
            // `a` holds exactly the linear stamp for `base_h == h` here.
            if ws.lu_h != h {
                ws.lu.refactor(&ws.a).map_err(singular)?;
                ws.lu_h = h;
                work.refactorizations += 1;
            }
            ws.x_new.copy_from_slice(&ws.rhs_base);
            ws.lu.solve_in_place(&mut ws.x_new);
            work.linear_solves += 1;
            return Ok(());
        }

        // Newton: re-stamp the junction linearization over the cached
        // linear values, refactor the same symbolic pattern in place,
        // iterate to convergence.
        for _ in 0..MAX_NEWTON {
            ws.a.values_mut().copy_from_slice(&ws.base_values);
            ws.rhs.copy_from_slice(&ws.rhs_base);
            self.stamp_junctions(&mut ws.a, &mut ws.rhs, h, &ws.x_new, &ws.states);
            ws.lu.refactor(&ws.a).map_err(singular)?;
            ws.lu.solve_in_place(&mut ws.rhs);
            work.newton_iterations += 1;
            work.refactorizations += 1;
            work.linear_solves += 1;
            let delta = max_abs_diff(&ws.rhs, &ws.x_new);
            std::mem::swap(&mut ws.rhs, &mut ws.x_new);
            if delta < NEWTON_TOL {
                return Ok(());
            }
        }
        Err(SimulationError::NewtonDiverged { time: t_new })
    }
}

/// The cube-root step-size rule: the trapezoid's LTE scales as `h^3`, so
/// the step that would meet `tol` is `h * (tol / est)^(1/3)`, taken with a
/// 0.9 safety margin (infinite for a zero estimate). Callers clamp the
/// factor.
fn step_factor(tol: f64, est: f64) -> f64 {
    0.9 * (tol / est).cbrt()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::engine::PHI0;
    use crate::waveform::Waveform;

    /// A 60 ps adaptive run of `ckt` probing `n`, with its accepted steps.
    fn run(ckt: Circuit, n: NodeId) -> (Transient, u64) {
        let out = Engine::new(ckt)
            .run_adaptive(AdaptiveSpec::sfq(60e-12), &[n])
            .expect("runs");
        let steps = out.times().len() as u64 - 1;
        (out, steps)
    }

    #[test]
    fn each_trial_is_one_solve() {
        // Every solve counts a trial, so a second solve per step attempt
        // breaks `trials == steps + rejected_trials`.
        // Linear: an RC node driven by an SFQ-width current pulse; each
        // trial is one triangular solve.
        let mut rc = Circuit::new();
        let n = rc.node();
        rc.resistor(n, Circuit::GROUND, 3.0);
        rc.capacitor(n, Circuit::GROUND, 0.2e-12);
        rc.current_source(Circuit::GROUND, n, Waveform::gaussian(1e-4, 20e-12, 2e-12));
        let (out, steps) = run(rc, n);
        let w = out.work();
        assert_eq!(w.runs, 1);
        assert_eq!(w.trials - w.rejected_trials, steps, "{w:?}");
        assert_eq!(w.linear_solves, w.trials, "{w:?}");
        assert_eq!(w.newton_iterations, 0);

        // Nonlinear: one junction, biased at 0.8 Ic and kicked into one
        // phase slip. Each Newton iteration is one refactorization and one
        // solve.
        let ic = 100e-6;
        let r = 3.0;
        let c = PHI0 / (2.0 * std::f64::consts::PI * ic * r * r);
        let mut jj = Circuit::new();
        let n = jj.node();
        jj.junction(n, Circuit::GROUND, ic, r, c);
        jj.current_source(Circuit::GROUND, n, Waveform::dc(0.8 * ic));
        jj.current_source(
            Circuit::GROUND,
            n,
            Waveform::gaussian(0.5 * ic, 20e-12, 2e-12),
        );
        let (out, steps) = run(jj, n);
        let w = out.work();
        assert_eq!(out.pulse_count_after(0, 10e-12), 1);
        assert_eq!(w.trials - w.rejected_trials, steps, "{w:?}");
        assert_eq!(w.refactorizations, w.newton_iterations, "{w:?}");
        assert_eq!(w.linear_solves, w.newton_iterations, "{w:?}");
        assert!(w.newton_iterations >= w.trials, "{w:?}");
    }
}
