//! Transient modified-nodal-analysis (MNA) engine.
//!
//! Integrates the circuit ODEs with the trapezoidal rule. Linear circuits
//! assemble and factor their MNA matrix once; circuits containing Josephson
//! junctions re-linearize the `Ic sin(phi)` branch each Newton iteration.
//!
//! The junction uses the RSJ model:
//!
//! ```text
//! i = Ic sin(phi) + v / R + C dv/dt,      dphi/dt = 2 pi v / Phi0
//! ```
//!
//! which reproduces SFQ pulse emission: each 2*pi phase slip releases a
//! voltage pulse of area exactly `Phi0`.
//!
//! [`Engine::run`] is the fixed-step dense integrator. Production
//! measurements use the adaptive sparse path ([`crate::adaptive`]); this
//! one stays as the differential oracle that tests and benches compare it
//! against.

// lint:allow-file(index, MNA system indices come from the circuit's node numbering, fixed at build time)

use crate::circuit::{Circuit, Element, NodeId};
use crate::linalg::{LuFactors, Matrix};
use crate::sparse::{SparseMatrix, SparsityPattern};

/// The magnetic flux quantum (Wb), re-declared locally so the engine has no
/// cross-crate dependency on model constants.
pub(crate) const PHI0: f64 = 2.067_833_848e-15;

/// Maximum Newton iterations per timestep.
pub(crate) const MAX_NEWTON: usize = 100;
/// Newton convergence tolerance on voltages (V). SFQ signals are ~mV.
pub(crate) const NEWTON_TOL: f64 = 1e-9;

/// Parameters of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// Simulation end time (s).
    pub stop: f64,
    /// Fixed timestep (s).
    pub step: f64,
}

impl TransientSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `stop` or `step` is not positive, or `step > stop`.
    #[must_use]
    pub fn new(stop: f64, step: f64) -> Self {
        assert!(stop > 0.0 && stop.is_finite(), "stop time must be positive");
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        assert!(step <= stop, "step must not exceed stop time");
        Self { stop, step }
    }
}

/// Errors the engine can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulationError {
    /// The MNA matrix was singular (floating node or short).
    Singular {
        /// Elimination column where the failure occurred.
        column: usize,
    },
    /// Newton failed to converge within the iteration budget.
    NewtonDiverged {
        /// Time at which convergence failed (s).
        time: f64,
    },
}

impl std::fmt::Display for SimulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Singular { column } => {
                write!(f, "singular MNA matrix at column {column} (floating node?)")
            }
            Self::NewtonDiverged { time } => {
                write!(f, "newton iteration diverged at t = {time:e} s")
            }
        }
    }
}

impl std::error::Error for SimulationError {}

impl From<SimulationError> for smart_units::SmartError {
    /// Folds an engine failure into the workspace-wide error type so
    /// higher layers (cell characterization, the circuit cache, the
    /// experiments) can thread one [`smart_units::Result`] end to end.
    fn from(e: SimulationError) -> Self {
        smart_units::SmartError::simulation(e.to_string())
    }
}

smart_units::work_record! {
    /// The work one transient run did, each field named as its `josim.*`
    /// metric. Each run fills one record; [`crate::CircuitCache`] sums the
    /// records of the runs it made.
    pub struct TransientWork {
        counters {
            /// Transient runs (1 in the record of one run).
            runs,
            /// Step attempts, each one trapezoidal solve: the accepted
            /// steps plus the rejected trials.
            trials,
            /// Trials the adaptive engine rejected, on its error estimate
            /// or on a Newton divergence, and retried at a smaller step.
            rejected_trials,
            /// Newton iterations of the junction linearization (0 for a
            /// linear circuit).
            newton_iterations,
            /// Numeric LU factorizations of the MNA matrix.
            refactorizations,
            /// Triangular solves against a factorization.
            linear_solves,
        }
    }
}

/// Recorded result of a transient run.
#[derive(Debug, Clone)]
pub struct Transient {
    times: Vec<f64>,
    probes: Vec<NodeId>,
    /// `voltages[p][k]` = voltage of probe `p` at `times[k]`.
    voltages: Vec<Vec<f64>>,
    dissipated: f64,
    work: TransientWork,
}

impl Transient {
    /// Assembles a recorded run (used by the fixed-step and adaptive
    /// integrators).
    pub(crate) fn from_parts(
        times: Vec<f64>,
        probes: Vec<NodeId>,
        voltages: Vec<Vec<f64>>,
        dissipated: f64,
        work: TransientWork,
    ) -> Self {
        Self {
            times,
            probes,
            voltages,
            dissipated,
            work,
        }
    }

    /// The work this run did.
    #[must_use]
    pub fn work(&self) -> TransientWork {
        self.work
    }

    /// Sample times (s).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The probed nodes, in request order.
    #[must_use]
    pub fn probes(&self) -> &[NodeId] {
        &self.probes
    }

    /// Voltage trace of probe `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn voltage(&self, p: usize) -> &[f64] {
        &self.voltages[p]
    }

    /// Total energy dissipated in resistive elements over the run (J).
    #[must_use]
    pub fn dissipated_energy(&self) -> f64 {
        self.dissipated
    }

    /// Cumulative flux (time integral of voltage, Wb) of probe `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn flux(&self, p: usize) -> Vec<f64> {
        let v = &self.voltages[p];
        let mut out = Vec::with_capacity(v.len());
        let mut acc = 0.0;
        out.push(0.0);
        for k in 1..v.len() {
            let h = self.times[k] - self.times[k - 1];
            acc += 0.5 * (v[k] + v[k - 1]) * h;
            out.push(acc);
        }
        out
    }

    /// Time at which the cumulative flux of probe `p` first reaches
    /// `threshold` (linear interpolation), or `None` if it never does.
    ///
    /// Crossing half a flux quantum marks the passage of an SFQ pulse, which
    /// is how pulse arrival (and hence line delay) is measured.
    ///
    /// A trace that touches the threshold *exactly* at a sample reports that
    /// sample's time (not one sample late), and a threshold at or below the
    /// initial flux (in particular `threshold <= 0.0`, since flux starts at
    /// zero) reports the first sample time.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn flux_crossing(&self, p: usize, threshold: f64) -> Option<f64> {
        let flux = self.flux(p);
        let j = flux.iter().position(|&f| f >= threshold)?;
        if j == 0 {
            return Some(self.times[0]);
        }
        // flux[j - 1] < threshold <= flux[j] by construction of `j`, so the
        // interpolation denominator is strictly positive.
        let frac = (threshold - flux[j - 1]) / (flux[j] - flux[j - 1]);
        Some(self.times[j - 1] + frac * (self.times[j] - self.times[j - 1]))
    }

    /// Number of full SFQ pulses (flux quanta) that passed probe `p` by the
    /// end of the run, counting from `t = 0`.
    ///
    /// Note: the total includes *all* flux through the probe — in a
    /// DC-biased circuit that includes the sub-quantum flux accumulated
    /// while the bias settles the junction phases. Use
    /// [`Transient::pulse_count_after`] with a settle time to count only
    /// the switching events after biasing.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pulse_count(&self, p: usize) -> u32 {
        // lint:allow(panic_freedom, traces hold one sample per completed step and the initial point)
        let total = *self.flux(p).last().expect("non-empty trace");
        (total / PHI0).round().max(0.0) as u32
    }

    /// Number of full SFQ pulses (flux quanta) that passed probe `p` after
    /// `settle`: the flux accumulated up to the first sample at or past
    /// `settle` is treated as the DC-bias settle baseline and subtracted
    /// before rounding. A `settle` past the end of the trace counts zero
    /// pulses.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pulse_count_after(&self, p: usize, settle: f64) -> u32 {
        let flux = self.flux(p);
        let Some(base_idx) = self.times.iter().position(|&t| t >= settle) else {
            return 0;
        };
        // lint:allow(panic_freedom, traces hold one sample per completed step and the initial point)
        let total = flux.last().expect("non-empty trace") - flux[base_idx];
        (total / PHI0).round().max(0.0) as u32
    }
}

// Per-element integration state.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CapState {
    pub(crate) v: f64,
    pub(crate) i: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IndState {
    pub(crate) i: f64,
    pub(crate) v: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JjState {
    pub(crate) phi: f64,
    pub(crate) v: f64,
    pub(crate) i_cap: f64,
}

/// The trapezoidal companion-model state of every reactive element, in
/// element order. One accepted step of size `h` advances all of them
/// together.
#[derive(Debug, Clone, Default)]
pub(crate) struct ElementStates {
    pub(crate) caps: Vec<CapState>,
    pub(crate) inds: Vec<IndState>,
    pub(crate) jjs: Vec<JjState>,
}

impl ElementStates {
    /// Zero-initialized states sized for `circuit`.
    pub(crate) fn for_circuit(circuit: &Circuit) -> Self {
        let mut s = Self::default();
        for e in circuit.elements() {
            match e {
                Element::Capacitor { .. } => s.caps.push(CapState::default()),
                Element::Inductor { .. } => s.inds.push(IndState::default()),
                Element::Junction { .. } => s.jjs.push(JjState::default()),
                _ => {}
            }
        }
        s
    }
}

/// Anything an MNA stamp can target: the dense oracle matrix, the sparse
/// engine matrix, or the pattern collector that performs the one-time
/// symbolic dry run.
pub(crate) trait Stamp {
    fn add(&mut self, row: usize, col: usize, value: f64);
}

impl Stamp for Matrix {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        Matrix::add(self, row, col, value);
    }
}

impl Stamp for SparseMatrix {
    fn add(&mut self, row: usize, col: usize, value: f64) {
        SparseMatrix::add(self, row, col, value);
    }
}

/// Records stamp positions instead of values: one dry-run stamp pass over
/// the circuit yields the engine's static sparsity pattern.
#[derive(Debug, Default)]
pub(crate) struct PatternCollector {
    pub(crate) positions: Vec<(usize, usize)>,
}

impl Stamp for PatternCollector {
    fn add(&mut self, row: usize, col: usize, _value: f64) {
        self.positions.push((row, col));
    }
}

/// The transient engine for one circuit.
#[derive(Debug)]
pub struct Engine {
    circuit: Circuit,
    /// MNA unknown count: (nodes - 1) voltages + one current per inductor.
    unknowns: usize,
    inductor_branch: Vec<usize>,
}

impl Engine {
    /// Prepares an engine for the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has no non-ground node.
    #[must_use]
    pub fn new(circuit: Circuit) -> Self {
        assert!(circuit.node_count() > 1, "circuit has no non-ground node");
        let n_volt = circuit.node_count() - 1;
        let mut inductor_branch = Vec::new();
        let mut next = n_volt;
        for e in circuit.elements() {
            if matches!(e, Element::Inductor { .. }) {
                inductor_branch.push(next);
                next += 1;
            }
        }
        Self {
            circuit,
            unknowns: next,
            inductor_branch,
        }
    }

    /// Number of MNA unknowns.
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.unknowns
    }

    /// The circuit this engine simulates.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The static MNA sparsity pattern: one symbolic dry run of every stamp
    /// the engine will ever perform (linear stamps and the junction
    /// sin-branch linearization hit the same positions, so the pattern is
    /// timestep- and Newton-iteration-invariant).
    #[must_use]
    pub fn mna_pattern(&self) -> SparsityPattern {
        let mut collector = PatternCollector::default();
        self.stamp_linear(&mut collector, 1.0);
        SparsityPattern::from_positions(self.unknowns, &collector.positions)
    }

    /// Runs a transient simulation, recording the requested probe nodes.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::Singular`] for ill-formed circuits and
    /// [`SimulationError::NewtonDiverged`] if the junction iteration fails.
    ///
    /// # Panics
    ///
    /// Panics if a probe node does not belong to the circuit.
    pub fn run(
        &self,
        spec: TransientSpec,
        probes: &[NodeId],
    ) -> Result<Transient, SimulationError> {
        for p in probes {
            assert!(
                p.index() < self.circuit.node_count(),
                "probe node {} does not exist",
                p.index()
            );
        }
        let h = spec.step;
        let steps = (spec.stop / h).ceil() as usize;
        let nonlinear = self.circuit.is_nonlinear();
        let mut work = TransientWork {
            runs: 1,
            ..TransientWork::default()
        };

        // Integration state.
        let mut states = ElementStates::for_circuit(&self.circuit);

        // For linear circuits the matrix never changes: factor once. (The
        // clamped final step, if `stop` is not a multiple of `step`, uses
        // its own shorter-step factorization below.)
        let linear_factors: Option<LuFactors> = if nonlinear {
            None
        } else {
            let mut m = Matrix::zeros(self.unknowns);
            self.stamp_linear(&mut m, h);
            work.refactorizations += 1;
            Some(
                m.lu()
                    .map_err(|s| SimulationError::Singular { column: s.column })?,
            )
        };

        let mut x = vec![0.0; self.unknowns];
        let mut times = Vec::with_capacity(steps + 1);
        let mut voltages: Vec<Vec<f64>> = vec![Vec::with_capacity(steps + 1); probes.len()];
        times.push(0.0);
        for (pi, p) in probes.iter().enumerate() {
            voltages[pi].push(self.node_voltage(&x, *p));
        }
        let mut dissipated = 0.0;
        let mut t_prev = 0.0;

        for k in 1..=steps {
            // Clamp the final step so the trace (and the dissipation
            // integral) lands exactly on `stop` instead of overshooting to
            // `h * ceil(stop / h)`. Full-length steps keep using `h`
            // verbatim so runs with divisible `stop / step` are unchanged.
            let t_unclamped = h * k as f64;
            let (t, hk) = if t_unclamped <= spec.stop {
                (t_unclamped, h)
            } else {
                (spec.stop, spec.stop - t_prev)
            };
            if hk <= 0.0 {
                // `ceil` rounding artifact: the previous step already
                // reached `stop` exactly.
                break;
            }
            work.trials += 1;
            let x_new = if nonlinear {
                self.solve_nonlinear(t, hk, &x, &states, &mut work)?
            } else if hk == h {
                let rhs = self.rhs_linear(t, h, &states);
                work.linear_solves += 1;
                // lint:allow(panic_freedom, the factors were computed for h before the stepping loop entered this branch)
                linear_factors.as_ref().expect("factored").solve(&rhs)
            } else {
                // Clamped final step: the companion conductances depend on
                // the step size, so refactor for `hk`.
                let mut m = Matrix::zeros(self.unknowns);
                self.stamp_linear(&mut m, hk);
                let factors = m
                    .lu()
                    .map_err(|s| SimulationError::Singular { column: s.column })?;
                work.refactorizations += 1;
                work.linear_solves += 1;
                factors.solve(&self.rhs_linear(t, hk, &states))
            };

            dissipated += self.commit_step(&x_new, hk, &mut states);
            x = x_new;
            t_prev = t;
            times.push(t);
            for (pi, p) in probes.iter().enumerate() {
                voltages[pi].push(self.node_voltage(&x, *p));
            }
        }

        Ok(Transient {
            times,
            probes: probes.to_vec(),
            voltages,
            dissipated,
            work,
        })
    }

    /// Advances every element's companion state past an accepted solve of
    /// step size `h`, returning the resistive energy dissipated during the
    /// step. Shared by the fixed-step and adaptive paths. Junction
    /// dissipation is integrated by the trapezoid rule over the step's two
    /// end voltages: the adaptive engine's long quiescent steps make the
    /// one-sided rectangle rule's error visible in cell energies.
    pub(crate) fn commit_step(&self, x_new: &[f64], h: f64, states: &mut ElementStates) -> f64 {
        let mut dissipated = 0.0;
        let mut ci = 0;
        let mut ii = 0;
        let mut ji = 0;
        let mut br = 0;
        for e in self.circuit.elements() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    let v = self.node_voltage(x_new, *a) - self.node_voltage(x_new, *b);
                    dissipated += v * v / ohms * h;
                }
                Element::Capacitor { a, b, farads } => {
                    let v = self.node_voltage(x_new, *a) - self.node_voltage(x_new, *b);
                    let geq = 2.0 * farads / h;
                    let s = &mut states.caps[ci];
                    let i = geq * (v - s.v) - s.i;
                    s.v = v;
                    s.i = i;
                    ci += 1;
                }
                Element::Inductor { a, b, .. } => {
                    let v = self.node_voltage(x_new, *a) - self.node_voltage(x_new, *b);
                    let s = &mut states.inds[ii];
                    s.i = x_new[self.inductor_branch[br]];
                    s.v = v;
                    ii += 1;
                    br += 1;
                }
                Element::Junction {
                    a,
                    b,
                    resistance,
                    capacitance,
                    ..
                } => {
                    let v = self.node_voltage(x_new, *a) - self.node_voltage(x_new, *b);
                    let s = &mut states.jjs[ji];
                    let phi_new = s.phi + std::f64::consts::PI * h / PHI0 * (v + s.v);
                    let geq = 2.0 * capacitance / h;
                    let i_cap = geq * (v - s.v) - s.i_cap;
                    // The supercurrent is lossless: a junction dissipates
                    // v^2/R in its shunt during the phase slip.
                    dissipated += (v * v + s.v * s.v) / (2.0 * resistance) * h;
                    s.phi = phi_new;
                    s.v = v;
                    s.i_cap = i_cap;
                    ji += 1;
                }
                Element::CurrentSource { .. } => {}
            }
        }
        dissipated
    }

    pub(crate) fn node_voltage(&self, x: &[f64], n: NodeId) -> f64 {
        if n.index() == 0 {
            0.0
        } else {
            x[n.index() - 1]
        }
    }

    fn volt_index(&self, n: NodeId) -> Option<usize> {
        if n.index() == 0 {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Stamps everything whose conductance is constant: resistors,
    /// capacitors (companion conductance), inductors (branch rows), and the
    /// R/C parts of junctions.
    pub(crate) fn stamp_linear<M: Stamp>(&self, m: &mut M, h: f64) {
        let mut br = 0;
        for e in self.circuit.elements() {
            match e {
                Element::Resistor { a, b, ohms } => {
                    self.stamp_conductance(m, *a, *b, 1.0 / ohms);
                }
                Element::Capacitor { a, b, farads } => {
                    self.stamp_conductance(m, *a, *b, 2.0 * farads / h);
                }
                Element::Inductor { a, b, henries } => {
                    let j = self.inductor_branch[br];
                    br += 1;
                    if let Some(ia) = self.volt_index(*a) {
                        m.add(ia, j, 1.0);
                        m.add(j, ia, 1.0);
                    }
                    if let Some(ib) = self.volt_index(*b) {
                        m.add(ib, j, -1.0);
                        m.add(j, ib, -1.0);
                    }
                    m.add(j, j, -2.0 * henries / h);
                }
                Element::Junction {
                    a,
                    b,
                    resistance,
                    capacitance,
                    ..
                } => {
                    self.stamp_conductance(m, *a, *b, 1.0 / resistance + 2.0 * capacitance / h);
                }
                Element::CurrentSource { .. } => {}
            }
        }
    }

    pub(crate) fn stamp_conductance<M: Stamp>(&self, m: &mut M, a: NodeId, b: NodeId, g: f64) {
        if let Some(ia) = self.volt_index(a) {
            m.add(ia, ia, g);
        }
        if let Some(ib) = self.volt_index(b) {
            m.add(ib, ib, g);
        }
        if let (Some(ia), Some(ib)) = (self.volt_index(a), self.volt_index(b)) {
            m.add(ia, ib, -g);
            m.add(ib, ia, -g);
        }
    }

    pub(crate) fn rhs_inject(&self, rhs: &mut [f64], a: NodeId, b: NodeId, current_into_a: f64) {
        if let Some(ia) = self.volt_index(a) {
            rhs[ia] += current_into_a;
        }
        if let Some(ib) = self.volt_index(b) {
            rhs[ib] -= current_into_a;
        }
    }

    /// Builds the RHS for the linear (and linear-part) companion sources at
    /// time `t`.
    fn rhs_linear(&self, t: f64, h: f64, states: &ElementStates) -> Vec<f64> {
        let mut rhs = vec![0.0; self.unknowns];
        self.rhs_linear_into(t, h, states, &mut rhs);
        rhs
    }

    /// [`Engine::rhs_linear`] into a caller-provided buffer (the adaptive
    /// path's allocation-free variant).
    pub(crate) fn rhs_linear_into(&self, t: f64, h: f64, states: &ElementStates, rhs: &mut [f64]) {
        rhs.fill(0.0);
        let mut ci = 0;
        let mut ii = 0;
        let mut br = 0;
        for e in self.circuit.elements() {
            match e {
                Element::Capacitor { a, b, farads } => {
                    let s = states.caps[ci];
                    ci += 1;
                    let geq = 2.0 * farads / h;
                    // i = geq*v - (geq*v_prev + i_prev): equivalent current
                    // source geq*v_prev + i_prev flowing into node a.
                    self.rhs_inject(rhs, *a, *b, geq * s.v + s.i);
                }
                Element::Inductor { a, b, henries } => {
                    let s = states.inds[ii];
                    ii += 1;
                    let j = self.inductor_branch[br];
                    br += 1;
                    let _ = (a, b);
                    rhs[j] = -(2.0 * henries / h) * s.i - s.v;
                }
                Element::CurrentSource { from, to, waveform } => {
                    self.rhs_inject(rhs, *to, *from, waveform.at(t));
                }
                _ => {}
            }
        }
    }

    /// Adds the junction companion sources and sin-branch linearization
    /// around the voltage guess `x` to an already linear-stamped system.
    /// Shared by the dense and sparse Newton loops.
    pub(crate) fn stamp_junctions<M: Stamp>(
        &self,
        m: &mut M,
        rhs: &mut [f64],
        h: f64,
        x: &[f64],
        states: &ElementStates,
    ) {
        let mut ji = 0;
        for e in self.circuit.elements() {
            if let Element::Junction {
                a,
                b,
                ic,
                capacitance,
                ..
            } = e
            {
                let s = states.jjs[ji];
                ji += 1;
                let v_star = self.node_voltage(x, *a) - self.node_voltage(x, *b);
                let dphi_dv = std::f64::consts::PI * h / PHI0;
                let phi_star = s.phi + dphi_dv * (v_star + s.v);
                let g_sin = ic * phi_star.cos() * dphi_dv;
                let i_sin_star = ic * phi_star.sin();
                // i_sin(v) ~= i_sin_star + g_sin (v - v_star)
                self.stamp_conductance(m, *a, *b, g_sin);
                self.rhs_inject(rhs, *a, *b, -(i_sin_star - g_sin * v_star));
                // Capacitor companion of the junction capacitance.
                let geq = 2.0 * capacitance / h;
                self.rhs_inject(rhs, *a, *b, geq * s.v + s.i_cap);
            }
        }
    }

    fn solve_nonlinear(
        &self,
        t: f64,
        h: f64,
        x_prev: &[f64],
        states: &ElementStates,
        work: &mut TransientWork,
    ) -> Result<Vec<f64>, SimulationError> {
        let mut x = x_prev.to_vec();
        for _ in 0..MAX_NEWTON {
            let mut m = Matrix::zeros(self.unknowns);
            self.stamp_linear(&mut m, h);
            let mut rhs = self.rhs_linear(t, h, states);
            self.stamp_junctions(&mut m, &mut rhs, h, &x, states);

            let factors = m
                .lu()
                .map_err(|s| SimulationError::Singular { column: s.column })?;
            let x_new = factors.solve(&rhs);
            work.newton_iterations += 1;
            work.refactorizations += 1;
            work.linear_solves += 1;
            let delta = x_new
                .iter()
                .zip(x.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            x = x_new;
            if delta < NEWTON_TOL {
                return Ok(x);
            }
        }
        Err(SimulationError::NewtonDiverged { time: t })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::waveform::Waveform;

    #[test]
    fn rc_charging_matches_analytic() {
        // 1 mA DC into R=1k || C=1nF: v(t) = IR (1 - e^{-t/RC}), tau = 1 us.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 1000.0);
        ckt.capacitor(n, Circuit::GROUND, 1e-9);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(5e-6, 5e-9), &[n])
            .expect("runs");
        let v_end = *out.voltage(0).last().unwrap();
        assert!((v_end - 1.0).abs() < 0.01, "v_end = {v_end}");
        // At t = tau, v = 1 - 1/e ~= 0.632.
        let k_tau = (1e-6 / 5e-9) as usize;
        let v_tau = out.voltage(0)[k_tau];
        assert!((v_tau - 0.632).abs() < 0.01, "v_tau = {v_tau}");
    }

    #[test]
    fn rl_current_ramp_matches_analytic() {
        // DC 1 V-equivalent: 1 mA source into R || L; inductor current
        // approaches source current with tau = L/R.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 10.0);
        ckt.inductor(n, Circuit::GROUND, 1e-6);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        // tau = 0.1 us; simulate 1 us.
        let out = engine
            .run(TransientSpec::new(1e-6, 1e-9), &[n])
            .expect("runs");
        // Node voltage decays to ~0 as the inductor shorts the source.
        let v_end = *out.voltage(0).last().unwrap();
        assert!(v_end.abs() < 1e-4, "v_end = {v_end}");
        // Initially the resistor carries everything: v(0+) ~= 10 mV.
        let v_start = out.voltage(0)[1];
        assert!((v_start - 1e-2).abs() < 2e-3, "v_start = {v_start}");
    }

    #[test]
    fn lc_resonance_frequency() {
        // Pulse-excite an LC tank; measure oscillation period via zero
        // crossings. f = 1/(2 pi sqrt(LC)); L = 1 uH, C = 1 nF => ~5.03 MHz.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.inductor(n, Circuit::GROUND, 1e-6);
        ckt.capacitor(n, Circuit::GROUND, 1e-9);
        // Large parallel R to keep matrix nonsingular but ~lossless.
        ckt.resistor(n, Circuit::GROUND, 1e6);
        ckt.current_source(Circuit::GROUND, n, Waveform::gaussian(1e-3, 20e-9, 5e-9));
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(2e-6, 0.5e-9), &[n])
            .expect("runs");
        // Count zero crossings after the pulse (t > 100 ns).
        let v = out.voltage(0);
        let t = out.times();
        let mut crossings = Vec::new();
        for k in 1..v.len() {
            if t[k] > 100e-9 && v[k - 1] < 0.0 && v[k] >= 0.0 {
                crossings.push(t[k]);
            }
        }
        assert!(crossings.len() >= 3, "need oscillations");
        let period = (crossings[crossings.len() - 1] - crossings[0]) / (crossings.len() - 1) as f64;
        let f = 1.0 / period;
        let expected = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let err = (f - expected).abs() / expected;
        assert!(err < 0.02, "f = {f:e}, expected {expected:e}");
    }

    #[test]
    fn junction_emits_single_flux_quantum() {
        // Bias a JJ at 0.8 Ic, kick it with a current pulse: exactly one
        // 2*pi phase slip => output flux integral ~= Phi0.
        let ic = 100e-6;
        let r = 3.0;
        let c = PHI0 / (2.0 * std::f64::consts::PI * ic * r * r); // beta_c = 1
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.junction(n, Circuit::GROUND, ic, r, c);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(0.8 * ic));
        ckt.current_source(
            Circuit::GROUND,
            n,
            Waveform::gaussian(0.5 * ic, 20e-12, 2e-12),
        );
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(60e-12, 0.02e-12), &[n])
            .expect("runs");
        assert_eq!(out.pulse_count(0), 1, "exactly one SFQ pulse expected");
        // The switching event itself releases one flux quantum: counting
        // from a settle baseline excludes the sub-quantum flux the DC bias
        // accumulated while tilting the phase from 0 to asin(0.8).
        assert_eq!(out.pulse_count_after(0, 10e-12), 1);
    }

    #[test]
    fn junction_below_threshold_stays_quiet() {
        let ic = 100e-6;
        let r = 3.0;
        let c = PHI0 / (2.0 * std::f64::consts::PI * ic * r * r);
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.junction(n, Circuit::GROUND, ic, r, c);
        // Bias + pulse stays below Ic: no switching.
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(0.5 * ic));
        ckt.current_source(
            Circuit::GROUND,
            n,
            Waveform::gaussian(0.2 * ic, 20e-12, 2e-12),
        );
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(60e-12, 0.02e-12), &[n])
            .expect("runs");
        assert_eq!(out.pulse_count(0), 0);
    }

    #[test]
    fn dissipation_accounts_resistor_loss() {
        // DC 1 mA through 1 kohm for 1 us: E = I^2 R t = 1e-6*1e3*1e-6 = 1e-9 J.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 1000.0);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(1e-6, 1e-9), &[n])
            .expect("runs");
        let e = out.dissipated_energy();
        assert!((e - 1e-9).abs() / 1e-9 < 0.01, "E = {e:e}");
    }

    #[test]
    fn floating_node_reports_singular() {
        let mut ckt = Circuit::new();
        let a = ckt.node();
        let b = ckt.node();
        // b is floating: capacitor to a only... actually a capacitor still
        // stamps conductance; use an inductor pair creating a singular loop
        // instead: two parallel ideal inductors between same nodes is fine.
        // A truly floating node: allocate c with no elements.
        let _c = ckt.node();
        ckt.resistor(a, b, 10.0);
        ckt.current_source(Circuit::GROUND, a, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        let err = engine.run(TransientSpec::new(1e-9, 1e-12), &[a]);
        assert!(matches!(err, Err(SimulationError::Singular { .. })));
    }

    #[test]
    #[should_panic(expected = "probe node 9 does not exist")]
    fn bad_probe_panics() {
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 1.0);
        let engine = Engine::new(ckt);
        let _ = engine.run(
            TransientSpec::new(1e-9, 1e-12),
            &[crate::circuit::NodeId(9)],
        );
    }

    #[test]
    #[should_panic(expected = "step must not exceed stop")]
    fn bad_spec_panics() {
        let _ = TransientSpec::new(1e-12, 1e-9);
    }

    #[test]
    fn final_step_clamps_to_stop() {
        // stop = 1.05 us with step = 0.1 us: 10 full steps plus one clamped
        // half-step. The seed engine overshot to 1.1 us; the trace (and the
        // dissipation integral) must now end exactly at `stop`.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 1000.0);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        let out = engine
            .run(TransientSpec::new(1.05e-6, 0.1e-6), &[n])
            .expect("runs");
        let t_end = *out.times().last().unwrap();
        assert!(
            (t_end - 1.05e-6).abs() < 1e-18,
            "trace must end at stop, got {t_end:e}"
        );
        assert!(out.times().windows(2).all(|w| w[1] > w[0]));
        // Dissipation integrates I^2 R over exactly `stop`:
        // 1e-6 A^2 * 1e3 ohm * 1.05e-6 s = 1.05e-9 J.
        let e = out.dissipated_energy();
        assert!((e - 1.05e-9).abs() / 1.05e-9 < 1e-6, "E = {e:e}");
    }

    #[test]
    fn final_step_clamps_with_reactive_elements() {
        // The clamped step must also rebuild the companion conductances
        // (they depend on h), not just truncate the time axis: an RC charge
        // with a non-divisible stop/step still matches the analytic value.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.resistor(n, Circuit::GROUND, 1000.0);
        ckt.capacitor(n, Circuit::GROUND, 1e-9);
        ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
        let engine = Engine::new(ckt);
        // tau = 1 us; stop / step = 666.67 steps.
        let out = engine
            .run(TransientSpec::new(2e-6, 3e-9), &[n])
            .expect("runs");
        let t_end = *out.times().last().unwrap();
        assert!((t_end - 2e-6).abs() < 1e-18, "got {t_end:e}");
        let v_end = *out.voltage(0).last().unwrap();
        let analytic = 1.0 - (-2.0f64).exp();
        assert!((v_end - analytic).abs() < 0.01, "v_end = {v_end}");
    }

    #[test]
    fn flux_crossing_exact_sample_touch_not_late() {
        // A constant 1 V probe: flux(t) = t, sampled every 1 s. A threshold
        // hit exactly at sample k must report t = k, not k + 1.
        let tr = Transient {
            times: vec![0.0, 1.0, 2.0, 3.0],
            probes: vec![NodeId(1)],
            voltages: vec![vec![1.0, 1.0, 1.0, 1.0]],
            dissipated: 0.0,
            work: TransientWork::default(),
        };
        // flux = [0, 1, 2, 3]
        let t = tr.flux_crossing(0, 2.0).expect("crosses");
        assert!((t - 2.0).abs() < 1e-12, "exact touch reported at {t}");
        // Mid-interval crossing still interpolates.
        let t = tr.flux_crossing(0, 1.5).expect("crosses");
        assert!((t - 1.5).abs() < 1e-12);
        // Beyond the trace: no crossing.
        assert!(tr.flux_crossing(0, 3.5).is_none());
    }

    #[test]
    fn flux_crossing_at_or_below_start_reports_t0() {
        let tr = Transient {
            times: vec![0.0, 1.0, 2.0],
            probes: vec![NodeId(1)],
            voltages: vec![vec![1.0, 1.0, 1.0]],
            dissipated: 0.0,
            work: TransientWork::default(),
        };
        // Flux starts at zero: thresholds at or below zero are already met.
        assert_eq!(tr.flux_crossing(0, 0.0), Some(0.0));
        assert_eq!(tr.flux_crossing(0, -1.0), Some(0.0));
    }

    #[test]
    fn pulse_count_after_subtracts_settle_baseline() {
        // Flux ramps to 0.4 Phi0 during "settle", then a pulse adds 1 Phi0.
        let phi0_v = PHI0; // 1 s samples => volts are webers here.
        let tr = Transient {
            times: vec![0.0, 1.0, 2.0, 3.0],
            probes: vec![NodeId(1)],
            voltages: vec![vec![0.8 * phi0_v, 0.0, 2.0 * phi0_v, 0.0]],
            dissipated: 0.0,
            work: TransientWork::default(),
        };
        // Trapezoid flux: [0, 0.4, 1.4, 2.4] Phi0.
        assert_eq!(tr.pulse_count(0), 2, "total rounds settle flux in");
        assert_eq!(tr.pulse_count_after(0, 1.0), 2);
        // Settle time past the trace end: nothing counted.
        assert_eq!(tr.pulse_count_after(0, 10.0), 0);
    }
}
