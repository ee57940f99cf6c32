//! Circuit-level realization of the SFQ cell specs and their
//! characterization measurements.
//!
//! [`smart_sfq::cells`] describes *what* to characterize (typed, hashable
//! JTL-chain / splitter-tree / PTL-link specs derived from the analytic
//! component models); this module builds the corresponding netlists and
//! measures them with the adaptive sparse engine:
//!
//! * **JTL chain** — `stages` shunted junctions, each DC-biased at
//!   `bias * Ic`, coupled by `beta_L = 3 pi / 4` inductors. One input pulse
//!   ripples down the chain; delay per stage is validated against the
//!   closed-form [`smart_sfq::jtl::Jtl`] model (~2 ps/stage).
//! * **Splitter fan-out tree** — a binary tree of the same junctions with
//!   interior junctions sized up to drive two branches; one input pulse
//!   must arrive exactly once at every leaf.
//! * **PTL link** — a matched-source, matched-load lossless LC ladder,
//!   measured against the Eq. 4 closed-form delay. The Fig. 13 validation
//!   and the `josim_ptl` characterization read the same cached links.
//!
//! Measurements are settle-aware: the DC bias tilts every junction phase
//! at `t = 0`, so pulse counts use [`Transient::pulse_count_after`] and
//! arrival thresholds are offset by the flux already accumulated at the
//! settle point.

// lint:allow-file(index, node ids are assigned sequentially by the same constructors that index them)

use crate::adaptive::{AdaptiveSpec, Workspace};
use crate::circuit::{Circuit, NodeId};
use crate::engine::{Engine, Transient, TransientSpec, TransientWork, PHI0};
use crate::waveform::Waveform;
use smart_sfq::cells::{JtlChainSpec, PtlLinkSpec, SplitterFanoutSpec};
use smart_units::Result;

/// Bias settle margin before the input pulse is injected (s): long enough
/// for the `beta_c = 1` junctions to damp their phase-settling ringing.
const SETTLE: f64 = 20e-12;

/// Width (sigma) of the injected SFQ-shaped input pulse (s).
const PULSE_SIGMA: f64 = 2e-12;

/// Length of one PTL ladder LC section (nm): 40 sections per mm keeps the
/// discretization (Bragg) cutoff far above the SFQ pulse bandwidth while
/// keeping matrices small.
const PTL_SECTION_NM: u64 = 25_000;

/// Minimum number of LC sections for very short lines.
const PTL_MIN_SECTIONS: usize = 8;

/// Width (sigma) of the SFQ-shaped current pulse driving a PTL ladder (s):
/// ~2 ps FWHM.
const PTL_PULSE_SIGMA: f64 = 1e-12;

/// The fixed step matched to the seed engine's JJ runs, used by
/// [`CellCircuit::measure_fixed`] as the dense-oracle reference.
pub const ORACLE_STEP: f64 = 0.02e-12;

/// Any cell the characterization suite can measure. The enum is the cache
/// key of [`crate::cache::CircuitCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellSpec {
    /// A Josephson transmission line chain.
    Jtl(JtlChainSpec),
    /// A binary splitter fan-out tree.
    Fanout(SplitterFanoutSpec),
    /// A passive transmission line link.
    Ptl(PtlLinkSpec),
}

/// What one characterization run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMeasurement {
    /// Input-to-output pulse arrival delay (s): time between the
    /// settle-offset half-quantum flux crossings of the input and (last)
    /// output probe.
    pub delay: f64,
    /// `delay` divided by the number of hops (JTL inductor hops, tree
    /// depth, or 1 for a PTL link).
    pub delay_per_hop: f64,
    /// Fewest SFQ pulses any output saw after settle (1 for a healthy
    /// cell — 0 means some output never fired).
    pub min_output_pulses: u32,
    /// Most SFQ pulses any output saw after settle (1 for a healthy cell
    /// — 2+ means an output double-pulsed, e.g. a reflection re-switched
    /// a leaf junction). A cell delivered exactly one pulse everywhere
    /// iff `min_output_pulses == 1 && max_output_pulses == 1`.
    pub max_output_pulses: u32,
    /// Total resistive dissipation of the run (J).
    pub dissipated_energy: f64,
    /// Accepted integration steps (trace samples minus one). Each is one
    /// solve, but rejected trials and Newton iterations are not in it: the
    /// run's [`TransientWork`] counters measure its cost.
    pub steps: usize,
}

impl CellMeasurement {
    /// True iff every output saw exactly one SFQ pulse — the digital
    /// health criterion for all characterization cells.
    #[must_use]
    pub fn delivered_exactly_one(&self) -> bool {
        self.min_output_pulses == 1 && self.max_output_pulses == 1
    }
}

/// A cell netlist prepared for measurement: the engine, its probe nodes,
/// and the timing the measurement extraction needs.
#[derive(Debug)]
pub struct CellCircuit {
    engine: Engine,
    /// Probed nodes: input first, then every output.
    probes: Vec<NodeId>,
    /// Simulation end time (s).
    stop: f64,
    /// Bias settle time (s); the input pulse fires after this.
    settle: f64,
    /// Hop count dividing the end-to-end delay.
    hops: u32,
}

impl CellCircuit {
    /// Builds the netlist for a spec.
    #[must_use]
    pub fn build(spec: &CellSpec) -> Self {
        match spec {
            CellSpec::Jtl(s) => Self::build_jtl(s),
            CellSpec::Fanout(s) => Self::build_fanout(s),
            CellSpec::Ptl(s) => Self::build_ptl(s),
        }
    }

    fn build_jtl(spec: &JtlChainSpec) -> Self {
        let ic = spec.ic();
        let r = spec.shunt_resistance();
        let c = spec.junction_capacitance();
        let l = spec.coupling_inductance();
        let bias = spec.bias_current();

        let mut ckt = Circuit::new();
        let nodes: Vec<NodeId> = (0..spec.stages).map(|_| ckt.node()).collect();
        for (k, &n) in nodes.iter().enumerate() {
            ckt.junction(n, Circuit::GROUND, ic, r, c);
            ckt.current_source(Circuit::GROUND, n, Waveform::dc(bias));
            if k + 1 < nodes.len() {
                ckt.inductor(n, nodes[k + 1], l);
            }
        }
        // Input kick: a full-Ic Gaussian — part of it leaks into the chain
        // through the coupling inductor, so the margin over `Ic - bias`
        // must be generous for the first junction to switch.
        ckt.current_source(
            Circuit::GROUND,
            nodes[0],
            Waveform::gaussian(ic, SETTLE + 3.0 * PULSE_SIGMA, PULSE_SIGMA),
        );

        let hops = spec.stages - 1;
        // Settle + pulse flight + ~4 ps per hop of propagation margin.
        let stop = SETTLE + 6.0 * PULSE_SIGMA + 4e-12 * f64::from(spec.stages) + 20e-12;
        Self {
            engine: Engine::new(ckt),
            // lint:allow(panic_freedom, the spec validator rejects stages < 2, so the node list is non-empty)
            probes: vec![nodes[0], *nodes.last().expect("stages >= 2")],
            stop,
            settle: SETTLE,
            hops,
        }
    }

    fn build_fanout(spec: &SplitterFanoutSpec) -> Self {
        let ic = spec.ic();
        let r = spec.shunt_resistance();
        let c = spec.junction_capacitance();
        let l = spec.coupling_inductance();
        let depth = spec.depth();

        // A perfect binary tree, level by level. Interior junctions drive
        // two branches, so they are sized up 1.4x and biased hotter
        // (0.8 Ic): a split halves the flux kick each branch receives, and
        // the hotter interior bias restores the switching margin — the
        // standard splitter sizing. The spec's bias applies to the leaves.
        let mut ckt = Circuit::new();
        let mut level: Vec<NodeId> = vec![ckt.node()];
        let root = level[0];
        let mut all_levels = vec![level.clone()];
        for _ in 0..depth {
            let mut next = Vec::with_capacity(level.len() * 2);
            for &parent in &level {
                for _ in 0..2 {
                    let child = ckt.node();
                    ckt.inductor(parent, child, l);
                    next.push(child);
                }
            }
            level = next;
            all_levels.push(level.clone());
        }
        const INTERIOR_SCALE: f64 = 1.4;
        const INTERIOR_BIAS: f64 = 0.8;
        for (li, nodes) in all_levels.iter().enumerate() {
            let interior = li < all_levels.len() - 1;
            let (scale, bias) = if interior {
                (INTERIOR_SCALE, INTERIOR_SCALE * INTERIOR_BIAS * ic)
            } else {
                (1.0, spec.bias_current())
            };
            for &n in nodes {
                ckt.junction(n, Circuit::GROUND, scale * ic, r / scale, c * scale);
                ckt.current_source(Circuit::GROUND, n, Waveform::dc(bias));
            }
        }
        ckt.current_source(
            Circuit::GROUND,
            root,
            Waveform::gaussian(INTERIOR_SCALE * ic, SETTLE + 3.0 * PULSE_SIGMA, PULSE_SIGMA),
        );

        let mut probes = vec![root];
        // lint:allow(panic_freedom, the tree builder always pushes the root level first)
        probes.extend(all_levels.last().expect("non-empty tree"));
        let stop = SETTLE + 6.0 * PULSE_SIGMA + 6e-12 * f64::from(depth + 1) + 20e-12;
        Self {
            engine: Engine::new(ckt),
            probes,
            stop,
            settle: SETTLE,
            hops: depth.max(1),
        }
    }

    /// The matched-source, matched-load LC ladder: a Gaussian SFQ-shaped
    /// current pulse into a source resistor `Z`, [`ptl_sections`] LC
    /// sections, and a matched termination.
    ///
    /// # Panics
    ///
    /// Panics if the link has zero length.
    fn build_ptl(spec: &PtlLinkSpec) -> Self {
        assert!(spec.length_nm > 0, "PTL length must be positive");
        let geometry = spec.geometry();
        let length = spec.length();
        let sections = ptl_sections(spec.length_nm);
        let l_sec = geometry.inductance_per_meter() * length.as_m() / sections as f64;
        let c_sec = geometry.capacitance_per_meter() * length.as_m() / sections as f64;
        let z = geometry.impedance();

        let mut ckt = Circuit::new();
        let input = ckt.node();
        // SFQ pulse source: the source resistor Z and the line impedance Z
        // form a 2:1 divider, so a current pulse of area 2*Phi0/Z launches a
        // voltage pulse of flux area ~Phi0 onto the line.
        let area = 2.0 * PHI0 / z; // ampere-seconds
        let amplitude = area / (PTL_PULSE_SIGMA * (2.0 * std::f64::consts::PI).sqrt());
        ckt.current_source(
            Circuit::GROUND,
            input,
            Waveform::gaussian(amplitude, 6.0 * PTL_PULSE_SIGMA, PTL_PULSE_SIGMA),
        );
        // Source matching resistor (the PTL driver's output resistance).
        ckt.resistor(input, Circuit::GROUND, z);
        let mut output = input;
        for _ in 0..sections {
            let next = ckt.node();
            ckt.inductor(output, next, l_sec);
            ckt.capacitor(next, Circuit::GROUND, c_sec);
            output = next;
        }
        // Matched termination at the receiver.
        ckt.resistor(output, Circuit::GROUND, z);

        let stop = 20e-12 + 3.0 * spec.closed_form_delay();
        Self {
            engine: Engine::new(ckt),
            probes: vec![input, output],
            // The ladder has no DC bias: no settle flux to exclude.
            settle: 0.0,
            stop,
            hops: 1,
        }
    }

    /// The prepared engine (exposed so benchmarks can drive both the
    /// adaptive and the fixed-step path over identical netlists).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Simulation end time (s).
    #[must_use]
    pub fn stop(&self) -> f64 {
        self.stop
    }

    /// Measures the cell with the adaptive sparse engine, reusing `ws`;
    /// returns the measurement and the run's work record.
    ///
    /// # Errors
    ///
    /// Propagates engine failures as
    /// [`smart_units::SmartError::Simulation`].
    pub fn measure_adaptive(&self, ws: &mut Workspace) -> Result<(CellMeasurement, TransientWork)> {
        let out = self
            .engine
            .run_adaptive_with(AdaptiveSpec::sfq(self.stop), &self.probes, ws)?;
        Ok((self.extract(&out), out.work()))
    }

    /// Measures the cell with the seed fixed-step dense engine at
    /// [`ORACLE_STEP`] — the accuracy/performance reference.
    ///
    /// # Errors
    ///
    /// Propagates engine failures as
    /// [`smart_units::SmartError::Simulation`].
    pub fn measure_fixed(&self) -> Result<CellMeasurement> {
        let out = self
            .engine
            .run(TransientSpec::new(self.stop, ORACLE_STEP), &self.probes)?;
        Ok(self.extract(&out))
    }

    /// Extracts the measurement from a recorded run: settle-offset
    /// half-quantum crossings for arrival, settle-aware pulse counts, and
    /// the dissipation integral.
    fn extract(&self, out: &Transient) -> CellMeasurement {
        let t_in = self.arrival(out, 0).unwrap_or(self.settle);
        let mut t_out_last = t_in;
        let mut min_pulses = u32::MAX;
        let mut max_pulses = 0;
        for p in 1..self.probes.len() {
            let t_p = self.arrival(out, p).unwrap_or(t_in);
            t_out_last = t_out_last.max(t_p);
            let pulses = out.pulse_count_after(p, self.settle);
            min_pulses = min_pulses.min(pulses);
            max_pulses = max_pulses.max(pulses);
        }
        let delay = (t_out_last - t_in).max(0.0);
        CellMeasurement {
            delay,
            delay_per_hop: delay / f64::from(self.hops),
            min_output_pulses: min_pulses,
            max_output_pulses: max_pulses,
            dissipated_energy: out.dissipated_energy(),
            steps: out.times().len().saturating_sub(1),
        }
    }

    /// Pulse arrival at probe `p`: the time the cumulative flux crosses
    /// its settle baseline plus half a flux quantum.
    fn arrival(&self, out: &Transient, p: usize) -> Option<f64> {
        let flux = out.flux(p);
        let base_idx = out.times().iter().position(|&t| t >= self.settle)?;
        out.flux_crossing(p, flux[base_idx] + 0.5 * PHI0)
    }
}

/// LC sections of a PTL ladder `length_nm` long: one per started 25 µm,
/// at least [`PTL_MIN_SECTIONS`]. Counted in whole nanometres, so float
/// noise (`PtlLinkSpec::from_mm(0.6).length().as_mm()` is
/// 0.6000000000000001) cannot add a section to a line that is a whole
/// number of sections long.
fn ptl_sections(length_nm: u64) -> usize {
    (length_nm.div_ceil(PTL_SECTION_NM) as usize).max(PTL_MIN_SECTIONS)
}

/// Builds and measures a cell with the adaptive sparse engine, returning
/// the measurement and the run's work record (the uncached entry point;
/// sweeps go through [`crate::cache::CircuitCache`]).
///
/// # Errors
///
/// Propagates engine failures as [`smart_units::SmartError::Simulation`].
pub fn characterize(spec: &CellSpec) -> Result<(CellMeasurement, TransientWork)> {
    let cell = CellCircuit::build(spec);
    let mut ws = cell.engine.prepare_workspace();
    cell.measure_adaptive(&mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jtl_chain_propagates_one_pulse() {
        let spec = CellSpec::Jtl(JtlChainSpec::standard(4));
        let (m, _) = characterize(&spec).expect("simulates");
        assert!(m.delivered_exactly_one(), "exactly one pulse must arrive");
        assert!(m.delay > 0.0, "output fires after input");
        assert!(m.dissipated_energy > 0.0);
    }

    #[test]
    fn jtl_delay_per_stage_matches_closed_form() {
        // The tentpole validation: the simulated per-stage delay of the
        // standard chain tracks the analytic Jtl model's 2 ps/stage.
        let spec = JtlChainSpec::standard(8);
        let (m, _) = characterize(&CellSpec::Jtl(spec)).expect("simulates");
        let model = spec.closed_form_stage_delay().as_s();
        let err = (m.delay_per_hop - model).abs() / model;
        assert!(
            err < 0.25,
            "simulated {:.2} ps/stage vs model {:.2} ps/stage ({:.0}% off)",
            m.delay_per_hop * 1e12,
            model * 1e12,
            err * 100.0
        );
    }

    #[test]
    fn longer_chains_have_proportionally_longer_delays() {
        let (short, _) = characterize(&CellSpec::Jtl(JtlChainSpec::standard(4))).unwrap();
        let (long, _) = characterize(&CellSpec::Jtl(JtlChainSpec::standard(8))).unwrap();
        // 7 hops vs 3 hops => ~2.3x delay.
        assert!(long.delay > 1.8 * short.delay);
        assert!(long.dissipated_energy > short.dissipated_energy);
    }

    #[test]
    fn fanout_tree_reaches_every_leaf_once() {
        let spec = CellSpec::Fanout(SplitterFanoutSpec::standard(4));
        let (m, _) = characterize(&spec).expect("simulates");
        assert!(
            m.delivered_exactly_one(),
            "every leaf sees exactly one pulse (min {}, max {})",
            m.min_output_pulses,
            m.max_output_pulses
        );
        assert!(m.delay > 0.0);
    }

    #[test]
    fn ptl_link_matches_closed_form_delay() {
        // Paper Fig. 13a: the model matches JoSIM within +-6%.
        let mut previous = 0.0;
        for mm in [0.1, 0.2, 0.3, 0.4, 0.6, 0.8] {
            let spec = PtlLinkSpec::from_mm(mm);
            let (m, _) = characterize(&CellSpec::Ptl(spec)).expect("simulates");
            let model = spec.closed_form_delay();
            let err = (m.delay - model).abs() / model;
            assert!(
                err < 0.06,
                "{mm} mm: simulated {:.2} ps vs model {:.2} ps",
                m.delay * 1e12,
                model * 1e12
            );
            assert!(
                m.delivered_exactly_one(),
                "{mm} mm: one flux quantum arrives"
            );
            assert!(m.delay > previous, "{mm} mm: longer lines are slower");
            previous = m.delay;
        }
    }

    #[test]
    fn section_count_scales_with_length() {
        let sections = |mm| {
            let cell = CellCircuit::build(&CellSpec::Ptl(PtlLinkSpec::from_mm(mm)));
            let elements = cell.engine().circuit().elements();
            elements
                .iter()
                .filter(|e| matches!(e, crate::circuit::Element::Inductor { .. }))
                .count()
        };
        assert_eq!(sections(0.05), PTL_MIN_SECTIONS);
        assert!(sections(1.0) > sections(0.05));
        // Exactly 40 per mm: a float ceil of 0.6000000000000001 mm x 40
        // built 25 sections.
        assert_eq!(sections(0.3), 12);
        assert_eq!(sections(0.6), 24);
    }

    #[test]
    fn adaptive_takes_fewer_steps_than_the_oracle() {
        // A JTL chain and the five Fig. 13 PTL links.
        let specs = std::iter::once(CellSpec::Jtl(JtlChainSpec::standard(4)))
            .chain([0.1, 0.2, 0.4, 0.6, 0.8].map(|mm| CellSpec::Ptl(PtlLinkSpec::from_mm(mm))));
        for spec in specs {
            let cell = CellCircuit::build(&spec);
            let mut ws = cell.engine().prepare_workspace();
            let (adaptive, _) = cell.measure_adaptive(&mut ws).expect("adaptive runs");
            let fixed = cell.measure_fixed().expect("fixed runs");
            assert!(
                adaptive.steps * 2 < fixed.steps,
                "{spec:?}: adaptive {} steps vs fixed {}",
                adaptive.steps,
                fixed.steps
            );
            // And agrees with the oracle where it counts.
            assert_eq!(adaptive.min_output_pulses, fixed.min_output_pulses);
            assert_eq!(adaptive.max_output_pulses, fixed.max_output_pulses);
            let rel = |a: f64, b: f64| (a - b).abs() / b;
            assert!(
                rel(adaptive.delay, fixed.delay) < 0.01
                    && rel(adaptive.dissipated_energy, fixed.dissipated_energy) < 0.01,
                "{spec:?}: adaptive {adaptive:?} vs fixed {fixed:?}"
            );
        }
    }

    #[test]
    fn workspace_reuse_across_specs_of_same_topology() {
        // Same stage count, different bias: one workspace serves both.
        let a = CellCircuit::build(&CellSpec::Jtl(JtlChainSpec::new(4, 100_000, 700)));
        let b = CellCircuit::build(&CellSpec::Jtl(JtlChainSpec::new(4, 100_000, 650)));
        let mut ws = a.engine().prepare_workspace();
        let (ma, _) = a.measure_adaptive(&mut ws).expect("a runs");
        let (mb, _) = b.measure_adaptive(&mut ws).expect("b runs");
        assert!(ma.delivered_exactly_one());
        assert!(mb.delivered_exactly_one());
        assert_ne!(ma.delay, mb.delay, "bias changes the stage delay");
    }
}
