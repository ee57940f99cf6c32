//! `josim-lite`: a transient superconductor circuit simulator.
//!
//! The SMART paper validates its analytic SFQ H-Tree model against JoSIM, a
//! SPICE-class superconductor simulator (Fig. 13). This crate is the
//! reproduction's JoSIM substitute: a modified-nodal-analysis transient
//! engine with trapezoidal integration, supporting resistors, capacitors,
//! inductors, time-dependent current sources, and RSJ-model Josephson
//! junctions (`i = Ic sin(phi) + v/R + C dv/dt`).
//!
//! Production measurements run the adaptive sparse engine ([`adaptive`])
//! over the characterization cells ([`cells`]) through the memoized,
//! persistable [`CircuitCache`]. The PTL cell is a discretized lossless LC
//! ladder built straight from [`smart_sfq::ptl::PtlGeometry`], so the
//! analytic Eq. 1-4 model and the circuit-level simulation share exactly
//! the same physical parameters. The fixed-step dense engine
//! ([`Engine::run`], [`linalg`]) is the differential oracle the tests and
//! benches compare the adaptive engine against.
//!
//! # Quick start
//!
//! ```
//! use smart_josim::circuit::Circuit;
//! use smart_josim::engine::{Engine, TransientSpec};
//! use smart_josim::waveform::Waveform;
//!
//! # fn main() -> Result<(), smart_josim::engine::SimulationError> {
//! // RC low-pass driven by a DC source.
//! let mut ckt = Circuit::new();
//! let n = ckt.node();
//! ckt.resistor(n, Circuit::GROUND, 1_000.0);
//! ckt.capacitor(n, Circuit::GROUND, 1e-9);
//! ckt.current_source(Circuit::GROUND, n, Waveform::dc(1e-3));
//!
//! let out = Engine::new(ckt).run(TransientSpec::new(5e-6, 5e-9), &[n])?;
//! assert!((out.voltage(0).last().unwrap() - 1.0).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod cache;
pub mod cells;
pub mod circuit;
pub mod engine;
pub mod linalg;
pub mod sparse;
pub mod waveform;

pub use adaptive::Workspace;
pub use cache::CircuitCache;
pub use cells::{characterize, CellMeasurement, CellSpec};
pub use circuit::{Circuit, Element, NodeId};
pub use engine::{Engine, SimulationError, Transient, TransientSpec, TransientWork};
pub use smart_units::{Result, SmartError};
pub use sparse::{SparseLu, SparseMatrix, SparsityPattern, SymbolicLu};
pub use waveform::Waveform;

/// Fig. 13 checks on the fixed-step oracle: the dense engine at
/// [`cells::ORACLE_STEP`], run over the production PTL ladder, must meet the
/// paper's bands on its own, so the adaptive engine's differential tests
/// compare against a reference that is itself right.
#[cfg(test)]
mod fixtures {
    mod tests {
        use crate::cells::{CellCircuit, CellMeasurement, CellSpec, ORACLE_STEP};
        use crate::circuit::NodeId;
        use crate::engine::{TransientSpec, PHI0};
        use smart_sfq::cells::PtlLinkSpec;

        fn link(mm: f64) -> CellCircuit {
            CellCircuit::build(&CellSpec::Ptl(PtlLinkSpec::from_mm(mm)))
        }

        fn oracle(mm: f64) -> CellMeasurement {
            link(mm).measure_fixed().expect("simulates")
        }

        #[test]
        fn ladder_delay_tracks_analytic_within_6_percent() {
            // Paper Fig. 13a: the model matches JoSIM within +-6%.
            for mm in [0.3, 0.6] {
                let model = PtlLinkSpec::from_mm(mm).closed_form_delay();
                let m = oracle(mm);
                let err = (m.delay - model).abs() / model;
                assert!(
                    err < 0.06,
                    "delay error {:.1}% at {mm} mm (analytic {:.2} ps, simulated {:.2} ps)",
                    err * 100.0,
                    model * 1e12,
                    m.delay * 1e12
                );
            }
        }

        #[test]
        fn ladder_energy_tracks_analytic_within_11_percent() {
            // Paper Fig. 13b: energies match within +-11%. The ladder's
            // Gaussian source current (area 2*Phi0/Z, sigma 1 ps) sees Z/2
            // (the source resistor in parallel with the matched line), so
            // it dissipates E = (2*Phi0/Z)^2 / (2 sigma sqrt(pi)) * Z/2.
            let mm = 0.3;
            let z = PtlLinkSpec::from_mm(mm).geometry().impedance();
            let sigma = 1e-12;
            let analytic =
                (2.0 * PHI0 / z).powi(2) / (2.0 * sigma * std::f64::consts::PI.sqrt()) * (z / 2.0);
            let err = (oracle(mm).dissipated_energy - analytic).abs() / analytic;
            assert!(err < 0.11, "energy error {:.1}% at {mm} mm", err * 100.0);
        }

        #[test]
        fn one_flux_quantum_arrives() {
            let cell = link(0.4);
            // The ladder's matched termination hangs off its last node.
            let output = NodeId(cell.engine().circuit().node_count() - 1);
            let out = cell
                .engine()
                .run(TransientSpec::new(cell.stop(), ORACLE_STEP), &[output])
                .expect("simulates");
            let quanta = out.flux(0).last().copied().unwrap_or(0.0) / PHI0;
            assert!((quanta - 1.0).abs() < 0.1, "got {quanta} Phi0");
        }

        #[test]
        fn longer_lines_have_longer_delays() {
            assert!(oracle(0.6).delay > oracle(0.2).delay * 2.0);
        }
    }
}
