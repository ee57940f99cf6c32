//! `josim-lite`: a transient superconductor circuit simulator.
//!
//! The SMART paper validates its analytic SFQ H-Tree model against JoSIM, a
//! SPICE-class superconductor simulator (Fig. 13). This crate is the
//! reproduction's JoSIM substitute: a modified-nodal-analysis transient
//! engine with trapezoidal integration, supporting resistors, capacitors,
//! inductors, time-dependent current sources, and RSJ-model Josephson
//! junctions (`i = Ic sin(phi) + v/R + C dv/dt`).
//!
//! The fixture layer builds discretized lossless-LC PTL ladders straight
//! from [`smart_sfq::ptl::PtlGeometry`] so the analytic Eq. 1-4 model and
//! the circuit-level simulation share exactly the same physical parameters.
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
pub mod fixtures;
pub mod linalg;
pub mod sparse;
pub mod waveform;

pub use adaptive::{AdaptiveSpec, Workspace};
pub use cache::CircuitCache;
pub use cells::{characterize, CellMeasurement, CellSpec};
pub use circuit::{Circuit, Element, NodeId};
pub use engine::{Engine, SimulationError, Transient, TransientSpec};
pub use fixtures::{validate_ptl_model, PtlFixture, PtlMeasurement, ValidationPoint};
pub use smart_units::{Result, SmartError};
pub use sparse::{SparseLu, SparseMatrix, SparsityPattern, SymbolicLu};
pub use waveform::Waveform;
