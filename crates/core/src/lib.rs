//! SMART end-to-end evaluation: configurations, schemes, and the
//! latency/energy evaluator.
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod area;
pub mod cache;
pub mod config;
pub mod eval;
pub mod geometry;
pub mod scheme;
pub mod sensitivity;

pub use area::{matrix_unit_area, ChipArea};
pub use cache::EvalCache;
pub use config::{AcceleratorConfig, COOLING_FACTOR, DRAM_BANDWIDTH};
pub use eval::{evaluate, EnergyReport, InferenceReport, LayerReport};
pub use geometry::{GeometryParams, ShiftGeometry, SpmGeometry};
pub use scheme::{AllocationPolicy, PureShiftSpm, Scheme, SpmOrganization};
pub use sensitivity::{
    allocation_capacity_sweep, prefetch_sweep, random_capacity_sweep, shift_capacity_sweep,
    write_latency_sweep, AllocationPoint, SweepPoint,
};
pub use smart_compiler::{SolverContext, SolverContextStats};
