//! The ILP-based SPM compiler of SMART (Sec. 4.3).
//!
//! Pipeline per convolutional layer:
//!
//! 1. the layer is unrolled into an iteration DAG with memory objects
//!    ([`smart_systolic::dag`], Fig. 15),
//! 2. [`lifespan`] analysis computes each object's residency window,
//!    extended backward by the prefetch window `a`,
//! 3. [`formulation`] builds the Eq. 5/6 ILP (placement objective, per-edge
//!    capacity, bandwidth, and sub-bank constraints) and solves it with
//!    `smart-ilp`,
//! 4. the resulting [`schedule::Schedule`] prices exposed (non-overlapped)
//!    load time for the evaluator; [`greedy`] provides the ideal-static
//!    baseline allocation used by the `Heter`/`Pipe` schemes.
//!
//! # Quick start
//!
//! ```
//! use smart_compiler::formulation::{compile_layer_ctx, FormulationParams};
//! use smart_compiler::SolverContext;
//! use smart_systolic::dag::LayerDag;
//! use smart_systolic::layer::ConvLayer;
//! use smart_systolic::mapping::{ArrayShape, LayerMapping};
//!
//! let layer = ConvLayer::conv("conv3", 13, 13, 256, 384, 3, 1, 1);
//! let mapping = LayerMapping::map(&layer, ArrayShape::new(64, 256), 1);
//! let dag = LayerDag::build(&mapping, 6);
//! // One compilation: a fresh context. Sweeps share one across calls.
//! let ctx = SolverContext::new();
//! let schedule = compile_layer_ctx(&dag, &FormulationParams::smart_default(), &ctx);
//! assert!(schedule.objective > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod formulation;
pub mod greedy;
pub mod lifespan;
pub mod schedule;

pub use formulation::{compile_layer_ctx, FormulationParams};
pub use lifespan::{analyze, resident_bytes_on_edge, Lifespan};
pub use schedule::{Location, Placement, Schedule, ScheduleSource};
pub use smart_ilp::{SolverContext, SolverContextStats};
pub use smart_units::{Result, SmartError};
