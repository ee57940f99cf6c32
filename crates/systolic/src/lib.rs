//! SCALE-SIM-style systolic CNN accelerator simulator.
//!
//! The paper models SMART, SuperNPU, and the TPU with SCALE-SIM; this crate
//! is that substrate: CNN layer descriptors and a model zoo ([`models`]),
//! weight-stationary fold mapping ([`mapping`]), memory-demand and
//! address-trace generation ([`trace`], Fig. 6), and the per-layer
//! instruction DAG with memory objects that feeds the ILP compiler
//! ([`dag`], Fig. 15).
//!
//! # Quick start
//!
//! ```
//! use smart_systolic::mapping::{ArrayShape, LayerMapping};
//! use smart_systolic::models::ModelId;
//!
//! // Map AlexNet conv2 onto SuperNPU's 64x256 array.
//! let model = ModelId::AlexNet.build();
//! let mapping = LayerMapping::map(&model.layers[1], ArrayShape::new(64, 256), 1);
//! assert_eq!(mapping.k_folds, 38);
//! println!("compute cycles: {}", mapping.compute_cycles());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dag;
#[cfg(test)]
mod functional;
pub mod layer;
pub mod mapping;
pub mod models;
pub mod trace;

pub use dag::{DagEdge, Instruction, LayerDag, MemoryObject};
pub use layer::{CnnModel, ConvLayer, LayerKind};
pub use mapping::{ArrayShape, LayerMapping};
pub use models::ModelId;
pub use trace::{weight_trace_sample, DataClass, LayerDemand, Realignment, TraceRecord};
