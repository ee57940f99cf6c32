//! `smart-timing` — a cycle-level SPM/systolic replay simulator for the
//! SMART accelerator (the SCALE-SIM-style counterpart to the analytic
//! evaluator in `smart-core`).
//!
//! The analytic evaluator prices each layer with closed-form service
//! models and a single `overlap_fraction`; it cannot see *when* a prefetch
//! lands, whether the RANDOM array's issue slots were free when a
//! realignment burst arrived, or how deep the double buffering must be for
//! the ILP schedule's distances to pay off. This crate replays every
//! layer's [`smart_systolic::trace::LayerDemand`] word streams and the
//! compiler [`smart_compiler::schedule::Schedule`]'s prefetches through
//! the heterogeneous SPM at integer accelerator cycles:
//!
//! * [`replay::replay_layer`] — the deterministic event replay: matrix
//!   unit, per-class SHIFT staging streams, and an arbitrated RANDOM
//!   channel carrying prefetch loads, fold-boundary realignments, and
//!   PSum spills (plus a separate DRAM overflow channel);
//! * [`report::TimingReport`] — per-layer cycles with exposed stalls
//!   broken down by [`smart_systolic::trace::DataClass`], prefetch-hidden
//!   cycles, and RANDOM occupancy, under the accounting identity
//!   `total = compute + stream_stall + exposed`;
//! * [`validate`] — scheme-level simulation ([`validate::simulate_scheme`])
//!   and the stall-free cross-validation twin
//!   ([`validate::stall_free_variant`], [`validate::max_layer_deviation`])
//!   on which replay and analytic evaluator must agree within 1%;
//! * [`cache::TimingCache`] — the memoized front end the experiment
//!   engine's `ExperimentContext` shares across worker threads (its
//!   sweeps compile a model once and finish every miss with the same
//!   [`validate::ModelPrepass::replay`]);
//! * [`trace::trace_model_replay`] — derives a deterministic span-tree
//!   timeline (layer spans tiled by the accounting identity) from a
//!   finished report for `smart-trace` Chrome export;
//! * [`config::TimingConfig`] — the scenario knobs the analytic model does
//!   not have: double-buffer depth and RANDOM bandwidth scaling.
//!
//! # Quick start
//!
//! ```
//! use smart_core::scheme::Scheme;
//! use smart_systolic::models::ModelId;
//! use smart_timing::{simulate_scheme, TimingConfig};
//!
//! let report = simulate_scheme(
//!     &Scheme::smart(),
//!     &ModelId::AlexNet.build(),
//!     &TimingConfig::nominal(),
//! )
//! .expect("SMART is heterogeneous");
//! assert!(report.layers.iter().all(|l| l.is_consistent()));
//! assert!(report.total_time().as_s() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod config;
pub mod persist;
pub mod replay;
pub mod report;
pub mod trace;
pub mod validate;

pub use cache::TimingCache;
pub use config::TimingConfig;
pub use replay::{replay_layer, LayerInstance, LayerPrepass, RandomCosts};
pub use report::{ModelTimingReport, TimingReport};
pub use trace::trace_model_replay;
pub use validate::{
    compile_scheme_layer, hetero_spm, max_layer_deviation, params_for, prefetch_window,
    prepare_model_ctx, simulate_scheme, stall_free_variant, LayerCompilation, ModelPrepass,
};
