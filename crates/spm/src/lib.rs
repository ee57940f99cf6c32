//! Scratchpad memory architectures for SFQ systolic CNN accelerators.
//!
//! Three building blocks:
//!
//! * [`shift`] — banked SHIFT-register arrays (SuperNPU's SPM and SMART's
//!   staging arrays), with rotation-based realignment costs
//! * [`service`] — the access-cost model shared by SHIFT and RANDOM arrays
//! * [`hetero`] — SMART's heterogeneous SPM: three SHIFT staging arrays
//!   plus one shared pipelined CMOS-SFQ RANDOM array
//!
//! # Quick start
//!
//! ```
//! use smart_spm::hetero::HeterogeneousSpm;
//! use smart_spm::service::SpmService;
//!
//! let spm = HeterogeneousSpm::smart_default();
//! // Sequential traffic goes to SHIFT, realignments to the RANDOM array.
//! let stream = spm.input_shift.serve_stream(4096, false);
//! let realign = spm.random.serve_realignment(1 << 20);
//! assert!(stream.time.as_ns() > 0.0);
//! assert!(realign.time.as_ns() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod hetero;
#[cfg(test)]
mod lane;
pub mod service;
pub mod shift;

pub use hetero::HeterogeneousSpm;
pub use service::{AccessCost, SpmService};
pub use shift::ShiftArray;
