//! The zero-dependency foundation layer of the SMART workspace.
//!
//! Every other crate in the workspace depends on this one (and on nothing
//! outside the workspace), which keeps the layering acyclic:
//!
//! ```text
//! units → { sfq, systolic, ilp } → { josim, cryomem, compiler }
//!       → spm → core → bench → smart
//! ```
//!
//! (See the README for the exact per-crate dependency edges.)
//!
//! What lives here:
//!
//! * [`quantity`] — strongly-typed physical quantities ([`Time`],
//!   [`Energy`], [`Power`], [`Length`], [`Area`], [`Frequency`]), stored in
//!   SI base units so a picosecond can never be confused with a nanosecond,
//! * [`error`] — the workspace-wide [`SmartError`] type and [`Result`]
//!   alias that all fallible layers (the ILP solver, the transient circuit
//!   engine, the allocation compiler) funnel into,
//! * [`memo`] — the one single-flight memoization layer (with a
//!   content-hash warm tier, counters and store persistence) under the
//!   evaluation, circuit and timing caches,
//! * [`codec`] — the hand-rolled versioned binary store format the
//!   persistent warm-start caches serialize through,
//! * [`rng`] — hand-rolled deterministic pseudo-random generation
//!   (splitmix64 seeding + xorshift128+) for the serving-workload
//!   generators,
//! * [`sync`] — poison-proof locking for the single-insert memo maps
//!   every cache layer guards (a panicked worker costs a memo entry,
//!   never a cascading panic),
//! * [`work`] — [`work_record!`], the one declaration of every layer's
//!   work counters (the memo caches', the ILP solver context's, the
//!   transient engine's), each field named as its `--metrics` counter.
//!
//! # Examples
//!
//! ```
//! use smart_units::{Power, Time};
//!
//! let leak = Power::from_uw(8.8) * Time::from_ns(10.0);
//! assert!((leak.as_fj() - 88.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod error;
pub mod memo;
pub mod quantity;
pub mod rng;
pub mod sync;
pub mod work;

pub use error::{Result, SmartError};
pub use quantity::{Area, Energy, Frequency, Length, Power, Time};
