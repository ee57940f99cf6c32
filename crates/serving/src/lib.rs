//! Layer 6: the multi-tenant serving simulator.
//!
//! The paper evaluates SMART on single-model runs; this crate asks the
//! datacenter question on top of the same cycle-level machinery: what
//! happens when several CNN tenants share one superconducting systolic
//! array under an open-loop request stream? Three pieces answer it:
//!
//! * [`workload`] — seeded deterministic request generation: tenant
//!   mixes over [`smart_systolic::models::ModelId`]s, Poisson or bursty
//!   (on/off modulated) arrivals, synthesized through the hand-rolled
//!   [`smart_units::rng`] generators so a `(workload, seed)` pair
//!   replays byte-identically everywhere;
//! * [`profile`] — [`TenantProfile`]: the per-tenant cost model
//!   distilled from one [`smart_timing::ModelPrepass`] replay per
//!   `(scheme, model)` (shared through the [`smart_timing::TimingCache`]),
//!   including the SPM context-switch economics derived from each layer
//!   schedule's resident bytes;
//! * [`sim`] / [`report`] — the dispatch simulator (batch formation at a
//!   configurable window, preemption at layer boundaries, cold-switch
//!   re-staging priced at the replay's own RANDOM-channel bandwidth) and
//!   its [`ServingReport`] (p50/p99/p999 tails, goodput vs SLO,
//!   utilization, SPM-thrash overhead).
//!
//! # Example
//!
//! ```no_run
//! use smart_core::scheme::Scheme;
//! use smart_serving::{simulate, ServingConfig, Tenant, TenantProfile, Workload};
//! use smart_systolic::models::ModelId;
//! use smart_timing::{TimingCache, TimingConfig};
//!
//! let cache = TimingCache::new();
//! let cfg = TimingConfig::nominal();
//! let scheme = Scheme::smart();
//! let tenants = vec![
//!     Tenant::of(ModelId::AlexNet, 3.0),
//!     Tenant::of(ModelId::ResNet50, 1.0),
//! ];
//! let profiles: Vec<TenantProfile> = tenants
//!     .iter()
//!     .map(|t| TenantProfile::build(&scheme, t.model, &cfg, &cache))
//!     .collect::<Result<_, _>>()?;
//! let workload = Workload::poisson(tenants, 2.0e5, 42);
//! let report = simulate(&profiles, &workload, 2000, &ServingConfig::fcfs());
//! println!("p99 = {:?}, goodput = {:.0} rps", report.p99(), report.goodput_rps());
//! # Ok::<(), smart_units::SmartError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod profile;
pub mod report;
pub mod sim;
pub mod workload;

pub use profile::{mix_capacity_rps, TenantProfile};
pub use report::{ServingReport, TenantServingStats};
pub use sim::{simulate, simulate_traced, ServingConfig};
pub use workload::{ArrivalModel, Request, Tenant, Workload};
