//! [`TenantProfile`]: the per-tenant cost model the dispatch simulator
//! schedules with, distilled from one cycle-level replay.
//!
//! A profile is built once per `(scheme, model)` through the shared
//! [`TimingCache`] — the replay pays one [`smart_timing::ModelPrepass`]
//! (ILP compile + config-independent prepass) and every serving sweep
//! point reuses it. Three things are distilled:
//!
//! * **per-layer cycles** from the replayed [`TimingReport`]s (total and
//!   compute), which price layer execution and batching;
//! * **per-layer cold-switch re-staging cost**: when the tenant resumes
//!   after another tenant used the array, the bytes its schedule keeps
//!   SPM-resident (the SHIFT and RANDOM parts of each replayed layer's
//!   [`TimingReport::placement_bytes`]) must be re-staged through the
//!   RANDOM channel, priced by the same bandwidth-scaled [`RandomCosts`]
//!   table the replay itself uses (so a `TimingConfig` bandwidth scenario
//!   slows context switches by exactly the factor it slows prefetches).
//!   DRAM-placed objects re-stream on use anyway and carry no switch
//!   cost;
//! * the byte-weighted **resident fraction** across layers
//!   ([`resident_fraction`] of the summed placement bytes), reported as
//!   the thrash exposure of the tenant.
//!
//! Batching model: a batch of `b` requests of one tenant replays each
//! layer's compute `b` times while the layer's staging, stall, and
//! realignment cycles are paid once — weights are shared across the
//! batch, which is precisely the amortization the paper's batch figures
//! (Figs. 19/21) exploit.
//!
//! [`TimingReport`]: smart_timing::TimingReport
//! [`TimingReport::placement_bytes`]: smart_timing::TimingReport::placement_bytes

// lint:allow-file(index, batch buckets are indexed by positions found in the same slice)

use crate::workload::Tenant;
use smart_core::scheme::Scheme;
use smart_systolic::models::ModelId;
use smart_timing::{hetero_spm, resident_fraction, RandomCosts, TimingCache, TimingConfig};
use smart_units::{Frequency, Result};

/// The serving-level cost model of one tenant on one scheme: per-layer
/// replay cycles plus the SPM context-switch economics.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantProfile {
    /// Tenant display name.
    pub name: String,
    /// The tenant's model.
    pub model: ModelId,
    /// Name of the scheme the profile was replayed on.
    pub scheme: &'static str,
    /// Accelerator clock (cycle counts convert to time with this).
    pub clock: Frequency,
    /// Replayed end-to-end cycles per layer (compute + streaming +
    /// exposed stalls), in model order.
    pub layer_cycles: Vec<u64>,
    /// Matrix-unit compute cycles per layer (the part that scales with
    /// batch size).
    pub layer_compute: Vec<u64>,
    /// Cold-switch cost before each layer: cycles to re-stage the
    /// layer schedule's SPM-resident bytes through the RANDOM channel.
    pub restage_cycles: Vec<u64>,
    /// Byte-weighted fraction of the model's working set the schedules
    /// keep SPM-resident (the tenant's thrash exposure).
    pub resident_fraction: f64,
}

impl TenantProfile {
    /// Builds the profile of `model` on `scheme` under `cfg`, replaying
    /// through `cache` — one `ModelPrepass` per `(scheme, model)` is paid
    /// on the first build and every later build (any config-equal sweep
    /// point, any experiment) is a cache hit. The placement bytes come
    /// from the replayed report too, so a build compiles nothing.
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::InvalidInput`] when the scheme's SPM is
    /// not heterogeneous (the replay simulator cannot model it).
    pub fn build(
        scheme: &Scheme,
        model: ModelId,
        cfg: &TimingConfig,
        cache: &TimingCache,
    ) -> Result<Self> {
        let report = cache.report(scheme, model, cfg)?;
        let spm = hetero_spm(scheme)?;
        let costs = RandomCosts::new(spm, scheme.config.frequency, cfg);

        let mut restage_cycles = Vec::with_capacity(report.layers.len());
        let mut bytes = (0, 0, 0);
        for l in &report.layers {
            let (shift, random, dram) = l.placement_bytes;
            // The replay prices loads in words == bytes (see
            // `LayerPrepass::build`), so the re-staging burst does too.
            restage_cycles.push(costs.read(shift + random));
            bytes = (bytes.0 + shift, bytes.1 + random, bytes.2 + dram);
        }

        Ok(Self {
            name: model.name().to_owned(),
            model,
            scheme: scheme.name,
            clock: scheme.config.frequency,
            layer_cycles: report.layers.iter().map(|l| l.total_cycles).collect(),
            layer_compute: report.layers.iter().map(|l| l.compute_cycles).collect(),
            restage_cycles,
            resident_fraction: resident_fraction(bytes),
        })
    }

    /// Number of layers (preemption points are layer boundaries).
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layer_cycles.len()
    }

    /// Stand-alone (uncontended, warm) request latency in cycles: the
    /// replayed model total.
    #[must_use]
    pub fn standalone_cycles(&self) -> u64 {
        self.layer_cycles.iter().sum()
    }

    /// Cycles to run layer `layer` for a batch of `b` requests: compute
    /// scales with `b`, the layer's staging/stall remainder is paid once
    /// (weights and schedule state are shared across the batch).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `b` is zero.
    #[must_use]
    pub fn batched_layer_cycles(&self, layer: usize, b: u32) -> u64 {
        assert!(b > 0, "a batch holds at least one request");
        let total = self.layer_cycles[layer];
        let compute = self.layer_compute[layer];
        compute * u64::from(b) + (total - compute)
    }

    /// Mean service rate of this tenant alone on the array, in requests
    /// per second.
    #[must_use]
    pub fn standalone_rps(&self) -> f64 {
        self.clock.as_si() / self.standalone_cycles().max(1) as f64
    }
}

/// Aggregate single-stream capacity of a tenant mix in requests per
/// second: the harmonic combination of the tenants' stand-alone rates
/// under their traffic shares (the load at which a work-conserving
/// server with no switch cost saturates). `profiles` and `tenants` pair
/// up by position.
#[must_use]
pub fn mix_capacity_rps(profiles: &[TenantProfile], tenants: &[Tenant]) -> f64 {
    let total: f64 = tenants.iter().map(|t| t.weight.max(0.0)).sum();
    let mean_service_s: f64 = profiles
        .iter()
        .zip(tenants)
        .map(|(p, t)| (t.weight.max(0.0) / total) / p.standalone_rps())
        .sum();
    1.0 / mean_service_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_matches_replay_totals() {
        let cache = TimingCache::new();
        let cfg = TimingConfig::nominal();
        let scheme = Scheme::smart();
        let p = TenantProfile::build(&scheme, ModelId::AlexNet, &cfg, &cache).expect("hetero");
        let report = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert_eq!(p.standalone_cycles(), report.total_cycles());
        assert_eq!(p.layers(), report.layers.len());
        assert!(p.resident_fraction > 0.0 && p.resident_fraction <= 1.0);
        // Restage costs are positive wherever bytes are resident.
        assert!(p.restage_cycles.iter().any(|&r| r > 0));
        // Batch 1 equals the plain layer cost; batch 4 amortizes.
        for l in 0..p.layers() {
            assert_eq!(p.batched_layer_cycles(l, 1), p.layer_cycles[l]);
            assert!(p.batched_layer_cycles(l, 4) < 4 * p.layer_cycles[l].max(1));
        }
        // Each re-staging burst moves the bytes a fresh compile of the
        // layer (on a new, default `SolverContext`) keeps in SHIFT and
        // RANDOM.
        let spm = hetero_spm(&scheme).expect("hetero");
        let costs = RandomCosts::new(spm, scheme.config.frequency, &cfg);
        for (l, layer) in ModelId::AlexNet.build().layers.iter().enumerate() {
            let fresh = &Default::default();
            let c = smart_timing::compile_scheme_layer(&scheme, layer, cfg.max_iterations, fresh)
                .expect("hetero");
            let (shift, random, _) = c.schedule.bytes_by_location(&c.dag);
            assert_eq!(p.restage_cycles[l], costs.read(shift + random), "{l}");
        }
    }

    #[test]
    fn second_build_reuses_the_prepass() {
        let cache = TimingCache::new();
        let cfg = TimingConfig::nominal();
        let scheme = Scheme::smart();
        let a = TenantProfile::build(&scheme, ModelId::AlexNet, &cfg, &cache).expect("hetero");
        let before = cache.stats();
        let b = TenantProfile::build(&scheme, ModelId::AlexNet, &cfg, &cache).expect("hetero");
        let after = cache.stats();
        assert_eq!(a, b);
        assert_eq!(after.misses, before.misses, "no new replay");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn non_heterogeneous_schemes_are_rejected() {
        let cache = TimingCache::new();
        let err = TenantProfile::build(
            &Scheme::supernpu(),
            ModelId::AlexNet,
            &TimingConfig::nominal(),
            &cache,
        )
        .unwrap_err();
        assert!(matches!(err, smart_units::SmartError::InvalidInput { .. }));
    }

    #[test]
    fn a_stored_report_that_lacks_a_layer_loads_cold() {
        // A checksum-valid `timing-cache.bin` whose AlexNet report lacks
        // its last layer, under the key the cache looks the report up by:
        // the store must load nothing, and the profile must be the cold one.
        use smart_units::codec::content_hash;
        use smart_units::memo::Table;
        use std::sync::Arc;

        let (scheme, cfg) = (Scheme::smart(), TimingConfig::nominal());
        let cold = TimingCache::new();
        let want = TenantProfile::build(&scheme, ModelId::AlexNet, &cfg, &cold).expect("hetero");
        let report = cold
            .report(&scheme, ModelId::AlexNet, &cfg)
            .expect("hetero");
        let mut short = smart_timing::ModelTimingReport::clone(&report);
        short.layers.pop();
        let table = Table::default();
        table.insert(
            content_hash(&(scheme.clone(), ModelId::AlexNet, cfg)),
            Arc::new(short),
        );
        let dir = std::env::temp_dir().join(format!("smart-serving-short-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        table.save(&dir).expect("saves");

        let warm = TimingCache::new();
        assert_eq!(smart_timing::persist::load(&warm, &dir), 0);
        let got = TenantProfile::build(&scheme, ModelId::AlexNet, &cfg, &warm).expect("hetero");
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
