//! [`TimingCache`]: a thread-safe, single-flight memoization layer over
//! the replay simulator ([`crate::validate::simulate_scheme`]), with a
//! persistable warm tier.
//!
//! The timing experiments replay the same `(scheme, model, config)` points
//! repeatedly — the nominal SMART replay is the baseline row of both the
//! buffer-depth sweep and the bandwidth sweep — so replays are keyed on
//! the full scheme/config values and shared as [`Arc`]s across the
//! experiment runner's worker threads. Errors (non-heterogeneous schemes)
//! are not cached.
//!
//! The memo machinery — single-flight cells, the content-hash warm tier,
//! the counters, and persistence (record codec in [`crate::persist`]) — is
//! [`smart_units::memo::Memo`]. On top of it the cache threads one ILP
//! [`SolverContext`] through every replay compile, and
//! [`TimingCache::sweep`] compiles a model once for all the misses of a
//! config sweep: each miss is finished from one shared
//! [`ModelPrepass`] by [`ModelPrepass::replay`] instead of paying a full
//! `simulate_scheme`.

use crate::config::TimingConfig;
use crate::report::ModelTimingReport;
use crate::validate::{prepare_model_ctx, ModelPrepass};
use smart_compiler::SolverContext;
use smart_core::scheme::Scheme;
use smart_systolic::models::ModelId;
use smart_units::memo::{Memo, MemoStats};
use smart_units::{Result, SmartError};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

/// A memoized, thread-safe, single-flight front end to the replay
/// simulator.
#[derive(Debug, Default)]
pub struct TimingCache {
    pub(crate) memo: Memo<(Scheme, ModelId, TimingConfig), ModelTimingReport, SmartError>,
    /// ILP warm-start state threaded through every replay compile this
    /// cache runs, so bases and memoized solutions reuse across models —
    /// and, via [`SolverContext::save_to`]/[`SolverContext::load_from`],
    /// across processes.
    solver: SolverContext,
}

impl TimingCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The ILP warm-start context this cache compiles through (exposed so
    /// callers can persist its bases and solutions next to the report
    /// store).
    #[must_use]
    pub fn solver(&self) -> &SolverContext {
        &self.solver
    }

    /// The memoized equivalent of
    /// `simulate_scheme(scheme, &model.build(), cfg)`.
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::InvalidInput`] when the scheme's SPM is
    /// not heterogeneous (the error is recomputed, never cached).
    pub fn report(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfg: &TimingConfig,
    ) -> Result<Arc<ModelTimingReport>> {
        self.lookup(scheme, model, cfg, &mut BTreeMap::new())
    }

    /// [`TimingCache::report`] for every config of a sweep over
    /// `(scheme, model)`. The misses share one ILP compile
    /// ([`prepare_model_ctx`]) per distinct `max_iterations`, and each is
    /// finished by [`ModelPrepass::replay`] — bit-identical to a pointwise
    /// [`TimingCache::report`].
    ///
    /// # Errors
    ///
    /// [`smart_units::SmartError::InvalidInput`] when the scheme's SPM is
    /// not heterogeneous (nothing is cached in that case).
    pub fn sweep(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfgs: &[TimingConfig],
    ) -> Result<Vec<Arc<ModelTimingReport>>> {
        let mut prepasses = BTreeMap::new();
        cfgs.iter()
            .map(|cfg| self.lookup(scheme, model, cfg, &mut prepasses))
            .collect()
    }

    /// One memo lookup; a miss is finished from the prepass in
    /// `prepasses` compiled with `cfg.max_iterations`, compiling it first
    /// if this is the first miss that needs it.
    fn lookup(
        &self,
        scheme: &Scheme,
        model: ModelId,
        cfg: &TimingConfig,
        prepasses: &mut BTreeMap<u32, ModelPrepass>,
    ) -> Result<Arc<ModelTimingReport>> {
        self.memo
            .get_or_try_init(&(scheme.clone(), model, *cfg), || {
                let prepass = match prepasses.entry(cfg.max_iterations) {
                    Entry::Occupied(compiled) => compiled.into_mut(),
                    Entry::Vacant(slot) => slot.insert(prepare_model_ctx(
                        scheme,
                        &model.build(),
                        cfg.max_iterations,
                        &self.solver,
                    )?),
                };
                Ok(prepass.replay(cfg))
            })
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::compile_scheme_layer;

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let a = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        let b = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn cached_equals_uncached() {
        // A miss is finished by `ModelPrepass::replay`; it must equal the
        // full `simulate_scheme` replay.
        let cache = TimingCache::new();
        let scheme = Scheme::pipe();
        let cfg = TimingConfig::nominal();
        let direct =
            crate::validate::simulate_scheme(&scheme, &ModelId::AlexNet.build(), &cfg).expect("ok");
        let cached = cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert_eq!(*cached, direct);
    }

    #[test]
    fn concurrent_misses_replay_once() {
        // Single-flight: four threads racing on one cold key run the
        // replay exactly once and all share its Arc.
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let reports: Vec<Arc<ModelTimingReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for r in &reports[1..] {
            assert!(Arc::ptr_eq(&reports[0], r));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one replay ran: {stats:?}");
        assert_eq!(stats.hits + stats.coalesced, 3, "{stats:?}");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn config_is_part_of_the_key() {
        let cache = TimingCache::new();
        let scheme = Scheme::smart();
        let nominal = cache
            .report(&scheme, ModelId::AlexNet, &TimingConfig::nominal())
            .expect("ok");
        let slow = cache
            .report(
                &scheme,
                ModelId::AlexNet,
                &TimingConfig::nominal().with_bandwidth_pct(10),
            )
            .expect("ok");
        assert!(slow.total_cycles() > nominal.total_cycles());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = TimingCache::new();
        let cfg = TimingConfig::nominal();
        assert!(cache
            .report(&Scheme::supernpu(), ModelId::AlexNet, &cfg)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn sweep_matches_pointwise_reports() {
        let swept = TimingCache::new();
        let pointwise = TimingCache::new();
        let scheme = Scheme::smart();
        let nominal = TimingConfig::nominal();
        let cfgs: Vec<TimingConfig> = [1u32, 2, 3, 4, 5]
            .iter()
            .map(|&d| nominal.with_depth(d).with_bandwidth_pct(50))
            .collect();
        let batch = swept.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        assert_eq!(batch.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(&batch) {
            let want = pointwise
                .report(&scheme, ModelId::AlexNet, cfg)
                .expect("ok");
            assert_eq!(**got, *want, "{cfg:?}");
        }
        // The sweep cached every point: re-sweeping is all hits.
        let before = swept.stats();
        assert_eq!(before.entries, cfgs.len());
        let again = swept.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        for (a, b) in batch.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        let after = swept.stats();
        assert_eq!(after.misses, before.misses, "no recompute");
        assert_eq!(after.hits, before.hits + cfgs.len() as u64);
    }

    #[test]
    fn sweep_compiles_each_layer_once() {
        // A sweep over N uncached configs pays the ILP work of exactly one
        // prepass: a per-point compile would show up as extra solves (or
        // solution-memo hits) in the solver counters.
        let scheme = Scheme::smart();
        let nominal = TimingConfig::nominal();
        let one = SolverContext::new();
        prepare_model_ctx(
            &scheme,
            &ModelId::AlexNet.build(),
            nominal.max_iterations,
            &one,
        )
        .expect("heterogeneous");
        let cache = TimingCache::new();
        let cfgs: Vec<TimingConfig> = [10u32, 25, 50, 100, 400]
            .iter()
            .map(|&pct| nominal.with_bandwidth_pct(pct))
            .collect();
        cache.sweep(&scheme, ModelId::AlexNet, &cfgs).expect("ok");
        assert_eq!(cache.stats().misses, cfgs.len() as u64);
        assert_eq!(cache.solver().stats(), one.stats());
    }

    #[test]
    fn replayed_placement_equals_a_fresh_compile() {
        // A report carries the placement of the schedule its replay ran:
        // a fresh compile of each layer places the same bytes.
        let cache = TimingCache::new();
        let nominal = TimingConfig::nominal();
        let coarse = TimingConfig {
            max_iterations: 4,
            ..nominal.with_bandwidth_pct(25)
        };
        for scheme in [Scheme::smart(), Scheme::pipe()] {
            for model in [ModelId::AlexNet, ModelId::MobileNet] {
                for cfg in [nominal, coarse] {
                    let report = cache.report(&scheme, model, &cfg).expect("hetero");
                    for (got, layer) in report.layers.iter().zip(&model.build().layers) {
                        let fresh = SolverContext::new();
                        let c = compile_scheme_layer(&scheme, layer, cfg.max_iterations, &fresh)
                            .expect("hetero");
                        let want = c.schedule.bytes_by_location(&c.dag);
                        assert_eq!(got.placement_bytes, want, "{}: {cfg:?}", layer.name);
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_errors_cache_nothing() {
        let cache = TimingCache::new();
        let cfgs = [
            TimingConfig::nominal(),
            TimingConfig::nominal().with_depth(1),
        ];
        assert!(cache
            .sweep(&Scheme::tpu(), ModelId::AlexNet, &cfgs)
            .is_err());
        assert_eq!(cache.stats().entries, 0);
    }
}
