//! [`CircuitCache`]: a thread-safe, single-flight memoization layer over
//! [`crate::cells::characterize`], with a persistable warm tier.
//!
//! Characterization sweeps revisit cells: the JTL experiment's stage and
//! bias sweeps share their `(8 stages, 0.75 Ic)` center point, and any
//! process that runs the suite more than once (tests exercising several
//! experiments, a long-lived service re-rendering figures) re-hits whole
//! grids. Keying on the full integer-encoded [`CellSpec`] value makes
//! those transient re-simulations a lookup shared across `parallel_map`
//! worker threads. Failed simulations are *not* cached: errors propagate
//! to the caller and the next lookup retries.
//!
//! The memo machinery — single-flight cells, the content-hash warm tier,
//! the counters, and [`save`]/[`load`] persistence — is
//! [`smart_units::memo::Memo`]; this module supplies the key, the
//! simulation call, and the measurement's record codec. The cache also
//! sums the [`TransientWork`] of every simulation it ran: a warm hit adds
//! nothing.

use crate::cells::{characterize, CellMeasurement, CellSpec};
use crate::engine::TransientWork;
use smart_units::codec::{ByteReader, ByteWriter};
use smart_units::memo::{Memo, MemoStats, Persist};
use smart_units::sync::lock;
use smart_units::{Result, SmartError};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A memoized, thread-safe, single-flight front end to [`characterize`].
///
/// Measurements are returned as [`Arc`]s so concurrent experiments share
/// one allocation per measured cell.
#[derive(Debug, Default)]
pub struct CircuitCache {
    memo: Memo<CellSpec, CellMeasurement, SmartError>,
    /// The summed work records of the simulations this cache ran.
    work: Mutex<TransientWork>,
}

impl CircuitCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized equivalent of [`characterize`]`(spec)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (which are never cached).
    pub fn measure(&self, spec: &CellSpec) -> Result<Arc<CellMeasurement>> {
        self.memo.get_or_try_init(spec, || {
            let (measurement, work) = characterize(spec)?;
            *lock(&self.work) += work;
            Ok(measurement)
        })
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// The summed work of every simulation this cache ran.
    #[must_use]
    pub fn work(&self) -> TransientWork {
        *lock(&self.work)
    }
}

impl Persist for CellMeasurement {
    const TAG: &'static str = "smart-circuit-cache";
    /// 2: PTL ladders count their LC sections in whole nanometres; a
    /// version-1 store holds 0.3 mm and 0.6 mm links built with one
    /// section too many.
    /// 3: the adaptive engine solves each step once against a
    /// predictor–corrector error estimate and integrates junction
    /// dissipation by the trapezoid rule, so every delay, energy and step
    /// count moved; a version-2 store loads zero entries.
    const VERSION: u32 = 3;
    const FILE_NAME: &'static str = "circuit-cache.bin";

    fn write(&self, w: &mut ByteWriter) {
        w.f64(self.delay);
        w.f64(self.delay_per_hop);
        w.u32(self.min_output_pulses);
        w.u32(self.max_output_pulses);
        w.f64(self.dissipated_energy);
        w.u64(self.steps as u64);
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(Self {
            delay: r.f64()?,
            delay_per_hop: r.f64()?,
            min_output_pulses: r.u32()?,
            max_output_pulses: r.u32()?,
            dissipated_energy: r.f64()?,
            steps: usize::try_from(r.u64()?).ok()?,
        })
    }
}

/// Saves `cache` to `dir/circuit-cache.bin` (atomically).
///
/// # Errors
///
/// [`smart_units::SmartError::Store`] on any underlying filesystem
/// failure.
pub fn save(cache: &CircuitCache, dir: &Path) -> Result<()> {
    cache.memo.save(dir)
}

/// Loads `dir/circuit-cache.bin` into `cache`'s warm tier; returns how
/// many entries are now warm. A missing, corrupted, truncated, or
/// version-mismatched file loads zero entries — the run starts cold.
pub fn load(cache: &CircuitCache, dir: &Path) -> usize {
    cache.memo.load(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_sfq::cells::{JtlChainSpec, PtlLinkSpec};
    use smart_units::codec::Store;

    #[test]
    fn cached_equals_uncached() {
        let cache = CircuitCache::new();
        let spec = CellSpec::Ptl(PtlLinkSpec::from_mm(0.2));
        let (direct, work) = characterize(&spec).expect("simulates");
        let cached = cache.measure(&spec).expect("simulates");
        assert_eq!(*cached, direct);
        assert_eq!(cache.work(), work, "a miss adds its run's work");
        cache.measure(&spec).expect("hits");
        assert_eq!(cache.work(), work, "a hit adds nothing");
    }

    #[test]
    fn distinct_specs_do_not_collide() {
        let cache = CircuitCache::new();
        let a = cache
            .measure(&CellSpec::Jtl(JtlChainSpec::new(4, 100_000, 700)))
            .expect("simulates");
        let b = cache
            .measure(&CellSpec::Jtl(JtlChainSpec::new(4, 100_000, 750)))
            .expect("simulates");
        assert_ne!(a.delay, b.delay);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn persisted_cache_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("smart-josim-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cold = CircuitCache::new();
        let spec = CellSpec::Jtl(JtlChainSpec::standard(6));
        let direct = cold.measure(&spec).expect("simulates");
        save(&cold, &dir).expect("saves");

        let warm = CircuitCache::new();
        assert_eq!(load(&warm, &dir), 1);
        let reloaded = warm.measure(&spec).expect("warm");
        assert_eq!(*reloaded, *direct, "warm result identical to cold");
        assert_eq!(warm.stats().misses, 0, "served without simulating");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_version_2_store_loads_cold_and_the_cell_is_recomputed() {
        let dir = std::env::temp_dir().join(format!("smart-josim-v2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cold = CircuitCache::new();
        let spec = CellSpec::Ptl(PtlLinkSpec::from_mm(0.1));
        cold.measure(&spec).expect("simulates");
        save(&cold, &dir).expect("saves");
        // The same payload under the previous store version.
        let path = dir.join(CellMeasurement::FILE_NAME);
        let bytes = std::fs::read(&path).expect("reads");
        let payload = Store::open(&bytes, CellMeasurement::TAG, CellMeasurement::VERSION)
            .expect("opens")
            .to_vec();
        std::fs::write(&path, Store::seal(CellMeasurement::TAG, 2, payload)).expect("writes");

        let warm = CircuitCache::new();
        assert_eq!(load(&warm, &dir), 0);
        warm.measure(&spec).expect("simulates");
        assert_eq!(warm.stats().misses, 1, "the cell is simulated again");
        assert_eq!(warm.work().runs, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_lookup_hits() {
        let cache = CircuitCache::new();
        let spec = CellSpec::Jtl(JtlChainSpec::standard(4));
        let a = cache.measure(&spec).expect("simulates");
        let b = cache.measure(&spec).expect("simulates");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn concurrent_misses_simulate_once() {
        // Single-flight: four threads racing on one cold spec run the
        // transient engine exactly once and share the stored Arc.
        let cache = CircuitCache::new();
        let spec = CellSpec::Ptl(PtlLinkSpec::from_mm(0.15));
        let all: Vec<Arc<CellMeasurement>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.measure(&spec).expect("simulates")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        for m in &all {
            assert!(m.delay > 0.0);
            assert!(Arc::ptr_eq(&all[0], m));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one simulation ran: {stats:?}");
        assert_eq!(stats.hits + stats.coalesced, 3, "{stats:?}");
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn corrupted_store_never_panics_and_loads_cold() {
        // Truncations and a bit flip at every eighth offset of a real
        // circuit store load zero entries — no panic, no partial state.
        let dir = std::env::temp_dir().join(format!("smart-josim-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cold = CircuitCache::new();
        cold.measure(&CellSpec::Jtl(JtlChainSpec::standard(4)))
            .expect("simulates");
        save(&cold, &dir).expect("saves");
        let path = dir.join(CellMeasurement::FILE_NAME);
        let good = std::fs::read(&path).expect("reads");
        for cut in [0, 1, good.len() / 3, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).expect("writes");
            assert_eq!(load(&CircuitCache::new(), &dir), 0, "truncated at {cut}");
        }
        for i in (0..good.len()).step_by(8) {
            let mut bad = good.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(load(&CircuitCache::new(), &dir), 0, "corrupted at {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let err = save(
            &CircuitCache::new(),
            Path::new("/proc/definitely/not/writable"),
        )
        .expect_err("must fail");
        assert!(matches!(err, SmartError::Store { .. }), "{err:?}");
    }
}
