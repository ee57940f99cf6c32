//! Persistence of the [`TimingCache`] across processes: the record codec
//! of a [`ModelTimingReport`] and the save/load entry points of the
//! `timing-cache.bin` store.
//!
//! A sweep process that ran once has already paid the ILP compiles and
//! replays for every point it touched; persisting the cache lets the next
//! process (a re-render, a CI warm pass, an interactive iteration on one
//! experiment) start from those results. The guarantees are
//! [`smart_units::memo::Memo`]'s:
//!
//! * **fall back to cold, never fail** — a missing, truncated, corrupted,
//!   or version-mismatched file loads as zero entries, and so does one
//!   holding a report whose layers are not those of the model it names;
//! * **exact values** — every `f64` travels as its IEEE bit pattern, and
//!   cycle counts and placement bytes as `u64`s, so a warm run's output
//!   is byte-identical to the cold run that produced the store (pinned by
//!   the `timing_warm_reload_is_byte_identical` property test and the
//!   golden-snapshot CI job's warm pass);
//! * **keys are content hashes** — a [`TimingCache`] key is a full
//!   `(Scheme, ModelId, TimingConfig)` value; the store keys its entries
//!   by [`smart_units::codec::content_hash`] of that value, and the
//!   in-memory exact-key map stays authoritative.

use crate::cache::TimingCache;
use crate::report::{ModelTimingReport, TimingReport};
use smart_systolic::models::ModelId;
use smart_units::codec::{ByteReader, ByteWriter};
use smart_units::memo::Persist;
use smart_units::Frequency;
use std::path::Path;

impl Persist for ModelTimingReport {
    const TAG: &'static str = "smart-timing-cache";
    /// Version 2 records each layer's placement bytes; a version-1 store
    /// has none, so it loads zero entries.
    const VERSION: u32 = 2;
    const FILE_NAME: &'static str = "timing-cache.bin";

    fn write(&self, w: &mut ByteWriter) {
        w.str(self.scheme);
        w.str(&self.model);
        w.f64(self.clock.as_si()); // raw SI bits: exact round trip
        w.u64(self.layers.len() as u64);
        for l in &self.layers {
            w.str(&l.name);
            let (shift, random, dram) = l.placement_bytes;
            w.u64(shift);
            w.u64(random);
            w.u64(dram);
            w.u64(l.total_cycles);
            w.u64(l.compute_cycles);
            w.u64(l.stream_stall_cycles);
            for &x in &l.exposed_stall_cycles {
                w.u64(x);
            }
            w.u64(l.prefetch_work_cycles);
            w.u64(l.prefetch_stall_cycles);
            w.u64(l.random_busy_cycles);
        }
    }

    fn read(r: &mut ByteReader<'_>) -> Option<Self> {
        let scheme = r.static_str()?;
        let model = r.str()?;
        let clock = Frequency::from_si(r.f64()?);
        let n = usize::try_from(r.u64()?).ok()?;
        let mut layers = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            // Struct fields evaluate in the order written: the write order.
            layers.push(TimingReport {
                name: r.str()?,
                placement_bytes: (r.u64()?, r.u64()?, r.u64()?),
                total_cycles: r.u64()?,
                compute_cycles: r.u64()?,
                stream_stall_cycles: r.u64()?,
                exposed_stall_cycles: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
                prefetch_work_cycles: r.u64()?,
                prefetch_stall_cycles: r.u64()?,
                random_busy_cycles: r.u64()?,
            });
        }
        // A store key hashes the model's id, not its layers, and readers
        // walk a report beside the layers of `ModelId::build`: a record
        // whose layers are not, in order, the ones of the model it names
        // (another revision of the model zoo) fails the load, which then
        // starts cold.
        let built = ModelId::ALL
            .into_iter()
            .find(|id| id.name() == model)?
            .build();
        let expected = built.layers.iter().map(|l| &l.name);
        expected.eq(layers.iter().map(|l| &l.name)).then_some(Self {
            scheme,
            model,
            clock,
            layers,
        })
    }
}

/// Saves `cache` to `dir/timing-cache.bin` (atomically).
///
/// # Errors
///
/// [`smart_units::SmartError::Store`] on any underlying filesystem
/// failure.
pub fn save(cache: &TimingCache, dir: &Path) -> smart_units::Result<()> {
    cache.memo.save(dir)
}

/// Loads `dir/timing-cache.bin` into `cache`'s warm tier; returns how
/// many entries are now warm. A missing, corrupted, truncated, or
/// version-mismatched file loads zero entries — the run simply starts
/// cold.
pub fn load(cache: &TimingCache, dir: &Path) -> usize {
    cache.memo.load(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TimingConfig;
    use smart_core::scheme::Scheme;

    #[test]
    fn round_trip_serves_warm_and_identical() {
        let dir = std::env::temp_dir().join(format!("smart-timing-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cold = TimingCache::new();
        let scheme = Scheme::smart();
        let cfg = TimingConfig::nominal();
        let direct = cold.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        save(&cold, &dir).expect("saves");

        let warm = TimingCache::new();
        assert_eq!(load(&warm, &dir), 1);
        let reloaded = warm.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        assert_eq!(*reloaded, *direct, "warm result identical to cold");
        let stats = warm.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "served from the warm store without replaying"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smart-timing-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn missing_and_corrupt_files_fall_back_to_cold() {
        let dir = tmp_dir("corrupt");
        let cache = TimingCache::new();
        assert_eq!(load(&cache, &dir), 0, "missing file");

        let scheme = Scheme::pipe();
        let cfg = TimingConfig::nominal();
        cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
        save(&cache, &dir).expect("saves");
        let path = dir.join(ModelTimingReport::FILE_NAME);
        let good = std::fs::read(&path).expect("reads");

        // Truncations and single-bit corruption at every eighth offset.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).expect("writes");
            assert_eq!(load(&TimingCache::new(), &dir), 0, "truncated at {cut}");
        }
        for i in (0..good.len()).step_by(8) {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(load(&TimingCache::new(), &dir), 0, "corrupted at {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let cache = TimingCache::new();
        let err = save(&cache, Path::new("/proc/definitely/not/writable"))
            .expect_err("must fail, not panic");
        assert!(
            matches!(err, smart_units::SmartError::Store { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn save_is_deterministic() {
        // Two caches that replayed the same points in opposite orders
        // write byte-identical stores.
        let scheme = Scheme::smart();
        let stores: Vec<Vec<u8>> = [[50, 100], [100, 50]]
            .iter()
            .enumerate()
            .map(|(i, order)| {
                let cache = TimingCache::new();
                for &pct in order {
                    let cfg = TimingConfig::nominal().with_bandwidth_pct(pct);
                    cache.report(&scheme, ModelId::AlexNet, &cfg).expect("ok");
                }
                let dir = tmp_dir(&format!("order{i}"));
                save(&cache, &dir).expect("saves");
                let bytes = std::fs::read(dir.join(ModelTimingReport::FILE_NAME)).expect("reads");
                std::fs::remove_dir_all(&dir).ok();
                bytes
            })
            .collect();
        assert_eq!(stores[0], stores[1]);
    }
}
