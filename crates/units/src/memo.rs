//! [`Memo`]: the one thread-safe, single-flight memoization layer under
//! every result cache of the workspace (`smart_core::cache::EvalCache`,
//! `smart_josim::cache::CircuitCache`, `smart_timing::TimingCache`), with
//! a persistable warm tier.
//!
//! * **Single flight.** Each key maps to an [`OnceLock`] cell. The first
//!   lookup of a cold key runs the computation; concurrent lookups of the
//!   same key block on the cell and share its result, so no point is ever
//!   computed twice. The map lock is never held while computing.
//! * **Errors are not cached.** A failed computation hands its error to
//!   every waiter and evicts its cell, so the next lookup retries. A
//!   computation that panics leaves its cell empty for the next lookup,
//!   and the poison-proof [`lock`] keeps every other key alive.
//! * **Warm tier.** Values persisted by a previous process, keyed by the
//!   [`content_hash`] of their key, are consulted on a miss before the
//!   computation runs. The tier is a [`Table`]: a key-ordered map from
//!   128-bit keys to shared values, also used on its own by callers that
//!   compute their own keys (`smart_ilp::SolverContext`'s bases, solutions
//!   and problem structures). A value type opts into persistence by
//!   implementing [`Persist`] (store tag, version, file name and one record
//!   codec); [`Table::save`] / [`Table::load`] move a table through the
//!   [`crate::codec::Store`] container, and [`Memo::save`] / [`Memo::load`]
//!   go through them. This module is the one place that knows the store
//!   layout. A missing, truncated, corrupted or version-mismatched store
//!   loads zero entries: the run starts cold, never wrong.
//! * **Counters.** [`MemoStats`] splits lookups into `hits` (a ready value
//!   in the map or the warm tier), `misses` (ran the computation) and
//!   `coalesced` (waited on another thread's in-flight computation). The
//!   hit/coalesced split depends on thread timing; `hits + coalesced` is
//!   the deterministic count of lookups served without computing.
//!
//! ```
//! use smart_units::memo::Memo;
//!
//! let squares: Memo<u64, u64> = Memo::new();
//! assert_eq!(*squares.get_or_init(&7, || 49), 49);
//! assert_eq!(*squares.get_or_init(&7, || unreachable!("memoized")), 49);
//! let stats = squares.stats();
//! assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
//! ```

use crate::codec::{content_hash, ByteReader, ByteWriter, Store};
use crate::sync::lock;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One key's single-flight cell.
type Cell<V, E> = Arc<OnceLock<Result<Arc<V>, E>>>;

crate::work_record! {
    /// Lookup counters and size of a [`Memo`].
    pub struct MemoStats {
        counters {
            /// Lookups served from a ready value: the exact-key map, or the
            /// warm tier on a key's first lookup.
            hits,
            /// Lookups that ran the computation.
            misses,
            /// Lookups that blocked on another thread's in-flight
            /// computation of the same key and shared its result.
            coalesced,
        }
        gauges {
            /// Distinct keys stored.
            entries,
        }
    }
}

/// A value type a [`Memo`] can persist: the identity of its store file
/// and the codec of one record.
pub trait Persist: Sized {
    /// Store tag; a file written under another tag never opens.
    const TAG: &'static str;
    /// Record layout version. Bump it when the layout changes; older
    /// stores then load cold.
    const VERSION: u32;
    /// File name of the store inside a `--cache-dir`.
    const FILE_NAME: &'static str;

    /// Appends one record. Floats must travel as their bit patterns
    /// (what [`ByteWriter::f64`] does), so values round-trip exactly.
    fn write(&self, w: &mut ByteWriter);

    /// Reads one record; `None` on any truncated or malformed field.
    fn read(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// A memoized, thread-safe, single-flight map from keys to shared values
/// (see the module docs). `E` is the error type of fallible computations;
/// the default [`Infallible`] enables [`Memo::get_or_init`].
#[derive(Debug)]
pub struct Memo<K, V, E = Infallible> {
    // lint:allow(determinism, iteration order is never observed: persistence re-keys ready values into a content-hash-ordered BTreeMap)
    map: Mutex<HashMap<K, Cell<V, E>>>,
    /// Values loaded from a previous process, keyed by content hash;
    /// consulted on a miss, never written during a run.
    warm: Table<V>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

impl<K, V, E> Default for Memo<K, V, E> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
            warm: Table::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }
}

impl<K: Hash + Eq + Clone, V, E: Clone> Memo<K, V, E> {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of `key`: ready, loaded from the warm tier, or computed
    /// by `compute` (at most once across concurrent callers). An error is
    /// returned to this caller and every waiter, and the next lookup of
    /// `key` computes again.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returned for this key's in-flight computation.
    pub fn get_or_try_init(
        &self,
        key: &K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let cell = self.cell(key);
        // Probe before entering the cell: a ready value is a plain hit; a
        // lookup that reaches `get_or_init` without running the closure
        // waited on another thread's computation and counts as coalesced.
        if let Some(ready) = cell.get() {
            if ready.is_ok() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return ready.clone();
        }
        let mut ran = false;
        let result = cell
            .get_or_init(|| {
                ran = true;
                if let Some(found) = self.warm.get(content_hash(key)) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(found);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                compute().map(Arc::new)
            })
            .clone();
        if ran && result.is_err() {
            // Evict the failed cell, unless a retry already replaced it.
            let mut map = lock(&self.map);
            if map.get(key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
                map.remove(key);
            }
        } else if !ran && result.is_ok() {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// The cell of `key`, created empty on first sight.
    fn cell(&self, key: &K) -> Cell<V, E> {
        let mut map = lock(&self.map);
        if let Some(cell) = map.get(key) {
            return Arc::clone(cell);
        }
        let cell = Cell::default();
        map.insert(key.clone(), Arc::clone(&cell));
        cell
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            entries: lock(&self.map).len(),
        }
    }
}

impl<K: Hash + Eq + Clone, V> Memo<K, V> {
    /// [`Memo::get_or_try_init`] for a computation that cannot fail.
    pub fn get_or_init(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let Ok(value) = self.get_or_try_init(key, || Ok(compute()));
        value
    }
}

impl<K: Hash + Eq + Clone, V: Persist, E: Clone> Memo<K, V, E> {
    /// Every persistable value, by content hash: the warm tier plus every
    /// ready value.
    fn persistable(&self) -> Table<V> {
        let mut entries = lock(&self.warm.map).clone();
        for (key, cell) in lock(&self.map).iter() {
            if let Some(Ok(value)) = cell.get() {
                entries.insert(content_hash(key), Arc::clone(value));
            }
        }
        Table {
            map: Mutex::new(entries),
        }
    }

    /// Saves every persistable value to `dir/`[`Persist::FILE_NAME`]
    /// (atomically).
    ///
    /// # Errors
    ///
    /// [`crate::SmartError::Store`] on any underlying filesystem failure.
    pub fn save(&self, dir: &Path) -> crate::Result<()> {
        self.persistable().save(dir)
    }

    /// Replaces the warm tier with the store in `dir`; returns how many
    /// entries are now warm (zero for a missing or damaged store).
    pub fn load(&self, dir: &Path) -> usize {
        self.warm.load(dir)
    }
}

/// A thread-safe, key-ordered map from 128-bit keys to shared values: the
/// warm tier of every [`Memo`], and a store of its own for callers that
/// compute their keys. Key order makes the persisted bytes deterministic.
/// `V` may be unsized (`Table<dyn Any + Send + Sync>`); a table of
/// [`Persist`] values saves and loads one store file.
#[derive(Debug)]
pub struct Table<V: ?Sized> {
    map: Mutex<BTreeMap<u128, Arc<V>>>,
}

impl<V: ?Sized> Default for Table<V> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
        }
    }
}

impl<V: ?Sized> Table<V> {
    /// The value under `key`, if any.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<Arc<V>> {
        lock(&self.map).get(&key).cloned()
    }

    /// Stores `value` under `key`, replacing any earlier value.
    pub fn insert(&self, key: u128, value: Arc<V>) {
        lock(&self.map).insert(key, value);
    }

    /// Number of keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// True when no key is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Persist> Table<V> {
    /// The store payload: a count, then one `(key, record)` pair per
    /// entry, in key order.
    fn to_bytes(&self) -> Vec<u8> {
        let map = lock(&self.map);
        let mut w = ByteWriter::new();
        w.u64(map.len() as u64);
        for (key, value) in map.iter() {
            w.u128(*key);
            value.write(&mut w);
        }
        w.into_bytes()
    }

    /// Saves every entry to `dir/`[`Persist::FILE_NAME`] (atomically).
    ///
    /// # Errors
    ///
    /// [`crate::SmartError::Store`] on any underlying filesystem failure.
    pub fn save(&self, dir: &Path) -> crate::Result<()> {
        Store::write_file(&dir.join(V::FILE_NAME), V::TAG, V::VERSION, self.to_bytes())?;
        Ok(())
    }

    /// Replaces the entries with the store in `dir`; returns how many are
    /// now stored. A missing or damaged store returns zero and leaves the
    /// table unchanged.
    pub fn load(&self, dir: &Path) -> usize {
        let Some(entries) = Store::read_file(&dir.join(V::FILE_NAME), V::TAG, V::VERSION)
            .and_then(|payload| parse::<V>(&payload))
        else {
            return 0;
        };
        let mut map = lock(&self.map);
        *map = entries;
        map.len()
    }
}

/// Parses a store payload; `None` on any truncation or trailing bytes.
fn parse<V: Persist>(payload: &[u8]) -> Option<BTreeMap<u128, Arc<V>>> {
    let mut r = ByteReader::new(payload);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        let key = r.u128()?;
        entries.insert(key, Arc::new(V::read(&mut r)?));
    }
    r.is_empty().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmartError;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    /// A persistable record with a name and a float payload.
    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        name: &'static str,
        value: f64,
    }

    impl Persist for Rec {
        const TAG: &'static str = "memo-test";
        const VERSION: u32 = 1;
        const FILE_NAME: &'static str = "memo-test.bin";

        fn write(&self, w: &mut ByteWriter) {
            w.str(self.name);
            w.f64(self.value);
        }

        fn read(r: &mut ByteReader<'_>) -> Option<Self> {
            Some(Self {
                name: r.static_str()?,
                value: r.f64()?,
            })
        }
    }

    type RecMemo = Memo<u32, Rec, SmartError>;

    fn rec(key: u32) -> Result<Rec, SmartError> {
        let value = f64::from(key) / 3.0;
        Ok(Rec { name: "rec", value })
    }

    fn counts(memo: &RecMemo) -> (u64, u64, u64, usize) {
        let s = memo.stats();
        (s.hits, s.misses, s.coalesced, s.entries)
    }

    /// Looks key 1 up while another thread is inside `owner`, its
    /// computation of key 1 (the barrier puts it there first, the sleep
    /// keeps it there); returns what the waiting lookup got.
    fn wait_on(
        memo: &RecMemo,
        owner: impl FnOnce() -> Result<Rec, SmartError> + Send,
    ) -> Result<Arc<Rec>, SmartError> {
        let barrier = &Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                memo.get_or_try_init(&1, || {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(100));
                    owner()
                })
            });
            barrier.wait();
            memo.get_or_try_init(&1, || panic!("the owner computes"))
        })
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("smart-memo-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let memo = RecMemo::new();
        let a = memo.get_or_try_init(&1, || rec(1)).expect("ok");
        let b = memo.get_or_try_init(&1, || panic!("memoized")).expect("ok");
        assert!(Arc::ptr_eq(&a, &b), "the second lookup shares the Arc");
        let c = memo.get_or_try_init(&2, || rec(2)).expect("ok");
        assert_ne!(a.value, c.value, "distinct keys do not collide");
        assert_eq!(counts(&memo), (1, 2, 0, 2));
    }

    #[test]
    fn concurrent_misses_compute_once() {
        let memo = RecMemo::new();
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            rec(1)
        };
        let all: Vec<Arc<Rec>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| memo.get_or_try_init(&1, compute)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins").expect("ok"))
                .collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(all.iter().all(|r| Arc::ptr_eq(&all[0], r)));
        let s = memo.stats();
        assert_eq!((s.misses, s.hits + s.coalesced, s.entries), (1, 3, 1));
    }

    #[test]
    fn waiter_on_an_in_flight_computation_counts_as_coalesced() {
        let memo = RecMemo::new();
        assert_eq!(
            wait_on(&memo, || rec(1)).as_deref(),
            Ok(&rec(1).expect("ok"))
        );
        assert_eq!(counts(&memo), (0, 1, 1, 1));
    }

    #[test]
    fn waiter_on_a_failing_computation_gets_the_error_and_the_next_lookup_retries() {
        let memo = RecMemo::new();
        let failure = SmartError::simulation("diverged");
        assert_eq!(
            wait_on(&memo, || Err(failure.clone())),
            Err(failure.clone())
        );
        assert_eq!(counts(&memo), (0, 1, 0, 0), "the failed cell is evicted");
        assert!(memo.get_or_try_init(&1, || rec(1)).is_ok());
        assert_eq!(counts(&memo), (0, 2, 0, 1));
    }

    #[test]
    fn panics_poison_nothing_else() {
        let memo = RecMemo::new();
        // A computation that panics leaves its cell empty, and a thread
        // that dies holding the map lock poisons nothing: later lookups,
        // of the same key and of others, compute normally.
        let died = std::thread::scope(|s| {
            s.spawn(|| memo.get_or_try_init(&1, || panic!("die computing")))
                .join()
        });
        assert!(died.is_err());
        assert!(memo.get_or_try_init(&1, || rec(1)).is_ok());
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = memo.map.lock();
                panic!("die holding the map lock");
            })
            .join()
        });
        assert!(died.is_err());
        assert!(memo.get_or_try_init(&2, || rec(2)).is_ok());
        assert_eq!(memo.stats().entries, 2);
    }

    #[test]
    fn warm_round_trip_is_exact_and_resaves_identical_bytes() {
        let dir = temp_dir("round-trip");
        let cold = RecMemo::new();
        let direct = cold.get_or_try_init(&7, || rec(7)).expect("ok");
        cold.get_or_try_init(&8, || rec(8)).expect("ok");
        let failed = cold.get_or_try_init(&9, || Err(SmartError::simulation("x")));
        assert!(failed.is_err());
        cold.save(&dir).expect("saves");

        let warm = RecMemo::new();
        assert_eq!(warm.load(&dir), 2, "failed keys are not persisted");
        let reloaded = warm.get_or_try_init(&7, || panic!("served warm"));
        let reloaded = reloaded.expect("ok");
        assert_eq!(*reloaded, *direct);
        assert_eq!(reloaded.value.to_bits(), direct.value.to_bits());
        assert_eq!(counts(&warm), (1, 0, 0, 1));
        assert_eq!(
            warm.persistable().to_bytes(),
            cold.persistable().to_bytes(),
            "re-save is identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_truncated_or_bit_flipped_stores_load_zero() {
        let dir = temp_dir("corrupt");
        assert_eq!(RecMemo::new().load(&dir), 0, "missing file");
        let cold = RecMemo::new();
        cold.get_or_try_init(&1, || rec(1)).expect("ok");
        cold.save(&dir).expect("saves");
        let path = dir.join(Rec::FILE_NAME);
        let good = std::fs::read(&path).expect("reads");
        // Every proper prefix, and every byte under three flip masks.
        let truncated = (0..good.len()).map(|cut| good[..cut].to_vec());
        let flipped = (0..good.len() * 3).map(|i| {
            let mut bad = good.clone();
            bad[i / 3] ^= [0x01, 0x20, 0xff][i % 3];
            bad
        });
        for bad in truncated.chain(flipped) {
            std::fs::write(&path, &bad).expect("writes");
            assert_eq!(RecMemo::new().load(&dir), 0, "{bad:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_table_round_trips_and_a_failed_load_leaves_it_unchanged() {
        let dir = temp_dir("table");
        let table = Table::<Rec>::default();
        table.insert(3, Arc::new(rec(3).expect("ok")));
        table.save(&dir).expect("saves");
        table.insert(4, Arc::new(rec(4).expect("ok")));
        assert_eq!(table.load(&dir), 1, "a load replaces the entries");
        assert!(table.get(4).is_none());
        assert_eq!(table.get(3).as_deref(), Some(&rec(3).expect("ok")));
        std::fs::write(dir.join(Rec::FILE_NAME), b"junk").expect("writes");
        assert_eq!(table.load(&dir), 0, "a damaged store loads nothing");
        assert_eq!(table.len(), 1, "and leaves the table as it was");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_to_unwritable_dir_is_a_typed_error() {
        let err = RecMemo::new()
            .save(Path::new("/proc/definitely/not/writable"))
            .expect_err("must fail, not panic");
        assert!(matches!(err, SmartError::Store { .. }), "{err:?}");
    }
}
