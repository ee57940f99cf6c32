//! A hand-rolled compact binary codec and versioned store container for
//! the workspace's persistent warm-start caches.
//!
//! The sweep workloads (RANDOM-technology ablations, buffer-depth and
//! bandwidth scans, the coming Pareto searches) call the evaluator, the
//! ILP compiler, and the cycle replay thousands of times per *process*,
//! and every process used to start cold. Every persistent store is a
//! [`crate::memo::Table`] of one [`crate::memo::Persist`] record type, on
//! its own (`smart_ilp::SolverContext`'s bases and solutions) or as the
//! warm tier of a [`crate::memo::Memo`] (`smart_core::cache::EvalCache`,
//! `smart_josim::cache::CircuitCache`, `smart_timing::TimingCache`). The
//! table lays out the payload; this module supplies its primitives and the
//! container, so a repeated run starts warm from a `--cache-dir`.
//!
//! Design constraints, in order:
//!
//! 1. **No new dependencies.** Everything is length-prefixed little-endian
//!    primitives ([`ByteWriter`] / [`ByteReader`]); floats travel as IEEE
//!    bit patterns so values round-trip *exactly* (warm runs must be
//!    byte-identical to cold runs).
//! 2. **Fall back to cold, never fail.** A store that is truncated,
//!    corrupted, from a different format revision, or from a different
//!    build simply opens as `None` — the caller starts with an empty cache
//!    and overwrites the file on save. A cache file can never make a run
//!    error or (worse) silently produce different numbers: payloads are
//!    guarded by a length field and an FNV-1a checksum, and every store
//!    carries both the container format version and an app-level version.
//! 3. **Content-hash keys.** Cache keys (a full `Scheme` value, a
//!    `CellSpec`, an ILP fingerprint) are persisted as 128-bit content
//!    hashes ([`content_hash`]), not serialized key structures — the
//!    in-memory cache still compares real keys, and the persisted side map
//!    is only consulted on a miss. Hashes are deterministic within one
//!    build of the workspace; a toolchain bump at worst empties the warm
//!    store (the app version gate catches intentional layout changes).
//!
//! ```
//! use smart_units::codec::{ByteReader, ByteWriter, Store};
//!
//! let mut w = ByteWriter::new();
//! w.u64(42);
//! w.f64(1.5);
//! w.str("conv2");
//! let file = Store::seal("demo", 1, w.into_bytes());
//!
//! let payload = Store::open(&file, "demo", 1).expect("fresh store opens");
//! let mut r = ByteReader::new(payload);
//! assert_eq!(r.u64(), Some(42));
//! assert_eq!(r.f64(), Some(1.5));
//! assert_eq!(r.str().as_deref(), Some("conv2"));
//!
//! // Any flipped bit falls back to cold (None), never to bad data.
//! let mut bad = file.clone();
//! *bad.last_mut().unwrap() ^= 1;
//! assert!(Store::open(&bad, "demo", 1).is_none());
//! ```

use crate::sync::lock;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Mutex;

/// Magic prefix of every store file.
const MAGIC: &[u8; 4] = b"SMRT";

/// Container format revision (bump when the header layout changes).
const FORMAT_VERSION: u32 = 1;

/// FNV-1a over a byte slice: the store checksum. Deliberately simple —
/// this guards against truncation and bit rot, not adversaries.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 128-bit content hash of any `Hash` value, built from two
/// domain-separated [`DefaultHasher`] passes. Used as the persisted key of
/// cache entries: collisions would need two live keys agreeing on both
/// independent 64-bit halves, which is negligible at cache scale (and a
/// collision degrades to a stale-looking entry the in-memory layer never
/// confirms, not to silent corruption of the exact-key map).
#[must_use]
pub fn content_hash<K: Hash>(key: &K) -> u128 {
    let mut a = DefaultHasher::new();
    0xa5a5_a5a5_u32.hash(&mut a);
    key.hash(&mut a);
    let mut b = DefaultHasher::new();
    0x5a5a_5a5a_u32.hash(&mut b);
    key.hash(&mut b);
    (u128::from(a.finish()) << 64) | u128::from(b.finish())
}

/// Little-endian append-only byte sink.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes and returns the raw bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
}

/// Cursor over a byte slice; every accessor returns `None` past the end
/// (and the caller treats `None` as "fall back to cold").
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    /// True once every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.at >= self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string. The length is bounds-checked
    /// against the remaining bytes before allocating, so a corrupted
    /// prefix cannot trigger an absurd allocation.
    pub fn str(&mut self) -> Option<String> {
        let len = usize::try_from(self.u64()?).ok()?;
        let s = self.take(len)?;
        String::from_utf8(s.to_vec()).ok()
    }

    /// Reads a length-prefixed UTF-8 string as a `&'static str` (record
    /// fields such as scheme names are `&'static str`). Strings are
    /// interned: each distinct one is leaked once per process, so loading
    /// a store again leaks nothing new.
    pub fn static_str(&mut self) -> Option<&'static str> {
        static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
        let s = self.str()?;
        let mut interned = lock(&INTERNED);
        if let Some(&found) = interned.get(s.as_str()) {
            return Some(found);
        }
        let leaked: &'static str = Box::leak(s.into_boxed_str());
        interned.insert(leaked);
        Some(leaked)
    }

    /// Reads a length-prefixed `u64` vector (length bounds-checked like
    /// [`ByteReader::str`]).
    pub fn u64_vec(&mut self) -> Option<Vec<u64>> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.bytes.len().saturating_sub(self.at) / 8 {
            return None;
        }
        (0..len).map(|_| self.u64()).collect()
    }
}

/// The versioned, checksummed container every persistent cache ships its
/// payload in.
///
/// Layout: `b"SMRT"` · container version `u32` · app tag (str) · app
/// version `u32` · payload length `u64` · payload bytes · FNV-1a of the
/// payload `u64`, all little-endian. Any deviation opens as `None`.
#[derive(Debug)]
pub struct Store;

impl Store {
    /// Wraps `payload` in a store envelope for `tag` at `version`.
    #[must_use]
    pub fn seal(tag: &str, version: u32, payload: Vec<u8>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(MAGIC);
        w.u32(FORMAT_VERSION);
        w.str(tag);
        w.u32(version);
        w.u64(payload.len() as u64);
        w.buf.extend_from_slice(&payload);
        w.u64(fnv1a(&payload));
        w.into_bytes()
    }

    /// Opens a sealed store, returning the payload slice only when the
    /// magic, container version, tag, app version, length, and checksum
    /// all match — anything else is a cold start.
    #[must_use]
    pub fn open<'a>(bytes: &'a [u8], tag: &str, version: u32) -> Option<&'a [u8]> {
        let mut r = ByteReader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return None;
        }
        if r.u32()? != FORMAT_VERSION {
            return None;
        }
        if r.str()? != tag {
            return None;
        }
        if r.u32()? != version {
            return None;
        }
        let len = usize::try_from(r.u64()?).ok()?;
        let payload = r.take(len)?;
        if r.u64()? != fnv1a(payload) {
            return None;
        }
        if !r.is_empty() {
            return None;
        }
        Some(payload)
    }

    /// Reads and opens a store file; `None` on any I/O error or container
    /// mismatch (the fall-back-to-cold path).
    #[must_use]
    pub fn read_file(path: &Path, tag: &str, version: u32) -> Option<Vec<u8>> {
        let bytes = std::fs::read(path).ok()?;
        Some(Self::open(&bytes, tag, version)?.to_vec())
    }

    /// Seals and writes a store file atomically (write to a sibling temp
    /// file, then rename), so a crashed or concurrent run leaves either
    /// the old file or the new one — never a torn store. A failed write or
    /// rename removes its temp file; only a crash can leave one behind,
    /// as harmless garbage.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error (missing directory, permissions,
    /// a directory in the way).
    pub fn write_file(
        path: &Path,
        tag: &str,
        version: u32,
        payload: Vec<u8>,
    ) -> std::io::Result<()> {
        let sealed = Self::seal(tag, version, payload);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let written = std::fs::write(&tmp, sealed).and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            // Best effort: the write's own error is the one to report.
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.u128(u128::from(u64::MAX) + 99);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.str("conv4_2");
        w.u64_slice(&[1, 2, 3]);
        w.into_bytes()
    }

    #[test]
    fn primitives_round_trip_exactly() {
        let bytes = sample_payload();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.u128(), Some(u128::from(u64::MAX) + 99));
        let neg_zero = r.f64().expect("f64");
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64(), Some(f64::MIN_POSITIVE));
        assert_eq!(r.str().as_deref(), Some("conv4_2"));
        assert_eq!(r.u64_vec(), Some(vec![1, 2, 3]));
        assert!(r.is_empty());
    }

    #[test]
    fn static_strs_are_interned() {
        let mut w = ByteWriter::new();
        w.str("SMART");
        w.str("SMART");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let a = r.static_str().expect("first");
        let b = r.static_str().expect("second");
        assert_eq!(a, "SMART");
        assert!(std::ptr::eq(a, b), "one leak per distinct string");
        assert_eq!(r.static_str(), None);
    }

    #[test]
    fn reads_past_the_end_are_none() {
        let mut w = ByteWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32(), Some(5));
        assert_eq!(r.u32(), None);
        assert_eq!(r.u64(), None);
        assert_eq!(r.str(), None);
    }

    #[test]
    fn corrupted_length_prefix_cannot_over_allocate() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd string length
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).str(), None);
        assert_eq!(ByteReader::new(&bytes).u64_vec(), None);
    }

    #[test]
    fn store_round_trips() {
        let sealed = Store::seal("unit-test", 3, sample_payload());
        let payload = Store::open(&sealed, "unit-test", 3).expect("opens");
        assert_eq!(payload, sample_payload());
    }

    #[test]
    fn store_rejects_mismatches_and_corruption() {
        let sealed = Store::seal("unit-test", 3, sample_payload());
        assert!(Store::open(&sealed, "other-tag", 3).is_none());
        assert!(Store::open(&sealed, "unit-test", 4).is_none());
        assert!(Store::open(&sealed[..sealed.len() - 1], "unit-test", 3).is_none());
        assert!(Store::open(b"", "unit-test", 3).is_none());
        assert!(Store::open(b"JUNKJUNKJUNK", "unit-test", 3).is_none());
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(
                Store::open(&bad, "unit-test", 3).is_none(),
                "flip at {i} must not open"
            );
        }
        let mut trailing = sealed.clone();
        trailing.push(0);
        assert!(Store::open(&trailing, "unit-test", 3).is_none());
    }

    #[test]
    fn content_hash_separates_and_repeats() {
        let a = content_hash(&("SMART", 3u32));
        let b = content_hash(&("SMART", 4u32));
        let c = content_hash(&("SMART", 3u32));
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(a >> 64, a & u128::from(u64::MAX), "halves independent");
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("smart-codec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("demo.bin");
        assert!(Store::read_file(&path, "demo", 1).is_none(), "missing");
        Store::write_file(&path, "demo", 1, sample_payload()).expect("writes");
        assert_eq!(
            Store::read_file(&path, "demo", 1),
            Some(sample_payload()),
            "round trip"
        );
        assert!(Store::read_file(&path, "demo", 2).is_none(), "version gate");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("smart-codec-tmp-{}", std::process::id()));
        let target = dir.join("demo.bin");
        std::fs::create_dir_all(&target).expect("mkdir");
        let err = Store::write_file(&target, "demo", 1, sample_payload());
        assert!(err.is_err(), "a directory is in the way");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("lists")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(names, ["demo.bin"], "no .tmp. file remains");
        std::fs::remove_dir_all(&dir).ok();
    }
}
