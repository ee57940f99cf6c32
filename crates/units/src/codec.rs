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
//!    guarded by a length field and a checksum (the low half of the
//!    payload's [`ContentHasher`] hash), and every store carries both the
//!    container format version and an app-level version.
//! 3. **Content-hash keys.** Cache keys (a full `Scheme` value, a
//!    `CellSpec`, an ILP fingerprint) are persisted as 128-bit content
//!    hashes ([`content_hash`]), not serialized key structures — the
//!    in-memory cache still compares real keys, and the persisted side map
//!    is only consulted on a miss. The hash is this module's own
//!    [`ContentHasher`], so keys stay the same across toolchains; a change
//!    to it bumps the container format version, which empties every warm
//!    store at once (the app version gate catches intentional layout
//!    changes of one store).
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
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Mutex;

/// Magic prefix of every store file.
const MAGIC: &[u8; 4] = b"SMRT";

/// Container format revision. Bump it when the header layout or the
/// checksum changes, and when [`content_hash`] derives other keys, since
/// it covers the keys of every store (2: [`ContentHasher`] replaced two
/// passes of std's `SipHash`-1-3, whose algorithm std leaves unspecified
/// across releases; 3: the checksum is [`checksum`] instead of FNV-1a,
/// which read one byte at a time).
const FORMAT_VERSION: u32 = 3;

/// The store checksum of a payload: the low half of its [`ContentHasher`]
/// hash, which reads 32 bytes per step. It guards against truncation and
/// bit rot, not adversaries.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = ContentHasher::default();
    h.write(payload);
    h.finish()
}

/// A 128-bit content hash of any `Hash` value: one [`ContentHasher`]
/// pass over it. Used as the persisted key of cache entries. The hash is
/// the workspace's own, so a key is the same under every toolchain that
/// keeps std's `Hash` encoding of the key's types (the known-answer test
/// pins both); changing it bumps the container format version. A
/// collision would need two live keys agreeing on all 128 bits, which is
/// negligible at cache scale (and degrades to a stale-looking entry the
/// in-memory layer never confirms, not to silent corruption of the
/// exact-key map).
#[must_use]
pub fn content_hash<K: Hash>(key: &K) -> u128 {
    let mut h = ContentHasher::default();
    key.hash(&mut h);
    h.finish128()
}

/// Odd multiplier of the lane step (the 64-bit golden ratio).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Start state of the four lanes (hex digits of pi).
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// One word into one lane: xor, multiply by an odd constant, rotate. Each
/// of the three is a bijection of the lane, so no word can collapse two
/// states into one, and two words into the same state give two states.
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_MUL).rotate_left(31)
}

/// The murmur3 64-bit finalizer: full avalanche of one word.
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Up to eight bytes as a little-endian word, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (w, b) in word.iter_mut().zip(bytes) {
        *w = *b;
    }
    u64::from_le_bytes(word)
}

/// The 128-bit [`Hasher`] behind [`content_hash`], for callers that
/// stream a key's words straight in instead of collecting them first.
///
/// The hash is a function of the byte stream alone, read as little-endian
/// 64-bit words: how the bytes are split into `write` calls does not
/// matter, so std's prefix-free `Hash` encodings stay collision-free. Word
/// `i` goes to lane `i % 4` of four independent 64-bit lanes, by a step
/// that is a bijection of the lane; a slice takes a 32-byte block, one
/// word per lane, per step. [`ContentHasher::finish128`] folds the lanes
/// into two words, each fold again a bijection of either lane, and mixes
/// them with the byte count in three Feistel half-rounds of the murmur3
/// finalizer: two streams of equal length that differ in one word always
/// hash apart. Integers are written little-endian and `usize` as 64 bits,
/// so keys do not depend on the host's pointer width.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    /// The lanes, rotated so that the next word's lane comes first.
    lanes: [u64; 4],
    /// Bytes written so far.
    len: u64,
    /// The `len % 8` bytes past the last whole word, little-endian.
    tail: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self {
            lanes: LANE_SEEDS,
            len: 0,
            tail: 0,
        }
    }
}

impl ContentHasher {
    /// The 128-bit hash of everything written so far.
    #[must_use]
    pub fn finish128(&self) -> u128 {
        let mut lanes = self.lanes;
        if self.shift() > 0 {
            lanes = Self::absorb(lanes, self.tail);
        }
        let [l0, l1, l2, l3] = lanes;
        let mut hi = lane_step(l0, l2) ^ self.len;
        let mut lo = lane_step(l1, l3);
        hi ^= fmix64(lo);
        lo ^= fmix64(hi);
        hi ^= fmix64(lo);
        u128::from(hi) << 64 | u128::from(lo)
    }

    /// `lanes` after one word into the first lane, which then goes last.
    fn absorb([a, b, c, d]: [u64; 4], word: u64) -> [u64; 4] {
        [b, c, d, lane_step(a, word)]
    }

    /// Bits of the pending partial word.
    fn shift(&self) -> u32 {
        8 * (self.len % 8) as u32
    }

    /// The word completed by the low bytes of `word` when `shift` bits are
    /// pending; its high bytes become the pending ones, as many as before.
    fn carry(&mut self, word: u64, shift: u32) -> u64 {
        if shift == 0 {
            return word;
        }
        let done = self.tail | word << shift;
        self.tail = word >> (64 - shift);
        done
    }

    /// Appends the low `n < 8` bytes of `v`.
    fn write_short(&mut self, v: u64, n: u32) {
        let shift = self.shift();
        self.len += u64::from(n);
        if shift + 8 * n < 64 {
            self.tail |= v << shift;
        } else {
            let word = self.carry(v, shift);
            self.lanes = Self::absorb(self.lanes, word);
        }
    }
}

impl Hasher for ContentHasher {
    /// The low half of [`ContentHasher::finish128`].
    fn finish(&self) -> u64 {
        self.finish128() as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        let shift = self.shift();
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            let mut words = [0u64; 4];
            for (w, b) in words.iter_mut().zip(block.chunks_exact(8)) {
                *w = self.carry(le_word(b), shift);
            }
            let [a, b, c, d] = self.lanes;
            let [w0, w1, w2, w3] = words;
            self.lanes = [
                lane_step(a, w0),
                lane_step(b, w1),
                lane_step(c, w2),
                lane_step(d, w3),
            ];
        }
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            let word = self.carry(le_word(w), shift);
            self.lanes = Self::absorb(self.lanes, word);
        }
        let rest = words.remainder();
        self.len += (bytes.len() - rest.len()) as u64;
        if !rest.is_empty() {
            self.write_short(le_word(rest), rest.len() as u32);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_short(v.into(), 1);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_short(v.into(), 2);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_short(v.into(), 4);
    }

    fn write_u64(&mut self, v: u64) {
        let word = self.carry(v, self.shift());
        self.len += 8;
        self.lanes = Self::absorb(self.lanes, word);
    }

    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
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
/// version `u32` · payload length `u64` · payload bytes · checksum of the
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
        w.u64(checksum(&payload));
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
        if r.u64()? != checksum(payload) {
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
    fn content_hash_known_answers() {
        // Pinned keys: a change to `ContentHasher`, or to std's `Hash`
        // encoding of strings, tuples and slices, moves these and must
        // bump `FORMAT_VERSION`.
        assert_eq!(FORMAT_VERSION, 3);
        let empty: &[u64] = &[];
        let cases = [
            (content_hash(&()), 0xb602_f248_1f0b_c6de_cd34_669c_87d8_1b36),
            (
                content_hash(&42u64),
                0x53ff_31a8_774c_2a3f_70ac_2ed0_1aee_4fad,
            ),
            (
                content_hash(&("SMART", 3u32)),
                0xa953_72c2_19d6_2ca0_0074_bf59_aa90_8ddf,
            ),
            (
                content_hash(&vec![1u64, 2, 3, u64::MAX, 5]),
                0xff3d_db7e_f984_6fa8_2397_754e_d373_71fd,
            ),
            (
                content_hash(&empty),
                0x6a58_b84b_ed44_838a_d591_1bee_ff18_a0e6,
            ),
        ];
        for (i, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(got, want, "case {i}: {got:#034x}");
        }
    }

    #[test]
    fn content_hash_depends_on_the_bytes_not_on_how_they_are_written() {
        let mut rng = crate::rng::Rng::new(29);
        let mut draw = |k: u64| (rng.next_u64() % k) as usize;
        for _ in 0..500 {
            let bytes: Vec<u8> = (0..draw(100)).map(|_| draw(256) as u8).collect();
            let mut whole = ContentHasher::default();
            whole.write(&bytes);
            // The same bytes as random u8, u16, u32 and u64 writes and
            // slices of up to 40 bytes, so every alignment meets every
            // kind of write.
            let mut parts = ContentHasher::default();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let kind = draw(5);
                let width = if kind < 4 { 1 << kind } else { draw(41) };
                let (part, tail) = rest.split_at(width.min(rest.len()));
                match (kind, part) {
                    (0, &[a]) => parts.write_u8(a),
                    (1, &[a, b]) => parts.write_u16(u16::from_le_bytes([a, b])),
                    (2, &[a, b, c, d]) => parts.write_u32(u32::from_le_bytes([a, b, c, d])),
                    (3, _) if part.len() == 8 => parts.write_u64(le_word(part)),
                    _ => parts.write(part),
                }
                rest = tail;
            }
            assert_eq!(whole.finish128(), parts.finish128(), "{bytes:?}");
            assert_eq!(whole.finish(), whole.finish128() as u64);
        }
        let mut wide = ContentHasher::default();
        wide.write_u128(u128::MAX - 7);
        wide.write_usize(9);
        assert_eq!(
            wide.finish128(),
            content_hash(&(u64::MAX - 7, u64::MAX, 9u64)),
            "u128 is two little-endian words, usize one word"
        );
    }

    #[test]
    fn a_store_from_format_version_1_opens_cold() {
        let mut old = Store::seal("unit-test", 3, sample_payload());
        old[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(Store::open(&old, "unit-test", 3).is_none());
    }

    #[test]
    fn a_store_from_format_version_2_opens_cold() {
        // `u64 42` and the string "conv2" as format 2 sealed them for tag
        // "demo" at version 1, with an FNV-1a checksum.
        let v2: [u8; 61] = [
            0x53, 0x4d, 0x52, 0x54, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x64, 0x65, 0x6d, 0x6f, 0x01, 0x00, 0x00, 0x00, 0x15, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x6e, 0x76, 0x32, 0xe6, 0xe7, 0xfe,
            0xc2, 0x83, 0x4b, 0x54, 0x88,
        ];
        assert!(Store::open(&v2, "demo", 1).is_none());
        // Sealed again, the payload opens; only the container version and
        // the checksum moved.
        let payload = &v2[32..53];
        let v3 = Store::seal("demo", 1, payload.to_vec());
        assert_eq!(Store::open(&v3, "demo", 1), Some(payload));
        assert_eq!(v3.len(), v2.len());
        let moved: Vec<usize> = (0..v2.len()).filter(|&i| v2[i] != v3[i]).collect();
        assert!(moved.iter().all(|&i| i == 4 || i >= 53), "{moved:?}");
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
