//! The persistent snapshot store: content-addressed program payloads on
//! disk, so a restarted daemon opens a known program without parsing it.
//!
//! The store is deliberately dumb about *what* it holds — records are
//! opaque byte payloads keyed by a caller-supplied 64-bit content key (the
//! daemon uses the FNV-1a hash of the program source, the same key its
//! in-memory cache uses). What the store *is* opinionated about is
//! surviving the real world:
//!
//! * **Versioned, checksummed records.** Every file starts with a fixed
//!   header: magic, format version, the content key, the payload length,
//!   and a word-at-a-time FNV-style checksum over version + key + payload.
//!   A load validates
//!   all of it; any mismatch — wrong version after an upgrade, truncation
//!   from a torn write, bit rot, a file renamed under the wrong key — is a
//!   counted rejection ([`RecordError`]), never a panic and never a wrong
//!   payload.
//! * **Corruption is degradation, not failure.** A corrupt record is
//!   deleted and reported as a miss; the caller rebuilds from source and
//!   usually re-saves. The `serve.store.corrupt` counter makes the
//!   degradation observable.
//! * **Atomic writes.** Payloads land in a temp file in the same directory
//!   and are `rename`d into place, so a crash mid-write leaves either the
//!   old state or the new record, never a half-written one under a live
//!   name.
//! * **Byte-budget LRU.** The directory is bounded: after each write, the
//!   oldest records (by modification time — loads touch it) are evicted
//!   until the total fits the budget, keeping at least the record just
//!   written.
//!
//! Concurrency: one store value may be shared across threads (`&self`
//! everywhere, counters atomic, writes serialized by an internal lock).
//! Multiple *processes* sharing a directory are safe against torn reads by
//! the checksum, though their evictions may race benignly.
//!
//! All filesystem traffic goes through the narrow [`StoreIo`] trait.
//! Production code uses [`RealIo`] (thin `std::fs` passthroughs); fault
//! injection (the `jumpslice-chaos` crate, and this crate's own property
//! tests) substitutes an implementation that fails, tears, or corrupts
//! specific calls on a deterministic schedule. The store's recovery
//! obligations — corruption is a counted miss, a failed write leaves no
//! partial record, eviction never exceeds what the budget demands — are
//! stated against that trait, not against a well-behaved kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jumpslice_obs as obs;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Metadata for one file as listed by [`StoreIo::list`]: enough for the
/// store's LRU (mtime order) and byte accounting (lengths), nothing more.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Full path of the entry.
    pub path: PathBuf,
    /// Last-modification time (drives LRU eviction order).
    pub mtime: SystemTime,
    /// File length in bytes.
    pub len: u64,
}

/// The complete filesystem surface the snapshot store drives, abstracted
/// so tests can make any call fail, tear, or lie deterministically.
///
/// Implementations must be shareable across threads (`&self` methods,
/// `Send + Sync`); the store serializes writes itself, so `write`,
/// `rename`, and `remove_file` are never raced *by one store value*,
/// but `read`/`exists`/`list` may run concurrently with them.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Reads the entire file at `path`.
    ///
    /// # Errors
    /// Propagates the underlying I/O error (absent file included).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Writes `bytes` to `path`, creating or truncating it.
    ///
    /// # Errors
    /// Propagates the underlying I/O error. On error the file may hold a
    /// prefix of `bytes` (a torn write) — callers must clean up.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory in store usage).
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists at `path` (best-effort, no error channel).
    fn exists(&self, path: &Path) -> bool;
    /// Lists every plain file directly inside `dir` with its metadata.
    ///
    /// # Errors
    /// Propagates the directory-read error; per-entry metadata failures
    /// drop the entry instead.
    fn list(&self, dir: &Path) -> io::Result<Vec<FileMeta>>;
    /// Sets the modification time of `path` (the LRU "touch").
    ///
    /// # Errors
    /// Propagates the underlying I/O error; the store treats failure as
    /// benign (LRU degrades toward FIFO).
    fn set_modified(&self, path: &Path, mtime: SystemTime) -> io::Result<()>;
}

/// The production [`StoreIo`]: direct `std::fs` passthroughs.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<FileMeta>> {
        let rd = fs::read_dir(dir)?;
        Ok(rd
            .flatten()
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                if !meta.is_file() {
                    return None;
                }
                Some(FileMeta {
                    path: e.path(),
                    mtime: meta.modified().ok()?,
                    len: meta.len(),
                })
            })
            .collect())
    }
    fn set_modified(&self, path: &Path, mtime: SystemTime) -> io::Result<()> {
        fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .set_modified(mtime)
    }
}

/// The record format version this build reads and writes. Bump on any
/// payload- or header-layout change: old records then fail the version
/// check and fall back to a from-source rebuild instead of misdecoding.
pub const FORMAT_VERSION: u32 = 7;

/// Record files start with these four bytes.
pub const MAGIC: [u8; 4] = *b"JSST";

/// Fixed header size: magic + version + key + payload length + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a 64-bit over raw bytes — the content-key hash (the daemon keys
/// programs by `fnv1a(source)`). The whole-record checksum uses the faster
/// word-at-a-time variant below instead.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Why a record failed to decode. Every variant maps to "ignore this file
/// and rebuild from source"; the variants exist so tests can pin that each
/// failure mode is detected for the right reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// Shorter than the fixed header.
    TooShort,
    /// The first four bytes are not [`MAGIC`] — not a record at all.
    BadMagic,
    /// A record from a different format generation; carries the version
    /// found on disk.
    WrongVersion(u32),
    /// The header's payload length disagrees with the bytes present.
    LengthMismatch,
    /// The whole-record checksum does not match — bit corruption somewhere
    /// in version, key, or payload.
    BadChecksum,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::TooShort => f.write_str("record shorter than its header"),
            RecordError::BadMagic => f.write_str("bad magic"),
            RecordError::WrongVersion(v) => write!(f, "unsupported format version {v}"),
            RecordError::LengthMismatch => f.write_str("payload length mismatch"),
            RecordError::BadChecksum => f.write_str("checksum mismatch"),
        }
    }
}

impl std::error::Error for RecordError {}

/// The whole-record checksum: everything after the magic that the reader
/// acts on, mixed with the FNV-1a step applied a 64-bit word at a time
/// (byte-at-a-time FNV costs milliseconds on multi-megabyte snapshots,
/// which would dominate the very restore latency the store exists to
/// save). The payload words feed four independent lanes, round-robin:
/// a single chain's throughput is bound by the multiply's latency, while
/// four interleaved chains keep the multiplier busy every cycle.
///
/// Corruption coverage: each lane's `xor`-then-multiply step is bijective
/// in the running hash, so any single corrupted word — hence any single
/// flipped bit — changes exactly one lane's final value; the combining
/// fold is bijective in every lane, so the change reaches the sum.
/// Seeding lane 0 with the payload length keeps distinct-length payloads
/// with a shared prefix from colliding.
fn checksum(version: u32, key: u64, payload: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let mut lanes = [
        mix(OFFSET, payload.len() as u64),
        mix(OFFSET, u64::from(version)),
        mix(OFFSET, key),
        OFFSET,
    ];
    let mut blocks = payload.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("sized"));
            *lane = mix(*lane, w);
        }
    }
    let mut i = 0;
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        lanes[i] = mix(
            lanes[i],
            u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")),
        );
        i += 1;
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        lanes[i] = mix(lanes[i], u64::from_le_bytes(tail));
    }
    mix(mix(mix(lanes[0], lanes[1]), lanes[2]), lanes[3])
}

/// Frames `payload` as a versioned record under `key`.
pub fn encode_record(key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(FORMAT_VERSION, key, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a record and returns its key and a borrow of its payload.
///
/// The version check runs before the checksum: a future format may change
/// the checksum recipe itself, so an old reader must classify new-version
/// records as [`RecordError::WrongVersion`], not as corruption.
pub fn decode_record(bytes: &[u8]) -> Result<(u64, &[u8]), RecordError> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordError::TooShort);
    }
    if bytes[..4] != MAGIC {
        return Err(RecordError::BadMagic);
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("sized"));
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("sized"));
    let version = u32_at(4);
    if version != FORMAT_VERSION {
        return Err(RecordError::WrongVersion(version));
    }
    let key = u64_at(8);
    let len = u64_at(16);
    let stored_sum = u64_at(24);
    let payload = &bytes[HEADER_LEN..];
    if len != payload.len() as u64 {
        return Err(RecordError::LengthMismatch);
    }
    if checksum(version, key, payload) != stored_sum {
        return Err(RecordError::BadChecksum);
    }
    Ok((key, payload))
}

/// Counter and occupancy snapshot for [`SnapshotStore::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records on disk, as this store last counted them (see
    /// [`SnapshotStore::stats`]).
    pub records: usize,
    /// Total record bytes on disk, counted the same way.
    pub bytes: u64,
    /// Loads that returned a valid payload.
    pub hits: u64,
    /// Loads that found no record.
    pub misses: u64,
    /// Records evicted by the byte budget.
    pub evictions: u64,
    /// Loads that found a record but rejected it (bad version, truncation,
    /// checksum, or key mismatch); the file is deleted.
    pub corrupt: u64,
    /// Records written (deduplicated saves not counted).
    pub writes: u64,
}

/// The on-disk snapshot store described in the module docs.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    byte_budget: u64,
    io: Arc<dyn StoreIo>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    /// Records and record bytes on disk: counted by a directory scan at
    /// open and in every write's eviction pass, less each corrupt or
    /// discarded record deleted in between.
    occupancy: Mutex<(usize, u64)>,
    /// Serializes save + evict, and the deletion of corrupt and discarded
    /// records, so two writers cannot double-evict and `occupancy` matches
    /// the scan.
    write_lock: Mutex<()>,
}

impl SnapshotStore {
    /// Opens (creating if needed) a store in `dir`, evicting past
    /// `byte_budget` total record bytes, over the real filesystem.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when `dir` cannot be created.
    pub fn open(dir: impl Into<PathBuf>, byte_budget: u64) -> io::Result<SnapshotStore> {
        SnapshotStore::open_with_io(dir, byte_budget, Arc::new(RealIo))
    }

    /// Opens a store whose every filesystem call goes through `io` — the
    /// fault-injection seam. Leftover temp files from a previous crashed
    /// (or fault-interrupted) writer are swept on open, so torn writes
    /// never accumulate as untracked disk usage.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when `dir` cannot be created.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        byte_budget: u64,
        io: Arc<dyn StoreIo>,
    ) -> io::Result<SnapshotStore> {
        let dir = dir.into();
        io.create_dir_all(&dir)?;
        let store = SnapshotStore {
            dir,
            byte_budget,
            io,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            occupancy: Mutex::new((0, 0)),
            write_lock: Mutex::new(()),
        };
        store.sweep_tmp();
        let files = store.scan();
        *store.occupancy.lock().expect("store occupancy") =
            (files.len(), files.iter().map(|&(_, _, len)| len).sum());
        Ok(store)
    }

    /// Best-effort removal of stale `.tmp-*` files (crashed writers, torn
    /// writes whose cleanup itself failed). Listing failures are ignored:
    /// the sweep is an optimization, not a correctness requirement.
    fn sweep_tmp(&self) {
        let Ok(entries) = self.io.list(&self.dir) else {
            return;
        };
        for f in entries {
            let is_tmp = f
                .path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"));
            if is_tmp {
                self.io.remove_file(&f.path).ok();
            }
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.snap"))
    }

    /// Whether a record for `key` is on disk (without validating it).
    pub fn contains(&self, key: u64) -> bool {
        self.io.exists(&self.path(key))
    }

    /// Loads and validates the record for `key`. `None` means "no usable
    /// record" — absent, unreadable, or corrupt (corrupt files are deleted
    /// and counted, so the next save can replace them). A hit refreshes the
    /// record's modification time, keeping hot programs out of the LRU's
    /// reach.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.path(key);
        let mut bytes = match self.io.read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.bump(&self.misses, "serve.store.miss");
                return None;
            }
        };
        match decode_record(&bytes) {
            Ok((k, _)) if k == key => {
                self.bump(&self.hits, "serve.store.hit");
                self.io.set_modified(&path, SystemTime::now()).ok();
                // Shift the header off in place rather than copying the
                // (multi-megabyte) payload into a fresh allocation.
                bytes.drain(..HEADER_LEN);
                Some(bytes)
            }
            _ => {
                // Wrong key under this filename is corruption too: the
                // payload belongs to some other program.
                self.delete(&path, bytes.len() as u64);
                self.bump(&self.corrupt, "serve.store.corrupt");
                None
            }
        }
    }

    /// Deletes the record [`load`](Self::load) just returned `payload`
    /// from, for a caller that refuses the payload (it does not decode,
    /// or it holds another program), so the next save can replace it.
    pub fn discard(&self, key: u64, payload: &[u8]) {
        self.delete(&self.path(key), (HEADER_LEN + payload.len()) as u64);
    }

    /// Removes the record file at `path`, `len` bytes long, and takes it
    /// out of the occupancy, under the write lock.
    fn delete(&self, path: &Path, len: u64) {
        let _g = self.write_lock.lock().expect("store write lock");
        if self.io.remove_file(path).is_ok() {
            let mut occ = self.occupancy.lock().expect("store occupancy");
            // Saturating: a record another process wrote since the last
            // scan was never counted.
            *occ = (occ.0.saturating_sub(1), occ.1.saturating_sub(len));
        }
    }

    /// Persists `payload` under `key`, atomically. Content is immutable
    /// under its key, so an existing record makes this a no-op; returns
    /// whether a record was actually written. Eviction runs after a write.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the temp-file write or the rename; the
    /// store directory is left without a partial record either way.
    pub fn save(&self, key: u64, payload: &[u8]) -> io::Result<bool> {
        let _g = self.write_lock.lock().expect("store write lock");
        let path = self.path(key);
        if self.io.exists(&path) {
            return Ok(false);
        }
        let tmp = self
            .dir
            .join(format!(".tmp-{key:016x}-{}", std::process::id()));
        if let Err(e) = self.io.write(&tmp, &encode_record(key, payload)) {
            // A failed write (ENOSPC mid-stream, EIO) can leave a torn
            // prefix behind under the temp name; remove it so the failure
            // costs nothing but the error. Surfaced by fault injection:
            // the original code propagated the error and leaked the file.
            self.io.remove_file(&tmp).ok();
            return Err(e);
        }
        match self.io.rename(&tmp, &path) {
            Ok(()) => {}
            Err(e) => {
                self.io.remove_file(&tmp).ok();
                return Err(e);
            }
        }
        self.bump(&self.writes, "serve.store.write");
        self.evict_over_budget(key);
        Ok(true)
    }

    /// Counter and occupancy snapshot. It touches no disk: occupancy is
    /// the directory scan of the last open or write, less the corrupt and
    /// discarded records deleted since, so records another process adds
    /// or removes show after this store's next write.
    pub fn stats(&self) -> StoreStats {
        let (records, bytes) = *self.occupancy.lock().expect("store occupancy");
        StoreStats {
            records,
            bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, counter: &AtomicU64, name: &'static str) {
        let v = counter.fetch_add(1, Ordering::Relaxed) + 1;
        obs::record(|| obs::Event::Count { name, value: v });
    }

    /// Every record file: `(path, mtime, len)`. Temp files and strangers
    /// are ignored.
    fn scan(&self) -> Vec<(PathBuf, SystemTime, u64)> {
        let Ok(entries) = self.io.list(&self.dir) else {
            return Vec::new();
        };
        entries
            .into_iter()
            .filter_map(|f| {
                let name = f.path.file_name()?.to_str()?;
                let stem = name.strip_suffix(".snap")?;
                if stem.len() != 16 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                Some((f.path, f.mtime, f.len))
            })
            .collect()
    }

    /// Deletes oldest-modified records until the directory fits the
    /// budget; `keep` (the record just written) is never a victim, so one
    /// oversized snapshot still persists rather than thrashing.
    fn evict_over_budget(&self, keep: u64) {
        let keep_path = self.path(keep);
        let mut files = self.scan();
        let mut records = files.len();
        let mut total: u64 = files.iter().map(|&(_, _, len)| len).sum();
        files.sort_by_key(|&(_, mtime, _)| mtime);
        for (path, _, len) in files {
            if total <= self.byte_budget {
                break;
            }
            if path == keep_path {
                continue;
            }
            if self.io.remove_file(&path).is_ok() {
                records -= 1;
                total -= len;
                self.bump(&self.evictions, "serve.store.evict");
            }
        }
        *self.occupancy.lock().expect("store occupancy") = (records, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "jumpslice-store-{tag}-{}-{:x}",
            std::process::id(),
            // Distinct per test invocation without a clock: address of a
            // fresh leak-free local is not portable, so use a counter.
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }
    static COUNTER: AtomicU64 = AtomicU64::new(0);

    #[test]
    fn record_round_trips() {
        for payload in [&b""[..], b"x", &[0u8; 1000][..]] {
            let rec = encode_record(0xDEAD_BEEF, payload);
            assert_eq!(decode_record(&rec), Ok((0xDEAD_BEEF, payload)));
        }
    }

    /// Pinned: a version-mismatched record is classified as WrongVersion
    /// even when its checksum is internally consistent — upgrades fall
    /// back cleanly instead of reporting corruption.
    #[test]
    fn version_mismatch_is_rejected_as_wrong_version() {
        let key = 7u64;
        let payload = b"future payload";
        let v2 = FORMAT_VERSION + 1;
        let mut rec = Vec::new();
        rec.extend_from_slice(&MAGIC);
        rec.extend_from_slice(&v2.to_le_bytes());
        rec.extend_from_slice(&key.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        rec.extend_from_slice(&checksum(v2, key, payload).to_le_bytes());
        rec.extend_from_slice(payload);
        assert_eq!(decode_record(&rec), Err(RecordError::WrongVersion(v2)));
    }

    /// Pinned: truncation anywhere — header or payload — is an error,
    /// never a panic or a short read.
    #[test]
    fn truncation_at_every_length_is_rejected() {
        let rec = encode_record(42, b"some payload worth keeping");
        for cut in 0..rec.len() {
            let err = decode_record(&rec[..cut]).expect_err("truncated record must fail");
            assert!(
                matches!(
                    err,
                    RecordError::TooShort | RecordError::LengthMismatch | RecordError::BadChecksum
                ),
                "cut {cut}: {err}"
            );
        }
    }

    /// Pinned: any single flipped bit is caught by magic, version, length,
    /// or checksum validation.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let rec = encode_record(42, b"bit flips shall not pass");
        for byte in 0..rec.len() {
            for bit in 0..8 {
                let mut bad = rec.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_record(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// A record renamed under another key (or a hash collision) fails the
    /// key comparison in `load` and is treated as corruption.
    #[test]
    fn key_mismatch_on_disk_is_corruption() {
        let dir = tmpdir("keymismatch");
        let store = SnapshotStore::open(&dir, u64::MAX).unwrap();
        store.save(1, b"payload of key 1").unwrap();
        fs::rename(dir.join(format!("{:016x}.snap", 1)), store.path(2)).unwrap();
        assert_eq!(store.load(2), None);
        assert!(!store.contains(2), "corrupt record deleted");
        assert_eq!(store.stats().corrupt, 1);
        fs::remove_dir_all(&dir).ok();
    }

    /// `stats` reports what the store counted, with no listing of its own:
    /// the scan at open and in each write's eviction pass, less the corrupt
    /// records `load` deleted and the records a caller discarded.
    #[test]
    fn stats_count_the_last_scan_and_the_deletions_since() {
        let dir = tmpdir("occupancy");
        fs::create_dir_all(&dir).unwrap();
        let stray = |key: u64| {
            fs::write(
                dir.join(format!("{key:016x}.snap")),
                encode_record(key, b"stray"),
            )
            .unwrap();
        };
        let on_disk = || {
            let (bytes, records, _) = disk_state(&dir);
            (records, bytes)
        };
        stray(7);
        let store = SnapshotStore::open(&dir, 3 * (HEADER_LEN + 32) as u64).unwrap();
        let counted = || {
            let s = store.stats();
            (s.records, s.bytes)
        };
        assert_eq!(counted(), on_disk(), "open");
        stray(8);
        assert_eq!(
            counted().0,
            1,
            "a record another process adds waits for a write"
        );
        store.save(1, &[1u8; 32]).unwrap();
        assert_eq!(counted(), on_disk(), "write");
        store.save(2, &[2u8; 32]).unwrap();
        store.save(3, &[3u8; 32]).unwrap();
        assert!(store.stats().evictions > 0);
        assert_eq!(counted(), on_disk(), "eviction");
        let victim = (1..=3).find(|&k| store.contains(k)).unwrap();
        fs::rename(store.path(victim), store.path(4)).unwrap();
        assert_eq!(store.load(4), None);
        assert_eq!(store.stats().corrupt, 1);
        assert_eq!(counted(), on_disk(), "corrupt record deleted");
        store.save(5, &[5u8; 32]).unwrap();
        let payload = store.load(5).unwrap();
        store.discard(5, &payload);
        assert!(!store.contains(5));
        assert_eq!(counted(), on_disk(), "discarded record deleted");
        assert!(store.save(5, &payload).unwrap(), "its key saves again");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_hit_miss_and_dedup() {
        let dir = tmpdir("basic");
        let store = SnapshotStore::open(&dir, u64::MAX).unwrap();
        assert_eq!(store.load(9), None, "empty store misses");
        assert!(store.save(9, b"nine").unwrap());
        assert!(!store.save(9, b"nine again").unwrap(), "dedup save");
        assert_eq!(store.load(9), Some(b"nine".to_vec()), "first save wins");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.records), (1, 1, 1, 1));
        assert!(s.bytes >= HEADER_LEN as u64);

        // A fresh store over the same directory — the restart — still
        // serves the record.
        let store2 = SnapshotStore::open(&dir, u64::MAX).unwrap();
        assert_eq!(store2.load(9), Some(b"nine".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bytes_on_disk_fall_back_and_delete() {
        let dir = tmpdir("corrupt");
        let store = SnapshotStore::open(&dir, u64::MAX).unwrap();
        store.save(5, b"to be mangled").unwrap();
        let path = store.path(5);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(5), None, "corruption is a miss, not a panic");
        assert!(!path.exists(), "corrupt record deleted for re-save");
        assert_eq!(store.stats().corrupt, 1);
        assert!(store.save(5, b"to be mangled").unwrap(), "re-save works");
        assert_eq!(store.load(5), Some(b"to be mangled".to_vec()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_removes_oldest_but_never_the_just_written() {
        let dir = tmpdir("evict");
        // Budget fits roughly one record.
        let store = SnapshotStore::open(&dir, (HEADER_LEN + 40) as u64).unwrap();
        store.save(1, &[1u8; 32]).unwrap();
        // Age record 1 explicitly — mtime granularity is too coarse to
        // rely on write order inside one test.
        let f = fs::OpenOptions::new()
            .write(true)
            .open(store.path(1))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH).unwrap();
        drop(f);
        store.save(2, &[2u8; 32]).unwrap();
        assert!(!store.contains(1), "oldest evicted");
        assert!(store.contains(2), "just-written survives its own eviction");
        assert_eq!(store.stats().evictions, 1);

        // An oversized single record also survives (nothing else to evict).
        let store2 = SnapshotStore::open(tmpdir("evict2"), 1).unwrap();
        store2.save(3, &[3u8; 64]).unwrap();
        assert!(store2.contains(3));
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(store2.dir()).ok();
    }

    /// A [`StoreIo`] that wraps [`RealIo`] and, while armed, makes a
    /// seeded fraction of calls fail: reads error or return one flipped
    /// bit, writes tear (persist a prefix, then report `ENOSPC`) or fail
    /// outright, renames and removals error. Disarming restores perfect
    /// passthrough so end-of-run invariants can be checked against the
    /// real directory contents.
    #[derive(Debug)]
    struct FlakyIo {
        rng: Mutex<jumpslice_testkit::Rng>,
        armed: std::sync::atomic::AtomicBool,
    }

    impl FlakyIo {
        fn new(seed: u64) -> FlakyIo {
            FlakyIo {
                rng: Mutex::new(jumpslice_testkit::Rng::seed_from_u64(seed)),
                armed: std::sync::atomic::AtomicBool::new(true),
            }
        }

        fn disarm(&self) {
            self.armed.store(false, Ordering::Relaxed);
        }

        /// Draws a fault for the next call: 0 = behave, otherwise a
        /// mode number interpreted by the caller.
        fn roll(&self, modes: u32) -> u32 {
            if !self.armed.load(Ordering::Relaxed) {
                return 0;
            }
            let mut rng = self.rng.lock().expect("flaky rng");
            if rng.gen_bool(0.3) {
                rng.gen_range(1..modes + 1)
            } else {
                0
            }
        }

        fn err(kind: io::ErrorKind) -> io::Error {
            io::Error::new(kind, "injected fault")
        }
    }

    impl StoreIo for FlakyIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            RealIo.create_dir_all(dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            match self.roll(2) {
                1 => Err(FlakyIo::err(io::ErrorKind::Other)),
                2 => {
                    let mut bytes = RealIo.read(path)?;
                    if !bytes.is_empty() {
                        let at = {
                            let mut rng = self.rng.lock().expect("flaky rng");
                            rng.gen_range(0..bytes.len())
                        };
                        bytes[at] ^= 0x10;
                    }
                    Ok(bytes)
                }
                _ => RealIo.read(path),
            }
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            match self.roll(2) {
                1 => Err(FlakyIo::err(io::ErrorKind::StorageFull)),
                2 => {
                    // Torn write: a prefix lands, then the device fills.
                    let cut = {
                        let mut rng = self.rng.lock().expect("flaky rng");
                        rng.gen_range(0..bytes.len().max(1))
                    };
                    RealIo.write(path, &bytes[..cut.min(bytes.len())])?;
                    Err(FlakyIo::err(io::ErrorKind::StorageFull))
                }
                _ => RealIo.write(path, bytes),
            }
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            match self.roll(1) {
                1 => Err(FlakyIo::err(io::ErrorKind::Other)),
                _ => RealIo.rename(from, to),
            }
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            match self.roll(1) {
                1 => Err(FlakyIo::err(io::ErrorKind::Other)),
                _ => RealIo.remove_file(path),
            }
        }
        fn exists(&self, path: &Path) -> bool {
            RealIo.exists(path)
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<FileMeta>> {
            RealIo.list(dir)
        }
        fn set_modified(&self, path: &Path, mtime: SystemTime) -> io::Result<()> {
            match self.roll(1) {
                1 => Err(FlakyIo::err(io::ErrorKind::Other)),
                _ => RealIo.set_modified(path, mtime),
            }
        }
    }

    fn prop_payload(key: u64) -> Vec<u8> {
        let mut p = key.to_le_bytes().to_vec();
        p.resize(16 + (key % 48) as usize, key as u8);
        p
    }

    /// Real on-disk `.snap` bytes and whether any `.tmp-` residue exists,
    /// observed through the raw filesystem (not through the store's IO).
    fn disk_state(dir: &Path) -> (u64, usize, bool) {
        let mut bytes = 0u64;
        let mut records = 0usize;
        let mut tmp = false;
        if let Ok(rd) = fs::read_dir(dir) {
            for e in rd.flatten() {
                let name = e.file_name();
                let name = name.to_str().unwrap_or("");
                if name.starts_with(".tmp-") {
                    tmp = true;
                } else if name.ends_with(".snap") {
                    records += 1;
                    bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        (bytes, records, tmp)
    }

    /// Property (ISSUE 9 satellite): under *any* injected IO fault
    /// sequence — torn writes, read errors, bit-flipped reads, failed
    /// renames/removals — the store never serves bytes that differ from
    /// what was saved under the key, never leaks a temp file past a save
    /// call, keeps its occupancy accounting equal to the files actually
    /// on disk, and never evicts the record it just wrote.
    #[test]
    fn any_fault_sequence_preserves_integrity_accounting_and_the_kept_record() {
        jumpslice_testkit::check(24, |outer| {
            let seed = outer.next_u64();
            let dir = tmpdir("fault");
            let io = Arc::new(FlakyIo::new(seed));
            let budget = (3 * (HEADER_LEN + 64)) as u64;
            let store = SnapshotStore::open_with_io(&dir, budget, io.clone())
                .expect("open_with_io survives (create_dir_all not faulted)");
            let mut ops = jumpslice_testkit::Rng::seed_from_u64(seed ^ 0x9e37_79b9);
            for _ in 0..60 {
                let key = ops.gen_range(1u64..8);
                match ops.gen_range(0..3u32) {
                    0 => {
                        if store.save(key, &prop_payload(key)).unwrap_or(false) {
                            assert!(
                                store.contains(key),
                                "seed {seed}: successful save not on disk"
                            );
                        }
                    }
                    1 => {
                        if let Some(got) = store.load(key) {
                            assert_eq!(
                                got,
                                prop_payload(key),
                                "seed {seed}: load served bytes that were never saved under {key}"
                            );
                        }
                    }
                    _ => {
                        // The eviction keep-guard must hold even when the
                        // faults starve every other removal.
                        let fresh = 100 + ops.gen_range(0u64..4);
                        if store.save(fresh, &prop_payload(fresh)).unwrap_or(false) {
                            assert!(
                                store.contains(fresh),
                                "seed {seed}: just-written record {fresh} was evicted"
                            );
                        }
                    }
                }
            }
            // With faults off, the next write re-runs eviction over real
            // IO: accounting must reconverge with the actual directory.
            io.disarm();
            store.save(999, &prop_payload(999)).expect("clean save");
            let (bytes, records, _) = disk_state(&dir);
            let s = store.stats();
            assert_eq!(
                (s.bytes, s.records),
                (bytes, records),
                "seed {seed}: stats diverged from disk"
            );
            assert!(
                bytes <= budget || records == 1,
                "seed {seed}: {bytes} bytes across {records} records exceeds budget {budget}"
            );
            // A reopen sweeps any temp file a torn write stranded (the
            // in-line cleanup is best-effort: the same fault burst that
            // tore the write may have failed the removal too).
            let store2 = SnapshotStore::open_with_io(&dir, budget, io.clone()).expect("reopen");
            let (_, _, tmp) = disk_state(&dir);
            assert!(!tmp, "seed {seed}: temp residue survived the reopen sweep");
            assert_eq!(store2.load(999), Some(prop_payload(999)));
            fs::remove_dir_all(&dir).ok();
        });
    }

    #[test]
    fn load_refreshes_mtime_to_protect_hot_records() {
        let dir = tmpdir("touch");
        let store = SnapshotStore::open(&dir, u64::MAX).unwrap();
        store.save(1, b"hot").unwrap();
        let f = fs::OpenOptions::new()
            .write(true)
            .open(store.path(1))
            .unwrap();
        f.set_modified(SystemTime::UNIX_EPOCH).unwrap();
        drop(f);
        store.load(1).unwrap();
        let mtime = fs::metadata(store.path(1)).unwrap().modified().unwrap();
        assert!(mtime > SystemTime::UNIX_EPOCH, "hit refreshed the mtime");
        fs::remove_dir_all(&dir).ok();
    }
}
