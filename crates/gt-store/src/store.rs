//! The on-disk run store.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/worlds/<config-fingerprint>.gts        world snapshots
//! <root>/stages/<base>/<stage>-<key>.gts        stage outputs
//! <root>/tmp/<pid>-<n>.tmp                      in-flight writes
//! ```
//!
//! `<base>` fingerprints everything global to a run (schema version,
//! world config, fault plan, retry policy), so one
//! directory holds exactly the entries that can legally serve one
//! configuration. Writes are atomic (unique temp file + rename): a run
//! killed mid-write leaves at worst a stray temp file, never a partial
//! record — and even a partial record would fail its integrity footer
//! and read as a miss.

use crate::key::{digest_hex, Digest};
use crate::record;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// An IO failure with the path it happened on. Store *reads* never
/// fail — any unreadable or invalid entry is a cache miss — so this
/// only surfaces from writes, opens, and eviction.
#[derive(Debug)]
pub struct StoreError {
    pub context: String,
    pub source: io::Error,
}

impl StoreError {
    fn new(context: impl Into<String>, source: io::Error) -> Self {
        StoreError {
            context: context.into(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.source)
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// What [`RunStore::evict`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Stage directories removed (one per retired base fingerprint).
    pub stage_groups: u64,
    /// World snapshots removed.
    pub worlds: u64,
    /// Stray temp files removed.
    pub temp_files: u64,
}

/// A content-addressed store for world snapshots and stage outputs.
pub struct RunStore {
    root: PathBuf,
    tmp_counter: AtomicU64,
    /// Test hook: remaining successful writes before a simulated crash
    /// (`None` = unlimited). See [`RunStore::fail_writes_after`].
    write_limit: Mutex<Option<u64>>,
}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("root", &self.root)
            .finish()
    }
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<RunStore, StoreError> {
        let root = dir.as_ref().to_path_buf();
        for sub in ["stages", "worlds", "tmp"] {
            let path = root.join(sub);
            fs::create_dir_all(&path)
                .map_err(|e| StoreError::new(format!("create {}", path.display()), e))?;
        }
        Ok(RunStore {
            root,
            tmp_counter: AtomicU64::new(0),
            write_limit: Mutex::new(None),
        })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn stage_dir(&self, base: &Digest) -> PathBuf {
        self.root.join("stages").join(digest_hex(base))
    }

    fn stage_path(&self, base: &Digest, stage: &str, key: &Digest) -> PathBuf {
        self.stage_dir(base)
            .join(format!("{stage}-{}.gts", digest_hex(key)))
    }

    fn world_path(&self, fingerprint: &Digest) -> PathBuf {
        self.root
            .join("worlds")
            .join(format!("{}.gts", digest_hex(fingerprint)))
    }

    /// Load a stage payload. Any failure — missing file, torn write,
    /// corruption, schema drift — is a `None` (cache miss).
    pub fn load_stage(&self, base: &Digest, stage: &str, key: &Digest) -> Option<Vec<u8>> {
        load_record(&self.stage_path(base, stage, key))
    }

    /// Persist a stage payload under its content address.
    pub fn store_stage(
        &self,
        base: &Digest,
        stage: &str,
        key: &Digest,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let dir = self.stage_dir(base);
        fs::create_dir_all(&dir)
            .map_err(|e| StoreError::new(format!("create {}", dir.display()), e))?;
        self.write_atomic(&self.stage_path(base, stage, key), payload)
    }

    /// Load a world snapshot payload by config fingerprint.
    pub fn load_world(&self, fingerprint: &Digest) -> Option<Vec<u8>> {
        load_record(&self.world_path(fingerprint))
    }

    /// Persist a world snapshot payload.
    pub fn store_world(&self, fingerprint: &Digest, payload: &[u8]) -> Result<(), StoreError> {
        self.write_atomic(&self.world_path(fingerprint), payload)
    }

    /// Number of stage entries currently stored under `base`.
    pub fn stage_entry_count(&self, base: &Digest) -> usize {
        fs::read_dir(self.stage_dir(base))
            .map(|entries| entries.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    /// Remove every entry that cannot serve the given run: stage groups
    /// whose base differs from `keep_base`, world snapshots other than
    /// `keep_world`, and stray temp files from dead writers.
    pub fn evict(&self, keep_base: &Digest, keep_world: &Digest) -> Result<EvictStats, StoreError> {
        let mut stats = EvictStats::default();
        let keep_dir = digest_hex(keep_base);
        let stages = self.root.join("stages");
        let entries = fs::read_dir(&stages)
            .map_err(|e| StoreError::new(format!("read {}", stages.display()), e))?;
        for entry in entries.filter_map(Result::ok) {
            if entry.file_name().to_string_lossy() != keep_dir.as_str() {
                fs::remove_dir_all(entry.path())
                    .map_err(|e| StoreError::new(format!("remove {:?}", entry.path()), e))?;
                stats.stage_groups += 1;
            }
        }
        let keep_file = format!("{}.gts", digest_hex(keep_world));
        let worlds = self.root.join("worlds");
        let entries = fs::read_dir(&worlds)
            .map_err(|e| StoreError::new(format!("read {}", worlds.display()), e))?;
        for entry in entries.filter_map(Result::ok) {
            if entry.file_name().to_string_lossy() != keep_file.as_str() {
                fs::remove_file(entry.path())
                    .map_err(|e| StoreError::new(format!("remove {:?}", entry.path()), e))?;
                stats.worlds += 1;
            }
        }
        let tmp = self.root.join("tmp");
        if let Ok(entries) = fs::read_dir(&tmp) {
            for entry in entries.filter_map(Result::ok) {
                if fs::remove_file(entry.path()).is_ok() {
                    stats.temp_files += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Test hook: allow `n` more successful writes, then simulate a
    /// killed process on the next one — a torn temp file is left behind
    /// and the writer panics (the executor surfaces it like any stage
    /// crash). Crash-resume tests use this to stop a run mid-pipeline.
    pub fn fail_writes_after(&self, n: u64) {
        *self.write_limit.lock().unwrap() = Some(n);
    }

    /// Write `payload` as a sealed record at `path`: header, payload and
    /// footer go straight to a unique temp file, which is then renamed
    /// into place, so the payload is never copied into a record buffer.
    fn write_atomic(&self, path: &Path, payload: &[u8]) -> Result<(), StoreError> {
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let header = record::header(payload.len());
        {
            let mut limit = self.write_limit.lock().unwrap();
            if let Some(remaining) = limit.as_mut() {
                if *remaining == 0 {
                    // Simulated kill -9: leave a torn write behind.
                    let _ = write_parts(&tmp, &[&header, &payload[..payload.len() / 2]]);
                    panic!("gt-store: simulated crash (write limit reached)");
                }
                *remaining -= 1;
            }
        }
        let footer = record::footer(&header, payload);
        write_parts(&tmp, &[&header, payload, &footer])
            .map_err(|e| StoreError::new(format!("write {}", tmp.display()), e))?;
        fs::rename(&tmp, path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError::new(format!("rename into {}", path.display()), e)
        })
    }
}

/// Create the file at `path` holding `parts`, one after another.
fn write_parts(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    parts.iter().try_for_each(|part| file.write_all(part))
}

/// Read and verify the record at `path`, and return its payload. The
/// header is read and checked against the file's size first, so the
/// payload is read once, straight into a buffer of its exact size, and
/// hashed in place after the header. Any failure is a `None` (cache
/// miss).
fn load_record(path: &Path) -> Option<Vec<u8>> {
    let mut file = fs::File::open(path).ok()?;
    let file_len = file.metadata().ok()?.len();
    let mut header = [0u8; record::HEADER_LEN];
    file.read_exact(&mut header).ok()?;
    let mut payload = vec![0u8; record::payload_len(&header, file_len).ok()?];
    file.read_exact(&mut payload).ok()?;
    let mut footer = [0u8; record::FOOTER_LEN];
    file.read_exact(&mut footer).ok()?;
    if file.read(&mut [0u8; 1]).ok()? != 0 {
        return None;
    }
    record::check_footer(&header, &payload, &footer).ok()?;
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gt-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stage_round_trip_and_miss() {
        let dir = scratch("stage");
        let store = RunStore::open(&dir).unwrap();
        let base = [1u8; 32];
        let key = [2u8; 32];
        assert!(store.load_stage(&base, "s", &key).is_none());
        store.store_stage(&base, "s", &key, b"payload").unwrap();
        assert_eq!(store.load_stage(&base, "s", &key).unwrap(), b"payload");
        assert!(store.load_stage(&base, "s", &[3u8; 32]).is_none());
        assert_eq!(store.stage_entry_count(&base), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_reads_as_miss() {
        let dir = scratch("corrupt");
        let store = RunStore::open(&dir).unwrap();
        let base = [4u8; 32];
        let key = [5u8; 32];
        store.store_stage(&base, "s", &key, b"payload").unwrap();
        let path = store.stage_path(&base, "s", &key);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_stage(&base, "s", &key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A record with `header` and `payload` and a footer that matches
    /// them, so only the header checks can reject it.
    fn resealed(header: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut bytes = [header, payload].concat();
        bytes.extend_from_slice(&gt_hash::sha256(&bytes));
        bytes
    }

    #[test]
    fn malformed_records_read_as_miss() {
        let dir = scratch("malformed");
        let store = RunStore::open(&dir).unwrap();
        let fingerprint = [9u8; 32];
        let payload = b"world payload";
        store.store_world(&fingerprint, payload).unwrap();
        let path = store.world_path(&fingerprint);
        let good = fs::read(&path).unwrap();
        let header = &good[..record::HEADER_LEN];
        let with = |at: usize, field: &[u8]| {
            let mut header = header.to_vec();
            header[at..at + field.len()].copy_from_slice(field);
            resealed(&header, payload)
        };
        let declared = payload.len() as u64;
        let cases = [
            ("one trailing byte", [&good[..], &[0]].concat()),
            (
                "a longer declared length",
                with(8, &(declared + 1).to_le_bytes()),
            ),
            (
                "a shorter declared length",
                with(8, &(declared - 1).to_le_bytes()),
            ),
            ("a truncated footer", good[..good.len() - 1].to_vec()),
            ("a bad magic", with(0, b"GTS0")),
            (
                "a bad version",
                with(4, &(record::SCHEMA_VERSION + 1).to_le_bytes()),
            ),
        ];
        for (what, bytes) in cases {
            fs::write(&path, &bytes).unwrap();
            assert!(store.load_world(&fingerprint).is_none(), "{what}");
            assert!(record::open(&bytes).is_err(), "{what}");
        }
        fs::write(&path, &good).unwrap();
        assert_eq!(store.load_world(&fingerprint).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_multi_mib_record_round_trips() {
        let dir = scratch("large");
        let store = RunStore::open(&dir).unwrap();
        let payload: Vec<u8> = (0u32..3 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        store.store_world(&[3u8; 32], &payload).unwrap();
        assert!(store.load_world(&[3u8; 32]).unwrap() == payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_keeps_only_the_active_run() {
        let dir = scratch("evict");
        let store = RunStore::open(&dir).unwrap();
        let keep = [6u8; 32];
        let drop_ = [7u8; 32];
        store.store_stage(&keep, "s", &[0u8; 32], b"k").unwrap();
        store.store_stage(&drop_, "s", &[0u8; 32], b"d").unwrap();
        store.store_world(&keep, b"kw").unwrap();
        store.store_world(&drop_, b"dw").unwrap();
        let stats = store.evict(&keep, &keep).unwrap();
        assert_eq!(stats.stage_groups, 1);
        assert_eq!(stats.worlds, 1);
        assert!(store.load_stage(&keep, "s", &[0u8; 32]).is_some());
        assert!(store.load_stage(&drop_, "s", &[0u8; 32]).is_none());
        assert!(store.load_world(&keep).is_some());
        assert!(store.load_world(&drop_).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn written_records_are_sealed_bytes_and_torn_writes_miss() {
        let dir = scratch("sealed");
        let store = RunStore::open(&dir).unwrap();
        let (base, key, world) = ([9u8; 32], [10u8; 32], [11u8; 32]);
        let payload: Vec<u8> = (0u32..70_000).map(|i| (i * 7 + i / 251) as u8).collect();
        store.store_stage(&base, "s", &key, &payload).unwrap();
        store.store_world(&world, &payload).unwrap();
        // `seal` is the documented layout, built here independently.
        let header = [
            &b"GTS1"[..],
            &record::SCHEMA_VERSION.to_le_bytes(),
            &70_000u64.to_le_bytes(),
        ];
        assert!(record::seal(&payload) == resealed(&header.concat(), &payload));
        for path in [store.stage_path(&base, "s", &key), store.world_path(&world)] {
            assert!(
                fs::read(&path).unwrap() == record::seal(&payload),
                "{path:?}"
            );
        }
        // A crash mid-write leaves a torn temp file and no record.
        store.fail_writes_after(0);
        let torn = [12u8; 32];
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.store_world(&torn, &payload)
        }));
        assert!(crashed.is_err());
        assert!(store.load_world(&torn).is_none());
        let temps: Vec<_> = fs::read_dir(dir.join("tmp")).unwrap().flatten().collect();
        assert_eq!(temps.len(), 1);
        let bytes = fs::read(temps[0].path()).unwrap();
        assert!(!bytes.is_empty() && bytes.len() < record::seal(&payload).len());
        assert!(record::open(&bytes).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_limit_simulates_a_crash() {
        let dir = scratch("crash");
        let store = RunStore::open(&dir).unwrap();
        let base = [8u8; 32];
        store.fail_writes_after(1);
        store.store_stage(&base, "a", &[0u8; 32], b"first").unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.store_stage(&base, "b", &[1u8; 32], b"second")
        }));
        assert!(result.is_err());
        // The completed write survives; the torn one is invisible.
        assert!(store.load_stage(&base, "a", &[0u8; 32]).is_some());
        assert!(store.load_stage(&base, "b", &[1u8; 32]).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
