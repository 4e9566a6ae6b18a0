//! The on-disk tier: a crash-safe, sharded, CRC-validated entry store.
//!
//! Layout: `<root>/<xx>/<hex64>.hce`, where `xx` is the first key byte
//! in hex — 256 shards keep directories small. Writes follow the
//! atomic-replace recipe through the sim-aware [`Fs`] handle: encode →
//! write `<hex64>.tmp` → `fsync` → rename over the final name →
//! `fsync` the shard directory. A crash at any point leaves either no
//! entry (temp files are ignored and reaped) or a fully validated one;
//! the entry framing ([`CacheEntry`]) rejects torn and rotten bytes,
//! so a reader can never observe a wrong hit.
//!
//! GC is size-budgeted and deterministic: entries leave oldest-first
//! by their recorded creation time (hex key as tiebreak) until the
//! tier fits its byte budget. Damaged entries found along the way are
//! deleted and counted, never served.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hercules_digest::hex;
use hercules_sim::Fs;

use crate::backend::{CacheBackend, TierUsage};
use crate::entry::CacheEntry;
use crate::key::CacheKey;

/// Filename suffix of a committed entry.
const ENTRY_SUFFIX: &str = ".hce";
/// Filename suffix of an in-flight write (never read as an entry).
const TMP_SUFFIX: &str = ".tmp";

/// What one GC pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries examined.
    pub scanned: u64,
    /// Valid entries evicted to meet the byte budget (oldest first).
    pub evicted: u64,
    /// Damaged or mis-filed entries deleted.
    pub dropped: u64,
    /// Leftover `.tmp` files from interrupted write-backs reaped.
    pub reaped_tmp: u64,
    /// Stored bytes before the pass.
    pub bytes_before: u64,
    /// Stored bytes after the pass.
    pub bytes_after: u64,
}

/// The persistent local tier.
#[derive(Debug)]
pub struct DiskTier {
    fs: Fs,
    root: PathBuf,
    /// Byte budget enforced by [`DiskTier::gc`] (writes may overshoot
    /// between passes; lookups are unaffected).
    budget_bytes: u64,
    /// Damaged entries deleted by lookups and GC since creation.
    dropped: AtomicU64,
}

impl DiskTier {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(fs: Fs, root: impl Into<PathBuf>, budget_bytes: u64) -> io::Result<DiskTier> {
        let root = root.into();
        fs.create_dir_all(&root)?;
        Ok(DiskTier {
            fs,
            root,
            budget_bytes,
            dropped: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Damaged entries deleted since this handle was opened, by
    /// lookups and by GC passes alike (monotonic).
    pub fn dropped_entries(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn shard_dir(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.shard())
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.shard_dir(key)
            .join(format!("{}{ENTRY_SUFFIX}", key.to_hex()))
    }

    /// Deletes a damaged entry so it is never rescanned; best-effort.
    fn drop_entry(&self, path: &Path) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        let _ = self.fs.remove_file(path);
        if let Some(dir) = path.parent() {
            let _ = self.fs.sync_dir(dir);
        }
    }

    /// Every committed entry's path, in path order for determinism.
    /// Missing shard directories read as empty.
    fn entry_paths(&self) -> Vec<PathBuf> {
        let mut entries = Vec::new();
        for shard in 0..=u8::MAX {
            let dir = self.root.join(hex::encode(&[shard]));
            let Ok(paths) = self.fs.list_dir(&dir) else {
                continue;
            };
            entries.extend(
                paths
                    .into_iter()
                    .filter(|p| p.to_string_lossy().ends_with(ENTRY_SUFFIX)),
            );
        }
        entries
    }

    /// Visits every committed entry as a `(path, blob)` pair, in path
    /// order, reading one blob at a time so a scan never holds the
    /// whole tier.
    fn scan(&self, mut visit: impl FnMut(PathBuf, Vec<u8>)) -> io::Result<()> {
        for path in self.entry_paths() {
            let blob = self.fs.read(&path)?;
            visit(path, blob);
        }
        Ok(())
    }

    /// Reaps `.tmp` leftovers from interrupted write-backs.
    fn reap_tmp(&self) -> io::Result<u64> {
        let mut reaped = 0;
        for shard in 0..=u8::MAX {
            let dir = self.root.join(hex::encode(&[shard]));
            let Ok(paths) = self.fs.list_dir(&dir) else {
                continue;
            };
            for path in paths {
                if path.to_string_lossy().ends_with(TMP_SUFFIX) {
                    self.fs.remove_file(&path)?;
                    self.fs.sync_dir(&dir)?;
                    reaped += 1;
                }
            }
        }
        Ok(reaped)
    }

    /// One size-budget GC pass: reaps temp files, deletes damaged
    /// entries, then evicts the oldest valid entries until the tier
    /// fits `budget_bytes`.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport {
            reaped_tmp: self.reap_tmp()?,
            ..GcReport::default()
        };
        // (created_ms, path, blob_len) per valid entry.
        let mut entries: Vec<(u64, PathBuf, u64)> = Vec::new();
        self.scan(|path, blob| {
            report.scanned += 1;
            let expected = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(ENTRY_SUFFIX))
                .and_then(CacheKey::from_hex);
            let decoded = expected.and_then(|k| CacheEntry::decode_for(&blob, &k));
            match decoded {
                Some(entry) => {
                    report.bytes_before += blob.len() as u64;
                    entries.push((entry.created_ms, path, blob.len() as u64));
                }
                None => {
                    self.drop_entry(&path);
                    report.dropped += 1;
                }
            }
        })?;
        report.bytes_after = report.bytes_before;
        entries.sort();
        let mut victims = entries.iter();
        while report.bytes_after > self.budget_bytes {
            let Some((_, path, len)) = victims.next() else {
                break;
            };
            self.fs.remove_file(path)?;
            if let Some(dir) = path.parent() {
                self.fs.sync_dir(dir)?;
            }
            report.bytes_after -= len;
            report.evicted += 1;
        }
        Ok(report)
    }
}

impl CacheBackend for DiskTier {
    fn tier(&self) -> &'static str {
        "disk"
    }

    fn get(&self, key: &CacheKey) -> io::Result<Option<Arc<CacheEntry>>> {
        let path = self.entry_path(key);
        // One read, no existence probe: an entry that is absent, or
        // was deleted a moment ago (another session's `gc` on a shared
        // tier), is a miss, not an I/O error.
        let blob = match self.fs.read(&path) {
            Ok(blob) => blob,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        match CacheEntry::decode_for(&blob, key) {
            Some(entry) => Ok(Some(Arc::new(entry))),
            None => {
                // Torn, rotten, or mis-filed: drop it, report a miss.
                self.drop_entry(&path);
                Ok(None)
            }
        }
    }

    fn put(&self, key: &CacheKey, entry: &Arc<CacheEntry>) -> io::Result<()> {
        let final_path = self.entry_path(key);
        if self.fs.exists(&final_path) {
            // Content-addressed: an existing entry is byte-identical.
            return Ok(());
        }
        let shard = self.shard_dir(key);
        self.fs.create_dir_all(&shard)?;
        let tmp = shard.join(format!("{}{TMP_SUFFIX}", key.to_hex()));
        {
            let mut file = self.fs.create_truncate(&tmp)?;
            file.write_all(&entry.encode()?)?;
            file.sync_all()?;
        }
        self.fs.rename(&tmp, &final_path)?;
        self.fs.sync_dir(&shard)?;
        Ok(())
    }

    /// Sums entry file lengths; no entry is read.
    fn usage(&self) -> io::Result<TierUsage> {
        let mut usage = TierUsage::default();
        for path in self.entry_paths() {
            usage.entries += 1;
            usage.bytes += self.fs.file_len(&path)?;
        }
        Ok(usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CachedOutput;
    use hercules_digest::sha256;

    fn entry(tag: u8, size: usize) -> (CacheKey, Arc<CacheEntry>) {
        let key = CacheKey::from_bytes(sha256(&[tag]));
        let entry = CacheEntry {
            key,
            tool: "T".into(),
            created_ms: u64::from(tag),
            outputs: vec![CachedOutput {
                entity: "E".into(),
                name: String::new(),
                digest: sha256(&vec![tag; size]),
                data: vec![tag; size],
            }],
        };
        (key, Arc::new(entry))
    }

    fn sim_tier(budget: u64) -> (Arc<hercules_sim::SimFsState>, DiskTier) {
        let state = Arc::new(hercules_sim::SimFsState::new(
            hercules_sim::SimRng::new(1),
            hercules_sim::SimTrace::disabled(),
        ));
        let fs = Fs::sim(state.clone());
        let tier = DiskTier::open(fs, "/cache", budget).expect("open");
        (state, tier)
    }

    #[test]
    fn round_trips_through_the_simulated_disk() {
        let (_state, tier) = sim_tier(1 << 20);
        let (key, e) = entry(1, 32);
        assert_eq!(tier.get(&key).unwrap(), None);
        tier.put(&key, &e).unwrap();
        assert_eq!(tier.get(&key).unwrap(), Some(e.clone()));
        // Idempotent re-put.
        tier.put(&key, &e).unwrap();
        let usage = tier.usage().unwrap();
        assert_eq!(usage.entries, 1);
        assert_eq!(usage.bytes, e.encode().expect("encodable").len() as u64);
    }

    /// The disk operations the simulated disk logged while `f` ran.
    fn fs_log<T>(sim: &hercules_sim::SimEnv, f: impl FnOnce() -> T) -> (T, Vec<String>) {
        let before = sim.trace().len();
        let out = f();
        let lines = sim.trace().lines()[before..]
            .iter()
            .filter(|l| l.starts_with("fs."))
            .cloned()
            .collect();
        (out, lines)
    }

    #[test]
    fn a_lookup_is_one_read_and_no_existence_probe() {
        let sim = hercules_sim::SimEnv::new(3);
        let tier = DiskTier::open(sim.fs(), "/cache", 1 << 20).expect("open");
        let (key, e) = entry(4, 32);
        tier.put(&key, &e).unwrap();
        let (hit, ops) = fs_log(&sim, || tier.get(&key).unwrap());
        assert_eq!(hit.as_deref(), Some(&*e));
        let reads = ops.iter().filter(|l| l.starts_with("fs.read ")).count();
        assert_eq!((reads, ops.len()), (1, 1), "a hit is one read: {ops:?}");
        let (missed, ops) = fs_log(&sim, || tier.get(&entry(5, 32).0).unwrap());
        assert_eq!(missed, None);
        assert!(ops.is_empty(), "a miss probes nothing first: {ops:?}");
    }

    #[test]
    fn usage_reads_no_entry() {
        let sim = hercules_sim::SimEnv::new(4);
        let tier = DiskTier::open(sim.fs(), "/cache", 1 << 20).expect("open");
        let mut bytes = 0;
        for tag in 1..=3u8 {
            let (key, e) = entry(tag, 40 * usize::from(tag));
            tier.put(&key, &e).unwrap();
            bytes += e.encode().expect("encodable").len() as u64;
        }
        let (usage, ops) = fs_log(&sim, || tier.usage().unwrap());
        assert_eq!((usage.entries, usage.bytes), (3, bytes));
        assert!(
            !ops.iter().any(|l| l.starts_with("fs.read ")),
            "usage read an entry: {ops:?}"
        );
        assert_eq!(ops.iter().filter(|l| l.starts_with("fs.len ")).count(), 3);
    }

    #[test]
    fn corrupt_entry_is_dropped_not_served() {
        let (state, tier) = sim_tier(1 << 20);
        let (key, e) = entry(2, 32);
        tier.put(&key, &e).unwrap();
        let path = tier.entry_path(&key);
        assert!(state.corrupt_file(&path, 20, 0xff));
        assert_eq!(tier.get(&key).unwrap(), None, "rot served as a hit");
        assert_eq!(tier.dropped_entries(), 1);
        assert!(!Fs::sim(state).exists(&path), "damaged file deleted");
    }

    #[test]
    fn gc_reaps_tmp_and_evicts_oldest_until_budget() {
        let (_state, tier) = sim_tier(1 << 20);
        let mut encoded = 0u64;
        for tag in 1..=4u8 {
            let (k, e) = entry(tag, 100);
            tier.put(&k, &e).unwrap();
            encoded = e.encode().expect("encodable").len() as u64;
        }
        // A leftover temp file from an interrupted write-back.
        let (k5, _) = entry(5, 1);
        let shard = tier.shard_dir(&k5);
        tier.fs.create_dir_all(&shard).unwrap();
        let tmp = shard.join(format!("{}{TMP_SUFFIX}", k5.to_hex()));
        tier.fs
            .create_truncate(&tmp)
            .unwrap()
            .write_all(b"partial")
            .unwrap();

        // Budget fits two entries: the two oldest (created_ms 1, 2) go.
        let budget = encoded * 2;
        let tier = DiskTier::open(tier.fs.clone(), tier.root.clone(), budget).unwrap();
        let report = tier.gc().unwrap();
        assert_eq!(report.reaped_tmp, 1);
        assert_eq!(report.scanned, 4);
        assert_eq!(report.evicted, 2);
        assert_eq!(report.bytes_after, budget);
        assert!(tier.get(&entry(1, 100).0).unwrap().is_none());
        assert!(tier.get(&entry(2, 100).0).unwrap().is_none());
        assert!(tier.get(&entry(3, 100).0).unwrap().is_some());
        assert!(tier.get(&entry(4, 100).0).unwrap().is_some());
    }

    #[test]
    fn gc_deletes_damaged_entries() {
        let (state, tier) = sim_tier(1 << 20);
        let (k1, e1) = entry(1, 50);
        let (k2, e2) = entry(2, 50);
        tier.put(&k1, &e1).unwrap();
        tier.put(&k2, &e2).unwrap();
        assert!(state.corrupt_file(&tier.entry_path(&k1), 30, 0x01));
        let report = tier.gc().unwrap();
        assert_eq!(report.dropped, 1);
        assert_eq!(report.evicted, 0);
        assert!(tier.get(&k1).unwrap().is_none());
        assert!(tier.get(&k2).unwrap().is_some());
    }

    #[test]
    fn mis_filed_entry_is_rejected_by_key_check() {
        let (_state, tier) = sim_tier(1 << 20);
        let (k1, e1) = entry(1, 16);
        let (k2, _) = entry(2, 16);
        // File entry 1's bytes under entry 2's name.
        let shard = tier.shard_dir(&k2);
        tier.fs.create_dir_all(&shard).unwrap();
        let path = tier.entry_path(&k2);
        tier.fs
            .create_truncate(&path)
            .unwrap()
            .write_all(&e1.encode().expect("encodable"))
            .unwrap();
        assert_eq!(tier.get(&k2).unwrap(), None, "mis-filed entry served");
        assert_eq!(tier.get(&k1).unwrap(), None, "entry 1 was never committed");
    }
}
