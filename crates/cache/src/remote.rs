//! The remote tier: a pluggable blob store behind a narrow trait.
//!
//! The future `hercd` service will put a real network client here; the
//! engine only needs `fetch`/`store` over opaque, self-validating
//! blobs (the [`CacheEntry`] framing travels as-is, so a lying remote
//! cannot cause a wrong hit — at worst a miss). The in-tree
//! implementation, [`LocalDirRemote`], is a second local directory
//! with injectable latency and failures, which is exactly enough to
//! simulate and benchmark degraded-remote behavior.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use hercules_sim::{Clock, Fs};

use crate::backend::{CacheBackend, TierUsage};
use crate::entry::CacheEntry;
use crate::key::CacheKey;

/// A remote blob store. Implementations transport encoded
/// [`CacheEntry`] blobs; validation stays with the caller.
pub trait RemoteCache: Send + Sync + std::fmt::Debug {
    /// Human-readable endpoint label for `cache stats`.
    fn label(&self) -> String;

    /// Fetches the blob stored under `key`, if any.
    fn fetch(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>>;

    /// Stores `blob` under `key` (idempotent; content-addressed).
    fn store(&self, key: &CacheKey, blob: &[u8]) -> io::Result<()>;
}

/// The test/reference remote: a second local directory (flat, one
/// file per key) with injectable per-operation latency and failures.
///
/// Latency goes through the [`Clock`] handle, so under simulation an
/// "800 µs round trip" advances virtual time instead of sleeping —
/// degraded-remote schedules stay deterministic and fast to explore.
#[derive(Debug)]
pub struct LocalDirRemote {
    fs: Fs,
    root: PathBuf,
    clock: Clock,
    /// Injected per-operation round-trip latency.
    latency: Duration,
    /// When `> 0`, every Nth operation fails with a timeout error.
    fail_every: AtomicU64,
    /// Operations attempted (drives `fail_every`).
    ops: AtomicU64,
    /// When set, every operation fails — a partitioned remote.
    offline: AtomicBool,
}

impl LocalDirRemote {
    /// Opens (creating if needed) the remote directory.
    pub fn open(fs: Fs, root: impl Into<PathBuf>, clock: Clock) -> io::Result<LocalDirRemote> {
        let root = root.into();
        fs.create_dir_all(&root)?;
        Ok(LocalDirRemote {
            fs,
            root,
            clock,
            latency: Duration::ZERO,
            fail_every: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            offline: AtomicBool::new(false),
        })
    }

    /// Sets the injected per-operation latency.
    pub fn with_latency(mut self, latency: Duration) -> LocalDirRemote {
        self.latency = latency;
        self
    }

    /// Makes every `every`-th operation fail (0 disables).
    pub fn set_fail_every(&self, every: u64) {
        self.fail_every.store(every, Ordering::Relaxed);
    }

    /// Partitions (or heals) the remote: while offline, every
    /// operation errors after the injected latency — a timeout.
    pub fn set_offline(&self, offline: bool) {
        self.offline.store(offline, Ordering::Relaxed);
    }

    fn blob_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.to_hex())
    }

    /// Models the round trip: pay the latency, then maybe fail.
    fn round_trip(&self) -> io::Result<()> {
        if !self.latency.is_zero() {
            self.clock.sleep(self.latency);
        }
        if self.offline.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "remote cache offline",
            ));
        }
        let every = self.fail_every.load(Ordering::Relaxed);
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if every > 0 && op.is_multiple_of(every) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("injected remote failure (op {op})"),
            ));
        }
        Ok(())
    }
}

impl RemoteCache for LocalDirRemote {
    fn label(&self) -> String {
        format!("dir://{}", self.root.display())
    }

    fn fetch(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>> {
        self.round_trip()?;
        let path = self.blob_path(key);
        if !self.fs.exists(&path) {
            return Ok(None);
        }
        self.fs.read(&path).map(Some)
    }

    fn store(&self, key: &CacheKey, blob: &[u8]) -> io::Result<()> {
        self.round_trip()?;
        let path = self.blob_path(key);
        if self.fs.exists(&path) {
            return Ok(());
        }
        let tmp = self.root.join(format!("{}.tmp", key.to_hex()));
        {
            let mut file = self.fs.create_truncate(&tmp)?;
            file.write_all(blob)?;
            file.sync_all()?;
        }
        self.fs.rename(&tmp, &path)?;
        self.fs.sync_dir(&self.root)?;
        Ok(())
    }
}

/// Adapts a [`RemoteCache`] to the common [`CacheBackend`] surface:
/// encodes on store, decodes and key-checks on fetch.
#[derive(Debug)]
pub struct RemoteTier {
    remote: std::sync::Arc<dyn RemoteCache>,
}

impl RemoteTier {
    /// Wraps a remote endpoint.
    pub fn new(remote: std::sync::Arc<dyn RemoteCache>) -> RemoteTier {
        RemoteTier { remote }
    }

    /// The endpoint's label.
    pub fn label(&self) -> String {
        self.remote.label()
    }
}

impl CacheBackend for RemoteTier {
    fn tier(&self) -> &'static str {
        "remote"
    }

    fn get(&self, key: &CacheKey) -> io::Result<Option<CacheEntry>> {
        match self.remote.fetch(key)? {
            // An undecodable or mis-filed blob is a miss, not an error:
            // the remote is untrusted by construction.
            Some(blob) => Ok(CacheEntry::decode_for(&blob, key)),
            None => Ok(None),
        }
    }

    fn put(&self, key: &CacheKey, entry: &CacheEntry) -> io::Result<()> {
        self.remote.store(key, &entry.encode()?)
    }

    fn usage(&self) -> io::Result<TierUsage> {
        // Remotes do not expose occupancy; report empty rather than
        // scanning someone else's store.
        Ok(TierUsage::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CachedOutput;
    use hercules_digest::sha256;
    use std::sync::Arc;

    fn entry(tag: u8) -> (CacheKey, CacheEntry) {
        let key = CacheKey::from_bytes(sha256(&[tag]));
        let entry = CacheEntry {
            key,
            tool: "T".into(),
            created_ms: u64::from(tag),
            outputs: vec![CachedOutput {
                entity: "E".into(),
                name: String::new(),
                data: vec![tag; 8],
            }],
        };
        (key, entry)
    }

    fn sim_remote(latency: Duration) -> (hercules_sim::SimEnv, RemoteTier, Arc<LocalDirRemote>) {
        let sim = hercules_sim::SimEnv::new(7);
        let remote = Arc::new(
            LocalDirRemote::open(sim.fs(), "/remote", sim.clock())
                .expect("open")
                .with_latency(latency),
        );
        (sim, RemoteTier::new(remote.clone()), remote)
    }

    #[test]
    fn round_trips_blobs() {
        let (_sim, tier, remote) = sim_remote(Duration::ZERO);
        let (key, e) = entry(1);
        assert_eq!(tier.get(&key).unwrap(), None);
        tier.put(&key, &e).unwrap();
        assert_eq!(tier.get(&key).unwrap(), Some(e));
        assert!(remote.label().starts_with("dir://"));
    }

    #[test]
    fn latency_advances_the_virtual_clock() {
        let (sim, tier, _remote) = sim_remote(Duration::from_micros(800));
        let (key, e) = entry(2);
        let before = sim.clock().now();
        tier.put(&key, &e).unwrap();
        tier.get(&key).unwrap().expect("hit");
        let elapsed = sim.clock().since(before);
        assert_eq!(elapsed, Duration::from_micros(1600), "two round trips");
    }

    #[test]
    fn injected_failures_and_partitions_error() {
        let (_sim, tier, remote) = sim_remote(Duration::ZERO);
        let (key, e) = entry(3);
        remote.set_fail_every(2);
        tier.put(&key, &e).unwrap();
        assert!(tier.get(&key).is_err(), "second op fails");
        assert!(tier.get(&key).unwrap().is_some(), "third succeeds");
        remote.set_fail_every(0);
        remote.set_offline(true);
        assert!(tier.get(&key).is_err());
        remote.set_offline(false);
        assert!(tier.get(&key).unwrap().is_some());
    }

    #[test]
    fn corrupt_remote_blob_is_a_miss() {
        let (sim, tier, _remote) = sim_remote(Duration::ZERO);
        let (key, e) = entry(4);
        tier.put(&key, &e).unwrap();
        let path = std::path::Path::new("/remote").join(key.to_hex());
        assert!(sim.fs_state().corrupt_file(&path, 15, 0x80));
        assert_eq!(tier.get(&key).unwrap(), None);
    }
}
