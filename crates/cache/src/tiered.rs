//! The tiered front end: memory → disk behind one handle.
//!
//! Lookups read through the tiers in cost order, and a disk hit lands
//! in memory on the way back. Inserts land in memory immediately; the
//! disk tier is written back *asynchronously* on a dedicated writer
//! thread, so the executor's hot path never blocks on cache I/O. Under
//! simulation write-back is synchronous instead, which makes
//! crash-point sweeps over the disk tier deterministic. The memory
//! tier and the write-back queue share one `Arc<CacheEntry>`: an
//! inserted entry's payloads are never copied, and a memory hit is a
//! reference count.
//!
//! Every tier is best-effort: an I/O error degrades the cache (and
//! shows up in `cache.*` metrics and the health report), it never
//! fails or corrupts an execution.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use hercules_obs::{names, Metrics};
use hercules_sim::{Clock, Fs};

use crate::backend::CacheBackend;
use crate::disk::{DiskTier, GcReport};
use crate::entry::CacheEntry;
use crate::key::CacheKey;
use crate::memory::{MemoryBudget, MemoryTier};

/// Construction-time options for [`ContentCache::open`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// In-memory tier bounds.
    pub memory: MemoryBudget,
    /// Disk tier byte budget (enforced by `gc`).
    pub disk_budget_bytes: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            memory: MemoryBudget::default(),
            disk_budget_bytes: 256 << 20,
        }
    }
}

/// Hit/miss/error counts of one tier (independent of the metrics
/// registry, so `cache stats` works even with metrics disabled).
#[derive(Debug, Default)]
struct TierCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
}

impl TierCounters {
    fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }
}

/// Point-in-time stats of one tier, for `cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStats {
    /// Tier name (`mem`, `disk`).
    pub tier: String,
    /// Lookups served by this tier.
    pub hits: u64,
    /// Lookups that fell through this tier.
    pub misses: u64,
    /// Degraded operations (I/O errors, injected faults).
    pub errors: u64,
    /// Occupancy.
    pub entries: u64,
    /// Stored bytes (encoded for disk, payload for memory).
    pub bytes: u64,
    /// Extra detail: the disk root.
    pub detail: String,
}

impl TierStats {
    /// Hit rate over the lookups this tier saw, if any.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }
}

/// Point-in-time stats of the whole cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheStats {
    /// Per-tier stats in lookup order.
    pub tiers: Vec<TierStats>,
    /// Entries written back (one per produced run).
    pub inserts: u64,
    /// Damaged disk entries dropped instead of served.
    pub dropped: u64,
}

impl CacheStats {
    /// Human-readable rendering for the REPL `cache stats` command.
    pub fn render_text(&self) -> String {
        let mut out = String::from("content cache:\n");
        for t in &self.tiers {
            let rate = match t.hit_rate() {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "-".into(),
            };
            out.push_str(&format!(
                "  {:<6} hits={:<8} misses={:<8} rate={:<7} errors={:<4} entries={:<6} bytes={:<10} {}\n",
                t.tier, t.hits, t.misses, rate, t.errors, t.entries, t.bytes, t.detail
            ));
        }
        out.push_str(&format!(
            "  inserts={} dropped_entries={}\n",
            self.inserts, self.dropped
        ));
        out
    }
}

/// The shared, thread-safe state behind every clone of the handle.
#[derive(Debug)]
struct CacheInner {
    mem: MemoryTier,
    mem_counters: TierCounters,
    tiers: Arc<PersistentTiers>,
    /// `Some` when the background writer owns write-back.
    writer: Mutex<Option<Writer>>,
    sync_writes: bool,
}

/// The disk tier plus everything the writer thread needs.
#[derive(Debug)]
struct PersistentTiers {
    disk: Option<DiskTier>,
    disk_counters: TierCounters,
    inserts: AtomicU64,
    metrics: Metrics,
    clock: Clock,
}

#[derive(Debug)]
struct Writer {
    queue: mpsc::Sender<WriteJob>,
    thread: JoinHandle<()>,
}

enum WriteJob {
    /// Write `entry` back to disk.
    Put {
        key: CacheKey,
        entry: Arc<CacheEntry>,
    },
    /// Barrier: ack once every job queued before it has drained.
    Flush(mpsc::Sender<()>),
}

impl PersistentTiers {
    /// Writes one entry to disk, folding failures into counters —
    /// write-back is always best-effort.
    fn write_back(&self, key: &CacheKey, entry: &Arc<CacheEntry>) {
        let t0 = self.clock.now();
        if let Some(disk) = &self.disk {
            match disk.put(key, entry) {
                Ok(()) => self.metrics.gauge_set(names::CACHE_DISK_HEALTHY, 1),
                Err(_) => {
                    self.disk_counters.errors.fetch_add(1, Ordering::Relaxed);
                    self.metrics.incr(names::CACHE_DISK_IO_ERRORS, 1);
                    self.metrics.gauge_set(names::CACHE_DISK_HEALTHY, 0);
                }
            }
        }
        self.metrics
            .observe_duration(names::CACHE_WRITEBACK_NS, self.clock.since(t0));
    }
}

/// The content-addressed tool-result cache handle. Clones share one
/// cache; the handle is cheap to pass into `ExecOptions`.
#[derive(Debug, Clone)]
pub struct ContentCache {
    inner: Arc<CacheInner>,
}

impl ContentCache {
    /// A memory-only cache (no disk tier) — useful in tests and
    /// for single-process dedup.
    pub fn in_memory(memory: MemoryBudget, clock: Clock, metrics: Metrics) -> ContentCache {
        ContentCache::build(MemoryTier::new(memory), None, true, clock, metrics)
    }

    /// Opens a cache with a disk tier rooted at `root` (shared across
    /// sessions and workspaces that open the same root). Write-back
    /// runs on the calling thread under a simulated filesystem and on
    /// a background writer thread on a real one.
    pub fn open(
        fs: &Fs,
        root: impl Into<PathBuf>,
        config: CacheConfig,
        clock: Clock,
        metrics: Metrics,
    ) -> io::Result<ContentCache> {
        let disk = DiskTier::open(fs.clone(), root, config.disk_budget_bytes)?;
        Ok(ContentCache::build(
            MemoryTier::new(config.memory),
            Some(disk),
            fs.is_sim(),
            clock,
            metrics,
        ))
    }

    fn build(
        mem: MemoryTier,
        disk: Option<DiskTier>,
        sync_writes: bool,
        clock: Clock,
        metrics: Metrics,
    ) -> ContentCache {
        let tiers = Arc::new(PersistentTiers {
            disk,
            disk_counters: TierCounters::default(),
            inserts: AtomicU64::new(0),
            metrics,
            clock,
        });
        let writer = if sync_writes {
            None
        } else {
            let (queue, jobs) = mpsc::channel::<WriteJob>();
            let worker = tiers.clone();
            let thread = std::thread::spawn(move || {
                while let Ok(job) = jobs.recv() {
                    match job {
                        WriteJob::Put { key, entry } => worker.write_back(&key, &entry),
                        WriteJob::Flush(ack) => drop(ack.send(())),
                    }
                }
            });
            Some(Writer { queue, thread })
        };
        ContentCache {
            inner: Arc::new(CacheInner {
                mem,
                mem_counters: TierCounters::default(),
                tiers,
                writer: Mutex::new(writer),
                sync_writes,
            }),
        }
    }

    /// Returns `true` when write-back happens on the calling thread.
    pub fn sync_writes(&self) -> bool {
        self.inner.sync_writes
    }

    fn metrics(&self) -> &Metrics {
        &self.inner.tiers.metrics
    }

    fn clock(&self) -> &Clock {
        &self.inner.tiers.clock
    }

    /// Looks a key up through the tiers, populating memory on a disk
    /// hit. Errors degrade to misses. The entry is shared with the
    /// memory tier; a caller that needs its payloads copies them.
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let inner = &*self.inner;
        let tiers = &*inner.tiers;
        let metrics = self.metrics();
        let t0 = self.clock().now();
        let mem_hit = inner.mem.get(key).unwrap_or(None);
        metrics.observe_duration(names::CACHE_MEM_LOOKUP_NS, self.clock().since(t0));
        if let Some(entry) = mem_hit {
            inner.mem_counters.hits.fetch_add(1, Ordering::Relaxed);
            metrics.incr(names::CACHE_MEM_HITS, 1);
            return Some(entry);
        }
        inner.mem_counters.misses.fetch_add(1, Ordering::Relaxed);
        metrics.incr(names::CACHE_MEM_MISSES, 1);

        if let Some(disk) = &tiers.disk {
            let t0 = self.clock().now();
            let dropped_before = disk.dropped_entries();
            let looked = disk.get(key);
            let dropped = disk.dropped_entries() - dropped_before;
            if dropped > 0 {
                metrics.incr(names::CACHE_DISK_DROPPED, dropped);
            }
            metrics.observe_duration(names::CACHE_DISK_LOOKUP_NS, self.clock().since(t0));
            match looked {
                Ok(Some(entry)) => {
                    tiers.disk_counters.hits.fetch_add(1, Ordering::Relaxed);
                    metrics.incr(names::CACHE_DISK_HITS, 1);
                    metrics.gauge_set(names::CACHE_DISK_HEALTHY, 1);
                    let _ = inner.mem.put(key, &entry);
                    return Some(entry);
                }
                Ok(None) => {
                    tiers.disk_counters.misses.fetch_add(1, Ordering::Relaxed);
                    metrics.incr(names::CACHE_DISK_MISSES, 1);
                }
                Err(_) => {
                    tiers.disk_counters.errors.fetch_add(1, Ordering::Relaxed);
                    metrics.incr(names::CACHE_DISK_IO_ERRORS, 1);
                    metrics.gauge_set(names::CACHE_DISK_HEALTHY, 0);
                }
            }
        }
        None
    }

    /// Inserts a freshly produced result: memory immediately, the disk
    /// tier via write-back, both sharing `entry` without copying it. An
    /// entry too large to encode (4 GiB or more) is not cached
    /// anywhere, only counted.
    pub fn insert(&self, key: &CacheKey, entry: CacheEntry) {
        if !entry.encodable() {
            self.metrics().incr(names::CACHE_OVERSIZE, 1);
            return;
        }
        self.inner.tiers.inserts.fetch_add(1, Ordering::Relaxed);
        self.metrics().incr(names::CACHE_INSERTS, 1);
        let entry = Arc::new(entry);
        let _ = self.inner.mem.put(key, &entry);
        if self.inner.sync_writes {
            self.inner.tiers.write_back(key, &entry);
            return;
        }
        let writer = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = &*writer {
            let _ = w.queue.send(WriteJob::Put { key: *key, entry });
        }
    }

    /// Waits until every write-back queued so far has drained — a
    /// barrier for handoff points (session save, benchmarks, tests).
    pub fn flush(&self) {
        let writer = self.inner.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(w) = &*writer {
            let (ack_tx, ack_rx) = mpsc::channel();
            if w.queue.send(WriteJob::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }

    /// One size-budget GC pass over the disk tier (no-op without one).
    /// Flushes pending write-backs first so the pass sees them.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.flush();
        let tiers = &*self.inner.tiers;
        let Some(disk) = &tiers.disk else {
            return Ok(GcReport::default());
        };
        let report = disk.gc()?;
        let metrics = self.metrics();
        metrics.incr(names::CACHE_GC_RUNS, 1);
        metrics.incr(names::CACHE_GC_EVICTED, report.evicted);
        if report.dropped > 0 {
            metrics.incr(names::CACHE_DISK_DROPPED, report.dropped);
        }
        metrics.gauge_set(names::CACHE_DISK_BYTES, report.bytes_after as i64);
        metrics.gauge_set(
            names::CACHE_DISK_ENTRIES,
            (report.scanned - report.dropped - report.evicted) as i64,
        );
        Ok(report)
    }

    /// Point-in-time stats (flushes pending write-backs so occupancy
    /// reflects every insert so far).
    pub fn stats(&self) -> CacheStats {
        self.flush();
        let inner = &*self.inner;
        let tiers = &*inner.tiers;
        let metrics = self.metrics();
        let mut out = Vec::new();
        let (hits, misses, errors) = inner.mem_counters.snapshot();
        let mem_usage = inner.mem.usage().unwrap_or_default();
        metrics.gauge_set(names::CACHE_MEM_ENTRIES, mem_usage.entries as i64);
        out.push(TierStats {
            tier: "mem".into(),
            hits,
            misses,
            errors,
            entries: mem_usage.entries,
            bytes: mem_usage.bytes,
            detail: String::new(),
        });
        let mut dropped = 0;
        if let Some(disk) = &tiers.disk {
            let (hits, misses, errors) = tiers.disk_counters.snapshot();
            let usage = disk.usage().unwrap_or_default();
            metrics.gauge_set(names::CACHE_DISK_ENTRIES, usage.entries as i64);
            metrics.gauge_set(names::CACHE_DISK_BYTES, usage.bytes as i64);
            dropped = disk.dropped_entries();
            out.push(TierStats {
                tier: "disk".into(),
                hits,
                misses,
                errors,
                entries: usage.entries,
                bytes: usage.bytes,
                detail: disk.root().display().to_string(),
            });
        }
        CacheStats {
            tiers: out,
            inserts: tiers.inserts.load(Ordering::Relaxed),
            dropped,
        }
    }
}

impl Drop for CacheInner {
    fn drop(&mut self) {
        // Drain the writer so queued entries survive process exit.
        let writer = self.writer.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(w) = writer {
            drop(w.queue);
            let _ = w.thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::CachedOutput;
    use hercules_digest::sha256;

    fn entry(tag: u8) -> (CacheKey, CacheEntry) {
        let key = CacheKey::from_bytes(sha256(&[tag]));
        let entry = CacheEntry {
            key,
            tool: "T".into(),
            created_ms: u64::from(tag),
            outputs: vec![CachedOutput {
                entity: "E".into(),
                name: String::new(),
                digest: sha256(&[tag; 16]),
                data: vec![tag; 16],
            }],
        };
        (key, entry)
    }

    #[test]
    fn memory_only_cache_hits_and_misses() {
        let cache =
            ContentCache::in_memory(MemoryBudget::default(), Clock::real(), Metrics::disabled());
        let (key, e) = entry(1);
        assert!(cache.lookup(&key).is_none());
        cache.insert(&key, e.clone());
        assert_eq!(cache.lookup(&key).as_deref(), Some(&e));
        let stats = cache.stats();
        assert_eq!(stats.tiers[0].hits, 1);
        assert_eq!(stats.tiers[0].misses, 1);
        assert_eq!(stats.inserts, 1);
        assert!(stats.render_text().contains("mem"));
    }

    #[test]
    fn disk_tier_survives_reopen_cross_session() {
        let sim = hercules_sim::SimEnv::new(11);
        let metrics = Metrics::new();
        let a = ContentCache::open(
            &sim.fs(),
            "/shared-cache",
            CacheConfig::default(),
            sim.clock(),
            metrics.clone(),
        )
        .expect("open a");
        assert!(a.sync_writes(), "sim fs defaults to sync write-back");
        let (key, e) = entry(2);
        a.insert(&key, e.clone());
        drop(a);
        // "Workspace B" opens the same root and hits on A's work.
        let b = ContentCache::open(
            &sim.fs(),
            "/shared-cache",
            CacheConfig::default(),
            sim.clock(),
            metrics.clone(),
        )
        .expect("open b");
        assert_eq!(b.lookup(&key).as_deref(), Some(&e));
        let snap = metrics.snapshot();
        assert_eq!(snap.counters[hercules_obs::names::CACHE_DISK_HITS], 1);
        assert_eq!(snap.gauges[hercules_obs::names::CACHE_DISK_HEALTHY], 1);
    }

    /// An entry another session's `gc` deleted from the shared tier,
    /// like one never written, is a disk miss: no I/O error, and the
    /// tier stays healthy.
    #[test]
    fn a_missing_disk_entry_is_a_miss_not_an_error() {
        use hercules_obs::names::{CACHE_DISK_HEALTHY, CACHE_DISK_IO_ERRORS, CACHE_DISK_MISSES};
        let sim = hercules_sim::SimEnv::new(23);
        let metrics = Metrics::new();
        let open = |disk_budget_bytes| {
            let config = CacheConfig {
                disk_budget_bytes,
                ..CacheConfig::default()
            };
            ContentCache::open(&sim.fs(), "/shared", config, sim.clock(), metrics.clone())
                .expect("open")
        };
        let (key, e) = entry(7);
        open(1 << 20).insert(&key, e);
        assert_eq!(
            open(0).gc().expect("gc").evicted,
            1,
            "the other session's gc"
        );
        let reader = open(1 << 20);
        assert!(reader.lookup(&key).is_none(), "deleted entry");
        assert!(reader.lookup(&entry(8).0).is_none(), "never written");
        let snap = metrics.snapshot();
        assert_eq!(snap.counters.get(CACHE_DISK_IO_ERRORS), None);
        assert_eq!(snap.counters[CACHE_DISK_MISSES], 2);
        assert_eq!(snap.gauges[CACHE_DISK_HEALTHY], 1);
    }

    #[test]
    fn async_writer_drains_on_flush_and_drop() {
        let dir = std::env::temp_dir().join(format!("hercules-cache-async-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = Fs::real();
        let cache = ContentCache::open(
            &fs,
            &dir,
            CacheConfig::default(),
            Clock::real(),
            Metrics::disabled(),
        )
        .expect("open");
        assert!(!cache.sync_writes(), "a real fs writes back on a thread");
        let (key, e) = entry(3);
        cache.insert(&key, e.clone());
        cache.flush();
        drop(cache);
        let reopened = ContentCache::open(
            &fs,
            &dir,
            CacheConfig::default(),
            Clock::real(),
            Metrics::disabled(),
        )
        .expect("reopen");
        assert_eq!(reopened.lookup(&key).as_deref(), Some(&e));
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reports_and_updates_gauges() {
        let sim = hercules_sim::SimEnv::new(17);
        let metrics = Metrics::new();
        let cache = ContentCache::open(
            &sim.fs(),
            "/gc-cache",
            CacheConfig {
                disk_budget_bytes: 0,
                ..CacheConfig::default()
            },
            sim.clock(),
            metrics.clone(),
        )
        .expect("open");
        let (k1, e1) = entry(5);
        let (k2, e2) = entry(6);
        cache.insert(&k1, e1);
        cache.insert(&k2, e2);
        let report = cache.gc().expect("gc");
        assert_eq!(report.evicted, 2, "zero budget evicts everything");
        let snap = metrics.snapshot();
        assert_eq!(snap.counters[hercules_obs::names::CACHE_GC_RUNS], 1);
        assert_eq!(snap.counters[hercules_obs::names::CACHE_GC_EVICTED], 2);
        assert_eq!(snap.gauges[hercules_obs::names::CACHE_DISK_BYTES], 0);
    }
}
