//! The in-memory tier: a bounded LRU over decoded entries.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use crate::backend::{CacheBackend, TierUsage};
use crate::entry::CacheEntry;
use crate::key::CacheKey;

/// Size bounds for [`MemoryTier`].
#[derive(Debug, Clone, Copy)]
pub struct MemoryBudget {
    /// Maximum total output payload bytes held.
    pub bytes: u64,
    /// Maximum entry count.
    pub entries: usize,
}

impl Default for MemoryBudget {
    fn default() -> MemoryBudget {
        MemoryBudget {
            bytes: 64 << 20,
            entries: 4096,
        }
    }
}

#[derive(Debug, Default)]
struct MemState {
    map: HashMap<CacheKey, (u64, Arc<CacheEntry>)>,
    bytes: u64,
    tick: u64,
}

/// The first tier: entries live decoded in memory, a `get` is a hash
/// probe and a reference count, and a budget caps residency —
/// least-recently-used entries leave first. Eviction here loses
/// nothing durable; the same key can be re-faulted from the disk tier.
#[derive(Debug)]
pub struct MemoryTier {
    budget: MemoryBudget,
    state: Mutex<MemState>,
}

impl MemoryTier {
    /// An empty tier under `budget`.
    pub fn new(budget: MemoryBudget) -> MemoryTier {
        MemoryTier {
            budget,
            state: Mutex::new(MemState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl CacheBackend for MemoryTier {
    fn tier(&self) -> &'static str {
        "mem"
    }

    fn get(&self, key: &CacheKey) -> io::Result<Option<Arc<CacheEntry>>> {
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        Ok(state.map.get_mut(key).map(|(stamp, entry)| {
            *stamp = tick;
            Arc::clone(entry)
        }))
    }

    fn put(&self, key: &CacheKey, entry: &Arc<CacheEntry>) -> io::Result<()> {
        let size = entry.payload_bytes();
        if size > self.budget.bytes {
            // Larger than the whole budget: admitting it would evict
            // everything for one entry that cannot stay anyway.
            return Ok(());
        }
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        if let Some((_, old)) = state.map.insert(*key, (tick, Arc::clone(entry))) {
            state.bytes -= old.payload_bytes();
        }
        state.bytes += size;
        while state.bytes > self.budget.bytes || state.map.len() > self.budget.entries {
            // O(n) victim scan; n is budget-bounded and eviction is
            // off the lookup fast path.
            let victim = state
                .map
                .iter()
                .filter(|(k, _)| *k != key)
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some((_, old)) = state.map.remove(&victim) {
                state.bytes -= old.payload_bytes();
            }
        }
        Ok(())
    }

    fn usage(&self) -> io::Result<TierUsage> {
        let state = self.lock();
        Ok(TierUsage {
            entries: state.map.len() as u64,
            bytes: state.bytes,
        })
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
                data: vec![tag; size].into(),
            }],
        };
        (key, Arc::new(entry))
    }

    #[test]
    fn stores_and_serves() {
        let tier = MemoryTier::new(MemoryBudget::default());
        let (key, e) = entry(1, 10);
        assert_eq!(tier.get(&key).unwrap(), None);
        tier.put(&key, &e).unwrap();
        let hit = tier.get(&key).unwrap().expect("resident");
        assert!(Arc::ptr_eq(&hit, &e), "a hit shares the entry, not a copy");
        let usage = tier.usage().unwrap();
        assert_eq!((usage.entries, usage.bytes), (1, 10));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let tier = MemoryTier::new(MemoryBudget {
            bytes: 30,
            entries: 100,
        });
        let (k1, e1) = entry(1, 10);
        let (k2, e2) = entry(2, 10);
        let (k3, e3) = entry(3, 10);
        tier.put(&k1, &e1).unwrap();
        tier.put(&k2, &e2).unwrap();
        tier.put(&k3, &e3).unwrap();
        // Touch k1 so k2 is the LRU victim of the next insert.
        tier.get(&k1).unwrap().expect("resident");
        let (k4, e4) = entry(4, 10);
        tier.put(&k4, &e4).unwrap();
        assert!(tier.get(&k1).unwrap().is_some());
        assert!(tier.get(&k2).unwrap().is_none(), "LRU evicted");
        assert!(tier.get(&k3).unwrap().is_some());
        assert!(tier.get(&k4).unwrap().is_some());
        assert_eq!(tier.usage().unwrap().bytes, 30);
    }

    #[test]
    fn entry_budget_and_oversized_inserts() {
        let tier = MemoryTier::new(MemoryBudget {
            bytes: 1000,
            entries: 2,
        });
        let (k1, e1) = entry(1, 1);
        let (k2, e2) = entry(2, 1);
        let (k3, e3) = entry(3, 1);
        tier.put(&k1, &e1).unwrap();
        tier.put(&k2, &e2).unwrap();
        tier.put(&k3, &e3).unwrap();
        assert_eq!(tier.usage().unwrap().entries, 2);
        assert!(tier.get(&k3).unwrap().is_some(), "newest stays");
        // An entry bigger than the whole budget is not admitted (and
        // does not flush the tier).
        let (big_k, big_e) = entry(9, 2000);
        tier.put(&big_k, &big_e).unwrap();
        assert!(tier.get(&big_k).unwrap().is_none());
        assert_eq!(tier.usage().unwrap().entries, 2);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let tier = MemoryTier::new(MemoryBudget::default());
        let (k, e) = entry(1, 10);
        tier.put(&k, &e).unwrap();
        let (_, bigger) = entry(1, 20);
        tier.put(&k, &bigger).unwrap();
        let usage = tier.usage().unwrap();
        assert_eq!((usage.entries, usage.bytes), (1, 20));
    }
}
