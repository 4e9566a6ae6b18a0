//! The tier interface: one trait both tiers implement.

use std::fmt;
use std::io;
use std::sync::Arc;

use crate::entry::CacheEntry;
use crate::key::CacheKey;

/// Storage occupancy of one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierUsage {
    /// Entries currently stored.
    pub entries: u64,
    /// Payload bytes currently stored (encoded size for byte-addressed
    /// tiers, output payload size for the in-memory tier).
    pub bytes: u64,
}

/// One cache tier: a keyed store of [`CacheEntry`] values.
///
/// Every implementation is *validating* — `get` returns `Ok(None)`
/// rather than a damaged or mis-filed entry — and *best-effort*: an
/// `Err` means the tier is degraded, never that the caller holds bad
/// data. The tiered front end ([`crate::ContentCache`]) turns errors
/// into metrics and keeps serving from the remaining tiers.
pub trait CacheBackend: Send + Sync + fmt::Debug {
    /// Short stable tier name (`"mem"`, `"disk"`) used in
    /// metric names and `cache stats` rendering.
    fn tier(&self) -> &'static str;

    /// Looks `key` up. `Ok(None)` covers absent, torn, corrupt, and
    /// mis-filed entries alike. Entries are shared, not copied: a
    /// caller that needs the payloads copies them outside the tier.
    fn get(&self, key: &CacheKey) -> io::Result<Option<Arc<CacheEntry>>>;

    /// Stores `entry` under `key`, durably for persistent tiers.
    /// Overwrites are idempotent: the same key always maps to the same
    /// content.
    fn put(&self, key: &CacheKey, entry: &Arc<CacheEntry>) -> io::Result<()>;

    /// Current occupancy.
    fn usage(&self) -> io::Result<TierUsage>;
}
