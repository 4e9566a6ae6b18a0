//! Content-addressed tool-execution cache with tiered backends.
//!
//! Hercules re-derives a representation by running its constructing
//! tool; when the tool, its configuration, and every data dependency
//! are byte-identical to a prior run, the result is too. This crate
//! keys that observation: a [`CacheKey`] is a canonical content hash
//! over tool identity + declared-dependency fingerprint + the SHA-256
//! digest of the tool payload and of every input payload (the digest
//! the history computed once, when it stored the payload), and a
//! [`CacheEntry`] holds the produced outputs. Two tiers sit behind one
//! [`CacheBackend`] trait — a bounded in-memory LRU ([`MemoryTier`])
//! and a crash-safe sharded on-disk store ([`DiskTier`]) —
//! orchestrated by [`ContentCache`], which the executor consults
//! ahead of tool dispatch.
//!
//! Unlike the executor's per-run invocation dedup (same `InstanceId`s
//! within one dispatch) or the history DB's current-result reuse
//! (same workspace), the content cache is *extensional*: identical
//! bytes hit across sessions and across workspaces that share a disk
//! tier.
//!
//! Keys are built on `hercules-digest`, the dependency-free leaf
//! crate that holds the workspace's SHA-256 and CRC32 kernels; this
//! crate contains no `unsafe`.

#![forbid(unsafe_code)]

pub mod backend;
pub mod disk;
pub mod entry;
pub mod key;
pub mod memory;
pub mod tiered;

pub use backend::{CacheBackend, TierUsage};
pub use disk::{DiskTier, GcReport};
pub use entry::{CacheEntry, CachedOutput};
pub use key::{CacheKey, KeyBuilder};
pub use memory::{MemoryBudget, MemoryTier};
pub use tiered::{CacheConfig, CacheStats, ContentCache, TierStats};
