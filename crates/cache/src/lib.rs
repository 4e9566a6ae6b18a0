//! Content-addressed tool-execution cache with tiered backends.
//!
//! Hercules re-derives a representation by running its constructing
//! tool; when the tool, its configuration, and every data dependency
//! are byte-identical to a prior run, the result is too. This crate
//! keys that observation: a [`CacheKey`] is a canonical content hash
//! over tool identity + declared-dependency fingerprint + all input
//! payloads, and a [`CacheEntry`] holds the produced outputs. Three
//! tiers sit behind one [`CacheBackend`] trait — a bounded in-memory
//! LRU ([`MemoryTier`]), a crash-safe sharded on-disk store
//! ([`DiskTier`]), and a pluggable remote ([`RemoteCache`] /
//! [`RemoteTier`]) — orchestrated by [`ContentCache`], which the
//! executor consults ahead of tool dispatch.
//!
//! Unlike the executor's per-run invocation dedup (same `InstanceId`s
//! within one dispatch) or the history DB's current-result reuse
//! (same workspace), the content cache is *extensional*: identical
//! bytes hit across sessions, workspaces, and machines.
//!
//! This is the one crate of the workspace that contains `unsafe`, and
//! only in two private modules: `key::shani` and `crc::clmul`, the
//! x86-64 SHA-256 and CRC32 kernels. Each calls its kernel only through
//! a token type that runtime feature detection alone constructs, and
//! every `unsafe` block states why it holds.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod crc;
pub mod disk;
pub mod entry;
pub mod key;
pub mod memory;
pub mod remote;
pub mod tiered;

pub use backend::{CacheBackend, TierUsage};
pub use crc::crc32;
pub use disk::{DiskTier, GcReport};
pub use entry::{CacheEntry, CachedOutput};
pub use key::{sha256, CacheKey, KeyBuilder};
pub use memory::{MemoryBudget, MemoryTier};
pub use remote::{LocalDirRemote, RemoteCache, RemoteTier};
pub use tiered::{CacheConfig, CacheStats, ContentCache, TierStats};
