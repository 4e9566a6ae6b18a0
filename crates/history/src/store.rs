//! Content-addressed blob store for instance data.
//!
//! Footnote 5 of the paper: "although each instance of an entity
//! (including different versions of the same design) has its own
//! associated meta-data, it may share the actual (physical) data with
//! other instances. For example, several design history instances could
//! point to the same Unix RCS … file." The [`BlobStore`] reproduces this
//! sharing: identical contents are stored once under one [`BlobHash`],
//! with a reference count. Keys start from a 64-bit hash, but a key is
//! only shared after comparing bytes, so a hash collision can never make
//! two different payloads share a blob.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Key of a stored blob: the 64-bit FNV-1a hash of its bytes, or, when
/// a blob with different bytes already holds that key, the next free
/// key after it. Identical bytes share one key, and a key always names
/// the bytes [`BlobStore::put`] stored under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlobHash(u64);

impl BlobHash {
    /// Returns the raw hash value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Hashes a byte string with 64-bit FNV-1a: the first key
    /// [`BlobStore::put`] tries for it.
    pub fn of(bytes: &[u8]) -> BlobHash {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        BlobHash(h)
    }
}

impl fmt::Display for BlobHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A content-addressed, reference-counted blob store.
///
/// # Examples
///
/// ```
/// use hercules_history::BlobStore;
///
/// let mut store = BlobStore::new();
/// let a = store.put(b"v1 of the netlist");
/// let b = store.put(b"v1 of the netlist"); // shared, not duplicated
/// assert_eq!(a, b);
/// assert_eq!(store.blob_count(), 1);
/// assert_eq!(store.refcount(a), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlobStore {
    blobs: HashMap<u64, (Vec<u8>, usize)>,
    stored_bytes: u64,
    logical_bytes: u64,
}

impl BlobStore {
    /// Creates an empty store.
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// Stores `bytes`, sharing storage with identical prior content.
    /// Returns the key the bytes are stored under; each call adds one
    /// reference.
    pub fn put(&mut self, bytes: &[u8]) -> BlobHash {
        self.logical_bytes += bytes.len() as u64;
        let mut key = BlobHash::of(bytes).0;
        loop {
            match self.blobs.get_mut(&key) {
                Some((stored, refs)) if stored.as_slice() == bytes => {
                    *refs += 1;
                    return BlobHash(key);
                }
                // Different bytes under the same key: a hash collision.
                Some(_) => key = key.wrapping_add(1),
                None => {
                    self.stored_bytes += bytes.len() as u64;
                    self.blobs.insert(key, (bytes.to_vec(), 1));
                    return BlobHash(key);
                }
            }
        }
    }

    /// Returns the bytes stored under `hash`, if present.
    pub fn get(&self, hash: BlobHash) -> Option<&[u8]> {
        self.blobs.get(&hash.0).map(|(b, _)| b.as_slice())
    }

    /// Drops one reference; removes the blob when the count reaches
    /// zero. Returns the remaining reference count, or `None` if the
    /// hash was unknown.
    pub fn release(&mut self, hash: BlobHash) -> Option<usize> {
        let (bytes_len, remaining) = {
            let entry = self.blobs.get_mut(&hash.0)?;
            entry.1 -= 1;
            (entry.0.len() as u64, entry.1)
        };
        if remaining == 0 {
            self.blobs.remove(&hash.0);
            self.stored_bytes -= bytes_len;
        }
        Some(remaining)
    }

    /// Returns the reference count of a blob (0 if unknown).
    pub fn refcount(&self, hash: BlobHash) -> usize {
        self.blobs.get(&hash.0).map_or(0, |(_, c)| *c)
    }

    /// Returns the number of distinct blobs stored.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }

    /// Returns `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Returns the bytes physically stored (after sharing).
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Returns the bytes that *would* be stored without sharing; the
    /// difference quantifies footnote 5's saving.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_content_is_shared() {
        let mut s = BlobStore::new();
        let a = s.put(b"hello");
        let b = s.put(b"hello");
        let c = s.put(b"world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.blob_count(), 2);
        assert_eq!(s.refcount(a), 2);
        assert_eq!(s.stored_bytes(), 10);
        assert_eq!(s.logical_bytes(), 15);
    }

    #[test]
    fn get_returns_content() {
        let mut s = BlobStore::new();
        let h = s.put(b"netlist v1");
        assert_eq!(s.get(h), Some(&b"netlist v1"[..]));
        assert_eq!(s.get(BlobHash::of(b"missing")), None);
    }

    #[test]
    fn release_frees_at_zero() {
        let mut s = BlobStore::new();
        let h = s.put(b"data");
        s.put(b"data");
        assert_eq!(s.release(h), Some(1));
        assert_eq!(s.blob_count(), 1);
        assert_eq!(s.release(h), Some(0));
        assert!(s.is_empty());
        assert_eq!(s.stored_bytes(), 0);
        assert_eq!(s.release(h), None);
    }

    #[test]
    fn colliding_key_never_shares_different_bytes() {
        let mut s = BlobStore::new();
        // Plant different bytes under the key `b"x"` hashes to, as a
        // 64-bit FNV collision would.
        let planted = BlobHash::of(b"x");
        s.blobs.insert(planted.raw(), (b"not x".to_vec(), 1));
        let h = s.put(b"x");
        assert_ne!(h, planted, "different bytes take another key");
        assert_eq!(s.get(h), Some(&b"x"[..]));
        assert_eq!(s.put(b"x"), h, "identical bytes still share");
        assert_eq!(s.refcount(h), 2);
        assert_eq!(s.release(h), Some(1));
        assert_eq!(s.release(h), Some(0));
        assert_eq!(s.get(h), None);
        assert_eq!(s.refcount(planted), 1, "the planted blob is untouched");
        assert_eq!(s.get(planted), Some(&b"not x"[..]));
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(BlobHash::of(b"").raw(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn display_is_hex() {
        let h = BlobHash::of(b"");
        assert_eq!(h.to_string(), "cbf29ce484222325");
    }
}
