//! Content-addressed blob store for instance data.
//!
//! Footnote 5 of the paper: "although each instance of an entity
//! (including different versions of the same design) has its own
//! associated meta-data, it may share the actual (physical) data with
//! other instances. For example, several design history instances could
//! point to the same Unix RCS … file." The [`BlobStore`] reproduces this
//! sharing: identical contents are stored once under one [`BlobHash`],
//! with a reference count. The key is the SHA-256 digest of the
//! payload, computed once, and it is the payload's content identity
//! everywhere else too: the executor folds it into content-cache keys
//! instead of hashing the bytes again. [`BlobStore::put`] computes it;
//! [`BlobStore::put_hashed`] takes one computed where the payload was
//! produced (a tool's worker, or a content-cache entry that carries
//! it). A key is only shared after comparing bytes, so even a hash
//! collision can never make two different payloads share a blob.
//!
//! Sharing holds in memory too: a blob is one immutable `Arc<[u8]>`
//! buffer. [`BlobStore::put_hashed`] and [`BlobStore::put_shared`]
//! keep the caller's buffer instead of copying it, so a payload a
//! content-cache entry holds, the history's blob and the journal's
//! capture of it ([`BlobStore::get_shared`]) are one allocation. A key
//! hit on that same allocation adds a reference without comparing,
//! because equal pointers mean equal bytes.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hercules_digest::{hex, sha256};

/// Key of a stored blob: the SHA-256 digest of its bytes, or, when a
/// blob with different bytes already holds that key, the next free key
/// after it. Identical bytes share one key, and a key always names the
/// bytes [`BlobStore::put`] stored under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobHash([u8; 32]);

impl BlobHash {
    /// The key of the empty payload: the SHA-256 digest of no bytes.
    pub const EMPTY: BlobHash = BlobHash([
        0xe3, 0xb0, 0xc4, 0x42, 0x98, 0xfc, 0x1c, 0x14, 0x9a, 0xfb, 0xf4, 0xc8, 0x99, 0x6f, 0xb9,
        0x24, 0x27, 0xae, 0x41, 0xe4, 0x64, 0x9b, 0x93, 0x4c, 0xa4, 0x95, 0x99, 0x1b, 0x78, 0x52,
        0xb8, 0x55,
    ]);

    /// The raw digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for BlobHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(&self.0))
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
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: HashMap<BlobHash, (Arc<[u8]>, usize)>,
    stored_bytes: u64,
    logical_bytes: u64,
    hashed_bytes: u64,
}

/// Two stores are equal when they hold the same blobs under the same
/// keys with the same counts; how many bytes each hashed to get there
/// is work done, not content.
impl PartialEq for BlobStore {
    fn eq(&self, other: &BlobStore) -> bool {
        self.blobs == other.blobs
            && self.stored_bytes == other.stored_bytes
            && self.logical_bytes == other.logical_bytes
    }
}

impl Eq for BlobStore {}

impl BlobStore {
    /// Creates an empty store.
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// Stores `bytes`, sharing storage with identical prior content.
    /// Returns the key the bytes are stored under; each call adds one
    /// reference. New bytes are copied into a buffer of their own.
    pub fn put(&mut self, bytes: &[u8]) -> BlobHash {
        self.hashed_bytes += bytes.len() as u64;
        let digest = sha256(bytes);
        self.insert(Bytes::Borrowed(bytes), digest)
    }

    /// Stores the shared buffer `bytes` like [`BlobStore::put`],
    /// hashing it, but keeps the buffer itself when the bytes are new
    /// instead of copying them: a journal frame's decoded payload
    /// becomes the blob.
    pub fn put_shared(&mut self, bytes: Arc<[u8]>) -> BlobHash {
        self.hashed_bytes += bytes.len() as u64;
        let digest = sha256(&bytes);
        self.insert(Bytes::Shared(bytes), digest)
    }

    /// Stores the shared buffer `bytes` like [`BlobStore::put_shared`],
    /// given their SHA-256 `digest` instead of hashing them: the probe
    /// starts at `digest`, and new bytes are kept, not copied. A key hit
    /// on the very buffer stored there adds a reference without
    /// comparing; any other key hit compares bytes. Debug builds check
    /// that `digest` is the bytes' SHA-256.
    pub fn put_hashed(&mut self, bytes: Arc<[u8]>, digest: [u8; 32]) -> BlobHash {
        debug_assert!(
            sha256(&bytes) == digest,
            "a payload's digest must be the SHA-256 of its bytes"
        );
        self.insert(Bytes::Shared(bytes), digest)
    }

    /// Adds one reference to `bytes`, probing from the key `digest`.
    fn insert(&mut self, bytes: Bytes<'_>, digest: [u8; 32]) -> BlobHash {
        self.logical_bytes += bytes.len() as u64;
        let mut key = BlobHash(digest);
        loop {
            match self.blobs.get_mut(&key) {
                Some((stored, refs)) if bytes.same_as(stored) => {
                    *refs += 1;
                    return key;
                }
                // Different bytes under the same key: a hash collision.
                // Probe the next key, counting up in its last 8 bytes.
                Some(_) => {
                    let tail = u64::from_be_bytes(key.0[24..].try_into().expect("8 bytes"));
                    key.0[24..].copy_from_slice(&tail.wrapping_add(1).to_be_bytes());
                }
                None => {
                    self.stored_bytes += bytes.len() as u64;
                    self.blobs.insert(key, (bytes.into_shared(), 1));
                    return key;
                }
            }
        }
    }

    /// Adds one reference to the blob stored under `hash`, as
    /// [`BlobStore::put`] of its bytes would, without copying or hashing
    /// them. Returns `false`, changing nothing, if the hash is unknown.
    pub fn share(&mut self, hash: BlobHash) -> bool {
        let Some((stored, refs)) = self.blobs.get_mut(&hash) else {
            return false;
        };
        *refs += 1;
        self.logical_bytes += stored.len() as u64;
        true
    }

    /// Returns the bytes stored under `hash`, if present.
    pub fn get(&self, hash: BlobHash) -> Option<&[u8]> {
        self.blobs.get(&hash).map(|(b, _)| &b[..])
    }

    /// Returns the buffer stored under `hash`, if present: the blob
    /// itself, for a holder that shares it instead of copying it.
    pub fn get_shared(&self, hash: BlobHash) -> Option<&Arc<[u8]>> {
        self.blobs.get(&hash).map(|(b, _)| b)
    }

    /// Returns the reference count of a blob (0 if unknown).
    pub fn refcount(&self, hash: BlobHash) -> usize {
        self.blobs.get(&hash).map_or(0, |(_, c)| *c)
    }

    /// Returns the number of distinct blobs stored.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
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

    /// Returns the payload bytes this store has hashed:
    /// [`BlobStore::put`] hashes what it stores, and
    /// [`BlobStore::put_hashed`] hashes nothing.
    pub fn hashed_bytes(&self) -> u64 {
        self.hashed_bytes
    }
}

/// Bytes on their way into the store: borrowed ones are copied into a
/// buffer of their own if new, a shared buffer is kept.
enum Bytes<'a> {
    Borrowed(&'a [u8]),
    Shared(Arc<[u8]>),
}

impl Bytes<'_> {
    fn as_slice(&self) -> &[u8] {
        match self {
            Bytes::Borrowed(bytes) => bytes,
            Bytes::Shared(bytes) => bytes,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether these are the bytes of `stored`: the same buffer, or, a
    /// comparison later, equal bytes.
    fn same_as(&self, stored: &Arc<[u8]>) -> bool {
        match self {
            Bytes::Shared(bytes) if Arc::ptr_eq(bytes, stored) => true,
            _ => self.as_slice() == &stored[..],
        }
    }

    fn into_shared(self) -> Arc<[u8]> {
        match self {
            Bytes::Borrowed(bytes) => Arc::from(bytes),
            Bytes::Shared(bytes) => bytes,
        }
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
    fn share_counts_like_a_put_of_the_same_bytes() {
        let mut shared = BlobStore::new();
        let h = shared.put(b"netlist v1");
        assert!(shared.share(h));
        let mut put = BlobStore::new();
        put.put(b"netlist v1");
        put.put(b"netlist v1");
        assert_eq!(shared, put);
        assert_eq!(shared.refcount(h), 2);
        assert!(!shared.share(BlobHash::EMPTY), "unknown hash");
        assert_eq!(shared, put, "a failed share changes nothing");
    }

    #[test]
    fn get_returns_content() {
        let mut s = BlobStore::new();
        let h = s.put(b"netlist v1");
        assert_eq!(s.get(h), Some(&b"netlist v1"[..]));
        assert_eq!(s.get(BlobHash::EMPTY), None);
    }

    #[test]
    fn colliding_key_never_shares_different_bytes() {
        let mut s = BlobStore::new();
        // Plant different bytes under the key `b"x"` hashes to, as a
        // SHA-256 collision would.
        let planted = BlobHash(sha256(b"x"));
        s.blobs.insert(planted, (Arc::from(&b"not x"[..]), 1));
        let h = s.put(b"x");
        assert_ne!(h, planted, "different bytes take another key");
        assert_eq!(s.get(h), Some(&b"x"[..]));
        assert_eq!(s.put(b"x"), h, "identical bytes still share");
        assert_eq!(s.refcount(h), 2);
        assert_eq!(s.refcount(planted), 1, "the planted blob is untouched");
        assert_eq!(s.get(planted), Some(&b"not x"[..]));
    }

    #[test]
    fn put_hashed_stores_like_put_without_hashing() {
        let mut hashed = BlobStore::new();
        let mut put = BlobStore::new();
        for bytes in [&b"netlist v1"[..], b"netlist v1", b"layout", b""] {
            assert_eq!(
                hashed.put_hashed(Arc::from(bytes), sha256(bytes)),
                put.put(bytes)
            );
        }
        assert_eq!(hashed, put, "same blobs, keys and counts");
        assert_eq!(hashed.hashed_bytes(), 0);
        assert_eq!(put.hashed_bytes(), 26);
        assert_eq!(put.logical_bytes(), 26);
    }

    #[test]
    fn put_hashed_compares_bytes_on_a_colliding_key() {
        let mut s = BlobStore::new();
        let planted = BlobHash(sha256(b"x"));
        s.blobs.insert(planted, (Arc::from(&b"not x"[..]), 1));
        let h = s.put_hashed(Arc::from(&b"x"[..]), sha256(b"x"));
        assert_ne!(h, planted, "different bytes take another key");
        assert_eq!(s.get(h), Some(&b"x"[..]));
        assert_eq!(s.put(b"x"), h, "put finds the same probed key");
        assert_eq!(s.put_hashed(Arc::from(&b"x"[..]), sha256(b"x")), h);
        assert_eq!(s.refcount(h), 3);
        assert_eq!(s.get(planted), Some(&b"not x"[..]));
    }

    /// A key hit on the very buffer stored under the key counts one
    /// more reference to it; the buffer is kept, not copied.
    #[test]
    fn a_key_hit_on_the_same_buffer_counts_one_reference() {
        let mut s = BlobStore::new();
        let netlist: Arc<[u8]> = Arc::from(&b"netlist v1"[..]);
        let digest = sha256(&netlist);
        let h = s.put_hashed(netlist.clone(), digest);
        assert!(Arc::ptr_eq(s.get_shared(h).expect("stored"), &netlist));
        assert_eq!(s.put_hashed(netlist.clone(), digest), h);
        assert_eq!(s.refcount(h), 2);
        assert_eq!(
            (s.blob_count(), s.stored_bytes(), s.logical_bytes()),
            (1, 10, 20)
        );
        // The store and this test hold the buffer; nothing copied it.
        assert_eq!(Arc::strong_count(&netlist), 2);
    }

    /// Equal bytes in two different buffers share one blob, the first
    /// buffer stored.
    #[test]
    fn equal_bytes_in_two_buffers_share_one_blob() {
        let mut s = BlobStore::new();
        let first: Arc<[u8]> = Arc::from(&b"layout"[..]);
        let second: Arc<[u8]> = Arc::from(&b"layout"[..]);
        assert!(!Arc::ptr_eq(&first, &second));
        let h = s.put_hashed(first.clone(), sha256(b"layout"));
        assert_eq!(s.put_hashed(second.clone(), sha256(b"layout")), h);
        assert_eq!(s.put_shared(second.clone()), h);
        assert_eq!((s.blob_count(), s.refcount(h)), (1, 3));
        assert!(Arc::ptr_eq(s.get_shared(h).expect("stored"), &first));
        assert_eq!(
            Arc::strong_count(&second),
            1,
            "the second buffer is not kept"
        );
    }

    /// `put_shared` hashes the buffer like `put` and keeps it.
    #[test]
    fn put_shared_hashes_the_buffer_and_keeps_it() {
        let mut shared = BlobStore::new();
        let mut put = BlobStore::new();
        let frame: Arc<[u8]> = Arc::from(&b"decoded payload"[..]);
        let h = shared.put_shared(frame.clone());
        assert_eq!(h, put.put(b"decoded payload"));
        assert_eq!(shared, put);
        assert_eq!(shared.hashed_bytes(), 15);
        assert!(Arc::ptr_eq(shared.get_shared(h).expect("stored"), &frame));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SHA-256 of its bytes")]
    fn put_hashed_checks_the_digest_in_debug_builds() {
        BlobStore::new().put_hashed(Arc::from(&b"abc"[..]), sha256(b"abd"));
    }

    /// Fresh bytes are stored under their SHA-256 digest (the FIPS
    /// 180-4 "abc" vector).
    #[test]
    fn fresh_bytes_key_as_their_sha256() {
        let mut s = BlobStore::new();
        let abc = hex::decode("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
            .expect("valid hex");
        assert_eq!(&s.put(b"abc").as_bytes()[..], &abc[..]);
        assert_eq!(s.put(b""), BlobHash::EMPTY);
    }

    #[test]
    fn display_is_hex() {
        let mut s = BlobStore::new();
        assert_eq!(
            s.put(b"abc").to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            BlobHash::EMPTY.to_string(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }
}
