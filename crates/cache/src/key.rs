//! Canonical content keys.
//!
//! A [`CacheKey`] is the SHA-256 of a domain-separated, length-framed
//! field stream: every field goes in as `tag \n len(u64 LE) bytes`, so
//! two different field sequences can never collide by concatenation
//! ("ab"+"c" vs "a"+"bc") and a new key domain (or schema fingerprint)
//! changes every key at once. Content addressing is what makes the
//! cache shareable: two sessions that perform the same transformation
//! on the same bytes derive the same key, whatever their instance
//! numbering looks like.

use std::fmt;

use hercules_digest::{hex, Sha256};

/// A 256-bit content key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// Wraps a raw digest.
    pub fn from_bytes(bytes: [u8; 32]) -> CacheKey {
        CacheKey(bytes)
    }

    /// The raw digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering (64 chars).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// The first two hex characters — the disk tier's shard name.
    pub fn shard(&self) -> String {
        hex::encode(&self.0[..1])
    }

    /// Parses the output of [`CacheKey::to_hex`].
    pub fn from_hex(text: &str) -> Option<CacheKey> {
        hex::decode(text)?.try_into().ok().map(CacheKey)
    }
}

impl fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheKey({})", &self.to_hex()[..12])
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Builds a [`CacheKey`] from tagged fields.
///
/// ```
/// use hercules_cache::KeyBuilder;
/// let mut k = KeyBuilder::new("example.v1");
/// k.field("tool", b"Simulator");
/// k.field("input", b"netlist bytes");
/// let a = k.finish();
/// let mut k = KeyBuilder::new("example.v1");
/// k.field("tool", b"Simulator");
/// k.field("input", b"netlist bytes");
/// assert_eq!(a, k.finish());
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    hasher: Sha256,
}

impl KeyBuilder {
    /// Starts a key in `domain` — bump the domain string to invalidate
    /// every previously derived key (e.g. on an entry-format change).
    pub fn new(domain: &str) -> KeyBuilder {
        let mut b = KeyBuilder {
            hasher: Sha256::default(),
        };
        b.frame(b"domain", domain.as_bytes());
        b
    }

    fn frame(&mut self, tag: &[u8], bytes: &[u8]) {
        self.hasher.update(tag);
        self.hasher.update(b"\n");
        self.hasher.update(&(bytes.len() as u64).to_le_bytes());
        self.hasher.update(bytes);
    }

    /// Folds one tagged field into the key.
    pub fn field(&mut self, tag: &str, bytes: &[u8]) {
        self.frame(tag.as_bytes(), bytes);
    }

    /// Folds a tagged string field into the key.
    pub fn field_str(&mut self, tag: &str, value: &str) {
        self.frame(tag.as_bytes(), value.as_bytes());
    }

    /// Folds a tagged integer field into the key.
    pub fn field_u64(&mut self, tag: &str, value: u64) {
        self.frame(tag.as_bytes(), &value.to_le_bytes());
    }

    /// Finalizes the digest.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.hasher.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_digest::sha256;

    #[test]
    fn key_builder_is_framed_not_concatenated() {
        let mut a = KeyBuilder::new("d");
        a.field("x", b"ab");
        a.field("x", b"c");
        let mut b = KeyBuilder::new("d");
        b.field("x", b"a");
        b.field("x", b"bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = KeyBuilder::new("d1");
        c.field("x", b"ab");
        let mut d = KeyBuilder::new("d2");
        d.field("x", b"ab");
        assert_ne!(c.finish(), d.finish(), "domains separate");
    }

    #[test]
    fn hex_round_trips_and_shards() {
        let key = CacheKey::from_bytes(sha256(b"round-trip"));
        let hex = key.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(CacheKey::from_hex(&hex), Some(key));
        assert_eq!(key.shard(), &hex[..2]);
        assert_eq!(CacheKey::from_hex("zz"), None);
        assert_eq!(CacheKey::from_hex(&hex[..62]), None);
        let mut bad = hex.clone();
        bad.replace_range(0..1, "G");
        assert_eq!(CacheKey::from_hex(&bad), None);
        assert_eq!(format!("{key}"), hex);
        assert!(format!("{key:?}").starts_with("CacheKey("));
    }
}
