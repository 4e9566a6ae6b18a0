//! The cached value: one tool run's outputs, each with its SHA-256,
//! in a self-validating binary framing.
//!
//! Entries travel between tiers (and machines) as bytes, so the format
//! carries everything needed to detect damage without trusting the
//! transport: a magic, a CRC32 over the payload, explicit lengths, and
//! the entry's own [`CacheKey`]. A torn disk write, a bit flip, or a
//! blob filed under the wrong name all fail validation and are treated
//! as a miss — the crash-safety argument for the disk tier reduces to
//! "an entry either decodes and matches its key, or it does not exist".
//!
//! Each output carries the SHA-256 of its payload, computed once where
//! the payload was produced, so a replay records it without hashing it
//! again. The digest sits inside the CRC-covered payload: it is trusted
//! exactly as far as the payload bytes beside it.

use std::io;

use hercules_digest::crc32;

use crate::key::CacheKey;

/// Leading magic of every encoded entry; the trailing digit is the
/// format version. `HCE1` entries, which carried no digests, fail to
/// decode.
pub const ENTRY_MAGIC: &[u8; 4] = b"HCE2";

/// One output slot of a cached tool run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutput {
    /// Entity type *name* of the produced instance. Names, not ids:
    /// the consuming session resolves them against its own schema and
    /// treats unresolvable names as a miss.
    pub entity: String,
    /// Annotation name the tool gave the output (may be empty).
    pub name: String,
    /// The SHA-256 of `data`, computed once, where it was produced.
    pub digest: [u8; 32],
    /// The produced payload bytes.
    pub data: Vec<u8>,
}

/// One cached tool run: the outputs a run with this entry's key
/// produced, plus enough provenance to render `cache stats` usefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The content key the entry was stored under (validated on read).
    pub key: CacheKey,
    /// Tool entity name, for humans and eviction logs.
    pub tool: String,
    /// Wall-clock milliseconds when the entry was created — the GC
    /// eviction order (oldest first, hex tiebreak, deterministic).
    pub created_ms: u64,
    /// The run's outputs, in subtask slot order.
    pub outputs: Vec<CachedOutput>,
}

impl CacheEntry {
    /// Total payload bytes across outputs (the size GC budgets).
    pub fn payload_bytes(&self) -> u64 {
        self.outputs.iter().map(|o| o.data.len() as u64).sum()
    }

    /// Encodes the entry as a self-validating byte blob.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the encoded payload would be
    /// 4 GiB or more, too long for its `u32` length field.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let payload_len = self.payload_len()?;
        let mut blob = Vec::with_capacity(12 + payload_len as usize);
        blob.extend_from_slice(ENTRY_MAGIC);
        blob.extend_from_slice(&[0; 4]); // the CRC, once the payload is in
        blob.extend_from_slice(&payload_len.to_le_bytes());
        blob.extend_from_slice(self.key.as_bytes());
        blob.extend_from_slice(&self.created_ms.to_le_bytes());
        push_bytes(&mut blob, self.tool.as_bytes())?;
        blob.extend_from_slice(&length_field(self.outputs.len())?.to_le_bytes());
        for out in &self.outputs {
            push_bytes(&mut blob, out.entity.as_bytes())?;
            push_bytes(&mut blob, out.name.as_bytes())?;
            blob.extend_from_slice(&out.digest);
            push_bytes(&mut blob, &out.data)?;
        }
        let crc = crc32(&blob[12..]);
        blob[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(blob)
    }

    /// Whether the encoded payload fits its `u32` length field, i.e.
    /// stays under 4 GiB. The cache stores no entry that does not.
    pub(crate) fn encodable(&self) -> bool {
        self.payload_len().is_ok()
    }

    /// Length of the encoded payload, all but the 12-byte header. Every
    /// length field inside the payload is smaller, so once this check
    /// passes no field conversion fails, and nothing is allocated for
    /// an entry that does not fit.
    fn payload_len(&self) -> io::Result<u32> {
        // Key, creation time, the tool's length field, the output count.
        let fixed = 32 + 8 + 4 + 4 + self.tool.len();
        let len = self.outputs.iter().fold(fixed, |len, o| {
            len.saturating_add(OUTPUT_FRAMING + o.entity.len() + o.name.len())
                .saturating_add(o.data.len())
        });
        length_field(len)
    }

    /// Decodes a blob, returning `None` on any validation failure:
    /// wrong magic, truncated, CRC mismatch, malformed structure, or
    /// trailing garbage.
    pub fn decode(blob: &[u8]) -> Option<CacheEntry> {
        if blob.len() < 12 || &blob[..4] != ENTRY_MAGIC {
            return None;
        }
        let crc = u32::from_le_bytes(blob[4..8].try_into().ok()?);
        let len = u32::from_le_bytes(blob[8..12].try_into().ok()?) as usize;
        let payload = blob.get(12..12 + len)?;
        if blob.len() != 12 + len || crc32(payload) != crc {
            return None;
        }
        let mut cur = Cursor { buf: payload };
        let key = CacheKey::from_bytes(cur.take(32)?.try_into().ok()?);
        let created_ms = u64::from_le_bytes(cur.take(8)?.try_into().ok()?);
        let tool = cur.string()?;
        let n = u32::from_le_bytes(cur.take(4)?.try_into().ok()?) as usize;
        // Each output needs its framing bytes; bounds the allocation.
        if n > payload.len() / OUTPUT_FRAMING + 1 {
            return None;
        }
        let mut outputs = Vec::with_capacity(n);
        for _ in 0..n {
            let entity = cur.string()?;
            let name = cur.string()?;
            let digest = cur.take(32)?.try_into().ok()?;
            let data = cur.bytes()?.to_vec();
            outputs.push(CachedOutput {
                entity,
                name,
                digest,
                data,
            });
        }
        if !cur.buf.is_empty() {
            return None;
        }
        Some(CacheEntry {
            key,
            tool,
            created_ms,
            outputs,
        })
    }

    /// Decodes a blob and checks it is filed under `expected` — the
    /// wrong-hit guard every tier applies before serving an entry.
    pub fn decode_for(blob: &[u8], expected: &CacheKey) -> Option<CacheEntry> {
        let entry = CacheEntry::decode(blob)?;
        (entry.key == *expected).then_some(entry)
    }
}

/// Encoded bytes of one output besides its strings and payload: three
/// `u32` length fields and the 32-byte digest.
const OUTPUT_FRAMING: usize = 12 + 32;

/// Appends `bytes` after their length field.
fn push_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
    out.extend_from_slice(&length_field(bytes.len())?.to_le_bytes());
    out.extend_from_slice(bytes);
    Ok(())
}

/// `len` as a `u32` length field. A cast would wrap a length past
/// `u32::MAX`, and the entry would then fail its own validation.
fn length_field(len: usize) -> io::Result<u32> {
    u32::try_from(len).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cache entry length {len} exceeds a u32 length field"),
        )
    })
}

struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = (self.buf.get(..n)?, self.buf.get(n..)?);
        self.buf = rest;
        Some(head)
    }

    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize;
        self.take(len)
    }

    fn string(&mut self) -> Option<String> {
        String::from_utf8(self.bytes()?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_digest::sha256;

    fn sample() -> CacheEntry {
        CacheEntry {
            key: CacheKey::from_bytes(sha256(b"sample")),
            tool: "Simulator".into(),
            created_ms: 1_577_836_800_123,
            outputs: vec![
                CachedOutput {
                    entity: "Performance".into(),
                    name: "perf".into(),
                    digest: sha256(b"Simulator(Circuit, Stimuli)"),
                    data: b"Simulator(Circuit, Stimuli)".to_vec(),
                },
                CachedOutput {
                    entity: "SimulationLog".into(),
                    name: String::new(),
                    digest: sha256(b""),
                    data: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let entry = sample();
        let blob = entry.encode().expect("encodable");
        assert_eq!(CacheEntry::decode(&blob), Some(entry.clone()));
        assert_eq!(CacheEntry::decode_for(&blob, &entry.key), Some(entry));
    }

    #[test]
    fn outputs_carry_their_payloads_sha256() {
        let entry = sample();
        for out in &entry.outputs {
            assert_eq!(out.digest, sha256(&out.data));
        }
        let decoded = CacheEntry::decode(&entry.encode().expect("encodable")).expect("decodes");
        assert_eq!(
            decoded.outputs[0].digest,
            sha256(b"Simulator(Circuit, Stimuli)")
        );
        assert_eq!(decoded.outputs[1].digest, sha256(b""));
    }

    #[test]
    fn every_truncation_is_rejected() {
        let blob = sample().encode().expect("encodable");
        for len in 0..blob.len() {
            assert_eq!(CacheEntry::decode(&blob[..len]), None, "truncated to {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let entry = sample();
        let blob = entry.encode().expect("encodable");
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert_eq!(
                CacheEntry::decode_for(&bad, &entry.key),
                None,
                "bit flip at byte {i} served"
            );
        }
    }

    #[test]
    fn trailing_garbage_and_wrong_key_are_rejected() {
        let entry = sample();
        let mut blob = entry.encode().expect("encodable");
        blob.push(0);
        assert_eq!(CacheEntry::decode(&blob), None);
        let blob = entry.encode().expect("encodable");
        let other = CacheKey::from_bytes(sha256(b"other"));
        assert_eq!(CacheEntry::decode_for(&blob, &other), None);
    }

    #[test]
    fn payload_bytes_counts_outputs() {
        assert_eq!(sample().payload_bytes(), 27);
    }

    #[test]
    fn payload_len_is_the_encoded_payload() {
        let entry = sample();
        assert!(entry.encodable());
        let blob = entry.encode().expect("encodable");
        assert_eq!(entry.payload_len().ok(), Some(blob.len() as u32 - 12));
    }

    #[test]
    fn lengths_past_u32_are_refused_not_wrapped() {
        assert_eq!(length_field(0).ok(), Some(0));
        assert_eq!(length_field(u32::MAX as usize).ok(), Some(u32::MAX));
        let err = length_field(u32::MAX as usize + 1).expect_err("wraps");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(length_field(usize::MAX).is_err());
    }
}
