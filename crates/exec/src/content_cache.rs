//! Bridges the executor to the content-addressed result cache.
//!
//! The cache key is a canonical content hash over everything the tool
//! run can observe: the tool's entity *name* (names are stable across
//! schema revisions and sessions; numeric ids are not), its instance
//! payload, the declared-dependency fingerprint of every output (the
//! same under-key machinery HL0504 audits — if the schema's declared
//! dependencies change, the key changes), and every input's entity
//! name and payload. Payloads enter the key as their [`BlobHash`], the
//! SHA-256 digest the history computed once when it stored them, so a
//! key costs the same however large the payloads are. Two invocations
//! with the same key are byte-for-byte the same work, no matter which
//! session, workspace, or machine prepared them.
//!
//! An entry carries each output's SHA-256 too, computed once, right
//! after the tool ran: the run that produced the entry and every
//! replay of it hand that digest to the history, which then hashes
//! nothing.
//!
//! Each payload is one shared buffer from there on. A fresh output
//! moves into it once, where it is hashed (`SharedOutput::share`), and
//! a disk hit's payload is copied once out of the entry's file; the
//! cache entry and the history record share that buffer, and a replay
//! hands the history the entry's own buffer. No payload byte is copied
//! again before the journal frame is encoded.

use std::sync::Arc;

use hercules_cache::{CacheEntry, CacheKey, CachedOutput, KeyBuilder};
use hercules_digest::sha256;
use hercules_history::BlobHash;
use hercules_schema::TaskSchema;

use crate::encapsulation::{Invocation, ToolOutput};
use hercules_schema::EntityTypeId;

/// One output on its way to the history: its entity, its annotation
/// name, and its payload in a shared buffer with the buffer's SHA-256.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SharedOutput {
    pub(crate) entity: EntityTypeId,
    pub(crate) name: String,
    pub(crate) data: Arc<[u8]>,
    pub(crate) digest: [u8; 32],
}

impl SharedOutput {
    /// Moves a tool's fresh output into a shared buffer, hashing it
    /// once: the only copy a produced payload makes on its way to the
    /// cache entry and the history.
    pub(crate) fn share(output: ToolOutput) -> SharedOutput {
        let data: Arc<[u8]> = output.data.into();
        SharedOutput {
            entity: output.entity,
            name: output.name,
            digest: sha256(&data),
            data,
        }
    }
}

/// Domain tag of the key derivation. Bumping the version invalidates
/// every cached result at once — the escape hatch for semantic changes
/// to the executor or the entry format. `v2` keys fold payload digests
/// where `v1` keys folded payload bytes; `v3` keys name entries in the
/// `HCE2` format, whose outputs carry their digests, so no `HCE1`
/// entry is ever looked up.
const KEY_DOMAIN: &str = "hercules.exec.v3";

/// Derives the content key of one prepared run. `tool` is the digest
/// of the tool instance's payload (`None` when there is none), and
/// `inputs` pairs each input's entity with the digests of its
/// instances, in [`Invocation::inputs`] order.
pub fn invocation_key(
    schema: &TaskSchema,
    tool_entity: EntityTypeId,
    tool: Option<BlobHash>,
    inputs: &[(EntityTypeId, Vec<BlobHash>)],
    outputs: &[EntityTypeId],
) -> CacheKey {
    let mut b = KeyBuilder::new(KEY_DOMAIN);
    b.field_str("tool", schema.entity(tool_entity).name());
    match tool {
        Some(digest) => b.field("tool_data", digest.as_bytes()),
        // A missing tool payload is distinct from an empty one.
        None => b.field_u64("tool_data_absent", 1),
    }
    b.field_u64("outputs", outputs.len() as u64);
    for &out in outputs {
        b.field_str("output", schema.entity(out).name());
        // The declared-dependency fingerprint: what the schema says
        // this product may depend on (functional arc first, then data
        // arcs, declaration order).
        for dep in schema.deps_of(out) {
            b.field_str("declared_dep", schema.entity(dep.source()).name());
        }
    }
    b.field_u64("inputs", inputs.len() as u64);
    for (entity, digests) in inputs {
        b.field_str("input", schema.entity(*entity).name());
        b.field_u64("instances", digests.len() as u64);
        for digest in digests {
            b.field("payload", digest.as_bytes());
        }
    }
    b.finish()
}

/// The digest an input instance keys as: its payload's, or the empty
/// payload's when it has no data, because the tool receives empty bytes
/// for it either way.
pub fn input_digest(data: Option<BlobHash>) -> BlobHash {
    data.unwrap_or(BlobHash::EMPTY)
}

/// Packages a successful run's shared outputs as a cache entry that
/// shares their payload buffers. Entity ids are translated to names so
/// the entry stays meaningful to any session speaking the same schema.
pub(crate) fn entry_from_outputs(
    key: CacheKey,
    schema: &TaskSchema,
    invocation: &Invocation,
    outputs: &[SharedOutput],
    created_ms: u64,
) -> CacheEntry {
    CacheEntry {
        key,
        tool: schema.entity(invocation.tool_entity).name().to_owned(),
        created_ms,
        outputs: outputs
            .iter()
            .map(|o| CachedOutput {
                entity: schema.entity(o.entity).name().to_owned(),
                name: o.name.clone(),
                digest: o.digest,
                data: Arc::clone(&o.data),
            })
            .collect(),
    }
}

/// Reconstitutes a run's outputs from a cache entry, re-validating the
/// entry against the consuming subtask: the output count must match
/// and every entity name must resolve to a subtype of the expected
/// product. Any mismatch (renamed entity, reshaped schema) degrades to
/// a miss — the cache never forces a stale shape onto a run. Each
/// output shares the entry's payload buffer and carries its digest: a
/// hit copies no payload byte.
pub(crate) fn outputs_from_entry(
    schema: &TaskSchema,
    entry: &CacheEntry,
    expected: &[EntityTypeId],
) -> Option<Vec<SharedOutput>> {
    if entry.outputs.len() != expected.len() {
        return None;
    }
    entry
        .outputs
        .iter()
        .zip(expected)
        .map(|(out, &want)| {
            let entity = schema.entity_id(&out.entity)?;
            schema.is_subtype_of(entity, want).then(|| SharedOutput {
                entity,
                name: out.name.clone(),
                data: Arc::clone(&out.data),
                digest: out.digest,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::ToolInput;
    use hercules_history::BlobStore;
    use hercules_schema::fixtures;

    fn invocation(schema: &TaskSchema, payload: &[u8]) -> Invocation {
        let layout = schema.entity_id("Layout").expect("entity");
        let extractor = schema.entity_id("Extractor").expect("entity");
        let extracted = schema.entity_id("ExtractedNetlist").expect("entity");
        Invocation {
            tool_entity: extractor,
            tool_data: Some(b"extract --fast".to_vec()),
            inputs: vec![ToolInput {
                entity: layout,
                instances: vec![payload.to_vec()],
            }],
            outputs: vec![extracted],
        }
    }

    fn digest(bytes: &[u8]) -> BlobHash {
        BlobStore::new().put(bytes)
    }

    /// Key of an `Extractor` run on `tool` over layouts with the given
    /// digests.
    fn key(schema: &TaskSchema, tool: Option<&[u8]>, layouts: Vec<BlobHash>) -> CacheKey {
        let entity = |name| schema.entity_id(name).expect("entity");
        invocation_key(
            schema,
            entity("Extractor"),
            tool.map(digest),
            &[(entity("Layout"), layouts)],
            &[entity("ExtractedNetlist")],
        )
    }

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let schema = fixtures::fig1();
        let tool = Some(&b"extract --fast"[..]);
        let a = key(&schema, tool, vec![digest(b"design-a")]);
        let again = key(&schema, tool, vec![digest(b"design-a")]);
        let other = key(&schema, tool, vec![digest(b"design-b")]);
        assert_eq!(a, again, "same bytes, same key");
        assert_ne!(a, other, "different input payload, different key");
    }

    /// Keys written to disk caches must keep hitting across builds.
    /// This digest was derived outside the workspace's SHA-256: Python's
    /// `hashlib` over the same framed field stream, with the payloads'
    /// SHA-256 digests as the payload fields. The 1000-byte payload
    /// spans many blocks.
    #[test]
    fn key_matches_the_pinned_golden_digest() {
        let schema = fixtures::fig1();
        let long: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let layouts = vec![digest(&long), digest(b"design-a")];
        assert_eq!(
            key(&schema, Some(b"extract --fast"), layouts).to_hex(),
            "feaeb10d0b0f9d550d94f8831273a050538d46e005a18f32df2bbc839efc3bbe"
        );
    }

    #[test]
    fn key_distinguishes_tool_data_absent_from_empty() {
        let schema = fixtures::fig1();
        let layouts = || vec![digest(b"d")];
        assert_ne!(
            key(&schema, None, layouts()),
            key(&schema, Some(b""), layouts())
        );
    }

    /// An input instance without data keys like one holding empty
    /// bytes: the tool receives empty bytes for both.
    #[test]
    fn input_without_data_keys_like_empty_data() {
        let schema = fixtures::fig1();
        let empty = digest(b"");
        assert_eq!(input_digest(None), empty);
        assert_eq!(
            key(&schema, None, vec![input_digest(None)]),
            key(&schema, None, vec![input_digest(Some(empty))])
        );
    }

    #[test]
    fn entry_round_trips_through_names() {
        let schema = fixtures::fig1();
        let inv = invocation(&schema, b"d");
        let extracted = schema.entity_id("ExtractedNetlist").expect("entity");
        let produced = vec![SharedOutput::share(ToolOutput {
            entity: extracted,
            data: b"netlist-bytes".to_vec(),
            name: "fast".into(),
        })];
        assert_eq!(produced[0].digest, *digest(b"netlist-bytes").as_bytes());
        let key = key(&schema, inv.tool_data.as_deref(), vec![digest(b"d")]);
        let entry = entry_from_outputs(key, &schema, &inv, &produced, 42);
        assert_eq!(entry.tool, "Extractor");
        assert!(Arc::ptr_eq(&entry.outputs[0].data, &produced[0].data));
        let back = outputs_from_entry(&schema, &entry, &[extracted]).expect("resolves");
        assert_eq!(back, produced);
        assert!(
            Arc::ptr_eq(&back[0].data, &entry.outputs[0].data),
            "a hit shares the entry's buffer"
        );
        // The cached entity satisfies its abstract supertype too.
        let netlist = schema.entity_id("Netlist").expect("entity");
        assert!(outputs_from_entry(&schema, &entry, &[netlist]).is_some());
        // A reshaped expectation degrades to a miss.
        let layout = schema.entity_id("Layout").expect("entity");
        assert!(outputs_from_entry(&schema, &entry, &[layout]).is_none());
        assert!(outputs_from_entry(&schema, &entry, &[extracted, layout]).is_none());
    }
}
