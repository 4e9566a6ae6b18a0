//! Bridges the executor to the content-addressed result cache.
//!
//! The cache key is a canonical content hash over everything the tool
//! run can observe: the tool's entity *name* (names are stable across
//! schema revisions and sessions; numeric ids are not), its instance
//! payload, the declared-dependency fingerprint of every output (the
//! same under-key machinery HL0504 audits — if the schema's declared
//! dependencies change, the key changes), and every input's entity
//! name and payload bytes. Two invocations with the same key are
//! byte-for-byte the same work, no matter which session, workspace,
//! or machine prepared them.

use hercules_cache::{CacheEntry, CacheKey, CachedOutput, KeyBuilder};
use hercules_schema::TaskSchema;

use crate::encapsulation::{Invocation, ToolOutput};
use hercules_schema::EntityTypeId;

/// Domain tag of the key derivation. Bumping the version invalidates
/// every cached result at once — the escape hatch for semantic changes
/// to the executor or the entry format.
const KEY_DOMAIN: &str = "hercules.exec.v1";

/// Derives the content key of one prepared invocation.
pub fn invocation_key(schema: &TaskSchema, invocation: &Invocation) -> CacheKey {
    let mut b = KeyBuilder::new(KEY_DOMAIN);
    b.field_str("tool", schema.entity(invocation.tool_entity).name());
    match &invocation.tool_data {
        Some(data) => b.field("tool_data", data),
        // A missing tool payload is distinct from an empty one.
        None => b.field_u64("tool_data_absent", 1),
    }
    b.field_u64("outputs", invocation.outputs.len() as u64);
    for &out in &invocation.outputs {
        b.field_str("output", schema.entity(out).name());
        // The declared-dependency fingerprint: what the schema says
        // this product may depend on (functional arc first, then data
        // arcs, declaration order).
        for dep in schema.deps_of(out) {
            b.field_str("declared_dep", schema.entity(dep.source()).name());
        }
    }
    b.field_u64("inputs", invocation.inputs.len() as u64);
    for input in &invocation.inputs {
        b.field_str("input", schema.entity(input.entity).name());
        b.field_u64("instances", input.instances.len() as u64);
        for payload in &input.instances {
            b.field("payload", payload);
        }
    }
    b.finish()
}

/// Packages a successful run's outputs as a cache entry. Entity ids
/// are translated to names so the entry stays meaningful to any
/// session speaking the same schema.
pub fn entry_from_outputs(
    key: CacheKey,
    schema: &TaskSchema,
    invocation: &Invocation,
    outputs: &[ToolOutput],
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
                data: o.data.clone(),
            })
            .collect(),
    }
}

/// Reconstitutes tool outputs from a cache entry, re-validating the
/// entry against the consuming subtask: the output count must match
/// and every entity name must resolve to a subtype of the expected
/// product. Any mismatch (renamed entity, reshaped schema) degrades to
/// a miss — the cache never forces a stale shape onto a run.
pub fn outputs_from_entry(
    schema: &TaskSchema,
    entry: &CacheEntry,
    expected: &[EntityTypeId],
) -> Option<Vec<ToolOutput>> {
    if entry.outputs.len() != expected.len() {
        return None;
    }
    entry
        .outputs
        .iter()
        .zip(expected)
        .map(|(out, &want)| {
            let entity = schema.entity_id(&out.entity)?;
            schema.is_subtype_of(entity, want).then(|| ToolOutput {
                entity,
                data: out.data.clone(),
                name: out.name.clone(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::ToolInput;
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

    #[test]
    fn key_is_stable_and_input_sensitive() {
        let schema = fixtures::fig1();
        let a = invocation_key(&schema, &invocation(&schema, b"design-a"));
        let again = invocation_key(&schema, &invocation(&schema, b"design-a"));
        let other = invocation_key(&schema, &invocation(&schema, b"design-b"));
        assert_eq!(a, again, "same bytes, same key");
        assert_ne!(a, other, "different input payload, different key");
    }

    /// Keys written to disk caches by earlier builds must keep hitting:
    /// this digest was derived by the portable SHA-256 alone, before the
    /// hardware kernels existed. The 1000-byte payload spans many blocks.
    #[test]
    fn key_matches_the_pinned_golden_digest() {
        let schema = fixtures::fig1();
        let mut inv = invocation(
            &schema,
            &(0..1000u32)
                .map(|i| (i * 31 % 251) as u8)
                .collect::<Vec<_>>(),
        );
        inv.inputs[0].instances.push(b"design-a".to_vec());
        assert_eq!(
            invocation_key(&schema, &inv).to_hex(),
            "8f51dcc389f449069393666277889207077f8749a09cb183295e11f3f2b4846e"
        );
    }

    #[test]
    fn key_distinguishes_tool_data_absent_from_empty() {
        let schema = fixtures::fig1();
        let mut absent = invocation(&schema, b"d");
        absent.tool_data = None;
        let mut empty = invocation(&schema, b"d");
        empty.tool_data = Some(Vec::new());
        assert_ne!(
            invocation_key(&schema, &absent),
            invocation_key(&schema, &empty)
        );
    }

    #[test]
    fn entry_round_trips_through_names() {
        let schema = fixtures::fig1();
        let inv = invocation(&schema, b"d");
        let extracted = schema.entity_id("ExtractedNetlist").expect("entity");
        let produced = vec![ToolOutput {
            entity: extracted,
            data: b"netlist-bytes".to_vec(),
            name: "fast".into(),
        }];
        let key = invocation_key(&schema, &inv);
        let entry = entry_from_outputs(key, &schema, &inv, &produced, 42);
        assert_eq!(entry.tool, "Extractor");
        let back = outputs_from_entry(&schema, &entry, &[extracted]).expect("resolves");
        assert_eq!(back, produced);
        // The cached entity satisfies its abstract supertype too.
        let netlist = schema.entity_id("Netlist").expect("entity");
        assert!(outputs_from_entry(&schema, &entry, &[netlist]).is_some());
        // A reshaped expectation degrades to a miss.
        let layout = schema.entity_id("Layout").expect("entity");
        assert!(outputs_from_entry(&schema, &entry, &[layout]).is_none());
        assert!(outputs_from_entry(&schema, &entry, &[extracted, layout]).is_none());
    }
}
