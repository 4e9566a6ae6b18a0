//! Persistence of the history database.
//!
//! The paper's design history lives in the Odyssey framework's database;
//! here it serializes to a declarative [`HistorySpec`] (entity *names*
//! instead of schema-relative ids) so a database survives schema
//! reloads. Loading replays the records through the normal checked
//! entry points, so a loaded database is always consistent.
//!
//! Footnote 5's sharing holds on disk too: a record whose physical data
//! an earlier instance already holds names that instance
//! ([`Payload::Shared`]) instead of carrying the bytes again, so a
//! document holds each distinct payload once.

use std::sync::Arc;

use hercules_digest::hex;
use hercules_schema::TaskSchema;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::clock::Timestamp;
use crate::db::{Data, HistoryDb};
use crate::derivation::Derivation;
use crate::error::HistoryError;
use crate::instance::{InstanceId, Metadata};

/// Serializable record of one instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceSpec {
    /// Entity type name.
    pub entity: String,
    /// User-id of the creator.
    pub user: String,
    /// Logical creation time (restored verbatim).
    pub created: Timestamp,
    /// Annotation name.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub name: String,
    /// Annotation comment.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub comment: String,
    /// Browser keywords.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub keywords: Vec<String>,
    /// Physical data (omitted for data-less instances).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub data: Option<Payload>,
    /// Tool instance index of the derivation, if derived by a tool.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tool: Option<u64>,
    /// Input instance indexes of the derivation; `None` for primary
    /// instances (an empty list still means "derived").
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub inputs: Option<Vec<u64>>,
}

/// Instance physical data in a document: the bytes themselves, or the
/// id of an earlier instance holding the same bytes.
///
/// In JSON, inline bytes are one lowercase-hex string, two characters
/// per byte; a shared payload is the holder's raw id as a JSON number
/// (`"data": 17` means "the bytes of instance 17"). The hex form is
/// what JSON documents (`HistorySpec`, a session document) and journal
/// frames written before raw payloads hold; a journal frame the store
/// writes now carries inline bytes raw, beside its JSON, and leaves an
/// empty string in their place. Reading also accepts the legacy inline
/// form, an array of byte values, so workspaces written before the hex
/// form still open. A reader that predates shared payloads rejects the
/// number instead of loading wrong bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// The bytes, written in full.
    Inline(Vec<u8>),
    /// The raw id of the earliest instance holding the same bytes
    /// ([`HistoryDb::shares_data_with`]).
    Shared(u64),
}

impl Serialize for Payload {
    fn serialize_value(&self) -> Value {
        match self {
            Payload::Inline(bytes) => Value::Str(hex::encode(bytes)),
            Payload::Shared(holder) => holder.serialize_value(),
        }
    }
}

impl Deserialize for Payload {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(text) => hex::decode(text).map(Payload::Inline).ok_or_else(|| {
                DeError::custom("payload is not an even number of lowercase hex digits")
            }),
            Value::Int(_) | Value::UInt(_) => u64::deserialize_value(value).map(Payload::Shared),
            _ => Vec::<u8>::deserialize_value(value).map(Payload::Inline),
        }
    }
}

/// The complete serializable form of a history database.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistorySpec {
    /// Instance records in creation (= id) order.
    pub instances: Vec<InstanceSpec>,
}

impl InstanceSpec {
    /// Captures one instance of a database (the `index`-th record, in
    /// creation order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn capture(db: &HistoryDb, index: usize) -> InstanceSpec {
        let i = db.instances().nth(index).expect("index in range");
        let m = i.meta();
        let data = match db.shares_data_with(i.id()).expect("index in range") {
            Some(holder) => Some(Payload::Shared(holder.raw())),
            None => i
                .data()
                .and_then(|blob| db.store().get(blob))
                .map(|bytes| Payload::Inline(bytes.to_vec())),
        };
        InstanceSpec {
            entity: db.schema().entity(i.entity()).name().to_owned(),
            user: m.user.clone(),
            created: m.created,
            name: m.name.clone(),
            comment: m.comment.clone(),
            keywords: m.keywords.clone(),
            data,
            tool: i.derivation().and_then(|d| d.tool).map(InstanceId::raw),
            inputs: i
                .derivation()
                .map(|d| d.inputs.iter().map(|x| x.raw()).collect()),
        }
    }

    /// Replays this record into `db` through the normal checked entry
    /// points, restoring its timestamp; returns the new instance id. A
    /// shared payload adds a reference to the blob its holder keeps,
    /// without copying or hashing the bytes.
    ///
    /// # Errors
    ///
    /// Returns schema errors for unknown entity names, the usual
    /// derivation checks for corrupt records, and
    /// [`HistoryError::UnknownInstance`] or [`HistoryError::UnknownBlob`]
    /// for a shared payload whose holder is not an instance below
    /// `db.len()` that holds data.
    pub fn replay(&self, db: &mut HistoryDb) -> Result<InstanceId, HistoryError> {
        let entity = db.schema().require(&self.entity)?;
        let data = match &self.data {
            None => Data::Bytes(&[]),
            Some(Payload::Inline(bytes)) => Data::Bytes(bytes),
            Some(Payload::Shared(holder)) => {
                let holder = db.instance(InstanceId::from_raw(*holder))?;
                Data::Blob(holder.data().ok_or(HistoryError::UnknownBlob)?)
            }
        };
        let meta = Metadata {
            user: self.user.clone(),
            created: Timestamp(0), // overwritten below via clock
            name: self.name.clone(),
            comment: self.comment.clone(),
            keywords: self.keywords.clone(),
        };
        let derivation = self.inputs.as_ref().map(|inputs| Derivation {
            tool: self.tool.map(InstanceId::from_raw),
            inputs: inputs.iter().copied().map(InstanceId::from_raw).collect(),
        });
        db.clock_mut().advance_to(self.created);
        db.record(entity, meta, data, derivation)
    }
}

impl HistorySpec {
    /// Captures a database.
    pub fn from_db(db: &HistoryDb) -> HistorySpec {
        HistorySpec {
            instances: (0..db.len())
                .map(|index| InstanceSpec::capture(db, index))
                .collect(),
        }
    }

    /// Replays the records into a fresh database over `schema`.
    ///
    /// # Errors
    ///
    /// Returns schema errors for unknown entity names and the usual
    /// derivation checks for corrupt records.
    pub fn load(&self, schema: Arc<TaskSchema>) -> Result<HistoryDb, HistoryError> {
        let mut db = HistoryDb::new(schema);
        for spec in &self.instances {
            spec.replay(&mut db)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::fixtures;

    fn sample() -> (Arc<TaskSchema>, HistoryDb) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let editor = db
            .record_primary(
                t("CircuitEditor"),
                Metadata::by("jbb").named("sced").keyword("editor"),
                b"ed",
            )
            .expect("ok");
        db.clock_mut().advance_to(Timestamp(50));
        db.record_derived(
            t("EditedNetlist"),
            Metadata::by("sutton").named("lpf").commented("low pass"),
            b"netlist-bytes",
            Derivation::by_tool(editor, []),
        )
        .expect("ok");
        (schema, db)
    }

    #[test]
    fn spec_round_trips_through_load() {
        let (schema, db) = sample();
        let spec = HistorySpec::from_db(&db);
        let loaded = spec.load(schema).expect("replay");
        assert_eq!(loaded.len(), db.len());
        for (a, b) in db.instances().zip(loaded.instances()) {
            assert_eq!(a.meta(), b.meta());
            assert_eq!(a.entity(), b.entity());
            assert_eq!(a.derivation(), b.derivation());
        }
        assert_eq!(
            loaded.data_of(InstanceId::from_raw(1)).expect("ok"),
            Some(&b"netlist-bytes"[..])
        );
    }

    #[test]
    fn json_round_trips() {
        let (schema, db) = sample();
        let spec = HistorySpec::from_db(&db);
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: HistorySpec = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, spec);
        back.load(schema).expect("replay");
    }

    #[test]
    fn timestamps_survive_persistence() {
        let (schema, db) = sample();
        let spec = HistorySpec::from_db(&db);
        let loaded = spec.load(schema).expect("replay");
        assert_eq!(
            loaded.created_at(InstanceId::from_raw(1)).expect("ok"),
            Timestamp(50)
        );
    }

    #[test]
    fn payloads_serialize_as_hex_and_legacy_arrays_still_load() {
        let record =
            |data: &str| format!(r#"{{"entity":"Netlist","user":"u","created":3,"data":{data}}}"#);
        let hex: InstanceSpec = serde_json::from_str(&record(r#""6869""#)).expect("hex form");
        let legacy: InstanceSpec =
            serde_json::from_str(&record("[104,105]")).expect("legacy array form");
        assert_eq!(hex, legacy);
        assert_eq!(hex.data, Some(Payload::Inline(b"hi".to_vec())));
        assert_eq!(
            serde_json::to_string(&legacy).expect("serialize"),
            record(r#""6869""#)
        );
        let shared: InstanceSpec = serde_json::from_str(&record("17")).expect("shared form");
        assert_eq!(shared.data, Some(Payload::Shared(17)));
        assert_eq!(
            serde_json::to_string(&shared).expect("serialize"),
            record("17")
        );
        // A reader that predates shared payloads decodes `data` as the
        // byte array: it rejects the number instead of loading wrong
        // bytes.
        assert!(serde_json::from_str::<Vec<u8>>("17").is_err());
        for bad in [
            r#""686""#,
            r#""zz""#,
            r#""6G""#,
            r#""6869 ""#,
            "-1",
            "1.5",
            "true",
            "{}",
        ] {
            assert!(
                serde_json::from_str::<InstanceSpec>(&record(bad)).is_err(),
                "{bad} decoded"
            );
        }
    }

    /// A shared payload must name an earlier instance: a reference to
    /// the record itself, a later one or a missing one is rejected.
    #[test]
    fn shared_payloads_must_name_an_earlier_instance() {
        let (schema, db) = sample();
        for holder in [1, 2, 99] {
            let mut spec = HistorySpec::from_db(&db);
            spec.instances[1].data = Some(Payload::Shared(holder));
            assert_eq!(
                spec.load(schema.clone()).map(|db| db.len()),
                Err(HistoryError::UnknownInstance(InstanceId::from_raw(holder))),
                "holder {holder}"
            );
        }
        let mut spec = HistorySpec::from_db(&db);
        spec.instances[1].data = Some(Payload::Shared(0));
        let loaded = spec.load(schema).expect("an earlier holder replays");
        assert_eq!(
            loaded.data_of(InstanceId::from_raw(1)).expect("ok"),
            Some(&b"ed"[..])
        );
    }

    #[test]
    fn corrupt_record_is_rejected() {
        let (schema, db) = sample();
        let mut spec = HistorySpec::from_db(&db);
        spec.instances[1].entity = "Ghost".into();
        assert!(spec.load(schema).is_err());
    }
}
