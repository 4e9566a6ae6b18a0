//! The design-history database.
//!
//! The task schema "specifies the data schema for a database that stores
//! the design derivation history" (§3.1). Every design object created by
//! executing flows is recorded here with its meta-data and immediate
//! derivation; queries into this database replace a separate
//! version-management subsystem (§1).

use std::collections::HashMap;
use std::sync::Arc;

use hercules_schema::{EntityKind, EntityTypeId, TaskSchema};

use crate::clock::{LogicalClock, Timestamp};
use crate::derivation::Derivation;
use crate::error::HistoryError;
use crate::instance::{EntityInstance, InstanceId, Metadata};
use crate::store::{BlobHash, BlobStore};

/// The physical data of a record being appended.
#[derive(Debug, Clone)]
pub(crate) enum Data<'a> {
    /// These bytes, shared with any identical blob already stored.
    Bytes(&'a [u8]),
    /// Owned bytes and their SHA-256, computed where they were
    /// produced: stored like `Bytes`, moved in and not hashed again.
    Hashed(Vec<u8>, [u8; 32]),
    /// One more reference to a blob already in the store (a persisted
    /// record that names the instance holding its bytes).
    Blob(BlobHash),
}

/// The design-history database: instances, meta-data, derivations, and
/// the shared physical store.
///
/// # Examples
///
/// ```
/// use hercules_history::{HistoryDb, Metadata, Derivation};
/// use hercules_schema::fixtures;
///
/// # fn main() -> Result<(), hercules_history::HistoryError> {
/// let schema = std::sync::Arc::new(fixtures::fig1());
/// let mut db = HistoryDb::new(schema.clone());
///
/// let editor = db.record_primary(
///     schema.require("CircuitEditor")?,
///     Metadata::by("jbb").named("sced v2.1"),
///     b"/usr/cad/bin/sced",
/// )?;
/// let netlist = db.record_derived(
///     schema.require("EditedNetlist")?,
///     Metadata::by("jbb").named("Low pass filter"),
///     b".subckt lpf in out",
///     Derivation::by_tool(editor, []),
/// )?;
/// assert_eq!(db.instance(netlist)?.meta().user, "jbb");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HistoryDb {
    schema: Arc<TaskSchema>,
    instances: Vec<EntityInstance>,
    by_entity: HashMap<EntityTypeId, Vec<InstanceId>>,
    /// Reverse index: instance → instances whose derivation references
    /// it, once each and in id order (drives forward chaining).
    dependents: Vec<Vec<InstanceId>>,
    /// Version predecessor of each instance (see
    /// [`HistoryDb::version_parent`]).
    version_parent: Vec<Option<InstanceId>>,
    /// Newest member of each instance's version subtree (see
    /// [`HistoryDb::newest_version_of`]).
    newest: Vec<InstanceId>,
    /// The first instance recorded with each blob (see
    /// [`HistoryDb::shares_data_with`]).
    first_holder: HashMap<BlobHash, InstanceId>,
    store: BlobStore,
    clock: LogicalClock,
}

impl HistoryDb {
    /// Creates an empty database over `schema`.
    pub fn new(schema: Arc<TaskSchema>) -> HistoryDb {
        HistoryDb {
            schema,
            instances: Vec::new(),
            by_entity: HashMap::new(),
            dependents: Vec::new(),
            version_parent: Vec::new(),
            newest: Vec::new(),
            first_holder: HashMap::new(),
            store: BlobStore::new(),
            clock: LogicalClock::new(),
        }
    }

    /// Returns the schema the database is typed against.
    pub fn schema(&self) -> &Arc<TaskSchema> {
        &self.schema
    }

    /// Returns the number of recorded instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Returns the blob store holding the physical data.
    pub fn store(&self) -> &BlobStore {
        &self.store
    }

    /// Returns the logical clock (e.g. to advance it between "days").
    pub fn clock_mut(&mut self) -> &mut LogicalClock {
        &mut self.clock
    }

    /// Records a *primary* instance: a design object imported from
    /// outside (a tool binary, a device-model library, hand-written
    /// stimuli). It has meta-data but no derivation.
    ///
    /// # Errors
    ///
    /// Returns a schema error if `entity` is not declared.
    pub fn record_primary(
        &mut self,
        entity: EntityTypeId,
        meta: Metadata,
        data: &[u8],
    ) -> Result<InstanceId, HistoryError> {
        self.record(entity, meta, Data::Bytes(data), None)
    }

    /// Records a *derived* instance with its immediate derivation.
    ///
    /// The derivation is type-checked against the schema:
    ///
    /// * the tool instance (if any) must be an instance of the entity's
    ///   constructing tool (or a subtype);
    /// * every input must exist.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::WrongTool`],
    /// [`HistoryError::UnknownInstance`], or a schema error.
    pub fn record_derived(
        &mut self,
        entity: EntityTypeId,
        meta: Metadata,
        data: &[u8],
        derivation: Derivation,
    ) -> Result<InstanceId, HistoryError> {
        self.record(entity, meta, Data::Bytes(data), Some(derivation))
    }

    /// Records a derived instance like [`HistoryDb::record_derived`],
    /// given the payload by value with its SHA-256 `digest`, computed
    /// where the payload was produced: the blob store moves the bytes
    /// in and hashes nothing (see [`BlobStore::put_hashed`]).
    ///
    /// # Errors
    ///
    /// As [`HistoryDb::record_derived`].
    pub fn record_derived_hashed(
        &mut self,
        entity: EntityTypeId,
        meta: Metadata,
        data: Vec<u8>,
        digest: [u8; 32],
        derivation: Derivation,
    ) -> Result<InstanceId, HistoryError> {
        self.record(entity, meta, Data::Hashed(data, digest), Some(derivation))
    }

    /// Appends one record after the checks of
    /// [`HistoryDb::record_derived`]; a [`Data::Blob`] must name a blob
    /// the store holds ([`HistoryError::UnknownBlob`] otherwise). A
    /// failed record changes nothing.
    pub(crate) fn record(
        &mut self,
        entity: EntityTypeId,
        mut meta: Metadata,
        data: Data<'_>,
        derivation: Option<Derivation>,
    ) -> Result<InstanceId, HistoryError> {
        if self.schema.get(entity).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(entity).into());
        }
        if let Some(d) = &derivation {
            for referenced in d.referenced() {
                if referenced.index() >= self.instances.len() {
                    return Err(HistoryError::UnknownInstance(referenced));
                }
            }
            if let Some(tool) = d.tool {
                let tool_entity = self.instances[tool.index()].entity();
                let expected = self.schema.constructing_tool(entity);
                let tool_ok = match expected {
                    Some(expected) => self.schema.is_subtype_of(tool_entity, expected),
                    // Entities without a functional dependency (composites)
                    // must use tool-less derivations; any tool is wrong.
                    None => false,
                };
                if !tool_ok {
                    return Err(HistoryError::WrongTool {
                        entity: self.schema.entity(entity).name().to_owned(),
                        tool: self.schema.entity(tool_entity).name().to_owned(),
                    });
                }
            }
        }
        let blob = match data {
            Data::Bytes(bytes) => self.store.put(bytes),
            Data::Hashed(bytes, digest) => self.store.put_hashed(bytes, digest),
            Data::Blob(blob) => {
                if !self.store.share(blob) {
                    return Err(HistoryError::UnknownBlob);
                }
                blob
            }
        };
        let id = InstanceId(self.instances.len() as u64);
        self.first_holder.entry(blob).or_insert(id);
        meta.created = self.clock.now();
        let mut version_parent = None;
        if let Some(d) = &derivation {
            for referenced in d.referenced() {
                // Ids ascend, so a repeat reference is the last entry.
                let deps = &mut self.dependents[referenced.index()];
                if deps.last() != Some(&id) {
                    deps.push(id);
                }
            }
            let family = self.family_root(entity);
            let same_family =
                |i: &InstanceId| self.family_root(self.instances[i.index()].entity()) == family;
            version_parent = d.inputs.iter().copied().find(same_family);
        }
        self.instances.push(EntityInstance {
            id,
            entity,
            meta,
            data: Some(blob),
            derivation,
        });
        self.dependents.push(Vec::new());
        self.version_parent.push(version_parent);
        // The clock stamps every record later than the one before, so
        // the newest version in a subtree is its last-appended member:
        // `id` becomes the newest of each of its version ancestors.
        self.newest.push(id);
        let mut cur = version_parent;
        while let Some(x) = cur {
            self.newest[x.index()] = id;
            cur = self.version_parent[x.index()];
        }
        self.by_entity.entry(entity).or_default().push(id);
        Ok(id)
    }

    /// Returns the instance with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn instance(&self, id: InstanceId) -> Result<&EntityInstance, HistoryError> {
        self.instances
            .get(id.index())
            .ok_or(HistoryError::UnknownInstance(id))
    }

    /// Returns the physical data of an instance, if it has any.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn data_of(&self, id: InstanceId) -> Result<Option<&[u8]>, HistoryError> {
        let inst = self.instance(id)?;
        Ok(inst.data().and_then(|h| self.store.get(h)))
    }

    /// Returns the earliest instance recorded before `id` with the same
    /// physical data (footnote 5's sharing), or `None` when `id` is the
    /// first holder of its data. Persisted documents name this instance
    /// instead of writing the bytes again.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn shares_data_with(&self, id: InstanceId) -> Result<Option<InstanceId>, HistoryError> {
        let first = self
            .instance(id)?
            .data()
            .and_then(|blob| self.first_holder.get(&blob).copied());
        Ok(first.filter(|&first| first != id))
    }

    /// Iterates over all instances in creation order.
    pub fn instances(&self) -> impl Iterator<Item = &EntityInstance> + '_ {
        self.instances.iter()
    }

    /// Returns the instances of exactly the given entity type, in
    /// creation order.
    pub fn instances_of(&self, entity: EntityTypeId) -> Vec<InstanceId> {
        self.by_entity.get(&entity).cloned().unwrap_or_default()
    }

    /// Returns the instances of the given entity type *or any of its
    /// subtypes* — an abstract `Netlist` browser lists extracted, edited
    /// and optimized netlists alike.
    pub fn instances_of_family(&self, entity: EntityTypeId) -> Vec<InstanceId> {
        let mut ids = self.instances_of(entity);
        for sub in self.schema.all_subtypes(entity) {
            ids.extend(self.instances_of(sub));
        }
        ids.sort();
        ids
    }

    /// Returns the most recently created instance of the entity family,
    /// if any.
    pub fn latest_of_family(&self, entity: EntityTypeId) -> Option<InstanceId> {
        self.instances_of_family(entity)
            .into_iter()
            .max_by_key(|&id| self.instances[id.index()].meta().created)
    }

    /// Returns the instances whose derivations directly reference `id`
    /// (one step of forward chaining).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn direct_dependents(&self, id: InstanceId) -> Result<&[InstanceId], HistoryError> {
        self.instance(id)?;
        Ok(&self.dependents[id.index()])
    }

    /// Returns the version predecessor of `id`: the first input of its
    /// derivation that belongs to the same entity family (the paper's
    /// edit-task signature), if any.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn version_parent(&self, id: InstanceId) -> Result<Option<InstanceId>, HistoryError> {
        self.instance(id)?;
        Ok(self.version_parent[id.index()])
    }

    /// Returns the newest version in the version subtree rooted at `id`
    /// (i.e. `id` itself if nothing supersedes it).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn newest_version_of(&self, id: InstanceId) -> Result<InstanceId, HistoryError> {
        self.instance(id)?;
        Ok(self.newest[id.index()])
    }

    /// Updates an instance's annotation (name, comment, keywords). The
    /// user and timestamp are immutable provenance and cannot be edited.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn annotate(
        &mut self,
        id: InstanceId,
        name: Option<&str>,
        comment: Option<&str>,
        keywords: Option<&[&str]>,
    ) -> Result<(), HistoryError> {
        self.instance(id)?;
        let meta = &mut self.instances[id.index()].meta;
        if let Some(n) = name {
            meta.name = n.to_owned();
        }
        if let Some(c) = comment {
            meta.comment = c.to_owned();
        }
        if let Some(kws) = keywords {
            meta.keywords = kws.iter().map(|s| (*s).to_owned()).collect();
        }
        Ok(())
    }

    /// Returns the distinct users that have recorded instances, sorted.
    pub fn users(&self) -> Vec<String> {
        let mut users: Vec<String> = self
            .instances
            .iter()
            .map(|i| i.meta().user.clone())
            .collect();
        users.sort();
        users.dedup();
        users
    }

    /// Returns the timestamp of an instance.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn created_at(&self, id: InstanceId) -> Result<Timestamp, HistoryError> {
        Ok(self.instance(id)?.meta().created)
    }

    /// Checks that an instance's entity belongs to the family of
    /// `expected` (used when binding instances to flow nodes).
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::TypeMismatch`] when it does not.
    pub fn check_type(&self, id: InstanceId, expected: EntityTypeId) -> Result<(), HistoryError> {
        let found = self.instance(id)?.entity();
        if self.schema.is_subtype_of(found, expected) {
            Ok(())
        } else {
            Err(HistoryError::TypeMismatch {
                expected: self.schema.entity(expected).name().to_owned(),
                found: self.schema.entity(found).name().to_owned(),
            })
        }
    }

    /// Returns `true` if the instance is of a tool entity.
    pub fn is_tool_instance(&self, id: InstanceId) -> Result<bool, HistoryError> {
        Ok(self.schema.entity(self.instance(id)?.entity()).kind() == EntityKind::Tool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::fixtures;

    fn db() -> (Arc<TaskSchema>, HistoryDb) {
        let schema = Arc::new(fixtures::fig1());
        let db = HistoryDb::new(schema.clone());
        (schema, db)
    }

    #[test]
    fn record_primary_and_lookup() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        let id = db
            .record_primary(stim_ty, Metadata::by("jbb").named("step"), b"0 0\n1 5")
            .expect("ok");
        assert_eq!(db.len(), 1);
        let inst = db.instance(id).expect("present");
        assert!(inst.is_primary());
        assert_eq!(inst.entity(), stim_ty);
        assert_eq!(inst.meta().name, "step");
        assert_eq!(db.data_of(id).expect("present"), Some(&b"0 0\n1 5"[..]));
    }

    #[test]
    fn timestamps_increase_monotonically() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        let a = db
            .record_primary(stim_ty, Metadata::by("a"), b"1")
            .expect("ok");
        let b = db
            .record_primary(stim_ty, Metadata::by("b"), b"2")
            .expect("ok");
        assert!(db
            .created_at(b)
            .expect("ok")
            .is_after(db.created_at(a).expect("ok")));
    }

    #[test]
    fn derived_instance_checks_tool_type() {
        let (schema, mut db) = db();
        let editor_ty = schema.require("CircuitEditor").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let sim_ty = schema.require("Simulator").expect("known");

        let editor = db
            .record_primary(editor_ty, Metadata::by("jbb"), b"sced")
            .expect("ok");
        let sim = db
            .record_primary(sim_ty, Metadata::by("jbb"), b"hspice")
            .expect("ok");

        // Correct tool: accepted.
        let net = db
            .record_derived(
                edited_ty,
                Metadata::by("jbb"),
                b"netlist",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        assert!(!db.instance(net).expect("present").is_primary());

        // Wrong tool: a Simulator does not construct EditedNetlists.
        assert!(matches!(
            db.record_derived(
                edited_ty,
                Metadata::by("jbb"),
                b"netlist2",
                Derivation::by_tool(sim, []),
            )
            .unwrap_err(),
            HistoryError::WrongTool { .. }
        ));
    }

    #[test]
    fn derivation_with_unknown_input_is_rejected() {
        let (schema, mut db) = db();
        let edited_ty = schema.require("EditedNetlist").expect("known");
        assert!(matches!(
            db.record_derived(
                edited_ty,
                Metadata::by("jbb"),
                b"x",
                Derivation::by_tool(InstanceId::from_raw(42), []),
            )
            .unwrap_err(),
            HistoryError::UnknownInstance(_)
        ));
    }

    #[test]
    fn composite_uses_toolless_derivation() {
        let (schema, mut db) = db();
        let dm_ty = schema.require("DeviceModels").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let circuit_ty = schema.require("Circuit").expect("known");
        let editor_ty = schema.require("CircuitEditor").expect("known");

        let editor = db
            .record_primary(editor_ty, Metadata::by("u"), b"ed")
            .expect("ok");
        let dm = db
            .record_primary(dm_ty, Metadata::by("u"), b"models")
            .expect("ok");
        let net = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"net",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let cct = db
            .record_derived(
                circuit_ty,
                Metadata::by("u"),
                b"",
                Derivation::by_composition([dm, net]),
            )
            .expect("ok");
        assert!(db
            .instance(cct)
            .expect("present")
            .derivation()
            .expect("derived")
            .tool
            .is_none());

        // A tool on a composite is rejected.
        assert!(matches!(
            db.record_derived(
                circuit_ty,
                Metadata::by("u"),
                b"",
                Derivation::by_tool(editor, [dm, net]),
            )
            .unwrap_err(),
            HistoryError::WrongTool { .. }
        ));
    }

    #[test]
    fn family_lookup_includes_subtypes() {
        let (schema, mut db) = db();
        let netlist_ty = schema.require("Netlist").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let editor_ty = schema.require("CircuitEditor").expect("known");
        let editor = db
            .record_primary(editor_ty, Metadata::by("u"), b"ed")
            .expect("ok");
        let net = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"n1",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        assert!(db.instances_of(netlist_ty).is_empty());
        assert_eq!(db.instances_of_family(netlist_ty), vec![net]);
        assert_eq!(db.latest_of_family(netlist_ty), Some(net));
    }

    #[test]
    fn dependents_reverse_index() {
        let (schema, mut db) = db();
        let editor_ty = schema.require("CircuitEditor").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let editor = db
            .record_primary(editor_ty, Metadata::by("u"), b"ed")
            .expect("ok");
        let n1 = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"n1",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let n2 = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"n2",
                Derivation::by_tool(editor, [n1]),
            )
            .expect("ok");
        // A derivation that references `n2` twice lists its product once.
        let n3 = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"n3",
                Derivation::by_tool(editor, [n2, n2]),
            )
            .expect("ok");
        assert_eq!(db.direct_dependents(editor).expect("ok"), &[n1, n2, n3]);
        assert_eq!(db.direct_dependents(n1).expect("ok"), &[n2]);
        assert_eq!(db.direct_dependents(n2).expect("ok"), &[n3]);
        assert!(db.direct_dependents(n3).expect("ok").is_empty());
    }

    #[test]
    fn annotate_updates_only_annotation_fields() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        let id = db
            .record_primary(stim_ty, Metadata::by("jbb"), b"s")
            .expect("ok");
        db.annotate(id, Some("ramp"), Some("slow ramp"), Some(&["test"]))
            .expect("ok");
        let m = db.instance(id).expect("present").meta();
        assert_eq!(m.name, "ramp");
        assert_eq!(m.comment, "slow ramp");
        assert_eq!(m.keywords, vec!["test"]);
        assert_eq!(m.user, "jbb", "user is immutable provenance");
    }

    #[test]
    fn shared_payloads_share_blobs() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        db.record_primary(stim_ty, Metadata::by("a"), b"same bytes")
            .expect("ok");
        db.record_primary(stim_ty, Metadata::by("b"), b"same bytes")
            .expect("ok");
        assert_eq!(db.store().blob_count(), 1, "footnote 5 sharing");
        assert_eq!(db.store().logical_bytes(), 20);
        assert_eq!(db.store().stored_bytes(), 10);
    }

    /// A payload recorded with its digest lands under the blob key a
    /// plain record of the same bytes gets, without hashing them.
    #[test]
    fn a_hashed_record_shares_the_blob_of_a_plain_one() {
        let (schema, mut db) = db();
        let editor_ty = schema.require("CircuitEditor").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let editor = db
            .record_primary(editor_ty, Metadata::by("u"), b"ed")
            .expect("ok");
        let plain = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"netlist",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let hashed_before = db.store().hashed_bytes();
        let hashed = db
            .record_derived_hashed(
                edited_ty,
                Metadata::by("u"),
                b"netlist".to_vec(),
                hercules_digest::sha256(b"netlist"),
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let blob_of = |id| db.instance(id).expect("present").data();
        assert_eq!(blob_of(hashed), blob_of(plain));
        assert_eq!(db.shares_data_with(hashed).expect("ok"), Some(plain));
        assert_eq!(db.store().hashed_bytes(), hashed_before, "nothing hashed");
        assert_eq!(db.store().blob_count(), 2);
    }

    #[test]
    fn a_shared_blob_record_adds_a_reference_and_a_bad_one_changes_nothing() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        let first = db
            .record_primary(stim_ty, Metadata::by("u"), b"same bytes")
            .expect("ok");
        let blob = db.instance(first).expect("present").data().expect("data");
        let copy = db
            .record(stim_ty, Metadata::by("u"), Data::Blob(blob), None)
            .expect("ok");
        assert_eq!(db.data_of(copy).expect("ok"), Some(&b"same bytes"[..]));
        assert_eq!(db.shares_data_with(copy).expect("ok"), Some(first));
        assert_eq!(db.store().refcount(blob), 2);
        assert_eq!(db.store().logical_bytes(), 20);

        let before = (db.len(), db.store().clone(), db.clock_mut().peek());
        assert_eq!(
            db.record(
                stim_ty,
                Metadata::by("u"),
                Data::Blob(BlobHash::EMPTY),
                None
            ),
            Err(HistoryError::UnknownBlob)
        );
        assert_eq!(
            (db.len(), db.store().clone(), db.clock_mut().peek()),
            before
        );
    }

    #[test]
    fn check_type_accepts_subtypes() {
        let (schema, mut db) = db();
        let netlist_ty = schema.require("Netlist").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let editor_ty = schema.require("CircuitEditor").expect("known");
        let editor = db
            .record_primary(editor_ty, Metadata::by("u"), b"ed")
            .expect("ok");
        let net = db
            .record_derived(
                edited_ty,
                Metadata::by("u"),
                b"n",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        db.check_type(net, netlist_ty).expect("subtype ok");
        assert!(db.check_type(editor, netlist_ty).is_err());
        assert!(db.is_tool_instance(editor).expect("ok"));
        assert!(!db.is_tool_instance(net).expect("ok"));
    }

    #[test]
    fn users_are_deduplicated_and_sorted() {
        let (schema, mut db) = db();
        let stim_ty = schema.require("Stimuli").expect("known");
        for u in ["sutton", "jbb", "sutton", "director"] {
            db.record_primary(stim_ty, Metadata::by(u), b"s")
                .expect("ok");
        }
        assert_eq!(db.users(), vec!["director", "jbb", "sutton"]);
    }
}
