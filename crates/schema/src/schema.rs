//! The task schema proper: a validated graph of entity types and
//! dependencies, with the lookup queries the rest of the framework needs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::dependency::Dependency;
use crate::entity::{EntityKind, EntityType, EntityTypeId};
use crate::error::SchemaError;
use crate::spec::SchemaSpec;

/// A validated task schema (§3.1).
///
/// The schema "specifies the dependencies between design entities (both
/// tools and data)" and serves two purposes: it states the construction
/// rules by which tasks can be built, and it is the data schema for the
/// design-history database.
///
/// A `TaskSchema` is immutable once built; construct one with
/// [`SchemaBuilder`](crate::SchemaBuilder).
///
/// # Examples
///
/// ```
/// use hercules_schema::{EntityKind, SchemaBuilder};
///
/// # fn main() -> Result<(), hercules_schema::SchemaError> {
/// let mut b = SchemaBuilder::new();
/// let editor = b.tool("NetlistEditor");
/// let netlist = b.data("Netlist");
/// b.functional(netlist, editor);
/// let schema = b.build()?;
/// assert_eq!(schema.len(), 2);
/// assert!(schema.functional_dep(netlist).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "SchemaSpec", into = "SchemaSpec")]
pub struct TaskSchema {
    pub(crate) entities: Vec<EntityType>,
    pub(crate) deps: Vec<Dependency>,
    // Derived indexes, rebuilt on deserialization.
    pub(crate) by_name: HashMap<String, EntityTypeId>,
    /// For each entity: index into `deps` of its functional dependency.
    pub(crate) functional: Vec<Option<usize>>,
    /// For each entity: indexes into `deps` of its data dependencies, in
    /// declaration order.
    pub(crate) data: Vec<Vec<usize>>,
    /// For each entity: indexes into `deps` where it is the *source*.
    pub(crate) dependents: Vec<Vec<usize>>,
    /// For each entity: ids of its direct subtypes.
    pub(crate) subtypes: Vec<Vec<EntityTypeId>>,
}

impl TaskSchema {
    /// Returns the number of declared entity types.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Returns `true` if the schema declares no entities.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Returns the number of dependency arcs.
    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    /// Returns the entity type with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this schema; ids are only valid
    /// for the schema that created them. Use [`TaskSchema::get`] for a
    /// fallible lookup.
    pub fn entity(&self, id: EntityTypeId) -> &EntityType {
        &self.entities[id.index()]
    }

    /// Returns the entity type with the given id, or `None` if the id is
    /// out of range.
    pub fn get(&self, id: EntityTypeId) -> Option<&EntityType> {
        self.entities.get(id.index())
    }

    /// Looks up an entity type by its unique name.
    pub fn entity_id(&self, name: &str) -> Option<EntityTypeId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an entity type by name, producing a schema error for
    /// unknown names (convenient inside `?` chains).
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::UnknownEntity`] if no entity has this name.
    pub fn require(&self, name: &str) -> Result<EntityTypeId, SchemaError> {
        self.entity_id(name)
            .ok_or_else(|| SchemaError::UnknownEntity(name.to_owned()))
    }

    /// Iterates over all entity types in declaration order.
    pub fn entities(&self) -> impl Iterator<Item = &EntityType> + '_ {
        self.entities.iter()
    }

    /// Iterates over all entity type ids in declaration order.
    pub fn entity_ids(&self) -> impl Iterator<Item = EntityTypeId> + '_ {
        (0..self.entities.len() as u32).map(EntityTypeId)
    }

    /// Iterates over all dependency arcs.
    pub fn deps(&self) -> impl Iterator<Item = &Dependency> + '_ {
        self.deps.iter()
    }

    /// Returns the functional dependency of `id`, i.e. the arc naming the
    /// tool that constructs it, if it has one.
    pub fn functional_dep(&self, id: EntityTypeId) -> Option<&Dependency> {
        self.functional[id.index()].map(|i| &self.deps[i])
    }

    /// Returns the tool entity that constructs `id`, if any.
    pub fn constructing_tool(&self, id: EntityTypeId) -> Option<EntityTypeId> {
        self.functional_dep(id).map(Dependency::source)
    }

    /// Returns the data dependencies of `id` in declaration order.
    pub fn data_deps(&self, id: EntityTypeId) -> impl Iterator<Item = &Dependency> + '_ {
        self.data[id.index()].iter().map(move |&i| &self.deps[i])
    }

    /// Returns all dependencies (functional first, then data) of `id`.
    pub fn deps_of(&self, id: EntityTypeId) -> Vec<&Dependency> {
        let mut out = Vec::new();
        if let Some(f) = self.functional_dep(id) {
            out.push(f);
        }
        out.extend(self.data_deps(id));
        out
    }

    /// Returns the arcs in which `id` is the *source*: the entities that
    /// depend on `id`. This drives downward expansion of a flow ("what can
    /// I make from this?") and forward chaining over the schema.
    pub fn dependents_of(&self, id: EntityTypeId) -> impl Iterator<Item = &Dependency> + '_ {
        self.dependents[id.index()]
            .iter()
            .map(move |&i| &self.deps[i])
    }

    /// Returns the direct subtypes of `id` (e.g. `ExtractedNetlist` and
    /// `EditedNetlist` under `Netlist` in Fig. 1).
    pub fn subtypes(&self, id: EntityTypeId) -> &[EntityTypeId] {
        &self.subtypes[id.index()]
    }

    /// Returns every transitive subtype of `id`, in breadth-first order,
    /// excluding `id` itself.
    pub fn all_subtypes(&self, id: EntityTypeId) -> Vec<EntityTypeId> {
        let mut out = Vec::new();
        let mut queue: Vec<EntityTypeId> = self.subtypes(id).to_vec();
        while let Some(next) = queue.first().copied() {
            queue.remove(0);
            out.push(next);
            queue.extend_from_slice(self.subtypes(next));
        }
        out
    }

    /// Returns `true` if `sub` equals `sup` or is a transitive subtype of
    /// `sup`. Instance selection and flow validation use this to accept a
    /// subtype instance wherever the supertype is expected.
    pub fn is_subtype_of(&self, sub: EntityTypeId, sup: EntityTypeId) -> bool {
        let mut cur = Some(sub);
        while let Some(id) = cur {
            if id == sup {
                return true;
            }
            cur = self.entity(id).supertype();
        }
        false
    }

    /// Returns the chain of supertypes of `id`, nearest first, excluding
    /// `id` itself.
    pub fn supertype_chain(&self, id: EntityTypeId) -> Vec<EntityTypeId> {
        let mut out = Vec::new();
        let mut cur = self.entity(id).supertype();
        while let Some(s) = cur {
            out.push(s);
            cur = self.entity(s).supertype();
        }
        out
    }

    /// Returns `true` if `id` is *abstract*: it has subtypes that carry
    /// the construction methods, so a flow node of this type must be
    /// specialized before it can be expanded (§3.2, Fig. 4b).
    pub fn is_abstract(&self, id: EntityTypeId) -> bool {
        !self.subtypes(id).is_empty() && self.functional_dep(id).is_none()
    }

    /// Returns `true` if `id` is a *primary* entity: no functional and no
    /// data dependencies. Primary entities are the leaves of every flow;
    /// their instances enter the system from outside (imported libraries,
    /// hand-written stimuli, tool binaries).
    pub fn is_primary(&self, id: EntityTypeId) -> bool {
        self.functional_dep(id).is_none()
            && self.data[id.index()].is_empty()
            && self.subtypes(id).is_empty()
    }

    /// Returns `true` if `id` is a composite (grouping) entity: data
    /// dependencies only, no functional dependency (§3.1).
    pub fn is_composite(&self, id: EntityTypeId) -> bool {
        self.entity(id).is_composite()
    }

    /// Returns the entities a composite groups together, or an empty
    /// vector if `id` is not composite.
    pub fn components_of(&self, id: EntityTypeId) -> Vec<EntityTypeId> {
        if !self.is_composite(id) {
            return Vec::new();
        }
        self.data_deps(id).map(Dependency::source).collect()
    }

    /// Returns `true` if `id` can be *constructed* by a task: it has a
    /// functional dependency, or it is composite (implicit composition
    /// function), or it is abstract with at least one constructible
    /// subtype.
    pub fn is_constructible(&self, id: EntityTypeId) -> bool {
        if self.functional_dep(id).is_some() || self.is_composite(id) {
            return true;
        }
        self.subtypes(id).iter().any(|&s| self.is_constructible(s))
    }

    /// Returns all tool entity ids (the tool catalog of §4.1).
    pub fn tools(&self) -> Vec<EntityTypeId> {
        self.entity_ids()
            .filter(|&id| self.entity(id).kind() == EntityKind::Tool)
            .collect()
    }

    /// Returns all data entity ids (the entity catalog of §4.1 minus
    /// tools).
    pub fn data_entities(&self) -> Vec<EntityTypeId> {
        self.entity_ids()
            .filter(|&id| self.entity(id).kind() == EntityKind::Data)
            .collect()
    }

    /// Returns a topological order of the entity types over *required*
    /// dependencies (sources before targets). Optional arcs are ignored,
    /// exactly because they are what makes the full graph cyclic.
    ///
    /// The order exists for every validated schema; validation rejects
    /// required-dependency cycles.
    pub fn topo_order(&self) -> Vec<EntityTypeId> {
        let n = self.entities.len();
        let mut indegree = vec![0usize; n];
        for dep in &self.deps {
            if dep.is_required() {
                indegree[dep.target().index()] += 1;
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            let id = EntityTypeId(i as u32);
            order.push(id);
            for dep in self.dependents_of(id) {
                if dep.is_required() {
                    let t = dep.target().index();
                    indegree[t] -= 1;
                    if indegree[t] == 0 {
                        ready.push(t);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), n, "validated schema must be acyclic");
        order
    }

    /// Converts this schema into its declarative, serializable form.
    pub fn to_spec(&self) -> SchemaSpec {
        SchemaSpec::from(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::SchemaBuilder;
    use crate::entity::EntityKind;

    #[test]
    fn lookups_round_trip_names_and_ids() {
        let mut b = SchemaBuilder::new();
        let sim = b.tool("Simulator");
        let net = b.data("Netlist");
        let perf = b.data("Performance");
        b.functional(perf, sim);
        b.data_dep(perf, net);
        let s = b.build().expect("valid schema");

        assert_eq!(s.len(), 3);
        assert_eq!(s.dep_count(), 2);
        assert_eq!(s.entity_id("Simulator"), Some(sim));
        assert_eq!(s.entity(net).name(), "Netlist");
        assert!(s.get(crate::EntityTypeId::from_index(99)).is_none());
        assert!(s.require("Nope").is_err());
        assert_eq!(s.tools(), vec![sim]);
        assert_eq!(s.data_entities(), vec![net, perf]);
    }

    #[test]
    fn functional_and_data_deps_are_separated() {
        let mut b = SchemaBuilder::new();
        let sim = b.tool("Simulator");
        let net = b.data("Netlist");
        let stim = b.data("Stimuli");
        let perf = b.data("Performance");
        b.functional(perf, sim);
        b.data_dep(perf, net);
        b.data_dep(perf, stim);
        let s = b.build().expect("valid schema");

        assert_eq!(s.constructing_tool(perf), Some(sim));
        let data: Vec<_> = s.data_deps(perf).map(|d| d.source()).collect();
        assert_eq!(data, vec![net, stim]);
        assert_eq!(s.deps_of(perf).len(), 3);
        assert!(s.functional_dep(net).is_none());
        assert!(s.is_primary(net));
        assert!(!s.is_primary(perf));
    }

    #[test]
    fn dependents_drive_downward_expansion() {
        let mut b = SchemaBuilder::new();
        let sim = b.tool("Simulator");
        let net = b.data("Netlist");
        let perf = b.data("Performance");
        let verif = b.tool("Verifier");
        let rep = b.data("Verification");
        b.functional(perf, sim);
        b.data_dep(perf, net);
        b.functional(rep, verif);
        b.data_dep(rep, net);
        let s = b.build().expect("valid schema");

        let mut users: Vec<_> = s.dependents_of(net).map(|d| d.target()).collect();
        users.sort();
        assert_eq!(users, vec![perf, rep]);
    }

    #[test]
    fn subtype_queries() {
        let mut b = SchemaBuilder::new();
        let net = b.data("Netlist");
        let ext = b.subtype("ExtractedNetlist", net);
        let edi = b.subtype("EditedNetlist", net);
        let deep = b.subtype("FlatExtractedNetlist", ext);
        let tool = b.tool("Extractor");
        b.functional(ext, tool);
        let s = b.build().expect("valid schema");

        assert_eq!(s.subtypes(net), &[ext, edi]);
        assert_eq!(s.all_subtypes(net), vec![ext, edi, deep]);
        assert!(s.is_subtype_of(deep, net));
        assert!(s.is_subtype_of(net, net));
        assert!(!s.is_subtype_of(net, ext));
        assert_eq!(s.supertype_chain(deep), vec![ext, net]);
        assert!(s.is_abstract(net));
        assert!(!s.is_abstract(ext));
        assert_eq!(s.entity(ext).kind(), EntityKind::Data);
        assert!(s.is_constructible(net), "via ExtractedNetlist");
    }

    #[test]
    fn topo_order_respects_required_deps() {
        let mut b = SchemaBuilder::new();
        let ed = b.tool("Editor");
        let net = b.data("Netlist");
        let sim = b.tool("Simulator");
        let perf = b.data("Performance");
        b.functional(net, ed);
        b.functional(perf, sim);
        b.data_dep(perf, net);
        let s = b.build().expect("valid schema");
        let order = s.topo_order();
        let pos = |id| order.iter().position(|&x| x == id).expect("present");
        assert!(pos(ed) < pos(net));
        assert!(pos(net) < pos(perf));
        assert!(pos(sim) < pos(perf));
    }

    #[test]
    fn composite_components() {
        let mut b = SchemaBuilder::new();
        let dm = b.data("DeviceModels");
        let net = b.data("Netlist");
        let cct = b.composite("Circuit", &[dm, net]);
        let s = b.build().expect("valid schema");
        assert!(s.is_composite(cct));
        assert_eq!(s.components_of(cct), vec![dm, net]);
        assert!(s.components_of(net).is_empty());
        assert!(s.is_constructible(cct), "implicit composition function");
    }
}
