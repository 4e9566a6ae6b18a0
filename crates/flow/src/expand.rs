//! The flow-building operations: seed, expand (up and down),
//! specialize, unexpand.
//!
//! These implement §3.2 of the paper: "Expand operations can be used to
//! incorporate further primitive tasks into a flow … Flows can be
//! expanded in either direction and can be of any depth."

use hercules_schema::{Dependency, EntityTypeId};

use crate::error::FlowError;
use crate::graph::TaskGraph;
use crate::node::{FlowEdge, NodeId};

/// Options controlling one expand operation.
///
/// The defaults reproduce the paper's plain `Expand` menu entry: required
/// dependencies only, every input created as a fresh node.
#[derive(Debug, Clone, Default)]
pub struct Expansion {
    /// Optional (dashed) dependencies to include, named by their source
    /// entity. E.g. include `Netlist` when expanding an `EditedNetlist`
    /// to model editing an *existing* netlist rather than starting fresh.
    pub include_optional: Vec<EntityTypeId>,
    /// Explicit node reuse: satisfy the dependency on the given source
    /// entity with an existing node. This is how Fig. 5's "reuse of an
    /// entity in several subtasks" is built.
    pub reuse: Vec<(EntityTypeId, NodeId)>,
    /// If `true`, any dependency without an explicit `reuse` entry is
    /// satisfied by an existing node of a compatible entity type when one
    /// exists (and creating the edge keeps the graph acyclic).
    pub reuse_existing: bool,
}

impl Expansion {
    /// Creates the default expansion (required deps, all-new nodes).
    pub fn new() -> Expansion {
        Expansion::default()
    }

    /// Includes the optional dependency on `entity`.
    pub fn with_optional(mut self, entity: EntityTypeId) -> Expansion {
        self.include_optional.push(entity);
        self
    }

    /// Reuses `node` for the dependency on `entity`.
    pub fn reusing(mut self, entity: EntityTypeId, node: NodeId) -> Expansion {
        self.reuse.push((entity, node));
        self
    }

    /// Enables opportunistic reuse of compatible existing nodes.
    pub fn reuse_existing(mut self) -> Expansion {
        self.reuse_existing = true;
        self
    }
}

impl TaskGraph {
    /// Starts (or extends) a flow with a single unconnected node of the
    /// given entity.
    ///
    /// This is the common entry point of all four design approaches
    /// (§3.4): the goal entity, a tool entity, a data entity — "an icon
    /// representing this entity then appears on the screen".
    ///
    /// # Errors
    ///
    /// Returns a schema error if `entity` is not declared in this flow's
    /// schema.
    pub fn seed(&mut self, entity: EntityTypeId) -> Result<NodeId, FlowError> {
        self.add_node_raw(entity)
    }

    /// Expands `target` with default options: adds the task that
    /// constructs it (tool node plus one fresh node per required data
    /// dependency).
    ///
    /// Returns the newly created node ids (tool first, then data inputs
    /// in schema order).
    ///
    /// # Errors
    ///
    /// * [`FlowError::AlreadyExpanded`] if the node has producer edges;
    /// * [`FlowError::ExpandNeedsSpecialization`] if its entity is
    ///   abstract (Fig. 4b: specialize `Netlist` first);
    /// * [`FlowError::NothingToExpand`] if its entity is primary.
    pub fn expand(&mut self, target: NodeId) -> Result<Vec<NodeId>, FlowError> {
        self.expand_with(target, &Expansion::default())
    }

    /// Expands `target` with explicit [`Expansion`] options.
    ///
    /// # Errors
    ///
    /// As [`TaskGraph::expand`], plus [`FlowError::ReuseTypeMismatch`]
    /// when a reused node's entity does not satisfy the dependency it was
    /// offered for.
    pub fn expand_with(
        &mut self,
        target: NodeId,
        options: &Expansion,
    ) -> Result<Vec<NodeId>, FlowError> {
        let entity = self.entity_of(target)?;
        if self.is_expanded(target) {
            return Err(FlowError::AlreadyExpanded(target));
        }
        if self.schema.is_abstract(entity) {
            return Err(FlowError::ExpandNeedsSpecialization {
                entity: self.schema.entity(entity).name().to_owned(),
            });
        }
        if self.schema.deps_of(entity).is_empty() {
            return Err(FlowError::NothingToExpand {
                entity: self.schema.entity(entity).name().to_owned(),
            });
        }
        self.satisfy_deps(target, entity, None, options)
    }

    /// Expands the flow *downward* from `source`: adds a new task whose
    /// product is `consumer` and which consumes `source` ("what can I
    /// make from this netlist?"). The consumer's remaining dependencies
    /// are satisfied like a normal expansion.
    ///
    /// Returns `(consumer_node, newly_created_inputs)`.
    ///
    /// # Errors
    ///
    /// * [`FlowError::NoDependencyPath`] if `consumer` has no dependency
    ///   on the source node's entity;
    /// * [`FlowError::ExpandNeedsSpecialization`] if `consumer` is
    ///   abstract.
    pub fn expand_down(
        &mut self,
        source: NodeId,
        consumer: EntityTypeId,
        options: &Expansion,
    ) -> Result<(NodeId, Vec<NodeId>), FlowError> {
        let source_entity = self.entity_of(source)?;
        if self.schema.get(consumer).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(consumer).into());
        }
        if self.schema.is_abstract(consumer) {
            return Err(FlowError::ExpandNeedsSpecialization {
                entity: self.schema.entity(consumer).name().to_owned(),
            });
        }
        // Find the dependency of `consumer` that `source` satisfies;
        // prefer required arcs over optional ones, and among those the
        // most specific (fewest subtype hops from the source entity).
        let distance = |target: EntityTypeId| -> usize {
            let mut d = 0;
            let mut cur = source_entity;
            while cur != target {
                d += 1;
                cur = self
                    .schema
                    .entity(cur)
                    .supertype()
                    .expect("is_subtype_of checked");
            }
            d
        };
        let deps = self.schema.deps_of(consumer);
        let matched = deps
            .iter()
            .filter(|d| self.schema.is_subtype_of(source_entity, d.source()))
            .min_by_key(|d| (d.is_optional(), distance(d.source())))
            .copied()
            .copied()
            .ok_or_else(|| FlowError::NoDependencyPath {
                from: self.schema.entity(source_entity).name().to_owned(),
                to: self.schema.entity(consumer).name().to_owned(),
            })?;

        let consumer_node = self.add_node_raw(consumer)?;
        self.push_edge(FlowEdge {
            source,
            target: consumer_node,
            kind: matched.kind(),
        });
        let created = self.satisfy_deps(consumer_node, consumer, Some(matched), options)?;
        Ok((consumer_node, created))
    }

    /// Satisfies the dependencies of `target` (entity `entity`),
    /// skipping the already-satisfied `skip` arc if given. Returns newly
    /// created nodes.
    fn satisfy_deps(
        &mut self,
        target: NodeId,
        entity: EntityTypeId,
        skip: Option<Dependency>,
        options: &Expansion,
    ) -> Result<Vec<NodeId>, FlowError> {
        let mut created = Vec::new();
        let deps: Vec<Dependency> = self.schema.deps_of(entity).into_iter().copied().collect();
        let mut skipped = false;
        for dep in deps {
            if let Some(s) = skip {
                if !skipped && s == dep {
                    skipped = true;
                    continue;
                }
            }
            if dep.is_optional() && !options.include_optional.contains(&dep.source()) {
                continue;
            }
            let source_node = self.pick_source(target, &dep, options)?;
            let source_node = match source_node {
                Some(n) => n,
                None => {
                    let n = self.add_node_raw(dep.source())?;
                    self.nodes[n.index()]
                        .as_mut()
                        .expect("just added")
                        .created_by = Some(target);
                    created.push(n);
                    n
                }
            };
            self.push_edge(FlowEdge {
                source: source_node,
                target,
                kind: dep.kind(),
            });
        }
        Ok(created)
    }

    /// Chooses an existing node to satisfy `dep`, or `None` to create a
    /// fresh one.
    fn pick_source(
        &self,
        target: NodeId,
        dep: &Dependency,
        options: &Expansion,
    ) -> Result<Option<NodeId>, FlowError> {
        // Explicit reuse wins.
        for &(entity, node) in &options.reuse {
            if entity == dep.source() {
                let offered = self.entity_of(node)?;
                if !self.schema.is_subtype_of(offered, dep.source()) {
                    return Err(FlowError::ReuseTypeMismatch {
                        dep_source: self.schema.entity(dep.source()).name().to_owned(),
                        offered: self.schema.entity(offered).name().to_owned(),
                    });
                }
                if self.ancestors(node).contains(&target) {
                    return Err(FlowError::Cycle);
                }
                return Ok(Some(node));
            }
        }
        if options.reuse_existing {
            for (id, node) in self.nodes() {
                if id != target
                    && self.schema.is_subtype_of(node.entity(), dep.source())
                    && !self.ancestors(id).contains(&target)
                {
                    return Ok(Some(id));
                }
            }
        }
        Ok(None)
    }

    /// Specializes an unexpanded node to a subtype of its current entity
    /// (§3.2: "Specialization is the selection of an entity subtype so
    /// that an expand operation can be performed").
    ///
    /// # Errors
    ///
    /// * [`FlowError::SpecializeAfterExpand`] if the node already has
    ///   producer edges;
    /// * [`FlowError::NotASubtype`] if `subtype` is not a strict
    ///   transitive subtype of the node's current entity.
    pub fn specialize(&mut self, node: NodeId, subtype: EntityTypeId) -> Result<(), FlowError> {
        let current = self.entity_of(node)?;
        if self.is_expanded(node) {
            return Err(FlowError::SpecializeAfterExpand(node));
        }
        if self.schema.get(subtype).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(subtype).into());
        }
        if subtype == current || !self.schema.is_subtype_of(subtype, current) {
            return Err(FlowError::NotASubtype {
                entity: self.schema.entity(current).name().to_owned(),
                requested: self.schema.entity(subtype).name().to_owned(),
            });
        }
        let slot = self.nodes[node.index()].as_mut().expect("checked live");
        if slot.declared.is_none() {
            slot.declared = Some(current);
        }
        slot.entity = subtype;
        Ok(())
    }

    /// Reverts a specialization, restoring the node's declared entity.
    ///
    /// # Errors
    ///
    /// * [`FlowError::NodeNotFound`] if the node is dead;
    /// * [`FlowError::SpecializeAfterExpand`] if it is expanded.
    pub fn generalize(&mut self, node: NodeId) -> Result<(), FlowError> {
        self.node(node)?;
        if self.is_expanded(node) {
            return Err(FlowError::SpecializeAfterExpand(node));
        }
        let slot = self.nodes[node.index()].as_mut().expect("checked live");
        if let Some(declared) = slot.declared.take() {
            slot.entity = declared;
        }
        Ok(())
    }

    /// Removes the task that constructs `node` (the `Unexpand` menu entry
    /// of Fig. 9): deletes its producer edges and garbage-collects input
    /// nodes that served no other task. Returns the removed node ids.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] if `node` is dead.
    pub fn unexpand(&mut self, node: NodeId) -> Result<Vec<NodeId>, FlowError> {
        self.node(node)?;
        // Candidates for collection: nodes whose creation provenance
        // chains back to `node`'s expansion (directly or through other
        // candidates). Seeded and reused nodes are never collected.
        let mut candidates: Vec<NodeId> = Vec::new();
        loop {
            let mut changed = false;
            for (id, n) in self.nodes() {
                if candidates.contains(&id) {
                    continue;
                }
                if let Some(creator) = n.created_by() {
                    if creator == node || candidates.contains(&creator) {
                        candidates.push(id);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.edges.retain(|e| e.target != node);
        self.reindex();
        let mut removed = Vec::new();
        loop {
            let mut changed = false;
            for &c in &candidates {
                if self.nodes[c.index()].is_none() {
                    continue;
                }
                if self.consumers_of(c).next().is_none() {
                    self.edges.retain(|e| e.target != c);
                    self.reindex();
                    self.nodes[c.index()] = None;
                    removed.push(c);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        removed.sort();
        Ok(removed)
    }

    /// Repeatedly expands every expandable node until the flow bottoms
    /// out at primary or abstract leaves. Optional dependencies are never
    /// followed, so this always terminates.
    ///
    /// Returns all newly created nodes.
    ///
    /// # Errors
    ///
    /// Propagates errors from the individual expansions; abstract and
    /// primary leaves are skipped rather than reported.
    pub fn expand_all(&mut self, from: NodeId) -> Result<Vec<NodeId>, FlowError> {
        self.node(from)?;
        let mut frontier = vec![from];
        let mut created_all = Vec::new();
        while let Some(next) = frontier.pop() {
            let entity = self.entity_of(next)?;
            if self.is_expanded(next)
                || self.schema.is_abstract(entity)
                || self.schema.deps_of(entity).is_empty()
            {
                continue;
            }
            let created = self.expand(next)?;
            frontier.extend_from_slice(&created);
            created_all.extend_from_slice(&created);
        }
        Ok(created_all)
    }

    /// Looks up an existing live node of exactly the given entity type.
    pub fn find_node(&self, entity: EntityTypeId) -> Option<NodeId> {
        self.nodes()
            .find(|(_, n)| n.entity() == entity)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    fn fig1_flow() -> (Arc<hercules_schema::TaskSchema>, TaskGraph) {
        let schema = Arc::new(fixtures::fig1());
        let flow = TaskGraph::new(schema.clone());
        (schema, flow)
    }

    #[test]
    fn expand_layout_creates_placer_task() {
        let (schema, mut flow) = fig1_flow();
        let layout = flow
            .seed(schema.require("Layout").expect("known"))
            .expect("ok");
        let created = flow.expand(layout).expect("expandable");
        assert_eq!(created.len(), 3, "placer + netlist + rules");
        assert_eq!(flow.name_of(flow.tool_of(layout).expect("tool")), "Placer");
        assert_eq!(flow.data_inputs_of(layout).len(), 2);
    }

    #[test]
    fn expanding_twice_fails() {
        let (schema, mut flow) = fig1_flow();
        let layout = flow
            .seed(schema.require("Layout").expect("known"))
            .expect("ok");
        flow.expand(layout).expect("first expand");
        assert_eq!(
            flow.expand(layout).unwrap_err(),
            FlowError::AlreadyExpanded(layout)
        );
    }

    #[test]
    fn abstract_entity_requires_specialization() {
        let (schema, mut flow) = fig1_flow();
        let netlist = flow
            .seed(schema.require("Netlist").expect("known"))
            .expect("ok");
        assert!(matches!(
            flow.expand(netlist).unwrap_err(),
            FlowError::ExpandNeedsSpecialization { .. }
        ));
        let extracted = schema.require("ExtractedNetlist").expect("known");
        flow.specialize(netlist, extracted).expect("subtype");
        let created = flow.expand(netlist).expect("now concrete");
        assert_eq!(created.len(), 2, "extractor + layout");
    }

    #[test]
    fn primary_entity_has_nothing_to_expand() {
        let (schema, mut flow) = fig1_flow();
        let stim = flow
            .seed(schema.require("Stimuli").expect("known"))
            .expect("ok");
        assert!(matches!(
            flow.expand(stim).unwrap_err(),
            FlowError::NothingToExpand { .. }
        ));
    }

    #[test]
    fn optional_dependency_included_on_request() {
        let (schema, mut flow) = fig1_flow();
        let netlist_ty = schema.require("Netlist").expect("known");
        let edited_ty = schema.require("EditedNetlist").expect("known");
        let node = flow.seed(edited_ty).expect("ok");
        // Plain expansion: editor only.
        let created = flow.expand(node).expect("ok");
        assert_eq!(created.len(), 1, "circuit editor only");
        flow.unexpand(node).expect("ok");
        // With the optional arc: editor + prior netlist.
        let created = flow
            .expand_with(node, &Expansion::new().with_optional(netlist_ty))
            .expect("ok");
        assert_eq!(created.len(), 2, "editor + prior netlist");
    }

    #[test]
    fn specialize_rejects_non_subtypes_and_expanded_nodes() {
        let (schema, mut flow) = fig1_flow();
        let netlist = flow
            .seed(schema.require("Netlist").expect("known"))
            .expect("ok");
        let layout_ty = schema.require("Layout").expect("known");
        assert!(matches!(
            flow.specialize(netlist, layout_ty).unwrap_err(),
            FlowError::NotASubtype { .. }
        ));
        // Self-specialization is also rejected.
        let netlist_ty = schema.require("Netlist").expect("known");
        assert!(matches!(
            flow.specialize(netlist, netlist_ty).unwrap_err(),
            FlowError::NotASubtype { .. }
        ));

        let layout = flow.seed(layout_ty).expect("ok");
        flow.expand(layout).expect("ok");
        let edited = schema.require("EditedNetlist").expect("known");
        let err = flow.specialize(layout, edited).unwrap_err();
        assert!(matches!(
            err,
            FlowError::SpecializeAfterExpand(_) | FlowError::NotASubtype { .. }
        ));
    }

    #[test]
    fn generalize_restores_declared_entity() {
        let (schema, mut flow) = fig1_flow();
        let netlist_ty = schema.require("Netlist").expect("known");
        let extracted_ty = schema.require("ExtractedNetlist").expect("known");
        let node = flow.seed(netlist_ty).expect("ok");
        flow.specialize(node, extracted_ty).expect("ok");
        assert_eq!(flow.entity_of(node).expect("live"), extracted_ty);
        assert!(flow.node(node).expect("live").is_specialized());
        flow.generalize(node).expect("ok");
        assert_eq!(flow.entity_of(node).expect("live"), netlist_ty);
        assert!(!flow.node(node).expect("live").is_specialized());
    }

    #[test]
    fn unexpand_garbage_collects_unshared_inputs() {
        let (schema, mut flow) = fig1_flow();
        let layout = flow
            .seed(schema.require("Layout").expect("known"))
            .expect("ok");
        flow.expand(layout).expect("ok");
        assert_eq!(flow.len(), 4);
        let removed = flow.unexpand(layout).expect("ok");
        assert_eq!(removed.len(), 3);
        assert_eq!(flow.len(), 1);
        assert!(!flow.is_expanded(layout));
    }

    #[test]
    fn unexpand_keeps_shared_inputs() {
        let (schema, mut flow) = fig1_flow();
        let perf_ty = schema.require("Performance").expect("known");
        let plot_ty = schema.require("PerformancePlot").expect("known");
        let perf = flow.seed(perf_ty).expect("ok");
        flow.expand(perf).expect("ok");
        // Second consumer of the same Performance node.
        let (plot, _) = flow
            .expand_down(perf, plot_ty, &Expansion::new())
            .expect("ok");
        // Unexpanding the plot must not delete perf (it is an output of
        // its own task and has producer edges).
        let removed = flow.unexpand(plot).expect("ok");
        assert_eq!(removed.len(), 1, "only the plotter tool node");
        assert!(flow.node(perf).is_ok());
    }

    #[test]
    fn expand_down_finds_the_dependency() {
        let (schema, mut flow) = fig1_flow();
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        let plot_ty = schema.require("PerformancePlot").expect("known");
        let (plot, created) = flow
            .expand_down(perf, plot_ty, &Expansion::new())
            .expect("ok");
        assert_eq!(created.len(), 1, "plotter tool");
        assert_eq!(flow.data_inputs_of(plot), vec![perf]);
        assert_eq!(flow.outputs(), vec![plot]);
    }

    #[test]
    fn expand_down_rejects_unrelated_entities() {
        let (schema, mut flow) = fig1_flow();
        let stim = flow
            .seed(schema.require("Stimuli").expect("known"))
            .expect("ok");
        let plot_ty = schema.require("PerformancePlot").expect("known");
        assert!(matches!(
            flow.expand_down(stim, plot_ty, &Expansion::new())
                .unwrap_err(),
            FlowError::NoDependencyPath { .. }
        ));
    }

    #[test]
    fn expand_down_accepts_subtype_sources() {
        // An ExtractedNetlist node can feed a Verification's plain
        // Netlist dependency slot — but the required ExtractedNetlist arc
        // is matched first because both are required; check that *some*
        // arc matched and the graph is valid.
        let (schema, mut flow) = fig1_flow();
        let ext = flow
            .seed(schema.require("ExtractedNetlist").expect("known"))
            .expect("ok");
        let verif_ty = schema.require("Verification").expect("known");
        let (verif, created) = flow
            .expand_down(ext, verif_ty, &Expansion::new())
            .expect("ok");
        // Created: verifier tool + the remaining netlist input.
        assert_eq!(created.len(), 2);
        assert!(flow.data_inputs_of(verif).contains(&ext));
    }

    #[test]
    fn explicit_reuse_shares_a_node() {
        // Fig. 5: the same Circuit feeds several subtasks.
        let (schema, mut flow) = fig1_flow();
        let circuit_ty = schema.require("Circuit").expect("known");
        let perf_ty = schema.require("Performance").expect("known");
        let cct = flow.seed(circuit_ty).expect("ok");
        let p1 = flow.seed(perf_ty).expect("ok");
        let p2 = flow.seed(perf_ty).expect("ok");
        flow.expand_with(p1, &Expansion::new().reusing(circuit_ty, cct))
            .expect("ok");
        flow.expand_with(p2, &Expansion::new().reusing(circuit_ty, cct))
            .expect("ok");
        assert_eq!(flow.consumers_of(cct).count(), 2, "circuit reused twice");
    }

    #[test]
    fn reuse_type_mismatch_is_rejected() {
        let (schema, mut flow) = fig1_flow();
        let stim_ty = schema.require("Stimuli").expect("known");
        let circuit_ty = schema.require("Circuit").expect("known");
        let perf_ty = schema.require("Performance").expect("known");
        let stim = flow.seed(stim_ty).expect("ok");
        let perf = flow.seed(perf_ty).expect("ok");
        assert!(matches!(
            flow.expand_with(perf, &Expansion::new().reusing(circuit_ty, stim))
                .unwrap_err(),
            FlowError::ReuseTypeMismatch { .. }
        ));
    }

    #[test]
    fn opportunistic_reuse_shares_compatible_nodes() {
        let (schema, mut flow) = fig1_flow();
        let stim_ty = schema.require("Stimuli").expect("known");
        let perf_ty = schema.require("Performance").expect("known");
        let stim = flow.seed(stim_ty).expect("ok");
        let perf = flow.seed(perf_ty).expect("ok");
        let created = flow
            .expand_with(perf, &Expansion::new().reuse_existing())
            .expect("ok");
        // Stimuli was reused; simulator + circuit were created.
        assert!(created.iter().all(|&n| n != stim));
        assert!(flow.data_inputs_of(perf).contains(&stim));
    }

    #[test]
    fn expand_all_reaches_primary_leaves() {
        let (schema, mut flow) = fig1_flow();
        let plot = flow
            .seed(schema.require("PerformancePlot").expect("known"))
            .expect("ok");
        flow.expand_all(plot).expect("ok");
        // Leaves are primaries or abstract entities awaiting
        // specialization.
        for leaf in flow.leaves() {
            let e = flow.entity_of(leaf).expect("live");
            assert!(
                schema.is_primary(e) || schema.is_abstract(e) || schema.deps_of(e).is_empty(),
                "unexpected leaf {}",
                schema.entity(e).name()
            );
        }
        assert!(flow.len() > 5, "deep flow built");
        assert!(flow.topo_order().is_ok());
    }

    #[test]
    fn find_node_locates_exact_entity() {
        let (schema, mut flow) = fig1_flow();
        let stim_ty = schema.require("Stimuli").expect("known");
        assert!(flow.find_node(stim_ty).is_none());
        let stim = flow.seed(stim_ty).expect("ok");
        assert_eq!(flow.find_node(stim_ty), Some(stim));
    }

    #[test]
    fn composite_expansion_adds_components_without_tool() {
        let (schema, mut flow) = fig1_flow();
        let cct = flow
            .seed(schema.require("Circuit").expect("known"))
            .expect("ok");
        let created = flow.expand(cct).expect("composite expands");
        assert_eq!(created.len(), 2, "device models + netlist");
        assert!(flow.tool_of(cct).is_none(), "implicit composition function");
    }
}
