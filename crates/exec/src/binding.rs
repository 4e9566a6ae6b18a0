//! Instance bindings: selecting database instances for leaf nodes.

use std::collections::HashMap;

use hercules_flow::{NodeId, TaskGraph};
use hercules_history::{HistoryDb, InstanceId};

use crate::error::ExecError;

/// A selection of instances for the leaf nodes of a flow.
///
/// "It is possible to select more than one instance, or a set of
/// instances — causing the task to be run for each data instance
/// specified" (§4.1): each leaf may carry several instances, and the
/// executor fans the affected tasks out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Binding {
    map: HashMap<NodeId, Vec<InstanceId>>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Binding {
        Binding::default()
    }

    /// Binds a leaf to one instance (replacing previous selections).
    pub fn bind(&mut self, node: NodeId, instance: InstanceId) -> &mut Binding {
        self.map.insert(node, vec![instance]);
        self
    }

    /// Binds a leaf to several instances (multi-select fan-out).
    pub fn bind_many(&mut self, node: NodeId, instances: &[InstanceId]) -> &mut Binding {
        self.map.insert(node, instances.to_vec());
        self
    }

    /// Returns the instances bound to a node.
    pub fn get(&self, node: NodeId) -> &[InstanceId] {
        self.map.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns the number of bound nodes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(node, instances)` pairs in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[InstanceId])> + '_ {
        let mut keys: Vec<NodeId> = self.map.keys().copied().collect();
        keys.sort();
        keys.into_iter().map(move |k| (k, self.get(k)))
    }

    /// Validates the binding against a flow and database: every leaf
    /// of the flow must be bound to at least one instance, and every
    /// bound selection must pass [`Binding::check_selection`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnboundLeaf`] or the first selection error.
    pub fn validate(&self, flow: &TaskGraph, db: &HistoryDb) -> Result<(), ExecError> {
        for leaf in flow.leaves() {
            if self.get(leaf).is_empty() {
                let entity = flow.entity_of(leaf)?;
                return Err(ExecError::UnboundLeaf {
                    node: leaf,
                    entity: flow.schema().entity(entity).name().to_owned(),
                });
            }
        }
        for (&node, instances) in &self.map {
            Binding::check_selection(flow, db, node, instances)?;
        }
        Ok(())
    }

    /// Checks one selection before it is bound: `node` must be a live
    /// leaf of `flow`, and every instance must exist in `db` and belong
    /// to the node's entity family.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BoundInteriorNode`], a flow error for a
    /// dead node, or a history error for a missing or mistyped
    /// instance.
    pub fn check_selection(
        flow: &TaskGraph,
        db: &HistoryDb,
        node: NodeId,
        instances: &[InstanceId],
    ) -> Result<(), ExecError> {
        if flow.is_expanded(node) {
            return Err(ExecError::BoundInteriorNode(node));
        }
        let entity = flow.entity_of(node)?;
        for &inst in instances {
            db.check_type(inst, entity)?;
        }
        Ok(())
    }

    /// Convenience: binds every unbound leaf to the latest instance of
    /// its entity family, returning the leaves that could not be
    /// auto-bound.
    pub fn bind_latest(&mut self, flow: &TaskGraph, db: &HistoryDb) -> Vec<NodeId> {
        let mut unbound = Vec::new();
        for leaf in flow.leaves() {
            if !self.get(leaf).is_empty() {
                continue;
            }
            let Ok(entity) = flow.entity_of(leaf) else {
                continue;
            };
            match db.latest_of_family(entity) {
                Some(inst) => {
                    self.bind(leaf, inst);
                }
                None => unbound.push(leaf),
            }
        }
        unbound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_history::Metadata;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    fn setup() -> (Arc<hercules_schema::TaskSchema>, TaskGraph, HistoryDb) {
        let schema = Arc::new(fixtures::fig1());
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.expand(perf).expect("ok");
        let db = HistoryDb::new(schema.clone());
        (schema, flow, db)
    }

    #[test]
    fn unbound_leaf_is_reported() {
        let (_, flow, db) = setup();
        let binding = Binding::new();
        assert!(matches!(
            binding.validate(&flow, &db).unwrap_err(),
            ExecError::UnboundLeaf { .. }
        ));
    }

    #[test]
    fn full_binding_validates() {
        let (_schema, flow, mut db) = setup();
        let mut binding = Binding::new();
        for leaf in flow.leaves() {
            let entity = flow.entity_of(leaf).expect("live");
            let inst = db
                .record_primary(entity, Metadata::by("u"), b"data")
                .expect("ok");
            binding.bind(leaf, inst);
        }
        binding.validate(&flow, &db).expect("complete binding");
        assert_eq!(binding.len(), 3);
        assert_eq!(binding.iter().count(), 3);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let (schema, flow, mut db) = setup();
        let stim_ty = schema.require("Stimuli").expect("known");
        let wrong = db
            .record_primary(stim_ty, Metadata::by("u"), b"s")
            .expect("ok");
        let mut binding = Binding::new();
        for leaf in flow.leaves() {
            binding.bind(leaf, wrong); // stimulus everywhere: two wrong
        }
        assert!(matches!(
            binding.validate(&flow, &db).unwrap_err(),
            ExecError::History(_)
        ));
    }

    #[test]
    fn interior_node_cannot_be_bound() {
        let (schema, flow, mut db) = setup();
        let perf_node = flow.interior()[0];
        let stim_ty = schema.require("Stimuli").expect("known");
        let inst = db
            .record_primary(stim_ty, Metadata::by("u"), b"s")
            .expect("ok");
        let mut binding = Binding::new();
        for leaf in flow.leaves() {
            let entity = flow.entity_of(leaf).expect("live");
            let i = db
                .record_primary(entity, Metadata::by("u"), b"d")
                .expect("ok");
            binding.bind(leaf, i);
        }
        binding.bind(perf_node, inst);
        assert!(matches!(
            binding.validate(&flow, &db).unwrap_err(),
            ExecError::BoundInteriorNode(_)
        ));
    }

    #[test]
    fn bind_latest_uses_newest_instances() {
        let (schema, flow, mut db) = setup();
        for leaf in flow.leaves() {
            let entity = flow.entity_of(leaf).expect("live");
            db.record_primary(entity, Metadata::by("u"), b"old")
                .expect("ok");
        }
        // A newer stimuli instance.
        let stim_ty = schema.require("Stimuli").expect("known");
        let newest = db
            .record_primary(stim_ty, Metadata::by("u"), b"new")
            .expect("ok");
        let mut binding = Binding::new();
        let unbound = binding.bind_latest(&flow, &db);
        assert!(unbound.is_empty());
        binding.validate(&flow, &db).expect("bound");
        let stim_leaf = flow
            .leaves()
            .into_iter()
            .find(|&l| flow.entity_of(l).expect("live") == stim_ty)
            .expect("stimuli leaf");
        assert_eq!(binding.get(stim_leaf), &[newest]);
    }

    #[test]
    fn bind_latest_reports_unbindable_leaves() {
        let (_, flow, db) = setup();
        let mut binding = Binding::new();
        let unbound = binding.bind_latest(&flow, &db);
        assert_eq!(unbound.len(), 3, "empty database binds nothing");
    }

    #[test]
    fn bind_many_enables_fanout() {
        let mut binding = Binding::new();
        let n = NodeId::from_index(0);
        binding.bind_many(n, &[InstanceId::from_raw(1), InstanceId::from_raw(2)]);
        assert_eq!(binding.get(n).len(), 2);
    }
}
