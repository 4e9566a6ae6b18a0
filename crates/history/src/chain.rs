//! Backward and forward chaining through the design history, and
//! query-by-template with a task graph (§4.2).

use std::collections::HashMap;

use hercules_flow::{NodeId, TaskGraph};

use crate::db::HistoryDb;
use crate::error::HistoryError;
use crate::instance::InstanceId;

/// One node of a backward-chaining result: an instance with the chain of
/// instances that created it, down to the requested depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationTree {
    /// The instance at this point of the chain.
    pub instance: InstanceId,
    /// The tool instance that created it, if derived and within depth.
    pub tool: Option<InstanceId>,
    /// The derivations of the data inputs, if within depth.
    pub inputs: Vec<DerivationTree>,
}

impl DerivationTree {
    /// Returns every instance mentioned in the tree (pre-order,
    /// duplicates preserved — the same instance may appear on several
    /// paths of a DAG-shaped history).
    pub fn flatten(&self) -> Vec<InstanceId> {
        let mut out = vec![self.instance];
        out.extend(self.tool);
        for i in &self.inputs {
            out.extend(i.flatten());
        }
        out
    }

    /// Returns the depth of the tree (a leaf is depth 0).
    pub fn depth(&self) -> usize {
        self.inputs.iter().map(|i| i.depth() + 1).max().unwrap_or(0)
    }
}

/// A complete assignment of template nodes to instances, sorted by node
/// id.
pub type TemplateMatch = Vec<(NodeId, InstanceId)>;

impl HistoryDb {
    /// Backward-chains from `id`: reveals the instances used to create
    /// it, recursively, to at most `depth` derivation steps (`None` for
    /// unlimited). Depth 1 is exactly Fig. 10's `History` menu entry —
    /// "the Simulator and Netlist entities do not appear until after
    /// History is chosen".
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn backward_chain(
        &self,
        id: InstanceId,
        depth: Option<usize>,
    ) -> Result<DerivationTree, HistoryError> {
        let inst = self.instance(id)?;
        let recurse = depth != Some(0);
        let mut tree = DerivationTree {
            instance: id,
            tool: None,
            inputs: Vec::new(),
        };
        if !recurse {
            return Ok(tree);
        }
        if let Some(d) = inst.derivation() {
            tree.tool = d.tool;
            let next = depth.map(|d| d - 1);
            for &input in &d.inputs {
                tree.inputs.push(self.backward_chain(input, next)?);
            }
        }
        Ok(tree)
    }

    /// Returns every transitive ancestor of `id` (instances in its
    /// complete derivation history), deduplicated and sorted, excluding
    /// `id` itself.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn ancestors(&self, id: InstanceId) -> Result<Vec<InstanceId>, HistoryError> {
        self.instance(id)?;
        let mut seen = vec![false; self.len()];
        let mut found = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if let Some(d) = self.instance(cur)?.derivation() {
                for r in d.referenced() {
                    if !std::mem::replace(&mut seen[r.index()], true) {
                        found.push(r);
                        stack.push(r);
                    }
                }
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Forward-chains from `id`: every instance that transitively
    /// depends on it, deduplicated and sorted ("finding all of the
    /// circuit performances derived from a given netlist").
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn forward_chain(&self, id: InstanceId) -> Result<Vec<InstanceId>, HistoryError> {
        self.instance(id)?;
        let mut seen = vec![false; self.len()];
        let mut found = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            for &dep in self.direct_dependents(cur)? {
                if !std::mem::replace(&mut seen[dep.index()], true) {
                    found.push(dep);
                    stack.push(dep);
                }
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Forward-chains from `from` and keeps only instances of the
    /// `entity` family — e.g. "find the netlist extracted from this
    /// layout" (§3.3) is `find_derived(layout, extracted_netlist)`.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] or a schema error.
    pub fn find_derived(
        &self,
        from: InstanceId,
        entity: hercules_schema::EntityTypeId,
    ) -> Result<Vec<InstanceId>, HistoryError> {
        if self.schema().get(entity).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(entity).into());
        }
        Ok(self
            .forward_chain(from)?
            .into_iter()
            .filter(|&i| {
                self.schema().is_subtype_of(
                    self.instance(i).expect("chained instance exists").entity(),
                    entity,
                )
            })
            .collect())
    }

    /// Looks for an instance of `entity` whose immediate derivation is
    /// exactly (`tool`, `inputs`) — i.e. "has this extraction already
    /// been performed?" (§3.3). Input order is ignored.
    pub fn find_cached(
        &self,
        entity: hercules_schema::EntityTypeId,
        tool: Option<InstanceId>,
        inputs: &[InstanceId],
    ) -> Option<InstanceId> {
        let mut sorted_inputs: Vec<InstanceId> = inputs.to_vec();
        sorted_inputs.sort();
        self.instances_of(entity).into_iter().find(|&id| {
            let inst = self.instance(id).expect("indexed instance exists");
            match inst.derivation() {
                Some(d) => {
                    let mut di = d.inputs.clone();
                    di.sort();
                    d.tool == tool && di == sorted_inputs
                }
                None => false,
            }
        })
    }

    /// Uses a task graph as a query template (§4.2): finds every
    /// assignment of history instances to flow nodes such that
    ///
    /// * each node's instance belongs to the node's entity family,
    /// * each functional edge matches the consumer instance's recorded
    ///   tool, and
    /// * each data edge's source instance appears among the consumer
    ///   instance's recorded inputs.
    ///
    /// `bindings` pins chosen nodes to known instances; this is how
    /// Fig. 9's browser question "find the simulations that were
    /// performed for *this* netlist" is posed.
    ///
    /// Matches are returned in deterministic order, at most `limit` if
    /// given.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::SchemaMismatch`] if the flow was built
    /// against a different schema,
    /// [`HistoryError::BindingTypeMismatch`] for ill-typed bindings, or
    /// a flow error for corrupt graphs.
    pub fn query_template(
        &self,
        flow: &TaskGraph,
        bindings: &[(NodeId, InstanceId)],
        limit: Option<usize>,
    ) -> Result<Vec<TemplateMatch>, HistoryError> {
        if **flow.schema() != **self.schema() {
            return Err(HistoryError::SchemaMismatch);
        }
        for &(node, inst) in bindings {
            let node_entity = flow.entity_of(node)?;
            let inst_entity = self.instance(inst)?.entity();
            if !self.schema().is_subtype_of(inst_entity, node_entity) {
                return Err(HistoryError::BindingTypeMismatch {
                    node_entity: self.schema().entity(node_entity).name().to_owned(),
                    instance_entity: self.schema().entity(inst_entity).name().to_owned(),
                });
            }
        }

        // Process consumers before producers so each node's candidates
        // are constrained by already-assigned consumers.
        let mut order = flow.topo_order()?;
        order.reverse();

        let mut matches = Vec::new();
        let mut assignment: HashMap<NodeId, InstanceId> = HashMap::new();
        self.search(
            flow,
            bindings,
            &order,
            0,
            &mut assignment,
            &mut matches,
            limit,
        )?;
        matches.sort();
        Ok(matches)
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        flow: &TaskGraph,
        bindings: &[(NodeId, InstanceId)],
        order: &[NodeId],
        idx: usize,
        assignment: &mut HashMap<NodeId, InstanceId>,
        matches: &mut Vec<TemplateMatch>,
        limit: Option<usize>,
    ) -> Result<(), HistoryError> {
        if let Some(l) = limit {
            if matches.len() >= l {
                return Ok(());
            }
        }
        if idx == order.len() {
            let mut m: TemplateMatch = assignment.iter().map(|(&n, &i)| (n, i)).collect();
            m.sort();
            matches.push(m);
            return Ok(());
        }
        let node = order[idx];
        let candidates = self.candidates_for(flow, bindings, assignment, node)?;
        for cand in candidates {
            assignment.insert(node, cand);
            self.search(flow, bindings, order, idx + 1, assignment, matches, limit)?;
            assignment.remove(&node);
        }
        Ok(())
    }

    /// Computes the candidate instances for `node` given the consumers
    /// already assigned.
    fn candidates_for(
        &self,
        flow: &TaskGraph,
        bindings: &[(NodeId, InstanceId)],
        assignment: &HashMap<NodeId, InstanceId>,
        node: NodeId,
    ) -> Result<Vec<InstanceId>, HistoryError> {
        let entity = flow.entity_of(node)?;

        // Start from the binding or the whole family.
        let mut candidates: Vec<InstanceId> = match bindings.iter().find(|(n, _)| *n == node) {
            Some(&(_, inst)) => vec![inst],
            None => self.instances_of_family(entity),
        };

        // Constrain by every already-assigned consumer.
        for edge in flow.consumers_of(node) {
            if let Some(&consumer_inst) = assignment.get(&edge.target()) {
                let consumer = self.instance(consumer_inst)?;
                let allowed: Vec<InstanceId> = match consumer.derivation() {
                    Some(d) => {
                        if edge.is_functional() {
                            d.tool.into_iter().collect()
                        } else {
                            d.inputs.clone()
                        }
                    }
                    None => Vec::new(),
                };
                candidates.retain(|c| allowed.contains(c));
            }
        }
        // An interior template node must be *derived* accordingly: if the
        // node has a functional producer edge, primary instances cannot
        // match.
        if flow.is_expanded(node) {
            candidates.retain(|&c| self.instance(c).map(|i| !i.is_primary()).unwrap_or(false));
        }
        Ok(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::Derivation;
    use crate::instance::Metadata;
    use hercules_schema::{fixtures, TaskSchema};
    use std::sync::Arc;

    /// Builds a small history: editor → netlist n1, n2 (edit of n1);
    /// simulator runs on circuits of both, producing perf1, perf2.
    fn sample() -> (Arc<TaskSchema>, HistoryDb, Vec<InstanceId>) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let editor = db
            .record_primary(t("CircuitEditor"), Metadata::by("jbb"), b"sced")
            .expect("ok");
        let sim = db
            .record_primary(t("Simulator"), Metadata::by("jbb"), b"hspice")
            .expect("ok");
        let dm = db
            .record_primary(t("DeviceModels"), Metadata::by("jbb"), b"bsim")
            .expect("ok");
        let stim = db
            .record_primary(t("Stimuli"), Metadata::by("jbb"), b"pulse")
            .expect("ok");
        let n1 = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("jbb").named("lpf v1"),
                b"n1",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let n2 = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("jbb").named("lpf v2"),
                b"n2",
                Derivation::by_tool(editor, [n1]),
            )
            .expect("ok");
        let c1 = db
            .record_derived(
                t("Circuit"),
                Metadata::by("jbb"),
                b"c1",
                Derivation::by_composition([dm, n1]),
            )
            .expect("ok");
        let c2 = db
            .record_derived(
                t("Circuit"),
                Metadata::by("jbb"),
                b"c2",
                Derivation::by_composition([dm, n2]),
            )
            .expect("ok");
        let p1 = db
            .record_derived(
                t("Performance"),
                Metadata::by("jbb"),
                b"p1",
                Derivation::by_tool(sim, [c1, stim]),
            )
            .expect("ok");
        let p2 = db
            .record_derived(
                t("Performance"),
                Metadata::by("jbb"),
                b"p2",
                Derivation::by_tool(sim, [c2, stim]),
            )
            .expect("ok");
        let ids = vec![editor, sim, dm, stim, n1, n2, c1, c2, p1, p2];
        (schema, db, ids)
    }

    #[test]
    fn backward_chain_depth_one_reveals_immediate_derivation() {
        let (_, db, ids) = sample();
        let (sim, stim, c1, p1) = (ids[1], ids[3], ids[6], ids[8]);
        let tree = db.backward_chain(p1, Some(1)).expect("ok");
        assert_eq!(tree.instance, p1);
        assert_eq!(tree.tool, Some(sim));
        let inputs: Vec<InstanceId> = tree.inputs.iter().map(|t| t.instance).collect();
        assert_eq!(inputs, vec![c1, stim]);
        // Depth 1: the circuit's own derivation is not revealed.
        assert!(tree.inputs[0].inputs.is_empty());
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn backward_chain_unlimited_reaches_primaries() {
        let (_, db, ids) = sample();
        let p2 = ids[9];
        let tree = db.backward_chain(p2, None).expect("ok");
        let flat = tree.flatten();
        for &primary in &[ids[0], ids[1], ids[2], ids[3]] {
            assert!(flat.contains(&primary), "missing primary {primary}");
        }
        // Tools sit beside their product, so depth counts data steps:
        // perf <- circuit <- n2 <- n1.
        assert_eq!(tree.depth(), 3);
    }

    #[test]
    fn ancestors_is_the_dedup_closure() {
        let (_, db, ids) = sample();
        let p2 = ids[9];
        let anc = db.ancestors(p2).expect("ok");
        // Everything except the two performances and c1/n... let's check
        // exact membership: editor, sim, dm, stim, n1, n2, c2.
        for &a in &[ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[7]] {
            assert!(anc.contains(&a));
        }
        assert!(!anc.contains(&ids[8]), "p1 not an ancestor of p2");
        assert!(!anc.contains(&ids[6]), "c1 not an ancestor of p2");
    }

    #[test]
    fn forward_chain_finds_all_dependents() {
        let (_, db, ids) = sample();
        let n1 = ids[4];
        let fwd = db.forward_chain(n1).expect("ok");
        // n1 -> n2 (edit), c1, then c2 (via n2), p1, p2.
        assert_eq!(fwd, vec![ids[5], ids[6], ids[7], ids[8], ids[9]]);
    }

    #[test]
    fn find_derived_filters_by_entity_family() {
        let (schema, db, ids) = sample();
        let n1 = ids[4];
        let perf_ty = schema.require("Performance").expect("known");
        let perfs = db.find_derived(n1, perf_ty).expect("ok");
        assert_eq!(perfs, vec![ids[8], ids[9]]);
    }

    #[test]
    fn find_cached_matches_exact_derivation() {
        let (schema, db, ids) = sample();
        let (sim, stim, c1, c2, p1) = (ids[1], ids[3], ids[6], ids[7], ids[8]);
        let perf_ty = schema.require("Performance").expect("known");
        assert_eq!(db.find_cached(perf_ty, Some(sim), &[c1, stim]), Some(p1));
        // Input order is irrelevant.
        assert_eq!(db.find_cached(perf_ty, Some(sim), &[stim, c1]), Some(p1));
        // Different inputs: p2, not p1.
        assert_eq!(
            db.find_cached(perf_ty, Some(sim), &[c2, stim]),
            Some(ids[9])
        );
        // No such run.
        assert_eq!(db.find_cached(perf_ty, Some(sim), &[c1, c2]), None);
    }

    #[test]
    fn template_query_finds_simulations_of_a_netlist() {
        let (schema, db, ids) = sample();
        let (n1, p1) = (ids[4], ids[8]);

        // Template: Performance <- Simulator, Circuit <- (DeviceModels,
        // Netlist); bind the Netlist node to n1.
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        let created = flow.expand(perf).expect("ok"); // sim, circuit, stimuli
        let circuit = created[1];
        let created = flow.expand(circuit).expect("ok"); // dm, netlist
        let netlist_node = created[1];

        let matches = db
            .query_template(&flow, &[(netlist_node, n1)], None)
            .expect("ok");
        assert_eq!(matches.len(), 1, "only p1 simulates n1");
        let m = &matches[0];
        let perf_inst = m.iter().find(|(n, _)| *n == perf).expect("assigned").1;
        assert_eq!(perf_inst, p1);

        // Unbound: both performances match.
        let matches = db.query_template(&flow, &[], None).expect("ok");
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn template_query_respects_limit_and_type_checks() {
        let (schema, db, ids) = sample();
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.expand(perf).expect("ok");

        let matches = db.query_template(&flow, &[], Some(1)).expect("ok");
        assert_eq!(matches.len(), 1);

        // Binding a node to a wrongly-typed instance errors.
        let stim = ids[3];
        assert!(matches!(
            db.query_template(&flow, &[(perf, stim)], None).unwrap_err(),
            HistoryError::BindingTypeMismatch { .. }
        ));
    }

    #[test]
    fn template_query_rejects_mismatched_schema() {
        let (_, db, _) = sample();
        let other = Arc::new(fixtures::fig2());
        let flow = TaskGraph::new(other);
        assert_eq!(
            db.query_template(&flow, &[], None).unwrap_err(),
            HistoryError::SchemaMismatch
        );
    }

    #[test]
    fn unexpanded_single_node_template_lists_the_family() {
        let (schema, db, _) = sample();
        let mut flow = TaskGraph::new(schema.clone());
        let node = flow
            .seed(schema.require("Netlist").expect("known"))
            .expect("ok");
        let matches = db.query_template(&flow, &[], None).expect("ok");
        assert_eq!(matches.len(), 2, "n1 and n2");
        assert!(matches.iter().all(|m| m[0].0 == node));
    }
}
