//! Validation of task graphs against their schema.
//!
//! Graphs built exclusively through the checked operations
//! ([`TaskGraph::expand`] and friends) are valid by construction; these
//! checks exist for raw-built graphs (deserialization, baselines, the
//! "unchecked build, validate once" ablation) and as the executable-flow
//! gate used by the execution engine.

use std::collections::HashSet;

use hercules_schema::{Dependency, EntityTypeId};

use crate::error::FlowError;
use crate::graph::TaskGraph;
use crate::node::NodeId;

impl TaskGraph {
    /// Structurally validates the flow:
    ///
    /// * the graph is acyclic;
    /// * no node has two functional edges;
    /// * no duplicate `(source, target, kind)` edges;
    /// * every incoming edge set of a node can be matched one-to-one to
    ///   distinct dependency arcs of the node's entity in the schema.
    ///
    /// # Errors
    ///
    /// Returns the first violation found; [`TaskGraph::validate_all`]
    /// collects every violation instead.
    pub fn validate(&self) -> Result<(), FlowError> {
        match self.validate_all().into_iter().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// Runs every structural check of [`TaskGraph::validate`] to
    /// completion and returns *all* violations, in the same order
    /// `validate` would encounter them. An empty vector means the flow
    /// is structurally valid. This is the collector behind both the
    /// pass/fail gate and `herclint`'s exhaustive reporting.
    pub fn validate_all(&self) -> Vec<FlowError> {
        self.check(false)
    }

    /// The checks behind [`TaskGraph::validate_all`] and, with
    /// `completeness`, [`TaskGraph::validate_for_execution_all`]: each
    /// node's edges are matched to dependency arcs once, and an interior
    /// node's missing arcs come from that same matching.
    fn check(&self, completeness: bool) -> Vec<FlowError> {
        let mut out = Vec::new();
        let mut incomplete = Vec::new();
        if let Err(e) = self.topo_order() {
            out.push(e);
        }
        // Duplicate (source, target, kind) triples via a single hash-set
        // sweep: O(E) instead of the quadratic prefix rescans.
        let mut seen = HashSet::with_capacity(self.edge_count());
        for e in self.edges() {
            for end in [e.source(), e.target()] {
                if let Err(err) = self.node(end) {
                    out.push(err);
                }
            }
            if !seen.insert((e.source(), e.target(), e.kind())) {
                out.push(FlowError::DuplicateEdge(e.source(), e.target()));
            }
        }
        for id in self.node_ids() {
            let functional = self.producers_of(id).filter(|e| e.is_functional()).count();
            if functional > 1 {
                out.push(FlowError::DuplicateFunctionalEdge(id));
            }
            match self.match_edges_to_deps(id) {
                Err(e) => out.push(e),
                // A matching is empty exactly when the node has no
                // producer edges, i.e. is a leaf.
                Ok(assignment) if completeness && !assignment.is_empty() => {
                    let Ok(entity) = self.entity_of(id) else {
                        continue;
                    };
                    let schema = self.schema();
                    for dep in self.unmatched_required(entity, &assignment) {
                        incomplete.push(FlowError::IncompleteExpansion {
                            entity: schema.entity(entity).name().to_owned(),
                            missing: schema.entity(dep.source()).name().to_owned(),
                        });
                    }
                }
                Ok(_) => {}
            }
        }
        out.extend(incomplete);
        out
    }

    /// Validates that the flow is structurally sound *and* ready to run:
    /// every interior (expanded) node must have all its required
    /// dependencies satisfied.
    ///
    /// # Errors
    ///
    /// As [`TaskGraph::validate`], plus
    /// [`FlowError::IncompleteExpansion`].
    pub fn validate_for_execution(&self) -> Result<(), FlowError> {
        match self.validate_for_execution_all().into_iter().next() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// As [`TaskGraph::validate_all`], plus one
    /// [`FlowError::IncompleteExpansion`] per missing required
    /// dependency of every interior node whose edges match (in node
    /// order, after every structural violation).
    pub fn validate_for_execution_all(&self) -> Vec<FlowError> {
        self.check(true)
    }

    /// Returns `true` if every required dependency of `id`'s entity has a
    /// matching producer edge.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] for dead ids.
    pub fn is_fully_expanded(&self, id: NodeId) -> Result<bool, FlowError> {
        Ok(self.missing_deps(id)?.is_empty())
    }

    /// Returns the required dependencies of `id`'s entity that have no
    /// matching producer edge, in schema order.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] for dead ids.
    pub fn missing_deps(&self, id: NodeId) -> Result<Vec<Dependency>, FlowError> {
        let entity = self.entity_of(id)?;
        let assignment = self.match_edges_to_deps(id)?;
        Ok(self.unmatched_required(entity, &assignment))
    }

    /// The required arcs of `entity` that `assignment` (from
    /// [`TaskGraph::match_edges_to_deps`]) leaves unmatched, in schema
    /// order.
    fn unmatched_required(
        &self,
        entity: EntityTypeId,
        assignment: &[Option<usize>],
    ) -> Vec<Dependency> {
        self.schema()
            .deps_of(entity)
            .iter()
            .enumerate()
            .filter(|(di, d)| d.is_required() && !assignment.contains(&Some(*di)))
            .map(|(_, d)| **d)
            .collect()
    }

    /// Matches the incoming edges of `id` one-to-one to dependency arcs
    /// of its entity, preferring the most specific arc for each edge.
    /// Returns, per incoming edge (in edge order), the index of the arc
    /// it was assigned (into `deps_of(entity)`).
    ///
    /// Uses augmenting-path bipartite matching; edge and dependency
    /// counts per node are tiny.
    fn match_edges_to_deps(&self, id: NodeId) -> Result<Vec<Option<usize>>, FlowError> {
        let entity = self.entity_of(id)?;
        let schema = self.schema();
        let deps = schema.deps_of(entity);
        let incoming: Vec<_> = self.producers_of(id).collect();
        if incoming.is_empty() {
            return Ok(Vec::new());
        }

        // compat[e][d] = edge e could satisfy dep d.
        let mut compat = vec![Vec::new(); incoming.len()];
        for (ei, edge) in incoming.iter().enumerate() {
            let src_entity = self.entity_of(edge.source())?;
            for (di, dep) in deps.iter().enumerate() {
                if dep.kind() == edge.kind() && schema.is_subtype_of(src_entity, dep.source()) {
                    compat[ei].push(di);
                }
            }
            if compat[ei].is_empty() {
                return Err(FlowError::EdgeNotInSchema {
                    source: schema
                        .entity(self.entity_of(edge.source())?)
                        .name()
                        .to_owned(),
                    target: schema.entity(entity).name().to_owned(),
                });
            }
        }

        let mut dep_owner: Vec<Option<usize>> = vec![None; deps.len()];
        fn try_assign(
            ei: usize,
            compat: &[Vec<usize>],
            dep_owner: &mut [Option<usize>],
            visited: &mut [bool],
        ) -> bool {
            for &di in &compat[ei] {
                if visited[di] {
                    continue;
                }
                visited[di] = true;
                if dep_owner[di].is_none()
                    || try_assign(dep_owner[di].expect("checked"), compat, dep_owner, visited)
                {
                    dep_owner[di] = Some(ei);
                    return true;
                }
            }
            false
        }
        for (ei, edge) in incoming.iter().enumerate() {
            let mut visited = vec![false; deps.len()];
            if !try_assign(ei, &compat, &mut dep_owner, &mut visited) {
                return Err(FlowError::EdgeNotInSchema {
                    source: schema
                        .entity(self.entity_of(edge.source())?)
                        .name()
                        .to_owned(),
                    target: schema.entity(entity).name().to_owned(),
                });
            }
        }
        let mut assignment = vec![None; incoming.len()];
        for (di, owner) in dep_owner.iter().enumerate() {
            if let Some(ei) = owner {
                assignment[*ei] = Some(di);
            }
        }
        // Report which deps are used, indexed by edge: convert to
        // dep-index-per-edge for missing_deps' "used set" check.
        Ok(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::Expansion;
    use hercules_schema::{fixtures, DepKind, TaskSchema};
    use std::sync::Arc;

    fn fig1_arc() -> Arc<TaskSchema> {
        Arc::new(fixtures::fig1())
    }

    #[test]
    fn checked_construction_validates() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let plot = flow
            .seed(schema.require("PerformancePlot").expect("known"))
            .expect("ok");
        flow.expand_all(plot).expect("ok");
        flow.validate().expect("valid by construction");
        flow.validate_for_execution().expect("complete");
    }

    #[test]
    fn illegal_edge_is_rejected() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let stim = flow
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("ok");
        let plot = flow
            .add_node_raw(schema.require("PerformancePlot").expect("known"))
            .expect("ok");
        flow.add_edge_raw(stim, plot, DepKind::Data)
            .expect("raw ok");
        assert!(matches!(
            flow.validate().unwrap_err(),
            FlowError::EdgeNotInSchema { .. }
        ));
    }

    #[test]
    fn two_functional_edges_are_rejected() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let s1 = flow
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("ok");
        let s2 = flow
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("ok");
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.add_edge_raw(s1, perf, DepKind::Functional)
            .expect("ok");
        flow.add_edge_raw(s2, perf, DepKind::Functional)
            .expect("ok");
        assert!(matches!(
            flow.validate().unwrap_err(),
            FlowError::DuplicateFunctionalEdge(_)
        ));
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        let plot = flow
            .add_node_raw(schema.require("PerformancePlot").expect("known"))
            .expect("ok");
        flow.add_edge_raw(perf, plot, DepKind::Data).expect("ok");
        flow.add_edge_raw(perf, plot, DepKind::Data).expect("ok");
        assert!(matches!(
            flow.validate().unwrap_err(),
            FlowError::DuplicateEdge(_, _)
        ));
    }

    #[test]
    fn two_edges_cannot_share_one_dep_slot() {
        // Performance has exactly one Stimuli dependency; two distinct
        // stimuli inputs must be rejected.
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let s1 = flow
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("ok");
        let s2 = flow
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("ok");
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.add_edge_raw(s1, perf, DepKind::Data).expect("ok");
        flow.add_edge_raw(s2, perf, DepKind::Data).expect("ok");
        assert!(matches!(
            flow.validate().unwrap_err(),
            FlowError::EdgeNotInSchema { .. }
        ));
    }

    #[test]
    fn matching_assigns_specific_and_general_netlists() {
        // Verification takes a Netlist and an ExtractedNetlist. Feed it
        // two ExtractedNetlist nodes: a perfect matching exists (one to
        // each slot) and validation must find it regardless of edge
        // order.
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let e1 = flow
            .add_node_raw(schema.require("ExtractedNetlist").expect("known"))
            .expect("ok");
        let e2 = flow
            .add_node_raw(schema.require("ExtractedNetlist").expect("known"))
            .expect("ok");
        let v = flow
            .add_node_raw(schema.require("Verification").expect("known"))
            .expect("ok");
        let verifier = flow
            .add_node_raw(schema.require("Verifier").expect("known"))
            .expect("ok");
        flow.add_edge_raw(verifier, v, DepKind::Functional)
            .expect("ok");
        flow.add_edge_raw(e1, v, DepKind::Data).expect("ok");
        flow.add_edge_raw(e2, v, DepKind::Data).expect("ok");
        flow.validate().expect("perfect matching exists");
        flow.validate_for_execution().expect("complete");
    }

    #[test]
    fn incomplete_interior_node_fails_execution_gate() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let sim = flow
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("ok");
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.add_edge_raw(sim, perf, DepKind::Functional)
            .expect("ok");
        flow.validate().expect("structurally fine");
        assert!(matches!(
            flow.validate_for_execution().unwrap_err(),
            FlowError::IncompleteExpansion { .. }
        ));
        assert!(!flow.is_fully_expanded(perf).expect("live"));
        let missing = flow.missing_deps(perf).expect("live");
        assert_eq!(missing.len(), 2, "circuit + stimuli");
    }

    #[test]
    fn validate_all_collects_every_violation() {
        // One duplicate edge AND one illegal edge: the gate stops at the
        // first, the collector reports both.
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        let plot = flow
            .add_node_raw(schema.require("PerformancePlot").expect("known"))
            .expect("ok");
        let stim = flow
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("ok");
        flow.add_edge_raw(perf, plot, DepKind::Data).expect("ok");
        flow.add_edge_raw(perf, plot, DepKind::Data).expect("ok");
        flow.add_edge_raw(stim, plot, DepKind::Data).expect("ok");
        let all = flow.validate_all();
        assert!(all
            .iter()
            .any(|e| matches!(e, FlowError::DuplicateEdge(_, _))));
        assert!(all
            .iter()
            .any(|e| matches!(e, FlowError::EdgeNotInSchema { .. })));
        assert_eq!(
            flow.validate().unwrap_err(),
            all[0],
            "gate reports the collector's first finding"
        );
    }

    #[test]
    fn execution_collector_reports_every_missing_dep() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let sim = flow
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("ok");
        let perf = flow
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.add_edge_raw(sim, perf, DepKind::Functional)
            .expect("ok");
        let all = flow.validate_for_execution_all();
        let missing: Vec<_> = all
            .iter()
            .filter(|e| matches!(e, FlowError::IncompleteExpansion { .. }))
            .collect();
        assert_eq!(missing.len(), 2, "circuit + stimuli both reported");
    }

    #[test]
    fn optional_deps_are_not_required_for_execution() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.expand(perf).expect("ok");
        // SimulatorOptions (optional) was not included; still complete.
        assert!(flow.is_fully_expanded(perf).expect("live"));
        flow.validate_for_execution()
            .expect("complete without optional");
    }

    #[test]
    fn optional_dep_edge_validates_when_present() {
        let schema = fig1_arc();
        let mut flow = TaskGraph::new(schema.clone());
        let opts_ty = schema.require("SimulatorOptions").expect("known");
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.expand_with(perf, &Expansion::new().with_optional(opts_ty))
            .expect("ok");
        flow.validate_for_execution().expect("valid with optional");
        assert_eq!(flow.data_inputs_of(perf).len(), 3);
    }
}
