//! Core storage and structural queries of a task graph.

use std::sync::Arc;

use hercules_schema::{DepKind, EntityTypeId, TaskSchema};

use crate::error::FlowError;
use crate::node::{FlowEdge, FlowNode, NodeId};

/// A dynamically defined flow, represented as a task graph (§3.2).
///
/// "A task graph is a directed acyclic graph, with each node in the graph
/// corresponding to an entity in the task schema, and each edge
/// corresponding to a dependency." The graph is a *temporary* structure
/// the designer builds up on demand, subject to the rules of the schema
/// it was created against.
///
/// # Examples
///
/// Building the Fig. 3b flow `placement = placer(circuit_editor(circuit),
/// placement_rules)`:
///
/// ```
/// use hercules_flow::TaskGraph;
/// use hercules_schema::fixtures;
///
/// # fn main() -> Result<(), hercules_flow::FlowError> {
/// let schema = std::sync::Arc::new(fixtures::fig1());
/// let mut flow = TaskGraph::new(schema.clone());
/// let layout = flow.seed(schema.require("Layout")?)?;
/// let added = flow.expand(layout)?;          // placer, netlist, rules
/// assert_eq!(added.len(), 3);
/// assert_eq!(flow.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskGraph {
    pub(crate) schema: Arc<TaskSchema>,
    /// Node slots; `None` is a tombstone left by removal.
    pub(crate) nodes: Vec<Option<FlowNode>>,
    /// Edges in creation order. Added only through
    /// [`TaskGraph::push_edge`]; whoever removes some calls
    /// [`TaskGraph::reindex`].
    pub(crate) edges: Vec<FlowEdge>,
    /// Per node slot, the indexes into `edges` of its producer and
    /// consumer edges, in edge order: the adjacency queries walk a
    /// node's own edges instead of every edge.
    adjacency: Vec<Adjacency>,
}

/// One node slot's edges, as indexes into [`TaskGraph::edges`].
#[derive(Debug, Clone, Default)]
struct Adjacency {
    producers: Vec<usize>,
    consumers: Vec<usize>,
}

impl TaskGraph {
    /// Creates an empty flow over the given schema.
    pub fn new(schema: Arc<TaskSchema>) -> TaskGraph {
        TaskGraph {
            schema,
            nodes: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Appends an edge between existing node slots and indexes it.
    pub(crate) fn push_edge(&mut self, edge: FlowEdge) {
        let index = self.edges.len();
        self.index_edge(index, &edge);
        self.edges.push(edge);
    }

    fn index_edge(&mut self, index: usize, edge: &FlowEdge) {
        let slots = edge.source.index().max(edge.target.index()) + 1;
        if self.adjacency.len() < slots {
            self.adjacency.resize_with(slots, Adjacency::default);
        }
        self.adjacency[edge.target.index()].producers.push(index);
        self.adjacency[edge.source.index()].consumers.push(index);
    }

    /// Rebuilds the adjacency index after edges were removed.
    pub(crate) fn reindex(&mut self) {
        for slot in &mut self.adjacency {
            slot.producers.clear();
            slot.consumers.clear();
        }
        for index in 0..self.edges.len() {
            let edge = self.edges[index];
            self.index_edge(index, &edge);
        }
    }

    /// Returns the schema this flow was built against.
    pub fn schema(&self) -> &Arc<TaskSchema> {
        &self.schema
    }

    /// Returns the number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Returns `true` if the flow has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns the node with the given id, or an error if it was removed
    /// or never existed.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] for dead or out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&FlowNode, FlowError> {
        self.nodes
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(FlowError::NodeNotFound(id))
    }

    /// Returns the current entity type of a node.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] for dead or out-of-range ids.
    pub fn entity_of(&self, id: NodeId) -> Result<EntityTypeId, FlowError> {
        Ok(self.node(id)?.entity())
    }

    /// Returns the display name of a node's entity, for rendering.
    #[cfg(test)]
    pub(crate) fn name_of(&self, id: NodeId) -> &str {
        match self.nodes.get(id.index()).and_then(Option::as_ref) {
            Some(n) => self.schema.entity(n.entity()).name(),
            None => "<dead>",
        }
    }

    /// Iterates over live node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId::from_index(i)))
    }

    /// Iterates over live `(id, node)` pairs in creation order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &FlowNode)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|node| (NodeId::from_index(i), node)))
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &FlowEdge> + '_ {
        self.edges.iter()
    }

    /// Returns the incoming (producer) edges of `id`: the tool and data
    /// inputs of the task that constructs it, in edge order. Costs
    /// O(in-degree).
    pub fn producers_of(&self, id: NodeId) -> impl Iterator<Item = &FlowEdge> + '_ {
        let indexes = self
            .adjacency
            .get(id.index())
            .map_or(&[][..], |a| &a.producers);
        indexes.iter().map(move |&i| &self.edges[i])
    }

    /// Returns the outgoing (consumer) edges of `id`: the tasks this node
    /// feeds, in edge order. Costs O(out-degree).
    pub fn consumers_of(&self, id: NodeId) -> impl Iterator<Item = &FlowEdge> + '_ {
        let indexes = self
            .adjacency
            .get(id.index())
            .map_or(&[][..], |a| &a.consumers);
        indexes.iter().map(move |&i| &self.edges[i])
    }

    /// Returns the node supplying the tool for `id`'s task, if expanded.
    pub fn tool_of(&self, id: NodeId) -> Option<NodeId> {
        self.producers_of(id)
            .find(|e| e.is_functional())
            .map(FlowEdge::source)
    }

    /// Returns the data-input nodes of `id`'s task.
    pub fn data_inputs_of(&self, id: NodeId) -> Vec<NodeId> {
        self.producers_of(id)
            .filter(|e| e.is_data())
            .map(FlowEdge::source)
            .collect()
    }

    /// Returns `true` if `id` has at least one producer edge, i.e. the
    /// flow contains the task that constructs it.
    pub fn is_expanded(&self, id: NodeId) -> bool {
        self.producers_of(id).next().is_some()
    }

    /// Returns the *leaf* nodes: nodes with no producer edges. Before a
    /// flow can run, each leaf must be bound to an instance from the
    /// design database (§3.2: "the entities can be instantiated (an
    /// instance selected for each leaf node) and the task executed").
    pub fn leaves(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| !self.is_expanded(id))
            .collect()
    }

    /// Returns the *output* nodes: nodes that feed no other task. A flow
    /// may have several outputs (Fig. 5 shows "the production of multiple
    /// outputs").
    pub fn outputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.consumers_of(id).next().is_none())
            .collect()
    }

    /// Returns the interior (non-leaf) nodes: those the flow will
    /// construct by executing tasks.
    pub fn interior(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&id| self.is_expanded(id)).collect()
    }

    /// Decomposes the interior nodes into *parallel waves*: level sets
    /// of the task DAG, where every node in wave *k* depends only on
    /// leaves and on nodes of waves `< k`. This is the schedule a
    /// maximally parallel executor follows, and the shape `profile`
    /// compares a measured run against.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cycle`] if raw edits introduced a cycle.
    pub fn parallel_waves(&self) -> Result<Vec<Vec<NodeId>>, FlowError> {
        let mut level = vec![0usize; self.nodes.len()];
        let mut waves: Vec<Vec<NodeId>> = Vec::new();
        for id in self.topo_order()? {
            if !self.is_expanded(id) {
                continue;
            }
            let wave = self
                .producers_of(id)
                .map(|e| {
                    let src = e.source.index();
                    if self.is_expanded(e.source) {
                        level[src] + 1
                    } else {
                        0
                    }
                })
                .max()
                .unwrap_or(0);
            level[id.index()] = wave;
            if waves.len() <= wave {
                waves.resize(wave + 1, Vec::new());
            }
            waves[wave].push(id);
        }
        for wave in &mut waves {
            wave.sort();
        }
        Ok(waves)
    }

    /// Returns the schema-theoretic maximum parallelism of this flow:
    /// the widest [`parallel_waves`](TaskGraph::parallel_waves) level —
    /// how many constructed nodes could be in flight at once with
    /// unlimited workers. (An executor that groups shared-tool subtasks
    /// may need fewer workers; it can never profitably use more.)
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cycle`] if raw edits introduced a cycle.
    pub fn max_parallelism(&self) -> Result<usize, FlowError> {
        Ok(self
            .parallel_waves()?
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0))
    }

    /// Returns a topological order of the live nodes (inputs before the
    /// tasks that consume them).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cycle`] if raw edits introduced a cycle;
    /// graphs built only through the checked operations are always
    /// acyclic.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, FlowError> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut alive = 0usize;
        for id in self.node_ids() {
            alive += 1;
            let _ = id;
        }
        for e in &self.edges {
            indegree[e.target.index()] += 1;
        }
        let mut ready: Vec<NodeId> = self
            .node_ids()
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(alive);
        while let Some(id) = ready.pop() {
            order.push(id);
            for e in self.consumers_of(id) {
                let t = e.target.index();
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    ready.push(e.target);
                }
            }
        }
        if order.len() == alive {
            Ok(order)
        } else {
            Err(FlowError::Cycle)
        }
    }

    /// Returns the ancestor closure of `id` (its task and, recursively,
    /// everything those tasks need), including `id` itself.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![id];
        let mut out = Vec::new();
        while let Some(cur) = stack.pop() {
            if seen[cur.index()] {
                continue;
            }
            seen[cur.index()] = true;
            out.push(cur);
            for e in self.producers_of(cur) {
                stack.push(e.source);
            }
        }
        out
    }

    /// Extracts the sub-flow rooted at `id`: a new task graph containing
    /// `id` and its ancestor closure. "A subflow may be run at any stage
    /// as long as its dependencies are satisfied independently of the
    /// remainder of the flow" (§4.1).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] if `id` is dead.
    ///
    /// The returned graph's node ids are fresh; the second return value
    /// maps old ids to new ones.
    pub fn subflow(&self, id: NodeId) -> Result<(TaskGraph, Vec<(NodeId, NodeId)>), FlowError> {
        self.node(id)?;
        let mut keep = self.ancestors(id);
        keep.sort();
        let mut sub = TaskGraph::new(self.schema.clone());
        let mut mapping = Vec::with_capacity(keep.len());
        for &old in &keep {
            let node = self.node(old)?.clone();
            let new = NodeId::from_index(sub.nodes.len());
            sub.nodes.push(Some(node));
            mapping.push((old, new));
        }
        let map = |old: NodeId| mapping.iter().find(|(o, _)| *o == old).map(|(_, n)| *n);
        for e in &self.edges {
            if let (Some(s), Some(t)) = (map(e.source), map(e.target)) {
                sub.push_edge(FlowEdge {
                    source: s,
                    target: t,
                    kind: e.kind,
                });
            }
        }
        Ok((sub, mapping))
    }

    /// Partitions the live nodes into weakly connected components —
    /// the "disjoint branches" that Fig. 6 executes in parallel.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut comp = vec![usize::MAX; n];
        let mut next = 0usize;
        for start in self.node_ids() {
            if comp[start.index()] != usize::MAX {
                continue;
            }
            let c = next;
            next += 1;
            let mut stack = vec![start];
            while let Some(cur) = stack.pop() {
                if comp[cur.index()] != usize::MAX {
                    continue;
                }
                comp[cur.index()] = c;
                stack.extend(self.consumers_of(cur).map(|e| e.target));
                stack.extend(self.producers_of(cur).map(|e| e.source));
            }
        }
        let mut out = vec![Vec::new(); next];
        for id in self.node_ids() {
            out[comp[id.index()]].push(id);
        }
        out
    }

    // ------------------------------------------------------------------
    // Raw (unchecked) construction, used by deserialization, the
    // baselines and the "unchecked build then validate" ablation.
    // ------------------------------------------------------------------

    /// Adds a node of the given entity without consulting the schema's
    /// expansion rules. The entity id must belong to the flow's schema.
    ///
    /// # Errors
    ///
    /// Returns a schema error if `entity` is out of range.
    pub fn add_node_raw(&mut self, entity: EntityTypeId) -> Result<NodeId, FlowError> {
        if self.schema.get(entity).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(entity).into());
        }
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Some(FlowNode {
            entity,
            declared: None,
            created_by: None,
        }));
        Ok(id)
    }

    /// Adds an edge without consulting the schema. Dangling endpoints are
    /// still rejected.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NodeNotFound`] for dead endpoints.
    pub fn add_edge_raw(
        &mut self,
        source: NodeId,
        target: NodeId,
        kind: DepKind,
    ) -> Result<(), FlowError> {
        self.node(source)?;
        self.node(target)?;
        self.push_edge(FlowEdge {
            source,
            target,
            kind,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::fixtures;

    fn fig1_arc() -> Arc<TaskSchema> {
        Arc::new(fixtures::fig1())
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new(fig1_arc());
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.leaves().is_empty());
        assert!(g.topo_order().expect("acyclic").is_empty());
    }

    #[test]
    fn raw_construction_and_queries() {
        let schema = fig1_arc();
        let mut g = TaskGraph::new(schema.clone());
        let sim = g
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("valid");
        let cct = g
            .add_node_raw(schema.require("Circuit").expect("known"))
            .expect("valid");
        let stim = g
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("valid");
        let perf = g
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("valid");
        g.add_edge_raw(sim, perf, DepKind::Functional).expect("ok");
        g.add_edge_raw(cct, perf, DepKind::Data).expect("ok");
        g.add_edge_raw(stim, perf, DepKind::Data).expect("ok");

        assert_eq!(g.len(), 4);
        assert!(g.is_expanded(perf));
        assert!(!g.is_expanded(sim));
        assert_eq!(g.tool_of(perf), Some(sim));
        assert_eq!(g.data_inputs_of(perf), vec![cct, stim]);
        let mut leaves = g.leaves();
        leaves.sort();
        assert_eq!(leaves, vec![sim, cct, stim]);
        assert_eq!(g.outputs(), vec![perf]);
        assert_eq!(g.interior(), vec![perf]);

        let order = g.topo_order().expect("acyclic");
        let pos = |id| order.iter().position(|&x| x == id).expect("in order");
        assert!(pos(sim) < pos(perf));
        assert!(pos(cct) < pos(perf));
    }

    #[test]
    fn cycle_detected_by_topo() {
        let schema = fig1_arc();
        let mut g = TaskGraph::new(schema.clone());
        let a = g
            .add_node_raw(schema.require("Netlist").expect("known"))
            .expect("valid");
        let b = g
            .add_node_raw(schema.require("Layout").expect("known"))
            .expect("valid");
        g.add_edge_raw(a, b, DepKind::Data).expect("ok");
        g.add_edge_raw(b, a, DepKind::Data).expect("ok");
        assert_eq!(g.topo_order().unwrap_err(), FlowError::Cycle);
    }

    #[test]
    fn unknown_entity_rejected_by_raw_add() {
        let mut g = TaskGraph::new(fig1_arc());
        assert!(g.add_node_raw(EntityTypeId::from_index(999)).is_err());
    }

    #[test]
    fn components_separate_disjoint_branches() {
        let schema = fig1_arc();
        let mut g = TaskGraph::new(schema.clone());
        let a = g
            .add_node_raw(schema.require("Netlist").expect("known"))
            .expect("valid");
        let b = g
            .add_node_raw(schema.require("Layout").expect("known"))
            .expect("valid");
        let c = g
            .add_node_raw(schema.require("Stimuli").expect("known"))
            .expect("valid");
        g.add_edge_raw(a, b, DepKind::Data).expect("ok");
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().any(|c2| c2.contains(&c) && c2.len() == 1));
    }

    #[test]
    fn subflow_extracts_ancestors() {
        let schema = fig1_arc();
        let mut g = TaskGraph::new(schema.clone());
        let sim = g
            .add_node_raw(schema.require("Simulator").expect("known"))
            .expect("valid");
        let cct = g
            .add_node_raw(schema.require("Circuit").expect("known"))
            .expect("valid");
        let perf = g
            .add_node_raw(schema.require("Performance").expect("known"))
            .expect("valid");
        let plt = g
            .add_node_raw(schema.require("Plotter").expect("known"))
            .expect("valid");
        let plot = g
            .add_node_raw(schema.require("PerformancePlot").expect("known"))
            .expect("valid");
        g.add_edge_raw(sim, perf, DepKind::Functional).expect("ok");
        g.add_edge_raw(cct, perf, DepKind::Data).expect("ok");
        g.add_edge_raw(plt, plot, DepKind::Functional).expect("ok");
        g.add_edge_raw(perf, plot, DepKind::Data).expect("ok");

        let (sub, mapping) = g.subflow(perf).expect("live node");
        assert_eq!(sub.len(), 3, "perf + simulator + circuit");
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(mapping.len(), 3);
        // The plot task is not part of the sub-flow.
        assert!(mapping.iter().all(|(old, _)| *old != plot));
    }

    #[test]
    fn dead_node_lookup_fails() {
        let g = TaskGraph::new(fig1_arc());
        assert_eq!(
            g.node(NodeId::from_index(0)).unwrap_err(),
            FlowError::NodeNotFound(NodeId::from_index(0))
        );
    }
}
