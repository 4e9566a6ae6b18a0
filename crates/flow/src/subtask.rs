//! Subtasks: how a flow's interior nodes group into tool applications.
//!
//! The execution engine schedules subtasks, the planner places them on
//! machines, and the parallel-hazard detector pairs them up; all three
//! take them from [`TaskGraph::subtasks`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::error::FlowError;
use crate::graph::TaskGraph;
use crate::node::NodeId;

/// One grouped subtask: the interior nodes a single tool application
/// constructs, and what it consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subtask {
    /// Interior nodes this application constructs, in topological
    /// order.
    pub outputs: Vec<NodeId>,
    /// The node supplying the tool; `None` for a composition, which
    /// its output entity's encapsulation assembles.
    pub tool: Option<NodeId>,
    /// Data-input nodes, sorted.
    pub inputs: Vec<NodeId>,
}

impl Subtask {
    /// The one-output subtask that constructs `node`: its tool node and
    /// its data inputs, sorted. [`TaskGraph::subtasks`] merges those
    /// that share both, so every output of a subtask reads the same.
    pub fn of_node(flow: &TaskGraph, node: NodeId) -> Subtask {
        let mut inputs = flow.data_inputs_of(node);
        inputs.sort();
        Subtask {
            outputs: vec![node],
            tool: flow.tool_of(node),
            inputs,
        }
    }

    /// Every node the subtask reads: its data inputs, then its tool.
    pub fn dependencies(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inputs.iter().copied().chain(self.tool)
    }
}

impl TaskGraph {
    /// Groups the interior nodes into subtasks: nodes sharing one tool
    /// node *and* one data-input set form a single multi-output
    /// subtask (Fig. 5). A composition has no tool to share, so each
    /// one is a subtask of its own. Subtasks come in topological order.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Cycle`] if raw edits introduced a cycle.
    pub fn subtasks(&self) -> Result<Vec<Subtask>, FlowError> {
        let mut subtasks: Vec<Subtask> = Vec::new();
        let mut by_application: HashMap<(NodeId, Vec<NodeId>), usize> = HashMap::new();
        for node in self.topo_order()? {
            if !self.is_expanded(node) {
                continue;
            }
            let own = Subtask::of_node(self, node);
            if let Some(tool) = own.tool {
                match by_application.entry((tool, own.inputs.clone())) {
                    Entry::Occupied(group) => {
                        subtasks[*group.get()].outputs.push(node);
                        continue;
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(subtasks.len());
                    }
                }
            }
            subtasks.push(own);
        }
        Ok(subtasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_schema::{fixtures, DepKind};
    use std::sync::Arc;

    #[test]
    fn fig5_groups_the_shared_tool_application() {
        let schema = Arc::new(fixtures::fig1());
        let flow = crate::fixtures::fig5(schema).expect("fixture");
        let subtasks = flow.subtasks().expect("acyclic");
        let interior = flow.interior().len();
        assert!(
            subtasks.len() < interior,
            "some outputs share one application"
        );
        let mut outputs: Vec<NodeId> = subtasks.iter().flat_map(|s| s.outputs.clone()).collect();
        outputs.sort();
        assert_eq!(outputs, flow.interior());
        for s in &subtasks {
            for &o in &s.outputs {
                let own = Subtask::of_node(&flow, o);
                assert_eq!((own.tool, own.inputs), (s.tool, s.inputs.clone()));
            }
        }
    }

    #[test]
    fn compositions_with_equal_inputs_stay_apart() {
        let schema = Arc::new(fixtures::fig1());
        let mut flow = TaskGraph::new(schema.clone());
        let node = |flow: &mut TaskGraph, name: &str| {
            flow.add_node_raw(schema.require(name).expect("known"))
                .expect("valid")
        };
        let models = node(&mut flow, "DeviceModels");
        let netlist = node(&mut flow, "Netlist");
        let circuits = [node(&mut flow, "Circuit"), node(&mut flow, "Circuit")];
        for c in circuits {
            flow.add_edge_raw(models, c, DepKind::Data).expect("edge");
            flow.add_edge_raw(netlist, c, DepKind::Data).expect("edge");
        }
        let subtasks = flow.subtasks().expect("acyclic");
        assert_eq!(subtasks.len(), 2);
        assert!(subtasks
            .iter()
            .all(|s| s.tool.is_none() && s.outputs.len() == 1));
    }
}
