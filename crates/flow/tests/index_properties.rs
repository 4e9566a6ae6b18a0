//! The per-node adjacency index against full edge scans: over random
//! sequences of checked and raw edits, `producers_of`/`consumers_of`
//! return exactly the edges a scan of every edge finds, in the same
//! order, and `validate_for_execution_all` (one edge matching per
//! node) reports exactly what the two-pass check it replaced reported.

use std::sync::Arc;

use hercules_flow::{Expansion, FlowEdge, FlowError, NodeId, TaskGraph};
use hercules_schema::{fixtures, DepKind, EntityTypeId, TaskSchema};
use proptest::prelude::*;

/// One random edit, checked or raw.
#[derive(Debug, Clone)]
enum Op {
    Seed(usize),
    Expand(usize),
    Specialize(usize, usize),
    Unexpand(usize),
    RawNode(usize),
    RawEdge(usize, usize, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64).prop_map(Op::Seed),
        (0usize..64).prop_map(Op::Expand),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Specialize(a, b)),
        (0usize..64).prop_map(Op::Unexpand),
        (0usize..64).prop_map(Op::RawNode),
        (0usize..64, 0usize..64, prop::bool::ANY).prop_map(|(a, b, f)| Op::RawEdge(a, b, f)),
    ]
}

/// Applies an operation best-effort: rejected edits are legal.
fn apply(flow: &mut TaskGraph, schema: &Arc<TaskSchema>, op: &Op) {
    let nodes: Vec<NodeId> = flow.node_ids().collect();
    let pick_node = |i: usize| nodes.get(i % nodes.len().max(1)).copied();
    let pick_entity = |i: usize| EntityTypeId::from_index(i % schema.len());
    match *op {
        Op::Seed(e) => {
            let _ = flow.seed(pick_entity(e));
        }
        Op::Expand(n) => {
            if let Some(node) = pick_node(n) {
                let _ = flow.expand_with(node, &Expansion::new());
            }
        }
        Op::Specialize(n, e) => {
            if let Some(node) = pick_node(n) {
                let _ = flow.specialize(node, pick_entity(e));
            }
        }
        Op::Unexpand(n) => {
            if let Some(node) = pick_node(n) {
                let _ = flow.unexpand(node);
            }
        }
        Op::RawNode(e) => {
            let _ = flow.add_node_raw(pick_entity(e));
        }
        Op::RawEdge(a, b, functional) => {
            if let (Some(source), Some(target)) = (pick_node(a), pick_node(b)) {
                let kind = if functional {
                    DepKind::Functional
                } else {
                    DepKind::Data
                };
                let _ = flow.add_edge_raw(source, target, kind);
            }
        }
    }
}

/// Every node slot the flow ever had, dead ones included, plus one
/// past the end.
fn slots(flow: &TaskGraph) -> Vec<NodeId> {
    let end = flow
        .edges()
        .flat_map(|e| [e.source().index(), e.target().index()])
        .chain(flow.node_ids().map(NodeId::index))
        .max()
        .map_or(0, |m| m + 2);
    (0..end).map(NodeId::from_index).collect()
}

/// The check `validate_for_execution_all` replaced: every structural
/// violation, then a second edge matching per interior node for its
/// missing required dependencies.
fn two_pass_reference(flow: &TaskGraph) -> Vec<FlowError> {
    let mut out = flow.validate_all();
    for id in flow.interior() {
        let Ok(missing) = flow.missing_deps(id) else {
            continue;
        };
        let Ok(entity) = flow.entity_of(id) else {
            continue;
        };
        for dep in missing {
            out.push(FlowError::IncompleteExpansion {
                entity: flow.schema().entity(entity).name().to_owned(),
                missing: flow.schema().entity(dep.source()).name().to_owned(),
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every edit, the indexed adjacency of every node slot is
    /// the edge scan's, in edge order.
    #[test]
    fn indexed_adjacency_equals_edge_scans(ops in prop::collection::vec(op_strategy(), 0..48)) {
        let schema = Arc::new(fixtures::fig1());
        let mut flow = TaskGraph::new(schema.clone());
        for op in &ops {
            apply(&mut flow, &schema, op);
            for id in slots(&flow) {
                let producers: Vec<&FlowEdge> = flow.producers_of(id).collect();
                let scanned: Vec<&FlowEdge> = flow.edges().filter(|e| e.target() == id).collect();
                prop_assert_eq!(producers, scanned, "producers of {} after {:?}", id, op);
                let consumers: Vec<&FlowEdge> = flow.consumers_of(id).collect();
                let scanned: Vec<&FlowEdge> = flow.edges().filter(|e| e.source() == id).collect();
                prop_assert_eq!(consumers, scanned, "consumers of {} after {:?}", id, op);
            }
        }
        // A sub-flow indexes its own edges.
        for root in flow.node_ids() {
            let (sub, _) = flow.subflow(root).expect("live root");
            for id in slots(&sub) {
                let scanned: Vec<&FlowEdge> = sub.edges().filter(|e| e.target() == id).collect();
                prop_assert_eq!(sub.producers_of(id).collect::<Vec<_>>(), scanned);
            }
        }
    }

    /// One matching per node reports what two matchings did, in the
    /// same order, on flows raw edits made invalid or incomplete.
    #[test]
    fn execution_validation_equals_the_two_pass_reference(
        ops in prop::collection::vec(op_strategy(), 1..48)
    ) {
        let schema = Arc::new(fixtures::fig1());
        let mut flow = TaskGraph::new(schema.clone());
        for op in &ops {
            apply(&mut flow, &schema, op);
        }
        let reference = two_pass_reference(&flow);
        prop_assert_eq!(flow.validate_for_execution_all(), reference.clone());
        prop_assert_eq!(flow.validate_for_execution().err(), reference.into_iter().next());
    }
}

/// The generator reaches both kinds of flow the reference tells apart:
/// structurally invalid ones and valid but incomplete ones.
#[test]
fn generated_flows_include_invalid_and_incomplete_ones() {
    let schema = Arc::new(fixtures::fig1());
    let (mut invalid, mut incomplete) = (false, false);
    let mut rng = proptest::TestRng::new("generated_flows_include_invalid_and_incomplete_ones");
    let strategy = prop::collection::vec(op_strategy(), 1..48);
    for _ in 0..256 {
        let ops = strategy.generate(&mut rng);
        let mut flow = TaskGraph::new(schema.clone());
        for op in &ops {
            apply(&mut flow, &schema, op);
        }
        let errors = flow.validate_for_execution_all();
        invalid |= !flow.validate_all().is_empty();
        incomplete |= errors
            .iter()
            .any(|e| matches!(e, FlowError::IncompleteExpansion { .. }));
    }
    assert!(
        invalid && incomplete,
        "invalid: {invalid}, incomplete: {incomplete}"
    );
}
