//! Parallel-hazard detector tests: seeded conflicts are flagged, the
//! paper's Fig. 5 flow is hazard-clean.

use std::sync::Arc;

use hercules_analyze::{lint_flow, Diagnostics, Severity};
use hercules_flow::{fixtures as flow_fixtures, TaskGraph};
use hercules_schema::fixtures;

fn codes_of(flow: &TaskGraph) -> Diagnostics {
    let mut out = Diagnostics::new();
    lint_flow(flow, &mut out);
    out
}

/// Two independent expansions of `EditedNetlist` (each with its own
/// `CircuitEditor`) are concurrently schedulable and both write the
/// same entity type: a seeded write/write conflict.
#[test]
fn seeded_write_write_conflict_is_flagged() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let edited = schema.require("EditedNetlist").expect("known");
    let a = flow.seed(edited).expect("seeds");
    flow.expand(a).expect("expands");
    let b = flow.seed(edited).expect("seeds");
    flow.expand(b).expect("expands");

    let out = codes_of(&flow);
    let hit = out
        .iter()
        .find(|d| d.code == "HL0301")
        .expect("write/write hazard flagged");
    assert_eq!(hit.severity, Severity::Warn);
    assert!(hit.message.contains("EditedNetlist"));
}

/// A subtask reading a *bound* `EditedNetlist` leaf while another
/// subtask concurrently produces a new `EditedNetlist`: read/write.
#[test]
fn seeded_read_write_conflict_is_flagged() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let edited = schema.require("EditedNetlist").expect("known");

    // Writer: a standalone EditedNetlist construction.
    let writer = flow.seed(edited).expect("seeds");
    flow.expand(writer).expect("expands");

    // Reader: a Circuit whose netlist input stays a bound leaf,
    // specialized to the exact type the writer produces.
    let circuit = schema.require("Circuit").expect("known");
    let c = flow.seed(circuit).expect("seeds");
    let kids = flow.expand(c).expect("expands");
    let netlist_leaf = kids
        .iter()
        .copied()
        .find(|&k| {
            let e = flow.entity_of(k).expect("live");
            schema.entity(e).name() == "Netlist"
        })
        .expect("circuit has a netlist input");
    flow.specialize(netlist_leaf, edited).expect("specializes");

    let out = codes_of(&flow);
    let hit = out
        .iter()
        .find(|d| d.code == "HL0302")
        .expect("read/write hazard flagged");
    assert_eq!(hit.severity, Severity::Warn);
    assert!(hit.message.contains("EditedNetlist"));
}

/// Fig. 5 runs two branches concurrently, but they write *different*
/// members of the netlist family — no write/write or read/write
/// conflict, only the advisory family-overlap note.
#[test]
fn fig5_is_hazard_clean() {
    let schema = Arc::new(fixtures::fig1());
    let flow = flow_fixtures::fig5(schema).expect("fixture");
    let out = codes_of(&flow);
    assert!(
        !out.iter().any(|d| d.code == "HL0301" || d.code == "HL0302"),
        "fig5 must be hazard-clean, got:\n{}",
        out.render_text()
    );
    assert_eq!(out.count(Severity::Error), 0);
}

/// Dependent subtasks are NOT concurrent: a chain A -> B writing the
/// same type is ordered, so no hazard fires.
#[test]
fn ordered_subtasks_do_not_conflict() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let edited = schema.require("EditedNetlist").expect("known");
    let top = flow.seed(edited).expect("seeds");
    // Expand with the optional prior-netlist arc included, then
    // specialize and expand the prior: an EditedNetlist feeding an
    // EditedNetlist — same type, strictly ordered.
    let netlist = schema.require("Netlist").expect("known");
    let opt = hercules_flow::Expansion::new().with_optional(netlist);
    let kids = flow.expand_with(top, &opt).expect("expands");
    let prior = kids
        .iter()
        .copied()
        .find(|&k| {
            let e = flow.entity_of(k).expect("live");
            schema.entity(e).name() == "Netlist"
        })
        .expect("optional prior netlist");
    flow.specialize(prior, edited).expect("specializes");
    flow.expand(prior).expect("expands");

    let out = codes_of(&flow);
    assert!(
        !out.iter().any(|d| d.code == "HL0301" || d.code == "HL0302"),
        "ordered writes are not hazards, got:\n{}",
        out.render_text()
    );
}

/// The family-overlap advisory fires for concurrent writes to distinct
/// members of one subtype family (Fig. 6's edit and extract branches).
#[test]
fn family_overlap_is_advisory_only() {
    let schema = Arc::new(fixtures::fig1());
    let flow = flow_fixtures::fig6(schema).expect("fixture");
    let out = codes_of(&flow);
    let hit = out
        .iter()
        .find(|d| d.code == "HL0303")
        .expect("family overlap noted");
    assert_eq!(hit.severity, Severity::Info);
    assert!(hit.message.contains("Netlist"));
}

/// Two `Circuit` compositions over the same device models and netlist:
/// a composition has no tool to share, so the engine schedules each
/// one alone and they may run concurrently, both producing `Circuit`.
/// The detector takes the engine's grouping, so this is one
/// write/write hazard and nothing else.
#[test]
fn tool_less_compositions_with_equal_inputs_are_separate_subtasks() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let mut node = |name: &str| {
        flow.add_node_raw(schema.require(name).expect("known"))
            .expect("valid")
    };
    let models = node("DeviceModels");
    let netlist = node("Netlist");
    let circuits = [node("Circuit"), node("Circuit")];
    for c in circuits {
        flow.add_edge_raw(models, c, hercules_schema::DepKind::Data)
            .expect("edge");
        flow.add_edge_raw(netlist, c, hercules_schema::DepKind::Data)
            .expect("edge");
    }
    flow.validate_for_execution().expect("a complete flow");

    let mut out = codes_of(&flow);
    out.sort();
    let hazards: Vec<String> = out
        .iter()
        .filter(|d| d.code.starts_with("HL03"))
        .map(|d| d.to_string())
        .collect();
    assert_eq!(
        hazards,
        vec![
            "warn[HL0301] subflow n2+n3: subtasks [n2] and [n3] can run in parallel and both \
             produce `Circuit`; which instance becomes the latest version is schedule-dependent"
                .to_owned()
        ]
    );
}
