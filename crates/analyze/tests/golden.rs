//! Golden-file tests: the exact diagnostic codes herclint reports for
//! the paper fixtures and for seeded-defect schemas and flows.

use std::sync::Arc;

use hercules_analyze::{
    lint_flow, lint_schema, lint_schema_spec, Diagnostics, JsonReport, LintConfig, Severity,
};
use hercules_flow::{fixtures as flow_fixtures, TaskGraph};
use hercules_schema::{fixtures, DepKind, DepSpec, EntityKind, EntitySpec, SchemaSpec};

fn entity(name: &str, kind: EntityKind) -> EntitySpec {
    EntitySpec {
        name: name.to_owned(),
        kind: Some(kind),
        supertype: None,
        description: String::new(),
        composite: false,
    }
}

fn subtype(name: &str, sup: &str) -> EntitySpec {
    EntitySpec {
        name: name.to_owned(),
        kind: None,
        supertype: Some(sup.to_owned()),
        description: String::new(),
        composite: false,
    }
}

fn dep(target: &str, source: &str, kind: DepKind, optional: bool) -> DepSpec {
    DepSpec {
        target: target.to_owned(),
        source: source.to_owned(),
        kind,
        optional,
    }
}

/// The paper's own schemas are clean under every schema pass.
#[test]
fn paper_schemas_are_clean() {
    for (name, schema) in [
        ("fig1", fixtures::fig1()),
        ("fig2", fixtures::fig2()),
        ("odyssey", fixtures::odyssey()),
    ] {
        let mut out = Diagnostics::new();
        lint_schema(&schema, &mut out);
        assert!(
            out.is_empty(),
            "{name} should lint clean, got:\n{}",
            out.render_text()
        );
    }
}

/// The paper's flow fixtures produce no error-severity findings; the
/// only expected codes are the advisory abstract-leaf note and the
/// advisory family-overlap note.
#[test]
fn paper_flows_have_no_errors() {
    type Fixture =
        fn(Arc<hercules_schema::TaskSchema>) -> Result<TaskGraph, hercules_flow::FlowError>;
    let schema = Arc::new(fixtures::fig1());
    let flows: [(&str, Fixture); 7] = [
        ("fig3", flow_fixtures::fig3),
        ("fig4_edited", flow_fixtures::fig4_edited),
        ("fig4_extracted", flow_fixtures::fig4_extracted),
        ("fig5", flow_fixtures::fig5),
        ("fig6", flow_fixtures::fig6),
        ("fig8_synthesis", flow_fixtures::fig8_synthesis),
        ("fig8_verification", flow_fixtures::fig8_verification),
    ];
    for (name, make) in flows {
        let flow = make(schema.clone()).expect("fixture builds");
        let mut out = Diagnostics::new();
        lint_flow(&flow, &mut out);
        assert_eq!(
            out.count(Severity::Error),
            0,
            "{name} should have no errors, got:\n{}",
            out.render_text()
        );
        for d in out.iter() {
            assert!(
                d.code == "HL0201" || d.code == "HL0303",
                "{name}: unexpected code {}: {d}",
                d.code
            );
        }
    }
}

/// A spec whose required arcs cycle gets the full-membership `HL0101`
/// report even though the build gate rejects it; the gate's own cycle
/// error is not duplicated.
#[test]
fn cyclic_spec_reports_hl0101_with_members() {
    let spec = SchemaSpec {
        entities: vec![
            entity("A", EntityKind::Data),
            entity("B", EntityKind::Data),
            entity("C", EntityKind::Data),
        ],
        deps: vec![
            dep("A", "B", DepKind::Data, false),
            dep("B", "A", DepKind::Data, false),
            dep("C", "A", DepKind::Data, false), // downstream, not in the cycle
        ],
    };
    let mut out = Diagnostics::new();
    let built = lint_schema_spec(&spec, &mut out);
    assert!(built.is_none(), "cyclic spec must not build");
    let hl0101: Vec<_> = out.iter().filter(|d| d.code == "HL0101").collect();
    assert_eq!(hl0101.len(), 1, "got:\n{}", out.render_text());
    assert!(hl0101[0].message.contains('A') && hl0101[0].message.contains('B'));
    assert!(
        !out.iter().any(|d| d.code == "HL0006"),
        "the gate's cycle error must not be repeated:\n{}",
        out.render_text()
    );
}

/// An optional arc breaks the loop: same shape, no finding.
#[test]
fn optional_arc_breaks_the_cycle() {
    let spec = SchemaSpec {
        entities: vec![entity("A", EntityKind::Data), entity("B", EntityKind::Data)],
        deps: vec![
            dep("A", "B", DepKind::Data, false),
            dep("B", "A", DepKind::Data, true),
        ],
    };
    let mut out = Diagnostics::new();
    let built = lint_schema_spec(&spec, &mut out);
    assert!(built.is_some(), "optional arcs break cycles");
    assert!(
        !out.iter().any(|d| d.code == "HL0101"),
        "got:\n{}",
        out.render_text()
    );
}

/// One seeded schema exercising every `HL01xx` pass at once; the exact
/// code set is the golden value.
fn seeded_bad_schema() -> SchemaSpec {
    SchemaSpec {
        entities: vec![
            // HL0102: wants inputs, nothing produces it.
            entity("Ghost", EntityKind::Data),
            entity("Src", EntityKind::Data),
            // HL0103: tool nothing references.
            entity("IdleTool", EntityKind::Tool),
            // HL0105: Sub shadows Base's construction method.
            entity("Base", EntityKind::Data),
            entity("Maker", EntityKind::Tool),
            subtype("Sub", "Base"),
            // HL0104: Inert never specializes anything.
            entity("Root", EntityKind::Data),
            subtype("Inert", "Root"),
            // HL0106: User requires a tool that wants inputs but has no
            // construction method.
            entity("SelfMade", EntityKind::Tool),
            entity("User", EntityKind::Data),
            entity("UserMaker", EntityKind::Tool),
            // HL0107: participates in nothing.
            entity("Lonely", EntityKind::Data),
        ],
        deps: vec![
            dep("Ghost", "Src", DepKind::Data, false),
            dep("Base", "Maker", DepKind::Functional, false),
            dep("SelfMade", "Src", DepKind::Data, false),
            dep("User", "SelfMade", DepKind::Data, false),
            dep("User", "UserMaker", DepKind::Functional, false),
        ],
    }
}

#[test]
fn seeded_schema_reports_every_schema_pass() {
    let mut out = Diagnostics::new();
    let built = lint_schema_spec(&seeded_bad_schema(), &mut out);
    assert!(built.is_some(), "the seeded schema is gate-valid");
    let codes: Vec<&str> = out.codes().into_iter().collect();
    assert_eq!(
        codes,
        ["HL0102", "HL0103", "HL0104", "HL0105", "HL0106", "HL0107"],
        "got:\n{}",
        out.render_text()
    );
}

/// One seeded flow exercising the `HL02xx` passes.
#[test]
fn seeded_flow_reports_flow_passes() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let editor = schema.require("CircuitEditor").expect("known");
    let edited = schema.require("EditedNetlist").expect("known");

    // HL0203: two interior nodes of one entity fed by the same producer.
    let ce = flow.add_node_raw(editor).expect("node");
    let e1 = flow.add_node_raw(edited).expect("node");
    let e2 = flow.add_node_raw(edited).expect("node");
    flow.add_edge_raw(ce, e1, DepKind::Functional)
        .expect("edge");
    flow.add_edge_raw(ce, e2, DepKind::Functional)
        .expect("edge");

    // HL0204: a component with no task to execute.
    let stimuli = schema.require("Stimuli").expect("known");
    flow.add_node_raw(stimuli).expect("node");

    // HL0205: a tool node feeding nothing.
    let simulator = schema.require("Simulator").expect("known");
    flow.add_node_raw(simulator).expect("node");

    let mut out = Diagnostics::new();
    lint_flow(&flow, &mut out);
    for code in ["HL0203", "HL0204", "HL0205"] {
        assert!(
            out.iter().any(|d| d.code == code),
            "expected {code}, got:\n{}",
            out.render_text()
        );
    }
}

/// Abstract nodes: interior is a warning, leaf only an advisory note.
#[test]
fn abstract_interior_warns_but_leaf_is_advisory() {
    let schema = Arc::new(fixtures::fig1());
    let netlist = schema.require("Netlist").expect("known");
    let edited = schema.require("EditedNetlist").expect("known");

    let mut flow = TaskGraph::new(schema.clone());
    let leaf = flow.add_node_raw(netlist).expect("node");
    let mut out = Diagnostics::new();
    lint_flow(&flow, &mut out);
    let d = out.iter().find(|d| d.code == "HL0201").expect("leaf note");
    assert_eq!(d.severity, Severity::Info);

    // Raw construction can smuggle in an abstract interior node, which
    // the expand gate would never allow.
    let mut flow = TaskGraph::new(schema.clone());
    let inner = flow.add_node_raw(netlist).expect("node");
    let prior = flow.add_node_raw(edited).expect("node");
    flow.add_edge_raw(prior, inner, DepKind::Data)
        .expect("edge");
    let _ = leaf;
    let mut out = Diagnostics::new();
    lint_flow(&flow, &mut out);
    let d = out
        .iter()
        .find(|d| d.code == "HL0201")
        .expect("interior warning");
    assert_eq!(d.severity, Severity::Warn);
}

/// Gate errors surface through the same diagnostics stream as lints.
#[test]
fn gate_errors_render_as_diagnostics() {
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let perf = schema.require("Performance").expect("known");
    let stim = schema.require("Stimuli").expect("known");
    let a = flow.add_node_raw(perf).expect("node");
    let b = flow.add_node_raw(stim).expect("node");
    // Duplicate data edge: one gate error per extra copy (HL0030).
    flow.add_edge_raw(b, a, DepKind::Data).expect("edge");
    flow.add_edge_raw(b, a, DepKind::Data).expect("edge");
    let mut out = Diagnostics::new();
    lint_flow(&flow, &mut out);
    assert!(
        out.iter()
            .any(|d| d.code == "HL0030" && d.severity == Severity::Error),
        "got:\n{}",
        out.render_text()
    );
}

/// Per-code suppression drops findings at collection time.
#[test]
fn suppression_silences_a_code() {
    let mut out = Diagnostics::with_config(LintConfig::new().suppressing("HL0107"));
    let built = lint_schema_spec(&seeded_bad_schema(), &mut out);
    assert!(built.is_some());
    assert!(!out.codes().contains("HL0107"));
    assert!(out.codes().contains("HL0102"), "other codes still reported");
}

/// The JSON wire format is valid JSON and round-trips.
#[test]
fn json_report_round_trips() {
    let mut out = Diagnostics::new();
    lint_schema_spec(&seeded_bad_schema(), &mut out);
    out.sort();
    let report = JsonReport::from_targets([("seeded", &out)]);
    let json = report.to_json().expect("serializes");
    let back: JsonReport = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(back, report);
    assert_eq!(back.diagnostics.len(), out.len());
    assert_eq!(back.errors, out.count(Severity::Error));
    assert_eq!(back.warnings, out.count(Severity::Warn));
    assert_eq!(back.infos, out.count(Severity::Info));
    assert!(back.diagnostics.iter().all(|d| d.target == "seeded"));
}

/// Every emitted code appears in the pass registry or the gate ranges.
#[test]
fn emitted_codes_are_registered() {
    let mut out = Diagnostics::new();
    lint_schema_spec(&seeded_bad_schema(), &mut out);
    for d in out.iter() {
        assert!(
            hercules_analyze::pass(d.code).is_some(),
            "{} missing from registry",
            d.code
        );
        assert_eq!(
            hercules_analyze::pass(d.code).unwrap().severity,
            d.severity,
            "{} severity drifted from its registry entry",
            d.code
        );
    }
}
