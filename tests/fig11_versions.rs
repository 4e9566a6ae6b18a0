//! Experiment F11: version trees vs flow traces (Fig. 11). The same
//! five-version editing scenario is recorded three ways:
//!
//! * the derivation history (this paper) — from which both the version
//!   tree *and* the tools are recoverable;
//! * a conventional [`VersionTreeStore`] — which loses the tools;
//!
//! demonstrating "a flow trace is a semantically richer superset of a
//! version tree".

use hercules::baseline::VersionTreeStore;
use hercules::exec::EncapsulationRegistry;
use hercules::history::{Derivation, FlowTrace, HistoryDb, InstanceId, Metadata, Payload};
use hercules::schema::fixtures;
use hercules::store::{decode_op, scan_frames, CheckpointKind, JournalOp, Workspace};
use hercules::Session;
use std::fs;
use std::sync::Arc;

/// Records the Fig. 11 scenario: c1 → c2 → {c3, c4 → c5} edited with a
/// circuit editor.
fn record_scenario() -> (HistoryDb, Vec<InstanceId>) {
    let schema = Arc::new(fixtures::fig1());
    let mut db = HistoryDb::new(schema.clone());
    let editor = db
        .record_primary(
            schema.require("CircuitEditor").expect("known"),
            Metadata::by("cad").named("Cct E."),
            b"sced",
        )
        .expect("records");
    let edited = schema.require("EditedNetlist").expect("known");
    let edit = |db: &mut HistoryDb, name: &str, from: Option<InstanceId>| {
        db.record_derived(
            edited,
            Metadata::by("jbb").named(name),
            name.as_bytes(),
            Derivation::by_tool(editor, from),
        )
        .expect("records")
    };
    let c1 = edit(&mut db, "c1", None);
    let c2 = edit(&mut db, "c2", Some(c1));
    let c3 = edit(&mut db, "c3", Some(c2));
    let c4 = edit(&mut db, "c4", Some(c2));
    let c5 = edit(&mut db, "c5", Some(c4));
    (db, vec![editor, c1, c2, c3, c4, c5])
}

#[test]
fn version_tree_is_a_projection_of_the_history() {
    let (db, ids) = record_scenario();
    let schema = db.schema().clone();
    let forest = db
        .version_forest(schema.require("EditedNetlist").expect("known"))
        .expect("builds");

    // Fig. 11a exactly.
    assert_eq!(forest.roots(), &[ids[1]]);
    assert_eq!(forest.children(ids[2]), &[ids[3], ids[4]]);
    assert_eq!(forest.children(ids[4]), &[ids[5]]);
    assert_eq!(forest.depth(ids[5]), 3);
}

#[test]
fn flow_trace_shows_the_tools_a_version_tree_loses() {
    let (db, ids) = record_scenario();

    // Flow trace of c5 (Fig. 11b): versions AND the editor.
    let trace = FlowTrace::backward(&db, &[ids[5]]).expect("builds");
    assert!(
        trace.node_of(ids[0]).is_some(),
        "the editor is in the trace"
    );
    let text = trace.to_text(&db);
    assert!(text.contains("Cct E."), "tool shown per version");

    // The equivalent conventional version tree records the same data
    // relationships but cannot answer "which tool created c2".
    let mut store = VersionTreeStore::new();
    let v1 = store.check_in("c1", None);
    let v2 = store.check_in("c2", Some(v1));
    let _v3 = store.check_in("c3", Some(v2));
    let v4 = store.check_in("c4", Some(v2));
    let _v5 = store.check_in("c5", Some(v4));
    assert_eq!(store.len(), 5);
    // Structure matches ...
    assert_eq!(store.children(v2).len(), 2);
    // ... but the record type has no tool field at all: the superset
    // claim. (Nothing to assert beyond the API shape; the richer trace
    // above answered the tool query.)
}

#[test]
fn trace_is_reexecutable_as_a_flow() {
    // "It also allows previously executed tasks to be recalled,
    // possibly modified, and executed."
    let (db, ids) = record_scenario();
    let trace = FlowTrace::backward(&db, &[ids[2]]).expect("builds");
    let graph = trace.graph();
    graph.validate().expect("a trace is a valid task graph");
    assert_eq!(graph.len(), 3, "editor + c1 + c2");
    // The c2 node's producer edges mirror the derivation.
    let c2_node = trace.node_of(ids[2]).expect("member");
    assert_eq!(graph.tool_of(c2_node), trace.node_of(ids[0]));
}

#[test]
fn shared_physical_data_across_versions() {
    // Footnote 5: identical payloads share one stored blob.
    let (mut db, ids) = record_scenario();
    let schema = db.schema().clone();
    let edited = schema.require("EditedNetlist").expect("known");
    let editor = ids[0];
    let blobs_before = db.store().blob_count();
    // A "new version" whose bytes are identical to c5's.
    let copy = db
        .record_derived(
            edited,
            Metadata::by("jbb").named("c5-copy"),
            b"c5",
            Derivation::by_tool(editor, [ids[5]]),
        )
        .expect("records");
    assert_eq!(db.store().blob_count(), blobs_before, "blob shared");
    assert_eq!(db.shares_data_with(copy).expect("recorded"), Some(ids[5]));

    // The sharing survives save → checkpoint → open: the checkpoint's
    // snapshot frame holds c5's bytes once and names c5 for the copy.
    let root = std::env::temp_dir().join(format!("hercules-fig11-{}", std::process::id()));
    let mut session = Session::new(schema, EncapsulationRegistry::default(), "jbb");
    *session.db_mut() = db;
    let mut ws = Workspace::create(&root, &session).expect("saves");
    let kind = ws.checkpoint(&session).expect("checkpoints");
    assert_eq!(kind, CheckpointKind::Appended);
    drop(ws);
    let journal = fs::read(root.join("journal-0.log")).expect("journal written");
    let frames = scan_frames(&journal).payloads;
    let last = frames.last().expect("the snapshot frame");
    let Ok(JournalOp::Snapshot(spec)) = decode_op(last) else {
        panic!("the checkpoint appended a snapshot frame");
    };
    let c5_bytes = Some(Payload::Inline(b"c5".to_vec().into()));
    let records = &spec.history.instances;
    assert_eq!(records.iter().filter(|i| i.data == c5_bytes).count(), 1);
    assert_eq!(records[ids[5].raw() as usize].data, c5_bytes);
    assert_eq!(
        records[copy.raw() as usize].data,
        Some(Payload::Shared(ids[5].raw()))
    );

    let (_ws, reopened, _) =
        Workspace::open_session(&root, |_| EncapsulationRegistry::default()).expect("opens");
    assert_eq!(reopened.db().store().blob_count(), blobs_before);
    assert_eq!(
        reopened.db().data_of(copy).expect("recorded"),
        Some(&b"c5"[..])
    );
    assert_eq!(
        reopened.db().shares_data_with(copy).expect("recorded"),
        Some(ids[5])
    );
    fs::remove_dir_all(&root).ok();
}
