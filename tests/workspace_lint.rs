//! Workspace lint (`HL04xx`) tests: a clean workspace, one whose
//! journal ends in free space, a torn journal tail, a corrupt frame, a
//! missing manifest, a missing or foreign base, an orphan generation, a
//! replay failure — plus conflict prediction between two saved
//! workspaces and the whole-analyzer breadth check.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hercules::audit::lint_workspace;
use hercules::store::{encode_frame, encode_op, scan_frames, CheckpointKind, Workspace};
use hercules::ui::Ui;
use hercules::{JournalOp, Session};
use hercules_analyze::{lint_flow, lint_schema_spec, Diagnostics, Layer, Severity};
use hercules_flow::TaskGraph;
use hercules_schema::fixtures;

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("herclint-ws-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// A saved session with some journaled work on top.
fn seeded_workspace(tag: &str) -> PathBuf {
    let root = temp_root(tag);
    let session = Session::odyssey("auditor");
    let mut ws = Workspace::create(&root, &session).expect("creates");
    let op = JournalOp::Flow(hercules::FlowOp::Seed {
        entity: "Performance".to_owned(),
    });
    ws.append(&op).expect("appends");
    root
}

fn lint(root: &std::path::Path) -> Diagnostics {
    let mut out = Diagnostics::new();
    lint_workspace(root, &mut out);
    out
}

/// Writes `bytes` into `journal` right after its last frame, where the
/// next write would land, and ends the file there, dropping its free
/// space.
fn write_after_frames(journal: &Path, bytes: &[u8]) {
    let mut buf = fs::read(journal).expect("reads");
    buf.truncate(scan_frames(&buf).valid_len);
    buf.extend_from_slice(bytes);
    fs::write(journal, &buf).expect("writes");
}

#[test]
fn a_non_zero_byte_in_free_space_is_a_torn_tail() {
    let root = seeded_workspace("dirty-free-space");
    let journal = root.join("journal-0.log");
    let mut buf = fs::read(&journal).expect("reads");
    let scan = scan_frames(&buf);
    buf[scan.valid_len + scan.free / 2] = 0x01;
    fs::write(&journal, &buf).expect("writes");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0406").expect("HL0406");
    assert_eq!(d.severity, Severity::Warn);
    assert!(
        d.message
            .contains(&format!("tail of {} byte(s)", scan.free)),
        "{}",
        d.message
    );
    assert!(
        d.message.contains("recovery will truncate it"),
        "{}",
        d.message
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn clean_workspace_has_no_workspace_findings() {
    let root = seeded_workspace("clean");
    let journal = fs::read(root.join("journal-0.log")).expect("reads");
    assert!(scan_frames(&journal).free > 0, "the append left free space");
    let out = lint(&root);
    assert!(
        !out.iter().any(|d| d.code.starts_with("HL04")),
        "got:\n{}",
        out.render_text()
    );
    assert_eq!(out.count(Severity::Error), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn missing_manifest_is_an_error() {
    let root = temp_root("nomanifest");
    fs::create_dir_all(&root).expect("mkdir");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0401").expect("HL0401");
    assert_eq!(d.severity, Severity::Error);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_manifest_is_an_error() {
    let root = temp_root("badmanifest");
    fs::create_dir_all(&root).expect("mkdir");
    fs::write(root.join("MANIFEST"), b"not a manifest").expect("writes");
    let out = lint(&root);
    assert!(out.iter().any(|d| d.code == "HL0402"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_journal_tail_is_a_warning_not_an_error() {
    let root = seeded_workspace("torn");
    write_after_frames(&root.join("journal-0.log"), &[0xde, 0xad, 0xbe]); // 3 torn bytes
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0406").expect("HL0406");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("3 byte(s)"));
    // The valid prefix still replays; no replay errors.
    assert!(!out.iter().any(|d| d.code == "HL0408"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn checksummed_garbage_frame_is_an_error() {
    let root = seeded_workspace("badframe");
    let frame = encode_frame(b"not an operation").expect("frames");
    write_after_frames(&root.join("journal-0.log"), &frame);
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0407").expect("HL0407");
    assert_eq!(d.severity, Severity::Error);
    // Frames 0 and 1 are the base and the seed.
    assert!(d.span.name.contains("frame 2"), "span: {}", d.span);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unreplayable_operation_is_an_error() {
    let root = seeded_workspace("badreplay");
    let op = JournalOp::Flow(hercules::FlowOp::Seed {
        entity: "NoSuchEntity".to_owned(),
    });
    write_after_frames(
        &root.join("journal-0.log"),
        &encode_op(&op).expect("frames"),
    );
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0408").expect("HL0408");
    assert_eq!(d.severity, Severity::Error);
    let _ = fs::remove_dir_all(&root);
}

/// A saved session whose journal holds a frame, then a checkpoint's
/// snapshot frame, then one more frame.
fn snapshot_workspace(tag: &str) -> PathBuf {
    let root = temp_root(tag);
    let mut session = Session::odyssey("auditor");
    let mut ws = Workspace::create(&root, &session).expect("creates");
    let seed = |entity: &str| {
        JournalOp::Flow(hercules::FlowOp::Seed {
            entity: entity.to_owned(),
        })
    };
    for (k, entity) in ["Performance", "Layout"].into_iter().enumerate() {
        let op = seed(entity);
        op.replay(&mut session).expect("replays");
        ws.append(&op).expect("appends");
        if k == 0 {
            let kind = ws.checkpoint(&session).expect("checkpoints");
            assert_eq!(kind, CheckpointKind::Appended);
        }
    }
    root
}

#[test]
fn workspace_with_a_snapshot_frame_has_no_workspace_findings() {
    let root = snapshot_workspace("snapshot");
    let out = lint(&root);
    assert!(
        !out.iter().any(|d| d.code.starts_with("HL04")),
        "got:\n{}",
        out.render_text()
    );
    assert_eq!(out.count(Severity::Error), 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unreplayable_operation_after_a_snapshot_is_an_error_at_its_frame() {
    let root = snapshot_workspace("snapshot-badreplay");
    let op = JournalOp::Flow(hercules::FlowOp::Seed {
        entity: "NoSuchEntity".to_owned(),
    });
    write_after_frames(
        &root.join("journal-0.log"),
        &encode_op(&op).expect("frames"),
    );
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0408").expect("HL0408");
    assert_eq!(d.severity, Severity::Error);
    // Frames 0–3 are the base, the seed, the snapshot and the second
    // seed.
    assert_eq!(d.span.name, "frame 4", "span: {}", d.span);
    let _ = fs::remove_dir_all(&root);
}

/// The first segment holds the base as its frame 0: without it both
/// the base (HL0403) and the journal (HL0405) are missing.
#[test]
fn missing_checkpoint_and_journal_are_errors() {
    let root = seeded_workspace("missingfiles");
    fs::remove_file(root.join("journal-0.log")).expect("removes");
    let out = lint(&root);
    assert!(out.iter().any(|d| d.code == "HL0403"));
    assert!(out.iter().any(|d| d.code == "HL0405"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_torn_base_is_missing() {
    let root = seeded_workspace("tornbase");
    let journal = root.join("journal-0.log");
    let buf = fs::read(&journal).expect("reads");
    fs::write(&journal, &buf[..100]).expect("tears frame 0");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0403").expect("HL0403");
    assert_eq!(d.severity, Severity::Error);
    assert!(!out.iter().any(|d| d.code == "HL0404"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_base_that_is_not_a_snapshot_does_not_restore() {
    let root = seeded_workspace("foreignbase");
    let op = JournalOp::Flow(hercules::FlowOp::Seed {
        entity: "Layout".to_owned(),
    });
    let frame = encode_op(&op).expect("frames");
    fs::write(root.join("journal-0.log"), frame).expect("writes");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0404").expect("HL0404");
    assert_eq!(d.severity, Severity::Error);
    assert!(!out.iter().any(|d| d.code == "HL0403"));
    let _ = fs::remove_dir_all(&root);
}

/// Rewrites the MANIFEST, as the one CRC frame the store writes, with
/// an explicit segment chain and fencing token, leaving the generation
/// and its files untouched.
fn rewrite_manifest(root: &Path, segments: &[&str], token: u64) {
    let segs = segments
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(",");
    let doc = format!("{{\"generation\":0,\"segments\":[{segs}],\"fencing_token\":{token}}}");
    fs::write(
        root.join("MANIFEST"),
        encode_frame(doc.as_bytes()).expect("frames"),
    )
    .expect("writes manifest");
}

#[test]
fn segment_chain_gap_and_misorder_are_errors() {
    let root = seeded_workspace("seggap");
    // A gap: sequence 2 sits where 1 should be.
    fs::write(root.join("journal-0.2.log"), b"").expect("writes");
    rewrite_manifest(&root, &["journal-0.log", "journal-0.2.log"], 1);
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0410").expect("HL0410");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("gap, duplicate, or misordered"),
        "{}",
        d.message
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn well_formed_segment_chain_is_clean() {
    let root = seeded_workspace("segclean");
    let head = fs::read(root.join("journal-0.log")).expect("reads");
    // Split the real journal: frames stay in seq 0, seq 1 starts empty.
    // A sealed segment ends at its last frame; only the last one may
    // hold free space.
    let frames = &head[..scan_frames(&head).valid_len];
    fs::write(root.join("journal-0.1.log"), b"").expect("writes");
    fs::write(root.join("journal-0.log"), frames).expect("writes");
    rewrite_manifest(&root, &["journal-0.log", "journal-0.1.log"], 1);
    let out = lint(&root);
    assert!(
        !out.iter().any(|d| d.code.starts_with("HL04")),
        "got:\n{}",
        out.render_text()
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn quarantine_files_are_reported_as_info() {
    let root = seeded_workspace("quarantine");
    fs::write(root.join("journal-0.log.quarantined-0"), b"\xde\xad").expect("writes");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0411").expect("HL0411");
    assert_eq!(d.severity, Severity::Info);
    assert!(d.message.contains("quarantined"), "{}", d.message);
    // Quarantine files are not miscounted as orphan generations.
    assert!(!out.iter().any(|d| d.code == "HL0409"));
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn expired_and_superseded_leases_are_warnings() {
    let root = seeded_workspace("lease");
    // Expired: a plausible owner whose expiry is long past.
    fs::write(
        root.join("LEASE"),
        b"{\"owner\":\"ghost\",\"expires_unix_ms\":1000,\"token\":1}",
    )
    .expect("writes");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0412").expect("HL0412");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("expired"), "{}", d.message);

    // Superseded: token behind the manifest's fencing token.
    rewrite_manifest(&root, &["journal-0.log"], 7);
    let far = u64::MAX / 2;
    fs::write(
        root.join("LEASE"),
        format!("{{\"owner\":\"ghost\",\"expires_unix_ms\":{far},\"token\":1}}"),
    )
    .expect("writes");
    let out = lint(&root);
    let d = out.iter().find(|d| d.code == "HL0412").expect("HL0412");
    assert!(d.message.contains("deposed"), "{}", d.message);

    // Live and matching: no finding.
    fs::write(
        root.join("LEASE"),
        format!("{{\"owner\":\"ghost\",\"expires_unix_ms\":{far},\"token\":7}}"),
    )
    .expect("writes");
    let out = lint(&root);
    assert!(
        !out.iter().any(|d| d.code == "HL0412"),
        "got:\n{}",
        out.render_text()
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn stray_generation_files_are_reported() {
    let root = seeded_workspace("orphan");
    fs::write(root.join("journal-99.log"), b"").expect("writes");
    fs::write(root.join("journal-99.1.log"), b"").expect("writes");
    let out = lint(&root);
    let orphans: Vec<_> = out.iter().filter(|d| d.code == "HL0409").collect();
    assert_eq!(orphans.len(), 2, "got:\n{}", out.render_text());
    assert!(orphans.iter().all(|d| d.severity == Severity::Info));
    let _ = fs::remove_dir_all(&root);
}

/// `save` over a workspace written before journal frames starts
/// generation 0 and leaves the old `checkpoint-0.json` behind, since
/// nothing deletes a file the store cannot read; HL0409 names it.
#[test]
fn a_pre_frames_checkpoint_left_by_save_is_reported() {
    let root = temp_root("pre-frames-leftover");
    fs::create_dir_all(&root).expect("creates");
    fs::write(
        root.join("MANIFEST"),
        br#"{"generation":0,"checkpoint":"checkpoint-0.json","segments":["journal-0.log"],"fencing_token":1}"#,
    )
    .expect("writes");
    fs::write(
        root.join("checkpoint-0.json"),
        br#"{"schema":{},"history":{"instances":[]}}"#,
    )
    .expect("writes");
    fs::write(root.join("journal-0.log"), b"").expect("writes");
    Workspace::create(&root, &Session::odyssey("auditor")).expect("saves over it");
    assert!(
        root.join("checkpoint-0.json").exists(),
        "save deletes nothing it cannot read"
    );

    let out = lint(&root);
    let leftovers: Vec<_> = out.iter().filter(|d| d.code == "HL0409").collect();
    assert_eq!(leftovers.len(), 1, "got:\n{}", out.render_text());
    assert_eq!(leftovers[0].severity, Severity::Info);
    assert!(
        leftovers[0].message.contains("`checkpoint-0.json`")
            && leftovers[0]
                .message
                .contains("no layout the store reads uses it"),
        "got: {}",
        leftovers[0].message
    );
    let _ = fs::remove_dir_all(&root);
}

/// Every file under `root`, by name, with its bytes.
fn dir_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(root)
        .expect("lists")
        .map(|e| e.expect("entry").path())
        .map(|path| {
            let name = path.file_name().expect("named").to_string_lossy();
            (name.into_owned(), fs::read(&path).expect("reads"))
        })
        .collect();
    files.sort();
    files
}

/// `herclint --conflicts` takes two saved workspaces, recovers each
/// session read-only, and reports that both flows produce
/// `Performance` (HL0505 write/write). Neither workspace changes.
#[test]
fn conflicts_between_two_saved_workspaces() {
    let roots = ["alice", "bob"].map(|user| {
        let root = temp_root(user);
        let mut ui = Ui::new(Session::odyssey(user));
        ui.execute(&format!("save {}", root.display()))
            .expect("saves");
        for cmd in ["goal Performance", "expand n0"] {
            ui.execute(cmd).expect(cmd);
        }
        root
    });
    let before = roots.each_ref().map(|root| dir_files(root));
    let out = Command::new(env!("CARGO_BIN_EXE_herclint"))
        .arg("--conflicts")
        .args(&roots)
        .output()
        .expect("herclint runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.lines().any(|l| l.contains("HL0505")
            && l.contains("`alice` and `bob` both plan to produce `Performance`")),
        "{stdout}"
    );
    assert_eq!(roots.each_ref().map(|root| dir_files(root)), before);
    for root in &roots {
        let _ = fs::remove_dir_all(root);
    }
}

/// The acceptance breadth check: across schema, flow, hazard, and
/// workspace targets herclint reports at least ten distinct stable
/// codes spanning at least three registry layers.
#[test]
fn at_least_ten_distinct_codes_across_layers() {
    let mut all = Diagnostics::new();

    // Schema layer: a cyclic spec plus a gate-valid spec with every
    // schema-pass defect (mirrors the golden tests).
    use hercules_schema::{DepKind, DepSpec, EntityKind, EntitySpec, SchemaSpec};
    let ent = |name: &str, kind| EntitySpec {
        name: name.to_owned(),
        kind: Some(kind),
        supertype: None,
        description: String::new(),
        composite: false,
    };
    let sub = |name: &str, sup: &str| EntitySpec {
        name: name.to_owned(),
        kind: None,
        supertype: Some(sup.to_owned()),
        description: String::new(),
        composite: false,
    };
    let dep = |target: &str, source: &str, kind, optional| DepSpec {
        target: target.to_owned(),
        source: source.to_owned(),
        kind,
        optional,
    };
    let cyclic = SchemaSpec {
        entities: vec![ent("A", EntityKind::Data), ent("B", EntityKind::Data)],
        deps: vec![
            dep("A", "B", DepKind::Data, false),
            dep("B", "A", DepKind::Data, false),
        ],
    };
    lint_schema_spec(&cyclic, &mut all);
    let bad = SchemaSpec {
        entities: vec![
            ent("Ghost", EntityKind::Data),
            ent("Src", EntityKind::Data),
            ent("IdleTool", EntityKind::Tool),
            ent("Base", EntityKind::Data),
            ent("Maker", EntityKind::Tool),
            sub("Sub", "Base"),
            ent("Root", EntityKind::Data),
            sub("Inert", "Root"),
            ent("SelfMade", EntityKind::Tool),
            ent("User", EntityKind::Data),
            ent("UserMaker", EntityKind::Tool),
            ent("Lonely", EntityKind::Data),
        ],
        deps: vec![
            dep("Ghost", "Src", DepKind::Data, false),
            dep("Base", "Maker", DepKind::Functional, false),
            dep("SelfMade", "Src", DepKind::Data, false),
            dep("User", "SelfMade", DepKind::Data, false),
            dep("User", "UserMaker", DepKind::Functional, false),
        ],
    };
    lint_schema_spec(&bad, &mut all);

    // Flow + hazard layers: seeded defects and a seeded conflict.
    let schema = Arc::new(fixtures::fig1());
    let mut flow = TaskGraph::new(schema.clone());
    let edited = schema.require("EditedNetlist").expect("known");
    let a = flow.seed(edited).expect("seeds");
    flow.expand(a).expect("expands");
    let b = flow.seed(edited).expect("seeds");
    flow.expand(b).expect("expands");
    flow.add_node_raw(schema.require("Simulator").expect("known"))
        .expect("node");
    lint_flow(&flow, &mut all);

    // Workspace layer: a torn tail and an orphan generation.
    let root = seeded_workspace("breadth");
    write_after_frames(&root.join("journal-0.log"), &[0xff; 5]);
    fs::write(root.join("journal-7.log"), b"").expect("writes");
    lint_workspace(&root, &mut all);
    let _ = fs::remove_dir_all(&root);

    let codes = all.codes();
    assert!(
        codes.len() >= 10,
        "expected >= 10 distinct codes, got {}: {:?}",
        codes.len(),
        codes
    );
    let layers: std::collections::BTreeSet<Layer> = codes
        .iter()
        .filter_map(|c| hercules_analyze::pass(c))
        .map(|p| p.layer)
        .collect();
    assert!(
        layers.len() >= 3,
        "expected >= 3 layers, got {layers:?} from {codes:?}"
    );
}
