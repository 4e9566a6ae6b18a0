//! Durability suite: crash-injection over the journaled workspace and
//! resumable execution.
//!
//! The crash test truncates the journal at *every* byte offset and
//! asserts that recovery (a) never fails or panics, (b) restores
//! exactly the state after the last fully journaled command — a prefix
//! of the acknowledged history — and (c) never resurrects state from
//! the torn tail. Frame 0, the generation's base, is no torn tail: the
//! store syncs it before any MANIFEST names it, so a tear or a flipped
//! bit there fails the open and changes nothing.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hercules::encaps::odyssey_registry;
use hercules::exec::{ExecError, FailurePolicy, FaultPlan, FaultyEncapsulation, TaskAction};
use hercules::flow::NodeId;
use hercules::history::{Derivation, InstanceId, Metadata, Payload};
use hercules::store::{decode_op, encode_frame, scan_frames, JournalOp, StoreError, Workspace};
use hercules::ui::Ui;
use hercules::{eda, Session, SessionSpec};
use serde::{Deserialize, Serialize, Value};

fn temp_root(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("hercules-durable-{tag}-{}-{n}", std::process::id()))
}

/// Wraps the registered encapsulation of `tool` in a fault injector and
/// re-registers the wrapper; returns it for call-count inspection.
fn inject(session: &mut Session, tool: &str, plan: FaultPlan) -> Arc<FaultyEncapsulation> {
    let schema = session.schema().clone();
    let entity = schema.require(tool).expect("known tool");
    let executor = session.executor_mut();
    let inner = executor
        .registry()
        .lookup(&schema, entity)
        .expect("tool registered")
        .clone();
    let faulty = FaultyEncapsulation::wrap(inner, plan);
    executor.registry_mut().register(entity, faulty.clone());
    faulty
}

/// Records one EditedNetlist instance so abstract netlist leaves have
/// something to bind to.
fn seed_netlist(session: &mut Session) -> InstanceId {
    let schema = session.schema().clone();
    let editor = schema.require("CircuitEditor").expect("known");
    let edited = schema.require("EditedNetlist").expect("known");
    let tool = session.db().instances_of(editor)[0];
    let cell = eda::cells::full_adder();
    session
        .db_mut()
        .record_derived(
            edited,
            Metadata::by("chaos").named(&cell.name),
            &cell.to_bytes(),
            Derivation::by_tool(tool, []),
        )
        .expect("records")
}

/// The Fig. 6 verification flow with both branches expanded (see
/// `chaos_flow.rs`): branch A edits the netlist, branch B places and
/// extracts the layout, and the comparator consumes both.
struct Fig6 {
    verification: NodeId,
    edited: NodeId,
    layout: NodeId,
    extracted: NodeId,
}

fn fig6_flow(session: &mut Session) -> Fig6 {
    let seeded = seed_netlist(session);
    let verification = session.start_from_goal("Verification").expect("starts");
    let created = session.expand(verification).expect("expands");
    let edited = created[1];
    let extracted = created[2];
    session
        .specialize(edited, "EditedNetlist")
        .expect("specializes");
    session.expand(edited).expect("expands"); // editor
    let created = session.expand(extracted).expect("expands"); // extractor, layout
    let layout = created[1];
    let created = session.expand(layout).expect("expands"); // placer, netlist, rules
    session.select(created[1], seeded);
    session.bind_latest().expect("binds");
    Fig6 {
        verification,
        edited,
        layout,
        extracted,
    }
}

#[test]
fn crash_at_every_journal_byte_offset_recovers_a_committed_prefix() {
    let root = temp_root("crash");
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");

    // Eight mutating commands — each acknowledged, hence each one a
    // fsynced journal frame. Reference snapshots after each. The second
    // run reproduces the first run's bytes, so its frame names earlier
    // instances instead of carrying payloads.
    let mut refs = vec![SessionSpec::from_session(ui.session())];
    for cmd in [
        "goal Layout",
        "expand n0",
        "specialize n2 EditedNetlist",
        "expand n2",
        "bind-latest",
        "run",
        "run",
        "store place-flow",
    ] {
        ui.execute(cmd).expect(cmd);
        refs.push(SessionSpec::from_session(ui.session()));
    }
    drop(ui);

    let journal = fs::read(root.join("journal-0.log")).expect("journal exists");
    let scan = scan_frames(&journal);
    assert_eq!(
        scan.payloads.len(),
        9,
        "the base, then one frame per mutating command"
    );
    assert_eq!(scan.trailing, 0);
    let JournalOp::Exec(second_run) = decode_op(&scan.payloads[7]).expect("decodes") else {
        panic!("the second run journals an execution");
    };
    assert!(
        second_run
            .instances
            .iter()
            .all(|i| matches!(i.data, Some(Payload::Shared(_)))),
        "the second run's frame names earlier instances: {:?}",
        second_run.instances
    );

    assert_every_tear_recovers_a_prefix(&root, &refs);
    fs::remove_dir_all(&root).ok();
}

/// Tears the generation-0 journal of the workspace at `root` at every
/// byte offset, each in a fresh copy. A tear after frame 0, the base,
/// must (a) recover without failing or panicking, (b) restore exactly
/// `refs[k]`, the state after the `k` frames wholly between the base
/// and the cut, and (c) truncate the torn remainder away. A tear inside
/// the base must fail the open and change no file.
fn assert_every_tear_recovers_a_prefix(root: &Path, refs: &[SessionSpec]) {
    let journal = fs::read(root.join("journal-0.log")).expect("journal exists");
    let scan = scan_frames(&journal);
    assert_eq!(scan.trailing, 0);
    assert_eq!(
        scan.payloads.len(),
        refs.len(),
        "the base, then one frame per later reference"
    );
    // A failed open changes nothing, so the tears inside the base can
    // share one copy of the workspace.
    let dir = temp_root("cut-base");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::copy(root.join("MANIFEST"), dir.join("MANIFEST")).expect("manifest");
    for cut in 0..scan.offsets[0] {
        fs::write(dir.join("journal-0.log"), &journal[..cut]).expect("prefix");
        let err = Workspace::open_session(&dir, |s| odyssey_registry(s))
            .map(|_| ())
            .expect_err("a torn base fails the open");
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "at byte {cut}: {err}"
        );
        assert_eq!(
            fs::read(dir.join("journal-0.log")).expect("journal"),
            &journal[..cut],
            "a failed open leaves the journal as it was at byte {cut}"
        );
        assert!(!dir.join("LEASE").exists(), "no lease taken at byte {cut}");
    }
    fs::remove_dir_all(&dir).ok();

    for cut in scan.offsets[0]..=journal.len() {
        // Simulate a crash that tore the journal at byte `cut`.
        let dir = temp_root("cut");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::copy(root.join("MANIFEST"), dir.join("MANIFEST")).expect("manifest");
        fs::write(dir.join("journal-0.log"), &journal[..cut]).expect("prefix");

        // Recovery must never fail and never panic.
        let (_ws, session, report) = Workspace::open_session(&dir, |s| odyssey_registry(s))
            .unwrap_or_else(|e| panic!("recovery failed at byte {cut}: {e}"));

        // It restores exactly the last fully journaled command...
        let frames = scan.offsets.iter().filter(|&&end| end <= cut).count() - 1;
        assert_eq!(report.ops_replayed, frames, "at byte {cut}");
        assert_eq!(
            SessionSpec::from_session(&session),
            refs[frames],
            "state after recovery at byte {cut} must equal the state \
             after the {frames} committed command(s) — no more, no less"
        );

        // ...and truncates the torn remainder away.
        let valid = scan.offsets[frames];
        assert_eq!(
            report.bytes_discarded,
            (cut - valid) as u64,
            "at byte {cut}"
        );
        assert_eq!(
            fs::metadata(dir.join("journal-0.log")).expect("meta").len(),
            valid as u64,
            "journal truncated to the valid prefix at byte {cut}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

/// The every-byte tear over a journal whose checkpoint appended a
/// snapshot frame between ordinary frames: a tear anywhere in the
/// snapshot recovers the frames before it, and one past it recovers
/// the snapshot's state — including a direct database edit that only
/// the snapshot carries. A second checkpoint, after journaled commands
/// only, writes no frame at all, and the sweep passes over its place.
#[test]
fn crash_at_every_byte_around_a_snapshot_frame_recovers_a_committed_prefix() {
    let root = temp_root("crash-snapshot");
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    let mut refs = vec![SessionSpec::from_session(ui.session())];
    for cmd in ["goal Layout", "expand n0", "specialize n2 EditedNetlist"] {
        ui.execute(cmd).expect(cmd);
        refs.push(SessionSpec::from_session(ui.session()));
    }
    // Bypasses the journal: only the snapshot below makes it durable.
    seed_netlist(ui.session_mut());
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("snapshot appended"), "{out}");
    refs.push(SessionSpec::from_session(ui.session()));
    for cmd in ["expand n2", "bind-latest"] {
        ui.execute(cmd).expect(cmd);
        refs.push(SessionSpec::from_session(ui.session()));
    }
    // The journal holds every change since the snapshot: this
    // checkpoint adds no frame, and so no reference state.
    let journal_len = fs::metadata(root.join("journal-0.log"))
        .expect("meta")
        .len();
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("already holds every change"), "{out}");
    assert_eq!(
        fs::metadata(root.join("journal-0.log"))
            .expect("meta")
            .len(),
        journal_len,
        "a skipped checkpoint adds no frame"
    );
    drop(ui);

    let journal = fs::read(root.join("journal-0.log")).expect("journal exists");
    let scan = scan_frames(&journal);
    let snapshot = decode_op(&scan.payloads[4]).expect("decodes");
    assert_eq!(snapshot, JournalOp::Snapshot(Box::new(refs[4].clone())));
    assert_every_tear_recovers_a_prefix(&root, &refs);
    fs::remove_dir_all(&root).ok();
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

/// Bit rot in the base is never restored: flipping one bit (xor 0x04)
/// in the middle of the recorded full-adder payload, which the saved
/// base holds raw, fails the open, which changes no file.
#[test]
fn a_flipped_bit_in_the_base_fails_the_open() {
    let root = temp_root("base-flip");
    let mut session = Session::odyssey("jbb");
    seed_netlist(&mut session);
    drop(Workspace::create(&root, &session).expect("creates"));
    let payload = eda::cells::full_adder().to_bytes();
    let (name, mut bytes, at) = dir_files(&root)
        .into_iter()
        .find_map(|(name, bytes)| {
            let at = bytes.windows(payload.len()).position(|w| w == payload)?;
            Some((name, bytes, at))
        })
        .expect("a file holds the base's full-adder payload");
    bytes[at + payload.len() / 2] ^= 0x04;
    fs::write(root.join(&name), &bytes).expect("rots");
    let before = dir_files(&root);

    match Workspace::open_session(&root, |s| odyssey_registry(s)) {
        Err(StoreError::Corrupt { .. }) => {}
        Err(e) => panic!("the flip in {name} must read as corruption, got: {e}"),
        Ok((_ws, restored, report)) => panic!(
            "the flip in {name} was restored silently ({report}): {} instance(s)",
            restored.db().len()
        ),
    }
    assert_eq!(dir_files(&root), before, "a failed open changes no file");
    fs::remove_dir_all(&root).ok();
}

/// A workspace whose first segment, and with it the base, is gone
/// fails to open rather than recover an empty session, and the open
/// re-creates nothing.
#[test]
fn a_missing_first_segment_fails_the_open() {
    let root = temp_root("no-head");
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    for cmd in ["goal Layout", "expand n0"] {
        ui.execute(cmd).expect(cmd);
    }
    drop(ui);
    fs::remove_file(root.join("journal-0.log")).expect("removes");
    let before = dir_files(&root);
    let err = Workspace::open_session(&root, |s| odyssey_registry(s))
        .map(|_| ())
        .expect_err("a missing base fails the open");
    assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
    assert_eq!(dir_files(&root), before, "a failed open changes no file");
    fs::remove_dir_all(&root).ok();
}

/// Only frames hold session state: after `save`, an appended, a synced
/// and a rotating checkpoint, and a repairing `scrub`, the workspace
/// holds only MANIFEST, LEASE, journal segments and telemetry sidecars.
#[test]
fn no_checkpoint_file_is_ever_written() {
    let root = temp_root("frames-only");
    let assert_frames_only = |step: &str| {
        for (name, _) in dir_files(&root) {
            assert!(
                name == "MANIFEST"
                    || name == "LEASE"
                    || name.starts_with("journal-")
                    || (name.starts_with("telemetry-") && name.ends_with(".jsonl")),
                "after {step}: unexpected file `{name}`"
            );
        }
    };
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    assert_frames_only("save");
    ui.execute("goal Layout").expect("journals");
    seed_netlist(ui.session_mut());
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("snapshot appended"), "{out}");
    assert_frames_only("an appended checkpoint");
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("already holds every change"), "{out}");
    assert_frames_only("a synced checkpoint");
    loop {
        seed_netlist(ui.session_mut());
        if ui
            .execute("checkpoint")
            .expect("checkpoints")
            .contains("rotated")
        {
            break;
        }
    }
    assert_frames_only("a rotating checkpoint");
    let generation = ui.workspace().expect("attached").generation();
    let head = root.join(format!("journal-{generation}.log"));
    let mut bytes = fs::read(&head).expect("reads");
    *bytes.last_mut().expect("the head holds the base") ^= 0x01;
    fs::write(&head, &bytes).expect("rots");
    let out = ui.execute("scrub").expect("scrubs");
    assert!(out.contains("re-baselined"), "{out}");
    assert_frames_only("a repairing scrub");
    drop(ui);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn resume_reruns_only_failed_and_skipped_subtasks() {
    let mut session = Session::odyssey("chaos");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    let schema = session.schema().clone();
    let placer = schema.require("Placer").expect("known");
    let real = session
        .executor_mut()
        .registry()
        .lookup(&schema, placer)
        .expect("registered")
        .clone();
    let faulty = inject(&mut session, "Placer", FaultPlan::AlwaysPanic);
    let nodes = fig6_flow(&mut session);

    session.run().expect("continues past the failure");
    let first = session.last_report().expect("report").clone();
    assert_eq!((first.failed(), first.skipped()), (1, 2));
    let committed = first.try_single(nodes.edited).expect("branch A committed");

    // Lift the fault, then resume: only the failed cone re-runs.
    session.executor_mut().registry_mut().register(placer, real);
    let report = session.resume().expect("completes").clone();
    assert!(report.is_complete());
    assert_eq!(
        report.cache_hits(),
        1,
        "the committed editor branch came from the history"
    );
    assert_eq!(report.runs(), 3, "placer, extractor, comparator re-ran");
    assert_eq!(
        report.try_single(nodes.edited).expect("bound"),
        committed,
        "resume reuses the committed instance, not a re-run"
    );
    let record = report
        .tasks
        .iter()
        .find(|t| t.outputs.contains(&nodes.edited))
        .expect("recorded");
    assert_eq!(record.action, TaskAction::Cached);
    for node in [nodes.layout, nodes.extracted, nodes.verification] {
        assert!(report.try_single(node).is_ok(), "{node} produced");
    }
    assert_eq!(faulty.calls(), 1, "the faulty placer never ran again");

    let events = session.events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[1].operation, "resume");
    assert!(events[1].is_clean());
    assert_eq!(events[1].cache_hits, 1);

    // A second resume has nothing left to do.
    assert!(matches!(
        session.resume(),
        Err(hercules::HerculesError::NothingToResume { .. })
    ));
}

#[test]
fn interrupted_run_resumes_after_reopen_from_disk() {
    let root = temp_root("resume");
    let mut session = Session::odyssey("jbb");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    inject(&mut session, "Placer", FaultPlan::AlwaysPanic);
    let seeded = seed_netlist(&mut session);

    let mut ui = Ui::new(session);
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    for cmd in [
        "goal Verification".to_owned(),
        "expand n0".to_owned(),
        "specialize n2 EditedNetlist".to_owned(),
        "expand n2".to_owned(),
        "expand n3".to_owned(),
        "expand n6".to_owned(),
        format!("select n8 i{}", seeded.raw()),
        "bind-latest".to_owned(),
    ] {
        ui.execute(&cmd).expect(&cmd);
    }
    let out = ui.execute("run").expect("continues past the failure");
    assert!(out.contains("1 failed, 2 skipped"), "{out}");
    drop(ui); // crash

    // A fresh process recovers the partial execution from disk. `open`
    // attaches the standard (un-faulted) registry, so the placer works.
    let mut ui = Ui::new(Session::odyssey("someone-else"));
    ui.execute(&format!("open {}", root.display()))
        .expect("recovers");
    let report = ui.session().last_report().expect("restored");
    assert!(!report.is_complete());
    assert!(
        matches!(report.first_error(), Some(ExecError::Restored { .. })),
        "failures survive as restored (textual) errors"
    );

    let out = ui.execute("resume").expect("completes");
    assert!(out.contains("cache hit(s)"), "{out}");
    let report = ui.session().last_report().expect("resumed");
    assert!(report.is_complete());
    assert_eq!(report.cache_hits(), 1, "committed branch A reused");
    assert_eq!(report.runs(), 3, "only the failed cone re-ran");
    let record = report
        .tasks
        .iter()
        .find(|t| t.outputs.contains(&NodeId::from_index(2)))
        .expect("editor subtask recorded");
    assert_eq!(record.action, TaskAction::Cached);
    drop(ui); // crash again

    // The resume itself was journaled: a third process sees completion.
    let mut ui = Ui::new(Session::odyssey("third"));
    ui.execute(&format!("open {}", root.display()))
        .expect("reopens");
    assert!(ui.session().last_report().expect("present").is_complete());

    // A direct edit before each checkpoint leaves the session holding
    // state the journal lacks, so each checkpoint writes a snapshot:
    // appended ones until one rotates the generation. Reopening lands
    // on it, edits included.
    let mut appended = 0;
    loop {
        seed_netlist(ui.session_mut());
        if ui
            .execute("checkpoint")
            .expect("checkpoints")
            .contains("rotated")
        {
            break;
        }
        appended += 1;
        assert!(appended < 8, "a rotation is due within a few snapshots");
    }
    assert!(appended > 0, "the first checkpoint appends a snapshot");
    let expected = SessionSpec::from_session(ui.session());
    drop(ui);
    let (ws, session, recovery) =
        Workspace::open_session(&root, |s| odyssey_registry(s)).expect("opens gen 1");
    assert_eq!(ws.generation(), 1);
    assert_eq!(recovery.ops_replayed, 0, "rotated journal is empty");
    assert!(session.last_report().expect("present").is_complete());
    assert_eq!(SessionSpec::from_session(&session), expected);
    fs::remove_dir_all(&root).ok();
}

/// A saved workspace whose journal holds a few journaled commands
/// after its base, the snapshot in frame 0, so that a checkpoint of the
/// fully journaled session writes nothing.
fn checkpointed_workspace(tag: &str) -> (PathBuf, Ui) {
    let root = temp_root(tag);
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    for cmd in ["goal Layout", "expand n0", "specialize n2 EditedNetlist"] {
        ui.execute(cmd).expect(cmd);
    }
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("already holds every change"), "{out}");
    assert!(!ui.session().has_unjournaled_changes());
    (root, ui)
}

/// Every file a checkpoint could write: the MANIFEST and the journal
/// segments (not the lease or the telemetry sidecar), by name.
fn store_files(root: &Path) -> Vec<(String, Vec<u8>)> {
    dir_files(root)
        .into_iter()
        .filter(|(name, _)| name == "MANIFEST" || name.starts_with("journal-"))
        .collect()
}

#[test]
fn a_direct_edit_before_a_journaled_verb_survives_checkpoint_and_reopen() {
    let (root, mut ui) = checkpointed_workspace("edit-then-verb");
    // The edit bypasses the journal; the verb after it is journaled,
    // but its frame does not carry the edit.
    let edit = seed_netlist(ui.session_mut());
    assert!(ui.session().has_unjournaled_changes());
    ui.execute("expand n2").expect("journals");
    assert!(
        ui.session().has_unjournaled_changes(),
        "journaling a verb does not journal an earlier direct edit"
    );
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("snapshot appended"), "{out}");
    assert!(!ui.session().has_unjournaled_changes());
    let expected = SessionSpec::from_session(ui.session());
    drop(ui);

    let (_ws, session, _report) =
        Workspace::open_session(&root, |s| odyssey_registry(s)).expect("reopens");
    assert!(
        session.db().instance(edit).is_ok(),
        "the direct edit survives"
    );
    assert_eq!(SessionSpec::from_session(&session), expected);
    assert!(
        !session.has_unjournaled_changes(),
        "a recovered session is clear"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn a_fully_journaled_checkpoint_leaves_the_store_byte_identical() {
    let (root, mut ui) = checkpointed_workspace("journaled");
    for cmd in ["expand n2", "bind-latest", "run"] {
        ui.execute(cmd).expect(cmd);
    }
    let before = store_files(&root);
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(
        out.contains("generation 0's journal already holds every change"),
        "{out}"
    );
    assert_eq!(store_files(&root), before, "the checkpoint wrote nothing");
    let expected = SessionSpec::from_session(ui.session());
    drop(ui);

    let (_ws, session, report) =
        Workspace::open_session(&root, |s| odyssey_registry(s)).expect("reopens");
    assert_eq!(
        report.ops_replayed, 6,
        "3 verbs, then 3 more, after the base"
    );
    assert_eq!(SessionSpec::from_session(&session), expected);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn registry_tracer_options_and_cache_changes_leave_the_session_journaled() {
    let (root, mut ui) = checkpointed_workspace("decorated");
    let cache = temp_root("decorated-cache");
    inject(ui.session_mut(), "Placer", FaultPlan::AlwaysPanic);
    ui.session_mut().executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    ui.session_mut().disable_observability();
    ui.execute(&format!("cache open {}", cache.display()))
        .expect("opens the cache");
    assert!(!ui.session().has_unjournaled_changes());
    let before = store_files(&root);
    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("already holds every change"), "{out}");
    assert_eq!(store_files(&root), before);
    drop(ui);
    fs::remove_dir_all(&root).ok();
    fs::remove_dir_all(&cache).ok();
}

/// The value under `key` in a JSON object.
fn field<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match value {
        Value::Map(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The payload form `legacy_copy` rewrites a workspace into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Legacy {
    /// Every payload as the array of byte values written before the
    /// hex form (no shared payloads either).
    Arrays,
    /// Every shared payload as the hex string of the named instance's
    /// bytes: the form written before shared payloads.
    InlineHex,
}

/// Rewrites the payload of every record in `instances` (a JSON array
/// of `InstanceSpec`s) into `form`, resolving shared payloads through
/// `held`, the bytes of every earlier instance by id, and appending
/// each record's bytes to it. Returns how many payloads it rewrote.
fn legacy_payloads(instances: &mut Value, held: &mut Vec<Vec<u8>>, form: Legacy) -> usize {
    let Value::Seq(records) = instances else {
        panic!("instances is an array");
    };
    let mut rewritten = 0;
    for record in records {
        let Some(data) = field(record, "data") else {
            held.push(Vec::new());
            continue;
        };
        let (bytes, shared) = match Payload::deserialize_value(data).expect("payload") {
            Payload::Inline(bytes) => (bytes, false),
            Payload::Shared(holder) => (held[holder as usize].clone(), true),
        };
        if form == Legacy::Arrays || shared {
            *data = match form {
                Legacy::Arrays => bytes.serialize_value(),
                Legacy::InlineHex => Payload::Inline(bytes.clone()).serialize_value(),
            };
            rewritten += 1;
        }
        held.push(bytes);
    }
    rewritten
}

/// Copies the workspace at `from` into a fresh directory in the layout
/// written before frames — a plain-JSON MANIFEST naming
/// `checkpoint-0.json`, which holds the base frame's document — and
/// rewrites the checkpoint's payloads and, with `journal`, every
/// journaled execution's payloads, re-framed, into `form`.
fn legacy_copy(from: &Path, form: Legacy, journal: bool) -> PathBuf {
    let dir = temp_root("legacy");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::write(
        dir.join("MANIFEST"),
        r#"{"generation":0,"checkpoint":"checkpoint-0.json","journal":"journal-0.log","segments":["journal-0.log"],"fencing_token":1}"#,
    )
    .expect("write manifest");

    let frames = fs::read(from.join("journal-0.log")).expect("journal");
    let scan = scan_frames(&frames);
    let mut base = decode_op(&scan.payloads[0])
        .expect("base decodes")
        .serialize_value();
    let checkpoint = field(&mut base, "Snapshot").expect("frame 0 is a snapshot");
    let history = field(checkpoint, "history").expect("history");
    let instances = field(history, "instances").expect("instances");
    let mut held = Vec::new();
    let rewritten = legacy_payloads(instances, &mut held, form);
    assert!(
        form == Legacy::InlineHex || rewritten > 0,
        "checkpoint holds payloads"
    );
    let text = serde_json::to_string(&*checkpoint).expect("serializes");
    assert_eq!(text.contains(r#""data":["#), form == Legacy::Arrays);
    fs::write(dir.join("checkpoint-0.json"), text).expect("write checkpoint");

    let frames = if journal {
        let mut rewritten = 0;
        let mut out = Vec::new();
        for payload in &scan.payloads[1..] {
            let mut op = decode_op(payload).expect("frame decodes").serialize_value();
            if let Some(instances) = field(&mut op, "Exec").and_then(|e| field(e, "instances")) {
                rewritten += legacy_payloads(instances, &mut held, form);
            }
            out.extend(
                encode_frame(&serde_json::to_vec(&op).expect("serializes")).expect("frames"),
            );
        }
        assert!(rewritten > 0, "journaled executions hold {form:?} rewrites");
        out
    } else {
        frames[scan.offsets[0]..].to_vec()
    };
    fs::write(dir.join("journal-0.log"), frames).expect("write journal");
    dir
}

/// Copies the workspace at `from` into a fresh directory, re-framing
/// its base, and with `every_frame` every later frame too, as the JSON
/// body with hex payloads that frames held before raw payloads. With
/// `every_frame` the copy is in the layout that writer left; without,
/// its JSON base is followed by the raw-payload frames this writer
/// appended.
fn json_body_copy(from: &Path, every_frame: bool) -> PathBuf {
    let dir = temp_root("json-bodies");
    fs::create_dir_all(&dir).expect("mkdir");
    fs::copy(from.join("MANIFEST"), dir.join("MANIFEST")).expect("manifest");
    let frames = fs::read(from.join("journal-0.log")).expect("journal");
    let mut out = Vec::new();
    for (k, body) in scan_frames(&frames).payloads.iter().enumerate() {
        if k > 0 && !every_frame {
            out.extend(encode_frame(body).expect("frames"));
            continue;
        }
        let op = decode_op(body).expect("frame decodes");
        let json = serde_json::to_vec(&op).expect("serializes");
        if k == 0 {
            let hex = String::from_utf8_lossy(&json).contains(r#""data":""#);
            assert!(hex, "the JSON base holds hex payloads");
        }
        out.extend(encode_frame(&json).expect("frames"));
    }
    fs::write(dir.join("journal-0.log"), out).expect("write journal");
    dir
}

/// Workspaces in older layouts and payload forms open with the same
/// history and the same blob count. In the layout written before
/// frames: legacy integer arrays in both the checkpoint and the
/// journal, a legacy checkpoint followed by raw-payload frames, and hex
/// payloads with every shared payload written out in full (the form
/// written before shared payloads); the writable open re-bases each at
/// once onto a frames-only generation. In frames: every frame a JSON
/// body with hex payloads, as written before raw payloads, and a JSON
/// base followed by raw-payload frames; both open without a re-base.
#[test]
fn legacy_array_payloads_open_with_the_same_history() {
    let root = temp_root("legacy-src");
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    for cmd in [
        "goal Layout",
        "expand n0",
        "specialize n2 EditedNetlist",
        "expand n2",
        "bind-latest",
        "run",
    ] {
        ui.execute(cmd).expect(cmd);
    }
    let expected = SessionSpec::from_session(ui.session());
    let payloads = |session: &Session| -> Vec<Option<Vec<u8>>> {
        (0..session.db().len() as u64)
            .map(|raw| {
                let data = session.db().data_of(InstanceId::from_raw(raw));
                data.expect("instance exists").map(<[u8]>::to_vec)
            })
            .collect()
    };
    let expected_payloads = payloads(ui.session());
    let expected_blobs = ui.session().db().store().blob_count();
    drop(ui);

    let mut copies = Vec::new();
    for (form, journal) in [
        (Legacy::Arrays, true),
        (Legacy::Arrays, false),
        (Legacy::InlineHex, true),
    ] {
        let case = format!("{form:?}, journal: {journal}");
        copies.push((case, legacy_copy(&root, form, journal), true));
    }
    for every_frame in [true, false] {
        let case = format!("JSON bodies, every frame: {every_frame}");
        copies.push((case, json_body_copy(&root, every_frame), false));
    }
    for (case, dir, rebased) in copies {
        let (ws, session, report) = Workspace::open_session(&dir, |s| odyssey_registry(s))
            .unwrap_or_else(|e| panic!("legacy workspace ({case}) opens: {e}"));
        assert_eq!(report.ops_replayed, 6, "{case}");
        assert_eq!(report.bytes_discarded, 0, "{case}");
        assert_eq!(session.db().len(), expected_payloads.len(), "{case}");
        assert_eq!(payloads(&session), expected_payloads, "{case}");
        assert_eq!(session.db().store().blob_count(), expected_blobs, "{case}");
        assert_eq!(SessionSpec::from_session(&session), expected, "{case}");
        if !rebased {
            assert_eq!(ws.generation(), 0, "{case}: frames need no re-base");
            drop(ws);
            fs::remove_dir_all(&dir).ok();
            continue;
        }

        // Re-based: generation 1's frame 0 holds the session, and the
        // legacy files are gone.
        assert_eq!(ws.generation(), 1, "{case}");
        drop(ws);
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name != "LEASE")
            .collect();
        assert_eq!(names.len(), 2, "{case}: {names:?}");
        assert!(
            names.contains(&"journal-1.log".to_owned()),
            "{case}: {names:?}"
        );
        let manifest = fs::read(dir.join("MANIFEST")).expect("manifest");
        let framed = scan_frames(&manifest);
        assert_eq!((framed.payloads.len(), framed.trailing), (1, 0), "{case}");
        let (_ws, session, report) =
            Workspace::open_session(&dir, |s| odyssey_registry(s)).expect("reopens");
        assert_eq!((report.generation, report.ops_replayed), (1, 0), "{case}");
        assert_eq!(SessionSpec::from_session(&session), expected, "{case}");
        fs::remove_dir_all(&dir).ok();
    }
    fs::remove_dir_all(&root).ok();
}
