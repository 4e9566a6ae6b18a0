//! Deterministic simulation suite: the executor and the durable store
//! driven through seeded interleavings, mid-write crash points, fsync
//! reorderings, and a lying disk — all inside one process, with every
//! run a pure function of its seed.
//!
//! Every assertion failure prints the failing seed and a copy-paste
//! repro command (`HERCULES_SIM_SEED=<seed> cargo test --test
//! sim_harness <test> -- --nocapture`); set `HERCULES_SIM_SEED` to
//! replay a specific world.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hercules::encaps::odyssey_registry;
use hercules::exec::{
    toy, Binding, Executor, FailurePolicy, FaultPlan, FaultyEncapsulation, RetryPolicy,
};
use hercules::flow::TaskGraph;
use hercules::history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules::obs::{names, HealthStatus, Metrics};
use hercules::schema::synth::SynthConfig;
use hercules::sim::{repro_command, SimEnv, SimRng, SIM_CRASH_MARKER};
use hercules::store::{
    scan_frames, CheckpointKind, DegradedReason, ExecSpec, JournalOp, StoreError, Workspace,
};
use hercules::ui::Ui;
use hercules::{eda, read_postmortem, ExecEvent, HerculesError, Session, SessionSpec};

/// Master seed: the env override if set, a fixed default otherwise.
fn master_seed() -> u64 {
    std::env::var("HERCULES_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xDAC_1993)
}

/// Panics with the failing seed and its repro command attached.
#[track_caller]
fn sim_assert(cond: bool, seed: u64, test: &str, msg: &str) {
    if !cond {
        panic!(
            "{msg}\n  failing seed: {seed}\n  reproduce: {}",
            repro_command(seed, test)
        );
    }
}

/// Installs the full simulated environment into a fresh Odyssey
/// session: virtual clock, interleaved scheduler, seeded retry jitter.
fn sim_session(sim: &SimEnv, user: &str) -> Session {
    let mut session = Session::odyssey(user);
    session.set_sim(sim.clock(), sim.interleave(), sim.jitter_seed());
    session
}

/// Records one EditedNetlist instance so abstract netlist leaves have
/// something to bind to (mirrors the durability suite).
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
            Metadata::by("sim").named(&cell.name),
            &cell.to_bytes(),
            Derivation::by_tool(tool, []),
        )
        .expect("records")
}

/// Where the simulated workspace lives on the simulated disk.
const WS_ROOT: &str = "/ws/alpha";

/// Reference snapshots of the multi-session workload, grouped by
/// generation: `refs[g][k]` is the session state after the `k`-th
/// acknowledged journal frame after generation `g`'s base (`refs[g][0]`
/// is the state its base, frame 0, captures). A
/// checkpoint that appends its snapshot adds one frame, whose state
/// includes any direct edit made before it; a checkpoint that rotates
/// opens the next generation; one that only syncs adds nothing.
struct Reference {
    by_gen: Vec<Vec<SessionSpec>>,
    /// What each completed checkpoint did, in workload order.
    kinds: Vec<CheckpointKind>,
}

/// What a REPL `checkpoint` did, read from its transcript.
fn checkpoint_kind(transcript: &str) -> CheckpointKind {
    if transcript.contains("rotated") {
        CheckpointKind::Rotated
    } else if transcript.contains("snapshot appended") {
        CheckpointKind::Appended
    } else {
        assert!(
            transcript.contains("already holds every change"),
            "unexpected checkpoint transcript: {transcript}"
        );
        CheckpointKind::Synced
    }
}

/// Drives the multi-session workload: save, build + run the
/// verification flow, checkpoint, build + run the layout flow,
/// checkpoint, run it again, checkpoint, rebuild and rerun it,
/// checkpoint, start one more flow and checkpoint, refine it and
/// checkpoint, then expand it and checkpoint. The first four
/// checkpoints each follow a direct database edit that bypasses the
/// journal, so they write snapshots, appended until the generation's
/// files outgrow the rotation bound at the fourth. The last three
/// follow journaled commands only, fewer bytes of frames than the
/// rotated generation's base, and skip. The workload thus crosses all
/// three kinds and journals into the rotated generation too. Stops at
/// the first error (a fired crash point), returning the snapshots of
/// everything acknowledged up to then.
///
/// `plan` is a clean run's [`Reference::kinds`]: a crash run reads
/// from it what the checkpoint it crashed in was doing. The clean run
/// itself passes `None`.
///
/// With `verify_frames` (clean reference run only), cross-checks that
/// each generation's journal holds its base and then exactly one frame
/// per acknowledged command or appended snapshot, so the snapshot
/// indices line up with `ops_replayed`.
fn drive_workload(
    sim: &SimEnv,
    plan: Option<&[CheckpointKind]>,
    verify_frames: bool,
) -> (Reference, Result<(), HerculesError>) {
    let mut session = sim_session(sim, "sim");
    let seeded = seed_netlist(&mut session);
    let mut ui = Ui::new_in(session, sim.env());
    let mut refs = Reference {
        by_gen: Vec::new(),
        kinds: Vec::new(),
    };

    if let Err(e) = ui.execute(&format!("save {WS_ROOT}")) {
        return (refs, Err(e));
    }
    refs.by_gen
        .push(vec![SessionSpec::from_session(ui.session())]);

    let verification = [
        "goal Verification".to_owned(),
        "expand n0".to_owned(),
        "specialize n2 EditedNetlist".to_owned(),
        "expand n2".to_owned(),
        "expand n3".to_owned(),
        "expand n6".to_owned(),
        format!("select n8 i{}", seeded.raw()),
        "bind-latest".to_owned(),
        "run".to_owned(),
        "store verif-flow".to_owned(),
    ];
    let layout = [
        "clear".to_owned(),
        "goal Layout".to_owned(),
        "expand n0".to_owned(),
        "specialize n2 EditedNetlist".to_owned(),
        "expand n2".to_owned(),
        "bind-latest".to_owned(),
        "run".to_owned(),
    ];
    let rerun = ["run".to_owned(), "store layout-flow".to_owned()];
    let restart = [
        "clear".to_owned(),
        "goal Layout".to_owned(),
        "expand n0".to_owned(),
    ];
    let refine = ["specialize n2 EditedNetlist".to_owned()];
    let extend = ["expand n2".to_owned()];

    for (segment, direct_edit) in [
        (&verification[..], true),
        (&layout[..], true),
        (&rerun[..], true),
        (&layout[..], true),
        (&restart[..], false),
        (&refine[..], false),
        (&extend[..], false),
    ] {
        for cmd in segment {
            if let Err(e) = ui.execute(cmd) {
                // The crashed command was dispatched before its journal
                // append tore, and the frame may still survive whole in
                // the crash image — so recovery can legitimately land
                // one past the acknowledged prefix. Record that
                // submitted-but-unacknowledged state as well.
                let gen = refs.by_gen.len() - 1;
                refs.by_gen[gen].push(SessionSpec::from_session(ui.session()));
                return (refs, Err(e));
            }
            let gen = refs.by_gen.len() - 1;
            refs.by_gen[gen].push(SessionSpec::from_session(ui.session()));
        }
        if verify_frames {
            let gen = refs.by_gen.len() - 1;
            let journal = sim
                .fs()
                .read(&Path::new(WS_ROOT).join(format!("journal-{gen}.log")))
                .expect("journal readable in the clean run");
            assert_eq!(
                scan_frames(&journal).payloads.len(),
                refs.by_gen[gen].len(),
                "the base, then one journal frame per acknowledged command or snapshot \
                 in generation {gen}"
            );
        }
        if direct_edit {
            // Not a frame: until a snapshot lands, recovery restores
            // the state before it.
            seed_netlist(ui.session_mut());
        }
        let outcome = ui.execute("checkpoint");
        let kind = match &outcome {
            Ok(out) => checkpoint_kind(out),
            Err(_) => plan.expect("a crash run follows a clean run's plan")[refs.kinds.len()],
        };
        // The checkpoint's state: after a rotation, the next
        // generation's base (a crashed rotation whose MANIFEST rename
        // survived the dice recovers frame 0, with zero replays); after
        // an append, one more frame of the current generation (a
        // crashed append's frame may survive whole in the crash image);
        // after a sync, nothing new.
        let state = SessionSpec::from_session(ui.session());
        match kind {
            CheckpointKind::Rotated => refs.by_gen.push(vec![state]),
            CheckpointKind::Appended => {
                let gen = refs.by_gen.len() - 1;
                refs.by_gen[gen].push(state);
            }
            CheckpointKind::Synced => {}
        }
        if let Err(e) = outcome {
            return (refs, Err(e));
        }
        refs.kinds.push(kind);
    }
    (refs, Ok(()))
}

/// Recovers the workspace from the crash image and asserts the prefix
/// invariant: the recovered session state equals the reference
/// snapshot after exactly `ops_replayed` acknowledged frames of the
/// recovered generation — never a non-prefix, never beyond what was
/// submitted.
fn assert_recovers_a_prefix(sim: &SimEnv, refs: &Reference, seed: u64, test: &str, label: &str) {
    let rebooted = sim.crash_and_reboot();
    let (ws, recovered, report) =
        Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
            .unwrap_or_else(|e| {
                panic!(
                    "{label}: recovery failed: {e}\n  failing seed: {seed}\n  reproduce: {}",
                    repro_command(seed, test)
                )
            });
    let gen = report.generation as usize;
    sim_assert(
        gen < refs.by_gen.len(),
        seed,
        test,
        &format!("{label}: recovered generation {gen} was never reached"),
    );
    let snaps = &refs.by_gen[gen];
    sim_assert(
        report.ops_replayed < snaps.len(),
        seed,
        test,
        &format!(
            "{label}: generation {gen} replayed {} ops beyond the {} submitted",
            report.ops_replayed,
            snaps.len() - 1
        ),
    );
    sim_assert(
        SessionSpec::from_session(&recovered) == snaps[report.ops_replayed],
        seed,
        test,
        &format!(
            "{label}: recovered state after {} replayed ops of generation {gen} \
             does not match the acknowledged prefix",
            report.ops_replayed
        ),
    );
    drop(ws);
}

/// The tentpole test: one seeded run sweeps ≥100 distinct scheduler
/// interleavings of a wide synthetic flow, then sweeps a crash point
/// over every mutating disk operation (≥50 of them) of the
/// multi-session workload, asserting prefix recovery at each, with
/// byte-identical event logs on replay.
#[test]
fn sim_multi_session_interleavings_and_crash_points() {
    const TEST: &str = "sim_multi_session_interleavings_and_crash_points";
    let master = master_seed();
    let mut rng = SimRng::new(master);

    // --- Phase 1: scheduler interleavings over a wide flow. ---
    let cfg = SynthConfig {
        layers: 3,
        width: 6,
        fanin: 2,
        subtypes: 0,
    };
    let schema = Arc::new(cfg.generate());
    let mut flow = TaskGraph::new(schema.clone());
    for goal in cfg.goal_layer(&schema) {
        let node = flow.seed(goal).expect("seeds");
        flow.expand_all(node).expect("expands");
    }
    flow.validate_for_execution().expect("complete");

    let run_flow = |seed: u64| -> (Vec<String>, String) {
        let sim = SimEnv::new(seed);
        let mut db = HistoryDb::new(schema.clone());
        toy::seed_everything(&mut db, "sim");
        let mut binding = Binding::new();
        assert!(binding.bind_latest(&flow, &db).is_empty());
        let mut executor = Executor::new(toy::text_registry(&schema));
        let options = executor.options_mut();
        options.clock = sim.clock();
        options.interleave = sim.interleave();
        options.jitter_seed = sim.jitter_seed();
        executor
            .execute(&flow, &binding, &mut db)
            .expect("synthetic flow runs");
        let picks = sim
            .trace()
            .lines()
            .iter()
            .filter(|l| l.starts_with("sched.pick"))
            .cloned()
            .collect();
        (picks, sim.trace().render())
    };

    let mut interleavings: HashSet<Vec<String>> = HashSet::new();
    let mut pick_events = 0usize;
    for i in 0..128 {
        let seed = rng.next_u64();
        let (picks, log) = run_flow(seed);
        sim_assert(
            !picks.is_empty(),
            seed,
            TEST,
            "the serial dataflow pump must route picks through the interleaver",
        );
        pick_events += picks.len();
        interleavings.insert(picks);
        if i % 8 == 0 {
            // Replaying the same seed must reproduce the event log
            // byte for byte.
            let (_, log2) = run_flow(seed);
            sim_assert(
                log == log2,
                seed,
                TEST,
                "same seed, same flow: event logs must be byte-identical",
            );
        }
    }
    assert!(
        interleavings.len() >= 100,
        "expected >=100 distinct scheduler interleavings, got {} ({} pick events; master seed {master})",
        interleavings.len(),
        pick_events
    );

    // --- Phase 2: crash sweep over the multi-session workload. ---
    let workload_seed = rng.next_u64();
    let clean = SimEnv::new(workload_seed);
    let (refs, outcome) = drive_workload(&clean, None, true);
    outcome.expect("clean run completes");
    sim_assert(
        [
            CheckpointKind::Appended,
            CheckpointKind::Rotated,
            CheckpointKind::Synced,
        ]
        .iter()
        .all(|kind| refs.kinds.contains(kind)),
        workload_seed,
        TEST,
        &format!(
            "the workload must append a snapshot, rotate and skip one, got {:?}",
            refs.kinds
        ),
    );
    let total_ops = clean.fs_state().op_count();
    // Only sweep ops after workspace creation: before the manifest is
    // durable there is nothing to recover.
    let save_ops = {
        let probe = SimEnv::new(workload_seed);
        let mut session = sim_session(&probe, "sim");
        let _ = seed_netlist(&mut session);
        let mut ui = Ui::new_in(session, probe.env());
        ui.execute(&format!("save {WS_ROOT}")).expect("saves");
        probe.fs_state().op_count()
    };
    let crash_points = total_ops - save_ops;
    assert!(
        crash_points >= 50,
        "the workload must expose >=50 post-save crash points, got {crash_points}"
    );

    for k in (save_ops + 1)..=total_ops {
        let sim = SimEnv::new(workload_seed);
        sim.fs_state().set_crash_at(Some(k));
        let (crash_refs, outcome) = drive_workload(&sim, Some(&refs.kinds), false);
        // A crash landing on the final best-effort cleanup (the
        // superseded journal's removal) is swallowed by design; the
        // workload completes and recovery must still see a consistent
        // image.
        if let Err(err) = outcome {
            sim_assert(
                err.to_string().contains(SIM_CRASH_MARKER),
                workload_seed,
                TEST,
                &format!(
                    "crash at op {k}: the surfaced error must be the simulated crash, got: {err}"
                ),
            );
        }
        assert_recovers_a_prefix(
            &sim,
            &crash_refs,
            workload_seed,
            TEST,
            &format!("crash at op {k}"),
        );
        if k % 10 == 0 {
            // Replay determinism across crash + recovery: the full
            // event log (workload, crash dice, recovery) is
            // byte-identical for the same seed and crash point.
            let render_once = || {
                let sim = SimEnv::new(workload_seed);
                sim.fs_state().set_crash_at(Some(k));
                let (crash_refs, _) = drive_workload(&sim, Some(&refs.kinds), false);
                assert_recovers_a_prefix(
                    &sim,
                    &crash_refs,
                    workload_seed,
                    TEST,
                    &format!("replayed crash at op {k}"),
                );
                sim.trace().render()
            };
            sim_assert(
                render_once() == render_once(),
                workload_seed,
                TEST,
                &format!("crash at op {k}: replay must give a byte-identical event log"),
            );
        }
    }
    drop(refs);
}

/// Satellite: a crash exactly between the manifest temp-file fsync and
/// the `MANIFEST` rename during a rotating checkpoint must leave the
/// *previous* generation fully intact — the half-finished checkpoint is
/// invisible.
#[test]
fn sim_checkpoint_crash_between_tmp_fsync_and_manifest_rename() {
    const TEST: &str = "sim_checkpoint_crash_between_tmp_fsync_and_manifest_rename";
    let seed = master_seed();

    // Locate the first rotation's MANIFEST rename in a clean run:
    // rename #0 of MANIFEST.tmp belongs to `save`, rename #1 to the
    // first `checkpoint` that rotates (appended snapshots and syncs
    // rename nothing).
    let clean = SimEnv::new(seed);
    let (refs, outcome) = drive_workload(&clean, None, false);
    outcome.expect("clean run completes");
    sim_assert(
        refs.kinds.first() == Some(&CheckpointKind::Appended)
            && refs.kinds.contains(&CheckpointKind::Rotated),
        seed,
        TEST,
        &format!(
            "the first checkpoint appends and a later one rotates: {:?}",
            refs.kinds
        ),
    );
    let rename_op: u64 = clean
        .trace()
        .lines()
        .iter()
        .filter(|l| l.starts_with("fs.rename") && l.contains("to=/ws/alpha/MANIFEST "))
        .nth(1)
        .and_then(|l| l.rsplit("op=").next())
        .and_then(|n| n.trim().parse().ok())
        .expect("the checkpoint's MANIFEST rename appears in the trace");

    // Crash *at* the rename: the temp file is written and fsynced, but
    // the swap never happens.
    let sim = SimEnv::new(seed);
    sim.fs_state().set_crash_at(Some(rename_op));
    let (_, outcome) = drive_workload(&sim, Some(&refs.kinds), false);
    outcome.expect_err("the armed crash point aborts the checkpoint");

    let rebooted = sim.crash_and_reboot();
    let (_ws, recovered, report) =
        Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
            .unwrap_or_else(|e| {
                panic!(
                    "recovery must not fail: {e}\n  failing seed: {seed}\n  reproduce: {}",
                    repro_command(seed, TEST)
                )
            });
    sim_assert(
        report.generation == 0,
        seed,
        TEST,
        &format!(
            "the unrenamed manifest must still name generation 0, got {}",
            report.generation
        ),
    );
    let gen0 = &refs.by_gen[0];
    sim_assert(
        report.ops_replayed == gen0.len() - 1,
        seed,
        TEST,
        &format!(
            "every acknowledged generation-0 frame must replay: {} of {}",
            report.ops_replayed,
            gen0.len() - 1
        ),
    );
    sim_assert(
        SessionSpec::from_session(&recovered) == gen0[gen0.len() - 1],
        seed,
        TEST,
        "recovered state must equal the full pre-checkpoint state",
    );
}

/// The mutating disk operations a closure issued, as their trace lines
/// without the `fs.` prefix and ` op=N` suffix (reads, opens and
/// existence probes excluded).
fn fs_ops_of<T>(sim: &SimEnv, f: impl FnOnce() -> T) -> (T, Vec<String>) {
    let before = sim.trace().lines().len();
    let out = f();
    let ops = sim.trace().lines()[before..]
        .iter()
        .filter_map(|l| l.strip_prefix("fs."))
        .filter(|l| !["read", "open", "exists"].iter().any(|p| l.starts_with(p)))
        .map(|l| l.rsplit_once(" op=").map_or(l, |(op, _)| op).to_owned())
        .collect();
    (out, ops)
}

/// File and directory fsyncs among `ops`.
fn syncs(ops: &[String]) -> usize {
    ops.iter()
        .filter(|op| op.starts_with("fsync ") || op.starts_with("syncdir "))
        .count()
}

/// Exact sync counts: a REPL `save` costs at most 8 syncs (the
/// workspace's 6 plus the telemetry sidecar's 2); a checkpoint of a
/// fully journaled session with nothing pending touches no file at
/// all; and a checkpoint that appends its snapshot costs one write and
/// one fsync — no directory fsync, no rename. A rotation costs 4
/// syncs: the new head segment, created with the snapshot as its frame
/// 0, then its fsync and a directory fsync before the MANIFEST names
/// it, then the MANIFEST temp file's fsync, rename and directory
/// fsync. No checkpoint file is ever written.
#[test]
fn sim_checkpoint_sync_counts() {
    const TEST: &str = "sim_checkpoint_sync_counts";
    let seed = master_seed().wrapping_add(13);
    let sim = SimEnv::new(seed);
    let mut ui = Ui::new_in(sim_session(&sim, "sim"), sim.env());
    let (saved, ops) = fs_ops_of(&sim, || ui.execute(&format!("save {WS_ROOT}")));
    saved.expect("saves");
    sim_assert(
        syncs(&ops) <= 8,
        seed,
        TEST,
        &format!("a REPL save costs at most 8 syncs: {ops:#?}"),
    );
    ui.execute("goal Layout").expect("journals");

    let mut kinds = Vec::new();
    for round in 0..8 {
        // Every other checkpoint follows a direct edit the journal
        // lacks, so it must write a snapshot; the others follow only
        // journaled commands.
        if round % 2 == 1 {
            seed_netlist(ui.session_mut());
        }
        let (out, ops) = fs_ops_of(&sim, || ui.execute("checkpoint"));
        let kind = checkpoint_kind(&out.expect("checkpoints"));
        kinds.push(kind);
        if kind == CheckpointKind::Synced {
            sim_assert(
                ops.is_empty(),
                seed,
                TEST,
                &format!("a checkpoint with nothing to write touches no file: {ops:#?}"),
            );
            continue;
        }
        if kind == CheckpointKind::Appended {
            let count = |kind: &str| ops.iter().filter(|op| op.starts_with(kind)).count();
            sim_assert(
                (
                    count("write "),
                    count("fsync "),
                    count("syncdir "),
                    count("rename "),
                ) == (1, 1, 0, 0),
                seed,
                TEST,
                &format!("an appended snapshot is one write and one fsync: {ops:#?}"),
            );
            continue;
        }
        let gen = ui.workspace().expect("attached").generation();
        let order: Vec<&str> = ops
            .iter()
            .filter(|op| {
                op.starts_with("rename ")
                    || op.starts_with("syncdir ")
                    || op.starts_with("fsync ")
                    || op.starts_with(&format!("create path={WS_ROOT}/journal-"))
            })
            .map(|op| {
                if op.starts_with("fsync ") {
                    "fsync"
                } else {
                    op.as_str()
                }
            })
            .collect();
        let expected = [
            format!("create path={WS_ROOT}/journal-{gen}.log"),
            "fsync".to_owned(),
            format!("syncdir path={WS_ROOT}"),
            "fsync".to_owned(),
            format!("rename from={WS_ROOT}/MANIFEST.tmp to={WS_ROOT}/MANIFEST"),
            format!("syncdir path={WS_ROOT}"),
        ];
        sim_assert(
            order == expected
                && syncs(&ops) == 4
                && !ops.iter().any(|op| op.contains("checkpoint-")),
            seed,
            TEST,
            &format!("a rotation is 4 syncs in the order {expected:#?}, got {ops:#?}"),
        );
    }
    sim_assert(
        [
            CheckpointKind::Appended,
            CheckpointKind::Rotated,
            CheckpointKind::Synced,
        ]
        .iter()
        .all(|kind| kinds.contains(kind)),
        seed,
        TEST,
        &format!("checkpoints append, rotate and skip: {kinds:?}"),
    );
}

/// Workspace A journals four flow commands; then session B, a
/// different user's fresh session, `save`s into the same directory.
/// Returns A's last acknowledged state and B's saved state, and B's
/// outcome.
fn drive_resave(sim: &SimEnv) -> (SessionSpec, SessionSpec, Result<String, HerculesError>) {
    let mut a = Ui::new_in(sim_session(sim, "sim"), sim.env());
    a.execute(&format!("save {WS_ROOT}")).expect("A saves");
    for cmd in [
        "goal Layout",
        "expand n0",
        "specialize n2 EditedNetlist",
        "expand n2",
    ] {
        a.execute(cmd).expect(cmd);
    }
    let a_state = SessionSpec::from_session(a.session());
    drop(a);
    let mut b = Ui::new_in(sim_session(sim, "bob"), sim.env());
    let b_state = SessionSpec::from_session(b.session());
    let outcome = b.execute(&format!("save {WS_ROOT}"));
    (a_state, b_state, outcome)
}

/// A `save` over an existing workspace never writes a file the current
/// MANIFEST names: with a crash at every mutating op of the re-`save`,
/// recovery lands on A's last acknowledged state or on B's saved one —
/// never B's checkpoint with A's journal replayed on top.
#[test]
fn sim_resave_crash_sweep() {
    const TEST: &str = "sim_resave_crash_sweep";
    let seed = master_seed().wrapping_add(15);
    let clean = SimEnv::new(seed);
    let (a_state, b_state, outcome) = drive_resave(&clean);
    outcome.expect("the clean re-save completes");
    let total_ops = clean.fs_state().op_count();
    let a_ops = {
        let probe = SimEnv::new(seed);
        let mut a = Ui::new_in(sim_session(&probe, "sim"), probe.env());
        a.execute(&format!("save {WS_ROOT}")).expect("A saves");
        for cmd in [
            "goal Layout",
            "expand n0",
            "specialize n2 EditedNetlist",
            "expand n2",
        ] {
            a.execute(cmd).expect(cmd);
        }
        drop(a);
        probe.fs_state().op_count()
    };
    assert!(
        total_ops - a_ops >= 10,
        "the re-save must expose >=10 crash points, got {}",
        total_ops - a_ops
    );
    for k in (a_ops + 1)..=total_ops {
        let sim = SimEnv::new(seed);
        sim.fs_state().set_crash_at(Some(k));
        let (_, _, outcome) = drive_resave(&sim);
        if let Err(err) = outcome {
            sim_assert(
                err.to_string().contains(SIM_CRASH_MARKER),
                seed,
                TEST,
                &format!("crash at op {k}: expected the simulated crash, got: {err}"),
            );
        }
        let rebooted = sim.crash_and_reboot();
        let (_ws, recovered, report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
                .unwrap_or_else(|e| {
                    panic!(
                        "crash at op {k}: recovery failed: {e}\n  failing seed: {seed}\n  \
                         reproduce: {}",
                        repro_command(seed, TEST)
                    )
                });
        let recovered = SessionSpec::from_session(&recovered);
        sim_assert(
            recovered == a_state || recovered == b_state,
            seed,
            TEST,
            &format!(
                "crash at op {k}: recovered `{}` after {report} equals neither A's last \
                 acknowledged state nor B's saved one",
                recovered.user
            ),
        );
    }
}

/// Satellite: after a simulated crash mid-workload, reopening and
/// resuming re-runs only the failed/skipped cone — committed branches
/// come from the recovered history.
#[test]
fn sim_resume_after_crash_reruns_only_failed_subtasks() {
    const TEST: &str = "sim_resume_after_crash_reruns_only_failed_subtasks";
    let seed = master_seed().wrapping_add(1);
    let sim = SimEnv::new(seed);

    let mut session = sim_session(&sim, "sim");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    // A placer that always panics: branch B fails, branch A commits.
    let schema = session.schema().clone();
    let placer = schema.require("Placer").expect("known");
    let inner = session
        .executor_mut()
        .registry()
        .lookup(&schema, placer)
        .expect("registered")
        .clone();
    session.executor_mut().registry_mut().register(
        placer,
        FaultyEncapsulation::wrap(inner, FaultPlan::AlwaysPanic),
    );
    let seeded = seed_netlist(&mut session);

    let mut ui = Ui::new_in(session, sim.env());
    ui.execute(&format!("save {WS_ROOT}")).expect("saves");
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
    sim_assert(
        out.contains("1 failed, 2 skipped"),
        seed,
        TEST,
        &format!("expected a partial run, got: {out}"),
    );
    drop(ui); // power off

    // Reboot onto the crash image; `open` attaches the standard
    // (un-faulted) registry, so the placer works this time.
    let rebooted = sim.crash_and_reboot();
    let mut ui = Ui::new_in(sim_session(&rebooted, "after-reboot"), rebooted.env());
    ui.execute(&format!("open {WS_ROOT}")).expect("recovers");
    let restored = ui.session().last_report().expect("report survives");
    sim_assert(
        !restored.is_complete(),
        seed,
        TEST,
        "the recovered report must remember the partial execution",
    );

    ui.execute("resume").expect("completes");
    let report = ui.session().last_report().expect("resumed").clone();
    sim_assert(
        report.is_complete(),
        seed,
        TEST,
        "resume must finish the flow",
    );
    sim_assert(
        report.cache_hits() == 1,
        seed,
        TEST,
        &format!(
            "resume must serve the committed branch from history, got {} cache hits",
            report.cache_hits()
        ),
    );
    sim_assert(
        report.runs() == 3,
        seed,
        TEST,
        &format!(
            "resume must re-run only the failed cone (placer, extractor, comparator), got {}",
            report.runs()
        ),
    );
}

/// Satellite: the whole retry-backoff schedule is a function of the
/// seed — same seed, same virtual sleeps, byte for byte; and the
/// sleeps advance the virtual clock instead of blocking the test.
#[test]
fn sim_retry_backoff_is_seed_deterministic() {
    const TEST: &str = "sim_retry_backoff_is_seed_deterministic";
    let base = master_seed().wrapping_add(2);

    let run = |seed: u64| -> (Vec<String>, u64) {
        let sim = SimEnv::new(seed);
        let mut session = sim_session(&sim, "retry");
        session.executor_mut().options_mut().retry = RetryPolicy::attempts(3);
        let schema = session.schema().clone();
        let placer = schema.require("Placer").expect("known");
        let inner = session
            .executor_mut()
            .registry()
            .lookup(&schema, placer)
            .expect("registered")
            .clone();
        session.executor_mut().registry_mut().register(
            placer,
            FaultyEncapsulation::wrap(inner, FaultPlan::FailTimes(2)),
        );
        let mut ui = Ui::new_in(session, sim.env());
        for cmd in [
            "goal Layout",
            "expand n0",
            "specialize n2 EditedNetlist",
            "expand n2",
            "bind-latest",
        ] {
            ui.execute(cmd).expect(cmd);
        }
        ui.execute("run").expect("retries clear the flaky placer");
        let sleeps = sim
            .trace()
            .lines()
            .iter()
            .filter(|l| l.starts_with("clock.sleep"))
            .cloned()
            .collect();
        (sleeps, sim.clock().now().as_ns())
    };

    let (sleeps_a, clock_a) = run(base);
    sim_assert(
        sleeps_a.len() == 2,
        base,
        TEST,
        &format!(
            "two failed attempts mean two backoff sleeps, got {}",
            sleeps_a.len()
        ),
    );
    sim_assert(
        clock_a > 0,
        base,
        TEST,
        "backoff must advance the virtual clock",
    );
    let (sleeps_b, clock_b) = run(base);
    sim_assert(
        sleeps_a == sleeps_b && clock_a == clock_b,
        base,
        TEST,
        "same seed must reproduce the exact backoff schedule",
    );
    let (sleeps_c, _) = run(base.wrapping_add(1));
    sim_assert(
        sleeps_a != sleeps_c,
        base,
        TEST,
        "a different seed must explore a different jitter schedule",
    );
}

/// Satellite: a failed batch flush poisons the workspace — later
/// appends are refused and `close()` surfaces the sticky error instead
/// of dropping it.
#[test]
fn sim_group_commit_flush_failure_is_sticky_and_surfaces_on_close() {
    const TEST: &str = "sim_group_commit_flush_failure_is_sticky_and_surfaces_on_close";
    let seed = master_seed().wrapping_add(3);
    let sim = SimEnv::new(seed);

    let session = sim_session(&sim, "group");
    let mut ws = Workspace::create_in(Path::new(WS_ROOT), &session, sim.env()).expect("creates");

    // Three acknowledged frames: enqueue, then one explicit sync.
    // `Clear` replays unconditionally, so recovery can count them.
    for _ in 0..3 {
        ws.append_deferred(&JournalOp::Clear).expect("queues");
    }
    ws.sync().expect("flushes the batch durably");

    // Arm the crash on the next mutating op — the batch write of the
    // following flush — and queue two more frames.
    sim.fs_state()
        .set_crash_at(Some(sim.fs_state().op_count() + 1));
    ws.append_deferred(&JournalOp::Clear).expect("queues");
    ws.append_deferred(&JournalOp::Clear).expect("queues");
    let err = ws.sync().expect_err("the armed crash fails the flush");
    sim_assert(
        err.to_string().contains(SIM_CRASH_MARKER),
        seed,
        TEST,
        &format!("the flush failure must be the simulated crash, got: {err}"),
    );

    // The poison is sticky: no append lands after a torn flush.
    sim_assert(
        ws.append_deferred(&JournalOp::BindLatest).is_err(),
        seed,
        TEST,
        "appends after a failed flush must be refused",
    );
    sim_assert(
        ws.sync().is_err(),
        seed,
        TEST,
        "sync after a failed flush must keep failing",
    );
    let close_err = ws.close().expect_err("close must surface the sticky error");
    sim_assert(
        close_err.to_string().contains(SIM_CRASH_MARKER),
        seed,
        TEST,
        &format!("close must report the original flush failure, got: {close_err}"),
    );

    // The three acknowledged frames survive the crash; the torn batch
    // is at most a submitted-but-unacknowledged tail.
    let rebooted = sim.crash_and_reboot();
    let (_ws, _session, report) =
        Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
            .expect("recovers");
    sim_assert(
        (3..=5).contains(&report.ops_replayed),
        seed,
        TEST,
        &format!(
            "recovery must keep the 3 acknowledged frames (plus at most the torn tail), got {}",
            report.ops_replayed
        ),
    );
}

/// Segment bound of the deferred-batch sweep: a few frames, so
/// segments roll between and after batches.
const BATCH_SEGMENT_MAX: u64 = 512;

/// An `Exec` frame that only appends the event `label` to the log, so
/// the recovered event log names exactly which frames replayed.
fn event_op(label: &str) -> JournalOp {
    JournalOp::Exec(ExecSpec {
        instances: Vec::new(),
        report: None,
        event: Some(ExecEvent {
            operation: label.to_owned(),
            tasks: 0,
            runs: 0,
            cache_hits: 0,
            failed: 0,
            skipped: 0,
            failures: Vec::new(),
            error: None,
            wall_unix_ms: 0,
            mono_ns: 0,
        }),
    })
}

/// How far the deferred-batch workload got before it stopped.
#[derive(Default)]
struct BatchProgress {
    /// Labels of every frame handed to `append_deferred`, in order.
    submitted: Vec<String>,
    /// How many of `submitted` a returned `sync` acknowledged.
    acknowledged: usize,
}

/// Drives the deferred-batch workload: three generations of four
/// rounds, each round `k` deferred frames (`k` in 1..=4, drawn from
/// `seed`) made durable by one `sync`, with a checkpoint between
/// generations. The live session replays every frame too, so each
/// checkpoint captures the event log so far. Stops at the first error.
fn drive_deferred_batches(
    sim: &SimEnv,
    seed: u64,
    metrics: &Metrics,
    progress: &mut BatchProgress,
) -> Result<(), StoreError> {
    let mut session = sim_session(sim, "batch");
    let mut ws = Workspace::create_in(Path::new(WS_ROOT), &session, sim.env())?;
    ws.set_metrics(metrics.clone());
    ws.set_segment_max_bytes(BATCH_SEGMENT_MAX);
    let mut rng = SimRng::new(seed);
    for gen in 0..3 {
        if gen > 0 {
            ws.checkpoint(&session)?;
        }
        for round in 0..4 {
            for i in 0..=rng.below(4) {
                let label = format!("g{gen} r{round} f{i}");
                let op = event_op(&label);
                op.replay(&mut session).expect("an event frame replays");
                ws.append_deferred(&op)?;
                progress.submitted.push(label);
            }
            ws.sync()?;
            progress.acknowledged = progress.submitted.len();
        }
    }
    ws.close()
}

/// One fsync per batch loses nothing acknowledged: a crash at every
/// mutating op of a batched workload — deferred frames, one `sync` per
/// batch, segment rolls and checkpoints — recovers every acknowledged
/// frame plus at most a prefix of the in-flight batch.
#[test]
fn sim_deferred_batch_crash_sweep() {
    const TEST: &str = "sim_deferred_batch_crash_sweep";
    let master = master_seed();
    let seed = master.wrapping_add(12);

    let clean = SimEnv::new(seed);
    let metrics = Metrics::new();
    let mut progress = BatchProgress::default();
    drive_deferred_batches(&clean, seed, &metrics, &mut progress).expect("clean run completes");
    let snap = metrics.snapshot();
    let frames = snap.histograms["store.append_bytes"].count;
    let fsyncs = snap.histograms["store.fsync_ns"].count;
    sim_assert(
        fsyncs < frames && snap.counters.get(names::STORE_SEGMENT_ROLLS) > Some(&0),
        master,
        TEST,
        &format!("the workload must batch and roll: {frames} frames, {fsyncs} fsyncs"),
    );
    let total_ops = clean.fs_state().op_count();
    // Only sweep ops after workspace creation: before the manifest is
    // durable there is nothing to recover.
    let create_ops = {
        let probe = SimEnv::new(seed);
        let session = sim_session(&probe, "batch");
        Workspace::create_in(Path::new(WS_ROOT), &session, probe.env()).expect("creates");
        probe.fs_state().op_count()
    };

    for k in (create_ops + 1)..=total_ops {
        let sim = SimEnv::new(seed);
        sim.fs_state().set_crash_at(Some(k));
        let mut progress = BatchProgress::default();
        let outcome = drive_deferred_batches(&sim, seed, &Metrics::disabled(), &mut progress);
        if let Err(err) = outcome {
            sim_assert(
                err.to_string().contains(SIM_CRASH_MARKER),
                master,
                TEST,
                &format!("crash at op {k}: expected the simulated crash, got: {err}"),
            );
        }
        let rebooted = sim.crash_and_reboot();
        let (_ws, recovered, _report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
                .unwrap_or_else(|e| {
                    panic!(
                        "crash at op {k}: recovery failed: {e}\n  failing seed: {master}\n  \
                         reproduce: {}",
                        repro_command(master, TEST)
                    )
                });
        let replayed: Vec<&str> = recovered
            .events()
            .iter()
            .map(|e| e.operation.as_str())
            .collect();
        sim_assert(
            (progress.acknowledged..=progress.submitted.len()).contains(&replayed.len()),
            master,
            TEST,
            &format!(
                "crash at op {k}: recovered {} frames; {} acknowledged, {} submitted",
                replayed.len(),
                progress.acknowledged,
                progress.submitted.len()
            ),
        );
        sim_assert(
            replayed == progress.submitted[..replayed.len()],
            master,
            TEST,
            &format!(
                "crash at op {k}: the recovered frames are not a prefix of the submitted ones"
            ),
        );
    }
}

/// Frames of the extension sweep's workload.
const EXTENSION_FRAMES: usize = 24;

/// How far past its base the extension sweep's segment bound sits: more
/// than one chunk of free space, so the second extension is capped at
/// the bound, yet few enough frames that the segment rolls.
const EXTENSION_BOUND: u64 = 100 * 1024;

/// A frame of about 6 KiB, labelled `x{i}`: a dozen fill a chunk of
/// free space.
fn bulky_event(i: usize) -> (String, JournalOp) {
    let label = format!("x{i:02} {}", "z".repeat(6 * 1024));
    let op = event_op(&label);
    (label, op)
}

/// Drives the extension workload: a fresh workspace whose segment
/// bound sits [`EXTENSION_BOUND`] past its base, then
/// [`EXTENSION_FRAMES`] bulky frames, each appended and acknowledged on
/// its own. The first append pads the head segment with a chunk of free
/// space and the next ones overwrite it; a later one pads only up to the
/// bound; the segment rolls there, and the next segment is padded
/// again. Stops at the first error.
fn drive_extensions(sim: &SimEnv, progress: &mut BatchProgress) -> Result<(), StoreError> {
    let session = sim_session(sim, "extend");
    let mut ws = Workspace::create_in(Path::new(WS_ROOT), &session, sim.env())?;
    let head = Path::new(WS_ROOT).join("journal-0.log");
    let base = sim.fs_state().file_len(&head).expect("the head exists") as u64;
    ws.set_segment_max_bytes(base + EXTENSION_BOUND);
    for i in 0..EXTENSION_FRAMES {
        let (label, op) = bulky_event(i);
        progress.submitted.push(label);
        ws.append(&op)?;
        progress.acknowledged = progress.submitted.len();
    }
    ws.close()
}

/// Every `journal-*` segment on the simulated disk, by path, with its
/// bytes.
fn journal_files(sim: &SimEnv) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    disk_image(sim)
        .into_iter()
        .filter(|(path, _)| path.to_string_lossy().contains("/journal-"))
        .collect()
}

/// Free space costs no disk operation and survives every crash: a crash
/// point at every mutating op of a workload whose acknowledged appends
/// pad the active segment with zeros and then overwrite them — torn
/// padded writes included — recovers every acknowledged frame and at
/// most a prefix of the in-flight one. Zeros after the last frame are
/// never discarded or quarantined, and the reopened handle writes its
/// next frame where the frames end, into the free space.
#[test]
fn sim_journal_extension_crash_sweep() {
    const TEST: &str = "sim_journal_extension_crash_sweep";
    let master = master_seed();
    let seed = master.wrapping_add(18);

    // The clean run pads, overwrites, caps at the bound and rolls, and
    // each acknowledged append is one write and one fsync.
    let clean = SimEnv::new(seed);
    let mut progress = BatchProgress::default();
    let (done, ops) = fs_ops_of(&clean, || drive_extensions(&clean, &mut progress));
    done.expect("clean run completes");
    let count = |kind: &str| ops.iter().filter(|op| op.starts_with(kind)).count();
    let segments = journal_files(&clean);
    let rolls = segments.len() - 1;
    sim_assert(
        rolls == 1 && count("write file=") >= EXTENSION_FRAMES,
        master,
        TEST,
        &format!("the workload must roll once: {segments:?}"),
    );
    // By path, `journal-0.1.log` sorts before the head `journal-0.log`.
    let (active, sealed) = (&segments[0].1, &segments[1].1);
    let (sealed_scan, active_scan) = (scan_frames(sealed), scan_frames(active));
    sim_assert(
        sealed_scan.free == 0 && sealed_scan.trailing == 0 && active_scan.free > 0,
        master,
        TEST,
        "the sealed segment ends at its last frame; the active one in free space",
    );
    let total_ops = clean.fs_state().op_count();
    let create_ops = {
        let probe = SimEnv::new(seed);
        let session = sim_session(&probe, "extend");
        let mut ws =
            Workspace::create_in(Path::new(WS_ROOT), &session, probe.env()).expect("creates");
        let create_ops = probe.fs_state().op_count();
        for i in 0..2 {
            let (_, op) = bulky_event(i);
            let head = Path::new(WS_ROOT).join("journal-0.log");
            let before = probe.fs_state().file_len(&head).expect("head");
            let (appended, ops) = fs_ops_of(&probe, || ws.append(&op));
            appended.expect("appends");
            let count = |kind: &str| ops.iter().filter(|op| op.starts_with(kind)).count();
            let after = probe.fs_state().file_len(&head).expect("head");
            sim_assert(
                (count("write "), count("fsync "), ops.len()) == (1, 1, 2)
                    && (after > before) == (i == 0),
                master,
                TEST,
                &format!(
                    "append {i} is one write and one fsync, and only the first grows \
                     the file ({before} -> {after} bytes): {ops:#?}"
                ),
            );
        }
        create_ops
    };

    for k in (create_ops + 1)..=total_ops {
        let sim = SimEnv::new(seed);
        sim.fs_state().set_crash_at(Some(k));
        let mut progress = BatchProgress::default();
        if let Err(err) = drive_extensions(&sim, &mut progress) {
            sim_assert(
                err.to_string().contains(SIM_CRASH_MARKER),
                master,
                TEST,
                &format!("crash at op {k}: expected the simulated crash, got: {err}"),
            );
        }
        let rebooted = sim.crash_and_reboot();
        let crashed = journal_files(&rebooted);
        let (mut ws, recovered, report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
                .unwrap_or_else(|e| {
                    panic!(
                        "crash at op {k}: recovery failed: {e}\n  failing seed: {master}\n  \
                         reproduce: {}",
                        repro_command(master, TEST)
                    )
                });
        let replayed: Vec<&str> = recovered
            .events()
            .iter()
            .map(|e| e.operation.as_str())
            .collect();
        sim_assert(
            (progress.acknowledged..=progress.submitted.len()).contains(&replayed.len())
                && replayed == progress.submitted[..replayed.len()],
            master,
            TEST,
            &format!(
                "crash at op {k}: recovered {} frames, not a prefix of the {} submitted \
                 holding the {} acknowledged",
                replayed.len(),
                progress.submitted.len(),
                progress.acknowledged
            ),
        );

        // Only the in-flight frame can be torn, and nothing follows it:
        // damage is truncated, never quarantined, and zeros are kept.
        let active = Path::new(WS_ROOT).join(ws.segments().last().expect("a segment"));
        let before = &crashed
            .iter()
            .find(|(path, _)| *path == active)
            .expect("the active segment existed")
            .1;
        let scan = scan_frames(before);
        let after = rebooted.fs().read(&active).expect("reads");
        let tail = &before[scan.valid_len..];
        let (discarded, kept) = if tail.iter().all(|&byte| byte == 0) {
            (0, &before[..])
        } else {
            (tail.len(), &before[..scan.valid_len])
        };
        sim_assert(
            !report.quarantined() && report.bytes_discarded == discarded as u64 && after == kept,
            master,
            TEST,
            &format!(
                "crash at op {k}: {} frame byte(s) and a {}-byte tail, {discarded} of it \
                 damage; recovery discarded {} and left {} byte(s): {report}",
                scan.valid_len,
                tail.len(),
                report.bytes_discarded,
                after.len()
            ),
        );

        // The reopened handle writes where the frames end.
        let probe = event_op("reopened");
        ws.append(&probe).expect("the reopened handle appends");
        let written = rebooted.fs().read(&active).expect("reads");
        let rescan = scan_frames(&written);
        let frame = rescan.valid_len - scan.valid_len;
        sim_assert(
            rescan.payloads.len() == scan.payloads.len() + 1
                && (after.len() - scan.valid_len < frame || written.len() == after.len()),
            master,
            TEST,
            &format!(
                "crash at op {k}: the {frame}-byte frame after reopening must land at byte \
                 {} and inside the {} byte(s) of free space when it fits",
                scan.valid_len,
                after.len() - scan.valid_len
            ),
        );
        drop(ws);
        let (_ws, recovered, report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
                .expect("reopens");
        sim_assert(
            report.bytes_discarded == 0
                && recovered.events().last().map(|e| e.operation.as_str()) == Some("reopened"),
            master,
            TEST,
            &format!("crash at op {k}: the frame written after reopening replays: {report}"),
        );
    }
}

/// Builds a tiny multi-segment store: segment size 1 forces a roll
/// after every append, so `appends` frames land in `appends + 1`
/// numbered segments (the last one empty). The handle is closed, so
/// the lease is released and the next open is a clean takeover-free
/// open.
fn build_segmented_store(sim: &SimEnv, appends: usize) {
    let session = sim_session(sim, "rot");
    let mut ws = Workspace::create_in(Path::new(WS_ROOT), &session, sim.env()).expect("creates");
    ws.set_segment_max_bytes(1);
    for _ in 0..appends {
        ws.append(&JournalOp::Clear).expect("appends");
    }
    ws.close().expect("closes");
}

/// Every file on the simulated disk, by path, with its bytes.
fn disk_image(sim: &SimEnv) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    sim.fs_state()
        .current_paths()
        .into_iter()
        .filter_map(|path| {
            let bytes = sim.fs().read(&path).ok()?;
            Some((path, bytes))
        })
        .collect()
}

/// Flips the bits `xor` of byte `off` of `path`, asserts that `open`
/// then fails with [`StoreError::Corrupt`] and changes no file, and
/// undoes the flip.
fn assert_open_refuses_rot(sim: &SimEnv, path: &Path, off: usize, xor: u8, seed: u64, test: &str) {
    let label = format!("flip {xor:#04x} at {}:{off}", path.display());
    sim_assert(
        sim.fs_state().corrupt_file(path, off, xor),
        seed,
        test,
        &format!("{label}: the byte must exist"),
    );
    let before = disk_image(sim);
    match Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), sim.env()) {
        Err(StoreError::Corrupt { .. }) => {}
        Err(e) => sim_assert(false, seed, test, &format!("{label}: not corruption: {e}")),
        Ok((_ws, _session, report)) => sim_assert(
            false,
            seed,
            test,
            &format!("{label}: recovered silently: {report}"),
        ),
    }
    sim_assert(
        disk_image(sim) == before,
        seed,
        test,
        &format!("{label}: a failed open must change no file"),
    );
    sim.fs_state().corrupt_file(path, off, xor);
}

/// Tentpole acceptance: flip *every byte* of *every segment* of a
/// multi-segment journal, one world per flip. Recovery must never
/// panic and never silently lose data: every frame is either replayed
/// or counted quarantined, and every quarantine path the report names
/// exists on disk. A second open of the repaired store is clean. A flip
/// inside frame 0, the base, instead fails the open and changes no
/// file, so those flips share one world.
#[test]
fn sim_bitrot_sweep_multi_segment() {
    const TEST: &str = "sim_bitrot_sweep_multi_segment";
    const APPENDS: usize = 4;
    let seed = master_seed().wrapping_add(5);

    // Learn the layout from one clean build.
    let probe = SimEnv::new(seed);
    build_segmented_store(&probe, APPENDS);
    let segments: Vec<(std::path::PathBuf, usize)> = probe
        .fs_state()
        .current_paths()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".log"))
        })
        .map(|p| {
            let len = probe.fs_state().file_len(&p).unwrap_or(0);
            (p, len)
        })
        .collect();
    assert!(
        segments.len() > APPENDS,
        "rotation must produce multiple segments, got {}",
        segments.len()
    );
    let head = Path::new(WS_ROOT).join("journal-0.log");
    let base_end = scan_frames(&probe.fs().read(&head).expect("head segment")).offsets[0];
    for off in 0..base_end {
        assert_open_refuses_rot(&probe, &head, off, 0x5A, seed, TEST);
    }

    for (path, len) in &segments {
        let from = if *path == head { base_end } else { 0 };
        for off in from..*len {
            let sim = SimEnv::new(seed);
            build_segmented_store(&sim, APPENDS);
            sim_assert(
                sim.fs_state().corrupt_file(path, off, 0x5A),
                seed,
                TEST,
                &format!("byte {off} of {} must exist", path.display()),
            );
            let (_ws, _session, report) = Workspace::open_session_in(
                Path::new(WS_ROOT),
                |s| odyssey_registry(s),
                sim.env(),
            )
            .unwrap_or_else(|e| {
                panic!(
                    "rot at {}:{off}: recovery failed: {e}\n  failing seed: {seed}\n  reproduce: {}",
                    path.display(),
                    repro_command(seed, TEST)
                )
            });
            let lost: usize = report.segments.iter().map(|s| s.frames_quarantined).sum();
            sim_assert(
                (APPENDS - 1..=APPENDS).contains(&(report.ops_replayed + lost)),
                seed,
                TEST,
                &format!(
                    "rot at {}:{off}: {} replayed + {lost} quarantined must account for \
                     all {APPENDS} frames minus at most the damaged one",
                    path.display(),
                    report.ops_replayed
                ),
            );
            for seg in &report.segments {
                for q in &seg.quarantined_as {
                    sim_assert(
                        sim.fs().exists(&Path::new(WS_ROOT).join(q)),
                        seed,
                        TEST,
                        &format!("quarantine file `{q}` named by the report must exist"),
                    );
                }
            }
            // The repair converged: a second open finds nothing to fix.
            let (_ws2, _s2, report2) =
                Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), sim.env())
                    .expect("repaired store reopens");
            sim_assert(
                report2.ops_replayed == report.ops_replayed
                    && !report2.quarantined()
                    && !report2.truncated,
                seed,
                TEST,
                &format!(
                    "rot at {}:{off}: second open must be clean with the same prefix",
                    path.display()
                ),
            );
        }
    }
}

/// Every bit of MANIFEST is checked: over a one-segment workspace with
/// five appended operations and a six-segment one, each single-bit
/// flip fails `open` with an error and changes no file, so a flipped
/// segment name can neither drop acknowledged frames nor truncate a
/// journal.
#[test]
fn sim_manifest_bit_flip_sweep() {
    const TEST: &str = "sim_manifest_bit_flip_sweep";
    let seed = master_seed().wrapping_add(16);
    let manifest = Path::new(WS_ROOT).join("MANIFEST");
    for (segment_max, chain) in [(None, 1), (Some(1), 6)] {
        let sim = SimEnv::new(seed);
        let session = sim_session(&sim, "flip");
        let mut ws =
            Workspace::create_in(Path::new(WS_ROOT), &session, sim.env()).expect("creates");
        if let Some(max) = segment_max {
            ws.set_segment_max_bytes(max);
        }
        for _ in 0..5 {
            ws.append(&JournalOp::Clear).expect("appends");
        }
        sim_assert(
            ws.segments().len() == chain,
            seed,
            TEST,
            &format!("expected a {chain}-segment chain, got {:?}", ws.segments()),
        );
        ws.close().expect("closes");
        let len = sim.fs_state().file_len(&manifest).expect("MANIFEST exists");
        for off in 0..len {
            for bit in 0..8 {
                assert_open_refuses_rot(&sim, &manifest, off, 1 << bit, seed, TEST);
            }
        }
        let (_ws, _session, report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), sim.env())
                .expect("the unflipped workspace opens");
        sim_assert(
            report.ops_replayed == 5 && !report.truncated,
            seed,
            TEST,
            &format!("every acknowledged frame survives the sweep: {report}"),
        );
    }
}

/// Every bit of frame 0, the base, is checked: each single-bit flip
/// fails `open` with [`StoreError::Corrupt`] and changes no file, and
/// `scrub` on a live read-only handle reports it as damage. CRC32
/// catches every single-bit error, so no flip is restored silently.
#[test]
fn sim_base_frame_bit_flip_sweep() {
    const TEST: &str = "sim_base_frame_bit_flip_sweep";
    let seed = master_seed().wrapping_add(17);
    let sim = SimEnv::new(seed);
    let mut writer =
        Workspace::create_in(Path::new(WS_ROOT), &sim_session(&sim, "flip"), sim.env())
            .expect("creates");
    writer.append(&JournalOp::Clear).expect("appends");
    // While `writer` holds the lease, another owner's handle is
    // read-only: its scrub reports damage without repairing it.
    let (mut reader, session, _) = Workspace::open_session_as(
        Path::new(WS_ROOT),
        |s| odyssey_registry(s),
        sim.env(),
        "reader",
        30_000,
    )
    .expect("opens read-only");
    sim_assert(!reader.is_writable(), seed, TEST, "the reader is degraded");
    let head = Path::new(WS_ROOT).join("journal-0.log");
    let base_end = scan_frames(&sim.fs().read(&head).expect("head segment")).offsets[0];
    for off in 0..base_end {
        for bit in 0..8 {
            let xor = 1 << bit;
            assert_open_refuses_rot(&sim, &head, off, xor, seed, TEST);
            sim.fs_state().corrupt_file(&head, off, xor);
            let report = reader.scrub(&session).expect("scrubs");
            sim_assert(
                report.damaged && !report.repaired && report.segments[0].frames_ok == 0,
                seed,
                TEST,
                &format!("flip {xor:#04x} at byte {off} of the base: scrub reported {report}"),
            );
            sim.fs_state().corrupt_file(&head, off, xor);
        }
    }
    drop(reader);
    drop(writer);
}

/// Satellite: a crash point at every mutating disk op inside
/// `scrub()`'s quarantine-and-rebaseline repair. After any crash the
/// rebooted store must recover to a consistent state — the replayed
/// prefix (generation 0) or the freshly re-baselined checkpoint
/// (generation 1) — and a follow-up scrub finds the store clean.
#[test]
fn sim_scrub_and_repair_crash_sweep() {
    const TEST: &str = "sim_scrub_and_repair_crash_sweep";
    const APPENDS: usize = 3;
    let seed = master_seed().wrapping_add(6);
    let target = Path::new(WS_ROOT).join("journal-0.1.log");

    // Clean reference run: open, then rot a mid-chain segment, then
    // scrub — the repair quarantines and re-baselines.
    let probe = SimEnv::new(seed);
    build_segmented_store(&probe, APPENDS);
    let (mut ws, session, report) =
        Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), probe.env())
            .expect("clean open");
    sim_assert(report.ops_replayed == APPENDS, seed, TEST, "clean replay");
    let open_ops = probe.fs_state().op_count();
    sim_assert(
        probe.fs_state().corrupt_file(&target, 9, 0xFF),
        seed,
        TEST,
        "the mid-chain segment must have a byte 9 to rot",
    );
    let scrubbed = ws.scrub(&session).expect("scrub repairs");
    sim_assert(
        scrubbed.damaged && scrubbed.repaired,
        seed,
        TEST,
        &format!("scrub must find and repair the rot, got: {scrubbed}"),
    );
    let total_ops = probe.fs_state().op_count();
    drop(ws);
    assert!(
        total_ops - open_ops >= 10,
        "the scrub repair must expose >=10 crash points, got {}",
        total_ops - open_ops
    );

    for k in (open_ops + 1)..=total_ops {
        let sim = SimEnv::new(seed);
        build_segmented_store(&sim, APPENDS);
        let (mut ws, session, _report) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), sim.env())
                .expect("clean open");
        sim.fs_state().corrupt_file(&target, 9, 0xFF);
        sim.fs_state().set_crash_at(Some(k));
        match ws.scrub(&session) {
            Err(err) => sim_assert(
                err.to_string().contains(SIM_CRASH_MARKER),
                seed,
                TEST,
                &format!("crash at op {k}: scrub must surface the simulated crash, got: {err}"),
            ),
            // The crash can land inside the re-baseline's best-effort
            // cleanup of retired generation files; the manifest swap is
            // already durable there, so scrub legitimately succeeds.
            Ok(report) => sim_assert(
                report.damaged && report.repaired,
                seed,
                TEST,
                &format!("crash at op {k}: a surviving scrub must have repaired, got: {report}"),
            ),
        }
        drop(ws);

        let rebooted = sim.crash_and_reboot();
        let (mut ws2, s2, report2) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
                .unwrap_or_else(|e| {
                    panic!(
                "crash at op {k}: recovery failed: {e}\n  failing seed: {seed}\n  reproduce: {}",
                repro_command(seed, TEST)
            )
                });
        sim_assert(
            (report2.generation == 0 && report2.ops_replayed == 1)
                || (report2.generation == 1 && report2.ops_replayed == 0),
            seed,
            TEST,
            &format!(
                "crash at op {k}: recovery must land on the pre-damage prefix (gen 0, \
                 1 op) or the re-baselined checkpoint (gen 1, 0 ops), got generation {} \
                 with {} op(s)",
                report2.generation, report2.ops_replayed
            ),
        );
        let rescrub = ws2.scrub(&s2).expect("post-recovery scrub");
        sim_assert(
            !rescrub.damaged,
            seed,
            TEST,
            &format!("crash at op {k}: the reopened store must scrub clean, got: {rescrub}"),
        );
    }
}

/// A latent read error on a mid-chain segment under a live handle:
/// `scrub` reports the segment unreadable, renames it aside into
/// quarantine and re-baselines onto a new generation from the live
/// session, and the next `open` recovers that session with nothing left
/// to repair.
#[test]
fn sim_scrub_quarantines_an_unreadable_segment_and_rebaselines() {
    const TEST: &str = "sim_scrub_quarantines_an_unreadable_segment_and_rebaselines";
    const APPENDS: usize = 3;
    let seed = master_seed().wrapping_add(19);
    let root = Path::new(WS_ROOT);
    let name = "journal-0.1.log";
    let sim = SimEnv::new(seed);
    build_segmented_store(&sim, APPENDS);
    let (mut ws, session, report) =
        Workspace::open_session_in(root, |s| odyssey_registry(s), sim.env()).expect("clean open");
    sim_assert(report.ops_replayed == APPENDS, seed, TEST, "clean replay");
    let chain = ws.segments().to_vec();
    sim_assert(
        chain.len() > 2 && chain[1] == name,
        seed,
        TEST,
        &format!("{name} must sit mid-chain, got {chain:?}"),
    );
    sim.fs_state().set_read_error(&root.join(name), true);

    let scrubbed = ws.scrub(&session).expect("scrub repairs");
    let rows: Vec<&str> = scrubbed.segments.iter().map(|s| s.name.as_str()).collect();
    sim_assert(
        rows == chain,
        seed,
        TEST,
        &format!("rows in chain order: {scrubbed}"),
    );
    let row = &scrubbed.segments[1];
    sim_assert(
        !row.readable && scrubbed.damaged && scrubbed.repaired,
        seed,
        TEST,
        &format!("scrub must find {name} unreadable and repair it, got: {scrubbed}"),
    );
    let aside = format!("{name}.quarantined-0");
    sim_assert(
        row.quarantined_as == [aside.clone()]
            && sim.fs().exists(&root.join(&aside))
            && !sim.fs().exists(&root.join(name)),
        seed,
        TEST,
        &format!(
            "{name} must be renamed aside as {aside}, got {:?}",
            row.quarantined_as
        ),
    );
    sim_assert(ws.generation() == 1, seed, TEST, "scrub re-baselines");
    let expected = SessionSpec::from_session(&session);
    drop(ws);

    let (_ws, restored, report) =
        Workspace::open_session_in(root, |s| odyssey_registry(s), sim.env()).expect("reopens");
    sim_assert(
        report.generation == 1
            && report.ops_replayed == 0
            && !report.truncated
            && !report.quarantined(),
        seed,
        TEST,
        &format!("the re-baselined store reopens clean, got: {report}"),
    );
    sim_assert(
        SessionSpec::from_session(&restored) == expected,
        seed,
        TEST,
        "the reopened session is the live one scrub re-baselined from",
    );
}

/// Satellite: a crash point at every mutating disk op inside a
/// stale-lease takeover. The takeover's MANIFEST/LEASE writes may tear
/// anywhere; the next open by the same claimant must always succeed,
/// replay every durable frame, and end with a fencing token strictly
/// above the dead writer's.
#[test]
fn sim_takeover_crash_sweep() {
    const TEST: &str = "sim_takeover_crash_sweep";
    let seed = master_seed().wrapping_add(7);

    // Writer "a" (the default `local` owner) dies holding the lease.
    let build = |sim: &SimEnv| {
        let session = sim_session(sim, "a");
        let mut ws =
            Workspace::create_in(Path::new(WS_ROOT), &session, sim.env()).expect("creates");
        for _ in 0..3 {
            ws.append(&JournalOp::Clear).expect("appends");
        }
        std::mem::forget(ws); // died without releasing the lease
    };

    let probe = SimEnv::new(seed);
    build(&probe);
    let base_ops = probe.fs_state().op_count();
    let dead_token = 1; // `create_in` starts the token sequence at 1
    probe.clock().advance(Duration::from_millis(31_000)); // past the 30s lease
    let (ws, _s, report) = Workspace::open_session_as(
        Path::new(WS_ROOT),
        |s| odyssey_registry(s),
        probe.env(),
        "b",
        30_000,
    )
    .expect("stale lease is taken over");
    sim_assert(
        ws.is_writable() && report.ops_replayed == 3 && ws.fencing_token() > dead_token,
        seed,
        TEST,
        "the takeover must be writable, replay all frames, and bump the token",
    );
    let total_ops = probe.fs_state().op_count();
    drop(ws);
    assert!(
        total_ops > base_ops,
        "the takeover must perform mutating disk ops"
    );

    for k in (base_ops + 1)..=total_ops {
        let sim = SimEnv::new(seed);
        build(&sim);
        sim.clock().advance(Duration::from_millis(31_000));
        sim.fs_state().set_crash_at(Some(k));
        let err = Workspace::open_session_as(
            Path::new(WS_ROOT),
            |s| odyssey_registry(s),
            sim.env(),
            "b",
            30_000,
        )
        .map(|_| ())
        .expect_err("the armed crash aborts the takeover");
        sim_assert(
            err.to_string().contains(SIM_CRASH_MARKER),
            seed,
            TEST,
            &format!("crash at op {k}: takeover must surface the crash, got: {err}"),
        );

        let rebooted = sim.crash_and_reboot();
        let (ws2, _s2, report2) = Workspace::open_session_as(
            Path::new(WS_ROOT),
            |s| odyssey_registry(s),
            rebooted.env(),
            "b",
            30_000,
        )
        .unwrap_or_else(|e| {
            panic!(
                "crash at op {k}: retry must succeed: {e}\n  failing seed: {seed}\n  reproduce: {}",
                repro_command(seed, TEST)
            )
        });
        sim_assert(
            ws2.is_writable(),
            seed,
            TEST,
            &format!("crash at op {k}: the retried takeover must be writable"),
        );
        sim_assert(
            report2.ops_replayed == 3,
            seed,
            TEST,
            &format!(
                "crash at op {k}: all 3 durable frames must replay, got {}",
                report2.ops_replayed
            ),
        );
        sim_assert(
            ws2.fencing_token() > dead_token,
            seed,
            TEST,
            &format!(
                "crash at op {k}: the token must end strictly above the dead \
                 writer's, got {}",
                ws2.fencing_token()
            ),
        );
    }
}

/// Satellite acceptance: two workspaces on one store. Writer "a" goes
/// quiet past its lease; "b" takes over with a higher fencing token.
/// Every mutation from the deposed "a" handle is rejected by token
/// check — the journal shows **zero post-fencing frames** from "a" —
/// and a later open replays exactly the five legitimate frames.
#[test]
fn sim_split_brain_fencing() {
    const TEST: &str = "sim_split_brain_fencing";
    let seed = master_seed().wrapping_add(8);
    let sim = SimEnv::new(seed);

    let session_a = sim_session(&sim, "a");
    let mut ws_a =
        Workspace::create_in(Path::new(WS_ROOT), &session_a, sim.env()).expect("creates");
    for _ in 0..3 {
        ws_a.append(&JournalOp::Clear).expect("appends");
    }
    let token_a = ws_a.fencing_token();

    // "a" stalls past its 30s lease; "b" opens the same store.
    sim.clock().advance(Duration::from_millis(31_000));
    let (mut ws_b, _session_b, report_b) = Workspace::open_session_as(
        Path::new(WS_ROOT),
        |s| odyssey_registry(s),
        sim.env(),
        "b",
        30_000,
    )
    .expect("takes over the expired lease");
    sim_assert(
        report_b.ops_replayed == 3 && ws_b.is_writable(),
        seed,
        TEST,
        "the takeover must replay a's acknowledged frames and be writable",
    );
    sim_assert(
        ws_b.fencing_token() > token_a,
        seed,
        TEST,
        "the takeover must bump the fencing token past the deposed writer's",
    );
    for _ in 0..2 {
        ws_b.append(&JournalOp::Clear).expect("appends");
    }

    // The deposed writer wakes up: every mutation is fenced out.
    let err = ws_a
        .append(&JournalOp::BindLatest)
        .expect_err("deposed append is rejected");
    sim_assert(
        matches!(err, StoreError::Degraded(DegradedReason::Fenced { .. })),
        seed,
        TEST,
        &format!("the rejection must be a typed fencing error, got: {err}"),
    );
    sim_assert(
        ws_a.sync().is_err() && ws_a.checkpoint(&session_a).is_err() && !ws_a.is_writable(),
        seed,
        TEST,
        "every later mutation from the deposed handle must stay rejected",
    );

    // Zero post-fencing frames from "a": the journal holds exactly
    // the base, a's 3 pre-takeover frames and b's 2.
    let journal = sim
        .fs()
        .read(&Path::new(WS_ROOT).join("journal-0.log"))
        .expect("journal readable");
    let scan = scan_frames(&journal);
    sim_assert(
        scan.payloads.len() == 6 && scan.trailing == 0,
        seed,
        TEST,
        &format!(
            "expected exactly 6 frames (the base, 3 from a, 2 from b) and no tail, \
             got {} + {} byte(s)",
            scan.payloads.len(),
            scan.trailing
        ),
    );

    // Dropping the deposed handle must not clobber b's lease.
    drop(ws_a);
    sim_assert(
        sim.fs().exists(&Path::new(WS_ROOT).join("LEASE")),
        seed,
        TEST,
        "the deposed writer's drop must leave the new writer's lease alone",
    );

    // A successor open sees the five legitimate frames — nothing more.
    drop(ws_b);
    let (_ws_c, _s_c, report_c) = Workspace::open_session_as(
        Path::new(WS_ROOT),
        |s| odyssey_registry(s),
        sim.env(),
        "c",
        30_000,
    )
    .expect("released lease reopens");
    sim_assert(
        report_c.ops_replayed == 5,
        seed,
        TEST,
        &format!(
            "the successor must replay exactly the 5 legitimate frames, got {}",
            report_c.ops_replayed
        ),
    );
}

/// A deposed writer's deferred frames never reach the journal: the
/// `sync` that finds the newer token discards them and fails typed,
/// and dropping the handle writes nothing either.
#[test]
fn sim_fenced_sync_discards_pending_frames() {
    const TEST: &str = "sim_fenced_sync_discards_pending_frames";
    let master = master_seed();
    let sim = SimEnv::new(master.wrapping_add(13));

    let session_a = sim_session(&sim, "a");
    let mut ws_a =
        Workspace::create_in(Path::new(WS_ROOT), &session_a, sim.env()).expect("creates");
    let metrics = Metrics::new();
    ws_a.set_metrics(metrics.clone());
    ws_a.append(&JournalOp::Clear).expect("appends");
    for _ in 0..2 {
        ws_a.append_deferred(&JournalOp::Clear)
            .expect("defers while the lease holds");
    }

    // "a" stalls past its lease with two frames pending; "b" takes over.
    sim.clock().advance(Duration::from_millis(31_000));
    let (_ws_b, _session_b, _) = Workspace::open_session_as(
        Path::new(WS_ROOT),
        |s| odyssey_registry(s),
        sim.env(),
        "b",
        30_000,
    )
    .expect("takes over the expired lease");

    let err = ws_a.sync().expect_err("the deposed sync is fenced");
    sim_assert(
        matches!(err, StoreError::Degraded(DegradedReason::Fenced { .. })),
        master,
        TEST,
        &format!("the rejection must be a typed fencing error, got: {err}"),
    );
    sim_assert(
        metrics
            .snapshot()
            .counters
            .get(names::STORE_GROUP_DISCARDED_BATCHES)
            == Some(&1),
        master,
        TEST,
        "the pending batch must be counted as discarded",
    );
    drop(ws_a);
    let journal = sim
        .fs()
        .read(&Path::new(WS_ROOT).join("journal-0.log"))
        .expect("journal readable");
    sim_assert(
        scan_frames(&journal).payloads.len() == 2,
        master,
        TEST,
        "only the base and a's acknowledged frame may reach the journal",
    );
}

/// Fsync reordering: a lying disk that silently drops every `n`th
/// fsync voids the durability contract, but recovery must still land
/// on *some* acknowledged prefix — or fail with an explicit error —
/// never panic, never produce a non-prefix state. Each world drops at
/// its own period, 2 to 9, so whether some world recovers does not hang
/// on where one period lands among the workload's fsyncs.
#[test]
fn sim_lying_disk_dropped_fsyncs_still_recover_a_prefix() {
    const TEST: &str = "sim_lying_disk_dropped_fsyncs_still_recover_a_prefix";
    let mut rng = SimRng::new(master_seed().wrapping_add(4));

    let mut recovered_ok = 0usize;
    for every in 2..10 {
        let seed = rng.next_u64();
        let sim = SimEnv::new(seed);
        sim.fs_state().set_drop_fsync_every(Some(every));
        let (refs, outcome) = drive_workload(&sim, None, false);
        outcome.expect("a lying disk reports success, so the workload completes");
        sim_assert(
            sim.fs_state().dropped_fsyncs() > 0,
            seed,
            TEST,
            "the lying disk must actually have dropped fsyncs",
        );

        let rebooted = sim.crash_and_reboot();
        // With the manifest swap itself un-fsynced, an unreadable
        // workspace is an honest outcome — the invariant is "prefix
        // or explicit error", never silent corruption.
        if let Ok((_ws, recovered, report)) =
            Workspace::open_session_in(Path::new(WS_ROOT), |s| odyssey_registry(s), rebooted.env())
        {
            let gen = report.generation as usize;
            sim_assert(gen < refs.by_gen.len(), seed, TEST, "phantom generation");
            let snaps = &refs.by_gen[gen];
            sim_assert(
                report.ops_replayed < snaps.len(),
                seed,
                TEST,
                "recovery must not replay beyond the submitted frames",
            );
            sim_assert(
                SessionSpec::from_session(&recovered) == snaps[report.ops_replayed],
                seed,
                TEST,
                "recovered state must be an exact acknowledged prefix, even when \
                 the disk lied about fsyncs",
            );
            recovered_ok += 1;
        }
    }
    assert!(
        recovered_ok > 0,
        "at least one lying-disk world must still recover"
    );
}

/// Tentpole acceptance: the always-on flight recorder leaves a
/// reconstructible trail behind every crash. With a crash armed at
/// every post-save mutating disk op of the multi-session workload, the
/// rebooted disk must yield a parseable, non-empty telemetry tail —
/// anchored by the session stamp fsynced at attach time — with a torn
/// last record tolerated, never fatal.
#[test]
fn sim_telemetry_postmortem_crash_sweep() {
    const TEST: &str = "sim_telemetry_postmortem_crash_sweep";
    let master = master_seed();
    let mut rng = SimRng::new(master.wrapping_add(10));
    let workload_seed = rng.next_u64();

    // Clean reference run: the recorder must have written an undamaged
    // multi-record stream alongside the journal.
    let clean = SimEnv::new(workload_seed);
    let (refs, outcome) = drive_workload(&clean, None, false);
    outcome.expect("clean run completes");
    let total_ops = clean.fs_state().op_count();
    let clean_report = read_postmortem(&clean.fs(), Path::new(WS_ROOT)).expect("sidecar reads");
    sim_assert(
        clean_report.records.len() > 1 && clean_report.damaged_lines == 0,
        workload_seed,
        TEST,
        &format!(
            "clean run must leave an undamaged multi-record stream, got {} record(s) \
             and {} damaged line(s)",
            clean_report.records.len(),
            clean_report.damaged_lines
        ),
    );

    // Crash points start after the save: the attach fsyncs the stamp
    // inside the save command, so every swept world has ≥1 durable
    // record to find.
    let save_ops = {
        let probe = SimEnv::new(workload_seed);
        let mut session = sim_session(&probe, "sim");
        let _ = seed_netlist(&mut session);
        let mut ui = Ui::new_in(session, probe.env());
        ui.execute(&format!("save {WS_ROOT}")).expect("saves");
        probe.fs_state().op_count()
    };
    assert!(
        total_ops - save_ops >= 50,
        "the workload must expose >=50 post-save crash points, got {}",
        total_ops - save_ops
    );

    let mut damaged_worlds = 0usize;
    for k in (save_ops + 1)..=total_ops {
        let sim = SimEnv::new(workload_seed);
        sim.fs_state().set_crash_at(Some(k));
        let (_refs, _outcome) = drive_workload(&sim, Some(&refs.kinds), false);
        let rebooted = sim.crash_and_reboot();
        let report = read_postmortem(&rebooted.fs(), Path::new(WS_ROOT)).unwrap_or_else(|e| {
            panic!(
                "crash at op {k}: postmortem read failed: {e}\n  failing seed: \
                 {workload_seed}\n  reproduce: {}",
                repro_command(workload_seed, TEST)
            )
        });
        sim_assert(
            !report.records.is_empty(),
            workload_seed,
            TEST,
            &format!("crash at op {k}: postmortem must recover at least the session stamp"),
        );
        sim_assert(
            report.records[0].kind == "S",
            workload_seed,
            TEST,
            &format!(
                "crash at op {k}: the stream must start at a session stamp, got `{}`",
                report.records[0].kind
            ),
        );
        for r in &report.records {
            sim_assert(
                matches!(r.kind.as_str(), "S" | "B" | "E" | "I" | "M"),
                workload_seed,
                TEST,
                &format!(
                    "crash at op {k}: unknown record kind `{}` in recovered line `{}`",
                    r.kind, r.line
                ),
            );
        }
        if report.torn_tail || report.damaged_lines > 0 {
            damaged_worlds += 1;
        }
    }
    // Not asserted — the dice may keep every tail whole for a given
    // seed — but worth surfacing when replaying a world by hand.
    let _ = damaged_worlds;
}

/// Tentpole acceptance: the `health` report must agree with the
/// store's actual recovery state in the worlds where it matters — a
/// degraded open against a live foreign lease, and a bit-rot
/// quarantine in a sealed journal segment.
#[test]
fn sim_health_matches_recovery_report() {
    const TEST: &str = "sim_health_matches_recovery_report";
    let seed = master_seed().wrapping_add(11);

    // --- World 1: a live foreign lease forces a degraded open. ---
    let sim = SimEnv::new(seed);
    {
        let mut session = sim_session(&sim, "sim");
        let _ = seed_netlist(&mut session);
        let mut ui = Ui::new_in(session, sim.env());
        ui.execute(&format!("save {WS_ROOT}")).expect("saves");
        ui.execute("goal Layout").expect("journals a command");
    } // dropping the Ui releases the lease
    {
        let mut f = sim
            .fs()
            .create_truncate(&Path::new(WS_ROOT).join("LEASE"))
            .expect("forges the rival lease");
        let far_future = u64::MAX / 2;
        f.write_all(
            format!("{{\"owner\":\"rival\",\"expires_unix_ms\":{far_future},\"token\":99}}")
                .as_bytes(),
        )
        .expect("forges the rival lease");
        f.sync_all().expect("forges the rival lease");
    }
    let mut ui = Ui::new_in(sim_session(&sim, "sim"), sim.env());
    let opened = ui
        .execute(&format!("open {WS_ROOT}"))
        .expect("opens read-only");
    sim_assert(
        opened.contains("opened read-only") && opened.contains("lease held by `rival`"),
        seed,
        TEST,
        &format!("the forged lease must degrade the open, got: {opened}"),
    );
    let health = ui.health_report();
    let check = |name: &str| {
        health
            .checks
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("health must include a `{name}` check"))
    };
    sim_assert(
        health.overall() == HealthStatus::Critical,
        seed,
        TEST,
        "a degraded workspace must report critical overall health",
    );
    sim_assert(
        check("store.mode").status == HealthStatus::Critical
            && check("store.mode").value == "degraded"
            && check("store.mode").detail.contains("rival"),
        seed,
        TEST,
        &format!(
            "store.mode must be critical and name the lease holder, got `{}` / `{}`",
            check("store.mode").value,
            check("store.mode").detail
        ),
    );
    sim_assert(
        check("store.lease").status == HealthStatus::Warn
            && check("store.lease").value == "not held",
        seed,
        TEST,
        "a degraded open holds no lease, so store.lease must warn",
    );
    let rendered = ui.execute("health").expect("health renders while degraded");
    sim_assert(
        rendered.contains("health: critical"),
        seed,
        TEST,
        &format!("the rendered report must lead with the overall status, got: {rendered}"),
    );
    drop(ui);

    // --- World 2: bit rot in a sealed segment quarantines frames, and
    // health reports exactly what the recovery report counted. ---
    let sim = SimEnv::new(seed.wrapping_add(1));
    build_segmented_store(&sim, 4);
    let sealed: Vec<std::path::PathBuf> = sim
        .fs_state()
        .current_paths()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".log"))
        })
        .collect();
    assert!(sealed.len() > 2, "rotation must seal segments");
    let target = &sealed[1];
    let len = sim.fs_state().file_len(target).expect("segment exists");
    sim_assert(
        sim.fs_state().corrupt_file(target, len / 2, 0x5A),
        seed,
        TEST,
        "the corrupted byte must exist",
    );
    let mut ui = Ui::new_in(sim_session(&sim, "sim"), sim.env());
    let opened = ui
        .execute(&format!("open {WS_ROOT}"))
        .expect("opens after rot");
    // The authoritative count, straight from the open output's
    // recovery JSON: the sum of quarantine files each segment left.
    let recovery_json = opened
        .lines()
        .find_map(|l| l.strip_prefix("recovery: "))
        .expect("open output includes the recovery JSON");
    let recovery: serde::Value = serde_json::from_str(recovery_json).expect("recovery parses");
    let quarantined: usize = match recovery.get("segments") {
        Some(serde::Value::Seq(segs)) => segs
            .iter()
            .map(|s| match s.get("quarantined_as") {
                Some(serde::Value::Seq(q)) => q.len(),
                _ => 0,
            })
            .sum(),
        _ => 0,
    };
    sim_assert(
        quarantined > 0,
        seed,
        TEST,
        "flipping a sealed-segment byte must quarantine at least one frame",
    );
    let health = ui.health_report();
    let qcheck = health
        .checks
        .iter()
        .find(|c| c.name == "store.quarantine")
        .expect("health must include store.quarantine");
    sim_assert(
        qcheck.status == HealthStatus::Warn && qcheck.value == format!("{quarantined} quarantined"),
        seed,
        TEST,
        &format!(
            "store.quarantine must warn with the recovery report's count \
             ({quarantined}), got `{}` ({:?})",
            qcheck.value, qcheck.status
        ),
    );
}

/// Builds a distinct content-cache entry for the sweep: key and
/// payload are functions of the seed and index only.
fn cache_entry_for(seed: u64, i: u64) -> (hercules::cache::CacheKey, hercules::cache::CacheEntry) {
    let mut b = hercules::cache::KeyBuilder::new("sim.cache.sweep");
    b.field_u64("seed", seed);
    b.field_u64("index", i);
    let key = b.finish();
    let data = vec![i as u8 ^ 0x5A; 64 + i as usize];
    let entry = hercules::cache::CacheEntry {
        key,
        tool: format!("SimTool{i}"),
        created_ms: 1_000 + i,
        outputs: vec![hercules::cache::CachedOutput {
            entity: "SimProduct".to_owned(),
            name: format!("run-{i}"),
            digest: hercules_digest::sha256(&data),
            data,
        }],
    };
    (key, entry)
}

/// Crash-point sweep over the on-disk cache tier's write-back path:
/// for every single filesystem operation of the write-back schedule,
/// crash there, reboot from the crash image, and require that (a) the
/// cache directory is still loadable, (b) every lookup is either a
/// byte-correct hit or a miss — never wrong data — and (c) an insert
/// whose write-back completed before the crash point survives it
/// (atomic tmp/fsync/rename durability). Also checks the degraded
/// session keeps serving from memory after the disk dies.
#[test]
fn sim_cache_writeback_crash_sweep() {
    const TEST: &str = "sim_cache_writeback_crash_sweep";
    use hercules::cache::{CacheConfig, ContentCache};
    use hercules::obs::Metrics;
    let seed = master_seed();
    const ENTRIES: u64 = 6;
    let entries: Vec<_> = (0..ENTRIES).map(|i| cache_entry_for(seed, i)).collect();

    // Probe run, no crash: record the op-count boundary after each
    // insert's (synchronous, under sim) write-back.
    let probe = SimEnv::new(seed);
    let cache = ContentCache::open(
        &probe.fs(),
        "/cache",
        CacheConfig::default(),
        probe.clock(),
        Metrics::disabled(),
    )
    .expect("probe open");
    assert!(cache.sync_writes(), "sim write-back is synchronous");
    let open_ops = probe.fs_state().op_count();
    let mut after_ops = Vec::new();
    for (key, entry) in &entries {
        cache.insert(key, entry.clone());
        after_ops.push(probe.fs_state().op_count());
    }
    let total_ops = probe.fs_state().op_count();
    sim_assert(
        total_ops > open_ops,
        seed,
        TEST,
        "write-back must touch the simulated disk",
    );

    for crash_at in open_ops + 1..=total_ops {
        let sim = SimEnv::new(seed);
        let cache = ContentCache::open(
            &sim.fs(),
            "/cache",
            CacheConfig::default(),
            sim.clock(),
            Metrics::disabled(),
        )
        .expect("open happens before the sweep window");
        sim.fs_state().set_crash_at(Some(crash_at));
        for (key, entry) in &entries {
            // Disk errors are swallowed into counters: the insert (and
            // the session around it) must keep going.
            cache.insert(key, entry.clone());
        }
        // Degraded, not dead: the memory tier still serves everything.
        for (key, entry) in &entries {
            let got = cache.lookup(key);
            sim_assert(
                got.as_deref() == Some(entry),
                seed,
                TEST,
                &format!("memory tier must keep serving after a disk crash at op {crash_at}"),
            );
        }

        let rebooted = sim.crash_and_reboot();
        let fresh = ContentCache::open(
            &rebooted.fs(),
            "/cache",
            CacheConfig::default(),
            rebooted.clock(),
            Metrics::disabled(),
        )
        .unwrap_or_else(|e| {
            panic!(
                "cache must be loadable after a crash at op {crash_at}: {e}\n  reproduce: {}",
                repro_command(seed, TEST)
            )
        });
        for (i, (key, expected)) in entries.iter().enumerate() {
            match fresh.lookup(key) {
                Some(got) => sim_assert(
                    *got == *expected,
                    seed,
                    TEST,
                    &format!("crash at op {crash_at}: entry {i} served with wrong bytes"),
                ),
                // Op number `crash_at` itself fails, so only inserts
                // whose last op landed strictly before it are durable.
                None => sim_assert(
                    after_ops[i] >= crash_at,
                    seed,
                    TEST,
                    &format!(
                        "crash at op {crash_at}: entry {i} completed write-back at op {} \
                         but did not survive the reboot",
                        after_ops[i]
                    ),
                ),
            }
        }
        // GC over the crash image reaps any torn tmp file and never
        // drops a valid entry.
        let report = fresh.gc().unwrap_or_else(|e| {
            panic!(
                "gc must succeed on the crash image (op {crash_at}): {e}\n  reproduce: {}",
                repro_command(seed, TEST)
            )
        });
        sim_assert(
            report.dropped == 0,
            seed,
            TEST,
            &format!(
                "crash at op {crash_at}: atomic write-back must never leave a torn entry \
                 under an entry name (gc dropped {})",
                report.dropped
            ),
        );
        for (i, (key, expected)) in entries.iter().enumerate() {
            if after_ops[i] < crash_at {
                let got = fresh.lookup(key);
                sim_assert(
                    got.as_deref() == Some(expected),
                    seed,
                    TEST,
                    &format!("crash at op {crash_at}: gc evicted surviving entry {i}"),
                );
            }
        }
    }
}
