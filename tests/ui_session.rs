//! Experiment F9: the scripted Fig. 9 session — one user interface for
//! every approach, with browser, selection, execution and history
//! browsing driven through the text UI.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hercules::encaps::odyssey_registry;
use hercules::flow::NodeId;
use hercules::sim::SimEnv;
use hercules::ui::{render_task_window, Ui};
use hercules::{DegradedReason, HerculesError, JournalOp, Session, StoreError, Workspace};

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hercules-ui-{tag}-{}", std::process::id()))
}

/// Bytes in the attached workspace's journal segments.
fn journal_bytes(ui: &Ui) -> u64 {
    let ws = ui.workspace().expect("workspace attached");
    ws.segments()
        .iter()
        .map(|s| std::fs::metadata(ws.root().join(s)).expect("segment").len())
        .sum()
}

#[test]
fn full_scripted_session() {
    let mut ui = Ui::new(Session::odyssey("sutton"));

    // Build the simulate flow goal-first, exactly as §4.1 narrates.
    let transcript = ui
        .run_script(
            "goal Performance\n\
             expand n0\n\
             expand n2\n\
             specialize n5 EditedNetlist\n\
             expand n5\n\
             expand n4\n\
             show\n",
        )
        .expect("script runs");
    assert!(transcript.contains("started from goal Performance"));
    assert!(transcript.contains("Simulator"));
    assert!(transcript.contains("CircuitEditor"));

    // Browse the editor scripts (Fig. 9b) and select the full adder.
    let browse = ui.execute("browse n6").expect("browses");
    assert!(browse.contains("Full adder"));
    assert!(browse.contains("Low pass filter"));
    let adder_line = browse
        .lines()
        .find(|l| l.contains("Full adder"))
        .expect("listed");
    let id = adder_line
        .trim()
        .split('\u{201c}')
        .next()
        .expect("id prefix")
        .trim()
        .to_owned();
    ui.execute(&format!("select n6 {id}")).expect("selects");

    // Bind the rest, run, and check the report line.
    let out = ui.execute("bind-latest").expect("binds");
    assert!(out.contains("0 leaf(s) still unbound"));
    let out = ui.execute("run").expect("runs");
    assert!(out.contains("invocation(s)"));

    // History menu on the produced performance.
    let report = ui.session().last_report().expect("ran").clone();
    let perf = report.single(hercules::flow::NodeId::from_index(0));
    let out = ui
        .execute(&format!("history i{}", perf.raw()))
        .expect("chains");
    assert!(out.contains("f←"), "tool revealed: {out}");
    assert!(out.contains("d←"), "inputs revealed: {out}");

    // The task window now shows bound leaves.
    let window = render_task_window(ui.session());
    assert!(window.contains("⇐"));
    assert!(!window.contains("(unbound)"));
}

#[test]
fn store_and_replay_through_the_ui() {
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.run_script(
        "goal Layout\n\
         expand n0\n\
         store place-netlist\n\
         clear\n",
    )
    .expect("script runs");
    // Plan-based restart from the catalog.
    let out = ui.execute("plan place-netlist").expect("instantiates");
    assert!(out.contains("instantiated flow"));
    assert_eq!(ui.session().flow().expect("instantiated").len(), 4);
}

#[test]
fn catalogs_command_lists_tools_and_flows() {
    let mut ui = Ui::new(Session::odyssey("jbb"));
    let out = ui.execute("catalogs").expect("lists");
    assert!(out.contains("[T] Simulator"));
    assert!(out.contains("[D] Netlist"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut ui = Ui::new(Session::odyssey("jbb"));
    assert!(ui.execute("expand n0").is_err(), "no flow yet");
    assert!(ui.execute("wibble").is_err());
    ui.execute("goal Performance").expect("starts");
    assert!(ui.execute("specialize n0 Layout").is_err(), "not a subtype");

    // A selection is checked before it is acknowledged: a failed one
    // leaves the binding as it was and journals nothing.
    let root = temp_root("bad-select");
    std::fs::remove_dir_all(&root).ok();
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    let rejects = |ui: &mut Ui, line: &str, why: &str| {
        let binding = ui.session().binding().clone();
        let journal = journal_bytes(ui);
        assert!(ui.execute(line).is_err(), "`{line}` must fail: {why}");
        assert_eq!(
            ui.session().binding(),
            &binding,
            "`{line}` changed the binding"
        );
        assert_eq!(journal_bytes(ui), journal, "`{line}` appended a frame");
    };
    rejects(&mut ui, "select n7 i999", "no flow yet");
    ui.execute("goal Layout").expect("starts");
    ui.execute("expand n0").expect("expands");
    // i3 is the `rowplace` Placer script.
    ui.execute("select n1 i3")
        .expect("a Placer instance for the Placer leaf");
    rejects(&mut ui, "select n2 i999", "no such instance");
    rejects(&mut ui, "select n2 i3", "a Placer is not a Netlist");
    rejects(&mut ui, "select n0 i3", "n0 is computed by the flow");
    rejects(&mut ui, "select n9 i3", "no node n9");
    let window = render_task_window(ui.session());
    assert!(window.contains("n2 Netlist ⇐ (unbound)"), "{window}");
    drop(ui);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn run_subflow_records_one_subtask_and_survives_reopen() {
    let root = temp_root("subflow");
    std::fs::remove_dir_all(&root).ok();
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.run_script(&format!(
        "save {}\n\
         goal Layout\n\
         expand n0\n\
         specialize n2 EditedNetlist\n\
         expand n2\n\
         bind-latest\n",
        root.display()
    ))
    .expect("script runs");
    let records = ui.session().db().len();
    let layout = ui.session().schema().require("Layout").expect("known");
    let layouts = ui.session().db().instances_of_family(layout).len();

    // §4.1: the netlist-editing subflow runs on its own; the placement
    // above it does not.
    let report = ui
        .session_mut()
        .run_subflow(NodeId::from_index(2))
        .expect("subflow runs");
    assert_eq!(report.tasks.len(), 1, "{report:?}");
    assert_eq!(report.runs(), 1, "{report:?}");
    let session = ui.session();
    assert_eq!(session.db().len(), records + 1, "one new history record");
    assert_eq!(
        session.db().instances_of_family(layout).len(),
        layouts,
        "no Layout was produced"
    );
    let event = session.events().last().expect("event logged").clone();
    assert_eq!(event.operation, "run-subflow");
    assert!(
        session.has_unjournaled_changes(),
        "a direct session call bypasses the journal"
    );

    let out = ui.execute("checkpoint").expect("checkpoints");
    assert!(out.contains("snapshot appended"), "{out}");
    drop(ui);

    let mut reopened = Ui::new(Session::odyssey("jbb"));
    reopened
        .execute(&format!("open {}", root.display()))
        .expect("reopens");
    let session = reopened.session();
    assert_eq!(session.db().len(), records + 1);
    assert_eq!(session.events().last(), Some(&event));
    drop(reopened);
    std::fs::remove_dir_all(&root).ok();
}

/// A writer whose lease ran out while it sat idle, and whose store a
/// newer writer then took over, refuses its next mutation before the
/// session changes: the task window still shows what the journal
/// holds, and the deposed writer adds no frame.
#[test]
fn deposed_writer_is_refused_before_the_session_changes() {
    let sim = SimEnv::new(1);
    let root = Path::new("/ws");
    let mut a = Ui::new_in(Session::odyssey("a"), sim.env());
    a.execute(&format!("save {}", root.display()))
        .expect("A saves");
    a.execute("goal Layout").expect("A starts");

    sim.clock().advance(Duration::from_secs(31));
    let (mut b, _, recovery) =
        Workspace::open_session_as(root, |s| odyssey_registry(s), sim.env(), "b", 30_000)
            .expect("B opens");
    assert!(recovery.took_over, "B takes over A's expired lease");
    b.append(&JournalOp::Clear).expect("B appends");

    // Every journal segment under the root, with its bytes.
    let journal = || -> Vec<(PathBuf, Vec<u8>)> {
        let fs = sim.fs();
        let paths = fs.list_dir(root).expect("lists");
        paths
            .into_iter()
            .filter(|p| p.to_string_lossy().contains("journal-"))
            .map(|p| {
                let bytes = fs.read(&p).expect("reads");
                (p, bytes)
            })
            .collect()
    };
    let window = render_task_window(a.session());
    let frames = journal();
    let err = a.execute("expand n0").expect_err("A is fenced out");
    assert_eq!(
        err,
        HerculesError::from(StoreError::Degraded(DegradedReason::Fenced {
            token: b.fencing_token()
        }))
    );
    assert_eq!(render_task_window(a.session()), window, "A's flow changed");
    assert_eq!(journal(), frames, "A added a frame");
}
