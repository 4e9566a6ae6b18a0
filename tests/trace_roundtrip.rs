//! Trace/journal round-trip (ISSUE 4 satellite): execute the Fig. 5
//! fixture in parallel with tracing on, persist the session to a
//! durable workspace, reopen it in a "fresh process", and assert the
//! span tree reconstructed from the persisted report matches the live
//! trace — same tasks, same parents, same dependency DAG, same
//! ordering, and the same concurrency (overlapping disjoint branches).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use hercules::exec::cluster::simulate_schedule;
use hercules::exec::{report_to_trace, schedule_to_trace, toy};
use hercules::obs::profile::{self, ProfileReport};
use hercules::obs::{AttrValue, EventKind, TraceEvent};
use hercules::{Session, Workspace};

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hercules-trace-rt-{tag}-{}", std::process::id()))
}

/// Task label → sorted dependency labels, from a profile.
fn dag_of(prof: &ProfileReport) -> BTreeMap<String, BTreeSet<String>> {
    prof.tasks
        .iter()
        .map(|t| (t.label.clone(), t.deps.iter().cloned().collect()))
        .collect()
}

/// Simulated work per tool run. It must dwarf the milliseconds a busy
/// host can take to start and join the worker pool, or those fixed
/// costs alone push the live wall time past the summed task time.
const TOOL_WORK: Duration = Duration::from_millis(20);

#[test]
fn fig5_trace_survives_the_durable_workspace() {
    let schema = Arc::new(hercules::schema::fixtures::fig1());
    let registry = toy::text_registry_with(
        &schema,
        toy::TextTool {
            work: TOOL_WORK,
            ..toy::TextTool::default()
        },
    );
    let mut session = Session::new(schema.clone(), registry, "jbb");
    session.executor_mut().options_mut().parallel = true;
    toy::seed_everything(session.db_mut(), "setup");
    let flow = hercules::flow::fixtures::fig5(schema.clone()).expect("fixture");
    session.install_flow(flow);
    session.bind_latest().expect("binds");
    session.run().expect("runs");

    // --- The live trace: a real span tree from the executor. ---
    let live_events = session.trace_events();
    let live_spans = profile::build_spans(&live_events);
    let live = profile::profile(&live_events);
    assert!(
        live.achieved_parallelism > 1.0,
        "fig5's disjoint branches must overlap: {:.2}x",
        live.achieved_parallelism
    );
    // Parents in the live tree: execute → epoch → task → attempt.
    let roots: Vec<_> = live_spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one root span");
    assert_eq!(roots[0].name, "execute");
    for task in live_spans.iter().filter(|s| s.name == "task") {
        let parent = live_spans
            .iter()
            .find(|s| s.id == task.parent)
            .expect("task has a parent span");
        assert_eq!(
            parent.name, "epoch",
            "live tasks sit under the scheduler-epoch span"
        );
    }

    // --- Persist (checkpoint holds the report) and "crash". ---
    let root = temp_root("fig5");
    std::fs::remove_dir_all(&root).ok();
    Workspace::create(&root, &session).expect("persists");
    drop(session);

    // --- A fresh process recovers and resynthesizes the trace. ---
    let (_ws, restored, recovery) =
        Workspace::open_session(&root, |s| toy::text_registry(s)).expect("reopens");
    assert_eq!(recovery.ops_replayed, 0, "all state is in the checkpoint");
    let report = restored.last_report().expect("report survived");
    let replay_events = report_to_trace(report, restored.flow().ok());
    let replay_spans = profile::build_spans(&replay_events);
    let replayed = profile::profile(&replay_events);

    // Parents: every replayed task hangs off the single execute root.
    let replay_root: Vec<_> = replay_spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(replay_root.len(), 1);
    assert_eq!(replay_root[0].name, "execute");
    for task in replay_spans.iter().filter(|s| s.name == "task") {
        assert_eq!(task.parent, replay_root[0].id);
    }

    // Same tasks, same dependency DAG.
    assert_eq!(dag_of(&live), dag_of(&replayed), "task DAG round-trips");

    // Ordering: a dependency finishes (commit is serial) before its
    // consumer starts. Start offsets are persisted at µs grain, so
    // allow 1µs of truncation slack.
    let replay_task = |label: &str| {
        replayed
            .tasks
            .iter()
            .find(|t| t.label == label)
            .expect("task present")
    };
    for task in &replayed.tasks {
        for dep in &task.deps {
            let dep = replay_task(dep);
            assert!(
                dep.start_ns + dep.total_ns <= task.start_ns + 1_000,
                "dependency `{}` runs past the start of `{}`",
                dep.label,
                task.label
            );
        }
    }
    // Live start order is preserved by the persisted offsets. The two
    // sides stamp a start at slightly different instants, from
    // different origins (the tracer's and the execution epoch), and the
    // journal keeps microseconds; so only pairs whose live starts lie
    // further apart than half a tool run are ordered. Concurrent
    // dispatches start closer than that, dependent ones at least a
    // whole tool run apart.
    let order_slack_ns = TOOL_WORK.as_nanos() as u64 / 2;
    let live_start: BTreeMap<&str, u64> = live
        .tasks
        .iter()
        .map(|t| (t.label.as_str(), t.start_ns))
        .collect();
    let mut ordered_pairs = 0;
    for a in &replayed.tasks {
        for b in &replayed.tasks {
            if live_start[a.label.as_str()] + order_slack_ns < live_start[b.label.as_str()] {
                ordered_pairs += 1;
                assert!(
                    a.start_ns < b.start_ns,
                    "`{}` started before `{}` live but not in the replay",
                    a.label,
                    b.label
                );
            }
        }
    }
    assert!(
        ordered_pairs > 0,
        "fig5's dependency chains order some starts"
    );

    // Concurrency: the replayed intervals still overlap — disjoint
    // branches ran in parallel, and the synthesized lanes show it.
    assert!(
        replayed.achieved_parallelism > 1.0,
        "replayed parallelism: {:.2}x",
        replayed.achieved_parallelism
    );
    let lanes: BTreeSet<u64> = replay_spans
        .iter()
        .filter(|s| s.name == "task")
        .map(|s| s.tid)
        .collect();
    assert!(lanes.len() > 1, "overlap forces multiple lanes: {lanes:?}");

    // And the Chrome export works from the replayed stream too.
    let chrome = hercules::obs::chrome::to_chrome_trace(&replay_events);
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("replayed"));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn old_journals_without_timestamps_still_load() {
    // ExecEvent gained wall/mono stamps and TaskRecordSpec gained
    // started_us; both are serde-defaulted. A spec JSON written before
    // this PR (no such fields) must still restore.
    let event: hercules::ExecEvent = serde_json::from_str(
        r#"{"operation":"run","tasks":2,"runs":2,"cache_hits":0,
            "failed":0,"skipped":0,"failures":[],"error":null}"#,
    )
    .expect("old event parses");
    assert_eq!(event.wall_unix_ms, 0);
    assert_eq!(event.mono_ns, 0);

    let record: hercules::TaskRecordSpec =
        serde_json::from_str(r#"{"outputs":[0],"action":"Cached","attempts":1,"duration_ms":42}"#)
            .expect("old record parses");
    assert_eq!(record.started_us, 0);
}

/// Task label → its `outputs` and `inputs` attributes, one entry per
/// `task` span (a repeated label fails).
fn task_identities(events: &[TraceEvent]) -> BTreeMap<String, (String, String)> {
    let mut identities = BTreeMap::new();
    for span in events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "task")
    {
        let attr = |key: &str| match span.attrs.iter().find(|(k, _)| k == key) {
            Some((_, AttrValue::Str(value))) => value.to_string(),
            other => panic!("task span attribute `{key}`: {other:?}"),
        };
        let label = attr("task");
        let previous = identities.insert(label.clone(), (attr("outputs"), attr("inputs")));
        assert!(previous.is_none(), "two task spans labelled `{label}`");
    }
    identities
}

/// A live run, the trace replayed from its report, and a two-machine
/// plan of the same flow name the same subtasks the same way: the
/// planner schedules the engine's subtasks, and all three label and
/// attribute spans through one function.
#[test]
fn live_replayed_and_planned_traces_agree() {
    let schema = Arc::new(hercules::schema::fixtures::fig1());
    for (name, flow) in [
        ("fig5", hercules::flow::fixtures::fig5(schema.clone())),
        ("fig6", hercules::flow::fixtures::fig6(schema.clone())),
    ] {
        let flow = flow.expect("fixture");
        let mut session = Session::new(schema.clone(), toy::text_registry(&schema), "jbb");
        toy::seed_everything(session.db_mut(), "setup");
        session.install_flow(flow.clone());
        session.bind_latest().expect("binds");
        let report = session.run().expect("runs").clone();

        let live = task_identities(&session.trace_events());
        let replayed = task_identities(&report_to_trace(&report, Some(&flow)));
        let plan = simulate_schedule(&flow, 2).expect("schedules");
        let planned = task_identities(&schedule_to_trace(&plan, Some(&flow)));
        assert_eq!(live.len(), report.tasks.len(), "{name}: one span per task");
        assert_eq!(replayed, live, "{name}: replayed vs live");
        assert_eq!(planned, live, "{name}: planned vs live");
    }
}
