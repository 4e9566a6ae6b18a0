//! Real-filesystem round trip of the operational observability stack:
//! a saved workspace records flight-recorder telemetry as commands
//! run, `health` renders and serializes, the session's metrics
//! snapshot carries the lint histogram and the telemetry counters, and
//! the postmortem reader reconstructs the stream after the process is
//! gone.

use std::path::PathBuf;
use std::sync::Arc;

use hercules::exec::{Encapsulation, ExecError, Invocation, MultiInstanceMode, ToolOutput};
use hercules::obs::{names, HealthStatus, SpanId, Tracer};
use hercules::schema::TaskSchema;
use hercules::sim::SimEnv;
use hercules::ui::Ui;
use hercules::{read_postmortem, Session};

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hercules-telemetry-{tag}-{}", std::process::id()))
}

#[test]
fn workspace_records_telemetry_health_and_prometheus() {
    let root = temp_root("roundtrip");
    std::fs::remove_dir_all(&root).ok();

    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("save {}", root.display()))
        .expect("saves");
    ui.execute("goal Performance").expect("goal");
    ui.execute("expand n0").expect("expand");
    ui.execute("bind-latest").expect("binds");
    // The run fails (leaves are still unbound) — the traced attempt
    // must land in the flight recorder all the same.
    let _ = ui.execute("run");
    ui.execute("lint").expect("lints");
    ui.execute("checkpoint").expect("checkpoints");

    // Health: ok overall, renderable both ways.
    let health = ui.health_report();
    assert_eq!(
        health.overall(),
        HealthStatus::Ok,
        "a fresh writable workspace must be healthy: {}",
        health.render_text()
    );
    let text = ui.execute("health").expect("health renders");
    assert!(text.starts_with("health: ok"), "{text}");
    assert!(text.contains("store.mode"), "{text}");
    let json = ui.execute("health --json").expect("health serializes");
    assert!(
        json.starts_with('{') && json.contains("\"status\":\"ok\""),
        "{json}"
    );

    // Metrics: the lint histogram has samples and the flight recorder
    // has counted its records.
    let snap = ui.session().metrics().snapshot();
    let lint = snap
        .histograms
        .get(names::ANALYZE_LINT_NS)
        .expect("lint histogram recorded");
    assert!(lint.count > 0, "{lint:?}");
    let records = snap
        .counters
        .get(names::TELEMETRY_RECORDS)
        .copied()
        .unwrap_or(0);
    assert!(records > 0, "telemetry records counted: {snap:?}");
    drop(ui);

    // Postmortem after the process is gone: the sidecar reconstructs
    // an undamaged stream anchored at the session stamp.
    let fs = hercules::sim::Fs::real();
    let report = read_postmortem(&fs, &root).expect("sidecar reads");
    assert!(
        report.records.len() >= 2,
        "expected the stamp plus recorded spans, got {} record(s)",
        report.records.len()
    );
    assert_eq!(report.records[0].kind, "S");
    assert_eq!(report.damaged_lines, 0);
    assert!(!report.torn_tail);
    assert!(report
        .records
        .iter()
        .any(|r| r.kind == "B" || r.kind == "E"));

    // A second session rolls a fresh sidecar; the reader stitches both
    // files in order.
    let mut ui = Ui::new(Session::odyssey("jbb"));
    ui.execute(&format!("open {}", root.display()))
        .expect("reopens");
    drop(ui);
    let report2 = read_postmortem(&fs, &root).expect("sidecars read");
    assert!(
        report2.files.len() >= 2,
        "each writable attach must add a sidecar, got {:?}",
        report2.files
    );
    assert!(report2.records.len() >= report.records.len());

    std::fs::remove_dir_all(&root).ok();
}

/// The `sched.queue_depth` check reports the peak ready-queue depth a
/// real parallel run recorded. Fig. 6's two disjoint branches are both
/// queued while the queue is seeded, before the pool starts, so the
/// peak is 2 whatever the timing.
#[test]
fn health_reports_the_peak_ready_depth_of_a_parallel_run() {
    let schema = std::sync::Arc::new(hercules::schema::fixtures::fig1());
    let mut session = Session::new(
        schema.clone(),
        hercules::exec::toy::text_registry(&schema),
        "jbb",
    );
    let options = session.executor_mut().options_mut();
    options.parallel = true;
    options.workers = 2;
    hercules::exec::toy::seed_everything(session.db_mut(), "setup");
    session.install_flow(hercules::flow::fixtures::fig6(schema).expect("fixture"));
    session.bind_latest().expect("binds");
    session.run().expect("runs");

    let peak = session
        .metrics()
        .snapshot()
        .histograms
        .get(names::EXEC_QUEUE_DEPTH)
        .expect("queue depth recorded")
        .max;
    assert_eq!(peak, 2, "both branch roots queued at once");
    let health = Ui::new(session).health_report();
    let depth = health
        .checks
        .iter()
        .find(|c| c.name == "sched.queue_depth")
        .expect("queue-depth check");
    assert_eq!(depth.value, peak.to_string(), "{}", health.render_text());
    assert_eq!(depth.status, HealthStatus::Ok);
}

/// The script behind the sidecar golden, on a simulated disk: build
/// and run the Layout flow, run it again once the metrics export is
/// due, lint, then a run that fails on unbound leaves, and a
/// checkpoint. `+2s` advances the virtual clock by two seconds.
const GOLDEN_SCRIPT: &[&str] = &[
    "goal Layout",
    "expand n0",
    "save /ws",
    "specialize n2 EditedNetlist",
    "expand n2",
    "bind-latest",
    "run",
    "+2s",
    "run",
    "lint",
    "clear",
    "goal Performance",
    "expand n0",
    "run",
    "+2s",
    "checkpoint",
];

/// The sidecar records of [`GOLDEN_SCRIPT`] run against seed 7's
/// simulated environment, one line each: the kind, then for span
/// records the span's number and its parent's (ids renumbered in
/// order of appearance, 0 for none), its name and its attributes.
/// Timestamps (`t`, `w`) and thread lanes are left out.
fn normalized_sidecar() -> String {
    use serde::Value;

    let sim = SimEnv::new(7);
    let mut session = Session::odyssey("golden");
    session.set_sim(sim.clock(), sim.interleave(), sim.jitter_seed());
    let mut ui = Ui::new_in(session, sim.env());
    for &cmd in GOLDEN_SCRIPT {
        if cmd == "+2s" {
            sim.clock().advance(std::time::Duration::from_secs(2));
        } else {
            // Failures are part of the script; their spans are golden.
            let _ = ui.execute(cmd);
        }
    }
    drop(ui);
    let report = read_postmortem(&sim.fs(), std::path::Path::new("/ws")).expect("sidecar reads");
    assert_eq!(report.damaged_lines, 0);

    fn render(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Float(f) => out.push_str(&f.to_string()),
            Value::Str(s) => out.push_str(&format!("{s:?}")),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render(item, out);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{k:?}:"));
                    render(v, out);
                }
                out.push('}');
            }
        }
    }

    let mut numbers: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut out = String::new();
    for record in &report.records {
        let value: Value = serde_json::from_str(&record.line).expect("record parses");
        out.push_str(&record.kind);
        if matches!(record.kind.as_str(), "B" | "E" | "I") {
            let id = |key: &str| match value.get(key) {
                Some(Value::Int(n)) => *n as u64,
                Some(Value::UInt(n)) => *n,
                other => panic!("`{key}` of {}: {other:?}", record.line),
            };
            let next = numbers.len() + 1;
            let own = *numbers.entry(id("id")).or_insert(next);
            let parent = match id("p") {
                0 => "0".to_owned(),
                p => numbers
                    .get(&p)
                    .map_or_else(|| "?".to_owned(), |n| n.to_string()),
            };
            out.push_str(&format!(" #{own} ^{parent} "));
            if let Some(Value::Str(name)) = value.get("n") {
                out.push_str(name);
            }
            if let Some(attrs) = value.get("a") {
                out.push(' ');
                render(attrs, &mut out);
            }
        }
        out.push('\n');
    }
    out
}

/// Encoding at drain time from the trace ring writes the records that
/// encoding each event as it was recorded wrote, in the same order:
/// `golden/telemetry_sidecar.txt` holds the latter's output for this
/// script.
#[test]
fn sidecar_records_match_the_golden() {
    let records = normalized_sidecar();
    assert_eq!(
        records,
        normalized_sidecar(),
        "the simulated session is deterministic"
    );
    assert_eq!(records, include_str!("golden/telemetry_sidecar.txt"));
}

/// Wraps a tool: each run first records `events` instants through the
/// session's tracer.
struct Chatty {
    inner: Arc<dyn Encapsulation>,
    tracer: Tracer,
    events: usize,
}

impl Encapsulation for Chatty {
    fn run(
        &self,
        schema: &TaskSchema,
        invocation: &Invocation,
    ) -> Result<Vec<ToolOutput>, ExecError> {
        for _ in 0..self.events {
            self.tracer.instant("chatter", SpanId::NONE, |_| {});
        }
        self.inner.run(schema, invocation)
    }

    fn multi_instance_mode(&self) -> MultiInstanceMode {
        self.inner.multi_instance_mode()
    }
}

fn counter(ui: &Ui, name: &str) -> u64 {
    ui.session()
        .metrics()
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// A `run` whose tool records more events than the trace ring holds:
/// the flight recorder writes what the ring kept and reports exactly
/// the events evicted before it drained them.
#[test]
fn a_command_that_overflows_the_ring_reports_exactly_the_evicted_events() {
    let sim = SimEnv::new(11);
    let mut session = Session::odyssey("chatty");
    session.set_sim(sim.clock(), sim.interleave(), sim.jitter_seed());
    let schema = session.schema().clone();
    let placer = schema.entity_id("Placer").expect("known tool");
    let tracer = session.tracer().clone();
    let registry = session.executor_mut().registry_mut();
    let inner = registry
        .lookup(&schema, placer)
        .cloned()
        .expect("the placer is encapsulated");
    registry.register(
        placer,
        Arc::new(Chatty {
            inner,
            tracer,
            events: 10_000,
        }),
    );
    let mut ui = Ui::new_in(session, sim.env());
    for cmd in [
        "goal Layout",
        "expand n0",
        "save /ws",
        "specialize n2 EditedNetlist",
        "expand n2",
        "bind-latest",
    ] {
        ui.execute(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
    }
    // Every event so far was drained; start the run from an empty ring
    // so each eviction takes an event the recorder has not seen.
    ui.session().clear_trace();
    let ring = ui.session().trace_ring().clone();
    let evicted_before = ring.dropped();
    let dropped_before = counter(&ui, names::TELEMETRY_DROPPED_RECORDS);
    let records_before = counter(&ui, names::TELEMETRY_RECORDS);

    ui.execute("run").expect("runs");

    let evicted = ring.dropped() - evicted_before;
    assert!(evicted > 0, "the run must overflow the ring");
    assert_eq!(
        counter(&ui, names::TELEMETRY_DROPPED_RECORDS) - dropped_before,
        evicted
    );
    assert_eq!(
        counter(&ui, names::TELEMETRY_RECORDS) - records_before,
        ring.snapshot().len() as u64,
        "everything the ring kept reaches the sidecar"
    );
    // The next command drops nothing more.
    ui.execute("log").expect("logs");
    assert_eq!(
        counter(&ui, names::TELEMETRY_DROPPED_RECORDS) - dropped_before,
        evicted
    );
}

/// Clones of a session trace into rings of their own: a run in one
/// never shows up in the other's events.
#[test]
fn session_clones_never_write_each_others_events() {
    let mut ui = Ui::new(Session::odyssey("a"));
    for cmd in [
        "goal Layout",
        "expand n0",
        "specialize n2 EditedNetlist",
        "expand n2",
        "bind-latest",
        "run",
    ] {
        ui.execute(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
    }
    let mut other = Ui::new(ui.session().clone());
    let shared = ui.session().trace_events();
    assert_eq!(
        other.session().trace_events(),
        shared,
        "a clone starts with a copy"
    );

    ui.execute("run").expect("runs");
    assert_eq!(other.session().trace_events(), shared);
    let ours = ui.session().trace_events();
    assert!(ours.len() > shared.len());

    other.execute("run").expect("runs");
    assert_eq!(ui.session().trace_events(), ours);
    let theirs = other.session().trace_events();
    assert!(theirs.len() > shared.len());
    // Span ids stay unique within each ring.
    let begins = |events: &[hercules::obs::TraceEvent]| {
        let ids: Vec<SpanId> = events
            .iter()
            .filter(|e| e.kind != hercules::obs::EventKind::End)
            .map(|e| e.id)
            .collect();
        let unique: std::collections::HashSet<SpanId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    };
    begins(&ours);
    begins(&theirs);
}
