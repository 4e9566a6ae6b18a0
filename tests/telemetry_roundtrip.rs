//! Real-filesystem round trip of the operational observability stack:
//! a saved workspace records flight-recorder telemetry as commands
//! run, `health` renders and serializes, the session's metrics
//! snapshot carries the lint histogram and the telemetry counters, and
//! the postmortem reader reconstructs the stream after the process is
//! gone.

use std::path::PathBuf;

use hercules::obs::{names, HealthStatus};
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
