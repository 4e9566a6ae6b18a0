//! Chaos suite: drives the Fig. 5 / Fig. 6 flows through injected
//! faults to prove the engine's fault tolerance — supervised runs,
//! retry policies, watchdog deadlines, and partial-failure semantics.

use std::sync::Arc;
use std::time::Duration;

use hercules::exec::{
    ExecError, FailurePolicy, FaultPlan, FaultyEncapsulation, RetryPolicy, TaskAction,
};
use hercules::flow::NodeId;
use hercules::history::{Derivation, InstanceId, Metadata};
use hercules::ui::Ui;
use hercules::{eda, HerculesError, Session};

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

/// Builds the Layout flow (Placer ← editor-produced netlist + rules)
/// and binds it; returns (layout node, placer-subtask output node).
fn layout_flow(session: &mut Session) -> NodeId {
    let layout = session.start_from_goal("Layout").expect("starts");
    let created = session.expand(layout).expect("expands"); // placer, netlist, rules
    let netlist = created[1];
    session
        .specialize(netlist, "EditedNetlist")
        .expect("specializes");
    session.expand(netlist).expect("expands"); // editor
    session.bind_latest().expect("binds");
    layout
}

#[test]
fn flaky_tool_succeeds_under_retry_recording_attempts() {
    let mut session = Session::odyssey("chaos");
    let faulty = inject(&mut session, "Placer", FaultPlan::FailTimes(2));
    let layout = layout_flow(&mut session);
    session.executor_mut().options_mut().retry = RetryPolicy::attempts(3);

    let report = session.run().expect("third attempt lands").clone();
    assert!(report.is_complete());
    assert!(report.try_single(layout).is_ok(), "layout produced");
    let record = report
        .tasks
        .iter()
        .find(|t| t.outputs.contains(&layout))
        .expect("placer subtask recorded");
    assert_eq!(record.action, TaskAction::Ran { runs: 1 });
    assert_eq!(record.attempts, 3, "two failures + one success");
    assert!(record.duration >= Duration::from_millis(20), "backed off");
    assert_eq!(faulty.calls(), 3);
    assert!(session.events()[0].is_clean());
}

#[test]
fn exhausted_retries_surface_the_final_error() {
    let mut session = Session::odyssey("chaos");
    let faulty = inject(&mut session, "Placer", FaultPlan::FailTimes(5));
    layout_flow(&mut session);
    session.executor_mut().options_mut().retry = RetryPolicy::attempts(2);

    let err = session.run().expect_err("two attempts cannot clear five");
    assert!(
        matches!(&err, HerculesError::Exec(ExecError::ToolFailed { .. })),
        "{err}"
    );
    assert_eq!(faulty.calls(), 2, "stopped at max_attempts");
    let event = &session.events()[0];
    assert!(!event.is_clean());
    assert!(event.error.as_deref().unwrap().contains("injected fault"));
}

#[test]
fn panicking_tool_reports_instead_of_aborting_the_process() {
    let mut session = Session::odyssey("chaos");
    let schema = session.schema().clone();
    let placer = schema.require("Placer").expect("known");
    let real = session
        .executor_mut()
        .registry()
        .lookup(&schema, placer)
        .expect("registered")
        .clone();
    inject(&mut session, "Placer", FaultPlan::AlwaysPanic);
    layout_flow(&mut session);

    let err = session.run().expect_err("panic becomes an error");
    match &err {
        HerculesError::Exec(ExecError::ToolPanicked { tool, message }) => {
            assert_eq!(tool, "Placer");
            assert!(message.contains("injected panic"), "{message}");
        }
        other => panic!("expected ToolPanicked, got {other}"),
    }
    // The process (and the session) survived: a clean rerun works once
    // the fault is lifted.
    session.executor_mut().registry_mut().register(placer, real);
    session.run().expect("recovered");
}

#[test]
fn hung_tool_trips_the_watchdog_deadline() {
    let mut session = Session::odyssey("chaos");
    inject(
        &mut session,
        "Placer",
        FaultPlan::SleepFor(Duration::from_millis(300)),
    );
    layout_flow(&mut session);
    let options = session.executor_mut().options_mut();
    options.deadline = Some(Duration::from_millis(40));
    options.retry.retry_timeouts = false;

    let err = session.run().expect_err("watchdog fires");
    assert!(
        matches!(
            &err,
            HerculesError::Exec(ExecError::ToolTimedOut {
                deadline_ms: 40,
                ..
            })
        ),
        "{err}"
    );
}

#[test]
fn slow_then_fast_tool_recovers_when_timeouts_retry() {
    let mut session = Session::odyssey("chaos");
    let faulty = inject(
        &mut session,
        "Placer",
        FaultPlan::SleepTimes {
            times: 1,
            duration: Duration::from_millis(300),
        },
    );
    let layout = layout_flow(&mut session);
    let options = session.executor_mut().options_mut();
    options.deadline = Some(Duration::from_millis(60));
    options.retry = RetryPolicy::attempts(2); // retry_timeouts on by default

    let report = session.run().expect("second attempt is prompt").clone();
    assert!(report.try_single(layout).is_ok());
    assert_eq!(faulty.calls(), 2);
}

#[test]
fn corrupt_outputs_are_never_retried() {
    let mut session = Session::odyssey("chaos");
    let faulty = inject(&mut session, "Placer", FaultPlan::CorruptOutputs);
    layout_flow(&mut session);
    session.executor_mut().options_mut().retry = RetryPolicy::attempts(3);

    let err = session.run().expect_err("output count mismatch");
    assert!(
        matches!(&err, HerculesError::Exec(ExecError::WrongOutputs { .. })),
        "{err}"
    );
    assert_eq!(faulty.calls(), 1, "structural errors retry nothing");
}

/// Builds the Fig. 6 verification flow with BOTH branches expanded:
/// branch A is an editor run producing the edited netlist, branch B is
/// placer → extractor producing the extracted netlist.
struct Fig6 {
    verification: NodeId,
    edited: NodeId,
    layout: NodeId,
    extracted: NodeId,
}

fn fig6_flow(session: &mut Session, parallel: bool) -> Fig6 {
    let seeded = seed_netlist(session);
    session.executor_mut().options_mut().parallel = parallel;
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

fn assert_disjoint_branch_survives(parallel: bool) {
    let mut session = Session::odyssey("chaos");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    inject(&mut session, "Placer", FaultPlan::AlwaysPanic);
    let nodes = fig6_flow(&mut session, parallel);

    let report = session.run().expect("continues past the failure").clone();
    assert!(!report.is_complete());
    assert_eq!(report.failed(), 1, "exactly the placer subtask failed");
    assert_eq!(report.skipped(), 2, "extractor + verification skipped");

    // The disjoint editor branch committed its product.
    assert!(report.try_single(nodes.edited).is_ok(), "branch A landed");
    // The failed subtask and its downstream cone produced nothing.
    for node in [nodes.layout, nodes.extracted, nodes.verification] {
        assert!(report.instances_of(node).is_empty());
        assert!(matches!(
            report.try_single(node),
            Err(ExecError::NotSingleInstance { count: 0, .. })
        ));
    }
    let failed = report
        .tasks
        .iter()
        .find(|t| matches!(t.action, TaskAction::Failed { .. }))
        .expect("failure recorded");
    assert_eq!(failed.outputs, vec![nodes.layout]);
    assert!(matches!(
        &failed.action,
        TaskAction::Failed {
            error: ExecError::ToolPanicked { .. }
        }
    ));
    assert!(
        report
            .first_error()
            .expect("present")
            .to_string()
            .contains("panicked"),
        "first_error surfaces the root cause"
    );

    // The session event log carries the partial-failure audit trail.
    let event = session.events().last().expect("recorded");
    assert_eq!((event.failed, event.skipped), (1, 2));
    assert!(
        event.failures[0].contains("panicked"),
        "{:?}",
        event.failures
    );
}

#[test]
fn continue_disjoint_completes_independent_branches_serially() {
    assert_disjoint_branch_survives(false);
}

#[test]
fn continue_disjoint_completes_independent_branches_in_parallel() {
    assert_disjoint_branch_survives(true);
}

#[test]
fn ui_surfaces_partial_failures_and_the_event_log() {
    let mut session = Session::odyssey("chaos");
    session.executor_mut().options_mut().failure = FailurePolicy::ContinueDisjoint;
    inject(&mut session, "Placer", FaultPlan::AlwaysPanic);
    fig6_flow(&mut session, false);

    let mut ui = Ui::new(session);
    let out = ui.execute("run").expect("continues");
    assert!(out.contains("1 failed, 2 skipped"), "{out}");
    assert!(out.contains("first failure:"), "{out}");
    let log = ui.execute("log").expect("lists");
    assert!(log.contains("1 failed, 2 skipped"), "{log}");
    assert!(log.contains("✗"), "failures itemized: {log}");
}
