//! Trace synthesis from finished executions and simulated schedules.
//!
//! A live run traces itself through [`ExecOptions::tracer`]; but a
//! report restored from a durable workspace has no live trace — only
//! per-task start offsets and durations. This module rebuilds an
//! equivalent event stream from those, so the same profiler, Gantt
//! renderer, and Chrome exporter work on replayed runs (`herctrace
//! --workspace`).
//!
//! [`ExecOptions::tracer`]: crate::ExecOptions::tracer

use hercules_flow::TaskGraph;
use hercules_obs::{AttrList, AttrValue, EventKind, SpanId, TraceEvent};

use crate::cluster::Schedule;
use crate::engine::{node_list, ExecReport, TaskAction, TaskIdentity, TaskRecord};

/// Assigns compact lanes to `(start, end)` intervals so overlapping
/// tasks land on different lanes — a reconstruction of the worker
/// threads a parallel run used.
fn assign_lanes(intervals: &[(u64, u64)]) -> Vec<u64> {
    // Greedy interval coloring over start-sorted indices.
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| (intervals[i].0, intervals[i].1, i));
    let mut lane_free_at: Vec<u64> = Vec::new();
    let mut lanes = vec![0u64; intervals.len()];
    for i in order {
        let (start, end) = intervals[i];
        match lane_free_at.iter().position(|&free_at| free_at <= start) {
            Some(lane) => {
                lane_free_at[lane] = end;
                lanes[i] = 1 + lane as u64;
            }
            None => {
                lane_free_at.push(end);
                lanes[i] = lane_free_at.len() as u64;
            }
        }
    }
    lanes
}

/// Synthesizes a trace-event stream from a finished report.
///
/// Passing the flow the report came from gives each task the label and
/// the `outputs`/`inputs` attributes the live run gave it, so the
/// profiler can rebuild the exact task DAG; without it, tasks keep
/// node-derived labels and no dependency edges.
///
/// Wall-clock stamps are zero (the report does not store them); all
/// analysis works on the monotonic offsets. Skipped subtasks become
/// `skip` instants, mirroring a live trace.
pub fn report_to_trace(report: &ExecReport, flow: Option<&TaskGraph>) -> Vec<TraceEvent> {
    let ran: Vec<&TaskRecord> = report
        .tasks
        .iter()
        .filter(|t| !matches!(t.action, TaskAction::Skipped))
        .collect();
    let intervals: Vec<(u64, u64)> = ran
        .iter()
        .map(|t| {
            let start = t.started.as_nanos() as u64;
            (start, start + (t.duration.as_nanos() as u64).max(1))
        })
        .collect();
    let lanes = assign_lanes(&intervals);
    let root_end = intervals.iter().map(|&(_, e)| e).max().unwrap_or(0);

    let root = SpanId(1);
    let mut events = Vec::with_capacity(report.tasks.len() * 2 + 2);
    events.push(TraceEvent {
        kind: EventKind::Begin,
        id: root,
        parent: SpanId::NONE,
        name: "execute".into(),
        mono_ns: 0,
        wall_unix_ms: 0,
        tid: 0,
        attrs: vec![("replayed".into(), AttrValue::Bool(true))],
    });

    let mut next_id = 2u64;
    for (record, (&(start, end), &lane)) in ran.iter().zip(intervals.iter().zip(&lanes)) {
        let id = SpanId(next_id);
        next_id += 1;
        let mut attrs = AttrList::default();
        TaskIdentity::of(flow, &record.outputs).attach(&mut attrs);
        attrs.uint("attempts", u64::from(record.attempts));
        attrs.bool("cache_hit", record.action == TaskAction::Cached);
        if let TaskAction::Failed { error } = &record.action {
            attrs.bool("ok", false);
            attrs.str("error", error.to_string());
        } else {
            attrs.bool("ok", true);
        }
        events.push(TraceEvent {
            kind: EventKind::Begin,
            id,
            parent: root,
            name: "task".into(),
            mono_ns: start,
            wall_unix_ms: 0,
            tid: lane,
            attrs: attrs.into_pairs(),
        });
        events.push(TraceEvent {
            kind: EventKind::End,
            id,
            parent: SpanId::NONE,
            name: "".into(),
            mono_ns: end,
            wall_unix_ms: 0,
            tid: lane,
            attrs: Vec::new(),
        });
    }
    for record in report.tasks.iter() {
        if matches!(record.action, TaskAction::Skipped) {
            let id = SpanId(next_id);
            next_id += 1;
            events.push(TraceEvent {
                kind: EventKind::Instant,
                id,
                parent: root,
                name: "skip".into(),
                mono_ns: record.started.as_nanos() as u64,
                wall_unix_ms: 0,
                tid: 0,
                attrs: vec![(
                    "outputs".into(),
                    AttrValue::Str(node_list(&record.outputs).into()),
                )],
            });
        }
    }
    events.push(TraceEvent {
        kind: EventKind::End,
        id: root,
        parent: SpanId::NONE,
        name: "".into(),
        mono_ns: root_end,
        wall_unix_ms: 0,
        tid: 0,
        attrs: Vec::new(),
    });
    events.sort_by_key(|e| (e.mono_ns, e.id.0));
    events
}

/// Renders a simulated [`Schedule`] as trace events (one lane per
/// machine, one abstract work unit = 1µs), so `chrome://tracing` can
/// display the planning-side Gantt next to real executions. With the
/// flow, each task carries the label and `outputs`/`inputs` attributes
/// a live run of the same subtask carries.
pub fn schedule_to_trace(schedule: &Schedule, flow: Option<&TaskGraph>) -> Vec<TraceEvent> {
    const UNIT_NS: u64 = 1_000;
    let root = SpanId(1);
    let mut events = Vec::with_capacity(schedule.tasks.len() * 2 + 2);
    events.push(TraceEvent {
        kind: EventKind::Begin,
        id: root,
        parent: SpanId::NONE,
        name: "schedule".into(),
        mono_ns: 0,
        wall_unix_ms: 0,
        tid: 0,
        attrs: vec![
            ("machines".into(), AttrValue::UInt(schedule.machines as u64)),
            ("makespan".into(), AttrValue::UInt(schedule.makespan)),
        ],
    });
    for (next_id, task) in (2u64..).zip(schedule.tasks.iter()) {
        let id = SpanId(next_id);
        let mut attrs = AttrList::default();
        TaskIdentity::of(flow, &task.outputs).attach(&mut attrs);
        attrs.uint("machine", task.machine as u64);
        events.push(TraceEvent {
            kind: EventKind::Begin,
            id,
            parent: root,
            name: "task".into(),
            mono_ns: task.start * UNIT_NS,
            wall_unix_ms: 0,
            tid: task.machine as u64,
            attrs: attrs.into_pairs(),
        });
        events.push(TraceEvent {
            kind: EventKind::End,
            id,
            parent: SpanId::NONE,
            name: "".into(),
            mono_ns: task.end.max(task.start + 1) * UNIT_NS,
            wall_unix_ms: 0,
            tid: task.machine as u64,
            attrs: Vec::new(),
        });
    }
    events.push(TraceEvent {
        kind: EventKind::End,
        id: root,
        parent: SpanId::NONE,
        name: "".into(),
        mono_ns: schedule.makespan * UNIT_NS,
        wall_unix_ms: 0,
        tid: 0,
        attrs: Vec::new(),
    });
    events.sort_by_key(|e| (e.mono_ns, e.id.0));
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::simulate_schedule;
    use crate::toy;
    use crate::{Binding, Executor};
    use hercules_history::HistoryDb;
    use hercules_obs::profile;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    #[test]
    fn lanes_separate_overlapping_intervals() {
        // [0,10] and [5,15] overlap; [10,20] can reuse lane 1.
        let lanes = assign_lanes(&[(0, 10), (5, 15), (10, 20)]);
        assert_ne!(lanes[0], lanes[1]);
        assert_eq!(lanes[0], lanes[2]);
    }

    #[test]
    fn report_round_trips_into_profile() {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        toy::seed_everything(&mut db, "setup");
        let flow = hercules_flow::fixtures::fig5(schema.clone()).expect("fixture");
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let executor = Executor::new(toy::text_registry(&schema));
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");

        let events = report_to_trace(&report, Some(&flow));
        let prof = profile::profile(&events);
        assert_eq!(prof.tasks.len(), report.tasks.len());
        assert!(!prof.critical_path.is_empty());
        // fig5's chain (compose → simulate → plot) must show up as
        // dependency edges. The *weighted* critical path depends on
        // measured durations, so assert on DAG depth instead.
        let deps: std::collections::HashMap<&str, &[String]> = prof
            .tasks
            .iter()
            .map(|t| (t.label.as_str(), t.deps.as_slice()))
            .collect();
        fn depth(label: &str, deps: &std::collections::HashMap<&str, &[String]>) -> usize {
            1 + deps
                .get(label)
                .map(|ds| ds.iter().map(|d| depth(d, deps)).max().unwrap_or(0))
                .unwrap_or(0)
        }
        let max_depth = prof
            .tasks
            .iter()
            .map(|t| depth(&t.label, &deps))
            .max()
            .unwrap_or(0);
        assert!(
            max_depth >= 3,
            "expected a dependency chain of depth >= 3, got {max_depth}"
        );
        assert!(events.windows(2).all(|w| w[0].mono_ns <= w[1].mono_ns));
    }

    #[test]
    fn schedule_exports_per_machine_lanes() {
        let schema = Arc::new(fixtures::fig1());
        let flow = hercules_flow::fixtures::fig6(schema).expect("fixture");
        let schedule = simulate_schedule(&flow, 2).expect("schedules");
        let events = schedule_to_trace(&schedule, Some(&flow));
        let machines: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.name == "task")
            .map(|e| e.tid)
            .collect();
        assert!(machines.len() >= 2, "two machines, two lanes");
        let chrome = hercules_obs::chrome::to_chrome_trace(&events);
        assert!(chrome.contains("\"traceEvents\""));
    }
}
