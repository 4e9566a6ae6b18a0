//! Chrome `trace_event` export.
//!
//! Converts a flat event stream into the JSON array format loadable by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): spans
//! become `"X"` (complete) events with microsecond `ts`/`dur`, instants
//! become `"i"` events, and span attributes ride along in `args`.

use std::collections::HashMap;

use crate::span::{json, Attr, EventKind, SpanId, TraceEvent};

/// Renders `events` as a Chrome `trace_event` JSON document (an object
/// with a `traceEvents` array, which both viewers accept).
///
/// Begin/End pairs are matched by span id. A Begin with no matching End
/// (the run died mid-span) is emitted with the trace's final timestamp
/// as its end, so the truncated span is still visible.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    // End events carry closing attrs; merge them into the span's args.
    let mut ends: HashMap<SpanId, &TraceEvent> = HashMap::new();
    let mut last_ns = 0u64;
    for ev in events {
        last_ns = last_ns.max(ev.mono_ns);
        if ev.kind == EventKind::End {
            ends.insert(ev.id, ev);
        }
    }

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                let end = ends.get(&ev.id);
                let end_ns = end.map(|e| e.mono_ns).unwrap_or(last_ns);
                let dur_us = end_ns.saturating_sub(ev.mono_ns) / 1_000;
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"ph\":\"X\",\"name\":");
                json::push_string(&mut out, &ev.name);
                out.push_str(&format!(
                    ",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
                    ev.mono_ns / 1_000,
                    dur_us.max(1),
                    ev.tid
                ));
                push_args(&mut out, ev, end.copied());
                out.push('}');
            }
            EventKind::Instant => {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":");
                json::push_string(&mut out, &ev.name);
                out.push_str(&format!(
                    ",\"ts\":{},\"pid\":1,\"tid\":{}",
                    ev.mono_ns / 1_000,
                    ev.tid
                ));
                push_args(&mut out, ev, None);
                out.push('}');
            }
            EventKind::End => {}
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn push_args(out: &mut String, begin: &TraceEvent, end: Option<&TraceEvent>) {
    let end_attrs: &[Attr] = end.map(|e| e.attrs.as_slice()).unwrap_or(&[]);
    if begin.attrs.is_empty() && end_attrs.is_empty() && begin.parent.is_none() {
        return;
    }
    out.push_str(",\"args\":{");
    let mut first = true;
    if !begin.parent.is_none() {
        out.push_str("\"parent\":");
        out.push_str(&begin.parent.0.to_string());
        first = false;
    }
    for (k, v) in begin.attrs.iter().chain(end_attrs) {
        if !first {
            out.push(',');
        }
        first = false;
        json::push_string(out, k);
        out.push(':');
        json::push_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::RingBuffer;
    use crate::tracer::Tracer;
    use std::sync::Arc;

    #[test]
    fn spans_become_complete_events() {
        let ring = Arc::new(RingBuffer::new(64));
        let t = Tracer::new(ring.clone());
        let root = t.begin("execute", SpanId::NONE);
        let task = t.begin_with("task", root, |a| {
            a.str("tool", "simulate");
        });
        t.instant("retry", task, |a| {
            a.uint("attempt", 1);
        });
        t.end_with(task, |a| {
            a.bool("ok", true);
        });
        t.end(root);
        let j = to_chrome_trace(&ring.snapshot());
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"tool\":\"simulate\""));
        assert!(j.contains("\"ok\":true"), "end attrs merged into args: {j}");
        assert!(j.contains("\"attempt\":1"));
        // Two X events (execute, task) and one instant.
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(j.matches("\"ph\":\"i\"").count(), 1);
    }

    #[test]
    fn unclosed_span_is_truncated_not_dropped() {
        let ring = Arc::new(RingBuffer::new(64));
        let t = Tracer::new(ring.clone());
        let root = t.begin("execute", SpanId::NONE);
        let _leaked = t.begin("task", root);
        t.end(root);
        let j = to_chrome_trace(&ring.snapshot());
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
    }
}
