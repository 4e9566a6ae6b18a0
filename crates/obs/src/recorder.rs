//! The always-on flight recorder: encodes what a session's trace ring
//! recorded, at drain time, for the workspace sidecar.
//!
//! The recorder keeps no events of its own. The [`Tracer`](crate::Tracer)
//! moves each event into its [`RingBuffer`], and the recorder remembers
//! the number of the first event it has not encoded yet. Whoever owns
//! the durable `telemetry-N.jsonl` file calls [`FlightRecorder::drain`]
//! at command boundaries: the recorder encodes every event after its
//! cursor as a JSONL line into one reused buffer and hands that buffer
//! to the file. It is deliberately dumb about I/O. Events the ring
//! evicted, or that were cleared from it, before a drain reached them
//! count as dropped; after a crash the interesting records are the
//! most recent ones, which the ring keeps.
//!
//! Record kinds on the wire (one JSON object per line):
//!
//! * `"B"`/`"E"`/`"I"` — span begin/end and instant events, exactly
//!   [`TraceEvent::to_json`](crate::TraceEvent::to_json);
//! * `"M"` — a periodic metrics delta (see
//!   [`FlightRecorder::record_metrics_delta`]);
//! * anything else (e.g. the `"S"` session stamp) is appended by the
//!   file owner directly and never passes through the recorder.

use std::sync::Arc;

use crate::collect::RingBuffer;
use crate::metrics::MetricsSnapshot;
use crate::span::json;

/// Bytes an encoded span event typically takes: enough to size the line
/// buffer once per drain instead of growing it line by line.
const LINE_BYTES: usize = 160;

/// Drain-time encoder of one trace ring into JSONL telemetry lines.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Arc<RingBuffer>,
    /// Number of the first ring event not yet encoded.
    cursor: u64,
    /// Encoded lines awaiting [`FlightRecorder::drain`]; its
    /// allocation is kept across drains.
    lines: String,
    /// Records in `lines`.
    pending: u64,
    records: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder of `ring` that encodes the events recorded from now
    /// on; those already in the ring are not its business.
    pub fn new(ring: Arc<RingBuffer>) -> FlightRecorder {
        FlightRecorder {
            cursor: ring.next_seq(),
            ring,
            lines: String::new(),
            pending: 0,
            records: 0,
            dropped: 0,
        }
    }

    /// Encodes every ring event after the cursor, so a line appended
    /// next lands after them, in recording order.
    fn catch_up(&mut self) {
        self.lines
            .reserve(self.ring.count_from(self.cursor) * LINE_BYTES);
        let (lines, mut encoded) = (&mut self.lines, 0);
        let (next, missed) = self.ring.visit_from(self.cursor, |event| {
            event.encode_into(lines);
            lines.push('\n');
            encoded += 1;
        });
        self.cursor = next;
        self.pending += encoded;
        self.records += encoded;
        self.dropped += missed;
    }

    /// Encodes a metrics delta as one `"M"` record, after the span
    /// events recorded so far. Quiet deltas (nothing changed since the
    /// previous export) are skipped.
    ///
    /// The timestamps mirror span events: `t` is monotonic
    /// nanoseconds, `w` wall-clock unix milliseconds.
    pub fn record_metrics_delta(
        &mut self,
        delta: &MetricsSnapshot,
        mono_ns: u64,
        wall_unix_ms: u64,
    ) {
        if delta.is_empty() {
            return;
        }
        self.catch_up();
        let out = &mut self.lines;
        out.push_str("{\"k\":\"M\",\"t\":");
        json::push_u64(out, mono_ns);
        out.push_str(",\"w\":");
        json::push_u64(out, wall_unix_ms);
        out.push_str(",\"m\":");
        delta.encode_into(out);
        out.push_str("}\n");
        self.pending += 1;
        self.records += 1;
    }

    /// Encodes the events the ring recorded since the previous drain
    /// and hands every pending record to `write` as newline-terminated
    /// JSONL bytes, then empties the buffer (keeping its allocation).
    /// `write` is not called when nothing is pending. Returns the
    /// number of records handed over.
    pub fn drain(&mut self, write: impl FnOnce(&[u8])) -> u64 {
        self.catch_up();
        let handed = self.pending;
        if handed > 0 {
            write(self.lines.as_bytes());
            self.lines.clear();
            self.pending = 0;
        }
        handed
    }

    /// Total records ever encoded.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Events that left the ring (evicted or cleared) before a drain
    /// encoded them, lifetime total.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::{SpanId, Tracer};

    fn drained(rec: &mut FlightRecorder) -> String {
        let mut text = String::new();
        rec.drain(|bytes| text = String::from_utf8(bytes.to_vec()).unwrap());
        text
    }

    #[test]
    fn ring_buffers_span_events_and_drains_in_order() {
        let ring = Arc::new(RingBuffer::new(64));
        let tracer = Tracer::new(ring.clone());
        // Recorded before the recorder existed: not its business.
        tracer.instant("before", SpanId::NONE, |_| {});
        let mut rec = FlightRecorder::new(ring.clone());
        let root = tracer.begin("execute", SpanId::NONE);
        tracer.instant("note", root, |a| {
            a.str("cause", "test");
        });
        tracer.end(root);
        let text = drained(&mut rec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"k\":\"B\""));
        assert!(lines[1].contains("\"k\":\"I\""));
        assert!(lines[2].contains("\"k\":\"E\""));
        assert!(text.ends_with('\n'));
        // Drained means gone; the ring itself still holds the events.
        assert_eq!(rec.drain(|_| panic!("nothing pending")), 0);
        assert_eq!(ring.snapshot().len(), 4);
        assert_eq!(rec.records(), 3);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn drained_lines_are_the_events_json() {
        let ring = Arc::new(RingBuffer::new(64));
        let tracer = Tracer::new(ring.clone());
        let mut rec = FlightRecorder::new(ring.clone());
        let task = tracer.begin_with("task", SpanId::NONE, |a| {
            a.str("outputs", "n1").uint("runs", 2).int("delta", -3);
        });
        tracer.end_with(task, |a| {
            a.bool("ok", true);
        });
        let expected: String = ring.snapshot().iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(drained(&mut rec), expected);
    }

    #[test]
    fn budget_overflow_evicts_oldest_first() {
        let ring = Arc::new(RingBuffer::new(16));
        let tracer = Tracer::new(ring.clone());
        let mut rec = FlightRecorder::new(ring.clone());
        for seq in 0..20 {
            tracer.instant("e", SpanId::NONE, |a| {
                a.uint("seq", seq);
            });
        }
        let text = drained(&mut rec);
        // The newest records survive; the oldest are gone, and counted.
        assert_eq!(text.lines().count(), 16);
        assert!(text.contains("\"seq\":19"));
        assert!(!text.contains("\"seq\":3}"));
        assert!(text.lines().next().unwrap().contains("\"seq\":4}"));
        assert_eq!(rec.dropped(), 4);
    }

    #[test]
    fn cleared_events_count_as_dropped_and_drained_ones_age_out_freely() {
        let ring = Arc::new(RingBuffer::new(16));
        let tracer = Tracer::new(ring.clone());
        let mut rec = FlightRecorder::new(ring.clone());
        for _ in 0..16 {
            tracer.instant("e", SpanId::NONE, |_| {});
        }
        assert_eq!(rec.drain(|_| {}), 16);
        for _ in 0..16 {
            tracer.instant("e", SpanId::NONE, |_| {});
        }
        assert_eq!(rec.drain(|_| {}), 16);
        assert_eq!(rec.dropped(), 0, "only drained events were evicted");
        for _ in 0..3 {
            tracer.instant("e", SpanId::NONE, |_| {});
        }
        ring.clear();
        assert_eq!(rec.drain(|_| panic!("nothing pending")), 0);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.records(), 32);
    }

    #[test]
    fn metrics_delta_record_shape() {
        let ring = Arc::new(RingBuffer::new(64));
        let tracer = Tracer::new(ring.clone());
        let mut rec = FlightRecorder::new(ring);
        let m = Metrics::new();
        let before = m.snapshot();
        m.incr("exec.runs", 3);
        m.observe("exec.task_wall_ns", 1024);
        let delta = m.snapshot().delta(&before);
        tracer.instant("span", SpanId::NONE, |_| {});
        rec.record_metrics_delta(&delta, 42, 1_577_836_800_123);
        // A quiet delta writes nothing.
        rec.record_metrics_delta(&MetricsSnapshot::default(), 43, 1_577_836_800_124);
        let text = drained(&mut rec);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"k\":\"I\""), "span events first");
        assert!(lines[1].starts_with("{\"k\":\"M\",\"t\":42,\"w\":1577836800123,\"m\":"));
        assert!(lines[1].contains("\"exec.runs\":3"));
        assert!(lines[1].contains("\"p95\":"));
    }
}
