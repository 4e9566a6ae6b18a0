//! Collectors: pluggable sinks for trace events.

use std::sync::{Arc, Mutex};

use crate::span::TraceEvent;

/// A sink for trace events. Implementations must be cheap and
/// non-blocking-ish: they run inline on the executing (possibly worker)
/// thread.
pub trait Collector: Send + Sync {
    /// Records one event.
    fn record(&self, event: &TraceEvent);
}

/// A bounded in-memory buffer keeping the most recent events. The
/// default sink for interactive sessions: `trace`/`profile` commands
/// read a snapshot, old events age out instead of growing without
/// bound.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    events: Mutex<std::collections::VecDeque<TraceEvent>>,
    dropped: Mutex<u64>,
}

impl RingBuffer {
    /// A ring keeping at most `capacity` events (clamped to ≥ 16).
    pub fn new(capacity: usize) -> RingBuffer {
        let capacity = capacity.max(16);
        RingBuffer {
            capacity,
            events: Mutex::new(std::collections::VecDeque::with_capacity(
                capacity.min(1024),
            )),
            dropped: Mutex::new(0),
        }
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Empties the ring (the `trace clear` of a long session).
    pub fn clear(&self) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }
}

impl Collector for RingBuffer {
    fn record(&self, event: &TraceEvent) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() == self.capacity {
            events.pop_front();
            *self.dropped.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        }
        events.push_back(event.clone());
    }
}

/// Fans every event out to several collectors (e.g. the session's ring
/// buffer plus the flight recorder).
#[derive(Clone)]
pub struct MultiCollector {
    sinks: Vec<Arc<dyn Collector>>,
}

impl MultiCollector {
    /// Builds a fan-out over `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Collector>>) -> MultiCollector {
        MultiCollector { sinks }
    }
}

impl Collector for MultiCollector {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EventKind, SpanId};

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Instant,
            id: SpanId(n),
            parent: SpanId::NONE,
            name: format!("e{n}"),
            mono_ns: n,
            wall_unix_ms: n,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingBuffer::new(16);
        for n in 0..20 {
            ring.record(&ev(n));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap[0].id, SpanId(4), "oldest evicted first");
        assert_eq!(ring.dropped(), 4);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn multi_fans_out() {
        let a = Arc::new(RingBuffer::new(16));
        let b = Arc::new(RingBuffer::new(16));
        let multi = MultiCollector::new(vec![a.clone(), b.clone()]);
        multi.record(&ev(7));
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
    }
}
