//! The trace ring: the one store every recorded event lands in.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use crate::span::TraceEvent;

/// A bounded in-memory buffer keeping the most recent events: the
/// store a [`Tracer`](crate::Tracer) records into. Interactive
/// sessions read snapshots of it (`trace`/`profile`), and the
/// [`FlightRecorder`](crate::FlightRecorder) encodes what it holds
/// into the workspace sidecar; old events age out instead of growing
/// without bound.
///
/// Events are numbered from 0 in the order they are recorded, and
/// eviction or [`RingBuffer::clear`] never renumbers them, so a reader
/// that remembers a number knows exactly which events it has not seen
/// and how many of those are gone.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    /// Number of `events[0]` (of the next event, when empty).
    first: u64,
    /// Events evicted because the ring was full.
    evicted: u64,
}

impl RingBuffer {
    /// A ring keeping at most `capacity` events (clamped to ≥ 16).
    pub fn new(capacity: usize) -> RingBuffer {
        let capacity = capacity.max(16);
        RingBuffer {
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(1024)),
                first: 0,
                evicted: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Moves one event in, evicting the oldest when the ring is full.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.lock();
        let evicted = if ring.events.len() == self.capacity {
            ring.first += 1;
            ring.evicted += 1;
            ring.events.pop_front()
        } else {
            None
        };
        ring.events.push_back(event);
        drop(ring);
        // Freed outside the lock.
        drop(evicted);
    }

    /// Copies out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().events.iter().cloned().collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().evicted
    }

    /// Empties the ring (the `trace clear` of a long session).
    pub fn clear(&self) {
        let mut ring = self.lock();
        ring.first += ring.events.len() as u64;
        ring.events.clear();
    }

    /// The number the next recorded event gets.
    pub fn next_seq(&self) -> u64 {
        let ring = self.lock();
        ring.first + ring.events.len() as u64
    }

    /// How many buffered events are numbered `from` or later.
    pub fn count_from(&self, from: u64) -> usize {
        let ring = self.lock();
        let skip = usize::try_from(from.saturating_sub(ring.first)).unwrap_or(usize::MAX);
        ring.events.len().saturating_sub(skip)
    }

    /// Visits every buffered event numbered `from` or later, oldest
    /// first. Returns the number the next recorded event gets, and how
    /// many events numbered `from` or later left the ring (evicted or
    /// cleared) before this call could visit them.
    ///
    /// The ring stays locked while `visit` runs, so it must not record.
    pub fn visit_from(&self, from: u64, mut visit: impl FnMut(&TraceEvent)) -> (u64, u64) {
        let ring = self.lock();
        let missed = ring.first.saturating_sub(from);
        let skip = usize::try_from(from.saturating_sub(ring.first)).unwrap_or(usize::MAX);
        for event in ring.events.iter().skip(skip) {
            visit(event);
        }
        (ring.first + ring.events.len() as u64, missed)
    }
}

impl Clone for RingBuffer {
    /// A ring of its own holding a copy of this one's events, numbered
    /// as they are here.
    fn clone(&self) -> RingBuffer {
        let copy = RingBuffer::new(self.capacity);
        {
            let (ring, mut mine) = (self.lock(), copy.lock());
            mine.events.extend(ring.events.iter().cloned());
            mine.first = ring.first;
            mine.evicted = ring.evicted;
        }
        copy
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
            name: format!("e{n}").into(),
            mono_ns: n,
            wall_unix_ms: n,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    fn ids_from(ring: &RingBuffer, from: u64) -> (Vec<u64>, u64, u64) {
        let mut ids = Vec::new();
        let (next, missed) = ring.visit_from(from, |e| ids.push(e.id.0));
        (ids, next, missed)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingBuffer::new(16);
        for n in 0..20 {
            ring.record(ev(n));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(snap[0].id, SpanId(4), "oldest evicted first");
        assert_eq!(ring.dropped(), 4);
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn readers_resume_from_a_number_and_count_what_they_missed() {
        let ring = RingBuffer::new(16);
        for n in 0..10 {
            ring.record(ev(n));
        }
        assert_eq!(ids_from(&ring, 0), ((0..10).collect(), 10, 0));
        assert_eq!(ids_from(&ring, 7), (vec![7, 8, 9], 10, 0));
        // Eviction: 10 more events push 0..4 out.
        for n in 10..20 {
            ring.record(ev(n));
        }
        assert_eq!(ids_from(&ring, 10), ((10..20).collect(), 20, 0));
        assert_eq!(ids_from(&ring, 2), ((4..20).collect(), 20, 2));
        assert_eq!(
            (ring.count_from(2), ring.count_from(10), ring.count_from(25)),
            (16, 10, 0)
        );
        // Clearing skips the reader past what it never saw.
        ring.clear();
        assert_eq!(ring.next_seq(), 20);
        assert_eq!(ids_from(&ring, 15), (vec![], 20, 5));
        ring.record(ev(20));
        assert_eq!(ids_from(&ring, 20), (vec![20], 21, 0));
        assert_eq!(ring.dropped(), 4, "a clear is not an eviction");
    }

    #[test]
    fn a_cloned_ring_is_independent() {
        let ring = RingBuffer::new(16);
        ring.record(ev(1));
        let copy = ring.clone();
        ring.record(ev(2));
        copy.record(ev(3));
        let ids = |r: &RingBuffer| r.snapshot().iter().map(|e| e.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&ring), vec![1, 2]);
        assert_eq!(ids(&copy), vec![1, 3]);
        assert_eq!(copy.next_seq(), 2);
    }
}
