//! The tracer: span-id allocation, the monotonic/wall clock pair, and
//! event emission.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::collect::RingBuffer;
use crate::span::{Attr, AttrList, EventKind, SpanId, TraceEvent};

/// Where a tracer's timestamps come from.
///
/// The two clocks are tied together by construction:
/// `wall_unix_ms = epoch_wall_ms() + mono_ns() / 1e6`, so they can
/// never disagree within one trace. The default ([`RealTime`]) reads
/// the machine clocks; a simulation harness can substitute a virtual
/// clock via [`Tracer::with_time_source`] so traces replay
/// byte-identically from a seed.
pub trait TimeSource: Send + Sync {
    /// Monotonic nanoseconds since this source's epoch.
    fn mono_ns(&self) -> u64;
    /// The wall-clock reading (Unix milliseconds) at that epoch.
    fn epoch_wall_ms(&self) -> u64;
}

/// The default [`TimeSource`]: machine monotonic + wall clocks,
/// with the epoch captured at construction.
pub struct RealTime {
    epoch: Instant,
    epoch_wall_ms: u64,
}

impl RealTime {
    /// Captures both clocks now.
    pub fn new() -> RealTime {
        let epoch_wall_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        RealTime {
            epoch: Instant::now(),
            epoch_wall_ms,
        }
    }
}

impl Default for RealTime {
    fn default() -> RealTime {
        RealTime::new()
    }
}

impl TimeSource for RealTime {
    fn mono_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn epoch_wall_ms(&self) -> u64 {
        self.epoch_wall_ms
    }
}

struct TracerInner {
    /// Both clocks: monotonic offset plus the wall epoch it is
    /// measured against.
    time: Arc<dyn TimeSource>,
    next_id: AtomicU64,
    ring: Arc<RingBuffer>,
    /// Compact per-thread lanes for trace viewers: first thread seen
    /// gets lane 0, the next lane 1, and so on.
    lanes: Mutex<HashMap<ThreadId, u64>>,
    /// Tells this tracer's entry in a thread's [`LANE`] cache apart.
    serial: u64,
}

/// Serial numbers for [`TracerInner::serial`]; 0 is never issued.
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(serial, lane)`: this thread's lane in the tracer it last
    /// emitted through, so a run of events from one thread takes the
    /// `lanes` lock once.
    static LANE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A clonable, thread-safe tracing handle.
///
/// A disabled tracer ([`Tracer::disabled`]) reduces every call to a
/// branch on an `Option`, so instrumented code pays nothing when
/// tracing is off — the hooks stay compiled into release builds.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("next_id", &inner.next_id.load(Ordering::Relaxed))
                .finish_non_exhaustive(),
            None => f.write_str("Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer recording into `ring`. The epoch (both clocks) is
    /// captured here.
    pub fn new(ring: Arc<RingBuffer>) -> Tracer {
        Tracer::with_time_source(ring, Arc::new(RealTime::new()))
    }

    /// A tracer whose timestamps come from `time` instead of the
    /// machine clocks — the hook a deterministic simulator uses to
    /// make trace output replayable.
    pub fn with_time_source(ring: Arc<RingBuffer>, time: Arc<dyn TimeSource>) -> Tracer {
        Tracer::build(ring, time, 1)
    }

    fn build(ring: Arc<RingBuffer>, time: Arc<dyn TimeSource>, next_id: u64) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                time,
                next_id: AtomicU64::new(next_id),
                ring,
                lanes: Mutex::new(HashMap::new()),
                serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            })),
        }
    }

    /// A tracer recording into `ring` on this tracer's clocks, whose
    /// span ids continue where this tracer's stand — so the ids of
    /// events copied from this tracer's ring stay unique. A disabled
    /// tracer forks into a disabled one.
    pub fn fork(&self, ring: Arc<RingBuffer>) -> Tracer {
        match &self.inner {
            Some(inner) => Tracer::build(
                ring,
                inner.time.clone(),
                inner.next_id.load(Ordering::Relaxed),
            ),
            None => Tracer::disabled(),
        }
    }

    /// The no-op tracer: every emission is skipped, every returned span
    /// id is [`SpanId::NONE`].
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Returns `true` when events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Monotonic nanoseconds since the tracer's epoch (0 when
    /// disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.time.mono_ns(),
            None => 0,
        }
    }

    /// Wall-clock Unix milliseconds consistent with [`Tracer::now_ns`]
    /// (0 when disabled).
    pub fn wall_unix_ms(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.time.epoch_wall_ms() + inner.time.mono_ns() / 1_000_000,
            None => 0,
        }
    }

    fn lane(inner: &TracerInner) -> u64 {
        LANE.with(|cached| {
            let (serial, lane) = cached.get();
            if serial == inner.serial {
                return lane;
            }
            let id = std::thread::current().id();
            let mut lanes = inner.lanes.lock().unwrap_or_else(|e| e.into_inner());
            let next = lanes.len() as u64;
            let lane = *lanes.entry(id).or_insert(next);
            cached.set((inner.serial, lane));
            lane
        })
    }

    fn emit(
        &self,
        kind: EventKind,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        attrs: Vec<Attr>,
    ) {
        if let Some(inner) = &self.inner {
            let mono_ns = inner.time.mono_ns();
            inner.ring.record(TraceEvent {
                kind,
                id,
                parent,
                name: Cow::Borrowed(name),
                mono_ns,
                wall_unix_ms: inner.time.epoch_wall_ms() + mono_ns / 1_000_000,
                tid: Tracer::lane(inner),
                attrs,
            });
        }
    }

    /// Opens a span; returns its id ([`SpanId::NONE`] when disabled).
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.begin_with(name, parent, |_| {})
    }

    /// Opens a span with attributes. The builder closure only runs when
    /// tracing is enabled, so attribute strings are never allocated for
    /// a disabled tracer.
    pub fn begin_with(
        &self,
        name: &'static str,
        parent: SpanId,
        build: impl FnOnce(&mut AttrList),
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let mut attrs = AttrList::default();
        build(&mut attrs);
        self.emit(EventKind::Begin, id, parent, name, attrs.into_pairs());
        id
    }

    /// Closes a span. Ending [`SpanId::NONE`] is a no-op, so guards
    /// compose with disabled tracers.
    pub fn end(&self, id: SpanId) {
        if id.is_none() {
            return;
        }
        self.emit(EventKind::End, id, SpanId::NONE, "", Vec::new());
    }

    /// Closes a span, attaching final attributes to the end record
    /// (e.g. an outcome computed while the span ran).
    pub fn end_with(&self, id: SpanId, build: impl FnOnce(&mut AttrList)) {
        if id.is_none() || self.inner.is_none() {
            return;
        }
        let mut attrs = AttrList::default();
        build(&mut attrs);
        self.emit(EventKind::End, id, SpanId::NONE, "", attrs.into_pairs());
    }

    /// Emits a point-in-time event under `parent`.
    pub fn instant(&self, name: &'static str, parent: SpanId, build: impl FnOnce(&mut AttrList)) {
        let Some(inner) = &self.inner else {
            return;
        };
        let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let mut attrs = AttrList::default();
        build(&mut attrs);
        self.emit(EventKind::Instant, id, parent, name, attrs.into_pairs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::RingBuffer;

    #[test]
    fn disabled_tracer_emits_nothing_and_costs_no_ids() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let id = t.begin_with("x", SpanId::NONE, |a| {
            a.str("never", "built");
        });
        assert!(id.is_none());
        t.end(id);
        t.instant("e", id, |_| {});
        assert_eq!(t.now_ns(), 0);
        assert_eq!(t.wall_unix_ms(), 0);
        assert_eq!(format!("{t:?}"), "Tracer(disabled)");
    }

    #[test]
    fn spans_nest_and_timestamps_are_monotonic() {
        let ring = Arc::new(RingBuffer::new(16));
        let t = Tracer::new(ring.clone());
        let root = t.begin("execute", SpanId::NONE);
        let child = t.begin("task", root);
        t.instant("retry", child, |a| {
            a.uint("attempt", 2);
        });
        t.end(child);
        t.end(root);
        let events = ring.snapshot();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].mono_ns <= w[1].mono_ns));
        assert_eq!(events[1].parent, root);
        assert_eq!(events[2].name, "retry");
        // Wall stamps derive from the same epoch, so they are plausible
        // "now" values and non-decreasing too.
        assert!(events[0].wall_unix_ms > 1_600_000_000_000);
        assert!(events
            .windows(2)
            .all(|w| w[0].wall_unix_ms <= w[1].wall_unix_ms));
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let ring = Arc::new(RingBuffer::new(64));
        let t = Tracer::new(ring.clone());
        let root = t.begin("execute", SpanId::NONE);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let t = t.clone();
                s.spawn(move || {
                    let id = t.begin("task", root);
                    t.end(id);
                });
            }
        });
        t.end(root);
        let lanes: std::collections::HashSet<u64> = ring.snapshot().iter().map(|e| e.tid).collect();
        assert!(lanes.len() >= 2, "worker threads occupy their own lanes");
    }

    #[test]
    fn a_thread_alternating_tracers_keeps_each_tracers_lanes() {
        let (ring_a, ring_b) = (Arc::new(RingBuffer::new(16)), Arc::new(RingBuffer::new(16)));
        let (a, b) = (Tracer::new(ring_a.clone()), Tracer::new(ring_b.clone()));
        // A worker is `a`'s first thread (lane 0); this thread is then
        // lane 1 of `a` but lane 0 of `b`, however the calls alternate.
        std::thread::scope(|s| {
            s.spawn(|| a.instant("worker", SpanId::NONE, |_| {}));
        });
        for _ in 0..2 {
            a.instant("main", SpanId::NONE, |_| {});
            b.instant("main", SpanId::NONE, |_| {});
        }
        let lanes = |r: &RingBuffer| r.snapshot().iter().map(|e| e.tid).collect::<Vec<_>>();
        assert_eq!(lanes(&ring_a), vec![0, 1, 1]);
        assert_eq!(lanes(&ring_b), vec![0, 0]);
    }

    #[test]
    fn a_fork_records_elsewhere_and_continues_the_ids() {
        let ring = Arc::new(RingBuffer::new(16));
        let t = Tracer::new(ring.clone());
        let first = t.begin("execute", SpanId::NONE);
        let other = Arc::new(RingBuffer::new(16));
        let fork = t.fork(other.clone());
        let forked = fork.begin("execute", SpanId::NONE);
        assert!(forked > first);
        assert_eq!(ring.snapshot().len(), 1);
        assert_eq!(other.snapshot().len(), 1);
        assert!(!Tracer::disabled().fork(other).is_enabled());
    }
}
