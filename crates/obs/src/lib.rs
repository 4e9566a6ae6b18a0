//! Structured observability for the Hercules reproduction: spans,
//! metrics, and post-run critical-path profiling.
//!
//! The paper's framework services (§3.3) — automatic sequencing,
//! parallel disjoint sub-flows, design-history queries — are only
//! tunable once per-step timing and provenance are first-class data.
//! This crate supplies the substrate:
//!
//! * [`TraceEvent`] / [`SpanId`] — spans with ids, parents, monotonic
//!   *and* wall-clock timestamps, a thread lane, and typed attributes;
//! * [`Tracer`] — a cheap, clonable, thread-safe handle that allocates
//!   span ids and moves each event into its ring; a disabled tracer is
//!   a few branch instructions per call site, so instrumentation can
//!   stay threaded through release builds. Span names and attribute
//!   keys are `&'static str` literals and string values are shared, so
//!   recording an event allocates only its attribute list;
//! * [`RingBuffer`] — the bounded, numbered store of recent events:
//!   the one place an event is kept, read by `trace`/`profile`,
//!   [`chrome::to_chrome_trace`] (`about://tracing` /
//!   Perfetto-loadable `trace_event` JSON) and the flight recorder;
//! * [`Metrics`] — a registry of counters, gauges, and histograms with
//!   fixed log₂ bucket boundaries (reproducible across runs, mergeable
//!   across processes); updating a name already present allocates
//!   nothing;
//! * [`FlightRecorder`] — encodes, at drain time, the ring events after
//!   its cursor (and periodic metric deltas) into one reused buffer of
//!   JSONL lines for the durable `telemetry-N.jsonl` workspace sidecar;
//! * [`HealthReport`] — typed ok/warn/critical aggregation of store,
//!   scheduler, cache, and design-history staleness signals under
//!   configurable [`HealthThresholds`];
//! * [`profile`] — reconstructs the span tree, derives the task DAG
//!   from span attributes, and reports the critical path, achieved
//!   parallelism, and per-task self/total time.
//!
//! The crate has **zero dependencies** by design: every other Hercules
//! crate can link it without cycles, and its hand-rolled JSON encoder
//! keeps the flight recorder's JSONL lines and the Chrome export
//! available even in minimal builds.
//!
//! # Examples
//!
//! ```
//! use hercules_obs::{profile, RingBuffer, Tracer};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingBuffer::new(1024));
//! let tracer = Tracer::new(ring.clone());
//! let root = tracer.begin("execute", hercules_obs::SpanId::NONE);
//! let task = tracer.begin_with("task", root, |a| {
//!     a.str("outputs", "n1");
//!     a.str("inputs", "n0");
//! });
//! tracer.end(task);
//! tracer.end(root);
//! let spans = profile::build_spans(&ring.snapshot());
//! assert_eq!(spans.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod collect;
mod health;
mod metrics;
pub mod names;
pub mod profile;
mod recorder;
mod span;
mod tracer;

pub use collect::RingBuffer;
pub use health::{
    AnalysisHealth, HealthCheck, HealthReport, HealthStatus, HealthThresholds, StoreHealth,
};
pub use metrics::{HistogramSnapshot, Metrics, MetricsSnapshot};
pub use recorder::FlightRecorder;
pub use span::{Attr, AttrList, AttrValue, EventKind, SpanId, TraceEvent};
pub use tracer::{RealTime, TimeSource, Tracer};
