//! The traced run: per-layer attribution measured from outside the
//! program.
//!
//! Three sources, none of them inside the program:
//!
//! * every `Ui::execute` is timed and charged to the layer its verb
//!   enters ([`layer_of`]);
//! * every encapsulation in the session registry is re-registered
//!   behind [`Timed`], which records each tool invocation's interval;
//! * the counters the program already keeps are read as snapshot
//!   deltas around each command, and the span tree of each `run` /
//!   `retrace` is profiled with `obs::profile`.
//!
//! Nested work is subtracted from its parent, so self times add up: the
//! wall time the tool intervals cover inside an execution verb is tool
//! time, fsync time inside any verb is store time, and cache lookups
//! and write-backs inside an execution verb are cache time.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hercules::exec::{Encapsulation, ExecError, Invocation, MultiInstanceMode, ToolOutput};
use hercules::obs::{profile, MetricsSnapshot};
use hercules::schema::TaskSchema;
use hercules::Session;

/// The layers time is attributed to, named by module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `flow`: flow construction and validation verbs.
    Flow,
    /// `analyze`: `lint`.
    Analyze,
    /// `exec`: scheduling and recording inside `run` / `retrace`.
    Exec,
    /// `eda` through `encaps`: tool work.
    Tool,
    /// `history`: the read-only history queries.
    History,
    /// `core::store`: save, open, checkpoint, and every fsync.
    Store,
    /// `cache`: `cache open` and cache lookups inside executions.
    Cache,
    /// `core::telemetry` / `obs`: `health` and the other report verbs.
    Telemetry,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Flow,
        Layer::Analyze,
        Layer::Exec,
        Layer::Tool,
        Layer::History,
        Layer::Store,
        Layer::Cache,
        Layer::Telemetry,
    ];

    /// The metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Flow => "flow",
            Layer::Analyze => "analyze",
            Layer::Exec => "exec",
            Layer::Tool => "tool",
            Layer::History => "history",
            Layer::Store => "store",
            Layer::Cache => "cache",
            Layer::Telemetry => "telemetry",
        }
    }
}

/// The per-verb attribution table: the layer a REPL verb enters.
pub fn layer_of(verb: &str) -> Layer {
    match verb {
        "lint" => Layer::Analyze,
        "run" | "resume" | "retrace" => Layer::Exec,
        "stale" | "uses" | "history" => Layer::History,
        "save" | "open" | "checkpoint" | "scrub" => Layer::Store,
        "cache" => Layer::Cache,
        "health" | "log" | "trace" | "stats" | "profile" => Layer::Telemetry,
        _ => Layer::Flow,
    }
}

/// One tool invocation seen by the decorator.
#[derive(Debug, Clone)]
struct ToolCall {
    tool: String,
    start: Instant,
    end: Instant,
    ok: bool,
}

/// Shared log the decorators append to.
#[derive(Debug, Default, Clone)]
pub struct ToolLog(Arc<Mutex<Vec<ToolCall>>>);

impl ToolLog {
    fn push(&self, call: ToolCall) {
        self.0.lock().expect("tool log lock").push(call);
    }

    fn take(&self) -> Vec<ToolCall> {
        std::mem::take(&mut *self.0.lock().expect("tool log lock"))
    }
}

/// Bench-side timing decorator around one encapsulation.
struct Timed {
    inner: Arc<dyn Encapsulation>,
    tool: String,
    log: ToolLog,
}

impl Encapsulation for Timed {
    fn run(&self, schema: &TaskSchema, inv: &Invocation) -> Result<Vec<ToolOutput>, ExecError> {
        let start = Instant::now();
        let result = self.inner.run(schema, inv);
        self.log.push(ToolCall {
            tool: self.tool.clone(),
            start,
            end: Instant::now(),
            ok: result.is_ok(),
        });
        result
    }

    fn multi_instance_mode(&self) -> MultiInstanceMode {
        self.inner.multi_instance_mode()
    }
}

/// The entities the Odyssey registry registers encapsulations under.
const ENCAPSULATED: [&str; 11] = [
    "DeviceModelEditor",
    "CircuitEditor",
    "Circuit",
    "Simulator",
    "Placer",
    "Extractor",
    "Verifier",
    "Plotter",
    "SimulatorCompiler",
    "CompiledSimulator",
    "Optimizer",
];

/// Re-registers every encapsulation in the session's registry behind
/// [`Timed`]. `open` rebuilds the registry, so this runs again after
/// every `open`.
pub fn decorate(session: &mut Session, log: &ToolLog) {
    let schema = session.schema().clone();
    let registry = session.executor_mut().registry_mut();
    for name in ENCAPSULATED {
        let Some(id) = schema.entity_id(name) else {
            continue;
        };
        let Some(inner) = registry.lookup(&schema, id).cloned() else {
            continue;
        };
        registry.register(
            id,
            Arc::new(Timed {
                inner,
                tool: name.to_owned(),
                log: log.clone(),
            }),
        );
    }
}

/// Wall time covered by the union of the calls' intervals, in ms.
fn union_ms(calls: &[ToolCall]) -> f64 {
    let mut spans: Vec<(Instant, Instant)> = calls.iter().map(|c| (c.start, c.end)).collect();
    spans.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (s, e) in spans {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += (ce - cs).as_secs_f64();
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += (ce - cs).as_secs_f64();
    }
    total * 1e3
}

fn hist_sum_ms(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta
        .histograms
        .get(name)
        .map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn hist_sum(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

fn hist_count(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.histograms.get(name).map_or(0.0, |h| h.count as f64)
}

fn counter(delta: &MetricsSnapshot, name: &str) -> f64 {
    delta.counters.get(name).copied().unwrap_or(0) as f64
}

/// Per-layer metrics of one traced session, by metric name.
pub type LayerStats = BTreeMap<String, f64>;

/// Tracing state of one traced session.
#[derive(Debug, Default)]
pub struct Tracer {
    /// The decorators' shared log.
    pub log: ToolLog,
    stats: LayerStats,
    before: MetricsSnapshot,
    parallelism: Vec<f64>,
}

impl Tracer {
    fn add(&mut self, name: &str, value: f64) {
        *self.stats.entry(name.to_owned()).or_insert(0.0) += value;
    }

    /// Called just before a command executes.
    pub fn before(&mut self, session: &Session, verb: &str) {
        self.log.take();
        self.before = if verb == "open" {
            // `open` replaces the session and its metrics registry.
            MetricsSnapshot::default()
        } else {
            session.metrics().snapshot()
        };
        if matches!(verb, "run" | "retrace" | "resume") {
            session.clear_trace();
        }
    }

    /// Called just after a command returned; `ms` is its wall time and
    /// `out` its transcript (empty on error).
    pub fn after(&mut self, session: &mut Session, verb: &str, ms: f64, out: &str) {
        let delta = session.metrics().snapshot().delta(&self.before);
        let calls = self.log.take();
        let layer = layer_of(verb);
        let fsync_ms = hist_sum_ms(&delta, "store.fsync_ns");
        let mut own_ms = ms - fsync_ms;
        self.add("store.self_ms", fsync_ms);
        self.add("store.fsync_ms", fsync_ms);
        self.add("store.appends", hist_count(&delta, "store.append_bytes"));
        self.add("store.append_bytes", hist_sum(&delta, "store.append_bytes"));
        self.add(
            "store.checkpoint_bytes",
            hist_sum(&delta, "store.checkpoint_bytes"),
        );
        self.add("telemetry.records", counter(&delta, "telemetry.records"));
        self.add("telemetry.bytes", counter(&delta, "telemetry.bytes"));
        self.add(
            "telemetry.dropped_records",
            counter(&delta, "telemetry.dropped_records"),
        );
        let mem_hits = counter(&delta, "cache.mem.hits");
        let disk_hits = counter(&delta, "cache.disk.hits");
        let mem_misses = counter(&delta, "cache.mem.misses");
        self.add("cache.mem_hits", mem_hits);
        self.add("cache.disk_hits", disk_hits);
        self.add("cache.lookups", mem_hits + mem_misses);
        self.add("cache.misses", (mem_misses - disk_hits).max(0.0));
        self.add("cache.inserts", counter(&delta, "cache.inserts"));
        let disk_lookup_ms = hist_sum_ms(&delta, "cache.disk.lookup_ns");
        let writeback_ms = hist_sum_ms(&delta, "cache.writeback_ns");
        self.add("cache.disk_lookup_ms", disk_lookup_ms);
        self.add("cache.writeback_ms", writeback_ms);
        self.add(
            "analyze.instances_analyzed",
            hist_sum(&delta, "analyze.cone_instances"),
        );

        if layer == Layer::Exec {
            let tool_ms = union_ms(&calls).min(own_ms.max(0.0));
            let cache_ms =
                (hist_sum_ms(&delta, "cache.mem.lookup_ns") + disk_lookup_ms + writeback_ms)
                    .min((own_ms - tool_ms).max(0.0));
            own_ms -= tool_ms + cache_ms;
            self.add("tool.self_ms", tool_ms);
            self.add("cache.self_ms", cache_ms);
            self.add("exec.cmd_ms", ms);
            self.add("exec.invocations", counter(&delta, "exec.runs"));
            self.add("exec.cache_hits", counter(&delta, "exec.cache_hits"));
            self.add("exec.tasks", hist_count(&delta, "exec.task_wall_ns"));
            self.add(
                "exec.queue_wait_ms",
                hist_sum_ms(&delta, "exec.queue_wait_ns"),
            );
            self.add(
                "exec.worker_idle_ms",
                hist_sum_ms(&delta, "exec.worker_idle_ns"),
            );
            let prof = profile::profile(&session.trace_events());
            self.add("exec.critical_path_ms", prof.critical_path_ns as f64 / 1e6);
            if prof.achieved_parallelism > 0.0 {
                self.parallelism.push(prof.achieved_parallelism);
            }
            if verb == "retrace" {
                self.add("history.retrace_reruns", counter(&delta, "exec.runs"));
            }
        }
        for call in &calls {
            let ms = (call.end - call.start).as_secs_f64() * 1e3;
            self.add("tool.busy_ms", ms);
            self.add("tool.invocations", 1.0);
            self.add("tool.failures", if call.ok { 0.0 } else { 1.0 });
            let per_tool = match call.tool.as_str() {
                "CircuitEditor" => "tool.editor_ms",
                "Placer" => "tool.placer_ms",
                "Extractor" => "tool.extractor_ms",
                "Verifier" => "tool.verifier_ms",
                _ => "tool.other_ms",
            };
            self.add(per_tool, ms);
        }

        self.add(&format!("{}.self_ms", layer.name()), own_ms);
        self.add("ui.commands", 1.0);
        match verb {
            "lint" => {
                self.add("analyze.lints", 1.0);
                self.add("analyze.lint_ms", ms);
                if let Some((analyzed, total)) = analyzed_counts(out) {
                    if out.contains("(incremental)") {
                        self.add("analyze.incremental_analyzed", analyzed);
                        self.add("analyze.incremental_total", total);
                    }
                }
            }
            "stale" => self.add("history.stale_ms", ms),
            "uses" => self.add("history.uses_ms", ms),
            "checkpoint" => self.add("store.checkpoint_ms", ms),
            "open" => {
                self.add("store.open_ms", ms);
                self.add("store.replayed_ops", replayed_ops(out).unwrap_or(0.0));
            }
            _ => {}
        }
        if layer == Layer::Flow {
            self.add("flow.cmds", 1.0);
            self.add("flow.cmd_ms", ms);
        }
    }

    /// Records a probe or end-of-session value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.stats.insert(name.to_owned(), value);
    }

    /// Closes the session: fills the derived ratios and the
    /// unattributed remainder of `session_ms`.
    pub fn finish(mut self, session_ms: f64) -> LayerStats {
        let attributed: f64 = Layer::ALL
            .iter()
            .map(|l| {
                self.stats
                    .get(&format!("{}.self_ms", l.name()))
                    .copied()
                    .unwrap_or(0.0)
            })
            .sum();
        self.set("ui.session_ms", session_ms);
        self.set("ui.unattributed_ms", session_ms - attributed);
        let get = |s: &LayerStats, k: &str| s.get(k).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let cone = ratio(
            get(&self.stats, "analyze.incremental_analyzed"),
            get(&self.stats, "analyze.incremental_total"),
        );
        self.set("analyze.cone_ratio", cone);
        let hits = get(&self.stats, "cache.mem_hits") + get(&self.stats, "cache.disk_hits");
        let hit_ratio = ratio(hits, get(&self.stats, "cache.lookups"));
        self.set("cache.hit_ratio", hit_ratio);
        let parallelism = if self.parallelism.is_empty() {
            0.0
        } else {
            self.parallelism.iter().sum::<f64>() / self.parallelism.len() as f64
        };
        self.set("exec.parallelism", parallelism);
        for key in [
            "analyze.incremental_analyzed",
            "analyze.incremental_total",
            "cache.lookups",
        ] {
            self.stats.remove(key);
        }
        self.stats
    }
}

/// Parses the `analyzed N/M instance(s)` line of a `lint` transcript.
pub fn analyzed_counts(out: &str) -> Option<(f64, f64)> {
    let rest = &out[out.rfind("analyzed ")? + "analyzed ".len()..];
    let (n, rest) = rest.split_once('/')?;
    let m = rest.split_whitespace().next()?;
    Some((n.parse().ok()?, m.parse().ok()?))
}

/// Parses the replayed-operation count of an `open` transcript.
fn replayed_ops(out: &str) -> Option<f64> {
    let end = out.find(" journaled operation(s) replayed")?;
    let start = out[..end].rfind(' ')? + 1;
    out[start..end].parse().ok()
}

/// The per-layer metric names the traced run prints, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ui.commands", "count"),
    ("ui.session_ms", "ms"),
    ("ui.unattributed_ms", "ms"),
    ("ui.trace_overhead_ms", "ms"),
    ("flow.cmds", "count"),
    ("flow.cmd_ms", "ms"),
    ("flow.self_ms", "ms"),
    ("analyze.lints", "count"),
    ("analyze.lint_ms", "ms"),
    ("analyze.self_ms", "ms"),
    ("analyze.instances_analyzed", "count"),
    ("analyze.cone_ratio", "ratio"),
    ("analyze.full_lint_probe_ms", "ms"),
    ("exec.cmd_ms", "ms"),
    ("exec.self_ms", "ms"),
    ("exec.tasks", "count"),
    ("exec.invocations", "count"),
    ("exec.cache_hits", "count"),
    ("exec.queue_wait_ms", "ms"),
    ("exec.worker_idle_ms", "ms"),
    ("exec.critical_path_ms", "ms"),
    ("exec.parallelism", "ratio"),
    ("tool.self_ms", "ms"),
    ("tool.busy_ms", "ms"),
    ("tool.invocations", "count"),
    ("tool.failures", "count"),
    ("tool.editor_ms", "ms"),
    ("tool.placer_ms", "ms"),
    ("tool.extractor_ms", "ms"),
    ("tool.verifier_ms", "ms"),
    ("tool.other_ms", "ms"),
    ("history.self_ms", "ms"),
    ("history.records", "count"),
    ("history.payload_bytes", "bytes"),
    ("history.stale_ms", "ms"),
    ("history.uses_ms", "ms"),
    ("history.stale_probe_ms", "ms"),
    ("history.forward_chain_probe_ms", "ms"),
    ("history.retrace_reruns", "count"),
    ("store.self_ms", "ms"),
    ("store.appends", "count"),
    ("store.append_bytes", "bytes"),
    ("store.fsync_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.journal_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.replayed_ops", "count"),
    ("store.open_probe_ms", "ms"),
    ("persist.encode_ms", "ms"),
    ("persist.decode_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.spec_bytes", "bytes"),
    ("cache.self_ms", "ms"),
    ("cache.mem_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.disk_lookup_ms", "ms"),
    ("cache.inserts", "count"),
    ("cache.writeback_ms", "ms"),
    ("telemetry.self_ms", "ms"),
    ("telemetry.records", "count"),
    ("telemetry.bytes", "bytes"),
    ("telemetry.dropped_records", "count"),
];
