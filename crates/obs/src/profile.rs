//! Post-run profiling: span-tree reconstruction, task-DAG critical
//! path, and text renderings (report / Gantt / tree).
//!
//! The profiler consumes only [`TraceEvent`]s — it never sees the flow
//! graph. Task spans carry their dependency structure in two string
//! attributes: `outputs` and `inputs`, each a space-separated list of
//! data-node names. Task A precedes task B iff an output of A is an
//! input of B. This keeps the crate dependency-free while letting the
//! executor (which knows the graph) encode the exact DAG it ran.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::span::{Attr, AttrValue, EventKind, SpanId, TraceEvent};

/// A reconstructed span: one Begin matched with its End.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id.
    pub id: SpanId,
    /// Parent span id ([`SpanId::NONE`] for roots).
    pub parent: SpanId,
    /// Span name.
    pub name: Cow<'static, str>,
    /// Start, monotonic ns.
    pub start_ns: u64,
    /// End, monotonic ns. Unclosed spans are truncated at the trace's
    /// last timestamp.
    pub end_ns: u64,
    /// Thread lane.
    pub tid: u64,
    /// Begin and End attributes, merged (End wins on key collision
    /// order — both are kept, lookups find the first).
    pub attrs: Vec<Attr>,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// First attribute value for `key`.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// First string attribute for `key`.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// Pairs Begin/End events into [`Span`]s, ordered by start time (ties
/// broken by span id, so the order is deterministic). Instant events
/// are skipped; unclosed spans are truncated at the last timestamp.
pub fn build_spans(events: &[TraceEvent]) -> Vec<Span> {
    let last_ns = events.iter().map(|e| e.mono_ns).max().unwrap_or(0);
    let mut ends: HashMap<SpanId, &TraceEvent> = HashMap::new();
    for ev in events {
        if ev.kind == EventKind::End {
            ends.insert(ev.id, ev);
        }
    }
    let mut spans: Vec<Span> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|b| {
            let end = ends.get(&b.id);
            let mut attrs = b.attrs.clone();
            if let Some(e) = end {
                attrs.extend(e.attrs.iter().cloned());
            }
            Span {
                id: b.id,
                parent: b.parent,
                name: b.name.clone(),
                start_ns: b.mono_ns,
                end_ns: end.map(|e| e.mono_ns).unwrap_or(last_ns),
                tid: b.tid,
                attrs,
            }
        })
        .collect();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// One task in the profiled DAG.
#[derive(Debug, Clone)]
pub struct TaskProfile {
    /// Display label (the span's `task` attribute, falling back to the
    /// span name).
    pub label: String,
    /// Wall duration of the task span.
    pub total_ns: u64,
    /// Duration not covered by child spans inside the task span.
    pub self_ns: u64,
    /// Start offset, monotonic ns.
    pub start_ns: u64,
    /// Thread lane the task ran on. Under the dataflow scheduler this
    /// is the persistent worker that dispatched the task, so one Gantt
    /// row per lane is one worker's timeline.
    pub tid: u64,
    /// Labels of tasks this task depends on (deterministic order).
    pub deps: Vec<String>,
    /// Whether the task was served from the invocation cache.
    pub cache_hit: bool,
    /// How long the task sat ready in the scheduler queue before a
    /// worker picked it up (the span's `queue_wait_ns` attribute; 0
    /// when the trace predates the attribute).
    pub queue_wait_ns: u64,
}

/// Critical-path profile of one execution trace.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Wall-clock duration of the execution (root span if present, else
    /// the task envelope).
    pub wall_ns: u64,
    /// Sum of task durations ("area under the Gantt bars").
    pub busy_ns: u64,
    /// Length of the longest dependency chain, weighted by measured
    /// task durations.
    pub critical_path_ns: u64,
    /// Task labels along the critical path, in execution order.
    pub critical_path: Vec<String>,
    /// Achieved parallelism: `busy_ns / wall_ns`.
    pub achieved_parallelism: f64,
    /// DAG-theoretic maximum parallelism with these durations:
    /// `busy_ns / critical_path_ns`.
    pub max_parallelism: f64,
    /// Per-task rows, ordered by start time.
    pub tasks: Vec<TaskProfile>,
}

/// Builds a [`ProfileReport`] from a raw event stream.
///
/// Tasks are spans named `task`; dependencies come from their
/// `outputs`/`inputs` attributes (see module docs). When no root
/// `execute` span exists (e.g. a synthesized trace), wall time is the
/// envelope of the task spans.
pub fn profile(events: &[TraceEvent]) -> ProfileReport {
    let spans = build_spans(events);
    profile_spans(&spans)
}

/// Like [`profile`], over already-reconstructed spans.
pub fn profile_spans(spans: &[Span]) -> ProfileReport {
    // Self time: subtract each span's children from its duration.
    let mut child_ns: HashMap<SpanId, u64> = HashMap::new();
    for s in spans {
        if !s.parent.is_none() {
            *child_ns.entry(s.parent).or_insert(0) += s.duration_ns();
        }
    }

    let tasks: Vec<&Span> = spans.iter().filter(|s| s.name == "task").collect();

    // Map each produced node to the producing task's label.
    let label_of = |s: &Span| -> String {
        s.attr_str("task")
            .map(str::to_owned)
            .unwrap_or_else(|| format!("{}@{}", s.name, s.id))
    };
    let mut producer: HashMap<&str, String> = HashMap::new();
    for t in &tasks {
        if let Some(outputs) = t.attr_str("outputs") {
            for node in outputs.split_whitespace() {
                producer.insert(node, label_of(t));
            }
        }
    }

    let mut profiles: Vec<TaskProfile> = Vec::with_capacity(tasks.len());
    for t in &tasks {
        let label = label_of(t);
        let mut deps: Vec<String> = t
            .attr_str("inputs")
            .map(|inputs| {
                inputs
                    .split_whitespace()
                    .filter_map(|node| producer.get(node).cloned())
                    .filter(|d| *d != label)
                    .collect()
            })
            .unwrap_or_default();
        deps.sort();
        deps.dedup();
        let cache_hit = matches!(t.attr("cache_hit"), Some(AttrValue::Bool(true)));
        let queue_wait_ns = match t.attr("queue_wait_ns") {
            Some(AttrValue::UInt(n)) => *n,
            _ => 0,
        };
        profiles.push(TaskProfile {
            label,
            total_ns: t.duration_ns(),
            self_ns: t
                .duration_ns()
                .saturating_sub(child_ns.get(&t.id).copied().unwrap_or(0)),
            start_ns: t.start_ns,
            tid: t.tid,
            deps,
            cache_hit,
            queue_wait_ns,
        });
    }

    let busy_ns: u64 = profiles.iter().map(|t| t.total_ns).sum();
    let wall_ns = spans
        .iter()
        .find(|s| s.name == "execute")
        .map(|s| s.duration_ns())
        .unwrap_or_else(|| {
            let start = tasks.iter().map(|t| t.start_ns).min().unwrap_or(0);
            let end = tasks.iter().map(|t| t.end_ns).max().unwrap_or(0);
            end.saturating_sub(start)
        });

    let (critical_path_ns, critical_path) = critical_path(&profiles);

    ProfileReport {
        wall_ns,
        busy_ns,
        critical_path_ns,
        critical_path,
        achieved_parallelism: ratio(busy_ns, wall_ns),
        max_parallelism: ratio(busy_ns, critical_path_ns),
        tasks: profiles,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Longest dependency chain over `tasks`, weighted by `total_ns`.
/// Returns `(length_ns, labels along the chain)`. Ties are broken by
/// preferring the lexicographically smaller chain, so the result is
/// stable across runs. Duplicate labels (re-executions) accumulate into
/// one node with summed weight.
pub fn critical_path(tasks: &[TaskProfile]) -> (u64, Vec<String>) {
    // Collapse to label-keyed nodes; deterministic iteration via BTreeMap.
    let mut weight: BTreeMap<&str, u64> = BTreeMap::new();
    let mut deps: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for t in tasks {
        *weight.entry(&t.label).or_insert(0) += t.total_ns;
        let entry = deps.entry(&t.label).or_default();
        for d in &t.deps {
            if !entry.contains(&d.as_str()) {
                entry.push(d);
            }
        }
    }
    for ds in deps.values_mut() {
        ds.sort();
    }

    // Longest path via memoized DFS; cycle guard (a malformed trace
    // must not hang the profiler) treats back-edges as absent.
    struct Ctx<'a> {
        weight: &'a BTreeMap<&'a str, u64>,
        deps: &'a BTreeMap<&'a str, Vec<&'a str>>,
        best: HashMap<&'a str, (u64, Vec<&'a str>)>,
        visiting: HashSet<&'a str>,
    }
    fn solve<'a>(ctx: &mut Ctx<'a>, label: &'a str) -> (u64, Vec<&'a str>) {
        if let Some(hit) = ctx.best.get(label) {
            return hit.clone();
        }
        if !ctx.visiting.insert(label) {
            return (0, Vec::new());
        }
        let mut best_len = 0u64;
        let mut best_chain: Vec<&str> = Vec::new();
        if let Some(ds) = ctx.deps.get(label) {
            for d in ds.clone() {
                if !ctx.weight.contains_key(d) {
                    continue;
                }
                let (len, chain) = solve(ctx, d);
                if len > best_len || (len == best_len && chain < best_chain) {
                    best_len = len;
                    best_chain = chain;
                }
            }
        }
        ctx.visiting.remove(label);
        let w = ctx.weight.get(label).copied().unwrap_or(0);
        let mut chain = best_chain;
        chain.push(label);
        let result = (best_len + w, chain);
        ctx.best.insert(label, result.clone());
        result
    }

    let labels: Vec<&str> = weight.keys().copied().collect();
    let mut ctx = Ctx {
        weight: &weight,
        deps: &deps,
        best: HashMap::new(),
        visiting: HashSet::new(),
    };
    let mut best: (u64, Vec<&str>) = (0, Vec::new());
    for label in labels {
        let (len, chain) = solve(&mut ctx, label);
        if len > best.0 || (len == best.0 && (best.1.is_empty() || chain < best.1)) {
            best = (len, chain);
        }
    }
    (best.0, best.1.into_iter().map(str::to_owned).collect())
}

/// Per-task *downstream* critical-path length: each task's weight plus
/// the heaviest dependency chain hanging below it (through the tasks
/// that depend on it, transitively). A task with the largest value is
/// the one whose delay pushes the makespan out the furthest, so these
/// lengths are the natural static dispatch priorities for a dataflow
/// scheduler: the executor feeds estimated costs in as `total_ns` and
/// dispatches ready tasks in descending order of the result.
///
/// Duplicate labels accumulate weight exactly as in [`critical_path`];
/// cycles (malformed inputs) are tolerated by treating back-edges as
/// absent.
pub fn downstream_critical(tasks: &[TaskProfile]) -> BTreeMap<String, u64> {
    // Collapse to label-keyed nodes and reverse the edges: consumers
    // of a label are the tasks listing it in `deps`.
    let mut weight: BTreeMap<&str, u64> = BTreeMap::new();
    let mut consumers: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for t in tasks {
        *weight.entry(&t.label).or_insert(0) += t.total_ns;
        consumers.entry(&t.label).or_default();
    }
    for t in tasks {
        for d in &t.deps {
            if !weight.contains_key(d.as_str()) {
                continue;
            }
            let entry = consumers.entry(d).or_default();
            if !entry.contains(&t.label.as_str()) {
                entry.push(&t.label);
            }
        }
    }

    struct Ctx<'a> {
        weight: &'a BTreeMap<&'a str, u64>,
        consumers: &'a BTreeMap<&'a str, Vec<&'a str>>,
        best: HashMap<&'a str, u64>,
        visiting: HashSet<&'a str>,
    }
    fn solve<'a>(ctx: &mut Ctx<'a>, label: &'a str) -> u64 {
        if let Some(&hit) = ctx.best.get(label) {
            return hit;
        }
        if !ctx.visiting.insert(label) {
            return 0;
        }
        let mut tail = 0u64;
        if let Some(cs) = ctx.consumers.get(label) {
            for c in cs.clone() {
                tail = tail.max(solve(ctx, c));
            }
        }
        ctx.visiting.remove(label);
        let result = ctx.weight.get(label).copied().unwrap_or(0) + tail;
        ctx.best.insert(label, result);
        result
    }

    let labels: Vec<&str> = weight.keys().copied().collect();
    let mut ctx = Ctx {
        weight: &weight,
        consumers: &consumers,
        best: HashMap::new(),
        visiting: HashSet::new(),
    };
    labels
        .into_iter()
        .map(|l| {
            let v = solve(&mut ctx, l);
            (l.to_owned(), v)
        })
        .collect()
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl ProfileReport {
    /// Multi-line text report: the REPL `profile` command.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "wall {}  busy {}  critical path {}\n",
            fmt_ns(self.wall_ns),
            fmt_ns(self.busy_ns),
            fmt_ns(self.critical_path_ns)
        ));
        out.push_str(&format!(
            "parallelism: achieved {:.2}x, max (DAG limit) {:.2}x\n",
            self.achieved_parallelism, self.max_parallelism
        ));
        if !self.critical_path.is_empty() {
            out.push_str("critical path: ");
            out.push_str(&self.critical_path.join(" -> "));
            out.push('\n');
        }
        if !self.tasks.is_empty() {
            let on_path: HashSet<&str> = self.critical_path.iter().map(String::as_str).collect();
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>10} {:>10}  {}\n",
                "task", "worker", "total", "self", "wait", "flags"
            ));
            for t in &self.tasks {
                let mut flags = String::new();
                if on_path.contains(t.label.as_str()) {
                    flags.push('*');
                }
                if t.cache_hit {
                    flags.push('c');
                }
                out.push_str(&format!(
                    "{:<28} {:>8} {:>10} {:>10} {:>10}  {}\n",
                    t.label,
                    t.tid,
                    fmt_ns(t.total_ns),
                    fmt_ns(t.self_ns),
                    fmt_ns(t.queue_wait_ns),
                    flags
                ));
            }
            out.push_str("(* = on critical path, c = cache hit)\n");
        }
        out
    }

    /// Text Gantt chart: one row per task, bars positioned on a shared
    /// timeline, `width` columns wide. The lane column is the scheduler
    /// dispatch lane (worker id); a task's queue wait — the time it sat
    /// ready before its worker picked it up — renders as `·` in front
    /// of the run bar, so wait vs run time is visible per worker.
    pub fn render_gantt(&self, width: usize) -> String {
        let width = width.clamp(20, 400);
        let mut out = String::new();
        if self.tasks.is_empty() {
            out.push_str("no tasks traced\n");
            return out;
        }
        let t0 = self
            .tasks
            .iter()
            .map(|t| t.start_ns.saturating_sub(t.queue_wait_ns))
            .min()
            .unwrap_or(0);
        let t1 = self
            .tasks
            .iter()
            .map(|t| t.start_ns + t.total_ns)
            .max()
            .unwrap_or(t0 + 1);
        let span = (t1 - t0).max(1);
        let col = |ns: u64| -> usize {
            ((ns.saturating_sub(t0)) as u128 * width as u128 / span as u128) as usize
        };
        let mut any_wait = false;
        for t in &self.tasks {
            let enqueued = col(t.start_ns.saturating_sub(t.queue_wait_ns)).min(width - 1);
            let start = col(t.start_ns).clamp(enqueued, width - 1);
            let end = col(t.start_ns + t.total_ns).clamp(start + 1, width);
            let mut bar = String::with_capacity(width);
            for _ in 0..enqueued {
                bar.push(' ');
            }
            for _ in enqueued..start {
                bar.push('·');
                any_wait = true;
            }
            let fill = if t.cache_hit { '░' } else { '█' };
            for _ in start..end {
                bar.push(fill);
            }
            out.push_str(&format!(
                "{:<24} worker{:<2} |{:<w$}| {}\n",
                truncate(&t.label, 24),
                t.tid,
                bar,
                fmt_ns(t.total_ns),
                w = width
            ));
        }
        out.push_str(&format!(
            "timeline: {} .. {} ({})\n",
            fmt_ns(0),
            fmt_ns(span),
            fmt_ns(span)
        ));
        if any_wait {
            out.push_str("(· = ready in queue, █ = running, ░ = cache hit)\n");
        }
        out
    }
}

/// Indented text rendering of a span tree (the REPL `trace` command and
/// `herctrace --format tree`).
pub fn render_tree(spans: &[Span]) -> String {
    let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
    let ids: HashSet<SpanId> = spans.iter().map(|s| s.id).collect();
    let mut roots: Vec<&Span> = Vec::new();
    for s in spans {
        if s.parent.is_none() || !ids.contains(&s.parent) {
            roots.push(s);
        } else {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out = String::new();
    fn walk(out: &mut String, span: &Span, depth: usize, children: &HashMap<SpanId, Vec<&Span>>) {
        let label = span
            .attr_str("task")
            .map(|t| format!("{} [{}]", span.name, t))
            .unwrap_or_else(|| span.name.to_string());
        out.push_str(&format!(
            "{:indent$}{} {} (+{})\n",
            "",
            label,
            fmt_ns(span.duration_ns()),
            fmt_ns(span.start_ns),
            indent = depth * 2
        ));
        if let Some(kids) = children.get(&span.id) {
            for k in kids {
                walk(out, k, depth + 1, children);
            }
        }
    }
    for r in roots {
        walk(&mut out, r, 0, &children);
    }
    if out.is_empty() {
        out.push_str("no spans recorded\n");
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_owned()
    } else {
        let mut t: String = s.chars().take(n.saturating_sub(1)).collect();
        t.push('…');
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a task profile row with explicit deps and duration.
    fn task(label: &str, total_ns: u64, deps: &[&str]) -> TaskProfile {
        TaskProfile {
            label: label.into(),
            total_ns,
            self_ns: total_ns,
            start_ns: 0,
            tid: 0,
            deps: deps.iter().map(|s| s.to_string()).collect(),
            cache_hit: false,
            queue_wait_ns: 0,
        }
    }

    #[test]
    fn critical_path_single_chain() {
        // a -> b -> c, the degenerate serial case: path is everything.
        let tasks = vec![
            task("a", 10, &[]),
            task("b", 20, &["a"]),
            task("c", 5, &["b"]),
        ];
        let (len, chain) = critical_path(&tasks);
        assert_eq!(len, 35);
        assert_eq!(chain, ["a", "b", "c"]);
    }

    #[test]
    fn critical_path_diamond_picks_heavier_arm() {
        //    / b(30) \
        // a(5)        d(5)
        //    \ c(10) /
        let tasks = vec![
            task("a", 5, &[]),
            task("b", 30, &["a"]),
            task("c", 10, &["a"]),
            task("d", 5, &["b", "c"]),
        ];
        let (len, chain) = critical_path(&tasks);
        assert_eq!(len, 40);
        assert_eq!(chain, ["a", "b", "d"]);
    }

    #[test]
    fn critical_path_tie_breaks_deterministically() {
        // Both arms weigh 30: the lexicographically smaller chain wins.
        let tasks = vec![
            task("a", 5, &[]),
            task("b", 30, &["a"]),
            task("c", 30, &["a"]),
            task("d", 5, &["b", "c"]),
        ];
        let (len, chain) = critical_path(&tasks);
        assert_eq!(len, 40);
        assert_eq!(chain, ["a", "b", "d"], "ties prefer the smaller label");
    }

    #[test]
    fn critical_path_ignores_unknown_deps_and_survives_cycles() {
        let tasks = vec![
            task("a", 10, &["ghost"]),
            // Malformed: b and c depend on each other.
            task("b", 5, &["c"]),
            task("c", 5, &["b"]),
        ];
        let (len, chain) = critical_path(&tasks);
        assert_eq!(len, 10);
        assert_eq!(chain, ["a"]);
    }

    #[test]
    fn critical_path_empty() {
        let (len, chain) = critical_path(&[]);
        assert_eq!(len, 0);
        assert!(chain.is_empty());
    }

    #[test]
    fn downstream_critical_ranks_the_long_pole_first() {
        //    / b(30) - d(5)
        // a(5)
        //    \ c(10)
        let tasks = vec![
            task("a", 5, &[]),
            task("b", 30, &["a"]),
            task("c", 10, &["a"]),
            task("d", 5, &["b"]),
        ];
        let down = downstream_critical(&tasks);
        assert_eq!(down["a"], 40, "a + heaviest chain below (b, d)");
        assert_eq!(down["b"], 35);
        assert_eq!(down["c"], 10);
        assert_eq!(down["d"], 5);
        // Dispatch priority: the straggler arm outranks the light one.
        assert!(down["b"] > down["c"]);
    }

    #[test]
    fn downstream_critical_tolerates_cycles_and_ghost_deps() {
        let tasks = vec![
            task("a", 10, &["ghost"]),
            task("b", 5, &["c"]),
            task("c", 5, &["b"]),
        ];
        let down = downstream_critical(&tasks);
        assert_eq!(down["a"], 10);
        assert!(down["b"] >= 5 && down["c"] >= 5, "cycle guard terminates");
    }

    fn ev(kind: EventKind, id: u64, parent: u64, name: &'static str, t: u64) -> TraceEvent {
        TraceEvent {
            kind,
            id: SpanId(id),
            parent: SpanId(parent),
            name: name.into(),
            mono_ns: t,
            wall_unix_ms: 0,
            tid: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn profile_derives_dag_from_span_attrs() {
        // execute [0,100]; t1 produces n1 [0,40]; t2 consumes n1 [40,90].
        let mut e1 = ev(EventKind::Begin, 2, 1, "task", 0);
        e1.attrs = vec![
            ("task".into(), AttrValue::Str("t1".into())),
            ("outputs".into(), AttrValue::Str("n1".into())),
            ("inputs".into(), AttrValue::Str("n0".into())),
        ];
        let mut e2 = ev(EventKind::Begin, 3, 1, "task", 40);
        e2.attrs = vec![
            ("task".into(), AttrValue::Str("t2".into())),
            ("outputs".into(), AttrValue::Str("n2".into())),
            ("inputs".into(), AttrValue::Str("n1".into())),
        ];
        let events = vec![
            ev(EventKind::Begin, 1, 0, "execute", 0),
            e1,
            ev(EventKind::End, 2, 0, "", 40),
            e2,
            ev(EventKind::End, 3, 0, "", 90),
            ev(EventKind::End, 1, 0, "", 100),
        ];
        let report = profile(&events);
        assert_eq!(report.wall_ns, 100);
        assert_eq!(report.busy_ns, 90);
        assert_eq!(report.critical_path_ns, 90);
        assert_eq!(report.critical_path, ["t1", "t2"]);
        assert_eq!(report.tasks.len(), 2);
        assert_eq!(report.tasks[1].deps, ["t1"]);
        assert!((report.achieved_parallelism - 0.9).abs() < 1e-9);
        let text = report.render_text();
        assert!(text.contains("critical path: t1 -> t2"));
        let gantt = report.render_gantt(40);
        assert!(gantt.contains("t1"));
        assert!(gantt.contains("worker"));
    }

    #[test]
    fn self_time_subtracts_children() {
        let events = vec![
            ev(EventKind::Begin, 1, 0, "execute", 0),
            ev(EventKind::Begin, 2, 1, "task", 10),
            ev(EventKind::Begin, 3, 2, "attempt", 20),
            ev(EventKind::End, 3, 0, "", 50),
            ev(EventKind::End, 2, 0, "", 60),
            ev(EventKind::End, 1, 0, "", 70),
        ];
        let report = profile(&events);
        assert_eq!(report.tasks.len(), 1);
        assert_eq!(report.tasks[0].total_ns, 50);
        assert_eq!(report.tasks[0].self_ns, 20, "50 total - 30 in attempt");
        let spans = build_spans(&events);
        let tree = render_tree(&spans);
        assert!(tree.contains("execute"));
        assert!(tree.contains("  task"));
        assert!(tree.contains("    attempt"));
    }
}
