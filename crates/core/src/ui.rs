//! The Hercules user interface (Fig. 9), as a deterministic text UI.
//!
//! "A visualization of a task graph forms the basis of the Hercules
//! user interface" — and crucially "Hercules uses the *same* user
//! interface for each approach". [`render_task_window`] draws the task
//! window; [`Ui::execute`] runs one command line through `VERBS`, the
//! table that gives every verb the examples and tests drive (menu
//! entries: Expand, Unexpand, Browse, History, Select, Run…) its
//! journal class and its handler.

use std::fmt::Write as _;
use std::path::Path;
use std::str::SplitWhitespace;

use hercules_analyze::{Diagnostics, HistoryLinter};
use hercules_exec::{report_to_trace, Binding, ExecReport};
use hercules_flow::{render, NodeId};
use hercules_history::{InstanceId, InstanceSpec, RetraceCone};
use hercules_obs::{
    names, profile, AnalysisHealth, FlightRecorder, HealthReport, HealthThresholds, MetricsSnapshot,
};

use hercules_sim::Env;

use crate::catalog;
use crate::error::HerculesError;
use crate::persist::ExecReportSpec;
use crate::session::Session;
use crate::store::{CheckpointKind, ExecSpec, JournalOp, RecoveryReport, Workspace};
use crate::telemetry::{self, SessionStamp, TelemetryWriter};

/// How a verb reaches the journal, and so whether a workspace that
/// cannot write refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Journal {
    /// Read-only and workspace verbs: never journaled, and allowed on a
    /// degraded workspace.
    None,
    /// Session mutations: refused on a degraded workspace; on success
    /// the op the handler returns is journaled.
    Op,
    /// Executions: refused on a degraded workspace. The instances they
    /// committed and the event they logged are journaled even when they
    /// fail, because an aborted run may still have committed disjoint
    /// branches.
    Exec {
        /// Whether a successful execution's report is journaled too.
        report: bool,
    },
}

/// A verb's handler: parses the words after the verb, then performs it.
type Handler = fn(&mut Ui, Args<'_>) -> Result<Reply, HerculesError>;

/// Every verb, with its journal class and its handler.
const VERBS: &[(&str, Journal, Handler)] = &[
    ("goal", Journal::Op, Ui::goal),
    ("tool", Journal::Op, Ui::tool),
    ("data", Journal::Op, Ui::data),
    ("plan", Journal::Op, Ui::plan),
    ("expand", Journal::Op, Ui::expand),
    ("unexpand", Journal::Op, Ui::unexpand),
    ("specialize", Journal::Op, Ui::specialize),
    ("browse", Journal::None, Ui::browse),
    ("select", Journal::Op, Ui::select),
    ("bind-latest", Journal::Op, Ui::bind_latest),
    ("run", Journal::Exec { report: true }, Ui::run),
    ("resume", Journal::Exec { report: true }, Ui::resume),
    ("history", Journal::None, Ui::history),
    ("uses", Journal::None, Ui::uses),
    ("retrace", Journal::Exec { report: false }, Ui::retrace),
    ("menu", Journal::None, Ui::menu),
    ("store", Journal::Op, Ui::store),
    ("log", Journal::None, Ui::log),
    ("trace", Journal::None, Ui::trace),
    ("stats", Journal::None, Ui::stats),
    ("profile", Journal::None, Ui::profile),
    ("show", Journal::None, Ui::show),
    ("clear", Journal::Op, Ui::clear),
    ("catalogs", Journal::None, Ui::catalogs),
    ("save", Journal::None, Ui::save),
    ("open", Journal::None, Ui::open),
    ("checkpoint", Journal::Op, Ui::checkpoint),
    ("scrub", Journal::None, Ui::scrub),
    ("lint", Journal::None, Ui::lint),
    ("stale", Journal::None, Ui::stale),
    ("health", Journal::None, Ui::health),
    ("cache", Journal::None, Ui::cache),
];

/// What a handler returns: the transcript text and, from a
/// [`Journal::Op`] verb, the operation that journals its effect.
struct Reply {
    text: String,
    op: Option<JournalOp>,
}

impl From<String> for Reply {
    fn from(text: String) -> Reply {
        Reply { text, op: None }
    }
}

/// The words of a command line after its verb. Every parse error is a
/// [`HerculesError::BadCommand`] that quotes the whole line. A handler
/// parses its words, then calls [`Args::end`] before it acts, so a word
/// it did not parse refuses the line instead of being ignored.
struct Args<'a> {
    line: &'a str,
    words: SplitWhitespace<'a>,
}

impl<'a> Args<'a> {
    fn bad(&self, reason: &str) -> HerculesError {
        HerculesError::BadCommand {
            input: self.line.to_owned(),
            reason: reason.to_owned(),
        }
    }

    /// The next word; `missing` is the reason when there is none.
    fn word(&mut self, missing: &str) -> Result<&'a str, HerculesError> {
        self.words.next().ok_or_else(|| self.bad(missing))
    }

    /// The next word as a node (`n3`).
    fn node(&mut self) -> Result<NodeId, HerculesError> {
        let word = self.word("missing node (nN)")?;
        word.strip_prefix('n')
            .and_then(|s| s.parse().ok())
            .map(NodeId::from_index)
            .ok_or_else(|| self.bad("node must look like n3"))
    }

    /// The next word as an instance (`i7`).
    fn instance(&mut self) -> Result<InstanceId, HerculesError> {
        let word = self.word("missing instance")?;
        self.instance_in(word)
    }

    /// Every remaining word as an instance.
    fn instances(&mut self) -> Result<Vec<InstanceId>, HerculesError> {
        let words: Vec<&str> = self.words.by_ref().collect();
        words.into_iter().map(|w| self.instance_in(w)).collect()
    }

    fn instance_in(&self, word: &str) -> Result<InstanceId, HerculesError> {
        word.strip_prefix('i')
            .and_then(|s| s.parse().ok())
            .map(InstanceId::from_raw)
            .ok_or_else(|| self.bad("instance must look like i7"))
    }

    /// Whether the next word is `flag`; no word means `false`, and any
    /// other word is an unknown option of `verb`.
    fn flag(&mut self, verb: &str, flag: &str) -> Result<bool, HerculesError> {
        match self.words.next() {
            None => Ok(false),
            Some(word) if word == flag => Ok(true),
            Some(other) => Err(self.bad(&format!("unknown {verb} option `{other}`"))),
        }
    }

    /// Ends the parse: fails on a word no parser consumed.
    fn end(mut self) -> Result<(), HerculesError> {
        match self.words.next() {
            None => Ok(()),
            Some(word) => Err(self.bad(&format!("unexpected word `{word}`"))),
        }
    }
}

/// Renders the Fig. 9 task window: the flow tree, the binding status of
/// every leaf, and the menu line.
pub fn render_task_window(session: &Session) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "┌─ Hercules ── user {} ─", session.user());
    match session.flow() {
        Ok(flow) => {
            for line in render::to_text(flow).lines() {
                let _ = writeln!(out, "│ {line}");
            }
            let mut leaves = flow.leaves();
            leaves.sort();
            for leaf in leaves {
                let bound = session.binding().get(leaf);
                let entity = flow
                    .entity_of(leaf)
                    .map(|e| session.schema().entity(e).name().to_owned())
                    .unwrap_or_default();
                let status = if bound.is_empty() {
                    "(unbound)".to_owned()
                } else {
                    bound
                        .iter()
                        .map(|i| instance_label(session, *i))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                let _ = writeln!(out, "│ {leaf} {entity} ⇐ {status}");
            }
        }
        Err(_) => {
            let _ = writeln!(out, "│ (no task under construction — New Task…)");
        }
    }
    let _ = writeln!(
        out,
        "└─ menu: Expand · Unexpand · Specialize · Browse · Select · Run · History"
    );
    out
}

/// Formats a Unix-epoch millisecond stamp as `YYYY-MM-DD HH:MM:SSZ`
/// (civil-from-days conversion; proleptic Gregorian, UTC).
fn format_utc_ms(wall_unix_ms: u64) -> String {
    let secs = wall_unix_ms / 1_000;
    let (h, m, s) = (secs / 3600 % 24, secs / 60 % 60, secs % 60);
    let days = (secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02} {h:02}:{m:02}:{s:02}Z")
}

fn instance_label(session: &Session, id: InstanceId) -> String {
    session
        .db()
        .instance(id)
        .map(|i| {
            if i.meta().name.is_empty() {
                id.to_string()
            } else {
                format!("{id}\u{201c}{}\u{201d}", i.meta().name)
            }
        })
        .unwrap_or_else(|_| id.to_string())
}

/// The transcript of a `run` or `resume`; `done` is the verb's past
/// tense.
fn render_exec(done: &str, report: &ExecReport) -> String {
    let mut out = format!(
        "{done} {} subtask(s): {} invocation(s), {} cache hit(s)",
        report.tasks.len(),
        report.runs(),
        report.cache_hits()
    );
    if !report.is_complete() {
        let _ = write!(
            out,
            ", {} failed, {} skipped",
            report.failed(),
            report.skipped()
        );
    }
    out.push('\n');
    if let Some(error) = report.first_error() {
        let _ = writeln!(out, "  first failure: {error}");
    }
    out
}

/// A scriptable UI shell over a session, optionally backed by a
/// durable [`Workspace`]: after `save <dir>` (or `open <dir>`), every
/// mutating command is journaled — fsynced before its result is
/// reported — so an acknowledged command survives a crash.
#[derive(Debug)]
pub struct Ui {
    session: Session,
    workspace: Option<Workspace>,
    last_recovery: Option<RecoveryReport>,
    env: Env,
    /// Persistent analysis state: the fixpoint states and cached
    /// verdicts behind `lint --incremental` (the reverse-dependency
    /// index it walks belongs to the history database).
    linter: HistoryLinter,
    /// The always-on flight recorder, attached while a writable
    /// workspace is: every command encodes the session trace ring's new
    /// events into the workspace's `telemetry-N.jsonl` sidecar.
    telemetry: Option<Telemetry>,
}

/// The attached flight-recorder state (see [`crate::telemetry`]).
#[derive(Debug)]
struct Telemetry {
    recorder: FlightRecorder,
    writer: TelemetryWriter,
    /// Metrics as of the last periodic export; the next export writes
    /// the delta against this.
    last_snapshot: MetricsSnapshot,
    /// Wall-clock deadline for the next metrics-delta export.
    next_export_ms: u64,
    /// The recorder's dropped-event total as of the last pump (the
    /// pump translates the lifetime total into counter increments).
    last_dropped: u64,
}

/// How often (wall-clock) a metrics delta is exported into the
/// telemetry stream — and, with it, how often the stream is fsynced.
const TELEMETRY_EXPORT_INTERVAL_MS: u64 = 1_000;

impl Ui {
    /// Wraps a session (no workspace attached; use `save <dir>`).
    pub fn new(session: Session) -> Ui {
        Ui::new_in(session, Env::real())
    }

    /// Wraps a session whose `save`/`open` commands run against an
    /// explicit environment — the entry point the simulation harness
    /// uses to put the whole command loop on a simulated disk.
    pub fn new_in(session: Session, env: Env) -> Ui {
        Ui {
            session,
            workspace: None,
            last_recovery: None,
            env,
            linter: HistoryLinter::new(),
            telemetry: None,
        }
    }

    /// Returns the wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Returns mutable access to the session.
    ///
    /// Mutations made this way bypass the journal; take a `checkpoint`
    /// afterwards if a workspace is attached.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Returns the attached durable workspace, if any.
    pub fn workspace(&self) -> Option<&Workspace> {
        self.workspace.as_ref()
    }

    /// Executes one command line, journaling its effect when a
    /// workspace is attached, and returns the transcript text the user
    /// would see.
    ///
    /// # Errors
    ///
    /// Parse and execution errors, verbatim; a refusal when the
    /// command would change the session but the workspace can no
    /// longer write; journaling errors (an acknowledged command must be
    /// durable, so a failed fsync is reported even though the in-memory
    /// command succeeded).
    pub fn execute(&mut self, line: &str) -> Result<String, HerculesError> {
        let mut args = Args {
            line,
            words: line.split_whitespace(),
        };
        let verb = args.word("empty command")?;
        let Some(&(_, journal, handler)) = VERBS.iter().find(|(name, ..)| *name == verb) else {
            return Err(args.bad(&format!("unknown verb `{verb}`")));
        };
        // A mutation is refused before it lands in the session when its
        // frame could not be journaled — the workspace opened degraded,
        // or a newer writer fenced it out while it sat idle — so that
        // the session and the journal never diverge.
        if journal != Journal::None {
            if let Some(ws) = self.workspace.as_mut() {
                ws.check_writable()?;
            }
        }
        let db_before = self.session.db().len();
        let events_before = self.session.events().len();
        // A frame holds only its own command's effect: it brings the
        // journal level with the session only if the two matched before.
        let matched_journal = !self.session.has_unjournaled_changes();
        let (result, op) = match handler(self, args) {
            Ok(reply) => (Ok(reply.text), reply.op),
            Err(e) => (Err(e), None),
        };
        let op = match journal {
            _ if self.workspace.is_none() => None,
            Journal::Exec { report } => {
                self.exec_op(db_before, events_before, report && result.is_ok())
            }
            _ => op,
        };
        let appended = match (op, self.workspace.as_mut()) {
            (Some(op), Some(ws)) => {
                let appended = ws.append(&op).map_err(HerculesError::from);
                if appended.is_ok() && matched_journal {
                    self.session.mark_journaled();
                }
                appended
            }
            _ => Ok(()),
        };
        // Telemetry rides behind the journal: the command's spans land
        // in the sidecar only after the command itself is durable, and
        // a telemetry failure never un-acknowledges a command.
        self.pump_telemetry();
        appended?;
        result
    }

    /// Captures the extensional effect of an execution command: the
    /// instances committed since `db_before`, the event it logged, and
    /// (for `run`/`resume` that succeeded, `sets_report`) the report it
    /// installed.
    fn exec_op(
        &self,
        db_before: usize,
        events_before: usize,
        sets_report: bool,
    ) -> Option<JournalOp> {
        let db = self.session.db();
        let instances: Vec<InstanceSpec> = (db_before..db.len())
            .map(|i| InstanceSpec::capture(db, i))
            .collect();
        let event = self.session.events().get(events_before).cloned();
        if instances.is_empty() && event.is_none() && !sets_report {
            return None;
        }
        let report = if sets_report {
            self.session.last_report().map(ExecReportSpec::from_report)
        } else {
            None
        };
        Some(JournalOp::Exec(ExecSpec {
            instances,
            report,
            event,
        }))
    }

    /// Computes the aggregated health report for the current session
    /// and workspace state (also records `health.checks` /
    /// `health.status` into the metrics registry so the report's own
    /// history rides the telemetry stream).
    pub fn health_report(&self) -> HealthReport {
        let snapshot = self.session.metrics().snapshot();
        let store = self
            .workspace
            .as_ref()
            .map(|ws| telemetry::store_health(ws, self.last_recovery.as_ref()));
        let analysis = AnalysisHealth {
            instances_total: self.session.db().len(),
            stale_instances: self
                .session
                .db()
                .stale_instances()
                .map(|v| v.len())
                .unwrap_or(0),
        };
        let report = HealthReport::build(
            self.env.clock.wall_unix_ms(),
            store.as_ref(),
            Some(&analysis),
            &snapshot,
            &HealthThresholds::default(),
        );
        let metrics = self.session.metrics();
        metrics.incr(names::HEALTH_CHECKS, 1);
        metrics.gauge_set(names::HEALTH_STATUS, report.overall().level());
        report
    }

    /// Attaches the flight recorder to a freshly saved/opened
    /// *writable* workspace: opens a new `telemetry-N.jsonl` sidecar
    /// with a durably anchored session stamp and points a recorder at
    /// the session's trace ring, which [`Ui::pump_telemetry`] drains
    /// after every command. Degraded (read-only) workspaces get no
    /// recorder — a browser must not write into a store it does not
    /// own. Best-effort: attach failure costs telemetry, never the
    /// save/open itself.
    fn attach_telemetry(&mut self) {
        self.telemetry = None;
        let Some(ws) = &self.workspace else { return };
        if !ws.is_writable() {
            return;
        }
        let stamp = SessionStamp::for_workspace(ws, self.session.user());
        match TelemetryWriter::attach(
            ws.root(),
            self.env.clone(),
            self.session.metrics().clone(),
            &stamp,
        ) {
            Ok(writer) => {
                self.telemetry = Some(Telemetry {
                    recorder: FlightRecorder::new(self.session.trace_ring().clone()),
                    writer,
                    last_snapshot: self.session.metrics().snapshot(),
                    next_export_ms: self.env.clock.wall_unix_ms() + TELEMETRY_EXPORT_INTERVAL_MS,
                    last_dropped: 0,
                });
            }
            Err(_) => {
                self.session
                    .metrics()
                    .incr(names::TELEMETRY_WRITE_ERRORS, 1);
            }
        }
    }

    /// Encodes the trace events recorded since the last pump into the
    /// sidecar and, when the export interval has elapsed, appends a
    /// metrics-delta record and fsyncs the stream. Runs after every
    /// command; all I/O here is best-effort (see [`crate::telemetry`]).
    fn pump_telemetry(&mut self) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let metrics = self.session.metrics();
        let now_ms = self.env.clock.wall_unix_ms();
        let mut export = false;
        if now_ms >= t.next_export_ms {
            let snapshot = metrics.snapshot();
            let delta = snapshot.delta(&t.last_snapshot);
            t.recorder
                .record_metrics_delta(&delta, self.env.clock.now().as_ns(), now_ms);
            t.last_snapshot = snapshot;
            t.next_export_ms = now_ms + TELEMETRY_EXPORT_INTERVAL_MS;
            metrics.incr(names::TELEMETRY_METRIC_EXPORTS, 1);
            export = true;
        }
        let records = t.recorder.drain(|lines| t.writer.append(lines));
        if records > 0 {
            metrics.incr(names::TELEMETRY_RECORDS, records);
        }
        let dropped = t.recorder.dropped();
        if dropped > t.last_dropped {
            metrics.incr(names::TELEMETRY_DROPPED_RECORDS, dropped - t.last_dropped);
            t.last_dropped = dropped;
        }
        if export {
            // One fsync per export interval bounds how much telemetry
            // a crash can shed without putting an fsync on every
            // command's path.
            t.writer.sync();
        }
    }

    /// Runs a whole script (one command per line; `#` comments and
    /// blank lines skipped), concatenating the transcript.
    ///
    /// # Errors
    ///
    /// Stops at the first failing command.
    pub fn run_script(&mut self, script: &str) -> Result<String, HerculesError> {
        let mut out = String::new();
        for line in script.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let _ = writeln!(out, "> {line}");
            out.push_str(&self.execute(line)?);
        }
        Ok(out)
    }
}

/// The handlers `VERBS` names, in its order. Each parses the rest of
/// its line, and ends the parse with [`Args::end`], before it touches
/// the session.
impl Ui {
    fn goal(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let name = args.word("missing entity")?;
        args.end()?;
        let node = self.session.start_from_goal(name)?;
        Ok(self.flow_reply(format!("started from goal {name}: {node}\n")))
    }

    fn tool(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let name = args.word("missing tool")?;
        args.end()?;
        let node = self.session.start_from_tool(name)?;
        Ok(self.flow_reply(format!("started from tool {name}: {node}\n")))
    }

    fn data(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let instance = args.instance()?;
        args.end()?;
        let node = self.session.start_from_data(instance)?;
        Ok(Reply {
            text: format!("started from data {instance}: {node}\n"),
            op: Some(JournalOp::DataStart {
                instance: instance.raw(),
            }),
        })
    }

    fn plan(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let name = args.word("missing flow name")?;
        args.end()?;
        let node = self.session.start_from_plan(name)?;
        Ok(self.flow_reply(format!("instantiated flow `{name}`; output {node}\n")))
    }

    fn expand(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        args.end()?;
        let created = self.session.expand(node)?;
        Ok(self.flow_reply(format!(
            "expanded {node}: +{}\n",
            created
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" +")
        )))
    }

    fn unexpand(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        args.end()?;
        let removed = self.session.unexpand(node)?;
        Ok(self.flow_reply(format!("unexpanded {node}: removed {}\n", removed.len())))
    }

    fn specialize(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        let subtype = args.word("missing subtype")?;
        args.end()?;
        self.session.specialize(node, subtype)?;
        Ok(self.flow_reply(format!("specialized {node} to {subtype}\n")))
    }

    /// A flow verb's reply: on success the session's construction tape
    /// ends with exactly the op just performed (a plan start resets the
    /// tape to its single Install op).
    fn flow_reply(&self, text: String) -> Reply {
        let op = self.session.flow_ops().last().cloned().map(JournalOp::Flow);
        Reply { text, op }
    }

    fn browse(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        args.end()?;
        let instances = self.session.browse(node)?;
        let mut out = format!("browser for {node}:\n");
        for i in instances {
            let _ = writeln!(out, "  {}", instance_label(&self.session, i));
        }
        Ok(out.into())
    }

    fn select(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        let instances = args.instances()?;
        if instances.is_empty() {
            return Err(args.bad("select needs at least one instance"));
        }
        Binding::check_selection(self.session.flow()?, self.session.db(), node, &instances)?;
        self.session.select_many(node, &instances);
        Ok(Reply {
            text: format!("selected {} instance(s) for {node}\n", instances.len()),
            op: Some(JournalOp::Select {
                node: node.index(),
                instances: instances.iter().map(|i| i.raw()).collect(),
            }),
        })
    }

    fn bind_latest(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let unbound = self.session.bind_latest()?;
        Ok(Reply {
            text: format!("auto-bound; {} leaf(s) still unbound\n", unbound.len()),
            op: Some(JournalOp::BindLatest),
        })
    }

    fn run(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let report = self.session.run()?;
        Ok(render_exec("ran", report).into())
    }

    /// Re-runs only the failed/skipped subtasks of the last partial
    /// execution, serving committed work from the history.
    fn resume(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let report = self.session.resume()?;
        Ok(render_exec("resumed", report).into())
    }

    fn history(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let instance = args.instance()?;
        args.end()?;
        let tree = self.session.history_of(instance, Some(1))?;
        let mut out = format!("history of {}:\n", instance_label(&self.session, instance));
        if let Some(tool) = tree.tool {
            let _ = writeln!(out, "  f← {}", instance_label(&self.session, tool));
        }
        for input in &tree.inputs {
            let _ = writeln!(
                out,
                "  d← {}",
                instance_label(&self.session, input.instance)
            );
        }
        if tree.tool.is_none() && tree.inputs.is_empty() {
            out.push_str("  (primary instance)\n");
        }
        Ok(out.into())
    }

    /// Forward-chains: everything derived from the instance (the "Use
    /// Dependencies" browser option).
    fn uses(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let instance = args.instance()?;
        args.end()?;
        let downstream = self.session.db().forward_chain(instance)?;
        let mut out = format!(
            "derived from {}:\n",
            instance_label(&self.session, instance)
        );
        if downstream.is_empty() {
            out.push_str("  (nothing yet)\n");
        }
        for d in downstream {
            let _ = writeln!(out, "  {}", instance_label(&self.session, d));
        }
        Ok(out.into())
    }

    /// Consistency maintenance: re-runs the flow behind the instance
    /// against the newest input versions.
    fn retrace(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let instance = args.instance()?;
        args.end()?;
        let report = self.session.retrace(instance)?;
        if report.already_current {
            return Ok(format!("{instance} is already current; nothing re-ran\n").into());
        }
        Ok(format!(
            "retraced {instance}: {} invocation(s), {} cache hit(s); \
             current result(s): {}\n",
            report.report.runs(),
            report.report.cache_hits(),
            report
                .goal_instances
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
        .into())
    }

    /// Shows the Fig. 9 pop-up menu for a node.
    fn menu(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let node = args.node()?;
        args.end()?;
        let flow = self.session.flow()?;
        let menu = flow.menu_for(node)?;
        let schema = self.session.schema().clone();
        let names = |ids: &[hercules_schema::EntityTypeId]| {
            ids.iter()
                .map(|&e| schema.entity(e).name())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = format!("menu for {node}:\n");
        if menu.can_expand {
            out.push_str("  Expand\n");
            if !menu.optional_inputs.is_empty() {
                let _ = writeln!(
                    out,
                    "  Expand with optional: {}",
                    names(&menu.optional_inputs)
                );
            }
        }
        if !menu.specializations.is_empty() {
            let _ = writeln!(out, "  Specialize: {}", names(&menu.specializations));
        }
        if menu.can_unexpand {
            out.push_str("  Unexpand\n");
        }
        if menu.needs_instance {
            out.push_str("  Browse / Select\n");
        }
        if !menu.consumers.is_empty() {
            let _ = writeln!(out, "  Make from this: {}", names(&menu.consumers));
        }
        Ok(out.into())
    }

    /// Stores the flow in the catalog.
    fn store(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let name = args.word("missing name")?;
        args.end()?;
        let description = "stored from the UI";
        self.session.store_flow(name, description)?;
        Ok(Reply {
            text: format!("stored flow `{name}`\n"),
            op: Some(JournalOp::StoreFlow {
                name: name.to_owned(),
                description: description.to_owned(),
            }),
        })
    }

    /// Lists the session's execution events, failures included.
    fn log(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let events = self.session.events();
        let mut out = String::from(if events.is_empty() {
            "event log: (empty)\n"
        } else {
            "event log:\n"
        });
        for (n, event) in events.iter().enumerate() {
            let _ = write!(out, "  #{n}");
            // Events from journals written before timestamps existed
            // deserialize with wall_unix_ms == 0; skip the stamp rather
            // than print the epoch.
            if event.wall_unix_ms > 0 {
                let _ = write!(out, " [{}]", format_utc_ms(event.wall_unix_ms));
            }
            let _ = write!(
                out,
                " {}: {} task(s), {} run(s), {} cache hit(s)",
                event.operation, event.tasks, event.runs, event.cache_hits
            );
            if event.failed > 0 || event.skipped > 0 {
                let _ = write!(out, ", {} failed, {} skipped", event.failed, event.skipped);
            }
            out.push('\n');
            for failure in &event.failures {
                let _ = writeln!(out, "      ✗ {failure}");
            }
            if let Some(error) = &event.error {
                let _ = writeln!(out, "      aborted: {error}");
            }
        }
        if let Some(recovery) = &self.last_recovery {
            let _ = writeln!(out, "last recovery: {}", recovery.to_json());
        }
        Ok(out.into())
    }

    /// Renders the span tree of the traced executions.
    fn trace(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let events = self.session.trace_events();
        if events.is_empty() {
            return Ok(String::from("trace: (no spans recorded — run something first)\n").into());
        }
        let spans = profile::build_spans(&events);
        Ok(format!(
            "trace ({} spans):\n{}",
            spans.len(),
            profile::render_tree(&spans)
        )
        .into())
    }

    /// Renders the session's metrics registry.
    fn stats(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        Ok(self.session.metrics().snapshot().render_text().into())
    }

    /// Critical-path analysis and Gantt chart of the last execution:
    /// from the live trace when there is one, else synthesized from the
    /// last report (e.g. after reopening a workspace).
    fn profile(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let live = self.session.trace_events();
        let events = if live.iter().any(|e| e.name == "task") {
            live
        } else {
            // No live trace (fresh process, reopened workspace):
            // synthesize one from the persisted report's start offsets
            // and durations.
            let Some(report) = self.session.last_report() else {
                return Ok(String::from("profile: (no execution to profile)\n").into());
            };
            report_to_trace(report, self.session.flow().ok())
        };
        let prof = profile::profile(&events);
        Ok(format!("{}\n{}", prof.render_text(), prof.render_gantt(60)).into())
    }

    fn show(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        Ok(render_task_window(&self.session).into())
    }

    /// Abandons the flow.
    fn clear(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        self.session.clear_flow();
        Ok(Reply {
            text: "cleared\n".to_owned(),
            op: Some(JournalOp::Clear),
        })
    }

    fn catalogs(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let mut out = String::from("entity catalog:\n");
        for e in catalog::entity_catalog(self.session.schema()) {
            let mark = if e.is_tool { "T" } else { "D" };
            let _ = writeln!(out, "  [{mark}] {}", e.name);
        }
        let _ = writeln!(out, "flow catalog: {:?}", self.session.catalog().names());
        Ok(out.into())
    }

    /// Creates a durable workspace at the directory; every later
    /// mutating command is journaled into it.
    fn save(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let path = args.word("missing directory")?;
        args.end()?;
        let mut ws = Workspace::create_in(Path::new(path), &self.session, self.env.clone())?;
        ws.set_metrics(self.session.metrics().clone());
        self.session.mark_journaled();
        self.workspace = Some(ws);
        self.attach_telemetry();
        Ok(format!("workspace saved to `{path}`; mutating commands are now journaled\n").into())
    }

    /// Recovers the session from a durable workspace, replaying its
    /// journal and truncating any torn tail.
    fn open(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let path = args.word("missing directory")?;
        args.end()?;
        let (mut ws, session, recovery) = Workspace::open_session_in(
            Path::new(path),
            |s| crate::encaps::odyssey_registry(s),
            self.env.clone(),
        )?;
        self.session = session;
        ws.set_metrics(self.session.metrics().clone());
        if recovery.degraded.is_some() {
            self.session.metrics().incr(names::STORE_DEGRADED_OPENS, 1);
        }
        if recovery.took_over {
            self.session.metrics().incr(names::STORE_LEASE_TAKEOVERS, 1);
        }
        self.workspace = Some(ws);
        self.attach_telemetry();
        // The old analysis state described a different history; the
        // next lint is a full one.
        self.linter = HistoryLinter::new();
        let mut out = format!("opened workspace `{path}`: {recovery}\n");
        let _ = writeln!(out, "recovery: {}", recovery.to_json());
        self.last_recovery = Some(recovery);
        Ok(out.into())
    }

    /// Makes the session durable as a snapshot: appends it to the
    /// journal, or rotates to a new generation once the old one has
    /// grown large. When the journal already holds every change since
    /// a recent snapshot, only syncs it.
    fn checkpoint(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let Some(ws) = self.workspace.as_mut() else {
            return Err(HerculesError::Store {
                message: "no workspace attached; `save <path>` first".into(),
            });
        };
        let kind = ws.checkpoint(&self.session)?;
        self.session.mark_journaled();
        let generation = ws.generation();
        let text = match kind {
            CheckpointKind::Appended => {
                format!("checkpointed; snapshot appended to generation {generation}'s journal\n")
            }
            CheckpointKind::Rotated => {
                format!("checkpointed; rotated to generation {generation}\n")
            }
            CheckpointKind::Synced => format!(
                "checkpointed; generation {generation}'s journal already holds every change\n"
            ),
        };
        Ok(text.into())
    }

    /// CRC-verifies every journal segment, the generation's base in
    /// frame 0 included, quarantining and repairing damage when the
    /// workspace is writable.
    fn scrub(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let Some(ws) = self.workspace.as_mut() else {
            return Err(HerculesError::Store {
                message: "no workspace attached; `save <path>` or `open <path>` first".into(),
            });
        };
        let report = ws.scrub(&self.session)?;
        if report.repaired {
            self.session.mark_journaled();
        }
        let mut out = format!("{report}\n");
        let _ = writeln!(out, "scrub: {}", report.to_json());
        Ok(out.into())
    }

    /// Runs the static analyzer over the session; with `--incremental`
    /// the history passes re-analyze only the cone of instances
    /// affected since the last lint.
    fn lint(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let incremental = args.flag("lint", "--incremental")?;
        args.end()?;
        let started = self.env.clock.now();
        let mut out = Diagnostics::new();
        let mut timings = Vec::new();
        {
            let clock = self.env.clock.clone();
            let mut tick = move || clock.now().as_ns();
            timings.extend(hercules_analyze::lint_schema_timed(
                self.session.schema(),
                &mut out,
                &mut tick,
            ));
            if let Ok(flow) = self.session.flow() {
                timings.extend(hercules_analyze::lint_flow_timed(flow, &mut out, &mut tick));
            }
        }
        let result = if incremental {
            self.linter.lint_incremental(self.session.db(), &mut out)
        } else {
            self.linter.lint_full(self.session.db(), &mut out)
        };
        result.map_err(|e| HerculesError::Store {
            message: format!("history analysis failed: {e}"),
        })?;
        let stats = self.linter.stats();
        let metrics = self.session.metrics();
        metrics.observe_duration(names::ANALYZE_LINT_NS, self.env.clock.since(started));
        for t in &timings {
            let name = format!("{}.{}", names::ANALYZE_PASS_NS, t.code.to_ascii_lowercase());
            metrics.observe(&name, t.nanos);
        }
        metrics.observe(
            names::ANALYZE_CONE_INSTANCES,
            stats.instances_analyzed as u64,
        );
        let mut text = if out.is_empty() {
            String::from("lint: clean\n")
        } else {
            out.render_text()
        };
        let _ = writeln!(
            text,
            "analyzed {}/{} instance(s), {} solver visit(s) ({})",
            stats.instances_analyzed,
            stats.instances_total,
            stats.solver_visits,
            if stats.incremental {
                "incremental"
            } else {
                "full"
            }
        );
        Ok(text.into())
    }

    /// Reports every out-of-date derived instance with its predicted
    /// retrace cone (§3.3's "whether such retracing need occur",
    /// answered without running anything).
    fn stale(&mut self, args: Args) -> Result<Reply, HerculesError> {
        args.end()?;
        let stale = self.session.db().stale_instances()?;
        if stale.is_empty() {
            return Ok(String::from("stale: everything is current\n").into());
        }
        let mut out = format!("{} stale instance(s):\n", stale.len());
        for s in &stale {
            let cone = RetraceCone::compute(self.session.db(), s.instance)?;
            self.session
                .metrics()
                .observe(names::ANALYZE_RETRACE_RERUN, cone.rerun.len() as u64);
            let _ = writeln!(
                out,
                "  {} ({} superseded by {}): retrace would be {}",
                instance_label(&self.session, s.instance),
                s.outdated_input,
                s.newer_version,
                cone.summary()
            );
        }
        Ok(out.into())
    }

    /// The aggregated workspace health report (`--json` for a JSON
    /// object): store mode/lease/quarantine, scheduler rates, cache hit
    /// rate, and stale instances, each mapped to ok/warn/critical.
    fn health(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let json = args.flag("health", "--json")?;
        args.end()?;
        let report = self.health_report();
        let text = if json {
            format!("{}\n", report.to_json())
        } else {
            report.render_text()
        };
        Ok(text.into())
    }

    /// `cache open <dir>` attaches a content-addressed result cache
    /// that later executions consult ahead of tool dispatch (sessions
    /// that open the same root share results); `cache stats` reports
    /// its per-tier traffic and occupancy; `cache gc` reclaims its disk
    /// tier down to its byte budget, dropping damaged entries.
    fn cache(&mut self, mut args: Args) -> Result<Reply, HerculesError> {
        let detached = || String::from("content cache: not attached (`cache open <dir>`)\n");
        let out = match args.words.next() {
            Some("open") => {
                let dir = args.word("cache open needs a directory")?;
                args.end()?;
                let cache = hercules_cache::ContentCache::open(
                    &self.env.fs,
                    dir,
                    hercules_cache::CacheConfig::default(),
                    self.env.clock.clone(),
                    self.session.metrics().clone(),
                )
                .map_err(|e| HerculesError::Store {
                    message: format!("cache open failed: {e}"),
                })?;
                self.session.attach_content_cache(cache);
                format!("content cache attached at {dir}\n")
            }
            Some("stats") => {
                args.end()?;
                match self.session.content_cache() {
                    Some(cache) => cache.stats().render_text(),
                    None => detached(),
                }
            }
            Some("gc") => {
                args.end()?;
                match self.session.content_cache() {
                    Some(cache) => {
                        let r = cache.gc().map_err(|e| HerculesError::Store {
                            message: format!("cache gc failed: {e}"),
                        })?;
                        format!(
                            "cache gc: scanned {} entries, evicted {}, dropped {} damaged, reaped {} tmp, {} -> {} bytes\n",
                            r.scanned, r.evicted, r.dropped, r.reaped_tmp, r.bytes_before, r.bytes_after
                        )
                    }
                    None => detached(),
                }
            }
            _ => return Err(args.bad("cache subcommands: open <dir>, stats, gc")),
        };
        Ok(out.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DegradedReason, StoreError};

    #[test]
    fn task_window_renders_without_flow() {
        let session = Session::odyssey("jbb");
        let window = render_task_window(&session);
        assert!(window.contains("no task under construction"));
        assert!(window.contains("menu:"));
    }

    #[test]
    fn scripted_session_builds_and_shows_a_flow() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let transcript = ui
            .run_script(
                "# goal-based start\n\
                 goal Performance\n\
                 expand n0\n\
                 show\n",
            )
            .expect("script runs");
        assert!(transcript.contains("started from goal Performance"));
        assert!(transcript.contains("Simulator"));
        assert!(transcript.contains("⇐ (unbound)"));
    }

    #[test]
    fn uses_command_forward_chains() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        // The editor leaf (n4) produced the netlist that fed the
        // layout; `uses` on its bound script must list both products.
        let bound = ui
            .session()
            .binding()
            .get(hercules_flow::NodeId::from_index(4))[0];
        let out = ui
            .execute(&format!("uses i{}", bound.raw()))
            .expect("chains");
        assert!(out.contains("derived from"));
        assert!(!out.contains("nothing yet"));
    }

    #[test]
    fn menu_command_shows_fig9_popup() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.execute("goal Layout").expect("starts");
        ui.execute("expand n0").expect("expands");
        // n2 is the abstract Netlist input.
        let out = ui.execute("menu n2").expect("shows");
        assert!(out.contains("Specialize: EditedNetlist, ExtractedNetlist"));
        assert!(out.contains("Browse / Select"));
        let out = ui.execute("menu n0").expect("shows");
        assert!(out.contains("Unexpand"));
    }

    #[test]
    fn retrace_command_reports_current_and_stale() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        let report = ui.session().last_report().expect("ran").clone();
        let layout = report.single(hercules_flow::NodeId::from_index(0));
        let out = ui
            .execute(&format!("retrace i{}", layout.raw()))
            .expect("retraces");
        assert!(out.contains("already current"), "{out}");
    }

    #[test]
    fn log_command_lists_execution_events() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        assert_eq!(ui.execute("log").expect("empty ok"), "event log: (empty)\n");
        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        let out = ui.execute("log").expect("lists");
        assert!(out.contains("#0 ["), "wall-clock stamp: {out}");
        assert!(out.contains("] run:"), "{out}");
        assert!(out.contains("cache hit(s)"), "{out}");
        assert!(!out.contains("failed"), "clean run: {out}");
    }

    #[test]
    fn format_utc_ms_matches_known_dates() {
        assert_eq!(format_utc_ms(0), "1970-01-01 00:00:00Z");
        // 2000-03-01 00:00:00 UTC — the day after a century leap day.
        assert_eq!(format_utc_ms(951_868_800_000), "2000-03-01 00:00:00Z");
        assert_eq!(format_utc_ms(951_868_799_000), "2000-02-29 23:59:59Z");
    }

    #[test]
    fn trace_stats_profile_commands_render() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        assert!(ui.execute("trace").expect("empty ok").contains("no spans"));
        assert!(ui
            .execute("profile")
            .expect("empty ok")
            .contains("no execution"));
        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        let trace = ui.execute("trace").expect("renders");
        assert!(trace.contains("execute"), "{trace}");
        assert!(trace.contains("task ["), "task spans labeled: {trace}");
        let stats = ui.execute("stats").expect("renders");
        assert!(stats.contains("exec.executions"), "{stats}");
        assert!(stats.contains("exec.task_wall_ns"), "{stats}");
        let prof = ui.execute("profile").expect("renders");
        assert!(prof.contains("critical path"), "{prof}");
        assert!(prof.contains("parallelism"), "{prof}");
        assert!(prof.contains("worker"), "gantt rows: {prof}");
    }

    #[test]
    fn profile_synthesizes_from_report_when_trace_is_empty() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        // Simulate a reopened workspace: the report survives, the live
        // trace ring does not.
        ui.session().clear_trace();
        let prof = ui.execute("profile").expect("synthesizes");
        assert!(prof.contains("critical path"), "{prof}");
        assert!(prof.contains("#n"), "node-labeled tasks: {prof}");
    }

    #[test]
    fn scrub_without_workspace_is_an_error() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let err = ui.execute("scrub").expect_err("no workspace");
        assert!(err.to_string().contains("save <path>"), "{err}");
    }

    #[test]
    fn scrub_command_reports_clean_on_a_fresh_workspace() {
        let root = std::env::temp_dir().join(format!("hercules-ui-scrub-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let script = format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n\
             scrub\n",
            root.display()
        );
        let out = ui.run_script(&script).expect("script runs");
        assert!(out.contains("; clean"), "{out}");
        assert!(out.contains("\"damaged\":false"), "json rendered: {out}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_renders_recovery_json_and_log_repeats_it() {
        let root = std::env::temp_dir().join(format!("hercules-ui-recov-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(&format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n",
            root.display()
        ))
        .expect("script runs");
        drop(ui);

        let mut ui = Ui::new(Session::odyssey("jbb"));
        let out = ui
            .execute(&format!("open {}", root.display()))
            .expect("reopens");
        assert!(out.contains("recovery: {"), "{out}");
        assert!(out.contains("\"ops_replayed\":2"), "{out}");
        let log = ui.execute("log").expect("lists");
        assert!(log.contains("last recovery: {"), "{log}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn degraded_workspace_refuses_mutations_before_the_session_changes() {
        let root = std::env::temp_dir().join(format!("hercules-ui-degr-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(&format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n",
            root.display()
        ))
        .expect("script runs");
        drop(ui);

        // Forge a live foreign lease: the next open must degrade.
        let far_future = u64::MAX / 2;
        std::fs::write(
            root.join("LEASE"),
            format!("{{\"owner\":\"rival\",\"expires_unix_ms\":{far_future},\"token\":99}}"),
        )
        .expect("forge lease");

        let mut ui = Ui::new(Session::odyssey("jbb"));
        let out = ui
            .execute(&format!("open {}", root.display()))
            .expect("opens read-only");
        assert!(out.contains("opened read-only"), "{out}");
        assert!(out.contains("lease held by `rival`"), "{out}");

        // Browsing still works; mutations are refused up front.
        assert!(ui.execute("show").is_ok());
        assert!(ui.execute("log").is_ok());
        let flow_ops_before = ui.session().flow_ops().len();
        let err = ui.execute("goal Layout").expect_err("degraded refusal");
        assert!(err.to_string().contains("read-only"), "{err}");
        assert_eq!(
            ui.session().flow_ops().len(),
            flow_ops_before,
            "refused before mutating the session"
        );
        let err = ui.execute("checkpoint").expect_err("degraded refusal");
        assert!(err.to_string().contains("read-only"), "{err}");
        // Scrub runs, reports, but cannot repair.
        let scrub = ui.execute("scrub").expect("scrub reports");
        assert!(scrub.contains("; clean"), "{scrub}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Bytes of the frames in the `journal-*` segments under `root`
    /// (their free space left out: a frame written into it leaves a
    /// segment's length as it was).
    fn journal_bytes(root: &Path) -> usize {
        std::fs::read_dir(root)
            .expect("lists")
            .map(|e| e.expect("entry"))
            .filter(|e| e.file_name().to_string_lossy().starts_with("journal-"))
            .map(|e| std::fs::read(e.path()).expect("reads"))
            .map(|bytes| crate::store::scan_frames(&bytes).valid_len)
            .sum()
    }

    /// Every verb in `VERBS`, listed once and with one sample line, on
    /// a workspace that can write and on one that cannot: a verb the
    /// session's journal needs is refused on the degraded one before
    /// the session changes, and a `Journal::None` verb is never refused
    /// and never journaled.
    #[test]
    fn each_verb_follows_its_journal_class() {
        let base = std::env::temp_dir().join(format!("hercules-ui-verbs-{}", std::process::id()));
        let (root, elsewhere) = (base.join("ws"), base.join("elsewhere"));
        std::fs::remove_dir_all(&base).ok();
        // `open` and `save` attach another workspace handle, so they
        // come last.
        let samples = [
            "goal Layout",
            "tool Placer",
            "data i3",
            "plan place-flow",
            "expand n0",
            "unexpand n0",
            "specialize n2 EditedNetlist",
            "select n1 i3",
            "bind-latest",
            "run",
            "resume",
            "retrace i3",
            "store place-flow",
            "clear",
            "checkpoint",
            "browse n1",
            "history i3",
            "uses i3",
            "menu n0",
            "log",
            "trace",
            "stats",
            "profile",
            "show",
            "catalogs",
            "scrub",
            "lint",
            "stale",
            "health",
            "cache stats",
            &format!("open {}", root.display()),
            &format!("save {}", elsewhere.display()),
        ];
        let class = |line: &str| {
            let verb = line.split_whitespace().next();
            let entry = VERBS.iter().find(|(name, ..)| Some(*name) == verb);
            entry.expect("a known verb").1
        };
        let mut names: Vec<&str> = VERBS.iter().map(|(name, ..)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VERBS.len(), "a verb is listed twice");
        for (name, ..) in VERBS {
            assert!(
                samples
                    .iter()
                    .any(|s| s.split_whitespace().next() == Some(*name)),
                "`{name}` has no sample line"
            );
        }

        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(&format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n",
            root.display()
        ))
        .expect("script runs");
        for line in samples.iter().filter(|l| class(l) == Journal::None) {
            let before = journal_bytes(&root);
            ui.execute(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
            assert_eq!(journal_bytes(&root), before, "`{line}` was journaled");
        }
        drop(ui);

        let far_future = u64::MAX / 2;
        std::fs::write(
            root.join("LEASE"),
            format!("{{\"owner\":\"rival\",\"expires_unix_ms\":{far_future},\"token\":99}}"),
        )
        .expect("forge lease");
        let refusal = HerculesError::from(StoreError::Degraded(DegradedReason::LeaseHeld {
            owner: "rival".into(),
            expires_unix_ms: far_future,
        }));
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.execute(&format!("open {}", root.display()))
            .expect("opens read-only");
        let state = |ui: &Ui| {
            let session = ui.session();
            let catalog = format!("{:?}", session.catalog().names());
            let counts = (session.db().len(), session.events().len());
            (render_task_window(session), counts, catalog)
        };
        for line in samples.iter().filter(|l| class(l) != Journal::None) {
            let before = state(&ui);
            assert_eq!(ui.execute(line), Err(refusal.clone()), "`{line}`");
            assert!(state(&ui) == before, "`{line}` changed the session");
        }
        for line in samples.iter().filter(|l| class(l) == Journal::None) {
            ui.execute(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
        drop(ui);
        std::fs::remove_dir_all(&base).ok();
    }

    /// Executes each malformed line and checks it fails as `BadCommand`
    /// with the given reason, leaving the session without a flow.
    fn assert_bad_commands(lines: &[(&str, &str)]) {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        for &(line, reason) in lines {
            let bad = HerculesError::BadCommand {
                input: line.to_owned(),
                reason: reason.to_owned(),
            };
            assert_eq!(ui.execute(line), Err(bad), "`{line}`");
        }
        assert!(
            ui.session().flow().is_err(),
            "no malformed line started a flow"
        );
    }

    #[test]
    fn parse_commands() {
        assert_bad_commands(&[
            ("", "empty command"),
            ("frobnicate", "unknown verb `frobnicate`"),
            ("goal", "missing entity"),
            ("tool", "missing tool"),
            ("data", "missing instance"),
            ("history 7", "instance must look like i7"),
            ("plan", "missing flow name"),
            ("expand", "missing node (nN)"),
            ("expand x3", "node must look like n3"),
            ("specialize n2", "missing subtype"),
            ("select n2", "select needs at least one instance"),
            ("select n2 i7 x9", "instance must look like i7"),
            ("store", "missing name"),
        ]);
    }

    #[test]
    fn parse_workspace_commands() {
        assert_bad_commands(&[
            ("save", "missing directory"),
            ("open", "missing directory"),
            ("cache open", "cache open needs a directory"),
            ("cache", "cache subcommands: open <dir>, stats, gc"),
        ]);
    }

    #[test]
    fn parse_lint_and_stale_commands() {
        assert_bad_commands(&[
            ("lint --frobnicate", "unknown lint option `--frobnicate`"),
            ("health --yaml", "unknown health option `--yaml`"),
        ]);
    }

    /// A word that no parser consumed refuses the line before its verb
    /// acts: `expand n0 n2` neither expands n0 nor journals a frame.
    #[test]
    fn leftover_words_are_refused_before_the_verb_acts() {
        assert_bad_commands(&[
            ("goal Layout now", "unexpected word `now`"),
            ("run now please", "unexpected word `now`"),
            ("lint --incremental all", "unexpected word `all`"),
            ("cache stats all", "unexpected word `all`"),
        ]);
        let root = std::env::temp_dir().join(format!("hercules-ui-left-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.execute(&format!("save {}", root.display()))
            .expect("saves");
        ui.execute("goal Layout").expect("starts");
        let window = render_task_window(ui.session());
        let journal = journal_bytes(&root);
        let bad = HerculesError::BadCommand {
            input: "expand n0 n2".into(),
            reason: "unexpected word `n2`".into(),
        };
        assert_eq!(ui.execute("expand n0 n2"), Err(bad));
        assert_eq!(render_task_window(ui.session()), window, "n0 was expanded");
        assert_eq!(journal_bytes(&root), journal, "a frame was journaled");
        drop(ui);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_without_workspace_is_an_error() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let err = ui.execute("checkpoint").expect_err("no workspace");
        assert!(err.to_string().contains("save <path>"), "{err}");
    }

    #[test]
    fn resume_without_failure_is_an_error() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        assert!(matches!(
            ui.execute("resume"),
            Err(HerculesError::NothingToResume { .. })
        ));
    }

    #[test]
    fn saved_session_reopens_with_full_state() {
        let root = std::env::temp_dir().join(format!("hercules-ui-ws-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let script = format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n\
             store place-flow\n",
            root.display()
        );
        let transcript = ui.run_script(&script).expect("script runs");
        assert!(transcript.contains("workspace saved"));
        let db_len = ui.session().db().len();
        drop(ui);

        // A brand-new UI recovers the whole session from disk.
        let mut ui = Ui::new(Session::odyssey("someone-else"));
        let out = ui
            .execute(&format!("open {}", root.display()))
            .expect("reopens");
        assert!(out.contains("7 journaled operation(s) replayed"), "{out}");
        assert_eq!(ui.session().user(), "jbb");
        assert_eq!(ui.session().db().len(), db_len);
        assert_eq!(ui.session().catalog().names(), vec!["place-flow"]);
        assert!(ui.session().last_report().expect("report").is_complete());
        // And it keeps journaling: later commands land in the journal.
        ui.execute("clear").expect("clears");
        ui.execute("plan place-flow").expect("instantiates");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn cache_commands_attach_report_and_hit_across_sessions() {
        let root = std::env::temp_dir().join(format!("hercules-ui-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let script = "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n";

        let mut ui = Ui::new(Session::odyssey("jbb"));
        let out = ui.execute("cache stats").expect("reports");
        assert!(out.contains("not attached"), "{out}");
        ui.execute(&format!("cache open {}", root.display()))
            .expect("attaches");
        ui.run_script(script).expect("script runs");
        let cold_runs = ui.session().last_report().expect("ran").runs();
        assert!(cold_runs > 0, "cold session invokes tools");
        let out = ui.execute("cache stats").expect("reports");
        assert!(out.contains("disk"), "{out}");
        assert!(out.contains(&format!("inserts={cold_runs}")), "{out}");
        drop(ui);

        // A different user's session with a *fresh* history opens the
        // same cache root: every tool run is served from A's work.
        let mut ui = Ui::new(Session::odyssey("amber"));
        ui.execute(&format!("cache open {}", root.display()))
            .expect("attaches");
        ui.run_script(script).expect("script runs");
        assert_eq!(
            ui.session().last_report().expect("ran").runs(),
            0,
            "warm session replays workspace A's results"
        );
        let out = ui.execute("cache gc").expect("collects");
        assert!(out.contains("cache gc: scanned"), "{out}");
        // The per-tier rates surface in the health report.
        let out = ui.execute("health").expect("reports");
        assert!(out.contains("cache.content.disk"), "{out}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Records a superseding edit of the netlist `v1`, making every
    /// result derived from it stale.
    fn supersede_netlist(session: &mut Session, v1: InstanceId) -> InstanceId {
        let schema = session.schema().clone();
        let editor = schema.require("CircuitEditor").expect("known");
        let edited = schema.require("EditedNetlist").expect("known");
        let editor_inst = session.db().instances_of(editor)[0];
        session
            .db_mut()
            .record_derived(
                edited,
                crate::history::Metadata::by("jbb").named("netlist v2"),
                b"v2",
                crate::history::Derivation::by_tool(editor_inst, [v1]),
            )
            .expect("records")
    }

    #[test]
    fn lint_and_stale_commands_track_an_edit() {
        let mut ui = Ui::new(Session::odyssey("jbb"));
        let out = ui.execute("lint").expect("lints");
        assert!(out.contains("(full)"), "{out}");
        let out = ui.execute("stale").expect("checks");
        assert!(out.contains("everything is current"), "{out}");

        ui.run_script(
            "goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
        )
        .expect("script runs");
        let report = ui.session().last_report().expect("ran").clone();
        let netlist = report.single(hercules_flow::NodeId::from_index(2));
        supersede_netlist(ui.session_mut(), netlist);

        // The incremental lint only analyzes the edit's cone, yet
        // reports the derived layout as transitively affected.
        let out = ui.execute("lint --incremental").expect("lints");
        assert!(out.contains("HL0501"), "direct staleness: {out}");
        assert!(out.contains("(incremental)"), "{out}");
        let full = {
            let mut out = Diagnostics::new();
            hercules_analyze::lint_history(ui.session().db(), &mut out).expect("lints");
            out.render_text()
        };
        for line in full.lines().filter(|l| l.contains("HL05")) {
            assert!(out.contains(line), "incremental is complete: {line}\n{out}");
        }

        let out = ui.execute("stale").expect("checks");
        assert!(out.contains("stale instance(s):"), "{out}");
        assert!(out.contains("retrace would be"), "{out}");
    }

    #[test]
    fn reopened_workspace_lints_from_scratch() {
        let root = std::env::temp_dir().join(format!("hercules-ui-lintsc-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.run_script(&format!(
            "save {}\n\
             goal Layout\n\
             expand n0\n\
             specialize n2 EditedNetlist\n\
             expand n2\n\
             bind-latest\n\
             run\n",
            root.display()
        ))
        .expect("script runs");
        let report = ui.session().last_report().expect("ran").clone();
        let netlist = report.single(hercules_flow::NodeId::from_index(2));
        supersede_netlist(ui.session_mut(), netlist);
        ui.run_script("lint\ncheckpoint\n").expect("script runs");
        drop(ui);

        let mut ui = Ui::new(Session::odyssey("jbb"));
        ui.execute(&format!("open {}", root.display()))
            .expect("reopens");
        let files: Vec<String> = std::fs::read_dir(&root)
            .expect("lists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            files.iter().all(|f| !f.starts_with("analysis")),
            "no analysis state is persisted: {files:?}"
        );
        // A fresh linter analyzes the whole reopened history, and
        // agrees with a full lint.
        let incremental = ui.execute("lint --incremental").expect("lints");
        let total = ui.session().db().len();
        assert!(
            incremental.contains(&format!("analyzed {total}/{total}")),
            "{incremental}"
        );
        let full = ui.execute("lint").expect("lints");
        let hl05 = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains("HL05"))
                .map(str::to_owned)
                .collect()
        };
        assert!(!hl05(&full).is_empty(), "the edit is reported: {full}");
        assert_eq!(hl05(&incremental), hl05(&full));
        std::fs::remove_dir_all(&root).ok();
    }
}
