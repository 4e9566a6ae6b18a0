//! The Hercules user interface (Fig. 9), as a deterministic text UI.
//!
//! "A visualization of a task graph forms the basis of the Hercules
//! user interface" — and crucially "Hercules uses the *same* user
//! interface for each approach". [`render_task_window`] draws the task
//! window; [`Command`] and [`Ui::execute`] provide the scriptable
//! command loop the examples and tests drive (menu entries: Expand,
//! Unexpand, Browse, History, Select, Run…).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use hercules_analyze::{Diagnostics, HistoryLinter};
use hercules_exec::{report_to_trace, Binding};
use hercules_flow::{render, NodeId};
use hercules_history::{InstanceId, InstanceSpec, RetraceCone};
use hercules_obs::{
    names, profile, AnalysisHealth, Collector, FlightRecorder, HealthReport, HealthThresholds,
    MetricsSnapshot,
};

use hercules_sim::Env;

use crate::catalog;
use crate::error::HerculesError;
use crate::persist::ExecReportSpec;
use crate::session::{Approach, Session};
use crate::store::{
    CheckpointKind, ExecSpec, JournalOp, RecoveryReport, StoreError, Workspace, WriteState,
};
use crate::telemetry::{self, SessionStamp, TelemetryWriter};

/// One parsed UI command.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the menu entries of Fig. 9
pub enum Command {
    /// `goal <Entity>` — goal-based start.
    Goal(String),
    /// `tool <Entity>` — tool-based start.
    Tool(String),
    /// `data <iN>` — data-based start.
    Data(InstanceId),
    /// `plan <name>` — plan-based start from the flow catalog.
    Plan(String),
    /// `expand <nN>`.
    Expand(NodeId),
    /// `unexpand <nN>`.
    Unexpand(NodeId),
    /// `specialize <nN> <Subtype>`.
    Specialize(NodeId, String),
    /// `browse <nN>`.
    Browse(NodeId),
    /// `select <nN> <iN> [iN…]`.
    Select(NodeId, Vec<InstanceId>),
    /// `bind-latest`.
    BindLatest,
    /// `run`.
    Run,
    /// `resume` — re-run only the failed/skipped subtasks of the last
    /// partial execution, serving committed work from the history.
    Resume,
    /// `history <iN>`.
    History(InstanceId),
    /// `uses <iN>` — forward-chain: everything derived from the
    /// instance (the "Use Dependencies" browser option).
    Uses(InstanceId),
    /// `retrace <iN>` — consistency maintenance: re-run the flow behind
    /// the instance against the newest input versions.
    Retrace(InstanceId),
    /// `menu <nN>` — show the Fig. 9 pop-up menu for a node.
    Menu(NodeId),
    /// `store <name>` — store the flow in the catalog.
    Store(String),
    /// `log` — list the session's execution events, including failures.
    Log,
    /// `trace` — render the span tree of the traced executions.
    Trace,
    /// `stats` — render the session's metrics registry.
    Stats,
    /// `profile` — critical-path analysis and Gantt chart of the last
    /// execution (live trace when present, else synthesized from the
    /// last report — e.g. after reopening a workspace).
    Profile,
    /// `show` — render the task window.
    Show,
    /// `clear` — abandon the flow.
    Clear,
    /// `catalogs` — list entity/tool/flow catalogs.
    Catalogs,
    /// `save <dir>` — create a durable workspace at the directory and
    /// journal every later mutating command into it.
    Save(String),
    /// `open <dir>` — recover the session from a durable workspace
    /// (replaying its journal, truncating any torn tail).
    Open(String),
    /// `checkpoint` — make the session durable as a snapshot: append
    /// it to the journal, or rotate to a new generation once the old
    /// one has grown large. When the journal already holds every change
    /// since a recent snapshot, only sync it.
    Checkpoint,
    /// `scrub` — CRC-verify every journal segment, the generation's
    /// base in frame 0 included, quarantining and repairing damage when
    /// the workspace is writable.
    Scrub,
    /// `lint [--incremental]` — run the static analyzer over the
    /// session. With `--incremental` the history passes re-analyze only
    /// the cone of instances affected since the last lint.
    Lint {
        /// Reuse the persistent analysis state instead of starting
        /// from scratch.
        incremental: bool,
    },
    /// `stale` — report every out-of-date derived instance with its
    /// predicted retrace cone (§3.3's "whether such retracing need
    /// occur", answered without running anything).
    Stale,
    /// `health [--json]` — the aggregated workspace health report:
    /// store mode/lease/quarantine, scheduler rates, cache hit rate,
    /// and stale instances, each mapped to ok/warn/critical.
    Health {
        /// Render as a JSON object instead of text.
        json: bool,
    },
    /// `cache open <dir>` — attach a content-addressed result cache
    /// rooted at the directory; later executions consult it ahead of
    /// tool dispatch and write produced results back. Sessions (and
    /// workspaces) that open the same root share results.
    CacheOpen(String),
    /// `cache stats` — per-tier hit/miss/error counts and occupancy of
    /// the attached content cache.
    CacheStats,
    /// `cache gc` — reclaim the content cache's disk tier down to its
    /// byte budget (oldest entries first), dropping damaged entries.
    CacheGc,
}

impl Command {
    /// Parses one command line.
    ///
    /// # Errors
    ///
    /// Returns [`HerculesError::BadCommand`] with a reason.
    pub fn parse(input: &str) -> Result<Command, HerculesError> {
        let bad = |reason: &str| HerculesError::BadCommand {
            input: input.to_owned(),
            reason: reason.to_owned(),
        };
        let mut parts = input.split_whitespace();
        let verb = parts.next().ok_or_else(|| bad("empty command"))?;
        let parse_node = |tok: Option<&str>| -> Result<NodeId, HerculesError> {
            let tok = tok.ok_or_else(|| bad("missing node (nN)"))?;
            let idx: usize = tok
                .strip_prefix('n')
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("node must look like n3"))?;
            Ok(NodeId::from_index(idx))
        };
        let parse_instance = |tok: &str| -> Result<InstanceId, HerculesError> {
            tok.strip_prefix('i')
                .and_then(|s| s.parse().ok())
                .map(InstanceId::from_raw)
                .ok_or_else(|| bad("instance must look like i7"))
        };
        match verb {
            "goal" => Ok(Command::Goal(
                parts.next().ok_or_else(|| bad("missing entity"))?.into(),
            )),
            "tool" => Ok(Command::Tool(
                parts.next().ok_or_else(|| bad("missing tool"))?.into(),
            )),
            "data" => Ok(Command::Data(parse_instance(
                parts.next().ok_or_else(|| bad("missing instance"))?,
            )?)),
            "plan" => Ok(Command::Plan(
                parts.next().ok_or_else(|| bad("missing flow name"))?.into(),
            )),
            "expand" => Ok(Command::Expand(parse_node(parts.next())?)),
            "unexpand" => Ok(Command::Unexpand(parse_node(parts.next())?)),
            "specialize" => Ok(Command::Specialize(
                parse_node(parts.next())?,
                parts.next().ok_or_else(|| bad("missing subtype"))?.into(),
            )),
            "browse" => Ok(Command::Browse(parse_node(parts.next())?)),
            "select" => {
                let node = parse_node(parts.next())?;
                let instances: Result<Vec<InstanceId>, HerculesError> =
                    parts.map(parse_instance).collect();
                let instances = instances?;
                if instances.is_empty() {
                    return Err(bad("select needs at least one instance"));
                }
                Ok(Command::Select(node, instances))
            }
            "bind-latest" => Ok(Command::BindLatest),
            "run" => Ok(Command::Run),
            "resume" => Ok(Command::Resume),
            "history" => Ok(Command::History(parse_instance(
                parts.next().ok_or_else(|| bad("missing instance"))?,
            )?)),
            "uses" => Ok(Command::Uses(parse_instance(
                parts.next().ok_or_else(|| bad("missing instance"))?,
            )?)),
            "retrace" => Ok(Command::Retrace(parse_instance(
                parts.next().ok_or_else(|| bad("missing instance"))?,
            )?)),
            "menu" => Ok(Command::Menu(parse_node(parts.next())?)),
            "store" => Ok(Command::Store(
                parts.next().ok_or_else(|| bad("missing name"))?.into(),
            )),
            "log" => Ok(Command::Log),
            "trace" => Ok(Command::Trace),
            "stats" => Ok(Command::Stats),
            "profile" => Ok(Command::Profile),
            "show" => Ok(Command::Show),
            "clear" => Ok(Command::Clear),
            "catalogs" => Ok(Command::Catalogs),
            "save" => Ok(Command::Save(
                parts.next().ok_or_else(|| bad("missing directory"))?.into(),
            )),
            "open" => Ok(Command::Open(
                parts.next().ok_or_else(|| bad("missing directory"))?.into(),
            )),
            "checkpoint" => Ok(Command::Checkpoint),
            "scrub" => Ok(Command::Scrub),
            "lint" => match parts.next() {
                None => Ok(Command::Lint { incremental: false }),
                Some("--incremental") => Ok(Command::Lint { incremental: true }),
                Some(other) => Err(bad(&format!("unknown lint option `{other}`"))),
            },
            "stale" => Ok(Command::Stale),
            "health" => match parts.next() {
                None => Ok(Command::Health { json: false }),
                Some("--json") => Ok(Command::Health { json: true }),
                Some(other) => Err(bad(&format!("unknown health option `{other}`"))),
            },
            "cache" => match parts.next() {
                Some("open") => Ok(Command::CacheOpen(
                    parts
                        .next()
                        .ok_or_else(|| bad("cache open needs a directory"))?
                        .to_owned(),
                )),
                Some("stats") => Ok(Command::CacheStats),
                Some("gc") => Ok(Command::CacheGc),
                _ => Err(bad("cache subcommands: open <dir>, stats, gc")),
            },
            other => Err(bad(&format!("unknown verb `{other}`"))),
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
    /// workspace is: the session tracer tees span events into the
    /// ring, and every command pumps the ring into the workspace's
    /// `telemetry-N.jsonl` sidecar.
    telemetry: Option<Telemetry>,
}

/// The attached flight-recorder state (see [`crate::telemetry`]).
#[derive(Debug)]
struct Telemetry {
    recorder: Arc<FlightRecorder>,
    writer: TelemetryWriter,
    /// Metrics as of the last periodic export; the next export writes
    /// the delta against this.
    last_snapshot: MetricsSnapshot,
    /// Wall-clock deadline for the next metrics-delta export.
    next_export_ms: u64,
    /// Ring drop counter as of the last pump (the recorder reports a
    /// lifetime total; the pump translates it into counter increments).
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

    /// Executes one command line, returning the transcript text the
    /// user would see.
    ///
    /// # Errors
    ///
    /// Parse and execution errors, verbatim.
    pub fn execute(&mut self, line: &str) -> Result<String, HerculesError> {
        let command = Command::parse(line)?;
        self.apply(command)
    }

    /// Executes a parsed command, journaling its effect when a
    /// workspace is attached.
    ///
    /// # Errors
    ///
    /// Execution errors from the session; journaling errors (an
    /// acknowledged command must be durable, so a failed fsync is
    /// reported even though the in-memory command succeeded).
    pub fn apply(&mut self, command: Command) -> Result<String, HerculesError> {
        // A degraded workspace must reject mutations *before* they land
        // in the in-memory session: otherwise the session and the
        // journal silently diverge.
        if let Some(ws) = &self.workspace {
            if let WriteState::Degraded(reason) = ws.write_state() {
                if Ui::mutates_session(&command) {
                    return Err(HerculesError::from(StoreError::Degraded(reason.clone())));
                }
            }
        }
        let db_before = self.session.db().len();
        let events_before = self.session.events().len();
        // A frame holds only its own command's effect: it brings the
        // journal level with the session only if the two matched before.
        let matched_journal = !self.session.has_unjournaled_changes();
        let journaled = command.clone();
        let result = self.dispatch(command);
        let op = self
            .workspace
            .is_some()
            .then(|| self.journal_op(&journaled, db_before, events_before, result.is_ok()))
            .flatten();
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

    /// Whether a command mutates the session (and so must be refused
    /// up front while the attached workspace is degraded read-only).
    fn mutates_session(command: &Command) -> bool {
        matches!(
            command,
            Command::Goal(_)
                | Command::Tool(_)
                | Command::Data(_)
                | Command::Plan(_)
                | Command::Expand(_)
                | Command::Unexpand(_)
                | Command::Specialize(_, _)
                | Command::Select(_, _)
                | Command::BindLatest
                | Command::Run
                | Command::Resume
                | Command::Retrace(_)
                | Command::Store(_)
                | Command::Clear
                | Command::Checkpoint
        )
    }

    /// Maps an executed command to the journal operation recording its
    /// effect, or `None` for read-only commands (and failed ones that
    /// changed nothing).
    fn journal_op(
        &self,
        command: &Command,
        db_before: usize,
        events_before: usize,
        ok: bool,
    ) -> Option<JournalOp> {
        match command {
            // Flow mutations: on success the session's construction
            // tape ends with exactly the op just performed (a plan
            // start resets the tape to its single Install op).
            Command::Goal(_)
            | Command::Tool(_)
            | Command::Plan(_)
            | Command::Expand(_)
            | Command::Unexpand(_)
            | Command::Specialize(_, _) => {
                if !ok {
                    return None;
                }
                self.session.flow_ops().last().cloned().map(JournalOp::Flow)
            }
            Command::Data(instance) => ok.then(|| JournalOp::DataStart {
                instance: instance.raw(),
            }),
            Command::Select(node, instances) => ok.then(|| JournalOp::Select {
                node: node.index(),
                instances: instances.iter().map(|i| i.raw()).collect(),
            }),
            Command::BindLatest => ok.then_some(JournalOp::BindLatest),
            Command::Store(name) => ok.then(|| JournalOp::StoreFlow {
                name: name.clone(),
                description: "stored from the UI".to_owned(),
            }),
            Command::Clear => ok.then_some(JournalOp::Clear),
            // Executions are journaled extensionally — committed
            // instances, the report, the logged event — even when they
            // returned an error, because an aborted run may still have
            // committed disjoint branches.
            Command::Run | Command::Resume => self.exec_op(db_before, events_before, ok),
            Command::Retrace(_) => self.exec_op(db_before, events_before, false),
            // Read-only commands, and the workspace commands
            // themselves, are not journaled.
            Command::Browse(_)
            | Command::History(_)
            | Command::Uses(_)
            | Command::Menu(_)
            | Command::Log
            | Command::Trace
            | Command::Stats
            | Command::Profile
            | Command::Show
            | Command::Catalogs
            | Command::Save(_)
            | Command::Open(_)
            | Command::Checkpoint
            | Command::Scrub
            | Command::Lint { .. }
            | Command::Stale
            | Command::Health { .. }
            | Command::CacheOpen(_)
            | Command::CacheStats
            | Command::CacheGc => None,
        }
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

    fn dispatch(&mut self, command: Command) -> Result<String, HerculesError> {
        match command {
            Command::Goal(name) => {
                let node = self.session.start_from_goal(&name)?;
                Ok(format!("started from goal {name}: {node}\n"))
            }
            Command::Tool(name) => {
                let node = self.session.start_from_tool(&name)?;
                Ok(format!("started from tool {name}: {node}\n"))
            }
            Command::Data(instance) => {
                let node = self.session.start_from_data(instance)?;
                Ok(format!("started from data {instance}: {node}\n"))
            }
            Command::Plan(name) => {
                let node = self.session.start_from_plan(&name)?;
                Ok(format!("instantiated flow `{name}`; output {node}\n"))
            }
            Command::Expand(node) => {
                let created = self.session.expand(node)?;
                Ok(format!(
                    "expanded {node}: +{}\n",
                    created
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" +")
                ))
            }
            Command::Unexpand(node) => {
                let removed = self.session.unexpand(node)?;
                Ok(format!("unexpanded {node}: removed {}\n", removed.len()))
            }
            Command::Specialize(node, subtype) => {
                self.session.specialize(node, &subtype)?;
                Ok(format!("specialized {node} to {subtype}\n"))
            }
            Command::Browse(node) => {
                let instances = self.session.browse(node)?;
                let mut out = format!("browser for {node}:\n");
                for i in instances {
                    let _ = writeln!(out, "  {}", instance_label(&self.session, i));
                }
                Ok(out)
            }
            Command::Select(node, instances) => {
                Binding::check_selection(
                    self.session.flow()?,
                    self.session.db(),
                    node,
                    &instances,
                )?;
                self.session.select_many(node, &instances);
                Ok(format!(
                    "selected {} instance(s) for {node}\n",
                    instances.len()
                ))
            }
            Command::BindLatest => {
                let unbound = self.session.bind_latest()?;
                Ok(format!(
                    "auto-bound; {} leaf(s) still unbound\n",
                    unbound.len()
                ))
            }
            Command::Run => {
                let report = self.session.run()?;
                let mut out = format!(
                    "ran {} subtask(s): {} invocation(s), {} cache hit(s)",
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
                Ok(out)
            }
            Command::Resume => {
                let report = self.session.resume()?;
                let mut out = format!(
                    "resumed {} subtask(s): {} invocation(s), {} cache hit(s)",
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
                Ok(out)
            }
            Command::History(instance) => {
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
                Ok(out)
            }
            Command::Uses(instance) => {
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
                Ok(out)
            }
            Command::Retrace(instance) => {
                let report = self.session.retrace(instance)?;
                Ok(if report.already_current {
                    format!("{instance} is already current; nothing re-ran\n")
                } else {
                    format!(
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
                })
            }
            Command::Menu(node) => {
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
                Ok(out)
            }
            Command::Store(name) => {
                self.session.store_flow(&name, "stored from the UI")?;
                Ok(format!("stored flow `{name}`\n"))
            }
            Command::Log => {
                let events = self.session.events();
                if events.is_empty() {
                    let mut out = String::from("event log: (empty)\n");
                    if let Some(recovery) = &self.last_recovery {
                        let _ = writeln!(out, "last recovery: {}", recovery.to_json());
                    }
                    return Ok(out);
                }
                let mut out = String::from("event log:\n");
                for (n, event) in events.iter().enumerate() {
                    let _ = write!(out, "  #{n}");
                    // Events from journals written before timestamps
                    // existed deserialize with wall_unix_ms == 0; skip
                    // the stamp rather than print the epoch.
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
                Ok(out)
            }
            Command::Trace => {
                let events = self.session.trace_events();
                if events.is_empty() {
                    return Ok("trace: (no spans recorded — run something first)\n".to_owned());
                }
                let spans = profile::build_spans(&events);
                Ok(format!(
                    "trace ({} spans):\n{}",
                    spans.len(),
                    profile::render_tree(&spans)
                ))
            }
            Command::Stats => Ok(self.session.metrics().snapshot().render_text()),
            Command::Profile => {
                let live = self.session.trace_events();
                let events = if live.iter().any(|e| e.name == "task") {
                    live
                } else {
                    // No live trace (fresh process, reopened workspace):
                    // synthesize one from the persisted report's start
                    // offsets and durations.
                    let Some(report) = self.session.last_report() else {
                        return Ok("profile: (no execution to profile)\n".to_owned());
                    };
                    report_to_trace(report, self.session.flow().ok())
                };
                let prof = profile::profile(&events);
                Ok(format!("{}\n{}", prof.render_text(), prof.render_gantt(60)))
            }
            Command::Show => Ok(render_task_window(&self.session)),
            Command::Clear => {
                self.session.clear_flow();
                Ok("cleared\n".to_owned())
            }
            Command::Catalogs => {
                let mut out = String::from("entity catalog:\n");
                for e in catalog::entity_catalog(self.session.schema()) {
                    let mark = if e.is_tool { "T" } else { "D" };
                    let _ = writeln!(out, "  [{mark}] {}", e.name);
                }
                let _ = writeln!(out, "flow catalog: {:?}", self.session.catalog().names());
                Ok(out)
            }
            Command::Save(path) => {
                let mut ws =
                    Workspace::create_in(Path::new(&path), &self.session, self.env.clone())
                        .map_err(HerculesError::from)?;
                ws.set_metrics(self.session.metrics().clone());
                self.session.mark_journaled();
                self.workspace = Some(ws);
                self.attach_telemetry();
                Ok(format!(
                    "workspace saved to `{path}`; mutating commands are now journaled\n"
                ))
            }
            Command::Open(path) => {
                let (mut ws, session, recovery) = Workspace::open_session_in(
                    Path::new(&path),
                    |s| crate::encaps::odyssey_registry(s),
                    self.env.clone(),
                )
                .map_err(HerculesError::from)?;
                self.session = session;
                ws.set_metrics(self.session.metrics().clone());
                if recovery.degraded.is_some() {
                    self.session
                        .metrics()
                        .incr(hercules_obs::names::STORE_DEGRADED_OPENS, 1);
                }
                if recovery.took_over {
                    self.session.metrics().incr(names::STORE_LEASE_TAKEOVERS, 1);
                }
                self.workspace = Some(ws);
                self.attach_telemetry();
                // The old analysis state described a different history;
                // the next lint is a full one.
                self.linter = HistoryLinter::new();
                let mut out = format!("opened workspace `{path}`: {recovery}\n");
                let _ = writeln!(out, "recovery: {}", recovery.to_json());
                self.last_recovery = Some(recovery);
                Ok(out)
            }
            Command::Checkpoint => match self.workspace.as_mut() {
                None => Err(HerculesError::Store {
                    message: "no workspace attached; `save <path>` first".into(),
                }),
                Some(ws) => {
                    let kind = ws.checkpoint(&self.session).map_err(HerculesError::from)?;
                    self.session.mark_journaled();
                    let generation = ws.generation();
                    Ok(match kind {
                        CheckpointKind::Appended => format!(
                            "checkpointed; snapshot appended to generation {generation}'s journal\n"
                        ),
                        CheckpointKind::Rotated => {
                            format!("checkpointed; rotated to generation {generation}\n")
                        }
                        CheckpointKind::Synced => format!(
                            "checkpointed; generation {generation}'s journal already holds every change\n"
                        ),
                    })
                }
            },
            Command::Scrub => match self.workspace.as_mut() {
                None => Err(HerculesError::Store {
                    message: "no workspace attached; `save <path>` or `open <path>` first".into(),
                }),
                Some(ws) => {
                    let report = ws.scrub(&self.session).map_err(HerculesError::from)?;
                    if report.repaired {
                        self.session.mark_journaled();
                    }
                    let mut out = format!("{report}\n");
                    let _ = writeln!(out, "scrub: {}", report.to_json());
                    Ok(out)
                }
            },
            Command::Lint { incremental } => {
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
                        timings
                            .extend(hercules_analyze::lint_flow_timed(flow, &mut out, &mut tick));
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
                    let name =
                        format!("{}.{}", names::ANALYZE_PASS_NS, t.code.to_ascii_lowercase());
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
                Ok(text)
            }
            Command::Stale => {
                let stale = self.session.db().stale_instances()?;
                if stale.is_empty() {
                    return Ok("stale: everything is current\n".to_owned());
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
                Ok(out)
            }
            Command::Health { json } => {
                let report = self.health_report();
                if json {
                    Ok(format!("{}\n", report.to_json()))
                } else {
                    Ok(report.render_text())
                }
            }
            Command::CacheOpen(dir) => {
                let cache = hercules_cache::ContentCache::open(
                    &self.env.fs,
                    &dir,
                    hercules_cache::CacheConfig::default(),
                    self.env.clock.clone(),
                    self.session.metrics().clone(),
                )
                .map_err(|e| HerculesError::Store {
                    message: format!("cache open failed: {e}"),
                })?;
                self.session.attach_content_cache(cache);
                Ok(format!("content cache attached at {dir}\n"))
            }
            Command::CacheStats => match self.session.content_cache() {
                Some(cache) => Ok(cache.stats().render_text()),
                None => Ok("content cache: not attached (`cache open <dir>`)\n".to_owned()),
            },
            Command::CacheGc => match self.session.content_cache() {
                Some(cache) => {
                    let r = cache.gc().map_err(|e| HerculesError::Store {
                        message: format!("cache gc failed: {e}"),
                    })?;
                    Ok(format!(
                        "cache gc: scanned {} entries, evicted {}, dropped {} damaged, reaped {} tmp, {} -> {} bytes\n",
                        r.scanned, r.evicted, r.dropped, r.reaped_tmp, r.bytes_before, r.bytes_after
                    ))
                }
                None => Ok("content cache: not attached (`cache open <dir>`)\n".to_owned()),
            },
        }
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
    /// with a durably anchored session stamp and tees the session
    /// tracer into a bounded ring that [`Ui::pump_telemetry`] drains
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
                let recorder = Arc::new(FlightRecorder::new());
                self.session
                    .attach_trace_sink(recorder.clone() as Arc<dyn Collector>);
                self.telemetry = Some(Telemetry {
                    recorder,
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

    /// Drains the flight-recorder ring into the sidecar and, when the
    /// export interval has elapsed, appends a metrics-delta record and
    /// fsyncs the stream. Runs after every command; all I/O here is
    /// best-effort (see [`crate::telemetry`]).
    fn pump_telemetry(&mut self) {
        let Some(t) = self.telemetry.as_mut() else {
            return;
        };
        let metrics = self.session.metrics().clone();
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
        let bytes = t.recorder.drain();
        if !bytes.is_empty() {
            let records = bytes.iter().filter(|&&b| b == b'\n').count() as u64;
            metrics.incr(names::TELEMETRY_RECORDS, records);
            t.writer.append(&bytes);
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

/// Convenience constructor mirroring [`Session::start`].
impl From<Approach> for Command {
    fn from(a: Approach) -> Command {
        match a {
            Approach::Goal(g) => Command::Goal(g),
            Approach::Tool(t) => Command::Tool(t),
            Approach::Data(d) => Command::Data(d),
            Approach::Plan(p) => Command::Plan(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_commands() {
        assert_eq!(
            Command::parse("goal Performance").expect("ok"),
            Command::Goal("Performance".into())
        );
        assert_eq!(
            Command::parse("expand n3").expect("ok"),
            Command::Expand(NodeId::from_index(3))
        );
        assert_eq!(
            Command::parse("select n2 i7 i9").expect("ok"),
            Command::Select(
                NodeId::from_index(2),
                vec![InstanceId::from_raw(7), InstanceId::from_raw(9)]
            )
        );
        assert!(Command::parse("").is_err());
        assert!(Command::parse("frobnicate").is_err());
        assert!(Command::parse("expand x3").is_err());
        assert!(Command::parse("select n2").is_err());
    }

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
    fn approach_converts_to_command() {
        let c: Command = Approach::Goal("Layout".into()).into();
        assert_eq!(c, Command::Goal("Layout".into()));
    }

    #[test]
    fn parse_workspace_commands() {
        assert_eq!(
            Command::parse("save /tmp/ws").expect("ok"),
            Command::Save("/tmp/ws".into())
        );
        assert_eq!(
            Command::parse("open /tmp/ws").expect("ok"),
            Command::Open("/tmp/ws".into())
        );
        assert_eq!(
            Command::parse("checkpoint").expect("ok"),
            Command::Checkpoint
        );
        assert_eq!(Command::parse("scrub").expect("ok"), Command::Scrub);
        assert_eq!(Command::parse("resume").expect("ok"), Command::Resume);
        assert!(Command::parse("save").is_err());
        assert!(Command::parse("open").is_err());
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

    #[test]
    fn parse_lint_and_stale_commands() {
        assert_eq!(
            Command::parse("lint").expect("ok"),
            Command::Lint { incremental: false }
        );
        assert_eq!(
            Command::parse("lint --incremental").expect("ok"),
            Command::Lint { incremental: true }
        );
        assert_eq!(Command::parse("stale").expect("ok"), Command::Stale);
        assert!(Command::parse("lint --frobnicate").is_err());
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
