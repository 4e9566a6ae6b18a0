//! A Hercules design session: one designer, one schema, one history
//! database, one flow under construction.

use std::sync::Arc;

use hercules_exec::{Binding, EncapsulationRegistry, ExecReport, Executor, TaskAction};
use hercules_flow::{Expansion, FlowCatalog, FlowSpec, NodeId, TaskGraph};
use hercules_history::{DerivationTree, HistoryDb, InstanceId};
use hercules_obs::{Metrics, RingBuffer, TraceEvent, Tracer};
use hercules_schema::{EntityTypeId, TaskSchema};
use hercules_sim::{Clock, Interleaver};
use serde::{Deserialize, Serialize};

use crate::error::HerculesError;
use crate::persist::FlowOp;

/// One entry in the session's execution event log: what an execution
/// (run, subflow run, retrace, or resume) did, including failures and
/// skips — the audit trail of the fault-tolerant engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecEvent {
    /// What triggered the execution: `run`, `run-subflow`, `retrace`,
    /// or `resume`.
    pub operation: String,
    /// Subtasks the execution touched (including failed and skipped).
    pub tasks: usize,
    /// Tool invocations that ran to completion.
    pub runs: usize,
    /// Subtasks served entirely from cache.
    pub cache_hits: usize,
    /// Subtasks that failed permanently.
    pub failed: usize,
    /// Subtasks skipped because something upstream failed.
    pub skipped: usize,
    /// Rendered error of each permanently failed subtask, in execution
    /// order.
    pub failures: Vec<String>,
    /// The error that aborted the execution, when it returned `Err`.
    pub error: Option<String>,
    /// Wall-clock milliseconds since the Unix epoch when the event was
    /// recorded. Defaults to 0 when loading journals written before
    /// this field existed.
    #[serde(default)]
    pub wall_unix_ms: u64,
    /// Monotonic nanoseconds since the session tracer's epoch —
    /// consistent with the trace's span timestamps. 0 for pre-existing
    /// journals or sessions without tracing.
    #[serde(default)]
    pub mono_ns: u64,
}

/// Both clocks for an event stamp: the tracer's pair when tracing is
/// on (so event and span timestamps line up exactly), the session
/// clock's wall time otherwise — under simulation that is the virtual
/// clock, so event stamps are deterministic per seed.
fn stamp_clocks(tracer: &Tracer, clock: &Clock) -> (u64, u64) {
    if tracer.is_enabled() {
        (tracer.now_ns(), tracer.wall_unix_ms())
    } else {
        (0, clock.wall_unix_ms())
    }
}

impl ExecEvent {
    fn from_report(
        operation: &str,
        report: &ExecReport,
        tracer: &Tracer,
        clock: &Clock,
    ) -> ExecEvent {
        let (mono_ns, wall_unix_ms) = stamp_clocks(tracer, clock);
        ExecEvent {
            operation: operation.to_owned(),
            tasks: report.tasks.len(),
            runs: report.runs(),
            cache_hits: report.cache_hits(),
            failed: report.failed(),
            skipped: report.skipped(),
            failures: report
                .tasks
                .iter()
                .filter_map(|t| match &t.action {
                    TaskAction::Failed { error } => Some(error.to_string()),
                    _ => None,
                })
                .collect(),
            error: None,
            wall_unix_ms,
            mono_ns,
        }
    }

    fn aborted(
        operation: &str,
        error: &HerculesError,
        tracer: &Tracer,
        clock: &Clock,
    ) -> ExecEvent {
        let (mono_ns, wall_unix_ms) = stamp_clocks(tracer, clock);
        ExecEvent {
            operation: operation.to_owned(),
            tasks: 0,
            runs: 0,
            cache_hits: 0,
            failed: 0,
            skipped: 0,
            failures: Vec::new(),
            error: Some(error.to_string()),
            wall_unix_ms,
            mono_ns,
        }
    }

    /// Returns `true` when the execution finished without failures,
    /// skips, or an abort.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.skipped == 0 && self.error.is_none()
    }
}

/// The four §3.4 design approaches: "Any one of four different
/// approaches may be selected."
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Approach {
    /// Goal-based: "designers identify a task by first selecting the
    /// goal entity of the task from the task schema."
    Goal(String),
    /// Tool-based: start from the tool entity to work with.
    Tool(String),
    /// Data-based: start from an existing piece of data.
    Data(InstanceId),
    /// Plan-based: choose a flow from the catalog.
    Plan(String),
}

/// A design session of the Hercules task manager (§4).
///
/// # Examples
///
/// ```
/// use hercules::Session;
///
/// # fn main() -> Result<(), hercules::HerculesError> {
/// let mut session = Session::odyssey("sutton");
/// // Goal-based approach: I want a performance report.
/// let perf = session.start_from_goal("Performance")?;
/// session.expand(perf)?;
/// assert_eq!(session.flow()?.leaves().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    schema: Arc<TaskSchema>,
    db: HistoryDb,
    executor: Executor,
    catalog: FlowCatalog,
    flow: Option<TaskGraph>,
    /// Flow-construction tape: the operations that built `flow`, in
    /// order. [`FlowSpec`] compacts tombstones away, so the flow under
    /// construction is persisted as this tape instead — replaying it
    /// reproduces the exact node ids (including tombstones) that the
    /// binding and journal refer to.
    tape: Vec<FlowOp>,
    binding: Binding,
    user: String,
    last_report: Option<ExecReport>,
    events: Vec<ExecEvent>,
    /// The trace ring the session tracer records into: the one store
    /// of its events. The REPL's `trace`/`profile` commands read
    /// snapshots of it and the workspace flight recorder drains it.
    trace_ring: Arc<RingBuffer>,
    tracer: Tracer,
    metrics: Metrics,
    /// Time source for event stamps and (via the executor options)
    /// retry backoff sleeps; [`Clock::real`] unless
    /// [`Session::set_sim`] installed a simulated one.
    clock: Clock,
    /// `true` once state a checkpoint snapshot captures — the history,
    /// catalog, flow tape, binding, events or last report — changed
    /// since the session last matched its workspace's journal (see
    /// [`Session::has_unjournaled_changes`]).
    unjournaled: bool,
}

/// Events the session's trace ring retains — enough for several full
/// executions of a realistic flow before old spans age out.
const TRACE_RING_CAPACITY: usize = 8192;

impl Clone for Session {
    /// A session of its own: the clone's tracer records into a copy of
    /// this session's trace ring, so neither writes the other's
    /// events. The metrics registry stays shared.
    fn clone(&self) -> Session {
        let trace_ring = Arc::new((*self.trace_ring).clone());
        let tracer = self.tracer.fork(trace_ring.clone());
        let mut executor = self.executor.clone();
        executor.options_mut().tracer = tracer.clone();
        Session {
            schema: self.schema.clone(),
            db: self.db.clone(),
            executor,
            catalog: self.catalog.clone(),
            flow: self.flow.clone(),
            tape: self.tape.clone(),
            binding: self.binding.clone(),
            user: self.user.clone(),
            last_report: self.last_report.clone(),
            events: self.events.clone(),
            trace_ring,
            tracer,
            metrics: self.metrics.clone(),
            clock: self.clock.clone(),
            unjournaled: self.unjournaled,
        }
    }
}

impl Session {
    /// Creates a session over an arbitrary schema and tool registry,
    /// with an empty history database.
    ///
    /// Tracing and metrics are on by default, feeding an in-memory ring
    /// (see [`Session::trace_events`]); use
    /// [`Session::disable_observability`] to run with zero-cost
    /// disabled handles instead.
    pub fn new(schema: Arc<TaskSchema>, registry: EncapsulationRegistry, user: &str) -> Session {
        let db = HistoryDb::new(schema.clone());
        let trace_ring = Arc::new(RingBuffer::new(TRACE_RING_CAPACITY));
        let tracer = Tracer::new(trace_ring.clone());
        let metrics = Metrics::new();
        let mut executor = Executor::new(registry);
        executor.options_mut().user = user.to_owned();
        executor.options_mut().tracer = tracer.clone();
        executor.options_mut().metrics = metrics.clone();
        Session {
            schema,
            db,
            executor,
            catalog: FlowCatalog::new(),
            flow: None,
            tape: Vec::new(),
            binding: Binding::new(),
            user: user.to_owned(),
            last_report: None,
            events: Vec::new(),
            trace_ring,
            tracer,
            metrics,
            clock: Clock::real(),
            unjournaled: false,
        }
    }

    /// Runs this session against a simulated environment: event stamps
    /// use the virtual `clock`, retry backoff sleeps advance it instead
    /// of blocking, scheduler picks among ready tasks are delegated to
    /// `interleave`, and retry jitter derives from `jitter_seed` — so
    /// one seed fixes the session's entire schedule.
    pub fn set_sim(&mut self, clock: Clock, interleave: Interleaver, jitter_seed: u64) {
        self.clock = clock.clone();
        // Re-stamp the tracer from the virtual clock too; otherwise
        // trace timestamps (and the exec-event stamps derived from
        // them) leak real time into replays.
        if self.tracer.is_enabled() {
            self.tracer = Tracer::with_time_source(
                self.trace_ring.clone(),
                Arc::new(hercules_sim::ClockTimeSource::new(clock.clone())),
            );
        }
        let options = self.executor.options_mut();
        options.clock = clock;
        options.interleave = interleave;
        options.jitter_seed = jitter_seed;
        options.tracer = self.tracer.clone();
    }

    /// Creates the standard demonstration session: the Odyssey schema,
    /// the simulated EDA tools, and a seeded standard library (see
    /// [`setup`](crate::setup)).
    pub fn odyssey(user: &str) -> Session {
        crate::setup::odyssey_session(user)
    }

    /// Returns the schema.
    pub fn schema(&self) -> &Arc<TaskSchema> {
        &self.schema
    }

    /// Returns the history database.
    pub fn db(&self) -> &HistoryDb {
        &self.db
    }

    /// Returns mutable access to the history database (for seeding and
    /// annotation). Edits made this way are not journaled: the session
    /// counts as holding unjournaled changes until a checkpoint
    /// snapshots it.
    pub fn db_mut(&mut self) -> &mut HistoryDb {
        self.unjournaled = true;
        &mut self.db
    }

    /// Returns the user-id of this session.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Returns the flow catalog.
    pub fn catalog(&self) -> &FlowCatalog {
        &self.catalog
    }

    /// Returns mutable access to the flow catalog.
    pub fn catalog_mut(&mut self) -> &mut FlowCatalog {
        self.unjournaled = true;
        &mut self.catalog
    }

    /// Returns the executor (to adjust options such as parallelism).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.executor
    }

    /// Attaches a content-addressed result cache: every execution —
    /// `run`, `resume`, `run_subflow` — consults it ahead of tool
    /// dispatch and writes produced results back. Open the cache on a
    /// shared root to reuse results across sessions and workspaces
    /// (see [`hercules_cache::ContentCache::open`]).
    pub fn attach_content_cache(&mut self, cache: hercules_cache::ContentCache) {
        self.executor.options_mut().cache = Some(cache);
    }

    /// The attached content cache, if any.
    pub fn content_cache(&self) -> Option<&hercules_cache::ContentCache> {
        self.executor.options().cache.as_ref()
    }

    /// Returns the session's tracer (shared with the executor).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Returns the session's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Snapshot of the buffered trace events, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace_ring.snapshot()
    }

    /// The trace ring the session's tracer records into (a flight
    /// recorder drains it; see [`hercules_obs::FlightRecorder`]).
    pub fn trace_ring(&self) -> &Arc<RingBuffer> {
        &self.trace_ring
    }

    /// Empties the trace ring (e.g. to isolate the next run's trace).
    pub fn clear_trace(&self) {
        self.trace_ring.clear();
    }

    /// Turns tracing and metrics off for this session: every
    /// instrumentation point in the executor collapses to a branch.
    /// Used by benchmarks to measure the no-observability baseline.
    pub fn disable_observability(&mut self) {
        self.tracer = Tracer::disabled();
        self.metrics = Metrics::disabled();
        self.executor.options_mut().tracer = Tracer::disabled();
        self.executor.options_mut().metrics = Metrics::disabled();
    }

    /// Returns the flow under construction.
    ///
    /// # Errors
    ///
    /// Returns [`HerculesError::NoActiveFlow`] before any `start_*`.
    pub fn flow(&self) -> Result<&TaskGraph, HerculesError> {
        self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)
    }

    fn flow_mut(&mut self) -> Result<&mut TaskGraph, HerculesError> {
        self.flow.as_mut().ok_or(HerculesError::NoActiveFlow)
    }

    /// Installs an externally built flow (e.g. a recalled trace or a
    /// Fig. 8 fixture), clearing previous bindings.
    ///
    /// Persistence caveat: the construction tape records the installed
    /// flow via [`FlowSpec`], which compacts tombstones — a restored
    /// session renumbers any dead node slots the installed flow carried.
    /// Flows built through the session's own methods are unaffected.
    pub fn install_flow(&mut self, flow: TaskGraph) {
        self.unjournaled = true;
        self.tape = vec![FlowOp::Install {
            spec: FlowSpec::from_task_graph(&flow),
        }];
        self.flow = Some(flow);
        self.binding = Binding::new();
        self.last_report = None;
    }

    /// Returns the current binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Returns the last execution report, if any.
    pub fn last_report(&self) -> Option<&ExecReport> {
        self.last_report.as_ref()
    }

    /// Returns the execution event log: one entry per `run`,
    /// `run_subflow`, or `retrace` call, oldest first, including
    /// executions that failed or were aborted.
    pub fn events(&self) -> &[ExecEvent] {
        &self.events
    }

    /// Abandons the flow under construction (the `Clear` button of
    /// Fig. 9).
    pub fn clear_flow(&mut self) {
        self.unjournaled = true;
        self.flow = None;
        self.tape.clear();
        self.binding = Binding::new();
        self.last_report = None;
    }

    /// `true` when the session holds state that its workspace's journal
    /// lacks: a change to anything a checkpoint snapshot captures (the
    /// history, catalog, flow tape, binding, events or last report)
    /// since the session last matched the journal. A new session starts
    /// clear, and so does one [`Workspace::open_session`] recovers;
    /// `Ui` clears it after `save`, a checkpoint or a repairing
    /// `scrub`, and after journaling a command made while it was clear.
    /// Changes to the tool registry, tracer, executor options or cache
    /// never set it: no snapshot captures them.
    ///
    /// [`Workspace::checkpoint`] writes a snapshot whenever this is
    /// `true`.
    ///
    /// [`Workspace::open_session`]: crate::store::Workspace::open_session
    /// [`Workspace::checkpoint`]: crate::store::Workspace::checkpoint
    pub fn has_unjournaled_changes(&self) -> bool {
        self.unjournaled
    }

    // ------------------------------------------------------------------
    // Persistence hooks (crate-internal; see `persist` and `store`).
    // ------------------------------------------------------------------

    /// Records that the workspace's journal (with its snapshots) now
    /// holds every change of this session.
    pub(crate) fn mark_journaled(&mut self) {
        self.unjournaled = false;
    }

    /// The flow-construction tape since the last clear/install.
    pub(crate) fn flow_ops(&self) -> &[FlowOp] {
        &self.tape
    }

    /// Replaces the binding wholesale (extensional restore).
    pub(crate) fn set_binding(&mut self, binding: Binding) {
        self.unjournaled = true;
        self.binding = binding;
    }

    /// Replaces the event log wholesale.
    pub(crate) fn set_events(&mut self, events: Vec<ExecEvent>) {
        self.unjournaled = true;
        self.events = events;
    }

    /// Appends one replayed event.
    pub(crate) fn push_event(&mut self, event: ExecEvent) {
        self.unjournaled = true;
        self.events.push(event);
    }

    /// Replaces the last execution report (restored extensionally).
    pub(crate) fn set_last_report(&mut self, report: Option<ExecReport>) {
        self.unjournaled = true;
        self.last_report = report;
    }

    // ------------------------------------------------------------------
    // The four design approaches (§3.4).
    // ------------------------------------------------------------------

    /// Starts a flow using any of the four approaches; returns the seed
    /// node for goal/tool/data starts, or the flow's first output node
    /// for plan starts.
    ///
    /// # Errors
    ///
    /// Unknown names and ill-typed starts.
    pub fn start(&mut self, approach: Approach) -> Result<NodeId, HerculesError> {
        match approach {
            Approach::Goal(name) => self.start_from_goal(&name),
            Approach::Tool(name) => self.start_from_tool(&name),
            Approach::Data(instance) => self.start_from_data(instance),
            Approach::Plan(name) => self.start_from_plan(&name),
        }
    }

    /// Goal-based approach: seed the flow with the goal entity.
    ///
    /// # Errors
    ///
    /// Returns a schema error for unknown entity names.
    pub fn start_from_goal(&mut self, entity: &str) -> Result<NodeId, HerculesError> {
        let id = self.schema.require(entity)?;
        self.seed(id)
    }

    /// Tool-based approach: seed the flow with a tool entity.
    ///
    /// # Errors
    ///
    /// Returns a schema error for unknown tool names.
    pub fn start_from_tool(&mut self, tool: &str) -> Result<NodeId, HerculesError> {
        let id = self.schema.require(tool)?;
        self.seed(id)
    }

    /// Data-based approach: seed the flow with the entity of an
    /// existing instance, and bind the node to it immediately.
    ///
    /// # Errors
    ///
    /// Returns a history error for unknown instances.
    pub fn start_from_data(&mut self, instance: InstanceId) -> Result<NodeId, HerculesError> {
        let entity = self.db.instance(instance)?.entity();
        let node = self.seed(entity)?;
        self.binding.bind(node, instance);
        Ok(node)
    }

    /// Plan-based approach: instantiate a stored flow from the catalog.
    /// Returns its first output node.
    ///
    /// # Errors
    ///
    /// Returns a flow error for unknown catalog names.
    pub fn start_from_plan(&mut self, name: &str) -> Result<NodeId, HerculesError> {
        let flow = self.catalog.instantiate(name, self.schema.clone())?;
        let out = flow.outputs().first().copied();
        // Record the instantiated structure, not the name: the catalog
        // entry may be overwritten later, the tape must not change.
        self.install_flow(flow);
        out.ok_or(HerculesError::NoActiveFlow)
    }

    fn seed(&mut self, entity: EntityTypeId) -> Result<NodeId, HerculesError> {
        if self.flow.is_none() {
            self.flow = Some(TaskGraph::new(self.schema.clone()));
        }
        let node = self.flow_mut()?.seed(entity)?;
        self.record_flow_op(FlowOp::Seed {
            entity: self.schema.entity(entity).name().to_owned(),
        });
        Ok(node)
    }

    /// Appends a completed construction step to the tape.
    fn record_flow_op(&mut self, op: FlowOp) {
        self.unjournaled = true;
        self.tape.push(op);
    }

    // ------------------------------------------------------------------
    // Flow construction (proxied to hercules-flow).
    // ------------------------------------------------------------------

    /// Expands a node (the `Expand` menu entry).
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::expand`].
    pub fn expand(&mut self, node: NodeId) -> Result<Vec<NodeId>, HerculesError> {
        self.expand_with(node, &Expansion::new())
    }

    /// Expands a node with options (optional deps, reuse).
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::expand_with`].
    pub fn expand_with(
        &mut self,
        node: NodeId,
        options: &Expansion,
    ) -> Result<Vec<NodeId>, HerculesError> {
        let created = self.flow_mut()?.expand_with(node, options)?;
        let name = |e: EntityTypeId| self.schema.entity(e).name().to_owned();
        let op = FlowOp::Expand {
            node: node.index(),
            optional: options.include_optional.iter().map(|&e| name(e)).collect(),
            reuse: options
                .reuse
                .iter()
                .map(|&(e, n)| (name(e), n.index()))
                .collect(),
            reuse_existing: options.reuse_existing,
        };
        self.record_flow_op(op);
        Ok(created)
    }

    /// Expands downward towards a consumer entity.
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::expand_down`].
    pub fn expand_down(
        &mut self,
        node: NodeId,
        consumer: &str,
    ) -> Result<(NodeId, Vec<NodeId>), HerculesError> {
        let entity = self.schema.require(consumer)?;
        let created = self
            .flow_mut()?
            .expand_down(node, entity, &Expansion::new())?;
        self.record_flow_op(FlowOp::ExpandDown {
            node: node.index(),
            consumer: consumer.to_owned(),
        });
        Ok(created)
    }

    /// Specializes an abstract node to a subtype.
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::specialize`].
    pub fn specialize(&mut self, node: NodeId, subtype: &str) -> Result<(), HerculesError> {
        let entity = self.schema.require(subtype)?;
        self.flow_mut()?.specialize(node, entity)?;
        self.record_flow_op(FlowOp::Specialize {
            node: node.index(),
            subtype: subtype.to_owned(),
        });
        Ok(())
    }

    /// Unexpands a node (the `Unexpand` menu entry).
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::unexpand`].
    pub fn unexpand(&mut self, node: NodeId) -> Result<Vec<NodeId>, HerculesError> {
        let removed = self.flow_mut()?.unexpand(node)?;
        self.record_flow_op(FlowOp::Unexpand { node: node.index() });
        Ok(removed)
    }

    /// Expands everything reachable from a node down to primary or
    /// abstract leaves.
    ///
    /// # Errors
    ///
    /// See [`TaskGraph::expand_all`].
    pub fn expand_all(&mut self, node: NodeId) -> Result<Vec<NodeId>, HerculesError> {
        let created = self.flow_mut()?.expand_all(node)?;
        self.record_flow_op(FlowOp::ExpandAll { node: node.index() });
        Ok(created)
    }

    // ------------------------------------------------------------------
    // Browsing, binding, running.
    // ------------------------------------------------------------------

    /// Lists the instances selectable for a node (its entity family),
    /// newest first — the browser of Fig. 9b without filters. Use
    /// [`BrowserQuery`](hercules_history::BrowserQuery) directly for
    /// filtered browsing.
    ///
    /// # Errors
    ///
    /// Returns flow errors for dead nodes.
    pub fn browse(&self, node: NodeId) -> Result<Vec<InstanceId>, HerculesError> {
        let entity = self.flow()?.entity_of(node)?;
        let mut out = self.db.instances_of_family(entity);
        out.reverse();
        Ok(out)
    }

    /// Selects an instance for a leaf node.
    pub fn select(&mut self, node: NodeId, instance: InstanceId) {
        self.unjournaled = true;
        self.binding.bind(node, instance);
    }

    /// Selects several instances for a leaf node (multi-select
    /// fan-out, §4.1).
    pub fn select_many(&mut self, node: NodeId, instances: &[InstanceId]) {
        self.unjournaled = true;
        self.binding.bind_many(node, instances);
    }

    /// Binds every unbound leaf to the newest instance of its family;
    /// returns leaves that stayed unbound.
    ///
    /// # Errors
    ///
    /// Returns [`HerculesError::NoActiveFlow`] with no flow.
    pub fn bind_latest(&mut self) -> Result<Vec<NodeId>, HerculesError> {
        let flow = self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)?;
        self.unjournaled = true;
        Ok(self.binding.bind_latest(flow, &self.db))
    }

    /// Executes the flow; products are recorded in the history.
    ///
    /// # Errors
    ///
    /// See [`Executor::execute`].
    pub fn run(&mut self) -> Result<&ExecReport, HerculesError> {
        let flow = self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)?;
        self.unjournaled = true;
        let result = self.executor.execute(flow, &self.binding, &mut self.db);
        let report = self.log_execution("run", result, |report| report)?;
        Ok(self.last_report.insert(report))
    }

    /// Resumes the last partially failed execution: re-runs only the
    /// subtasks that failed or were skipped, serving every already
    /// committed subtask from the design history as a cache hit. This
    /// is how a [`FailurePolicy::ContinueDisjoint`] run (or a restored
    /// session) is completed without repeating finished work.
    ///
    /// [`FailurePolicy::ContinueDisjoint`]:
    /// hercules_exec::FailurePolicy::ContinueDisjoint
    ///
    /// # Errors
    ///
    /// [`HerculesError::NothingToResume`] when there is no last report
    /// or the last execution completed; otherwise as [`Session::run`].
    pub fn resume(&mut self) -> Result<&ExecReport, HerculesError> {
        match self.last_report.as_ref() {
            None => {
                return Err(HerculesError::NothingToResume {
                    reason: "no execution to resume".into(),
                })
            }
            Some(report) if report.is_complete() => {
                return Err(HerculesError::NothingToResume {
                    reason: "last execution completed; nothing failed or was skipped".into(),
                })
            }
            Some(_) => {}
        }
        let flow = self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)?;
        self.unjournaled = true;
        // Committed subtasks must come back as cache hits, whatever the
        // executor's normal caching preference is.
        let prev = self.executor.options().reuse_cached;
        self.executor.options_mut().reuse_cached = true;
        let result = self.executor.execute(flow, &self.binding, &mut self.db);
        self.executor.options_mut().reuse_cached = prev;
        let report = self.log_execution("resume", result, |report| report)?;
        Ok(self.last_report.insert(report))
    }

    /// Executes only the sub-flow rooted at `node` ("a subflow may be
    /// run at any stage as long as its dependencies are satisfied
    /// independently of the remainder of the flow", §4.1).
    ///
    /// # Errors
    ///
    /// See [`Executor::execute`].
    pub fn run_subflow(&mut self, node: NodeId) -> Result<ExecReport, HerculesError> {
        let flow = self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)?;
        let (sub, mapping) = flow.subflow(node)?;
        let mut sub_binding = Binding::new();
        for &(old, new) in &mapping {
            let bound = self.binding.get(old);
            if !bound.is_empty() {
                sub_binding.bind_many(new, bound);
            }
        }
        self.unjournaled = true;
        let result = self.executor.execute(&sub, &sub_binding, &mut self.db);
        self.log_execution("run-subflow", result, |report| report)
    }

    /// Stores the current flow in the catalog for the plan-based
    /// approach.
    ///
    /// # Errors
    ///
    /// Returns [`HerculesError::NoActiveFlow`] with no flow.
    pub fn store_flow(&mut self, name: &str, description: &str) -> Result<(), HerculesError> {
        let flow = self.flow.as_ref().ok_or(HerculesError::NoActiveFlow)?;
        let user = self.user.clone();
        self.unjournaled = true;
        self.catalog.store(name, flow, description, &user);
        Ok(())
    }

    // ------------------------------------------------------------------
    // History services.
    // ------------------------------------------------------------------

    /// The `History` menu entry of Fig. 10: reveals the instances used
    /// to create `instance`, to the given depth (`None` = all).
    ///
    /// # Errors
    ///
    /// Returns history errors for unknown instances.
    pub fn history_of(
        &self,
        instance: InstanceId,
        depth: Option<usize>,
    ) -> Result<DerivationTree, HerculesError> {
        Ok(self.db.backward_chain(instance, depth)?)
    }

    /// Retraces the flow that produced `instance` against the newest
    /// input versions (design-consistency maintenance, §3.3).
    ///
    /// # Errors
    ///
    /// See [`hercules_exec::retrace`].
    pub fn retrace(
        &mut self,
        instance: InstanceId,
    ) -> Result<hercules_exec::RetraceReport, HerculesError> {
        self.unjournaled = true;
        let result = hercules_exec::retrace(&self.executor, &mut self.db, instance);
        self.log_execution("retrace", result, |retraced| &retraced.report)
    }

    /// Logs one execution under `verb` in the event log: its report
    /// when it finished, else the error that aborted it.
    fn log_execution<T>(
        &mut self,
        verb: &str,
        result: Result<T, hercules_exec::ExecError>,
        report_of: impl Fn(&T) -> &ExecReport,
    ) -> Result<T, HerculesError> {
        match result {
            Ok(done) => {
                let event =
                    ExecEvent::from_report(verb, report_of(&done), &self.tracer, &self.clock);
                self.events.push(event);
                Ok(done)
            }
            Err(e) => {
                let e: HerculesError = e.into();
                self.events
                    .push(ExecEvent::aborted(verb, &e, &self.tracer, &self.clock));
                Err(e)
            }
        }
    }
}
