//! The execution engine: automatic task sequencing, multi-output
//! subtasks, multi-instance fan-out, caching, parallel disjoint
//! branches, and fault-tolerant supervision of every tool run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use hercules_cache::CacheKey;
use hercules_flow::{NodeId, TaskGraph};
use hercules_history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules_obs::{names, Metrics, SpanId, Tracer};
use hercules_schema::{EntityTypeId, TaskSchema};
use hercules_sim::{Clock, Interleaver, SimInstant};

use crate::binding::Binding;
use crate::content_cache;
use crate::encapsulation::{
    Encapsulation, EncapsulationRegistry, Invocation, MultiInstanceMode, ToolInput, ToolOutput,
};
use crate::error::ExecError;
use crate::policy::{FailurePolicy, RetryPolicy};
use crate::supervise;

/// Options controlling one execution.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// User recorded on produced instances.
    pub user: String,
    /// Execute independent ready subtasks on separate threads (Fig. 6:
    /// "disjoint branches in the flow can be executed in parallel").
    pub parallel: bool,
    /// Worker threads for the parallel scheduler. `0` sizes the pool
    /// automatically (one per available core, at least 2), and the
    /// pool never exceeds the subtask count. The pool starts at the
    /// first subtask that needs a tool, so an execution the caches
    /// answer whole starts none. Ignored when `parallel` is false.
    pub workers: usize,
    /// Reuse current cached results instead of re-running tools
    /// (§3.3's "has this extraction already been performed?").
    pub reuse_cached: bool,
    /// Upper bound on multi-instance fan-out per subtask.
    pub fanout_limit: usize,
    /// Per-invocation watchdog deadline. `None` waits indefinitely;
    /// with a deadline set, an overrunning tool is abandoned and
    /// reported as [`ExecError::ToolTimedOut`].
    pub deadline: Option<Duration>,
    /// Retry schedule for failed invocations.
    pub retry: RetryPolicy,
    /// What one subtask's permanent failure means for the rest of the
    /// flow.
    pub failure: FailurePolicy,
    /// Tracing handle. The default ([`Tracer::disabled`]) makes every
    /// instrumentation point a branch, so execution pays nothing when
    /// no one is watching.
    pub tracer: Tracer,
    /// Metrics registry (disabled by default, like `tracer`).
    pub metrics: Metrics,
    /// Where the engine reads time: epochs, attempt durations, queue
    /// waits, and retry backoff all go through this handle. The
    /// default is the machine clock; a simulation substitutes a
    /// virtual one so backoff sleeps advance simulated time instantly.
    pub clock: Clock,
    /// Consulted by the serial dataflow pump whenever more than one
    /// subtask is ready. The default preserves the engine's own
    /// priority order; a simulation randomizes (and logs) the pick to
    /// explore alternative schedules from a seed.
    pub interleave: Interleaver,
    /// Extra salt folded into every retry-jitter hash, so a simulated
    /// run's whole backoff schedule is a function of its seed. Zero
    /// (the default) reproduces the historical schedule.
    pub jitter_seed: u64,
    /// Content-addressed result cache, looked up on the scheduling
    /// thread before a subtask's tools are dispatched (`None`, the
    /// default, disables it). A hit replays the cached outputs into the
    /// history — byte-identical to running the tool — and a produced
    /// result is written back for future sessions. Under the parallel
    /// scheduler one execution runs each content key's tool at most
    /// once at a time: a subtask whose key another subtask is
    /// producing waits for it and replays its result. Unlike
    /// `reuse_cached` (same workspace, current instances) this matches
    /// on content, so it hits across sessions, workspaces, and machines
    /// that share a tier.
    pub cache: Option<hercules_cache::ContentCache>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            user: "hercules".into(),
            parallel: false,
            workers: 0,
            reuse_cached: false,
            fanout_limit: 1024,
            deadline: None,
            retry: RetryPolicy::default(),
            failure: FailurePolicy::default(),
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
            clock: Clock::real(),
            interleave: Interleaver::fifo(),
            jitter_seed: 0,
            cache: None,
        }
    }
}

/// What happened to one subtask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskAction {
    /// The tool ran this many times (fan-out counts as several runs).
    Ran {
        /// Number of tool invocations.
        runs: usize,
    },
    /// Every output was served from a current cached instance.
    Cached,
    /// The subtask failed permanently (after exhausting retries) and
    /// execution continued under
    /// [`FailurePolicy::ContinueDisjoint`].
    Failed {
        /// The final error of the last attempt.
        error: ExecError,
    },
    /// The subtask never ran: something upstream of it failed.
    Skipped,
}

/// Per-subtask record of one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRecord {
    /// Output nodes of the subtask.
    pub outputs: Vec<NodeId>,
    /// What happened.
    pub action: TaskAction,
    /// Largest number of attempts any single invocation of this
    /// subtask needed (0 when nothing was invoked).
    pub attempts: u32,
    /// Wall-clock time spent running (and retrying) the subtask's
    /// invocations.
    pub duration: Duration,
    /// Offset of the subtask's start from the start of the execution —
    /// with `duration`, enough to reconstruct a Gantt/trace view of a
    /// finished run (see [`crate::trace::report_to_trace`]).
    pub started: Duration,
}

/// The result of executing a flow.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    produced: HashMap<NodeId, Vec<InstanceId>>,
    /// Subtask records in execution order.
    pub tasks: Vec<TaskRecord>,
}

impl ExecReport {
    /// Reassembles a report from its parts — the inverse of
    /// [`ExecReport::produced`] plus `tasks`, used when restoring a
    /// persisted report from disk.
    pub fn from_parts(
        produced: HashMap<NodeId, Vec<InstanceId>>,
        tasks: Vec<TaskRecord>,
    ) -> ExecReport {
        ExecReport { produced, tasks }
    }

    /// Iterates over every node's produced (or bound) instances.
    pub fn produced(&self) -> impl Iterator<Item = (NodeId, &[InstanceId])> + '_ {
        self.produced.iter().map(|(&n, v)| (n, v.as_slice()))
    }

    /// Returns the instances produced for (or bound to) a node.
    pub fn instances_of(&self, node: NodeId) -> &[InstanceId] {
        self.produced.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns the single instance of a node, or an error when the
    /// node has zero or several — the non-panicking companion of
    /// [`ExecReport::single`].
    ///
    /// # Errors
    ///
    /// [`ExecError::NotSingleInstance`] with the offending count.
    pub fn try_single(&self, node: NodeId) -> Result<InstanceId, ExecError> {
        let all = self.instances_of(node);
        if all.len() == 1 {
            Ok(all[0])
        } else {
            Err(ExecError::NotSingleInstance {
                node,
                count: all.len(),
            })
        }
    }

    /// Returns the single instance of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node has zero or several instances; use
    /// [`ExecReport::try_single`] to handle that case, or
    /// [`ExecReport::instances_of`] for fanned-out nodes.
    pub fn single(&self, node: NodeId) -> InstanceId {
        match self.try_single(node) {
            Ok(inst) => inst,
            Err(e) => panic!("{e}"),
        }
    }

    /// Total tool invocations across all subtasks.
    pub fn runs(&self) -> usize {
        self.tasks
            .iter()
            .map(|t| match t.action {
                TaskAction::Ran { runs } => runs,
                TaskAction::Cached | TaskAction::Failed { .. } | TaskAction::Skipped => 0,
            })
            .sum()
    }

    /// Number of subtasks fully served from cache.
    pub fn cache_hits(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.action == TaskAction::Cached)
            .count()
    }

    /// Number of subtasks that failed permanently.
    pub fn failed(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t.action, TaskAction::Failed { .. }))
            .count()
    }

    /// Number of subtasks skipped because something upstream failed.
    pub fn skipped(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| t.action == TaskAction::Skipped)
            .count()
    }

    /// The first failure in execution order, if any subtask failed.
    pub fn first_error(&self) -> Option<&ExecError> {
        self.tasks.iter().find_map(|t| match &t.action {
            TaskAction::Failed { error } => Some(error),
            _ => None,
        })
    }

    /// Returns `true` when every subtask ran or was served from cache.
    pub fn is_complete(&self) -> bool {
        self.failed() == 0 && self.skipped() == 0
    }
}

/// One grouped subtask: output nodes sharing a tool application.
#[derive(Debug, Clone)]
struct Subtask {
    outputs: Vec<NodeId>,
    tool: Option<NodeId>,
    inputs: Vec<NodeId>,
}

/// Identical invocations within one execution record one shared
/// product: "each design object may be uniquely identified according to
/// the sequence of tool/data transformations used in creating that
/// object" (section 1) — performing the same transformation twice
/// yields the same object, not a duplicate.
type InvocationCache =
    HashMap<(Option<InstanceId>, Vec<InstanceId>, Vec<EntityTypeId>), Vec<InstanceId>>;

/// The flow executor.
///
/// # Examples
///
/// See the crate-level documentation for an end-to-end run.
#[derive(Debug, Clone)]
pub struct Executor {
    registry: EncapsulationRegistry,
    options: ExecOptions,
}

impl Executor {
    /// Creates an executor over a registry with default options.
    pub fn new(registry: EncapsulationRegistry) -> Executor {
        Executor {
            registry,
            options: ExecOptions::default(),
        }
    }

    /// Returns the options.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Returns mutable options.
    pub fn options_mut(&mut self) -> &mut ExecOptions {
        &mut self.options
    }

    /// Returns the registry.
    pub fn registry(&self) -> &EncapsulationRegistry {
        &self.registry
    }

    /// Returns mutable access to the registry — e.g. to wrap a tool in
    /// a [`crate::FaultyEncapsulation`] for chaos testing.
    pub fn registry_mut(&mut self) -> &mut EncapsulationRegistry {
        &mut self.registry
    }

    /// Executes a flow: binds leaves, sequences subtasks automatically
    /// from the dependencies (flow automation, §3.3), runs tools through
    /// their encapsulations and records every product in the design
    /// history.
    ///
    /// # Errors
    ///
    /// Structural errors ([`ExecError::Flow`]), binding errors, missing
    /// encapsulations, tool failures, and fan-out overflows.
    pub fn execute(
        &self,
        flow: &TaskGraph,
        binding: &Binding,
        db: &mut HistoryDb,
    ) -> Result<ExecReport, ExecError> {
        let tracer = &self.options.tracer;
        let epoch = self.options.clock.now();
        let exec_span = tracer.begin_with("execute", SpanId::NONE, |a| {
            a.bool("parallel", self.options.parallel);
            a.uint("nodes", flow.len() as u64);
        });
        let result = self.execute_dataflow(flow, binding, db, epoch, exec_span);
        match &result {
            Ok(report) => {
                let metrics = &self.options.metrics;
                metrics.incr("exec.executions", 1);
                metrics.incr("exec.runs", report.runs() as u64);
                metrics.incr("exec.cache_hits", report.cache_hits() as u64);
                metrics.incr("exec.failed_subtasks", report.failed() as u64);
                metrics.incr("exec.skipped_subtasks", report.skipped() as u64);
                tracer.end_with(exec_span, |a| {
                    a.bool("ok", true);
                    a.uint("tasks", report.tasks.len() as u64);
                    a.uint("runs", report.runs() as u64);
                    a.uint("cache_hits", report.cache_hits() as u64);
                });
            }
            Err(error) => {
                self.options.metrics.incr("exec.aborted_executions", 1);
                let msg = error.to_string();
                tracer.end_with(exec_span, |a| {
                    a.bool("ok", false);
                    a.str("error", msg.as_str());
                });
            }
        }
        result
    }

    /// Commits one successful subtask outcome: records every produced
    /// instance in the history (deduplicating identical invocations
    /// through `invocation_cache`), publishes the instances to
    /// `available`, and appends the [`TaskRecord`]. Commits always happen
    /// serially on the scheduling thread, which is what keeps dedup and
    /// the history deterministic.
    #[allow(clippy::too_many_arguments)]
    fn commit_runs(
        &self,
        p: &PreparedSubtask,
        runs: Vec<RunResult>,
        attempts: u32,
        duration: Duration,
        started: Duration,
        db: &mut HistoryDb,
        invocation_cache: &mut InvocationCache,
        available: &mut HashMap<NodeId, Vec<InstanceId>>,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        let mut per_output: Vec<Vec<InstanceId>> = vec![Vec::new(); p.subtask.outputs.len()];
        let mut executed = 0usize;
        for (run, result) in p.runs.iter().zip(runs) {
            // A content-cache replay records the same history as a
            // fresh production; it just doesn't count as an execution.
            let (outputs, ran) = match result {
                RunResult::Current(instances) => {
                    for (slot, inst) in instances.into_iter().enumerate() {
                        per_output[slot].push(inst);
                    }
                    continue;
                }
                RunResult::Outputs { outputs, ran } => (outputs, ran),
            };
            let (tool_instance, input_instances) = (run.tool_instance, &run.input_instances);
            let key = (
                tool_instance,
                input_instances.clone(),
                outputs.iter().map(|o| o.entity).collect::<Vec<_>>(),
            );
            if let Some(shared) = invocation_cache.get(&key) {
                // An identical invocation already committed in this
                // execution: share its products instead of recording
                // twins.
                for (slot, &inst) in shared.iter().enumerate() {
                    per_output[slot].push(inst);
                }
                continue;
            }
            if ran {
                executed += 1;
            }
            let mut recorded = Vec::with_capacity(outputs.len());
            for (slot, out) in outputs.into_iter().enumerate() {
                let derivation = match tool_instance {
                    Some(t) => Derivation::by_tool(t, input_instances.iter().copied()),
                    None => Derivation::by_composition(input_instances.iter().copied()),
                };
                let mut meta = Metadata::by(&self.options.user);
                if !out.name.is_empty() {
                    meta = meta.named(&out.name);
                }
                let inst = db.record_derived(out.entity, meta, &out.data, derivation)?;
                per_output[slot].push(inst);
                recorded.push(inst);
            }
            invocation_cache.insert(key, recorded);
        }
        for (slot, &node) in p.subtask.outputs.iter().enumerate() {
            available.insert(node, per_output[slot].clone());
            report.produced.insert(node, per_output[slot].clone());
        }
        report.tasks.push(TaskRecord {
            outputs: p.subtask.outputs.clone(),
            action: if executed == 0 {
                TaskAction::Cached
            } else {
                TaskAction::Ran { runs: executed }
            },
            attempts,
            duration,
            started,
        });
        Ok(())
    }

    /// The event-driven dataflow executor: per-task dependency
    /// counters, a priority ready queue ordered by downstream
    /// critical-path length, and a worker pool. A task's completion
    /// decrements its successors' counters and enqueues the newly-ready
    /// ones immediately — disjoint sub-flows proceed independently,
    /// with no barriers between levels (§3.3, Fig. 6).
    fn execute_dataflow(
        &self,
        flow: &TaskGraph,
        binding: &Binding,
        db: &mut HistoryDb,
        epoch: SimInstant,
        exec_span: SpanId,
    ) -> Result<ExecReport, ExecError> {
        flow.validate_for_execution()?;
        binding.validate(flow, db)?;

        let tracer = &self.options.tracer;

        let mut report = ExecReport::default();
        let mut available: HashMap<NodeId, Vec<InstanceId>> = HashMap::new();
        for (node, instances) in binding.iter() {
            available.insert(node, instances.to_vec());
            report.produced.insert(node, instances.to_vec());
        }
        let mut invocation_cache = InvocationCache::new();

        let subtasks = group_subtasks(flow)?;
        let total = subtasks.len();

        // One scheduler epoch spans the whole execution — the parent of
        // every task span.
        let epoch_span = tracer.begin_with("epoch", exec_span, |a| {
            a.uint("tasks", total as u64);
        });
        let _epoch_guard = SpanGuard {
            tracer,
            id: epoch_span,
        };

        let (dep_count, successors, producers_of) = dependency_edges(&subtasks, &available);
        let priority = subtask_priorities(&subtasks, &producers_of);
        let mut st = SchedState {
            subtasks,
            priority,
            dep_count,
            successors,
            task_state: vec![TaskState::Waiting; total],
            dead: HashSet::new(),
            seq: 0,
            in_flight: 0,
            flights: Flights::default(),
        };
        let env = SchedEnv {
            flow,
            epoch,
            epoch_span,
            exec_span,
            // A pool of one worker is the serial pump. An automatic
            // pool has at least two, so choosing needs no core count.
            parallel: self.options.parallel && total > 1 && self.options.workers != 1,
        };
        let queue = ReadyQueue::default();

        // Seed the queue with every subtask whose dependencies are all
        // bound already.
        for i in 0..total {
            if st.dep_count[i] == 0 {
                self.dispatch_ready(&mut st, &env, i, &queue, &available, db)?;
            }
        }

        if env.parallel {
            self.pump_parallel(
                &mut st,
                &env,
                &queue,
                db,
                &mut invocation_cache,
                &mut available,
                &mut report,
            )?;
        } else {
            // Serial dataflow: same ready-queue ordering by default;
            // under simulation the interleaver picks among every ready
            // candidate, so each dispatch is an explicit simulator
            // event and one seed induces one schedule. One subtask runs
            // at a time, so each is looked up when it is popped, after
            // every earlier one wrote its results back: no claims.
            let schema = flow.schema();
            while let Some(mut task) = queue.try_pop_pick(&self.options.interleave) {
                self.resolve(schema, &mut task.prepared, None, db)?;
                let outcome = task.prepared.run_all(schema, &self.options, &task.ctx);
                self.finish_task(
                    &mut st,
                    &env,
                    &queue,
                    task.index,
                    &task.prepared,
                    outcome,
                    db,
                    &mut invocation_cache,
                    &mut available,
                    &mut report,
                )?;
            }
        }

        if st.task_state.contains(&TaskState::Waiting) {
            // Every reachable subtask ran, failed, or was skipped;
            // leftovers mean the graph could never make progress.
            // validate_for_execution guarantees this cannot happen —
            // defensive check against corrupt graphs.
            return Err(ExecError::Flow(hercules_flow::FlowError::Cycle));
        }
        Ok(report)
    }

    /// Runs the parallel scheduling loop. This thread completes the
    /// subtasks that dispatch resolved whole ([`Executor::route`]),
    /// commits serially and dispatches successors; workers pull the
    /// subtasks that need a tool from the ready queue and report
    /// completions over a channel. The pool starts with the first such
    /// subtask.
    #[allow(clippy::too_many_arguments)]
    fn pump_parallel(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        queue: &ReadyQueue,
        db: &mut HistoryDb,
        invocation_cache: &mut InvocationCache,
        available: &mut HashMap<NodeId, Vec<InstanceId>>,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        let schema = env.flow.schema();
        let options = &self.options;
        std::thread::scope(|scope| {
            let (done_tx, done_rx) = mpsc::channel::<Completion>();
            // Held until the pool starts. Then only workers hold a
            // sender, so a pool that exits whole ends `recv` instead of
            // hanging it.
            let mut done_tx = Some(done_tx);
            let run = (|| loop {
                if st.flights.queued {
                    if let Some(done_tx) = done_tx.take() {
                        let workers = self.pool_size(st.subtasks.len());
                        options.tracer.instant("pool", env.epoch_span, |a| {
                            a.uint("workers", workers as u64);
                        });
                        for _ in 0..workers {
                            let done_tx = done_tx.clone();
                            scope.spawn(move || work(queue, schema, options, &done_tx));
                        }
                    }
                }
                // Complete what the lookups resolved before blocking:
                // such a subtask gets no queue push, worker wake-up or
                // channel send.
                if let Some(mut task) = st.flights.resolved.pop_front() {
                    let outcome = task.prepared.run_all(schema, options, &task.ctx);
                    self.finish_task(
                        st,
                        env,
                        queue,
                        task.index,
                        &task.prepared,
                        outcome,
                        db,
                        invocation_cache,
                        available,
                        report,
                    )?;
                    continue;
                }
                if st.in_flight == 0 {
                    return Ok(());
                }
                // Whatever is left is queued, running, or parked on a
                // claimant that is: only a worker can make progress.
                drop(done_tx.take());
                let c = done_rx.recv().map_err(|_| ExecError::ToolPanicked {
                    tool: "subtask worker".into(),
                    message: "worker pool exited with tasks in flight".into(),
                })?;
                self.finish_task(
                    st,
                    env,
                    queue,
                    c.index,
                    &c.prepared,
                    c.outcome,
                    db,
                    invocation_cache,
                    available,
                    report,
                )?;
            })();
            // Wake idle workers so the pool drains; in-flight tasks
            // finish their current run and exit on the next pop.
            queue.close();
            run
        })
    }

    /// Prepares one ready subtask and stamps its dispatch instant (the
    /// start of its queue wait). The serial pump queues it as it is;
    /// the parallel pump routes it by its lookups first.
    fn dispatch_ready(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        index: usize,
        queue: &ReadyQueue,
        available: &HashMap<NodeId, Vec<InstanceId>>,
        db: &HistoryDb,
    ) -> Result<(), ExecError> {
        let metrics = &self.options.metrics;
        let dispatch_started = self.options.clock.now();
        let prepared = self.prepare(env.flow, &st.subtasks[index], available, db)?;
        st.task_state[index] = TaskState::Scheduled;
        st.in_flight += 1;
        st.seq += 1;
        let task = ReadyTask {
            priority: st.priority[index],
            seq: st.seq,
            index,
            prepared,
            ctx: DispatchCtx {
                span: env.epoch_span,
                epoch: env.epoch,
                dispatched: self.options.clock.now(),
            },
        };
        if env.parallel {
            self.route(&mut st.flights, env.flow.schema(), task, queue, db)?;
        } else {
            queue.push(task, metrics);
        }
        metrics.observe_duration(
            "exec.sched_dispatch_ns",
            self.options.clock.since(dispatch_started),
        );
        Ok(())
    }

    /// Routes a ready subtask of the parallel pump by
    /// [`Executor::resolve`]: one resolved whole waits for the
    /// scheduling thread, one with a tool to run goes to the ready
    /// queue, and one with a key another subtask claimed parks until
    /// that claimant finishes.
    fn route(
        &self,
        flights: &mut Flights,
        schema: &TaskSchema,
        mut task: ReadyTask,
        queue: &ReadyQueue,
        db: &HistoryDb,
    ) -> Result<(), ExecError> {
        match self.resolve(schema, &mut task.prepared, Some(&mut flights.claims), db)? {
            Resolution::Resolved => flights.resolved.push_back(task),
            Resolution::Invoke => {
                flights.queued = true;
                queue.push(task, &self.options.metrics);
            }
            Resolution::Wait(key) => {
                self.options.metrics.incr(names::CACHE_WAITS, 1);
                task.prepared.waits.push(key);
                flights.waiters.entry(key).or_default().push(task);
            }
        }
        Ok(())
    }

    /// Picks the route of each run not yet resolved, on the scheduling
    /// thread: a content-cache hit replays its entry; a miss runs the
    /// tool, and only then are its payloads copied; a run whose key an
    /// earlier run of the same subtask invokes repeats that run's
    /// outputs. With `claims` (the parallel pump) a miss claims its key
    /// for this subtask, and a subtask with a run whose key is claimed
    /// already waits, looking nothing up.
    fn resolve(
        &self,
        schema: &TaskSchema,
        prepared: &mut PreparedSubtask,
        mut claims: Option<&mut HashSet<CacheKey>>,
        db: &HistoryDb,
    ) -> Result<Resolution, ExecError> {
        if let Some(claims) = claims.as_deref() {
            let claimed = prepared
                .runs
                .iter()
                .filter(|r| matches!(r.route, Route::Unresolved))
                .find_map(|r| r.key.filter(|k| claims.contains(k)));
            if let Some(key) = claimed {
                return Ok(Resolution::Wait(key));
            }
        }
        let mut invoked: HashMap<CacheKey, usize> = HashMap::new();
        for i in 0..prepared.runs.len() {
            let run = &prepared.runs[i];
            if !matches!(run.route, Route::Unresolved) {
                continue;
            }
            let route = match (&self.options.cache, run.key) {
                (Some(cache), Some(key)) => {
                    if let Some(&first) = invoked.get(&key) {
                        Route::Repeat(first)
                    } else if let Some(outputs) = cache.lookup(&key).and_then(|entry| {
                        content_cache::outputs_from_entry(schema, entry, &prepared.output_entities)
                    }) {
                        Route::Hit(outputs)
                    } else {
                        invoked.insert(key, i);
                        if let Some(claims) = claims.as_deref_mut() {
                            claims.insert(key);
                            prepared.claimed.push(key);
                        }
                        Route::Invoke(prepared.invocation(db, run)?)
                    }
                }
                _ => Route::Invoke(prepared.invocation(db, run)?),
            };
            prepared.runs[i].route = route;
        }
        let invokes = prepared
            .runs
            .iter()
            .any(|r| matches!(r.route, Route::Invoke(_)));
        Ok(if invokes {
            Resolution::Invoke
        } else {
            Resolution::Resolved
        })
    }

    /// Handles one completed subtask on the scheduling thread: commits
    /// its products (or records the failure and skips its downstream
    /// cone), releases the content keys it claimed, then decrements
    /// successors' dependency counters and dispatches the newly-ready
    /// ones.
    #[allow(clippy::too_many_arguments)]
    fn finish_task(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        queue: &ReadyQueue,
        index: usize,
        prepared: &PreparedSubtask,
        outcome: SubtaskOutcome,
        db: &mut HistoryDb,
        invocation_cache: &mut InvocationCache,
        available: &mut HashMap<NodeId, Vec<InstanceId>>,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        st.in_flight -= 1;
        st.task_state[index] = TaskState::Terminal;
        let (attempts, duration, started) = (outcome.attempts, outcome.duration, outcome.started);
        match outcome.result {
            Ok(runs) => {
                self.commit_runs(
                    prepared,
                    runs,
                    attempts,
                    duration,
                    started,
                    db,
                    invocation_cache,
                    available,
                    report,
                )?;
                self.release_claims(st, env, queue, prepared, db)?;
                for j in st.successors[index].clone() {
                    st.dep_count[j] -= 1;
                    if st.dep_count[j] == 0 && st.task_state[j] == TaskState::Waiting {
                        self.dispatch_ready(st, env, j, queue, available, db)?;
                    }
                }
                Ok(())
            }
            Err(error) => {
                if self.options.failure == FailurePolicy::Abort {
                    // Nothing of this subtask commits; the error
                    // propagates and the pool drains.
                    return Err(error);
                }
                // ContinueDisjoint: report the failure, then skip its
                // whole downstream cone.
                st.dead.extend(prepared.subtask.outputs.iter().copied());
                report.tasks.push(TaskRecord {
                    outputs: prepared.subtask.outputs.clone(),
                    action: TaskAction::Failed { error },
                    attempts,
                    duration,
                    started,
                });
                let mut frontier = st.successors[index].clone();
                while let Some(j) = frontier.pop() {
                    if st.task_state[j] != TaskState::Waiting {
                        continue;
                    }
                    let doomed = st.subtasks[j].inputs.iter().any(|i| st.dead.contains(i))
                        || st.subtasks[j].tool.is_some_and(|t| st.dead.contains(&t));
                    if !doomed {
                        continue;
                    }
                    st.task_state[j] = TaskState::Terminal;
                    st.dead.extend(st.subtasks[j].outputs.iter().copied());
                    self.options.tracer.instant("skip", env.exec_span, |a| {
                        a.str("outputs", node_list(&st.subtasks[j].outputs));
                    });
                    report.tasks.push(TaskRecord {
                        outputs: st.subtasks[j].outputs.clone(),
                        action: TaskAction::Skipped,
                        attempts: 0,
                        duration: Duration::ZERO,
                        started: self.options.clock.since(env.epoch),
                    });
                    frontier.extend(st.successors[j].iter().copied());
                }
                self.release_claims(st, env, queue, prepared, db)
            }
        }
    }

    /// Releases the content keys a finished subtask claimed and routes
    /// the subtasks parked on them again: after a success their lookups
    /// hit; after a failure the first of them claims the key and runs
    /// the tool, and the rest park on it.
    fn release_claims(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        queue: &ReadyQueue,
        prepared: &PreparedSubtask,
        db: &HistoryDb,
    ) -> Result<(), ExecError> {
        for key in &prepared.claimed {
            st.flights.claims.remove(key);
            for task in st.flights.waiters.remove(key).unwrap_or_default() {
                self.route(&mut st.flights, env.flow.schema(), task, queue, db)?;
            }
        }
        Ok(())
    }

    /// Sizes the worker pool: explicit [`ExecOptions::workers`], else
    /// one per available core (at least 2), never more than the number
    /// of subtasks.
    fn pool_size(&self, tasks: usize) -> usize {
        let chosen = match self.options.workers {
            0 => auto_workers(),
            n => n,
        };
        chosen.clamp(1, tasks.max(1))
    }

    /// Prepares one subtask: resolves instances, computes the fan-out
    /// and keys each run from the digests the history holds. It copies
    /// no payload: [`Executor::resolve`] copies a run's payloads once
    /// its lookup missed.
    fn prepare(
        &self,
        flow: &TaskGraph,
        subtask: &Subtask,
        available: &HashMap<NodeId, Vec<InstanceId>>,
        db: &HistoryDb,
    ) -> Result<PreparedSubtask, ExecError> {
        let schema = flow.schema();
        let lookup_entity = match subtask.tool {
            Some(t) => flow.entity_of(t)?,
            None => flow.entity_of(subtask.outputs[0])?,
        };
        let enc = self
            .registry
            .lookup(schema, lookup_entity)
            .ok_or_else(|| ExecError::MissingEncapsulation {
                entity: schema.entity(lookup_entity).name().to_owned(),
            })?
            .clone();

        let tool_instances: Vec<InstanceId> = match subtask.tool {
            Some(t) => available.get(&t).cloned().unwrap_or_default(),
            None => Vec::new(),
        };
        let input_instances: Vec<(EntityTypeId, Vec<InstanceId>)> = subtask
            .inputs
            .iter()
            .map(|&i| {
                Ok((
                    flow.entity_of(i)?,
                    available.get(&i).cloned().unwrap_or_default(),
                ))
            })
            .collect::<Result<_, ExecError>>()?;

        // Fan-out: cartesian product over multi-instance slots under
        // RunPerInstance; a single call under SingleCall.
        let mode = enc.multi_instance_mode();
        let combos: Vec<RunInputs> = match mode {
            MultiInstanceMode::SingleCall => {
                let tools = if subtask.tool.is_some() {
                    if tool_instances.len() != 1 {
                        return Err(ExecError::ToolFailed {
                            tool: schema.entity(lookup_entity).name().to_owned(),
                            message: "single-call tools need exactly one tool instance".into(),
                        });
                    }
                    Some(tool_instances[0])
                } else {
                    None
                };
                vec![RunInputs {
                    tool: tools,
                    inputs: input_instances.clone(),
                }]
            }
            MultiInstanceMode::RunPerInstance => {
                let mut combos = vec![RunInputs {
                    tool: None,
                    inputs: Vec::new(),
                }];
                if subtask.tool.is_some() {
                    combos = tool_instances
                        .iter()
                        .map(|&t| RunInputs {
                            tool: Some(t),
                            inputs: Vec::new(),
                        })
                        .collect();
                }
                for (entity, instances) in &input_instances {
                    let mut next = Vec::with_capacity(combos.len() * instances.len());
                    for combo in &combos {
                        for &inst in instances {
                            let mut c = combo.clone();
                            c.inputs.push((*entity, vec![inst]));
                            next.push(c);
                        }
                    }
                    combos = next;
                    if combos.len() > self.options.fanout_limit {
                        return Err(ExecError::FanOutTooLarge {
                            runs: combos.len(),
                            limit: self.options.fanout_limit,
                        });
                    }
                }
                combos
            }
        };

        let output_entities: Vec<EntityTypeId> = subtask
            .outputs
            .iter()
            .map(|&o| flow.entity_of(o))
            .collect::<Result<_, _>>()?;
        let mut runs = Vec::with_capacity(combos.len());
        for combo in combos {
            let input_instances: Vec<InstanceId> = combo
                .inputs
                .iter()
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            let current: Option<Vec<InstanceId>> = if self.options.reuse_cached {
                output_entities
                    .iter()
                    .map(|&e| db.current_cached(e, combo.tool, &input_instances))
                    .collect()
            } else {
                None
            };
            // The content key folds the digests the history computed
            // when it stored each payload; only a cache reads it.
            let key = match (&self.options.cache, &current) {
                (Some(_), None) => {
                    let tool = match combo.tool {
                        Some(t) => db.instance(t)?.data(),
                        None => None,
                    };
                    let inputs = combo
                        .inputs
                        .iter()
                        .map(|(entity, instances)| {
                            let digests = instances
                                .iter()
                                .map(|&i| Ok(content_cache::input_digest(db.instance(i)?.data())))
                                .collect::<Result<_, ExecError>>()?;
                            Ok((*entity, digests))
                        })
                        .collect::<Result<Vec<_>, ExecError>>()?;
                    Some(content_cache::invocation_key(
                        schema,
                        lookup_entity,
                        tool,
                        &inputs,
                        &output_entities,
                    ))
                }
                _ => None,
            };
            runs.push(PreparedRun {
                tool_instance: combo.tool,
                inputs: combo.inputs,
                input_instances,
                key,
                route: current.map_or(Route::Unresolved, Route::Current),
            });
        }
        let mut dep_nodes = subtask.inputs.clone();
        if let Some(t) = subtask.tool {
            dep_nodes.push(t);
        }
        Ok(PreparedSubtask {
            label: format!(
                "{}#n{}",
                schema.entity(lookup_entity).name(),
                subtask.outputs[0].index()
            ),
            outputs_attr: node_list(&subtask.outputs),
            inputs_attr: node_list(&dep_nodes),
            subtask: subtask.clone(),
            enc,
            tool_entity: lookup_entity,
            runs,
            output_entities,
            claimed: Vec::new(),
            waits: Vec::new(),
        })
    }
}

/// One worker of the parallel pump: pops subtasks until the queue
/// closes, runs each one's tools, and sends the outcome back to the
/// scheduling thread.
fn work(
    queue: &ReadyQueue,
    schema: &std::sync::Arc<TaskSchema>,
    options: &ExecOptions,
    done_tx: &mpsc::Sender<Completion>,
) {
    while let Some(mut task) = queue.pop(&options.metrics, &options.clock) {
        // run_all catches tool panics itself; this guards against
        // panics in the engine's own plumbing so one worker can never
        // wedge the scheduler waiting for a lost completion.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            task.prepared.run_all(schema, options, &task.ctx)
        }))
        .unwrap_or_else(|payload| SubtaskOutcome {
            result: Err(ExecError::ToolPanicked {
                tool: "subtask worker".into(),
                message: supervise::panic_message(payload.as_ref()),
            }),
            attempts: 0,
            duration: Duration::ZERO,
            started: options.clock.since(task.ctx.epoch),
        });
        let sent = done_tx.send(Completion {
            index: task.index,
            prepared: task.prepared,
            outcome,
        });
        if sent.is_err() {
            break;
        }
    }
}

/// The automatic pool size: one worker per available core, at least 2.
/// The core count is asked of the operating system once per process.
fn auto_workers() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .max(2)
    })
}

/// Renders nodes as the space-separated `n<index>` list used by trace
/// attributes (the profiler derives the task DAG from these).
fn node_list(nodes: &[NodeId]) -> String {
    let mut out = String::new();
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push('n');
        out.push_str(&n.index().to_string());
    }
    out
}

/// Ends a span when dropped, so error paths cannot leak open spans.
struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.tracer.end(self.id);
    }
}

/// Per-dispatch context threaded into subtask runs: the parent span of
/// the task span (the scheduler epoch), the execution epoch (task start
/// offsets are relative to it), and the dispatch instant (queue wait =
/// how long a ready subtask sat before it started running, parked time
/// included).
struct DispatchCtx {
    span: SpanId,
    epoch: SimInstant,
    dispatched: SimInstant,
}

/// Where one subtask is in its dataflow lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Dependencies outstanding.
    Waiting,
    /// Queued, parked on a claimant, or running.
    Scheduled,
    /// Committed, failed, or skipped.
    Terminal,
}

/// Mutable bookkeeping of one dataflow execution, shared between the
/// initial seeding and every completion.
struct SchedState {
    subtasks: Vec<Subtask>,
    /// Static dispatch priority per subtask (downstream critical-path
    /// length).
    priority: Vec<u64>,
    /// Outstanding producer subtasks per subtask.
    dep_count: Vec<usize>,
    /// Consumer subtasks per subtask (the reverse edges).
    successors: Vec<Vec<usize>>,
    task_state: Vec<TaskState>,
    /// Nodes downstream of a permanent failure.
    dead: HashSet<NodeId>,
    /// Dispatch sequence counter (FIFO tiebreak among equal
    /// priorities).
    seq: u64,
    /// Subtasks queued, running, parked on a claimant, or awaiting
    /// the scheduling thread.
    in_flight: usize,
    /// The parallel pump's content-cache routing (unused by the serial
    /// pump).
    flights: Flights,
}

/// The parallel pump's content-cache routing state. The scheduling
/// thread owns it, so it needs no lock.
#[derive(Default)]
struct Flights {
    /// Content keys whose tool an in-flight subtask runs: single-flight
    /// within one execution.
    claims: HashSet<CacheKey>,
    /// Subtasks parked until the claimant of a key finishes.
    waiters: HashMap<CacheKey, Vec<ReadyTask>>,
    /// Subtasks whose every run was resolved without a tool, in the
    /// order they resolved: the scheduling thread completes them.
    resolved: VecDeque<ReadyTask>,
    /// Whether a subtask went to the ready queue; the pool starts then.
    queued: bool,
}

/// Where [`Executor::resolve`] sends a subtask.
enum Resolution {
    /// Every run has its result: there is no tool to run.
    Resolved,
    /// At least one run needs its tool.
    Invoke,
    /// A run's key is claimed by another in-flight subtask.
    Wait(CacheKey),
}

/// Immutable context of one dataflow execution.
struct SchedEnv<'a> {
    flow: &'a TaskGraph,
    epoch: SimInstant,
    epoch_span: SpanId,
    exec_span: SpanId,
    /// Whether the parallel pump runs this execution.
    parallel: bool,
}

/// One dispatched subtask waiting to run.
struct ReadyTask {
    /// Downstream critical-path length; longer poles pop first.
    priority: u64,
    /// Dispatch sequence number; FIFO among equal priorities.
    seq: u64,
    index: usize,
    prepared: PreparedSubtask,
    ctx: DispatchCtx,
}

impl PartialEq for ReadyTask {
    fn eq(&self, other: &ReadyTask) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for ReadyTask {}

impl PartialOrd for ReadyTask {
    fn partial_cmp(&self, other: &ReadyTask) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyTask {
    fn cmp(&self, other: &ReadyTask) -> Ordering {
        // Max-heap: higher priority first, then earlier dispatch.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A finished subtask on its way back to the scheduling thread.
struct Completion {
    index: usize,
    prepared: PreparedSubtask,
    outcome: SubtaskOutcome,
}

/// The scheduler's ready queue: a max-heap of prepared subtasks ordered
/// by dispatch priority, shared with the persistent workers behind a
/// mutex + condvar (mpsc channels are single-consumer, so they cannot
/// feed a pool).
#[derive(Default)]
struct ReadyQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<ReadyTask>,
    closed: bool,
}

impl ReadyQueue {
    fn push(&self, task: ReadyTask, metrics: &Metrics) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.heap.push(task);
        metrics.observe("exec.queue_depth", state.heap.len() as u64);
        drop(state);
        self.ready.notify_one();
    }

    /// Pops the highest-priority ready task, blocking until one arrives
    /// or the queue closes. Time spent blocked is a worker's idle time.
    fn pop(&self, metrics: &Metrics, clock: &Clock) -> Option<ReadyTask> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(task) = state.heap.pop() {
                return Some(task);
            }
            if state.closed {
                return None;
            }
            let idle_from = clock.now();
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
            metrics.observe_duration("exec.worker_idle_ns", clock.since(idle_from));
        }
    }

    /// Non-blocking pop for the serial pump. The real interleaver
    /// takes the heap's own maximum (priority order, FIFO tiebreak);
    /// a simulated one sees every ready candidate in deterministic
    /// order and picks one, logging the choice.
    fn try_pop_pick(&self, interleave: &Interleaver) -> Option<ReadyTask> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !interleave.is_sim() {
            return state.heap.pop();
        }
        let mut candidates: Vec<ReadyTask> = std::mem::take(&mut state.heap).into_vec();
        if candidates.is_empty() {
            return None;
        }
        // Present candidates in the heap's own order (priority desc,
        // then dispatch order) so the index → task mapping is stable.
        candidates.sort_by(|a, b| b.cmp(a));
        let labels: Vec<&str> = candidates
            .iter()
            .map(|t| t.prepared.label.as_str())
            .collect();
        let pick = interleave.choose_labeled(&labels);
        let task = candidates.swap_remove(pick);
        state.heap.extend(candidates);
        Some(task)
    }

    /// Closes the queue: blocked and future pops return `None` once the
    /// heap drains, letting the worker pool exit.
    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// Builds the subtask-level dependency graph: how many producer
/// subtasks each subtask waits on (`dep_count`), who consumes whom
/// (`successors`), and each subtask's producers (for the priority
/// analysis). A dependency with neither a producer subtask nor a bound
/// instance leaves its consumer permanently blocked, which the cycle
/// check at the end of the execution reports.
#[allow(clippy::type_complexity)]
fn dependency_edges(
    subtasks: &[Subtask],
    available: &HashMap<NodeId, Vec<InstanceId>>,
) -> (Vec<usize>, Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut producer: HashMap<NodeId, usize> = HashMap::new();
    for (i, s) in subtasks.iter().enumerate() {
        for &o in &s.outputs {
            producer.insert(o, i);
        }
    }
    let mut dep_count = vec![0usize; subtasks.len()];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); subtasks.len()];
    let mut producers_of: Vec<Vec<usize>> = vec![Vec::new(); subtasks.len()];
    for (i, s) in subtasks.iter().enumerate() {
        let mut seen = HashSet::new();
        for dep in s.inputs.iter().copied().chain(s.tool) {
            match producer.get(&dep) {
                Some(&j) if j != i => {
                    if seen.insert(j) {
                        dep_count[i] += 1;
                        successors[j].push(i);
                        producers_of[i].push(j);
                    }
                }
                Some(_) => {}
                None => {
                    if !available.contains_key(&dep) {
                        dep_count[i] += 1;
                    }
                }
            }
        }
    }
    (dep_count, successors, producers_of)
}

/// Static dispatch priorities: each subtask's downstream critical-path
/// length over estimated costs (one abstract unit per invocation plus
/// one per output), i.e. its own cost plus that of its costliest chain
/// of consumers. The longest pole dispatches first, so a straggler
/// branch starts as early as its dependencies allow. Subtasks come in
/// topological order (see [`group_subtasks`]), so a reverse sweep has
/// every consumer's length final before its producers read it.
fn subtask_priorities(subtasks: &[Subtask], producers_of: &[Vec<usize>]) -> Vec<u64> {
    let mut down = vec![0u64; subtasks.len()];
    for i in (0..subtasks.len()).rev() {
        down[i] += 1 + subtasks[i].outputs.len() as u64;
        for &j in &producers_of[i] {
            down[j] = down[j].max(down[i]);
        }
    }
    down
}

#[derive(Debug, Clone)]
struct RunInputs {
    tool: Option<InstanceId>,
    inputs: Vec<(EntityTypeId, Vec<InstanceId>)>,
}

/// One run of a prepared subtask: the instances it reads and, once
/// resolved, where its outputs come from.
struct PreparedRun {
    tool_instance: Option<InstanceId>,
    /// Input instances by entity, in [`Invocation::inputs`] order.
    inputs: Vec<(EntityTypeId, Vec<InstanceId>)>,
    /// `inputs` flattened: the derivation its products record.
    input_instances: Vec<InstanceId>,
    /// Content-cache key, derived only when a cache is attached.
    key: Option<CacheKey>,
    route: Route,
}

/// Where one run's outputs come from.
enum Route {
    /// Not looked up yet (or already consumed by the run phase).
    Unresolved,
    /// A current instance per output (`reuse_cached`), found when the
    /// subtask was prepared.
    Current(Vec<InstanceId>),
    /// A content-cache hit: the entry's outputs, replayed.
    Hit(Vec<ToolOutput>),
    /// The lookup missed: the tool runs on these payloads.
    Invoke(Invocation),
    /// The key of this subtask's run at that index, which invokes the
    /// tool: its outputs are replayed.
    Repeat(usize),
}

/// The outcome of one run, before recording.
enum RunResult {
    /// Current instances (`reuse_cached`): nothing to record.
    Current(Vec<InstanceId>),
    /// Outputs to record. A content-cache replay (`ran` false) commits
    /// exactly like a fresh production, so a warm run's records are
    /// byte-identical to a cold run's, but does not count as an
    /// execution.
    Outputs { outputs: Vec<ToolOutput>, ran: bool },
}

struct PreparedSubtask {
    subtask: Subtask,
    enc: std::sync::Arc<dyn Encapsulation>,
    /// The entity whose encapsulation runs: the tool's, or the output's
    /// for a composition.
    tool_entity: EntityTypeId,
    runs: Vec<PreparedRun>,
    output_entities: Vec<EntityTypeId>,
    /// Content keys this subtask claimed (parallel pump only).
    claimed: Vec<CacheKey>,
    /// Content keys this subtask was parked on, in order.
    waits: Vec<CacheKey>,
    /// Trace label: the tool (or output) entity name plus the first
    /// output node, unique per subtask within one flow.
    label: String,
    /// Output nodes as a trace attribute (see [`node_list`]).
    outputs_attr: String,
    /// Dependency nodes (data inputs plus the tool node) as a trace
    /// attribute.
    inputs_attr: String,
}

/// What one subtask's run phase produced: either every run's result,
/// or the first permanent error — plus bookkeeping for the report.
struct SubtaskOutcome {
    result: Result<Vec<RunResult>, ExecError>,
    /// Largest number of attempts any single invocation needed.
    attempts: u32,
    duration: Duration,
    /// Start offset from the execution epoch.
    started: Duration,
}

impl PreparedSubtask {
    /// Deterministic jitter salt for one invocation of this subtask.
    /// Folding in `jitter_seed` ties the whole backoff schedule to the
    /// run's simulation seed: same seed, same delays, run after run.
    fn retry_salt(&self, run_index: usize, jitter_seed: u64) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (jitter_seed, self.subtask.outputs.first(), run_index).hash(&mut hasher);
        hasher.finish()
    }

    /// Validates one invocation's outputs against the subtask's
    /// products.
    fn check_outputs(
        &self,
        schema: &TaskSchema,
        invocation: &Invocation,
        outputs: &[ToolOutput],
    ) -> Result<(), ExecError> {
        if outputs.len() != self.output_entities.len() {
            return Err(ExecError::WrongOutputs {
                tool: schema.entity(invocation.tool_entity).name().to_owned(),
                detail: format!(
                    "expected {} outputs, got {}",
                    self.output_entities.len(),
                    outputs.len()
                ),
            });
        }
        for (out, &want) in outputs.iter().zip(&self.output_entities) {
            if !schema.is_subtype_of(out.entity, want) {
                return Err(ExecError::WrongOutputs {
                    tool: schema.entity(invocation.tool_entity).name().to_owned(),
                    detail: format!(
                        "expected `{}`, got `{}`",
                        schema.entity(want).name(),
                        schema.entity(out.entity).name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Runs one invocation under supervision, retrying per the policy.
    /// Returns the validated outputs and the number of attempts made.
    fn run_one(
        &self,
        schema: &std::sync::Arc<TaskSchema>,
        invocation: &Invocation,
        options: &ExecOptions,
        salt: u64,
        task_span: SpanId,
    ) -> (Result<Vec<ToolOutput>, ExecError>, u32) {
        let mut attempt = 1u32;
        loop {
            let attempt_span = options.tracer.begin_with("attempt", task_span, |a| {
                a.uint("attempt", u64::from(attempt));
            });
            let attempt_started = options.clock.now();
            let result = supervise::run_supervised(&self.enc, schema, invocation, options.deadline)
                .and_then(|outputs| {
                    self.check_outputs(schema, invocation, &outputs)?;
                    Ok(outputs)
                });
            options
                .metrics
                .observe_duration("exec.attempt_ns", options.clock.since(attempt_started));
            match result {
                Ok(outputs) => {
                    options.tracer.end_with(attempt_span, |a| {
                        a.bool("ok", true);
                    });
                    return (Ok(outputs), attempt);
                }
                Err(error) => {
                    let cause = error.to_string();
                    options.tracer.end_with(attempt_span, |a| {
                        a.bool("ok", false);
                        a.str("error", cause.as_str());
                    });
                    if attempt >= options.retry.max_attempts || !options.retry.is_retryable(&error)
                    {
                        return (Err(error), attempt);
                    }
                    attempt += 1;
                    let delay = options.retry.delay_before(attempt, salt);
                    options.metrics.incr("exec.retries", 1);
                    options.tracer.instant("retry", task_span, |a| {
                        a.uint("attempt", u64::from(attempt));
                        a.str("cause", cause.as_str());
                        a.uint("delay_ms", delay.as_millis() as u64);
                    });
                    options.clock.sleep(delay);
                }
            }
        }
    }

    /// The invocation of a run whose lookup missed: copies its tool and
    /// input payloads out of the history.
    fn invocation(&self, db: &HistoryDb, run: &PreparedRun) -> Result<Invocation, ExecError> {
        let tool_data = match run.tool_instance {
            Some(t) => db.data_of(t)?.map(<[u8]>::to_vec),
            None => None,
        };
        let inputs = run
            .inputs
            .iter()
            .map(|(entity, instances)| {
                let payloads = instances
                    .iter()
                    .map(|&i| Ok(db.data_of(i)?.map(<[u8]>::to_vec).unwrap_or_default()))
                    .collect::<Result<_, ExecError>>()?;
                Ok(ToolInput {
                    entity: *entity,
                    instances: payloads,
                })
            })
            .collect::<Result<_, ExecError>>()?;
        Ok(Invocation {
            tool_entity: self.tool_entity,
            tool_data,
            inputs,
            outputs: self.output_entities.clone(),
        })
    }

    /// Runs the subtask's resolved runs: replays hits and current
    /// instances, and runs each missed run's tool under supervision
    /// with retries, writing its result back to the content cache;
    /// stops at the first permanent failure. It looks nothing up:
    /// [`Executor::resolve`] routed every run on the scheduling thread.
    fn run_all(
        &mut self,
        schema: &std::sync::Arc<TaskSchema>,
        options: &ExecOptions,
        ctx: &DispatchCtx,
    ) -> SubtaskOutcome {
        let started = options.clock.now();
        let started_offset = started.duration_since(ctx.epoch);
        let queue_wait = started.duration_since(ctx.dispatched);
        options
            .metrics
            .observe_duration("exec.queue_wait_ns", queue_wait);
        let invoked = self
            .runs
            .iter()
            .filter(|r| matches!(r.route, Route::Invoke(_)))
            .count();
        let task_span = options.tracer.begin_with("task", ctx.span, |a| {
            a.str("task", self.label.as_str());
            a.str("outputs", self.outputs_attr.as_str());
            a.str("inputs", self.inputs_attr.as_str());
            a.uint("runs", self.runs.len() as u64);
            a.bool("cache_hit", invoked == 0);
            a.uint("queue_wait_ns", queue_wait.as_nanos() as u64);
        });
        for key in &self.waits {
            options
                .tracer
                .instant("content_cache_wait", task_span, |a| {
                    a.str("key", key.to_hex().as_str());
                });
        }
        let mut attempts = 0u32;
        let mut content_hits = 0u64;
        let mut results: Vec<RunResult> = Vec::with_capacity(self.runs.len());
        for run_index in 0..self.runs.len() {
            let key = self.runs[run_index].key;
            let route = std::mem::replace(&mut self.runs[run_index].route, Route::Unresolved);
            let result = match route {
                Route::Current(instances) => RunResult::Current(instances),
                Route::Hit(outputs) => {
                    content_hits += 1;
                    if let Some(key) = key {
                        options.tracer.instant("content_cache_hit", task_span, |a| {
                            a.str("key", key.to_hex().as_str());
                        });
                    }
                    RunResult::Outputs {
                        outputs,
                        ran: false,
                    }
                }
                Route::Repeat(of) => match &results[of] {
                    RunResult::Outputs { outputs, .. } => RunResult::Outputs {
                        outputs: outputs.clone(),
                        ran: false,
                    },
                    RunResult::Current(_) => unreachable!("a repeated run invokes its tool"),
                },
                Route::Unresolved => unreachable!("every run is resolved before it runs"),
                Route::Invoke(invocation) => {
                    let (result, used) = self.run_one(
                        schema,
                        &invocation,
                        options,
                        self.retry_salt(run_index, options.jitter_seed),
                        task_span,
                    );
                    attempts = attempts.max(used);
                    match result {
                        Ok(outputs) => {
                            // Write the fresh result back; insert is
                            // non-blocking (memory now, persistent tiers
                            // asynchronously), and a subtask parked on
                            // this key looks it up after this one
                            // finishes.
                            if let (Some(cache), Some(key)) = (&options.cache, key) {
                                cache.insert(
                                    &key,
                                    &content_cache::entry_from_outputs(
                                        key,
                                        schema,
                                        &invocation,
                                        &outputs,
                                        options.clock.wall_unix_ms(),
                                    ),
                                );
                            }
                            RunResult::Outputs { outputs, ran: true }
                        }
                        Err(error) => {
                            let duration = options.clock.since(started);
                            options
                                .metrics
                                .observe_duration("exec.task_wall_ns", duration);
                            let msg = error.to_string();
                            options.tracer.end_with(task_span, |a| {
                                a.bool("ok", false);
                                a.uint("attempts", u64::from(attempts));
                                a.str("error", msg.as_str());
                            });
                            return SubtaskOutcome {
                                result: Err(error),
                                attempts,
                                duration,
                                started: started_offset,
                            };
                        }
                    }
                }
            };
            results.push(result);
        }
        let duration = options.clock.since(started);
        options
            .metrics
            .observe_duration("exec.task_wall_ns", duration);
        options.tracer.end_with(task_span, |a| {
            a.bool("ok", true);
            a.uint("attempts", u64::from(attempts));
            a.uint("content_hits", content_hits);
        });
        SubtaskOutcome {
            result: Ok(results),
            attempts,
            duration,
            started: started_offset,
        }
    }
}

/// Groups the interior nodes of a flow into subtasks: nodes sharing the
/// same tool node *and* the same data-input set form one multi-output
/// subtask (Fig. 5).
fn group_subtasks(flow: &TaskGraph) -> Result<Vec<Subtask>, ExecError> {
    let order = flow.topo_order()?;
    let mut subtasks: Vec<Subtask> = Vec::new();
    for node in order {
        if !flow.is_expanded(node) {
            continue;
        }
        let tool = flow.tool_of(node);
        let mut inputs = flow.data_inputs_of(node);
        inputs.sort();
        if let Some(existing) = subtasks
            .iter_mut()
            .find(|s| s.tool == tool && tool.is_some() && s.inputs == inputs)
        {
            existing.outputs.push(node);
            continue;
        }
        subtasks.push(Subtask {
            outputs: vec![node],
            tool,
            inputs,
        });
    }
    Ok(subtasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{self, TextTool};
    use hercules_flow::Expansion;
    use hercules_schema::fixtures;
    use std::sync::Arc;
    use std::time::Duration;

    fn setup() -> (Arc<hercules_schema::TaskSchema>, HistoryDb, Executor) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        toy::seed_everything(&mut db, "setup");
        let executor = Executor::new(toy::text_registry(&schema));
        (schema, db, executor)
    }

    fn perf_flow(schema: &Arc<hercules_schema::TaskSchema>) -> (TaskGraph, NodeId) {
        let mut flow = TaskGraph::new(schema.clone());
        let perf = flow
            .seed(schema.require("Performance").expect("known"))
            .expect("ok");
        flow.expand(perf).expect("ok");
        (flow, perf)
    }

    #[test]
    fn executes_single_task_and_records_derivation() {
        let (schema, mut db, executor) = setup();
        let (mut flow, perf) = perf_flow(&schema);
        let circuit = flow.data_inputs_of(perf)[0];
        flow.expand(circuit).expect("ok");
        let netlist = flow.data_inputs_of(circuit)[1];
        flow.specialize(netlist, schema.require("EditedNetlist").expect("known"))
            .expect("ok");
        flow.expand(netlist).expect("ok");

        let mut binding = Binding::new();
        assert!(binding.bind_latest(&flow, &db).is_empty());
        let before = db.len();
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(report.runs(), 3, "editor, compose, simulator");
        assert_eq!(db.len(), before + 3);

        let inst = report.single(perf);
        let text = String::from_utf8_lossy(db.data_of(inst).expect("ok").expect("data"));
        assert_eq!(
            text,
            "Simulator(Circuit(DeviceModels, CircuitEditor()), Stimuli)"
        );
        // The derivation records the immediate tool and inputs.
        let d = db
            .instance(inst)
            .expect("ok")
            .derivation()
            .expect("derived");
        assert!(d.tool.is_some());
        assert_eq!(d.inputs.len(), 2);
    }

    #[test]
    fn unbound_leaf_fails() {
        let (schema, mut db, executor) = setup();
        let (flow, _) = perf_flow(&schema);
        let binding = Binding::new();
        assert!(matches!(
            executor.execute(&flow, &binding, &mut db).unwrap_err(),
            ExecError::UnboundLeaf { .. }
        ));
    }

    #[test]
    fn missing_encapsulation_fails() {
        let (schema, mut db, _) = setup();
        let (flow, _) = perf_flow(&schema);
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let empty = Executor::new(EncapsulationRegistry::new());
        assert!(matches!(
            empty.execute(&flow, &binding, &mut db).unwrap_err(),
            ExecError::MissingEncapsulation { .. }
        ));
    }

    #[test]
    fn multi_output_subtask_runs_tool_once() {
        let (schema, mut db, executor) = setup();
        let mut flow = TaskGraph::new(schema.clone());
        let ext = flow
            .seed(schema.require("ExtractedNetlist").expect("known"))
            .expect("ok");
        let created = flow.expand(ext).expect("ok");
        let (extractor, layout) = (created[0], created[1]);
        let stats = flow
            .seed(schema.require("ExtractionStatistics").expect("known"))
            .expect("ok");
        flow.expand_with(
            stats,
            &Expansion::new()
                .reusing(schema.require("Extractor").expect("known"), extractor)
                .reusing(schema.require("Layout").expect("known"), layout),
        )
        .expect("ok");
        // Layout is interior-free here (a leaf); bind it and the tool.
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(report.tasks.len(), 1, "one grouped subtask");
        assert_eq!(report.runs(), 1, "tool invoked once for two outputs");
        let ext_text =
            String::from_utf8_lossy(db.data_of(report.single(ext)).expect("ok").expect("d"))
                .into_owned();
        let stats_text =
            String::from_utf8_lossy(db.data_of(report.single(stats)).expect("ok").expect("d"))
                .into_owned();
        assert!(ext_text.contains(".ExtractedNetlist"));
        assert!(stats_text.contains(".ExtractionStatistics"));
        // Both derivations share the same tool and inputs.
        let d1 = db
            .instance(report.single(ext))
            .expect("ok")
            .derivation()
            .cloned();
        let d2 = db
            .instance(report.single(stats))
            .expect("ok")
            .derivation()
            .cloned();
        assert_eq!(d1, d2);
    }

    #[test]
    fn multi_instance_selection_fans_out() {
        let (schema, mut db, executor) = setup();
        let (flow, perf) = perf_flow(&schema);
        // Three stimulus sets selected at once (§4.1).
        let stim_ty = schema.require("Stimuli").expect("known");
        let extra1 = db
            .record_primary(stim_ty, Metadata::by("u").named("s2"), b"S2")
            .expect("ok");
        let extra2 = db
            .record_primary(stim_ty, Metadata::by("u").named("s3"), b"S3")
            .expect("ok");
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let stim_leaf = flow
            .leaves()
            .into_iter()
            .find(|&l| flow.entity_of(l).expect("live") == stim_ty)
            .expect("stimuli leaf");
        let first = db.instances_of(stim_ty)[0];
        binding.bind_many(stim_leaf, &[first, extra1, extra2]);

        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(report.runs(), 3, "one run per selected stimulus");
        assert_eq!(report.instances_of(perf).len(), 3);
    }

    #[test]
    fn single_call_mode_receives_all_instances() {
        let (schema, mut db, _) = setup();
        let (flow, perf) = perf_flow(&schema);
        let stim_ty = schema.require("Stimuli").expect("known");
        let extra = db
            .record_primary(stim_ty, Metadata::by("u").named("s2"), b"S2")
            .expect("ok");
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let stim_leaf = flow
            .leaves()
            .into_iter()
            .find(|&l| flow.entity_of(l).expect("live") == stim_ty)
            .expect("leaf");
        let first = db.instances_of(stim_ty)[0];
        binding.bind_many(stim_leaf, &[first, extra]);

        let registry = toy::text_registry_with(
            &schema,
            TextTool {
                mode: MultiInstanceMode::SingleCall,
                work: Duration::ZERO,
            },
        );
        let executor = Executor::new(registry);
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(report.runs(), 1, "all instances in one call");
        let text =
            String::from_utf8_lossy(db.data_of(report.single(perf)).expect("ok").expect("d"))
                .into_owned();
        assert!(text.contains("Stimuli") && text.contains("S2"));
    }

    #[test]
    fn fanout_limit_is_enforced() {
        let (schema, mut db, mut_exec) = setup();
        let mut executor = mut_exec;
        executor.options_mut().fanout_limit = 2;
        let (flow, _) = perf_flow(&schema);
        let stim_ty = schema.require("Stimuli").expect("known");
        let mut stims = vec![db.instances_of(stim_ty)[0]];
        for i in 0..3 {
            stims.push(
                db.record_primary(stim_ty, Metadata::by("u"), format!("s{i}").as_bytes())
                    .expect("ok"),
            );
        }
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let stim_leaf = flow
            .leaves()
            .into_iter()
            .find(|&l| flow.entity_of(l).expect("live") == stim_ty)
            .expect("leaf");
        binding.bind_many(stim_leaf, &stims);
        assert!(matches!(
            executor.execute(&flow, &binding, &mut db).unwrap_err(),
            ExecError::FanOutTooLarge { .. }
        ));
    }

    #[test]
    fn caching_reuses_current_results() {
        let (schema, mut db, mut executor) = setup();
        executor.options_mut().reuse_cached = true;
        let (flow, perf) = perf_flow(&schema);
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);

        let first = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(first.runs(), 1);
        let len_after_first = db.len();

        let second = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(second.runs(), 0, "cache hit");
        assert_eq!(second.cache_hits(), 1);
        assert_eq!(db.len(), len_after_first, "nothing re-recorded");
        assert_eq!(second.single(perf), first.single(perf));
    }

    #[test]
    fn content_cache_hits_across_fresh_histories() {
        let (schema, _, _) = setup();
        let cache = hercules_cache::ContentCache::in_memory(
            hercules_cache::MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        // Two executions against *separate* history databases — the
        // content cache is the only thing they share, as if two
        // workspaces ran the same extraction.
        let run = |cache: hercules_cache::ContentCache| -> (ExecReport, Vec<u8>, usize) {
            let mut db = HistoryDb::new(schema.clone());
            toy::seed_everything(&mut db, "setup");
            let mut executor = Executor::new(toy::text_registry(&schema));
            executor.options_mut().cache = Some(cache);
            let (flow, perf) = perf_flow(&schema);
            let mut binding = Binding::new();
            binding.bind_latest(&flow, &db);
            let report = executor.execute(&flow, &binding, &mut db).expect("runs");
            let data = db
                .data_of(report.single(perf))
                .expect("ok")
                .expect("d")
                .to_vec();
            (report, data, db.len())
        };
        let (cold, cold_data, cold_len) = run(cache.clone());
        assert_eq!(cold.runs(), 1, "cold run invokes the simulator");
        let (warm, warm_data, warm_len) = run(cache.clone());
        assert_eq!(warm.runs(), 0, "warm run replays the cached result");
        assert_eq!(warm.cache_hits(), 1);
        assert_eq!(warm_data, cold_data, "byte-identical output");
        assert_eq!(warm_len, cold_len, "same history shape");
        let stats = cache.stats();
        assert_eq!(stats.tiers[0].hits, 1);
        assert_eq!(stats.inserts, 1);
    }

    /// Content keys name bytes, not instance ids: two histories that
    /// hold the same tool and input bytes under different ids (one has
    /// an unrelated record first) derive the same key.
    #[test]
    fn content_keys_ignore_instance_numbering() {
        let (schema, _, _) = setup();
        let (flow, _) = perf_flow(&schema);
        let subtasks = group_subtasks(&flow).expect("grouped");
        let prepare = |unrelated_first: bool| {
            let mut db = HistoryDb::new(schema.clone());
            if unrelated_first {
                let editor = schema.require("CircuitEditor").expect("known");
                db.record_primary(editor, Metadata::by("u"), b"unrelated")
                    .expect("recorded");
            }
            toy::seed_everything(&mut db, "setup");
            let mut executor = Executor::new(toy::text_registry(&schema));
            executor.options_mut().cache = Some(hercules_cache::ContentCache::in_memory(
                hercules_cache::MemoryBudget::default(),
                Clock::real(),
                Metrics::disabled(),
            ));
            let mut binding = Binding::new();
            binding.bind_latest(&flow, &db);
            let available: HashMap<NodeId, Vec<InstanceId>> = binding
                .iter()
                .map(|(node, instances)| (node, instances.to_vec()))
                .collect();
            let prepared = executor
                .prepare(&flow, &subtasks[0], &available, &db)
                .expect("prepared");
            let [run] = &prepared.runs[..] else {
                panic!("one invocation expected");
            };
            let mut bound: Vec<InstanceId> = available.into_values().flatten().collect();
            bound.sort();
            (run.key.expect("a cache is attached"), bound)
        };
        let (key_a, ids_a) = prepare(false);
        let (key_b, ids_b) = prepare(true);
        assert_ne!(ids_a, ids_b, "the histories number their instances apart");
        assert_eq!(key_a, key_b);
    }

    #[test]
    fn without_caching_tasks_rerun() {
        let (schema, mut db, executor) = setup();
        let (flow, _) = perf_flow(&schema);
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        executor.execute(&flow, &binding, &mut db).expect("runs");
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        assert_eq!(report.runs(), 1, "no caching by default");
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (schema, _, _) = setup();
        let flow = hercules_flow::fixtures::fig6(schema.clone()).expect("fixture");

        let run = |parallel: bool| -> Vec<u8> {
            let mut db = HistoryDb::new(schema.clone());
            toy::seed_everything(&mut db, "setup");
            let registry = toy::text_registry_with(
                &schema,
                TextTool {
                    mode: MultiInstanceMode::RunPerInstance,
                    work: Duration::from_millis(2),
                },
            );
            let mut executor = Executor::new(registry);
            executor.options_mut().parallel = parallel;
            let mut binding = Binding::new();
            binding.bind_latest(&flow, &db);
            let report = executor.execute(&flow, &binding, &mut db).expect("runs");
            let out = flow.outputs()[0];
            db.data_of(report.single(out))
                .expect("ok")
                .expect("d")
                .to_vec()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_branches_are_faster_with_real_work() {
        let (schema, _, _) = setup();
        let flow = hercules_flow::fixtures::fig6(schema.clone()).expect("fixture");
        let time = |parallel: bool| -> std::time::Duration {
            let mut db = HistoryDb::new(schema.clone());
            toy::seed_everything(&mut db, "setup");
            let registry = toy::text_registry_with(
                &schema,
                TextTool {
                    mode: MultiInstanceMode::RunPerInstance,
                    work: Duration::from_millis(25),
                },
            );
            let mut executor = Executor::new(registry);
            executor.options_mut().parallel = parallel;
            let mut binding = Binding::new();
            binding.bind_latest(&flow, &db);
            let start = std::time::Instant::now();
            executor.execute(&flow, &binding, &mut db).expect("runs");
            start.elapsed()
        };
        let serial = time(false);
        let parallel = time(true);
        assert!(
            parallel < serial,
            "disjoint branches should overlap: {parallel:?} vs {serial:?}"
        );
    }

    #[test]
    fn full_fig5_flow_executes() {
        let (schema, mut db, executor) = setup();
        let flow = hercules_flow::fixtures::fig5(schema.clone()).expect("fixture");
        let mut binding = Binding::new();
        assert!(binding.bind_latest(&flow, &db).is_empty());
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        // Subtasks: editor?? fig5 leaves are primary; interior: verification,
        // extraction (multi-output), compose, performance, plot = 5
        // subtasks but extraction groups two outputs.
        assert_eq!(report.tasks.len(), 5);
        for out in flow.outputs() {
            assert_eq!(report.instances_of(out).len(), 1);
        }
    }

    #[test]
    fn failing_tool_propagates_in_parallel_mode_too() {
        let (schema, mut db, _) = setup();
        let flow = hercules_flow::fixtures::fig6(schema.clone()).expect("fixture");
        let mut registry = toy::text_registry(&schema);
        let verifier = schema.require("Verifier").expect("known");
        registry.register(verifier, std::sync::Arc::new(crate::toy::FailingTool));
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let mut executor = Executor::new(registry);
        executor.options_mut().parallel = true;
        assert!(matches!(
            executor.execute(&flow, &binding, &mut db).unwrap_err(),
            ExecError::ToolFailed { .. }
        ));
        // The branches that succeeded before the failure were recorded;
        // the failed product was not (only the seed instance exists).
        let verification = schema.require("Verification").expect("known");
        assert_eq!(db.instances_of(verification).len(), 1, "seed only");
    }

    #[test]
    fn empty_report_edge_cases() {
        let report = ExecReport::default();
        assert!(report.is_complete(), "vacuously complete");
        assert!(report.first_error().is_none());
        assert_eq!(report.runs(), 0);
        assert_eq!(report.cache_hits(), 0);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.skipped(), 0);
        assert_eq!(report.instances_of(NodeId::from_index(0)), &[]);
        assert!(matches!(
            report.try_single(NodeId::from_index(0)),
            Err(ExecError::NotSingleInstance { count: 0, .. })
        ));
        assert_eq!(report.produced().count(), 0);
    }

    #[test]
    fn only_skipped_report_edge_cases() {
        let node = NodeId::from_index(7);
        let report = ExecReport::from_parts(
            HashMap::new(),
            vec![
                TaskRecord {
                    outputs: vec![node],
                    action: TaskAction::Skipped,
                    attempts: 0,
                    duration: Duration::ZERO,
                    started: Duration::ZERO,
                },
                TaskRecord {
                    outputs: vec![NodeId::from_index(8)],
                    action: TaskAction::Skipped,
                    attempts: 0,
                    duration: Duration::ZERO,
                    started: Duration::ZERO,
                },
            ],
        );
        assert!(!report.is_complete(), "skipped subtasks are incomplete");
        assert!(
            report.first_error().is_none(),
            "skips carry no error of their own"
        );
        assert_eq!(report.runs(), 0);
        assert_eq!(report.cache_hits(), 0);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.skipped(), 2);
        assert!(matches!(
            report.try_single(node),
            Err(ExecError::NotSingleInstance { count: 0, .. })
        ));
    }

    #[test]
    fn report_round_trips_through_parts() {
        let (schema, mut db, executor) = setup();
        let (flow, perf) = perf_flow(&schema);
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        let produced: HashMap<NodeId, Vec<InstanceId>> =
            report.produced().map(|(n, v)| (n, v.to_vec())).collect();
        let rebuilt = ExecReport::from_parts(produced, report.tasks.clone());
        assert_eq!(rebuilt.single(perf), report.single(perf));
        assert_eq!(rebuilt.tasks, report.tasks);
        assert_eq!(rebuilt.is_complete(), report.is_complete());
    }

    /// The engine's priorities as the profiler computes them: one
    /// labelled `TaskProfile` per subtask, through
    /// `downstream_critical`.
    fn profiler_priorities(subtasks: &[Subtask], producers_of: &[Vec<usize>]) -> Vec<u64> {
        use hercules_obs::profile::{downstream_critical, TaskProfile};
        let profiles: Vec<TaskProfile> = subtasks
            .iter()
            .enumerate()
            .map(|(i, s)| TaskProfile {
                label: format!("s{i}"),
                total_ns: 1 + s.outputs.len() as u64,
                self_ns: 0,
                start_ns: 0,
                tid: 0,
                deps: producers_of[i].iter().map(|j| format!("s{j}")).collect(),
                cache_hit: false,
                queue_wait_ns: 0,
            })
            .collect();
        let down = downstream_critical(&profiles);
        (0..subtasks.len())
            .map(|i| down[&format!("s{i}")])
            .collect()
    }

    #[test]
    fn priorities_match_the_profiler_on_fig6() {
        let (schema, db, _) = setup();
        let flow = hercules_flow::fixtures::fig6(schema.clone()).expect("fixture");
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let available: HashMap<NodeId, Vec<InstanceId>> = binding
            .iter()
            .map(|(node, instances)| (node, instances.to_vec()))
            .collect();
        let subtasks = group_subtasks(&flow).expect("grouped");
        let (_, _, producers_of) = dependency_edges(&subtasks, &available);
        let priorities = subtask_priorities(&subtasks, &producers_of);
        assert!(priorities.iter().any(|&p| p > 2), "fig6 has chains");
        assert_eq!(priorities, profiler_priorities(&subtasks, &producers_of));
    }

    proptest::proptest! {
        /// Generated DAGs in topological order, as `group_subtasks`
        /// emits them: subtask `i` has 1–3 outputs and draws its
        /// producers from the subtasks before it.
        #[test]
        fn priorities_match_the_profiler_on_generated_dags(
            shape in proptest::prop::collection::vec(
                (1usize..4, proptest::prop::collection::vec(0usize..64, 0..4)),
                1..40,
            ),
        ) {
            let subtasks: Vec<Subtask> = shape
                .iter()
                .map(|(outputs, _)| Subtask {
                    outputs: vec![NodeId::from_index(0); *outputs],
                    tool: None,
                    inputs: Vec::new(),
                })
                .collect();
            let producers_of: Vec<Vec<usize>> = shape
                .iter()
                .enumerate()
                .map(|(i, (_, picks))| {
                    let mut producers: Vec<usize> = picks
                        .iter()
                        .filter(|_| i > 0)
                        .map(|k| k % i.max(1))
                        .collect();
                    producers.sort_unstable();
                    producers.dedup();
                    producers
                })
                .collect();
            proptest::prop_assert_eq!(
                subtask_priorities(&subtasks, &producers_of),
                profiler_priorities(&subtasks, &producers_of)
            );
        }
    }

    /// A parallel run the content cache answers whole completes every
    /// subtask on the scheduling thread: no pool starts, so every task
    /// span shares the `execute` span's thread lane. The cold run
    /// before it starts the pool.
    #[test]
    fn warm_parallel_run_starts_no_pool() {
        let (schema, _, _) = setup();
        let flow = hercules_flow::fixtures::fig6(schema.clone()).expect("fixture");
        let cache = hercules_cache::ContentCache::in_memory(
            hercules_cache::MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        for warm in [false, true] {
            let mut db = HistoryDb::new(schema.clone());
            toy::seed_everything(&mut db, "setup");
            let ring = Arc::new(hercules_obs::RingBuffer::new(4096));
            let mut executor = Executor::new(toy::text_registry(&schema));
            let options = executor.options_mut();
            options.parallel = true;
            options.workers = 2;
            options.cache = Some(cache.clone());
            options.tracer = Tracer::new(ring.clone());
            let mut binding = Binding::new();
            binding.bind_latest(&flow, &db);
            let report = executor.execute(&flow, &binding, &mut db).expect("runs");
            let events = ring.snapshot();
            let pools = events.iter().filter(|e| e.name == "pool").count();
            if !warm {
                assert!(report.runs() > 0, "the cold run invokes tools");
                assert_eq!(pools, 1, "the cold run starts the pool once");
                continue;
            }
            assert_eq!(report.runs(), 0, "the warm run invokes nothing");
            assert_eq!(report.cache_hits(), report.tasks.len());
            assert_eq!(pools, 0, "the warm run starts no pool");
            let lane = |name: &str| -> HashSet<u64> {
                events
                    .iter()
                    .filter(|e| e.name == name)
                    .map(|e| e.tid)
                    .collect()
            };
            assert_eq!(lane("task"), lane("execute"), "tasks ran on the caller");
        }
    }

    #[test]
    fn failing_tool_propagates() {
        let (schema, mut db, _) = setup();
        let (flow, _) = perf_flow(&schema);
        let mut registry = EncapsulationRegistry::new();
        let sim = schema.require("Simulator").expect("known");
        registry.register(sim, std::sync::Arc::new(crate::toy::FailingTool));
        let mut binding = Binding::new();
        binding.bind_latest(&flow, &db);
        let executor = Executor::new(registry);
        assert!(matches!(
            executor.execute(&flow, &binding, &mut db).unwrap_err(),
            ExecError::ToolFailed { .. }
        ));
    }
}
