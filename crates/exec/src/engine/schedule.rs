//! Scheduling: subtask grouping, dependency edges and priorities, the
//! ready queue, the serial and parallel pumps with the worker pool, and
//! the walk that skips a failure's downstream cone.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{mpsc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use hercules_flow::{NodeId, Subtask, TaskGraph};
use hercules_history::HistoryDb;
use hercules_obs::{names, Metrics, SpanId, Tracer};
use hercules_schema::TaskSchema;
use hercules_sim::{Clock, Interleaver, SimInstant};

use super::dispatch::{DispatchCtx, Flights, PreparedSubtask, SubtaskOutcome};
use super::record::{node_list, Recorder};
use super::{ExecOptions, ExecReport, Executor, TaskAction, TaskRecord};
use crate::binding::Binding;
use crate::error::ExecError;
use crate::policy::FailurePolicy;
use crate::supervise;

/// The subtask-level dependency graph.
pub(crate) struct Edges {
    /// Dependencies each subtask waits on: its producer subtasks, plus
    /// each dependency that neither a subtask produces nor is bound.
    pub(crate) dep_count: Vec<usize>,
    /// Consumer subtasks per subtask (the reverse edges).
    pub(crate) successors: Vec<Vec<usize>>,
    /// Producer subtasks per subtask, each once (for the priorities).
    pub(crate) producers_of: Vec<Vec<usize>>,
}

/// Builds the subtask-level dependency graph. A dependency with neither
/// a producer subtask nor a `bound` instance leaves its consumer
/// permanently blocked, which the cycle check at the end of the
/// execution reports.
pub(crate) fn dependency_edges(subtasks: &[Subtask], bound: impl Fn(NodeId) -> bool) -> Edges {
    let mut producer: HashMap<NodeId, usize> = HashMap::new();
    for (i, s) in subtasks.iter().enumerate() {
        for &o in &s.outputs {
            producer.insert(o, i);
        }
    }
    let mut edges = Edges {
        dep_count: vec![0; subtasks.len()],
        successors: vec![Vec::new(); subtasks.len()],
        producers_of: vec![Vec::new(); subtasks.len()],
    };
    for (i, s) in subtasks.iter().enumerate() {
        let mut seen = HashSet::new();
        for dep in s.dependencies() {
            match producer.get(&dep) {
                Some(&j) if j != i => {
                    if seen.insert(j) {
                        edges.dep_count[i] += 1;
                        edges.successors[j].push(i);
                        edges.producers_of[i].push(j);
                    }
                }
                Some(_) => {}
                None => {
                    if !bound(dep) {
                        edges.dep_count[i] += 1;
                    }
                }
            }
        }
    }
    edges
}

/// Static dispatch priorities: each subtask's downstream critical-path
/// length over estimated costs (one abstract unit per invocation plus
/// one per output), i.e. its own cost plus that of its costliest chain
/// of consumers. The longest pole dispatches first, so a straggler
/// branch starts as early as its dependencies allow. Subtasks come in
/// topological order (see [`TaskGraph::subtasks`]), so a reverse sweep has
/// every consumer's length final before its producers read it.
pub(crate) fn subtask_priorities(subtasks: &[Subtask], producers_of: &[Vec<usize>]) -> Vec<u64> {
    let mut down = vec![0u64; subtasks.len()];
    for i in (0..subtasks.len()).rev() {
        down[i] += 1 + subtasks[i].outputs.len() as u64;
        for &j in &producers_of[i] {
            down[j] = down[j].max(down[i]);
        }
    }
    down
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
pub(super) struct SchedState {
    subtasks: Vec<Subtask>,
    /// Static dispatch priority per subtask (downstream critical-path
    /// length).
    priority: Vec<u64>,
    /// Outstanding dependencies per subtask.
    dep_count: Vec<usize>,
    /// Consumer subtasks per subtask (the reverse edges).
    successors: Vec<Vec<usize>>,
    task_state: Vec<TaskState>,
    /// Dispatch sequence counter (FIFO tiebreak among equal
    /// priorities).
    seq: u64,
    /// Subtasks queued, running, parked on a claimant, or awaiting
    /// the scheduling thread.
    in_flight: usize,
    /// The parallel pump's content-cache routing (unused by the serial
    /// pump).
    pub(super) flights: Flights,
}

/// Immutable context of one dataflow execution.
pub(super) struct SchedEnv<'a> {
    pub(super) flow: &'a TaskGraph,
    pub(super) queue: &'a ReadyQueue,
    epoch: SimInstant,
    epoch_span: SpanId,
    exec_span: SpanId,
    /// Whether the parallel pump runs this execution.
    parallel: bool,
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

/// One dispatched subtask waiting to run.
pub(super) struct ReadyTask {
    /// Downstream critical-path length; longer poles pop first.
    priority: u64,
    /// Dispatch sequence number; FIFO among equal priorities.
    seq: u64,
    index: usize,
    pub(super) prepared: PreparedSubtask,
    ctx: DispatchCtx,
}

impl ReadyTask {
    /// Runs the subtask on this thread and hands it back completed.
    fn complete(
        mut self,
        schema: &std::sync::Arc<TaskSchema>,
        options: &ExecOptions,
    ) -> Completion {
        let outcome = self.prepared.run_all(schema, options, &self.ctx);
        Completion {
            index: self.index,
            prepared: self.prepared,
            outcome,
        }
    }
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
pub(super) struct ReadyQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    heap: BinaryHeap<ReadyTask>,
    closed: bool,
}

impl ReadyQueue {
    pub(super) fn push(&self, task: ReadyTask, metrics: &Metrics) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.heap.push(task);
        metrics.observe(names::EXEC_QUEUE_DEPTH, state.heap.len() as u64);
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
            .map(|t| &*t.prepared.identity.label)
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

impl Executor {
    /// The event-driven dataflow executor: per-task dependency
    /// counters, a priority ready queue ordered by downstream
    /// critical-path length, and a worker pool. A task's completion
    /// decrements its successors' counters and enqueues the newly-ready
    /// ones immediately — disjoint sub-flows proceed independently,
    /// with no barriers between levels (§3.3, Fig. 6).
    pub(super) fn execute_dataflow(
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
        let mut rec = Recorder::new(db, binding, &self.options.user);
        let subtasks = flow.subtasks()?;
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

        let Edges {
            dep_count,
            successors,
            producers_of,
        } = dependency_edges(&subtasks, |n| rec.report.produced.contains_key(&n));
        let priority = subtask_priorities(&subtasks, &producers_of);
        let mut st = SchedState {
            subtasks,
            priority,
            dep_count,
            successors,
            task_state: vec![TaskState::Waiting; total],
            seq: 0,
            in_flight: 0,
            flights: Flights::default(),
        };
        let queue = ReadyQueue::default();
        let env = SchedEnv {
            flow,
            queue: &queue,
            epoch,
            epoch_span,
            exec_span,
            // A pool of one worker is the serial pump. An automatic
            // pool has at least two, so choosing needs no core count.
            parallel: self.options.parallel && total > 1 && self.options.workers != 1,
        };

        // Seed the queue with every subtask whose dependencies are all
        // bound already.
        for i in 0..total {
            if st.dep_count[i] == 0 {
                self.dispatch_ready(&mut st, &env, i, &rec)?;
            }
        }

        if env.parallel {
            self.pump_parallel(&mut st, &env, &mut rec)?;
        } else {
            // Serial dataflow: same ready-queue ordering by default;
            // under simulation the interleaver picks among every ready
            // candidate, so each dispatch is an explicit simulator
            // event and one seed induces one schedule. One subtask runs
            // at a time, so each is looked up when it is popped, after
            // every earlier one wrote its results back: no claims.
            let schema = flow.schema();
            while let Some(mut task) = queue.try_pop_pick(&self.options.interleave) {
                self.resolve(schema, &mut task.prepared, None, rec.db)?;
                let done = task.complete(schema, &self.options);
                self.finish_task(&mut st, &env, &mut rec, done)?;
            }
        }

        if st.task_state.contains(&TaskState::Waiting) {
            // Every reachable subtask ran, failed, or was skipped;
            // leftovers mean the graph could never make progress.
            // validate_for_execution guarantees this cannot happen —
            // defensive check against corrupt graphs.
            return Err(ExecError::Flow(hercules_flow::FlowError::Cycle));
        }
        Ok(rec.report)
    }

    /// Runs the parallel scheduling loop. This thread completes the
    /// subtasks that dispatch resolved whole ([`Executor::route`]),
    /// commits serially and dispatches successors; workers pull the
    /// subtasks that need a tool from the ready queue and report
    /// completions over a channel. The pool starts with the first such
    /// subtask.
    fn pump_parallel(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        rec: &mut Recorder<'_>,
    ) -> Result<(), ExecError> {
        let schema = env.flow.schema();
        let options = &self.options;
        let queue = env.queue;
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
                if let Some(task) = st.flights.resolved.pop_front() {
                    self.finish_task(st, env, rec, task.complete(schema, options))?;
                    continue;
                }
                if st.in_flight == 0 {
                    return Ok(());
                }
                // Whatever is left is queued, running, or parked on a
                // claimant that is: only a worker can make progress.
                drop(done_tx.take());
                let done = done_rx.recv().map_err(|_| ExecError::ToolPanicked {
                    tool: "subtask worker".into(),
                    message: "worker pool exited with tasks in flight".into(),
                })?;
                self.finish_task(st, env, rec, done)?;
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
        rec: &Recorder<'_>,
    ) -> Result<(), ExecError> {
        let metrics = &self.options.metrics;
        let dispatch_started = self.options.clock.now();
        let prepared = self.prepare(env.flow, &st.subtasks[index], &rec.report, rec.db)?;
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
            self.route(&mut st.flights, env, task, rec.db)?;
        } else {
            env.queue.push(task, metrics);
        }
        metrics.observe_duration(
            "exec.sched_dispatch_ns",
            self.options.clock.since(dispatch_started),
        );
        Ok(())
    }

    /// Handles one completed subtask on the scheduling thread: commits
    /// its products (or records the failure and skips its downstream
    /// cone), releases the content keys it claimed, then decrements
    /// successors' dependency counters and dispatches the newly-ready
    /// ones.
    fn finish_task(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        rec: &mut Recorder<'_>,
        done: Completion,
    ) -> Result<(), ExecError> {
        let Completion {
            index,
            prepared,
            outcome,
        } = done;
        st.in_flight -= 1;
        st.task_state[index] = TaskState::Terminal;
        let action = match outcome.result {
            Ok(runs) => rec.commit(&prepared, runs)?,
            // Nothing of this subtask commits; the error propagates and
            // the pool drains.
            Err(error) if self.options.failure == FailurePolicy::Abort => return Err(error),
            Err(error) => TaskAction::Failed { error },
        };
        let failed = matches!(action, TaskAction::Failed { .. });
        rec.report.tasks.push(TaskRecord {
            outputs: prepared.subtask.outputs.clone(),
            action,
            attempts: outcome.attempts,
            duration: outcome.duration,
            started: outcome.started,
        });
        if failed {
            // ContinueDisjoint: skip the failure's whole downstream
            // cone, so none of its successors is left waiting.
            self.skip_cone(st, env, &mut rec.report, index);
        }
        self.release_claims(&mut st.flights, env, &prepared, rec.db)?;
        for j in st.successors[index].clone() {
            st.dep_count[j] -= 1;
            if st.dep_count[j] == 0 && st.task_state[j] == TaskState::Waiting {
                self.dispatch_ready(st, env, j, rec)?;
            }
        }
        Ok(())
    }

    /// Skips every waiting subtask downstream of the failed one. A
    /// subtask's successors read one of its outputs, so everything the
    /// walk reaches reads the output of a subtask that failed or was
    /// skipped.
    fn skip_cone(
        &self,
        st: &mut SchedState,
        env: &SchedEnv<'_>,
        report: &mut ExecReport,
        failed: usize,
    ) {
        let mut frontier = st.successors[failed].clone();
        while let Some(j) = frontier.pop() {
            if st.task_state[j] != TaskState::Waiting {
                continue;
            }
            st.task_state[j] = TaskState::Terminal;
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
