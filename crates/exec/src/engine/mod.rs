//! The execution engine: automatic task sequencing, multi-output
//! subtasks, multi-instance fan-out, caching, parallel disjoint
//! branches, and fault-tolerant supervision of every tool run.
//!
//! One module per concern:
//!
//! * `schedule` groups the flow into subtasks, derives their
//!   dependency edges and dispatch priorities, and runs both pumps:
//!   the ready queue, the worker pool, completions and the walk that
//!   skips a failure's downstream cone. The machine planner
//!   (`cluster`) list-schedules the same subtasks by the same
//!   priorities.
//! * `dispatch` prepares a ready subtask, resolves each of its runs
//!   (current instance, content-cache hit, or tool) and routes it, and
//!   runs its tools under supervision with retries.
//! * `record` commits products to the history with the per-execution
//!   invocation dedup, and names each subtask for traces: its label
//!   and its `outputs`/`inputs` attributes, which live runs, replayed
//!   reports and planned schedules share.

mod dispatch;
mod record;
mod schedule;

use std::collections::HashMap;
use std::time::Duration;

use hercules_flow::{NodeId, TaskGraph};
use hercules_history::{HistoryDb, InstanceId};
use hercules_obs::{names, Metrics, SpanId, Tracer};
use hercules_sim::{Clock, Interleaver};

use crate::binding::Binding;
use crate::encapsulation::EncapsulationRegistry;
use crate::error::ExecError;
use crate::policy::{FailurePolicy, RetryPolicy};

pub(crate) use record::{node_list, TaskIdentity};
pub(crate) use schedule::{dependency_edges, subtask_priorities};

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
    /// Every node's instances: the binding's, then each subtask's
    /// products as it commits. Dispatch reads a subtask's inputs here.
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
                metrics.incr(names::EXEC_RUNS, report.runs() as u64);
                metrics.incr(names::EXEC_CACHE_HITS, report.cache_hits() as u64);
                metrics.incr("exec.failed_subtasks", report.failed() as u64);
                metrics.incr(names::EXEC_SKIPPED_SUBTASKS, report.skipped() as u64);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encapsulation::MultiInstanceMode;
    use crate::toy::{self, TextTool};
    use hercules_flow::Expansion;
    use hercules_flow::Subtask;
    use hercules_history::Metadata;
    use hercules_schema::fixtures;
    use std::collections::HashSet;
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
        let (schema, mut db, executor) = setup();
        let (flow, _) = perf_flow(&schema);
        let stim_ty = schema.require("Stimuli").expect("known");
        let mut stims = vec![db.instances_of(stim_ty)[0]];
        for i in 0..dispatch::FANOUT_LIMIT {
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
        let subtasks = flow.subtasks().expect("grouped");
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
            let produced: HashMap<NodeId, Vec<InstanceId>> = binding
                .iter()
                .map(|(node, instances)| (node, instances.to_vec()))
                .collect();
            let mut bound: Vec<InstanceId> = produced.values().flatten().copied().collect();
            bound.sort();
            let report = ExecReport::from_parts(produced, Vec::new());
            let prepared = executor
                .prepare(&flow, &subtasks[0], &report, &db)
                .expect("prepared");
            let [run] = &prepared.runs[..] else {
                panic!("one invocation expected");
            };
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
        let subtasks = flow.subtasks().expect("grouped");
        let producers_of = dependency_edges(&subtasks, |n| !binding.get(n).is_empty()).producers_of;
        let priorities = subtask_priorities(&subtasks, &producers_of);
        assert!(priorities.iter().any(|&p| p > 2), "fig6 has chains");
        assert_eq!(priorities, profiler_priorities(&subtasks, &producers_of));
    }

    proptest::proptest! {
        /// Generated DAGs in topological order, as `TaskGraph::subtasks`
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
