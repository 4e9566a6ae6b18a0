//! Property test: every schedule the engine can pick produces what the
//! flow itself predicts, on random layered DAGs.
//!
//! The oracle is computed from the flow and its bindings alone and
//! shares no code with the engine:
//!
//! * the toy [`toy::TextTool`] writes the term `Tool(arg, …)`, whose
//!   arguments are the input payloads in node order, so every node's
//!   expected bytes follow from the flow by structural recursion;
//! * the failing tool's subtasks are `Failed`, and every subtask
//!   reachable downstream of them is `Skipped`;
//! * identical invocations commit once, so the number of `Ran`
//!   subtasks is the number of distinct invocations among the subtasks
//!   that neither failed nor were skipped.
//!
//! Each flow runs under the serial pump in the engine's own priority
//! order, under four seeded simulator interleavings of the serial pump,
//! and under the parallel pump with two workers and with an
//! automatically sized pool. Byte equality on every node also certifies
//! dependency order: a consumer prepared before its producer committed
//! would read missing inputs and change the bytes.
//!
//! With a content cache attached, every schedule also runs each
//! content key's tool exactly once (single-flight): a term names its
//! key as well as its invocation, so the oracle's count of distinct
//! terms is the count of tool calls a cold run makes, and a warm re-run
//! makes none. The `single_flight_*` tests pin the parallel pump's
//! waits and its claimant failures on a key shared by root subtasks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hercules::cache::{ContentCache, MemoryBudget};
use hercules::exec::{
    toy, Binding, Encapsulation, EncapsulationRegistry, ExecError, ExecReport, Executor,
    FailurePolicy, FaultPlan, FaultyEncapsulation, Invocation, TaskAction, ToolOutput,
};
use hercules::flow::{NodeId, TaskGraph};
use hercules::history::{HistoryDb, Metadata};
use hercules::obs::{EventKind, Metrics, RingBuffer, Tracer};
use hercules::schema::{EntityTypeId, SchemaBuilder, TaskSchema};
use hercules::sim::{Clock, SimEnv};
use proptest::prelude::*;

/// A generated layered DAG: its schema, the tool entities in creation
/// order, and the goal (last-layer) entities to seed the flow from.
struct Dag {
    schema: Arc<TaskSchema>,
    tools: Vec<EntityTypeId>,
    sources: Vec<EntityTypeId>,
    goals: Vec<EntityTypeId>,
}

/// Deterministic layered-DAG builder: layer 0 is `widths[0]` primary
/// source entities; every entity of layer `l > 0` is produced by its
/// own tool from one or two entities of layer `l − 1` chosen by a
/// seeded LCG (layer-to-layer edges keep the graph acyclic while the
/// seed varies fan-in and sharing).
fn build_dag(widths: &[usize], seed: u64) -> Dag {
    let mut state = seed | 1;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut b = SchemaBuilder::new();
    let sources: Vec<EntityTypeId> = (0..widths[0].max(1))
        .map(|i| b.data(&format!("S{i}")))
        .collect();
    let mut prev = sources.clone();
    let mut tools = Vec::new();
    for (l, &w) in widths.iter().enumerate().skip(1) {
        let mut layer = Vec::new();
        for i in 0..w.max(1) {
            let tool = b.tool(&format!("T{l}_{i}"));
            let entity = b.data(&format!("D{l}_{i}"));
            b.functional(entity, tool);
            let mut deps = BTreeSet::new();
            deps.insert(lcg() % prev.len());
            if lcg() % 2 == 0 {
                deps.insert(lcg() % prev.len());
            }
            for k in deps {
                b.data_dep(entity, prev[k]);
            }
            tools.push(tool);
            layer.push(entity);
        }
        prev = layer;
    }
    Dag {
        schema: Arc::new(b.build().expect("layered DAG is a valid schema")),
        tools,
        sources,
        goals: prev,
    }
}

/// Seeds one instance per source entity (distinct payloads) and one per
/// tool, builds the flow by expanding every goal, and binds the leaves.
fn seed_and_bind(dag: &Dag) -> (TaskGraph, HistoryDb, Binding) {
    let mut db = HistoryDb::new(dag.schema.clone());
    for (i, &s) in dag.sources.iter().enumerate() {
        db.record_primary(
            s,
            Metadata::by("prop").named(&format!("s{i}")),
            format!("s{i}").as_bytes(),
        )
        .expect("source seeds");
    }
    for &t in &dag.tools {
        db.record_primary(t, Metadata::by("prop").named("tool"), b"")
            .expect("tool seeds");
    }
    let mut flow = TaskGraph::new(dag.schema.clone());
    for &goal in &dag.goals {
        let node = flow.seed(goal).expect("seeds");
        flow.expand_all(node).expect("expands");
    }
    let mut binding = Binding::new();
    binding.bind_latest(&flow, &db);
    (flow, db, binding)
}

/// Registry: the shared text tool everywhere, except `failing`, which
/// gets the always-failing tool.
fn registry(dag: &Dag, failing: Option<EntityTypeId>) -> EncapsulationRegistry {
    registry_with(dag, failing, Arc::new(toy::TextTool::default()))
}

/// As [`registry`], with `text` standing in for the text tool.
fn registry_with(
    dag: &Dag,
    failing: Option<EntityTypeId>,
    text: Arc<dyn Encapsulation>,
) -> EncapsulationRegistry {
    let fail: Arc<dyn Encapsulation> = Arc::new(toy::FailingTool);
    let mut reg = EncapsulationRegistry::new();
    for &t in &dag.tools {
        reg.register(
            t,
            if Some(t) == failing {
                fail.clone()
            } else {
                text.clone()
            },
        );
    }
    reg
}

/// One way of sequencing a flow's ready subtasks.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// The serial pump in the engine's own priority order.
    Serial,
    /// The serial pump, picking among ready subtasks with
    /// `SimEnv::new(seed).interleave()`.
    Interleaved { sim_seed: u64 },
    /// The parallel pump with this many workers (`0` sizes the pool
    /// automatically).
    Parallel { workers: usize },
}

/// Every schedule a generated flow runs under; the interleavings take
/// their seeds from the flow's own seed, so a failure names them.
fn schedules(seed: u64) -> Vec<Schedule> {
    let mut all = vec![Schedule::Serial];
    all.extend((0..4).map(|k| Schedule::Interleaved {
        sim_seed: seed.wrapping_add(k),
    }));
    all.push(Schedule::Parallel { workers: 2 });
    all.push(Schedule::Parallel { workers: 0 });
    all
}

/// An executor over `registry` that sequences subtasks by `schedule`.
fn executor(
    registry: EncapsulationRegistry,
    schedule: Schedule,
    policy: FailurePolicy,
) -> Executor {
    let mut executor = Executor::new(registry);
    let options = executor.options_mut();
    options.failure = policy;
    match schedule {
        Schedule::Serial => {}
        Schedule::Interleaved { sim_seed } => {
            options.interleave = SimEnv::new(sim_seed).interleave();
        }
        Schedule::Parallel { workers } => {
            options.parallel = true;
            options.workers = workers;
        }
    }
    executor
}

fn run(
    dag: &Dag,
    flow: &TaskGraph,
    db: &HistoryDb,
    binding: &Binding,
    failing: Option<EntityTypeId>,
    schedule: Schedule,
    policy: FailurePolicy,
) -> (Result<ExecReport, ExecError>, HistoryDb) {
    let mut db = db.clone();
    let report = executor(registry(dag, failing), schedule, policy).execute(flow, binding, &mut db);
    (report, db)
}

/// The text tool, counting its invocations.
#[derive(Default)]
struct Counted {
    calls: AtomicUsize,
}

impl Encapsulation for Counted {
    fn run(
        &self,
        schema: &TaskSchema,
        invocation: &Invocation,
    ) -> Result<Vec<ToolOutput>, ExecError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        toy::TextTool::default().run(schema, invocation)
    }
}

fn fresh_cache() -> ContentCache {
    ContentCache::in_memory(MemoryBudget::default(), Clock::real(), Metrics::disabled())
}

/// The content-cache leg of one schedule under `ContinueDisjoint`: a
/// cold run through a fresh in-memory cache, then a warm re-run through
/// the same cache, each on its own copy of the history. Both must match
/// the oracle; the cold run calls the text tool once per distinct
/// content key among the surviving subtasks, and the warm one calls it
/// never.
fn check_cached(
    dag: &Dag,
    flow: &TaskGraph,
    db: &HistoryDb,
    binding: &Binding,
    failing: Option<EntityTypeId>,
    schedule: Schedule,
    want: &Oracle,
) -> Result<(), String> {
    let cache = fresh_cache();
    for (round, ran) in [("cold", want.ran), ("warm", 0)] {
        let counted = Arc::new(Counted::default());
        let mut executor = executor(
            registry_with(dag, failing, counted.clone()),
            schedule,
            FailurePolicy::ContinueDisjoint,
        );
        executor.options_mut().cache = Some(cache.clone());
        let mut db = db.clone();
        let report = executor.execute(flow, binding, &mut db);
        let calls = counted.calls.load(Ordering::SeqCst);
        if calls != ran {
            return Err(format!(
                "{round} run made {calls} tool calls, predicted {ran}"
            ));
        }
        check(flow, want, ran, (report, db)).map_err(|m| format!("{round} run: {m}"))?;
    }
    Ok(())
}

/// Every record's blob key is the SHA-256 of its bytes, computed here:
/// the history records the digests the executor and cache entries hand
/// it without hashing, and only this check guards them in an optimized
/// build.
fn blob_keys_are_sha256(db: &HistoryDb) -> Result<(), String> {
    for inst in db.instances() {
        let bytes = db.data_of(inst.id()).map_err(|e| e.to_string())?;
        let key = inst.data().map(|blob| *blob.as_bytes());
        if key != bytes.map(hercules_digest::sha256) {
            return Err(format!(
                "{:?}'s blob key is not the SHA-256 of its bytes",
                inst.id()
            ));
        }
    }
    Ok(())
}

/// What the flow predicts for one execution.
#[derive(Debug, Default)]
struct Oracle {
    /// Expected payload of every leaf and of every interior node that
    /// neither fails nor is skipped.
    bytes: BTreeMap<NodeId, Vec<u8>>,
    failed: BTreeSet<NodeId>,
    skipped: BTreeSet<NodeId>,
    /// Distinct invocations among the surviving subtasks.
    ran: usize,
}

/// Derives the [`Oracle`] from the flow, the leaf bindings and the
/// failing tool entity. Tools are seeded with empty payloads, so the
/// text tool names itself by its entity.
fn oracle(
    flow: &TaskGraph,
    db: &HistoryDb,
    binding: &Binding,
    failing: Option<EntityTypeId>,
) -> Oracle {
    let schema = flow.schema();
    let mut o = Oracle::default();
    let mut invocations = BTreeSet::new();
    for node in flow.topo_order().expect("generated flows are acyclic") {
        let Some(tool) = flow.tool_of(node) else {
            let bound = binding.get(node)[0];
            let data = db.data_of(bound).expect("bound").expect("has data");
            o.bytes.insert(node, data.to_vec());
            continue;
        };
        let mut inputs = flow.data_inputs_of(node);
        inputs.sort();
        // An input without predicted bytes failed or was skipped.
        if inputs.iter().any(|i| !o.bytes.contains_key(i)) {
            o.skipped.insert(node);
            continue;
        }
        let tool_entity = flow.entity_of(tool).expect("live node");
        if Some(tool_entity) == failing {
            o.failed.insert(node);
            continue;
        }
        let args: Vec<String> = inputs
            .iter()
            .map(|i| String::from_utf8_lossy(&o.bytes[i]).into_owned())
            .collect();
        let term = format!("{}({})", schema.entity(tool_entity).name(), args.join(", "));
        // A term names its tool and spells out its inputs, so distinct
        // invocations are exactly distinct terms.
        invocations.insert(term.clone());
        o.bytes.insert(node, term.into_bytes());
    }
    o.ran = invocations.len();
    o
}

/// Checks one run against the oracle, describing the first mismatch.
/// `want_ran` is the number of subtasks that must report `Ran`: the
/// oracle's distinct invocations, or 0 for a run a cache answers.
fn check(
    flow: &TaskGraph,
    want: &Oracle,
    want_ran: usize,
    (report, db): (Result<ExecReport, ExecError>, HistoryDb),
) -> Result<(), String> {
    let report = report.map_err(|e| format!("execution failed: {e}"))?;
    blob_keys_are_sha256(&db)?;
    let mut failed = BTreeSet::new();
    let mut skipped = BTreeSet::new();
    let mut ran = 0;
    for task in &report.tasks {
        let [node] = task.outputs[..] else {
            return Err(format!("subtask with outputs {:?}", task.outputs));
        };
        match task.action {
            TaskAction::Ran { runs: 1 } => ran += 1,
            TaskAction::Ran { runs } => return Err(format!("{node} ran {runs} times")),
            TaskAction::Cached => {}
            TaskAction::Failed { .. } => {
                failed.insert(node);
            }
            TaskAction::Skipped => {
                skipped.insert(node);
            }
        }
    }
    let interior = flow.node_ids().filter(|&n| flow.is_expanded(n)).count();
    if report.tasks.len() != interior {
        return Err(format!(
            "{} task records for {interior} subtasks",
            report.tasks.len()
        ));
    }
    if failed != want.failed || skipped != want.skipped {
        return Err(format!(
            "failed {failed:?} / skipped {skipped:?}, predicted {:?} / {:?}",
            want.failed, want.skipped
        ));
    }
    if ran != want_ran {
        return Err(format!("{ran} subtasks ran, predicted {want_ran}"));
    }
    if report.runs() != want_ran {
        return Err(format!(
            "the report counts {} runs, predicted {want_ran}",
            report.runs()
        ));
    }
    for (&node, expected) in &want.bytes {
        let inst = report
            .try_single(node)
            .map_err(|e| format!("node {node}: {e}"))?;
        let have = db.data_of(inst).expect("present").expect("has data");
        if have != expected.as_slice() {
            return Err(format!(
                "node {node} is `{}`, predicted `{}`",
                String::from_utf8_lossy(have),
                String::from_utf8_lossy(expected)
            ));
        }
    }
    Ok(())
}

/// The tools a goal actually depends on: only those appear in the
/// flow, so a failing tool picked from them has a non-empty cone.
fn tools_in_flow(dag: &Dag, flow: &TaskGraph) -> Vec<EntityTypeId> {
    let present: BTreeSet<EntityTypeId> = flow
        .node_ids()
        .filter_map(|n| flow.entity_of(n).ok())
        .collect();
    dag.tools
        .iter()
        .copied()
        .filter(|t| present.contains(t))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Success path: every schedule produces the predicted bytes on
    /// every node and the predicted number of tool runs.
    #[test]
    fn every_schedule_matches_the_flow_oracle(
        widths in prop::collection::vec(1usize..4, 2..5),
        seed in 0u64..u64::MAX,
    ) {
        let dag = build_dag(&widths, seed);
        let (flow, db, binding) = seed_and_bind(&dag);
        let want = oracle(&flow, &db, &binding, None);
        for schedule in schedules(seed) {
            let got = run(&dag, &flow, &db, &binding, None, schedule, FailurePolicy::Abort);
            check(&flow, &want, want.ran, got).map_err(|m| TestCaseError::fail(format!(
                "widths {widths:?}, seed {seed}, {schedule:?}: {m}"
            )))?;
        }
    }

    /// Failure path: inject one always-failing tool. Under
    /// `ContinueDisjoint` every schedule reports the predicted `Failed`
    /// and `Skipped` sets and completes everything else as predicted;
    /// under `Abort` every schedule errors.
    #[test]
    fn failure_cones_match_between_schedulers(
        widths in prop::collection::vec(1usize..4, 2..5),
        seed in 0u64..u64::MAX,
        failing_seed in 0usize..1usize << 16,
    ) {
        let dag = build_dag(&widths, seed);
        let (flow, db, binding) = seed_and_bind(&dag);
        let used = tools_in_flow(&dag, &flow);
        prop_assert!(!used.is_empty());
        let failing = Some(used[failing_seed % used.len()]);
        let want = oracle(&flow, &db, &binding, failing);
        prop_assert!(!want.failed.is_empty(), "the failing tool is reachable");
        for schedule in schedules(seed) {
            let context = format!("widths {widths:?}, seed {seed}, failing seed \
                                   {failing_seed}, {schedule:?}");
            let got = run(&dag, &flow, &db, &binding, failing, schedule,
                          FailurePolicy::ContinueDisjoint);
            check(&flow, &want, want.ran, got)
                .map_err(|m| TestCaseError::fail(format!("{context}: {m}")))?;

            let (aborted, _) = run(&dag, &flow, &db, &binding, failing, schedule,
                                   FailurePolicy::Abort);
            prop_assert!(aborted.is_err(), "{}: Abort surfaces no failure", context);
        }
    }

    /// Content-cache leg: through a fresh in-memory cache, every
    /// schedule produces the predicted bytes and failure cones, calls
    /// the text tool once per distinct content key among the surviving
    /// subtasks, and a warm re-run calls it never. One case in three
    /// runs without a failing tool.
    #[test]
    fn content_cache_runs_each_key_once_under_every_schedule(
        widths in prop::collection::vec(1usize..4, 2..5),
        seed in 0u64..u64::MAX,
        failing_seed in 0usize..1usize << 16,
    ) {
        let dag = build_dag(&widths, seed);
        let (flow, db, binding) = seed_and_bind(&dag);
        let used = tools_in_flow(&dag, &flow);
        let failing = (failing_seed % 3 != 0 && !used.is_empty())
            .then(|| used[failing_seed % used.len()]);
        let want = oracle(&flow, &db, &binding, failing);
        for schedule in schedules(seed) {
            check_cached(&dag, &flow, &db, &binding, failing, schedule, &want)
                .map_err(|m| TestCaseError::fail(format!(
                    "widths {widths:?}, seed {seed}, failing {failing:?}, {schedule:?}: {m}"
                )))?;
        }
    }
}

/// A flow whose `k` root subtasks share one content key: the goal `D`
/// seeded `k` times, each produced by its own `T` node from its own
/// `S` node, all bound to the same instances. With `consumer`, each `D`
/// also feeds its own `E` (by `U`), so a failed `D` has a cone.
fn shared_key_flow(k: usize, consumer: bool) -> (Arc<TaskSchema>, TaskGraph, HistoryDb, Binding) {
    let mut b = SchemaBuilder::new();
    let s = b.data("S");
    let t = b.tool("T");
    let d = b.data("D");
    b.functional(d, t);
    b.data_dep(d, s);
    let u = b.tool("U");
    let e = b.data("E");
    b.functional(e, u);
    b.data_dep(e, d);
    let schema = Arc::new(b.build().expect("valid schema"));
    let mut db = HistoryDb::new(schema.clone());
    db.record_primary(s, Metadata::by("prop"), b"s")
        .expect("source seeds");
    for tool in [t, u] {
        db.record_primary(tool, Metadata::by("prop"), b"")
            .expect("tool seeds");
    }
    let mut flow = TaskGraph::new(schema.clone());
    for _ in 0..k {
        let goal = flow.seed(if consumer { e } else { d }).expect("seeds");
        flow.expand_all(goal).expect("expands");
    }
    let mut binding = Binding::new();
    binding.bind_latest(&flow, &db);
    (schema, flow, db, binding)
}

/// A registry with `t` for the tool `T` and the text tool for `U`.
fn shared_key_registry(schema: &TaskSchema, t: Arc<dyn Encapsulation>) -> EncapsulationRegistry {
    let mut reg = EncapsulationRegistry::new();
    reg.register(schema.require("T").expect("known"), t);
    reg.register(
        schema.require("U").expect("known"),
        Arc::new(toy::TextTool::default()),
    );
    reg
}

/// Under the parallel pump, `k` root subtasks that share one content
/// key make one tool call and `k - 1` waits, whatever the timing: all
/// `k` are dispatched while the queue is seeded, and the claimant's
/// completion is handled on the scheduling thread only after that.
#[test]
fn single_flight_parks_every_other_root_behind_the_claimant() {
    for k in [2, 3, 5] {
        for workers in [2, 0] {
            let (schema, flow, db, binding) = shared_key_flow(k, false);
            let counted = Arc::new(Counted::default());
            let mut executor = executor(
                shared_key_registry(&schema, counted.clone()),
                Schedule::Parallel { workers },
                FailurePolicy::Abort,
            );
            let ring = Arc::new(RingBuffer::new(4096));
            let metrics = Metrics::new();
            let options = executor.options_mut();
            options.cache = Some(fresh_cache());
            options.metrics = metrics.clone();
            options.tracer = Tracer::new(ring.clone());
            let mut db = db.clone();
            let report = executor.execute(&flow, &binding, &mut db).expect("runs");
            let context = format!("k {k}, workers {workers}");
            assert_eq!(counted.calls.load(Ordering::SeqCst), 1, "{context}");
            assert_eq!(report.runs(), 1, "{context}");
            assert!(report.is_complete(), "{context}");
            let waits = metrics.snapshot().counters.get("cache.waits").copied();
            assert_eq!(waits, Some(k as u64 - 1), "{context}");
            let instants = ring
                .snapshot()
                .iter()
                .filter(|e| e.kind == EventKind::Instant && e.name == "content_cache_wait")
                .count();
            assert_eq!(
                instants,
                k - 1,
                "{context}: one wait instant per parked task"
            );
            let out = report.instances_of(flow.outputs()[0])[0];
            assert_eq!(db.data_of(out).expect("present"), Some(&b"T(s)"[..]));
        }
    }
}

/// A claimant that fails or panics hands its key to the first waiter,
/// so a deterministic failure fails each waiter in turn: under
/// `ContinueDisjoint` the run terminates with every sharing subtask
/// `Failed` and its consumer `Skipped`; under `Abort` the claimant's
/// error returns after one tool call. The pool lives in a thread scope
/// inside `execute`, so no worker runs on once it returns.
#[test]
fn single_flight_claimant_failure_fails_each_waiter_in_turn() {
    let k = 3;
    for plan in [None, Some(FaultPlan::AlwaysPanic)] {
        for policy in [FailurePolicy::ContinueDisjoint, FailurePolicy::Abort] {
            let (schema, flow, db, binding) = shared_key_flow(k, true);
            let inner: Arc<dyn Encapsulation> = Arc::new(toy::FailingTool);
            let tool =
                FaultyEncapsulation::wrap(inner, plan.clone().unwrap_or(FaultPlan::FailTimes(0)));
            let mut executor = executor(
                shared_key_registry(&schema, tool.clone()),
                Schedule::Parallel { workers: 2 },
                policy,
            );
            let metrics = Metrics::new();
            executor.options_mut().cache = Some(fresh_cache());
            executor.options_mut().metrics = metrics.clone();
            let mut db = db.clone();
            let result = executor.execute(&flow, &binding, &mut db);
            let context = format!("{plan:?}, {policy:?}");
            match policy {
                FailurePolicy::ContinueDisjoint => {
                    let report = result.expect("partial failure is a report");
                    assert_eq!(report.failed(), k, "{context}");
                    assert_eq!(report.skipped(), k, "{context}");
                    assert_eq!(report.runs(), 0, "{context}");
                    assert_eq!(
                        tool.calls(),
                        k,
                        "{context}: each waiter runs the tool in turn"
                    );
                    let waits = metrics.snapshot().counters.get("cache.waits").copied();
                    assert_eq!(waits, Some((k * (k - 1) / 2) as u64), "{context}");
                }
                FailurePolicy::Abort => {
                    let error = result.expect_err("the claimant's failure aborts");
                    assert!(
                        matches!(
                            error,
                            ExecError::ToolFailed { .. } | ExecError::ToolPanicked { .. }
                        ),
                        "{context}: {error}"
                    );
                    assert_eq!(tool.calls(), 1, "{context}: no waiter ran");
                }
            }
        }
    }
}
