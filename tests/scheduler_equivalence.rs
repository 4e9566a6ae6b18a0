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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use hercules::exec::{
    toy, Binding, Encapsulation, EncapsulationRegistry, ExecError, ExecReport, Executor,
    FailurePolicy, TaskAction,
};
use hercules::flow::{NodeId, TaskGraph};
use hercules::history::{HistoryDb, Metadata};
use hercules::schema::{EntityTypeId, SchemaBuilder, TaskSchema};
use hercules::sim::SimEnv;
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
    let text: Arc<dyn Encapsulation> = Arc::new(toy::TextTool::default());
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
    let mut executor = Executor::new(registry(dag, failing));
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
    let report = executor.execute(flow, binding, &mut db);
    (report, db)
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
fn check(
    flow: &TaskGraph,
    want: &Oracle,
    (report, db): (Result<ExecReport, ExecError>, HistoryDb),
) -> Result<(), String> {
    let report = report.map_err(|e| format!("execution failed: {e}"))?;
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
    if ran != want.ran {
        return Err(format!("{ran} subtasks ran, predicted {}", want.ran));
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
            check(&flow, &want, got).map_err(|m| TestCaseError::fail(format!(
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
        // Only tools a goal actually depends on appear in the flow;
        // pick the failing one from those so the cone is non-empty.
        let used: Vec<EntityTypeId> = {
            let present: BTreeSet<EntityTypeId> = flow
                .node_ids()
                .filter_map(|n| flow.entity_of(n).ok())
                .collect();
            dag.tools.iter().copied().filter(|t| present.contains(t)).collect()
        };
        prop_assert!(!used.is_empty());
        let failing = Some(used[failing_seed % used.len()]);
        let want = oracle(&flow, &db, &binding, failing);
        prop_assert!(!want.failed.is_empty(), "the failing tool is reachable");
        for schedule in schedules(seed) {
            let context = format!("widths {widths:?}, seed {seed}, failing seed \
                                   {failing_seed}, {schedule:?}");
            let got = run(&dag, &flow, &db, &binding, failing, schedule,
                          FailurePolicy::ContinueDisjoint);
            check(&flow, &want, got)
                .map_err(|m| TestCaseError::fail(format!("{context}: {m}")))?;

            let (aborted, _) = run(&dag, &flow, &db, &binding, failing, schedule,
                                   FailurePolicy::Abort);
            prop_assert!(aborted.is_err(), "{}: Abort surfaces no failure", context);
        }
    }
}
