//! Shared workload builders for the per-figure benchmarks.
//!
//! `DESIGN.md` §4 maps every figure of the paper to a bench target in
//! `benches/`; this crate holds the generators those targets share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use hercules::eda;
use hercules::exec::toy;
use hercules::history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules::schema::{fixtures, TaskSchema};
use hercules::Session;

/// Returns the Fig. 1 schema behind an `Arc`.
pub fn fig1() -> Arc<TaskSchema> {
    Arc::new(fixtures::fig1())
}

/// Returns the merged Odyssey schema behind an `Arc`.
pub fn odyssey() -> Arc<TaskSchema> {
    Arc::new(fixtures::odyssey())
}

/// A standard session with one recorded full-adder netlist; returns
/// `(session, netlist instance)`.
pub fn session_with_adder() -> (Session, InstanceId) {
    let mut session = Session::odyssey("bench");
    let netlist = record_netlist(&mut session, "fa", &eda::cells::full_adder());
    (session, netlist)
}

/// Records a gate-level netlist as an `EditedNetlist` in the session's
/// history.
pub fn record_netlist(session: &mut Session, name: &str, netlist: &eda::Netlist) -> InstanceId {
    let schema = session.schema().clone();
    let editor = schema.require("CircuitEditor").expect("known");
    let edited = schema.require("EditedNetlist").expect("known");
    let tool = session.db().instances_of(editor)[0];
    session
        .db_mut()
        .record_derived(
            edited,
            Metadata::by("bench").named(name),
            &netlist.to_bytes(),
            Derivation::by_tool(tool, []),
        )
        .expect("records")
}

/// Builds a history database containing an edit chain of `depth`
/// versions (v0 ← v1 ← … ) plus the editor; returns `(db, newest)`.
pub fn edit_chain(depth: usize) -> (HistoryDb, InstanceId) {
    let schema = fig1();
    let mut db = HistoryDb::new(schema.clone());
    let editor = db
        .record_primary(
            schema.require("CircuitEditor").expect("known"),
            Metadata::by("bench").named("ed"),
            b"ed",
        )
        .expect("records");
    let edited = schema.require("EditedNetlist").expect("known");
    let mut prev: Option<InstanceId> = None;
    for i in 0..depth.max(1) {
        let inst = db
            .record_derived(
                edited,
                Metadata::by("bench").named(&format!("v{i}")),
                format!("v{i}").as_bytes(),
                Derivation::by_tool(editor, prev),
            )
            .expect("records");
        prev = Some(inst);
    }
    (db, prev.expect("at least one version"))
}

/// Builds a history database with `count` independent instances spread
/// over `users` users and alternating keywords, for browser benches.
pub fn browsing_db(count: usize, users: usize) -> HistoryDb {
    let schema = fig1();
    let mut db = HistoryDb::new(schema.clone());
    let editor = db
        .record_primary(
            schema.require("CircuitEditor").expect("known"),
            Metadata::by("bench").named("ed"),
            b"ed",
        )
        .expect("records");
    let edited = schema.require("EditedNetlist").expect("known");
    for i in 0..count {
        let user = format!("user{}", i % users.max(1));
        let meta = Metadata::by(&user)
            .named(&format!("design {i}"))
            .keyword(if i % 2 == 0 { "digital" } else { "analog" });
        db.record_derived(
            edited,
            meta,
            format!("d{i}").as_bytes(),
            Derivation::by_tool(editor, []),
        )
        .expect("records");
    }
    db
}

/// Builds a flow of `branches` independent placement tasks over the
/// Fig. 1 schema (disjoint branches for the Fig. 6 parallel bench),
/// plus a seeded toy database and binding.
pub fn disjoint_branches(
    branches: usize,
) -> (
    Arc<TaskSchema>,
    hercules::flow::TaskGraph,
    HistoryDb,
    hercules::exec::Binding,
) {
    let schema = fig1();
    let mut flow = hercules::flow::TaskGraph::new(schema.clone());
    for _ in 0..branches.max(1) {
        let layout = flow
            .seed(schema.require("Layout").expect("known"))
            .expect("seeds");
        flow.expand(layout).expect("expands");
    }
    let mut db = HistoryDb::new(schema.clone());
    toy::seed_everything(&mut db, "bench");
    let mut binding = hercules::exec::Binding::new();
    binding.bind_latest(&flow, &db);
    (schema, flow, db, binding)
}

/// Builds the straggler workload: one branch that is a single task
/// costing `straggler_us` microseconds, next to `branches − 1` chains of
/// `depth` unit-cost tasks. The critical path is the longer of the
/// straggler and one chain; a scheduler that lets the chains advance
/// while the straggler runs finishes close to it, while one that holds
/// the chains behind the straggler pays about the sum of the two. The
/// benchmark gates the makespan against that measured critical path.
///
/// The unit cost comes from the registry's [`toy::TextTool::work`]; the
/// straggler's cost rides in its tool instance data (`cost:<µs>`),
/// which [`toy::TextTool`] parses as a sleep override. Each chain binds
/// its own `Seed` instance so the executor's invocation cache cannot
/// collapse the branches into one.
///
/// # Panics
///
/// Never under normal operation; the schema is built locally.
pub fn straggler_branches(
    branches: usize,
    depth: usize,
    straggler_us: u64,
) -> (
    Arc<TaskSchema>,
    hercules::flow::TaskGraph,
    HistoryDb,
    hercules::exec::Binding,
) {
    use hercules::schema::SchemaBuilder;

    let branches = branches.max(2);
    let depth = depth.max(1);
    let mut b = SchemaBuilder::new();
    let step = b.tool("Step");
    let long = b.tool("Long");
    let seed = b.data("Seed");
    let mut prev = seed;
    let mut chain = Vec::new();
    for k in 1..=depth {
        let link = b.data(&format!("C{k}"));
        b.functional(link, step);
        b.data_dep(link, prev);
        chain.push(link);
        prev = link;
    }
    let slow = b.data("Slow");
    b.functional(slow, long);
    b.data_dep(slow, seed);
    let schema = Arc::new(b.build().expect("straggler schema"));

    let mut db = HistoryDb::new(schema.clone());
    let step_tool = db
        .record_primary(step, Metadata::by("bench").named("step"), b"")
        .expect("records");
    let long_tool = db
        .record_primary(
            long,
            Metadata::by("bench").named("long"),
            format!("cost:{straggler_us}").as_bytes(),
        )
        .expect("records");

    let mut flow = hercules::flow::TaskGraph::new(schema.clone());
    let mut binding = hercules::exec::Binding::new();
    let top = *chain.last().expect("depth >= 1");
    for branch in 0..branches - 1 {
        let goal = flow.seed(top).expect("seeds");
        flow.expand_all(goal).expect("expands");
        // Distinct seed data per branch defeats invocation caching.
        let inst = db
            .record_primary(
                seed,
                Metadata::by("bench").named(&format!("seed{branch}")),
                format!("s{branch}").as_bytes(),
            )
            .expect("records");
        for leaf in flow.leaves() {
            if binding.get(leaf).is_empty() {
                let entity = flow.entity_of(leaf).expect("node");
                if entity == seed {
                    binding.bind(leaf, inst);
                } else if entity == step {
                    binding.bind(leaf, step_tool);
                }
            }
        }
    }
    let goal = flow.seed(slow).expect("seeds");
    flow.expand_all(goal).expect("expands");
    let straggler_seed = db
        .record_primary(seed, Metadata::by("bench").named("seed-straggler"), b"slow")
        .expect("records");
    for leaf in flow.leaves() {
        if binding.get(leaf).is_empty() {
            let entity = flow.entity_of(leaf).expect("node");
            if entity == seed {
                binding.bind(leaf, straggler_seed);
            } else if entity == step {
                binding.bind(leaf, step_tool);
            } else if entity == long {
                binding.bind(leaf, long_tool);
            }
        }
    }
    (schema, flow, db, binding)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_chain_has_requested_depth() {
        let (db, newest) = edit_chain(10);
        assert_eq!(db.len(), 11);
        let forest = db
            .version_forest(db.instance(newest).expect("present").entity())
            .expect("builds");
        assert_eq!(forest.depth(newest), 9);
    }

    #[test]
    fn browsing_db_spreads_users() {
        let db = browsing_db(50, 5);
        assert_eq!(db.len(), 51);
        assert_eq!(db.users().len(), 6, "5 designers + the bench seeder");
    }

    #[test]
    fn disjoint_branches_bind_completely() {
        let (_, flow, db, binding) = disjoint_branches(4);
        assert_eq!(flow.outputs().len(), 4);
        binding.validate(&flow, &db).expect("fully bound");
    }

    #[test]
    fn straggler_branches_bind_and_execute_distinctly() {
        let (schema, flow, mut db, binding) = straggler_branches(4, 3, 50);
        assert_eq!(flow.outputs().len(), 4, "3 chains + 1 straggler");
        binding.validate(&flow, &db).expect("fully bound");
        // The first level set holds the straggler plus every chain
        // head; later levels hold only the chains.
        let waves = flow.parallel_waves().expect("acyclic");
        assert_eq!(waves.len(), 3, "chain depth bounds the level count");

        let registry = toy::text_registry(&schema);
        let executor = hercules::exec::Executor::new(registry);
        let report = executor.execute(&flow, &binding, &mut db).expect("runs");
        // 3 chains × 3 steps + 1 straggler, none collapsed by the
        // invocation cache.
        assert_eq!(report.tasks.len(), 10);
        let texts: std::collections::BTreeSet<String> = flow
            .outputs()
            .iter()
            .map(|&o| {
                String::from_utf8_lossy(db.data_of(report.single(o)).unwrap().unwrap()).into_owned()
            })
            .collect();
        assert_eq!(texts.len(), 4, "every branch produced distinct data");
    }
}
