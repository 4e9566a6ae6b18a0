//! Property tests for the content-addressed tool-execution cache: a
//! warm run that replays cached results must be *byte-identical* to
//! the cold run that produced them — same output data, same history
//! records (ids, entities, metadata, blob hashes, derivations) — with
//! only timings and the cache-hit marking allowed to differ. That
//! holds for a one-task flow and for a multi-task one, whose lookups
//! and commits keep their order. Distinct inputs must never collide
//! into a wrong hit, and the disk tier must carry results across
//! workspaces that share nothing but a cache directory.

use hercules::cache::{CacheConfig, ContentCache, MemoryBudget};
use hercules::eda::{GateKind, Netlist, PlacementRules};
use hercules::flow::NodeId;
use hercules::history::{EntityInstance, Metadata};
use hercules::obs::Metrics;
use hercules::sim::{Clock, SimEnv};
use hercules::ui::Ui;
use hercules::Session;
use proptest::prelude::*;

/// Builds a valid gate-level netlist from a generated gate-kind chain:
/// each entry appends one gate fed by the previous stage (and a second
/// primary input for the multi-input kinds). The canonical text form
/// is what gets recorded as the `EditedNetlist` payload.
fn netlist_bytes(kinds: &[u8]) -> Vec<u8> {
    let mut n = Netlist::new("gen");
    let a = n.add_port_in("a");
    let b = n.add_port_in("b");
    let mut prev = a;
    for (i, k) in kinds.iter().enumerate() {
        let kind = match k % 8 {
            0 => GateKind::Inv,
            1 => GateKind::Buf,
            2 => GateKind::And,
            3 => GateKind::Or,
            4 => GateKind::Nand,
            5 => GateKind::Nor,
            6 => GateKind::Xor,
            _ => GateKind::Xnor,
        };
        let out = n.add_net(&format!("n{i}"));
        match kind {
            GateKind::Inv | GateKind::Buf => n.add_gate(kind, &[prev], out),
            _ => n.add_gate(kind, &[prev, b], out),
        }
        prev = out;
    }
    let out_name = n.net_name(prev).to_owned();
    n.add_port_out(&out_name);
    n.to_bytes()
}

/// Serializes generated placement rules.
fn rules_bytes(row_width: i64, spacing: i64) -> Vec<u8> {
    PlacementRules { row_width, spacing }.to_bytes()
}

/// One full Layout run against a fresh session seeded with the given
/// netlist and placement-rules payloads, sharing only `cache` with
/// other runs. Returns `(runs, cache_hits, history records, layout
/// bytes)`.
fn run_layout(
    cache: ContentCache,
    netlist: &[u8],
    rules: &[u8],
) -> (usize, usize, Vec<EntityInstance>, Vec<u8>) {
    let mut session = Session::odyssey("prop");
    session.attach_content_cache(cache);
    let schema = session.schema().clone();
    let edited = schema.require("EditedNetlist").expect("known entity");
    let rules_entity = schema.require("PlacementRules").expect("known entity");
    session
        .db_mut()
        .record_primary(edited, Metadata::by("prop").named("gen-netlist"), netlist)
        .expect("records netlist");
    session
        .db_mut()
        .record_primary(rules_entity, Metadata::by("prop").named("gen-rules"), rules)
        .expect("records rules");

    let layout = session.start_from_goal("Layout").expect("starts");
    let created = session.expand(layout).expect("expands");
    let netlist_node = created
        .iter()
        .copied()
        .find(|&n| {
            session
                .flow()
                .expect("active flow")
                .entity_of(n)
                .ok()
                .map(|e| schema.entity(e).name() == "Netlist")
                .unwrap_or(false)
        })
        .expect("expanded Netlist input");
    session
        .specialize(netlist_node, "EditedNetlist")
        .expect("specializes");
    session.bind_latest().expect("binds");

    let report = session.run().expect("runs").clone();
    let out = report.single(layout);
    let data = session
        .db()
        .data_of(out)
        .expect("readable")
        .expect("has data")
        .to_vec();
    let records: Vec<EntityInstance> = session.db().instances().cloned().collect();
    (report.runs(), report.cache_hits(), records, data)
}

/// One serial `Verification` run (Fig. 8b: an edited netlist checked
/// against the extraction of its own layout), driven through the REPL
/// in a fresh session that shares only `cache` with other runs. Both
/// edits take the editor script holding `netlist`; the subtasks are
/// the two edits, the placer, the extractor and the verifier. Returns
/// `(runs, cache_hits, history records, verification bytes)`.
fn run_verification(
    cache: ContentCache,
    netlist: &[u8],
) -> (usize, usize, Vec<EntityInstance>, Vec<u8>) {
    let mut session = Session::odyssey("prop");
    session.attach_content_cache(cache);
    let editor = session
        .schema()
        .require("CircuitEditor")
        .expect("known entity");
    let script = session
        .db_mut()
        .record_primary(editor, Metadata::by("prop").named("gen-script"), netlist)
        .expect("records the editor script");
    let mut ui = Ui::new(session);
    let select = |node: &str| format!("select {node} i{}", script.raw());
    let lines = [
        "goal Verification".to_owned(),
        "expand n0".to_owned(),
        "specialize n2 EditedNetlist".to_owned(),
        "expand n2".to_owned(),
        "expand n3".to_owned(),
        "expand n6".to_owned(),
        "specialize n8 EditedNetlist".to_owned(),
        "expand n8".to_owned(),
        "bind-latest".to_owned(),
        select("n4"),
        select("n10"),
        "run".to_owned(),
    ];
    for line in &lines {
        ui.execute(line)
            .unwrap_or_else(|e| panic!("`{line}` fails: {e}"));
    }
    let session = ui.session();
    let report = session.last_report().expect("the run reported");
    let data = session
        .db()
        .data_of(report.single(NodeId::from_index(0)))
        .expect("readable")
        .expect("has data")
        .to_vec();
    let records: Vec<EntityInstance> = session.db().instances().cloned().collect();
    (report.runs(), report.cache_hits(), records, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hit equivalence for a multi-task flow under the serial pump:
    /// each subtask is looked up when it is popped, after every earlier
    /// one wrote its result back, so the cold run invokes each content
    /// key once (the second edit replays the first) and the warm run
    /// replays every subtask and records the cold run's history, ids
    /// included.
    #[test]
    fn warm_multi_task_run_is_byte_identical_to_cold(
        kinds in prop::collection::vec(0u8..=7, 1..12),
    ) {
        let netlist = netlist_bytes(&kinds);
        let cache = ContentCache::in_memory(
            MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        let (cold_runs, cold_hits, cold_records, cold_data) =
            run_verification(cache.clone(), &netlist);
        prop_assert_eq!(cold_runs, 4, "editor, placer, extractor and verifier run once");
        prop_assert_eq!(cold_hits, 1, "the second edit replays the first");

        let (warm_runs, warm_hits, warm_records, warm_data) =
            run_verification(cache, &netlist);
        prop_assert_eq!(warm_runs, 0, "warm run must replay from cache");
        prop_assert_eq!(warm_hits, 5, "every subtask replays");
        prop_assert_eq!(warm_data, cold_data, "verification bytes must match");
        prop_assert_eq!(warm_records, cold_records, "history records must match");
    }

    /// Hit equivalence: over generated input payloads, the warm run
    /// invokes no tools, reports the hit, and leaves a history
    /// byte-identical to the cold run's — every record (entity,
    /// metadata, logical timestamp, blob hash, derivation) matches.
    #[test]
    fn warm_run_is_byte_identical_to_cold(
        kinds in prop::collection::vec(0u8..=7, 1..12),
        row_width in 20i64..200,
        spacing in 1i64..5,
    ) {
        let netlist = netlist_bytes(&kinds);
        let rules = rules_bytes(row_width, spacing);
        let cache = ContentCache::in_memory(
            MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        let (cold_runs, cold_hits, cold_records, cold_data) =
            run_layout(cache.clone(), &netlist, &rules);
        prop_assert!(cold_runs >= 1, "cold run must invoke the placer");
        prop_assert_eq!(cold_hits, 0);

        let (warm_runs, warm_hits, warm_records, warm_data) =
            run_layout(cache.clone(), &netlist, &rules);
        prop_assert_eq!(warm_runs, 0, "warm run must replay from cache");
        prop_assert!(warm_hits >= 1, "warm run must report the hit");
        prop_assert_eq!(warm_data, cold_data, "layout bytes must match");
        prop_assert_eq!(warm_records, cold_records, "history records must match");
    }

    /// No wrong hits: two runs through one cache with *different*
    /// netlists must not share results — the second run misses, runs
    /// the tool, and its output reflects its own input.
    #[test]
    fn distinct_inputs_never_collide(
        a in prop::collection::vec(0u8..=7, 1..12),
        b in prop::collection::vec(0u8..=7, 1..12),
        row_width in 20i64..200,
        spacing in 1i64..5,
    ) {
        prop_assume!(a != b);
        let net_a = netlist_bytes(&a);
        let net_b = netlist_bytes(&b);
        let rules = rules_bytes(row_width, spacing);
        let cache = ContentCache::in_memory(
            MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        let (first_runs, _, _, first_data) = run_layout(cache.clone(), &net_a, &rules);
        prop_assert!(first_runs >= 1);
        let (second_runs, second_hits, _, _) =
            run_layout(cache.clone(), &net_b, &rules);
        prop_assert!(second_runs >= 1, "a different netlist must miss");
        prop_assert_eq!(second_hits, 0);
        // Replaying input `a` afterwards still hits its own entry.
        let (third_runs, third_hits, _, third_data) = run_layout(cache, &net_a, &rules);
        prop_assert_eq!(third_runs, 0);
        prop_assert!(third_hits >= 1);
        prop_assert_eq!(third_data, first_data);
    }
}

/// Cross-workspace reuse through the shared disk tier: workspace B
/// opens its *own* cache over the directory workspace A committed to,
/// and replays A's work without running a single tool. The memory
/// tiers share nothing — the hit comes off the disk.
#[test]
fn workspace_b_hits_on_workspace_a_results_via_shared_disk_tier() {
    let sim = SimEnv::new(0xCAC11E);
    let netlist = netlist_bytes(&[0, 2, 4, 6]);
    let rules = rules_bytes(60, 3);

    let cache_a = ContentCache::open(
        &sim.fs(),
        "/shared-cache",
        CacheConfig::default(),
        sim.clock(),
        Metrics::disabled(),
    )
    .expect("workspace A opens");
    let (a_runs, _, _, a_data) = run_layout(cache_a, &netlist, &rules);
    assert!(a_runs >= 1, "workspace A does the work");

    let cache_b = ContentCache::open(
        &sim.fs(),
        "/shared-cache",
        CacheConfig::default(),
        sim.clock(),
        Metrics::disabled(),
    )
    .expect("workspace B opens");
    let (b_runs, b_hits, _, b_data) = run_layout(cache_b.clone(), &netlist, &rules);
    assert_eq!(b_runs, 0, "workspace B replays A's committed results");
    assert!(b_hits >= 1);
    assert_eq!(b_data, a_data, "byte-identical across workspaces");
    let stats = cache_b.stats();
    let disk = stats
        .tiers
        .iter()
        .find(|t| t.tier == "disk")
        .expect("disk tier in stats");
    assert!(disk.hits >= 1, "the hit must come off the shared disk tier");
}
