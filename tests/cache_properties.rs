//! Property tests for the content-addressed tool-execution cache: a
//! warm run that replays cached results must be *byte-identical* to
//! the cold run that produced them — same output data, same history
//! records (ids, entities, metadata, blob hashes, derivations) — with
//! only timings and the cache-hit marking allowed to differ. That
//! holds for a one-task flow and for a multi-task one, whose lookups
//! and commits keep their order, and for hits served by the memory
//! tier and by the disk tier. Every recorded blob key is the SHA-256
//! of its bytes, although a replay hands the history digests the cache
//! entry carries and the history hashes nothing. Distinct inputs must
//! never collide into a wrong hit, an entry in the previous format is
//! never served, and the disk tier must carry results across
//! workspaces that share nothing but a cache directory.

use std::path::Path;

use hercules::cache::{CacheConfig, CacheKey, ContentCache, MemoryBudget};
use hercules::eda::{GateKind, Netlist, PlacementRules};
use hercules::flow::NodeId;
use hercules::history::{EntityInstance, HistoryDb, Metadata};
use hercules::obs::Metrics;
use hercules::sim::{Clock, SimEnv};
use hercules::ui::Ui;
use hercules::Session;
use hercules_digest::{crc32, sha256};
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

/// Checks every record's blob key against the SHA-256 of its bytes,
/// computed here: a digest the history was handed must be the one it
/// would have computed.
fn assert_blob_keys_are_sha256(db: &HistoryDb) {
    for inst in db.instances() {
        let blob = inst.data().expect("every record holds data");
        let bytes = db.data_of(inst.id()).expect("readable").expect("data");
        assert_eq!(
            blob.as_bytes(),
            &sha256(bytes),
            "{:?}: blob key is not the SHA-256 of its bytes",
            inst.id()
        );
    }
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
    assert_blob_keys_are_sha256(session.db());
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
/// the two edits, the placer, the extractor and the verifier.
fn run_verification(cache: Option<ContentCache>, netlist: &[u8]) -> Verified {
    let mut session = Session::odyssey("prop");
    if let Some(cache) = cache {
        session.attach_content_cache(cache);
    }
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
    ];
    for line in &lines {
        ui.execute(line)
            .unwrap_or_else(|e| panic!("`{line}` fails: {e}"));
    }
    let (first_new, hashed_before) = {
        let db = ui.session().db();
        (db.len(), db.store().hashed_bytes())
    };
    ui.execute("run").expect("runs");
    let session = ui.session();
    assert_blob_keys_are_sha256(session.db());
    let report = session.last_report().expect("the run reported");
    let data = session
        .db()
        .data_of(report.single(NodeId::from_index(0)))
        .expect("readable")
        .expect("has data")
        .to_vec();
    let db = session.db();
    Verified {
        runs: report.runs(),
        hits: report.cache_hits(),
        records: db.instances().cloned().collect(),
        data,
        hashed: db.store().hashed_bytes() - hashed_before,
        produced: db
            .instances()
            .skip(first_new)
            .map(|inst| {
                db.data_of(inst.id())
                    .expect("readable")
                    .map_or(0, <[u8]>::len) as u64
            })
            .sum(),
    }
}

/// What one [`run_verification`] left behind.
struct Verified {
    runs: usize,
    hits: usize,
    records: Vec<EntityInstance>,
    /// The verification's bytes.
    data: Vec<u8>,
    /// Payload bytes the history hashed while it recorded the run.
    hashed: u64,
    /// Payload bytes of the records the run added.
    produced: u64,
}

/// A content cache with a disk tier at `root` on the simulated disk,
/// behind a fresh, empty memory tier: each call is a new session's
/// `cache open` of a shared directory.
fn open_disk_cache(sim: &SimEnv, root: &str) -> ContentCache {
    ContentCache::open(
        &sim.fs(),
        root,
        CacheConfig::default(),
        sim.clock(),
        Metrics::disabled(),
    )
    .expect("cache opens")
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
        let cold = run_verification(Some(cache.clone()), &netlist);
        prop_assert_eq!(cold.runs, 4, "editor, placer, extractor and verifier run once");
        prop_assert_eq!(cold.hits, 1, "the second edit replays the first");

        let warm = run_verification(Some(cache), &netlist);
        prop_assert_eq!(warm.runs, 0, "warm run must replay from cache");
        prop_assert_eq!(warm.hits, 5, "every subtask replays");
        prop_assert_eq!(warm.data, cold.data, "verification bytes must match");
        prop_assert_eq!(warm.records, cold.records, "history records must match");
    }

    /// Hit equivalence off the disk tier: each warm session opens the
    /// cold session's cache directory behind a fresh memory tier, as
    /// fanout-cache's rounds do, so its first lookup of each key
    /// decodes the entry from disk, digests included. The warm history
    /// is the cold one, blob keys included, and recording it hashes no
    /// payload byte; neither does the cold run, whose workers hashed
    /// what their tools produced.
    #[test]
    fn warm_disk_tier_run_is_byte_identical_to_cold(
        kinds in prop::collection::vec(0u8..=7, 1..12),
    ) {
        let netlist = netlist_bytes(&kinds);
        let sim = SimEnv::new(0xD15C);
        let cold = run_verification(Some(open_disk_cache(&sim, "/tier")), &netlist);
        prop_assert_eq!(cold.runs, 4);
        prop_assert_eq!(cold.hashed, 0, "the workers hashed every payload");
        for round in 0..2 {
            let cache = open_disk_cache(&sim, "/tier");
            let warm = run_verification(Some(cache.clone()), &netlist);
            prop_assert_eq!(warm.runs, 0, "round {} replays from cache", round);
            prop_assert_eq!(warm.hits, 5);
            prop_assert_eq!(warm.hashed, 0, "a replay hashes no payload");
            prop_assert_eq!(&warm.data, &cold.data);
            prop_assert_eq!(&warm.records, &cold.records, "history records must match");
            let stats = cache.stats();
            let hits = |tier: &str| {
                stats.tiers.iter().find(|t| t.tier == tier).expect("tier").hits
            };
            prop_assert_eq!((hits("disk"), hits("mem")), (4, 1), "4 keys off disk, 1 repeat");
        }
    }

    /// No commit hashes a payload: the executor hashed a tool's outputs
    /// right after the tool ran, with a cache or without one, and a
    /// replay brings the digests its entry carries. The cache changes
    /// no record.
    #[test]
    fn no_run_hashes_at_commit(
        kinds in prop::collection::vec(0u8..=7, 1..12),
    ) {
        let netlist = netlist_bytes(&kinds);
        let plain = run_verification(None, &netlist);
        prop_assert_eq!(plain.runs, 4, "the second edit shares the first's products");
        prop_assert!(plain.produced > 0);
        let cache = ContentCache::in_memory(
            MemoryBudget::default(),
            Clock::real(),
            Metrics::disabled(),
        );
        let cold = run_verification(Some(cache.clone()), &netlist);
        let warm = run_verification(Some(cache), &netlist);
        prop_assert_eq!(&cold.records, &plain.records, "the cache changes no record");
        prop_assert_eq!((plain.hashed, cold.hashed, warm.hashed), (0, 0, 0));
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

/// An entry in the format before `HCE2`: magic `HCE1`, its CRC, then
/// the key, creation time, tool and outputs (entity, name, payload),
/// each output without a digest.
fn hce1_entry(key: &CacheKey, tool: &str, outputs: &[(&str, &[u8])]) -> Vec<u8> {
    fn push(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    let mut payload = key.as_bytes().to_vec();
    payload.extend_from_slice(&1_577_836_800_000u64.to_le_bytes());
    push(&mut payload, tool.as_bytes());
    payload.extend_from_slice(&(outputs.len() as u32).to_le_bytes());
    for (entity, data) in outputs {
        push(&mut payload, entity.as_bytes());
        push(&mut payload, b"");
        push(&mut payload, data);
    }
    let mut blob = b"HCE1".to_vec();
    blob.extend_from_slice(&crc32(&payload).to_le_bytes());
    blob.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    blob.extend_from_slice(&payload);
    blob
}

/// Files a well-formed `HCE1` entry under `key` in the disk tier at
/// `root`, as an older build would have.
fn plant_hce1_entry(sim: &SimEnv, root: &str, key: &CacheKey) {
    let fs = sim.fs();
    let shard = Path::new(root).join(key.shard());
    fs.create_dir_all(&shard).expect("shard");
    let blob = hce1_entry(key, "Placer", &[("Layout", b"rows"), ("Stats", b"")]);
    fs.create_truncate(&shard.join(format!("{}.hce", key.to_hex())))
        .expect("creates")
        .write_all(&blob)
        .expect("writes");
}

/// An entry an older build wrote is never served. Its name is a key of
/// the previous key domain, which no lookup derives; filed under a
/// current key anyway, its CRC-valid bytes fail to decode, so the
/// lookup misses and deletes it as damaged. `cache stats` counts such a
/// file among the disk tier's entries until then, and `cache gc`
/// deletes it without serving or evicting anything.
#[test]
fn an_hce1_file_is_never_served() {
    let sim = SimEnv::new(0x4CE1);
    let looked_up = CacheKey::from_bytes(sha256(b"a key a lookup derives"));
    let collected = CacheKey::from_bytes(sha256(b"a key only gc visits"));
    plant_hce1_entry(&sim, "/old", &looked_up);
    plant_hce1_entry(&sim, "/old", &collected);
    let cache = open_disk_cache(&sim, "/old");
    let disk = |cache: &ContentCache| {
        let stats = cache.stats();
        let tier = stats
            .tiers
            .into_iter()
            .find(|t| t.tier == "disk")
            .expect("disk tier");
        (
            tier.entries,
            tier.hits,
            tier.misses,
            tier.errors,
            stats.dropped,
        )
    };
    assert_eq!(disk(&cache), (2, 0, 0, 0, 0), "stats counts both files");
    assert!(
        cache.lookup(&looked_up).is_none(),
        "an HCE1 entry was served"
    );
    assert_eq!(
        disk(&cache),
        (1, 0, 1, 0, 1),
        "a miss that deleted the file"
    );
    let report = cache.gc().expect("gc");
    assert_eq!((report.scanned, report.dropped, report.evicted), (1, 1, 0));
    assert_eq!(disk(&cache).0, 0, "gc deleted the other file");
    assert!(cache.lookup(&collected).is_none());
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
