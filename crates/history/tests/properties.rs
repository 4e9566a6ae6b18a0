//! Property-based tests for the design-history database.

use std::sync::Arc;

use hercules_history::{
    Derivation, HistoryDb, HistorySpec, InstanceId, Metadata, Payload, Staleness,
};
use hercules_schema::fixtures;
use proptest::prelude::*;

/// The payloads generated netlists draw from: a pool this small makes
/// most histories share physical data between instances (footnote 5),
/// including with the editor and through the empty payload.
const PAYLOADS: [&[u8]; 4] = [b"v0", b"v1", b"ed", b""];

/// Builds a random but well-formed history: an editor plus `n` edited
/// netlists, each deriving from a random earlier version (or none) and
/// holding a payload drawn from [`PAYLOADS`].
fn random_history(parents: &[(Option<usize>, usize)]) -> (HistoryDb, Vec<InstanceId>) {
    let schema = Arc::new(fixtures::fig1());
    let mut db = HistoryDb::new(schema.clone());
    let editor = db
        .record_primary(
            schema.require("CircuitEditor").expect("known"),
            Metadata::by("prop").named("ed"),
            b"ed",
        )
        .expect("records");
    let edited = schema.require("EditedNetlist").expect("known");
    let mut ids = vec![editor];
    for (i, &(parent, payload)) in parents.iter().enumerate() {
        let from = if i == 0 {
            None
        } else {
            parent.map(|p| ids[1 + (p % i)])
        };
        let inst = db
            .record_derived(
                edited,
                Metadata::by("prop").named(&format!("v{i}")),
                PAYLOADS[payload % PAYLOADS.len()],
                Derivation::by_tool(editor, from),
            )
            .expect("records");
        ids.push(inst);
    }
    (db, ids)
}

/// Per generated version: a parent seed (or none) and a payload seed.
fn parent_vec() -> impl Strategy<Value = Vec<(Option<usize>, usize)>> {
    prop::collection::vec((prop::option::of(0usize..16), 0usize..16), 1..16)
}

/// Reference version parent: scans the derivation's inputs for the
/// first one in the instance's entity family.
fn scan_version_parent(db: &HistoryDb, id: InstanceId) -> Option<InstanceId> {
    let inst = db.instance(id).expect("present");
    let family = db.family_root(inst.entity());
    let entity_of = |i: InstanceId| db.instance(i).expect("present").entity();
    inst.derivation()?
        .inputs
        .iter()
        .copied()
        .find(|&i| db.family_root(entity_of(i)) == family)
}

/// Reference newest version: the latest-created member of the version
/// subtree under `id`, found by scanning its family's version forest.
fn scan_newest_version(db: &HistoryDb, id: InstanceId) -> InstanceId {
    let entity = db.instance(id).expect("present").entity();
    let forest = db.version_forest(entity).expect("builds");
    let created = |i: InstanceId| db.created_at(i).expect("present");
    let mut best = id;
    for d in forest.descendants(id) {
        if created(d).is_after(created(best)) {
            best = d;
        }
    }
    best
}

/// Reference dependents: every instance whose derivation references
/// `id`, by scanning all derivations.
fn scan_dependents(db: &HistoryDb, id: InstanceId) -> Vec<InstanceId> {
    db.instances()
        .filter(|i| {
            i.derivation()
                .is_some_and(|d| d.referenced().any(|r| r == id))
        })
        .map(|i| i.id())
        .collect()
}

/// Reference sharing: the first instance before `id` whose physical
/// data equals `id`'s, by comparing bytes.
fn scan_shares_data_with(db: &HistoryDb, id: InstanceId) -> Option<InstanceId> {
    let data = db.data_of(id).expect("present")?;
    db.instances()
        .map(|i| i.id())
        .take_while(|&i| i != id)
        .find(|&i| db.data_of(i).expect("present") == Some(data))
}

/// Reference staleness: the first input, other than the version
/// parent, whose reference newest version is not itself.
fn scan_staleness(db: &HistoryDb, id: InstanceId) -> Option<Staleness> {
    let version_parent = scan_version_parent(db, id);
    let inst = db.instance(id).expect("present");
    inst.derivation()?.inputs.iter().find_map(|&input| {
        let newest = scan_newest_version(db, input);
        (Some(input) != version_parent && newest != input).then_some(Staleness {
            instance: id,
            outdated_input: input,
            newer_version: newest,
        })
    })
}

/// One generated append on top of an edit forest. Seeds pick an
/// existing target modulo the live count.
#[derive(Debug, Clone)]
enum Op {
    /// A new version of any netlist, edited or extracted.
    Edit(usize),
    /// An edit with two netlist inputs: only the first is its version
    /// parent.
    Merge(usize, usize),
    /// The one shared placer lays out a netlist.
    Place(usize),
    /// A placement whose derivation lists the same netlist twice.
    PlaceTwice(usize),
    /// The one shared extractor extracts a netlist from a layout.
    Extract(usize),
}

fn op_vec() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(Op::Edit),
            (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Merge(a, b)),
            (0usize..64).prop_map(Op::Place),
            (0usize..64).prop_map(Op::PlaceTwice),
            (0usize..64).prop_map(Op::Extract),
        ],
        0..24,
    )
}

/// Checks every instance's indexed lookups against the reference
/// scans, on `db` and on a copy reloaded from its spec.
fn check_against_scans(db: &HistoryDb) -> Result<(), TestCaseError> {
    let reloaded = HistorySpec::from_db(db)
        .load(db.schema().clone())
        .expect("replays");
    for inst in db.instances() {
        let id = inst.id();
        for copy in [db, &reloaded] {
            prop_assert_eq!(
                copy.newest_version_of(id).expect("present"),
                scan_newest_version(db, id)
            );
            prop_assert_eq!(
                copy.version_parent(id).expect("present"),
                scan_version_parent(db, id)
            );
            prop_assert_eq!(
                copy.direct_dependents(id).expect("present").to_vec(),
                scan_dependents(db, id)
            );
            prop_assert_eq!(
                copy.staleness_of(id).expect("present"),
                scan_staleness(db, id)
            );
            prop_assert_eq!(
                copy.shares_data_with(id).expect("present"),
                scan_shares_data_with(db, id)
            );
        }
    }
    Ok(())
}

proptest! {
    /// Forward and backward chaining are duals:
    /// `b ∈ forward(a)` iff `a ∈ ancestors(b)`.
    #[test]
    fn chaining_duality(parents in parent_vec()) {
        let (db, ids) = random_history(&parents);
        for &a in &ids {
            let forward = db.forward_chain(a).expect("chains");
            for &b in &ids {
                let ancestors = db.ancestors(b).expect("chains");
                prop_assert_eq!(
                    forward.contains(&b),
                    ancestors.contains(&a),
                    "duality between {} and {}", a, b
                );
            }
        }
    }

    /// Ancestor sets are transitively closed and never contain the
    /// instance itself.
    #[test]
    fn ancestors_are_closed(parents in parent_vec()) {
        let (db, ids) = random_history(&parents);
        for &x in &ids {
            let anc = db.ancestors(x).expect("chains");
            prop_assert!(!anc.contains(&x));
            for &a in &anc {
                for &aa in &db.ancestors(a).expect("chains") {
                    prop_assert!(anc.contains(&aa), "closure broken at {}", aa);
                }
            }
        }
    }

    /// The version forest's parent/children maps are mutually
    /// consistent and every member is a root or has a parent chain to
    /// one.
    #[test]
    fn version_forest_consistency(parents in parent_vec()) {
        let (db, ids) = random_history(&parents);
        let entity = db.instance(ids[1]).expect("present").entity();
        let forest = db.version_forest(entity).expect("builds");
        for &m in forest.members() {
            match forest.parent(m) {
                Some(p) => prop_assert!(forest.children(p).contains(&m)),
                None => prop_assert!(forest.roots().contains(&m)),
            }
            // Depth terminates (no cycles).
            prop_assert!(forest.depth(m) <= forest.members().len());
        }
        for &r in forest.roots() {
            prop_assert!(forest.parent(r).is_none());
        }
    }

    /// The lookups `HistoryDb` keeps on append answer exactly like
    /// scans of the whole history, after every append and after a
    /// reload: over edit chains and branches, merges of two versions,
    /// a shared placer and extractor feeding many products, versions
    /// across netlist subtypes, and derivations that list an input
    /// twice.
    #[test]
    fn indexed_lookups_equal_reference_scans(parents in parent_vec(), ops in op_vec()) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let mut record = |name: &str, derivation: Option<Derivation>| {
            let entity = schema.require(name).expect("known");
            let meta = Metadata::by("prop");
            let id = match derivation {
                None => db.record_primary(entity, meta, name.as_bytes()),
                Some(d) => db.record_derived(entity, meta, name.as_bytes(), d),
            }
            .expect("records");
            check_against_scans(&db).map(|()| id)
        };
        let editor = record("CircuitEditor", None)?;
        let placer = record("Placer", None)?;
        let extractor = record("Extractor", None)?;
        let rules = record("PlacementRules", None)?;
        let mut netlists: Vec<InstanceId> = Vec::new();
        for (i, (parent, _)) in parents.iter().enumerate() {
            let from = if i == 0 { None } else { parent.map(|p| netlists[p % i]) };
            netlists.push(record("EditedNetlist", Some(Derivation::by_tool(editor, from)))?);
        }
        let mut layouts = Vec::new();
        for op in &ops {
            match *op {
                Op::Edit(seed) => {
                    let from = netlists[seed % netlists.len()];
                    let d = Derivation::by_tool(editor, [from]);
                    netlists.push(record("EditedNetlist", Some(d))?);
                }
                Op::Merge(a, b) => {
                    let (a, b) = (netlists[a % netlists.len()], netlists[b % netlists.len()]);
                    let d = Derivation::by_tool(editor, [a, b]);
                    netlists.push(record("EditedNetlist", Some(d))?);
                }
                Op::Place(seed) => {
                    let net = netlists[seed % netlists.len()];
                    let d = Derivation::by_tool(placer, [net, rules]);
                    layouts.push(record("Layout", Some(d))?);
                }
                Op::PlaceTwice(seed) => {
                    let net = netlists[seed % netlists.len()];
                    let d = Derivation::by_tool(placer, [net, net, rules]);
                    layouts.push(record("Layout", Some(d))?);
                }
                Op::Extract(seed) => {
                    if let Some(&layout) = layouts.get(seed % layouts.len().max(1)) {
                        let d = Derivation::by_tool(extractor, [layout]);
                        netlists.push(record("ExtractedNetlist", Some(d))?);
                    }
                }
            }
        }
    }

    /// newest_version_of is idempotent and always at least as new.
    #[test]
    fn newest_version_is_a_fixpoint(parents in parent_vec()) {
        let (db, ids) = random_history(&parents);
        for &x in &ids[1..] {
            let newest = db.newest_version_of(x).expect("checks");
            prop_assert_eq!(db.newest_version_of(newest).expect("checks"), newest);
            let tx = db.created_at(x).expect("present");
            let tn = db.created_at(newest).expect("present");
            prop_assert!(tn >= tx);
        }
    }

    /// Persistence round trips preserve every record, its bytes and
    /// the store's sharing. The document writes each distinct payload
    /// once, and every other record names an earlier holder of the
    /// same bytes.
    #[test]
    fn persistence_round_trip(parents in parent_vec()) {
        let (db, _) = random_history(&parents);
        let spec = HistorySpec::from_db(&db);
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: HistorySpec = serde_json::from_str(&json).expect("deserializes");
        let reloaded = back.load(db.schema().clone()).expect("replays");
        prop_assert_eq!(reloaded.len(), db.len());
        for (a, b) in db.instances().zip(reloaded.instances()) {
            prop_assert_eq!(a.meta(), b.meta());
            prop_assert_eq!(a.entity(), b.entity());
            prop_assert_eq!(a.derivation(), b.derivation());
            prop_assert_eq!(
                db.data_of(a.id()).expect("present"),
                reloaded.data_of(b.id()).expect("present")
            );
        }
        let (store, restored) = (db.store(), reloaded.store());
        prop_assert_eq!(restored.blob_count(), store.blob_count());
        prop_assert_eq!(restored.stored_bytes(), store.stored_bytes());
        prop_assert_eq!(restored.logical_bytes(), store.logical_bytes());

        let mut inline = 0;
        for (index, record) in back.instances.iter().enumerate() {
            let id = InstanceId::from_raw(index as u64);
            match &record.data {
                Some(Payload::Inline(bytes)) => {
                    inline += 1;
                    prop_assert_eq!(db.data_of(id).expect("present"), Some(&bytes[..]));
                }
                Some(Payload::Shared(holder)) => {
                    let holder = *holder;
                    prop_assert!(holder < index as u64, "{} names a later holder", id);
                    prop_assert_eq!(
                        db.data_of(InstanceId::from_raw(holder)).expect("present"),
                        db.data_of(id).expect("present")
                    );
                }
                None => prop_assert!(false, "{} has no payload", id),
            }
        }
        prop_assert_eq!(inline, store.blob_count());
    }

    /// The blob store shares identical payloads: stored bytes never
    /// exceed logical bytes, and equal payload count means shared blobs.
    #[test]
    fn blob_sharing_invariant(payloads in prop::collection::vec(0u8..4, 1..30)) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let stim = schema.require("Stimuli").expect("known");
        for p in &payloads {
            db.record_primary(stim, Metadata::by("prop"), &[*p]).expect("records");
        }
        let distinct: std::collections::HashSet<u8> = payloads.iter().copied().collect();
        prop_assert_eq!(db.store().blob_count(), distinct.len());
        prop_assert!(db.store().stored_bytes() <= db.store().logical_bytes());
    }
}
