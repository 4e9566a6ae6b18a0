//! Dirty cones and retrace cones over the history's reverse index
//! (§3.3).
//!
//! [`HistoryDb`] keeps, on every append, each instance's dependents,
//! version predecessor and the newest version in its version subtree.
//! Two analyses read those lookups:
//!
//! * a **dirty cone** — given the instances appended since the last
//!   analysis, the set of instances whose consistency verdicts may have
//!   changed (the forward closure of the edit over the reverse index);
//! * a **retrace cone** — a structured prediction of what
//!   `hercules_exec::retrace` will recall, cut, and re-run for a goal
//!   instance, computed without executing anything.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::db::HistoryDb;
use crate::error::HistoryError;
use crate::instance::InstanceId;

impl HistoryDb {
    /// Computes the dirty cone of an edit: the instances whose
    /// consistency verdicts may differ after `fresh` were appended.
    ///
    /// Seeds are the new instances themselves, the instances their
    /// derivations reference directly (whose *dependent sets* changed —
    /// an instance stops being a goal the moment something consumes
    /// it), and their version ancestors (whose *newest version*
    /// changed). The cone is the forward closure of the seeds over the
    /// reverse-dependency relation: anything downstream of a superseded
    /// version may have become transitively stale.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::UnknownInstance`] for out-of-range ids.
    pub fn dirty_cone(&self, fresh: &[InstanceId]) -> Result<DirtyCone, HistoryError> {
        let mut seeds: BTreeSet<InstanceId> = BTreeSet::new();
        for &id in fresh {
            seeds.insert(id);
            if let Some(d) = self.instance(id)?.derivation() {
                seeds.extend(d.referenced());
            }
            let mut cur = self.version_parent(id)?;
            while let Some(x) = cur {
                seeds.insert(x);
                cur = self.version_parent(x)?;
            }
        }
        let seeds: Vec<InstanceId> = seeds.into_iter().collect();
        let mut members: BTreeSet<InstanceId> = seeds.iter().copied().collect();
        let mut stack: Vec<InstanceId> = seeds.clone();
        let mut visited = 0usize;
        while let Some(x) = stack.pop() {
            visited += 1;
            for &d in self.direct_dependents(x)? {
                if members.insert(d) {
                    stack.push(d);
                }
            }
        }
        Ok(DirtyCone {
            members: members.into_iter().collect(),
            seeds,
            visited,
        })
    }
}

/// The instances whose consistency verdicts an edit can have changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyCone {
    /// Every affected instance, in id order (seeds included).
    pub members: Vec<InstanceId>,
    /// The seed instances the closure started from, in id order.
    pub seeds: Vec<InstanceId>,
    /// Instances popped while closing the cone — the work the
    /// incremental path did, for comparison against a full scan.
    pub visited: usize,
}

impl DirtyCone {
    /// Returns `true` if `id` is in the cone.
    pub fn contains(&self, id: InstanceId) -> bool {
        self.members.binary_search(&id).is_ok()
    }
}

/// One version cut applied while recalling a flow: a superseded input
/// replaced by its newest version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionCut {
    /// The instance the original derivation used.
    pub superseded: InstanceId,
    /// The newest version bound in its place.
    pub newest: InstanceId,
}

/// A structured prediction of what retracing `goal` will do, computed
/// from the history alone — the §3.3 query "whether such retracing need
/// occur", answered before any tool runs.
///
/// The cone mirrors the recall walk of `hercules_exec::retrace`
/// exactly: fast-forwarded instances become leaves bound to their
/// newest versions ([`RetraceCone::cuts`]), version predecessors of
/// edits stay pinned, and everything else is expanded. An expanded
/// instance whose (transitive) inputs gained newer versions is
/// predicted to re-run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetraceCone {
    /// The goal instance the cone was computed for.
    pub goal: InstanceId,
    /// Every instance in the recalled flow, in id order.
    pub recall: Vec<InstanceId>,
    /// Expanded instances whose derivations are predicted to re-run
    /// (their recalled inputs differ from the original derivation), in
    /// id order. The executor's cache may still absorb some of these if
    /// an earlier retrace already produced the re-derivation.
    pub rerun: Vec<InstanceId>,
    /// The version cuts applied during recall, ordered by superseded
    /// instance.
    pub cuts: Vec<VersionCut>,
    /// `true` when nothing is predicted to re-run; retracing would
    /// serve the goal entirely from the history.
    pub already_current: bool,
    /// Instances visited while recalling — the cone-computation work.
    pub visited: usize,
}

impl RetraceCone {
    /// Computes the retrace cone for `goal`.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors for unknown instances.
    pub fn compute(db: &HistoryDb, goal: InstanceId) -> Result<RetraceCone, HistoryError> {
        compute_cone(db, goal)
    }

    /// Renders a one-line summary ("3 to re-run, 1 cut, 14 recalled").
    pub fn summary(&self) -> String {
        if self.already_current {
            format!("already current ({} recalled)", self.recall.len())
        } else {
            format!(
                "{} to re-run, {} cut, {} recalled",
                self.rerun.len(),
                self.cuts.len(),
                self.recall.len()
            )
        }
    }
}

/// Per-instance outcome of the recall walk.
#[derive(Debug, Clone, Copy)]
struct ConeSlot {
    expanded: bool,
    bound: Option<InstanceId>,
}

struct ConeBuilder<'a> {
    db: &'a HistoryDb,
    slots: HashMap<InstanceId, ConeSlot>,
    cuts: Vec<VersionCut>,
    visited: usize,
}

impl ConeBuilder<'_> {
    /// Mirrors `Recall::visit` in `hercules_exec::retrace`: same
    /// memoization, same fast-forward rule, same version-predecessor
    /// pinning — so the predicted flow is the one retrace will build.
    fn visit(&mut self, inst: InstanceId, fast_forward: bool) -> Result<(), HistoryError> {
        if self.slots.contains_key(&inst) {
            return Ok(());
        }
        self.visited += 1;
        self.slots.insert(
            inst,
            ConeSlot {
                expanded: false,
                bound: None,
            },
        );
        let record = self.db.instance(inst)?;
        if fast_forward {
            let newest = self.db.newest_version_of(inst)?;
            if newest != inst {
                self.slots.get_mut(&inst).expect("just inserted").bound = Some(newest);
                self.cuts.push(VersionCut {
                    superseded: inst,
                    newest,
                });
                return Ok(());
            }
        }
        let Some(derivation) = record.derivation().cloned() else {
            self.slots.get_mut(&inst).expect("just inserted").bound = Some(inst);
            return Ok(());
        };
        self.slots.get_mut(&inst).expect("just inserted").expanded = true;
        let version_parent = self.db.version_parent(inst)?;
        if let Some(tool) = derivation.tool {
            self.visit(tool, true)?;
        }
        for input in derivation.inputs {
            let pinned = Some(input) == version_parent;
            self.visit(input, !pinned)?;
            let slot = self.slots.get_mut(&input).expect("visited");
            if pinned && !slot.expanded {
                // Pinned predecessor stays a leaf bound to itself, even
                // if another path fast-forwarded it first.
                slot.bound = Some(input);
            }
        }
        Ok(())
    }
}

fn compute_cone(db: &HistoryDb, goal: InstanceId) -> Result<RetraceCone, HistoryError> {
    let mut builder = ConeBuilder {
        db,
        slots: HashMap::new(),
        cuts: Vec::new(),
        visited: 0,
    };
    builder.visit(goal, false)?;
    let ConeBuilder {
        slots,
        mut cuts,
        visited,
        ..
    } = builder;

    let recall: Vec<InstanceId> = {
        let mut ids: Vec<InstanceId> = slots.keys().copied().collect();
        ids.sort_unstable();
        ids
    };
    // An expanded instance is affected when any dependency resolved to
    // something other than its original value: a leaf rebound to a
    // newer version, or an affected producer. Derivation inputs always
    // have smaller ids than their product, so one ascending pass
    // settles the whole cone.
    let mut affected: BTreeMap<InstanceId, bool> = BTreeMap::new();
    for &id in &recall {
        let slot = slots[&id];
        if !slot.expanded {
            affected.insert(id, false);
            continue;
        }
        let derivation = self_derivation(db, id)?;
        let mut hit = false;
        for r in derivation.referenced() {
            let rs = slots[&r];
            hit |= if rs.expanded {
                affected[&r]
            } else {
                rs.bound != Some(r)
            };
        }
        affected.insert(id, hit);
    }
    let rerun: Vec<InstanceId> = recall
        .iter()
        .copied()
        .filter(|id| slots[id].expanded && affected[id])
        .collect();
    cuts.sort_unstable_by_key(|c| c.superseded);
    let already_current = rerun.is_empty();
    Ok(RetraceCone {
        goal,
        recall,
        rerun,
        cuts,
        already_current,
        visited,
    })
}

fn self_derivation(
    db: &HistoryDb,
    id: InstanceId,
) -> Result<crate::derivation::Derivation, HistoryError> {
    Ok(db
        .instance(id)?
        .derivation()
        .cloned()
        .expect("expanded slots are derived"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::Derivation;
    use crate::instance::Metadata;
    use crate::persist::HistorySpec;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    /// layout L1 --extract--> X1, then the netlist input is re-edited:
    /// the standard §3.3 out-of-date scenario.
    fn extraction_db() -> (HistoryDb, Vec<InstanceId>) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let placer = db
            .record_primary(t("Placer"), Metadata::by("u"), b"placer")
            .expect("ok");
        let extractor = db
            .record_primary(t("Extractor"), Metadata::by("u"), b"ext")
            .expect("ok");
        let editor = db
            .record_primary(t("CircuitEditor"), Metadata::by("u"), b"ed")
            .expect("ok");
        let net = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("u"),
                b"net",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        let rules = db
            .record_primary(t("PlacementRules"), Metadata::by("u"), b"rules")
            .expect("ok");
        let l1 = db
            .record_derived(
                t("Layout"),
                Metadata::by("u").named("L1"),
                b"l1",
                Derivation::by_tool(placer, [net, rules]),
            )
            .expect("ok");
        let x1 = db
            .record_derived(
                t("ExtractedNetlist"),
                Metadata::by("u").named("X1"),
                b"x1",
                Derivation::by_tool(extractor, [l1]),
            )
            .expect("ok");
        (db, vec![placer, extractor, editor, net, rules, l1, x1])
    }

    fn edit_netlist(db: &mut HistoryDb, editor: InstanceId, from: InstanceId) -> InstanceId {
        db.record_derived(
            db.schema().require("EditedNetlist").expect("known"),
            Metadata::by("u"),
            b"net'",
            Derivation::by_tool(editor, [from]),
        )
        .expect("ok")
    }

    #[test]
    fn index_matches_db_queries() {
        let (mut db, ids) = extraction_db();
        let net2 = edit_netlist(&mut db, ids[2], ids[3]);
        let net3 = edit_netlist(&mut db, ids[2], net2);
        for inst in db.instances() {
            let id = inst.id();
            let forest = db.version_forest(inst.entity()).expect("ok");
            let newest = forest.descendants(id).into_iter().max().unwrap_or(id);
            assert_eq!(
                db.newest_version_of(id).expect("ok"),
                newest,
                "newest of {id}"
            );
            assert_eq!(
                db.version_parent(id).expect("ok"),
                forest.parent(id),
                "version parent of {id}"
            );
            let dependents: Vec<InstanceId> = db
                .instances()
                .filter(|d| {
                    d.derivation()
                        .is_some_and(|d| d.referenced().any(|r| r == id))
                })
                .map(|d| d.id())
                .collect();
            assert_eq!(
                db.direct_dependents(id).expect("ok"),
                dependents,
                "dependents of {id}"
            );
        }
        assert_eq!(db.newest_version_of(ids[3]).expect("ok"), net3);
    }

    #[test]
    fn incremental_update_equals_fresh_build() {
        let (mut db, ids) = extraction_db();
        let net2 = edit_netlist(&mut db, ids[2], ids[3]);
        assert_eq!(db.newest_version_of(ids[3]).expect("ok"), net2);
        let fresh = HistorySpec::from_db(&db)
            .load(db.schema().clone())
            .expect("replays");
        for inst in db.instances() {
            let id = inst.id();
            assert_eq!(
                db.newest_version_of(id).expect("ok"),
                fresh.newest_version_of(id).expect("ok")
            );
            assert_eq!(
                db.version_parent(id).expect("ok"),
                fresh.version_parent(id).expect("ok")
            );
            assert_eq!(
                db.direct_dependents(id).expect("ok"),
                fresh.direct_dependents(id).expect("ok")
            );
        }
    }

    #[test]
    fn dirty_cone_covers_the_downstream_of_an_edit() {
        let (mut db, ids) = extraction_db();
        let (editor, net, l1, x1) = (ids[2], ids[3], ids[5], ids[6]);
        let net2 = edit_netlist(&mut db, editor, net);
        let cone = db.dirty_cone(&[net2]).expect("ok");
        for id in [net, net2, l1, x1, editor] {
            assert!(cone.contains(id), "{id} should be dirty");
        }
        // The placement rules are untouched by the edit.
        assert!(!cone.contains(ids[4]));
        assert!(cone.visited <= db.len());
    }

    #[test]
    fn retrace_cone_predicts_cuts_and_reruns() {
        let (mut db, ids) = extraction_db();
        let (editor, net, rules, l1, x1) = (ids[2], ids[3], ids[4], ids[5], ids[6]);
        let fresh = RetraceCone::compute(&db, x1).expect("ok");
        assert!(fresh.already_current);
        assert!(fresh.cuts.is_empty());
        assert!(fresh.rerun.is_empty());
        assert!(fresh.recall.contains(&l1) && fresh.recall.contains(&rules));

        let net2 = edit_netlist(&mut db, editor, net);
        let cone = RetraceCone::compute(&db, x1).expect("ok");
        assert!(!cone.already_current);
        assert_eq!(
            cone.cuts,
            vec![VersionCut {
                superseded: net,
                newest: net2
            }]
        );
        assert_eq!(cone.rerun, vec![l1, x1]);
    }

    #[test]
    fn pinned_version_parent_is_not_cut() {
        let (mut db, ids) = extraction_db();
        let (editor, net) = (ids[2], ids[3]);
        let net2 = edit_netlist(&mut db, editor, net);
        let _net3 = edit_netlist(&mut db, editor, net2);
        // Retracing net2 pins its predecessor `net` even though net2
        // itself has a successor: an edit is never stale w.r.t. the
        // version it edits.
        let cone = RetraceCone::compute(&db, net2).expect("ok");
        assert!(cone.already_current, "edit of a pinned parent is current");
        assert!(cone.cuts.is_empty());
    }
}
