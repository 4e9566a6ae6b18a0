//! Version trees derived from the design history (§4.2, Fig. 11a).
//!
//! The paper's claim: a separate version-management subsystem is
//! unnecessary because "versioning is closely associated with editing
//! tasks which, in a task schema, are characterized by having a data
//! dependency whose source and target are of the same entity type". A
//! traditional version tree is therefore a *projection* of the design
//! history: keep only the instances of one entity family and the
//! edit-derivation arcs between them.

use std::collections::HashMap;

use hercules_schema::EntityTypeId;

use crate::db::HistoryDb;
use crate::error::HistoryError;
use crate::instance::InstanceId;

/// A version forest of one entity family: parents, children and roots
/// reconstructed from edit derivations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionForest {
    entity: EntityTypeId,
    /// Version predecessor of each instance, if any.
    parent: HashMap<InstanceId, InstanceId>,
    /// Version successors of each instance.
    children: HashMap<InstanceId, Vec<InstanceId>>,
    roots: Vec<InstanceId>,
    members: Vec<InstanceId>,
}

impl VersionForest {
    /// Returns the entity family this forest covers.
    pub fn entity(&self) -> EntityTypeId {
        self.entity
    }

    /// Returns the root versions (instances with no version
    /// predecessor), in creation order.
    pub fn roots(&self) -> &[InstanceId] {
        &self.roots
    }

    /// Returns every member instance, in creation order.
    pub fn members(&self) -> &[InstanceId] {
        &self.members
    }

    /// Returns the version predecessor of `id`, if any.
    pub fn parent(&self, id: InstanceId) -> Option<InstanceId> {
        self.parent.get(&id).copied()
    }

    /// Returns the direct version successors of `id`.
    pub fn children(&self, id: InstanceId) -> &[InstanceId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Returns every transitive version successor of `id`.
    pub fn descendants(&self, id: InstanceId) -> Vec<InstanceId> {
        let mut out = Vec::new();
        let mut stack: Vec<InstanceId> = self.children(id).to_vec();
        while let Some(next) = stack.pop() {
            out.push(next);
            stack.extend_from_slice(self.children(next));
        }
        out.sort();
        out
    }

    /// Returns the version-tree depth of `id` (roots are depth 0).
    pub fn depth(&self, id: InstanceId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Renders the forest as an indented text tree, one root per block
    /// (the Fig. 11a picture).
    pub fn to_text(&self, db: &HistoryDb) -> String {
        let mut out = String::new();
        for &root in &self.roots {
            self.render(db, root, 0, &mut out);
        }
        out
    }

    fn render(&self, db: &HistoryDb, id: InstanceId, indent: usize, out: &mut String) {
        use std::fmt::Write as _;
        let name = db
            .instance(id)
            .map(|i| {
                if i.meta().name.is_empty() {
                    id.to_string()
                } else {
                    i.meta().name.clone()
                }
            })
            .unwrap_or_else(|_| id.to_string());
        let _ = writeln!(out, "{}{name}", "  ".repeat(indent));
        for &c in self.children(id) {
            self.render(db, c, indent + 1, out);
        }
    }
}

impl HistoryDb {
    /// Returns the topmost supertype of `entity` (its family root).
    pub fn family_root(&self, entity: EntityTypeId) -> EntityTypeId {
        self.schema()
            .supertype_chain(entity)
            .last()
            .copied()
            .unwrap_or(entity)
    }

    /// Builds the version forest of an entity family (Fig. 11a): the
    /// projection of the design history onto same-family edit
    /// derivations, read from the version parents recorded on append.
    ///
    /// # Errors
    ///
    /// Returns a schema error for unknown entities.
    pub fn version_forest(&self, entity: EntityTypeId) -> Result<VersionForest, HistoryError> {
        if self.schema().get(entity).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(entity).into());
        }
        let root_entity = self.family_root(entity);
        let members = self.instances_of_family(root_entity);
        let mut parent = HashMap::new();
        let mut children: HashMap<InstanceId, Vec<InstanceId>> = HashMap::new();
        let mut roots = Vec::new();
        for &m in &members {
            match self.version_parent(m)? {
                Some(p) => {
                    parent.insert(m, p);
                    children.entry(p).or_default().push(m);
                }
                None => roots.push(m),
            }
        }
        Ok(VersionForest {
            entity: root_entity,
            parent,
            children,
            roots,
            members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::Derivation;
    use crate::instance::Metadata;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    /// The Fig. 11 scenario: circuit-editor edits producing
    /// c1 -> c2 -> {c3 (direct child), c4 -> c5}; plus an unrelated root.
    fn fig11_db() -> (HistoryDb, Vec<InstanceId>) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let editor = db
            .record_primary(t("CircuitEditor"), Metadata::by("u"), b"ed")
            .expect("ok");
        let edit = |db: &mut HistoryDb, name: &str, from: Option<InstanceId>| {
            db.record_derived(
                t("EditedNetlist"),
                Metadata::by("u").named(name),
                name.as_bytes(),
                Derivation::by_tool(editor, from),
            )
            .expect("ok")
        };
        let c1 = edit(&mut db, "c1", None);
        let c2 = edit(&mut db, "c2", Some(c1));
        let c3 = edit(&mut db, "c3", Some(c2));
        let c4 = edit(&mut db, "c4", Some(c2));
        let c5 = edit(&mut db, "c5", Some(c4));
        let other = edit(&mut db, "other", None);
        (db, vec![editor, c1, c2, c3, c4, c5, other])
    }

    #[test]
    fn version_parent_follows_edit_inputs() {
        let (db, ids) = fig11_db();
        assert_eq!(db.version_parent(ids[1]).expect("ok"), None);
        assert_eq!(db.version_parent(ids[2]).expect("ok"), Some(ids[1]));
        assert_eq!(db.version_parent(ids[5]).expect("ok"), Some(ids[4]));
    }

    #[test]
    fn forest_matches_fig11a() {
        let (db, ids) = fig11_db();
        let schema = db.schema().clone();
        let forest = db
            .version_forest(schema.require("EditedNetlist").expect("known"))
            .expect("ok");
        // Two roots: c1 and the unrelated netlist.
        assert_eq!(forest.roots(), &[ids[1], ids[6]]);
        assert_eq!(forest.children(ids[2]), &[ids[3], ids[4]]);
        assert_eq!(forest.parent(ids[4]), Some(ids[2]));
        assert_eq!(
            forest.descendants(ids[1]),
            vec![ids[2], ids[3], ids[4], ids[5]]
        );
        assert_eq!(forest.depth(ids[5]), 3);
        assert_eq!(forest.members().len(), 6);
    }

    #[test]
    fn forest_is_family_wide() {
        // Asking for the forest of the abstract Netlist gives the same
        // result as asking via the subtype.
        let (db, _) = fig11_db();
        let schema = db.schema().clone();
        let via_sub = db
            .version_forest(schema.require("EditedNetlist").expect("known"))
            .expect("ok");
        let via_root = db
            .version_forest(schema.require("Netlist").expect("known"))
            .expect("ok");
        assert_eq!(via_sub, via_root);
    }

    #[test]
    fn text_rendering_indents_by_depth() {
        let (db, _) = fig11_db();
        let schema = db.schema().clone();
        let forest = db
            .version_forest(schema.require("Netlist").expect("known"))
            .expect("ok");
        let text = forest.to_text(&db);
        assert!(text.contains("c1\n"));
        assert!(text.contains("  c2\n"));
        assert!(text.contains("    c3\n"));
        assert!(text.contains("      c5\n"));
        assert!(text.contains("other\n"));
    }
}
