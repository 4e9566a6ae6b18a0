//! Instance-browser queries (Fig. 9b).
//!
//! The Hercules entity-instance browser filters by keywords, date
//! limits, user, and "Use Dependencies" (restricting the listing to
//! instances derived from a selected instance). [`BrowserQuery`] is that
//! dialog as a builder.

use hercules_schema::EntityTypeId;

use crate::clock::Timestamp;
use crate::db::HistoryDb;
use crate::error::HistoryError;
use crate::instance::InstanceId;

/// A browser query over one entity family.
///
/// # Examples
///
/// ```
/// use hercules_history::{BrowserQuery, HistoryDb, Metadata};
/// use hercules_schema::fixtures;
///
/// # fn main() -> Result<(), hercules_history::HistoryError> {
/// let schema = std::sync::Arc::new(fixtures::fig1());
/// let mut db = HistoryDb::new(schema.clone());
/// let stim = schema.require("Stimuli")?;
/// db.record_primary(stim, Metadata::by("jbb").named("pulse"), b"p")?;
/// db.record_primary(stim, Metadata::by("sutton").named("ramp"), b"r")?;
///
/// let hits = BrowserQuery::family(stim).user("jbb").run(&db)?;
/// assert_eq!(hits.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowserQuery {
    entity: EntityTypeId,
    user: Option<String>,
    from: Option<Timestamp>,
    to: Option<Timestamp>,
    keywords: Vec<String>,
    name_contains: Option<String>,
    use_dependencies: Option<InstanceId>,
}

impl BrowserQuery {
    /// Creates a query listing the family of `entity` (the entity and
    /// all its subtypes), unfiltered.
    pub fn family(entity: EntityTypeId) -> BrowserQuery {
        BrowserQuery {
            entity,
            user: None,
            from: None,
            to: None,
            keywords: Vec::new(),
            name_contains: None,
            use_dependencies: None,
        }
    }

    /// Restricts to instances created by `user` (Fig. 9's "User
    /// Limits").
    pub fn user(mut self, user: &str) -> BrowserQuery {
        self.user = Some(user.to_owned());
        self
    }

    /// Restricts to instances created at or after `from` (Fig. 9's
    /// "Date Limits: From").
    pub fn from(mut self, from: Timestamp) -> BrowserQuery {
        self.from = Some(from);
        self
    }

    /// Restricts to instances created at or before `to` (Fig. 9's "Date
    /// Limits: To").
    pub fn to(mut self, to: Timestamp) -> BrowserQuery {
        self.to = Some(to);
        self
    }

    /// Requires the given keyword (repeatable; all must match).
    pub fn keyword(mut self, kw: &str) -> BrowserQuery {
        self.keywords.push(kw.to_owned());
        self
    }

    /// Requires the annotation name to contain `needle`.
    pub fn name_contains(mut self, needle: &str) -> BrowserQuery {
        self.name_contains = Some(needle.to_owned());
        self
    }

    /// Restricts to instances that (transitively) depend on `instance`
    /// — the "Use Dependencies" checkbox driving forward-chaining
    /// queries (§4.2).
    pub fn use_dependencies(mut self, instance: InstanceId) -> BrowserQuery {
        self.use_dependencies = Some(instance);
        self
    }

    /// Runs the query, returning matching instances in creation order.
    ///
    /// # Errors
    ///
    /// Returns a schema error for an unknown entity or
    /// [`HistoryError::UnknownInstance`] for a dangling
    /// `use_dependencies` anchor.
    pub fn run(&self, db: &HistoryDb) -> Result<Vec<InstanceId>, HistoryError> {
        if db.schema().get(self.entity).is_none() {
            return Err(hercules_schema::SchemaError::UnknownEntityId(self.entity).into());
        }
        let downstream = match self.use_dependencies {
            Some(anchor) => Some(db.forward_chain(anchor)?),
            None => None,
        };
        let mut out = Vec::new();
        for id in db.instances_of_family(self.entity) {
            let inst = db.instance(id)?;
            let m = inst.meta();
            if let Some(u) = &self.user {
                if &m.user != u {
                    continue;
                }
            }
            if let Some(f) = self.from {
                if m.created < f {
                    continue;
                }
            }
            if let Some(t) = self.to {
                if m.created > t {
                    continue;
                }
            }
            if !self.keywords.iter().all(|k| m.keywords.contains(k)) {
                continue;
            }
            if let Some(n) = &self.name_contains {
                if !m.name.contains(n.as_str()) {
                    continue;
                }
            }
            if let Some(d) = &downstream {
                // `forward_chain` returns its answer sorted.
                if d.binary_search(&id).is_err() {
                    continue;
                }
            }
            out.push(id);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derivation::Derivation;
    use crate::instance::Metadata;
    use hercules_schema::fixtures;
    use std::sync::Arc;

    fn db() -> (Arc<hercules_schema::TaskSchema>, HistoryDb, Vec<InstanceId>) {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let editor = db
            .record_primary(t("CircuitEditor"), Metadata::by("cad"), b"ed")
            .expect("ok");
        let n1 = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("jbb")
                    .named("Low pass filter")
                    .keyword("filter"),
                b"n1",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        db.clock_mut().advance_to(Timestamp(100));
        let n2 = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("director")
                    .named("CMOS Full adder")
                    .keyword("digital"),
                b"n2",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        db.clock_mut().advance_to(Timestamp(200));
        let n3 = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("sutton")
                    .named("Operational Amplifier")
                    .keyword("analog")
                    .keyword("filter"),
                b"n3",
                Derivation::by_tool(editor, [n1]),
            )
            .expect("ok");
        (schema, db, vec![editor, n1, n2, n3])
    }

    #[test]
    fn unfiltered_family_query_lists_all() {
        let (schema, db, ids) = db();
        let hits = BrowserQuery::family(schema.require("Netlist").expect("known"))
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[1], ids[2], ids[3]]);
    }

    #[test]
    fn user_filter() {
        let (schema, db, ids) = db();
        let hits = BrowserQuery::family(schema.require("Netlist").expect("known"))
            .user("director")
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[2]]);
    }

    #[test]
    fn date_limits_from_to() {
        let (schema, db, ids) = db();
        let net = schema.require("Netlist").expect("known");
        let hits = BrowserQuery::family(net)
            .from(Timestamp(100))
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[2], ids[3]]);
        let hits = BrowserQuery::family(net)
            .from(Timestamp(100))
            .to(Timestamp(150))
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[2]]);
    }

    #[test]
    fn keyword_filters_conjunctively() {
        let (schema, db, ids) = db();
        let net = schema.require("Netlist").expect("known");
        let hits = BrowserQuery::family(net)
            .keyword("filter")
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[1], ids[3]]);
        let hits = BrowserQuery::family(net)
            .keyword("filter")
            .keyword("analog")
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[3]]);
    }

    #[test]
    fn name_substring() {
        let (schema, db, ids) = db();
        let net = schema.require("Netlist").expect("known");
        let hits = BrowserQuery::family(net)
            .name_contains("Amplifier")
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[3]]);
    }

    #[test]
    fn use_dependencies_restricts_to_forward_chain() {
        let (schema, db, ids) = db();
        let net = schema.require("Netlist").expect("known");
        // Only n3 is derived from n1.
        let hits = BrowserQuery::family(net)
            .use_dependencies(ids[1])
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[3]]);
    }

    #[test]
    fn combined_filters() {
        let (schema, db, ids) = db();
        let net = schema.require("Netlist").expect("known");
        let hits = BrowserQuery::family(net)
            .user("sutton")
            .keyword("filter")
            .from(Timestamp(1))
            .run(&db)
            .expect("ok");
        assert_eq!(hits, vec![ids[3]]);
    }
}
