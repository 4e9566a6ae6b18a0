//! Property tests for the incremental consistency engine: over randomly
//! grown histories, a persistent incremental linter must agree
//! byte-for-byte with a fresh full lint and never do more solver work.

use std::sync::Arc;

use hercules_analyze::{Diagnostics, HistoryLinter};
use hercules_history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules_schema::fixtures;
use proptest::prelude::*;

/// One generated history operation, interpreted against the ids that
/// exist when it is applied (indices are taken modulo the live count,
/// so every generated program is valid).
#[derive(Debug, Clone)]
enum Op {
    /// Record an independent primary device model.
    Primary,
    /// Derive a layout from the placer over an existing netlist.
    Place { netlist_seed: usize },
    /// Extract a netlist from an existing layout.
    Extract { layout_seed: usize },
    /// Supersede an existing edited netlist with a new version.
    Edit { netlist_seed: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Primary),
        (0usize..64).prop_map(|netlist_seed| Op::Place { netlist_seed }),
        (0usize..64).prop_map(|layout_seed| Op::Extract { layout_seed }),
        (0usize..64).prop_map(|netlist_seed| Op::Edit { netlist_seed }),
    ]
}

/// The growing fixture: tool instances plus the ids recorded so far,
/// grouped by role so generated ops always have something to target.
struct Fixture {
    db: HistoryDb,
    placer: InstanceId,
    extractor: InstanceId,
    editor: InstanceId,
    rules: InstanceId,
    netlists: Vec<InstanceId>,
    layouts: Vec<InstanceId>,
}

impl Fixture {
    fn new() -> Fixture {
        let schema = Arc::new(fixtures::fig1());
        let mut db = HistoryDb::new(schema.clone());
        let t = |n: &str| schema.require(n).expect("known");
        let placer = db
            .record_primary(t("Placer"), Metadata::by("p"), b"placer")
            .expect("ok");
        let extractor = db
            .record_primary(t("Extractor"), Metadata::by("p"), b"ext")
            .expect("ok");
        let editor = db
            .record_primary(t("CircuitEditor"), Metadata::by("p"), b"ed")
            .expect("ok");
        let rules = db
            .record_primary(t("PlacementRules"), Metadata::by("p"), b"rules")
            .expect("ok");
        let net = db
            .record_derived(
                t("EditedNetlist"),
                Metadata::by("p"),
                b"net0",
                Derivation::by_tool(editor, []),
            )
            .expect("ok");
        Fixture {
            db,
            placer,
            extractor,
            editor,
            rules,
            netlists: vec![net],
            layouts: Vec::new(),
        }
    }

    fn require(&self, name: &str) -> hercules_schema::EntityTypeId {
        self.db.schema().require(name).expect("known")
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Primary => {
                let e = self.require("DeviceModelEditor");
                self.db
                    .record_primary(e, Metadata::by("p"), b"dm")
                    .expect("ok");
            }
            Op::Place { netlist_seed } => {
                let net = self.netlists[netlist_seed % self.netlists.len()];
                let e = self.require("Layout");
                let id = self
                    .db
                    .record_derived(
                        e,
                        Metadata::by("p"),
                        b"layout",
                        Derivation::by_tool(self.placer, [net, self.rules]),
                    )
                    .expect("ok");
                self.layouts.push(id);
            }
            Op::Extract { layout_seed } => {
                if self.layouts.is_empty() {
                    return;
                }
                let layout = self.layouts[layout_seed % self.layouts.len()];
                let e = self.require("ExtractedNetlist");
                self.db
                    .record_derived(
                        e,
                        Metadata::by("p"),
                        b"x",
                        Derivation::by_tool(self.extractor, [layout]),
                    )
                    .expect("ok");
            }
            Op::Edit { netlist_seed } => {
                let old = self.netlists[netlist_seed % self.netlists.len()];
                let e = self.require("EditedNetlist");
                let id = self
                    .db
                    .record_derived(
                        e,
                        Metadata::by("p"),
                        b"net'",
                        Derivation::by_tool(self.editor, [old]),
                    )
                    .expect("ok");
                self.netlists.push(id);
            }
        }
    }
}

fn full_lint(db: &HistoryDb) -> (String, usize) {
    let mut out = Diagnostics::new();
    let mut linter = HistoryLinter::new();
    linter.lint_full(db, &mut out).expect("lints");
    out.sort();
    (out.render_text(), linter.stats().solver_visits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every batch of random history growth, re-linting
    /// incrementally yields byte-identical diagnostics to a fresh full
    /// lint without ever doing more solver work.
    #[test]
    fn incremental_lint_equals_full_lint(
        batches in prop::collection::vec(
            prop::collection::vec(op_strategy(), 1..12),
            1..6,
        ),
    ) {
        let mut fixture = Fixture::new();
        let mut linter = HistoryLinter::new();
        for batch in &batches {
            for op in batch {
                fixture.apply(op);
            }
            let mut inc = Diagnostics::new();
            linter.lint_incremental(&fixture.db, &mut inc).expect("lints");
            let inc_visits = linter.stats().solver_visits;
            inc.sort();

            let (full_text, full_visits) = full_lint(&fixture.db);
            prop_assert_eq!(inc.render_text(), full_text);
            prop_assert!(
                inc_visits <= full_visits,
                "incremental did more work ({} visits) than full ({})",
                inc_visits,
                full_visits
            );
        }
    }
}
