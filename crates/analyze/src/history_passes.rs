//! The `HL05xx` consistency pass family: incremental dataflow analysis
//! over a committed design history.
//!
//! §3.3: "Queries into the design history can quickly determine whether
//! such retracing need occur." The [`HistoryLinter`] answers that query
//! *incrementally*: it keeps the fixpoint states of a stale-reachability
//! dataflow problem over the history's own reverse index, and after an
//! edit re-analyzes only the dirty cone — the instances whose verdicts
//! the edit can have changed — while producing diagnostics
//! byte-identical to a full reanalysis.
//!
//! Four verdicts per instance:
//!
//! * **HL0501 stale-instance** — a direct input has a newer version
//!   (the registry's original staleness check, answered from the
//!   history's `O(1)` newest-version lookup);
//! * **HL0502 transitively-stale** — direct inputs are current, but a
//!   superseded version reaches the instance through intermediate
//!   derivations (the fixpoint reach-set is non-empty);
//! * **HL0503 retrace-cone** — for *goal* instances (nothing depends on
//!   them): a structured report of what retracing would cut and re-run,
//!   computed by [`RetraceCone`] — the same prediction
//!   `hercules_exec::retrace` consumes;
//! * **HL0504 under-keyed-derivation** — the derivation consumed an
//!   input its task schema never declared; content-addressed caching
//!   keyed on declared inputs would be unsound for such a tool.
//!
//! Plus one aggregated verdict per *tool*:
//!
//! * **HL0506 cache-ineligible-tool** — the tool produced at least one
//!   under-keyed derivation (HL0504), so none of its results may be
//!   served from the content-addressed execution cache: a cache keyed
//!   on the declared inputs would reuse an entry while one of the
//!   undeclared inputs changed.

use std::collections::BTreeMap;

use hercules_flow::declared_reads;
use hercules_history::{HistoryDb, HistoryError, InstanceId, RetraceCone};
use hercules_schema::EntityTypeId;

use crate::dataflow::{solve_seeded, BitSet, DataflowProblem, Interval, JoinSemiLattice};
use crate::diag::{diagnose_staleness, Diagnostic, Diagnostics, Severity, Span};

/// Abstract state of one instance: which superseded versions reach it
/// (through non-version-predecessor data edges), plus the interval hull
/// of their ids — a product lattice, joined component-wise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaleState {
    /// Superseded instances (by raw id) reaching this instance.
    pub reach: BitSet,
    /// Interval hull of `reach`, for `O(1)` range reporting.
    pub versions: Interval,
}

impl JoinSemiLattice for StaleState {
    fn join_from(&mut self, other: &Self) -> bool {
        let a = self.reach.join_from(&other.reach);
        let b = self.versions.join_from(&other.versions);
        a || b
    }
}

/// The stale-reachability dataflow problem over a design history.
///
/// Transfer of an instance joins, over every derivation input except
/// the version predecessor (an edit is never stale w.r.t. the version
/// it edits), the input's state plus the input itself when superseded.
/// Tool references deliberately do not propagate — mirroring
/// [`HistoryDb::staleness_of`], which only inspects data inputs.
pub struct StaleReach<'a> {
    db: &'a HistoryDb,
}

impl<'a> StaleReach<'a> {
    /// Creates the problem over `db`.
    pub fn new(db: &'a HistoryDb) -> StaleReach<'a> {
        StaleReach { db }
    }

    fn superseded(&self, id: InstanceId) -> bool {
        self.db
            .newest_version_of(id)
            .map(|n| n != id)
            .unwrap_or(false)
    }
}

impl DataflowProblem for StaleReach<'_> {
    type State = StaleState;

    fn num_nodes(&self) -> usize {
        self.db.len()
    }

    fn successors(&self, n: usize, out: &mut Vec<usize>) {
        let id = InstanceId::from_raw(n as u64);
        let dependents = self.db.direct_dependents(id).unwrap_or(&[]);
        out.extend(dependents.iter().map(|d| d.raw() as usize));
    }

    fn transfer(&self, n: usize, states: &[StaleState]) -> StaleState {
        let id = InstanceId::from_raw(n as u64);
        let mut state = StaleState::default();
        let Ok(inst) = self.db.instance(id) else {
            return state;
        };
        let Some(d) = inst.derivation() else {
            return state;
        };
        let version_parent = self.db.version_parent(id).ok().flatten();
        for &input in &d.inputs {
            if Some(input) == version_parent {
                continue;
            }
            state.join_from(&states[input.raw() as usize]);
            if self.superseded(input) {
                state.reach.insert(input.raw() as usize);
                state.versions.insert(input.raw());
            }
        }
        state
    }
}

/// Work metrics of the last lint run — what the incremental tests and
/// the REPL's `lint --incremental` report assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Instances in the database when the run finished.
    pub instances_total: usize,
    /// Instances whose verdicts were recomputed (the cone, for an
    /// incremental run; everything, for a full run).
    pub instances_analyzed: usize,
    /// Transfer executions the fixpoint solver performed.
    pub solver_visits: usize,
    /// `true` when the run reused previous state.
    pub incremental: bool,
}

/// Cached verdicts of one instance, one slot per HL05xx code.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Verdicts {
    stale: Option<Diagnostic>,
    transitive: Option<Diagnostic>,
    cone: Option<Diagnostic>,
    keys: Option<Diagnostic>,
}

/// The incremental consistency engine: fixpoint states + per-instance
/// verdict cache over the history's own reverse index.
///
/// `lint_full` rebuilds everything from scratch; `lint_incremental`
/// folds in only what changed since the previous call on the same
/// linter. Both emit identical diagnostics for identical databases.
/// The verdict cache holds only the instances that have a verdict, so
/// its size and the cost of cloning or walking it follow the
/// diagnostics, not the history.
#[derive(Debug, Clone, Default)]
pub struct HistoryLinter {
    states: Vec<StaleState>,
    /// Each instance with at least one verdict, by raw id.
    verdicts: BTreeMap<u64, Verdicts>,
    /// How far the linter has analyzed: the length of the append-only
    /// history it last saw.
    analyzed: usize,
    last_stats: LintStats,
}

impl HistoryLinter {
    /// Creates an empty linter; the first lint analyzes the whole
    /// database.
    pub fn new() -> HistoryLinter {
        HistoryLinter::default()
    }

    /// Returns the work metrics of the most recent lint run.
    pub fn stats(&self) -> &LintStats {
        &self.last_stats
    }

    /// Lints the history from scratch, discarding any previous state.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors (none occur on a well-formed database).
    pub fn lint_full(&mut self, db: &HistoryDb, out: &mut Diagnostics) -> Result<(), HistoryError> {
        *self = HistoryLinter::new();
        self.run(db, out, false)
    }

    /// Lints the history incrementally: takes the instances recorded
    /// since the previous call, re-solves the fixpoint seeded from
    /// their dirty cone, and recomputes only the cone's verdicts. On a
    /// fresh linter, or a database shorter than the one it last saw,
    /// this degenerates to a full lint.
    ///
    /// # Errors
    ///
    /// Propagates lookup errors (none occur on a well-formed database).
    pub fn lint_incremental(
        &mut self,
        db: &HistoryDb,
        out: &mut Diagnostics,
    ) -> Result<(), HistoryError> {
        self.run(db, out, true)
    }

    fn run(
        &mut self,
        db: &HistoryDb,
        out: &mut Diagnostics,
        incremental: bool,
    ) -> Result<(), HistoryError> {
        if db.len() < self.analyzed {
            // Not the history this state describes: the fixpoint only
            // joins, so stale reach bits would survive.
            *self = HistoryLinter::new();
        }
        let fresh: Vec<InstanceId> = (self.analyzed..db.len())
            .map(|raw| InstanceId::from_raw(raw as u64))
            .collect();
        let cone = db.dirty_cone(&fresh)?;
        let seeds: Vec<usize> = cone.members.iter().map(|i| i.raw() as usize).collect();
        let problem = StaleReach::new(db);
        let result = solve_seeded(&problem, &seeds, std::mem::take(&mut self.states));
        self.states = result.states;
        for &id in &cone.members {
            let verdicts = self.verdicts_of(db, id)?;
            if verdicts == Verdicts::default() {
                self.verdicts.remove(&id.raw());
            } else {
                self.verdicts.insert(id.raw(), verdicts);
            }
        }
        self.analyzed = db.len();
        self.last_stats = LintStats {
            instances_total: db.len(),
            instances_analyzed: cone.members.len(),
            solver_visits: result.total_visits,
            incremental,
        };
        for v in self.verdicts.values() {
            for d in [&v.stale, &v.transitive, &v.cone, &v.keys]
                .into_iter()
                .flatten()
            {
                out.push(d.clone());
            }
        }

        // HL0506: aggregate the per-instance under-keyed verdicts by
        // the producing tool. One under-keyed derivation is enough to
        // make the whole tool cache-ineligible — a content cache keyed
        // on declared inputs would reuse its entries while one of the
        // undeclared inputs changed. Recomputed from the verdict cache,
        // so full and incremental runs agree by construction.
        let mut ineligible: BTreeMap<String, usize> = BTreeMap::new();
        for (&raw, v) in &self.verdicts {
            if v.keys.is_none() {
                continue;
            }
            let inst = db.instance(InstanceId::from_raw(raw))?;
            // Tool-less (composite) derivations have no tool to flag.
            let Some(tool) = inst.derivation().and_then(|d| d.tool) else {
                continue;
            };
            let tool_entity = db.instance(tool)?.entity();
            *ineligible
                .entry(db.schema().entity(tool_entity).name().to_owned())
                .or_insert(0) += 1;
        }
        for (tool, count) in &ineligible {
            out.push(Diagnostic::new(
                "HL0506",
                Severity::Warn,
                Span::entity(tool),
                format!(
                    "tool `{tool}` produced {count} under-keyed derivation(s) (HL0504); \
                     its results are cache-ineligible — a content cache keyed on the \
                     declared inputs would reuse them while undeclared inputs change"
                ),
            ));
        }
        Ok(())
    }

    /// Recomputes the four verdicts of one instance from the history's
    /// lookups and the fixpoint states.
    fn verdicts_of(&self, db: &HistoryDb, id: InstanceId) -> Result<Verdicts, HistoryError> {
        let mut v = Verdicts::default();
        let inst = db.instance(id)?;
        let Some(derivation) = inst.derivation() else {
            return Ok(v);
        };

        // HL0501: first direct input with a newer version.
        let direct = db.staleness_of(id)?;
        if let Some(s) = &direct {
            v.stale = Some(diagnose_staleness(s));
        }

        // HL0502: nothing direct, but the reach set is non-empty.
        let state = &self.states[id.raw() as usize];
        if direct.is_none() && !state.reach.is_empty() {
            let first = InstanceId::from_raw(state.reach.min().expect("non-empty") as u64);
            let newest = db.newest_version_of(first)?;
            let (lo, hi) = (
                state.versions.min().expect("non-empty"),
                state.versions.max().expect("non-empty"),
            );
            v.transitive = Some(Diagnostic::new(
                "HL0502",
                Severity::Warn,
                Span::instance(id),
                format!(
                    "instance {} is transitively out of date: {} superseded version(s) \
                     in i{}..i{} reach it through its derivation; e.g. {} has been \
                     superseded by {}",
                    id,
                    state.reach.len(),
                    lo,
                    hi,
                    first,
                    newest
                ),
            ));
        }

        // HL0503: a goal instance (nothing depends on it) that needs
        // retracing — report what the retrace would do.
        if db.direct_dependents(id)?.is_empty() && (direct.is_some() || !state.reach.is_empty()) {
            let cone = RetraceCone::compute(db, id)?;
            let cuts: Vec<String> = cone
                .cuts
                .iter()
                .map(|c| format!("{}->{}", c.superseded, c.newest))
                .collect();
            v.cone = Some(Diagnostic::new(
                "HL0503",
                Severity::Info,
                Span::instance(id),
                format!(
                    "retracing goal {} would cut {} superseded input(s) [{}] and \
                     re-run {} of {} recalled task(s)",
                    id,
                    cone.cuts.len(),
                    cuts.join(", "),
                    cone.rerun.len(),
                    cone.recall.len()
                ),
            ));
        }

        // HL0504: an input the task schema never declared.
        let schema = db.schema();
        let declared = declared_reads(schema, inst.entity());
        let is_declared = |e: EntityTypeId| {
            declared
                .iter()
                .any(|&s| s == e || schema.supertype_chain(e).contains(&s))
        };
        for &input in &derivation.inputs {
            let input_entity = db.instance(input)?.entity();
            if !is_declared(input_entity) {
                v.keys = Some(Diagnostic::new(
                    "HL0504",
                    Severity::Warn,
                    Span::instance(id),
                    format!(
                        "derivation of {} ({}) consumed {} ({}), which no data dependency \
                         of `{}` or its supertypes declares; content-addressed caching \
                         keyed on declared inputs would be unsound here",
                        id,
                        schema.entity(inst.entity()).name(),
                        input,
                        schema.entity(input_entity).name(),
                        schema.entity(inst.entity()).name()
                    ),
                ));
                break;
            }
        }
        Ok(v)
    }
}

/// One-shot full lint of a history database — the non-incremental entry
/// point used by `lint_session`.
///
/// # Errors
///
/// Propagates lookup errors (none occur on a well-formed database).
pub fn lint_history(db: &HistoryDb, out: &mut Diagnostics) -> Result<(), HistoryError> {
    HistoryLinter::new().lint_full(db, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_history::{Derivation, Metadata};
    use hercules_schema::fixtures;
    use std::sync::Arc;

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
                Metadata::by("u"),
                b"l1",
                Derivation::by_tool(placer, [net, rules]),
            )
            .expect("ok");
        let x1 = db
            .record_derived(
                t("ExtractedNetlist"),
                Metadata::by("u"),
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

    fn render(db: &HistoryDb, f: impl FnOnce(&HistoryDb, &mut Diagnostics)) -> String {
        let mut out = Diagnostics::new();
        f(db, &mut out);
        out.sort();
        out.render_text()
    }

    #[test]
    fn fresh_history_is_clean() {
        let (db, _) = extraction_db();
        let text = render(&db, |db, out| lint_history(db, out).expect("ok"));
        assert_eq!(text, "", "clean history should produce no findings");
    }

    #[test]
    fn editing_an_input_raises_the_whole_family() {
        let (mut db, ids) = extraction_db();
        let (editor, net, l1, x1) = (ids[2], ids[3], ids[5], ids[6]);
        edit_netlist(&mut db, editor, net);
        let mut out = Diagnostics::new();
        lint_history(&db, &mut out).expect("ok");
        let codes = out.codes();
        assert!(codes.contains("HL0501"), "l1 is directly stale: {codes:?}");
        assert!(codes.contains("HL0502"), "x1 is transitively stale");
        assert!(codes.contains("HL0503"), "x1 is a stale goal");
        let text = out.render_text();
        assert!(text.contains(&l1.to_string()));
        assert!(text.contains(&x1.to_string()));
        // The retrace-cone report predicts the cut and the reruns.
        assert!(text.contains("would cut 1 superseded input(s)"));
        assert!(text.contains("re-run 2 of"));
    }

    #[test]
    fn incremental_equals_full_and_analyzes_only_the_cone() {
        let (mut db, ids) = extraction_db();
        let (editor, net) = (ids[2], ids[3]);

        let mut linter = HistoryLinter::new();
        let mut first = Diagnostics::new();
        linter.lint_incremental(&db, &mut first).expect("ok");
        assert_eq!(linter.stats().instances_analyzed, db.len());

        // Grow the history far away from the edit so the cone is a
        // strict subset: unrelated primary instances.
        let schema = db.schema().clone();
        for _ in 0..20 {
            db.record_primary(
                schema.require("DeviceModelEditor").expect("known"),
                Metadata::by("u"),
                b"s",
            )
            .expect("ok");
        }
        edit_netlist(&mut db, editor, net);

        let mut inc = Diagnostics::new();
        linter.lint_incremental(&db, &mut inc).expect("ok");
        let inc_stats = *linter.stats();

        let mut full = Diagnostics::new();
        let mut fresh = HistoryLinter::new();
        fresh.lint_full(&db, &mut full).expect("ok");
        let full_stats = *fresh.stats();

        inc.sort();
        full.sort();
        assert_eq!(
            inc.render_text(),
            full.render_text(),
            "incremental and full must agree byte-for-byte"
        );
        assert!(
            inc_stats.instances_analyzed < full_stats.instances_analyzed,
            "cone {} should be smaller than full {}",
            inc_stats.instances_analyzed,
            full_stats.instances_analyzed
        );
        assert!(
            inc_stats.solver_visits < full_stats.solver_visits,
            "solver should visit fewer nodes incrementally"
        );
    }

    #[test]
    fn a_shorter_history_is_linted_from_scratch() {
        let (prefix, ids) = extraction_db();
        let mut db = prefix.clone();
        edit_netlist(&mut db, ids[2], ids[3]);
        let tool = db.schema().require("DeviceModelEditor").expect("known");
        for _ in 0..4 {
            db.record_primary(tool, Metadata::by("u"), b"s")
                .expect("ok");
        }
        assert_eq!((prefix.len(), db.len()), (7, 12));
        let mut linter = HistoryLinter::new();
        linter.lint_full(&db, &mut Diagnostics::new()).expect("ok");
        let text = render(&prefix, |db, out| {
            linter.lint_incremental(db, out).expect("ok");
        });
        assert_eq!(text, "", "the prefix holds no edit, so nothing is stale");
        assert_eq!(linter.stats().instances_analyzed, prefix.len());
    }

    #[test]
    fn under_keyed_derivation_is_flagged() {
        let (mut db, ids) = extraction_db();
        let extractor = ids[1];
        let rules = ids[4];
        // An extraction that also consumed the placement rules — which
        // ExtractedNetlist's schema never declares.
        let sneaky = db
            .record_derived(
                db.schema().require("ExtractedNetlist").expect("known"),
                Metadata::by("u"),
                b"x2",
                Derivation::by_tool(extractor, [ids[5], rules]),
            )
            .expect("ok");
        let mut out = Diagnostics::new();
        lint_history(&db, &mut out).expect("ok");
        let text = out.render_text();
        assert!(
            text.contains("HL0504") && text.contains(&sneaky.to_string()),
            "undeclared input must be flagged: {text}"
        );
        assert!(text.contains("PlacementRules"));
    }

    #[test]
    fn under_keyed_tool_is_marked_cache_ineligible() {
        let (mut db, ids) = extraction_db();
        let extractor = ids[1];
        let rules = ids[4];
        // Two sneaky extractions: the tool verdict aggregates both into
        // one cache-ineligibility finding against the Extractor.
        for payload in [b"x2" as &[u8], b"x3"] {
            db.record_derived(
                db.schema().require("ExtractedNetlist").expect("known"),
                Metadata::by("u"),
                payload,
                Derivation::by_tool(extractor, [ids[5], rules]),
            )
            .expect("ok");
        }
        let mut out = Diagnostics::new();
        lint_history(&db, &mut out).expect("ok");
        let hl0506: Vec<_> = out.iter().filter(|d| d.code == "HL0506").collect();
        assert_eq!(hl0506.len(), 1, "one finding per offending tool");
        let text = hl0506[0].to_string();
        assert!(
            text.contains("Extractor") && text.contains("2 under-keyed derivation(s)"),
            "aggregated tool verdict expected: {text}"
        );
        assert!(text.contains("cache-ineligible"));
    }
}
