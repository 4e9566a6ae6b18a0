//! `hercules-analyze` — the analysis engine behind `herclint`.
//!
//! The paper's framework trusts its inputs a great deal: schemas are
//! assumed sensible once they build, flows are assumed useful once they
//! validate, §3.3's parallel execution of disjoint sub-flows is assumed
//! safe, and cached results are assumed current. This crate is the
//! skeptic. It runs a registry of lint passes ([`registry::PASSES`])
//! over a schema, a flow, or a design history, and reports *all*
//! findings as structured [`Diagnostic`]s: a stable code (`HL0103`), a
//! severity, a span naming the offending entity type / flow node /
//! instance, and a human message — renderable as text or JSON,
//! suppressible per code.
//!
//! The pass layers living in this crate:
//!
//! * **schema** (`HL01xx`, [`schema_passes`]) — legal-but-broken §3.1
//!   designs: unbreakable dependency cycles, entities unreachable from
//!   any tool output, subtypes that shadow or never specialize,
//!   tool-typed data inputs that deadlock.
//! * **flow** (`HL02xx`, [`flow_passes`]) — §3.2 task graphs that can
//!   never run or contain pointless work: abstract nodes, incomplete
//!   expansions, redundant duplicate expansions, dead sub-flows.
//! * **hazard** (`HL03xx`, [`hazard`]) — write/write and read-vs-write
//!   conflicts between concurrently schedulable subtasks (§3.3).
//! * **history** (`HL05xx`, [`history_passes`]) — design-consistency
//!   findings over the committed history: direct and transitive
//!   staleness, retrace cones, under-keyed derivations, and the
//!   tools those derivations make cache-ineligible. These are
//!   *dataflow analyses* over the [`dataflow`] fixpoint framework, and
//!   [`HistoryLinter`] runs them **incrementally**: after an edit, only
//!   the dirty cone of the reverse-dependency index is re-analyzed.
//!
//! The session-layer passes (`HL04xx` workspace invariants, `HL0505`
//! cross-session conflict prediction) need the `hercules` session types
//! and live in `hercules::audit`; the `herclint` binary ships with that
//! crate. The timed pass runner ([`runner`]) measures wall time per
//! pass through an injected clock — this crate never reads ambient time
//! or the filesystem (enforced by the `env_hygiene` test).
//!
//! The three existing gate validators (schema build, flow structure,
//! history consistency) emit through the same diagnostics type via
//! [`diagnose_schema_error`], [`diagnose_flow_error`], and
//! [`diagnose_staleness`], so gate errors and lint findings render
//! identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod diag;
pub mod flow_passes;
pub mod hazard;
pub mod history_passes;
pub mod registry;
pub mod runner;
pub mod schema_passes;

pub use diag::{
    diagnose_flow_error, diagnose_schema_error, diagnose_staleness, Diagnostic, Diagnostics,
    JsonDiagnostic, JsonReport, LintConfig, Severity, Span, SpanKind,
};
pub use history_passes::{lint_history, HistoryLinter, LintStats};
pub use registry::{pass, render_markdown_table, render_passes, Layer, PassInfo, PASSES};
pub use runner::{lint_flow_timed, lint_schema_timed, JsonPassTiming, PassTiming};

use hercules_flow::TaskGraph;
use hercules_schema::{SchemaSpec, TaskSchema};

/// Lints a built (already gate-valid) schema: runs every `HL01xx` pass.
pub fn lint_schema(schema: &TaskSchema, out: &mut Diagnostics) {
    schema_passes::lint_schema(schema, out);
}

/// Lints a raw [`SchemaSpec`]: the cycle pass runs directly on the spec
/// (so a broken spec still gets a complete cycle report), then the
/// build gate's errors are reported through the shared diagnostics
/// type, and — when the build succeeds — the schema passes run.
/// Returns the built schema when the gate admitted it.
pub fn lint_schema_spec(spec: &SchemaSpec, out: &mut Diagnostics) -> Option<TaskSchema> {
    schema_passes::spec_cycle_pass(spec, out);
    match spec.build() {
        Ok(schema) => {
            lint_schema(&schema, out);
            Some(schema)
        }
        Err(e) => {
            // The spec-level cycle pass already reported cycles with
            // full membership; don't repeat the gate's version.
            let d = diagnose_schema_error(&e);
            if d.code != "HL0006" && d.code != "HL0007" {
                out.push(d);
            }
            None
        }
    }
}

/// Lints a task graph: gate errors from [`TaskGraph::validate_all`]
/// first (rendered through the shared type), then the `HL02xx` flow
/// passes, then — when the graph is acyclic — the `HL03xx` hazard
/// passes.
pub fn lint_flow(flow: &TaskGraph, out: &mut Diagnostics) {
    for e in flow.validate_all() {
        out.push(diagnose_flow_error(&e));
    }
    flow_passes::lint_flow_passes(flow, out);
    hazard::lint_hazards(flow, out);
}
