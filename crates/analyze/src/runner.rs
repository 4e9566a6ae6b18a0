//! The timed pass runner: every registry pass run individually, with
//! wall time and finding counts per code.
//!
//! `herclint --format json` reports a `timings` array so CI can watch
//! for pass-level performance regressions; the REPL's `lint` command
//! shows the same numbers. The runner never reads a clock itself — the
//! caller injects one (`hercules-analyze` stays free of ambient time;
//! binaries pass an `Instant`-based closure, tests pass a counter), so
//! analyses stay deterministic under the simulation harness.

use hercules_flow::TaskGraph;
use hercules_schema::TaskSchema;
use serde::{Deserialize, Serialize};

use crate::diag::{diagnose_flow_error, Diagnostics};
use crate::{flow_passes, hazard, schema_passes};

/// One pass's measured run: its code, wall time, and finding count
/// (after suppression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassTiming {
    /// The pass's stable code (a fused family like `HL0020-HL0039`
    /// when several codes share one analysis).
    pub code: &'static str,
    /// Wall time in nanoseconds, as measured by the injected clock.
    pub nanos: u64,
    /// Findings the pass contributed (post-suppression).
    pub findings: usize,
}

/// A monotonically increasing nanosecond clock, injected by the caller.
pub type Clock<'a> = &'a mut dyn FnMut() -> u64;

fn timed(
    code: &'static str,
    out: &mut Diagnostics,
    clock: Clock<'_>,
    run: impl FnOnce(&mut Diagnostics),
) -> PassTiming {
    let before = out.len();
    let t0 = clock();
    run(out);
    let nanos = clock().saturating_sub(t0);
    PassTiming {
        code,
        nanos,
        findings: out.len() - before,
    }
}

/// Runs every `HL01xx` schema pass individually, timing each. Emits
/// exactly the diagnostics of [`crate::lint_schema`].
pub fn lint_schema_timed(
    schema: &TaskSchema,
    out: &mut Diagnostics,
    clock: Clock<'_>,
) -> Vec<PassTiming> {
    type Pass = fn(&TaskSchema, &mut Diagnostics);
    let passes: [(&'static str, Pass); 6] = [
        ("HL0102", schema_passes::inconstructible_entity),
        ("HL0103", schema_passes::unused_tool),
        ("HL0104", schema_passes::inert_subtype),
        ("HL0105", schema_passes::shadowed_construction),
        ("HL0106", schema_passes::tool_input_deadlock),
        ("HL0107", schema_passes::orphan_entity),
    ];
    passes
        .into_iter()
        .map(|(code, pass)| timed(code, out, clock, |out| pass(schema, out)))
        .collect()
}

/// Runs the flow gate plus every `HL02xx`/`HL03xx` pass individually,
/// timing each. Emits exactly the diagnostics of [`crate::lint_flow`].
pub fn lint_flow_timed(
    flow: &TaskGraph,
    out: &mut Diagnostics,
    clock: Clock<'_>,
) -> Vec<PassTiming> {
    let mut timings = vec![timed("HL0020-HL0039", out, clock, |out| {
        for e in flow.validate_all() {
            out.push(diagnose_flow_error(&e));
        }
    })];
    type Pass = fn(&TaskGraph, &mut Diagnostics);
    let passes: [(&'static str, Pass); 8] = [
        ("HL0201", flow_passes::abstract_node),
        ("HL0202", flow_passes::incomplete_expansion),
        ("HL0203", flow_passes::duplicate_expansion),
        ("HL0204", flow_passes::inert_subflow),
        ("HL0205", flow_passes::unconsumed_tool),
        ("HL0301", hazard::lint_write_write),
        ("HL0302", hazard::lint_read_write),
        ("HL0303", hazard::lint_family_overlap),
    ];
    timings.extend(
        passes
            .into_iter()
            .map(|(code, pass)| timed(code, out, clock, |out| pass(flow, out))),
    );
    timings
}

/// A pass timing on the JSON wire (`herclint --format json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonPassTiming {
    /// Name of the lint target the pass ran over.
    pub target: String,
    /// The pass's stable code (or fused family).
    pub code: String,
    /// Wall time in nanoseconds.
    pub nanos: u64,
    /// Findings the pass contributed.
    pub findings: usize,
}

impl JsonPassTiming {
    /// Converts measured timings for one target to the wire form.
    pub fn from_timings(target: &str, timings: &[PassTiming]) -> Vec<JsonPassTiming> {
        timings
            .iter()
            .map(|t| JsonPassTiming {
                target: target.to_owned(),
                code: t.code.to_owned(),
                nanos: t.nanos,
                findings: t.findings,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use hercules_flow::fixtures as flow_fixtures;
    use hercules_schema::fixtures as schema_fixtures;

    use super::*;
    use crate::{lint_flow, lint_schema};

    /// A deterministic clock: each read advances one "nanosecond".
    fn ticker() -> impl FnMut() -> u64 {
        let mut t = 0u64;
        move || {
            t += 1;
            t
        }
    }

    #[test]
    fn timed_schema_lint_matches_untimed() {
        let schema = schema_fixtures::fig1();
        let mut plain = Diagnostics::new();
        lint_schema(&schema, &mut plain);
        let mut timed = Diagnostics::new();
        let mut clock = ticker();
        let timings = lint_schema_timed(&schema, &mut timed, &mut clock);
        plain.sort();
        timed.sort();
        assert_eq!(plain.render_text(), timed.render_text());
        assert_eq!(timings.len(), 6);
        assert_eq!(
            timings.iter().map(|t| t.findings).sum::<usize>(),
            plain.len()
        );
    }

    #[test]
    fn timed_flow_lint_matches_untimed() {
        let schema = Arc::new(schema_fixtures::fig1());
        let flow = flow_fixtures::fig5(schema).unwrap();
        let mut plain = Diagnostics::new();
        lint_flow(&flow, &mut plain);
        let mut timed = Diagnostics::new();
        let mut clock = ticker();
        let timings = lint_flow_timed(&flow, &mut timed, &mut clock);
        plain.sort();
        timed.sort();
        assert_eq!(plain.render_text(), timed.render_text());
        assert_eq!(timings.len(), 9);
        // The injected clock ticks twice per pass; nothing else reads it.
        assert!(timings.iter().all(|t| t.nanos == 1));
    }
}
