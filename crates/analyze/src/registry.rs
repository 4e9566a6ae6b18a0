//! The pass registry: every lint pass `herclint` runs, with its stable
//! code, layer, and default severity.
//!
//! Code ranges are allocated per layer:
//!
//! | range           | layer     | meaning                                  |
//! |-----------------|-----------|------------------------------------------|
//! | `HL0001`–`HL0019` | gate    | schema build/validation errors           |
//! | `HL0020`–`HL0039` | gate    | flow structural-validation errors        |
//! | `HL0100`–`HL0199` | schema  | schema lint passes                       |
//! | `HL0200`–`HL0299` | flow    | flow lint passes                         |
//! | `HL0300`–`HL0399` | hazard  | parallel-hazard detection                |
//! | `HL0400`–`HL0499` | workspace | journal/manifest invariant checks      |
//! | `HL0500`–`HL0599` | history/session | design-consistency findings: staleness, retrace cones, cache soundness, cross-session conflicts |

use std::fmt;

use crate::diag::Severity;

/// Which layer of the system a pass inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Task-schema passes (§3.1 structures).
    Schema,
    /// Task-graph passes (§3.2 structures).
    Flow,
    /// Parallel-hazard detection over the engine's schedule (§3.3).
    Hazard,
    /// Durable-workspace journal/manifest invariants.
    Workspace,
    /// Design-history consistency (staleness).
    History,
    /// Cross-session conflict prediction over saved sessions.
    Session,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Schema => "schema",
            Layer::Flow => "flow",
            Layer::Hazard => "hazard",
            Layer::Workspace => "workspace",
            Layer::History => "history",
            Layer::Session => "session",
        })
    }
}

/// Registry entry describing one lint pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassInfo {
    /// Stable diagnostic code the pass emits.
    pub code: &'static str,
    /// Layer the pass inspects.
    pub layer: Layer,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// Severity of the pass's findings.
    pub severity: Severity,
}

/// Every registered lint pass, in code order. Gate errors (`HL00xx`)
/// are not passes — they are the three existing validators emitting
/// through the shared diagnostics type — so they are not listed here.
pub const PASSES: &[PassInfo] = &[
    PassInfo {
        code: "HL0101",
        layer: Layer::Schema,
        name: "unsatisfiable-cycle",
        summary: "dependency cycle not broken by any optional arc: construction can never finish",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0102",
        layer: Layer::Schema,
        name: "inconstructible-entity",
        summary: "entity declares inputs but no tool, composition, or subtype can produce it",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0103",
        layer: Layer::Schema,
        name: "unused-tool",
        summary: "tool entity is not referenced by any construction rule",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0104",
        layer: Layer::Schema,
        name: "inert-subtype",
        summary: "subtype never specializes: no construction method, dependencies, or subtypes",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0105",
        layer: Layer::Schema,
        name: "shadowed-construction",
        summary: "subtype hides its supertype's construction method and adds none of its own",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0106",
        layer: Layer::Schema,
        name: "tool-input-deadlock",
        summary: "required data input is a tool no task can produce: construction deadlocks",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0107",
        layer: Layer::Schema,
        name: "orphan-entity",
        summary: "entity participates in no dependency or subtype relation",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0201",
        layer: Layer::Flow,
        name: "abstract-node",
        summary: "node's entity is abstract: warn for interior nodes, advisory for bindable leaves",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0202",
        layer: Layer::Flow,
        name: "incomplete-expansion",
        summary: "interior node is missing required inputs; the flow is not yet runnable",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0203",
        layer: Layer::Flow,
        name: "duplicate-expansion",
        summary: "two interior nodes construct the same entity from the same inputs",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0204",
        layer: Layer::Flow,
        name: "inert-subflow",
        summary: "connected component contains no task to execute",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0205",
        layer: Layer::Flow,
        name: "unconsumed-tool",
        summary: "tool node feeds no task",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0301",
        layer: Layer::Hazard,
        name: "write-write-hazard",
        summary: "two concurrently schedulable subtasks both produce the same entity type",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0302",
        layer: Layer::Hazard,
        name: "read-write-hazard",
        summary: "a subtask reads an instance type a concurrent subtask produces",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0303",
        layer: Layer::Hazard,
        name: "family-overlap",
        summary: "concurrent subtasks touch the same subtype family (version-order sensitivity)",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0401",
        layer: Layer::Workspace,
        name: "manifest-missing",
        summary: "workspace has no readable MANIFEST",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0402",
        layer: Layer::Workspace,
        name: "manifest-corrupt",
        summary: "MANIFEST is not one valid CRC frame holding a manifest",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0403",
        layer: Layer::Workspace,
        name: "checkpoint-missing",
        summary: "the generation's base, frame 0 of its first segment, is missing, torn, or fails its CRC",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0404",
        layer: Layer::Workspace,
        name: "checkpoint-corrupt",
        summary: "the generation's base is not a snapshot or does not restore to a session",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0405",
        layer: Layer::Workspace,
        name: "journal-missing",
        summary: "the journal named by MANIFEST does not exist",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0406",
        layer: Layer::Workspace,
        name: "torn-journal-tail",
        summary: "journal ends in a torn or corrupt tail (recovery will truncate it)",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0407",
        layer: Layer::Workspace,
        name: "journal-frame-corrupt",
        summary: "a checksummed journal frame does not parse as an operation",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0408",
        layer: Layer::Workspace,
        name: "journal-replay-failure",
        summary: "a journaled operation does not replay against the base",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0409",
        layer: Layer::Workspace,
        name: "orphan-generation",
        summary: "generation files not named by MANIFEST are lying around",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0410",
        layer: Layer::Workspace,
        name: "segment-chain-broken",
        summary: "MANIFEST segment chain has a gap, duplicate, misorder, or foreign generation",
        severity: Severity::Error,
    },
    PassInfo {
        code: "HL0411",
        layer: Layer::Workspace,
        name: "quarantined-data",
        summary: "quarantine files from a past recovery or scrub await review",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0412",
        layer: Layer::Workspace,
        name: "stale-lease",
        summary: "LEASE file is unparsable, expired, or superseded by a takeover",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0501",
        layer: Layer::History,
        name: "stale-instance",
        summary: "derived instance is out of date with respect to a newer input version",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0502",
        layer: Layer::History,
        name: "transitively-stale",
        summary: "instance is current w.r.t. direct inputs but a superseded version reaches it",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0503",
        layer: Layer::History,
        name: "retrace-cone",
        summary: "goal instance needs retracing; reports what a retrace would cut and re-run",
        severity: Severity::Info,
    },
    PassInfo {
        code: "HL0504",
        layer: Layer::History,
        name: "under-keyed-derivation",
        summary: "derivation consumed an input its task schema never declared (cache unsound)",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0505",
        layer: Layer::Session,
        name: "cross-session-conflict",
        summary: "two sessions' flows touch the same entity family with at least one writer",
        severity: Severity::Warn,
    },
    PassInfo {
        code: "HL0506",
        layer: Layer::History,
        name: "cache-ineligible-tool",
        summary: "tool produced under-keyed derivations, so its results must not be content-cached",
        severity: Severity::Warn,
    },
];

/// Looks a pass up by code.
pub fn pass(code: &str) -> Option<&'static PassInfo> {
    PASSES.iter().find(|p| p.code == code)
}

/// Renders the registry as a GitHub-flavored markdown table — the
/// single source of truth behind the code listings in `DESIGN.md` and
/// `README.md` (a drift test regenerates and compares them).
pub fn render_markdown_table() -> String {
    let mut out = String::from(
        "| code | layer | severity | name | finds |\n\
         |------|-------|----------|------|-------|\n",
    );
    for p in PASSES {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            p.code,
            p.layer,
            p.severity.as_str(),
            p.name,
            p.summary
        ));
    }
    out
}

/// Renders the registry as a table (for `herclint --list-passes`).
pub fn render_passes() -> String {
    let mut out = String::new();
    for p in PASSES {
        out.push_str(&format!(
            "{}  {:9} {:5} {:24} {}\n",
            p.code,
            p.layer.to_string(),
            p.severity.as_str(),
            p.name,
            p.summary
        ));
    }
    out
}
