//! The shared diagnostics type.
//!
//! Every finding `herclint` can make — a lint pass hit, a schema or
//! flow gate error, a stale instance, a corrupt journal frame — is
//! reported as a [`Diagnostic`]: a stable code (`HL0103`), a severity,
//! a [`Span`] naming the offending entity type / flow node / journal
//! frame, and a human message. [`Diagnostics`] collects them, applies
//! per-code suppression, and renders text or JSON.

use std::collections::BTreeSet;
use std::fmt;

use hercules_flow::FlowError;
use hercules_history::Staleness;
use hercules_schema::SchemaError;
use serde::{Deserialize, Serialize};

use crate::runner::JsonPassTiming;

/// How bad a finding is. `Error` findings make `herclint` exit
/// non-zero by default (and fail the CI lint job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory; never fails a run.
    Info,
    /// Suspicious but not fatal; flows may still execute.
    Warn,
    /// The target is broken or cannot behave as written.
    Error,
}

impl Severity {
    /// Lowercase name, as rendered in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }

    /// Parses the lowercase name back.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "error" => Some(Severity::Error),
            "warn" => Some(Severity::Warn),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What kind of thing a [`Span`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// An entity type of the task schema.
    Entity,
    /// A dependency arc of the task schema.
    Dependency,
    /// A node of the task graph.
    Node,
    /// A group of flow nodes (a sub-flow or a scheduled subtask).
    Subflow,
    /// An instance in the design history.
    Instance,
    /// A frame of a workspace journal.
    Frame,
    /// A file of a durable workspace.
    File,
    /// The whole lint target.
    Target,
}

impl SpanKind {
    /// Lowercase name, as rendered in text and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Entity => "entity",
            SpanKind::Dependency => "dependency",
            SpanKind::Node => "node",
            SpanKind::Subflow => "subflow",
            SpanKind::Instance => "instance",
            SpanKind::Frame => "frame",
            SpanKind::File => "file",
            SpanKind::Target => "target",
        }
    }
}

/// Where a finding points: the offending entity type, flow node,
/// journal frame, workspace file, …
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// What kind of location this is.
    pub kind: SpanKind,
    /// The location itself, e.g. `Netlist`, `n5 (Netlist)`, `frame 3`.
    pub name: String,
}

impl Span {
    /// A span naming an entity type.
    pub fn entity(name: &str) -> Span {
        Span {
            kind: SpanKind::Entity,
            name: name.to_owned(),
        }
    }

    /// A span naming a dependency arc `target <- source`.
    pub fn dependency(target: &str, source: &str) -> Span {
        Span {
            kind: SpanKind::Dependency,
            name: format!("{target} <- {source}"),
        }
    }

    /// A span naming a flow node with its entity type.
    pub fn node(id: impl fmt::Display, entity: &str) -> Span {
        Span {
            kind: SpanKind::Node,
            name: format!("{id} ({entity})"),
        }
    }

    /// A span naming a group of flow nodes.
    pub fn subflow(ids: impl IntoIterator<Item = impl fmt::Display>) -> Span {
        let names: Vec<String> = ids.into_iter().map(|i| i.to_string()).collect();
        Span {
            kind: SpanKind::Subflow,
            name: names.join("+"),
        }
    }

    /// A span naming a design-history instance.
    pub fn instance(id: impl fmt::Display) -> Span {
        Span {
            kind: SpanKind::Instance,
            name: id.to_string(),
        }
    }

    /// A span naming a journal frame by index.
    pub fn frame(index: usize) -> Span {
        Span {
            kind: SpanKind::Frame,
            name: format!("frame {index}"),
        }
    }

    /// A span naming a workspace file.
    pub fn file(name: &str) -> Span {
        Span {
            kind: SpanKind::File,
            name: name.to_owned(),
        }
    }

    /// A span covering the whole lint target.
    pub fn target() -> Span {
        Span {
            kind: SpanKind::Target,
            name: String::from("*"),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind.as_str(), self.name)
    }
}

/// One finding: stable code, severity, location, message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Diagnostic {
    /// Stable code, e.g. `HL0103`. Codes are allocated in ranges per
    /// layer; see [`crate::registry`].
    pub code: &'static str,
    /// How bad the finding is.
    pub severity: Severity,
    /// What the finding points at.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: &'static str, severity: Severity, span: Span, message: String) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            span,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )
    }
}

/// Lint configuration: which codes to silence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    /// Codes (e.g. `HL0203`) whose findings are dropped at collection.
    pub suppress: BTreeSet<String>,
}

impl LintConfig {
    /// A configuration with nothing suppressed.
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Suppresses one code (builder style).
    #[must_use]
    pub fn suppressing(mut self, code: &str) -> LintConfig {
        self.suppress.insert(code.to_owned());
        self
    }

    /// Is `code` suppressed?
    pub fn suppressed(&self, code: &str) -> bool {
        self.suppress.contains(code)
    }
}

/// An ordered collection of findings with suppression applied at
/// insertion.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    config: LintConfig,
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection with nothing suppressed.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// An empty collection using `config` for suppression.
    pub fn with_config(config: LintConfig) -> Diagnostics {
        Diagnostics {
            config,
            items: Vec::new(),
        }
    }

    /// Adds a finding unless its code is suppressed.
    pub fn push(&mut self, d: Diagnostic) {
        if !self.config.suppressed(d.code) {
            self.items.push(d);
        }
    }

    /// The findings, in collection order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Number of findings collected (after suppression).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// The worst severity present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.items.iter().map(|d| d.severity).max()
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.items.iter().map(|d| d.code).collect()
    }

    /// Sorts findings most severe first, then by code, then by span.
    pub fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.span.cmp(&b.span))
        });
    }

    /// Renders one finding per line; empty string when clean.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

impl Extend<Diagnostic> for Diagnostics {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        for d in iter {
            self.push(d);
        }
    }
}

// ---------------------------------------------------------------------
// JSON wire format (`--format json`).
// ---------------------------------------------------------------------

/// One finding on the JSON wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonDiagnostic {
    /// Name of the lint target the finding belongs to.
    pub target: String,
    /// Stable code, e.g. `HL0103`.
    pub code: String,
    /// `error`, `warn`, or `info`.
    pub severity: String,
    /// Span kind: `entity`, `node`, `frame`, …
    pub span_kind: String,
    /// Span location, e.g. `Netlist` or `frame 3`.
    pub span: String,
    /// Human-readable description.
    pub message: String,
}

/// The complete JSON report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JsonReport {
    /// All findings across all targets.
    pub diagnostics: Vec<JsonDiagnostic>,
    /// Count of `error` findings.
    pub errors: usize,
    /// Count of `warn` findings.
    pub warnings: usize,
    /// Count of `info` findings.
    pub infos: usize,
    /// Per-pass wall times, when the caller ran the timed runner.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub timings: Vec<JsonPassTiming>,
}

impl JsonReport {
    /// Builds the wire report from per-target diagnostic sets.
    pub fn from_targets<'a>(targets: impl IntoIterator<Item = (&'a str, &'a Diagnostics)>) -> Self {
        let mut diagnostics = Vec::new();
        let (mut errors, mut warnings, mut infos) = (0, 0, 0);
        for (name, diags) in targets {
            for d in diags.iter() {
                match d.severity {
                    Severity::Error => errors += 1,
                    Severity::Warn => warnings += 1,
                    Severity::Info => infos += 1,
                }
                diagnostics.push(JsonDiagnostic {
                    target: name.to_owned(),
                    code: d.code.to_owned(),
                    severity: d.severity.as_str().to_owned(),
                    span_kind: d.span.kind.as_str().to_owned(),
                    span: d.span.name.clone(),
                    message: d.message.clone(),
                });
            }
        }
        JsonReport {
            diagnostics,
            errors,
            warnings,
            infos,
            timings: Vec::new(),
        }
    }

    /// Attaches per-pass timings (builder style).
    #[must_use]
    pub fn with_timings(mut self, timings: Vec<JsonPassTiming>) -> Self {
        self.timings = timings;
        self
    }

    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer failures (none occur for this type).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

// ---------------------------------------------------------------------
// Gate errors rendered as diagnostics: the three existing validators
// (schema, flow, history consistency) emit through this shared type so
// gate errors and lint findings look identical.
// ---------------------------------------------------------------------

/// Maps a schema gate error ([`SchemaError`]) to a diagnostic.
///
/// Gate errors occupy the `HL0001`–`HL0019` range and are always
/// `error` severity: the schema cannot be built at all.
pub fn diagnose_schema_error(e: &SchemaError) -> Diagnostic {
    let (code, span) = match e {
        SchemaError::DuplicateEntityName(name) => ("HL0001", Span::entity(name)),
        SchemaError::UnknownEntity(name) => ("HL0002", Span::entity(name)),
        SchemaError::UnknownEntityId(id) => ("HL0003", Span::entity(&id.to_string())),
        SchemaError::MultipleFunctionalDeps { entity } => ("HL0004", Span::entity(entity)),
        SchemaError::FunctionalDepOnNonTool { entity, source } => {
            ("HL0005", Span::dependency(entity, source))
        }
        SchemaError::RequiredDependencyCycle { entities } => (
            "HL0006",
            Span {
                kind: SpanKind::Entity,
                name: entities.join(", "),
            },
        ),
        SchemaError::RequiredSelfDependency { entity } => ("HL0007", Span::entity(entity)),
        SchemaError::SubtypeCycle { entity } => ("HL0008", Span::entity(entity)),
        SchemaError::SubtypeKindMismatch { subtype, .. } => ("HL0009", Span::entity(subtype)),
        SchemaError::DuplicateDependency { source, target } => {
            ("HL0010", Span::dependency(target, source))
        }
        SchemaError::OptionalFunctionalDep { entity } => ("HL0011", Span::entity(entity)),
        SchemaError::AbstractEntityWithFunctionalDep { entity } => ("HL0012", Span::entity(entity)),
        SchemaError::InvalidComposite { entity } => ("HL0013", Span::entity(entity)),
        _ => ("HL0019", Span::target()),
    };
    Diagnostic::new(code, Severity::Error, span, e.to_string())
}

/// Maps a flow gate error ([`FlowError`]) to a diagnostic.
///
/// Flow gate errors occupy the `HL0020`–`HL0039` range and are always
/// `error` severity, except [`FlowError::IncompleteExpansion`], which
/// is a warning: the flow is structurally sound, merely not yet
/// runnable (the normal state of a flow under construction).
pub fn diagnose_flow_error(e: &FlowError) -> Diagnostic {
    if let FlowError::Schema(inner) = e {
        return diagnose_schema_error(inner);
    }
    let (code, severity, span) = match e {
        FlowError::NodeNotFound(id) => ("HL0020", Severity::Error, Span::node(id, "?")),
        FlowError::ExpandNeedsSpecialization { entity } => {
            ("HL0021", Severity::Error, Span::entity(entity))
        }
        FlowError::NothingToExpand { entity } => ("HL0022", Severity::Error, Span::entity(entity)),
        FlowError::AlreadyExpanded(id) => ("HL0023", Severity::Error, Span::node(id, "?")),
        FlowError::NotASubtype { entity, .. } => ("HL0024", Severity::Error, Span::entity(entity)),
        FlowError::SpecializeAfterExpand(id) => ("HL0025", Severity::Error, Span::node(id, "?")),
        FlowError::ReuseTypeMismatch { offered, .. } => {
            ("HL0026", Severity::Error, Span::entity(offered))
        }
        FlowError::NoDependencyPath { from, to } => {
            ("HL0027", Severity::Error, Span::dependency(to, from))
        }
        FlowError::EdgeNotInSchema { source, target } => {
            ("HL0028", Severity::Error, Span::dependency(target, source))
        }
        FlowError::DuplicateFunctionalEdge(id) => ("HL0029", Severity::Error, Span::node(id, "?")),
        FlowError::DuplicateEdge(s, t) => ("HL0030", Severity::Error, Span::subflow([s, t])),
        FlowError::Cycle => ("HL0031", Severity::Error, Span::target()),
        FlowError::IncompleteExpansion { entity, .. } => {
            ("HL0032", Severity::Warn, Span::entity(entity))
        }
        FlowError::SchemaMismatch => ("HL0033", Severity::Error, Span::target()),
        FlowError::UnknownFlow(name) => ("HL0034", Severity::Error, Span::file(name)),
        _ => ("HL0039", Severity::Error, Span::target()),
    };
    Diagnostic::new(code, severity, span, e.to_string())
}

/// Maps a design-history staleness report to a diagnostic (`HL0501`):
/// the consistency validator's findings rendered like any other lint.
pub fn diagnose_staleness(s: &Staleness) -> Diagnostic {
    Diagnostic::new(
        "HL0501",
        Severity::Warn,
        Span::instance(s.instance),
        s.to_string(),
    )
}
