//! Workspace and session auditing: the `herclint` passes that need the
//! session layer.
//!
//! The pure analyses live in `hercules-analyze` (schema, flow, hazard,
//! and history passes over the substrate crates). This module supplies
//! the passes that must see `hercules` itself:
//!
//! * **workspace lint** (`HL04xx`, [`lint_workspace_in`]) — journal/
//!   manifest invariant checks over a saved durable workspace
//!   (`crates/core/src/store.rs` layout), ending in a full session lint
//!   of the recovered state;
//! * **session lint** ([`lint_session`]) — schema, flow, hazard, and
//!   the `HL05xx` consistency passes over a live [`Session`];
//! * **conflict prediction** (`HL0505`, [`predict_conflicts`]) — given
//!   two saved [`SessionSpec`]s, report the entity families both
//!   sessions' flows touch with at least one writer: the files their
//!   owners will fight over if both sessions run.
//!
//! Everything here reaches time and disk only through the injected
//! [`Env`] capabilities, so audits are reproducible under the
//! deterministic simulation harness; [`lint_workspace`] is the
//! real-environment convenience wrapper.

use std::path::Path;

use hercules_analyze::runner::{lint_flow_timed, lint_history_timed, lint_schema_timed, Clock};
use hercules_analyze::{
    lint_flow, lint_history, lint_schema, Diagnostic, Diagnostics, PassTiming, Severity, Span,
};
use hercules_exec::EncapsulationRegistry;
use hercules_flow::FlowEffects;
use hercules_schema::EntityTypeId;
use hercules_sim::Env;
use serde::Deserialize;

use crate::store::scan_frames;
use crate::{JournalOp, Session, SessionSpec};

/// Lints a live session: its schema, its active flow (if any), and the
/// design history's `HL05xx` consistency findings (staleness, retrace
/// cones, under-keyed derivations, cache-ineligible tools).
pub fn lint_session(session: &Session, out: &mut Diagnostics) {
    lint_schema(session.schema(), out);
    if let Ok(flow) = session.flow() {
        lint_flow(flow, out);
    }
    let _ = lint_history(session.db(), out);
}

/// [`lint_session`] with per-pass wall times, measured by the injected
/// `clock` (a monotonic nanosecond source).
pub fn lint_session_timed(
    session: &Session,
    out: &mut Diagnostics,
    clock: Clock<'_>,
) -> Vec<PassTiming> {
    let mut timings = lint_schema_timed(session.schema(), out, clock);
    if let Ok(flow) = session.flow() {
        timings.extend(lint_flow_timed(flow, out, clock));
    }
    timings.extend(lint_history_timed(session.db(), out, clock));
    timings
}

// ---------------------------------------------------------------------
// HL0505: cross-session conflict prediction.
// ---------------------------------------------------------------------

/// Predicts write conflicts between two saved sessions (`HL0505`).
///
/// Each session's active flow is summarized by [`FlowEffects`] —
/// which entity families it will produce and which it reads — and the
/// overlaps with at least one writer are reported: write/write (both
/// sessions supersede versions in the family; commit order decides
/// whose is "latest") and write/read (the reader binds a version the
/// writer is about to supersede). Sessions without an active flow
/// contribute nothing.
pub fn predict_conflicts(a: &SessionSpec, b: &SessionSpec, out: &mut Diagnostics) {
    let Some(ea) = session_effects(a, out) else {
        return;
    };
    let Some(eb) = session_effects(b, out) else {
        return;
    };
    // Write/write: both flows produce in the family.
    for &f in ea.writes.intersection(&eb.writes) {
        out.push(Diagnostic::new(
            "HL0505",
            Severity::Warn,
            Span::entity(&ea.names[&f]),
            format!(
                "sessions `{}` and `{}` both plan to produce `{}` instances; \
                 whichever commits second supersedes the other's version",
                ea.user, eb.user, ea.names[&f]
            ),
        ));
    }
    // Write/read: one side produces a family the other binds from the
    // history. Must-reads are certain conflicts; declared-but-unexpanded
    // may-reads are reported with the weaker wording.
    for (writer, reader) in [(&ea, &eb), (&eb, &ea)] {
        for &f in writer.writes.intersection(&reader.must_read) {
            if ea.writes.contains(&f) && eb.writes.contains(&f) {
                continue; // already reported as write/write
            }
            out.push(Diagnostic::new(
                "HL0505",
                Severity::Warn,
                Span::entity(&writer.names[&f]),
                format!(
                    "session `{}` plans to produce `{}` while session `{}` reads it; \
                     the read binds a version about to be superseded",
                    writer.user, writer.names[&f], reader.user
                ),
            ));
        }
        for &f in writer.writes.intersection(&reader.may_read) {
            if ea.writes.contains(&f) && eb.writes.contains(&f) {
                continue;
            }
            out.push(Diagnostic::new(
                "HL0505",
                Severity::Info,
                Span::entity(&writer.names[&f]),
                format!(
                    "session `{}` plans to produce `{}`, which session `{}`'s flow \
                     declares as a possible input; expanding that input would read a \
                     version about to be superseded",
                    writer.user, writer.names[&f], reader.user
                ),
            ));
        }
    }
}

/// One session's effect summary, canonicalized to family roots.
struct SessionEffects {
    user: String,
    writes: std::collections::BTreeSet<EntityTypeId>,
    must_read: std::collections::BTreeSet<EntityTypeId>,
    may_read: std::collections::BTreeSet<EntityTypeId>,
    names: std::collections::BTreeMap<EntityTypeId, String>,
}

fn session_effects(spec: &SessionSpec, out: &mut Diagnostics) -> Option<SessionEffects> {
    let session = match spec.restore_with(|_| EncapsulationRegistry::new()) {
        Ok(session) => session,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0404",
                Severity::Error,
                Span::target(),
                format!(
                    "session of `{}` does not restore from its spec: {e}",
                    spec.user
                ),
            ));
            return None;
        }
    };
    let flow = session.flow().ok()?;
    let schema = session.schema();
    let effects = FlowEffects::of(flow);
    let writes = FlowEffects::families(schema, &effects.writes);
    let must_read = FlowEffects::families(schema, &effects.must_read);
    let may_read: std::collections::BTreeSet<EntityTypeId> =
        FlowEffects::families(schema, &effects.may_read)
            .into_iter()
            .filter(|f| !writes.contains(f) && !must_read.contains(f))
            .collect();
    let names = writes
        .iter()
        .chain(&must_read)
        .chain(&may_read)
        .map(|&f| (f, schema.entity(f).name().to_owned()))
        .collect();
    Some(SessionEffects {
        user: spec.user.clone(),
        writes,
        must_read,
        may_read,
        names,
    })
}

// ---------------------------------------------------------------------
// HL04xx: durable-workspace invariants.
// ---------------------------------------------------------------------

/// Mirror of the store's private manifest document. The store owns the
/// write path; the linter only needs the read shape, so it keeps its
/// own deserializer rather than widening the store's API.
#[derive(Debug, Deserialize)]
struct ManifestDoc {
    generation: u64,
    checkpoint: String,
    journal: String,
    #[serde(default)]
    segments: Vec<String>,
    #[serde(default)]
    fencing_token: u64,
}

impl ManifestDoc {
    /// The segment chain, oldest first. Pre-segment manifests name
    /// only `journal`; treat that as a one-segment chain.
    fn effective_segments(&self) -> Vec<String> {
        if self.segments.is_empty() {
            vec![self.journal.clone()]
        } else {
            self.segments.clone()
        }
    }
}

/// Mirror of the store's lease lock file.
#[derive(Debug, Deserialize)]
struct LeaseDoc {
    owner: String,
    expires_unix_ms: u64,
    token: u64,
}

/// Lints a durable workspace directory in the real environment.
pub fn lint_workspace(root: &Path, out: &mut Diagnostics) {
    lint_workspace_in(root, &Env::real(), out);
}

/// Lints a durable workspace directory through the injected
/// environment. Each invariant violation is one diagnostic; once the
/// checkpoint restores and the journal replays cleanly, the recovered
/// session is linted like a live one (schema, flow, hazard, and
/// consistency passes). The linter never mutates the workspace:
/// recovery *truncates* a torn journal tail and *quarantines* damaged
/// segments, the linter merely reports them.
pub fn lint_workspace_in(root: &Path, env: &Env, out: &mut Diagnostics) {
    let text = match read_utf8(env, &root.join("MANIFEST")) {
        Ok(text) => text,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0401",
                Severity::Error,
                Span::file("MANIFEST"),
                format!("workspace has no readable MANIFEST: {e}"),
            ));
            return;
        }
    };
    let manifest: ManifestDoc = match serde_json::from_str(&text) {
        Ok(m) => m,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0402",
                Severity::Error,
                Span::file("MANIFEST"),
                format!("MANIFEST is not a valid manifest document: {e}"),
            ));
            return;
        }
    };

    orphan_generations(root, env, &manifest, out);
    segment_chain(&manifest, out);
    quarantine_files(root, env, out);
    lease_state(root, env, &manifest, out);

    let session = restore_checkpoint(root, env, &manifest, out);
    let replayed = check_journal(root, env, &manifest, session, out);
    if let Some(session) = replayed {
        lint_session(&session, out);
    }
}

fn read_utf8(env: &Env, path: &Path) -> std::io::Result<String> {
    let bytes = env.fs.read(path)?;
    String::from_utf8(bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// File names directly under `root`, sorted.
fn dir_names(root: &Path, env: &Env) -> Vec<String> {
    let Ok(paths) = env.fs.list_dir(root) else {
        return Vec::new();
    };
    paths
        .iter()
        .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_owned))
        .collect()
}

/// HL0403/HL0404: the checkpoint named by MANIFEST must exist, parse,
/// and restore. Restoration uses an empty encapsulation registry —
/// journal replay is extensional (recorded instances and reports, no
/// tool execution), so no real tool bindings are needed.
fn restore_checkpoint(
    root: &Path,
    env: &Env,
    manifest: &ManifestDoc,
    out: &mut Diagnostics,
) -> Option<Session> {
    let text = match read_utf8(env, &root.join(&manifest.checkpoint)) {
        Ok(text) => text,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0403",
                Severity::Error,
                Span::file(&manifest.checkpoint),
                format!(
                    "checkpoint `{}` named by MANIFEST (generation {}) is unreadable: {e}",
                    manifest.checkpoint, manifest.generation
                ),
            ));
            return None;
        }
    };
    let spec = match SessionSpec::from_json(&text) {
        Ok(spec) => spec,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0404",
                Severity::Error,
                Span::file(&manifest.checkpoint),
                format!("checkpoint does not parse as a session: {e}"),
            ));
            return None;
        }
    };
    match spec.restore_with(|_| EncapsulationRegistry::new()) {
        Ok(session) => Some(session),
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0404",
                Severity::Error,
                Span::file(&manifest.checkpoint),
                format!("checkpoint does not restore to a session: {e}"),
            ));
            None
        }
    }
}

/// HL0405–HL0408: every segment of the journal chain must exist; a
/// tail may be torn (warn — recovery truncates or quarantines it);
/// every checksummed frame must parse as a [`JournalOp`]; every parsed
/// op must replay against the checkpoint, exactly as recovery replays
/// it — a checkpoint's [`JournalOp::Snapshot`] frame replaces the
/// session, and later frames replay against that. Returns the fully
/// replayed session when everything is clean enough to keep linting.
fn check_journal(
    root: &Path,
    env: &Env,
    manifest: &ManifestDoc,
    session: Option<Session>,
    out: &mut Diagnostics,
) -> Option<Session> {
    let segments = manifest.effective_segments();
    let mut session = session;
    let mut replay_ok = session.is_some();
    let mut frame_base = 0usize;
    for (si, segment) in segments.iter().enumerate() {
        let last = si + 1 == segments.len();
        let buf = match env.fs.read(&root.join(segment)) {
            Ok(buf) => buf,
            Err(e) => {
                out.push(Diagnostic::new(
                    "HL0405",
                    Severity::Error,
                    Span::file(segment),
                    format!(
                        "journal segment `{segment}` named by MANIFEST (generation {}) \
                         is unreadable: {e}",
                        manifest.generation
                    ),
                ));
                return session;
            }
        };
        let scan = scan_frames(&buf);
        if scan.trailing > 0 {
            let consequence = if last {
                "recovery will truncate it"
            } else {
                "recovery will quarantine the damage and every later segment"
            };
            out.push(Diagnostic::new(
                "HL0406",
                Severity::Warn,
                Span::file(segment),
                format!(
                    "journal segment ends in a torn or corrupt tail of {} byte(s) after \
                     {} valid frame(s); {consequence}",
                    scan.trailing,
                    scan.payloads.len()
                ),
            ));
        }
        for (i, payload) in scan.payloads.iter().enumerate() {
            let frame = frame_base + i;
            let op: JournalOp = match serde_json::from_slice(payload) {
                Ok(op) => op,
                Err(e) => {
                    out.push(Diagnostic::new(
                        "HL0407",
                        Severity::Error,
                        Span::frame(frame),
                        format!("checksummed journal frame does not parse as an operation: {e}"),
                    ));
                    replay_ok = false;
                    continue;
                }
            };
            if !replay_ok {
                continue; // one failure poisons everything downstream
            }
            if let Some(s) = session.as_mut() {
                if let Err(e) = op.replay(s) {
                    out.push(Diagnostic::new(
                        "HL0408",
                        Severity::Error,
                        Span::frame(frame),
                        format!("journaled operation does not replay against the checkpoint: {e}"),
                    ));
                    replay_ok = false;
                }
            }
        }
        frame_base += scan.payloads.len();
    }
    if replay_ok {
        session
    } else {
        None
    }
}

/// Parses `journal-<gen>.log` / `journal-<gen>.<seq>.log` into
/// `(generation, sequence)`.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("journal-")?.strip_suffix(".log")?;
    match rest.split_once('.') {
        None => rest.parse().ok().map(|generation| (generation, 0)),
        Some((generation, seq)) => Some((generation.parse().ok()?, seq.parse().ok()?)),
    }
}

/// HL0410: the MANIFEST segment chain must be well-formed — every name
/// parseable, every segment in the manifest's generation, sequence
/// numbers exactly 0..n in order, and the `journal` field naming the
/// last (active) segment. A gap or disorder means recovery would
/// replay operations out of order or skip committed work.
fn segment_chain(manifest: &ManifestDoc, out: &mut Diagnostics) {
    let segments = manifest.effective_segments();
    for (i, name) in segments.iter().enumerate() {
        let Some((generation, seq)) = parse_segment_name(name) else {
            out.push(Diagnostic::new(
                "HL0410",
                Severity::Error,
                Span::file(name),
                format!(
                    "segment `{name}` does not match `journal-<gen>[.<seq>].log`; \
                     the chain cannot be ordered"
                ),
            ));
            continue;
        };
        if generation != manifest.generation {
            out.push(Diagnostic::new(
                "HL0410",
                Severity::Error,
                Span::file(name),
                format!(
                    "segment `{name}` belongs to generation {generation} but MANIFEST \
                     is at generation {}",
                    manifest.generation
                ),
            ));
        }
        if seq != i as u64 {
            out.push(Diagnostic::new(
                "HL0410",
                Severity::Error,
                Span::file(name),
                format!(
                    "segment chain position {i} holds sequence {seq}: the chain has a \
                     gap, duplicate, or misordered segment"
                ),
            ));
        }
    }
    if let Some(active) = segments.last() {
        if *active != manifest.journal {
            out.push(Diagnostic::new(
                "HL0410",
                Severity::Error,
                Span::file("MANIFEST"),
                format!(
                    "MANIFEST names `{}` as the active journal but the segment chain \
                     ends at `{active}`",
                    manifest.journal
                ),
            ));
        }
    }
}

/// HL0411: quarantine files (`*.quarantined-<k>`) left behind by scrub
/// or recovery. Each one holds data the store could not replay —
/// worth a human look before archiving or deleting.
fn quarantine_files(root: &Path, env: &Env, out: &mut Diagnostics) {
    for name in dir_names(root, env)
        .into_iter()
        .filter(|name| name.contains(".quarantined-"))
    {
        out.push(Diagnostic::new(
            "HL0411",
            Severity::Info,
            Span::file(&name),
            format!(
                "`{name}` is quarantined journal data a past recovery or scrub set \
                 aside; review it before archiving or deleting"
            ),
        ));
    }
}

/// HL0412: the LEASE lock file, when present, should be live and
/// should match the fencing token MANIFEST records. An expired lease
/// means the writer died (or forgot to close); a token behind the
/// manifest's means the lease was superseded by a takeover.
fn lease_state(root: &Path, env: &Env, manifest: &ManifestDoc, out: &mut Diagnostics) {
    let text = match read_utf8(env, &root.join("LEASE")) {
        Ok(text) => text,
        Err(_) => return, // no lease: the workspace is simply closed
    };
    let lease: LeaseDoc = match serde_json::from_str(&text) {
        Ok(lease) => lease,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0412",
                Severity::Warn,
                Span::file("LEASE"),
                format!("LEASE does not parse as a lease document: {e}"),
            ));
            return;
        }
    };
    let now_ms = env.clock.wall_unix_ms();
    if lease.token < manifest.fencing_token {
        out.push(Diagnostic::new(
            "HL0412",
            Severity::Warn,
            Span::file("LEASE"),
            format!(
                "lease held by `{}` carries fencing token {} but MANIFEST is at {}: \
                 the writer was deposed by a takeover",
                lease.owner, lease.token, manifest.fencing_token
            ),
        ));
    } else if lease.expires_unix_ms < now_ms {
        out.push(Diagnostic::new(
            "HL0412",
            Severity::Warn,
            Span::file("LEASE"),
            format!(
                "lease held by `{}` expired at unix-ms {} (now {now_ms}): the writer \
                 died or forgot to close; the next open will take over",
                lease.owner, lease.expires_unix_ms
            ),
        ));
    }
}

/// HL0409: generation files present on disk but not named by MANIFEST.
/// Harmless (checkpointing leaves the previous generation behind until
/// the next rotation) but worth knowing about when auditing disk use.
fn orphan_generations(root: &Path, env: &Env, manifest: &ManifestDoc, out: &mut Diagnostics) {
    let segments = manifest.effective_segments();
    for name in dir_names(root, env).into_iter().filter(|name| {
        let generation_file = (name.starts_with("checkpoint-") && name.ends_with(".json"))
            || (name.starts_with("journal-") && name.ends_with(".log"));
        generation_file
            && *name != manifest.checkpoint
            && *name != manifest.journal
            && !segments.contains(name)
    }) {
        out.push(Diagnostic::new(
            "HL0409",
            Severity::Info,
            Span::file(&name),
            format!(
                "`{name}` belongs to a generation MANIFEST does not reference \
                 (current generation is {})",
                manifest.generation
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;

    /// Builds a saved session whose flow produces a Performance (and
    /// everything under it) — a heavy writer.
    fn writer_spec(user: &str) -> SessionSpec {
        let mut session = Session::odyssey(user);
        let perf = session.start_from_goal("Performance").expect("seed");
        session.expand(perf).expect("expand");
        SessionSpec::from_session(&session)
    }

    /// Builds a saved session that only reads: a flow seeded at a leaf
    /// with no expansion.
    fn reader_spec(user: &str) -> SessionSpec {
        let mut session = Session::odyssey(user);
        let perf = session.start_from_goal("Performance").expect("seed");
        let created = session.expand(perf).expect("expand");
        // Expand the circuit too so Netlist becomes a consumed leaf.
        let _ = session.expand(created[1]);
        SessionSpec::from_session(&session)
    }

    #[test]
    fn two_writers_conflict() {
        let a = writer_spec("alice");
        let b = writer_spec("bob");
        let mut out = Diagnostics::new();
        predict_conflicts(&a, &b, &mut out);
        assert!(
            out.iter()
                .any(|d| d.code == "HL0505" && d.message.contains("both plan to produce")),
            "got:\n{}",
            out.render_text()
        );
        // Deterministic: the same pair reports the same findings.
        let mut again = Diagnostics::new();
        predict_conflicts(&a, &b, &mut again);
        assert_eq!(out.render_text(), again.render_text());
    }

    #[test]
    fn disjoint_sessions_are_clean() {
        let a = writer_spec("alice");
        // A session with no flow at all cannot conflict.
        let empty = SessionSpec::from_session(&Session::odyssey("carol"));
        let mut out = Diagnostics::new();
        predict_conflicts(&a, &empty, &mut out);
        assert!(out.is_empty(), "got:\n{}", out.render_text());
    }

    #[test]
    fn writer_vs_reader_names_both_users() {
        let a = writer_spec("alice");
        let b = reader_spec("bob");
        let mut out = Diagnostics::new();
        predict_conflicts(&a, &b, &mut out);
        let hit = out
            .iter()
            .find(|d| d.code == "HL0505")
            .expect("a conflict finding");
        assert!(
            hit.message.contains("alice") && hit.message.contains("bob"),
            "got: {}",
            hit.message
        );
    }
}
