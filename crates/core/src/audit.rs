//! Workspace and session auditing: the `herclint` passes that need the
//! session layer.
//!
//! The pure analyses live in `hercules-analyze` (schema, flow, hazard,
//! and history passes over the substrate crates). This module supplies
//! the passes that must see `hercules` itself:
//!
//! * **workspace lint** (`HL04xx`, [`lint_workspace_in`]) — journal/
//!   manifest invariant checks over a saved durable workspace, read
//!   through the store's own MANIFEST and generation-base readers,
//!   ending in a full session lint of the recovered state;
//! * **session lint** ([`lint_session`]) — schema, flow, hazard, and
//!   the `HL05xx` consistency passes over a live [`Session`];
//! * **conflict prediction** (`HL0505`, [`predict_conflicts`]) — given
//!   two sessions, each recovered read-only from a saved workspace by
//!   [`recover_workspace_in`], report the entity families both
//!   sessions' flows touch with at least one writer: the files their
//!   owners will fight over if both sessions run.
//!
//! Everything here reaches time and disk only through the injected
//! [`Env`] capabilities, so audits are reproducible under the
//! deterministic simulation harness; [`lint_workspace`] is the
//! real-environment convenience wrapper.

use std::path::Path;

use hercules_analyze::{
    lint_flow, lint_history, lint_schema, Diagnostic, Diagnostics, Severity, Span,
};
use hercules_exec::EncapsulationRegistry;
use hercules_flow::FlowEffects;
use hercules_schema::EntityTypeId;
use hercules_sim::Env;

use crate::store::{
    base_body, decode_base, decode_op, is_generation_file, parse_segment_name, read_lease,
    read_manifest, scan_segment, Manifest, StoreError, LEASE_FILE,
};
use crate::Session;

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

// ---------------------------------------------------------------------
// HL0505: cross-session conflict prediction.
// ---------------------------------------------------------------------

/// Predicts write conflicts between two sessions (`HL0505`).
///
/// Each session's active flow is summarized by [`FlowEffects`] —
/// which entity families it will produce and which it reads — and the
/// overlaps with at least one writer are reported: write/write (both
/// sessions supersede versions in the family; commit order decides
/// whose is "latest") and write/read (the reader binds a version the
/// writer is about to supersede). Sessions without an active flow
/// contribute nothing.
pub fn predict_conflicts(a: &Session, b: &Session, out: &mut Diagnostics) {
    let (Some(ea), Some(eb)) = (session_effects(a), session_effects(b)) else {
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

fn session_effects(session: &Session) -> Option<SessionEffects> {
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
        user: session.user().to_owned(),
        writes,
        must_read,
        may_read,
        names,
    })
}

// ---------------------------------------------------------------------
// HL04xx: durable-workspace invariants.
// ---------------------------------------------------------------------

/// Lints a durable workspace directory in the real environment.
pub fn lint_workspace(root: &Path, out: &mut Diagnostics) {
    lint_workspace_in(root, &Env::real(), out);
}

/// Lints a durable workspace directory through the injected
/// environment. Each invariant violation is one diagnostic; once the
/// base restores and the journal replays cleanly, the recovered session
/// is linted like a live one (schema, flow, hazard, and consistency
/// passes). The linter never mutates the workspace: recovery
/// *truncates* a torn journal tail and *quarantines* damaged segments,
/// the linter merely reports them.
pub fn lint_workspace_in(root: &Path, env: &Env, out: &mut Diagnostics) {
    let Some(manifest) = manifest(root, env, out) else {
        return;
    };
    orphan_generations(root, env, &manifest, out);
    segment_chain(&manifest, out);
    quarantine_files(root, env, out);
    lease_state(root, env, &manifest, out);
    if let Some(session) = replay(root, env, &manifest, out) {
        lint_session(&session, out);
    }
}

/// Recovers the session a saved workspace holds, read-only: no lease is
/// taken and nothing is repaired. The base restores with an empty tool
/// registry, since replay is extensional. Reports what stops recovery
/// (`HL0401`–`HL0408`, as [`lint_workspace_in`] does) and returns the
/// session replayed so far, or `None` when no base restores or a frame
/// fails.
pub fn recover_workspace_in(root: &Path, env: &Env, out: &mut Diagnostics) -> Option<Session> {
    let manifest = manifest(root, env, out)?;
    replay(root, env, &manifest, out)
}

/// HL0401/HL0402: MANIFEST must be readable and be a manifest, as the
/// store reads it.
fn manifest(root: &Path, env: &Env, out: &mut Diagnostics) -> Option<Manifest> {
    match read_manifest(&env.fs, root) {
        Ok(manifest) => Some(manifest),
        Err(StoreError::Io(e)) => {
            out.push(Diagnostic::new(
                "HL0401",
                Severity::Error,
                Span::file("MANIFEST"),
                format!("workspace has no readable MANIFEST: {e}"),
            ));
            None
        }
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0402",
                Severity::Error,
                Span::file("MANIFEST"),
                format!("MANIFEST is not a valid manifest: {e}"),
            ));
            None
        }
    }
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

/// HL0403–HL0408, read as recovery reads the generation: its base
/// (frame 0 of the first segment) must exist (HL0403) and restore
/// (HL0404), with an empty encapsulation registry since replay is
/// extensional; every segment of the chain must exist (HL0405); a tail
/// may be torn (warn — recovery truncates or quarantines it, HL0406),
/// while zeros that end the last segment are its free space, classified
/// by the rule recovery and `scrub` share;
/// every checksummed frame after the base must decode as a
/// [`JournalOp`](crate::JournalOp) through the store's one decoder
/// (HL0407) and replay, exactly as recovery replays it (HL0408) — a
/// checkpoint's snapshot frame replaces the session, and later frames
/// replay against that. Frames are numbered along the chain, the base
/// being frame 0. Returns the replayed session when everything is clean
/// enough to keep linting.
fn replay(root: &Path, env: &Env, manifest: &Manifest, out: &mut Diagnostics) -> Option<Session> {
    let segments = &manifest.segments;
    let unreadable = |segment: &str, e: std::io::Error| {
        Diagnostic::new(
            "HL0405",
            Severity::Error,
            Span::file(segment),
            format!(
                "journal segment `{segment}` named by MANIFEST (generation {}) is unreadable: {e}",
                manifest.generation
            ),
        )
    };
    let first = match env.fs.read(&root.join(&segments[0])) {
        Ok(buf) => buf,
        Err(e) => {
            out.push(unreadable(&segments[0], e));
            out.push(Diagnostic::new(
                "HL0403",
                Severity::Error,
                Span::file(&segments[0]),
                format!(
                    "generation {}'s base is missing with its first segment",
                    manifest.generation
                ),
            ));
            return None;
        }
    };
    let base = match base_body(&segments[0], &first) {
        Ok(base) => base,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0403",
                Severity::Error,
                Span::file(&segments[0]),
                format!("{e}"),
            ));
            return None;
        }
    };
    let restored = decode_base(base).and_then(|spec| {
        spec.restore_with(|_| EncapsulationRegistry::new())
            .map_err(StoreError::from)
    });
    let mut session = match restored {
        Ok(session) => session,
        Err(e) => {
            out.push(Diagnostic::new(
                "HL0404",
                Severity::Error,
                Span::frame(0),
                format!("the generation base does not restore to a session: {e}"),
            ));
            return None;
        }
    };
    let mut first = Some(first);
    let mut replay_ok = true;
    let mut frame_base = 0usize;
    for (si, segment) in segments.iter().enumerate() {
        let last = si + 1 == segments.len();
        let buf = match first
            .take()
            .map_or_else(|| env.fs.read(&root.join(segment)), Ok)
        {
            Ok(buf) => buf,
            Err(e) => {
                out.push(unreadable(segment, e));
                return replay_ok.then_some(session);
            }
        };
        let scan = scan_segment(&buf, last);
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
        let from = usize::from(si == 0);
        for (i, payload) in scan.payloads.iter().enumerate().skip(from) {
            let frame = frame_base + i;
            let op = match decode_op(payload) {
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
            if let Err(e) = op.replay(&mut session) {
                out.push(Diagnostic::new(
                    "HL0408",
                    Severity::Error,
                    Span::frame(frame),
                    format!("journaled operation does not replay against the base: {e}"),
                ));
                replay_ok = false;
            }
        }
        frame_base += scan.payloads.len();
    }
    replay_ok.then_some(session)
}

/// HL0410: the MANIFEST segment chain must be well-formed — every name
/// parseable, every segment in the manifest's generation, and sequence
/// numbers exactly 0..n in order. A gap or disorder means recovery
/// would replay operations out of order or skip committed work.
fn segment_chain(manifest: &Manifest, out: &mut Diagnostics) {
    for (i, name) in manifest.segments.iter().enumerate() {
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
fn lease_state(root: &Path, env: &Env, manifest: &Manifest, out: &mut Diagnostics) {
    if !env.fs.exists(&root.join(LEASE_FILE)) {
        return; // no lease: the workspace is simply closed
    }
    let Some(lease) = read_lease(&env.fs, root) else {
        out.push(Diagnostic::new(
            "HL0412",
            Severity::Warn,
            Span::file(LEASE_FILE),
            "LEASE does not parse as a lease document".to_owned(),
        ));
        return;
    };
    let now_ms = env.clock.wall_unix_ms();
    if lease.token < manifest.fencing_token {
        out.push(Diagnostic::new(
            "HL0412",
            Severity::Warn,
            Span::file(LEASE_FILE),
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
            Span::file(LEASE_FILE),
            format!(
                "lease held by `{}` expired at unix-ms {} (now {now_ms}): the writer \
                 died or forgot to close; the next open will take over",
                lease.owner, lease.expires_unix_ms
            ),
        ));
    }
}

/// HL0409: generation files present on disk but not named by MANIFEST.
/// Harmless but worth knowing about when auditing disk use: a crash
/// between a rotation's MANIFEST swap and its deletes leaves the
/// previous generation behind, and `save` over a workspace written
/// before journal frames leaves its `checkpoint-N.json`, which nothing
/// deletes because the store cannot read it.
fn orphan_generations(root: &Path, env: &Env, manifest: &Manifest, out: &mut Diagnostics) {
    for name in dir_names(root, env) {
        let message = if is_generation_file(&name) && !manifest.segments.contains(&name) {
            format!(
                "`{name}` belongs to a generation MANIFEST does not reference \
                 (current generation is {})",
                manifest.generation
            )
        } else if name.starts_with("checkpoint-") && name.ends_with(".json") {
            format!(
                "`{name}` is a checkpoint of the layout before journal frames: \
                 no layout the store reads uses it"
            )
        } else {
            continue;
        };
        out.push(Diagnostic::new(
            "HL0409",
            Severity::Info,
            Span::file(&name),
            message,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a session whose flow produces a Performance (and
    /// everything under it) — a heavy writer.
    fn writer(user: &str) -> Session {
        let mut session = Session::odyssey(user);
        let perf = session.start_from_goal("Performance").expect("seed");
        session.expand(perf).expect("expand");
        session
    }

    /// Builds a session that only reads: a flow seeded at a leaf with no
    /// expansion.
    fn reader(user: &str) -> Session {
        let mut session = Session::odyssey(user);
        let perf = session.start_from_goal("Performance").expect("seed");
        let created = session.expand(perf).expect("expand");
        // Expand the circuit too so Netlist becomes a consumed leaf.
        let _ = session.expand(created[1]);
        session
    }

    #[test]
    fn two_writers_conflict() {
        let a = writer("alice");
        let b = writer("bob");
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
        let a = writer("alice");
        // A session with no flow at all cannot conflict.
        let empty = Session::odyssey("carol");
        let mut out = Diagnostics::new();
        predict_conflicts(&a, &empty, &mut out);
        assert!(out.is_empty(), "got:\n{}", out.render_text());
    }

    #[test]
    fn writer_vs_reader_names_both_users() {
        let a = writer("alice");
        let b = reader("bob");
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
