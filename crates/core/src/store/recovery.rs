//! Recovery: `open` restores a generation's base, replays its segment
//! chain, and truncates or quarantines whatever damage ends it.

use std::fmt;
use std::path::Path;
use std::sync::Arc;

use hercules_exec::EncapsulationRegistry;
use hercules_obs::Metrics;
use hercules_schema::TaskSchema;
use hercules_sim::{Env, Fs};
use serde::Serialize;

use super::frame::{count_resync_frames, decode_op, frame_payloads, free_tail, has_resync_frame};
use super::generation::{
    base_body, corrupt_base, decode_base, publish_manifest, read_manifest, SnapshotTail,
};
use super::lease::{
    read_lease, write_lease, DegradedReason, WriteState, DEFAULT_LEASE_MS, DEFAULT_OWNER,
};
use super::{JournalOp, StoreError, StoreMetrics, Workspace, DEFAULT_SEGMENT_MAX_BYTES};
use crate::session::Session;

/// Per-segment recovery detail: what survived, what was quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SegmentRecovery {
    /// Segment file name.
    pub name: String,
    /// Frames replayed from this segment.
    pub frames_replayed: usize,
    /// Complete frames found in the damaged region (quarantined, not
    /// replayed — they sit beyond a hole or a failed frame).
    pub frames_quarantined: usize,
    /// Bytes of the valid, replayed prefix.
    pub bytes_kept: u64,
    /// Bytes discarded from this segment (truncated tail or the whole
    /// file when unreadable).
    pub bytes_discarded: u64,
    /// Files the damaged data was preserved under, if any.
    pub quarantined_as: Vec<String>,
}

/// What [`Workspace::open_session`] found and did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RecoveryReport {
    /// Generation whose base was restored.
    pub generation: u64,
    /// Journaled operations replayed on top of the base (frame 0 itself
    /// not counted).
    pub ops_replayed: usize,
    /// Bytes of torn, corrupt, or unreplayable journal tail discarded
    /// (the journal file was truncated back to the valid prefix).
    pub bytes_discarded: u64,
    /// `true` when a tail was discarded.
    pub truncated: bool,
    /// Per-segment detail, in chain order.
    pub segments: Vec<SegmentRecovery>,
    /// The fencing token this open acquired (or found, when degraded).
    pub fencing_token: u64,
    /// `true` when this open took the lease over from a different
    /// (expired) owner, fencing that writer out.
    pub took_over: bool,
    /// Why the workspace opened read-only, when it did.
    pub degraded: Option<String>,
}

impl RecoveryReport {
    /// The report as a JSON object (for logs and tooling).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// `true` when any segment lost data to quarantine (as opposed to a
    /// plain torn-tail truncation).
    pub fn quarantined(&self) -> bool {
        self.segments.iter().any(|s| !s.quarantined_as.is_empty())
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "generation {}, {} journaled operation(s) replayed",
            self.generation, self.ops_replayed
        )?;
        if self.truncated {
            write!(
                f,
                "; {} byte(s) of torn tail discarded",
                self.bytes_discarded
            )?;
        }
        for seg in &self.segments {
            if !seg.quarantined_as.is_empty() {
                write!(
                    f,
                    "; segment {}: {} frame(s) quarantined as {}",
                    seg.name,
                    seg.frames_quarantined,
                    seg.quarantined_as.join(", ")
                )?;
            }
        }
        if let Some(reason) = &self.degraded {
            write!(f, "; opened read-only ({reason})")?;
        }
        Ok(())
    }
}

/// Picks an unused quarantine name for `name` under `dir`:
/// `name.quarantined-K` for the smallest free `K`. The suffix keeps the
/// file out of every manifest/journal naming scheme, so nothing ever
/// opens it as live data.
fn quarantine_target(fs: &Fs, dir: &Path, name: &str) -> String {
    for k in 0.. {
        let candidate = format!("{name}.quarantined-{k}");
        if !fs.exists(&dir.join(&candidate)) {
            return candidate;
        }
    }
    unreachable!("some quarantine index is free")
}

/// Preserves `bytes` (a damaged region of `name`) under a fresh
/// quarantine file, durably. Returns the quarantine file name.
pub(super) fn quarantine_bytes(
    fs: &Fs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> Result<String, StoreError> {
    let target = quarantine_target(fs, dir, name);
    let mut f = fs.create_truncate(&dir.join(&target))?;
    f.write_all(bytes)?;
    f.sync_all()?;
    fs.sync_dir(dir)?;
    Ok(target)
}

/// Renames a whole damaged file aside into quarantine, durably.
/// Returns the quarantine file name, or `None` when the file no longer
/// exists (a crashed earlier repair already moved it).
pub(super) fn quarantine_rename(
    fs: &Fs,
    dir: &Path,
    name: &str,
) -> Result<Option<String>, StoreError> {
    if !fs.exists(&dir.join(name)) {
        return Ok(None);
    }
    let target = quarantine_target(fs, dir, name);
    fs.rename(&dir.join(name), &dir.join(&target))?;
    fs.sync_dir(dir)?;
    Ok(Some(target))
}

/// Replays again, when recovery rebuilds a session after a later frame
/// failed, the `count` frames of `buf` after its first `from`: frames
/// that already replayed once onto the same state.
fn replay_again(
    session: &mut Session,
    buf: &[u8],
    from: usize,
    count: usize,
) -> Result<(), StoreError> {
    for payload in &frame_payloads(buf)[from..from + count] {
        decode_op(&buf[payload.clone()])?.replay(session)?;
    }
    Ok(())
}

impl Workspace {
    /// Opens the workspace at `root` and recovers its session:
    /// restores the generation's base (frame 0 of its first segment),
    /// replays the journal frames after it, and truncates any torn,
    /// corrupt, or unreplayable tail back to the last valid operation.
    /// Recovery never panics and never fails on a torn journal — only
    /// on I/O errors or a damaged MANIFEST or base, which were durable
    /// before anything named them and so are only damaged by media
    /// corruption; such an open changes nothing on disk. Nor does the
    /// open of a workspace in a layout the store no longer writes,
    /// which fails the same way.
    ///
    /// `registry_for` builds the tool registry for the restored schema
    /// (code cannot be persisted); pass
    /// `|s| hercules::encaps::odyssey_registry(s)` for the standard
    /// tool set.
    ///
    /// # Errors
    ///
    /// I/O errors; [`StoreError::Corrupt`] for a damaged or older-layout
    /// MANIFEST or a missing, torn or undecodable base; or a base whose
    /// own restore fails.
    pub fn open_session<F>(
        root: &Path,
        registry_for: F,
    ) -> Result<(Workspace, Session, RecoveryReport), StoreError>
    where
        F: FnOnce(&Arc<TaskSchema>) -> EncapsulationRegistry,
    {
        Workspace::open_session_in(root, registry_for, Env::real())
    }

    /// [`Workspace::open_session`] against an explicit environment —
    /// recovery over a simulated crash image runs through exactly this
    /// code path.
    ///
    /// # Errors
    ///
    /// As [`Workspace::open_session`].
    pub fn open_session_in<F>(
        root: &Path,
        registry_for: F,
        env: Env,
    ) -> Result<(Workspace, Session, RecoveryReport), StoreError>
    where
        F: FnOnce(&Arc<TaskSchema>) -> EncapsulationRegistry,
    {
        Workspace::open_session_as(root, registry_for, env, DEFAULT_OWNER, DEFAULT_LEASE_MS)
    }

    /// [`Workspace::open_session_in`] under an explicit lease identity:
    /// `owner` names this writer in the lease file and `lease_ms` sets
    /// the lease duration. When another owner holds an unexpired lease
    /// the workspace opens **degraded** (read-only) instead of failing;
    /// an expired foreign lease is taken over with a bumped fencing
    /// token, permanently fencing out the previous writer.
    ///
    /// # Errors
    ///
    /// As [`Workspace::open_session`].
    pub fn open_session_as<F>(
        root: &Path,
        registry_for: F,
        env: Env,
        owner: &str,
        lease_ms: u64,
    ) -> Result<(Workspace, Session, RecoveryReport), StoreError>
    where
        F: FnOnce(&Arc<TaskSchema>) -> EncapsulationRegistry,
    {
        let manifest = read_manifest(&env.fs, root)?;

        // Lease arbitration — pure reads, so a degraded open touches
        // nothing on disk. A lease held by the same owner is always
        // retaken (a crashed process must be able to reopen its own
        // store before the lease runs out).
        let now_ms = env.clock.wall_unix_ms();
        let lease = read_lease(&env.fs, root);
        let degraded_reason = match &lease {
            Some(l) if l.owner != owner && l.expires_unix_ms > now_ms => {
                Some(DegradedReason::LeaseHeld {
                    owner: l.owner.clone(),
                    expires_unix_ms: l.expires_unix_ms,
                })
            }
            _ => None,
        };
        let writable = degraded_reason.is_none();

        // The generation's base was durable before any MANIFEST named
        // the generation, so damage there is never a torn tail: fail
        // before touching anything.
        let segments = &manifest.segments;
        let first = env
            .fs
            .read(&root.join(&segments[0]))
            .map_err(|e| corrupt_base(format!("{}: {e}", segments[0])))?;
        let base = base_body(&segments[0], &first)?;
        let mut tail = SnapshotTail::new(base.len() as u64 + 8);
        let mut session = decode_base(base)?.restore_with(registry_for)?;
        let mut first = Some(first);

        // Scan and replay the segment chain in order, after the base;
        // the first frame that fails CRC, parse, or replay ends the
        // recovered prefix. The session state is then exactly the base
        // plus that prefix — a prefix of the acknowledged history.
        struct Damage {
            index: usize,
            keep: usize,
            readable: bool,
            buf: Vec<u8>,
        }
        let mut seg_reports: Vec<SegmentRecovery> = Vec::new();
        let mut ops_replayed = 0usize;
        let mut damage: Option<Damage> = None;
        // Free space at the end of the last segment: kept, and written
        // into by the reopened handle.
        let mut free = 0usize;
        for (i, name) in segments.iter().enumerate() {
            let buf = match first
                .take()
                .map_or_else(|| env.fs.read(&root.join(name)), Ok)
            {
                Ok(buf) => buf,
                Err(_) => {
                    // Missing, or a latent read error: the whole
                    // segment (and everything after it) is damage.
                    seg_reports.push(SegmentRecovery {
                        name: name.clone(),
                        frames_replayed: 0,
                        frames_quarantined: 0,
                        bytes_kept: 0,
                        bytes_discarded: 0,
                        quarantined_as: Vec::new(),
                    });
                    damage = Some(Damage {
                        index: i,
                        keep: 0,
                        readable: false,
                        buf: Vec::new(),
                    });
                    break;
                }
            };
            let frames = frame_payloads(&buf);
            let skip = usize::from(i == 0);
            let mut replayed_here = 0usize;
            for payload in &frames[skip..] {
                let Ok(op) = decode_op(&buf[payload.clone()]) else {
                    break;
                };
                if op.replay(&mut session).is_err() {
                    // The frame may have applied part of itself first
                    // (an `Exec` frame records its instances one by
                    // one), yet it must leave no trace: rebuild the
                    // session from the base and the frames that did
                    // replay.
                    let registry = session.executor_mut().registry().clone();
                    let head = env.fs.read(&root.join(&segments[0]))?;
                    session = decode_base(base_body(&segments[0], &head)?)?.restore(registry)?;
                    for (k, earlier) in seg_reports.iter().enumerate() {
                        let buf = env.fs.read(&root.join(&segments[k]))?;
                        let from = usize::from(k == 0);
                        replay_again(&mut session, &buf, from, earlier.frames_replayed)?;
                    }
                    replay_again(&mut session, &buf, skip, replayed_here)?;
                    break;
                }
                let frame = payload.len() as u64 + 8;
                tail.push(frame, matches!(op, JournalOp::Snapshot(_)));
                replayed_here += 1;
            }
            let keep = (skip + replayed_here)
                .checked_sub(1)
                .map_or(0, |j| frames[j].end);
            ops_replayed += replayed_here;
            free = free_tail(&buf[keep..], i + 1 == segments.len());
            let trailing = buf.len() - keep - free;
            seg_reports.push(SegmentRecovery {
                name: name.clone(),
                frames_replayed: replayed_here,
                frames_quarantined: 0,
                bytes_kept: keep as u64,
                bytes_discarded: trailing as u64,
                quarantined_as: Vec::new(),
            });
            if trailing > 0 {
                damage = Some(Damage {
                    index: i,
                    keep,
                    readable: true,
                    buf,
                });
                break;
            }
        }

        // Decide repair strategy. A pure torn tail at the end of the
        // *last* segment (no complete frame beyond the tear) truncates
        // losslessly, exactly as before segments existed. Anything
        // else — damage mid-chain, a hole with valid frames after it,
        // or an unreadable file — quarantines: the damaged bytes and
        // every later segment are preserved aside, never silently
        // dropped. The first segment is always kept: it holds the base.
        let mut kept_segments = segments.clone();
        let mut bytes_discarded: u64 = 0;
        if let Some(dmg) = &damage {
            let is_last = dmg.index + 1 == segments.len();
            let trailing = &dmg.buf[dmg.keep..];
            let needs_quarantine = !dmg.readable || !is_last || has_resync_frame(trailing);
            bytes_discarded += trailing.len() as u64;
            if writable {
                if needs_quarantine {
                    // Later segments first (reverse order), so a crash
                    // mid-repair always leaves a chain whose re-scan
                    // converges on the same prefix. Each row goes right
                    // after the damaged segment's, before the rows of
                    // the segments after it: the report keeps chain
                    // order.
                    for j in (dmg.index + 1..segments.len()).rev() {
                        let name = &segments[j];
                        let (frames, len) = match env.fs.read(&root.join(name)) {
                            Ok(buf) => (count_resync_frames(&buf), buf.len() as u64),
                            Err(_) => (0, 0),
                        };
                        let quarantined_as = quarantine_rename(&env.fs, root, name)?;
                        bytes_discarded += len;
                        seg_reports.insert(
                            dmg.index + 1,
                            SegmentRecovery {
                                name: name.clone(),
                                frames_replayed: 0,
                                frames_quarantined: frames,
                                bytes_kept: 0,
                                bytes_discarded: len,
                                quarantined_as: quarantined_as.into_iter().collect(),
                            },
                        );
                    }
                    let rep = &mut seg_reports[dmg.index];
                    if dmg.readable {
                        rep.frames_quarantined = count_resync_frames(trailing);
                        let q = quarantine_bytes(&env.fs, root, &segments[dmg.index], trailing)?;
                        rep.quarantined_as.push(q);
                        let mut f = env.fs.open_write(&root.join(&segments[dmg.index]))?;
                        f.set_len(dmg.keep as u64)?;
                        f.sync_all()?;
                        kept_segments.truncate(dmg.index + 1);
                    } else {
                        if let Some(q) = quarantine_rename(&env.fs, root, &segments[dmg.index])? {
                            rep.quarantined_as.push(q);
                        }
                        kept_segments.truncate(dmg.index);
                    }
                } else {
                    // Lossless torn-tail truncation.
                    let mut f = env.fs.open_write(&root.join(&segments[dmg.index]))?;
                    f.set_len(dmg.keep as u64)?;
                    f.sync_all()?;
                }
            }
        }

        // The generation's files as they now stand: every kept
        // segment's valid prefix, the base included (a repaired chain's
        // damage was truncated or moved aside above).
        let generation_bytes = seg_reports
            .iter()
            .filter(|s| kept_segments.contains(&s.name))
            .map(|s| s.bytes_kept)
            .sum::<u64>();

        let mut token = manifest.fencing_token;
        if writable {
            // Acquire the lease: bump the fencing token past everything
            // ever granted, persist it in the manifest (along with any
            // repairs), then publish the lease. A deposed writer
            // re-reading the lease sees a larger token and fences
            // itself.
            token = manifest
                .fencing_token
                .max(lease.as_ref().map(|l| l.token).unwrap_or(0))
                + 1;
            publish_manifest(&env.fs, root, manifest.generation, &kept_segments, token)?;
            write_lease(&env.fs, root, owner, now_ms + lease_ms, token)?;
        }

        let active_name = kept_segments.last().expect("chain is never empty").clone();
        let journal_path = root.join(&active_name);
        let (journal, active_len) = if writable {
            let handle = env.fs.open_write(&journal_path)?;
            let len = seg_reports
                .iter()
                .find(|s| s.name == active_name)
                .map(|s| s.bytes_kept)
                .unwrap_or(0);
            (Some(handle), len)
        } else {
            (None, 0)
        };
        // Only an undamaged chain ends in free space, so the active
        // segment is then the last one, and its file ends there.
        let allocated = active_len + free as u64;

        // A writable open over a foreign lease means that lease had
        // expired — this open fenced the previous writer out.
        let took_over = writable && lease.as_ref().map(|l| l.owner != owner).unwrap_or(false);
        let report = RecoveryReport {
            generation: manifest.generation,
            ops_replayed,
            bytes_discarded,
            truncated: bytes_discarded > 0,
            segments: seg_reports,
            fencing_token: token,
            took_over,
            degraded: degraded_reason.as_ref().map(|r| r.to_string()),
        };
        let workspace = Workspace {
            root: root.to_owned(),
            generation: manifest.generation,
            journal,
            journal_path,
            segments: kept_segments,
            pending: Vec::new(),
            active_len,
            allocated,
            generation_bytes,
            tail,
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            metrics: Metrics::disabled(),
            hot: StoreMetrics::default(),
            env,
            poisoned: None,
            write_state: match degraded_reason {
                None => WriteState::Writable,
                Some(reason) => WriteState::Degraded(reason),
            },
            owner: owner.to_owned(),
            lease_ms,
            token,
            lease_expires_ms: if writable { now_ms + lease_ms } else { 0 },
        };
        // Replay went through the session's marking methods, yet the
        // recovered session is exactly what the generation holds.
        session.mark_journaled();
        Ok((workspace, session, report))
    }
}
