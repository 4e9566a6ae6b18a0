//! Generations: the MANIFEST that names the current one and its
//! segment chain, its base in frame 0, and the checkpoint, rotation and
//! segment-roll paths that start generations and segments.

use std::path::Path;

use hercules_obs::names;
use hercules_sim::{Fs, FsFile};
use serde::{Deserialize, Serialize};

use super::frame::{decode_op, encode_frame, encode_op, frame_payloads};
use super::{journal_missing, JournalOp, StoreError, Workspace};
use crate::persist::SessionSpec;
use crate::session::Session;

/// How many times the newest snapshot a generation's files may hold
/// before a checkpoint rotates instead of appending. An appended
/// snapshot supersedes everything before it, yet the next `open` still
/// reads and replays the whole generation, so the factor trades
/// open-time work and disk space for checkpoint-time syncs: at 4, about
/// three appended snapshots of one sync each share a rotation's four
/// syncs, while `open` reads, and the directory keeps, at most four
/// snapshots' worth. A constant, not a setting.
pub(super) const ROTATE_FACTOR: u64 = 4;

/// Encodes `session` once, as the [`JournalOp::Snapshot`] frame that a
/// checkpoint appends or a new generation starts with.
///
/// # Errors
///
/// [`StoreError::Format`] when the snapshot exceeds the 4 GiB frame
/// limit.
pub(super) fn snapshot_frame(session: &Session) -> Result<Vec<u8>, StoreError> {
    encode_op(&JournalOp::Snapshot(Box::new(SessionSpec::from_session(
        session,
    ))))
}

/// The MANIFEST file name.
pub(super) const MANIFEST_FILE: &str = "MANIFEST";

/// The workspace manifest: which generation is current, its segment
/// chain, and the highest fencing token ever granted. Swapped
/// atomically so it always names a complete generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    pub(crate) generation: u64,
    /// Every journal segment of this generation, oldest first; the last
    /// is the active one. Never empty.
    pub(crate) segments: Vec<String>,
    /// Monotonic fencing token: bumped every time a writer acquires the
    /// lease. A deposed writer's token is smaller, so its writes are
    /// rejected after takeover.
    pub(crate) fencing_token: u64,
}

/// Reads MANIFEST: one valid CRC frame spanning the whole file, whose
/// body is the manifest's JSON document.
///
/// # Errors
///
/// [`StoreError::Io`] when MANIFEST cannot be read, and
/// [`StoreError::Corrupt`] when it is not one frame holding a manifest
/// that names a segment.
pub(crate) fn read_manifest(fs: &Fs, dir: &Path) -> Result<Manifest, StoreError> {
    let bytes = fs.read(&dir.join(MANIFEST_FILE))?;
    let corrupt = |detail: String| StoreError::Corrupt {
        detail: format!("{MANIFEST_FILE}: {detail}"),
    };
    let doc = match &frame_payloads(&bytes)[..] {
        [payload] if payload.end == bytes.len() => &bytes[payload.clone()],
        _ => return Err(corrupt("not one CRC frame".into())),
    };
    let manifest: Manifest = serde_json::from_slice(doc).map_err(|e| corrupt(e.to_string()))?;
    if manifest.segments.is_empty() {
        return Err(corrupt("names no journal segment".into()));
    }
    Ok(manifest)
}

/// The generation's base, undecoded: frame 0's body in `first`, the
/// bytes of its first segment `name`.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when `first` starts with no CRC-valid frame.
pub(crate) fn base_body<'a>(name: &str, first: &'a [u8]) -> Result<&'a [u8], StoreError> {
    match frame_payloads(first).into_iter().next() {
        Some(frame) => Ok(&first[frame]),
        None => Err(corrupt_base(format!("{name} holds no valid frame 0"))),
    }
}

/// Decodes frame 0's `body` as the generation's base snapshot.
///
/// # Errors
///
/// [`StoreError::Corrupt`] unless it decodes to a [`JournalOp::Snapshot`].
pub(crate) fn decode_base(body: &[u8]) -> Result<SessionSpec, StoreError> {
    match decode_op(body) {
        Ok(JournalOp::Snapshot(spec)) => Ok(*spec),
        Ok(_) => Err(corrupt_base("frame 0 is not a snapshot".to_owned())),
        Err(e) => Err(corrupt_base(e.to_string())),
    }
}

/// The error for a missing or undecodable generation base.
pub(super) fn corrupt_base(detail: String) -> StoreError {
    StoreError::Corrupt {
        detail: format!("generation base: {detail}"),
    }
}

/// How [`Workspace::checkpoint`] made the session durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// The snapshot was appended to the current generation's journal as
    /// a [`JournalOp::Snapshot`] frame.
    Appended,
    /// The snapshot was written as frame 0, the base, of a new
    /// generation, retiring the old one.
    Rotated,
    /// No snapshot was written: the generation's journal already held
    /// every change of the session, after a snapshot frame and with
    /// less than that snapshot's bytes of frames since. Only pending
    /// frames were synced.
    Synced,
}

/// The newest snapshot frame of a generation's journal and the frame
/// bytes after it: what tells a checkpoint whether replaying the
/// journal still beats writing a new snapshot.
#[derive(Debug, Clone, Copy)]
pub(super) struct SnapshotTail {
    /// Bytes of the newest snapshot frame, header included: the base,
    /// until a checkpoint appends one.
    pub(super) snapshot: u64,
    /// Bytes of the frames after it, pending ones included.
    pub(super) since: u64,
}

impl SnapshotTail {
    /// The tail of a generation whose newest snapshot is the last frame.
    pub(super) fn new(snapshot: u64) -> SnapshotTail {
        SnapshotTail { snapshot, since: 0 }
    }

    /// Accounts for one more `frame`-byte frame at the journal's end.
    pub(super) fn push(&mut self, frame: u64, is_snapshot: bool) {
        if is_snapshot {
            *self = SnapshotTail::new(frame);
        } else {
            self.since += frame;
        }
    }

    /// Whether a checkpoint must write a snapshot even for a fully
    /// journaled session: replaying the frames since the newest one
    /// would read at least as many bytes as a new one.
    pub(super) fn needs_snapshot(&self) -> bool {
        self.since >= self.snapshot
    }
}

/// Writes `name` under `dir` atomically: temp file, fsync, rename,
/// directory fsync. Readers see either the old file or the new one,
/// never a torn mixture. All I/O goes through `fs`, so under
/// simulation a crash can land between any two of these steps.
pub(super) fn write_atomic(
    fs: &Fs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = fs.create_truncate(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs.rename(&tmp, &dir.join(name))?;
    fs.sync_dir(dir)?;
    Ok(())
}

/// Creates journal segment `name` under `dir` holding `frames`, and
/// makes its contents and its directory entry durable, returning its
/// write handle. A MANIFEST may name a segment only after this
/// returns: otherwise a crash can keep the manifest swap but lose the
/// segment, leaving a manifest that points at nothing.
fn create_segment(
    fs: &Fs,
    dir: &Path,
    name: &str,
    frames: &[u8],
) -> Result<Box<dyn FsFile>, StoreError> {
    let mut file = fs.create_truncate(&dir.join(name))?;
    file.write_all(frames)?;
    file.sync_all()?;
    fs.sync_dir(dir)?;
    Ok(file)
}

/// Starts generation `generation` under `dir`: creates its head
/// segment `journal-N.log` holding `base`, the session's snapshot frame,
/// makes it durable, then swaps in the MANIFEST naming it under
/// `fencing_token`. Returns the head segment's write handle. A crash
/// anywhere before the MANIFEST rename leaves the previous MANIFEST,
/// and every file it names, untouched.
pub(super) fn start_generation(
    fs: &Fs,
    dir: &Path,
    generation: u64,
    base: &[u8],
    fencing_token: u64,
) -> Result<Box<dyn FsFile>, StoreError> {
    let head = segment_name(generation, 0);
    let journal = create_segment(fs, dir, &head, base)?;
    publish_manifest(fs, dir, generation, &[head], fencing_token)?;
    Ok(journal)
}

/// Deletes the `files` of a generation a MANIFEST swap just retired,
/// never quarantine files. Best-effort — a crash or error here leaves
/// harmless orphans.
pub(super) fn retire<'a>(fs: &Fs, dir: &Path, files: impl IntoIterator<Item = &'a String>) {
    for file in files {
        let _ = fs.remove_file(&dir.join(file));
    }
}

/// Atomically swaps in the MANIFEST naming the segment chain `segments`
/// (oldest first; the last is the active journal) of `generation`,
/// under `fencing_token`, as one CRC frame. Every file it names must
/// already be durable (see [`create_segment`]).
pub(super) fn publish_manifest(
    fs: &Fs,
    dir: &Path,
    generation: u64,
    segments: &[String],
    fencing_token: u64,
) -> Result<(), StoreError> {
    let manifest = Manifest {
        generation,
        segments: segments.to_vec(),
        fencing_token,
    };
    let frame = encode_frame(serde_json::to_string(&manifest)?.as_bytes())?;
    write_atomic(fs, dir, MANIFEST_FILE, &frame)
}

/// Name of journal segment `seq` of `generation`: `journal-N.log` for
/// the head, `journal-N.K.log` after it.
pub(super) fn segment_name(generation: u64, seq: u64) -> String {
    if seq == 0 {
        format!("journal-{generation}.log")
    } else {
        format!("journal-{generation}.{seq}.log")
    }
}

/// Parses a [`segment_name`] back into `(generation, sequence)`.
pub(crate) fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("journal-")?.strip_suffix(".log")?;
    match rest.split_once('.') {
        None => rest.parse().ok().map(|generation| (generation, 0)),
        Some((generation, seq)) => Some((generation.parse().ok()?, seq.parse().ok()?)),
    }
}

/// Whether `name` looks like a generation's file: a journal segment.
pub(crate) fn is_generation_file(name: &str) -> bool {
    name.starts_with("journal-") && name.ends_with(".log")
}

impl Workspace {
    /// Rolls the active segment once it has reached the size bound:
    /// starts `journal-G.K.log` and publishes the grown chain in the
    /// MANIFEST. Runs only after a flush, so a batch never straddles
    /// two segments. A segment it seals never ends in free space, which
    /// recovery would read as damage: the flush's padding stops at the
    /// bound, and free space left by a bound lowered after the padding
    /// is cut off first.
    pub(super) fn maybe_roll(&mut self) -> Result<(), StoreError> {
        if self.active_len < self.segment_max_bytes {
            return Ok(());
        }
        self.check_writable()?;
        if self.allocated > self.active_len {
            let journal = self.journal.as_mut().ok_or_else(journal_missing)?;
            journal.set_len(self.active_len)?;
            journal.sync_all()?;
        }
        let name = segment_name(self.generation, self.segments.len() as u64);
        let file = create_segment(&self.env.fs, &self.root, &name, &[])?;
        let path = self.root.join(&name);
        let mut segments = self.segments.clone();
        segments.push(name);
        publish_manifest(
            &self.env.fs,
            &self.root,
            self.generation,
            &segments,
            self.token,
        )?;
        self.segments = segments;
        self.journal = Some(file);
        self.journal_path = path;
        self.active_len = 0;
        self.allocated = 0;
        self.metrics.incr(names::STORE_SEGMENT_ROLLS, 1);
        Ok(())
    }

    /// Takes a checkpoint of `session` by the cheapest of three routes.
    ///
    /// - **Sync** (the common case): when the session holds no
    ///   unjournaled state ([`Session::has_unjournaled_changes`]) and
    ///   the frames since the generation's newest snapshot frame (its
    ///   base, at first) are smaller than it, the journal stands in for
    ///   a snapshot. Only the pending frames are synced — nothing at
    ///   all when none is pending.
    /// - **Append**: otherwise the session is encoded once, and the
    ///   snapshot becomes one [`JournalOp::Snapshot`] frame of the
    ///   active segment, written and fsynced through the journal's one
    ///   write path together with any deferred frames — one `write`,
    ///   one `fdatasync`.
    /// - **Rotate**, when keeping the snapshot would leave the
    ///   generation's frames larger than four times it, or
    ///   when the handle is poisoned: starts `journal-(N+1)` holding the
    ///   snapshot as its frame 0, swaps the manifest, then deletes the
    ///   old generation's files (best-effort — a crash between the
    ///   manifest swap and the deletes leaves harmless orphans). The
    ///   fresh generation clears the poison.
    ///
    /// After any checkpoint the frames after the newest snapshot hold
    /// fewer bytes than it, so `open` replays at most that much on top
    /// of it; a generation's frames exceed four times its newest
    /// snapshot only by those frames, and its files exceed its frames
    /// by at most one chunk of free space (64 KiB).
    ///
    /// # Errors
    ///
    /// I/O and serialization errors, a snapshot over the 4 GiB frame
    /// limit ([`StoreError::Format`]), or a lost lease
    /// ([`StoreError::Degraded`]). An append that fails poisons the
    /// handle like any failed journal write; a rotation that fails
    /// leaves the old generation intact and current.
    pub fn checkpoint(&mut self, session: &Session) -> Result<CheckpointKind, StoreError> {
        self.check_writable()?;
        if self.poisoned.is_none()
            && !session.has_unjournaled_changes()
            && !self.tail.needs_snapshot()
        {
            self.sync()?;
            return Ok(CheckpointKind::Synced);
        }
        let frame = snapshot_frame(session)?;
        let len = frame.len() as u64;
        if self.poisoned.is_some() || self.generation_bytes + len > ROTATE_FACTOR * len {
            self.rotate(frame)?;
            return Ok(CheckpointKind::Rotated);
        }
        self.defer_frame(frame);
        self.sync()?;
        self.tail = SnapshotTail::new(len);
        self.record_checkpoint(len);
        Ok(CheckpointKind::Appended)
    }

    /// Makes the snapshot `frame` the base of a new generation: flushes
    /// the pending frames into the old one, starts the next generation
    /// with the snapshot as its frame 0, and retires the old generation
    /// once the MANIFEST swap is durable. A poisoned handle is healed:
    /// the torn tail behind the poison lies in the retired generation,
    /// and the new head segment is clean.
    pub(super) fn rotate(&mut self, frame: Vec<u8>) -> Result<(), StoreError> {
        // Pending frames belong to the old generation, which stays
        // current until the manifest swap.
        self.flush()?;
        let next = self.generation + 1;
        let journal = start_generation(&self.env.fs, &self.root, next, &frame, self.token)?;
        self.poisoned = None;
        retire(&self.env.fs, &self.root, &self.segments);
        let len = frame.len() as u64;
        self.generation = next;
        self.journal = Some(journal);
        self.segments = vec![segment_name(next, 0)];
        self.journal_path = self.root.join(&self.segments[0]);
        self.active_len = len;
        self.allocated = len;
        self.generation_bytes = len;
        self.tail = SnapshotTail::new(len);
        self.metrics.incr(names::STORE_ROTATIONS, 1);
        self.record_checkpoint(len);
        Ok(())
    }

    /// Counts one completed checkpoint of a `frame`-byte snapshot.
    fn record_checkpoint(&self, frame: u64) {
        self.metrics.incr(names::STORE_CHECKPOINTS, 1);
        self.metrics.observe("store.checkpoint_bytes", frame);
    }
}
