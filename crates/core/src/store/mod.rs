//! Crash-safe durable workspace: an append-only, checksummed journal of
//! session mutations whose every generation starts from a snapshot
//! frame, with torn-write recovery and resumable execution.
//!
//! # On-disk layout
//!
//! A workspace is a directory holding:
//!
//! - `MANIFEST` — one CRC frame (format below) whose JSON payload names
//!   the current generation, its journal segments, oldest first, and
//!   the highest fencing token ever granted. Swapped atomically (temp
//!   file + fsync + rename + directory fsync), so it always names a
//!   complete generation.
//! - `journal-N.log`, `journal-N.1.log`, … — generation `N`'s segments:
//!   sequences of frames, written in order; the last one, the active
//!   segment, may end in free space (below). Frame 0 of the first
//!   segment is the generation's base, a [`JournalOp::Snapshot`] of the
//!   whole session, synced before any MANIFEST names the generation.
//!   Every later frame is one mutating UI command (or an appended
//!   snapshot), fsynced before the command's result is reported, so an
//!   acknowledged command survives power loss.
//! - `LEASE` — the writer lease (owner, expiry, fencing token). It holds
//!   no session state, so it stays plain JSON: a damaged lease can only
//!   delay or force a takeover, which the MANIFEST's fencing token
//!   arbitrates.
//!
//! Every byte of session state on disk is thus inside a CRC frame, and
//! this is the only layout `open` reads. A workspace in an older layout
//! — a plain-JSON MANIFEST, or a frame 0 whose body is JSON — fails
//! `open` with [`StoreError::Corrupt`], and the failing open writes
//! nothing.
//!
//! [`Workspace::checkpoint`] writes a snapshot only when the journal
//! cannot stand in for one. Every [`Ui`](crate::ui::Ui) command is
//! journaled before it is acknowledged, so a snapshot adds durability
//! only for state the journal lacks
//! ([`Session::has_unjournaled_changes`]); otherwise it only bounds
//! replay. A checkpoint appends the session snapshot to the journal as
//! one [`JournalOp::Snapshot`] frame — one `write` and one `fsync` —
//! when the session holds unjournaled state, or when the frames since
//! the newest snapshot (the base, at first) hold at least as many bytes
//! as it. Otherwise it only syncs the pending frames, if any. So after
//! any checkpoint, `open` replays at most one snapshot's worth of frames
//! after the newest snapshot. A new generation (head segment holding
//! the snapshot, MANIFEST swap, old generation retired) starts only
//! when a snapshot would leave the generation's frames larger than
//! four times itself (`ROTATE_FACTOR`).
//!
//! # Frame format
//!
//! ```text
//! [body length: u32 LE][CRC32(body): u32 LE][body]
//! ```
//!
//! A body is never empty: a zero-length frame is invalid, since the
//! CRC32 of no bytes is 0 and zeros would otherwise scan as endless
//! empty frames. A journal frame's body is one [`JournalOp`], in the
//! layout only [`encode_op`] writes and only [`decode_op`] reads:
//!
//! ```text
//! [0xFF][JSON length: u32 LE][JSON]
//! [payload count: u32 LE][payload length: u32 LE]…[payload bytes]…
//! ```
//!
//! The JSON is the operation's, with every inline payload left as an
//! empty placeholder; the payloads follow raw, in document order (an
//! execution's records, or a snapshot's history records), so the design
//! data stays opaque bytes while its meta-data stays readable JSON.
//! Shared payloads ([`Payload::Shared`](hercules_history::Payload::Shared))
//! stay in the JSON. A body that does not start with the marker byte is
//! unparsable, and so is one that does not account for every byte of
//! every section. MANIFEST is one frame whose body is its JSON document.
//!
//! The CRC is IEEE 802.3 (the zlib/PNG polynomial), computed by
//! [`hercules_digest::crc32`], which also frames cache entries; it
//! covers every payload byte. A frame whose length field is zero or runs
//! past end-of-file, or whose checksum does not match, ends the valid
//! prefix. The zeros that run from there to the end of the last segment
//! are its free space: recovery keeps them and the reopened handle
//! writes into them. Any other bytes there — one non-zero byte among
//! the zeros, or zeros at the end of any other segment — are a torn
//! tail: recovery truncates the file back to the last valid frame,
//! reports how many bytes were discarded, and never panics or fails on
//! any prefix of a well-formed journal. Recovery, [`Workspace::scrub`]
//! and herclint's HL0406 classify these bytes by one rule, which
//! [`scan_frames`] applies to a journal's last segment. A damaged base
//! is never a torn tail, since it was synced before the generation
//! existed: `open` fails with [`StoreError::Corrupt`] and changes
//! nothing on disk.
//!
//! # Write path
//!
//! Every frame of session state goes through [`encode_op`]: each
//! command's, and each snapshot's (`save`, appended and rotating
//! checkpoints, and the re-base of `scrub`). It
//! serializes the operation's JSON without its payloads, copies each
//! inline payload once, into the frame, and fills the 8-byte header in
//! place. The journal has one write path. [`Workspace::append_deferred`]
//! encodes a frame directly into the handle's pending buffer, which
//! the handle reuses from write to write, so a command's frame lands in
//! memory that earlier frames already touched; [`Workspace::sync`]
//! writes every pending frame with one `write` at the active segment's
//! write position and makes them durable with one `fsync`, then rolls
//! the segment once it reaches its size bound. [`Workspace::append`] is
//! the two in sequence, so one command costs one `write` + one `fsync`,
//! and a caller that acknowledges several operations at once pays one
//! `fsync` for all of them. A batch under 64 KiB that would grow the
//! file carries zeros after it in the same `write`, up to 64 KiB past
//! its end but not past the segment's size bound, so the commands after
//! it overwrite allocated bytes, whose `fsync` commits no new file
//! size. Larger batches and the snapshot frame a new segment starts
//! with are written unpadded, and the generation's byte counts
//! (rotation, segment rolls) count frames, not free space. A
//! failed write or `fsync` poisons the handle: the tail may end in a
//! torn frame, so every later append fails instead of landing behind
//! it, where recovery could not reach it.
//!
//! # Guarantees (and non-guarantees)
//!
//! - Every operation acknowledged before a crash is replayed on open;
//!   an operation interrupted mid-write is discarded cleanly. State
//!   after recovery is always a *prefix* of the acknowledged history.
//! - Instances and execution reports are journaled *extensionally*
//!   (the recorded products, not the tool invocations), so replay
//!   never re-runs tools and cannot diverge on nondeterministic ones.
//! - Only mutations made through [`Ui`](crate::ui::Ui) commands are
//!   journaled. Direct [`Session::db_mut`] edits bypass the journal;
//!   take a [`Workspace::checkpoint`] after making any. The edit marks
//!   the session as holding unjournaled state, so that checkpoint
//!   writes a snapshot, which captures the whole session.
//! - Not forward compatible: a binary that predates raw frame bodies
//!   fails `open` on a base written in them with
//!   [`StoreError::Corrupt`], changing nothing, and quarantines such
//!   frames when they follow a base it can read. A binary that
//!   predates free space reads it as empty frames and quarantines it,
//!   though it replays every frame before it.
//!
//! After reopening, [`Session::resume`] re-runs only the failed and
//! skipped subtasks of an interrupted partial execution, serving the
//! already committed ones from the design history as cache hits.

mod frame;
mod generation;
mod lease;
mod recovery;
mod scrub;

use std::fmt;
use std::path::{Path, PathBuf};

use hercules_flow::NodeId;
use hercules_history::{InstanceId, InstanceSpec};
use hercules_obs::{names, Histogram, Metrics};
use hercules_sim::{Env, FsFile};
use serde::{Deserialize, Serialize};

use crate::error::HerculesError;
use crate::persist::{ExecReportSpec, FlowOp, SessionSpec};
use crate::session::{ExecEvent, Session};

pub use frame::{decode_op, encode_frame, encode_op, scan_frames, FrameScan};
pub use generation::CheckpointKind;
pub use lease::{DegradedReason, WriteState};
pub use recovery::{RecoveryReport, SegmentRecovery};
pub use scrub::{ScrubReport, SegmentScrub};

pub(crate) use frame::scan_segment;
pub(crate) use generation::{
    base_body, decode_base, is_generation_file, parse_segment_name, read_manifest, Manifest,
};
pub(crate) use lease::{read_lease, LEASE_FILE};

use frame::encode_op_into;
use generation::{retire, segment_name, snapshot_frame, start_generation, SnapshotTail};
use lease::{write_lease, DEFAULT_LEASE_MS, DEFAULT_OWNER};

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Errors from the durable store.
#[derive(Debug)]
#[allow(missing_docs)] // variant payloads are the wrapped errors
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is damaged beyond recovery, or in a layout the store no
    /// longer reads (the MANIFEST or a generation's base — the journal
    /// after the base is always recoverable by truncation).
    Corrupt { detail: String },
    /// A document failed to serialize or deserialize.
    Format(String),
    /// Restoring or replaying into the session failed.
    Session(HerculesError),
    /// The workspace is open read-only; the mutation was rejected.
    Degraded(DegradedReason),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt { detail } => write!(f, "corrupt store: {detail}"),
            StoreError::Format(detail) => write!(f, "bad document: {detail}"),
            StoreError::Session(e) => write!(f, "session error: {e}"),
            StoreError::Degraded(reason) => write!(f, "workspace is read-only: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> StoreError {
        StoreError::Format(e.to_string())
    }
}

impl From<HerculesError> for StoreError {
    fn from(e: HerculesError) -> StoreError {
        StoreError::Session(e)
    }
}

impl From<StoreError> for HerculesError {
    fn from(e: StoreError) -> HerculesError {
        HerculesError::Store {
            message: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// Journal operations.
// ---------------------------------------------------------------------

/// The extensional record of one execution (`run`, `resume`, or
/// `retrace`): the instances it committed, the report it left behind,
/// and the event it logged. Replay records the products directly —
/// tools are never re-run during recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecSpec {
    /// Instances the execution committed, in creation order.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub instances: Vec<InstanceSpec>,
    /// The report, when the operation replaced the session's last
    /// report (`run`/`resume`; `retrace` leaves it untouched).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub report: Option<ExecReportSpec>,
    /// The event the operation appended to the log, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub event: Option<ExecEvent>,
}

/// One journaled session mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A flow-construction step (goal/tool/plan starts, expand,
    /// unexpand, specialize).
    Flow(FlowOp),
    /// A data-based start: seed from an existing instance and bind it.
    DataStart {
        /// Raw id of the seeding instance.
        instance: u64,
    },
    /// Instances selected for a leaf node.
    Select {
        /// Node index.
        node: usize,
        /// Raw instance ids bound to the node.
        instances: Vec<u64>,
    },
    /// Auto-bind every unbound leaf to the newest instance. Safe to
    /// journal intensionally: replay evolves the database identically,
    /// so "newest" resolves to the same instances.
    BindLatest,
    /// The current flow stored into the catalog.
    StoreFlow {
        /// Catalog name.
        name: String,
        /// Catalog description.
        description: String,
    },
    /// The flow under construction abandoned.
    Clear,
    /// An execution's committed effects (extensional).
    Exec(ExecSpec),
    /// A whole-session snapshot: frame 0 of every generation, its base,
    /// and the frame [`Workspace::checkpoint`] appends. Its shared
    /// payloads name earlier records of this snapshot. Replaying it
    /// replaces the session; after an appended one the state equals the
    /// state before it.
    Snapshot(Box<SessionSpec>),
}

impl JournalOp {
    /// Replays this operation into `session`.
    ///
    /// # Errors
    ///
    /// Validation errors from the session; on a faithfully journaled
    /// sequence these indicate corruption, and recovery treats the
    /// failing operation as the start of a corrupt tail.
    pub fn replay(&self, session: &mut Session) -> Result<(), HerculesError> {
        match self {
            JournalOp::Flow(op) => op.replay(session)?,
            JournalOp::DataStart { instance } => {
                session.start_from_data(InstanceId::from_raw(*instance))?;
            }
            JournalOp::Select { node, instances } => {
                let ids: Vec<InstanceId> = instances
                    .iter()
                    .map(|&raw| InstanceId::from_raw(raw))
                    .collect();
                session.select_many(NodeId::from_index(*node), &ids);
            }
            JournalOp::BindLatest => {
                session.bind_latest()?;
            }
            JournalOp::StoreFlow { name, description } => {
                session.store_flow(name, description)?;
            }
            JournalOp::Clear => session.clear_flow(),
            JournalOp::Exec(spec) => {
                for instance in &spec.instances {
                    instance.replay(session.db_mut())?;
                }
                if let Some(report) = &spec.report {
                    session.set_last_report(Some(report.restore()));
                }
                if let Some(event) = &spec.event {
                    session.push_event(event.clone());
                }
            }
            JournalOp::Snapshot(spec) => {
                let registry = session.executor_mut().registry().clone();
                *session = spec.restore(registry)?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The workspace.
// ---------------------------------------------------------------------

/// Default segment-roll threshold. Large enough that rotation never
/// triggers unless a caller opts in via
/// [`Workspace::set_segment_max_bytes`].
const DEFAULT_SEGMENT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// How much zeroed space a journal write that would grow the active
/// segment allocates past its frames, in the same `write` and under the
/// same `fdatasync`. The commands after it overwrite bytes that are
/// already allocated and synced, so their `fdatasync` commits no new
/// file size, which costs less. At 64 KiB one extension holds a typical
/// editing session's commands; at 4 KiB the extensions came often
/// enough to cost half the gain. A batch this large or larger is
/// written as it is. A constant, not a setting.
const PREALLOC_CHUNK: u64 = 64 * 1024;

/// The most pending-buffer capacity a handle keeps once its frames are
/// written. A flush of smaller batches leaves the buffer allocated, so
/// the next command encodes into memory that is already faulted in; a
/// larger batch, such as a big snapshot, is freed once written. Four
/// chunks hold a batch padded by one chunk of free space, with room
/// to spare.
const PENDING_KEEP: usize = 4 * PREALLOC_CHUNK as usize;

/// The error for write paths reached without a journal handle (only
/// possible in degraded mode, which rejects them earlier).
fn journal_missing() -> StoreError {
    StoreError::Io(std::io::Error::other(
        "no journal handle (workspace is read-only)",
    ))
}

/// The histograms every append and sync updates, resolved once.
#[derive(Debug, Default)]
struct StoreMetrics {
    append_bytes: Histogram,
    fsync_ns: Histogram,
}

/// A durable workspace directory: the current journal handle plus the
/// generation bookkeeping. Create one with [`Workspace::create`], or
/// recover one (plus its session) with [`Workspace::open_session`].
pub struct Workspace {
    root: PathBuf,
    generation: u64,
    /// Append handle to the active segment. `None` only in degraded
    /// mode, where no mutation may touch the disk.
    journal: Option<Box<dyn FsFile>>,
    journal_path: PathBuf,
    /// Journal segments of the current generation, oldest first; the
    /// last one is the active segment `journal` points at.
    segments: Vec<String>,
    /// Encoded frames appended since the last flush, not yet written.
    /// Cleared, not freed, by a flush, up to [`PENDING_KEEP`] bytes of
    /// capacity.
    pending: Vec<u8>,
    /// Bytes appended to the active segment so far, pending ones
    /// included. The next flush writes its frames so that they end
    /// here.
    active_len: u64,
    /// Bytes of the active segment's file: its written frames, then any
    /// free space, the zeros a flush padded its write with.
    allocated: u64,
    /// Bytes of the current generation's files — every segment, the
    /// base included, pending frames too. A checkpoint rotates
    /// once keeping its snapshot would take this past
    /// [`ROTATE_FACTOR`] times the snapshot.
    generation_bytes: u64,
    /// The current generation's newest snapshot frame and the frames
    /// since: whether a checkpoint of a fully journaled session must
    /// still write a snapshot.
    tail: SnapshotTail,
    /// Roll the active segment once it reaches this size.
    segment_max_bytes: u64,
    metrics: Metrics,
    /// `metrics`'s per-append histograms, resolved once by
    /// [`Workspace::set_metrics`].
    hot: StoreMetrics,
    env: Env,
    /// Sticky poison: once a journal write or fsync fails the tail may
    /// be torn mid-frame, so every later append or sync fails with this
    /// error instead of writing past the hole.
    poisoned: Option<String>,
    /// Whether this handle may write; sticky once degraded.
    write_state: WriteState,
    /// Owner id this handle leases (and renews) the store under.
    owner: String,
    /// Lease duration for acquire and renew.
    lease_ms: u64,
    /// This handle's fencing token (0 when degraded at open).
    token: u64,
    /// Cached lease expiry — renewal I/O happens only past this.
    lease_expires_ms: u64,
}

impl fmt::Debug for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workspace")
            .field("root", &self.root)
            .field("generation", &self.generation)
            .field("journal_path", &self.journal_path)
            .field("segments", &self.segments)
            .field("pending_bytes", &self.pending.len())
            .field("poisoned", &self.poisoned)
            .field("write_state", &self.write_state)
            .field("token", &self.token)
            .finish_non_exhaustive()
    }
}

impl Workspace {
    /// Creates a workspace at `root` (the directory is created if
    /// missing) whose journal holds only `session`'s snapshot, as frame
    /// 0, in the real environment. A fresh directory starts at generation
    /// 0; over an existing workspace the new session becomes the
    /// generation after the current one, which is then retired, so a
    /// crash mid-create recovers one session or the other, never a mix.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors.
    pub fn create(root: &Path, session: &Session) -> Result<Workspace, StoreError> {
        Workspace::create_in(root, session, Env::real())
    }

    /// [`Workspace::create`] against an explicit environment — pass a
    /// [`SimEnv`](hercules_sim::SimEnv)'s `env()` to run the store on a
    /// simulated disk and virtual clock.
    ///
    /// # Errors
    ///
    /// I/O and serialization errors.
    pub fn create_in(root: &Path, session: &Session, env: Env) -> Result<Workspace, StoreError> {
        env.fs.create_dir_all(root)?;
        // Respect a live foreign lease even on create: re-initializing
        // a directory out from under its writer is the worst possible
        // split-brain.
        let now_ms = env.clock.wall_unix_ms();
        let prior_lease = read_lease(&env.fs, root);
        if let Some(lease) = &prior_lease {
            if lease.owner != DEFAULT_OWNER && lease.expires_unix_ms > now_ms {
                return Err(StoreError::Degraded(DegradedReason::LeaseHeld {
                    owner: lease.owner.clone(),
                    expires_unix_ms: lease.expires_unix_ms,
                }));
            }
        }
        // Never write a file the current MANIFEST names: a crash
        // mid-create would otherwise pair this session's base with the
        // old journal. Start the generation after it instead, and
        // retire the old one once the MANIFEST swap is durable.
        let prior = read_manifest(&env.fs, root).ok();
        let prior_token = prior
            .as_ref()
            .map_or(0, |m| m.fencing_token)
            .max(prior_lease.map_or(0, |l| l.token));
        let token = prior_token + 1;
        let generation = prior.as_ref().map_or(0, |m| m.generation + 1);
        let base = snapshot_frame(session)?;
        let journal = start_generation(&env.fs, root, generation, &base, token)?;
        if let Some(old) = &prior {
            retire(&env.fs, root, &old.segments);
        }
        let expires = now_ms + DEFAULT_LEASE_MS;
        write_lease(&env.fs, root, DEFAULT_OWNER, expires, token)?;
        let segments = vec![segment_name(generation, 0)];
        let len = base.len() as u64;
        Ok(Workspace {
            root: root.to_owned(),
            generation,
            journal: Some(journal),
            journal_path: root.join(&segments[0]),
            segments,
            pending: Vec::new(),
            active_len: len,
            allocated: len,
            generation_bytes: len,
            tail: SnapshotTail::new(len),
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            metrics: Metrics::disabled(),
            hot: StoreMetrics::default(),
            env,
            poisoned: None,
            write_state: WriteState::Writable,
            owner: DEFAULT_OWNER.into(),
            lease_ms: DEFAULT_LEASE_MS,
            token,
            lease_expires_ms: expires,
        })
    }

    /// Returns the workspace directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Returns the current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The journal segment chain of the current generation, oldest
    /// first; the last entry is the active segment.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Sets the size at which the active journal segment rolls into a
    /// new one. The default is large enough that rotation is effectively
    /// off; long-running servers set this to bound per-file size so
    /// scrub and quarantine operate on bounded units.
    pub fn set_segment_max_bytes(&mut self, max_bytes: u64) {
        self.segment_max_bytes = max_bytes.max(1);
    }

    /// Swaps the journal handle for a mock — lets tests inject I/O
    /// failures into the write path.
    #[cfg(test)]
    fn set_journal_for_tests(&mut self, journal: Box<dyn FsFile>) {
        self.journal = Some(journal);
    }

    /// Installs a metrics registry; subsequent [`append`] and
    /// [`checkpoint`] calls record durability metrics into it
    /// (`store.append_bytes`, `store.fsync_ns`, `store.checkpoint_bytes`,
    /// `store.checkpoints`, `store.rotations`). Pass
    /// [`Session::metrics`]'s handle to share one registry across
    /// execution and storage.
    ///
    /// [`append`]: Workspace::append
    /// [`checkpoint`]: Workspace::checkpoint
    /// [`Session::metrics`]: crate::session::Session::metrics
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.hot = StoreMetrics {
            append_bytes: metrics.histogram("store.append_bytes"),
            fsync_ns: metrics.histogram("store.fsync_ns"),
        };
        self.metrics = metrics;
    }

    /// Appends one operation to the journal, durably — once this
    /// returns, the operation survives a crash. One `write` + one
    /// `fsync`: [`append_deferred`] followed by [`sync`], so any frames
    /// deferred earlier share this fsync.
    ///
    /// [`append_deferred`]: Workspace::append_deferred
    /// [`sync`]: Workspace::sync
    ///
    /// # Errors
    ///
    /// As [`Workspace::append_deferred`] and [`Workspace::sync`].
    pub fn append(&mut self, op: &JournalOp) -> Result<(), StoreError> {
        self.append_deferred(op)?;
        self.sync()
    }

    /// Encodes one operation into the pending buffer without writing
    /// it. The frame is durable only after a later [`sync`] (or
    /// [`append`]) returns; a crash before that loses at most the
    /// pending frames, none of which was acknowledged. The frame is
    /// encoded in place, at the end of the pending buffer; a refused or
    /// failed append leaves that buffer as it was.
    ///
    /// [`sync`]: Workspace::sync
    /// [`append`]: Workspace::append
    ///
    /// # Errors
    ///
    /// Serialization errors, a lost lease ([`StoreError::Degraded`]),
    /// or the poison of an earlier failed write.
    pub fn append_deferred(&mut self, op: &JournalOp) -> Result<(), StoreError> {
        self.check_poisoned()?;
        self.check_writable()?;
        let len = encode_op_into(op, &mut self.pending)?;
        self.hot.append_bytes.observe(len as u64);
        self.count_frame(len as u64);
        Ok(())
    }

    /// Queues an encoded frame (a snapshot's) for the next flush. It
    /// replaces an empty pending buffer too small to hold it instead of
    /// being copied.
    fn defer_frame(&mut self, frame: Vec<u8>) {
        self.count_frame(frame.len() as u64);
        if self.pending.is_empty() && self.pending.capacity() < frame.len() {
            self.pending = frame;
        } else {
            self.pending.extend_from_slice(&frame);
        }
    }

    /// Counts a frame of `len` bytes appended to the pending buffer.
    fn count_frame(&mut self, len: u64) {
        self.active_len += len;
        self.generation_bytes += len;
        self.tail.push(len, false);
    }

    /// Makes every pending frame durable with one `write` and one
    /// `fsync`, then rolls the active segment once it has reached its
    /// size bound. With nothing pending it writes nothing, but still
    /// fails on a poisoned or fenced handle.
    ///
    /// # Errors
    ///
    /// The poison of an earlier failed write; a lost lease
    /// ([`StoreError::Degraded`]), which discards the pending frames;
    /// or an I/O error, which poisons the handle.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.check_poisoned()?;
        self.flush()?;
        // With nothing pending, `flush` checked no lease: a fenced
        // handle's sync must fail all the same.
        self.check_writable()?;
        self.maybe_roll()
    }

    /// The journal's one write path: writes every pending frame at the
    /// active segment's write position with one `write_all_at` and
    /// makes them durable with one `sync_data`. A batch smaller than
    /// [`PREALLOC_CHUNK`] that would grow the file carries zeros after
    /// it, up to one chunk past its end but not past the segment bound,
    /// so the next batches overwrite allocated bytes; the cap keeps a
    /// segment that rolls from ending in zeros. A fenced handle
    /// discards the frames instead, since another writer owns the
    /// journal now; a write or fsync error poisons the handle. Either
    /// way the pending buffer is empty afterwards, and keeps its
    /// capacity up to [`PENDING_KEEP`].
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.check_writable() {
            if matches!(e, StoreError::Degraded(_)) {
                self.pending.clear();
                self.metrics.incr(names::STORE_GROUP_DISCARDED_BATCHES, 1);
            }
            return Err(e);
        }
        let journal = self.journal.as_mut().ok_or_else(journal_missing)?;
        let batch = &mut self.pending;
        let end = self.active_len;
        let at = end - batch.len() as u64;
        if end > self.allocated && (batch.len() as u64) < PREALLOC_CHUNK {
            let padded = (end + PREALLOC_CHUNK).min(end.max(self.segment_max_bytes));
            batch.resize((padded - at) as usize, 0);
        }
        let mut result = journal.write_all_at(batch, at);
        if result.is_ok() {
            let fsync_started = self.env.clock.now();
            result = journal.sync_data();
            self.hot
                .fsync_ns
                .observe_duration(self.env.clock.since(fsync_started));
        }
        let written = batch.len() as u64;
        // Cleared, not taken: the next frames land in memory this batch
        // already faulted in. A large batch's buffer is freed instead
        // of staying allocated for the session.
        batch.clear();
        if batch.capacity() > PENDING_KEEP {
            *batch = Vec::new();
        }
        if let Err(e) = result {
            self.poisoned = Some(e.to_string());
            return Err(StoreError::Io(e));
        }
        self.allocated = self.allocated.max(at + written);
        Ok(())
    }

    /// Fails if an earlier failed write or fsync poisoned the journal.
    fn check_poisoned(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(error) => Err(StoreError::Io(std::io::Error::other(error.clone()))),
            None => Ok(()),
        }
    }

    /// Shuts the workspace down cleanly: flushes the pending frames and
    /// surfaces any write failure that the best-effort `Drop` would
    /// swallow. Call this at end of session when you need a positive
    /// durability confirmation.
    ///
    /// # Errors
    ///
    /// A failure flushing the pending frames, or the poison of an
    /// earlier failed write.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.flush()?;
        self.check_poisoned()?;
        self.release_lease();
        Ok(())
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        // Best-effort flush so pending frames reach disk; `close`
        // reports what this swallows.
        let _ = self.flush();
        self.release_lease();
    }
}

#[cfg(test)]
mod tests {
    use super::frame::frame_len;
    use super::generation::{MANIFEST_FILE, ROTATE_FACTOR};
    use super::*;
    use hercules_history::Payload;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_root(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hercules-store-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn frames_round_trip_and_scan() {
        let mut buf = Vec::new();
        for payload in [b"alpha".as_slice(), b"b".as_slice(), b"gamma!".as_slice()] {
            buf.extend_from_slice(&encode_frame(payload).expect("frames"));
        }
        let scan = scan_frames(&buf);
        assert_eq!(
            scan.payloads,
            vec![b"alpha".to_vec(), b"b".to_vec(), b"gamma!".to_vec()]
        );
        assert_eq!(scan.valid_len, buf.len());
        assert_eq!((scan.free, scan.trailing), (0, 0));
        assert_eq!(scan.offsets.last(), Some(&buf.len()));

        // An empty frame would be eight zero bytes, which is what free
        // space reads as: it is never written, and never scanned as a
        // frame.
        assert!(matches!(encode_frame(b""), Err(StoreError::Format(_))));
        let frames = buf.len();
        buf.extend_from_slice(&[0; 64]);
        let scan = scan_frames(&buf);
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!((scan.valid_len, scan.free, scan.trailing), (frames, 64, 0));
        // Zeros end only the last segment; in a sealed one they are
        // damage, and so is every zero after a non-zero byte.
        let sealed = scan_segment(&buf, false);
        assert_eq!((sealed.free, sealed.trailing), (0, 64));
        buf[frames + 40] = 1;
        let scan = scan_frames(&buf);
        assert_eq!((scan.valid_len, scan.free, scan.trailing), (frames, 0, 64));
    }

    #[test]
    fn payloads_past_u32_are_refused_not_wrapped() {
        assert_eq!(frame_len(0).ok(), Some(0));
        assert_eq!(frame_len(u32::MAX as usize).ok(), Some(u32::MAX));
        assert!(matches!(
            frame_len(u32::MAX as usize + 1),
            Err(StoreError::Format(_))
        ));
        assert!(frame_len(usize::MAX).is_err());
    }

    #[test]
    fn torn_and_corrupt_tails_stop_the_scan() {
        let mut buf = encode_frame(b"keep me").expect("frames");
        let keep = buf.len();
        buf.extend_from_slice(&encode_frame(b"torn").expect("frames"));
        buf.truncate(keep + 5); // mid-header tear
        let scan = scan_frames(&buf);
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.trailing, 5);

        let mut buf = encode_frame(b"keep me").expect("frames");
        let mut second = encode_frame(b"rotted").expect("frames");
        let last = second.len() - 1;
        second[last] ^= 0x40; // flip a payload bit
        buf.extend_from_slice(&second);
        let scan = scan_frames(&buf);
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(scan.valid_len, keep);
    }

    #[test]
    fn every_byte_of_garbage_yields_a_valid_prefix() {
        // scan_frames on arbitrary prefixes/suffixes must never panic.
        let mut buf = encode_frame(b"one").expect("frames");
        buf.extend_from_slice(&encode_frame(b"two").expect("frames"));
        for cut in 0..=buf.len() {
            let _ = scan_frames(&buf[..cut]);
        }
        let _ = scan_frames(&[0xFF; 64]);
    }

    #[test]
    fn workspace_create_append_reopen() {
        let root = temp_root("basic");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        ws.append(&JournalOp::Flow(FlowOp::Expand {
            node: 0,
            optional: Vec::new(),
            reuse: Vec::new(),
            reuse_existing: false,
        }))
        .expect("appends");
        drop(ws);

        let (ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 2);
        assert!(!report.truncated);
        assert_eq!(ws.generation(), 0);
        assert_eq!(restored.flow().expect("flow").len(), 4);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn torn_journal_tail_is_truncated_on_open() {
        let root = temp_root("torn");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        let journal_path = ws.journal_path.clone();
        drop(ws);
        // Simulate a crash mid-append: garbage half-frame at the tail,
        // which is where the frames end.
        let mut bytes = fs::read(&journal_path).expect("reads");
        let valid = scan_frames(&bytes).valid_len;
        bytes.truncate(valid);
        bytes.extend_from_slice(&[0x12, 0x34, 0x56]);
        fs::write(&journal_path, &bytes).expect("writes");

        let (_ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("recovers");
        assert_eq!(report.ops_replayed, 1);
        assert!(report.truncated);
        assert_eq!(report.bytes_discarded, 3);
        assert!(restored.flow().is_ok());
        assert_eq!(
            fs::read(&journal_path).expect("reads").len(),
            valid,
            "the torn tail was truncated away"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unreplayable_op_becomes_the_corrupt_tail() {
        let root = temp_root("unreplayable");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        // CRC-valid but semantically impossible (unknown entity).
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Ghost".into(),
        }))
        .expect("appends");
        drop(ws);

        let (_ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("recovers");
        assert_eq!(report.ops_replayed, 1);
        assert!(report.truncated);
        assert!(restored.flow().is_ok());
        fs::remove_dir_all(&root).ok();
    }

    /// A primary `Netlist` record holding `data`.
    fn netlist_record(data: Payload) -> InstanceSpec {
        InstanceSpec {
            entity: "Netlist".into(),
            user: "jbb".into(),
            created: hercules_history::Timestamp(0),
            name: String::new(),
            comment: String::new(),
            keywords: Vec::new(),
            data: Some(data),
            tool: None,
            inputs: None,
        }
    }

    fn exec_op(instances: Vec<InstanceSpec>) -> JournalOp {
        JournalOp::Exec(ExecSpec {
            instances,
            report: None,
            event: None,
        })
    }

    /// Journals a good `Exec` frame, rolls the segment, then journals
    /// a frame of a valid record followed by `bad`. Recovery keeps the
    /// first frame and no part of the second, on this open and the
    /// next.
    fn assert_failed_frame_leaves_no_trace(tag: &str, bad: InstanceSpec) {
        let root = temp_root(tag);
        let session = Session::odyssey("jbb");
        let checkpoint_len = session.db().len();
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.set_segment_max_bytes(1); // the failed frame lands in a later segment
        let kept = netlist_record(Payload::Inline(b"kept".to_vec().into()));
        ws.append(&exec_op(vec![kept])).expect("appends");
        let valid = netlist_record(Payload::Inline(b"dropped".to_vec().into()));
        ws.append(&exec_op(vec![valid, bad])).expect("appends");
        drop(ws);

        for open in ["first", "second"] {
            let (_ws, restored, report) =
                Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                    .expect("recovers");
            assert_eq!(report.ops_replayed, 1, "{open} open");
            assert_eq!(report.truncated, open == "first");
            assert_eq!(restored.db().len(), checkpoint_len + 1, "{open} open");
            let last = InstanceId::from_raw(checkpoint_len as u64);
            assert_eq!(
                restored.db().data_of(last).expect("recorded"),
                Some(&b"kept"[..])
            );
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_frame_with_an_unreplayable_second_record_leaves_no_trace() {
        let ghost = InstanceSpec {
            entity: "Ghost".into(),
            ..netlist_record(Payload::Inline(b"ghost".to_vec().into()))
        };
        assert_failed_frame_leaves_no_trace("unreplayable-record", ghost);
    }

    #[test]
    fn a_frame_whose_second_record_references_forward_leaves_no_trace() {
        // The frame's records are ids n+1 and n+2 after the checkpoint's
        // n records and the kept frame's one: n+3 is not recorded yet.
        let n = Session::odyssey("jbb").db().len() as u64;
        let forward = netlist_record(Payload::Shared(n + 3));
        assert_failed_frame_leaves_no_trace("forward-reference", forward);
    }

    /// Checkpoints `session` until one rotates; returns how many
    /// appended a snapshot first.
    fn checkpoint_until_rotation(ws: &mut Workspace, session: &Session) -> usize {
        let mut appended = 0;
        while ws.checkpoint(session).expect("checkpoints") == CheckpointKind::Appended {
            appended += 1;
            assert!(appended < 8, "a rotation is due within a few snapshots");
        }
        appended
    }

    #[test]
    fn checkpoint_rotates_generations() {
        let root = temp_root("rotate");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        session.start_from_goal("Layout").expect("starts");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        let appended = checkpoint_until_rotation(&mut ws, &session);
        assert!(appended > 0, "the first checkpoints append snapshots");
        assert_eq!(ws.generation(), 1);
        assert!(!root.join(segment_name(0, 0)).exists());
        drop(ws);

        let (ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(ws.generation(), 1);
        assert_eq!(report.ops_replayed, 0, "the journal was rotated empty");
        assert!(restored.flow().is_ok(), "the flow came from the base");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn appended_snapshots_reopen_to_the_checkpointed_session() {
        let root = temp_root("snapshot");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        // A direct edit bypasses the journal; the snapshot captures it.
        netlist_record(Payload::Inline(b"direct".to_vec().into()))
            .replay(session.db_mut())
            .expect("records");
        session.start_from_goal("Layout").expect("starts");
        assert_eq!(
            ws.checkpoint(&session).expect("checkpoints"),
            CheckpointKind::Appended
        );
        assert_eq!(
            ws.generation(),
            0,
            "an appended snapshot keeps the generation"
        );
        ws.append(&seed_op(1)).expect("appends after the snapshot");
        seed_op(1).replay(&mut session).expect("replays");
        drop(ws);

        let (_ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 2, "the snapshot is one operation");
        assert_eq!(
            SessionSpec::from_session(&restored),
            SessionSpec::from_session(&session)
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_journaled_session_checkpoints_by_syncing_until_its_frames_outweigh_the_snapshot() {
        let root = temp_root("journaled");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        session.mark_journaled();
        // The base is a CRC-framed snapshot, so even the generation's
        // first checkpoint of a journaled session writes nothing.
        assert_eq!(
            ws.checkpoint(&session).expect("checkpoints"),
            CheckpointKind::Synced
        );
        let snapshot = ws.tail.snapshot;
        assert_eq!(
            snapshot, ws.generation_bytes,
            "the base is the newest snapshot"
        );
        // A journaled frame, deferred: the next checkpoint only syncs it.
        let op = seed_op(0);
        op.replay(&mut session).expect("replays");
        ws.append_deferred(&op).expect("defers");
        session.mark_journaled();
        assert_eq!(
            ws.checkpoint(&session).expect("checkpoints"),
            CheckpointKind::Synced
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["store.fsync_ns"].count, 1);
        assert_eq!(snap.counters.get(names::STORE_CHECKPOINTS), None);
        drop(ws);

        // `open` finds the base and the frame after it.
        let (mut ws, mut session, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 1);
        assert!(!session.has_unjournaled_changes());
        assert_eq!(ws.tail.snapshot, snapshot);
        assert_eq!(
            ws.checkpoint(&session).expect("checkpoints"),
            CheckpointKind::Synced
        );
        // Frames as large as the snapshot: replaying them would read
        // as much as a new snapshot, so the checkpoint writes one.
        let big = exec_op(vec![netlist_record(Payload::Inline(
            vec![7; snapshot as usize].into(),
        ))]);
        big.replay(&mut session).expect("replays");
        ws.append(&big).expect("appends");
        session.mark_journaled();
        assert!(ws.tail.since >= snapshot);
        assert_eq!(
            ws.checkpoint(&session).expect("checkpoints"),
            CheckpointKind::Appended
        );
        assert_eq!(ws.tail.since, 0);
        drop(ws);
        let (_ws, restored, _report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(
            SessionSpec::from_session(&restored),
            SessionSpec::from_session(&session)
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_snapshot_frame_is_the_encoded_operation_around_the_checkpoint_document() {
        let mut session = Session::odyssey("jbb");
        session.start_from_goal("Layout").expect("starts");
        let spec = SessionSpec::from_session(&session);
        let snapshot = snapshot_frame(&session).expect("encodes");
        let op = JournalOp::Snapshot(Box::new(spec.clone()));
        assert_eq!(snapshot, encode_op(&op).expect("encodes"));
        // The body: the marker, the document with every inline payload
        // an empty placeholder, the payload lengths, then the payloads
        // raw in record order.
        let mut document = spec;
        let payloads: Vec<std::sync::Arc<[u8]>> = document
            .history
            .instances
            .iter_mut()
            .filter_map(|record| match &mut record.data {
                Some(Payload::Inline(bytes)) => Some(std::mem::take(bytes)),
                _ => None,
            })
            .collect();
        assert!(payloads.len() > 1, "the odyssey history holds payloads");
        let json = format!(
            "{{\"Snapshot\":{}}}",
            document.to_json().expect("serializes")
        );
        let le = |n: usize| u32::try_from(n).expect("small").to_le_bytes();
        let mut body = vec![0xFF];
        body.extend(le(json.len()));
        body.extend(json.as_bytes());
        body.extend(le(payloads.len()));
        for payload in &payloads {
            body.extend(le(payload.len()));
        }
        for payload in &payloads {
            body.extend_from_slice(payload);
        }
        assert_eq!(snapshot, encode_frame(&body).expect("frames"));
        let scan = scan_frames(&snapshot);
        assert_eq!(decode_op(&scan.payloads[0]).expect("decodes"), op);
    }

    /// The generation's files on disk, every segment and the base
    /// included: the bytes of their frames, and of the files, whose
    /// free space the frame bytes leave out.
    fn generation_disk_bytes(ws: &Workspace) -> (u64, u64) {
        ws.segments
            .iter()
            .map(|name| fs::read(ws.root.join(name)).expect("segment"))
            .map(|bytes| (scan_frames(&bytes).valid_len as u64, bytes.len() as u64))
            .fold((0, 0), |(frames, files), (f, b)| (frames + f, files + b))
    }

    #[test]
    fn generation_files_stay_within_the_rotate_factor_of_the_newest_snapshot() {
        let root = temp_root("bound");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let mut kinds = Vec::new();
        for k in 0..12u8 {
            // The history grows by one payload per checkpoint, and a
            // journaled frame lands between checkpoints.
            let record = netlist_record(Payload::Inline(vec![k; 64 * (usize::from(k) + 1)].into()));
            let op = exec_op(vec![record]);
            op.replay(&mut session).expect("replays");
            ws.append(&op).expect("appends");
            kinds.push(ws.checkpoint(&session).expect("checkpoints"));
            let frame = snapshot_frame(&session).expect("encodes").len() as u64;
            let (on_disk, files) = generation_disk_bytes(&ws);
            assert_eq!(on_disk, ws.generation_bytes, "checkpoint {k}: bookkeeping");
            assert!(
                on_disk <= ROTATE_FACTOR * frame,
                "checkpoint {k}: {on_disk} bytes over {ROTATE_FACTOR}x the {frame}-byte snapshot"
            );
            assert!(
                files <= on_disk + PREALLOC_CHUNK,
                "checkpoint {k}: {files} file bytes hold more than one chunk of free space"
            );
        }
        assert!(kinds.contains(&CheckpointKind::Appended));
        assert!(kinds.contains(&CheckpointKind::Rotated));
        drop(ws);
        let (ws, restored, _report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(
            SessionSpec::from_session(&restored),
            SessionSpec::from_session(&session)
        );
        assert_eq!(
            generation_disk_bytes(&ws).0,
            ws.generation_bytes,
            "open counts it too"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn workspace_records_durability_metrics() {
        let root = temp_root("metrics");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        // A direct edit the journal lacks: checkpoints write snapshots.
        session.start_from_goal("Layout").expect("starts");
        ws.checkpoint(&session).expect("appends a snapshot");

        let snap = metrics.snapshot();
        let fsync = snap.histograms.get("store.fsync_ns").expect("fsync");
        assert_eq!(fsync.count, 2, "the append's fsync and the snapshot's");
        let bytes = snap.histograms.get("store.append_bytes").expect("bytes");
        assert!(bytes.sum > 8, "a frame is header + payload");
        assert_eq!(bytes.count, 1, "a snapshot is not an operation append");
        assert_eq!(snap.counters.get(names::STORE_CHECKPOINTS), Some(&1));
        assert_eq!(snap.counters.get(names::STORE_ROTATIONS), None);
        assert!(
            snap.histograms
                .get("store.checkpoint_bytes")
                .expect("checkpoint size")
                .sum
                > 0
        );

        let appended = checkpoint_until_rotation(&mut ws, &session);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.histograms["store.fsync_ns"].count,
            2 + appended as u64,
            "a rotation issues no journal fsync"
        );
        assert_eq!(
            snap.counters.get(names::STORE_CHECKPOINTS),
            Some(&(2 + appended as u64))
        );
        assert_eq!(snap.counters.get(names::STORE_ROTATIONS), Some(&1));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn exec_ops_replay_extensionally() {
        // Journal a run's committed products and replay them into a
        // fresh copy of the pre-run session — the databases must agree
        // without any tool re-running.
        let mut session = Session::odyssey("jbb");
        let layout = session.start_from_goal("Layout").expect("starts");
        session.expand(layout).expect("expands");
        let netlist = session.flow().expect("flow").data_inputs_of(layout)[0];
        session.specialize(netlist, "EditedNetlist").expect("ok");
        session.expand(netlist).expect("expands");
        session.bind_latest().expect("binds");
        let before = SessionSpec::from_session(&session);
        let db_before = session.db().len();
        session.run().expect("runs");

        let spec = ExecSpec {
            instances: (db_before..session.db().len())
                .map(|i| InstanceSpec::capture(session.db(), i))
                .collect(),
            report: session.last_report().map(ExecReportSpec::from_report),
            event: session.events().last().cloned(),
        };
        let mut replayed = before
            .restore(crate::encaps::odyssey_registry(session.schema()))
            .expect("restores");
        JournalOp::Exec(spec)
            .replay(&mut replayed)
            .expect("replays");
        assert_eq!(replayed.db().len(), session.db().len());
        assert_eq!(replayed.events(), session.events());
        assert_eq!(
            SessionSpec::from_session(&replayed),
            SessionSpec::from_session(&session)
        );
    }

    fn seed_op(n: u64) -> JournalOp {
        // Distinct-but-replayable ops: every odyssey entity works as a
        // seed, so cycle through a few to vary frame payloads.
        let entity = ["Layout", "Netlist", "Stimuli"][(n % 3) as usize];
        JournalOp::Flow(FlowOp::Seed {
            entity: entity.into(),
        })
    }

    #[test]
    fn group_commit_appends_survive_reopen_and_checkpoint() {
        let root = temp_root("group-basic");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        for n in 0..5 {
            ws.append_deferred(&seed_op(n)).expect("enqueues");
        }
        ws.sync().expect("flushes");
        // A plain append after the batch is durable on return too.
        ws.append(&seed_op(5)).expect("appends");
        // Later frames land in the rotated journal.
        session.start_from_goal("Layout").expect("starts");
        checkpoint_until_rotation(&mut ws, &session);
        ws.append(&seed_op(6)).expect("appends post-rotation");
        drop(ws);

        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 1, "pre-checkpoint ops are folded in");
        assert!(!report.truncated);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn group_commit_batches_frames_into_shared_fsyncs() {
        let root = temp_root("group-batch");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        let frames = 48;
        for n in 0..frames {
            ws.append_deferred(&seed_op(n)).expect("enqueues");
        }
        ws.sync().expect("flushes");

        let snap = metrics.snapshot();
        let flushes = snap.histograms.get("store.fsync_ns").expect("fsyncs").count;
        assert_eq!(flushes, 1, "{frames} frames shared {flushes} fsyncs");
        let appended = snap.histograms.get("store.append_bytes").expect("frames");
        assert_eq!(appended.count, frames, "every frame appended exactly once");
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed as u64, frames);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn group_commit_crash_at_every_byte_offset_recovers_a_prefix() {
        // The group-commit guarantee: a crash mid-batch loses at most
        // the unacknowledged tail, and recovery always lands on a clean
        // frame boundary. Simulate by truncating the journal at every
        // byte offset and reopening a copy of the workspace. A cut
        // inside frame 0, the base, is not a crash the store can
        // produce — the base is synced before the MANIFEST names it —
        // so it must fail to open rather than recover an empty session.
        let root = temp_root("group-crash");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        for n in 0..6 {
            ws.append_deferred(&seed_op(n)).expect("enqueues");
        }
        ws.sync().expect("flushes");
        let journal_path = ws.journal_path.clone();
        drop(ws);
        let bytes = fs::read(&journal_path).expect("reads journal");
        let scan = scan_frames(&bytes);
        let base_end = scan.offsets[0];
        assert!(scan.free > 0, "the batch was padded");
        let manifest = fs::read(root.join(MANIFEST_FILE)).expect("reads manifest");

        // Every byte of every frame; the free space after them at its
        // boundaries and at a stride.
        for cut in (0..=scan.valid_len).chain(free_space_cuts(scan.valid_len, bytes.len())) {
            let crashed = temp_root("group-crash-cut");
            fs::create_dir_all(&crashed).expect("mkdir");
            fs::write(crashed.join(MANIFEST_FILE), &manifest).expect("copies");
            fs::write(crashed.join(segment_name(0, 0)), &bytes[..cut]).expect("truncates");
            let opened = Workspace::open_session(&crashed, |s| crate::encaps::odyssey_registry(s));
            if cut < base_end {
                assert!(
                    matches!(opened, Err(StoreError::Corrupt { .. })),
                    "cut at byte {cut}, inside frame 0, must fail to open"
                );
                fs::remove_dir_all(&crashed).ok();
                continue;
            }
            let survivors = scan_frames(&bytes[..cut]).payloads.len() - 1;
            let (_ws, restored, report) =
                opened.unwrap_or_else(|e| panic!("cut at byte {cut} fails recovery: {e}"));
            assert_eq!(
                report.ops_replayed, survivors,
                "cut at byte {cut}: whole frames before the cut replay"
            );
            assert!(restored.flow().is_ok() || survivors == 0);
            if cut > scan.valid_len {
                // A cut in the free space keeps it: nothing discarded,
                // the file as it was.
                assert_eq!(report.bytes_discarded, 0, "cut at byte {cut}");
                let kept = fs::read(crashed.join(segment_name(0, 0))).expect("reads");
                assert_eq!(kept, &bytes[..cut], "cut at byte {cut}");
            }
            fs::remove_dir_all(&crashed).ok();
        }
        fs::remove_dir_all(&root).ok();
    }

    /// Cut points inside the free space `valid..len` of a journal: both
    /// of its ends and the few bytes next to them, where a header
    /// would start, and every 4093rd byte between.
    fn free_space_cuts(valid: usize, len: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = (valid + 1..valid + 10)
            .chain((valid..len).step_by(4093))
            .chain(len.saturating_sub(9)..=len)
            .filter(|&cut| cut > valid && cut <= len)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    #[test]
    fn an_append_writes_into_free_space_and_open_keeps_it() {
        let root = temp_root("free-space");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let path = ws.journal_path.clone();
        let base = fs::metadata(&path).expect("meta").len();
        assert_eq!(base, ws.active_len, "save writes the base unpadded");
        ws.append(&seed_op(0)).expect("appends");
        let padded = fs::metadata(&path).expect("meta").len();
        assert_eq!(
            padded,
            ws.active_len + PREALLOC_CHUNK,
            "one chunk of free space"
        );
        ws.append(&seed_op(1)).expect("appends");
        assert_eq!(
            fs::metadata(&path).expect("meta").len(),
            padded,
            "the next frame overwrites free space"
        );
        drop(ws);

        let before = fs::read(&path).expect("reads");
        let (mut ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 2);
        assert_eq!((report.bytes_discarded, report.truncated), (0, false));
        assert!(!report.quarantined());
        assert_eq!(
            fs::read(&path).expect("reads"),
            before,
            "open changed nothing"
        );
        ws.append(&seed_op(2)).expect("appends");
        let after = fs::read(&path).expect("reads");
        assert_eq!(
            after.len(),
            before.len(),
            "the reopened handle writes into it"
        );
        assert_eq!(scan_frames(&after).payloads.len(), 4);
        let report = ws.scrub(&Session::odyssey("jbb")).expect("scrubs");
        assert!(!report.damaged, "{report}");
        assert_eq!(report.segments[0].damaged_bytes, 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_bound_lowered_after_padding_seals_the_segment_without_free_space() {
        let root = temp_root("lowered-bound");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&seed_op(0)).expect("appends");
        ws.set_segment_max_bytes(1);
        ws.append(&seed_op(1)).expect("appends and rolls");
        assert_eq!(ws.segments().len(), 2);
        let sealed = fs::read(root.join(segment_name(0, 0))).expect("reads");
        assert_eq!(scan_segment(&sealed, false).trailing, 0, "no zeros sealed");
        drop(ws);
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 2);
        assert!(!report.truncated && !report.quarantined(), "{report}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn segments_roll_at_threshold_and_reopen_across_boundaries() {
        let root = temp_root("segments");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        ws.set_segment_max_bytes(1); // every append rolls
        for n in 0..5 {
            ws.append(&seed_op(n)).expect("appends");
        }
        assert_eq!(ws.segments().len(), 6, "five rolls after five appends");
        assert_eq!(
            metrics.snapshot().counters.get("store.segment_rolls"),
            Some(&5)
        );
        assert!(root.join("journal-0.3.log").exists());
        drop(ws);

        let (ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 5, "replay crosses segment boundaries");
        assert!(!report.truncated);
        assert_eq!(report.segments.len(), 6);
        assert_eq!(ws.segments().len(), 6);
        assert!(restored.flow().is_ok());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn checkpoint_retires_every_segment_of_the_old_generation() {
        let root = temp_root("segments-rotate");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        // A direct edit the journal lacks: checkpoints write snapshots.
        session.start_from_goal("Layout").expect("starts");
        ws.set_segment_max_bytes(1);
        for n in 0..3 {
            ws.append(&seed_op(n)).expect("appends");
        }
        let mut old: Vec<String> = ws.segments().to_vec();
        assert!(old.len() > 1);
        while ws.checkpoint(&session).expect("checkpoints") == CheckpointKind::Appended {
            // Each appended snapshot rolls another segment.
            assert!(ws.segments().len() > old.len());
            old = ws.segments().to_vec();
        }
        for name in &old {
            assert!(!root.join(name).exists(), "{name} was retired");
        }
        assert_eq!(ws.segments(), [segment_name(1, 0)]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn foreign_live_lease_opens_degraded_and_rejects_mutations() {
        let root = temp_root("lease");
        let session = Session::odyssey("jbb");
        let ws = Workspace::create(&root, &session).expect("creates");
        // `ws` (owner "local") holds the lease; a different owner gets
        // a read-only open, not a failure.
        let (mut other, other_session, report) = Workspace::open_session_as(
            &root,
            |s| crate::encaps::odyssey_registry(s),
            Env::real(),
            "intruder",
            60_000,
        )
        .expect("opens degraded");
        assert!(report.degraded.is_some());
        assert!(!other.is_writable());
        assert!(matches!(
            other.write_state(),
            WriteState::Degraded(DegradedReason::LeaseHeld { .. })
        ));
        let err = other.append(&seed_op(0)).expect_err("append rejected");
        assert!(matches!(err, StoreError::Degraded(_)), "typed error: {err}");
        let err = other
            .checkpoint(&other_session)
            .expect_err("checkpoint rejected");
        assert!(matches!(err, StoreError::Degraded(_)));
        let scrub = other.scrub(&other_session).expect("scan still runs");
        assert!(!scrub.repaired);
        drop(other);
        // The degraded handle must not have removed the owner's lease.
        assert!(root.join(LEASE_FILE).exists());
        drop(ws);
        assert!(!root.join(LEASE_FILE).exists(), "owner released on drop");
        // Now the other owner can take over cleanly.
        let (other, _, report) = Workspace::open_session_as(
            &root,
            |s| crate::encaps::odyssey_registry(s),
            Env::real(),
            "intruder",
            60_000,
        )
        .expect("opens writable");
        assert!(other.is_writable());
        assert!(report.degraded.is_none());
        drop(other);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fencing_token_grows_across_reopens() {
        let root = temp_root("token");
        let session = Session::odyssey("jbb");
        let ws = Workspace::create(&root, &session).expect("creates");
        let t0 = ws.fencing_token();
        drop(ws);
        let (ws, _, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert!(ws.fencing_token() > t0, "every acquire bumps the token");
        assert_eq!(report.fencing_token, ws.fencing_token());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scrub_clean_store_reports_clean() {
        let root = temp_root("scrub-clean");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        session.start_from_goal("Layout").expect("starts");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        let report = ws.scrub(&session).expect("scrubs");
        assert!(!report.damaged);
        assert!(!report.repaired);
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].frames_ok, 2, "the base and the append");
        assert_eq!(ws.generation(), 0, "clean scrub does not re-baseline");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scrub_quarantines_rot_and_rebaselines() {
        let root = temp_root("scrub-rot");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        session.start_from_goal("Layout").expect("starts");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Layout".into(),
        }))
        .expect("appends");
        ws.append(&JournalOp::Flow(FlowOp::Seed {
            entity: "Netlist".into(),
        }))
        .expect("appends");
        // Bit-rot frame 0, the base, on disk, under the live handle.
        let path = root.join(segment_name(0, 0));
        let mut bytes = fs::read(&path).expect("reads");
        bytes[10] ^= 0x40;
        fs::write(&path, &bytes).expect("rots");

        let report = ws.scrub(&session).expect("scrubs");
        assert!(report.damaged);
        assert!(report.repaired);
        assert_eq!(report.segments[0].frames_ok, 0, "rot starts at frame 0");
        assert_eq!(
            report.segments[0].quarantined_as,
            vec![format!("{}.quarantined-0", segment_name(0, 0))]
        );
        let quarantined = fs::read(root.join(&report.segments[0].quarantined_as[0]))
            .expect("quarantine file exists");
        assert_eq!(quarantined, bytes, "every damaged byte was preserved");
        assert_eq!(ws.generation(), 1, "re-baselined onto a new generation");
        drop(ws);

        // The re-baselined store reopens with the full session state.
        let (_ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 0);
        assert!(!report.truncated);
        assert!(restored.flow().is_ok(), "state came from the new base");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mid_chain_damage_quarantines_later_segments_on_open() {
        let root = temp_root("mid-chain");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.set_segment_max_bytes(1);
        for n in 0..4 {
            ws.append(&seed_op(n)).expect("appends");
        }
        let segments: Vec<String> = ws.segments().to_vec();
        drop(ws);
        // Rot a byte inside segment 1; segments 2.. hold valid frames
        // that are now beyond a hole and must be quarantined, not
        // silently truncated away.
        let victim = root.join(&segments[1]);
        let mut bytes = fs::read(&victim).expect("reads");
        bytes[9] ^= 0x01;
        fs::write(&victim, &bytes).expect("rots");

        let (ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("recovers");
        assert_eq!(report.ops_replayed, 1, "only segment 0's frame replays");
        assert!(report.truncated);
        assert!(report.quarantined());
        let damaged = &report.segments[1];
        assert_eq!(damaged.frames_replayed, 0);
        assert_eq!(damaged.frames_quarantined, 0, "the rotted frame is gone");
        assert!(!damaged.quarantined_as.is_empty());
        // Later segments were preserved aside with their frame counts.
        let later: usize = report.segments[2..]
            .iter()
            .map(|s| s.frames_quarantined)
            .sum();
        assert_eq!(later, 2, "segments 2 and 3 each held one frame");
        for seg in &report.segments[2..] {
            assert!(!seg.quarantined_as.is_empty());
            assert!(root.join(&seg.quarantined_as[0]).exists());
        }
        assert_eq!(ws.segments().len(), 2, "chain truncated at the damage");
        drop(ws);
        // Recovery converges: a second open finds a clean store.
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 1);
        assert!(!report.truncated, "repair was durable and idempotent");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_missing_mid_chain_segment_cuts_the_chain_and_reports_in_chain_order() {
        let root = temp_root("mid-chain-hole");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.set_segment_max_bytes(1);
        for n in 0..4 {
            ws.append(&seed_op(n)).expect("appends");
        }
        let segments: Vec<String> = ws.segments().to_vec();
        assert_eq!(segments.len(), 5, "each append rolled once");
        drop(ws);
        // A hole in the chain: segment 2 is gone, so segment 3's frame
        // sits beyond it and must be quarantined, not replayed.
        fs::remove_file(root.join(&segments[2])).expect("removes");

        let (ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("recovers");
        assert_eq!(report.ops_replayed, 2, "segments 0 and 1 replay");
        let rows: Vec<&String> = report.segments.iter().map(|s| &s.name).collect();
        assert_eq!(rows, segments.iter().collect::<Vec<_>>(), "chain order");
        assert_eq!(report.segments[2].quarantined_as, Vec::<String>::new());
        let later: Vec<usize> = report.segments[3..]
            .iter()
            .map(|s| s.frames_quarantined)
            .collect();
        assert_eq!(later, [1, 0], "segment 3 held a frame, the active one none");
        for seg in &report.segments[3..] {
            assert_eq!(seg.quarantined_as, [format!("{}.quarantined-0", seg.name)]);
            assert!(root.join(&seg.quarantined_as[0]).exists());
            assert!(!root.join(&seg.name).exists());
        }
        assert_eq!(
            ws.segments(),
            &segments[..2],
            "the chain ends before the hole"
        );
        drop(ws);
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 2);
        assert!(!report.truncated && !report.quarantined(), "{report}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn recovery_report_serializes_to_json() {
        let root = temp_root("report-json");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&seed_op(0)).expect("appends");
        drop(ws);
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        let json = report.to_json();
        assert!(json.contains("\"ops_replayed\":1"), "json: {json}");
        assert!(
            json.contains(&format!("\"name\":\"{}\"", segment_name(0, 0))),
            "json: {json}"
        );
        assert!(json.contains("\"fencing_token\":"), "json: {json}");
        assert!(json.contains("\"segments\":["), "json: {json}");
        fs::remove_dir_all(&root).ok();
    }

    /// A journal handle whose writes succeed but whose fsyncs always
    /// fail — the first flush poisons the workspace.
    struct FailingFile;

    impl FsFile for FailingFile {
        fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn write_all_at(&mut self, _buf: &[u8], _offset: u64) -> std::io::Result<()> {
            Ok(())
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("injected fsync failure"))
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("injected fsync failure"))
        }
        fn set_len(&mut self, _len: u64) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sticky_flusher_error_surfaces_at_append_deferred() {
        let root = temp_root("sticky-enqueue");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.set_journal_for_tests(Box::new(FailingFile));
        ws.append_deferred(&seed_op(0)).expect("enqueues");
        let err = ws.sync().expect_err("the fsync fails");
        assert!(
            err.to_string().contains("injected fsync failure"),
            "unexpected error: {err}"
        );
        // The failed sync poisoned the handle: the very next enqueue
        // fails instead of queuing doomed work, and close surfaces it.
        let err = ws.append_deferred(&seed_op(1)).expect_err("still sticky");
        assert!(err.to_string().contains("injected fsync failure"));
        let err = ws.close().expect_err("close surfaces the poison");
        assert!(err.to_string().contains("injected fsync failure"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_poisoned_handle_checkpoints_by_rotating() {
        let root = temp_root("poisoned-checkpoint");
        let mut session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.set_journal_for_tests(Box::new(FailingFile));
        ws.append(&seed_op(0)).expect_err("the fsync fails");
        // The torn tail may hide anything appended behind it, so the
        // snapshot goes to a fresh generation instead.
        session.start_from_goal("Layout").expect("starts");
        assert_eq!(
            ws.checkpoint(&session).expect("rotates"),
            CheckpointKind::Rotated
        );
        // The fresh generation is clean: appends work again.
        ws.append(&seed_op(1))
            .expect("the rotation cleared the poison");
        seed_op(1).replay(&mut session).expect("replays");
        drop(ws);
        let (_ws, restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.generation, 1);
        assert_eq!(report.ops_replayed, 1);
        assert_eq!(
            SessionSpec::from_session(&restored),
            SessionSpec::from_session(&session)
        );
        fs::remove_dir_all(&root).ok();
    }

    /// A journal handle that tears its first write (half the bytes
    /// land, then the write fails) and passes every later call through.
    struct TearOnce {
        inner: Box<dyn FsFile>,
        torn: bool,
    }

    impl FsFile for TearOnce {
        fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
            self.inner.write_all(buf)
        }
        fn write_all_at(&mut self, buf: &[u8], offset: u64) -> std::io::Result<()> {
            if self.torn {
                return self.inner.write_all_at(buf, offset);
            }
            self.torn = true;
            self.inner.write_all_at(&buf[..buf.len() / 2], offset)?;
            Err(std::io::Error::other("injected torn write"))
        }
        fn sync_data(&mut self) -> std::io::Result<()> {
            self.inner.sync_data()
        }
        fn sync_all(&mut self) -> std::io::Result<()> {
            self.inner.sync_all()
        }
        fn set_len(&mut self, len: u64) -> std::io::Result<()> {
            self.inner.set_len(len)
        }
    }

    #[test]
    fn failed_append_poisons_the_handle() {
        let root = temp_root("tear-once");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&seed_op(0)).expect("appends");
        let inner = ws
            .env
            .fs
            .open_write(&ws.journal_path)
            .expect("opens the journal");
        ws.set_journal_for_tests(Box::new(TearOnce { inner, torn: false }));
        let mut acknowledged = 1;
        for n in 1..3 {
            if ws.append(&seed_op(n)).is_ok() {
                acknowledged += 1;
            }
        }
        drop(ws);

        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("recovers");
        assert_eq!(
            report.ops_replayed, acknowledged,
            "every acknowledged append replays"
        );
        assert!(
            !report.quarantined(),
            "no frame was acknowledged behind the torn one: {report}"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn segments_roll_after_a_deferred_batch() {
        let root = temp_root("deferred-roll");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        ws.set_segment_max_bytes(1);
        for n in 0..3 {
            ws.append_deferred(&seed_op(n)).expect("enqueues");
        }
        ws.sync().expect("flushes");
        assert_eq!(ws.segments().len(), 2, "the synced batch rolled once");
        let head = fs::read(root.join(segment_name(0, 0))).expect("reads");
        assert_eq!(
            scan_frames(&head).payloads.len(),
            4,
            "the base, then the batch: it never straddles a roll"
        );
        ws.append(&seed_op(3)).expect("appends");
        assert_eq!(ws.segments().len(), 3);
        let fsyncs = metrics.snapshot().histograms["store.fsync_ns"].count;
        assert_eq!(fsyncs, 2, "one fsync for the batch, one for the append");
        drop(ws);

        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 4);
        assert_eq!(report.segments.len(), 3);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn group_commit_sync_with_nothing_pending_returns_immediately() {
        let root = temp_root("group-empty");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        let metrics = Metrics::new();
        ws.set_metrics(metrics.clone());
        ws.sync().expect("no-op with nothing pending");
        ws.sync().expect("still a no-op");
        assert!(
            !metrics.snapshot().histograms.contains_key("store.fsync_ns"),
            "nothing pending, nothing written"
        );
        fs::remove_dir_all(&root).ok();
    }

    /// A flush clears the pending buffer but keeps its capacity, up to
    /// [`PENDING_KEEP`]: the next frame is encoded into the same
    /// memory. A batch past that bound is freed once written.
    #[test]
    fn flush_reuses_the_pending_buffer_up_to_its_bound() {
        let root = temp_root("pending-reuse");
        let session = Session::odyssey("jbb");
        let mut ws = Workspace::create(&root, &session).expect("creates");
        ws.append(&JournalOp::Clear).expect("appends");
        assert!(ws.pending.is_empty());
        let kept = ws.pending.capacity();
        assert!(kept > 0 && kept <= PENDING_KEEP, "capacity {kept} kept");
        let buffer = ws.pending.as_ptr();
        ws.append(&JournalOp::Clear).expect("appends");
        assert_eq!(ws.pending.as_ptr(), buffer, "the next frame reused it");
        let big = exec_op(vec![netlist_record(Payload::Inline(
            vec![7; PENDING_KEEP].into(),
        ))]);
        ws.append(&big).expect("appends");
        assert_eq!(ws.pending.capacity(), 0, "a large batch is freed");
        drop(ws);
        let (_ws, _restored, report) =
            Workspace::open_session(&root, |s| crate::encaps::odyssey_registry(s))
                .expect("reopens");
        assert_eq!(report.ops_replayed, 3);
        fs::remove_dir_all(&root).ok();
    }

    /// One step of [`appends_leave_exactly_the_acknowledged_frames`].
    #[derive(Debug, Clone)]
    enum Step {
        /// Defer an operation: `Clear`, or an execution recording a
        /// payload of the given length.
        Append(Option<usize>),
        /// Sync the pending frames.
        Sync,
        /// Try the same append through a second handle that opened
        /// read-only, because this handle's lease is live.
        ReadOnly(Option<usize>),
        /// Let the lease lapse and a second writer take over: every
        /// later append or sync of this handle is refused.
        Fence,
    }

    fn step() -> impl proptest::Strategy<Value = Step> {
        use proptest::prelude::*;
        // Appends twice as often as syncs, each refusal once per eight
        // steps; half the operations carry a payload.
        (0u8..8, 0usize..3000).prop_map(|(kind, len)| {
            let payload = (len % 2 == 1).then_some(len);
            match kind {
                0..=3 => Step::Append(payload),
                4 | 5 => Step::Sync,
                6 => Step::ReadOnly(payload),
                _ => Step::Fence,
            }
        })
    }

    fn step_op(payload: Option<usize>) -> JournalOp {
        match payload {
            None => JournalOp::Clear,
            Some(len) => exec_op(vec![netlist_record(Payload::Inline(
                (0..len)
                    .map(|i| (i % 251) as u8)
                    .collect::<Vec<u8>>()
                    .into(),
            ))]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random sequences of deferred appends, syncs and refused
        /// appends (through a fenced handle or one that opened
        /// degraded) leave the segment holding exactly the base and the
        /// `encode_op` frames of the acknowledged operations, in order,
        /// then only free space. A refused append adds no byte to any
        /// pending buffer, so none can reach the disk later.
        #[test]
        fn appends_leave_exactly_the_acknowledged_frames(
            steps in proptest::prop::collection::vec(step(), 1..24),
        ) {
            use std::time::Duration;

            let sim = hercules_sim::SimEnv::new(0x9E4D);
            let root = Path::new("/ws");
            let segment = root.join("journal-0.log");
            let registry = |s: &std::sync::Arc<hercules_schema::TaskSchema>| {
                crate::encaps::odyssey_registry(s)
            };
            let session = Session::odyssey("a");
            let mut ws = Workspace::create_in(root, &session, sim.env()).expect("creates");
            let mut expected = sim.fs().read(&segment).expect("the base");
            let mut pending = Vec::new();
            let mut successor = None;
            for step in steps {
                match step {
                    Step::Append(payload) => {
                        let op = step_op(payload);
                        let before = ws.pending.clone();
                        match ws.append_deferred(&op) {
                            Ok(()) => {
                                let frame = encode_op(&op).expect("encodes");
                                proptest::prop_assert_eq!(&ws.pending[before.len()..], &frame[..]);
                                pending.extend_from_slice(&frame);
                            }
                            Err(_) => proptest::prop_assert!(successor.is_some()),
                        }
                        proptest::prop_assert_eq!(&ws.pending[..before.len()], &before[..]);
                        proptest::prop_assert_eq!(&ws.pending, &pending);
                    }
                    Step::Sync => {
                        match ws.sync() {
                            Ok(()) => expected.append(&mut pending),
                            Err(_) => {
                                proptest::prop_assert!(successor.is_some());
                                pending.clear();
                            }
                        }
                        proptest::prop_assert!(ws.pending.is_empty());
                    }
                    Step::ReadOnly(payload) => {
                        let (mut reader, _, _) = Workspace::open_session_as(
                            root, registry, sim.env(), "reader", 30_000,
                        )
                        .expect("opens");
                        if successor.is_none() {
                            proptest::prop_assert!(!reader.is_writable());
                        }
                        if !reader.is_writable() {
                            proptest::prop_assert!(reader.append_deferred(&step_op(payload)).is_err());
                            proptest::prop_assert!(reader.pending.is_empty());
                        }
                    }
                    Step::Fence => {
                        if successor.is_none() {
                            sim.clock().advance(Duration::from_millis(31_000));
                            let (next, _, _) = Workspace::open_session_as(
                                root, registry, sim.env(), "b", 30_000,
                            )
                            .expect("takes over");
                            successor = Some(next);
                        }
                    }
                }
            }
            // A fenced handle's last sync fails and discards its frames.
            if ws.sync().is_ok() {
                expected.append(&mut pending);
            }
            drop(ws);
            drop(successor);
            let bytes = sim.fs().read(&segment).expect("the segment");
            let scan = scan_frames(&bytes);
            proptest::prop_assert_eq!(&bytes[..scan.valid_len], &expected[..]);
            proptest::prop_assert_eq!(scan.trailing, 0);
        }
    }
}
