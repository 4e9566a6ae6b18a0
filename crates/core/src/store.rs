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
//!   append-only sequences of frames. Frame 0 of the first segment is
//!   the generation's base, a [`JournalOp::Snapshot`] of the whole
//!   session, synced before any MANIFEST names the generation. Every
//!   later frame is one mutating UI command (or an appended snapshot),
//!   fsynced before the command's result is reported, so an
//!   acknowledged command survives power loss.
//! - `LEASE` — the writer lease (owner, expiry, fencing token). It holds
//!   no session state, so it stays plain JSON: a damaged lease can only
//!   delay or force a takeover, which the MANIFEST's fencing token
//!   arbitrates.
//!
//! Every byte of session state on disk is thus inside a CRC frame. A
//! workspace written before frames has a plain-JSON MANIFEST naming a
//! `checkpoint-N.json` base; the MANIFEST reader and the base reader
//! here are the only code that reads that layout, and a writable open
//! re-bases it at once onto a frames-only generation.
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
//! when a snapshot would leave the generation's files larger than
//! [`ROTATE_FACTOR`] times itself.
//!
//! # Frame format
//!
//! ```text
//! [body length: u32 LE][CRC32(body): u32 LE][body]
//! ```
//!
//! A journal frame's body is one [`JournalOp`], in the layout only
//! [`encode_op`] writes and only [`decode_op`] reads:
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
//! Shared payloads ([`Payload::Shared`]) stay in the JSON. The marker
//! byte starts no JSON text: a body written before raw payloads is the
//! operation's JSON with hex payloads, and the decoder still reads it.
//! A body must account for every byte of every section; one that does
//! not is unparsable, like any other. MANIFEST is one frame whose body
//! is its JSON document.
//!
//! The CRC is IEEE 802.3 (the zlib/PNG polynomial), computed by
//! [`hercules_digest::crc32`], which also frames cache entries; it
//! covers every payload byte. A torn tail — a frame whose length field
//! runs past end-of-file, or whose checksum does not match — ends the
//! journal: recovery truncates the file back to the last valid frame,
//! reports how many bytes were discarded, and never panics or fails on
//! any prefix of a well-formed journal. A damaged base is never a torn
//! tail, since it was synced before the generation existed: `open`
//! fails with [`StoreError::Corrupt`] and changes nothing on disk.
//!
//! # Write path
//!
//! Every frame of session state goes through [`encode_op`]: each
//! command's, and each snapshot's (`save`, appended and rotating
//! checkpoints, and the re-base of `scrub` and of a legacy `open`). It
//! serializes the operation's JSON without its payloads, copies each
//! inline payload once, into the frame, and fills the 8-byte header in
//! place. The journal has one write path. [`Workspace::append_deferred`]
//! encodes a frame into the handle's pending buffer; [`Workspace::sync`]
//! writes every pending frame with one `write` and makes them durable
//! with one `fsync`, then rolls the segment once it reaches its size
//! bound. [`Workspace::append`] is the two in sequence, so one command
//! costs one `write` + one `fsync`, and a caller that acknowledges
//! several operations at once pays one `fsync` for all of them. A
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
//!   frames when they follow a base it can read.
//!
//! After reopening, [`Session::resume`] re-runs only the failed and
//! skipped subtasks of an interrupted partial execution, serving the
//! already committed ones from the design history as cache hits.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hercules_digest::crc32;
use hercules_exec::EncapsulationRegistry;
use hercules_flow::NodeId;
use hercules_history::{HistorySpec, InstanceId, InstanceSpec, Payload};
use hercules_obs::{names, Metrics};
use hercules_schema::TaskSchema;
use hercules_sim::{Env, Fs, FsFile};
use serde::{Deserialize, Serialize};

use crate::error::HerculesError;
use crate::persist::{ExecReportSpec, FlowOp, SessionSpec};
use crate::session::{ExecEvent, Session};

// ---------------------------------------------------------------------
// Checksummed frames.
// ---------------------------------------------------------------------

/// Encodes one journal frame: `[len u32 LE][crc32 u32 LE][payload]`.
///
/// # Errors
///
/// [`StoreError::Format`] when the payload is 4 GiB or more, too long
/// for the length field.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = frame_len(payload.len())?;
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// A payload length as the frame's `u32` length field. A cast would
/// wrap a longer one: the frame would be acknowledged, then dropped by
/// recovery as a torn tail together with every later frame.
fn frame_len(len: usize) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| {
        StoreError::Format(format!(
            "journal frame payload of {len} bytes exceeds the 4 GiB frame limit"
        ))
    })
}

/// The result of scanning a journal buffer for valid frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Payloads of the valid frames, in order.
    pub payloads: Vec<Vec<u8>>,
    /// End offset of each valid frame (`offsets[i]` is the byte length
    /// of the journal prefix containing frames `0..=i`).
    pub offsets: Vec<usize>,
    /// Length of the valid prefix; equals the last offset (or 0).
    pub valid_len: usize,
    /// Bytes after the valid prefix — a torn or corrupt tail.
    pub trailing: usize,
}

/// Scans `buf` for consecutive valid frames, stopping at the first
/// torn (length past end-of-buffer) or corrupt (checksum mismatch)
/// frame. Never panics: any byte sequence yields a valid prefix.
pub fn scan_frames(buf: &[u8]) -> FrameScan {
    let frames = frame_payloads(buf);
    let valid_len = frames.last().map_or(0, |payload| payload.end);
    FrameScan {
        payloads: frames.iter().map(|p| buf[p.clone()].to_vec()).collect(),
        offsets: frames.iter().map(|p| p.end).collect(),
        valid_len,
        trailing: buf.len() - valid_len,
    }
}

/// [`scan_frames`] without the copies: the byte range of each valid
/// frame's payload within `buf`, in order. A frame ends where its
/// payload does.
fn frame_payloads(buf: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        if len > buf.len() - pos - 8 {
            break; // torn: the frame was not fully written
        }
        let payload = pos + 8..pos + 8 + len;
        if crc32(&buf[payload.clone()]) != crc {
            break; // corrupt: bit rot or a torn overwrite
        }
        pos = payload.end;
        frames.push(payload);
    }
    frames
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why a workspace refuses mutations while still serving reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum DegradedReason {
    /// Another writer holds an unexpired lease on the workspace.
    LeaseHeld {
        /// Owner id recorded in the lease file.
        owner: String,
        /// Unix-millisecond expiry of the foreign lease.
        expires_unix_ms: u64,
    },
    /// This handle's fencing token was superseded — a newer writer took
    /// over the lease, and every later write here must be rejected to
    /// keep the journal single-writer.
    Fenced {
        /// The newer writer's fencing token.
        token: u64,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::LeaseHeld {
                owner,
                expires_unix_ms,
            } => write!(f, "lease held by `{owner}` until unix-ms {expires_unix_ms}"),
            DegradedReason::Fenced { token } => {
                write!(f, "fenced out by a newer writer (token {token})")
            }
        }
    }
}

/// Whether a workspace handle may mutate the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteState {
    /// This handle holds the lease; mutations are accepted.
    Writable,
    /// Read-only: browsing, queries, and trace replay work, but every
    /// mutation fails with [`StoreError::Degraded`].
    Degraded(DegradedReason),
}

/// Errors from the durable store.
#[derive(Debug)]
#[allow(missing_docs)] // variant payloads are the wrapped errors
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file is damaged beyond recovery (manifest or checkpoint — the
    /// journal is always recoverable by truncation).
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

/// How many times the newest snapshot a generation's files may hold
/// before a checkpoint rotates instead of appending. An appended
/// snapshot supersedes everything before it, yet the next `open` still
/// reads and replays the whole generation, so the factor trades
/// open-time work and disk space for checkpoint-time syncs: at 4, about
/// three appended snapshots of one sync each share a rotation's four
/// syncs, while `open` reads, and the directory keeps, at most four
/// snapshots' worth. A constant, not a setting.
const ROTATE_FACTOR: u64 = 4;

/// Encodes `session` once, as the [`JournalOp::Snapshot`] frame that a
/// checkpoint appends or a new generation starts with.
///
/// # Errors
///
/// [`StoreError::Format`] when the snapshot exceeds the 4 GiB frame
/// limit.
fn snapshot_frame(session: &Session) -> Result<Vec<u8>, StoreError> {
    encode_op(&JournalOp::Snapshot(Box::new(SessionSpec::from_session(
        session,
    ))))
}

// ---------------------------------------------------------------------
// Frame bodies.
// ---------------------------------------------------------------------

/// The first byte of every frame body [`encode_op`] writes. No JSON
/// text starts with it (it is not even UTF-8), so it tells the body
/// apart from one written before raw payloads, which is the operation's
/// JSON and starts with `{` or `"`.
const RAW_BODY: u8 = 0xFF;

/// Encodes `op` as one journal frame, header included, its body in the
/// layout the module docs give under *Frame format*: the JSON with each
/// inline payload an empty placeholder (`""`), then the payloads raw.
/// Each payload is copied once, into the frame; none is hex-encoded.
///
/// # Errors
///
/// [`StoreError::Format`] when the body is 4 GiB or more, too long for
/// the frame's length field.
pub fn encode_op(op: &JournalOp) -> Result<Vec<u8>, StoreError> {
    let mut payloads = Vec::new();
    let json = serde_json::to_vec(&*skeleton(op, &mut payloads))?;
    let raw: usize = payloads.iter().map(|payload| payload.len()).sum();
    let body = 1 + 4 + json.len() + 4 + 4 * payloads.len() + raw;
    // Every length below is at most `body`, so each fits its u32 field.
    let len = frame_len(body)?;
    let put_len =
        |frame: &mut Vec<u8>, n: usize| frame.extend_from_slice(&(n as u32).to_le_bytes());
    let mut frame = Vec::with_capacity(8 + body);
    frame.extend_from_slice(&[0; 8]); // the header, filled in below
    frame.push(RAW_BODY);
    put_len(&mut frame, json.len());
    frame.extend_from_slice(&json);
    put_len(&mut frame, payloads.len());
    for payload in &payloads {
        put_len(&mut frame, payload.len());
    }
    for payload in &payloads {
        frame.extend_from_slice(payload);
    }
    let crc = crc32(&frame[8..]);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(frame)
}

/// `op` with every inline payload an empty placeholder, pushing the
/// payloads to `payloads` in document order; `op` itself when it holds
/// none. Only the records' metadata is copied.
fn skeleton<'a>(op: &'a JournalOp, payloads: &mut Vec<&'a [u8]>) -> Cow<'a, JournalOp> {
    let inline = |records: &[InstanceSpec]| {
        records
            .iter()
            .any(|record| matches!(record.data, Some(Payload::Inline(_))))
    };
    let mut strip = |records: &'a [InstanceSpec]| -> Vec<InstanceSpec> {
        records
            .iter()
            .map(|record| InstanceSpec {
                entity: record.entity.clone(),
                user: record.user.clone(),
                created: record.created,
                name: record.name.clone(),
                comment: record.comment.clone(),
                keywords: record.keywords.clone(),
                data: match &record.data {
                    Some(Payload::Inline(bytes)) => {
                        payloads.push(bytes);
                        Some(Payload::Inline(Vec::new()))
                    }
                    data => data.clone(),
                },
                tool: record.tool,
                inputs: record.inputs.clone(),
            })
            .collect()
    };
    match op {
        JournalOp::Exec(spec) if inline(&spec.instances) => Cow::Owned(JournalOp::Exec(ExecSpec {
            instances: strip(&spec.instances),
            report: spec.report.clone(),
            event: spec.event.clone(),
        })),
        JournalOp::Snapshot(spec) if inline(&spec.history.instances) => {
            Cow::Owned(JournalOp::Snapshot(Box::new(SessionSpec {
                schema: spec.schema.clone(),
                history: HistorySpec {
                    instances: strip(&spec.history.instances),
                },
                catalog: spec.catalog.clone(),
                user: spec.user.clone(),
                flow_ops: spec.flow_ops.clone(),
                binding: spec.binding.clone(),
                events: spec.events.clone(),
                last_exec: spec.last_exec.clone(),
            })))
        }
        _ => Cow::Borrowed(op),
    }
}

/// Decodes one frame body, as [`scan_frames`] yields it: the layout
/// [`encode_op`] writes, or a body written before it, which is the
/// operation's JSON with hex (or byte-array) payloads. The body must
/// account for every byte of every section.
///
/// # Errors
///
/// [`StoreError::Format`] when the JSON does not parse as an operation,
/// a length runs past the body, bytes are left after the last payload,
/// the payload count differs from the placeholders, or a placeholder
/// holds bytes.
pub fn decode_op(body: &[u8]) -> Result<JournalOp, StoreError> {
    let Some((&RAW_BODY, mut rest)) = body.split_first() else {
        return Ok(serde_json::from_slice(body)?);
    };
    let json_len = take_len(&mut rest)?;
    let mut op: JournalOp = serde_json::from_slice(take(&mut rest, json_len)?)?;
    let count = take_len(&mut rest)?;
    let mut lengths = take(&mut rest, count.saturating_mul(4))?;
    let slots: Vec<&mut Vec<u8>> = match &mut op {
        JournalOp::Exec(spec) => &mut spec.instances[..],
        JournalOp::Snapshot(spec) => &mut spec.history.instances[..],
        _ => &mut [],
    }
    .iter_mut()
    .filter_map(|record| match &mut record.data {
        Some(Payload::Inline(bytes)) => Some(bytes),
        _ => None,
    })
    .collect();
    if slots.len() != count {
        return Err(body_error(format!(
            "{count} payload(s) for {} placeholder(s)",
            slots.len()
        )));
    }
    for slot in slots {
        if !slot.is_empty() {
            return Err(body_error("a payload placeholder holds bytes".into()));
        }
        let len = take_len(&mut lengths)?;
        *slot = take(&mut rest, len)?.to_vec();
    }
    if !rest.is_empty() {
        return Err(body_error(format!(
            "{} byte(s) after the last payload",
            rest.len()
        )));
    }
    Ok(op)
}

/// Splits the next `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], StoreError> {
    if n > rest.len() {
        return Err(body_error(format!(
            "a {n}-byte section overruns the {} byte(s) left",
            rest.len()
        )));
    }
    let (section, after) = rest.split_at(n);
    *rest = after;
    Ok(section)
}

/// Splits a `u32 LE` length off the front of `rest`.
fn take_len(rest: &mut &[u8]) -> Result<usize, StoreError> {
    let bytes = take(rest, 4)?.try_into().expect("four bytes");
    Ok(usize::try_from(u32::from_le_bytes(bytes)).unwrap_or(usize::MAX))
}

/// The error for a frame body that does not decode.
fn body_error(detail: String) -> StoreError {
    StoreError::Format(format!("frame body: {detail}"))
}

// ---------------------------------------------------------------------
// Manifest, generation base and recovery report.
// ---------------------------------------------------------------------

/// The MANIFEST file name.
const MANIFEST_FILE: &str = "MANIFEST";

/// The workspace manifest: which generation is current, its segment
/// chain, and the highest fencing token ever granted. Swapped
/// atomically so it always names a complete generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    pub(crate) generation: u64,
    /// Every journal segment of this generation, oldest first; the last
    /// is the active one. Never empty.
    #[serde(default)]
    pub(crate) segments: Vec<String>,
    /// Monotonic fencing token: bumped every time a writer acquires the
    /// lease. A deposed writer's token is smaller, so its writes are
    /// rejected after takeover.
    #[serde(default)]
    pub(crate) fencing_token: u64,
    /// A legacy manifest's base: the checkpoint file the whole chain
    /// replays on top of. Never written; `None` when the base is frame 0
    /// of the first segment.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    checkpoint: Option<String>,
    /// A legacy pre-segment manifest's one journal file. Never written.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    journal: Option<String>,
}

impl Manifest {
    /// Whether `name` is one of the generation's files.
    pub(crate) fn names(&self, name: &str) -> bool {
        self.segments.iter().any(|s| s == name) || self.checkpoint.as_deref() == Some(name)
    }
}

/// Reads MANIFEST: one valid CRC frame spanning the whole file, or else
/// the plain-JSON manifest of a workspace written before frames, which
/// must name its checkpoint. A damaged framed MANIFEST never parses as
/// JSON: its frame header holds NUL bytes.
///
/// # Errors
///
/// [`StoreError::Io`] when MANIFEST cannot be read, and
/// [`StoreError::Corrupt`] when it is neither form.
pub(crate) fn read_manifest(fs: &Fs, dir: &Path) -> Result<Manifest, StoreError> {
    let bytes = fs.read(&dir.join(MANIFEST_FILE))?;
    let frames = frame_payloads(&bytes);
    let framed = matches!(&frames[..], [payload] if payload.end == bytes.len());
    let doc = if framed { &bytes[8..] } else { &bytes[..] };
    let corrupt = |detail: String| StoreError::Corrupt {
        detail: format!("{MANIFEST_FILE}: {detail}"),
    };
    let mut manifest: Manifest = serde_json::from_slice(doc).map_err(|e| corrupt(e.to_string()))?;
    if !framed && manifest.checkpoint.is_none() {
        return Err(corrupt(
            "neither one CRC frame nor a legacy manifest".into(),
        ));
    }
    if manifest.segments.is_empty() {
        manifest.segments.extend(manifest.journal.take());
    }
    if manifest.segments.is_empty() {
        return Err(corrupt("names no journal segment".into()));
    }
    Ok(manifest)
}

/// A generation's base snapshot, found but not yet decoded: frame 0 of
/// its first segment or, in a legacy generation, its checkpoint file.
pub(crate) struct Base<'a> {
    /// Frame 0's payload, or the checkpoint file.
    bytes: Cow<'a, [u8]>,
    /// `true` for frame 0.
    framed: bool,
}

impl<'a> Base<'a> {
    /// Finds the base of the generation `manifest` names, `first` being
    /// the bytes of its first segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when the base is missing: `first` does
    /// not start with a CRC-valid frame, or a legacy checkpoint file
    /// cannot be read.
    pub(crate) fn find(
        fs: &Fs,
        dir: &Path,
        manifest: &Manifest,
        first: &'a [u8],
    ) -> Result<Base<'a>, StoreError> {
        let (bytes, framed) = match &manifest.checkpoint {
            Some(checkpoint) => match fs.read(&dir.join(checkpoint)) {
                Ok(bytes) => (Cow::Owned(bytes), false),
                Err(e) => return Err(corrupt_base(format!("{checkpoint}: {e}"))),
            },
            None => match frame_payloads(first).into_iter().next() {
                Some(frame) => (Cow::Borrowed(&first[frame]), true),
                None => {
                    let first = &manifest.segments[0];
                    return Err(corrupt_base(format!("{first} holds no valid frame 0")));
                }
            },
        };
        Ok(Base { bytes, framed })
    }

    /// Bytes the base takes on disk.
    pub(crate) fn len(&self) -> u64 {
        self.bytes.len() as u64 + if self.framed { 8 } else { 0 }
    }

    /// How many frames of the first segment the base takes: the
    /// journaled operations start after them.
    pub(crate) fn frames(&self) -> usize {
        usize::from(self.framed)
    }

    /// Decodes the snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when frame 0 is not a
    /// [`JournalOp::Snapshot`], or a legacy checkpoint is not a session
    /// document.
    pub(crate) fn decode(&self) -> Result<SessionSpec, StoreError> {
        let spec = if self.framed {
            match decode_op(&self.bytes) {
                Ok(JournalOp::Snapshot(spec)) => Ok(*spec),
                Ok(_) => Err("frame 0 is not a snapshot".to_owned()),
                Err(e) => Err(e.to_string()),
            }
        } else {
            serde_json::from_slice(&self.bytes).map_err(|e| e.to_string())
        };
        spec.map_err(corrupt_base)
    }
}

/// The error for a missing or undecodable generation base.
fn corrupt_base(detail: String) -> StoreError {
    StoreError::Corrupt {
        detail: format!("generation base: {detail}"),
    }
}

/// The writer-lease file: who may mutate the workspace, until when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct LeaseDoc {
    /// Owner id (process, server, or user-chosen tag).
    pub(crate) owner: String,
    /// Unix-millisecond expiry; a lease past this is up for takeover.
    pub(crate) expires_unix_ms: u64,
    /// The fencing token granted with this lease.
    pub(crate) token: u64,
}

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
struct SnapshotTail {
    /// Bytes of the newest snapshot frame, header included: the base,
    /// until a checkpoint appends one.
    snapshot: u64,
    /// Bytes of the frames after it, pending ones included.
    since: u64,
}

impl SnapshotTail {
    /// The tail of a generation whose newest snapshot is the last frame.
    fn new(snapshot: u64) -> SnapshotTail {
        SnapshotTail { snapshot, since: 0 }
    }

    /// Accounts for one more `frame`-byte frame at the journal's end.
    fn push(&mut self, frame: u64, is_snapshot: bool) {
        if is_snapshot {
            *self = SnapshotTail::new(frame);
        } else {
            self.since += frame;
        }
    }

    /// Whether a checkpoint must write a snapshot even for a fully
    /// journaled session: replaying the frames since the newest one
    /// would read at least as many bytes as a new one.
    fn needs_snapshot(&self) -> bool {
        self.since >= self.snapshot
    }
}

/// Per-segment result of a [`Workspace::scrub`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SegmentScrub {
    /// Segment file name.
    pub name: String,
    /// CRC-valid frames found.
    pub frames_ok: usize,
    /// Bytes of the CRC-valid prefix.
    pub bytes_ok: u64,
    /// Damaged bytes past the valid prefix (0 when clean).
    pub damaged_bytes: u64,
    /// `false` when the segment could not be read at all.
    pub readable: bool,
    /// Quarantine files the damage was preserved under, if repaired.
    pub quarantined_as: Vec<String>,
}

/// What a [`Workspace::scrub`] pass verified, found, and repaired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScrubReport {
    /// Generation that was scrubbed.
    pub generation: u64,
    /// Per-segment verification results, chain order.
    pub segments: Vec<SegmentScrub>,
    /// `true` when any damage was found.
    pub damaged: bool,
    /// `true` when damage was quarantined and the store re-baselined
    /// onto a fresh generation.
    pub repaired: bool,
    /// The fencing token the scrub ran under.
    pub fencing_token: u64,
}

impl ScrubReport {
    /// The report as a JSON object (for logs and tooling).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frames: usize = self.segments.iter().map(|s| s.frames_ok).sum();
        write!(
            f,
            "generation {}: {} segment(s), {} frame(s) verified",
            self.generation,
            self.segments.len(),
            frames
        )?;
        for seg in &self.segments {
            if !seg.readable {
                write!(f, "; segment {} unreadable", seg.name)?;
            } else if seg.damaged_bytes > 0 {
                write!(
                    f,
                    "; segment {}: {} damaged byte(s)",
                    seg.name, seg.damaged_bytes
                )?;
            }
        }
        if self.repaired {
            write!(f, "; damage quarantined, store re-baselined")?;
        } else if self.damaged {
            write!(f, "; damage found, not repaired (read-only)")?;
        } else {
            write!(f, "; clean")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The workspace.
// ---------------------------------------------------------------------

/// Writes `name` under `dir` atomically: temp file, fsync, rename,
/// directory fsync. Readers see either the old file or the new one,
/// never a torn mixture. All I/O goes through `fs`, so under
/// simulation a crash can land between any two of these steps.
fn write_atomic(fs: &Fs, dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
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
fn start_generation(
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
fn retire<'a>(fs: &Fs, dir: &Path, files: impl IntoIterator<Item = &'a String>) {
    for file in files {
        let _ = fs.remove_file(&dir.join(file));
    }
}

/// Atomically swaps in the MANIFEST naming the segment chain `segments`
/// (oldest first; the last is the active journal) of `generation`,
/// under `fencing_token`, as one CRC frame. Every file it names must
/// already be durable (see [`create_segment`]).
fn publish_manifest(
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
        checkpoint: None,
        journal: None,
    };
    let frame = encode_frame(serde_json::to_string(&manifest)?.as_bytes())?;
    write_atomic(fs, dir, MANIFEST_FILE, &frame)
}

/// Name of journal segment `seq` of `generation`: `journal-N.log` for
/// the head, `journal-N.K.log` after it. The head keeps the single-file
/// name of pre-segment workspaces, so they open unchanged.
fn segment_name(generation: u64, seq: u64) -> String {
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

/// Whether `name` looks like a generation's file: a journal segment
/// or a legacy checkpoint.
pub(crate) fn is_generation_file(name: &str) -> bool {
    (name.starts_with("journal-") && name.ends_with(".log"))
        || (name.starts_with("checkpoint-") && name.ends_with(".json"))
}

/// The writer-lease file name.
pub(crate) const LEASE_FILE: &str = "LEASE";

/// Default segment-roll threshold. Large enough that rotation never
/// triggers unless a caller opts in via
/// [`Workspace::set_segment_max_bytes`].
const DEFAULT_SEGMENT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Default writer-lease duration.
const DEFAULT_LEASE_MS: u64 = 30_000;

/// Default owner id for leases taken by direct (non-server) opens.
const DEFAULT_OWNER: &str = "local";

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
fn quarantine_bytes(fs: &Fs, dir: &Path, name: &str, bytes: &[u8]) -> Result<String, StoreError> {
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
fn quarantine_rename(fs: &Fs, dir: &Path, name: &str) -> Result<Option<String>, StoreError> {
    if !fs.exists(&dir.join(name)) {
        return Ok(None);
    }
    let target = quarantine_target(fs, dir, name);
    fs.rename(&dir.join(name), &dir.join(&target))?;
    fs.sync_dir(dir)?;
    Ok(Some(target))
}

/// Reads and parses the lease file. A missing or unparsable lease is
/// treated as absent — the manifest's fencing token is the durable
/// record takeover arbitration falls back to.
pub(crate) fn read_lease(fs: &Fs, dir: &Path) -> Option<LeaseDoc> {
    let bytes = fs.read(&dir.join(LEASE_FILE)).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// The error for write paths reached without a journal handle (only
/// possible in degraded mode, which rejects them earlier).
fn journal_missing() -> StoreError {
    StoreError::Io(std::io::Error::other(
        "no journal handle (workspace is read-only)",
    ))
}

/// Writes the lease file atomically.
fn write_lease(
    fs: &Fs,
    dir: &Path,
    owner: &str,
    expires_unix_ms: u64,
    token: u64,
) -> Result<(), StoreError> {
    let doc = LeaseDoc {
        owner: owner.to_owned(),
        expires_unix_ms,
        token,
    };
    write_atomic(fs, dir, LEASE_FILE, serde_json::to_string(&doc)?.as_bytes())
}

/// Counts complete, CRC-valid frames anywhere inside `buf` (a damaged
/// region): used to report how many acknowledged-looking operations a
/// quarantine preserved beyond the recovered prefix.
fn count_resync_frames(buf: &[u8]) -> usize {
    let mut count = 0;
    let mut pos = 0;
    while pos + 8 <= buf.len() {
        let frames = frame_payloads(&buf[pos..]);
        match frames.last() {
            None => pos += 1,
            Some(last) => {
                count += frames.len();
                pos += last.end.max(1);
            }
        }
    }
    count
}

/// Looks for a complete, CRC-valid frame starting anywhere inside
/// `buf`. Distinguishes a pure torn tail (no frame can follow a tear —
/// truncation is lossless) from mid-journal rot or a write hole, where
/// valid frames sit beyond the damage and must be quarantined rather
/// than silently truncated away.
fn has_resync_frame(buf: &[u8]) -> bool {
    count_resync_frames(buf) > 0
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
    pending: Vec<u8>,
    /// Bytes appended to the active segment so far, pending ones
    /// included.
    active_len: u64,
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
            retire(&env.fs, root, old.segments.iter().chain(&old.checkpoint));
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
            generation_bytes: len,
            tail: SnapshotTail::new(len),
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            metrics: Metrics::disabled(),
            env,
            poisoned: None,
            write_state: WriteState::Writable,
            owner: DEFAULT_OWNER.into(),
            lease_ms: DEFAULT_LEASE_MS,
            token,
            lease_expires_ms: expires,
        })
    }

    /// Opens the workspace at `root` and recovers its session:
    /// restores the generation's base (frame 0 of its first segment),
    /// replays the journal frames after it, and truncates any torn,
    /// corrupt, or unreplayable tail back to the last valid operation.
    /// Recovery never panics and never fails on a torn journal — only
    /// on I/O errors or a damaged MANIFEST or base, which were durable
    /// before anything named them and so are only damaged by media
    /// corruption; such an open changes nothing on disk. A writable
    /// open of a workspace written before frames re-bases it at once
    /// onto a new generation.
    ///
    /// `registry_for` builds the tool registry for the restored schema
    /// (code cannot be persisted); pass
    /// `|s| hercules::encaps::odyssey_registry(s)` for the standard
    /// tool set.
    ///
    /// # Errors
    ///
    /// I/O errors; [`StoreError::Corrupt`] for a damaged MANIFEST or a
    /// missing, torn or undecodable base; or a base whose own restore
    /// fails.
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
        let (mut session, base_frames, mut tail) = {
            let base = Base::find(&env.fs, root, &manifest, &first)?;
            let session = base.decode()?.restore_with(registry_for)?;
            (session, base.frames(), SnapshotTail::new(base.len()))
        };
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
            let skip = if i == 0 { base_frames } else { 0 };
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
                    let base = Base::find(&env.fs, root, &manifest, &head)?;
                    session = base.decode()?.restore(registry)?;
                    for (k, earlier) in seg_reports.iter().enumerate() {
                        let buf = env.fs.read(&root.join(&segments[k]))?;
                        let from = if k == 0 { base_frames } else { 0 };
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
            let trailing = buf.len() - keep;
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
                    // converges on the same prefix.
                    for j in (dmg.index + 1..segments.len()).rev() {
                        let name = &segments[j];
                        let (frames, len) = match env.fs.read(&root.join(name)) {
                            Ok(buf) => (count_resync_frames(&buf), buf.len() as u64),
                            Err(_) => (0, 0),
                        };
                        let quarantined_as = quarantine_rename(&env.fs, root, name)?;
                        bytes_discarded += len;
                        seg_reports.push(SegmentRecovery {
                            name: name.clone(),
                            frames_replayed: 0,
                            frames_quarantined: frames,
                            bytes_kept: 0,
                            bytes_discarded: len,
                            quarantined_as: quarantined_as.into_iter().collect(),
                        });
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

        let legacy = manifest.checkpoint.is_some();
        let mut token = manifest.fencing_token;
        if writable {
            // Acquire the lease: bump the fencing token past everything
            // ever granted, persist it in the manifest (along with any
            // repairs), then publish the lease. A deposed writer
            // re-reading the lease sees a larger token and fences
            // itself. A legacy MANIFEST is only ever replaced by the
            // re-basing rotation below.
            token = manifest
                .fencing_token
                .max(lease.as_ref().map(|l| l.token).unwrap_or(0))
                + 1;
            if !legacy {
                publish_manifest(&env.fs, root, manifest.generation, &kept_segments, token)?;
            }
            write_lease(&env.fs, root, owner, now_ms + lease_ms, token)?;
        }

        let active_name = kept_segments.last().expect("chain is never empty").clone();
        let journal_path = root.join(&active_name);
        let (journal, active_len) = if writable {
            let handle = env.fs.open_append(&journal_path)?;
            let len = seg_reports
                .iter()
                .find(|s| s.name == active_name)
                .map(|s| s.bytes_kept)
                .unwrap_or(0);
            (Some(handle), len)
        } else {
            (None, 0)
        };

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
        let mut workspace = Workspace {
            root: root.to_owned(),
            generation: manifest.generation,
            journal,
            journal_path,
            segments: kept_segments,
            pending: Vec::new(),
            active_len,
            generation_bytes,
            tail,
            segment_max_bytes: DEFAULT_SEGMENT_MAX_BYTES,
            metrics: Metrics::disabled(),
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
        if writable && legacy {
            // Re-base a legacy generation at once, so no writable
            // handle ever sees a checkpoint file: the rotation retires
            // the old segments, and the checkpoint goes with them.
            workspace.rotate(snapshot_frame(&session)?)?;
            retire(&workspace.env.fs, root, &manifest.checkpoint);
        }
        // Replay went through the session's marking methods, yet the
        // recovered session is exactly what the generation holds.
        session.mark_journaled();
        Ok((workspace, session, report))
    }

    /// Returns the workspace directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Returns the current checkpoint generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this handle may mutate the store, and if not, why.
    pub fn write_state(&self) -> &WriteState {
        &self.write_state
    }

    /// `true` when mutations are accepted (the handle holds the lease).
    pub fn is_writable(&self) -> bool {
        matches!(self.write_state, WriteState::Writable)
    }

    /// The fencing token this handle writes under.
    pub fn fencing_token(&self) -> u64 {
        self.token
    }

    /// The owner id this handle leases the store as.
    pub fn owner(&self) -> &str {
        &self.owner
    }

    /// Milliseconds until this handle's lease expires — negative once
    /// it is already past — or `None` when the handle never acquired
    /// a lease (degraded open). Renewals on the write path push the
    /// expiry forward.
    pub fn lease_remaining_ms(&self) -> Option<i64> {
        if self.lease_expires_ms == 0 {
            return None;
        }
        Some(self.lease_expires_ms as i64 - self.env.clock.wall_unix_ms() as i64)
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
    /// pending frames, none of which was acknowledged.
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
        let frame = encode_op(op)?;
        self.metrics
            .observe("store.append_bytes", frame.len() as u64);
        self.defer_frame(frame);
        Ok(())
    }

    /// Queues an encoded frame for the next flush.
    fn defer_frame(&mut self, frame: Vec<u8>) {
        self.active_len += frame.len() as u64;
        self.generation_bytes += frame.len() as u64;
        self.tail.push(frame.len() as u64, false);
        if self.pending.is_empty() {
            // One frame per sync is the common case: no copy.
            self.pending = frame;
        } else {
            self.pending.extend_from_slice(&frame);
        }
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

    /// The journal's one write path: writes every pending frame with
    /// one `write_all` and makes them durable with one `sync_data`. A
    /// fenced handle discards them instead, since another writer owns
    /// the journal now; a write or fsync error poisons the handle.
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
        // Taken, not cleared, so a large batch's buffer is freed once
        // written instead of staying allocated for the session.
        let batch = std::mem::take(&mut self.pending);
        let mut result = journal.write_all(&batch);
        if result.is_ok() {
            let fsync_started = self.env.clock.now();
            result = journal.sync_data();
            self.metrics
                .observe_duration("store.fsync_ns", self.env.clock.since(fsync_started));
        }
        if let Err(e) = result {
            self.poisoned = Some(e.to_string());
            return Err(StoreError::Io(e));
        }
        Ok(())
    }

    /// Fails if an earlier failed write or fsync poisoned the journal.
    fn check_poisoned(&self) -> Result<(), StoreError> {
        match &self.poisoned {
            Some(error) => Err(StoreError::Io(std::io::Error::other(error.clone()))),
            None => Ok(()),
        }
    }

    /// Fails unless this handle currently holds the writer lease.
    ///
    /// The fast path is pure arithmetic: while the cached lease expiry
    /// is in the future, nothing is read or written. Once it passes,
    /// the lease file is re-read to arbitrate: if our token still
    /// stands the lease is renewed; if a larger token appears (lease or
    /// manifest), another writer took over and this handle fences
    /// itself permanently — its queued work is discarded, never
    /// written. A caller that is about to change state it will journal
    /// checks this first, so a refused change never happens.
    ///
    /// # Errors
    ///
    /// [`StoreError::Degraded`] when the handle opened read-only or a
    /// newer writer fenced it out; an I/O error when renewing the lease
    /// fails.
    pub fn check_writable(&mut self) -> Result<(), StoreError> {
        if let WriteState::Degraded(reason) = &self.write_state {
            return Err(StoreError::Degraded(reason.clone()));
        }
        let now = self.env.clock.wall_unix_ms();
        if now < self.lease_expires_ms {
            return Ok(());
        }
        let fence = |token: u64| DegradedReason::Fenced { token };
        match read_lease(&self.env.fs, &self.root) {
            Some(lease) if lease.token == self.token => {}
            Some(lease) if lease.token > self.token => {
                let reason = fence(lease.token);
                self.write_state = WriteState::Degraded(reason.clone());
                self.metrics.incr(names::STORE_FENCED_WRITES, 1);
                return Err(StoreError::Degraded(reason));
            }
            _ => {
                // No lease (or an older one): the manifest's token is
                // the durable arbitration record.
                if let Ok(manifest) = read_manifest(&self.env.fs, &self.root) {
                    if manifest.fencing_token > self.token {
                        let reason = fence(manifest.fencing_token);
                        self.write_state = WriteState::Degraded(reason.clone());
                        self.metrics.incr(names::STORE_FENCED_WRITES, 1);
                        return Err(StoreError::Degraded(reason));
                    }
                }
            }
        }
        let expires = now + self.lease_ms;
        write_lease(&self.env.fs, &self.root, &self.owner, expires, self.token)?;
        self.lease_expires_ms = expires;
        self.metrics.incr(names::STORE_LEASE_RENEWALS, 1);
        Ok(())
    }

    /// Rolls the active segment once it has reached the size bound:
    /// starts `journal-G.K.log` and publishes the grown chain in the
    /// MANIFEST. Runs only after a flush, so a batch never straddles
    /// two segments.
    fn maybe_roll(&mut self) -> Result<(), StoreError> {
        if self.active_len < self.segment_max_bytes {
            return Ok(());
        }
        self.check_writable()?;
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
        self.metrics.incr(names::STORE_SEGMENT_ROLLS, 1);
        Ok(())
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

    /// Releases the writer lease, if this handle still holds it. A
    /// deposed handle's lease file belongs to the *new* writer (larger
    /// token) and is left untouched. Best-effort: failure to remove an
    /// expired lease only delays the next takeover.
    fn release_lease(&self) {
        if !self.is_writable() {
            return;
        }
        if let Some(lease) = read_lease(&self.env.fs, &self.root) {
            if lease.token == self.token {
                let _ = self.env.fs.remove_file(&self.root.join(LEASE_FILE));
            }
        }
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
    ///   generation's files larger than [`ROTATE_FACTOR`] times it, or
    ///   when the handle is poisoned: starts `journal-(N+1)` holding the
    ///   snapshot as its frame 0, swaps the manifest, then deletes the
    ///   old generation's files (best-effort — a crash between the
    ///   manifest swap and the deletes leaves harmless orphans). The
    ///   fresh generation clears the poison.
    ///
    /// After any checkpoint the frames after the newest snapshot hold
    /// fewer bytes than it, so `open` replays at most that much on top
    /// of it; a generation's files exceed [`ROTATE_FACTOR`] times its
    /// newest snapshot only by those frames.
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
    fn rotate(&mut self, frame: Vec<u8>) -> Result<(), StoreError> {
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

    /// Verifies every byte of the store — every frame of every journal
    /// segment, the base in frame 0 included — and, when writable,
    /// repairs any damage found: damaged regions and unreadable
    /// segments are quarantined aside (never silently dropped), then
    /// the store rotates to a new generation based on the live
    /// `session`, re-baselining onto known-good files. In degraded mode
    /// the scan still runs but nothing is mutated (`repaired` stays
    /// `false`).
    ///
    /// The live session supersedes everything journaled — every
    /// acknowledged operation is already applied to it — so the
    /// re-baseline loses nothing; the quarantine files preserve the
    /// rotted bytes for forensics.
    ///
    /// # Errors
    ///
    /// I/O errors during the scan or repair; a lease loss surfaces as
    /// [`StoreError::Degraded`].
    pub fn scrub(&mut self, session: &Session) -> Result<ScrubReport, StoreError> {
        let generation = self.generation;
        if self.is_writable() {
            // Queued frames must hit the disk before the scan reads it.
            self.sync()?;
        }
        self.metrics.incr(names::STORE_SCRUBS, 1);
        let mut segments = Vec::new();
        let mut damaged = false;
        for name in self.segments.clone() {
            match self.env.fs.read(&self.root.join(&name)) {
                Ok(buf) => {
                    self.metrics
                        .incr(names::STORE_SCRUB_BYTES, buf.len() as u64);
                    let frames = frame_payloads(&buf);
                    let valid_len = frames.last().map_or(0, |payload| payload.end);
                    let trailing = (buf.len() - valid_len) as u64;
                    damaged |= trailing > 0;
                    segments.push(SegmentScrub {
                        name,
                        frames_ok: frames.len(),
                        bytes_ok: valid_len as u64,
                        damaged_bytes: trailing,
                        readable: true,
                        quarantined_as: Vec::new(),
                    });
                }
                Err(_) => {
                    damaged = true;
                    segments.push(SegmentScrub {
                        name,
                        frames_ok: 0,
                        bytes_ok: 0,
                        damaged_bytes: 0,
                        readable: false,
                        quarantined_as: Vec::new(),
                    });
                }
            }
        }
        let mut repaired = false;
        if damaged && self.is_writable() {
            self.check_writable()?;
            // Preserve every damaged byte range aside first; the
            // checkpoint below retires the damaged files only after
            // their evidence is safe.
            for seg in &mut segments {
                if !seg.readable {
                    if let Some(q) = quarantine_rename(&self.env.fs, &self.root, &seg.name)? {
                        seg.quarantined_as.push(q);
                    }
                } else if seg.damaged_bytes > 0 {
                    let buf = self.env.fs.read(&self.root.join(&seg.name))?;
                    let q = quarantine_bytes(
                        &self.env.fs,
                        &self.root,
                        &seg.name,
                        &buf[seg.bytes_ok as usize..],
                    )?;
                    self.metrics
                        .observe(names::STORE_QUARANTINED_BYTES, seg.damaged_bytes);
                    seg.quarantined_as.push(q);
                }
            }
            // The live session holds every acknowledged operation, so a
            // fresh generation re-baselines without loss — and retires
            // the damaged files, which an appended snapshot would not.
            self.check_writable()?;
            self.rotate(snapshot_frame(session)?)?;
            repaired = true;
        }
        if damaged {
            self.metrics.incr(names::STORE_SCRUB_DAMAGE, 1);
        }
        Ok(ScrubReport {
            generation,
            segments,
            damaged,
            repaired,
            fencing_token: self.token,
        })
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
    use super::*;
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
        for payload in [b"alpha".as_slice(), b"".as_slice(), b"gamma!".as_slice()] {
            buf.extend_from_slice(&encode_frame(payload).expect("frames"));
        }
        let scan = scan_frames(&buf);
        assert_eq!(
            scan.payloads,
            vec![b"alpha".to_vec(), Vec::new(), b"gamma!".to_vec()]
        );
        assert_eq!(scan.valid_len, buf.len());
        assert_eq!(scan.trailing, 0);
        assert_eq!(scan.offsets.last(), Some(&buf.len()));
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
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let mut bytes = fs::read(&journal_path).expect("reads");
        let valid = bytes.len();
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
        let kept = netlist_record(Payload::Inline(b"kept".to_vec()));
        ws.append(&exec_op(vec![kept])).expect("appends");
        let valid = netlist_record(Payload::Inline(b"dropped".to_vec()));
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
            ..netlist_record(Payload::Inline(b"ghost".to_vec()))
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
        netlist_record(Payload::Inline(b"direct".to_vec()))
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
        let big = exec_op(vec![netlist_record(Payload::Inline(vec![
            7;
            snapshot as usize
        ]))]);
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
        let payloads: Vec<Vec<u8>> = document
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
            body.extend(payload);
        }
        assert_eq!(snapshot, encode_frame(&body).expect("frames"));
        let scan = scan_frames(&snapshot);
        assert_eq!(decode_op(&scan.payloads[0]).expect("decodes"), op);
    }

    /// The generation's files on disk: every segment, the base
    /// included.
    fn generation_disk_bytes(ws: &Workspace) -> u64 {
        ws.segments
            .iter()
            .map(|name| fs::metadata(ws.root.join(name)).expect("segment").len())
            .sum()
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
            let record = netlist_record(Payload::Inline(vec![k; 64 * (usize::from(k) + 1)]));
            let op = exec_op(vec![record]);
            op.replay(&mut session).expect("replays");
            ws.append(&op).expect("appends");
            kinds.push(ws.checkpoint(&session).expect("checkpoints"));
            let frame = snapshot_frame(&session).expect("encodes").len() as u64;
            let on_disk = generation_disk_bytes(&ws);
            assert_eq!(on_disk, ws.generation_bytes, "checkpoint {k}: bookkeeping");
            assert!(
                on_disk <= ROTATE_FACTOR * frame,
                "checkpoint {k}: {on_disk} bytes over {ROTATE_FACTOR}x the {frame}-byte snapshot"
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
            generation_disk_bytes(&ws),
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
        let base_end = scan_frames(&bytes).offsets[0];
        let manifest = fs::read(root.join(MANIFEST_FILE)).expect("reads manifest");

        for cut in 0..=bytes.len() {
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
            fs::remove_dir_all(&crashed).ok();
        }
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
            if self.torn {
                return self.inner.write_all(buf);
            }
            self.torn = true;
            self.inner.write_all(&buf[..buf.len() / 2])?;
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
            .open_append(&ws.journal_path)
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
}
