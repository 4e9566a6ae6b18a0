//! Checksummed frames, and the one codec of their bodies: the layout
//! every byte of session state takes on disk (module docs, *Frame
//! format*).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use hercules_digest::crc32;
use hercules_history::{HistorySpec, InstanceSpec, Payload};

use super::{ExecSpec, JournalOp, StoreError};
use crate::persist::SessionSpec;

/// Encodes one journal frame: `[len u32 LE][crc32 u32 LE][payload]`.
///
/// # Errors
///
/// [`StoreError::Format`] when the payload is empty — a zero-length
/// frame is invalid, since zeroed free space would read as a run of
/// them — or 4 GiB or more, too long for the length field.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    if payload.is_empty() {
        return Err(StoreError::Format(
            "a journal frame payload may not be empty".into(),
        ));
    }
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
pub(super) fn frame_len(len: usize) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| {
        StoreError::Format(format!(
            "journal frame payload of {len} bytes exceeds the 4 GiB frame limit"
        ))
    })
}

/// The result of scanning a journal segment for valid frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// Payloads of the valid frames, in order.
    pub payloads: Vec<Vec<u8>>,
    /// End offset of each valid frame (`offsets[i]` is the byte length
    /// of the journal prefix containing frames `0..=i`).
    pub offsets: Vec<usize>,
    /// Length of the valid prefix; equals the last offset (or 0).
    pub valid_len: usize,
    /// Free space after the valid prefix: the zeros that run from it to
    /// the end of the buffer, which only the last segment of a chain can
    /// hold.
    pub free: usize,
    /// Damaged bytes after the valid prefix — a torn or corrupt tail.
    pub trailing: usize,
}

/// Scans `buf`, the active (last) segment of a journal, for
/// consecutive valid frames, stopping at the first torn (length past
/// end-of-buffer), empty, or corrupt (checksum mismatch) frame, and
/// classifies the bytes after them. Never panics: any byte sequence
/// yields a valid prefix.
pub fn scan_frames(buf: &[u8]) -> FrameScan {
    scan_segment(buf, true)
}

/// [`scan_frames`] for any segment of a chain. Only the `last` one can
/// hold free space, and only as zeros that run from its valid prefix
/// to its end; any other bytes there are damage.
pub(crate) fn scan_segment(buf: &[u8], last: bool) -> FrameScan {
    let frames = frame_payloads(buf);
    let valid_len = frames.last().map_or(0, |payload| payload.end);
    let free = free_tail(&buf[valid_len..], last);
    FrameScan {
        payloads: frames.iter().map(|p| buf[p.clone()].to_vec()).collect(),
        offsets: frames.iter().map(|p| p.end).collect(),
        valid_len,
        free,
        trailing: buf.len() - valid_len - free,
    }
}

/// How many bytes of `tail`, the bytes after a segment's valid prefix,
/// are free space rather than damage: all of them when `tail` is zeros
/// in the `last` segment, else none. The writer keeps zeroed space
/// ahead of the active segment's write position and never lets a
/// segment it seals end in zeros, so one non-zero byte, or zeros in
/// any other segment, make the whole tail damage. Recovery,
/// [`Workspace::scrub`] and herclint's HL0406 all classify by this
/// rule, so they agree.
pub(crate) fn free_tail(tail: &[u8], last: bool) -> usize {
    if last && tail.iter().all(|&byte| byte == 0) {
        tail.len()
    } else {
        0
    }
}

/// [`scan_frames`] without the copies: the byte range of each valid
/// frame's payload within `buf`, in order. A frame ends where its
/// payload does.
pub(super) fn frame_payloads(buf: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 8 {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
        if len == 0 {
            break; // free space: zeros would read as empty frames
        }
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

/// Counts complete, CRC-valid frames anywhere inside `buf` (a damaged
/// region): used to report how many acknowledged-looking operations a
/// quarantine preserved beyond the recovered prefix.
pub(super) fn count_resync_frames(buf: &[u8]) -> usize {
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
pub(super) fn has_resync_frame(buf: &[u8]) -> bool {
    count_resync_frames(buf) > 0
}

/// The first byte of every frame body [`encode_op`] writes. No JSON
/// text starts with it (it is not even UTF-8), so a body whose JSON
/// starts at byte 0, as an older writer's did, is refused instead of
/// misread.
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
    let mut frame = Vec::new();
    encode_op_into(op, &mut frame)?;
    Ok(frame)
}

/// [`encode_op`] into the end of `out`, a buffer the caller reuses:
/// appends the frame and returns its length. Each payload is copied
/// once, into `out`. On an error `out` is left as it was: the lengths
/// are checked before any byte is appended.
///
/// # Errors
///
/// As [`encode_op`].
pub(super) fn encode_op_into(op: &JournalOp, out: &mut Vec<u8>) -> Result<usize, StoreError> {
    let mut payloads = Vec::new();
    let json = serde_json::to_vec(&*skeleton(op, &mut payloads))?;
    let raw: usize = payloads.iter().map(|payload| payload.len()).sum();
    let body = 1 + 4 + json.len() + 4 + 4 * payloads.len() + raw;
    // Every length below is at most `body`, so each fits its u32 field.
    let len = frame_len(body)?;
    let put_len = |out: &mut Vec<u8>, n: usize| out.extend_from_slice(&(n as u32).to_le_bytes());
    let start = out.len();
    out.reserve(8 + body);
    out.extend_from_slice(&[0; 8]); // the header, filled in below
    out.push(RAW_BODY);
    put_len(out, json.len());
    out.extend_from_slice(&json);
    put_len(out, payloads.len());
    for payload in &payloads {
        put_len(out, payload.len());
    }
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(8 + body)
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
    let placeholder: Arc<[u8]> = Arc::from(&[][..]);
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
                        payloads.push(&bytes[..]);
                        Some(Payload::Inline(Arc::clone(&placeholder)))
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

/// Decodes one frame body, as [`scan_frames`] yields it, in the layout
/// [`encode_op`] writes. The body must account for every byte of every
/// section. Each payload is copied once, out of `body`, into the shared
/// buffer that replaying the operation makes the history's blob.
///
/// # Errors
///
/// [`StoreError::Format`] when the body does not start with the `0xFF`
/// marker, the JSON does not parse as an operation, a length runs past
/// the body, bytes are left after the last payload, the payload count
/// differs from the placeholders, or a placeholder holds bytes.
pub fn decode_op(body: &[u8]) -> Result<JournalOp, StoreError> {
    let Some((&RAW_BODY, mut rest)) = body.split_first() else {
        return Err(body_error("no 0xFF marker at byte 0".into()));
    };
    let json_len = take_len(&mut rest)?;
    let mut op: JournalOp = serde_json::from_slice(take(&mut rest, json_len)?)?;
    let count = take_len(&mut rest)?;
    let mut lengths = take(&mut rest, count.saturating_mul(4))?;
    let slots: Vec<&mut Arc<[u8]>> = match &mut op {
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
        *slot = Arc::from(take(&mut rest, len)?);
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
