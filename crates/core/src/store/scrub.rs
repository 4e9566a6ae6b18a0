//! Scrub: verify every byte of a live workspace, and repair what is
//! damaged by quarantining it and re-baselining onto a new generation.

use std::fmt;

use hercules_obs::names;
use serde::Serialize;

use super::frame::{frame_payloads, free_tail};
use super::generation::snapshot_frame;
use super::recovery::{quarantine_bytes, quarantine_rename};
use super::{StoreError, Workspace};
use crate::session::Session;

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

impl Workspace {
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
        let chain = self.segments.len();
        for (i, name) in self.segments.clone().into_iter().enumerate() {
            match self.env.fs.read(&self.root.join(&name)) {
                Ok(buf) => {
                    self.metrics
                        .incr(names::STORE_SCRUB_BYTES, buf.len() as u64);
                    let frames = frame_payloads(&buf);
                    let valid_len = frames.last().map_or(0, |payload| payload.end);
                    let free = free_tail(&buf[valid_len..], i + 1 == chain);
                    let trailing = (buf.len() - valid_len - free) as u64;
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
