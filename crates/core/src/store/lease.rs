//! The writer lease: who may mutate a workspace, until when, under
//! which fencing token, and what a handle that lost it may still do.

use std::fmt;
use std::path::Path;

use hercules_obs::names;
use hercules_sim::Fs;
use serde::{Deserialize, Serialize};

use super::generation::{read_manifest, write_atomic};
use super::{StoreError, Workspace};

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

/// The writer-lease file name.
pub(crate) const LEASE_FILE: &str = "LEASE";

/// Default writer-lease duration.
pub(super) const DEFAULT_LEASE_MS: u64 = 30_000;

/// Default owner id for leases taken by direct (non-server) opens.
pub(super) const DEFAULT_OWNER: &str = "local";

/// Reads and parses the lease file. A missing or unparsable lease is
/// treated as absent — the manifest's fencing token is the durable
/// record takeover arbitration falls back to.
pub(crate) fn read_lease(fs: &Fs, dir: &Path) -> Option<LeaseDoc> {
    let bytes = fs.read(&dir.join(LEASE_FILE)).ok()?;
    serde_json::from_slice(&bytes).ok()
}

/// Writes the lease file atomically.
pub(super) fn write_lease(
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

impl Workspace {
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

    /// Releases the writer lease, if this handle still holds it. A
    /// deposed handle's lease file belongs to the *new* writer (larger
    /// token) and is left untouched. Best-effort: failure to remove an
    /// expired lease only delays the next takeover.
    pub(super) fn release_lease(&self) {
        if !self.is_writable() {
            return;
        }
        if let Some(lease) = read_lease(&self.env.fs, &self.root) {
            if lease.token == self.token {
                let _ = self.env.fs.remove_file(&self.root.join(LEASE_FILE));
            }
        }
    }
}
