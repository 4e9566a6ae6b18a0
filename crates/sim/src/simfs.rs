//! The simulated disk: an in-memory filesystem that models exactly the
//! durability semantics the store's crash-safety argument depends on.
//!
//! Every file tracks two contents — `durable` (what survives power
//! loss) and `current` (what a running process observes) — plus the
//! list of written-but-unsynced extents between them. Directory
//! operations (create / rename / remove) likewise stay *pending* until
//! a directory fsync lands. A crash point is an operation index: the
//! Nth mutating operation fails with a [`crate::fs::SIM_CRASH_MARKER`]
//! error and every later operation fails too, as if the machine died.
//! [`SimFsState::crash_image`] then rolls dice over the unsynced state
//! to materialize one possible post-crash disk: each unsynced extent
//! survives whole, as a torn prefix, or not at all (a *later* extent
//! surviving while an earlier one is lost is exactly a reordered
//! write), and each pending directory operation lands or doesn't.
//!
//! Simplifications, chosen to keep the model honest where it matters:
//! directories themselves are durable as soon as created (the store
//! re-creates its root unconditionally), and `sync_data` == `sync_all`
//! (the only metadata the store relies on is file length, which both
//! flush). The optional lying-disk mode ([`SimFsState::
//! set_drop_fsync_every`]) silently discards every Nth fsync — under
//! it only the weaker valid-prefix invariant holds, and tests assert
//! accordingly.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::fs::{FsFile, SIM_CRASH_MARKER};
use crate::rng::SimRng;
use crate::trace::SimTrace;

fn crash_err(detail: &str) -> io::Error {
    io::Error::other(format!("{SIM_CRASH_MARKER}: {detail}"))
}

#[derive(Debug, Clone, Default)]
struct SimFile {
    /// Bytes that survive a crash unconditionally.
    durable: Vec<u8>,
    /// Bytes a running process reads back.
    current: Vec<u8>,
    /// Written-but-unsynced `(offset, len)` extents, oldest first.
    unsynced: Vec<(usize, usize)>,
    /// Smallest unsynced `set_len` truncation, if any.
    truncated_to: Option<usize>,
}

#[derive(Debug, Clone)]
enum DirOp {
    Create { path: PathBuf, id: u64 },
    Rename { from: PathBuf, to: PathBuf },
    Remove { path: PathBuf },
}

impl DirOp {
    fn in_dir(&self, dir: &Path) -> bool {
        match self {
            DirOp::Create { path, .. } | DirOp::Remove { path } => path.parent() == Some(dir),
            DirOp::Rename { from, to } => from.parent() == Some(dir) || to.parent() == Some(dir),
        }
    }

    fn apply(&self, ns: &mut BTreeMap<PathBuf, u64>) {
        match self {
            DirOp::Create { path, id } => {
                ns.insert(path.clone(), *id);
            }
            DirOp::Rename { from, to } => {
                if let Some(id) = ns.remove(from) {
                    ns.insert(to.clone(), id);
                }
            }
            DirOp::Remove { path } => {
                ns.remove(path);
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    files: HashMap<u64, SimFile>,
    next_id: u64,
    /// Path → file id as a running process sees the namespace.
    current_ns: BTreeMap<PathBuf, u64>,
    /// Path → file id as the disk would reveal it after power loss.
    durable_ns: BTreeMap<PathBuf, u64>,
    dirs: BTreeSet<PathBuf>,
    pending_dir_ops: Vec<DirOp>,
    /// Count of mutating operations so far (the crash-point index
    /// space).
    ops: u64,
    crash_at: Option<u64>,
    crashed: bool,
    fsyncs: u64,
    drop_fsync_every: Option<u64>,
    dropped_fsyncs: u64,
    /// Paths whose next `read` fails with a latent media error.
    read_errors: BTreeSet<PathBuf>,
    rng: SimRng,
}

/// One simulated disk, shared by every [`crate::fs::Fs`] handle and
/// open file cloned from it.
#[derive(Debug)]
pub struct SimFsState {
    inner: Mutex<Inner>,
    trace: SimTrace,
}

impl SimFsState {
    /// An empty disk whose fault decisions draw from `rng` and whose
    /// operations log to `trace`.
    pub fn new(rng: SimRng, trace: SimTrace) -> SimFsState {
        SimFsState {
            inner: Mutex::new(Inner {
                files: HashMap::new(),
                next_id: 1,
                current_ns: BTreeMap::new(),
                durable_ns: BTreeMap::new(),
                dirs: BTreeSet::new(),
                pending_dir_ops: Vec::new(),
                ops: 0,
                crash_at: None,
                crashed: false,
                fsyncs: 0,
                drop_fsync_every: None,
                dropped_fsyncs: 0,
                read_errors: BTreeSet::new(),
                rng,
            }),
            trace,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms (or disarms) the crash point: the `op`th mutating operation
    /// from now-zero fails and the disk is dead thereafter.
    pub fn set_crash_at(&self, op: Option<u64>) {
        self.lock().crash_at = op;
    }

    /// Enables the lying-disk mode: every `every`th fsync (data or
    /// directory) reports success without making anything durable.
    pub fn set_drop_fsync_every(&self, every: Option<u64>) {
        self.lock().drop_fsync_every = every;
    }

    /// Injects bit rot: XORs the byte at `offset` of `path` with `xor`
    /// in both the durable and current images, as if the medium itself
    /// decayed. Returns `false` when the path does not exist or the
    /// offset is past the end (nothing changed). Does not count as a
    /// mutating operation — rot is not something the process does.
    pub fn corrupt_file(&self, path: &Path, offset: usize, xor: u8) -> bool {
        let mut inner = self.lock();
        let Some(id) = inner.current_ns.get(path).copied() else {
            return false;
        };
        let file = inner.files.get_mut(&id).expect("file for live path");
        let mut hit = false;
        if offset < file.current.len() {
            file.current[offset] ^= xor;
            hit = true;
        }
        if offset < file.durable.len() {
            file.durable[offset] ^= xor;
            hit = true;
        }
        if hit {
            self.trace.record(format!(
                "fs.bitrot path={} off={offset} xor={xor:#04x}",
                path.display()
            ));
        }
        hit
    }

    /// Length of `path`'s current contents, if it exists. Lets sweeps
    /// enumerate corruptible offsets without going through `read`.
    pub fn file_len(&self, path: &Path) -> Option<usize> {
        let inner = self.lock();
        let id = inner.current_ns.get(path)?;
        Some(inner.files[id].current.len())
    }

    /// Arms (or disarms) a latent read error: while armed, every `read`
    /// of `path` fails with a media error (distinct from the crash
    /// marker). Models an unreadable sector discovered only on access.
    pub fn set_read_error(&self, path: &Path, armed: bool) {
        let mut inner = self.lock();
        if armed {
            inner.read_errors.insert(path.to_owned());
        } else {
            inner.read_errors.remove(path);
        }
    }

    /// Mutating operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// Returns `true` once the crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Fsyncs silently discarded by the lying-disk mode.
    pub fn dropped_fsyncs(&self) -> u64 {
        self.lock().dropped_fsyncs
    }

    /// Every path currently visible to a running process, sorted.
    pub fn current_paths(&self) -> Vec<PathBuf> {
        self.lock().current_ns.keys().cloned().collect()
    }

    /// Counts one mutating operation: traces it, fires the crash point
    /// if armed for this index, and fails everything after a crash.
    /// Returns the operation index on success.
    fn step(inner: &mut Inner, trace: &SimTrace, what: &str) -> io::Result<u64> {
        if inner.crashed {
            return Err(crash_err("disk is dead"));
        }
        inner.ops += 1;
        let op = inner.ops;
        trace.record(format!("fs.{what} op={op}"));
        if inner.crash_at == Some(op) {
            inner.crashed = true;
            trace.record(format!("fs.crash op={op}"));
            return Err(crash_err(&format!("crash point at op {op}")));
        }
        Ok(op)
    }

    pub(crate) fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        SimFsState::step(
            &mut inner,
            &self.trace,
            &format!("mkdir path={}", dir.display()),
        )?;
        let mut cur = Some(dir);
        while let Some(d) = cur {
            if d.as_os_str().is_empty() {
                break;
            }
            inner.dirs.insert(d.to_owned());
            cur = d.parent();
        }
        Ok(())
    }

    pub(crate) fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_err("disk is dead"));
        }
        if inner.read_errors.contains(path) {
            self.trace
                .record(format!("fs.read_error path={}", path.display()));
            return Err(io::Error::other(format!(
                "simulated media error reading {}",
                path.display()
            )));
        }
        let id = *inner
            .current_ns
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))?;
        let bytes = inner.files[&id].current.clone();
        self.trace.record(format!(
            "fs.read path={} bytes={}",
            path.display(),
            bytes.len()
        ));
        Ok(bytes)
    }

    pub(crate) fn exists(&self, path: &Path) -> bool {
        let inner = self.lock();
        inner.current_ns.contains_key(path) || inner.dirs.contains(path)
    }

    pub(crate) fn create_truncate(self: &Arc<Self>, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let mut inner = self.lock();
        SimFsState::step(
            &mut inner,
            &self.trace,
            &format!("create path={}", path.display()),
        )?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() && !inner.dirs.contains(parent) {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such directory: {}", parent.display()),
                ));
            }
        }
        let id = match inner.current_ns.get(path).copied() {
            Some(id) => {
                let file = inner.files.get_mut(&id).expect("file for live path");
                file.current.clear();
                file.unsynced.clear();
                file.truncated_to = Some(0);
                id
            }
            None => {
                let id = inner.next_id;
                inner.next_id += 1;
                inner.files.insert(id, SimFile::default());
                inner.current_ns.insert(path.to_owned(), id);
                inner.pending_dir_ops.push(DirOp::Create {
                    path: path.to_owned(),
                    id,
                });
                id
            }
        };
        drop(inner);
        Ok(Box::new(SimFileHandle {
            state: Arc::clone(self),
            id,
            pos: 0,
        }))
    }

    pub(crate) fn open(self: &Arc<Self>, path: &Path) -> io::Result<Box<dyn FsFile>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_err("disk is dead"));
        }
        let id = *inner
            .current_ns
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))?;
        self.trace
            .record(format!("fs.open path={}", path.display()));
        drop(inner);
        Ok(Box::new(SimFileHandle {
            state: Arc::clone(self),
            id,
            pos: 0,
        }))
    }

    pub(crate) fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        SimFsState::step(
            &mut inner,
            &self.trace,
            &format!("rename from={} to={}", from.display(), to.display()),
        )?;
        let id = inner
            .current_ns
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.display().to_string()))?;
        inner.current_ns.insert(to.to_owned(), id);
        inner.pending_dir_ops.push(DirOp::Rename {
            from: from.to_owned(),
            to: to.to_owned(),
        });
        Ok(())
    }

    pub(crate) fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        SimFsState::step(
            &mut inner,
            &self.trace,
            &format!("remove path={}", path.display()),
        )?;
        if inner.current_ns.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                path.display().to_string(),
            ));
        }
        inner.pending_dir_ops.push(DirOp::Remove {
            path: path.to_owned(),
        });
        Ok(())
    }

    pub(crate) fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        SimFsState::step(
            &mut inner,
            &self.trace,
            &format!("syncdir path={}", dir.display()),
        )?;
        inner.fsyncs += 1;
        if let Some(every) = inner.drop_fsync_every {
            if every > 0 && inner.fsyncs.is_multiple_of(every) {
                inner.dropped_fsyncs += 1;
                self.trace
                    .record(format!("fs.syncdir.dropped path={}", dir.display()));
                return Ok(());
            }
        }
        let (landed, kept): (Vec<DirOp>, Vec<DirOp>) = std::mem::take(&mut inner.pending_dir_ops)
            .into_iter()
            .partition(|op| op.in_dir(dir));
        inner.pending_dir_ops = kept;
        for op in &landed {
            op.apply(&mut inner.durable_ns);
        }
        Ok(())
    }

    /// Rolls dice over every unsynced extent, pending truncation, and
    /// pending directory operation to materialize one possible
    /// post-crash disk. The result shares this disk's trace (so a
    /// recovery run extends the same event log) and a forked rng; its
    /// operation counter starts from zero with no crash point armed.
    pub fn crash_image(&self) -> SimFsState {
        let mut inner = self.lock();
        self.trace
            .record(format!("fs.crash_image at_op={}", inner.ops));

        let mut ns = inner.durable_ns.clone();
        let pending = std::mem::take(&mut inner.pending_dir_ops);
        for op in &pending {
            let keep = inner.rng.chance(1, 2);
            self.trace.record(format!("crash.dirop keep={keep} {op:?}"));
            if keep {
                op.apply(&mut ns);
            }
        }
        inner.pending_dir_ops = pending;

        let mut files = HashMap::new();
        let ids: Vec<u64> = inner.files.keys().copied().collect();
        let mut ids = ids;
        ids.sort_unstable();
        for id in ids {
            let file = inner.files[&id].clone();
            let mut image = file.durable.clone();
            // Each extent: whole (2/4), torn prefix (1/4), or lost
            // (1/4). A lost extent before a surviving one is a
            // reordered write.
            for (off, len) in file.unsynced {
                let roll = inner.rng.below(4);
                let keep = match roll {
                    0 | 1 => len,
                    2 => inner.rng.below(len as u64 + 1) as usize,
                    _ => 0,
                };
                let keep = keep.min(file.current.len().saturating_sub(off));
                self.trace.record(format!(
                    "crash.extent file={id} off={off} len={len} keep={keep}"
                ));
                if keep > 0 {
                    if image.len() < off + keep {
                        image.resize(off + keep, 0);
                    }
                    image[off..off + keep].copy_from_slice(&file.current[off..off + keep]);
                }
            }
            if let Some(t) = file.truncated_to {
                let keep = inner.rng.chance(1, 2);
                self.trace
                    .record(format!("crash.truncate file={id} to={t} keep={keep}"));
                if keep && image.len() > t {
                    image.truncate(t);
                }
            }
            files.insert(
                id,
                SimFile {
                    durable: image.clone(),
                    current: image,
                    unsynced: Vec::new(),
                    truncated_to: None,
                },
            );
        }

        let rng = inner.rng.fork(0x6372_6173_6821); // "crash!"
        SimFsState {
            inner: Mutex::new(Inner {
                files,
                next_id: inner.next_id,
                current_ns: ns.clone(),
                durable_ns: ns,
                dirs: inner.dirs.clone(),
                pending_dir_ops: Vec::new(),
                ops: 0,
                crash_at: None,
                crashed: false,
                fsyncs: 0,
                drop_fsync_every: None,
                dropped_fsyncs: 0,
                read_errors: inner.read_errors.clone(),
                rng,
            }),
            trace: self.trace.clone(),
        }
    }
}

struct SimFileHandle {
    state: Arc<SimFsState>,
    id: u64,
    pos: usize,
}

impl SimFileHandle {
    /// Writes `buf` at `offset` as one mutating operation. A write that
    /// hits the crash point may itself tear: a random prefix lands as
    /// an unsynced extent before the failure. A write issued after the
    /// crash lands nothing: the disk is dead.
    fn write_at(&self, buf: &[u8], offset: usize) -> io::Result<()> {
        let mut inner = self.state.lock();
        let id = self.id;
        let dead = inner.crashed;
        let step = SimFsState::step(
            &mut inner,
            &self.state.trace,
            &format!("write file={id} off={offset} len={}", buf.len()),
        );
        let keep = match &step {
            Ok(_) => buf.len(),
            Err(_) if inner.crashed && !dead => {
                let torn = inner.rng.below(buf.len() as u64 + 1) as usize;
                self.state.trace.record(format!(
                    "crash.torn_write file={id} off={offset} keep={torn}"
                ));
                torn
            }
            Err(_) => 0,
        };
        if keep > 0 {
            let file = inner.files.get_mut(&id).expect("file for open handle");
            if file.current.len() < offset + keep {
                file.current.resize(offset + keep, 0);
            }
            file.current[offset..offset + keep].copy_from_slice(&buf[..keep]);
            file.unsynced.push((offset, keep));
        }
        step.map(|_| ())
    }
}

impl FsFile for SimFileHandle {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.write_at(buf, self.pos)?;
        self.pos += buf.len();
        Ok(())
    }

    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.write_at(buf, offset as usize)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.sync_all()
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut inner = self.state.lock();
        let id = self.id;
        SimFsState::step(&mut inner, &self.state.trace, &format!("fsync file={id}"))?;
        inner.fsyncs += 1;
        if let Some(every) = inner.drop_fsync_every {
            if every > 0 && inner.fsyncs.is_multiple_of(every) {
                inner.dropped_fsyncs += 1;
                self.state
                    .trace
                    .record(format!("fs.fsync.dropped file={id}"));
                return Ok(());
            }
        }
        let file = inner.files.get_mut(&id).expect("file for open handle");
        file.durable = file.current.clone();
        file.unsynced.clear();
        file.truncated_to = None;
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.state.lock();
        let id = self.id;
        SimFsState::step(
            &mut inner,
            &self.state.trace,
            &format!("set_len file={id} len={len}"),
        )?;
        let len = len as usize;
        let file = inner.files.get_mut(&id).expect("file for open handle");
        if len < file.current.len() {
            file.current.truncate(len);
            file.truncated_to = Some(file.truncated_to.map_or(len, |t| t.min(len)));
            file.unsynced.retain_mut(|(off, elen)| {
                if *off >= len {
                    return false;
                }
                *elen = (*elen).min(len - *off);
                true
            });
        } else if len > file.current.len() {
            let old = file.current.len();
            file.current.resize(len, 0);
            file.unsynced.push((old, len - old));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{is_sim_crash, Fs};

    fn fresh(seed: u64) -> (Fs, Arc<SimFsState>) {
        let state = Arc::new(SimFsState::new(SimRng::new(seed), SimTrace::enabled()));
        (Fs::sim(Arc::clone(&state)), state)
    }

    #[test]
    fn write_read_round_trip_and_namespace() {
        let (fs, _state) = fresh(1);
        let dir = Path::new("/ws");
        fs.create_dir_all(dir).expect("mkdir");
        let mut f = fs.create_truncate(&dir.join("a.tmp")).expect("create");
        f.write_all(b"abc").expect("write");
        f.sync_all().expect("fsync");
        fs.rename(&dir.join("a.tmp"), &dir.join("a"))
            .expect("rename");
        fs.sync_dir(dir).expect("dirsync");
        assert_eq!(fs.read(&dir.join("a")).expect("read"), b"abc");
        assert!(!fs.exists(&dir.join("a.tmp")));
        let mut g = fs.open_write(&dir.join("a")).expect("open");
        g.write_all_at(b"def", 3).expect("write");
        assert_eq!(fs.read(&dir.join("a")).expect("read"), b"abcdef");
        g.write_all_at(b"g", 8).expect("write past the end");
        assert_eq!(fs.read(&dir.join("a")).expect("read"), b"abcdef\0\0g");
    }

    #[test]
    fn crash_point_fires_once_and_kills_the_disk() {
        let (fs, state) = fresh(2);
        state.set_crash_at(Some(3));
        let dir = Path::new("/ws");
        fs.create_dir_all(dir).expect("op 1");
        let mut f = fs.create_truncate(&dir.join("j")).expect("op 2");
        let err = f.write_all(b"xyz").expect_err("op 3 crashes");
        assert!(is_sim_crash(&err), "unexpected error: {err}");
        assert!(state.has_crashed());
        let err = fs.read(&dir.join("j")).expect_err("dead disk");
        assert!(is_sim_crash(&err));
    }

    #[test]
    fn a_dead_disk_takes_no_writes() {
        // The crash fires at a `remove_file`; a write issued on the dead
        // disk afterwards must land in no crash image.
        for seed in 0..16u64 {
            let (fs, state) = fresh(seed);
            let dir = Path::new("/ws");
            fs.create_dir_all(dir).expect("mkdir");
            let mut f = fs.create_truncate(&dir.join("j")).expect("create");
            f.write_all(b"durable!").expect("write");
            f.sync_all().expect("fsync");
            fs.sync_dir(dir).expect("dirsync");
            state.set_crash_at(Some(state.op_count() + 1));
            let err = fs.remove_file(&dir.join("j")).expect_err("crashes");
            assert!(is_sim_crash(&err), "unexpected error: {err}");
            let err = f.write_all(b"too late").expect_err("dead disk");
            assert!(is_sim_crash(&err), "unexpected error: {err}");
            let image = Arc::new(state.crash_image());
            let bytes = Fs::sim(image).read(&dir.join("j")).expect("durable file");
            assert_eq!(bytes, b"durable!", "seed {seed}");
        }
    }

    #[test]
    fn unsynced_data_may_vanish_in_the_crash_image() {
        // Durable bytes always survive; unsynced bytes survive only as
        // a (possibly empty, possibly torn) prefix-per-extent.
        for seed in 0..32u64 {
            let (fs, state) = fresh(seed);
            let dir = Path::new("/ws");
            fs.create_dir_all(dir).expect("mkdir");
            let mut f = fs.create_truncate(&dir.join("j")).expect("create");
            f.write_all(b"durable!").expect("write");
            f.sync_all().expect("fsync");
            fs.sync_dir(dir).expect("dirsync");
            f.write_all(b"unsynced").expect("write");
            let image = Arc::new(state.crash_image());
            let after = Fs::sim(Arc::clone(&image));
            let bytes = after.read(&dir.join("j")).expect("file survived dirsync");
            assert!(bytes.len() >= 8, "durable prefix lost: {bytes:?}");
            assert_eq!(&bytes[..8], b"durable!");
            assert!(bytes.len() <= 16);
            assert_eq!(&bytes[8..], &b"unsynced"[..bytes.len() - 8]);
        }
    }

    #[test]
    fn pending_dir_ops_may_or_may_not_land() {
        let mut seen_kept = false;
        let mut seen_lost = false;
        for seed in 0..64u64 {
            let (fs, state) = fresh(seed);
            let dir = Path::new("/ws");
            fs.create_dir_all(dir).expect("mkdir");
            let mut f = fs.create_truncate(&dir.join("a")).expect("create");
            f.write_all(b"x").expect("write");
            f.sync_all().expect("fsync");
            // No sync_dir: the file's very existence is pending.
            let image = Arc::new(state.crash_image());
            let after = Fs::sim(image);
            if after.exists(&dir.join("a")) {
                seen_kept = true;
                assert_eq!(after.read(&dir.join("a")).expect("read"), b"x");
            } else {
                seen_lost = true;
            }
        }
        assert!(seen_kept && seen_lost, "both outcomes should occur");
    }

    #[test]
    fn same_seed_same_crash_image() {
        let run = |seed: u64| {
            let (fs, state) = fresh(seed);
            let dir = Path::new("/ws");
            fs.create_dir_all(dir).expect("mkdir");
            let mut f = fs.create_truncate(&dir.join("j")).expect("create");
            f.write_all(b"one").expect("write");
            f.write_all(b"twotwo").expect("write");
            let image = Arc::new(state.crash_image());
            Fs::sim(image).read(&dir.join("j")).ok()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn bit_rot_flips_durable_bytes_in_place() {
        let (fs, state) = fresh(4);
        let dir = Path::new("/ws");
        fs.create_dir_all(dir).expect("mkdir");
        let mut f = fs.create_truncate(&dir.join("j")).expect("create");
        f.write_all(b"healthy").expect("write");
        f.sync_all().expect("fsync");
        assert_eq!(state.file_len(&dir.join("j")), Some(7));
        assert!(state.corrupt_file(&dir.join("j"), 0, 0xFF));
        assert!(!state.corrupt_file(&dir.join("j"), 99, 0xFF), "past end");
        assert!(!state.corrupt_file(&dir.join("missing"), 0, 0xFF));
        let bytes = fs.read(&dir.join("j")).expect("read");
        assert_eq!(bytes[0], b'h' ^ 0xFF);
        assert_eq!(&bytes[1..], b"ealthy");
        // Rot survives a crash: it lives in the durable image too.
        let image = Arc::new(state.crash_image());
        let after = Fs::sim(image);
        assert_eq!(after.read(&dir.join("j")).expect("read")[0], b'h' ^ 0xFF);
    }

    #[test]
    fn latent_read_error_fires_until_disarmed_and_is_not_a_crash() {
        let (fs, state) = fresh(5);
        let dir = Path::new("/ws");
        fs.create_dir_all(dir).expect("mkdir");
        let mut f = fs.create_truncate(&dir.join("j")).expect("create");
        f.write_all(b"data").expect("write");
        f.sync_all().expect("fsync");
        state.set_read_error(&dir.join("j"), true);
        let err = fs.read(&dir.join("j")).expect_err("armed read fails");
        assert!(
            !is_sim_crash(&err),
            "media error must not look like a crash"
        );
        assert!(err.to_string().contains("media error"), "got: {err}");
        // The error survives a crash image, then can be disarmed.
        let image = Arc::new(state.crash_image());
        let after = Fs::sim(Arc::clone(&image));
        after.read(&dir.join("j")).expect_err("still armed");
        image.set_read_error(&dir.join("j"), false);
        assert_eq!(after.read(&dir.join("j")).expect("read"), b"data");
    }

    #[test]
    fn dropped_fsync_lies_about_durability() {
        let (fs, state) = fresh(3);
        state.set_drop_fsync_every(Some(1)); // drop every fsync
        let dir = Path::new("/ws");
        fs.create_dir_all(dir).expect("mkdir");
        let mut f = fs.create_truncate(&dir.join("j")).expect("create");
        f.write_all(b"gone?").expect("write");
        f.sync_all().expect("fsync reports success");
        assert_eq!(state.dropped_fsyncs(), 1);
    }
}
