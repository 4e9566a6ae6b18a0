//! Filesystem as a capability: a clonable [`Fs`] handle backed either
//! by `std::fs` or by the in-memory simulated disk in [`crate::simfs`].
//!
//! The surface is deliberately the minimal set the durable store needs
//! — create/write handles with positioned writes, atomic rename,
//! directory fsync —
//! so every durability-relevant syscall goes through one choke point
//! the simulator can intercept. The real adapter here is the **only**
//! place in the workspace that `crates/core` is allowed to reach
//! `std::fs` through (enforced by the `env_hygiene` test).

use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::simfs::SimFsState;

/// Marker embedded in every I/O error raised by a simulated crash.
/// Callers that need to distinguish "the simulated machine died" from
/// ordinary I/O failure match on this substring.
pub const SIM_CRASH_MARKER: &str = "sim-crash";

/// Returns `true` when `err` (or its rendering) came from a simulated
/// crash point rather than a modeled I/O failure.
pub fn is_sim_crash(err: &io::Error) -> bool {
    err.to_string().contains(SIM_CRASH_MARKER)
}

/// An open file handle: the subset of `std::fs::File` the store uses.
pub trait FsFile: Send {
    /// Writes at the handle's position and advances it.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Writes at byte `offset`, leaving the handle's position alone;
    /// a write past end-of-file extends it, with zeros in any gap.
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Flushes file *data* to durable storage.
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes data and metadata to durable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

impl FsFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }

    #[cfg(unix)]
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::write_all_at(self, buf, offset)
    }

    #[cfg(not(unix))]
    fn write_all_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        io::Seek::seek(self, io::SeekFrom::Start(offset))?;
        io::Write::write_all(self, buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
}

/// A clonable filesystem handle.
///
/// [`Fs::real`] (the `Default`) is a thin wrapper over `std::fs`;
/// [`Fs::sim`]-backed handles share one in-memory disk with injectable
/// torn writes, dropped fsyncs, and crash points.
#[derive(Debug, Clone, Default)]
pub struct Fs {
    sim: Option<Arc<SimFsState>>,
}

impl Fs {
    /// The real-environment adapter over `std::fs`.
    pub fn real() -> Fs {
        Fs { sim: None }
    }

    /// A handle onto the simulated disk `state`.
    pub fn sim(state: Arc<SimFsState>) -> Fs {
        Fs { sim: Some(state) }
    }

    /// Returns `true` for a simulated disk.
    pub fn is_sim(&self) -> bool {
        self.sim.is_some()
    }

    /// Creates `dir` and any missing ancestors.
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match &self.sim {
            Some(state) => state.create_dir_all(dir),
            None => std::fs::create_dir_all(dir),
        }
    }

    /// Reads the whole file at `path`.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match &self.sim {
            Some(state) => state.read(path),
            None => std::fs::read(path),
        }
    }

    /// Length in bytes of the file at `path`, without reading its
    /// contents.
    pub fn file_len(&self, path: &Path) -> io::Result<u64> {
        match &self.sim {
            Some(state) => state.len(path),
            None => std::fs::metadata(path).map(|m| m.len()),
        }
    }

    /// Creates `path` (truncating any existing content) for writing.
    pub fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        match &self.sim {
            Some(state) => state.create_truncate(path),
            None => std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(path)
                .map(|f| Box::new(f) as Box<dyn FsFile>),
        }
    }

    /// Opens an existing file for writing from the start, without
    /// truncating it: the journal's positioned writes and recovery's
    /// in-place truncation go through it.
    pub fn open_write(&self, path: &Path) -> io::Result<Box<dyn FsFile>> {
        match &self.sim {
            Some(state) => state.open(path),
            None => std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map(|f| Box::new(f) as Box<dyn FsFile>),
        }
    }

    /// Renames `from` over `to` (atomic replacement on the same
    /// directory, durable only after [`Fs::sync_dir`]).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match &self.sim {
            Some(state) => state.rename(from, to),
            None => std::fs::rename(from, to),
        }
    }

    /// Removes the file at `path`.
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        match &self.sim {
            Some(state) => state.remove_file(path),
            None => std::fs::remove_file(path),
        }
    }

    /// Makes directory-level operations (create/rename/remove) under
    /// `dir` durable — the `fsync(dirfd)` of the atomic-write recipe.
    pub fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match &self.sim {
            Some(state) => state.sync_dir(dir),
            None => {
                #[cfg(unix)]
                {
                    std::fs::File::open(dir)?.sync_all()?;
                }
                #[cfg(not(unix))]
                {
                    let _ = dir;
                }
                Ok(())
            }
        }
    }

    /// Returns `true` when a file or directory exists at `path`.
    pub fn exists(&self, path: &Path) -> bool {
        match &self.sim {
            Some(state) => state.exists(path),
            None => path.exists(),
        }
    }

    /// Lists the entries directly under `dir`, sorted by path — the
    /// read-only directory scan workspace audits use.
    pub fn list_dir(&self, dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
        let mut paths = match &self.sim {
            Some(state) => state
                .current_paths()
                .into_iter()
                .filter(|p| p.parent() == Some(dir))
                .collect(),
            None => std::fs::read_dir(dir)?
                .map(|e| e.map(|e| e.path()))
                .collect::<io::Result<Vec<_>>>()?,
        };
        paths.sort();
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_fs_round_trips_and_renames() {
        let fs = Fs::real();
        assert!(!fs.is_sim());
        let dir = std::env::temp_dir().join(format!("hercules-sim-fs-{}", std::process::id()));
        fs.create_dir_all(&dir).expect("mkdir");
        let a = dir.join("a.tmp");
        let b = dir.join("a");
        {
            let mut f = fs.create_truncate(&a).expect("create");
            f.write_all(b"hello").expect("write");
            f.sync_all().expect("fsync");
        }
        fs.rename(&a, &b).expect("rename");
        fs.sync_dir(&dir).expect("dirsync");
        assert!(fs.exists(&b));
        assert!(!fs.exists(&a));
        assert!(fs.list_dir(&dir).expect("list").contains(&b));
        assert_eq!(fs.read(&b).expect("read"), b"hello");
        assert_eq!(fs.file_len(&b).expect("length"), 5);
        let mut w = fs.open_write(&b).expect("write-open");
        w.write_all_at(b" world", 5).expect("write");
        w.write_all_at(b"!", 13).expect("write past the end");
        w.sync_data().expect("fsync");
        assert_eq!(fs.read(&b).expect("read"), b"hello world\0\0!");
        w.set_len(5).expect("truncate");
        w.sync_all().expect("fsync");
        assert_eq!(fs.read(&b).expect("read"), b"hello");
        fs.remove_file(&b).expect("rm");
        assert!(!fs.exists(&b));
        std::fs::remove_dir_all(&dir).ok();
    }
}
