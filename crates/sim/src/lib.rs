//! Deterministic simulation environment for the Hercules reproduction:
//! virtual time, a fault-injecting filesystem, seeded scheduler
//! interleavings, and a replayable event log.
//!
//! The flow manager's crash-safety and concurrency arguments were each
//! tested along one axis (scheduler-equivalence proptests, every-byte
//! crash truncation); this crate lets one seeded, single-threaded run
//! exercise both at once. Production code takes capabilities instead
//! of calling the platform directly:
//!
//! * [`Clock`] — `now`/`since`/`sleep`/`wall_unix_ms`; the real
//!   adapter wraps `std::time`, the virtual one advances only when
//!   slept on, so backoff schedules become logged events;
//! * [`Fs`] / [`FsFile`] — the minimal file surface the durable store
//!   uses (create/write with positioned writes, fsync, atomic
//!   rename, directory fsync); the simulated disk ([`SimFsState`])
//!   models unsynced extents, pending directory operations, torn
//!   writes, dropped fsyncs, and op-indexed crash points, and can
//!   mint a dice-rolled post-crash [`SimFsState::crash_image`];
//! * [`Interleaver`] — consulted by the dataflow engine whenever
//!   several subtasks are ready; real = engine priority order, sim =
//!   seeded uniform pick, logged;
//! * [`SimTrace`] — the append-only event log every component writes
//!   to; for one seed its rendering is byte-identical across runs,
//!   which is what "reproduce any failure from its seed" rests on;
//! * [`SimEnv`] / [`Env`] — the assembled worlds. One master seed
//!   forks ([`SimRng::fork`]) into independent streams for disk
//!   faults, scheduling, and retry jitter.
//!
//! # Examples
//!
//! ```
//! use hercules_sim::SimEnv;
//! use std::path::Path;
//!
//! let sim = SimEnv::new(42);
//! let fs = sim.fs();
//! fs.create_dir_all(Path::new("/ws")).unwrap();
//! let mut f = fs.create_truncate(Path::new("/ws/journal")).unwrap();
//! f.write_all(b"frame").unwrap();
//! // Crash before fsync: the frame may be torn or lost entirely —
//! // but which outcome is a pure function of the seed.
//! let rebooted = sim.crash_and_reboot();
//! let a = rebooted.fs().read(Path::new("/ws/journal")).ok();
//! let again = SimEnv::new(42);
//! let fs2 = again.fs();
//! fs2.create_dir_all(Path::new("/ws")).unwrap();
//! let mut f2 = fs2.create_truncate(Path::new("/ws/journal")).unwrap();
//! f2.write_all(b"frame").unwrap();
//! assert_eq!(a, again.crash_and_reboot().fs().read(Path::new("/ws/journal")).ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod env;
mod fs;
mod interleave;
mod rng;
mod simfs;
mod trace;

pub use clock::{Clock, SimInstant, SIM_WALL_EPOCH_MS};
pub use env::{repro_command, ClockTimeSource, Env, SimEnv};
pub use fs::{is_sim_crash, Fs, FsFile, SIM_CRASH_MARKER};
pub use interleave::Interleaver;
pub use rng::SimRng;
pub use simfs::SimFsState;
pub use trace::SimTrace;
