//! Payload bytes on the warm path, pinned two ways.
//!
//! One fixed session runs against seed 7's simulated environment:
//! workspace 1 saves, opens a content cache, builds one fanout branch
//! (a `Verification` of an edited netlist against its own extraction,
//! both edited from one script) and runs it cold; workspace 2 takes the
//! same steps on the same simulated disk tier, so its `run` replays
//! every result from the cache, then checkpoints.
//!
//! - **The bytes on disk.** Every file the session leaves, but the
//!   telemetry sidecars, is listed with its length and SHA-256, and the
//!   list must equal `golden/payload_store_files.txt`. Sharing payload
//!   buffers in memory and encoding frames into a reused buffer may
//!   change no byte of a cache entry or a journal frame.
//! - **The bytes allocated.** This test binary counts every byte its
//!   threads allocate, per thread. Workspace 2's warm `run` starts no
//!   worker, so the count on the calling thread is the run's whole
//!   allocation, and it must stay within a budget that fails if the
//!   warm path copies each payload again on its way from the cache
//!   file to the journal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

use hercules::eda::cells;
use hercules::history::{InstanceId, Metadata};
use hercules::sim::SimEnv;
use hercules::ui::Ui;
use hercules::Session;
use hercules_digest::{hex, sha256};

/// Counts the calls and bytes of every allocation, reallocation
/// included (at its new size), on the thread that makes it, and hands
/// the work to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed` is passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls and bytes made on this thread so far.
fn allocated() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get))
}

/// The simulated environment's seed.
const SEED: u64 = 7;

/// Width of the adder the branch's editor script draws.
const SCRIPT_WIDTH: usize = 32;

/// One fanout branch, as the fanout-cache benchmark builds each of
/// its branches: `{ws}` is the workspace, `{script}` the editor script
/// both netlists are edited from.
const BRANCH: &[&str] = &[
    "save {ws}",
    "cache open /cache",
    "goal Verification",
    "expand n0",
    "specialize n2 EditedNetlist",
    "expand n2",
    "expand n3",
    "expand n6",
    "specialize n8 EditedNetlist",
    "expand n8",
    "bind-latest",
    "select n4 {script}",
    "select n10 {script}",
];

/// The session both workspaces start from: the odyssey library plus
/// one recorded editor script.
fn template(sim: &SimEnv) -> (Session, InstanceId) {
    let mut session = Session::odyssey("payloads");
    session.set_sim(sim.clock(), sim.interleave(), sim.jitter_seed());
    let editor = session
        .schema()
        .entity_id("CircuitEditor")
        .expect("the library has an editor");
    let script = session
        .db_mut()
        .record_primary(
            editor,
            Metadata::by("payloads").named("sced script: adder"),
            &cells::ripple_adder(SCRIPT_WIDTH).to_bytes(),
        )
        .expect("records the script");
    (session, script)
}

/// A fresh `Ui` over the template that has taken every step of
/// [`BRANCH`] in workspace `ws`, up to its `run`.
fn branch(sim: &SimEnv, template: &Session, script: InstanceId, ws: &str) -> Ui {
    let mut ui = Ui::new_in(template.clone(), sim.env());
    for line in BRANCH {
        let cmd = line
            .replace("{ws}", ws)
            .replace("{script}", &format!("i{}", script.raw()));
        ui.execute(&cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
    }
    ui
}

/// Workspace 1's whole branch, its `run` cold; then workspace 2's
/// branch up to its `run`, which every result of workspace 1 will
/// answer from the shared disk tier. Workspace 2 runs like the
/// benchmark: in parallel with two workers, which a run the cache
/// answers whole never starts.
fn warm_session() -> (SimEnv, Ui) {
    let sim = SimEnv::new(SEED);
    let (template, script) = template(&sim);
    let mut cold = branch(&sim, &template, script, "/ws1");
    cold.execute("run").expect("the cold run");
    drop(cold);
    let mut warm = branch(&sim, &template, script, "/ws2");
    let options = warm.session_mut().executor_mut().options_mut();
    options.parallel = true;
    options.workers = 2;
    (sim, warm)
}

/// Every file the session left but the telemetry sidecars, one per
/// line: its path, length and SHA-256.
fn store_files() -> String {
    let (sim, mut warm) = warm_session();
    warm.execute("run").expect("the warm run");
    warm.execute("checkpoint").expect("checkpoints");
    drop(warm);
    let fs = sim.fs();
    let mut out = String::new();
    for path in sim.fs_state().current_paths() {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("telemetry-") && name.ends_with(".jsonl") {
            continue;
        }
        let bytes = fs.read(&path).expect("a listed file reads");
        let _ = writeln!(
            out,
            "{} {} {}",
            path.display(),
            bytes.len(),
            hex::encode(&sha256(&bytes))
        );
    }
    out
}

#[test]
fn the_store_writes_the_golden_bytes() {
    let files = store_files();
    assert_eq!(
        files,
        store_files(),
        "the simulated session is deterministic"
    );
    for dir in ["/ws1/", "/ws2/", "/cache/"] {
        assert!(files.contains(dir), "no file under {dir}:\n{files}");
    }
    assert_eq!(
        files,
        include_str!("golden/payload_store_files.txt"),
        "a byte on disk changed"
    );
}

/// Bytes one warm `run` of [`warm_session`] may allocate. The run
/// replays 6 tool results from 4 cache entries whose payloads total
/// about 35 KB. It reads each entry's file and copies each payload out
/// of it once; the memory tier, the history and the journal record
/// share those buffers, and the run's 28 KB frame is encoded into the
/// workspace's reused pending buffer. The run allocates 216,925 bytes,
/// 79,797 of them the simulated disk growing the journal file. Each
/// further copy on the way adds 27 KB or more: copying the hits'
/// payloads out of their entries, copying the captured records'
/// payloads, or encoding the frame into a fresh buffer. With all three
/// the run allocated 314,592 bytes; copying only the captured payloads
/// brings it to 244,165.
const WARM_RUN_BYTES_BUDGET: u64 = 235_000;

#[test]
fn a_warm_run_allocates_within_its_budget() {
    let (_sim, mut warm) = warm_session();
    let (calls_before, bytes_before) = allocated();
    warm.execute("run").expect("the warm run");
    let (calls_after, bytes_after) = allocated();
    let (calls, bytes) = (calls_after - calls_before, bytes_after - bytes_before);
    let report = warm.session().last_report().expect("the run left a report");
    assert_eq!(report.runs(), 0, "the warm run ran a tool");
    assert!(report.cache_hits() > 0, "the warm run replayed nothing");
    assert!(
        bytes <= WARM_RUN_BYTES_BUDGET,
        "a warm run allocated {bytes} bytes in {calls} allocations, over its budget of \
         {WARM_RUN_BYTES_BUDGET}"
    );
}
