//! Flow execution for the Hercules task manager.
//!
//! This crate turns a validated, fully bound task graph into recorded
//! design history:
//!
//! * [`Encapsulation`] is the tool boundary of §3.3 — tools consume and
//!   produce bytes; multi-function tools, shared encapsulations and
//!   tools-as-data all live here;
//! * [`Binding`] selects database instances for the leaf nodes,
//!   including the multi-instance selections of §4.1 that fan a task
//!   out per instance;
//! * [`Executor`] sequences subtasks automatically from the
//!   dependencies (flow automation), groups shared tool applications
//!   into multi-output subtasks (Fig. 5), optionally runs disjoint
//!   ready subtasks in parallel (Fig. 6), reuses current cached results
//!   (§3.3), and records every product with its immediate derivation;
//! * [`retrace`] recalls the flow behind an instance and re-executes it
//!   against the newest input versions — design-consistency
//!   maintenance;
//! * [`cluster`] plans a flow on `k` simulated machines: it
//!   list-schedules the executor's own subtasks by the executor's own
//!   priorities at a fixed cost each, and [`trace`] turns a finished
//!   report or a plan into trace events whose tasks carry the labels
//!   and `outputs`/`inputs` attributes of a live run;
//! * every tool invocation is *supervised* ([`run_supervised`]): panics
//!   and watchdog-deadline overruns become structured errors, failed
//!   invocations retry per [`RetryPolicy`], and under
//!   [`FailurePolicy::ContinueDisjoint`] a permanent failure only skips
//!   its downstream cone while disjoint branches complete — the
//!   [`fault`] module injects deterministic faults to test all of this.
//!
//! # Examples
//!
//! ```
//! use hercules_exec::{toy, Binding, Executor};
//! use hercules_flow::TaskGraph;
//! use hercules_history::HistoryDb;
//! use hercules_schema::fixtures;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = std::sync::Arc::new(fixtures::fig1());
//! let mut db = HistoryDb::new(schema.clone());
//! toy::seed_everything(&mut db, "setup");
//!
//! // Goal-based: simulate a circuit's performance.
//! let mut flow = TaskGraph::new(schema.clone());
//! let perf = flow.seed(schema.require("Performance")?)?;
//! flow.expand(perf)?;
//! let circuit = flow.data_inputs_of(perf)[0];
//! flow.expand(circuit)?;
//! let netlist = flow.data_inputs_of(circuit)[1];
//! flow.specialize(netlist, schema.require("EditedNetlist")?)?;
//! flow.expand(netlist)?;
//!
//! let mut binding = Binding::new();
//! binding.bind_latest(&flow, &db);
//! let executor = Executor::new(toy::text_registry(&schema));
//! let report = executor.execute(&flow, &binding, &mut db)?;
//! let result = db.data_of(report.single(perf))?.expect("produced");
//! assert_eq!(
//!     String::from_utf8_lossy(result),
//!     "Simulator(Circuit(DeviceModels, CircuitEditor()), Stimuli)"
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binding;
pub mod cluster;
pub mod content_cache;
mod encapsulation;
mod engine;
mod error;
pub mod fault;
mod policy;
mod retrace;
mod supervise;
pub mod trace;

pub mod toy;

pub use binding::Binding;
pub use encapsulation::{
    Encapsulation, EncapsulationRegistry, Invocation, MultiInstanceMode, ToolInput, ToolOutput,
};
pub use engine::{ExecOptions, ExecReport, Executor, TaskAction, TaskRecord};
pub use error::ExecError;
pub use fault::{FaultPlan, FaultyEncapsulation};
pub use policy::{FailurePolicy, RetryPolicy};
pub use retrace::{retrace, RetraceReport};
pub use supervise::run_supervised;
pub use trace::{report_to_trace, schedule_to_trace};
