//! **Hercules** — the task manager of the Odyssey CAD framework,
//! reproduced from Sutton, Brockman & Director, *"Design Management
//! Using Dynamically Defined Flows"*, DAC 1993.
//!
//! A [`Session`] owns the pieces the paper describes:
//!
//! * a **task schema** ([`hercules_schema`]) stating which tasks exist
//!   and how entities depend on each other (Fig. 1 + Fig. 2);
//! * **dynamically defined flows** ([`hercules_flow`]) the designer
//!   grows on demand — expand, specialize, unexpand — instead of
//!   picking from fixed flows;
//! * a **design-history database** ([`hercules_history`]) recording
//!   every product with its immediate derivation, queryable by
//!   backward/forward chaining and by flow templates;
//! * an **execution engine** ([`hercules_exec`]) with automatic task
//!   sequencing, parallel disjoint branches, caching and retracing;
//! * the simulated **EDA tools** ([`hercules_eda`]) behind the
//!   [`encaps`] encapsulations.
//!
//! All four §3.4 design approaches share the session API (and the
//! Fig. 9 text UI in [`ui`]): goal-based, tool-based, data-based, and
//! plan-based.
//!
//! # Examples
//!
//! A complete goal-based simulation task against the standard Odyssey
//! environment:
//!
//! ```
//! use hercules::Session;
//!
//! # fn main() -> Result<(), hercules::HerculesError> {
//! let mut session = Session::odyssey("jbb");
//!
//! // Goal: a Performance report. Expand to the simulate task, then
//! // build the circuit from device models and an edited netlist.
//! let perf = session.start_from_goal("Performance")?;
//! let created = session.expand(perf)?;            // simulator, circuit, stimuli
//! let circuit = created[1];
//! let created = session.expand(circuit)?;         // device models, netlist
//! let netlist = created[1];
//! session.specialize(netlist, "EditedNetlist")?;
//! session.expand(netlist)?;                       // circuit editor
//! session.expand(created[0])?;                    // device-model editor
//!
//! // Pick the "CMOS Full adder" editor script, newest everything else.
//! let editor_node = session.flow()?.tool_of(netlist).expect("expanded");
//! let scripts = session.browse(editor_node)?;
//! let adder = scripts
//!     .into_iter()
//!     .find(|&i| session.db().instance(i).map(|x| x.meta().name.contains("Full adder")).unwrap_or(false))
//!     .expect("seeded script");
//! session.select(editor_node, adder);
//! session.bind_latest()?;
//!
//! let report = session.run()?;
//! assert!(report.runs() >= 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod persist;
mod session;

pub mod audit;
pub mod catalog;
pub mod encaps;
pub mod setup;
pub mod store;
pub mod telemetry;
pub mod ui;
pub mod views;

pub use error::HerculesError;
pub use persist::{ExecReportSpec, FlowOp, SessionSpec, TaskActionSpec, TaskRecordSpec};
pub use session::{Approach, ExecEvent, Session};
pub use store::{
    CheckpointKind, DegradedReason, JournalOp, RecoveryReport, ScrubReport, SegmentRecovery,
    SegmentScrub, StoreError, Workspace, WriteState,
};
pub use telemetry::{
    read_postmortem, store_health, PostmortemRecord, PostmortemReport, SessionStamp,
    TelemetryWriter,
};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use hercules_baseline as baseline;
pub use hercules_cache as cache;
pub use hercules_eda as eda;
pub use hercules_exec as exec;
pub use hercules_flow as flow;
pub use hercules_history as history;
pub use hercules_obs as obs;
pub use hercules_schema as schema;
pub use hercules_sim as sim;
