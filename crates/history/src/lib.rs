//! The design-history database of the Hercules task manager.
//!
//! This crate implements the design-data-management half of Sutton,
//! Brockman & Director, *"Design Management Using Dynamically Defined
//! Flows"* (DAC 1993): "all design objects are created through the
//! execution of flows and … each design object may be uniquely
//! identified according to the sequence of tool/data transformations
//! used in creating that object. A consequence of this is that if flows
//! are properly defined, queries into the derivation history of design
//! objects obviate the need for additional version management schemes."
//!
//! * [`HistoryDb`] stores [`EntityInstance`]s — each with user-visible
//!   [`Metadata`] and, crucially, only the *immediate* [`Derivation`]
//!   (tool + inputs) that created it;
//! * backward chaining ([`HistoryDb::backward_chain`]) reconstructs a
//!   complete derivation history from those immediate records (Fig. 10);
//!   forward chaining ([`HistoryDb::forward_chain`]) finds dependents;
//! * a task graph doubles as a *query template*
//!   ([`HistoryDb::query_template`], §4.2);
//! * version trees are a projection of the history
//!   ([`HistoryDb::version_forest`], Fig. 11a) and a [`FlowTrace`] is the
//!   richer task-graph form (Fig. 11b);
//! * out-of-date detection ([`HistoryDb::staleness_of`]) supports
//!   design-consistency maintenance (§3.3);
//! * [`BrowserQuery`] is the Fig. 9 instance browser (user / date /
//!   keyword / use-dependency filters);
//! * the [`BlobStore`] shares physical data between instances
//!   (footnote 5's shared RCS files).
//!
//! # Examples
//!
//! ```
//! use hercules_history::{Derivation, HistoryDb, Metadata};
//! use hercules_schema::fixtures;
//!
//! # fn main() -> Result<(), hercules_history::HistoryError> {
//! let schema = std::sync::Arc::new(fixtures::fig1());
//! let mut db = HistoryDb::new(schema.clone());
//!
//! let editor = db.record_primary(
//!     schema.require("CircuitEditor")?, Metadata::by("jbb"), b"sced")?;
//! let netlist = db.record_derived(
//!     schema.require("EditedNetlist")?,
//!     Metadata::by("jbb").named("Low pass filter"),
//!     b".subckt lpf",
//!     Derivation::by_tool(editor, []),
//! )?;
//!
//! // Fig. 10: select History on the netlist icon.
//! let history = db.backward_chain(netlist, Some(1))?;
//! assert_eq!(history.tool, Some(editor));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod clock;
mod consistency;
mod db;
mod derivation;
mod error;
mod instance;
mod persist;
mod query;
mod revdep;
mod store;
mod trace;
mod version;

pub use chain::{DerivationTree, TemplateMatch};
pub use clock::{LogicalClock, Timestamp};
pub use consistency::Staleness;
pub use db::HistoryDb;
pub use derivation::Derivation;
pub use error::HistoryError;
pub use instance::{EntityInstance, InstanceId, Metadata};
pub use persist::{HistorySpec, InstanceSpec, Payload};
pub use query::BrowserQuery;
pub use revdep::{DirtyCone, RetraceCone, VersionCut};
pub use store::{BlobHash, BlobStore};
pub use trace::FlowTrace;
pub use version::VersionForest;
