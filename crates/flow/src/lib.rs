//! Dynamically defined flows: task graphs built on demand.
//!
//! This crate implements §3.2 of Sutton, Brockman & Director, *"Design
//! Management Using Dynamically Defined Flows"* (DAC 1993): a
//! **dynamically defined flow** is "a sequence of primitive tasks
//! (forming a complex task) which is generated, on demand, by the user
//! of the design system", represented as a **task graph** — a DAG whose
//! nodes are occurrences of schema entities and whose edges are
//! dependencies.
//!
//! Rather than selecting from fixed, predefined flows (the "flow
//! straight-jacket" of earlier systems), the designer *grows* a flow:
//!
//! * [`TaskGraph::seed`] places a first entity — a goal, a tool, or a
//!   piece of data, giving the four design approaches of §3.4 one common
//!   structure;
//! * [`TaskGraph::expand`] incorporates the task that constructs a node
//!   (tool + inputs); [`TaskGraph::expand_down`] grows the flow in the
//!   other direction ("what can I make from this?");
//! * [`TaskGraph::specialize`] picks a subtype so an abstract entity can
//!   be expanded (Fig. 4);
//! * [`Expansion`] options include optional (dashed) dependencies and
//!   reuse existing nodes, enabling Fig. 5's entity reuse and
//!   multi-output subtasks;
//! * [`TaskGraph::unexpand`] removes a task again (the `Unexpand` menu of
//!   Fig. 9).
//!
//! The traditional bipartite flow-diagram view (Fig. 3a) is available
//! through [`FlowDiagram`], the Lisp/C textual forms of footnote 2
//! through [`render::to_sexpr`] and [`render::to_call`], and the
//! plan-based flow library through [`FlowCatalog`].
//!
//! # Examples
//!
//! ```
//! use hercules_flow::TaskGraph;
//! use hercules_schema::fixtures;
//!
//! # fn main() -> Result<(), hercules_flow::FlowError> {
//! let schema = std::sync::Arc::new(fixtures::fig1());
//! let mut flow = TaskGraph::new(schema.clone());
//!
//! // Goal-based: start from the Performance we want.
//! let perf = flow.seed(schema.require("Performance")?)?;
//! flow.expand(perf)?; // simulator, circuit, stimuli
//! flow.validate_for_execution()?;
//! assert_eq!(flow.leaves().len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bipartite;
mod catalog;
mod effects;
mod error;
mod expand;
mod graph;
mod menu;
mod node;
mod spec;
mod subtask;
mod validate;

pub mod fixtures;
pub mod render;

pub use bipartite::{Activity, FlowDiagram};
pub use catalog::{CatalogEntry, FlowCatalog};
pub use effects::{declared_reads, FlowEffects, NodeEffects};
pub use error::FlowError;
pub use expand::Expansion;
pub use graph::TaskGraph;
pub use menu::NodeMenu;
pub use node::{FlowEdge, FlowNode, NodeId};
pub use spec::{FlowEdgeSpec, FlowNodeSpec, FlowSpec};
pub use subtask::Subtask;
