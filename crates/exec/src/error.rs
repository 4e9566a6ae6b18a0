//! Error type for flow execution.

use std::error::Error;
use std::fmt;

use hercules_flow::{FlowError, NodeId};
use hercules_history::HistoryError;

/// Errors raised while executing a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[allow(missing_docs)] // variant fields are self-describing names/ids
pub enum ExecError {
    /// The flow is structurally unfit to run.
    Flow(FlowError),
    /// The history database rejected an operation.
    History(HistoryError),
    /// A leaf node has no instance bound to it. "Once instances have
    /// been selected for the leaf nodes, the non-leaf nodes become
    /// executable" (§4.1) — and not before.
    UnboundLeaf { node: NodeId, entity: String },
    /// An interior (computed) node was bound to an instance.
    BoundInteriorNode(NodeId),
    /// No encapsulation is registered for the tool (or composite)
    /// entity.
    MissingEncapsulation { entity: String },
    /// The tool ran but failed.
    ToolFailed { tool: String, message: String },
    /// The tool panicked; the supervisor caught the unwind instead of
    /// letting it take down the engine.
    ToolPanicked { tool: String, message: String },
    /// The tool exceeded the per-invocation deadline and was abandoned
    /// by its watchdog.
    ToolTimedOut { tool: String, deadline_ms: u64 },
    /// The tool returned outputs that do not match the subtask's
    /// products.
    WrongOutputs { tool: String, detail: String },
    /// Multi-instance fan-out exceeded the limit of 1,024 runs per
    /// subtask.
    FanOutTooLarge { runs: usize, limit: usize },
    /// [`ExecReport::try_single`](crate::ExecReport::try_single) was
    /// asked for the single instance of a node that has zero or
    /// several.
    NotSingleInstance { node: NodeId, count: usize },
    /// A failure restored from a persisted report: the original error
    /// was rendered to text when journaled, so only its message
    /// survives.
    Restored { message: String },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Flow(e) => write!(f, "flow error: {e}"),
            ExecError::History(e) => write!(f, "history error: {e}"),
            ExecError::UnboundLeaf { node, entity } => {
                write!(f, "leaf {node} (`{entity}`) has no instance selected")
            }
            ExecError::BoundInteriorNode(node) => {
                write!(f, "node {node} is computed by the flow and cannot be bound")
            }
            ExecError::MissingEncapsulation { entity } => {
                write!(f, "no encapsulation registered for `{entity}`")
            }
            ExecError::ToolFailed { tool, message } => {
                write!(f, "tool `{tool}` failed: {message}")
            }
            ExecError::ToolPanicked { tool, message } => {
                write!(f, "tool `{tool}` panicked: {message}")
            }
            ExecError::ToolTimedOut { tool, deadline_ms } => {
                write!(f, "tool `{tool}` exceeded its {deadline_ms}ms deadline")
            }
            ExecError::WrongOutputs { tool, detail } => {
                write!(f, "tool `{tool}` returned mismatched outputs: {detail}")
            }
            ExecError::FanOutTooLarge { runs, limit } => write!(
                f,
                "multi-instance selection fans out to {runs} runs (limit {limit})"
            ),
            ExecError::NotSingleInstance { node, count } => {
                write!(f, "node {node} has {count} instances, expected exactly one")
            }
            ExecError::Restored { message } => write!(f, "{message}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Flow(e) => Some(e),
            ExecError::History(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlowError> for ExecError {
    fn from(e: FlowError) -> ExecError {
        ExecError::Flow(e)
    }
}

impl From<HistoryError> for ExecError {
    fn from(e: HistoryError) -> ExecError {
        ExecError::History(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errors = vec![
            ExecError::UnboundLeaf {
                node: NodeId::from_index(1),
                entity: "Stimuli".into(),
            },
            ExecError::MissingEncapsulation {
                entity: "Simulator".into(),
            },
            ExecError::FanOutTooLarge {
                runs: 4096,
                limit: 1024,
            },
            ExecError::ToolPanicked {
                tool: "Simulator".into(),
                message: "index out of bounds".into(),
            },
            ExecError::ToolTimedOut {
                tool: "Simulator".into(),
                deadline_ms: 50,
            },
            ExecError::NotSingleInstance {
                node: NodeId::from_index(3),
                count: 0,
            },
            ExecError::Restored {
                message: "tool `Placer` failed: grid overflow".into(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e: ExecError = FlowError::Cycle.into();
        assert!(e.source().is_some());
        let e: ExecError =
            HistoryError::UnknownInstance(hercules_history::InstanceId::from_raw(0)).into();
        assert!(e.source().is_some());
    }

    #[test]
    fn leaf_errors_have_no_source() {
        use std::error::Error as _;
        let e = ExecError::ToolPanicked {
            tool: "t".into(),
            message: "boom".into(),
        };
        assert!(e.source().is_none());
        let e = ExecError::ToolTimedOut {
            tool: "t".into(),
            deadline_ms: 10,
        };
        assert!(e.source().is_none());
    }
}
