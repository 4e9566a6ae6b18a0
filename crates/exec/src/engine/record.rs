//! Recording: committing a subtask's products to the history with the
//! per-execution invocation dedup, and the identity every trace gives a
//! subtask.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use hercules_flow::{NodeId, Subtask, TaskGraph};
use hercules_history::{Derivation, HistoryDb, InstanceId, Metadata};
use hercules_obs::AttrList;
use hercules_schema::EntityTypeId;

use super::dispatch::{PreparedSubtask, RunResult};
use super::{ExecReport, TaskAction};
use crate::binding::Binding;
use crate::error::ExecError;

/// One invocation: its tool instance, its input instances, and the
/// entities it produces.
type InvocationKey = (Option<InstanceId>, Vec<InstanceId>, Vec<EntityTypeId>);

/// What one execution commits to: the history, the invocations it has
/// recorded, and the report. Only the scheduling thread holds it, so
/// commits are serial, which keeps the dedup and the history
/// deterministic.
pub(super) struct Recorder<'a> {
    pub(super) db: &'a mut HistoryDb,
    /// Identical invocations within one execution record one shared
    /// product: "each design object may be uniquely identified
    /// according to the sequence of tool/data transformations used in
    /// creating that object" (section 1) — performing the same
    /// transformation twice yields the same object, not a duplicate.
    invocations: HashMap<InvocationKey, Vec<InstanceId>>,
    pub(super) report: ExecReport,
    /// User recorded on produced instances.
    user: &'a str,
}

impl<'a> Recorder<'a> {
    /// Starts an execution's record from the binding: its instances are
    /// the first entries of the report's map.
    pub(super) fn new(db: &'a mut HistoryDb, binding: &Binding, user: &'a str) -> Recorder<'a> {
        let mut report = ExecReport::default();
        for (node, instances) in binding.iter() {
            report.produced.insert(node, instances.to_vec());
        }
        Recorder {
            db,
            invocations: HashMap::new(),
            report,
            user,
        }
    }

    /// Commits one successful subtask's runs: records every produced
    /// instance in the history (an invocation already committed in this
    /// execution shares its products instead) and publishes each
    /// output's instances in the report. Each payload moves into the
    /// history with the digest it was hashed to where it was produced,
    /// so the commit hashes nothing. Returns what happened: `Cached`
    /// when no run executed a tool.
    pub(super) fn commit(
        &mut self,
        p: &PreparedSubtask,
        runs: Vec<RunResult>,
    ) -> Result<TaskAction, ExecError> {
        let mut per_output: Vec<Vec<InstanceId>> = vec![Vec::new(); p.subtask.outputs.len()];
        let mut executed = 0usize;
        for (run, result) in p.runs.iter().zip(runs) {
            // A content-cache replay records the same history as a
            // fresh production; it just doesn't count as an execution.
            let (outputs, digests, ran) = match result {
                RunResult::Current(instances) => {
                    for (slot, inst) in instances.into_iter().enumerate() {
                        per_output[slot].push(inst);
                    }
                    continue;
                }
                RunResult::Outputs {
                    outputs,
                    digests,
                    ran,
                } => (outputs, digests, ran),
            };
            let (tool_instance, input_instances) = (run.tool_instance, &run.input_instances);
            let key = (
                tool_instance,
                input_instances.clone(),
                outputs.iter().map(|o| o.entity).collect::<Vec<_>>(),
            );
            if let Some(shared) = self.invocations.get(&key) {
                // An identical invocation already committed in this
                // execution: share its products instead of recording
                // twins.
                for (slot, &inst) in shared.iter().enumerate() {
                    per_output[slot].push(inst);
                }
                continue;
            }
            if ran {
                executed += 1;
            }
            let mut recorded = Vec::with_capacity(outputs.len());
            for (slot, out) in outputs.into_iter().enumerate() {
                let derivation = match tool_instance {
                    Some(t) => Derivation::by_tool(t, input_instances.iter().copied()),
                    None => Derivation::by_composition(input_instances.iter().copied()),
                };
                let mut meta = Metadata::by(self.user);
                if !out.name.is_empty() {
                    meta = meta.named(&out.name);
                }
                let inst = self.db.record_derived_hashed(
                    out.entity,
                    meta,
                    out.data,
                    digests[slot],
                    derivation,
                )?;
                per_output[slot].push(inst);
                recorded.push(inst);
            }
            self.invocations.insert(key, recorded);
        }
        for (&node, instances) in p.subtask.outputs.iter().zip(per_output) {
            self.report.produced.insert(node, instances);
        }
        Ok(if executed == 0 {
            TaskAction::Cached
        } else {
            TaskAction::Ran { runs: executed }
        })
    }
}

/// How traces name one subtask. Live task spans, the spans
/// [`crate::report_to_trace`] rebuilds from a report, and those
/// [`crate::schedule_to_trace`] draws from a plan all carry it, so the
/// profiler derives one task DAG from any of them. The strings are
/// shared with the spans that carry them, not copied per span.
pub(crate) struct TaskIdentity {
    /// `<entity>#n<index>`: the entity whose encapsulation runs (the
    /// tool's, or the output's for a composition) and the first output
    /// node, unique per subtask within one flow.
    pub(crate) label: Arc<str>,
    /// Output nodes (see [`node_list`]).
    outputs: Arc<str>,
    /// Dependency nodes, data inputs then the tool node; unknown
    /// without the flow.
    inputs: Option<Arc<str>>,
}

impl TaskIdentity {
    /// The identity of the subtask that produces `outputs` in `flow`.
    /// Without the flow the label names no entity (`task#n<index>`)
    /// and there is no `inputs` attribute.
    pub(crate) fn of(flow: Option<&TaskGraph>, outputs: &[NodeId]) -> TaskIdentity {
        match flow.zip(outputs.first()) {
            Some((flow, &first)) => {
                TaskIdentity::build(Some((flow, &Subtask::of_node(flow, first))), outputs)
            }
            None => TaskIdentity::build(None, outputs),
        }
    }

    /// The identity of `subtask`, one of `flow`'s subtasks.
    pub(crate) fn of_subtask(flow: &TaskGraph, subtask: &Subtask) -> TaskIdentity {
        TaskIdentity::build(Some((flow, subtask)), &subtask.outputs)
    }

    fn build(subtask: Option<(&TaskGraph, &Subtask)>, outputs: &[NodeId]) -> TaskIdentity {
        let entity = subtask
            .and_then(|(flow, s)| {
                let entity = flow.entity_of(s.tool.unwrap_or(s.outputs[0])).ok()?;
                Some(flow.schema().entity(entity).name())
            })
            .unwrap_or("task");
        // Each string is written into one scratch buffer, then copied
        // once into its shared allocation.
        let mut text = String::with_capacity(32);
        TaskIdentity {
            label: shared(&mut text, |out| {
                out.push_str(entity);
                if let Some(first) = outputs.first() {
                    let _ = write!(out, "#n{}", first.index());
                }
            }),
            outputs: shared(&mut text, |out| {
                push_node_list(out, outputs.iter().copied())
            }),
            inputs: subtask
                .map(|(_, s)| shared(&mut text, |out| push_node_list(out, s.dependencies()))),
        }
    }

    /// Adds the `task`, `outputs` and `inputs` attributes to a span.
    pub(crate) fn attach(&self, attrs: &mut AttrList) {
        attrs.str("task", self.label.clone());
        attrs.str("outputs", self.outputs.clone());
        if let Some(inputs) = &self.inputs {
            attrs.str("inputs", inputs.clone());
        }
    }
}

/// Renders nodes as the space-separated `n<index>` list used by trace
/// attributes (the profiler derives the task DAG from these).
pub(crate) fn node_list(nodes: &[NodeId]) -> String {
    let mut out = String::new();
    push_node_list(&mut out, nodes.iter().copied());
    out
}

/// Renders `write`'s text into `scratch` and shares a copy of it.
fn shared(scratch: &mut String, write: impl FnOnce(&mut String)) -> Arc<str> {
    scratch.clear();
    write(scratch);
    Arc::from(scratch.as_str())
}

/// Appends [`node_list`]'s rendering of `nodes` to `out`.
fn push_node_list(out: &mut String, nodes: impl IntoIterator<Item = NodeId>) {
    for (i, n) in nodes.into_iter().enumerate() {
        let _ = write!(out, "{}n{}", if i > 0 { " " } else { "" }, n.index());
    }
}
