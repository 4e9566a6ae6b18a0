//! Multi-machine schedule simulation (Fig. 6's "possibly on different
//! machines").
//!
//! The 1993 setting ran tools on a farm of workstations; this module
//! simulates list-scheduling a flow's subtasks onto `k` machines at a
//! fixed cost per subtask, producing the makespan and per-machine
//! timeline. It is a *planning* tool — the real executor runs threads —
//! used to answer "how many machines would this flow keep busy?" and to
//! drive the distribution ablation bench. It schedules the engine's own
//! subtasks (one per shared tool application, Fig. 5) by the engine's
//! own dispatch priorities, so a plan predicts the order a run
//! dispatches in.

use hercules_flow::{NodeId, TaskGraph};

use crate::engine::{dependency_edges, subtask_priorities};
use crate::error::ExecError;

/// Simulated duration of every subtask, in abstract work units.
pub const TASK_COST: u64 = 10;

/// One scheduled task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledTask {
    /// Output nodes of the subtask, as in [`crate::TaskRecord::outputs`].
    pub outputs: Vec<NodeId>,
    /// Machine index it ran on.
    pub machine: usize,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

/// A simulated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Tasks in start order.
    pub tasks: Vec<ScheduledTask>,
    /// Number of machines used.
    pub machines: usize,
    /// Completion time of the whole flow.
    pub makespan: u64,
    /// Sum of all task durations (the serial lower bound on one
    /// machine).
    pub total_work: u64,
}

impl Schedule {
    /// Parallel efficiency: total work / (machines × makespan), 1.0
    /// when every machine is busy the whole time.
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0 || self.machines == 0 {
            return 1.0;
        }
        self.total_work as f64 / (self.machines as f64 * self.makespan as f64)
    }

    /// The speedup over running everything on one machine.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            return 1.0;
        }
        self.total_work as f64 / self.makespan as f64
    }
}

/// List-schedules the flow's subtasks onto `machines` identical
/// machines, each subtask taking [`TASK_COST`]: at every point the
/// earliest-available machine takes the ready subtask whose inputs are
/// ready first, the one with the higher engine priority (the longest
/// downstream pole) on a tie.
///
/// # Errors
///
/// Returns [`ExecError::Flow`] for cyclic graphs; `machines` is
/// clamped to at least 1.
///
/// # Examples
///
/// ```
/// use hercules_exec::cluster::simulate_schedule;
/// use hercules_flow::fixtures;
/// use hercules_schema::fixtures as schemas;
///
/// # fn main() -> Result<(), hercules_exec::ExecError> {
/// let schema = std::sync::Arc::new(schemas::fig1());
/// let flow = fixtures::fig6(schema)?;
/// let one = simulate_schedule(&flow, 1)?;
/// let two = simulate_schedule(&flow, 2)?;
/// assert!(two.makespan < one.makespan, "the disjoint branches overlap");
/// # Ok(())
/// # }
/// ```
pub fn simulate_schedule(flow: &TaskGraph, machines: usize) -> Result<Schedule, ExecError> {
    flow.validate_for_execution()?;
    let machines = machines.max(1);
    let subtasks = flow.subtasks()?;
    // A plan has no binding: every leaf is ready at time 0.
    let producers_of = dependency_edges(&subtasks, |_| true).producers_of;
    let priority = subtask_priorities(&subtasks, &producers_of);

    // When each subtask's outputs are ready; `None` until scheduled.
    let mut done_at: Vec<Option<u64>> = vec![None; subtasks.len()];
    let mut machine_free = vec![0u64; machines];
    let mut tasks = Vec::with_capacity(subtasks.len());

    while tasks.len() < subtasks.len() {
        // Ready subtasks: every producer scheduled. Earliest inputs
        // first, then the engine's priority, then its dispatch order.
        let next = (0..subtasks.len())
            .filter(|&i| done_at[i].is_none())
            .filter_map(|i| {
                let inputs_ready = producers_of[i]
                    .iter()
                    .try_fold(0, |ready, &j| done_at[j].map(|end| ready.max(end)))?;
                Some((inputs_ready, std::cmp::Reverse(priority[i]), i))
            })
            .min();
        let Some((inputs_ready, _, i)) = next else {
            return Err(ExecError::Flow(hercules_flow::FlowError::Cycle));
        };
        let (machine, &free_at) = machine_free
            .iter()
            .enumerate()
            .min_by_key(|&(m, &t)| (t, m))
            .expect("at least one machine");
        let start = free_at.max(inputs_ready);
        let end = start + TASK_COST;
        machine_free[machine] = end;
        done_at[i] = Some(end);
        tasks.push(ScheduledTask {
            outputs: subtasks[i].outputs.clone(),
            machine,
            start,
            end,
        });
    }

    tasks.sort_by_key(|t| (t.start, t.machine));
    let makespan = tasks.iter().map(|t| t.end).max().unwrap_or(0);
    Ok(Schedule {
        total_work: TASK_COST * tasks.len() as u64,
        tasks,
        machines,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_flow::fixtures;
    use hercules_schema::fixtures as schemas;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn fig6_flow() -> TaskGraph {
        let schema = Arc::new(schemas::fig1());
        fixtures::fig6(schema).expect("fixture")
    }

    #[test]
    fn one_machine_serializes_everything() {
        let flow = fig6_flow();
        let s = simulate_schedule(&flow, 1).expect("schedules");
        assert_eq!(s.makespan, s.total_work, "no overlap on one machine");
        assert!((s.speedup() - 1.0).abs() < 1e-9);
        assert_eq!(s.tasks.len(), flow.interior().len());
    }

    #[test]
    fn two_machines_overlap_the_disjoint_branches() {
        let flow = fig6_flow();
        let one = simulate_schedule(&flow, 1).expect("schedules");
        let two = simulate_schedule(&flow, 2).expect("schedules");
        // Fig. 6: the edited-netlist branch and the extraction branch
        // overlap; the verification still waits for both.
        assert_eq!(one.makespan, 30, "3 tasks x 10");
        assert_eq!(two.makespan, 20, "two branches in parallel, then verify");
        assert!(two.efficiency() > 0.7);
    }

    #[test]
    fn extra_machines_beyond_the_width_are_idle() {
        let flow = fig6_flow();
        let two = simulate_schedule(&flow, 2).expect("schedules");
        let ten = simulate_schedule(&flow, 10).expect("schedules");
        assert_eq!(two.makespan, ten.makespan, "width-2 flow");
        assert!(ten.efficiency() < two.efficiency());
    }

    #[test]
    fn dependencies_are_never_violated() {
        let schema = Arc::new(schemas::fig1());
        let flow = fixtures::fig5(schema).expect("fixture");
        let s = simulate_schedule(&flow, 3).expect("schedules");
        let end_of: HashMap<NodeId, u64> = s
            .tasks
            .iter()
            .flat_map(|t| t.outputs.iter().map(move |&o| (o, t.end)))
            .collect();
        for t in &s.tasks {
            for e in t.outputs.iter().flat_map(|&o| flow.producers_of(o)) {
                if let Some(&producer_end) = end_of.get(&e.source()) {
                    assert!(
                        producer_end <= t.start,
                        "{:?} started before its input finished",
                        t.outputs
                    );
                }
            }
        }
        // No machine runs two tasks at once.
        for a in &s.tasks {
            for b in &s.tasks {
                if a.outputs != b.outputs && a.machine == b.machine {
                    assert!(a.end <= b.start || b.end <= a.start);
                }
            }
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let flow = fig6_flow();
        let a = simulate_schedule(&flow, 3).expect("schedules");
        let b = simulate_schedule(&flow, 3).expect("schedules");
        assert_eq!(a, b);
    }

    #[test]
    fn zero_machines_clamps_to_one() {
        let flow = fig6_flow();
        let s = simulate_schedule(&flow, 0).expect("schedules");
        assert_eq!(s.machines, 1);
    }
}
