//! Dispatch: preparing a ready subtask, resolving where each of its
//! runs' outputs come from, routing it, and running its tools under
//! supervision with retries.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;

use hercules_cache::CacheKey;
use hercules_flow::{Subtask, TaskGraph};
use hercules_history::{HistoryDb, InstanceId};
use hercules_obs::SpanId;
use hercules_schema::{EntityTypeId, TaskSchema};
use hercules_sim::SimInstant;

use super::record::TaskIdentity;
use super::schedule::{ReadyTask, SchedEnv, TaskMetrics};
use super::{ExecOptions, ExecReport, Executor};
use crate::content_cache::{self, SharedOutput};
use crate::encapsulation::{Encapsulation, Invocation, MultiInstanceMode, ToolInput, ToolOutput};
use crate::error::ExecError;
use crate::supervise;

/// Upper bound on one subtask's multi-instance fan-out: a larger
/// selection fails with [`ExecError::FanOutTooLarge`] before any tool
/// runs.
pub(super) const FANOUT_LIMIT: usize = 1024;

/// Per-dispatch context threaded into subtask runs: the parent span of
/// the task span (the scheduler epoch), the execution epoch (task start
/// offsets are relative to it), and the dispatch instant (queue wait =
/// how long a ready subtask sat before it started running, parked time
/// included).
pub(super) struct DispatchCtx {
    pub(super) span: SpanId,
    pub(super) epoch: SimInstant,
    pub(super) dispatched: SimInstant,
}

/// The parallel pump's content-cache routing state. The scheduling
/// thread owns it, so it needs no lock.
#[derive(Default)]
pub(super) struct Flights {
    /// Content keys whose tool an in-flight subtask runs: single-flight
    /// within one execution.
    claims: HashSet<CacheKey>,
    /// Subtasks parked until the claimant of a key finishes.
    waiters: HashMap<CacheKey, Vec<ReadyTask>>,
    /// Subtasks whose every run was resolved without a tool, in the
    /// order they resolved: the scheduling thread completes them.
    pub(super) resolved: VecDeque<ReadyTask>,
    /// Whether a subtask went to the ready queue; the pool starts then.
    pub(super) queued: bool,
}

/// Where [`Executor::resolve`] sends a subtask.
pub(super) enum Resolution {
    /// Every run has its result: there is no tool to run.
    Resolved,
    /// At least one run needs its tool.
    Invoke,
    /// A run's key is claimed by another in-flight subtask.
    Wait(CacheKey),
}

impl Executor {
    /// Routes a ready subtask of the parallel pump by
    /// [`Executor::resolve`]: one resolved whole waits for the
    /// scheduling thread, one with a tool to run goes to the ready
    /// queue, and one with a key another subtask claimed parks until
    /// that claimant finishes.
    pub(super) fn route(
        &self,
        flights: &mut Flights,
        env: &SchedEnv<'_>,
        mut task: ReadyTask,
        db: &HistoryDb,
    ) -> Result<(), ExecError> {
        let schema = env.flow.schema();
        match self.resolve(schema, &mut task.prepared, Some(&mut flights.claims), db)? {
            Resolution::Resolved => flights.resolved.push_back(task),
            Resolution::Invoke => {
                flights.queued = true;
                env.queue.push(task, &env.metrics.queue_depth);
            }
            Resolution::Wait(key) => {
                env.metrics.cache_waits.incr(1);
                task.prepared.waits.push(key);
                flights.waiters.entry(key).or_default().push(task);
            }
        }
        Ok(())
    }

    /// Picks the route of each run not yet resolved, on the scheduling
    /// thread: a content-cache hit replays its entry's shared payloads;
    /// a miss runs the tool, and only then are its inputs copied out of
    /// the history; a run whose key an
    /// earlier run of the same subtask invokes repeats that run's
    /// outputs. With `claims` (the parallel pump) a miss claims its key
    /// for this subtask, and a subtask with a run whose key is claimed
    /// already waits, looking nothing up.
    pub(super) fn resolve(
        &self,
        schema: &TaskSchema,
        prepared: &mut PreparedSubtask,
        mut claims: Option<&mut HashSet<CacheKey>>,
        db: &HistoryDb,
    ) -> Result<Resolution, ExecError> {
        if let Some(claims) = claims.as_deref() {
            let claimed = prepared
                .runs
                .iter()
                .filter(|r| matches!(r.route, Route::Unresolved))
                .find_map(|r| r.key.filter(|k| claims.contains(k)));
            if let Some(key) = claimed {
                return Ok(Resolution::Wait(key));
            }
        }
        let mut invoked: HashMap<CacheKey, usize> = HashMap::new();
        for i in 0..prepared.runs.len() {
            let run = &prepared.runs[i];
            if !matches!(run.route, Route::Unresolved) {
                continue;
            }
            let route = match (&self.options.cache, run.key) {
                (Some(cache), Some(key)) => {
                    if let Some(&first) = invoked.get(&key) {
                        Route::Repeat(first)
                    } else if let Some(outputs) = cache.lookup(&key).and_then(|entry| {
                        content_cache::outputs_from_entry(schema, &entry, &prepared.output_entities)
                    }) {
                        Route::Hit(outputs)
                    } else {
                        invoked.insert(key, i);
                        if let Some(claims) = claims.as_deref_mut() {
                            claims.insert(key);
                            prepared.claimed.push(key);
                        }
                        Route::Invoke(prepared.invocation(db, run)?)
                    }
                }
                _ => Route::Invoke(prepared.invocation(db, run)?),
            };
            prepared.runs[i].route = route;
        }
        let invokes = prepared
            .runs
            .iter()
            .any(|r| matches!(r.route, Route::Invoke(_)));
        Ok(if invokes {
            Resolution::Invoke
        } else {
            Resolution::Resolved
        })
    }

    /// Releases the content keys a finished subtask claimed and routes
    /// the subtasks parked on them again: after a success their lookups
    /// hit; after a failure the first of them claims the key and runs
    /// the tool, and the rest park on it.
    pub(super) fn release_claims(
        &self,
        flights: &mut Flights,
        env: &SchedEnv<'_>,
        prepared: &PreparedSubtask,
        db: &HistoryDb,
    ) -> Result<(), ExecError> {
        for key in &prepared.claimed {
            flights.claims.remove(key);
            for task in flights.waiters.remove(key).unwrap_or_default() {
                self.route(flights, env, task, db)?;
            }
        }
        Ok(())
    }

    /// Prepares one subtask: resolves instances, computes the fan-out
    /// and keys each run from the digests the history holds. It reads
    /// every input's instances from the report's map and copies no
    /// payload: [`Executor::resolve`] copies a run's payloads once its
    /// lookup missed.
    pub(super) fn prepare(
        &self,
        flow: &TaskGraph,
        subtask: &Subtask,
        report: &ExecReport,
        db: &HistoryDb,
    ) -> Result<PreparedSubtask, ExecError> {
        let schema = flow.schema();
        let lookup_entity = match subtask.tool {
            Some(t) => flow.entity_of(t)?,
            None => flow.entity_of(subtask.outputs[0])?,
        };
        let enc = self
            .registry
            .lookup(schema, lookup_entity)
            .ok_or_else(|| ExecError::MissingEncapsulation {
                entity: schema.entity(lookup_entity).name().to_owned(),
            })?
            .clone();

        let tool_instances: Vec<InstanceId> = match subtask.tool {
            Some(t) => report.instances_of(t).to_vec(),
            None => Vec::new(),
        };
        let input_instances: Vec<(EntityTypeId, Vec<InstanceId>)> = subtask
            .inputs
            .iter()
            .map(|&i| Ok((flow.entity_of(i)?, report.instances_of(i).to_vec())))
            .collect::<Result<_, ExecError>>()?;

        // Fan-out: cartesian product over multi-instance slots under
        // RunPerInstance; a single call under SingleCall.
        let mode = enc.multi_instance_mode();
        let combos: Vec<RunInputs> = match mode {
            MultiInstanceMode::SingleCall => {
                let tools = if subtask.tool.is_some() {
                    if tool_instances.len() != 1 {
                        return Err(ExecError::ToolFailed {
                            tool: schema.entity(lookup_entity).name().to_owned(),
                            message: "single-call tools need exactly one tool instance".into(),
                        });
                    }
                    Some(tool_instances[0])
                } else {
                    None
                };
                vec![RunInputs {
                    tool: tools,
                    inputs: input_instances.clone(),
                }]
            }
            MultiInstanceMode::RunPerInstance => {
                let mut combos = vec![RunInputs {
                    tool: None,
                    inputs: Vec::new(),
                }];
                if subtask.tool.is_some() {
                    combos = tool_instances
                        .iter()
                        .map(|&t| RunInputs {
                            tool: Some(t),
                            inputs: Vec::new(),
                        })
                        .collect();
                }
                for (entity, instances) in &input_instances {
                    let mut next = Vec::with_capacity(combos.len() * instances.len());
                    for combo in &combos {
                        for &inst in instances {
                            let mut c = combo.clone();
                            c.inputs.push((*entity, vec![inst]));
                            next.push(c);
                        }
                    }
                    combos = next;
                    if combos.len() > FANOUT_LIMIT {
                        return Err(ExecError::FanOutTooLarge {
                            runs: combos.len(),
                            limit: FANOUT_LIMIT,
                        });
                    }
                }
                combos
            }
        };

        let output_entities: Vec<EntityTypeId> = subtask
            .outputs
            .iter()
            .map(|&o| flow.entity_of(o))
            .collect::<Result<_, _>>()?;
        let mut runs = Vec::with_capacity(combos.len());
        for combo in combos {
            let input_instances: Vec<InstanceId> = combo
                .inputs
                .iter()
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            let current: Option<Vec<InstanceId>> = if self.options.reuse_cached {
                output_entities
                    .iter()
                    .map(|&e| db.current_cached(e, combo.tool, &input_instances))
                    .collect()
            } else {
                None
            };
            // The content key folds the digests the history computed
            // when it stored each payload; only a cache reads it.
            let key = match (&self.options.cache, &current) {
                (Some(_), None) => {
                    let tool = match combo.tool {
                        Some(t) => db.instance(t)?.data(),
                        None => None,
                    };
                    let inputs = combo
                        .inputs
                        .iter()
                        .map(|(entity, instances)| {
                            let digests = instances
                                .iter()
                                .map(|&i| Ok(content_cache::input_digest(db.instance(i)?.data())))
                                .collect::<Result<_, ExecError>>()?;
                            Ok((*entity, digests))
                        })
                        .collect::<Result<Vec<_>, ExecError>>()?;
                    Some(content_cache::invocation_key(
                        schema,
                        lookup_entity,
                        tool,
                        &inputs,
                        &output_entities,
                    ))
                }
                _ => None,
            };
            runs.push(PreparedRun {
                tool_instance: combo.tool,
                inputs: combo.inputs,
                input_instances,
                key,
                route: current.map_or(Route::Unresolved, Route::Current),
            });
        }
        Ok(PreparedSubtask {
            identity: TaskIdentity::of_subtask(flow, subtask),
            subtask: subtask.clone(),
            enc,
            tool_entity: lookup_entity,
            runs,
            output_entities,
            claimed: Vec::new(),
            waits: Vec::new(),
        })
    }
}

#[derive(Debug, Clone)]
struct RunInputs {
    tool: Option<InstanceId>,
    inputs: Vec<(EntityTypeId, Vec<InstanceId>)>,
}

/// One run of a prepared subtask: the instances it reads and, once
/// resolved, where its outputs come from.
pub(super) struct PreparedRun {
    pub(super) tool_instance: Option<InstanceId>,
    /// Input instances by entity, in [`Invocation::inputs`] order.
    inputs: Vec<(EntityTypeId, Vec<InstanceId>)>,
    /// `inputs` flattened: the derivation its products record.
    pub(super) input_instances: Vec<InstanceId>,
    /// Content-cache key, derived only when a cache is attached.
    pub(super) key: Option<CacheKey>,
    route: Route,
}

/// Where one run's outputs come from.
enum Route {
    /// Not looked up yet (or already consumed by the run phase).
    Unresolved,
    /// A current instance per output (`reuse_cached`), found when the
    /// subtask was prepared.
    Current(Vec<InstanceId>),
    /// A content-cache hit: the entry's outputs, sharing its payload
    /// buffers and replayed with the digests the entry carries.
    Hit(Vec<SharedOutput>),
    /// The lookup missed: the tool runs on these payloads.
    Invoke(Invocation),
    /// The key of this subtask's run at that index, which invokes the
    /// tool: its outputs are replayed.
    Repeat(usize),
}

/// The outcome of one run, before recording.
pub(super) enum RunResult {
    /// Current instances (`reuse_cached`): nothing to record.
    Current(Vec<InstanceId>),
    /// Outputs to record. A content-cache replay (`ran` false) commits
    /// exactly like a fresh production, so a warm run's records are
    /// byte-identical to a cold run's, but does not count as an
    /// execution. Each output carries its shared payload buffer and
    /// its SHA-256: the entry's for a replay, hashed where the tool ran
    /// for a fresh production. The history keeps the buffers and hashes
    /// nothing.
    Outputs {
        outputs: Vec<SharedOutput>,
        ran: bool,
    },
}

pub(super) struct PreparedSubtask {
    pub(super) subtask: Subtask,
    enc: std::sync::Arc<dyn Encapsulation>,
    /// The entity whose encapsulation runs: the tool's, or the output's
    /// for a composition.
    tool_entity: EntityTypeId,
    pub(super) runs: Vec<PreparedRun>,
    output_entities: Vec<EntityTypeId>,
    /// Content keys this subtask claimed (parallel pump only).
    claimed: Vec<CacheKey>,
    /// Content keys this subtask was parked on, in order.
    waits: Vec<CacheKey>,
    /// What its task span is labelled and attributed with.
    pub(super) identity: TaskIdentity,
}

/// What one subtask's run phase produced: either every run's result,
/// or the first permanent error — plus bookkeeping for the report.
pub(super) struct SubtaskOutcome {
    pub(super) result: Result<Vec<RunResult>, ExecError>,
    /// Largest number of attempts any single invocation needed.
    pub(super) attempts: u32,
    pub(super) duration: Duration,
    /// Start offset from the execution epoch.
    pub(super) started: Duration,
}

impl PreparedSubtask {
    /// Deterministic jitter salt for one invocation of this subtask.
    /// Folding in `jitter_seed` ties the whole backoff schedule to the
    /// run's simulation seed: same seed, same delays, run after run.
    fn retry_salt(&self, run_index: usize, jitter_seed: u64) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        (jitter_seed, self.subtask.outputs.first(), run_index).hash(&mut hasher);
        hasher.finish()
    }

    /// Validates one invocation's outputs against the subtask's
    /// products.
    fn check_outputs(
        &self,
        schema: &TaskSchema,
        invocation: &Invocation,
        outputs: &[ToolOutput],
    ) -> Result<(), ExecError> {
        if outputs.len() != self.output_entities.len() {
            return Err(ExecError::WrongOutputs {
                tool: schema.entity(invocation.tool_entity).name().to_owned(),
                detail: format!(
                    "expected {} outputs, got {}",
                    self.output_entities.len(),
                    outputs.len()
                ),
            });
        }
        for (out, &want) in outputs.iter().zip(&self.output_entities) {
            if !schema.is_subtype_of(out.entity, want) {
                return Err(ExecError::WrongOutputs {
                    tool: schema.entity(invocation.tool_entity).name().to_owned(),
                    detail: format!(
                        "expected `{}`, got `{}`",
                        schema.entity(want).name(),
                        schema.entity(out.entity).name()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Runs one invocation under supervision, retrying per the policy.
    /// Returns the validated outputs and the number of attempts made.
    fn run_one(
        &self,
        schema: &std::sync::Arc<TaskSchema>,
        invocation: &Invocation,
        options: &ExecOptions,
        metrics: &TaskMetrics,
        salt: u64,
        task_span: SpanId,
    ) -> (Result<Vec<ToolOutput>, ExecError>, u32) {
        let mut attempt = 1u32;
        loop {
            let attempt_span = options.tracer.begin_with("attempt", task_span, |a| {
                a.uint("attempt", u64::from(attempt));
            });
            let attempt_started = options.clock.now();
            let result = supervise::run_supervised(&self.enc, schema, invocation, options.deadline)
                .and_then(|outputs| {
                    self.check_outputs(schema, invocation, &outputs)?;
                    Ok(outputs)
                });
            metrics
                .attempt_ns
                .observe_duration(options.clock.since(attempt_started));
            match result {
                Ok(outputs) => {
                    options.tracer.end_with(attempt_span, |a| {
                        a.bool("ok", true);
                    });
                    return (Ok(outputs), attempt);
                }
                Err(error) => {
                    let cause = error.to_string();
                    options.tracer.end_with(attempt_span, |a| {
                        a.bool("ok", false);
                        a.str("error", cause.as_str());
                    });
                    if attempt >= options.retry.max_attempts || !options.retry.is_retryable(&error)
                    {
                        return (Err(error), attempt);
                    }
                    attempt += 1;
                    let delay = options.retry.delay_before(attempt, salt);
                    metrics.retries.incr(1);
                    options.tracer.instant("retry", task_span, |a| {
                        a.uint("attempt", u64::from(attempt));
                        a.str("cause", cause.as_str());
                        a.uint("delay_ms", delay.as_millis() as u64);
                    });
                    options.clock.sleep(delay);
                }
            }
        }
    }

    /// The invocation of a run whose lookup missed: copies its tool and
    /// input payloads out of the history.
    fn invocation(&self, db: &HistoryDb, run: &PreparedRun) -> Result<Invocation, ExecError> {
        let tool_data = match run.tool_instance {
            Some(t) => db.data_of(t)?.map(<[u8]>::to_vec),
            None => None,
        };
        let inputs = run
            .inputs
            .iter()
            .map(|(entity, instances)| {
                let payloads = instances
                    .iter()
                    .map(|&i| Ok(db.data_of(i)?.map(<[u8]>::to_vec).unwrap_or_default()))
                    .collect::<Result<_, ExecError>>()?;
                Ok(ToolInput {
                    entity: *entity,
                    instances: payloads,
                })
            })
            .collect::<Result<_, ExecError>>()?;
        Ok(Invocation {
            tool_entity: self.tool_entity,
            tool_data,
            inputs,
            outputs: self.output_entities.clone(),
        })
    }

    /// Runs the subtask's resolved runs: replays hits and current
    /// instances, and runs each missed run's tool under supervision
    /// with retries, hashing its outputs and writing them back to the
    /// content cache; stops at the first permanent failure. It looks
    /// nothing up: [`Executor::resolve`] routed every run on the
    /// scheduling thread.
    pub(super) fn run_all(
        &mut self,
        schema: &std::sync::Arc<TaskSchema>,
        options: &ExecOptions,
        metrics: &TaskMetrics,
        ctx: &DispatchCtx,
    ) -> SubtaskOutcome {
        let started = options.clock.now();
        let started_offset = started.duration_since(ctx.epoch);
        let queue_wait = started.duration_since(ctx.dispatched);
        metrics.queue_wait_ns.observe_duration(queue_wait);
        let invoked = self
            .runs
            .iter()
            .filter(|r| matches!(r.route, Route::Invoke(_)))
            .count();
        let task_span = options.tracer.begin_with("task", ctx.span, |a| {
            self.identity.attach(a);
            a.uint("runs", self.runs.len() as u64);
            a.bool("cache_hit", invoked == 0);
            a.uint("queue_wait_ns", queue_wait.as_nanos() as u64);
        });
        for key in &self.waits {
            options
                .tracer
                .instant("content_cache_wait", task_span, |a| {
                    a.str("key", key.to_hex());
                });
        }
        let mut attempts = 0u32;
        let mut content_hits = 0u64;
        let mut results: Vec<RunResult> = Vec::with_capacity(self.runs.len());
        for run_index in 0..self.runs.len() {
            let key = self.runs[run_index].key;
            let route = std::mem::replace(&mut self.runs[run_index].route, Route::Unresolved);
            let result = match route {
                Route::Current(instances) => RunResult::Current(instances),
                Route::Hit(outputs) => {
                    content_hits += 1;
                    RunResult::Outputs {
                        outputs,
                        ran: false,
                    }
                }
                Route::Repeat(of) => match &results[of] {
                    RunResult::Outputs { outputs, .. } => RunResult::Outputs {
                        outputs: outputs.clone(),
                        ran: false,
                    },
                    RunResult::Current(_) => unreachable!("a repeated run invokes its tool"),
                },
                Route::Unresolved => unreachable!("every run is resolved before it runs"),
                Route::Invoke(invocation) => {
                    let (result, used) = self.run_one(
                        schema,
                        &invocation,
                        options,
                        metrics,
                        self.retry_salt(run_index, options.jitter_seed),
                        task_span,
                    );
                    attempts = attempts.max(used);
                    match result {
                        Ok(outputs) => {
                            // Move the fresh result into shared buffers
                            // and hash it once, here, where it was
                            // produced: the cache entry and the commit
                            // share the buffers and the digests. Write
                            // the result back; insert is non-blocking
                            // (memory now, persistent tiers
                            // asynchronously), and a subtask parked on
                            // this key looks it up after this one
                            // finishes.
                            let outputs: Vec<SharedOutput> =
                                outputs.into_iter().map(SharedOutput::share).collect();
                            if let (Some(cache), Some(key)) = (&options.cache, key) {
                                cache.insert(
                                    &key,
                                    content_cache::entry_from_outputs(
                                        key,
                                        schema,
                                        &invocation,
                                        &outputs,
                                        options.clock.wall_unix_ms(),
                                    ),
                                );
                            }
                            RunResult::Outputs { outputs, ran: true }
                        }
                        Err(error) => {
                            let duration = options.clock.since(started);
                            metrics.task_wall_ns.observe_duration(duration);
                            let msg = error.to_string();
                            options.tracer.end_with(task_span, |a| {
                                a.bool("ok", false);
                                a.uint("attempts", u64::from(attempts));
                                a.str("error", msg.as_str());
                            });
                            return SubtaskOutcome {
                                result: Err(error),
                                attempts,
                                duration,
                                started: started_offset,
                            };
                        }
                    }
                }
            };
            results.push(result);
        }
        let duration = options.clock.since(started);
        metrics.task_wall_ns.observe_duration(duration);
        options.tracer.end_with(task_span, |a| {
            a.bool("ok", true);
            a.uint("attempts", u64::from(attempts));
            a.uint("content_hits", content_hits);
        });
        SubtaskOutcome {
            result: Ok(results),
            attempts,
            duration,
            started: started_offset,
        }
    }
}
