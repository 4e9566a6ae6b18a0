//! Well-known metric names emitted by the Hercules crates.
//!
//! [`Metrics`](crate::Metrics) is schemaless — any call site can mint
//! a counter by name — which is convenient right up until a dashboard
//! or test greps for a name that a refactor quietly changed. The
//! store-hardening family below is load-bearing (CI's scrub job and
//! the REPL surface them), so the names live here as constants and
//! the emit sites reference them instead of repeating string literals.
//!
//! Names are grouped into families by prefix — `store.` for the
//! durable workspace, `telemetry.` for the flight recorder,
//! `health.` for the aggregated health model, `exec.` for the
//! executor signals health reads, and `analyze.` for the lint/index
//! layer — see each constant for the semantics and the instrument kind
//! (counter vs gauge vs histogram).

/// Counter: checkpoints that wrote a snapshot, scrub re-baselines
/// included — snapshots appended to the journal and rotations alike. A
/// checkpoint that finds every change already journaled only syncs and
/// is not counted.
pub const STORE_CHECKPOINTS: &str = "store.checkpoints";

/// Counter: generation rotations — checkpoints that started a new
/// generation instead of appending their snapshot to the journal.
/// `store.checkpoints - store.rotations` counts appended snapshots.
pub const STORE_ROTATIONS: &str = "store.rotations";

/// Counter: completed [`scrub`](https://en.wikipedia.org/wiki/Data_scrubbing)
/// passes — every-byte CRC verification of every journal segment, the
/// generation's base in frame 0 included. Incremented once per scan,
/// damaged or not.
pub const STORE_SCRUBS: &str = "store.scrubs";

/// Counter: scrub passes that found damage (rot, torn frames, or an
/// unreadable segment). `store.scrubs - store.scrub_damage` is the
/// clean-scan count.
pub const STORE_SCRUB_DAMAGE: &str = "store.scrub_damage";

/// Counter: journal segment rotations — the active segment reached
/// its size bound and a new numbered segment was opened and added to
/// the MANIFEST chain.
pub const STORE_SEGMENT_ROLLS: &str = "store.segment_rolls";

/// Histogram: bytes moved aside into `*.quarantined-<k>` files by a
/// recovery or scrub, one observation per quarantined region. Damage
/// is preserved for forensics, never silently dropped.
pub const STORE_QUARANTINED_BYTES: &str = "store.quarantined_bytes";

/// Counter: lease renewals — the writer re-asserted ownership by
/// rewriting the LEASE file with a fresh expiry.
pub const STORE_LEASE_RENEWALS: &str = "store.lease_renewals";

/// Counter: mutations rejected because this handle was fenced out by
/// a newer writer's takeover (its fencing token is no longer the
/// highest). A deposed writer increments this on every attempt.
pub const STORE_FENCED_WRITES: &str = "store.fenced_writes";

/// Counter: workspace opens that landed in degraded read-only mode —
/// a live foreign lease or unrepaired damage kept the store browsable
/// but immutable.
pub const STORE_DEGRADED_OPENS: &str = "store.degraded_opens";

/// Counter: batches of pending journal frames discarded unwritten
/// because the handle was fenced out before a `sync` wrote them.
pub const STORE_GROUP_DISCARDED_BATCHES: &str = "store.group_discarded_batches";

/// Counter: stale-lease takeovers — an open found a foreign lease
/// already expired and fenced the previous writer out by bumping the
/// fencing token past it.
pub const STORE_LEASE_TAKEOVERS: &str = "store.lease_takeovers";

/// Counter: bytes CRC-verified by scrub passes across the journal
/// segments, frame 0 included (damaged or not).
pub const STORE_SCRUB_BYTES: &str = "store.scrub_bytes";

/// Counter: records accepted by the flight-recorder ring (spans,
/// instants, metric deltas, and session stamps alike).
pub const TELEMETRY_RECORDS: &str = "telemetry.records";

/// Counter: records evicted from the flight-recorder ring before a
/// flush could persist them (the ring is bounded by bytes; sustained
/// bursts overwrite the oldest records first).
pub const TELEMETRY_DROPPED_RECORDS: &str = "telemetry.dropped_records";

/// Counter: flushes of the flight-recorder ring into the workspace
/// `telemetry-N.jsonl` sidecar.
pub const TELEMETRY_FLUSHES: &str = "telemetry.flushes";

/// Counter: bytes appended to telemetry sidecar files.
pub const TELEMETRY_BYTES: &str = "telemetry.bytes";

/// Counter: telemetry sidecar rotations — the active `telemetry-N`
/// file reached its size bound and a new numbered file was opened.
pub const TELEMETRY_ROTATIONS: &str = "telemetry.rotations";

/// Counter: telemetry writes swallowed because the sidecar could not
/// be written. Telemetry is best-effort by design: a dying disk must
/// never take the session down on the observability path.
pub const TELEMETRY_WRITE_ERRORS: &str = "telemetry.write_errors";

/// Counter: periodic `MetricsSnapshot` delta records exported into
/// the telemetry stream.
pub const TELEMETRY_METRIC_EXPORTS: &str = "telemetry.metric_exports";

/// Counter: health reports computed (REPL `health` or
/// `herctrace health`).
pub const HEALTH_CHECKS: &str = "health.checks";

/// Gauge: latest overall health status — 0 ok, 1 warn, 2 critical.
pub const HEALTH_STATUS: &str = "health.status";

/// Counter: tool invocations the executor ran, over every execution.
/// Content-cache replays and current instances are not counted.
pub const EXEC_RUNS: &str = "exec.runs";

/// Counter: retried tool attempts (each retry after a failed attempt).
pub const EXEC_RETRIES: &str = "exec.retries";

/// Counter: subtasks skipped because a subtask upstream failed.
pub const EXEC_SKIPPED_SUBTASKS: &str = "exec.skipped_subtasks";

/// Counter: subtasks every output of which came from a cache, without
/// running a tool.
pub const EXEC_CACHE_HITS: &str = "exec.cache_hits";

/// Histogram: the ready queue's length after each push; its `max` is
/// the peak number of subtasks that waited for a worker at once.
pub const EXEC_QUEUE_DEPTH: &str = "exec.queue_depth";

/// Histogram: wall nanoseconds per whole-history lint run (full or
/// incremental), one observation per REPL `lint`/`stale`.
pub const ANALYZE_LINT_NS: &str = "analyze.lint_ns";

/// Histogram-name prefix: wall nanoseconds per individual lint pass.
/// The full metric name appends the lowercased pass code, e.g.
/// `analyze.pass_ns.hl0102` — one histogram per pass, one observation
/// per run of that pass.
pub const ANALYZE_PASS_NS: &str = "analyze.pass_ns";

/// Histogram: instances actually analyzed per lint run — the full
/// instance count for a full lint, the dirty cone for an incremental
/// one.
pub const ANALYZE_CONE_INSTANCES: &str = "analyze.cone_instances";

/// Histogram: rerun-set size per retrace-cone prediction (REPL
/// `stale` and HL0503).
pub const ANALYZE_RETRACE_RERUN: &str = "analyze.retrace_rerun";

/// Counter: content-cache lookups answered by the in-memory tier.
pub const CACHE_MEM_HITS: &str = "cache.mem.hits";

/// Counter: content-cache lookups the in-memory tier could not answer
/// (the lookup falls through to the disk tier, when one is attached).
pub const CACHE_MEM_MISSES: &str = "cache.mem.misses";

/// Gauge: entries currently resident in the in-memory tier.
pub const CACHE_MEM_ENTRIES: &str = "cache.mem.entries";

/// Histogram: wall nanoseconds per in-memory tier probe.
pub const CACHE_MEM_LOOKUP_NS: &str = "cache.mem.lookup_ns";

/// Counter: content-cache lookups answered by the on-disk tier.
pub const CACHE_DISK_HITS: &str = "cache.disk.hits";

/// Counter: on-disk tier probes that found no (valid) entry.
pub const CACHE_DISK_MISSES: &str = "cache.disk.misses";

/// Histogram: wall nanoseconds per on-disk tier probe (read + CRC
/// validation + decode).
pub const CACHE_DISK_LOOKUP_NS: &str = "cache.disk.lookup_ns";

/// Counter: on-disk entries dropped because validation failed — a
/// torn write, bit rot, or a key/entry mismatch. Dropped entries are
/// deleted and reported as misses, never served.
pub const CACHE_DISK_DROPPED: &str = "cache.disk.dropped_entries";

/// Counter: I/O errors on the on-disk tier's lookup or write-back
/// path. The cache is best-effort: errors degrade it to a smaller
/// cache, they never fail the execution.
pub const CACHE_DISK_IO_ERRORS: &str = "cache.disk.io_errors";

/// Gauge: entries currently stored by the on-disk tier.
pub const CACHE_DISK_ENTRIES: &str = "cache.disk.entries";

/// Gauge: bytes currently stored by the on-disk tier.
pub const CACHE_DISK_BYTES: &str = "cache.disk.bytes";

/// Gauge: on-disk tier health — 1 while lookups and write-backs
/// succeed, 0 after any I/O error until a later operation succeeds.
pub const CACHE_DISK_HEALTHY: &str = "cache.disk.healthy";

/// Counter: entries inserted into the cache (one per produced tool
/// run that was written back, whatever tiers it reached).
pub const CACHE_INSERTS: &str = "cache.inserts";

/// Counter: produced results not cached because their entry would be
/// 4 GiB or more, past the entry format's `u32` length fields.
pub const CACHE_OVERSIZE: &str = "cache.oversize";

/// Counter: subtasks parked because another in-flight subtask of the
/// same execution was producing their content key (single-flight).
/// A parked subtask replays the claimant's entry once it finishes, or
/// claims the key if the claimant failed, so a cold execution runs
/// each key's tool once however its subtasks are timed.
pub const CACHE_WAITS: &str = "cache.waits";

/// Histogram: wall nanoseconds per write-back to the disk tier.
/// In the real environment write-backs run on a background thread, so
/// this measures cache work, not executor hot-path stalls.
pub const CACHE_WRITEBACK_NS: &str = "cache.writeback_ns";

/// Counter: size-budget GC passes over the on-disk tier.
pub const CACHE_GC_RUNS: &str = "cache.gc_runs";

/// Counter: entries evicted by GC passes (oldest first).
pub const CACHE_GC_EVICTED: &str = "cache.gc_evicted";

#[cfg(test)]
mod tests {
    /// Every well-known name, paired with its required family prefix.
    /// New constants must be added here; the drift test below keeps
    /// the list honest.
    const ALL: &[(&str, &str)] = &[
        (super::STORE_CHECKPOINTS, "store."),
        (super::STORE_ROTATIONS, "store."),
        (super::STORE_SCRUBS, "store."),
        (super::STORE_SCRUB_DAMAGE, "store."),
        (super::STORE_SEGMENT_ROLLS, "store."),
        (super::STORE_QUARANTINED_BYTES, "store."),
        (super::STORE_LEASE_RENEWALS, "store."),
        (super::STORE_FENCED_WRITES, "store."),
        (super::STORE_DEGRADED_OPENS, "store."),
        (super::STORE_GROUP_DISCARDED_BATCHES, "store."),
        (super::STORE_LEASE_TAKEOVERS, "store."),
        (super::STORE_SCRUB_BYTES, "store."),
        (super::TELEMETRY_RECORDS, "telemetry."),
        (super::TELEMETRY_DROPPED_RECORDS, "telemetry."),
        (super::TELEMETRY_FLUSHES, "telemetry."),
        (super::TELEMETRY_BYTES, "telemetry."),
        (super::TELEMETRY_ROTATIONS, "telemetry."),
        (super::TELEMETRY_WRITE_ERRORS, "telemetry."),
        (super::TELEMETRY_METRIC_EXPORTS, "telemetry."),
        (super::HEALTH_CHECKS, "health."),
        (super::HEALTH_STATUS, "health."),
        (super::EXEC_RUNS, "exec."),
        (super::EXEC_RETRIES, "exec."),
        (super::EXEC_SKIPPED_SUBTASKS, "exec."),
        (super::EXEC_CACHE_HITS, "exec."),
        (super::EXEC_QUEUE_DEPTH, "exec."),
        (super::ANALYZE_LINT_NS, "analyze."),
        (super::ANALYZE_PASS_NS, "analyze."),
        (super::ANALYZE_CONE_INSTANCES, "analyze."),
        (super::ANALYZE_RETRACE_RERUN, "analyze."),
        (super::CACHE_MEM_HITS, "cache."),
        (super::CACHE_MEM_MISSES, "cache."),
        (super::CACHE_MEM_ENTRIES, "cache."),
        (super::CACHE_MEM_LOOKUP_NS, "cache."),
        (super::CACHE_DISK_HITS, "cache."),
        (super::CACHE_DISK_MISSES, "cache."),
        (super::CACHE_DISK_LOOKUP_NS, "cache."),
        (super::CACHE_DISK_DROPPED, "cache."),
        (super::CACHE_DISK_IO_ERRORS, "cache."),
        (super::CACHE_DISK_ENTRIES, "cache."),
        (super::CACHE_DISK_BYTES, "cache."),
        (super::CACHE_DISK_HEALTHY, "cache."),
        (super::CACHE_INSERTS, "cache."),
        (super::CACHE_OVERSIZE, "cache."),
        (super::CACHE_WAITS, "cache."),
        (super::CACHE_WRITEBACK_NS, "cache."),
        (super::CACHE_GC_RUNS, "cache."),
        (super::CACHE_GC_EVICTED, "cache."),
    ];

    #[test]
    fn names_are_prefixed_and_distinct() {
        for (i, (name, family)) in ALL.iter().enumerate() {
            assert!(
                name.starts_with(family),
                "{name} must live in the {family} family"
            );
            assert!(
                name.len() > family.len(),
                "{name} must have a member name after the family prefix"
            );
            assert!(
                !ALL[..i].iter().any(|(n, _)| n == name),
                "{name} registered twice in the well-known list"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name} must be lowercase dotted snake_case"
            );
        }
    }
}
