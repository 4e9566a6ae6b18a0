//! The workspace health model: a typed report aggregating store,
//! scheduler, cache, and design-history staleness signals into
//! ok/warn/critical.
//!
//! The report is computed from data the caller already has — a
//! [`MetricsSnapshot`], plus optional store and analysis summaries
//! supplied as plain structs so this crate stays dependency-free.
//! Thresholds are explicit and configurable ([`HealthThresholds`]);
//! the defaults are deliberately conservative (a fresh session is
//! `ok` across the board).
//!
//! Rate checks guard their denominators: a session that has not run
//! anything yet has no retry rate, not a zero retry rate that might
//! flap to warn on the first retry.

use crate::metrics::MetricsSnapshot;
use crate::names;
use crate::span::json;

/// Severity of a single check or a whole report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Operating normally.
    Ok,
    /// Degrading or approaching a limit; worth a look.
    Warn,
    /// Broken or data-endangering; needs an operator.
    Critical,
}

impl HealthStatus {
    /// Stable lowercase name (`ok` / `warn` / `critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Warn => "warn",
            HealthStatus::Critical => "critical",
        }
    }

    /// Numeric level for the `health.status` gauge (0/1/2).
    pub fn level(self) -> i64 {
        match self {
            HealthStatus::Ok => 0,
            HealthStatus::Warn => 1,
            HealthStatus::Critical => 2,
        }
    }
}

/// Configurable thresholds mapping raw signals to statuses.
#[derive(Debug, Clone)]
pub struct HealthThresholds {
    /// Peak ready-queue depth (the max of the `exec.queue_depth`
    /// histogram) above which the scheduler is considered backed up.
    pub queue_depth_warn: u64,
    /// Retry-per-run rate that warns / goes critical.
    pub retry_rate_warn: f64,
    /// See [`Self::retry_rate_warn`].
    pub retry_rate_critical: f64,
    /// Skipped-subtask rate (skips per run+skip) that warns / goes
    /// critical — skips mean committed partial failures.
    pub skip_rate_warn: f64,
    /// See [`Self::skip_rate_warn`].
    pub skip_rate_critical: f64,
    /// Cache hit rate *below* which the resume/extensional cache is
    /// considered cold (only checked once `min_cache_lookups` have
    /// happened).
    pub cache_hit_rate_warn: f64,
    /// Minimum `hits + runs` before the cache check activates.
    pub min_cache_lookups: u64,
    /// Journal segment-chain length that warns / goes critical (a
    /// long chain means `checkpoint` has not compacted in a while).
    pub segment_chain_warn: usize,
    /// See [`Self::segment_chain_warn`].
    pub segment_chain_critical: usize,
    /// Remaining lease milliseconds below which the writer should
    /// have renewed already.
    pub lease_remaining_warn_ms: i64,
    /// Stale-instance count that warns.
    pub stale_instances_warn: usize,
}

impl Default for HealthThresholds {
    fn default() -> HealthThresholds {
        HealthThresholds {
            queue_depth_warn: 64,
            retry_rate_warn: 0.10,
            retry_rate_critical: 0.50,
            skip_rate_warn: 0.05,
            skip_rate_critical: 0.25,
            cache_hit_rate_warn: 0.05,
            min_cache_lookups: 32,
            segment_chain_warn: 8,
            segment_chain_critical: 32,
            lease_remaining_warn_ms: 2_000,
            stale_instances_warn: 1,
        }
    }
}

/// Store-side inputs to the health model, extracted from the open
/// workspace and its `RecoveryReport` by the caller.
#[derive(Debug, Clone, Default)]
pub struct StoreHealth {
    /// Degraded-mode reason, if the store opened read-only.
    pub degraded: Option<String>,
    /// Lease owner recorded in the LEASE file.
    pub owner: String,
    /// Current fencing token (monotonic across takeovers).
    pub fencing_token: u64,
    /// Milliseconds until the held lease expires; negative if already
    /// expired, `None` when this handle holds no lease (degraded).
    pub lease_remaining_ms: Option<i64>,
    /// Checkpoint generation the store recovered to.
    pub generation: u64,
    /// Journal segments in the live MANIFEST chain.
    pub segment_chain_len: usize,
    /// Segments (or segment regions) quarantined aside by recovery or
    /// scrub — damage preserved for forensics.
    pub quarantined: usize,
    /// Bytes discarded from a torn tail during the last recovery.
    pub recovery_bytes_discarded: u64,
}

/// Design-history inputs: how much of the history is out of date.
#[derive(Debug, Clone, Default)]
pub struct AnalysisHealth {
    /// Instances in the history database.
    pub instances_total: usize,
    /// Instances currently out of date (HL0501).
    pub stale_instances: usize,
}

/// One named signal with its computed status.
#[derive(Debug, Clone)]
pub struct HealthCheck {
    /// Stable dotted name (`store.mode`, `sched.retries`, …).
    pub name: String,
    /// Status this check resolved to.
    pub status: HealthStatus,
    /// Short value rendering (`"writable"`, `"3.2%"`, …).
    pub value: String,
    /// One-line human explanation.
    pub detail: String,
}

/// The aggregated health report.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Individual checks, in presentation order.
    pub checks: Vec<HealthCheck>,
    /// Wall-clock unix milliseconds when the report was computed.
    pub wall_unix_ms: u64,
}

impl HealthReport {
    /// Computes a report from whatever signals are available. `store`
    /// and `analysis` are `None` when no workspace / no index is
    /// attached — the corresponding checks then report `ok` with a
    /// "detached" value rather than guessing.
    pub fn build(
        wall_unix_ms: u64,
        store: Option<&StoreHealth>,
        analysis: Option<&AnalysisHealth>,
        metrics: &MetricsSnapshot,
        t: &HealthThresholds,
    ) -> HealthReport {
        let mut checks = Vec::new();
        let mut push = |name: &str, status: HealthStatus, value: String, detail: String| {
            checks.push(HealthCheck {
                name: name.to_owned(),
                status,
                value,
                detail,
            });
        };

        match store {
            None => push(
                "store.mode",
                HealthStatus::Ok,
                "detached".into(),
                "no workspace attached; nothing durable at risk".into(),
            ),
            Some(s) => {
                match &s.degraded {
                    Some(reason) => push(
                        "store.mode",
                        HealthStatus::Critical,
                        "degraded".into(),
                        format!("read-only: {reason}"),
                    ),
                    None => push(
                        "store.mode",
                        HealthStatus::Ok,
                        "writable".into(),
                        format!("generation {}", s.generation),
                    ),
                }
                match s.lease_remaining_ms {
                    None => push(
                        "store.lease",
                        HealthStatus::Warn,
                        "not held".into(),
                        "this handle holds no lease (degraded open)".into(),
                    ),
                    Some(ms) if ms < 0 => push(
                        "store.lease",
                        HealthStatus::Critical,
                        "expired".into(),
                        format!(
                            "owner {} token {} expired {}ms ago; the next open takes over",
                            s.owner, s.fencing_token, -ms
                        ),
                    ),
                    Some(ms) if ms < t.lease_remaining_warn_ms => push(
                        "store.lease",
                        HealthStatus::Warn,
                        format!("{ms}ms left"),
                        format!(
                            "owner {} token {}; renewal overdue",
                            s.owner, s.fencing_token
                        ),
                    ),
                    Some(ms) => push(
                        "store.lease",
                        HealthStatus::Ok,
                        format!("{ms}ms left"),
                        format!("owner {} token {}", s.owner, s.fencing_token),
                    ),
                }
                let seg_status = if s.segment_chain_len >= t.segment_chain_critical {
                    HealthStatus::Critical
                } else if s.segment_chain_len >= t.segment_chain_warn {
                    HealthStatus::Warn
                } else {
                    HealthStatus::Ok
                };
                push(
                    "store.segments",
                    seg_status,
                    format!("{} in chain", s.segment_chain_len),
                    if seg_status == HealthStatus::Ok {
                        "journal chain is short".into()
                    } else {
                        "long journal chain; `checkpoint` to compact".into()
                    },
                );
                push(
                    "store.quarantine",
                    if s.quarantined > 0 {
                        HealthStatus::Warn
                    } else {
                        HealthStatus::Ok
                    },
                    format!("{} quarantined", s.quarantined),
                    if s.quarantined > 0 {
                        "damaged regions preserved aside; inspect *.quarantined-<k>".into()
                    } else {
                        "no quarantined damage".into()
                    },
                );
                if s.recovery_bytes_discarded > 0 {
                    push(
                        "store.recovery",
                        HealthStatus::Warn,
                        format!("{}B discarded", s.recovery_bytes_discarded),
                        "last recovery truncated a torn journal tail".into(),
                    );
                } else {
                    push(
                        "store.recovery",
                        HealthStatus::Ok,
                        "clean".into(),
                        "last recovery replayed without loss".into(),
                    );
                }
            }
        }

        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        let depth = metrics
            .histograms
            .get(names::EXEC_QUEUE_DEPTH)
            .map_or(0, |h| h.max);
        push(
            "sched.queue_depth",
            if depth > t.queue_depth_warn {
                HealthStatus::Warn
            } else {
                HealthStatus::Ok
            },
            depth.to_string(),
            "peak ready tasks awaiting a worker".into(),
        );

        let runs = counter(names::EXEC_RUNS);
        let retries = counter(names::EXEC_RETRIES);
        if runs > 0 {
            let rate = retries as f64 / runs as f64;
            let status = if rate >= t.retry_rate_critical {
                HealthStatus::Critical
            } else if rate >= t.retry_rate_warn {
                HealthStatus::Warn
            } else {
                HealthStatus::Ok
            };
            push(
                "sched.retries",
                status,
                format!("{:.1}% of runs", rate * 100.0),
                format!("{retries} retries over {runs} tool runs"),
            );
        } else {
            push(
                "sched.retries",
                HealthStatus::Ok,
                "no runs yet".into(),
                "retry rate undefined until a tool runs".into(),
            );
        }

        let skipped = counter(names::EXEC_SKIPPED_SUBTASKS);
        let attempts_den = runs + skipped;
        if attempts_den > 0 {
            let rate = skipped as f64 / attempts_den as f64;
            let status = if rate >= t.skip_rate_critical {
                HealthStatus::Critical
            } else if rate >= t.skip_rate_warn {
                HealthStatus::Warn
            } else {
                HealthStatus::Ok
            };
            push(
                "sched.skips",
                status,
                format!("{:.1}%", rate * 100.0),
                format!("{skipped} subtasks skipped after upstream failures"),
            );
        } else {
            push(
                "sched.skips",
                HealthStatus::Ok,
                "no runs yet".into(),
                "skip rate undefined until a tool runs".into(),
            );
        }

        let hits = counter(names::EXEC_CACHE_HITS);
        let lookups = hits + runs;
        if lookups >= t.min_cache_lookups {
            let rate = hits as f64 / lookups as f64;
            push(
                "cache.hit_rate",
                if rate < t.cache_hit_rate_warn {
                    HealthStatus::Warn
                } else {
                    HealthStatus::Ok
                },
                format!("{:.1}%", rate * 100.0),
                format!("{hits} extensional hits over {lookups} lookups"),
            );
        } else {
            push(
                "cache.hit_rate",
                HealthStatus::Ok,
                "warming".into(),
                format!("{lookups} lookups so far (needs {})", t.min_cache_lookups),
            );
        }

        // Content-addressed result cache (the `cache.*` family): one
        // informational hit-rate check per tier that saw traffic, plus
        // a disk-store integrity check. Silent when no content cache
        // is attached — an absent subsystem is not a degraded one.
        let content_tiers = [
            ("cache.content.mem", "cache.mem.hits", "cache.mem.misses"),
            ("cache.content.disk", "cache.disk.hits", "cache.disk.misses"),
        ];
        let mut content_traffic = false;
        for (check, hits_name, misses_name) in content_tiers {
            let hits = counter(hits_name);
            let total = hits + counter(misses_name);
            if total == 0 {
                continue;
            }
            content_traffic = true;
            push(
                check,
                HealthStatus::Ok,
                format!("{:.1}%", hits as f64 / total as f64 * 100.0),
                format!("{hits} content hits over {total} lookups"),
            );
        }
        let io_errors = counter("cache.disk.io_errors");
        let dropped = counter("cache.disk.dropped_entries");
        let disk_healthy = metrics.gauges.get("cache.disk.healthy").copied();
        if content_traffic || io_errors > 0 || dropped > 0 || disk_healthy.is_some() {
            let (status, value, detail) = if disk_healthy == Some(0) {
                (
                    HealthStatus::Critical,
                    "failing".to_owned(),
                    format!("last disk-tier operation failed ({io_errors} I/O errors)"),
                )
            } else if io_errors > 0 || dropped > 0 {
                (
                    HealthStatus::Warn,
                    "degraded".to_owned(),
                    format!("{io_errors} I/O errors, {dropped} damaged entries dropped"),
                )
            } else {
                (
                    HealthStatus::Ok,
                    "clean".to_owned(),
                    "no I/O errors, no damaged entries".to_owned(),
                )
            };
            push("cache.content.store", status, value, detail);
        }

        match analysis {
            None => push(
                "analysis.stale",
                HealthStatus::Ok,
                "detached".into(),
                "no design history attached".into(),
            ),
            Some(a) => push(
                "analysis.stale",
                if a.stale_instances >= t.stale_instances_warn {
                    HealthStatus::Warn
                } else {
                    HealthStatus::Ok
                },
                format!("{}/{} stale", a.stale_instances, a.instances_total),
                format!("{} instance(s) out of date", a.stale_instances),
            ),
        }

        HealthReport {
            checks,
            wall_unix_ms,
        }
    }

    /// The worst status across all checks (`Ok` for an empty report).
    pub fn overall(&self) -> HealthStatus {
        self.checks
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(HealthStatus::Ok)
    }

    /// Multi-line rendering for the REPL `health` command.
    pub fn render_text(&self) -> String {
        let overall = self.overall();
        let warn = self
            .checks
            .iter()
            .filter(|c| c.status == HealthStatus::Warn)
            .count();
        let critical = self
            .checks
            .iter()
            .filter(|c| c.status == HealthStatus::Critical)
            .count();
        let mut out = format!(
            "health: {} ({} checks, {warn} warn, {critical} critical)\n",
            overall.as_str(),
            self.checks.len(),
        );
        for c in &self.checks {
            out.push_str(&format!(
                "  [{:<8}] {:<20} {:<16} {}\n",
                c.status.as_str(),
                c.name,
                c.value,
                c.detail
            ));
        }
        out
    }

    /// JSON rendering for `herctrace health --json` and tests.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"status\":");
        json::push_string(&mut out, self.overall().as_str());
        out.push_str(&format!(
            ",\"wall_unix_ms\":{},\"checks\":[",
            self.wall_unix_ms
        ));
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::push_string(&mut out, &c.name);
            out.push_str(",\"status\":");
            json::push_string(&mut out, c.status.as_str());
            out.push_str(",\"value\":");
            json::push_string(&mut out, &c.value);
            out.push_str(",\"detail\":");
            json::push_string(&mut out, &c.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    fn healthy_store() -> StoreHealth {
        StoreHealth {
            degraded: None,
            owner: "amber".into(),
            fencing_token: 3,
            lease_remaining_ms: Some(9_000),
            generation: 2,
            segment_chain_len: 1,
            quarantined: 0,
            recovery_bytes_discarded: 0,
        }
    }

    #[test]
    fn fresh_session_is_ok_everywhere() {
        let report = HealthReport::build(
            1_577_836_800_000,
            Some(&healthy_store()),
            Some(&AnalysisHealth {
                instances_total: 4,
                stale_instances: 0,
            }),
            &Metrics::new().snapshot(),
            &HealthThresholds::default(),
        );
        assert_eq!(report.overall(), HealthStatus::Ok);
        let text = report.render_text();
        assert!(text.starts_with("health: ok"), "{text}");
        assert!(text.contains("store.mode"));
        assert!(text.contains("writable"));
        let json = report.to_json();
        assert!(json.contains("\"status\":\"ok\""));
        assert!(json.contains("\"name\":\"store.lease\""));
    }

    #[test]
    fn detached_report_is_ok_not_unknown() {
        let report = HealthReport::build(
            0,
            None,
            None,
            &Metrics::disabled().snapshot(),
            &HealthThresholds::default(),
        );
        assert_eq!(report.overall(), HealthStatus::Ok);
        assert!(report.render_text().contains("detached"));
    }

    #[test]
    fn degraded_store_is_critical_and_quarantine_warns() {
        let mut s = healthy_store();
        s.degraded = Some("lease held by bram".into());
        s.lease_remaining_ms = None;
        s.quarantined = 2;
        let report = HealthReport::build(
            0,
            Some(&s),
            None,
            &Metrics::new().snapshot(),
            &HealthThresholds::default(),
        );
        assert_eq!(report.overall(), HealthStatus::Critical);
        let by_name = |n: &str| {
            report
                .checks
                .iter()
                .find(|c| c.name == n)
                .unwrap_or_else(|| panic!("missing check {n}"))
                .status
        };
        assert_eq!(by_name("store.mode"), HealthStatus::Critical);
        assert_eq!(by_name("store.lease"), HealthStatus::Warn);
        assert_eq!(by_name("store.quarantine"), HealthStatus::Warn);
    }

    #[test]
    fn rate_checks_guard_their_denominators() {
        // No runs at all: retry/skip checks stay ok (undefined, not 0%).
        let report = HealthReport::build(
            0,
            None,
            None,
            &Metrics::new().snapshot(),
            &HealthThresholds::default(),
        );
        assert_eq!(report.overall(), HealthStatus::Ok);

        // Heavy retries trip critical; a cold cache past the lookup
        // floor trips warn.
        let m = Metrics::new();
        m.incr(names::EXEC_RUNS, 40);
        m.incr(names::EXEC_RETRIES, 25);
        m.incr(names::EXEC_CACHE_HITS, 0);
        let report =
            HealthReport::build(0, None, None, &m.snapshot(), &HealthThresholds::default());
        let by_name = |n: &str| report.checks.iter().find(|c| c.name == n).unwrap().status;
        assert_eq!(by_name("sched.retries"), HealthStatus::Critical);
        assert_eq!(by_name("cache.hit_rate"), HealthStatus::Warn);
        assert_eq!(report.overall(), HealthStatus::Critical);
    }

    #[test]
    fn thresholds_are_configurable() {
        let m = Metrics::new();
        m.observe(names::EXEC_QUEUE_DEPTH, 10);
        let strict = HealthThresholds {
            queue_depth_warn: 5,
            ..HealthThresholds::default()
        };
        let report = HealthReport::build(0, None, None, &m.snapshot(), &strict);
        let depth = report
            .checks
            .iter()
            .find(|c| c.name == "sched.queue_depth")
            .unwrap();
        assert_eq!(depth.status, HealthStatus::Warn);
        let lax = HealthThresholds::default();
        let report = HealthReport::build(0, None, None, &m.snapshot(), &lax);
        assert_eq!(report.overall(), HealthStatus::Ok);
    }

    #[test]
    fn content_cache_checks_follow_tier_traffic() {
        // No cache.* activity at all: no content-cache checks emitted.
        let report = HealthReport::build(
            0,
            None,
            None,
            &Metrics::new().snapshot(),
            &HealthThresholds::default(),
        );
        assert!(
            !report
                .checks
                .iter()
                .any(|c| c.name.starts_with("cache.content")),
            "absent subsystem stays silent"
        );

        // Tier traffic produces per-tier rates and a clean store check.
        let m = Metrics::new();
        m.incr("cache.mem.hits", 3);
        m.incr("cache.mem.misses", 1);
        m.incr("cache.disk.hits", 1);
        m.incr("cache.disk.misses", 1);
        m.gauge_set("cache.disk.healthy", 1);
        let report =
            HealthReport::build(0, None, None, &m.snapshot(), &HealthThresholds::default());
        let by_name = |n: &str| report.checks.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("cache.content.mem").value, "75.0%");
        assert_eq!(by_name("cache.content.disk").value, "50.0%");
        assert_eq!(by_name("cache.content.store").status, HealthStatus::Ok);

        // Dropped entries warn; a failing disk tier is critical.
        m.incr("cache.disk.dropped_entries", 2);
        let report =
            HealthReport::build(0, None, None, &m.snapshot(), &HealthThresholds::default());
        let store = report
            .checks
            .iter()
            .find(|c| c.name == "cache.content.store")
            .unwrap();
        assert_eq!(store.status, HealthStatus::Warn);
        assert!(store.detail.contains("2 damaged entries dropped"));
        m.gauge_set("cache.disk.healthy", 0);
        let report =
            HealthReport::build(0, None, None, &m.snapshot(), &HealthThresholds::default());
        let store = report
            .checks
            .iter()
            .find(|c| c.name == "cache.content.store")
            .unwrap();
        assert_eq!(store.status, HealthStatus::Critical);
    }

    #[test]
    fn stale_index_warns() {
        let report = HealthReport::build(
            0,
            None,
            Some(&AnalysisHealth {
                instances_total: 10,
                stale_instances: 2,
            }),
            &Metrics::new().snapshot(),
            &HealthThresholds::default(),
        );
        let stale = report
            .checks
            .iter()
            .find(|c| c.name == "analysis.stale")
            .unwrap();
        assert_eq!(stale.status, HealthStatus::Warn);
        assert_eq!(stale.value, "2/10 stale");
        assert!(stale.detail.contains("2 instance(s) out of date"));
    }
}
