//! Retry and failure policies for flow execution.
//!
//! Real tool runs fail for transient reasons — a license briefly
//! unavailable, a solver hitting a flaky seed — and a design-management
//! framework that re-sequences tools automatically (§3.3) should also
//! re-try them automatically. [`RetryPolicy`] bounds the attempts and
//! spaces them with exponential backoff plus deterministic jitter;
//! [`FailurePolicy`] decides what one subtask's permanent failure means
//! for the rest of the flow.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use crate::error::ExecError;

/// How failed tool invocations are retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per invocation, including the first; at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay.
    pub max_delay: Duration,
    /// Whether deadline overruns ([`ExecError::ToolTimedOut`]) are
    /// retried.
    pub retry_timeouts: bool,
    /// Whether caught panics ([`ExecError::ToolPanicked`]) are retried.
    /// Off by default: a panic usually reproduces.
    pub retry_panics: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(2),
            retry_timeouts: true,
            retry_panics: false,
        }
    }
}

impl RetryPolicy {
    /// A policy making up to `max_attempts` attempts with the default
    /// backoff shape.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Returns whether `error` is worth another attempt.
    ///
    /// Tool failures are presumed transient; timeouts and panics follow
    /// the policy's flags; structural errors (wrong outputs, missing
    /// encapsulations, flow or history problems) never retry — the
    /// re-run would fail identically.
    pub fn is_retryable(&self, error: &ExecError) -> bool {
        match error {
            ExecError::ToolFailed { .. } => true,
            ExecError::ToolTimedOut { .. } => self.retry_timeouts,
            ExecError::ToolPanicked { .. } => self.retry_panics,
            _ => false,
        }
    }

    /// Backoff before attempt number `next_attempt` (2-based: the delay
    /// precedes the second attempt), with deterministic jitter derived
    /// from `salt`.
    ///
    /// Identical (policy, salt, attempt) triples always produce the
    /// same delay, so schedules are reproducible run to run.
    pub fn delay_before(&self, next_attempt: u32, salt: u64) -> Duration {
        let doublings = next_attempt.saturating_sub(2).min(20);
        let base = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        // Deterministic jitter in [0, base/2]: spreads simultaneous
        // retries without a clock or an RNG. DefaultHasher::new() uses
        // fixed keys, so the hash is stable across runs.
        let mut hasher = DefaultHasher::new();
        (salt, next_attempt).hash(&mut hasher);
        let jitter_range = (base.as_nanos() / 2) as u64;
        let jitter = if jitter_range == 0 {
            0
        } else {
            hasher.finish() % (jitter_range + 1)
        };
        (base + Duration::from_nanos(jitter)).min(self.max_delay)
    }
}

/// What a subtask's permanent failure means for the rest of the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Stop the execution and return the error. Subtasks committed
    /// before the failure stay in the history; the failing subtask and
    /// any subtask still in flight commit nothing.
    #[default]
    Abort,
    /// Keep executing disjoint branches (Fig. 6): the failed subtask is
    /// reported as failed, its downstream cone as skipped, and every
    /// independent subtask still runs and commits.
    ContinueDisjoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hercules_flow::NodeId;

    #[test]
    fn default_policy_makes_one_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(RetryPolicy::attempts(0).max_attempts, 1, "clamped");
        assert_eq!(RetryPolicy::attempts(3).max_attempts, 3);
    }

    #[test]
    fn retryability_follows_error_class() {
        let p = RetryPolicy::default();
        let failed = ExecError::ToolFailed {
            tool: "t".into(),
            message: "m".into(),
        };
        let timed_out = ExecError::ToolTimedOut {
            tool: "t".into(),
            deadline_ms: 10,
        };
        let panicked = ExecError::ToolPanicked {
            tool: "t".into(),
            message: "m".into(),
        };
        let wrong = ExecError::WrongOutputs {
            tool: "t".into(),
            detail: "d".into(),
        };
        let structural = ExecError::BoundInteriorNode(NodeId::from_index(0));

        assert!(p.is_retryable(&failed));
        assert!(p.is_retryable(&timed_out));
        assert!(!p.is_retryable(&panicked), "panics off by default");
        assert!(!p.is_retryable(&wrong), "corrupt outputs never retry");
        assert!(!p.is_retryable(&structural));

        let lenient = RetryPolicy {
            retry_panics: true,
            retry_timeouts: false,
            ..RetryPolicy::default()
        };
        assert!(lenient.is_retryable(&panicked));
        assert!(!lenient.is_retryable(&timed_out));
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let p = RetryPolicy {
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(200),
            ..RetryPolicy::default()
        };
        let d2 = p.delay_before(2, 7);
        let d4 = p.delay_before(4, 7);
        assert!(d2 >= Duration::from_millis(10));
        assert!(d4 >= Duration::from_millis(40), "exponential: {d4:?}");
        assert!(d4 <= Duration::from_millis(200), "clamped: {d4:?}");
        assert_eq!(d2, p.delay_before(2, 7), "same salt, same delay");
        assert_ne!(
            p.delay_before(2, 1),
            p.delay_before(2, 2),
            "different salts spread out"
        );
        // Far-future attempts saturate at max_delay instead of
        // overflowing the doubling.
        assert_eq!(p.delay_before(64, 7), Duration::from_millis(200));
    }

    #[test]
    fn failure_policy_defaults_to_abort() {
        assert_eq!(FailurePolicy::default(), FailurePolicy::Abort);
    }
}
