//! The simulator's event log: one line per simulator decision.
//!
//! Every virtual-clock advance, filesystem operation, scheduler pick,
//! and injected fault appends one line here. The log is the harness's
//! reproducibility witness: for a given seed the rendered log must be
//! **byte-identical** across runs, so any assertion failure can print
//! its seed knowing a replay will walk the exact same event sequence.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// A shared, append-only log of simulator events.
///
/// Cloning shares the underlying buffer. The disabled (default) trace
/// drops every record, so real-environment runs pay one branch.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    inner: Option<Arc<Mutex<Vec<String>>>>,
}

impl SimTrace {
    /// An enabled, empty trace.
    pub fn enabled() -> SimTrace {
        SimTrace {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// The no-op trace used by real environments.
    pub fn disabled() -> SimTrace {
        SimTrace { inner: None }
    }

    /// Returns `true` when records are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one event line.
    pub fn record(&self, line: impl AsRef<str>) {
        if let Some(inner) = &self.inner {
            inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(line.as_ref().to_owned());
        }
    }

    /// Snapshot of every line, oldest first.
    pub fn lines(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            None => Vec::new(),
        }
    }

    /// Renders the whole log as one newline-separated string — the
    /// byte-identity artifact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.lines() {
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Number of recorded lines.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().unwrap_or_else(|e| e.into_inner()).len(),
            None => 0,
        }
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_drops_everything() {
        let t = SimTrace::disabled();
        t.record("x");
        assert!(t.is_empty());
        assert_eq!(t.render(), "");
    }

    #[test]
    fn enabled_trace_keeps_order_and_digests() {
        let t = SimTrace::enabled();
        t.record("a");
        t.record("b");
        assert_eq!(t.render(), "a\nb\n");
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = SimTrace::enabled();
        let u = t.clone();
        u.record("via clone");
        assert_eq!(t.lines(), vec!["via clone".to_owned()]);
    }
}
