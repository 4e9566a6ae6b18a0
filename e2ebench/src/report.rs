//! Aggregates session results into the printed report and the final
//! JSON line.

use std::fmt::Write as _;

use crate::gen::{Plan, Workload};
use crate::session::SessionResult;
use crate::trace::{Layer, PER_LAYER};

/// The end-to-end metrics every workload prints with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("session_s", "s"),
    ("step_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The metric names (with units) printed for a trace setting.
pub fn metric_names(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it when
/// there are `guaranteed` samples, and its value over `values` (which
/// hold at least that many); the median when there are too few for any.
/// Basing the choice on the guaranteed count, not on how many samples a
/// run happened to collect, keeps the percentile the same across runs.
pub fn tail(values: &[f64], guaranteed: usize) -> (f64, f64) {
    let n = guaranteed.min(values.len()) as f64;
    let pct = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (pct, percentile(values, pct))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every session of one run.
pub struct Outcome {
    workload: Workload,
    seed: u64,
    sizes: String,
    min_sessions: usize,
    results: Vec<SessionResult>,
}

impl Outcome {
    /// An empty outcome for `plan`.
    pub fn new(plan: &Plan) -> Outcome {
        Outcome {
            workload: plan.workload,
            seed: plan.seed,
            sizes: format!("{:?}", plan.sizes),
            min_sessions: plan.sizes.sessions,
            results: Vec::new(),
        }
    }

    /// Adds one session.
    pub fn push(&mut self, result: SessionResult) {
        self.results.push(result);
    }

    /// Sessions run.
    pub fn sessions(&self) -> usize {
        self.results.len()
    }

    fn untraced(&self) -> impl Iterator<Item = &SessionResult> {
        self.results.iter().filter(|r| r.layers.is_none())
    }

    fn traced(&self) -> impl Iterator<Item = &SessionResult> {
        self.results.iter().filter(|r| r.layers.is_some())
    }

    /// Latencies of the workload's characteristic step: edit cycles or
    /// warm runs.
    fn step_samples(&self) -> Vec<f64> {
        self.untraced()
            .flat_map(|r| self.session_steps(r))
            .collect()
    }

    /// The step samples a run is guaranteed to collect.
    fn guaranteed_steps(&self) -> usize {
        let per_session = self
            .untraced()
            .next()
            .map_or(0, |r| self.session_steps(r).len());
        per_session * self.min_sessions
    }

    fn session_steps(&self, r: &SessionResult) -> Vec<f64> {
        match self.workload {
            Workload::EditLoop => r
                .steps
                .iter()
                .filter(|s| s.0 == "cycle")
                .map(|s| s.1)
                .collect(),
            Workload::FanoutCache => r.runs.iter().filter(|x| !x.0).map(|x| x.1).collect(),
        }
    }

    fn open_samples(&self) -> Vec<f64> {
        self.untraced()
            .flat_map(|r| r.opens.iter().copied())
            .collect()
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let of = |f: fn(&SessionResult) -> f64| -> Vec<f64> { self.untraced().map(f).collect() };
        vec![
            ("setup_s", median(&of(|r| r.setup_s))),
            ("session_s", median(&of(|r| r.session_s))),
            ("step_p50_ms", median(&self.step_samples())),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let traced: Vec<_> = self.traced().filter_map(|r| r.layers.as_ref()).collect();
        let overhead = mean(&self.traced().map(|r| r.session_s * 1e3).collect::<Vec<_>>())
            - mean(
                &self
                    .untraced()
                    .map(|r| r.session_s * 1e3)
                    .collect::<Vec<_>>(),
            );
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let value = if name == "ui.trace_overhead_ms" {
                    overhead
                } else {
                    mean(
                        &traced
                            .iter()
                            .map(|l| l.get(name).copied().unwrap_or(0.0))
                            .collect::<Vec<_>>(),
                    )
                };
                (name, value)
            })
            .collect()
    }

    fn attempted(&self) -> usize {
        self.results.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> usize {
        self.results.iter().map(|r| r.failed).sum()
    }

    /// Problems the self-test reports: failed commands, failed checks,
    /// and traced sessions whose layer times do not add up.
    pub fn self_check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.failed() > 0 {
            problems.push(format!(
                "{} of {} command(s) failed",
                self.failed(),
                self.attempted()
            ));
        }
        for r in &self.results {
            problems.extend(r.check_failures.iter().cloned());
        }
        if self.traced().count() == 0 {
            problems.push("no traced session".into());
        }
        for layers in self.traced().filter_map(|r| r.layers.as_ref()) {
            let sum: f64 = Layer::ALL
                .iter()
                .map(|l| {
                    layers
                        .get(&format!("{}.self_ms", l.name()))
                        .copied()
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
                + layers["ui.unattributed_ms"];
            let session = layers["ui.session_ms"];
            if (sum - session).abs() > 1e-6 * session.max(1.0) {
                problems.push(format!(
                    "layer self times sum to {sum} ms, session {session} ms"
                ));
            }
        }
        // The same identity on the printed (averaged, rounded) values.
        let printed: std::collections::BTreeMap<_, _> = self.per_layer().into_iter().collect();
        let round = |v: f64| (v * 1e3).round() / 1e3;
        let sum: f64 = Layer::ALL
            .iter()
            .map(|l| round(printed[format!("{}.self_ms", l.name()).as_str()]))
            .sum::<f64>()
            + round(printed["ui.unattributed_ms"]);
        let session = round(printed["ui.session_ms"]);
        if (sum - session).abs() > 1e-3 * (Layer::ALL.len() + 2) as f64 {
            problems.push(format!(
                "printed layer times sum to {sum} ms, session {session} ms"
            ));
        }
        problems
    }

    /// The human-readable report: every metric the workload has, by
    /// name and unit.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let untraced = self.untraced().count();
        let _ = writeln!(
            out,
            "workload {} seed {}: {} session(s), {} traced; sizes {}",
            self.workload.name(),
            self.seed,
            self.results.len(),
            self.results.len() - untraced,
            self.sizes
        );
        for (name, value) in self.end_to_end() {
            let unit = END_TO_END.iter().find(|m| m.0 == name).map_or("", |m| m.1);
            line(&mut out, name, value, unit, String::new());
        }
        let sessions: Vec<f64> = self.untraced().map(|r| r.session_s).collect();
        let guaranteed = self.guaranteed_steps();
        let with_tail = |out: &mut String, base: &str, samples: &[f64]| {
            let (pct, value) = tail(samples, guaranteed);
            let n = samples.len();
            line(
                out,
                &format!("{base}_p50_ms"),
                median(samples),
                "ms",
                format!("n={n}"),
            );
            line(
                out,
                &format!("{base}_tail_ms"),
                value,
                "ms",
                format!("p{pct} of n={n}"),
            );
        };
        match self.workload {
            Workload::EditLoop => {
                with_tail(&mut out, "edit_cycle", &self.step_samples());
                let opens = self.open_samples();
                let n = opens.len();
                line(
                    &mut out,
                    "open_p50_ms",
                    median(&opens),
                    "ms",
                    format!("n={n}"),
                );
            }
            Workload::FanoutCache => {
                let cold: Vec<f64> = self
                    .untraced()
                    .flat_map(|r| r.runs.iter().filter(|x| x.0).map(|x| x.1))
                    .collect();
                let n = cold.len();
                line(
                    &mut out,
                    "run_cold_p50_ms",
                    median(&cold),
                    "ms",
                    format!("n={n}"),
                );
                with_tail(&mut out, "run_warm", &self.step_samples());
            }
        }
        let per_session: Vec<String> = sessions.iter().map(|s| format!("{s:.3}")).collect();
        let _ = writeln!(
            out,
            "  untraced session_s per session: {}",
            per_session.join(" ")
        );
        let disk: Vec<f64> = self.untraced().map(|r| r.disk_ratio).collect();
        line(
            &mut out,
            "disk_bytes_per_payload_byte",
            median(&disk),
            "ratio",
            "checkpoint + journal bytes over history payload bytes".into(),
        );
        let attempted = self.attempted();
        line(
            &mut out,
            "failed_ops_frac",
            self.failed() as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{} of {attempted}", self.failed()),
        );
        if self.traced().count() > 0 {
            let _ = writeln!(out, "  per-layer (mean over traced sessions):");
            for (name, value) in self.per_layer() {
                let unit = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1);
                let _ = writeln!(out, "    {name:<32} {value:>14.3} {unit}");
            }
        }
        for r in &self.results {
            for failure in &r.check_failures {
                let _ = writeln!(out, "  CHECK FAILED: {failure}");
            }
        }
        out
    }

    /// Whether every command succeeded and every output check passed
    /// (`reproducible`: the generator reproduced the plan), with at
    /// least one traced session when `trace` asks for per-layer metrics.
    pub fn correct(&self, trace: bool, reproducible: bool) -> bool {
        reproducible
            && self.failed() == 0
            && self.results.iter().all(|r| r.check_failures.is_empty())
            && (!trace || self.traced().count() > 0)
    }

    /// The final JSON line.
    pub fn to_json(&self, trace: bool, reproducible: bool) -> String {
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let correct = self.correct(trace, reproducible);
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted().max(1),
            self.failed()
        );
        for (i, (name, value)) in metrics.iter().enumerate() {
            let unit = metric_names(trace)
                .iter()
                .find(|m| m.0 == *name)
                .map_or("", |m| m.1);
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// One report line: name, value, unit and a note.
fn line(out: &mut String, name: &str, value: f64, unit: &str, note: String) {
    let _ = writeln!(out, "  {name:<30} {value:>14.3} {unit:<6} {note}");
}
