//! Metrics registry: counters, gauges, and log₂-bucket histograms.
//!
//! Histogram bucket boundaries are fixed powers of two, so snapshots
//! from different runs (or different processes) line up exactly and can
//! be merged by summing buckets — no configuration to drift.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::span::json;

/// Number of histogram buckets. Bucket `i` holds values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 holds zero); the last bucket is
/// a catch-all for anything ≥ 2^62.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Returns the bucket index for a value: 0 for 0, else
/// `min(64 - leading_zeros(v), HISTOGRAM_BUCKETS - 1)`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, …).
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

#[derive(Debug, Default, Clone)]
struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; HISTOGRAM_BUCKETS];
        }
        self.buckets[bucket_index(value)] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }
}

/// The live registry. Hash maps, so an update finds its name with one
/// hash and one key comparison; [`Metrics::snapshot`] sorts by name.
#[derive(Debug, Default)]
struct MetricsInner {
    counters: Mutex<HashMap<String, u64>>,
    gauges: Mutex<HashMap<String, i64>>,
    histograms: Mutex<HashMap<String, Histogram>>,
}

/// A clonable, thread-safe metrics handle. Like [`Tracer`], a disabled
/// handle ([`Metrics::disabled`]) reduces every call to one branch.
///
/// [`Tracer`]: crate::Tracer
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsInner>>,
}

impl Metrics {
    /// A live registry.
    pub fn new() -> Metrics {
        Metrics {
            inner: Some(Arc::new(MetricsInner::default())),
        }
    }

    /// The no-op registry.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// Returns `true` when observations are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `name`.
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut counters = inner.counters.lock().unwrap_or_else(|e| e.into_inner());
            update(&mut counters, name, |counter| *counter += delta);
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: i64) {
        if let Some(inner) = &self.inner {
            let mut gauges = inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
            update(&mut gauges, name, |gauge| *gauge = value);
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut hists = inner.histograms.lock().unwrap_or_else(|e| e.into_inner());
            update(&mut hists, name, |hist| hist.observe(value));
        }
    }

    /// Records a duration into the histogram `name` in nanoseconds.
    pub fn observe_duration(&self, name: &str, duration: std::time::Duration) {
        if self.inner.is_some() {
            self.observe(name, duration.as_nanos() as u64);
        }
    }

    /// Takes a consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, &v)| (name.clone(), v))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, &v)| (name.clone(), v))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        min: h.min,
                        max: h.max,
                        buckets: h.buckets.clone(),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Applies `apply` to the entry `name`, first inserting a default one.
/// A name already present is found without allocating its key.
fn update<V: Default>(map: &mut HashMap<String, V>, name: &str, apply: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(value) => apply(value),
        None => apply(map.entry(name.to_owned()).or_default()),
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 if empty).
    pub min: u64,
    /// Largest observed value (0 if empty).
    pub max: u64,
    /// Per-bucket counts: bucket `i` counts the values whose
    /// `floor(log2(v))` is `i - 1`, bucket 0 the zeros, and the last
    /// bucket everything from 2^62 up. Empty if no observations.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of observed values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in 0..=1): the floor of the bucket
    /// holding the q-th observation. Exact at bucket boundaries, a
    /// lower bound inside a bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_floor(i);
            }
        }
        self.max
    }
}

/// Point-in-time copy of every metric in a registry.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Returns `true` when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The change from `prev` to `self`, for periodic telemetry export.
    ///
    /// Counters and histogram bucket/count/sum values subtract
    /// (saturating, so a registry swapped underneath us yields zeros
    /// rather than garbage); entries whose delta is zero are omitted.
    /// Gauges are levels, not rates, so the current value is reported
    /// whenever it changed (or is new). Histogram `min`/`max` in a
    /// delta are cumulative — buckets do not retain enough information
    /// to recover the window extremes — which keeps quantiles of the
    /// delta'd buckets exact while extremes stay lifetime-wide.
    pub fn delta(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, &cur) in &self.counters {
            let d = cur.saturating_sub(prev.counters.get(name).copied().unwrap_or(0));
            if d != 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, &cur) in &self.gauges {
            if prev.gauges.get(name) != Some(&cur) {
                out.gauges.insert(name.clone(), cur);
            }
        }
        for (name, cur) in &self.histograms {
            let base = prev.histograms.get(name);
            let prev_count = base.map(|h| h.count).unwrap_or(0);
            let d_count = cur.count.saturating_sub(prev_count);
            if d_count == 0 {
                continue;
            }
            let mut buckets = cur.buckets.clone();
            if let Some(base) = base {
                for (i, b) in buckets.iter_mut().enumerate() {
                    *b = b.saturating_sub(base.buckets.get(i).copied().unwrap_or(0));
                }
            }
            out.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count: d_count,
                    sum: cur.sum.saturating_sub(base.map(|h| h.sum).unwrap_or(0)),
                    min: cur.min,
                    max: cur.max,
                    buckets,
                },
            );
        }
        out
    }

    /// Human-readable multi-line rendering (the REPL `stats` command).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("no metrics recorded\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} n={} mean={:.0} p50={} p95={} p99={} min={} max={}\n",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.quantile(0.99),
                    h.min,
                    h.max,
                ));
            }
        }
        out
    }

    /// JSON object rendering (for `BENCH_exec.json` and tooling).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends [`MetricsSnapshot::to_json`]'s object to `out`.
    pub fn encode_into(&self, out: &mut String) {
        out.push_str("{\"counters\":{");
        for (i, (name, &v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(out, name);
            out.push(':');
            json::push_u64(out, v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, &v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(out, name);
            out.push(':');
            json::push_i64(out, v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(out, name);
            for (key, v) in [
                (":{\"count\":", h.count),
                (",\"sum\":", h.sum),
                (",\"min\":", h.min),
                (",\"max\":", h.max),
            ] {
                out.push_str(key);
                json::push_u64(out, v);
            }
            out.push_str(",\"mean\":");
            json::push_float(out, h.mean());
            for (key, q) in [(",\"p50\":", 0.5), (",\"p95\":", 0.95), (",\"p99\":", 0.99)] {
                out.push_str(key);
                json::push_u64(out, h.quantile(q));
            }
            out.push('}');
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Floors invert the index at exact powers of two.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_floor(i)), i, "floor of bucket {i}");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let m = Metrics::new();
        for v in [1u64, 2, 3, 4, 100] {
            m.observe("lat", v);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!((h.mean() - 22.0).abs() < 1e-9);
        // p50 = 3rd of 5 observations, which lives in the [2,4) bucket.
        assert_eq!(h.quantile(0.5), 2);
        // p99 lands on the last observation's bucket floor (64 ≤ 100).
        assert_eq!(h.quantile(0.99), 64);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: every quantile (and the extremes) is zero.
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), 0, "empty histogram at q={q}");
        }

        // Single observation: q=0.0 and q=1.0 both land on its bucket
        // floor, and out-of-range q values clamp instead of panicking.
        let m = Metrics::new();
        m.observe("one", 5);
        let h = m.snapshot().histograms["one"].clone();
        assert_eq!(h.quantile(0.0), 4);
        assert_eq!(h.quantile(1.0), 4);
        assert_eq!(h.quantile(-3.0), 4);
        assert_eq!(h.quantile(7.0), 4);

        // Everything in one bucket: all quantiles agree on its floor.
        let m = Metrics::new();
        for v in [16u64, 17, 20, 31] {
            m.observe("bucketed", v);
        }
        let h = m.snapshot().histograms["bucketed"].clone();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 16, "single-bucket at q={q}");
        }

        // Saturating top bucket: u64::MAX lands in the catch-all last
        // bucket, whose floor is still a valid (huge) lower bound, and
        // q=1.0 walks off the end to the recorded max.
        let m = Metrics::new();
        m.observe("sat", 1);
        m.observe("sat", u64::MAX);
        let h = m.snapshot().histograms["sat"].clone();
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), bucket_floor(HISTOGRAM_BUCKETS - 1));
        assert_eq!(h.max, u64::MAX);
        // Sum saturates rather than wrapping.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn snapshot_delta_between_two_snapshots() {
        let m = Metrics::new();
        m.incr("ops", 10);
        m.gauge_set("depth", 3);
        m.gauge_set("steady", 7);
        m.observe("lat", 8);
        m.observe("lat", 9);
        let first = m.snapshot();

        m.incr("ops", 5);
        m.incr("fresh", 2);
        m.gauge_set("depth", 1);
        m.observe("lat", 100);
        m.observe("new_lat", 4);
        let second = m.snapshot();

        let d = second.delta(&first);
        // Counters subtract; unchanged ones vanish; new ones appear.
        assert_eq!(d.counters.get("ops"), Some(&5));
        assert_eq!(d.counters.get("fresh"), Some(&2));
        // Gauges report the current level only when it moved.
        assert_eq!(d.gauges.get("depth"), Some(&1));
        assert_eq!(d.gauges.get("steady"), None);
        // Histogram deltas carry only the window's observations.
        let lat = &d.histograms["lat"];
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 100);
        assert_eq!(lat.quantile(0.5), 64);
        // min/max stay cumulative (documented on `delta`).
        assert_eq!(lat.min, 8);
        assert_eq!(lat.max, 100);
        let fresh_h = &d.histograms["new_lat"];
        assert_eq!(fresh_h.count, 1);
        assert_eq!(fresh_h.quantile(1.0), 4);
        // A quiet histogram is omitted entirely.
        let third = m.snapshot();
        let quiet = third.delta(&second);
        assert!(quiet.is_empty());
        // Delta against self is empty; delta against default is self-like.
        assert!(second.delta(&second).is_empty());
        let full = second.delta(&MetricsSnapshot::default());
        assert_eq!(full.counters.get("ops"), Some(&15));
        assert_eq!(full.histograms["lat"].count, 3);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::disabled();
        m.incr("c", 1);
        m.gauge_set("g", 5);
        m.observe("h", 10);
        let snap = m.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert_eq!(snap.render_text(), "no metrics recorded\n");
    }

    #[test]
    fn counters_gauges_and_json_shape() {
        let m = Metrics::new();
        m.incr("tasks", 2);
        m.incr("tasks", 3);
        m.gauge_set("workers", 4);
        m.gauge_set("workers", 8);
        m.observe("lat", 5);
        let snap = m.snapshot();
        assert_eq!(snap.counters["tasks"], 5);
        assert_eq!(snap.gauges["workers"], 8);
        let j = snap.to_json();
        assert!(j.contains("\"tasks\":5"));
        assert!(j.contains("\"workers\":8"));
        assert!(j.contains("\"count\":1"));
        assert_eq!(
            j,
            "{\"counters\":{\"tasks\":5},\"gauges\":{\"workers\":8},\"histograms\":{\"lat\":\
             {\"count\":1,\"sum\":5,\"min\":5,\"max\":5,\"mean\":5,\"p50\":4,\"p95\":4,\"p99\":4}}}"
        );
        m.gauge_set("workers", -2);
        assert!(m.snapshot().to_json().contains("\"workers\":-2"));
        let text = snap.render_text();
        assert!(text.contains("tasks"));
        assert!(text.contains("workers"));
        assert!(text.contains("lat"));
    }
}
