//! # obs — the unified observability layer
//!
//! The paper's argument is measurement-driven: Tables 4-5..4-9 exist because
//! PSM-E could report per-node activations, lock contention, and per-worker
//! speedup. This crate gives the reproduction one common metrics substrate
//! instead of the previous scatter of ad-hoc structs:
//!
//! * [`Counter`] / [`Gauge`] — single relaxed atomics.
//! * [`Histogram`] — fixed log2 buckets (`[2^i, 2^(i+1))`), recorded with
//!   plain relaxed atomics; no floats, no locks, no allocation on the hot
//!   path. Used for latencies (nanoseconds) and size distributions alike.
//! * [`Registry`] — named instruments with labels. Registration takes a
//!   mutex (cold path, construction only); every recording afterwards is a
//!   single atomic RMW on an `Arc`-shared instrument.
//! * [`NodeProfile`] — per-join-node activation counts and opposite-memory
//!   scan lengths, indexed by `JoinId`, shared across match workers.
//! * [`Snapshot::render_prometheus`] — text exposition format for the serve
//!   layer's `METRICS?` command and `--metrics-port` endpoint.
//!
//! Everything sits behind [`ObsConfig`]: with `enabled == false` no
//! instrument is ever constructed and the instrumented code paths reduce to
//! one `Option`/`OnceLock` load and a branch.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Master switch for the observability layer.
///
/// Disabled (the default) must stay cheap enough to leave compiled in: the
/// engine, matchers, and server skip instrument construction entirely and
/// hot paths only test an `Option` that is `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    pub enabled: bool,
}

impl ObsConfig {
    /// Observability on.
    pub fn enabled() -> ObsConfig {
        ObsConfig { enabled: true }
    }
}

// ------------------------------------------------------------- instruments

/// A monotonically increasing counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets. Bucket `i` holds values `v` with
/// `bucket_index(v) == i`; the last bucket is a catch-all for anything
/// `>= 2^(N_BUCKETS-1)`. 32 buckets cover 1 ns .. ~2 s of latency (and any
/// count distribution up to ~2^31) with one u64 slot each.
pub const N_BUCKETS: usize = 32;

/// Upper bound (exclusive) of bucket `i`, or `u64::MAX` for the catch-all.
pub fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// The bucket a value of `v` lands in: 0 and 1 in bucket 0, otherwise
/// `floor(log2(v))`, capped at the catch-all.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let lg = (63 - (v | 1).leading_zeros()) as usize;
    lg.min(N_BUCKETS - 1)
}

/// A fixed-bucket log2 histogram on relaxed atomics.
///
/// `count` and `sum` are maintained alongside the buckets; at rest (no
/// concurrent recorders — every layer snapshots only at quiescence) a
/// snapshot satisfies `count == Σ buckets`, which
/// [`HistogramSnapshot::validate`] checks together with cumulative-bucket
/// monotonicity.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; N_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Cumulative bucket counts (Prometheus `le` semantics): entry `i` is
    /// the number of observations `< bucket_bound(i)`.
    pub fn cumulative(&self) -> [u64; N_BUCKETS] {
        let mut out = [0u64; N_BUCKETS];
        let mut acc = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b;
            out[i] = acc;
        }
        out
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The invariants the CI smoke gate enforces: cumulative buckets are
    /// monotone non-decreasing and `count == Σ buckets`.
    pub fn validate(&self) -> Result<(), String> {
        let cum = self.cumulative();
        for w in cum.windows(2) {
            if w[1] < w[0] {
                return Err(format!("cumulative buckets not monotone: {cum:?}"));
            }
        }
        let total: u64 = self.buckets.iter().sum();
        if total != self.count {
            return Err(format!(
                "count {} != sum of buckets {} ({:?})",
                self.count, total, self.buckets
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- registry

/// A label set: `(key, value)` pairs attached to an instrument.
pub type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Entry {
    name: String,
    labels: Labels,
    instrument: Instrument,
}

/// Named instruments. Registration (construction-time, mutex-guarded)
/// returns `Arc` handles; recording through a handle never touches the
/// registry again. Registering the same `(name, labels)` twice returns the
/// existing instrument.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    fn find<T>(
        entries: &[Entry],
        name: &str,
        labels: &Labels,
        pick: impl Fn(&Instrument) -> Option<Arc<T>>,
    ) -> Option<Arc<T>> {
        entries
            .iter()
            .find(|e| e.name == name && e.labels == *labels)
            .and_then(|e| pick(&e.instrument))
    }

    pub fn counter(&self, name: &str, labels: Labels) -> Arc<Counter> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(c) = Self::find(&entries, name, &labels, |i| match i {
            Instrument::Counter(c) => Some(c.clone()),
            _ => None,
        }) {
            return c;
        }
        let c = Arc::new(Counter::new());
        entries.push(Entry {
            name: name.to_string(),
            labels,
            instrument: Instrument::Counter(c.clone()),
        });
        c
    }

    pub fn gauge(&self, name: &str, labels: Labels) -> Arc<Gauge> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(g) = Self::find(&entries, name, &labels, |i| match i {
            Instrument::Gauge(g) => Some(g.clone()),
            _ => None,
        }) {
            return g;
        }
        let g = Arc::new(Gauge::new());
        entries.push(Entry {
            name: name.to_string(),
            labels,
            instrument: Instrument::Gauge(g.clone()),
        });
        g
    }

    pub fn histogram(&self, name: &str, labels: Labels) -> Arc<Histogram> {
        let mut entries = self.entries.lock().expect("obs registry");
        if let Some(h) = Self::find(&entries, name, &labels, |i| match i {
            Instrument::Histogram(h) => Some(h.clone()),
            _ => None,
        }) {
            return h;
        }
        let h = Arc::new(Histogram::new());
        entries.push(Entry {
            name: name.to_string(),
            labels,
            instrument: Instrument::Histogram(h.clone()),
        });
        h
    }

    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("obs registry");
        Snapshot {
            metrics: entries
                .iter()
                .map(|e| MetricValue {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    data: match &e.instrument {
                        Instrument::Counter(c) => MetricData::Counter(c.get()),
                        Instrument::Gauge(g) => MetricData::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricData::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }
}

/// One instrument's value in a snapshot. The histogram snapshot is boxed so
/// counter-heavy snapshots don't pay its 280-byte footprint per entry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricData {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub labels: Labels,
    pub data: MetricData,
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub metrics: Vec<MetricValue>,
}

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

impl Snapshot {
    /// Merge another snapshot's metrics into this one (cross-session
    /// aggregation; entries keep their labels, so same-named metrics from
    /// different sessions stay distinguishable).
    pub fn merge(&mut self, other: Snapshot) {
        self.metrics.extend(other.metrics);
    }

    /// Add a constant label (e.g. `session="3"`) to every metric.
    pub fn with_label(mut self, key: &str, value: &str) -> Snapshot {
        for m in &mut self.metrics {
            m.labels.push((key.to_string(), value.to_string()));
        }
        self
    }

    /// Every histogram in the snapshot, for invariant gates.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.metrics.iter().filter_map(|m| match &m.data {
            MetricData::Histogram(h) => Some((m.name.as_str(), h.as_ref())),
            _ => None,
        })
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters and gauges as single samples, histograms
    /// as cumulative `_bucket{le=...}` series plus `_sum` and `_count`.
    pub fn render_prometheus(&self, out: &mut String) {
        for m in &self.metrics {
            match &m.data {
                MetricData::Counter(v) => {
                    out.push_str(&m.name);
                    render_labels(out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                MetricData::Gauge(v) => {
                    out.push_str(&m.name);
                    render_labels(out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                MetricData::Histogram(h) => {
                    let cum = h.cumulative();
                    for (i, c) in cum.iter().enumerate() {
                        let bound = bucket_bound(i);
                        // Collapse empty catch-all tail buckets into +Inf.
                        if bound != u64::MAX && *c == cum[N_BUCKETS - 1] && i + 1 < N_BUCKETS {
                            continue;
                        }
                        let le = if bound == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            bound.to_string()
                        };
                        out.push_str(&m.name);
                        out.push_str("_bucket");
                        render_labels(out, &m.labels, Some(("le", &le)));
                        out.push(' ');
                        out.push_str(&c.to_string());
                        out.push('\n');
                    }
                    out.push_str(&m.name);
                    out.push_str("_bucket");
                    render_labels(out, &m.labels, Some(("le", "+Inf")));
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                    out.push_str(&m.name);
                    out.push_str("_sum");
                    render_labels(out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&h.sum.to_string());
                    out.push('\n');
                    out.push_str(&m.name);
                    out.push_str("_count");
                    render_labels(out, &m.labels, None);
                    out.push(' ');
                    out.push_str(&h.count.to_string());
                    out.push('\n');
                }
            }
        }
    }
}

// ------------------------------------------------------------ node profile

/// Per-join-node match profile: activation counts and opposite-memory scan
/// lengths, indexed by the network's `JoinId`. Shared (`Arc`) between the
/// matcher's workers; recording is two relaxed RMWs.
///
/// Reconciliation invariants (checked by the psm stress suite):
/// `Σ activations == MatchStats::join_activations` and
/// `Σ scanned == opp_tokens_left + opp_tokens_right`, because the matchers
/// record into the profile at exactly the statements that bump those
/// counters.
#[derive(Debug)]
pub struct NodeProfile {
    activations: Box<[AtomicU64]>,
    scanned: Box<[AtomicU64]>,
}

/// One hot node in a [`NodeProfile::top_n`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotNode {
    pub join: usize,
    pub activations: u64,
    pub scanned: u64,
}

impl NodeProfile {
    pub fn new(n_joins: usize) -> NodeProfile {
        NodeProfile {
            activations: (0..n_joins).map(|_| AtomicU64::new(0)).collect(),
            scanned: (0..n_joins).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.activations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.activations.is_empty()
    }

    #[inline]
    pub fn record_activation(&self, join: usize) {
        self.activations[join].fetch_add(1, Ordering::Relaxed);
    }

    /// Bulk add, for matchers that buffer counts locally (plain `u64`
    /// increments on the hot path) and fold them in once per quiesce.
    #[inline]
    pub fn record_activations(&self, join: usize, n: u64) {
        self.activations[join].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_scan(&self, join: usize, examined: u64) {
        self.scanned[join].fetch_add(examined, Ordering::Relaxed);
    }

    pub fn activation_count(&self, join: usize) -> u64 {
        self.activations[join].load(Ordering::Relaxed)
    }

    pub fn scanned_count(&self, join: usize) -> u64 {
        self.scanned[join].load(Ordering::Relaxed)
    }

    pub fn total_activations(&self) -> u64 {
        self.activations
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    pub fn total_scanned(&self) -> u64 {
        self.scanned.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// The `n` hottest join nodes by activation count (ties broken by
    /// scan volume, then join id, so reports are deterministic). Nodes
    /// with zero activations are omitted.
    pub fn top_n(&self, n: usize) -> Vec<HotNode> {
        let mut nodes: Vec<HotNode> = (0..self.len())
            .map(|j| HotNode {
                join: j,
                activations: self.activation_count(j),
                scanned: self.scanned_count(j),
            })
            .filter(|h| h.activations > 0)
            .collect();
        nodes.sort_by(|a, b| {
            b.activations
                .cmp(&a.activations)
                .then(b.scanned.cmp(&a.scanned))
                .then(a.join.cmp(&b.join))
        });
        nodes.truncate(n);
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn histogram_invariants_hold() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 5000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        s.validate().unwrap();
        assert_eq!(s.count, 7);
        let cum = s.cumulative();
        assert_eq!(cum[N_BUCKETS - 1], 7);
        // 0 and 1 share bucket 0; 2 and 3 share bucket 1.
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
    }

    #[test]
    fn histogram_validate_rejects_mismatched_count() {
        let h = Histogram::new();
        h.record(7);
        let mut s = h.snapshot();
        s.count = 2;
        assert!(s.validate().is_err());
    }

    #[test]
    fn histogram_concurrent_recording_settles_consistent() {
        let h = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(i.wrapping_mul(t + 1) % 4096);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        s.validate().unwrap();
        assert_eq!(s.count, 40_000);
    }

    #[test]
    fn registry_dedups_and_snapshots() {
        let r = Registry::new();
        let c1 = r.counter("ops", vec![("phase".into(), "match".into())]);
        let c2 = r.counter("ops", vec![("phase".into(), "match".into())]);
        let c3 = r.counter("ops", vec![("phase".into(), "act".into())]);
        c1.add(2);
        c2.inc();
        c3.inc();
        assert_eq!(c1.get(), 3, "same (name, labels) shares the instrument");
        let g = r.gauge("depth", vec![]);
        g.set(-4);
        let h = r.histogram("lat_ns", vec![]);
        h.record(300);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 4);
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.data == MetricData::Counter(3)));
        assert!(snap.metrics.iter().any(|m| m.data == MetricData::Gauge(-4)));
        assert_eq!(snap.histograms().count(), 1);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("requests_total", vec![("cmd".into(), "RUN".into())])
            .add(5);
        let h = r.histogram("latency_ns", vec![]);
        h.record(3);
        h.record(900);
        let mut out = String::new();
        r.snapshot().render_prometheus(&mut out);
        assert!(out.contains("requests_total{cmd=\"RUN\"} 5"), "{out}");
        assert!(out.contains("latency_ns_bucket{le=\"4\"} 1"), "{out}");
        assert!(out.contains("latency_ns_bucket{le=\"+Inf\"} 2"), "{out}");
        assert!(out.contains("latency_ns_sum 903"), "{out}");
        assert!(out.contains("latency_ns_count 2"), "{out}");
        // Every line is `name{labels} value` or `name value`.
        for line in out.lines() {
            assert!(line.split(' ').count() == 2, "bad exposition line: {line}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c", vec![("p".into(), "a\"b\\c".into())]).inc();
        let mut out = String::new();
        r.snapshot().render_prometheus(&mut out);
        assert!(out.contains("c{p=\"a\\\"b\\\\c\"} 1"), "{out}");
    }

    #[test]
    fn snapshot_merge_and_session_labels() {
        let r1 = Registry::new();
        r1.counter("x", vec![]).inc();
        let r2 = Registry::new();
        r2.counter("x", vec![]).add(2);
        let mut agg = r1.snapshot().with_label("session", "1");
        agg.merge(r2.snapshot().with_label("session", "2"));
        let mut out = String::new();
        agg.render_prometheus(&mut out);
        assert!(out.contains("x{session=\"1\"} 1"), "{out}");
        assert!(out.contains("x{session=\"2\"} 2"), "{out}");
    }

    #[test]
    fn node_profile_top_n_is_deterministic() {
        let p = NodeProfile::new(5);
        p.record_activation(3);
        p.record_activation(3);
        p.record_scan(3, 10);
        p.record_activation(1);
        p.record_scan(1, 40);
        let top = p.top_n(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].join, 3);
        assert_eq!(top[0].activations, 2);
        assert_eq!(top[1].join, 1);
        assert_eq!(top[1].scanned, 40);
        assert_eq!(p.total_activations(), 3);
        assert_eq!(p.total_scanned(), 50);
        // Untouched nodes never appear.
        assert!(p.top_n(10).iter().all(|h| h.join == 1 || h.join == 3));
    }
}
