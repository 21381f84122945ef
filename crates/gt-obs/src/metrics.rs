//! Registry, per-stage sinks, and the metric sheet they record into.

use crate::snapshot::{MetricRow, SpanSnap, TelemetrySnapshot, WallBlock};
use crate::span::{SpanGuard, SpanRecord};
use parking_lot::Mutex;
use serde::Serialize;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Bucket edges (seconds) for backoff-sleep histograms. Powers of two
/// track the exponential retry schedule; the last bucket is overflow.
pub const BACKOFF_BUCKET_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// A fixed-bucket histogram. `counts[i]` holds observations `<=
/// edges[i]`; the final slot counts overflow. Edges are fixed at
/// construction so merging is exact and the serialized form is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Inclusive upper bucket bounds, ascending.
    pub edges: Vec<u64>,
    /// Per-bucket observation counts; `len == edges.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Histogram {
    pub fn new(edges: &[u64]) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must ascend");
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    pub fn observe(&mut self, value: u64) {
        let slot = self
            .edges
            .iter()
            .position(|&e| value <= e)
            .unwrap_or(self.edges.len());
        self.counts[slot] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Fold `other` into `self`.
    ///
    /// # Panics
    /// If the bucket edges differ — merging across layouts would be
    /// silently lossy.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "histogram bucket edges differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// One metric cell.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MetricCell {
    /// Monotonic sum.
    Counter(u64),
    Hist(Histogram),
}

impl MetricCell {
    /// Fold `other` into `self`; `false` if the two differ in kind.
    fn merge(&mut self, other: &MetricCell) -> bool {
        match (self, other) {
            (MetricCell::Counter(a), MetricCell::Counter(b)) => *a += b,
            (MetricCell::Hist(a), MetricCell::Hist(b)) => a.merge(b),
            _ => return false,
        }
        true
    }
}

/// `(substrate, metric)`. Borrowed when recorded by code, owned when
/// rebuilt from persisted rows.
type SheetKey = (Cow<'static, str>, Cow<'static, str>);

/// One stage's metric cells, keyed `(substrate, metric)`.
///
/// Gates and drivers fill a local sheet lock-free and flush it into
/// their [`StageSink`] once; the sink's own sheet is the stage's record
/// of what it observed, which the executor persists next to the stage
/// output and replays on a cache hit ([`MetricSheet::rows`] /
/// [`MetricSheet::from_rows`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSheet {
    cells: BTreeMap<SheetKey, MetricCell>,
}

impl MetricSheet {
    pub fn new() -> Self {
        MetricSheet::default()
    }

    /// Fold `cell` in under `key`.
    ///
    /// # Panics
    /// If the sheet holds a cell of another kind (or, for histograms,
    /// other bucket edges) under `key`.
    fn fold(&mut self, key: SheetKey, cell: MetricCell) {
        match self.cells.entry(key) {
            Entry::Vacant(e) => {
                e.insert(cell);
            }
            Entry::Occupied(mut e) => {
                if !e.get_mut().merge(&cell) {
                    panic!("metric kind clash for {}/{}", e.key().0, e.key().1);
                }
            }
        }
    }

    /// Add to a counter.
    pub fn add(&mut self, substrate: &'static str, metric: &'static str, value: u64) {
        let key = (Cow::Borrowed(substrate), Cow::Borrowed(metric));
        self.fold(key, MetricCell::Counter(value));
    }

    /// Observe into a fixed-bucket histogram (created on first use).
    pub fn observe(
        &mut self,
        substrate: &'static str,
        metric: &'static str,
        value: u64,
        edges: &[u64],
    ) {
        let mut hist = Histogram::new(edges);
        hist.observe(value);
        let key = (Cow::Borrowed(substrate), Cow::Borrowed(metric));
        self.fold(key, MetricCell::Hist(hist));
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Fold every cell of `other` into `self`.
    ///
    /// # Panics
    /// If a cell exists in both with different kinds or bucket edges.
    pub fn merge(&mut self, other: &MetricSheet) {
        for (key, cell) in &other.cells {
            self.fold(key.clone(), cell.clone());
        }
    }

    /// The sheet's cells as rows under `stage`, sorted by
    /// `(substrate, metric)`.
    pub fn rows<'s>(&'s self, stage: &'s str) -> impl Iterator<Item = MetricRow> + 's {
        self.cells.iter().map(move |((substrate, metric), cell)| {
            let (kind, value, hist) = match cell {
                MetricCell::Counter(c) => ("counter", *c, None),
                MetricCell::Hist(h) => ("histogram", h.count, Some(h.clone())),
            };
            MetricRow {
                stage: stage.to_string(),
                substrate: substrate.to_string(),
                metric: metric.to_string(),
                kind: kind.to_string(),
                value,
                hist,
            }
        })
    }

    /// Rebuild a sheet from its [`MetricSheet::rows`] (row stages are
    /// ignored). `None` if a row is malformed: an unknown kind, or a
    /// histogram whose buckets do not match its edges.
    pub fn from_rows(rows: impl IntoIterator<Item = MetricRow>) -> Option<MetricSheet> {
        let mut sheet = MetricSheet::new();
        for row in rows {
            let cell = match (row.kind.as_str(), row.hist) {
                ("counter", None) => MetricCell::Counter(row.value),
                ("histogram", Some(h)) if h.counts.len() == h.edges.len() + 1 => {
                    MetricCell::Hist(h)
                }
                _ => return None,
            };
            let key = (Cow::Owned(row.substrate), Cow::Owned(row.metric));
            sheet.cells.insert(key, cell);
        }
        Some(sheet)
    }
}

/// The run's span log: wall-clock intervals.
#[derive(Debug)]
pub(crate) struct SpanLog {
    /// Wall-clock zero for span timestamps.
    pub(crate) epoch: Instant,
    pub(crate) records: Mutex<Vec<SpanRecord>>,
}

/// A sink's sheet, shared by every clone of the sink.
type SharedSheet = Arc<Mutex<MetricSheet>>;

/// Every sheet a registry handed out, with its stage.
type SheetList = Arc<Mutex<Vec<(Arc<str>, SharedSheet)>>>;

/// The run's metrics and spans. Cloning is cheap (`Arc`s).
///
/// Every [`StageSink`] handed out by [`MetricsRegistry::sink`] records
/// into a sheet of its own, and [`MetricsRegistry::snapshot`] folds the
/// sheets per stage. Every span opened on the registry or its sinks
/// lands in the one span log.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    sheets: SheetList,
    spans: Arc<SpanLog>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A registry recording metrics and spans, its wall-clock epoch set
    /// to now.
    pub fn new() -> Self {
        MetricsRegistry {
            sheets: Arc::default(),
            spans: Arc::new(SpanLog {
                epoch: Instant::now(),
                records: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A sink bound to one pipeline stage, recording into a fresh sheet
    /// that the registry's snapshot includes. Sinks are cheap to clone
    /// and `Send + Sync`; clones share the sheet.
    pub fn sink(&self, stage: &str) -> StageSink {
        let stage: Arc<str> = Arc::from(stage);
        let sheet = SharedSheet::default();
        self.sheets.lock().push((stage.clone(), sheet.clone()));
        StageSink {
            stage,
            sheet: Some(sheet),
            spans: Some(self.spans.clone()),
        }
    }

    /// Open a wall-clock span; it records itself when dropped.
    pub fn span(&self, name: &str, cat: &'static str) -> SpanGuard {
        SpanGuard::open(Some(self.spans.clone()), name, cat, None)
    }

    /// Freeze the registry contents into a serializable snapshot.
    /// Metric rows come out sorted by `(stage, substrate, metric)` —
    /// deterministic for deterministic inputs, whatever order the sinks
    /// were created in; spans sort by `(lane, start)`.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut by_stage: BTreeMap<Arc<str>, MetricSheet> = BTreeMap::new();
        for (stage, sheet) in self.sheets.lock().iter() {
            by_stage
                .entry(stage.clone())
                .or_default()
                .merge(&sheet.lock());
        }
        let metrics = by_stage
            .iter()
            .flat_map(|(stage, sheet)| sheet.rows(stage))
            .collect();
        let mut spans: Vec<SpanSnap> = self
            .spans
            .records
            .lock()
            .iter()
            .map(SpanRecord::snap)
            .collect();
        spans.sort_by_key(|a| (a.lane, a.start_us));
        TelemetrySnapshot {
            metrics,
            wall: WallBlock {
                total_ms: self.spans.epoch.elapsed().as_secs_f64() * 1_000.0,
                spans,
            },
        }
    }
}

/// A handle bound to one pipeline stage. The stage string is baked in
/// so substrate drivers only name `(substrate, metric)`; metric rows go
/// to the sink's own sheet, spans to the run's span log.
#[derive(Debug, Clone)]
pub struct StageSink {
    stage: Arc<str>,
    /// `None` for [`StageSink::noop`].
    sheet: Option<SharedSheet>,
    spans: Option<Arc<SpanLog>>,
}

impl StageSink {
    /// A sink that records nothing: no sheet, no spans.
    pub fn noop() -> Self {
        StageSink {
            stage: Arc::from("noop"),
            sheet: None,
            spans: None,
        }
    }

    pub fn stage(&self) -> &str {
        &self.stage
    }

    /// Open a nested wall-clock span under this stage.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard::open(self.spans.clone(), name, "substrate", None)
    }

    /// [`StageSink::span`] annotated with the sim-clock second the
    /// spanned work models.
    pub fn span_sim(&self, name: &str, sim_ts: i64) -> SpanGuard {
        SpanGuard::open(self.spans.clone(), name, "substrate", Some(sim_ts))
    }

    /// Add to a counter under this stage.
    pub fn counter_add(&self, substrate: &'static str, metric: &'static str, value: u64) {
        if let Some(sheet) = &self.sheet {
            sheet.lock().add(substrate, metric, value);
        }
    }

    /// Drain `sheet` into this sink's sheet under a single lock.
    pub fn flush(&self, sheet: &mut MetricSheet) {
        if let Some(own) = &self.sheet {
            if !sheet.is_empty() {
                own.lock().merge(sheet);
            }
        }
        *sheet = MetricSheet::new();
    }

    /// A copy of everything this sink (and its clones) recorded so far.
    pub fn sheet(&self) -> MetricSheet {
        self.sheet
            .as_ref()
            .map_or_else(MetricSheet::new, |s| s.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_inert() {
        let sink = StageSink::noop();
        sink.counter_add("sub", "m", 3);
        let mut sheet = MetricSheet::new();
        sheet.add("sub", "m", 1);
        sink.flush(&mut sheet);
        assert!(sheet.is_empty(), "flush drains even a noop sink");
        assert!(sink.sheet().is_empty());
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let reg = MetricsRegistry::new();
        reg.sink("b").counter_add("x", "m", 1);
        reg.sink("a").counter_add("x", "m", 2);
        reg.sink("a").counter_add("x", "m", 3);
        let snap = reg.snapshot();
        let rows: Vec<(&str, u64)> = snap
            .metrics
            .iter()
            .map(|r| (r.stage.as_str(), r.value))
            .collect();
        assert_eq!(rows, [("a", 5), ("b", 1)]);
    }

    #[test]
    fn sheet_flush_merges_all_kinds() {
        let reg = MetricsRegistry::new();
        let sink = reg.sink("stage");
        for _ in 0..2 {
            let mut sheet = MetricSheet::new();
            sheet.add("yt", "calls", 4);
            sheet.observe("yt", "backoff", 3, BACKOFF_BUCKET_EDGES);
            sink.flush(&mut sheet);
        }
        let snap = reg.snapshot();
        let calls = snap.counter("stage", "yt", "calls").unwrap();
        assert_eq!(calls, 8);
        let hist = snap.metrics.iter().find(|r| r.metric == "backoff").unwrap();
        let h = hist.hist.as_ref().unwrap();
        assert_eq!((h.count, h.sum), (2, 6));
    }

    #[test]
    fn sheet_rows_round_trip() {
        let mut sheet = MetricSheet::new();
        sheet.add("yt", "calls", 4);
        sheet.observe("yt", "backoff", 3, BACKOFF_BUCKET_EDGES);
        let rebuilt = MetricSheet::from_rows(sheet.rows("ignored")).unwrap();
        assert_eq!(rebuilt, sheet);

        let mut bad: Vec<MetricRow> = sheet.rows("s").collect();
        bad[0].kind = "timer".to_string();
        assert!(MetricSheet::from_rows(bad).is_none(), "unknown kind");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 1, 2, 5, 100] {
            h.observe(v);
        }
        assert_eq!(h.counts, [2, 1, 1, 1]);
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 108);
    }

    #[test]
    #[should_panic(expected = "metric kind clash")]
    fn sheet_merge_rejects_kind_clashes() {
        let mut a = MetricSheet::new();
        a.add("yt", "calls", 1);
        let mut b = MetricSheet::new();
        b.observe("yt", "calls", 1, BACKOFF_BUCKET_EDGES);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "bucket edges differ")]
    fn histogram_merge_rejects_mismatched_edges() {
        let mut a = Histogram::new(&[1, 2]);
        a.merge(&Histogram::new(&[1, 3]));
    }
}
