//! The frozen, serializable view of a registry, plus Chrome-trace
//! export.

use crate::metrics::Histogram;
use serde::Serialize;

/// One metric cell, flattened for serialization. Rows arrive sorted by
/// `(stage, substrate, metric)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MetricRow {
    pub stage: String,
    pub substrate: String,
    pub metric: String,
    /// `"counter"` or `"histogram"`.
    pub kind: String,
    /// Counter sum or histogram observation count.
    pub value: u64,
    /// Bucket detail for histogram rows.
    pub hist: Option<Histogram>,
}

/// One recorded span. Wall-clock; lives in [`WallBlock`] only.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanSnap {
    pub name: String,
    /// `"stage"` for executor stage spans, `"substrate"` for nested
    /// driver spans.
    pub cat: String,
    /// Worker-thread lane (`tid` in a Chrome trace).
    pub lane: u32,
    /// Nesting depth within the lane at open time.
    pub depth: u32,
    /// Microseconds since the run's registry epoch.
    pub start_us: u64,
    pub dur_us: u64,
    /// Sim-clock second the work models, when known.
    pub sim_ts: Option<i64>,
}

/// Wall-clock telemetry — **excluded from determinism checks**. Span
/// counts, lanes, and durations all legitimately vary with thread count
/// and machine load; nothing in here may feed back into `metrics`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WallBlock {
    /// Registry lifetime in milliseconds at snapshot time.
    pub total_ms: f64,
    pub spans: Vec<SpanSnap>,
}

/// Everything a run's registry knew, split by determinism class:
/// `metrics` is byte-identical across thread counts, `wall` is not.
/// Embedded in `PaperRun` and the experiments JSON — never in
/// `PaperReport`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// Sim-derived metric rows, sorted by `(stage, substrate, metric)`.
    pub metrics: Vec<MetricRow>,
    /// Wall-clock spans; excluded from determinism tests.
    pub wall: WallBlock,
}

#[derive(Serialize)]
struct TraceArgs {
    depth: u32,
    sim_ts: Option<i64>,
}

#[derive(Serialize)]
struct TraceEvent {
    name: String,
    cat: String,
    ph: String,
    ts: u64,
    dur: u64,
    pid: u32,
    tid: u32,
    args: TraceArgs,
}

#[allow(non_snake_case)]
#[derive(Serialize)]
struct TraceFile {
    traceEvents: Vec<TraceEvent>,
    displayTimeUnit: String,
}

impl TelemetrySnapshot {
    /// Counter value at `(stage, substrate, metric)`, if recorded.
    pub fn counter(&self, stage: &str, substrate: &str, metric: &str) -> Option<u64> {
        self.row(stage, substrate, metric).map(|r| r.value)
    }

    /// The row at `(stage, substrate, metric)`, if recorded.
    pub fn row(&self, stage: &str, substrate: &str, metric: &str) -> Option<&MetricRow> {
        self.metrics
            .iter()
            .find(|r| r.stage == stage && r.substrate == substrate && r.metric == metric)
    }

    /// Sum of `metric` across all stages for one substrate.
    pub fn substrate_total(&self, substrate: &str, metric: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|r| r.substrate == substrate && r.metric == metric && r.kind == "counter")
            .map(|r| r.value)
            .sum()
    }

    /// Render the span block as Chrome `trace_event` JSON (complete
    /// `"X"` events, microsecond timestamps) loadable in Perfetto or
    /// `about:tracing`. Zero-duration spans are widened to 1 µs so they
    /// stay visible.
    pub fn chrome_trace_json(&self) -> String {
        let events = self
            .wall
            .spans
            .iter()
            .map(|s| TraceEvent {
                name: s.name.clone(),
                cat: s.cat.clone(),
                ph: "X".to_string(),
                ts: s.start_us,
                dur: s.dur_us.max(1),
                pid: 1,
                tid: s.lane,
                args: TraceArgs {
                    depth: s.depth,
                    sim_ts: s.sim_ts,
                },
            })
            .collect();
        serde_json::to_string(&TraceFile {
            traceEvents: events,
            displayTimeUnit: "ms".to_string(),
        })
        .expect("trace serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    #[test]
    fn chrome_trace_has_complete_events() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span("chain_analysis", "stage");
        }
        let json = reg.snapshot().chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"chain_analysis\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
    }

    #[test]
    fn helpers_find_rows() {
        let reg = MetricsRegistry::new();
        reg.sink("a").counter_add("yt", "calls", 2);
        reg.sink("b").counter_add("yt", "calls", 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a", "yt", "calls"), Some(2));
        assert_eq!(snap.counter("a", "yt", "missing"), None);
        assert_eq!(snap.substrate_total("yt", "calls"), 5);
    }
}
