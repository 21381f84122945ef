//! In-memory spans around the benchmark's own calls into each layer,
//! written out as a Chrome `trace_event` file when the run ends.

use givetake::obs::SpanSnap;
use serde_json::{json, Value};
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer's epoch.
struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    depth: u32,
}

/// Records nested spans when enabled; a disabled tracer only runs the
/// wrapped work, so traced and untraced runs execute the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    depth: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            depth: 0,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `work` inside a span called `name`. Spans opened by `work`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return work(self);
        }
        let start_us = self.now_us();
        self.depth += 1;
        let out = work(self);
        self.depth -= 1;
        let dur_us = self.now_us() - start_us;
        self.spans.push(Span {
            name,
            start_us,
            dur_us,
            depth: self.depth,
        });
        out
    }

    /// Start of the most recent span called `name`, if any.
    pub fn start_of(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.start_us)
    }

    /// Chrome trace JSON: the benchmark's spans as process 1, and the
    /// program's own stage spans (from its telemetry) as process 2,
    /// shifted so they start at `program_epoch_us` on this tracer's clock.
    pub fn chrome_json(&self, program: &[SpanSnap], program_epoch_us: f64) -> String {
        let mut events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "cat": "givebench",
                    "ph": "X",
                    "ts": s.start_us,
                    "dur": s.dur_us,
                    "pid": 1u32,
                    "tid": 1u32,
                    "args": json!({ "depth": s.depth })
                })
            })
            .collect();
        events.extend(program.iter().map(|s| {
            json!({
                "name": s.name,
                "cat": s.cat,
                "ph": "X",
                "ts": program_epoch_us + s.start_us as f64,
                "dur": s.dur_us as f64,
                "pid": 2u32,
                "tid": s.lane,
                "args": json!({ "depth": s.depth })
            })
        }));
        let names = [(1u32, "givebench"), (2, "givetake telemetry")].map(|(pid, name)| {
            json!({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0u32,
                "args": json!({ "name": name })
            })
        });
        events.extend(names);
        serde_json::to_string(&json!({
            "traceEvents": events,
            "displayTimeUnit": "ms"
        }))
        .expect("trace serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let mut t = Tracer::new(true);
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let [inner, outer] = &t.spans[..] else {
            panic!("expected two spans, got {}", t.spans.len());
        };
        assert_eq!((inner.name, inner.depth), ("inner", 1));
        assert_eq!((outer.name, outer.depth), ("outer", 0));
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
        assert_eq!(t.start_of("outer"), Some(outer.start_us));
    }

    #[test]
    fn disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(t.spans.is_empty());
        assert_eq!(t.start_of("outer"), None);
    }

    #[test]
    fn chrome_json_holds_both_processes() {
        let mut t = Tracer::new(true);
        t.span("pipeline.run", |_| ());
        let program = [SpanSnap {
            name: "main_monitor".into(),
            cat: "stage".into(),
            lane: 0,
            depth: 0,
            start_us: 5,
            dur_us: 10,
            sim_ts: None,
        }];
        let json = t.chrome_json(&program, 100.0);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"pipeline.run\",\"cat\":\"givebench\""));
        assert!(
            json.contains("\"name\":\"main_monitor\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":105.0")
        );
        assert!(json.contains("\"name\":\"givetake telemetry\""));
    }
}
