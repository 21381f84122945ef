//! Nestable wall-clock spans.
//!
//! A [`SpanGuard`] opens on creation and records itself into the
//! registry when dropped, so nesting follows Rust scopes: the guard for
//! an inner span always closes before its enclosing guard ("every enter
//! has an exit" by construction). Each OS thread gets a stable *lane*
//! number (the `tid` in Chrome-trace terms) and a depth counter, both
//! thread-local, so spans on one lane are properly nested intervals.

use crate::metrics::SpanLog;
use crate::snapshot::SpanSnap;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide lane allocator: the first span on each thread claims
/// the next id.
static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn current_lane() -> u32 {
    LANE.with(|l| match l.get() {
        Some(id) => id,
        None => {
            let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            l.set(Some(id));
            id
        }
    })
}

/// A closed span, as stored in the registry.
#[derive(Debug, Clone)]
pub(crate) struct SpanRecord {
    pub name: String,
    pub cat: &'static str,
    pub lane: u32,
    pub depth: u32,
    /// Microseconds since the registry epoch.
    pub start_us: u64,
    pub dur_us: u64,
    /// Sim-clock second the work models, when the caller knows it.
    pub sim_ts: Option<i64>,
}

impl SpanRecord {
    pub(crate) fn snap(&self) -> SpanSnap {
        SpanSnap {
            name: self.name.clone(),
            cat: self.cat.to_string(),
            lane: self.lane,
            depth: self.depth,
            start_us: self.start_us,
            dur_us: self.dur_us,
            sim_ts: self.sim_ts,
        }
    }
}

/// An open span; records itself on drop. Obtained from
/// [`MetricsRegistry::span`](crate::MetricsRegistry::span) or
/// [`StageSink::span`](crate::StageSink::span). Deliberately `!Send`:
/// the lane/depth bookkeeping is thread-local.
pub struct SpanGuard {
    log: Option<Arc<SpanLog>>,
    name: String,
    cat: &'static str,
    lane: u32,
    depth: u32,
    started: Instant,
    sim_ts: Option<i64>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    pub(crate) fn open(
        log: Option<Arc<SpanLog>>,
        name: &str,
        cat: &'static str,
        sim_ts: Option<i64>,
    ) -> SpanGuard {
        let (lane, depth) = if log.is_some() {
            let depth = DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth
            });
            (current_lane(), depth)
        } else {
            (0, 0)
        };
        SpanGuard {
            log,
            name: name.to_string(),
            cat,
            lane,
            depth,
            started: Instant::now(),
            sim_ts,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(log) = self.log.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let start_us = self
            .started
            .saturating_duration_since(log.epoch)
            .as_micros() as u64;
        let dur_us = self.started.elapsed().as_micros() as u64;
        log.records.lock().push(SpanRecord {
            name: std::mem::take(&mut self.name),
            cat: self.cat,
            lane: self.lane,
            depth: self.depth,
            start_us,
            dur_us,
            sim_ts: self.sim_ts,
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;

    #[test]
    fn spans_nest_by_scope() {
        let reg = MetricsRegistry::new();
        {
            let _outer = reg.span("outer", "stage");
            let _inner = reg.span("inner", "substrate");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.wall.spans.len(), 2);
        let outer = snap.wall.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.wall.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.lane, inner.lane);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us);
    }

    #[test]
    fn noop_sink_spans_record_nothing() {
        let reg = MetricsRegistry::new();
        {
            let _ghost = crate::StageSink::noop().span("ghost");
            let _real = reg.span("real", "stage");
        }
        let spans = reg.snapshot().wall.spans;
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].depth, 0, "a noop span opens no nesting level");
    }
}
