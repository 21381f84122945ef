//! Deterministic observability for the givetake pipeline.
//!
//! The pipeline is a measurement instrument; this crate instruments the
//! instrument. It provides three pieces:
//!
//! - a [`MetricsRegistry`] whose [`StageSink`]s each record counters
//!   and fixed-bucket [`Histogram`]s keyed `(substrate,
//!   metric)` into a [`MetricSheet`] of their own — one stage's record
//!   of what it observed, which the stage executor caches with the
//!   stage's output and replays on a cache hit;
//! - a span API ([`MetricsRegistry::span`], [`StageSink::span`]) that
//!   records nestable wall-clock intervals, optionally annotated with a
//!   sim-clock timestamp, suitable for Chrome `trace_event` export;
//! - a serializable [`TelemetrySnapshot`] that splits the two worlds:
//!   the `metrics` block (every sheet, folded per stage) is derived
//!   purely from sim state and must be byte-identical across thread
//!   counts and cold or warm runs, while the `wall` block holds
//!   wall-clock spans and is explicitly excluded from determinism
//!   checks.
//!
//! # Determinism contract
//!
//! Every metric *value* (counter increments, histogram observations) must be computed from simulation state only: item
//! counts, sim-time backoff waits, fault-gate accounting. Wall-clock
//! readings never feed a metric — they live exclusively in span records
//! inside [`WallBlock`]. `tests/telemetry.rs` pins the metrics block
//! byte-identical across 1/2/4 worker threads, and `tests/store.rs`
//! across cold, warm and resumed runs.
//!
//! # Layering
//!
//! `gt-obs` is a leaf crate (no dependency on `gt-sim` or any other
//! workspace crate) so the fault layer in `gt-sim::faults` can report
//! into the registry without a cycle. Sim timestamps therefore cross
//! this API as raw `i64` seconds.
//!
//! A registry always records both metrics and spans. [`StageSink::noop`]
//! records nothing, so substrate code can call sinks unconditionally.

mod metrics;
mod snapshot;
mod span;

pub use metrics::{Histogram, MetricSheet, MetricsRegistry, StageSink, BACKOFF_BUCKET_EDGES};
pub use snapshot::{MetricRow, SpanSnap, TelemetrySnapshot, WallBlock};
pub use span::SpanGuard;
