//! Telemetry-layer overhead: metrics collection must be cheap enough
//! to leave on for every run (the acceptance bar is <5%, enforced by
//! the `telemetry_overhead_guard` integration test; this bench gives
//! the detailed criterion numbers).
//!
//! Two configurations over the shared bench world:
//!
//! * `off` — `telemetry(false)`, the registry is a no-op and gated
//!   calls record no metrics;
//! * `on` — the default: every stage span, executor item counter, and
//!   substrate call sheet is recorded and flushed.

use criterion::{criterion_group, criterion_main, Criterion};
use gt_bench::bench_world;
use gt_core::{Pipeline, PipelineOptions};
use std::hint::black_box;

fn bench_telemetry_overhead(c: &mut Criterion) {
    let world = bench_world();

    c.bench_function("telemetry_overhead/off", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(world)
                    .options(PipelineOptions::default().threads(2).telemetry(false))
                    .run(),
            )
        })
    });

    c.bench_function("telemetry_overhead/on", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(world)
                    .options(PipelineOptions::default().threads(2).telemetry(true))
                    .run(),
            )
        })
    });
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
