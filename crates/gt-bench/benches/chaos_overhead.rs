//! Fault-layer overhead: the clean path must not pay for chaos it
//! doesn't use.
//!
//! Three configurations over the shared bench world:
//!
//! * `clean` — `fault_plan: None`, the pre-fault-layer fast path
//!   (gates have no plan: no RNG, no schedule lookups);
//! * `quiet_plan` — a plan with zero windows attached, which exercises
//!   the schedule-lookup machinery but injects nothing (the expected
//!   overhead is a no-window BTreeMap miss per gated call, ~zero);
//! * `chaotic` — the default chaos profile, as an upper bound showing
//!   what retries/backoff accounting cost when faults actually fire.

use criterion::{criterion_group, criterion_main, Criterion};
use gt_bench::bench_world;
use gt_core::{Pipeline, PipelineOptions};
use gt_sim::faults::{ChaosProfile, FaultPlan};
use std::hint::black_box;

fn bench_chaos_overhead(c: &mut Criterion) {
    let world = bench_world();

    c.bench_function("chaos_overhead/clean", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(world)
                    .options(PipelineOptions::default().threads(2))
                    .run(),
            )
        })
    });

    c.bench_function("chaos_overhead/quiet_plan", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(world)
                    .options(
                        PipelineOptions::default()
                            .threads(2)
                            .fault_plan(Some(FaultPlan::quiet(1))),
                    )
                    .run(),
            )
        })
    });

    c.bench_function("chaos_overhead/chaotic", |b| {
        b.iter(|| {
            black_box(
                Pipeline::new(world)
                    .options(
                        PipelineOptions::default()
                            .threads(2)
                            .chaos(1, &ChaosProfile::default()),
                    )
                    .run(),
            )
        })
    });
}

criterion_group!(benches, bench_chaos_overhead);
criterion_main!(benches);
