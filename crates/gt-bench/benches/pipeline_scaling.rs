//! Stage-executor scaling: the full pipeline at 1/2/4/8 worker
//! threads over the shared bench world.
//!
//! On a multi-core machine the independent roots (Twitter dataset,
//! pilot monitor, main monitor, sharded clustering) overlap, so the
//! 4-thread run should approach the critical-path wall time. On a
//! single core the thread counts tie — the run then only checks that
//! parallelism costs nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use gt_bench::bench_world;
use gt_core::{Pipeline, PipelineOptions};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let world = bench_world();

    // Print one run's per-stage breakdown so the scaling numbers can be
    // read against the critical path.
    {
        let run = Pipeline::new(world)
            .options(PipelineOptions::default().threads(4))
            .run();
        println!(
            "pipeline stages at 4 threads ({:.0} ms total):",
            run.timings.total_ms
        );
        let mut stages = run.timings.stages.clone();
        stages.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        for s in stages.iter().take(8) {
            println!(
                "  {:<22} {:>9.1} ms  ({} items)",
                s.name, s.wall_ms, s.items
            );
        }
    }

    for threads in [1usize, 2, 4, 8] {
        c.bench_function(&format!("pipeline_scaling/{threads}_threads"), |b| {
            b.iter(|| {
                black_box(
                    Pipeline::new(world)
                        .options(PipelineOptions::default().threads(threads))
                        .run(),
                )
            })
        });
    }
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
