//! Guard: span recording must stay within 5% of a run without spans.
//!
//! Metrics are always collected, so both sides of the comparison pay
//! for them; `PipelineOptions::telemetry` only switches the wall-clock
//! spans, and that is all this guard prices. Runs are interleaved and
//! compared min-vs-min so scheduler noise cancels; a small absolute
//! slack keeps the guard robust on loaded machines without masking a
//! real regression (at this scale a 5% regression is an order of
//! magnitude above the slack).

use gt_core::{Pipeline, PipelineOptions};
use gt_world::{World, WorldConfig};
use std::time::{Duration, Instant};

const ROUNDS: usize = 4;
const RELATIVE_BUDGET: f64 = 1.05;
const ABSOLUTE_SLACK: Duration = Duration::from_millis(60);

fn timed_run(world: &World, telemetry: bool) -> Duration {
    let started = Instant::now();
    let run = Pipeline::new(world)
        .options(PipelineOptions::default().threads(2).telemetry(telemetry))
        .run();
    assert_eq!(run.telemetry.enabled, telemetry);
    std::hint::black_box(&run.report);
    started.elapsed()
}

#[test]
fn telemetry_overhead_stays_under_budget() {
    // A dedicated small world: the guard wants wall-clock stability,
    // not the bigger shared bench fixture.
    let mut config = WorldConfig::scaled(0.02);
    config.seed = 0x0B5E_17ED;
    let world = World::generate(config);

    // Warm-up pair (page cache, lazy statics), then interleaved rounds.
    timed_run(&world, false);
    timed_run(&world, true);
    let mut off = Duration::MAX;
    let mut on = Duration::MAX;
    for _ in 0..ROUNDS {
        off = off.min(timed_run(&world, false));
        on = on.min(timed_run(&world, true));
    }

    let budget = off.mul_f64(RELATIVE_BUDGET) + ABSOLUTE_SLACK;
    assert!(
        on <= budget,
        "telemetry overhead too high: on={on:?} off={off:?} budget={budget:?}"
    );
}
