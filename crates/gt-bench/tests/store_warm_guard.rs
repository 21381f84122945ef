//! Guard: a fully-warm `--store` run must be at least 5× faster than
//! the cold run that populated it.
//!
//! The warm path replaces every stage body with decode + integrity
//! check of its stored output; if it ever drifts to within 5× of a
//! full recompute, either the codec got slow or stages stopped
//! hitting. The miss/hit counters are asserted too, so a silent
//! cache-key regression fails loudly here instead of showing up as a
//! mysterious timing miss.

use gt_core::{Pipeline, PipelineOptions};
use gt_store::RunStore;
use gt_world::{World, WorldConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUNDS: usize = 4;
const MIN_SPEEDUP: f64 = 5.0;

fn store_metric(run: &gt_core::PaperRun, metric: &str) -> u64 {
    run.telemetry
        .metrics
        .iter()
        .filter(|m| m.substrate == "store" && m.metric == metric)
        .map(|m| m.value)
        .sum()
}

#[test]
fn warm_store_run_is_5x_faster_than_cold() {
    // Big enough that stage compute dominates fixed costs; the cold
    // run at this scale is ~1 s release / a few s debug.
    let mut config = WorldConfig::scaled(0.1);
    config.seed = 0x0057_A6E5;
    let world = World::generate(config);

    let dir = std::env::temp_dir().join(format!("gt-store-warm-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(RunStore::open(&dir).expect("store opens"));

    let cold_started = Instant::now();
    let cold = Pipeline::new(&world)
        .options(
            PipelineOptions::default()
                .threads(2)
                .store(Some(store.clone())),
        )
        .run();
    let cold_time = cold_started.elapsed();
    assert_eq!(store_metric(&cold, "cache_hit"), 0, "cold run hit?");
    assert!(store_metric(&cold, "cache_miss") > 0);

    // Warm-up pass (page cache), then best-of-N to cancel scheduler
    // noise; the guard compares best-warm against the single cold run,
    // which is the conservative direction.
    let mut warm_time = Duration::MAX;
    for _ in 0..=ROUNDS {
        let started = Instant::now();
        let warm = Pipeline::new(&world)
            .options(
                PipelineOptions::default()
                    .threads(2)
                    .store(Some(store.clone())),
            )
            .run();
        warm_time = warm_time.min(started.elapsed());
        assert_eq!(
            store_metric(&warm, "cache_miss"),
            0,
            "a warm identical run must not recompute any stage"
        );
        assert_eq!(
            serde_json::to_string(&warm.report).unwrap(),
            serde_json::to_string(&cold.report).unwrap(),
            "warm report diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= MIN_SPEEDUP,
        "warm store run too slow: cold={cold_time:?} warm={warm_time:?} speedup={speedup:.1}x (need {MIN_SPEEDUP}x)"
    );
}
