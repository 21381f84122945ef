//! Thread-count invariance: the parallel pipeline must be a pure
//! scheduling optimization. For one seed, a single-threaded run and
//! multi-threaded runs must produce byte-identical `PaperReport`,
//! metrics and health JSON — same stage outputs, same sharded
//! clustering, same tag resolution, same monitor results and call
//! counts, same per-stage timeline in declaration order.

use givetake::core::{FaultSource, PaperRun, Pipeline, PipelineOptions, SupervisionPolicy};
use givetake::store::{digest, digest_hex, RunStore};
use givetake::world::{World, WorldConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.03);
        config.seed = 0xDE7E_12F1;
        World::generate(config)
    })
}

fn run_with(options: PipelineOptions) -> PaperRun {
    Pipeline::new(world()).options(options).run()
}

/// The run's report, metric rows and health as JSON.
fn run_json(run: &PaperRun) -> (String, String, String) {
    (
        serde_json::to_string(&run.report).expect("report serializes"),
        serde_json::to_string(&run.telemetry.metrics).expect("metrics serialize"),
        serde_json::to_string(&run.health).expect("health serializes"),
    )
}

fn report_json(threads: usize) -> (String, String, String) {
    let run = run_with(PipelineOptions::default().threads(threads));
    assert_eq!(run.timings.threads, threads);
    run_json(&run)
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let (serial, serial_metrics, serial_health) = report_json(1);
    for threads in [2, 4, 8] {
        let (json, metrics, health) = report_json(threads);
        assert_eq!(
            json, serial,
            "{threads}-thread report diverged from the single-threaded run"
        );
        assert_eq!(
            metrics, serial_metrics,
            "{threads}-thread metrics diverged from the single-threaded run"
        );
        assert_eq!(
            health, serial_health,
            "{threads}-thread health diverged from the single-threaded run"
        );
    }
}

#[test]
fn faulted_report_is_byte_identical_across_thread_counts() {
    // Fault schedules and retry jitter are functions of (plan seed,
    // substrate, call site), never of scheduling — the chaos run must
    // be exactly as thread-invariant as the clean one.
    let profile = givetake::sim::faults::ChaosProfile::default();
    let faulted = |threads: usize| {
        let run = run_with(
            PipelineOptions::default()
                .threads(threads)
                .chaos(0xFA_017, &profile),
        );
        (run_json(&run), run.degradation)
    };
    let ((serial, serial_metrics, serial_health), serial_deg) = faulted(1);
    assert!(
        serial_deg.total.injected() > 0,
        "the plan actually injected faults"
    );
    assert_eq!(
        digest_hex(&digest(serial.as_bytes())),
        "5d4179be6a09ad187b6e7d4474fdb1db9f7859c91ed96ab1b0969631202d8c70",
        "faulted report JSON digest moved"
    );
    for threads in [2, 4] {
        let ((json, metrics, health), deg) = faulted(threads);
        assert_eq!(json, serial, "{threads}-thread faulted report diverged");
        assert_eq!(
            metrics, serial_metrics,
            "{threads}-thread faulted metrics diverged"
        );
        assert_eq!(
            health, serial_health,
            "{threads}-thread faulted health diverged"
        );
        assert_eq!(
            deg, serial_deg,
            "{threads}-thread degradation accounting diverged"
        );
    }
}

#[test]
fn the_main_monitor_starts_first() {
    // `main_monitor` heads the longest chain of the stage graph, so the
    // executor starts it before every other stage; on one worker the
    // order is deterministic.
    let run = run_with(PipelineOptions::default().threads(1));
    let first = run
        .telemetry
        .wall
        .spans
        .iter()
        .filter(|s| s.cat == "stage")
        .min_by_key(|s| s.start_us)
        .expect("stage spans");
    assert_eq!(first.name, "main_monitor");
}

#[test]
fn options_equivalents_match() {
    // Fluent `PipelineOptions` setters and direct field writes configure
    // the same run (`PipelineOptions` is `#[non_exhaustive]`, so neither
    // can be replaced by a struct literal outside `gt-core`).
    let profile = givetake::sim::faults::ChaosProfile::default();
    let policy = SupervisionPolicy::recover(2);
    let via_setters = run_with(
        PipelineOptions::default()
            .threads(2)
            .chaos(0xFA_017, &profile)
            .supervise(policy),
    );
    let mut fields = PipelineOptions::default();
    fields.threads = 2;
    fields.faults = Some(FaultSource::Chaos(0xFA_017, profile));
    fields.supervision = policy;
    let via_fields = run_with(fields);
    assert_eq!(run_json(&via_setters), run_json(&via_fields));
    assert_eq!(via_setters.degradation, via_fields.degradation);
    assert!(
        via_fields.degradation.enabled,
        "the chaos field took effect"
    );
    assert!(
        via_fields.health.supervised,
        "the supervision field took effect"
    );
}

/// The timings are a view of the run's telemetry: one entry per stage
/// name in the metrics block, in its (name) order, carrying that stage's
/// `executor/items` counter and the duration of its `"stage"` span.
fn assert_timings_derive_from_telemetry(run: &PaperRun, what: &str) {
    let t = &run.timings;
    let metric_stages: BTreeSet<&str> = run
        .telemetry
        .metrics
        .iter()
        .map(|r| r.stage.as_str())
        .collect();
    let timed: Vec<&str> = t.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(timed.len(), 25, "{what}: one entry per pipeline stage");
    assert_eq!(
        timed,
        metric_stages.into_iter().collect::<Vec<_>>(),
        "{what}: one entry per metrics-block stage, in its order"
    );
    assert_eq!(t.total_ms, run.telemetry.wall.total_ms, "{what}");
    for stage in &t.stages {
        let name = stage.name.as_str();
        assert_eq!(
            Some(stage.items),
            run.telemetry.counter(name, "executor", "items"),
            "{what}: items of {name}"
        );
        let spans: Vec<_> = run
            .telemetry
            .wall
            .spans
            .iter()
            .filter(|s| s.cat == "stage" && s.name == name)
            .collect();
        assert_eq!(spans.len(), 1, "{what}: one stage span for {name}");
        assert_eq!(
            stage.wall_ms,
            spans[0].dur_us as f64 / 1_000.0,
            "{what}: wall time of {name}"
        );
    }
}

#[test]
fn timings_cover_every_stage() {
    for threads in [1, 4] {
        let run = run_with(PipelineOptions::default().threads(threads));
        assert_eq!(run.timings.threads, threads);
        assert_timings_derive_from_telemetry(&run, &format!("{threads} threads"));
        let t = &run.timings;
        assert!(t.total_ms > 0.0);
        assert!(
            t.stage("chain_analysis").unwrap().items > 0,
            "clustering counted its transactions"
        );
    }

    // A fully warm run times the cache hits the same way.
    let dir = std::env::temp_dir().join(format!("gt-determinism-timings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(RunStore::open(&dir).expect("store opens"));
    let stored = || {
        PipelineOptions::default()
            .threads(2)
            .store(Some(store.clone()))
    };
    run_with(stored());
    let warm = run_with(stored());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(warm.telemetry.substrate_total("store", "cache_hit"), 25);
    assert_timings_derive_from_telemetry(&warm, "warm store");
}
