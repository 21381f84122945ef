//! Thread-count invariance: the parallel pipeline must be a pure
//! scheduling optimization. For one seed, a single-threaded run and
//! multi-threaded runs must produce byte-identical `PaperReport` and
//! metrics JSON — same stage outputs, same sharded clustering, same tag
//! resolution, same monitor results and call counts.

use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::world::{World, WorldConfig};
use std::sync::OnceLock;

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

/// The run's report and metric rows as JSON.
fn run_json(run: &PaperRun) -> (String, String) {
    (
        serde_json::to_string(&run.report).expect("report serializes"),
        serde_json::to_string(&run.telemetry.metrics).expect("metrics serialize"),
    )
}

fn report_json(threads: usize) -> (String, String) {
    let run = run_with(PipelineOptions::default().threads(threads));
    assert_eq!(run.timings.threads, threads);
    run_json(&run)
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let (serial, serial_metrics) = report_json(1);
    for threads in [2, 4, 8] {
        let (json, metrics) = report_json(threads);
        assert_eq!(
            json, serial,
            "{threads}-thread report diverged from the single-threaded run"
        );
        assert_eq!(
            metrics, serial_metrics,
            "{threads}-thread metrics diverged from the single-threaded run"
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
    let ((serial, serial_metrics), serial_deg) = faulted(1);
    assert!(
        serial_deg.total.injected() > 0,
        "the plan actually injected faults"
    );
    for threads in [2, 4] {
        let ((json, metrics), deg) = faulted(threads);
        assert_eq!(json, serial, "{threads}-thread faulted report diverged");
        assert_eq!(
            metrics, serial_metrics,
            "{threads}-thread faulted metrics diverged"
        );
        assert_eq!(
            deg, serial_deg,
            "{threads}-thread degradation accounting diverged"
        );
    }
}

#[test]
fn options_equivalents_match() {
    // Fluent `PipelineOptions` setters and direct field writes configure
    // the same run (`PipelineOptions` is `#[non_exhaustive]`, so neither
    // can be replaced by a struct literal outside `gt-core`).
    let via_setters = run_with(PipelineOptions::default().threads(2).telemetry(false));
    let mut fields = PipelineOptions::default();
    fields.threads = 2;
    fields.telemetry = false;
    let via_fields = run_with(fields);
    assert_eq!(via_setters.report, via_fields.report);
    assert!(!via_fields.telemetry.enabled);
    assert!(via_fields.telemetry.wall.spans.is_empty());
}

#[test]
fn timings_cover_every_stage() {
    let run = run_with(PipelineOptions::default().threads(2));
    let t = &run.timings;
    assert!(t.total_ms > 0.0);
    for name in [
        "twitter_dataset",
        "pilot_monitor",
        "main_monitor",
        "chain_analysis",
        "youtube_dataset",
        "twitter_payments",
        "youtube_payments",
        "interventions",
    ] {
        let stage = t
            .stage(name)
            .unwrap_or_else(|| panic!("stage {name} timed"));
        assert!(stage.wall_ms >= 0.0);
    }
    assert!(
        t.stage("chain_analysis").unwrap().items > 0,
        "clustering counted its transactions"
    );
}
