//! Checkpoint/resume pins: the stage-result store must never change
//! what the pipeline computes — only whether it recomputes. The
//! `PaperReport` JSON, the metrics block (minus the store's own rows)
//! and the degradation accounting must be byte-identical across {no
//! store, cold store, warm store, resumed-after-kill}, clean or under a
//! fault plan, and across thread counts sharing one store directory; a
//! killed run must resume from its completed stages instead of starting
//! over.

use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::sim::faults::ChaosProfile;
use givetake::store::RunStore;
use givetake::world::{World, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const STAGES: u64 = 25;

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.03);
        config.seed = 0x5709_CAFE;
        World::generate(config)
    })
}

fn run_with(options: PipelineOptions) -> PaperRun {
    Pipeline::new(world()).options(options).run()
}

/// What a run recorded: its report, its metrics block without the
/// store's own rows, and its degradation accounting, as JSON.
#[derive(Debug, PartialEq)]
struct Record {
    report: String,
    metrics: String,
    degradation: String,
}

fn record(run: &PaperRun) -> Record {
    let metrics: Vec<_> = run
        .telemetry
        .metrics
        .iter()
        .filter(|m| m.substrate != "store")
        .collect();
    Record {
        report: json(run),
        metrics: serde_json::to_string(&metrics).expect("metrics serialize"),
        degradation: serde_json::to_string(&run.degradation).expect("degradation serializes"),
    }
}

/// The storeless single-threaded run's record.
fn baseline() -> &'static Record {
    static R: OnceLock<Record> = OnceLock::new();
    R.get_or_init(|| record(&run_with(PipelineOptions::default().threads(1))))
}

fn json(run: &PaperRun) -> String {
    serde_json::to_string(&run.report).expect("report serializes")
}

/// Sum of one store counter across all stages.
fn store_metric(run: &PaperRun, metric: &str) -> u64 {
    run.telemetry
        .metrics
        .iter()
        .filter(|m| m.substrate == "store" && m.metric == metric)
        .map(|m| m.value)
        .sum()
}

/// A fresh scratch directory (removed on drop) for one test's store.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gt-store-it-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn open(&self) -> Arc<RunStore> {
        Arc::new(RunStore::open(&self.0).expect("store opens"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn cold_and_warm_runs_match_the_storeless_report() {
    let scratch = Scratch::new("cold-warm");
    let store = scratch.open();

    let cold = run_with(
        PipelineOptions::default()
            .threads(1)
            .store(Some(store.clone())),
    );
    assert_eq!(&record(&cold), baseline(), "cold-store run diverged");
    assert_eq!(store_metric(&cold, "cache_hit"), 0);
    assert_eq!(store_metric(&cold, "cache_miss"), STAGES);

    let warm = run_with(PipelineOptions::default().threads(1).store(Some(store)));
    assert_eq!(
        &record(&warm),
        baseline(),
        "a warm run must record what the cold run saw"
    );
    assert_eq!(
        store_metric(&warm, "cache_hit"),
        STAGES,
        "a warm identical run must hit on every stage"
    );
    assert_eq!(store_metric(&warm, "cache_miss"), 0);
}

#[test]
fn thread_counts_share_one_store_directory() {
    // Keys are a pure function of sim state, so a 1-thread run's
    // entries serve 2- and 4-thread runs (and vice versa) — the
    // interchangeability that makes the store safe under `--threads`.
    let scratch = Scratch::new("threads");
    let store = scratch.open();

    for (i, threads) in [1usize, 2, 4].into_iter().enumerate() {
        let run = run_with(
            PipelineOptions::default()
                .threads(threads)
                .store(Some(store.clone())),
        );
        assert_eq!(
            &record(&run),
            baseline(),
            "{threads}-thread stored run diverged"
        );
        let expected_hits = if i == 0 { 0 } else { STAGES };
        assert_eq!(
            store_metric(&run, "cache_hit"),
            expected_hits,
            "{threads}-thread run should {} the shared entries",
            if i == 0 { "populate" } else { "reuse" }
        );
    }
}

#[test]
fn killed_run_resumes_from_completed_stages() {
    let scratch = Scratch::new("kill-resume");

    // Let 6 stage writes complete, then die mid-write — the store
    // panics like a `kill -9` would leave the process: some entries
    // durable, one torn temp file, nothing else.
    let store = scratch.open();
    store.fail_writes_after(6);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_with(
            PipelineOptions::default()
                .threads(1)
                .store(Some(store.clone())),
        )
    }));
    assert!(crashed.is_err(), "the simulated crash must abort the run");
    drop(store);

    // A new process: reopen the same directory and rerun. Only the
    // unfinished stages may execute.
    let store = scratch.open();
    let resumed = run_with(PipelineOptions::default().threads(2).store(Some(store)));
    assert_eq!(
        &record(&resumed),
        baseline(),
        "resumed run diverged from an uninterrupted one"
    );
    assert_eq!(
        store_metric(&resumed, "cache_hit"),
        6,
        "every entry the crashed run completed must be reused"
    );
    assert_eq!(store_metric(&resumed, "cache_miss"), STAGES - 6);
}

#[test]
fn multi_thread_crash_also_resumes() {
    // The simulated-crash panic fires inside a pool worker; it must
    // poison the run (not deadlock) and still leave a resumable store.
    let scratch = Scratch::new("kill-resume-mt");
    let store = scratch.open();
    store.fail_writes_after(4);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_with(
            PipelineOptions::default()
                .threads(4)
                .store(Some(store.clone())),
        )
    }));
    assert!(crashed.is_err());
    drop(store);

    let store = scratch.open();
    let resumed = run_with(PipelineOptions::default().threads(4).store(Some(store)));
    assert_eq!(&record(&resumed), baseline());
    assert_eq!(store_metric(&resumed, "cache_hit"), 4);
}

#[test]
fn chaotic_runs_record_the_same_faults_cold_warm_and_resumed() {
    let chaos = || PipelineOptions::default().chaos(0x5709, &ChaosProfile::default());
    let storeless = run_with(chaos().threads(1));
    assert!(
        storeless.degradation.total.injected() > 0,
        "the plan must inject faults for this test to mean anything"
    );
    let storeless = record(&storeless);

    let scratch = Scratch::new("chaos");
    let store = scratch.open();
    let cold = run_with(chaos().threads(1).store(Some(store.clone())));
    assert_eq!(record(&cold), storeless, "chaotic cold run diverged");
    let warm = run_with(chaos().threads(4).store(Some(store)));
    assert_eq!(store_metric(&warm, "cache_hit"), STAGES);
    assert_eq!(record(&warm), storeless, "chaotic warm run diverged");

    let scratch = Scratch::new("chaos-kill");
    let store = scratch.open();
    store.fail_writes_after(5);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        run_with(chaos().threads(4).store(Some(store.clone())))
    }));
    assert!(crashed.is_err());
    drop(store);
    let resumed = run_with(chaos().threads(1).store(Some(scratch.open())));
    assert_eq!(store_metric(&resumed, "cache_hit"), 5);
    assert_eq!(record(&resumed), storeless, "chaotic resumed run diverged");
}

#[test]
fn deleted_record_recomputes_one_stage_and_dependents_stay_warm() {
    let scratch = Scratch::new("deleted-record");
    let store = scratch.open();
    let cold = run_with(
        PipelineOptions::default()
            .threads(2)
            .store(Some(store.clone())),
    );
    assert_eq!(store_metric(&cold, "cache_miss"), STAGES);

    // Remove the one `youtube_dataset` record from the stage directory.
    let mut deleted = 0;
    for group in std::fs::read_dir(scratch.0.join("stages")).expect("stage groups") {
        for entry in std::fs::read_dir(group.expect("group").path()).expect("stage records") {
            let path = entry.expect("record").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("youtube_dataset-") {
                std::fs::remove_file(&path).expect("record removed");
                deleted += 1;
            }
        }
    }
    assert_eq!(deleted, 1);

    // The recomputed dataset has the digest the deleted record had, so
    // its dependents' keys are unchanged and they all replay.
    let warm = run_with(PipelineOptions::default().threads(2).store(Some(store)));
    assert_eq!(store_metric(&warm, "cache_miss"), 1);
    assert_eq!(store_metric(&warm, "cache_hit"), STAGES - 1);
    assert_eq!(
        warm.telemetry
            .metrics
            .iter()
            .find(|m| m.substrate == "store" && m.metric == "cache_miss")
            .map(|m| m.stage.as_str()),
        Some("youtube_dataset")
    );
    assert_eq!(record(&warm), record(&cold));
    assert_eq!(&record(&warm), baseline());
}

#[test]
fn store_off_on_and_evict_leave_no_trace_in_the_report() {
    // Interleave storeless and stored runs and an evict; the report
    // never wavers and eviction keeps the active run servable.
    let scratch = Scratch::new("evict");
    let store = scratch.open();
    let options = givetake::core::PipelineOptions::default().threads(2);
    let base = options.base_fingerprint(&world().config);
    let world_fpr = World::fingerprint(&world().config);

    let cold = run_with(
        PipelineOptions::default()
            .threads(2)
            .store(Some(store.clone())),
    );
    assert_eq!(&record(&cold), baseline());
    assert_eq!(store.stage_entry_count(&base), STAGES as usize);

    let stats = store.evict(&base, &world_fpr).expect("evict succeeds");
    assert_eq!(stats.stage_groups, 0, "the active run's group survives");
    assert_eq!(store.stage_entry_count(&base), STAGES as usize);

    let warm = run_with(PipelineOptions::default().threads(2).store(Some(store)));
    assert_eq!(&record(&warm), baseline());
    assert_eq!(store_metric(&warm, "cache_hit"), STAGES);
}
