//! Supervision suite: a recovering [`SupervisionPolicy`] must keep runs
//! alive — retrying flaky stages, quarantining dead ones behind their
//! fallbacks, tainting every transitive dependent, and naming
//! the degraded report tables — while changing *nothing* about healthy
//! runs: under a quiet fault plan a supervised pipeline is byte-identical
//! to an unsupervised one at any thread count.

use givetake::core::{
    PaperRun, Pipeline, PipelineOptions, StageGraph, StageStatus, SupervisionPolicy,
};
use givetake::obs::MetricsRegistry;
use givetake::sim::faults::{FaultKind, FaultPlan, FaultWindow, Substrate};
use givetake::store::{digest, RunStore};
use givetake::world::{World, WorldConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.02);
        config.seed = 0x5AFE_5EED;
        World::generate(config)
    })
}

fn run_with(options: PipelineOptions) -> PaperRun {
    Pipeline::new(world()).options(options).run()
}

/// A fresh scratch directory (removed on drop) for one test's store.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gt-sup-it-{}-{name}", std::process::id()));
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
fn flaky_stage_recovers_and_the_timeline_records_it() {
    let fails = AtomicU32::new(0);
    let mut g = StageGraph::new();
    g.supervise(SupervisionPolicy::recover(3));
    let a = g.add_stage("a", &[], |_| (5u64, 0));
    let b = g.add_stage("b", &[a.index()], |r| {
        if fails.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("flaky substrate");
        }
        (r.get(a) + 1, 0)
    });
    let mut out = g.run(4, &MetricsRegistry::new());
    assert_eq!(out.take(b), 6, "the third attempt's real output is served");
    let h = &out.health;
    assert!(h.supervised);
    assert_eq!(h.attempts, 4, "two stages plus two extra attempts");
    assert_eq!(h.retries, 2);
    assert!(h.quarantined.is_empty());
    assert!(h.tainted.is_empty());
    assert_eq!(h.stages[b.index()].status, StageStatus::Recovered);
    assert_eq!(h.stages[b.index()].attempts, 3);
    assert!(h.stages[b.index()]
        .error
        .as_deref()
        .is_some_and(|e| e.contains("flaky substrate")));
}

#[test]
fn quarantined_diamond_stage_degrades_dependents_not_the_run() {
    // a ─▶ {b (always panics), c} ─▶ d: the diamond must complete with
    // b's fallback, and d — which consumed it — must be tainted.
    let mut g = StageGraph::new();
    g.supervise(SupervisionPolicy::recover(2));
    let a = g.add_stage("a", &[], |_| (100u64, 0));
    let b = g.add_stage::<u64, _>("b", &[a.index()], |_| panic!("b is dead"));
    g.fallback(b, |r| r.get(a) + 7);
    let c = g.add_stage("c", &[a.index()], |r| (r.get(a) + 1, 0));
    let d = g.add_stage("d", &[b.index(), c.index()], |r| (r.get(b) + r.get(c), 0));
    let mut out = g.run(2, &MetricsRegistry::new());
    assert_eq!(out.take(d), 107 + 101, "d ran over the fallback value");
    let h = &out.health;
    assert_eq!(h.quarantined, vec!["b"]);
    assert_eq!(h.tainted, vec!["d"], "c never read b and stays clean");
    assert_eq!(h.stages[b.index()].status, StageStatus::Quarantined);
    assert_eq!(h.stages[b.index()].attempts, 2);
    assert!(h.stages[d.index()].tainted);
    assert!(!h.stages[c.index()].tainted);

    // The same graph in strict mode keeps the poison semantics.
    let mut g = StageGraph::new();
    let a = g.add_stage("a", &[], |_| (100u64, 0));
    let b = g.add_stage::<u64, _>("b", &[a.index()], |_| panic!("b is dead"));
    g.fallback(b, |r| r.get(a) + 7);
    assert!(
        catch_unwind(AssertUnwindSafe(|| g.run(2, &MetricsRegistry::new()))).is_err(),
        "strict mode must re-raise the panic, fallback or not"
    );
}

#[test]
fn quarantining_the_first_of_25_stages_taints_the_whole_chain() {
    // Worst-case fan-out: the root of a 25-stage chain dies, every
    // other stage is a transitive dependent.
    let mut g = StageGraph::new();
    g.supervise(SupervisionPolicy::recover(2));
    let root = g.add_stage::<u64, _>("s00", &[], |_| panic!("dead root"));
    let mut prev = root;
    for i in 1..25 {
        let dep = prev;
        prev = g.add_stage(&format!("s{i:02}"), &[dep.index()], move |r| {
            (r.get(dep) + 1, 0)
        });
    }
    let mut out = g.run(4, &MetricsRegistry::new());
    assert_eq!(out.take(prev), 24, "the chain ran over the fallback root");
    let h = &out.health;
    assert_eq!(h.quarantined, vec!["s00"]);
    assert_eq!(h.tainted.len(), 24, "every dependent is tainted");
    assert!(h.stages.iter().skip(1).all(|s| s.tainted));
    assert_eq!(h.attempts, 2 + 24, "root retried once, the rest ran once");
}

#[test]
fn persist_crash_quarantines_and_a_fresh_run_resumes_from_survivors() {
    let scratch = Scratch::new("persist-crash");
    let a_runs = AtomicU32::new(0);
    let b_runs = AtomicU32::new(0);

    // Run 1: the first stage write lands, every later write panics
    // mid-persist (the `kill -9` simulation). Supervision retries b —
    // re-probing the store first — and quarantines it when the persist
    // dies again; c's own persist dies the same way.
    {
        let store = scratch.open();
        store.fail_writes_after(1);
        let mut g = StageGraph::new();
        g.bind_store(store, digest(b"supervision-persist"));
        g.supervise(SupervisionPolicy::recover(2));
        let a = g.add_stage("a", &[], |_| {
            a_runs.fetch_add(1, Ordering::SeqCst);
            (7u64, 0)
        });
        let b = g.add_stage("b", &[a.index()], |r| {
            b_runs.fetch_add(1, Ordering::SeqCst);
            (r.get(a) * 10, 0)
        });
        let c = g.add_stage("c", &[b.index()], |r| (r.get(b) + 1, 0));
        g.fallback(c, |r| r.get(b) + 1);
        let mut out = g.run(1, &MetricsRegistry::new());
        assert_eq!(out.take(c), 1, "c consumed b's fallback, not 70");
        let h = &out.health;
        assert_eq!(h.quarantined, vec!["b", "c"]);
        assert_eq!(h.stages[b.index()].attempts, 2);
        assert_eq!(
            b_runs.load(Ordering::SeqCst),
            2,
            "the retry re-probed the store, missed, and recomputed"
        );
    }

    // Run 2: a new process reopens the directory. Stage a replays from
    // its persisted entry; b recomputes cleanly (its quarantined
    // fallback was never stored under b's own key).
    let store = scratch.open();
    let mut g = StageGraph::new();
    g.bind_store(store, digest(b"supervision-persist"));
    let a = g.add_stage("a", &[], |_| {
        a_runs.fetch_add(1, Ordering::SeqCst);
        (7u64, 0)
    });
    let b = g.add_stage("b", &[a.index()], |r| {
        b_runs.fetch_add(1, Ordering::SeqCst);
        (r.get(a) * 10, 0)
    });
    let c = g.add_stage("c", &[b.index()], |r| (r.get(b) + 1, 0));
    let mut out = g.run(1, &MetricsRegistry::new());
    assert_eq!(out.take(c), 71, "the resumed run serves the real value");
    assert!(out.health.is_clean());
    assert_eq!(
        a_runs.load(Ordering::SeqCst),
        1,
        "a came from the store — its body never ran again"
    );
    assert_eq!(b_runs.load(Ordering::SeqCst), 3);
}

/// A fault plan that crashes every YouTube live-search call in the main
/// monitoring window — deterministic in sim time, so both supervised
/// attempts of `main_monitor` hit it.
fn search_panic_plan() -> FaultPlan {
    let config = &world().config;
    let mut schedules = BTreeMap::new();
    schedules.insert(
        Substrate::YoutubeSearch,
        vec![FaultWindow {
            start: config.youtube_start,
            end: config.youtube_end,
            kind: FaultKind::StagePanic,
        }],
    );
    FaultPlan {
        seed: 0xFA11,
        schedules,
    }
}

#[test]
fn injected_stage_panic_quarantines_the_monitor_and_names_the_damage() {
    let run = run_with(
        PipelineOptions::default()
            .threads(2)
            .fault_plan(Some(search_panic_plan()))
            .supervise(SupervisionPolicy::recover(2)),
    );

    let h = &run.health;
    assert!(h.supervised);
    assert!(
        h.quarantined.contains(&"main_monitor".to_string()),
        "quarantined: {:?}",
        h.quarantined
    );
    assert!(
        h.tainted.contains(&"youtube_dataset".to_string()),
        "the YouTube dataset is built from the quarantined monitor"
    );
    // Everything downstream of the monitor, plus the Twitter tables fed
    // through the shared known-scam address set; never Table 1's
    // Twitter column or the tables fed only by the pilot windows.
    assert_eq!(
        h.degraded_tables,
        [
            "cashout_categories",
            "coin_rates.youtube",
            "conversions.twitter",
            "conversions.youtube",
            "discoverability.youtube",
            "fig4.weekly_streams",
            "funnel.twitter",
            "funnel.youtube",
            "interventions",
            "payment_origins",
            "recipients",
            "recipients.twitter",
            "recipients.youtube",
            "table1.youtube",
            "table2.twitter_revenue",
            "table2.youtube_revenue",
            "whales.twitter",
            "whales.youtube",
        ]
    );
    assert!(h
        .warnings
        .iter()
        .any(|w| w.starts_with("stage main_monitor: quarantined")));
    assert!(h.retries >= 1, "the monitor was retried before quarantine");

    // Graceful degradation, concretely: the YouTube column collapses to
    // the empty-monitor fallback (visibly empty, never invented data).
    assert_eq!(run.report.table1.youtube_domains, 0);
    assert_eq!(run.report.youtube_funnel.payments_final, 0);
    assert_eq!(run.report.youtube_revenue.usd_any, 0.0);

    // The Twitter dataset is a root stage (archived corpus, no live
    // collection): its Table 1 column is not in the list above, and it
    // matches the clean run.
    let clean = run_with(PipelineOptions::default().threads(2));
    assert_eq!(
        run.report.table1.twitter_domains,
        clean.report.table1.twitter_domains
    );
    // Taint is conservative: twitter_payments consumes the known-scam
    // address set, which includes addresses from the (quarantined)
    // YouTube monitor — so Twitter revenue is flagged even though this
    // world's numbers happen to come out identical.
    assert!(h.tainted.contains(&"twitter_payments".to_string()));
    assert_eq!(run.report.twitter_revenue, clean.report.twitter_revenue);

    // The same plan under the default (strict) policy aborts the run.
    let aborted = catch_unwind(AssertUnwindSafe(|| {
        run_with(
            PipelineOptions::default()
                .threads(2)
                .fault_plan(Some(search_panic_plan())),
        )
    }));
    assert!(aborted.is_err(), "strict mode keeps the poison semantics");
}

#[test]
fn supervision_is_byte_identical_on_healthy_runs() {
    for threads in [1usize, 4] {
        let strict = run_with(
            PipelineOptions::default()
                .threads(threads)
                .fault_plan(Some(FaultPlan::quiet(42))),
        );
        let supervised = run_with(
            PipelineOptions::default()
                .threads(threads)
                .fault_plan(Some(FaultPlan::quiet(42)))
                .supervise(SupervisionPolicy::recover(2)),
        );
        assert_eq!(
            serde_json::to_string(&strict.report).unwrap(),
            serde_json::to_string(&supervised.report).unwrap(),
            "{threads} thread(s): supervision changed a quiet run's report"
        );
        assert_eq!(
            serde_json::to_string(&strict.telemetry.metrics).unwrap(),
            serde_json::to_string(&supervised.telemetry.metrics).unwrap(),
            "{threads} thread(s): supervision left telemetry residue"
        );
        assert!(supervised.health.is_clean());
        assert_eq!(supervised.health.attempts, 25);
        assert_eq!(supervised.health.retries, 0);
    }
}
