//! Chaos suite: the pipeline must complete under injected faults, and
//! fault runs may only *lose* observations relative to a clean run
//! (snapshot semantics: a retried call serves data as of its original
//! tick, a lost call serves nothing — faults never invent data).
//!
//! The clean-run determinism contract is pinned too: a `None` plan and
//! a quiet plan are exact no-ops, byte-identical to pre-fault behavior.

use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::sim::faults::{ChaosProfile, FaultPlan};
use givetake::world::{World, WorldConfig};
use std::sync::OnceLock;

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.03);
        config.seed = 0xC4A0_5EED;
        World::generate(config)
    })
}

fn run_with(options: PipelineOptions) -> PaperRun {
    Pipeline::new(world()).options(options).run()
}

fn clean() -> &'static PaperRun {
    static R: OnceLock<PaperRun> = OnceLock::new();
    R.get_or_init(|| run_with(PipelineOptions::default().threads(2)))
}

/// Assert every "faults only remove observations" invariant against the
/// clean run.
fn assert_degraded_not_inflated(chaos: &PaperRun) {
    let base = clean();

    // Twitter's dataset comes straight from the archived tweet corpus —
    // no live collection, so no fault surface.
    assert_eq!(
        chaos.report.table1.twitter_domains,
        base.report.table1.twitter_domains
    );
    assert_eq!(
        chaos.report.table1.twitter_accounts,
        base.report.table1.twitter_accounts
    );
    assert_eq!(
        chaos.report.table1.twitter_artifacts,
        base.report.table1.twitter_artifacts
    );

    // YouTube's dataset is built from what the (faulted) monitor saw.
    assert!(chaos.report.table1.youtube_domains <= base.report.table1.youtube_domains);
    assert!(chaos.report.table1.youtube_accounts <= base.report.table1.youtube_accounts);
    assert!(chaos.report.table1.youtube_artifacts <= base.report.table1.youtube_artifacts);

    // Payment funnels go through the fault-gated RPC view.
    assert!(
        chaos.report.twitter_funnel.payments_final <= base.report.twitter_funnel.payments_final
    );
    assert!(
        chaos.report.youtube_funnel.payments_final <= base.report.youtube_funnel.payments_final
    );

    // Revenue is a sum over a subset of the clean payments.
    assert!(chaos.report.twitter_revenue.usd_any <= base.report.twitter_revenue.usd_any + 1e-6);
    assert!(chaos.report.youtube_revenue.usd_any <= base.report.youtube_revenue.usd_any + 1e-6);

    // Victim counts can only shrink.
    assert!(
        chaos.report.twitter_conversions.unique_senders
            <= base.report.twitter_conversions.unique_senders
    );
    assert!(
        chaos.report.youtube_conversions.unique_senders
            <= base.report.youtube_conversions.unique_senders
    );

    // Conversion *rates* stay in the clean run's ballpark: numerator and
    // denominator both shrink, so the ratio must not explode.
    for (c, b) in [
        (
            &chaos.report.twitter_conversions,
            &base.report.twitter_conversions,
        ),
        (
            &chaos.report.youtube_conversions,
            &base.report.youtube_conversions,
        ),
    ] {
        assert!(c.rate.is_finite());
        assert!(
            c.rate <= b.rate * 3.0 + 1e-9,
            "rate {} vs clean {}",
            c.rate,
            b.rate
        );
    }
}

#[test]
fn pipeline_completes_under_seeded_chaos() {
    for seed in [1u64, 2, 0xBAD_CAFE] {
        let chaos = run_with(
            PipelineOptions::default()
                .threads(2)
                .chaos(seed, &ChaosProfile::default()),
        );
        assert!(chaos.degradation.enabled, "seed {seed}: plan attached");
        assert!(
            chaos.degradation.total.injected() > 0,
            "seed {seed}: default profile injects faults over a multi-month span"
        );
        assert_degraded_not_inflated(&chaos);
    }
}

#[test]
fn severe_chaos_still_completes() {
    let chaos = run_with(
        PipelineOptions::default()
            .threads(2)
            .chaos(9, &ChaosProfile::severe()),
    );
    assert!(chaos.degradation.total.injected() > 0);
    assert!(
        chaos.degradation.total.lost > 0,
        "severe profile loses calls"
    );
    assert_degraded_not_inflated(&chaos);
}

#[test]
fn degradation_accounting_is_consistent() {
    let chaos = run_with(
        PipelineOptions::default()
            .threads(2)
            .chaos(5, &ChaosProfile::default()),
    );
    let d = &chaos.degradation;

    // The total is exactly the merge of the per-stage entries.
    let mut summed = givetake::sim::faults::DegradationStats::default();
    for stage in &d.stages {
        summed.merge(&stage.stats);
    }
    assert_eq!(summed, d.total);

    // Every fault-gated stage reports, in a stable order.
    let names: Vec<&str> = d.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        names,
        [
            "pilot_monitor",
            "main_monitor",
            "twitch_pilot",
            "twitter_payments",
            "youtube_payments",
            "outgoing_stats",
        ]
    );

    // Every injected fault belongs to a call that ended either
    // recovered or lost.
    if d.total.injected() > 0 {
        assert!(d.total.recovered + d.total.lost >= 1);
    }
    // Retries only happen in response to injected faults.
    assert!(d.total.retries <= d.total.injected() * 4);
}

#[test]
fn chaos_run_is_reproducible() {
    let a = run_with(
        PipelineOptions::default()
            .threads(2)
            .chaos(11, &ChaosProfile::default()),
    );
    let b = run_with(
        PipelineOptions::default()
            .threads(2)
            .chaos(11, &ChaosProfile::default()),
    );
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap()
    );
    assert_eq!(a.degradation, b.degradation);
}

#[test]
fn quiet_plan_matches_clean_run_byte_for_byte() {
    let quiet = run_with(
        PipelineOptions::default()
            .threads(2)
            .fault_plan(Some(FaultPlan::quiet(42))),
    );
    assert!(quiet.degradation.enabled);
    assert!(
        quiet.degradation.total.is_zero(),
        "quiet plan injects nothing"
    );
    assert_eq!(
        serde_json::to_string(&quiet.report).unwrap(),
        serde_json::to_string(&clean().report).unwrap(),
        "a fault plan with no windows must be an exact no-op"
    );
}

#[test]
fn clean_run_reports_disabled_degradation() {
    let base = clean();
    assert!(!base.degradation.enabled);
    assert!(base.degradation.total.is_zero());
    for stage in &base.degradation.stages {
        assert!(
            stage.stats.is_zero(),
            "stage {} degraded without a plan",
            stage.stage
        );
    }
}
