//! Ablation-style integration tests: the pipeline's design choices
//! must actually matter, and the whole run must be deterministic.

use givetake::chain::RpcView;
use givetake::cluster::{ClusterView, ClusteringOptions};
use givetake::core::Pipeline;
use givetake::obs::StageSink;
use givetake::sim::SimDuration;
use givetake::stream::keywords::search_keyword_set;
use givetake::stream::monitor::{Monitor, MonitorConfig};
use givetake::web::CrawlerConfig;
use givetake::world::{World, WorldConfig};
use std::sync::OnceLock;

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.03);
        config.seed = 0xAB1A;
        World::generate(config)
    })
}

#[test]
fn full_pipeline_is_deterministic() {
    let w = world();
    let a = Pipeline::new(w).run();
    let b = Pipeline::new(w).run();
    assert_eq!(a.report, b.report);
}

#[test]
fn naive_crawler_recovers_fewer_domains() {
    let w = world();
    let window_end = w.config.youtube_start + SimDuration::days(21);

    let run_with = |crawler: CrawlerConfig| {
        let mut config = MonitorConfig::paper(w.config.youtube_start, window_end);
        config.crawler = crawler;
        let monitor = Monitor::new(config, search_keyword_set());
        let report = monitor.run(&w.youtube, &w.web);
        let keywords = search_keyword_set();
        givetake::core::datasets::build_youtube_dataset(&report, &keywords)
            .domains
            .len()
    };

    let hardened = run_with(CrawlerConfig::default());
    let naive = run_with(CrawlerConfig::naive());
    assert!(
        naive < hardened,
        "cloaking must cost the naive crawler domains: naive {naive} vs hardened {hardened}"
    );
    assert!(hardened > 0);
}

#[test]
fn outage_days_reduce_observations() {
    let w = world();
    let window_end = w.config.youtube_start + SimDuration::days(7);

    let run_with = |outages: Vec<givetake::sim::CivilDate>| {
        let mut config = MonitorConfig::paper(w.config.youtube_start, window_end);
        config.outage_days = outages;
        let monitor = Monitor::new(config, search_keyword_set());
        monitor.run(&w.youtube, &w.web)
    };

    let clean = run_with(vec![]);
    // Knock out the first three days of the week.
    let start_date = w.config.youtube_start.date();
    let d2 = start_date.succ();
    let d3 = d2.succ();
    let outaged = run_with(vec![start_date, d2, d3]);
    assert!(outaged.searches_run < clean.searches_run);
    assert!(outaged.samples_run <= clean.samples_run);
    assert!(outaged.outage_ticks_skipped > 0);
}

#[test]
fn co_occurrence_window_sweep_is_monotone() {
    let w = world();
    let dataset = givetake::core::datasets::build_twitter_dataset(&w.twitter, &w.scam_db);
    let known = std::collections::HashSet::new();
    let clustering = ClusterView::build(&w.chains.btc);
    let tags = w.tags.resolver(&clustering);
    let mut previous = 0;
    let mut counts = Vec::new();
    for days in [0i64, 1, 3, 7, 30] {
        let epoch = w.config.twitter_end;
        let mut rpc = RpcView::new(&w.chains, None, "test", epoch, StageSink::noop());
        let analysis = givetake::core::payments::analyze_twitter_with_window(
            &dataset,
            SimDuration::days(days),
            &mut rpc,
            &w.prices,
            &tags,
            &clustering,
            &known,
        );
        let n = analysis.funnel.payments_co_occurring_raw;
        assert!(
            n >= previous,
            "window {days}d lost payments: {n} < {previous}"
        );
        // "Any" payments are window-independent.
        assert_eq!(analysis.funnel.payments_any, analysis.payments.len());
        previous = n;
        counts.push(n);
    }
    // The sweep must actually discriminate: a zero-width window catches
    // (almost) nothing; a 30-day window catches more than the 1-day one.
    assert!(counts[0] < counts[4], "sweep flat: {counts:?}");
    assert!(counts[1] < counts[4], "sweep flat at the top: {counts:?}");
}

#[test]
fn coinjoin_unaware_clustering_merges_more() {
    let w = world();
    let aware = ClusterView::build_with(
        &w.chains.btc,
        ClusteringOptions {
            coinjoin_aware: true,
        },
    );
    let naive = ClusterView::build_with(
        &w.chains.btc,
        ClusteringOptions {
            coinjoin_aware: false,
        },
    );
    // Our world contains no CoinJoins by default, so the counts should
    // match — the ablation still checks the plumbing end to end.
    assert!(naive.cluster_count() <= aware.cluster_count());
    assert_eq!(aware.address_count(), naive.address_count());
}

#[test]
fn disabling_crawl_yields_no_pages() {
    let w = world();
    let mut config = MonitorConfig::paper(
        w.config.youtube_start,
        w.config.youtube_start + SimDuration::days(3),
    );
    config.crawl = false;
    let monitor = Monitor::new(config, search_keyword_set());
    let report = monitor.run(&w.youtube, &w.web);
    assert!(report.pages.is_empty());
    assert_eq!(report.crawl_attempts, 0);
    // Leads are still collected — only the crawl is off.
    assert!(!report.leads.is_empty());
}
