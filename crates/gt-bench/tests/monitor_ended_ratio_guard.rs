//! Guard: a monitoring window's cost per sample must not grow with the
//! number of streams that have already ended.
//!
//! Each tick samples the live streams and crawls the leads still due
//! that day; streams that ended and leads that retired are done work. Two
//! synthetic platforms carry the same live load (four staggered relays
//! of scam streams covering the whole window, all showing one QR URL)
//! and differ only in how many short streams, showing it too, ended on
//! the window's first day, each leaving a chat lead whose site never
//! answers, so it retires on the third day. The second platform has four
//! times as many. Tracking, sampling and crawling the ended streams is
//! work done once, in the first days; what is timed is the rest: the gap
//! between a long window and a short one, per sample it adds. If a tick
//! walks every stream it ever tracked or every lead, or a noted URL is
//! checked against every stream that ever showed it, the larger history
//! costs each later sample more and this fails. Each round times both
//! platforms back to back, in one process, and the median round decides,
//! so machine speed cancels. Debug builds skip it.

use gt_sim::{SimDuration, SimTime};
use gt_social::{ChatMessage, LiveStream, LiveStreamId, StreamVideo, ViewerCurve, YouTube};
use gt_stream::{search_keyword_set, Monitor, MonitorConfig, MonitorReport, UrlSource};
use gt_web::WebHost;
use std::time::{Duration, Instant};

const ROUNDS: usize = 15;
/// Days the long window runs (the relay covers it) and the short one.
const DAYS: i64 = 35;
const SHORT_DAYS: i64 = 5;
/// Relays of live streams, and the length of each stream of a relay.
const RELAYS: i64 = 4;
const RELAY_HOURS: i64 = 6;
/// Ended streams on the smaller platform; the larger has four times as
/// many.
const ENDED: usize = 500;
/// Medians measured 1.03-1.10x in release builds on a 2-vCPU x86-64 VM.
/// Walking every tracked stream and every lead on each tick, as the
/// window did before it kept a live list and a crawl cursor, they were
/// 2.07x; with the live list but every lead checked on each tick,
/// 1.63-1.66x; with each noted URL checked against a list of every
/// stream that showed it, in place of a set, 1.86-1.96x.
const MAX_RATIO: f64 = 1.3;

fn window_start() -> SimTime {
    SimTime::from_ymd(2023, 7, 24)
}

/// The live relays plus `ended` streams that are live for ten minutes
/// around the window's start, each posting a lead of its own.
fn platform(ended: usize) -> YouTube {
    let mut yt = YouTube::new();
    let channel = yt.add_channel("Crypto Daily".into(), 20_000);
    let stream = |start: SimTime, end: SimTime, chat: Vec<ChatMessage>| LiveStream {
        id: LiveStreamId(0),
        channel,
        title: "Elon Musk 5000 BTC giveaway LIVE".into(),
        description: "scan and participate".into(),
        language: "en".into(),
        fuzzy_topics: vec![],
        start,
        end,
        video: StreamVideo::ScamLoop {
            qr_url: "https://btc-x2.fund/claim".into(),
            qr_duty_cycle: None,
            qr_scale: 2,
        },
        viewers: ViewerCurve {
            peak_concurrent: 500,
            total_views: 9_000,
        },
        chat,
    };
    for relay in 0..RELAYS {
        let stagger = SimDuration::minutes(relay * RELAY_HOURS * 60 / RELAYS);
        for k in 0..DAYS * 24 / RELAY_HOURS {
            let start = window_start() + SimDuration::hours(k * RELAY_HOURS) - stagger;
            let end = start + SimDuration::hours(RELAY_HOURS);
            yt.add_stream(stream(start, end, vec![]));
        }
    }
    let start = window_start() - SimDuration::minutes(5);
    for k in 0..ended {
        let lead = ChatMessage {
            time: start,
            author: "mod".into(),
            text: format!("join at https://gone-{k}.fund/claim"),
        };
        yt.add_stream(stream(start, start + SimDuration::minutes(10), vec![lead]));
    }
    yt
}

/// Wall time and report of a `days`-long window over `youtube`.
fn window(youtube: &YouTube, web: &WebHost, days: i64) -> (Duration, MonitorReport) {
    let start = window_start();
    let mut cfg = MonitorConfig::paper(start, start + SimDuration::days(days));
    cfg.outage_days.clear();
    let monitor = Monitor::new(cfg, search_keyword_set());
    let started = Instant::now();
    let report = monitor.run(youtube, web);
    (started.elapsed(), report)
}

/// Seconds per sample that a long window over `youtube` adds to a short
/// one, from one run of each.
fn marginal(youtube: &YouTube, web: &WebHost) -> f64 {
    let (short, short_report) = window(youtube, web, SHORT_DAYS);
    let (long, long_report) = window(youtube, web, DAYS);
    let samples = long_report.samples_run - short_report.samples_run;
    long.saturating_sub(short).as_secs_f64() / samples.max(1) as f64
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing threshold set from release builds")]
fn window_cost_per_sample_ignores_ended_streams() {
    let web = WebHost::new();
    let (small, large) = (platform(ENDED), platform(4 * ENDED));
    for (youtube, ended) in [(&small, ENDED), (&large, 4 * ENDED)] {
        let report = window(youtube, &web, DAYS).1;
        let tracked = report.streams.len();
        assert_eq!(tracked, youtube.streams().len(), "every stream tracked");
        let chat_leads = report.leads.iter().filter(|l| l.source == UrlSource::Chat);
        assert_eq!(chat_leads.count(), ended, "one chat lead per ended stream");
        assert!(report.pages.is_empty(), "no lead ever answers");
    }
    // Each round times both platforms back to back, so a slow phase of
    // the machine hits both alike; the median round decides.
    let mut rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|_| (marginal(&small, &web), marginal(&large, &web)))
        .collect();
    rounds.sort_by(|a, b| (a.1 / a.0).total_cmp(&(b.1 / b.0)));
    let (small_cost, large_cost) = rounds[ROUNDS / 2];
    let ratio = large_cost / small_cost.max(1e-12);
    let line = format!(
        "days {SHORT_DAYS}-{DAYS}, median of {ROUNDS} rounds: {ENDED} ended {:.2} us/sample, \
         {} ended {:.2} us/sample: {ratio:.2}x",
        small_cost * 1e6,
        4 * ENDED,
        large_cost * 1e6,
    );
    eprintln!("{line}");
    assert!(ratio <= MAX_RATIO, "{line} (limit {MAX_RATIO}x)");
}
