//! The YouTube monitoring pipeline.
//!
//! Faithful to Section 3.2: the search API is polled every 30 minutes
//! for streams matching the keyword corpus; every discovered stream is
//! then sampled every 7.5 minutes — stream metadata (concurrent/total
//! viewers), the last 70 chat messages, and a two-second video
//! recording whose frames are scanned for QR codes. URLs from chats and
//! QR payloads become *leads*; each lead is crawled daily (with the
//! hardened crawler) until the window ends or fetching errors three
//! days in a row. Eleven infrastructure outage days suspend all
//! polling.

use crate::keywords::SearchKeywords;
use gt_obs::StageSink;
use gt_qr::FrameHit;
use gt_sim::faults::{FaultPlan, Gated, RetryPolicy, Substrate};
use gt_sim::{CivilDate, SimDuration, SimTime};
use gt_social::{ChannelId, LiveStreamId, YouTube};
use gt_store::{StoreDecode, StoreEncode};
use gt_text::extract_urls;
use gt_web::crawler::{Crawler, CrawlerConfig, RevisitState};
use gt_web::{Url, WebHost};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The paper's 11 infrastructure outage days.
pub const OUTAGE_DAYS: [CivilDate; 11] = [
    CivilDate::new(2023, 8, 15),
    CivilDate::new(2023, 8, 16),
    CivilDate::new(2023, 9, 1),
    CivilDate::new(2023, 9, 28),
    CivilDate::new(2023, 10, 6),
    CivilDate::new(2023, 11, 18),
    CivilDate::new(2023, 11, 19),
    CivilDate::new(2023, 12, 12),
    CivilDate::new(2023, 12, 26),
    CivilDate::new(2024, 1, 6),
    CivilDate::new(2024, 1, 21),
];

/// Search-poll cadence (paper: 30 minutes).
pub const SEARCH_INTERVAL: SimDuration = SimDuration::minutes(30);
/// Stream/chat/video sampling cadence (paper: 7.5 minutes).
pub const SAMPLE_INTERVAL: SimDuration = SimDuration::seconds(450);
/// Video recording length per sample (paper: 2 seconds).
pub const RECORD_LENGTH: SimDuration = SimDuration::seconds(2);

/// Monitoring parameters (the paper's cadences are the constants
/// above).
#[derive(Debug, Clone)]
pub struct MonitorConfig<'a> {
    pub window_start: SimTime,
    pub window_end: SimTime,
    /// Days on which nothing is polled or crawled.
    pub outage_days: Vec<CivilDate>,
    /// Crawl leads daily (can be disabled for monitor-only runs).
    pub crawl: bool,
    pub crawler: CrawlerConfig,
    /// Fault schedule every poll consults, borrowed from the run; `None`
    /// runs clean.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Telemetry sink the window reports into (no-op by default).
    pub sink: StageSink,
}

impl MonitorConfig<'_> {
    /// The paper's configuration over a given window.
    pub fn paper(window_start: SimTime, window_end: SimTime) -> Self {
        MonitorConfig {
            window_start,
            window_end,
            outage_days: OUTAGE_DAYS.to_vec(),
            crawl: true,
            crawler: CrawlerConfig::default(),
            fault_plan: None,
            sink: StageSink::noop(),
        }
    }
}

/// Where a URL lead came from.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub enum UrlSource {
    QrCode,
    Chat,
}

/// A URL extracted from a monitored stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct UrlLead {
    pub url: String,
    pub source: UrlSource,
    pub stream: LiveStreamId,
    pub first_seen: SimTime,
}

/// Everything the monitor learned about one stream.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct ObservedStream {
    pub stream: LiveStreamId,
    pub channel: ChannelId,
    pub title: String,
    pub description: String,
    pub channel_name: String,
    pub channel_subscribers: u64,
    pub first_seen: SimTime,
    pub last_seen: SimTime,
    pub max_concurrent: u64,
    pub max_total_views: u64,
    /// Distinct chat messages observed across polls.
    pub chat_messages_seen: usize,
    /// Video samples taken.
    pub samples: usize,
    /// Samples in which a QR code was decoded.
    pub qr_samples: usize,
    /// First/last sample time at which a QR was decoded.
    pub qr_first_seen: Option<SimTime>,
    pub qr_last_seen: Option<SimTime>,
}

/// The final crawled content for a lead URL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct CrawledPage {
    pub url: String,
    pub html: String,
    pub fetched: SimTime,
}

/// The monitoring run's full output.
#[derive(Debug, Default, PartialEq, StoreEncode, StoreDecode)]
pub struct MonitorReport {
    /// One entry per tracked stream, strictly ascending by id
    /// ([`MonitorReport::observed`] relies on it).
    pub streams: Vec<ObservedStream>,
    pub leads: Vec<UrlLead>,
    /// Latest successfully crawled page per URL.
    pub pages: HashMap<String, CrawledPage>,
    pub searches_run: u64,
    pub samples_run: u64,
    pub outage_ticks_skipped: u64,
    pub crawl_attempts: u64,
    /// Set when a monitor-host outage cut the window short at this tick.
    pub cut_short: Option<SimTime>,
}

impl MonitorReport {
    /// What the window observed of stream `id`, if it tracked it.
    pub fn observed(&self, id: LiveStreamId) -> Option<&ObservedStream> {
        let i = self.streams.binary_search_by_key(&id, |s| s.stream).ok()?;
        Some(&self.streams[i])
    }
}

struct Tracked<'a> {
    observed: ObservedStream,
    chat: ChatCursor<'a>,
}

/// Which tracked streams a window samples on a tick, and which leads its
/// daily crawl visits. The window runs [`LiveWalk`]; tests run the walk
/// over every tracked stream and lead beside it as the reference.
trait Walk {
    /// A search poll started tracking `id`.
    fn track(&mut self, id: LiveStreamId);
    /// Call `sample` on every live stream in ascending id order;
    /// `sample` returns `false` once the stream has ended.
    fn sample(&mut self, sample: impl FnMut(LiveStreamId) -> bool);
    /// The first of `revisits` lead states a crawl pass at `t` must
    /// check; those before it are known not to be due.
    fn crawl_from(&mut self, t: SimTime, revisits: usize) -> usize;
}

/// The window's walk, costing a tick its live work only: the ids of
/// the live streams, ascending, and a cursor into the crawl list.
#[derive(Default)]
struct LiveWalk {
    live: Vec<LiveStreamId>,
    /// Day of the last crawl pass, and the lead count it saw.
    crawled: Option<(i64, usize)>,
}

impl Walk for LiveWalk {
    fn track(&mut self, id: LiveStreamId) {
        // A stream is tracked once, and an ended one is never revived.
        if let Err(i) = self.live.binary_search(&id) {
            self.live.insert(i, id);
        }
    }

    fn sample(&mut self, mut sample: impl FnMut(LiveStreamId) -> bool) {
        self.live.retain(|&id| sample(id));
    }

    /// A pass crawls every due lead and records the day on it, and a
    /// retired lead is never due again. So after a day's first pass,
    /// only the leads noted since the previous pass can be due.
    fn crawl_from(&mut self, t: SimTime, revisits: usize) -> usize {
        let day = t.day_number();
        let from = match self.crawled {
            Some((last, seen)) if last == day => seen,
            _ => 0,
        };
        self.crawled = Some((day, revisits));
        from
    }
}

/// Which of a stream's chat messages the window has counted, as a
/// cursor into its time-ordered chat: the newest counted timestamp and
/// the texts counted at it, borrowed from the platform.
///
/// A stream counts each distinct `(time, text)` once. The cursor decides
/// that exactly as a set of every pair seen would: chat is time-ordered,
/// every served poll is a suffix ending at the poll time whose start
/// never moves back, and a denied poll serves nothing. So a polled
/// message older than the cursor was in an earlier served poll, and one
/// at the cursor's time was counted iff its text is in the cursor's
/// list. The list also catches repeats within one poll.
///
/// Public so that `gt-bench` can time the chat path against a
/// copy-and-set reference.
#[derive(Default)]
pub struct ChatCursor<'a> {
    time: Option<SimTime>,
    texts: Vec<&'a str>,
}

impl<'a> ChatCursor<'a> {
    /// Whether the message `(time, text)`, met in poll order, is new;
    /// a new message moves the cursor to it.
    pub fn is_new(&mut self, time: SimTime, text: &'a str) -> bool {
        match self.time {
            Some(at) if time < at => false,
            Some(at) if time == at => {
                let new = !self.texts.contains(&text);
                if new {
                    self.texts.push(text);
                }
                new
            }
            _ => {
                self.time = Some(time);
                self.texts.clear();
                self.texts.push(text);
                true
            }
        }
    }
}

/// The window's lead bookkeeping: each (url, stream, source) is reported
/// once, and each distinct URL is queued once for the daily crawl.
#[derive(Default)]
struct LeadBook {
    /// Every URL seen, with the (stream, source) pairs it was reported
    /// for. A URL's first sighting queues its crawl.
    urls: BTreeMap<String, BTreeSet<(LiveStreamId, UrlSource)>>,
    revisits: Vec<RevisitState>,
}

impl LeadBook {
    /// Note every URL in `text`, seen on `stream` at `t` through `source`.
    fn note(
        &mut self,
        leads: &mut Vec<UrlLead>,
        text: &str,
        source: UrlSource,
        stream: LiveStreamId,
        t: SimTime,
    ) {
        let reported = (stream, source);
        let lead = |url| UrlLead {
            url,
            source,
            stream,
            first_seen: t,
        };
        for url in extract_urls(text).into_iter().map(|u| u.url) {
            // A repeat costs a lookup; a URL is copied only when it is new.
            if let Some(pairs) = self.urls.get_mut(url.as_str()) {
                if pairs.insert(reported) {
                    leads.push(lead(url));
                }
                continue;
            }
            if let Some(parsed) = Url::parse(&url) {
                self.revisits.push(RevisitState::new(parsed));
            }
            leads.push(lead(url.clone()));
            self.urls.insert(url, BTreeSet::from([reported]));
        }
    }
}

/// What the monitor keeps of one recording: its frame count and the QR
/// hits of its first frame that shows any, borrowed from the platform.
#[derive(Debug, Default, PartialEq)]
struct Clip<'a> {
    frames: u64,
    hits: &'a [FrameHit],
}

/// Record [`RECORD_LENGTH`] of stream `id` from `t`, as
/// [`YouTube::record_hits`] scans it. Counts one record call.
fn record_clip(youtube: &YouTube, id: LiveStreamId, t: SimTime) -> Clip<'_> {
    let mut clip = Clip::default();
    for hits in youtube.record_hits(id, t, RECORD_LENGTH) {
        clip.frames += 1;
        if clip.hits.is_empty() {
            clip.hits = hits;
        }
    }
    clip
}

/// The monitor itself.
pub struct Monitor<'a> {
    config: MonitorConfig<'a>,
    keywords: SearchKeywords,
}

impl<'a> Monitor<'a> {
    pub fn new(config: MonitorConfig<'a>, keywords: SearchKeywords) -> Self {
        Monitor { config, keywords }
    }

    fn is_outage(&self, t: SimTime) -> bool {
        let d = t.date();
        self.config.outage_days.contains(&d)
    }

    /// Run the monitoring loop against the platform and (optionally)
    /// crawl leads against the web host.
    pub fn run(&self, youtube: &YouTube, web: &WebHost) -> MonitorReport {
        self.run_with(youtube, web, &mut LiveWalk::default())
    }

    /// [`Monitor::run`], sampling and crawling what `walk` picks.
    fn run_with(&self, youtube: &YouTube, web: &WebHost, walk: &mut impl Walk) -> MonitorReport {
        let cfg = &self.config;
        let mut report = MonitorReport::default();
        // Every stream ever tracked, live or ended. The walk samples the
        // live ones by ascending id: every poll below draws retry jitter
        // from the window's one gate and advances its breakers, so the
        // order streams are sampled in is part of the result under faults.
        let mut tracked: BTreeMap<LiveStreamId, Tracked> = BTreeMap::new();
        let mut book = LeadBook::default();
        let crawler = Crawler::new(cfg.crawler);
        // One gate per window; the label ties this window's jitter
        // stream to its start so pilot and main draw independently.
        let gate_label = format!("monitor@{}", cfg.window_start.0);
        let mut gate = Gated::new(
            cfg.fault_plan,
            &gate_label,
            RetryPolicy::default(),
            cfg.sink.clone(),
        );
        let _window_span = cfg.sink.span_sim("monitor.window", cfg.window_start.0);

        let mut t = cfg.window_start;
        let ticks_per_search = SEARCH_INTERVAL.as_seconds() / SAMPLE_INTERVAL.as_seconds();
        let mut tick: i64 = 0;
        // Outage status changes only at a UTC day boundary.
        let (mut day, mut outage) = (i64::MIN, false);

        while t < cfg.window_end {
            if t.day_number() != day {
                day = t.day_number();
                outage = self.is_outage(t);
            }
            if outage {
                report.outage_ticks_skipped += 1;
                tick += 1;
                t += SAMPLE_INTERVAL;
                continue;
            }

            // ---- monitor-host outage: the window is cut short ----
            if gate.checked(Substrate::StreamMonitor, t, || ()).is_err() {
                report.cut_short = Some(t);
                break;
            }

            // ---- search poll ----
            if tick % ticks_per_search == 0 {
                let hits = match youtube.search_live_gated(&self.keywords.search, t, &mut gate) {
                    Ok(hits) => {
                        report.searches_run += 1;
                        hits
                    }
                    Err(_) => Vec::new(),
                };
                for hit in hits {
                    tracked.entry(hit.stream).or_insert_with(|| {
                        walk.track(hit.stream);
                        let s = youtube.stream(hit.stream);
                        let channel = youtube
                            .channel_details(s.channel)
                            .expect("search hit has a channel");
                        Tracked {
                            observed: ObservedStream {
                                stream: hit.stream,
                                channel: s.channel,
                                title: s.title.clone(),
                                description: s.description.clone(),
                                channel_name: channel.name,
                                channel_subscribers: channel.subscribers,
                                first_seen: t,
                                last_seen: t,
                                max_concurrent: 0,
                                max_total_views: 0,
                                chat_messages_seen: 0,
                                samples: 0,
                                qr_samples: 0,
                                qr_first_seen: None,
                                qr_last_seen: None,
                            },
                            chat: ChatCursor::default(),
                        }
                    });
                }
            }

            // ---- per-stream sampling ----
            walk.sample(|id| {
                let state = tracked.get_mut(&id).expect("a live stream is tracked");
                // A denied details poll loses this sample but leaves the
                // stream tracked; only a served "not live" retires it.
                let Ok(details) = youtube.stream_details_gated(id, t, &mut gate) else {
                    return true;
                };
                let Some((concurrent, total)) = details else {
                    return false;
                };
                report.samples_run += 1;
                let obs = &mut state.observed;
                obs.last_seen = t;
                obs.max_concurrent = obs.max_concurrent.max(concurrent);
                obs.max_total_views = obs.max_total_views.max(total);
                obs.samples += 1;

                // Chat poll: last 70 messages; count only new ones and
                // extract URLs. A denied poll just misses this batch.
                for msg in youtube
                    .chat_history_gated(id, t, &mut gate)
                    .unwrap_or_default()
                {
                    if state.chat.is_new(msg.time, &msg.text) {
                        obs.chat_messages_seen += 1;
                        book.note(&mut report.leads, &msg.text, UrlSource::Chat, id, t);
                    }
                }

                // Video recording: only an admitted call counts and reads
                // the platform's scans.
                let clip = gate
                    .checked_counted(Substrate::YoutubeRecord, t, || {
                        let clip = record_clip(youtube, id, t);
                        let frames = clip.frames;
                        (clip, frames)
                    })
                    .unwrap_or_default();
                for hit in clip.hits {
                    if let Ok(text) = std::str::from_utf8(&hit.payload) {
                        book.note(&mut report.leads, text, UrlSource::QrCode, id, t);
                    }
                }
                if !clip.hits.is_empty() {
                    obs.qr_samples += 1;
                    if obs.qr_first_seen.is_none() {
                        obs.qr_first_seen = Some(t);
                    }
                    obs.qr_last_seen = Some(t);
                }
                true
            });

            // ---- daily crawl: each lead is visited at most once per
            // UTC day (`RevisitState::due`), starting the day it is
            // discovered, in the order leads were noted ----
            if cfg.crawl {
                let from = walk.crawl_from(t, book.revisits.len());
                for state in &mut book.revisits[from..] {
                    if !state.due(t) {
                        continue;
                    }
                    report.crawl_attempts += 1;
                    let outcome = crawler.crawl_gated(web, &state.url, t, &mut gate);
                    if let Some(html) = outcome.html() {
                        report.pages.insert(
                            state.url.to_string(),
                            CrawledPage {
                                url: state.url.to_string(),
                                html: html.to_string(),
                                fetched: t,
                            },
                        );
                    }
                    state.record(&outcome, t);
                }
            }

            tick += 1;
            t += SAMPLE_INTERVAL;
        }

        report.streams = tracked.into_values().map(|s| s.observed).collect();
        report.leads.sort_by_key(|l| (l.stream, l.first_seen));
        drop(gate); // flush per-call telemetry before the summary rows
        for (metric, value) in [
            ("searches_run", report.searches_run),
            ("samples_run", report.samples_run),
            ("outage_ticks_skipped", report.outage_ticks_skipped),
            ("crawl_attempts", report.crawl_attempts),
            ("streams_tracked", report.streams.len() as u64),
            ("leads", report.leads.len() as u64),
        ] {
            cfg.sink.counter_add("stream.monitor", metric, value);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keywords::search_keyword_set;
    use gt_sim::faults::{FaultKind, FaultWindow};
    use gt_social::{ChatMessage, LiveStream, StreamVideo, ViewerCurve};
    use std::collections::{BTreeSet, HashSet};

    fn t0() -> SimTime {
        SimTime::from_ymd(2023, 7, 24)
    }

    fn scam_platform() -> (YouTube, WebHost) {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("Crypto Daily".into(), 20_000);
        yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "Elon Musk 5000 BTC giveaway LIVE".into(),
            description: "scan and participate".into(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t0() + SimDuration::hours(1),
            end: t0() + SimDuration::hours(3),
            video: StreamVideo::ScamLoop {
                qr_url: "https://btc-x2.fund/claim".into(),
                qr_duty_cycle: None,
                qr_scale: 2,
            },
            viewers: ViewerCurve {
                peak_concurrent: 500,
                total_views: 9_000,
            },
            chat: vec![ChatMessage {
                time: t0() + SimDuration::hours(1) + SimDuration::minutes(5),
                author: "mod".into(),
                text: "join at https://btc-x2.fund/claim".into(),
            }],
        });
        let mut web = WebHost::new();
        web.add_scam_site(gt_web::ScamSiteSpec {
            domain: "btc-x2.fund".into(),
            landing_html:
                "<html>Hurry! Send BTC to 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa to participate</html>"
                    .into(),
            front_html: String::new(),
            cloaking: Default::default(),
            online_from: t0(),
            offline_from: None,
        });
        (yt, web)
    }

    fn short_config(hours: i64) -> MonitorConfig<'static> {
        let mut c = MonitorConfig::paper(t0(), t0() + SimDuration::hours(hours));
        c.outage_days = vec![];
        c
    }

    #[test]
    fn finds_stream_and_extracts_both_lead_kinds() {
        let (yt, web) = scam_platform();
        let monitor = Monitor::new(short_config(5), search_keyword_set());
        let report = monitor.run(&yt, &web);

        assert_eq!(report.streams.len(), 1);
        let obs = &report.streams[0];
        assert!(obs.samples > 5);
        assert!(obs.qr_samples > 0);
        assert_eq!(obs.channel_subscribers, 20_000);
        assert!(obs.max_total_views > 0);
        assert_eq!(obs.chat_messages_seen, 1);

        let sources: HashSet<UrlSource> = report.leads.iter().map(|l| l.source).collect();
        assert!(sources.contains(&UrlSource::QrCode), "QR lead found");
        assert!(sources.contains(&UrlSource::Chat), "chat lead found");
        assert!(report
            .leads
            .iter()
            .any(|l| Url::parse(&l.url).is_some_and(|u| u.host == "btc-x2.fund")));
    }

    #[test]
    fn crawls_discovered_leads() {
        let (yt, web) = scam_platform();
        let monitor = Monitor::new(short_config(6), search_keyword_set());
        let report = monitor.run(&yt, &web);
        let page = report
            .pages
            .get("https://btc-x2.fund/claim")
            .expect("lead crawled");
        assert!(page.html.contains("1A1zP1eP5QGe"));
        assert!(report.crawl_attempts >= 1);
    }

    #[test]
    fn respects_outage_days() {
        let (yt, web) = scam_platform();
        let mut config = short_config(5);
        config.outage_days = vec![CivilDate::new(2023, 7, 24)];
        let monitor = Monitor::new(config, search_keyword_set());
        let report = monitor.run(&yt, &web);
        assert!(report.streams.is_empty(), "outage day: nothing observed");
        assert_eq!(report.searches_run, 0);
        assert!(report.outage_ticks_skipped > 0);
    }

    #[test]
    fn benign_streams_without_keywords_are_not_found() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("cooking channel".into(), 500);
        yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "pasta night live".into(),
            description: "dinner stream".into(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t0(),
            end: t0() + SimDuration::hours(2),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 50,
                total_views: 300,
            },
            chat: vec![],
        });
        let web = WebHost::new();
        let monitor = Monitor::new(short_config(3), search_keyword_set());
        let report = monitor.run(&yt, &web);
        assert!(report.streams.is_empty());
        assert!(report.searches_run > 0);
    }

    #[test]
    fn qr_persistence_is_tracked() {
        let (yt, web) = scam_platform();
        let monitor = Monitor::new(short_config(5), search_keyword_set());
        let report = monitor.run(&yt, &web);
        let obs = &report.streams[0];
        let first = obs.qr_first_seen.expect("qr seen");
        let last = obs.qr_last_seen.unwrap();
        // Visible through (most of) the stream's remaining life.
        assert!((last - first).as_seconds() >= 3_600, "{}", last - first);
        assert_eq!(obs.qr_samples, obs.samples, "continuously visible");
    }

    #[test]
    fn stops_sampling_after_stream_ends() {
        let (yt, web) = scam_platform();
        let monitor = Monitor::new(short_config(24), search_keyword_set());
        let report = monitor.run(&yt, &web);
        let obs = &report.streams[0];
        // 2-hour stream sampled at 7.5-minute cadence: ≤ 17 samples.
        assert!(obs.samples <= 17, "{}", obs.samples);
        assert!(obs.last_seen < t0() + SimDuration::hours(4));
    }

    /// Four scam streams polled under transients on every details and
    /// chat call. A 17 s window outlasts some retry schedules (2-3 s,
    /// 4-6 s, 8-12 s of jittered backoff before the last attempt) and
    /// not others, so which stream loses a sample depends on the order
    /// the streams draw the gate's jitter in.
    fn faulted_fixture() -> (YouTube, FaultPlan) {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("Crypto Daily".into(), 20_000);
        for i in 0..4 {
            yt.add_stream(LiveStream {
                id: LiveStreamId(0),
                channel: ch,
                title: format!("Elon Musk {i}000 BTC giveaway LIVE"),
                description: "scan and participate".into(),
                language: "en".into(),
                fuzzy_topics: vec![],
                start: t0(),
                end: t0() + SimDuration::hours(6),
                video: StreamVideo::ScamLoop {
                    qr_url: format!("https://btc-x{i}.fund/claim"),
                    qr_duty_cycle: None,
                    qr_scale: 2,
                },
                viewers: ViewerCurve {
                    peak_concurrent: 500,
                    total_views: 9_000,
                },
                chat: (0..40)
                    .map(|m| ChatMessage {
                        time: t0() + SimDuration::minutes(7 * m),
                        author: format!("viewer{m}"),
                        text: format!("sent {m} https://btc-x{i}.fund/claim"),
                    })
                    .collect(),
            });
        }
        let ticks: Vec<FaultWindow> = (0..40)
            .map(|k| {
                let start = t0() + SimDuration::seconds(450 * k);
                FaultWindow {
                    start,
                    end: start + SimDuration::seconds(17),
                    kind: FaultKind::Transient,
                }
            })
            .collect();
        let mut plan = FaultPlan::quiet(11);
        plan.schedules = BTreeMap::from([
            (Substrate::YoutubeDetails, ticks.clone()),
            (Substrate::YoutubeChat, ticks),
        ]);
        (yt, plan)
    }

    /// The fixture's five-hour window, uncrawled, under `plan`.
    fn faulted_config(plan: Option<&FaultPlan>) -> MonitorConfig<'_> {
        let mut config = short_config(5);
        config.crawl = false;
        config.fault_plan = plan;
        config
    }

    #[test]
    fn faulted_sampling_does_not_depend_on_map_order() {
        let (yt, plan) = faulted_fixture();
        let web = WebHost::new();
        let mut config = faulted_config(Some(&plan));
        let sink = gt_obs::MetricsRegistry::new().sink("monitor");
        config.sink = sink.clone();
        let monitor = Monitor::new(config, search_keyword_set());

        let first = monitor.run(&yt, &web);
        assert_eq!(first.streams.len(), 4);
        let total = |metric: &str| -> u64 {
            sink.sheet()
                .rows("")
                .filter(|r| r.metric == metric)
                .map(|r| r.value)
                .sum()
        };
        assert!(total("lost") > 0 && total("recovered") > 0);
        for _ in 1..8 {
            assert_eq!(monitor.run(&yt, &web), first);
        }
    }

    #[test]
    fn streams_ascend_by_id_and_observed_finds_each() {
        let (yt, _) = faulted_fixture();
        let report =
            Monitor::new(faulted_config(None), search_keyword_set()).run(&yt, &WebHost::new());
        assert_eq!(report.streams.len(), 4);
        assert!(report.streams.windows(2).all(|w| w[0].stream < w[1].stream));
        for obs in &report.streams {
            assert_eq!(report.observed(obs.stream), Some(obs));
        }
        assert_eq!(report.observed(LiveStreamId(99)), None);
    }

    #[test]
    fn memoised_clips_match_recorded_scans() {
        let (mut yt, _) = faulted_fixture();
        let config = faulted_config(None);
        // Beside the fixture's four continuous overlays: a duty-cycled
        // overlay on a stream that ends one second into a recording,
        // benign video, and two streams that show stream 0's overlay from
        // other starts, one of them duty-cycled.
        let base = yt.stream(LiveStreamId(0)).clone();
        let shared = |duty| StreamVideo::ScamLoop {
            qr_url: "https://btc-x0.fund/claim".into(),
            qr_duty_cycle: duty,
            qr_scale: 2,
        };
        assert_eq!(base.video, shared(None));
        for (video, start, end) in [
            (
                StreamVideo::ScamLoop {
                    qr_url: "https://eth-x2.org/claim".into(),
                    qr_duty_cycle: Some((15, 25)),
                    qr_scale: 3,
                },
                base.start,
                t0() + SimDuration::seconds(7_201),
            ),
            (StreamVideo::Benign, base.start, base.end),
            (shared(None), t0() + SimDuration::seconds(7), base.end),
            (
                shared(Some((15, 25))),
                t0() + SimDuration::seconds(4),
                base.end,
            ),
        ] {
            yt.add_stream(LiveStream {
                video,
                start,
                end,
                ..base.clone()
            });
        }
        // What each recorded frame shows, described without frame keys:
        // the texture phase (the texture repeats every 11 s) and the
        // visible overlay's `(qr_url, qr_scale)`; and the streams that
        // showed an overlay.
        let mut by_phase = BTreeSet::new();
        let mut overlays = BTreeSet::new();
        let mut showing = BTreeSet::new();
        // The scans the clips borrow from the platform, by address.
        let mut scans = BTreeSet::new();
        let mut t = config.window_start;
        while t < config.window_end {
            for stream in yt.streams() {
                let frames = yt.record(stream.id, t, RECORD_LENGTH);
                let scanned: Vec<Vec<FrameHit>> = frames.iter().map(gt_qr::scan_frame).collect();
                let hits: Vec<&[FrameHit]> = yt.record_hits(stream.id, t, RECORD_LENGTH).collect();
                assert_eq!(hits, scanned, "{:?} at {t:?}", stream.id);
                for at in (0..frames.len() as i64).map(|i| t + SimDuration::seconds(i)) {
                    let phase = (at - stream.start).as_seconds().rem_euclid(11);
                    let overlay = match &stream.video {
                        StreamVideo::ScamLoop {
                            qr_url, qr_scale, ..
                        } if stream.qr_visible(at) => Some((qr_url.clone(), *qr_scale)),
                        _ => None,
                    };
                    if let Some(overlay) = overlay {
                        showing.insert(stream.id);
                        by_phase.insert((phase, overlay.clone()));
                        overlays.insert(overlay);
                    }
                }
                let reference = Clip {
                    frames: frames.len() as u64,
                    hits: scanned
                        .iter()
                        .find(|h| !h.is_empty())
                        .map_or(&[], Vec::as_slice),
                };
                let clip = record_clip(&yt, stream.id, t);
                assert_eq!(clip, reference, "{:?} at {t:?}", stream.id);
                if !clip.hits.is_empty() {
                    scans.insert(clip.hits.as_ptr());
                }
            }
            t += SAMPLE_INTERVAL;
        }
        assert_eq!(scans.len(), overlays.len(), "one scan per overlay");
        assert!(overlays.len() < showing.len(), "streams share overlays");
        assert!(
            overlays.len() < by_phase.len(),
            "frames show overlays at many phases"
        );
    }

    /// A one-stream platform whose chat is `messages` from `t0()`: each
    /// `(gap, text)` posts text `m{text}` `gap` seconds after the one
    /// before, and `burst` more messages at the time of message
    /// `burst.0` cycle through seven texts.
    fn chat_platform(messages: &[(i64, usize)], burst: (usize, usize)) -> (YouTube, LiveStreamId) {
        let mut at = t0();
        let mut chat = Vec::new();
        for (k, &(gap, text)) in messages.iter().enumerate() {
            at += SimDuration::seconds(gap);
            let mut post = |text: String| {
                chat.push(ChatMessage {
                    time: at,
                    author: "u".into(),
                    text,
                })
            };
            post(format!("m{text}"));
            if k == burst.0 {
                (0..burst.1).for_each(|b| post(format!("m{}", b % 7)));
            }
        }
        let mut yt = YouTube::new();
        let ch = yt.add_channel("c".into(), 1);
        let id = yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "chat".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t0(),
            end: t0() + SimDuration::days(1),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 1,
                total_views: 1,
            },
            chat,
        });
        (yt, id)
    }

    /// The window's loop as it was before [`LiveWalk`], kept as the
    /// reference it must match: a live flag per tracked stream, every
    /// flag visited on every tick, and every lead checked on every crawl
    /// pass.
    #[derive(Default)]
    struct FilterWalk {
        live: BTreeMap<LiveStreamId, bool>,
    }

    impl Walk for FilterWalk {
        fn track(&mut self, id: LiveStreamId) {
            self.live.insert(id, true);
        }

        fn sample(&mut self, mut sample: impl FnMut(LiveStreamId) -> bool) {
            for (&id, live) in self.live.iter_mut().filter(|(_, live)| **live) {
                *live = sample(id);
            }
        }

        fn crawl_from(&mut self, _: SimTime, _: usize) -> usize {
            0
        }
    }

    /// Landing domains of the walk fixture: the first three are hosted
    /// (each may go offline), the last never answers.
    const DOMAINS: [&str; 4] = ["btc-a.fund", "eth-b.org", "x2-c.live", "gone-d.net"];

    /// One stream of the walk fixture: start and length in minutes (the
    /// start from `t0()`), its video (0 benign, 1 a continuous QR, 2 a
    /// duty-cycled QR, 3 benign and off-keyword, so no search finds it),
    /// the index of the domain it shows and posts, and its chat posts in
    /// minutes after its start.
    type StreamSpec = ((i64, i64), u8, usize, Vec<i64>);

    /// A platform of `specs` and a web host whose hosted domain `i` goes
    /// offline `offline[i]` hours after `t0()`, if set.
    fn walk_platform(specs: &[StreamSpec], offline: &[Option<i64>]) -> (YouTube, WebHost) {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("Crypto Daily".into(), 20_000);
        for (k, ((start, length), video, domain, posts)) in specs.iter().enumerate() {
            let domain = DOMAINS[*domain];
            let start = t0() + SimDuration::minutes(*start);
            let qr_url = format!("https://{domain}/claim");
            let (title, video) = match video {
                0 => ("Elon Musk BTC giveaway LIVE", StreamVideo::Benign),
                1 | 2 => (
                    "Elon Musk 5000 BTC giveaway LIVE",
                    StreamVideo::ScamLoop {
                        qr_url,
                        qr_duty_cycle: (*video == 2).then_some((15, 25)),
                        qr_scale: 2,
                    },
                ),
                _ => ("pasta night live", StreamVideo::Benign),
            };
            let mut posts = posts.clone();
            posts.sort_unstable();
            let chat = posts
                .iter()
                .enumerate()
                .map(|(m, &after)| ChatMessage {
                    time: start + SimDuration::minutes(after),
                    author: format!("viewer{m}"),
                    // Every other post carries a lead of its own.
                    text: if m % 2 == 0 {
                        format!("claim at https://{domain}/s{k}/{m}")
                    } else {
                        format!("sent {m}")
                    },
                })
                .collect();
            yt.add_stream(LiveStream {
                id: LiveStreamId(0),
                channel: ch,
                title: title.into(),
                description: String::new(),
                language: "en".into(),
                fuzzy_topics: vec![],
                start,
                end: start + SimDuration::minutes(*length),
                video,
                viewers: ViewerCurve {
                    peak_concurrent: 500,
                    total_views: 9_000,
                },
                chat,
            });
        }
        let mut web = WebHost::new();
        for (domain, offline) in DOMAINS.iter().zip(offline) {
            web.add_scam_site(gt_web::ScamSiteSpec {
                domain: domain.to_string(),
                landing_html: "<html>Send BTC to 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa now</html>"
                    .into(),
                front_html: String::new(),
                cloaking: Default::default(),
                online_from: t0(),
                offline_from: offline.map(|h| t0() + SimDuration::hours(h)),
            });
        }
        (yt, web)
    }

    /// The report and the flushed metric rows of one window under `walk`.
    fn walked(
        config: &MonitorConfig,
        yt: &YouTube,
        web: &WebHost,
        mut walk: impl Walk,
    ) -> (MonitorReport, Vec<gt_obs::MetricRow>) {
        let sink = gt_obs::MetricsRegistry::new().sink("monitor");
        let mut config = config.clone();
        config.sink = sink.clone();
        let report = Monitor::new(config, search_keyword_set()).run_with(yt, web, &mut walk);
        let rows = sink.sheet().rows("monitor").collect();
        (report, rows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The chat cursor counts the same messages, in the same order,
        /// as a set of every `(time, text)` seen, over time-ordered chats
        /// with repeated pairs (a burst can put more than the 70-message
        /// limit at one timestamp), increasing poll times and denied
        /// polls, which serve nothing.
        #[test]
        fn chat_cursor_matches_a_set_of_every_message_seen(
            messages in proptest::collection::vec((0i64..3, 0usize..5), 0..250),
            burst in (0usize..250, 0usize..160),
            polls in proptest::collection::vec((1i64..120, 0u8..4), 1..40),
        ) {
            let (yt, id) = chat_platform(&messages, burst);
            let mut cursor = ChatCursor::default();
            let mut seen: HashSet<(SimTime, String)> = HashSet::new();
            let mut at = t0();
            for (poll, &(step, fate)) in polls.iter().enumerate() {
                at += SimDuration::seconds(step);
                if fate == 0 {
                    continue; // denied
                }
                let served = yt.chat_history(id, at);
                let by_set: Vec<(SimTime, &str)> = served
                    .iter()
                    .filter(|m| seen.insert((m.time, m.text.clone())))
                    .map(|m| (m.time, m.text.as_str()))
                    .collect();
                let by_cursor: Vec<(SimTime, &str)> = served
                    .iter()
                    .filter(|m| cursor.is_new(m.time, &m.text))
                    .map(|m| (m.time, m.text.as_str()))
                    .collect();
                proptest::prop_assert_eq!(by_cursor, by_set, "poll {} at {:?}", poll, at);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The live list and the crawl cursor sample, poll and crawl
        /// exactly what the reference walk does: streams start and end at
        /// random times (some before the window, some after it), chats
        /// post leads at any minute of a day, sites go offline so leads
        /// retire, windows start mid-day and skip outage days, and runs go
        /// clean, under a severe plan, under one whose monitor host dies
        /// mid-window, or under one that faults every details and chat
        /// poll. Searches keep running after streams end, but
        /// liveness is one interval, so a search never returns an ended
        /// stream again.
        #[test]
        fn live_walk_matches_the_filter_walk(
            specs in proptest::collection::vec(
                (
                    (-600i64..4 * 1440, 1i64..720),
                    0u8..4,
                    0usize..4,
                    proptest::collection::vec(0i64..720, 0..6),
                ),
                0..14,
            ),
            offline in proptest::collection::vec(
                (proptest::prelude::any::<bool>(), 0i64..96),
                3,
            ),
            (start, hours) in (0i64..1440, 1i64..96),
            outages in proptest::collection::vec(0i64..5, 0..3),
            (plan_kind, fault_seed, cut) in (0u8..4, proptest::prelude::any::<u64>(), 0i64..5760),
        ) {
            let offline: Vec<Option<i64>> = offline.iter().map(|&(on, h)| on.then_some(h)).collect();
            let (yt, web) = walk_platform(&specs, &offline);
            let window_start = t0() + SimDuration::minutes(start);
            let mut config = short_config(0);
            config.window_start = window_start;
            config.window_end = window_start + SimDuration::hours(hours);
            config.outage_days = outages
                .iter()
                .map(|&d| (t0() + SimDuration::days(d)).date())
                .collect();
            let plan = (plan_kind > 0).then(|| {
                let mut plan = FaultPlan::generate(
                    fault_seed,
                    config.window_start,
                    config.window_end,
                    &gt_sim::faults::ChaosProfile::severe(),
                );
                match plan_kind {
                    2 => {
                        let start = t0() + SimDuration::minutes(cut);
                        let end = start.max(config.window_end) + SimDuration::hours(1);
                        let kind = FaultKind::Outage;
                        let dies = vec![FaultWindow { start, end, kind }];
                        plan.schedules.insert(Substrate::StreamMonitor, dies);
                    }
                    3 => {
                        // As in `faulted_fixture`: a 17 s transient at
                        // every tick, so who loses a sample depends on the
                        // order streams draw jitter in.
                        let ticks: Vec<FaultWindow> = (0..hours * 8)
                            .map(|k| {
                                let start = window_start + SimDuration::seconds(450 * k);
                                let end = start + SimDuration::seconds(17);
                                FaultWindow { start, end, kind: FaultKind::Transient }
                            })
                            .collect();
                        plan.schedules.remove(&Substrate::StreamMonitor);
                        plan.schedules.insert(Substrate::YoutubeDetails, ticks.clone());
                        plan.schedules.insert(Substrate::YoutubeChat, ticks);
                    }
                    _ => {}
                }
                plan
            });
            config.fault_plan = plan.as_ref();
            let live = walked(&config, &yt, &web, LiveWalk::default());
            let reference = walked(&config, &yt, &web, FilterWalk::default());
            let case = format!(
                "fault seed {fault_seed:#x}, plan kind {plan_kind}, {} streams, {hours} h from \
                 minute {start}, outage days {outages:?}, {} samples, {} crawls",
                specs.len(),
                reference.0.samples_run,
                reference.0.crawl_attempts,
            );
            proptest::prop_assert_eq!(&live.0, &reference.0, "report: {}", case);
            proptest::prop_assert_eq!(&live.1, &reference.1, "metric rows: {}", case);
        }
    }
}
