//! The Twitch pilot (Appendix B.1).
//!
//! Twitch's API lists *all* live streams, so filtering is client-side:
//! a stream is a candidate if its title or tags match the keyword set
//! (minus the 16 over-generic terms) and its category is not a game.
//! Candidates are recorded for 20 seconds (to outlast the ~15-second ad
//! roll) every 30 minutes and their chat is polled while live. The
//! paper found no giveaway scams this way; the report quantifies the
//! same null result.

use crate::keywords::twitch_keyword_set;
use gt_obs::StageSink;
use gt_sim::faults::{FaultPlan, Gated, RetryPolicy, Substrate};
use gt_sim::{SimDuration, SimTime};
use gt_social::{Twitch, TwitchStreamId};
use gt_store::{StoreDecode, StoreEncode};
use gt_text::{extract_urls, KeywordSet};
use std::collections::{HashMap, HashSet};

/// Categories treated as games (dropped from candidates).
const GAME_CATEGORIES: &[&str] = &[
    "Fortnite",
    "League of Legends",
    "Minecraft",
    "Grand Theft Auto V",
    "Valorant",
    "Counter-Strike",
];

/// Output of the pilot run.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct TwitchPilotReport {
    /// Streams seen across all list polls.
    pub streams_listed: usize,
    /// Streams passing the keyword filter (before category drop).
    pub keyword_matches: usize,
    /// Candidates after dropping game categories.
    pub candidates: usize,
    /// Candidates actually recorded.
    pub recorded: usize,
    /// QR codes decoded from recordings (scams found).
    pub qr_hits: usize,
    /// URLs extracted from candidate chats.
    pub chat_urls: Vec<String>,
}

/// Run the Twitch pilot over a window at a 30-minute cadence. List
/// polls and per-stream taps (recording, chat) consult `fault_plan`
/// (`None` runs clean; denied polls are lost) and report per-call
/// telemetry (Helix list polls, recording taps, chat polls) into
/// `sink`.
pub fn run_twitch_pilot(
    twitch: &Twitch,
    window_start: SimTime,
    window_end: SimTime,
    fault_plan: Option<&FaultPlan>,
    sink: StageSink,
) -> TwitchPilotReport {
    let keywords: KeywordSet = twitch_keyword_set();
    let mut report = TwitchPilotReport::default();
    let mut seen: HashSet<TwitchStreamId> = HashSet::new();
    let mut chat_cursor: HashMap<TwitchStreamId, SimTime> = HashMap::new();
    let mut gate = Gated::new(
        fault_plan,
        "twitch.pilot",
        RetryPolicy::default(),
        sink.clone(),
    );
    let _window_span = sink.span_sim("twitch.window", window_start.0);

    let mut t = window_start;
    while t < window_end {
        let listed = twitch.get_streams(t, &mut gate).unwrap_or_default();
        for stream in listed {
            let is_new = seen.insert(stream.id);
            if is_new {
                report.streams_listed += 1;
            }
            let matches = keywords.matches(&stream.title)
                || stream.tags.iter().any(|tag| keywords.matches(tag));
            if !matches {
                continue;
            }
            if is_new {
                report.keyword_matches += 1;
            }
            if GAME_CATEGORIES.contains(&stream.category.as_str()) {
                continue;
            }
            if is_new {
                report.candidates += 1;
            }

            // Record 20 seconds (ads occupy the first ~15). Recording
            // rides the chat/IRC substrate: both are per-stream taps,
            // distinct from the Helix listing quota.
            let (frames, hits) = gate
                .checked_counted(Substrate::TwitchChat, t, || {
                    let (mut frames, mut hits) = (0, 0);
                    for frame in twitch.record_hits(stream.id, t, SimDuration::seconds(20)) {
                        frames += 1;
                        hits += frame.len();
                    }
                    ((frames, hits), frames)
                })
                .unwrap_or_default();
            if frames > 0 {
                report.recorded += 1;
            }
            report.qr_hits += hits;

            // Chat: poll the interval since the last visit (Twitch has
            // no history endpoint).
            let since = chat_cursor.get(&stream.id).copied().unwrap_or(stream.start);
            // On a denied chat poll the cursor stays put, so the next
            // successful poll recovers the missed interval while the
            // stream is still live.
            if let Ok(messages) = twitch.chat_since(stream.id, since, t, &mut gate) {
                for msg in messages {
                    for url in extract_urls(&msg.text) {
                        report.chat_urls.push(url.url);
                    }
                }
                chat_cursor.insert(stream.id, t);
            }
        }
        t += SimDuration::minutes(30);
    }
    report.chat_urls.sort();
    report.chat_urls.dedup();
    drop(gate); // flush per-call telemetry before the summary rows
    for (metric, value) in [
        ("streams_listed", report.streams_listed as u64),
        ("candidates", report.candidates as u64),
        ("recorded", report.recorded as u64),
        ("qr_hits", report.qr_hits as u64),
        ("chat_urls", report.chat_urls.len() as u64),
    ] {
        sink.counter_add("twitch.pilot", metric, value);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_social::{ChatMessage, StreamVideo, TwitchStream, ViewerCurve};

    fn t0() -> SimTime {
        SimTime::from_ymd(2023, 7, 1)
    }

    /// A fault-free pilot over the first `hours` of the window.
    fn clean_pilot(tw: &Twitch, hours: i64) -> TwitchPilotReport {
        run_twitch_pilot(
            tw,
            t0(),
            t0() + SimDuration::hours(hours),
            None,
            StageSink::noop(),
        )
    }

    fn stream(title: &str, category: &str, video: StreamVideo) -> TwitchStream {
        TwitchStream {
            id: TwitchStreamId(0),
            channel_name: "c".into(),
            title: title.into(),
            tags: vec![],
            category: category.into(),
            start: t0(),
            end: t0() + SimDuration::hours(3),
            video,
            viewers: ViewerCurve {
                peak_concurrent: 10,
                total_views: 100,
            },
            chat: vec![],
        }
    }

    #[test]
    fn filters_by_keyword_and_category() {
        let mut tw = Twitch::new();
        tw.add_stream(stream(
            "bitcoin talk live",
            "Just Chatting",
            StreamVideo::Benign,
        ));
        tw.add_stream(stream("bitcoin speedrun", "Fortnite", StreamVideo::Benign));
        tw.add_stream(stream(
            "cooking pasta",
            "Just Chatting",
            StreamVideo::Benign,
        ));
        let report = clean_pilot(&tw, 1);
        assert_eq!(report.streams_listed, 3);
        assert_eq!(report.keyword_matches, 2);
        assert_eq!(report.candidates, 1, "game category dropped");
        assert_eq!(report.qr_hits, 0, "no scams on Twitch");
    }

    #[test]
    fn twenty_second_recording_outlasts_the_ad() {
        // A (hypothetical) scam stream on Twitch would be caught because
        // the 20-second recording reaches past the 15-second ad.
        let mut tw = Twitch::new();
        tw.add_stream(stream(
            "bitcoin giveaway event live",
            "Crypto",
            StreamVideo::ScamLoop {
                qr_url: "https://btc-x2.fund".into(),
                qr_duty_cycle: None,
                qr_scale: 2,
            },
        ));
        let report = clean_pilot(&tw, 1);
        assert_eq!(report.candidates, 1);
        assert!(report.qr_hits > 0, "QR visible after the ad roll");
    }

    #[test]
    fn chat_urls_collected_while_live() {
        let mut tw = Twitch::new();
        let mut s = stream("xrp chat", "Just Chatting", StreamVideo::Benign);
        s.chat = vec![ChatMessage {
            time: t0() + SimDuration::minutes(40),
            author: "viewer".into(),
            text: "my charts: https://charts.example-site.com".into(),
        }];
        tw.add_stream(s);
        let report = clean_pilot(&tw, 2);
        assert_eq!(report.chat_urls, ["https://charts.example-site.com"]);
    }

    #[test]
    fn empty_platform_gives_null_report() {
        let tw = Twitch::new();
        let report = clean_pilot(&tw, 2);
        assert_eq!(report.streams_listed, 0);
        assert_eq!(report.candidates, 0);
    }
}
