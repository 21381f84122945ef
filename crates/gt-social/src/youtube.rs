//! The YouTube platform model and Data-API surface.
//!
//! Streams, channels, chats and video tracks are generated up front by
//! the world; every API method takes `now` so a monitoring run can replay
//! the platform at any virtual instant. The platform keeps no call
//! counts: the gate a caller passes to each gated endpoint records them.

use crate::overlay::{OverlayId, OverlayTable};
use gt_qr::{Frame, FrameHit};
use gt_sim::faults::{Denied, Gated, Substrate};
use gt_sim::{SimDuration, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::sync::OnceLock;

/// Maximum chat messages returned per history call (YouTube's cap).
pub const CHAT_HISTORY_LIMIT: usize = 70;

#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct ChannelId(pub u64);

#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct LiveStreamId(pub u64);

/// A YouTube channel.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct Channel {
    pub id: ChannelId,
    pub name: String,
    pub subscribers: u64,
}

/// A timestamped chat message.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct ChatMessage {
    pub time: SimTime,
    pub author: String,
    pub text: String,
}

/// What the video track shows.
#[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
pub enum StreamVideo {
    /// Ordinary content; frames carry no QR code.
    Benign,
    /// A looping pre-recorded scam video with a QR overlay.
    ScamLoop {
        /// URL encoded in the QR code.
        qr_url: String,
        /// If set, the QR is only visible periodically: (visible,
        /// hidden) second spans, repeating from stream start. `None`
        /// means continuously visible (the common case the pilot study
        /// found).
        qr_duty_cycle: Option<(i64, i64)>,
        /// Pixels per module when painted into a frame.
        qr_scale: usize,
    },
}

/// What a video frame shows, and so all its pixels depend on: the
/// texture's phase and, while a QR overlay is visible, which overlay is
/// painted. Streams that show the same `(qr_url, qr_scale)` share the
/// overlay, so their frames share keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameKey {
    /// Seconds since the stream started, modulo the texture's period.
    phase: u8,
    /// The QR overlay painted; `None` when none is.
    overlay: Option<OverlayId>,
}

/// How many viewers a stream has over time.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct ViewerCurve {
    /// Peak concurrent viewers.
    pub peak_concurrent: u64,
    /// Total views accumulated by stream end.
    pub total_views: u64,
}

impl ViewerCurve {
    /// Concurrent viewers at a fraction `f` in `[0, 1]` of the stream's
    /// lifetime (triangular ramp: up to the peak at 60%, then decay).
    pub fn concurrent_at(&self, f: f64) -> u64 {
        let f = f.clamp(0.0, 1.0);
        let shape = if f <= 0.6 { f / 0.6 } else { (1.0 - f) / 0.4 };
        (self.peak_concurrent as f64 * shape).round() as u64
    }

    /// Total views accumulated by fraction `f` of the lifetime.
    pub fn views_by(&self, f: f64) -> u64 {
        (self.total_views as f64 * f.clamp(0.0, 1.0)).round() as u64
    }
}

/// A livestream with its full (pre-generated) history.
#[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
pub struct LiveStream {
    pub id: LiveStreamId,
    pub channel: ChannelId,
    pub title: String,
    pub description: String,
    /// BCP-47-ish language tag, e.g. "en", "es".
    pub language: String,
    /// Topics the search backend associates with the stream beyond its
    /// literal text (YouTube search returns streams "associated with"
    /// keywords, not only textual matches — Appendix B.2 finds 45% of
    /// returned streams contain no search keyword verbatim).
    pub fuzzy_topics: Vec<String>,
    pub start: SimTime,
    pub end: SimTime,
    pub video: StreamVideo,
    pub viewers: ViewerCurve,
    /// All chat messages over the stream's lifetime, time-ordered.
    pub chat: Vec<ChatMessage>,
}

impl LiveStream {
    pub fn is_live(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }

    fn lifetime_fraction(&self, now: SimTime) -> f64 {
        let total = (self.end - self.start).as_seconds().max(1);
        ((now - self.start).as_seconds() as f64 / total as f64).clamp(0.0, 1.0)
    }

    /// Whether the QR overlay is visible at `now`.
    pub fn qr_visible(&self, now: SimTime) -> bool {
        match &self.video {
            StreamVideo::Benign => false,
            StreamVideo::ScamLoop { qr_duty_cycle, .. } => match qr_duty_cycle {
                None => true,
                Some((on, off)) => {
                    let period = on + off;
                    let offset = (now - self.start).as_seconds().rem_euclid(period.max(1));
                    offset < *on
                }
            },
        }
    }
}

/// Five zero counters that keep the world snapshot's bytes where the
/// benchmark pins them: a snapshot-format placeholder, never written
/// after construction, that the next re-pin removes. A decoded value is
/// kept as decoded, so a decode re-encodes to the same bytes.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
struct ApiCallCounts {
    search: u64,
    stream_details: u64,
    channel_details: u64,
    chat_history: u64,
    record: u64,
}

/// The YouTube platform.
/// Lazily built (start, id) rows sorted by start time, plus the maximum
/// stream duration, so `live_at` queries touch only plausible candidates
/// instead of scanning the whole population on every poll.
type LiveIndex = (Vec<(SimTime, LiveStreamId)>, SimDuration);

#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct YouTube {
    channels: Vec<Channel>,
    streams: Vec<LiveStream>,
    /// Snapshot-format placeholder (see `ApiCallCounts`).
    calls: ApiCallCounts,
    /// Derived acceleration structure; rebuilt lazily on first `live_at`
    /// query, so it is excluded from snapshots.
    #[store(skip)]
    live_index: OnceLock<LiveIndex>,
    /// Derived overlay table with each overlay's matrix and scan, built
    /// lazily on the first frame rendered or scanned, so it is excluded
    /// from snapshots too.
    #[store(skip)]
    overlays: OnceLock<OverlayTable>,
}

/// A search result row (what the search endpoint exposes).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub stream: LiveStreamId,
    pub channel: ChannelId,
    pub title: String,
}

impl YouTube {
    pub fn new() -> Self {
        YouTube::default()
    }

    // ---- world-building (not part of the public API surface) ----

    pub fn add_channel(&mut self, name: String, subscribers: u64) -> ChannelId {
        let id = ChannelId(self.channels.len() as u64);
        self.channels.push(Channel {
            id,
            name,
            subscribers,
        });
        id
    }

    pub fn add_stream(&mut self, mut stream: LiveStream) -> LiveStreamId {
        let id = LiveStreamId(self.streams.len() as u64);
        stream.id = id;
        assert!(
            stream.start < stream.end,
            "stream must have positive duration"
        );
        assert!(
            (stream.channel.0 as usize) < self.channels.len(),
            "unknown channel"
        );
        assert!(
            stream.chat.is_sorted_by_key(|m| m.time),
            "chat must be time-ordered"
        );
        self.streams.push(stream);
        self.live_index = OnceLock::new();
        self.overlays = OnceLock::new();
        id
    }

    /// The overlay table of the current streams.
    fn overlays(&self) -> &OverlayTable {
        self.overlays
            .get_or_init(|| OverlayTable::build(self.streams.iter().map(|s| &s.video)))
    }

    /// Ids of streams live at `now` (index-accelerated).
    pub fn live_at(&self, now: SimTime) -> Vec<LiveStreamId> {
        let (by_start, max_duration) = self.live_index.get_or_init(|| {
            let mut by_start: Vec<(SimTime, LiveStreamId)> =
                self.streams.iter().map(|s| (s.start, s.id)).collect();
            by_start.sort();
            let max_duration = self
                .streams
                .iter()
                .map(|s| s.end - s.start)
                .max()
                .unwrap_or(SimDuration::ZERO);
            (by_start, max_duration)
        });
        // Candidates: streams starting in (now - max_duration, now].
        let lo = by_start.partition_point(|&(start, _)| start <= now - *max_duration);
        let hi = by_start.partition_point(|&(start, _)| start <= now);
        by_start[lo..hi]
            .iter()
            .filter(|&&(_, id)| self.streams[id.0 as usize].is_live(now))
            .map(|&(_, id)| id)
            .collect()
    }

    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Direct (non-API) access for ground-truth evaluation.
    pub fn stream(&self, id: LiveStreamId) -> &LiveStream {
        &self.streams[id.0 as usize]
    }

    pub fn streams(&self) -> &[LiveStream] {
        &self.streams
    }

    // ---- the API surface the pipeline uses ----

    /// Keyword search over live streams: returns streams live at `now`
    /// whose title, description or channel name matches any keyword
    /// (whole-word, case-insensitive) — the filtering the YouTube API
    /// performs server-side.
    pub fn search_live(&self, keywords: &gt_text::KeywordSet, now: SimTime) -> Vec<SearchHit> {
        self.live_at(now)
            .into_iter()
            .map(|id| &self.streams[id.0 as usize])
            .filter(|s| self.search_matches(keywords, s))
            .map(|s| SearchHit {
                stream: s.id,
                channel: s.channel,
                title: s.title.clone(),
            })
            .collect()
    }

    /// Whether [`YouTube::search_live`] returns `stream` for `keywords`
    /// while it is live: the search backend's filter, not an API call.
    pub fn search_matches(&self, keywords: &gt_text::KeywordSet, stream: &LiveStream) -> bool {
        let channel_name = &self.channels[stream.channel.0 as usize].name;
        keywords.matches(&stream.title)
            || keywords.matches(&stream.description)
            || keywords.matches(channel_name)
            || stream.fuzzy_topics.iter().any(|t| keywords.matches(t))
    }

    /// Stream metadata at `now` (concurrent and total viewers); `None`
    /// if the stream is not live.
    pub fn stream_details(&self, id: LiveStreamId, now: SimTime) -> Option<(u64, u64)> {
        let s = self.streams.get(id.0 as usize)?;
        if !s.is_live(now) {
            return None;
        }
        let f = s.lifetime_fraction(now);
        Some((s.viewers.concurrent_at(f), s.viewers.views_by(f)))
    }

    /// Channel metadata (subscriber count).
    pub fn channel_details(&self, id: ChannelId) -> Option<Channel> {
        self.channels.get(id.0 as usize).cloned()
    }

    /// The last [`CHAT_HISTORY_LIMIT`] chat messages posted at or before
    /// `now`, borrowed from the stream. Empty if the stream is not live.
    pub fn chat_history(&self, id: LiveStreamId, now: SimTime) -> &[ChatMessage] {
        let Some(s) = self.streams.get(id.0 as usize) else {
            return &[];
        };
        if !s.is_live(now) {
            return &[];
        }
        // `chat` is time-ordered: the answer is the tail ending at `now`.
        let visible = s.chat.partition_point(|m| m.time <= now);
        &s.chat[visible.saturating_sub(CHAT_HISTORY_LIMIT)..visible]
    }

    /// Record `duration` of the stream's video starting at `now`,
    /// returning one sampled frame per second. Empty if not live.
    ///
    /// This is the Streamlink step: the monitoring pipeline records two
    /// seconds at a time.
    pub fn record(&self, id: LiveStreamId, now: SimTime, duration: SimDuration) -> Vec<Frame> {
        let mut frames = Vec::new();
        for i in 0..duration.as_seconds().max(1) {
            // An empty buffer: `render_into` allocates it at frame size.
            let mut frame = Frame::blank(0, 0);
            if !self.render_into(id, now + SimDuration::seconds(i), &mut frame) {
                break;
            }
            frames.push(frame);
        }
        frames
    }

    /// The QR hits of each frame [`YouTube::record`] returns for the same
    /// arguments, in order: what `scan_frame` finds in that frame.
    ///
    /// A frame that shows no overlay (benign video, or a duty cycle's
    /// hidden span) has none. A frame that shows one has that overlay's
    /// hits, painted at texture phase 0 and scanned the first time any
    /// stream shows the overlay. The phase cannot change them: the
    /// texture lies in rows above every overlay's quiet zone, and the
    /// overlay, quiet zone included, is painted over what lies under it.
    pub fn record_hits(
        &self,
        id: LiveStreamId,
        now: SimTime,
        duration: SimDuration,
    ) -> impl Iterator<Item = &[FrameHit]> + '_ {
        (0..duration.as_seconds().max(1)).map_while(move |i| {
            let key = self.frame_key(id, now + SimDuration::seconds(i))?;
            Some(match key.overlay {
                None => &[][..],
                Some(overlay) => self.overlays().hits(overlay, |frame| {
                    self.paint(FrameKey { phase: 0, ..key }, frame)
                }),
            })
        })
    }

    /// The key of the frame stream `id` shows at `at`; `None` if the
    /// stream does not exist or is not live at `at`.
    fn frame_key(&self, id: LiveStreamId, at: SimTime) -> Option<FrameKey> {
        let stream = self.streams.get(id.0 as usize)?;
        if !stream.is_live(at) {
            return None;
        }
        Some(FrameKey {
            phase: (at - stream.start).as_seconds().rem_euclid(TEXTURE_PERIOD) as u8,
            overlay: self
                .overlays()
                .of_stream(id.0 as usize)
                .filter(|_| stream.qr_visible(at)),
        })
    }

    /// Paint the frame `key` names over `frame`, which is resized to the
    /// frame geometry only if it has another. Reads only the key and the
    /// keyed overlay, so equal keys paint equal pixels.
    fn paint(&self, key: FrameKey, frame: &mut Frame) {
        blank_into(frame);
        // A bit of deterministic "video content" texture at the top so
        // frames are not trivially blank: the pixels where
        // `(x + 3y + phase) % 11 == 0`, stepped to directly.
        let period = TEXTURE_PERIOD as usize;
        for y in 0..TEXTURE_ROWS {
            let first = (period - (y * 3 + key.phase as usize) % period) % period;
            for x in (first..FRAME_W).step_by(period) {
                frame.set(x, y, 40);
            }
        }
        let Some((matrix, scale)) = key.overlay.and_then(|id| self.overlays().matrix(id)) else {
            return;
        };
        let scale = scale.max(1);
        let span = matrix.size() * scale + 8 * scale;
        let (span, margin, scale) = if span + 10 <= FRAME_W && span + 50 <= FRAME_H {
            (span, 5, scale)
        } else {
            // Fall back to scale 1 in a corner.
            (matrix.size() + 8, 2, 1)
        };
        let top = FRAME_H - span - margin;
        // `record_hits` scans an overlay at one phase and answers for all.
        debug_assert!(TEXTURE_ROWS <= top, "the texture reaches the overlay");
        frame.paint_qr(matrix, FRAME_W - span - margin, top, scale);
    }

    /// Render the stream's video frame at `at` into `frame`, reusing its
    /// buffer; `false`, leaving `frame` as it was, if the stream does
    /// not exist or is not live at `at`. It is the frame source behind
    /// [`YouTube::record`], and paints exactly the frame `record` returns
    /// for that second.
    pub fn render_into(&self, id: LiveStreamId, at: SimTime, frame: &mut Frame) -> bool {
        let Some(key) = self.frame_key(id, at) else {
            return false;
        };
        self.paint(key, frame);
        true
    }

    // ---- gated variants of the API surface ----
    //
    // Each routes through a [`Gated`], which consults its
    // `FaultPlan` before answering (retrying transients inside its
    // budget) and records per-call telemetry into its sink.
    // `Err(Denied)` means the poll was shed. A successful call serves
    // data as of `now` even when retries delayed it (snapshot
    // semantics), so a faulty run observes a strict subset of a clean
    // run. The ungated forms stay public beside them because the
    // benchmark's substrate replay (`givebench/src/replay.rs`) calls
    // them directly.

    /// [`YouTube::search_live`] behind a checked-call gate.
    pub fn search_live_gated(
        &self,
        keywords: &gt_text::KeywordSet,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<Vec<SearchHit>, Denied> {
        gate.checked_counted(Substrate::YoutubeSearch, now, || {
            let hits = self.search_live(keywords, now);
            let n = hits.len() as u64;
            (hits, n)
        })
    }

    /// [`YouTube::stream_details`] behind a checked-call gate.
    pub fn stream_details_gated(
        &self,
        id: LiveStreamId,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<Option<(u64, u64)>, Denied> {
        gate.checked_counted(Substrate::YoutubeDetails, now, || {
            let details = self.stream_details(id, now);
            let n = details.is_some() as u64;
            (details, n)
        })
    }

    /// [`YouTube::chat_history`] behind a checked-call gate.
    pub fn chat_history_gated(
        &self,
        id: LiveStreamId,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<&[ChatMessage], Denied> {
        gate.checked_counted(Substrate::YoutubeChat, now, || {
            let messages = self.chat_history(id, now);
            let n = messages.len() as u64;
            (messages, n)
        })
    }
}

/// Frame geometry used by the simulated video tracks.
pub(crate) const FRAME_W: usize = 320;
pub(crate) const FRAME_H: usize = 240;

/// Seconds after which a stream's texture repeats.
const TEXTURE_PERIOD: i64 = 11;
/// The texture covers the frame's rows `0..TEXTURE_ROWS`.
const TEXTURE_ROWS: usize = 40;

/// Make `frame` a blank frame of the video geometry, reusing its buffer
/// when it already has that geometry.
pub(crate) fn blank_into(frame: &mut Frame) {
    if (frame.width, frame.height) == (FRAME_W, FRAME_H) {
        frame.luma.fill(255);
    } else {
        *frame = Frame::blank(FRAME_W, FRAME_H);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_qr::{encode, scan_frame, EcLevel};
    use gt_text::KeywordSet;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn t(s: i64) -> SimTime {
        SimTime(1_690_156_800 + s) // 2023-07-24
    }

    fn platform_with_scam_stream() -> (YouTube, LiveStreamId) {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("Crypto News 24/7".into(), 16_800);
        let id = yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "Brad Garlinghouse: 50,000,000 XRP giveaway LIVE".into(),
            description: "scan the QR to participate".into(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t(0),
            end: t(7200),
            video: StreamVideo::ScamLoop {
                qr_url: "https://xrp-2x.live/claim".into(),
                qr_duty_cycle: None,
                qr_scale: 2,
            },
            viewers: ViewerCurve {
                peak_concurrent: 900,
                total_views: 12_000,
            },
            chat: vec![ChatMessage {
                time: t(100),
                author: "mod".into(),
                text: "participate now: https://xrp-2x.live/claim".into(),
            }],
        });
        (yt, id)
    }

    #[test]
    fn search_matches_title_keywords_only_while_live() {
        let (yt, _) = platform_with_scam_stream();
        let kw = KeywordSet::new(["xrp", "bitcoin"]);
        assert_eq!(yt.search_live(&kw, t(100)).len(), 1);
        assert!(yt.search_live(&kw, t(-100)).is_empty(), "before start");
        assert!(yt.search_live(&kw, t(7300)).is_empty(), "after end");
        let other = KeywordSet::new(["dogecoin"]);
        assert!(yt.search_live(&other, t(100)).is_empty());
    }

    #[test]
    fn search_matches_channel_name() {
        let (yt, _) = platform_with_scam_stream();
        let kw = KeywordSet::new(["crypto"]);
        assert_eq!(yt.search_live(&kw, t(100)).len(), 1);
    }

    #[test]
    fn stream_details_report_viewer_curve() {
        let (yt, id) = platform_with_scam_stream();
        let (conc_early, views_early) = yt.stream_details(id, t(60)).unwrap();
        let (conc_peak, views_peak) = yt.stream_details(id, t(4320)).unwrap(); // 60% point
        assert!(conc_peak > conc_early);
        assert!(views_peak > views_early);
        assert_eq!(conc_peak, 900);
        assert!(yt.stream_details(id, t(9999)).is_none());
    }

    #[test]
    fn chat_history_caps_at_limit() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("c".into(), 10);
        let chat: Vec<ChatMessage> = (0..100)
            .map(|i| ChatMessage {
                time: t(i),
                author: format!("u{i}"),
                text: format!("m{i}"),
            })
            .collect();
        let id = yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "t".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t(0),
            end: t(1000),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 5,
                total_views: 10,
            },
            chat,
        });
        let history = yt.chat_history(id, t(500));
        assert_eq!(history.len(), CHAT_HISTORY_LIMIT);
        assert_eq!(history.last().unwrap().text, "m99");
        assert_eq!(history[0].text, "m30");
        // Earlier in the stream, fewer messages exist.
        assert_eq!(yt.chat_history(id, t(10)).len(), 11);
    }

    #[test]
    #[should_panic(expected = "chat must be time-ordered")]
    fn add_stream_rejects_unordered_chat() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("c".into(), 10);
        let chat = [5, 3]
            .map(|s| ChatMessage {
                time: t(s),
                author: "u".into(),
                text: "m".into(),
            })
            .to_vec();
        yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "t".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t(0),
            end: t(1000),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 5,
                total_views: 10,
            },
            chat,
        });
    }

    #[test]
    fn recorded_frames_contain_scannable_qr() {
        let (yt, id) = platform_with_scam_stream();
        let frames = yt.record(id, t(300), SimDuration::seconds(2));
        assert_eq!(frames.len(), 2);
        let hits = scan_frame(&frames[0]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload, b"https://xrp-2x.live/claim");
    }

    #[test]
    fn benign_stream_frames_have_no_qr() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("just chatting".into(), 100);
        let id = yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "bitcoin market analysis".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t(0),
            end: t(3600),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 50,
                total_views: 400,
            },
            chat: vec![],
        });
        let frames = yt.record(id, t(60), SimDuration::seconds(2));
        assert_eq!(frames.len(), 2);
        assert!(scan_frame(&frames[0]).is_empty());
    }

    #[test]
    fn periodic_qr_duty_cycle() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("c".into(), 10);
        let id = yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel: ch,
            title: "eth".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: t(0),
            end: t(3600),
            video: StreamVideo::ScamLoop {
                qr_url: "https://eth-x2.org".into(),
                qr_duty_cycle: Some((15, 285)), // 15s visible per 5 min
                qr_scale: 2,
            },
            viewers: ViewerCurve {
                peak_concurrent: 10,
                total_views: 50,
            },
            chat: vec![],
        });
        let s = yt.stream(id);
        assert!(s.qr_visible(t(5)));
        assert!(!s.qr_visible(t(20)));
        assert!(s.qr_visible(t(305)));
        // Recording during the hidden window sees nothing.
        let frames = yt.record(id, t(100), SimDuration::seconds(2));
        assert!(scan_frame(&frames[0]).is_empty());
        // Recording during the visible window sees the QR.
        let frames = yt.record(id, t(2), SimDuration::seconds(2));
        assert_eq!(scan_frame(&frames[0]).len(), 1);
    }

    #[test]
    fn rendering_into_a_reused_buffer_matches_recording() {
        let (mut yt, scam) = platform_with_scam_stream();
        let benign = yt.add_stream(LiveStream {
            video: StreamVideo::Benign,
            ..yt.stream(scam).clone()
        });
        let mut frame = Frame::blank(0, 0);
        for (id, at) in [(scam, 300), (benign, 300), (scam, 301), (benign, 7000)] {
            assert!(yt.render_into(id, t(at), &mut frame));
            let recorded = yt.record(id, t(at), SimDuration::seconds(1));
            assert!(frame.luma == recorded[0].luma, "{id:?} at {at}");
        }
        assert!(!yt.render_into(scam, t(7200), &mut frame), "ended");
        assert!(
            !yt.render_into(LiveStreamId(9), t(300), &mut frame),
            "no such stream"
        );
    }

    #[test]
    fn recording_stops_at_stream_end() {
        let (yt, id) = platform_with_scam_stream();
        let frames = yt.record(id, t(7199), SimDuration::seconds(5));
        assert_eq!(frames.len(), 1, "only one second remained");
    }

    #[test]
    fn record_hits_answers_one_entry_per_recorded_frame() {
        let (yt, id) = platform_with_scam_stream();
        let two = SimDuration::seconds(2);
        assert_eq!(yt.record(id, t(10), two).len(), 2);
        assert_eq!(yt.record_hits(id, t(10), two).count(), 2);
        assert_eq!(yt.record_hits(id, t(7199), two).count(), 1, "ends");
    }

    #[test]
    fn viewer_curve_shape() {
        let v = ViewerCurve {
            peak_concurrent: 100,
            total_views: 1000,
        };
        assert_eq!(v.concurrent_at(0.0), 0);
        assert_eq!(v.concurrent_at(0.6), 100);
        assert!(v.concurrent_at(0.9) < 100);
        assert_eq!(v.views_by(1.0), 1000);
        assert_eq!(v.views_by(0.5), 500);
    }

    /// The frame renderer as first written: per-pixel texture test and a
    /// fresh QR encode for every frame.
    fn reference_frame(stream: &LiveStream, at: SimTime) -> Frame {
        let mut frame = Frame::blank(FRAME_W, FRAME_H);
        let phase = (at - stream.start).as_seconds() as usize;
        for y in 0..40 {
            for x in 0..FRAME_W {
                if (x + y * 3 + phase).is_multiple_of(11) {
                    frame.set(x, y, 40);
                }
            }
        }
        if let StreamVideo::ScamLoop {
            qr_url, qr_scale, ..
        } = &stream.video
        {
            if stream.qr_visible(at) {
                if let Ok(matrix) = encode(qr_url.as_bytes(), EcLevel::M) {
                    let scale = (*qr_scale).max(1);
                    let span = matrix.size() * scale + 8 * scale;
                    if span + 10 <= FRAME_W && span + 50 <= FRAME_H {
                        frame.paint_qr(&matrix, FRAME_W - span - 5, FRAME_H - span - 5, scale);
                    } else {
                        let span1 = matrix.size() + 8;
                        frame.paint_qr(&matrix, FRAME_W - span1 - 2, FRAME_H - span1 - 2, 1);
                    }
                }
            }
        }
        frame
    }

    #[test]
    fn memoized_frames_match_fresh_encoding() {
        let mut yt = YouTube::new();
        let ch = yt.add_channel("c".into(), 10);
        let mut ids = Vec::new();
        // Scaled, too large for its corner (scale-1 fallback), periodic
        // (visible 15 s of every 40), and benign.
        for (url, duty, scale) in [
            (Some("https://xrp-2x.live/claim"), None, 2),
            (Some("https://eth-x2.org/a-rather-long-claim-path"), None, 9),
            (Some("https://btc-event.net"), Some((15, 25)), 3),
            (None, None, 1),
        ] {
            let video = match url {
                Some(url) => StreamVideo::ScamLoop {
                    qr_url: url.into(),
                    qr_duty_cycle: duty,
                    qr_scale: scale,
                },
                None => StreamVideo::Benign,
            };
            ids.push(yt.add_stream(LiveStream {
                id: LiveStreamId(0),
                channel: ch,
                title: "t".into(),
                description: String::new(),
                language: "en".into(),
                fuzzy_topics: vec![],
                start: t(0),
                end: t(3600),
                video,
                viewers: ViewerCurve {
                    peak_concurrent: 5,
                    total_views: 10,
                },
                chat: vec![],
            }));
        }
        let long_url = b"https://eth-x2.org/a-rather-long-claim-path";
        let fallback = encode(long_url, EcLevel::M).unwrap().size() + 8;
        assert!(
            fallback * 9 + 10 > FRAME_W,
            "stream 1 exercises the fallback"
        );
        // Repeated passes: the first fills the memo, later ones hit it.
        for _ in 0..3 {
            for &id in &ids {
                for start in [0, 13, 14, 30, 47, 611] {
                    let frames = yt.record(id, t(start), SimDuration::seconds(2));
                    assert_eq!(frames.len(), 2);
                    for (i, frame) in frames.iter().enumerate() {
                        let expect = reference_frame(yt.stream(id), t(start + i as i64));
                        assert_eq!((frame.width, frame.height), (expect.width, expect.height));
                        assert!(frame.luma == expect.luma, "stream {id:?} at {start}+{i}");
                    }
                }
            }
        }
        // Hidden and visible frames of the periodic stream both occur.
        let periodic = yt.stream(ids[2]);
        assert!(periodic.qr_visible(t(14)) && !periodic.qr_visible(t(15)));
    }

    /// Benign video on two streams that share a texture phase, a
    /// continuous overlay, two duty-cycled overlays (one on another
    /// phase) and an overlay too large for its corner.
    fn keyed_platform() -> &'static YouTube {
        static YT: OnceLock<YouTube> = OnceLock::new();
        YT.get_or_init(|| {
            let mut yt = YouTube::new();
            let ch = yt.add_channel("c".into(), 10);
            let scam = |url: &str, duty, scale| StreamVideo::ScamLoop {
                qr_url: url.into(),
                qr_duty_cycle: duty,
                qr_scale: scale,
            };
            for (start, end, video) in [
                (0, 3_600, StreamVideo::Benign),
                (22, 3_000, StreamVideo::Benign),
                (0, 3_600, scam("https://xrp-2x.live/claim", None, 2)),
                (11, 4_000, scam("https://btc-event.net", Some((15, 25)), 3)),
                (5, 3_600, scam("https://eth-x2.org/a", Some((30, 60)), 2)),
                (
                    33,
                    3_300,
                    scam("https://eth-x2.org/a-rather-long-claim", None, 9),
                ),
            ] {
                yt.add_stream(LiveStream {
                    id: LiveStreamId(0),
                    channel: ch,
                    title: "t".into(),
                    description: String::new(),
                    language: "en".into(),
                    fuzzy_topics: vec![],
                    start: t(start),
                    end: t(end),
                    video,
                    viewers: ViewerCurve {
                        peak_concurrent: 5,
                        total_views: 10,
                    },
                    chat: vec![],
                });
            }
            yt
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Frames with equal keys are byte-identical, across streams and
        /// instants: each rendered frame is the one the first-written
        /// renderer paints from the stream and the instant alone, and a
        /// stream has a key exactly when it renders. `record_hits` yields
        /// a frame exactly then too, with what a scan of it finds. The
        /// second instant is a whole number of texture periods from the
        /// first, so equal keys are common.
        #[test]
        fn equal_frame_keys_render_identical_frames(
            first in 0u64..6,
            other in 0u64..6,
            same_stream in any::<bool>(),
            at in -600i64..4_200,
            periods in -300i64..300,
        ) {
            let yt = keyed_platform();
            let second = if same_stream { first } else { other };
            let samples = [
                (LiveStreamId(first), t(at)),
                (LiveStreamId(second), t(at + TEXTURE_PERIOD * periods)),
            ];
            let mut frames = [Frame::blank(0, 0), Frame::blank(0, 0)];
            let mut keys = [None; 2];
            for (i, &(id, at)) in samples.iter().enumerate() {
                keys[i] = yt.frame_key(id, at);
                prop_assert_eq!(yt.render_into(id, at, &mut frames[i]), keys[i].is_some());
                let hits: Vec<_> = yt.record_hits(id, at, SimDuration::seconds(1)).collect();
                prop_assert_eq!(hits.len(), keys[i].is_some() as usize);
                if keys[i].is_some() {
                    let expect = reference_frame(yt.stream(id), at);
                    prop_assert!(frames[i].luma == expect.luma, "{:?} at {:?}", id, at);
                    prop_assert_eq!(hits[0], scan_frame(&expect));
                }
            }
            if keys[0].is_some() && keys[0] == keys[1] {
                prop_assert!(frames[0].luma == frames[1].luma, "{:?}", samples);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Streams drawn from a small pool of overlays share frame keys
        /// exactly when they share an overlay: at equal phase and
        /// visibility, two streams' keys are equal iff no overlay is
        /// visible or their `(qr_url, qr_scale)` are equal. Each keyed
        /// frame is the one the first-written renderer paints with a fresh
        /// encode, and `record_hits` answers for it what a scan of it
        /// finds. The pool holds a URL too long for any QR version and a
        /// scale (9) that needs the scale-1 corner fallback; URL index 3 is
        /// benign video.
        #[test]
        fn streams_share_frame_keys_exactly_when_they_share_an_overlay(
            streams in proptest::collection::vec(
                ((0usize..4, 0usize..3, 0usize..3), (0i64..3, 0i64..4)),
                1..7,
            ),
            at in 0i64..200,
        ) {
            let long = format!("https://eth-x2.org/{}", "a".repeat(300));
            let urls = ["https://xrp-2x.live/claim", "https://btc-event.net", &long];
            let scales = [2, 3, 9];
            let duties = [None, Some((15, 25)), Some((30, 60))];
            let mut yt = YouTube::new();
            let ch = yt.add_channel("c".into(), 10);
            for &((url, scale, duty), (offset, periods)) in &streams {
                let video = match urls.get(url) {
                    Some(url) => StreamVideo::ScamLoop {
                        qr_url: url.to_string(),
                        qr_duty_cycle: duties[duty],
                        qr_scale: scales[scale],
                    },
                    None => StreamVideo::Benign,
                };
                yt.add_stream(LiveStream {
                    id: LiveStreamId(0),
                    channel: ch,
                    title: "t".into(),
                    description: String::new(),
                    language: "en".into(),
                    fuzzy_topics: vec![],
                    start: t(offset + TEXTURE_PERIOD * periods),
                    end: t(3_600),
                    video,
                    viewers: ViewerCurve {
                        peak_concurrent: 5,
                        total_views: 10,
                    },
                    chat: vec![],
                });
            }
            let at = t(at);
            let overlay = |s: &LiveStream| match &s.video {
                StreamVideo::ScamLoop { qr_url, qr_scale, .. } => Some((qr_url.clone(), *qr_scale)),
                StreamVideo::Benign => None,
            };
            let keyed: Vec<(&LiveStream, FrameKey)> = yt
                .streams()
                .iter()
                .filter_map(|s| Some((s, yt.frame_key(s.id, at)?)))
                .collect();
            let mut frame = Frame::blank(0, 0);
            for &(s, key) in &keyed {
                yt.paint(key, &mut frame);
                prop_assert!(frame.luma == reference_frame(s, at).luma, "{:?}", s.id);
                let hits: Vec<_> = yt.record_hits(s.id, at, SimDuration::seconds(1)).collect();
                prop_assert_eq!(hits, [scan_frame(&frame)], "{:?}", s.id);
            }
            for &(a, a_key) in &keyed {
                for &(b, b_key) in &keyed {
                    let visible = a.qr_visible(at);
                    if a_key.phase != b_key.phase || visible != b.qr_visible(at) {
                        continue;
                    }
                    let shared = !visible || overlay(a) == overlay(b);
                    prop_assert_eq!(a_key == b_key, shared, "{:?} and {:?}", a.id, b.id);
                }
            }
        }
    }
}
