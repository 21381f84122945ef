//! The Twitch platform model and Helix-API surface.
//!
//! Differences from YouTube that the paper's Appendix B.1 works around:
//!
//! * the API returns **all** live streams (no server-side keyword
//!   search) — the pipeline must filter client-side on title/tags and
//!   drop game categories;
//! * chat has **no history endpoint** — messages are only observable
//!   while polling a live stream;
//! * a ~15-second advertisement clip precedes stream content, so
//!   recordings shorter than that may capture no content frames.

use crate::overlay::{OverlayId, OverlayTable};
use crate::youtube::{blank_into, ChatMessage, StreamVideo, ViewerCurve, FRAME_H, FRAME_W};
use gt_qr::{Frame, FrameHit};
use gt_sim::faults::{Denied, Gated, Substrate};
use gt_sim::{SimDuration, SimTime};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::sync::OnceLock;

/// Seconds of advertisement inserted before stream content.
pub const AD_SECONDS: i64 = 15;

#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct TwitchStreamId(pub u64);

/// A Twitch stream.
#[derive(Debug, Clone, PartialEq, StoreEncode, StoreDecode)]
pub struct TwitchStream {
    pub id: TwitchStreamId,
    pub channel_name: String,
    pub title: String,
    pub tags: Vec<String>,
    /// Twitch category, e.g. "Just Chatting", "Fortnite", "Crypto".
    pub category: String,
    pub start: SimTime,
    pub end: SimTime,
    pub video: StreamVideo,
    pub viewers: ViewerCurve,
    pub chat: Vec<ChatMessage>,
}

impl TwitchStream {
    pub fn is_live(&self, now: SimTime) -> bool {
        self.start <= now && now < self.end
    }
}

/// What a recorded Twitch frame shows, and so all its pixels depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKey {
    /// The advertisement card of a recording's first [`AD_SECONDS`].
    Ad,
    /// Stream content with the QR overlay its video shows, if any:
    /// streams that show the same `(qr_url, qr_scale)` share the key.
    Content(Option<OverlayId>),
}

/// Three zero counters that keep the world snapshot's bytes where the
/// benchmark pins them: a snapshot-format placeholder, never written
/// after construction, that the next re-pin removes. A decoded value is
/// kept as decoded, so a decode re-encodes to the same bytes.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
struct TwitchApiCalls {
    get_streams: u64,
    record: u64,
    chat_poll: u64,
}

/// The Twitch platform.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct Twitch {
    streams: Vec<TwitchStream>,
    /// Snapshot-format placeholder (see `TwitchApiCalls`).
    calls: TwitchApiCalls,
    /// Derived overlay table with each overlay's matrix and scan, built
    /// lazily on the first frame recorded or scanned; excluded from
    /// snapshots.
    #[store(skip)]
    overlays: OnceLock<OverlayTable>,
}

impl Twitch {
    pub fn new() -> Self {
        Twitch::default()
    }

    pub fn add_stream(&mut self, mut stream: TwitchStream) -> TwitchStreamId {
        let id = TwitchStreamId(self.streams.len() as u64);
        stream.id = id;
        assert!(stream.start < stream.end);
        assert!(
            stream.chat.is_sorted_by_key(|m| m.time),
            "chat must be time-ordered"
        );
        self.streams.push(stream);
        self.overlays = OnceLock::new();
        id
    }

    /// The overlay table of the current streams.
    fn overlays(&self) -> &OverlayTable {
        self.overlays
            .get_or_init(|| OverlayTable::build(self.streams.iter().map(|s| &s.video)))
    }

    pub fn stream(&self, id: TwitchStreamId) -> &TwitchStream {
        &self.streams[id.0 as usize]
    }

    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// All streams live at `now` (the Helix "get streams" endpoint; no
    /// keyword filtering server-side), behind `gate`: `Err(Denied)`
    /// means the poll was shed before it reached the platform. A served
    /// call answers as of `now`.
    pub fn get_streams(
        &self,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<Vec<&TwitchStream>, Denied> {
        gate.checked_counted(Substrate::TwitchList, now, || {
            let streams: Vec<_> = self.streams.iter().filter(|s| s.is_live(now)).collect();
            let n = streams.len() as u64;
            (streams, n)
        })
    }

    /// Record `duration` starting at `now`. The first [`AD_SECONDS`]
    /// seconds after the recording starts show an advertisement (no
    /// stream content, no QR).
    pub fn record(&self, id: TwitchStreamId, now: SimTime, duration: SimDuration) -> Vec<Frame> {
        self.frame_keys(id, now, duration)
            .map(|key| {
                let mut frame = Frame::blank(0, 0);
                self.paint(key, &mut frame);
                frame
            })
            .collect()
    }

    /// The QR hits of each frame [`Twitch::record`] returns for the same
    /// arguments, in order: what `scan_frame` finds in that frame. The
    /// advertisement card and
    /// content without an overlay have none; content with one has that
    /// overlay's hits, painted and scanned the first time any stream
    /// shows it.
    pub fn record_hits(
        &self,
        id: TwitchStreamId,
        now: SimTime,
        duration: SimDuration,
    ) -> impl Iterator<Item = &[FrameHit]> + '_ {
        self.frame_keys(id, now, duration).map(|key| match key {
            FrameKey::Ad | FrameKey::Content(None) => &[][..],
            FrameKey::Content(Some(overlay)) => self
                .overlays()
                .hits(overlay, |frame| self.paint(key, frame)),
        })
    }

    /// The keys of the frames [`Twitch::record`] returns for the same
    /// arguments, in order.
    fn frame_keys(
        &self,
        id: TwitchStreamId,
        now: SimTime,
        duration: SimDuration,
    ) -> impl Iterator<Item = FrameKey> + '_ {
        let stream = self.streams.get(id.0 as usize);
        let content = stream.map(|s| FrameKey::Content(self.overlays().of_stream(s.id.0 as usize)));
        (0..duration.as_seconds().max(1)).map_while(move |i| {
            stream.filter(|s| s.is_live(now + SimDuration::seconds(i)))?;
            if i < AD_SECONDS {
                Some(FrameKey::Ad)
            } else {
                content
            }
        })
    }

    /// Paint the frame `key` names over `frame`, reusing its buffer.
    /// Reads only the key and the keyed overlay, so equal keys paint
    /// equal pixels.
    fn paint(&self, key: FrameKey, frame: &mut Frame) {
        blank_into(frame);
        match key {
            FrameKey::Ad => {
                // A mid-gray card: no QR, recognisably not content.
                for y in 80..160 {
                    frame.luma[y * FRAME_W + 60..y * FRAME_W + 260].fill(100);
                }
            }
            FrameKey::Content(overlay) => {
                if let Some((matrix, scale)) = overlay.and_then(|id| self.overlays().matrix(id)) {
                    let scale = scale.max(1);
                    let span = matrix.size() * scale + 8 * scale;
                    if span + 10 <= FRAME_W.min(FRAME_H) {
                        frame.paint_qr(matrix, FRAME_W - span - 5, FRAME_H - span - 5, scale);
                    }
                }
            }
        }
    }

    /// Chat messages in `(since, now]`, borrowed from the stream, behind
    /// `gate` (as for [`Twitch::get_streams`]); only available while
    /// live (Twitch has no chat history API).
    pub fn chat_since(
        &self,
        id: TwitchStreamId,
        since: SimTime,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<&[ChatMessage], Denied> {
        gate.checked_counted(Substrate::TwitchChat, now, || {
            let messages = match self.streams.get(id.0 as usize) {
                Some(s) if s.is_live(now) => {
                    // `chat` is time-ordered: the answer is the run
                    // between the bounds.
                    let end = s.chat.partition_point(|m| m.time <= now);
                    let start = s.chat.partition_point(|m| m.time <= since).min(end);
                    &s.chat[start..end]
                }
                _ => &[][..],
            };
            (messages, messages.len() as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_qr::scan_frame;
    use proptest::prelude::*;

    fn t(s: i64) -> SimTime {
        SimTime(1_688_169_600 + s) // 2023-07-01 (the pilot window)
    }

    fn gaming_stream() -> TwitchStream {
        TwitchStream {
            id: TwitchStreamId(0),
            channel_name: "speedrunner99".into(),
            title: "casual runs".into(),
            tags: vec!["gaming".into()],
            category: "Fortnite".into(),
            start: t(0),
            end: t(7200),
            video: StreamVideo::Benign,
            viewers: ViewerCurve {
                peak_concurrent: 120,
                total_views: 900,
            },
            chat: vec![],
        }
    }

    #[test]
    fn get_streams_returns_all_live() {
        let mut tw = Twitch::new();
        tw.add_stream(gaming_stream());
        let mut other = gaming_stream();
        other.start = t(10_000);
        other.end = t(20_000);
        tw.add_stream(other);
        let gate = &mut Gated::disabled();
        assert_eq!(tw.get_streams(t(100), gate).unwrap().len(), 1);
        assert_eq!(tw.get_streams(t(12_000), gate).unwrap().len(), 1);
        assert_eq!(tw.get_streams(t(8_000), gate).unwrap().len(), 0);
    }

    #[test]
    fn recording_starts_with_ad() {
        let mut tw = Twitch::new();
        let mut s = gaming_stream();
        s.video = StreamVideo::ScamLoop {
            qr_url: "https://btc-2x.fund".into(),
            qr_duty_cycle: None,
            qr_scale: 2,
        };
        let id = tw.add_stream(s);
        // A 10-second recording is all advertisement: no QR captured.
        let frames = tw.record(id, t(100), SimDuration::seconds(10));
        assert_eq!(frames.len(), 10);
        assert!(frames.iter().all(|f| scan_frame(f).is_empty()));
        // A 20-second recording reaches content (the paper's fix).
        let frames = tw.record(id, t(100), SimDuration::seconds(20));
        assert!(frames[frames.len() - 1..]
            .iter()
            .any(|f| !scan_frame(f).is_empty()));
    }

    #[test]
    fn chat_has_no_history_after_end() {
        let mut tw = Twitch::new();
        let mut s = gaming_stream();
        s.chat = vec![ChatMessage {
            time: t(50),
            author: "a".into(),
            text: "hello".into(),
        }];
        let id = tw.add_stream(s);
        let gate = &mut Gated::disabled();
        assert_eq!(tw.chat_since(id, t(0), t(100), gate).unwrap().len(), 1);
        // After the stream ends, nothing is retrievable.
        assert!(tw.chat_since(id, t(0), t(8000), gate).unwrap().is_empty());
        // Interval filtering; an inverted interval is empty.
        assert!(tw.chat_since(id, t(60), t(100), gate).unwrap().is_empty());
        assert!(tw.chat_since(id, t(100), t(60), gate).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "chat must be time-ordered")]
    fn add_stream_rejects_unordered_chat() {
        let mut s = gaming_stream();
        s.chat = [5, 3]
            .map(|at| ChatMessage {
                time: t(at),
                author: "u".into(),
                text: "m".into(),
            })
            .to_vec();
        Twitch::new().add_stream(s);
    }

    proptest! {
        /// The borrowed window is exactly what filtering the whole chat
        /// for `(since, now]` returns, live or not.
        #[test]
        fn chat_since_matches_a_filter_over_the_whole_chat(
            mut times in proptest::collection::vec(0i64..60, 0..40),
            since in 0i64..80,
            ahead in 0i64..80,
            end in 1i64..120,
        ) {
            times.sort_unstable();
            let now = since + ahead;
            let mut s = gaming_stream();
            s.end = t(end);
            s.chat = times
                .iter()
                .enumerate()
                .map(|(i, &at)| ChatMessage {
                    time: t(at),
                    author: format!("u{i}"),
                    text: format!("m{i}"),
                })
                .collect();
            let mut tw = Twitch::new();
            let id = tw.add_stream(s);
            let stream = tw.stream(id);
            let expected: Vec<ChatMessage> = if stream.is_live(t(now)) {
                stream
                    .chat
                    .iter()
                    .filter(|m| m.time > t(since) && m.time <= t(now))
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
            let gate = &mut Gated::disabled();
            prop_assert_eq!(tw.chat_since(id, t(since), t(now), gate).unwrap(), expected.as_slice());
        }
    }

    #[test]
    fn record_hits_answers_one_entry_per_recorded_frame() {
        let mut tw = Twitch::new();
        let id = tw.add_stream(gaming_stream());
        assert_eq!(tw.record(id, t(0), SimDuration::seconds(2)).len(), 2);
        assert_eq!(tw.record_hits(id, t(0), SimDuration::seconds(2)).count(), 2);
    }

    #[test]
    fn painted_keys_match_recorded_frames() {
        let mut tw = Twitch::new();
        let benign = tw.add_stream(gaming_stream());
        // Two streams that show one overlay, and one that shows its URL
        // at another scale.
        let [scam, shared, rescaled] = [2, 2, 3].map(|qr_scale| {
            let mut s = gaming_stream();
            s.video = StreamVideo::ScamLoop {
                qr_url: "https://btc-2x.fund".into(),
                qr_duty_cycle: None,
                qr_scale,
            };
            tw.add_stream(s)
        });
        let content = |id| tw.frame_keys(id, t(100), SimDuration::seconds(20)).last();
        assert_eq!(content(scam), content(shared));
        assert_ne!(content(scam), content(rescaled));
        assert_ne!(content(scam), content(benign));
        let mut frame = Frame::blank(0, 0);
        for (id, at) in [
            (scam, 100),
            (benign, 100),
            (shared, 100),
            (rescaled, 100),
            (scam, 7_190),
            (TwitchStreamId(9), 0),
        ] {
            let recorded = tw.record(id, t(at), SimDuration::seconds(20));
            let keys: Vec<_> = tw.frame_keys(id, t(at), SimDuration::seconds(20)).collect();
            assert_eq!(keys.len(), recorded.len(), "{id:?} at {at}");
            for (key, expect) in keys.into_iter().zip(&recorded) {
                tw.paint(key, &mut frame);
                assert!(frame.luma == expect.luma, "{key:?}");
            }
            let scanned: Vec<_> = recorded.iter().map(scan_frame).collect();
            let hits: Vec<_> = tw
                .record_hits(id, t(at), SimDuration::seconds(20))
                .collect();
            assert_eq!(hits, scanned, "{id:?} at {at}");
        }
    }
}
