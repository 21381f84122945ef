//! The monitor's look-ahead: the two-second recordings and QR scans the
//! sampling loop is about to ask for, computed in parallel ahead of it.
//!
//! A recording's frames depend only on the stream, the instant and the
//! recording length, and a scan reads only pixels, so a [`Clip`] is a
//! pure function of the world. The loop keeps every call the fault gate
//! orders (details, chat, record admission, crawls) in its own order and
//! only takes the admitted record's clip from here, computing it inline
//! on a miss with the same [`scan_clip`]. Which thread computed a clip,
//! and whether a speculative one was ever used, cannot change a byte.
//!
//! Work is bounded to one segment of [`SEGMENT_TICKS`] sampling ticks at
//! a time: the first request inside a segment lists the samples the loop
//! can still ask for up to the segment's end and scans them all.

use crate::monitor::{Monitor, RECORD_LENGTH, SAMPLE_INTERVAL, SEARCH_INTERVAL};
use gt_qr::{scan_frame, Frame, FrameHit};
use gt_sim::{SimDuration, SimTime};
use gt_social::{LiveStreamId, YouTube};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Sampling ticks per look-ahead segment: one simulated day.
pub const SEGMENT_TICKS: i64 = 192;

/// What the monitor keeps of one recording: its frame count and the QR
/// hits of its first frame that shows any (every frame of a clip shows
/// the same overlay, so scanning stops there).
#[derive(Debug, Default)]
pub struct Clip {
    pub frames: u64,
    pub hits: Vec<FrameHit>,
}

/// Record [`RECORD_LENGTH`] of stream `id` from `t` into the scratch
/// `frame` and scan it: the frames [`YouTube::record`] returns, scanned
/// in order up to the first with a hit. Counts no API call.
pub fn scan_clip(youtube: &YouTube, id: LiveStreamId, t: SimTime, frame: &mut Frame) -> Clip {
    let stream = youtube.stream(id);
    let mut clip = Clip::default();
    for i in 0..RECORD_LENGTH.as_seconds() {
        let at = t + SimDuration::seconds(i);
        if !stream.is_live(at) {
            break;
        }
        clip.frames += 1;
        if clip.hits.is_empty() && youtube.render_into(id, at, frame) {
            clip.hits = scan_frame(frame);
        }
    }
    clip
}

/// A stream the search can return: the first tick the loop can sample
/// it at (its first live search tick off the outage days) and its end.
struct Candidate {
    first: SimTime,
    end: SimTime,
    id: LiveStreamId,
}

/// The look-ahead over one monitoring window.
pub struct LookAhead<'a> {
    monitor: &'a Monitor,
    youtube: &'a YouTube,
    /// Streams not yet over, by first sample tick.
    candidates: Vec<Candidate>,
    /// One reused frame buffer per worker; the loop thread's is first.
    scratch: Vec<Frame>,
    /// The current segment's samples, sorted, each with its clip until
    /// the loop takes it.
    segment: Vec<((SimTime, LiveStreamId), Option<Clip>)>,
    /// Where the current segment ends (exclusive).
    segment_end: SimTime,
}

impl<'a> LookAhead<'a> {
    /// A look-ahead for `monitor`'s window over `youtube`, scanning on
    /// `threads` workers (the calling loop's own included).
    pub fn new(monitor: &'a Monitor, youtube: &'a YouTube, threads: usize) -> Self {
        let cfg = &monitor.config;
        let mut candidates: Vec<Candidate> = youtube
            .streams()
            .iter()
            .filter(|s| s.end > cfg.window_start && s.start < cfg.window_end)
            .filter(|s| youtube.search_matches(&monitor.keywords.search, s))
            .filter_map(|s| {
                let search = SEARCH_INTERVAL.as_seconds();
                let after_start = (s.start - cfg.window_start).as_seconds().max(0);
                let mut at = cfg.window_start + SimDuration::seconds(ceil_to(after_start, search));
                while at < s.end.min(cfg.window_end) {
                    if !monitor.is_outage(at) {
                        return Some(Candidate {
                            first: at,
                            end: s.end.min(cfg.window_end),
                            id: s.id,
                        });
                    }
                    at += SEARCH_INTERVAL;
                }
                None
            })
            .collect();
        candidates.sort_by_key(|c| (c.first, c.id));
        LookAhead {
            monitor,
            youtube,
            candidates,
            scratch: (0..threads.max(1)).map(|_| Frame::blank(0, 0)).collect(),
            segment: Vec::new(),
            segment_end: cfg.window_start,
        }
    }

    /// The clip of the admitted recording of `id` at tick `t`. Ticks must
    /// not go backwards between calls.
    pub fn clip(&mut self, id: LiveStreamId, t: SimTime) -> Clip {
        if t >= self.segment_end {
            self.fill(t);
        }
        let slot = self
            .segment
            .binary_search_by_key(&(t, id), |(key, _)| *key)
            .ok()
            .and_then(|i| self.segment[i].1.take());
        slot.unwrap_or_else(|| scan_clip(self.youtube, id, t, &mut self.scratch[0]))
    }

    /// List the samples the loop can ask for from tick `from` to the end
    /// of its segment and scan them on every worker.
    fn fill(&mut self, from: SimTime) {
        let cfg = &self.monitor.config;
        let segment = SAMPLE_INTERVAL.as_seconds() * SEGMENT_TICKS;
        let since_start = (from - cfg.window_start).as_seconds();
        self.segment_end =
            cfg.window_start + SimDuration::seconds(ceil_to(since_start + 1, segment));
        self.candidates.retain(|c| c.end > from);
        self.segment.clear();
        for c in &self.candidates {
            if c.first >= self.segment_end {
                break;
            }
            let mut t = c.first.max(from);
            while t < c.end.min(self.segment_end) {
                if !self.monitor.is_outage(t) {
                    self.segment.push(((t, c.id), None));
                }
                t += SAMPLE_INTERVAL;
            }
        }
        self.segment.sort_unstable_by_key(|(key, _)| *key);

        let (youtube, samples) = (self.youtube, &self.segment);
        let next = AtomicUsize::new(0);
        let work = |frame: &mut Frame| {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&((t, id), _)) = samples.get(i) else {
                    return done;
                };
                done.push((i, scan_clip(youtube, id, t, frame)));
            }
        };
        let helpers = samples.len().saturating_sub(1).min(self.scratch.len() - 1);
        let (own, rest) = self.scratch.split_first_mut().expect("one worker");
        let done = std::thread::scope(|s| {
            let spawned: Vec<_> = rest[..helpers]
                .iter_mut()
                .map(|frame| s.spawn(|| work(frame)))
                .collect();
            let mut done = work(own);
            for helper in spawned {
                done.extend(
                    helper
                        .join()
                        .unwrap_or_else(|e| std::panic::resume_unwind(e)),
                );
            }
            done
        });
        for (i, clip) in done {
            self.segment[i].1 = Some(clip);
        }
    }
}

/// The least multiple of `step` at or above `n` (both non-negative).
fn ceil_to(n: i64, step: i64) -> i64 {
    (n + step - 1) / step * step
}
