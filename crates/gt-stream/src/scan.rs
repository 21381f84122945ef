//! The per-window QR scan memo.
//!
//! A simulated frame is a pure function of its key (the platform's
//! `frame_key`: texture phase and visible QR overlay on YouTube,
//! advertisement or content with its overlay on Twitch), and a scan
//! reads only pixels. An overlay is a distinct `(qr_url, qr_scale)`, so
//! streams that reuse a landing URL share keys. A monitoring window
//! paints and scans each distinct key once and answers every later frame
//! with that key from the memo. Looped scam videos show the same few
//! frames again and again: the main window of a scale-0.05 world records
//! 12,945 frames with 189 distinct keys.

use gt_qr::{scan_frame, Frame, FrameHit};
use std::collections::BTreeMap;

/// QR hits by frame key, and the one buffer a missed key is painted
/// into.
pub(crate) struct ScanMemo<K> {
    hits: BTreeMap<K, Vec<FrameHit>>,
    frame: Frame,
}

impl<K: Ord + Copy> ScanMemo<K> {
    pub(crate) fn new() -> Self {
        ScanMemo {
            hits: BTreeMap::new(),
            frame: Frame::blank(0, 0),
        }
    }

    /// The QR hits of the frame `key` names: painted by `paint` and
    /// scanned the first time the key is asked for, looked up after.
    pub(crate) fn hits(&mut self, key: K, paint: impl FnOnce(K, &mut Frame)) -> &[FrameHit] {
        let frame = &mut self.frame;
        self.hits.entry(key).or_insert_with(|| {
            paint(key, frame);
            scan_frame(frame)
        })
    }

    /// How many distinct keys the memo has scanned.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.hits.len()
    }
}
