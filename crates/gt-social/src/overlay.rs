//! The QR overlays a platform's scam videos paint, and what a scan of
//! each finds.
//!
//! Generated worlds reuse landing URLs across scam streams, so a
//! platform shows far fewer distinct overlays than scam streams. An
//! overlay's pixels depend only on its URL and module scale, so frames
//! are keyed by overlay, not by stream: each overlay is encoded at most
//! once, and a frame showing it is QR-scanned at most once.

use crate::youtube::StreamVideo;
use gt_qr::{encode, scan_frame, EcLevel, Frame, FrameHit, Matrix};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A distinct QR overlay `(qr_url, qr_scale)` of one platform: a dense
/// index into its overlay table, assigned in stream-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OverlayId(u32);

/// One distinct overlay, its matrix and its scan, each made on first
/// use.
#[derive(Debug)]
struct Overlay {
    url: String,
    scale: usize,
    /// `None` inside when the URL is too long for any supported version.
    matrix: OnceLock<Option<Matrix>>,
    /// What `scan_frame` finds in the platform's frame showing it.
    hits: OnceLock<Vec<FrameHit>>,
}

/// A platform's overlays and which one each stream shows. A derived
/// cache: the platform builds it lazily on first use, resets it when a
/// stream is added and never snapshots it.
#[derive(Debug, Default)]
pub(crate) struct OverlayTable {
    /// The overlay of each stream by stream index; `None` for benign video.
    by_stream: Vec<Option<OverlayId>>,
    overlays: Vec<Overlay>,
}

impl OverlayTable {
    /// The table of `videos`, one per stream in stream-id order.
    pub(crate) fn build<'a>(videos: impl Iterator<Item = &'a StreamVideo>) -> Self {
        let mut ids: BTreeMap<(&str, usize), OverlayId> = BTreeMap::new();
        let mut overlays = Vec::new();
        let by_stream = videos
            .map(|video| match video {
                StreamVideo::Benign => None,
                StreamVideo::ScamLoop {
                    qr_url, qr_scale, ..
                } => Some(*ids.entry((qr_url, *qr_scale)).or_insert_with(|| {
                    overlays.push(Overlay {
                        url: qr_url.clone(),
                        scale: *qr_scale,
                        matrix: OnceLock::new(),
                        hits: OnceLock::new(),
                    });
                    OverlayId(overlays.len() as u32 - 1)
                })),
            })
            .collect();
        OverlayTable {
            by_stream,
            overlays,
        }
    }

    /// The overlay stream `index` shows, if its video has one.
    pub(crate) fn of_stream(&self, index: usize) -> Option<OverlayId> {
        self.by_stream[index]
    }

    /// The overlay's matrix, encoded on the first call, and its module
    /// scale; `None` if its URL fits no QR version.
    pub(crate) fn matrix(&self, id: OverlayId) -> Option<(&Matrix, usize)> {
        let overlay = &self.overlays[id.0 as usize];
        let matrix = overlay
            .matrix
            .get_or_init(|| encode(overlay.url.as_bytes(), EcLevel::M).ok());
        Some((matrix.as_ref()?, overlay.scale))
    }

    /// What `scan_frame` finds in a frame showing the overlay: on the
    /// first call `paint` paints that frame and it is scanned, later
    /// calls read the answer. The table belongs to one platform, so
    /// `paint` is always that platform's painter.
    pub(crate) fn hits(&self, id: OverlayId, paint: impl FnOnce(&mut Frame)) -> &[FrameHit] {
        self.overlays[id.0 as usize].hits.get_or_init(|| {
            let mut frame = Frame::blank(0, 0);
            paint(&mut frame);
            scan_frame(&frame)
        })
    }
}
