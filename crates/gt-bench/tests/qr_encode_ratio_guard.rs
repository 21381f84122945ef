//! Guard: encoding an overlay's QR symbol must cost well under scanning
//! the frame it is painted into.
//!
//! The first record of each overlay encodes its URL once and scans one
//! painted frame once; every later record reads both answers. The
//! encoder picks its mask by scoring all eight candidates on bit-packed
//! rows and columns. Scoring them module by module instead costs about
//! ten times as much, several times a scan, and this fails. Both sides
//! walk the distinct overlays of one generated world: the encode side
//! encodes their URLs (`EcLevel::M`, as the overlay tables do), the scan
//! side scans the frame YouTube renders for each. Both are timed
//! best-of-N, interleaved in one process, so machine speed cancels.
//! Debug builds skip it: the threshold is set from release timings.

use gt_qr::{encode, scan_frame, EcLevel, Frame};
use gt_sim::SimDuration;
use gt_social::StreamVideo;
use gt_world::{World, WorldConfig};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 40;
/// Measured 0.25-0.28x in release builds on a 2-vCPU x86-64 VM (about
/// 17 µs against 60 µs per overlay). With the masks scored module by
/// module it was 3.4x.
const MAX_RATIO: f64 = 0.6;

/// Best-of-`ROUNDS` wall time of `work`.
fn best(mut work: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        let started = Instant::now();
        work();
        best = best.min(started.elapsed());
    }
    best
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing threshold set from release timings")]
fn encoding_an_overlay_costs_well_under_scanning_its_frame() {
    let world = World::generate(WorldConfig::scaled(0.05));
    let yt = &world.youtube;
    let mut seen = BTreeSet::new();
    let mut urls = Vec::new();
    let mut frames = Vec::new();
    for s in yt.streams() {
        let StreamVideo::ScamLoop {
            qr_url, qr_scale, ..
        } = &s.video
        else {
            continue;
        };
        if !seen.insert((qr_url, qr_scale)) {
            continue;
        }
        let at = (0..(s.end - s.start).as_seconds())
            .map(|i| s.start + SimDuration::seconds(i))
            .find(|&at| s.qr_visible(at))
            .expect("the overlay shows at some instant");
        let mut frame = Frame::blank(0, 0);
        assert!(yt.render_into(s.id, at, &mut frame));
        assert_eq!(scan_frame(&frame).len(), 1, "{:?} shows its QR", s.id);
        urls.push(qr_url.as_bytes());
        frames.push(frame);
    }
    assert!(urls.len() > 10, "{} overlays", urls.len());

    let encode_all = || {
        for url in &urls {
            black_box(encode(black_box(url), EcLevel::M).unwrap());
        }
    };
    let scan_all = || {
        for frame in &frames {
            black_box(scan_frame(black_box(frame)));
        }
    };
    // Interleave so a slow phase of the machine hits both alike.
    let mut encode_best = Duration::MAX;
    let mut scan_best = Duration::MAX;
    for _ in 0..3 {
        encode_best = encode_best.min(best(encode_all));
        scan_best = scan_best.min(best(scan_all));
    }
    let ratio = encode_best.as_secs_f64() / scan_best.as_secs_f64().max(1e-9);
    let n = urls.len() as u32;
    assert!(
        ratio <= MAX_RATIO,
        "encode {:?} vs scan {:?} per overlay: {ratio:.2}x (limit {MAX_RATIO}x)",
        encode_best / n,
        scan_best / n,
    );
}
