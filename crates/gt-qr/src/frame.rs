//! Locating and sampling a QR symbol inside a video frame.
//!
//! The measurement pipeline samples two-second clips of each livestream
//! and scans the frames for QR codes. Frames here are luma grids; the
//! scanner finds finder patterns by their 1:1:3:1:1 dark/light run
//! signature, infers the module size and grid origin, samples the
//! modules, and hands the matrix to [`crate::decode()`].
//!
//! Upright symbols at any integer scale and position are supported
//! (matching how scam streams embed static overlay QR graphics).
//!
//! Rows are scanned word-parallel: a row's dark pixels are packed into a
//! bit mask eight at a time, run lengths are read off it with
//! `trailing_zeros`, and an integer ratio test rejects most run windows
//! before the float test that decides.

use crate::decode::{decode, DecodeError};
use crate::matrix::Matrix;
use crate::tables::version_for_size;

/// A grayscale frame. Values ≥ 128 are treated as light.
#[derive(Debug, Clone)]
pub struct Frame {
    pub width: usize,
    pub height: usize,
    /// Row-major luma values.
    pub luma: Vec<u8>,
}

impl Frame {
    /// A blank (white) frame.
    pub fn blank(width: usize, height: usize) -> Self {
        Frame {
            width,
            height,
            luma: vec![255; width * height],
        }
    }

    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.luma[y * self.width + x]
    }

    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.luma[y * self.width + x] = v;
    }

    fn dark(&self, x: usize, y: usize) -> bool {
        self.get(x, y) < 128
    }

    /// Paint a QR matrix into the frame at (`left`, `top`) with
    /// `scale` pixels per module, surrounded by a 4-module quiet zone.
    pub fn paint_qr(&mut self, matrix: &Matrix, left: usize, top: usize, scale: usize) {
        assert!(scale >= 1);
        let quiet = 4 * scale;
        let span = matrix.size() * scale + 2 * quiet;
        assert!(
            left + span <= self.width && top + span <= self.height,
            "QR of span {span} does not fit at ({left},{top}) in {}x{}",
            self.width,
            self.height
        );
        // Quiet zone.
        for y in 0..span {
            for x in 0..span {
                self.set(left + x, top + y, 255);
            }
        }
        for r in 0..matrix.size() {
            for c in 0..matrix.size() {
                let v = if matrix.get(r, c) { 0 } else { 255 };
                for dy in 0..scale {
                    for dx in 0..scale {
                        self.set(
                            left + quiet + c * scale + dx,
                            top + quiet + r * scale + dy,
                            v,
                        );
                    }
                }
            }
        }
    }
}

/// A located finder-pattern candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FinderCandidate {
    center_x: f64,
    center_y: f64,
    module_size: f64,
}

/// Scan a row for 1:1:3:1:1 dark/light run signatures. `mask` is
/// scratch space for the row's bit-packed dark mask.
fn row_candidates(frame: &Frame, y: usize, mask: &mut Vec<u64>) -> Vec<FinderCandidate> {
    let mut out = Vec::new();
    let row = &frame.luma[y * frame.width..(y + 1) * frame.width];
    // An all-light row is a single light run and holds no signature.
    // Most rows of a frame are all light; a min over the row (which
    // compiles to vector instructions) finds them without a run walk.
    if row.iter().fold(u8::MAX, |lo, &v| lo.min(v)) >= 128 {
        return out;
    }
    dark_mask(row, mask);
    // The lengths of the last five runs. Runs alternate, so when the
    // newest run is dark the five read dark, light, dark, light, dark.
    let mut lens = [0; 5];
    let mut runs = 0;
    let mut x = 0;
    while x < row.len() {
        let dark = (mask[x / 64] >> (x % 64)) & 1 == 1;
        let start = x;
        x = run_end(mask, x, dark, row.len());
        lens.copy_within(1.., 0);
        lens[4] = x - start;
        runs += 1;
        if runs < 5 || !dark {
            continue;
        }
        let [l0, l1, l2, l3, l4] = lens;
        let total = l0 + l1 + l2 + l3 + l4;
        if !near_finder_ratio(lens, total) {
            continue;
        }
        let unit = total as f64 / 7.0;
        let ok = |len: usize, expect: f64| {
            let tol = (unit * 0.5).max(0.5);
            (len as f64 - expect * unit).abs() <= tol * expect.max(1.0)
        };
        if ok(l0, 1.0) && ok(l1, 1.0) && ok(l2, 3.0) && ok(l3, 1.0) && ok(l4, 1.0) {
            out.push(FinderCandidate {
                center_x: (x - total) as f64 + total as f64 / 2.0,
                center_y: y as f64,
                module_size: unit,
            });
        }
    }
    out
}

/// Fill `mask` with one bit per pixel of `row`, set where the pixel is
/// dark (bit `x % 64` of word `x / 64`; bits past the row stay clear).
fn dark_mask(row: &[u8], mask: &mut Vec<u64>) {
    mask.clear();
    mask.resize(row.len().div_ceil(64), 0);
    let mut chunks = row.chunks_exact(8);
    for (i, chunk) in chunks.by_ref().enumerate() {
        let pixels = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        // A pixel is light iff its high bit is set. The multiply gathers
        // the eight high bits into the top byte, pixel `k` at bit 56 + k
        // (no two partial products overlap, so nothing carries).
        let light = (pixels & 0x8080_8080_8080_8080).wrapping_mul(0x0002_0408_1020_4081) >> 56;
        mask[i / 8] |= (!light & 0xFF) << (8 * (i % 8));
    }
    let tail = row.len() - chunks.remainder().len();
    for (x, &v) in (tail..).zip(chunks.remainder()) {
        if v < 128 {
            mask[x / 64] |= 1 << (x % 64);
        }
    }
}

/// The end of the run of `dark` pixels starting at `x`: the first pixel
/// at or after `x` of the other colour, or `len`.
fn run_end(mask: &[u64], mut x: usize, dark: bool, len: usize) -> usize {
    while let Some(&word) = mask.get(x / 64) {
        // Set bits mark pixels of the other colour.
        let other = (if dark { !word } else { word }) >> (x % 64);
        if other != 0 {
            return (x + other.trailing_zeros() as usize).min(len);
        }
        x = (x / 64 + 1) * 64;
    }
    len
}

/// An integer pre-test of the 1:1:3:1:1 ratio: `false` only for windows
/// the float test in [`row_candidates`] rejects. Scaled by 14, that test
/// reads `|14·len − 2·e·total| ≤ e·max(total, 7)` for a run expected to
/// be `e` modules wide; this one allows one more pixel (14) on top, far
/// more than the float rounding it must never undercut.
fn near_finder_ratio(lens: [usize; 5], total: usize) -> bool {
    let total = total as i64;
    let slack = total.max(7);
    lens.iter()
        .zip([1, 1, 3, 1, 1])
        .all(|(&len, e)| (14 * len as i64 - 2 * e * total).abs() <= e * slack + 14)
}

/// Verify a horizontal candidate by checking the same signature
/// vertically through its centre.
fn verify_vertical(frame: &Frame, cand: &FinderCandidate) -> bool {
    let x = cand.center_x.round() as usize;
    if x >= frame.width {
        return false;
    }
    let cy = cand.center_y.round() as isize;
    // Walk up and down from the centre collecting run lengths.
    let count_run = |mut y: isize, step: isize, dark: bool| -> usize {
        let mut n = 0;
        while y >= 0 && (y as usize) < frame.height && frame.dark(x, y as usize) == dark {
            n += 1;
            y += step;
        }
        n
    };
    let core_up = count_run(cy, -1, true);
    let core_down = count_run(cy + 1, 1, true);
    let core = core_up + core_down;
    let white_up = count_run(cy - core_up as isize, -1, false);
    let white_down = count_run(cy + core_down as isize + 1, 1, false);
    let cap_up = count_run(cy - core_up as isize - white_up as isize, -1, true);
    let cap_down = count_run(cy + core_down as isize + white_down as isize + 1, 1, true);
    let unit = cand.module_size;
    let near = |v: usize, expect: f64| (v as f64 - expect * unit).abs() <= unit * 0.75 + 0.5;
    near(core, 3.0)
        && near(white_up, 1.0)
        && near(white_down, 1.0)
        && near(cap_up, 1.0)
        && near(cap_down, 1.0)
}

/// Cluster nearby candidates into distinct finder patterns.
fn cluster(cands: Vec<FinderCandidate>) -> Vec<FinderCandidate> {
    let mut clusters: Vec<(FinderCandidate, usize)> = Vec::new();
    for c in cands {
        let mut merged = false;
        for (rep, n) in &mut clusters {
            if (rep.center_x - c.center_x).abs() < rep.module_size * 2.0
                && (rep.center_y - c.center_y).abs() < rep.module_size * 2.0
            {
                // Running average.
                let total = *n as f64;
                rep.center_x = (rep.center_x * total + c.center_x) / (total + 1.0);
                rep.center_y = (rep.center_y * total + c.center_y) / (total + 1.0);
                rep.module_size = (rep.module_size * total + c.module_size) / (total + 1.0);
                *n += 1;
                merged = true;
                break;
            }
        }
        if !merged {
            clusters.push((c, 1));
        }
    }
    clusters.into_iter().map(|(c, _)| c).collect()
}

/// A decoded QR payload with its location in the frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameHit {
    pub payload: Vec<u8>,
    /// Top-left pixel of the symbol (excluding quiet zone).
    pub left: usize,
    pub top: usize,
    /// Symbol side length in modules.
    pub symbol_size: usize,
}

/// Scan `frame` for upright QR symbols and decode them.
pub fn scan_frame(frame: &Frame) -> Vec<FrameHit> {
    // Collect horizontal candidates on every row (cheap — frames are
    // small in the pipeline), verify vertically, cluster.
    let mut cands = Vec::new();
    let mut mask = Vec::new();
    for y in 0..frame.height {
        for c in row_candidates(frame, y, &mut mask) {
            if verify_vertical(frame, &c) {
                cands.push(c);
            }
        }
    }
    let finders = cluster(cands);
    if finders.len() < 3 {
        return Vec::new();
    }

    // Try every triple that forms an axis-aligned right angle:
    // top-left, top-right, bottom-left.
    let mut hits: Vec<FrameHit> = Vec::new();
    for (i, tl) in finders.iter().enumerate() {
        for (j, tr) in finders.iter().enumerate() {
            for (k, bl) in finders.iter().enumerate() {
                if i == j || i == k || j == k {
                    continue;
                }
                let unit = (tl.module_size + tr.module_size + bl.module_size) / 3.0;
                // Axis alignment within a module.
                if (tl.center_y - tr.center_y).abs() > unit
                    || (tl.center_x - bl.center_x).abs() > unit
                {
                    continue;
                }
                let dx = tr.center_x - tl.center_x;
                let dy = bl.center_y - tl.center_y;
                if dx <= 0.0 || dy <= 0.0 || (dx - dy).abs() > unit * 2.0 {
                    continue;
                }
                // Distance between finder centres = (size - 7) modules.
                let size_est = (dx / unit).round() as isize + 7;
                let Some(_) = version_for_size(size_est.max(0) as usize) else {
                    continue;
                };
                let size = size_est as usize;
                // Sample the grid.
                let origin_x = tl.center_x - 3.5 * unit;
                let origin_y = tl.center_y - 3.5 * unit;
                if let Some(hit) = sample_and_decode(frame, origin_x, origin_y, unit, size) {
                    if !hits.iter().any(|h| h.payload == hit.payload) {
                        hits.push(hit);
                    }
                }
            }
        }
    }
    hits
}

fn sample_and_decode(
    frame: &Frame,
    origin_x: f64,
    origin_y: f64,
    unit: f64,
    size: usize,
) -> Option<FrameHit> {
    let mut modules = Vec::with_capacity(size * size);
    for r in 0..size {
        for c in 0..size {
            let x = origin_x + (c as f64 + 0.5) * unit;
            let y = origin_y + (r as f64 + 0.5) * unit;
            if x < 0.0 || y < 0.0 {
                return None;
            }
            let (xi, yi) = (x.floor() as usize, y.floor() as usize);
            if xi >= frame.width || yi >= frame.height {
                return None;
            }
            modules.push(frame.dark(xi, yi));
        }
    }
    let matrix = Matrix::from_modules(size, modules)?;
    match decode(&matrix) {
        Ok(payload) => Some(FrameHit {
            payload,
            left: origin_x.round() as usize,
            top: origin_y.round() as usize,
            symbol_size: size,
        }),
        Err(DecodeError::BadSize(_) | DecodeError::BadFormat) => None,
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::tables::EcLevel;

    fn qr(text: &str) -> Matrix {
        encode(text.as_bytes(), EcLevel::M).unwrap()
    }

    #[test]
    fn finds_qr_at_scale_one() {
        let m = qr("https://btc-x2.com");
        let mut frame = Frame::blank(120, 120);
        frame.paint_qr(&m, 10, 10, 1);
        let hits = scan_frame(&frame);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload, b"https://btc-x2.com");
    }

    #[test]
    fn finds_qr_at_larger_scales() {
        for scale in [2usize, 3, 5] {
            let m = qr("https://xrp-event.live/go");
            let span = m.size() * scale + 8 * scale + 20;
            let mut frame = Frame::blank(span + 30, span + 30);
            frame.paint_qr(&m, 13, 17, scale);
            let hits = scan_frame(&frame);
            assert_eq!(hits.len(), 1, "scale {scale}");
            assert_eq!(
                hits[0].payload, b"https://xrp-event.live/go",
                "scale {scale}"
            );
        }
    }

    #[test]
    fn blank_frame_has_no_hits() {
        let frame = Frame::blank(200, 150);
        assert!(scan_frame(&frame).is_empty());
    }

    #[test]
    fn noisy_frame_without_qr_has_no_hits() {
        let mut frame = Frame::blank(160, 120);
        // Deterministic speckle noise.
        for y in 0..frame.height {
            for x in 0..frame.width {
                if (x * 31 + y * 17) % 7 == 0 {
                    frame.set(x, y, 0);
                }
            }
        }
        assert!(scan_frame(&frame).is_empty());
    }

    #[test]
    fn qr_amid_background_clutter() {
        let m = qr("https://eth-drop.org");
        let mut frame = Frame::blank(220, 180);
        // Clutter stripes away from the symbol.
        for y in 0..180 {
            for x in 160..220 {
                frame.set(x, y, if (y / 3) % 2 == 0 { 0 } else { 255 });
            }
        }
        frame.paint_qr(&m, 5, 40, 2);
        let hits = scan_frame(&frame);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].payload, b"https://eth-drop.org");
    }

    #[test]
    fn reports_symbol_geometry() {
        let m = qr("geom");
        let mut frame = Frame::blank(100, 100);
        frame.paint_qr(&m, 20, 30, 1);
        let hits = scan_frame(&frame);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].symbol_size, m.size());
        // Origin is at the top-left of the symbol proper (after the
        // 4-module quiet zone).
        assert!((hits[0].left as isize - 24).abs() <= 1);
        assert!((hits[0].top as isize - 34).abs() <= 1);
    }

    #[test]
    fn two_qrs_in_one_frame() {
        let a = qr("https://first.com");
        let b = qr("https://second.org");
        let mut frame = Frame::blank(300, 120);
        frame.paint_qr(&a, 5, 5, 2);
        frame.paint_qr(&b, 160, 5, 2);
        let mut payloads: Vec<String> = scan_frame(&frame)
            .into_iter()
            .map(|h| String::from_utf8(h.payload).unwrap())
            .collect();
        payloads.sort();
        assert_eq!(payloads, ["https://first.com", "https://second.org"]);
    }

    /// The row scanner as first written: every run of the row collected
    /// into a Vec, then every window of five tested.
    fn reference_row_candidates(frame: &Frame, y: usize) -> Vec<FinderCandidate> {
        let mut out = Vec::new();
        let mut runs: Vec<(bool, usize, usize)> = Vec::new();
        let mut x = 0;
        while x < frame.width {
            let dark = frame.dark(x, y);
            let start = x;
            while x < frame.width && frame.dark(x, y) == dark {
                x += 1;
            }
            runs.push((dark, start, x - start));
        }
        for w in runs.windows(5) {
            let [(d0, s0, l0), (d1, _, l1), (d2, _, l2), (d3, _, l3), (d4, _, l4)] =
                [w[0], w[1], w[2], w[3], w[4]];
            if !(d0 && !d1 && d2 && !d3 && d4) {
                continue;
            }
            let unit = (l0 + l1 + l2 + l3 + l4) as f64 / 7.0;
            let ok = |len: usize, expect: f64| {
                let tol = (unit * 0.5).max(0.5);
                (len as f64 - expect * unit).abs() <= tol * expect.max(1.0)
            };
            if ok(l0, 1.0) && ok(l1, 1.0) && ok(l2, 3.0) && ok(l3, 1.0) && ok(l4, 1.0) {
                out.push(FinderCandidate {
                    center_x: s0 as f64 + (l0 + l1 + l2 + l3 + l4) as f64 / 2.0,
                    center_y: y as f64,
                    module_size: unit,
                });
            }
        }
        out
    }

    fn assert_rows_match_reference(frame: &Frame) {
        for y in 0..frame.height {
            assert_eq!(
                row_candidates(frame, y, &mut Vec::new()),
                reference_row_candidates(frame, y),
                "row {y} of a {}x{} frame",
                frame.width,
                frame.height
            );
        }
    }

    #[test]
    fn textured_frames_scan_like_the_reference() {
        for (scale, text) in [
            (1usize, "https://btc-x2.com"),
            (2, "https://xrp-event.live/go"),
            (3, "https://eth-drop.org/claim"),
        ] {
            let m = qr(text);
            let mut frame = Frame::blank(320, 240);
            // A textured band on top (dark dots every 11 pixels), light
            // rows below it, and the symbol in the bottom-right corner.
            for y in 0..40 {
                for x in 0..320 {
                    if (x + y * 3 + scale).is_multiple_of(11) {
                        frame.set(x, y, 40);
                    }
                }
            }
            let span = m.size() * scale + 8 * scale;
            frame.paint_qr(&m, 320 - span - 5, 240 - span - 5, scale);
            assert_rows_match_reference(&frame);
            let hits = scan_frame(&frame);
            assert_eq!(hits.len(), 1, "scale {scale}");
            assert_eq!(hits[0].payload, text.as_bytes(), "scale {scale}");
            assert_eq!(hits[0].symbol_size, m.size());
        }
        // Clutter that starts dark on the left edge and ends dark on the
        // right, so the first and last runs of a row are signature runs.
        let mut frame = Frame::blank(64, 20);
        for y in 0..20 {
            for x in 0..64 {
                if (x / (1 + y % 4)) % 2 == 0 || x % 7 == 3 {
                    frame.set(x, y, 0);
                }
            }
        }
        assert_rows_match_reference(&frame);
    }

    /// One row of `width` pixels, either side of the threshold by
    /// `shade`. `kind` 0 alternates 1-px runs from `phase` (1:1:1:1:1 is
    /// a candidate); 1 paints the textured band's dots every `period`
    /// px; 2 lays `runs` out as alternating runs, dark first when
    /// `phase` is even; 3 lays out 1:1:3:1:1 signatures at the scales in
    /// `runs`, each with one run up to a pixel off and a light gap after
    /// it.
    fn test_row(
        kind: u8,
        width: usize,
        phase: usize,
        period: usize,
        runs: &[usize],
        shade: u8,
    ) -> Frame {
        let luma = |dark: bool| {
            let i = shade as usize % 3;
            if dark {
                [0, 40, 127][i]
            } else {
                [128, 200, 255][i]
            }
        };
        let dark: Vec<bool> = match kind {
            0 => (0..width).map(|x| (x + phase).is_multiple_of(2)).collect(),
            1 => (0..width)
                .map(|x| (x + phase).is_multiple_of(period))
                .collect(),
            2 => runs
                .iter()
                .enumerate()
                .flat_map(|(i, &len)| std::iter::repeat_n((i + phase).is_multiple_of(2), len))
                .cycle()
                .take(width)
                .collect(),
            _ => runs
                .iter()
                .flat_map(|&scale| {
                    let mut lens = [scale, scale, 3 * scale, scale, scale, scale + 2];
                    lens[phase % 5] = (lens[phase % 5] + period % 3).saturating_sub(1).max(1);
                    lens.into_iter()
                        .enumerate()
                        .flat_map(|(i, len)| std::iter::repeat_n(i % 2 == 0 && i < 5, len))
                })
                .cycle()
                .take(width)
                .collect(),
        };
        let mut frame = Frame::blank(width, 1);
        for (x, &d) in dark.iter().enumerate() {
            frame.set(x, 0, luma(d));
        }
        frame
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn word_parallel_rows_match_the_reference(
            kind in 0u8..4,
            width in 0usize..=200,
            phase in 0usize..64,
            period in 2usize..16,
            runs in proptest::collection::vec(1usize..10, 1..24),
            shade in proptest::prelude::any::<u8>(),
            stale in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
        ) {
            let frame = test_row(kind, width, phase, period, &runs, shade);
            // A mask left over from another row must not leak in.
            let mut mask = stale;
            proptest::prop_assert_eq!(
                row_candidates(&frame, 0, &mut mask),
                reference_row_candidates(&frame, 0)
            );
        }
    }

    #[test]
    fn one_pixel_alternation_is_a_candidate() {
        let frame = test_row(0, 9, 0, 2, &[], 0);
        let found = row_candidates(&frame, 0, &mut Vec::new());
        assert_eq!(found, reference_row_candidates(&frame, 0));
        assert_eq!(found.len(), 3, "windows at x = 0, 2 and 4");
        let found = row_candidates(&test_row(3, 200, 2, 4, &[1, 2, 5], 1), 0, &mut Vec::new());
        assert!(found.len() >= 3, "off-by-one signatures still match");
    }

    #[test]
    fn frames_narrower_than_a_finder_have_no_hits() {
        for width in 0..8 {
            let mut frame = Frame::blank(width, 12);
            for y in 0..12 {
                for x in 0..width {
                    if (x + y) % 2 == 0 {
                        frame.set(x, y, 0);
                    }
                }
            }
            assert_rows_match_reference(&frame);
            assert!(scan_frame(&frame).is_empty(), "width {width}");
        }
    }
}
