//! Guard: the main monitoring window must cost well under rendering and
//! QR-scanning its recorded frames one by one.
//!
//! A window reads its recordings through `YouTube::record_hits`, which
//! scans each distinct QR overlay once, the first time any stream shows
//! it, and answers every other frame from the platform's overlay table.
//! Looped scam videos show few overlays, so the scans are a small share
//! of the window. If that memo stops hitting (say it is keyed by stream
//! or instant again, or reset between calls), the window pays a render
//! and a scan per frame, on top of its polls, and costs more than the
//! one-by-one reference.
//!
//! The memo lives on the world, so each timed window runs on a world
//! restored from one snapshot outside the timed region: every round
//! starts from an empty overlay table and pays all of its scans, never
//! reusing those of an earlier round. Both sides are timed best-of-N,
//! interleaved in one process, so machine speed cancels. Debug builds
//! skip it.

use gt_qr::{scan_frame, Frame};
use gt_sim::SimDuration;
use gt_stream::monitor::{OUTAGE_DAYS, RECORD_LENGTH, SAMPLE_INTERVAL};
use gt_stream::{search_keyword_set, Monitor, MonitorConfig, MonitorReport};
use gt_world::{World, WorldConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 4;
/// Measured 0.03-0.04x in release builds on a 2-vCPU x86-64 VM, with one
/// scan per overlay on a restored world each round. In the same session
/// a per-window memo keyed by texture phase and overlay measured 0.06x;
/// earlier, a memo keyed by stream measured 0.20-0.22x, and with no memo
/// (every frame rendered and scanned) the window cost 0.97x.
const MAX_RATIO: f64 = 0.2;

/// Wall time and report of one main-window run on `world`, whose overlay
/// table is empty.
fn main_window(world: &World) -> (Duration, MonitorReport) {
    let config = &world.config;
    let cfg = MonitorConfig::paper(config.youtube_start, config.youtube_end);
    let monitor = Monitor::new(cfg, search_keyword_set());
    let started = Instant::now();
    let report = monitor.run(&world.youtube, &world.web);
    (started.elapsed(), report)
}

/// Wall time and count of rendering and scanning, one by one, every
/// frame the window's clean run recorded: each observed stream at each
/// sampling tick from its first to its last sample, off the outage days.
fn frames_one_by_one(world: &World, report: &MonitorReport) -> (Duration, u64) {
    let mut frame = Frame::blank(0, 0);
    let mut frames = 0;
    let started = Instant::now();
    for obs in &report.streams {
        let mut t = obs.first_seen;
        while t <= obs.last_seen {
            if !OUTAGE_DAYS.contains(&t.date()) {
                for i in 0..RECORD_LENGTH.as_seconds() {
                    let at = t + SimDuration::seconds(i);
                    if world.youtube.render_into(obs.stream, at, &mut frame) {
                        black_box(scan_frame(&frame));
                        frames += 1;
                    }
                }
            }
            t += SAMPLE_INTERVAL;
        }
    }
    (started.elapsed(), frames)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing threshold set from release builds")]
fn main_window_costs_well_under_scanning_every_frame() {
    let mut config = WorldConfig::scaled(0.02);
    config.seed = 0x5CA_4EAD;
    let world = World::generate(config);
    let snapshot = world.snapshot();
    let restored = || World::from_snapshot(&snapshot).expect("snapshot decodes");

    let (mut window, report) = main_window(&restored());
    let (mut reference, frames) = frames_one_by_one(&world, &report);
    assert!(report.samples_run > 0, "the window sampled streams");
    assert!(
        (report.samples_run..=2 * report.samples_run).contains(&frames),
        "{frames} frames for {} samples",
        report.samples_run
    );
    // Interleave so a slow phase of the machine hits both alike.
    for _ in 1..ROUNDS {
        window = window.min(main_window(&restored()).0);
        reference = reference.min(frames_one_by_one(&world, &report).0);
    }
    let ratio = window.as_secs_f64() / reference.as_secs_f64().max(1e-9);
    eprintln!("window {window:?} vs {frames} frames one by one {reference:?}: {ratio:.2}x");
    assert!(
        ratio <= MAX_RATIO,
        "window {window:?} vs {frames} frames one by one {reference:?}: {ratio:.2}x \
         (limit {MAX_RATIO}x)"
    );
}
