//! A frame's QR hits depend on the overlay it shows, never on the
//! texture phase, so `record_hits` may scan each overlay once, at phase
//! 0, and answer for every frame that shows it. Over a scale-0.05 world:
//!
//! * YouTube: for every overlay (a distinct `(qr_url, qr_scale)`), a
//!   frame showing it at each of the 11 texture phases scans to exactly
//!   what `record_hits` answers; a frame with no overlay (benign video,
//!   and a duty cycle's hidden span where the world has one) scans empty
//!   at every phase, and `record_hits` answers empty.
//! * Twitch, which paints no texture: every frame of a recording, the
//!   advertisement card included, scans to what `record_hits` answers,
//!   for one stream per overlay and one without.

use givetake::qr::{scan_frame, Frame};
use givetake::sim::{SimDuration, SimTime};
use givetake::social::twitch::AD_SECONDS;
use givetake::social::{LiveStream, StreamVideo, TwitchStreamId, YouTube};
use givetake::world::{World, WorldConfig};
use std::collections::BTreeSet;

/// Seconds after which a YouTube stream's texture repeats.
const PHASES: i64 = 11;

/// The first instant of each texture phase, from the stream's start, at
/// which `shown` holds: whether the frame shows its overlay.
fn phase_instants(s: &LiveStream, shown: bool) -> Vec<SimTime> {
    let mut seen = BTreeSet::new();
    (0..(s.end - s.start).as_seconds())
        .map(|i| s.start + SimDuration::seconds(i))
        .filter(|&at| {
            s.qr_visible(at) == shown && seen.insert((at - s.start).as_seconds() % PHASES)
        })
        .take(PHASES as usize)
        .collect()
}

/// Check each of `s`'s frames at `instants` against `record_hits`, and
/// return what they scanned to.
fn scans_at(yt: &YouTube, s: &LiveStream, instants: &[SimTime]) -> Vec<usize> {
    assert_eq!(instants.len(), PHASES as usize, "{:?}: every phase", s.id);
    let mut frame = Frame::blank(0, 0);
    let second = SimDuration::seconds(1);
    instants
        .iter()
        .map(|&at| {
            assert!(yt.render_into(s.id, at, &mut frame));
            let answer: Vec<_> = yt.record_hits(s.id, at, second).collect();
            let scanned = scan_frame(&frame);
            assert_eq!(answer, [&scanned], "{:?} at {at:?}", s.id);
            scanned.len()
        })
        .collect()
}

#[test]
fn qr_hits_depend_on_the_overlay_not_the_texture_phase() {
    let world = World::generate(WorldConfig::scaled(0.05));
    let yt = &world.youtube;
    let mut overlays = BTreeSet::new();
    let (mut benign, mut hidden) = (false, false);
    for s in yt.streams() {
        match &s.video {
            StreamVideo::ScamLoop {
                qr_url,
                qr_scale,
                qr_duty_cycle,
            } => {
                if overlays.insert((qr_url, qr_scale)) {
                    let hits = scans_at(yt, s, &phase_instants(s, true));
                    assert!(hits.iter().all(|&n| n == 1), "{:?}: {hits:?}", s.id);
                }
                if qr_duty_cycle.is_some() && !hidden {
                    hidden = true;
                    let hits = scans_at(yt, s, &phase_instants(s, false));
                    assert!(hits.iter().all(|&n| n == 0), "{:?}: {hits:?}", s.id);
                }
            }
            // Benign frames are the texture alone, the same on every
            // stream at a phase: one stream covers them all.
            StreamVideo::Benign if !benign => {
                benign = true;
                let hits = scans_at(yt, s, &phase_instants(s, false));
                assert!(hits.iter().all(|&n| n == 0), "{:?}: {hits:?}", s.id);
            }
            StreamVideo::Benign => {}
        }
    }
    assert!(overlays.len() > 10, "{} overlays", overlays.len());
    assert!(benign, "benign video was checked");

    let tw = &world.twitch;
    let recording = SimDuration::seconds(AD_SECONDS + 5);
    let mut overlays = BTreeSet::new();
    let mut content = 0;
    for id in (0..tw.stream_count() as u64).map(TwitchStreamId) {
        let s = tw.stream(id);
        let overlay = match &s.video {
            StreamVideo::ScamLoop {
                qr_url, qr_scale, ..
            } => Some((qr_url, qr_scale)),
            StreamVideo::Benign => None,
        };
        if !overlays.insert(overlay) {
            continue;
        }
        let frames = tw.record(id, s.start, recording);
        let scanned: Vec<_> = frames.iter().map(scan_frame).collect();
        let answer: Vec<_> = tw.record_hits(id, s.start, recording).collect();
        assert_eq!(answer, scanned, "{id:?}");
        assert!(scanned[..AD_SECONDS as usize].iter().all(Vec::is_empty));
        content += frames.len() - AD_SECONDS as usize;
    }
    assert!(
        overlays.contains(&None) && content > 0,
        "content was checked"
    );
}
