//! Derived platform caches and pipeline runs never show in any output.
//! A world whose caches are filled (the YouTube live index and both
//! platforms' overlay tables, every overlay encoded and scanned) after a
//! full pipeline run snapshots to the same bytes as the freshly
//! generated world, and a world restored from a snapshot, caches empty,
//! renders the same frames. The world keeps no call counters, so no
//! call it answers can move its snapshot.

use givetake::core::{Pipeline, PipelineOptions};
use givetake::qr::{scan_frame, Frame};
use givetake::sim::SimDuration;
use givetake::social::twitch::AD_SECONDS;
use givetake::social::TwitchStreamId;
use givetake::world::{World, WorldConfig};

/// Record every scam stream at three points of its life.
fn sample_frames(world: &World) -> Vec<Frame> {
    let mut frames = Vec::new();
    for &id in &world.truth.scam_streams {
        let stream = world.youtube.stream(id);
        let life = (stream.end - stream.start).as_seconds();
        for at in [0, life / 3, life - 1] {
            let at = stream.start + SimDuration::seconds(at);
            frames.extend(world.youtube.record(id, at, SimDuration::seconds(2)));
        }
    }
    frames
}

#[test]
fn filled_caches_leave_snapshots_and_frames_unchanged() {
    let mut config = WorldConfig::scaled(0.02);
    config.seed = 0x0B5E_17ED;
    let world = World::generate(config);
    let generated = world.snapshot();
    // A pipeline run first: it fills the caches the way the monitor does.
    Pipeline::new(&world)
        .options(PipelineOptions::default().threads(2))
        .run();

    let warm = sample_frames(&world);
    world.youtube.live_at(world.youtube.streams()[0].start);
    // Scan every stream's first content frame on both platforms: this
    // builds both overlay tables and encodes and scans every overlay.
    let second = SimDuration::seconds(1);
    let mut hits = 0;
    for s in world.youtube.streams() {
        hits += world
            .youtube
            .record_hits(s.id, s.start, second)
            .flatten()
            .count();
    }
    let content = SimDuration::seconds(AD_SECONDS + 1);
    for id in (0..world.twitch.stream_count() as u64).map(TwitchStreamId) {
        let start = world.twitch.stream(id).start;
        hits += world
            .twitch
            .record_hits(id, start, content)
            .flatten()
            .count();
    }
    assert!(hits > 0, "some stream shows a QR code");
    assert!(
        world.snapshot() == generated,
        "a run or filled caches changed the snapshot"
    );

    let restored = World::from_snapshot(&generated).expect("snapshot decodes");
    let cold = sample_frames(&restored);
    assert!(!warm.is_empty());
    assert_eq!(warm.len(), cold.len());
    for (i, (w, c)) in warm.iter().zip(&cold).enumerate() {
        assert!(w.luma == c.luma, "frame {i} differs after a restore");
    }
    assert!(
        warm.iter().any(|f| !scan_frame(f).is_empty()),
        "some sampled frame shows a QR code"
    );
}

#[test]
fn runs_at_1_and_4_threads_leave_the_snapshot_as_generated() {
    // The executor runs the stages, both monitor windows among them, on
    // the run's threads; whatever they call, the world they read
    // snapshots to the bytes it was generated with.
    let mut config = WorldConfig::scaled(0.02);
    config.seed = 0x0B5E_17ED;
    for threads in [1, 4] {
        let world = World::generate(config.clone());
        let generated = world.snapshot();
        Pipeline::new(&world)
            .options(PipelineOptions::default().threads(threads))
            .run();
        assert!(
            world.snapshot() == generated,
            "a run at {threads} threads changed the snapshot"
        );
    }
}
