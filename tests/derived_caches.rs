//! Derived platform caches never show in any output. A world whose
//! caches are filled (the YouTube live index and both platforms' overlay
//! tables, every overlay encoded and scanned) snapshots to the same bytes
//! as its twin whose caches are empty, and a world restored from a
//! snapshot, caches empty, renders the same frames.
//!
//! Snapshots do carry the platforms' API call counters, so the twin
//! makes the same number of calls against a stream id that does not
//! exist: those count but fill nothing.

use givetake::core::{Pipeline, PipelineOptions};
use givetake::qr::{scan_frame, Frame};
use givetake::sim::SimDuration;
use givetake::social::twitch::AD_SECONDS;
use givetake::social::{LiveStreamId, TwitchStreamId};
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
    // A pipeline run first: it fills the caches the way the monitor does.
    Pipeline::new(&world)
        .options(PipelineOptions::default().threads(2))
        .run();
    let before = world.snapshot();
    let twin = World::from_snapshot(&before).expect("snapshot decodes");

    let warm = sample_frames(&world);
    let first = world.youtube.streams()[0].start;
    world.youtube.live_at(first);
    // Scan every stream's first content frame on both platforms: this
    // builds both overlay tables and encodes and scans every overlay. Each
    // scan counts a recording, and so does each of the twin's.
    let second = SimDuration::seconds(1);
    let nowhere = LiveStreamId(u64::MAX);
    let mut hits = 0;
    for s in world.youtube.streams() {
        hits += world
            .youtube
            .record_hits(s.id, s.start, second)
            .flatten()
            .count();
        assert_eq!(twin.youtube.record_hits(nowhere, first, second).count(), 0);
    }
    let content = SimDuration::seconds(AD_SECONDS + 1);
    for id in (0..world.twitch.stream_count() as u64).map(TwitchStreamId) {
        let start = world.twitch.stream(id).start;
        hits += world
            .twitch
            .record_hits(id, start, content)
            .flatten()
            .count();
        let twin_hits = twin
            .twitch
            .record_hits(TwitchStreamId(u64::MAX), start, content);
        assert_eq!(twin_hits.count(), 0);
    }
    assert!(hits > 0, "some stream shows a QR code");
    for _ in 0..world.truth.scam_streams.len() * 3 {
        assert!(twin
            .youtube
            .record(nowhere, first, SimDuration::seconds(2))
            .is_empty());
    }
    let after = world.snapshot();
    assert!(after != before, "the snapshot records API call counts");
    assert!(
        after == twin.snapshot(),
        "filled caches changed the snapshot"
    );

    let restored = World::from_snapshot(&before).expect("snapshot decodes");
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
fn look_ahead_threads_leave_the_snapshot_unchanged() {
    // The executor runs the stages, both monitor windows among them, on
    // the run's threads, and only admitted recordings count as API calls
    // (a memoised scan counts nothing): twin worlds run at 1 and 4
    // threads snapshot to the same bytes, call counters included.
    let mut config = WorldConfig::scaled(0.02);
    config.seed = 0x0B5E_17ED;
    let snapshot_after = |threads: usize| {
        let world = World::generate(config.clone());
        Pipeline::new(&world)
            .options(PipelineOptions::default().threads(threads))
            .run();
        assert!(world.youtube.api_calls().record > 0);
        world.snapshot()
    };
    assert!(
        snapshot_after(1) == snapshot_after(4),
        "the thread count changed the snapshot"
    );
}
