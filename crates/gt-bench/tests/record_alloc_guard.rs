//! Guard: a warm recording of a scam stream allocates exactly what a
//! recording of a benign stream does.
//!
//! Both record the same 320×240 frames; a scam stream's frames add a
//! painted QR overlay, whose matrix the platform encodes once, on the
//! first frame that shows it. A warm two-second recording therefore
//! allocates its frame list and one buffer per frame, scam or benign.
//! An encode allocates its codewords, blocks and matrix, so a
//! `YouTube::record` that re-encoded the overlay per frame would make
//! more allocations than the benign recording and fail here, where the
//! timing ratio of `record_ratio_guard` cannot reliably tell it apart.
//!
//! The counts are taken by `gt_bench::CountingAlloc` on the calling
//! thread, so they are exact and the same in debug and release builds.

use gt_bench::{counted, CountingAlloc};
use gt_qr::scan_frame;
use gt_sim::{SimDuration, SimTime};
use gt_social::{LiveStream, LiveStreamId, StreamVideo, ViewerCurve, YouTube};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn warm_scam_recording_allocates_as_a_benign_one() {
    let mut yt = YouTube::new();
    let channel = yt.add_channel("c".into(), 1);
    let [benign, scam] = [
        StreamVideo::Benign,
        StreamVideo::ScamLoop {
            qr_url: "https://btc-x2.fund/claim".into(),
            qr_duty_cycle: None,
            qr_scale: 2,
        },
    ]
    .map(|video| {
        yt.add_stream(LiveStream {
            id: LiveStreamId(0),
            channel,
            title: "live".into(),
            description: String::new(),
            language: "en".into(),
            fuzzy_topics: vec![],
            start: SimTime(0),
            end: SimTime(86_400),
            video,
            viewers: ViewerCurve {
                peak_concurrent: 10,
                total_views: 100,
            },
            chat: vec![],
        })
    });
    let two = SimDuration::seconds(2);
    // Warm both: the first scam frame builds the overlay table and
    // encodes the overlay.
    let first = yt.record(scam, SimTime(60), two);
    assert_eq!(scan_frame(&first[0]).len(), 1, "the scam frames show a QR");
    yt.record(benign, SimTime(60), two);

    for at in [61, 3_600, 86_000] {
        let (benign_frames, benign_allocs) = counted(|| yt.record(benign, SimTime(at), two));
        let (scam_frames, scam_allocs) = counted(|| yt.record(scam, SimTime(at), two));
        assert_eq!(benign_frames.len(), 2);
        assert_eq!(scam_frames.len(), 2);
        assert_eq!(
            scam_allocs, benign_allocs,
            "at {at}: a warm scam recording made {scam_allocs} allocations, \
             a benign one {benign_allocs}"
        );
    }
}
