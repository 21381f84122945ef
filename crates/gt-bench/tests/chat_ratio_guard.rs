//! Guard: the monitor's chat path must stay well under the cost of the
//! copy-and-set path it replaced.
//!
//! Every 7.5-minute sample polls a stream's last 70 chat messages, so
//! successive polls mostly overlap. The monitor borrows the served tail
//! (`YouTube::chat_history`) and decides which messages are new with a
//! `ChatCursor`: a timestamp and the texts seen at it. The reference
//! copies each served message (author and text), then copies its text
//! again into a per-stream `HashSet<(SimTime, String)>` of every message
//! ever seen. Both walk the same polls of one generated world and count
//! the same new messages. If the poll starts copying again or the
//! cursor grows a set, the cost returns to about the reference's and
//! this fails. Both are timed best-of-N, interleaved in one process, so
//! machine speed cancels. Debug builds skip it: the threshold is set
//! from release timings.

use gt_sim::SimTime;
use gt_social::{LiveStreamId, YouTube};
use gt_stream::monitor::{ChatCursor, SAMPLE_INTERVAL};
use gt_world::{World, WorldConfig};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: usize = 15;
/// Measured 0.04x in release builds on a 2-vCPU x86-64 VM. With a
/// `HashSet` of borrowed pairs in place of the cursor it was 0.27x, and
/// with each served tail copied again 0.49x.
const MAX_RATIO: f64 = 0.15;

/// Each chatting stream with the instants a monitor samples it at: every
/// [`SAMPLE_INTERVAL`] from its start while it is live.
type Polls = Vec<(LiveStreamId, Vec<SimTime>)>;

fn polls(youtube: &YouTube) -> Polls {
    youtube
        .streams()
        .iter()
        .filter(|s| !s.chat.is_empty())
        .map(|s| {
            let mut times = Vec::new();
            let mut t = s.start;
            while t < s.end {
                times.push(t);
                t += SAMPLE_INTERVAL;
            }
            (s.id, times)
        })
        .collect()
}

/// Wall time of the monitor's path over `polls`, and the new messages.
fn borrowed(youtube: &YouTube, polls: &Polls) -> (Duration, u64) {
    let started = Instant::now();
    let mut new = 0;
    for (id, times) in polls {
        let mut cursor = ChatCursor::default();
        for &t in times {
            for m in youtube.chat_history(*id, t) {
                new += cursor.is_new(m.time, &m.text) as u64;
            }
        }
    }
    (started.elapsed(), black_box(new))
}

/// Wall time of the copy-and-set reference over `polls`, and the new
/// messages.
fn copied(youtube: &YouTube, polls: &Polls) -> (Duration, u64) {
    let started = Instant::now();
    let mut new = 0;
    for (id, times) in polls {
        let mut seen: HashSet<(SimTime, String)> = HashSet::new();
        for &t in times {
            for m in youtube.chat_history(*id, t).to_vec() {
                new += seen.insert((m.time, m.text.clone())) as u64;
            }
        }
    }
    (started.elapsed(), black_box(new))
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing threshold set from release builds")]
fn chat_path_costs_well_under_copying_into_a_set() {
    let world = World::generate(WorldConfig::scaled(0.02));
    let polls = polls(&world.youtube);
    let mut cursor_best = Duration::MAX;
    let mut reference_best = Duration::MAX;
    let mut counts = (0, 0);
    // Interleave so a slow phase of the machine hits both alike.
    for _ in 0..ROUNDS {
        let (elapsed, new) = copied(&world.youtube, &polls);
        reference_best = reference_best.min(elapsed);
        counts.0 = new;
        let (elapsed, new) = borrowed(&world.youtube, &polls);
        cursor_best = cursor_best.min(elapsed);
        counts.1 = new;
    }
    assert_eq!(counts.0, counts.1, "both paths count the same new messages");
    assert!(counts.1 > 1_000, "the polls serve chat: {}", counts.1);
    let ratio = cursor_best.as_secs_f64() / reference_best.as_secs_f64().max(1e-9);
    let n: usize = polls.iter().map(|(_, times)| times.len()).sum();
    eprintln!("{n} polls: cursor {cursor_best:?} vs copy and set {reference_best:?}: {ratio:.2}x");
    assert!(
        ratio <= MAX_RATIO,
        "cursor {cursor_best:?} vs copy and set {reference_best:?}: {ratio:.2}x \
         (limit {MAX_RATIO}x)"
    );
}
