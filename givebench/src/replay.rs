//! The substrate replay of a traced run: a seeded sample of (stream,
//! time) pairs from the workload's world, with each substrate call the
//! monitor makes per sample timed in its own span; on `store_warm`, also
//! the world write path that no timed run exercises.

use crate::trace::Tracer;
use givetake::cluster::{ClusterView, ClusteringOptions};
use givetake::qr::{encode, scan_frame, EcLevel};
use givetake::sim::{RngFactory, SimDuration};
use givetake::social::StreamVideo;
use givetake::store::RunStore;
use givetake::stream::search_keyword_set;
use givetake::web::{Crawler, CrawlerConfig, Url};
use givetake::world::{World, WorldConfig};
use rand::Rng;
use std::hint::black_box;
use std::path::Path;

/// (stream, time) pairs per replay, and chain addresses looked up.
const SAMPLES: usize = 256;

/// Replay the per-sample substrate calls over `SAMPLES` pairs drawn
/// from `seed`: half from the scam streams (which carry QR overlays and
/// lead URLs), half from all streams, as the monitor's search hits mix
/// them.
pub fn replay(world: &World, seed: u64, threads: usize, t: &mut Tracer) {
    let mut rng = RngFactory::new(seed).rng("givebench.replay");
    let youtube = &world.youtube;
    let keywords = search_keyword_set();
    let crawler = Crawler::new(CrawlerConfig::default());
    let scam = &world.truth.scam_streams;
    let streams = youtube.streams();
    // Build the lazy live-stream index before anything is timed.
    black_box(youtube.live_at(streams[0].start));

    t.span("replay.youtube", |t| {
        for _ in 0..SAMPLES {
            let id = if !scam.is_empty() && rng.gen_bool(0.5) {
                scam[rng.gen_range(0..scam.len())]
            } else {
                streams[rng.gen_range(0..streams.len())].id
            };
            let stream = youtube.stream(id);
            let live_secs = (stream.end - stream.start).as_seconds();
            let at = stream.start + SimDuration::seconds(rng.gen_range(0..live_secs.max(1)));
            t.span("youtube.details", |_| {
                black_box(youtube.stream_details(id, at));
            });
            t.span("youtube.chat", |_| {
                black_box(youtube.chat_history(id, at));
            });
            let frames = t.span("youtube.record", |_| {
                youtube.record(id, at, SimDuration::seconds(2))
            });
            for frame in &frames {
                t.span("qr.scan", |_| {
                    black_box(scan_frame(frame));
                });
            }
            if let StreamVideo::ScamLoop { qr_url, .. } = &stream.video {
                t.span("qr.encode", |_| {
                    black_box(encode(qr_url.as_bytes(), EcLevel::M).ok());
                });
                if let Some(url) = Url::parse(qr_url) {
                    t.span("web.crawl", |_| {
                        black_box(crawler.crawl(&world.web, &url, at));
                    });
                }
            }
            t.span("youtube.search", |_| {
                black_box(youtube.search_live(&keywords.search, at));
            });
        }
    });

    let payments = &world.truth.payments;
    if !payments.is_empty() {
        t.span("replay.chain", |t| {
            for _ in 0..SAMPLES {
                let recipient = payments[rng.gen_range(0..payments.len())].recipient;
                t.span("chain.incoming", |_| {
                    black_box(world.chains.incoming(recipient));
                });
            }
        });
    }

    t.span("cluster.build", |_| {
        black_box(ClusterView::build_par(
            &world.chains.btc,
            ClusteringOptions::default(),
            threads,
        ));
    });
}

/// The write side of the store's world path, which no timed run
/// exercises: generate the world of `config`, encode its snapshot and
/// store it in a fresh store at `dir`.
pub fn rebuild(config: WorldConfig, dir: &Path, t: &mut Tracer) -> Result<(), String> {
    t.span("replay.rebuild", |t| {
        let world = t.span("world.generate", |_| World::generate(config));
        let bytes = t.span("world.snapshot_encode", |_| world.snapshot());
        let store = RunStore::open(dir).map_err(|e| e.to_string())?;
        t.span("store.store_world", |_| {
            store.store_world(&World::fingerprint(&world.config), &bytes)
        })
        .map_err(|e| e.to_string())
    })
}
