//! Paper scale is the reference. `experiments --scale 1` runs the
//! default world (`WorldConfig::default()`, seed `0x61be5ca1`) through
//! the default pipeline and prints `PaperReport::render_comparison(1.0)`.
//! This test builds the same world and run in process and pins:
//!
//! * the SHA-256 of the world's snapshot;
//! * the SHA-256 of the report's JSON;
//! * EXPERIMENTS.md's paper-vs-measured table, which must be exactly the
//!   table the run renders, so the document cannot go stale again.
//!
//! Release builds only: the run takes about 2 s there and about 20 s in
//! a debug build, which would double the debug suite's wall time.

use givetake::core::Pipeline;
use givetake::store::{digest, digest_hex};
use givetake::world::{World, WorldConfig};

const WORLD_SHA256: &str = "e91d0f59531a1b43952597be3e3dde7262b2639f42bfe0b8799e9f5f0f60261e";
const REPORT_SHA256: &str = "d4a2f090328059a3cb022787f4adc4a836be5022f0da60fe82d929963d8e8f63";

/// The fenced `text` block of EXPERIMENTS.md: the paper-vs-measured
/// table.
fn documented_table() -> &'static str {
    let doc = include_str!("../EXPERIMENTS.md");
    let start = doc
        .find("```text\n")
        .expect("EXPERIMENTS.md has a text block")
        + 8;
    let len = doc[start..].find("```").expect("the text block closes");
    &doc[start..start + len]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "a paper-scale run; release builds only")]
fn paper_scale_world_report_and_table_are_pinned() {
    let world = World::generate(WorldConfig::default());
    let world_sha = digest_hex(&digest(&world.snapshot()));
    let report = Pipeline::new(&world).run().report;
    let report_sha = digest_hex(&digest(serde_json::to_string(&report).unwrap().as_bytes()));
    let table = report.render_comparison(1.0);
    assert_eq!(world_sha, WORLD_SHA256, "scale-1.0 world digest moved");
    assert_eq!(report_sha, REPORT_SHA256, "scale-1.0 report digest moved");
    let stale: Vec<String> = documented_table()
        .lines()
        .zip(table.lines())
        .filter(|(doc, run)| doc != run)
        .map(|(doc, run)| format!("  doc: {doc}\n  run: {run}"))
        .collect();
    assert!(
        stale.is_empty() && documented_table() == table,
        "EXPERIMENTS.md's table is not what `experiments --scale 1` prints:\n{}",
        stale.join("\n")
    );
}
