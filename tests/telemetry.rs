//! Telemetry-layer contract (see DESIGN.md "Observability"):
//!
//! * metric values are a pure function of the sim — byte-identical
//!   JSON across 1/2/4 worker threads, clean or chaotic;
//! * every one of the 25 pipeline stages appears in the metrics block;
//! * spans nest properly within their worker lane;
//! * a quiet fault plan leaves every fault counter at zero;
//! * the Chrome trace export is well-formed JSON covering all stages.

use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::obs::SpanSnap;
use givetake::sim::faults::{ChaosProfile, FaultPlan};
use givetake::world::{World, WorldConfig};
use std::sync::OnceLock;

/// Every stage the pipeline registers, in registration order.
const STAGES: [&str; 25] = [
    "twitter_dataset",
    "pilot_monitor",
    "main_monitor",
    "chain_analysis",
    "twitch_pilot",
    "youtube_dataset",
    "known_scam_addresses",
    "twitter_payments",
    "youtube_payments",
    "twitter_weekly",
    "youtube_weekly",
    "twitter_discover",
    "youtube_discover",
    "twitter_coins",
    "youtube_coins",
    "twitter_conversions",
    "youtube_conversions",
    "payment_origins",
    "twitter_whales",
    "youtube_whales",
    "recipient_stats",
    "outgoing_stats",
    "qr_pilot",
    "fig5_keywords",
    "interventions",
];

fn world() -> &'static World {
    static W: OnceLock<World> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorldConfig::scaled(0.02);
        config.seed = 0x0B5E_17ED;
        World::generate(config)
    })
}

fn run_with(options: PipelineOptions) -> PaperRun {
    Pipeline::new(world()).options(options).run()
}

fn clean_run(threads: usize) -> PaperRun {
    run_with(PipelineOptions::default().threads(threads))
}

fn metrics_json(run: &PaperRun) -> String {
    serde_json::to_string(&run.telemetry.metrics).expect("metrics serialize")
}

#[test]
fn metrics_are_byte_identical_across_thread_counts() {
    let serial = clean_run(1);
    assert!(!serial.telemetry.metrics.is_empty());
    let baseline = metrics_json(&serial);
    for threads in [2, 4] {
        assert_eq!(
            metrics_json(&clean_run(threads)),
            baseline,
            "{threads}-thread metrics diverged from the single-threaded run"
        );
    }
}

#[test]
fn chaotic_metrics_are_byte_identical_across_thread_counts() {
    let profile = ChaosProfile::default();
    let run_json = |threads: usize| {
        let run = run_with(
            PipelineOptions::default()
                .threads(threads)
                .chaos(0xFA_017, &profile),
        );
        metrics_json(&run)
    };
    let baseline = run_json(1);
    for threads in [2, 4] {
        assert_eq!(
            run_json(threads),
            baseline,
            "{threads}-thread chaotic metrics diverged"
        );
    }
}

#[test]
fn executor_counters_cover_every_stage() {
    let run = clean_run(2);
    for stage in STAGES {
        assert!(
            run.telemetry.row(stage, "executor", "items").is_some(),
            "stage {stage} missing its (executor, items) counter"
        );
    }
    // Substrate-level accounting is present too: the monitors and the
    // RPC backfill each count their calls.
    assert!(run.telemetry.substrate_total("youtube.search", "calls") > 0);
    assert!(run.telemetry.substrate_total("chain.rpc", "calls") > 0);
    assert!(
        run.telemetry
            .substrate_total("stream.monitor", "searches_run")
            > 0
    );
}

/// Spans in one lane must be properly nested: each span is either
/// disjoint from, or entirely contained in, every earlier open span.
fn assert_lane_well_nested(lane: u32, spans: &[&SpanSnap]) {
    let mut order: Vec<&&SpanSnap> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_us, u64::MAX - s.dur_us));
    let mut stack: Vec<(u64, String)> = Vec::new();
    for s in order {
        let (start, end) = (s.start_us, s.start_us + s.dur_us);
        while let Some((top_end, _)) = stack.last() {
            if *top_end <= start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some((top_end, top_name)) = stack.last() {
            assert!(
                end <= *top_end,
                "lane {lane}: span {:?} [{start}, {end}] straddles the \
                 boundary of open span {top_name:?} (ends {top_end})",
                s.name
            );
        }
        stack.push((end, s.name.clone()));
    }
}

#[test]
fn span_nesting_is_well_formed() {
    let run = clean_run(4);
    let spans = &run.telemetry.wall.spans;
    assert!(!spans.is_empty());
    let lanes: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.lane).collect();
    for lane in lanes {
        let in_lane: Vec<&SpanSnap> = spans.iter().filter(|s| s.lane == lane).collect();
        assert_lane_well_nested(lane, &in_lane);
    }
    // Substrate spans nest under stage spans, never the other way.
    assert!(spans.iter().any(|s| s.cat == "stage" && s.depth == 0));
    assert!(spans
        .iter()
        .all(|s| s.cat == "stage" || s.depth > 0 || s.name.ends_with(".window")));
}

#[test]
fn quiet_plan_leaves_fault_counters_at_zero() {
    let run = run_with(
        PipelineOptions::default()
            .threads(2)
            .fault_plan(Some(FaultPlan::quiet(7))),
    );
    let t = &run.telemetry;
    for metric in [
        "retries",
        "transients",
        "rate_limited",
        "latency_spikes",
        "outage_hits",
        "recovered",
        "lost",
        "circuit_opens",
        "denied",
        "backoff_wait_secs",
    ] {
        let offenders: Vec<_> = t
            .metrics
            .iter()
            .filter(|r| r.metric == metric && r.value > 0)
            .collect();
        assert!(
            offenders.is_empty(),
            "quiet plan produced nonzero {metric} rows: {offenders:?}"
        );
    }
    // ... while the call accounting itself still ran.
    assert!(t.substrate_total("chain.rpc", "calls") > 0);
    assert_eq!(
        t.substrate_total("chain.rpc", "calls"),
        t.substrate_total("chain.rpc", "served"),
        "every quiet-plan call is served"
    );
}

// ---- Chrome trace export ------------------------------------------------

#[test]
fn chrome_trace_is_valid_json_and_covers_every_stage() {
    let run = clean_run(2);
    let trace = run.telemetry.chrome_trace_json();
    validate_json(&trace).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    for stage in STAGES {
        assert!(
            trace.contains(&format!("\"name\":\"{stage}\"")),
            "trace missing a span for stage {stage}"
        );
    }
    assert!(trace.contains("\"ph\":\"X\""), "complete-event phase");
    assert!(trace.contains("\"traceEvents\":["));
}

/// A minimal JSON well-formedness checker (the vendored `serde_json`
/// subset is serialize-only, so the test cannot round-trip through it).
fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?} at {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?} at {pos}")),
                }
            }
        }
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        other => Err(format!("unexpected {other:?} at offset {pos}")),
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {pos}", c as char))
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 2;
            }
            0x00..=0x1F => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    if *pos == start {
        Err(format!("empty number at offset {start}"))
    } else {
        Ok(())
    }
}
