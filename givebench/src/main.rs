//! The benchmark worker: one process per operation, so each timed run
//! starts cold and its peak resident memory is its own.
//!
//! ```sh
//! givebench <setup|run|trace> --workload NAME --dir DIR \
//!     [--world-seed N] [--fault-seed N] [--sample-seed N] [--trace-out FILE]
//! ```
//!
//! - `setup` prepares the workload in `DIR` (untimed by the worker;
//!   `run.py` times the whole process) and prints the digest of what it
//!   built.
//! - `run` performs one timed run and prints its wall time, CPU time,
//!   peak RSS, store size and output digest.
//! - `trace` performs the same run inside spans, counts allocations,
//!   replays a seeded sample of substrate calls, writes a Chrome trace
//!   to `--trace-out`, and prints the program's own counters.
//!
//! Each operation prints one JSON object on stdout; `run.py` turns
//! them into the benchmark's metrics.

mod replay;
mod sys;
mod trace;

use givetake::core::{PaperRun, Pipeline, PipelineOptions};
use givetake::sim::faults::ChaosProfile;
use givetake::store::RunStore;
use givetake::world::{World, WorldConfig};
use serde_json::{json, Value};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Stage-executor workers for every workload (the benchmark machine's
/// core count).
const THREADS: usize = 2;

const USAGE: &str = "usage: givebench <setup|run|trace> --workload NAME --dir DIR \
     [--world-seed N] [--fault-seed N] [--sample-seed N] [--trace-out FILE]";

/// Stages whose wall time the traced run reports one by one.
const REPORTED_STAGES: [&str; 6] = [
    "main_monitor",
    "pilot_monitor",
    "twitch_pilot",
    "twitter_coins",
    "twitter_dataset",
    "chain_analysis",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    MonitorCold,
    MonitorChaos,
    StoreWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "monitor_cold" => Some(Workload::MonitorCold),
            "monitor_chaos" => Some(Workload::MonitorChaos),
            "store_warm" => Some(Workload::StoreWarm),
            _ => None,
        }
    }

    fn config(self, seed: u64) -> WorldConfig {
        let mut config = match self {
            Workload::MonitorCold | Workload::MonitorChaos => WorldConfig::scaled(0.05),
            Workload::StoreWarm => WorldConfig::scaled(0.3),
        };
        config.seed = seed;
        config
    }

    fn options(self, fault_seed: u64) -> PipelineOptions {
        let options = PipelineOptions::default().threads(THREADS);
        match self {
            Workload::MonitorChaos => options.chaos(fault_seed, &ChaosProfile::default()),
            _ => options,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Setup,
    Run,
    Trace,
}

struct Args {
    op: Op,
    workload: Workload,
    dir: PathBuf,
    world_seed: u64,
    fault_seed: u64,
    sample_seed: u64,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let op = match it.next().as_deref() {
        Some("setup") => Op::Setup,
        Some("run") => Op::Run,
        Some("trace") => Op::Trace,
        other => return Err(format!("unknown operation {other:?}")),
    };
    let mut workload = None;
    let mut dir = None;
    let mut args = Args {
        op,
        workload: Workload::MonitorCold,
        dir: PathBuf::new(),
        world_seed: 0x61be_5ca1,
        fault_seed: 7,
        sample_seed: 0,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--dir" => dir = Some(PathBuf::from(&value)),
            "--world-seed" => args.world_seed = number()?,
            "--fault-seed" => args.fault_seed = number()?,
            "--sample-seed" => args.sample_seed = number()?,
            "--trace-out" => args.trace_out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    args.dir = dir.ok_or("--dir is required")?;
    if op == Op::Trace && args.trace_out.is_none() {
        return Err("trace needs --trace-out FILE".into());
    }
    Ok(args)
}

fn sha256_hex(bytes: &[u8]) -> String {
    givetake::store::digest_hex(&givetake::store::digest(bytes))
}

/// SHA-256 of the report JSON: the pinned output of a pipeline run.
/// Only the report, never the telemetry block, which may change shape
/// without the results changing.
fn report_digest(run: &PaperRun) -> String {
    let json = serde_json::to_string(&run.report).expect("report serializes");
    sha256_hex(json.as_bytes())
}

/// What a timed run leaves for the checks and the traced replay.
struct Timed {
    digest: String,
    world: World,
    run: PaperRun,
    snapshot_bytes: usize,
}

/// One timed run of the workload: from its `WorldConfig` to the
/// digest of the verified output.
fn timed(args: &Args, t: &mut Tracer) -> Result<Timed, String> {
    let workload = args.workload;
    let config = workload.config(args.world_seed);
    let options = workload.options(args.fault_seed);
    match workload {
        Workload::MonitorCold | Workload::MonitorChaos => {
            let world = t.span("world.generate", |_| World::generate(config));
            let run = t.span("pipeline.run", |_| {
                Pipeline::new(&world).options(options).run()
            });
            let digest = t.span("report.check", |_| report_digest(&run));
            Ok(Timed {
                digest,
                world,
                run,
                snapshot_bytes: 0,
            })
        }
        Workload::StoreWarm => {
            let store = t
                .span("store.open", |_| RunStore::open(&args.dir))
                .map_err(|e| e.to_string())?;
            let bytes = t
                .span("store.load_world", |_| {
                    store.load_world(&World::fingerprint(&config))
                })
                .ok_or("the store holds no world snapshot for this config; run setup first")?;
            let world = t
                .span("world.snapshot_decode", |_| World::from_snapshot(&bytes))
                .ok_or("the stored world snapshot does not decode")?;
            let options = options.store(Some(Arc::new(store)));
            let run = t.span("pipeline.run", |_| {
                Pipeline::new(&world).options(options).run()
            });
            let digest = t.span("report.check", |_| report_digest(&run));
            Ok(Timed {
                digest,
                world,
                run,
                snapshot_bytes: bytes.len(),
            })
        }
    }
}

/// Prepare the workload. Every workload first regenerates its input
/// world; `store_warm` then fills a fresh store with one cold run.
fn setup(args: &Args) -> Result<Value, String> {
    let workload = args.workload;
    let world = World::generate(workload.config(args.world_seed));
    let snapshot = world.snapshot();
    if workload != Workload::StoreWarm {
        return Ok(json!({ "digest": sha256_hex(&snapshot) }));
    }
    let store = Arc::new(RunStore::open(&args.dir).map_err(|e| e.to_string())?);
    store
        .store_world(&World::fingerprint(&world.config), &snapshot)
        .map_err(|e| e.to_string())?;
    let options = workload.options(args.fault_seed).store(Some(store));
    let run = Pipeline::new(&world).options(options).run();
    Ok(json!({ "digest": report_digest(&run) }))
}

/// Stage-cache `(hits, misses)` of a run.
fn cache_counts(run: &PaperRun) -> (u64, u64) {
    (
        run.telemetry.substrate_total("store", "cache_hit"),
        run.telemetry.substrate_total("store", "cache_miss"),
    )
}

/// Counters the program itself returns (`PaperRun::telemetry`,
/// `timings`, `degradation`), under the benchmark's per-layer names.
fn program_counters(run: &PaperRun) -> Value {
    let (telemetry, degradation) = (&run.telemetry, run.degradation.total);
    let stage_ms = |name: &str| run.timings.stage(name).map_or(0.0, |s| s.wall_ms);
    let stages = &run.timings.stages;
    let hit_ms = stages
        .iter()
        .filter(|s| {
            telemetry
                .counter(&s.name, "store", "cache_hit")
                .unwrap_or(0)
                > 0
        })
        .fold(0.0, |sum, s| sum + s.wall_ms);
    let (hits, misses) = cache_counts(run);
    let samples = telemetry
        .counter("main_monitor", "stream.monitor", "samples_run")
        .unwrap_or(0);
    let gated_calls: u64 = telemetry
        .metrics
        .iter()
        .filter(|r| r.metric == "calls" && r.kind == "counter")
        .map(|r| r.value)
        .sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let substrate = |name: &str, metric: &str| telemetry.substrate_total(name, metric);
    let named = [
        ("store.stage_load_ms", json!(hit_ms)),
        (
            "store.hit_ratio",
            json!(ratio(hits as f64, (hits + misses) as f64)),
        ),
        ("monitor.samples", json!(samples)),
        (
            "monitor.frames",
            json!(telemetry
                .counter("main_monitor", "youtube.record", "records")
                .unwrap_or(0)),
        ),
        (
            "monitor.us_per_sample",
            json!(ratio(stage_ms("main_monitor") * 1e3, samples as f64)),
        ),
        (
            "youtube.calls.record",
            json!(substrate("youtube.record", "calls")),
        ),
        (
            "youtube.calls.chat",
            json!(substrate("youtube.chat", "calls")),
        ),
        (
            "youtube.calls.search",
            json!(substrate("youtube.search", "calls")),
        ),
        (
            "youtube.calls.details",
            json!(substrate("youtube.details", "calls")),
        ),
        ("web.fetch.calls", json!(substrate("web.fetch", "calls"))),
        ("web.fetch.bytes", json!(substrate("web.fetch", "records"))),
        ("chain.rpc.calls", json!(substrate("chain.rpc", "calls"))),
        ("gate.injected", json!(degradation.injected())),
        ("gate.retries", json!(degradation.retries)),
        ("gate.lost", json!(degradation.lost)),
        (
            "gate.lost_frac",
            json!(ratio(degradation.lost as f64, gated_calls as f64)),
        ),
    ];
    let counters = REPORTED_STAGES
        .iter()
        .map(|name| (format!("stage.{name}_ms"), json!(stage_ms(name))))
        .chain(named.map(|(name, value)| (name.to_string(), value)))
        .collect();
    let stage_wall_sum_ms = stages.iter().fold(0.0, |sum, s| sum + s.wall_ms);
    json!({
        "counters": object(counters),
        "stage_wall_sum_ms": stage_wall_sum_ms,
        "threads": THREADS as u64
    })
}

/// One timed run; with `traced`, inside spans with allocation counting,
/// followed by the substrate replay and the trace file.
fn measure(args: &Args, traced: bool) -> Result<Value, String> {
    let mut t = Tracer::new(traced);
    sys::count_allocations(traced);
    let cpu_start = sys::cpu_seconds();
    let started = Instant::now();
    let timed = t.span("iteration", |t| timed(args, t))?;
    let run_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_start;
    sys::count_allocations(false);
    let peak_rss_mb = sys::peak_rss_mb();
    let (allocs, alloc_bytes) = sys::allocations();
    let store_mb = match args.workload {
        Workload::StoreWarm => sys::dir_mb(&args.dir),
        _ => 0.0,
    };
    let (hits, misses) = cache_counts(&timed.run);
    let mut out: Vec<(String, Value)> = [
        ("digest", json!(timed.digest)),
        ("run_s", json!(run_s)),
        ("cpu_s", json!(cpu_s)),
        ("peak_rss_mb", json!(peak_rss_mb)),
        ("store_mb", json!(store_mb)),
        ("store_hits", json!(hits)),
        ("store_misses", json!(misses)),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    if traced {
        replay::replay(&timed.world, args.sample_seed, THREADS, &mut t);
        if args.workload == Workload::StoreWarm {
            let config = args.workload.config(args.world_seed);
            replay::rebuild(config, &args.dir.join("rebuild"), &mut t)?;
        }
        let epoch = t.start_of("pipeline.run").unwrap_or(0.0);
        let path = args.trace_out.as_ref().expect("checked in parse_args");
        std::fs::write(path, t.chrome_json(&timed.run.telemetry.wall.spans, epoch))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        out.extend(
            [
                ("program", program_counters(&timed.run)),
                ("alloc_count", json!(allocs)),
                ("alloc_bytes", json!(alloc_bytes)),
                ("snapshot_mb", json!(sys::mb(timed.snapshot_bytes))),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
    }
    Ok(object(out))
}

/// A JSON object with keys in the given order.
fn object(entries: Vec<(String, Value)>) -> Value {
    Value(serde_json::Content::Map(
        entries.into_iter().map(|(k, v)| (k, v.0)).collect(),
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.op {
        Op::Setup => setup(&args),
        Op::Run => measure(&args, false),
        Op::Trace => measure(&args, true),
    };
    match result {
        Ok(value) => {
            let mut stdout = std::io::stdout().lock();
            let printed = writeln!(stdout, "{value}").and_then(|()| stdout.flush());
            // Skip freeing the world: the process ends here either way.
            std::process::exit(if printed.is_ok() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
