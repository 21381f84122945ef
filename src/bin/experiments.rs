//! The experiment harness: regenerate every table and figure of the
//! paper and emit the paper-vs-measured report that EXPERIMENTS.md
//! records.
//!
//! ```sh
//! cargo run --release --bin experiments -- --scale 1.0 \
//!     --markdown EXPERIMENTS.md --json target/experiments.json
//! ```
//!
//! With `--store DIR` the run is checkpointed: the generated world and
//! every completed stage land in a content-addressed [`RunStore`], so a
//! killed run resumes where it stopped and a re-run with identical
//! parameters replays from cache. `--evict` prunes entries other
//! configurations left behind; `--resume` makes "continue a previous
//! run" explicit by refusing to start cold.

use givetake::core::{Pipeline, PipelineOptions, SupervisionPolicy};
use givetake::sim::faults::{ChaosProfile, FaultPlan};
use givetake::world::{World, WorldConfig};
use gt_store::RunStore;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

struct Args {
    scale: f64,
    seed: Option<u64>,
    threads: usize,
    chaos: Option<u64>,
    soak: usize,
    markdown: Option<String>,
    json: Option<String>,
    out_dir: Option<String>,
    trace: Option<String>,
    store: Option<String>,
    resume: bool,
    evict: bool,
}

const USAGE: &str = "usage: experiments [--scale F] [--seed N] [--threads N] [--chaos SEED] \
     [--soak N] [--markdown PATH] [--json PATH] [--out-dir DIR] [--trace PATH] \
     [--store DIR] [--resume] [--evict]";

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.1,
        seed: None,
        threads: 0,
        chaos: None,
        soak: 0,
        markdown: None,
        json: None,
        out_dir: None,
        trace: None,
        store: None,
        resume: false,
        evict: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                args.scale = parsed_value(&mut it, &flag, "a number in (0, 1]", |v: &f64| {
                    *v > 0.0 && *v <= 1.0
                })
            }
            "--seed" => args.seed = Some(parsed_value(&mut it, &flag, "an integer", |_| true)),
            "--threads" => {
                args.threads = parsed_value(&mut it, &flag, "an integer (0 = auto)", |_| true)
            }
            "--chaos" => {
                args.chaos = Some(parsed_value(
                    &mut it,
                    &flag,
                    "an integer fault seed",
                    |_| true,
                ))
            }
            "--soak" => {
                args.soak = parsed_value(&mut it, &flag, "a positive run count", |v| *v > 0)
            }
            "--markdown" => args.markdown = Some(flag_value(&mut it, &flag)),
            "--json" => args.json = Some(flag_value(&mut it, &flag)),
            "--out-dir" => args.out_dir = Some(flag_value(&mut it, &flag)),
            "--trace" => args.trace = Some(flag_value(&mut it, &flag)),
            "--store" => args.store = Some(flag_value(&mut it, &flag)),
            "--resume" => args.resume = true,
            "--evict" => args.evict = true,
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if args.store.is_none() && (args.resume || args.evict) {
        eprintln!("error: --resume and --evict require --store DIR");
        std::process::exit(2);
    }
    if args.soak > 0 && args.chaos.is_none() {
        eprintln!("error: --soak N requires --chaos SEED (the base fault seed)");
        std::process::exit(2);
    }
    args
}

/// The value after `flag`. A missing one is a usage error: exit 2
/// rather than run without the output the caller asked for.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        eprintln!("{USAGE}");
        std::process::exit(2);
    })
}

/// The value after `flag`, parsed and accepted by `valid`; anything
/// else exits 2 saying the value must be `what`.
fn parsed_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    valid: impl Fn(&T) -> bool,
) -> T {
    let raw = flag_value(it, flag);
    match raw.parse() {
        Ok(v) if valid(&v) => v,
        _ => {
            eprintln!("error: {flag} must be {what}, got {raw:?}");
            std::process::exit(2);
        }
    }
}

/// Report a fatal IO problem and exit nonzero (the harness never
/// panics on bad paths or full disks — it says what failed and where).
fn fail(context: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {context}: {err}");
    std::process::exit(1);
}

/// Write an output file, creating its parent directories if missing.
fn write_output(path: &str, bytes: &[u8], what: &str) {
    let p = Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                fail(
                    &format!("create directory {} for {what}", parent.display()),
                    e,
                );
            }
        }
    }
    if let Err(e) = std::fs::write(p, bytes) {
        fail(&format!("write {what} {path}"), e);
    }
}

/// The chaos-soak harness (`--chaos SEED --soak N`): N fault seeds ×
/// three profiles (mild / severe / panicky), every run supervised with
/// `SupervisionPolicy::recover(2)`. The soak proves three things and
/// exits nonzero if any fails:
///
/// 1. **No aborts.** Every run completes — injected stage panics are
///    retried or quarantined, never propagated out of the pipeline.
/// 2. **Quarantine actually triggers.** At least one run across the
///    sweep quarantines a stage and names the degraded report tables
///    (a soak where nothing ever degrades proves nothing).
/// 3. **Supervision is free when nothing fails.** Under a quiet fault
///    plan, the supervised report and telemetry are byte-identical to
///    the unsupervised (strict) run, at 1 and at 4 worker threads.
fn run_soak(args: &Args, config: WorldConfig) -> ! {
    let base_seed = args.chaos.expect("checked in parse_args");
    eprintln!(
        "[soak] generating world (scale {}, seed {:#x}) ...",
        args.scale, config.seed
    );
    let world = World::generate(config);
    let profiles: [(&str, ChaosProfile); 3] = [
        ("mild", ChaosProfile::mild()),
        ("severe", ChaosProfile::severe()),
        ("panicky", ChaosProfile::panicky()),
    ];

    // Injected stage panics are expected by the hundreds here; keep
    // stderr readable by silencing the default hook. Aborts are still
    // detected — catch_unwind reports them — and the hook is restored
    // before the equivalence phase.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut aborts = 0usize;
    let mut quarantined_runs = 0usize;
    let mut degraded_example: Option<(u64, &str, Vec<String>)> = None;
    for i in 0..args.soak {
        let fault_seed = base_seed.wrapping_add(i as u64);
        for (name, profile) in &profiles {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Pipeline::new(&world)
                    .options(
                        PipelineOptions::default()
                            .threads(args.threads)
                            .chaos(fault_seed, profile)
                            .supervise(SupervisionPolicy::recover(2)),
                    )
                    .run()
            }));
            match outcome {
                Ok(run) => {
                    let h = &run.health;
                    eprintln!(
                        "[soak] seed {fault_seed:#x} {name:>7}: {} attempts, {} retries, \
                         {} quarantined, {} tables degraded",
                        h.attempts,
                        h.retries,
                        h.quarantined.len(),
                        h.degraded_tables.len()
                    );
                    if !h.quarantined.is_empty() {
                        quarantined_runs += 1;
                        if degraded_example.is_none() {
                            degraded_example = Some((fault_seed, name, h.degraded_tables.clone()));
                        }
                    }
                }
                Err(_) => {
                    aborts += 1;
                    eprintln!(
                        "[soak] seed {fault_seed:#x} {name:>7}: ABORTED \
                         (panic escaped supervision)"
                    );
                }
            }
        }
    }
    std::panic::set_hook(default_hook);

    eprintln!("[soak] quiet-plan equivalence: supervised vs strict at 1 and 4 threads ...");
    let quiet_run = |threads: usize, policy: SupervisionPolicy| {
        Pipeline::new(&world)
            .options(
                PipelineOptions::default()
                    .threads(threads)
                    .fault_plan(Some(FaultPlan::quiet(base_seed)))
                    .supervise(policy),
            )
            .run()
    };
    let fingerprint = |run: &givetake::core::PaperRun| {
        let report = serde_json::to_string(&run.report).expect("report serializes");
        let metrics = serde_json::to_string(&run.telemetry.metrics).expect("metrics serialize");
        (report, metrics)
    };
    let mut mismatches = 0usize;
    for threads in [1usize, 4] {
        let strict = fingerprint(&quiet_run(threads, SupervisionPolicy::strict()));
        let supervised = fingerprint(&quiet_run(threads, SupervisionPolicy::recover(2)));
        if strict == supervised {
            eprintln!("[soak] {threads} thread(s): byte-identical");
        } else {
            mismatches += 1;
            eprintln!(
                "[soak] {threads} thread(s): MISMATCH — supervision changed a quiet run's \
                 report or telemetry"
            );
        }
    }

    let total = args.soak * profiles.len();
    eprintln!(
        "[soak] {total} runs: {} completed, {aborts} aborted; \
         {quarantined_runs} quarantined at least one stage",
        total - aborts
    );
    if let Some((fault_seed, name, tables)) = &degraded_example {
        eprintln!(
            "[soak] example degradation (seed {fault_seed:#x}, {name}): {}",
            if tables.is_empty() {
                "no report tables affected".to_string()
            } else {
                tables.join(", ")
            }
        );
    }
    let mut failed = false;
    if aborts > 0 {
        eprintln!("error: {aborts} run(s) aborted — supervision failed to contain a panic");
        failed = true;
    }
    if quarantined_runs == 0 {
        eprintln!(
            "error: no run quarantined a stage — the soak exercised nothing; \
             raise --soak or change --chaos"
        );
        failed = true;
    }
    if mismatches > 0 {
        eprintln!("error: supervised quiet runs diverged from strict quiet runs");
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    let args = parse_args();
    let mut config = if (args.scale - 1.0).abs() < f64::EPSILON {
        WorldConfig::default()
    } else {
        WorldConfig::scaled(args.scale)
    };
    if let Some(seed) = args.seed {
        config.seed = seed;
    }
    if args.soak > 0 {
        run_soak(&args, config);
    }

    let store = args.store.as_ref().map(|dir| match RunStore::open(dir) {
        Ok(s) => Arc::new(s),
        Err(e) => fail(&format!("open store {dir}"), e),
    });

    let mut options = PipelineOptions::default().threads(args.threads);
    if let Some(chaos_seed) = args.chaos {
        options = options.chaos(chaos_seed, &givetake::sim::faults::ChaosProfile::default());
    }
    options = options.store(store.clone());

    let world_fpr = World::fingerprint(&config);
    let base_fpr = options.base_fingerprint(&config);
    if args.resume {
        // Explicit resume: refuse to silently start a 6-month campaign
        // from scratch because the directory or parameters are wrong.
        let store = store.as_ref().expect("checked in parse_args");
        let cached = store.stage_entry_count(&base_fpr);
        if cached == 0 && store.load_world(&world_fpr).is_none() {
            eprintln!(
                "error: --resume: no checkpoint for this configuration in {} \
                 (wrong --store dir, or --scale/--seed/--chaos changed?)",
                args.store.as_deref().unwrap_or("")
            );
            std::process::exit(1);
        }
        eprintln!("resuming: {cached} cached stage entries found");
    }

    let t0 = std::time::Instant::now();
    let snapshot = store.as_ref().and_then(|s| s.load_world(&world_fpr));
    let world = match snapshot.as_deref().and_then(World::from_snapshot) {
        Some(world) => {
            eprintln!(
                "[1/2] loaded world snapshot (scale {}, seed {:#x}, {:.1}s)",
                args.scale,
                world.config.seed,
                t0.elapsed().as_secs_f64()
            );
            world
        }
        None => {
            eprintln!(
                "[1/2] generating world (scale {}, seed {:#x}) ...",
                args.scale, config.seed
            );
            let world = World::generate(config);
            if let Some(store) = &store {
                if let Err(e) = store.store_world(&world_fpr, &world.snapshot()) {
                    // Never fatal: the run proceeds, the next one regenerates.
                    eprintln!("warning: world snapshot not saved: {e}");
                }
            }
            world
        }
    };
    eprintln!(
        "      {} tweets, {} streams, {} chain txs ({:.1}s)",
        world.twitter.len(),
        world.youtube.stream_count(),
        world.chains.total_tx_count(),
        t0.elapsed().as_secs_f64()
    );

    let t1 = std::time::Instant::now();
    eprintln!("[2/2] running the measurement pipeline ...");
    if args.chaos.is_some() {
        eprintln!(
            "      injecting faults (chaos seed {:#x})",
            args.chaos.unwrap_or_default()
        );
    }
    let run = Pipeline::new(&world).options(options).run();
    eprintln!(
        "      done ({:.1}s, {} worker threads, {} stages)",
        t1.elapsed().as_secs_f64(),
        run.timings.threads,
        run.timings.stages.len()
    );
    if run.degradation.enabled {
        let d = &run.degradation.total;
        eprintln!(
            "      degradation: {} faults injected, {} retries, {} recovered, {} lost",
            d.injected(),
            d.retries,
            d.recovered,
            d.lost
        );
    }
    eprintln!(
        "      telemetry: {} metric rows, {} spans ({:.1}s wall)",
        run.telemetry.metrics.len(),
        run.telemetry.wall.spans.len(),
        run.telemetry.wall.total_ms / 1_000.0
    );
    if !run.health.is_clean() {
        let h = &run.health;
        eprintln!(
            "      supervision: {} attempts over {} stages, {} retries, \
             {} quarantined, {} tainted",
            h.attempts,
            h.stages.len(),
            h.retries,
            h.quarantined.len(),
            h.tainted.len()
        );
        if !h.degraded_tables.is_empty() {
            eprintln!("      degraded tables: {}", h.degraded_tables.join(", "));
        }
        for w in &h.warnings {
            eprintln!("warning: {w}");
        }
    }
    if let Some(store) = &store {
        eprintln!(
            "      store: {} stage cache hits, {} misses, {} entries on disk",
            run.telemetry.substrate_total("store", "cache_hit"),
            run.telemetry.substrate_total("store", "cache_miss"),
            store.stage_entry_count(&base_fpr),
        );
    }

    if let Some(path) = &args.trace {
        write_output(
            path,
            run.telemetry.chrome_trace_json().as_bytes(),
            "trace file",
        );
        eprintln!("wrote {path} (chrome://tracing / Perfetto format)");
    }

    let table = run.report.render_comparison(args.scale);
    println!("{table}");

    if let Some(path) = &args.json {
        let json = serde_json::json!({
            "scale": args.scale,
            "seed": world.config.seed,
            "chaos_seed": args.chaos,
            "report": run.report,
            "comparison": run.report.compare_with_paper(args.scale),
            "timings": run.timings,
            "degradation": run.degradation,
            "telemetry": run.telemetry,
            "health": run.health,
        });
        let pretty = match serde_json::to_string_pretty(&json) {
            Ok(s) => s,
            Err(e) => fail("serialize json report", e),
        };
        write_output(path, pretty.as_bytes(), "json report");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.markdown {
        let md = render_markdown(&args, &world, &run);
        write_output(path, md.as_bytes(), "markdown report");
        eprintln!("wrote {path}");
    }

    if let Some(dir) = &args.out_dir {
        write_artifacts(&world, dir);
    }

    if args.evict {
        let store = store.as_ref().expect("checked in parse_args");
        match store.evict(&base_fpr, &world_fpr) {
            Ok(stats) => eprintln!(
                "evicted {} stale stage groups, {} world snapshots, {} temp files",
                stats.stage_groups, stats.worlds, stats.temp_files
            ),
            Err(e) => fail("evict store entries", e),
        }
    }
}

fn render_markdown(args: &Args, world: &World, run: &givetake::core::PaperRun) -> String {
    let table = run.report.render_comparison(args.scale);
    let mut md = String::new();
    let _ = writeln!(md, "# EXPERIMENTS — paper vs measured\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release --bin experiments -- --scale {}`\n\
         (seed `{:#x}`). Counts and revenue are compared against the paper\n\
         value multiplied by the scale factor; rates and ratios compare\n\
         directly. Exact equality is not expected — the substrate is a\n\
         calibrated simulator — the acceptance bar is direction, ratio\n\
         structure, and order of magnitude (see DESIGN.md).\n",
        args.scale, world.config.seed
    );
    let _ = writeln!(md, "```text\n{}```\n", table);
    let _ = writeln!(md, "## Weekly series\n");
    let _ = writeln!(
        md,
        "Figure 3 (scam tweets/week):  `{}`\n",
        run.report.twitter_weekly.sparkline()
    );
    let _ = writeln!(
        md,
        "Figure 4 (scam streams/week): `{}`\n",
        run.report.youtube_weekly.sparkline()
    );
    let _ = writeln!(md, "## Figure 5 — top search keywords by credit\n");
    let _ = writeln!(md, "| keyword | credit |");
    let _ = writeln!(md, "|---|---|");
    for (kw, credit) in run.report.fig5.credits.iter().take(20) {
        let _ = writeln!(md, "| {kw} | {credit:.1} |");
    }
    let _ = writeln!(
        md,
        "\n{} of {} returned streams contained a search keyword; among the\n\
         keyword-less remainder, {} of {} looked non-English.\n",
        run.report.fig5.with_keyword,
        run.report.fig5.streams,
        run.report.fig5.keywordless_non_english,
        run.report.fig5.keywordless
    );
    let _ = writeln!(
        md,
        "## Exchange block-list intervention (Section 6.2 extension)\n"
    );
    let _ = writeln!(
        md,
        "If exchanges refused transfers to a scam address N after its first\n\
         observed payment, the preventable share of victim revenue would be:\n"
    );
    let _ = writeln!(
        md,
        "| detection lag | payments blocked | USD prevented | share |"
    );
    let _ = writeln!(md, "|---|---|---|---|");
    for o in &run.report.interventions {
        let _ = writeln!(
            md,
            "| {} | {} / {} | ${:.0} | {:.1}% |",
            if o.lag_seconds == 0 {
                "instant".to_string()
            } else {
                format!("{}h", o.lag_seconds / 3600)
            },
            o.blocked,
            o.payments,
            o.prevented_usd,
            o.prevented_fraction() * 100.0
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "## Cash-out categories (Section 5.5)\n");
    let _ = writeln!(md, "| category | recipients |");
    let _ = writeln!(md, "|---|---|");
    for (cat, n) in &run.report.outgoing.by_category {
        let _ = writeln!(md, "| {cat} | {n} |");
    }
    let _ = writeln!(md, "| (unlabeled) | {} |", run.report.outgoing.unlabeled);

    // Multi-hop flow tracing (the Phillips & Wilder analysis the
    // paper cites as future work), over the run's own chain analysis.
    let chain = &run.chain_analysis;
    let sources: Vec<givetake::addr::Address> = run
        .twitter_analysis
        .victim_payments()
        .chain(run.youtube_analysis.victim_payments())
        .map(|p| p.transfer.recipient)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let _ = writeln!(md, "\n## Multi-hop flow tracing (future-work extension)\n");
    let _ = writeln!(
        md,
        "Exchange exposure of scam proceeds by trace depth (the paper's\n\
         direct-edge view is depth 1; \"more advanced blockchain analysis\"\n\
         follows the intermediaries):\n"
    );
    let _ = writeln!(
        md,
        "| depth | exchange share of traced value | addresses visited |"
    );
    let _ = writeln!(md, "|---|---|---|");
    for depth in [1usize, 2, 3, 4] {
        let exposure = givetake::cluster::aggregate_exposure(
            &sources,
            &world.chains,
            &chain.resolver,
            &chain.view,
            depth,
        );
        let _ = writeln!(
            md,
            "| {depth} | {:.1}% | {} |",
            exposure.share(givetake::cluster::Category::Exchange) * 100.0,
            exposure.visited
        );
    }
    md
}

/// Emit the Figure 1 / Figure 2 artifacts: example landing pages and a
/// livestream video frame with its QR overlay (as a PGM image).
fn write_artifacts(world: &World, dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("create output directory {dir}"), e);
    }

    // Figure 1: two example landing pages (Twitter-promoted domains).
    for (i, domain) in world.truth.twitter_domains.iter().take(2).enumerate() {
        let html = givetake::world::sites::landing_html(&domain.persona, &domain.addresses);
        let path = format!("{dir}/figure1_landing_{}.html", i + 1);
        write_output(&path, html.as_bytes(), "landing page");
        eprintln!("wrote {path} ({})", domain.domain);
    }

    // Figure 2: a frame of the first QR-bearing scam stream.
    for &sid in &world.truth.scam_streams {
        let stream = world.youtube.stream(sid);
        if !matches!(stream.video, givetake::social::StreamVideo::ScamLoop { .. }) {
            continue;
        }
        let frames = world.youtube.record(
            sid,
            stream.start + givetake::sim::SimDuration::minutes(5),
            givetake::sim::SimDuration::seconds(1),
        );
        if let Some(frame) = frames.first() {
            let path = format!("{dir}/figure2_stream_frame.pgm");
            let mut pgm = format!("P2\n{} {}\n255\n", frame.width, frame.height);
            for y in 0..frame.height {
                let row: Vec<String> = (0..frame.width)
                    .map(|x| frame.get(x, y).to_string())
                    .collect();
                pgm.push_str(&row.join(" "));
                pgm.push('\n');
            }
            write_output(&path, pgm.as_bytes(), "stream frame");
            eprintln!("wrote {path} ({})", stream.title);
            break;
        }
    }
}
