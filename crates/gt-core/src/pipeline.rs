//! End-to-end orchestration: run the paper's entire measurement and
//! analysis pipeline over a generated world.
//!
//! The pipeline is expressed as a dependency DAG of stages executed by
//! [`StageGraph`] on a scoped worker pool:
//!
//! ```text
//! twitter_dataset ─┬────────────────────────────┬─▶ twitter_payments ─┬─▶ victims/scammers
//! pilot_monitor ───┼─▶ qr_pilot, fig5           │                     │   interventions
//! main_monitor ────┼─▶ youtube_dataset ─┬───────┴─▶ youtube_payments ─┘
//! chain_analysis ──┴─────────────────────┴─▶ (cluster view + tag resolver shared by &ref)
//! ```
//!
//! Entry point: [`Pipeline::new`], configured by [`PipelineOptions`].
//! Results are identical for any `threads` value; the run's
//! [`StageTimings`], derived from its telemetry, land in
//! [`PaperRun::timings`] (never inside [`PaperReport`], which stays
//! byte-identical across thread counts).

use crate::datasets::{build_twitter_dataset, build_youtube_dataset, Table1};
use crate::executor::{StageGraph, StageTimings};
use crate::payments::{analyze_twitter, analyze_youtube, PaymentAnalysis};
use crate::report::{PaperReport, QrPilotSummary, TwitchSummary};
use crate::supervisor::{RunHealth, SupervisionPolicy};
use crate::timeline::WeeklySeries;
use crate::{currencies, discover, fig5, interventions, scammers, victims};
use gt_addr::Address;
use gt_chain::RpcView;
use gt_cluster::{ClusterView, ClusteringOptions, TagResolver};
use gt_obs::{MetricsRegistry, TelemetrySnapshot};
use gt_sim::faults::{ChaosProfile, DegradationStats, FaultPlan, RetryPolicy};
use gt_sim::{SimDuration, SimTime};
use gt_store::{Digest, KeyBuilder, RunStore, StoreDecode, StoreEncode};
use gt_stream::keywords::search_keyword_set;
use gt_stream::monitor::{Monitor, MonitorConfig};
use gt_stream::pilot::{qr_persistence, qr_stats};
use gt_stream::twitch::run_twitch_pilot;
use gt_world::{World, WorldConfig};
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;

/// Tuning knobs for a pipeline run. The paper's own measurement
/// parameters (monitor cadences, intervention lags, the retry policy)
/// are constants, not knobs.
///
/// `#[non_exhaustive]` so new knobs can land without breaking callers:
/// construct via [`PipelineOptions::default`] and chain the fluent
/// setters —
/// `PipelineOptions::default().threads(8).chaos(seed, &profile)`.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// Worker threads for the stage executor and the sharded cluster
    /// build. `0` means the machine's available parallelism.
    pub threads: usize,
    /// Where the fault schedule every substrate consults comes from;
    /// `None` runs clean. The clean run is byte-identical to
    /// pre-fault-layer behavior. Set by [`PipelineOptions::fault_plan`]
    /// and [`PipelineOptions::chaos`]; the last one called wins.
    pub faults: Option<FaultSource>,
    /// Stage-result store: every stage probes it before computing and
    /// persists its output after. `None` (the default) computes
    /// everything in-process. The report is byte-identical either way —
    /// the store only changes *whether* a stage runs, never what it
    /// yields.
    pub store: Option<Arc<RunStore>>,
    /// How the run treats a panicking stage. The default
    /// ([`SupervisionPolicy::strict`]) preserves poison semantics: the
    /// first stage panic aborts the run. [`SupervisionPolicy::recover`]
    /// retries, then quarantines the stage behind its fallback and
    /// reports the damage through [`PaperRun::health`]. Deliberately
    /// excluded from [`PipelineOptions::base_fingerprint`]: supervision
    /// never changes what a healthy stage computes, so supervised and
    /// strict runs share cache entries.
    pub supervision: SupervisionPolicy,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 0,
            faults: None,
            store: None,
            supervision: SupervisionPolicy::strict(),
        }
    }
}

impl PipelineOptions {
    /// Set the worker-thread count (0 = available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach (or clear) an explicit fault plan.
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan.map(FaultSource::Plan);
        self
    }

    /// Request a generated fault plan: seeded from `seed` with rates
    /// from `profile`, spanning the world's measurement window (the
    /// span itself is only known at [`Pipeline::run`] time).
    pub fn chaos(mut self, seed: u64, profile: &ChaosProfile) -> Self {
        self.faults = Some(FaultSource::Chaos(seed, *profile));
        self
    }

    /// Attach (or clear) a stage-result store.
    pub fn store(mut self, store: Option<Arc<RunStore>>) -> Self {
        self.store = store;
        self
    }

    /// Set the supervision policy for the run.
    pub fn supervise(mut self, policy: SupervisionPolicy) -> Self {
        self.supervision = policy;
        self
    }

    /// The run's base cache fingerprint for a given world config: a
    /// digest over everything run-global that stage outputs can depend
    /// on — the config, the *resolved* fault plan and the gates' retry
    /// policy ([`RetryPolicy::default`], folded in so that a change to
    /// it misses the cache). The thread count is deliberately absent:
    /// results and metric sheets are thread-invariant, so runs at any
    /// parallelism share cache entries.
    pub fn base_fingerprint(&self, config: &WorldConfig) -> Digest {
        base_key(config, self.resolve_fault_plan(config).as_ref())
    }

    /// The fault plan the run will actually use: an explicit plan as
    /// given; a chaos request generates one over the measurement span,
    /// extended past the end of collection so the RPC backfill reads
    /// (whose virtual cursor starts at `youtube_end`) have a fault
    /// surface too.
    fn resolve_fault_plan(&self, config: &WorldConfig) -> Option<FaultPlan> {
        Some(match self.faults.as_ref()? {
            FaultSource::Plan(plan) => plan.clone(),
            FaultSource::Chaos(seed, profile) => {
                let span_start = config.twitter_start.min(config.pilot_start);
                let span_end = config.twitter_end.max(config.youtube_end) + SimDuration::days(14);
                FaultPlan::generate(*seed, span_start, span_end, profile)
            }
        })
    }
}

/// [`PipelineOptions::base_fingerprint`] over an already resolved plan.
fn base_key(config: &WorldConfig, plan: Option<&FaultPlan>) -> Digest {
    let mut kb = KeyBuilder::new("base");
    kb.push_encoded(config);
    kb.push_encoded(&plan);
    kb.push_encoded(&RetryPolicy::default());
    kb.finish()
}

/// Where a run's fault plan comes from ([`PipelineOptions::faults`]).
#[derive(Debug, Clone)]
pub enum FaultSource {
    /// An explicit plan.
    Plan(FaultPlan),
    /// A plan generated from `(seed, profile)` over the world's
    /// measurement span at run time.
    Chaos(u64, ChaosProfile),
}

/// One stage's injected-fault accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageDegradation {
    pub stage: String,
    pub stats: DegradationStats,
}

/// The stages whose substrate calls go through a fault gate.
const GATED_STAGES: [&str; 6] = [
    "pilot_monitor",
    "main_monitor",
    "twitch_pilot",
    "twitter_payments",
    "youtube_payments",
    "outgoing_stats",
];

/// Degradation accounting for a whole run: what each fault-gated stage
/// lost, retried and recovered. A view of the gate counters in the
/// metrics block, surfaced through [`PaperRun`] and the experiments
/// JSON — never through [`PaperReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DegradationReport {
    /// Whether a fault plan was attached to the run.
    pub enabled: bool,
    pub stages: Vec<StageDegradation>,
    pub total: DegradationStats,
}

impl DegradationReport {
    /// Read every gated stage's accounting out of `telemetry`.
    fn from_snapshot(enabled: bool, telemetry: &TelemetrySnapshot) -> Self {
        let mut report = DegradationReport {
            enabled,
            ..Default::default()
        };
        for stage in GATED_STAGES {
            let stats = DegradationStats::from_snapshot(telemetry, stage);
            report.total.merge(&stats);
            report.stages.push(StageDegradation {
                stage: stage.to_string(),
                stats,
            });
        }
        report
    }
}

/// The frozen blockchain analysis shared (by reference) across stages.
/// Its `Default` (no clusters, no tags) is the quarantine fallback.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct ChainAnalysis {
    pub view: ClusterView,
    pub resolver: TagResolver,
}

/// What the pipeline produced: the paper's tables in [`PaperReport`],
/// the stage outputs later analyses build on (the flow-tracing
/// extension reads the payment analyses and the chain analysis), and
/// the run's record.
pub struct PaperRun {
    pub report: PaperReport,
    /// The `chain_analysis` stage's BTC cluster view and tag resolver.
    pub chain_analysis: ChainAnalysis,
    pub twitter_analysis: PaymentAnalysis,
    pub youtube_analysis: PaymentAnalysis,
    /// Per-stage wall times and item counts for this run, derived from
    /// the stage spans and `executor/items` counters in `telemetry`.
    pub timings: StageTimings,
    /// Injected-fault accounting (all zero / disabled on clean runs),
    /// derived from the gate counters in `telemetry`.
    pub degradation: DegradationReport,
    /// Deterministic metrics — the same rows whether a stage ran or
    /// replayed its cached sheet — plus wall-clock spans. Like
    /// `timings`, this never feeds [`PaperReport`].
    pub telemetry: TelemetrySnapshot,
    /// Supervision outcome: attempts, retries, quarantined/tainted
    /// stages, the report tables they degrade, and operator warnings
    /// (failed cache writes included). Deterministic — derived from the
    /// fault plan and the graph, never from wall-clock — and, like
    /// `timings`, never part of [`PaperReport`].
    pub health: RunHealth,
}

/// Builder for a pipeline run over one generated world.
pub struct Pipeline<'w> {
    world: &'w World,
    options: PipelineOptions,
}

impl<'w> Pipeline<'w> {
    pub fn new(world: &'w World) -> Self {
        Pipeline {
            world,
            options: PipelineOptions::default(),
        }
    }

    /// Replace the whole option set.
    pub fn options(mut self, options: PipelineOptions) -> Self {
        self.options = options;
        self
    }

    /// Run the full pipeline.
    pub fn run(&self) -> PaperRun {
        let world = self.world;
        let config = &world.config;
        let threads = if self.options.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.options.threads
        };
        let resolved = self.options.resolve_fault_plan(config);
        let plan = resolved.as_ref();
        let obs = MetricsRegistry::new();
        // RPC backfill reads start once collection has finished.
        let rpc_epoch = config.youtube_end;

        let mut g = StageGraph::new();
        if let Some(store) = self.options.store.clone() {
            g.bind_store(store, base_key(config, plan));
        }
        g.supervise(self.options.supervision);

        // ---- independent roots: datasets, monitors, chain analysis ----
        let twitter_ds = g.add_stage("twitter_dataset", &[], move |_| {
            let ds = build_twitter_dataset(&world.twitter, &world.scam_db);
            let domains = ds.domains.len() as u64;
            (ds, domains)
        });

        let pilot = g.add_stage("pilot_monitor", &[], move |r| {
            let mut cfg = MonitorConfig::paper(config.pilot_start, config.pilot_end);
            cfg.fault_plan = plan;
            cfg.sink = r.sink().clone();
            let monitor = Monitor::new(cfg, search_keyword_set());
            let report = monitor.run(&world.youtube, &world.web);
            let streams = report.streams.len() as u64;
            (report, streams)
        });

        let main_monitor = g.add_stage("main_monitor", &[], move |r| {
            let mut cfg = MonitorConfig::paper(config.youtube_start, config.youtube_end);
            cfg.fault_plan = plan;
            cfg.sink = r.sink().clone();
            let monitor = Monitor::new(cfg, search_keyword_set());
            let report = monitor.run(&world.youtube, &world.web);
            let streams = report.streams.len() as u64;
            (report, streams)
        });

        let chain = g.add_stage("chain_analysis", &[], move |r| {
            let chain_sink = r.sink();
            let view = {
                let _span = chain_sink.span("cluster.build");
                ClusterView::build_par(&world.chains.btc, ClusteringOptions::default(), threads)
            };
            let resolver = {
                let _span = chain_sink.span("tags.resolve");
                world.tags.resolver(&view)
            };
            let txs = world.chains.btc.tx_count();
            chain_sink.counter_add("cluster", "transactions", txs);
            chain_sink.counter_add("cluster", "clusters", view.cluster_count() as u64);
            (ChainAnalysis { view, resolver }, txs)
        });

        let twitch = g.add_stage("twitch_pilot", &[], move |r| {
            let report = run_twitch_pilot(
                &world.twitch,
                config.pilot_start,
                config.pilot_end,
                plan,
                r.sink().clone(),
            );
            (report, 0)
        });

        // ---- dataset assembly and the known-scam address set ----
        let youtube_ds = g.add_stage("youtube_dataset", &[main_monitor.index()], move |r| {
            let ds = build_youtube_dataset(r.get(main_monitor), &search_keyword_set());
            let domains = ds.domains.len() as u64;
            (ds, domains)
        });

        let known_scam = g.add_stage(
            "known_scam_addresses",
            &[twitter_ds.index(), youtube_ds.index()],
            move |r| {
                let mut known: HashSet<Address> = HashSet::new();
                for d in &r.get(twitter_ds).domains {
                    known.extend(d.addresses.iter().copied());
                }
                for d in &r.get(youtube_ds).domains {
                    known.extend(d.validation.addresses.iter().copied());
                }
                (known, 0)
            },
        );

        // ---- per-platform payment isolation (Sections 5.1–5.3) ----
        let twitter_an = g.add_stage(
            "twitter_payments",
            &[twitter_ds.index(), chain.index(), known_scam.index()],
            move |r| {
                let ca = r.get(chain);
                // Without a fault plan the gate admits every call, so
                // the RPC facade serves exactly the chain's data.
                let rpc = RpcView::new(
                    &world.chains,
                    plan,
                    "rpc.twitter",
                    rpc_epoch,
                    r.sink().clone(),
                );
                let analysis = analyze_twitter(
                    r.get(twitter_ds),
                    &rpc,
                    &world.prices,
                    &ca.resolver,
                    &ca.view,
                    r.get(known_scam),
                );
                let payments = analysis.funnel.payments_any as u64;
                (analysis, payments)
            },
        );

        let youtube_an = g.add_stage(
            "youtube_payments",
            &[youtube_ds.index(), chain.index(), known_scam.index()],
            move |r| {
                let ca = r.get(chain);
                let rpc = RpcView::new(
                    &world.chains,
                    plan,
                    "rpc.youtube",
                    rpc_epoch,
                    r.sink().clone(),
                );
                let analysis = analyze_youtube(
                    r.get(youtube_ds),
                    &rpc,
                    &world.prices,
                    &ca.resolver,
                    &ca.view,
                    r.get(known_scam),
                );
                let payments = analysis.funnel.payments_any as u64;
                (analysis, payments)
            },
        );

        // ---- Section 4: lures ----
        let twitter_weekly = g.add_stage("twitter_weekly", &[twitter_ds.index()], move |r| {
            let series = WeeklySeries::build(
                config.twitter_start,
                config.twitter_end,
                r.get(twitter_ds)
                    .domains
                    .iter()
                    .flat_map(|d| d.tweet_times.iter().map(|&t| (t, 0u64))),
            );
            (series, 0)
        });

        let youtube_weekly = g.add_stage(
            "youtube_weekly",
            &[youtube_ds.index(), main_monitor.index()],
            move |r| {
                let monitor = r.get(main_monitor);
                let series = WeeklySeries::build(
                    config.youtube_start,
                    config.youtube_end,
                    r.get(youtube_ds).scam_streams.iter().filter_map(|&sid| {
                        monitor
                            .observed(sid)
                            .map(|obs| (obs.first_seen, obs.max_total_views))
                    }),
                );
                (series, 0)
            },
        );

        let twitter_discover = g.add_stage("twitter_discover", &[twitter_ds.index()], move |r| {
            (
                discover::twitter_discoverability(r.get(twitter_ds), &world.twitter),
                0,
            )
        });
        let youtube_discover = g.add_stage(
            "youtube_discover",
            &[youtube_ds.index(), main_monitor.index()],
            move |r| {
                let stats = discover::youtube_discoverability(
                    r.get(youtube_ds),
                    r.get(main_monitor),
                    &search_keyword_set(),
                );
                (stats, 0)
            },
        );
        let twitter_coins = g.add_stage("twitter_coins", &[twitter_ds.index()], move |r| {
            (
                currencies::twitter_coin_rates(r.get(twitter_ds), &world.twitter),
                0,
            )
        });
        let youtube_coins = g.add_stage(
            "youtube_coins",
            &[youtube_ds.index(), main_monitor.index()],
            move |r| {
                let rates = currencies::youtube_coin_rates(r.get(youtube_ds), r.get(main_monitor));
                (rates, 0)
            },
        );

        // ---- Section 5.4: victims ----
        let twitter_conversions = g.add_stage(
            "twitter_conversions",
            &[twitter_an.index(), twitter_ds.index()],
            move |r| {
                let tweets = r.get(twitter_ds).tweet_count as u64;
                (victims::conversions(r.get(twitter_an), tweets), 0)
            },
        );
        let youtube_conversions = g.add_stage(
            "youtube_conversions",
            &[youtube_an.index(), youtube_ds.index(), main_monitor.index()],
            move |r| {
                let monitor = r.get(main_monitor);
                let total_views: u64 = r
                    .get(youtube_ds)
                    .scam_streams
                    .iter()
                    .filter_map(|&sid| monitor.observed(sid).map(|o| o.max_total_views))
                    .sum();
                (victims::conversions(r.get(youtube_an), total_views), 0)
            },
        );
        let origins = g.add_stage(
            "payment_origins",
            &[twitter_an.index(), youtube_an.index(), chain.index()],
            move |r| {
                let ca = r.get(chain);
                let origins = victims::payment_origins(
                    &[r.get(twitter_an), r.get(youtube_an)],
                    &ca.resolver,
                    &ca.view,
                );
                (origins, 0)
            },
        );
        let twitter_whales = g.add_stage("twitter_whales", &[twitter_an.index()], move |r| {
            (victims::whale_distribution(r.get(twitter_an)), 0)
        });
        let youtube_whales = g.add_stage("youtube_whales", &[youtube_an.index()], move |r| {
            (victims::whale_distribution(r.get(youtube_an)), 0)
        });

        // ---- Section 5.5: scammers ----
        let recipients = g.add_stage(
            "recipient_stats",
            &[twitter_an.index(), youtube_an.index(), chain.index()],
            move |r| {
                let stats = scammers::recipient_stats(
                    &[r.get(twitter_an), r.get(youtube_an)],
                    &r.get(chain).view,
                );
                (stats, 0)
            },
        );
        let outgoing = g.add_stage(
            "outgoing_stats",
            &[twitter_an.index(), youtube_an.index(), chain.index()],
            move |r| {
                let ca = r.get(chain);
                let analyses = [r.get(twitter_an), r.get(youtube_an)];
                let rpc = RpcView::new(
                    &world.chains,
                    plan,
                    "rpc.outgoing",
                    rpc_epoch,
                    r.sink().clone(),
                );
                let stats = scammers::outgoing_stats(&analyses, &rpc, &ca.resolver, &ca.view);
                (stats, 0)
            },
        );

        // ---- Appendix B ----
        let qr_pilot = g.add_stage("qr_pilot", &[pilot.index()], move |r| {
            let persistences = qr_persistence(r.get(pilot));
            let summary = qr_stats(&persistences).map(|s| QrPilotSummary {
                tracked: s.tracked,
                mean_seconds: s.mean_seconds,
                median_seconds: s.median_seconds,
                intermittent: s.intermittent,
            });
            (summary, 0)
        });
        let fig5 = g.add_stage("fig5_keywords", &[pilot.index()], move |r| {
            (
                fig5::keyword_contribution(r.get(pilot), &search_keyword_set()),
                0,
            )
        });

        // ---- Section 6.2 extension: exchange-side intervention sweep ----
        let interventions = g.add_stage(
            "interventions",
            &[twitter_an.index(), youtube_an.index(), chain.index()],
            move |r| {
                let ca = r.get(chain);
                let sweep = interventions::lag_sweep(
                    &[r.get(twitter_an), r.get(youtube_an)],
                    &ca.resolver,
                    &ca.view,
                    &interventions::SWEEP_LAGS,
                );
                let n = sweep.len() as u64;
                (sweep, n)
            },
        );

        // ---- quarantine fallbacks (used only under a recovering
        // supervision policy) ----
        //
        // Every other stage stands in with its output type's `Default`:
        // empty datasets and analyses, a no-tag / no-cluster chain view,
        // zeroed statistics. The weekly series instead keep their zero
        // buckets over the window. A quarantined stage's dependents
        // still run — over visibly empty inputs — and the affected
        // tables are named in `RunHealth::degraded_tables` instead of
        // the whole run aborting.
        g.fallback(twitter_weekly, move |_| {
            WeeklySeries::build(
                config.twitter_start,
                config.twitter_end,
                std::iter::empty::<(SimTime, u64)>(),
            )
        });
        g.fallback(youtube_weekly, move |_| {
            WeeklySeries::build(
                config.youtube_start,
                config.youtube_end,
                std::iter::empty::<(SimTime, u64)>(),
            )
        });

        // ---- execute the DAG and assemble the report ----
        //
        // Each output is taken with the report tables it feeds, so a
        // quarantined or tainted stage names exactly those tables in
        // `RunHealth::degraded_tables`.
        let mut out = g.run(threads, &obs);

        let twitter_analysis = out.take_feeding(
            twitter_an,
            &[
                "table2.twitter_revenue",
                "funnel.twitter",
                "recipients.twitter",
            ],
        );
        let youtube_analysis = out.take_feeding(
            youtube_an,
            &[
                "table2.youtube_revenue",
                "funnel.youtube",
                "recipients.youtube",
            ],
        );
        let twitch_report = out.take_feeding(twitch, &["appendix_b.twitch"]);
        let telemetry = obs.snapshot();
        let timings = StageTimings::from_snapshot(threads, &telemetry);
        let degradation = DegradationReport::from_snapshot(plan.is_some(), &telemetry);

        let report = PaperReport {
            table1: Table1::new(
                &out.take_feeding(twitter_ds, &["table1.twitter"]),
                &out.take_feeding(youtube_ds, &["table1.youtube"]),
            ),
            twitter_revenue: twitter_analysis.revenue,
            youtube_revenue: youtube_analysis.revenue,
            twitter_funnel: twitter_analysis.funnel,
            youtube_funnel: youtube_analysis.funnel,
            twitter_weekly: out.take_feeding(twitter_weekly, &["fig3.weekly_tweets"]),
            youtube_weekly: out.take_feeding(youtube_weekly, &["fig4.weekly_streams"]),
            twitter_discover: out.take_feeding(twitter_discover, &["discoverability.twitter"]),
            youtube_discover: out.take_feeding(youtube_discover, &["discoverability.youtube"]),
            twitter_coins: out.take_feeding(twitter_coins, &["coin_rates.twitter"]),
            youtube_coins: out.take_feeding(youtube_coins, &["coin_rates.youtube"]),
            twitter_conversions: out.take_feeding(twitter_conversions, &["conversions.twitter"]),
            youtube_conversions: out.take_feeding(youtube_conversions, &["conversions.youtube"]),
            origins: out.take_feeding(origins, &["payment_origins"]),
            twitter_whales: out.take_feeding(twitter_whales, &["whales.twitter"]),
            youtube_whales: out.take_feeding(youtube_whales, &["whales.youtube"]),
            recipients: out.take_feeding(recipients, &["recipients"]),
            twitter_recipients: scammers::distinct_recipients(&twitter_analysis),
            youtube_recipients: scammers::distinct_recipients(&youtube_analysis),
            outgoing: out.take_feeding(outgoing, &["cashout_categories"]),
            qr_pilot: out.take_feeding(qr_pilot, &["appendix_b.qr_pilot"]),
            twitch: TwitchSummary {
                streams_listed: twitch_report.streams_listed,
                candidates: twitch_report.candidates,
                scams_found: twitch_report.qr_hits,
            },
            fig5: out.take_feeding(fig5, &["fig5.keywords"]),
            interventions: out.take_feeding(interventions, &["interventions"]),
        };

        PaperRun {
            report,
            chain_analysis: out.take(chain),
            twitter_analysis,
            youtube_analysis,
            timings,
            degradation,
            telemetry,
            health: out.health,
        }
    }
}
