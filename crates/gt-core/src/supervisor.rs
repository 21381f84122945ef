//! Supervised pipeline execution: stage-level recovery, quarantine,
//! and graceful degradation.
//!
//! The paper's measurement ran for months against flaky external
//! substrates and still produced complete tables. The supervision layer
//! gives the pipeline the same property: instead of one panicking stage
//! poisoning the whole 25-stage run, a [`SupervisionPolicy`] wraps every
//! stage in a recovery state machine —
//!
//! ```text
//!            ┌──── retry (attempt < max_attempts) ────┐
//!            ▼                                        │
//! run ─▶ attempt ──panic──▶ exhausted? ──no───────────┘
//!            │                   │ yes
//!            │ ok                ├─ Recover ─▶ QUARANTINED (substitute the
//!            ▼                   │             fallback, taint every
//!        COMPLETED /             │             dependent stage)
//!        RECOVERED               └─ Strict ──▶ poison the run
//! ```
//!
//! Under [`SupervisionPolicy::Strict`] a stage gets one attempt and the
//! first panic poisons the run; no fallback is ever consulted. Under
//! [`SupervisionPolicy::Recover`] every stage can be quarantined: its
//! fallback is `T::default()` unless the graph overrides it with
//! [`StageGraph::fallback`](crate::executor::StageGraph::fallback).
//!
//! Every retry re-probes the bound [`RunStore`](gt_store::RunStore)
//! first, so a crash during a persist (or a flaky stage body) resumes
//! from the last successfully persisted upstream outputs instead of
//! recomputing the world.
//!
//! # Taint propagation
//!
//! A quarantined stage substitutes its fallback (an empty or identity
//! output), which is *wrong data served knowingly*: every
//! transitive dependent is marked **tainted**, and every report table a
//! quarantined or tainted stage feeds is listed in
//! [`RunHealth::degraded_tables`]. Tables stay filled — they just come
//! with a completeness annotation instead of an aborted run.
//!
//! # Determinism contract
//!
//! Supervision never changes *what* a healthy stage computes, only what
//! happens when one panics. Injected panics ([`FaultKind::StagePanic`]
//! (gt_sim::faults::FaultKind)) are scheduled in sim time, so attempt
//! counts, quarantine sets, taint sets, and degraded-table lists are all
//! byte-identical across thread counts and runs. A supervised run with
//! a quiet fault plan produces a byte-identical `PaperReport` to an
//! unsupervised (strict) run. Wall-clock never enters [`RunHealth`].
//!
//! Cache safety: a quarantined stage is never persisted under its
//! content address (the address names the *real* computation), but its
//! fallback payload digest still feeds dependents' cache keys — so
//! degraded downstream entries live under distinct keys and can never
//! collide with clean ones.

use serde::Serialize;

/// How the executor treats a panicking stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SupervisionPolicy {
    /// The first panic poisons the run and is re-raised on the caller —
    /// the pre-supervision semantics. One attempt, no fallbacks. The
    /// default, so existing callers keep exact pre-supervision behavior.
    #[default]
    Strict,
    /// Retry each failing stage up to `max_attempts` total attempts,
    /// then quarantine it behind its fallback.
    Recover { max_attempts: u32 },
}

impl SupervisionPolicy {
    /// Today's poison semantics: any stage panic aborts the run.
    pub fn strict() -> Self {
        SupervisionPolicy::Strict
    }

    /// Recovering supervision with `max_attempts` total attempts per
    /// stage (1 = quarantine on the first panic, no retries).
    pub fn recover(max_attempts: u32) -> Self {
        SupervisionPolicy::Recover { max_attempts }
    }

    /// Total attempts per stage: 1 under strict, at least 1 otherwise.
    pub fn max_attempts(self) -> u32 {
        match self {
            SupervisionPolicy::Strict => 1,
            SupervisionPolicy::Recover { max_attempts } => max_attempts.max(1),
        }
    }
}

/// Terminal state of one supervised stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "snake_case")]
pub enum StageStatus {
    /// First attempt succeeded.
    Completed,
    /// At least one attempt panicked but a retry succeeded.
    Recovered,
    /// All attempts panicked; the fallback was substituted.
    Quarantined,
}

/// Recovery timeline entry for one stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageHealth {
    pub name: String,
    /// Attempts consumed (1 = clean first run).
    pub attempts: u32,
    pub status: StageStatus,
    /// Panic message of the last failed attempt, for recovered and
    /// quarantined stages.
    pub error: Option<String>,
    /// The stage ran fine but at least one upstream output was a
    /// quarantine fallback, so its output is degraded.
    pub tainted: bool,
    /// The stage computed but its cache write failed (full or
    /// read-only disk): the run is fine, but it will not resume warm.
    pub cache_write_failed: bool,
}

/// Which `PaperReport` artifacts each pipeline stage *directly*
/// produces. Transitive damage is carried by the taint set, so the map
/// only needs direct production; stages feeding no table (monitors,
/// the chain analysis, the known-scam set) simply have no entry.
const TABLE_FEEDS: &[(&str, &[&str])] = &[
    ("twitter_dataset", &["table1.twitter"]),
    ("youtube_dataset", &["table1.youtube"]),
    (
        "twitter_payments",
        &[
            "table2.twitter_revenue",
            "funnel.twitter",
            "recipients.twitter",
        ],
    ),
    (
        "youtube_payments",
        &[
            "table2.youtube_revenue",
            "funnel.youtube",
            "recipients.youtube",
        ],
    ),
    ("twitter_weekly", &["fig3.weekly_tweets"]),
    ("youtube_weekly", &["fig4.weekly_streams"]),
    ("twitter_discover", &["discoverability.twitter"]),
    ("youtube_discover", &["discoverability.youtube"]),
    ("twitter_coins", &["coin_rates.twitter"]),
    ("youtube_coins", &["coin_rates.youtube"]),
    ("twitter_conversions", &["conversions.twitter"]),
    ("youtube_conversions", &["conversions.youtube"]),
    ("payment_origins", &["payment_origins"]),
    ("twitter_whales", &["whales.twitter"]),
    ("youtube_whales", &["whales.youtube"]),
    ("recipient_stats", &["recipients"]),
    ("outgoing_stats", &["cashout_categories"]),
    ("qr_pilot", &["appendix_b.qr_pilot"]),
    ("twitch_pilot", &["appendix_b.twitch"]),
    ("fig5_keywords", &["fig5.keywords"]),
    ("interventions", &["interventions"]),
];

/// The report tables degraded when `stages` (quarantined plus tainted)
/// produced fallback or fallback-derived output. Sorted, deduplicated.
pub fn degraded_tables<'a>(stages: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut tables: Vec<String> = Vec::new();
    for stage in stages {
        if let Some((_, feeds)) = TABLE_FEEDS.iter().find(|(name, _)| *name == stage) {
            tables.extend(feeds.iter().map(|t| (*t).to_string()));
        }
    }
    tables.sort();
    tables.dedup();
    tables
}

/// Run-level health, built by the executor: the per-stage recovery
/// timeline plus the report tables it degrades and operator-facing
/// warnings. Lives in [`PaperRun`](crate::pipeline::PaperRun) and the
/// experiments JSON — never in [`PaperReport`](crate::report::PaperReport),
/// which must stay byte-identical across thread counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RunHealth {
    /// Whether a recovering (non-strict) policy was active.
    pub supervised: bool,
    /// Total attempts across all stages.
    pub attempts: u64,
    /// Extra attempts beyond the first, across all stages.
    pub retries: u64,
    /// Quarantined stage names, registration order.
    pub quarantined: Vec<String>,
    /// Tainted stage names, registration order.
    pub tainted: Vec<String>,
    /// `PaperReport` artifacts fed by a quarantined or tainted stage.
    pub degraded_tables: Vec<String>,
    /// One-line operator warnings (failed cache writes, quarantines).
    pub warnings: Vec<String>,
    /// Per-stage recovery timeline, registration order.
    pub stages: Vec<StageHealth>,
}

impl RunHealth {
    /// Nothing degraded, nothing retried, nothing to warn about.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
            && self.tainted.is_empty()
            && self.retries == 0
            && self.warnings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_is_the_default_and_degenerate_case() {
        let p = SupervisionPolicy::default();
        assert_eq!(p, SupervisionPolicy::strict());
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(SupervisionPolicy::recover(3).max_attempts(), 3);
        assert_eq!(
            SupervisionPolicy::recover(0).max_attempts(),
            1,
            "zero attempts clamps to one"
        );
    }

    #[test]
    fn degraded_tables_union_is_sorted_and_deduped() {
        let tables = degraded_tables(["recipient_stats", "twitter_payments", "recipient_stats"]);
        assert_eq!(
            tables,
            vec![
                "funnel.twitter",
                "recipients",
                "recipients.twitter",
                "table2.twitter_revenue",
            ]
        );
        assert!(degraded_tables(["main_monitor"]).is_empty());
        assert!(degraded_tables([]).is_empty());
    }

    #[test]
    fn table_feeds_has_21_unique_entries() {
        // `tests/supervision.rs` checks that these are exactly the real
        // pipeline stages feeding a table; this pins that the map holds
        // nothing else.
        let mut seen = std::collections::HashSet::new();
        for (stage, feeds) in TABLE_FEEDS {
            assert!(seen.insert(*stage), "duplicate map entry for {stage}");
            assert!(!feeds.is_empty());
        }
        assert_eq!(TABLE_FEEDS.len(), 21);
    }
}
