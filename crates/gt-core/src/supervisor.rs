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
//! [`RunHealth::degraded_tables`]. The report assembly names the tables
//! each stage output feeds where it takes that output
//! ([`StageOutputs::take_feeding`](crate::executor::StageOutputs::take_feeding)),
//! so no stage → table map is kept beside the graph. Tables stay
//! filled — they just come with a completeness annotation instead of an
//! aborted run.
//!
//! # Determinism contract
//!
//! Supervision never changes *what* a healthy stage computes, only what
//! happens when one panics. Injected panics
//! ([`FaultKind::StagePanic`](gt_sim::faults::FaultKind::StagePanic))
//! are scheduled in sim time, so attempt counts, quarantine sets, taint
//! sets, and degraded-table lists are all byte-identical across thread
//! counts and runs. A supervised run with
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

/// Run-level health: the per-stage recovery timeline and operator-facing
/// warnings, built by the executor, plus the report tables it degrades,
/// named as the report assembly takes each stage output. Lives in [`PaperRun`](crate::pipeline::PaperRun) and the
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
    /// `PaperReport` artifacts fed by a quarantined or tainted stage,
    /// sorted and deduplicated (see
    /// [`StageOutputs::take_feeding`](crate::executor::StageOutputs::take_feeding)).
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
}
