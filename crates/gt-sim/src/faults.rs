//! Deterministic fault injection for the measurement substrates.
//!
//! The paper's pipeline ran for months against flaky real-world services:
//! YouTube/Twitch API quota exhaustion, scam-site cloaking and dead
//! domains, and livestreams vanishing mid-monitor. This module models
//! those failure modes as a *seeded, pre-computed schedule* — a
//! [`FaultPlan`] — that every simulated substrate consults before
//! answering. Because the schedule is a pure function of `(seed, span,
//! profile)` and all retry jitter is drawn from the sim RNG, a chaotic
//! run is exactly as reproducible as a clean one.
//!
//! # Snapshot semantics
//!
//! A retried or latency-delayed call serves data *as of the original
//! poll tick*, not the (virtual) instant the retry finally lands.
//! Faults can therefore only ever *remove* observations relative to a
//! clean run — they never surface data a clean run would have missed.
//! This is what makes the chaos-suite invariants (victim counts and
//! revenue ≤ clean run) hold by construction rather than by luck.
//!
//! # Determinism contract
//!
//! - `FaultPlan::generate` derives one RNG stream per substrate from
//!   [`RngFactory`], so schedules are byte-stable across runs, thread
//!   counts, and substrate-iteration order.
//! - Every substrate call goes through one concrete gate, [`Gated`].
//!   Consumers own their gate (one per sequential loop, e.g. a monitor
//!   window or an RPC read cursor) and never share it across worker
//!   threads, so retry jitter draws and breaker transitions cannot
//!   depend on scheduling.
//! - A gate's admissions are the same whatever sink it reports into;
//!   the sink only records them. With no plan the gate admits every
//!   call and draws no RNG.
//! - The gate's metric rows are the only record of degradation:
//!   `PaperRun::degradation` is rebuilt from them
//!   ([`DegradationStats::from_snapshot`]), never from `PaperReport`.

use crate::rng::RngFactory;
use crate::time::{SimDuration, SimTime};
use gt_obs::{MetricRow, MetricSheet, StageSink, TelemetrySnapshot, BACKOFF_BUCKET_EDGES};
use gt_store::{StoreDecode, StoreEncode};
use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;
use std::collections::BTreeMap;

/// A simulated service surface that can fail independently.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub enum Substrate {
    /// YouTube live-search endpoint (`search.list`).
    YoutubeSearch,
    /// YouTube video/stream details (`videos.list`).
    YoutubeDetails,
    /// YouTube live-chat paging (`liveChatMessages.list`).
    YoutubeChat,
    /// Stream frame capture / recording.
    YoutubeRecord,
    /// Twitch Helix `Get Streams` listing.
    TwitchList,
    /// Twitch IRC chat tail.
    TwitchChat,
    /// DNS resolution for scam-site fetches.
    WebDns,
    /// TLS handshakes with scam sites.
    WebTls,
    /// HTTP fetch of scam-site pages.
    WebFetch,
    /// Blockchain RPC view reads (address history).
    ChainRpc,
    /// The monitor host itself (whole windows cut short).
    StreamMonitor,
}

impl Substrate {
    /// Every substrate, in schedule-generation order.
    pub const ALL: [Substrate; 11] = [
        Substrate::YoutubeSearch,
        Substrate::YoutubeDetails,
        Substrate::YoutubeChat,
        Substrate::YoutubeRecord,
        Substrate::TwitchList,
        Substrate::TwitchChat,
        Substrate::WebDns,
        Substrate::WebTls,
        Substrate::WebFetch,
        Substrate::ChainRpc,
        Substrate::StreamMonitor,
    ];

    /// Stable label, used to derive the per-substrate schedule RNG.
    pub fn label(self) -> &'static str {
        match self {
            Substrate::YoutubeSearch => "youtube.search",
            Substrate::YoutubeDetails => "youtube.details",
            Substrate::YoutubeChat => "youtube.chat",
            Substrate::YoutubeRecord => "youtube.record",
            Substrate::TwitchList => "twitch.list",
            Substrate::TwitchChat => "twitch.chat",
            Substrate::WebDns => "web.dns",
            Substrate::WebTls => "web.tls",
            Substrate::WebFetch => "web.fetch",
            Substrate::ChainRpc => "chain.rpc",
            Substrate::StreamMonitor => "stream.monitor",
        }
    }
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of failure a window injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub enum FaultKind {
    /// Short-lived error; a backoff retry inside the window may still
    /// land inside it, but retries eventually escape.
    Transient,
    /// Quota exhaustion: every call fails until the window closes.
    RateLimit,
    /// Calls succeed but take `delay` longer. Served data still uses
    /// the original tick (snapshot semantics).
    Latency {
        /// Extra virtual time the call takes.
        delay: SimDuration,
    },
    /// Permanent outage: the substrate never answers again this run.
    Outage,
    /// A hard crash of the *consumer*: any call admitted inside the
    /// window panics the calling stage. The supervision layer
    /// (`gt_core::supervisor`) is what turns these into retries and
    /// quarantines instead of aborted runs. Appended after the original
    /// variants so stored plans keep their encodings.
    StagePanic,
}

/// One scheduled fault interval `[start, end)` on a substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct FaultWindow {
    pub start: SimTime,
    pub end: SimTime,
    pub kind: FaultKind,
}

impl FaultWindow {
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Fault rates used by [`FaultPlan::generate`]. All rates are expected
/// windows per substrate per 30 simulated days.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChaosProfile {
    pub transients_per_month: f64,
    pub transient_len: SimDuration,
    pub quotas_per_month: f64,
    pub quota_len: SimDuration,
    pub latencies_per_month: f64,
    pub latency_len: SimDuration,
    pub latency_delay: SimDuration,
    /// Probability that a substrate dies permanently somewhere in the
    /// last 40% of the span.
    pub outage_probability: f64,
    /// Expected [`FaultKind::StagePanic`] windows per substrate per 30
    /// days. Zero (the default, and every pre-existing preset) draws no
    /// RNG at all, so plans generated before this field existed are
    /// byte-identical.
    pub panics_per_month: f64,
    /// Length of each stage-panic window.
    pub panic_len: SimDuration,
}

impl Default for ChaosProfile {
    fn default() -> Self {
        ChaosProfile {
            transients_per_month: 20.0,
            transient_len: SimDuration::minutes(2),
            quotas_per_month: 2.0,
            quota_len: SimDuration::hours(4),
            latencies_per_month: 10.0,
            latency_len: SimDuration::minutes(5),
            latency_delay: SimDuration::seconds(5),
            outage_probability: 0.08,
            panics_per_month: 0.0,
            panic_len: SimDuration::minutes(30),
        }
    }
}

impl ChaosProfile {
    /// Occasional hiccups; no substrate ever dies.
    pub fn mild() -> Self {
        ChaosProfile {
            transients_per_month: 6.0,
            quotas_per_month: 0.5,
            latencies_per_month: 4.0,
            outage_probability: 0.0,
            ..ChaosProfile::default()
        }
    }

    /// Aggressive chaos: frequent transients, long quota windows, and a
    /// real chance each substrate goes dark for good.
    pub fn severe() -> Self {
        ChaosProfile {
            transients_per_month: 80.0,
            quotas_per_month: 6.0,
            quota_len: SimDuration::hours(8),
            latencies_per_month: 40.0,
            outage_probability: 0.3,
            ..ChaosProfile::default()
        }
    }

    /// Mild background faults plus injected stage panics: calls landing
    /// in a panic window crash their whole stage. Only survivable under
    /// a recovering `SupervisionPolicy`; the chaos-soak harness uses
    /// this profile to prove quarantine keeps runs alive.
    pub fn panicky() -> Self {
        ChaosProfile {
            panics_per_month: 1.5,
            ..ChaosProfile::mild()
        }
    }
}

/// A seeded, deterministic schedule of faults for every substrate.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct FaultPlan {
    pub seed: u64,
    /// Sorted, non-overlapping windows per substrate.
    pub schedules: BTreeMap<Substrate, Vec<FaultWindow>>,
}

impl FaultPlan {
    /// A plan with no scheduled faults. Running under a quiet plan must
    /// produce a byte-identical `PaperReport` to running clean.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            schedules: BTreeMap::new(),
        }
    }

    /// Generate a schedule over `[span_start, span_end)`. Pure function
    /// of its arguments: one RNG stream per substrate, windows sorted
    /// by start and swept for overlap.
    pub fn generate(
        seed: u64,
        span_start: SimTime,
        span_end: SimTime,
        profile: &ChaosProfile,
    ) -> Self {
        let factory = RngFactory::new(seed).scoped("faults.plan");
        let span_secs = (span_end - span_start).as_seconds().max(1);
        let months = span_secs as f64 / (30.0 * 86_400.0);
        let mut schedules = BTreeMap::new();
        for sub in Substrate::ALL {
            let mut rng = factory.rng(sub.label());
            let mut windows: Vec<FaultWindow> = Vec::new();
            // The monitor host only fails catastrophically: a window
            // cut short, never a retried tick.
            if sub != Substrate::StreamMonitor {
                for (rate, len, kind) in [
                    (
                        profile.transients_per_month,
                        profile.transient_len,
                        FaultKind::Transient,
                    ),
                    (
                        profile.quotas_per_month,
                        profile.quota_len,
                        FaultKind::RateLimit,
                    ),
                    (
                        profile.latencies_per_month,
                        profile.latency_len,
                        FaultKind::Latency {
                            delay: profile.latency_delay,
                        },
                    ),
                    // Appended after the original kinds: a zero rate
                    // draws nothing, so pre-panic profiles generate
                    // byte-identical plans.
                    (
                        profile.panics_per_month,
                        profile.panic_len,
                        FaultKind::StagePanic,
                    ),
                ] {
                    let expected = rate * months;
                    let mut count = expected.floor() as usize;
                    let frac = expected.fract();
                    if frac > 0.0 && rng.gen_bool(frac.min(1.0)) {
                        count += 1;
                    }
                    for _ in 0..count {
                        let off = rng.gen_range(0..span_secs);
                        let start = span_start + SimDuration::seconds(off);
                        let end = (start + len).min(span_end);
                        if end > start {
                            windows.push(FaultWindow { start, end, kind });
                        }
                    }
                }
            }
            if profile.outage_probability > 0.0 && rng.gen_bool(profile.outage_probability.min(1.0))
            {
                // Outages land in the back 40% of the span so some clean
                // measurement always happens first, and extend to the end.
                let lo = span_secs * 6 / 10;
                let off = rng.gen_range(lo..span_secs);
                windows.push(FaultWindow {
                    start: span_start + SimDuration::seconds(off),
                    end: span_end,
                    kind: FaultKind::Outage,
                });
            }
            windows.sort_by_key(|w| (w.start, w.end));
            // Sweep out overlaps: keep each window only if it starts at
            // or after the previous survivor's end.
            let mut swept: Vec<FaultWindow> = Vec::with_capacity(windows.len());
            for w in windows {
                match swept.last() {
                    Some(prev) if w.start < prev.end => {}
                    _ => swept.push(w),
                }
            }
            if !swept.is_empty() {
                schedules.insert(sub, swept);
            }
        }
        FaultPlan { seed, schedules }
    }

    /// The fault window (if any) covering `now` on `sub`.
    pub fn window_at(&self, sub: Substrate, now: SimTime) -> Option<&FaultWindow> {
        let windows = self.schedules.get(&sub)?;
        // First window with start > now; the candidate is its predecessor.
        let idx = windows.partition_point(|w| w.start <= now);
        let w = &windows[idx.checked_sub(1)?];
        w.contains(now).then_some(w)
    }

    /// The fault kind (if any) active at `now` on `sub`.
    pub fn fault_at(&self, sub: Substrate, now: SimTime) -> Option<FaultKind> {
        self.window_at(sub, now).map(|w| w.kind)
    }

    /// True when no substrate has any scheduled window.
    pub fn is_quiet(&self) -> bool {
        self.schedules.values().all(|w| w.is_empty())
    }

    /// RNG factory for consumers that need jitter streams tied to this
    /// plan's seed.
    pub fn factory(&self) -> RngFactory {
        RngFactory::new(self.seed).scoped("faults.consumer")
    }
}

/// Shared retry/backoff policy: exponential backoff with jitter, capped
/// per attempt and bounded by a cumulative per-call budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct RetryPolicy {
    /// Maximum attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: SimDuration,
    /// Upper bound on any single backoff.
    pub cap: SimDuration,
    /// Cumulative virtual time a single call may spend waiting.
    pub budget: SimDuration,
    /// Jitter as a fraction of the nominal backoff, in `[0, jitter]`.
    pub jitter: f64,
    /// Consecutive failures before the circuit breaker opens.
    pub breaker_threshold: u32,
    /// Sim time an open breaker waits before letting one half-open
    /// probe call through to see whether the substrate recovered.
    pub breaker_cooldown: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: SimDuration::seconds(2),
            cap: SimDuration::minutes(2),
            budget: SimDuration::minutes(10),
            jitter: 0.5,
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::minutes(15),
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before retry number `attempt` (1-based),
    /// without jitter: `base * 2^(attempt-1)`, capped at `cap`.
    pub fn nominal_backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(32);
        let secs = self.base.as_seconds().saturating_mul(1i64 << shift);
        SimDuration::seconds(secs.min(self.cap.as_seconds()).max(0))
    }

    /// Backoff with jitter drawn from `rng`: uniform in
    /// `[nominal, nominal * (1 + jitter)]`.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let nominal = self.nominal_backoff(attempt);
        if self.jitter <= 0.0 || nominal.as_seconds() == 0 {
            return nominal;
        }
        let extra = (nominal.as_seconds() as f64 * self.jitter * rng.gen::<f64>()) as i64;
        nominal + SimDuration::seconds(extra)
    }
}

/// Where a [`CircuitBreaker`] is in its open/half-open/closed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Calls flow normally.
    Closed,
    /// Shedding every call since `since`, until the cool-down elapses.
    Open { since: SimTime },
    /// Cool-down elapsed: one probe call is allowed through. Success
    /// closes the breaker; failure reopens it for another cool-down.
    HalfOpen,
}

/// Trips after `threshold` consecutive failures; while open, calls are
/// shed without consulting the schedule. After `cooldown` of sim time
/// the breaker goes *half-open* and admits a single probe call: if the
/// substrate recovered the breaker closes, otherwise it reopens and the
/// cool-down restarts. (It used to latch open forever, permanently
/// shedding a substrate that had long since recovered.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: SimDuration,
    consecutive: u32,
    state: BreakerState,
}

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: SimDuration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive: 0,
            state: BreakerState::Closed,
        }
    }

    /// True while the breaker is shedding (ignores the cool-down; use
    /// [`CircuitBreaker::allows`] on the call path).
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// Whether a call at `now` may proceed. An open breaker whose
    /// cool-down has elapsed transitions to half-open and admits the
    /// call as its probe.
    pub fn allows(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { since } => {
                if now - since >= self.cooldown {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    pub fn record_success(&mut self) {
        self.consecutive = 0;
        self.state = BreakerState::Closed;
    }

    /// Returns true if this failure tripped the breaker open — either
    /// the threshold-crossing failure from closed, or a failed
    /// half-open probe reopening it.
    pub fn record_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Open { .. } => false,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open { since: now };
                true
            }
            BreakerState::Closed => {
                self.consecutive += 1;
                if self.consecutive >= self.threshold {
                    self.state = BreakerState::Open { since: now };
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Counts of injected faults and how the consumer fared against them:
/// a view of the per-substrate counters a [`Gated`] records, read back
/// by [`DegradationStats::from_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct DegradationStats {
    /// Transient-window hits (one per failed attempt).
    pub transients: u64,
    /// Rate-limit-window hits.
    pub rate_limited: u64,
    /// Calls served slowly under a latency window.
    pub latency_spikes: u64,
    /// Calls that hit a permanent outage.
    pub outage_hits: u64,
    /// Retries issued (backoff waits and quota waits).
    pub retries: u64,
    /// Calls that hit at least one fault but ultimately served.
    pub recovered: u64,
    /// Calls dropped: outage, budget exhausted, or breaker open.
    pub lost: u64,
    /// Times a circuit breaker tripped open.
    pub circuit_opens: u64,
    /// Total sim-clock seconds spent sleeping before retries (backoff
    /// plus rate-limit window waits). Sim-derived, so deterministic.
    pub backoff_wait_secs: u64,
}

impl DegradationStats {
    /// Total injected fault hits across all kinds.
    pub fn injected(&self) -> u64 {
        self.transients + self.rate_limited + self.latency_spikes + self.outage_hits
    }

    pub fn merge(&mut self, other: &DegradationStats) {
        self.transients += other.transients;
        self.rate_limited += other.rate_limited;
        self.latency_spikes += other.latency_spikes;
        self.outage_hits += other.outage_hits;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.lost += other.lost;
        self.circuit_opens += other.circuit_opens;
        self.backoff_wait_secs += other.backoff_wait_secs;
    }

    pub fn is_zero(&self) -> bool {
        *self == DegradationStats::default()
    }

    /// The sum of the per-substrate counters [`Gated`] records under
    /// each field's name, over `rows`. Rows of other substrates (the
    /// supervisor's `recovered`, say) and histogram rows are skipped.
    pub fn from_rows<'r>(rows: impl IntoIterator<Item = &'r MetricRow>) -> DegradationStats {
        let mut stats = DegradationStats::default();
        for row in rows {
            if row.kind != "counter" || !Substrate::ALL.iter().any(|s| s.label() == row.substrate) {
                continue;
            }
            let field = match row.metric.as_str() {
                "transients" => &mut stats.transients,
                "rate_limited" => &mut stats.rate_limited,
                "latency_spikes" => &mut stats.latency_spikes,
                "outage_hits" => &mut stats.outage_hits,
                "retries" => &mut stats.retries,
                "recovered" => &mut stats.recovered,
                "lost" => &mut stats.lost,
                "circuit_opens" => &mut stats.circuit_opens,
                "backoff_wait_secs" => &mut stats.backoff_wait_secs,
                _ => continue,
            };
            *field += row.value;
        }
        stats
    }

    /// What the gates of `stage` recorded in `snapshot`. This is the
    /// only record of a stage's degradation, so it reads the same
    /// whether the stage ran or replayed its cached sheet.
    pub fn from_snapshot(snapshot: &TelemetrySnapshot, stage: &str) -> DegradationStats {
        DegradationStats::from_rows(snapshot.metrics.iter().filter(|r| r.stage == stage))
    }
}

/// A call was shed: the substrate is down, the breaker is open, or the
/// retry budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Denied;

/// The checked-call gate every substrate client calls through: a
/// per-consumer view of a [`FaultPlan`] that owns the retry loop, the
/// jitter RNG and per-substrate circuit breakers, and reports every call
/// into a telemetry sink.
///
/// A gate must live inside one sequential loop (a monitor window, an
/// RPC cursor, a revisit crawl) — never shared across worker threads —
/// so its RNG draws and breaker transitions are reproducible.
///
/// The gate records per-substrate call/served/records/denied counters,
/// one counter per fault event under its [`DegradationStats`] field
/// name, and a per-call backoff-sleep histogram. Every call touches the
/// four call counters, so they sit in a fixed table indexed by
/// substrate; fault events and histograms, which only faults cause, go
/// to a local [`MetricSheet`]. Both are filled lock-free and flushed
/// into the sink's sheet once, when the gate drops: the table's
/// nonzero cells become counter rows, exactly the rows adding each
/// count to the sheet would have made. All recorded values derive from
/// sim state (fault events and caller-supplied record counts), so
/// telemetry inherits the fault layer's determinism: byte-identical
/// across thread counts.
#[derive(Debug)]
pub struct Gated<'p> {
    plan: Option<&'p FaultPlan>,
    policy: RetryPolicy,
    rng: Option<StdRng>,
    breakers: BTreeMap<Substrate, CircuitBreaker>,
    sink: StageSink,
    sheet: MetricSheet,
    calls: CallTable,
}

/// The counters every gated call adds to, by substrate, in the order of
/// [`CALL_METRICS`].
type CallTable = [[u64; CALL_METRICS.len()]; Substrate::ALL.len()];

/// The metric names of a [`CallTable`] row.
const CALL_METRICS: [&str; 4] = ["calls", "served", "records", "denied"];
const CALLS: usize = 0;
const SERVED: usize = 1;
const RECORDS: usize = 2;
const DENIED: usize = 3;

// A substrate's row in a `CallTable` is its place in `Substrate::ALL`.
const _: () = {
    let mut i = 0;
    while i < Substrate::ALL.len() {
        assert!(Substrate::ALL[i] as usize == i);
        i += 1;
    }
};

/// Fold the nonzero cells of `calls` into `sheet` as counters.
fn fold_calls(calls: &CallTable, sheet: &mut MetricSheet) {
    for (sub, row) in Substrate::ALL.iter().zip(calls) {
        for (metric, &value) in CALL_METRICS.iter().zip(row) {
            if value > 0 {
                sheet.add(sub.label(), metric, value);
            }
        }
    }
}

impl<'p> Gated<'p> {
    /// A gate over `plan` reporting into `sink`. `label` scopes the
    /// jitter stream so two gates on the same plan (e.g. pilot vs main
    /// monitor) draw independent jitter.
    pub fn new(
        plan: Option<&'p FaultPlan>,
        label: &str,
        policy: RetryPolicy,
        sink: StageSink,
    ) -> Self {
        Gated {
            plan,
            policy,
            rng: plan.map(|p| p.factory().rng(label)),
            breakers: BTreeMap::new(),
            sink,
            sheet: MetricSheet::new(),
            calls: [[0; CALL_METRICS.len()]; Substrate::ALL.len()],
        }
    }

    /// No plan, no telemetry: every call is admitted and nothing is
    /// recorded.
    pub fn disabled() -> Gated<'static> {
        Gated::new(None, "", RetryPolicy::default(), StageSink::noop())
    }

    /// What the gate has recorded so far, read back from its sheet (the
    /// call table holds no [`DegradationStats`] field).
    pub fn stats(&self) -> DegradationStats {
        let rows: Vec<MetricRow> = self.sheet.rows("").collect();
        DegradationStats::from_rows(&rows)
    }

    /// Consult the plan before a call at `now`: the retry loop. Each
    /// fault event is counted in the sheet as it happens; the call's
    /// summed retry waits are recorded once, when the loop ends. With
    /// no plan every call is admitted untouched.
    fn admit(&mut self, sub: Substrate, now: SimTime) -> Result<(), Denied> {
        let Some(plan) = self.plan else {
            return Ok(());
        };
        let label = sub.label();
        if let Some(b) = self.breakers.get_mut(&sub) {
            if !b.allows(now) {
                self.sheet.add(label, "lost", 1);
                return Err(Denied);
            }
        }
        let mut at = now;
        let mut waited = SimDuration::ZERO;
        let mut slept_secs = 0u64;
        let mut attempt: u32 = 1;
        let mut saw_fault = false;
        let admitted = loop {
            let Some(window) = plan.window_at(sub, at) else {
                if saw_fault {
                    self.sheet.add(label, "recovered", 1);
                }
                if let Some(b) = self.breakers.get_mut(&sub) {
                    b.record_success();
                }
                break Ok(());
            };
            saw_fault = true;
            match window.kind {
                FaultKind::Latency { delay: _ } => {
                    // Slow but successful; snapshot semantics mean the
                    // delay never changes what data is served.
                    self.sheet.add(label, "latency_spikes", 1);
                    self.sheet.add(label, "recovered", 1);
                    if let Some(b) = self.breakers.get_mut(&sub) {
                        b.record_success();
                    }
                    break Ok(());
                }
                FaultKind::StagePanic => {
                    // A consumer crash, not a service error: unwind the
                    // calling stage. Deterministic (pure function of the
                    // plan and sim time), so the supervision layer sees
                    // the same panic on every run and thread count.
                    panic!(
                        "gt-sim: injected stage panic ({} at t={})",
                        sub.label(),
                        at.0
                    );
                }
                FaultKind::Outage => {
                    self.sheet.add(label, "outage_hits", 1);
                    self.sheet.add(label, "lost", 1);
                    let threshold = self.policy.breaker_threshold;
                    let cooldown = self.policy.breaker_cooldown;
                    let b = self
                        .breakers
                        .entry(sub)
                        .or_insert_with(|| CircuitBreaker::new(threshold, cooldown));
                    if b.record_failure(at) {
                        self.sheet.add(label, "circuit_opens", 1);
                    }
                    break Err(Denied);
                }
                FaultKind::Transient | FaultKind::RateLimit => {
                    let delay = if window.kind == FaultKind::Transient {
                        self.sheet.add(label, "transients", 1);
                        let rng = self.rng.as_mut().expect("plan implies rng");
                        self.policy.backoff(attempt, rng)
                    } else {
                        self.sheet.add(label, "rate_limited", 1);
                        // Quota windows don't clear early: wait them out.
                        (window.end - at).max(SimDuration::seconds(1))
                    };
                    waited = waited + delay;
                    if attempt >= self.policy.max_attempts || waited > self.policy.budget {
                        self.sheet.add(label, "lost", 1);
                        break Err(Denied);
                    }
                    self.sheet.add(label, "retries", 1);
                    slept_secs += delay.as_seconds().max(0) as u64;
                    attempt += 1;
                    at += delay;
                }
            }
        };
        if slept_secs > 0 {
            self.sheet.add(label, "backoff_wait_secs", slept_secs);
            self.sheet
                .observe(label, "backoff_secs", slept_secs, BACKOFF_BUCKET_EDGES);
        }
        admitted
    }

    /// Gate one call at `now`. On admission, run `body` and return its
    /// value — always with data as of `now` (snapshot semantics), even
    /// if retries pushed the virtual completion time later. `body` also
    /// reports how many records (hits, messages, frames, bytes — the
    /// substrate chooses the unit) the call produced, which the gate
    /// records.
    pub fn checked_counted<T>(
        &mut self,
        sub: Substrate,
        now: SimTime,
        body: impl FnOnce() -> (T, u64),
    ) -> Result<T, Denied> {
        let admitted = self.admit(sub, now);
        let counts = &mut self.calls[sub as usize];
        counts[CALLS] += 1;
        match admitted {
            Ok(()) => {
                let (value, records) = body();
                counts[SERVED] += 1;
                counts[RECORDS] += records;
                Ok(value)
            }
            Err(denied) => {
                counts[DENIED] += 1;
                Err(denied)
            }
        }
    }

    /// [`Gated::checked_counted`] for calls with no meaningful record
    /// count.
    pub fn checked<T>(
        &mut self,
        sub: Substrate,
        now: SimTime,
        body: impl FnOnce() -> T,
    ) -> Result<T, Denied> {
        self.checked_counted(sub, now, || (body(), 0))
    }

    /// The fault window (if any) covering `sub` at `now`, for callers
    /// that map fault kinds onto domain errors (e.g. the web fetcher).
    pub fn active_fault(&self, sub: Substrate, now: SimTime) -> Option<FaultKind> {
        self.plan.and_then(|p| p.fault_at(sub, now))
    }
}

impl Drop for Gated<'_> {
    fn drop(&mut self) {
        fold_calls(&self.calls, &mut self.sheet);
        self.sink.flush(&mut self.sheet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(secs: i64) -> SimTime {
        SimTime(secs)
    }

    fn span() -> (SimTime, SimTime) {
        (t(0), t(90 * 86_400))
    }

    /// A gate over `plan` that reports into no sink.
    fn noop_gate<'p>(plan: &'p FaultPlan, label: &str, policy: RetryPolicy) -> Gated<'p> {
        Gated::new(Some(plan), label, policy, StageSink::noop())
    }

    #[test]
    fn gated_accounting_matches_stats_and_flushes_on_drop() {
        let (a, b) = span();
        let plan = FaultPlan::generate(7, a, b, &ChaosProfile::severe());
        let reg = gt_obs::MetricsRegistry::new();
        let (mut served, mut denied) = (0u64, 0u64);
        let stats = {
            let mut gate = Gated::new(
                Some(&plan),
                "gated-test",
                RetryPolicy::default(),
                reg.sink("stage"),
            );
            let mut now = a;
            while now < b {
                match gate.checked_counted(Substrate::YoutubeSearch, now, || ((), 3)) {
                    Ok(()) => served += 1,
                    Err(Denied) => denied += 1,
                }
                now += SimDuration::hours(6);
            }
            gate.stats()
        }; // drop flushes the sheet

        // A non-gate substrate's row of the same name is not degradation.
        reg.sink("stage").counter_add("supervisor", "recovered", 1);
        let snap = reg.snapshot();
        assert_eq!(DegradationStats::from_snapshot(&snap, "stage"), stats);
        assert_eq!(
            DegradationStats::from_snapshot(&snap, "other"),
            DegradationStats::default()
        );
        let get = |m: &str| snap.counter("stage", "youtube.search", m).unwrap_or(0);
        assert_eq!(get("calls"), served + denied);
        assert_eq!(get("served"), served);
        assert_eq!(get("denied"), denied);
        assert_eq!(get("records"), served * 3);
        assert_eq!(get("retries"), stats.retries);
        assert_eq!(get("lost"), stats.lost);
        assert_eq!(get("backoff_wait_secs"), stats.backoff_wait_secs);
        assert!(denied > 0, "severe profile should deny something");
    }

    #[test]
    fn noop_and_enabled_sinks_gate_identically() {
        let (a, b) = span();
        let plan = FaultPlan::generate(7, a, b, &ChaosProfile::severe());
        let sweep = |mut gate: Gated| {
            let mut ok = 0u64;
            let mut now = a;
            while now < b {
                ok += gate.checked(Substrate::TwitchList, now, || ()).is_ok() as u64;
                now += SimDuration::hours(6);
            }
            (ok, gate.stats())
        };
        let reg = gt_obs::MetricsRegistry::new();
        let quiet = sweep(noop_gate(&plan, "same-label", RetryPolicy::default()));
        let observed = sweep(Gated::new(
            Some(&plan),
            "same-label",
            RetryPolicy::default(),
            reg.sink("stage"),
        ));
        assert_eq!(quiet, observed, "telemetry must not change gating");
        assert!(!quiet.1.is_zero(), "severe profile should fault something");
        let calls = reg.snapshot().counter("stage", "twitch.list", "calls");
        assert_eq!(calls, Some(90 * 4), "the enabled sink saw every call");
    }

    #[test]
    fn generate_is_reproducible() {
        let (a, b) = span();
        let p1 = FaultPlan::generate(42, a, b, &ChaosProfile::default());
        let p2 = FaultPlan::generate(42, a, b, &ChaosProfile::default());
        assert_eq!(p1, p2);
        let p3 = FaultPlan::generate(43, a, b, &ChaosProfile::default());
        assert_ne!(p1, p3);
    }

    #[test]
    fn windows_are_sorted_and_disjoint() {
        let (a, b) = span();
        let plan = FaultPlan::generate(7, a, b, &ChaosProfile::severe());
        assert!(!plan.schedules.is_empty());
        for windows in plan.schedules.values() {
            for pair in windows.windows(2) {
                assert!(pair[0].end <= pair[1].start, "{pair:?} overlap");
            }
            for w in windows {
                assert!(w.start < w.end);
                assert!(w.start >= a && w.end <= b);
            }
        }
    }

    #[test]
    fn window_lookup_matches_linear_scan() {
        let (a, b) = span();
        let plan = FaultPlan::generate(11, a, b, &ChaosProfile::severe());
        for sub in Substrate::ALL {
            for secs in (0..90 * 86_400).step_by(86_400 / 4 + 7) {
                let now = t(secs);
                let fast = plan.fault_at(sub, now);
                let slow = plan
                    .schedules
                    .get(&sub)
                    .and_then(|ws| ws.iter().find(|w| w.contains(now)))
                    .map(|w| w.kind);
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn quiet_plan_admits_everything() {
        let plan = FaultPlan::quiet(9);
        assert!(plan.is_quiet());
        let mut gate = noop_gate(&plan, "test", RetryPolicy::default());
        for secs in 0..100 {
            assert!(gate
                .checked(Substrate::YoutubeSearch, t(secs), || ())
                .is_ok());
        }
        assert!(gate.stats().is_zero());
    }

    #[test]
    fn disabled_gate_is_a_noop() {
        let mut gate = Gated::disabled();
        assert_eq!(gate.active_fault(Substrate::ChainRpc, t(5)), None);
        assert_eq!(gate.checked(Substrate::ChainRpc, t(5), || 7), Ok(7));
        assert!(gate.stats().is_zero());
    }

    #[test]
    fn transient_window_is_escaped_by_retries() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::WebFetch,
            vec![FaultWindow {
                start: t(100),
                end: t(104),
                kind: FaultKind::Transient,
            }],
        );
        let mut gate = noop_gate(&plan, "t", RetryPolicy::default());
        assert!(gate.checked(Substrate::WebFetch, t(101), || ()).is_ok());
        let s = gate.stats();
        assert!(s.transients >= 1);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.lost, 0);
        assert!(s.retries >= 1);
    }

    #[test]
    fn rate_limit_longer_than_budget_is_lost() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::YoutubeChat,
            vec![FaultWindow {
                start: t(0),
                end: t(86_400),
                kind: FaultKind::RateLimit,
            }],
        );
        let mut gate = noop_gate(&plan, "q", RetryPolicy::default());
        assert_eq!(
            gate.checked(Substrate::YoutubeChat, t(10), || ()),
            Err(Denied)
        );
        let s = gate.stats();
        assert_eq!(s.rate_limited, 1);
        assert_eq!(s.lost, 1);
        assert_eq!(s.recovered, 0);
    }

    #[test]
    fn short_rate_limit_is_waited_out() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::YoutubeSearch,
            vec![FaultWindow {
                start: t(0),
                end: t(60),
                kind: FaultKind::RateLimit,
            }],
        );
        let mut gate = noop_gate(&plan, "q", RetryPolicy::default());
        assert!(gate.checked(Substrate::YoutubeSearch, t(10), || ()).is_ok());
        let s = gate.stats();
        assert_eq!(s.rate_limited, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.recovered, 1);
    }

    #[test]
    fn outage_trips_breaker_then_sheds_without_consulting() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::ChainRpc,
            vec![FaultWindow {
                start: t(0),
                end: t(1_000_000),
                kind: FaultKind::Outage,
            }],
        );
        let policy = RetryPolicy {
            breaker_threshold: 2,
            ..RetryPolicy::default()
        };
        let mut gate = noop_gate(&plan, "o", policy);
        assert_eq!(gate.checked(Substrate::ChainRpc, t(1), || ()), Err(Denied));
        assert_eq!(gate.checked(Substrate::ChainRpc, t(2), || ()), Err(Denied));
        // Breaker now open: further calls shed without outage hits.
        assert_eq!(gate.checked(Substrate::ChainRpc, t(3), || ()), Err(Denied));
        let s = gate.stats();
        assert_eq!(s.outage_hits, 2);
        assert_eq!(s.circuit_opens, 1);
        assert_eq!(s.lost, 3);
    }

    #[test]
    fn latency_counts_but_serves() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::YoutubeDetails,
            vec![FaultWindow {
                start: t(0),
                end: t(100),
                kind: FaultKind::Latency {
                    delay: SimDuration::seconds(30),
                },
            }],
        );
        let mut gate = noop_gate(&plan, "l", RetryPolicy::default());
        assert!(gate
            .checked(Substrate::YoutubeDetails, t(50), || ())
            .is_ok());
        let s = gate.stats();
        assert_eq!(s.latency_spikes, 1);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.lost, 0);
    }

    #[test]
    fn nominal_backoff_monotone_and_capped() {
        let policy = RetryPolicy::default();
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=20 {
            let b = policy.nominal_backoff(attempt);
            assert!(b >= prev);
            assert!(b <= policy.cap);
            prev = b;
        }
    }

    #[test]
    fn jittered_backoff_within_bounds() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(3);
        for attempt in 1..=10 {
            let nominal = policy.nominal_backoff(attempt);
            for _ in 0..50 {
                let b = policy.backoff(attempt, &mut rng);
                assert!(b >= nominal);
                let max = nominal.as_seconds() as f64 * (1.0 + policy.jitter);
                assert!((b.as_seconds() as f64) <= max + 1.0);
            }
        }
    }

    #[test]
    fn degradation_merge_sums() {
        let a = DegradationStats {
            transients: 1,
            rate_limited: 2,
            latency_spikes: 3,
            outage_hits: 4,
            retries: 5,
            recovered: 6,
            lost: 7,
            circuit_opens: 8,
            backoff_wait_secs: 9,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.transients, 2);
        assert_eq!(b.circuit_opens, 16);
        assert_eq!(b.injected(), 2 * a.injected());
    }

    #[test]
    fn breaker_cycles_open_half_open_closed() {
        let mut b = CircuitBreaker::new(2, SimDuration::minutes(10));
        assert!(b.allows(t(0)));
        assert!(!b.record_failure(t(1)));
        assert!(b.record_failure(t(2)), "second failure trips it open");
        assert!(b.is_open());
        assert!(!b.allows(t(3)), "open: shed during cool-down");
        assert!(
            !b.allows(t(2 + 599)),
            "still inside the 10-minute cool-down"
        );
        assert!(b.allows(t(2 + 600)), "cool-down elapsed: half-open probe");
        assert!(!b.is_open());
        b.record_success();
        assert!(b.allows(t(700)), "probe succeeded: closed again");
        assert!(
            !b.record_failure(t(701)),
            "closed counts from zero after the success"
        );
    }

    #[test]
    fn failed_half_open_probe_reopens_for_another_cooldown() {
        let mut b = CircuitBreaker::new(1, SimDuration::seconds(60));
        assert!(b.record_failure(t(0)));
        assert!(b.allows(t(60)), "half-open probe");
        assert!(b.record_failure(t(60)), "failed probe counts as a trip");
        assert!(!b.allows(t(61)), "reopened: cool-down restarted");
        assert!(!b.allows(t(119)));
        assert!(b.allows(t(120)), "second cool-down elapsed");
    }

    #[test]
    fn gate_readmits_substrate_after_outage_clears_and_cooldown() {
        // Outage ends at t=100; breaker trips during it. After the
        // cool-down, the half-open probe lands on a clean schedule and
        // the substrate is readmitted — it no longer latches forever.
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::ChainRpc,
            vec![FaultWindow {
                start: t(0),
                end: t(100),
                kind: FaultKind::Outage,
            }],
        );
        let policy = RetryPolicy {
            breaker_threshold: 1,
            breaker_cooldown: SimDuration::seconds(300),
            ..RetryPolicy::default()
        };
        let mut gate = noop_gate(&plan, "ho", policy);
        assert_eq!(gate.checked(Substrate::ChainRpc, t(10), || ()), Err(Denied));
        assert_eq!(
            gate.checked(Substrate::ChainRpc, t(200), || ()),
            Err(Denied),
            "outage over but breaker still cooling down"
        );
        assert!(
            gate.checked(Substrate::ChainRpc, t(310), || ()).is_ok(),
            "half-open probe succeeds and closes the breaker"
        );
        assert!(gate.checked(Substrate::ChainRpc, t(311), || ()).is_ok());
        let s = gate.stats();
        assert_eq!(s.outage_hits, 1);
        assert_eq!(s.circuit_opens, 1);
        assert_eq!(s.lost, 2);
    }

    #[test]
    fn stage_panic_window_panics_the_caller() {
        let mut plan = FaultPlan::quiet(1);
        plan.schedules.insert(
            Substrate::YoutubeSearch,
            vec![FaultWindow {
                start: t(100),
                end: t(200),
                kind: FaultKind::StagePanic,
            }],
        );
        let mut gate = noop_gate(&plan, "p", RetryPolicy::default());
        assert!(gate.checked(Substrate::YoutubeSearch, t(50), || ()).is_ok());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = gate.checked(Substrate::YoutubeSearch, t(150), || ());
        }));
        let message = panic_text(panicked.expect_err("panic window must panic").as_ref());
        assert!(message.contains("injected stage panic"), "{message}");
        assert!(message.contains("youtube.search"), "{message}");
    }

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .unwrap_or_default()
    }

    #[test]
    fn panicky_profile_schedules_panics_without_shifting_other_kinds() {
        let (a, b) = span();
        let plan = FaultPlan::generate(7, a, b, &ChaosProfile::panicky());
        let panic_windows: usize = plan
            .schedules
            .values()
            .flatten()
            .filter(|w| w.kind == FaultKind::StagePanic)
            .count();
        assert!(panic_windows > 0, "1.5/month over 3 months must schedule");
        // Zero-rate panic fields draw no RNG: a pre-panic profile's plan
        // is byte-identical to the same profile with the fields defaulted.
        let mild = FaultPlan::generate(7, a, b, &ChaosProfile::mild());
        let explicit = FaultPlan::generate(
            7,
            a,
            b,
            &ChaosProfile {
                panics_per_month: 0.0,
                ..ChaosProfile::mild()
            },
        );
        assert_eq!(mild, explicit);
        assert!(!mild
            .schedules
            .values()
            .flatten()
            .any(|w| w.kind == FaultKind::StagePanic));
    }

    #[test]
    fn stream_monitor_gets_only_outages() {
        let (a, b) = span();
        let plan = FaultPlan::generate(123, a, b, &ChaosProfile::severe());
        if let Some(windows) = plan.schedules.get(&Substrate::StreamMonitor) {
            for w in windows {
                assert_eq!(w.kind, FaultKind::Outage);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// One gate under a severe plan, called on random substrates at
        /// increasing times with random record counts (0 among them),
        /// flushes the same rows and reports the same stats as a twin
        /// that adds every call's counts to its sheet one by one, and
        /// makes a `records` row only for a substrate whose served calls
        /// produced records.
        #[test]
        fn call_table_flushes_the_rows_per_call_adds_made(
            seed in proptest::prelude::any::<u64>(),
            calls in proptest::collection::vec((0usize..11, 0i64..21_600, 0u64..3), 1..400),
        ) {
            let (a, b) = span();
            let plan = FaultPlan::generate(seed, a, b, &ChaosProfile::severe());
            let (tabled, added) = (gt_obs::MetricsRegistry::new(), gt_obs::MetricsRegistry::new());
            let mut gate = Gated::new(Some(&plan), "table", RetryPolicy::default(), tabled.sink("s"));
            let mut twin = Gated::new(Some(&plan), "table", RetryPolicy::default(), added.sink("s"));
            let mut records = [0u64; Substrate::ALL.len()];
            let mut now = a;
            for &(sub, gap, count) in &calls {
                now += SimDuration::seconds(gap);
                let sub = Substrate::ALL[sub];
                let served = gate.checked_counted(sub, now, || ((), count)).is_ok();
                // What `checked_counted` did before the call table.
                let label = sub.label();
                let admitted = twin.admit(sub, now);
                twin.sheet.add(label, "calls", 1);
                match admitted {
                    Ok(()) => {
                        twin.sheet.add(label, "served", 1);
                        if count > 0 {
                            twin.sheet.add(label, "records", count);
                        }
                    }
                    Err(Denied) => twin.sheet.add(label, "denied", 1),
                }
                proptest::prop_assert_eq!(served, admitted.is_ok(), "seed {:#x}, {} calls", seed, calls.len());
                if served {
                    records[sub as usize] += count;
                }
            }
            let case = format!("seed {seed:#x}, {} calls, {} s", calls.len(), (now - a).as_seconds());
            proptest::prop_assert_eq!(gate.stats(), twin.stats(), "stats: {}", case);
            drop((gate, twin));
            let (rows, reference) = (tabled.snapshot().metrics, added.snapshot().metrics);
            proptest::prop_assert_eq!(&rows, &reference, "rows: {}", case);
            for (sub, &count) in Substrate::ALL.iter().zip(&records) {
                let row = rows.iter().find(|r| r.substrate == sub.label() && r.metric == "records");
                proptest::prop_assert_eq!(row.map(|r| r.value), (count > 0).then_some(count), "{} records: {}", sub, case);
            }
        }
    }
}
