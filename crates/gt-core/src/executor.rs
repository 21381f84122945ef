//! A small dependency-graph stage executor.
//!
//! A computation is a DAG of named *stages*, each a function of its
//! dependencies' outputs. Stages that do not
//! depend on each other run concurrently on a pool of scoped worker
//! threads; each stage runs inside a wall-clock span and records an item
//! count, from which [`StageTimings::from_snapshot`] derives the run's
//! timings.
//!
//! Results never depend on the thread count: every stage is a pure
//! function of its dependencies' outputs, and the scheduler only decides
//! *when* a stage runs, not *what* it sees. The end-to-end determinism
//! test (`tests/determinism.rs`) pins this down.
//!
//! The *when* comes from the DAG alone. A stage's *level* is 0 when
//! nothing depends on it, otherwise one more than its deepest
//! dependent's; a free worker takes the ready stage with the highest
//! level, the lowest index on a tie. So the root of the longest chain
//! starts first, and a graph whose stages share a level runs in
//! declaration order. Stage indices, and with them every output and
//! the health timeline, never follow the run order.
//!
//! There is one way to declare a stage, [`StageGraph::add_stage`]: every
//! output is store-encodable (so any stage can be cached once a store is
//! bound) and has a `Default`, which is the stage's quarantine fallback
//! unless [`StageGraph::fallback`] overrides it.
//!
//! Each stage body records its metrics through its own sink
//! ([`StageResults::sink`]). The sink's sheet covers every attempt of
//! the stage and is cached with the output, so a cache hit replays
//! exactly the metric rows the computing run recorded.
//!
//! # Supervision
//!
//! By default a panicking stage poisons the run and the payload is
//! re-raised on the caller (strict mode). Under a recovering
//! [`SupervisionPolicy`] ([`StageGraph::supervise`]) the worker instead
//! retries the stage in place — re-probing any bound store first, so a
//! crash-and-retry resumes from the last persisted upstream outputs —
//! and, once attempts are exhausted, *quarantines* it: the stage's
//! fallback output is substituted, every transitive dependent is marked
//! tainted, and the run completes with a [`RunHealth`] timeline instead
//! of aborting. The caller names what each output feeds as it takes it
//! ([`StageOutputs::take_feeding`]); the executor knows no table.

use crate::supervisor::{RunHealth, StageHealth, StageStatus, SupervisionPolicy};
use gt_obs::{Histogram, MetricRow, MetricSheet, MetricsRegistry, StageSink, TelemetrySnapshot};
use gt_store::{digest, Digest, KeyBuilder, RunStore, StoreDecode, StoreEncode};
use serde::Serialize;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type BoxedAny = Box<dyn Any + Send + Sync>;
type StageFn<'env> = Box<dyn FnMut(&StageResults) -> (BoxedAny, u64) + Send + 'env>;
type FallbackFn<'env> = Box<dyn FnOnce(&StageResults) -> (BoxedAny, u64) + Send + 'env>;
type EncodeFn = Box<dyn Fn(&BoxedAny, u64, &MetricSheet) -> Vec<u8> + Send + Sync>;
type DecodeFn = Box<dyn Fn(&[u8]) -> Option<(BoxedAny, u64, MetricSheet)> + Send + Sync>;

/// A metric sheet as a stage record stores it: one `(substrate, metric,
/// kind, (value, histogram))` tuple per row, a histogram as `(edges,
/// counts, sum)`.
type SheetRecord = Vec<(
    String,
    String,
    String,
    (u64, Option<(Vec<u64>, Vec<u64>, u64)>),
)>;

fn sheet_record(sheet: &MetricSheet) -> SheetRecord {
    sheet
        .rows("")
        .map(|r| {
            let hist = r.hist.map(|h| (h.edges, h.counts, h.sum));
            (r.substrate, r.metric, r.kind, (r.value, hist))
        })
        .collect()
}

fn sheet_from_record(record: SheetRecord) -> Option<MetricSheet> {
    MetricSheet::from_rows(
        record
            .into_iter()
            .map(|(substrate, metric, kind, (value, hist))| MetricRow {
                stage: String::new(),
                substrate,
                metric,
                kind,
                value,
                hist: hist.map(|(edges, counts, sum)| Histogram {
                    edges,
                    counts,
                    count: value,
                    sum,
                }),
            }),
    )
}

/// Type-erased (encode, decode) pair for one cacheable stage's
/// `(items, sheet, payload)` record. Decode failures surface as `None`
/// and decay to a recompute — never an error.
struct StageCodec {
    encode: EncodeFn,
    decode: DecodeFn,
}

/// A [`RunStore`] plus the run's base fingerprint, bound to a graph via
/// [`StageGraph::bind_store`].
struct StoreBinding {
    store: Arc<RunStore>,
    base: Digest,
}

/// Wall time and item count for one completed stage.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTiming {
    pub name: String,
    /// Wall-clock milliseconds of the stage's `"stage"` span: every
    /// attempt, plus the store probe and persist.
    pub wall_ms: f64,
    /// Stage-defined unit count; 0 when the stage reports none.
    pub items: u64,
}

/// Per-run execution timings, embedded in
/// [`PaperRun`](crate::pipeline::PaperRun) — deliberately *not* in
/// [`PaperReport`](crate::report::PaperReport), which must stay
/// byte-identical across thread counts. A view of the run's telemetry
/// ([`StageTimings::from_snapshot`]), not a second record of it.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageTimings {
    /// Worker threads the run used.
    pub threads: usize,
    /// Wall-clock milliseconds the run's registry lived.
    pub total_ms: f64,
    /// One entry per stage, sorted by stage name (the metrics block's
    /// order).
    pub stages: Vec<StageTiming>,
}

impl StageTimings {
    /// Derive the timings of a run on `threads` workers from its
    /// telemetry: one entry per `(stage, "executor", "items")` counter,
    /// which the executor records for every stage, timed by that
    /// stage's `"stage"` span (0 if the snapshot holds none);
    /// `total_ms` is the snapshot's `wall.total_ms`.
    pub fn from_snapshot(threads: usize, snapshot: &TelemetrySnapshot) -> Self {
        let stages = snapshot
            .metrics
            .iter()
            .filter(|r| r.substrate == "executor" && r.metric == "items")
            .map(|r| StageTiming {
                name: r.stage.clone(),
                wall_ms: snapshot
                    .wall
                    .spans
                    .iter()
                    .find(|s| s.cat == "stage" && s.name == r.stage)
                    .map_or(0.0, |s| s.dur_us as f64 / 1_000.0),
                items: r.value,
            })
            .collect();
        StageTimings {
            threads,
            total_ms: snapshot.wall.total_ms,
            stages,
        }
    }

    /// Timing entry by stage name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageTiming> {
        self.stages.iter().find(|s| s.name == name)
    }
}

/// Typed handle to a stage's future output.
pub struct StageId<T> {
    index: usize,
    _marker: PhantomData<fn() -> T>,
}

// Derived impls would bound `T`; the handle is always copyable.
impl<T> Clone for StageId<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for StageId<T> {}

impl<T> StageId<T> {
    /// The untyped index, usable in a dependency list.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Read access to completed dependencies, plus the stage's own metric
/// sink, handed to each stage body.
pub struct StageResults<'a> {
    slots: &'a [OnceLock<BoxedAny>],
    sink: &'a StageSink,
}

impl StageResults<'_> {
    /// The sink the stage records its metrics into (spans go to the
    /// run's span log). Its sheet is cached with the stage output.
    pub fn sink(&self) -> &StageSink {
        self.sink
    }

    /// The output of a completed dependency stage.
    ///
    /// # Panics
    /// If `id` was not declared as a dependency of the calling stage (the
    /// scheduler only guarantees declared dependencies have completed).
    pub fn get<T: Send + Sync + 'static>(&self, id: StageId<T>) -> &T {
        self.slots[id.index]
            .get()
            .expect("stage read a result it did not declare as a dependency")
            .downcast_ref::<T>()
            .expect("stage output type mismatch")
    }
}

struct Stage<'env> {
    name: String,
    deps: Vec<usize>,
    run: Mutex<Option<StageFn<'env>>>,
    /// Degraded substitute output used when the stage is quarantined
    /// under a recovering policy: `T::default()` unless overridden.
    fallback: Mutex<Option<FallbackFn<'env>>>,
    /// Ignored unless a store is bound.
    codec: StageCodec,
}

/// The stage graph under construction.
#[derive(Default)]
pub struct StageGraph<'env> {
    stages: Vec<Stage<'env>>,
    store: Option<StoreBinding>,
    policy: SupervisionPolicy,
}

impl<'env> StageGraph<'env> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a stage-result store. `base` must fingerprint everything
    /// run-global that stage outputs depend on (world config, fault
    /// plan, retry policy, ...) — and deliberately *not* the thread
    /// count, so runs at different parallelism share entries.
    pub fn bind_store(&mut self, store: Arc<RunStore>, base: Digest) {
        self.store = Some(StoreBinding { store, base });
    }

    /// Set the supervision policy for the run. The default is
    /// [`SupervisionPolicy::strict`]: no retries, no fallbacks, the
    /// first stage panic poisons the run.
    pub fn supervise(&mut self, policy: SupervisionPolicy) {
        self.policy = policy;
    }

    /// Register a stage. `deps` are indices of previously registered
    /// stages ([`StageId::index`]); the body receives read access to
    /// their outputs and returns its own plus how many items it
    /// processed. The body may read nothing else that can vary between
    /// runs sharing a store, beyond what the run's base fingerprint
    /// covers: the cache key is the base, the stage name and the
    /// dependencies' content digests. The item count and the body's
    /// metric sheet are persisted alongside the payload, so a cache hit
    /// restores both. The quarantine fallback is `T::default()`.
    pub fn add_stage<T, F>(&mut self, name: &str, deps: &[usize], f: F) -> StageId<T>
    where
        T: StoreEncode + StoreDecode + Default + Send + Sync + 'static,
        F: FnMut(&StageResults) -> (T, u64) + Send + 'env,
    {
        let index = self.stages.len();
        for &d in deps {
            assert!(d < index, "stage {name:?} depends on a later stage");
        }
        let mut f = f;
        self.stages.push(Stage {
            name: name.to_string(),
            deps: deps.to_vec(),
            run: Mutex::new(Some(Box::new(move |r| {
                let (value, items) = f(r);
                (Box::new(value) as BoxedAny, items)
            }))),
            fallback: Mutex::new(None),
            codec: StageCodec {
                encode: Box::new(|any, items, sheet| {
                    let value = any
                        .downcast_ref::<T>()
                        .expect("stage output type mismatch in store codec");
                    gt_store::encode_to_vec(&(items, sheet_record(sheet), value))
                }),
                decode: Box::new(|bytes| {
                    let (items, sheet, value): (u64, SheetRecord, T) =
                        gt_store::decode_from_slice(bytes).ok()?;
                    Some((
                        Box::new(value) as BoxedAny,
                        items,
                        sheet_from_record(sheet)?,
                    ))
                }),
            },
        });
        let id = StageId {
            index,
            _marker: PhantomData,
        };
        self.fallback(id, |_| T::default());
        id
    }

    /// Override a stage's quarantine fallback: a degraded substitute
    /// served in the stage's place when a recovering policy exhausts
    /// its attempts. The fallback sees the same completed dependencies
    /// the real body would. Never invoked in strict mode or while
    /// retries remain.
    pub fn fallback<T, F>(&mut self, id: StageId<T>, f: F)
    where
        T: Send + Sync + 'static,
        F: FnOnce(&StageResults) -> T + Send + 'env,
    {
        self.stages[id.index()].fallback =
            Mutex::new(Some(Box::new(move |r| (Box::new(f(r)) as BoxedAny, 0))));
    }

    /// Execute the graph on `threads` workers (0 = available
    /// parallelism), reporting into `obs`, and return every stage
    /// output plus the run's health. Each stage runs inside a wall-clock
    /// span named after the stage (category `"stage"`) and records into
    /// its own sink ([`StageResults::sink`]), whose sheet a cache hit
    /// replays. The executor adds its own counters:
    /// the item count on `(stage, "executor", "items")` — recorded even
    /// when zero, so the metrics block covers every stage
    /// deterministically; `(stage, "store", cache_hit|cache_miss|
    /// write_error)` when a store is bound; and `(stage, "supervisor",
    /// retry|recovered|quarantined)` — only when they fire, so a clean
    /// run's metrics block is byte-identical with or without
    /// supervision.
    pub fn run(self, threads: usize, obs: &MetricsRegistry) -> StageOutputs {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let n = self.stages.len();

        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indegree: Vec<usize> = vec![0; n];
        for (i, stage) in self.stages.iter().enumerate() {
            indegree[i] = stage.deps.len();
            for &d in &stage.deps {
                dependents[d].push(i);
            }
        }
        // Dependents have higher indices, so one reverse pass sees every
        // dependent's level before its dependencies'.
        let mut level: Vec<usize> = vec![0; n];
        for i in (0..n).rev() {
            level[i] = dependents[i]
                .iter()
                .map(|&d| level[d] + 1)
                .max()
                .unwrap_or(0);
        }
        let ready: BinaryHeap<(usize, Reverse<usize>)> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(|i| (level[i], Reverse(i)))
            .collect();

        let slots: Vec<OnceLock<BoxedAny>> = (0..n).map(|_| OnceLock::new()).collect();
        // Content digests of cached stage payloads, set as each stage
        // completes (from the cached record on a hit, from the freshly
        // encoded payload on a miss) — dependents fold them into their
        // own keys. Mutexes, not OnceLocks: a quarantined stage must
        // *overwrite* any digest a failed attempt already recorded with
        // the digest of its fallback payload, otherwise dependents would
        // persist degraded outputs under the keys of the real data.
        let digests: Vec<Mutex<Option<Digest>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let records: Vec<OnceLock<StageRecord>> = (0..n).map(|_| OnceLock::new()).collect();
        let sched = Mutex::new(Sched {
            indegree,
            ready,
            remaining: n,
        });
        let wake = Condvar::new();
        let poison: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let ctx = WorkerCtx {
            stages: &self.stages,
            dependents: &dependents,
            level: &level,
            slots: &slots,
            digests: &digests,
            records: &records,
            store: self.store.as_ref(),
            sched: &sched,
            wake: &wake,
            poison: &poison,
            obs,
            policy: self.policy,
        };

        if threads <= 1 || n <= 1 {
            run_worker(&ctx);
        } else {
            // Stage-body panics are caught into `poison`; a worker that
            // panics outside a body fails the scope itself.
            std::thread::scope(|scope| {
                for _ in 0..threads.min(n) {
                    scope.spawn(|| run_worker(&ctx));
                }
            });
        }

        // A panicking stage poisons the run (workers drain instead of
        // deadlocking on the condvar); re-raise it on the caller.
        if let Some(payload) = poison.into_inner().unwrap() {
            resume_unwind(payload);
        }

        let health = fold_health(
            &self.stages,
            records
                .into_iter()
                .map(|cell| {
                    cell.into_inner()
                        .expect("stage never ran (dependency cycle?)")
                })
                .collect(),
            self.policy,
        );

        StageOutputs {
            slots: slots.into_iter().map(|cell| cell.into_inner()).collect(),
            health,
        }
    }
}

struct Sched {
    indegree: Vec<usize>,
    /// Ready stages as `(level, Reverse(index))`: the max is the pick.
    ready: BinaryHeap<(usize, Reverse<usize>)>,
    remaining: usize,
}

/// Terminal supervision record for one stage, written exactly once by
/// the worker that ran it.
struct StageRecord {
    attempts: u32,
    status: StageStatus,
    error: Option<String>,
    cache_write_failed: bool,
}

/// Everything a worker needs, bundled so the loop and its helpers stay
/// readable.
struct WorkerCtx<'a, 'env> {
    stages: &'a [Stage<'env>],
    dependents: &'a [Vec<usize>],
    level: &'a [usize],
    slots: &'a [OnceLock<BoxedAny>],
    digests: &'a [Mutex<Option<Digest>>],
    records: &'a [OnceLock<StageRecord>],
    store: Option<&'a StoreBinding>,
    sched: &'a Mutex<Sched>,
    wake: &'a Condvar,
    poison: &'a Mutex<Option<Box<dyn Any + Send>>>,
    obs: &'a MetricsRegistry,
    policy: SupervisionPolicy,
}

impl WorkerCtx<'_, '_> {
    /// First panic wins; poison the run and wake every blocked worker
    /// so the scope can unwind cleanly.
    fn poison_run(&self, payload: Box<dyn Any + Send>) {
        {
            let mut p = self.poison.lock().unwrap();
            if p.is_none() {
                *p = Some(payload);
            }
        }
        let mut s = self.sched.lock().unwrap();
        s.remaining = 0;
        s.ready.clear();
        drop(s);
        self.wake.notify_all();
    }
}

/// The cache key for one stage: the run's base fingerprint, the stage
/// name, and every dependency's content digest (always recorded by the
/// time a dependent runs, since a store is bound).
fn stage_key(
    binding: &StoreBinding,
    stage: &Stage<'_>,
    digests: &[Mutex<Option<Digest>>],
) -> Digest {
    let mut kb = KeyBuilder::new("stage");
    kb.push_digest(&binding.base);
    kb.push_str(&stage.name);
    for &d in &stage.deps {
        let dep = digests[d]
            .lock()
            .unwrap()
            .expect("dependency completed without a content digest");
        kb.push_digest(&dep);
    }
    kb.finish()
}

/// Render a panic payload as a one-line message for the health report.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One attempt at a stage: probe the store (every retry re-probes, so a
/// crash-and-retry resumes from whatever upstream persists survived),
/// replay the cached sheet into the stage's sink on a hit, run the body
/// on a miss and persist the encoding with the sink's sheet. Runs inside
/// the worker's `catch_unwind` — a panic anywhere here (the store's
/// simulated-crash hook included) is one failed attempt. `exec` takes
/// the executor's own counters, which are never cached.
fn attempt_stage(
    ctx: &WorkerCtx<'_, '_>,
    index: usize,
    body: &mut StageFn<'_>,
    results: &StageResults<'_>,
    exec: &StageSink,
    write_failed: &AtomicBool,
) -> (BoxedAny, u64) {
    let stage = &ctx.stages[index];
    let Some(binding) = ctx.store else {
        return body(results);
    };
    let key = stage_key(binding, stage, ctx.digests);
    if let Some(payload) = binding.store.load_stage(&binding.base, &stage.name, &key) {
        if let Some((value, items, mut sheet)) = (stage.codec.decode)(&payload) {
            exec.counter_add("store", "cache_hit", 1);
            results.sink.flush(&mut sheet);
            *ctx.digests[index].lock().unwrap() = Some(digest(&payload));
            return (value, items);
        }
    }
    let (value, items) = body(results);
    let payload = (stage.codec.encode)(&value, items, &results.sink.sheet());
    *ctx.digests[index].lock().unwrap() = Some(digest(&payload));
    exec.counter_add("store", "cache_miss", 1);
    if binding
        .store
        .store_stage(&binding.base, &stage.name, &key, &payload)
        .is_err()
    {
        // A failed write never fails the run; the stage output is in
        // hand and the entry will be recomputed next time. It is still
        // reported: the run will not resume warm, and the operator
        // should hear about the full/read-only disk now.
        exec.counter_add("store", "write_error", 1);
        write_failed.store(true, Ordering::Relaxed);
    }
    (value, items)
}

fn run_worker(ctx: &WorkerCtx<'_, '_>) {
    loop {
        let next = {
            let mut s = ctx.sched.lock().unwrap();
            loop {
                if s.remaining == 0 {
                    return;
                }
                if let Some((_, Reverse(i))) = s.ready.pop() {
                    break i;
                }
                s = ctx.wake.wait(s).unwrap();
            }
        };

        let stage = &ctx.stages[next];
        let mut body = stage
            .run
            .lock()
            .unwrap()
            .take()
            .expect("stage scheduled twice");
        let sink = ctx.obs.sink(&stage.name);
        let exec = ctx.obs.sink(&stage.name);
        let results = StageResults {
            slots: ctx.slots,
            sink: &sink,
        };
        let span = ctx.obs.span(&stage.name, "stage");
        let max_attempts = ctx.policy.max_attempts();
        let write_failed = AtomicBool::new(false);
        let mut attempts = 0u32;
        let mut last_error: Option<String> = None;
        let mut outcome: Option<(BoxedAny, u64)> = None;
        let mut last_payload: Option<Box<dyn Any + Send>> = None;

        while attempts < max_attempts {
            attempts += 1;
            // The store probe, the stage body, and the persist all run
            // inside the same catch_unwind: a panic in any of them must
            // poison or retry rather than deadlock the other workers on
            // the condvar.
            match catch_unwind(AssertUnwindSafe(|| {
                attempt_stage(ctx, next, &mut body, &results, &exec, &write_failed)
            })) {
                Ok(out) => {
                    outcome = Some(out);
                    break;
                }
                Err(payload) => {
                    last_error = Some(panic_message(payload.as_ref()));
                    last_payload = Some(payload);
                    if attempts < max_attempts {
                        exec.counter_add("supervisor", "retry", 1);
                    }
                }
            }
        }

        let (status, value, items) = match outcome {
            Some((value, items)) => {
                let status = if attempts > 1 {
                    exec.counter_add("supervisor", "recovered", 1);
                    StageStatus::Recovered
                } else {
                    StageStatus::Completed
                };
                (status, value, items)
            }
            None => {
                // Attempts exhausted. Quarantine is a recovering-policy
                // concept: strict mode never consults the fallback and
                // poisons the run exactly as before supervision existed.
                if ctx.policy == SupervisionPolicy::Strict {
                    ctx.poison_run(last_payload.expect("failed stage recorded no panic"));
                    return;
                }
                let fb = stage
                    .fallback
                    .lock()
                    .unwrap()
                    .take()
                    .expect("fallback taken twice");
                match catch_unwind(AssertUnwindSafe(|| fb(&results))) {
                    Ok((value, items)) => {
                        exec.counter_add("supervisor", "quarantined", 1);
                        // Re-key (or clear) the stage's content digest
                        // from the fallback payload so dependents cache
                        // under addresses that name the degraded data —
                        // and never persist the fallback under the
                        // stage's own key, which names the real
                        // computation.
                        *ctx.digests[next].lock().unwrap() = ctx.store.map(|_| {
                            digest(&(stage.codec.encode)(&value, items, &MetricSheet::new()))
                        });
                        (StageStatus::Quarantined, value, items)
                    }
                    Err(fb_payload) => {
                        // A panicking fallback is a programming error;
                        // nothing left to substitute.
                        ctx.poison_run(fb_payload);
                        return;
                    }
                }
            }
        };
        drop(span);
        exec.counter_add("executor", "items", items);
        let _ = ctx.slots[next].set(value);
        let _ = ctx.records[next].set(StageRecord {
            attempts,
            status,
            error: last_error,
            cache_write_failed: write_failed.load(Ordering::Relaxed),
        });

        let mut s = ctx.sched.lock().unwrap();
        if s.remaining == 0 {
            // Another stage poisoned the run while this one ran.
            return;
        }
        s.remaining -= 1;
        for &d in &ctx.dependents[next] {
            s.indegree[d] -= 1;
            if s.indegree[d] == 0 {
                s.ready.push((ctx.level[d], Reverse(d)));
            }
        }
        drop(s);
        ctx.wake.notify_all();
    }
}

/// Fold per-stage records into the run's [`RunHealth`], computing the
/// taint closure: a stage is tainted when any dependency is quarantined
/// or itself tainted. One forward pass suffices because dependencies
/// always have lower indices than their dependents. The operator
/// warnings follow from the same records.
fn fold_health(
    stages: &[Stage<'_>],
    records: Vec<StageRecord>,
    policy: SupervisionPolicy,
) -> RunHealth {
    let n = stages.len();
    let mut degraded = vec![false; n];
    let mut health = RunHealth {
        supervised: policy != SupervisionPolicy::Strict,
        ..RunHealth::default()
    };
    for (i, record) in records.into_iter().enumerate() {
        let name = &stages[i].name;
        let quarantined = record.status == StageStatus::Quarantined;
        let tainted = !quarantined && stages[i].deps.iter().any(|&d| degraded[d]);
        degraded[i] = quarantined || tainted;
        health.attempts += u64::from(record.attempts);
        health.retries += u64::from(record.attempts - 1);
        if quarantined {
            health.quarantined.push(name.clone());
            health.warnings.push(format!(
                "stage {name}: quarantined after {} attempts ({}); fallback output substituted",
                record.attempts,
                record.error.as_deref().unwrap_or("panic"),
            ));
        }
        if tainted {
            health.tainted.push(name.clone());
        }
        if record.cache_write_failed {
            health.warnings.push(format!(
                "stage {name}: cache write failed (disk full or read-only?); \
                 this run is fine but will not resume warm",
            ));
        }
        health.stages.push(StageHealth {
            name: name.clone(),
            attempts: record.attempts,
            status: record.status,
            error: record.error,
            tainted,
            cache_write_failed: record.cache_write_failed,
        });
    }
    health
}

/// Every stage's output after a completed run, each moved out once:
/// with [`StageOutputs::take_feeding`] when it feeds named tables (so a
/// degraded stage names them in the run's health), with
/// [`StageOutputs::take`] otherwise.
pub struct StageOutputs {
    slots: Vec<Option<BoxedAny>>,
    /// Supervision outcome for the run: attempts, retries, quarantined
    /// and tainted stages, operator warnings, and the per-stage recovery
    /// timeline. On a strict clean run this is all-Completed with zero
    /// retries. Its `degraded_tables` fill as
    /// [`StageOutputs::take_feeding`] takes degraded outputs.
    pub health: RunHealth,
}

impl StageOutputs {
    /// Move a stage's output out.
    ///
    /// # Panics
    /// If called twice for the same stage.
    pub fn take<T: Send + Sync + 'static>(&mut self, id: StageId<T>) -> T {
        *self.slots[id.index()]
            .take()
            .expect("stage output already taken")
            .downcast::<T>()
            .expect("stage output type mismatch")
    }

    /// Move out the output of a stage that feeds the tables `tables`.
    /// When the stage was quarantined or tainted, the names join
    /// [`RunHealth::degraded_tables`], which stays sorted and
    /// deduplicated.
    ///
    /// # Panics
    /// If called twice for the same stage.
    pub fn take_feeding<T: Send + Sync + 'static>(&mut self, id: StageId<T>, tables: &[&str]) -> T {
        let stage = &self.health.stages[id.index()];
        if stage.tainted || stage.status == StageStatus::Quarantined {
            let degraded = &mut self.health.degraded_tables;
            degraded.extend(tables.iter().map(|t| t.to_string()));
            degraded.sort();
            degraded.dedup();
        }
        self.take(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    #[test]
    fn diamond_graph_runs_in_dependency_order() {
        for threads in [1, 2, 4] {
            let mut g = StageGraph::new();
            let a = g.add_stage("a", &[], |_| (2u64, 0));
            let b = g.add_stage("b", &[a.index()], move |r| (r.get(a) * 10, 0));
            let c = g.add_stage("c", &[a.index()], move |r| (r.get(a) + 5, 0));
            let d = g.add_stage("d", &[b.index(), c.index()], move |r| {
                (r.get(b) + r.get(c), 0)
            });
            let mut out = g.run(threads, &MetricsRegistry::new());
            assert_eq!(out.take(d), 27, "{threads} threads");
        }
    }

    #[test]
    fn the_deepest_root_runs_first_and_ties_keep_declaration_order() {
        // (name, deps). Levels: deep 2; shallow_a, mid and deep_1 1; the
        // rest 0. The deepest root is the last root declared.
        const GRAPH: [(&str, &[usize]); 7] = [
            ("shallow_a", &[]),
            ("shallow_b", &[]),
            ("mid", &[]),
            ("deep", &[]),
            ("mid_child", &[2]),
            ("deep_1", &[3]),
            ("deep_2", &[5, 0]),
        ];
        let order = Mutex::new(Vec::new());
        let run = |threads: usize| {
            let mut g = StageGraph::new();
            let ids: Vec<StageId<String>> = GRAPH
                .iter()
                .map(|&(name, deps)| {
                    let order = &order;
                    g.add_stage(name, deps, move |r| {
                        order.lock().unwrap().push(name);
                        let mut out = name.to_string();
                        for &index in deps {
                            let dep = StageId::<String> {
                                index,
                                _marker: PhantomData,
                            };
                            out = format!("{out}({})", r.get(dep));
                        }
                        (out, 0)
                    })
                })
                .collect();
            let mut out = g.run(threads, &MetricsRegistry::new());
            let timeline: Vec<&str> = out.health.stages.iter().map(|s| s.name.as_str()).collect();
            let declared: Vec<&str> = GRAPH.iter().map(|&(name, _)| name).collect();
            assert_eq!(
                timeline, declared,
                "the health timeline keeps declaration order"
            );
            ids.into_iter().map(|id| out.take(id)).collect::<Vec<_>>()
        };

        let serial = run(1);
        assert_eq!(
            *order.lock().unwrap(),
            [
                "deep",
                "shallow_a",
                "mid",
                "deep_1",
                "shallow_b",
                "mid_child",
                "deep_2"
            ],
            "highest level first; on a tie (the level-1 stages, then the \
             level-0 ones) the lowest index"
        );
        assert_eq!(serial[6], "deep_2(deep_1(deep))(shallow_a)");
        for threads in [2, 4] {
            order.lock().unwrap().clear();
            assert_eq!(run(threads), serial, "{threads} threads");
            assert_eq!(order.lock().unwrap().len(), 7, "{threads} threads");
        }
    }

    #[test]
    fn independent_stages_all_run() {
        let counter = AtomicUsize::new(0);
        let mut g = StageGraph::new();
        for i in 0..16 {
            g.add_stage::<usize, _>(&format!("s{i}"), &[], |_| {
                (counter.fetch_add(1, Ordering::SeqCst), 0)
            });
        }
        g.run(4, &MetricsRegistry::new());
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn items_are_recorded() {
        let mut g = StageGraph::new();
        g.add_stage::<Vec<u32>, _>("count", &[], |_| (vec![1, 2, 3], 3));
        let obs = MetricsRegistry::new();
        g.run(1, &obs);
        let timings = StageTimings::from_snapshot(1, &obs.snapshot());
        assert_eq!(timings.stage("count").unwrap().items, 3);
        assert!(timings.stage("missing").is_none());
    }

    #[test]
    fn heterogeneous_output_types() {
        let mut g = StageGraph::new();
        let s = g.add_stage("string", &[], |_| ("hello".to_string(), 0));
        let v = g.add_stage("vec", &[s.index()], move |r| (vec![r.get(s).len()], 0));
        let mut out = g.run(2, &MetricsRegistry::new());
        assert_eq!(out.take(v), vec![5]);
        assert_eq!(out.take(s), "hello");
    }

    #[test]
    #[should_panic(expected = "depends on a later stage")]
    fn forward_dependencies_are_rejected() {
        let mut g = StageGraph::new();
        g.add_stage::<u8, _>("bad", &[3], |_| (0, 0));
    }

    #[test]
    fn diamond_dependency_sees_both_parents() {
        // b and c race on 2+ threads; d must still observe both, and the
        // sum pins that neither parent was skipped or reordered past d.
        for threads in [1, 2, 4, 8] {
            let mut g = StageGraph::new();
            let a = g.add_stage("a", &[], |_| (vec![1u64, 2, 3], 0));
            let b = g.add_stage("b", &[a.index()], move |r| {
                (r.get(a).iter().sum::<u64>(), 0)
            });
            let c = g.add_stage("c", &[a.index()], move |r| {
                (r.get(a).iter().product::<u64>(), 0)
            });
            let d = g.add_stage("d", &[b.index(), c.index()], move |r| {
                (r.get(b) + r.get(c), 0)
            });
            let mut out = g.run(threads, &MetricsRegistry::new());
            assert_eq!(out.take(d), 12, "{threads} threads");
        }
    }

    #[test]
    fn timings_are_derived_for_every_stage_in_name_order() {
        for threads in [1, 4] {
            let mut g = StageGraph::new();
            let names = ["epsilon", "beta", "gamma", "delta", "alpha"];
            let mut prev: Option<usize> = None;
            for name in names {
                let deps: Vec<usize> = prev.into_iter().collect();
                let id = g.add_stage::<u8, _>(name, &deps, |_| (0, 0));
                prev = Some(id.index());
            }
            let obs = MetricsRegistry::new();
            g.run(threads, &obs);
            let snapshot = obs.snapshot();
            let timings = StageTimings::from_snapshot(threads, &snapshot);
            assert_eq!(timings.threads, threads);
            assert_eq!(timings.total_ms, snapshot.wall.total_ms);
            let listed: Vec<&str> = timings.stages.iter().map(|t| t.name.as_str()).collect();
            assert_eq!(listed, ["alpha", "beta", "delta", "epsilon", "gamma"]);
            for t in &timings.stages {
                let span = snapshot
                    .wall
                    .spans
                    .iter()
                    .find(|s| s.cat == "stage" && s.name == t.name)
                    .unwrap_or_else(|| panic!("no span for stage {:?}", t.name));
                assert_eq!(t.wall_ms, span.dur_us as f64 / 1_000.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn stage_panic_propagates_single_thread() {
        let mut g = StageGraph::new();
        g.add_stage::<u8, _>("bad", &[], |_| panic!("boom"));
        g.run(1, &MetricsRegistry::new());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn stage_panic_propagates_multi_thread() {
        // Regression: a panicking stage used to leave `remaining`
        // undecremented, deadlocking the other workers on the condvar.
        let mut g = StageGraph::new();
        for i in 0..8 {
            g.add_stage::<u8, _>(&format!("ok{i}"), &[], |_| (0, 0));
        }
        g.add_stage::<u8, _>("bad", &[], |_| panic!("boom"));
        for i in 8..16 {
            g.add_stage::<u8, _>(&format!("ok{i}"), &[], |_| (0, 0));
        }
        g.run(4, &MetricsRegistry::new());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn stage_finishing_after_the_run_is_poisoned() {
        // "slow" is popped first and is still running when "bad" poisons
        // the run on the other worker; finishing it must not count it off
        // a run that has no stages left.
        let bad_started = AtomicBool::new(false);
        let mut g = StageGraph::new();
        g.add_stage::<u8, _>("slow", &[], |_| {
            while !bad_started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            (0, 0)
        });
        g.add_stage::<u8, _>("bad", &[], |_| {
            bad_started.store(true, Ordering::SeqCst);
            panic!("boom")
        });
        g.run(2, &MetricsRegistry::new());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let mut g = StageGraph::new();
        let a = g.add_stage("only", &[], |_| (1u8, 0));
        let mut out = g.run(0, &MetricsRegistry::new());
        assert_eq!(out.take(a), 1);
    }

    #[test]
    fn clean_run_health_is_all_completed() {
        let mut g = StageGraph::new();
        let a = g.add_stage("a", &[], |_| (1u8, 0));
        g.add_stage("b", &[a.index()], move |r| (r.get(a) + 1, 0));
        let out = g.run(1, &MetricsRegistry::new());
        assert!(!out.health.supervised, "default policy is strict");
        assert!(out.health.is_clean());
        assert_eq!(out.health.attempts, 2);
        assert_eq!(out.health.retries, 0);
        assert!(out.health.degraded_tables.is_empty());
        assert!(out
            .health
            .stages
            .iter()
            .all(|s| s.status == StageStatus::Completed && s.error.is_none()));
    }

    #[test]
    fn retry_recovers_a_flaky_stage() {
        for threads in [1, 4] {
            let failures = AtomicU32::new(0);
            let mut g = StageGraph::new();
            let s = g.add_stage("flaky", &[], |_| {
                if failures.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient wobble");
                }
                (41u64, 0)
            });
            let t = g.add_stage("after", &[s.index()], move |r| (r.get(s) + 1, 0));
            g.supervise(SupervisionPolicy::recover(3));
            let mut out = g.run(threads, &MetricsRegistry::new());
            assert_eq!(out.take(t), 42, "{threads} threads");
            assert!(out.health.supervised);
            let flaky = &out.health.stages[0];
            assert_eq!(flaky.attempts, 3);
            assert_eq!(flaky.status, StageStatus::Recovered);
            assert_eq!(flaky.error.as_deref(), Some("transient wobble"));
            assert!(!flaky.tainted);
            assert_eq!(out.health.retries, 2);
            assert!(out.health.quarantined.is_empty());
            failures.store(0, Ordering::SeqCst);
        }
    }

    #[test]
    fn quarantine_substitutes_fallback_and_taints_dependents() {
        for threads in [1, 4] {
            let mut g = StageGraph::new();
            let a = g.add_stage("a", &[], |_| (7u64, 0));
            let b = g.add_stage::<u64, _>("b", &[a.index()], |_| panic!("b is broken"));
            let c = g.add_stage("c", &[a.index()], move |r| (r.get(a) + 1, 0));
            let d = g.add_stage("d", &[b.index(), c.index()], move |r| {
                (r.get(b) + r.get(c), 0)
            });
            g.fallback(b, move |r| r.get(a) + 100);
            g.supervise(SupervisionPolicy::recover(2));
            let mut out = g.run(threads, &MetricsRegistry::new());
            assert_eq!(out.take(d), 107 + 8, "{threads} threads");
            assert_eq!(out.health.quarantined, vec!["b"]);
            assert_eq!(
                out.health.tainted,
                vec!["d"],
                "c is untouched, d is fed by b"
            );
            let b_health = &out.health.stages[1];
            assert_eq!(b_health.status, StageStatus::Quarantined);
            assert_eq!(b_health.attempts, 2);
            assert_eq!(b_health.error.as_deref(), Some("b is broken"));
            assert!(out.health.stages[3].tainted);
            assert!(!out.health.stages[2].tainted);
            assert_eq!(out.health.retries, 1);
        }
    }

    #[test]
    fn stage_without_an_override_quarantines_to_default_and_strict_still_poisons() {
        let graph = || {
            let mut g = StageGraph::new();
            let doomed = g.add_stage::<Vec<u64>, _>("doomed", &[], |_| panic!("no override here"));
            let after = g.add_stage("after", &[doomed.index()], move |r| {
                (r.get(doomed).len() as u64 + 1, 0)
            });
            (g, doomed, after)
        };

        let (mut g, doomed, after) = graph();
        g.supervise(SupervisionPolicy::recover(3));
        let mut out = g.run(1, &MetricsRegistry::new());
        assert_eq!(out.take(doomed), Vec::<u64>::new(), "T::default() served");
        assert_eq!(out.take(after), 1, "the dependent read the default");
        assert_eq!(out.health.quarantined, vec!["doomed"]);
        assert_eq!(out.health.tainted, vec!["after"]);
        assert_eq!(out.health.stages[0].attempts, 3);

        let (g, _, _) = graph();
        let Err(payload) = catch_unwind(AssertUnwindSafe(|| g.run(1, &MetricsRegistry::new())))
        else {
            panic!("strict mode must poison the run");
        };
        assert_eq!(panic_message(payload.as_ref()), "no override here");
    }

    #[test]
    #[should_panic(expected = "strict means strict")]
    fn strict_mode_ignores_declared_fallbacks() {
        let mut g = StageGraph::new();
        let s = g.add_stage::<u8, _>("bad", &[], |_| panic!("strict means strict"));
        g.fallback(s, |_| 0u8);
        // Default policy: no supervise() call.
        g.run(1, &MetricsRegistry::new());
    }

    #[test]
    fn taint_propagates_transitively_through_chains() {
        let mut g = StageGraph::new();
        let a = g.add_stage::<u8, _>("a", &[], |_| panic!("root failure"));
        let b = g.add_stage("b", &[a.index()], move |r| (r.get(a) + 1, 0));
        let c = g.add_stage("c", &[b.index()], move |r| (r.get(b) + 1, 0));
        let lone = g.add_stage("lone", &[], |_| (9u8, 0));
        g.supervise(SupervisionPolicy::recover(1));
        let mut out = g.run(2, &MetricsRegistry::new());
        assert_eq!(out.take(c), 2);
        assert_eq!(out.take(lone), 9);
        assert_eq!(out.health.quarantined, vec!["a"]);
        assert_eq!(out.health.tainted, vec!["b", "c"]);
        assert!(!out.health.stages[3].tainted, "independent stage untouched");
    }

    #[test]
    fn health_names_degraded_tables_and_warns_per_quarantine() {
        // The quarantined root and its tainted dependent name their
        // tables as they are taken, overlapping names once and sorted;
        // the clean stage's tables never count.
        let mut g = StageGraph::new();
        let root = g.add_stage::<u8, _>("root", &[], |_| panic!("boom"));
        let child = g.add_stage("child", &[root.index()], move |r| (*r.get(root), 0));
        let clean = g.add_stage("clean", &[], |_| (1u8, 0));
        g.supervise(SupervisionPolicy::recover(2));
        let mut out = g.run(1, &MetricsRegistry::new());
        out.take_feeding(child, &["table.z", "table.b"]);
        out.take_feeding(clean, &["table.clean"]);
        out.take_feeding(root, &["table.b", "table.a", "table.a"]);
        let health = &out.health;
        assert!(!health.is_clean());
        assert_eq!(
            health.degraded_tables,
            vec!["table.a", "table.b", "table.z"]
        );
        assert_eq!(
            health.warnings,
            vec!["stage root: quarantined after 2 attempts (boom); fallback output substituted"]
        );
    }

    #[test]
    fn a_cache_hit_replays_the_sheet_of_every_attempt() {
        let dir = std::env::temp_dir().join(format!("gt-exec-sheet-{}", std::process::id()));
        let store = Arc::new(RunStore::open(&dir).expect("store opens"));
        let bodies = AtomicU32::new(0);
        let run = || {
            let mut g = StageGraph::new();
            g.bind_store(store.clone(), digest(b"sheet-replay"));
            g.supervise(SupervisionPolicy::recover(2));
            g.add_stage("flaky", &[], |r| {
                r.sink().counter_add("sub", "calls", 1);
                if bodies.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt fails");
                }
                (5u8, 0)
            });
            let obs = MetricsRegistry::new();
            g.run(1, &obs);
            obs.snapshot()
        };
        let cold = run();
        let warm = run();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(bodies.load(Ordering::SeqCst), 2, "the warm run is a hit");
        assert_eq!(
            cold.counter("flaky", "sub", "calls"),
            Some(2),
            "both attempts"
        );
        assert_eq!(warm.counter("flaky", "sub", "calls"), Some(2), "replayed");
        assert_eq!(warm.counter("flaky", "store", "cache_hit"), Some(1));
        assert_eq!(warm.counter("flaky", "supervisor", "retry"), None);
    }

    #[test]
    fn a_changed_output_recomputes_its_cone_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("gt-exec-cone-{}", std::process::id()));
        let store = Arc::new(RunStore::open(&dir).expect("store opens"));
        let b_bodies = AtomicU32::new(0);
        let c_bodies = AtomicU32::new(0);
        // a → b, plus an independent c; `a_out` is what a computes.
        let run = |a_out: u64| {
            let mut g = StageGraph::new();
            g.bind_store(store.clone(), digest(b"cone"));
            let a = g.add_stage("a", &[], move |_| (a_out, 0));
            let b = g.add_stage("b", &[a.index()], |r| {
                b_bodies.fetch_add(1, Ordering::SeqCst);
                (r.get(a) * 10, 0)
            });
            g.add_stage("c", &[], |_| {
                c_bodies.fetch_add(1, Ordering::SeqCst);
                (7u64, 0)
            });
            let obs = MetricsRegistry::new();
            let mut out = g.run(1, &obs);
            (out.take(b), obs.snapshot())
        };
        assert_eq!(run(1).0, 10);
        let a_record = std::fs::read_dir(dir.join("stages"))
            .unwrap()
            .flat_map(|group| std::fs::read_dir(group.unwrap().path()).unwrap())
            .map(|entry| entry.unwrap().path())
            .find(|path| {
                path.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with("a-")
            })
            .expect("a's record exists");
        std::fs::remove_file(a_record).unwrap();

        let (b, warm) = run(2);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(b, 20, "b read a's new output");
        assert_eq!(b_bodies.load(Ordering::SeqCst), 2, "b recomputed");
        assert_eq!(c_bodies.load(Ordering::SeqCst), 1, "c replayed");
        assert_eq!(warm.counter("a", "store", "cache_miss"), Some(1));
        assert_eq!(warm.counter("b", "store", "cache_miss"), Some(1));
        assert_eq!(warm.counter("c", "store", "cache_hit"), Some(1));
    }

    #[test]
    fn failed_cache_write_is_a_warning_not_a_failure() {
        let dir = std::env::temp_dir().join(format!("gt-exec-write-{}", std::process::id()));
        let store = Arc::new(RunStore::open(&dir).expect("store opens"));
        // Writes stage through `tmp/`; without it every persist errors.
        std::fs::remove_dir_all(dir.join("tmp")).unwrap();
        let mut g = StageGraph::new();
        g.bind_store(store, digest(b"write-failure"));
        let a = g.add_stage("a", &[], |_| (3u8, 0));
        let mut out = g.run(1, &MetricsRegistry::new());
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(out.take(a), 3, "the computed output is still served");
        assert!(out.health.stages[0].cache_write_failed);
        assert_eq!(out.health.stages[0].status, StageStatus::Completed);
        assert!(!out.health.is_clean());
        assert_eq!(out.health.warnings.len(), 1);
        assert!(out.health.warnings[0].starts_with("stage a: cache write failed"));
    }
}
