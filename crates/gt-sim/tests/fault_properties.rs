//! Property tests for the fault-injection layer: backoff shape, jitter
//! bounds, and schedule-generation invariants.

use gt_sim::faults::{ChaosProfile, FaultKind, FaultPlan, RetryPolicy, Substrate};
use gt_sim::{RngFactory, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn nominal_backoff_is_monotone_and_capped(
        base_secs in 1i64..60,
        cap_secs in 60i64..3_600,
        attempts in 2u32..12,
    ) {
        let policy = RetryPolicy {
            base: SimDuration::seconds(base_secs),
            cap: SimDuration::seconds(cap_secs),
            ..RetryPolicy::default()
        };
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=attempts {
            let d = policy.nominal_backoff(attempt);
            prop_assert!(d >= prev, "backoff shrank at attempt {}", attempt);
            prop_assert!(d <= policy.cap);
            prop_assert!(d >= SimDuration::ZERO);
            prev = d;
        }
        // Doubling until the cap: attempt 1 is exactly the base.
        prop_assert_eq!(policy.nominal_backoff(1), policy.base.min(policy.cap));
    }

    #[test]
    fn jittered_backoff_stays_within_bounds(
        base_secs in 1i64..60,
        jitter in 0.0f64..1.0,
        attempt in 1u32..10,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            base: SimDuration::seconds(base_secs),
            jitter,
            ..RetryPolicy::default()
        };
        let mut rng = RngFactory::new(seed).rng("jitter");
        let nominal = policy.nominal_backoff(attempt);
        for _ in 0..20 {
            let d = policy.backoff(attempt, &mut rng);
            prop_assert!(d >= nominal);
            // +1s absorbs integer-second rounding of the jitter factor.
            let ceiling = (nominal.as_seconds() as f64 * (1.0 + jitter)).ceil() as i64 + 1;
            prop_assert!(d.as_seconds() <= ceiling, "{} > {}", d.as_seconds(), ceiling);
        }
    }

    #[test]
    fn retry_delays_never_exceed_the_budget_by_more_than_one_step(
        base_secs in 1i64..30,
        budget_secs in 60i64..1_200,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy {
            base: SimDuration::seconds(base_secs),
            budget: SimDuration::seconds(budget_secs),
            max_attempts: 50,
            ..RetryPolicy::default()
        };
        let mut rng = RngFactory::new(seed).rng("budget");
        // Simulate the gate's retry loop: it gives up once the waited
        // total passes the budget, so the overshoot is at most one
        // (capped) delay.
        let mut waited = SimDuration::ZERO;
        let mut attempt = 1;
        while waited <= policy.budget && attempt < policy.max_attempts {
            waited = waited + policy.backoff(attempt, &mut rng);
            attempt += 1;
        }
        let cap_with_jitter =
            (policy.cap.as_seconds() as f64 * (1.0 + policy.jitter)).ceil() as i64 + 1;
        prop_assert!(waited.as_seconds() <= budget_secs + cap_with_jitter);
    }

    #[test]
    fn schedules_are_reproducible_from_the_seed(seed in any::<u64>(), months in 1i64..8) {
        let start = SimTime::from_ymd(2023, 7, 24);
        let end = start + SimDuration::days(30 * months);
        let a = FaultPlan::generate(seed, start, end, &ChaosProfile::default());
        let b = FaultPlan::generate(seed, start, end, &ChaosProfile::default());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn windows_are_sorted_disjoint_and_in_span(seed in any::<u64>(), months in 1i64..8) {
        let start = SimTime::from_ymd(2023, 7, 24);
        let end = start + SimDuration::days(30 * months);
        let plan = FaultPlan::generate(seed, start, end, &ChaosProfile::default());
        for sub in Substrate::ALL {
            let windows = plan.schedules.get(&sub).map(Vec::as_slice).unwrap_or(&[]);
            let mut prev_end = SimTime(i64::MIN);
            for w in windows {
                prop_assert!(w.start < w.end, "{sub}: empty or inverted window");
                prop_assert!(w.start >= start && w.end <= end, "{sub}: window outside span");
                prop_assert!(
                    w.start >= prev_end,
                    "{sub}: overlapping quota/fault windows"
                );
                prev_end = w.end;
            }
        }
    }

    #[test]
    fn stream_monitor_only_gets_outages(seed in any::<u64>()) {
        let start = SimTime::from_ymd(2023, 7, 24);
        let end = start + SimDuration::days(120);
        let plan = FaultPlan::generate(seed, start, end, &ChaosProfile::severe());
        let windows = plan
            .schedules
            .get(&Substrate::StreamMonitor)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        for w in windows {
            prop_assert_eq!(w.kind, FaultKind::Outage);
            // Outages model losing the tail of a monitoring window.
            prop_assert_eq!(w.end, end);
        }
    }

    #[test]
    fn window_lookup_agrees_with_linear_scan(seed in any::<u64>(), probe in 0i64..10_368_000) {
        let start = SimTime::from_ymd(2023, 7, 24);
        let end = start + SimDuration::days(120);
        let plan = FaultPlan::generate(seed, start, end, &ChaosProfile::severe());
        let t = start + SimDuration::seconds(probe);
        for sub in Substrate::ALL {
            let fast = plan.window_at(sub, t);
            let slow = plan
                .schedules
                .get(&sub)
                .and_then(|ws| ws.iter().find(|w| w.contains(t)));
            prop_assert_eq!(fast, slow, "{sub} at {probe}");
        }
    }
}

#[test]
fn quiet_plans_have_no_windows() {
    let plan = FaultPlan::quiet(1234);
    assert!(plan.is_quiet());
    for sub in Substrate::ALL {
        assert!(plan.fault_at(sub, SimTime(0)).is_none());
    }
}
