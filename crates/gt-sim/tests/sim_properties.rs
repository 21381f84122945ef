//! Property tests for the simulation substrate.

use gt_sim::{CivilDate, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn date_round_trips(days in -20_000i64..40_000) {
        let t = SimTime(days * 86_400);
        let d = t.date();
        prop_assert!(d.is_valid());
        prop_assert_eq!(d.at_midnight(), t);
    }

    #[test]
    fn any_second_maps_into_its_day(secs in -1_000_000_000i64..2_000_000_000) {
        let t = SimTime(secs);
        let midnight = t.floor_day();
        prop_assert!(midnight <= t);
        prop_assert!((t - midnight).as_seconds() < 86_400);
        prop_assert_eq!(midnight.date(), t.date());
    }

    #[test]
    fn week_index_is_translation_invariant(
        offset_weeks in 0i64..200,
        within in 0i64..(7 * 86_400),
        start_days in -5_000i64..20_000,
    ) {
        let start = SimTime(start_days * 86_400);
        let t = start + SimDuration::weeks(offset_weeks) + SimDuration::seconds(within);
        prop_assert_eq!(t.week_index_from(start), offset_weeks);
    }

    #[test]
    fn civil_date_succ_is_strictly_increasing(days in -10_000i64..30_000) {
        let d = SimTime(days * 86_400).date();
        let next = d.succ();
        prop_assert!(next.at_midnight() - d.at_midnight() == SimDuration::days(1));
        prop_assert!(next.is_valid());
    }

    #[test]
    fn zipf_samples_stay_in_range(n in 1usize..500, s in 0.1f64..2.5, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = gt_sim::dist::Zipf::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let r = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&r));
        }
    }

    #[test]
    fn lognormal_is_positive(mu in -5.0f64..10.0, sigma in 0.0f64..3.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let d = gt_sim::dist::LogNormal::new(mu, sigma);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
    }
}

#[test]
fn known_calendar_facts() {
    // The paper's windows.
    assert_eq!(
        (SimTime::from_ymd(2022, 7, 7) - SimTime::from_ymd(2022, 1, 1)).as_days(),
        187
    );
    assert_eq!(
        (SimTime::from_ymd(2024, 1, 22) - SimTime::from_ymd(2023, 7, 24)).as_days(),
        182
    );
    assert_eq!(
        CivilDate::new(2023, 12, 31).succ(),
        CivilDate::new(2024, 1, 1)
    );
}
