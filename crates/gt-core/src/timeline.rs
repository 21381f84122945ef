//! Weekly lure-volume series (Figures 3 and 4).

use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;

/// One week's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct WeekBucket {
    /// Week index from the window start (week 0 starts at the window
    /// start instant).
    pub week: usize,
    /// Start of the week.
    pub start: SimTime,
    /// Lure count (tweets or streams).
    pub count: u64,
    /// Views (streams only; zero for tweets).
    pub views: u64,
}

/// A weekly series over a window.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct WeeklySeries {
    pub window_start: SimTime,
    pub buckets: Vec<WeekBucket>,
}

impl WeeklySeries {
    /// Bucket `(time, views)` observations into weeks.
    pub fn build(
        window_start: SimTime,
        window_end: SimTime,
        observations: impl Iterator<Item = (SimTime, u64)>,
    ) -> WeeklySeries {
        let weeks = ((window_end - window_start).as_days() as usize)
            .div_ceil(7)
            .max(1);
        let mut buckets: Vec<WeekBucket> = (0..weeks)
            .map(|w| WeekBucket {
                week: w,
                start: window_start + gt_sim::SimDuration::weeks(w as i64),
                count: 0,
                views: 0,
            })
            .collect();
        for (time, views) in observations {
            let idx = time.week_index_from(window_start);
            if idx < 0 || idx as usize >= weeks {
                continue;
            }
            buckets[idx as usize].count += 1;
            buckets[idx as usize].views += views;
        }
        WeeklySeries {
            window_start,
            buckets,
        }
    }

    pub fn total_count(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    pub fn total_views(&self) -> u64 {
        self.buckets.iter().map(|b| b.views).sum()
    }

    /// The busiest week by count.
    pub fn peak(&self) -> &WeekBucket {
        self.buckets
            .iter()
            .max_by_key(|b| b.count)
            .expect("series has at least one bucket")
    }

    /// The busiest week by views.
    pub fn peak_views(&self) -> &WeekBucket {
        self.buckets
            .iter()
            .max_by_key(|b| b.views)
            .expect("series has at least one bucket")
    }

    /// Render an ASCII sparkline of counts (for the report).
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self
            .buckets
            .iter()
            .map(|b| b.count)
            .max()
            .unwrap_or(0)
            .max(1);
        self.buckets
            .iter()
            .map(|b| BARS[((b.count * 7) / max) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::SimDuration;

    fn t0() -> SimTime {
        SimTime::from_ymd(2022, 1, 1)
    }

    #[test]
    fn buckets_by_week() {
        let obs = vec![
            (t0() + SimDuration::days(0), 10u64),
            (t0() + SimDuration::days(6), 20),
            (t0() + SimDuration::days(7), 5),
            (t0() + SimDuration::days(20), 1),
        ];
        let series = WeeklySeries::build(t0(), t0() + SimDuration::weeks(4), obs.into_iter());
        assert_eq!(series.buckets.len(), 4);
        assert_eq!(series.buckets[0].count, 2);
        assert_eq!(series.buckets[0].views, 30);
        assert_eq!(series.buckets[1].count, 1);
        assert_eq!(series.buckets[2].count, 1);
        assert_eq!(series.buckets[3].count, 0);
        assert_eq!(series.total_count(), 4);
    }

    #[test]
    fn out_of_window_observations_dropped() {
        let obs = vec![
            (t0() - SimDuration::days(1), 1u64),
            (t0() + SimDuration::weeks(4), 1),
        ];
        let series = WeeklySeries::build(t0(), t0() + SimDuration::weeks(4), obs.into_iter());
        assert_eq!(series.total_count(), 0);
    }

    #[test]
    fn peak_detection() {
        let obs = (0..10u64)
            .map(|i| (t0() + SimDuration::days(7 * 2 + i as i64 % 7), 100u64))
            .chain(std::iter::once((t0(), 9_999u64)));
        let series = WeeklySeries::build(t0(), t0() + SimDuration::weeks(5), obs);
        assert_eq!(series.peak().week, 2);
        assert_eq!(series.peak_views().week, 0);
    }

    #[test]
    fn sparkline_has_one_char_per_week() {
        let series = WeeklySeries::build(t0(), t0() + SimDuration::weeks(26), std::iter::empty());
        assert_eq!(series.sparkline().chars().count(), 26);
    }

    #[test]
    fn partial_final_week_is_kept() {
        let series = WeeklySeries::build(
            t0(),
            t0() + SimDuration::weeks(2) + SimDuration::days(3),
            std::iter::once((t0() + SimDuration::days(15), 0u64)),
        );
        assert_eq!(series.buckets.len(), 3);
        assert_eq!(series.buckets[2].count, 1);
    }
}
