//! Virtual timestamps and civil-calendar math.
//!
//! All simulation time is UTC seconds since the Unix epoch, stored in an
//! `i64`. Calendar conversions use Howard Hinnant's `days_from_civil`
//! algorithm, which is exact over the entire `i64` day range we care about.

use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time: UTC seconds since the Unix epoch.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    StoreEncode,
    StoreDecode,
)]
pub struct SimTime(pub i64);

/// A span of simulated time, in seconds. May be negative for differences.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    Serialize,
    StoreEncode,
    StoreDecode,
)]
pub struct SimDuration(pub i64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn seconds(s: i64) -> Self {
        SimDuration(s)
    }
    pub const fn minutes(m: i64) -> Self {
        SimDuration(m * 60)
    }
    pub const fn hours(h: i64) -> Self {
        SimDuration(h * 3600)
    }
    pub const fn days(d: i64) -> Self {
        SimDuration(d * 86_400)
    }
    pub const fn weeks(w: i64) -> Self {
        SimDuration(w * 7 * 86_400)
    }

    pub const fn as_seconds(self) -> i64 {
        self.0
    }
    pub const fn as_days(self) -> i64 {
        self.0 / 86_400
    }

    pub fn abs(self) -> Self {
        SimDuration(self.0.abs())
    }
}

/// A civil (proleptic Gregorian) calendar date in UTC.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, StoreEncode, StoreDecode,
)]
pub struct CivilDate {
    pub year: i32,
    /// 1-based month.
    pub month: u8,
    /// 1-based day of month.
    pub day: u8,
}

/// Days since the Unix epoch for a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Inverse of [`days_from_civil`] (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

impl CivilDate {
    pub const fn new(year: i32, month: u8, day: u8) -> Self {
        CivilDate { year, month, day }
    }

    /// Whether this is a real calendar date.
    pub fn is_valid(&self) -> bool {
        if self.month < 1 || self.month > 12 || self.day < 1 {
            return false;
        }
        self.day <= days_in_month(self.year, self.month)
    }

    /// Midnight UTC at the start of this date.
    pub fn at_midnight(&self) -> SimTime {
        SimTime(days_from_civil(self.year, self.month, self.day) * 86_400)
    }

    /// Midnight plus an offset within the day.
    pub fn at(&self, hour: u8, minute: u8, second: u8) -> SimTime {
        SimTime(
            self.at_midnight().0
                + i64::from(hour) * 3600
                + i64::from(minute) * 60
                + i64::from(second),
        )
    }

    pub fn succ(&self) -> CivilDate {
        let days = days_from_civil(self.year, self.month, self.day) + 1;
        let (y, m, d) = civil_from_days(days);
        CivilDate::new(y, m, d)
    }
}

/// Number of days in a month of a given year.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Gregorian leap-year rule.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

impl SimTime {
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from a civil date and time-of-day.
    pub fn from_ymd_hms(year: i32, month: u8, day: u8, hour: u8, minute: u8, second: u8) -> Self {
        CivilDate::new(year, month, day).at(hour, minute, second)
    }

    /// Construct from a civil date at midnight UTC.
    pub fn from_ymd(year: i32, month: u8, day: u8) -> Self {
        CivilDate::new(year, month, day).at_midnight()
    }

    pub const fn as_seconds(self) -> i64 {
        self.0
    }

    /// Days since the epoch (floor).
    pub fn day_number(self) -> i64 {
        self.0.div_euclid(86_400)
    }

    /// Seconds into the current day.
    pub fn second_of_day(self) -> i64 {
        self.0.rem_euclid(86_400)
    }

    /// The civil date this instant falls on.
    pub fn date(self) -> CivilDate {
        let (y, m, d) = civil_from_days(self.day_number());
        CivilDate::new(y, m, d)
    }

    /// Index of the week containing this instant, relative to a window start.
    ///
    /// Week 0 begins exactly at `window_start`; each week is seven days.
    /// This matches the paper's weekly bucketing of tweet and stream volume.
    pub fn week_index_from(self, window_start: SimTime) -> i64 {
        (self.0 - window_start.0).div_euclid(7 * 86_400)
    }

    /// Start of the UTC day containing this instant.
    pub fn floor_day(self) -> SimTime {
        SimTime(self.day_number() * 86_400)
    }

    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.date();
        let s = self.second_of_day();
        write!(
            f,
            "{}T{:02}:{:02}:{:02}Z",
            d,
            s / 3600,
            (s % 3600) / 60,
            s % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        if total >= 86_400 {
            write!(f, "{}{}d{}h", sign, total / 86_400, (total % 86_400) / 3600)
        } else if total >= 3600 {
            write!(f, "{}{}h{}m", sign, total / 3600, (total % 3600) / 60)
        } else if total >= 60 {
            write!(f, "{}{}m{}s", sign, total / 60, total % 60)
        } else {
            write!(f, "{}{}s", sign, total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        assert_eq!(SimTime::EPOCH.date(), CivilDate::new(1970, 1, 1));
        assert_eq!(SimTime::from_ymd(1970, 1, 1), SimTime::EPOCH);
    }

    #[test]
    fn known_timestamps_round_trip() {
        // 2022-01-01T00:00:00Z = 1640995200
        assert_eq!(SimTime::from_ymd(2022, 1, 1).0, 1_640_995_200);
        // 2023-07-24T00:00:00Z = 1690156800
        assert_eq!(SimTime::from_ymd(2023, 7, 24).0, 1_690_156_800);
        // 2024-01-21T00:00:00Z = 1705795200
        assert_eq!(SimTime::from_ymd(2024, 1, 21).0, 1_705_795_200);
    }

    #[test]
    fn date_round_trips_across_leap_years() {
        for year in [1999, 2000, 2020, 2022, 2023, 2024, 2100] {
            for month in 1..=12u8 {
                for day in [1u8, 15, days_in_month(year, month)] {
                    let d = CivilDate::new(year, month, day);
                    assert_eq!(d.at_midnight().date(), d, "round trip failed for {d}");
                }
            }
        }
    }

    #[test]
    fn week_index_buckets_by_seven_days() {
        let start = SimTime::from_ymd(2023, 7, 24);
        assert_eq!(start.week_index_from(start), 0);
        assert_eq!((start + SimDuration::days(6)).week_index_from(start), 0);
        assert_eq!((start + SimDuration::days(7)).week_index_from(start), 1);
        assert_eq!((start - SimDuration::seconds(1)).week_index_from(start), -1);
        // 26 weeks later ends the collection window.
        assert_eq!(
            (start + SimDuration::weeks(26) - SimDuration::seconds(1)).week_index_from(start),
            25
        );
    }

    #[test]
    fn leap_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2024));
        assert!(!is_leap_year(2023));
        assert_eq!(days_in_month(2024, 2), 29);
        assert_eq!(days_in_month(2023, 2), 28);
    }

    #[test]
    fn validity() {
        assert!(CivilDate::new(2024, 2, 29).is_valid());
        assert!(!CivilDate::new(2023, 2, 29).is_valid());
        assert!(!CivilDate::new(2023, 13, 1).is_valid());
        assert!(!CivilDate::new(2023, 0, 1).is_valid());
        assert!(!CivilDate::new(2023, 4, 31).is_valid());
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_ymd_hms(2023, 9, 5, 14, 30, 9);
        assert_eq!(t.to_string(), "2023-09-05T14:30:09Z");
        assert_eq!(SimDuration::seconds(45).to_string(), "45s");
        assert_eq!(SimDuration::minutes(7).to_string(), "7m0s");
        assert_eq!(SimDuration::hours(3).to_string(), "3h0m");
        assert_eq!(SimDuration::days(2).to_string(), "2d0h");
        assert_eq!(SimDuration::seconds(-90).to_string(), "-1m30s");
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::minutes(90), SimDuration::seconds(5400));
        assert_eq!(SimDuration::hours(2), SimDuration::minutes(120));
        assert_eq!(SimDuration::days(1), SimDuration::hours(24));
        assert_eq!(SimDuration::weeks(1), SimDuration::days(7));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ymd(2022, 3, 1);
        assert_eq!(
            (t + SimDuration::days(1)).date(),
            CivilDate::new(2022, 3, 2)
        );
        assert_eq!(
            (t - SimDuration::days(1)).date(),
            CivilDate::new(2022, 2, 28)
        );
        assert_eq!(t + SimDuration::days(2) - t, SimDuration::days(2));
    }

    #[test]
    fn floor_day_truncates() {
        let t = SimTime::from_ymd_hms(2023, 9, 5, 23, 59, 59);
        assert_eq!(t.floor_day(), SimTime::from_ymd(2023, 9, 5));
    }
}
