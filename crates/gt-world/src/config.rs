//! World generation configuration.

use crate::calibration::{datasets, payments, pilot};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;

/// Everything the generator needs to build a world.
///
/// The default configuration targets the paper's full scale. For fast
/// tests use [`WorldConfig::scaled`], which shrinks volumes while
/// preserving ratios (conversion rates, revenue shares, funnel
/// fractions).
#[derive(Debug, Clone, Serialize, StoreEncode, StoreDecode)]
pub struct WorldConfig {
    /// Master seed: everything derives from it.
    pub seed: u64,

    // ---- Twitter window (retrospective) ----
    /// Start of the Twitter lure window (paper: 2022-01-01).
    pub twitter_start: SimTime,
    /// End of the Twitter lure window (paper: 2022-07-07).
    pub twitter_end: SimTime,
    /// Scam tweets to generate.
    pub scam_tweets: usize,
    /// Distinct accounts posting them.
    pub tweet_accounts: usize,
    /// Scam domains promoted on Twitter.
    pub twitter_domains: usize,
    /// Domains in the CryptoScamTracker-style corpus (superset).
    pub scamdb_domains: usize,
    /// Scam operations running the Twitter campaigns.
    pub twitter_ops: usize,

    // ---- YouTube window (prospective) ----
    /// Start of the pilot study (paper: 2023-07-01).
    pub pilot_start: SimTime,
    /// End of the pilot study (paper: 2023-07-14).
    pub pilot_end: SimTime,
    /// Start of the main YouTube window (paper: 2023-07-24).
    pub youtube_start: SimTime,
    /// End of the main window (paper: 2024-01-21, 26 weeks).
    pub youtube_end: SimTime,
    /// Scam livestreams in the main window.
    pub scam_streams: usize,
    /// Channels hosting them.
    pub stream_channels: usize,
    /// Scam domains promoted via streams in the main window.
    pub youtube_domains: usize,
    /// Benign (non-scam) streams the keyword search also returns.
    pub benign_streams: usize,
    /// Scam streams during the pilot.
    pub pilot_streams: usize,
    /// Distinct sites promoted during the pilot.
    pub pilot_sites: usize,
    /// Total views across scam streams in the main window.
    pub total_scam_views: u64,

    // ---- Payments ----
    /// Final co-occurring victim payments (Twitter).
    pub twitter_payments: usize,
    /// Distinct victims behind them.
    pub twitter_victims: usize,
    /// Consolidations landing inside co-occurrence windows (Twitter).
    pub twitter_consolidations: usize,
    /// Additional non-co-occurring payments (Twitter).
    pub twitter_background_payments: usize,
    pub youtube_payments: usize,
    pub youtube_victims: usize,
    pub youtube_consolidations: usize,
    pub youtube_background_payments: usize,
    /// Fraction of victim payments originating at exchanges.
    pub exchange_origin_rate: f64,
    /// Co-occurring USD revenue targets per platform per coin
    /// (BTC, ETH, XRP).
    pub twitter_revenue_usd: [f64; 3],
    pub youtube_revenue_usd: [f64; 3],
    /// Non-co-occurring ("any" minus co-occurring) revenue targets.
    pub twitter_background_revenue_usd: f64,
    pub youtube_background_revenue_usd: f64,
    /// Log-normal sigma of individual payment sizes (the whale knob).
    pub payment_sigma: f64,

    // ---- Twitch ----
    /// Streams live on Twitch during the pilot (none of them scams).
    pub twitch_streams: usize,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0x61BE_5CA1,
            twitter_start: SimTime::from_ymd(2022, 1, 1),
            twitter_end: SimTime::from_ymd(2022, 7, 7),
            scam_tweets: datasets::TWITTER_ARTIFACTS,
            tweet_accounts: datasets::TWITTER_ACCOUNTS,
            twitter_domains: datasets::TWITTER_DOMAINS,
            scamdb_domains: datasets::SCAMDB_DOMAINS,
            twitter_ops: 40,
            pilot_start: SimTime::from_ymd(2023, 7, 1),
            pilot_end: SimTime::from_ymd(2023, 7, 14),
            youtube_start: SimTime::from_ymd(2023, 7, 24),
            // Paper: "July 24, 2023 to January 21, 2024 (26 weeks)" —
            // the end bound is exclusive, so the window closes at the
            // end of Jan 21.
            youtube_end: SimTime::from_ymd(2024, 1, 22),
            // The paper's Table 1 counts are what the pipeline
            // *detected*; the world's true population is larger by the
            // detection loss (short streams missed between search
            // polls, dead domains that never validate). The ~9%
            // headroom below makes the measured counts land on the
            // paper's.
            scam_streams: (datasets::YOUTUBE_ARTIFACTS as f64 * 1.09) as usize,
            stream_channels: (datasets::YOUTUBE_ACCOUNTS as f64 * 1.09) as usize,
            youtube_domains: datasets::YOUTUBE_DOMAINS + 11,
            benign_streams: 8_400,
            pilot_streams: (pilot::STREAMS as f64 * 1.08) as usize,
            pilot_sites: pilot::SITES + 3,
            total_scam_views: 11_150_000,
            twitter_payments: payments::TWITTER_PAYMENTS,
            twitter_victims: payments::TWITTER_SENDERS,
            twitter_consolidations: payments::TWITTER_CONSOLIDATIONS,
            twitter_background_payments: payments::TWITTER_PAYMENTS_ANY
                - payments::TWITTER_PAYMENTS_COOCCURRING_RAW,
            youtube_payments: payments::YOUTUBE_PAYMENTS,
            youtube_victims: payments::YOUTUBE_SENDERS,
            youtube_consolidations: payments::YOUTUBE_CONSOLIDATIONS,
            youtube_background_payments: payments::YOUTUBE_PAYMENTS_ANY
                - payments::YOUTUBE_PAYMENTS_COOCCURRING_RAW,
            exchange_origin_rate: payments::EXCHANGE_ORIGIN_RATE,
            twitter_revenue_usd: [
                payments::TWITTER_REVENUE_BTC,
                payments::TWITTER_REVENUE_ETH,
                payments::TWITTER_REVENUE_XRP,
            ],
            youtube_revenue_usd: [
                payments::YOUTUBE_REVENUE_BTC,
                payments::YOUTUBE_REVENUE_ETH,
                payments::YOUTUBE_REVENUE_XRP,
            ],
            twitter_background_revenue_usd: payments::TWITTER_REVENUE_ANY
                - payments::TWITTER_REVENUE,
            youtube_background_revenue_usd: payments::YOUTUBE_REVENUE_ANY
                - payments::YOUTUBE_REVENUE,
            payment_sigma: 1.8,
            twitch_streams: 2_000,
        }
    }
}

impl WorldConfig {
    /// A configuration with all volumes multiplied by `factor`
    /// (rounding up so nothing degenerates to zero), preserving rates
    /// and revenue *per payment*. Revenue totals scale with the factor.
    pub fn scaled(factor: f64) -> WorldConfig {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        let f = |n: usize| ((n as f64 * factor).ceil() as usize).max(1);
        let base = WorldConfig::default();
        WorldConfig {
            scam_tweets: f(base.scam_tweets),
            tweet_accounts: f(base.tweet_accounts),
            twitter_domains: f(base.twitter_domains),
            scamdb_domains: f(base.scamdb_domains),
            twitter_ops: f(base.twitter_ops).min(f(base.twitter_domains)),
            scam_streams: f(base.scam_streams),
            stream_channels: f(base.stream_channels),
            youtube_domains: f(base.youtube_domains),
            benign_streams: f(base.benign_streams),
            pilot_streams: f(base.pilot_streams),
            pilot_sites: f(base.pilot_sites).min(f(base.pilot_streams)),
            total_scam_views: ((base.total_scam_views as f64 * factor) as u64).max(1_000),
            twitter_payments: f(base.twitter_payments),
            twitter_victims: f(base.twitter_victims).min(f(base.twitter_payments)),
            twitter_consolidations: f(base.twitter_consolidations),
            twitter_background_payments: f(base.twitter_background_payments),
            youtube_payments: f(base.youtube_payments),
            youtube_victims: f(base.youtube_victims).min(f(base.youtube_payments)),
            youtube_consolidations: f(base.youtube_consolidations),
            youtube_background_payments: f(base.youtube_background_payments),
            twitter_revenue_usd: base.twitter_revenue_usd.map(|v| v * factor),
            youtube_revenue_usd: base.youtube_revenue_usd.map(|v| v * factor),
            twitter_background_revenue_usd: base.twitter_background_revenue_usd * factor,
            youtube_background_revenue_usd: base.youtube_background_revenue_usd * factor,
            twitch_streams: f(base.twitch_streams),
            ..base
        }
    }

    /// A small configuration for fast unit/integration tests.
    pub fn test_small() -> WorldConfig {
        let mut c = WorldConfig::scaled(0.02);
        c.seed = 0x7E57;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_scale() {
        let c = WorldConfig::default();
        assert_eq!(c.scam_tweets, 457_248);
        assert_eq!(c.scam_streams, 2_255); // 2,069 detected + detection headroom
        assert_eq!(c.twitter_payments, 671);
        assert_eq!(c.youtube_payments, 638);
        // Windows: 26 weeks of YouTube monitoring.
        assert_eq!((c.youtube_end - c.youtube_start).as_days(), 26 * 7);
    }

    #[test]
    fn scaled_preserves_ratios() {
        let c = WorldConfig::scaled(0.1);
        let base = WorldConfig::default();
        let ratio = c.scam_tweets as f64 / base.scam_tweets as f64;
        assert!((ratio - 0.1).abs() < 0.01);
        assert!(c.twitter_victims <= c.twitter_payments);
        assert!(c.pilot_sites <= c.pilot_streams);
        // Revenue per payment stays in the same ballpark.
        let rev_per_pay_base =
            base.twitter_revenue_usd.iter().sum::<f64>() / base.twitter_payments as f64;
        let rev_per_pay = c.twitter_revenue_usd.iter().sum::<f64>() / c.twitter_payments as f64;
        assert!((rev_per_pay / rev_per_pay_base - 1.0).abs() < 0.2);
    }

    #[test]
    fn tiny_scale_never_degenerates() {
        let c = WorldConfig::scaled(0.001);
        assert!(c.twitter_payments >= 1);
        assert!(c.twitter_domains >= 1);
        assert!(c.scam_streams >= 1);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_zero_factor() {
        let _ = WorldConfig::scaled(0.0);
    }
}
