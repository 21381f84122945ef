//! The paper-vs-measured experiment report.

use crate::currencies::CoinRates;
use crate::datasets::Table1;
use crate::discover::{TwitterDiscoverability, YouTubeDiscoverability};
use crate::fig5::KeywordContribution;
use crate::payments::{PaymentFunnel, RevenueRow};
use crate::scammers::{OutgoingStats, RecipientStats};
use crate::timeline::WeeklySeries;
use crate::victims::{Conversions, PaymentOrigins, WhaleDistribution};
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt::Write as _;

/// QR pilot summary (Appendix B).
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct QrPilotSummary {
    pub tracked: usize,
    pub mean_seconds: f64,
    pub median_seconds: f64,
    pub intermittent: usize,
}

/// Twitch pilot summary (Appendix B.1).
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct TwitchSummary {
    pub streams_listed: usize,
    pub candidates: usize,
    pub scams_found: usize,
}

/// Everything the pipeline measured, aligned with the paper's tables
/// and figures.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PaperReport {
    /// Table 1.
    pub table1: Table1,
    /// Table 2, per platform.
    pub twitter_revenue: RevenueRow,
    pub youtube_revenue: RevenueRow,
    /// Section 5.2 / 5.3 funnels.
    pub twitter_funnel: PaymentFunnel,
    pub youtube_funnel: PaymentFunnel,
    /// Figure 3 / Figure 4.
    pub twitter_weekly: WeeklySeries,
    pub youtube_weekly: WeeklySeries,
    /// Section 4.2.
    pub twitter_discover: TwitterDiscoverability,
    pub youtube_discover: YouTubeDiscoverability,
    /// Section 4.3.
    pub twitter_coins: CoinRates,
    pub youtube_coins: CoinRates,
    /// Section 5.4.
    pub twitter_conversions: Conversions,
    pub youtube_conversions: Conversions,
    pub origins: PaymentOrigins,
    pub twitter_whales: WhaleDistribution,
    pub youtube_whales: WhaleDistribution,
    /// Section 5.5.
    pub recipients: RecipientStats,
    pub twitter_recipients: usize,
    pub youtube_recipients: usize,
    pub outgoing: OutgoingStats,
    /// Appendix B.
    pub qr_pilot: Option<QrPilotSummary>,
    pub twitch: TwitchSummary,
    /// Appendix B.2 / Figure 5.
    pub fig5: KeywordContribution,
    /// Section 6.2 extension: the exchange block-list intervention at
    /// increasing detection lags.
    pub interventions: Vec<crate::interventions::InterventionOutcome>,
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ComparisonRow {
    pub artifact: String,
    pub metric: String,
    /// Paper value at full scale.
    pub paper: f64,
    /// Measured value (at the run's scale).
    pub measured: f64,
    /// Paper value multiplied by the run's scale factor (what the
    /// measurement should approximate).
    pub paper_scaled: f64,
}

impl ComparisonRow {
    /// Relative deviation of measured from the scaled paper value.
    pub fn deviation(&self) -> f64 {
        if self.paper_scaled == 0.0 {
            return 0.0;
        }
        (self.measured - self.paper_scaled) / self.paper_scaled
    }
}

impl PaperReport {
    /// Build the paper-vs-measured table. `scale` is the world scale
    /// factor (1.0 for a full-scale run). Rates and ratios are never
    /// scaled; counts and revenue are.
    pub fn compare_with_paper(&self, scale: f64) -> Vec<ComparisonRow> {
        use gt_world::calibration as cal;
        let mut rows: Vec<ComparisonRow> = Vec::new();
        fn push(
            rows: &mut Vec<ComparisonRow>,
            artifact: &str,
            metric: &str,
            paper: f64,
            measured: f64,
            paper_scaled: f64,
        ) {
            rows.push(ComparisonRow {
                artifact: artifact.to_string(),
                metric: metric.to_string(),
                paper,
                measured,
                paper_scaled,
            });
        }
        // Counts scale with the world; rates and ratios compare as-is.
        macro_rules! count {
            ($a:expr, $m:expr, $p:expr, $v:expr) => {
                push(&mut rows, $a, $m, $p, $v, $p * scale)
            };
        }
        macro_rules! rate {
            ($a:expr, $m:expr, $p:expr, $v:expr) => {
                push(&mut rows, $a, $m, $p, $v, $p)
            };
        }

        let t1 = &self.table1;
        count!(
            "T1",
            "twitter domains",
            cal::datasets::TWITTER_DOMAINS as f64,
            t1.twitter_domains as f64
        );
        count!(
            "T1",
            "twitter accounts",
            cal::datasets::TWITTER_ACCOUNTS as f64,
            t1.twitter_accounts as f64
        );
        count!(
            "T1",
            "twitter artifacts",
            cal::datasets::TWITTER_ARTIFACTS as f64,
            t1.twitter_artifacts as f64
        );
        count!(
            "T1",
            "youtube domains",
            cal::datasets::YOUTUBE_DOMAINS as f64,
            t1.youtube_domains as f64
        );
        count!(
            "T1",
            "youtube accounts",
            cal::datasets::YOUTUBE_ACCOUNTS as f64,
            t1.youtube_accounts as f64
        );
        count!(
            "T1",
            "youtube artifacts",
            cal::datasets::YOUTUBE_ARTIFACTS as f64,
            t1.youtube_artifacts as f64
        );

        count!(
            "T2",
            "twitter payments (co-occurring)",
            cal::payments::TWITTER_PAYMENTS as f64,
            self.twitter_revenue.payments_co_occurring as f64
        );
        count!(
            "T2",
            "twitter payments (any)",
            cal::payments::TWITTER_PAYMENTS_ANY as f64,
            self.twitter_revenue.payments_any as f64
        );
        count!(
            "T2",
            "twitter USD (co-occurring)",
            cal::payments::TWITTER_REVENUE,
            self.twitter_revenue.usd_co_occurring
        );
        count!(
            "T2",
            "twitter USD from BTC",
            cal::payments::TWITTER_REVENUE_BTC,
            self.twitter_revenue.usd_btc
        );
        count!(
            "T2",
            "twitter USD from ETH",
            cal::payments::TWITTER_REVENUE_ETH,
            self.twitter_revenue.usd_eth
        );
        count!(
            "T2",
            "twitter USD from XRP",
            cal::payments::TWITTER_REVENUE_XRP,
            self.twitter_revenue.usd_xrp
        );
        count!(
            "T2",
            "twitter USD (any)",
            cal::payments::TWITTER_REVENUE_ANY,
            self.twitter_revenue.usd_any
        );
        count!(
            "T2",
            "youtube payments (co-occurring)",
            cal::payments::YOUTUBE_PAYMENTS as f64,
            self.youtube_revenue.payments_co_occurring as f64
        );
        count!(
            "T2",
            "youtube payments (any)",
            cal::payments::YOUTUBE_PAYMENTS_ANY as f64,
            self.youtube_revenue.payments_any as f64
        );
        count!(
            "T2",
            "youtube USD (co-occurring)",
            cal::payments::YOUTUBE_REVENUE,
            self.youtube_revenue.usd_co_occurring
        );
        count!(
            "T2",
            "youtube USD from BTC",
            cal::payments::YOUTUBE_REVENUE_BTC,
            self.youtube_revenue.usd_btc
        );
        count!(
            "T2",
            "youtube USD from ETH",
            cal::payments::YOUTUBE_REVENUE_ETH,
            self.youtube_revenue.usd_eth
        );
        count!(
            "T2",
            "youtube USD from XRP",
            cal::payments::YOUTUBE_REVENUE_XRP,
            self.youtube_revenue.usd_xrp
        );
        count!(
            "T2",
            "youtube USD (any)",
            cal::payments::YOUTUBE_REVENUE_ANY,
            self.youtube_revenue.usd_any
        );

        count!(
            "F3",
            "twitter peak week",
            cal::lures::TWITTER_PEAK_WEEK as f64,
            self.twitter_weekly.peak().count as f64
        );
        count!(
            "F4",
            "youtube peak week streams",
            cal::lures::YOUTUBE_PEAK_STREAMS as f64,
            self.youtube_weekly.peak().count as f64
        );
        count!(
            "F4",
            "youtube peak week views",
            cal::lures::YOUTUBE_PEAK_VIEWS as f64,
            self.youtube_weekly.peak_views().views as f64
        );

        rate!(
            "S4.2",
            "hashtag rate",
            cal::lures::HASHTAG_RATE,
            self.twitter_discover.hashtag_rate
        );
        rate!(
            "S4.2",
            "mention rate",
            cal::lures::MENTION_RATE,
            self.twitter_discover.mention_rate
        );
        rate!(
            "S4.2",
            "reply rate",
            cal::lures::REPLY_RATE,
            self.twitter_discover.reply_rate
        );
        rate!(
            "S4.2",
            "channel subscribers median",
            cal::lures::CHANNEL_SUBSCRIBERS_MEDIAN as f64,
            self.youtube_discover.channel_subscribers_median as f64
        );
        rate!(
            "S4.2",
            "stream keyword rate",
            cal::lures::STREAM_KEYWORD_RATE,
            self.youtube_discover.keyword_rate
        );

        for (coin, paper_rate) in cal::lures::TWITTER_COIN_RATES {
            rate!(
                "S4.3",
                &format!("twitter {coin} rate"),
                paper_rate,
                self.twitter_coins.rate_of(coin)
            );
        }
        for (coin, paper_rate) in cal::lures::YOUTUBE_COIN_RATES {
            rate!(
                "S4.3",
                &format!("youtube {coin} rate"),
                paper_rate,
                self.youtube_coins.rate_of(coin)
            );
        }

        count!(
            "S5.2",
            "twitter domains w/ coin addr",
            cal::payments::TWITTER_DOMAINS_WITH_COIN as f64,
            self.twitter_funnel.domains_with_coin as f64
        );
        count!(
            "S5.2",
            "twitter domains paid",
            cal::payments::TWITTER_DOMAINS_PAID as f64,
            self.twitter_funnel.domains_paid as f64
        );
        count!(
            "S5.2",
            "twitter addresses",
            cal::payments::TWITTER_ADDRESSES as f64,
            self.twitter_funnel.distinct_addresses as f64
        );
        count!(
            "S5.2",
            "twitter consolidations removed",
            cal::payments::TWITTER_CONSOLIDATIONS as f64,
            self.twitter_funnel.consolidations_removed as f64
        );
        count!(
            "S5.3",
            "youtube domains w/ coin addr",
            cal::payments::YOUTUBE_DOMAINS_WITH_COIN as f64,
            self.youtube_funnel.domains_with_coin as f64
        );
        count!(
            "S5.3",
            "youtube domains paid",
            cal::payments::YOUTUBE_DOMAINS_PAID as f64,
            self.youtube_funnel.domains_paid as f64
        );
        count!(
            "S5.3",
            "youtube consolidations removed",
            cal::payments::YOUTUBE_CONSOLIDATIONS as f64,
            self.youtube_funnel.consolidations_removed as f64
        );

        count!(
            "S5.4",
            "twitter unique senders",
            cal::payments::TWITTER_SENDERS as f64,
            self.twitter_conversions.unique_senders as f64
        );
        count!(
            "S5.4",
            "youtube unique senders",
            cal::payments::YOUTUBE_SENDERS as f64,
            self.youtube_conversions.unique_senders as f64
        );
        rate!(
            "S5.4",
            "twitter conversion rate",
            cal::payments::TWITTER_CONVERSION,
            self.twitter_conversions.rate
        );
        rate!(
            "S5.4",
            "youtube conversion rate",
            cal::payments::YOUTUBE_CONVERSION,
            self.youtube_conversions.rate
        );
        rate!(
            "S5.4",
            "exchange origin rate",
            cal::payments::EXCHANGE_ORIGIN_RATE,
            self.origins.exchange_rate
        );
        count!(
            "S5.4",
            "twitter top-k for 50% value",
            cal::payments::TWITTER_TOP_FOR_HALF as f64,
            self.twitter_whales.top_for_half as f64
        );
        count!(
            "S5.4",
            "twitter top-k for 90% value",
            cal::payments::TWITTER_TOP_FOR_90PCT as f64,
            self.twitter_whales.top_for_90pct as f64
        );
        count!(
            "S5.4",
            "youtube top-k for 50% value",
            cal::payments::YOUTUBE_TOP_FOR_HALF as f64,
            self.youtube_whales.top_for_half as f64
        );
        count!(
            "S5.4",
            "youtube top-k for 90% value",
            cal::payments::YOUTUBE_TOP_FOR_90PCT as f64,
            self.youtube_whales.top_for_90pct as f64
        );

        count!(
            "S5.5",
            "distinct recipients",
            cal::scammers::DISTINCT_RECIPIENTS as f64,
            self.recipients.recipients as f64
        );
        count!(
            "S5.5",
            "twitter recipients",
            cal::payments::TWITTER_RECIPIENTS as f64,
            self.twitter_recipients as f64
        );
        count!(
            "S5.5",
            "youtube recipients",
            cal::payments::YOUTUBE_RECIPIENTS as f64,
            self.youtube_recipients as f64
        );
        rate!(
            "S5.5",
            "btc singleton-cluster rate",
            cal::scammers::BTC_SINGLETON_RECIPIENTS as f64 / cal::scammers::BTC_RECIPIENTS as f64,
            self.recipients.btc_singletons as f64 / self.recipients.btc_recipients.max(1) as f64
        );
        count!(
            "S5.5",
            "outgoing recipients",
            cal::scammers::OUTGOING_RECIPIENTS as f64,
            self.outgoing.recipients as f64
        );
        count!(
            "S5.5",
            "outgoing exchanges",
            cal::scammers::OUTGOING_EXCHANGE as f64,
            self.outgoing.count(gt_cluster::Category::Exchange) as f64
        );
        rate!(
            "S5.5",
            "outgoing unlabeled rate",
            0.87,
            self.outgoing.unlabeled_rate()
        );

        if let Some(qr) = &self.qr_pilot {
            rate!(
                "B",
                "qr mean seconds",
                cal::pilot::QR_MEAN_SECONDS,
                qr.mean_seconds
            );
            rate!(
                "B",
                "qr median seconds",
                cal::pilot::QR_MEDIAN_SECONDS,
                qr.median_seconds
            );
        }
        count!(
            "B.1",
            "twitch scams found",
            0.0,
            self.twitch.scams_found as f64
        );
        rate!(
            "F5",
            "streams with keyword",
            cal::keywords_fig5::STREAMS_WITH_KEYWORD,
            self.fig5.keyword_rate()
        );
        rate!(
            "F5",
            "top-20 keyword share",
            cal::keywords_fig5::TOP20_SHARE,
            self.fig5.top_k_share(20)
        );

        rows
    }

    /// Render the comparison as an aligned text table.
    pub fn render_comparison(&self, scale: f64) -> String {
        let rows = self.compare_with_paper(scale);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<36} {:>14} {:>14} {:>14} {:>8}",
            "where", "metric", "paper", "paper@scale", "measured", "dev"
        );
        let _ = writeln!(out, "{}", "-".repeat(96));
        for r in rows {
            let _ = writeln!(
                out,
                "{:<6} {:<36} {:>14} {:>14} {:>14} {:>7.1}%",
                r.artifact,
                r.metric,
                fmt_num(r.paper),
                fmt_num(r.paper_scaled),
                fmt_num(r.measured),
                r.deviation() * 100.0
            );
        }
        out
    }
}

fn fmt_num(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1_000.0 {
        format!("{:.0}", v)
    } else if v.abs() >= 1.0 {
        format!("{:.2}", v)
    } else {
        format!("{:.5}", v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_row_deviation() {
        let r = ComparisonRow {
            artifact: "T1".into(),
            metric: "x".into(),
            paper: 100.0,
            measured: 11.0,
            paper_scaled: 10.0,
        };
        assert!((r.deviation() - 0.1).abs() < 1e-12);
        let zero = ComparisonRow {
            paper_scaled: 0.0,
            ..r
        };
        assert_eq!(zero.deviation(), 0.0);
    }

    #[test]
    fn fmt_num_ranges() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(0.0012), "0.00120");
        assert_eq!(fmt_num(3.5), "3.50");
        assert_eq!(fmt_num(2693009.0), "2693009");
    }
}
