//! The hardened crawler and its revisit policy.

use crate::host::{FetchError, NetOrigin, Request, Response, WebHost};
use crate::url::Url;
use gt_sim::faults::Gated;
use gt_sim::SimTime;
use serde::Serialize;

/// Crawler hardening configuration — each flag counters one cloaking
/// behaviour from the paper's pilot study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CrawlerConfig {
    /// Egress via VPN (residential IP) instead of the institutional
    /// network.
    pub use_vpn: bool,
    /// Spoof a mainstream Windows browser User-Agent.
    pub spoof_user_agent: bool,
    /// Heuristically click through interactive front pages.
    pub clickthrough: bool,
    /// Registered as a verified bot with the anti-bot provider.
    pub cloudflare_verified: bool,
    /// Maximum front-page interactions before giving up.
    pub max_interactions: u32,
}

impl Default for CrawlerConfig {
    /// The fully hardened configuration the paper deployed.
    fn default() -> Self {
        CrawlerConfig {
            use_vpn: true,
            spoof_user_agent: true,
            clickthrough: true,
            cloudflare_verified: true,
            max_interactions: 3,
        }
    }
}

impl CrawlerConfig {
    /// A naive crawler with no counter-measures (ablation baseline).
    pub fn naive() -> Self {
        CrawlerConfig {
            use_vpn: false,
            spoof_user_agent: false,
            clickthrough: false,
            cloudflare_verified: false,
            max_interactions: 0,
        }
    }
}

/// The result of crawling one URL once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrawlOutcome {
    /// Reached a final content page.
    Page { html: String },
    /// Server said 403 (cloaked away).
    Forbidden,
    /// Stuck at an anti-bot challenge.
    Challenged,
    /// Stuck at a front page (click-through disabled or exhausted).
    StuckAtFrontPage,
    /// Network-level failure.
    Error(FetchError),
}

impl CrawlOutcome {
    pub fn html(&self) -> Option<&str> {
        match self {
            CrawlOutcome::Page { html } => Some(html),
            _ => None,
        }
    }

    /// Whether this outcome counts as a fetch error for the 3-day
    /// retirement rule (paper: "fetching the URL resulted in an error").
    pub fn is_error(&self) -> bool {
        matches!(self, CrawlOutcome::Error(_))
    }
}

/// The hardened crawler.
#[derive(Debug, Clone)]
pub struct Crawler {
    config: CrawlerConfig,
}

const SPOOFED_UA: &str =
    "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 Chrome/114.0 Safari/537.36";
const HONEST_UA: &str = "gt-crawler/0.1 (research; Linux x86_64)";

impl Crawler {
    pub fn new(config: CrawlerConfig) -> Self {
        Crawler { config }
    }

    pub fn config(&self) -> CrawlerConfig {
        self.config
    }

    fn request(&self, url: &Url, interacted: bool) -> Request {
        Request {
            url: url.clone(),
            origin: if self.config.use_vpn {
                NetOrigin::Residential
            } else {
                NetOrigin::Institutional
            },
            user_agent: if self.config.spoof_user_agent {
                SPOOFED_UA.to_string()
            } else {
                HONEST_UA.to_string()
            },
            interacted,
            solves_challenge: self.config.cloudflare_verified,
        }
    }

    /// Crawl one URL at `now`, following front pages up to the
    /// configured interaction budget.
    pub fn crawl(&self, host: &WebHost, url: &Url, now: SimTime) -> CrawlOutcome {
        self.crawl_gated(host, url, now, &mut Gated::disabled())
    }

    /// [`Crawler::crawl`] under a checked-call gate: every fetch
    /// consults the gate's `FaultPlan`, with transient failures retried
    /// inside the gate's `RetryPolicy` budget, and the gate's sink
    /// records per-fetch telemetry. With [`Gated::disabled`] this is
    /// `crawl`.
    pub fn crawl_gated(
        &self,
        host: &WebHost,
        url: &Url,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> CrawlOutcome {
        let mut interacted = false;
        let mut interactions = 0u32;
        loop {
            let response: Response = match host.fetch(&self.request(url, interacted), now, gate) {
                Ok(r) => r,
                Err(e) => return CrawlOutcome::Error(e),
            };
            if response.status == 403 {
                return CrawlOutcome::Forbidden;
            }
            if response.is_challenge() {
                return CrawlOutcome::Challenged;
            }
            if response.is_front_page() {
                if !self.config.clickthrough || interactions >= self.config.max_interactions {
                    return CrawlOutcome::StuckAtFrontPage;
                }
                interactions += 1;
                interacted = true;
                continue;
            }
            return CrawlOutcome::Page {
                html: response.body,
            };
        }
    }
}

/// State of one URL under the daily revisit policy: crawl every day
/// until the collection window ends or three consecutive error days.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RevisitState {
    pub url: Url,
    pub consecutive_errors: u32,
    pub retired: bool,
    /// Day number of the last visit.
    pub last_visited_day: Option<i64>,
}

/// Errors-in-a-row threshold after which a URL is retired.
pub const RETIRE_AFTER_ERRORS: u32 = 3;

impl RevisitState {
    pub fn new(url: Url) -> Self {
        RevisitState {
            url,
            consecutive_errors: 0,
            retired: false,
            last_visited_day: None,
        }
    }

    /// Whether the URL is due for a crawl at `now` (once per UTC day).
    pub fn due(&self, now: SimTime) -> bool {
        !self.retired && self.last_visited_day != Some(now.day_number())
    }

    /// Record the outcome of a crawl at `now`.
    pub fn record(&mut self, outcome: &CrawlOutcome, now: SimTime) {
        self.last_visited_day = Some(now.day_number());
        if outcome.is_error() {
            self.consecutive_errors += 1;
            if self.consecutive_errors >= RETIRE_AFTER_ERRORS {
                self.retired = true;
            }
        } else {
            self.consecutive_errors = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{CloakingProfile, ScamSiteSpec, FRONT_PAGE_MARKER};

    fn t(s: i64) -> SimTime {
        SimTime(1_690_156_800 + s)
    }

    fn host_with(cloaking: CloakingProfile, offline_from: Option<SimTime>) -> WebHost {
        let mut host = WebHost::new();
        host.add_scam_site(ScamSiteSpec {
            domain: "btc-2x.fund".into(),
            landing_html: "<html>Send BTC to 1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa now! hurry</html>"
                .into(),
            front_html: format!("<html><button {FRONT_PAGE_MARKER}>BTC</button></html>"),
            cloaking,
            online_from: t(0),
            offline_from,
        });
        host
    }

    fn url() -> Url {
        Url::parse("https://btc-2x.fund/").unwrap()
    }

    #[test]
    fn hardened_crawler_defeats_all_cloaking() {
        let host = host_with(
            CloakingProfile {
                ip_cloaking: true,
                ua_cloaking: true,
                front_page: true,
                cloudflare: true,
            },
            None,
        );
        let crawler = Crawler::new(CrawlerConfig::default());
        let outcome = crawler.crawl(&host, &url(), t(10));
        let html = outcome.html().expect("hardened crawler reaches the page");
        assert!(html.contains("1A1zP1eP5QGe"));
    }

    #[test]
    fn naive_crawler_cloaked_away() {
        let host = host_with(
            CloakingProfile {
                ip_cloaking: true,
                ..Default::default()
            },
            None,
        );
        let crawler = Crawler::new(CrawlerConfig::naive());
        assert_eq!(crawler.crawl(&host, &url(), t(10)), CrawlOutcome::Forbidden);
    }

    #[test]
    fn no_clickthrough_sticks_at_front_page() {
        let host = host_with(
            CloakingProfile {
                front_page: true,
                ..Default::default()
            },
            None,
        );
        let config = CrawlerConfig {
            clickthrough: false,
            ..Default::default()
        };
        let crawler = Crawler::new(config);
        assert_eq!(
            crawler.crawl(&host, &url(), t(10)),
            CrawlOutcome::StuckAtFrontPage
        );
    }

    #[test]
    fn unverified_crawler_stuck_at_challenge() {
        let host = host_with(
            CloakingProfile {
                cloudflare: true,
                ..Default::default()
            },
            None,
        );
        let config = CrawlerConfig {
            cloudflare_verified: false,
            ..Default::default()
        };
        let crawler = Crawler::new(config);
        assert_eq!(
            crawler.crawl(&host, &url(), t(10)),
            CrawlOutcome::Challenged
        );
    }

    #[test]
    fn revisit_retires_after_three_error_days() {
        // Site goes offline after day 2; the URL should retire on day 5.
        let host = host_with(CloakingProfile::default(), Some(t(2 * 86_400)));
        let crawler = Crawler::new(CrawlerConfig::default());
        let mut state = RevisitState::new(url());
        let mut pages = 0;
        for day in 0..10 {
            let now = t(day * 86_400);
            if !state.due(now) {
                continue;
            }
            let outcome = crawler.crawl(&host, &state.url, now);
            pages += usize::from(outcome.html().is_some());
            state.record(&outcome, now);
            assert!(!state.due(now), "one crawl per day");
        }
        assert_eq!(pages, 2, "two successful daily crawls");
        assert!(state.retired);
        assert_eq!(state.consecutive_errors, RETIRE_AFTER_ERRORS);
        // Retired after day 4 (errors on days 2,3,4): last visit day 4.
        assert_eq!(state.last_visited_day, Some(t(4 * 86_400).day_number()));
    }

    #[test]
    fn transient_errors_reset_the_counter() {
        let mut state = RevisitState::new(url());
        let day = |d: i64| t(d * 86_400);
        state.record(&CrawlOutcome::Error(FetchError::ConnectionFailed), day(0));
        state.record(&CrawlOutcome::Error(FetchError::ConnectionFailed), day(1));
        state.record(&CrawlOutcome::Page { html: "x".into() }, day(2));
        assert_eq!(state.consecutive_errors, 0);
        assert!(!state.retired);
    }

    #[test]
    fn any_success_resets_the_counter() {
        // Regression pin for the retirement rule: only fetch *errors*
        // count toward retirement, so every non-error outcome —
        // Forbidden, Challenged, StuckAtFrontPage, Page — resets the
        // consecutive-error counter (the paper retires a URL only after
        // three uninterrupted error days).
        let day = |d: i64| t(d * 86_400);
        for success in [
            CrawlOutcome::Page { html: "x".into() },
            CrawlOutcome::Forbidden,
            CrawlOutcome::Challenged,
            CrawlOutcome::StuckAtFrontPage,
        ] {
            let mut state = RevisitState::new(url());
            state.record(&CrawlOutcome::Error(FetchError::ConnectionFailed), day(0));
            state.record(&CrawlOutcome::Error(FetchError::Timeout), day(1));
            assert_eq!(state.consecutive_errors, 2);
            state.record(&success, day(2));
            assert_eq!(state.consecutive_errors, 0, "{success:?} must reset");
            assert!(!state.retired);
            // Two more error days must not retire: the streak restarted.
            state.record(&CrawlOutcome::Error(FetchError::ConnectionFailed), day(3));
            state.record(&CrawlOutcome::Error(FetchError::ConnectionFailed), day(4));
            assert!(!state.retired);
        }
    }

    #[test]
    fn checked_crawl_without_a_plan_matches_plain() {
        use gt_sim::faults::RetryPolicy;

        let host = host_with(CloakingProfile::default(), None);
        let crawler = Crawler::new(CrawlerConfig::default());
        let plain = crawler.crawl(&host, &url(), t(10));
        assert!(plain.html().is_some());
        // Without a plan the gate admits every fetch, and an enabled
        // sink only records them.
        let registry = gt_obs::MetricsRegistry::new();
        let mut gate = Gated::new(None, "test", RetryPolicy::default(), registry.sink("s"));
        assert_eq!(crawler.crawl_gated(&host, &url(), t(10), &mut gate), plain);
        assert!(gate.stats().is_zero());
        drop(gate);
        let served = registry.snapshot().counter("s", "web.fetch", "served");
        assert!(served >= Some(1), "{served:?}");
    }

    #[test]
    fn checked_crawl_surfaces_injected_faults() {
        use gt_sim::faults::{FaultKind, FaultPlan, FaultWindow, RetryPolicy, Substrate};

        let host = host_with(CloakingProfile::default(), None);
        let crawler = Crawler::new(CrawlerConfig::default());
        let mut plan = FaultPlan::quiet(5);
        plan.schedules.insert(
            Substrate::WebDns,
            vec![FaultWindow {
                start: t(0),
                end: t(50),
                kind: FaultKind::Outage,
            }],
        );
        let mut gate = Gated::new(
            Some(&plan),
            "test",
            RetryPolicy::default(),
            gt_obs::StageSink::noop(),
        );
        assert_eq!(
            crawler.crawl_gated(&host, &url(), t(10), &mut gate),
            CrawlOutcome::Error(FetchError::DnsFailure)
        );
        assert!(FetchError::DnsFailure.is_transient());
        assert_eq!(gate.stats().lost, 1);
        // Outside the window the crawl recovers.
        assert!(crawler
            .crawl_gated(&host, &url(), t(60), &mut gate)
            .html()
            .is_some());
    }

    #[test]
    fn due_once_per_day() {
        let mut state = RevisitState::new(url());
        assert!(state.due(t(0)));
        state.record(&CrawlOutcome::Page { html: "x".into() }, t(0));
        assert!(!state.due(t(3600)), "same UTC day");
        assert!(state.due(t(86_400 + 1)), "next day");
    }
}
