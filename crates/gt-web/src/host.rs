//! The simulated web: domains, cloaking scam sites, benign sites.

use crate::url::Url;
use gt_sim::faults::{FaultKind, Gated, Substrate};
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Where a request originates from, as servers can observe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, StoreEncode, StoreDecode)]
pub enum NetOrigin {
    /// University / corporate address space (what an unprotected
    /// measurement crawler looks like).
    Institutional,
    /// Residential address space (what a VPN exit gives the crawler and
    /// what real victims look like).
    Residential,
    /// Hosting provider address space.
    Datacenter,
}

/// Which cloaking behaviours a scam site deploys (Section 3.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct CloakingProfile {
    /// 403 to institutional/datacenter IPs.
    pub ip_cloaking: bool,
    /// 403 unless the UA looks like a Windows/Mac browser.
    pub ua_cloaking: bool,
    /// Landing page behind an interactive front page (pick a coin /
    /// press a button).
    pub front_page: bool,
    /// Cloudflare-style bot challenge unless the client is a verified
    /// bot or passes the challenge.
    pub cloudflare: bool,
}

/// An HTTP-ish request as the simulated server sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub url: Url,
    pub origin: NetOrigin,
    pub user_agent: String,
    /// Set when the client has completed the site's front-page
    /// interaction (the heuristic click-through module).
    pub interacted: bool,
    /// Set when the client is registered as a verified bot with the
    /// anti-bot provider (or executed the challenge).
    pub solves_challenge: bool,
}

/// An HTTP-ish response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

impl Response {
    pub fn ok(body: String) -> Response {
        Response { status: 200, body }
    }

    pub fn forbidden() -> Response {
        Response {
            status: 403,
            body: "<html><body><h1>403 Forbidden</h1></body></html>".into(),
        }
    }

    /// Whether the body is an interactive front page.
    pub fn is_front_page(&self) -> bool {
        self.body.contains(FRONT_PAGE_MARKER)
    }

    /// Whether the body is an anti-bot challenge interstitial.
    pub fn is_challenge(&self) -> bool {
        self.body.contains(CHALLENGE_MARKER)
    }
}

/// Marker attribute the click-through heuristic looks for.
pub const FRONT_PAGE_MARKER: &str = "data-action=\"continue\"";
/// Marker the challenge page carries.
pub const CHALLENGE_MARKER: &str = "id=\"anti-bot-challenge\"";

/// Why a fetch failed at the network layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// No such domain (never registered, or NXDOMAIN after takedown).
    UnknownDomain,
    /// Domain exists but the server no longer responds.
    ConnectionFailed,
    /// Resolver failure (injected fault; distinct from NXDOMAIN).
    DnsFailure,
    /// TLS handshake failed.
    TlsHandshake,
    /// The request timed out.
    Timeout,
    /// The client is being rate-limited.
    RateLimited,
}

impl FetchError {
    /// Whether a retry at a later tick could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FetchError::DnsFailure
                | FetchError::TlsHandshake
                | FetchError::Timeout
                | FetchError::RateLimited
        )
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::UnknownDomain => write!(f, "unknown domain"),
            FetchError::ConnectionFailed => write!(f, "connection failed"),
            FetchError::DnsFailure => write!(f, "dns failure"),
            FetchError::TlsHandshake => write!(f, "tls handshake failed"),
            FetchError::Timeout => write!(f, "timed out"),
            FetchError::RateLimited => write!(f, "rate limited"),
        }
    }
}

impl std::error::Error for FetchError {}

/// Specification of a hosted scam site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct ScamSiteSpec {
    pub domain: String,
    /// The landing-page HTML (contains addresses and scam keywords).
    pub landing_html: String,
    /// Front-page HTML shown when `cloaking.front_page` and the client
    /// has not interacted.
    pub front_html: String,
    pub cloaking: CloakingProfile,
    /// When the site came online.
    pub online_from: SimTime,
    /// When the site stopped responding (takedown/abandonment), if ever.
    pub offline_from: Option<SimTime>,
}

impl ScamSiteSpec {
    fn serve(&self, req: &Request) -> Response {
        let c = self.cloaking;
        if c.ip_cloaking && req.origin != NetOrigin::Residential {
            return Response::forbidden();
        }
        if c.ua_cloaking && !ua_looks_mainstream(&req.user_agent) {
            return Response::forbidden();
        }
        if c.cloudflare && !req.solves_challenge {
            return Response::ok(format!(
                "<html><body><div {CHALLENGE_MARKER}>Checking your browser…</div></body></html>"
            ));
        }
        if c.front_page && !req.interacted {
            return Response::ok(self.front_html.clone());
        }
        Response::ok(self.landing_html.clone())
    }
}

fn ua_looks_mainstream(ua: &str) -> bool {
    let ua = ua.to_ascii_lowercase();
    ua.contains("windows nt") || ua.contains("macintosh")
}

/// A benign site (background web).
#[derive(Debug, Clone, PartialEq, Eq, StoreEncode, StoreDecode)]
pub struct BenignSiteSpec {
    pub domain: String,
    pub html: String,
}

#[derive(Debug, StoreEncode, StoreDecode)]
enum Site {
    Scam(ScamSiteSpec),
    Benign(BenignSiteSpec),
}

/// Four zero counters that keep the world snapshot's bytes where the
/// benchmark pins them: a snapshot-format placeholder, never written
/// after construction, that the next re-pin removes. A decoded value is
/// kept as decoded, so a decode re-encodes to the same bytes.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
struct HostStats {
    fetches: u64,
    forbidden: u64,
    challenges: u64,
    errors: u64,
}

/// The registry of all hosted sites.
#[derive(Debug, Default, StoreEncode, StoreDecode)]
pub struct WebHost {
    sites: HashMap<String, Site>,
    /// Snapshot-format placeholder (see `HostStats`).
    stats: HostStats,
}

impl WebHost {
    pub fn new() -> Self {
        WebHost::default()
    }

    pub fn add_scam_site(&mut self, spec: ScamSiteSpec) {
        self.sites.insert(spec.domain.clone(), Site::Scam(spec));
    }

    pub fn add_benign_site(&mut self, spec: BenignSiteSpec) {
        self.sites.insert(spec.domain.clone(), Site::Benign(spec));
    }

    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Ground-truth access to a scam site's spec.
    pub fn scam_site(&self, domain: &str) -> Option<&ScamSiteSpec> {
        match self.sites.get(domain) {
            Some(Site::Scam(s)) => Some(s),
            _ => None,
        }
    }

    /// Serve a request at virtual time `now`, consulting `gate`'s fault
    /// plan first.
    ///
    /// Network-layer faults surface as the extended [`FetchError`]
    /// variants: DNS and TLS windows fail the whole fetch, while
    /// fetch-layer windows are retried inside the gate's budget and
    /// only surface once the budget or schedule says so. A served
    /// response always carries data as of `now` (snapshot semantics).
    /// A gate with an enabled sink also records per-substrate call
    /// counts and served body bytes.
    pub fn fetch(
        &self,
        req: &Request,
        now: SimTime,
        gate: &mut Gated<'_>,
    ) -> Result<Response, FetchError> {
        for (sub, err) in [
            (Substrate::WebDns, FetchError::DnsFailure),
            (Substrate::WebTls, FetchError::TlsHandshake),
        ] {
            if gate.checked(sub, now, || ()).is_err() {
                return Err(err);
            }
        }
        let fetched = gate.checked_counted(Substrate::WebFetch, now, || {
            let result = self.serve(req, now);
            let bytes = result.as_ref().map(|r| r.body.len() as u64).unwrap_or(0);
            (result, bytes)
        });
        match fetched {
            Ok(result) => result,
            Err(_denied) => {
                let err = match gate.active_fault(Substrate::WebFetch, now) {
                    Some(FaultKind::RateLimit) => FetchError::RateLimited,
                    Some(FaultKind::Outage) => FetchError::ConnectionFailed,
                    _ => FetchError::Timeout,
                };
                Err(err)
            }
        }
    }

    /// The admitted body of [`WebHost::fetch`]: serve `req` as the site
    /// behaves at `now`.
    fn serve(&self, req: &Request, now: SimTime) -> Result<Response, FetchError> {
        match self.sites.get(&req.url.host) {
            None => Err(FetchError::UnknownDomain),
            Some(Site::Benign(b)) => Ok(Response::ok(b.html.clone())),
            Some(Site::Scam(s)) => {
                if now < s.online_from || s.offline_from.is_some_and(|t| now >= t) {
                    return Err(FetchError::ConnectionFailed);
                }
                Ok(s.serve(req))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime(1_690_156_800 + s)
    }

    fn scam_spec(cloaking: CloakingProfile) -> ScamSiteSpec {
        ScamSiteSpec {
            domain: "xrp-2x.live".into(),
            landing_html: "<html><body>Hurry! Send XRP to \
                           rHb9CJAWyB4rj91VRWn96DkukG4bwdtyTh to participate</body></html>"
                .into(),
            front_html: format!(
                "<html><body><button {FRONT_PAGE_MARKER}>Select your crypto</button></body></html>"
            ),
            cloaking,
            online_from: t(0),
            offline_from: None,
        }
    }

    /// [`WebHost::fetch`] through a gate with no fault plan.
    fn fetch(host: &WebHost, req: &Request, now: SimTime) -> Result<Response, FetchError> {
        host.fetch(req, now, &mut Gated::disabled())
    }

    fn residential_browser(url: &str) -> Request {
        Request {
            url: Url::parse(url).unwrap(),
            origin: NetOrigin::Residential,
            user_agent: "Mozilla/5.0 (Windows NT 10.0; Win64; x64) Chrome/114".into(),
            interacted: false,
            solves_challenge: false,
        }
    }

    #[test]
    fn plain_site_serves_landing_page() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile::default()));
        let resp = fetch(&host, &residential_browser("https://xrp-2x.live/"), t(100)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("rHb9CJAWyB4rj91VRWn96DkukG4bwdtyTh"));
    }

    #[test]
    fn ip_cloaking_blocks_institutional() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile {
            ip_cloaking: true,
            ..Default::default()
        }));
        let mut req = residential_browser("https://xrp-2x.live/");
        req.origin = NetOrigin::Institutional;
        assert_eq!(fetch(&host, &req, t(1)).unwrap().status, 403);
        req.origin = NetOrigin::Residential;
        assert_eq!(fetch(&host, &req, t(1)).unwrap().status, 200);
    }

    #[test]
    fn ua_cloaking_blocks_non_mainstream() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile {
            ua_cloaking: true,
            ..Default::default()
        }));
        let mut req = residential_browser("https://xrp-2x.live/");
        req.user_agent = "python-requests/2.31 (Linux x86_64)".into();
        assert_eq!(fetch(&host, &req, t(1)).unwrap().status, 403);
        req.user_agent = "Mozilla/5.0 (Macintosh; Intel Mac OS X) Safari".into();
        assert_eq!(fetch(&host, &req, t(1)).unwrap().status, 200);
    }

    #[test]
    fn front_page_requires_interaction() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile {
            front_page: true,
            ..Default::default()
        }));
        let mut req = residential_browser("https://xrp-2x.live/");
        let resp = fetch(&host, &req, t(1)).unwrap();
        assert!(resp.is_front_page());
        assert!(!resp.body.contains("rHb9CJAW"), "address not on front page");
        req.interacted = true;
        let resp = fetch(&host, &req, t(1)).unwrap();
        assert!(!resp.is_front_page());
        assert!(resp.body.contains("rHb9CJAW"));
    }

    #[test]
    fn cloudflare_challenge_until_verified() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile {
            cloudflare: true,
            ..Default::default()
        }));
        let mut req = residential_browser("https://xrp-2x.live/");
        assert!(fetch(&host, &req, t(1)).unwrap().is_challenge());
        req.solves_challenge = true;
        assert!(!fetch(&host, &req, t(1)).unwrap().is_challenge());
    }

    #[test]
    fn all_cloaking_layers_stack() {
        let mut host = WebHost::new();
        host.add_scam_site(scam_spec(CloakingProfile {
            ip_cloaking: true,
            ua_cloaking: true,
            front_page: true,
            cloudflare: true,
        }));
        let mut req = residential_browser("https://xrp-2x.live/");
        req.interacted = true;
        req.solves_challenge = true;
        let resp = fetch(&host, &req, t(1)).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("rHb9CJAW"));
    }

    #[test]
    fn offline_sites_fail_to_connect() {
        let mut host = WebHost::new();
        let mut spec = scam_spec(CloakingProfile::default());
        spec.offline_from = Some(t(1000));
        host.add_scam_site(spec);
        let req = residential_browser("https://xrp-2x.live/");
        assert!(fetch(&host, &req, t(100)).is_ok());
        assert_eq!(
            fetch(&host, &req, t(1000)),
            Err(FetchError::ConnectionFailed)
        );
        // Before the site came online it also fails.
        assert_eq!(
            fetch(&host, &req, t(-10)),
            Err(FetchError::ConnectionFailed)
        );
    }

    #[test]
    fn unknown_domain() {
        let host = WebHost::new();
        let req = residential_browser("https://nosuch.site/");
        assert_eq!(fetch(&host, &req, t(0)), Err(FetchError::UnknownDomain));
    }
}
