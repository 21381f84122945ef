//! Scam domains, landing pages, and the CryptoScamTracker-style corpus.

use gt_addr::{Address, Coin};
use gt_hash::sha256d;
use gt_sim::SimTime;
use gt_store::{StoreDecode, StoreEncode};
use gt_web::{CloakingProfile, ScamSiteSpec};
use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;

/// A cryptocurrency address as displayed on a landing page: either one
/// of the three coins the analysis tracks, or some other coin (DOGE,
/// LTC, ...) the paper filters out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct DisplayAddress {
    /// Human label shown next to the address ("BTC", "DOGE", ...).
    pub label: String,
    /// The address string as printed on the page.
    pub text: String,
    /// Parsed form when the coin is BTC/ETH/XRP.
    pub parsed: Option<Address>,
}

impl DisplayAddress {
    pub fn tracked(coin: Coin, address: Address) -> DisplayAddress {
        DisplayAddress {
            label: coin.to_string(),
            text: address.encode(),
            parsed: Some(address),
        }
    }
}

/// A scam domain with everything needed to host and promote it.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct ScamDomain {
    pub domain: String,
    /// Index of the operation running it.
    pub op: usize,
    /// The public figure or brand impersonated.
    pub persona: String,
    /// Addresses printed on the landing page.
    pub addresses: Vec<DisplayAddress>,
    pub cloaking: CloakingProfile,
    pub online_from: SimTime,
    pub offline_from: Option<SimTime>,
}

impl ScamDomain {
    /// The tracked (BTC/ETH/XRP) addresses on the page.
    pub fn tracked_addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.addresses.iter().filter_map(|d| d.parsed)
    }

    /// The tracked address for a specific coin, if displayed.
    pub fn address_for(&self, coin: Coin) -> Option<Address> {
        self.tracked_addresses().find(|a| a.coin() == coin)
    }

    /// Render this domain's web-host spec.
    pub fn site_spec(&self) -> ScamSiteSpec {
        ScamSiteSpec {
            domain: self.domain.clone(),
            landing_html: landing_html(&self.persona, &self.addresses),
            front_html: front_html(&self.persona),
            cloaking: self.cloaking,
            online_from: self.online_from,
            offline_from: self.offline_from,
        }
    }
}

/// Personae that giveaway scams impersonate.
pub const PERSONAE: &[&str] = &[
    "Elon Musk",
    "Brad Garlinghouse",
    "Vitalik Buterin",
    "Michael Saylor",
    "Charles Hoskinson",
    "Changpeng Zhao",
    "MicroStrategy",
    "Ripple Labs",
    "Tesla Official",
    "Ark Invest",
];

const NAME_PARTS: &[&str] = &[
    "elon",
    "musk",
    "tesla",
    "ripple",
    "xrp",
    "garling",
    "vitalik",
    "eth",
    "btc",
    "saylor",
    "hoskinson",
    "ada",
    "binance",
    "crypto",
    "coin",
    "official",
];
const ACTION_PARTS: &[&str] = &[
    "giveaway", "give", "drop", "airdrop", "2x", "x2", "double", "event", "promo", "claim",
    "bonus", "gift",
];
const TLDS: &[&str] = &[
    "com", "net", "org", "live", "xyz", "site", "online", "top", "fund", "gift", "cash", "pro",
    "info", "club", "vip",
];

/// Mints unique scam domain names.
#[derive(Debug, Default)]
pub struct DomainFactory {
    used: std::collections::HashSet<String>,
}

impl DomainFactory {
    pub fn new() -> Self {
        DomainFactory::default()
    }

    /// A fresh, never-before-returned domain name.
    pub fn mint(&mut self, rng: &mut StdRng) -> String {
        loop {
            let name = NAME_PARTS[rng.gen_range(0..NAME_PARTS.len())];
            let action = ACTION_PARTS[rng.gen_range(0..ACTION_PARTS.len())];
            let tld = TLDS[rng.gen_range(0..TLDS.len())];
            let candidate = if rng.gen_bool(0.3) {
                format!("{name}-{action}{}.{tld}", rng.gen_range(2..100))
            } else {
                format!("{name}-{action}.{tld}")
            };
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

/// Landing-page HTML: impersonation banner, urgency copy containing the
/// CryptoScamTracker HTML keywords, and the payment addresses.
pub fn landing_html(persona: &str, addresses: &[DisplayAddress]) -> String {
    let mut rows = String::new();
    for a in addresses {
        rows.push_str(&format!(
            "      <div class=\"coin\"><span class=\"label\">{}</span> \
             <code class=\"addr\">{}</code></div>\n",
            a.label, a.text
        ));
    }
    format!(
        r#"<!doctype html>
<html lang="en">
<head><title>{persona} Official 5,000 Crypto Giveaway</title></head>
<body>
  <h1>{persona} — Biggest crypto giveaway of the year!</h1>
  <p>To participate in the giveaway, immediately send any amount of crypto
     to the address below and we will send back <b>DOUBLE</b> as a bonus.
     Hurry — the event ends soon! Read the rules and send now.</p>
  <section id="addresses">
{rows}  </section>
  <p class="fine">One transaction per participant. Rules apply.</p>
</body>
</html>"#
    )
}

/// Interactive front page (click-through cloaking).
pub fn front_html(persona: &str) -> String {
    format!(
        r#"<!doctype html>
<html lang="en">
<head><title>{persona} Event</title></head>
<body>
  <h1>{persona} Event</h1>
  <p>Select your cryptocurrency to continue.</p>
  <button data-action="continue">BTC</button>
  <button data-action="continue">ETH</button>
  <button data-action="continue">XRP</button>
</body>
</html>"#
    )
}

/// Draw a cloaking profile with the pilot-study behaviour mix: most
/// sites deploy nothing, each behaviour appears on a minority of sites.
pub fn random_cloaking(rng: &mut StdRng) -> CloakingProfile {
    CloakingProfile {
        ip_cloaking: rng.gen_bool(0.18),
        ua_cloaking: rng.gen_bool(0.15),
        front_page: rng.gen_bool(0.22),
        cloudflare: rng.gen_bool(0.12),
    }
}

/// A base58check string for a coin we do *not* track (DOGE 'D…' or
/// LTC 'L…'): syntactically a real address, but never valid as
/// BTC/ETH/XRP.
pub fn other_coin_address(rng: &mut StdRng) -> (String, String) {
    let (label, version) = if rng.gen_bool(0.5) {
        ("DOGE", 0x1eu8)
    } else {
        ("LTC", 0x30u8)
    };
    let mut payload = vec![version];
    let mut hash = [0u8; 20];
    rng.fill(&mut hash);
    payload.extend_from_slice(&hash);
    let checksum = sha256d(&payload);
    payload.extend_from_slice(&checksum[..4]);
    (
        label.to_string(),
        gt_addr::base58::encode(&payload, gt_addr::base58::BTC_ALPHABET),
    )
}

/// One entry of the CryptoScamTracker-style corpus: a domain with the
/// addresses annotated when it was crawled (possibly incomplete — the
/// paper notes missing/inaccurate addresses as a limitation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct ScamDbEntry {
    pub domain: String,
    /// Annotated address strings with coin labels.
    pub addresses: Vec<(String, String)>,
}

/// The corpus handed to the Twitter pipeline.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, StoreEncode, StoreDecode)]
pub struct ScamDomainDb {
    pub entries: Vec<ScamDbEntry>,
}

impl ScamDomainDb {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn domains(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.domain.as_str())
    }

    pub fn entry(&self, domain: &str) -> Option<&ScamDbEntry> {
        self.entries.iter().find(|e| e.domain == domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_addr::AddressGenerator;
    use gt_text::scan_address_candidates;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn domain_factory_is_unique_and_plausible() {
        let mut f = DomainFactory::new();
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let d = f.mint(&mut r);
            assert!(seen.insert(d.clone()), "duplicate {d}");
            assert!(d.contains('.'), "{d}");
            assert!(d.contains('-'), "{d}");
        }
    }

    #[test]
    fn landing_html_contains_addresses_and_keywords() {
        let mut gen = AddressGenerator::new(rng());
        let a1 = gen.generate(Coin::Btc);
        let a2 = gen.generate(Coin::Xrp);
        let html = landing_html(
            "Elon Musk",
            &[
                DisplayAddress::tracked(Coin::Btc, a1),
                DisplayAddress::tracked(Coin::Xrp, a2),
            ],
        );
        assert!(html.contains(&a1.encode()));
        assert!(html.contains(&a2.encode()));
        // CryptoScamTracker HTML keywords the validator relies on.
        for kw in [
            "participate",
            "send",
            "hurry",
            "bonus",
            "immediately",
            "rules",
            "giveaway",
        ] {
            assert!(html.to_lowercase().contains(kw), "missing keyword {kw}");
        }
        // The address scanner finds the embedded addresses.
        let candidates = scan_address_candidates(&html);
        assert_eq!(candidates.len(), 2);
    }

    #[test]
    fn front_html_has_clickthrough_marker() {
        let html = front_html("Ripple Labs");
        assert!(html.contains(gt_web::host::FRONT_PAGE_MARKER));
        assert!(!html.contains("addr"), "front page shows no address");
    }

    #[test]
    fn other_coin_addresses_do_not_validate_as_tracked() {
        let mut r = rng();
        for _ in 0..50 {
            let (label, text) = other_coin_address(&mut r);
            assert!(label == "DOGE" || label == "LTC");
            assert!(
                gt_addr::validate_any(&text).is_none(),
                "{label} address {text} must not validate as BTC/ETH/XRP"
            );
        }
    }

    #[test]
    fn site_spec_round_trip() {
        let mut gen = AddressGenerator::new(rng());
        let addr = gen.generate(Coin::Eth);
        let d = ScamDomain {
            domain: "elon-2x.live".into(),
            op: 0,
            persona: "Elon Musk".into(),
            addresses: vec![DisplayAddress::tracked(Coin::Eth, addr)],
            cloaking: CloakingProfile::default(),
            online_from: SimTime::from_ymd(2022, 1, 1),
            offline_from: None,
        };
        let spec = d.site_spec();
        assert_eq!(spec.domain, "elon-2x.live");
        assert!(spec.landing_html.contains(&addr.encode()));
        assert_eq!(d.address_for(Coin::Eth), Some(addr));
        assert_eq!(d.address_for(Coin::Btc), None);
    }

    #[test]
    fn cloaking_mix_is_mostly_plain() {
        let mut r = rng();
        let profiles: Vec<CloakingProfile> = (0..1000).map(|_| random_cloaking(&mut r)).collect();
        let plain = profiles
            .iter()
            .filter(|c| !c.ip_cloaking && !c.ua_cloaking && !c.front_page && !c.cloudflare)
            .count();
        assert!(plain > 400, "plain sites should dominate: {plain}");
        assert!(profiles.iter().any(|c| c.cloudflare));
        assert!(profiles.iter().any(|c| c.front_page));
    }
}
