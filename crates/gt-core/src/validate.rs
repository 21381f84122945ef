//! Scam-site validation (Section 3.2, "Validating scam URLs and
//! identifying cryptocurrency addresses").
//!
//! A crawled page is accepted as a giveaway scam iff
//!
//! 1. it publishes at least one *valid* cryptocurrency address
//!    (checksum-verified by `gt-addr`), **and**
//! 2. either the page body contains a scam HTML keyword, **or**
//! 3. the domain name contains a scam domain keyword.

use gt_addr::Address;
use gt_store::{StoreDecode, StoreEncode};
use gt_stream::keywords::SearchKeywords;
use gt_text::scan_address_candidates;
use serde::Serialize;

/// The validation verdict for one crawled page.
#[derive(Debug, Clone, PartialEq, Serialize, StoreEncode, StoreDecode)]
pub struct ValidatedSite {
    pub domain: String,
    /// Checksum-valid BTC/ETH/XRP addresses found on the page.
    pub addresses: Vec<Address>,
    /// Criterion 2: HTML keywords present.
    pub html_keywords: bool,
    /// Criterion 3: domain keywords present.
    pub domain_keywords: bool,
}

impl ValidatedSite {
    /// Whether the site passes the full validation rule.
    pub fn is_scam(&self) -> bool {
        !self.addresses.is_empty() && (self.html_keywords || self.domain_keywords)
    }
}

/// Validate one page.
pub fn validate_page(domain: &str, html: &str, keywords: &SearchKeywords) -> ValidatedSite {
    let mut addresses: Vec<Address> = scan_address_candidates(html)
        .into_iter()
        .filter_map(|c| gt_addr::validate_any(&c.text))
        .collect();
    addresses.sort();
    addresses.dedup();

    // Domain keywords match on the name with separators spaced out so
    // whole-word matching applies ("elon-give.com" → "elon give com").
    let spaced: String = domain
        .chars()
        .map(|c| {
            if c == '-' || c == '.' || c == '_' {
                ' '
            } else {
                c
            }
        })
        .collect();

    ValidatedSite {
        domain: domain.to_string(),
        addresses,
        html_keywords: keywords.html.matches(html),
        domain_keywords: keywords.domain.matches(&spaced),
    }
}

/// Validate the address strings annotated in a scam-DB entry (the
/// Twitter side never re-crawls; it trusts the corpus annotations but
/// still checksum-validates them).
pub fn validate_annotated_addresses(addresses: &[(String, String)]) -> Vec<Address> {
    let mut out: Vec<Address> = addresses
        .iter()
        .filter_map(|(_, text)| gt_addr::validate_any(text))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_stream::keywords::search_keyword_set;

    fn kws() -> SearchKeywords {
        search_keyword_set()
    }

    const GOOD_ADDR: &str = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa";

    #[test]
    fn accepts_page_with_address_and_html_keywords() {
        let html = format!("<html>Hurry! Send BTC to {GOOD_ADDR} to participate</html>");
        let v = validate_page("random-name.com", &html, &kws());
        assert!(v.is_scam());
        assert_eq!(v.addresses.len(), 1);
        assert!(v.html_keywords);
    }

    #[test]
    fn accepts_page_with_address_and_domain_keywords_only() {
        let html = format!("<html>{GOOD_ADDR}</html>");
        let v = validate_page("elon-musk-drop.live", &html, &kws());
        assert!(v.is_scam(), "domain keywords rescue a keyword-less page");
        assert!(!v.html_keywords);
        assert!(v.domain_keywords);
    }

    #[test]
    fn rejects_page_without_valid_address() {
        let html = "<html>Hurry! participate in the giveaway, send crypto now!</html>";
        let v = validate_page("elon-drop.live", html, &kws());
        assert!(!v.is_scam(), "no address, no scam verdict");
    }

    #[test]
    fn rejects_page_with_address_but_no_keywords_anywhere() {
        let html = format!("<html>my cold storage backup: {GOOD_ADDR}</html>");
        let v = validate_page("personal-blog-site.org", &html, &kws());
        assert!(!v.is_scam());
        assert_eq!(v.addresses.len(), 1, "address found but criteria 2/3 fail");
    }

    #[test]
    fn rejects_corrupted_addresses() {
        let bad = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNb"; // checksum broken
        let html = format!("<html>Hurry! send to {bad}</html>");
        let v = validate_page("elon-drop.live", &html, &kws());
        assert!(v.addresses.is_empty());
        assert!(!v.is_scam());
    }

    #[test]
    fn dedupes_repeated_addresses() {
        let html = format!("<html>hurry {GOOD_ADDR} and again {GOOD_ADDR}</html>");
        let v = validate_page("x-give.com", &html, &kws());
        assert_eq!(v.addresses.len(), 1);
    }

    #[test]
    fn annotated_addresses_are_checksummed() {
        let entries = vec![
            ("BTC".to_string(), GOOD_ADDR.to_string()),
            ("BTC".to_string(), "garbage".to_string()),
            (
                "ETH".to_string(),
                "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed".to_string(),
            ),
            (
                "DOGE".to_string(),
                "DPofMBULBSwFIaAPYZ9bbR3ePM2TfWsZZ1".to_string(),
            ),
        ];
        let valid = validate_annotated_addresses(&entries);
        assert_eq!(valid.len(), 2, "BTC + ETH valid; garbage and DOGE rejected");
    }
}
