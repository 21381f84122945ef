//! URL extraction from free text (chat messages, tweets, page bodies).
//!
//! Mirrors the paper's regex-based chat extraction: absolute `http(s)://`
//! URLs, scheme-less `www.` URLs, and bare `host.tld/...` mentions for a
//! conservative set of TLDs that the scam-domain corpus actually uses.

use serde::Serialize;

/// A URL found in free text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExtractedUrl {
    /// The normalised URL (scheme always present, host lowercased).
    pub url: String,
    /// Byte offset in the source text where the raw mention started.
    pub start: usize,
    /// Whether a scheme was present in the raw text.
    pub had_scheme: bool,
}

impl ExtractedUrl {
    /// The host portion of the normalised URL.
    pub fn host(&self) -> &str {
        let rest = &self.url[self.url.find("//").map(|i| i + 2).unwrap_or(0)..];
        let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let host_port = &rest[..end];
        host_port.split(':').next().unwrap_or(host_port)
    }
}

/// TLDs accepted for scheme-less mentions. Scam giveaway domains in the
/// CryptoScamTracker corpus overwhelmingly use these.
const BARE_TLDS: &[&str] = &[
    "com", "net", "org", "io", "me", "co", "info", "live", "xyz", "site", "online", "top", "fund",
    "gift", "cash", "app", "dev", "finance", "exchange", "events", "promo", "club", "pro", "vip",
];

fn is_host_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-' || b == b'.'
}

fn is_path_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(
            b,
            b'-' | b'.'
                | b'_'
                | b'~'
                | b'/'
                | b'?'
                | b'#'
                | b'&'
                | b'='
                | b'%'
                | b'+'
                | b':'
                | b'@'
        )
}

/// Trailing characters that are almost always sentence punctuation, not
/// part of the URL.
fn trim_trailing_punct(s: &str) -> &str {
    s.trim_end_matches(['.', ',', ';', ':', '!', '?', ')', ']', '}', '\'', '"'])
}

fn valid_host(host: &str) -> bool {
    if host.len() < 4 || !host.contains('.') {
        return false;
    }
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() < 2 {
        return false;
    }
    for label in &labels {
        if label.is_empty() || label.starts_with('-') || label.ends_with('-') {
            return false;
        }
    }
    // The TLD must be alphabetic and at least 2 chars.
    let tld = labels.last().unwrap();
    tld.len() >= 2 && tld.bytes().all(|b| b.is_ascii_alphabetic())
}

/// Extract all URLs from `text`.
pub fn extract_urls(text: &str) -> Vec<ExtractedUrl> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Only start parsing at character boundaries (the scan index
        // walks bytes; multi-byte text is skipped over safely).
        if !text.is_char_boundary(i) {
            i += 1;
            continue;
        }
        // Absolute URLs (byte-wise, ASCII case-insensitive).
        let starts_with_ci = |prefix: &[u8]| {
            bytes.len() >= i + prefix.len()
                && bytes[i..i + prefix.len()].eq_ignore_ascii_case(prefix)
        };
        let (scheme_len, had_scheme) = if starts_with_ci(b"https://") {
            (8, true)
        } else if starts_with_ci(b"http://") {
            (7, true)
        } else if candidate_start(bytes, i) {
            (0, false)
        } else {
            i += 1;
            continue;
        };

        let body_start = i + scheme_len;
        // Host part.
        let mut j = body_start;
        while j < bytes.len() && is_host_byte(bytes[j]) {
            j += 1;
        }
        let host_raw = &text[body_start..j];
        let host_trimmed = host_raw.trim_end_matches('.');
        let host = host_trimmed.to_ascii_lowercase();
        if !valid_host(&host) || (!had_scheme && !bare_mention_allowed(&host)) {
            i = j.max(i + 1);
            continue;
        }
        let mut end = body_start + host_trimmed.len();
        // Optional port.
        if end < bytes.len() && bytes[end] == b':' {
            let mut k = end + 1;
            while k < bytes.len() && bytes[k].is_ascii_digit() {
                k += 1;
            }
            if k > end + 1 {
                end = k;
            }
        }
        // Optional path/query/fragment.
        if end < bytes.len() && (bytes[end] == b'/' || bytes[end] == b'?' || bytes[end] == b'#') {
            let mut k = end;
            while k < bytes.len() && is_path_byte(bytes[k]) {
                k += 1;
            }
            end = k;
        }
        let raw = trim_trailing_punct(&text[body_start..end]);
        let end = body_start + raw.len();
        // Rebuild with lowercased host.
        let after_host = &raw[host_trimmed.len().min(raw.len())..];
        let url = format!("https://{}{}", host, after_host);
        // Keep http scheme if it was explicit.
        let url = if had_scheme
            && bytes[i..].len() >= 7
            && bytes[i..i + 7].eq_ignore_ascii_case(b"http://")
        {
            format!("http://{}{}", host, after_host)
        } else {
            url
        };
        out.push(ExtractedUrl {
            url,
            start: i,
            had_scheme,
        });
        i = end.max(i + 1);
    }
    out
}

/// Is `i` a plausible start of a scheme-less URL mention?
fn candidate_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_host_byte(bytes[i - 1]) {
        return false; // middle of a word
    }
    bytes[i].is_ascii_alphanumeric()
}

fn bare_mention_allowed(host: &str) -> bool {
    if host.starts_with("www.") {
        return true;
    }
    let tld = host.rsplit('.').next().unwrap_or("");
    BARE_TLDS.contains(&tld)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urls(text: &str) -> Vec<String> {
        extract_urls(text).into_iter().map(|u| u.url).collect()
    }

    #[test]
    fn absolute_https() {
        assert_eq!(
            urls("go to https://musk-gives.com/claim now"),
            ["https://musk-gives.com/claim"]
        );
    }

    #[test]
    fn absolute_http_keeps_scheme() {
        assert_eq!(urls("http://example.org"), ["http://example.org"]);
    }

    #[test]
    fn www_without_scheme() {
        assert_eq!(
            urls("visit www.ripple2x.net today"),
            ["https://www.ripple2x.net"]
        );
    }

    #[test]
    fn bare_domain_with_known_tld() {
        assert_eq!(urls("claim at elon-drop.live!"), ["https://elon-drop.live"]);
    }

    #[test]
    fn bare_domain_with_unknown_tld_ignored() {
        assert!(urls("see example.invalidtld for more").is_empty());
    }

    #[test]
    fn trailing_punctuation_trimmed() {
        assert_eq!(
            urls("check https://btc-x2.com/go."),
            ["https://btc-x2.com/go"]
        );
        assert_eq!(urls("(https://btc-x2.com)"), ["https://btc-x2.com"]);
    }

    #[test]
    fn host_is_lowercased_path_preserved() {
        assert_eq!(
            urls("HTTPS://Big-Giveaway.COM/Path?X=1"),
            ["https://big-giveaway.com/Path?X=1"]
        );
    }

    #[test]
    fn multiple_urls_in_order() {
        let found = urls("a https://one.com b https://two.com/x c");
        assert_eq!(found, ["https://one.com", "https://two.com/x"]);
    }

    #[test]
    fn port_numbers_kept() {
        assert_eq!(
            urls("dev server https://site.com:8443/x"),
            ["https://site.com:8443/x"]
        );
    }

    #[test]
    fn no_match_inside_words() {
        assert!(
            urls("notwww.example.comtext").is_empty()
                || !urls("notwww.example.comtext")
                    .iter()
                    .any(|u| u.contains("notwww"))
        );
    }

    #[test]
    fn host_accessor() {
        let u = extract_urls("https://a.b.example.com:8080/p?q=1").remove(0);
        assert_eq!(u.host(), "a.b.example.com");
        let u2 = extract_urls("https://plain.com").remove(0);
        assert_eq!(u2.host(), "plain.com");
    }

    #[test]
    fn empty_and_plain_text() {
        assert!(urls("").is_empty());
        assert!(urls("no links here, just words.").is_empty());
    }

    #[test]
    fn qr_style_url_with_path_tokens() {
        assert_eq!(
            urls("https://xrp-event.org/r/AbC123?ref=qr#top"),
            ["https://xrp-event.org/r/AbC123?ref=qr#top"]
        );
    }
}
