//! URL extraction from free text (chat messages, tweets, page bodies).
//!
//! Mirrors the paper's regex-based chat extraction: absolute `http(s)://`
//! URLs, scheme-less `www.` URLs, and bare `host.tld/...` mentions for a
//! conservative set of TLDs that the scam-domain corpus actually uses.

use serde::Serialize;
use std::borrow::Cow;

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

/// Whether `host` (borrowed from the text, any case) is a plausible
/// host name: at least one dot, no empty label, no label starting or
/// ending with `-`, and an alphabetic TLD of two or more letters.
fn valid_host(host: &str) -> bool {
    if host.len() < 4 || !host.contains('.') {
        return false;
    }
    let labels_ok = host
        .split('.')
        .all(|label| !label.is_empty() && !label.starts_with('-') && !label.ends_with('-'));
    let tld = host.rsplit('.').next().unwrap_or("");
    labels_ok && tld.len() >= 2 && tld.bytes().all(|b| b.is_ascii_alphabetic())
}

/// Length of the `http://` or `https://` scheme (any case) starting at
/// `i`, or 0 if none does. Most bytes are not an `h`, so that is tested
/// before any scheme is compared.
fn scheme_len(bytes: &[u8], i: usize) -> usize {
    let rest = &bytes[i..];
    if !rest[0].eq_ignore_ascii_case(&b'h') {
        return 0;
    }
    let starts_with_ci = |prefix: &[u8]| {
        rest.len() >= prefix.len() && rest[..prefix.len()].eq_ignore_ascii_case(prefix)
    };
    if starts_with_ci(b"https://") {
        8
    } else if starts_with_ci(b"http://") {
        7
    } else {
        0
    }
}

/// Extract all URLs from `text`.
///
/// The scan borrows the text until it accepts a URL: hosts are
/// validated case-insensitively in place, and the one allocation per
/// accepted URL is its exactly-sized normalised string.
///
/// Text that cannot hold a URL is skipped whole. At the start of each
/// run of path bytes the scan jumps to the start of the run that holds
/// the next `.`, and it stops when no `.` is left. The jump is exact,
/// for two reasons:
/// - every accepted host contains a dot, and a match's scheme and host
///   are path bytes, so a match starts in the same run as a dot at or
///   after its start: no match starts in a dot-free run;
/// - an attempt that fails never moves the scan past the next non-path
///   byte, so the byte-by-byte scan over the skipped runs would have
///   arrived at the same run start, having found nothing.
pub fn extract_urls(text: &str) -> Vec<ExtractedUrl> {
    Mentions::new(text)
        .map(|m| {
            // An explicit `http://` stays; everything else becomes `https://`.
            let prefix = if m.scheme == 7 { "http://" } else { "https://" };
            let mut url = String::with_capacity(prefix.len() + m.host.len() + m.after_host.len());
            url.push_str(prefix);
            url.push_str(m.host);
            url[prefix.len()..].make_ascii_lowercase();
            url.push_str(m.after_host);
            ExtractedUrl {
                url,
                start: m.start,
                had_scheme: m.scheme > 0,
            }
        })
        .collect()
}

/// The host of each URL [`extract_urls`] finds in `text`, in the same
/// order and as [`ExtractedUrl::host`] reads it: lowercased, without
/// port or path. The scan is the same one, so both accept exactly the
/// same URLs; this one builds no URL string and no `Vec`, and borrows
/// each host from `text` unless it has an uppercase letter.
pub fn extract_url_hosts(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    Mentions::new(text).map(|m| {
        if m.host.bytes().any(|b| b.is_ascii_uppercase()) {
            Cow::Owned(m.host.to_ascii_lowercase())
        } else {
            Cow::Borrowed(m.host)
        }
    })
}

/// One accepted URL mention, borrowed from the text.
struct Mention<'a> {
    /// Byte offset where the raw mention starts.
    start: usize,
    /// Length of the scheme: 0, 7 (`http://`) or 8 (`https://`).
    scheme: usize,
    /// The host as written, in any case.
    host: &'a str,
    /// What follows the host: port, path, query and fragment, with
    /// trailing sentence punctuation trimmed.
    after_host: &'a str,
}

/// The scan behind [`extract_urls`] and [`extract_url_hosts`]: yields
/// each accepted mention in text order. `i` is where the scan resumes
/// and `dot` the position of a `.` at or after the last run start it
/// jumped from; `i == text.len()` once no `.` is left.
struct Mentions<'a> {
    text: &'a str,
    i: usize,
    dot: usize,
}

impl<'a> Mentions<'a> {
    fn new(text: &'a str) -> Self {
        match find_dot(text.as_bytes(), 0) {
            Some(dot) => Mentions { text, i: 0, dot },
            None => Mentions {
                text,
                i: text.len(),
                dot: 0,
            },
        }
    }
}

impl<'a> Iterator for Mentions<'a> {
    type Item = Mention<'a>;

    fn next(&mut self) -> Option<Mention<'a>> {
        let text = self.text;
        let bytes = text.as_bytes();
        let (mut i, mut dot) = (self.i, self.dot);
        while i < bytes.len() {
            if i == 0 || !is_path_byte(bytes[i - 1]) {
                if dot < i {
                    match find_dot(bytes, i) {
                        Some(next) => dot = next,
                        None => break,
                    }
                }
                // The start of the run holding `dot`: `i` itself when this
                // run holds it, a run start (an ASCII byte) otherwise.
                let mut run = dot;
                while run > i && is_path_byte(bytes[run - 1]) {
                    run -= 1;
                }
                i = run;
            }
            // Every start below is an ASCII byte, hence a character
            // boundary: multi-byte text is stepped over a byte at a time.
            let scheme = scheme_len(bytes, i);
            let had_scheme = scheme > 0;
            if !had_scheme && !candidate_start(bytes, i) {
                i += 1;
                continue;
            }

            let body_start = i + scheme;
            // Host part.
            let mut j = body_start;
            while j < bytes.len() && is_host_byte(bytes[j]) {
                j += 1;
            }
            let host = text[body_start..j].trim_end_matches('.');
            if !valid_host(host) || (!had_scheme && !bare_mention_allowed(host)) {
                i = j.max(i + 1);
                continue;
            }
            let mut end = body_start + host.len();
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
            if end < bytes.len() && (bytes[end] == b'/' || bytes[end] == b'?' || bytes[end] == b'#')
            {
                let mut k = end;
                while k < bytes.len() && is_path_byte(bytes[k]) {
                    k += 1;
                }
                end = k;
            }
            let raw = trim_trailing_punct(&text[body_start..end]);
            (self.i, self.dot) = ((body_start + raw.len()).max(i + 1), dot);
            return Some(Mention {
                start: i,
                scheme,
                host,
                after_host: &raw[host.len().min(raw.len())..],
            });
        }
        self.i = bytes.len();
        None
    }
}
/// Position of the first `.` at or after `from`.
fn find_dot(bytes: &[u8], from: usize) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == b'.')
        .map(|at| from + at)
}

/// Is `i` a plausible start of a scheme-less URL mention?
fn candidate_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_host_byte(bytes[i - 1]) {
        return false; // middle of a word
    }
    bytes[i].is_ascii_alphanumeric()
}

/// Whether a scheme-less mention of `host` (any case) counts: a `www.`
/// host, or one under a [`BARE_TLDS`] TLD.
fn bare_mention_allowed(host: &str) -> bool {
    if host.len() >= 4 && host.as_bytes()[..4].eq_ignore_ascii_case(b"www.") {
        return true;
    }
    let tld = host.rsplit('.').next().unwrap_or("");
    BARE_TLDS.iter().any(|t| t.eq_ignore_ascii_case(tld))
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
        // The word is one host run with an unlisted TLD (`comtext`): it
        // is rejected whole and the scan resumes after it, so neither
        // `www.example.comtext` nor `example.comtext` is tried.
        assert_eq!(urls("notwww.example.comtext"), Vec::<String>::new());
        // With a listed TLD the whole word is the host.
        assert_eq!(
            urls("a notwww.example.com b"),
            ["https://notwww.example.com"]
        );
    }

    #[test]
    fn scheme_after_a_word_start() {
        // `xhttps` is a rejected word start that swallows the scheme, so
        // the host is picked up as a bare mention after `//`.
        let found = extract_urls("xhttps://Drop.COM/a");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].url, "https://drop.com/a");
        assert_eq!((found[0].start, found[0].had_scheme), (9, false));
        // After a byte that is neither a host byte nor alphanumeric the
        // scheme itself starts the match.
        let found = extract_urls("_HTTP://Drop.io/a");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].url, "http://drop.io/a");
        assert_eq!((found[0].start, found[0].had_scheme), (1, true));
    }

    #[test]
    fn bare_mixed_case_hosts_are_accepted_and_lowercased() {
        assert_eq!(urls("claim at Elon-Drop.LIVE!"), ["https://elon-drop.live"]);
        assert_eq!(
            urls("visit WWW.Ripple2x.NET/Go today"),
            ["https://www.ripple2x.net/Go"]
        );
        assert_eq!(
            urls("see Example.INVALIDTLD for more"),
            Vec::<String>::new()
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
