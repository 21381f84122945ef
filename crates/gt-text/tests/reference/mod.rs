//! The URL extractor as it was before it went allocation-free: it
//! compares both schemes at every byte, lowercases each candidate host
//! into a new `String` before validating it, splits the host into a
//! `Vec` of labels, and builds the URL with `format!`. It is kept only
//! as the reference the current [`gt_text::extract_urls`] must agree
//! with byte for byte (`tests/url_reference.rs`) and be faster than
//! (the gt-bench extractor ratio guard).

use gt_text::ExtractedUrl;

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
