//! The allocation-free `extract_urls` returns exactly what the
//! reference extractor in `reference/` does: the same URLs, start
//! offsets and scheme flags, in the same order, on random text and on
//! text built from the fragments URL scanning is sensitive to.

mod reference;

use gt_text::{extract_urls, ExtractedUrl};
use proptest::prelude::*;

/// Pieces that sit on the extractor's decision points: schemes in mixed
/// case (and broken ones), `www.` prefixes, listed and unlisted TLDs in
/// mixed case, ports, paths, trailing dots and punctuation, separators,
/// and multi-byte characters that can sit right next to a host.
const FRAGMENTS: &[&str] = &[
    "https://",
    "HTTPS://",
    "hTtP://",
    "http://",
    "http:/",
    "https:",
    "h",
    "H",
    "x",
    "www.",
    "WWW.",
    "wWw.",
    ".com",
    ".COM",
    ".Live",
    ".io",
    ".xyz",
    ".fund",
    ".invalidtld",
    ".c",
    ".co1",
    ".",
    "..",
    "-",
    ":8443",
    ":",
    "/",
    "/Path/X",
    "?q=1&r=%20",
    "#top",
    " ",
    " ",
    ",",
    "!",
    "?",
    ")",
    "(",
    "\"",
    "'",
    "_",
    "@",
    "é",
    "€",
    "ü.com",
    "😀",
    "日本",
];

fn assemble(picks: &[usize], words: &[String]) -> String {
    let mut text = String::new();
    for (k, &pick) in picks.iter().enumerate() {
        text.push_str(FRAGMENTS[pick]);
        text.push_str(&words[k % words.len()]);
    }
    text
}

fn check(text: &str) -> Result<(), TestCaseError> {
    let got = extract_urls(text);
    let want = reference::extract_urls(text);
    let key = |found: &[ExtractedUrl]| -> Vec<(String, usize, bool)> {
        found
            .iter()
            .map(|u| (u.url.clone(), u.start, u.had_scheme))
            .collect()
    };
    prop_assert_eq!(key(&got), key(&want), "text {:?}", text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn agrees_with_reference_on_printable_ascii(text in "[ -~]{0,160}") {
        check(&text)?;
    }

    #[test]
    fn agrees_with_reference_on_url_shaped_text(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..24),
        words in proptest::collection::vec("[a-zA-Z0-9\\-]{0,7}", 1..6),
    ) {
        check(&assemble(&picks, &words))?;
    }

    #[test]
    fn agrees_with_reference_next_to_multibyte_characters(
        before in "[é€😀ü日a ]{0,3}",
        host in "[a-zA-Z]{1,8}",
        tld in prop_oneof![Just("com"), Just("LIVE"), Just("Net"), Just("zz"), Just("c0m")],
        after in "[é€😀ü日.,/ ]{0,4}",
        scheme in prop_oneof![Just(""), Just("https://"), Just("Http://"), Just("www."), Just("WWW.")],
    ) {
        check(&format!("{before}{scheme}{host}.{tld}{after}"))?;
    }
}

#[test]
fn agrees_with_reference_on_fixed_cases() {
    for text in [
        "",
        "go to https://musk-gives.com/claim now",
        "HTTPS://Big-Giveaway.COM/Path?X=1",
        "claim at Elon-Drop.LIVE!",
        "visit WWW.Ripple2x.NET/Go today",
        "notwww.example.comtext",
        "a notwww.example.com b",
        "xhttps://Drop.COM/a",
        "_HTTP://Drop.io/a",
        "check https://btc-x2.com/go.",
        "dev server https://site.com:8443/x and http://site.com:/y",
        "trailing dots https://a.b.com... and www.x.io.",
        "éhttps://ü.com 日本www.site.xyz😀",
        "https://",
        "https://.com",
        "https://-a.com b-.com",
    ] {
        check(text).unwrap();
    }
}
