//! `extract_urls` skips every run of path bytes that comes before the
//! run holding the next `.`, and stops when no `.` is left. These cases
//! sit on that skip and check it against the reference extractor in
//! `reference/`, which scans every byte: dots right after multi-byte
//! characters, dot-free runs right before a scheme, runs that hold a
//! dot only after a scheme or a path, and texts that end in a bare `.`.

mod reference;

use gt_text::{extract_urls, ExtractedUrl};
use proptest::prelude::*;

/// Pieces around the skip: run separators (ASCII and multi-byte),
/// dot-free runs, schemes glued to them, dots glued to multi-byte
/// characters, and dots at the very end of a run.
const FRAGMENTS: &[&str] = &[
    "é.",
    "€.com",
    "日本.io",
    "😀.",
    ".é",
    "ü",
    "no-dots_here",
    "run/with?no=dots",
    "xhttps://",
    "https://",
    "HTTP://",
    "www",
    "www.",
    ".com",
    ".LIVE",
    ".zz",
    ".",
    "..",
    "/",
    ":",
    " ",
    "\n",
    ",",
    "(",
    "\"",
];

fn key(found: &[ExtractedUrl]) -> Vec<(String, usize, bool)> {
    found
        .iter()
        .map(|u| (u.url.clone(), u.start, u.had_scheme))
        .collect()
}

fn check(text: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        key(&extract_urls(text)),
        key(&reference::extract_urls(text)),
        "text {:?}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn skipping_to_the_next_dot_agrees_with_the_reference(
        picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..20),
        words in proptest::collection::vec("[a-zA-Z0-9_\\-]{0,6}", 1..5),
        last in prop_oneof![Just(""), Just("."), Just(" ."), Just("é."), Just("x.")],
    ) {
        let mut text = String::new();
        for (k, &pick) in picks.iter().enumerate() {
            text.push_str(FRAGMENTS[pick]);
            text.push_str(&words[k % words.len()]);
        }
        text.push_str(last);
        check(&text)?;
    }
}

#[test]
fn skipping_to_the_next_dot_agrees_on_fixed_cases() {
    for text in [
        ".",
        "..",
        "a.",
        "no dots in this text at all",
        "ends in a bare dot .",
        "ends in a dot https://give.com.",
        "é.com",
        "claim é.give.com now",
        "日本.site/x and 😀www.drop.io",
        "€.€.com",
        "dot-free-run https://drop.io",
        "dotfreerunhttps://drop.io/a",
        "run_before/https://drop.io",
        "a b c d e f www.gift.fund",
        "path/only?x=1 then elon.live",
        "https://nodot then www.a.com",
        "x.y z",
        "first.invalidtld second.com",
        "é.",
    ] {
        check(text).unwrap();
    }
}
