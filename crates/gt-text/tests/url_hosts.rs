//! `extract_url_hosts` yields exactly the hosts `extract_urls` finds,
//! read back through `ExtractedUrl::host`, in the same order: mixed-case
//! hosts, ports, `www.` prefixes, schemes in any case, trailing
//! punctuation and dot-free text around them. A host already lowercase
//! in the text is borrowed from it.

use gt_text::{extract_url_hosts, extract_urls};
use proptest::prelude::*;
use std::borrow::Cow;

const HOSTS: &[&str] = &[
    "one.com",
    "Two.IO",
    "www.three.net",
    "WWW.Four.Live",
    "five.zz",
    "six.invalidtld",
    "-bad.com",
    "a.b.c.fund",
];

const PREFIXES: &[&str] = &[
    "", "https://", "http://", "HTTPS://", "hTtP://", "x", "www.",
];

const SUFFIXES: &[&str] = &[
    "",
    ":8443",
    ":",
    ":80x",
    "/claim?x=1",
    ":443/Path#Frag",
    ".",
    "!",
    ")",
    "?",
    "/",
];

const FILLER: &[&str] = &[
    " ",
    "\n",
    ", ",
    "(",
    "no-dots_here ",
    "é ",
    "日本 ",
    "a.",
    ". ",
];

fn check(text: &str) -> Result<(), TestCaseError> {
    let urls = extract_urls(text);
    let hosts: Vec<Cow<'_, str>> = extract_url_hosts(text).collect();
    prop_assert_eq!(
        hosts.iter().map(|h| h.as_ref()).collect::<Vec<_>>(),
        urls.iter().map(|u| u.host()).collect::<Vec<_>>(),
        "text {:?}",
        text
    );
    for (host, url) in hosts.iter().zip(&urls) {
        // The host as written: after the scheme's `//`, if it had one.
        let body = if url.had_scheme {
            url.start + text[url.start..].find("//").unwrap() + 2
        } else {
            url.start
        };
        let written = &text[body..body + host.len()];
        match host {
            Cow::Borrowed(h) => prop_assert_eq!(h.as_ptr(), written.as_ptr(), "borrowed in place"),
            Cow::Owned(_) => prop_assert!(
                written.bytes().any(|b| b.is_ascii_uppercase()),
                "{:?} is lowercase as written, so it should be borrowed",
                written
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hosts_agree_with_extract_urls(
        parts in proptest::collection::vec(
            (0..HOSTS.len(), 0..PREFIXES.len(), 0..SUFFIXES.len(), 0..FILLER.len()),
            0..6,
        ),
        words in "[a-zA-Z0-9 ]{0,12}",
    ) {
        let mut text = words;
        for (host, prefix, suffix, filler) in parts {
            text.push_str(PREFIXES[prefix]);
            text.push_str(HOSTS[host]);
            text.push_str(SUFFIXES[suffix]);
            text.push_str(FILLER[filler]);
        }
        check(&text)?;
    }

    #[test]
    fn dot_free_text_yields_no_host(text in "[^.]{0,40}") {
        prop_assert_eq!(extract_url_hosts(&text).count(), 0);
        check(&text)?;
    }

    #[test]
    fn arbitrary_text_agrees(text in ".{0,60}") {
        check(&text)?;
    }
}

#[test]
fn fixed_cases() {
    for text in [
        "",
        "no links here, just words.",
        "HTTPS://Big-Giveaway.COM/Path?X=1",
        "dev server https://site.com:8443/x and WWW.Ripple2x.NET/Go",
        "claim at Elon-Drop.LIVE! or www.give.fund/claim now.",
        "xhttps://Drop.COM/a _HTTP://Drop.io/a",
        "notwww.example.comtext a notwww.example.com b",
    ] {
        check(text).unwrap();
    }
    let hosts: Vec<Cow<'_, str>> =
        extract_url_hosts("see https://one.com:80/x and Two.IO").collect();
    assert!(matches!(&hosts[0], Cow::Borrowed("one.com")));
    assert!(matches!(&hosts[1], Cow::Owned(h) if h == "two.io"));
}
