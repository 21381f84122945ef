//! Property tests for the text scanners: Aho–Corasick agrees with a
//! naive reference, URL extraction finds planted URLs, the address
//! scanner is faithful to the codecs, and `KeywordSet::matches` stops
//! early without changing its answer.

use gt_addr::{Address, AddressGenerator, Coin};
use gt_text::{extract_urls, scan_address_candidates, AhoCorasick, KeywordSet};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aho_corasick_agrees_with_naive_search(
        patterns in proptest::collection::vec("[a-c]{1,4}", 1..8),
        haystack in "[a-c]{0,60}",
    ) {
        let ac = AhoCorasick::new(patterns.iter().map(|p| p.as_bytes()));
        let mut expected = Vec::new();
        for (pi, pat) in patterns.iter().enumerate() {
            let mut start = 0;
            while let Some(pos) = haystack[start..].find(pat.as_str()) {
                expected.push((pi, start + pos));
                start += pos + 1;
            }
        }
        let mut actual: Vec<(usize, usize)> = ac
            .find_all(haystack.as_bytes())
            .into_iter()
            .map(|m| (m.pattern, m.start))
            .collect();
        actual.sort();
        expected.sort();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn planted_urls_are_always_extracted(
        prefix in "[a-z ]{0,30}",
        host in "[a-z]{3,10}",
        tld in prop_oneof![Just("com"), Just("net"), Just("live"), Just("fund")],
        path in "[a-z0-9]{0,10}",
        suffix in "[a-z ]{0,30}",
    ) {
        let url = if path.is_empty() {
            format!("https://{host}-x.{tld}")
        } else {
            format!("https://{host}-x.{tld}/{path}")
        };
        let text = format!("{prefix} {url} {suffix}");
        let found = extract_urls(&text);
        prop_assert!(
            found.iter().any(|u| u.url == url),
            "missing {url} in {text:?}: {found:?}"
        );
    }

    #[test]
    fn extraction_never_panics_on_arbitrary_text(text in "\\PC{0,200}") {
        let _ = extract_urls(&text);
        let _ = scan_address_candidates(&text);
    }

    #[test]
    fn generated_addresses_are_always_found_and_validated(seed in any::<u64>()) {
        let mut gen = AddressGenerator::new(rand::rngs::StdRng::seed_from_u64(seed));
        for coin in Coin::ALL {
            let address = gen.generate(coin);
            let text = format!("send your coins to {} right now", address.encode());
            let candidates = scan_address_candidates(&text);
            let validated: Vec<Address> = candidates
                .iter()
                .filter_map(|c| gt_addr::validate_any(&c.text))
                .collect();
            prop_assert!(
                validated.contains(&address),
                "{coin} address {} not recovered from text",
                address.encode()
            );
        }
    }

    #[test]
    fn keyword_set_matches_iff_find_all_finds(
        keywords in proptest::collection::vec("[a-c]{1,3} ?[a-c]{0,2}", 1..5),
        text in "[a-cA-C #]{0,40}",
    ) {
        // Words and phrases over a small alphabet, so matches, inner
        // (non-whole-word) hits and misses all occur.
        let ks = KeywordSet::new(keywords.iter().map(String::as_str));
        let found = ks.find_all(&text);
        prop_assert_eq!(ks.matches(&text), !found.is_empty(), "{:?} in {:?}", keywords, text);
    }

    #[test]
    fn keyword_set_whole_word_is_sound(
        words in proptest::collection::vec("[a-z]{2,8}", 1..6),
        keyword_idx in 0usize..6,
    ) {
        let keyword_idx = keyword_idx % words.len();
        let keyword = words[keyword_idx].clone();
        let ks = KeywordSet::new([keyword.clone()]);
        let text = words.join(" ");
        // The keyword is present as a whole word in the joined text.
        prop_assert!(ks.matches(&text), "{keyword} in {text}");
        // Gluing everything together must not match unless the keyword
        // happens to sit at a boundary of the glued string.
        let glued = words.concat();
        if glued != keyword
            && !(glued.starts_with(&keyword)
                 && keyword_idx == 0)
            && !(glued.ends_with(&keyword) && keyword_idx == words.len() - 1)
        {
            // Inner occurrences have word characters on both sides.
            if words.len() > 2 && keyword_idx != 0 && keyword_idx != words.len() - 1 {
                // Unless the keyword also occurs elsewhere with a
                // boundary, this must not match. Check containment of
                // the keyword at positions with boundaries:
                let ok = !ks.matches(&glued);
                // The keyword could coincidentally appear at the glued
                // string's edges via other words; tolerate that.
                let edge = glued.starts_with(&keyword) || glued.ends_with(&keyword);
                prop_assert!(ok || edge, "inner keyword matched in {glued}");
            }
        }
    }
}
