//! Whole-word, case-insensitive keyword matching.
//!
//! Coin tagging in the paper matches names and ticker symbols ("btc",
//! "eth", "usd coin") against tweet hashtags and stream metadata. Ticker
//! symbols are short, so substring matching would tag "methane" as ETH;
//! matches must land on word boundaries. Multi-word phrases match across
//! single spaces.

use crate::ac::AhoCorasick;
use serde::Serialize;

/// A set of keywords with whole-word semantics.
#[derive(Debug)]
pub struct KeywordSet {
    automaton: AhoCorasick,
    keywords: Vec<String>,
}

/// A whole-word keyword match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct KeywordMatch {
    /// Index into the keyword list.
    pub keyword: usize,
    pub start: usize,
    pub end: usize,
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric()
}

impl KeywordSet {
    /// Build from keyword strings. Keywords are matched ASCII
    /// case-insensitively on word boundaries.
    pub fn new<I, S>(keywords: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let keywords: Vec<String> = keywords.into_iter().map(Into::into).collect();
        assert!(!keywords.is_empty(), "keyword set must be non-empty");
        for kw in &keywords {
            assert!(!kw.is_empty(), "keywords must be non-empty");
        }
        let automaton = AhoCorasick::new_case_insensitive(keywords.iter().map(|k| k.as_bytes()));
        KeywordSet {
            automaton,
            keywords,
        }
    }

    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// The keyword string at `index`.
    pub fn keyword(&self, index: usize) -> &str {
        &self.keywords[index]
    }

    /// All whole-word matches in `text`.
    pub fn find_all(&self, text: &str) -> Vec<KeywordMatch> {
        self.whole_words(text).collect()
    }

    /// The whole-word matches in `text`, found as the automaton's walk
    /// reaches them.
    fn whole_words<'a>(&'a self, text: &'a str) -> impl Iterator<Item = KeywordMatch> + 'a {
        let bytes = text.as_bytes();
        self.automaton
            .find_iter(bytes)
            .filter(move |m| {
                let left_ok = m.start == 0 || !is_word_byte(bytes[m.start - 1]);
                let right_ok = m.end == bytes.len() || !is_word_byte(bytes[m.end]);
                left_ok && right_ok
            })
            .map(|m| KeywordMatch {
                keyword: m.pattern,
                start: m.start,
                end: m.end,
            })
    }

    /// Whether any keyword occurs (whole-word) in `text`. Stops at the
    /// first whole-word match and allocates nothing.
    pub fn matches(&self, text: &str) -> bool {
        self.whole_words(text).next().is_some()
    }

    /// Distinct keyword indices occurring (whole-word) in `text`.
    pub fn matching_keywords(&self, text: &str) -> Vec<usize> {
        let mut seen = vec![false; self.keywords.len()];
        for m in self.whole_words(text) {
            seen[m.keyword] = true;
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_word_only() {
        let ks = KeywordSet::new(["eth", "btc"]);
        assert!(ks.matches("send eth now"));
        assert!(ks.matches("ETH giveaway"));
        assert!(!ks.matches("methane"), "eth inside a word must not match");
        assert!(!ks.matches("xbtc"), "btc with word prefix must not match");
        assert!(ks.matches("#btc"), "hash mark is a boundary");
        assert!(ks.matches("eth"));
    }

    #[test]
    fn multi_word_phrases() {
        let ks = KeywordSet::new(["usd coin", "shiba inu"]);
        assert!(ks.matches("the usd coin drop"));
        assert!(ks.matches("SHIBA INU giveaway!"));
        assert!(!ks.matches("usd coins"), "trailing 's' breaks the boundary");
        assert!(!ks.matches("usdcoin"), "no space means no phrase match");
    }

    #[test]
    fn punctuation_is_boundary() {
        let ks = KeywordSet::new(["xrp"]);
        for text in ["xrp!", "(xrp)", "xrp,btc", "$xrp", "xrp."] {
            assert!(ks.matches(text), "{text:?} should match");
        }
    }

    #[test]
    fn matching_keywords_dedupes_and_sorts() {
        let ks = KeywordSet::new(["btc", "bitcoin", "eth"]);
        let found = ks.matching_keywords("bitcoin btc bitcoin eth");
        assert_eq!(found, vec![0, 1, 2]);
    }

    #[test]
    fn keyword_accessor() {
        let ks = KeywordSet::new(["ripple", "xrp"]);
        assert_eq!(ks.len(), 2);
        assert_eq!(ks.keyword(1), "xrp");
    }

    #[test]
    fn match_positions_are_byte_offsets() {
        let ks = KeywordSet::new(["doge"]);
        let ms = ks.find_all("much doge wow doge");
        assert_eq!(ms.len(), 2);
        assert_eq!((ms[0].start, ms[0].end), (5, 9));
        assert_eq!((ms[1].start, ms[1].end), (14, 18));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_keyword() {
        let _ = KeywordSet::new([""]);
    }
}
