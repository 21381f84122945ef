//! Search-keyword effectiveness (Appendix B.2 / Figure 5).
//!
//! For every stream the search returned: which search keywords appear
//! verbatim in its metadata (title + description)? Streams matching
//! multiple keywords split their credit evenly, as the paper does.
//! Keyword-less streams are split by an English-vs-not heuristic
//! (non-ASCII-dominant titles stand in for the paper's manual language
//! inspection).

use gt_store::{StoreDecode, StoreEncode};
use gt_stream::keywords::SearchKeywords;
use gt_stream::monitor::MonitorReport;
use serde::Serialize;

/// The Figure 5 data.
#[derive(Debug, Clone, PartialEq, Default, Serialize, StoreEncode, StoreDecode)]
pub struct KeywordContribution {
    /// Streams the search returned.
    pub streams: usize,
    /// Streams containing at least one search keyword verbatim.
    pub with_keyword: usize,
    /// Fractional credit per keyword, sorted descending.
    pub credits: Vec<(String, f64)>,
    /// Among keyword-less streams, how many look non-English.
    pub keywordless_non_english: usize,
    pub keywordless: usize,
}

impl KeywordContribution {
    /// Fraction of returned streams containing a keyword.
    pub fn keyword_rate(&self) -> f64 {
        self.with_keyword as f64 / self.streams.max(1) as f64
    }

    /// Share of total credit captured by the top `k` keywords.
    pub fn top_k_share(&self, k: usize) -> f64 {
        let total: f64 = self.credits.iter().map(|(_, c)| c).sum();
        if total == 0.0 {
            return 0.0;
        }
        let top: f64 = self.credits.iter().take(k).map(|(_, c)| c).sum();
        top / total
    }
}

/// Crude language heuristic: mostly-ASCII-alphabetic titles read as
/// English.
pub fn looks_english(text: &str) -> bool {
    let letters: Vec<char> = text.chars().filter(|c| c.is_alphabetic()).collect();
    if letters.is_empty() {
        return true;
    }
    let ascii = letters.iter().filter(|c| c.is_ascii()).count();
    ascii * 2 >= letters.len()
}

/// Compute keyword contribution over every stream in the report.
pub fn keyword_contribution(
    report: &MonitorReport,
    keywords: &SearchKeywords,
) -> KeywordContribution {
    let mut credits: Vec<f64> = vec![0.0; keywords.search_terms.len()];
    let mut with_keyword = 0usize;
    let mut keywordless = 0usize;
    let mut keywordless_non_english = 0usize;

    for obs in &report.streams {
        let meta = format!("{} {}", obs.title, obs.description);
        let matched = keywords.search.matching_keywords(&meta);
        if matched.is_empty() {
            keywordless += 1;
            if !looks_english(&obs.title) {
                keywordless_non_english += 1;
            }
        } else {
            with_keyword += 1;
            let share = 1.0 / matched.len() as f64;
            for idx in matched {
                credits[idx] += share;
            }
        }
    }

    let mut named: Vec<(String, f64)> = keywords
        .search_terms
        .iter()
        .cloned()
        .zip(credits)
        .filter(|(_, c)| *c > 0.0)
        .collect();
    named.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());

    KeywordContribution {
        streams: report.streams.len(),
        with_keyword,
        credits: named,
        keywordless_non_english,
        keywordless,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gt_sim::SimTime;
    use gt_social::{ChannelId, LiveStreamId};
    use gt_stream::keywords::search_keyword_set;
    use gt_stream::monitor::ObservedStream;

    fn obs(title: &str) -> ObservedStream {
        ObservedStream {
            stream: LiveStreamId(0),
            channel: ChannelId(0),
            title: title.into(),
            description: String::new(),
            channel_name: String::new(),
            channel_subscribers: 0,
            first_seen: SimTime(0),
            last_seen: SimTime(0),
            max_concurrent: 0,
            max_total_views: 0,
            chat_messages_seen: 0,
            samples: 0,
            qr_samples: 0,
            qr_first_seen: None,
            qr_last_seen: None,
        }
    }

    fn report(titles: &[&str]) -> MonitorReport {
        MonitorReport {
            streams: titles.iter().map(|t| obs(t)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn credits_split_evenly() {
        let kws = search_keyword_set();
        let r = report(&["bitcoin and ethereum giveaway by musk"]);
        let c = keyword_contribution(&r, &kws);
        assert_eq!(c.with_keyword, 1);
        let total: f64 = c.credits.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9, "one stream, one credit total");
        // bitcoin, ethereum, musk, give(away?) each get a share.
        assert!(c.credits.len() >= 3);
    }

    #[test]
    fn keywordless_streams_counted_and_language_checked() {
        let kws = search_keyword_set();
        let r = report(&["실시간 시장 분석", "cooking dinner live"]);
        let c = keyword_contribution(&r, &kws);
        assert_eq!(c.with_keyword, 0);
        assert_eq!(c.keywordless, 2);
        assert_eq!(c.keywordless_non_english, 1);
        assert_eq!(c.keyword_rate(), 0.0);
    }

    #[test]
    fn top_k_share_monotone() {
        let kws = search_keyword_set();
        let r = report(&[
            "bitcoin talk",
            "bitcoin news",
            "bitcoin price",
            "ethereum gas",
            "xrp ripple event",
        ]);
        let c = keyword_contribution(&r, &kws);
        assert!(c.top_k_share(1) <= c.top_k_share(3));
        assert!((c.top_k_share(100) - 1.0).abs() < 1e-9);
        assert!(c.top_k_share(1) >= 0.4, "bitcoin dominates");
    }

    #[test]
    fn english_heuristic() {
        assert!(looks_english("bitcoin price analysis"));
        assert!(!looks_english("실시간 시장 분석"));
        assert!(!looks_english("прямой эфир: обзор рынка"));
        assert!(looks_english("12345 !!!"));
    }
}
