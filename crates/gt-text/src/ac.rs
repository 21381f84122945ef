//! Aho–Corasick multi-pattern string matching.
//!
//! Classic goto/fail automaton over bytes with BFS-computed failure links
//! and merged output sets. Supports case-insensitive matching by folding
//! ASCII at build and search time.

use std::collections::{HashMap, VecDeque};

/// A match reported by [`AhoCorasick::find_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern (in construction order).
    pub pattern: usize,
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

#[derive(Debug, Default)]
struct Node {
    next: HashMap<u8, u32>,
    fail: u32,
    /// Patterns ending at this node (after output-link merging).
    outputs: Vec<usize>,
}

/// An Aho–Corasick automaton over a fixed pattern set.
#[derive(Debug)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
    case_insensitive: bool,
}

impl AhoCorasick {
    /// Build a case-sensitive automaton.
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        Self::build(patterns, false)
    }

    /// Build an ASCII case-insensitive automaton.
    pub fn new_case_insensitive<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        Self::build(patterns, true)
    }

    fn build<I, P>(patterns: I, case_insensitive: bool) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let mut nodes = vec![Node::default()];
        let mut pattern_lens = Vec::new();

        // Goto function (trie).
        for (pat_idx, pattern) in patterns.into_iter().enumerate() {
            let bytes = pattern.as_ref();
            assert!(!bytes.is_empty(), "empty patterns are not allowed");
            pattern_lens.push(bytes.len());
            let mut cur = 0u32;
            for &raw in bytes {
                let b = if case_insensitive {
                    raw.to_ascii_lowercase()
                } else {
                    raw
                };
                let next_id = nodes.len() as u32;
                let entry = nodes[cur as usize].next.entry(b).or_insert(next_id);
                if *entry == next_id {
                    nodes.push(Node::default());
                }
                cur = nodes[cur as usize].next[&b];
            }
            nodes[cur as usize].outputs.push(pat_idx);
        }

        // Failure links by BFS, merging outputs along the way.
        let mut queue = VecDeque::new();
        let root_children: Vec<(u8, u32)> = nodes[0].next.iter().map(|(&b, &n)| (b, n)).collect();
        for (_, child) in &root_children {
            nodes[*child as usize].fail = 0;
            queue.push_back(*child);
        }
        while let Some(id) = queue.pop_front() {
            let transitions: Vec<(u8, u32)> = nodes[id as usize]
                .next
                .iter()
                .map(|(&b, &n)| (b, n))
                .collect();
            for (b, child) in transitions {
                // Follow fail links until a node with a b-transition (or root).
                let mut f = nodes[id as usize].fail;
                loop {
                    if let Some(&t) = nodes[f as usize].next.get(&b) {
                        if t != child {
                            nodes[child as usize].fail = t;
                        }
                        break;
                    }
                    if f == 0 {
                        nodes[child as usize].fail = 0;
                        break;
                    }
                    f = nodes[f as usize].fail;
                }
                let fail_outputs = nodes[nodes[child as usize].fail as usize].outputs.clone();
                nodes[child as usize].outputs.extend(fail_outputs);
                queue.push_back(child);
            }
        }

        AhoCorasick {
            nodes,
            pattern_lens,
            case_insensitive,
        }
    }

    fn step(&self, mut state: u32, raw: u8) -> u32 {
        let b = if self.case_insensitive {
            raw.to_ascii_lowercase()
        } else {
            raw
        };
        loop {
            if let Some(&next) = self.nodes[state as usize].next.get(&b) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.nodes[state as usize].fail;
        }
    }

    /// All (possibly overlapping) matches in `haystack`.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        self.find_iter(haystack).collect()
    }

    /// The matches of [`AhoCorasick::find_all`], in the same order,
    /// found as the walk over `haystack` reaches them: a caller that
    /// stops early leaves the rest of `haystack` unread.
    pub(crate) fn find_iter<'a>(&'a self, haystack: &'a [u8]) -> impl Iterator<Item = Match> + 'a {
        let mut state = 0u32;
        haystack.iter().enumerate().flat_map(move |(i, &b)| {
            state = self.step(state, b);
            self.nodes[state as usize]
                .outputs
                .iter()
                .map(move |&pat| Match {
                    pattern: pat,
                    start: i + 1 - self.pattern_lens[pat],
                    end: i + 1,
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distinct pattern indices that occur in `haystack`, ascending.
    fn matched(ac: &AhoCorasick, haystack: &[u8]) -> Vec<usize> {
        let mut found: Vec<usize> = ac.find_all(haystack).iter().map(|m| m.pattern).collect();
        found.sort_unstable();
        found.dedup();
        found
    }

    #[test]
    fn classic_he_she_his_hers() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let matches = ac.find_all(b"ushers");
        let found: Vec<(usize, usize, usize)> = matches
            .iter()
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        // "she" at 1..4, "he" at 2..4, "hers" at 2..6
        assert!(found.contains(&(1, 1, 4)));
        assert!(found.contains(&(0, 2, 4)));
        assert!(found.contains(&(3, 2, 6)));
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn overlapping_matches_all_reported() {
        let ac = AhoCorasick::new(["aa"]);
        let matches = ac.find_all(b"aaaa");
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn case_insensitive_matches_any_case() {
        let ac = AhoCorasick::new_case_insensitive(["Bitcoin", "ETH"]);
        assert_eq!(matched(&ac, b"BITCOIN giveaway"), [0]);
        assert_eq!(matched(&ac, b"send eth now"), [1]);
        assert!(matched(&ac, b"dogecoin").is_empty());
        assert_eq!(matched(&ac, b"bitcoin and eth and BiTcOiN"), [0, 1]);
    }

    #[test]
    fn case_sensitive_does_not_fold() {
        let ac = AhoCorasick::new(["BTC"]);
        assert!(ac.find_all(b"btc").is_empty());
        assert_eq!(matched(&ac, b"BTC"), [0]);
    }

    #[test]
    fn no_patterns_in_haystack() {
        let ac = AhoCorasick::new(["xyz"]);
        assert!(ac.find_all(b"aaabbbccc").is_empty());
        assert!(ac.find_all(b"").is_empty());
    }

    #[test]
    fn substring_patterns_both_fire() {
        let ac = AhoCorasick::new(["doge", "dogecoin"]);
        let matches = ac.find_all(b"dogecoin");
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn fail_links_cross_pattern_boundaries() {
        // After reading "ab" of pattern "abx", the suffix "b" should still
        // allow "bc" to match in "abc".
        let ac = AhoCorasick::new(["abx", "bc"]);
        let matches = ac.find_all(b"abc");
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].pattern, 1);
    }

    #[test]
    #[should_panic(expected = "empty patterns")]
    fn rejects_empty_pattern() {
        let _ = AhoCorasick::new([""]);
    }

    #[test]
    fn utf8_patterns_work_at_byte_level() {
        let ac = AhoCorasick::new(["héllo"]);
        assert_eq!(matched(&ac, "say héllo".as_bytes()), [0]);
    }

    #[test]
    fn large_pattern_set() {
        let patterns: Vec<String> = (0..500).map(|i| format!("kw{i:03}x")).collect();
        let ac = AhoCorasick::new(&patterns);
        let hay = "prefix kw042x middle kw499x suffix".as_bytes();
        assert_eq!(matched(&ac, hay), [42, 499]);
    }
}
