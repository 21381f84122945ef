//! Text scanning for the measurement pipeline.
//!
//! The paper extracts three things from unstructured text:
//!
//! * **URLs** from chat messages and tweets ("via regular expressions");
//! * **cryptocurrency address candidates** from landing-page HTML (then
//!   validated with real checksum rules in `gt-addr`);
//! * **keyword matches** — coin names/tickers and the CryptoScamTracker
//!   keyword corpus — over tweet hashtags, stream titles, descriptions and
//!   page bodies.
//!
//! Keyword matching over hundreds of patterns and hundreds of thousands of
//! documents wants a real multi-pattern automaton, so this crate implements
//! Aho–Corasick from scratch ([`ac::AhoCorasick`]) and layers a
//! whole-word, case-insensitive [`keywords::KeywordSet`] on top.

pub mod ac;
pub mod keywords;
pub mod scan;
pub mod url;

pub use ac::AhoCorasick;
pub use keywords::KeywordSet;
pub use scan::{scan_address_candidates, AddressCandidate, CandidateKind};
pub use url::{extract_url_hosts, extract_urls, ExtractedUrl};
