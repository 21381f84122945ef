//! A small, strict URL type for the crawler.

use gt_store::{StoreDecode, StoreEncode};
use serde::Serialize;
use std::fmt;

/// A parsed http(s) URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, StoreEncode, StoreDecode)]
pub struct Url {
    pub https: bool,
    /// Lowercased host.
    pub host: String,
    pub port: Option<u16>,
    /// Always starts with '/'.
    pub path: String,
    pub query: Option<String>,
}

impl Url {
    /// Parse an absolute http(s) URL.
    pub fn parse(s: &str) -> Option<Url> {
        let (https, rest) = if let Some(r) = strip_prefix_ci(s, "https://") {
            (true, r)
        } else if let Some(r) = strip_prefix_ci(s, "http://") {
            (false, r)
        } else {
            return None;
        };
        let (authority, path_query) = match rest.find(['/', '?', '#']) {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        if authority.is_empty() {
            return None;
        }
        let (host_raw, port) = match authority.rsplit_once(':') {
            Some((h, p)) if p.bytes().all(|b| b.is_ascii_digit()) && !p.is_empty() => {
                (h, Some(p.parse::<u16>().ok()?))
            }
            _ => (authority, None),
        };
        let host = host_raw.to_ascii_lowercase();
        if host.is_empty() || !host.contains('.') {
            return None;
        }
        // Strip the fragment; split query.
        let path_query = path_query.split('#').next().unwrap_or("");
        let (path, query) = match path_query.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (path_query, None),
        };
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            path.to_string()
        };
        Some(Url {
            https,
            host,
            port,
            path,
            query,
        })
    }
}

fn strip_prefix_ci<'a>(s: &'a str, prefix: &str) -> Option<&'a str> {
    if s.len() >= prefix.len() && s[..prefix.len()].eq_ignore_ascii_case(prefix) {
        Some(&s[prefix.len()..])
    } else {
        None
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://", if self.https { "https" } else { "http" })?;
        f.write_str(&self.host)?;
        if let Some(p) = self.port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_scam_urls() {
        let u = Url::parse("https://musk-2x.com/claim?id=7#top").unwrap();
        assert!(u.https);
        assert_eq!(u.host, "musk-2x.com");
        assert_eq!(u.path, "/claim");
        assert_eq!(u.query.as_deref(), Some("id=7"));
        assert_eq!(u.port, None);
    }

    #[test]
    fn default_path_is_root() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.to_string(), "https://example.com/");
    }

    #[test]
    fn host_is_lowercased_scheme_case_insensitive() {
        let u = Url::parse("HTTPS://ELON-Gives.COM/Path").unwrap();
        assert_eq!(u.host, "elon-gives.com");
        assert_eq!(u.path, "/Path");
    }

    #[test]
    fn ports_parse() {
        let u = Url::parse("http://site.io:8080/x").unwrap();
        assert!(!u.https);
        assert_eq!(u.port, Some(8080));
        assert_eq!(u.to_string(), "http://site.io:8080/x");
    }

    #[test]
    fn rejects_non_http_and_garbage() {
        assert!(Url::parse("ftp://example.com").is_none());
        assert!(Url::parse("example.com").is_none());
        assert!(Url::parse("https://").is_none());
        assert!(Url::parse("https://nohost").is_none());
    }

    #[test]
    fn query_only_urls() {
        let u = Url::parse("https://a.io?x=1").unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.query.as_deref(), Some("x=1"));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "https://a.io/",
            "http://b.org/p?q=1",
            "https://c.net:444/deep/path",
        ] {
            assert_eq!(Url::parse(s).unwrap().to_string(), s);
        }
    }
}
