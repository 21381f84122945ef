//! The livestream measurement pipeline (Section 3.2 and Appendix B).
//!
//! * [`keywords`] — the Table 3 search/validation keyword corpus;
//! * [`monitor`] — the YouTube monitoring loop: keyword search every 30
//!   minutes, stream/chat/viewer sampling every 7.5 minutes, two-second
//!   video recordings, QR and chat URL lead extraction, daily crawl
//!   revisits, and the 11 infrastructure outage days. Recordings are
//!   read through `YouTube::record_hits`, so each distinct QR overlay is
//!   scanned once per platform, not once per frame;
//! * [`twitch`] — the Twitch pilot: fetch all streams, filter by
//!   keywords minus the 16 noisy ones, drop game categories, record 20
//!   seconds (to outlast the ad roll), keep chat while live;
//! * [`pilot`] — QR-persistence tracking for flagged streams (how long
//!   a code stays on screen once first seen).

pub mod keywords;
pub mod monitor;
pub mod pilot;
pub mod twitch;

pub use keywords::{search_keyword_set, SearchKeywords};
pub use monitor::{Monitor, MonitorConfig, MonitorReport, ObservedStream, UrlLead, UrlSource};
pub use twitch::{run_twitch_pilot, TwitchPilotReport};
