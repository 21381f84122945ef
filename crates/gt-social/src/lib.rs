//! Social-platform simulators: Twitter, YouTube, Twitch.
//!
//! The paper draws on three platform surfaces:
//!
//! * a **Twitter snapshot** (Google's crawl of public tweets) queried
//!   retrospectively for tweets containing known scam domains
//!   ([`twitter::TwitterSnapshot`]);
//! * the **YouTube Data API**: keyword search over livestreams, stream
//!   metadata (concurrent/total viewers), channel metadata (subscriber
//!   counts), chat history capped at 70 messages, and the stream video
//!   itself recorded via Streamlink ([`youtube::YouTube`]);
//! * the **Twitch Helix API**: list *all* live streams (no keyword
//!   filter), stream tags/categories, and a chat with **no** history —
//!   messages are only observable while the stream is live
//!   ([`twitch::Twitch`]).
//!
//! All state is generated up front by `gt-world`; queries are
//! parameterised by virtual time (`now`), which keeps monitoring runs
//! deterministic. The platforms keep no call counts: every monitored
//! call goes through a `gt_sim::faults::Gated` gate, whose metric rows
//! record it, so the pipeline's quota behaviour (poll cadences from the
//! paper) is audited from the run's telemetry.

mod overlay;
pub mod twitch;
pub mod twitter;
pub mod youtube;

pub use twitch::{Twitch, TwitchStream, TwitchStreamId};
pub use twitter::{Hashtags, TagsId, TextId, Tweet, TweetId, TwitterAccountId, TwitterSnapshot};
pub use youtube::{
    ChannelId, ChatMessage, LiveStream, LiveStreamId, StreamVideo, ViewerCurve, YouTube,
};
