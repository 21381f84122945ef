//! Every gated substrate endpoint admits a call before its body runs.
//! The gate's metric rows are the one record of a call. Under an outage
//! window on the endpoint's substrate, a call returns `Err` and the
//! gate records it as called and denied, with nothing served and no
//! records; after the window, a call is served, and its `records` row
//! is what the body returned (hits, messages, streams or body bytes).

use givetake::obs::MetricsRegistry;
use givetake::sim::{
    FaultKind, FaultPlan, FaultWindow, Gated, RetryPolicy, SimDuration, SimTime, Substrate,
};
use givetake::social::{
    ChatMessage, LiveStream, LiveStreamId, StreamVideo, Twitch, TwitchStream, TwitchStreamId,
    ViewerCurve, YouTube,
};
use givetake::text::KeywordSet;
use givetake::web::host::Request;
use givetake::web::{NetOrigin, ScamSiteSpec, Url, WebHost};

fn t(hours: i64) -> SimTime {
    SimTime::from_ymd(2023, 7, 24) + SimDuration::hours(hours)
}

/// Inside the outage window every fixture stream is live; `AFTER` is
/// past the window and still inside every stream.
const DURING: i64 = 2;
const AFTER: i64 = 6;

/// A plan whose only fault is an outage on `sub` over hours 1..4.
fn outage(sub: Substrate) -> FaultPlan {
    let mut plan = FaultPlan::quiet(1);
    let (start, end, kind) = (t(1), t(4), FaultKind::Outage);
    plan.schedules
        .insert(sub, vec![FaultWindow { start, end, kind }]);
    plan
}

/// Run `call` through a fresh gate over `plan`; return its result and
/// the gate's `calls`, `served`, `records` and `denied` rows for `sub`.
fn through_gate<T>(
    plan: &FaultPlan,
    sub: Substrate,
    call: impl FnOnce(&mut Gated<'_>) -> T,
) -> (T, [u64; 4]) {
    let registry = MetricsRegistry::new();
    let value = call(&mut Gated::new(
        Some(plan),
        "endpoint",
        RetryPolicy::default(),
        registry.sink("s"),
    ));
    let snapshot = registry.snapshot();
    let row = |metric| snapshot.counter("s", sub.label(), metric).unwrap_or(0);
    let rows = ["calls", "served", "records", "denied"];
    (value, rows.map(row))
}

/// Check one endpoint: `call(at, gate)` makes the call, `records(value)`
/// counts the records an admitted call returned.
fn check<T, E: std::fmt::Debug>(
    name: &str,
    sub: Substrate,
    call: impl Fn(SimTime, &mut Gated<'_>) -> Result<T, E>,
    records: impl Fn(&T) -> u64,
) {
    let plan = outage(sub);
    let (denied, rows) = through_gate(&plan, sub, |gate| call(t(DURING), gate));
    assert!(denied.is_err(), "{name}: a call in the outage is denied");
    assert_eq!(rows, [1, 0, 0, 1], "{name}: gate rows of a denied call");
    let (admitted, rows) = through_gate(&plan, sub, |gate| call(t(AFTER), gate));
    let value = admitted.unwrap_or_else(|e| panic!("{name}: served after the outage: {e:?}"));
    let n = records(&value);
    assert!(n > 0, "{name}: the fixture answers with a record");
    assert_eq!(rows, [1, 1, n, 0], "{name}: gate rows of an admitted call");
}

fn chat() -> Vec<ChatMessage> {
    vec![ChatMessage {
        time: t(0) + SimDuration::minutes(30),
        author: "mod".into(),
        text: "giveaway at https://btc-x2.fund".into(),
    }]
}

fn viewers() -> ViewerCurve {
    ViewerCurve {
        peak_concurrent: 50,
        total_views: 900,
    }
}

#[test]
fn youtube_denied_calls_reach_no_body() {
    let mut yt = YouTube::new();
    let channel = yt.add_channel("Crypto Daily".into(), 20_000);
    let id = yt.add_stream(LiveStream {
        id: LiveStreamId(0),
        channel,
        title: "BTC giveaway LIVE".into(),
        description: String::new(),
        language: "en".into(),
        fuzzy_topics: vec![],
        start: t(0),
        end: t(8),
        video: StreamVideo::Benign,
        viewers: viewers(),
        chat: chat(),
    });
    let keywords = KeywordSet::new(["giveaway"]);
    check(
        "YouTube search",
        Substrate::YoutubeSearch,
        |at, gate| yt.search_live_gated(&keywords, at, gate),
        |hits| hits.len() as u64,
    );
    check(
        "YouTube details",
        Substrate::YoutubeDetails,
        |at, gate| yt.stream_details_gated(id, at, gate),
        |details| details.is_some() as u64,
    );
    check(
        "YouTube chat",
        Substrate::YoutubeChat,
        |at, gate| yt.chat_history_gated(id, at, gate),
        |messages| messages.len() as u64,
    );
}

#[test]
fn twitch_denied_calls_reach_no_body() {
    let mut tw = Twitch::new();
    let id = tw.add_stream(TwitchStream {
        id: TwitchStreamId(0),
        channel_name: "speedrunner99".into(),
        title: "casual runs".into(),
        tags: vec![],
        category: "Just Chatting".into(),
        start: t(0),
        end: t(8),
        video: StreamVideo::Benign,
        viewers: viewers(),
        chat: chat(),
    });
    check(
        "Twitch list",
        Substrate::TwitchList,
        |at, gate| tw.get_streams(at, gate),
        |streams| streams.len() as u64,
    );
    check(
        "Twitch chat",
        Substrate::TwitchChat,
        |at, gate| tw.chat_since(id, t(0), at, gate),
        |messages| messages.len() as u64,
    );
}

#[test]
fn web_denied_fetches_reach_no_body() {
    let mut web = WebHost::new();
    web.add_scam_site(ScamSiteSpec {
        domain: "btc-x2.fund".into(),
        landing_html: "<html>Send BTC</html>".into(),
        front_html: String::new(),
        cloaking: Default::default(),
        online_from: t(0),
        offline_from: None,
    });
    let request = Request {
        url: Url::parse("https://btc-x2.fund/").unwrap(),
        origin: NetOrigin::Residential,
        user_agent: "Mozilla/5.0".into(),
        interacted: false,
        solves_challenge: false,
    };
    check(
        "web fetch",
        Substrate::WebFetch,
        |at, gate| web.fetch(&request, at, gate),
        |response| response.body.len() as u64,
    );
}
