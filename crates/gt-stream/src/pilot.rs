//! QR-persistence measurement (Appendix B).
//!
//! During the pilot the authors kept recording 41 flagged streams after
//! first detecting a QR code, to learn how long codes stay on screen —
//! the observation that justified two-second samples every 7.5 minutes.
//! This module computes the same statistics from a monitoring report.

use crate::monitor::{MonitorReport, ObservedStream, SAMPLE_INTERVAL};

/// Per-stream persistence of the QR overlay, as the pipeline saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct QrPersistence {
    pub stream: gt_social::LiveStreamId,
    /// Seconds between the first and last sample showing a QR (plus one
    /// sampling interval, since visibility extends past the last
    /// sample).
    pub visible_seconds: i64,
    /// Whether every sample of the stream showed the QR (continuous).
    pub continuous: bool,
}

/// Summary statistics over the flagged streams.
#[derive(Debug, Clone, PartialEq)]
pub struct QrPilotStats {
    pub tracked: usize,
    pub mean_seconds: f64,
    pub median_seconds: f64,
    /// Streams where the QR appeared only intermittently.
    pub intermittent: usize,
}

fn persistence(obs: &ObservedStream) -> Option<QrPersistence> {
    let first = obs.qr_first_seen?;
    let last = obs.qr_last_seen?;
    let visible = (last - first).as_seconds() + SAMPLE_INTERVAL.as_seconds();
    Some(QrPersistence {
        stream: obs.stream,
        visible_seconds: visible,
        continuous: obs.qr_samples == obs.samples,
    })
}

/// Compute QR persistence for every stream in the report that showed a
/// QR at least once.
pub fn qr_persistence(report: &MonitorReport) -> Vec<QrPersistence> {
    report.streams.iter().filter_map(persistence).collect()
}

/// Aggregate the pilot statistics.
pub fn qr_stats(persistences: &[QrPersistence]) -> Option<QrPilotStats> {
    if persistences.is_empty() {
        return None;
    }
    let mut secs: Vec<i64> = persistences.iter().map(|p| p.visible_seconds).collect();
    secs.sort_unstable();
    let mean = secs.iter().sum::<i64>() as f64 / secs.len() as f64;
    let median = if secs.len() % 2 == 1 {
        secs[secs.len() / 2] as f64
    } else {
        (secs[secs.len() / 2 - 1] + secs[secs.len() / 2]) as f64 / 2.0
    };
    Some(QrPilotStats {
        tracked: persistences.len(),
        mean_seconds: mean,
        median_seconds: median,
        intermittent: persistences.iter().filter(|p| !p.continuous).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::ObservedStream;
    use gt_sim::SimTime;
    use gt_social::{ChannelId, LiveStreamId};

    fn obs(samples: usize, qr_samples: usize, first: i64, last: i64) -> ObservedStream {
        ObservedStream {
            stream: LiveStreamId(0),
            channel: ChannelId(0),
            title: String::new(),
            description: String::new(),
            channel_name: String::new(),
            channel_subscribers: 0,
            first_seen: SimTime(0),
            last_seen: SimTime(last),
            max_concurrent: 0,
            max_total_views: 0,
            chat_messages_seen: 0,
            samples,
            qr_samples,
            qr_first_seen: (qr_samples > 0).then_some(SimTime(first)),
            qr_last_seen: (qr_samples > 0).then_some(SimTime(last)),
        }
    }

    #[test]
    fn continuous_qr_measured_over_span() {
        let p = persistence(&obs(10, 10, 0, 4_050)).unwrap();
        assert_eq!(p.visible_seconds, 4_500);
        assert!(p.continuous);
    }

    #[test]
    fn intermittent_qr_flagged() {
        let p = persistence(&obs(10, 3, 0, 4_050)).unwrap();
        assert!(!p.continuous);
    }

    #[test]
    fn no_qr_no_persistence() {
        assert!(persistence(&obs(10, 0, 0, 0)).is_none());
    }

    #[test]
    fn stats_mean_median() {
        let ps = vec![
            QrPersistence {
                stream: LiveStreamId(0),
                visible_seconds: 1_000,
                continuous: true,
            },
            QrPersistence {
                stream: LiveStreamId(1),
                visible_seconds: 3_000,
                continuous: true,
            },
            QrPersistence {
                stream: LiveStreamId(2),
                visible_seconds: 14_000,
                continuous: false,
            },
        ];
        let stats = qr_stats(&ps).unwrap();
        assert_eq!(stats.tracked, 3);
        assert_eq!(stats.median_seconds, 3_000.0);
        assert_eq!(stats.mean_seconds, 6_000.0);
        assert_eq!(stats.intermittent, 1);
        assert!(qr_stats(&[]).is_none());
    }
}
