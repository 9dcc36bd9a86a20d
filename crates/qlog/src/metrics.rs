//! PTO reconstruction from event logs (paper §3: "To ensure consistency,
//! we calculate PTOs based on sent and received packets according to the
//! standard").

use crate::events::{EventData, EventLog};

/// A reconstructed PTO data point.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MetricsPoint {
    /// Event time in ms.
    pub time_ms: f64,
    /// Smoothed RTT in ms.
    pub smoothed_rtt_ms: f64,
    /// RTT variance in ms (reconstructed when not exposed).
    pub rtt_variance_ms: f64,
    /// PTO base = srtt + max(4*var, 1 ms), in ms.
    pub pto_ms: f64,
}

/// Builds the PTO series from a log's metrics updates.
///
/// When an implementation does not expose the RTT variance (Appendix E),
/// it is reconstructed from the exposed smoothed-RTT sequence with the
/// RFC 9002 recursion, seeding `var = srtt/2` at the first update — the
/// same fallback the paper applies ("we calculate it from the sent and
/// received packets instead").
fn pto_series(log: &EventLog) -> Vec<MetricsPoint> {
    let mut out = Vec::new();
    let mut recon_var: Option<f64> = None;
    let mut prev_srtt: Option<f64> = None;
    for (ev, srtt, var) in log.metrics_updates() {
        let latest = match &ev.data {
            EventData::MetricsUpdated { latest_rtt_ms, .. } => *latest_rtt_ms,
            _ => unreachable!(),
        };
        let variance = match var {
            Some(v) => v,
            None => {
                // Reconstruct per RFC 9002 §5.3 from the smoothed sequence.
                let v = match (recon_var, prev_srtt) {
                    (None, _) => latest / 2.0,
                    (Some(v), Some(ps)) => 0.75 * v + 0.25 * (ps - latest).abs(),
                    (Some(v), None) => v,
                };
                recon_var = Some(v);
                v
            }
        };
        prev_srtt = Some(srtt);
        out.push(MetricsPoint {
            time_ms: ev.time_ms,
            smoothed_rtt_ms: srtt,
            rtt_variance_ms: variance,
            pto_ms: srtt + (4.0 * variance).max(1.0),
        });
    }
    out
}

/// The first PTO value (ms) derivable from a log, i.e. the PTO right after
/// the first RTT sample — the quantity Figures 4 and 16 compare between
/// IACK and WFC.
pub fn first_pto_ms(log: &EventLog) -> Option<f64> {
    pto_series(log).first().map(|p| p.pto_ms)
}

/// Number of `recovery:packet_lost` declarations in a log — how often
/// loss recovery actually fired, the headline recovery-activity metric
/// for stochastic-impairment sweeps.
pub fn packets_lost(log: &EventLog) -> usize {
    log.events
        .iter()
        .filter(|e| matches!(e.data, EventData::PacketLost { .. }))
        .count()
}

/// Number of `recovery:loss_timer_updated` PTO expirations in a log.
pub fn pto_expirations(log: &EventLog) -> usize {
    log.events
        .iter()
        .filter(|e| matches!(e.data, EventData::PtoExpired { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventData;
    use rq_sim::{SimDuration, SimTime};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn push_update(log: &mut EventLog, ms: u64, srtt: f64, var: Option<f64>, latest: f64) {
        log.push(
            t(ms),
            EventData::MetricsUpdated {
                smoothed_rtt_ms: srtt,
                rtt_variance_ms: var,
                latest_rtt_ms: latest,
                pto_count: 0,
            },
        );
    }

    #[test]
    fn pto_from_exposed_variance() {
        let mut log = EventLog::new("c");
        push_update(&mut log, 9, 9.0, Some(4.5), 9.0);
        let series = pto_series(&log);
        assert_eq!(series.len(), 1);
        assert!(
            (series[0].pto_ms - 27.0).abs() < 1e-9,
            "first PTO = 3x sample"
        );
        assert_eq!(first_pto_ms(&log), Some(27.0));
    }

    #[test]
    fn pto_reconstructed_when_variance_hidden() {
        // neqo-style log: no variance exposed. First update: var = latest/2.
        let mut log = EventLog::new("c:neqo");
        push_update(&mut log, 9, 9.0, None, 9.0);
        push_update(&mut log, 18, 9.0, None, 9.0);
        let series = pto_series(&log);
        assert!((series[0].pto_ms - 27.0).abs() < 1e-9);
        // Second update: var = 0.75*4.5 + 0.25*|9-9| = 3.375 → pto 22.5.
        assert!((series[1].pto_ms - 22.5).abs() < 1e-9);
    }

    #[test]
    fn granularity_floor_applies() {
        let mut log = EventLog::new("c");
        push_update(&mut log, 1, 0.5, Some(0.05), 0.5);
        let series = pto_series(&log);
        assert!(
            (series[0].pto_ms - 1.5).abs() < 1e-9,
            "4*var < 1ms floors to 1ms"
        );
    }

    #[test]
    fn empty_log_has_no_pto() {
        let log = EventLog::new("c");
        assert_eq!(first_pto_ms(&log), None);
        assert!(pto_series(&log).is_empty());
    }

    #[test]
    fn recovery_event_counters() {
        use crate::events::SpaceName;
        let mut log = EventLog::new("c");
        assert_eq!(packets_lost(&log), 0);
        assert_eq!(pto_expirations(&log), 0);
        log.push(
            t(5),
            EventData::PacketLost {
                space: SpaceName::Initial,
                pn: 1,
            },
        );
        log.push(
            t(6),
            EventData::PtoExpired {
                space: SpaceName::Initial,
                pto_count: 1,
            },
        );
        log.push(
            t(9),
            EventData::PacketLost {
                space: SpaceName::ApplicationData,
                pn: 7,
            },
        );
        push_update(&mut log, 10, 9.0, None, 9.0);
        assert_eq!(packets_lost(&log), 2);
        assert_eq!(pto_expirations(&log), 1);
    }
}
