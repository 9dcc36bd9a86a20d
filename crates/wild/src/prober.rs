//! The QScanner-like prober: one QUIC handshake observation per domain.
//!
//! The prober synthesizes the wire-level observables of a handshake —
//! arrival times of the first ACK and the ServerHello, the ack-delay
//! fields — from the domain's CDN profile, then classifies them exactly
//! the way the paper's pipeline does (ACK preceding the SH in a separate
//! datagram ⇒ instant ACK; same datagram ⇒ coalesced).
//!
//! A probe has two stages, split where the paper's pipeline splits:
//!
//! * [`classify`] consumes the probe's whole RNG stream and decides
//!   everything Table 1 counts — reachable or not, handshake lost or
//!   not, instant ACK or coalesced, ticket, 0-RTT, migration. Each
//!   normal variate the timings are made of is drawn here but kept
//!   untransformed ([`NormalDraw`]), so the draw order is written once.
//! * [`ProbeClass::timings`] turns the kept draws into the five `*_ms`
//!   fields of a [`ProbeObservation`]: log-normal arithmetic only, no
//!   RNG access.
//!
//! [`probe`] is the first followed by the second. The scan asks for
//! timings only on the measurement whose CDFs are read (see
//! [`crate::scan`]); the other measurements pay for no `ln`/`exp`.

use rq_sim::{NormalDraw, SimRng};

use crate::cdn::{profile_of, Cdn};
use crate::population::Domain;
use crate::vantage::Vantage;

/// The classified outcome of probing one domain once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeObservation {
    /// CDN serving the domain.
    pub cdn: Cdn,
    /// The handshake succeeded and the first ACK was captured.
    pub handshake_ok: bool,
    /// The first ACK arrived in its own datagram before the SH.
    pub instant_ack: bool,
    /// Delay between the first ACK and the ServerHello in ms
    /// (0.0 for coalesced ACK–SH, Figure 8's convention).
    pub ack_sh_delay_ms: f64,
    /// Measured client-frontend RTT in ms.
    pub rtt_ms: f64,
    /// The ack-delay field of the first ACK, in ms.
    pub ack_delay_field_ms: f64,
    /// Time from ClientHello to the first ACK, in ms.
    pub time_to_ack_ms: f64,
    /// Time from ClientHello to the ServerHello, in ms.
    pub time_to_sh_ms: f64,
    /// The server issued a NewSessionTicket (resumption supported).
    pub ticket_offered: bool,
    /// The deployment additionally accepts 0-RTT early data.
    pub zero_rtt_accepted: bool,
    /// Advertised ticket lifetime in seconds (0.0 without a ticket).
    pub ticket_lifetime_s: f64,
    /// The deployment supports connection migration (spare CIDs, no
    /// `disable_active_migration` transport parameter).
    pub migration_capable: bool,
}

impl ProbeObservation {
    /// Figure 10's x-axis: client-frontend RTT minus the ack-delay field.
    pub fn rtt_minus_ack_delay_ms(&self) -> f64 {
        self.rtt_ms - self.ack_delay_field_ms
    }
}

/// Loss probability applied to probe handshakes (the paper filters out
/// responses missing the first ACK).
const PROBE_LOSS: f64 = 0.005;

/// The RNG for probing one domain once: a pure function of
/// `(scan_seed, vantage, repetition, domain index)`.
///
/// Every probe draws from its own derived stream instead of advancing a
/// shared one, so an observation does not depend on how many domains
/// were probed before it — the scan can be sharded arbitrarily and
/// still produce byte-identical results at any thread count.
pub fn probe_rng(scan_seed: u64, vantage: Vantage, rep: u64, domain_index: usize) -> SimRng {
    SimRng::derive(
        scan_seed,
        &[vantage.index() as u64, rep, domain_index as u64],
    )
}

/// What one probe established without any timing arithmetic: the
/// response class and the per-deployment facts Table 1 counts, plus the
/// untransformed draws [`ProbeClass::timings`] needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeClass {
    /// CDN serving the domain.
    pub cdn: Cdn,
    /// The handshake succeeded and the first ACK was captured.
    pub handshake_ok: bool,
    /// The first ACK arrived in its own datagram before the SH.
    pub instant_ack: bool,
    /// The server issued a NewSessionTicket.
    pub ticket_offered: bool,
    /// The deployment additionally accepts 0-RTT early data.
    pub zero_rtt_accepted: bool,
    /// The deployment supports connection migration.
    pub migration_capable: bool,
    /// `Some` exactly when `handshake_ok`.
    kept: Option<KeptDraws>,
}

/// The inputs of a successful handshake's timings.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KeptDraws {
    vantage: Vantage,
    /// The deployment's IACK setting on this measurement (after churn).
    iack_enabled: bool,
    delta_t_scale: f64,
    ticket_lifetime_s: f64,
    rtt: NormalDraw,
    delta_t: NormalDraw,
    /// Stack processing before the instant ACK; `Some` exactly when
    /// `instant_ack`.
    stack: Option<NormalDraw>,
    ack_delay: NormalDraw,
}

/// Stage one of [`probe`]: every draw of the probe's stream, in order,
/// and every decision that depends on one. `None` when the domain does
/// not answer QUIC from `vantage`.
pub fn classify(domain: &Domain, vantage: Vantage, mut rng: SimRng) -> Option<ProbeClass> {
    let cdn = domain.cdn?;
    let profile = profile_of(cdn);
    // Per-epoch deployment churn: a domain's IACK setting can differ
    // between days/vantage points (Table 1's "Variation" column).
    let mut iack_enabled = domain.iack_enabled;
    if profile.iack_share_jitter > 0.0 {
        let flip = rng.gen_bool(profile.iack_share_jitter);
        if flip {
            iack_enabled = !iack_enabled;
        }
    }
    // Reachability quirk (Google from non-Sao-Paulo vantage points).
    if iack_enabled && !profile.reachable_from[vantage.index()] {
        return None;
    }
    if rng.gen_bool(PROBE_LOSS) {
        return Some(ProbeClass {
            cdn,
            handshake_ok: false,
            instant_ack: false,
            ticket_offered: false,
            zero_rtt_accepted: false,
            migration_capable: false,
            kept: None,
        });
    }

    let rtt = rng.draw_normal();
    // Frontend-to-store delay for this handshake.
    let delta_t = rng.draw_normal();
    // Certificate cache hit ⇒ coalesced ACK–SH regardless of IACK config.
    let coalesced = !iack_enabled || rng.gen_bool(profile.coalesced_share);
    let stack = (!coalesced).then(|| rng.draw_normal());
    let ack_delay = rng.draw_normal();

    // Resumption observables are per-domain deployment facts read off
    // the completed handshake (ticket in the server's post-handshake
    // flight) — deliberately no extra RNG draws, so every pre-resumption
    // observable above keeps its exact value.
    Some(ProbeClass {
        cdn,
        handshake_ok: true,
        instant_ack: !coalesced,
        ticket_offered: domain.resumption_supported,
        zero_rtt_accepted: domain.zero_rtt_enabled,
        migration_capable: domain.migration_supported,
        kept: Some(KeptDraws {
            vantage,
            iack_enabled,
            delta_t_scale: domain.delta_t_scale,
            ticket_lifetime_s: domain.ticket_lifetime_s,
            rtt,
            delta_t,
            stack,
            ack_delay,
        }),
    })
}

impl ProbeClass {
    /// Stage two of [`probe`]: the full observation, its timing fields
    /// computed from the draws [`classify`] kept.
    pub fn timings(&self) -> ProbeObservation {
        let cdn = self.cdn;
        let Some(kept) = &self.kept else {
            return ProbeObservation {
                cdn,
                handshake_ok: false,
                instant_ack: false,
                ack_sh_delay_ms: 0.0,
                rtt_ms: 0.0,
                ack_delay_field_ms: 0.0,
                time_to_ack_ms: 0.0,
                time_to_sh_ms: 0.0,
                ticket_offered: false,
                zero_rtt_accepted: false,
                ticket_lifetime_s: 0.0,
                migration_capable: false,
            };
        };
        let profile = profile_of(cdn);
        let rtt = kept
            .rtt
            .lognormal(kept.vantage.rtt_median_ms(cdn), 0.25)
            .max(0.5);
        let delta_t = kept
            .delta_t
            .lognormal(
                profile.ack_sh_delay_median_ms * kept.delta_t_scale,
                profile.ack_sh_delay_sigma,
            )
            .max(0.05);

        let (ack_sh_delay, time_to_ack, time_to_sh, ack_delay_field) = match kept.stack {
            None => {
                let t = rtt + if kept.iack_enabled { 0.0 } else { delta_t };
                let factor = profile.coalesced_ack_delay_rtt_factor;
                (0.0, t, t, rtt * kept.ack_delay.lognormal(factor, 0.3))
            }
            Some(stack) => {
                let t_ack = rtt + stack.lognormal(0.3, 0.5); // stack processing
                let t_sh = t_ack + delta_t;
                let factor = profile.iack_ack_delay_rtt_factor;
                let field = rtt * kept.ack_delay.lognormal(factor, 0.3);
                (t_sh - t_ack, t_ack, t_sh, field)
            }
        };

        ProbeObservation {
            cdn,
            handshake_ok: true,
            instant_ack: self.instant_ack,
            ack_sh_delay_ms: ack_sh_delay,
            rtt_ms: rtt,
            ack_delay_field_ms: ack_delay_field,
            time_to_ack_ms: time_to_ack,
            time_to_sh_ms: time_to_sh,
            ticket_offered: self.ticket_offered,
            zero_rtt_accepted: self.zero_rtt_accepted,
            ticket_lifetime_s: kept.ticket_lifetime_s,
            migration_capable: self.migration_capable,
        }
    }
}

/// Probes `domain` from `vantage`, consuming a derived per-probe RNG
/// (see [`probe_rng`]). Day-to-day deployment jitter comes from the
/// repetition coordinate baked into that stream.
pub fn probe(domain: &Domain, vantage: Vantage, rng: SimRng) -> Option<ProbeObservation> {
    classify(domain, vantage, rng).map(|class| class.timings())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;

    fn sample_domain(cdn: Cdn, iack: bool) -> Domain {
        Domain {
            cdn: Some(cdn),
            iack_enabled: iack,
            delta_t_scale: 1.0,
            resumption_supported: true,
            zero_rtt_enabled: true,
            ticket_lifetime_s: 7200.0,
            migration_supported: true,
        }
    }

    #[test]
    fn non_quic_domain_yields_none() {
        let d = Domain {
            cdn: None,
            iack_enabled: false,
            delta_t_scale: 1.0,
            resumption_supported: false,
            zero_rtt_enabled: false,
            ticket_lifetime_s: 0.0,
            migration_supported: false,
        };
        assert!(probe(&d, Vantage::Hamburg, SimRng::new(1)).is_none());
    }

    #[test]
    fn iack_domains_mostly_show_instant_acks() {
        let d = sample_domain(Cdn::Cloudflare, true);
        let mut iack = 0;
        let mut ok = 0;
        for i in 0..1000 {
            let rng = probe_rng(2, Vantage::SaoPaulo, 0, i);
            if let Some(obs) = probe(&d, Vantage::SaoPaulo, rng) {
                if obs.handshake_ok {
                    ok += 1;
                    if obs.instant_ack {
                        iack += 1;
                    }
                }
            }
        }
        let share = iack as f64 / ok as f64;
        assert!(share > 0.9, "share {share}");
    }

    #[test]
    fn wfc_domains_never_show_instant_acks() {
        let d = sample_domain(Cdn::Meta, false);
        for i in 0..200 {
            let rng = probe_rng(3, Vantage::Hamburg, 0, i);
            if let Some(obs) = probe(&d, Vantage::Hamburg, rng) {
                if obs.handshake_ok {
                    assert!(!obs.instant_ack);
                    assert_eq!(obs.ack_sh_delay_ms, 0.0);
                }
            }
        }
    }

    #[test]
    fn instant_ack_precedes_sh() {
        let d = sample_domain(Cdn::Cloudflare, true);
        for i in 0..500 {
            let rng = probe_rng(4, Vantage::SaoPaulo, 0, i);
            if let Some(obs) = probe(&d, Vantage::SaoPaulo, rng) {
                if obs.handshake_ok && obs.instant_ack {
                    assert!(obs.time_to_ack_ms < obs.time_to_sh_ms);
                    assert!(obs.ack_sh_delay_ms > 0.0);
                }
            }
        }
    }

    #[test]
    fn google_unreachable_from_hamburg_when_iack() {
        let d = sample_domain(Cdn::Google, true);
        assert!(probe(&d, Vantage::Hamburg, SimRng::new(5)).is_none());
        // With IACK disabled the domain is reachable.
        let d2 = sample_domain(Cdn::Google, false);
        let mut found = false;
        for i in 0..20 {
            let rng = probe_rng(5, Vantage::Hamburg, 0, i);
            if probe(&d2, Vantage::Hamburg, rng).is_some() {
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn resumption_observables_reflect_the_deployment() {
        let mut d = sample_domain(Cdn::Cloudflare, true);
        d.ticket_lifetime_s = 43_200.0;
        for i in 0..100 {
            let rng = probe_rng(8, Vantage::Hamburg, 0, i);
            let Some(obs) = probe(&d, Vantage::Hamburg, rng) else {
                continue;
            };
            if !obs.handshake_ok {
                assert!(!obs.ticket_offered && obs.ticket_lifetime_s == 0.0);
                continue;
            }
            assert!(obs.ticket_offered && obs.zero_rtt_accepted);
            assert_eq!(obs.ticket_lifetime_s, 43_200.0);
        }
        let mut no_res = sample_domain(Cdn::Meta, false);
        no_res.resumption_supported = false;
        no_res.zero_rtt_enabled = false;
        no_res.ticket_lifetime_s = 0.0;
        let rng = probe_rng(8, Vantage::Hamburg, 0, 1);
        let obs = probe(&no_res, Vantage::Hamburg, rng).unwrap();
        assert!(!obs.ticket_offered && !obs.zero_rtt_accepted);
    }

    #[test]
    fn observation_is_independent_of_probing_order() {
        // The bugfix this file exists for: a probe's outcome is a pure
        // function of (seed, vantage, rep, domain index), not of how
        // many domains were probed before it.
        let pop = Population::synthesize(500, &mut SimRng::new(6));
        let in_order: Vec<Option<ProbeObservation>> = pop
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| probe(d, Vantage::SaoPaulo, probe_rng(7, Vantage::SaoPaulo, 1, i)))
            .collect();
        // Visit the same domains back to front: identical observations.
        for (i, d) in pop.domains.iter().enumerate().rev() {
            let obs = probe(d, Vantage::SaoPaulo, probe_rng(7, Vantage::SaoPaulo, 1, i));
            assert_eq!(obs, in_order[i], "domain {i}");
        }
    }
}
