//! `probe` against the single-stage probe it was split from.
//!
//! `rq_wild::probe` is `classify` (every RNG draw, normal variates kept
//! as their two uniforms) followed by `timings` (the log-normal
//! arithmetic on the kept draws). `reference_probe` below is the body
//! `probe` had before the split, drawing and transforming in one pass;
//! the two must agree on every field, floats by bit pattern, because the
//! scan goldens and the benchmark's pins hash those bits.

use rq_sim::SimRng;
use rq_testkit::prop::cases;
use rq_wild::cdn::profile_of;
use rq_wild::prober::classify;
use rq_wild::{probe, probe_rng, Cdn, Domain, ProbeObservation, Vantage, VANTAGES};

const PROBE_LOSS: f64 = 0.005;

fn reference_probe(domain: &Domain, vantage: Vantage, mut rng: SimRng) -> Option<ProbeObservation> {
    let cdn = domain.cdn?;
    let profile = profile_of(cdn);
    let mut iack_enabled = domain.iack_enabled;
    if profile.iack_share_jitter > 0.0 {
        let flip = rng.gen_bool(profile.iack_share_jitter);
        if flip {
            iack_enabled = !iack_enabled;
        }
    }
    if iack_enabled && !profile.reachable_from[vantage.index()] {
        return None;
    }
    if rng.gen_bool(PROBE_LOSS) {
        return Some(ProbeObservation {
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
        });
    }

    let rtt = rng.gen_lognormal(vantage.rtt_median_ms(cdn), 0.25).max(0.5);
    let delta_t = rng
        .gen_lognormal(
            profile.ack_sh_delay_median_ms * domain.delta_t_scale,
            profile.ack_sh_delay_sigma,
        )
        .max(0.05);

    let coalesced = !iack_enabled || rng.gen_bool(profile.coalesced_share);

    let (instant_ack, ack_sh_delay, time_to_ack, time_to_sh, ack_delay_field) = if coalesced {
        let t = rtt + if iack_enabled { 0.0 } else { delta_t };
        let field = rtt * rng.gen_lognormal(profile.coalesced_ack_delay_rtt_factor, 0.3);
        (false, 0.0, t, t, field)
    } else {
        let t_ack = rtt + rng.gen_lognormal(0.3, 0.5);
        let t_sh = t_ack + delta_t;
        let field = rtt * rng.gen_lognormal(profile.iack_ack_delay_rtt_factor, 0.3);
        (true, t_sh - t_ack, t_ack, t_sh, field)
    };

    Some(ProbeObservation {
        cdn,
        handshake_ok: true,
        instant_ack,
        ack_sh_delay_ms: ack_sh_delay,
        rtt_ms: rtt,
        ack_delay_field_ms: ack_delay_field,
        time_to_ack_ms: time_to_ack,
        time_to_sh_ms: time_to_sh,
        ticket_offered: domain.resumption_supported,
        zero_rtt_accepted: domain.zero_rtt_enabled,
        ticket_lifetime_s: domain.ticket_lifetime_s,
        migration_capable: domain.migration_supported,
    })
}

/// Every field of an observation, floats as bit patterns.
fn bits(obs: &ProbeObservation) -> (Cdn, [bool; 5], [u64; 6]) {
    (
        obs.cdn,
        [
            obs.handshake_ok,
            obs.instant_ack,
            obs.ticket_offered,
            obs.zero_rtt_accepted,
            obs.migration_capable,
        ],
        [
            obs.ack_sh_delay_ms.to_bits(),
            obs.rtt_ms.to_bits(),
            obs.ack_delay_field_ms.to_bits(),
            obs.time_to_ack_ms.to_bits(),
            obs.time_to_sh_ms.to_bits(),
            obs.ticket_lifetime_s.to_bits(),
        ],
    )
}

fn domain(cdn: Cdn, iack_enabled: bool, delta_t_scale: f64, deployment: u8) -> Domain {
    let resumption_supported = deployment & 1 != 0;
    Domain {
        cdn: Some(cdn),
        iack_enabled,
        delta_t_scale,
        resumption_supported,
        zero_rtt_enabled: resumption_supported && deployment & 2 != 0,
        ticket_lifetime_s: if resumption_supported { 7200.0 } else { 0.0 },
        migration_supported: deployment & 4 != 0,
    }
}

/// Checks one probe three ways: `probe` against the reference on every
/// field, and `classify` against `probe` on `None`-ness and every
/// boolean. Returns the observation for branch-coverage counting.
fn check(
    d: &Domain,
    vantage: Vantage,
    seed: u64,
    rep: u64,
    index: usize,
) -> Option<ProbeObservation> {
    let rng = || probe_rng(seed, vantage, rep, index);
    let got = probe(d, vantage, rng());
    let want = reference_probe(d, vantage, rng());
    assert_eq!(
        got.as_ref().map(bits),
        want.as_ref().map(bits),
        "{d:?} from {vantage:?}, seed {seed} rep {rep} index {index}"
    );
    let class = classify(d, vantage, rng());
    assert_eq!(class.is_none(), got.is_none());
    if let (Some(c), Some(o)) = (class, got) {
        assert_eq!(
            (c.cdn, c.handshake_ok, c.instant_ack),
            (o.cdn, o.handshake_ok, o.instant_ack)
        );
        assert_eq!(
            (c.ticket_offered, c.zero_rtt_accepted, c.migration_capable),
            (o.ticket_offered, o.zero_rtt_accepted, o.migration_capable)
        );
        assert_eq!(bits(&c.timings()), bits(&o));
    }
    got
}

#[test]
fn probe_equals_the_single_stage_reference() {
    cases(256, |rng| {
        let seed = rng.next_u64();
        let vantage = VANTAGES[rng.gen_range(4) as usize];
        let rep = rng.gen_range(4);
        let index = rng.gen_range(1_000_000) as usize;
        let cdn = Cdn::ALL[rng.gen_range(8) as usize];
        let iack_enabled = rng.gen_bool(0.5);
        let scale_milli = 50 + rng.gen_range(7_950);
        let deployment = rng.gen_range(8) as u8;
        let d = domain(cdn, iack_enabled, scale_milli as f64 / 1000.0, deployment);
        // A run of neighbouring indices per case, so one case crosses
        // the coalesced/instant and (for jittered CDNs) flipped branches.
        for i in index..index + 32 {
            check(&d, vantage, seed, rep, i);
        }
    });
}

/// The three branches a uniform draw of inputs reaches rarely, each
/// reached for certain: unreachable Google, a lost probe, a jitter flip.
#[test]
fn rare_branches_agree_with_the_reference() {
    // Google with IACK answers only from Sao Paulo: `None` elsewhere,
    // after the jitter draw (some flips make it reachable again).
    let google = domain(Cdn::Google, true, 1.0, 7);
    let mut unreachable = 0;
    for i in 0..400 {
        if check(&google, Vantage::Hamburg, 3, 1, i).is_none() {
            unreachable += 1;
        }
        assert!(check(&google, Vantage::SaoPaulo, 3, 1, i).is_some());
    }
    assert!((300..400).contains(&unreachable), "{unreachable} of 400");

    // PROBE_LOSS is 0.5 %: 4,000 probes lose a handful.
    let cloudflare = domain(Cdn::Cloudflare, true, 0.8, 3);
    let lost = (0..4_000)
        .filter(|&i| {
            let obs = check(&cloudflare, Vantage::HongKong, 11, 0, i);
            !obs.expect("Cloudflare is reachable everywhere")
                .handshake_ok
        })
        .count();
    assert!((5..60).contains(&lost), "{lost} of 4000 lost");

    // Amazon flips 9 % of IACK settings per measurement: an IACK-less
    // domain then shows instant ACKs on some days.
    let amazon = domain(Cdn::Amazon, false, 1.7, 5);
    let flipped = (0..1_000)
        .filter(|&i| {
            let obs = check(&amazon, Vantage::LosAngeles, 5, 2, i);
            obs.is_some_and(|o| o.instant_ack)
        })
        .count();
    assert!((30..150).contains(&flipped), "{flipped} of 1000 flipped");
}
