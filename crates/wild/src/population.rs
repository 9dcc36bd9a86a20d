//! The synthetic Tranco-like domain population.

use rq_sim::SimRng;

use crate::cdn::{profile_of, profiles, Cdn};

/// One domain in the population. Its toplist rank is its position in
/// [`Population::domains`] plus one and is not stored.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Hosting CDN, if the domain resolved to a known AS and speaks QUIC.
    pub cdn: Option<Cdn>,
    /// Whether this domain's deployment has instant ACK enabled (drawn
    /// once per domain; per-measurement flips model operator churn).
    pub iack_enabled: bool,
    /// Per-domain Δt scale factor (deployment-specific backend distance).
    pub delta_t_scale: f64,
    /// Deployment issues session tickets (TLS 1.3 resumption support).
    pub resumption_supported: bool,
    /// Deployment additionally accepts 0-RTT early data on resumption.
    pub zero_rtt_enabled: bool,
    /// Advertised NewSessionTicket lifetime in seconds (0 when tickets
    /// are not offered).
    pub ticket_lifetime_s: f64,
    /// Deployment supports connection migration: spare CIDs issued, no
    /// `disable_active_migration` transport parameter.
    pub migration_supported: bool,
}

// A million of these are held for a whole scan: 24 bytes each, 32 with
// a stored rank.
const _: () = assert!(std::mem::size_of::<Domain>() <= 24);

/// The full scan population.
///
/// Domains are stored in rank order with `rank == position + 1`; the
/// sharded scan uses that invariant to key per-domain RNG streams and
/// the reachable-domain bitset by vector index.
#[derive(Debug)]
pub struct Population {
    /// All domains, rank order.
    pub domains: Vec<Domain>,
}

impl Population {
    /// Synthesizes a population of `total` domains with the paper's
    /// per-CDN counts scaled proportionally (Table 1 counts assume 1M).
    pub fn synthesize(total: usize, rng: &mut SimRng) -> Population {
        let scale = total as f64 / 1_000_000.0;
        let mut domains: Vec<Domain> = Vec::with_capacity(total);
        // Assign CDN blocks first, then fill with unreachable/non-QUIC.
        for profile in profiles() {
            let count = (profile.domains as f64 * scale).round() as usize;
            for _ in 0..count {
                let iack_enabled = rng.gen_bool(profile.iack_share);
                domains.push(Domain {
                    cdn: Some(profile.cdn),
                    iack_enabled,
                    delta_t_scale: rng.gen_lognormal(1.0, 0.4),
                    resumption_supported: false,
                    zero_rtt_enabled: false,
                    ticket_lifetime_s: 0.0,
                    migration_supported: false,
                });
            }
        }
        // The rest speak no QUIC and draw nothing (the CDN blocks above
        // are 28.9 % of `total`, give or take rounding).
        let no_quic = Domain {
            cdn: None, // no QUIC or unmapped AS
            iack_enabled: false,
            delta_t_scale: 1.0,
            resumption_supported: false,
            zero_rtt_enabled: false,
            ticket_lifetime_s: 0.0,
            migration_supported: false,
        };
        domains.resize(total, no_quic);
        rng.shuffle(&mut domains);
        // Resumption support and ticket lifetimes are drawn in a second,
        // forked pass so the original CDN/IACK/Δt stream — and with it
        // every pre-resumption scan number — stays byte-identical.
        let mut res_rng = rng.fork(0x5E55_104E);
        for d in &mut domains {
            let Some(cdn) = d.cdn else { continue };
            let p = profile_of(cdn);
            d.resumption_supported = res_rng.gen_bool(p.resumption_share);
            if d.resumption_supported {
                d.zero_rtt_enabled = res_rng.gen_bool(p.zero_rtt_share);
                d.ticket_lifetime_s = res_rng
                    .gen_lognormal(p.ticket_lifetime_median_s, p.ticket_lifetime_sigma)
                    .max(60.0);
            }
        }
        // Migration support is a third forked pass for the same reason:
        // the CDN/IACK/Δt and resumption streams keep every draw.
        let mut mig_rng = rng.fork(0x4D16_7A7E);
        for d in &mut domains {
            let Some(cdn) = d.cdn else { continue };
            d.migration_supported = mig_rng.gen_bool(profile_of(cdn).migration_share);
        }
        Population { domains }
    }

    /// Number of domains in the population.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Domains hosted by `cdn`.
    #[cfg(test)]
    pub(crate) fn hosted_by(&self, cdn: Cdn) -> impl Iterator<Item = &Domain> {
        self.domains.iter().filter(move |d| d.cdn == Some(cdn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_has_requested_size() {
        let mut rng = SimRng::new(1);
        let p = Population::synthesize(10_000, &mut rng);
        assert_eq!(p.domains.len(), 10_000);
    }

    #[test]
    fn cdn_counts_scale() {
        let mut rng = SimRng::new(2);
        let p = Population::synthesize(100_000, &mut rng);
        // Cloudflare: 247,407 per 1M → ~24,741 per 100k.
        let cf = p.hosted_by(Cdn::Cloudflare).count();
        assert!((24_000..=25_500).contains(&cf), "cloudflare {cf}");
        let meta = p.hosted_by(Cdn::Meta).count();
        assert!((5..=20).contains(&meta), "meta {meta}");
    }

    #[test]
    fn iack_shares_approximate_table1() {
        let mut rng = SimRng::new(3);
        let p = Population::synthesize(200_000, &mut rng);
        let cf: Vec<&Domain> = p.hosted_by(Cdn::Cloudflare).collect();
        let share = cf.iter().filter(|d| d.iack_enabled).count() as f64 / cf.len() as f64;
        assert!(share > 0.99, "cloudflare share {share}");
        let fastly: Vec<&Domain> = p.hosted_by(Cdn::Fastly).collect();
        assert!(fastly.iter().all(|d| !d.iack_enabled));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p1 = Population::synthesize(1000, &mut SimRng::new(9));
        let p2 = Population::synthesize(1000, &mut SimRng::new(9));
        for (a, b) in p1.domains.iter().zip(p2.domains.iter()) {
            assert_eq!(a.cdn, b.cdn);
            assert_eq!(a.iack_enabled, b.iack_enabled);
            assert_eq!(a.resumption_supported, b.resumption_supported);
            assert_eq!(a.zero_rtt_enabled, b.zero_rtt_enabled);
            assert_eq!(a.ticket_lifetime_s, b.ticket_lifetime_s);
            assert_eq!(a.migration_supported, b.migration_supported);
        }
    }

    #[test]
    fn migration_shares_follow_profiles() {
        let mut rng = SimRng::new(12);
        let p = Population::synthesize(200_000, &mut rng);
        let cf: Vec<&Domain> = p.hosted_by(Cdn::Cloudflare).collect();
        let mig = cf.iter().filter(|d| d.migration_supported).count() as f64 / cf.len() as f64;
        assert!((0.90..=0.96).contains(&mig), "cloudflare migration {mig}");
        let others: Vec<&Domain> = p.hosted_by(Cdn::Others).collect();
        let o =
            others.iter().filter(|d| d.migration_supported).count() as f64 / others.len() as f64;
        assert!(o < mig, "others {o} vs cloudflare {mig}");
        // Non-QUIC domains never support migration.
        assert!(p
            .domains
            .iter()
            .filter(|d| d.cdn.is_none())
            .all(|d| !d.migration_supported));
    }

    #[test]
    fn resumption_shares_follow_profiles() {
        let mut rng = SimRng::new(11);
        let p = Population::synthesize(200_000, &mut rng);
        let cf: Vec<&Domain> = p.hosted_by(Cdn::Cloudflare).collect();
        let res = cf.iter().filter(|d| d.resumption_supported).count() as f64 / cf.len() as f64;
        assert!(res > 0.97, "cloudflare resumption share {res}");
        let zrtt = cf.iter().filter(|d| d.zero_rtt_enabled).count() as f64 / cf.len() as f64;
        assert!(
            (0.80..=0.95).contains(&zrtt),
            "cloudflare 0-RTT share {zrtt}"
        );
        // Meta never enables 0-RTT; unreachable/non-QUIC domains never
        // support resumption at all.
        assert!(p.hosted_by(Cdn::Meta).all(|d| !d.zero_rtt_enabled));
        assert!(p
            .domains
            .iter()
            .filter(|d| d.cdn.is_none())
            .all(|d| !d.resumption_supported && d.ticket_lifetime_s == 0.0));
        // Supported domains advertise a positive, bounded lifetime.
        assert!(p
            .domains
            .iter()
            .filter(|d| d.resumption_supported)
            .all(|d| d.ticket_lifetime_s >= 60.0));
    }
}
