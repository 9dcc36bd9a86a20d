//! CDN behaviour profiles, calibrated to the paper's observations.

/// The CDNs the paper distinguishes (Table 1 / Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cdn {
    /// Akamai (AS 16625, 20940).
    Akamai,
    /// Amazon (AS 14618, 16509).
    Amazon,
    /// Cloudflare (AS 13335, 209242).
    Cloudflare,
    /// Fastly (AS 54113).
    Fastly,
    /// Google (AS 15169, 396982).
    Google,
    /// Meta (AS 32934).
    Meta,
    /// Microsoft (AS 8075).
    Microsoft,
    /// Hosting services grouped as "Others".
    Others,
}

impl Cdn {
    /// All CDNs in the paper's table order.
    pub const ALL: [Cdn; 8] = [
        Cdn::Akamai,
        Cdn::Amazon,
        Cdn::Cloudflare,
        Cdn::Fastly,
        Cdn::Google,
        Cdn::Meta,
        Cdn::Microsoft,
        Cdn::Others,
    ];

    /// Index into per-CDN aggregate arrays and the profile table: the
    /// declaration order, which is also the position in [`Cdn::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Cdn::Akamai => "Akamai",
            Cdn::Amazon => "Amazon",
            Cdn::Cloudflare => "Cloudflare",
            Cdn::Fastly => "Fastly",
            Cdn::Google => "Google",
            Cdn::Meta => "Meta",
            Cdn::Microsoft => "Microsoft",
            Cdn::Others => "Others",
        }
    }
}

/// Behavioural calibration for one CDN.
///
/// All values trace to a specific paper observation; see the field docs.
#[derive(Debug, Clone)]
pub struct CdnProfile {
    /// Which CDN this describes.
    pub cdn: Cdn,
    /// QUIC-reachable domains in the Tranco Top-1M (Table 1 "Domains #").
    pub domains: usize,
    /// Fraction of those domains with instant ACK enabled (Table 1).
    pub iack_share: f64,
    /// Day-to-day / vantage-to-vantage jitter of the IACK share; Table 1's
    /// "Variation" column emerges from this.
    pub iack_share_jitter: f64,
    /// Median Δt between first ACK and ServerHello in ms (§4.3: 3.2 ms
    /// Cloudflare, 6.4 Amazon, 30.3 Google, 20.9 Akamai).
    pub ack_sh_delay_median_ms: f64,
    /// Log-normal sigma of the ACK→SH delay.
    pub ack_sh_delay_sigma: f64,
    /// Fraction of handshakes answered with a *coalesced* ACK–SH even when
    /// IACK is configured (certificate cache hits; Figure 8's 0-delay mass).
    pub coalesced_share: f64,
    /// Median of the ack-delay field in coalesced ACK–SH packets, as a
    /// multiple of the path RTT (Figure 10a: mostly ≈ or above 1.0).
    pub coalesced_ack_delay_rtt_factor: f64,
    /// Median of the ack-delay field in IACKs, as a multiple of the RTT
    /// (Figure 10b: above 1.0 except Akamai and Others).
    pub iack_ack_delay_rtt_factor: f64,
    /// Reachability per vantage index (Appendix G: Google IACK servers are
    /// only significantly reachable from Sao Paulo).
    pub reachable_from: [bool; 4],
    /// Share of deployments that issue session tickets (resumption
    /// support). Beyond the paper: modeled from public CDN TLS-1.3
    /// resumption behaviour, not measured by it.
    pub resumption_share: f64,
    /// Share of ticket-issuing deployments that also accept 0-RTT early
    /// data (e.g. Cloudflare enables it broadly, Meta keeps it off).
    pub zero_rtt_share: f64,
    /// Median advertised NewSessionTicket lifetime, seconds.
    pub ticket_lifetime_median_s: f64,
    /// Log-normal sigma of the advertised ticket lifetime.
    pub ticket_lifetime_sigma: f64,
    /// Share of deployments that support connection migration: they
    /// issue spare connection IDs and do not send the
    /// `disable_active_migration` transport parameter. Beyond the
    /// paper: modeled from public CDN QUIC stack behaviour.
    pub migration_share: f64,
}

/// Reachable from every vantage point.
const EVERYWHERE: [bool; 4] = [true; 4];

/// The calibrated profile set (paper Table 1, §4.3, Figure 10, App. G),
/// in [`Cdn`] declaration order so [`Cdn::index`] addresses it.
static PROFILES: [CdnProfile; Cdn::ALL.len()] = [
    CdnProfile {
        cdn: Cdn::Akamai,
        domains: 533,
        iack_share: 0.322,
        iack_share_jitter: 0.065,
        ack_sh_delay_median_ms: 20.9,
        ack_sh_delay_sigma: 0.9,
        coalesced_share: 0.05,
        coalesced_ack_delay_rtt_factor: 1.4,
        iack_ack_delay_rtt_factor: 0.7, // 61% below the RTT
        reachable_from: EVERYWHERE,
        resumption_share: 0.85,
        zero_rtt_share: 0.25,
        ticket_lifetime_median_s: 7200.0,
        ticket_lifetime_sigma: 0.6,
        migration_share: 0.62,
    },
    CdnProfile {
        cdn: Cdn::Amazon,
        domains: 4338,
        iack_share: 0.41,
        iack_share_jitter: 0.09,
        ack_sh_delay_median_ms: 6.4,
        ack_sh_delay_sigma: 0.8,
        coalesced_share: 0.10,
        coalesced_ack_delay_rtt_factor: 1.2,
        iack_ack_delay_rtt_factor: 1.3,
        reachable_from: EVERYWHERE,
        resumption_share: 0.8,
        zero_rtt_share: 0.15,
        ticket_lifetime_median_s: 43200.0,
        ticket_lifetime_sigma: 0.7,
        migration_share: 0.48,
    },
    CdnProfile {
        cdn: Cdn::Cloudflare,
        domains: 247_407,
        iack_share: 0.999,
        iack_share_jitter: 0.0005,
        ack_sh_delay_median_ms: 3.2,
        ack_sh_delay_sigma: 0.6,
        // One probe per domain per day rarely hits a warm frontend
        // cache; coalescing is popularity-driven (see `longitudinal`).
        coalesced_share: 0.002,
        coalesced_ack_delay_rtt_factor: 1.3,
        iack_ack_delay_rtt_factor: 1.4,
        reachable_from: EVERYWHERE,
        resumption_share: 0.99,
        zero_rtt_share: 0.88,
        ticket_lifetime_median_s: 64800.0,
        ticket_lifetime_sigma: 0.3,
        migration_share: 0.93,
    },
    CdnProfile {
        cdn: Cdn::Fastly,
        domains: 3960,
        iack_share: 0.0,
        iack_share_jitter: 0.0,
        ack_sh_delay_median_ms: 1.0,
        ack_sh_delay_sigma: 0.5,
        coalesced_share: 1.0,
        coalesced_ack_delay_rtt_factor: 0.9, // 60.5% exceed → close call
        iack_ack_delay_rtt_factor: 1.0,
        reachable_from: EVERYWHERE,
        resumption_share: 0.95,
        zero_rtt_share: 0.1,
        ticket_lifetime_median_s: 43200.0,
        ticket_lifetime_sigma: 0.5,
        migration_share: 0.71,
    },
    CdnProfile {
        cdn: Cdn::Google,
        domains: 6062,
        iack_share: 0.115,
        iack_share_jitter: 0.055,
        ack_sh_delay_median_ms: 30.3,
        ack_sh_delay_sigma: 0.9,
        coalesced_share: 0.15,
        coalesced_ack_delay_rtt_factor: 0.8, // only 34.8% exceed the RTT
        iack_ack_delay_rtt_factor: 1.2,
        // Google IACK deployments significantly reachable only from
        // Sao Paulo (vantage index 3).
        reachable_from: [false, false, false, true],
        resumption_share: 0.97,
        zero_rtt_share: 0.65,
        ticket_lifetime_median_s: 28800.0,
        ticket_lifetime_sigma: 0.4,
        migration_share: 0.96,
    },
    CdnProfile {
        cdn: Cdn::Meta,
        domains: 112,
        iack_share: 0.0,
        iack_share_jitter: 0.0,
        ack_sh_delay_median_ms: 1.0,
        ack_sh_delay_sigma: 0.4,
        coalesced_share: 1.0,
        coalesced_ack_delay_rtt_factor: 1.5, // 100% exceed
        iack_ack_delay_rtt_factor: 1.0,
        reachable_from: EVERYWHERE,
        resumption_share: 0.92,
        zero_rtt_share: 0.0,
        ticket_lifetime_median_s: 86400.0,
        ticket_lifetime_sigma: 0.3,
        migration_share: 0.88,
    },
    CdnProfile {
        cdn: Cdn::Microsoft,
        domains: 34,
        iack_share: 0.0,
        iack_share_jitter: 0.0,
        ack_sh_delay_median_ms: 1.5,
        ack_sh_delay_sigma: 0.4,
        coalesced_share: 1.0,
        coalesced_ack_delay_rtt_factor: 1.1,
        iack_ack_delay_rtt_factor: 1.0,
        reachable_from: EVERYWHERE,
        resumption_share: 0.75,
        zero_rtt_share: 0.05,
        ticket_lifetime_median_s: 36000.0,
        ticket_lifetime_sigma: 0.6,
        migration_share: 0.55,
    },
    CdnProfile {
        cdn: Cdn::Others,
        domains: 26_404,
        iack_share: 0.215,
        iack_share_jitter: 0.012,
        ack_sh_delay_median_ms: 8.0,
        ack_sh_delay_sigma: 1.1,
        // Hosting providers mostly terminate TLS locally; cache-driven
        // coalescing is rare at scan rates (Table 1's 21.5% share is a
        // *deployment* share, which the scan must recover).
        coalesced_share: 0.03,
        coalesced_ack_delay_rtt_factor: 1.1,
        iack_ack_delay_rtt_factor: 0.6, // 79.1% below the RTT
        reachable_from: EVERYWHERE,
        resumption_share: 0.6,
        zero_rtt_share: 0.12,
        ticket_lifetime_median_s: 7200.0,
        ticket_lifetime_sigma: 0.9,
        migration_share: 0.34,
    },
];

/// The calibrated profile set, one entry per CDN in [`Cdn::ALL`] order.
pub fn profiles() -> &'static [CdnProfile] {
    &PROFILES
}

/// Looks up the profile for a CDN.
pub fn profile_of(cdn: Cdn) -> &'static CdnProfile {
    &PROFILES[cdn.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cdn {
        /// Origin AS numbers used for on-net inference (paper Table 5).
        fn as_numbers(self) -> &'static [u32] {
            match self {
                Cdn::Akamai => &[16625, 20940],
                Cdn::Amazon => &[14618, 16509],
                Cdn::Cloudflare => &[13335, 209242],
                Cdn::Fastly => &[54113],
                Cdn::Google => &[15169, 396982],
                Cdn::Meta => &[32934],
                Cdn::Microsoft => &[8075],
                Cdn::Others => &[],
            }
        }

        /// Maps an AS number back to a CDN (the paper's Appendix G mapping).
        fn from_asn(asn: u32) -> Cdn {
            for cdn in Cdn::ALL {
                if cdn.as_numbers().contains(&asn) {
                    return cdn;
                }
            }
            Cdn::Others
        }
    }

    #[test]
    fn asn_mapping_matches_table5() {
        assert_eq!(Cdn::from_asn(13335), Cdn::Cloudflare);
        assert_eq!(Cdn::from_asn(209242), Cdn::Cloudflare);
        assert_eq!(Cdn::from_asn(16509), Cdn::Amazon);
        assert_eq!(Cdn::from_asn(20940), Cdn::Akamai);
        assert_eq!(Cdn::from_asn(54113), Cdn::Fastly);
        assert_eq!(Cdn::from_asn(15169), Cdn::Google);
        assert_eq!(Cdn::from_asn(32934), Cdn::Meta);
        assert_eq!(Cdn::from_asn(8075), Cdn::Microsoft);
        assert_eq!(Cdn::from_asn(64512), Cdn::Others);
    }

    #[test]
    fn asn_inference_round_trips_for_every_cdn() {
        for cdn in Cdn::ALL {
            for &asn in cdn.as_numbers() {
                assert_eq!(Cdn::from_asn(asn), cdn);
            }
        }
    }

    #[test]
    fn table1_domain_counts() {
        let total: usize = profiles().iter().map(|p| p.domains).sum();
        assert_eq!(total, 288_850);
        assert_eq!(profile_of(Cdn::Cloudflare).domains, 247_407);
    }

    #[test]
    fn non_iack_cdns_have_zero_share() {
        for cdn in [Cdn::Fastly, Cdn::Meta, Cdn::Microsoft] {
            assert_eq!(profile_of(cdn).iack_share, 0.0, "{cdn:?}");
        }
    }

    #[test]
    fn google_reachable_only_from_sao_paulo() {
        let g = profile_of(Cdn::Google);
        assert_eq!(g.reachable_from, [false, false, false, true]);
    }

    #[test]
    fn all_profiles_present() {
        assert_eq!(profiles().len(), Cdn::ALL.len());
    }

    #[test]
    fn index_round_trips_through_all() {
        // `profile_of` indexes the table by discriminant, so the enum,
        // `Cdn::ALL` and the table must list the CDNs in one order.
        for (i, cdn) in Cdn::ALL.into_iter().enumerate() {
            assert_eq!(cdn as usize, i);
            assert_eq!(cdn.index(), i);
            assert_eq!(profiles()[i].cdn, cdn);
            assert_eq!(profile_of(cdn).cdn, cdn);
        }
    }
}
