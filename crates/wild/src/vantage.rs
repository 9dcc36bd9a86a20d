//! Measurement vantage points (paper §3: Hamburg, Hong Kong, Los Angeles,
//! Sao Paulo).

use crate::cdn::Cdn;

/// One measurement location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vantage {
    /// European university network, Hamburg, DE.
    Hamburg,
    /// Google Cloud, Hong Kong, HK.
    HongKong,
    /// Google Cloud, Los Angeles, US.
    LosAngeles,
    /// Google Cloud, Sao Paulo, BR.
    SaoPaulo,
}

/// All four vantage points in a stable order (indices used by
/// `CdnProfile::reachable_from`).
pub const VANTAGES: [Vantage; 4] = [
    Vantage::Hamburg,
    Vantage::HongKong,
    Vantage::LosAngeles,
    Vantage::SaoPaulo,
];

impl Vantage {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Vantage::Hamburg => "Hamburg",
            Vantage::HongKong => "Hong Kong",
            Vantage::LosAngeles => "Los Angeles",
            Vantage::SaoPaulo => "Sao Paulo",
        }
    }

    /// Index into per-vantage arrays: the declaration order, which is
    /// also the position in [`VANTAGES`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// UTC offset of the vantage's local clock in hours (study-period
    /// standard offsets for HAM/HKG/LAX/GRU). The longitudinal diurnal
    /// load cycle peaks at 14:00 *local*, so each vantage's peak falls
    /// on a different study minute (study time is UTC).
    pub fn utc_offset_hours(self) -> i64 {
        match self {
            Vantage::Hamburg => 1,
            Vantage::HongKong => 8,
            Vantage::LosAngeles => -8,
            Vantage::SaoPaulo => -3,
        }
    }

    /// Median RTT in ms from this vantage to a CDN's nearest PoP.
    ///
    /// Anycast CDNs terminate nearby (§4.3: Cloudflare RTT medians around
    /// 3–9 ms; "up to 79% of the median RTT" for a 6.3–7.2 ms PTO
    /// inflation implies ~8–9 ms RTTs); origin-pull CDNs and hosting
    /// providers sit farther away.
    pub fn rtt_median_ms(self, cdn: Cdn) -> f64 {
        let anycast = match self {
            Vantage::Hamburg => 4.0,
            Vantage::HongKong => 5.0,
            Vantage::LosAngeles => 4.5,
            Vantage::SaoPaulo => 8.5,
        };
        match cdn {
            Cdn::Cloudflare | Cdn::Fastly => anycast,
            Cdn::Akamai | Cdn::Amazon | Cdn::Google | Cdn::Meta | Cdn::Microsoft => anycast * 2.0,
            Cdn::Others => anycast * 6.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable() {
        assert_eq!(Vantage::Hamburg.index(), 0);
        assert_eq!(Vantage::SaoPaulo.index(), 3);
        for (i, v) in VANTAGES.into_iter().enumerate() {
            assert_eq!(v.index(), i, "{v:?}");
        }
    }

    #[test]
    fn utc_offsets_are_distinct_and_sane() {
        let offsets: Vec<i64> = VANTAGES.iter().map(|v| v.utc_offset_hours()).collect();
        for (i, a) in offsets.iter().enumerate() {
            assert!((-12..=14).contains(a));
            for b in &offsets[i + 1..] {
                assert_ne!(a, b, "offsets must differ so diurnal peaks differ");
            }
        }
    }

    #[test]
    fn anycast_is_closer_than_hosting() {
        for v in VANTAGES {
            assert!(v.rtt_median_ms(Cdn::Cloudflare) < v.rtt_median_ms(Cdn::Others));
        }
    }
}
