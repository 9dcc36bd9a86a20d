//! Integration tests for the macroscopic model: the scan pipeline must
//! re-derive the paper's Table 1 / §4.3 observations from the synthetic
//! population, and the longitudinal cache model must explain the
//! coalescing rates.

use reacked_quicer::sim::SimRng;
use reacked_quicer::testbed::median;
use reacked_quicer::wild::longitudinal::{LongitudinalStudy, StudyDomain};
use reacked_quicer::wild::{scan, Cdn, Population, Vantage, VANTAGES};

fn standard_scan() -> reacked_quicer::wild::ScanReport {
    let pop = Population::synthesize(60_000, &mut SimRng::new(0xCAFE));
    scan(&pop, 2, 0xD00D)
}

#[test]
fn table1_all_rows_in_band() {
    let report = standard_scan();
    // (cdn, expected share, tolerance)
    let expect = [
        (Cdn::Akamai, 0.322, 0.15),
        (Cdn::Amazon, 0.41, 0.12),
        (Cdn::Cloudflare, 0.999, 0.01),
        (Cdn::Fastly, 0.0, 0.02),
        (Cdn::Google, 0.115, 0.08),
        (Cdn::Meta, 0.0, 0.05),
        (Cdn::Microsoft, 0.0, 0.05),
        (Cdn::Others, 0.215, 0.05),
    ];
    for (cdn, share, tol) in expect {
        let row = report.rows.iter().find(|r| r.cdn == cdn).unwrap();
        assert!(
            (row.iack_share - share).abs() <= tol,
            "{cdn:?}: measured {:.3}, paper {share}",
            row.iack_share
        );
    }
}

#[test]
fn google_iack_share_depends_on_vantage() {
    // Appendix G: Google's IACK deployments are only significantly
    // reachable from Sao Paulo, producing Table 1's 11.5% variation.
    let report = standard_scan();
    let google = report.rows.iter().find(|r| r.cdn == Cdn::Google).unwrap();
    assert!(
        google.max_variation > 0.05,
        "variation {:.3}",
        google.max_variation
    );
}

#[test]
fn fig8_cdn_ordering() {
    let report = standard_scan();
    let median_gap = |cdn| {
        report
            .iack_gap_median(Vantage::SaoPaulo, cdn)
            .unwrap_or(f64::NAN)
    };
    let cf = median_gap(Cdn::Cloudflare);
    let amazon = median_gap(Cdn::Amazon);
    let akamai = median_gap(Cdn::Akamai);
    // Paper §4.3 ordering: Cloudflare 3.2 < Amazon 6.4 < Akamai 20.9.
    assert!(cf < amazon, "cloudflare {cf} < amazon {amazon}");
    assert!(amazon < akamai, "amazon {amazon} < akamai {akamai}");
    assert!((cf - 3.2).abs() < 2.0, "cloudflare median {cf}");
}

#[test]
fn fig10_coalesced_ack_delays_exceed_rtt_for_meta() {
    let report = standard_scan();
    let (coalesced, _) = report.rtt_minus_ack_delay(Cdn::Meta);
    assert!(coalesced.n > 0);
    // Paper: 100% of Meta's coalesced ACK–SH ack delays exceed the RTT.
    let exceed = coalesced.exceed_rtt_share().unwrap();
    assert!(exceed > 0.8, "meta exceed share {exceed}");
}

#[test]
fn fig14_cloudflare_similar_across_vantages() {
    let report = standard_scan();
    let medians: Vec<f64> = VANTAGES
        .iter()
        .map(|v| report.iack_gap_median(*v, Cdn::Cloudflare).unwrap())
        .collect();
    let max = medians.iter().cloned().fold(f64::MIN, f64::max);
    let min = medians.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max / min < 2.5, "medians too spread: {medians:?}");
}

#[test]
fn scan_report_identical_across_thread_counts() {
    // The PR's core guarantee at integration level: a full scan report
    // — Table 1 rows *and* every figure aggregate — is byte-identical
    // whether the domain loops run on one worker or four.
    use reacked_quicer::testbed::SweepRunner;
    let pop = Population::synthesize(30_000, &mut SimRng::new(0xCAFE));
    let seq = reacked_quicer::wild::scan_with(&pop, 2, 0xD00D, &SweepRunner::new(1));
    let par = reacked_quicer::wild::scan_with(&pop, 2, 0xD00D, &SweepRunner::new(4));
    assert_eq!(seq, par);
}

#[test]
fn longitudinal_coalescing_rates_match_paper() {
    // §4.3 coalescing observations, reproduced via the cache model.
    let own_slow = StudyDomain {
        name: "own-1pm".into(),
        probe_rate_per_min: 1.0,
        background_rate_per_s: 0.0,
    };
    let own_fast = StudyDomain {
        name: "own-60pm".into(),
        probe_rate_per_min: 60.0,
        background_rate_per_s: 0.0,
    };
    let discord = StudyDomain {
        name: "discord.com".into(),
        probe_rate_per_min: 1.0,
        background_rate_per_s: 32.0,
    };
    assert!(own_slow.cache_hit_probability() < 0.01); // 99.9% IACK
    let fast = own_fast.cache_hit_probability();
    assert!(
        (0.03..0.15).contains(&fast),
        "60/min → ~7.5% coalesced, got {fast}"
    );
    assert!(discord.cache_hit_probability() > 0.85); // 91.9% coalesced
}

#[test]
fn longitudinal_diurnal_gap_and_median() {
    let study = LongitudinalStudy::cloudflare(
        Vantage::SaoPaulo,
        StudyDomain {
            name: "own".into(),
            probe_rate_per_min: 1.0,
            background_rate_per_s: 0.0,
        },
    );
    let obs = study.run(7 * 24 * 60, 99);
    // Median IACK→SH gap ≈ 2.1 ms (§4.3).
    let gap = |pred: &dyn Fn(u64) -> bool| {
        let gaps: Vec<f64> = obs
            .iter()
            .filter(|o| pred(o.minute))
            .filter_map(|o| match (o.time_to_ack_ms, o.time_to_sh_ms) {
                (Some(a), Some(s)) => Some(s - a),
                _ => None,
            })
            .collect();
        median(&gaps).unwrap()
    };
    let all = gap(&|_| true);
    assert!((1.5..3.5).contains(&all), "median gap {all}");
    // Day-time (11:00–17:00) gaps exceed night-time (23:00–05:00) gaps.
    let day = gap(&|m| (11..17).contains(&((m / 60) % 24)));
    let night = gap(&|m| !(5..23).contains(&((m / 60) % 24)));
    assert!(day > night, "day {day} vs night {night}");
}

#[test]
fn asn_inference_round_trips_via_population() {
    let pop = Population::synthesize(5_000, &mut SimRng::new(5));
    for domain in pop.domains.iter().filter(|d| d.cdn.is_some()) {
        let cdn = domain.cdn.unwrap();
        for asn in cdn.as_numbers() {
            assert_eq!(Cdn::from_asn(*asn), cdn);
        }
    }
}
