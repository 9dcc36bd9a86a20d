//! Cross-crate integration tests asserting the *shape* of every major
//! paper result: who wins, in which scenario, by roughly what factor.

use reacked_quicer::prelude::*;

const IACK: ServerAckMode = ServerAckMode::InstantAck { pad_to_mtu: false };

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// The paper's base scenario (10 KB over HTTP/1.1, 9 ms RTT, small
/// certificate, no Δt, no loss, instant ACK) for the named client;
/// `compare_modes` sets the server's ACK mode itself.
fn base(client: &str) -> Scenario {
    Scenario::base(client_by_name(client).unwrap(), IACK, HttpVersion::H1)
}

/// TTFB difference `iack - wfc` in ms (negative = IACK faster); `None`
/// when either run failed.
fn ttfb_delta(c: &ModeComparison) -> Option<f64> {
    Some(c.iack.ttfb_ms? - c.wfc.ttfb_ms?)
}

/// Figure 2/§4.1: the first PTO improves by 3x the certificate-store
/// delay, independent of the RTT.
#[test]
fn first_pto_improvement_is_three_delta_t_across_rtts() {
    for rtt_ms in [9u64, 25, 100] {
        let c = compare_modes(&Scenario {
            rtt: ms(rtt_ms),
            cert_delay: ms(10),
            ..base("quic-go")
        });
        let delta = c.wfc.first_pto_ms.unwrap() - c.iack.first_pto_ms.unwrap();
        assert!(
            (delta - 30.0).abs() < 8.0,
            "rtt {rtt_ms}: expected ~30 ms first-PTO improvement, got {delta:.1}"
        );
    }
}

/// Figure 5: with the large certificate and Δt = 200 ms the server blocks
/// on the amplification limit and IACK improves the TTFB for clients that
/// probe (neqo, ngtcp2); picoquic sees no benefit.
#[test]
fn amplification_blocked_scenario_favours_iack_for_probing_clients() {
    for name in ["neqo", "ngtcp2"] {
        let c = compare_modes(&Scenario {
            cert_len: reacked_quicer::tls::CERT_LARGE,
            cert_delay: ms(200),
            ..base(name)
        });
        assert!(c.iack.server_amp_blocked || c.wfc.server_amp_blocked);
        let d = ttfb_delta(&c).unwrap();
        assert!(d < -4.0, "{name}: IACK must win by ~1 RTT, delta {d:.1}");
    }
    let pico = compare_modes(&Scenario {
        cert_len: reacked_quicer::tls::CERT_LARGE,
        cert_delay: ms(200),
        ..base("picoquic")
    });
    let d = ttfb_delta(&pico).unwrap();
    assert!(
        d.abs() < 4.0,
        "picoquic: equal performance expected, delta {d:.1}"
    );
}

/// Figure 5 caption: HTTP/3's TTFB (control-stream SETTINGS) is one RTT
/// below HTTP/1.1's (response body).
#[test]
fn http3_ttfb_one_rtt_below_http11() {
    for rtt_ms in [9u64, 20] {
        let h1 = compare_modes(&Scenario {
            rtt: ms(rtt_ms),
            ..base("quic-go")
        });
        let h3 = compare_modes(&Scenario {
            rtt: ms(rtt_ms),
            http: HttpVersion::H3,
            ..base("quic-go")
        });
        let gap = h1.wfc.ttfb_ms.unwrap() - h3.wfc.ttfb_ms.unwrap();
        assert!(
            (gap - rtt_ms as f64).abs() < 3.0,
            "rtt {rtt_ms}: H1-H3 TTFB gap {gap:.1} should be ~1 RTT"
        );
    }
}

/// Figure 6: server-flight tail loss — WFC beats IACK by roughly the
/// server's default PTO (200 ms for the quic-go testbed server).
#[test]
fn server_flight_loss_penalizes_iack_by_server_default_pto() {
    let c = compare_modes(&Scenario {
        loss: LossSpec::ServerFlightTail,
        ..base("quic-go")
    });
    let d = ttfb_delta(&c).unwrap();
    assert!(
        (120.0..260.0).contains(&d),
        "IACK penalty {d:.1} should be in the order of the 200 ms server PTO"
    );
}

/// §4.2: quiche's duplicate-CID-retirement abort fires exactly in the
/// Figure 6 IACK + HTTP/1.1 case and nowhere else.
#[test]
fn quiche_aborts_only_under_iack_with_server_flight_loss_http1() {
    let c = compare_modes(&Scenario {
        loss: LossSpec::ServerFlightTail,
        ..base("quiche")
    });
    assert!(c.wfc.completed, "quiche WFC completes");
    assert!(
        c.iack.aborted,
        "quiche IACK aborts (duplicate CID retirement)"
    );
    // HTTP/3 does not hit the bug (§4.2).
    let h3 = compare_modes(&Scenario {
        loss: LossSpec::ServerFlightTail,
        http: HttpVersion::H3,
        ..base("quiche")
    });
    assert!(h3.iack.completed, "quiche HTTP/3 behaves like the others");
}

/// Figure 7: second-client-flight loss — IACK wins for every client
/// except picoquic (parity).
#[test]
fn client_flight_loss_favours_iack_except_picoquic() {
    for name in ["aioquic", "neqo", "ngtcp2", "quic-go", "quiche", "mvfst"] {
        let c = compare_modes(&Scenario {
            loss: LossSpec::SecondClientFlight,
            cert_delay: ms(4),
            ..base(name)
        });
        let d = ttfb_delta(&c).unwrap();
        assert!(d < -3.0, "{name}: IACK should win, delta {d:.1}");
    }
    let pico = compare_modes(&Scenario {
        loss: LossSpec::SecondClientFlight,
        cert_delay: ms(4),
        ..base("picoquic")
    });
    let d = ttfb_delta(&pico).unwrap();
    assert!(d.abs() < 2.0, "picoquic parity expected, delta {d:.1}");
}

/// Figure 7/§4.2: the improvement is absolute (~constant ms), so the
/// relative gain shrinks as the RTT grows.
#[test]
fn client_flight_loss_improvement_is_absolute_not_relative() {
    let mut improvements = Vec::new();
    for rtt_ms in [9u64, 100] {
        let c = compare_modes(&Scenario {
            rtt: ms(rtt_ms),
            loss: LossSpec::SecondClientFlight,
            cert_delay: ms(4),
            ..base("quic-go")
        });
        improvements.push(-ttfb_delta(&c).unwrap());
    }
    let (small_rtt, large_rtt) = (improvements[0], improvements[1]);
    assert!(small_rtt > 0.0 && large_rtt > 0.0);
    // Same order of magnitude in absolute terms.
    assert!(
        large_rtt < small_rtt * 4.0 + 20.0,
        "improvement should not scale with RTT: {small_rtt:.1} vs {large_rtt:.1}"
    );
}

/// Table 2 cross-validation: the guideline matrix predicts the measured
/// winner.
#[test]
fn guideline_matrix_matches_testbed() {
    use reacked_quicer::analysis::guidelines::ExpectedLoss;
    use reacked_quicer::analysis::{recommend, Advice, DeploymentScenario};

    let cases = [
        (
            LossSpec::ServerFlightTail,
            ExpectedLoss::ServerFlightTail,
            5u64,
        ),
        (
            LossSpec::SecondClientFlight,
            ExpectedLoss::SecondClientFlight,
            5,
        ),
    ];
    for (loss, expected_loss, dt) in cases {
        let c = compare_modes(&Scenario {
            loss,
            cert_delay: ms(dt),
            ..base("quic-go")
        });
        let measured = if ttfb_delta(&c).unwrap() < 0.0 {
            Advice::Iack
        } else {
            Advice::Wfc
        };
        let predicted = recommend(&DeploymentScenario {
            cert_exceeds_amplification: false,
            rtt_ms: 9.0,
            delta_t_ms: dt as f64,
            loss: expected_loss,
        });
        assert_eq!(measured, predicted, "loss {loss:?}");
    }
}

/// §5 improvement: retransmitting the ClientHello on PTO repairs the
/// server-flight loss roughly a server PTO sooner than PING probes.
#[test]
fn client_hello_retransmit_policy_beats_ping_probes() {
    let run = |policy| {
        run_scenario(&Scenario {
            loss: LossSpec::ServerFlightTail,
            probe_policy_override: Some(policy),
            ..base("quic-go")
        })
    };
    let ping = run(ProbePolicy::Ping).ttfb_ms.unwrap();
    let rech = run(ProbePolicy::RetransmitOldest).ttfb_ms.unwrap();
    assert!(
        rech + 100.0 < ping,
        "re-CH ({rech:.1}) should save ~a server PTO vs PING ({ping:.1})"
    );
}

/// §5 padded-IACK cost: padding the instant ACK consumes amplification
/// budget and never helps when the certificate already exceeds the limit.
#[test]
fn padded_iack_never_faster_when_amplification_blocked() {
    let run = |pad| {
        run_scenario(&Scenario {
            ack_mode: ServerAckMode::InstantAck { pad_to_mtu: pad },
            cert_len: reacked_quicer::tls::CERT_LARGE,
            cert_delay: ms(200),
            ..base("neqo")
        })
    };
    let plain = run(false).ttfb_ms.unwrap();
    let padded = run(true).ttfb_ms.unwrap();
    assert!(
        padded >= plain - 1.0,
        "padding must not speed things up: {plain:.1} vs {padded:.1}"
    );
}

/// go-x-net's erratic behaviour: across seeds, some runs carry the bogus
/// 90 ms smoothed-RTT initialization (first PTO far above 3 x RTT).
#[test]
fn go_x_net_mis_initializes_in_part_of_runs() {
    let mut buggy = 0;
    let mut clean = 0;
    for seed in 0..30 {
        let res = run_scenario(&Scenario {
            cert_delay: ms(4),
            seed,
            ..base("go-x-net")
        });
        let pto = res.first_pto_ms.unwrap();
        if pto > 100.0 {
            buggy += 1;
        } else {
            clean += 1;
        }
    }
    assert!(
        buggy >= 3,
        "expected some mis-initialized runs, got {buggy}"
    );
    assert!(clean >= 10, "expected mostly clean runs, got {clean}");
}
