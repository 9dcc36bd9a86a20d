//! Cross-crate integration tests asserting the *shape* of every major
//! paper result: who wins, in which scenario, by roughly what factor.

use reacked_quicer::prelude::*;
use reacked_quicer::profiles::ClientProfile;

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
/// delay, independent of the RTT and of the client. Every client runs
/// under HTTP/1.1, and under HTTP/3 where it supports it, at RTT {9, 25,
/// 100 ms} x Δt {4, 10, 50 ms}: 135 comparisons. WFC - IACK first PTO is
/// 3Δt plus one small offset, the same on every cell: the first RTT
/// sample under WFC exceeds the one under IACK by Δt + 0.91 ms (the
/// server's flight is larger than its instant ACK), and the first PTO is
/// three samples. picoquic ignores the instant ACK's RTT sample (§4.2),
/// the only one a clean 10 KB run takes, so its IACK runs keep the
/// default PTO. Δt = 200 ms is left out: it exceeds mvfst's 100 ms default
/// PTO, and mvfst reads 302.7 ms there, not 600.
#[test]
fn first_pto_improvement_is_three_delta_t_across_rtts() {
    let mut offsets = Vec::new();
    let mut default_pto_cells = 0;
    for client in all_clients() {
        for http in [HttpVersion::H1, HttpVersion::H3] {
            if http == HttpVersion::H3 && !client.supports_h3 {
                continue;
            }
            for rtt_ms in [9u64, 25, 100] {
                for dt_ms in [4u64, 10, 50] {
                    let c = compare_modes(&Scenario {
                        rtt: ms(rtt_ms),
                        cert_delay: ms(dt_ms),
                        ..Scenario::base(client.clone(), IACK, http)
                    });
                    let cell = format!("{} {http:?} rtt {rtt_ms} Δt {dt_ms}", client.name);
                    match (c.wfc.first_pto_ms, c.iack.first_pto_ms) {
                        (Some(wfc), Some(iack)) => {
                            offsets.push((wfc - iack - 3.0 * dt_ms as f64, cell));
                        }
                        (Some(_), None) if client.ignore_iack_rtt => default_pto_cells += 1,
                        other => panic!("{cell}: first PTOs (WFC, IACK) {other:?}"),
                    }
                }
            }
        }
    }
    assert_eq!((offsets.len(), default_pto_cells), (117, 18));
    let (first, first_cell) = &offsets[0];
    assert!(
        0.0 < *first && *first < 8.0,
        "{first_cell}: first-PTO gain is 3Δt + {first:.2} ms"
    );
    for (offset, cell) in &offsets {
        assert!(
            (offset - first).abs() < 0.01,
            "{cell}: first-PTO gain is 3Δt + {offset:.2} ms, not 3Δt + {first:.2} ms"
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
    let buggy = mis_initialized_runs(&Scenario {
        cert_delay: ms(4),
        ..base("go-x-net")
    });
    assert!(
        buggy >= 3,
        "expected some mis-initialized runs, got {buggy}"
    );
    let clean = 30 - buggy;
    assert!(clean >= 10, "expected mostly clean runs, got {clean}");
}

/// One row of the client quirk table: a quirk field of `ClientProfile`,
/// the paper cell it explains, and what that cell reads with the quirk on
/// and with it switched off through the profile.
struct QuirkRow {
    /// The field, and for `quiche_h1_quirks` the half the cell shows.
    quirk: &'static str,
    /// Where the paper shows the cell, and what is read.
    cell: &'static str,
    scenario: Scenario,
    off: fn(&mut ClientProfile),
    read: fn(&Scenario) -> f64,
    /// The reading with the quirk on, then off.
    on_off: (f64, f64),
}

/// TTFB in ms; an aborted run reads infinite.
fn ttfb_or_abort(sc: &Scenario) -> f64 {
    let r = run_scenario(sc);
    if r.aborted {
        f64::INFINITY
    } else {
        r.ttfb_ms.unwrap()
    }
}

fn client_datagrams(sc: &Scenario) -> f64 {
    run_scenario(sc).client_datagrams as f64
}

/// Of seeds 0..30, the runs whose first PTO exceeds 100 ms.
fn mis_initialized_runs(sc: &Scenario) -> usize {
    (0..30)
        .filter(|&seed| {
            let res = run_scenario(&Scenario { seed, ..sc.clone() });
            res.first_pto_ms.unwrap() > 100.0
        })
        .count()
}

/// The client deviations the paper uses to explain its outliers (§4.1,
/// §4.2, App. F), each at H1 under IACK.
fn quirk_table() -> Vec<QuirkRow> {
    use reacked_quicer::tls::CERT_LARGE;
    vec![
        QuirkRow {
            quirk: "no_probe_after_iack",
            cell: "Fig. 5: 9 ms, 5,113 B, Δt 200 ms, no loss; client datagrams",
            scenario: Scenario {
                cert_len: CERT_LARGE,
                cert_delay: ms(200),
                ..base("mvfst")
            },
            off: |p| p.no_probe_after_iack = false,
            read: client_datagrams,
            on_off: (11.0, 12.0),
        },
        QuirkRow {
            quirk: "no_probe_after_iack",
            cell: "9 ms, 5,113 B, Δt 0, server-flight loss; TTFB",
            scenario: Scenario {
                cert_len: CERT_LARGE,
                loss: LossSpec::ServerFlightTail,
                ..base("picoquic")
            },
            off: |p| p.no_probe_after_iack = false,
            read: ttfb_or_abort,
            on_off: (284.8, 295.7),
        },
        QuirkRow {
            quirk: "ignore_iack_rtt",
            cell: "Fig. 7: 9 ms, 1,212 B, Δt 0, second-client-flight loss; TTFB",
            scenario: Scenario {
                loss: LossSpec::SecondClientFlight,
                ..base("picoquic")
            },
            off: |p| p.ignore_iack_rtt = false,
            read: ttfb_or_abort,
            on_off: (280.6, 76.5),
        },
        QuirkRow {
            quirk: "quiche_h1_quirks (abort)",
            cell: "Fig. 6: 9 ms, 1,212 B, Δt 0, server-flight loss; TTFB",
            scenario: Scenario {
                loss: LossSpec::ServerFlightTail,
                ..base("quiche")
            },
            off: |p| p.quiche_h1_quirks = false,
            read: ttfb_or_abort,
            on_off: (f64::INFINITY, 245.6),
        },
        QuirkRow {
            quirk: "quiche_h1_quirks (PING-reply drop)",
            cell: "9 ms, 5,113 B, Δt 100 ms, second-client-flight loss; TTFB",
            scenario: Scenario {
                cert_len: CERT_LARGE,
                cert_delay: ms(100),
                loss: LossSpec::SecondClientFlight,
                ..base("quiche")
            },
            off: |p| p.quiche_h1_quirks = false,
            read: ttfb_or_abort,
            on_off: (136.8, 124.9),
        },
        QuirkRow {
            quirk: "buggy_rtt_preinit",
            cell: "§4.1: 9 ms, 1,212 B, Δt 4 ms, seeds 0..30; runs with first PTO > 100 ms",
            scenario: Scenario {
                cert_delay: ms(4),
                ..base("go-x-net")
            },
            off: |p| p.buggy_rtt_preinit = None,
            read: |sc| mis_initialized_runs(sc) as f64,
            on_off: (10.0, 0.0),
        },
    ]
}

/// Whether `p` has every quirk off. The pattern names every field of
/// `ClientProfile` without `..`: a new field does not compile until it is
/// sorted here, and a new quirk then needs a row in `quirk_table` for
/// each client that has it.
fn quirk_free(p: &ClientProfile) -> bool {
    let ClientProfile {
        // Measured values, not deviations: Table 4 and Figure 11.
        name: _,
        default_pto: _,
        flight2_datagrams: _,
        supports_h3: _,
        metrics_update_share: _,
        // The quirks.
        buggy_rtt_preinit,
        no_probe_after_iack,
        ignore_iack_rtt,
        quiche_h1_quirks,
    } = p;
    buggy_rtt_preinit.is_none() && !no_probe_after_iack && !ignore_iack_rtt && !quiche_h1_quirks
}

/// Every client quirk moves a pinned cell: switched off through the
/// profile, its row's cell reads the pinned "off" value instead of the
/// "on" one. A quirk that moves nothing has no place in the profile.
#[test]
fn every_client_quirk_moves_its_cell() {
    let rows = quirk_table();
    for client in all_clients() {
        let mut p = client.clone();
        for row in rows
            .iter()
            .filter(|r| r.scenario.client.name == client.name)
        {
            (row.off)(&mut p);
        }
        assert!(quirk_free(&p), "{}: a quirk without a row", client.name);
    }
    let reads = |got: f64, want: f64| got == want || (got - want).abs() < 0.05;
    for row in &rows {
        let on = (row.read)(&row.scenario);
        let mut off = row.scenario.clone();
        (row.off)(&mut off.client);
        let off = (row.read)(&off);
        assert!(
            reads(on, row.on_off.0) && reads(off, row.on_off.1),
            "{} ({}, {}): reads {on:.1} -> {off:.1} with the quirk on -> off, pinned {:.1} -> {:.1}",
            row.quirk,
            row.scenario.client.name,
            row.cell,
            row.on_off.0,
            row.on_off.1
        );
    }
}
