//! A thread runs every scenario on one simulated network, reset between
//! runs, so a run may follow any other on its thread. What it reads must
//! not depend on that: each scenario of a varied set gives the same
//! result, metrics and trace on a new thread and right after any other
//! scenario of the set.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_recovery::CcAlgorithm;
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    run_scenario, run_scenario_with_trace, HandshakeClass, LossSpec, MigrationSpec,
    ReconnectPolicy, Scenario,
};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// H1 and H3, resumed and 0-RTT, a lossy BBR download, a migration and
/// a crashing server, across clients and both ack modes.
fn scenarios() -> Vec<Scenario> {
    let iack = ServerAckMode::InstantAck { pad_to_mtu: false };
    let wfc = ServerAckMode::WaitForCertificate;
    let base = |client: &str, mode, http| {
        let mut sc = Scenario::base(client_by_name(client).unwrap(), mode, http);
        sc.seed = 11;
        sc
    };
    let h1 = base("quic-go", iack, HttpVersion::H1);
    let mut h3 = base("quiche", wfc, HttpVersion::H3);
    h3.capture_payloads = true;
    let mut resumed = base("ngtcp2", iack, HttpVersion::H1);
    resumed.handshake_class = HandshakeClass::Resumed;
    let mut zero_rtt = base("mvfst", wfc, HttpVersion::H3);
    zero_rtt.handshake_class = HandshakeClass::ZeroRtt;
    let mut bbr = base("quic-go", iack, HttpVersion::H3);
    bbr.cc = CcAlgorithm::BbrLite;
    bbr.file_size = 256 * 1024;
    bbr.loss = LossSpec::Random(ImpairmentSpec::none().with_iid_loss(0.02));
    let mut migration = base("picoquic", iack, HttpVersion::H1);
    migration.file_size = 64 * 1024;
    migration.migration = MigrationSpec::deliberate_at(ms(100), ms(30));
    let mut faults = base("quic-go", wfc, HttpVersion::H1);
    faults.file_size = 64 * 1024;
    faults.faults.crash_every = Some(ms(300));
    faults.faults.reconnect = Some(ReconnectPolicy::default());
    vec![h1, h3, resumed, zero_rtt, bbr, migration, faults]
}

/// Everything a run reads, in comparable form: the result (metrics
/// included) and the trace, and the result `run_scenario` gives, which
/// leaves the trace in the thread's network.
fn observe(sc: &Scenario) -> String {
    let (result, trace) = run_scenario_with_trace(sc);
    assert!(result.completed, "{}", sc.label());
    let again = run_scenario(sc);
    assert_eq!(format!("{again:?}"), format!("{result:?}"));
    format!("{result:?}\n{trace:?}")
}

fn on_a_new_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the run does not panic")
}

#[test]
fn a_run_reads_the_same_after_any_other_on_its_thread() {
    let set = scenarios();
    let fresh: Vec<String> = set
        .iter()
        .map(|sc| {
            let sc = sc.clone();
            on_a_new_thread(move || observe(&sc))
        })
        .collect();
    for (i, before) in set.iter().enumerate() {
        for (j, sc) in set.iter().enumerate().filter(|(j, _)| *j != i) {
            let (before, sc) = (before.clone(), sc.clone());
            let warm = on_a_new_thread(move || {
                run_scenario(&before);
                observe(&sc)
            });
            assert!(warm == fresh[j], "scenario {j} after scenario {i}");
        }
    }
}
