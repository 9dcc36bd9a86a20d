//! A thread runs every scenario on one simulated network, reset between
//! runs, and its servers answer from one response storage, so a run may
//! follow any other on its thread. What it reads must not depend on
//! that: each scenario of a varied set gives the same result, metrics
//! and trace on a new thread and right after any other scenario of the
//! set, and every call of a seeded random sequence of those scenarios and
//! two loaded servers (H1 and H3, each with a body length of its own)
//! reads the same as on a new thread.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::ServerAckMode;
use rq_recovery::CcAlgorithm;
use rq_sim::{ImpairmentSpec, SimDuration};
use rq_testbed::{
    run_scenario, run_scenario_with_trace, run_server_load, ArrivalProcess, ClassMix, ConnFate,
    HandshakeClass, LossSpec, MigrationSpec, ReconnectPolicy, Scenario, ServerLoadSpec,
};
use rq_testkit::prop::cases;

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

/// One call a thread makes: a scenario's runs, or a loaded server's run.
#[derive(Clone)]
enum Call {
    Scenario(Scenario),
    Load(ServerLoadSpec),
}

impl Call {
    /// What the call reads, in comparable form.
    fn observe(&self) -> String {
        match self {
            Call::Scenario(sc) => observe(sc),
            Call::Load(spec) => {
                let run = run_server_load(spec);
                let served = run
                    .outcomes
                    .iter()
                    .filter(|o| o.fate == ConnFate::Completed);
                assert_eq!(served.count(), spec.arrivals, "{}", spec.base.label());
                format!("{run:?}")
            }
        }
    }
}

/// The seven scenarios, then two small loaded servers: an H1 one with a
/// resumed and 0-RTT mix, and an H3 one whose body length no scenario
/// asks for.
fn calls() -> Vec<Call> {
    let mut calls: Vec<Call> = scenarios().into_iter().map(Call::Scenario).collect();
    let poisson = ArrivalProcess::Poisson { mean_gap: ms(3) };
    let mut h1 = Scenario::base(
        client_by_name("quic-go").unwrap(),
        ServerAckMode::InstantAck { pad_to_mtu: false },
        HttpVersion::H1,
    );
    h1.seed = 5;
    let mut h1 = ServerLoadSpec::new(h1, 12, poisson);
    h1.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    let mut h3 = Scenario::base(
        client_by_name("ngtcp2").unwrap(),
        ServerAckMode::WaitForCertificate,
        HttpVersion::H3,
    );
    (h3.seed, h3.file_size) = (6, 3000);
    calls.extend([
        Call::Load(h1),
        Call::Load(ServerLoadSpec::new(h3, 8, poisson)),
    ]);
    calls
}

#[test]
fn every_call_of_a_random_sequence_reads_as_on_a_new_thread() {
    let calls = calls();
    let fresh: Vec<String> = calls
        .iter()
        .map(|call| {
            let call = call.clone();
            on_a_new_thread(move || call.observe())
        })
        .collect();
    cases(12, |rng| {
        // Every call once, in a random order, then three more drawn
        // again: the same call twice on one thread too.
        let mut order: Vec<usize> = (0..calls.len()).collect();
        rng.shuffle(&mut order);
        order.extend((0..3).map(|_| rng.gen_range(calls.len() as u64) as usize));
        let (calls, fresh) = (calls.clone(), fresh.clone());
        on_a_new_thread(move || {
            for (k, &i) in order.iter().enumerate() {
                let read = calls[i].observe();
                assert!(read == fresh[i], "call {i}, at {k} of {order:?}");
            }
        });
    });
}
