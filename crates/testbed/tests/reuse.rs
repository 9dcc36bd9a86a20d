//! A thread runs every drive on its one worker value: one simulated
//! network, reset between runs, and the server node, engine, control
//! block, response storage, retired client node and driver tables that
//! each drive builds in the storage the last one left. So a run may
//! follow any other on its thread. What it reads must not depend on
//! that: each scenario of a varied set gives the same result, metrics
//! and trace on a new thread and right after any other scenario of the
//! set; every call of a seeded random sequence of those scenarios and
//! four loaded servers (H1 and H3, each with a body length of its own,
//! one Retry-deferring and one refusing with busy closes) reads the same
//! as on a new thread; and the whole sequence, run once on one worker,
//! keeps both qlogs of every scenario.

use rq_http::HttpVersion;
use rq_profiles::client_by_name;
use rq_quic::{OverloadPolicy, ServerAckMode};
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

/// One call a thread makes: a scenario's runs, or a loaded server's run
/// and how many of its arrivals it serves.
#[derive(Clone)]
enum Call {
    Scenario(Scenario),
    Load(ServerLoadSpec, usize),
}

impl Call {
    /// What the call reads, in comparable form.
    fn observe(&self) -> String {
        match self {
            Call::Scenario(sc) => observe(sc),
            Call::Load(spec, served) => {
                let run = run_server_load(spec);
                let fates = run.outcomes.iter().map(|o| o.fate);
                let got = fates
                    .filter(|f| matches!(f, ConnFate::Completed | ConnFate::RetriedThenAccepted));
                assert_eq!(got.count(), *served, "{}", spec.base.label());
                format!("{run:?}")
            }
        }
    }
}

/// The seven scenarios, then four small loaded servers: an H1 one with
/// a resumed and 0-RTT mix, an H3 one whose body length no scenario asks
/// for, and two with room for one connection at a time: one defers the
/// others with a Retry, the other refuses them with a busy close, after
/// which they back off and reconnect (one of them in vain).
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
    let one_at_a_time = |seed, overload| {
        let mut base = Scenario::base(
            client_by_name("quic-go").unwrap(),
            ServerAckMode::InstantAck { pad_to_mtu: false },
            HttpVersion::H1,
        );
        base.seed = seed;
        if overload == OverloadPolicy::CloseWithBackoff {
            base.faults.reconnect = Some(ReconnectPolicy::default());
        }
        let mut spec = ServerLoadSpec::new(base, 4, poisson);
        spec.concurrency_limit = 1;
        spec.overload = overload;
        spec.conn_deadline = SimDuration::from_secs(10);
        spec
    };
    let retry = one_at_a_time(7, OverloadPolicy::RetryDefer);
    let busy = one_at_a_time(8, OverloadPolicy::CloseWithBackoff);
    calls.extend([
        Call::Load(h1, 12),
        Call::Load(ServerLoadSpec::new(h3, 8, poisson), 8),
        Call::Load(retry, 4),
        Call::Load(busy, 3),
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

/// Both qlogs of a scenario's run, as JSON.
fn qlogs(sc: &Scenario) -> (String, String) {
    let result = run_scenario(sc);
    (result.client_log.to_json(), result.server_log.to_json())
}

#[test]
fn the_sequence_on_one_worker_keeps_both_qlogs() {
    let calls = calls();
    let fresh: Vec<Option<(String, String)>> = calls
        .iter()
        .map(|call| match call {
            Call::Scenario(sc) => {
                let sc = sc.clone();
                Some(on_a_new_thread(move || qlogs(&sc)))
            }
            Call::Load(..) => None,
        })
        .collect();
    // Once through, on one thread: every call on the thread's one worker.
    on_a_new_thread(move || {
        for (i, call) in calls.iter().enumerate() {
            call.observe();
            let (Call::Scenario(sc), Some((client, server))) = (call, &fresh[i]) else {
                continue;
            };
            let (warm_client, warm_server) = qlogs(sc);
            assert!(warm_client == *client, "call {i}: the client qlog");
            assert!(warm_server == *server, "call {i}: the server qlog");
        }
    });
}
