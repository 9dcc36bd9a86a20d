// The tests of `path.rs`: connection migration, path validation and the
// amplification budget. `connection/tests.rs` includes this file, so the
// tests share its helpers and are named `connection::tests::*`. Two are
// property tests of RFC 9000 §9 invariants for any path id and CID pool:
// validation terminates, and an unvalidated path never carries more than
// 3x what it received (`crates/testbed/tests/migration_props.rs` holds
// the invariants that need the testbed).

/// A client/server pair with `pool` spare CIDs each, before the
/// handshake.
fn migration_pair(pool: usize) -> (Connection, Connection) {
    let mut ccfg = EndpointConfig::rfc_default();
    ccfg.cid_pool = pool;
    let mut scfg = EndpointConfig::rfc_default();
    scfg.cid_pool = pool;
    let c = Connection::client(ccfg, 1, false);
    let s = Connection::server(scfg, 2, derived_cid(1, CID_KIND_ORIGINAL_DCID, 0));
    (c, s)
}

/// Zero-delay exchange where every datagram is delivered on `path`,
/// until quiescent.
fn pump_on_path(c: &mut Connection, s: &mut Connection, now: SimTime, path: u64) {
    loop {
        let mut progress = false;
        while let Some(d) = c.poll_transmit(now) {
            s.handle_datagram_on_path(now, d, path);
            progress = true;
        }
        while let Some(d) = s.poll_transmit(now) {
            c.handle_datagram_on_path(now, d, path);
            progress = true;
        }
        if !progress {
            break;
        }
    }
}

#[test]
fn cid_derivation_is_collision_free() {
    // The old XOR scheme could collide across kinds/seeds; coordinate
    // hashing must keep every (seed, kind, seq) CID distinct.
    let mut seen = std::collections::HashSet::new();
    for seed in [0u64, 1, 2, 0xC11E_57, 0x5E11_E5] {
        for kind in [
            CID_KIND_CLIENT,
            CID_KIND_ORIGINAL_DCID,
            CID_KIND_SERVER,
            CID_KIND_RETRY,
        ] {
            for seq in 0..8u64 {
                assert!(
                    seen.insert(derived_cid(seed, kind, seq)),
                    "collision at seed={seed:#x} kind={kind} seq={seq}"
                );
            }
        }
    }
}

#[test]
fn cid_pool_announced_after_handshake() {
    let (mut c, mut s) = migration_pair(2);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    assert_eq!(
        c.paths.spare_peer_cids().len(),
        2,
        "server pool not banked at client"
    );
    assert_eq!(
        s.paths.spare_peer_cids().len(),
        2,
        "client pool not banked at server"
    );
    // The spares are exactly the derivable pool CIDs.
    assert_eq!(
        c.paths.spare_peer_cids()[0].1,
        derived_cid(2, CID_KIND_SERVER, 1)
    );
    assert_eq!(
        s.paths.spare_peer_cids()[1].1,
        derived_cid(1, CID_KIND_CLIENT, 2)
    );
}

#[test]
fn cid_pool_disabled_changes_nothing() {
    let mut c = client();
    let mut s = server(ServerAckMode::WaitForCertificate);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    assert_eq!(c.paths.spare_peer_cids().len(), 0);
    assert_eq!(s.paths.spare_peer_cids().len(), 0);
    assert_eq!(
        c.log
            .count(|d| matches!(d, EventData::MigrationStarted { .. })),
        0
    );
}

#[test]
fn deliberate_migration_rotates_cid_and_validates_path() {
    let (mut c, mut s) = migration_pair(2);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let old_dcid = c.peer_cid;
    let now = at(500);
    c.migrate(now, 7);
    assert_ne!(c.peer_cid, old_dcid, "DCID must rotate on migration");
    assert_eq!(c.peer_cid, derived_cid(2, CID_KIND_SERVER, 1));
    assert!(c.path_validation_pending());
    pump_on_path(&mut c, &mut s, now, 7);
    // Both directions validated: client probed, server counter-probed.
    assert!(
        c.path_state(7).unwrap().validated,
        "client path unvalidated"
    );
    assert!(
        s.path_state(7).unwrap().validated,
        "server path unvalidated"
    );
    assert_eq!(s.active_path(), 7);
    assert!(!c.path_validation_pending());
    assert_eq!(
        c.log.count(|d| matches!(
            d,
            EventData::MigrationStarted {
                deliberate: true,
                ..
            }
        )),
        1
    );
    assert_eq!(
        s.log.count(|d| matches!(
            d,
            EventData::MigrationStarted {
                deliberate: false,
                ..
            }
        )),
        1
    );
    // The old client DCID was retired at the server.
    assert_eq!(
        s.log
            .count(|d| matches!(d, EventData::CidRetired { seq: 0 })),
        1
    );
}

#[test]
fn unvalidated_path_is_amplification_limited() {
    let (mut c, mut s) = migration_pair(2);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let now = at(500);
    c.migrate(now, 3);
    // Deliver exactly one client datagram on the new path, then stop.
    let d = c.poll_transmit(now).expect("challenge datagram");
    s.handle_datagram_on_path(now, d.clone(), 3);
    let p = s.path_state(3).expect("server must track the new path");
    assert!(!p.validated);
    assert_eq!(
        s.amplification_budget(),
        3 * d.len(),
        "unvalidated new path must be 3x-limited like a fresh Initial"
    );
    // Server sends never exceed the per-path budget while unvalidated.
    let mut sent = 0usize;
    while let Some(out) = s.poll_transmit(now) {
        sent += out.len();
    }
    assert!(
        sent <= 3 * d.len(),
        "server overshot: {sent} > {}",
        3 * d.len()
    );
}

#[test]
fn path_validation_abandons_after_retries() {
    let (mut c, mut s) = migration_pair(2);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let mut now = at(500);
    c.migrate(now, 9);
    // Black-hole every datagram: drain transmits, fire each deadline.
    for _ in 0..16 {
        while c.poll_transmit(now).is_some() {}
        if !c.path_validation_pending() {
            break;
        }
        let deadline = c.poll_timeout().expect("challenge deadline armed");
        now = now.max(deadline);
        c.handle_timeout(now);
    }
    assert!(!c.path_validation_pending(), "validation must terminate");
    assert!(c.path_state(9).unwrap().abandoned);
    assert_eq!(
        c.log
            .count(|d| matches!(d, EventData::PathAbandoned { path: 9 })),
        1
    );
    assert_eq!(
        c.log
            .count(|d| matches!(d, EventData::PathChallengeSent { .. })),
        1 + PATH_CHALLENGE_MAX_RETRIES as usize
    );
}

/// Path validation terminates for any path id and CID pool: validated
/// when probes flow, abandoned (but still resolved) when the new path
/// black-holes everything.
#[test]
fn path_validation_always_terminates() {
    cases(64, |rng| {
        let path = 1 + rng.gen_range(63);
        let (mut c, mut s) = migration_pair(1 + rng.gen_range(3) as usize);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let start = at(500);
        c.migrate(start, path);
        assert!(c.path_validation_pending());
        if rng.gen_bool(0.5) {
            // Swallow every probe and let the retry clock run: the
            // challenge must exhaust its retries and resolve, not spin.
            let mut now = start;
            for _ in 0..200 {
                while c.poll_transmit(now).is_some() {}
                if !c.path_validation_pending() {
                    break;
                }
                let Some(t) = c.poll_timeout() else { break };
                now = if t > now { t } else { now + ms(1) };
                c.handle_timeout(now);
            }
            assert!(!c.path_validation_pending(), "validation never resolved");
        } else {
            pump_on_path(&mut c, &mut s, start, path);
            assert!(!c.path_validation_pending());
            assert!(c.path_state(path).unwrap().validated, "client path");
            assert!(s.path_state(path).unwrap().validated, "server path");
            assert_eq!(s.active_path(), path);
        }
    });
}

/// While a post-migration path is unvalidated, the server never sends
/// more than 3x the bytes it received on it (RFC 9000 §9.5 mirrors the
/// 3x of §8.1), however many client datagrams trickle in first.
#[test]
fn unvalidated_path_never_exceeds_three_times_received() {
    cases(64, |rng| {
        let path = 1 + rng.gen_range(31);
        let (mut c, mut s) = migration_pair(1 + rng.gen_range(3) as usize);
        run_handshake(&mut c, &mut s, SimDuration::ZERO);
        let now = at(500);
        c.migrate(now, path);
        // Deliver up to 3 client datagrams on the new path, draining
        // (and discarding) the server's responses after each: the
        // client never sees them, so the path stays unvalidated.
        for _ in 0..1 + rng.gen_range(3) {
            let Some(d) = c.poll_transmit(now) else { break };
            s.handle_datagram_on_path(now, d, path);
            while s.poll_transmit(now).is_some() {}
            let p = s.path_state(path).expect("server tracks the new path");
            assert!(!p.validated, "path validated without a response");
            assert!(
                p.bytes_sent <= 3 * p.bytes_received,
                "sent {} > 3x received {}",
                p.bytes_sent,
                p.bytes_received
            );
        }
    });
}

#[test]
fn nat_rebind_without_notification_revalidates() {
    // NAT rebind: the client keeps sending, oblivious; the simulator
    // just delivers its packets on a new path id. The server must
    // notice, probe, and carry on.
    let (mut c, mut s) = migration_pair(2);
    run_handshake(&mut c, &mut s, SimDuration::ZERO);
    let now = at(500);
    c.send_stream_data(stream_id::CLIENT_BIDI_0, b"hello after rebind", true);
    pump_on_path(&mut c, &mut s, now, 4);
    assert_eq!(s.active_path(), 4);
    assert!(s.path_state(4).unwrap().validated);
    assert_eq!(
        s.log.count(|d| matches!(
            d,
            EventData::MigrationStarted {
                deliberate: false,
                ..
            }
        )),
        1
    );
}

/// Reference model of the amplification budget: connection-wide
/// counters and an address-validated flag beside entries for the paths
/// other than 0, each step applied the way the receive, send and
/// migration code applies it.
struct GlobalCounters {
    role: Role,
    migrates: bool,
    handshake_complete: bool,
    bytes_received: usize,
    bytes_sent: usize,
    address_validated: bool,
    paths: Vec<PathState>,
    active_path: u64,
    /// Path of the outstanding PATH_CHALLENGE.
    challenge: Option<u64>,
}

impl GlobalCounters {
    fn new(role: Role, migrates: bool) -> Self {
        GlobalCounters {
            role,
            migrates,
            handshake_complete: false,
            bytes_received: 0,
            bytes_sent: 0,
            address_validated: role == Role::Client,
            paths: Vec::new(),
            active_path: 0,
            challenge: None,
        }
    }

    fn ensure_path(&mut self, id: u64) -> &mut PathState {
        if let Some(i) = self.paths.iter().position(|p| p.id == id) {
            return &mut self.paths[i];
        }
        self.paths.push(PathState {
            id,
            ..PathState::default()
        });
        self.paths.last_mut().unwrap()
    }

    fn amplification_budget(&self) -> usize {
        if self.role == Role::Server && self.active_path != 0 {
            if let Some(p) = self.paths.iter().find(|p| p.id == self.active_path) {
                if !p.validated {
                    return (3 * p.bytes_received).saturating_sub(p.bytes_sent);
                }
            }
        }
        if self.address_validated {
            usize::MAX
        } else {
            (3 * self.bytes_received).saturating_sub(self.bytes_sent)
        }
    }

    fn send(&mut self, len: usize) {
        self.bytes_sent += len;
        if self.active_path != 0 {
            self.ensure_path(self.active_path).bytes_sent += len;
        }
    }

    fn receive(&mut self, path: u64, len: usize) {
        if path != self.active_path {
            self.active_path = path;
            if self.role == Role::Server && self.migrates && self.handshake_complete {
                if !(path == 0 || self.ensure_path(path).validated) {
                    self.challenge = Some(path);
                }
            } else if path != 0 {
                self.ensure_path(path).validated = true;
            }
        }
        self.bytes_received += len;
        if path != 0 {
            self.ensure_path(path).bytes_received += len;
        }
    }

    fn migrate(&mut self, path: u64) {
        if !self.handshake_complete || path == self.active_path {
            return;
        }
        self.active_path = path;
        if !self.ensure_path(path).validated {
            self.challenge = Some(path);
        }
    }
}

/// `Paths`, path 0 an ordinary entry, gives the reference model's budget
/// after every step of a random walk over sends and receives on paths
/// 0-4, route follows, peer path switches, migrations, PATH_RESPONSE
/// validation (and stale echoes), and Retry / Handshake address
/// validation, for both roles. Migrations go to paths 1-4, as every
/// caller's do: path 0 starts validated for a client, so moving back to
/// it skips the challenge the model would send.
#[test]
fn budget_matches_the_global_counters() {
    cases(256, |rng| {
        let cfg = EndpointConfig {
            cid_pool: 2 * rng.gen_range(2) as usize,
            ..EndpointConfig::rfc_default()
        };
        for role in [Role::Client, Role::Server] {
            let mut conn = match role {
                Role::Client => Connection::client(cfg.clone(), 1, false),
                Role::Server => {
                    let dcid = derived_cid(1, CID_KIND_ORIGINAL_DCID, 0);
                    Connection::server(cfg.clone(), 2, dcid)
                }
            };
            let mut oracle = GlobalCounters::new(role, cfg.cid_pool > 0);
            let now = at(0);
            for step in 0..48 {
                let path = rng.gen_range(5);
                let len = 1 + rng.gen_range(1500) as usize;
                match rng.gen_range(6) {
                    0 => {
                        conn.paths.on_sent(len);
                        oracle.send(len);
                    }
                    1 => {
                        conn.follow_datagram_path(now, path);
                        conn.paths.on_received(path, len);
                        oracle.receive(path, len);
                    }
                    2 if path != 0 => {
                        conn.migrate(now, path);
                        oracle.migrate(path);
                    }
                    3 => {
                        let stale = rng.gen_bool(0.25);
                        if let Some(data) = conn.paths.outstanding_probe() {
                            let data = data ^ stale as u64;
                            let frame = Frame::PathResponse { data };
                            conn.on_path_frame(now, &frame);
                            if !stale {
                                let path = oracle.challenge.take().unwrap();
                                oracle.ensure_path(path).validated = true;
                            }
                        }
                    }
                    // A valid Retry token.
                    4 => {
                        conn.paths.validate_address();
                        oracle.address_validated = true;
                    }
                    // A Handshake packet, then the handshake completes.
                    _ => {
                        conn.paths.validate_address();
                        conn.handshake_complete = true;
                        oracle.address_validated = true;
                        oracle.handshake_complete = true;
                    }
                }
                assert_eq!(
                    conn.amplification_budget(),
                    oracle.amplification_budget(),
                    "{role:?} step {step}"
                );
                assert_eq!(
                    conn.path_validation_pending(),
                    oracle.challenge.is_some(),
                    "{role:?} step {step}"
                );
            }
        }
    });
}
