//! Each rule on the violation it was written against: the rule holds on
//! a small clean tree and fails, naming each `file:line`, once the
//! violation is put in.

use super::{replay, ENV_READERS};

#[test]
fn one_connection_driver_fails_on_a_second_driver() {
    const NODES: &str = "crates/testbed/src/nodes.rs";
    let clean = [
        (
            NODES,
            "fn pump(conn: &mut Connection) {
    while let Some(d) = conn.poll_transmit_with(now, ctx.spares()) {}
    *armed = conn.poll_timeout();
}
fn fire_if_due(conn: &mut Connection) {
    debug_assert_eq!(armed, conn.poll_timeout());
    conn.handle_timeout(now);
}
",
        ),
        // Table 4's one `poll_transmit(` arms a client's PTO; it drives nothing.
        (
            "crates/bench/src/tab4.rs",
            "fn tab4() { let _ = client.poll_transmit(now); }\n",
        ),
        (
            "crates/quic/src/connection/mod.rs",
            "pub fn certificate_ready(&mut self) {
    self.on_tls_event(now, ev, &mut Spares::default());
}
",
        ),
        (
            "crates/quic/src/connection/recv.rs",
            "pub fn handle_datagram(&mut self, data: &[u8]) {
    self.handle_datagram_on_path(now, data, 0, &mut Spares::default());
}
",
        ),
        (
            "crates/quic/src/connection/send.rs",
            "pub fn poll_transmit(&mut self) -> Option<Bytes> {
    self.poll_transmit_with(now, &mut Spares::default())
}
#[cfg(test)]
fn spare_less() { let _ = Spares::default(); }
",
        ),
    ];
    // A `poll_timeout(` added to the server's catch-up...
    replay(
        "One connection driver",
        &clean,
        &[(
            "crates/testbed/src/nodes/server.rs",
            "fn catch_up(conn: &Connection) {\n    let at = conn.poll_timeout();\n}\n",
        )],
        &["crates/testbed/src/nodes/server.rs:2"],
    );
    // ...Table 3 delivering to its connections itself...
    replay(
        "One connection driver",
        &clean,
        &[(
            "crates/bench/src/tab3.rs",
            "fn tab3() {\n    conn.handle_datagram(now, &d);\n    conn.handle_timeout(now);\n}\n",
        )],
        &["crates/bench/src/tab3.rs:2", "crates/bench/src/tab3.rs:3"],
    );
    // ...and `Spares::default()` in a fourth rq-quic function.
    replay(
        "One connection driver",
        &clean,
        &[(
            "crates/quic/src/connection/timers.rs",
            "pub fn on_timeout(&mut self) {\n    self.fire(&mut Spares::default());\n}\n",
        )],
        &["crates/quic/src/connection/timers.rs:2"],
    );
}

#[test]
fn one_counting_allocator_fails_on_a_second_allocator_or_proptest() {
    let clean = [
        (
            "crates/testkit/src/alloc.rs",
            "unsafe impl GlobalAlloc for Counting {}\n",
        ),
        (
            "crates/sim/Cargo.toml",
            "[dev-dependencies]\nrq-testkit.workspace = true\n",
        ),
    ];
    replay(
        "One counting allocator",
        &clean,
        &[(
            "crates/quic/tests/alloc_ceilings.rs",
            "struct Mine;\nunsafe impl GlobalAlloc for Mine {}\n",
        )],
        &["crates/quic/tests/alloc_ceilings.rs:2"],
    );
    replay(
        "One counting allocator",
        &clean,
        &[(
            "crates/sim/Cargo.toml",
            "[dev-dependencies]\nproptest = \"1\"\n",
        )],
        &["crates/sim/Cargo.toml:2"],
    );
}

#[test]
fn no_unsafe_fails_on_a_lib_without_the_forbid_or_unsafe_in_a_comment() {
    let clean = [
        (
            "crates/sim/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod engine;\n",
        ),
        ("crates/sim/src/engine.rs", "pub struct Network;\n"),
        ("crates/testkit/src/lib.rs", "pub mod alloc;\n"),
        (
            "crates/testkit/src/alloc.rs",
            "unsafe impl GlobalAlloc for Counting {}\n",
        ),
    ];
    replay(
        "No unsafe outside rq-testkit",
        &clean,
        &[(
            "crates/sim/src/lib.rs",
            "// #![forbid(unsafe_code)]\npub mod engine;\n",
        )],
        &["crates/sim/src/lib.rs:1"],
    );
    replay(
        "No unsafe outside rq-testkit",
        &clean,
        &[(
            "crates/sim/src/engine.rs",
            "/// Nothing unsafe here.\npub struct Network;\n",
        )],
        &["crates/sim/src/engine.rs:1"],
    );
}

#[test]
fn env_knobs_fail_on_a_third_reader() {
    let clean = [
        (
            ENV_READERS[0],
            "fn threads() -> usize { parse(std::env::var(THREADS_ENV)) }\n",
        ),
        (
            ENV_READERS[1],
            "fn from_env() -> Self { Self::parse(|v| std::env::var(v)) }\n",
        ),
    ];
    replay(
        "Env knobs",
        &clean,
        &[(
            "crates/obs/src/logger.rs",
            "fn level() -> Level {\n    parse(std::env::var(\"REACKED_LOG\"))\n}\n",
        )],
        &["crates/obs/src/logger.rs:2"],
    );
}

#[test]
fn one_byte_buffer_fails_on_a_second_buffer_type() {
    let clean = [(
        "vendor/bytes/src/lib.rs",
        "/// Written in place: no `BytesMut`, no `.freeze()`.\npub struct Bytes;\n",
    )];
    replay(
        "One byte buffer",
        &clean,
        &[(
            "crates/tls/src/session.rs",
            "fn take_output() -> Bytes {\n    let b = BytesMut::new();\n    b.freeze()\n}\n",
        )],
        &["crates/tls/src/session.rs:2", "crates/tls/src/session.rs:3"],
    );
}

#[test]
fn one_event_queue_fails_on_a_heap_outside_the_queue() {
    let clean = [
        (
            "crates/sim/src/engine/queue.rs",
            "use std::collections::binary_heap::{BinaryHeap, PeekMut};
pub struct Queue { runs: BinaryHeap<Run> }
fn new() -> Queue { Queue { runs: BinaryHeap::new() } }
",
        ),
        (
            "crates/sim/src/engine.rs",
            "pub struct Network { queue: Queue }
#[cfg(test)]
mod tests {
    use std::collections::BinaryHeap;
}
",
        ),
    ];
    replay(
        "One event queue",
        &clean,
        &[(
            "crates/sim/src/engine.rs",
            "pub struct Network {\n    queue: BinaryHeap<Event>,\n}\n",
        )],
        &["crates/sim/src/engine.rs:2"],
    );
}

#[test]
fn paths_owner_fails_on_path_state_outside_paths() {
    let clean = [(
        "crates/quic/src/connection/send.rs",
        "fn on_sent(&mut self) {\n    self.paths.on_sent(len);\n}\n",
    )];
    replay(
        "One owner for a connection's paths",
        &clean,
        &[(
            "crates/quic/src/connection/send.rs",
            "fn on_sent(&mut self) {\n    let p = self.active_path;\n}\n",
        )],
        &["crates/quic/src/connection/send.rs:2"],
    );
}

#[test]
fn handshake_owner_fails_on_a_handshake_field_in_connection() {
    const MOD: &str = "crates/quic/src/connection/mod.rs";
    let clean = [(
        MOD,
        "pub struct Connection {
    /// The Retry token and the spaces live in `Handshake`.
    handshake: Option<Box<Handshake>>,
    paths: Paths,
}
pub fn client(token: Bytes, spaces: [Space; 3]) -> Connection {
    todo!()
}
",
    )];
    replay(
        "One owner for a connection's handshake",
        &clean,
        &[(
            MOD,
            "pub struct Connection {\n    handshake: Option<Box<Handshake>>,\n    iack_received: bool,\n}\n",
        )],
        &["crates/quic/src/connection/mod.rs:3"],
    );
    replay(
        "One owner for a connection's handshake",
        &clean,
        &[(
            MOD,
            "pub struct Connection {\n    pub(crate) spaces: [Space; 3],\n}\n",
        )],
        &["crates/quic/src/connection/mod.rs:2"],
    );
}

#[test]
fn closed_sets_fail_on_a_trait_object() {
    const ENGINE: &str = "crates/sim/src/engine.rs";
    let clean = [(
        ENGINE,
        "pub struct Network<N: Node = Box<dyn Node>> {
    nodes: Vec<N>,
}
fn show(out: &mut dyn fmt::Write, e: &dyn std::fmt::Debug) {}
",
    )];
    // A `Box<dyn Node>` node slot...
    replay(
        "Closed sets are values",
        &clean,
        &[(
            ENGINE,
            "pub struct Network<N: Node = Box<dyn Node>> {\n    nodes: Vec<Box<dyn Node>>,\n}\n",
        )],
        &["crates/sim/src/engine.rs:2"],
    );
    // ...and a `&dyn rq_sim::Node` parameter.
    replay(
        "Closed sets are values",
        &clean,
        &[(
            "crates/testbed/src/nodes.rs",
            "fn drive(node: &dyn rq_sim::Node) {}\n",
        )],
        &["crates/testbed/src/nodes.rs:1"],
    );
}

#[test]
fn one_deterministic_loss_fails_on_an_optional_mask_or_a_drop_list() {
    let clean = [
        (
            "crates/sim/src/loss.rs",
            "pub struct DropIndices { mask: u64 }\n",
        ),
        (
            "crates/sim/src/link.rs",
            "pub struct Link { loss: DropIndices }\n",
        ),
    ];
    replay(
        "One deterministic loss",
        &clean,
        &[(
            "crates/sim/src/link.rs",
            "pub struct Link { loss: Option<DropIndices> }\n",
        )],
        &["crates/sim/src/link.rs:1"],
    );
    replay(
        "One deterministic loss",
        &clean,
        &[(
            "crates/sim/src/loss.rs",
            "pub struct DropList { drops: Vec<u32> }
fn dropped(l: &DropList, i: u32) -> bool { l.drops.contains(&i) }
",
        )],
        &["crates/sim/src/loss.rs:1", "crates/sim/src/loss.rs:2"],
    );
}

#[test]
fn one_kept_value_fails_on_a_second_thread_local() {
    const LOAD: &str = "crates/testbed/src/server_load.rs";
    let clean = [
        (
            LOAD,
            "thread_local! {\n    static WORKER: Cell<Option<Worker>> = Cell::new(None);\n}\n",
        ),
        (
            "crates/testkit/src/alloc.rs",
            "thread_local! { static TALLY: Cell<u64> = Cell::new(0); }\n",
        ),
    ];
    replay(
        "One kept value",
        &clean,
        &[(
            LOAD,
            "thread_local! {
    static NET: Cell<Option<Network>> = Cell::new(None);
}
thread_local! {
    static RESPONSES: Cell<Option<ResponseCache>> = Cell::new(None);
}
",
        )],
        &[
            "crates/testbed/src/server_load.rs:1",
            "crates/testbed/src/server_load.rs:4",
        ],
    );
}

#[test]
fn nodes_own_their_state_fails_on_a_shared_cell() {
    const CLIENT: &str = "crates/testbed/src/nodes/client.rs";
    let clean = [
        (
            CLIENT,
            "pub struct ClientNode {\n    pub conn: Rc<RefCell<Connection>>,\n}\n",
        ),
        (
            "crates/testbed/src/nodes/server.rs",
            "pub struct ServerNode {
    pub engine: Rc<RefCell<ServerEngine>>,
    pub control: Rc<RefCell<ServerControl>>,
}
",
        ),
        (
            "crates/testbed/src/server_load.rs",
            "fn drive(net: &mut Network) {}\n",
        ),
    ];
    replay(
        "Nodes own their state",
        &clean,
        &[(
            "crates/testbed/src/server_load.rs",
            "use std::rc::Rc;\nfn drive(net: &mut Network) {}\n",
        )],
        &["crates/testbed/src/server_load.rs:1"],
    );
    replay(
        "Nodes own their state",
        &clean,
        &[(
            CLIENT,
            "pub struct ClientNode {
    pub conn: Rc<RefCell<Connection>>,
    status: Rc<RefCell<ClientStatus>>,
}
",
        )],
        &["crates/testbed/src/nodes/client.rs:3"],
    );
}

#[test]
fn one_config_per_endpoint_fails_on_a_copied_config_or_a_tls_knob() {
    const SERVER: &str = "crates/quic/src/server.rs";
    let clean = [(
        SERVER,
        "pub struct ServerEngine {
    template: Rc<EndpointConfig>,
}
impl ServerEngine {
    pub fn new(
        template: EndpointConfig,
    ) -> Self {
        todo!()
    }
}
",
    )];
    replay(
        "One config per endpoint",
        &clean,
        &[(
            SERVER,
            "pub struct ServerEngine {\n    template: EndpointConfig,\n}\n",
        )],
        &["crates/quic/src/server.rs:2"],
    );
    replay(
        "One config per endpoint",
        &clean,
        &[(
            "crates/testbed/src/nodes/client.rs",
            "pub(crate) struct ClientNode {\n    pub cfg: rq_quic::EndpointConfig, // copied\n}\n",
        )],
        &["crates/testbed/src/nodes/client.rs:2"],
    );
    replay(
        "One config per endpoint",
        &clean,
        &[(
            "crates/tls/src/session.rs",
            "pub struct TlsConfig { pub client_hello_len: usize }\n",
        )],
        &["crates/tls/src/session.rs:1"],
    );
}

#[test]
fn one_ticket_key_fails_on_a_key_schedule_or_a_freeze() {
    let clean = [(
        "crates/tls/src/ticket.rs",
        "pub const TICKET_KEY: [u8; 16] = [7; 16];\n",
    )];
    replay(
        "One ticket key, no frozen server",
        &clean,
        &[(
            "crates/quic/src/server.rs",
            "pub struct TicketKeySchedule;\n/// Whether the server is frozen.\nfn is_up() {}\n",
        )],
        &["crates/quic/src/server.rs:1", "crates/quic/src/server.rs:2"],
    );
}

#[test]
fn one_sweep_shape_fails_on_a_second_runner_call_or_a_retired_helper() {
    const PAIRS: &str = "crates/bench/src/pairs.rs";
    let clean = [(
        PAIRS,
        "pub(crate) fn fig16(cfg: &RunConfig) {
    let runs = cfg.runner.map(&repetitions(&cells, cfg.reps), run_lean);
}
fn fig17(cfg: &RunConfig) {
    scan_with(&pop, &cfg.runner);
}
#[cfg(test)]
mod tests {
    fn t() { cfg.runner.threads(); cfg.runner.threads(); }
}
",
    )];
    // A second `cfg.runner.map` in fig16, the way rustfmt splits it.
    replay(
        "One sweep shape",
        &clean,
        &[(
            PAIRS,
            "pub(crate) fn fig16(cfg: &RunConfig) {
    let runs = cfg.runner.map(&repetitions(&cells, cfg.reps), run_lean);
    let ptos = cfg
        .runner
        .map(&jobs, |sc| run_scenario(sc).first_pto_ms);
}
",
        )],
        &["crates/bench/src/pairs.rs:2"],
    );
    replay(
        "One sweep shape",
        &clean,
        &[("examples/quickstart.rs", "fn main() { run_pair(&sc); }\n")],
        &["examples/quickstart.rs:1"],
    );
}

#[test]
fn source_file_size_fails_on_a_file_over_1000_lines() {
    const TESTS: &str = "crates/quic/src/connection/tests.rs";
    let (full, over) = ("\n".repeat(1000), "\n".repeat(1001));
    replay(
        "Source file size",
        &[(TESTS, &full)],
        &[(TESTS, &over)],
        &["crates/quic/src/connection/tests.rs:1001"],
    );
}

#[test]
fn no_new_libm_call_fails_on_a_new_call_and_on_a_stale_count() {
    const CC: &str = "crates/recovery/src/congestion.rs";
    const RNG: &str = "crates/sim/src/rng.rs";
    let clean = [
        (
            CC,
            "fn w(t: f64) -> f64 { (t - k).powi(3) }\nfn k(w: f64) -> f64 { w.cbrt() }\n",
        ),
        (
            RNG,
            "fn normal(&self) -> f64 { (-2.0 * self.u1.ln()).sqrt() * self.u2.cos() }
fn lognormal(&self) -> f64 { (s * self.normal()).exp() }
fn gen_exp(&self, u: f64) -> f64 { -mean * u.ln() }
#[cfg(test)]
fn oracle(x: f64) -> f64 { x.exp() }
",
        ),
        (
            "crates/wild/src/longitudinal.rs",
            "fn hit(x: f64) -> f64 { 1.0 - (-x).exp() }\nfn delta(p: f64) -> f64 { p.cos() }\n",
        ),
    ];
    replay(
        "No new libm call",
        &clean,
        &[(
            "crates/wild/src/probe.rs",
            "fn draw(x: f64) -> f64 { x.powf(1.5) }\n",
        )],
        &["crates/wild/src/probe.rs:1"],
    );
    replay(
        "No new libm call",
        &clean,
        &[(
            CC,
            "fn w(t: f64) -> f64 { (t - k).powi(3) }\nfn k(w: f64) -> f64 { w.cbrt() }\nfn e(x: f64) -> f64 { x.exp() }\n",
        )],
        &[
            "crates/recovery/src/congestion.rs:1",
            "crates/recovery/src/congestion.rs:2",
            "crates/recovery/src/congestion.rs:3",
        ],
    );
    // A call moved to exact arithmetic leaves the list: the count shrinks.
    replay(
        "No new libm call",
        &clean,
        &[(
            RNG,
            "fn normal(&self) -> f64 { (-2.0 * self.u1.ln()).sqrt() * self.u2.cos() }
fn lognormal(&self) -> f64 { (s * self.normal()).exp() }
fn gen_exp(&self, u: f64) -> f64 { -mean * ln(u) }
",
        )],
        &["No new libm call (ROADMAP 13(c))"],
    );
}
