//! Pins what a `Registry` looks like from outside: `server_load`'s
//! benchmark fingerprint hashes `format!("{:?}")` of a report that
//! embeds one, so neither the key type nor the histogram's storage may
//! show in `Debug` or `render()`.

use rq_obs::Registry;

fn sample() -> Registry {
    let mut r = Registry::new();
    r.add("quic/client/packets_lost", 3);
    r.gauge("server/active_conns", 2, 7);
    r.observe("load/lost_per_conn", 0);
    r.observe("load/lost_per_conn", 5);
    r
}

/// The same content through names built at run time, inserted in the
/// opposite order.
fn sample_owned() -> Registry {
    let mut r = Registry::new();
    let name = |parts: [&str; 2]| parts.join("/");
    r.observe(name(["load", "lost_per_conn"]), 5);
    r.observe(name(["load", "lost_per_conn"]), 0);
    r.gauge(name(["server", "active_conns"]), 2, 7);
    r.add(name(["quic/client", "packets_lost"]), 3);
    r
}

#[test]
fn debug_and_render_are_pinned() {
    let r = sample();
    let zeros = ", 0".repeat(61);
    assert_eq!(
        format!("{r:?}"),
        format!(
            "Registry {{ metrics: {{\"load/lost_per_conn\": Histogram(Histogram {{ count: 2, \
             sum: 5, min: 0, max: 5, buckets: [1, 0, 0, 1{zeros}] }}), \
             \"quic/client/packets_lost\": Counter(3), \
             \"server/active_conns\": Gauge {{ level: 2, peak: 7 }}}} }}"
        )
    );
    assert_eq!(
        r.render(),
        "load/lost_per_conn        n=2 min=0 p50<=0 p99<=5 max=5 mean=2.5\n\
         quic/client/packets_lost  3\n\
         server/active_conns       level=2 peak=7\n"
    );
}

#[test]
fn static_and_owned_names_build_the_same_registry() {
    let (a, b) = (sample(), sample_owned());
    assert_eq!(a, b);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.render(), b.render());
}

#[test]
fn merge_of_static_and_owned_is_commutative() {
    let (mut ab, mut ba) = (sample(), sample_owned());
    ab.merge(&sample_owned());
    ba.merge(&sample());
    assert_eq!(ab, ba);
    assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
    assert_eq!(ab.counter("quic/client/packets_lost"), 6);
}
