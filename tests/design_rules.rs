//! The design rules: how the code that produces the paper's numbers is
//! built (ROADMAP items 2, 6, 7, 9, 10, 12, 13, 15, 16 and 18).
//!
//! The goldens pin what the code computes; these rules pin the shape that
//! keeps it small: one connection driver, one event queue, closed sets as
//! values, one kept value and the rest of [`rules`]. A rule names the
//! ROADMAP item it holds and is a list of checks. A check reads a set of
//! files one of two ways ([`Reading`]), counts patterns on each line
//! ([`Pat`]) and says where they may occur ([`Expect`]). A failure names
//! the file, the line and the rule. Each rule has a test below that
//! replays the violation it was written against on a synthetic tree.
//!
//! `cargo test --test design_rules` runs them all.

mod rust_source;

use std::collections::BTreeMap;
use std::fs;
use std::sync::OnceLock;

use rust_source::{is_tests_file, non_test_code, root, rs_files, words, ENV_READERS};

#[path = "design_rules/replays.rs"]
mod replays;

/// How a check reads a file.
#[derive(Clone, Copy)]
enum Reading {
    /// Its non-test code, as [`non_test_code`] leaves it: comments,
    /// literals and `#[cfg(test)]` items blanked, nothing of a `tests.rs`.
    Code,
    /// The whole file: comments, literals and tests included.
    Whole,
}

/// What a check counts on a line.
#[derive(Clone, Copy, Debug)]
enum Pat {
    /// This text.
    Text(&'static str),
    /// This identifier, as a whole word.
    Word(&'static str),
    /// This text where none of these follows it.
    TextUnless(&'static str, &'static [&'static str]),
    /// The declaration of a field of this name: `name:`, after any
    /// visibility.
    Field(&'static str),
}

impl Pat {
    /// How often the pattern occurs on `line`.
    fn count(self, line: &str) -> usize {
        match self {
            Pat::Text(text) => line.matches(text).count(),
            Pat::Word(word) => words(line).iter().filter(|w| w.1 == word).count(),
            Pat::TextUnless(text, unless) => line
                .match_indices(text)
                .filter(|&(at, _)| {
                    let rest = &line[at + text.len()..];
                    !unless.iter().any(|u| rest.starts_with(u))
                })
                .count(),
            Pat::Field(name) => {
                let rest = past_visibility(line.trim_start()).strip_prefix(name);
                let rest = rest.map(str::trim_start).unwrap_or_default();
                usize::from(rest.starts_with(':') && !rest.starts_with("::"))
            }
        }
    }
}

/// `item` without a leading `pub` or `pub(..)`.
fn past_visibility(item: &str) -> &str {
    if item.starts_with("pub(") {
        item.split_once(')')
            .map_or(item, |(_, rest)| rest.trim_start())
    } else {
        item.strip_prefix("pub ").unwrap_or(item)
    }
}

/// Where a pattern may occur.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// Anywhere in this file.
    File(&'static str),
    /// In a function of this name, in any file the check reads.
    Fn(&'static str),
    /// On the line of this file that reads exactly so.
    Line(&'static str, &'static str),
}

impl Site {
    fn holds(self, hit: &Hit) -> bool {
        match self {
            Site::File(path) => hit.path == path,
            Site::Fn(name) => hit.func == Some(name),
            Site::Line(path, text) => hit.path == path && hit.text.trim_end() == text,
        }
    }
}

/// What a check asks of its patterns' occurrences.
enum Expect {
    /// Exactly the listed number at each site and none anywhere else (so
    /// none at all without sites). A site whose count falls fails too:
    /// the list may shrink, never grow.
    At(Vec<(Site, usize)>),
    /// At most this many in any one function.
    PerFn(usize),
    /// At least one in every file.
    EveryFile,
    /// No file of more lines than this.
    MaxLines(usize),
}

/// One check of a rule.
struct Check {
    /// What it reads, relative to the root: a file or a directory, `*`
    /// standing for one path component; a leading `!` leaves one out.
    files: &'static [&'static str],
    reading: Reading,
    /// Only lines inside the body of a column-0 item whose header, past
    /// its visibility, starts so and ends in `{`.
    within: Option<&'static str>,
    pats: Vec<Pat>,
    expect: Expect,
}

/// A check of `pats` in `files`, read as `reading`, that asks `expect`.
fn check(files: &'static [&'static str], reading: Reading, pats: &[Pat], expect: Expect) -> Check {
    Check {
        files,
        reading,
        within: None,
        pats: pats.to_vec(),
        expect,
    }
}

/// A check that `pats` never occur in `files`.
fn never(files: &'static [&'static str], reading: Reading, pats: &[Pat]) -> Check {
    check(files, reading, pats, Expect::At(Vec::new()))
}

/// A check that no name of a retired list comes back anywhere in `files`.
fn retired(files: &'static [&'static str], names: &[&'static str]) -> Check {
    let pats: Vec<Pat> = names.iter().map(|&n| Pat::Text(n)).collect();
    never(files, Reading::Whole, &pats)
}

/// A check that no function in `files` holds `pats` more than `n` times.
fn per_fn(files: &'static [&'static str], reading: Reading, pats: &[Pat], n: usize) -> Check {
    check(files, reading, pats, Expect::PerFn(n))
}

/// A check that every file of `files` holds `pats`.
fn in_every_file(files: &'static [&'static str], reading: Reading, pats: &[Pat]) -> Check {
    check(files, reading, pats, Expect::EveryFile)
}

/// A check that no `.rs` file of `files` is longer than `n` lines.
fn max_lines(files: &'static [&'static str], n: usize) -> Check {
    check(files, Reading::Whole, &[], Expect::MaxLines(n))
}

impl Check {
    /// ...but for exactly so many at these sites.
    fn except(self, sites: &[(Site, usize)]) -> Check {
        Check {
            expect: Expect::At(sites.to_vec()),
            ..self
        }
    }

    /// ...counting only inside the bodies of `header` items.
    fn within(self, header: &'static str) -> Check {
        Check {
            within: Some(header),
            ..self
        }
    }
}

/// One design rule: its name, the ROADMAP item it holds, its checks.
struct Rule {
    name: &'static str,
    item: &'static str,
    checks: Vec<Check>,
}

/// The design rules.
fn rules() -> Vec<Rule> {
    use Pat::{Field, Text, TextUnless, Word};
    use Reading::{Code, Whole};
    use Site::{File, Fn, Line};
    const CRATES: &[&str] = &["crates/*/src"];
    const TESTBED: &[&str] = &["crates/testbed/src"];
    const NODES: &str = "crates/testbed/src/nodes.rs";
    vec![
        // rq-testbed drives every connection through the one ConnDriver
        // in nodes.rs, which sends through `poll_transmit_with` into the
        // network's spare storage and computes a deadline where a pump
        // arms it and in the debug check of the armed slot. rq-bench's
        // experiments run on the testbed's network. In rq-quic a datagram
        // is built without the caller's spares only in the three entry
        // points that have none to pass.
        Rule {
            name: "One connection driver",
            item: "6",
            checks: vec![
                never(TESTBED, Whole, &[Text("poll_transmit_with(")]).except(&[(File(NODES), 1)]),
                never(TESTBED, Whole, &[Text("handle_timeout(")]).except(&[(File(NODES), 1)]),
                never(TESTBED, Whole, &[Text("poll_transmit(")]),
                never(TESTBED, Whole, &[Text("poll_timeout(")]).except(&[(File(NODES), 2)]),
                never(
                    &["crates/bench/src"],
                    Whole,
                    &[Text("handle_datagram("), Text("handle_timeout(")],
                ),
                never(&["crates/quic/src"], Code, &[Text("Spares::default()")]).except(&[
                    (Fn("certificate_ready"), 1),
                    (Fn("handle_datagram"), 1),
                    (Fn("poll_transmit"), 1),
                ]),
            ],
        },
        // The allocation-ceiling suites share rq-testkit's counting
        // allocator, and property tests run on rq-testkit's `cases`.
        Rule {
            name: "One counting allocator",
            item: "10",
            checks: vec![
                never(&["crates"], Whole, &[Text("unsafe impl GlobalAlloc")])
                    .except(&[(File("crates/testkit/src/alloc.rs"), 1)]),
                retired(
                    &[
                        "Cargo.toml",
                        "crates/*/Cargo.toml",
                        "vendor/*/Cargo.toml",
                        "benchmark/Cargo.toml",
                    ],
                    &["proptest"],
                ),
            ],
        },
        // `unsafe` lives only in rq-testkit, for its counting allocator;
        // every other crate forbids it and names it nowhere, not even in
        // a comment.
        Rule {
            name: "No unsafe outside rq-testkit",
            item: "12(c)",
            checks: vec![
                in_every_file(
                    &["crates/*/src/lib.rs", "!crates/testkit"],
                    Code,
                    &[Text("#![forbid(unsafe_code)]")],
                ),
                never(
                    &["crates/*/src", "!crates/testkit"],
                    Whole,
                    &[Word("unsafe")],
                ),
            ],
        },
        // The environment is read in two places, once each: rq-par's
        // REACKED_THREADS and rq-bench's RunConfig.
        Rule {
            name: "Env knobs",
            item: "6(e)",
            checks: vec![never(CRATES, Whole, &[Text("env::var")])
                .except(&ENV_READERS.map(|path| (File(path), 1)))],
        },
        // One byte buffer: shared bytes are `Bytes`, bytes of known length
        // are written in place by `Bytes::build`, bytes of unknown length
        // grow in a `Vec<u8>`; nothing builds in a second type and copies.
        Rule {
            name: "One byte buffer",
            item: "6(d)",
            checks: vec![never(
                &["crates/*/src", "vendor/*/src"],
                Code,
                &[
                    Text("BytesMut"),
                    Text(".freeze()"),
                    Text("Bytes::from(vec!["),
                ],
            )],
        },
        // The simulator's events wait in `engine/queue.rs`, whose heap
        // orders runs of same-instant events; nothing else keeps a heap.
        Rule {
            name: "One event queue",
            item: "2",
            checks: vec![never(&["crates/sim/src"], Code, &[Text("BinaryHeap")])
                .except(&[(File("crates/sim/src/engine/queue.rs"), 3)])],
        },
        // Every path, the amplification budget over them, the CIDs and
        // path validation live in `Paths` (connection/path.rs); the rest
        // of the connection names none of that state.
        Rule {
            name: "One owner for a connection's paths",
            item: "6(a)",
            checks: vec![never(
                &[
                    "crates/quic/src/connection/mod.rs",
                    "crates/quic/src/connection/send.rs",
                    "crates/quic/src/connection/recv.rs",
                    "crates/quic/src/connection/timers.rs",
                ],
                Whole,
                &[
                    "active_path",
                    "peer_cid_pool",
                    "peer_cid_seq",
                    "pending_new_cids",
                    "pending_retire_cids",
                    "pending_path_response",
                    "path_challenge",
                    "amp_blocked_logged",
                    "cid_seed",
                ]
                .map(Word),
            )],
        },
        // What is read only before confirmation, the Initial and Handshake
        // spaces included, lives in the boxed `Handshake` that
        // confirmation drops; `Connection` declares none of it, and no
        // confirmed flag beside it.
        Rule {
            name: "One owner for a connection's handshake",
            item: "7(a)",
            checks: vec![never(
                &["crates/quic/src/connection/mod.rs"],
                Whole,
                &[
                    Field("spaces"),
                    Field("handshake_confirmed"),
                    Field("iack_received"),
                    Field("initial_ping_pns"),
                    Field("ping_reply_drop_budget"),
                    Field("initial_crypto_copy"),
                    Field("flight2_sent"),
                    Field("token"),
                    Field("retry_sent"),
                    Field("waiting_for_cert"),
                    Field("early_rejected"),
                    Field("pending_packets"),
                    Field("first_send_at"),
                    Text("[Space; 3]"),
                ],
            )
            .within("struct Connection {")],
        },
        // A behaviour picked from a closed set is a value, not a trait
        // object; the one left is `Network`'s default node parameter,
        // which rq-layers builds its networks on.
        Rule {
            name: "Closed sets are values",
            item: "6",
            checks: vec![never(
                CRATES,
                Whole,
                &[TextUnless("dyn ", &["fmt::", "std::fmt::"])],
            )
            .except(&[(
                Line(
                    "crates/sim/src/engine.rs",
                    "pub struct Network<N: Node = Box<dyn Node>> {",
                ),
                1,
            )])],
        },
        // A link's drop mask is one `Copy` value, never optional, and
        // `loss.rs` keeps no list to search.
        Rule {
            name: "One deterministic loss",
            item: "15(a)",
            checks: vec![
                never(CRATES, Whole, &[Text("Option<DropIndices>")]),
                never(
                    &["crates/sim/src/loss.rs"],
                    Whole,
                    &[Text("Vec"), Text("to_vec"), Text("contains(")],
                ),
            ],
        },
        // What a thread's drives reuse is its worker, one `thread_local!`
        // in server_load.rs; the other is the counting allocator's tally.
        Rule {
            name: "One kept value",
            item: "18",
            checks: vec![never(
                &["crates/*/src", "!crates/testkit/src/alloc.rs"],
                Whole,
                &[Text("thread_local!")],
            )
            .except(&[(File("crates/testbed/src/server_load.rs"), 1)])],
        },
        // The network owns every testbed node by value; the driver and
        // the runner share no cell with one. The only shared cells left
        // are the three fields rq-layers clones.
        Rule {
            name: "Nodes own their state",
            item: "9",
            checks: vec![
                never(
                    &[
                        "crates/testbed/src/server_load.rs",
                        "crates/testbed/src/runner.rs",
                    ],
                    Whole,
                    &[Word("Rc"), Word("RefCell")],
                ),
                never(TESTBED, Whole, &[Text("Rc<RefCell")]).except(&[
                    (
                        Line(
                            "crates/testbed/src/nodes/client.rs",
                            "    pub conn: Rc<RefCell<Connection>>,",
                        ),
                        1,
                    ),
                    (
                        Line(
                            "crates/testbed/src/nodes/server.rs",
                            "    pub engine: Rc<RefCell<ServerEngine>>,",
                        ),
                        1,
                    ),
                    (
                        Line(
                            "crates/testbed/src/nodes/server.rs",
                            "    pub control: Rc<RefCell<ServerControl>>,",
                        ),
                        1,
                    ),
                ]),
            ],
        },
        // Connections share their endpoint's `EndpointConfig` (an `Rc`)
        // instead of copying it, and the single-value TLS knobs are
        // constants.
        Rule {
            name: "One config per endpoint",
            item: "7(b)",
            checks: vec![
                never(
                    CRATES,
                    Whole,
                    &[
                        Word("accept_ticket_keys"),
                        Word("cert_preprovisioned"),
                        Word("client_hello_len"),
                    ],
                ),
                never(
                    &["crates/quic/src", "crates/testbed/src"],
                    Whole,
                    &[Text(": EndpointConfig,"), Text("::EndpointConfig,")],
                )
                .within("struct "),
            ],
        },
        // A server has one ticket key and never freezes: no experiment
        // rotated keys, forgot them in a crash or froze a server.
        Rule {
            name: "One ticket key, no frozen server",
            item: "16(c)",
            checks: vec![retired(
                CRATES,
                &[
                    "TicketKeySchedule",
                    "TicketKeys",
                    "overlap_epochs",
                    "rotation_period",
                    "forget_ticket_epochs",
                    "Freeze",
                    "frozen",
                    "FAULT_THAW",
                ],
            )],
        },
        // A table lists its cells and runs them in one `SweepRunner::map`
        // over their `repetitions`; the per-cell sweep helpers are gone,
        // and no function in rq-bench names the runner twice.
        Rule {
            name: "One sweep shape",
            item: "6",
            checks: vec![
                retired(
                    &[
                        "crates/*/src",
                        "crates/*/tests",
                        "tests",
                        "examples",
                        "!tests/design_rules.rs",
                        "!tests/design_rules",
                    ],
                    &[
                        "SweepScenarios",
                        "run_repetitions",
                        "MatrixCell",
                        "ttfbs_ms",
                        "run_pair",
                        "wfc_iack_pair",
                        "median_ttfb",
                    ],
                ),
                per_fn(&["crates/bench/src"], Code, &[Text("runner")], 1),
            ],
        },
        // No source or test file over 1,000 lines.
        Rule {
            name: "Source file size",
            item: "6",
            checks: vec![max_lines(
                &[
                    "crates/*/src",
                    "crates/*/tests",
                    "vendor/*/src",
                    "tests",
                    "examples",
                    "benchmark/src",
                ],
                1000,
            )],
        },
        // The simulation's results must not hang on the platform's libm,
        // which need not round correctly: no call is added to these,
        // which wait to move to exact arithmetic. `sqrt` is exact.
        Rule {
            name: "No new libm call",
            item: "13(c)",
            checks: vec![never(
                &["crates/*/src", "vendor/*/src"],
                Code,
                &[".ln(", ".exp(", ".cos(", ".cbrt(", ".powi(", ".powf("].map(Text),
            )
            .except(&[
                (File("crates/recovery/src/congestion.rs"), 2),
                (File("crates/sim/src/rng.rs"), 4),
                (File("crates/wild/src/longitudinal.rs"), 2),
            ])],
        },
    ]
}

/// A source tree: each file's path relative to the root, with its text
/// and its non-test code (empty for a `tests.rs` and for a manifest).
struct Tree(BTreeMap<String, (String, String)>);

impl Tree {
    fn new(files: impl IntoIterator<Item = (String, String)>) -> Tree {
        Tree(
            files
                .into_iter()
                .map(|(path, text)| {
                    let rust = path.ends_with(".rs") && !is_tests_file(path.as_ref());
                    let code = if rust {
                        non_test_code(&text)
                    } else {
                        String::new()
                    };
                    (path, (text, code))
                })
                .collect(),
        )
    }

    /// A tree of these files.
    fn of(files: &[(&str, &str)]) -> Tree {
        Tree::new(files.iter().map(|&(p, t)| (p.to_string(), t.to_string())))
    }

    /// The repository's sources and manifests, read once.
    fn repo() -> &'static Tree {
        static REPO: OnceLock<Tree> = OnceLock::new();
        REPO.get_or_init(|| {
            let dirs = ["crates", "vendor", "tests", "examples", "benchmark/src"];
            let mut paths: Vec<_> = dirs
                .iter()
                .flat_map(|d| rs_files(&root().join(d)))
                .collect();
            paths.push(root().join("Cargo.toml"));
            paths.push(root().join("benchmark/Cargo.toml"));
            for dir in ["crates", "vendor"] {
                for entry in fs::read_dir(root().join(dir)).unwrap() {
                    let manifest = entry.unwrap().path().join("Cargo.toml");
                    if manifest.is_file() {
                        paths.push(manifest);
                    }
                }
            }
            Tree::new(paths.iter().map(|p| {
                let rel = p.strip_prefix(root()).unwrap().to_string_lossy();
                (rel.into_owned(), fs::read_to_string(p).unwrap())
            }))
        })
    }
}

/// Whether `glob` (components, `*` for any one) names `path` or a
/// directory above it.
fn names(glob: &str, path: &str) -> bool {
    let (glob, path): (Vec<&str>, Vec<&str>) =
        (glob.split('/').collect(), path.split('/').collect());
    glob.len() <= path.len() && glob.iter().zip(&path).all(|(g, p)| *g == "*" || g == p)
}

/// Lines of one file that hold a check's patterns.
struct Hit<'a> {
    path: &'a str,
    line: usize,
    /// The function the line is in: the last `fn` declared above it.
    func: Option<&'a str>,
    n: usize,
    /// The line as written.
    text: &'a str,
}

/// The function `line` declares, if any: `fn name(` or `fn name<`.
fn declared_fn(line: &str) -> Option<&str> {
    let w = words(line);
    w.windows(2).find_map(|p| {
        let ((at, word), (name_at, name)) = (p[0], p[1]);
        let after = line[name_at + name.len()..].chars().next();
        (word == "fn"
            && line[at + 2..name_at].trim().is_empty()
            && matches!(after, Some('(' | '<')))
        .then_some(name)
    })
}

impl Check {
    /// The files of `tree` the check reads.
    fn read<'t>(&self, tree: &'t Tree) -> Vec<(&'t str, &'t str, &'t str)> {
        let (out, keep): (Vec<&str>, Vec<&str>) =
            self.files.iter().partition(|g| g.starts_with('!'));
        tree.0
            .iter()
            .filter(|(path, _)| {
                keep.iter().any(|g| names(g, path)) && !out.iter().any(|g| names(&g[1..], path))
            })
            .map(|(path, (text, code))| {
                let body = match self.reading {
                    Reading::Code => code,
                    Reading::Whole => text,
                };
                (path.as_str(), text.as_str(), body.as_str())
            })
            .collect()
    }

    /// Every line of `files` that holds a pattern, in scope.
    fn hits<'t>(&self, files: &[(&'t str, &'t str, &'t str)]) -> Vec<Hit<'t>> {
        let mut out = Vec::new();
        for &(path, text, body) in files {
            let (mut func, mut inside) = (None, false);
            for (k, (line, shown)) in body.lines().zip(text.lines()).enumerate() {
                func = declared_fn(line).or(func);
                let header = self.within.is_some_and(|h| {
                    !line.starts_with(char::is_whitespace)
                        && past_visibility(line).starts_with(h)
                        && line.trim_end().ends_with('{')
                });
                if line.starts_with('}') {
                    inside = false;
                }
                let n: usize = self.pats.iter().map(|p| p.count(line)).sum();
                if n > 0 && (self.within.is_none() || inside) {
                    out.push(Hit {
                        path,
                        line: k + 1,
                        func,
                        n,
                        text: shown,
                    });
                }
                inside |= header;
            }
        }
        out
    }

    /// What is wrong with `tree` by this check, each line naming `rule`.
    fn violations(&self, rule: &str, tree: &Tree) -> Vec<String> {
        let files = self.read(tree);
        let hits = self.hits(&files);
        let pats = &self.pats;
        let mut out = Vec::new();
        match &self.expect {
            Expect::At(sites) => {
                let mut count = vec![0; sites.len()];
                for hit in &hits {
                    match sites.iter().position(|(site, _)| site.holds(hit)) {
                        Some(k) => count[k] += hit.n,
                        None => out.push(format!(
                            "{}:{}: {rule}: {pats:?} here: {}",
                            hit.path,
                            hit.line,
                            hit.text.trim()
                        )),
                    }
                }
                for ((site, want), got) in sites.iter().zip(count) {
                    if got < *want {
                        out.push(format!(
                            "{rule}: {site:?} holds {got} of {pats:?}, not {want}: \
                             lower the count in tests/design_rules.rs"
                        ));
                    }
                    for hit in hits.iter().filter(|h| got > *want && site.holds(h)) {
                        out.push(format!(
                            "{}:{}: {rule}: {site:?} holds {got} of {pats:?}, at most {want}",
                            hit.path, hit.line
                        ));
                    }
                }
            }
            Expect::PerFn(max) => {
                let mut per_fn: BTreeMap<(&str, Option<&str>), (usize, usize)> = BTreeMap::new();
                for hit in &hits {
                    per_fn
                        .entry((hit.path, hit.func))
                        .or_insert((hit.line, 0))
                        .1 += hit.n;
                }
                for ((path, func), (line, n)) in per_fn {
                    if n > *max {
                        out.push(format!(
                            "{path}:{line}: {rule}: fn {} holds {n} of {pats:?}, at most {max}",
                            func.unwrap_or("(none)")
                        ));
                    }
                }
            }
            Expect::EveryFile => {
                for (path, _, _) in &files {
                    if !hits.iter().any(|h| h.path == *path) {
                        out.push(format!("{path}:1: {rule}: no {pats:?} in the file"));
                    }
                }
            }
            Expect::MaxLines(max) => {
                for (path, text, _) in files.iter().filter(|f| f.0.ends_with(".rs")) {
                    let n = text.lines().count();
                    if n > *max {
                        out.push(format!("{path}:{n}: {rule}: {n} lines, at most {max}"));
                    }
                }
            }
        }
        out
    }
}

impl Rule {
    /// What is wrong with `tree` by this rule.
    fn violations(&self, tree: &Tree) -> Vec<String> {
        let name = format!("{} (ROADMAP {})", self.name, self.item);
        self.checks
            .iter()
            .flat_map(|c| c.violations(&name, tree))
            .collect()
    }
}

#[test]
fn every_rule_holds_on_the_tree() {
    let tree = Tree::repo();
    let mut bad = Vec::new();
    for rule in rules() {
        bad.extend(rule.violations(tree));
        for (k, check) in rule.checks.iter().enumerate() {
            if check.read(tree).is_empty() {
                bad.push(format!("{}: check {k} reads no file", rule.name));
            }
        }
    }
    assert!(bad.is_empty(), "\n{}", bad.join("\n"));
}

/// The rule named `name` holds on a tree of `clean`, and on `clean` with
/// `bad`'s files put in, fails on every `file:line` of `want`, and only
/// there.
fn replay(name: &str, clean: &[(&str, &str)], bad: &[(&str, &str)], want: &[&str]) {
    let rule = rules().into_iter().find(|r| r.name == name).unwrap();
    let ok = rule.violations(&Tree::of(clean));
    assert!(
        ok.is_empty(),
        "{name} on the clean tree:\n{}",
        ok.join("\n")
    );
    let mut files: BTreeMap<&str, &str> = clean.iter().copied().collect();
    files.extend(bad.iter().copied());
    let files: Vec<_> = files.into_iter().collect();
    let got = rule.violations(&Tree::of(&files));
    let at: Vec<&str> = got
        .iter()
        .map(|v| v.split(": ").next().unwrap_or_default())
        .collect();
    assert_eq!(at, want, "{name}:\n{}", got.join("\n"));
    assert!(got.iter().all(|v| v.contains(name)), "{got:?}");
}
