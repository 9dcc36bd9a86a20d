//! Where one handshake's allocations come from, call site by call site.
//!
//! The benchmark's `allocs_per_op` / `alloc_kib_per_op` say *that* the
//! allocator was asked; this says *by which line*. A global allocator
//! captures a backtrace for every `alloc` / `realloc` made inside a
//! thread-local window around `run_scenario` (or one `run_server_load`),
//! keeps the innermost `depth` frames that belong to this workspace
//! (`rq_*`, `bytes::`), and prints calls and KiB requested per op for
//! each such stack, largest first. Counts are calls and bytes requested,
//! as in `benchmark/src/alloc.rs`, so two commits compare line by line.
//!
//! Run with:
//! `cargo run --release --example alloc_sites -- [client] [wfc|iack] [ops] [depth] [load|bulk|lossy|live|h3]`
//! (defaults: `quic-go iack 8 3`; release because `[profile.release]`
//! keeps debug info, so inlined frames resolve to their own lines).
//! Op `i` is `Scenario::base(client, mode, H1)` at seed `i`, or with `h3`
//! `Scenario::base(client, mode, H3)`; with `load` the ops are the
//! arrivals of one `run_server_load` instead, and with `bulk` each op is
//! a 2 × 1 MiB H3/CUBIC download, where the data path does the asking;
//! `lossy` is the benchmark's lossy download, 2 × 1 MiB H3 over BBR-lite
//! under Gilbert–Elliott loss, where ACK frames carry gaps and loss
//! detection runs.
//!
//! The `run_scenario` modes (the default, `h3`, `bulk` and `lossy`) run one op of
//! the same shape (seed 0) before the window opens, so the rows describe
//! a warm thread, as in the benchmark's timed passes: the testbed keeps
//! one worker value per thread (a simulated network, the last run's
//! server node with its engine and response storage, the client node
//! retired last and the driver's tables), and every run after the
//! thread's first builds its nodes in that storage and reuses the
//! network's tables, its datagram storage and the response body. A
//! thread's first run pays for that set-up as well (`handshake_alloc.rs`
//! pins both). `load` counts one `run_server_load`
//! on a cold thread; its set-up is shared by all its arrivals.
//!
//! `live` asks a different question — not what was requested over a run
//! but what is *held* at its peak, by whom (the benchmark's
//! `peak_heap_mib`, broken down). The run is one `run_server_load` of
//! `ops` arrivals in the benchmark's steady shape (200 µs apart on a
//! 100 ms path, 30 % resumed, 20 % 0-RTT, a quarter under 2 % loss), so
//! the pairs interleave. One unwatched run sets up what the thread's
//! worker keeps (not counted), and the run is then
//! made three times: once numbering every allocation and finding the number
//! at which most bytes were live, once snapshotting the allocations live
//! at that number, once capturing a backtrace for those only (about a
//! tenth of them all). The
//! passes must repeat each other — same count, same fold of every size —
//! or the profiler says so and stops. Rows are allocations, KiB and
//! share per site and sum to the peak; the header divides it by
//! `server/active_conns`' peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::Mutex;

use reacked_quicer::prelude::*;
use reacked_quicer::recovery::CcAlgorithm;
use reacked_quicer::testbed::{run_server_load, ArrivalProcess, ClassMix, ServerLoadSpec};

thread_local! {
    /// True while this thread's allocations are being attributed. The
    /// hook clears it around its own work, so the backtrace machinery
    /// and the site table never count (or re-enter) themselves.
    /// Const-initialised and without a destructor: reading it inside
    /// the allocator allocates nothing.
    static WINDOW: Cell<bool> = const { Cell::new(false) };
    /// How many workspace frames make a site.
    static DEPTH: Cell<usize> = const { Cell::new(3) };
}

/// Site → (calls, bytes requested).
static SITES: Mutex<BTreeMap<String, (u64, u64)>> = Mutex::new(BTreeMap::new());

/// The `live` passes' state; `None` in every other mode.
static CENSUS: Mutex<Option<Census>> = Mutex::new(None);

/// One pass over a run whose allocations are numbered as they happen: an
/// allocation's number is its identity from pass to pass.
#[derive(Default)]
struct Census {
    /// Allocations (and reallocations) seen so far.
    seq: u64,
    /// A fold of every one's size, to tell whether a pass repeated the
    /// one before it.
    fold: u64,
    /// What is live: address → (number, bytes).
    by_addr: HashMap<usize, (u64, usize)>,
    live: usize,
    peak: usize,
    /// The number of the allocation that reached the peak.
    peak_seq: u64,
    /// Second pass: the number to snapshot the live set after.
    snapshot_at: Option<u64>,
    /// The live set at the peak, (number, bytes) by number: taken by the
    /// second pass, given to the third, which attributes exactly these.
    at_peak: Vec<(u64, usize)>,
}

impl Census {
    fn on_alloc(&mut self, addr: usize, bytes: usize) {
        self.seq += 1;
        self.fold = self.fold.wrapping_mul(0x100_0000_01B3) ^ bytes as u64;
        self.by_addr.insert(addr, (self.seq, bytes));
        self.live += bytes;
        if self.live > self.peak {
            (self.peak, self.peak_seq) = (self.live, self.seq);
        }
        if self.snapshot_at == Some(self.seq) {
            // Second pass, at the peak.
            self.at_peak = self.by_addr.values().copied().collect();
            self.at_peak.sort_unstable();
        } else if self.snapshot_at.is_none() {
            // Third pass (in the first the set is empty): one of the set?
            let wanted = self.at_peak.binary_search_by_key(&self.seq, |a| a.0);
            if wanted.is_ok() {
                attribute(bytes);
            }
        }
    }

    /// An allocation made outside the window is not in the table and
    /// does not count.
    fn on_free(&mut self, addr: usize) {
        if let Some((_, bytes)) = self.by_addr.remove(&addr) {
            self.live -= bytes;
        }
    }
}

struct Attributing;

/// Adds one allocation of `bytes` to the site the current backtrace names.
fn attribute(bytes: usize) {
    let site = site_of(&Backtrace::force_capture().to_string(), DEPTH.get());
    let mut sites = SITES.lock().expect("no panic while the table is held");
    let slot = sites.entry(site).or_default();
    slot.0 += 1;
    slot.1 += bytes as u64;
}

/// `bytes` were allocated at `addr`, in place of what was at `moved_from`
/// if this was a reallocation.
fn record(addr: *mut u8, bytes: usize, moved_from: Option<*mut u8>) {
    if !WINDOW.replace(false) {
        return;
    }
    let mut census = CENSUS.lock().expect("no panic while the census is held");
    match census.as_mut() {
        Some(census) => {
            if let Some(old) = moved_from {
                census.on_free(old as usize);
            }
            census.on_alloc(addr as usize, bytes);
        }
        None => attribute(bytes),
    }
    drop(census);
    WINDOW.set(true);
}

fn record_free(addr: *mut u8) {
    if !WINDOW.replace(false) {
        return;
    }
    let mut census = CENSUS.lock().expect("no panic while the census is held");
    if let Some(census) = census.as_mut() {
        census.on_free(addr as usize);
    }
    drop(census);
    WINDOW.set(true);
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// reads the address handed out and never touches the memory behind it.
unsafe impl GlobalAlloc for Attributing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let addr = unsafe { System.alloc(layout) };
        record(addr, layout.size(), None);
        addr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let addr = unsafe { System.alloc_zeroed(layout) };
        record(addr, layout.size(), None);
        addr
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_free(ptr);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let addr = unsafe { System.realloc(ptr, layout, new_size) };
        record(addr, new_size, Some(ptr));
        addr
    }
}

#[global_allocator]
static ALLOC: Attributing = Attributing;

/// The innermost `depth` workspace frames of a rendered backtrace,
/// innermost first, as `function (file:line) < caller < caller`.
fn site_of(backtrace: &str, depth: usize) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut lines = backtrace.lines().map(str::trim).peekable();
    while let Some(line) = lines.next() {
        // `12: path::to::function` or, for a frame inlined into the one
        // above, the bare path; `at file:line:col` follows either.
        let symbol = line.split_once(": ").map_or(line, |(index, rest)| {
            if index.bytes().all(|b| b.is_ascii_digit()) {
                rest
            } else {
                line
            }
        });
        let location = lines
            .next_if(|l| l.starts_with("at "))
            .map(|l| l.trim_start_matches("at ").trim_start_matches("./"));
        // `module::<impl path::Type>::method` reads better as
        // `path::Type::method`.
        let symbol = match symbol.split_once("::<impl ") {
            Some((_, rest)) => rest.replacen(">::", "::", 1),
            None => symbol.to_string(),
        };
        let ours = symbol.trim_start_matches('<');
        if !(ours.starts_with("rq_") || ours.starts_with("bytes::")) {
            continue;
        }
        frames.push(match (frames.is_empty(), location) {
            (true, Some(at)) => format!("{symbol} ({})", at.rsplit_once(':').map_or(at, |x| x.0)),
            _ => symbol,
        });
        if frames.len() == depth {
            break;
        }
    }
    if frames.is_empty() {
        "(outside the workspace)".to_string()
    } else {
        frames.join(" < ")
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize, default: &str| args.get(i).map_or(default, String::as_str).to_string();
    let usage = |what: &str| -> ! {
        eprintln!(
            "alloc_sites: {what}\nusage: alloc_sites [client] [wfc|iack] [ops] [depth] [load|bulk|lossy|live|h3]"
        );
        std::process::exit(2);
    };
    let Some(client) = client_by_name(&arg(0, "quic-go")) else {
        usage("unknown client");
    };
    let mode = match arg(1, "iack").as_str() {
        "wfc" => ServerAckMode::WaitForCertificate,
        "iack" => ServerAckMode::InstantAck { pad_to_mtu: false },
        _ => usage("ack mode is wfc or iack"),
    };
    let ops: u64 = arg(2, "8")
        .parse()
        .unwrap_or_else(|_| usage("ops is a count"));
    let depth: usize = arg(3, "3")
        .parse()
        .unwrap_or_else(|_| usage("depth is a count"));
    let shape = args.get(4).map(String::as_str);
    if !matches!(
        shape,
        None | Some("load" | "bulk" | "lossy" | "live" | "h3")
    ) {
        usage("the fifth argument can only be `load`, `bulk`, `lossy`, `live` or `h3`");
    }
    if ops == 0 || depth == 0 {
        usage("ops and depth start at 1");
    }
    DEPTH.set(depth);

    let base = if shape == Some("bulk") {
        Scenario {
            streams: 2,
            file_size: 1024 * 1024,
            cc: CcAlgorithm::Cubic,
            ..Scenario::base(client.clone(), mode, HttpVersion::H3)
        }
    } else if shape == Some("lossy") {
        let loss = ImpairmentSpec::none().with_gilbert_elliott(0.02, 0.3, 0.0, 0.5);
        Scenario {
            streams: 2,
            file_size: 1024 * 1024,
            cc: CcAlgorithm::BbrLite,
            loss: LossSpec::Random(loss),
            ..Scenario::base(client.clone(), mode, HttpVersion::H3)
        }
    } else if shape == Some("h3") {
        Scenario::base(client.clone(), mode, HttpVersion::H3)
    } else {
        Scenario::base(client.clone(), mode, HttpVersion::H1)
    };
    if shape == Some("live") {
        return live_census(base, client.name, &arg(1, "iack"), ops as usize, depth);
    }
    if shape == Some("load") {
        let spec = ServerLoadSpec::new(
            base,
            ops as usize,
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_millis(3),
            },
        );
        WINDOW.set(true);
        let run = run_server_load(&spec);
        WINDOW.set(false);
        assert_eq!(run.outcomes.len(), ops as usize);
    } else {
        let mut warm_up = base.clone();
        warm_up.seed = 0;
        assert!(run_scenario(&warm_up).completed, "seed 0 did not complete");
        for seed in 1..=ops {
            let mut sc = base.clone();
            sc.seed = seed;
            WINDOW.set(true);
            let result = run_scenario(&sc);
            WINDOW.set(false);
            assert!(result.completed, "seed {seed} did not complete");
        }
    }

    let sites = std::mem::take(&mut *SITES.lock().expect("the hook is idle"));
    let (calls, bytes) = sites
        .values()
        .fold((0, 0), |(c, b), (sc, sb)| (c + sc, b + sb));
    let per_op = |v: u64| v as f64 / ops as f64;
    let mut rows: Vec<_> = sites.iter().collect();
    rows.sort_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
    let mut out = format!(
        "{} {} x {ops} ({}): {:.1} allocations, {:.1} KiB per op, {} sites at depth {depth}\n\
         {:>10} {:>10}  site (innermost frame first)\n",
        client.name,
        arg(1, "iack"),
        match shape {
            Some("load") => "run_server_load",
            Some("bulk") => "run_scenario, 2 x 1 MiB H3 download",
            Some("lossy") => "run_scenario, 2 x 1 MiB H3 BBR-lite download under loss",
            Some(_) => "run_scenario, H3",
            None => "run_scenario",
        },
        per_op(calls),
        per_op(bytes) / 1024.0,
        sites.len(),
        "allocs/op",
        "KiB/op",
    );
    for (site, (calls, bytes)) in rows {
        out += &format!(
            "{:>10.2} {:>10.2}  {site}\n",
            per_op(*calls),
            per_op(*bytes) / 1024.0
        );
    }
    // `| head` closing the pipe early is how this is usually read.
    let _ = std::io::stdout().write_all(out.as_bytes());
}

/// The `live` mode: who holds what when a loaded server's heap peaks.
fn live_census(mut base: Scenario, client: &str, mode: &str, ops: usize, depth: usize) {
    base.rtt = SimDuration::from_millis(100);
    base.seed = 1;
    let gap = ArrivalProcess::Poisson {
        mean_gap: SimDuration::from_micros(200),
    };
    let mut spec = ServerLoadSpec::new(base, ops, gap);
    spec.mix = Some(ClassMix {
        resumed: 0.3,
        zero_rtt: 0.2,
    });
    spec.impaired = Some((0.25, ImpairmentSpec::none().with_iid_loss(0.02)));
    let pass = |census: Census| {
        *CENSUS.lock().expect("the hook is idle") = Some(census);
        WINDOW.set(true);
        let run = run_server_load(&spec);
        WINDOW.set(false);
        let census = CENSUS.lock().expect("the hook is idle").take();
        (
            census.expect("still there"),
            run.report.accounting.peak_active,
        )
    };
    // The thread's network is set up before the passes, which then
    // start alike.
    run_server_load(&spec);
    let (numbered, pairs) = pass(Census::default());
    let (snapshot, _) = pass(Census {
        snapshot_at: Some(numbered.peak_seq),
        ..Census::default()
    });
    let (resolved, _) = pass(Census {
        at_peak: snapshot.at_peak.clone(),
        ..Census::default()
    });
    for again in [&snapshot, &resolved] {
        assert_eq!(
            (again.seq, again.fold, again.peak, again.peak_seq),
            (
                numbered.seq,
                numbered.fold,
                numbered.peak,
                numbered.peak_seq
            ),
            "the allocation sequence did not repeat"
        );
    }
    let sites = std::mem::take(&mut *SITES.lock().expect("the hook is idle"));
    let held: u64 = sites.values().map(|(_, bytes)| bytes).sum();
    assert_eq!(held, numbered.peak as u64, "rows sum to the peak");
    let kib = |bytes: u64| bytes as f64 / 1024.0;
    let mut rows: Vec<_> = sites.iter().collect();
    rows.sort_by(|a, b| (b.1 .1, a.0).cmp(&(a.1 .1, b.0)));
    let mut out = format!(
        "{client} {mode} x {ops} (run_server_load, live at the peak): {:.2} MiB in {} of {} \
         allocations, {pairs} pairs live = {:.1} KiB per pair, {} sites at depth {depth}\n\
         {:>10} {:>10} {:>7}  site (innermost frame first)\n",
        kib(held) / 1024.0,
        snapshot.at_peak.len(),
        numbered.seq,
        kib(held) / pairs as f64,
        sites.len(),
        "allocs",
        "KiB",
        "share",
    );
    for (site, (calls, bytes)) in rows {
        let share = 100.0 * *bytes as f64 / held as f64;
        out += &format!("{calls:>10} {:>10.1} {share:>6.1}%  {site}\n", kib(*bytes));
    }
    let _ = std::io::stdout().write_all(out.as_bytes());
}
