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
//! `cargo run --release --example alloc_sites -- [client] [wfc|iack] [ops] [depth] [load|bulk]`
//! (defaults: `quic-go iack 8 3`; release because `[profile.release]`
//! keeps debug info, so inlined frames resolve to their own lines).
//! Op `i` is `Scenario::base(client, mode, H1)` at seed `i`; with `load`
//! the ops are the arrivals of one `run_server_load` instead, and with
//! `bulk` each op is a 2 × 1 MiB H3/CUBIC download, where the data path
//! does the asking.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;

use reacked_quicer::prelude::*;
use reacked_quicer::recovery::CcAlgorithm;
use reacked_quicer::testbed::{run_server_load, ArrivalProcess, ServerLoadSpec};

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

struct Attributing;

fn record(bytes: usize) {
    if !WINDOW.replace(false) {
        return;
    }
    let site = site_of(&Backtrace::force_capture().to_string(), DEPTH.get());
    let mut sites = SITES.lock().expect("no panic while the table is held");
    let slot = sites.entry(site).or_default();
    slot.0 += 1;
    slot.1 += bytes as u64;
    drop(sites);
    WINDOW.set(true);
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// runs before it and never touches the memory handed out.
unsafe impl GlobalAlloc for Attributing {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
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
            "alloc_sites: {what}\nusage: alloc_sites [client] [wfc|iack] [ops] [depth] [load|bulk]"
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
    if !matches!(shape, None | Some("load" | "bulk")) {
        usage("the fifth argument can only be `load` or `bulk`");
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
    } else {
        Scenario::base(client.clone(), mode, HttpVersion::H1)
    };
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
            Some(_) => "run_scenario, 2 x 1 MiB H3 download",
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
