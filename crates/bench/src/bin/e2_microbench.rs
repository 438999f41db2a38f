//! E2 — Figure 3: the TreadMarks distribution microbenchmarks.
//!
//! Barrier (4/8/16 nodes), Lock (direct & indirect), Page and Diff (small
//! & large), each on UDP/GM and FAST/GM. The paper's quoted improvement
//! factors: barrier ~2.5×, locks ~3–4×, Page ~6.2×, Diff similar.

use std::sync::Arc;

use tm_bench::{print_header, print_row, print_row_header};
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::stats::NodeStats;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{
    BarrierAlgo, DiffFetch, LayerMetrics, LockPath, MetricsHandle, Substrate, Tmk, TmkConfig,
};

const ROUNDS: u64 = 20;
const PAGES: usize = 64;

/// Fault plan under test, from the environment (`E2_FAULT_LOSS`,
/// `E2_FAULT_SEED`). With no loss requested the plan stays disabled and
/// stdout is byte-identical to a faultless build.
fn fault_plan() -> FaultPlan {
    let loss: f64 = std::env::var("E2_FAULT_LOSS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let mut plan = FaultPlan {
        drop_probability: loss,
        ..FaultPlan::default()
    };
    if let Some(seed) = std::env::var("E2_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        plan.seed = seed;
    }
    plan
}

/// Paper testbed + the fault plan. Two invocations of this binary
/// produce byte-identical stdout for every row, Barrier and Lock
/// (indirect) included.
fn bench_params() -> SimParams {
    let mut p = SimParams::paper_testbed();
    p.faults = fault_plan();
    p
}

/// Fault counters accumulated across every workload in the run (UDP and
/// FAST sides both), reported at the end when the plan injects anything.
static TALLY: std::sync::Mutex<Option<NodeStats>> = std::sync::Mutex::new(None);

fn tally<R>(outcomes: &[tm_sim::runner::NodeOutcome<R>]) {
    let mut t = TALLY.lock().unwrap();
    let acc = t.get_or_insert_with(NodeStats::default);
    for o in outcomes {
        acc.merge(&o.stats);
    }
}

/// Per-layer event tallies across every workload and node, reported at
/// the end when `E2_METRICS` is set. Off by default so stdout stays
/// byte-identical to an uninstrumented run.
static METRICS: std::sync::Mutex<Option<LayerMetrics>> = std::sync::Mutex::new(None);

fn metrics_enabled() -> bool {
    std::env::var_os("E2_METRICS").is_some()
}

/// Barrier algorithm under test, from `E2_BARRIER_ALGO`: `centralized`
/// (the default), `tree:<radix>`, or `nictree:<radix>`. Lets the same
/// microbenchmarks (and their fault plans) run against the combining-tree
/// paths without a recompile.
fn barrier_algo() -> BarrierAlgo {
    match std::env::var("E2_BARRIER_ALGO").ok().as_deref() {
        None | Some("") | Some("centralized") => BarrierAlgo::Centralized,
        Some(s) => {
            let (kind, radix) = s.split_once(':').unwrap_or((s, "4"));
            let radix: u16 = radix.parse().expect("E2_BARRIER_ALGO radix must be a u16");
            match kind {
                "tree" => BarrierAlgo::Tree { radix },
                "nictree" => BarrierAlgo::NicTree { radix },
                other => panic!("unknown E2_BARRIER_ALGO algorithm {other:?}"),
            }
        }
    }
}

/// Diff-fetch engine under test, from `E2_DIFF_FETCH`: `coalesced` (the
/// default) or `serial` (the one-outstanding-RPC spec baseline).
fn diff_fetch() -> DiffFetch {
    match std::env::var("E2_DIFF_FETCH").ok().as_deref() {
        None | Some("") | Some("coalesced") => DiffFetch::Coalesced,
        Some("serial") => DiffFetch::Serial,
        Some(other) => panic!("unknown E2_DIFF_FETCH engine {other:?}"),
    }
}

/// Lock/write-notice path under test, from `E2_LOCK_PATH`: `serial` (the
/// message-for-message spec baseline, the default) or `overlapped` (grant
/// fetches and write-notice fan-out ride the overlapped RPC engine).
fn lock_path() -> LockPath {
    match std::env::var("E2_LOCK_PATH").ok().as_deref() {
        None | Some("") | Some("serial") => LockPath::Serial,
        Some("overlapped") => LockPath::Overlapped,
        Some(other) => panic!("unknown E2_LOCK_PATH {other:?}"),
    }
}

/// Stride-prefetch depth, from `E2_PREFETCH`. 0 (the default) leaves the
/// prefetcher inert.
fn prefetch_depth() -> usize {
    std::env::var("E2_PREFETCH")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn tmk_cfg() -> TmkConfig {
    TmkConfig {
        barrier_algo: barrier_algo(),
        diff_fetch: diff_fetch(),
        lock_path: lock_path(),
        prefetch_depth: prefetch_depth(),
        ..TmkConfig::default()
    }
}

/// Run one benchmark body, tapping the event hook into the global tally
/// when metrics are requested. The hook charges no virtual time, so the
/// measured numbers are identical either way.
fn instrumented<S: Substrate>(tmk: &mut Tmk<S>, body: fn(&mut Tmk<S>) -> u64) -> u64 {
    let handle = metrics_enabled().then(|| MetricsHandle::install(tmk));
    let r = body(tmk);
    if let Some(h) = handle {
        METRICS
            .lock()
            .unwrap()
            .get_or_insert_with(LayerMetrics::default)
            .merge(&h.snapshot());
        tmk.clear_event_hook();
    }
    r
}

// The bodies are generic functions; a tiny macro instantiates them for
// both substrates without boxing.
macro_rules! on_both {
    ($n:expr, $f:ident) => {{
        let udp = {
            let params = Arc::new(bench_params());
            run_udp_dsm($n, params, tmk_cfg(), move |tmk| instrumented(tmk, $f))
        };
        let fast = {
            let params = Arc::new(bench_params());
            let cfg = FastConfig::paper(&params);
            run_fast_dsm($n, params, cfg, tmk_cfg(), move |tmk| instrumented(tmk, $f))
        };
        tally(&udp);
        tally(&fast);
        (udp, fast)
    }};
}

/// Average barrier time, measured on every node after a warmup barrier.
fn barrier_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    tmk.barrier(0); // warmup: pays first-touch costs
    let t0 = tmk.clock().borrow().now();
    for k in 1..=ROUNDS {
        tmk.barrier(k as u32);
    }
    (tmk.clock().borrow().now() - t0).0 / ROUNDS
}

/// Direct lock: the manager (node 0) is the owner; node 1 measures its
/// acquire.
fn lock_direct_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let me = tmk.proc_id();
    let mut acquire_ns = 0u64;
    tmk.barrier(0);
    for k in 0..ROUNDS {
        // Node 0 (the manager) takes and releases the lock so it is the
        // last owner — the "direct" case for node 1.
        if me == 0 {
            tmk.acquire(0);
            tmk.release(0);
        }
        tmk.barrier(1 + 2 * k as u32);
        if me == 1 {
            let t0 = tmk.clock().borrow().now();
            tmk.acquire(0);
            acquire_ns += (tmk.clock().borrow().now() - t0).0;
            tmk.release(0);
        }
        tmk.barrier(2 + 2 * k as u32);
    }
    acquire_ns / ROUNDS
}

/// Indirect lock: a third node (2) is the owner; node 1's acquire goes
/// requester → manager → owner → requester.
fn lock_indirect_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let me = tmk.proc_id();
    let mut acquire_ns = 0u64;
    tmk.barrier(0);
    for k in 0..ROUNDS {
        if me == 2 {
            tmk.acquire(0);
            tmk.release(0);
        }
        tmk.barrier(1 + 2 * k as u32);
        if me == 1 {
            let t0 = tmk.clock().borrow().now();
            tmk.acquire(0);
            acquire_ns += (tmk.clock().borrow().now() - t0).0;
            tmk.release(0);
        }
        tmk.barrier(2 + 2 * k as u32);
    }
    acquire_ns / ROUNDS
}

/// Page: node 1 first-touches PAGES pages homed at node 0 (page managers
/// are round-robin, so only even pages of a 2-node region live on node 0).
fn page_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let region = tmk.malloc(2 * PAGES * 4096);
    tmk.distribute(region);
    let me = tmk.proc_id();
    if me == 0 {
        // Creator touches one word of each of its pages (all local).
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, 2 * p * 1024);
        }
    }
    tmk.barrier(0);
    let mut per_page = 0u64;
    if me == 1 {
        let t0 = tmk.clock().borrow().now();
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, 2 * p * 1024);
        }
        per_page = (tmk.clock().borrow().now() - t0).0 / PAGES as u64;
    }
    tmk.barrier(1);
    per_page
}

/// Diff: node 0 writes one word (small) or every word (large) of each
/// page; node 1, holding stale copies, re-reads one word per page.
fn diff_body<S: Substrate>(tmk: &mut Tmk<S>, large: bool) -> u64 {
    let region = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    // Warmup: node 1 faults every page in so the next access is a diff
    // fetch, not a page fetch. (Writes below are partial-page on purpose
    // for the small case; the large case writes whole pages but after a
    // warm interval, so the diff path is exercised either way.)
    if me == 1 {
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, p * 1024);
        }
    }
    tmk.barrier(0);
    if me == 0 {
        // Warm node 0's copies first so its writes are diff-producing
        // writes, not whole-page overwrites of unmapped pages.
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, p * 1024);
        }
        if large {
            let full = vec![7f32; 1024];
            for p in 0..PAGES {
                tmk.write_f32s(region, p * 1024, &full);
            }
        } else {
            for p in 0..PAGES {
                tmk.set_u32(region, p * 1024, 7);
            }
        }
    }
    tmk.barrier(1);
    let mut per_page = 0u64;
    if me == 1 {
        let t0 = tmk.clock().borrow().now();
        for p in 0..PAGES {
            let v = tmk.get_u32(region, p * 1024);
            assert_ne!(v, 0, "diff must have been applied");
        }
        per_page = (tmk.clock().borrow().now() - t0).0 / PAGES as u64;
    }
    tmk.barrier(2);
    per_page
}

fn diff_small_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    diff_body(tmk, false)
}

fn diff_large_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    diff_body(tmk, true)
}

/// Multi-writer diff: nodes `0..n-1` each write a disjoint word of every
/// page; the last node, holding stale copies, re-reads one word per page
/// and pays one diff fetch per writer per page fault. Under the
/// overlapped engine the k requests fly concurrently, so the fault cost
/// approaches the slowest round trip instead of the sum of k of them.
fn diff_multi_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let region = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    let writers = tmk.nprocs() - 1;
    // Everyone warms every page: writers need resident copies so their
    // stores produce diffs, and the reader needs stale copies so the
    // measured access is a diff fetch rather than a page fetch.
    for p in 0..PAGES {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    if me < writers {
        // Disjoint words of the same pages: concurrent multi-writer
        // intervals, the workload TreadMarks' diff protocol exists for.
        for p in 0..PAGES {
            tmk.set_u32(region, p * 1024 + me * 16, 7 + me as u32);
        }
    }
    tmk.barrier(1);
    let mut per_page = 0u64;
    if me == writers {
        let t0 = tmk.clock().borrow().now();
        for p in 0..PAGES {
            let v = tmk.get_u32(region, p * 1024);
            assert_ne!(v, 0, "writer 0's diff must have been applied");
        }
        per_page = (tmk.clock().borrow().now() - t0).0 / PAGES as u64;
    }
    tmk.barrier(2);
    per_page
}

/// TSP-like lock storm: the holder (node 0) writes a block of pages
/// under the lock, node 1 acquires and reads them. The only ordering
/// between the write and the read is the lock transfer itself, so the
/// grant carries the write notices — under `LockPath::Overlapped` the
/// diff fetches they imply are batched at acquire time instead of
/// faulting one round trip at a time inside the critical section.
fn lock_storm_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    const K: usize = 16;
    const STORM_ROUNDS: u64 = 8;
    let region = tmk.malloc(K * 4096);
    tmk.distribute(region);
    let me = tmk.proc_id();
    for p in 0..K {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    let mut ns = 0u64;
    for r in 0..STORM_ROUNDS {
        let want = r as u32 + 1;
        if me == 0 {
            tmk.acquire(0);
            // Payload pages first, the turn marker (page 0) last: a reader
            // that observes the marker holds notices for the whole interval.
            for p in 1..K {
                tmk.set_u32(region, p * 1024 + 4, want);
            }
            tmk.set_u32(region, 4, want);
            tmk.release(0);
        } else {
            let t0 = tmk.clock().borrow().now();
            loop {
                tmk.acquire(0);
                if tmk.get_u32(region, 4) == want {
                    break;
                }
                tmk.release(0);
            }
            for p in 1..K {
                assert_eq!(tmk.get_u32(region, p * 1024 + 4), want, "lock-storm payload");
            }
            tmk.release(0);
            ns += (tmk.clock().borrow().now() - t0).0;
        }
        tmk.barrier(1 + r as u32);
    }
    ns / STORM_ROUNDS
}

/// SOR-like strided sweep: node 0 writes one word of every page, then
/// node 1 reads the pages in ascending order after a barrier. Every read
/// faults, and the constant stride lets the prefetcher run ahead of the
/// fault stream when `prefetch_depth > 0`.
fn strided_sweep_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    const P: usize = 48;
    let region = tmk.malloc(P * 4096);
    tmk.distribute(region);
    let me = tmk.proc_id();
    for p in 0..P {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    if me == 0 {
        for p in 0..P {
            tmk.set_u32(region, p * 1024, p as u32 + 1);
        }
    }
    tmk.barrier(1);
    let mut ns = 0u64;
    if me == 1 {
        let t0 = tmk.clock().borrow().now();
        for p in 0..P {
            assert_eq!(tmk.get_u32(region, p * 1024), p as u32 + 1, "sweep payload");
        }
        ns = (tmk.clock().borrow().now() - t0).0 / P as u64;
    }
    tmk.barrier(2);
    ns
}

fn avg_nonzero(v: &[tm_sim::runner::NodeOutcome<u64>]) -> Ns {
    let vals: Vec<u64> = v.iter().map(|o| o.result).filter(|&x| x > 0).collect();
    Ns(vals.iter().sum::<u64>() / vals.len().max(1) as u64)
}

fn main() {
    print_header("E2: TreadMarks microbenchmarks (Figure 3)");
    print_row_header();

    for n in [4usize, 8, 16] {
        let (udp, fast) = on_both!(n, barrier_body);
        print_row(&format!("Barrier ({n})"), avg_nonzero(&udp), avg_nonzero(&fast));
    }
    {
        let (udp, fast) = on_both!(2, lock_direct_body);
        print_row("Lock (direct)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(3, lock_indirect_body);
        print_row("Lock (indirect)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, page_body);
        print_row("Page (per page)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, diff_small_body);
        print_row("Diff small (per page)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, diff_large_body);
        print_row("Diff large (per page)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(2, diff_multi_body);
        print_row("Diff 1-writer (per page)", Ns(udp[1].result), Ns(fast[1].result));
    }
    {
        let (udp, fast) = on_both!(5, diff_multi_body);
        print_row("Diff 4-writer (per page)", Ns(udp[4].result), Ns(fast[4].result));
    }
    println!();
    println!("paper factors: Barrier ~2.5x, Lock ~3-4x, Page ~6.2x, Diff comparable");

    // Smoke assertions for CI (`E2_SMOKE`): the coalesced engine must
    // beat the serial spec baseline on the 4-writer diff fetch, and the
    // 4-writer fault must scale sub-linearly (< 2x the 1-writer cost)
    // under overlap. Runs FAST/GM only; prints the numbers it compared.
    if std::env::var_os("E2_SMOKE").is_some() {
        let run = |n: usize, df: DiffFetch| {
            let params = Arc::new(bench_params());
            let cfg = FastConfig::paper(&params);
            let tcfg = TmkConfig {
                diff_fetch: df,
                ..tmk_cfg()
            };
            let out = run_fast_dsm(n, params, cfg, tcfg, diff_multi_body);
            out[n - 1].result
        };
        let serial = run(5, DiffFetch::Serial);
        let coalesced = run(5, DiffFetch::Coalesced);
        let k1 = run(2, DiffFetch::Coalesced);
        println!();
        println!(
            "e2-smoke: 4-writer diff fetch (FAST, ns/page): \
             serial={serial} coalesced={coalesced} 1-writer={k1}"
        );
        assert!(
            coalesced < serial,
            "coalesced diff fetch ({coalesced}) must beat serial ({serial})"
        );
        assert!(
            coalesced < 2 * k1,
            "4-writer fault ({coalesced}) must be sub-linear vs 1-writer ({k1})"
        );
        println!("e2-smoke: overlap assertions passed");

        // Pipelined synchronization: the overlapped lock path must beat
        // the serial baseline on the TSP-like lock storm, and the stride
        // prefetcher must land hits (and help) on the SOR-like sweep.
        // The lockstep scheduler makes the asserted margins exact, not
        // statistical.
        let run_lock = |lp: LockPath| {
            let params = Arc::new(bench_params());
            let cfg = FastConfig::paper(&params);
            let tcfg = TmkConfig {
                lock_path: lp,
                ..tmk_cfg()
            };
            let out = run_fast_dsm(2, params, cfg, tcfg, lock_storm_body);
            out[1].result
        };
        let lock_serial = run_lock(LockPath::Serial);
        let lock_overlapped = run_lock(LockPath::Overlapped);
        println!(
            "e2-smoke: lock storm (FAST, ns/round): \
             serial={lock_serial} overlapped={lock_overlapped}"
        );
        assert!(
            lock_overlapped < lock_serial,
            "overlapped lock path ({lock_overlapped}) must beat serial ({lock_serial})"
        );
        let run_sweep = |depth: usize| {
            let params = Arc::new(bench_params());
            let cfg = FastConfig::paper(&params);
            let tcfg = TmkConfig {
                prefetch_depth: depth,
                ..tmk_cfg()
            };
            let out = run_fast_dsm(2, params, cfg, tcfg, |tmk| {
                let h = MetricsHandle::install(tmk);
                let ns = strided_sweep_body(tmk);
                let hits = h.snapshot().get("prefetch_hit").map_or(0, |e| e.count);
                tmk.clear_event_hook();
                (ns, hits)
            });
            (out[1].result.0, out[1].result.1)
        };
        let (sweep0, hits0) = run_sweep(0);
        let (sweep8, hits8) = run_sweep(8);
        println!(
            "e2-smoke: strided sweep (FAST, ns/page): \
             depth0={sweep0} depth8={sweep8} hits={hits8}"
        );
        assert_eq!(hits0, 0, "depth 0 must keep the prefetcher inert");
        assert!(hits8 > 0, "stride prefetcher must land hits on the sweep");
        assert!(
            sweep8 < sweep0,
            "prefetched sweep ({sweep8}) must beat the demand-fault sweep ({sweep0})"
        );
        println!("e2-smoke: pipelined-sync assertions passed");
    }

    // Per-layer event tallies: only when explicitly requested, so the
    // default output above stays byte-identical.
    if metrics_enabled() {
        let m = METRICS.lock().unwrap();
        let metrics = m.as_ref().cloned().unwrap_or_default();
        println!();
        println!(
            "per-layer events (all workloads, both transports, algo={:?}):",
            barrier_algo()
        );
        print!("{}", metrics.render());
    }

    // Fault-injection report: only when the plan actually injects
    // something, so the zero-fault output above stays byte-identical.
    let plan = fault_plan();
    if plan.enabled() {
        let t = TALLY.lock().unwrap();
        let s = t.as_ref().cloned().unwrap_or_default();
        println!();
        println!(
            "fault plan: seed={:#x} drop={} dup={} reorder={} corrupt={}",
            plan.seed,
            plan.drop_probability,
            plan.duplicate_probability,
            plan.reorder_probability,
            plan.corrupt_probability
        );
        println!(
            "fault counters: dropped={} duplicated={} reordered={} corrupted={} \
             retransmits={} dup_requests_suppressed={} stale_responses_dropped={} \
             crc_rejected={} malformed_dropped={} token_stalls={}",
            s.dgrams_dropped,
            s.dgrams_duplicated,
            s.dgrams_reordered,
            s.dgrams_corrupted,
            s.retransmits,
            s.dup_requests_suppressed,
            s.stale_responses_dropped,
            s.crc_rejected,
            s.malformed_dropped,
            s.token_stalls
        );
    }
}
