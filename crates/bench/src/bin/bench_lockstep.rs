//! Wall-clock cost of the lockstep scheduler, recorded as
//! `results/BENCH_lockstep.json` so successive PRs can watch its
//! trajectory.
//!
//! The workload is the same 4-writer diff storm as `bench_overlap`: the
//! most scheduler-hostile pattern in the suite (every fault wave is a
//! burst of concurrent transmits racing for grants, plus the engine's
//! non-blocking polls that lockstep must quiesce one by one).
//!
//! Reported per token mode: the minimum wall-clock over `REPS` runs
//! (minimum, not mean — scheduler overhead is a floor, and the floor is
//! what the two-phase grant protocol adds; the mean also pays the host's
//! noise). Each round rotates which mode runs first: host noise is
//! bursty enough that a fixed order systematically penalizes the later
//! slots. Both token modes are measured — the legacy single global
//! reservation token and the default per-receiver tokens — so the JSON
//! carries a before/after row pair for the concurrency work, and the
//! modeled cost is asserted identical across every rep of both.
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_lockstep [out.json]`

use std::sync::Arc;
use std::time::Instant;

use tm_fast::{run_fast_dsm, FastConfig};
use tm_sim::{SimParams, TokenMode};
use tmk::{Substrate, Tmk, TmkConfig};

const PAGES: usize = 64;
const WRITERS: usize = 4;
const REPS: usize = 9;

/// The `bench_overlap` k-writer diff storm (see that binary for the
/// blow-by-blow): disjoint-word writes to every page, then one
/// `read_bytes` on the last node that faults everything back in.
fn storm_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let region = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    let writers = tmk.nprocs() - 1;
    for p in 0..PAGES {
        let _ = tmk.get_u32(region, p * 1024);
    }
    tmk.barrier(0);
    if me < writers {
        for p in 0..PAGES {
            tmk.set_u32(region, p * 1024 + me * 16, 1 + me as u32);
        }
    }
    tmk.barrier(1);
    let mut cost = 0u64;
    if me == writers {
        let mut buf = vec![0u8; PAGES * 4096];
        let t0 = tmk.clock().borrow().now();
        tmk.read_bytes(region, 0, &mut buf);
        cost = (tmk.clock().borrow().now() - t0).0;
        for p in 0..PAGES {
            for w in 0..writers {
                let at = p * 4096 + w * 64;
                let v = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
                assert_eq!(v, 1 + w as u32, "page {p} writer {w}");
            }
        }
    }
    tmk.barrier(2);
    cost
}

/// One storm under `tokens`; returns (wall-clock seconds, virtual read
/// ns).
fn run_once(tokens: TokenMode) -> (f64, u64) {
    let mut p = SimParams::paper_testbed();
    p.tokens = tokens;
    let params = Arc::new(p);
    let cfg = FastConfig::paper(&params);
    let t0 = Instant::now();
    let out = run_fast_dsm(WRITERS + 1, params, cfg, TmkConfig::default(), storm_body);
    (t0.elapsed().as_secs_f64(), out[WRITERS].result)
}

/// One measurement slot: running minimum wall-clock plus every rep's
/// virtual cost of the measured read.
struct Slot {
    tokens: TokenMode,
    best: f64,
    virts: Vec<u64>,
}

impl Slot {
    fn new(tokens: TokenMode) -> Slot {
        Slot {
            tokens,
            best: f64::INFINITY,
            virts: Vec::new(),
        }
    }

    fn rep(&mut self) {
        let (wall, v) = run_once(self.tokens);
        self.best = self.best.min(wall);
        self.virts.push(v);
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_lockstep.json".into());

    // Reps are interleaved across the two modes, and the within-round
    // order rotates every round: host noise is bursty enough that the
    // mode measured last in a fixed order reads measurably slower, so
    // each mode must sample every slot equally. Best-of minimums are
    // what get reported.
    let mut slots = [
        Slot::new(TokenMode::Single),
        Slot::new(TokenMode::PerReceiver),
    ];
    for round in 0..REPS {
        for k in 0..slots.len() {
            slots[(round + k) % slots.len()].rep();
        }
    }
    let [single, lock] = slots;
    let (single_wall, single_virts) = (single.best, single.virts);
    let (lock_wall, lock_virts) = (lock.best, lock.virts);
    println!(
        "{WRITERS}-writer diff storm ({PAGES} pages, best of {REPS}): \
         single={single_wall:.4}s per-receiver={lock_wall:.4}s"
    );
    println!("virtual read cost: single={single_virts:?}ns per-receiver={lock_virts:?}ns");
    // The determinism claim, measured: every rep prices the read
    // identically, and the token mode must not move the virtual schedule
    // at all — per-receiver tokens only buy wall-clock concurrency.
    let lock_virt = lock_virts[0];
    assert!(
        lock_virts.iter().all(|&v| v == lock_virt),
        "lockstep reps disagree on the modeled cost: {lock_virts:?}"
    );
    assert!(
        single_virts.iter().all(|&v| v == lock_virt),
        "token modes disagree on the modeled cost: single={single_virts:?} vs {lock_virt}"
    );

    let json = format!(
        "{{\n  \"bench\": \"BENCH_lockstep\",\n  \"workload\": \"diff_storm\",\n  \
         \"writers\": {WRITERS},\n  \"pages\": {PAGES},\n  \"reps\": {REPS},\n  \
         \"lockstep_single_token_wall_s\": {single_wall:.4},\n  \
         \"lockstep_wall_s\": {lock_wall:.4},\n  \"virtual_read_ns\": {lock_virt}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_lockstep.json");
    println!("wrote {out_path}");
}
