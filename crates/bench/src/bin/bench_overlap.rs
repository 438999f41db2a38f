//! Overlapped-RPC microbenchmark, recorded as `results/BENCH_overlap.json`
//! so successive PRs have a perf trajectory for the RPC engine.
//!
//! The workload is a k-writer diff storm: nodes `0..k` each write a
//! disjoint word of every page of a shared region, then the last node
//! reads the whole region back in one `read_bytes`. That read faults
//! every page with pending write notices from all k writers, so the
//! fetch engine decides the cost:
//!
//! - `serial` — one outstanding RPC at a time: k × PAGES round trips,
//!   paid end to end (the spec baseline);
//! - `coalesced` — one `MultiDiff` request per writer covering all of
//!   its pages, all issued before any response is collected: k messages
//!   total, and the cost approaches the slowest round trip.
//!
//! All times are *simulated* cluster nanoseconds on FAST/GM (the paper
//! testbed), so the numbers are deterministic and comparable across
//! machines.
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_overlap [out.json]`

use std::sync::Arc;

use tm_fast::{run_fast_dsm, FastConfig};

use tmk::{DiffFetch, Substrate, Tmk, TmkConfig};

const PAGES: usize = 64;

/// Reader's virtual cost of the whole-region read (zero on writers).
fn storm_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    let region = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    let writers = tmk.nprocs() - 1;
    // Everyone warms every page: writers need resident copies so their
    // stores produce diffs, and the reader needs stale copies so the
    // measured read is a pure diff-fetch storm.
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
        // Every writer's word must have landed on every page.
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

fn run(writers: usize, engine: DiffFetch) -> u64 {
    // `bench_lockstep` measures the scheduler's wall-clock price on this
    // same storm.
    let params = Arc::new(tm_sim::SimParams::paper_testbed());
    let cfg = FastConfig::paper(&params);
    let tcfg = TmkConfig {
        diff_fetch: engine,
        ..TmkConfig::default()
    };
    let out = run_fast_dsm(writers + 1, params, cfg, tcfg, storm_body);
    out[writers].result
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_overlap.json".into());

    let mut json = String::from("{\n  \"bench\": \"BENCH_overlap\",\n");
    json.push_str(&format!("  \"pages\": {PAGES},\n  \"rows\": [\n"));
    let ks = [1usize, 2, 4];
    for (i, &k) in ks.iter().enumerate() {
        let serial = run(k, DiffFetch::Serial);
        let coalesced = run(k, DiffFetch::Coalesced);
        println!(
            "writers={k}: serial={serial}ns coalesced={coalesced}ns \
             (serial/coalesced = {:.2}x)",
            serial as f64 / coalesced.max(1) as f64
        );
        assert!(
            coalesced < serial,
            "k={k}: coalesced ({coalesced}) must beat serial ({serial})"
        );
        let comma = if i + 1 < ks.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"writers\": {k}, \"serial_ns\": {serial}, \
             \"coalesced_ns\": {coalesced}, \"serial_over_coalesced\": {:.2} }}{comma}\n",
            serial as f64 / coalesced.max(1) as f64
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_overlap.json");
    println!("wrote {out_path}");
}
