//! Host-cost microbenchmarks of the zero-copy hot paths, recorded as
//! `results/BENCH_diff.json` so successive PRs have a perf trajectory.
//!
//! Unlike E1–E7 (which report *simulated* cluster time), this measures
//! how much real host CPU the reproduction burns per operation: diff
//! create/apply on a 4 KiB sparse page, small-frame and fragmented sends
//! on the FAST substrate, and a 1 MB page-fetch storm through the full
//! DSM. `create_scalar` is the pre-optimization word-by-word loop kept as
//! the executable specification — its row doubles as the baseline the
//! u64-chunked scanner is judged against (the `speedup_create_vs_scalar`
//! field).
//!
//! Usage: `cargo run --release -p tm-bench --bin bench_diff [out.json]`

use std::sync::Arc;
use std::time::Instant;

use tm_fast::{run_fast_dsm, FastConfig, FastSubstrate};
use tm_gm::gm_cluster_driven;
use tm_sim::clock::shared_clock;
use tm_sim::SimParams;
use tmk::diff::Diff;
use tmk::wire::{pool, WireWriter};
use tmk::{Substrate, TmkConfig};

/// Time `f` with a calibrated repetition count; returns ns per call.
fn time_ns(mut f: impl FnMut()) -> f64 {
    // Calibrate to ~100 ms of measurement.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el.as_millis() >= 100 || iters >= 1 << 26 {
            return el.as_nanos() as f64 / iters as f64;
        }
        let grow = (100_000_000 / el.as_nanos().max(1) as u64).clamp(2, 1024);
        iters = (iters * grow).min(1 << 26);
    }
}

fn sparse_page() -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; 4096];
    let mut cur = twin.clone();
    for i in (0..cur.len()).step_by(256) {
        cur[i] = 0xA5;
    }
    (twin, cur)
}

struct Case {
    name: &'static str,
    ns_per_op: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_diff.json".into());
    let mut cases: Vec<Case> = Vec::new();

    // --- diff engine -----------------------------------------------------
    let (twin, cur) = sparse_page();
    let create = time_ns(|| {
        std::hint::black_box(Diff::create(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_sparse",
        ns_per_op: create,
    });
    let scalar = time_ns(|| {
        std::hint::black_box(Diff::create_scalar(&twin, &cur));
    });
    cases.push(Case {
        name: "diff_create_4k_sparse_scalar_baseline",
        ns_per_op: scalar,
    });
    let create_into = time_ns(|| {
        let mut w = WireWriter::pooled(512);
        std::hint::black_box(Diff::create_into(&twin, &cur, &mut w));
        w.recycle();
    });
    cases.push(Case {
        name: "diff_create_into_4k_sparse",
        ns_per_op: create_into,
    });
    let d = Diff::create(&twin, &cur);
    let mut page = twin.clone();
    let apply = time_ns(|| {
        d.apply(&mut page);
        std::hint::black_box(&page);
    });
    cases.push(Case {
        name: "diff_apply_4k_sparse",
        ns_per_op: apply,
    });

    // --- framing path ----------------------------------------------------
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, mut nics) = gm_cluster_driven(2, Arc::clone(&params));
    let cfg = FastConfig::paper(&params);
    let mut rx = FastSubstrate::new(
        nics.pop().unwrap(),
        shared_clock(),
        Arc::clone(&params),
        Arc::clone(&board),
        cfg.clone(),
    );
    let mut tx = FastSubstrate::new(
        nics.pop().unwrap(),
        shared_clock(),
        Arc::clone(&params),
        board,
        cfg,
    );
    let small = [7u8; 64];
    let frame = time_ns(|| {
        tx.send_request(1, &small);
        let m = rx.next_incoming();
        pool::give(m.data);
    });
    cases.push(Case {
        name: "fast_frame_64B_roundtrip",
        ns_per_op: frame,
    });
    let big = vec![3u8; 64 * 1024];
    let frag = time_ns(|| {
        tx.send_request(1, &big);
        let m = rx.next_incoming();
        pool::give(m.data);
    });
    cases.push(Case {
        name: "fast_fragmented_64KiB_roundtrip",
        ns_per_op: frag,
    });

    // --- 1 MB page fetch through the full DSM ----------------------------
    // Node 0 writes a 1 MB region; node 1 faults all 256 pages in. Host
    // wall-clock for the whole two-node episode, dominated by the page
    // fetches.
    let fetch = time_ns(|| {
        let params = Arc::new(SimParams::paper_testbed());
        let cfg = FastConfig::paper(&params);
        let out = run_fast_dsm(2, params, cfg, TmkConfig::default(), |tmk| {
            let bytes = 1 << 20;
            let r = tmk.malloc(bytes);
            if tmk.proc_id() == 0 {
                for p in 0..bytes / 4096 {
                    tmk.set_u32(r, p * 1024, p as u32 + 1);
                }
            }
            tmk.barrier(0);
            let mut sum = 0u64;
            if tmk.proc_id() == 1 {
                for p in 0..bytes / 4096 {
                    sum += tmk.get_u32(r, p * 1024) as u64;
                }
            }
            tmk.barrier(1);
            sum
        });
        std::hint::black_box(out);
    });
    cases.push(Case {
        name: "page_fetch_1mb_cluster",
        ns_per_op: fetch,
    });

    // --- emit ------------------------------------------------------------
    let speedup = scalar / create;
    let mut json = String::from("{\n  \"bench\": \"BENCH_diff\",\n  \"page_size\": 4096,\n");
    json.push_str(&format!(
        "  \"speedup_create_vs_scalar\": {speedup:.2},\n  \"cases\": {{\n"
    ));
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"{}\": {{ \"ns_per_op\": {:.1}, \"ops_per_sec\": {:.0} }}{comma}\n",
            c.name,
            c.ns_per_op,
            1e9 / c.ns_per_op
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_diff.json");
    println!("{json}");
    println!("wrote {out_path}");
    assert!(
        speedup >= 2.0,
        "chunked diff-create must be >= 2x the scalar baseline (got {speedup:.2}x)"
    );
}
