//! End-to-end fault-injection tests: the DSM must survive a seeded,
//! deterministic schedule of datagram drops, duplicates, reorders,
//! corruption, GM token starvation and receive-buffer overflow — with
//! byte-identical shared memory and exact, reproducible fault counters.
//!
//! The workload is the ISSUE's canonical round: 4 nodes run barriers, a
//! lock-guarded shared counter, striped page writes and full-memory
//! reads (page fetches + diffs). Any reliability bug has a visible
//! signature here: a double-granted lock loses counter increments, a
//! replayed diff corrupts page bytes, a lost message without
//! retransmission deadlocks the run.

use std::sync::Arc;

use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::{FaultPlan, NodeStats, Ns, SimParams};
use tmk::{DiffFetch, Substrate, Tmk, TmkConfig};

const NODES: usize = 4;
const PAGES: usize = 6;
/// Lock-guarded increments per node; the counter must end at exactly
/// `NODES * INCRS` or mutual exclusion was violated.
const INCRS: u32 = 8;

fn with_plan(f: FaultPlan) -> Arc<SimParams> {
    let mut p = SimParams::paper_testbed();
    p.faults = f;
    Arc::new(p)
}

/// Barrier + lock + page-fetch round. Returns (full memory snapshot,
/// final counter value) so callers can compare runs byte for byte.
fn workload<S: Substrate>(tmk: &mut Tmk<S>) -> (Vec<u8>, u32) {
    let r = tmk.malloc(PAGES * 4096);
    tmk.barrier(0);
    let me = tmk.proc_id();
    for _ in 0..INCRS {
        tmk.acquire(0);
        let v = tmk.get_u32(r, 0);
        tmk.set_u32(r, 0, v + 1);
        tmk.release(0);
    }
    tmk.barrier(1);
    // Striped writes: node `me` owns page `me + 1` (page 0 holds the
    // counter), so every reader below needs a remote fetch per stripe.
    for w in 0..1024usize {
        tmk.set_u32(r, (me + 1) * 1024 + w, ((me as u32) << 16) | w as u32);
    }
    tmk.barrier(2);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(3);
    (snap, tmk.get_u32(r, 0))
}

/// Run the UDP workload under `plan`; assert correctness invariants and
/// return (reference snapshot, aggregated stats).
fn run_udp_under(plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let out = run_udp_dsm(NODES, with_plan(plan), TmkConfig::default(), workload);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(o.result.1, NODES as u32 * INCRS, "node {} counter", o.id);
        assert_eq!(
            o.result.0, out[0].result.0,
            "node {} snapshot diverges from node 0",
            o.id
        );
    }
    (out[0].result.0.clone(), agg)
}

#[test]
fn lossless_run_has_zero_fault_counters() {
    // Zero-fault invariance: with the plan disabled no reliability
    // machinery may fire — not one retransmission, tombstone, checksum
    // or replay-cache hit.
    let (_, s) = run_udp_under(FaultPlan::default());
    assert!(!s.any_faults(), "fault counters on a clean run: {s:?}");
}

#[test]
fn ten_percent_loss_completes_with_identical_memory() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.10,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean, "shared memory corrupted by loss recovery");
    assert!(s.dgrams_dropped > 0, "plan injected no drops: {s:?}");
    assert!(s.retransmits > 0, "drops recovered without retransmits? {s:?}");
}

#[test]
fn one_percent_loss_completes_with_identical_memory() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.01,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(s.dgrams_dropped > 0, "1% over this workload still drops: {s:?}");
    assert!(s.retransmits >= s.dgrams_dropped, "every drop needs a resend");
}

/// A fully serialized 2-node round: every message is ordered by a data
/// or barrier dependency, so each node's send sequence is its program
/// order and the seeded drop schedule lands on the same datagrams every
/// run. (The concurrent 4-node workload above reproduces too, under the
/// lockstep scheduler; `tests/lockstep.rs` pins its signature.)
fn serialized_workload<S: Substrate>(tmk: &mut Tmk<S>) -> u32 {
    let r = tmk.malloc(2 * 4096);
    tmk.barrier(0);
    let me = tmk.proc_id();
    for it in 0..6u32 {
        if me == it as usize % 2 {
            tmk.acquire(0);
            let v = tmk.get_u32(r, 0);
            tmk.set_u32(r, 0, v + 1);
            tmk.release(0);
        }
        tmk.barrier(1 + it);
    }
    tmk.get_u32(r, 0)
}

#[test]
fn retransmission_counts_are_deterministic() {
    // Same seed, same workload → the identical fault schedule, down to
    // exact counter values. This is the tentpole's reproducibility
    // guarantee: a failure seen once can be replayed forever.
    let run = || {
        let plan = FaultPlan {
            drop_probability: 0.10,
            ..FaultPlan::default()
        };
        let out = run_udp_dsm(2, with_plan(plan), TmkConfig::default(), serialized_workload);
        let mut agg = NodeStats::default();
        for o in &out {
            agg.merge(&o.stats);
            assert_eq!(o.result, 6);
        }
        agg
    };
    let a = run();
    let b = run();
    assert_eq!(a.dgrams_dropped, b.dgrams_dropped);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.dup_requests_suppressed, b.dup_requests_suppressed);
    assert_eq!(a.stale_responses_dropped, b.stale_responses_dropped);
    // The seeded schedule's exact signature for this workload. If a code
    // change legitimately alters message order (new protocol traffic,
    // different rto), re-pin these numbers — the point is that they
    // never drift without a code change. (Last re-pinned for the
    // overlapped RPC engine, whose serve-queue draining shifts response
    // send order slightly.)
    assert_eq!(a.dgrams_dropped, 5);
    assert_eq!(a.retransmits, 5);
    assert_eq!(a.dup_requests_suppressed, 2);
    assert_eq!(a.stale_responses_dropped, 0);
}

#[test]
fn replayed_requests_are_idempotent() {
    // Duplicate delivery replays Acquire/Diff/BarrierArrive requests at
    // the responder. A double-granted acquire would let two nodes run
    // the critical section concurrently (counter < 32); a re-served diff
    // or page request must not disturb page state (snapshot equality).
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        duplicate_probability: 0.25,
        drop_probability: 0.05,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean, "replayed request mutated page state");
    assert!(s.dgrams_duplicated > 0, "plan injected no duplicates: {s:?}");
    assert!(
        s.dup_requests_suppressed + s.stale_responses_dropped > 0,
        "no duplicate was ever absorbed: {s:?}"
    );
}

#[test]
fn reordering_is_survived() {
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        reorder_probability: 0.20,
        reorder_delay: Ns::from_us(300),
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(s.dgrams_reordered > 0, "plan reordered nothing: {s:?}");
}

#[test]
fn corruption_is_detected_and_survived() {
    // Flipped bytes must be caught by the wire checksum (never decoded
    // into protocol state) and then recovered like any other loss.
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        corrupt_probability: 0.05,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean, "corrupted frame leaked into page state");
    assert!(s.dgrams_corrupted > 0, "plan corrupted nothing: {s:?}");
    assert_eq!(
        s.crc_rejected, s.dgrams_corrupted,
        "every injected flip must be caught by the checksum: {s:?}"
    );
    assert!(s.retransmits > 0, "CRC rejects must drive retransmission");
}

#[test]
fn recvbuf_overflow_pressure_is_survived() {
    // A shallow socket buffer drops bursts silently (no tombstone), so
    // recovery rides purely on the virtual-time retransmission timer.
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, _) = run_udp_under(FaultPlan {
        recvbuf_datagrams: 4,
        drop_probability: 0.02,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
}

#[test]
fn everything_at_once() {
    // The full gauntlet: drop + duplicate + reorder + corrupt on one run.
    let (clean, _) = run_udp_under(FaultPlan::default());
    let (snap, s) = run_udp_under(FaultPlan {
        drop_probability: 0.05,
        duplicate_probability: 0.05,
        reorder_probability: 0.05,
        corrupt_probability: 0.02,
        ..FaultPlan::default()
    });
    assert_eq!(snap, clean);
    assert!(s.dgrams_dropped > 0 && s.dgrams_duplicated > 0 && s.dgrams_reordered > 0);
}

/// Three-writer diff storm so every page fault keeps three RPCs in
/// flight; every node snapshots the whole region at the end.
fn multi_writer_storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    if me < 3 {
        for p in 0..PAGES {
            tmk.set_u32(r, p * 1024 + me * 16, ((me as u32) << 8) | p as u32);
        }
    }
    tmk.barrier(1);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(2);
    snap
}

fn run_storm_under(engine: DiffFetch, plan: FaultPlan) -> (Vec<u8>, NodeStats) {
    let cfg = TmkConfig {
        diff_fetch: engine,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(NODES, with_plan(plan), cfg, multi_writer_storm);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(
            o.result, out[0].result,
            "node {} snapshot diverges under {engine:?}",
            o.id
        );
    }
    (out[0].result.clone(), agg)
}

#[test]
fn parallel_diff_fetch_survives_ten_percent_loss() {
    // The overlapped engine's per-rid retransmission timers, out-of-order
    // collection and full-outstanding-set stale discard all under fire at
    // once: three rids in flight per fault, 10% of datagrams vanish.
    // Memory must match a clean serial run byte for byte.
    let (clean, _) = run_storm_under(DiffFetch::Serial, FaultPlan::default());
    let (snap, s) = run_storm_under(
        DiffFetch::Coalesced,
        FaultPlan {
            drop_probability: 0.10,
            ..FaultPlan::default()
        },
    );
    assert_eq!(snap, clean, "memory corrupted by loss recovery");
    assert!(s.dgrams_dropped > 0, "plan injected no drops: {s:?}");
    assert!(s.retransmits > 0, "drops recovered without retransmits? {s:?}");
}

#[test]
fn fast_survives_token_starvation() {
    // GM-side fault: the send-token pool runs dry for 20us out of every
    // 200us of virtual time. FAST must back off and poll, never panic,
    // and the DSM outcome must be unchanged.
    let plan = FaultPlan {
        token_starvation_period: Ns::from_us(200),
        token_starvation_duration: Ns::from_us(20),
        ..FaultPlan::default()
    };
    let params = with_plan(plan);
    let cfg = FastConfig::paper(&params);
    let out = run_fast_dsm(NODES, params, cfg, TmkConfig::default(), workload);
    let mut agg = NodeStats::default();
    for o in &out {
        agg.merge(&o.stats);
        assert_eq!(o.result.1, NODES as u32 * INCRS);
        assert_eq!(o.result.0, out[0].result.0);
    }
    assert!(agg.token_stalls > 0, "starvation windows never bit: {agg:?}");
}
