//! Pipelined-synchronization correctness: the overlapped lock path and
//! the stride prefetcher change *when* diffs move, never *what* a fault
//! applies. Whatever the schedule — clean, lossy, duplicated, reordered
//! — shared memory must stay byte-identical to the serial spec baseline,
//! and the prefetcher's waste must stay bounded.
//!
//! The lock workload is the TSP-like storm: the holder writes a block of
//! pages under the lock, the reader acquires and reads it back, with the
//! lock handoff as the only ordering (so the grant carries the write
//! notices the pipeline overlaps). The prefetch workload is the SOR-like
//! ascending sweep that keeps the stride detector hot.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::run_udp_dsm;
use tm_sim::{FaultPlan, Ns, SimParams};
use tmk::{LockPath, MetricsHandle, Substrate, Tmk, TmkConfig};

const PAGES: usize = 8;
const ROUNDS: u32 = 4;

/// Paper testbed with a fault plan. The storm's handoff spin advances
/// the reader's clock ~600ns per probe; the lockstep scheduler keeps the
/// writer's doubling retransmission deadlines within one window of that
/// crawling clock, so the requester never exhausts its retry budget
/// against a peer that is alive and polling, and every schedule is
/// byte-reproducible.
fn with_plan(f: FaultPlan) -> Arc<SimParams> {
    let mut p = SimParams::paper_testbed();
    p.faults = f;
    Arc::new(p)
}

/// Lock-handoff storm; every node returns its full memory snapshot.
fn storm<S: Substrate>(tmk: &mut Tmk<S>) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    for round in 0..ROUNDS {
        let want = round + 1;
        if me == 0 {
            tmk.acquire(0);
            // Payload first, turn marker (page 0) last: a reader that
            // observes the marker holds notices for the whole interval.
            for p in 1..PAGES {
                tmk.set_u32(r, p * 1024 + 4, (want << 8) | p as u32);
            }
            tmk.set_u32(r, 4, want);
            tmk.release(0);
        } else {
            loop {
                tmk.acquire(0);
                if tmk.get_u32(r, 4) == want {
                    break;
                }
                tmk.release(0);
            }
            for p in 1..PAGES {
                assert_eq!(tmk.get_u32(r, p * 1024 + 4), (want << 8) | p as u32);
            }
            tmk.release(0);
        }
        tmk.barrier(1 + round);
    }
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(1 + ROUNDS);
    snap
}

/// Run the storm under `(lock_path, prefetch_depth)` and `plan`; assert
/// both nodes converge on one snapshot and return it.
fn run_storm(lock_path: LockPath, depth: usize, plan: FaultPlan) -> Vec<u8> {
    let cfg = TmkConfig {
        lock_path,
        prefetch_depth: depth,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(2, with_plan(plan), cfg, storm);
    for o in &out {
        assert_eq!(
            o.result, out[0].result,
            "node {} snapshot diverges under {lock_path:?}/depth {depth}",
            o.id
        );
    }
    out[0].result.clone()
}

#[test]
fn pipelined_paths_match_serial_on_clean_network() {
    let serial = run_storm(LockPath::Serial, 0, FaultPlan::default());
    assert_eq!(
        run_storm(LockPath::Overlapped, 0, FaultPlan::default()),
        serial
    );
    assert_eq!(
        run_storm(LockPath::Overlapped, 4, FaultPlan::default()),
        serial
    );
    // The content itself: the last round's interval on every page
    // (u32 index `p * 1024 + 4` is byte offset `p * 4096 + 16`).
    for p in 1..PAGES {
        let at = p * 4096 + 16;
        let v = u32::from_le_bytes(serial[at..at + 4].try_into().unwrap());
        assert_eq!(v, (ROUNDS << 8) | p as u32, "page {p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Seeded drop/duplicate/reorder schedules against the pipelined
    /// lock path (with and without the prefetcher): grants, notice
    /// sends, and speculative volleys arrive late, twice, or never
    /// (retransmitted), and memory must still match the clean serial
    /// reference byte for byte.
    #[test]
    fn pipelined_sync_survives_random_fault_schedules(
        seed in any::<u64>(),
        drop_pm in 0u32..120,      // 0..12% loss
        dup_pm in 0u32..150,       // 0..15% duplication
        reorder_pm in 0u32..200,   // 0..20% reordering
        depth in 0usize..3,
    ) {
        let clean = run_storm(LockPath::Serial, 0, FaultPlan::default());
        let plan = FaultPlan {
            seed,
            drop_probability: f64::from(drop_pm) / 1000.0,
            duplicate_probability: f64::from(dup_pm) / 1000.0,
            reorder_probability: f64::from(reorder_pm) / 1000.0,
            reorder_delay: Ns::from_us(250),
            ..FaultPlan::default()
        };
        prop_assert_eq!(run_storm(LockPath::Overlapped, depth * 4, plan), clean);
    }
}

/// Ascending sweep; the reader returns its snapshot plus the prefetch
/// tally `(issued, hits, wasted)`.
fn sweep<S: Substrate>(tmk: &mut Tmk<S>) -> (Vec<u8>, u64, u64, u64) {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    for p in 0..PAGES {
        let _ = tmk.get_u32(r, p * 1024);
    }
    tmk.barrier(0);
    if me == 0 {
        for p in 0..PAGES {
            tmk.set_u32(r, p * 1024, p as u32 + 1);
        }
    }
    tmk.barrier(1);
    let mut tally = (0u64, 0u64, 0u64);
    if me == 1 {
        let h = MetricsHandle::install(tmk);
        for p in 0..PAGES {
            assert_eq!(tmk.get_u32(r, p * 1024), p as u32 + 1);
        }
        let m = h.snapshot();
        let count = |k: &str| m.get(k).map_or(0, |e| e.count);
        tally = (
            count("prefetch_issued"),
            count("prefetch_hit"),
            count("prefetch_wasted"),
        );
        tmk.clear_event_hook();
    }
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(2);
    (snap, tally.0, tally.1, tally.2)
}

/// The prefetcher under 10% loss, pinned: the conservative lockstep
/// scheduler makes the faulty run byte-reproducible, so the exact
/// volley/hit/waste counts are part of the contract. Speculation must
/// still land (hits > 0) and its waste stays bounded by what it issued.
#[test]
fn prefetch_signature_pinned_under_loss() {
    let mut p = SimParams::paper_testbed();
    p.faults = FaultPlan {
        seed: 0x7e11_57a7,
        drop_probability: 0.10,
        ..FaultPlan::default()
    };
    let cfg = TmkConfig {
        prefetch_depth: 4,
        ..TmkConfig::default()
    };
    let out = run_udp_dsm(2, Arc::new(p), cfg, sweep);
    let (ref snap, issued, hits, wasted) = out[1].result;
    assert_eq!(&out[0].result.0, snap, "snapshots diverge under loss");
    for (p, chunk) in snap.chunks(4096).enumerate() {
        let v = u32::from_le_bytes(chunk[..4].try_into().unwrap());
        assert_eq!(v, p as u32 + 1, "page {p}");
    }
    assert!(hits > 0, "prefetcher must land hits under loss");
    assert!(
        hits + wasted <= issued,
        "every issued page resolves to at most one hit or waste \
         (issued={issued} hits={hits} wasted={wasted})"
    );
    // The pinned signature: re-run to learn the new triple if a protocol
    // change legitimately shifts it, then update here.
    assert_eq!(
        (issued, hits, wasted),
        (5, 5, 0),
        "prefetch signature drifted under the pinned lossy schedule"
    );
}
