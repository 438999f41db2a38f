//! Lockstep-scheduler reproducibility tests.
//!
//! The fabric serializes transmits through the conservative virtual-time
//! scheduler (`tm_sim::sched`), so a run's
//! observable outcome — shared memory, per-node stats, per-node virtual
//! clocks — must not depend on wall-clock thread interleaving at all. We
//! prove it the hard way: the same workload runs twice with *different*
//! seeded wall-clock perturbation (each node sleeps pseudo-random real-time
//! amounts between DSM operations), and the two runs must agree byte for
//! byte. A third battery checks recovery: over randomized
//! drop/duplicate/reorder fault schedules, every run must converge to the
//! workload's closed-form memory image (faults may reorder recovery, never
//! corrupt it).

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tm_fast::{run_fast_dsm, run_udp_dsm, FastConfig};
use tm_sim::{FaultPlan, Ns, SimParams, TokenMode, Until};
use tmk::{Substrate, Tmk, TmkConfig};

const NODES: usize = 4;
const PAGES: usize = 4;
const INCRS: u32 = 6;

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

/// Deterministic per-(seed, node, step) wall-clock jitter: an xorshift over
/// the mixed key picks a sleep in [0, 200)us. The *virtual* outcome of a
/// lockstep run must be independent of every one of these sleeps.
fn jitter(seed: u64, node: usize, step: u64) {
    let mut x = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::thread::sleep(Duration::from_micros(x % 200));
}

/// Contended barrier + lock + multi-writer round, with wall-clock jitter
/// injected between operations. Returns the node's full memory snapshot —
/// the byte-identity payload.
fn perturbed_workload<S: Substrate>(tmk: &mut Tmk<S>, seed: u64) -> Vec<u8> {
    let r = tmk.malloc(PAGES * 4096);
    let me = tmk.proc_id();
    jitter(seed, me, 0);
    tmk.barrier(0);
    for it in 0..INCRS {
        jitter(seed, me, 1 + it as u64);
        tmk.acquire(0);
        let v = tmk.get_u32(r, 0);
        tmk.set_u32(r, 0, v + 1);
        tmk.release(0);
    }
    tmk.barrier(1);
    // Multi-writer pages: everyone writes its own stripe of every page.
    // Stripes start at word 16 so the lock-guarded counter in word 0
    // survives to the final snapshot.
    for p in 0..PAGES {
        jitter(seed, me, 100 + p as u64);
        for w in 0..8usize {
            tmk.set_u32(r, p * 1024 + 16 + me * 8 + w, ((me as u32) << 16) | w as u32);
        }
    }
    tmk.barrier(2);
    let mut snap = vec![0u8; PAGES * 4096];
    tmk.read_bytes(r, 0, &mut snap);
    tmk.barrier(3);
    snap
}

/// One run's complete observable signature: per node, the final virtual
/// clock, every stat counter (Debug format covers all fields, so a new
/// counter is automatically included) and the memory snapshot.
fn fingerprint(out: &[tm_sim::runner::NodeOutcome<Vec<u8>>]) -> Vec<(u64, String, Vec<u8>)> {
    out.iter()
        .map(|o| (o.finish.0, format!("{:?}", o.stats), o.result.clone()))
        .collect()
}

#[test]
fn fast_lockstep_double_run_is_byte_identical() {
    let run = |seed: u64| {
        let p = params();
        let cfg = FastConfig::paper(&p);
        let out = run_fast_dsm(NODES, p, cfg, TmkConfig::default(), move |tmk| {
            perturbed_workload(tmk, seed)
        });
        fingerprint(&out)
    };
    // Different jitter seeds → different wall-clock interleavings. The
    // virtual outcome must not notice.
    let a = run(0x5eed_0001);
    let b = run(0x5eed_0002);
    assert_eq!(a, b, "FAST/GM lockstep run diverged across jitter seeds");
    assert_eq!(
        a[0].2[..4],
        (NODES as u32 * INCRS).to_le_bytes(),
        "lock-guarded counter wrong"
    );
}

#[test]
fn udp_lockstep_double_run_is_byte_identical() {
    let run = |seed: u64| {
        let out = run_udp_dsm(NODES, params(), TmkConfig::default(), move |tmk| {
            perturbed_workload(tmk, seed)
        });
        fingerprint(&out)
    };
    let a = run(0xabcd_0001);
    let b = run(0xabcd_0002);
    assert_eq!(a, b, "UDP/GM lockstep run diverged across jitter seeds");
}

#[test]
fn udp_lockstep_pins_faulty_run_signatures() {
    // A 4-node *concurrent* workload under loss and duplication must
    // reproduce exactly. Nodes 1.. are pinned whole; for the barrier
    // manager (node 0), the counters that close before the exit barrier.
    let run = |seed: u64| {
        let mut p = SimParams::paper_testbed();
        p.faults = FaultPlan {
            drop_probability: 0.08,
            duplicate_probability: 0.05,
            ..FaultPlan::default()
        };
        let out = run_udp_dsm(NODES, Arc::new(p), TmkConfig::default(), move |tmk| {
            perturbed_workload(tmk, seed)
        });
        let snaps: Vec<Vec<u8>> = out.iter().map(|o| o.result.clone()).collect();
        // Nodes 1.. never linger (centralized manager is node 0): their
        // whole outcome is pinned, virtual clock included.
        let peers: Vec<(u64, String)> = out[1..]
            .iter()
            .map(|o| (o.finish.0, format!("{:?}", o.stats)))
            .collect();
        // Node 0: pin the counters that close before the exit barrier.
        let s0 = &out[0].stats;
        let mgr = (
            s0.compute_time,
            s0.page_faults,
            s0.pages_fetched,
            s0.diffs_created,
            s0.diffs_applied,
            s0.twins_created,
            s0.remote_acquires,
            s0.barriers,
            s0.retransmits,
        );
        (snaps, peers, mgr)
    };
    let (snaps_a, peers_a, mgr_a) = run(0xfa17_0001);
    let (snaps_b, peers_b, mgr_b) = run(0xfa17_0002);
    assert_eq!(snaps_a, snaps_b, "lossy lockstep runs saw different memory");
    assert!(
        snaps_a.iter().all(|s| *s == snaps_a[0]),
        "nodes disagree on final memory"
    );
    assert_eq!(peers_a, peers_b, "peer stats diverged under lockstep");
    assert_eq!(mgr_a, mgr_b, "manager pre-exit stats diverged under lockstep");
    assert!(
        peers_a.iter().any(|(_, s)| s.contains("retransmits: ")),
        "stats format changed under test"
    );
}

/// Shared-memory outcome of the workload on `nodes` nodes under a fault
/// plan (no jitter — this battery varies the *fault schedule*).
fn memory_under(nodes: usize, faults: FaultPlan) -> Vec<u8> {
    let mut p = SimParams::paper_testbed();
    p.faults = faults;
    let out = run_udp_dsm(nodes, Arc::new(p), TmkConfig::default(), |tmk| {
        perturbed_workload(tmk, 0)
    });
    for o in &out {
        assert_eq!(o.result, out[0].result, "node {} snapshot diverges", o.id);
    }
    out[0].result.clone()
}

/// The memory image [`perturbed_workload`] must leave on `nodes` nodes:
/// the lock-guarded counter in word 0 holds `nodes × INCRS`, and word `w`
/// of node `m`'s stripe on every page holds `(m << 16) | w`.
fn expected_memory(nodes: usize) -> Vec<u8> {
    let mut img = vec![0u8; PAGES * 4096];
    let mut put =
        |word: usize, v: u32| img[word * 4..word * 4 + 4].copy_from_slice(&v.to_le_bytes());
    put(0, nodes as u32 * INCRS);
    for p in 0..PAGES {
        for m in 0..nodes {
            for w in 0..8usize {
                put(p * 1024 + 16 + m * 8 + w, ((m as u32) << 16) | w as u32);
            }
        }
    }
    img
}

/// Full lockstep fingerprint of the workload under a given token mode and
/// fault plan. The fingerprint covers every node's final virtual clock,
/// all stat counters, and the memory snapshot — any per-inbox delivery
/// reordering shifts virtual arrival times and therefore clocks and
/// counters, so fingerprint equality pins the per-inbox delivery order,
/// not just the converged memory.
fn fingerprint_under_tokens(tokens: TokenMode, faults: FaultPlan) -> Vec<(u64, String, Vec<u8>)> {
    let mut p = SimParams::paper_testbed();
    p.tokens = tokens;
    p.faults = faults;
    let out = run_udp_dsm(3, Arc::new(p), TmkConfig::default(), |tmk| {
        perturbed_workload(tmk, 0)
    });
    fingerprint(&out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault recovery is exact: over randomized drop/duplicate/reorder
    /// schedules, the lossy run recovers to the closed-form memory image.
    /// Faults may only change when things happen, never what the DSM
    /// computes. (The name is historical: the reference used to be a
    /// second, free-running scheduler.)
    #[test]
    fn freerun_and_lockstep_agree_on_memory(
        seed in 1u64..1_000_000,
        drop_pm in 0u32..80,      // ‰ (per-mille) → ≤ 8% loss
        dup_pm in 0u32..60,
        reorder_pm in 0u32..60,
    ) {
        let plan = FaultPlan {
            seed,
            drop_probability: drop_pm as f64 / 1000.0,
            duplicate_probability: dup_pm as f64 / 1000.0,
            reorder_probability: reorder_pm as f64 / 1000.0,
            reorder_delay: Ns::from_us(250),
            ..FaultPlan::default()
        };
        prop_assert_eq!(
            memory_under(3, plan),
            expected_memory(3),
            "lossy run recovered the wrong memory"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Token-mode equivalence: per-receiver reservation tokens may only
    /// add wall-clock concurrency, never change the virtual schedule.
    /// Over randomized drop/duplicate/reorder fault schedules, the
    /// single-token and per-receiver lockstep runs must produce identical
    /// full fingerprints — memory, per-node virtual clocks, and every
    /// stat counter — which pins the per-inbox delivery order byte for
    /// byte (see [`fingerprint_under_tokens`]).
    #[test]
    fn single_and_per_receiver_tokens_agree_on_everything(
        seed in 1u64..1_000_000,
        drop_pm in 0u32..80,
        dup_pm in 0u32..60,
        reorder_pm in 0u32..60,
    ) {
        let plan = FaultPlan {
            seed,
            drop_probability: drop_pm as f64 / 1000.0,
            duplicate_probability: dup_pm as f64 / 1000.0,
            reorder_probability: reorder_pm as f64 / 1000.0,
            reorder_delay: Ns::from_us(250),
            ..FaultPlan::default()
        };
        let single = fingerprint_under_tokens(TokenMode::Single, plan.clone());
        let per_rx = fingerprint_under_tokens(TokenMode::PerReceiver, plan);
        prop_assert_eq!(single, per_rx, "token modes produced different schedules");
    }
}

/// 128-node smoke: a ring of one-shot sends to pairwise-distinct
/// receivers must actually overlap under per-receiver tokens. No grant
/// can fire while any node has yet to announce its transmit (its floor
/// still bounds every candidate), so by the time the scheduler dispatches,
/// all 128 Pending transmits are visible at once; with disjoint rx links
/// and far-future sender floors they are granted in one batch — the
/// concurrency gauge must therefore observe at least two simultaneous
/// in-flight grants (the single-token scheduler pins it at exactly 1).
#[test]
fn per_receiver_tokens_overlap_disjoint_receivers_at_128_nodes() {
    use bytes::Bytes;
    const N: usize = 128;
    let params = Arc::new(SimParams::paper_testbed());
    let (fabric, nics) = tm_myrinet::Fabric::new(N, params);
    let mut threads = Vec::new();
    for (i, mut nic) in nics.into_iter().enumerate() {
        threads.push(std::thread::spawn(move || {
            let dst = (i + 1) % N;
            // One send ever: the post-transmit floor is effectively
            // infinite, so no grant need wait on this node again.
            nic.inject_floored(
                dst,
                0,
                0,
                Bytes::from(vec![i as u8; 4096]),
                Ns::from_us(1000 + i as u64),
                None,
                Ns::from_secs(3600),
            );
            let pkt = nic
                .recv(&[0], Until::FOREVER, Ns::ZERO)
                .got()
                .expect("a packet");
            assert_eq!(pkt.src, (i + N - 1) % N, "ring delivery broke");
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let grants = fabric.sched().max_concurrent_grants();
    assert!(
        grants >= 2,
        "disjoint receivers never overlapped: max concurrent grants = {grants}"
    );
}

/// `bench_lockstep`'s 4-writer diff storm: every writer dirties a word of
/// each of 64 pages, then the last node faults them all back in with one
/// `read_bytes`. Returns that read's modeled cost.
fn diff_storm_read_ns() -> u64 {
    const PAGES: usize = 64;
    const WRITERS: usize = 4;
    let body = |tmk: &mut Tmk<_>| {
        let region = tmk.malloc(PAGES * 4096);
        let me = tmk.proc_id();
        for p in 0..PAGES {
            let _ = tmk.get_u32(region, p * 1024);
        }
        tmk.barrier(0);
        if me < WRITERS {
            for p in 0..PAGES {
                tmk.set_u32(region, p * 1024 + me * 16, 1 + me as u32);
            }
        }
        tmk.barrier(1);
        let mut cost = 0;
        if me == WRITERS {
            let mut buf = vec![0u8; PAGES * 4096];
            let t0 = tmk.clock().borrow().now();
            tmk.read_bytes(region, 0, &mut buf);
            cost = (tmk.clock().borrow().now() - t0).0;
        }
        tmk.barrier(2);
        cost
    };
    let params = params();
    let cfg = FastConfig::paper(&params);
    run_fast_dsm(WRITERS + 1, params, cfg, TmkConfig::default(), body)[WRITERS].result
}

/// Regression: FAST's blocking receive once took the earliest packet
/// already pushed to the node, while a packet with an earlier arrival
/// could still be granted and pushed after it (a large packet injected
/// first, a small one right after). Some storms then priced the read
/// 2.65 µs higher than the rest.
#[test]
fn diff_storm_prices_one_modeled_cost() {
    let costs: std::collections::BTreeSet<u64> = (0..32).map(|_| diff_storm_read_ns()).collect();
    assert_eq!(
        costs.len(),
        1,
        "storm reps disagree on the modeled cost: {costs:?}"
    );
}
