//! E7 — §5 future work: "scaling a DSM system to a cluster having 256
//! nodes".
//!
//! The paper closes by asking what it takes to scale past 16 nodes and
//! suggests pushing synchronization primitives down to the NIC. This
//! study takes the reproduced system there:
//!
//! 1. barrier cost vs cluster size (16 → 128 nodes) on FAST/GM, for the
//!    centralized barrier (linear arrival/release serialization — the
//!    first scaling wall the paper anticipates) and for the radix-8
//!    combining tree ([`tmk::BarrierAlgo::Tree`]), which bounds any
//!    node's serialized work at radix arrivals;
//! 2. the same tree with NIC-offloaded combining
//!    ([`tmk::BarrierAlgo::NicTree`]) — arrivals are merged by LANai
//!    firmware at `nic_combine` cost instead of a host interrupt plus
//!    handler, the paper's concrete §5 suggestion;
//! 3. the tree on an *ideal* (zero-latency, zero-overhead) substrate —
//!    the algorithmic floor, i.e. what a perfect network could at best
//!    recover once the algorithm itself scales;
//! 4. Jacobi at a fixed problem size across cluster sizes, showing where
//!    added nodes stop paying for themselves on each transport.
//!
//! `E7_SMOKE=1` runs a small assertion-carrying subset (8/16/32 nodes,
//! centralized vs tree) for CI.

use std::sync::Arc;

use tm_bench::{print_header, AppSpec};
use tm_fast::{run_fast_dsm, FastConfig, Transport};
use tm_sim::runner::NodeOutcome;
use tm_sim::{Ns, SimParams, TokenMode};
use tmk::memsub::run_mem_dsm;
use tmk::{BarrierAlgo, Substrate, Tmk, TmkConfig};

// Barrier rounds averaged per row; part of what `results/e7.txt` pins.
const ROUNDS: u64 = 60;

/// Combining-tree radix (`E7_RADIX` to override). The default is chosen
/// so 128 nodes fit in two levels (1 + k + k² ≥ 128) while keeping any
/// single node's serialized arrival work well under the centralized
/// manager's n−1.
fn radix() -> u16 {
    std::env::var("E7_RADIX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn barrier_body<S: Substrate>(tmk: &mut Tmk<S>) -> u64 {
    tmk.barrier(0); // warmup
    let t0 = tmk.clock().borrow().now();
    for k in 1..=ROUNDS {
        tmk.barrier(k as u32);
    }
    (tmk.clock().borrow().now() - t0).0 / ROUNDS
}

fn avg(v: &[NodeOutcome<u64>]) -> Ns {
    Ns(v.iter().map(|o| o.result).sum::<u64>() / v.len() as u64)
}

fn cfg(algo: BarrierAlgo) -> TmkConfig {
    TmkConfig {
        barrier_algo: algo,
        ..TmkConfig::default()
    }
}

/// Average barrier time on FAST/GM under the given algorithm.
fn fast_barrier(n: usize, algo: BarrierAlgo) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    let fc = FastConfig::paper(&params);
    avg(&run_fast_dsm(n, params, fc, cfg(algo), barrier_body))
}

/// Average barrier time on the ideal (zero-cost) substrate.
fn ideal_barrier(n: usize, algo: BarrierAlgo) -> Ns {
    let params = Arc::new(SimParams::paper_testbed());
    avg(&run_mem_dsm(n, params, Ns::ZERO, cfg(algo), barrier_body))
}

/// Wall-clock seconds for one `n`-node tree-barrier run under `tokens`.
fn wall_once(n: usize, tokens: TokenMode) -> f64 {
    let mut p = SimParams::paper_testbed();
    p.tokens = tokens;
    let params = Arc::new(p);
    let fc = FastConfig::paper(&params);
    let t0 = std::time::Instant::now();
    run_fast_dsm(
        n,
        params,
        fc,
        cfg(BarrierAlgo::Tree { radix: radix() }),
        barrier_body,
    );
    t0.elapsed().as_secs_f64()
}

/// CI smoke: small clusters, assertion-carrying. Proves the tree barrier
/// actually pays off and stays sub-linear without the 128-node runtime,
/// then prices the lockstep scheduler at 128 nodes: per-receiver tokens
/// must beat (or at worst match) the single-token baseline.
fn smoke() {
    print_header("E7 smoke: tree vs centralized barrier (8/16/32 nodes)");
    println!(
        "{:>6} {:>14} {:>14}",
        "nodes",
        "centralized",
        format!("tree({})", radix())
    );
    let mut tree = Vec::new();
    for n in [8usize, 16, 32] {
        let c = fast_barrier(n, BarrierAlgo::Centralized);
        let t = fast_barrier(n, BarrierAlgo::Tree { radix: radix() });
        println!("{n:>6} {:>14} {:>14}", format!("{c}"), format!("{t}"));
        if n >= 16 {
            assert!(
                t < c,
                "tree barrier must beat centralized at {n} nodes ({t} vs {c})"
            );
        }
        tree.push(t);
    }
    assert!(
        tree[2].0 < 2 * tree[0].0,
        "tree barrier 32 nodes ({}) must stay under 2x its 8-node cost ({})",
        tree[2],
        tree[0]
    );
    println!();
    println!("ok: tree < centralized at 16/32 nodes, 32-node tree < 2x 8-node");

    // Lockstep's wall-clock price at scale, in both token modes. Reps
    // alternate modes (host noise is bursty enough to bias a fixed order
    // — see bench_lockstep) and best-of minimums are compared: scheduler
    // overhead is a floor, and the floor is what the grant protocol
    // adds. The gate: per-receiver tokens must not lose to the single
    // token at 128 nodes — this is the scale regression the tokens exist
    // to fix (fewer blocked episodes, since a transmit to a free rx link
    // grants without parking).
    const WALL_NODES: usize = 128;
    const WALL_REPS: usize = 3;
    let (mut lock_w, mut single_w) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..WALL_REPS {
        lock_w = lock_w.min(wall_once(WALL_NODES, TokenMode::PerReceiver));
        single_w = single_w.min(wall_once(WALL_NODES, TokenMode::Single));
    }
    println!();
    println!(
        "lockstep wall at {WALL_NODES} nodes (tree barrier, best of {WALL_REPS}): \
         single={single_w:.3}s per-receiver={lock_w:.3}s"
    );
    assert!(
        lock_w <= single_w * 1.05,
        "per-receiver tokens must not lose to the single token at \
         {WALL_NODES} nodes ({lock_w:.3}s vs {single_w:.3}s)"
    );
    println!("ok: per-receiver <= single token at {WALL_NODES} nodes");
}

fn main() {
    if std::env::var_os("E7_SMOKE").is_some() {
        smoke();
        return;
    }

    print_header("E7: scaling toward 256 nodes (paper §5, future work)");

    println!();
    println!("-- barrier vs cluster size, by algorithm --");
    let k = radix();
    println!(
        "{:>6} {:>14} {:>12} {:>14} {:>12}",
        "nodes",
        "centralized",
        format!("tree({k})"),
        format!("nic-tree({k})"),
        "ideal tree"
    );
    let mut tree = Vec::new();
    for n in [16usize, 32, 64, 128] {
        let central = fast_barrier(n, BarrierAlgo::Centralized);
        let t = fast_barrier(n, BarrierAlgo::Tree { radix: radix() });
        let nic = fast_barrier(n, BarrierAlgo::NicTree { radix: radix() });
        let ideal = ideal_barrier(n, BarrierAlgo::Tree { radix: radix() });
        println!(
            "{n:>6} {:>14} {:>12} {:>14} {:>12}",
            format!("{central}"),
            format!("{t}"),
            format!("{nic}"),
            format!("{ideal}"),
        );
        tree.push((n, t));
    }
    let (n0, t0) = tree[0];
    let (n3, t3) = tree[tree.len() - 1];
    println!(
        "tree scaling: {n3} nodes / {n0} nodes = {:.2}x cost",
        t3.0 as f64 / t0.0.max(1) as f64
    );
    println!("the centralized column grows linearly (serialized arrivals at");
    println!("the manager); the radix-8 tree grows with depth. nic-tree");
    println!("replaces each interior host interrupt + handler with a LANai");
    println!("combining step — the paper's §5 suggestion — and sits between");
    println!("the tree and the ideal-network floor.");

    println!();
    println!("-- Jacobi 512x512, fixed size, growing cluster --");
    println!("{:>6} {:>14} {:>14} {:>8}", "nodes", "UDP/GM", "FAST/GM", "factor");
    let spec = AppSpec::Jacobi(tm_apps::JacobiConfig::new(512, 10));
    let want = spec.expected();
    for n in [8usize, 16, 32, 64] {
        let udp = tm_bench::run_spec_with(Transport::Udp, n, &spec, &want);
        let fast = tm_bench::run_spec_with(Transport::Fast, n, &spec, &want);
        println!(
            "{n:>6} {:>14} {:>14} {:>7.2}x",
            format!("{udp}"),
            format!("{fast}"),
            udp.0 as f64 / fast.0.max(1) as f64
        );
    }
    println!();
    println!("fixed-size scaling flattens as per-node work shrinks against");
    println!("synchronization cost — the regime the paper's 256-node goal");
    println!("must engineer around (NIC primitives, tree barriers).");
}
