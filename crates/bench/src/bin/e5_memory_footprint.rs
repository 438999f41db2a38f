//! E5 — §2.2.2's registered-memory arithmetic.
//!
//! The paper sizes the preposted receive buffers at
//! `64KB·(n−1) + 64KB` per node — "for a system with 256 nodes our
//! system's memory requirement is 16 MB (approx)" — and notes that
//! dropping size classes ≥13 in favour of a rendezvous protocol brings it
//! "down to 6 MB for a 256 node cluster". This binary instantiates the
//! real substrate at several cluster sizes, in both configurations, and
//! prints measured against closed-form numbers.

use std::sync::Arc;

use tm_bench::print_header;
use tm_fast::{FastConfig, FastSubstrate};
use tm_gm::gm_cluster_driven;
use tm_sim::clock::shared_clock;
use tm_sim::SimParams;

fn footprint(n: usize, rendezvous: bool) -> (usize, usize) {
    let params = Arc::new(SimParams::paper_testbed());
    let (_f, board, mut nics) = gm_cluster_driven(n, Arc::clone(&params));
    let mut cfg = FastConfig::paper(&params);
    cfg.rendezvous = rendezvous;
    let nic = nics.remove(0);
    let sub = FastSubstrate::new(nic, shared_clock(), params, board, cfg);
    (sub.prepost_bytes, sub.pinned_bytes())
}

fn mb(b: usize) -> f64 {
    b as f64 / (1 << 20) as f64
}

fn main() {
    print_header("E5: registered-memory requirement (paper §2.2.2)");
    println!(
        "{:>6} {:>16} {:>16} {:>16} {:>16}",
        "nodes", "eager (MB)", "paper formula", "rendezvous (MB)", "total pinned"
    );
    for n in [4usize, 16, 64, 256] {
        let (eager, _) = footprint(n, false);
        let (rdv, pinned_rdv) = footprint(n, true);
        // Paper closed form: 64KB*(n-1) + 64KB.
        let formula = 64 * 1024 * (n - 1) + 64 * 1024;
        println!(
            "{n:>6} {:>16.2} {:>16.2} {:>16.2} {:>16.2}",
            mb(eager),
            mb(formula),
            mb(rdv),
            mb(pinned_rdv),
        );
    }
    println!();
    println!("paper anchor points (256 nodes): ~16 MB eager, ~6 MB with the");
    println!("rendezvous protocol for messages above 8 KB.");
}
