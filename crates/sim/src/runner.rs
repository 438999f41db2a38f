//! Cluster runner: one OS thread per simulated node.
//!
//! The runner knows nothing about transports or DSM — it only hands each
//! node thread its identity and a fresh [`SharedClock`], runs the node body,
//! and joins the per-node results. Higher layers (tm-fast, tmk, tm-bench)
//! build their per-node state inside the body closure.

use std::sync::Arc;
use std::thread;

use crate::clock::{shared_clock, SharedClock};
use crate::params::SimParams;
use crate::stats::NodeStats;
use crate::time::Ns;

/// Identity and environment handed to each node thread.
pub struct NodeEnv {
    /// This node's id in `0..nprocs`.
    pub id: usize,
    /// Cluster size.
    pub nprocs: usize,
    /// The node's virtual clock (node-thread local).
    pub clock: SharedClock,
    /// The shared cost model.
    pub params: Arc<SimParams>,
}

/// Result of one node's run.
pub struct NodeOutcome<R> {
    pub id: usize,
    /// The node's final virtual time.
    pub finish: Ns,
    pub stats: NodeStats,
    pub result: R,
}

/// Spawn `nprocs` node threads, run `body` on each, and join.
///
/// The outcome vector is ordered by node id. Panics in any node are
/// propagated. A protocol deadlock does not hang the run: the lockstep
/// scheduler panics naming the parked nodes once no event is left.
pub fn run_cluster<R, F>(nprocs: usize, params: Arc<SimParams>, body: F) -> Vec<NodeOutcome<R>>
where
    R: Send + 'static,
    F: Fn(&NodeEnv) -> R + Send + Sync + 'static,
{
    assert!(nprocs >= 1, "cluster needs at least one node");
    let body = Arc::new(body);
    let mut handles = Vec::with_capacity(nprocs);
    for id in 0..nprocs {
        let body = Arc::clone(&body);
        let params = Arc::clone(&params);
        handles.push(
            thread::Builder::new()
                .name(format!("node-{id}"))
                .stack_size(16 << 20)
                .spawn(move || {
                    let env = NodeEnv {
                        id,
                        nprocs,
                        clock: shared_clock(),
                        params,
                    };
                    let result = body(&env);
                    let clock = env.clock.borrow();
                    NodeOutcome {
                        id,
                        finish: clock.now(),
                        stats: clock.stats.clone(),
                        result,
                    }
                })
                .expect("spawn node thread"),
        );
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
}

/// The paper reports "execution time" as the time of the slowest node.
pub fn cluster_time<R>(outcomes: &[NodeOutcome<R>]) -> Ns {
    outcomes.iter().map(|o| o.finish).max().unwrap_or(Ns::ZERO)
}

/// Aggregate all nodes' stats.
pub fn cluster_stats<R>(outcomes: &[NodeOutcome<R>]) -> NodeStats {
    let mut total = NodeStats::default();
    for o in outcomes {
        total.merge(&o.stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_all_nodes_and_orders_results() {
        let out = run_cluster(4, Arc::new(SimParams::default()), |env| {
            env.clock.borrow_mut().advance(Ns(100 * (env.id as u64 + 1)));
            env.id * 10
        });
        assert_eq!(out.len(), 4);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.id, i);
            assert_eq!(o.result, i * 10);
            assert_eq!(o.finish, Ns(100 * (i as u64 + 1)));
        }
        assert_eq!(cluster_time(&out), Ns(400));
    }

    #[test]
    fn stats_are_collected() {
        let out = run_cluster(2, Arc::new(SimParams::default()), |env| {
            env.clock.borrow_mut().compute(Ns(500));
        });
        let agg = cluster_stats(&out);
        assert_eq!(agg.compute_time, Ns(1000));
    }

    #[test]
    fn single_node_cluster_works() {
        let out = run_cluster(1, Arc::new(SimParams::default()), |_| 42u32);
        assert_eq!(out[0].result, 42);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        run_cluster(0, Arc::new(SimParams::default()), |_| ());
    }
}
