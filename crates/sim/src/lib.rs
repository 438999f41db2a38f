//! # tm-sim — virtual-time simulation engine
//!
//! The paper's evaluation ran on a 16-node Pentium-III / Myrinet-2000
//! cluster. That hardware does not exist here, so the entire reproduction
//! runs on a *virtual-time* substrate: every simulated node is a real OS
//! thread executing the real DSM protocol code, but time is a per-node
//! logical clock advanced by modeled costs instead of wall time.
//!
//! The pieces:
//!
//! * [`Ns`] — the time unit (nanoseconds, `u64`).
//! * [`NodeClock`] — a per-node clock supporting *retroactive preemption*,
//!   which is how we model interrupt-driven servicing of asynchronous
//!   requests that arrive while a node is computing (the central design
//!   point of the paper, §2.2.4).
//! * [`params`] — the calibrated cost model (Myrinet wire model, GM host
//!   overheads, UDP kernel-stack costs, DSM memory-management costs).
//! * [`stats`] — per-node event counters used by the experiment harness.
//! * [`runner`] — spawns one thread per node and joins results.
//!
//! Nothing in this crate knows about GM, UDP, or TreadMarks; it is the
//! substrate everything else is built on.

pub mod clock;
pub mod faults;
pub mod params;
pub mod runner;
pub mod sched;
pub mod stats;
pub mod time;

pub use clock::{AsyncScheme, NodeClock, SharedClock};
pub use faults::FaultPlan;
pub use params::SimParams;
pub use runner::{run_cluster, NodeEnv};
pub use sched::{LockstepSched, TokenMode, Until, Wait, WakeReason};
pub use stats::NodeStats;
pub use time::Ns;
