//! The transport abstraction the DSM runtime binds to.
//!
//! The paper's Figure 1 divides TreadMarks' communication needs into three
//! groups: sending requests (asynchronous at the receiver), sending
//! responses, and receiving responses (synchronous at the requester). A
//! [`Substrate`] provides exactly those services; FAST/GM and UDP/GM are
//! the two implementations under evaluation, and [`crate::memsub`]
//! provides an idealized in-memory one for protocol tests and "infinitely
//! fast network" ablations.
//!
//! The binding is a generic parameter of [`crate::Tmk`], monomorphized at
//! compile time — the paper's "bound to TreadMarks at compile time", with
//! zero dispatch overhead.
//!
//! Blocking has one entry point, [`Substrate::wait`]: wait for a message,
//! optionally until a virtual deadline, optionally until watched peers
//! have exited. Every layer below it (socket, NIC, scheduler park) takes
//! the same [`Until`] pair and answers with the same [`Wait`] outcome.
//!
//! # Scheduling contract
//!
//! The fabric serializes transmits through a
//! conservative two-phase request/grant protocol (`tm_sim::sched`). A
//! substrate participates by declaring a *lookahead* — a lower bound on
//! the virtual delay between the moment its node becomes preemptible and
//! the earliest instant any future packet of its can reach the wire — and
//! by passing its node's floor with every send (`inject_floored`) and
//! every blocking wait (`NicHandle::recv`). Both transports in this
//! workspace do so (`GmNode`, `UdpStack`), so implementations layered on
//! them inherit the contract for free;
//! [`sched_lookahead`](Substrate::sched_lookahead) exposes the declared
//! value for diagnostics and for the lookahead table in `DESIGN.md`.

use std::sync::Arc;

use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Until, Wait};

/// Which logical channel a message arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chan {
    /// Asynchronous: interrupts (or signals) the receiver.
    Request,
    /// Synchronous: the receiver is blocked waiting for it.
    Response,
}

/// A message delivered by the substrate.
#[derive(Debug)]
pub struct IncomingMsg {
    pub from: usize,
    pub chan: Chan,
    pub data: Vec<u8>,
    /// Virtual arrival time at this node.
    pub arrival: Ns,
    /// Fault-injection tombstone: the message was lost in flight (dropped
    /// or checksum-rejected). `data` must not be interpreted; the message
    /// exists only so the receiver observes the loss at a deterministic
    /// virtual time. Never set on a zero-fault run.
    pub lost: bool,
}

/// A request/response transport for one node. Implementations own the
/// node's clock charging for their own operations.
pub trait Substrate {
    fn my_id(&self) -> usize;
    fn nprocs(&self) -> usize;
    fn clock(&self) -> &SharedClock;
    fn params(&self) -> &Arc<SimParams>;

    /// How asynchronous requests reach the application on this transport
    /// (NIC interrupt for FAST/GM, SIGIO for UDP, …).
    fn scheme(&self) -> AsyncScheme;

    /// Send an asynchronous request; charges the clock for the send path.
    /// Returns `false` if the transport knows the request was lost on the
    /// way out (UDP drop injection) — the requester can then time out in
    /// virtual time without waiting for a response that will never come.
    /// Reliable transports always return `true`.
    fn send_request(&mut self, to: usize, data: &[u8]) -> bool;

    /// Send a request from *inside a request handler* whose service window
    /// completed at virtual time `at` (lock-manager forwarding). Like
    /// [`send_response_at`](Substrate::send_response_at), does not charge
    /// the clock.
    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns);

    /// Host-side cost of emitting a response of `len` bytes. The runtime
    /// folds this into the request's service duration before calling
    /// [`send_response_at`](Substrate::send_response_at).
    fn response_cost(&self, len: usize) -> Ns;

    /// Send a response whose service (handler + send) completed at virtual
    /// time `at`. Does **not** charge the clock — the runtime already
    /// accounted the work via the service window (which may lie in the
    /// node's past: retroactive interrupt preemption).
    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns);

    /// Non-blocking: a request whose arrival is at or before the node's
    /// current virtual time, if any.
    fn poll_request(&mut self) -> Option<IncomingMsg>;

    /// Non-blocking: any message — request *or* response — whose arrival
    /// is at or before the node's current virtual time. The overlapped
    /// rpc engine drains this after a blocking receive to gather the
    /// whole arrived burst, then dispatches it in virtual-arrival order.
    /// The default covers transports whose synchronous channel is only
    /// ever read while blocked.
    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        self.poll_request()
    }

    /// Block until any request or response arrives, until `until`'s
    /// *virtual* deadline passes (the clock then sits at the deadline),
    /// or until every node in its watch set has left the fabric. The
    /// deadline is the runtime's retransmission timer; the watch set ends
    /// the shutdown linger and cancels an exit-fan timer armed against a
    /// peer that is already gone. Advances the clock to the message's
    /// arrival when the node was idle-waiting.
    ///
    /// The runtime passes a deadline or a watch set only when
    /// [`retransmit_timeout`](Substrate::retransmit_timeout) is `Some`.
    /// Reliable transports never lose a message, so they may ignore
    /// `until` and simply block.
    fn wait(&mut self, until: Until) -> Wait<IncomingMsg>;

    /// Block until any request or response arrives:
    /// [`wait`](Substrate::wait) with neither deadline nor watch set.
    fn next_incoming(&mut self) -> IncomingMsg {
        self.wait(Until::FOREVER)
            .got()
            .expect("an unbounded wait ends only with a message")
    }

    /// Initial retransmission timeout, if this transport needs DSM-level
    /// reliability under the current fault plan. `None` (the default, and
    /// the answer for every reliable transport and for lossless runs)
    /// selects the legacy send-once path.
    fn retransmit_timeout(&self) -> Option<Ns> {
        None
    }

    /// Can this substrate still observe `node`'s NIC on the fabric?
    /// Liveness input to the retransmission budget: a timeout against an
    /// observably *live* peer indicates clock skew between requester and
    /// responder (e.g. a spinning consumer advancing its virtual clock
    /// only ~600 ns per probe while the requester's backed-off deadlines
    /// recede), not a lost peer, and therefore must not consume the
    /// give-up budget. The default — in-memory and reliable transports,
    /// which expose no liveness signal and never retransmit — reports
    /// `true`.
    fn peer_alive(&self, _node: usize) -> bool {
        true
    }

    /// Largest message the substrate can carry in one piece. The runtime
    /// chunks diff responses to fit.
    fn max_msg(&self) -> usize {
        self.params().dsm.max_msg
    }

    /// The lookahead this transport declared to the lockstep scheduler: a
    /// sound lower bound on the delay between its node's
    /// `preemptible_since()` and the earliest wire injection of any future
    /// packet (see the module docs). `Ns::ZERO` — the default, and the
    /// answer for in-memory transports that never touch the fabric — is
    /// always sound, merely pessimistic. Informational: the floors actually
    /// enforced are the ones passed per-send through the NIC handle.
    fn sched_lookahead(&self) -> Ns {
        Ns::ZERO
    }
}
