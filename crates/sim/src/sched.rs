//! Conservative lockstep scheduler: byte-reproducible virtual-time runs.
//!
//! # Why
//!
//! Every number this simulator reports is virtual-time arithmetic. When
//! several node threads transmit to the same destination "at once", the
//! order in which they reserve the shared rx link decides the virtual
//! queueing order there; left to the wall clock, barrier storms (N
//! arrivals converging on the manager) would jitter run to run. This
//! scheduler is the only one: every fabric sequences its transmits and
//! waits through it.
//!
//! # How
//!
//! [`LockstepSched`] is a conservative parallel-discrete-event scheduler
//! in the Chandy–Misra tradition. Every *fabric action* — a wire
//! transmission, or the expiry of a virtual receive deadline — becomes an
//! **event** with a totally ordered key `(virtual time, node id, seq)`.
//! Link reservations are split into a two-phase *request/grant*: a node
//! asking to transmit parks in [`LockstepSched::request_transmit`] until
//! the scheduler grants its key; a transmit announces its destination at
//! phase one, and grants to *distinct* rx links may be issued
//! concurrently (see [`TokenMode`]).
//!
//! The safety rule is the conservative horizon. Each node carries a
//! **floor**: a lower bound on the key of any event it could still
//! produce. Floors come from the node's own clock (its preemptible-window
//! start) plus a per-substrate **lookahead** — the minimum modeled cost
//! between resuming execution and the next packet reaching the wire (GM:
//! NIC DMA-descriptor setup plus the `gm_send` host overhead; UDP: the
//! syscall + protocol-stack floor; both: the NIC tx engine). A pending
//! event is dispatched only when every node that is still *running* (not
//! parked, not pending, not finished) has a floor strictly above its key
//! — i.e. no straggler can still create an earlier event — plus the
//! per-link and hazard rules below. Ties never happen: keys are unique by
//! `(node, seq)`.
//!
//! # Per-receiver tokens
//!
//! The original scheduler held one cluster-wide reservation token: at
//! most one transmit was inside the fabric between its grant and its
//! `finish_transmit`. That serializes *all* transmits, even though two
//! grants only truly conflict when they race for the same receiver's rx
//! link. [`TokenMode::PerReceiver`] (the default) instead keeps one token
//! per rx link and grants a transmit when:
//!
//! 1. **Horizon** — every running node's floor is strictly above the
//!    transmit's inject time (unchanged).
//! 2. **Per-link order** — its rx link's token is free (no in-flight
//!    transmit to the same destination) and its key is the minimum among
//!    pending transmits to that destination. Each inbox therefore
//!    receives packets in global key order, exactly as under the single
//!    token.
//! 3. **Pairwise hazards** — for every earlier-keyed pending event and
//!    every in-flight transmit, the *consequences* of either event (the
//!    sender's post-transmit floor, and the wake of its — possibly
//!    parked, floor-zero — receiver) must not be able to inject below the
//!    other's key. Without this, a granted event's wake chain could
//!    produce a smaller-keyed transmit onto a link whose order was
//!    already committed.
//!
//! Reproducibility is preserved because each rx link's reservation
//! sequence — and therefore each inbox's arrival sequence — is the same
//! one the serial schedule produces: per-link tokens serialize same-link
//! reservations in key order, tx links are only ever touched by their
//! owner's thread, and the hazard rule guarantees no not-yet-visible
//! event can undercut a committed grant on any link it could reach. A
//! node's inputs (its inbox sequence and deadline expiries) are thus a
//! pure function of the program, and by the same induction as before so
//! is every virtual timestamp, counter and memory image — only the
//! wall-clock overlap of disjoint-link grants changes.
//!
//! Blocking receives park through the scheduler too
//! ([`LockstepSched::park`]): a parked node's next event is unknowable
//! until a packet is delivered to it (floor = +∞), or bounded by its
//! virtual deadline for timeout waits (the DSM retransmission timer), in
//! which case the deadline is an event like any other. No wait anywhere
//! is bounded by the wall clock.
//!
//! # Driven nodes
//!
//! A unit test or a microbenchmark often plays every node of a small
//! cluster from one thread: node 0 sends, then node 1 receives. Under
//! the conservative rules that thread would park forever, waiting for a
//! floor that only the same thread could raise. A *driven* scheduler
//! ([`LockstepSched::new_driven`]) serves such drivers: its nodes have no
//! threads of their own, so nothing can happen on them concurrently, and
//! their floor is +∞ in every state. They never gate a grant and add no
//! hazard, so transmits grant in call order, and a deadline wait on an
//! empty inbox times out at once, in virtual time.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};

use crate::time::Ns;

/// Granularity of the lockstep scheduler's reservation tokens.
///
/// * `Single` — one cluster-wide token: at most one transmit is inside
///   the fabric at a time. The original (PR 6) regime; kept as the
///   baseline for equivalence tests and overhead measurements.
/// * `PerReceiver` — one token per rx link: transmits to distinct
///   receivers proceed concurrently, subject to the hazard rules in the
///   module docs. Produces the byte-identical schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TokenMode {
    /// One cluster-wide reservation token (fully serial grants).
    Single,
    /// One reservation token per receiver link (concurrent disjoint grants).
    #[default]
    PerReceiver,
}

/// Why a parked node was released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// A packet was delivered to the node's inbox (or had already been
    /// delivered when the park was attempted — re-drain and re-check).
    Delivered,
    /// The park's virtual deadline became the cluster's next event.
    Timeout,
    /// Every node in the park's watch set has deregistered its NIC
    /// ([`LockstepSched::mark_done`]).
    PeersDone,
}

/// What a blocking wait waits for besides a delivery: a virtual
/// `deadline` (the DSM retransmission timer), a `watch` set of peers
/// whose NIC deregistration ends the wait (the shutdown linger, the exit
/// fan), both, or neither ([`Until::FOREVER`]). Every blocking wait in
/// the stack — [`LockstepSched::park`], the NIC receive, the socket
/// receive and the substrate wait — takes this one pair.
#[derive(Debug, Clone, Copy)]
pub struct Until<'a> {
    pub deadline: Option<Ns>,
    pub watch: Option<&'a [usize]>,
}

impl Until<'_> {
    /// Wait for a delivery only.
    pub const FOREVER: Until<'static> = Until {
        deadline: None,
        watch: None,
    };

    /// Wait for a delivery until virtual time `t`.
    pub fn deadline(t: Ns) -> Until<'static> {
        Until {
            deadline: Some(t),
            watch: None,
        }
    }

    /// Does an item arriving at `arrival` beat the deadline? (Ties go to
    /// the item.)
    pub fn admits(&self, arrival: Ns) -> bool {
        self.deadline.is_none_or(|d| arrival <= d)
    }
}

/// How a blocking wait ended: with an item, at its deadline, or because
/// every watched peer left (see [`Until`]).
#[derive(Debug)]
pub enum Wait<T> {
    Got(T),
    Timeout,
    PeersDone,
}

impl<T> Wait<T> {
    /// The item, if the wait produced one.
    pub fn got(self) -> Option<T> {
        match self {
            Wait::Got(x) => Some(x),
            Wait::Timeout | Wait::PeersDone => None,
        }
    }
}

/// A totally ordered event key: virtual time, then node id, then the
/// node's own event sequence number. Unique by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    t: Ns,
    node: usize,
    seq: u64,
}

#[derive(Debug)]
enum St {
    /// Executing between fabric actions. `floor` bounds from below the
    /// virtual time of any event this node can still produce.
    Running { floor: Ns },
    /// Blocked in `request_transmit`, waiting for its key to be granted.
    /// `dst` is the announced receiver — the rx link the grant reserves.
    Pending { key: Key, floor_after: Ns, dst: usize },
    /// Blocked in `park`: waiting for a delivery, and — if `deadline` is
    /// set — for at most that much virtual time. `watch` additionally
    /// releases the park once every listed node is `Done` — NIC
    /// deregistration as a scheduler event.
    Parked {
        deadline: Option<Key>,
        floor: Ns,
        watch: Option<Vec<usize>>,
    },
    /// The node's NIC has left the fabric; it produces no more events.
    Done,
}

#[derive(Debug)]
struct NodeSt {
    st: St,
    /// Per-node event sequence for key uniqueness.
    seq: u64,
    /// Declared substrate lookahead (see module docs). Zero until a
    /// substrate claims better; zero is always safe, only slower.
    lookahead: Ns,
    /// The thread blocked in `Pending` or `Parked`, stored when it
    /// committed and taken by the release that wakes it.
    waiter: Option<Thread>,
}

/// A granted transmit that has not yet called `finish_transmit`: it holds
/// its destination's rx-link token. Its sender is `Running{floor_after}`
/// (covered by the horizon rule); its receiver-side consequence — the
/// wake of `dst` — is bounded by `dst`'s wake floor in the hazard rule.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    key: Key,
    src: usize,
    dst: usize,
}

struct State {
    nodes: Vec<NodeSt>,
    /// Transmits between grant and `finish_transmit`, one per held
    /// rx-link token. Under [`TokenMode::Single`] at most one entry;
    /// under [`TokenMode::PerReceiver`] at most one per distinct `dst`.
    /// Tracking `src` lets `mark_done` release a token held by a node
    /// that unwinds mid-transmit.
    in_flight: Vec<InFlight>,
    tokens: TokenMode,
    /// High-water mark of `in_flight.len()` — the gauge tests use to
    /// prove concurrent grants actually happened.
    max_grants: usize,
}

/// The conservative lockstep scheduler for one cluster fabric. Shared
/// (`Arc`) by every node thread; all methods are called from node
/// threads (the scheduler has no thread of its own).
///
/// A blocked node thread sleeps at once in `thread::park` and is woken
/// by exactly one `unpark`: a release wakes one thread, never the
/// cluster. Release signals travel through `sigs`, one atomic per node,
/// set under the state lock by whichever thread decides the release and
/// consumed by the single blocked owner. The unpark itself is issued
/// only after the state lock is dropped (see `Locked`), so the
/// critical section that every other node waits on holds no wake
/// syscall.
pub struct LockstepSched {
    state: Mutex<State>,
    /// Per-node release signal: `SIG_NONE` or an encoded [`WakeReason`].
    sigs: Vec<AtomicU8>,
    /// Per-node count of packets ever delivered to the node's inbox,
    /// bumped under the state lock and read without it
    /// ([`LockstepSched::delivery_count`]). Parking passes the last value
    /// the node observed before draining; a mismatch means a delivery
    /// raced the park and the node must re-drain instead of sleeping (the
    /// classic eventcount handshake).
    deliveries: Vec<AtomicU64>,
    /// Every node is driven (module docs, "Driven nodes"): all floors
    /// are +∞.
    driven: bool,
}

thread_local! {
    /// Node threads released by the critical section this thread holds,
    /// unparked when its [`Locked`] guard drops.
    static RELEASED: RefCell<Vec<Thread>> = const { RefCell::new(Vec::new()) };
}

/// The state lock, held. Fields drop in declaration order: the mutex
/// guard first, then [`Unpark`], which wakes every node thread released
/// inside the critical section once the lock is already free.
struct Locked<'a> {
    s: MutexGuard<'a, State>,
    _unpark: Unpark,
}

struct Unpark;

impl Drop for Unpark {
    fn drop(&mut self) {
        RELEASED.with(|r| r.borrow_mut().drain(..).for_each(|t| t.unpark()));
    }
}

impl Deref for Locked<'_> {
    type Target = State;
    fn deref(&self) -> &State {
        &self.s
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut State {
        &mut self.s
    }
}

/// No release pending.
const SIG_NONE: u8 = 0;

/// A driven node's floor, in every state.
const INF: Ns = Ns(u64::MAX);

fn sig_encode(r: WakeReason) -> u8 {
    match r {
        WakeReason::Delivered => 1,
        WakeReason::Timeout => 2,
        WakeReason::PeersDone => 3,
    }
}

fn sig_decode(v: u8) -> Option<WakeReason> {
    match v {
        SIG_NONE => None,
        1 => Some(WakeReason::Delivered),
        2 => Some(WakeReason::Timeout),
        3 => Some(WakeReason::PeersDone),
        _ => unreachable!("corrupt release signal {v}"),
    }
}

impl LockstepSched {
    /// A scheduler for `n` nodes with the default per-receiver tokens,
    /// all initially running with floor 0 (no event can be granted until
    /// every node has committed to its first fabric action — the
    /// conservative cold start).
    pub fn new(n: usize) -> LockstepSched {
        LockstepSched::new_with_tokens(n, TokenMode::default())
    }

    /// A scheduler for `n` nodes with an explicit [`TokenMode`].
    pub fn new_with_tokens(n: usize, tokens: TokenMode) -> LockstepSched {
        LockstepSched::build(n, tokens, false)
    }

    /// A scheduler for `n` *driven* nodes: one thread plays all of them,
    /// so every floor is +∞ and every event is granted in call order
    /// (module docs, "Driven nodes").
    pub fn new_driven(n: usize, tokens: TokenMode) -> LockstepSched {
        LockstepSched::build(n, tokens, true)
    }

    fn build(n: usize, tokens: TokenMode, driven: bool) -> LockstepSched {
        let floor = if driven { INF } else { Ns::ZERO };
        let nodes = (0..n)
            .map(|_| NodeSt {
                st: St::Running { floor },
                seq: 0,
                lookahead: Ns::ZERO,
                waiter: None,
            })
            .collect();
        LockstepSched {
            state: Mutex::new(State {
                nodes,
                in_flight: Vec::new(),
                tokens,
                max_grants: 0,
            }),
            sigs: (0..n).map(|_| AtomicU8::new(SIG_NONE)).collect(),
            deliveries: (0..n).map(|_| AtomicU64::new(0)).collect(),
            driven,
        }
    }

    /// Take the state lock. Every critical section goes through here, so
    /// every release it makes is unparked when the guard drops.
    fn lock(&self) -> Locked<'_> {
        Locked {
            s: self.state.lock().unwrap(),
            _unpark: Unpark,
        }
    }

    /// The floor a node declares, or +∞ when the nodes are driven.
    fn floor(&self, declared: Ns) -> Ns {
        if self.driven {
            INF
        } else {
            declared
        }
    }

    /// Commit `node`'s thread to the blocked state `st` (`Pending` or
    /// `Parked`), storing its handle for the release that will wake it.
    fn block(s: &mut State, node: usize, st: St) {
        let n = &mut s.nodes[node];
        n.st = st;
        n.waiter = Some(thread::current());
    }

    /// Release blocked `node` to `Running { floor }` and post its signal.
    /// Called with the state lock held: the lock serializes the signal
    /// with the node's state transition, and a node has at most one
    /// release per blocked episode (its state leaves `Pending`/`Parked`
    /// here, so no second producer can fire). The stored thread is queued
    /// for an unpark after the lock drops, unless it is this thread — a
    /// self-grant needs no wake. An unpark that lands before the waiter
    /// sleeps is not lost: `park` keeps the token and returns at once.
    fn release(&self, s: &mut State, node: usize, floor: Ns, reason: WakeReason) {
        let n = &mut s.nodes[node];
        n.st = St::Running { floor };
        self.sigs[node].store(sig_encode(reason), Ordering::Release);
        if let Some(t) = n.waiter.take() {
            if t.id() != thread::current().id() {
                RELEASED.with(|r| r.borrow_mut().push(t));
            }
        }
    }

    /// Consume `node`'s release signal, if posted. Only ever called by
    /// the node's own (single) blocked thread.
    fn take_sig(&self, node: usize) -> Option<WakeReason> {
        sig_decode(self.sigs[node].swap(SIG_NONE, Ordering::Acquire))
    }

    /// Block `node`'s thread until its release signal is posted. The
    /// thread sleeps at once, never on the state lock; a spurious return
    /// from `park` (a token left by an earlier episode) just re-checks.
    /// Release decisions are made entirely from virtual state under the
    /// state lock, so how the thread waits is invisible to the schedule.
    fn await_signal(&self, node: usize) -> WakeReason {
        loop {
            if let Some(r) = self.take_sig(node) {
                return r;
            }
            thread::park();
        }
    }

    /// Declare `node`'s substrate lookahead: a sound lower bound on the
    /// virtual time between the start of its current preemptible window
    /// and its next packet reaching the wire. Larger values let the
    /// dispatcher release events sooner; `Ns::ZERO` (the default) is
    /// always safe.
    pub fn declare_lookahead(&self, node: usize, la: Ns) {
        self.lock().nodes[node].lookahead = la;
    }

    /// The declared lookahead for `node` (diagnostics / tests).
    pub fn lookahead(&self, node: usize) -> Ns {
        self.lock().nodes[node].lookahead
    }

    /// The highest number of simultaneously in-flight (granted but not
    /// finished) transmits observed so far. Always ≤ 1 under
    /// [`TokenMode::Single`]; ≥ 2 proves per-receiver grants overlapped.
    pub fn max_concurrent_grants(&self) -> usize {
        self.lock().max_grants
    }

    /// Phase one of the two-phase link reservation: announce a transmit
    /// to `dst` whose NIC injection happens at virtual time `inject`,
    /// and block until the scheduler grants it. `floor_after` is the
    /// node's floor once this transmit is done (its preemptible-window
    /// start plus its lookahead); the caller computes it from its clock.
    ///
    /// On return the caller holds `dst`'s rx-link reservation token: it
    /// must perform its link reservations and inbox delivery, then call
    /// [`LockstepSched::finish_transmit`]. Grants to distinct receivers
    /// may overlap (see [`TokenMode`]); grants to the same receiver are
    /// serialized in key order, so each link in the fabric's reserve path
    /// has a single writer at a time.
    pub fn request_transmit(&self, node: usize, dst: usize, inject: Ns, floor_after: Ns) {
        let floor_after = self.floor(floor_after);
        let mut s = self.lock();
        let seq = s.nodes[node].next_seq();
        let key = Key {
            t: inject,
            node,
            seq,
        };
        Self::block(
            &mut s,
            node,
            St::Pending {
                key,
                floor_after,
                dst,
            },
        );
        self.dispatch(&mut s);
        drop(s);
        self.await_signal(node);
    }

    /// Phase two: the granted transmit has reserved its links and pushed
    /// the packet (arriving at `arrival`) into `dst`'s inbox. Releases
    /// the sender's rx-link token and wakes `dst` if it is parked. For a
    /// loopback or a delivery to a finished node pass `dst == node` /
    /// the dead node; both degenerate gracefully.
    pub fn finish_transmit(&self, node: usize, dst: usize, _arrival: Ns) {
        let mut s = self.lock();
        s.in_flight.retain(|f| f.src != node);
        if dst != node {
            self.deliver_locked(&mut s, dst);
        }
        self.dispatch(&mut s);
    }

    /// The number of packets ever delivered to `node`'s inbox. Capture
    /// this *before* draining the inbox and pass it to
    /// [`LockstepSched::park`]; the scheduler refuses to sleep if a
    /// delivery has happened since, closing the drain/park race. Read
    /// without the state lock: the `Acquire` pairs with the increment's
    /// `Release`, so every packet pushed before the count reached the
    /// value read is visible to the caller's drain.
    pub fn delivery_count(&self, node: usize) -> u64 {
        self.deliveries[node].load(Ordering::Acquire)
    }

    /// [`LockstepSched::delivery_count`] read under the state lock, which
    /// orders it against every increment.
    fn delivered_since(&self, node: usize, seen: u64) -> bool {
        self.deliveries[node].load(Ordering::Relaxed) != seen
    }

    /// Park `node` until a packet is delivered to it, until
    /// `until.deadline` becomes the cluster's next event, or until every
    /// node in `until.watch` has deregistered its NIC
    /// ([`LockstepSched::mark_done`]) — whichever the scheduler orders
    /// first. `seen_deliveries` is the value of
    /// [`LockstepSched::delivery_count`] captured before the caller last
    /// drained its inbox; `floor` is the node's floor while parked and on
    /// release (its preemptible-window start plus lookahead).
    ///
    /// Returns [`WakeReason::PeersDone`] at once when the watch set is
    /// already drained. The watch is what makes shutdown lingers
    /// deterministic: "have my peers exited?" stops being a wall-clock
    /// poll of liveness flags and becomes an ordered scheduler event,
    /// serialized against every delivery and grant, so the number of
    /// messages a lingering node serves before it concludes is a pure
    /// function of the program. With a deadline as well (the exit fan's
    /// wait), the timer stays live while a watched peer can still be
    /// reached and is cancelled the moment it is gone.
    pub fn park(&self, node: usize, seen_deliveries: u64, until: Until, floor: Ns) -> WakeReason {
        let floor = self.floor(floor);
        let mut s = self.lock();
        if self.delivered_since(node, seen_deliveries) {
            // A delivery raced our drain; don't sleep on a stale view.
            return WakeReason::Delivered;
        }
        if let Some(w) = until.watch {
            if w.iter().all(|&x| matches!(s.nodes[x].st, St::Done)) {
                return WakeReason::PeersDone;
            }
        }
        let deadline = until.deadline.map(|t| {
            let seq = s.nodes[node].next_seq();
            Key { t, node, seq }
        });
        Self::block(
            &mut s,
            node,
            St::Parked {
                deadline,
                floor,
                watch: until.watch.map(|w| w.to_vec()),
            },
        );
        self.dispatch(&mut s);
        drop(s);
        self.await_signal(node)
    }

    /// Settle a *non-blocking poll*: may the node conclude that nothing
    /// with virtual arrival `<= t` will ever reach its inbox?
    ///
    /// Left to the wall clock, a poll would race in-flight traffic —
    /// whether a packet whose virtual arrival is already in the poller's
    /// past has been *pushed yet* would be luck, and the answer steers
    /// retroactive request service, so it must be deterministic. Here
    /// the poll becomes an event like any other: the node parks
    /// on deadline `t` and the dispatcher releases it only once every
    /// earlier event has been granted and no running node's floor allows
    /// an earlier injection. Cycles of concurrent pollers resolve by key
    /// order (the earliest poll settles first).
    ///
    /// Returns `false` if a delivery landed instead — the caller must
    /// re-drain its queues and re-poll (the new packet may still be in
    /// its virtual future). Returns `true` when the "empty" answer is
    /// final; the node's floor is then raised to `t` plus its lookahead,
    /// which is sound because every post-settle send is either a program
    /// send priced at or after `t` or a response to an arrival after `t`.
    ///
    /// `seen_deliveries` and `floor` are as for [`LockstepSched::park`].
    pub fn poll_quiesce(&self, node: usize, t: Ns, seen_deliveries: u64, floor: Ns) -> bool {
        self.quiesce(node, t, seen_deliveries, floor, true)
    }

    /// Settle a *blocking pick*: the node is about to take a packet with
    /// virtual arrival `t`, and first waits until no event keyed before
    /// `t` can still happen. Exactly [`LockstepSched::poll_quiesce`]
    /// except that the floor stays at `floor`: the pick needs only the
    /// wait, and a floor left low is always sound.
    pub fn settle(&self, node: usize, t: Ns, seen_deliveries: u64, floor: Ns) -> bool {
        self.quiesce(node, t, seen_deliveries, floor, false)
    }

    fn quiesce(&self, node: usize, t: Ns, seen_deliveries: u64, floor: Ns, raise: bool) -> bool {
        let floor = self.floor(floor);
        {
            let mut s = self.lock();
            if self.delivered_since(node, seen_deliveries) {
                return false;
            }
            // Fast path: the poll's deadline event would be granted the
            // moment it was created — no candidate event with a smaller
            // key, every running floor above `t`, and the in-flight rules
            // of the poller's token mode hold. Settling inline is then
            // schedule-equivalent to the park below (the dispatcher would
            // release this deadline before anything else), minus the
            // sleep/wake round trip that a poll-heavy engine pays on
            // every miss. The seq that the park would have consumed is
            // skipped, which is harmless: a node has at most one live
            // candidate at a time, so seq never arbitrates between
            // coexisting events. Under per-receiver tokens the fabric is
            // legitimately busy most of the time — that is the point of
            // the mode — so the fast path must tolerate in-flight
            // transmits; `grantable_concurrently` (with no earlier
            // candidate, which the horizon scan just established) is
            // exactly the dispatcher's own admission test.
            let me = Key { t, node, seq: 0 };
            let horizon_clear = s.nodes.iter().enumerate().all(|(i, n)| {
                i == node
                    || match &n.st {
                        St::Running { floor } => t < *floor,
                        St::Pending { key, .. } => *key > me,
                        St::Parked {
                            deadline: Some(d), ..
                        } => *d > me,
                        St::Parked { deadline: None, .. } | St::Done => true,
                    }
            });
            let settled_now = horizon_clear
                && (s.in_flight.is_empty()
                    || (s.tokens == TokenMode::PerReceiver
                        && self.grantable_concurrently(
                            &s,
                            me,
                            &Cand::Deadline { owner: node },
                            &[],
                        )));
            if settled_now {
                let la = s.nodes[node].lookahead;
                if let St::Running { floor: f } = &mut s.nodes[node].st {
                    // Same floor the slow path lands on: the park floor,
                    // raised (for a poll) by the settled horizon.
                    *f = if raise { floor.max(t + la) } else { floor };
                }
                self.dispatch(&mut s);
                return true;
            }
        }
        match self.park(node, seen_deliveries, Until::deadline(t), floor) {
            WakeReason::Delivered => false,
            WakeReason::PeersDone => unreachable!("no watch set"),
            WakeReason::Timeout => {
                if raise {
                    let mut s = self.lock();
                    let la = s.nodes[node].lookahead;
                    if let St::Running { floor } = &mut s.nodes[node].st {
                        *floor = (*floor).max(t + la);
                    }
                    self.dispatch(&mut s);
                }
                true
            }
        }
    }

    /// `node`'s NIC has left the fabric: it produces no further events.
    /// Called on the node's own thread (from the NIC handle's drop).
    pub fn mark_done(&self, node: usize) {
        let mut s = self.lock();
        s.nodes[node].st = St::Done;
        // If the node unwound between its grant and `finish_transmit`
        // (a panic mid-reservation), free its rx-link token so the rest
        // of the cluster can drain and surface the failure.
        s.in_flight.retain(|f| f.src != node);
        // This deregistration may complete a done-watch: release every
        // parked watcher whose whole watch set is now `Done`. Ordering is
        // deterministic — the watcher only parked after draining its
        // inbox, and this node's final transmits were granted (program
        // order) before its drop reached here.
        let released: Vec<usize> = s
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| match &n.st {
                St::Parked {
                    watch: Some(w), ..
                } => w.iter().all(|&x| matches!(s.nodes[x].st, St::Done)),
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        for i in released {
            let floor = match s.nodes[i].st {
                St::Parked { floor, .. } => floor,
                _ => unreachable!(),
            };
            self.release(&mut s, i, floor, WakeReason::PeersDone);
        }
        self.dispatch(&mut s);
    }

    /// Count a packet that reached `dst`'s inbox and wake `dst` if it is
    /// parked. Called with the state lock held, after the push.
    fn deliver_locked(&self, s: &mut State, dst: usize) {
        self.deliveries[dst].fetch_add(1, Ordering::Release);
        if let St::Parked { floor, .. } = s.nodes[dst].st {
            // Resume with the park floor unchanged: the woken node might
            // react to an *earlier-queued* packet on another port, not the
            // one that woke it, so the arrival time of the waking packet
            // is not a sound lower bound — the park floor still is (the
            // preemptible window only moves forward while blocked).
            self.release(s, dst, floor, WakeReason::Delivered);
        }
        // Running / Pending / Done nodes will find the packet when they
        // next drain; their floors already bound any response to it.
    }

    /// A lower bound on the key time of any *new* event `node` could
    /// produce as a consequence of a future delivery (or of resuming at
    /// all). `None` means the node is `Done` and produces nothing.
    fn wake_floor(n: &NodeSt) -> Option<Ns> {
        match &n.st {
            St::Running { floor } => Some(*floor),
            // A pending sender reacts to nothing until its own transmit
            // completes; its post-transmit injections are bounded below
            // by the floor it declared for that point.
            St::Pending { floor_after, .. } => Some(*floor_after),
            St::Parked { floor, .. } => Some(*floor),
            St::Done => None,
        }
    }

    /// A lower bound on the key time of anything that can *happen
    /// because of* candidate event `(key, ev)` — the sender's
    /// post-transmit floor and/or the wake of the node it touches.
    fn hazard(s: &State, ev: &Cand) -> Option<Ns> {
        match *ev {
            Cand::Transmit {
                dst, floor_after, ..
            } => {
                let wake = Self::wake_floor(&s.nodes[dst]);
                Some(match wake {
                    Some(w) => floor_after.min(w),
                    None => floor_after,
                })
            }
            Cand::Deadline { owner } => Self::wake_floor(&s.nodes[owner]),
            Cand::Granted => unreachable!("tombstones are never candidates"),
        }
    }

    /// Grant every releasable event. Called with the state lock held
    /// after every transition; each granted node is unparked once the
    /// lock drops.
    ///
    /// Candidates are scanned in key order. Under [`TokenMode::Single`]
    /// only the global minimum is ever considered and nothing is granted
    /// while a transmit is in flight — the original serial regime. Under
    /// [`TokenMode::PerReceiver`] a candidate is granted when it passes
    /// the horizon rule, its rx-link token is free, and the pairwise
    /// hazard rule holds against every earlier-keyed candidate and every
    /// in-flight transmit (module docs, "Per-receiver tokens").
    fn dispatch(&self, s: &mut State) {
        // One allocation for the whole call: the candidate scratch list is
        // rebuilt (but not reallocated) after every grant.
        let mut cands: Vec<(Key, usize, Cand)> = Vec::with_capacity(s.nodes.len());
        loop {
            cands.clear();
            // The conservative horizon collapses to one number: a key is
            // safe iff it is below the minimum floor of every running
            // node (in-flight senders are `Running{floor_after}` and are
            // covered here too). Computing it once per rescan instead of
            // scanning all nodes per candidate is what keeps dispatch
            // affordable at 128 nodes.
            let mut min_running = Ns(u64::MAX);
            for (i, n) in s.nodes.iter().enumerate() {
                match &n.st {
                    St::Pending {
                        key,
                        floor_after,
                        dst,
                    } => cands.push((
                        *key,
                        i,
                        Cand::Transmit {
                            dst: *dst,
                            floor_after: *floor_after,
                        },
                    )),
                    St::Parked {
                        deadline: Some(d), ..
                    } => cands.push((*d, i, Cand::Deadline { owner: i })),
                    St::Running { floor } => min_running = min_running.min(*floor),
                    _ => {}
                }
            }
            if cands.is_empty() {
                self.check_deadlock(s);
                return;
            }
            cands.sort_by_key(|c| c.0);
            let serial = s.tokens == TokenMode::Single;
            // One pass over the sorted candidates, granting as it goes.
            // A grant mid-pass leaves its (now stale) entry in `cands`,
            // which only *adds* same-link and hazard rejections for later
            // candidates — every mid-pass grant is one the
            // rebuild-after-every-grant schedule would also make, so the
            // fixpoint reached by repeating full passes until one grants
            // nothing is the same, at one sort per pass instead of one
            // sort per grant (the difference between O(grants · C log C)
            // and O(passes · C log C) — decisive at 128 nodes).
            let mut granted_any = false;
            for ci in 0..cands.len() {
                let (key, idx, ev) = cands[ci];
                if serial && (ci > 0 || !s.in_flight.is_empty()) {
                    // Single token: only the global minimum, and only
                    // with the fabric empty, may be granted.
                    break;
                }
                if key.t >= min_running {
                    continue;
                }
                if !serial && !self.grantable_concurrently(s, key, &ev, &cands[..ci]) {
                    continue;
                }
                granted_any = true;
                match ev {
                    Cand::Transmit { dst, floor_after } => {
                        s.in_flight.push(InFlight { key, src: idx, dst });
                        s.max_grants = s.max_grants.max(s.in_flight.len());
                        self.release(s, idx, floor_after, WakeReason::Delivered);
                        // The granted sender runs again below this floor's
                        // horizon; later candidates must respect it.
                        min_running = min_running.min(floor_after);
                    }
                    Cand::Deadline { .. } => {
                        let floor = match s.nodes[idx].st {
                            St::Parked { floor, .. } => floor,
                            _ => unreachable!(),
                        };
                        self.release(s, idx, floor, WakeReason::Timeout);
                        min_running = min_running.min(floor);
                    }
                    Cand::Granted => unreachable!("tombstones are never granted"),
                }
                cands[ci].2 = Cand::Granted;
            }
            if !granted_any {
                return;
            }
        }
    }

    /// The per-link and pairwise-hazard half of the grant rule for
    /// candidate `(key, ev)`. `earlier` holds every candidate with a
    /// smaller key (the scan is in key order).
    fn grantable_concurrently(
        &self,
        s: &State,
        key: Key,
        ev: &Cand,
        earlier: &[(Key, usize, Cand)],
    ) -> bool {
        // The rx link this event touches: the receiver of a transmit, or
        // the owner of a deadline (whose "nothing arrived by t" verdict a
        // racing delivery would falsify).
        let touches = match *ev {
            Cand::Transmit { dst, .. } => dst,
            Cand::Deadline { owner } => owner,
            Cand::Granted => unreachable!("tombstones are never candidates"),
        };
        for f in &s.in_flight {
            // Per-link token: an in-flight transmit owns its receiver's
            // rx link, and its landing must not race a deadline verdict
            // on that same receiver.
            if f.dst == touches {
                return false;
            }
            // The in-flight transmit's landing will wake `f.dst`, whose
            // subsequent injections are only bounded by its wake floor;
            // they must not be able to undercut this grant on any link.
            match Self::wake_floor(&s.nodes[f.dst]) {
                Some(w) if w <= key.t => return false,
                _ => {}
            }
            // Symmetric direction, for the rare in-flight transmit with a
            // *larger* key (granted before this candidate appeared): our
            // consequences must not undercut its committed reservation.
            if key < f.key {
                match Self::hazard(s, ev) {
                    Some(h) if h <= f.key.t => return false,
                    None => {}
                    _ => {}
                }
            }
        }
        for (ekey, _eidx, eev) in earlier {
            let etouches = match *eev {
                Cand::Transmit { dst, .. } => dst,
                Cand::Deadline { owner } => owner,
                // Granted this pass: its link is in the in-flight set and
                // its floors are in the horizon minimum — the fresh
                // rescan would not see it as a candidate at all.
                Cand::Granted => continue,
            };
            // Same link: per-link key order says the earlier event goes
            // first (for transmits this is the "minimum key among
            // transmits targeting the same rx link" rule; for a
            // transmit/deadline pair on one node, the delivery and the
            // verdict must not commute).
            if etouches == touches {
                return false;
            }
            // Jumping ahead of the earlier event is only sound when
            // neither event's consequences can undercut the other: the
            // earlier event's wake chain must not inject below our key,
            // and ours must not inject below its.
            match Self::hazard(s, eev) {
                Some(h) if h <= key.t => return false,
                _ => {}
            }
            match Self::hazard(s, ev) {
                Some(h) if h <= ekey.t => return false,
                _ => {}
            }
        }
        true
    }

    /// With no event on offer, every node must be running (it will commit
    /// to an event eventually), mid-transmit, or done. A node parked
    /// without a deadline at that point can never be woken: instead of
    /// hanging, the cluster panics with a diagnosis.
    fn check_deadlock(&self, s: &State) {
        let any_running = s
            .nodes
            .iter()
            .any(|n| matches!(n.st, St::Running { .. }));
        if any_running || !s.in_flight.is_empty() {
            return;
        }
        let stuck: Vec<usize> = s
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.st, St::Parked { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(
            stuck.is_empty(),
            "lockstep deadlock: nodes {stuck:?} parked with no event in \
             flight (protocol deadlock or premature peer exit)"
        );
    }
}

/// A dispatchable candidate event (borrowed view of a node's state).
#[derive(Debug, Clone, Copy)]
enum Cand {
    Transmit { dst: usize, floor_after: Ns },
    Deadline { owner: usize },
    /// Granted earlier in the current dispatch pass; skipped by later
    /// candidates' pairwise checks (its constraints now live in the
    /// in-flight set and the horizon minimum).
    Granted,
}

impl NodeSt {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn watching(w: &[usize]) -> Until<'_> {
        Until {
            deadline: None,
            watch: Some(w),
        }
    }

    #[test]
    fn token_mode_defaults_to_per_receiver() {
        assert_eq!(TokenMode::default(), TokenMode::PerReceiver);
    }

    /// Two nodes race to transmit to the *same* receiver; the grant order
    /// must follow virtual keys, not wall-clock arrival at the scheduler
    /// — under either token mode, since the rx link is shared.
    #[test]
    fn grants_follow_virtual_keys() {
        for tokens in [TokenMode::Single, TokenMode::PerReceiver] {
            for _ in 0..20 {
                let sched = Arc::new(LockstepSched::new_with_tokens(3, tokens));
                let order = Arc::new(Mutex::new(Vec::new()));
                let mut handles = Vec::new();
                // Node 2 parks immediately so only 0 and 1 race.
                {
                    let sched = Arc::clone(&sched);
                    handles.push(thread::spawn(move || {
                        let seen = sched.delivery_count(2);
                        sched.park(2, seen, Until::FOREVER, Ns(0));
                        // A woken node keeps its (here: zero) floor until it
                        // commits to its next fabric action; committing is
                        // what unblocks later-keyed grants.
                        sched.mark_done(2);
                    }));
                }
                for (node, inject) in [(0usize, Ns(2_000)), (1usize, Ns(1_000))] {
                    let sched = Arc::clone(&sched);
                    let order = Arc::clone(&order);
                    handles.push(thread::spawn(move || {
                        // Stagger wall-clock arrival adversarially.
                        if node == 1 {
                            thread::sleep(std::time::Duration::from_millis(5));
                        }
                        sched.request_transmit(node, 2, inject, inject + Ns(1_000_000));
                        order.lock().unwrap().push(node);
                        sched.finish_transmit(node, 2, inject + Ns(10_000));
                        sched.mark_done(node);
                    }));
                }
                // Wait for both transmits to complete, then unblock node 2's
                // park by letting its delivery land.
                for h in handles {
                    h.join().unwrap();
                }
                assert_eq!(
                    *order.lock().unwrap(),
                    vec![1, 0],
                    "grants must follow (virtual time, node, seq) order"
                );
                assert_eq!(
                    sched.max_concurrent_grants(),
                    1,
                    "same-receiver transmits must never overlap"
                );
            }
        }
    }

    /// Transmits to *distinct* receivers overlap under per-receiver
    /// tokens: both grants are live at once (proved by both threads
    /// meeting at a barrier between grant and finish, and by the gauge).
    #[test]
    fn disjoint_receivers_grant_concurrently() {
        let sched = Arc::new(LockstepSched::new(4));
        // Receivers 2 and 3 are done: their wake floors are +inf, so the
        // hazard rule cannot block on them.
        sched.mark_done(2);
        sched.mark_done(3);
        let rendezvous = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (node, dst, inject) in [(0usize, 2usize, Ns(1_000)), (1, 3, Ns(2_000))] {
            let sched = Arc::clone(&sched);
            let rendezvous = Arc::clone(&rendezvous);
            handles.push(thread::spawn(move || {
                sched.request_transmit(node, dst, inject, Ns(1_000_000));
                // Under a single cluster-wide token this rendezvous would
                // deadlock: the second grant needs the first to finish.
                rendezvous.wait();
                sched.finish_transmit(node, dst, inject + Ns(10_000));
                sched.mark_done(node);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sched.max_concurrent_grants(), 2);
    }

    /// The same disjoint-receiver schedule under `TokenMode::Single`
    /// never overlaps grants, whatever the wall-clock interleaving.
    #[test]
    fn single_token_serializes_disjoint_receivers() {
        let sched = Arc::new(LockstepSched::new_with_tokens(4, TokenMode::Single));
        sched.mark_done(2);
        sched.mark_done(3);
        let mut handles = Vec::new();
        for (node, dst, inject) in [(0usize, 2usize, Ns(1_000)), (1, 3, Ns(2_000))] {
            let sched = Arc::clone(&sched);
            handles.push(thread::spawn(move || {
                sched.request_transmit(node, dst, inject, Ns(1_000_000));
                thread::sleep(std::time::Duration::from_millis(2));
                sched.finish_transmit(node, dst, inject + Ns(10_000));
                sched.mark_done(node);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sched.max_concurrent_grants(), 1);
    }

    /// An in-flight transmit to a parked, floor-zero receiver blocks a
    /// later-keyed grant to a *different* receiver: the parked node's
    /// wake could inject below the later key, so overlapping would
    /// commit an inbox order the serial schedule might not produce.
    #[test]
    fn parked_receiver_wake_hazard_blocks_overlap() {
        let sched = Arc::new(LockstepSched::new(4));
        sched.mark_done(2);
        let granted1 = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        // Node 3 parks with floor 0 (a blocking receive that declared no
        // better bound).
        {
            let sched = Arc::clone(&sched);
            handles.push(thread::spawn(move || {
                let seen = sched.delivery_count(3);
                sched.park(3, seen, Until::FOREVER, Ns(0));
                sched.mark_done(3);
            }));
        }
        thread::sleep(std::time::Duration::from_millis(5));
        // Node 0 transmits to the parked node 3 and holds the grant.
        let s0 = Arc::clone(&sched);
        let hold = Arc::new(std::sync::Barrier::new(2));
        let h0 = Arc::clone(&hold);
        handles.push(thread::spawn(move || {
            s0.request_transmit(0, 3, Ns(1_000), Ns(1_000_000));
            h0.wait();
            thread::sleep(std::time::Duration::from_millis(10));
            s0.finish_transmit(0, 3, Ns(11_000));
            s0.mark_done(0);
        }));
        // Node 1's transmit to the (done, hazard-free) node 2 carries a
        // later key; it must stay blocked while node 0 is in flight,
        // because node 3's wake floor (0) could undercut it.
        let s1 = Arc::clone(&sched);
        let g1 = Arc::clone(&granted1);
        handles.push(thread::spawn(move || {
            s1.request_transmit(1, 2, Ns(5_000), Ns(1_000_000));
            g1.store(true, std::sync::atomic::Ordering::SeqCst);
            s1.finish_transmit(1, 2, Ns(15_000));
            s1.mark_done(1);
        }));
        hold.wait(); // node 0 is granted and in flight
        thread::sleep(std::time::Duration::from_millis(5));
        assert!(
            !granted1.load(std::sync::atomic::Ordering::SeqCst),
            "later-keyed grant overlapped an in-flight transmit whose \
             receiver could wake below its key"
        );
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sched.max_concurrent_grants(), 1);
    }

    /// A park with a deadline wakes by timeout when its deadline is the
    /// next event; a park raced by a delivery refuses to sleep.
    #[test]
    fn deadline_park_times_out_deterministically() {
        let sched = Arc::new(LockstepSched::new(2));
        let s2 = Arc::clone(&sched);
        let t = thread::spawn(move || {
            let seen = s2.delivery_count(1);
            s2.park(1, seen, Until::deadline(Ns(5_000)), Ns(100))
        });
        // Node 0 finishing leaves node 1's deadline as the only event.
        sched.mark_done(0);
        assert_eq!(t.join().unwrap(), WakeReason::Timeout);
    }

    #[test]
    fn raced_park_refuses_to_sleep() {
        let sched = LockstepSched::new(2);
        let seen = sched.delivery_count(1);
        // A transmit completes after the count was read but before the
        // park: the park must bounce back as Delivered.
        sched.deliver_locked(&mut sched.lock(), 1);
        assert_eq!(
            sched.park(1, seen, Until::FOREVER, Ns(0)),
            WakeReason::Delivered
        );
    }

    #[test]
    fn lookahead_unblocks_grants_past_running_floors() {
        let sched = Arc::new(LockstepSched::new(2));
        sched.declare_lookahead(0, Ns(3_400));
        // Node 1 transmits at t=2_000. Node 0 is running with floor
        // 10_000 (reported via a finished park), so 2_000 < 10_000 and
        // the grant fires without waiting for node 0 to commit.
        let s2 = Arc::clone(&sched);
        let t = thread::spawn(move || {
            s2.request_transmit(1, 0, Ns(2_000), Ns(5_400));
            s2.finish_transmit(1, 0, Ns(12_000));
        });
        // Stand node 0 up as Running{floor: 10_000}: park then release
        // by delivery is the mechanism, so emulate directly. Dropping the
        // guard unparks node 1's thread if this dispatch granted it.
        {
            let mut s = sched.lock();
            s.nodes[0].st = St::Running { floor: Ns(10_000) };
            sched.dispatch(&mut s);
        }
        t.join().unwrap();
    }

    /// A release posted after the waiter committed to `Parked` but before
    /// it sleeps is not lost: the release takes the stored handle and
    /// unparks it, and the late `await_signal` returns `Delivered`.
    #[test]
    fn release_before_sleep_is_not_lost() {
        let sched = Arc::new(LockstepSched::new(2));
        let committed = Arc::new(std::sync::Barrier::new(2));
        let released = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (sched, committed, released) = (
                Arc::clone(&sched),
                Arc::clone(&committed),
                Arc::clone(&released),
            );
            thread::spawn(move || {
                let parked = St::Parked {
                    deadline: None,
                    floor: Ns(0),
                    watch: None,
                };
                LockstepSched::block(&mut sched.lock(), 1, parked);
                committed.wait();
                released.wait();
                sched.await_signal(1)
            })
        };
        committed.wait();
        {
            let mut s = sched.lock();
            sched.deliver_locked(&mut s, 1);
            assert!(s.nodes[1].waiter.is_none(), "the release took the handle");
            assert_eq!(RELEASED.with(|r| r.borrow().len()), 1);
        }
        assert!(RELEASED.with(|r| r.borrow().is_empty()), "unparked on drop");
        released.wait();
        assert_eq!(waiter.join().unwrap(), WakeReason::Delivered);
    }

    /// A transmit granted in the critical section that requested it
    /// queues no unpark: the releasing thread is the waiter.
    #[test]
    fn self_grant_queues_no_wake() {
        let sched = LockstepSched::new_driven(2, TokenMode::default());
        let mut s = sched.lock();
        let pending = St::Pending {
            key: Key {
                t: Ns(1_000),
                node: 0,
                seq: 1,
            },
            floor_after: INF,
            dst: 1,
        };
        LockstepSched::block(&mut s, 0, pending);
        sched.dispatch(&mut s);
        assert!(matches!(s.nodes[0].st, St::Running { .. }), "granted");
        assert!(s.nodes[0].waiter.is_none());
        assert!(RELEASED.with(|r| r.borrow().is_empty()));
        drop(s);
        assert_eq!(sched.await_signal(0), WakeReason::Delivered);
    }

    /// Two concurrent pollers whose stale floors sit below each other's
    /// poll times would deadlock under a naive "wait until every floor
    /// passes t" rule. As ordered events they settle smallest key first.
    #[test]
    fn concurrent_polls_settle_in_key_order() {
        let sched = Arc::new(LockstepSched::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut hs = Vec::new();
        for (node, t) in [(0usize, Ns(100)), (1, Ns(50))] {
            let s = Arc::clone(&sched);
            let order = Arc::clone(&order);
            hs.push(thread::spawn(move || {
                let seen = s.delivery_count(node);
                let settled = s.poll_quiesce(node, t, seen, Ns(10));
                order.lock().unwrap().push(node);
                // A settled poller keeps running; committing (here: done)
                // is what lets later-keyed polls settle behind it.
                s.mark_done(node);
                settled
            }));
        }
        for h in hs {
            assert!(h.join().unwrap(), "poll failed to settle");
        }
        assert_eq!(*order.lock().unwrap(), vec![1, 0]);
    }

    #[test]
    fn poll_raced_by_delivery_returns_false() {
        let sched = LockstepSched::new(2);
        let seen = sched.delivery_count(1);
        sched.deliver_locked(&mut sched.lock(), 1);
        assert!(!sched.poll_quiesce(1, Ns(100), seen, Ns(0)));
    }

    /// A done-watch park releases with `PeersDone` when the last watched
    /// node deregisters, and immediately when the set is already done.
    #[test]
    fn done_watch_park_releases_on_mark_done() {
        let sched = Arc::new(LockstepSched::new(3));
        let s2 = Arc::clone(&sched);
        let t = thread::spawn(move || {
            let seen = s2.delivery_count(0);
            s2.park(0, seen, watching(&[1, 2]), Ns(100))
        });
        sched.mark_done(1);
        // One peer alive: the watcher must still be parked; give the
        // spawned thread a chance to park before the final mark_done.
        thread::sleep(std::time::Duration::from_millis(5));
        sched.mark_done(2);
        assert_eq!(t.join().unwrap(), WakeReason::PeersDone);
        // Already-drained watch sets settle inline.
        let seen = sched.delivery_count(0);
        assert_eq!(
            sched.park(0, seen, watching(&[1, 2]), Ns(100)),
            WakeReason::PeersDone
        );
    }

    /// A delivery beats the done-watch: the watcher wakes `Delivered`,
    /// serves, and only concludes `PeersDone` on a re-park.
    #[test]
    fn done_watch_park_yields_to_deliveries() {
        let sched = LockstepSched::new(2);
        let seen = sched.delivery_count(0);
        sched.deliver_locked(&mut sched.lock(), 0);
        assert_eq!(
            sched.park(0, seen, watching(&[1]), Ns(0)),
            WakeReason::Delivered
        );
    }

    /// The combined deadline+done-watch park (the exit fan's wait) fires
    /// whichever release comes first: timeout while the watched peer is
    /// alive, `PeersDone` when the peer deregisters before the deadline.
    #[test]
    fn deadline_done_watch_park_releases_both_ways() {
        // Timeout first: peer 0 stays alive (running with a high floor).
        let sched = Arc::new(LockstepSched::new(2));
        sched.lock().nodes[0].st = St::Running { floor: Ns(1_000_000) };
        let s2 = Arc::clone(&sched);
        let t = thread::spawn(move || {
            let seen = s2.delivery_count(1);
            s2.park(
                1,
                seen,
                Until {
                    deadline: Some(Ns(5_000)),
                    watch: Some(&[0]),
                },
                Ns(100),
            )
        });
        assert_eq!(t.join().unwrap(), WakeReason::Timeout);

        // Peer-done first: the watched node deregisters while the
        // deadline still sits beyond its (infinite) floor horizon.
        let sched = Arc::new(LockstepSched::new(2));
        let s2 = Arc::clone(&sched);
        let t = thread::spawn(move || {
            let seen = s2.delivery_count(1);
            s2.park(
                1,
                seen,
                Until {
                    deadline: Some(Ns(5_000)),
                    watch: Some(&[0]),
                },
                Ns(100),
            )
        });
        thread::sleep(std::time::Duration::from_millis(5));
        sched.mark_done(0);
        let r = t.join().unwrap();
        // Both releases are legitimate here (node 0's mark_done also
        // leaves the deadline as the next event); what matters is that
        // PeersDone is possible and nothing hangs. Pin the determinism:
        // mark_done's watch release runs before its dispatch, so the
        // watcher must see PeersDone.
        assert_eq!(r, WakeReason::PeersDone);
    }

    /// One thread plays both nodes of a driven pair: node 1 is never
    /// scheduled, yet node 0's transmit is granted at once (a
    /// conservative scheduler would wait for node 1's floor forever).
    #[test]
    fn driven_pair_grants_without_other_threads() {
        let sched = LockstepSched::new_driven(2, TokenMode::default());
        let seen = sched.delivery_count(1);
        sched.request_transmit(0, 1, Ns(1_000), Ns(2_000));
        sched.finish_transmit(0, 1, Ns(11_000));
        assert_eq!(sched.delivery_count(1), seen + 1);
        // The delivery is already counted, so node 1's park bounces.
        assert_eq!(
            sched.park(1, seen, Until::FOREVER, Ns(0)),
            WakeReason::Delivered
        );
    }

    /// A driven deadline wait on an empty inbox times out at once: the
    /// deadline is the only event, and no other thread need run for it
    /// to fire. (`UdpStack`'s `recv_timeout_returns_none_when_silent`
    /// checks that the caller's clock then sits exactly at the deadline.)
    #[test]
    fn driven_deadline_wait_times_out_at_once() {
        let sched = LockstepSched::new_driven(2, TokenMode::default());
        let seen = sched.delivery_count(1);
        let r = sched.park(1, seen, Until::deadline(Ns::from_ms(3)), Ns(0));
        assert_eq!(r, WakeReason::Timeout);
        // The woken node is running again: its next transmit still grants.
        sched.request_transmit(1, 0, Ns::from_ms(3), Ns(0));
        sched.finish_transmit(1, 0, Ns::from_ms(4));
    }

    #[test]
    #[should_panic(expected = "lockstep deadlock")]
    fn all_parked_no_event_is_a_deadlock() {
        let sched = Arc::new(LockstepSched::new(2));
        sched.mark_done(0);
        let seen = sched.delivery_count(1);
        sched.park(1, seen, Until::FOREVER, Ns(0));
    }
}
