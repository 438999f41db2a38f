//! The Tmk runtime: the TreadMarks API over a [`Substrate`].
//!
//! One `Tmk` lives in each node thread. The API mirrors TreadMarks':
//! `malloc`/`distribute`, `barrier`, lock `acquire`/`release`, plus the
//! byte/typed accessors that stand in for direct loads and stores (they
//! drive the page-fault state machine an mprotect build would).
//!
//! All protocol work is costed through the node's virtual clock; handler
//! work triggered by peers' asynchronous requests goes through
//! [`tm_sim::NodeClock::service_window`], which models interrupt
//! preemption — including retroactively, when the request arrived while
//! this node was computing.
//!
//! # Layering
//!
//! The runtime is an explicit layer stack, one module per layer, mirroring
//! the paper's Figure 1 (TreadMarks protocol over a thin substrate over
//! GM). Each layer calls only downward, through `pub(super)` seams:
//!
//! * `shmem` — the application-facing shared-memory API: regions,
//!   `read_bytes`/`write_bytes`, the typed accessors. Calls into
//!   coherence for fault transitions.
//! * `sync` — distributed locks (manager forwarding, token migration)
//!   and the centralized barrier. Calls into coherence for interval
//!   flush/apply and into rpc to move messages.
//! * `coherence` — lazy release consistency proper: the page table,
//!   twins, diff fetch/apply, interval records, write notices, epoch GC.
//!   Calls into rpc to fetch pages and diffs.
//! * `rpc` — request/response plumbing: rid allocation, the blocking
//!   `rpc` discipline (serve-while-waiting), retransmission timers, the
//!   `(from, rid)` replay cache, the `serve` dispatcher, shutdown linger.
//!   Talks only to the [`Substrate`], and blocks only in its one
//!   [`Substrate::wait`]: the collect loop arms the retransmission
//!   deadline (and, on the exit fan, watches the consumer), the linger
//!   watches the peers that may still retransmit to this node.
//!
//! This module holds what the layers share: the [`Tmk`] struct itself,
//! its configuration, and the [`TmkEvent`] observability seam.

use tm_sim::{Ns, SharedClock, SimParams};

use crate::interval::IntervalLog;
use crate::page::{Page, PageId};
use crate::substrate::Substrate;
use crate::vc::VectorClock;

macro_rules! trace {
    ($self:expr, $($arg:tt)*) => {
        if std::env::var_os("TMK_TRACE").is_some() {
            eprintln!("[n{} t{}] {}", $self.me, $self.clock().borrow().now(), format!($($arg)*));
        }
    };
}

mod coherence;
mod rpc;
mod shmem;
mod sync;

use rpc::{OutstandingRpc, QueuedRequest, ReplayCache};
use shmem::RegionInfo;
use sync::{BarrierEpisode, LockState};

/// Handle to a shared allocation (returned by [`Tmk::malloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedId(pub usize);

/// Barrier algorithm selection (the E7 scaling knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierAlgo {
    /// Every node sends its arrival to the single barrier manager, which
    /// serializes all merge + release work (the paper's implementation;
    /// O(n) cost at the manager).
    Centralized,
    /// Radix-`radix` combining tree rooted at the barrier manager: each
    /// interior node merges its children's arrivals and forwards one
    /// combined arrival upward; the root fans the release back down.
    /// O(log_k n) tree depth, at most `radix` serialized arrivals per
    /// node. Combining is charged at host handler cost (interrupt +
    /// dispatch), like any other request.
    Tree { radix: u16 },
    /// The same combining tree, but with merge and fan-out charged at
    /// NIC-firmware cost on the asynchronous port instead of
    /// host-interrupt + handler cost — the paper's §5 NIC-based barrier
    /// suggestion. See `MyrinetParams::nic_combine`.
    NicTree { radix: u16 },
}

/// How the coherence layer moves pending diffs at a page fault — the
/// overlapped-RPC-engine knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffFetch {
    /// One blocking rpc per last-writer, strictly in order — the
    /// TreadMarks specification baseline. A k-writer fault costs the sum
    /// of the k round trips.
    Serial,
    /// Merge all pages owed by one writer into a single `MultiDiff`
    /// message, issue one per writer up front, then collect the
    /// responses: the fault costs ~max(RTT) instead of the sum, in the
    /// fewest messages, which is where FAST/GM's fixed per-message costs
    /// bite.
    Coalesced,
}

/// How the sync layer moves write notices and the fetches they imply —
/// the synchronization-pipelining knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPath {
    /// One blocking rpc per step, faults fetched lazily one page at a
    /// time inside the critical section — the TreadMarks specification
    /// baseline, message-for-message.
    Serial,
    /// Pipeline the synchronization paths through the overlapped RPC
    /// engine: a grant's write notices trigger one overlapped batch
    /// fetch of every page they invalidate (acquire+read cost ≈
    /// grant + max fetch instead of grant + Σ per-page round trips), and
    /// a barrier release with multiple downstream consumers distributes
    /// its notices via issued requests whose acks are collected out of
    /// order.
    Overlapped,
}

/// Runtime tunables.
#[derive(Debug, Clone)]
pub struct TmkConfig {
    /// Diffs retained per page before GC falls back to full-page serves.
    pub diff_keep: usize,
    /// Which node runs barriers (the tree root for tree algorithms).
    pub barrier_manager: u16,
    /// How barrier arrivals are combined and releases fanned out.
    pub barrier_algo: BarrierAlgo,
    /// How pending diffs are fetched at a page fault.
    pub diff_fetch: DiffFetch,
    /// How lock grants and write-notice distribution are pipelined.
    pub lock_path: LockPath,
    /// Stride-prefetcher depth: on a detected constant-stride fault
    /// sequence, speculatively fetch up to this many predicted pages
    /// ahead through the overlapped engine (0 disables). Prefetched data
    /// is staged and validated against the page's current write-notice
    /// coverage at apply time, so the knob never weakens LRC.
    pub prefetch_depth: usize,
}

impl Default for TmkConfig {
    fn default() -> Self {
        TmkConfig {
            diff_keep: 256,
            barrier_manager: 0,
            barrier_algo: BarrierAlgo::Centralized,
            diff_fetch: DiffFetch::Coalesced,
            lock_path: LockPath::Serial,
            prefetch_depth: 0,
        }
    }
}

/// Layer-boundary events, emitted at the same points the protocol
/// counters in [`tm_sim::stats::NodeStats`] tick. The hook is the seam an
/// observability layer (per-layer metrics, tracing) plugs into without
/// touching protocol code; emission is free when no hook is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmkEvent {
    /// The rpc layer dispatched one incoming request to a handler.
    RequestServed { from: usize, rid: u32 },
    /// The coherence layer adopted a full page copy from a peer.
    PageFetched { page: PageId },
    /// The coherence layer applied `count` diffs to a page.
    DiffApplied { page: PageId, count: u64 },
    /// The sync layer handed a lock token to `to`.
    LockGranted { lock: u32, to: u16 },
    /// This node departed barrier `id`.
    BarrierCrossed { id: u32 },
    /// The rpc layer's retransmission timer fired (attempt number is
    /// 1-based).
    RetransmitFired { rid: u32, attempt: u32 },
    /// Tree barrier: this node forwarded one combined arrival (covering
    /// itself plus `children` direct subtrees) to its tree parent.
    BarrierArriveForwarded { barrier: u32, to: u16, children: u16 },
    /// Tree barrier: the root or an interior node fanned the release down
    /// to `children` tree children.
    BarrierReleaseFanned { barrier: u32, children: u16 },
    /// The rpc layer registered a new outstanding request; `depth` is the
    /// number of rids in flight *including* this one (the
    /// outstanding-rpc depth gauge reads its maximum).
    RpcIssued { rid: u32, depth: u32 },
    /// The coherence layer fanned `requests` concurrent diff fetches to
    /// `writers` distinct nodes in one round (the coalesced engine only;
    /// a serial fetch never emits this).
    DiffFanout { writers: u16, requests: u16 },
    /// The sync layer overlapped `fetches` page fetches implied by a
    /// grant's write notices with the tail of lock acquire `lock`
    /// (`LockPath::Overlapped` only; feeds the lock-pipeline depth
    /// gauge).
    LockPipelined { lock: u32, fetches: usize },
    /// The stride prefetcher speculatively requested `page`'s pending
    /// diffs.
    PrefetchIssued { page: PageId },
    /// A page fault consumed staged prefetched data for `page`.
    PrefetchHit { page: PageId },
    /// Staged prefetched data for `page` was discarded unconsumed (sync-
    /// point drain or stale coverage).
    PrefetchWasted { page: PageId },
}

impl TmkEvent {
    /// Stable per-variant name, the key a metrics sink tallies under.
    pub fn kind(&self) -> &'static str {
        match self {
            TmkEvent::RequestServed { .. } => "request_served",
            TmkEvent::PageFetched { .. } => "page_fetched",
            TmkEvent::DiffApplied { .. } => "diff_applied",
            TmkEvent::LockGranted { .. } => "lock_granted",
            TmkEvent::BarrierCrossed { .. } => "barrier_crossed",
            TmkEvent::RetransmitFired { .. } => "retransmit_fired",
            TmkEvent::BarrierArriveForwarded { .. } => "barrier_arrive_forwarded",
            TmkEvent::BarrierReleaseFanned { .. } => "barrier_release_fanned",
            TmkEvent::RpcIssued { .. } => "rpc_issued",
            TmkEvent::DiffFanout { .. } => "diff_fanout",
            TmkEvent::LockPipelined { .. } => "lock_pipelined",
            TmkEvent::PrefetchIssued { .. } => "prefetch_issued",
            TmkEvent::PrefetchHit { .. } => "prefetch_hit",
            TmkEvent::PrefetchWasted { .. } => "prefetch_wasted",
        }
    }
}

/// Installed observer for [`TmkEvent`]s.
type EventHook = Box<dyn FnMut(&TmkEvent)>;

/// The per-node DSM runtime.
pub struct Tmk<S: Substrate> {
    // rpc layer --------------------------------------------------------
    sub: S,
    next_rid: u32,
    /// Responder-side duplicate suppression (lossy transports only; stays
    /// empty — and cost-free — on reliable ones).
    replay: ReplayCache,
    /// Key of the request currently being dispatched, for filing its
    /// replay-cache entry at the response site. `None` on reliable
    /// transports.
    serving: Option<(usize, u32)>,
    /// Issued-but-uncollected rpcs: the overlapped engine's pending-
    /// response table. Responses are matched against the whole set, so
    /// any number of rids can be in flight at once.
    outstanding: Vec<OutstandingRpc>,
    /// Requests received while collecting responses, deferred to the
    /// async serve queue and dispatched in virtual-arrival order instead
    /// of re-entrantly mid-collect.
    serve_q: Vec<QueuedRequest>,
    // coherence layer --------------------------------------------------
    vc: VectorClock,
    log: IntervalLog,
    pages: Vec<Page>,
    /// Pages twinned in the current (open) interval.
    dirty: Vec<PageId>,
    last_barrier_vc: VectorClock,
    /// Stride-prefetcher state: fault-sequence detector plus in-flight
    /// speculative volleys and staged (collected, not yet applied)
    /// responses. Inert when `cfg.prefetch_depth == 0`.
    pf: coherence::Prefetcher,
    // sync layer -------------------------------------------------------
    locks: Vec<LockState>,
    barrier: BarrierEpisode,
    // shmem layer ------------------------------------------------------
    /// Pages handed out by collective `malloc`s so far (the page table in
    /// `pages` may extend further: peers can race ahead of our own malloc
    /// and fault pages we haven't formally allocated yet — the layout is
    /// deterministic, so we materialize them on demand).
    allocated_pages: usize,
    regions: Vec<RegionInfo>,
    // cross-layer ------------------------------------------------------
    me: u16,
    n: usize,
    cfg: TmkConfig,
    page_size: usize,
    event_hook: Option<EventHook>,
}

impl<S: Substrate> Tmk<S> {
    pub fn new(sub: S, cfg: TmkConfig) -> Self {
        let n = sub.nprocs();
        let me = sub.my_id() as u16;
        let page_size = sub.params().dsm.page_size;
        Tmk {
            sub,
            me,
            n,
            vc: VectorClock::new(n),
            log: IntervalLog::new(n),
            pages: Vec::new(),
            allocated_pages: 0,
            regions: Vec::new(),
            dirty: Vec::new(),
            pf: coherence::Prefetcher::default(),
            locks: Vec::new(),
            barrier: BarrierEpisode::new(n),
            last_barrier_vc: VectorClock::new(n),
            next_rid: 1,
            cfg,
            page_size,
            replay: ReplayCache::new(),
            serving: None,
            outstanding: Vec::new(),
            serve_q: Vec::new(),
            event_hook: None,
        }
    }

    pub fn proc_id(&self) -> usize {
        self.me as usize
    }

    pub fn nprocs(&self) -> usize {
        self.n
    }

    pub fn clock(&self) -> &SharedClock {
        self.sub.clock()
    }

    pub fn params(&self) -> &std::sync::Arc<SimParams> {
        self.sub.params()
    }

    /// Charge `units` of application computation (interruptible).
    pub fn compute(&mut self, units: u64) {
        let cost = self.sub.params().work(units);
        self.clock().borrow_mut().compute(cost);
    }

    /// Charge an explicit computation duration (interruptible).
    pub fn compute_ns(&mut self, d: Ns) {
        self.clock().borrow_mut().compute(d);
    }

    /// Install an observer for layer-boundary [`TmkEvent`]s, replacing any
    /// previous one. The hook runs synchronously inside protocol code and
    /// must not call back into the runtime; it charges no virtual time.
    pub fn set_event_hook(&mut self, hook: impl FnMut(&TmkEvent) + 'static) {
        self.event_hook = Some(Box::new(hook));
    }

    /// Remove the installed event hook, if any.
    pub fn clear_event_hook(&mut self) {
        self.event_hook = None;
    }

    /// Emit one layer-boundary event to the installed hook (no-op — one
    /// branch — without one).
    fn emit(&mut self, ev: TmkEvent) {
        if let Some(h) = self.event_hook.as_mut() {
            h(&ev);
        }
    }

    /// Introspection: current vector time.
    pub fn vector_time(&self) -> &VectorClock {
        &self.vc
    }
}
