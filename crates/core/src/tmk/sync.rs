//! Synchronization: distributed locks and barriers.
//!
//! Locks have statically assigned managers (`lock % nprocs`) and a
//! migrating token: the manager forwards an acquire to its owner hint,
//! the owner grants at release, and direct (manager-owned) vs. indirect
//! (third-node) acquisition are exactly the two cases of the paper's
//! Lock microbenchmark.
//!
//! Barriers come in two shapes, selected by
//! [`TmkConfig::barrier_algo`](super::TmkConfig): the paper's centralized
//! barrier at [`TmkConfig::barrier_manager`](super::TmkConfig) (arrivals
//! carry fresh interval records; the release broadcasts the union), and a
//! radix-k combining tree rooted at the same node, where each interior
//! node merges its children's arrivals (record union, vector-clock meet
//! and join) into one combined arrival and the root fans the release back
//! down. [`BarrierAlgo::NicTree`](super::BarrierAlgo) charges the
//! combining at NIC-firmware cost instead of host interrupt + handler
//! dispatch — the paper's §5 NIC-based barrier suggestion.
//!
//! This layer calls down into coherence (flush/apply intervals at every
//! synchronization point, epoch GC after barriers) and rpc (moving
//! grants, arrivals and releases; recording out-of-band responses in the
//! replay cache).

use std::collections::VecDeque;

use tm_sim::Ns;

use super::{Tmk, TmkEvent};
use crate::interval::IntervalRecord;
use crate::protocol::{Request, Response};
use crate::substrate::Substrate;
use crate::vc::VectorClock;
use crate::wire::WireWriter;

pub(super) struct LockState {
    /// Manager's record of who holds (or will next hold) the token.
    owner_hint: u16,
    have_token: bool,
    busy: bool,
    /// Requests waiting for our release: (requester, rid, their vc,
    /// arrival key). The arrival key is the `(from, rid)` the request
    /// last reached us under — identical to `(requester, rid)` for a
    /// direct acquire, but the forwarding manager's `(manager, fwd_rid)`
    /// for a forwarded one. Replay-cache upgrades go through it so a
    /// retransmitted forward finds the grant we eventually sent.
    waiting: VecDeque<(u16, u32, VectorClock, (usize, u32))>,
}

pub(super) struct BarrierEpisode {
    arrived: Vec<bool>,
    /// Per arriving node: rid, coverage floor, coverage ceiling. For a
    /// centralized client the floor and ceiling are both its vector time;
    /// for a tree child they are the meet and join over its whole subtree.
    /// The release back to that node carries every record newer than the
    /// floor; the ceilings merge into the global barrier time.
    clients: Vec<Option<(u32, VectorClock, VectorClock)>>,
    count: usize,
    /// Barrier id of this episode — mismatched ids are a program error
    /// (different nodes waiting at different barriers) and panic loudly
    /// instead of deadlocking.
    id: Option<u32>,
    /// Records collected from arrivals, noticed at departure (the manager
    /// must not invalidate its own pages before it reaches the barrier).
    records: Vec<IntervalRecord>,
}

impl BarrierEpisode {
    pub(super) fn new(n: usize) -> Self {
        BarrierEpisode {
            arrived: vec![false; n],
            clients: vec![None; n],
            count: 0,
            id: None,
            records: Vec::new(),
        }
    }
}

impl<S: Substrate> Tmk<S> {
    fn lock_manager(&self, lock: u32) -> u16 {
        (lock as usize % self.n) as u16
    }

    fn ensure_lock(&mut self, lock: u32) {
        while self.locks.len() <= lock as usize {
            let id = self.locks.len() as u32;
            let mgr = self.lock_manager(id);
            self.locks.push(LockState {
                owner_hint: mgr,
                have_token: self.me == mgr,
                busy: false,
                waiting: VecDeque::new(),
            });
        }
    }

    // ----- request handlers (dispatched by rpc::serve) ----------------------

    /// An `Acquire` reached us as this lock's manager: grant directly if
    /// we hold a free token, queue if we hold it busy, else forward to
    /// the owner hint.
    pub(super) fn serve_acquire(
        &mut self,
        from: usize,
        rid: u32,
        lock: u32,
        vc: VectorClock,
        arrival: Ns,
        mut cost: Ns,
    ) {
        self.ensure_lock(lock);
        debug_assert_eq!(self.lock_manager(lock), self.me, "acquire sent to non-manager");
        let ls = &mut self.locks[lock as usize];
        if ls.owner_hint == self.me {
            if ls.have_token && !ls.busy {
                // Direct grant: manager holds a free token.
                let (resp, c) = self.make_grant(lock, &vc);
                cost += c;
                let ls = &mut self.locks[lock as usize];
                ls.have_token = false;
                ls.owner_hint = from as u16;
                self.respond(from, rid, resp, arrival, cost);
                self.emit(TmkEvent::LockGranted {
                    lock,
                    to: from as u16,
                });
            } else {
                // We hold it busy (or the token is en route to us):
                // grant at release.
                ls.waiting.push_back((from as u16, rid, vc, (from, rid)));
                ls.owner_hint = from as u16;
                self.charge_service(arrival, cost);
                self.note_pending();
            }
        } else {
            // Forward to the current owner; requester stays blocked.
            let owner = ls.owner_hint as usize;
            ls.owner_hint = from as u16;
            let fwd = Request::AcquireFwd {
                lock,
                requester: from as u16,
                rid,
                vc,
            };
            let fwd_rid = self.rid();
            let mut w = WireWriter::pooled(64);
            fwd.encode_into(fwd_rid, &mut w);
            self.forward_wire(owner, w, arrival, cost);
        }
    }

    /// A forwarded acquire reached us as the token's owner: grant now if
    /// the token is free, else queue until our release.
    // The parameter list mirrors the AcquireFwd wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve_acquire_fwd(
        &mut self,
        from: usize,
        rid: u32,
        lock: u32,
        requester: u16,
        orig_rid: u32,
        vc: VectorClock,
        arrival: Ns,
        mut cost: Ns,
    ) {
        self.ensure_lock(lock);
        let ls = &mut self.locks[lock as usize];
        if ls.have_token && !ls.busy {
            let (resp, c) = self.make_grant(lock, &vc);
            cost += c;
            self.locks[lock as usize].have_token = false;
            self.respond(requester as usize, orig_rid, resp, arrival, cost);
            self.emit(TmkEvent::LockGranted { lock, to: requester });
        } else {
            ls.waiting.push_back((requester, orig_rid, vc, (from, rid)));
            self.charge_service(arrival, cost);
            self.note_pending();
        }
    }

    /// A client's `BarrierArrive` reached us as the barrier manager.
    // The parameter list mirrors the BarrierArrive wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve_barrier_arrive(
        &mut self,
        from: usize,
        rid: u32,
        barrier: u32,
        vc: VectorClock,
        records: Vec<IntervalRecord>,
        arrival: Ns,
        mut cost: Ns,
    ) {
        debug_assert_eq!(self.cfg.barrier_manager, self.me);
        match self.barrier.id {
            None => self.barrier.id = Some(barrier),
            Some(b) => assert_eq!(
                b, barrier,
                "barrier mismatch: node {from} arrived at {barrier}, episode is {b}"
            ),
        }
        cost += Ns(200 * records.len() as u64);
        self.stash_barrier_records(records);
        if !self.barrier.arrived[from] {
            self.barrier.arrived[from] = true;
            self.barrier.count += 1;
        }
        self.barrier.clients[from] = Some((rid, vc.clone(), vc));
        self.charge_service(arrival, cost);
        self.note_pending();
    }

    /// A child's combined `BarrierTreeArrive` reached us as its tree
    /// parent. Same deferred-incorporation discipline as the centralized
    /// manager; under `NicTree` the merge is charged at NIC-firmware cost
    /// with no host interrupt (the host CPU is never preempted).
    // The parameter list mirrors the BarrierTreeArrive wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve_tree_arrive(
        &mut self,
        from: usize,
        rid: u32,
        barrier: u32,
        min_vc: VectorClock,
        vc: VectorClock,
        records: Vec<IntervalRecord>,
        arrival: Ns,
        cost: Ns,
    ) {
        debug_assert!(
            self.tree_children().contains(&from),
            "tree arrival from {from}, not a child of {}",
            self.me
        );
        match self.barrier.id {
            None => self.barrier.id = Some(barrier),
            Some(b) => assert_eq!(
                b, barrier,
                "barrier mismatch: subtree {from} arrived at {barrier}, episode is {b}"
            ),
        }
        let nrec = records.len() as u64;
        self.stash_barrier_records(records);
        if !self.barrier.arrived[from] {
            self.barrier.arrived[from] = true;
            self.barrier.count += 1;
        }
        self.barrier.clients[from] = Some((rid, min_vc, vc));
        if let super::BarrierAlgo::NicTree { .. } = self.cfg.barrier_algo {
            let net = &self.sub.params().net;
            let c = net.nic_combine + Ns(net.nic_combine_per_record.0 * nrec);
            self.charge_service_offloaded(arrival, c);
        } else {
            self.charge_service(arrival, cost + Ns(200 * nrec));
        }
        self.note_pending();
    }

    /// Stash arrival records for departure. The combining node must not
    /// incorporate arrivals' intervals (records OR vector time) before its
    /// own release: doing so would make its interim lock grants claim
    /// coverage of write notices it never forwarded.
    fn stash_barrier_records(&mut self, records: Vec<IntervalRecord>) {
        for rec in records {
            let stashed = self
                .barrier
                .records
                .iter()
                .any(|r| r.node == rec.node && r.seq == rec.seq);
            if !stashed && !self.log.contains(rec.node, rec.seq) {
                self.barrier.records.push(rec);
            }
        }
    }

    /// Flush our interval and package a grant carrying everything the
    /// requester's vector time shows it hasn't seen.
    fn make_grant(&mut self, lock: u32, rvc: &VectorClock) -> (Response, Ns) {
        let flush_cost = self.flush_interval();
        let records = self.log.newer_than(rvc);
        trace!(self, "grant lock={} rvc={:?} records={:?}", lock, rvc, records.iter().map(|r| (r.node, r.seq)).collect::<Vec<_>>());
        let cost = flush_cost + Ns(200 * records.len() as u64);
        (
            Response::Grant {
                lock,
                vc: self.vc.clone(),
                records,
            },
            cost,
        )
    }

    // ----- synchronization API ----------------------------------------------

    /// `Tmk_lock_acquire`.
    pub fn acquire(&mut self, lock: u32) {
        // Service anything pending first: a cached-token fast path must
        // not starve peers whose acquire was forwarded to us.
        self.poll_serve();
        self.ensure_lock(lock);
        let ls = &self.locks[lock as usize];
        if ls.have_token && !ls.busy {
            // Token cached locally: free re-acquire.
            self.locks[lock as usize].busy = true;
            self.clock().borrow_mut().advance(Ns(300));
            return;
        }
        assert!(!ls.busy, "node {} re-acquiring lock {lock} it holds", self.me);
        self.clock().borrow_mut().stats.remote_acquires += 1;
        let mgr = self.lock_manager(lock) as usize;
        let resp = if mgr == self.me as usize {
            // We are the manager but the token is elsewhere: forward
            // directly to the owner.
            let owner = self.locks[lock as usize].owner_hint as usize;
            debug_assert_ne!(owner, self.me as usize);
            self.locks[lock as usize].owner_hint = self.me;
            let rid = self.rid();
            let req = Request::AcquireFwd {
                lock,
                requester: self.me,
                rid,
                vc: self.vc.clone(),
            };
            // Run the rpc with the chosen rid so the grant correlates.
            let mut w = WireWriter::pooled(64);
            req.encode_into(rid, &mut w);
            self.rpc_encoded(owner, rid, w)
        } else {
            self.rpc(
                mgr,
                Request::Acquire {
                    lock,
                    vc: self.vc.clone(),
                },
            )
        };
        match resp {
            Response::Grant { lock: l, vc, records } => {
                assert_eq!(l, lock);
                // Under the overlapped lock path the pages these records
                // invalidate are fetched *now*, as one concurrent batch,
                // instead of one fault round-trip at a time inside the
                // critical section — acquire latency becomes
                // max(grant, fetch) rather than their sum.
                let pipelined: Vec<crate::page::PageId> = match self.cfg.lock_path {
                    super::LockPath::Serial => Vec::new(),
                    super::LockPath::Overlapped => records
                        .iter()
                        .filter(|r| r.node != self.me)
                        .flat_map(|r| r.pages.iter().copied())
                        .collect(),
                };
                let cost = self.apply_records(records);
                self.vc.join(&vc);
                self.clock().borrow_mut().advance(cost);
                let ls = &mut self.locks[lock as usize];
                ls.have_token = true;
                ls.busy = true;
                if !pipelined.is_empty() {
                    let fetches = self.pipeline_fetch(&pipelined);
                    if fetches > 0 {
                        self.emit(TmkEvent::LockPipelined { lock, fetches });
                    }
                }
            }
            other => panic!("expected Grant, got {other:?}"),
        }
    }

    /// `Tmk_lock_release`.
    pub fn release(&mut self, lock: u32) {
        self.poll_serve();
        self.ensure_lock(lock);
        assert!(
            self.locks[lock as usize].busy,
            "node {} releasing lock {lock} it doesn't hold",
            self.me
        );
        self.locks[lock as usize].busy = false;
        self.clock().borrow_mut().advance(Ns(300));
        self.grant_waiting(lock);
    }

    /// Hand the token to the next queued requester, if any.
    fn grant_waiting(&mut self, lock: u32) {
        let ls = &mut self.locks[lock as usize];
        if !ls.have_token || ls.busy {
            return;
        }
        let Some((requester, rid, rvc, via)) = ls.waiting.pop_front() else {
            return;
        };
        let (resp, cost) = self.make_grant(lock, &rvc);
        self.locks[lock as usize].have_token = false;
        let mut w = WireWriter::pooled(128);
        resp.encode_into(rid, &mut w);
        let total = cost + self.sub.response_cost(w.len());
        self.clock().borrow_mut().advance(total);
        let now = self.clock().borrow().now();
        self.sub.send_response_at(requester as usize, w.as_slice(), now);
        self.remember_response(via, requester as usize, w.as_slice());
        w.recycle();
        self.emit(TmkEvent::LockGranted { lock, to: requester });
    }

    // ----- barrier tree topology --------------------------------------------

    /// Combining radix, or `None` for the centralized algorithm.
    fn tree_radix(&self) -> Option<usize> {
        match self.cfg.barrier_algo {
            super::BarrierAlgo::Centralized => None,
            super::BarrierAlgo::Tree { radix } | super::BarrierAlgo::NicTree { radix } => {
                Some(radix.max(1) as usize)
            }
        }
    }

    /// Logical id in the tree: nodes renumbered so the barrier manager is
    /// logical 0 (the root), which keeps the root knob meaningful at every
    /// radix.
    fn tree_lid(&self, node: usize) -> usize {
        (node + self.n - self.cfg.barrier_manager as usize) % self.n
    }

    fn tree_node(&self, lid: usize) -> usize {
        (lid + self.cfg.barrier_manager as usize) % self.n
    }

    /// Our parent in the combining tree (`None` at the root, and always
    /// `None` under the centralized algorithm).
    fn tree_parent(&self) -> Option<usize> {
        let k = self.tree_radix()?;
        let lid = self.tree_lid(self.me as usize);
        if lid == 0 {
            None
        } else {
            Some(self.tree_node((lid - 1) / k))
        }
    }

    /// Our direct children in the combining tree (empty for leaves and
    /// under the centralized algorithm).
    fn tree_children(&self) -> Vec<usize> {
        let Some(k) = self.tree_radix() else {
            return Vec::new();
        };
        let lid = self.tree_lid(self.me as usize);
        (k * lid + 1..=k * lid + k)
            .take_while(|&c| c < self.n)
            .map(|c| self.tree_node(c))
            .collect()
    }

    /// Every node in our subtree, excluding ourselves. The shutdown linger
    /// watches exactly these: they are the only peers whose retransmitted
    /// arrivals we are responsible for answering.
    fn tree_descendants(&self) -> Vec<usize> {
        let Some(k) = self.tree_radix() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut frontier = vec![self.tree_lid(self.me as usize)];
        while let Some(lid) = frontier.pop() {
            for c in k * lid + 1..=k * lid + k {
                if c < self.n {
                    out.push(self.tree_node(c));
                    frontier.push(c);
                }
            }
        }
        out
    }

    // ----- barrier ----------------------------------------------------------

    /// `Tmk_barrier`.
    pub fn barrier(&mut self, id: u32) {
        trace!(self, "barrier {id} enter");
        // Settle speculative traffic before synchronizing: in-flight
        // prefetch volleys are collected (and their stale stages
        // discarded) so nothing issued against the old epoch survives it.
        self.prefetch_drain();
        let flush_cost = self.flush_interval();
        self.clock().borrow_mut().advance(flush_cost);
        self.clock().borrow_mut().stats.barriers += 1;
        match self.tree_radix() {
            None if self.me == self.cfg.barrier_manager => self.barrier_as_manager(id),
            None => {
                let records = self.records_since_epoch();
                let resp = self.rpc(
                    self.cfg.barrier_manager as usize,
                    Request::BarrierArrive {
                        barrier: id,
                        vc: self.vc.clone(),
                        records,
                    },
                );
                match resp {
                    Response::BarrierRelease { vc, records } => {
                        let cost = self.apply_records(records);
                        self.vc.join(&vc);
                        self.clock().borrow_mut().advance(cost);
                        self.epoch_gc(vc);
                    }
                    other => panic!("expected BarrierRelease, got {other:?}"),
                }
            }
            Some(_) => self.barrier_tree(id),
        }
        self.emit(TmkEvent::BarrierCrossed { id });
    }

    /// Note our own arrival in the current episode (manager / tree-node
    /// local bookkeeping).
    fn barrier_arrive_self(&mut self, id: u32) {
        match self.barrier.id {
            None => self.barrier.id = Some(id),
            Some(b) => assert_eq!(b, id, "node {} at barrier {id}, episode is {b}", self.me),
        }
        if !self.barrier.arrived[self.me as usize] {
            self.barrier.arrived[self.me as usize] = true;
            self.barrier.count += 1;
        }
    }

    /// Serve-while-waiting until `expected` arrivals (ours included) are
    /// in the episode. Runs on the overlapped engine's absorb/drain step:
    /// requests keep being dispatched (in virtual-arrival order) — lock
    /// traffic and late subtree arrivals must make progress while we
    /// wait. No rid is outstanding here, so any non-duplicate response is
    /// a protocol error (the engine's stale discard panics on reliable
    /// transports and counts on lossy ones).
    fn barrier_wait_arrivals(&mut self, expected: usize) {
        loop {
            // Drain before checking: an arrival may already sit in the
            // serve queue, gathered during a preceding collect (blocking
            // with it queued would deadlock — its sender is waiting on
            // us).
            self.drain_serve_queue();
            if self.barrier.count >= expected {
                break;
            }
            self.clock().borrow_mut().begin_wait();
            let msg = self.sub.next_incoming();
            self.absorb(msg);
        }
    }

    fn barrier_as_manager(&mut self, id: u32) {
        self.barrier_arrive_self(id);
        self.barrier_wait_arrivals(self.n);
        // Everyone is here: departure. Incorporate the arrivals' interval
        // records and vector times, invalidate, then release the clients.
        // The stashed records move into apply_records — no clone.
        let BarrierEpisode {
            records, clients, ..
        } = std::mem::replace(&mut self.barrier, BarrierEpisode::new(self.n));
        let apply_cost = self.apply_records(records);
        self.clock().borrow_mut().advance(apply_cost);
        for slot in clients.iter().flatten() {
            self.vc.join(&slot.2);
        }
        let merged = self.vc.clone();
        self.fan_release(id, clients, &merged);
        self.epoch_gc(merged);
    }

    /// Tree-barrier path, for the root, interior nodes and leaves alike.
    fn barrier_tree(&mut self, id: u32) {
        let children = self.tree_children();
        self.barrier_arrive_self(id);
        // Wait for one combined arrival per direct child subtree (leaves
        // skip straight through).
        self.barrier_wait_arrivals(children.len() + 1);
        let episode = std::mem::replace(&mut self.barrier, BarrierEpisode::new(self.n));
        match self.tree_parent() {
            None => self.tree_depart_root(id, episode),
            Some(parent) => self.tree_combine_upward(id, parent, episode),
        }
    }

    /// Root departure: the episode now covers the whole cluster. Merge,
    /// fan the release down, advance the epoch.
    fn tree_depart_root(&mut self, id: u32, episode: BarrierEpisode) {
        let BarrierEpisode {
            records, clients, ..
        } = episode;
        let apply_cost = self.apply_records(records);
        self.clock().borrow_mut().advance(apply_cost);
        for slot in clients.iter().flatten() {
            self.vc.join(&slot.2);
        }
        let merged = self.vc.clone();
        self.fan_release(id, clients, &merged);
        self.epoch_gc(merged);
    }

    /// Interior/leaf upward phase: merge our children's combined arrivals
    /// with our own state, forward one `BarrierTreeArrive` to our parent,
    /// and on release fan it down to our children before advancing the
    /// epoch. Like the centralized manager, we must not incorporate the
    /// children's intervals until our own release arrives.
    fn tree_combine_upward(&mut self, id: u32, parent: usize, episode: BarrierEpisode) {
        let BarrierEpisode {
            mut records,
            clients,
            ..
        } = episode;
        // Subtree coverage floor (meet) and ceiling (join) over ourselves
        // and every child subtree.
        let mut min_vc = self.vc.clone();
        let mut max_vc = self.vc.clone();
        for slot in clients.iter().flatten() {
            min_vc.meet(&slot.1);
            max_vc.join(&slot.2);
        }
        // Our own fresh records ride along with the stashed subtree union
        // (records_since_epoch also re-covers third-party intervals we
        // learned through locks, so nothing is lost to the stash dedup).
        for rec in self.records_since_epoch() {
            if !records.iter().any(|r| r.node == rec.node && r.seq == rec.seq) {
                records.push(rec);
            }
        }
        self.emit(TmkEvent::BarrierArriveForwarded {
            barrier: id,
            to: parent as u16,
            children: clients.iter().flatten().count() as u16,
        });
        let resp = self.rpc(
            parent,
            Request::BarrierTreeArrive {
                barrier: id,
                min_vc,
                vc: max_vc,
                records,
            },
        );
        match resp {
            Response::BarrierTreeRelease {
                barrier,
                vc,
                records,
            } => {
                assert_eq!(barrier, id, "release for barrier {barrier}, expected {id}");
                let cost = self.apply_records(records);
                self.vc.join(&vc);
                self.clock().borrow_mut().advance(cost);
                // Fan down before the epoch advances: newer_than against
                // the children's floors needs the pre-GC log.
                self.fan_release(id, clients, &vc);
                self.epoch_gc(vc);
            }
            other => panic!("expected BarrierTreeRelease, got {other:?}"),
        }
    }

    /// Release every arrival in `clients`: each gets the merged barrier
    /// time plus all records newer than its coverage floor. Under
    /// `NicTree` the fan-out is charged at NIC-firmware cost; otherwise at
    /// the substrate's host response cost.
    fn fan_release(
        &mut self,
        id: u32,
        clients: Vec<Option<(u32, VectorClock, VectorClock)>>,
        merged: &VectorClock,
    ) {
        let tree = self.tree_radix().is_some();
        let offloaded = matches!(self.cfg.barrier_algo, super::BarrierAlgo::NicTree { .. });
        if matches!(self.cfg.lock_path, super::LockPath::Overlapped) && !offloaded {
            // Overlapped write-notice distribution: every consumer's
            // release goes out as an issued request; acks collect out of
            // order. The exit fan rides the same path: each ack collect
            // watches its consumer's NIC, so a retransmission timer armed
            // against a consumer that applied the release and tore down
            // cancels instead of firing into the dead node. Only the
            // NIC-offloaded fan stays serial (its cost model is the
            // point).
            return self.fan_release_overlapped(id, tree, clients, merged);
        }
        let mut fanned = 0u16;
        for (node, slot) in clients.into_iter().enumerate() {
            let Some((rid, floor, _)) = slot else { continue };
            let records = self.log.newer_than(&floor);
            let resp = if tree {
                Response::BarrierTreeRelease {
                    barrier: id,
                    vc: merged.clone(),
                    records,
                }
            } else {
                Response::BarrierRelease {
                    vc: merged.clone(),
                    records,
                }
            };
            let mut w = WireWriter::pooled(128);
            resp.encode_into(rid, &mut w);
            let cost = if offloaded {
                self.sub.params().net.nic_combine
            } else {
                self.sub.response_cost(w.len()) + Ns(500)
            };
            self.clock().borrow_mut().advance(cost);
            let now = self.clock().borrow().now();
            self.sub.send_response_at(node, w.as_slice(), now);
            // A lost release leaves the peer retransmitting its arrival;
            // answer the duplicate from the cache.
            self.remember_response((node, rid), node, w.as_slice());
            w.recycle();
            fanned += 1;
        }
        if tree && fanned > 0 {
            self.emit(TmkEvent::BarrierReleaseFanned {
                barrier: id,
                children: fanned,
            });
        }
    }

    /// [`Self::fan_release`] on the overlapped engine: one
    /// [`Request::NoticeRelease`] per consumer, all issued before any ack
    /// is collected. Each consumer synthesizes its own release response
    /// from the request payload (see [`Self::serve_notice_release`]), so
    /// the notices gain per-rid retransmission — on lossy wires a dropped
    /// release is re-driven by *our* timer instead of waiting out the
    /// consumer's arrival retransmission.
    ///
    /// Ack collection watches each consumer's NIC: on the exit fan a
    /// consumer applies the release, passes the barrier and may tear down
    /// before its ack (or our retransmitted notice) survives the wire. A
    /// departed consumer *proves* the release was applied — it can only
    /// have exited past the barrier — so the pending ack rpc is cancelled
    /// instead of retransmitted into the dead node.
    fn fan_release_overlapped(
        &mut self,
        id: u32,
        tree: bool,
        clients: Vec<Option<(u32, VectorClock, VectorClock)>>,
        merged: &VectorClock,
    ) {
        let mut acks: Vec<(usize, u32)> = Vec::new();
        for (node, slot) in clients.into_iter().enumerate() {
            let Some((rid, floor, _)) = slot else { continue };
            let records = self.log.newer_than(&floor);
            let nrid = self.rpc_issue(
                node,
                Request::NoticeRelease {
                    barrier: id,
                    tree,
                    reply_rid: rid,
                    vc: merged.clone(),
                    records,
                },
            );
            acks.push((node, nrid));
        }
        let fanned = acks.len() as u16;
        for (node, nrid) in acks {
            match self.collect(nrid, Some(node)) {
                Some(Response::NoticeAck { barrier }) => {
                    assert_eq!(barrier, id, "ack for barrier {barrier}, expected {id}")
                }
                // Consumer already deregistered: release applied, ack moot.
                None => {}
                Some(other) => panic!("expected NoticeAck, got {other:?}"),
            }
        }
        if tree && fanned > 0 {
            self.emit(TmkEvent::BarrierReleaseFanned {
                barrier: id,
                children: fanned,
            });
        }
    }

    /// A releaser's `NoticeRelease` reached us: synthesize the barrier
    /// release it carries, file it into our own blocked arrival rpc
    /// (`reply_rid`), and ack. A duplicate whose original already landed
    /// finds the slot gone and just re-acks — idempotent by construction.
    // The parameter list mirrors the NoticeRelease wire fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn serve_notice_release(
        &mut self,
        from: usize,
        rid: u32,
        barrier: u32,
        tree: bool,
        reply_rid: u32,
        vc: VectorClock,
        records: Vec<IntervalRecord>,
        arrival: Ns,
        mut cost: Ns,
    ) {
        cost += Ns(200 * records.len() as u64);
        let release = if tree {
            Response::BarrierTreeRelease {
                barrier,
                vc,
                records,
            }
        } else {
            Response::BarrierRelease { vc, records }
        };
        self.complete_local(reply_rid, release);
        self.respond(from, rid, Response::NoticeAck { barrier }, arrival, cost);
    }

    /// Final synchronization before the node thread returns: a barrier, so
    /// no peer is left blocked on us.
    ///
    /// On a lossy transport every node that answers barrier arrivals
    /// additionally lingers: a peer whose exit release was lost keeps
    /// retransmitting its arrival, and only our replay cache can answer
    /// it. The centralized manager watches the whole cluster; a tree node
    /// watches its descendants — leaves exit immediately and the tree
    /// drains bottom-up (a parent lingering on *all* peers would deadlock
    /// against its own lingering ancestors).
    pub fn exit(&mut self) {
        self.barrier(u32::MAX);
        if self.sub.retransmit_timeout().is_some() {
            if self.tree_radix().is_some() {
                let watch = self.tree_descendants();
                if !watch.is_empty() {
                    self.shutdown_linger(&watch);
                }
            } else if self.me == self.cfg.barrier_manager {
                let me = usize::from(self.me);
                let peers: Vec<usize> = (0..self.nprocs()).filter(|&i| i != me).collect();
                self.shutdown_linger(&peers);
            }
        }
    }
}

#[cfg(test)]
#[path = "sync_tests.rs"]
mod tests;
