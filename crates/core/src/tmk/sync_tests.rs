//! Lock grant-forwarding chain tests over the in-memory substrate — no
//! fabric, no threads. Each test drives the `serve` dispatcher by hand
//! with wire-encoded requests, so the manager → owner → requester chain
//! and its replay-cache behavior under retransmission are exercised at
//! the layer seam, deterministically.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tm_sim::clock::shared_clock;
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Until, Wait};

use crate::memsub::{mem_cluster, MemSubstrate};
use crate::protocol::{Request, Response};
use crate::substrate::{Chan, IncomingMsg, Substrate};
use crate::vc::VectorClock;
use crate::{Tmk, TmkConfig, TmkEvent};

/// [`MemSubstrate`] plus a fixed retransmission timeout: flips the rpc
/// layer onto its lossy path (replay cache active) without any loss
/// model underneath — the tests inject duplicates by calling `serve`
/// twice with the same bytes.
struct LossyMem(MemSubstrate);

impl Substrate for LossyMem {
    fn my_id(&self) -> usize {
        self.0.my_id()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn clock(&self) -> &SharedClock {
        self.0.clock()
    }
    fn params(&self) -> &Arc<SimParams> {
        self.0.params()
    }
    fn scheme(&self) -> AsyncScheme {
        self.0.scheme()
    }
    fn send_request(&mut self, to: usize, data: &[u8]) -> bool {
        self.0.send_request(to, data)
    }
    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.0.send_request_at(to, data, at)
    }
    fn response_cost(&self, len: usize) -> Ns {
        self.0.response_cost(len)
    }
    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.0.send_response_at(to, data, at)
    }
    fn poll_request(&mut self) -> Option<IncomingMsg> {
        self.0.poll_request()
    }
    fn wait(&mut self, until: Until) -> Wait<IncomingMsg> {
        self.0.wait(until)
    }
    fn retransmit_timeout(&self) -> Option<Ns> {
        Some(Ns::from_us(500))
    }
}

/// Three-node cluster: node 0 is lock 0's manager, node 1 the (eventual)
/// owner, node 2 the requester — the requester side needs no runtime, a
/// bare substrate receives its grants.
fn chain() -> (Tmk<LossyMem>, Tmk<LossyMem>, MemSubstrate) {
    let params = Arc::new(SimParams::paper_testbed());
    let mut eps = mem_cluster(3);
    let e2 = eps.pop().unwrap();
    let e1 = eps.pop().unwrap();
    let e0 = eps.pop().unwrap();
    let mk = |ep| MemSubstrate::new(ep, shared_clock(), Arc::clone(&params), Ns::ZERO, Ns(500));
    let t0 = Tmk::new(LossyMem(mk(e0)), TmkConfig::default());
    let t1 = Tmk::new(LossyMem(mk(e1)), TmkConfig::default());
    let s2 = mk(e2);
    (t0, t1, s2)
}

fn encode(req: Request, rid: u32) -> Vec<u8> {
    let mut w = crate::wire::WireWriter::pooled(64);
    req.encode_into(rid, &mut w);
    let bytes = w.as_slice().to_vec();
    w.recycle();
    bytes
}

fn acquire_bytes(rid: u32) -> Vec<u8> {
    encode(
        Request::Acquire {
            lock: 0,
            vc: VectorClock::new(3),
        },
        rid,
    )
}

/// Run the real manager-side handoff that makes node 1 lock 0's owner,
/// mirroring the grant in node 1's local token state.
fn seed_owner(t0: &mut Tmk<LossyMem>, t1: &mut Tmk<LossyMem>) {
    t0.serve(1, &acquire_bytes(1), Ns(0));
    let grant = t1.sub.next_incoming();
    assert_eq!(grant.chan, Chan::Response);
    t1.ensure_lock(0);
    t1.locks[0].have_token = true;
}

#[test]
fn grant_forwarding_chain_over_memsub() {
    let (mut t0, mut t1, mut s2) = chain();
    let granted = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&granted);
    t1.set_event_hook(move |e| {
        if let TmkEvent::LockGranted { lock, to } = *e {
            sink.borrow_mut().push((lock, to));
        }
    });
    seed_owner(&mut t0, &mut t1);
    // Node 2's acquire reaches the manager, which no longer holds the
    // token: it must forward to node 1, not answer.
    let rid2 = 77;
    t0.serve(2, &acquire_bytes(rid2), Ns(100));
    let fwd = t1.sub.next_incoming();
    assert_eq!(fwd.chan, Chan::Request);
    assert_eq!(fwd.from, 0);
    t1.serve(fwd.from, &fwd.data, fwd.arrival);
    // The owner's grant goes straight to node 2, correlated with node 2's
    // *original* rid — the forwarding hop is invisible to the requester.
    let msg = s2.next_incoming();
    assert_eq!(msg.chan, Chan::Response);
    assert_eq!(msg.from, 1);
    let (rid, resp) = Response::decode(&msg.data).unwrap();
    assert_eq!(rid, rid2);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
    assert_eq!(granted.borrow().as_slice(), &[(0u32, 2u16)]);
    assert!(!t1.locks[0].have_token, "token must migrate with the grant");
}

#[test]
fn retransmitted_acquire_replays_forward_and_grant() {
    let (mut t0, mut t1, mut s2) = chain();
    seed_owner(&mut t0, &mut t1);
    let rid2 = 9;
    let acq = acquire_bytes(rid2);
    t0.serve(2, &acq, Ns(100));
    let fwd1 = t1.sub.next_incoming();
    // Node 2 retransmits (its grant hasn't arrived): the manager must
    // re-forward the identical bytes, not re-run the handler — a re-run
    // would re-read the (now stale) owner hint.
    t0.serve(2, &acq, Ns(700));
    let fwd2 = t1.sub.next_incoming();
    assert_eq!(fwd1.data, fwd2.data, "replayed forward must be byte-identical");
    assert_eq!(t0.clock().borrow().stats.dup_requests_suppressed, 1);
    // The owner grants on the first copy and replays the recorded grant
    // on the duplicate, keyed on the *forward's* (manager, fwd_rid).
    t1.serve(fwd1.from, &fwd1.data, fwd1.arrival);
    t1.serve(fwd2.from, &fwd2.data, fwd2.arrival);
    assert_eq!(t1.clock().borrow().stats.dup_requests_suppressed, 1);
    let g1 = s2.next_incoming();
    let g2 = s2.next_incoming();
    assert_eq!(g1.data, g2.data, "replayed grant must be byte-identical");
    let (rid, resp) = Response::decode(&g1.data).unwrap();
    assert_eq!(rid, rid2);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
}

#[test]
fn queued_forward_grants_at_release_then_replays() {
    let (_t0, mut t1, mut s2) = chain();
    t1.ensure_lock(0);
    t1.locks[0].have_token = true;
    t1.locks[0].busy = true;
    let fwd = encode(
        Request::AcquireFwd {
            lock: 0,
            requester: 2,
            rid: 31,
            vc: VectorClock::new(3),
        },
        900,
    );
    // Owner is busy: the forward parks in the wait queue, Pending in the
    // replay cache.
    t1.serve(0, &fwd, Ns(10));
    assert_eq!(t1.locks[0].waiting.len(), 1);
    // A retransmitted forward meanwhile is swallowed, not double-queued.
    t1.serve(0, &fwd, Ns(600));
    assert_eq!(t1.locks[0].waiting.len(), 1);
    assert_eq!(t1.clock().borrow().stats.dup_requests_suppressed, 1);
    // Release hands the token over; the grant answers the requester's
    // original rid...
    t1.release(0);
    let g1 = s2.next_incoming();
    let (rid, resp) = Response::decode(&g1.data).unwrap();
    assert_eq!(rid, 31);
    assert!(matches!(resp, Response::Grant { lock: 0, .. }));
    assert!(!t1.locks[0].have_token, "token must migrate with the grant");
    // ...and upgrades the Pending entry in place, so a late duplicate of
    // the forward replays the grant instead of re-queueing.
    t1.serve(0, &fwd, Ns(2000));
    let g2 = s2.next_incoming();
    assert_eq!(g1.data, g2.data, "post-release duplicate must replay the grant");
    assert!(t1.locks[0].waiting.is_empty());
}
