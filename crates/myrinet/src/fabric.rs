//! The switch fabric: per-link serialization and cut-through forwarding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use tm_sim::{LockstepSched, Ns, SimParams};

use crate::nic::NicHandle;
use crate::packet::{NodeId, RawPacket, FRAME_OVERHEAD};

/// One node's full-duplex link state: the virtual time at which each
/// direction is next free.
///
/// Each link has one writer at a time, so a reservation is a plain load
/// and store. `tx_free` is only ever advanced by the owning node (a node
/// has at most one transmit in flight). `rx_free` has many potential
/// writers, but the lockstep scheduler's per-receiver token makes the
/// current grant holder the unique one, and same-link grants are issued
/// in virtual-key order — concurrent reservations on *distinct* rx links
/// touch disjoint atomics and cannot perturb each other's occupancy
/// sequence.
struct LinkState {
    tx_free: AtomicU64,
    rx_free: AtomicU64,
}

/// The cluster interconnect. Shared (`Arc`) by every node thread.
pub struct Fabric {
    params: Arc<SimParams>,
    links: Vec<LinkState>,
    inboxes: Vec<Sender<RawPacket>>,
    /// Which nodes still hold their NIC (cleared by `NicHandle::drop`).
    /// The RPC engine reads this to stop retransmitting to a peer that
    /// has left the fabric.
    alive: Vec<AtomicBool>,
    /// Extra switch traversals beyond the first (multi-stage fabrics for
    /// >16 nodes; the paper's 16-node testbed used a single crossbar).
    extra_hops: u32,
    /// The conservative lockstep scheduler. Every transmit goes through
    /// a two-phase request/grant keyed on virtual injection time; each rx
    /// link's reservation runs under its per-receiver token (see
    /// [`LinkState`]).
    sched: Arc<LockstepSched>,
    /// Sends that found the destination's inbox already closed: the
    /// receiver dropped its NIC while the packet was in flight. Always
    /// tolerated (a powered-off host simply eats late wire traffic) and
    /// counted here so tests can assert on clean runs.
    shutdown_races: AtomicU64,
}

impl Fabric {
    /// Build a fabric for `n` nodes; returns the shared fabric plus one
    /// [`NicHandle`] per node (to be moved into that node's thread).
    pub fn new(n: usize, params: Arc<SimParams>) -> (Arc<Fabric>, Vec<NicHandle>) {
        let sched = LockstepSched::new_with_tokens(n, params.tokens);
        Fabric::build(n, params, sched)
    }

    /// A fabric whose nodes are all *driven*: one thread plays every node
    /// in turn, so transmits grant in call order and a deadline wait on
    /// an empty inbox times out at once (see [`tm_sim::sched`]). Unit
    /// tests and single-threaded microbenchmarks use this.
    pub fn new_driven(n: usize, params: Arc<SimParams>) -> (Arc<Fabric>, Vec<NicHandle>) {
        let sched = LockstepSched::new_driven(n, params.tokens);
        Fabric::build(n, params, sched)
    }

    fn build(
        n: usize,
        params: Arc<SimParams>,
        sched: LockstepSched,
    ) -> (Arc<Fabric>, Vec<NicHandle>) {
        assert!(n >= 1);
        let mut inboxes = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<RawPacket>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            inboxes.push(tx);
            receivers.push(rx);
        }
        let links = (0..n)
            .map(|_| LinkState {
                tx_free: AtomicU64::new(0),
                rx_free: AtomicU64::new(0),
            })
            .collect();
        // A 16-port crossbar covers 16 nodes in one hop. Larger clusters
        // are a folded Clos of 16-port crossbars: a path crosses up the
        // leaf stages to a spine and back down, so each additional level
        // adds *two* traversals (17–256 nodes is leaf–spine–leaf: 2 extra).
        let mut levels = 1u32;
        let mut capacity = 16usize;
        while capacity < n {
            capacity *= 16;
            levels += 1;
        }
        let extra_hops = 2 * (levels - 1);
        let alive = (0..n).map(|_| AtomicBool::new(true)).collect();
        let fabric = Arc::new(Fabric {
            params,
            links,
            inboxes,
            alive,
            extra_hops,
            sched: Arc::new(sched),
            shutdown_races: AtomicU64::new(0),
        });
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| NicHandle::new(id, rx, Arc::clone(&fabric)))
            .collect();
        (fabric, handles)
    }

    pub fn nprocs(&self) -> usize {
        self.links.len()
    }

    /// Mark a node's NIC as gone (called from `NicHandle::drop`).
    pub(crate) fn mark_dead(&self, node: NodeId) {
        self.alive[node].store(false, Ordering::Release);
        self.sched.mark_done(node);
    }

    /// The cluster's lockstep scheduler.
    pub fn sched(&self) -> &Arc<LockstepSched> {
        &self.sched
    }

    /// How many in-flight packets hit an already-departed node's inbox.
    pub fn shutdown_races(&self) -> u64 {
        self.shutdown_races.load(Ordering::Relaxed)
    }

    /// Whether any of `nodes` still holds its NIC. Tree-barrier shutdown
    /// lingers watch only their own subtree through this.
    pub fn any_alive(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().any(|&i| self.alive[i].load(Ordering::Acquire))
    }

    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Reserve `dur` of occupancy on a link, starting no earlier than
    /// `earliest`. Returns the actual start time. The caller is the
    /// link's only writer (see [`LinkState`]).
    fn reserve(slot: &AtomicU64, earliest: Ns, dur: Ns) -> Ns {
        let start = slot.load(Ordering::Acquire).max(earliest.0);
        slot.store(start + dur.0, Ordering::Release);
        Ns(start)
    }

    /// Inject a packet. `inject_time` is the virtual time at which the
    /// sending NIC starts driving the wire (the sender layer has already
    /// charged host + NIC-tx costs). Returns the packet's arrival time at
    /// the receiver (wire + switch + NIC-rx included).
    ///
    /// Loopback (`src == dst`) skips the wire but still pays NIC
    /// processing, as GM does.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit(
        &self,
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
    ) -> Ns {
        self.transmit_flagged(src, dst, src_port, dst_port, payload, inject_time, directed, false)
    }

    /// [`Fabric::transmit`] with an explicit loss tombstone flag. A lost
    /// packet occupies the wire like a real one (the bytes were sent; the
    /// drop happens in flight) and still lands in the receiver's inbox so
    /// the receiving thread wakes at its virtual arrival, but carries
    /// `lost = true` so no payload is delivered.
    ///
    /// The sender's lockstep floor after the transmit defaults to
    /// `inject_time`, which is sound only for
    /// callers whose successive injections are monotone (true for every
    /// in-tree transport's plain-send path). Fault paths that delay
    /// packets must use [`Fabric::transmit_floored`] with a clock-derived
    /// floor instead.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_flagged(
        &self,
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
        lost: bool,
    ) -> Ns {
        self.transmit_floored(
            src, dst, src_port, dst_port, payload, inject_time, directed, lost, inject_time,
        )
    }

    /// The full transmit entry point: [`Fabric::transmit_flagged`] plus an
    /// explicit lockstep floor. `floor_after` is a sound lower bound on
    /// the virtual time of *any* packet `src` may inject after this one —
    /// transports compute it as their clock's preemptible-window start
    /// plus their declared lookahead.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_floored(
        &self,
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
        lost: bool,
        floor_after: Ns,
    ) -> Ns {
        assert!(src < self.nprocs() && dst < self.nprocs(), "bad node id");
        let net = &self.params.net;
        let wire = Ns::for_bytes(payload.len() + FRAME_OVERHEAD, net.link_mb_s);
        if src == dst {
            // Loopback skips the wire *and* the scheduler: it never
            // leaves the node, so it is same-thread program order.
            let arrival = inject_time + net.nic_rx;
            self.push(src, dst, src_port, dst_port, payload, arrival, directed, lost);
            return arrival;
        }
        // Two-phase request/grant: announce the destination and block
        // until the scheduler grants this injection's (time, node, seq)
        // key. While granted we hold `dst`'s rx-link reservation token.
        // Grants to *distinct* receivers may run this section
        // concurrently (per-receiver tokens), which stays deterministic
        // because every link below has a single writer at any instant:
        // `links[src].tx_free` is only ever written by this node (one
        // transmit per node at a time), and `links[dst].rx_free` only by
        // the unique holder of `dst`'s token — same-receiver grants are
        // serialized in virtual-key order, so each rx link's occupancy
        // sequence is the one the fully serial schedule produces.
        self.sched.request_transmit(src, dst, inject_time, floor_after);
        // Occupy our tx link.
        let tx_start = Self::reserve(&self.links[src].tx_free, inject_time, wire);
        // Head reaches the switch; cut-through forwards it as soon as
        // the receiver's link is free.
        let hops = Ns(net.switch_latency.0 * (1 + self.extra_hops as u64));
        let at_switch = tx_start + hops;
        let rx_start = Self::reserve(&self.links[dst].rx_free, at_switch, wire);
        let arrival = rx_start + wire + net.nic_rx;
        let delivered =
            self.push(src, dst, src_port, dst_port, payload, arrival, directed, lost);
        // Release `dst`'s rx-link token; credit the delivery (waking
        // `dst` if parked) only if the packet actually landed.
        self.sched.finish_transmit(src, if delivered { dst } else { src }, arrival);
        arrival
    }

    /// Enqueue a packet into `dst`'s inbox; returns whether it landed.
    /// The channel send can only fail if the receiver node already
    /// finished — legitimate late wire traffic racing the destination's
    /// shutdown (a retransmission, a replayed response, a barrier
    /// arrival to a departed manager). A powered-off host eats such
    /// packets; we count them instead of treating them as errors.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        arrival: Ns,
        directed: Option<(u32, u64)>,
        lost: bool,
    ) -> bool {
        let pkt = RawPacket {
            src,
            src_port,
            dst_port,
            payload,
            arrival,
            directed,
            lost,
        };
        if self.inboxes[dst].send(pkt).is_err() {
            self.shutdown_races.fetch_add(1, Ordering::Relaxed);
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::Until;

    fn recv_forever(nic: &mut NicHandle, port: u16) -> RawPacket {
        nic.recv(&[port], Until::FOREVER, Ns::ZERO)
            .got()
            .expect("a packet")
    }

    fn fabric(n: usize) -> (Arc<Fabric>, Vec<NicHandle>) {
        Fabric::new_driven(n, Arc::new(SimParams::paper_testbed()))
    }

    #[test]
    fn transmit_delivers_to_inbox() {
        let (f, mut nics) = fabric(2);
        let arr = f.transmit(0, 1, 2, 3, Bytes::from_static(b"hi"), Ns(0), None);
        let pkt = recv_forever(&mut nics[1], 3);
        assert_eq!(pkt.src, 0);
        assert_eq!(pkt.src_port, 2);
        assert_eq!(pkt.dst_port, 3);
        assert_eq!(pkt.arrival, arr);
        assert!(arr > Ns(0));
    }

    #[test]
    fn larger_packets_take_longer() {
        let (f, _nics) = fabric(2);
        let a1 = f.transmit(0, 1, 0, 0, Bytes::from(vec![0u8; 10]), Ns(0), None);
        // Same link now busy, so measure from a later, free time.
        let t = Ns::from_ms(1);
        let a2 = f.transmit(0, 1, 0, 0, Bytes::from(vec![0u8; 100_000]), t, None);
        assert!(a2 - t > a1, "100KB should take longer than 10B");
    }

    /// The occupancy rule: a reservation starts no earlier than the
    /// link's previous one ends.
    #[test]
    fn link_contention_serializes() {
        let (f, _nics) = fabric(3);
        let big = 1_000_000usize;
        let wire = Ns::for_bytes(big + FRAME_OVERHEAD, f.params().net.link_mb_s);
        // Two senders target node 2 at the same instant: the second
        // transfer must queue behind the first on node 2's rx link.
        let a1 = f.transmit(0, 2, 0, 0, Bytes::from(vec![0u8; big]), Ns(0), None);
        let a2 = f.transmit(1, 2, 0, 0, Bytes::from(vec![0u8; big]), Ns(0), None);
        assert!(a2 >= a1 + wire - Ns(1000), "a1={a1:?} a2={a2:?} wire={wire:?}");
    }

    #[test]
    fn loopback_skips_wire() {
        let (f, mut nics) = fabric(2);
        let arr = f.transmit(0, 0, 1, 1, Bytes::from_static(b"self"), Ns(100), None);
        assert_eq!(arr, Ns(100) + f.params().net.nic_rx);
        let pkt = recv_forever(&mut nics[0], 1);
        assert_eq!(pkt.src, 0);
    }

    #[test]
    fn extra_hops_for_big_clusters() {
        // ≤16 nodes: one crossbar, no extra traversals. 17–256 nodes: a
        // folded Clos of 16-port crossbars is leaf–spine–leaf, so a path
        // crosses two switches beyond the first. 257–4096: three extra
        // levels up and down = 4.
        let (f16, _) = fabric(16);
        let (f17, _) = fabric(17);
        let (f64n, _) = fabric(64);
        let (f256, _) = fabric(256);
        let (f257, _) = fabric(257);
        assert_eq!(f16.extra_hops, 0);
        assert_eq!(f17.extra_hops, 2);
        assert_eq!(f64n.extra_hops, 2);
        assert_eq!(f256.extra_hops, 2);
        assert_eq!(f257.extra_hops, 4);
    }

    #[test]
    fn live_count_tracks_mark_dead() {
        let (f, nics) = fabric(4);
        // Keep the NICs alive for the duration of the test; their Drop
        // would otherwise call mark_dead underneath us.
        assert!(f.any_alive(&[1, 2, 3]));
        f.mark_dead(1);
        f.mark_dead(2);
        assert!(f.any_alive(&[1, 2, 3]), "node 3 still up");
        assert!(f.any_alive(&[3]));
        assert!(!f.any_alive(&[1, 2]));
        f.mark_dead(3);
        assert!(!f.any_alive(&[1, 2, 3]), "only we remain");
        assert!(f.any_alive(&[0]), "we are still alive");
        drop(nics);
    }

    #[test]
    #[should_panic(expected = "bad node id")]
    fn bad_destination_panics() {
        let (f, _nics) = fabric(2);
        f.transmit(0, 5, 0, 0, Bytes::new(), Ns(0), None);
    }

    #[test]
    fn shutdown_race_is_counted_not_fatal() {
        let (f, mut nics) = fabric(2);
        assert_eq!(f.shutdown_races(), 0);
        // Node 1 departs; a late in-flight packet must evaporate (be
        // counted), not panic — even with no fault plan active.
        drop(nics.remove(1));
        f.transmit(0, 1, 0, 0, Bytes::from_static(b"late"), Ns(0), None);
        assert_eq!(f.shutdown_races(), 1);
    }

    /// Two senders contend for one rx link with adversarial wall-clock
    /// staggering: under lockstep the grant (and therefore the rx-link
    /// queueing order and every arrival time) must follow virtual keys,
    /// identically on every run.
    #[test]
    fn lockstep_serializes_rx_contention_by_virtual_key() {
        use std::thread;
        let run = |stagger_ms: u64| -> Vec<(NodeId, Ns)> {
            let params = Arc::new(SimParams::paper_testbed());
            let (_f, mut nics) = Fabric::new(3, params);
            let mut receiver = nics.remove(2);
            let mut senders = vec![];
            for (nic, inject, delay_ms) in [
                (nics.remove(1), Ns(1_000), 0u64),
                (nics.remove(0), Ns(2_000), stagger_ms),
            ] {
                senders.push(thread::spawn(move || {
                    thread::sleep(std::time::Duration::from_millis(delay_ms));
                    nic.inject(2, 0, 0, Bytes::from(vec![0u8; 10_000]), inject, None);
                }));
            }
            let recv_thread = thread::spawn(move || {
                let a = recv_forever(&mut receiver, 0);
                let b = recv_forever(&mut receiver, 0);
                vec![(a.src, a.arrival), (b.src, b.arrival)]
            });
            for s in senders {
                s.join().unwrap();
            }
            recv_thread.join().unwrap()
        };
        let fast = run(0);
        let slow = run(30);
        assert_eq!(fast, slow, "arrival schedule must not depend on wall clock");
        assert_eq!(fast[0].0, 1, "virtual key 1000 (node 1) must win the rx link");
    }
}
