//! Receive side of a node's NIC: demultiplexing and blocking waits.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use tm_sim::{Ns, Until, Wait, WakeReason};

use crate::fabric::Fabric;
use crate::packet::{NodeId, RawPacket};

/// Ports below this value belong to GM; at or above, to the sockets layer.
pub const SOCKET_PORT_BASE: u16 = 1024;

/// A node's handle on its NIC. Owned by the node thread.
///
/// Incoming packets land on one channel; the handle demultiplexes them into
/// per-port queues on demand. Blocking receives park on the lockstep
/// scheduler — if the protocol above deadlocks, the scheduler panics with
/// the parked-node set rather than producing wrong numbers.
pub struct NicHandle {
    node: NodeId,
    rx: Receiver<RawPacket>,
    fabric: Arc<Fabric>,
    /// Demux queues, keyed by dst_port. Sparse: allocated on first use.
    queues: Vec<(u16, VecDeque<RawPacket>)>,
}

impl NicHandle {
    pub(crate) fn new(node: NodeId, rx: Receiver<RawPacket>, fabric: Arc<Fabric>) -> Self {
        NicHandle {
            node,
            rx,
            fabric,
            queues: Vec::new(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Whether any of `nodes` still holds its NIC (see
    /// [`Fabric::any_alive`]). The RPC engine's give-up budget uses this.
    pub fn any_alive(&self, nodes: &[NodeId]) -> bool {
        self.fabric.any_alive(nodes)
    }

    /// Declare this node's substrate lookahead to the lockstep
    /// scheduler: a sound lower bound on the virtual time between the
    /// start of the node's preemptible window and its next packet
    /// reaching the wire. Transports call this once at construction.
    pub fn declare_lookahead(&self, la: Ns) {
        self.fabric.sched().declare_lookahead(self.node, la);
    }

    /// This node's current delivery count: the race-detection signature
    /// for [`NicHandle::poll_quiesce`]. Sample it *before* draining the
    /// channel, so a delivery that lands between the drain and the
    /// quiesce bounces the quiesce instead of being missed.
    pub fn delivery_signature(&self) -> u64 {
        self.fabric.sched().delivery_count(self.node)
    }

    /// Settlement of a non-blocking poll at virtual time `t`: returns
    /// `true` once the scheduler proves no packet with virtual arrival
    /// ≤ `t` can still be in flight (the poll's miss is then
    /// deterministic), or `false` if a delivery raced in first (the
    /// caller must re-drain and re-examine its queues). `seen` is the
    /// [`NicHandle::delivery_signature`] sampled before the caller's
    /// drain; `floor` as in [`NicHandle::recv`].
    pub fn poll_quiesce(&self, t: Ns, seen: u64, floor: Ns) -> bool {
        self.fabric.sched().poll_quiesce(self.node, t, seen, floor)
    }

    /// Settle a pick at virtual time `t`
    /// ([`LockstepSched::settle`](tm_sim::LockstepSched::settle)): returns
    /// `true` once every packet with arrival ≤ `t` has been pushed, or
    /// `false` if a delivery raced in first (the caller must re-drain and
    /// pick again). Unlike [`NicHandle::poll_quiesce`] it leaves the
    /// node's floor at `floor`. `seen` as for `poll_quiesce`.
    pub fn settle(&self, t: Ns, seen: u64, floor: Ns) -> bool {
        self.fabric.sched().settle(self.node, t, seen, floor)
    }

    /// Inject a packet from this node (sender side). Thin forwarding to
    /// [`Fabric::transmit`]; cost accounting is the caller's business.
    /// The sender's post-transmit lockstep floor defaults to the
    /// injection time — sound only for monotone injectors; transports
    /// with clock access use [`NicHandle::inject_floored`].
    pub fn inject(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
    ) -> Ns {
        self.fabric
            .transmit(self.node, dst, src_port, dst_port, payload, inject_time, directed)
    }

    /// [`NicHandle::inject`] with an explicit lockstep floor:
    /// `floor_after` bounds from below every packet this node may inject
    /// after this one (clock preemptible-window start + declared
    /// lookahead).
    #[allow(clippy::too_many_arguments)]
    pub fn inject_floored(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        directed: Option<(u32, u64)>,
        floor_after: Ns,
    ) -> Ns {
        self.fabric.transmit_floored(
            self.node,
            dst,
            src_port,
            dst_port,
            payload,
            inject_time,
            directed,
            false,
            floor_after,
        )
    }

    /// Inject a fault-injection loss tombstone: the packet occupies the
    /// wire and wakes the receiver at its virtual arrival, but is flagged
    /// `lost` so the receiver layer discards (and counts) it instead of
    /// delivering the payload.
    pub fn inject_lost(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
    ) -> Ns {
        self.inject_lost_floored(dst, src_port, dst_port, payload, inject_time, inject_time)
    }

    /// [`NicHandle::inject_lost`] with an explicit lockstep floor (see
    /// [`NicHandle::inject_floored`]). Fault paths that delay or
    /// duplicate packets must use this: a reordered packet's injection
    /// time is *not* a sound floor for the node's next send.
    pub fn inject_lost_floored(
        &self,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        payload: Bytes,
        inject_time: Ns,
        floor_after: Ns,
    ) -> Ns {
        self.fabric.transmit_floored(
            self.node,
            dst,
            src_port,
            dst_port,
            payload,
            inject_time,
            None,
            true,
            floor_after,
        )
    }

    fn queue_mut(&mut self, port: u16) -> &mut VecDeque<RawPacket> {
        if let Some(i) = self.queues.iter().position(|(p, _)| *p == port) {
            &mut self.queues[i].1
        } else {
            self.queues.push((port, VecDeque::new()));
            let last = self.queues.len() - 1;
            &mut self.queues[last].1
        }
    }

    fn stash(&mut self, pkt: RawPacket) {
        let port = pkt.dst_port;
        self.queue_mut(port).push_back(pkt);
    }

    /// Drain everything currently sitting in the channel into the demux
    /// queues (non-blocking).
    pub fn drain(&mut self) {
        while let Ok(pkt) = self.rx.try_recv() {
            self.stash(pkt);
        }
    }

    /// Non-blocking poll of one port.
    pub fn poll_port(&mut self, port: u16) -> Option<RawPacket> {
        self.drain();
        self.queue_mut(port).pop_front()
    }

    /// Peek the earliest-queued packet on a port without consuming it.
    pub fn peek_port(&mut self, port: u16) -> Option<&RawPacket> {
        self.drain();
        // Split lookup to satisfy borrowck: position first, then index.
        let i = self.queues.iter().position(|(p, _)| *p == port)?;
        self.queues[i].1.front()
    }

    /// Number of packets queued for a port.
    pub fn queued(&mut self, port: u16) -> usize {
        self.drain();
        self.queues
            .iter()
            .find(|(p, _)| *p == port)
            .map_or(0, |(_, q)| q.len())
    }

    /// Index of the demux queue whose front packet has the smallest
    /// arrival time among `ports` — virtual-time fairness between ports.
    /// Callers drain first.
    fn best_queued_idx(&self, ports: &[u16]) -> Option<usize> {
        let mut best: Option<(usize, Ns)> = None;
        for (i, (p, q)) in self.queues.iter().enumerate() {
            if ports.contains(p) {
                if let Some(front) = q.front() {
                    if best.is_none_or(|(_, a)| front.arrival < a) {
                        best = Some((i, front.arrival));
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The earliest-arriving packet queued on `ports`, popped if it
    /// arrives by `until`'s deadline: `Got` it, `Timeout` when it lands
    /// after the deadline (it stays queued), `None` when nothing is queued.
    fn pop_by(&mut self, ports: &[u16], until: Until) -> Option<Wait<RawPacket>> {
        self.drain();
        let i = self.best_queued_idx(ports)?;
        let q = &mut self.queues[i].1;
        Some(if until.admits(q.front().expect("non-empty").arrival) {
            Wait::Got(q.pop_front().expect("non-empty"))
        } else {
            Wait::Timeout
        })
    }

    /// Block until a packet is queued on any of `ports`, `until`'s
    /// deadline becomes the cluster's next event, or every node in its
    /// watch set has deregistered its NIC (dropped its handle) —
    /// whichever the lockstep scheduler orders first. The earliest
    /// arrival across `ports` is returned; one with arrival after the
    /// deadline means [`Wait::Timeout`] and stays queued. After a
    /// peers-done wake one last drain runs, and any packet it finds wins
    /// whatever its arrival: the departed peers' final transmits were
    /// granted before their drops. No wall clock is consulted, and a
    /// cluster deadlock panics in the scheduler with the parked-node set.
    ///
    /// `floor` is a sound lower bound on any packet this node may inject
    /// after waking (clock preemptible-window start + declared
    /// lookahead). `Ns::ZERO` is always safe: the woken node then blocks
    /// all grants until its next scheduler interaction.
    pub fn recv(&mut self, ports: &[u16], until: Until, floor: Ns) -> Wait<RawPacket> {
        let sched = Arc::clone(self.fabric.sched());
        loop {
            // Capture the delivery signature *before* draining: if a
            // delivery lands between our drain and our park, the
            // signature mismatch makes the park bounce back immediately
            // instead of sleeping through the wakeup.
            let sig = sched.delivery_count(self.node);
            // A queued packet past the deadline means the timeout fires
            // first, deterministically.
            if let Some(w) = self.pop_by(ports, until) {
                return w;
            }
            match sched.park(self.node, sig, until, floor) {
                WakeReason::Delivered => {}
                WakeReason::Timeout => return self.pop_by(ports, until).unwrap_or(Wait::Timeout),
                WakeReason::PeersDone => {
                    return self
                        .pop_by(ports, Until::FOREVER)
                        .unwrap_or(Wait::PeersDone);
                }
            }
        }
    }
}

impl Drop for NicHandle {
    fn drop(&mut self) {
        self.fabric.mark_dead(self.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::SimParams;

    fn pair() -> (Arc<Fabric>, Vec<NicHandle>) {
        Fabric::new_driven(2, Arc::new(SimParams::paper_testbed()))
    }

    fn recv_forever(nic: &mut NicHandle, ports: &[u16]) -> RawPacket {
        nic.recv(ports, Until::FOREVER, Ns::ZERO)
            .got()
            .expect("a packet")
    }

    #[test]
    fn poll_port_demuxes() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 9, 5, Bytes::from_static(b"a"), Ns(0), None);
        f.transmit(0, 1, 9, 6, Bytes::from_static(b"b"), Ns(0), None);
        // Give the channel a moment: sends are synchronous in-process, so
        // they're already there.
        let n1 = &mut nics[1];
        let on5 = n1.poll_port(5).expect("packet on port 5");
        assert_eq!(&on5.payload[..], b"a");
        assert!(n1.poll_port(5).is_none());
        let on6 = n1.poll_port(6).expect("packet on port 6");
        assert_eq!(&on6.payload[..], b"b");
    }

    #[test]
    fn recv_any_picks_earliest_arrival() {
        let (f, mut nics) = pair();
        // Loopback packet lands at 10ms on port 5; a wire packet from node
        // 0 lands microseconds in on port 6. Although the late one is
        // queued first, selection must follow virtual arrival time.
        f.transmit(1, 1, 0, 5, Bytes::from_static(b"late"), Ns::from_ms(10), None);
        f.transmit(0, 1, 0, 6, Bytes::from_static(b"early"), Ns(0), None);
        let got = recv_forever(&mut nics[1], &[5, 6]);
        assert_eq!(&got.payload[..], b"early");
    }

    #[test]
    fn recv_any_ignores_other_ports() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 7, Bytes::from_static(b"other"), Ns(0), None);
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"mine"), Ns(0), None);
        let got = recv_forever(&mut nics[1], &[5]);
        assert_eq!(&got.payload[..], b"mine");
        // The port-7 packet is still queued.
        assert_eq!(nics[1].queued(7), 1);
    }

    #[test]
    fn blocking_recv_waits_for_sender_thread() {
        use std::thread;
        let (f, mut nics) = pair();
        let mut n1 = nics.remove(1);
        let t = thread::spawn(move || recv_forever(&mut n1, &[3]).payload);
        thread::sleep(std::time::Duration::from_millis(20));
        f.transmit(0, 1, 0, 3, Bytes::from_static(b"wake"), Ns(0), None);
        assert_eq!(&t.join().unwrap()[..], b"wake");
    }

    /// A packet arriving at or before the deadline beats it, the tie
    /// included; an empty inbox on a driven fabric then times out at once.
    #[test]
    fn recv_returns_packet_by_deadline() {
        let (f, mut nics) = pair();
        let arrival = f.transmit(0, 1, 0, 5, Bytes::from_static(b"x"), Ns(0), None);
        let got = nics[1].recv(&[5], Until::deadline(arrival), Ns::ZERO);
        assert_eq!(
            &got.got().expect("packet at the deadline").payload[..],
            b"x"
        );
        let again = nics[1].recv(&[5], Until::deadline(arrival), Ns::ZERO);
        assert!(matches!(again, Wait::Timeout));
    }

    /// A packet queued but arriving after the deadline means `Timeout`,
    /// and it stays queued for the next receive.
    #[test]
    fn recv_times_out_before_late_packet() {
        let (f, mut nics) = pair();
        let arrival = f.transmit(0, 1, 0, 5, Bytes::from_static(b"late"), Ns(0), None);
        let got = nics[1].recv(&[5], Until::deadline(arrival - Ns(1)), Ns::ZERO);
        assert!(matches!(got, Wait::Timeout));
        assert_eq!(nics[1].queued(5), 1);
        assert_eq!(&recv_forever(&mut nics[1], &[5]).payload[..], b"late");
    }

    /// A watched peer that sends and then drops its handle: its last
    /// packet is handed over first, and only then does the wait report
    /// `PeersDone` — even with a deadline the packet would miss.
    #[test]
    fn recv_hands_over_departed_peer_packet_before_peers_done() {
        let (f, mut nics) = pair();
        let arrival = f.transmit(0, 1, 0, 5, Bytes::from_static(b"bye"), Ns(0), None);
        drop(nics.remove(0));
        let n1 = &mut nics[0];
        let watching = Until {
            deadline: None,
            watch: Some(&[0]),
        };
        let got = n1.recv(&[5], watching, Ns::ZERO);
        assert_eq!(
            &got.got().expect("the peer's last packet").payload[..],
            b"bye"
        );
        assert!(matches!(n1.recv(&[5], watching, Ns::ZERO), Wait::PeersDone));
        let with_deadline = Until {
            deadline: Some(arrival),
            ..watching
        };
        assert!(matches!(
            n1.recv(&[5], with_deadline, Ns::ZERO),
            Wait::PeersDone
        ));
    }

    #[test]
    fn peek_does_not_consume() {
        let (f, mut nics) = pair();
        f.transmit(0, 1, 0, 5, Bytes::from_static(b"x"), Ns(0), None);
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].peek_port(5).is_some());
        assert!(nics[1].poll_port(5).is_some());
        assert!(nics[1].peek_port(5).is_none());
    }
}
