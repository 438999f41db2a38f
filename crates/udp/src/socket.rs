//! The kernel UDP/IP socket model.
//!
//! Fault injection lives at this layer for the UDP path: every datagram
//! passes through `UdpStack::push_wire`, where the seeded per-node
//! fault stream decides drop / duplicate / reorder / corrupt. Losses are
//! injected as *tombstones* — `RawPacket { lost: true }` still traverses
//! the fabric so the receiving thread wakes at the datagram's virtual
//! arrival time. That keeps loss observable in virtual time (no
//! wall-clock timeout guessing), which is what makes retransmission
//! counts exactly reproducible.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tm_myrinet::{NicHandle, NodeId, RawPacket};
use tm_sim::faults::checksum32;
use tm_sim::{Ns, SharedClock, SimParams, Until, Wait};

/// Sockets live above the GM port namespace on the shared fabric.
pub const SOCKET_PORT_BASE: u16 = 1024;

/// Default socket receive-buffer capacity in datagrams (SO_RCVBUF-ish).
const SOCKBUF_DATAGRAMS: usize = 256;

/// Salt for the UDP datagram fault stream (see `FaultPlan::stream_seed`).
const FAULT_SALT_UDP: u64 = 0x0d47;

/// A datagram sitting in a socket's receive buffer.
#[derive(Debug, Clone)]
pub struct Datagram {
    pub src: NodeId,
    pub src_port: u16,
    pub data: Bytes,
    /// Virtual time at which the datagram is in the socket buffer:
    /// NIC arrival + receive interrupt + protocol processing + the copy
    /// into the socket buffer.
    pub ready: Ns,
    /// Loss tombstone: the datagram was dropped in flight (or rejected by
    /// the wire checksum). It carries no deliverable payload — receivers
    /// use it purely as a virtual-time wake signal. Zero-fault runs never
    /// see one.
    pub lost: bool,
}

struct SocketState {
    port: u16,
    queue: VecDeque<Datagram>,
    /// O_ASYNC: SIGIO on arrival. The signal's cost is charged by the
    /// substrate's async scheme at service time.
    pub sigio: bool,
}

/// One node's kernel socket layer. Owned by the node thread.
pub struct UdpStack {
    nic: NicHandle,
    clock: SharedClock,
    params: Arc<SimParams>,
    sockets: Vec<SocketState>,
    /// Fault-plan stream; `Some` only when the plan injects datagram
    /// faults, so zero-fault runs draw nothing and stay bit-identical.
    fault_rng: Option<SmallRng>,
    /// Receive-buffer depth (the fault plan can shrink it to force
    /// overflow pressure).
    sockbuf: usize,
    /// Datagrams dropped (fault-plan drops + buffer overflow).
    pub drops: u64,
    /// Lockstep lookahead: minimum modeled cost between the start of this
    /// node's preemptible window and its next packet reaching the wire.
    /// For the kernel path that is the NIC tx engine plus the smaller of
    /// (a) the sendto floor (`syscall + tx_proto`) and (b) the handler
    /// floor (`handler_dispatch`, charged before any `sendto_at`
    /// response, which is always emitted immediately after the service
    /// window that prices it).
    la: Ns,
}

impl UdpStack {
    pub fn new(nic: NicHandle, clock: SharedClock, params: Arc<SimParams>) -> Self {
        let f = &params.faults;
        let fault_rng = if f.drop_probability > 0.0
            || f.duplicate_probability > 0.0
            || f.reorder_probability > 0.0
            || f.corrupt_probability > 0.0
        {
            Some(SmallRng::seed_from_u64(
                f.stream_seed(nic.node(), FAULT_SALT_UDP),
            ))
        } else {
            None
        };
        let sockbuf = if f.recvbuf_datagrams > 0 {
            f.recvbuf_datagrams
        } else {
            SOCKBUF_DATAGRAMS
        };
        let la = params.net.nic_tx
            + params
                .dsm
                .handler_dispatch
                .min(params.host.syscall + params.udp.tx_proto);
        nic.declare_lookahead(la);
        UdpStack {
            nic,
            clock,
            params,
            sockets: Vec::new(),
            fault_rng,
            sockbuf,
            drops: 0,
            la,
        }
    }

    /// Current lockstep floor: a sound lower bound on the injection time
    /// of any future datagram from this node (see [`tm_sim::sched`]).
    fn sched_floor(&self) -> Ns {
        self.clock.borrow().preemptible_since() + self.la
    }

    /// The lookahead declared to the lockstep scheduler at construction.
    pub fn lookahead(&self) -> Ns {
        self.la
    }

    pub fn node(&self) -> NodeId {
        self.nic.node()
    }

    pub fn nprocs(&self) -> usize {
        self.nic.fabric().nprocs()
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    pub fn params(&self) -> &Arc<SimParams> {
        &self.params
    }

    /// Whether any of `nodes` still has its NIC registered — the RPC
    /// engine stops retransmitting to a peer that has left.
    pub fn peers_alive_in(&self, nodes: &[usize]) -> bool {
        self.nic.any_alive(nodes)
    }

    /// `socket() + bind()`: claim a local port. `sigio` models O_ASYNC.
    pub fn bind(&mut self, port: u16, sigio: bool) {
        assert!(
            !self.sockets.iter().any(|s| s.port == port),
            "port {port} already bound"
        );
        // Two syscalls: socket(), bind().
        let syscall = self.params.host.syscall;
        self.clock.borrow_mut().advance(syscall * 2);
        self.sockets.push(SocketState {
            port,
            queue: VecDeque::new(),
            sigio,
        });
    }

    fn fragments(&self, len: usize) -> u64 {
        tmk::framing::fragment_count(len, self.params.udp.mtu) as u64
    }

    /// `sendto()`: copy into the kernel, fragment, and inject. Returns
    /// `false` if the datagram was dropped at this layer — real UDP gives
    /// the sender no such signal, but the sim's requester uses it as the
    /// deterministic stand-in for "my request evaporated" (the loss event
    /// and its timing are fully decided sender-side either way).
    pub fn sendto(&mut self, dst: NodeId, dst_port: u16, src_port: u16, data: &[u8]) -> bool {
        let cost = self.tx_cost(data.len());
        self.clock.borrow_mut().advance(cost);
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        // The kernel path still crosses the NIC.
        let inject = self.clock.borrow().now() + self.params.net.nic_tx;
        self.push_wire(dst, dst_port, src_port, data, inject)
    }

    /// Like [`sendto`](UdpStack::sendto) but injects at virtual time `at`
    /// without charging the clock — for responses emitted from signal
    /// handlers whose kernel work was already accounted by the caller
    /// (fold [`UdpStack::tx_cost`] into the handler's service time).
    pub fn sendto_at(
        &mut self,
        dst: NodeId,
        dst_port: u16,
        src_port: u16,
        data: &[u8],
        at: Ns,
    ) -> bool {
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        let inject = at + self.params.net.nic_tx;
        self.push_wire(dst, dst_port, src_port, data, inject)
    }

    /// Put one datagram on the wire, applying the fault plan. Returns `false` when the datagram was dropped.
    fn push_wire(
        &mut self,
        dst: NodeId,
        dst_port: u16,
        src_port: u16,
        data: &[u8],
        inject: Ns,
    ) -> bool {
        let sp = SOCKET_PORT_BASE + src_port;
        let dp = SOCKET_PORT_BASE + dst_port;
        if self.fault_rng.is_none() {
            // Clean fast path: bit-identical to the pre-fault stack.
            let floor = self.sched_floor();
            self.nic.inject_floored(
                dst,
                sp,
                dp,
                Bytes::copy_from_slice(data),
                inject,
                None,
                floor,
            );
            return true;
        }
        let f = self.params.faults.clone();
        // Wire image; corruption detection adds the checksum trailer.
        let mut buf = Vec::with_capacity(data.len() + 4);
        buf.extend_from_slice(data);
        if f.checksum_frames() {
            buf.extend_from_slice(&checksum32(data).to_le_bytes());
        }
        // Loss leaves a tombstone so the receiver still wakes at the
        // would-be arrival.
        let dropped = f.drop_probability > 0.0 && {
            let r = self.fault_rng.as_mut().expect("fault rng");
            r.random::<f64>() < f.drop_probability
        };
        if dropped {
            self.drops += 1;
            self.clock.borrow_mut().stats.dgrams_dropped += 1;
            let floor = self.sched_floor();
            self.nic
                .inject_lost_floored(dst, sp, dp, Bytes::from(buf), inject, floor);
            return false;
        }
        if f.corrupt_probability > 0.0 {
            let r = self.fault_rng.as_mut().expect("fault rng");
            if r.random::<f64>() < f.corrupt_probability {
                let i = (r.random::<u64>() as usize) % buf.len();
                buf[i] ^= 0x20;
                self.clock.borrow_mut().stats.dgrams_corrupted += 1;
            }
        }
        let mut at = inject;
        if f.reorder_probability > 0.0 {
            let r = self.fault_rng.as_mut().expect("fault rng");
            if r.random::<f64>() < f.reorder_probability {
                at += f.reorder_delay;
                self.clock.borrow_mut().stats.dgrams_reordered += 1;
            }
        }
        let mut duplicate = false;
        if f.duplicate_probability > 0.0 {
            let r = self.fault_rng.as_mut().expect("fault rng");
            duplicate = r.random::<f64>() < f.duplicate_probability;
        }
        let payload = Bytes::from(buf);
        let floor = self.sched_floor();
        // When a duplicate follows, this node's very next injection is at
        // `at + 1ns` — the floor after the main copy must not promise
        // anything later than that.
        let main_floor = if duplicate {
            (at + Ns(1)).min(floor)
        } else {
            floor
        };
        self.nic
            .inject_floored(dst, sp, dp, payload.clone(), at, None, main_floor);
        if duplicate {
            self.clock.borrow_mut().stats.dgrams_duplicated += 1;
            self.nic
                .inject_floored(dst, sp, dp, payload, at + Ns(1), None, floor);
        }
        true
    }

    /// Host-side transmit cost of a datagram of `len` bytes (what
    /// [`sendto`](UdpStack::sendto) charges).
    pub fn tx_cost(&self, len: usize) -> Ns {
        let p = &self.params;
        let frags = self.fragments(len);
        p.host.syscall
            + p.udp.tx_proto
            + Ns::for_bytes(len, p.host.memcpy_mb_s)
            + Ns(p.udp.per_fragment.0 * (frags - 1))
    }

    /// Kernel cost between NIC arrival and the datagram becoming visible
    /// (the first receive interrupt fires regardless of what the CPU is
    /// doing).
    fn rx_kernel_cost(&self, _len: usize) -> Ns {
        self.params.udp.rx_interrupt
    }

    /// Kernel work consumed *serially on the CPU* to deliver one datagram:
    /// protocol processing, the per-fragment interrupts and bookkeeping
    /// beyond the first, the copy into the socket buffer and the copy out
    /// to user space. This is what caps sockets-over-GM streaming
    /// bandwidth well below the wire.
    fn rx_consume_cost(&self, len: usize) -> Ns {
        let p = &self.params;
        let frags = self.fragments(len);
        p.udp.rx_proto
            + Ns((p.udp.per_fragment.0 + p.udp.rx_interrupt.0) * (frags - 1))
            + Ns::for_bytes(len, p.host.memcpy_mb_s) * 2
    }

    /// Admit one NIC packet into its socket buffer: checksum verification,
    /// overflow pressure, tombstone passthrough. The single admission
    /// point for both the polled drain and the blocking park path.
    fn admit(&mut self, pkt: RawPacket) {
        let port = pkt.dst_port - SOCKET_PORT_BASE;
        if !self.sockets.iter().any(|s| s.port == port) {
            // No such socket: the kernel discards (ICMP unreachable elided).
            return;
        }
        let mut data = pkt.payload;
        let mut lost = pkt.lost;
        if self.params.faults.checksum_frames() && !lost {
            // Verify and strip the 4-byte trailer appended by push_wire.
            if data.len() < 4 {
                self.clock.borrow_mut().stats.malformed_dropped += 1;
                return;
            }
            let body = data.len() - 4;
            let want = u32::from_le_bytes([
                data[body],
                data[body + 1],
                data[body + 2],
                data[body + 3],
            ]);
            if checksum32(&data[..body]) != want {
                // Corrupted in flight: reject, but keep a tombstone so a
                // requester blocked on this datagram still wakes.
                self.clock.borrow_mut().stats.crc_rejected += 1;
                lost = true;
            }
            data = Bytes::copy_from_slice(&data[..body]);
        }
        let ready = pkt.arrival + self.rx_kernel_cost(data.len());
        let sockbuf = self.sockbuf;
        let sock = self
            .sockets
            .iter_mut()
            .find(|s| s.port == port)
            .expect("bound");
        if !lost && sock.queue.len() >= sockbuf {
            // Socket buffer overflow: silently dropped, like real UDP.
            self.drops += 1;
            self.clock.borrow_mut().stats.dgrams_dropped += 1;
            return;
        }
        sock.queue.push_back(Datagram {
            src: pkt.src,
            src_port: pkt.src_port - SOCKET_PORT_BASE,
            data,
            ready,
            lost,
        });
    }

    /// Pull NIC arrivals into socket buffers.
    fn drain(&mut self) {
        // Collect bound ports first (borrow discipline).
        let ports: Vec<u16> = self.sockets.iter().map(|s| s.port).collect();
        for port in ports {
            while let Some(pkt) = self.nic.poll_port(SOCKET_PORT_BASE + port) {
                self.admit(pkt);
            }
        }
    }

    fn sock_mut(&mut self, port: u16) -> &mut SocketState {
        self.sockets
            .iter_mut()
            .find(|s| s.port == port)
            .unwrap_or_else(|| panic!("port {port} not bound"))
    }

    /// Non-blocking `recvfrom(MSG_DONTWAIT)`: returns a datagram whose
    /// kernel processing completed by the node's current virtual time.
    /// Tombstones are discarded silently — the kernel never saw them.
    ///
    /// A miss is settled through the NIC's
    /// [`poll_quiesce`](tm_myrinet::NicHandle::poll_quiesce) before being
    /// reported, so the set of datagrams this poll observes never depends
    /// on wall-clock thread timing (see `GmNode::receive` in `tm-gm`
    /// for the same pattern on the user-space path).
    pub fn try_recvfrom(&mut self, port: u16) -> Option<Datagram> {
        loop {
            let sig = self.nic.delivery_signature();
            self.drain();
            let now = self.clock.borrow().now();
            let syscall = self.params.host.syscall;
            let sock = self.sock_mut(port);
            while sock.queue.front().is_some_and(|d| d.lost && d.ready <= now) {
                sock.queue.pop_front();
            }
            if sock.queue.front().is_some_and(|d| d.ready <= now) {
                let d = sock.queue.pop_front().expect("non-empty");
                // recvfrom syscall + the serial kernel delivery work.
                let consume = self.rx_consume_cost(d.data.len());
                self.clock.borrow_mut().advance(syscall + consume);
                let mut c = self.clock.borrow_mut();
                c.stats.msgs_recv += 1;
                c.stats.bytes_recv += d.data.len() as u64;
                return Some(d);
            }
            let floor = self.sched_floor();
            if self.nic.poll_quiesce(now, sig, floor) {
                self.clock.borrow_mut().advance(syscall);
                return None;
            }
            // A delivery raced the quiesce: re-drain and look again.
        }
    }

    /// Earliest-ready datagram across `ports`, if any is queued (ignoring
    /// virtual readiness — used by blocking paths which then wait).
    fn earliest_queued(&mut self, ports: &[u16]) -> Option<(u16, Ns)> {
        self.drain();
        let mut best: Option<(u16, Ns)> = None;
        for s in &self.sockets {
            if ports.contains(&s.port) {
                if let Some(d) = s.queue.front() {
                    if best.is_none_or(|(_, r)| d.ready < r) {
                        best = Some((s.port, d.ready));
                    }
                }
            }
        }
        best
    }

    /// Pop the front datagram of `port`, waiting (in virtual time) for it
    /// to become ready and charging delivery costs. Tombstones are
    /// returned uncharged — they are wake signals, not kernel traffic.
    fn pop_ready(&mut self, port: u16) -> (u16, Datagram) {
        let p = self.params.clone();
        let ready = self.sock_mut(port).queue.front().expect("non-empty").ready;
        let was_waiting = {
            let mut c = self.clock.borrow_mut();
            let waited = ready > c.now();
            c.wait_until(ready);
            waited
        };
        let d = self.sock_mut(port).queue.pop_front().expect("non-empty");
        if d.lost {
            return (port, d);
        }
        if was_waiting {
            // The kernel had to wake us.
            self.clock.borrow_mut().advance(p.host.sched_wakeup);
        }
        let consume = self.rx_consume_cost(d.data.len());
        self.clock.borrow_mut().advance(p.host.syscall + consume);
        let mut c = self.clock.borrow_mut();
        c.stats.msgs_recv += 1;
        c.stats.bytes_recv += d.data.len() as u64;
        drop(c);
        (port, d)
    }

    /// Blocking `recvfrom()` on one port.
    pub fn recvfrom(&mut self, port: u16) -> Datagram {
        let got = self.recv(&[port], Until::FOREVER).got();
        got.expect("an unbounded wait ends only with a datagram").1
    }

    /// `select()` + `recvfrom()`: block until a datagram is ready on any
    /// of `ports`, until `until`'s *virtual* deadline (the DSM
    /// retransmission timer — determinism requires it to be a lockstep
    /// scheduler event), or until every node in its watch set has
    /// deregistered its NIC (the shutdown linger and the exit fan: a
    /// timer armed against a peer that already left must cancel rather
    /// than fire into a dead node). Charges one select syscall, and a
    /// scheduler wakeup if the process actually slept. A datagram queued
    /// but ready only after the deadline means [`Wait::Timeout`] and
    /// stays queued; on timeout the clock advances to the deadline.
    pub fn recv(&mut self, ports: &[u16], until: Until) -> Wait<(u16, Datagram)> {
        self.clock.borrow_mut().advance(self.params.host.syscall); // select()
        loop {
            if let Some((port, ready)) = self.earliest_queued(ports) {
                if until.admits(ready) {
                    return Wait::Got(self.pop_ready(port));
                }
                // Something is queued but lands after the deadline: the
                // timer fires first.
                return self.time_out(until);
            }
            // Park on the scheduler until something arrives for us.
            let filter: Vec<u16> = ports.iter().map(|p| SOCKET_PORT_BASE + p).collect();
            let floor = self.sched_floor();
            match self.nic.recv(&filter, until, floor) {
                Wait::Got(pkt) => self.admit(pkt),
                Wait::Timeout => return self.time_out(until),
                Wait::PeersDone => return Wait::PeersDone,
            }
        }
    }

    fn time_out<T>(&mut self, until: Until) -> Wait<T> {
        let deadline = until.deadline.expect("only a deadline times out");
        self.clock.borrow_mut().wait_until(deadline);
        Wait::Timeout
    }

    /// Does any bound SIGIO socket have traffic (regardless of virtual
    /// readiness)? The substrate uses this to decide whether a signal
    /// would have been raised.
    pub fn sigio_pending(&mut self) -> bool {
        self.drain();
        self.sockets
            .iter()
            .any(|s| s.sigio && s.queue.iter().any(|d| !d.lost))
    }

    /// Peek the earliest ready-time on a port without consuming.
    pub fn peek_ready(&mut self, port: u16) -> Option<Ns> {
        self.drain();
        self.sockets
            .iter()
            .find(|s| s.port == port)
            .and_then(|s| s.queue.front().map(|d| d.ready))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_myrinet::Fabric;
    use tm_sim::clock::shared_clock;
    use tm_sim::FaultPlan;

    fn recv_forever(s: &mut UdpStack, ports: &[u16]) -> (u16, Datagram) {
        s.recv(ports, Until::FOREVER).got().expect("a datagram")
    }

    fn stacks(n: usize) -> Vec<UdpStack> {
        stacks_with(n, SimParams::paper_testbed())
    }

    fn stacks_with(n: usize, params: SimParams) -> Vec<UdpStack> {
        let params = Arc::new(params);
        let (_fabric, nics) = Fabric::new_driven(n, Arc::clone(&params));
        nics.into_iter()
            .map(|nic| UdpStack::new(nic, shared_clock(), Arc::clone(&params)))
            .collect()
    }

    #[test]
    fn sendto_recvfrom_roundtrip() {
        let mut s = stacks(2);
        let (mut a, mut b) = {
            let b = s.pop().unwrap();
            (s.pop().unwrap(), b)
        };
        a.bind(7, false);
        b.bind(9, false);
        assert!(a.sendto(1, 9, 7, b"ping"));
        let d = b.recvfrom(9);
        assert_eq!(&d.data[..], b"ping");
        assert_eq!(d.src, 0);
        assert_eq!(d.src_port, 7);
        assert!(!d.lost);
        // UDP latency must be well above raw GM's ~9us.
        assert!(b.clock().borrow().now() > Ns::from_us(15));
    }

    #[test]
    fn nonblocking_respects_virtual_time() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        a.sendto(1, 2, 1, b"x");
        assert!(b.try_recvfrom(2).is_none(), "kernel path not done yet");
        b.clock().borrow_mut().advance(Ns::from_us(200));
        assert!(b.try_recvfrom(2).is_some());
    }

    #[test]
    fn recv_any_selects_earliest() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        b.bind(3, false);
        a.sendto(1, 2, 1, b"first");
        a.sendto(1, 3, 1, b"second");
        let (port, d) = recv_forever(&mut b, &[2, 3]);
        assert_eq!(port, 2);
        assert_eq!(&d.data[..], b"first");
    }

    #[test]
    fn drop_probability_loses_datagrams() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                drop_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        assert!(!a.sendto(1, 2, 1, b"doomed"));
        assert_eq!(a.drops, 1);
        assert_eq!(a.clock().borrow().stats.dgrams_dropped, 1);
        b.clock().borrow_mut().advance(Ns::from_ms(10));
        assert!(b.try_recvfrom(2).is_none());
    }

    #[test]
    fn dropped_datagram_leaves_a_tombstone() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                drop_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        assert!(!a.sendto(1, 2, 1, b"doomed"));
        // The receiver still wakes: recv surfaces the tombstone.
        let (port, d) = recv_forever(&mut b, &[2]);
        assert_eq!(port, 2);
        assert!(d.lost);
        // But the polled path never shows it.
        assert!(b.try_recvfrom(2).is_none());
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                duplicate_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        assert!(a.sendto(1, 2, 1, b"twice"));
        assert_eq!(a.clock().borrow().stats.dgrams_duplicated, 1);
        let (_, d1) = recv_forever(&mut b, &[2]);
        let (_, d2) = recv_forever(&mut b, &[2]);
        assert_eq!(&d1.data[..], b"twice");
        assert_eq!(&d2.data[..], b"twice");
    }

    #[test]
    fn corruption_is_detected_and_tombstoned() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                corrupt_probability: 1.0,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        assert!(a.sendto(1, 2, 1, b"garbled"));
        assert_eq!(a.clock().borrow().stats.dgrams_corrupted, 1);
        let (_, d) = recv_forever(&mut b, &[2]);
        assert!(d.lost, "CRC reject must become a tombstone");
        assert_eq!(b.clock().borrow().stats.crc_rejected, 1);
    }

    #[test]
    fn checksum_roundtrip_when_clean() {
        // Corruption *enabled* (so trailers are on the wire) but with the
        // fault stream seeded such that... easier: probability 0.0 cannot
        // enable checksums, so use a tiny probability and a payload-only
        // assertion across many sends is overkill. Instead: corruption on,
        // but verify an uncorrupted datagram by sending until one survives.
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                corrupt_probability: 0.3,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        let mut clean = 0;
        for _ in 0..20 {
            a.sendto(1, 2, 1, b"payload");
            let (_, d) = recv_forever(&mut b, &[2]);
            if !d.lost {
                // Trailer must be stripped before delivery.
                assert_eq!(&d.data[..], b"payload");
                clean += 1;
            }
        }
        assert!(clean > 0, "some datagrams must survive 30% corruption");
    }

    #[test]
    fn recvbuf_pressure_forces_overflow() {
        let params = {
            let mut p = SimParams::paper_testbed();
            p.faults = FaultPlan {
                recvbuf_datagrams: 2,
                ..FaultPlan::default()
            };
            p
        };
        let mut s = stacks_with(2, params);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        for _ in 0..5 {
            a.sendto(1, 2, 1, b"flood");
        }
        b.clock().borrow_mut().advance(Ns::from_ms(10));
        let mut got = 0;
        while b.try_recvfrom(2).is_some() {
            got += 1;
        }
        assert_eq!(got, 2, "only the buffer depth survives");
        assert_eq!(b.drops, 3);
        assert_eq!(b.clock().borrow().stats.dgrams_dropped, 3);
    }

    #[test]
    fn recv_timeout_returns_none_when_silent() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        b.bind(2, false);
        let deadline = b.clock().borrow().now() + Ns::from_us(500);
        let got = b.recv(&[2], Until::deadline(deadline));
        assert!(matches!(got, Wait::Timeout));
        // The virtual clock advanced exactly to the deadline.
        assert_eq!(b.clock().borrow().now(), deadline);
    }

    #[test]
    fn recv_timeout_expires_before_late_arrival() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        a.sendto(1, 2, 1, b"late");
        // The datagram is ready ~tens of µs in; deadline far earlier.
        let deadline = b.clock().borrow().now() + Ns(10);
        let got = b.recv(&[2], Until::deadline(deadline));
        assert!(
            matches!(got, Wait::Timeout),
            "timer must fire before the late datagram"
        );
        // The datagram is still there for a later receive.
        let (_, d) = recv_forever(&mut b, &[2]);
        assert_eq!(&d.data[..], b"late");
    }

    #[test]
    fn sigio_pending_only_for_async_sockets() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false); // synchronous socket
        b.bind(3, true); // SIGIO socket
        a.sendto(1, 2, 1, b"sync");
        assert!(!b.sigio_pending());
        a.sendto(1, 3, 1, b"async");
        assert!(b.sigio_pending());
    }

    #[test]
    fn large_datagram_charges_fragment_costs() {
        let mut s = stacks(2);
        let mut b = s.pop().unwrap();
        let mut a = s.pop().unwrap();
        a.bind(1, false);
        b.bind(2, false);
        let t0 = a.clock().borrow().now();
        a.sendto(1, 2, 1, &vec![0u8; 32 * 1024]);
        let tx_cost = a.clock().borrow().now() - t0;
        // 8 fragments: 7 * per_fragment beyond base costs.
        assert!(tx_cost > Ns::from_us(14), "tx cost {tx_cost}");
        let d = b.recvfrom(2);
        assert_eq!(d.data.len(), 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let mut s = stacks(1);
        let mut a = s.pop().unwrap();
        a.bind(5, false);
        a.bind(5, false);
    }
}
