//! UDP/GM: TreadMarks' stock sockets binding, as a [`Substrate`].
//!
//! Two UDP sockets per node mirror the original implementation's two
//! ports: one asynchronous (O_ASYNC — arrivals raise SIGIO) for requests,
//! one synchronous for responses. Every operation crosses the kernel;
//! compare with `FastSubstrate`, where the same operations stay in user
//! space.

use std::sync::Arc;

use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Until, Wait};
use tm_udp::UdpStack;
use tmk::framing::{self, FragHeader, Reassembler};
use tmk::wire::pool;
use tmk::{Chan, IncomingMsg, Substrate};

/// Socket number for asynchronous requests (SIGIO).
pub const REQ_SOCK: u16 = 1;
/// Socket number for synchronous responses.
pub const REP_SOCK: u16 = 2;

/// Largest UDP datagram payload we send (IP reassembly limit, minus
/// headroom for the frame header).
const DGRAM_LIMIT: usize = 60 * 1024;

const FRAME_DATA: u8 = 0;
const FRAME_FRAG: u8 = 1;

/// The per-node UDP/GM endpoint.
pub struct UdpSubstrate {
    udp: UdpStack,
    next_xid: u32,
    /// Shared fragment reassembly, demuxed per socket.
    partials: Reassembler<u16>,
}

impl UdpSubstrate {
    pub fn new(nic: tm_myrinet::NicHandle, clock: SharedClock, params: Arc<SimParams>) -> Self {
        let mut udp = UdpStack::new(nic, clock, params);
        udp.bind(REQ_SOCK, true);
        udp.bind(REP_SOCK, false);
        UdpSubstrate {
            udp,
            next_xid: 1,
            partials: Reassembler::new(),
        }
    }

    pub fn stack(&self) -> &UdpStack {
        &self.udp
    }

    /// Gather `parts` into a pooled buffer and push the datagram — no
    /// per-send frame allocation. Returns `false` if the stack knows the
    /// datagram was dropped by fault injection.
    fn send_dgram(&mut self, to: usize, sock: u16, parts: &[&[u8]], at: Option<Ns>) -> bool {
        let mut buf = pool::take(parts.iter().map(|p| p.len()).sum());
        for p in parts {
            buf.extend_from_slice(p);
        }
        let delivered = match at {
            None => self.udp.sendto(to, sock, sock, &buf),
            Some(t) => self.udp.sendto_at(to, sock, sock, &buf, t),
        };
        pool::give(buf);
        delivered
    }

    /// Send one message, fragmenting above the IP reassembly limit. The
    /// fragment header is built on the stack and gathered together with a
    /// chunk of the caller's payload. Returns `false` if any fragment was
    /// known-dropped on the way out (the whole message is then doomed —
    /// reassembly can never complete).
    fn send_msg(&mut self, to: usize, sock: u16, data: &[u8], at: Option<Ns>) -> bool {
        if data.len() < DGRAM_LIMIT {
            return self.send_dgram(to, sock, &[&[FRAME_DATA], data], at);
        }
        let plan = framing::plan(data.len(), DGRAM_LIMIT);
        let xid = self.next_xid;
        self.next_xid += 1;
        let mut all = true;
        for (i, range) in plan.ranges().enumerate() {
            let head = FragHeader {
                xid,
                idx: i as u16,
                total: plan.total as u16,
            }
            .head(FRAME_FRAG);
            all &= self.send_dgram(to, sock, &[&head, &data[range]], at.map(|t| t + Ns(i as u64)));
        }
        all
    }

    /// Count and drop a frame that can't be interpreted (truncated header,
    /// inconsistent fragment geometry, unknown kind — all possible once
    /// fault injection corrupts bytes).
    fn malformed(&mut self) -> Option<IncomingMsg> {
        self.udp.clock().borrow_mut().stats.malformed_dropped += 1;
        None
    }

    /// Handle one datagram; `Some` when a full message is available.
    /// Loss tombstones surface as `IncomingMsg { lost: true }` so blocked
    /// requesters observe the loss at its deterministic virtual time.
    fn handle(&mut self, sock: u16, d: tm_udp::Datagram) -> Option<IncomingMsg> {
        let chan = if sock == REQ_SOCK {
            Chan::Request
        } else {
            Chan::Response
        };
        if d.lost {
            return Some(IncomingMsg {
                from: d.src,
                chan,
                data: Vec::new(),
                arrival: d.ready,
                lost: true,
            });
        }
        if d.data.is_empty() {
            return self.malformed();
        }
        match d.data[0] {
            FRAME_DATA => {
                let mut payload = pool::take(d.data.len() - 1);
                payload.extend_from_slice(&d.data[1..]);
                Some(IncomingMsg {
                    from: d.src,
                    chan,
                    data: payload,
                    arrival: d.ready,
                    lost: false,
                })
            }
            FRAME_FRAG => {
                let Some((h, frag)) = FragHeader::parse(&d.data[1..]) else {
                    return self.malformed();
                };
                let mut payload = pool::take(frag.len());
                payload.extend_from_slice(frag);
                match self.partials.insert(d.src, sock, h, payload, d.ready) {
                    framing::Insert::Pending => None,
                    framing::Insert::Malformed => self.malformed(),
                    framing::Insert::Complete(frame) => Some(IncomingMsg {
                        from: frame.src,
                        chan,
                        arrival: frame.arrival,
                        data: frame.assemble(0),
                        lost: false,
                    }),
                }
            }
            _ => self.malformed(),
        }
    }
}

impl Substrate for UdpSubstrate {
    fn my_id(&self) -> usize {
        self.udp.node()
    }

    fn nprocs(&self) -> usize {
        self.udp.nprocs()
    }

    fn clock(&self) -> &SharedClock {
        self.udp.clock()
    }

    fn params(&self) -> &Arc<SimParams> {
        self.udp.params()
    }

    fn scheme(&self) -> AsyncScheme {
        AsyncScheme::Sigio {
            cost: self.udp.params().host.sigio,
        }
    }

    fn sched_lookahead(&self) -> Ns {
        self.udp.lookahead()
    }

    fn send_request(&mut self, to: usize, data: &[u8]) -> bool {
        self.send_msg(to, REQ_SOCK, data, None)
    }

    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send_msg(to, REQ_SOCK, data, Some(at));
    }

    fn response_cost(&self, len: usize) -> Ns {
        self.udp.tx_cost(len + 1)
    }

    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send_msg(to, REP_SOCK, data, Some(at));
    }

    fn poll_request(&mut self) -> Option<IncomingMsg> {
        while let Some(d) = self.udp.try_recvfrom(REQ_SOCK) {
            if let Some(msg) = self.handle(REQ_SOCK, d) {
                return Some(msg);
            }
        }
        None
    }

    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        // Drain responses first (their socket never interrupts); the
        // engine re-sorts requests by arrival anyway, and responses file
        // into rid slots where pop order is immaterial.
        for sock in [REP_SOCK, REQ_SOCK] {
            while let Some(d) = self.udp.try_recvfrom(sock) {
                if let Some(msg) = self.handle(sock, d) {
                    return Some(msg);
                }
            }
        }
        None
    }

    /// Each pass is one `select()` + `recvfrom()`; a datagram that
    /// completes no message (a fragment, a malformed frame) costs a retry.
    fn wait(&mut self, until: Until) -> Wait<IncomingMsg> {
        loop {
            match self.udp.recv(&[REQ_SOCK, REP_SOCK], until) {
                Wait::Got((sock, d)) => {
                    if let Some(msg) = self.handle(sock, d) {
                        return Wait::Got(msg);
                    }
                }
                Wait::Timeout => return Wait::Timeout,
                Wait::PeersDone => return Wait::PeersDone,
            }
        }
    }

    fn retransmit_timeout(&self) -> Option<Ns> {
        let p = self.udp.params();
        let lossy = p.faults.lossy()
            || p.faults.duplicate_probability > 0.0
            || p.faults.reorder_probability > 0.0
            || p.faults.recvbuf_datagrams > 0;
        lossy.then(|| p.udp.rto)
    }

    fn peer_alive(&self, node: usize) -> bool {
        self.udp.peers_alive_in(&[node])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_myrinet::Fabric;
    use tm_sim::clock::shared_clock;

    fn pair() -> (UdpSubstrate, UdpSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, mut nics) = Fabric::new_driven(2, Arc::clone(&params));
        let b = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), Arc::clone(&params));
        let a = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), params);
        (a, b)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.data, b"req");
        b.send_response_at(0, b"rep", msg.arrival + Ns::from_us(5));
        let rep = a.next_incoming();
        assert_eq!(rep.chan, Chan::Response);
        assert_eq!(rep.data, b"rep");
    }

    #[test]
    fn udp_latency_far_above_fast() {
        let (mut a, mut b) = pair();
        a.send_request(1, &[1u8]);
        let _ = b.next_incoming();
        // User-visible delivery time: kernel consume costs are charged by
        // next_incoming, so read the receiver's clock.
        let us = b.clock().borrow().now().as_us();
        assert!(
            us > 18.0,
            "UDP one-way latency {us:.1}us should dwarf GM's ~9us"
        );
    }

    #[test]
    fn sigio_scheme() {
        let (a, _) = pair();
        assert!(matches!(a.scheme(), AsyncScheme::Sigio { .. }));
    }
}
