//! The FAST/GM substrate proper.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tm_gm::{gm_size, DmaPool, GmEvent, GmNode, MAX_SIZE_CLASS};
use tm_sim::faults::checksum32;
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Until, Wait};
use tmk::framing::{self, FragHeader, Reassembler};
use tmk::wire::pool;
use tmk::{Chan, IncomingMsg, Substrate};

/// GM port carrying asynchronous requests (interrupt-enabled: the
/// modified-firmware scheme).
pub const REQ_PORT: u8 = 1;
/// GM port carrying synchronous responses (polled).
pub const REP_PORT: u8 = 2;

/// Wire frame kinds (one prefix byte on every GM message).
const FRAME_DATA: u8 = 0;
/// Host cost of building/parsing the FAST frame header and demultiplexing
/// the connectionless GM id to a connection (§2.2.1) — the small tax that
/// puts FAST/GM at 9.4 µs where raw GM sits at 8.99 µs.
const DEMUX: Ns = Ns(150);
const FRAME_RDV_ANNOUNCE: u8 = 1;
const FRAME_RDV_PULL: u8 = 2;
const FRAME_RDV_COMPLETE: u8 = 3;
/// A fragment of a larger frame: [4][xid u32][idx u16][total u16][bytes].
const FRAME_FRAG: u8 = 4;

/// Fault-stream salt for the FAST substrate's corruption injector (keeps
/// its draws decorrelated from the UDP stack's on the same node).
const FAULT_SALT_FAST: u64 = 0xfa57;
/// Give up after this many token-starvation polls for a single frame —
/// past it the run is wedged, not congested.
const TOKEN_STALL_CAP: u32 = 4096;

/// Substrate configuration.
#[derive(Debug, Clone)]
pub struct FastConfig {
    /// How asynchronous requests reach the host (§2.2.4). The paper's
    /// adopted choice is the NIC interrupt.
    pub scheme: AsyncScheme,
    /// `o`: outstanding small requests allowed per peer (§2.2.2).
    pub outstanding_per_peer: usize,
    /// Eliminate the large preposted size classes (≥ `rdv_min_size`) and
    /// carry big messages with a pin-and-RDMA rendezvous instead
    /// (§2.2.2's memory-saving alternative).
    pub rendezvous: bool,
    /// First size class handled by rendezvous when enabled.
    pub rdv_min_size: u8,
    /// Physical memory this node may pin.
    pub pin_limit: usize,
}

impl FastConfig {
    /// The configuration the paper adopted, for a cluster of `params`'
    /// testbed type.
    pub fn paper(params: &SimParams) -> Self {
        FastConfig {
            scheme: params.interrupt_scheme(),
            outstanding_per_peer: 4,
            rendezvous: false,
            rdv_min_size: 14,
            pin_limit: 256 << 20,
        }
    }
}

/// A large outbound payload awaiting the requester's pull.
struct HeldTransfer {
    xfer: u32,
    dst: usize,
    data: Vec<u8>,
}

/// A large inbound transfer we are pulling.
struct PullInProgress {
    xfer: u32,
    from: usize,
    region: u32,
    len: usize,
}

/// The per-node FAST/GM endpoint.
pub struct FastSubstrate {
    gm: GmNode,
    pool: DmaPool,
    cfg: FastConfig,
    next_xfer: u32,
    held: Vec<HeldTransfer>,
    pulls: Vec<PullInProgress>,
    /// Shared fragment reassembly, demuxed per GM port.
    partials: Reassembler<u8>,
    /// Registered bytes devoted to preposted receive buffers (E5).
    pub prepost_bytes: usize,
    /// Seeded corruption injector; `Some` only when the fault plan asks
    /// for payload corruption (so zero-fault runs draw nothing).
    corrupt_rng: Option<SmallRng>,
}

impl FastSubstrate {
    /// Open the two ports, register the send pool and prepost the receive
    /// buffers per the §2.2.2 strategy.
    pub fn new(
        nic: tm_myrinet::NicHandle,
        clock: SharedClock,
        params: Arc<SimParams>,
        board: Arc<tm_gm::FailureBoard>,
        cfg: FastConfig,
    ) -> Self {
        let mut gm = GmNode::new(nic, clock, params, board, cfg.pin_limit);
        let interrupts = matches!(cfg.scheme, AsyncScheme::Interrupt { .. });
        gm.open_port(REQ_PORT, interrupts).expect("open REQ port");
        gm.open_port(REP_PORT, false).expect("open REP port");
        let pool = DmaPool::new(&mut gm.book, 16, 32 * 1024).expect("register send pool");

        let n = gm.nprocs();
        let o = cfg.outstanding_per_peer.max(1);
        let top = if cfg.rendezvous {
            cfg.rdv_min_size - 1
        } else {
            MAX_SIZE_CLASS
        };
        let mut prepost_bytes = 0usize;
        // Asynchronous side: small request classes get o·(n−1) buffers;
        // the larger classes (barrier arrivals) one per peer. The paper
        // counts from size 4 (8-byte requests); our wire framing can emit
        // messages down to 2 bytes, so classes 1–3 are provisioned too —
        // they add 14 bytes per peer, invisible in the §2.2.2 arithmetic.
        for size in 1..=top {
            let count = if size <= 10 { o * (n - 1) } else { n - 1 };
            for _ in 0..count {
                gm.provide_receive_buffer(REQ_PORT, size).expect("prepost");
            }
            prepost_bytes += count << size;
        }
        // Synchronous side: a single outstanding request means one buffer
        // per size class suffices.
        for size in 1..=top {
            gm.provide_receive_buffer(REP_PORT, size).expect("prepost");
            prepost_bytes += 1 << size;
        }
        // The prepost slabs live in registered memory.
        gm.book
            .register(prepost_bytes)
            .expect("register prepost slabs");
        let corrupt_rng = if gm.params().faults.corrupt_probability > 0.0 {
            let seed = gm.params().faults.stream_seed(gm.node(), FAULT_SALT_FAST);
            Some(SmallRng::seed_from_u64(seed))
        } else {
            None
        };
        FastSubstrate {
            gm,
            pool,
            cfg,
            next_xfer: 1,
            held: Vec::new(),
            pulls: Vec::new(),
            partials: Reassembler::new(),
            prepost_bytes,
            corrupt_rng,
        }
    }

    /// Registered bytes pinned by this node (pool + preposts + rendezvous
    /// regions).
    pub fn pinned_bytes(&self) -> usize {
        self.gm.book.pinned_bytes()
    }

    pub fn gm(&self) -> &GmNode {
        &self.gm
    }

    /// How many sends allocated fresh registered-buffer storage (should be
    /// flat in steady state — the pool-hit-rate counter).
    pub fn send_pool_fresh_takes(&self) -> usize {
        self.pool.fresh_takes()
    }

    /// Largest single GM frame the prepost strategy can always receive.
    fn frame_limit(&self) -> usize {
        let top = if self.cfg.rendezvous {
            self.cfg.rdv_min_size - 1
        } else {
            MAX_SIZE_CLASS
        };
        tm_gm::gm_max_length(top)
    }

    /// Push a `[kind] ++ body` frame through GM, gathering the parts
    /// straight into a registered send buffer (no intermediate frame
    /// allocation) and reclaiming the buffer after completion. `charge`
    /// pays DEMUX + the fast-path copy cost (the immediate-send path);
    /// scheduled sends pass their pre-accounted departure time instead.
    fn push_frame(&mut self, to: usize, port: u8, parts: &[&[u8]], charge: bool, at: Option<Ns>) {
        let mut len: usize = parts.iter().map(|p| p.len()).sum();
        if charge {
            self.gm.clock().borrow_mut().advance(DEMUX);
            let cost = Ns::for_bytes(len, self.gm.params().host.fast_copy_mb_s);
            self.gm.clock().borrow_mut().advance(cost);
        }
        // Fault path: append a checksum trailer so injected corruption is
        // detected at the receiver instead of mis-decoded; then maybe flip
        // a byte. Gated on the plan so clean runs gather zero-copy.
        let buf = if self.gm.params().faults.checksum_frames() {
            let mut img = Vec::with_capacity(len + 4);
            for p in parts {
                img.extend_from_slice(p);
            }
            let crc = checksum32(&img).to_le_bytes();
            img.extend_from_slice(&crc);
            if let Some(rng) = self.corrupt_rng.as_mut() {
                let p = self.gm.params().faults.corrupt_probability;
                if rng.random::<f64>() < p {
                    let i = (rng.random::<u64>() as usize) % img.len();
                    img[i] ^= 0x20;
                    self.gm.clock().borrow_mut().stats.dgrams_corrupted += 1;
                }
            }
            len = img.len();
            self.pool.take_parts(&[&img]).expect("send pool exhausted")
        } else {
            self.pool.take_parts(parts).expect("send pool exhausted")
        };
        let mut at = at;
        // Token starvation (injected or burst backpressure): poll for
        // completion callbacks at the GM callback stride, bounded so a
        // wedged port fails loudly instead of spinning forever. The
        // stride matches the pre-fault constant so clean-run timing is
        // unchanged.
        let stall = Ns::from_us(3);
        let mut stalls = 0u32;
        loop {
            let res = match at {
                None => self.gm.send(port, to, port, &buf, len),
                Some(t) => self.gm.send_at(port, to, port, &buf, len, t),
            };
            match res {
                Ok(_) => break,
                Err(tm_gm::GmError::NoSendTokens) => {
                    stalls += 1;
                    assert!(
                        stalls <= TOKEN_STALL_CAP,
                        "node {}: no send tokens after {TOKEN_STALL_CAP} polls",
                        self.gm.node()
                    );
                    self.gm.clock().borrow_mut().stats.token_stalls += 1;
                    match at.as_mut() {
                        None => self.gm.clock().borrow_mut().advance(stall),
                        Some(t) => *t += stall,
                    }
                }
                Err(e) => panic!("GM send failed: {e:?}"),
            }
        }
        self.pool.recycle_buf(buf);
    }

    /// Send `[kind] ++ body`, fragmenting when it exceeds the largest
    /// preposted class. Fragment payloads are gathered scatter-gather from
    /// the logical frame — the frame itself is never materialized.
    fn send_kind(&mut self, to: usize, port: u8, kind: u8, body: &[u8], at: Option<Ns>) {
        let flen = body.len() + 1;
        if flen <= self.frame_limit() {
            self.push_frame(to, port, &[&[kind], body], at.is_none(), at);
            return;
        }
        let chunk = self.frame_limit() - 10; // frag header + slack
        let plan = framing::plan(flen, chunk);
        assert!(plan.total <= u16::MAX as usize);
        let xid = self.next_xfer;
        self.next_xfer += 1;
        let mut t = at;
        for (i, range) in plan.ranges().enumerate() {
            // Fragment i carries bytes [lo, hi) of the `[kind] ++ body`
            // stream — identical chunk boundaries to slicing a built frame.
            let (lo, hi) = (range.start, range.end);
            let head = FragHeader {
                xid,
                idx: i as u16,
                total: plan.total as u16,
            }
            .head(FRAME_FRAG);
            if lo == 0 {
                self.push_frame(to, port, &[&head, &[kind], &body[..hi - 1]], t.is_none(), t);
            } else {
                self.push_frame(to, port, &[&head, &body[lo - 1..hi - 1]], t.is_none(), t);
            }
            // Successive fragments leave back-to-back; the spacing is
            // the copy cost the handler already accounted per byte.
            if let Some(t) = t.as_mut() {
                *t += Ns(1);
            }
        }
    }

    /// Whether an outbound message must use the rendezvous path.
    fn needs_rendezvous(&self, len: usize) -> bool {
        self.cfg.rendezvous && gm_size(len + 1) >= self.cfg.rdv_min_size
    }

    /// Count and drop a frame that can't be interpreted (truncated header
    /// or unknown kind — possible once fault injection flips bytes).
    fn malformed(&mut self) -> Option<IncomingMsg> {
        self.gm.clock().borrow_mut().stats.malformed_dropped += 1;
        None
    }

    /// Handle one GM receive event; `Some` if it surfaces to the DSM
    /// runtime, `None` if it was substrate-internal (rendezvous control).
    fn handle_event(&mut self, port: u8, ev: GmEvent) -> Option<IncomingMsg> {
        let GmEvent::Recv {
            src,
            data,
            arrival,
            size,
            ..
        } = ev
        else {
            panic!("unexpected GM event");
        };
        // Replenish the buffer class we just consumed, and pay the
        // connection demux.
        self.gm.clock().borrow_mut().advance(DEMUX);
        self.gm
            .provide_receive_buffer(port, size)
            .expect("replenish");
        let chan = if port == REQ_PORT {
            Chan::Request
        } else {
            Chan::Response
        };
        // Under a corruption plan every frame carries a checksum trailer:
        // verify and strip it, counting (not mis-decoding) flipped frames.
        let mut data = data;
        if self.gm.params().faults.checksum_frames() {
            if data.len() < 5 {
                return self.malformed();
            }
            let body_len = data.len() - 4;
            let want = u32::from_le_bytes(data[body_len..].try_into().expect("4-byte trailer"));
            if checksum32(&data[..body_len]) != want {
                self.gm.clock().borrow_mut().stats.crc_rejected += 1;
                return None;
            }
            data = bytes::Bytes::copy_from_slice(&data[..body_len]);
        }
        if data.is_empty() {
            return self.malformed();
        }
        let kind = data[0];
        let body = &data[1..];
        match kind {
            FRAME_DATA => {
                let mut payload = pool::take(body.len());
                payload.extend_from_slice(body);
                Some(IncomingMsg {
                    from: src,
                    chan,
                    data: payload,
                    arrival,
                    lost: false,
                })
            }
            FRAME_RDV_ANNOUNCE => {
                // Large response announced: pin a landing region and ask
                // the responder to RDMA it over.
                if body.len() < 8 {
                    return self.malformed();
                }
                let xfer = u32::from_le_bytes(body[0..4].try_into().expect("checked len"));
                let len = u32::from_le_bytes(body[4..8].try_into().expect("checked len")) as usize;
                let region = self.gm.book.register(len).expect("pin rendezvous region");
                self.pulls.push(PullInProgress {
                    xfer,
                    from: src,
                    region,
                    len,
                });
                let mut pull = [0u8; 8];
                pull[0..4].copy_from_slice(&xfer.to_le_bytes());
                pull[4..8].copy_from_slice(&region.to_le_bytes());
                self.send_kind(src, REQ_PORT, FRAME_RDV_PULL, &pull, None);
                None
            }
            FRAME_RDV_PULL => {
                // The requester pinned its region: RDMA the held payload
                // and complete. This is substrate-internal service work.
                if body.len() < 8 {
                    return self.malformed();
                }
                let xfer = u32::from_le_bytes(body[0..4].try_into().expect("checked len"));
                let region = u32::from_le_bytes(body[4..8].try_into().expect("checked len"));
                let idx = self
                    .held
                    .iter()
                    .position(|h| h.xfer == xfer)
                    .expect("pull for unknown transfer");
                let held = self.held.remove(idx);
                debug_assert_eq!(held.dst, src);
                let scheme = self.cfg.scheme;
                let cost = Ns::for_bytes(held.data.len(), self.gm.params().host.fast_copy_mb_s)
                    + self.gm.params().gm.send_overhead * 2;
                let finish = self
                    .gm
                    .clock()
                    .borrow_mut()
                    .service_window(arrival, &scheme, cost);
                let buf = self.pool.take(&held.data).expect("send pool exhausted");
                self.gm
                    .directed_send(REP_PORT, src, region, 0, &buf, held.data.len())
                    .expect("directed send");
                self.pool.recycle_buf(buf);
                let mut cbody = [0u8; 8];
                cbody[0..4].copy_from_slice(&xfer.to_le_bytes());
                cbody[4..8].copy_from_slice(&(held.data.len() as u32).to_le_bytes());
                pool::give(held.data);
                self.send_kind(src, REP_PORT, FRAME_RDV_COMPLETE, &cbody, Some(finish));
                None
            }
            FRAME_RDV_COMPLETE => {
                // Payload has landed in our pinned region: surface it as
                // the response it is.
                if body.len() < 4 {
                    return self.malformed();
                }
                let xfer = u32::from_le_bytes(body[0..4].try_into().expect("checked len"));
                let idx = self
                    .pulls
                    .iter()
                    .position(|p| p.xfer == xfer)
                    .expect("completion for unknown pull");
                let pull = self.pulls.remove(idx);
                let mut data = pool::take(pull.len);
                data.extend_from_slice(&self.gm.region_bytes(pull.region).expect("region")[..pull.len]);
                // Copy out + unpin.
                let cost = Ns::for_bytes(pull.len, self.gm.params().host.memcpy_mb_s);
                self.gm.clock().borrow_mut().advance(cost);
                self.gm.book.deregister(pull.region);
                Some(IncomingMsg {
                    from: pull.from,
                    chan: Chan::Response,
                    data,
                    arrival,
                    lost: false,
                })
            }
            FRAME_FRAG => {
                let Some((h, frag)) = FragHeader::parse(body) else {
                    return self.malformed();
                };
                let mut payload = pool::take(frag.len());
                payload.extend_from_slice(frag);
                match self.partials.insert(src, port, h, payload, arrival) {
                    framing::Insert::Pending => None,
                    framing::Insert::Malformed => self.malformed(),
                    framing::Insert::Complete(frame) => {
                        // Single-copy reassembly straight into the surfaced
                        // message: chunk 0's kind byte is checked and
                        // skipped here, so the runtime payload is never
                        // re-copied. Only DATA frames are ever fragmented
                        // (rendezvous control frames are tiny).
                        assert_eq!(frame.first_byte(), FRAME_DATA, "only data frames fragment");
                        let chan = if frame.tag == REQ_PORT {
                            Chan::Request
                        } else {
                            Chan::Response
                        };
                        Some(IncomingMsg {
                            from: frame.src,
                            chan,
                            arrival: frame.arrival,
                            data: frame.assemble(1),
                            lost: false,
                        })
                    }
                }
            }
            _ => self.malformed(),
        }
    }
}

impl Substrate for FastSubstrate {
    fn my_id(&self) -> usize {
        self.gm.node()
    }

    fn nprocs(&self) -> usize {
        self.gm.nprocs()
    }

    fn clock(&self) -> &SharedClock {
        self.gm.clock()
    }

    fn params(&self) -> &Arc<SimParams> {
        self.gm.params()
    }

    fn scheme(&self) -> AsyncScheme {
        self.cfg.scheme
    }

    fn sched_lookahead(&self) -> Ns {
        self.gm.lookahead()
    }

    fn send_request(&mut self, to: usize, data: &[u8]) -> bool {
        self.send_kind(to, REQ_PORT, FRAME_DATA, data, None);
        true // GM delivery is reliable
    }

    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns) {
        self.send_kind(to, REQ_PORT, FRAME_DATA, data, Some(at));
    }

    fn response_cost(&self, len: usize) -> Ns {
        DEMUX
            + Ns::for_bytes(len, self.gm.params().host.fast_copy_mb_s)
            + self.gm.params().gm.send_overhead
    }

    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        if self.needs_rendezvous(data.len() + 1) {
            let xfer = self.next_xfer;
            self.next_xfer += 1;
            let mut held = pool::take(data.len());
            held.extend_from_slice(data);
            self.held.push(HeldTransfer {
                xfer,
                dst: to,
                data: held,
            });
            let mut body = [0u8; 8];
            body[0..4].copy_from_slice(&xfer.to_le_bytes());
            body[4..8].copy_from_slice(&(data.len() as u32).to_le_bytes());
            self.send_kind(to, REP_PORT, FRAME_RDV_ANNOUNCE, &body, Some(at));
        } else {
            self.send_kind(to, REP_PORT, FRAME_DATA, data, Some(at));
        }
    }

    fn poll_request(&mut self) -> Option<IncomingMsg> {
        loop {
            match self.gm.receive(REQ_PORT).expect("REQ port") {
                Some(ev) => {
                    if let Some(msg) = self.handle_event(REQ_PORT, ev) {
                        return Some(msg);
                    }
                    // Internal frame consumed; keep polling.
                }
                None => return None,
            }
        }
    }

    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        for port in [REP_PORT, REQ_PORT] {
            // Internal frames are consumed silently; keep polling.
            while let Some(ev) = self.gm.receive(port).expect("poll port") {
                if let Some(msg) = self.handle_event(port, ev) {
                    return Some(msg);
                }
            }
        }
        None
    }

    /// GM delivery is reliable, so `until` is never armed (see
    /// [`Substrate::wait`]): blocks until the next message.
    fn wait(&mut self, _until: Until) -> Wait<IncomingMsg> {
        loop {
            let (port, ev) = self.gm.blocking_receive(&[REQ_PORT, REP_PORT]);
            if let Some(msg) = self.handle_event(port, ev) {
                return Wait::Got(msg);
            }
        }
    }

    fn max_msg(&self) -> usize {
        // Oversized frames fragment transparently; keep the runtime's
        // chunking at the TreadMarks limit so diff responses stay
        // single-frame.
        self.params().dsm.max_msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_gm::gm_cluster_driven;
    use tm_sim::clock::shared_clock;

    fn pair(rendezvous: bool) -> (FastSubstrate, FastSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, board, mut nics) = gm_cluster_driven(2, Arc::clone(&params));
        let mut cfg = FastConfig::paper(&params);
        cfg.rendezvous = rendezvous;
        let b = FastSubstrate::new(
            nics.pop().unwrap(),
            shared_clock(),
            Arc::clone(&params),
            Arc::clone(&board),
            cfg.clone(),
        );
        let a = FastSubstrate::new(nics.pop().unwrap(), shared_clock(), params, board, cfg);
        (a, b)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut a, mut b) = pair(false);
        a.send_request(1, b"hello-req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.data, b"hello-req");
        let at = msg.arrival + Ns::from_us(3);
        b.send_response_at(0, b"hello-rep", at);
        let rep = a.next_incoming();
        assert_eq!(rep.chan, Chan::Response);
        assert_eq!(rep.data, b"hello-rep");
        assert!(rep.arrival > at);
    }

    #[test]
    fn latency_is_near_calibration() {
        // One-way request latency should be ~9.4us (paper FAST/GM figure),
        // measured from just before the send (startup pins memory, which
        // costs real time too — but is not message latency).
        let (mut a, mut b) = pair(false);
        let t0 = a.clock().borrow().now();
        a.send_request(1, &[7u8; 1]);
        let msg = b.next_incoming();
        // Receiver-side user-visible delivery: arrival + the poll hit.
        let us = (msg.arrival - t0).as_us() + b.params().gm.recv_poll_hit.as_us();
        assert!(
            (8.0..11.0).contains(&us),
            "FAST one-way small-message latency {us:.2}us"
        );
    }

    #[test]
    fn large_response_without_rendezvous_uses_big_buffer() {
        let (mut a, mut b) = pair(false);
        let big = vec![0xCDu8; 20_000];
        a.send_request(1, b"want-big");
        let req = b.next_incoming();
        b.send_response_at(0, &big, req.arrival + Ns::from_us(10));
        let rep = a.next_incoming();
        assert_eq!(rep.data.len(), 20_000);
        assert!(rep.data.iter().all(|&x| x == 0xCD));
    }

    #[test]
    fn rendezvous_transfers_large_response() {
        // Full two-node run: node 1 answers node 0's request with a 20KB
        // payload; under rendezvous it travels announce → pull → RDMA →
        // complete, transparently to the caller.
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, board, nics) = tm_gm::gm_cluster(2, Arc::clone(&params));
        let nics = std::sync::Mutex::new(
            nics.into_iter().map(Some).collect::<Vec<_>>(),
        );
        let nics = Arc::new(nics);
        let out = tm_sim::run_cluster(2, Arc::clone(&params), move |env| {
            let nic = nics.lock().unwrap()[env.id].take().unwrap();
            let mut cfg = FastConfig::paper(&env.params);
            cfg.rendezvous = true;
            let mut sub = FastSubstrate::new(
                nic,
                env.clock.clone(),
                Arc::clone(&env.params),
                Arc::clone(&board),
                cfg,
            );
            let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
            if env.id == 0 {
                sub.send_request(1, b"want-big");
                let rep = sub.next_incoming();
                assert_eq!(rep.chan, Chan::Response);
                assert_eq!(rep.data, big);
                sub.send_request(1, b"done");
                true
            } else {
                let req = sub.next_incoming();
                assert_eq!(req.data, b"want-big");
                sub.send_response_at(0, &big, req.arrival + Ns::from_us(10));
                // Keep serving (the pull is substrate-internal) until the
                // peer confirms receipt.
                loop {
                    let msg = sub.next_incoming();
                    if msg.chan == Chan::Request && msg.data == b"done" {
                        break true;
                    }
                }
            }
        });
        assert!(out.iter().all(|o| o.result));
    }

    #[test]
    fn rendezvous_preposts_less_memory() {
        let (a_full, _) = pair(false);
        let (a_rdv, _) = pair(true);
        assert!(
            a_rdv.prepost_bytes < a_full.prepost_bytes,
            "rendezvous {} vs full {}",
            a_rdv.prepost_bytes,
            a_full.prepost_bytes
        );
    }

    #[test]
    fn steady_state_small_sends_allocate_nothing() {
        // Acceptance: once the pools are warm, a small request/response
        // round trip touches no fresh heap storage — every send gathers
        // into a recycled registered buffer and every receive surfaces in
        // a recycled wire buffer.
        let (mut a, mut b) = pair(false);
        // Warm-up: populate both DMA free lists and the wire pool.
        for _ in 0..4 {
            a.send_request(1, b"warm-up-msg");
            let req = b.next_incoming();
            b.send_response_at(0, b"warm-up-rep", req.arrival + Ns::from_us(2));
            let rep = a.next_incoming();
            pool::give(req.data);
            pool::give(rep.data);
        }
        let fresh_a = a.send_pool_fresh_takes();
        let fresh_b = b.send_pool_fresh_takes();
        pool::reset_stats();
        for _ in 0..64 {
            a.send_request(1, b"steady-state");
            let req = b.next_incoming();
            b.send_response_at(0, b"steady-reply", req.arrival + Ns::from_us(2));
            let rep = a.next_incoming();
            pool::give(req.data);
            pool::give(rep.data);
        }
        assert_eq!(
            a.send_pool_fresh_takes(),
            fresh_a,
            "sender allocated fresh DMA storage in steady state"
        );
        assert_eq!(
            b.send_pool_fresh_takes(),
            fresh_b,
            "responder allocated fresh DMA storage in steady state"
        );
        let stats = pool::stats();
        assert_eq!(stats.misses, 0, "receive surfacing missed the wire pool");
        assert!(stats.hits >= 128, "expected pooled receives, got {stats:?}");
    }

    #[test]
    fn poll_request_sees_only_arrived() {
        let (mut a, mut b) = pair(false);
        a.send_request(1, b"later");
        assert!(b.poll_request().is_none(), "virtual time not reached");
        b.clock().borrow_mut().advance(Ns::from_us(100));
        let msg = b.poll_request().expect("arrived by now");
        assert_eq!(msg.data, b"later");
    }

    #[test]
    fn two_ports_only() {
        // The whole point of connection multiplexing: the substrate uses
        // ports 1 and 2 regardless of cluster size.
        let params = Arc::new(SimParams::paper_testbed());
        let (_f, board, nics) = gm_cluster_driven(8, Arc::clone(&params));
        for nic in nics {
            let s = FastSubstrate::new(
                nic,
                shared_clock(),
                Arc::clone(&params),
                Arc::clone(&board),
                FastConfig::paper(&params),
            );
            assert!(s.gm().port_interrupts(REQ_PORT));
            assert!(!s.gm().port_interrupts(REP_PORT));
        }
    }
}
