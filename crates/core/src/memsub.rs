//! An idealized in-memory substrate.
//!
//! Used two ways:
//! * protocol unit/property tests that want DSM semantics without the
//!   full transport stack underneath;
//! * the "infinitely fast network" ablation point — set `latency` to zero
//!   and the remaining execution time is pure protocol + compute.

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use tm_sim::{AsyncScheme, Ns, SharedClock, SimParams, Until, Wait};

use crate::substrate::{Chan, IncomingMsg, Substrate};

struct MemMsg {
    from: usize,
    chan: Chan,
    data: Vec<u8>,
    arrival: Ns,
}

/// Construction halves: move one [`MemEndpoint`] into each node thread and
/// wrap it with [`MemSubstrate::new`].
pub struct MemEndpoint {
    id: usize,
    rx: Receiver<MemMsg>,
    txs: Vec<Sender<MemMsg>>,
}

/// Build endpoints for an `n`-node in-memory cluster.
pub fn mem_cluster(n: usize) -> Vec<MemEndpoint> {
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
    rxs.into_iter()
        .enumerate()
        .map(|(id, rx)| MemEndpoint {
            id,
            rx,
            txs: txs.clone(),
        })
        .collect()
}

/// The per-node substrate object.
pub struct MemSubstrate {
    ep: MemEndpoint,
    nprocs: usize,
    clock: SharedClock,
    params: Arc<SimParams>,
    /// One-way message latency (0 for the ideal-network ablation).
    latency: Ns,
    /// Host-side cost charged per send.
    send_cost: Ns,
    requests: VecDeque<IncomingMsg>,
    responses: VecDeque<IncomingMsg>,
}

impl MemSubstrate {
    pub fn new(
        ep: MemEndpoint,
        clock: SharedClock,
        params: Arc<SimParams>,
        latency: Ns,
        send_cost: Ns,
    ) -> Self {
        let nprocs = ep.txs.len();
        MemSubstrate {
            ep,
            nprocs,
            clock,
            params,
            latency,
            send_cost,
            requests: VecDeque::new(),
            responses: VecDeque::new(),
        }
    }

    fn stash(&mut self, m: MemMsg) {
        let msg = IncomingMsg {
            from: m.from,
            chan: m.chan,
            data: m.data,
            arrival: m.arrival,
            lost: false,
        };
        match msg.chan {
            Chan::Request => self.requests.push_back(msg),
            Chan::Response => self.responses.push_back(msg),
        }
    }

    fn drain(&mut self) {
        while let Ok(m) = self.ep.rx.try_recv() {
            self.stash(m);
        }
    }

    /// Earliest-arrival message across both queues.
    fn pop_earliest(&mut self) -> Option<IncomingMsg> {
        let rq = self.requests.front().map(|m| m.arrival);
        let rs = self.responses.front().map(|m| m.arrival);
        match (rq, rs) {
            (None, None) => None,
            (Some(_), None) => self.requests.pop_front(),
            (None, Some(_)) => self.responses.pop_front(),
            (Some(a), Some(b)) => {
                if a <= b {
                    self.requests.pop_front()
                } else {
                    self.responses.pop_front()
                }
            }
        }
    }
}

impl Substrate for MemSubstrate {
    fn my_id(&self) -> usize {
        self.ep.id
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn clock(&self) -> &SharedClock {
        &self.clock
    }

    fn params(&self) -> &Arc<SimParams> {
        &self.params
    }

    fn scheme(&self) -> AsyncScheme {
        // Ideal: requests are noticed instantly and for free.
        AsyncScheme::Interrupt { cost: Ns::ZERO }
    }

    fn send_request(&mut self, to: usize, data: &[u8]) -> bool {
        self.clock.borrow_mut().advance(self.send_cost);
        let now = self.clock.borrow().now();
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        self.ep.txs[to]
            .send(MemMsg {
                from: self.ep.id,
                chan: Chan::Request,
                data: data.to_vec(),
                arrival: now + self.latency,
            })
            .expect("peer gone");
        true
    }

    fn send_request_at(&mut self, to: usize, data: &[u8], at: Ns) {
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        self.ep.txs[to]
            .send(MemMsg {
                from: self.ep.id,
                chan: Chan::Request,
                data: data.to_vec(),
                arrival: at + self.latency,
            })
            .expect("peer gone");
    }

    fn response_cost(&self, _len: usize) -> Ns {
        self.send_cost
    }

    fn send_response_at(&mut self, to: usize, data: &[u8], at: Ns) {
        {
            let mut c = self.clock.borrow_mut();
            c.stats.msgs_sent += 1;
            c.stats.bytes_sent += data.len() as u64;
        }
        self.ep.txs[to]
            .send(MemMsg {
                from: self.ep.id,
                chan: Chan::Response,
                data: data.to_vec(),
                arrival: at + self.latency,
            })
            .expect("peer gone");
    }

    fn poll_request(&mut self) -> Option<IncomingMsg> {
        self.drain();
        let now = self.clock.borrow().now();
        if self.requests.front().is_some_and(|m| m.arrival <= now) {
            self.requests.pop_front()
        } else {
            None
        }
    }

    fn poll_incoming(&mut self) -> Option<IncomingMsg> {
        self.drain();
        let now = self.clock.borrow().now();
        let arrived = |q: &VecDeque<IncomingMsg>| q.front().is_some_and(|m| m.arrival <= now);
        if arrived(&self.requests) || arrived(&self.responses) {
            self.pop_earliest()
        } else {
            None
        }
    }

    /// Never loses a message, so `until` is never armed (see
    /// [`Substrate::wait`]): blocks until the next message.
    fn wait(&mut self, _until: Until) -> Wait<IncomingMsg> {
        loop {
            self.drain();
            if let Some(msg) = self.pop_earliest() {
                let mut c = self.clock.borrow_mut();
                c.wait_until(msg.arrival);
                c.stats.msgs_recv += 1;
                c.stats.bytes_recv += msg.data.len() as u64;
                return Wait::Got(msg);
            }
            match self.ep.rx.recv() {
                Ok(m) => self.stash(m),
                Err(_) => panic!(
                    "node {}: blocked with all peers gone (deadlock or premature exit)",
                    self.ep.id
                ),
            }
        }
    }
}

/// Run a DSM program over the in-memory substrate: one thread per node,
/// each given a ready [`crate::Tmk`] runtime. Returns per-node outcomes in
/// node order.
pub fn run_mem_dsm<R, F>(
    n: usize,
    params: Arc<SimParams>,
    latency: Ns,
    cfg: crate::TmkConfig,
    body: F,
) -> Vec<tm_sim::runner::NodeOutcome<R>>
where
    R: Send + 'static,
    F: Fn(&mut crate::Tmk<MemSubstrate>) -> R + Send + Sync + 'static,
{
    use parking_lot::Mutex;
    let endpoints: Mutex<Vec<Option<MemEndpoint>>> =
        Mutex::new(mem_cluster(n).into_iter().map(Some).collect());
    let endpoints = Arc::new(endpoints);
    tm_sim::run_cluster(n, params, move |env| {
        let ep = endpoints.lock()[env.id].take().expect("endpoint taken twice");
        let sub = MemSubstrate::new(
            ep,
            env.clock.clone(),
            Arc::clone(&env.params),
            latency,
            Ns(500),
        );
        let mut tmk = crate::Tmk::new(sub, cfg.clone());
        let r = body(&mut tmk);
        tmk.exit();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_sim::clock::shared_clock;

    fn pair() -> (MemSubstrate, MemSubstrate) {
        let params = Arc::new(SimParams::paper_testbed());
        let mut eps = mem_cluster(2);
        let b = MemSubstrate::new(
            eps.pop().unwrap(),
            shared_clock(),
            Arc::clone(&params),
            Ns::from_us(5),
            Ns(500),
        );
        let a = MemSubstrate::new(eps.pop().unwrap(), shared_clock(), params, Ns::from_us(5), Ns(500));
        (a, b)
    }

    #[test]
    fn request_roundtrip() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"req");
        let msg = b.next_incoming();
        assert_eq!(msg.chan, Chan::Request);
        assert_eq!(msg.from, 0);
        assert_eq!(msg.data, b"req");
        assert_eq!(b.clock().borrow().now(), msg.arrival);
    }

    #[test]
    fn response_arrives_at_service_time_plus_latency() {
        let (mut a, mut b) = pair();
        b.send_response_at(0, b"resp", Ns::from_us(100));
        let msg = a.next_incoming();
        assert_eq!(msg.chan, Chan::Response);
        assert_eq!(msg.arrival, Ns::from_us(105));
    }

    #[test]
    fn poll_request_respects_virtual_time() {
        let (mut a, mut b) = pair();
        a.send_request(1, b"x");
        assert!(b.poll_request().is_none(), "not arrived in virtual time");
        b.clock().borrow_mut().advance(Ns::from_us(50));
        assert!(b.poll_request().is_some());
    }

    #[test]
    fn earliest_of_request_and_response_wins() {
        let (mut a, mut b) = pair();
        b.send_response_at(0, b"late", Ns::from_ms(1));
        // b's request leaves at ~500ns and lands at ~5.5us — earlier than
        // the 1.005ms response even though it was enqueued second.
        b.send_request(0, b"early");
        let first = a.next_incoming();
        assert_eq!(first.data, b"early");
        let second = a.next_incoming();
        assert_eq!(second.data, b"late");
    }
}
