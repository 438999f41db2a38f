//! Framing-path round-trip tests: a message of any size must survive
//! `send` → (fragmentation) → reassembly → surfacing *byte-identical* on
//! both substrates. Deterministic sweeps pin every GM size-class boundary
//! and the rendezvous threshold; proptest fills in random sizes.

use std::sync::Arc;

use proptest::prelude::*;
use tm_fast::{FastConfig, FastSubstrate, UdpSubstrate};
use tm_gm::{gm_cluster, gm_cluster_driven, gm_max_length, MAX_SIZE_CLASS};
use tm_myrinet::Fabric;
use tm_sim::clock::shared_clock;
use tm_sim::{Ns, SimParams};
use tmk::{Chan, Substrate};

fn params() -> Arc<SimParams> {
    Arc::new(SimParams::paper_testbed())
}

fn fast_pair(rendezvous: bool) -> (FastSubstrate, FastSubstrate) {
    let params = params();
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

fn udp_pair() -> (UdpSubstrate, UdpSubstrate) {
    let params = params();
    let (_f, mut nics) = Fabric::new_driven(2, Arc::clone(&params));
    let b = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), Arc::clone(&params));
    let a = UdpSubstrate::new(nics.pop().unwrap(), shared_clock(), params);
    (a, b)
}

/// Deterministic non-constant payload so off-by-one splices show up.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131) + 7) as u8).collect()
}

fn roundtrip<S: Substrate>(a: &mut S, b: &mut S, len: usize) {
    let data = payload(len);
    a.send_request(1, &data);
    let req = b.next_incoming();
    assert_eq!(req.chan, Chan::Request);
    assert_eq!(req.data, data, "request of {len} bytes mangled");
    b.send_response_at(0, &data, req.arrival + Ns::from_us(5));
    let rep = a.next_incoming();
    assert_eq!(rep.chan, Chan::Response);
    assert_eq!(rep.data, data, "response of {len} bytes mangled");
}

/// Payload lengths whose one-byte-framed messages straddle every GM size
/// class, plus the fragmentation threshold above the largest class.
fn class_boundary_lengths() -> Vec<usize> {
    let mut lens = vec![0usize, 1];
    for s in 1..=MAX_SIZE_CLASS {
        let m = gm_max_length(s);
        lens.extend([m.saturating_sub(2), m - 1, m]);
    }
    let limit = gm_max_length(MAX_SIZE_CLASS);
    lens.extend([limit + 1, 2 * limit, 3 * limit + 17]);
    lens.sort_unstable();
    lens.dedup();
    lens
}

#[test]
fn fast_roundtrips_every_size_class_boundary() {
    let (mut a, mut b) = fast_pair(false);
    for len in class_boundary_lengths() {
        roundtrip(&mut a, &mut b, len);
    }
}

#[test]
fn udp_roundtrips_across_the_datagram_limit() {
    const DGRAM_LIMIT: usize = 60 * 1024;
    let (mut a, mut b) = udp_pair();
    for len in [
        0,
        1,
        63,
        64,
        DGRAM_LIMIT - 2,
        DGRAM_LIMIT - 1,
        DGRAM_LIMIT,
        DGRAM_LIMIT + 1,
        2 * DGRAM_LIMIT + 333,
    ] {
        roundtrip(&mut a, &mut b, len);
    }
}

/// Responses straddling the rendezvous threshold travel announce → pull →
/// RDMA → complete; below it they use a preposted buffer. Either way the
/// requester must see identical bytes. Needs both nodes live (the pull is
/// serviced by the responder), hence the threaded cluster.
#[test]
fn fast_rendezvous_threshold_roundtrips() {
    let params = params();
    let (_f, board, nics) = gm_cluster(2, Arc::clone(&params));
    let nics = Arc::new(std::sync::Mutex::new(
        nics.into_iter().map(Some).collect::<Vec<_>>(),
    ));
    // gm_size(len + 2) crosses rdv_min_size=14 at len = 8191.
    let lens = [8189usize, 8190, 8191, 8192, 20_000];
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
        if env.id == 0 {
            for &len in &lens {
                sub.send_request(1, &len.to_le_bytes());
                let rep = sub.next_incoming();
                assert_eq!(rep.chan, Chan::Response);
                assert_eq!(rep.data, payload(len), "rendezvous echo of {len} bytes");
            }
            sub.send_request(1, b"done");
            true
        } else {
            loop {
                let req = sub.next_incoming();
                if req.data == b"done" {
                    break true;
                }
                let len = usize::from_le_bytes(req.data[..8].try_into().unwrap());
                sub.send_response_at(0, &payload(len), req.arrival + Ns::from_us(10));
            }
        }
    });
    assert!(out.iter().all(|o| o.result));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fast_random_lengths_roundtrip(len in 0usize..100_000) {
        let (mut a, mut b) = fast_pair(false);
        roundtrip(&mut a, &mut b, len);
    }

    #[test]
    fn udp_random_lengths_roundtrip(len in 0usize..200_000) {
        let (mut a, mut b) = udp_pair();
        roundtrip(&mut a, &mut b, len);
    }
}
