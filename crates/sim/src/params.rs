//! The calibrated cost model.
//!
//! Every constant here models the paper's testbed (§3.1): 16 nodes, each a
//! 4-way 700 MHz Pentium-III with a 66 MHz/64-bit PCI bus, LANai-9 Myrinet
//! NICs on a 2 Gb/s cut-through crossbar, Linux 2.4.18. Calibration targets
//! are the paper's own measurements:
//!
//! * raw GM:   8.99 µs one-way latency (1 byte), ~235 MB/s bandwidth
//! * FAST/GM:  9.4 µs latency, ~215 MB/s (one extra send-side copy)
//! * UDP/GM:   ~30 µs latency (digits lost in the provided OCR text;
//!   contemporary sockets-over-GM measurements sit in the 25–35 µs range)
//!
//! `tests/calibration.rs` in the workspace root asserts these targets.

use crate::clock::AsyncScheme;
use crate::faults::FaultPlan;
use crate::sched::TokenMode;
use crate::time::Ns;

/// Wire and switch model for the Myrinet-2000 fabric.
#[derive(Debug, Clone)]
pub struct MyrinetParams {
    /// Effective link bandwidth in MB/s. Raw links are 2 Gb/s = 250 MB/s;
    /// routing headers + CRC trailers shave ~5%.
    pub link_mb_s: f64,
    /// Cut-through latency of the (single) crossbar switch.
    pub switch_latency: Ns,
    /// Fixed NIC transmit-side cost: LANai picks up the send descriptor and
    /// programs the DMA engine.
    pub nic_tx: Ns,
    /// Fixed NIC receive-side cost: LANai matches the packet and programs
    /// the host-bound DMA.
    pub nic_rx: Ns,
    /// Cost of raising a host interrupt from the NIC (the firmware
    /// modification of §2.2.4).
    pub host_interrupt: Ns,
    /// LANai-side cost of merging one combined barrier arrival in firmware
    /// (vector-clock meet/join plus record-set union), used by the
    /// NIC-offloaded combining-tree barrier (§5 future work). Charged per
    /// arrival *instead of* `host_interrupt` + the host handler dispatch.
    pub nic_combine: Ns,
    /// LANai-side per-record cost while combining (the firmware walks the
    /// piggybacked write-notice list); the 132 MHz LANai is slower per item
    /// than the host CPU, but never pays the PCI + interrupt crossing.
    pub nic_combine_per_record: Ns,
}

impl Default for MyrinetParams {
    fn default() -> Self {
        MyrinetParams {
            link_mb_s: 237.0,
            switch_latency: Ns(300),
            nic_tx: Ns(2_500),
            nic_rx: Ns(2_800),
            host_interrupt: Ns(7_000),
            nic_combine: Ns(1_500),
            nic_combine_per_record: Ns(400),
        }
    }
}

/// Host-side costs common to every transport.
#[derive(Debug, Clone)]
pub struct HostParams {
    /// Bulk memcpy through the memory system (kernel socket copies).
    pub memcpy_mb_s: f64,
    /// Copy into a warm, registered send-pool buffer (write-combined,
    /// mostly cache-resident for TreadMarks' small messages). This is what
    /// lets FAST/GM sit at ~215 MB/s instead of collapsing to the
    /// store-and-forward rate.
    pub fast_copy_mb_s: f64,
    /// One syscall entry/exit.
    pub syscall: Ns,
    /// SIGIO delivery: kernel interrupt bottom half + signal queueing +
    /// user handler dispatch. The stock TreadMarks async path.
    pub sigio: Ns,
    /// Kernel scheduler wakeup of a blocked process.
    pub sched_wakeup: Ns,
    /// Pinning one page of memory for DMA (gm_register_memory).
    pub pin_page: Ns,
}

impl Default for HostParams {
    fn default() -> Self {
        HostParams {
            memcpy_mb_s: 800.0,
            fast_copy_mb_s: 2_300.0,
            syscall: Ns(1_500),
            sigio: Ns(22_000),
            sched_wakeup: Ns(5_000),
            pin_page: Ns(1_000),
        }
    }
}

/// GM user-level API model (§1.2 of the paper, and the GM API spec).
#[derive(Debug, Clone)]
pub struct GmParams {
    /// Ports per NIC. GM offers 8; port 0 is reserved for the mapper,
    /// leaving seven usable (the paper: "That gives us only seven ports").
    pub num_ports: u8,
    /// Host CPU cost of gm_send_with_callback (descriptor build + doorbell).
    pub send_overhead: Ns,
    /// Host CPU cost of one gm_receive poll that finds an event.
    pub recv_poll_hit: Ns,
    /// Host CPU cost of one empty gm_receive poll.
    pub recv_poll_miss: Ns,
    /// Sender-side resend window: if the receiver never preposts a matching
    /// buffer, the send fails via callback and the port is disabled.
    pub resend_timeout: Ns,
    /// Cost of re-enabling a disabled port (GM probes the network).
    pub port_reenable: Ns,
    /// Send tokens per port (max outstanding sends).
    pub send_tokens: usize,
}

impl Default for GmParams {
    fn default() -> Self {
        GmParams {
            num_ports: 8,
            send_overhead: Ns(900),
            recv_poll_hit: Ns(2_500),
            recv_poll_miss: Ns(150),
            resend_timeout: Ns::from_secs(3),
            port_reenable: Ns::from_ms(50),
            send_tokens: 16,
        }
    }
}

/// Kernel UDP/IP stack model for the Sockets-GM baseline (UDP/GM).
#[derive(Debug, Clone)]
pub struct UdpParams {
    /// Transmit-side UDP/IP processing (header build, route lookup, …).
    pub tx_proto: Ns,
    /// Receive-side processing (interrupt bottom half, IP/UDP demux).
    pub rx_proto: Ns,
    /// Receive NIC interrupt (the kernel path takes one per packet; GM's
    /// user-level path does not).
    pub rx_interrupt: Ns,
    /// Fragment size: sockets-GM carries datagrams over GM in chunks.
    pub mtu: usize,
    /// Per-fragment kernel bookkeeping beyond the first.
    pub per_fragment: Ns,
    /// Initial DSM retransmission timeout (virtual time). Only consulted
    /// when the run is lossy; a zero-fault run never arms the timer.
    /// Stock TreadMarks used a comparable per-request UDP timeout.
    pub rto: Ns,
    /// Retransmission cap: after this many resends of one request the
    /// runtime gives up and panics (a real deployment would evict the
    /// peer). Backoff doubles the RTO on every resend.
    pub rto_retries: u32,
}

impl Default for UdpParams {
    fn default() -> Self {
        UdpParams {
            tx_proto: Ns(5_000),
            rx_proto: Ns(5_000),
            rx_interrupt: Ns(8_000),
            mtu: 1_500,
            per_fragment: Ns(2_000),
            rto: Ns::from_us(400),
            rto_retries: 12,
        }
    }
}

/// TreadMarks memory-management costs (§2 "user-level memory management").
#[derive(Debug, Clone)]
pub struct DsmParams {
    /// SIGSEGV delivery + fault handler entry on a page access miss.
    pub page_fault: Ns,
    /// One mprotect call.
    pub mprotect: Ns,
    /// Fixed overhead of creating a twin (page copy is charged at
    /// `HostParams::memcpy_mb_s` on top).
    pub twin_overhead: Ns,
    /// Word-compare scan rate for diff creation, MB/s of page scanned.
    pub diff_scan_mb_s: f64,
    /// Fixed overhead per diff created/applied.
    pub diff_overhead: Ns,
    /// Request-handler entry: decode + dispatch inside the interrupt/SIGIO
    /// context.
    pub handler_dispatch: Ns,
    /// Page size. TreadMarks uses the VM page size.
    pub page_size: usize,
    /// Largest message TreadMarks can send (the paper: 32 KB, GM size 15).
    pub max_msg: usize,
}

impl Default for DsmParams {
    fn default() -> Self {
        DsmParams {
            page_fault: Ns(10_000),
            mprotect: Ns(3_000),
            twin_overhead: Ns(1_000),
            diff_scan_mb_s: 600.0,
            diff_overhead: Ns(1_000),
            handler_dispatch: Ns(1_500),
            page_size: 4_096,
            max_msg: 32 * 1024,
        }
    }
}

/// CPU model for application compute costs.
#[derive(Debug, Clone)]
pub struct CpuParams {
    /// Nanoseconds per abstract "work unit" — roughly a handful of
    /// floating-point ops with their loads/stores on a 700 MHz P-III.
    pub ns_per_unit: f64,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams { ns_per_unit: 10.0 }
    }
}

/// Everything, bundled. One of these is shared (via `Arc`) by the fabric
/// and all node threads.
#[derive(Debug, Clone, Default)]
pub struct SimParams {
    pub net: MyrinetParams,
    pub host: HostParams,
    pub gm: GmParams,
    pub udp: UdpParams,
    pub dsm: DsmParams,
    pub cpu: CpuParams,
    /// Deterministic fault-injection plan; all-off by default.
    pub faults: FaultPlan,
    /// Reservation-token granularity for the lockstep scheduler: one
    /// cluster-wide token ([`TokenMode::Single`], the PR 6 baseline) or
    /// one per rx link ([`TokenMode::PerReceiver`], the default —
    /// transmits to distinct receivers overlap). See [`crate::sched`].
    pub tokens: TokenMode,
}

impl SimParams {
    /// The paper's testbed, as calibrated against §3.1.
    pub fn paper_testbed() -> Self {
        SimParams::default()
    }

    /// The same as [`SimParams::paper_testbed`]: every cluster runs under
    /// the lockstep scheduler. Kept for callers written when a second,
    /// free-running scheduler existed.
    pub fn lockstep_testbed() -> Self {
        SimParams::paper_testbed()
    }

    /// The async scheme the paper adopted for FAST/GM (modified firmware).
    pub fn interrupt_scheme(&self) -> AsyncScheme {
        AsyncScheme::Interrupt {
            cost: self.net.host_interrupt,
        }
    }

    /// The stock TreadMarks/UDP async scheme.
    pub fn sigio_scheme(&self) -> AsyncScheme {
        AsyncScheme::Sigio {
            cost: self.host.sigio,
        }
    }

    /// Compute cost helper: `units` abstract work units.
    pub fn work(&self, units: u64) -> Ns {
        Ns((units as f64 * self.cpu.ns_per_unit).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = SimParams::paper_testbed();
        assert_eq!(p.gm.num_ports, 8);
        assert_eq!(p.dsm.page_size, 4096);
        assert!(p.net.link_mb_s > 200.0 && p.net.link_mb_s <= 250.0);
        assert!(p.host.fast_copy_mb_s > p.host.memcpy_mb_s);
    }

    #[test]
    fn raw_gm_small_message_latency_near_9us() {
        // One-way fixed path: send overhead + NIC tx + switch + NIC rx +
        // poll hit. This is what tm-gm charges for a 1-byte message.
        let p = SimParams::paper_testbed();
        let fixed = p.gm.send_overhead
            + p.net.nic_tx
            + p.net.switch_latency
            + p.net.nic_rx
            + p.gm.recv_poll_hit;
        let wire = Ns::for_bytes(1, p.net.link_mb_s);
        let total = (fixed + wire).as_us();
        assert!(
            (total - 8.99).abs() < 0.5,
            "raw GM small-message latency {total:.2}us, want ~8.99us"
        );
    }

    #[test]
    fn work_scales_linearly() {
        let p = SimParams::paper_testbed();
        assert_eq!(p.work(0), Ns(0));
        assert_eq!(p.work(100), Ns(1_000));
    }

    #[test]
    fn interrupt_scheme_uses_nic_cost() {
        let p = SimParams::paper_testbed();
        match p.interrupt_scheme() {
            AsyncScheme::Interrupt { cost } => assert_eq!(cost, p.net.host_interrupt),
            _ => panic!("wrong scheme"),
        }
    }
}
