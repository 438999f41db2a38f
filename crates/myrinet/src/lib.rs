//! # tm-myrinet — simulated Myrinet-2000 fabric and LANai NIC
//!
//! Models the wire: full-duplex 2 Gb/s links into a cut-through crossbar
//! switch, with per-link serialization (so bandwidth contention is real:
//! two senders targeting one receiver halve each other's throughput), plus
//! the LANai NIC's fixed per-packet processing costs.
//!
//! What it deliberately does **not** model: GM's buffer/token semantics
//! (that is `tm-gm`), kernel sockets (that is `tm-udp`). Both layers share
//! this fabric, which is exactly the physical situation of the paper —
//! UDP/GM and FAST/GM ran over the same NICs and switch.
//!
//! Delivery is via real channels: a node thread blocking on
//! [`NicHandle::recv`] is genuinely parked until a packet lands,
//! so protocol deadlocks deadlock.

pub mod fabric;
pub mod nic;
pub mod packet;

pub use fabric::Fabric;
pub use nic::NicHandle;
pub use packet::{NodeId, RawPacket};
