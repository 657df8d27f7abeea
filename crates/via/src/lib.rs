//! # via — a Virtual Interface Architecture stack over the simulated kernel
//!
//! Models the VIA components the paper's mechanism serves (VIA spec 1.0,
//! Intel/Compaq/Microsoft 1997):
//!
//! * **Virtual Interfaces** ([`vi`]): pairs of send/receive work queues with
//!   doorbells, connected point-to-point;
//! * **descriptor processing** ([`descriptor`]): send/receive and RDMA-write
//!   descriptors with scatter/gather segments, completed through completion
//!   queues;
//! * the **Translation and Protection Table** ([`tpt`]): per-page physical
//!   frame + protection tag, filled at memory registration — the structure
//!   whose *staleness* under an unreliable pinning strategy is the paper's
//!   subject;
//! * the **kernel agent** ([`nic::Node::register_mem`]): registration traps
//!   that pin user memory via a configurable `vialock` strategy and fill the
//!   TPT;
//! * a **fabric** ([`system::ViaSystem`]): multiple nodes, each a simulated
//!   kernel plus NIC, exchanging packets; DMA is performed with the physical
//!   frame numbers stored in the TPT — never through page tables — so a
//!   page the VM moved under an unreliable strategy is silently missed,
//!   exactly as on real hardware.
//!
//! The VIPL entry points map one-to-one onto [`system::ViaSystem`] methods:
//! `VipRegisterMem` is `register_mem`, `VipPostSend` is `post_send`,
//! `VipCQDone` is `poll_cq`, and so on (`examples/quickstart.rs`).
//!
//! ```
//! use via::system::ViaSystem;
//! use via::tpt::ProtectionTag;
//! use vialock::StrategyKind;
//! use simmem::{prot, KernelConfig, PAGE_SIZE};
//!
//! // Two nodes, one process each, a connected VI pair.
//! let mut sys = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
//! let (pa, pb) = (sys.spawn_process(0), sys.spawn_process(1));
//! let tag = ProtectionTag(7);
//! let va = sys.create_vi(0, pa, tag).unwrap();
//! let vb = sys.create_vi(1, pb, tag).unwrap();
//! sys.connect((0, va), (1, vb)).unwrap();
//!
//! // Registered buffers on both sides.
//! let sbuf = sys.mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
//! let rbuf = sys.mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
//! sys.write_user(0, pa, sbuf, b"hello VIA").unwrap();
//! let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
//! let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
//!
//! // Receive must be pre-posted; then send, then pump the fabric.
//! sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
//! sys.post_send(0, va, sh, sbuf, 9).unwrap();
//! sys.pump().unwrap();
//!
//! let mut out = [0u8; 9];
//! sys.read_user(1, pb, rbuf, &mut out).unwrap();
//! assert_eq!(&out, b"hello VIA");
//! ```

pub mod descriptor;
pub mod error;
pub mod fabric;
pub mod nic;
pub mod spsc;
pub mod system;
pub mod threaded;
pub mod tpt;
pub mod vi;

pub use descriptor::{DescOp, DescStatus, Descriptor};
pub use error::{ViaError, ViaResult};
pub use fabric::{Fabric, FabricNode, RegPort};
pub use nic::{Nic, NicStats, Node};
pub use system::{NodeId, ViaSystem};
pub use threaded::{ClusterBuilder, FabricStats, ThreadedCluster};
pub use tpt::{MemId, ProtectionTag, Tpt, TptEntry};
pub use vi::{Completion, ViId, ViState, VirtualInterface};
