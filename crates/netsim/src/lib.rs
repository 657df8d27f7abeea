//! # netsim — interconnect cost models and simulated time
//!
//! The papers in the SFB393 volume report wall-clock numbers from real
//! hardware (Dolphin D310 PCI–SCI bridges, Giganet cLAN VIA adapters,
//! switched FastEthernet, 450 MHz Pentium III hosts). We cannot have that
//! hardware, so this crate provides **deterministic cost models calibrated
//! to the published figures**; the experiment harness combines them with
//! event counts from the functional simulation to regenerate each figure's
//! *shape* (who wins, by what factor, where the crossovers fall).
//!
//! * [`cost`] — latency/bandwidth profiles for SCI shared-memory PIO,
//!   VIA/cLAN descriptor DMA, Dolphin's conventional DMA engine, and
//!   FastEthernet, with the constants and their sources documented;
//! * [`proto`] — per-protocol cost composition (shared-memory, one-copy
//!   VIA send/receive, zero-copy RDMA rendezvous) including registration
//!   and registration-cache effects;
//! * [`cpu`] — the CPU-availability model of the PCI–SCI bridge paper
//!   (`t_avail,DMA = 0.85 · t_DMA` vs. `t_avail,SHM = t_DMA − t_SHM`);
//! * [`sweep`] — NetPIPE-style message-size sweeps.
//!
//! All times are in **nanoseconds** (`u64`), all sizes in bytes.

pub mod cost;
pub mod cpu;
pub mod proto;
pub mod sweep;

pub use cost::{Nanos, NetworkProfile};
pub use cpu::CpuAvailability;
pub use proto::{ProtocolCosts, RegistrationCost};
pub use sweep::{bandwidth_mb_s, netpipe_sizes};
