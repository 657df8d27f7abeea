//! # vialock — reliably locking VIA communication memory
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Seifert & Rehm, *"Proposing a Mechanism for Reliably Locking VIA
//! Communication Memory in Linux"*, CLUSTER 2000): the **registration
//! machinery of a VIA kernel agent**, with pluggable pinning strategies so
//! the deficient approaches the paper analyses can be compared head-to-head
//! with the kiobuf-based mechanism it proposes.
//!
//! ## Strategies ([`strategy`])
//!
//! | Strategy | Models | Reliable? | Nests? | Caveats |
//! |---|---|---|---|---|
//! | [`StrategyKind::RefcountOnly`] | Berkeley-VIA, M-VIA | **no** — pages are swapped out and orphaned under pressure | yes | silently loses DMA |
//! | [`StrategyKind::RawFlags`] | Giganet cLAN driver | yes | no | blindly sets/clears `PG_locked`, clobbering the kernel's I/O lock |
//! | [`StrategyKind::VmaMlock`] | `mlock`-based kernel agents | yes | only with driver-side interval bookkeeping | needs `CAP_IPC_LOCK` juggling; walks/splits VMAs |
//! | [`StrategyKind::KiobufReliable`] | **the paper's proposal** | yes | yes | none of the above |
//!
//! ## The proposed mechanism
//!
//! Registration maps the user range into a **kiobuf** (faulting pages in
//! through the regular VM paths, taking proper page references) and then
//! pins each page through a [`pin::PinTable`]: a per-frame pin count where
//! the *first* pin acquires the page's `PG_locked` bit — waiting for any
//! in-flight I/O — and the *last* unpin releases it. This gives the nesting
//! semantics the VIA specification demands ("memory regions may be
//! registered several times") without ever touching page tables or VMAs.
//!
//! On top sit a [`region::RegionTable`] (handle → pinned frames, the data a
//! NIC's translation-and-protection table is filled from) and an LRU
//! [`cache::RegistrationCache`] that amortises registration cost for
//! zero-copy protocols that register buffers on the fly.
//!
//! ```
//! use simmem::{Kernel, KernelConfig, Capabilities, prot, PAGE_SIZE};
//! use vialock::{MemoryRegistry, StrategyKind};
//!
//! let mut k = Kernel::new(KernelConfig::small());
//! let pid = k.spawn_process(Capabilities::default());
//! let buf = k.mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
//!
//! let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
//! let h = reg.register(&mut k, pid, buf, 4 * PAGE_SIZE).unwrap();
//! assert_eq!(reg.frames(h).unwrap().len(), 4);
//! // The same range may be registered again — multiple registration.
//! let h2 = reg.register(&mut k, pid, buf, 4 * PAGE_SIZE).unwrap();
//! reg.deregister(&mut k, h).unwrap();
//! // Pages stay pinned until the last registration is gone.
//! assert!(reg.verify_consistency(&k, h2).unwrap());
//! reg.deregister(&mut k, h2).unwrap();
//! ```

pub mod cache;
pub mod error;
pub mod fault;
pub mod interval;
pub mod lru;
pub mod pin;
pub mod region;
pub mod registry;
mod span;
pub mod strategy;

// The workspace-wide counter-diffing macro: every stats block (`MmStats`,
// `NicStats`, `MsgStats`, fabric counters) derives its `since()` from this.
pub use simmem::impl_since;

pub use cache::{CacheStats, RegistrationCache};
pub use error::{RegError, RegResult};
pub use fault::{FaultHandle, FaultPlan, FaultRule, FaultSite};
pub use interval::IntervalCounter;
pub use lru::{CacheReleaseError, CoveringLru};
pub use pin::PinTable;
pub use region::{MemHandle, Region, RegionTable};
pub use registry::{MemoryRegistry, RegistryStats};
pub use simmem::PageSpan;
pub use strategy::{PinToken, StrategyKind};
