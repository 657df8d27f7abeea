//! # simmem — a faithful user-space model of the Linux 2.2/2.4 VM
//!
//! The paper *"Proposing a Mechanism for Reliably Locking VIA Communication
//! Memory in Linux"* (Seifert & Rehm, CLUSTER 2000) is entirely about how
//! different page-pinning strategies interact with the Linux swapping
//! machinery. This crate reproduces that machinery at the algorithmic level:
//!
//! * a physical **frame arena** with a `mem_map` of per-page descriptors
//!   (`count`, `PG_locked`, `PG_reserved`, age bits) — see [`page`];
//! * per-process **address spaces** with page tables and **virtual memory
//!   areas** (VMAs) including `VM_LOCKED` — see [`mm`] and [`vma`];
//! * **demand paging**, a shared **zero page** with copy-on-write, and
//!   swap-in/out through a finite **swap device** — see [`fault`] and
//!   [`swap`];
//! * the 2.2-era page stealer: `try_to_free_pages` → `swap_out` walking
//!   process VMAs and page tables with second-chance accessed bits, skipping
//!   `VM_LOCKED` VMAs and `PG_locked`/`PG_reserved` pages, and — crucially —
//!   swapping out pages *regardless of an elevated reference count* (the
//!   behaviour the paper's `locktest` experiment exposes) — see [`reclaim`];
//! * `mlock`/`munlock` with VMA splitting/merging and the `CAP_IPC_LOCK`
//!   privilege check — see [`mlock`];
//! * **kiobufs** (`map_user_kiobuf` / `lock_kiobuf` / `unlock_kiobuf` /
//!   `unmap_kiobuf`), the raw-I/O pinning facility the paper builds its
//!   reliable registration mechanism on — see [`kiobuf`].
//!
//! The entry point is [`Kernel`]: create one with a [`KernelConfig`], spawn
//! processes, map anonymous memory, read/write it through the fault path, and
//! let device models (the VIA NIC in the `via` crate) access **physical**
//! frames directly via [`Kernel::dma_read`] / [`Kernel::dma_write`] — exactly
//! like a bus-master NIC that holds physical addresses in its translation
//! table.
//!
//! ```
//! use simmem::{Kernel, KernelConfig, prot};
//!
//! let mut k = Kernel::new(KernelConfig::small());
//! let pid = k.spawn_process(Default::default());
//! let buf = k.mmap_anon(pid, 4 * simmem::PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
//! k.write_user(pid, buf, b"hello").unwrap();
//! let mut back = [0u8; 5];
//! k.read_user(pid, buf, &mut back).unwrap();
//! assert_eq!(&back, b"hello");
//! ```

pub mod error;
pub mod fault;
pub mod fork;
pub mod frame;
pub mod gup;
pub mod kernel;
pub mod kiobuf;
pub mod mlock;
pub mod mm;
pub mod page;
pub mod reclaim;
pub mod span;
pub mod stats;
pub mod swap;
pub mod vma;

pub use error::MmError;
pub use frame::{FrameId, PhysMem};
pub use gup::PageHold;
pub use kernel::{Capabilities, Injector, Kernel, KernelConfig, Pid};
pub use kiobuf::{Kiobuf, KiobufId};
pub use mm::{AddressSpace, Pte, VirtAddr, Vpn};
pub use page::{PageDescriptor, PageFlags};
pub use span::{within, PageSpan, SpanWraps};
pub use stats::{CounterCell, MemInfo, MmCounters, MmStats};
pub use swap::{SlotId, SwapDevice};
pub use vma::{VmArea, VmFlags, VmaSet};

/// Page size of the simulated machine (x86: 4 KiB), as in the paper.
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`]; virtual page number = addr >> PAGE_SHIFT.
pub const PAGE_SHIFT: u32 = 12;
/// Bitmask selecting the offset-within-page part of an address.
pub const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// Round an address down to its page base.
#[inline]
pub fn page_base(addr: u64) -> u64 {
    addr & !PAGE_MASK
}

/// Site codes for the kernel's pluggable deterministic fault injector
/// (see [`Kernel::set_injector`] / [`Kernel::inject`]).
///
/// The kernel itself fires the codes below; the hook is deliberately
/// `u32`-typed so layers *above* the kernel (the VIA NIC, the wire) can
/// route their own sites through the same seeded plan — they allocate
/// codes from [`UPPER_BASE`] upward. The full catalog lives in the
/// `vialock::fault` module, which owns the plan.
pub mod inject {
    /// `__get_free_page()` fails as if reclaim found nothing (`ENOMEM`).
    pub const FRAME_ALLOC: u32 = 0;
    /// `swap_out` finds the swap device full mid-reclaim.
    pub const SWAP_FULL: u32 = 1;
    /// `do_swap_page` hits a device read error (`EIO`).
    pub const SWAP_IO: u32 = 2;
    /// A page's `PG_locked` bit is held by a foreign I/O — pinning a batch
    /// observes `WouldBlock` mid-way and must roll back.
    pub const PAGE_LOCK: u32 = 3;
    /// The page stealer is about to dissolve a cold on-demand pin; firing
    /// this site suppresses the unpin (the frame stays pinned in place),
    /// modeling a pin the reclaim pass could not break.
    pub const PRESSURE_UNPIN: u32 = 4;
    /// First code available to layers above the kernel.
    pub const UPPER_BASE: u32 = 16;
}

/// Protection bits for mappings, mirroring `PROT_READ`/`PROT_WRITE`.
pub mod prot {
    /// Pages may be read.
    pub const READ: u8 = 0b01;
    /// Pages may be written.
    pub const WRITE: u8 = 0b10;
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(page_base(0x1234), 0x1000);
    }
}

#[cfg(test)]
mod swapcache_tests;

#[cfg(test)]
mod stealer_diff_tests;

#[cfg(test)]
mod gup_diff_tests;
