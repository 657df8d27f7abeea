//! The pinning strategies the paper compares.
//!
//! Each strategy answers the paper's section-2 question — *how are the
//! pages of a registered region kept in physical memory?* — in the way one
//! of the surveyed VIA implementations does, plus the paper's own proposal.

use simmem::{page::PageFlags, FrameId, Kernel, PageHold, PageSpan, Pid, VirtAddr};

use crate::error::{RegError, RegResult};
use crate::pin::PinTable;

/// Which pinning strategy a registry uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Berkeley-VIA / M-VIA: increment `page->count` per page and hope. The
    /// paper's locktest shows the pages are still swapped out and orphaned.
    RefcountOnly,
    /// Giganet cLAN style: refcount **plus** blindly setting `PG_locked`
    /// (and clearing it on deregistration regardless of who holds it). Keeps
    /// pages resident, but races with the kernel's own use of the bit —
    /// "a very risky and unclean solution".
    RawFlags,
    /// VMA-based `do_mlock` with the capability dance; reliable but
    /// non-nesting, so the kernel agent must bookkeep intervals itself.
    VmaMlock,
    /// **The paper's proposal**: kiobuf mapping + pin-table-managed page
    /// locks. Reliable, nestable, page-table-free.
    KiobufReliable,
    /// The inversion from *Using Memory-Protection to Simplify Zero-copy
    /// Operations*: register the span **without pinning anything**. Present
    /// pages are write-protected (protection-trap state), the NIC pins
    /// lazily on first access through the fault handler, and the page
    /// stealer may dissolve cold pins under pressure, invalidating the TPT
    /// through the generation mechanism.
    OnDemand,
}

impl StrategyKind {
    /// All strategies, in the order the paper discusses them (the lazy
    /// inversion, which postdates the paper, comes last).
    pub const ALL: [StrategyKind; 5] = [
        StrategyKind::RefcountOnly,
        StrategyKind::RawFlags,
        StrategyKind::VmaMlock,
        StrategyKind::KiobufReliable,
        StrategyKind::OnDemand,
    ];

    /// Short label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::RefcountOnly => "refcount-only",
            StrategyKind::RawFlags => "raw-flags",
            StrategyKind::VmaMlock => "vma-mlock",
            StrategyKind::KiobufReliable => "kiobuf",
            StrategyKind::OnDemand => "on-demand",
        }
    }

    /// Does this strategy pin eagerly at registration time? `false` only
    /// for [`StrategyKind::OnDemand`], whose frames materialise lazily.
    pub fn pins_eagerly(self) -> bool {
        !matches!(self, StrategyKind::OnDemand)
    }
}

/// Strategy-private state carried by a pinned region, consumed on
/// deregistration together with the region's frames.
#[derive(Debug)]
pub enum PinToken {
    /// Refcount-only: each of the region's frames holds one reference.
    Refcount,
    /// Raw flags: each of the region's frames holds one reference and the
    /// `PG_locked` we set.
    RawFlags,
    /// mlock: the locked interval; unlocking happens when the *driver-side*
    /// interval count drops to zero (see `registry`).
    Mlock {
        pid: Pid,
        start: VirtAddr,
        len: usize,
    },
    /// kiobuf: page references plus pin-table locks on the region's frames
    /// (released through the shared [`PinTable`]).
    Kiobuf,
    /// On-demand: nothing was pinned at registration. The frames pinned so
    /// far live in the registry's lazy-pin ledger; deregistration drains
    /// that ledger through `Kernel::lazy_unpin_frame`.
    OnDemand,
}

/// The Giganet-style hold: a page reference, and `PG_locked` set blindly —
/// no check whether the kernel already holds the bit, which is precisely
/// the unclean part the paper criticises.
struct RawLock;

impl PageHold for RawLock {
    type Error = RegError;

    fn take(&mut self, kernel: &mut Kernel, frame: FrameId) -> RegResult<()> {
        kernel.raw_get_page(frame);
        kernel.raw_set_page_flag(frame, PageFlags::LOCKED);
        Ok(())
    }

    fn give_back(&mut self, kernel: &mut Kernel, frame: FrameId) {
        kernel.raw_clear_page_flag(frame, PageFlags::LOCKED);
        kernel.put_user_page(frame);
    }
}

/// Register a range with the given strategy; returns the pinned frames —
/// the region's one frame list — and the token needed to undo the pin.
pub fn pin_region(
    kernel: &mut Kernel,
    pin_table: &mut PinTable,
    strategy: StrategyKind,
    pid: Pid,
    addr: VirtAddr,
    len: usize,
) -> RegResult<(Vec<FrameId>, PinToken)> {
    if len == 0 {
        return Err(crate::RegError::InvalidArgument("zero-length region"));
    }
    let span = PageSpan::of(addr, len)?;
    let (start, bytes) = (span.base, span.bytes());
    match strategy {
        StrategyKind::RefcountOnly => {
            // Batched `get_user_pages`: fault in, bump the reference count.
            // This is exactly the Berkeley-VIA / M-VIA approach — and
            // exactly as unreliable; the kernel rolls partial failures back.
            let frames = kernel.get_user_pages(pid, start, bytes)?;
            Ok((frames, PinToken::Refcount))
        }
        StrategyKind::RawFlags => {
            // Per page: fault, grab a reference, blindly set `PG_locked`.
            let frames = kernel.walk_user_range(pid, start, bytes, &mut RawLock)?;
            Ok((frames, PinToken::RawFlags))
        }
        StrategyKind::VmaMlock => {
            // The capability dance: grant CAP_IPC_LOCK, do_mlock, reclaim.
            let had_cap = kernel.capabilities(pid)?.ipc_lock;
            if !had_cap {
                kernel.cap_raise_ipc_lock(pid)?;
            }
            let res = kernel.do_mlock(pid, addr, len, true);
            if !had_cap {
                kernel.cap_lower_ipc_lock(pid)?;
            }
            res?;
            // Still must read the physical addresses for the TPT — which
            // means walking page tables after all. `make_pages_present`
            // faults read-only (possibly onto the shared zero page), so the
            // batched walk first breaks COW with write intent where the VMA
            // allows it.
            let frames = kernel.fault_in_range(pid, start, bytes)?;
            Ok((
                frames,
                PinToken::Mlock {
                    pid,
                    start: addr,
                    len,
                },
            ))
        }
        StrategyKind::KiobufReliable => {
            // The proposal: fault each page in and take its page lock
            // **before** the next fault can trigger reclaim — the
            // map_user_kiobuf + lock_kiobuf pair collapsed page-wise. (On
            // 2.4 the gap between the two calls is benign because the swap
            // cache re-unifies an evicted-but-referenced page; our
            // substrate has the paper's 2.2 eviction semantics, where the
            // gap would orphan pages, so the lock is taken eagerly.) The
            // fused fault+ref+lock batch, with full rollback, lives in the
            // pin table.
            let frames = pin_table.pin_user_range(kernel, pid, start, bytes)?;
            Ok((frames, PinToken::Kiobuf))
        }
        StrategyKind::OnDemand => {
            // Register without pinning: validate the span's VMA coverage
            // (a registration of unmapped memory must fail now, not at
            // first NIC access), write-protect whatever is already present
            // so CPU writes trap through `do_wp_page`, and return **no**
            // frames — the TPT starts non-resident and fills on fault.
            for a in span.pages() {
                kernel.vma_writable(pid, a)?;
            }
            kernel.write_protect_range(pid, start, bytes)?;
            Ok((Vec::new(), PinToken::OnDemand))
        }
    }
}

/// Undo a [`pin_region`] of `frames`, the frames it returned. For `Mlock`,
/// `unlock_interval` tells whether the driver-side interval bookkeeping
/// says this was the last registration of the range (remember: `munlock`
/// does not nest).
pub fn unpin_region(
    kernel: &mut Kernel,
    pin_table: &mut PinTable,
    token: PinToken,
    frames: &[FrameId],
    unlock_interval: bool,
) -> RegResult<()> {
    match token {
        PinToken::Refcount => {
            kernel.put_user_pages(frames);
            Ok(())
        }
        PinToken::RawFlags => {
            for &f in frames {
                // Cleared regardless of other holders — the hazard the
                // failure-injection tests expose.
                kernel.raw_clear_page_flag(f, PageFlags::LOCKED);
                kernel.raw_put_page(f)?;
            }
            Ok(())
        }
        PinToken::Mlock { pid, start, len } => {
            if unlock_interval {
                let had_cap = kernel.capabilities(pid)?.ipc_lock;
                if !had_cap {
                    kernel.cap_raise_ipc_lock(pid)?;
                }
                let res = kernel.do_mlock(pid, start, len, false);
                if !had_cap {
                    kernel.cap_lower_ipc_lock(pid)?;
                }
                res?;
            }
            Ok(())
        }
        PinToken::Kiobuf => pin_table.unpin_user_range(kernel, frames),
        // Lazy pins are not the token's to release: the registry drains its
        // ledger through `Kernel::lazy_unpin_frame` before consuming the
        // token (see `registry::deregister`).
        PinToken::OnDemand => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, VirtAddr) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (k, pid, a)
    }

    #[test]
    fn all_strategies_pin_and_unpin_cleanly() {
        for strategy in StrategyKind::ALL {
            let (mut k, pid, a) = setup();
            let mut pt = PinTable::new();
            let free0 = k.free_frames();
            let (frames, token) =
                pin_region(&mut k, &mut pt, strategy, pid, a, 4 * PAGE_SIZE).unwrap();
            if strategy.pins_eagerly() {
                assert_eq!(frames.len(), 4, "{strategy:?}");
            } else {
                assert!(frames.is_empty(), "{strategy:?} must not pin eagerly");
            }
            unpin_region(&mut k, &mut pt, token, &frames, true).unwrap();
            // After unpin + munmap everything must be released (the pin
            // faulted 4 pages in; munmap returns them).
            k.munmap(pid, a, 8 * PAGE_SIZE).unwrap();
            assert_eq!(k.free_frames(), free0, "{strategy:?} leaked frames");
            assert_eq!(pt.pinned_frames(), 0);
        }
    }

    #[test]
    fn refcount_strategy_bumps_counts() {
        let (mut k, pid, a) = setup();
        let mut pt = PinTable::new();
        let (frames, token) = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::RefcountOnly,
            pid,
            a,
            PAGE_SIZE,
        )
        .unwrap();
        assert_eq!(k.page_descriptor(frames[0]).count(), 2);
        assert!(!k
            .page_descriptor(frames[0])
            .flags()
            .contains(PageFlags::LOCKED));
        unpin_region(&mut k, &mut pt, token, &frames, true).unwrap();
        assert_eq!(k.page_descriptor(frames[0]).count(), 1);
    }

    #[test]
    fn mlock_strategy_locks_vma_without_leaking_cap() {
        let (mut k, pid, a) = setup();
        let mut pt = PinTable::new();
        assert!(!k.capabilities(pid).unwrap().ipc_lock);
        let (frames, token) = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::VmaMlock,
            pid,
            a,
            2 * PAGE_SIZE,
        )
        .unwrap();
        assert!(!k.capabilities(pid).unwrap().ipc_lock, "cap reclaimed");
        assert_eq!(k.locked_bytes(pid).unwrap(), 2 * PAGE_SIZE as u64);
        unpin_region(&mut k, &mut pt, token, &frames, true).unwrap();
        assert_eq!(k.locked_bytes(pid).unwrap(), 0);
    }

    #[test]
    fn kiobuf_strategy_locks_pages_nested() {
        let (mut k, pid, a) = setup();
        let mut pt = PinTable::new();
        let (f1, t1) = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::KiobufReliable,
            pid,
            a,
            2 * PAGE_SIZE,
        )
        .unwrap();
        let (f2, t2) = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::KiobufReliable,
            pid,
            a,
            2 * PAGE_SIZE,
        )
        .unwrap();
        assert_eq!(f1, f2, "same physical pages");
        assert_eq!(pt.count(f1[0]), 2);
        unpin_region(&mut k, &mut pt, t1, &f1, false).unwrap();
        assert!(
            k.page_descriptor(f1[0]).flags().contains(PageFlags::LOCKED),
            "still locked after first deregistration"
        );
        unpin_region(&mut k, &mut pt, t2, &f2, false).unwrap();
        assert!(!k.page_descriptor(f1[0]).flags().contains(PageFlags::LOCKED));
    }

    #[test]
    fn raw_flags_clobbers_foreign_io_lock() {
        // Failure injection: the Giganet-style strategy deregisters while
        // the kernel holds the page's I/O lock — and silently clears it.
        let (mut k, pid, a) = setup();
        let mut pt = PinTable::new();
        let (frames, token) =
            pin_region(&mut k, &mut pt, StrategyKind::RawFlags, pid, a, PAGE_SIZE).unwrap();
        // Kernel starts I/O on the page: bit already set by the strategy,
        // kernel would block in reality; here it stacks on the same bit.
        k.begin_page_io(frames[0]);
        unpin_region(&mut k, &mut pt, token, &frames, true).unwrap();
        assert!(
            !k.end_page_io(frames[0]),
            "deregistration cleared the I/O lock out from under the kernel"
        );
    }

    #[test]
    fn kiobuf_respects_foreign_io_lock() {
        let (mut k, pid, a) = setup();
        let mut pt = PinTable::new();
        k.touch_pages(pid, a, PAGE_SIZE, true).unwrap();
        let f = k.frame_of(pid, a).unwrap().unwrap();
        k.begin_page_io(f);
        let r = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::KiobufReliable,
            pid,
            a,
            PAGE_SIZE,
        );
        assert_eq!(r.unwrap_err(), crate::RegError::WouldBlock);
        assert!(k.end_page_io(f), "I/O lock untouched");
        assert_eq!(k.kiobuf_count(), 0, "failed registration left no kiobuf");
        // Retry succeeds.
        let (frames, token) = pin_region(
            &mut k,
            &mut pt,
            StrategyKind::KiobufReliable,
            pid,
            a,
            PAGE_SIZE,
        )
        .unwrap();
        unpin_region(&mut k, &mut pt, token, &frames, false).unwrap();
    }
}
