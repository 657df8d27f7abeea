//! The page stealer: `try_to_free_pages` → `swap_out` →
//! `swap_out_process`/`swap_out_vma`/`try_to_swap_out`, with the 2.2-era
//! behaviour the paper's locktest experiment depends on:
//!
//! * `VM_LOCKED` VMAs are skipped entirely;
//! * pages with `PG_locked` or `PG_reserved` are skipped;
//! * a page with a merely **elevated reference count is still swapped out**:
//!   its contents go to a swap slot, the PTE is redirected, and
//!   `__free_page()` drops the mapping reference — if a driver holds extra
//!   references, the frame is **orphaned**: never freed, never remapped, and
//!   any NIC that captured its physical address now DMAs into a stale frame.

use std::ops::Bound;

use crate::mm::AddressSpace;
use crate::page::PageFlags;
use crate::stats::CounterCell;
use crate::{Kernel, Pid, Pte};

/// How many candidate processes one `swap_out` call examines before giving
/// up (2.2 used a priority-scaled counter; a full sweep keeps it simple and
/// deterministic).
const SWAP_PROCESS_ATTEMPTS: usize = 64;

// The walk below enumerates processes, VMAs and pages *in place*, behind a
// cursor each, instead of collecting them first. That is the same
// enumeration: the walk only moves on past a process or VMA that answered
// `Nothing`, and `Nothing` means no PTE changed — so what a snapshot taken
// up front would have held is what is still there.
//
// Every pass restarts at the first page of the first VMA. Linux 2.2 resumes
// at `mm->swap_address`; this model never did, and a resume cursor changes
// which page is taken, which the on-demand workloads are sensitive to
// (DESIGN.md §19). The order is pinned by `tests/pressure_golden.rs` and by
// the differential against the collect-then-scan `oracle` below.

impl Kernel {
    /// `try_to_free_pages`: attempt to put at least one frame back on the
    /// free list. Returns `true` on success. (We have no page/buffer cache
    /// to shrink — the simulated machine runs only anonymous memory — so the
    /// `shrink_mmap` stage is a no-op and reclaim goes straight to
    /// `swap_out`, which matches the pressure pattern of the paper's
    /// `allocator` antagonist.)
    pub(crate) fn try_to_free_pages(&mut self) -> bool {
        self.stats.reclaim_passes.bump();
        let mut attempts = SWAP_PROCESS_ATTEMPTS;
        while attempts > 0 {
            attempts -= 1;
            match self.swap_out() {
                SwapOutResult::FreedFrame => return true,
                SwapOutResult::Progress => continue, // e.g. orphaned a page: PTE gone, no frame freed
                SwapOutResult::Nothing => return false,
            }
        }
        false
    }

    /// The stealer's candidates — processes with resident pages — from
    /// `from` on, in pid order.
    fn residents(&self, from: Bound<Pid>) -> impl Iterator<Item = Pid> + '_ {
        self.procs
            .range((from, Bound::Unbounded))
            .filter(|(_, p)| p.mm.rss() > 0)
            .map(|(&pid, _)| pid)
    }

    /// `swap_out`: pick the next process round-robin (the `swap_cnt`
    /// weighting of 2.2 reduces to fair rotation here) and try to evict one
    /// page from it. Every resident process eventually gets victimized —
    /// which is how the paper's locktest process loses its pages while the
    /// allocator antagonist runs.
    fn swap_out(&mut self) -> SwapOutResult {
        #[cfg(test)]
        if self.oracle_stealer {
            return self.oracle_swap_out();
        }
        // The rotor picks where among the candidates this call starts.
        let n = self.residents(Bound::Unbounded).count();
        if n == 0 {
            return SwapOutResult::Nothing;
        }
        let start = self.swap_rotor % n;
        self.swap_rotor = self.swap_rotor.wrapping_add(1) % n;
        let mut next = self.residents(Bound::Unbounded).nth(start);
        for _ in 0..n {
            let Some(pid) = next else {
                debug_assert!(false, "fewer resident processes than counted");
                break;
            };
            match self.swap_out_process(pid) {
                SwapOutResult::Nothing => {}
                r => return r,
            }
            // Onward in pid order, wrapping to the lowest pid.
            next = self
                .residents(Bound::Excluded(pid))
                .next()
                .or_else(|| self.residents(Bound::Unbounded).next());
        }
        SwapOutResult::Nothing
    }

    /// `swap_out_process`: walk the VMAs of one process looking for a
    /// stealable page.
    fn swap_out_process(&mut self, pid: Pid) -> SwapOutResult {
        let mut at = 0;
        loop {
            let Some(mm) = self.procs.get(&pid).map(|p| &p.mm) else {
                return SwapOutResult::Nothing;
            };
            let Some(vma) = mm.vmas.first_from(at) else {
                return SwapOutResult::Nothing;
            };
            let (start, end) = (vma.start, vma.end);
            at = end;
            if vma.flags.locked {
                // swap_out_vma: skip VM_LOCKED areas wholesale.
                let present = mm.present_in(AddressSpace::vpn(start), AddressSpace::vpn(end));
                self.stats.skipped_vm_locked.add(present as u64);
                continue;
            }
            match self.swap_out_vma(pid, start, end) {
                SwapOutResult::Nothing => continue,
                r => return r,
            }
        }
    }

    /// `swap_out_vma`: scan present PTEs with a second-chance accessed bit;
    /// evict the first cold, unprotected page.
    fn swap_out_vma(&mut self, pid: Pid, start: u64, end: u64) -> SwapOutResult {
        let (mut at, to) = (AddressSpace::vpn(start), AddressSpace::vpn(end));
        let mut cleared_any = false;
        loop {
            // Second chance: referenced pages get their accessed bit cleared
            // and survive this pass.
            let Some(proc) = self.procs.get_mut(&pid) else {
                return SwapOutResult::Nothing;
            };
            let Some((vpn, frame)) = proc.mm.age_until_cold(at, to, &mut cleared_any) else {
                break;
            };
            at = vpn + 1;
            match self.steal_cold_page(pid, vpn, frame) {
                None => continue,
                Some(r) => return r,
            }
        }
        if cleared_any {
            // Second chance given: a rescan will find cold pages.
            SwapOutResult::Progress
        } else {
            SwapOutResult::Nothing
        }
    }

    /// What the scan does with a cold page: dissolve an on-demand pin and
    /// evict, evict outright, or — `None` — leave a protected page alone
    /// and scan on.
    fn steal_cold_page(
        &mut self,
        pid: Pid,
        vpn: u64,
        frame: crate::FrameId,
    ) -> Option<SwapOutResult> {
        // A cold on-demand pin is the stealer's to break: dissolve the
        // lazy references (clearing PG_locked/PG_ondemand and queueing
        // a TPT invalidation for the device layer), remember the page
        // so its next lazy pin counts as a repin, and evict it like
        // any other cold page. The injector can veto the unpin,
        // modeling a pin this reclaim pass could not break.
        if self
            .pagemap
            .get(frame)
            .flags()
            .contains(PageFlags::ONDEMAND)
            && self.lazy_pin_count(frame) > 0
        {
            if self.inject(crate::inject::PRESSURE_UNPIN) {
                self.stats.skipped_pg_locked.bump();
                return None;
            }
            self.dissolve_lazy_pins(frame);
            self.repin_pending.insert((pid, vpn));
            self.stats.pressure_unpins.bump();
            return Some(self.try_to_swap_out(pid, vpn, frame));
        }
        // PG_locked / PG_reserved pages are untouchable.
        if self.pagemap.get(frame).steal_protected() {
            self.stats.skipped_pg_locked.bump();
            return None;
        }
        Some(self.try_to_swap_out(pid, vpn, frame))
    }

    /// Evict one page: write to swap (unless it is the clean shared zero
    /// page, which is simply unmapped), redirect the PTE, `__free_page`.
    fn try_to_swap_out(&mut self, pid: Pid, vpn: u64, frame: crate::FrameId) -> SwapOutResult {
        // The shared zero page is clean by construction: drop the PTE, the
        // next read fault remaps it.
        if frame == self.zero_frame {
            if let Ok(p) = self.process_mut(pid) {
                p.mm.clear_pte(vpn);
            }
            self.put_frame(frame);
            // Dropping a zero-page ref never frees a frame (reserved), but
            // it IS progress: rescanning will find other pages.
            return SwapOutResult::Progress;
        }

        // Write the page out. If swap is full we cannot evict anything.
        if self.inject(crate::inject::SWAP_FULL) {
            return SwapOutResult::Nothing;
        }
        let slot = match self.swap.swap_out(self.phys.frame(frame)) {
            Ok(s) => s,
            Err(_) => return SwapOutResult::Nothing,
        };
        if let Ok(p) = self.process_mut(pid) {
            p.mm.set_pte(vpn, Pte::Swapped { slot });
        }
        self.stats.swap_outs.bump();

        // __free_page: drop the mapping's reference. If a driver pinned the
        // page by refcount only, the count stays positive. Under 2.2
        // semantics the frame is orphaned — the failure the paper
        // demonstrates. Under 2.4 semantics it enters the swap cache
        // instead, and a refault re-unifies virtual page and frame.
        let count_before = self.pagemap.get(frame).count();
        // One cache entry per frame. A frame shared by fork is evicted once
        // per mapping, each time to a slot of its own; the first eviction's
        // entry stands and `put_frame` purges it with the last reference.
        // (Overwriting `swap_slot` here left the earlier entries behind,
        // pointing at a frame that had gone back to the free list.)
        if count_before > 1 && self.config.swap_cache {
            let d = self.pagemap.get_mut(frame);
            if d.swap_slot.is_none() {
                d.swap_slot = Some(slot);
                self.swap_cache.insert(slot, frame);
                self.stats.swap_cache_adds.bump();
            }
        }
        self.pagemap.get_mut(frame).rmap = None;
        self.put_frame(frame);
        if count_before > 1 {
            if !self.config.swap_cache {
                self.stats.orphaned_pages.bump();
            }
            SwapOutResult::Progress
        } else {
            SwapOutResult::FreedFrame
        }
    }
}

/// The stealer as it was before the in-place walk: count every RSS by
/// walking the page table, collect and sort the pids, copy the VMA list,
/// collect every present VPN of a VMA, then scan the copies. Kept as the
/// reference the differential test (`stealer_diff_tests.rs`) holds the
/// production walk to; it reads the page table only through
/// [`AddressSpace::ptes_in`], never through the present index. Victims
/// leave through the shared [`Kernel::steal_cold_page`].
#[cfg(test)]
mod oracle {
    use super::*;

    impl Kernel {
        fn oracle_rss(&self, pid: Pid) -> usize {
            self.procs[&pid]
                .mm
                .ptes_in(0, u64::MAX)
                .filter(|(_, p)| matches!(p, Pte::Present { .. }))
                .count()
        }

        fn oracle_present_vpns(&self, pid: Pid, start: u64, end: u64) -> Vec<u64> {
            self.procs[&pid]
                .mm
                .ptes_in(AddressSpace::vpn(start), AddressSpace::vpn(end))
                .filter(|(_, p)| matches!(p, Pte::Present { .. }))
                .map(|(v, _)| v)
                .collect()
        }

        pub(super) fn oracle_swap_out(&mut self) -> SwapOutResult {
            let mut pids: Vec<Pid> = self
                .procs
                .keys()
                .copied()
                .filter(|&pid| self.oracle_rss(pid) > 0)
                .collect();
            if pids.is_empty() {
                return SwapOutResult::Nothing;
            }
            pids.sort();
            let n = pids.len();
            let start = self.swap_rotor;
            self.swap_rotor = self.swap_rotor.wrapping_add(1) % n.max(1);
            for i in 0..n {
                let pid = pids[(start + i) % n];
                match self.oracle_swap_out_process(pid) {
                    SwapOutResult::Nothing => continue,
                    r => return r,
                }
            }
            SwapOutResult::Nothing
        }

        fn oracle_swap_out_process(&mut self, pid: Pid) -> SwapOutResult {
            let vmas: Vec<(u64, u64, bool)> = self.procs[&pid]
                .mm
                .vmas
                .iter()
                .map(|v| (v.start, v.end, v.flags.locked))
                .collect();
            for (start, end, locked) in vmas {
                if locked {
                    let present = self.oracle_present_vpns(pid, start, end).len() as u64;
                    self.stats.skipped_vm_locked.add(present);
                    continue;
                }
                match self.oracle_swap_out_vma(pid, start, end) {
                    SwapOutResult::Nothing => continue,
                    r => return r,
                }
            }
            SwapOutResult::Nothing
        }

        fn oracle_swap_out_vma(&mut self, pid: Pid, start: u64, end: u64) -> SwapOutResult {
            let vpns = self.oracle_present_vpns(pid, start, end);
            let mut cleared_any = false;
            for vpn in vpns {
                let (frame, accessed) = match self.procs[&pid].mm.pte(vpn) {
                    Some(Pte::Present {
                        frame, accessed, ..
                    }) => (*frame, *accessed),
                    _ => continue,
                };
                if accessed {
                    if let Some(Pte::Present { accessed, .. }) =
                        self.process_mut(pid).ok().and_then(|p| p.mm.pte_mut(vpn))
                    {
                        *accessed = false;
                        cleared_any = true;
                    }
                    continue;
                }
                match self.steal_cold_page(pid, vpn, frame) {
                    None => continue,
                    Some(r) => return r,
                }
            }
            if cleared_any {
                SwapOutResult::Progress
            } else {
                SwapOutResult::Nothing
            }
        }
    }
}

enum SwapOutResult {
    /// A frame actually landed on the free list.
    FreedFrame,
    /// A PTE was unmapped but no frame was freed (orphaned page or zero-page
    /// unmap) — keep scanning.
    Progress,
    /// Nothing evictable found.
    Nothing,
}

#[cfg(test)]
mod tests {
    use crate::mm::AddressSpace;
    use crate::{prot, Capabilities, Kernel, KernelConfig, PageFlags, PAGE_SIZE};

    /// A machine with little RAM and ample swap so tests can force pressure.
    fn tight() -> Kernel {
        Kernel::new(KernelConfig {
            nframes: 64,
            reserved_frames: 4,
            swap_slots: 1024,
            default_rlimit_memlock: None,
            swap_cache: false,
        })
    }

    #[test]
    fn pressure_triggers_swapping() {
        let mut k = tight();
        let victim = k.spawn_process(Capabilities::default());
        let vbuf = k
            .mmap_anon(victim, 16 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(victim, vbuf, &vec![7u8; 16 * PAGE_SIZE])
            .unwrap();

        // Allocator antagonist: takes (nearly) all remaining memory.
        let hog = k.spawn_process(Capabilities::default());
        let total = 80 * PAGE_SIZE;
        let hbuf = k.mmap_anon(hog, total, prot::READ | prot::WRITE).unwrap();
        k.write_user(hog, hbuf, &vec![1u8; total]).unwrap();

        assert!(k.mm_stats().swap_outs > 0, "pressure must cause page-outs");
        // Victim's data must survive a swap round-trip.
        let mut out = vec![0u8; 16 * PAGE_SIZE];
        k.read_user(victim, vbuf, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 7));
        assert!(k.mm_stats().major_faults > 0, "read-back swaps pages in");
    }

    #[test]
    fn vm_locked_pages_survive_in_place() {
        let mut k = tight();
        let victim = k.spawn_process(Capabilities::root());
        let vbuf = k
            .mmap_anon(victim, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(victim, vbuf, &vec![9u8; 8 * PAGE_SIZE])
            .unwrap();
        let before = k.frames_of_range(victim, vbuf, 8 * PAGE_SIZE).unwrap();
        k.sys_mlock(victim, vbuf, 8 * PAGE_SIZE).unwrap();

        let hog = k.spawn_process(Capabilities::default());
        let total = 60 * PAGE_SIZE;
        let hbuf = k.mmap_anon(hog, total, prot::READ | prot::WRITE).unwrap();
        k.write_user(hog, hbuf, &vec![1u8; total]).unwrap();

        let after = k.frames_of_range(victim, vbuf, 8 * PAGE_SIZE).unwrap();
        assert_eq!(before, after, "mlocked pages keep their frames");
        assert!(k.mm_stats().skipped_vm_locked > 0);
    }

    #[test]
    fn pg_locked_pages_are_skipped() {
        let mut k = tight();
        let victim = k.spawn_process(Capabilities::default());
        let vbuf = k
            .mmap_anon(victim, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(victim, vbuf, &vec![3u8; 4 * PAGE_SIZE])
            .unwrap();
        let frames = k.frames_of_range(victim, vbuf, 4 * PAGE_SIZE).unwrap();
        for f in frames.iter().flatten() {
            k.raw_set_page_flag(*f, PageFlags::LOCKED);
        }

        let hog = k.spawn_process(Capabilities::default());
        let total = 60 * PAGE_SIZE;
        let hbuf = k.mmap_anon(hog, total, prot::READ | prot::WRITE).unwrap();
        k.write_user(hog, hbuf, &vec![1u8; total]).unwrap();

        let after = k.frames_of_range(victim, vbuf, 4 * PAGE_SIZE).unwrap();
        assert_eq!(frames, after, "PG_locked pages keep their frames");
        for f in frames.iter().flatten() {
            k.raw_clear_page_flag(*f, PageFlags::LOCKED);
        }
    }

    #[test]
    fn refcount_only_page_gets_orphaned() {
        // The core of the paper's locktest: an elevated refcount does NOT
        // prevent eviction; the frame is orphaned and the virtual page comes
        // back elsewhere.
        let mut k = tight();
        let victim = k.spawn_process(Capabilities::default());
        let vbuf = k
            .mmap_anon(victim, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(victim, vbuf, b"pinned?").unwrap();
        let f0 = k.frame_of(victim, vbuf).unwrap().unwrap();
        k.raw_get_page(f0); // Berkeley-VIA / M-VIA style "pin"

        let hog = k.spawn_process(Capabilities::default());
        let total = 70 * PAGE_SIZE;
        let hbuf = k.mmap_anon(hog, total, prot::READ | prot::WRITE).unwrap();
        k.write_user(hog, hbuf, &vec![1u8; total]).unwrap();

        // The page must have been evicted despite the refcount.
        assert!(
            k.frame_of(victim, vbuf).unwrap().is_none(),
            "PTE redirected to swap"
        );
        assert!(k.mm_stats().orphaned_pages >= 1);

        // Touch it back in: lands on a different frame.
        let mut out = [0u8; 7];
        k.read_user(victim, vbuf, &mut out).unwrap();
        assert_eq!(&out, b"pinned?");
        let f1 = k.frame_of(victim, vbuf).unwrap().unwrap();
        assert_ne!(f0, f1, "swap-in allocates a fresh frame (2.2 semantics)");

        // The orphan still holds the old data and the pin reference.
        assert_eq!(k.page_descriptor(f0).count(), 1);
        assert_eq!(k.count_orphaned_frames(), 1);
    }

    #[test]
    fn pressure_dissolves_cold_ondemand_pins() {
        let mut k = tight();
        let victim = k.spawn_process(Capabilities::default());
        let vbuf = k
            .mmap_anon(victim, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        for i in 0..4u64 {
            k.lazy_pin_page(victim, vbuf + i * PAGE_SIZE as u64)
                .unwrap();
        }

        let hog = k.spawn_process(Capabilities::default());
        let total = 70 * PAGE_SIZE;
        let hbuf = k.mmap_anon(hog, total, prot::READ | prot::WRITE).unwrap();
        k.write_user(hog, hbuf, &vec![1u8; total]).unwrap();

        assert!(
            k.mm_stats().pressure_unpins > 0,
            "stealer must dissolve cold lazy pins"
        );
        assert_eq!(
            k.count_orphaned_frames(),
            0,
            "dissolved pins leave no orphans"
        );
        let inv = k.take_lazy_invalidations();
        assert!(!inv.is_empty(), "dissolutions queue TPT invalidations");
        // Touching the pages back in as lazy pins counts as repins.
        for i in 0..4u64 {
            k.lazy_pin_page(victim, vbuf + i * PAGE_SIZE as u64)
                .unwrap();
        }
        assert!(
            k.mm_stats().repins >= 1,
            "post-pressure pins count as repins"
        );
    }

    #[test]
    fn a_swapped_out_vma_in_front_costs_the_scan_nothing() {
        // PTEs one reclaim pass looks at, with a VMA of `front_pages`
        // swap entries (and nothing resident) in front of the victim's.
        let scanned = |front_pages: usize| {
            let mut k = Kernel::new(KernelConfig {
                nframes: 64,
                reserved_frames: 4,
                swap_slots: 8192,
                default_rlimit_memlock: None,
                swap_cache: false,
            });
            let pid = k.spawn_process(Capabilities::default());
            let front = k
                .mmap_anon(pid, front_pages * PAGE_SIZE, prot::READ | prot::WRITE)
                .unwrap();
            k.touch_pages(pid, front, front_pages * PAGE_SIZE, true)
                .unwrap();
            // More pages than the machine has: the scan starts at `front`
            // every pass, so all of it goes before any of these do.
            let victim = k
                .mmap_anon(pid, 80 * PAGE_SIZE, prot::READ | prot::WRITE)
                .unwrap();
            k.touch_pages(pid, victim, 80 * PAGE_SIZE, true).unwrap();
            let mm = &mut k.process_mut(pid).unwrap().mm;
            assert_eq!(mm.vmas.count(), 2);
            let (from, to) = (AddressSpace::vpn(front), AddressSpace::vpn(victim));
            assert_eq!(mm.present_in(from, to), 0);
            assert_eq!(mm.ptes_in(from, to).count(), front_pages);
            mm.ptes_scanned = 0;
            assert!(k.try_to_free_pages());
            k.process(pid).unwrap().mm.ptes_scanned
        };
        let few = scanned(64);
        assert!(few > 0);
        assert_eq!(scanned(4096), few);
    }

    #[test]
    fn oom_when_swap_full() {
        let mut k = Kernel::new(KernelConfig {
            nframes: 32,
            reserved_frames: 4,
            swap_slots: 8,
            default_rlimit_memlock: None,
            swap_cache: false,
        });
        let pid = k.spawn_process(Capabilities::default());
        let total = 200 * PAGE_SIZE;
        let a = k.mmap_anon(pid, total, prot::READ | prot::WRITE).unwrap();
        let r = k.write_user(pid, a, &vec![1u8; total]);
        assert!(matches!(r, Err(crate::MmError::OutOfMemory)));
    }
}
