//! The page-fault path: demand-zero, zero-page mapping, copy-on-write and
//! swap-in (`handle_mm_fault` / `do_no_page` / `do_wp_page` / `do_swap_page`).

use crate::mm::AddressSpace;
use crate::page::RMap;
use crate::stats::CounterCell;
use crate::{error::MmResult, Kernel, MmError, Pid, Pte, VirtAddr};

impl Kernel {
    /// Ensure the page containing `addr` is present with the requested
    /// access; returns the backing frame. This is the whole CPU fault path:
    /// VMA lookup, protection check, then demand paging / COW / swap-in.
    pub(crate) fn fault_in(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        write: bool,
    ) -> MmResult<crate::FrameId> {
        let vpn = AddressSpace::vpn(addr);

        // --- find_vma + access check -----------------------------------
        let vma_flags = {
            let proc = self.process(pid)?;
            let vma = proc
                .mm
                .vmas
                .find(addr)
                .ok_or(MmError::SegFault { pid, addr })?;
            vma.flags
        };
        if write && !vma_flags.write {
            return Err(MmError::ProtFault { pid, addr });
        }
        if !write && !vma_flags.read {
            return Err(MmError::ProtFault { pid, addr });
        }

        let pte = self.process(pid)?.mm.pte(vpn).copied();
        match pte {
            // ----------------------------------------------------------
            // Fast path: present and sufficient permissions.
            // ----------------------------------------------------------
            Some(Pte::Present {
                frame, writable, ..
            }) if !write || writable => {
                if let Some(Pte::Present {
                    accessed, dirty, ..
                }) = self.process_mut(pid)?.mm.pte_mut(vpn)
                {
                    *accessed = true;
                    if write {
                        *dirty = true;
                    }
                }
                Ok(frame)
            }

            // ----------------------------------------------------------
            // do_wp_page: write to a present but read-only PTE in a
            // writable VMA — copy-on-write.
            // ----------------------------------------------------------
            Some(Pte::Present { frame, .. }) => {
                debug_assert!(write);
                // Lazy (on-demand) pins hold page references of their own;
                // they do not make the frame "shared" for COW purposes.
                let lazy = self.lazy_pin_count(frame);
                let shared = self.pagemap.get(frame).count() > 1 + lazy || frame == self.zero_frame;
                if shared {
                    let new = self.get_free_frame()?;
                    // The allocation may have run the stealer, and the
                    // stealer may have taken this very page (2.2 re-checks
                    // the PTE after `__get_free_page` for the same reason).
                    // Then the reference on `frame` is no longer this
                    // mapping's to drop — `frame` may even be `new`: give
                    // the allocation back and take the fault again, as the
                    // swap-in it has become.
                    if self.process(pid)?.mm.pte(vpn).and_then(Pte::frame) != Some(frame) {
                        self.put_frame(new);
                        return self.fault_in(pid, addr, write);
                    }
                    self.phys.copy_frame(frame, new);
                    // A genuine COW break moves this mapping off the old
                    // frame. Any on-demand pins there belong to a
                    // registration whose owner just wrote: dissolve them
                    // and queue a TPT invalidation so the device re-pins
                    // the live frame instead of DMAing into the stale one
                    // (the write-after-fork hazard, made safe).
                    if self.dissolve_lazy_pins(frame) > 0 {
                        self.repin_pending.insert((pid, vpn));
                        self.stats.cow_invalidations.bump();
                    }
                    self.put_frame(frame);
                    self.pagemap.get_mut(new).rmap = Some(RMap { pid, vpn });
                    self.process_mut(pid)?
                        .mm
                        .set_pte(vpn, Pte::present(new, true));
                    self.stats.cow_copies.bump();
                    self.stats.minor_faults.bump();
                    Ok(new)
                } else {
                    // Sole owner (extra references, if any, are on-demand
                    // pins on this very mapping): keep the frame — and the
                    // pin — and just make the PTE writable.
                    self.process_mut(pid)?
                        .mm
                        .set_pte(vpn, Pte::present(frame, true));
                    self.stats.minor_faults.bump();
                    Ok(frame)
                }
            }

            // ----------------------------------------------------------
            // do_swap_page: major fault. 2.2 semantics — allocate a fresh
            // frame and read the slot back; the original frame (possibly
            // still pinned by a buggy driver) is NOT reused.
            // ----------------------------------------------------------
            Some(Pte::Swapped { slot }) => {
                // 2.4 semantics: a referenced page that was written out is
                // still in the swap cache — re-map the SAME frame (this is
                // what keeps a refcount-pinned page coherent on 2.4).
                if self.config.swap_cache {
                    if let Some(&frame) = self.swap_cache.get(&slot) {
                        self.swap_cache.remove(&slot);
                        self.pagemap.get_mut(frame).swap_slot = None;
                        self.pagemap.get_page(frame);
                        // The slot's copy is dead; free it.
                        self.swap.free_slot(slot)?;
                        self.pagemap.get_mut(frame).rmap = Some(RMap { pid, vpn });
                        self.process_mut(pid)?
                            .mm
                            .set_pte(vpn, Pte::present(frame, vma_flags.write));
                        self.stats.minor_faults.bump();
                        self.stats.swap_cache_hits.bump();
                        return Ok(frame);
                    }
                }
                // A failed device read leaves the PTE pointing at the slot;
                // the fault can simply be retried.
                if self.inject(crate::inject::SWAP_IO) {
                    return Err(MmError::SwapIoError);
                }
                let new = self.get_free_frame()?;
                self.swap.swap_in(slot, self.phys.frame_mut(new))?;
                self.pagemap.get_mut(new).rmap = Some(RMap { pid, vpn });
                self.process_mut(pid)?
                    .mm
                    .set_pte(vpn, Pte::present(new, vma_flags.write));
                self.stats.major_faults.bump();
                self.stats.swap_ins.bump();
                Ok(new)
            }

            // ----------------------------------------------------------
            // do_no_page (anonymous): demand-zero. Reads map the shared
            // zero page read-only (COW later); writes get a private frame.
            // ----------------------------------------------------------
            None => {
                self.stats.minor_faults.bump();
                if write {
                    let new = self.get_free_frame()?;
                    self.phys.zero_frame(new);
                    self.pagemap.get_mut(new).rmap = Some(RMap { pid, vpn });
                    self.process_mut(pid)?
                        .mm
                        .set_pte(vpn, Pte::present(new, true));
                    Ok(new)
                } else {
                    let zf = self.zero_frame;
                    self.pagemap.get_page(zf);
                    self.process_mut(pid)?
                        .mm
                        .set_pte(vpn, Pte::present(zf, false));
                    Ok(zf)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{prot, Capabilities, Kernel, KernelConfig, PAGE_SIZE};

    #[test]
    fn cow_from_zero_page() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        // Read first: zero page mapped.
        let mut b = [0u8; 1];
        k.read_user(pid, a, &mut b).unwrap();
        assert_eq!(k.frame_of(pid, a).unwrap(), Some(k.zero_frame()));
        let zp_count = k.page_descriptor(k.zero_frame()).count();
        // Now write: COW off the zero page.
        k.write_user(pid, a, b"Z").unwrap();
        let f = k.frame_of(pid, a).unwrap().unwrap();
        assert_ne!(f, k.zero_frame());
        assert_eq!(
            k.page_descriptor(k.zero_frame()).count(),
            zp_count - 1,
            "zero-page ref dropped"
        );
        assert_eq!(k.mm_stats().cow_copies, 1);
        // Data visible, rest of page zero.
        let mut out = [0u8; 2];
        k.read_user(pid, a, &mut out).unwrap();
        assert_eq!(&out, b"Z\0");
    }

    #[test]
    fn fault_counters() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 2 * PAGE_SIZE, true).unwrap();
        assert_eq!(k.mm_stats().minor_faults, 2);
        assert_eq!(k.mm_stats().major_faults, 0);
        // Touching again is the fast path: no new faults.
        k.touch_pages(pid, a, 2 * PAGE_SIZE, true).unwrap();
        assert_eq!(k.mm_stats().minor_faults, 2);
    }

    #[test]
    fn cow_break_dissolves_lazy_pin() {
        let mut k = Kernel::new(KernelConfig::small());
        let parent = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(parent, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(parent, a, b"before").unwrap();
        let f_old = k.lazy_pin_page(parent, a).unwrap();
        let _child = k.fork(parent).unwrap();
        // Parent writes: genuine sharing forces a copy; the lazy pin on the
        // old frame dissolves and queues an invalidation.
        k.write_user(parent, a, b"after!").unwrap();
        let f_new = k.frame_of(parent, a).unwrap().unwrap();
        assert_ne!(f_old, f_new);
        assert_eq!(k.lazy_pin_count(f_old), 0);
        assert_eq!(k.take_lazy_invalidations(), vec![f_old]);
        assert_eq!(k.mm_stats().cow_invalidations, 1);
        // The re-pin lands on the live frame and counts as a repin.
        assert_eq!(k.lazy_pin_page(parent, a).unwrap(), f_new);
        assert_eq!(k.mm_stats().repins, 1);
    }

    #[test]
    fn cow_survives_the_stealer_taking_the_faulting_page() {
        // Found by the stealer differential: a COW fault allocates, the
        // allocation reclaims, and the reclaim evicts the page being
        // copied — here the freed frame even comes straight back as the
        // copy's destination. The fault used to go on with the stale PTE
        // (`copy_frame` onto itself, or a reference dropped twice).
        let mut k = Kernel::new(KernelConfig {
            nframes: 16,
            reserved_frames: 2,
            swap_slots: 64,
            default_rlimit_memlock: None,
            swap_cache: false,
        });
        let parent = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(parent, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(parent, a, b"before").unwrap();
        let child = k.fork(parent).unwrap();
        // Fill memory exactly: the free list is empty and the stealer has
        // not run yet.
        let hog = k.spawn_process(Capabilities::default());
        let room = k.free_frames();
        let h = k
            .mmap_anon(hog, room * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(hog, h, room * PAGE_SIZE, true).unwrap();
        assert_eq!((k.free_frames(), k.mm_stats().reclaim_passes), (0, 0));

        k.write_user(parent, a, b"after!").unwrap();
        assert!(k.mm_stats().reclaim_passes > 0);
        let mut out = [0u8; 6];
        k.read_user(parent, a, &mut out).unwrap();
        assert_eq!(&out, b"after!");
        k.read_user(child, a, &mut out).unwrap();
        assert_eq!(&out, b"before");
        k.check_invariants().unwrap();
        k.exit_process(parent).unwrap();
        k.exit_process(child).unwrap();
        k.exit_process(hog).unwrap();
        assert_eq!(k.free_frames(), 16 - 2 - 1, "every reference accounted for");
    }

    #[test]
    fn write_to_lazily_pinned_page_revalidates_in_place() {
        // The ReadOnlyPinned → writable transition: a sole-owner write to a
        // write-protected, lazily pinned page keeps frame and pin.
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(pid, a, b"x").unwrap();
        let f = k.lazy_pin_page(pid, a).unwrap();
        k.write_protect_range(pid, a, PAGE_SIZE).unwrap();
        k.write_user(pid, a, b"y").unwrap();
        assert_eq!(k.frame_of(pid, a).unwrap(), Some(f), "no copy");
        assert_eq!(k.lazy_pin_count(f), 1, "pin survives the write");
        assert_eq!(k.mm_stats().cow_copies, 0);
        assert!(k.take_lazy_invalidations().is_empty());
    }

    #[test]
    fn private_pages_are_isolated() {
        let mut k = Kernel::new(KernelConfig::small());
        let p1 = k.spawn_process(Capabilities::default());
        let p2 = k.spawn_process(Capabilities::default());
        let a1 = k
            .mmap_anon(p1, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let a2 = k
            .mmap_anon(p2, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(p1, a1, b"one").unwrap();
        k.write_user(p2, a2, b"two").unwrap();
        let mut out = [0u8; 3];
        k.read_user(p1, a1, &mut out).unwrap();
        assert_eq!(&out, b"one");
        k.read_user(p2, a2, &mut out).unwrap();
        assert_eq!(&out, b"two");
        assert_ne!(
            k.frame_of(p1, a1).unwrap(),
            k.frame_of(p2, a2).unwrap(),
            "distinct physical frames"
        );
    }
}
