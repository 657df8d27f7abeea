//! `fork()` with copy-on-write, and `mprotect`.
//!
//! Fork matters to the paper's subject beyond completeness: registered
//! (pinned) memory plus a later `fork()` is the classic DMA footgun. COW
//! write-protects the parent's pages too; the parent's next store COWs its
//! view **away from the pinned frame**, so the NIC keeps DMAing into what
//! is now the child's page. The pinning mechanism cannot prevent this —
//! (much later, Linux grew `MADV_DONTFORK` for exactly this reason) — and
//! the tests in `vialock` demonstrate the hazard.

use crate::error::MmResult;
use crate::mm::AddressSpace;
use crate::vma::VmArea;
use crate::{Kernel, MmError, Pid, Pte, VirtAddr};

impl Kernel {
    /// `fork()`: duplicate the address space of `parent`. Every present,
    /// writable anonymous page becomes shared copy-on-write (both PTEs
    /// write-protected, frame refcount bumped); swapped pages get their
    /// slot contents duplicated (2.2 forked swap entries by copying —
    /// modelling shared swap counts adds nothing for our purposes).
    pub fn fork(&mut self, parent: Pid) -> MmResult<Pid> {
        let caps = self.process(parent)?.caps;
        let rlimit = self.process(parent)?.rlimit_memlock;
        let child = self.spawn_process(caps);
        self.process_mut(child)?.rlimit_memlock = rlimit;

        // Copy the VMA set (VM_LOCKED is NOT inherited across fork, per
        // POSIX — mlock is per-address-space; VM_DONTCOPY areas are
        // skipped entirely).
        let vmas: Vec<VmArea> = self.process(parent)?.mm.vmas.iter().cloned().collect();
        let mut skip_ranges: Vec<(u64, u64)> = Vec::new();
        for mut v in vmas {
            if v.flags.dontfork {
                skip_ranges.push((AddressSpace::vpn(v.start), AddressSpace::vpn(v.end)));
                continue;
            }
            v.flags.locked = false;
            self.process_mut(child)?.mm.vmas.insert(v)?;
        }

        // Walk the parent's page table.
        let ptes: Vec<(u64, Pte)> = self
            .process(parent)?
            .mm
            .ptes_in(0, u64::MAX)
            .map(|(v, p)| (v, *p))
            .collect();
        for (vpn, pte) in ptes {
            if skip_ranges.iter().any(|&(s, e)| (s..e).contains(&vpn)) {
                continue;
            }
            match pte {
                Pte::Present {
                    frame,
                    accessed,
                    dirty,
                    ..
                } => {
                    // Share the frame COW: write-protect both sides.
                    self.pagemap.get_page(frame);
                    // A frame mapped by two processes has no single rmap.
                    self.pagemap.get_mut(frame).rmap = None;
                    self.process_mut(parent)?.mm.set_pte(
                        vpn,
                        Pte::Present {
                            frame,
                            writable: false,
                            accessed,
                            dirty,
                        },
                    );
                    self.process_mut(child)?.mm.set_pte(
                        vpn,
                        Pte::Present {
                            frame,
                            writable: false,
                            accessed: false,
                            dirty: false,
                        },
                    );
                }
                Pte::Swapped { slot } => {
                    // Duplicate the swap contents into a new slot for the
                    // child.
                    let mut page = [0u8; crate::PAGE_SIZE];
                    let data = self
                        .swap
                        .peek(slot)
                        .ok_or(MmError::InvalidArgument("fork: empty swap slot"))?;
                    page.copy_from_slice(data);
                    let new_slot = self.swap.swap_out(&page)?;
                    self.process_mut(child)?
                        .mm
                        .set_pte(vpn, Pte::Swapped { slot: new_slot });
                }
            }
        }
        Ok(child)
    }

    /// `madvise(MADV_DONTFORK)` / `madvise(MADV_DOFORK)`: mark
    /// `[addr, addr+len)` as not-copied-on-fork (or copied again). The
    /// remedy the Linux world eventually adopted for registered (pinned)
    /// memory: a child never shares the region, so the parent's stores
    /// never COW away from the NIC's frames.
    pub fn madvise_dontfork(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        dontfork: bool,
    ) -> MmResult<()> {
        let span = self.mapped_span(pid, addr, len, "madvise of zero length")?;
        let proc = self.process_mut(pid)?;
        proc.mm
            .vmas
            .for_range_mut(span.base, span.end(), |v| v.flags.dontfork = dontfork);
        proc.mm.vmas.merge_adjacent();
        Ok(())
    }

    /// `mprotect`: change the protection of `[addr, addr+len)`, splitting
    /// VMAs at the boundaries. Downgrading to read-only also
    /// write-protects the PTEs so the next store faults.
    pub fn mprotect(&mut self, pid: Pid, addr: VirtAddr, len: usize, prot: u8) -> MmResult<()> {
        let span = self.mapped_span(pid, addr, len, "mprotect of zero length")?;
        let (start, end) = (span.base, span.end());
        let read = prot & crate::prot::READ != 0;
        let write = prot & crate::prot::WRITE != 0;
        let proc = self.process_mut(pid)?;
        proc.mm.vmas.for_range_mut(start, end, |v| {
            v.flags.read = read;
            v.flags.write = write;
        });
        proc.mm.vmas.merge_adjacent();
        if !write {
            // Write-protect present PTEs in the range.
            let vpns: Vec<u64> = proc
                .mm
                .ptes_in(AddressSpace::vpn(start), AddressSpace::vpn(end))
                .map(|(v, _)| v)
                .collect();
            for vpn in vpns {
                if let Some(Pte::Present { writable, .. }) = proc.mm.pte_mut(vpn) {
                    *writable = false;
                }
            }
        }
        Ok(())
    }

    /// How many processes currently map `frame` (diagnostics for COW
    /// tests).
    pub fn mappers_of(&self, frame: crate::FrameId) -> usize {
        self.procs
            .values()
            .flat_map(|p| p.mm.ptes_in(0, u64::MAX))
            .filter(|(_, pte)| pte.frame() == Some(frame))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageFlags;
    use crate::{prot, Capabilities, KernelConfig, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, VirtAddr) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(pid, a, b"parent data").unwrap();
        (k, pid, a)
    }

    #[test]
    fn fork_shares_then_cow_isolates() {
        let (mut k, parent, a) = setup();
        let f0 = k.frame_of(parent, a).unwrap().unwrap();
        let child = k.fork(parent).unwrap();
        // Shared read-only.
        assert_eq!(k.frame_of(child, a).unwrap(), Some(f0));
        assert_eq!(k.page_descriptor(f0).count(), 2);
        let mut out = [0u8; 11];
        k.read_user(child, a, &mut out).unwrap();
        assert_eq!(&out, b"parent data");
        // Child write COWs; parent unaffected.
        k.write_user(child, a, b"child  data").unwrap();
        assert_ne!(k.frame_of(child, a).unwrap(), Some(f0));
        k.read_user(parent, a, &mut out).unwrap();
        assert_eq!(&out, b"parent data");
        assert_eq!(k.mm_stats().cow_copies, 1);
    }

    #[test]
    fn parent_write_also_cows() {
        let (mut k, parent, a) = setup();
        let f0 = k.frame_of(parent, a).unwrap().unwrap();
        let child = k.fork(parent).unwrap();
        // Parent writes first: parent moves to a new frame, child keeps f0.
        k.write_user(parent, a, b"updated").unwrap();
        assert_ne!(k.frame_of(parent, a).unwrap(), Some(f0));
        assert_eq!(k.frame_of(child, a).unwrap(), Some(f0));
        let mut out = [0u8; 11];
        k.read_user(child, a, &mut out).unwrap();
        assert_eq!(&out, b"parent data", "child still sees the pre-fork data");
    }

    #[test]
    fn fork_copies_swapped_pages() {
        let mut k = Kernel::new(KernelConfig {
            nframes: 64,
            reserved_frames: 4,
            swap_slots: 1024,
            default_rlimit_memlock: None,
            swap_cache: false,
        });
        let parent = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(parent, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(parent, a, b"swapme").unwrap();
        // Force the page out.
        let hog = k.spawn_process(Capabilities::default());
        let hb = k
            .mmap_anon(hog, 80 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        for i in 0..80 {
            let _ = k.write_user(hog, hb + (i * PAGE_SIZE) as u64, &[1u8; 8]);
        }
        assert!(k.frame_of(parent, a).unwrap().is_none(), "page swapped");
        let child = k.fork(parent).unwrap();
        let mut out = [0u8; 6];
        k.read_user(child, a, &mut out).unwrap();
        assert_eq!(&out, b"swapme");
        // Independent copies: child write does not leak to parent.
        k.write_user(child, a, b"child!").unwrap();
        k.read_user(parent, a, &mut out).unwrap();
        assert_eq!(&out, b"swapme");
    }

    #[test]
    fn vm_locked_not_inherited() {
        let mut k = Kernel::new(KernelConfig::small());
        let parent = k.spawn_process(Capabilities::root());
        let a = k
            .mmap_anon(parent, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.sys_mlock(parent, a, 2 * PAGE_SIZE).unwrap();
        let child = k.fork(parent).unwrap();
        assert_eq!(k.locked_bytes(parent).unwrap(), 2 * PAGE_SIZE as u64);
        assert_eq!(
            k.locked_bytes(child).unwrap(),
            0,
            "mlock is per address space"
        );
    }

    #[test]
    fn mprotect_downgrade_faults_writes() {
        let (mut k, pid, a) = setup();
        k.mprotect(pid, a, PAGE_SIZE, prot::READ).unwrap();
        assert!(matches!(
            k.write_user(pid, a, b"x"),
            Err(MmError::ProtFault { .. })
        ));
        let mut out = [0u8; 4];
        k.read_user(pid, a, &mut out).unwrap(); // reads still fine
                                                // Other pages unaffected.
        k.write_user(pid, a + PAGE_SIZE as u64, b"ok").unwrap();
        // Upgrade back; the next write COW/unprotect-faults and succeeds.
        k.mprotect(pid, a, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(pid, a, b"y").unwrap();
    }

    #[test]
    fn mprotect_splits_and_merges_vmas() {
        let (mut k, pid, a) = setup();
        assert_eq!(k.vma_count(pid).unwrap(), 1);
        k.mprotect(pid, a + PAGE_SIZE as u64, PAGE_SIZE, prot::READ)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 3);
        k.mprotect(
            pid,
            a + PAGE_SIZE as u64,
            PAGE_SIZE,
            prot::READ | prot::WRITE,
        )
        .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 1);
    }

    #[test]
    fn madvise_dontfork_excludes_region_from_children() {
        let (mut k, parent, a) = setup();
        k.madvise_dontfork(parent, a, PAGE_SIZE, true).unwrap();
        let child = k.fork(parent).unwrap();
        // Page 0 absent in the child; page 1 present as COW.
        assert!(matches!(
            k.read_user(child, a, &mut [0u8; 1]),
            Err(MmError::SegFault { .. })
        ));
        let mut out = [0u8; 1];
        k.read_user(child, a + PAGE_SIZE as u64, &mut out).unwrap();
        // And crucially: the parent's frame stays private — no COW on the
        // parent's next write.
        let f0 = k.frame_of(parent, a).unwrap().unwrap();
        k.write_user(parent, a, b"still mine").unwrap();
        assert_eq!(k.frame_of(parent, a).unwrap(), Some(f0));
    }

    #[test]
    fn madvise_dofork_restores_inheritance() {
        let (mut k, parent, a) = setup();
        k.madvise_dontfork(parent, a, PAGE_SIZE, true).unwrap();
        k.madvise_dontfork(parent, a, PAGE_SIZE, false).unwrap();
        let child = k.fork(parent).unwrap();
        let mut out = [0u8; 6];
        k.read_user(child, a, &mut out).unwrap();
        assert_eq!(&out, b"parent");
    }

    #[test]
    fn flag_bit_survives_fork_shared_frame() {
        // A pinned (PG_locked) frame shared COW after fork stays pinned.
        let (mut k, parent, a) = setup();
        let f0 = k.frame_of(parent, a).unwrap().unwrap();
        k.raw_set_page_flag(f0, PageFlags::LOCKED);
        let child = k.fork(parent).unwrap();
        assert!(k.page_descriptor(f0).flags().contains(PageFlags::LOCKED));
        assert_eq!(k.mappers_of(f0), 2);
        k.raw_clear_page_flag(f0, PageFlags::LOCKED);
        let _ = child;
    }
}
