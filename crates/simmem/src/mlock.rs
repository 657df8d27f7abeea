//! `mlock`/`munlock`: the VMA-based locking approach (paper section 3.2).
//!
//! `sys_mlock` enforces the `CAP_IPC_LOCK` capability — the reason the
//! paper's Kernel Agent must either patch `do_mlock` or temporarily raise
//! the capability (`cap_raise`/`cap_lower`). `do_mlock` splits VMAs at the
//! range boundaries, sets `VM_LOCKED` and makes the pages present.
//! Crucially, **mlock does not nest**: a single `munlock` unlocks the range
//! no matter how many times it was locked.

use crate::error::MmResult;
use crate::{Kernel, MmError, Pid, VirtAddr};

impl Kernel {
    /// The `mlock(2)` syscall: privilege check, then [`Kernel::do_mlock`].
    pub fn sys_mlock(&mut self, pid: Pid, addr: VirtAddr, len: usize) -> MmResult<()> {
        if !self.process(pid)?.caps.ipc_lock {
            return Err(MmError::PermissionDenied);
        }
        self.do_mlock(pid, addr, len, true)
    }

    /// The `munlock(2)` syscall. Note the non-nesting semantics.
    pub fn sys_munlock(&mut self, pid: Pid, addr: VirtAddr, len: usize) -> MmResult<()> {
        if !self.process(pid)?.caps.ipc_lock {
            return Err(MmError::PermissionDenied);
        }
        self.do_mlock(pid, addr, len, false)
    }

    /// `do_mlock`: the internal worker a privileged kernel agent may call
    /// directly (the User-DMA-patch route the paper describes). Splits VMAs,
    /// flips `VM_LOCKED`, and when locking faults every page in
    /// (`make_pages_present`).
    pub fn do_mlock(&mut self, pid: Pid, addr: VirtAddr, len: usize, lock: bool) -> MmResult<()> {
        let span = self.mapped_span(pid, addr, len, "mlock of zero length")?;
        if lock {
            let proc = self.process(pid)?;
            if let Some(limit) = proc.rlimit_memlock {
                // Upper bound; fine for a limit check.
                if proc.mm.vmas.locked_bytes() + span.bytes() as u64 > limit {
                    return Err(MmError::MlockLimit);
                }
            }
        }

        {
            let proc = self.process_mut(pid)?;
            proc.mm
                .vmas
                .for_range_mut(span.base, span.end(), |v| v.flags.locked = lock);
            proc.mm.vmas.merge_adjacent();
        }

        if lock {
            // make_pages_present: fault everything in so the locked range is
            // resident. Read faults suffice (COW still allowed later; the
            // stealer skips the VMA wholesale either way).
            for a in span.pages() {
                self.fault_in(pid, a, false)?;
            }
        }
        Ok(())
    }

    /// `cap_raise(CAP_IPC_LOCK)` — the capability-juggling route: the kernel
    /// agent grants the calling process the lock capability…
    pub fn cap_raise_ipc_lock(&mut self, pid: Pid) -> MmResult<()> {
        self.process_mut(pid)?.caps.ipc_lock = true;
        Ok(())
    }

    /// …and `cap_lower(CAP_IPC_LOCK)` reclaims it afterwards.
    pub fn cap_lower_ipc_lock(&mut self, pid: Pid) -> MmResult<()> {
        self.process_mut(pid)?.caps.ipc_lock = false;
        Ok(())
    }

    /// Set a process' `RLIMIT_MEMLOCK` (bytes; `None` = unlimited).
    pub fn set_rlimit_memlock(&mut self, pid: Pid, limit: Option<u64>) -> MmResult<()> {
        self.process_mut(pid)?.rlimit_memlock = limit;
        Ok(())
    }

    /// Bytes currently locked via `VM_LOCKED` in the process.
    pub fn locked_bytes(&self, pid: Pid) -> MmResult<u64> {
        Ok(self.process(pid)?.mm.vmas.locked_bytes())
    }

    /// Number of VMAs in the process (observes mlock-induced splitting).
    pub fn vma_count(&self, pid: Pid) -> MmResult<usize> {
        Ok(self.process(pid)?.mm.vmas.count())
    }
}

#[cfg(test)]
mod tests {
    use crate::{prot, Capabilities, Kernel, KernelConfig, MmError, PAGE_SIZE};

    #[test]
    fn mlock_requires_capability() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        assert_eq!(
            k.sys_mlock(pid, a, PAGE_SIZE),
            Err(MmError::PermissionDenied)
        );
        // The cap_raise / cap_lower dance from the paper:
        k.cap_raise_ipc_lock(pid).unwrap();
        k.sys_mlock(pid, a, PAGE_SIZE).unwrap();
        k.cap_lower_ipc_lock(pid).unwrap();
        assert_eq!(k.locked_bytes(pid).unwrap(), PAGE_SIZE as u64);
    }

    #[test]
    fn mlock_makes_pages_present() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        assert_eq!(k.rss(pid).unwrap(), 0);
        k.sys_mlock(pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(k.rss(pid).unwrap(), 4);
    }

    #[test]
    fn mlock_splits_and_munlock_merges() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let a = k
            .mmap_anon(pid, 10 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 1);
        k.sys_mlock(pid, a + 2 * PAGE_SIZE as u64, 3 * PAGE_SIZE)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 3);
        k.sys_munlock(pid, a + 2 * PAGE_SIZE as u64, 3 * PAGE_SIZE)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 1, "merge restores one VMA");
    }

    #[test]
    fn munlock_does_not_nest() {
        // The paper's complaint: lock twice, unlock once → unlocked.
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let a = k
            .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.sys_mlock(pid, a, PAGE_SIZE).unwrap();
        k.sys_mlock(pid, a, PAGE_SIZE).unwrap();
        k.sys_munlock(pid, a, PAGE_SIZE).unwrap();
        assert_eq!(
            k.locked_bytes(pid).unwrap(),
            0,
            "single munlock annuls both locks"
        );
    }

    #[test]
    fn mlock_hole_fails() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        // Range extending beyond the mapping has a hole.
        assert!(matches!(
            k.sys_mlock(pid, a, 4 * PAGE_SIZE),
            Err(MmError::SegFault { .. })
        ));
    }

    #[test]
    fn rlimit_enforced() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        k.set_rlimit_memlock(pid, Some(2 * PAGE_SIZE as u64))
            .unwrap();
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        assert_eq!(k.sys_mlock(pid, a, 4 * PAGE_SIZE), Err(MmError::MlockLimit));
        assert!(k.sys_mlock(pid, a, 2 * PAGE_SIZE).is_ok());
    }
}
