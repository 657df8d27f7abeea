//! Registration cost in **kernel-event units** — the deterministic
//! companion to the wall-clock E2/E3 benches: how many faults, page
//! references, VMA splits and page-lock transitions one registration of
//! `npages` costs under each strategy. These counts are exact and
//! machine-independent, so they pin down the *why* behind the E2 curves.

use simmem::{prot, Capabilities, Kernel, KernelConfig, MmStats, PAGE_SIZE};
use vialock::{MemoryRegistry, StrategyKind};

/// Event counts for one registration.
#[derive(Debug, Clone)]
pub struct RegMetrics {
    pub strategy: &'static str,
    pub npages: usize,
    /// Page faults taken during registration (cold buffer).
    pub faults: u64,
    /// COW copies (zero-page breaks) during registration.
    pub cow_copies: u64,
    /// VMA count after registration (mlock splits show up here).
    pub vmas_after: usize,
    /// Pages whose `PG_locked` bit the strategy holds afterwards.
    pub pages_locked: usize,
    /// Pages with an elevated reference count afterwards.
    pub pages_referenced: usize,
    /// Bytes under `VM_LOCKED` afterwards.
    pub vm_locked_bytes: u64,
}

/// Measure one (strategy, size) cell on a fresh machine with a cold
/// buffer.
pub fn measure(strategy: StrategyKind, npages: usize) -> RegMetrics {
    let mut k = Kernel::new(KernelConfig {
        nframes: (npages as u32 * 4).max(256),
        reserved_frames: 8,
        swap_slots: 16,
        default_rlimit_memlock: None,
        swap_cache: false,
    });
    let pid = k.spawn_process(Capabilities::default());
    let len = npages * PAGE_SIZE;
    let buf = k
        .mmap_anon(pid, len, prot::READ | prot::WRITE)
        .expect("mmap");
    let mut reg = MemoryRegistry::new(strategy);

    let before: MmStats = k.mm_stats();
    let h = reg.register(&mut k, pid, buf, len).expect("register");
    let d = k.mm_stats().since(&before);

    let frames = reg.frames(h).expect("frames").to_vec();
    let pages_locked = frames
        .iter()
        .filter(|&&f| {
            k.page_descriptor(f)
                .flags()
                .contains(simmem::PageFlags::LOCKED)
        })
        .count();
    let pages_referenced = frames
        .iter()
        .filter(|&&f| k.page_descriptor(f).count() > 1)
        .count();
    let out = RegMetrics {
        strategy: strategy.label(),
        npages,
        faults: d.minor_faults + d.major_faults,
        cow_copies: d.cow_copies,
        vmas_after: k.vma_count(pid).expect("vma count"),
        pages_locked,
        pages_referenced,
        vm_locked_bytes: k.locked_bytes(pid).expect("locked bytes"),
    };
    reg.deregister(&mut k, h).expect("deregister");
    out
}

/// The full matrix for one size.
pub fn measure_matrix(npages: usize) -> Vec<RegMetrics> {
    StrategyKind::ALL
        .into_iter()
        .map(|s| measure(s, npages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_scale_with_pages() {
        for s in StrategyKind::ALL {
            // mlock pays TWO faults per cold page: make_pages_present
            // read-faults onto the zero page, then the TPT walk must break
            // COW with a write fault. The page-at-a-time strategies pay one.
            // On-demand pays ZERO here — registration only write-protects;
            // the faults move to the first NIC access of each page.
            let per_page = match s {
                StrategyKind::VmaMlock => 2,
                StrategyKind::OnDemand => 0,
                _ => 1,
            };
            let small = measure(s, 4);
            let large = measure(s, 32);
            assert_eq!(small.faults, 4 * per_page, "{s:?}");
            assert_eq!(large.faults, 32 * per_page, "{s:?}");
        }
    }

    #[test]
    fn mechanisms_leave_their_signatures() {
        let m = measure(StrategyKind::RefcountOnly, 8);
        assert_eq!(m.pages_referenced, 8);
        assert_eq!(m.pages_locked, 0, "no PG_locked — the whole problem");
        assert_eq!(m.vm_locked_bytes, 0);

        let m = measure(StrategyKind::RawFlags, 8);
        assert_eq!(m.pages_locked, 8);

        let m = measure(StrategyKind::VmaMlock, 8);
        assert_eq!(m.vm_locked_bytes, 8 * PAGE_SIZE as u64);
        assert_eq!(m.pages_locked, 0);

        let m = measure(StrategyKind::KiobufReliable, 8);
        assert_eq!(m.pages_locked, 8);
        assert_eq!(m.pages_referenced, 8);
        assert_eq!(m.vm_locked_bytes, 0, "no VMA involvement");
    }

    #[test]
    fn mlock_splits_vmas_when_partial() {
        // Register 8 pages out of a larger mapping: mlock carves the VMA.
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let buf = k
            .mmap_anon(pid, 16 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
        let h = reg
            .register(&mut k, pid, buf + 4 * PAGE_SIZE as u64, 8 * PAGE_SIZE)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 3, "mlock split 1 VMA into 3");
        let mut reg2 = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let h2 = reg2
            .register(&mut k, pid, buf + 4 * PAGE_SIZE as u64, 8 * PAGE_SIZE)
            .unwrap();
        assert_eq!(k.vma_count(pid).unwrap(), 3, "kiobuf adds no splits");
        reg.deregister(&mut k, h).unwrap();
        reg2.deregister(&mut k, h2).unwrap();
    }
}
