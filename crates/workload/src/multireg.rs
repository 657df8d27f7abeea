//! **E4 — multiple-registration semantics.**
//!
//! The VIA spec requires that a region may be registered several times.
//! This experiment registers a buffer twice, deregisters once, applies
//! memory pressure, and checks whether the pages stayed pinned:
//!
//! * *naive mlock* (no driver bookkeeping — what a straight port of the
//!   mlock approach does): the single `munlock` annuls both locks and the
//!   pages get swapped — **broken**;
//! * the registry's mlock with interval bookkeeping: pages stay locked;
//! * the kiobuf proposal: per-frame pin counts keep the `PG_locked` bits.

use simmem::{prot, Capabilities, Kernel, KernelConfig, PAGE_SIZE};
use vialock::{MemoryRegistry, StrategyKind};

use crate::pressure::apply_pressure;

/// Outcome of one multiple-registration scenario.
#[derive(Debug, Clone)]
pub struct MultiregOutcome {
    pub scheme: &'static str,
    /// Pages that survived in place after dereg-once + pressure.
    pub pages_survived: usize,
    pub pages_total: usize,
    /// Whether the remaining registration stayed consistent.
    pub consistent: bool,
}

fn tight_kernel(npages: usize) -> Kernel {
    Kernel::new(KernelConfig {
        nframes: (npages as u32 * 8).max(128),
        reserved_frames: 8,
        swap_slots: npages as u32 * 64,
        default_rlimit_memlock: None,
        swap_cache: false,
    })
}

/// Naive mlock: two `do_mlock` calls, one `munlock`, no bookkeeping.
pub fn run_naive_mlock(npages: usize) -> MultiregOutcome {
    let mut k = tight_kernel(npages);
    let pid = k.spawn_process(Capabilities::root());
    let len = npages * PAGE_SIZE;
    let buf = k.mmap_anon(pid, len, prot::READ | prot::WRITE).unwrap();
    k.write_user(pid, buf, &vec![7u8; len]).unwrap();
    let before = k.frames_of_range(pid, buf, len).unwrap();

    // "Register" twice, "deregister" once — mlock does not nest.
    k.sys_mlock(pid, buf, len).unwrap();
    k.sys_mlock(pid, buf, len).unwrap();
    k.sys_munlock(pid, buf, len).unwrap();

    let pressure_pages = k.config.nframes as usize * 2;
    apply_pressure(&mut k, pressure_pages);

    let after = k.frames_of_range(pid, buf, len).unwrap();
    let survived = before
        .iter()
        .zip(after.iter())
        .filter(|(b, a)| b == a && a.is_some())
        .count();
    MultiregOutcome {
        scheme: "naive-mlock",
        pages_survived: survived,
        pages_total: npages,
        consistent: survived == npages,
    }
}

/// Registry-managed double registration with `strategy`.
pub fn run_registry(strategy: StrategyKind, npages: usize) -> MultiregOutcome {
    let mut k = tight_kernel(npages);
    let pid = k.spawn_process(Capabilities::default());
    let len = npages * PAGE_SIZE;
    let buf = k.mmap_anon(pid, len, prot::READ | prot::WRITE).unwrap();
    k.write_user(pid, buf, &vec![7u8; len]).unwrap();

    let mut reg = MemoryRegistry::new(strategy);
    let h1 = reg.register(&mut k, pid, buf, len).unwrap();
    let h2 = reg.register(&mut k, pid, buf, len).unwrap();
    reg.deregister(&mut k, h1).unwrap();

    let pressure_pages = k.config.nframes as usize * 2;
    apply_pressure(&mut k, pressure_pages);

    let consistent = reg.verify_consistency(&k, h2).unwrap();
    let current = k.frames_of_range(pid, buf, len).unwrap();
    let survived = reg
        .frames(h2)
        .unwrap()
        .iter()
        .zip(current.iter())
        .filter(|(r, c)| Some(**r) == **c)
        .count();
    reg.deregister(&mut k, h2).unwrap();
    MultiregOutcome {
        scheme: strategy.label(),
        pages_survived: survived,
        pages_total: npages,
        consistent,
    }
}

/// The full E4 table.
pub fn run_multireg_matrix(npages: usize) -> Vec<MultiregOutcome> {
    let mut rows = vec![run_naive_mlock(npages)];
    for s in [StrategyKind::VmaMlock, StrategyKind::KiobufReliable] {
        rows.push(run_registry(s, npages));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_mlock_breaks_multiple_registration() {
        let o = run_naive_mlock(16);
        assert!(!o.consistent, "one munlock annulled both locks");
        assert!(o.pages_survived < o.pages_total);
    }

    #[test]
    fn registry_mlock_bookkeeping_survives() {
        let o = run_registry(StrategyKind::VmaMlock, 16);
        assert!(o.consistent);
        assert_eq!(o.pages_survived, 16);
    }

    #[test]
    fn kiobuf_pin_counts_survive() {
        let o = run_registry(StrategyKind::KiobufReliable, 16);
        assert!(o.consistent);
        assert_eq!(o.pages_survived, 16);
    }

    #[test]
    fn matrix_shape() {
        let m = run_multireg_matrix(8);
        assert_eq!(m.len(), 3);
        assert!(!m[0].consistent);
        assert!(m[1].consistent && m[2].consistent);
    }
}
