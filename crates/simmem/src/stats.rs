//! Counters exposed by the simulated kernel — the experiment harness reads
//! these to report what the VM actually did under pressure.
//!
//! The kernel's live counters ([`MmCounters`]) are per-field atomics, so
//! `&Kernel` paths can bump them; readers take a coherent [`MmStats`] value
//! via [`MmCounters::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Implements a `since(&self, earlier: &Self) -> Self` windowed difference
/// for a counter struct, subtracting field by field. The field list must be
/// exhaustive — the struct-literal expansion fails to compile if a field is
/// missing, so new counters cannot silently escape diffing.
///
/// Shared by every stats block in the workspace (`MmStats` here, `NicStats`
/// in `via`, `MsgStats` in `msg`, fabric counters in the threaded cluster).
#[macro_export]
macro_rules! impl_since {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            /// Difference `self - earlier`, for windowed measurements.
            pub fn since(&self, earlier: &$ty) -> $ty {
                $ty {
                    $($field: self.$field - earlier.$field,)+
                }
            }
        }
    };
}

/// Cumulative memory-management statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MmStats {
    /// Minor faults: demand-zero, COW breaks, zero-page maps.
    pub minor_faults: u64,
    /// Major faults: swap-ins.
    pub major_faults: u64,
    /// Pages written out by the stealer.
    pub swap_outs: u64,
    /// Pages read back in.
    pub swap_ins: u64,
    /// COW copies performed.
    pub cow_copies: u64,
    /// Calls into `try_to_free_pages` (i.e. allocations that found the free
    /// list empty).
    pub reclaim_passes: u64,
    /// Pages the stealer unmapped whose reference count stayed above zero:
    /// **orphaned frames** — the smoking gun of the paper's locktest.
    pub orphaned_pages: u64,
    /// Pages the stealer skipped because their VMA was `VM_LOCKED`.
    pub skipped_vm_locked: u64,
    /// Pages the stealer skipped because `PG_locked`/`PG_reserved` was set.
    pub skipped_pg_locked: u64,
    /// kiobuf pages pinned (map_user_kiobuf page grabs).
    pub kiobuf_pins: u64,
    /// kiobuf pages released.
    pub kiobuf_unpins: u64,
    /// Pages added to the swap cache (2.4 semantics only).
    pub swap_cache_adds: u64,
    /// Refaults satisfied from the swap cache — same frame re-mapped.
    pub swap_cache_hits: u64,
    /// Faults forced by the pluggable injector (see [`crate::inject`]),
    /// counted across all sites including the ones upper layers register.
    pub faults_injected: u64,
    /// Protection-trap pins: lazy pins taken by `lazy_pin_page` when an
    /// on-demand registration's page was faulted in on first NIC access.
    pub protection_faults: u64,
    /// Lazy pins that *re*-pinned a page previously dissolved by the page
    /// stealer or a COW break (subset of `protection_faults`).
    pub repins: u64,
    /// On-demand pins the page stealer dissolved under memory pressure
    /// (cold `PG_ondemand` frames unpinned and queued for TPT
    /// invalidation).
    pub pressure_unpins: u64,
    /// On-demand pins dissolved because a COW break moved the mapping to a
    /// fresh frame (write-after-fork hazard made visible).
    pub cow_invalidations: u64,
}

impl_since!(MmStats {
    minor_faults,
    major_faults,
    swap_outs,
    swap_ins,
    cow_copies,
    reclaim_passes,
    orphaned_pages,
    skipped_vm_locked,
    skipped_pg_locked,
    kiobuf_pins,
    kiobuf_unpins,
    swap_cache_adds,
    swap_cache_hits,
    faults_injected,
    protection_faults,
    repins,
    pressure_unpins,
    cow_invalidations,
});

/// Convenience ops for atomic counters — keeps the 50-odd bump sites as
/// terse as the old `+= 1` field writes.
pub trait CounterCell {
    /// Increment by one.
    fn bump(&self);
    /// Increment by `n`.
    fn add(&self, n: u64);
    /// Relaxed read.
    fn get(&self) -> u64;
}

impl CounterCell for AtomicU64 {
    #[inline]
    fn bump(&self) {
        self.fetch_add(1, Ordering::Relaxed);
    }
    #[inline]
    fn add(&self, n: u64) {
        self.fetch_add(n, Ordering::Relaxed);
    }
    #[inline]
    fn get(&self) -> u64 {
        self.load(Ordering::Relaxed)
    }
}

/// Declares the atomic twin of [`MmStats`]: same field list (the
/// struct-literal expansion in `snapshot` fails to compile if the lists
/// drift), per-field `AtomicU64`, mutable through `&self`.
macro_rules! mm_counters {
    ($($field:ident),+ $(,)?) => {
        /// Live kernel counters: the atomic twin of [`MmStats`].
        #[derive(Debug, Default)]
        pub struct MmCounters {
            $(pub $field: AtomicU64,)+
        }

        impl MmCounters {
            /// Coherent value snapshot for reporting and `since` diffing.
            pub fn snapshot(&self) -> MmStats {
                MmStats {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }
    };
}

mm_counters!(
    minor_faults,
    major_faults,
    swap_outs,
    swap_ins,
    cow_copies,
    reclaim_passes,
    orphaned_pages,
    skipped_vm_locked,
    skipped_pg_locked,
    kiobuf_pins,
    kiobuf_unpins,
    swap_cache_adds,
    swap_cache_hits,
    faults_injected,
    protection_faults,
    repins,
    pressure_unpins,
    cow_invalidations,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_difference() {
        let a = MmStats {
            swap_outs: 10,
            major_faults: 3,
            ..Default::default()
        };
        let b = MmStats {
            swap_outs: 25,
            major_faults: 7,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.swap_outs, 15);
        assert_eq!(d.major_faults, 4);
        assert_eq!(d.minor_faults, 0);
    }

    #[test]
    fn counters_snapshot() {
        let c = MmCounters::default();
        c.swap_outs.bump();
        c.swap_outs.bump();
        c.skipped_vm_locked.add(8);
        let s = c.snapshot();
        assert_eq!(s.swap_outs, 2);
        assert_eq!(s.skipped_vm_locked, 8);
        assert_eq!(s.minor_faults, 0);
        assert_eq!(c.swap_outs.get(), 2);
    }
}

/// A /proc/meminfo-style snapshot (see [`crate::Kernel::meminfo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemInfo {
    pub total_frames: usize,
    pub free_frames: usize,
    /// Present pages summed over all processes (shared pages count once
    /// per mapping).
    pub resident_pages: usize,
    pub swapped_pages: usize,
    pub orphaned_frames: usize,
    pub swap_cache_frames: usize,
}
