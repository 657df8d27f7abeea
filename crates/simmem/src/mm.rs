//! Per-process address space: page table + VMA set (`struct mm_struct`).

use std::collections::{BTreeMap, BTreeSet};

use crate::{FrameId, SlotId, VmaSet, PAGE_SHIFT};

/// A virtual address in a process address space.
pub type VirtAddr = u64;

/// A virtual page number (`addr >> PAGE_SHIFT`).
pub type Vpn = u64;

/// A page-table entry. Linux packs this into one machine word; the simulator
/// spells the states out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pte {
    /// Present and mapped to a physical frame.
    Present {
        frame: FrameId,
        /// Hardware write-enable. Clear on a writable VMA means COW.
        writable: bool,
        /// Hardware accessed bit — food for the second-chance stealer.
        accessed: bool,
        /// Hardware dirty bit.
        dirty: bool,
    },
    /// Not present: the contents live in the given swap slot
    /// (`pte_to_swp_entry`).
    Swapped { slot: SlotId },
}

impl Pte {
    pub fn present(frame: FrameId, writable: bool) -> Self {
        Pte::Present {
            frame,
            writable,
            accessed: true,
            dirty: writable,
        }
    }

    /// The mapped frame, if present.
    pub fn frame(&self) -> Option<FrameId> {
        match self {
            Pte::Present { frame, .. } => Some(*frame),
            Pte::Swapped { .. } => None,
        }
    }
}

/// Address space of one process: VMAs plus a sparse page table.
///
/// A `BTreeMap` keyed by VPN stands in for the multi-level page-table tree.
/// The walk order `swap_out_vma` uses — ascending VPN — comes from the
/// ordered `present` index beside it, which holds only what the stealer can
/// take: a VMA that is mostly swap entries costs the scan nothing.
#[derive(Debug, Default)]
pub struct AddressSpace {
    pub vmas: VmaSet,
    ptes: BTreeMap<Vpn, Pte>,
    /// The VPNs whose PTE is [`Pte::Present`], derived from `ptes` and
    /// maintained only by [`AddressSpace::set_pte`] and
    /// [`AddressSpace::clear_pte`] — nothing else can change presence.
    /// Makes the RSS a length and "first resident page at or after `v`" a
    /// range lookup; `Kernel::check_invariants` recounts it.
    present: BTreeSet<Vpn>,
    /// Bump pointer for `mmap` placement (the simulated `TASK_UNMAPPED_BASE`).
    pub mmap_base: VirtAddr,
    /// PTEs the stealer's scan looked at (the cost the index bounds).
    #[cfg(test)]
    pub(crate) ptes_scanned: u64,
}

/// Where anonymous mappings begin; mirrors `TASK_UNMAPPED_BASE` on i386.
pub const TASK_UNMAPPED_BASE: VirtAddr = 0x4000_0000;

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace {
            vmas: VmaSet::new(),
            ptes: BTreeMap::new(),
            present: BTreeSet::new(),
            mmap_base: TASK_UNMAPPED_BASE,
            #[cfg(test)]
            ptes_scanned: 0,
        }
    }

    #[inline]
    pub fn vpn(addr: VirtAddr) -> Vpn {
        addr >> PAGE_SHIFT
    }

    #[inline]
    pub fn pte(&self, vpn: Vpn) -> Option<&Pte> {
        self.ptes.get(&vpn)
    }

    /// Edit the bits of an entry in place. Crate-private because presence
    /// must not change through it: a `Present` entry stays `Present` on the
    /// same VPN, or the `present` index goes stale.
    #[inline]
    pub(crate) fn pte_mut(&mut self, vpn: Vpn) -> Option<&mut Pte> {
        self.ptes.get_mut(&vpn)
    }

    #[inline]
    pub fn set_pte(&mut self, vpn: Vpn, pte: Pte) {
        if matches!(pte, Pte::Present { .. }) {
            self.present.insert(vpn);
        } else {
            self.present.remove(&vpn);
        }
        self.ptes.insert(vpn, pte);
    }

    #[inline]
    pub fn clear_pte(&mut self, vpn: Vpn) -> Option<Pte> {
        self.present.remove(&vpn);
        self.ptes.remove(&vpn)
    }

    /// Iterate PTEs for VPNs in `[from, to)` in address order.
    pub fn ptes_in(&self, from: Vpn, to: Vpn) -> impl Iterator<Item = (Vpn, &Pte)> {
        self.ptes.range(from..to).map(|(k, v)| (*k, v))
    }

    /// The run of `[from, to)` a walk may take without a fault: the frames
    /// of the consecutive PTEs from `from` on that are present and, for a
    /// write, writable — appended to `out`, in one ordered pass.
    pub(crate) fn present_run(&self, from: Vpn, to: Vpn, write: bool, out: &mut Vec<FrameId>) {
        for (next, (&vpn, pte)) in (from..).zip(self.ptes.range(from..to)) {
            match *pte {
                Pte::Present {
                    frame, writable, ..
                } if vpn == next && (writable || !write) => out.push(frame),
                _ => break,
            }
        }
    }

    /// Set the accessed bit — and the dirty bit, for a write — of the
    /// `pages` present PTEs from `from` on, in one ordered pass: what a
    /// fault-free access to each of them does.
    pub(crate) fn mark_accessed(&mut self, from: Vpn, pages: u64, write: bool) {
        for (_, pte) in self.ptes.range_mut(from..from + pages) {
            let Pte::Present {
                accessed, dirty, ..
            } = pte
            else {
                debug_assert!(false, "a run page is not present");
                continue;
            };
            *accessed = true;
            *dirty |= write;
        }
    }

    /// Number of present pages inside `[from, to)`.
    pub(crate) fn present_in(&self, from: Vpn, to: Vpn) -> usize {
        self.present.range(from..to).count()
    }

    /// One step of the stealer's second-chance scan over `[from, to)`: pass
    /// over the present pages in address order, clearing the accessed bit
    /// of every referenced one (its second chance), and stop at the first
    /// cold page. Returns that page and its frame, or `None` when the
    /// window holds no cold page; `aged` is set when a bit was cleared.
    pub(crate) fn age_until_cold(
        &mut self,
        from: Vpn,
        to: Vpn,
        aged: &mut bool,
    ) -> Option<(Vpn, FrameId)> {
        for &vpn in self.present.range(from..to) {
            #[cfg(test)]
            {
                self.ptes_scanned += 1;
            }
            let Some(Pte::Present {
                frame, accessed, ..
            }) = self.ptes.get_mut(&vpn)
            else {
                debug_assert!(false, "present index names a non-present page {vpn:#x}");
                continue;
            };
            if !*accessed {
                return Some((vpn, *frame));
            }
            *accessed = false;
            *aged = true;
        }
        None
    }

    /// Number of resident (present) pages — the RSS.
    pub fn rss(&self) -> usize {
        self.present.len()
    }

    /// Number of swapped-out pages.
    pub fn swapped(&self) -> usize {
        self.ptes.len() - self.present.len()
    }

    /// The `present` index against a recount of the page table (the
    /// kernel census, see `Kernel::check_invariants`).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let recount = self
            .ptes
            .iter()
            .filter(|(_, p)| matches!(p, Pte::Present { .. }))
            .map(|(v, _)| v);
        if !recount.eq(self.present.iter()) {
            return Err(format!(
                "present index ({} pages) disagrees with the page table",
                self.present.len()
            ));
        }
        Ok(())
    }

    /// Pick an unused, page-aligned range of `len` bytes (bump allocation —
    /// `get_unmapped_area`). `None` when no such range fits below the top
    /// of the address space.
    pub fn find_free_range(&mut self, len: u64) -> Option<VirtAddr> {
        let len = len.checked_next_multiple_of(crate::PAGE_SIZE as u64)?;
        // Scan forward from the bump pointer past any existing VMAs.
        let mut start = self.mmap_base;
        loop {
            let end = start.checked_add(len)?;
            if !self.vmas.overlaps(start, end) {
                self.mmap_base = end;
                return Some(start);
            }
            // Skip to the end of the blocking VMA.
            start = self
                .vmas
                .iter()
                .filter(|v| v.start < end && v.end > start)
                .map(|v| v.end)
                .max()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VmArea, VmFlags, PAGE_SIZE};

    const P: u64 = PAGE_SIZE as u64;

    #[test]
    fn pte_roundtrip() {
        let mut asp = AddressSpace::new();
        assert!(asp.pte(5).is_none());
        asp.set_pte(5, Pte::present(FrameId(7), true));
        assert_eq!(asp.pte(5).unwrap().frame(), Some(FrameId(7)));
        asp.set_pte(5, Pte::Swapped { slot: SlotId(3) });
        assert_eq!(asp.pte(5).unwrap().frame(), None);
        assert!(asp.clear_pte(5).is_some());
        assert!(asp.pte(5).is_none());
    }

    #[test]
    fn rss_accounting() {
        let mut asp = AddressSpace::new();
        asp.set_pte(1, Pte::present(FrameId(1), true));
        asp.set_pte(2, Pte::present(FrameId(2), false));
        asp.set_pte(3, Pte::Swapped { slot: SlotId(0) });
        assert_eq!(asp.rss(), 2);
        assert_eq!(asp.swapped(), 1);
    }

    #[test]
    fn free_range_skips_existing() {
        let mut asp = AddressSpace::new();
        let a = asp.find_free_range(4 * P).unwrap();
        asp.vmas
            .insert(VmArea {
                start: a,
                end: a + 4 * P,
                flags: VmFlags::rw(),
            })
            .unwrap();
        let b = asp.find_free_range(2 * P).unwrap();
        assert!(b >= a + 4 * P, "second range placed after the first");
        asp.vmas
            .insert(VmArea {
                start: b,
                end: b + 2 * P,
                flags: VmFlags::rw(),
            })
            .unwrap();
        asp.vmas.check_invariants().unwrap();
    }

    #[test]
    fn present_index_follows_every_presence_change() {
        let mut asp = AddressSpace::new();
        for vpn in [10u64, 11, 13, 20] {
            asp.set_pte(vpn, Pte::present(FrameId(vpn as u32), true));
        }
        asp.set_pte(12, Pte::Swapped { slot: SlotId(9) });
        assert_eq!((asp.rss(), asp.swapped()), (4, 1));
        assert_eq!(asp.present_in(10, 14), 3);
        asp.check_invariants().unwrap();
        // Present → swapped, swapped → present, present → present, gone.
        asp.set_pte(11, Pte::Swapped { slot: SlotId(3) });
        asp.set_pte(12, Pte::present(FrameId(2), false));
        asp.set_pte(13, Pte::present(FrameId(4), true));
        asp.clear_pte(10);
        asp.clear_pte(11);
        assert_eq!((asp.rss(), asp.swapped()), (3, 0));
        assert_eq!(asp.present_in(10, 14), 2);
        asp.check_invariants().unwrap();
    }

    #[test]
    fn second_chance_scan_ages_what_it_passes() {
        let mut asp = AddressSpace::new();
        for vpn in 10u64..16 {
            asp.set_pte(vpn, Pte::present(FrameId(vpn as u32), true));
        }
        asp.set_pte(12, Pte::Swapped { slot: SlotId(0) });
        let accessed = |asp: &AddressSpace, vpn| {
            matches!(asp.pte(vpn), Some(Pte::Present { accessed: true, .. }))
        };
        if let Some(Pte::Present { accessed, .. }) = asp.pte_mut(13) {
            *accessed = false;
        }
        // 10 and 11 are referenced: aged and passed. 12 is not resident.
        // 13 is cold: the victim. 14 and 15 are never reached.
        let mut aged = false;
        assert_eq!(
            asp.age_until_cold(10, 16, &mut aged),
            Some((13, FrameId(13)))
        );
        assert!(aged);
        assert!(!accessed(&asp, 10) && !accessed(&asp, 11));
        assert!(accessed(&asp, 14) && accessed(&asp, 15));
        // Nothing cold in a window of referenced pages: all aged, no victim.
        let mut aged = false;
        assert_eq!(asp.age_until_cold(14, 16, &mut aged), None);
        assert!(aged && !accessed(&asp, 14) && !accessed(&asp, 15));
        // An empty window ages nothing.
        let mut aged = false;
        assert_eq!(asp.age_until_cold(100, 200, &mut aged), None);
        assert!(!aged);
    }
}
