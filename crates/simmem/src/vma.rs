//! Virtual memory areas (`struct vm_area_struct`) and the per-process VMA
//! set, including the split/merge logic `do_mlock()` relies on.
//!
//! The paper's VMA-based locking approach (section 3.2) sets `VM_LOCKED` on
//! all VMAs covering a range, splitting the original VMAs at the range
//! boundaries; `swap_out_vma()` then skips locked VMAs.

use std::collections::BTreeMap;

use crate::{MmError, VirtAddr};

/// VMA flag bits (`VM_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VmFlags {
    /// `VM_LOCKED`: pages in this area are exempt from swapping.
    pub locked: bool,
    /// `VM_READ`
    pub read: bool,
    /// `VM_WRITE`
    pub write: bool,
    /// `VM_DONTCOPY` (`madvise(MADV_DONTFORK)`): the area is not copied
    /// into children — the remedy for DMA-vs-fork COW hazards.
    pub dontfork: bool,
}

impl VmFlags {
    pub fn rw() -> Self {
        VmFlags {
            locked: false,
            read: true,
            write: true,
            dontfork: false,
        }
    }
    pub fn ro() -> Self {
        VmFlags {
            locked: false,
            read: true,
            write: false,
            dontfork: false,
        }
    }
}

/// One virtual memory area: the half-open range `[start, end)`, page aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmArea {
    pub start: VirtAddr,
    pub end: VirtAddr,
    pub flags: VmFlags,
}

impl VmArea {
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
    #[inline]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        self.start <= addr && addr < self.end
    }
    #[inline]
    pub fn pages(&self) -> u64 {
        self.len() >> crate::PAGE_SHIFT
    }
}

/// Ordered, non-overlapping set of VMAs for one address space.
#[derive(Debug, Default, Clone)]
pub struct VmaSet {
    /// Keyed by start address; invariant: ranges are disjoint and sorted.
    areas: BTreeMap<VirtAddr, VmArea>,
}

impl VmaSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct VMAs (grows when `mlock` splits areas).
    pub fn count(&self) -> usize {
        self.areas.len()
    }

    /// Find the VMA containing `addr`, like `find_vma` (but exact, not
    /// "first ending above").
    pub fn find(&self, addr: VirtAddr) -> Option<&VmArea> {
        self.areas
            .range(..=addr)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(addr))
    }

    /// The first VMA that starts at or after `addr` — the cursor step of a
    /// walk that cannot hold an iterator across its body.
    pub(crate) fn first_from(&self, addr: VirtAddr) -> Option<&VmArea> {
        self.areas.range(addr..).next().map(|(_, v)| v)
    }

    /// Iterate all VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &VmArea> {
        self.areas.values()
    }

    /// Iterate mutably in address order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut VmArea> {
        self.areas.values_mut()
    }

    /// True if `[start, end)` is entirely covered by VMAs (no holes).
    pub fn covered(&self, start: VirtAddr, end: VirtAddr) -> bool {
        let mut at = start;
        while at < end {
            match self.find(at) {
                Some(v) => at = v.end,
                None => return false,
            }
        }
        true
    }

    /// True if `[start, end)` overlaps any existing VMA.
    pub fn overlaps(&self, start: VirtAddr, end: VirtAddr) -> bool {
        // VMAs are disjoint and sorted, so the only candidate is the last
        // one beginning before `end`; it overlaps iff it extends past `start`.
        self.areas
            .range(..end)
            .next_back()
            .is_some_and(|(_, v)| v.end > start)
    }

    /// Insert a new VMA; fails if it overlaps an existing one.
    pub fn insert(&mut self, vma: VmArea) -> Result<(), MmError> {
        if vma.is_empty() {
            return Err(MmError::InvalidArgument("empty VMA"));
        }
        if vma.start & crate::PAGE_MASK != 0 || vma.end & crate::PAGE_MASK != 0 {
            return Err(MmError::InvalidArgument("unaligned VMA"));
        }
        if self.overlaps(vma.start, vma.end) {
            return Err(MmError::RangeBusy);
        }
        self.areas.insert(vma.start, vma);
        Ok(())
    }

    /// Remove all VMAs intersecting `[start, end)`, splitting at the
    /// boundaries; returns the removed (sub-)areas. This is `do_munmap`'s
    /// area surgery.
    pub fn remove_range(&mut self, start: VirtAddr, end: VirtAddr) -> Vec<VmArea> {
        self.split_at(start);
        self.split_at(end);
        let keys: Vec<VirtAddr> = self.areas.range(start..end).map(|(k, _)| *k).collect();
        keys.into_iter()
            .filter_map(|k| self.areas.remove(&k))
            .collect()
    }

    /// Split the VMA containing `addr` (if any) so that `addr` becomes a
    /// boundary. No-op when `addr` already is one. This is `split_vma`.
    pub fn split_at(&mut self, addr: VirtAddr) {
        let Some(v) = self.find(addr).cloned() else {
            return;
        };
        if v.start == addr {
            return;
        }
        // Shrink the original, insert the tail.
        let tail = VmArea {
            start: addr,
            end: v.end,
            flags: v.flags,
        };
        self.areas.get_mut(&v.start).expect("vma present").end = addr;
        self.areas.insert(addr, tail);
    }

    /// Apply `f` to every VMA piece covering `[start, end)`, splitting at the
    /// boundaries first. Errors with `SegFault`-style coverage failure left
    /// to the caller via [`VmaSet::covered`]. This is the heart of
    /// `do_mlock`.
    pub fn for_range_mut<F: FnMut(&mut VmArea)>(
        &mut self,
        start: VirtAddr,
        end: VirtAddr,
        mut f: F,
    ) {
        self.split_at(start);
        self.split_at(end);
        for (_, v) in self.areas.range_mut(start..end) {
            f(v);
        }
    }

    /// Merge adjacent VMAs with identical flags — keeps the VMA count from
    /// growing without bound across mlock/munlock cycles (`vma_merge`).
    pub fn merge_adjacent(&mut self) {
        loop {
            let mut merged = false;
            let starts: Vec<VirtAddr> = self.areas.keys().copied().collect();
            for s in starts {
                // The entry may have been merged away already.
                let Some(cur) = self.areas.get(&s).cloned() else {
                    continue;
                };
                if let Some(next) = self.areas.get(&cur.end).cloned() {
                    if next.flags == cur.flags {
                        self.areas.remove(&next.start);
                        self.areas.get_mut(&s).expect("cur present").end = next.end;
                        merged = true;
                    }
                }
            }
            if !merged {
                break;
            }
        }
    }

    /// Total locked bytes (for `RLIMIT_MEMLOCK` accounting).
    pub fn locked_bytes(&self) -> u64 {
        self.areas
            .values()
            .filter(|v| v.flags.locked)
            .map(|v| v.len())
            .sum()
    }

    /// Check internal invariants (used by property tests): sorted, disjoint,
    /// aligned, non-empty.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end = 0u64;
        for (k, v) in &self.areas {
            if *k != v.start {
                return Err(format!("key {k:#x} != start {:#x}", v.start));
            }
            if v.is_empty() {
                return Err(format!("empty VMA at {:#x}", v.start));
            }
            if v.start & crate::PAGE_MASK != 0 || v.end & crate::PAGE_MASK != 0 {
                return Err(format!("unaligned VMA {:#x}..{:#x}", v.start, v.end));
            }
            if v.start < prev_end {
                return Err(format!(
                    "overlap: VMA {:#x}..{:#x} begins before {prev_end:#x}",
                    v.start, v.end
                ));
            }
            prev_end = v.end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    const P: u64 = PAGE_SIZE as u64;

    fn vma(a: u64, b: u64) -> VmArea {
        VmArea {
            start: a * P,
            end: b * P,
            flags: VmFlags::rw(),
        }
    }

    #[test]
    fn insert_and_find() {
        let mut s = VmaSet::new();
        s.insert(vma(1, 4)).unwrap();
        s.insert(vma(8, 10)).unwrap();
        assert!(s.find(P).is_some());
        assert!(s.find(3 * P + 5).is_some());
        assert!(s.find(4 * P).is_none());
        assert!(s.find(0).is_none());
        assert_eq!(s.count(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn overlap_rejected() {
        let mut s = VmaSet::new();
        s.insert(vma(1, 4)).unwrap();
        assert_eq!(s.insert(vma(3, 5)), Err(MmError::RangeBusy));
        assert_eq!(s.insert(vma(0, 2)), Err(MmError::RangeBusy));
        assert!(s.insert(vma(4, 5)).is_ok());
        s.check_invariants().unwrap();
    }

    #[test]
    fn split_and_apply() {
        let mut s = VmaSet::new();
        s.insert(vma(0, 10)).unwrap();
        s.for_range_mut(2 * P, 5 * P, |v| v.flags.locked = true);
        assert_eq!(s.count(), 3, "mlock splits one VMA into three");
        assert!(!s.find(P).unwrap().flags.locked);
        assert!(s.find(2 * P).unwrap().flags.locked);
        assert!(s.find(4 * P).unwrap().flags.locked);
        assert!(!s.find(5 * P).unwrap().flags.locked);
        assert_eq!(s.locked_bytes(), 3 * P);
        s.check_invariants().unwrap();
    }

    #[test]
    fn merge_restores_single_vma() {
        let mut s = VmaSet::new();
        s.insert(vma(0, 10)).unwrap();
        s.for_range_mut(2 * P, 5 * P, |v| v.flags.locked = true);
        s.for_range_mut(2 * P, 5 * P, |v| v.flags.locked = false);
        s.merge_adjacent();
        assert_eq!(s.count(), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn remove_range_splits() {
        let mut s = VmaSet::new();
        s.insert(vma(0, 10)).unwrap();
        let removed = s.remove_range(3 * P, 6 * P);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].start, 3 * P);
        assert_eq!(removed[0].end, 6 * P);
        assert_eq!(s.count(), 2);
        assert!(s.covered(0, 3 * P));
        assert!(!s.covered(0, 7 * P));
        s.check_invariants().unwrap();
    }

    #[test]
    fn coverage_detects_holes() {
        let mut s = VmaSet::new();
        s.insert(vma(0, 2)).unwrap();
        s.insert(vma(3, 5)).unwrap();
        assert!(s.covered(0, 2 * P));
        assert!(!s.covered(0, 4 * P));
        assert!(s.covered(3 * P, 5 * P));
    }
}
