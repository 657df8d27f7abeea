//! The `mem_map`: one [`PageDescriptor`] per physical frame, mirroring the
//! kernel's `mem_map_t` (`struct page`).
//!
//! The fields the paper's analysis hinges on are the **reference count** and
//! the `PG_locked` / `PG_reserved` **flag bits**: `shrink_mmap()` and
//! `swap_out()` skip pages whose `PG_locked` or `PG_reserved` bit is set, but
//! an elevated reference count alone does **not** keep a page mapped — the
//! page is written to swap, unmapped and orphaned (section 3.1 of the paper).
//!
//! Count and flags live in per-frame **atomics**, so references and
//! `PG_locked` can be taken through a shared (`&Kernel`) borrow — the same
//! shift Linux itself made when `page->count` became `atomic_t`. No fabric
//! shares a kernel between threads (DESIGN.md §13), so today that only buys
//! `&self` accessors. `rmap` and `swap_slot` stay plain fields: they are
//! only touched on the exclusive (`&mut Kernel`) fault/reclaim paths.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use crate::FrameId;

/// Page flag bits, the subset of `PG_*` relevant to the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageFlags(u8);

impl PageFlags {
    /// `PG_locked`: the page is locked for I/O; the page stealer must not
    /// touch it.
    pub const LOCKED: u8 = 1 << 0;
    /// `PG_reserved`: the page is not available to the VM at all.
    pub const RESERVED: u8 = 1 << 1;
    /// Accessed ("young") bit used for second-chance aging. In real hardware
    /// this lives in the PTE; keeping a copy here simplifies the clock pass.
    pub const ACCESSED: u8 = 1 << 2;
    /// Dirty: the page was written since it was last cleaned.
    pub const DIRTY: u8 = 1 << 3;
    /// The frame is pinned *lazily* by the on-demand registration path: it
    /// holds `PG_locked` like a reliable pin, but the page stealer is
    /// allowed to dissolve the pin (drop the lazy references, clear the
    /// bit, queue a TPT invalidation) when the page goes cold — see
    /// `Kernel::lazy_pin_page` and the pressure path in `reclaim`.
    pub const ONDEMAND: u8 = 1 << 4;

    #[inline]
    pub fn contains(self, bit: u8) -> bool {
        self.0 & bit != 0
    }
    #[inline]
    pub fn set(&mut self, bit: u8) {
        self.0 |= bit;
    }
    #[inline]
    pub fn clear(&mut self, bit: u8) {
        self.0 &= !bit;
    }
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }
}

/// Reverse-mapping information: which (process, virtual page) currently maps
/// this frame. Linux 2.2 had no rmap and found pages by walking page tables;
/// we keep a single back-pointer (anonymous pages are mapped at most once in
/// this model except for the shared zero page, which is never reclaimed) to
/// keep the stealer honest and O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RMap {
    pub pid: crate::Pid,
    pub vpn: crate::Vpn,
}

/// Per-frame descriptor: the simulated `mem_map_t`.
///
/// `count` and `flags` are atomics (readable and mutable through `&self`);
/// read them via [`PageDescriptor::count`] / [`PageDescriptor::flags`].
#[derive(Debug, Default)]
pub struct PageDescriptor {
    /// `page->count`: number of users. 0 = free.
    count: AtomicU32,
    /// `PG_*` flag bits.
    flags: AtomicU8,
    /// Reverse map for the (single) anonymous mapping, if any.
    pub rmap: Option<RMap>,
    /// When the frame sits in the swap cache (2.4 semantics): the slot
    /// holding its written-out copy.
    pub swap_slot: Option<crate::SlotId>,
}

impl PageDescriptor {
    /// `page->count` snapshot.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count.load(Ordering::Acquire)
    }

    /// Overwrite the reference count (arena init / frame recycle only).
    #[inline]
    pub fn set_count(&self, v: u32) {
        self.count.store(v, Ordering::Release);
    }

    /// Atomic `get_page()`: returns the previous count.
    #[inline]
    pub fn ref_inc(&self) -> u32 {
        self.count.fetch_add(1, Ordering::AcqRel)
    }

    /// Atomic `__free_page()` half: drop a reference, reporting whether the
    /// count reached zero. Underflow is a hard error (a double put).
    #[inline]
    pub fn ref_dec(&self, id: FrameId) -> Result<bool, crate::MmError> {
        let mut cur = self.count.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return Err(crate::MmError::RefcountUnderflow(id));
            }
            match self.count.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(cur == 1),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current flag bits snapshot.
    #[inline]
    pub fn flags(&self) -> PageFlags {
        PageFlags(self.flags.load(Ordering::Acquire))
    }

    /// Set flag bits (atomic OR).
    #[inline]
    pub fn set_flag(&self, bit: u8) {
        self.flags.fetch_or(bit, Ordering::AcqRel);
    }

    /// Clear flag bits (atomic AND-NOT); returns whether any of the bits
    /// were previously set.
    #[inline]
    pub fn clear_flag(&self, bit: u8) -> bool {
        self.flags.fetch_and(!bit, Ordering::AcqRel) & bit != 0
    }

    /// Atomically try to take `PG_locked`; `true` if this call acquired it
    /// (it was clear before) — one step instead of a separate test-then-set.
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.flags.fetch_or(PageFlags::LOCKED, Ordering::AcqRel) & PageFlags::LOCKED == 0
    }

    /// Reset all flag bits (frame recycle).
    #[inline]
    pub fn reset_flags(&self) {
        self.flags.store(0, Ordering::Release);
    }

    /// True if the page is free (count == 0).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.count() == 0
    }

    /// True if the page stealer must skip this page (locked or reserved).
    #[inline]
    pub fn steal_protected(&self) -> bool {
        let f = self.flags();
        f.contains(PageFlags::LOCKED) || f.contains(PageFlags::RESERVED)
    }
}

/// The page map: a dense array of descriptors parallel to the frame arena.
pub struct PageMap {
    pages: Vec<PageDescriptor>,
}

impl PageMap {
    pub fn new(nframes: u32) -> Self {
        PageMap {
            pages: (0..nframes).map(|_| PageDescriptor::default()).collect(),
        }
    }

    #[inline]
    pub fn get(&self, id: FrameId) -> &PageDescriptor {
        &self.pages[id.0 as usize]
    }

    #[inline]
    pub fn get_mut(&mut self, id: FrameId) -> &mut PageDescriptor {
        &mut self.pages[id.0 as usize]
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterate (frame, descriptor) pairs — used by the clock algorithm.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, &PageDescriptor)> {
        self.pages
            .iter()
            .enumerate()
            .map(|(i, d)| (FrameId(i as u32), d))
    }

    /// `get_page()`: take an additional reference.
    #[inline]
    pub fn get_page(&self, id: FrameId) {
        self.pages[id.0 as usize].ref_inc();
    }

    /// `__free_page()`: drop a reference; returns `true` if the count reached
    /// zero (i.e. the frame is really free now).
    #[inline]
    pub fn put_page(&self, id: FrameId) -> Result<bool, crate::MmError> {
        self.pages[id.0 as usize].ref_dec(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags() {
        let mut f = PageFlags::default();
        assert!(!f.contains(PageFlags::LOCKED));
        f.set(PageFlags::LOCKED);
        f.set(PageFlags::DIRTY);
        assert!(f.contains(PageFlags::LOCKED));
        assert!(f.contains(PageFlags::DIRTY));
        f.clear(PageFlags::LOCKED);
        assert!(!f.contains(PageFlags::LOCKED));
        assert!(f.contains(PageFlags::DIRTY));
    }

    #[test]
    fn refcounting() {
        let pm = PageMap::new(2);
        assert!(pm.get(FrameId(0)).is_free());
        pm.get_page(FrameId(0));
        pm.get_page(FrameId(0));
        assert_eq!(pm.get(FrameId(0)).count(), 2);
        assert!(!pm.put_page(FrameId(0)).unwrap());
        assert!(pm.put_page(FrameId(0)).unwrap());
        assert!(matches!(
            pm.put_page(FrameId(0)),
            Err(crate::MmError::RefcountUnderflow(_))
        ));
    }

    #[test]
    fn steal_protection() {
        let d = PageDescriptor::default();
        assert!(!d.steal_protected());
        d.set_flag(PageFlags::LOCKED);
        assert!(d.steal_protected());
        d.clear_flag(PageFlags::LOCKED);
        d.set_flag(PageFlags::RESERVED);
        assert!(d.steal_protected());
    }

    #[test]
    fn try_lock_is_exclusive() {
        let d = PageDescriptor::default();
        assert!(d.try_lock(), "first lock wins");
        assert!(!d.try_lock(), "second lock loses");
        assert!(d.clear_flag(PageFlags::LOCKED));
        assert!(d.try_lock(), "free again after clear");
    }
}
