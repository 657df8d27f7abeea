//! Kernel I/O buffers — the raw-I/O pinning facility (S. Tweedie) the paper
//! builds its reliable registration mechanism on.
//!
//! * [`Kernel::map_user_kiobuf`] faults every page of a user range in
//!   (through the normal fault path, honouring COW) and takes a page
//!   reference on each — from this moment the physical frames are known and
//!   cannot be *freed*, though an unlocked page can still be unmapped by the
//!   stealer;
//! * [`Kernel::lock_kiobuf`] acquires the per-page `PG_locked` bit, making
//!   the pages invisible to `shrink_mmap`/`swap_out` — this is what makes
//!   the pinning **reliable**;
//! * [`Kernel::unlock_kiobuf`] and [`Kernel::unmap_kiobuf`] undo the above.
//!
//! In the real kernel `lock_kiobuf` *sleeps* when a page is already locked
//! for in-flight I/O. The deterministic simulator surfaces
//! [`MmError::PageBusy`] instead; callers (the `vialock` pin table) either
//! retry after the I/O completes or coordinate so double-locking cannot
//! happen.

use crate::error::MmResult;
use crate::page::PageFlags;
use crate::stats::CounterCell;
use crate::{FrameId, Kernel, MmError, Pid, VirtAddr};

/// Handle to a mapped kiobuf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KiobufId(pub u64);

/// A mapped kernel I/O buffer: the pinned frames of one user range.
#[derive(Debug, Clone)]
pub struct Kiobuf {
    pub id: KiobufId,
    pub pid: Pid,
    /// Page-aligned start of the mapped range.
    pub start: VirtAddr,
    /// Length in bytes of the original request.
    pub len: usize,
    /// One frame per page, captured at map time.
    pub frames: Vec<FrameId>,
    /// Whether `lock_kiobuf` is currently in effect.
    pub locked: bool,
}

impl Kernel {
    /// `map_user_kiobuf`: fault the range in and grab a reference on every
    /// page. Write intent is used when the VMA is writable so COW is broken
    /// *now* — a NIC must never DMA into a page the process would later copy
    /// away from. A page that fails maps nothing: the references taken on
    /// the pages before it are dropped again.
    pub fn map_user_kiobuf(&mut self, pid: Pid, addr: VirtAddr, len: usize) -> MmResult<KiobufId> {
        if len == 0 {
            return Err(MmError::InvalidArgument("kiobuf of zero length"));
        }
        let start = crate::PageSpan::of(addr, len)?.base;
        let frames = self.get_user_pages(pid, addr, len)?;
        self.stats.kiobuf_pins.add(frames.len() as u64);

        let id = KiobufId(self.next_kiobuf);
        self.next_kiobuf += 1;
        self.kiobufs.insert(
            id,
            Kiobuf {
                id,
                pid,
                start,
                len,
                frames,
                locked: false,
            },
        );
        Ok(id)
    }

    /// `lock_kiobuf`: set `PG_locked` on every page. Fails with
    /// [`MmError::PageBusy`] (rolling back bits already set) if any page is
    /// already locked — the caller models the page-wait-queue sleep.
    pub fn lock_kiobuf(&mut self, id: KiobufId) -> MmResult<()> {
        let frames = {
            let kb = self.kiobufs.get(&id).ok_or(MmError::NoSuchKiobuf)?;
            if kb.locked {
                return Err(MmError::KiobufState("lock_kiobuf: already locked"));
            }
            kb.frames.clone()
        };
        for (i, &f) in frames.iter().enumerate() {
            if !self.pagemap.get(f).try_lock() {
                // Roll back what we set so far, then report the busy page.
                for &g in &frames[..i] {
                    self.pagemap.get(g).clear_flag(PageFlags::LOCKED);
                }
                return Err(MmError::PageBusy(f));
            }
        }
        self.kiobufs.get_mut(&id).expect("checked above").locked = true;
        Ok(())
    }

    /// `unlock_kiobuf`: clear `PG_locked` on every page.
    pub fn unlock_kiobuf(&mut self, id: KiobufId) -> MmResult<()> {
        let frames = {
            let kb = self.kiobufs.get(&id).ok_or(MmError::NoSuchKiobuf)?;
            if !kb.locked {
                return Err(MmError::KiobufState("unlock_kiobuf: not locked"));
            }
            kb.frames.clone()
        };
        for f in frames {
            self.pagemap.get(f).clear_flag(PageFlags::LOCKED);
        }
        self.kiobufs.get_mut(&id).expect("checked above").locked = false;
        Ok(())
    }

    /// `unmap_kiobuf` + `free_kiovec`: release the page references. The
    /// kiobuf must be unlocked first (strict, like the kernel's BUG checks).
    pub fn unmap_kiobuf(&mut self, id: KiobufId) -> MmResult<()> {
        {
            let kb = self.kiobufs.get(&id).ok_or(MmError::NoSuchKiobuf)?;
            if kb.locked {
                return Err(MmError::KiobufState("unmap_kiobuf: still locked"));
            }
        }
        let kb = self.kiobufs.remove(&id).expect("checked above");
        for f in kb.frames {
            self.put_frame(f);
            self.stats.kiobuf_unpins.bump();
        }
        Ok(())
    }

    /// Inspect a mapped kiobuf (the kernel agent reads the frames to fill
    /// the NIC's translation table).
    pub fn kiobuf(&self, id: KiobufId) -> MmResult<&Kiobuf> {
        self.kiobufs.get(&id).ok_or(MmError::NoSuchKiobuf)
    }

    /// Number of live kiobufs (leak checks in tests).
    pub fn kiobuf_count(&self) -> usize {
        self.kiobufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prot, Capabilities, KernelConfig, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, VirtAddr) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (k, pid, a)
    }

    #[test]
    fn map_pins_refcounts() {
        let (mut k, pid, a) = setup();
        let id = k.map_user_kiobuf(pid, a, 4 * PAGE_SIZE).unwrap();
        let kb = k.kiobuf(id).unwrap().clone();
        assert_eq!(kb.frames.len(), 4);
        for &f in &kb.frames {
            assert_eq!(k.page_descriptor(f).count(), 2, "mapping ref + kiobuf ref");
        }
        k.unmap_kiobuf(id).unwrap();
        for &f in &kb.frames {
            assert_eq!(k.page_descriptor(f).count(), 1);
        }
        assert_eq!(k.kiobuf_count(), 0);
    }

    #[test]
    fn map_breaks_cow() {
        let (mut k, pid, a) = setup();
        // Read-touch maps the shared zero page…
        k.touch_pages(pid, a, PAGE_SIZE, false).unwrap();
        assert_eq!(k.frame_of(pid, a).unwrap(), Some(k.zero_frame()));
        // …but mapping a kiobuf with write intent must COW away from it.
        let id = k.map_user_kiobuf(pid, a, PAGE_SIZE).unwrap();
        let f = k.kiobuf(id).unwrap().frames[0];
        assert_ne!(f, k.zero_frame());
        assert_eq!(k.frame_of(pid, a).unwrap(), Some(f));
        k.unmap_kiobuf(id).unwrap();
    }

    #[test]
    fn lock_unlock_cycle() {
        let (mut k, pid, a) = setup();
        let id = k.map_user_kiobuf(pid, a, 2 * PAGE_SIZE).unwrap();
        k.lock_kiobuf(id).unwrap();
        let f = k.kiobuf(id).unwrap().frames[0];
        assert!(k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        assert!(matches!(k.lock_kiobuf(id), Err(MmError::KiobufState(_))));
        assert!(matches!(k.unmap_kiobuf(id), Err(MmError::KiobufState(_)),));
        k.unlock_kiobuf(id).unwrap();
        assert!(!k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        k.unmap_kiobuf(id).unwrap();
    }

    #[test]
    fn lock_conflict_rolls_back() {
        let (mut k, pid, a) = setup();
        let id1 = k.map_user_kiobuf(pid, a, 4 * PAGE_SIZE).unwrap();
        let id2 = k.map_user_kiobuf(pid, a, 4 * PAGE_SIZE).unwrap();
        k.lock_kiobuf(id1).unwrap();
        // Second lock on the same pages must fail and leave no stray bits
        // beyond those id1 owns.
        let err = k.lock_kiobuf(id2).unwrap_err();
        assert!(matches!(err, MmError::PageBusy(_)));
        k.unlock_kiobuf(id1).unwrap();
        let f = k.kiobuf(id2).unwrap().frames[0];
        assert!(!k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        // Now the second lock succeeds.
        k.lock_kiobuf(id2).unwrap();
        k.unlock_kiobuf(id2).unwrap();
        k.unmap_kiobuf(id1).unwrap();
        k.unmap_kiobuf(id2).unwrap();
    }

    #[test]
    fn unaligned_range_covers_both_pages() {
        let (mut k, pid, a) = setup();
        // Range straddling a page boundary must pin both pages.
        let id = k
            .map_user_kiobuf(pid, a + PAGE_SIZE as u64 - 10, 20)
            .unwrap();
        assert_eq!(k.kiobuf(id).unwrap().frames.len(), 2);
        k.unmap_kiobuf(id).unwrap();
    }

    #[test]
    fn a_range_running_off_its_area_maps_nothing() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 2 * PAGE_SIZE, true).unwrap();
        let hole = a + 2 * PAGE_SIZE as u64;
        assert_eq!(
            k.map_user_kiobuf(pid, a, 3 * PAGE_SIZE),
            Err(MmError::SegFault { pid, addr: hole })
        );
        for f in k.frames_of_range(pid, a, 2 * PAGE_SIZE).unwrap() {
            assert_eq!(k.page_descriptor(f.unwrap()).count(), 1, "reference leaked");
        }
        assert_eq!(k.mm_stats().kiobuf_pins, 0, "no page stays mapped");
        assert_eq!(k.kiobuf_count(), 0);
    }

    #[test]
    fn map_unmapped_range_fails() {
        let (mut k, pid, _) = setup();
        assert!(matches!(
            k.map_user_kiobuf(pid, 0x10_0000, PAGE_SIZE),
            Err(MmError::SegFault { .. })
        ));
    }
}
