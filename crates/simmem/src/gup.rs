//! `get_user_pages`: the one walk every registration path runs over a user
//! range — fault each page in with write intent wherever its VMA allows it
//! (breaking COW, so a DMA target never shares a frame), then take whatever
//! the caller holds on the page before the walk moves on.
//!
//! The walk looks the process and each VMA up once. Inside a VMA it takes
//! the longest run of consecutive PTEs that are present and already permit
//! the access in one ordered pass over the page table, holds each page of
//! the run in page order, sets the run's accessed (and, for write intent,
//! dirty) bits in a second pass, and falls back to the fault path only at a
//! page that really faults: not present, swapped out, COW-shared or the
//! zero page. A run contains no fault, so reclaim cannot run inside it:
//! every page is held before any later page can fault, which is the order
//! the reliable mechanism depends on (DESIGN.md §8). A hold refused at page
//! `k` ends the walk there: pages after `k` get no hold and no accessed or
//! dirty bit, and the holds taken on pages before `k` are given back.

use crate::error::MmResult;
use crate::mm::AddressSpace;
use crate::{FrameId, Kernel, MmError, PageSpan, Pid, VirtAddr, PAGE_SIZE};

/// What a walk holds on each page it reaches: a page reference, a page
/// lock, a pin count — or nothing, for a walk that only faults pages in.
pub trait PageHold {
    type Error: From<MmError>;

    /// Take the hold on `frame`, or refuse and leave the page as it was.
    /// Runs between two pages of one walk, so it must neither fault nor
    /// allocate a frame: nothing may reclaim while a run is being held.
    fn take(&mut self, kernel: &mut Kernel, frame: FrameId) -> Result<(), Self::Error>;

    /// Give back one hold [`PageHold::take`] took: the rollback of a walk a
    /// later page refused.
    fn give_back(&mut self, kernel: &mut Kernel, frame: FrameId);
}

/// One page reference per page: `get_user_pages` proper.
struct Refs;

impl PageHold for Refs {
    type Error = MmError;

    fn take(&mut self, kernel: &mut Kernel, frame: FrameId) -> Result<(), MmError> {
        kernel.pagemap.get_page(frame);
        Ok(())
    }

    fn give_back(&mut self, kernel: &mut Kernel, frame: FrameId) {
        kernel.put_frame(frame);
    }
}

/// No hold at all: the walk only faults the pages in.
struct Present;

impl PageHold for Present {
    type Error = MmError;

    fn take(&mut self, _: &mut Kernel, _: FrameId) -> Result<(), MmError> {
        Ok(())
    }

    fn give_back(&mut self, _: &mut Kernel, _: FrameId) {}
}

impl Kernel {
    /// Walk the pages of `[addr, addr+len)` in order: fault each in (write
    /// intent iff its VMA is writable) and take `hold` on it. Returns the
    /// backing frames, one per page. On any failure — a fault that fails or
    /// a hold refused — the holds taken so far are given back, in page
    /// order, and no partial acquisition escapes.
    pub fn walk_user_range<H: PageHold>(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        hold: &mut H,
    ) -> Result<Vec<FrameId>, H::Error> {
        let span = PageSpan::of(addr, len).map_err(MmError::from)?;
        let (start, end) = (span.base, span.end());
        #[cfg(test)]
        if self.reference_walk {
            return oracle::walk(self, pid, start, end, hold);
        }
        let mut frames = Vec::with_capacity(span.npages);
        match self.walk_into(pid, start, end, hold, &mut frames) {
            Ok(()) => Ok(frames),
            Err(e) => {
                for &f in &frames {
                    hold.give_back(self, f);
                }
                Err(e)
            }
        }
    }

    /// The body of [`Kernel::walk_user_range`] over page-aligned
    /// `[start, end)`: `frames` ends up holding exactly the held pages.
    fn walk_into<H: PageHold>(
        &mut self,
        pid: Pid,
        start: VirtAddr,
        end: VirtAddr,
        hold: &mut H,
        frames: &mut Vec<FrameId>,
    ) -> Result<(), H::Error> {
        let vpn = AddressSpace::vpn;
        let mut a = start;
        while a < end {
            let (area_end, write, runs) = {
                let vma = (self.process(pid)?.mm.vmas.find(a))
                    .ok_or(MmError::SegFault { pid, addr: a })?;
                // A page of an area that permits no access always faults:
                // the fault path reports it.
                (
                    vma.end.min(end),
                    vma.flags.write,
                    vma.flags.write || vma.flags.read,
                )
            };
            while a < area_end {
                let run_start = frames.len();
                if runs {
                    self.process(pid)?
                        .mm
                        .present_run(vpn(a), vpn(area_end), write, frames);
                }
                let mut refused = None;
                let mut held = run_start;
                while held < frames.len() {
                    match hold.take(self, frames[held]) {
                        Ok(()) => held += 1,
                        Err(e) => {
                            refused = Some(e);
                            break;
                        }
                    }
                }
                // The fault path sets a page's bits before its hold is
                // taken, so a refused page keeps them; the pages after it
                // were never reached.
                let reached = held - run_start + usize::from(refused.is_some());
                if reached > 0 {
                    self.process_mut(pid)?
                        .mm
                        .mark_accessed(vpn(a), reached as u64, write);
                }
                frames.truncate(held);
                if let Some(e) = refused {
                    return Err(e);
                }
                a += ((held - run_start) * PAGE_SIZE) as u64;
                if a == area_end {
                    break;
                }
                let frame = self.fault_in(pid, a, write)?;
                hold.take(self, frame)?;
                frames.push(frame);
                a += PAGE_SIZE as u64;
            }
        }
        Ok(())
    }

    /// `get_user_pages`: fault every page of `[addr, addr+len)` in and take
    /// one reference per page, returning the backing frames in order. On
    /// any failure the references taken so far are dropped.
    ///
    /// NOTE the reference alone does *not* protect against eviction (the
    /// paper's whole point); callers that need residency must also take the
    /// page lock **before** causing any further allocation — a
    /// [`PageHold`] that locks does.
    pub fn get_user_pages(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> MmResult<Vec<FrameId>> {
        self.walk_user_range(pid, addr, len, &mut Refs)
    }

    /// Drop a reference taken by [`Kernel::get_user_pages`] or a
    /// [`PageHold`].
    pub fn put_user_page(&mut self, frame: FrameId) {
        self.put_frame(frame);
    }

    /// Drop one reference per frame, as taken by
    /// [`Kernel::get_user_pages`].
    pub fn put_user_pages(&mut self, frames: &[FrameId]) {
        for &f in frames {
            self.put_frame(f);
        }
    }

    /// Fault every page of `[addr, addr+len)` in — write intent wherever
    /// the VMA allows it, breaking COW so DMA targets never share frames —
    /// and return the backing frames in order. Takes **no** page
    /// references.
    pub fn fault_in_range(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> MmResult<Vec<FrameId>> {
        self.walk_user_range(pid, addr, len, &mut Present)
    }
}

/// The per-page loop the walk replaced — VMA lookup, fault, hold, page by
/// page — kept as the reference of the differential in `gup_diff_tests`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    pub(crate) fn walk<H: PageHold>(
        k: &mut Kernel,
        pid: Pid,
        start: VirtAddr,
        end: VirtAddr,
        hold: &mut H,
    ) -> Result<Vec<FrameId>, H::Error> {
        let mut frames = Vec::new();
        let mut a = start;
        while a < end {
            let page = k
                .vma_writable(pid, a)
                .and_then(|writable| k.fault_in(pid, a, writable))
                .map_err(H::Error::from)
                .and_then(|f| hold.take(k, f).map(|()| f));
            match page {
                Ok(f) => frames.push(f),
                Err(e) => {
                    for &g in &frames {
                        hold.give_back(k, g);
                    }
                    return Err(e);
                }
            }
            a += PAGE_SIZE as u64;
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prot, Capabilities, KernelConfig, PageFlags, Pte, PAGE_SHIFT};

    fn setup(pages: usize) -> (Kernel, Pid, VirtAddr) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, pages * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (k, pid, a)
    }

    fn bits(k: &Kernel, pid: Pid, addr: VirtAddr) -> (bool, bool) {
        match k.process(pid).unwrap().mm.pte(addr >> PAGE_SHIFT) {
            Some(&Pte::Present {
                accessed, dirty, ..
            }) => (accessed, dirty),
            p => panic!("page {addr:#x} not present: {p:?}"),
        }
    }

    /// Locks each page, refusing one that is locked already.
    struct Locks;

    impl PageHold for Locks {
        type Error = MmError;

        fn take(&mut self, k: &mut Kernel, frame: FrameId) -> Result<(), MmError> {
            match k.pagemap.get(frame).try_lock() {
                true => Ok(()),
                false => Err(MmError::PageBusy(frame)),
            }
        }

        fn give_back(&mut self, k: &mut Kernel, frame: FrameId) {
            k.pagemap.get(frame).clear_flag(PageFlags::LOCKED);
        }
    }

    #[test]
    fn a_refused_hold_stops_the_walk_and_gives_everything_back() {
        let (mut k, pid, a) = setup(4);
        k.touch_pages(pid, a, 4 * PAGE_SIZE, true).unwrap();
        for i in 0..4u64 {
            let p = k.process_mut(pid).unwrap();
            if let Some(Pte::Present {
                accessed, dirty, ..
            }) = p.mm.pte_mut((a >> PAGE_SHIFT) + i)
            {
                (*accessed, *dirty) = (false, false);
            }
        }
        let frames: Vec<_> = (k.frames_of_range(pid, a, 4 * PAGE_SIZE).unwrap())
            .into_iter()
            .flatten()
            .collect();
        k.begin_page_io(frames[2]);
        assert_eq!(
            k.walk_user_range(pid, a, 4 * PAGE_SIZE, &mut Locks),
            Err(MmError::PageBusy(frames[2]))
        );
        for (i, &f) in frames.iter().enumerate() {
            let locked = k.page_descriptor(f).flags().contains(PageFlags::LOCKED);
            assert_eq!(locked, i == 2, "page {i}: only the foreign lock stays");
            let at = a + (i * PAGE_SIZE) as u64;
            assert_eq!(bits(&k, pid, at), (i <= 2, i <= 2), "page {i}");
        }
    }

    #[test]
    fn a_range_that_wraps_the_address_space_is_refused_typed() {
        let (mut k, pid, _) = setup(1);
        for (addr, len) in [(u64::MAX - 10, 20), (u64::MAX - 10, 5), (0, usize::MAX)] {
            assert!(matches!(
                k.get_user_pages(pid, addr, len),
                Err(MmError::InvalidArgument(_))
            ));
        }
    }

    #[test]
    fn a_range_across_areas_takes_each_areas_intent() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let rw = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let ro = k.mmap_anon(pid, 2 * PAGE_SIZE, prot::READ).unwrap();
        assert_eq!(ro, rw + 2 * PAGE_SIZE as u64, "adjacent areas");
        let frames = k.get_user_pages(pid, rw, 4 * PAGE_SIZE).unwrap();
        let zero = k.zero_frame();
        assert!(frames[..2].iter().all(|&f| f != zero), "written privately");
        assert!(frames[2..].iter().all(|&f| f == zero), "read: zero page");
        k.put_user_pages(&frames);
    }
}
