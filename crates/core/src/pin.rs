//! The pin table: per-frame pin counts giving `PG_locked` the **nesting**
//! semantics raw kiobufs lack.
//!
//! `lock_kiobuf` on a page that another registration already locked would
//! sleep forever (nobody else will unlock it). The paper's mechanism
//! therefore keeps a small kernel-agent-side table mapping each pinned frame
//! to a count: the first pin takes the page's I/O lock, later pins of the
//! same frame only bump the count, and the lock is dropped when the final
//! unpin brings the count to zero. Multiple (and overlapping) registrations
//! of the same memory thereby behave exactly as the VIA specification
//! requires.
//!
//! Counts live in a dense `Vec<u32>` indexed by frame id — frame ids are
//! small and dense in the simulated kernel (as `struct page` indices are in
//! the real one), so a pin/unpin is an array access, not a hash probe.

use simmem::{page::PageFlags, FrameId, Kernel, PageHold, Pid, VirtAddr};

use crate::error::{RegError, RegResult};

/// Per-frame pin counts shared by all kiobuf-based registrations.
#[derive(Debug, Default)]
pub struct PinTable {
    /// `counts[frame.0]`, grown on demand; zero = not pinned.
    counts: Vec<u32>,
    /// Number of distinct frames with a positive count.
    pinned: usize,
}

impl PinTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pin one frame. The first pin acquires `PG_locked`; if a *foreign*
    /// holder (in-flight disk I/O) owns the bit, [`RegError::WouldBlock`] is
    /// returned and the caller retries once the I/O completes — modelling
    /// the page-wait-queue sleep of the real mechanism.
    pub fn pin(&mut self, kernel: &mut Kernel, frame: FrameId) -> RegResult<()> {
        let idx = frame.0 as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if self.counts[idx] == 0 {
            if kernel
                .page_descriptor(frame)
                .flags()
                .contains(PageFlags::LOCKED)
                || kernel.inject(simmem::inject::PAGE_LOCK)
            {
                // Someone else (kernel I/O) holds the lock: we must wait.
                return Err(RegError::WouldBlock);
            }
            kernel.raw_set_page_flag(frame, PageFlags::LOCKED);
            self.pinned += 1;
        }
        self.counts[idx] += 1;
        Ok(())
    }

    /// Unpin one frame; the last unpin releases `PG_locked`.
    pub fn unpin(&mut self, kernel: &mut Kernel, frame: FrameId) -> RegResult<()> {
        let Some(c) = self.counts.get_mut(frame.0 as usize) else {
            return Err(RegError::PinUnderflow);
        };
        if *c == 0 {
            return Err(RegError::PinUnderflow);
        }
        *c -= 1;
        if *c == 0 {
            self.pinned -= 1;
            kernel.raw_clear_page_flag(frame, PageFlags::LOCKED);
        }
        Ok(())
    }

    /// The proposal's batched registration path: fault each page in, take
    /// a reference and take the page lock through the table **before** the
    /// next page's fault can trigger reclaim — the walk of
    /// [`Kernel::walk_user_range`] with this table as its hold. (Under the
    /// substrate's 2.2 eviction semantics a referenced-but-unlocked page
    /// can still be orphaned, so the lock must not wait for a second pass
    /// over the range.) On any failure everything acquired so far —
    /// references and pins — is rolled back.
    pub fn pin_user_range(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> RegResult<Vec<FrameId>> {
        kernel.walk_user_range(pid, addr, len, self)
    }

    /// Undo a [`PinTable::pin_user_range`]: unpin and drop the page
    /// reference on each frame.
    pub fn unpin_user_range(&mut self, kernel: &mut Kernel, frames: &[FrameId]) -> RegResult<()> {
        for &f in frames {
            self.unpin(kernel, f)?;
            kernel.put_user_page(f);
        }
        Ok(())
    }

    /// Current pin count of a frame (0 if not pinned).
    pub fn count(&self, frame: FrameId) -> u32 {
        self.counts.get(frame.0 as usize).copied().unwrap_or(0)
    }

    /// Number of distinct pinned frames.
    pub fn pinned_frames(&self) -> usize {
        self.pinned
    }

    /// Invariant check for property tests: the pinned-frame counter matches
    /// the table and every pinned frame carries `PG_locked`.
    pub fn check_invariants(&self, kernel: &Kernel) -> Result<(), String> {
        let mut pinned = 0usize;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            pinned += 1;
            let f = FrameId(i as u32);
            if !kernel
                .page_descriptor(f)
                .flags()
                .contains(PageFlags::LOCKED)
            {
                return Err(format!("pinned frame {i} lost PG_locked"));
            }
        }
        if pinned != self.pinned {
            return Err(format!(
                "pinned-frame counter {} != table census {}",
                self.pinned, pinned
            ));
        }
        Ok(())
    }
}

/// A pin is the walk's hold on a page: the pin, then the page reference,
/// so a refused pin leaves the page as it was.
impl PageHold for PinTable {
    type Error = RegError;

    fn take(&mut self, kernel: &mut Kernel, frame: FrameId) -> RegResult<()> {
        self.pin(kernel, frame)?;
        kernel.raw_get_page(frame);
        Ok(())
    }

    fn give_back(&mut self, kernel: &mut Kernel, frame: FrameId) {
        self.unpin(kernel, frame).expect("rollback of fresh pin");
        kernel.put_user_page(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, VirtAddr, Vec<FrameId>) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 4 * PAGE_SIZE, true).unwrap();
        let frames: Vec<FrameId> = k
            .frames_of_range(pid, a, 4 * PAGE_SIZE)
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        (k, pid, a, frames)
    }

    #[test]
    fn first_pin_locks_last_unpin_unlocks() {
        let (mut k, _, _, frames) = setup();
        let mut pt = PinTable::new();
        let f = frames[0];
        pt.pin(&mut k, f).unwrap();
        assert!(k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        pt.pin(&mut k, f).unwrap();
        assert_eq!(pt.count(f), 2);
        pt.unpin(&mut k, f).unwrap();
        assert!(
            k.page_descriptor(f).flags().contains(PageFlags::LOCKED),
            "still pinned once: lock held"
        );
        pt.unpin(&mut k, f).unwrap();
        assert!(!k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        assert_eq!(pt.count(f), 0);
        pt.check_invariants(&k).unwrap();
    }

    #[test]
    fn foreign_io_lock_blocks() {
        let (mut k, _, _, frames) = setup();
        let mut pt = PinTable::new();
        let f = frames[1];
        k.begin_page_io(f);
        assert_eq!(pt.pin(&mut k, f), Err(RegError::WouldBlock));
        assert!(k.end_page_io(f), "I/O lock intact despite pin attempt");
        // Retry after I/O completes succeeds.
        pt.pin(&mut k, f).unwrap();
        pt.unpin(&mut k, f).unwrap();
    }

    #[test]
    fn pin_user_range_pins_and_rolls_back() {
        let (mut k, pid, a, frames) = setup();
        let mut pt = PinTable::new();
        // Foreign I/O on page 2: the batch must fail and leave no trace —
        // no pins, no stray page references.
        let count0 = k.page_descriptor(frames[0]).count();
        k.begin_page_io(frames[2]);
        assert_eq!(
            pt.pin_user_range(&mut k, pid, a, 4 * PAGE_SIZE),
            Err(RegError::WouldBlock)
        );
        assert_eq!(pt.pinned_frames(), 0);
        for &f in &[frames[0], frames[1], frames[3]] {
            assert!(
                !k.page_descriptor(f).flags().contains(PageFlags::LOCKED),
                "rollback cleared partial pins"
            );
            assert_eq!(pt.count(f), 0);
        }
        assert_eq!(
            k.page_descriptor(frames[0]).count(),
            count0,
            "refs rolled back"
        );
        assert!(k.end_page_io(frames[2]), "foreign lock untouched");
        // Retry succeeds; unpin_user_range restores everything.
        let got = pt.pin_user_range(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(got, frames);
        assert_eq!(pt.pinned_frames(), 4);
        pt.check_invariants(&k).unwrap();
        pt.unpin_user_range(&mut k, &got).unwrap();
        assert_eq!(pt.pinned_frames(), 0);
        assert_eq!(k.page_descriptor(frames[0]).count(), count0);
    }

    #[test]
    fn unpin_underflow_detected() {
        let (mut k, _, _, frames) = setup();
        let mut pt = PinTable::new();
        assert_eq!(pt.unpin(&mut k, frames[0]), Err(RegError::PinUnderflow));
    }
}
