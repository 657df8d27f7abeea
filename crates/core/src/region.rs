//! The region table: handle → registered-region bookkeeping.
//!
//! This is the kernel-agent-side record behind each memory handle the VIPL
//! returns from `VipRegisterMem`. A NIC's Translation and Protection Table
//! is filled from the `frames` recorded here.

use std::collections::BTreeMap;

use simmem::{FrameId, PageSpan, Pid, VirtAddr, PAGE_SIZE};

use crate::error::{RegError, RegResult};
use crate::span::SpanIndex;
use crate::strategy::{PinToken, StrategyKind};

/// Opaque memory handle returned by registration (the VIA
/// `VIP_MEM_HANDLE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemHandle(pub u64);

/// One registered memory region.
#[derive(Debug)]
pub struct Region {
    pub handle: MemHandle,
    pub pid: Pid,
    /// Original (possibly unaligned) user address.
    pub user_addr: VirtAddr,
    /// Original request length in bytes.
    pub len: usize,
    /// The pages spanned by the registration. For eager strategies
    /// `frames` holds one frame per page; for on-demand regions the span
    /// is reserved up front while `frames` stays empty (residency lives in
    /// the lazy ledger).
    pub span: PageSpan,
    /// Physical frames backing the range, one per page, captured at
    /// registration time — what goes into the TPT. Empty for on-demand
    /// regions, whose TPT entries start non-resident.
    pub frames: Vec<FrameId>,
    pub strategy: StrategyKind,
    /// Strategy-private undo state; taken on deregistration.
    pub(crate) token: Option<PinToken>,
}

impl Region {
    /// Translate a byte offset *relative to `user_addr`* into
    /// (frame, offset-within-frame). This is the TPT lookup a NIC performs
    /// for every DMA access.
    pub fn translate(&self, offset: usize) -> RegResult<(FrameId, usize)> {
        if offset >= self.len {
            return Err(RegError::InvalidArgument("offset beyond region"));
        }
        let abs = self.user_addr + offset as u64;
        let page_index = ((abs - self.span.base) / PAGE_SIZE as u64) as usize;
        let in_page = (abs & (PAGE_SIZE as u64 - 1)) as usize;
        // Pages the registration did not capture (on-demand spans) report
        // WouldBlock: the caller resolves residency via the lazy ledger.
        let frame = self
            .frames
            .get(page_index)
            .copied()
            .ok_or(RegError::WouldBlock)?;
        Ok((frame, in_page))
    }

    /// Number of pages spanned by the registration (pinned or reserved).
    pub fn npages(&self) -> usize {
        self.span.npages
    }
}

/// Table of live regions, with a per-pid interval index so covering-region
/// lookups don't scan the whole table.
#[derive(Debug, Default)]
pub struct RegionTable {
    regions: BTreeMap<MemHandle, Region>,
    /// `(pid, [page_base, page_end))` → handle, for `find_covering`.
    index: SpanIndex<MemHandle>,
    /// Running sum of `frames.len()` over live regions.
    total_pages: usize,
    next: u64,
}

impl RegionTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a registration of `[user_addr, user_addr + len)`, whose
    /// checked page span is `span`.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        pid: Pid,
        user_addr: VirtAddr,
        len: usize,
        span: PageSpan,
        frames: Vec<FrameId>,
        strategy: StrategyKind,
        token: PinToken,
    ) -> MemHandle {
        self.next += 1;
        let handle = MemHandle(self.next);
        self.index.insert(pid, span.base, span.end(), handle);
        self.total_pages += span.npages;
        self.regions.insert(
            handle,
            Region {
                handle,
                pid,
                user_addr,
                len,
                span,
                frames,
                strategy,
                token: Some(token),
            },
        );
        handle
    }

    pub fn get(&self, handle: MemHandle) -> RegResult<&Region> {
        self.regions.get(&handle).ok_or(RegError::NoSuchHandle)
    }

    pub fn remove(&mut self, handle: MemHandle) -> RegResult<Region> {
        let region = self.regions.remove(&handle).ok_or(RegError::NoSuchHandle)?;
        self.index.remove(region.pid, region.span.base, handle);
        self.total_pages -= region.span.npages;
        Ok(region)
    }

    /// A live region of `pid` whose pinned page span covers `span`.
    /// O(log n + window) via the interval index; the window is bounded by
    /// the largest region ever registered, not the live-region count.
    pub fn find_covering(&self, pid: Pid, span: PageSpan) -> Option<MemHandle> {
        self.find_covering_probed(pid, span).0
    }

    /// [`RegionTable::find_covering`] plus the number of index entries
    /// probed — deterministic evidence for complexity assertions in tests
    /// and benches.
    #[doc(hidden)]
    pub fn find_covering_probed(&self, pid: Pid, span: PageSpan) -> (Option<MemHandle>, usize) {
        self.index.find_covering_probed(pid, span.base, span.end())
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total pinned pages across all live regions (pages pinned twice count
    /// twice — this is the TPT-occupancy view). A running counter, not a
    /// table scan.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Iterate live regions.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_region() -> Region {
        Region {
            handle: MemHandle(1),
            pid: Pid(1),
            user_addr: 0x1000 + 100,
            len: 2 * PAGE_SIZE,
            span: PageSpan {
                base: 0x1000,
                npages: 3,
            },
            frames: vec![FrameId(10), FrameId(11), FrameId(12)],
            strategy: StrategyKind::KiobufReliable,
            token: None,
        }
    }

    #[test]
    fn translate_within_pages() {
        let r = mk_region();
        // offset 0 → abs 0x1000+100 → page 0, in-page 100.
        assert_eq!(r.translate(0).unwrap(), (FrameId(10), 100));
        // Crossing into the second page.
        let off = PAGE_SIZE - 100;
        assert_eq!(r.translate(off).unwrap(), (FrameId(11), 0));
        assert_eq!(r.translate(off + 5).unwrap(), (FrameId(11), 5));
        // Last byte.
        let (f, o) = r.translate(2 * PAGE_SIZE - 1).unwrap();
        assert_eq!(f, FrameId(12));
        assert_eq!(o, 99);
    }

    #[test]
    fn translate_out_of_range() {
        let r = mk_region();
        assert!(r.translate(2 * PAGE_SIZE).is_err());
    }

    #[test]
    fn table_crud() {
        let mut t = RegionTable::new();
        let h1 = t.insert(
            Pid(1),
            0x1000,
            PAGE_SIZE,
            PageSpan::of(0x1000, PAGE_SIZE).unwrap(),
            vec![FrameId(1)],
            StrategyKind::RefcountOnly,
            PinToken::Refcount,
        );
        let h2 = t.insert(
            Pid(1),
            0x1000,
            PAGE_SIZE,
            PageSpan::of(0x1000, PAGE_SIZE).unwrap(),
            vec![FrameId(1)],
            StrategyKind::RefcountOnly,
            PinToken::Refcount,
        );
        assert_ne!(h1, h2, "multiple registration yields distinct handles");
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_pages(), 2);
        t.remove(h1).unwrap();
        assert!(t.remove(h1).is_err(), "double deregistration rejected");
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_pages(), 1);
    }

    fn span(addr: VirtAddr, len: usize) -> PageSpan {
        PageSpan::of(addr, len).unwrap()
    }

    #[test]
    fn covering_lookup_tracks_inserts_and_removals() {
        let mut t = RegionTable::new();
        let frames = vec![FrameId(1), FrameId(2), FrameId(3), FrameId(4)];
        let h = t.insert(
            Pid(1),
            0x1000,
            4 * PAGE_SIZE,
            PageSpan::of(0x1000, 4 * PAGE_SIZE).unwrap(),
            frames,
            StrategyKind::KiobufReliable,
            PinToken::Kiobuf,
        );
        assert_eq!(t.find_covering(Pid(1), span(0x2000, PAGE_SIZE)), Some(h));
        assert_eq!(
            t.find_covering(Pid(2), span(0x2000, PAGE_SIZE)),
            None,
            "other pid"
        );
        assert_eq!(
            t.find_covering(Pid(1), span(0x4000, 2 * PAGE_SIZE)),
            None,
            "overhang"
        );
        t.remove(h).unwrap();
        assert_eq!(t.find_covering(Pid(1), span(0x2000, PAGE_SIZE)), None);
    }
}
