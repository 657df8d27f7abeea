//! The Translation and Protection Table (TPT).
//!
//! At registration the kernel agent stores, for every page of the region,
//! the **physical frame number** and the owning process' **protection tag**
//! into the TPT on the NIC. From then on every DMA access translates
//! through this table: the NIC never sees the host page tables. That is why
//! an unreliably pinned page that the VM relocates leaves a *stale* TPT
//! entry — the failure mode the paper demonstrates.

use simmem::{FrameId, Pid, VirtAddr, PAGE_SIZE};

use crate::error::{ViaError, ViaResult};

/// VIA memory protection tag: processes receive a unique tag; VIs and
/// memory regions carry it; the NIC only allows accesses where they match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtectionTag(pub u32);

/// Handle naming a registered region on a particular NIC (the index the
/// VIPL hands back from `VipRegisterMem`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// The access class a translation is checked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Local descriptor access (gather/scatter, PIO): tag check only.
    Local,
    /// Remote RDMA write: tag check + the region's write-enable attribute.
    RdmaWrite,
    /// Remote RDMA read: tag check + the region's read-enable attribute.
    RdmaRead,
}

/// One TPT page entry.
#[derive(Debug, Clone, Copy)]
pub struct TptEntry {
    /// Backing physical frame. `None` marks a **non-resident** entry: an
    /// on-demand region page whose frame is not currently pinned. A DMA
    /// translation through such an entry raises
    /// [`ViaError::NotResident`] — the fault the kernel agent answers by
    /// lazy-pinning and installing the frame ([`Tpt::set_frame`]).
    pub frame: Option<FrameId>,
    pub tag: ProtectionTag,
    pub pid: Pid,
    /// RDMA-write enable attribute of the region.
    pub rdma_write: bool,
    /// RDMA-read enable attribute of the region.
    pub rdma_read: bool,
}

/// Region-level record: the slice of TPT slots belonging to one
/// registration.
#[derive(Debug, Clone)]
pub struct TptRegion {
    pub mem_id: MemId,
    /// The `vialock` handle backing this registration (deregistration path).
    pub reg_handle: vialock::MemHandle,
    pub pid: Pid,
    /// Original user address of the registration.
    pub user_addr: VirtAddr,
    /// Length in bytes.
    pub len: usize,
    /// Page-aligned base.
    pub page_base: VirtAddr,
    /// First TPT slot.
    pub first_slot: usize,
    /// Number of slots (pages).
    pub npages: usize,
    pub tag: ProtectionTag,
}

/// A maximal physically contiguous frame run inside a translated span: the
/// unit of burst DMA. `frame` is the first frame; the run continues through
/// physically consecutive frames for `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRun {
    pub frame: FrameId,
    /// Byte offset within the first frame.
    pub offset: usize,
    /// Total bytes in the run (may cross any number of frame boundaries).
    pub len: usize,
}

/// Number of region descriptors a per-VI translation cache holds.
pub const TLB_WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    mem: MemId,
    /// TPT generation the entry was filled at; any insert/remove since
    /// invalidates it.
    generation: u64,
    user_addr: VirtAddr,
    len: usize,
    page_base: VirtAddr,
    first_slot: usize,
    tag: ProtectionTag,
}

/// A per-VI mini-TLB over TPT *region descriptors*: a hit resolves bounds,
/// protection tag and the slot window without touching the region directory
/// (the `BTreeMap` walk real NICs avoid with their on-chip TLBs). Frames
/// and RDMA attributes are always read from the live TPT slots — so
/// `poke_frame` staleness injection stays visible and a hit refuses in the
/// same order as a miss; directory mutations invalidate via the TPT
/// generation counter.
#[derive(Debug, Default)]
pub struct TranslationCache {
    slots: [Option<TlbSlot>; TLB_WAYS],
}

impl TranslationCache {
    fn lookup(&self, mem: MemId, generation: u64) -> Option<&TlbSlot> {
        self.slots[mem.0 as usize % TLB_WAYS]
            .as_ref()
            .filter(|s| s.mem == mem && s.generation == generation)
    }

    fn fill(&mut self, slot: TlbSlot) {
        self.slots[slot.mem.0 as usize % TLB_WAYS] = Some(slot);
    }
}

/// The table itself: fixed-capacity slots plus the region directory.
pub struct Tpt {
    slots: Vec<Option<TptEntry>>,
    /// Number of empty slots: what a region's size is checked against
    /// before the first-fit search, and what the census recounts.
    free: usize,
    regions: std::collections::BTreeMap<MemId, TptRegion>,
    next_mem: u32,
    /// Bumped on every directory mutation; validates [`TranslationCache`]
    /// entries.
    generation: u64,
}

/// `insert_region` fills every slot of a region and `remove_region` empties
/// them together, so a hole inside a live region is a broken table — reported
/// typed, because translation runs on every descriptor and the NIC never
/// panics on the datapath.
fn hole() -> ViaError {
    ViaError::BadState("empty TPT slot inside a region")
}

impl Tpt {
    /// A TPT with `capacity` page slots.
    pub fn new(capacity: usize) -> Self {
        Tpt {
            slots: vec![None; capacity],
            free: capacity,
            regions: Default::default(),
            next_mem: 1,
            generation: 0,
        }
    }

    /// Current directory generation (TLB validity stamp).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Free page slots remaining.
    pub fn free_slots(&self) -> usize {
        self.free
    }

    /// Fill slots for a freshly registered region. Slots need not be
    /// physically contiguous in a real TPT; for simplicity (and O(1)
    /// lookup) we demand a contiguous run here, found first-fit. `frames`
    /// yields one entry per page: eager strategies yield every frame as
    /// `Some`; on-demand regions yield `None` for pages that start
    /// non-resident.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_region(
        &mut self,
        reg_handle: vialock::MemHandle,
        pid: Pid,
        user_addr: VirtAddr,
        len: usize,
        frames: impl IntoIterator<Item = Option<FrameId>, IntoIter: ExactSizeIterator>,
        tag: ProtectionTag,
        rdma_write: bool,
        rdma_read: bool,
    ) -> ViaResult<MemId> {
        let frames = frames.into_iter();
        let npages = frames.len();
        if self.free < npages {
            return Err(ViaError::Reg(vialock::RegError::LimitExceeded));
        }
        // Find a contiguous run of free slots (first-fit scan).
        let first_slot = self.find_contiguous(npages)?;
        for (slot, frame) in self.slots[first_slot..first_slot + npages]
            .iter_mut()
            .zip(frames)
        {
            debug_assert!(slot.is_none());
            *slot = Some(TptEntry {
                frame,
                tag,
                pid,
                rdma_write,
                rdma_read,
            });
        }
        self.free -= npages;
        let mem_id = MemId(self.next_mem);
        self.next_mem += 1;
        self.generation += 1;
        self.regions.insert(
            mem_id,
            TptRegion {
                mem_id,
                reg_handle,
                pid,
                user_addr,
                len,
                page_base: simmem::page_base(user_addr),
                first_slot,
                npages,
                tag,
            },
        );
        Ok(mem_id)
    }

    fn find_contiguous(&self, npages: usize) -> ViaResult<usize> {
        let mut run = 0usize;
        for (i, s) in self.slots.iter().enumerate() {
            if s.is_none() {
                run += 1;
                if run == npages {
                    return Ok(i + 1 - npages);
                }
            } else {
                run = 0;
            }
        }
        Err(ViaError::Reg(vialock::RegError::LimitExceeded))
    }

    /// Remove a region's slots; returns the record for the kernel agent to
    /// unpin through `vialock`.
    pub fn remove_region(&mut self, mem_id: MemId) -> ViaResult<TptRegion> {
        let region = self
            .regions
            .remove(&mem_id)
            .ok_or(ViaError::BadId("memory"))?;
        self.slots[region.first_slot..region.first_slot + region.npages].fill(None);
        self.free += region.npages;
        self.generation += 1;
        Ok(region)
    }

    /// Region record lookup.
    pub fn region(&self, mem_id: MemId) -> ViaResult<&TptRegion> {
        self.regions.get(&mem_id).ok_or(ViaError::BadId("memory"))
    }

    /// The entry of page `page` of region `mem_id`, for the residency edits.
    fn entry_mut(&mut self, mem_id: MemId, page: usize) -> ViaResult<&mut TptEntry> {
        let region = self.region(mem_id)?;
        if page >= region.npages {
            return Err(ViaError::OutOfBounds);
        }
        let slot = region.first_slot + page;
        self.slots
            .get_mut(slot)
            .and_then(Option::as_mut)
            .ok_or_else(hole)
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Ids of every region owned by `pid` (the exit-time teardown walk).
    pub fn region_ids_for_pid(&self, pid: Pid) -> Vec<MemId> {
        self.regions
            .values()
            .filter(|r| r.pid == pid)
            .map(|r| r.mem_id)
            .collect()
    }

    /// Occupied page slots.
    pub fn used_slots(&self) -> usize {
        self.slots.len() - self.free
    }

    /// Total page-slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The NIC-side address translation: `(mem_id, user virtual addr)` →
    /// `(physical frame, in-page offset)`, with bounds and protection-tag
    /// checks. `want_tag` is the requesting VI's tag; RDMA accesses
    /// additionally require the region's matching enable attribute.
    pub fn translate(
        &self,
        mem_id: MemId,
        addr: VirtAddr,
        want_tag: ProtectionTag,
        access: Access,
    ) -> ViaResult<(FrameId, usize)> {
        let region = self.region(mem_id)?;
        if addr < region.user_addr || addr >= region.user_addr + region.len as u64 {
            return Err(ViaError::OutOfBounds);
        }
        let page_index = ((addr - region.page_base) / PAGE_SIZE as u64) as usize;
        let entry = self
            .slots
            .get(region.first_slot + page_index)
            .and_then(Option::as_ref)
            .ok_or_else(hole)?;
        if entry.tag != want_tag {
            return Err(ViaError::ProtectionMismatch);
        }
        match access {
            Access::Local => {}
            Access::RdmaWrite if !entry.rdma_write => return Err(ViaError::RdmaDisabled),
            Access::RdmaRead if !entry.rdma_read => return Err(ViaError::RdmaDisabled),
            _ => {}
        }
        let frame = entry
            .frame
            .ok_or(ViaError::NotResident { page: page_index })?;
        Ok((frame, (addr & (PAGE_SIZE as u64 - 1)) as usize))
    }

    /// Resolve `[addr, addr+len)` of a region into maximal physically
    /// contiguous frame runs, appended to `out`. Bounds, protection-tag and
    /// RDMA-attribute checks run **once per span**, not once per page; the
    /// caller then issues one burst DMA per run.
    pub fn translate_range(
        &self,
        mem_id: MemId,
        addr: VirtAddr,
        len: usize,
        want_tag: ProtectionTag,
        access: Access,
        out: &mut Vec<DmaRun>,
    ) -> ViaResult<()> {
        let region = self.region(mem_id)?;
        self.resolve_runs(
            region.user_addr,
            region.len,
            region.page_base,
            region.first_slot,
            region.tag,
            addr,
            len,
            want_tag,
            access,
            out,
        )
    }

    /// [`Tpt::translate_range`] through a per-VI [`TranslationCache`]: a
    /// hit skips the region-directory lookup entirely. Returns `true` on a
    /// TLB hit, `false` on a miss (the entry is filled for next time).
    #[allow(clippy::too_many_arguments)]
    pub fn translate_range_tlb(
        &self,
        tlb: &mut TranslationCache,
        mem_id: MemId,
        addr: VirtAddr,
        len: usize,
        want_tag: ProtectionTag,
        access: Access,
        out: &mut Vec<DmaRun>,
    ) -> ViaResult<bool> {
        if let Some(e) = tlb.lookup(mem_id, self.generation) {
            let (user_addr, rlen, page_base, first_slot, tag) =
                (e.user_addr, e.len, e.page_base, e.first_slot, e.tag);
            self.resolve_runs(
                user_addr, rlen, page_base, first_slot, tag, addr, len, want_tag, access, out,
            )?;
            return Ok(true);
        }
        let region = self.region(mem_id)?;
        let slot = TlbSlot {
            mem: mem_id,
            generation: self.generation,
            user_addr: region.user_addr,
            len: region.len,
            page_base: region.page_base,
            first_slot: region.first_slot,
            tag: region.tag,
        };
        self.resolve_runs(
            region.user_addr,
            region.len,
            region.page_base,
            region.first_slot,
            region.tag,
            addr,
            len,
            want_tag,
            access,
            out,
        )?;
        tlb.fill(slot);
        Ok(false)
    }

    /// Shared core of the range translators: span checks once, then a
    /// slot walk that coalesces physically consecutive frames.
    #[allow(clippy::too_many_arguments)]
    fn resolve_runs(
        &self,
        region_addr: VirtAddr,
        region_len: usize,
        page_base: VirtAddr,
        first_slot: usize,
        region_tag: ProtectionTag,
        addr: VirtAddr,
        len: usize,
        want_tag: ProtectionTag,
        access: Access,
        out: &mut Vec<DmaRun>,
    ) -> ViaResult<()> {
        if len == 0 {
            return Ok(());
        }
        // `addr` and `len` come from a descriptor — for RDMA, one a peer
        // wrote — so the span is tested checked: a sum that wraps the
        // address space lies outside every region.
        let inside = (addr.checked_sub(region_addr))
            .is_some_and(|off| simmem::within(off, len as u64, region_len as u64));
        if !inside {
            return Err(ViaError::OutOfBounds);
        }
        let end = addr + len as u64;
        if region_tag != want_tag {
            return Err(ViaError::ProtectionMismatch);
        }
        let first_page = ((addr - page_base) / PAGE_SIZE as u64) as usize;
        let last_page = ((end - 1 - page_base) / PAGE_SIZE as u64) as usize;
        // The span's slots, sliced once: the walk below checks no index.
        let window = self
            .slots
            .get(first_slot + first_page..=first_slot + last_page)
            .ok_or_else(hole)?;
        let first_entry = window.first().and_then(Option::as_ref).ok_or_else(hole)?;
        match access {
            Access::Local => {}
            Access::RdmaWrite if !first_entry.rdma_write => return Err(ViaError::RdmaDisabled),
            Access::RdmaRead if !first_entry.rdma_read => return Err(ViaError::RdmaDisabled),
            _ => {}
        }
        let mut run_frame = first_entry
            .frame
            .ok_or(ViaError::NotResident { page: first_page })?;
        let mut run_offset = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        // Bytes of the span covered by each page: the first and last pages
        // may be partial.
        let mut run_len = 0usize;
        let mut prev_frame = run_frame;
        let mut remaining = len;
        for (page, slot) in (first_page..).zip(window) {
            let covered = if page == first_page {
                remaining.min(PAGE_SIZE - run_offset)
            } else {
                remaining.min(PAGE_SIZE)
            };
            let frame = slot
                .as_ref()
                .ok_or_else(hole)?
                .frame
                .ok_or(ViaError::NotResident { page })?;
            if page > first_page && frame.0 != prev_frame.0 + 1 {
                // Physical discontinuity: close the current run.
                out.push(DmaRun {
                    frame: run_frame,
                    offset: run_offset,
                    len: run_len,
                });
                run_frame = frame;
                run_offset = 0;
                run_len = 0;
            }
            run_len += covered;
            remaining -= covered;
            prev_frame = frame;
        }
        out.push(DmaRun {
            frame: run_frame,
            offset: run_offset,
            len: run_len,
        });
        Ok(())
    }

    /// Overwrite the frame stored for one page of a region (test hook used
    /// to model TPT staleness injection).
    #[doc(hidden)]
    pub fn poke_frame(&mut self, mem_id: MemId, page: usize, frame: FrameId) -> ViaResult<()> {
        self.entry_mut(mem_id, page)?.frame = Some(frame);
        Ok(())
    }

    /// Install the frame for one page of a region after an on-demand repin.
    /// Bumps the generation so per-VI TLB descriptors cached before the
    /// residency change are refetched — the repin side of the TPT
    /// generation protocol.
    pub fn set_frame(&mut self, mem_id: MemId, page: usize, frame: FrameId) -> ViaResult<()> {
        self.entry_mut(mem_id, page)?.frame = Some(frame);
        self.generation += 1;
        Ok(())
    }

    /// Mark every TPT entry backed by `frame` non-resident — the pull-based
    /// unpin → TPT coherence edge: the page stealer dissolved a lazy pin
    /// and the kernel queued the frame for invalidation; the kernel agent
    /// drains that queue into this call before the NIC translates again.
    /// Bumps the generation (when anything changed) so TLB-cached
    /// descriptors are refetched. Returns the number of entries
    /// invalidated.
    ///
    /// Every filled slot lies in exactly one live region's window (the
    /// invariant [`hole`] reports and [`Tpt::check_invariants`] audits), so
    /// the windows are the whole search: a steal costs the pages
    /// registered, not the table's capacity.
    pub fn invalidate_frame(&mut self, frame: FrameId) -> usize {
        let mut n = 0usize;
        for region in self.regions.values() {
            let Some(window) = self
                .slots
                .get_mut(region.first_slot..region.first_slot + region.npages)
            else {
                debug_assert!(false, "region window beyond the table");
                continue;
            };
            for entry in window.iter_mut().flatten() {
                if entry.frame == Some(frame) {
                    entry.frame = None;
                    n += 1;
                }
            }
        }
        if n > 0 {
            self.generation += 1;
        }
        n
    }

    /// The table census: the live regions' windows are disjoint, lie
    /// inside the table, and hold exactly the filled slots — no hole
    /// inside a window, no filled slot outside every window (one there
    /// would be invisible to [`Tpt::invalidate_frame`]) — and the free-slot
    /// counter equals the number of empty slots.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let mut owner: Vec<Option<MemId>> = vec![None; self.slots.len()];
        for r in self.regions.values() {
            let window = owner
                .get_mut(r.first_slot..r.first_slot + r.npages)
                .ok_or_else(|| format!("region {} window beyond the table", r.mem_id.0))?;
            for o in window {
                if let Some(other) = o.replace(r.mem_id) {
                    return Err(format!(
                        "regions {} and {} share a TPT slot",
                        other.0, r.mem_id.0
                    ));
                }
            }
        }
        for (i, (slot, owner)) in self.slots.iter().zip(&owner).enumerate() {
            match (slot.is_some(), owner) {
                (true, None) => return Err(format!("filled TPT slot {i} outside every region")),
                (false, Some(m)) => {
                    return Err(format!("empty TPT slot {i} inside region {}", m.0))
                }
                _ => {}
            }
        }
        let empty = self.slots.iter().filter(|s| s.is_none()).count();
        if empty != self.free {
            return Err(format!(
                "free-slot counter {} != {empty} empty TPT slots",
                self.free
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_tpt() -> (Tpt, MemId) {
        let mut t = Tpt::new(16);
        let id = t
            .insert_region(
                vialock::MemHandle(1),
                Pid(1),
                0x1000 + 50,
                2 * PAGE_SIZE,
                [FrameId(100), FrameId(101), FrameId(102)].map(Some),
                ProtectionTag(7),
                true,
                false,
            )
            .unwrap();
        (t, id)
    }

    #[test]
    fn translate_checks_bounds_and_tags() {
        let (t, id) = mk_tpt();
        let (f, off) = t
            .translate(id, 0x1000 + 50, ProtectionTag(7), Access::Local)
            .unwrap();
        assert_eq!((f, off), (FrameId(100), 50));
        // Cross into second page.
        let (f, _) = t
            .translate(
                id,
                0x1000 + PAGE_SIZE as u64 + 1,
                ProtectionTag(7),
                Access::Local,
            )
            .unwrap();
        assert_eq!(f, FrameId(101));
        // Below and beyond the region.
        assert_eq!(
            t.translate(id, 0x1000, ProtectionTag(7), Access::Local),
            Err(ViaError::OutOfBounds)
        );
        assert_eq!(
            t.translate(
                id,
                0x1000 + 50 + 2 * PAGE_SIZE as u64,
                ProtectionTag(7),
                Access::Local
            ),
            Err(ViaError::OutOfBounds)
        );
        // Wrong tag.
        assert_eq!(
            t.translate(id, 0x1000 + 50, ProtectionTag(8), Access::Local),
            Err(ViaError::ProtectionMismatch)
        );
    }

    #[test]
    fn rdma_attribute_enforced() {
        let mut t = Tpt::new(8);
        let id = t
            .insert_region(
                vialock::MemHandle(2),
                Pid(1),
                0x4000,
                PAGE_SIZE,
                [Some(FrameId(5))],
                ProtectionTag(1),
                false,
                false,
            )
            .unwrap();
        assert_eq!(
            t.translate(id, 0x4000, ProtectionTag(1), Access::RdmaWrite),
            Err(ViaError::RdmaDisabled)
        );
        assert_eq!(
            t.translate(id, 0x4000, ProtectionTag(1), Access::RdmaRead),
            Err(ViaError::RdmaDisabled)
        );
        assert!(t
            .translate(id, 0x4000, ProtectionTag(1), Access::Local)
            .is_ok());
    }

    #[test]
    fn capacity_and_reuse() {
        let mut t = Tpt::new(4);
        let frames = [FrameId(1), FrameId(2), FrameId(3)];
        let id = t
            .insert_region(
                vialock::MemHandle(1),
                Pid(1),
                0x1000,
                3 * PAGE_SIZE,
                frames.map(Some),
                ProtectionTag(1),
                false,
                false,
            )
            .unwrap();
        // Only one slot left: a 2-page region must fail.
        assert!(t
            .insert_region(
                vialock::MemHandle(2),
                Pid(1),
                0x9000,
                2 * PAGE_SIZE,
                [FrameId(4), FrameId(5)].map(Some),
                ProtectionTag(1),
                false,
                false,
            )
            .is_err());
        t.remove_region(id).unwrap();
        assert_eq!(t.free_slots(), 4);
        assert!(t
            .insert_region(
                vialock::MemHandle(3),
                Pid(1),
                0x9000,
                4 * PAGE_SIZE,
                [FrameId(4), FrameId(5), FrameId(6), FrameId(7)].map(Some),
                ProtectionTag(1),
                false,
                false,
            )
            .is_ok());
    }

    #[test]
    fn remove_unknown_region() {
        let mut t = Tpt::new(4);
        assert!(t.remove_region(MemId(9)).is_err());
    }

    #[test]
    fn translate_range_coalesces_contiguous_frames() {
        let mut t = Tpt::new(16);
        // Frames 100,101,102 contiguous; then a gap; then 200.
        let id = t
            .insert_region(
                vialock::MemHandle(1),
                Pid(1),
                0x1000,
                4 * PAGE_SIZE,
                [FrameId(100), FrameId(101), FrameId(102), FrameId(200)].map(Some),
                ProtectionTag(7),
                true,
                false,
            )
            .unwrap();
        let mut runs = Vec::new();
        t.translate_range(
            id,
            0x1000 + 10,
            3 * PAGE_SIZE,
            ProtectionTag(7),
            Access::Local,
            &mut runs,
        )
        .unwrap();
        // 10..3*PAGE+10 spans pages 0..3: one run over 100..102 (ending 10
        // bytes into frame 102's successor — no: 3*PAGE bytes from offset 10
        // covers pages 0,1,2,3) then the discontiguous 200.
        assert_eq!(
            runs,
            vec![
                DmaRun {
                    frame: FrameId(100),
                    offset: 10,
                    len: 3 * PAGE_SIZE - 10
                },
                DmaRun {
                    frame: FrameId(200),
                    offset: 0,
                    len: 10
                },
            ]
        );
        let total: usize = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 3 * PAGE_SIZE);

        // Same result as per-page translate, page by page.
        let (f, off) = t
            .translate(id, 0x1000 + 10, ProtectionTag(7), Access::Local)
            .unwrap();
        assert_eq!((f, off), (FrameId(100), 10));

        // Bounds and tag still enforced, now span-wide — also when the
        // span's end wraps the address space or its length is absurd.
        for (addr, len) in [
            (0x1000 + PAGE_SIZE as u64, 4 * PAGE_SIZE),
            (u64::MAX - 10, 100),
            (0x1000, usize::MAX),
        ] {
            assert_eq!(
                t.translate_range(id, addr, len, ProtectionTag(7), Access::Local, &mut runs),
                Err(ViaError::OutOfBounds)
            );
        }
        assert_eq!(
            t.translate_range(
                id,
                0x1000,
                PAGE_SIZE,
                ProtectionTag(8),
                Access::Local,
                &mut runs
            ),
            Err(ViaError::ProtectionMismatch)
        );
        assert_eq!(
            t.translate_range(
                id,
                0x1000,
                PAGE_SIZE,
                ProtectionTag(7),
                Access::RdmaRead,
                &mut runs
            ),
            Err(ViaError::RdmaDisabled)
        );
    }

    #[test]
    fn tlb_hits_and_generation_invalidation() {
        let mut t = Tpt::new(16);
        let id = t
            .insert_region(
                vialock::MemHandle(1),
                Pid(1),
                0x1000,
                2 * PAGE_SIZE,
                [FrameId(5), FrameId(6)].map(Some),
                ProtectionTag(1),
                true,
                false,
            )
            .unwrap();
        let mut tlb = TranslationCache::default();
        let mut runs = Vec::new();
        let hit = t
            .translate_range_tlb(
                &mut tlb,
                id,
                0x1000,
                64,
                ProtectionTag(1),
                Access::Local,
                &mut runs,
            )
            .unwrap();
        assert!(!hit, "first access misses");
        runs.clear();
        let hit = t
            .translate_range_tlb(
                &mut tlb,
                id,
                0x1000 + 100,
                PAGE_SIZE,
                ProtectionTag(1),
                Access::Local,
                &mut runs,
            )
            .unwrap();
        assert!(hit, "second access hits");
        assert_eq!(runs[0].frame, FrameId(5));
        // Attribute checks still enforced on the hit path.
        assert_eq!(
            t.translate_range_tlb(
                &mut tlb,
                id,
                0x1000,
                64,
                ProtectionTag(1),
                Access::RdmaRead,
                &mut runs
            ),
            Err(ViaError::RdmaDisabled)
        );
        // A directory mutation invalidates the cached descriptor.
        let id2 = t
            .insert_region(
                vialock::MemHandle(2),
                Pid(1),
                0x9000,
                PAGE_SIZE,
                [Some(FrameId(9))],
                ProtectionTag(1),
                true,
                false,
            )
            .unwrap();
        runs.clear();
        let hit = t
            .translate_range_tlb(
                &mut tlb,
                id,
                0x1000,
                64,
                ProtectionTag(1),
                Access::Local,
                &mut runs,
            )
            .unwrap();
        assert!(!hit, "generation bump invalidates");
        // A removed region misses and then errors.
        t.remove_region(id2).unwrap();
        runs.clear();
        assert!(matches!(
            t.translate_range_tlb(
                &mut tlb,
                id2,
                0x9000,
                8,
                ProtectionTag(1),
                Access::Local,
                &mut runs
            ),
            Err(ViaError::BadId(_))
        ));
        // Frames are read live: poke_frame staleness shows up through a TLB
        // hit (no generation bump — the directory did not change).
        runs.clear();
        t.translate_range_tlb(
            &mut tlb,
            id,
            0x1000,
            64,
            ProtectionTag(1),
            Access::Local,
            &mut runs,
        )
        .unwrap();
        t.poke_frame(id, 0, FrameId(12)).unwrap();
        runs.clear();
        let hit = t
            .translate_range_tlb(
                &mut tlb,
                id,
                0x1000,
                64,
                ProtectionTag(1),
                Access::Local,
                &mut runs,
            )
            .unwrap();
        assert!(hit);
        assert_eq!(runs[0].frame, FrameId(12), "poked frame visible via TLB");
    }

    #[test]
    fn non_resident_entries_fault_typed_and_repin_bumps_generation() {
        let mut t = Tpt::new(16);
        // An on-demand region: page 1 of 3 starts non-resident.
        let id = t
            .insert_region(
                vialock::MemHandle(1),
                Pid(1),
                0x1000,
                3 * PAGE_SIZE,
                [Some(FrameId(50)), None, Some(FrameId(52))],
                ProtectionTag(1),
                true,
                false,
            )
            .unwrap();
        // Resident pages translate; the hole faults with its page index.
        assert!(t
            .translate(id, 0x1000, ProtectionTag(1), Access::Local)
            .is_ok());
        assert_eq!(
            t.translate(
                id,
                0x1000 + PAGE_SIZE as u64,
                ProtectionTag(1),
                Access::Local
            ),
            Err(ViaError::NotResident { page: 1 })
        );
        let mut runs = Vec::new();
        assert_eq!(
            t.translate_range(
                id,
                0x1000,
                3 * PAGE_SIZE,
                ProtectionTag(1),
                Access::Local,
                &mut runs
            ),
            Err(ViaError::NotResident { page: 1 })
        );
        // Repin installs the frame and bumps the generation (TLB flush).
        let g = t.generation();
        t.set_frame(id, 1, FrameId(51)).unwrap();
        assert!(t.generation() > g);
        runs.clear();
        t.translate_range(
            id,
            0x1000,
            3 * PAGE_SIZE,
            ProtectionTag(1),
            Access::Local,
            &mut runs,
        )
        .unwrap();
        assert_eq!(runs.len(), 1, "50,51,52 coalesce once resident");
        // Pressure unpin: the frame's entries go non-resident again.
        let g = t.generation();
        assert_eq!(t.invalidate_frame(FrameId(51)), 1);
        assert!(t.generation() > g);
        assert_eq!(
            t.invalidate_frame(FrameId(51)),
            0,
            "second drain is a no-op"
        );
        assert_eq!(
            t.translate(
                id,
                0x1000 + PAGE_SIZE as u64,
                ProtectionTag(1),
                Access::Local
            ),
            Err(ViaError::NotResident { page: 1 })
        );
        // Out-of-span repin refused.
        assert_eq!(t.set_frame(id, 3, FrameId(9)), Err(ViaError::OutOfBounds));
    }

    #[test]
    fn invalidation_walks_region_windows_and_the_census_audits_them() {
        // Two regions with a gap of free slots between and after them; the
        // same frame backs a page of each (a shared mapping).
        let mut t = Tpt::new(64);
        let mut ids = Vec::new();
        for (h, frames) in [
            (1, vec![Some(FrameId(7)), Some(FrameId(8)), None]),
            (2, vec![Some(FrameId(9))]),
            (3, vec![None, Some(FrameId(7))]),
        ] {
            ids.push(
                t.insert_region(
                    vialock::MemHandle(h),
                    Pid(1),
                    0x1000 * h,
                    frames.len() * PAGE_SIZE,
                    frames,
                    ProtectionTag(1),
                    true,
                    false,
                )
                .unwrap(),
            );
        }
        t.remove_region(ids[1]).unwrap();
        t.check_invariants().unwrap();
        let g = t.generation();
        assert_eq!(t.invalidate_frame(FrameId(7)), 2, "both regions' entries");
        assert_eq!(t.generation(), g + 1, "one bump per frame that hit");
        assert_eq!(t.invalidate_frame(FrameId(9)), 0, "removed with its region");
        assert_eq!(t.generation(), g + 1);
        t.check_invariants().unwrap();

        // A filled slot no region owns is what the windowed walk cannot
        // see; the census reports it, and a hole inside a window too.
        let stray = t.slots.iter().position(Option::is_none).unwrap();
        t.slots[stray] = t.slots[0];
        assert!(t.check_invariants().unwrap_err().contains("outside"));
        t.slots[stray] = None;
        t.slots[0] = None;
        assert!(t.check_invariants().unwrap_err().contains("empty"));
    }

    #[test]
    fn the_census_recounts_the_free_slot_counter() {
        let (mut t, id) = mk_tpt();
        assert_eq!((t.free_slots(), t.used_slots()), (13, 3));
        t.check_invariants().unwrap();
        t.free += 1;
        assert_eq!(
            t.check_invariants(),
            Err("free-slot counter 14 != 13 empty TPT slots".into())
        );
        t.free -= 1;
        t.remove_region(id).unwrap();
        assert_eq!(t.free_slots(), 16);
        t.check_invariants().unwrap();
    }
}
