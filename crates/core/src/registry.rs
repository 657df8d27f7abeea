//! The memory registry: the registration front-end of the VIA kernel agent.
//!
//! `register` / `deregister` are what `VipRegisterMem` / `VipDeregisterMem`
//! land on after the trap into the kernel agent. The registry drives the
//! configured [`StrategyKind`], owns the shared [`PinTable`], and — for the
//! mlock strategy — keeps the **driver-side interval bookkeeping** the paper
//! says is unavoidable because `munlock` does not nest: per-pid
//! [`IntervalCounter`]s over VPN runs, with `munlock` issued only over
//! contiguous runs whose count dropped to zero.

use std::collections::HashMap;

use simmem::{FrameId, Kernel, PageSpan, Pid, VirtAddr, PAGE_SHIFT, PAGE_SIZE};

use crate::error::{RegError, RegResult};
use crate::interval::IntervalCounter;
use crate::pin::PinTable;
use crate::region::{MemHandle, Region, RegionTable};
use crate::strategy::{pin_region, unpin_region, PinToken, StrategyKind};

/// Registration statistics, reported by the experiment harness. Read them
/// through [`MemoryRegistry::snapshot`], or `snapshot_with` to join the
/// kernel's fault counters into the same block.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    pub registrations: u64,
    pub deregistrations: u64,
    pub pages_pinned: u64,
    pub pages_unpinned: u64,
    /// Registrations that failed with `WouldBlock` (foreign I/O lock).
    pub blocked: u64,
    /// Bounded in-registry retries after a `WouldBlock` (see
    /// [`MemoryRegistry::with_retry`]).
    pub pin_retries: u64,
    /// Simulated backoff time accumulated by those retries (exponential:
    /// attempt *i* waits 2^i ticks on the page-wait queue).
    pub backoff_ticks: u64,
    /// Registrations rescued by the kiobuf → mlock degradation chain.
    pub fallbacks: u64,
    /// Minor faults observed by the backing kernel. Zero in a plain
    /// [`MemoryRegistry::snapshot`]; filled by `snapshot_with`, which joins
    /// the kernel's `MmStats` into the block so per-strategy fault behaviour
    /// lands in bench JSON without a second counter plumbing path.
    pub minor_faults: u64,
    /// Major (swap-in) faults observed by the backing kernel.
    pub major_faults: u64,
    /// Protection-trap pins taken on the lazy (on-demand) path.
    pub protection_faults: u64,
    /// Lazy pins re-taken after an unpin (pressure steal or COW break).
    pub repins: u64,
    /// Cold on-demand frames dissolved by the page stealer.
    pub pressure_unpins: u64,
    /// Lazy pins dissolved because a COW break moved the mapping.
    pub cow_invalidations: u64,
}

/// The kernel agent's registration front-end.
pub struct MemoryRegistry {
    strategy: StrategyKind,
    regions: RegionTable,
    pin_table: PinTable,
    /// Per-pid VPN-run lock counts for the mlock strategy's interval
    /// bookkeeping: O(runs) per register/deregister instead of O(pages).
    mlock_counts: HashMap<Pid, IntervalCounter>,
    /// Optional cap on total pinned pages (models TPT capacity).
    max_pages: Option<usize>,
    /// Extra pin attempts after a `WouldBlock` before giving up (0 = report
    /// the first `WouldBlock` to the caller, the historical behaviour).
    retry_limit: u32,
    /// Degrade kiobuf registrations to the mlock strategy when the page
    /// lock stays contended through every retry.
    fallback: bool,
    /// Lazy-pin ledger for on-demand regions: one slot per page of the
    /// span, `Some(frame)` iff this registry holds a kernel lazy pin for
    /// that page. Eager regions never appear here. This is what keeps
    /// [`RegistryStats`] and [`MemoryRegistry::check_invariants`] exact
    /// when pages pin and unpin after registration.
    ledger: HashMap<MemHandle, Vec<Option<FrameId>>>,
    stats: RegistryStats,
}

impl MemoryRegistry {
    /// A registry using `strategy` with unlimited capacity, no retries and
    /// no degradation chain.
    pub fn new(strategy: StrategyKind) -> Self {
        MemoryRegistry {
            strategy,
            regions: RegionTable::new(),
            pin_table: PinTable::new(),
            mlock_counts: HashMap::new(),
            max_pages: None,
            retry_limit: 0,
            fallback: false,
            ledger: HashMap::new(),
            stats: RegistryStats::default(),
        }
    }

    /// Cap total pinned pages — the simulated TPT size.
    pub fn with_page_limit(mut self, max_pages: usize) -> Self {
        self.max_pages = Some(max_pages);
        self
    }

    /// Retry a `WouldBlock`ed pin up to `retries` more times, modelling the
    /// bounded page-wait-queue sleep (exponential backoff is accounted in
    /// [`RegistryStats::backoff_ticks`]).
    pub fn with_retry(mut self, retries: u32) -> Self {
        self.retry_limit = retries;
        self
    }

    /// Enable the graceful-degradation chain: a kiobuf registration whose
    /// page lock stays contended through every retry falls back to the
    /// mlock strategy instead of failing (the VIA spec lets the kernel
    /// agent pick any pinning mechanism per region).
    pub fn with_fallback(mut self) -> Self {
        self.fallback = true;
        self
    }

    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Consistent stats snapshot — the only supported way to read
    /// [`RegistryStats`].
    pub fn snapshot(&self) -> RegistryStats {
        self.stats
    }

    /// [`MemoryRegistry::snapshot`] joined with the kernel's fault and
    /// repin counters, so one block reports both what the registry did and
    /// what it cost the VM (per-strategy fault behaviour in bench JSON).
    pub fn snapshot_with(&self, kernel: &Kernel) -> RegistryStats {
        let mm = kernel.mm_stats();
        let mut s = self.stats;
        s.minor_faults = mm.minor_faults;
        s.major_faults = mm.major_faults;
        s.protection_faults = mm.protection_faults;
        s.repins = mm.repins;
        s.pressure_unpins = mm.pressure_unpins;
        s.cow_invalidations = mm.cow_invalidations;
        s
    }

    /// One strategy attempt with the bounded retry loop around the pin.
    fn pin_with_retry(
        &mut self,
        kernel: &mut Kernel,
        strategy: StrategyKind,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> RegResult<(Vec<FrameId>, PinToken)> {
        let mut attempt = 0u32;
        loop {
            match pin_region(kernel, &mut self.pin_table, strategy, pid, addr, len) {
                Ok(ok) => return Ok(ok),
                Err(RegError::WouldBlock) if attempt < self.retry_limit => {
                    attempt += 1;
                    self.stats.pin_retries += 1;
                    self.stats.backoff_ticks += 1u64 << attempt;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Register `[addr, addr + len)` of process `pid`. Returns a handle; the
    /// same range may be registered any number of times.
    pub fn register(
        &mut self,
        kernel: &mut Kernel,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> RegResult<MemHandle> {
        // `addr` and `len` come straight from the user's `VipRegisterMem`
        // call: the span check refuses a wrap before anything is sized.
        let span = PageSpan::of(addr, len)?;
        if let Some(max) = self.max_pages {
            if self.regions.total_pages() + span.npages > max {
                return Err(RegError::LimitExceeded);
            }
        }
        let (frames, token, used) = match self.pin_with_retry(kernel, self.strategy, pid, addr, len)
        {
            Ok((f, t)) => (f, t, self.strategy),
            Err(RegError::WouldBlock)
                if self.fallback && self.strategy == StrategyKind::KiobufReliable =>
            {
                // Degradation chain: the page lock stayed contended
                // through every retry — pin via mlock instead. The
                // region records the strategy actually used, and the
                // token drives teardown, so mixed-strategy tables are
                // fine.
                self.stats.blocked += 1;
                let (f, t) = self.pin_with_retry(kernel, StrategyKind::VmaMlock, pid, addr, len)?;
                self.stats.fallbacks += 1;
                (f, t, StrategyKind::VmaMlock)
            }
            Err(RegError::WouldBlock) => {
                self.stats.blocked += 1;
                return Err(RegError::WouldBlock);
            }
            Err(e) => return Err(e),
        };
        if matches!(token, PinToken::Mlock { .. }) {
            let vpns = span.vpns();
            self.mlock_counts
                .entry(pid)
                .or_default()
                .add(vpns.start, vpns.end);
        }
        self.stats.registrations += 1;
        self.stats.pages_pinned += frames.len() as u64;
        let handle = self
            .regions
            .insert(pid, addr, len, span, frames, used, token);
        if used == StrategyKind::OnDemand {
            // Lazy span: nothing resident yet; pages pin on first access.
            self.ledger.insert(handle, vec![None; span.npages]);
        }
        Ok(handle)
    }

    /// Protection-trap entry point for on-demand regions: ensure page
    /// `page_idx` of `handle`'s span is resident and lazily pinned, and
    /// return its frame. Idempotent per page — a resident page is a ledger
    /// hit and touches no kernel state.
    pub fn pin_on_access(
        &mut self,
        kernel: &mut Kernel,
        handle: MemHandle,
        page_idx: usize,
    ) -> RegResult<FrameId> {
        let (pid, page_base, npages) = {
            let r = self.regions.get(handle)?;
            (r.pid, r.span.base, r.npages())
        };
        let slot = self
            .ledger
            .get(&handle)
            .ok_or(RegError::InvalidArgument("not an on-demand region"))?
            .get(page_idx)
            .copied()
            .ok_or(RegError::InvalidArgument("page beyond region"))?;
        if let Some(frame) = slot {
            return Ok(frame);
        }
        debug_assert!(page_idx < npages);
        if kernel.inject(crate::fault::FaultSite::LazyPin.code()) {
            self.stats.blocked += 1;
            return Err(RegError::WouldBlock);
        }
        let addr = page_base + (page_idx * PAGE_SIZE) as u64;
        let frame = match kernel.lazy_pin_page(pid, addr) {
            Ok(f) => f,
            Err(e) => {
                let e = RegError::from(e);
                if e == RegError::WouldBlock {
                    self.stats.blocked += 1;
                }
                return Err(e);
            }
        };
        self.ledger.get_mut(&handle).expect("checked above")[page_idx] = Some(frame);
        self.stats.pages_pinned += 1;
        Ok(frame)
    }

    /// Drain the kernel's lazy-invalidation queue and null every ledger
    /// slot that pointed at a dissolved frame. Returns the drained frames
    /// so the caller can invalidate its TPT entries (and bump generations)
    /// for exactly those frames. Must run before translating or pinning —
    /// the kernel cannot call upward into the NIC, so this pull is the
    /// unpin → TPT coherence edge.
    pub fn drain_lazy_invalidations(&mut self, kernel: &mut Kernel) -> Vec<FrameId> {
        let frames = kernel.take_lazy_invalidations();
        if frames.is_empty() {
            return frames;
        }
        // Frame reuse (ABA): between the dissolve that queued a frame and
        // this drain, the freed frame may have been reallocated and lazily
        // re-pinned — possibly for a different page of the same region.
        // Nulling that fresh slot would leak its kernel pin (the next
        // pin_on_access would double-pin). A slot is stale only if the
        // kernel no longer backs it: the pin was dissolved or the mapping
        // moved off the frame.
        for (handle, entry) in &mut self.ledger {
            let Ok(region) = self.regions.get(*handle) else {
                continue;
            };
            for (page, slot) in entry.iter_mut().enumerate() {
                let Some(f) = *slot else { continue };
                if !frames.contains(&f) {
                    continue;
                }
                let addr = region.span.base + (page * PAGE_SIZE) as u64;
                let live = kernel.lazy_pin_count(f) > 0
                    && kernel.frame_of(region.pid, addr).ok().flatten() == Some(f);
                if !live {
                    *slot = None;
                    self.stats.pages_unpinned += 1;
                }
            }
        }
        frames
    }

    /// Per-page residency of a region as a TPT would hold it: eager
    /// regions are fully resident; on-demand regions report their ledger,
    /// with `None` for pages that must fault-and-repin on access.
    pub fn tpt_frames(&self, handle: MemHandle) -> RegResult<Vec<Option<FrameId>>> {
        if let Some(entry) = self.ledger.get(&handle) {
            return Ok(entry.clone());
        }
        Ok(self
            .regions
            .get(handle)?
            .frames
            .iter()
            .map(|&f| Some(f))
            .collect())
    }

    /// Deregister a handle; the pages are unpinned when the last
    /// registration covering them goes away.
    pub fn deregister(&mut self, kernel: &mut Kernel, handle: MemHandle) -> RegResult<()> {
        let mut region = self.regions.remove(handle)?;
        let token = region.token.take().expect("token taken only here");
        let npages = region.frames.len();

        // On-demand teardown: release whatever the ledger still holds. A
        // slot may be stale if the kernel dissolved the pin (pressure or
        // COW) and the invalidation has not been drained yet — those show
        // a zero lazy count and are skipped; the queued invalidation still
        // reconciles any TPT copy.
        if let Some(entry) = self.ledger.remove(&handle) {
            for frame in entry.into_iter().flatten() {
                if kernel.lazy_pin_count(frame) > 0 {
                    kernel.lazy_unpin_frame(frame)?;
                }
                self.stats.pages_unpinned += 1;
            }
        }

        // Teardown is driven by the *token*, not the registry's configured
        // strategy: the degradation chain can leave mlock-pinned regions in
        // a kiobuf registry.
        match &token {
            PinToken::Mlock { pid, start, len } => {
                // Interval bookkeeping: decrement run counts; munlock only
                // the maximal half-open VPN runs `[s, e)` that dropped to
                // zero.
                let (pid, vpns) = (*pid, PageSpan::of(*start, *len)?.vpns());
                let counter = self
                    .mlock_counts
                    .get_mut(&pid)
                    .ok_or(RegError::PinUnderflow)?;
                let zero_runs = counter
                    .sub(vpns.start, vpns.end)
                    .map_err(|_| RegError::PinUnderflow)?;
                if counter.is_empty() {
                    self.mlock_counts.remove(&pid);
                }
                // Token consumed without touching VMAs; we unlock runs
                // ourselves below.
                unpin_region(kernel, &mut self.pin_table, token, &region.frames, false)?;
                for (s, e) in zero_runs {
                    let had_cap = kernel.capabilities(pid)?.ipc_lock;
                    if !had_cap {
                        kernel.cap_raise_ipc_lock(pid)?;
                    }
                    let res = kernel.do_mlock(
                        pid,
                        s << PAGE_SHIFT,
                        ((e - s) as usize) * PAGE_SIZE,
                        false,
                    );
                    if !had_cap {
                        kernel.cap_lower_ipc_lock(pid)?;
                    }
                    res?;
                }
            }
            _ => {
                unpin_region(kernel, &mut self.pin_table, token, &region.frames, true)?;
            }
        }
        self.stats.deregistrations += 1;
        self.stats.pages_unpinned += npages as u64;
        Ok(())
    }

    /// The frames recorded at registration time (what a TPT holds). Empty
    /// for on-demand regions — use [`MemoryRegistry::tpt_frames`] for the
    /// residency-aware view.
    pub fn frames(&self, handle: MemHandle) -> RegResult<&[FrameId]> {
        Ok(&self.regions.get(handle)?.frames)
    }

    /// Full region record.
    pub fn region(&self, handle: MemHandle) -> RegResult<&Region> {
        self.regions.get(handle)
    }

    /// TPT-style translation: byte offset within the registration →
    /// (frame, in-page offset).
    pub fn translate(&self, handle: MemHandle, offset: usize) -> RegResult<(FrameId, usize)> {
        let r = self.regions.get(handle)?;
        if let Some(entry) = self.ledger.get(&handle) {
            // On-demand: answer from the ledger; a non-resident page is a
            // WouldBlock the caller resolves via `pin_on_access`.
            if offset >= r.len {
                return Err(RegError::InvalidArgument("offset beyond region"));
            }
            let abs = r.user_addr + offset as u64;
            let page_index = ((abs - r.span.base) / PAGE_SIZE as u64) as usize;
            let in_page = (abs & (PAGE_SIZE as u64 - 1)) as usize;
            return entry[page_index]
                .map(|f| (f, in_page))
                .ok_or(RegError::WouldBlock);
        }
        r.translate(offset)
    }

    /// Locktest step 6: are the frames recorded at registration time still
    /// the ones the page tables map? `false` means the NIC would DMA into
    /// stale frames.
    pub fn verify_consistency(&self, kernel: &Kernel, handle: MemHandle) -> RegResult<bool> {
        let r = self.regions.get(handle)?;
        let current = kernel.frames_of_range(r.pid, r.span.base, r.span.bytes())?;
        if let Some(entry) = self.ledger.get(&handle) {
            // On-demand: only resident (ledger-held) pages promise
            // stability; non-resident pages re-pin on access by design.
            return Ok(entry
                .iter()
                .zip(current.iter())
                .all(|(reg, cur)| reg.is_none() || *reg == *cur));
        }
        Ok(r.frames
            .iter()
            .zip(current.iter())
            .all(|(reg, cur)| Some(*reg) == *cur))
    }

    /// Find a live registration whose page span covers `[addr, addr+len)`
    /// for `pid` — what a kernel agent uses to answer "is this buffer
    /// already registered?" for dynamic zero-copy protocols. Served from
    /// the region table's interval index in O(log n + window) rather than a
    /// scan over every live region.
    pub fn find_covering(&self, pid: Pid, addr: VirtAddr, len: usize) -> Option<MemHandle> {
        self.find_covering_probed(pid, addr, len).0
    }

    /// [`MemoryRegistry::find_covering`] plus the number of index entries
    /// probed — deterministic evidence that the lookup cost does not grow
    /// with the live-region count. A span that wraps is covered by nothing.
    #[doc(hidden)]
    pub fn find_covering_probed(
        &self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> (Option<MemHandle>, usize) {
        match PageSpan::of(addr, len) {
            Ok(span) => self.regions.find_covering_probed(pid, span),
            Err(_) => (None, 0),
        }
    }

    /// Driver-side mlock count at one VPN (mlock strategy bookkeeping) —
    /// oracle hook for property tests.
    #[doc(hidden)]
    pub fn mlock_count_at(&self, pid: Pid, vpn: u64) -> u32 {
        self.mlock_counts.get(&pid).map_or(0, |c| c.count_at(vpn))
    }

    /// Number of live registrations.
    pub fn live_regions(&self) -> usize {
        self.regions.len()
    }

    /// Distinct frames currently pinned through the pin table (kiobuf
    /// strategy only).
    pub fn pinned_frames(&self) -> usize {
        self.pin_table.pinned_frames()
    }

    /// Cross-check pin-table invariants (property tests and the chaos
    /// harness). The census is over regions whose *token* is a kiobuf pin —
    /// mlock-fallback regions do not go through the pin table.
    pub fn check_invariants(&self, kernel: &Kernel) -> Result<(), String> {
        self.pin_table.check_invariants(kernel)?;
        // Sum of per-frame pins must equal the number of (handle, page)
        // pairs that pin each frame.
        let mut expect: HashMap<FrameId, u32> = HashMap::new();
        for r in self.regions.iter() {
            if !matches!(r.token, Some(PinToken::Kiobuf)) {
                continue;
            }
            for &f in &r.frames {
                *expect.entry(f).or_insert(0) += 1;
            }
        }
        for (&f, &c) in &expect {
            if self.pin_table.count(f) != c {
                return Err(format!(
                    "frame {} pin count {} != expected {}",
                    f.0,
                    self.pin_table.count(f),
                    c
                ));
            }
        }
        if expect.len() != self.pin_table.pinned_frames() {
            return Err("pin table tracks frames not owned by any region".into());
        }
        // Lazy-ledger census: every Some slot is one kernel lazy pin, and
        // every kernel lazy pin is some region's Some slot. Frames whose
        // dissolution is still queued (undrained invalidations) are exempt
        // on both sides — the ledger learns about them at the next drain.
        let mut lazy_expect: HashMap<FrameId, u32> = HashMap::new();
        for (h, entry) in &self.ledger {
            if self.regions.get(*h).is_err() {
                return Err(format!("ledger entry for dead handle {}", h.0));
            }
            for f in entry.iter().flatten() {
                *lazy_expect.entry(*f).or_insert(0) += 1;
            }
        }
        let pending = kernel.pending_lazy_invalidations();
        for (&f, &c) in &lazy_expect {
            let k = kernel.lazy_pin_count(f);
            if k != c && !pending.contains(&f) {
                return Err(format!(
                    "frame {} has {} ledger pins but kernel holds {}",
                    f.0, c, k
                ));
            }
        }
        for (f, n) in kernel.lazy_pinned_frames() {
            if lazy_expect.get(&f).copied().unwrap_or(0) != n && !pending.contains(&f) {
                return Err(format!(
                    "kernel lazily pins frame {} ({}×) beyond the ledger",
                    f.0, n
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{prot, Capabilities, KernelConfig};

    fn setup() -> (Kernel, Pid, VirtAddr) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 16 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (k, pid, a)
    }

    #[test]
    fn register_deregister_roundtrip_all_strategies() {
        for strategy in StrategyKind::ALL {
            let (mut k, pid, a) = setup();
            let mut reg = MemoryRegistry::new(strategy);
            let h = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
            if strategy.pins_eagerly() {
                assert_eq!(reg.frames(h).unwrap().len(), 4);
            } else {
                assert!(reg.frames(h).unwrap().is_empty(), "nothing pinned yet");
                assert_eq!(reg.tpt_frames(h).unwrap(), vec![None; 4]);
            }
            assert_eq!(reg.region(h).unwrap().npages(), 4);
            assert!(reg.verify_consistency(&k, h).unwrap());
            reg.deregister(&mut k, h).unwrap();
            assert_eq!(reg.live_regions(), 0);
            assert!(reg.frames(h).is_err());
        }
    }

    #[test]
    fn page_limit_enforced() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable).with_page_limit(6);
        let h = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(
            reg.register(&mut k, pid, a, 4 * PAGE_SIZE),
            Err(RegError::LimitExceeded)
        );
        reg.deregister(&mut k, h).unwrap();
        assert!(reg.register(&mut k, pid, a, 4 * PAGE_SIZE).is_ok());
    }

    #[test]
    fn mlock_interval_bookkeeping_nests() {
        // The exact hazard of section 3.2: two registrations, one
        // deregistration — pages must STAY locked.
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
        let h1 = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        let h2 = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        reg.deregister(&mut k, h1).unwrap();
        assert_eq!(
            k.locked_bytes(pid).unwrap(),
            4 * PAGE_SIZE as u64,
            "driver bookkeeping keeps the range locked"
        );
        reg.deregister(&mut k, h2).unwrap();
        assert_eq!(k.locked_bytes(pid).unwrap(), 0);
    }

    #[test]
    fn mlock_partial_overlap_unlocks_only_free_pages() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
        // [0..8) and [4..12) pages overlap in [4..8).
        let h1 = reg.register(&mut k, pid, a, 8 * PAGE_SIZE).unwrap();
        let _h2 = reg
            .register(&mut k, pid, a + 4 * PAGE_SIZE as u64, 8 * PAGE_SIZE)
            .unwrap();
        reg.deregister(&mut k, h1).unwrap();
        // Pages 0..4 unlocked; 4..12 still locked.
        assert_eq!(k.locked_bytes(pid).unwrap(), 8 * PAGE_SIZE as u64);
    }

    #[test]
    fn kiobuf_invariants_hold_across_overlaps() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let h1 = reg.register(&mut k, pid, a, 8 * PAGE_SIZE).unwrap();
        let h2 = reg
            .register(&mut k, pid, a + 4 * PAGE_SIZE as u64, 8 * PAGE_SIZE)
            .unwrap();
        reg.check_invariants(&k).unwrap();
        reg.deregister(&mut k, h1).unwrap();
        reg.check_invariants(&k).unwrap();
        reg.deregister(&mut k, h2).unwrap();
        reg.check_invariants(&k).unwrap();
        assert_eq!(reg.pinned_frames(), 0);
    }

    #[test]
    fn translation_matches_kernel_walk() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let addr = a + 123; // unaligned on purpose
        let h = reg.register(&mut k, pid, addr, 3 * PAGE_SIZE).unwrap();
        for off in [0usize, 100, PAGE_SIZE, 2 * PAGE_SIZE + 500] {
            let (frame, in_page) = reg.translate(h, off).unwrap();
            let abs = addr + off as u64;
            assert_eq!(k.frame_of(pid, abs).unwrap(), Some(frame));
            assert_eq!(in_page, (abs & (PAGE_SIZE as u64 - 1)) as usize);
        }
        reg.deregister(&mut k, h).unwrap();
    }

    #[test]
    fn find_covering_matches_spans() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let h = reg.register(&mut k, pid, a + 100, 4 * PAGE_SIZE).unwrap();
        // Fully inside the span: found.
        assert_eq!(reg.find_covering(pid, a + 200, PAGE_SIZE), Some(h));
        assert_eq!(reg.find_covering(pid, a, 4 * PAGE_SIZE), Some(h));
        // Past the end: not covered.
        assert_eq!(reg.find_covering(pid, a + 5 * PAGE_SIZE as u64, 16), None);
        // Different process: never.
        assert_eq!(reg.find_covering(Pid(999), a, 16), None);
        reg.deregister(&mut k, h).unwrap();
        assert_eq!(reg.find_covering(pid, a, 16), None);
    }

    #[test]
    fn retry_rescues_transient_page_lock() {
        use crate::fault::{handle, kernel_hook, FaultPlan, FaultSite};
        let (mut k, pid, a) = setup();
        // Two injected PG_locked collisions, three retries budgeted: the
        // registration succeeds on the third attempt.
        let h = handle(FaultPlan::new(3).fail(FaultSite::PageLock, 2));
        k.set_injector(Some(kernel_hook(&h)));
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable).with_retry(3);
        let mh = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(reg.snapshot().pin_retries, 2);
        assert!(
            reg.snapshot().backoff_ticks >= 2 + 4,
            "exponential backoff accounted"
        );
        assert_eq!(reg.snapshot().blocked, 0);
        reg.check_invariants(&k).unwrap();
        reg.deregister(&mut k, mh).unwrap();
    }

    #[test]
    fn kiobuf_falls_back_to_mlock_under_persistent_contention() {
        let (mut k, pid, a) = setup();
        k.touch_pages(pid, a, 4 * PAGE_SIZE, true).unwrap();
        // A frame held by foreign I/O for the whole registration: every
        // retry fails, the degradation chain pins via mlock instead.
        let busy = k.frame_of(pid, a).unwrap().unwrap();
        k.begin_page_io(busy);
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable)
            .with_retry(2)
            .with_fallback();
        let h = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(reg.snapshot().fallbacks, 1);
        assert_eq!(reg.snapshot().blocked, 1);
        assert_eq!(reg.snapshot().pin_retries, 2);
        assert_eq!(
            k.locked_bytes(pid).unwrap(),
            4 * PAGE_SIZE as u64,
            "fallback region is VM_LOCKED"
        );
        assert_eq!(reg.pinned_frames(), 0, "no pin-table pins for fallback");
        reg.check_invariants(&k).unwrap();
        assert!(k.end_page_io(busy), "foreign I/O lock untouched");
        // Token-driven teardown releases the mlock interval.
        reg.deregister(&mut k, h).unwrap();
        assert_eq!(k.locked_bytes(pid).unwrap(), 0);
        reg.check_invariants(&k).unwrap();
    }

    #[test]
    fn fallback_mixes_with_native_kiobuf_regions() {
        let (mut k, pid, a) = setup();
        k.touch_pages(pid, a, 8 * PAGE_SIZE, true).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable)
            .with_retry(1)
            .with_fallback();
        // First region pins normally through the kiobuf path.
        let h1 = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        // Second hits a persistently busy page → mlock fallback.
        let busy = k.frame_of(pid, a + 4 * PAGE_SIZE as u64).unwrap().unwrap();
        k.begin_page_io(busy);
        let h2 = reg
            .register(&mut k, pid, a + 4 * PAGE_SIZE as u64, 4 * PAGE_SIZE)
            .unwrap();
        k.end_page_io(busy);
        assert_eq!(
            reg.pinned_frames(),
            4,
            "only the kiobuf region is in the pin table"
        );
        reg.check_invariants(&k).unwrap();
        reg.deregister(&mut k, h2).unwrap();
        reg.deregister(&mut k, h1).unwrap();
        assert_eq!(reg.pinned_frames(), 0);
        assert_eq!(k.locked_bytes(pid).unwrap(), 0);
        reg.check_invariants(&k).unwrap();
    }

    #[test]
    fn ondemand_pins_on_access_and_survives_pressure_unpin() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::OnDemand);
        let h = reg.register(&mut k, pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(reg.snapshot().pages_pinned, 0);
        // Non-resident page: translate degrades, pin_on_access resolves.
        assert_eq!(reg.translate(h, 0), Err(RegError::WouldBlock));
        let f0 = reg.pin_on_access(&mut k, h, 0).unwrap();
        assert_eq!(reg.pin_on_access(&mut k, h, 0).unwrap(), f0, "ledger hit");
        assert_eq!(reg.translate(h, 100).unwrap(), (f0, 100));
        assert_eq!(reg.snapshot().pages_pinned, 1);
        assert_eq!(k.lazy_pin_count(f0), 1);
        reg.check_invariants(&k).unwrap();
        // Kernel-side dissolution (as the page stealer would do) reaches
        // the ledger through the drain.
        k.test_dissolve_lazy_pins(f0);
        let drained = reg.drain_lazy_invalidations(&mut k);
        assert_eq!(drained, vec![f0]);
        assert_eq!(reg.translate(h, 0), Err(RegError::WouldBlock));
        assert_eq!(reg.snapshot().pages_unpinned, 1);
        reg.check_invariants(&k).unwrap();
        // Re-pin, then teardown drains the ledger.
        let f1 = reg.pin_on_access(&mut k, h, 0).unwrap();
        reg.deregister(&mut k, h).unwrap();
        assert_eq!(k.lazy_pin_count(f1), 0);
        assert_eq!(reg.snapshot().pages_unpinned, 2);
        reg.check_invariants(&k).unwrap();
    }

    #[test]
    fn ondemand_write_traps_revalidate() {
        // Registration write-protects the span; a user write after a lazy
        // pin must not move the frame (sole owner revalidates in place).
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::OnDemand);
        let h = reg.register(&mut k, pid, a, 2 * PAGE_SIZE).unwrap();
        let f = reg.pin_on_access(&mut k, h, 0).unwrap();
        k.write_user(pid, a, b"still here").unwrap();
        assert_eq!(k.frame_of(pid, a).unwrap(), Some(f));
        assert!(reg.verify_consistency(&k, h).unwrap());
        reg.deregister(&mut k, h).unwrap();
    }

    #[test]
    fn ondemand_lazy_pin_fault_injection_degrades_typed() {
        use crate::fault::{handle, kernel_hook, FaultPlan, FaultSite};
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::OnDemand);
        let h = reg.register(&mut k, pid, a, PAGE_SIZE).unwrap();
        let fh = handle(FaultPlan::new(7).fail(FaultSite::LazyPin, 1));
        k.set_injector(Some(kernel_hook(&fh)));
        assert_eq!(
            reg.pin_on_access(&mut k, h, 0),
            Err(RegError::WouldBlock),
            "armed lazy-pin site degrades typed"
        );
        assert_eq!(reg.snapshot().blocked, 1);
        // Retry after the armed shot: succeeds, no pins leaked.
        reg.pin_on_access(&mut k, h, 0).unwrap();
        reg.check_invariants(&k).unwrap();
        reg.deregister(&mut k, h).unwrap();
        reg.check_invariants(&k).unwrap();
    }

    #[test]
    fn stats_track_activity() {
        let (mut k, pid, a) = setup();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let h = reg.register(&mut k, pid, a, 2 * PAGE_SIZE).unwrap();
        reg.deregister(&mut k, h).unwrap();
        assert_eq!(reg.snapshot().registrations, 1);
        assert_eq!(reg.snapshot().deregistrations, 1);
        assert_eq!(reg.snapshot().pages_pinned, 2);
        assert_eq!(reg.snapshot().pages_unpinned, 2);
    }
}
