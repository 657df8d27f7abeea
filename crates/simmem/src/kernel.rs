//! The simulated kernel: ties together physical memory, the page map, the
//! swap device and the process table, and exposes the syscall-level API the
//! rest of the workspace (the VIA kernel agent, the workloads) programs
//! against.

use std::collections::BTreeMap;

use crate::error::MmResult;
use crate::kiobuf::Kiobuf;
use crate::mm::AddressSpace;
use crate::page::{PageFlags, PageMap};
use crate::stats::{CounterCell, MemInfo, MmCounters};
use crate::vma::{VmArea, VmFlags};

/// A fault-injector hook: consulted with a site code, returns `true` to
/// force that site to fail (see [`crate::inject`]).
pub type Injector = Box<dyn FnMut(u32) -> bool + Send>;
use crate::{
    FrameId, KiobufId, MmError, MmStats, PageSpan, PhysMem, Pte, SwapDevice, VirtAddr, PAGE_MASK,
    PAGE_SIZE,
};

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// POSIX-capability subset relevant to the paper: `CAP_IPC_LOCK` gates
/// `mlock`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Capabilities {
    /// May the process lock memory? Root processes have this; ordinary user
    /// processes do not — the paper's main objection to the mlock approach.
    pub ipc_lock: bool,
}

impl Capabilities {
    pub fn root() -> Self {
        Capabilities { ipc_lock: true }
    }
}

/// A simulated process: its address space and credentials.
pub struct Process {
    pub pid: Pid,
    pub mm: AddressSpace,
    pub caps: Capabilities,
    /// `RLIMIT_MEMLOCK` in bytes (None = unlimited).
    pub rlimit_memlock: Option<u64>,
}

/// Boot-time parameters of the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Total physical frames.
    pub nframes: u32,
    /// Frames reserved for the kernel itself at boot (marked `PG_reserved`).
    pub reserved_frames: u32,
    /// Swap device capacity in slots.
    pub swap_slots: u32,
    /// Default `RLIMIT_MEMLOCK` for new processes, in bytes.
    pub default_rlimit_memlock: Option<u64>,
    /// Swap-cache semantics. `false` = Linux 2.2 behaviour (the paper's
    /// locktest target): an evicted page's frame is freed outright and
    /// swap-in allocates a fresh frame, so a refcount-pinned page is
    /// orphaned. `true` = Linux 2.4 behaviour: an evicted page whose
    /// reference count stays positive remains in the swap cache, and a
    /// refault re-maps the *same* frame — which is why the 2.4 raw-I/O
    /// path could afford a gap between `map_user_kiobuf` and
    /// `lock_kiobuf`. Default `false`.
    pub swap_cache: bool,
}

impl KernelConfig {
    /// A machine comfortable for unit tests: 256 frames (1 MiB), 512 swap
    /// slots.
    pub fn small() -> Self {
        KernelConfig {
            nframes: 256,
            reserved_frames: 8,
            swap_slots: 512,
            default_rlimit_memlock: None,
            swap_cache: false,
        }
    }

    /// A machine sized like the paper's test box scaled down: 4096 frames
    /// (16 MiB) with twice as much swap.
    pub fn medium() -> Self {
        KernelConfig {
            nframes: 4096,
            reserved_frames: 64,
            swap_slots: 8192,
            default_rlimit_memlock: None,
            swap_cache: false,
        }
    }

    /// A larger machine for the bandwidth experiments: 16384 frames (64 MiB).
    pub fn large() -> Self {
        KernelConfig {
            nframes: 16384,
            reserved_frames: 128,
            swap_slots: 32768,
            default_rlimit_memlock: None,
            swap_cache: false,
        }
    }
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig::medium()
    }
}

/// The simulated kernel.
pub struct Kernel {
    pub(crate) phys: PhysMem,
    pub(crate) pagemap: PageMap,
    pub(crate) free_list: Vec<FrameId>,
    pub(crate) swap: SwapDevice,
    pub(crate) procs: BTreeMap<Pid, Process>,
    /// The shared, reserved zero page used for read faults on anonymous
    /// memory (`empty_zero_page`).
    pub(crate) zero_frame: FrameId,
    pub(crate) kiobufs: BTreeMap<KiobufId, Kiobuf>,
    pub(crate) next_kiobuf: u64,
    pub(crate) next_pid: u32,
    /// Round-robin rotor for the stealer's process selection.
    pub(crate) swap_rotor: usize,
    /// The swap cache (2.4 semantics): slot → frame still holding the data.
    pub(crate) swap_cache: std::collections::HashMap<crate::SlotId, FrameId>,
    /// Pluggable deterministic fault injector (see [`crate::inject`]). The
    /// kernel consults it at named sites by code; `None` (the default) makes
    /// every site a single branch on a cold `Option`.
    pub(crate) injector: Option<Injector>,
    /// On-demand lazy-pin ledger: frame → number of lazy pins currently
    /// held (see [`Kernel::lazy_pin_page`]). Frames in this map carry
    /// `PG_locked` + `PG_ondemand`.
    pub(crate) lazy_pins: std::collections::HashMap<FrameId, u32>,
    /// Frames whose lazy pins the kernel dissolved (pressure, COW break,
    /// munmap, process exit). The device layer drains this queue with
    /// [`Kernel::take_lazy_invalidations`] and marks the matching TPT
    /// entries non-resident; the kernel cannot call upward into the NIC.
    pub(crate) lazy_invalidations: Vec<FrameId>,
    /// (pid, vpn) pairs whose lazy pin was dissolved; the next
    /// [`Kernel::lazy_pin_page`] of such a page counts as a *re*-pin.
    pub(crate) repin_pending: std::collections::HashSet<(Pid, crate::Vpn)>,
    pub stats: MmCounters,
    pub config: KernelConfig,
    /// Run the collect-then-scan reference stealer instead of the in-place
    /// walk (the differential test in `reclaim`).
    #[cfg(test)]
    pub(crate) oracle_stealer: bool,
    /// Run the per-page reference loop instead of the run walk (the
    /// differential in `gup_diff_tests`).
    #[cfg(test)]
    pub(crate) reference_walk: bool,
}

impl Kernel {
    /// Boot a machine.
    pub fn new(config: KernelConfig) -> Self {
        assert!(
            config.reserved_frames + 1 < config.nframes,
            "machine too small"
        );
        let phys = PhysMem::new(config.nframes);
        let pagemap = PageMap::new(config.nframes);
        // Mark the kernel's own frames reserved, exactly like mem_init().
        for i in 0..config.reserved_frames {
            let d = pagemap.get(FrameId(i));
            d.set_count(1);
            d.set_flag(PageFlags::RESERVED);
        }
        // The shared zero page is a reserved page too.
        let zero_frame = FrameId(config.reserved_frames);
        {
            let d = pagemap.get(zero_frame);
            d.set_count(1);
            d.set_flag(PageFlags::RESERVED);
        }
        let free_list = ((config.reserved_frames + 1)..config.nframes)
            .rev()
            .map(FrameId)
            .collect();
        Kernel {
            phys,
            pagemap,
            free_list,
            swap: SwapDevice::new(config.swap_slots),
            procs: BTreeMap::new(),
            zero_frame,
            kiobufs: BTreeMap::new(),
            next_kiobuf: 1,
            next_pid: 1,
            swap_rotor: 0,
            swap_cache: std::collections::HashMap::new(),
            injector: None,
            lazy_pins: std::collections::HashMap::new(),
            lazy_invalidations: Vec::new(),
            repin_pending: std::collections::HashSet::new(),
            stats: MmCounters::default(),
            config,
            #[cfg(test)]
            oracle_stealer: false,
            #[cfg(test)]
            reference_walk: false,
        }
    }

    // ------------------------------------------------------------------
    // Process management
    // ------------------------------------------------------------------

    /// Create a process with the given capabilities.
    pub fn spawn_process(&mut self, caps: Capabilities) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Process {
                pid,
                mm: AddressSpace::new(),
                caps,
                rlimit_memlock: self.config.default_rlimit_memlock,
            },
        );
        pid
    }

    /// Tear a process down, releasing frames and swap slots. Lazy
    /// (on-demand) pins on the dying process' frames are dissolved and
    /// queued for device invalidation — a crashed process must not leave
    /// pinned orphans behind.
    pub fn exit_process(&mut self, pid: Pid) -> MmResult<()> {
        let proc = self.procs.remove(&pid).ok_or(MmError::NoSuchProcess(pid))?;
        let ptes: Vec<(u64, Pte)> = proc.mm.ptes_in(0, u64::MAX).map(|(v, p)| (v, *p)).collect();
        for (_, pte) in ptes {
            match pte {
                Pte::Present { frame, .. } => {
                    self.dissolve_lazy_pins(frame);
                    self.put_frame(frame)
                }
                Pte::Swapped { slot } => self.drop_swap_slot(slot)?,
            }
        }
        self.repin_pending.retain(|&(p, _)| p != pid);
        Ok(())
    }

    pub(crate) fn process(&self, pid: Pid) -> MmResult<&Process> {
        self.procs.get(&pid).ok_or(MmError::NoSuchProcess(pid))
    }

    pub(crate) fn process_mut(&mut self, pid: Pid) -> MmResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(MmError::NoSuchProcess(pid))
    }

    /// All live pids (address order).
    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().copied().collect()
    }

    /// Capabilities accessors (the kernel agent uses these for the
    /// `cap_raise`/`cap_lower` trick the paper describes).
    pub fn capabilities(&self, pid: Pid) -> MmResult<Capabilities> {
        Ok(self.process(pid)?.caps)
    }

    pub fn set_capabilities(&mut self, pid: Pid, caps: Capabilities) -> MmResult<()> {
        self.process_mut(pid)?.caps = caps;
        Ok(())
    }

    /// Resident set size of a process, in pages.
    pub fn rss(&self, pid: Pid) -> MmResult<usize> {
        Ok(self.process(pid)?.mm.rss())
    }

    // ------------------------------------------------------------------
    // Mapping
    // ------------------------------------------------------------------

    /// `mmap(MAP_ANONYMOUS)`: create a zero-initialised mapping of `len`
    /// bytes and return its base address. Pages materialise on first touch.
    pub fn mmap_anon(&mut self, pid: Pid, len: usize, prot: u8) -> MmResult<VirtAddr> {
        if len == 0 {
            return Err(MmError::InvalidArgument("mmap of zero length"));
        }
        let flags = VmFlags {
            locked: false,
            read: prot & crate::prot::READ != 0,
            write: prot & crate::prot::WRITE != 0,
            dontfork: false,
        };
        let proc = self.process_mut(pid)?;
        // `len` is the caller's: rounded up and placed, it must still end
        // inside the address space.
        let start = proc
            .mm
            .find_free_range(len as u64)
            .ok_or(MmError::InvalidArgument("mmap wraps the address space"))?;
        let end = PageSpan::of(start, len)?.end();
        proc.mm.vmas.insert(VmArea { start, end, flags })?;
        Ok(start)
    }

    /// `munmap`: drop mappings in `[addr, addr+len)`, freeing frames and
    /// swap slots.
    pub fn munmap(&mut self, pid: Pid, addr: VirtAddr, len: usize) -> MmResult<()> {
        if addr & PAGE_MASK != 0 {
            return Err(MmError::InvalidArgument("unaligned munmap"));
        }
        let end = PageSpan::of(addr, len)?.end();
        let removed = {
            let proc = self.process_mut(pid)?;
            proc.mm.vmas.remove_range(addr, end)
        };
        for vma in removed {
            let vpns: Vec<u64> = {
                let proc = self.process(pid)?;
                proc.mm
                    .ptes_in(AddressSpace::vpn(vma.start), AddressSpace::vpn(vma.end))
                    .map(|(v, _)| v)
                    .collect()
            };
            for vpn in vpns {
                let pte = self.process_mut(pid)?.mm.clear_pte(vpn);
                match pte {
                    Some(Pte::Present { frame, .. }) => {
                        self.dissolve_lazy_pins(frame);
                        self.put_frame(frame)
                    }
                    Some(Pte::Swapped { slot }) => self.drop_swap_slot(slot)?,
                    None => {}
                }
            }
        }
        Ok(())
    }

    /// The prologue of the calls that change the VMAs of a range
    /// (`mprotect`, `madvise`, `mlock`): refuse a zero length (`what`
    /// says which call), a span that wraps, and a span some page of which
    /// no VMA maps (`SegFault`, as Linux's `ENOMEM`).
    pub(crate) fn mapped_span(
        &self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        what: &'static str,
    ) -> MmResult<PageSpan> {
        if len == 0 {
            return Err(MmError::InvalidArgument(what));
        }
        let span = PageSpan::of(addr, len)?;
        if !self.process(pid)?.mm.vmas.covered(span.base, span.end()) {
            return Err(MmError::SegFault { pid, addr });
        }
        Ok(span)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install (or clear) the deterministic fault injector. The closure is
    /// consulted at named sites (see [`crate::inject`]) and returns `true`
    /// to force that site to fail. Layers above the kernel reuse the same
    /// hook with their own site codes (`inject::UPPER_BASE` and up), so one
    /// seeded plan can drive the whole stack.
    pub fn set_injector(&mut self, injector: Option<Injector>) {
        self.injector = injector;
    }

    /// Consult the injector for `site`. `false` when no injector is
    /// installed — the disabled cost is one branch.
    #[inline]
    pub fn inject(&mut self, site: u32) -> bool {
        match self.injector.as_mut() {
            None => false,
            Some(f) => {
                let fire = f(site);
                if fire {
                    self.stats.faults_injected.bump();
                }
                fire
            }
        }
    }

    // ------------------------------------------------------------------
    // Frame allocation
    // ------------------------------------------------------------------

    /// `__get_free_page()`: pop a frame from the free list, reclaiming if
    /// necessary. The returned frame has `count == 1` and clean flags.
    pub(crate) fn get_free_frame(&mut self) -> MmResult<FrameId> {
        if self.inject(crate::inject::FRAME_ALLOC) {
            return Err(MmError::OutOfMemory);
        }
        loop {
            if let Some(frame) = self.free_list.pop() {
                let d = self.pagemap.get_mut(frame);
                debug_assert!(d.is_free(), "frame on free list with count != 0");
                d.set_count(1);
                d.reset_flags();
                d.rmap = None;
                return Ok(frame);
            }
            // Free list empty: page-stealer time.
            if !self.try_to_free_pages() {
                return Err(MmError::OutOfMemory);
            }
        }
    }

    /// `__free_page()` plus free-list maintenance: drop one reference; if the
    /// count reaches zero the frame returns to the free list (reserved frames
    /// never do).
    pub(crate) fn put_frame(&mut self, frame: FrameId) {
        let now_free = self
            .pagemap
            .put_page(frame)
            .expect("put_frame: refcount underflow");
        let d = self.pagemap.get_mut(frame);
        if now_free && !d.flags().contains(PageFlags::RESERVED) {
            // Leaving the swap cache: the written-out copy in the slot stays
            // authoritative (the PTE points there), only the frame-reuse
            // shortcut disappears.
            if let Some(slot) = d.swap_slot.take() {
                self.swap_cache.remove(&slot);
            }
            d.rmap = None;
            d.reset_flags();
            self.free_list.push(frame);
        }
    }

    /// Number of frames currently on the free list.
    pub fn free_frames(&self) -> usize {
        self.free_list.len()
    }

    /// Number of orphaned frames: `count > 0` but no process maps them and
    /// they are neither reserved nor kiobuf-pinned. Diagnostic for the
    /// locktest experiment.
    pub fn count_orphaned_frames(&self) -> usize {
        // A frame is accounted orphaned when the stealer unmapped it while
        // its refcount stayed positive; we track that via rmap clearing.
        let mut mapped: std::collections::HashSet<FrameId> = std::collections::HashSet::new();
        for proc in self.procs.values() {
            for (_, pte) in proc.mm.ptes_in(0, u64::MAX) {
                if let Some(f) = pte.frame() {
                    mapped.insert(f);
                }
            }
        }
        let mut pinned: std::collections::HashSet<FrameId> = std::collections::HashSet::new();
        for kb in self.kiobufs.values() {
            pinned.extend(kb.frames.iter().copied());
        }
        self.pagemap
            .iter()
            .filter(|(f, d)| {
                d.count() > 0
                    && !d.flags().contains(PageFlags::RESERVED)
                    && !mapped.contains(f)
                    && !pinned.contains(f)
            })
            .count()
    }

    // ------------------------------------------------------------------
    // User memory access (runs the fault path, like the CPU would)
    // ------------------------------------------------------------------

    /// Write `data` into the process' address space at `addr`, faulting pages
    /// in as needed and honouring protections.
    pub fn write_user(&mut self, pid: Pid, addr: VirtAddr, data: &[u8]) -> MmResult<()> {
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let in_page = (PAGE_SIZE - (a & PAGE_MASK) as usize).min(data.len() - off);
            let frame = self.fault_in(pid, a, true)?;
            let page_off = (a & PAGE_MASK) as usize;
            self.phys
                .write(frame, page_off, &data[off..off + in_page])?;
            let d = self.pagemap.get(frame);
            d.set_flag(PageFlags::ACCESSED);
            d.set_flag(PageFlags::DIRTY);
            off += in_page;
        }
        Ok(())
    }

    /// Read from the process' address space at `addr` into `out`.
    pub fn read_user(&mut self, pid: Pid, addr: VirtAddr, out: &mut [u8]) -> MmResult<()> {
        let mut off = 0usize;
        while off < out.len() {
            let a = addr + off as u64;
            let in_page = (PAGE_SIZE - (a & PAGE_MASK) as usize).min(out.len() - off);
            let frame = self.fault_in(pid, a, false)?;
            let page_off = (a & PAGE_MASK) as usize;
            self.phys
                .read(frame, page_off, &mut out[off..off + in_page])?;
            self.pagemap.get(frame).set_flag(PageFlags::ACCESSED);
            off += in_page;
        }
        Ok(())
    }

    /// Touch every page of `[addr, addr+len)` (write access if `write`),
    /// forcing them present. Step 1 of the paper's locktest ("fill with
    /// data ... be sure each virtual page maps a distinct physical page").
    pub fn touch_pages(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        write: bool,
    ) -> MmResult<()> {
        for a in PageSpan::of(addr, len)?.pages() {
            self.fault_in(pid, a, write)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Page-table inspection (kernel-internal; drivers that do this would
    // not be accepted upstream — which is the paper's point)
    // ------------------------------------------------------------------

    /// Write-protect the present PTEs of `[addr, addr+len)` — the
    /// protection-trap arm of on-demand registration. Registered spans go
    /// read-only so the next CPU write traps through `do_wp_page`, which
    /// either re-validates in place (sole owner keeps frame and pin) or
    /// COW-copies and dissolves the stale pin. Non-present pages need no
    /// marking: they already trap as not-present.
    pub fn write_protect_range(&mut self, pid: Pid, addr: VirtAddr, len: usize) -> MmResult<()> {
        let span = PageSpan::of(addr, len)?;
        let proc = self.process_mut(pid)?;
        for vpn in span.vpns() {
            if let Some(Pte::Present { writable, .. }) = proc.mm.pte_mut(vpn) {
                *writable = false;
            }
        }
        Ok(())
    }

    /// Is the VMA covering `addr` writable? (`SegFault` if unmapped.)
    pub fn vma_writable(&self, pid: Pid, addr: VirtAddr) -> MmResult<bool> {
        let proc = self.process(pid)?;
        proc.mm
            .vmas
            .find(addr)
            .map(|v| v.flags.write)
            .ok_or(MmError::SegFault { pid, addr })
    }

    /// Walk the page table: the frame currently backing `addr`, if present.
    pub fn frame_of(&self, pid: Pid, addr: VirtAddr) -> MmResult<Option<FrameId>> {
        let proc = self.process(pid)?;
        Ok(proc.mm.pte(AddressSpace::vpn(addr)).and_then(|p| p.frame()))
    }

    /// Physical frames for each page of `[addr, addr+len)`; `None` entries
    /// are non-present pages.
    pub fn frames_of_range(
        &self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> MmResult<Vec<Option<FrameId>>> {
        let span = PageSpan::of(addr, len)?;
        span.pages().map(|a| self.frame_of(pid, a)).collect()
    }

    /// Inspect a frame's page descriptor (diagnostics, tests).
    pub fn page_descriptor(&self, frame: FrameId) -> &crate::PageDescriptor {
        self.pagemap.get(frame)
    }

    /// The shared zero frame (tests want to assert against it).
    pub fn zero_frame(&self) -> FrameId {
        self.zero_frame
    }

    // ------------------------------------------------------------------
    // Device ("DMA") access: physical addressing, no page tables involved
    // ------------------------------------------------------------------

    /// A bus-master device writes `data` at `offset` within a physical frame.
    /// This is how the simulated NIC delivers data — through addresses it
    /// captured at registration time, whether or not they are still mapped.
    pub fn dma_write(&mut self, frame: FrameId, offset: usize, data: &[u8]) -> MmResult<()> {
        self.phys.write(frame, offset, data)
    }

    /// A bus-master device reads from a physical frame.
    pub fn dma_read(&self, frame: FrameId, offset: usize, out: &mut [u8]) -> MmResult<()> {
        self.phys.read(frame, offset, out)
    }

    /// Burst DMA write over a *physically contiguous* frame run: one device
    /// transaction for `data.len()` bytes starting at `offset` within
    /// `frame`, continuing through consecutive frames. The data-path run
    /// entry point: the NIC issues one of these per contiguous run instead
    /// of one [`Kernel::dma_write`] per page.
    pub fn dma_write_run(&mut self, frame: FrameId, offset: usize, data: &[u8]) -> MmResult<()> {
        self.phys.write_run(frame, offset, data)
    }

    /// Burst DMA read over a physically contiguous frame run (see
    /// [`Kernel::dma_write_run`]).
    pub fn dma_read_run(&self, frame: FrameId, offset: usize, out: &mut [u8]) -> MmResult<()> {
        self.phys.read_run(frame, offset, out)
    }

    /// Burst DMA read of a `len`-byte run (see [`Kernel::dma_read_run`])
    /// appended to `out`: the gather into a payload buffer that is not
    /// filled first, so its bytes are written once. A refused run appends
    /// nothing.
    pub fn dma_read_run_append(
        &self,
        frame: FrameId,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> MmResult<()> {
        out.extend_from_slice(self.phys.run(frame, offset, len)?);
        Ok(())
    }

    /// Raw page-descriptor mutation used by the "risky" Giganet-style
    /// strategy that sets `PG_locked`/`PG_reserved` behind the VM's back.
    /// Flags are per-frame atomics, so a shared borrow suffices.
    pub fn raw_set_page_flag(&self, frame: FrameId, bit: u8) {
        self.pagemap.get(frame).set_flag(bit);
    }

    /// Raw flag clear (see [`Kernel::raw_set_page_flag`]).
    pub fn raw_clear_page_flag(&self, frame: FrameId, bit: u8) {
        self.pagemap.get(frame).clear_flag(bit);
    }

    /// Raw refcount increment — `get_page` as Berkeley-VIA / M-VIA do it.
    pub fn raw_get_page(&self, frame: FrameId) {
        self.pagemap.get_page(frame);
    }

    /// Raw refcount decrement, returning whether the frame became free.
    pub fn raw_put_page(&mut self, frame: FrameId) -> MmResult<()> {
        self.put_frame(frame);
        Ok(())
    }

    /// Simulate the kernel holding a page's I/O lock (in-flight disk I/O),
    /// for failure-injection tests of the "blindly set PG_locked" strategy.
    pub fn begin_page_io(&self, frame: FrameId) {
        self.pagemap.get(frame).set_flag(PageFlags::LOCKED);
    }

    /// Complete simulated I/O: expects the lock bit still held; returns
    /// whether it was (the Giganet-style strategy may have clobbered it).
    pub fn end_page_io(&self, frame: FrameId) -> bool {
        self.pagemap.get(frame).clear_flag(PageFlags::LOCKED)
    }

    // ------------------------------------------------------------------
    // On-demand ("lazy") pinning — the protection-trap registration mode
    //
    // The inversion of the paper's eager contract: a registered span stays
    // unpinned until the device actually touches it. The fault-handler
    // hook below pins on first access; the page stealer may dissolve cold
    // pins under pressure (see `reclaim`), and a COW break dissolves the
    // pin on the old frame (see `fault`). Every dissolution queues the
    // frame on an invalidation list the device layer drains before
    // translating — the kernel never calls upward.
    // ------------------------------------------------------------------

    /// The protection-trap fault handler: lazily pin the page containing
    /// `addr`. Faults the page in (write intent iff the VMA is writable,
    /// breaking COW so the device never shares a frame with a fork child),
    /// takes one page reference per pin, and on the first pin takes
    /// `PG_locked` + `PG_ondemand` so the stealer treats the frame like a
    /// reliable pin until it decides to dissolve it. Fails `PageBusy` when
    /// a foreign I/O already holds the page lock.
    pub fn lazy_pin_page(&mut self, pid: Pid, addr: VirtAddr) -> MmResult<FrameId> {
        let writable = self.vma_writable(pid, addr)?;
        let frame = self.fault_in(pid, addr, writable)?;
        let n = self.lazy_pins.get(&frame).copied().unwrap_or(0);
        if n == 0 {
            if self.inject(crate::inject::PAGE_LOCK) || !self.pagemap.get(frame).try_lock() {
                return Err(MmError::PageBusy(frame));
            }
            self.pagemap.get(frame).set_flag(PageFlags::ONDEMAND);
        }
        self.pagemap.get_page(frame);
        self.lazy_pins.insert(frame, n + 1);
        self.stats.protection_faults.bump();
        if self.repin_pending.remove(&(pid, AddressSpace::vpn(addr))) {
            self.stats.repins.bump();
        }
        Ok(frame)
    }

    /// Drop one lazy pin taken by [`Kernel::lazy_pin_page`]. The last pin
    /// clears `PG_locked`/`PG_ondemand`; each drop releases one page
    /// reference.
    pub fn lazy_unpin_frame(&mut self, frame: FrameId) -> MmResult<()> {
        let n = self.lazy_pins.get(&frame).copied().unwrap_or(0);
        if n == 0 {
            return Err(MmError::InvalidArgument("lazy_unpin of unpinned frame"));
        }
        if n == 1 {
            self.lazy_pins.remove(&frame);
            let d = self.pagemap.get(frame);
            d.clear_flag(PageFlags::ONDEMAND);
            d.clear_flag(PageFlags::LOCKED);
        } else {
            self.lazy_pins.insert(frame, n - 1);
        }
        self.put_frame(frame);
        Ok(())
    }

    /// Number of lazy pins currently held on `frame`.
    pub fn lazy_pin_count(&self, frame: FrameId) -> u32 {
        self.lazy_pins.get(&frame).copied().unwrap_or(0)
    }

    /// Every frame with at least one lazy pin, with its pin count, in
    /// frame order — the registry's invariant audit compares this against
    /// its ledger.
    pub fn lazy_pinned_frames(&self) -> Vec<(FrameId, u32)> {
        let mut v: Vec<(FrameId, u32)> = self.lazy_pins.iter().map(|(&f, &n)| (f, n)).collect();
        v.sort_by_key(|&(f, _)| f.0);
        v
    }

    /// Drain the queue of frames whose lazy pins the kernel dissolved.
    /// The device layer calls this before translating and marks matching
    /// TPT entries non-resident (bumping its generation counter).
    pub fn take_lazy_invalidations(&mut self) -> Vec<FrameId> {
        std::mem::take(&mut self.lazy_invalidations)
    }

    /// Peek at the not-yet-drained invalidation queue (invariant checks
    /// run through `&self` and must tolerate in-flight dissolutions).
    pub fn pending_lazy_invalidations(&self) -> &[FrameId] {
        &self.lazy_invalidations
    }

    /// Test-only handle on [`Kernel::dissolve_lazy_pins`] — lets upper
    /// layers exercise the kernel-initiated unpin path without arranging
    /// real memory pressure.
    #[doc(hidden)]
    pub fn test_dissolve_lazy_pins(&mut self, frame: FrameId) -> u32 {
        self.dissolve_lazy_pins(frame)
    }

    /// Dissolve every lazy pin on `frame`: drop the lazy references,
    /// clear `PG_locked`/`PG_ondemand` and queue a device-visible
    /// invalidation. Returns the number of pins dissolved (0 = the frame
    /// was not lazily pinned). Callers record `(pid, vpn)` in
    /// `repin_pending` themselves when the page remains reachable.
    pub(crate) fn dissolve_lazy_pins(&mut self, frame: FrameId) -> u32 {
        let n = match self.lazy_pins.remove(&frame) {
            Some(n) => n,
            None => return 0,
        };
        let d = self.pagemap.get(frame);
        d.clear_flag(PageFlags::ONDEMAND);
        d.clear_flag(PageFlags::LOCKED);
        for _ in 0..n {
            self.put_frame(frame);
        }
        self.lazy_invalidations.push(frame);
        n
    }

    /// Free a swap slot backing a torn-down PTE, purging any swap-cache
    /// entry so a recycled slot can never alias a stale frame.
    pub(crate) fn drop_swap_slot(&mut self, slot: crate::SlotId) -> MmResult<()> {
        if let Some(frame) = self.swap_cache.remove(&slot) {
            self.pagemap.get_mut(frame).swap_slot = None;
        }
        self.swap.free_slot(slot)
    }

    /// Number of frames currently held in the swap cache.
    pub fn swap_cache_len(&self) -> usize {
        self.swap_cache.len()
    }

    /// The kernel census: the derived structures against what they are
    /// derived from. Each address space's present index equals a recount
    /// of its page table; the swap device accounts for every slot; every
    /// swapped PTE names an occupied slot; every swap-cache entry names a
    /// live frame that names the slot back. `&self`, so it runs from every
    /// layer's invariant audit.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.swap.check_invariants()?;
        for proc in self.procs.values() {
            let pid = proc.pid.0;
            proc.mm
                .check_invariants()
                .map_err(|e| format!("pid {pid}: {e}"))?;
            for (vpn, pte) in proc.mm.ptes_in(0, u64::MAX) {
                if let Pte::Swapped { slot } = pte {
                    if self.swap.peek(*slot).is_none() {
                        return Err(format!(
                            "pid {pid} page {vpn:#x} is swapped to empty slot {}",
                            slot.0
                        ));
                    }
                }
            }
        }
        for (&slot, &frame) in &self.swap_cache {
            let d = self.pagemap.get(frame);
            if d.count() == 0 || d.swap_slot != Some(slot) {
                return Err(format!(
                    "swap-cache entry slot {} -> frame {} is stale (count {}, frame's slot {:?})",
                    slot.0,
                    frame.0,
                    d.count(),
                    d.swap_slot
                ));
            }
        }
        Ok(())
    }

    /// Coherent value snapshot of the live atomic counters — the reporting
    /// accessor; diff two snapshots with [`MmStats::since`].
    pub fn mm_stats(&self) -> MmStats {
        self.stats.snapshot()
    }

    /// A /proc/meminfo-style snapshot for experiment reports.
    pub fn meminfo(&self) -> MemInfo {
        let mut resident = 0usize;
        let mut swapped = 0usize;
        for p in self.procs.values() {
            resident += p.mm.rss();
            swapped += p.mm.swapped();
        }
        MemInfo {
            total_frames: self.config.nframes as usize,
            free_frames: self.free_list.len(),
            resident_pages: resident,
            swapped_pages: swapped,
            orphaned_frames: self.count_orphaned_frames(),
            swap_cache_frames: self.swap_cache.len(),
        }
    }

    /// Swap-device statistics.
    pub fn swap_stats(&self) -> (usize, usize, u64, u64) {
        (
            self.swap.used_slots(),
            self.swap.capacity(),
            self.swap.writes,
            self.swap.reads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prot;

    #[test]
    fn boot_layout() {
        let k = Kernel::new(KernelConfig::small());
        assert_eq!(
            k.free_frames(),
            (256 - 8 - 1) as usize,
            "reserved + zero frame off the free list"
        );
        assert!(k
            .page_descriptor(FrameId(0))
            .flags()
            .contains(PageFlags::RESERVED));
        assert!(k
            .page_descriptor(k.zero_frame())
            .flags()
            .contains(PageFlags::RESERVED));
    }

    #[test]
    fn mmap_write_read() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 3 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let msg = b"the quick brown fox";
        k.write_user(pid, a + 100, msg).unwrap();
        let mut out = vec![0u8; msg.len()];
        k.read_user(pid, a + 100, &mut out).unwrap();
        assert_eq!(&out, msg);
    }

    #[test]
    fn cross_page_write() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 3 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let data: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i % 251) as u8).collect();
        k.write_user(pid, a + 4000, &data).unwrap();
        let mut out = vec![0u8; data.len()];
        k.read_user(pid, a + 4000, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn dma_read_run_append_extends_and_refuses_whole() {
        let mut k = Kernel::new(KernelConfig::small());
        k.dma_write_run(FrameId(9), PAGE_SIZE - 3, b"abcdef")
            .unwrap();
        let mut out = b"head:".to_vec();
        k.dma_read_run_append(FrameId(9), PAGE_SIZE - 3, 6, &mut out)
            .unwrap();
        assert_eq!(out, b"head:abcdef");
        let past = FrameId(KernelConfig::small().nframes);
        assert!(k.dma_read_run_append(past, 0, 1, &mut out).is_err());
        assert!(k
            .dma_read_run_append(FrameId(9), 0, usize::MAX, &mut out)
            .is_err());
        assert_eq!(out, b"head:abcdef", "a refused run appends nothing");
    }

    #[test]
    fn segfault_outside_mapping() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let r = k.write_user(pid, 0xdead_0000, b"x");
        assert!(matches!(r, Err(MmError::SegFault { .. })));
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k.mmap_anon(pid, PAGE_SIZE, prot::READ).unwrap();
        let mut out = [0u8; 4];
        k.read_user(pid, a, &mut out).unwrap();
        assert!(matches!(
            k.write_user(pid, a, b"x"),
            Err(MmError::ProtFault { .. })
        ));
    }

    #[test]
    fn munmap_releases_frames() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let free0 = k.free_frames();
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 4 * PAGE_SIZE, true).unwrap();
        assert_eq!(k.free_frames(), free0 - 4);
        k.munmap(pid, a, 4 * PAGE_SIZE).unwrap();
        assert_eq!(k.free_frames(), free0);
    }

    #[test]
    fn wrapping_ranges_are_refused_typed() {
        // Ranges whose page-aligned end does not fit the address space used
        // to panic in debug builds and, wrapped, unmap nothing (or trip
        // `BTreeMap::range`) in release builds. Run under both profiles.
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 2 * PAGE_SIZE, true).unwrap();
        let top = 0xFFFF_FFFF_FFFF_F000u64;
        for (addr, len) in [
            (top, 2 * PAGE_SIZE),
            (top, PAGE_SIZE + 1),
            (a, usize::MAX),
            (a, usize::MAX - 100),
            (0, usize::MAX),
        ] {
            assert!(
                matches!(k.munmap(pid, addr, len), Err(MmError::InvalidArgument(_))),
                "munmap({addr:#x}, {len:#x})"
            );
        }
        for len in [usize::MAX, usize::MAX - 100, usize::MAX - PAGE_SIZE + 1] {
            assert!(
                matches!(
                    k.mmap_anon(pid, len, prot::READ),
                    Err(MmError::InvalidArgument(_))
                ),
                "mmap_anon({len:#x})"
            );
        }
        // Nothing was unmapped or mapped along the way, and the highest
        // range whose end is still an address is an ordinary (empty) one.
        assert_eq!(k.rss(pid).unwrap(), 2);
        assert_eq!(k.process(pid).unwrap().mm.vmas.count(), 1);
        k.munmap(pid, top - PAGE_SIZE as u64, PAGE_SIZE).unwrap();
        k.munmap(pid, a, 2 * PAGE_SIZE).unwrap();
        assert_eq!(k.rss(pid).unwrap(), 0);
        k.check_invariants().unwrap();
    }

    #[test]
    fn exit_releases_everything() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let free0 = k.free_frames();
        let a = k
            .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 8 * PAGE_SIZE, true).unwrap();
        k.exit_process(pid).unwrap();
        assert_eq!(k.free_frames(), free0);
        assert!(k.rss(pid).is_err());
    }

    #[test]
    fn distinct_frames_after_write_touch() {
        // Locktest step 1: writing every page yields pairwise-distinct frames.
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 16 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 16 * PAGE_SIZE, true).unwrap();
        let frames = k.frames_of_range(pid, a, 16 * PAGE_SIZE).unwrap();
        let mut set = std::collections::HashSet::new();
        for f in frames {
            assert!(set.insert(f.expect("present")));
        }
    }

    #[test]
    fn meminfo_snapshot_accounts() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 4 * PAGE_SIZE, true).unwrap();
        let mi = k.meminfo();
        assert_eq!(mi.total_frames, 256);
        assert_eq!(mi.resident_pages, 4);
        assert_eq!(mi.swapped_pages, 0);
        assert_eq!(mi.orphaned_frames, 0);
        assert_eq!(
            mi.free_frames + 4 + 9,
            256,
            "free + resident + reserved(8+zero)"
        );
    }

    #[test]
    fn lazy_pin_lifecycle() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let f = k.lazy_pin_page(pid, a).unwrap();
        assert_eq!(k.lazy_pin_count(f), 1);
        let d = k.page_descriptor(f);
        assert!(d.flags().contains(PageFlags::LOCKED));
        assert!(d.flags().contains(PageFlags::ONDEMAND));
        assert_eq!(d.count(), 2, "mapping + one lazy pin");
        // A second pin on the same page nests.
        assert_eq!(k.lazy_pin_page(pid, a).unwrap(), f);
        assert_eq!(k.lazy_pin_count(f), 2);
        k.lazy_unpin_frame(f).unwrap();
        assert!(k.page_descriptor(f).flags().contains(PageFlags::LOCKED));
        k.lazy_unpin_frame(f).unwrap();
        let d = k.page_descriptor(f);
        assert!(!d.flags().contains(PageFlags::LOCKED));
        assert!(!d.flags().contains(PageFlags::ONDEMAND));
        assert_eq!(d.count(), 1, "only the mapping reference remains");
        assert!(k.lazy_unpin_frame(f).is_err(), "unpin underflow is typed");
        assert_eq!(k.mm_stats().protection_faults, 2);
        assert_eq!(k.mm_stats().repins, 0);
    }

    #[test]
    fn lazy_pin_refuses_foreign_page_lock() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.write_user(pid, a, b"x").unwrap();
        let f = k.frame_of(pid, a).unwrap().unwrap();
        k.begin_page_io(f);
        assert!(matches!(k.lazy_pin_page(pid, a), Err(MmError::PageBusy(_))));
        k.end_page_io(f);
        assert!(k.lazy_pin_page(pid, a).is_ok());
    }

    #[test]
    fn exit_dissolves_lazy_pins() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let free0 = k.free_frames();
        let a = k
            .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let f = k.lazy_pin_page(pid, a).unwrap();
        k.exit_process(pid).unwrap();
        assert_eq!(k.free_frames(), free0, "no leaked frames");
        assert_eq!(k.lazy_pin_count(f), 0);
        assert_eq!(k.take_lazy_invalidations(), vec![f]);
        assert_eq!(k.count_orphaned_frames(), 0);
    }

    #[test]
    fn read_touch_maps_zero_page() {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        k.touch_pages(pid, a, 4 * PAGE_SIZE, false).unwrap();
        for f in k.frames_of_range(pid, a, 4 * PAGE_SIZE).unwrap() {
            assert_eq!(f, Some(k.zero_frame()), "read faults map the zero page");
        }
    }
}
