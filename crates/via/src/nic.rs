//! The NIC and its host node: descriptor processing, DMA through the TPT,
//! and the kernel agent's registration trap.
//!
//! All data movement uses [`simmem::Kernel::dma_read`] /
//! [`simmem::Kernel::dma_write`] with the **frame numbers stored in the
//! TPT** — the NIC never consults page tables. A stale TPT (unreliable
//! pinning + memory pressure) therefore reads/writes orphaned frames,
//! invisible to the process, with no crash: precisely the failure mode the
//! paper's locktest observes ("the first page still contained its original
//! value").

use std::iter::once;

use simmem::{Kernel, Pid, VirtAddr, PAGE_SIZE};
use vialock::{impl_since, FaultHandle, FaultSite, MemoryRegistry, StrategyKind};

use crate::descriptor::{DataSeg, DescOp, DescStatus, Descriptor};
use crate::error::{ViaError, ViaResult};
use crate::tpt::{Access, DmaRun, MemId, ProtectionTag, Tpt};
use crate::vi::{Completion, Reliability, ViId, ViState, VirtualInterface};

/// Default TPT capacity in pages (Giganet's cLAN shipped with a 1 Mi-entry
/// table; we default far smaller so capacity effects are testable).
pub const DEFAULT_TPT_PAGES: usize = 4096;

/// NIC counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct NicStats {
    pub sends: u64,
    pub recvs: u64,
    pub rdma_writes: u64,
    pub rdma_reads: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Messages dropped for lack of a receive descriptor.
    pub dropped: u64,
    /// Accesses refused by protection checks.
    pub protection_errors: u64,
    /// Data-path translations served from a VI's mini-TLB.
    pub tlb_hits: u64,
    /// Data-path translations that walked the TPT directory.
    pub tlb_misses: u64,
    /// DMA burst operations issued (one per physically contiguous run).
    pub dma_ops: u64,
    /// Payload buffers recycled from the packet pool (zero-alloc path).
    pub pool_recycled: u64,
    /// Payload buffers that needed a fresh heap allocation.
    pub payload_allocs: u64,
    /// Packets the (injected) wire dropped.
    pub wire_drops: u64,
    /// Packets the (injected) wire duplicated.
    pub wire_dups: u64,
    /// Packets the (injected) wire delayed past later traffic.
    pub wire_delays: u64,
    /// Completions lost to a full (or fault-injected) completion queue.
    pub cq_overruns: u64,
    /// Descriptors completed with an error status instead of `Done`.
    pub desc_errors: u64,
    /// Atomic CAS descriptors issued from this node (requester side).
    pub atomic_cas: u64,
    /// Target-side CAS executions whose compare matched (swap applied).
    pub cas_applied: u64,
    /// On-demand pages the kernel agent repinned after the NIC faulted on
    /// a non-resident TPT entry.
    pub repins: u64,
    /// Repin attempts that failed (pin refused under pressure or swap
    /// exhaustion); the affected descriptor degraded with
    /// [`DescStatus::RepinFailed`].
    pub repin_failures: u64,
    /// TPT entries marked non-resident by draining the kernel's lazy-unpin
    /// queue (the pressure path's NIC-side echo).
    pub tpt_invalidations: u64,
}

impl_since!(NicStats {
    sends,
    recvs,
    rdma_writes,
    rdma_reads,
    bytes_tx,
    bytes_rx,
    dropped,
    protection_errors,
    tlb_hits,
    tlb_misses,
    dma_ops,
    pool_recycled,
    payload_allocs,
    wire_drops,
    wire_dups,
    wire_delays,
    cq_overruns,
    desc_errors,
    atomic_cas,
    cas_applied,
    repins,
    repin_failures,
    tpt_invalidations,
});

/// Recycling free list for packet payload buffers. Buffers keep their
/// capacity across uses, so a steady-state exchange allocates nothing per
/// message: `take` pops a buffer and empties it, the caller appends the
/// payload, `put` returns the buffer.
#[derive(Debug)]
pub struct PacketPool {
    free: Vec<Vec<u8>>,
    max_free: usize,
    /// Buffers handed out ([`PacketPool::take`] with `len > 0`).
    takes: u64,
    /// Buffers returned (capacity > 0; counted even when the free list is
    /// full and the buffer is dropped).
    puts: u64,
}

impl Default for PacketPool {
    fn default() -> Self {
        PacketPool {
            free: Vec::new(),
            max_free: 64,
            takes: 0,
            puts: 0,
        }
    }
}

impl PacketPool {
    /// An *empty* buffer with room for `len` bytes, recycled when
    /// possible. The caller appends the payload, so every byte is written
    /// once and none is left from the buffer's last use. Zero-length
    /// requests get an unaccounted dummy (capacity 0) so the take/put
    /// ledger only tracks real buffers.
    fn take(&mut self, len: usize, stats: &mut NicStats) -> Vec<u8> {
        if len == 0 {
            return Vec::new();
        }
        self.takes += 1;
        match self.free.pop() {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    stats.pool_recycled += 1;
                } else {
                    stats.payload_allocs += 1;
                }
                buf.clear();
                buf.reserve(len);
                buf
            }
            None => {
                stats.payload_allocs += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Return a payload buffer to the free list (bounded; excess buffers
    /// are dropped but still accounted; zero-capacity dummies are ignored).
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        self.puts += 1;
        if self.free.len() < self.max_free {
            self.free.push(buf);
        }
    }

    /// A pool-accounted copy of `data` — used when the faulty wire
    /// duplicates a packet, so the duplicate's buffer balances the ledger
    /// when the receiver returns it.
    pub(crate) fn dup_payload(&mut self, data: &[u8], stats: &mut NicStats) -> Vec<u8> {
        let mut buf = self.take(data.len(), stats);
        buf.extend_from_slice(data);
        buf
    }

    /// Buffers currently on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }

    /// Buffers taken minus buffers returned: with no packets in flight this
    /// is zero for the whole fabric (summed over nodes — buffers migrate
    /// from the sender's pool to the receiver's).
    pub fn outstanding(&self) -> i64 {
        self.takes as i64 - self.puts as i64
    }
}

/// A packet in flight on the fabric.
#[derive(Debug)]
pub struct Packet {
    pub src_node: usize,
    pub dst_node: usize,
    pub dst_vi: ViId,
    pub kind: PacketKind,
    pub payload: Vec<u8>,
    pub imm: Option<u32>,
}

/// What kind of transfer a packet carries.
#[derive(Debug)]
pub enum PacketKind {
    /// Two-sided send: matched against the peer's receive queue.
    Send,
    /// One-sided RDMA write: the target names its own registered memory.
    RdmaWrite {
        remote_mem: MemId,
        remote_addr: VirtAddr,
    },
    /// RDMA-read request: the target gathers `len` bytes at
    /// `(remote_mem, remote_addr)` and answers with a
    /// [`PacketKind::Response`].
    RdmaReadReq {
        remote_mem: MemId,
        remote_addr: VirtAddr,
        len: usize,
        /// VI at the requester to route the response back to.
        reply_vi: ViId,
    },
    /// Atomic compare-and-swap request on an aligned u64 at
    /// `(remote_mem, remote_addr)`. Payload: compare(8) ‖ swap(8), LE.
    /// The target executes the read-compare-conditional-write indivisibly
    /// (its service thread is the only writer of its memory) and answers
    /// with a [`PacketKind::Response`].
    AtomicCasReq {
        remote_mem: MemId,
        remote_addr: VirtAddr,
        /// VI at the requester to route the response back to.
        reply_vi: ViId,
    },
    /// The target's answer to an RDMA read or a CAS: it completes the
    /// oldest parked descriptor of the destination VI, under that
    /// descriptor's own op. On `ok` the payload carries the read's bytes or
    /// the CAS's old value; on a refusal it is empty and the descriptor
    /// completes with `ProtectionError`, so a requester never waits on an
    /// answer that will not come, and the next answer on the VI completes
    /// the next descriptor.
    Response { ok: bool },
}

/// The NIC: TPT, VIs and counters.
pub struct Nic {
    pub tpt: Tpt,
    /// Dense VI table indexed by `ViId.0`: ids are handed out sequentially
    /// and a VI is never removed, so the table order is the id order.
    vis: Vec<VirtualInterface>,
    pub stats: NicStats,
}

impl Nic {
    pub fn new(tpt_pages: usize) -> Self {
        Nic {
            tpt: Tpt::new(tpt_pages),
            vis: Vec::new(),
            stats: NicStats::default(),
        }
    }

    /// `VipCreateVi`: allocate a VI bound to `pid` with protection `tag`.
    pub fn create_vi(&mut self, pid: Pid, tag: ProtectionTag) -> ViId {
        let id = ViId(self.vis.len() as u32);
        self.vis.push(VirtualInterface::new(id, pid, tag));
        id
    }

    pub fn vi(&self, id: ViId) -> ViaResult<&VirtualInterface> {
        self.vis.get(id.0 as usize).ok_or(ViaError::BadId("vi"))
    }

    pub fn vi_mut(&mut self, id: ViId) -> ViaResult<&mut VirtualInterface> {
        self.vis.get_mut(id.0 as usize).ok_or(ViaError::BadId("vi"))
    }

    /// `VipPostSend` / `VipPostRecv`: queue a descriptor on `vi`'s send
    /// (posting is ringing the doorbell) or receive work queue. A VI in
    /// [`ViState::Error`] refuses it.
    pub fn post(&mut self, vi: ViId, desc: Descriptor, send: bool) -> ViaResult<()> {
        let v = self.vi_mut(vi)?;
        if v.state == ViState::Error {
            return Err(ViaError::Disconnected);
        }
        if send {
            v.send_q.push_back(desc);
        } else {
            v.recv_q.push_back(desc);
        }
        Ok(())
    }

    /// One end of a connect: point the idle `vi` at `peer`. The only
    /// transition into [`ViState::Connected`].
    pub fn set_peer(&mut self, vi: ViId, peer: (usize, ViId)) -> ViaResult<()> {
        let v = self.vi_mut(vi)?;
        if v.state != ViState::Idle {
            return Err(ViaError::BadState("connect on non-idle VI"));
        }
        v.peer = Some(peer);
        v.state = ViState::Connected;
        Ok(())
    }

    /// Undo [`Nic::set_peer`] on the end of a connect whose other end
    /// refused.
    pub fn clear_peer(&mut self, vi: ViId) -> ViaResult<()> {
        let v = self.vi_mut(vi)?;
        v.peer = None;
        v.state = ViState::Idle;
        Ok(())
    }

    /// Number of VIs. Their ids are exactly `ViId(0) .. ViId(vi_count)`,
    /// which is how the pumps walk the table in place.
    pub fn vi_count(&self) -> usize {
        self.vis.len()
    }

    /// The VI table, in id order.
    pub(crate) fn vis(&self) -> &[VirtualInterface] {
        &self.vis
    }

    /// Resolve a span into contiguous-frame DMA runs through `vi_id`'s
    /// mini-TLB, charging the hit/miss counters. The VI's protection tag
    /// is checked against the region exactly as in per-page translation.
    pub fn translate_range(
        &mut self,
        vi_id: ViId,
        mem: MemId,
        addr: VirtAddr,
        len: usize,
        access: Access,
        out: &mut Vec<DmaRun>,
    ) -> ViaResult<()> {
        let vi = self
            .vis
            .get_mut(vi_id.0 as usize)
            .ok_or(ViaError::BadId("vi"))?;
        let hit = self
            .tpt
            .translate_range_tlb(&mut vi.tlb, mem, addr, len, vi.tag, access, out)?;
        if hit {
            self.stats.tlb_hits += 1;
        } else {
            self.stats.tlb_misses += 1;
        }
        Ok(())
    }
}

/// One cluster node: a simulated kernel, its NIC and the kernel agent's
/// registration front-end.
pub struct Node {
    pub kernel: Kernel,
    pub nic: Nic,
    pub registry: MemoryRegistry,
    /// Recycled payload buffers for outgoing packets; incoming payloads are
    /// returned here after scatter, so a steady exchange is allocation-free.
    pub pool: PacketPool,
    /// Scratch run list [`Node::walk`] reuses across accesses (no
    /// per-message allocation once it reaches its high-water mark).
    run_scratch: Vec<DmaRun>,
}

/// Bounded pin retries the node's kernel agent attempts on a `WouldBlock`
/// before the registration path degrades or fails.
const NODE_PIN_RETRIES: u32 = 3;

/// Whose view of the TPT a span is translated under.
#[derive(Clone, Copy)]
enum Requester {
    /// A VI: its protection tag, through its mini-TLB (hits and misses are
    /// counted).
    Vi(ViId),
    /// SCI PIO has no VI: the exported region's own tag, straight from the
    /// region directory.
    Pio(ProtectionTag),
}

impl Node {
    pub fn new(config: simmem::KernelConfig, strategy: StrategyKind, tpt_pages: usize) -> Self {
        // The node-level kernel agent registers with bounded retry and, for
        // the kiobuf strategy, the mlock degradation chain; the raw
        // `MemoryRegistry` default (fail fast) stays available for the
        // strategy-comparison experiments.
        let mut registry = MemoryRegistry::new(strategy).with_retry(NODE_PIN_RETRIES);
        if strategy == StrategyKind::KiobufReliable {
            registry = registry.with_fallback();
        }
        Node {
            kernel: Kernel::new(config),
            nic: Nic::new(tpt_pages),
            registry,
            pool: PacketPool::default(),
            run_scratch: Vec::new(),
        }
    }

    /// Route every named fault site of this node — kernel, NIC and wire —
    /// through the shared seeded plan.
    pub fn install_fault_plan(&mut self, plan: &FaultHandle) {
        self.kernel
            .set_injector(Some(vialock::fault::kernel_hook(plan)));
    }

    /// Consult the fault plan (if any) for a VIA-layer site.
    #[inline]
    pub(crate) fn inject(&mut self, site: FaultSite) -> bool {
        self.kernel.inject(site.code())
    }

    /// Push a completion onto a VI's CQ, modelling completion-queue
    /// overrun: on a full (or fault-injected) CQ the completion is lost,
    /// the VI is broken and [`ViaError::CqOverrun`] is returned.
    fn push_completion(&mut self, vi_id: ViId, c: Completion) -> ViaResult<()> {
        let forced = self.inject(FaultSite::CqOverrun);
        if c.status.is_error() {
            self.nic.stats.desc_errors += 1;
        }
        let vi = self.nic.vi_mut(vi_id)?;
        if forced || !vi.push_completion(c) {
            vi.state = ViState::Error;
            self.nic.stats.cq_overruns += 1;
            return Err(ViaError::CqOverrun);
        }
        Ok(())
    }

    /// Receive-side reaction to a wire loss. On a reliable VI the fabric
    /// guaranteed delivery, so a loss is a transport error: the oldest
    /// posted receive descriptor completes with
    /// [`DescStatus::TransportError`] and the connection breaks. An
    /// unreliable VI just counts the drop (datagrams may vanish).
    pub(crate) fn wire_drop(&mut self, vi_id: ViId) -> ViaResult<()> {
        self.nic.stats.wire_drops += 1;
        let vi = self.nic.vi_mut(vi_id)?;
        if vi.reliability == Reliability::Unreliable {
            return Ok(());
        }
        vi.state = ViState::Error;
        let lost = vi.recv_q.pop_front();
        if let Some(d) = lost {
            self.push_completion(
                vi_id,
                Completion {
                    vi: vi_id,
                    op: d.op,
                    status: DescStatus::TransportError,
                    len: 0,
                    imm: d.imm,
                },
            )?;
        }
        Ok(())
    }

    /// Tear down everything a process owns on this node: every TPT entry
    /// and registration (pins, mlock intervals), every VI, and finally the
    /// process itself. This is the kernel agent's `release` callback — the
    /// guarantee that an exiting process leaks nothing no matter what it
    /// had registered.
    pub fn exit_process(&mut self, pid: Pid) -> ViaResult<()> {
        for mem_id in self.nic.tpt.region_ids_for_pid(pid) {
            self.deregister_mem(mem_id)?;
        }
        // Break and flush the process' VIs: queued descriptors complete as
        // Dropped (best effort — an already-full CQ loses them), parked
        // reads are abandoned.
        for i in 0..self.nic.vi_count() {
            let vi_id = ViId(i as u32);
            let vi = self.nic.vi_mut(vi_id)?;
            if vi.pid != pid {
                continue;
            }
            vi.state = ViState::Error;
            vi.pending_reads.clear();
            while let Some(d) = vi.send_q.pop_front().or_else(|| vi.recv_q.pop_front()) {
                let _ = vi.push_completion(Completion {
                    vi: vi_id,
                    op: d.op,
                    status: DescStatus::Dropped,
                    len: 0,
                    imm: d.imm,
                });
            }
        }
        self.kernel.exit_process(pid)?;
        Ok(())
    }

    /// `VipRegisterMem`: the trap into the kernel agent. Pins the region
    /// with the configured strategy and fills the TPT with the physical
    /// frames. RDMA-write is enabled by default (the common MPI setting).
    pub fn register_mem(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        self.register_mem_attrs(pid, addr, len, tag, true, false)
    }

    /// `VipRegisterMem` with explicit RDMA attributes.
    pub fn register_mem_attrs(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
        rdma_write: bool,
        rdma_read: bool,
    ) -> ViaResult<MemId> {
        let handle = self.registry.register(&mut self.kernel, pid, addr, len)?;
        if self.inject(FaultSite::TptFull) {
            // Injected TPT exhaustion: identical to the organic full-table
            // path below, pin rolled back.
            self.registry.deregister(&mut self.kernel, handle)?;
            return Err(ViaError::Reg(vialock::RegError::LimitExceeded));
        }
        // Straight from the region's own frame list: an eager strategy
        // recorded one frame per page; an on-demand region recorded none,
        // and its slots start non-resident, faulting on first DMA.
        let region = self.registry.region(handle)?;
        let frames = (0..region.npages()).map(|page| region.frames.get(page).copied());
        match self
            .nic
            .tpt
            .insert_region(handle, pid, addr, len, frames, tag, rdma_write, rdma_read)
        {
            Ok(mem_id) => Ok(mem_id),
            Err(e) => {
                // TPT full: undo the pin.
                self.registry.deregister(&mut self.kernel, handle)?;
                Err(e)
            }
        }
    }

    /// `VipDeregisterMem`.
    pub fn deregister_mem(&mut self, mem_id: MemId) -> ViaResult<()> {
        let region = self.nic.tpt.remove_region(mem_id)?;
        self.registry
            .deregister(&mut self.kernel, region.reg_handle)?;
        Ok(())
    }

    /// Pull the kernel's pending lazy-unpin invalidations into the TPT:
    /// every entry backed by a stolen frame goes non-resident and the
    /// generation bump flushes TLB-cached descriptors. The kernel cannot
    /// call upward into the NIC, so this pull — run before every
    /// translation — is the unpin → TPT coherence edge. Returns the number
    /// of entries invalidated.
    pub fn sync_lazy_invalidations(&mut self) -> usize {
        let mut n = 0usize;
        for frame in self.registry.drain_lazy_invalidations(&mut self.kernel) {
            n += self.nic.tpt.invalidate_frame(frame);
        }
        self.nic.stats.tpt_invalidations += n as u64;
        n
    }

    /// Answer one NIC residency fault: lazy-pin the page through the
    /// registry and install the frame in the TPT. A refused pin (pressure,
    /// swap exhaustion, fault injection) degrades typed as
    /// [`ViaError::Repin`].
    fn repin_page(&mut self, mem: MemId, page: usize) -> ViaResult<()> {
        let handle = self.nic.tpt.region(mem)?.reg_handle;
        match self.registry.pin_on_access(&mut self.kernel, handle, page) {
            Ok(frame) => {
                self.nic.tpt.set_frame(mem, page, frame)?;
                self.nic.stats.repins += 1;
                Ok(())
            }
            Err(e) => {
                self.nic.stats.repin_failures += 1;
                Err(ViaError::Repin(e))
            }
        }
    }

    /// The one routine every DMA and PIO access to registered memory runs
    /// through. It owns the scratch run list, the on-demand fault loop and
    /// the order of events, which is the same on every path:
    ///
    /// 1. **validate** — every span is translated (bounds, protection tag,
    ///    RDMA attribute, residency) into the run list. Nothing has been
    ///    allocated and no memory touched when a span is refused;
    /// 2. **`dma`** runs on the validated runs: it takes the buffer it
    ///    needs — the size is now known to lie inside registered memory,
    ///    whatever length the descriptor or the peer claimed — and issues
    ///    the bursts, deciding itself whether they count in `dma_ops`.
    ///
    /// The fault loop: a [`ViaError::NotResident`] page traps to the kernel
    /// agent, which pins it and installs the frame, and the pass over the
    /// spans restarts — a pin may run reclaim that steals a page translated
    /// a moment ago, so only a pass with no pin in it counts. Each retry
    /// makes one page resident, so the loop is bounded by the spans' page
    /// count (doubled, for those steals); exhaustion degrades typed rather
    /// than spinning.
    fn walk<T>(
        &mut self,
        by: Requester,
        spans: impl Iterator<Item = DataSeg> + Clone,
        access: Access,
        dma: impl FnOnce(&mut Node, &[DmaRun]) -> ViaResult<T>,
    ) -> ViaResult<T> {
        let mut runs = std::mem::take(&mut self.run_scratch);
        let r = self
            .resolve(by, spans, access, &mut runs)
            .and_then(|()| dma(self, &runs));
        self.run_scratch = runs;
        r
    }

    /// The validate step of [`Node::walk`].
    fn resolve(
        &mut self,
        by: Requester,
        spans: impl Iterator<Item = DataSeg> + Clone,
        access: Access,
        runs: &mut Vec<DmaRun>,
    ) -> ViaResult<()> {
        let mut repins = 0usize;
        'pass: loop {
            self.sync_lazy_invalidations();
            runs.clear();
            for s in spans.clone() {
                let r = match by {
                    Requester::Vi(vi) => self
                        .nic
                        .translate_range(vi, s.mem, s.addr, s.len, access, runs),
                    Requester::Pio(tag) => self
                        .nic
                        .tpt
                        .translate_range(s.mem, s.addr, s.len, tag, access, runs),
                };
                match r {
                    Err(ViaError::NotResident { page }) => {
                        self.repin_page(s.mem, page)?;
                        repins += 1;
                        // Twice the spans' pages (saturating: spans past
                        // this one are still the poster's unchecked claim).
                        let budget = spans
                            .clone()
                            .fold(0usize, |n, s| n.saturating_add(2 * (s.len / PAGE_SIZE + 2)));
                        if repins >= budget {
                            return Err(ViaError::Repin(vialock::RegError::WouldBlock));
                        }
                        continue 'pass;
                    }
                    r => r?,
                }
            }
            return Ok(());
        }
    }

    /// One burst DMA read per run, into consecutive bytes of `out`.
    fn read_runs(&mut self, runs: &[DmaRun], out: &mut [u8], counted: bool) -> ViaResult<()> {
        let mut at = 0usize;
        for run in runs {
            self.kernel
                .dma_read_run(run.frame, run.offset, &mut out[at..at + run.len])?;
            self.nic.stats.dma_ops += counted as u64;
            at += run.len;
        }
        Ok(())
    }

    /// One burst DMA write per run, from consecutive bytes of `data`;
    /// returns the bytes written.
    fn write_runs(&mut self, runs: &[DmaRun], data: &[u8], counted: bool) -> ViaResult<usize> {
        let mut at = 0usize;
        for run in runs {
            self.kernel
                .dma_write_run(run.frame, run.offset, &data[at..at + run.len])?;
            self.nic.stats.dma_ops += counted as u64;
            at += run.len;
        }
        Ok(at)
    }

    /// The NIC-side DMA read of validated runs into a pooled payload
    /// buffer sized by them: one burst appended per run, so the gather is
    /// the only copy of the bytes. A refused run hands the buffer back.
    fn read_pooled(&mut self, runs: &[DmaRun]) -> ViaResult<Vec<u8>> {
        let total = runs.iter().map(|r| r.len).sum();
        let mut out = self.pool.take(total, &mut self.nic.stats);
        for run in runs {
            let r = self
                .kernel
                .dma_read_run_append(run.frame, run.offset, run.len, &mut out);
            if let Err(e) = r {
                self.pool.put(out);
                return Err(e.into());
            }
            self.nic.stats.dma_ops += 1;
        }
        Ok(out)
    }

    /// Gather the bytes of a send/RDMA descriptor out of physical memory
    /// through the TPT: one burst DMA per physically contiguous frame run.
    fn gather(&mut self, vi_id: ViId, desc: &Descriptor) -> ViaResult<Vec<u8>> {
        self.walk(
            Requester::Vi(vi_id),
            desc.segs.iter().copied(),
            Access::Local,
            Node::read_pooled,
        )
    }

    /// Where an incoming payload ends up: scatter it into `desc` — a posted
    /// receive, or the parked read/CAS descriptor a response answers — one
    /// burst DMA per contiguous run, hand the buffer back to the pool and
    /// complete `op` with the bytes placed. Writes stop where the descriptor
    /// runs out of room: fewer bytes placed than arrived is the truncating
    /// delivery of an unreliable VI (a reliable one refused the message
    /// before it got here).
    fn complete_scatter(
        &mut self,
        vi_id: ViId,
        desc: &Descriptor,
        op: DescOp,
        payload: Vec<u8>,
        imm: Option<u32>,
    ) -> ViaResult<Vec<Packet>> {
        // The descriptor's segments, cut off where the message ends.
        let spans = desc.segs.iter().scan(payload.len(), |left, s| {
            if *left == 0 {
                return None;
            }
            let len = s.len.min(*left);
            *left -= len;
            Some(DataSeg { len, ..*s })
        });
        let placed = self.walk(Requester::Vi(vi_id), spans, Access::Local, |node, runs| {
            node.write_runs(runs, &payload, true)
        });
        self.pool.put(payload);
        let len = placed?;
        if op == DescOp::Recv {
            self.nic.stats.recvs += 1;
        }
        self.nic.stats.bytes_rx += len as u64;
        self.push_completion(
            vi_id,
            Completion {
                vi: vi_id,
                op,
                status: DescStatus::Done,
                len,
                imm,
            },
        )?;
        Ok(Vec::new())
    }

    /// Process all pending send-side descriptors of one VI, appending the
    /// packets to a caller-owned vector, so a pump batches every VI's
    /// packets without an allocation per VI. Send descriptors complete as
    /// soon as the DMA gather is done (data "on the wire"). Returns the
    /// number of packets appended.
    pub fn pump_vi_sends_into(
        &mut self,
        vi_id: ViId,
        node_index: usize,
        out: &mut Vec<Packet>,
    ) -> ViaResult<usize> {
        let mut n = 0usize;
        while let Some(desc) = self.nic.vi_mut(vi_id)?.send_q.pop_front() {
            if let Some(pkt) = self.execute_send_desc(vi_id, desc, node_index)? {
                out.push(pkt);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Collect every pending send of this node as packets from node
    /// `index`, appended to `out`: `ViId` ascending, FIFO within a VI — the
    /// order both fabrics ship in (DESIGN.md §18). The idle case is one
    /// scan of the VI table for a non-empty send queue, with no lookup or
    /// call per VI. On an error the packets gathered so far stay in `out`
    /// and the rest stay queued for the next call. Returns the number of
    /// packets appended.
    pub(crate) fn ship_sends(&mut self, index: usize, out: &mut Vec<Packet>) -> ViaResult<usize> {
        let mut sent = 0usize;
        let mut next = 0usize;
        while let Some(i) = self
            .nic
            .vis
            .get(next..)
            .and_then(|vis| vis.iter().position(|v| v.sends_pending() > 0))
        {
            let vi = next + i;
            sent += self.pump_vi_sends_into(ViId(vi as u32), index, out)?;
            next = vi + 1;
        }
        Ok(sent)
    }

    /// What a packet meets at this NIC's ingress, on either fabric. The
    /// wire faults strike first, in a fixed order:
    ///
    /// * `WireDelay`: the packet goes on `requeue` — the caller's queue of
    ///   packets still to be delivered here — behind everything already on
    ///   it, and is overtaken by them;
    /// * `WireDrop`: its buffer returns to the pool and [`Node::wire_drop`]
    ///   applies the receiving VI's reliability rule;
    /// * `WireDuplicate`: an unreliable VI gets a pool-accounted copy of a
    ///   send, put on `requeue` the same way; a reliable VI's sequence
    ///   numbers suppress it.
    ///
    /// Unless delayed or dropped the packet is then delivered. Returns the
    /// response packets to route, or `None` when the packet was requeued
    /// or consumed. A fabric supplies only the transport: what `requeue`
    /// is, and where responses go.
    pub(crate) fn ingress(
        &mut self,
        pkt: Packet,
        requeue: &mut impl Extend<Packet>,
    ) -> ViaResult<Option<Vec<Packet>>> {
        if self.inject(FaultSite::WireDelay) {
            self.nic.stats.wire_delays += 1;
            requeue.extend(once(pkt));
            return Ok(None);
        }
        if self.inject(FaultSite::WireDrop) {
            let vi = pkt.dst_vi;
            self.pool.put(pkt.payload);
            self.wire_drop(vi)?;
            return Ok(None);
        }
        if self.inject(FaultSite::WireDuplicate) {
            self.nic.stats.wire_dups += 1;
            let unreliable = self
                .nic
                .vi(pkt.dst_vi)
                .is_ok_and(|v| v.reliability == Reliability::Unreliable);
            if unreliable && matches!(pkt.kind, PacketKind::Send) {
                let payload = self.pool.dup_payload(&pkt.payload, &mut self.nic.stats);
                requeue.extend(once(Packet {
                    src_node: pkt.src_node,
                    dst_node: pkt.dst_node,
                    dst_vi: pkt.dst_vi,
                    kind: PacketKind::Send,
                    payload,
                    imm: pkt.imm,
                }));
            }
        }
        self.deliver(pkt).map(Some)
    }

    /// Complete a malformed send-side descriptor with
    /// [`DescStatus::FormatError`]: no packet, no memory touched.
    fn complete_format_error(
        &mut self,
        vi_id: ViId,
        desc: &Descriptor,
    ) -> ViaResult<Option<Packet>> {
        self.push_completion(
            vi_id,
            Completion {
                vi: vi_id,
                op: desc.op,
                status: DescStatus::FormatError,
                len: 0,
                imm: desc.imm,
            },
        )?;
        Ok(None)
    }

    /// Execute one send-side descriptor: gather through the TPT, emit the
    /// packet, complete. RDMA reads park on the pending queue instead.
    fn execute_send_desc(
        &mut self,
        vi_id: ViId,
        desc: Descriptor,
        node_index: usize,
    ) -> ViaResult<Option<Packet>> {
        let (peer, state) = {
            let vi = self.nic.vi(vi_id)?;
            (vi.peer, vi.state)
        };
        if state != ViState::Connected {
            return Err(ViaError::NotConnected);
        }
        let (dst_node, dst_vi) = peer.ok_or(ViaError::NotConnected)?;
        // Validate the descriptor before touching memory: a receive opcode
        // on the send queue, or an RDMA opcode without an address segment,
        // is VIA's "descriptor format error" — completed in error, nothing
        // transferred, connection intact.
        let rdma_seg = match desc.op {
            DescOp::Recv => return self.complete_format_error(vi_id, &desc),
            DescOp::RdmaWrite | DescOp::RdmaRead | DescOp::AtomicCas => match desc.rdma {
                Some(r) => Some(r),
                None => return self.complete_format_error(vi_id, &desc),
            },
            DescOp::Send => None,
        };
        if desc.op == DescOp::AtomicCas {
            // A CAS needs its operands and an 8-byte local result buffer;
            // anything else is a descriptor format error.
            let (Some((compare, swap)), true) = (desc.cas, desc.total_len() >= 8) else {
                return self.complete_format_error(vi_id, &desc);
            };
            let r = rdma_seg.ok_or(ViaError::BadState("cas without address segment"))?;
            self.nic.stats.atomic_cas += 1;
            let mut payload = self.pool.take(16, &mut self.nic.stats);
            payload.extend_from_slice(&compare.to_le_bytes());
            payload.extend_from_slice(&swap.to_le_bytes());
            let pkt = Packet {
                src_node: node_index,
                dst_node,
                dst_vi,
                kind: PacketKind::AtomicCasReq {
                    remote_mem: r.remote_mem,
                    remote_addr: r.remote_addr,
                    reply_vi: vi_id,
                },
                payload,
                imm: desc.imm,
            };
            self.nic.vi_mut(vi_id)?.pending_reads.push_back(desc);
            return Ok(Some(pkt));
        }
        if desc.op == DescOp::RdmaRead {
            // No local gather yet: emit the request, park the descriptor
            // until the response arrives.
            let r = rdma_seg.ok_or(ViaError::BadState("rdma read without address segment"))?;
            let len = desc.total_len();
            self.nic.stats.rdma_reads += 1;
            let pkt = Packet {
                src_node: node_index,
                dst_node,
                dst_vi,
                kind: PacketKind::RdmaReadReq {
                    remote_mem: r.remote_mem,
                    remote_addr: r.remote_addr,
                    len,
                    reply_vi: vi_id,
                },
                payload: Vec::new(),
                imm: desc.imm,
            };
            self.nic.vi_mut(vi_id)?.pending_reads.push_back(desc);
            return Ok(Some(pkt));
        }
        match self.gather(vi_id, &desc) {
            Ok(payload) => {
                let len = payload.len();
                let kind = match desc.op {
                    DescOp::Send => {
                        self.nic.stats.sends += 1;
                        PacketKind::Send
                    }
                    DescOp::RdmaWrite => {
                        self.nic.stats.rdma_writes += 1;
                        let r = rdma_seg
                            .ok_or(ViaError::BadState("rdma write without address segment"))?;
                        PacketKind::RdmaWrite {
                            remote_mem: r.remote_mem,
                            remote_addr: r.remote_addr,
                        }
                    }
                    // All three returned earlier in this function; reaching
                    // here means the dispatch above changed — fail typed,
                    // never panic on the datapath.
                    DescOp::Recv | DescOp::RdmaRead | DescOp::AtomicCas => {
                        self.pool.put(payload);
                        return Err(ViaError::BadState("non-gather op reached the gather path"));
                    }
                };
                self.nic.stats.bytes_tx += len as u64;
                let pkt = Packet {
                    src_node: node_index,
                    dst_node,
                    dst_vi,
                    kind,
                    payload,
                    imm: desc.imm,
                };
                if let Err(e) = self.push_completion(
                    vi_id,
                    Completion {
                        vi: vi_id,
                        op: desc.op,
                        status: DescStatus::Done,
                        len,
                        imm: desc.imm,
                    },
                ) {
                    // CQ overrun broke the VI: the packet never leaves.
                    self.pool.put(pkt.payload);
                    return Err(e);
                }
                Ok(Some(pkt))
            }
            Err(e) => {
                // Residency degradation completes typed; everything else is
                // a protection refusal (repin_failures was already charged
                // where the pin was refused).
                let status = if matches!(e, ViaError::Repin(_)) {
                    DescStatus::RepinFailed
                } else {
                    self.nic.stats.protection_errors += 1;
                    DescStatus::ProtectionError
                };
                self.push_completion(
                    vi_id,
                    Completion {
                        vi: vi_id,
                        op: desc.op,
                        status,
                        len: 0,
                        imm: desc.imm,
                    },
                )?;
                Ok(None)
            }
        }
    }

    /// Deliver one incoming packet to this node; may produce response
    /// packets (RDMA-read answers) for the fabric to route.
    pub fn deliver(&mut self, packet: Packet) -> ViaResult<Vec<Packet>> {
        let vi_id = packet.dst_vi;
        self.nic.vi(vi_id)?;
        match packet.kind {
            PacketKind::Send => {
                let reliability = self.nic.vi(vi_id)?.reliability;
                let Some(desc) = self.nic.vi_mut(vi_id)?.recv_q.pop_front() else {
                    self.nic.stats.dropped += 1;
                    self.pool.put(packet.payload);
                    return match reliability {
                        // Reliable mode: drop the message AND break the
                        // connection.
                        Reliability::Reliable => {
                            self.nic.vi_mut(vi_id)?.state = ViState::Error;
                            Err(ViaError::NoRecvDescriptor)
                        }
                        // Unreliable delivery: a datagram into the void.
                        Reliability::Unreliable => Ok(Vec::new()),
                    };
                };
                if reliability == Reliability::Reliable && desc.total_len() < packet.payload.len() {
                    self.nic.stats.dropped += 1;
                    let (need, have) = (packet.payload.len(), desc.total_len());
                    let imm = packet.imm;
                    self.pool.put(packet.payload);
                    self.nic.vi_mut(vi_id)?.state = ViState::Error;
                    self.push_completion(
                        vi_id,
                        Completion {
                            vi: vi_id,
                            op: DescOp::Recv,
                            status: DescStatus::Dropped,
                            len: 0,
                            imm,
                        },
                    )?;
                    return Err(ViaError::RecvTooSmall { need, have });
                }
                // Unreliable mode takes a truncating delivery instead: the
                // scatter stops at the descriptor's capacity and the
                // completion reports the bytes actually placed.
                self.complete_scatter(vi_id, &desc, DescOp::Recv, packet.payload, packet.imm)
            }
            PacketKind::RdmaWrite {
                remote_mem,
                remote_addr,
            } => {
                // Scatter straight into the named region: the target VI's
                // tag and the region's RDMA-write enable are checked.
                let span = DataSeg {
                    mem: remote_mem,
                    addr: remote_addr,
                    len: packet.payload.len(),
                };
                let by = Requester::Vi(vi_id);
                let r = self.walk(by, once(span), Access::RdmaWrite, |node, runs| {
                    node.write_runs(runs, &packet.payload, true)
                });
                self.pool.put(packet.payload);
                match r {
                    Ok(n) => {
                        self.nic.stats.bytes_rx += n as u64;
                        Ok(Vec::new())
                    }
                    Err(e) => {
                        self.nic.stats.protection_errors += 1;
                        Err(e)
                    }
                }
            }
            PacketKind::RdmaReadReq {
                remote_mem,
                remote_addr,
                len,
                reply_vi,
            } => {
                // Target side: gather the requested range (tag + read-enable
                // checked) and answer, refusal or not.
                let span = DataSeg {
                    mem: remote_mem,
                    addr: remote_addr,
                    len,
                };
                let by = Requester::Vi(vi_id);
                let r = self.walk(by, once(span), Access::RdmaRead, Node::read_pooled);
                Ok(self.respond((packet.dst_node, packet.src_node), reply_vi, packet.imm, r))
            }
            PacketKind::AtomicCasReq {
                remote_mem,
                remote_addr,
                reply_vi,
            } => {
                if packet.payload.len() != 16 {
                    self.pool.put(packet.payload);
                    return Err(ViaError::BadState("malformed CAS request"));
                }
                let compare = le_u64(&packet.payload, 0);
                let swap = le_u64(&packet.payload, 8);
                let r = self.rdma_cas(vi_id, remote_mem, remote_addr, compare, swap);
                self.pool.put(packet.payload);
                let r = r.map(|old| {
                    let mut payload = self.pool.take(8, &mut self.nic.stats);
                    payload.extend_from_slice(&old.to_le_bytes());
                    payload
                });
                Ok(self.respond((packet.dst_node, packet.src_node), reply_vi, packet.imm, r))
            }
            PacketKind::Response { ok } => {
                // Requester side: complete the oldest parked descriptor.
                let Some(desc) = self.nic.vi_mut(vi_id)?.pending_reads.pop_front() else {
                    self.pool.put(packet.payload);
                    return Err(ViaError::BadState("response without a pending request"));
                };
                if ok {
                    return self.complete_scatter(
                        vi_id,
                        &desc,
                        desc.op,
                        packet.payload,
                        packet.imm,
                    );
                }
                self.pool.put(packet.payload);
                self.push_completion(
                    vi_id,
                    Completion {
                        vi: vi_id,
                        op: desc.op,
                        status: DescStatus::ProtectionError,
                        len: 0,
                        imm: packet.imm,
                    },
                )?;
                Ok(Vec::new())
            }
        }
    }

    /// The answer to a request (an RDMA read or a CAS), routed `(here,
    /// requester)` back to the requester's `reply_vi`: the result's
    /// payload, or an empty refusal, counted as a protection error. A
    /// refused request is answered too, so the requester's parked
    /// descriptor completes.
    fn respond(
        &mut self,
        (here, requester): (usize, usize),
        reply_vi: ViId,
        imm: Option<u32>,
        result: ViaResult<Vec<u8>>,
    ) -> Vec<Packet> {
        let (ok, payload) = match result {
            Ok(payload) => {
                self.nic.stats.bytes_tx += payload.len() as u64;
                (true, payload)
            }
            Err(_) => {
                self.nic.stats.protection_errors += 1;
                (false, Vec::new())
            }
        };
        vec![Packet {
            src_node: here,
            dst_node: requester,
            dst_vi: reply_vi,
            kind: PacketKind::Response { ok },
            payload,
            imm,
        }]
    }

    /// SCI-style PIO store into one of this node's exported regions,
    /// addressed by `(MemId, byte offset)`. Node-local so every fabric —
    /// the deterministic system and the threaded cluster — shares one
    /// implementation; translation uses the region's own tag (importer-side
    /// protection is the host MMU).
    pub fn sci_write_bytes(&mut self, data: &[u8], dmem: MemId, doff: usize) -> ViaResult<()> {
        let (span, by) = self.pio_span(dmem, doff, data.len())?;
        // PIO stores are CPU accesses, not NIC bursts: not in `dma_ops`.
        self.walk(by, once(span), Access::Local, |node, runs| {
            node.write_runs(runs, data, false).map(|_| ())
        })
    }

    /// SCI remote read from one of this node's exported regions (see
    /// [`Node::sci_write_bytes`]).
    pub fn sci_read_bytes(&mut self, smem: MemId, soff: usize, out: &mut [u8]) -> ViaResult<()> {
        let (span, by) = self.pio_span(smem, soff, out.len())?;
        self.walk(by, once(span), Access::Local, |node, runs| {
            node.read_runs(runs, out, false)
        })
    }

    /// Whether `len` bytes at byte offset `off` lie inside exported region
    /// `mem` — what a fabric asks before it sizes a staging buffer from a
    /// caller's `len`.
    pub fn check_pio_span(&self, mem: MemId, off: usize, len: usize) -> ViaResult<()> {
        self.pio_span(mem, off, len).map(|_| ())
    }

    /// `len` bytes at byte offset `off` of exported region `mem`, as a span
    /// under the region's own tag.
    fn pio_span(&self, mem: MemId, off: usize, len: usize) -> ViaResult<(DataSeg, Requester)> {
        let region = self.nic.tpt.region(mem)?;
        if !simmem::within(off as u64, len as u64, region.len as u64) {
            return Err(ViaError::OutOfBounds);
        }
        let addr = region.user_addr + off as u64;
        Ok((DataSeg { mem, addr, len }, Requester::Pio(region.tag)))
    }

    /// The per-node slice of the fabric-wide invariants:
    ///
    /// 1. the registry census holds (per-frame pin counts equal the live
    ///    registrations covering them);
    /// 2. no orphaned frames (reliable pinning's whole promise);
    /// 3. TPT occupancy never exceeds capacity;
    /// 4. the kernel census holds (present indexes, swap device, swap
    ///    cache — [`Kernel::check_invariants`]);
    /// 5. every filled TPT slot lies in a live region's window
    ///    ([`Tpt::check_invariants`]).
    ///
    /// The packet-pool ledger is *fabric-wide* (buffers migrate between
    /// nodes with the packets that carry them), so the fabric sums
    /// [`PacketPool::outstanding`] across nodes on top of this check.
    pub fn check_local_invariants(&self) -> Result<(), String> {
        self.registry
            .check_invariants(&self.kernel)
            .map_err(|e| e.to_string())?;
        let orphans = self.kernel.count_orphaned_frames();
        if orphans != 0 {
            return Err(format!("{orphans} orphaned frames"));
        }
        let (used, cap) = (self.nic.tpt.used_slots(), self.nic.tpt.capacity());
        if used > cap {
            return Err(format!("TPT occupancy {used} > capacity {cap}"));
        }
        self.kernel.check_invariants()?;
        self.nic.tpt.check_invariants()
    }

    /// Target-side atomic compare-and-swap on an aligned u64 of a named
    /// region. Both RDMA enables are required — the op reads the word and
    /// may write it — and the VI's protection tag is checked by the same
    /// translations every other access uses. The read-compare-write is
    /// indivisible because the owning node's thread is the only executor
    /// of its memory's deliveries.
    fn rdma_cas(
        &mut self,
        vi_id: ViId,
        remote_mem: MemId,
        remote_addr: VirtAddr,
        compare: u64,
        swap: u64,
    ) -> ViaResult<u64> {
        if !remote_addr.is_multiple_of(8) {
            return Err(ViaError::OutOfBounds);
        }
        let by = Requester::Vi(vi_id);
        let word = once(DataSeg {
            mem: remote_mem,
            addr: remote_addr,
            len: 8,
        });
        // Check the read enable first, then translate again under the
        // write enable; the second translation's run is the one used, so a
        // region registered read-only is refused before any DMA.
        self.walk(by, word.clone(), Access::RdmaRead, |_, _| Ok(()))?;
        self.walk(by, word, Access::RdmaWrite, |node, runs| {
            let mut old = [0u8; 8];
            node.read_runs(runs, &mut old, true)?;
            let old = u64::from_le_bytes(old);
            if old == compare {
                node.write_runs(runs, &swap.to_le_bytes(), true)?;
                node.nic.stats.cas_applied += 1;
            }
            Ok(old)
        })
    }
}

/// Little-endian `u64` at `off` of a CAS request payload whose length the
/// caller has checked; the fixed-size destination keeps the conversion
/// itself infallible (lint rule R3).
#[inline]
fn le_u64(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}
