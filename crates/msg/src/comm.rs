//! The communicator: ranks, directed pair channels and the three transfer
//! protocols, implemented functionally on the `via` fabric.
//!
//! All user payloads live in simulated process memory; `send` takes a
//! (rank, address, length) triple, not a host slice, so every byte really
//! flows through registered frames — and through whatever pinning strategy
//! the nodes were configured with.
//!
//! The communicator is generic over the [`Fabric`]: [`Comm::new`] builds
//! the deterministic [`ViaSystem`] variant, [`Comm::on_fabric`] wraps any
//! pre-built fabric (e.g. a [`via::ThreadedCluster`]) so the same protocol
//! code runs over real concurrency.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};

use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::system::{NodeId, ViaSystem};
use via::tpt::{MemId, ProtectionTag};
use via::vi::ViId;
use via::{DescOp, Fabric, FabricNode, ViaError, ViaResult};
use vialock::StrategyKind;

use crate::config::{MsgConfig, Protocol};
use crate::regcache::NodeRegCache;
use crate::seg::{
    MsgInfo, Response, SegLayout, ACTIVE_FREE, ACTIVE_POSTED, ACTIVE_ZC_DONE, INFO_SIZE,
    RESP_BUF_READY, RESP_DONE, RESP_NONE, RESP_SIZE,
};
use crate::stats::MsgStats;

/// Rank index within the communicator.
pub type RankId = usize;

/// Wildcard receive tag (`MPI_ANY_TAG`).
pub const ANY_TAG: u32 = u32::MAX;

/// Wildcard source rank (`MPI_ANY_SOURCE`). Receiving from any source is
/// the case the Multidevice paper singles out as problematic: the receiver
/// must probe every channel round-robin until one signals readiness.
pub const ANY_SOURCE: RankId = usize::MAX;

/// Handle to a send: the send's sequence number within the communicator
/// that issued it. Sequence numbers only grow, so a handle stays valid
/// (and reads as "completed") however long ago its send finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendHandle {
    comm: u32,
    seq: u64,
}

/// Source of communicator identities, so a handle presented to the wrong
/// communicator is refused instead of aliasing one of its sends.
static NEXT_COMM_ID: AtomicU32 = AtomicU32::new(0);

/// Bound on receive/wait spinning; exceeded only on protocol bugs.
const SPIN_LIMIT: usize = 100_000;

struct RankInfo {
    node: NodeId,
    pid: Pid,
    tag: ProtectionTag,
}

/// State of a directed sender→receiver channel.
///
/// Each pair starts on its own cache line, so which lines a pair's hot
/// fields share does not depend on where the allocator put the pair table:
/// unaligned, a 16-byte shift of every heap object allocated before it
/// moved `dlm_onesided` by up to 20 % (EXPERIMENTS.md E30).
#[repr(align(64))]
struct Pair {
    vi_s: ViId,
    vi_r: ViId,
    /// Receiver-exported segment (info slots + SM data slots), on the
    /// receiver's node.
    r_seg_addr: VirtAddr,
    r_seg_mem: MemId,
    /// Sender-exported control segment (response records).
    s_seg_addr: VirtAddr,
    s_seg_mem: MemId,
    layout: SegLayout,
    /// Sender-side slot allocation.
    slot_busy: Vec<bool>,
    /// Per slot: the response record was written since the progress engine
    /// last read it (set by `write_response`, cleared by the visit that
    /// reads the record and by `release_send`).
    resp_written: Vec<bool>,
    next_msg_id: u64,
    /// One-copy receive ring: buffer addresses in posted (FIFO) order.
    oc_ring: VecDeque<VirtAddr>,
    oc_mem: MemId,
}

#[derive(Clone, Copy)]
enum SendState {
    /// SM / one-copy: data is out; waiting for the receiver's DONE flag.
    /// A one-copy message holds its buffer's registration and left `chunks`
    /// `Send` completions on the sender's CQ (one per descriptor posted);
    /// a shared-memory message holds neither (`None`, 0).
    AwaitDone {
        cached_mem: Option<MemId>,
        chunks: usize,
    },
    /// Zero-copy: announced; waiting for the rendezvous answer.
    ZcAwaitBuffer {
        cached_mem: MemId,
        addr: VirtAddr,
        len: usize,
    },
    /// Zero-copy: RDMA issued; waiting for the receiver's DONE flag.
    ZcAwaitDone { cached_mem: MemId },
}

impl SendState {
    /// The registration-cache reference the send holds, if any.
    fn cached_mem(&self) -> Option<MemId> {
        match *self {
            SendState::AwaitDone { cached_mem, .. } => cached_mem,
            SendState::ZcAwaitBuffer { cached_mem, .. } | SendState::ZcAwaitDone { cached_mem } => {
                Some(cached_mem)
            }
        }
    }
}

/// A live send. It owns info slot `slot` of its pair until it is released,
/// which is what bounds the in-flight set.
#[derive(Clone, Copy)]
struct PendingSend {
    seq: u64,
    from: RankId,
    to: RankId,
    slot: usize,
    state: SendState,
}

/// The communicator, generic over the underlying [`Fabric`] (the
/// deterministic [`ViaSystem`] by default).
pub struct Comm<F: Fabric = ViaSystem> {
    sys: F,
    cfg: MsgConfig,
    /// Identity stamped into every [`SendHandle`] this communicator issues.
    id: u32,
    ranks: Vec<RankInfo>,
    /// Directed channels, dense: `from * n_ranks + to` (`None` on the
    /// diagonal).
    pairs: Vec<Option<Pair>>,
    /// Live sends in send order (ascending `seq`). A send leaves when it
    /// finishes or is discarded, so this never holds more than
    /// `pairs × info_slots` entries.
    in_flight: Vec<PendingSend>,
    /// Number of `Pair::resp_written` marks set: 0 means no live send can
    /// have changed state, so `progress` has nothing to read.
    resp_marks: usize,
    /// Test-only reference: `progress` reads every live send's record on
    /// every round, as it did before the marks (`progress_diff_tests`).
    #[cfg(test)]
    pub(crate) visit_every_send: bool,
    next_seq: u64,
    /// Sender and receiver of the last send that failed, until
    /// [`Comm::take_failed_send`] reads them.
    failed_send: Option<(RankId, RankId)>,
    caches: Vec<NodeRegCache>,
    /// Recycled staging buffer for the SM and one-copy copy-out paths and
    /// for probing a pair's info-slot array, so steady-state receives do
    /// not allocate per message (or per chunk).
    copy_scratch: Vec<u8>,
    /// Per-rank 8-byte landing buffers for one-sided CAS results,
    /// allocated lazily on first use so steady-state `Window::cas` calls
    /// never mmap.
    pub(crate) cas_scratch: HashMap<RankId, VirtAddr>,
    pub stats: MsgStats,
}

impl Comm {
    /// Build a communicator of `n_ranks` ranks spread round-robin over
    /// `n_nodes` nodes of a fresh deterministic fabric, with all channels
    /// set up.
    pub fn new(
        n_ranks: usize,
        n_nodes: usize,
        kcfg: KernelConfig,
        strategy: StrategyKind,
        cfg: MsgConfig,
    ) -> ViaResult<Self> {
        Comm::on_fabric(ViaSystem::new(n_nodes, kcfg, strategy), n_ranks, cfg)
    }
}

impl<F: Fabric> Comm<F> {
    /// Build a communicator of `n_ranks` ranks spread round-robin over the
    /// nodes of a pre-built fabric (deterministic or threaded), with all
    /// channels set up.
    pub fn on_fabric(mut sys: F, n_ranks: usize, cfg: MsgConfig) -> ViaResult<Self> {
        cfg.validate()
            .map_err(|_| ViaError::BadState("invalid MsgConfig"))?;
        let n_nodes = sys.node_count();
        let mut ranks = Vec::with_capacity(n_ranks);
        for r in 0..n_ranks {
            let node = r % n_nodes;
            let pid = sys.spawn_process(node);
            ranks.push(RankInfo {
                node,
                pid,
                tag: ProtectionTag(1000 + r as u32),
            });
        }
        let caches = (0..n_nodes)
            .map(|_| NodeRegCache::new(cfg.cache_pages))
            .collect();
        let mut comm = Comm {
            sys,
            cfg,
            // relaxed: pure id allocator — only uniqueness matters.
            id: NEXT_COMM_ID.fetch_add(1, Ordering::Relaxed),
            ranks,
            pairs: (0..n_ranks * n_ranks).map(|_| None).collect(),
            in_flight: Vec::new(),
            resp_marks: 0,
            #[cfg(test)]
            visit_every_send: false,
            next_seq: 0,
            failed_send: None,
            caches,
            copy_scratch: Vec::new(),
            cas_scratch: HashMap::new(),
            stats: MsgStats::default(),
        };
        for s in 0..n_ranks {
            for r in 0..n_ranks {
                if s != r {
                    comm.setup_pair(s, r)?;
                }
            }
        }
        Ok(comm)
    }

    fn setup_pair(&mut self, s: RankId, r: RankId) -> ViaResult<()> {
        let layout = SegLayout {
            info_slots: self.cfg.info_slots,
            slot_data_bytes: self.cfg.sm_max,
        };
        let (s_node, s_pid, s_tag) = {
            let i = &self.ranks[s];
            (i.node, i.pid, i.tag)
        };
        let (r_node, r_pid, r_tag) = {
            let i = &self.ranks[r];
            (i.node, i.pid, i.tag)
        };

        // VI pair for the one-copy/zero-copy descriptors.
        let vi_s = self.sys.create_vi(s_node, s_pid, s_tag)?;
        let vi_r = self.sys.create_vi(r_node, r_pid, r_tag)?;
        self.sys.connect((s_node, vi_s), (r_node, vi_r))?;

        // Receiver-exported segment.
        let r_len = layout.r_seg_bytes();
        let r_seg_addr = self
            .sys
            .mmap(r_node, r_pid, r_len, prot::READ | prot::WRITE)?;
        self.sys
            .touch_pages(r_node, r_pid, r_seg_addr, r_len, true)?;
        let r_seg_mem = self
            .sys
            .register_mem(r_node, r_pid, r_seg_addr, r_len, r_tag)?;

        // Sender-exported control segment.
        let s_len = layout.s_seg_bytes();
        let s_seg_addr = self
            .sys
            .mmap(s_node, s_pid, s_len, prot::READ | prot::WRITE)?;
        self.sys
            .touch_pages(s_node, s_pid, s_seg_addr, s_len, true)?;
        let s_seg_mem = self
            .sys
            .register_mem(s_node, s_pid, s_seg_addr, s_len, s_tag)?;

        // One-copy ring: `prepost` buffers of chunk size, registered once,
        // pre-posted as receive descriptors in FIFO order.
        let ring_len = self.cfg.prepost * self.cfg.chunk_bytes;
        let ring_addr = self
            .sys
            .mmap(r_node, r_pid, ring_len, prot::READ | prot::WRITE)?;
        self.sys
            .touch_pages(r_node, r_pid, ring_addr, ring_len, true)?;
        let oc_mem = self
            .sys
            .register_mem(r_node, r_pid, ring_addr, ring_len, r_tag)?;
        let mut oc_ring = VecDeque::with_capacity(self.cfg.prepost);
        for i in 0..self.cfg.prepost {
            let addr = ring_addr + (i * self.cfg.chunk_bytes) as u64;
            self.sys
                .post_recv(r_node, vi_r, oc_mem, addr, self.cfg.chunk_bytes)?;
            oc_ring.push_back(addr);
        }

        let n = self.ranks.len();
        self.pairs[s * n + r] = Some(Pair {
            vi_s,
            vi_r,
            r_seg_addr,
            r_seg_mem,
            s_seg_addr,
            s_seg_mem,
            layout,
            slot_busy: vec![false; self.cfg.info_slots],
            resp_written: vec![false; self.cfg.info_slots],
            next_msg_id: 1,
            oc_ring,
            oc_mem,
        });
        Ok(())
    }

    /// Index of the directed channel `from → to` in the dense table; a
    /// typed error for a rank out of range (which would alias another
    /// pair's index).
    fn pair_index(&self, from: RankId, to: RankId) -> ViaResult<usize> {
        let n = self.ranks.len();
        if from >= n || to >= n {
            return Err(ViaError::BadId("pair"));
        }
        Ok(from * n + to)
    }

    /// The directed channel `from → to` (`from == to` has none).
    fn pair(&self, from: RankId, to: RankId) -> ViaResult<&Pair> {
        self.pairs[self.pair_index(from, to)?]
            .as_ref()
            .ok_or(ViaError::BadId("pair"))
    }

    fn pair_mut(&mut self, from: RankId, to: RankId) -> ViaResult<&mut Pair> {
        let i = self.pair_index(from, to)?;
        self.pairs[i].as_mut().ok_or(ViaError::BadId("pair"))
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// The node a rank lives on.
    pub fn rank_node(&self, r: RankId) -> NodeId {
        self.ranks[r].node
    }

    /// The simulated process of a rank.
    pub fn rank_pid(&self, r: RankId) -> Pid {
        self.ranks[r].pid
    }

    /// The protection tag of a rank.
    pub fn rank_tag(&self, r: RankId) -> ProtectionTag {
        self.ranks[r].tag
    }

    /// The sender-side VI of the directed channel `from → to` (one-sided
    /// operations ride the same VI pair the protocols use).
    pub(crate) fn pair_send_vi(&self, from: RankId, to: RankId) -> ViaResult<ViId> {
        Ok(self.pair(from, to)?.vi_s)
    }

    /// Cache-acquire a registration on behalf of window put/get.
    pub(crate) fn cache_acquire_for(
        &mut self,
        node: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        self.cached_acquire(node, pid, addr, len, tag)
    }

    /// Matching release.
    pub(crate) fn cache_release_for(&mut self, node: NodeId, mem: MemId) -> ViaResult<()> {
        self.cached_release(node, mem)
    }

    /// Access the underlying fabric (workloads run antagonists through it).
    pub fn system_mut(&mut self) -> &mut F {
        &mut self.sys
    }

    /// Consume the communicator and hand back the fabric — for tests that
    /// tear the cluster down and inspect the post-mortem result.
    pub fn into_system(self) -> F {
        self.sys
    }

    /// Tear down rank `r`'s process and abandon every pending send that
    /// touches it. The process teardown reclaims the rank's pins and
    /// registrations, so the progress engine must never again read or
    /// write its segments: in-flight sends *from* the rank died with it,
    /// and sends *toward* it can never complete (nobody will consume
    /// them). Survivor-to-survivor traffic is untouched; fresh sends to
    /// the retired rank fail with a typed error at the transport layer.
    pub fn retire_rank(&mut self, r: RankId) -> ViaResult<()> {
        let (node, pid) = (self.ranks[r].node, self.ranks[r].pid);
        self.sys.exit_process(node, pid)?;
        // The casualty's registrations went with its process; its cache
        // entries must go too, without a second deregistration.
        self.caches[node].forget_pid(pid);
        let (abandoned, live): (Vec<_>, Vec<_>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|p| p.from == r || p.to == r);
        self.in_flight = live;
        // A survivor's send toward the casualty still holds the survivor's
        // slot and registration: give both back. Every send is released
        // even if an earlier one fails; the first failure is reported.
        let mut released = Ok(());
        for p in abandoned.iter().filter(|p| p.from != r) {
            released = released.and(self.release_send(p));
        }
        // Discard messages the dead rank posted but nobody consumed yet:
        // they sit in each *survivor's* segment, but delivering one would
        // require acking into the dead rank's (reclaimed) response slot.
        // Crash-stop semantics — in-flight traffic from the casualty is
        // dropped, like frames on a wire whose endpoint vanished. Its
        // response records went with its process, and their marks with them.
        let survivors: Vec<RankId> = (0..self.ranks.len()).filter(|&s| s != r).collect();
        for to in survivors {
            for slot in 0..self.cfg.info_slots {
                self.clear_info(r, to, slot)?;
                self.take_mark(r, to, slot)?;
            }
        }
        released
    }

    /// Per-node registration-cache statistics.
    pub fn cache_stats(&self, node: NodeId) -> vialock::CacheStats {
        self.caches[node].stats()
    }

    /// Cached registrations on `node` that some send or receive still
    /// holds.
    pub fn cache_in_use(&self, node: NodeId) -> usize {
        self.caches[node].in_use()
    }

    /// Per-node NIC data-path statistics (TLB hit rates, DMA ops, pool
    /// recycling) — benches read deltas of these. `&mut self`: on a
    /// threaded fabric this is a command round-trip into the node's
    /// service thread.
    pub fn nic_stats(&mut self, node: NodeId) -> via::nic::NicStats {
        self.sys.nic_stats(node)
    }

    /// Intra-rank staging copy (`src → dst`, same process) through the
    /// recycled scratch buffer — the local fallback of one-sided put/get.
    pub(crate) fn local_copy(
        &mut self,
        rank: RankId,
        src: VirtAddr,
        dst: VirtAddr,
        len: usize,
    ) -> ViaResult<()> {
        let mut tmp = std::mem::take(&mut self.copy_scratch);
        tmp.clear();
        tmp.resize(len, 0);
        let copied = self
            .read_buffer(rank, src, &mut tmp)
            .and_then(|()| self.fill_buffer(rank, dst, &tmp));
        self.copy_scratch = tmp;
        copied?;
        self.stats.copy_bytes += len as u64;
        self.stats.copy_ops += 1;
        Ok(())
    }

    /// Allocate a user buffer in a rank's address space.
    pub fn alloc_buffer(&mut self, rank: RankId, len: usize) -> ViaResult<VirtAddr> {
        let (node, pid) = (self.ranks[rank].node, self.ranks[rank].pid);
        self.sys.mmap(node, pid, len, prot::READ | prot::WRITE)
    }

    /// Fill a rank-local buffer (CPU stores through the fault path).
    pub fn fill_buffer(&mut self, rank: RankId, addr: VirtAddr, data: &[u8]) -> ViaResult<()> {
        let (node, pid) = (self.ranks[rank].node, self.ranks[rank].pid);
        self.sys.write_user(node, pid, addr, data)
    }

    /// Unmap a rank-local buffer (sweep harnesses allocate fresh buffers
    /// per point and must return the pages).
    pub fn free_buffer(&mut self, rank: RankId, addr: VirtAddr, len: usize) -> ViaResult<()> {
        let (node, pid) = (self.ranks[rank].node, self.ranks[rank].pid);
        // Cached registrations may still pin parts of the range; drop the
        // idle cache entries first so the frames actually come back.
        self.flush_caches()?;
        self.sys.munmap(node, pid, addr, len)
    }

    /// Deregister every idle cached registration on every node.
    pub fn flush_caches(&mut self) -> ViaResult<()> {
        let Comm { caches, sys, .. } = self;
        for (n, cache) in caches.iter_mut().enumerate() {
            cache.flush(&mut FabricNode {
                fabric: &mut *sys,
                node: n,
            })?;
        }
        Ok(())
    }

    /// Read a rank-local buffer back out.
    pub fn read_buffer(&mut self, rank: RankId, addr: VirtAddr, out: &mut [u8]) -> ViaResult<()> {
        let (node, pid) = (self.ranks[rank].node, self.ranks[rank].pid);
        self.sys.read_user(node, pid, addr, out)
    }

    // ------------------------------------------------------------------
    // Registration-cache plumbing
    // ------------------------------------------------------------------

    fn cached_acquire(
        &mut self,
        node: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        let Comm {
            caches, sys, stats, ..
        } = self;
        let misses0 = caches[node].stats().misses;
        let mem = caches[node].acquire(
            &mut FabricNode {
                fabric: &mut *sys,
                node,
            },
            pid,
            addr,
            len,
            tag,
        )?;
        if caches[node].stats().misses > misses0 {
            stats.registrations += 1;
            let base = simmem::page_base(addr);
            let pages = (simmem::page_align_up(addr + len as u64) - base) / PAGE_SIZE as u64;
            stats.pages_registered += pages;
        } else {
            stats.cache_hits += 1;
        }
        Ok(mem)
    }

    fn cached_release(&mut self, node: NodeId, mem: MemId) -> ViaResult<()> {
        let Comm { caches, sys, .. } = self;
        caches[node].release(
            &mut FabricNode {
                fabric: &mut *sys,
                node,
            },
            mem,
        )
    }

    // ------------------------------------------------------------------
    // PIO helpers (segment control traffic)
    // ------------------------------------------------------------------

    fn write_info(&mut self, s: RankId, r: RankId, slot: usize, info: &MsgInfo) -> ViaResult<()> {
        let pair = self.pair(s, r)?;
        let (r_node, mem, off) = (
            self.ranks[r].node,
            pair.r_seg_mem,
            pair.layout.info_off(slot),
        );
        self.sys
            .sci_write_bytes(&info.encode(), (r_node, mem, off))?;
        self.stats.control_writes += 1;
        self.stats.pio_bytes += INFO_SIZE as u64;
        Ok(())
    }

    /// Receiver writes the sender's response record `slot` (over SCI, into
    /// the sender's exported control segment) and marks it written, so the
    /// sender's progress engine reads it on its next round. The only place
    /// a record changes other than `release_send`'s reset.
    fn write_response(
        &mut self,
        s: RankId,
        r: RankId,
        slot: usize,
        resp: &Response,
    ) -> ViaResult<()> {
        let pair = self.pair_mut(s, r)?;
        let (mem, off) = (pair.s_seg_mem, pair.layout.resp_off(slot));
        // Marked before the store: a mark whose store failed costs one
        // read; a store without a mark would never be read.
        let newly = !std::mem::replace(&mut pair.resp_written[slot], true);
        self.resp_marks += newly as usize;
        let s_node = self.ranks[s].node;
        self.sys
            .sci_write_bytes(&resp.encode(), (s_node, mem, off))?;
        self.stats.control_writes += 1;
        self.stats.pio_bytes += RESP_SIZE as u64;
        Ok(())
    }

    /// Sender reads a response record from its own segment memory.
    fn read_response(&mut self, s: RankId, r: RankId, slot: usize) -> ViaResult<Response> {
        let pair = self.pair(s, r)?;
        let (node, pid) = (self.ranks[s].node, self.ranks[s].pid);
        let addr = pair.s_seg_addr + pair.layout.resp_off(slot) as u64;
        let mut b = [0u8; RESP_SIZE];
        self.sys.read_user(node, pid, addr, &mut b)?;
        Ok(Response::decode(&b))
    }

    /// Receiver reads an info record from its own segment memory.
    fn read_info(&mut self, s: RankId, r: RankId, slot: usize) -> ViaResult<MsgInfo> {
        let pair = self.pair(s, r)?;
        let (node, pid) = (self.ranks[r].node, self.ranks[r].pid);
        let addr = pair.r_seg_addr + pair.layout.info_off(slot) as u64;
        let mut b = [0u8; INFO_SIZE];
        self.sys.read_user(node, pid, addr, &mut b)?;
        Ok(MsgInfo::decode(&b))
    }

    /// Receiver clears an info slot in its own memory.
    fn clear_info(&mut self, s: RankId, r: RankId, slot: usize) -> ViaResult<()> {
        let pair = self.pair(s, r)?;
        let (node, pid) = (self.ranks[r].node, self.ranks[r].pid);
        let addr = pair.r_seg_addr + pair.layout.info_off(slot) as u64;
        self.sys.write_user(node, pid, addr, &[ACTIVE_FREE; 1])?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Send
    // ------------------------------------------------------------------

    /// Non-blocking send of `[addr, addr+len)` from `from`'s memory to
    /// rank `to` under `tag`. Drive completion with [`Comm::wait`]. Refused
    /// with [`ViaError::NoFreeSlot`] while every message slot of the pair is
    /// in flight; [`Comm::can_send`] asks the same before anything is sent.
    pub fn send(
        &mut self,
        from: RankId,
        to: RankId,
        tag: u32,
        addr: VirtAddr,
        len: usize,
    ) -> ViaResult<SendHandle> {
        if tag == ANY_TAG {
            return Err(ViaError::BadState("ANY_TAG is receive-only"));
        }
        let Some(slot) = self.free_slot(from, to)? else {
            return Err(ViaError::NoFreeSlot);
        };
        let proto = self.cfg.protocol_for(len);
        let (s_node, s_pid, s_tag) = {
            let i = &self.ranks[from];
            (i.node, i.pid, i.tag)
        };
        // What the send holds while it is live. One-copy and zero-copy
        // register early (CHEMPI step 2 on the sender side); if that fails
        // nothing is held yet.
        let state = match proto {
            Protocol::SharedMemory => SendState::AwaitDone {
                cached_mem: None,
                chunks: 0,
            },
            Protocol::OneCopy => SendState::AwaitDone {
                cached_mem: Some(self.cached_acquire(s_node, s_pid, addr, len, s_tag)?),
                chunks: len.div_ceil(self.cfg.chunk_bytes),
            },
            Protocol::ZeroCopy => SendState::ZcAwaitBuffer {
                cached_mem: self.cached_acquire(s_node, s_pid, addr, len, s_tag)?,
                addr,
                len,
            },
        };
        let pair = self.pair_mut(from, to)?;
        pair.slot_busy[slot] = true;
        let msg_id = pair.next_msg_id;
        pair.next_msg_id += 1;
        let p = PendingSend {
            seq: self.next_seq,
            from,
            to,
            slot,
            state,
        };
        let info = MsgInfo {
            active: ACTIVE_POSTED,
            proto: proto as u8,
            tag,
            len: len as u32,
            msg_id,
        };
        if let Err(e) = self.launch(&p, &info, addr) {
            // The send never became live; the launch error is the one to
            // report, whatever giving its slot and registration back says.
            let _ = self.release_send(&p);
            self.failed_send = Some((from, to));
            return Err(e);
        }
        self.next_seq += 1;
        self.in_flight.push(p);
        Ok(SendHandle {
            comm: self.id,
            seq: p.seq,
        })
    }

    /// Whether a [`Comm::send`] from `from` to `to` would find a free message
    /// slot now. Runs the progress round `send` runs first, so an error it
    /// returns is the one `send` would have returned. A caller that asks
    /// before it writes its payload pays nothing else for a full channel.
    pub fn can_send(&mut self, from: RankId, to: RankId) -> ViaResult<bool> {
        Ok(self.free_slot(from, to)?.is_some())
    }

    /// Reap finished sends so their slots free up, then pick the pair's first
    /// free slot; `None` (counted as a refusal) if every one is in flight.
    fn free_slot(&mut self, from: RankId, to: RankId) -> ViaResult<Option<usize>> {
        self.progress()?;
        let slot = self.pair(from, to)?.slot_busy.iter().position(|b| !b);
        self.stats.send_refusals += slot.is_none() as u64;
        Ok(slot)
    }

    /// Put a new send on the wire: payload and announcement for shared
    /// memory, announcement and chunk descriptors for one-copy, the
    /// announcement alone for zero-copy.
    fn launch(&mut self, p: &PendingSend, info: &MsgInfo, addr: VirtAddr) -> ViaResult<()> {
        let len = info.len as usize;
        match p.state {
            SendState::AwaitDone {
                cached_mem: None, ..
            } => {
                // Payload straight into the receiver's data slot, then the
                // info struct (order matters: data before announcement).
                let pair = self.pair(p.from, p.to)?;
                let src = (self.ranks[p.from].node, self.ranks[p.from].pid, addr);
                let dst = (
                    self.ranks[p.to].node,
                    pair.r_seg_mem,
                    pair.layout.data_off(p.slot),
                );
                self.sys.sci_write(src, len, dst)?;
                self.stats.pio_bytes += len as u64;
                self.stats.sm_msgs += 1;
                self.write_info(p.from, p.to, p.slot, info)
            }
            SendState::AwaitDone {
                cached_mem: Some(mem),
                ..
            } => {
                self.write_info(p.from, p.to, p.slot, info)?;
                // Chunked VIA sends out of the registered user buffer.
                let (s_node, vi_s) = (self.ranks[p.from].node, self.pair(p.from, p.to)?.vi_s);
                let mut off = 0usize;
                while off < len {
                    let chunk = (len - off).min(self.cfg.chunk_bytes);
                    self.sys
                        .post_send(s_node, vi_s, mem, addr + off as u64, chunk)?;
                    self.stats.oc_chunks += 1;
                    off += chunk;
                }
                self.sys.pump()?;
                self.stats.dma_bytes += len as u64;
                self.stats.oc_msgs += 1;
                Ok(())
            }
            // The RDMA fires when the rendezvous answer arrives.
            SendState::ZcAwaitBuffer { .. } | SendState::ZcAwaitDone { .. } => {
                self.write_info(p.from, p.to, p.slot, info)?;
                self.stats.zc_msgs += 1;
                Ok(())
            }
        }
    }

    /// Number of live sends (announced, not yet finished or discarded).
    /// Bounded by `pairs × info_slots`, whatever the traffic history.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Drive every live send whose response record was written since it was
    /// last read one step, oldest first (the communicator's progress engine
    /// — in a threaded MPI this runs on the communication thread). A send
    /// nobody answered is not read: its next step could only be "unchanged".
    /// A send that hits an error is discarded — slot and registration given
    /// back — and the error ends this round.
    pub fn progress(&mut self) -> ViaResult<()> {
        #[cfg(test)]
        if self.visit_every_send {
            return self.progress_every_send();
        }
        let mut i = 0;
        while self.resp_marks > 0 && i < self.in_flight.len() {
            let p = self.in_flight[i];
            if !self.take_mark(p.from, p.to, p.slot)? {
                i += 1;
                continue;
            }
            if self.visit(i, &p)? {
                i += 1;
            }
        }
        Ok(())
    }

    /// The reference `progress`: read every live send's record.
    #[cfg(test)]
    fn progress_every_send(&mut self) -> ViaResult<()> {
        let mut i = 0;
        while i < self.in_flight.len() {
            let p = self.in_flight[i];
            if self.visit(i, &p)? {
                i += 1;
            }
        }
        Ok(())
    }

    /// Step `in_flight[i]` (which is `p`); whether it is still live.
    fn visit(&mut self, i: usize, p: &PendingSend) -> ViaResult<bool> {
        self.stats.progress_visits += 1;
        match self.progress_one(p) {
            Ok(Some(state)) => {
                self.in_flight[i].state = state;
                Ok(true)
            }
            finished_or_failed => {
                self.in_flight.remove(i);
                let released = self.release_send(p);
                // The error that discarded the send wins over a failure
                // while cleaning up after it.
                if let Err(e) = finished_or_failed.and(released) {
                    self.failed_send = Some((p.from, p.to));
                    return Err(e);
                }
                Ok(false)
            }
        }
    }

    /// Sender and receiver of the last send that failed — discarded by a
    /// progress round or refused at launch — and forget them. A progress
    /// round steps the sends of every pair, so an error from
    /// [`Comm::send`] or [`Comm::can_send`] may belong to another pair
    /// than the caller's; this names the one it does belong to.
    pub fn take_failed_send(&mut self) -> Option<(RankId, RankId)> {
        self.failed_send.take()
    }

    /// Clear the "written" mark of `from → to`'s response record `slot`;
    /// whether it was set.
    fn take_mark(&mut self, from: RankId, to: RankId, slot: usize) -> ViaResult<bool> {
        let marked = std::mem::take(&mut self.pair_mut(from, to)?.resp_written[slot]);
        self.resp_marks -= marked as usize;
        Ok(marked)
    }

    /// One step of one live send: its next state, or `None` once the
    /// receiver has consumed the message.
    fn progress_one(&mut self, p: &PendingSend) -> ViaResult<Option<SendState>> {
        let resp = self.read_response(p.from, p.to, p.slot)?;
        match p.state {
            SendState::AwaitDone { .. } | SendState::ZcAwaitDone { .. } => {
                Ok((resp.state != RESP_DONE).then_some(p.state))
            }
            SendState::ZcAwaitBuffer {
                cached_mem,
                addr,
                len,
            } => {
                if resp.state != RESP_BUF_READY {
                    return Ok(Some(p.state));
                }
                let s_node = self.ranks[p.from].node;
                let vi_s = self.pair(p.from, p.to)?.vi_s;
                self.sys.post_rdma_write(
                    s_node,
                    vi_s,
                    cached_mem,
                    addr,
                    len,
                    MemId(resp.mem),
                    resp.addr,
                )?;
                self.sys.pump()?;
                // Fence: the RDMA-write completion is generated by the
                // *receiving* NIC's response packet, so waiting for it
                // here guarantees the payload landed before we announce
                // ZC_DONE — essential on the threaded fabric, where the
                // packet may still be in flight after one pump round.
                // Send completions of one-copy messages still in flight on
                // the same VI are drained along the way.
                loop {
                    let c = self.sys.wait_cq(s_node, vi_s)?;
                    if c.op == DescOp::RdmaWrite {
                        if c.status.is_error() {
                            return Err(ViaError::BadState("zero-copy RDMA completed in error"));
                        }
                        break;
                    }
                }
                self.stats.dma_bytes += len as u64;
                // Tell the receiver the payload landed.
                let info = self.read_info_as_sender(p.from, p.to, p.slot)?;
                self.write_info(
                    p.from,
                    p.to,
                    p.slot,
                    &MsgInfo {
                        active: ACTIVE_ZC_DONE,
                        ..info
                    },
                )?;
                Ok(Some(SendState::ZcAwaitDone { cached_mem }))
            }
        }
    }

    /// The sender does not normally read the remote info slot — but it
    /// wrote it, so it keeps a local copy; modelled by re-reading through
    /// SCI (cheap enough for the two control words of the rendezvous).
    fn read_info_as_sender(&mut self, s: RankId, r: RankId, slot: usize) -> ViaResult<MsgInfo> {
        let pair = self.pair(s, r)?;
        let (r_node, mem, off) = (
            self.ranks[r].node,
            pair.r_seg_mem,
            pair.layout.info_off(slot),
        );
        let mut b = [0u8; INFO_SIZE];
        self.sys.sci_read_bytes((r_node, mem, off), &mut b)?;
        Ok(MsgInfo::decode(&b))
    }

    /// Give back everything a send holds — the completions its one-copy
    /// chunks left on the sender's CQ, its registration-cache reference,
    /// its response record (and the record's mark) and its slot — whether
    /// it finished or is being discarded. Every step runs even if an
    /// earlier one fails; the first failure is reported.
    fn release_send(&mut self, p: &PendingSend) -> ViaResult<()> {
        let (node, pid) = (self.ranks[p.from].node, self.ranks[p.from].pid);
        let pair = self.pair_mut(p.from, p.to)?;
        pair.slot_busy[p.slot] = false;
        let vi_s = pair.vi_s;
        let resp_addr = pair.s_seg_addr + pair.layout.resp_off(p.slot) as u64;
        self.take_mark(p.from, p.to, p.slot)?;
        let reaped = match p.state {
            SendState::AwaitDone { chunks, .. } => self.reap_chunk_completions(node, vi_s, chunks),
            _ => Ok(()),
        };
        let released = match p.state.cached_mem() {
            Some(mem) => self.cached_release(node, mem),
            None => Ok(()),
        };
        // The response record is sender-local memory.
        let cleared = self.sys.write_user(node, pid, resp_addr, &[RESP_NONE; 1]);
        reaped.and(released).and(cleared)
    }

    /// Take a one-copy message's `Send` completions off the sender's CQ and
    /// check their status. Without this a one-way one-copy stream overruns
    /// the CQ. Fewer than `chunks` may be left — a zero-copy fence or a
    /// one-sided operation on the same VI drains what it finds — so an
    /// empty queue ends the reaping early.
    fn reap_chunk_completions(&mut self, node: NodeId, vi: ViId, chunks: usize) -> ViaResult<()> {
        let mut failed = false;
        for _ in 0..chunks {
            let Some(c) = self.sys.poll_cq(node, vi)? else {
                break;
            };
            failed |= c.status.is_error();
        }
        if failed {
            return Err(ViaError::BadState("one-copy chunk send completed in error"));
        }
        Ok(())
    }

    /// Whether `h`'s send is still live. A handle this communicator never
    /// issued — another communicator's, or a sequence number not reached
    /// yet — is a typed error.
    fn is_live(&self, h: SendHandle) -> ViaResult<bool> {
        if h.comm != self.id || h.seq >= self.next_seq {
            return Err(ViaError::BadId("send handle"));
        }
        Ok(self
            .in_flight
            .binary_search_by_key(&h.seq, |p| p.seq)
            .is_ok())
    }

    /// Block until a send completes. Gives up with [`ViaError::Timeout`]
    /// after the spin bound — a dead or non-receiving peer surfaces as a
    /// typed timeout, never a hang. A send that is no longer live counts
    /// as complete, however long ago it left.
    pub fn wait(&mut self, h: SendHandle) -> ViaResult<()> {
        for _ in 0..SPIN_LIMIT {
            if !self.is_live(h)? {
                return Ok(());
            }
            self.progress()?;
        }
        Err(ViaError::Timeout)
    }

    /// True once the send has completed (non-blocking test).
    pub fn test(&mut self, h: SendHandle) -> ViaResult<bool> {
        self.progress()?;
        Ok(!self.is_live(h)?)
    }

    // ------------------------------------------------------------------
    // Receive
    // ------------------------------------------------------------------

    /// Blocking receive at rank `at` from rank `from` with `tag`
    /// ([`ANY_TAG`] matches any). The payload lands in
    /// `[buf_addr, buf_addr + buf_len)` of `at`'s memory; returns the
    /// message length.
    pub fn recv(
        &mut self,
        at: RankId,
        from: RankId,
        tag: u32,
        buf_addr: VirtAddr,
        buf_len: usize,
    ) -> ViaResult<usize> {
        for _ in 0..SPIN_LIMIT {
            if let Some((slot, info)) = self.match_message(from, at, tag)? {
                return self.complete_recv(from, at, slot, info, buf_addr, buf_len);
            }
            // Nothing yet: drive senders (covers the single-threaded
            // rendezvous dance) and the fabric.
            self.progress()?;
        }
        Err(ViaError::Timeout)
    }

    /// Deadline-aware blocking receive: like [`Comm::recv`] but gives up
    /// with [`ViaError::Timeout`] once `budget` spin rounds have elapsed
    /// without a match. Lock clients waiting on a manager that may have
    /// died use a short budget so they detect the death instead of
    /// spinning the full protocol bound.
    pub fn recv_budget(
        &mut self,
        at: RankId,
        from: RankId,
        tag: u32,
        buf_addr: VirtAddr,
        buf_len: usize,
        budget: usize,
    ) -> ViaResult<usize> {
        for _ in 0..budget {
            if let Some((slot, info)) = self.match_message(from, at, tag)? {
                return self.complete_recv(from, at, slot, info, buf_addr, buf_len);
            }
            self.progress()?;
        }
        Err(ViaError::Timeout)
    }

    /// Non-blocking probe (`MPID_Iprobe`): is a message from `from`
    /// (or [`ANY_SOURCE`]) with `tag` (or [`ANY_TAG`]) receivable right
    /// now? Returns `(source, tag, len)` without consuming the message.
    pub fn iprobe(
        &mut self,
        at: RankId,
        from: RankId,
        tag: u32,
    ) -> ViaResult<Option<(RankId, u32, usize)>> {
        Ok(self
            .probe(at, from, tag)?
            .map(|(s, _, info)| (s, info.tag, info.len as usize)))
    }

    /// [`Comm::iprobe`] with what a receive needs to complete the match:
    /// `(source, slot, info)` of the oldest matching message.
    fn probe(
        &mut self,
        at: RankId,
        from: RankId,
        tag: u32,
    ) -> ViaResult<Option<(RankId, usize, MsgInfo)>> {
        self.progress()?;
        let sources = match from {
            ANY_SOURCE => 0..self.ranks.len(),
            s => s..s + 1,
        };
        // Round-robin over the channels, exactly like the Multidevice's
        // Iprobe loop over subdevices.
        let mut best: Option<(RankId, usize, MsgInfo)> = None;
        for s in sources {
            if from == ANY_SOURCE && s == at {
                continue;
            }
            if let Some((slot, info)) = self.match_message(s, at, tag)? {
                if best.as_ref().is_none_or(|(_, _, b)| info.msg_id < b.msg_id) {
                    best = Some((s, slot, info));
                }
            }
        }
        Ok(best)
    }

    /// Blocking receive from [`ANY_SOURCE`]: probes every channel until one
    /// is ready, then completes the receive. Returns `(source, len)`.
    pub fn recv_any(
        &mut self,
        at: RankId,
        tag: u32,
        buf_addr: VirtAddr,
        buf_len: usize,
    ) -> ViaResult<(RankId, usize)> {
        for _ in 0..SPIN_LIMIT {
            if let Some((src, slot, info)) = self.probe(at, ANY_SOURCE, tag)? {
                let n = self.complete_recv(src, at, slot, info, buf_addr, buf_len)?;
                return Ok((src, n));
            }
            self.progress()?;
        }
        Err(ViaError::Timeout)
    }

    /// Deadline-aware [`Comm::recv_any`]: bounded by `budget` spin rounds,
    /// failing with [`ViaError::Timeout`] instead of blocking the full
    /// protocol bound. The lock manager's serve loop polls with this so a
    /// quiet fabric hands control back for lease-expiry sweeps.
    pub fn recv_any_budget(
        &mut self,
        at: RankId,
        tag: u32,
        buf_addr: VirtAddr,
        buf_len: usize,
        budget: usize,
    ) -> ViaResult<(RankId, usize)> {
        for _ in 0..budget {
            if let Some((src, slot, info)) = self.probe(at, ANY_SOURCE, tag)? {
                let n = self.complete_recv(src, at, slot, info, buf_addr, buf_len)?;
                return Ok((src, n));
            }
            self.progress()?;
        }
        Err(ViaError::Timeout)
    }

    /// Find the lowest-msg_id posted message matching `tag`.
    fn match_message(
        &mut self,
        from: RankId,
        at: RankId,
        tag: u32,
    ) -> ViaResult<Option<(usize, MsgInfo)>> {
        // The info slots are contiguous in the receiver's own segment: one
        // read fetches the whole array.
        let pair = self.pair(from, at)?;
        let (node, pid) = (self.ranks[at].node, self.ranks[at].pid);
        let addr = pair.r_seg_addr + pair.layout.info_off(0) as u64;
        let mut raw = std::mem::take(&mut self.copy_scratch);
        raw.resize(self.cfg.info_slots * INFO_SIZE, 0);
        let read = self.sys.read_user(node, pid, addr, &mut raw);
        let best = raw
            .chunks_exact(INFO_SIZE)
            .map(MsgInfo::decode)
            .enumerate()
            .filter(|(_, i)| i.active == ACTIVE_POSTED && (tag == ANY_TAG || i.tag == tag))
            .min_by_key(|(_, i)| i.msg_id);
        self.copy_scratch = raw;
        read?;
        Ok(best)
    }

    /// Receiver side of the rendezvous: answer with the registered buffer,
    /// then drive the senders until the RDMA has landed.
    fn await_zero_copy(
        &mut self,
        from: RankId,
        at: RankId,
        slot: usize,
        mem: MemId,
        buf_addr: VirtAddr,
    ) -> ViaResult<()> {
        self.write_response(
            from,
            at,
            slot,
            &Response {
                state: RESP_BUF_READY,
                mem: mem.0,
                addr: buf_addr,
            },
        )?;
        for _ in 0..SPIN_LIMIT {
            self.progress()?;
            if self.read_info(from, at, slot)?.active == ACTIVE_ZC_DONE {
                return Ok(());
            }
        }
        // The zero-copy RDMA never arrived — the sender died or stalled
        // mid-rendezvous.
        Err(ViaError::Timeout)
    }

    fn complete_recv(
        &mut self,
        from: RankId,
        at: RankId,
        slot: usize,
        info: MsgInfo,
        buf_addr: VirtAddr,
        buf_len: usize,
    ) -> ViaResult<usize> {
        let len = info.len as usize;
        if len > buf_len {
            return Err(ViaError::RecvTooSmall {
                need: len,
                have: buf_len,
            });
        }
        let (r_node, r_pid, r_tag) = {
            let i = &self.ranks[at];
            (i.node, i.pid, i.tag)
        };
        match info.proto {
            // -------------------------- shared memory -------------------
            0 => {
                // Copy out of the segment's data slot into the user buffer.
                let pair = self.pair(from, at)?;
                let (seg_addr, data_off) = (pair.r_seg_addr, pair.layout.data_off(slot));
                let mut tmp = std::mem::take(&mut self.copy_scratch);
                tmp.clear();
                tmp.resize(len, 0);
                let copied = self
                    .sys
                    .read_user(r_node, r_pid, seg_addr + data_off as u64, &mut tmp)
                    .and_then(|()| self.sys.write_user(r_node, r_pid, buf_addr, &tmp));
                self.copy_scratch = tmp;
                copied?;
                self.stats.copy_bytes += len as u64;
                self.stats.copy_ops += 1;
                self.clear_info(from, at, slot)?;
                self.write_response(
                    from,
                    at,
                    slot,
                    &Response {
                        state: RESP_DONE,
                        mem: 0,
                        addr: 0,
                    },
                )?;
                Ok(len)
            }
            // ----------------------------- one-copy ---------------------
            1 => {
                let n_chunks = len.div_ceil(self.cfg.chunk_bytes);
                let (vi_r, oc_mem) = {
                    let pair = self.pair(from, at)?;
                    (pair.vi_r, pair.oc_mem)
                };
                let chunk_bytes = self.cfg.chunk_bytes;
                let mut off = 0usize;
                for _ in 0..n_chunks {
                    // `wait_cq`: on the deterministic fabric this pumps to
                    // quiescence and polls; on the threaded fabric it runs
                    // the node's wait ladder until the chunk arrives.
                    let c = self.sys.wait_cq(r_node, vi_r)?;
                    // An error completion (transport loss, drop, protection)
                    // means the chunk never landed in the ring buffer.
                    if c.status.is_error() {
                        return Err(ViaError::BadState("one-copy chunk completed in error"));
                    }
                    let ring_addr = self
                        .pair_mut(from, at)?
                        .oc_ring
                        .pop_front()
                        .ok_or(ViaError::BadState("one-copy ring has no posted buffer"))?;
                    // Copy chunk from the pre-registered ring buffer into
                    // the user buffer.
                    let mut tmp = std::mem::take(&mut self.copy_scratch);
                    tmp.clear();
                    tmp.resize(c.len, 0);
                    let copied = self
                        .sys
                        .read_user(r_node, r_pid, ring_addr, &mut tmp)
                        .and_then(|()| {
                            self.sys
                                .write_user(r_node, r_pid, buf_addr + off as u64, &tmp)
                        });
                    self.copy_scratch = tmp;
                    copied?;
                    self.stats.copy_bytes += c.len as u64;
                    self.stats.copy_ops += 1;
                    off += c.len;
                    // Repost the buffer.
                    self.pair_mut(from, at)?.oc_ring.push_back(ring_addr);
                    self.sys
                        .post_recv(r_node, vi_r, oc_mem, ring_addr, chunk_bytes)?;
                }
                if off != len {
                    return Err(ViaError::BadState("one-copy reassembly length mismatch"));
                }
                self.clear_info(from, at, slot)?;
                self.write_response(
                    from,
                    at,
                    slot,
                    &Response {
                        state: RESP_DONE,
                        mem: 0,
                        addr: 0,
                    },
                )?;
                Ok(len)
            }
            // ---------------------------- zero-copy ---------------------
            2 => {
                // Rendezvous: register the user buffer, answer, and wait
                // for the sender's RDMA to land.
                let mem = self.cached_acquire(r_node, r_pid, buf_addr, len, r_tag)?;
                // The registration is given back whether or not the
                // payload lands: a failed rendezvous must not leave the
                // receive buffer pinned.
                let landed = self.await_zero_copy(from, at, slot, mem, buf_addr);
                let released = self.cached_release(r_node, mem);
                landed?;
                released?;
                self.clear_info(from, at, slot)?;
                self.write_response(
                    from,
                    at,
                    slot,
                    &Response {
                        state: RESP_DONE,
                        mem: 0,
                        addr: 0,
                    },
                )?;
                Ok(len)
            }
            _ => Err(ViaError::BadState("unknown protocol discriminator")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;

    fn comm() -> Comm {
        Comm::new(
            2,
            2,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap()
    }

    /// Round-trip one message of `len` bytes and check integrity.
    fn roundtrip(c: &mut Comm, len: usize) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
        let sbuf = c.alloc_buffer(0, len.max(1)).unwrap();
        let rbuf = c.alloc_buffer(1, len.max(1)).unwrap();
        c.fill_buffer(0, sbuf, &data).unwrap();
        let h = c.send(0, 1, 42, sbuf, len).unwrap();
        let got = c.recv(1, 0, 42, rbuf, len).unwrap();
        assert_eq!(got, len);
        c.wait(h).unwrap();
        let mut out = vec![0u8; len];
        c.read_buffer(1, rbuf, &mut out).unwrap();
        assert_eq!(out, data, "payload corrupted at len {len}");
    }

    #[test]
    fn shared_memory_roundtrip() {
        let mut c = comm();
        assert_eq!(c.cfg.protocol_for(100), Protocol::SharedMemory);
        roundtrip(&mut c, 100);
        assert_eq!(c.stats.sm_msgs, 1);
        assert_eq!(c.stats.oc_msgs + c.stats.zc_msgs, 0);
    }

    #[test]
    fn one_copy_roundtrip() {
        let mut c = comm();
        let len = 3000; // > sm_max (512), <= one_copy_max (4096)
        assert_eq!(c.cfg.protocol_for(len), Protocol::OneCopy);
        roundtrip(&mut c, len);
        assert_eq!(c.stats.oc_msgs, 1);
        assert_eq!(c.stats.oc_chunks, 3, "3000 B in 1024-B chunks");
        assert!(c.stats.registrations >= 1, "sender buffer registered");
    }

    #[test]
    fn zero_copy_roundtrip() {
        let mut c = comm();
        let len = 20_000; // > one_copy_max
        assert_eq!(c.cfg.protocol_for(len), Protocol::ZeroCopy);
        roundtrip(&mut c, len);
        assert_eq!(c.stats.zc_msgs, 1);
        assert_eq!(c.stats.dma_bytes, 20_000);
        assert_eq!(c.stats.copy_bytes, 0, "zero copies on the payload path");
        assert!(c.stats.registrations >= 2, "both sides registered");
    }

    #[test]
    fn all_sizes_integrity_sweep() {
        let mut c = comm();
        for len in [1usize, 17, 512, 513, 1024, 2048, 4096, 4097, 9000, 40_000] {
            roundtrip(&mut c, len);
        }
    }

    #[test]
    fn cache_hits_on_buffer_reuse() {
        let mut c = comm();
        let len = 20_000;
        let sbuf = c.alloc_buffer(0, len).unwrap();
        let rbuf = c.alloc_buffer(1, len).unwrap();
        let data = vec![5u8; len];
        c.fill_buffer(0, sbuf, &data).unwrap();
        for _ in 0..4 {
            let h = c.send(0, 1, 7, sbuf, len).unwrap();
            c.recv(1, 0, 7, rbuf, len).unwrap();
            c.wait(h).unwrap();
        }
        // First message registers both buffers; the other three hit.
        assert_eq!(c.stats.registrations, 2);
        assert_eq!(c.stats.cache_hits, 6);
    }

    #[test]
    fn tag_matching_and_ordering() {
        let mut c = comm();
        let s1 = c.alloc_buffer(0, 64).unwrap();
        let s2 = c.alloc_buffer(0, 64).unwrap();
        c.fill_buffer(0, s1, b"first-tag-9").unwrap();
        c.fill_buffer(0, s2, b"second-tag-5").unwrap();
        let h1 = c.send(0, 1, 9, s1, 11).unwrap();
        let h2 = c.send(0, 1, 5, s2, 12).unwrap();
        // Receive tag 5 first even though it was sent second.
        let r = c.alloc_buffer(1, 64).unwrap();
        let n = c.recv(1, 0, 5, r, 64).unwrap();
        assert_eq!(n, 12);
        let mut out = vec![0u8; 12];
        c.read_buffer(1, r, &mut out).unwrap();
        assert_eq!(&out, b"second-tag-5");
        // ANY_TAG picks up the remaining (lowest msg_id) message.
        let n = c.recv(1, 0, ANY_TAG, r, 64).unwrap();
        assert_eq!(n, 11);
        c.wait(h1).unwrap();
        c.wait(h2).unwrap();
    }

    #[test]
    fn bidirectional_traffic() {
        let mut c = comm();
        let a = c.alloc_buffer(0, 256).unwrap();
        let b = c.alloc_buffer(1, 256).unwrap();
        c.fill_buffer(0, a, b"ping").unwrap();
        let h = c.send(0, 1, 1, a, 4).unwrap();
        c.recv(1, 0, 1, b, 256).unwrap();
        c.wait(h).unwrap();
        // Pong back.
        c.fill_buffer(1, b, b"pong").unwrap();
        let h = c.send(1, 0, 2, b, 4).unwrap();
        c.recv(0, 1, 2, a, 256).unwrap();
        c.wait(h).unwrap();
        let mut out = [0u8; 4];
        c.read_buffer(0, a, &mut out).unwrap();
        assert_eq!(&out, b"pong");
    }

    #[test]
    fn iprobe_and_any_source() {
        let mut c = comm();
        // Nothing to probe yet.
        assert!(c.iprobe(1, ANY_SOURCE, ANY_TAG).unwrap().is_none());
        let s = c.alloc_buffer(0, 64).unwrap();
        c.fill_buffer(0, s, b"from-zero").unwrap();
        let h = c.send(0, 1, 77, s, 9).unwrap();
        // Probe sees it without consuming.
        let (src, tag, len) = c.iprobe(1, ANY_SOURCE, ANY_TAG).unwrap().unwrap();
        assert_eq!((src, tag, len), (0, 77, 9));
        assert!(
            c.iprobe(1, ANY_SOURCE, ANY_TAG).unwrap().is_some(),
            "probe is non-destructive"
        );
        // Tag filter.
        assert!(c.iprobe(1, ANY_SOURCE, 99).unwrap().is_none());
        // recv_any consumes it and reports the source.
        let r = c.alloc_buffer(1, 64).unwrap();
        let (src, n) = c.recv_any(1, ANY_TAG, r, 64).unwrap();
        assert_eq!((src, n), (0, 9));
        c.wait(h).unwrap();
        let mut out = vec![0u8; 9];
        c.read_buffer(1, r, &mut out).unwrap();
        assert_eq!(&out, b"from-zero");
        assert!(c.iprobe(1, ANY_SOURCE, ANY_TAG).unwrap().is_none());
    }

    #[test]
    fn any_source_picks_either_sender() {
        // Three ranks: 0 and 2 both send to 1; ANY_SOURCE must drain both.
        let mut c = Comm::new(
            3,
            2,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let b0 = c.alloc_buffer(0, 16).unwrap();
        let b2 = c.alloc_buffer(2, 16).unwrap();
        c.fill_buffer(0, b0, b"zero").unwrap();
        c.fill_buffer(2, b2, b"twos").unwrap();
        let h0 = c.send(0, 1, 5, b0, 4).unwrap();
        let h2 = c.send(2, 1, 5, b2, 4).unwrap();
        let r = c.alloc_buffer(1, 16).unwrap();
        let mut sources = Vec::new();
        for _ in 0..2 {
            let (src, n) = c.recv_any(1, 5, r, 16).unwrap();
            assert_eq!(n, 4);
            sources.push(src);
        }
        sources.sort();
        assert_eq!(sources, vec![0, 2]);
        c.wait(h0).unwrap();
        c.wait(h2).unwrap();
    }

    /// Fire-and-forget SM traffic: the sender never waits, the next
    /// `send` reaps the previous one.
    fn fire_and_forget(c: &mut Comm, sbuf: VirtAddr, rbuf: VirtAddr, n: usize) -> SendHandle {
        let mut last = None;
        for _ in 0..n {
            last = Some(c.send(0, 1, 1, sbuf, 32).unwrap());
            assert_eq!(c.recv(1, 0, 1, rbuf, 64).unwrap(), 32);
        }
        last.expect("n > 0")
    }

    #[test]
    fn progress_cost_is_bounded_by_sends_in_flight_not_by_history() {
        let mut c = comm();
        let sbuf = c.alloc_buffer(0, 64).unwrap();
        let rbuf = c.alloc_buffer(1, 64).unwrap();
        fire_and_forget(&mut c, sbuf, rbuf, 100);
        let early = c.stats.progress_visits;
        fire_and_forget(&mut c, sbuf, rbuf, 9_800);
        let before_late = c.stats.progress_visits;
        fire_and_forget(&mut c, sbuf, rbuf, 100);
        let late = c.stats.progress_visits - before_late;
        assert_eq!(c.stats.sm_msgs, 10_000);
        // One live send at a time: each `send` examines exactly its
        // predecessor, whether 100 or 10 000 sends came before.
        assert!(early <= 100, "{early} visits for the first 100 messages");
        assert!(late <= 100, "{late} visits for the last 100 messages");
        c.progress().unwrap();
        assert_eq!(c.in_flight(), 0, "every send was received and reaped");
        assert_eq!(c.stats.progress_visits, 10_000, "one visit per message");
    }

    #[test]
    fn long_completed_handle_answers_without_progress() {
        let mut c = comm();
        let sbuf = c.alloc_buffer(0, 64).unwrap();
        let rbuf = c.alloc_buffer(1, 64).unwrap();
        let first = fire_and_forget(&mut c, sbuf, rbuf, 1);
        fire_and_forget(&mut c, sbuf, rbuf, 3_000);
        c.progress().unwrap();
        let visits = c.stats.progress_visits;
        c.wait(first).unwrap();
        assert!(c.test(first).unwrap());
        assert_eq!(c.stats.progress_visits, visits, "nothing left to examine");
    }

    #[test]
    fn foreign_and_future_handles_are_typed_errors() {
        let mut a = comm();
        let mut b = comm();
        let sbuf = a.alloc_buffer(0, 64).unwrap();
        let rbuf = a.alloc_buffer(1, 64).unwrap();
        let from_a = fire_and_forget(&mut a, sbuf, rbuf, 3);
        // `b` has sent nothing, and even if it had, the handle is not its own.
        assert!(matches!(b.wait(from_a), Err(ViaError::BadId(_))));
        assert!(matches!(b.test(from_a), Err(ViaError::BadId(_))));
        let sbuf = b.alloc_buffer(0, 64).unwrap();
        let rbuf = b.alloc_buffer(1, 64).unwrap();
        fire_and_forget(&mut b, sbuf, rbuf, 5);
        assert!(matches!(b.wait(from_a), Err(ViaError::BadId(_))));
        // A sequence number `a` has not reached yet.
        let future = SendHandle {
            comm: a.id,
            seq: a.next_seq,
        };
        assert!(matches!(a.wait(future), Err(ViaError::BadId(_))));
        assert!(matches!(a.test(future), Err(ViaError::BadId(_))));
        a.wait(from_a).unwrap();
    }

    #[test]
    fn a_send_that_fails_to_launch_holds_nothing() {
        let mut c = comm();
        let len = 3000; // one-copy
        let sbuf = c.alloc_buffer(0, len).unwrap();
        c.fill_buffer(0, sbuf, &vec![3u8; len]).unwrap();
        // The first chunk's Send completion overruns the CQ: `pump` fails
        // after the registration was acquired and the slot taken.
        c.system_mut().install_fault_plan(&vialock::fault::handle(
            vialock::FaultPlan::new(5).fail(vialock::FaultSite::CqOverrun, 1),
        ));
        assert!(matches!(
            c.send(0, 1, 9, sbuf, len),
            Err(ViaError::CqOverrun)
        ));
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.cache_in_use(0), 0, "registration given back");
        assert_eq!(c.take_failed_send(), Some((0, 1)));
        assert_eq!(c.take_failed_send(), None, "read once");
        // All four slots of the pair are still free.
        for _ in 0..c.cfg.info_slots {
            c.send(0, 1, 9, sbuf, 32).unwrap();
        }
        assert!(!c.can_send(0, 1).unwrap());
        assert!(matches!(
            c.send(0, 1, 9, sbuf, 32),
            Err(ViaError::NoFreeSlot)
        ));
        assert_eq!(
            c.stats.send_refusals, 2,
            "the refused check and the refused send"
        );
    }

    #[test]
    fn retire_rank_frees_the_survivors_slots_toward_the_casualty() {
        let mut c = Comm::new(
            3,
            3,
            KernelConfig::medium(),
            StrategyKind::KiobufReliable,
            MsgConfig::tiny(),
        )
        .unwrap();
        let b = c.alloc_buffer(0, 64).unwrap();
        c.send(0, 1, 1, b, 32).unwrap();
        c.send(0, 1, 1, b, 32).unwrap();
        let kept = c.send(0, 2, 1, b, 32).unwrap();
        c.retire_rank(1).unwrap();
        assert!(c.pair(0, 1).unwrap().slot_busy.iter().all(|busy| !busy));
        assert_eq!(c.in_flight(), 1, "survivor-to-survivor send untouched");
        assert!(c.is_live(kept).unwrap());
    }

    #[test]
    fn out_of_range_ranks_are_typed_errors() {
        let mut c = comm();
        let b = c.alloc_buffer(0, 64).unwrap();
        assert!(matches!(c.send(0, 0, 1, b, 8), Err(ViaError::BadId(_))));
        assert!(matches!(c.send(0, 2, 1, b, 8), Err(ViaError::BadId(_))));
        assert!(matches!(c.send(5, 1, 1, b, 8), Err(ViaError::BadId(_))));
    }

    #[test]
    fn recv_buffer_too_small() {
        let mut c = comm();
        let s = c.alloc_buffer(0, 128).unwrap();
        c.fill_buffer(0, s, &[1u8; 128]).unwrap();
        let _h = c.send(0, 1, 3, s, 128).unwrap();
        let r = c.alloc_buffer(1, 16).unwrap();
        assert!(matches!(
            c.recv(1, 0, 3, r, 16),
            Err(ViaError::RecvTooSmall {
                need: 128,
                have: 16
            })
        ));
    }
}
