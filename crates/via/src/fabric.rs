//! The [`Fabric`] abstraction: one surface, two fabrics.
//!
//! Everything above the NIC — the message layer, the collectives, the
//! workload drivers, the chaos harness — talks to a cluster through this
//! trait, so the same code runs on either implementation:
//!
//! * [`crate::ViaSystem`] — the deterministic fabric: every node lives on
//!   the caller's thread, [`Fabric::pump`] drains the whole cluster to
//!   quiescence in FIFO order. Reproducible to the packet; the fabric of
//!   choice for invariant checks and seeded chaos sweeps.
//! * [`crate::ThreadedCluster`] — the concurrency-faithful fabric: one OS
//!   thread per node, a lock-free SPSC ring per ordered pair of nodes as
//!   the wire, an `mpsc` control channel per node for commands, real
//!   interleavings. The fabric of choice for racing
//!   registration/pinning/DMA against the VM the way the paper's mechanism
//!   must survive in production.
//!
//! The trade-off is fundamental: the deterministic fabric can order every
//! delivery (and so can promise *which* packet a seeded fault hits), while
//! the threaded fabric promises only per-VI FIFO and charges real
//! synchronization costs. Code written against `Fabric` gets both.
//!
//! An operation that touches one node is written once, here, as a provided
//! method: a closure over [`Node`] handed to [`Fabric::try_with_node`],
//! which the deterministic fabric calls in place and the threaded one
//! ships to the node's service thread. A fabric implements only what
//! needs more than a `Node` (DESIGN.md §11).

use std::time::Duration;

use simmem::{Capabilities, Pid, VirtAddr};
use vialock::FaultHandle;

use crate::descriptor::Descriptor;
use crate::error::{ViaError, ViaResult};
use crate::nic::{Nic, NicStats, Node};
use crate::system::NodeId;
use crate::tpt::{MemId, ProtectionTag};
use crate::vi::{Completion, Reliability, ViId};

/// A cluster of VIA nodes, node-indexed. See the module docs for the two
/// implementations and their trade-off.
///
/// Twelve methods are required, because they need the whole cluster, the
/// node's wire, or the caller's borrowed bytes; every other method is
/// provided over [`Fabric::try_with_node`] and is not meant to be
/// overridden. All of them take `&mut self`, even where the deterministic
/// fabric could get by with `&self`: the trait models the command
/// round-trip, not the cheapest implementation.
pub trait Fabric {
    /// Number of nodes in the cluster.
    fn node_count(&self) -> usize;

    /// Run a closure against node `n`'s [`Node`] and return its result.
    /// On the threaded fabric the closure is shipped to the node's service
    /// thread, hence the `Send + 'static` bounds; a node whose thread is
    /// gone answers [`ViaError::PeerGone`].
    fn try_with_node<R, G>(&mut self, n: NodeId, f: G) -> ViaResult<R>
    where
        R: Send + 'static,
        G: FnOnce(&mut Node) -> R + Send + 'static;

    /// [`Fabric::try_with_node`] for harness code that reaches below the
    /// fabric surface (antagonist processes, registry post-mortems) and
    /// has no use for a dead node. Panics if node `n` is unreachable.
    fn with_node<R, G>(&mut self, n: NodeId, f: G) -> R
    where
        R: Send + 'static,
        G: FnOnce(&mut Node) -> R + Send + 'static,
    {
        self.try_with_node(n, f)
            .unwrap_or_else(|e| panic!("with_node: node {n} unreachable: {e}"))
    }

    /// Spawn an unprivileged process on node `n`. Panics if node `n` is
    /// unreachable.
    fn spawn_process(&mut self, n: NodeId) -> Pid {
        self.try_with_node(n, |node| node.kernel.spawn_process(Capabilities::default()))
            .unwrap_or_else(|e| panic!("spawn_process: node {n} unreachable: {e}"))
    }

    /// Process exit on node `n`: the kernel agent reclaims every TPT
    /// entry, pin and mlock interval the process owned, breaks its VIs,
    /// then the kernel tears the address space down.
    fn exit_process(&mut self, n: NodeId, pid: Pid) -> ViaResult<()> {
        self.try_with_node(n, move |node| node.exit_process(pid))?
    }

    /// Anonymous mapping in a node-local process.
    fn mmap(&mut self, n: NodeId, pid: Pid, len: usize, prot: u8) -> ViaResult<VirtAddr> {
        self.try_with_node(n, move |node| Ok(node.kernel.mmap_anon(pid, len, prot)?))?
    }

    /// Unmap a range in a node-local process.
    fn munmap(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, len: usize) -> ViaResult<()> {
        self.try_with_node(n, move |node| Ok(node.kernel.munmap(pid, addr, len)?))?
    }

    /// Fault every page of `[addr, addr+len)` present (write if `write`).
    fn touch_pages(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        write: bool,
    ) -> ViaResult<()> {
        self.try_with_node(n, move |node| {
            Ok(node.kernel.touch_pages(pid, addr, len, write)?)
        })?
    }

    /// CPU store into user memory (runs the fault path).
    fn write_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, data: &[u8]) -> ViaResult<()>;

    /// CPU load from user memory.
    fn read_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, out: &mut [u8]) -> ViaResult<()>;

    /// Create a VI on node `n`.
    fn create_vi(&mut self, n: NodeId, pid: Pid, tag: ProtectionTag) -> ViaResult<ViId> {
        self.try_with_node(n, move |node| node.nic.create_vi(pid, tag))
    }

    /// Set a VI's reliability level. Delivery semantics are decided by the
    /// *receiving* VI's level, so symmetric connections should set both
    /// ends.
    fn set_reliability(&mut self, n: NodeId, vi: ViId, r: Reliability) -> ViaResult<()> {
        self.try_with_node(n, move |node| {
            node.nic.vi_mut(vi).map(|v| v.reliability = r)
        })?
    }

    /// Connect two VIs (the client/server handshake collapsed into one
    /// fabric-level operation) by [`connect_rule`]. Both must be `Idle`; a
    /// refused connect leaves both as it found them.
    fn connect(&mut self, a: (NodeId, ViId), b: (NodeId, ViId)) -> ViaResult<()>;

    /// Register memory on node `n` (kernel-agent trap). RDMA-write enabled,
    /// RDMA-read disabled — the common MPI setting.
    fn register_mem(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        self.register_mem_attrs(n, pid, addr, len, tag, true, false)
    }

    /// Register memory with explicit RDMA attributes.
    #[allow(clippy::too_many_arguments)]
    fn register_mem_attrs(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
        rdma_write: bool,
        rdma_read: bool,
    ) -> ViaResult<MemId> {
        self.try_with_node(n, move |node| {
            node.register_mem_attrs(pid, addr, len, tag, rdma_write, rdma_read)
        })?
    }

    /// Deregister memory on node `n`.
    fn deregister_mem(&mut self, n: NodeId, mem: MemId) -> ViaResult<()> {
        self.try_with_node(n, move |node| node.deregister_mem(mem))?
    }

    /// Post an arbitrary send-side descriptor and ring the doorbell.
    fn post_send_desc(&mut self, n: NodeId, vi: ViId, desc: Descriptor) -> ViaResult<()> {
        self.try_with_node(n, move |node| node.nic.post(vi, desc, true))?
    }

    /// Post an arbitrary receive descriptor.
    fn post_recv_desc(&mut self, n: NodeId, vi: ViId, desc: Descriptor) -> ViaResult<()> {
        self.try_with_node(n, move |node| node.nic.post(vi, desc, false))?
    }
    /// Post a one-segment send descriptor.
    fn post_send(
        &mut self,
        n: NodeId,
        vi: ViId,
        mem: MemId,
        addr: VirtAddr,
        len: usize,
    ) -> ViaResult<()> {
        self.post_send_desc(n, vi, Descriptor::send(mem, addr, len))
    }

    /// Post a one-segment receive descriptor.
    fn post_recv(
        &mut self,
        n: NodeId,
        vi: ViId,
        mem: MemId,
        addr: VirtAddr,
        len: usize,
    ) -> ViaResult<()> {
        self.post_recv_desc(n, vi, Descriptor::recv(mem, addr, len))
    }

    /// Post a one-segment RDMA write.
    #[allow(clippy::too_many_arguments)]
    fn post_rdma_write(
        &mut self,
        n: NodeId,
        vi: ViId,
        local_mem: MemId,
        local_addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> ViaResult<()> {
        self.post_send_desc(
            n,
            vi,
            Descriptor::rdma_write(local_mem, local_addr, len, remote_mem, remote_addr),
        )
    }

    /// Post a one-segment RDMA read.
    #[allow(clippy::too_many_arguments)]
    fn post_rdma_read(
        &mut self,
        n: NodeId,
        vi: ViId,
        local_mem: MemId,
        local_addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> ViaResult<()> {
        self.post_send_desc(
            n,
            vi,
            Descriptor::rdma_read(local_mem, local_addr, len, remote_mem, remote_addr),
        )
    }

    /// Post a one-segment atomic compare-and-swap: if the u64 at
    /// `(remote_mem, remote_addr)` equals `compare` it becomes `swap`;
    /// the old value lands in the 8-byte local buffer either way.
    #[allow(clippy::too_many_arguments)]
    fn post_atomic_cas(
        &mut self,
        n: NodeId,
        vi: ViId,
        local_mem: MemId,
        local_addr: VirtAddr,
        remote_mem: MemId,
        remote_addr: VirtAddr,
        compare: u64,
        swap: u64,
    ) -> ViaResult<()> {
        self.post_send_desc(
            n,
            vi,
            Descriptor::atomic_cas(
                local_mem,
                local_addr,
                remote_mem,
                remote_addr,
                compare,
                swap,
            ),
        )
    }

    /// Poll one VI's completion queue (non-blocking).
    fn poll_cq(&mut self, n: NodeId, vi: ViId) -> ViaResult<Option<Completion>> {
        self.try_with_node(n, move |node| node.nic.vi_mut(vi).map(|v| v.poll_cq()))?
    }

    /// Block until one completion is available on the VI's CQ. On the
    /// deterministic fabric this pumps the cluster to quiescence and polls;
    /// on the threaded fabric it runs the node's spin→yield→park wait
    /// ladder under the cluster's wait timeout.
    fn wait_cq(&mut self, n: NodeId, vi: ViId) -> ViaResult<Completion>;

    /// [`Fabric::wait_cq`] bounded by an explicit deadline: gives up with
    /// [`ViaError::Timeout`] once `timeout` has elapsed with no completion,
    /// so no caller blocks indefinitely on a dead or silent peer. The
    /// deterministic fabric pumps to quiescence first — if the completion
    /// is not there after a full pump it never will be, and the timeout
    /// maps onto that single check.
    fn wait_cq_deadline(&mut self, n: NodeId, vi: ViId, timeout: Duration)
        -> ViaResult<Completion>;

    /// Make progress: drain send queues, route and deliver packets. On the
    /// deterministic fabric this runs to quiescence and returns the total
    /// packets delivered; on the threaded fabric it is one bounded round
    /// per node (service threads also progress autonomously). Delivery
    /// errors (no receive descriptor, protection) are recorded in NIC
    /// stats and VI state; the first one observed is also returned.
    fn pump(&mut self) -> ViaResult<usize>;

    /// SCI-style programmed I/O: the CPU on `src` loads `len` bytes from
    /// its own user buffer and stores them into memory **imported** from
    /// `dst` — a registered (exported) region addressed by `(MemId, byte
    /// offset)`. The destination span is checked
    /// ([`Node::check_pio_span`]) before anything is sized from `len`.
    ///
    /// No descriptors, no doorbells: protection on the importer side is the
    /// host MMU (modelled by the mapping existing at all), and on the
    /// exporter side the region's own tag, so translation uses the region
    /// tag. The transfer still lands through the TPT's *physical* frames —
    /// an exported page that the VM relocated under a bad pinning strategy
    /// is missed exactly as with DMA.
    fn sci_write(
        &mut self,
        src: (NodeId, Pid, VirtAddr),
        len: usize,
        dst: (NodeId, MemId, usize),
    ) -> ViaResult<()>;

    /// [`Fabric::sci_write`] with an in-flight byte buffer as source.
    fn sci_write_bytes(&mut self, data: &[u8], dst: (NodeId, MemId, usize)) -> ViaResult<()>;

    /// SCI remote read (expensive on real hardware; completeness + tests).
    fn sci_read_bytes(&mut self, src: (NodeId, MemId, usize), out: &mut [u8]) -> ViaResult<()>;

    /// Route every node's fault sites through one shared seeded plan.
    /// Panics if a node is unreachable.
    ///
    /// On the deterministic fabric the plan's rule order maps 1:1 onto the
    /// delivery order, so "fault the third packet" is meaningful; on the
    /// threaded fabric the nodes consult the shared plan in whatever order
    /// their threads race to it. For a threaded run that reproduces, give
    /// each node its own plan instead —
    /// `try_with_node(n, move |node| node.install_fault_plan(&plan_n))` —
    /// which every node consults in its own delivery order
    /// (`crates/via/tests/fabric_diff.rs`, DESIGN.md §11).
    fn install_fault_plan(&mut self, plan: &FaultHandle) {
        for n in 0..self.node_count() {
            let plan = plan.clone();
            self.try_with_node(n, move |node| node.install_fault_plan(&plan))
                .unwrap_or_else(|e| panic!("install_fault_plan: node {n} unreachable: {e}"));
        }
    }

    /// The chaos harness's safety net: registry census, no orphaned
    /// frames, TPT occupancy, and the fabric-wide packet-pool ledger. The
    /// threaded fabric quiesces the cluster first (the ledger only
    /// balances with no packets in flight).
    fn check_invariants(&mut self) -> Result<(), String>;

    /// Snapshot one node's NIC counters. Panics if node `n` is
    /// unreachable.
    fn nic_stats(&mut self, n: NodeId) -> NicStats {
        self.try_with_node(n, |node| node.nic.stats)
            .unwrap_or_else(|e| panic!("nic_stats: node {n} unreachable: {e}"))
    }
}

/// A step of [`connect_rule`]: an edit of one NIC's VI table, boxed so the
/// threaded fabric can ship it to the node that owns the table.
pub(crate) type PeerEdit = Box<dyn FnOnce(&mut Nic) -> ViaResult<()> + Send>;

/// The one connect rule, whatever holds the nodes: refuse `a == b`, point
/// `a` at `b`, point `b` at `a`, and if `b` refuses un-point `a`, so a
/// failed connect leaves both VIs as it found them. `at(n, edit)` applies
/// `edit` to node `n`'s NIC.
pub(crate) fn connect_rule(
    a: (NodeId, ViId),
    b: (NodeId, ViId),
    mut at: impl FnMut(NodeId, PeerEdit) -> ViaResult<()>,
) -> ViaResult<()> {
    if a == b {
        return Err(ViaError::BadState("connect VI to itself"));
    }
    at(a.0, Box::new(move |nic| nic.set_peer(a.1, b)))?;
    let second = at(b.0, Box::new(move |nic| nic.set_peer(b.1, a)));
    if second.is_err() {
        let _ = at(a.0, Box::new(move |nic| nic.clear_peer(a.1)));
    }
    second
}

/// A registration port: the two kernel-agent calls the registration cache
/// needs, abstracted so the cache works against a bare [`Node`] (inside a
/// service thread or the deterministic fabric) or against a
/// [`FabricNode`] adapter (through the trait, command round-trips and
/// all). Method names are deliberately distinct from the inherent
/// `register_mem`/`deregister_mem` so the `Node` impl cannot recurse.
pub trait RegPort {
    /// `VipRegisterMem` with the default attributes (RDMA-write on).
    fn port_register(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId>;

    /// `VipDeregisterMem`.
    fn port_deregister(&mut self, mem: MemId) -> ViaResult<()>;
}

impl RegPort for Node {
    fn port_register(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        self.register_mem(pid, addr, len, tag)
    }

    fn port_deregister(&mut self, mem: MemId) -> ViaResult<()> {
        self.deregister_mem(mem)
    }
}

/// One node of a fabric viewed as a [`RegPort`].
pub struct FabricNode<'a, F: Fabric> {
    pub fabric: &'a mut F,
    pub node: NodeId,
}

impl<F: Fabric> RegPort for FabricNode<'_, F> {
    fn port_register(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        self.fabric.register_mem(self.node, pid, addr, len, tag)
    }

    fn port_deregister(&mut self, mem: MemId) -> ViaResult<()> {
        self.fabric.deregister_mem(self.node, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ViaSystem;
    use simmem::{prot, KernelConfig, PAGE_SIZE};
    use vialock::StrategyKind;

    #[test]
    fn wait_cq_without_traffic_is_bad_state() {
        let mut sys = ViaSystem::new(1, KernelConfig::small(), StrategyKind::KiobufReliable);
        let p = Fabric::spawn_process(&mut sys, 0);
        let vi = Fabric::create_vi(&mut sys, 0, p, ProtectionTag(1)).unwrap();
        assert!(matches!(
            Fabric::wait_cq(&mut sys, 0, vi),
            Err(ViaError::BadState(_))
        ));
    }

    #[test]
    fn fabric_node_is_a_reg_port() {
        let mut sys = ViaSystem::new(1, KernelConfig::small(), StrategyKind::KiobufReliable);
        let p = Fabric::spawn_process(&mut sys, 0);
        let buf = Fabric::mmap(&mut sys, 0, p, 2 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        let mut port = FabricNode {
            fabric: &mut sys,
            node: 0,
        };
        let mem = port
            .port_register(p, buf, 2 * PAGE_SIZE, ProtectionTag(1))
            .unwrap();
        port.port_deregister(mem).unwrap();
    }
}
