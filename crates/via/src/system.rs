//! The fabric: a set of [`Node`]s plus packet routing — the "cluster" a
//! VIA application runs on.
//!
//! [`ViaSystem::pump`] walks every NIC's dense VI table once, in place,
//! draining the send queues into the in-flight queue, then delivers in
//! rounds (a delivery may answer with a response packet, a wire fault may
//! postpone one) until nothing is in flight. Delivery never posts a send,
//! so one collection pass per pump finds all the work there is. What a
//! packet meets on arrival is the node's rule (`Node::ingress`); this
//! fabric only decides that a requeued packet joins the next round. All
//! methods are node-indexed so one test can hold the entire cluster.

use std::time::Duration;

use simmem::{Kernel, KernelConfig, Pid, VirtAddr};
use vialock::StrategyKind;

use crate::descriptor::Descriptor;
use crate::error::{ViaError, ViaResult};
use crate::fabric::{connect_rule, Fabric};
use crate::nic::{Node, Packet, DEFAULT_TPT_PAGES};
use crate::tpt::{MemId, ProtectionTag};
use crate::vi::{Completion, Reliability, ViId, ViState};

/// Index of a node in the system.
pub type NodeId = usize;

/// A cluster of nodes connected by a (so far ideal) fabric.
pub struct ViaSystem {
    nodes: Vec<Node>,
    /// Packets in flight, delivered FIFO by [`ViaSystem::pump`]; during a
    /// pump, the next delivery round.
    in_flight: Vec<Packet>,
    /// Connection manager: listening endpoints keyed by
    /// (node, discriminator) — the VIA connection-establishment address.
    listeners: std::collections::HashMap<(NodeId, u64), ViId>,
    /// The delivery round [`ViaSystem::pump`] is working through; empty
    /// between pumps. Swapped with `in_flight` each round and drained, so
    /// neither vector gives up its capacity.
    round: Vec<Packet>,
    /// Scratch staging buffer reused by [`Fabric::sci_write`].
    pio_scratch: Vec<u8>,
}

impl ViaSystem {
    /// Build `n` identical nodes with the given kernel configuration and
    /// pinning strategy.
    pub fn new(n: usize, config: KernelConfig, strategy: StrategyKind) -> Self {
        ViaSystem {
            nodes: (0..n)
                .map(|_| Node::new(config, strategy, DEFAULT_TPT_PAGES))
                .collect(),
            in_flight: Vec::new(),
            listeners: std::collections::HashMap::new(),
            round: Vec::new(),
            pio_scratch: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow one node.
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n]
    }

    /// Borrow one node mutably.
    pub fn node_mut(&mut self, n: NodeId) -> &mut Node {
        &mut self.nodes[n]
    }

    /// Direct access to a node's kernel (workload harnesses use this to run
    /// antagonist processes).
    pub fn kernel_mut(&mut self, n: NodeId) -> &mut Kernel {
        &mut self.nodes[n].kernel
    }

    /// [`Fabric::install_fault_plan`].
    pub fn install_fault_plan(&mut self, plan: &vialock::FaultHandle) {
        Fabric::install_fault_plan(self, plan)
    }

    /// [`Fabric::exit_process`].
    pub fn exit_process(&mut self, n: NodeId, pid: Pid) -> ViaResult<()> {
        Fabric::exit_process(self, n, pid)
    }

    /// Scope-bound process lifetime: spawn a process on node `n`, run `f`
    /// with it, then tear it down through [`ViaSystem::exit_process`] even
    /// when `f` fails — so a mid-registration error cannot leak pins.
    pub fn with_process<T>(
        &mut self,
        n: NodeId,
        f: impl FnOnce(&mut Self, Pid) -> ViaResult<T>,
    ) -> ViaResult<T> {
        let pid = self.spawn_process(n);
        let r = f(self, pid);
        let cleanup = self.nodes[n].exit_process(pid);
        let v = r?;
        cleanup?;
        Ok(v)
    }

    /// The chaos harness's safety net, checked after every operation:
    ///
    /// 1. every node's registry census holds (per-frame pin counts equal
    ///    the live registrations covering them);
    /// 2. no orphaned frames anywhere (reliable pinning's whole promise —
    ///    callers using `RefcountOnly` should expect this to trip under
    ///    pressure, which is the paper's point);
    /// 3. TPT occupancy never exceeds capacity;
    /// 4. the packet-pool ledger balances: buffers taken minus returned,
    ///    summed fabric-wide, equals the pool-backed packets still in
    ///    flight.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            node.check_local_invariants()
                .map_err(|e| format!("node {i}: {e}"))?;
        }
        let outstanding: i64 = self.nodes.iter().map(|n| n.pool.outstanding()).sum();
        let in_flight = self
            .in_flight
            .iter()
            .filter(|p| p.payload.capacity() > 0)
            .count() as i64;
        if outstanding != in_flight {
            return Err(format!(
                "pool ledger imbalance: {outstanding} buffers outstanding, \
                 {in_flight} pool-backed packets in flight"
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The fabric surface without `Fabric` in scope: each of these forwards
    // to the trait method of the same name and adds nothing of its own.
    // ------------------------------------------------------------------

    /// [`Fabric::spawn_process`].
    pub fn spawn_process(&mut self, n: NodeId) -> Pid {
        Fabric::spawn_process(self, n)
    }

    /// [`Fabric::mmap`].
    pub fn mmap(&mut self, n: NodeId, pid: Pid, len: usize, prot: u8) -> ViaResult<VirtAddr> {
        Fabric::mmap(self, n, pid, len, prot)
    }

    /// [`Fabric::munmap`].
    pub fn munmap(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, len: usize) -> ViaResult<()> {
        Fabric::munmap(self, n, pid, addr, len)
    }

    /// [`Fabric::touch_pages`].
    pub fn touch_pages(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        write: bool,
    ) -> ViaResult<()> {
        Fabric::touch_pages(self, n, pid, addr, len, write)
    }

    /// [`Fabric::write_user`].
    pub fn write_user(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        data: &[u8],
    ) -> ViaResult<()> {
        Fabric::write_user(self, n, pid, addr, data)
    }

    /// [`Fabric::read_user`].
    pub fn read_user(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        out: &mut [u8],
    ) -> ViaResult<()> {
        Fabric::read_user(self, n, pid, addr, out)
    }

    /// [`Fabric::create_vi`].
    pub fn create_vi(&mut self, n: NodeId, pid: Pid, tag: ProtectionTag) -> ViaResult<ViId> {
        Fabric::create_vi(self, n, pid, tag)
    }

    /// [`Fabric::set_reliability`].
    pub fn set_reliability(&mut self, n: NodeId, vi: ViId, r: Reliability) -> ViaResult<()> {
        Fabric::set_reliability(self, n, vi, r)
    }

    /// [`Fabric::connect`].
    pub fn connect(&mut self, a: (NodeId, ViId), b: (NodeId, ViId)) -> ViaResult<()> {
        Fabric::connect(self, a, b)
    }

    /// `VipConnectWait` (server side): park an idle VI on a connection
    /// discriminator. A later [`ViaSystem::connect_request`] to the same
    /// (node, discriminator) completes the handshake.
    pub fn connect_wait(&mut self, n: NodeId, vi: ViId, discriminator: u64) -> ViaResult<()> {
        if self.listeners.contains_key(&(n, discriminator)) {
            return Err(ViaError::BadState("discriminator already has a listener"));
        }
        let v = self.nodes[n].nic.vi_mut(vi)?;
        if v.state != ViState::Idle {
            return Err(ViaError::BadState("connect_wait on non-idle VI"));
        }
        v.state = ViState::Listening;
        self.listeners.insert((n, discriminator), vi);
        Ok(())
    }

    /// `VipConnectRequest` (client side): connect the idle VI `a` to the
    /// listener parked at `(server_node, discriminator)`. The listener is
    /// un-parked, the two are connected by the rule every connect runs
    /// ([`Fabric::connect`]), and on any refusal the listener is parked
    /// again: the client stays idle and the discriminator stays taken.
    pub fn connect_request(
        &mut self,
        a: (NodeId, ViId),
        server_node: NodeId,
        discriminator: u64,
    ) -> ViaResult<()> {
        let key = (server_node, discriminator);
        let server_vi = *self
            .listeners
            .get(&key)
            .ok_or(ViaError::BadState("no listener at discriminator"))?;
        let v = self.nodes[server_node].nic.vi_mut(server_vi)?;
        if v.state != ViState::Listening {
            // Its process exited while it was parked.
            return Err(ViaError::BadState("listener is no longer listening"));
        }
        v.state = ViState::Idle;
        let connected = self.connect(a, (server_node, server_vi));
        if connected.is_ok() {
            self.listeners.remove(&key);
        } else {
            self.nodes[server_node].nic.vi_mut(server_vi)?.state = ViState::Listening;
        }
        connected
    }

    /// `VipDisconnect`: tear a connection down from either end. Both VIs
    /// return to `Idle`; descriptors still queued complete as `Dropped`.
    pub fn disconnect(&mut self, n: NodeId, vi: ViId) -> ViaResult<()> {
        let peer = {
            let v = self.nodes[n].nic.vi_mut(vi)?;
            if v.state != ViState::Connected && v.state != ViState::Error {
                return Err(ViaError::NotConnected);
            }
            v.peer.take()
        };
        self.flush_vi(n, vi)?;
        if let Some((pn, pv)) = peer {
            if let Ok(v) = self.nodes[pn].nic.vi_mut(pv) {
                v.peer = None;
            }
            let _ = self.flush_vi(pn, pv);
        }
        Ok(())
    }

    /// Complete every queued descriptor of a VI as `Dropped` and idle it.
    fn flush_vi(&mut self, n: NodeId, vi: ViId) -> ViaResult<()> {
        let v = self.nodes[n].nic.vi_mut(vi)?;
        let mut flushed: Vec<crate::descriptor::Descriptor> = v.send_q.drain(..).collect();
        flushed.extend(v.recv_q.drain(..));
        for d in flushed {
            // Best effort: a CQ already at capacity loses flush completions.
            let _ = v.push_completion(crate::vi::Completion {
                vi,
                op: d.op,
                status: crate::descriptor::DescStatus::Dropped,
                len: 0,
                imm: d.imm,
            });
        }
        v.state = ViState::Idle;
        Ok(())
    }

    /// [`Fabric::register_mem`].
    pub fn register_mem(
        &mut self,
        n: NodeId,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        Fabric::register_mem(self, n, pid, addr, len, tag)
    }

    /// Register a batch of buffers on node `n` in one kernel-agent trap,
    /// transactionally: any failure deregisters everything registered so
    /// far and surfaces the error (mirrors the per-page rollback inside one
    /// registration, one level up).
    pub fn register_mem_batch(
        &mut self,
        n: NodeId,
        pid: Pid,
        bufs: &[(VirtAddr, usize)],
        tag: ProtectionTag,
    ) -> ViaResult<Vec<MemId>> {
        let mut out = Vec::with_capacity(bufs.len());
        for &(addr, len) in bufs {
            match self.nodes[n].register_mem(pid, addr, len, tag) {
                Ok(id) => out.push(id),
                Err(e) => {
                    self.rollback_batch(n, out)?;
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Undo a partially registered batch. An id that is already gone is
    /// tolerated: a concurrent `exit_process` (threaded fabric) may have
    /// torn the region down between the partial failure and this rollback,
    /// which leaks nothing. Any *other* deregistration failure surfaces as
    /// the typed [`ViaError::BatchRollbackFailed`] — never a silent partial
    /// success; `check_invariants` then audits the pin ledger.
    #[doc(hidden)]
    pub fn rollback_batch(&mut self, n: NodeId, ids: Vec<MemId>) -> ViaResult<()> {
        for id in ids.into_iter().rev() {
            match self.nodes[n].deregister_mem(id) {
                Ok(()) | Err(ViaError::BadId(_)) => {}
                Err(cause) => {
                    return Err(ViaError::BatchRollbackFailed {
                        mem: id,
                        cause: Box::new(cause),
                    })
                }
            }
        }
        Ok(())
    }

    /// [`Fabric::deregister_mem`].
    pub fn deregister_mem(&mut self, n: NodeId, mem: MemId) -> ViaResult<()> {
        Fabric::deregister_mem(self, n, mem)
    }

    /// Coherent registration-stats snapshot for node `n` (the only
    /// supported way to read its registry counters), with the kernel's
    /// fault counters (minor/major/protection faults, repins,
    /// pressure unpins, COW invalidations) folded in.
    pub fn registry_stats(&self, n: NodeId) -> vialock::RegistryStats {
        let node = &self.nodes[n];
        node.registry.snapshot_with(&node.kernel)
    }

    /// [`Fabric::post_send`].
    pub fn post_send(
        &mut self,
        n: NodeId,
        vi: ViId,
        mem: MemId,
        addr: VirtAddr,
        len: usize,
    ) -> ViaResult<()> {
        Fabric::post_send(self, n, vi, mem, addr, len)
    }

    /// [`Fabric::post_send_desc`].
    pub fn post_send_desc(&mut self, n: NodeId, vi: ViId, desc: Descriptor) -> ViaResult<()> {
        Fabric::post_send_desc(self, n, vi, desc)
    }

    /// [`Fabric::post_recv`].
    pub fn post_recv(
        &mut self,
        n: NodeId,
        vi: ViId,
        mem: MemId,
        addr: VirtAddr,
        len: usize,
    ) -> ViaResult<()> {
        Fabric::post_recv(self, n, vi, mem, addr, len)
    }

    /// [`Fabric::post_recv_desc`].
    pub fn post_recv_desc(&mut self, n: NodeId, vi: ViId, desc: Descriptor) -> ViaResult<()> {
        Fabric::post_recv_desc(self, n, vi, desc)
    }

    /// [`Fabric::post_rdma_write`].
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_write(
        &mut self,
        n: NodeId,
        vi: ViId,
        local_mem: MemId,
        local_addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> ViaResult<()> {
        Fabric::post_rdma_write(
            self,
            n,
            vi,
            local_mem,
            local_addr,
            len,
            remote_mem,
            remote_addr,
        )
    }

    /// [`Fabric::post_rdma_read`].
    #[allow(clippy::too_many_arguments)]
    pub fn post_rdma_read(
        &mut self,
        n: NodeId,
        vi: ViId,
        local_mem: MemId,
        local_addr: VirtAddr,
        len: usize,
        remote_mem: MemId,
        remote_addr: VirtAddr,
    ) -> ViaResult<()> {
        Fabric::post_rdma_read(
            self,
            n,
            vi,
            local_mem,
            local_addr,
            len,
            remote_mem,
            remote_addr,
        )
    }

    /// [`Fabric::poll_cq`].
    pub fn poll_cq(&mut self, n: NodeId, vi: ViId) -> ViaResult<Option<Completion>> {
        Fabric::poll_cq(self, n, vi)
    }

    /// [`Fabric::sci_write`].
    pub fn sci_write(
        &mut self,
        src: (NodeId, Pid, VirtAddr),
        len: usize,
        dst: (NodeId, MemId, usize),
    ) -> ViaResult<()> {
        Fabric::sci_write(self, src, len, dst)
    }

    /// [`Fabric::sci_write_bytes`].
    pub fn sci_write_bytes(&mut self, data: &[u8], dst: (NodeId, MemId, usize)) -> ViaResult<()> {
        Fabric::sci_write_bytes(self, data, dst)
    }

    /// [`Fabric::sci_read_bytes`].
    pub fn sci_read_bytes(&mut self, src: (NodeId, MemId, usize), out: &mut [u8]) -> ViaResult<()> {
        Fabric::sci_read_bytes(self, src, out)
    }

    // ------------------------------------------------------------------
    // The fabric pump
    // ------------------------------------------------------------------

    /// Drain every send queue, route the packets, then deliver round by
    /// round until quiescent. Returns the number of packets delivered.
    /// Delivery errors (no receive descriptor, protection) are recorded in
    /// the NIC stats and the VI state; the first one is also returned so
    /// tests can assert on it.
    ///
    /// Order contract: sends are collected node ascending, `ViId` ascending
    /// within a node, FIFO within a VI (`Node::ship_sends`), and
    /// delivered in that order; the responses, duplicates and delayed
    /// packets of one round are delivered in the next, in the order they
    /// were produced.
    pub fn pump(&mut self) -> ViaResult<usize> {
        let mut delivered = 0usize;
        let mut first_error: Option<ViaError> = None;
        // One collection pass: delivery only ever answers with response
        // packets and `&mut self` keeps the application out, so no send can
        // be posted before this call returns.
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.ship_sends(n, &mut self.in_flight)?;
        }
        while !self.in_flight.is_empty() {
            // Deliver FIFO. The round's queue is swapped out and drained so
            // both vectors keep their buffers; `in_flight` collects the next
            // round — responses, and packets the ingress requeued — in the
            // order they are produced.
            std::mem::swap(&mut self.in_flight, &mut self.round);
            for pkt in self.round.drain(..) {
                match self.nodes[pkt.dst_node].ingress(pkt, &mut self.in_flight) {
                    Ok(Some(mut responses)) => {
                        delivered += 1;
                        self.in_flight.append(&mut responses);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        debug_assert!(
            self.nodes
                .iter()
                .all(|node| node.nic.vis().iter().all(|v| v.sends_pending() == 0)),
            "a send was posted during delivery"
        );
        match first_error {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }
}

/// What only the deterministic fabric can say: every node is a field away,
/// caller bytes are borrowed, and one pump drains the cluster.
impl Fabric for ViaSystem {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn try_with_node<R, G>(&mut self, n: NodeId, f: G) -> ViaResult<R>
    where
        R: Send + 'static,
        G: FnOnce(&mut Node) -> R + Send + 'static,
    {
        Ok(f(&mut self.nodes[n]))
    }

    fn write_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, data: &[u8]) -> ViaResult<()> {
        Ok(self.nodes[n].kernel.write_user(pid, addr, data)?)
    }

    fn read_user(&mut self, n: NodeId, pid: Pid, addr: VirtAddr, out: &mut [u8]) -> ViaResult<()> {
        Ok(self.nodes[n].kernel.read_user(pid, addr, out)?)
    }

    fn connect(&mut self, a: (NodeId, ViId), b: (NodeId, ViId)) -> ViaResult<()> {
        connect_rule(a, b, |n, edit| edit(&mut self.nodes[n].nic))
    }

    fn wait_cq(&mut self, n: NodeId, vi: ViId) -> ViaResult<Completion> {
        match self.wait_cq_deadline(n, vi, Duration::ZERO) {
            Err(ViaError::Timeout) => Err(ViaError::BadState("wait_cq: no completion after pump")),
            r => r,
        }
    }

    fn wait_cq_deadline(
        &mut self,
        n: NodeId,
        vi: ViId,
        _timeout: Duration,
    ) -> ViaResult<Completion> {
        // One full pump drains the deterministic fabric; a completion that
        // has not arrived by then never will, which is exactly a timeout.
        if let Some(c) = self.poll_cq(n, vi)? {
            return Ok(c);
        }
        self.pump()?;
        self.poll_cq(n, vi)?.ok_or(ViaError::Timeout)
    }

    fn pump(&mut self) -> ViaResult<usize> {
        ViaSystem::pump(self)
    }

    fn sci_write(
        &mut self,
        src: (NodeId, Pid, VirtAddr),
        len: usize,
        dst: (NodeId, MemId, usize),
    ) -> ViaResult<()> {
        let (sn, spid, saddr) = src;
        let (dn, dmem, doff) = dst;
        self.nodes[dn].check_pio_span(dmem, doff, len)?;
        let mut buf = std::mem::take(&mut self.pio_scratch);
        buf.clear();
        buf.resize(len, 0);
        let r = self.nodes[sn]
            .kernel
            .read_user(spid, saddr, &mut buf)
            .map_err(ViaError::from)
            .and_then(|()| self.nodes[dn].sci_write_bytes(&buf, dmem, doff));
        self.pio_scratch = buf;
        r
    }

    fn sci_write_bytes(&mut self, data: &[u8], dst: (NodeId, MemId, usize)) -> ViaResult<()> {
        let (dn, dmem, doff) = dst;
        self.nodes[dn].sci_write_bytes(data, dmem, doff)
    }

    fn sci_read_bytes(&mut self, src: (NodeId, MemId, usize), out: &mut [u8]) -> ViaResult<()> {
        let (sn, smem, soff) = src;
        self.nodes[sn].sci_read_bytes(smem, soff, out)
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        ViaSystem::check_invariants(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{DescOp, DescStatus};
    use simmem::{prot, PAGE_SIZE};

    fn two_node_setup(strategy: StrategyKind) -> (ViaSystem, Pid, Pid, ViId, ViId, ProtectionTag) {
        let mut sys = ViaSystem::new(2, KernelConfig::small(), strategy);
        let pa = sys.spawn_process(0);
        let pb = sys.spawn_process(1);
        let tag = ProtectionTag(1);
        let va = sys.create_vi(0, pa, tag).unwrap();
        let vb = sys.create_vi(1, pb, tag).unwrap();
        sys.connect((0, va), (1, vb)).unwrap();
        (sys, pa, pb, va, vb, tag)
    }

    #[test]
    fn send_receive_roundtrip() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"payload!").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, va, sh, sbuf, 8).unwrap();
        assert_eq!(sys.pump().unwrap(), 1);

        let mut out = [0u8; 8];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"payload!");

        // Both sides completed.
        let cs = sys.poll_cq(0, va).unwrap().unwrap();
        assert_eq!(cs.status, crate::descriptor::DescStatus::Done);
        let cr = sys.poll_cq(1, vb).unwrap().unwrap();
        assert_eq!(cr.len, 8);
    }

    #[test]
    fn batch_registration_rolls_back_on_failure() {
        let (mut sys, pa, _pb, _va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let buf = sys
            .mmap(0, pa, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        // A good batch registers everything.
        let ids = sys
            .register_mem_batch(
                0,
                pa,
                &[(buf, PAGE_SIZE), (buf + 4 * PAGE_SIZE as u64, PAGE_SIZE)],
                tag,
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(sys.registry_stats(0).registrations, 2);
        for id in ids {
            sys.deregister_mem(0, id).unwrap();
        }
        // A batch with a bad entry (zero length) leaves no registrations.
        let before = sys.registry_stats(0);
        assert!(sys
            .register_mem_batch(0, pa, &[(buf, PAGE_SIZE), (buf, 0)], tag)
            .is_err());
        let after = sys.registry_stats(0);
        assert_eq!(
            after.registrations - before.registrations,
            after.deregistrations - before.deregistrations,
            "failed batch fully rolled back"
        );
        assert_eq!(sys.node(0).registry.live_regions(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn batch_rollback_tolerates_exit_race() {
        let (mut sys, pa, _pb, _va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let buf = sys
            .mmap(0, pa, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let ids = sys
            .register_mem_batch(
                0,
                pa,
                &[(buf, PAGE_SIZE), (buf + 2 * PAGE_SIZE as u64, PAGE_SIZE)],
                tag,
            )
            .unwrap();
        // A process exit tears the regions down before the rollback runs —
        // the race a failing batch can lose. Already-gone ids must be
        // tolerated (nothing leaked), not surfaced as rollback failure.
        sys.exit_process(0, pa).unwrap();
        sys.rollback_batch(0, ids).unwrap();
        assert_eq!(sys.node(0).registry.live_regions(), 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn ondemand_send_receive_repins_on_access() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::OnDemand);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"lazy payload").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        // Registration pinned nothing: the span is reserved, not resident.
        assert_eq!(sys.registry_stats(0).pages_pinned, 0);
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, va, sh, sbuf, 12).unwrap();
        assert_eq!(sys.pump().unwrap(), 1);
        let mut out = [0u8; 12];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"lazy payload");
        // Both sides faulted their page resident on first DMA.
        assert_eq!(sys.node(0).nic.stats.repins, 1);
        assert_eq!(sys.node(1).nic.stats.repins, 1);
        assert_eq!(sys.registry_stats(0).pages_pinned, 1);
        assert!(sys.registry_stats(0).protection_faults >= 1);
        sys.check_invariants().unwrap();

        // Pressure: dissolve the sender's lazy pin as the page stealer
        // would; the next send drains the invalidation, faults, repins.
        let frames = sys.kernel_mut(0).lazy_pinned_frames();
        assert_eq!(frames.len(), 1);
        sys.kernel_mut(0).test_dissolve_lazy_pins(frames[0].0);
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, va, sh, sbuf, 12).unwrap();
        assert_eq!(sys.pump().unwrap(), 1);
        assert_eq!(sys.node(0).nic.stats.repins, 2);
        assert!(sys.node(0).nic.stats.tpt_invalidations >= 1);
        sys.check_invariants().unwrap();

        // Deregistration drains the surviving lazy pins.
        sys.deregister_mem(0, sh).unwrap();
        sys.deregister_mem(1, rh).unwrap();
        sys.check_invariants().unwrap();
    }

    #[test]
    fn ondemand_repin_failure_completes_repin_failed() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::OnDemand);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"blocked").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, va, sh, sbuf, 7).unwrap();
        // The sender's first (and only) lazy-pin attempt is refused.
        sys.install_fault_plan(&vialock::fault::handle(
            vialock::FaultPlan::new(21).fail(vialock::FaultSite::LazyPin, 1),
        ));
        assert_eq!(sys.pump().unwrap(), 0, "nothing crossed the wire");
        let c = sys.poll_cq(0, va).unwrap().unwrap();
        assert_eq!(c.status, crate::descriptor::DescStatus::RepinFailed);
        assert_eq!(sys.node(0).nic.stats.repin_failures, 1);
        assert_eq!(sys.node(0).nic.stats.protection_errors, 0);
        assert_eq!(
            sys.node(0).nic.vi(va).unwrap().state,
            ViState::Connected,
            "degradation is per-descriptor; the connection survives"
        );
        sys.check_invariants().unwrap();
        // The transient gone, the same exchange succeeds.
        sys.post_send(0, va, sh, sbuf, 7).unwrap();
        assert_eq!(sys.pump().unwrap(), 1);
        let mut out = [0u8; 7];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"blocked");
        sys.check_invariants().unwrap();
    }

    #[test]
    fn send_without_recv_breaks_connection() {
        let (mut sys, pa, _pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"x").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        sys.post_send(0, va, sh, sbuf, 1).unwrap();
        assert_eq!(sys.pump(), Err(ViaError::NoRecvDescriptor));
        assert_eq!(sys.node(1).nic.vi(vb).unwrap().state, ViState::Error);
        assert_eq!(sys.node(1).nic.stats.dropped, 1);
        // Further posts on the broken VI are refused.
        assert_eq!(
            sys.post_recv(1, vb, MemId(1), 0, 1),
            Err(ViaError::Disconnected)
        );
    }

    #[test]
    fn rdma_write_roundtrip() {
        let (mut sys, pa, pb, va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"one-sided").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        // No receive descriptor needed: one-sided.
        sys.post_rdma_write(0, va, sh, sbuf, 9, rh, rbuf).unwrap();
        sys.pump().unwrap();
        let mut out = [0u8; 9];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"one-sided");
    }

    #[test]
    fn protection_tag_mismatch_refused() {
        let mut sys = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
        let pa = sys.spawn_process(0);
        let pb = sys.spawn_process(1);
        let va = sys.create_vi(0, pa, ProtectionTag(1)).unwrap();
        let vb = sys.create_vi(1, pb, ProtectionTag(2)).unwrap();
        sys.connect((0, va), (1, vb)).unwrap();
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        // Buffer registered with a DIFFERENT tag than the VI.
        let sh = sys
            .register_mem(0, pa, sbuf, PAGE_SIZE, ProtectionTag(9))
            .unwrap();
        sys.post_send(0, va, sh, sbuf, 4).unwrap();
        sys.pump().unwrap();
        let c = sys.poll_cq(0, va).unwrap().unwrap();
        assert_eq!(c.status, crate::descriptor::DescStatus::ProtectionError);
        assert_eq!(sys.node(0).nic.stats.protection_errors, 1);
        assert_eq!(sys.node(1).nic.stats.recvs, 0, "no data transferred");
    }

    #[test]
    fn recv_too_small_is_dropped() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, &[9u8; 128]).unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, 16).unwrap(); // too small
        sys.post_send(0, va, sh, sbuf, 128).unwrap();
        assert!(matches!(
            sys.pump(),
            Err(ViaError::RecvTooSmall {
                need: 128,
                have: 16
            })
        ));
        assert_eq!(sys.node(1).nic.vi(vb).unwrap().state, ViState::Error);
    }

    #[test]
    fn multi_page_transfer() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let len = 5 * PAGE_SIZE + 123;
        let total = 6 * PAGE_SIZE;
        let sbuf = sys.mmap(0, pa, total, prot::READ | prot::WRITE).unwrap();
        let rbuf = sys.mmap(1, pb, total, prot::READ | prot::WRITE).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 255) as u8).collect();
        sys.write_user(0, pa, sbuf, &data).unwrap();
        let sh = sys.register_mem(0, pa, sbuf, total, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, total, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, total).unwrap();
        sys.post_send(0, va, sh, sbuf, len).unwrap();
        sys.pump().unwrap();
        let mut out = vec![0u8; len];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(sys.node(0).nic.stats.bytes_tx as usize, len);
        assert_eq!(sys.node(1).nic.stats.bytes_rx as usize, len);
    }

    #[test]
    fn sci_pio_write_and_read() {
        let (mut sys, pa, pb, _va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        // Receiver exports a segment; sender PIO-writes into it.
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let seg = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"PIO store").unwrap();
        let exported = sys.register_mem(1, pb, seg, PAGE_SIZE, tag).unwrap();
        sys.sci_write((0, pa, sbuf), 9, (1, exported, 100)).unwrap();
        // Visible to the receiving process through plain loads.
        let mut out = [0u8; 9];
        sys.read_user(1, pb, seg + 100, &mut out).unwrap();
        assert_eq!(&out, b"PIO store");
        // And to remote readers.
        let mut back = [0u8; 9];
        sys.sci_read_bytes((1, exported, 100), &mut back).unwrap();
        assert_eq!(&back, b"PIO store");
        // Bounds enforced.
        assert_eq!(
            sys.sci_write_bytes(&[0u8; 8], (1, exported, PAGE_SIZE - 4)),
            Err(ViaError::OutOfBounds)
        );
    }

    #[test]
    fn rdma_read_roundtrip() {
        let (mut sys, pa, pb, va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let lbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(1, pb, rbuf, b"remote bytes").unwrap();
        let lh = sys.register_mem(0, pa, lbuf, PAGE_SIZE, tag).unwrap();
        // The remote region must carry the RDMA-read enable attribute.
        let rh = sys
            .node_mut(1)
            .register_mem_attrs(pb, rbuf, PAGE_SIZE, tag, true, true)
            .unwrap();
        sys.post_rdma_read(0, va, lh, lbuf, 12, rh, rbuf).unwrap();
        sys.pump().unwrap();
        // Completion at the requester with the fetched data in place.
        let c = sys.poll_cq(0, va).unwrap().unwrap();
        assert_eq!(c.op, crate::descriptor::DescOp::RdmaRead);
        assert_eq!(c.len, 12);
        let mut out = [0u8; 12];
        sys.read_user(0, pa, lbuf, &mut out).unwrap();
        assert_eq!(&out, b"remote bytes");
        assert_eq!(sys.node(0).nic.stats.rdma_reads, 1);
    }

    #[test]
    fn rdma_read_requires_read_enable() {
        let (mut sys, pa, pb, va, _vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let lbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let lh = sys.register_mem(0, pa, lbuf, PAGE_SIZE, tag).unwrap();
        // Default attributes: rdma_read disabled.
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_rdma_read(0, va, lh, lbuf, 8, rh, rbuf).unwrap();
        // The target refuses and answers: the read completes in error.
        sys.pump().unwrap();
        let c = sys.poll_cq(0, va).unwrap().unwrap();
        assert_eq!(
            (c.op, c.status),
            (DescOp::RdmaRead, DescStatus::ProtectionError)
        );
        assert_eq!(sys.node(1).nic.stats.protection_errors, 1);
    }

    #[test]
    fn client_server_handshake() {
        let mut sys = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
        let server = sys.spawn_process(0);
        let client = sys.spawn_process(1);
        let tag = ProtectionTag(1);
        let sv = sys.create_vi(0, server, tag).unwrap();
        let cv = sys.create_vi(1, client, tag).unwrap();
        // No listener yet: request fails.
        assert!(sys.connect_request((1, cv), 0, 0xBEEF).is_err());
        // Server parks on the discriminator.
        sys.connect_wait(0, sv, 0xBEEF).unwrap();
        assert_eq!(sys.node(0).nic.vi(sv).unwrap().state, ViState::Listening);
        // Duplicate listener refused.
        let sv2 = sys.create_vi(0, server, tag).unwrap();
        assert!(sys.connect_wait(0, sv2, 0xBEEF).is_err());
        // Client connects.
        sys.connect_request((1, cv), 0, 0xBEEF).unwrap();
        assert_eq!(sys.node(0).nic.vi(sv).unwrap().state, ViState::Connected);
        assert_eq!(sys.node(1).nic.vi(cv).unwrap().state, ViState::Connected);
        // Discriminator consumed.
        let cv2 = sys.create_vi(1, client, tag).unwrap();
        assert!(sys.connect_request((1, cv2), 0, 0xBEEF).is_err());
    }

    #[test]
    fn disconnect_flushes_descriptors() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let rbuf = sys
            .mmap(1, pb, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rh = sys.register_mem(1, pb, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.disconnect(0, va).unwrap();
        // Both ends idle, the pre-posted receive completed as Dropped.
        assert_eq!(sys.node(0).nic.vi(va).unwrap().state, ViState::Idle);
        assert_eq!(sys.node(1).nic.vi(vb).unwrap().state, ViState::Idle);
        let c = sys.poll_cq(1, vb).unwrap().unwrap();
        assert_eq!(c.status, crate::descriptor::DescStatus::Dropped);
        // The pair can reconnect and work again.
        sys.connect((0, va), (1, vb)).unwrap();
        let sbuf = sys
            .mmap(0, pa, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"again").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(1, vb, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, va, sh, sbuf, 5).unwrap();
        sys.pump().unwrap();
        let mut out = [0u8; 5];
        sys.read_user(1, pb, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"again");
    }

    #[test]
    fn multi_segment_gather_scatter() {
        let (mut sys, pa, pb, va, vb, tag) = two_node_setup(StrategyKind::KiobufReliable);
        let sbuf = sys
            .mmap(0, pa, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(1, pb, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, pa, sbuf, b"AAAA").unwrap();
        sys.write_user(0, pa, sbuf + 1000, b"BBBB").unwrap();
        let sh = sys.register_mem(0, pa, sbuf, 2 * PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(1, pb, rbuf, 2 * PAGE_SIZE, tag).unwrap();
        // Gather from two disjoint segments, scatter into two.
        let mut send = Descriptor::send(sh, sbuf, 4);
        send.segs.push(crate::descriptor::DataSeg {
            mem: sh,
            addr: sbuf + 1000,
            len: 4,
        });
        let mut recv = Descriptor::recv(rh, rbuf + 100, 5);
        recv.segs.push(crate::descriptor::DataSeg {
            mem: rh,
            addr: rbuf + 500,
            len: 5,
        });
        sys.post_recv_desc(1, vb, recv).unwrap();
        sys.post_send_desc(0, va, send.with_imm(0xCAFE)).unwrap();
        sys.pump().unwrap();
        let c = sys.poll_cq(1, vb).unwrap().unwrap();
        assert_eq!(c.len, 8);
        assert_eq!(c.imm, Some(0xCAFE), "immediate data delivered");
        // First 5 bytes to the first segment, remaining 3 to the second.
        let mut a = [0u8; 5];
        sys.read_user(1, pb, rbuf + 100, &mut a).unwrap();
        assert_eq!(&a, b"AAAAB");
        let mut b2 = [0u8; 3];
        sys.read_user(1, pb, rbuf + 500, &mut b2).unwrap();
        assert_eq!(&b2, b"BBB");
    }

    #[test]
    fn loopback_on_one_node() {
        // Two processes on the same node, VIs connected node-locally.
        let mut sys = ViaSystem::new(1, KernelConfig::small(), StrategyKind::KiobufReliable);
        let p1 = sys.spawn_process(0);
        let p2 = sys.spawn_process(0);
        let tag = ProtectionTag(3);
        let v1 = sys.create_vi(0, p1, tag).unwrap();
        let v2 = sys.create_vi(0, p2, tag).unwrap();
        sys.connect((0, v1), (0, v2)).unwrap();
        let sbuf = sys
            .mmap(0, p1, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let rbuf = sys
            .mmap(0, p2, PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        sys.write_user(0, p1, sbuf, b"local").unwrap();
        let sh = sys.register_mem(0, p1, sbuf, PAGE_SIZE, tag).unwrap();
        let rh = sys.register_mem(0, p2, rbuf, PAGE_SIZE, tag).unwrap();
        sys.post_recv(0, v2, rh, rbuf, PAGE_SIZE).unwrap();
        sys.post_send(0, v1, sh, sbuf, 5).unwrap();
        sys.pump().unwrap();
        let mut out = [0u8; 5];
        sys.read_user(0, p2, rbuf, &mut out).unwrap();
        assert_eq!(&out, b"local");
    }
}
