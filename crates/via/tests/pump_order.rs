//! The order and completeness contract of [`ViaSystem::pump`].
//!
//! Every seeded lock-manager counter depends on who wins each CAS race, and
//! that is decided by the order the pump collects sends in: node ascending,
//! `ViId` ascending within a node, FIFO within a VI. One `pump()` call also
//! finishes everything it finds, responses and wire-delayed packets
//! included, and a malformed descriptor on one VI costs the others nothing.

use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::system::{NodeId, ViaSystem};
use via::tpt::{MemId, ProtectionTag};
use via::vi::{ViId, ViState};
use via::{DescOp, DescStatus, Descriptor, ViaError};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

const TAG: ProtectionTag = ProtectionTag(5);

/// One end of a connection to the host: its own page, registered.
#[derive(Clone, Copy)]
struct Origin {
    node: NodeId,
    pid: Pid,
    vi: ViId,
    mem: MemId,
    buf: VirtAddr,
}

/// Node 0 exports one page (RDMA read and write enabled); every origin owns
/// a VI connected to a VI of its own on node 0.
struct Star {
    sys: ViaSystem,
    host_pid: Pid,
    host_mem: MemId,
    host_buf: VirtAddr,
    origins: Vec<Origin>,
}

/// `origin_nodes[i]` is the node origin `i` lives on; a node named twice
/// gets two VIs, created in the order given.
fn star(nodes: usize, origin_nodes: &[NodeId], plan: FaultPlan) -> Star {
    let mut sys = ViaSystem::new(nodes, KernelConfig::small(), StrategyKind::KiobufReliable);
    sys.install_fault_plan(&fault::handle(plan));
    let rw = prot::READ | prot::WRITE;
    let host_pid = sys.spawn_process(0);
    let host_buf = sys.mmap(0, host_pid, PAGE_SIZE, rw).unwrap();
    let host_mem = sys
        .node_mut(0)
        .register_mem_attrs(host_pid, host_buf, PAGE_SIZE, TAG, true, true)
        .unwrap();
    let mut pids: Vec<Option<Pid>> = vec![None; nodes];
    let origins = origin_nodes
        .iter()
        .map(|&node| {
            let pid = *pids[node].get_or_insert_with(|| sys.spawn_process(node));
            let vi = sys.create_vi(node, pid, TAG).unwrap();
            let host_vi = sys.create_vi(0, host_pid, TAG).unwrap();
            sys.connect((node, vi), (0, host_vi)).unwrap();
            let buf = sys.mmap(node, pid, PAGE_SIZE, rw).unwrap();
            let mem = sys.register_mem(node, pid, buf, PAGE_SIZE, TAG).unwrap();
            Origin {
                node,
                pid,
                vi,
                mem,
                buf,
            }
        })
        .collect();
    Star {
        sys,
        host_pid,
        host_mem,
        host_buf,
        origins,
    }
}

impl Star {
    fn post_cas(&mut self, origin: usize, compare: u64, swap: u64, imm: u32) {
        let o = self.origins[origin];
        let d = Descriptor::atomic_cas(o.mem, o.buf, self.host_mem, self.host_buf, compare, swap)
            .with_imm(imm);
        self.sys.post_send_desc(o.node, o.vi, d).unwrap();
    }

    fn host_word(&mut self) -> u64 {
        let mut w = [0u8; 8];
        self.sys
            .read_user(0, self.host_pid, self.host_buf, &mut w)
            .unwrap();
        u64::from_le_bytes(w)
    }

    /// The u64 at the start of an origin's page (where a CAS scatters the
    /// old value).
    fn origin_word(&mut self, origin: usize) -> u64 {
        let o = self.origins[origin];
        let mut w = [0u8; 8];
        self.sys.read_user(o.node, o.pid, o.buf, &mut w).unwrap();
        u64::from_le_bytes(w)
    }
}

#[test]
fn cas_race_is_won_by_the_lowest_node_then_vi_and_a_vi_is_fifo() {
    // Origins 0 and 1 are ViId 0 and 1 of node 1; origins 2 and 3 live on
    // nodes 2 and 3.
    let mut s = star(4, &[1, 1, 2, 3], FaultPlan::new(1));
    assert_eq!(s.origins[0].vi, ViId(0));
    assert_eq!(s.origins[1].vi, ViId(1));
    // Everyone races 0 -> own id, posted in reverse of the pump's order.
    for origin in (1..4).rev() {
        s.post_cas(origin, 0, 10 + origin as u64, 0);
    }
    // The eventual winner posts last, and queues a second CAS behind the
    // first that can only apply if the first one did.
    s.post_cas(0, 0, 10, 1);
    s.post_cas(0, 10, 99, 2);

    // Requests and responses: all of it in one call.
    assert_eq!(s.sys.pump().unwrap(), 10);

    assert_eq!(s.host_word(), 99, "(node 1, ViId 0) won, then chained");
    for origin in 1..4 {
        assert_eq!(s.origin_word(origin), 99, "origin {origin} lost the race");
    }
    assert_eq!(s.sys.node(0).nic.stats.cas_applied, 2);
    // FIFO on the winner's VI: completions in post order, and the second
    // CAS saw the first one's value.
    let o = s.origins[0];
    for imm in [1, 2] {
        let c = s
            .sys
            .poll_cq(o.node, o.vi)
            .unwrap()
            .expect("cas completion");
        assert_eq!((c.op, c.status), (DescOp::AtomicCas, DescStatus::Done));
        assert_eq!(c.imm, Some(imm));
    }
    assert_eq!(s.origin_word(0), 10, "old value seen by the chained CAS");
    s.sys.check_invariants().unwrap();
}

#[test]
fn one_pump_finishes_one_sided_ops_across_a_wire_delay() {
    // skip 0 delays the request, skip 1 the response.
    for skip in 0..2 {
        // RDMA read.
        let mut s = star(
            2,
            &[1],
            FaultPlan::new(2).fail_after(FaultSite::WireDelay, skip, 1),
        );
        s.sys
            .write_user(0, s.host_pid, s.host_buf, b"far bytes")
            .unwrap();
        let o = s.origins[0];
        s.sys
            .post_rdma_read(o.node, o.vi, o.mem, o.buf, 9, s.host_mem, s.host_buf)
            .unwrap();
        assert_eq!(s.sys.pump().unwrap(), 2, "request and response");
        let c = s
            .sys
            .poll_cq(o.node, o.vi)
            .unwrap()
            .expect("read completion");
        assert_eq!(
            (c.op, c.status, c.len),
            (DescOp::RdmaRead, DescStatus::Done, 9)
        );
        let mut out = [0u8; 9];
        s.sys.read_user(o.node, o.pid, o.buf, &mut out).unwrap();
        assert_eq!(&out, b"far bytes");
        assert_eq!(s.sys.node(skip as usize).nic.stats.wire_delays, 1);
        s.sys.check_invariants().unwrap();

        // Atomic CAS.
        let mut s = star(
            2,
            &[1],
            FaultPlan::new(3).fail_after(FaultSite::WireDelay, skip, 1),
        );
        s.post_cas(0, 0, 42, 7);
        assert_eq!(s.sys.pump().unwrap(), 2, "request and response");
        let c = s
            .sys
            .poll_cq(o.node, o.vi)
            .unwrap()
            .expect("cas completion");
        assert_eq!((c.op, c.status), (DescOp::AtomicCas, DescStatus::Done));
        assert_eq!(s.host_word(), 42);
        s.sys.check_invariants().unwrap();
    }

    // RDMA write: one packet, delayed once.
    let mut s = star(2, &[1], FaultPlan::new(4).fail(FaultSite::WireDelay, 1));
    let o = s.origins[0];
    s.sys
        .write_user(o.node, o.pid, o.buf, &7u64.to_le_bytes())
        .unwrap();
    s.sys
        .post_rdma_write(o.node, o.vi, o.mem, o.buf, 8, s.host_mem, s.host_buf)
        .unwrap();
    assert_eq!(s.sys.pump().unwrap(), 1);
    assert_eq!(s.host_word(), 7, "landed despite the delay");
    assert_eq!(s.sys.node(0).nic.stats.wire_delays, 1);
    s.sys.check_invariants().unwrap();
}

#[test]
fn vi_ids_are_dense_and_lookups_past_the_end_are_typed() {
    let mut sys = ViaSystem::new(1, KernelConfig::small(), StrategyKind::KiobufReliable);
    let pid = sys.spawn_process(0);
    for n in 0..5 {
        assert_eq!(sys.create_vi(0, pid, TAG).unwrap(), ViId(n));
    }
    let nic = &mut sys.node_mut(0).nic;
    assert_eq!(nic.vi_count(), 5);
    assert_eq!(nic.vi(ViId(4)).unwrap().id, ViId(4));
    assert_eq!(nic.vi(ViId(5)).err(), Some(ViaError::BadId("vi")));
    assert_eq!(
        nic.vi_mut(ViId(u32::MAX)).err(),
        Some(ViaError::BadId("vi"))
    );
    assert_eq!(
        sys.post_send_desc(0, ViId(5), Descriptor::send(MemId(1), 0, 8)),
        Err(ViaError::BadId("vi"))
    );
}

#[test]
fn recv_descriptor_on_a_send_queue_is_a_format_error_and_leaks_nothing() {
    // Two VIs on node 1; the first carries the malformed descriptor.
    let mut s = star(2, &[1, 1], FaultPlan::new(5));
    let (bad, good) = (0, 1);
    let o = s.origins[bad];
    let (node, vi) = (o.node, o.vi);
    s.sys
        .post_send_desc(node, vi, Descriptor::recv(o.mem, o.buf, 64).with_imm(9))
        .unwrap();
    s.post_cas(good, 0, 5, 0);

    // The pump carries on past the malformed descriptor.
    assert_eq!(s.sys.pump().unwrap(), 2, "the other VI's CAS round trip");
    let c = s.sys.poll_cq(node, vi).unwrap().expect("error completion");
    assert_eq!(
        (c.op, c.status, c.len),
        (DescOp::Recv, DescStatus::FormatError, 0)
    );
    assert_eq!(c.imm, Some(9));
    assert_eq!(
        s.sys.node(node).nic.vi(vi).unwrap().state,
        ViState::Connected
    );
    assert_eq!(s.sys.node(node).nic.stats.desc_errors, 1);
    assert_eq!(s.sys.node(node).nic.stats.sends, 0, "nothing gathered");
    assert_eq!(s.host_word(), 5, "the neighbour's CAS was delivered");
    s.sys.check_invariants().unwrap();
}
