//! Payload fidelity across packet-pool reuse, on both fabrics.
//!
//! A payload buffer is recycled from message to message, and it migrates
//! with its packet from the sender's pool to the receiver's, so the buffer
//! a 256 KiB message used is the one the next small message is gathered
//! into. Every step here checks that the landing bytes are the source
//! bytes, that nothing past the payload moved, that the completion reports
//! the payload length, and that the fabric-wide pool ledger balances.
//!
//! The gather paths covered are all three that fill a pooled buffer:
//! a send, the target side of an RDMA read, and the copy an unreliable
//! VI's wire duplicate gets. The last test makes the gather fail halfway
//! (a TPT entry naming a frame past physical memory) and checks that the
//! refusal is typed and the half-filled buffer goes back to the pool.

use simmem::{prot, FrameId, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::tpt::{Access, MemId, ProtectionTag};
use via::vi::{Reliability, ViId};
use via::{DescOp, DescStatus, Fabric, ThreadedCluster, ViaSystem};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

const BIG: usize = 256 * 1024;
/// Every area has a page of room past the largest message for the sentinel.
const AREA: usize = BIG + PAGE_SIZE;
const SENTINEL: u8 = 0xEE;
const TAG: ProtectionTag = ProtectionTag(5);

fn config() -> KernelConfig {
    KernelConfig::medium()
}

/// Run one case on the deterministic fabric, then on the threaded one.
macro_rules! on_both_fabrics {
    ($case:ident) => {{
        let strategy = StrategyKind::KiobufReliable;
        $case(ViaSystem::new(2, config(), strategy));
        $case(ThreadedCluster::new(2, config(), strategy));
    }};
}

/// One connected VI pair; on each node a source area (RDMA-read enabled,
/// so node 0 can read node 1's) and a landing area.
struct Pair<F> {
    fab: F,
    pid: [Pid; 2],
    vi: [ViId; 2],
    src: [(MemId, VirtAddr); 2],
    dst: [(MemId, VirtAddr); 2],
    /// Steps taken so far; each step's source pattern is its own.
    step: usize,
}

fn pair<F: Fabric>(mut fab: F) -> Pair<F> {
    let pid = [0, 1].map(|n| fab.spawn_process(n));
    let vi = [0, 1].map(|n| fab.create_vi(n, pid[n], TAG).unwrap());
    fab.connect((0, vi[0]), (1, vi[1])).unwrap();
    let mut area = |n: usize, rdma_read: bool| {
        let addr = fab.mmap(n, pid[n], AREA, prot::READ | prot::WRITE).unwrap();
        fab.write_user(n, pid[n], addr, &vec![SENTINEL; AREA])
            .unwrap();
        let mem = fab
            .register_mem_attrs(n, pid[n], addr, AREA, TAG, true, rdma_read)
            .unwrap();
        (mem, addr)
    };
    let src = [area(0, true), area(1, true)];
    let dst = [area(0, false), area(1, false)];
    Pair {
        fab,
        pid,
        vi,
        src,
        dst,
        step: 0,
    }
}

impl<F: Fabric> Pair<F> {
    /// Fill node `from`'s source area with a pattern no earlier step used
    /// and node `to`'s landing area with the sentinel; returns the source.
    fn prime(&mut self, from: usize, to: usize) -> Vec<u8> {
        self.step += 1;
        let s = self.step;
        let data: Vec<u8> = (0..AREA)
            .map(|i| (i * 7 + i / 251 + s * 13) as u8)
            .collect();
        self.fab
            .write_user(from, self.pid[from], self.src[from].1, &data)
            .unwrap();
        self.fab
            .write_user(to, self.pid[to], self.dst[to].1, &vec![SENTINEL; AREA])
            .unwrap();
        data
    }

    /// Deliver everything in flight, then audit: the threaded fabric
    /// settles every node first, and the audit includes the pool ledger.
    fn settle(&mut self) {
        self.fab.pump().unwrap();
        self.fab.check_invariants().unwrap();
    }

    fn completion(&mut self, n: usize) -> (DescOp, DescStatus, usize) {
        let c = self
            .fab
            .poll_cq(n, self.vi[n])
            .unwrap()
            .expect("a completion");
        (c.op, c.status, c.len)
    }

    /// Node `n`'s landing area holds `want`, then the sentinel.
    fn expect_landed(&mut self, n: usize, want: &[u8]) {
        let mut got = vec![0u8; AREA];
        self.fab
            .read_user(n, self.pid[n], self.dst[n].1, &mut got)
            .unwrap();
        let len = want.len();
        let bad = got[..len].iter().zip(want).position(|(g, w)| g != w);
        assert_eq!(bad, None, "step {}: {len}-byte payload differs", self.step);
        let moved = got[len..].iter().position(|&b| b != SENTINEL);
        assert_eq!(moved, None, "step {}: bytes past {len} moved", self.step);
    }

    /// A `len`-byte send from node `from` into a receive with room to spare.
    fn send(&mut self, from: usize, len: usize) {
        let to = 1 - from;
        let data = self.prime(from, to);
        let (dm, da) = self.dst[to];
        self.fab.post_recv(to, self.vi[to], dm, da, AREA).unwrap();
        let (sm, sa) = self.src[from];
        self.fab
            .post_send(from, self.vi[from], sm, sa, len)
            .unwrap();
        self.settle();
        assert_eq!(self.completion(from), (DescOp::Send, DescStatus::Done, len));
        assert_eq!(self.completion(to), (DescOp::Recv, DescStatus::Done, len));
        self.expect_landed(to, &data[..len]);
    }

    /// Node 0 RDMA-reads `len` bytes of node 1's source area.
    fn read(&mut self, len: usize) {
        let data = self.prime(1, 0);
        let ((dm, da), (sm, sa)) = (self.dst[0], self.src[1]);
        self.fab
            .post_rdma_read(0, self.vi[0], dm, da, len, sm, sa)
            .unwrap();
        self.settle();
        assert_eq!(
            self.completion(0),
            (DescOp::RdmaRead, DescStatus::Done, len)
        );
        self.expect_landed(0, &data[..len]);
    }
}

fn sizes_in_turn<F: Fabric>(fab: F) {
    let mut p = pair(fab);
    // Both directions at every size, so each node's pool hands a buffer
    // that last carried a larger message to the next, smaller one.
    for len in [BIG, 4097, 64, 1] {
        p.send(0, len);
        p.send(1, len);
    }
    // The RDMA-read target gathers into its pool too.
    p.read(BIG);
    p.read(64);
}

#[test]
fn payloads_survive_pool_reuse_across_sizes() {
    on_both_fabrics!(sizes_in_turn);
}

fn duplicate_after_large<F: Fabric>(fab: F) {
    let mut p = pair(fab);
    p.send(0, BIG);
    // Node 1's pool now tops out with the 256 KiB buffer; the duplicate of
    // the next, small send is copied into it.
    for n in 0..2 {
        p.fab
            .set_reliability(n, p.vi[n], Reliability::Unreliable)
            .unwrap();
    }
    let plan = fault::handle(FaultPlan::new(28).fail(FaultSite::WireDuplicate, 1));
    p.fab
        .with_node(1, move |node| node.install_fault_plan(&plan));
    let len = 100;
    let data = p.prime(0, 1);
    let (dm, da) = p.dst[1];
    for _ in 0..2 {
        p.fab.post_recv(1, p.vi[1], dm, da, AREA).unwrap();
    }
    let (sm, sa) = p.src[0];
    p.fab.post_send(0, p.vi[0], sm, sa, len).unwrap();
    p.settle();
    assert_eq!(p.fab.nic_stats(1).wire_dups, 1);
    assert_eq!(p.completion(0), (DescOp::Send, DescStatus::Done, len));
    for _ in 0..2 {
        assert_eq!(p.completion(1), (DescOp::Recv, DescStatus::Done, len));
    }
    p.expect_landed(1, &data[..len]);
}

#[test]
fn a_wire_duplicate_copies_only_its_payload() {
    on_both_fabrics!(duplicate_after_large);
}

fn stale_run<F: Fabric>(fab: F) {
    let mut p = pair(fab);
    p.send(1, BIG); // leaves a used buffer in node 0's pool
    let (mem, addr) = p.src[0];
    // The second page of node 0's source area now names the first frame
    // past physical memory: the gather's first run reads, its second fails.
    let past = FrameId(config().nframes);
    let second = addr + PAGE_SIZE as u64;
    let frame = p.fab.with_node(0, move |node| {
        let (frame, _) = node
            .nic
            .tpt
            .translate(mem, second, TAG, Access::Local)
            .unwrap();
        node.nic.tpt.poke_frame(mem, 1, past).unwrap();
        frame
    });
    let data = p.prime(0, 1);
    let (dm, da) = p.dst[1];
    p.fab.post_recv(1, p.vi[1], dm, da, AREA).unwrap();
    let len = 3 * PAGE_SIZE;
    p.fab.post_send(0, p.vi[0], mem, addr, len).unwrap();
    p.fab.pump().unwrap();
    assert_eq!(
        p.completion(0),
        (DescOp::Send, DescStatus::ProtectionError, 0)
    );
    assert_eq!(p.fab.nic_stats(0).protection_errors, 1);
    // With the entry restored the audit passes, pool ledger included, and
    // nothing left node 0: the receive is still posted, its area untouched.
    p.fab.with_node(0, move |node| {
        node.nic.tpt.poke_frame(mem, 1, frame).unwrap()
    });
    p.fab.check_invariants().unwrap();
    assert!(p.fab.poll_cq(1, p.vi[1]).unwrap().is_none());
    p.expect_landed(1, &[]);
    // The same send now goes through.
    p.fab.post_send(0, p.vi[0], mem, addr, len).unwrap();
    p.settle();
    assert_eq!(p.completion(0), (DescOp::Send, DescStatus::Done, len));
    assert_eq!(p.completion(1), (DescOp::Recv, DescStatus::Done, len));
    p.expect_landed(1, &data[..len]);
}

#[test]
fn a_run_past_physical_memory_fails_the_gather_typed() {
    on_both_fabrics!(stale_run);
}
