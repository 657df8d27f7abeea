//! Wire-fault semantics per reliability mode, on both fabrics.
//!
//! VIA's delivery guarantees live at the *receiving* VI: a reliable VI must
//! turn a lost packet into a broken connection (transport-error completion,
//! VI in the error state) and must suppress duplicates, while an unreliable
//! VI silently drops and — lacking sequence numbers — sees duplicates twice.
//! Delayed packets are reordered behind later traffic in both modes.
//!
//! The rule is the receiving node's (`Node::ingress`), so every case runs
//! on the deterministic [`ViaSystem`] and on the [`ThreadedCluster`], with
//! the fault plan installed on the receiving node only.

use simmem::{prot, KernelConfig, PAGE_SIZE};
use via::system::ViaSystem;
use via::tpt::{MemId, ProtectionTag};
use via::vi::{Reliability, ViId, ViState};
use via::{DescStatus, Descriptor, Fabric, ThreadedCluster};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

/// Run one case on the deterministic fabric, then on the threaded one.
macro_rules! on_both_fabrics {
    ($case:ident) => {{
        let (config, strategy) = (KernelConfig::small(), StrategyKind::KiobufReliable);
        $case(ViaSystem::new(2, config, strategy));
        $case(ThreadedCluster::new(2, config, strategy));
    }};
}

struct Pair<F> {
    fab: F,
    v0: ViId,
    v1: ViId,
    m0: MemId,
    m1: MemId,
    b0: u64,
    b1: u64,
}

/// Node 0 sends to node 1 over one connected VI pair; `plan` is node 1's.
fn pair<F: Fabric>(mut fab: F, reliability: Reliability, plan: FaultPlan) -> Pair<F> {
    let plan = fault::handle(plan);
    fab.with_node(1, move |node| node.install_fault_plan(&plan));
    let tag = ProtectionTag(7);
    let p0 = fab.spawn_process(0);
    let p1 = fab.spawn_process(1);
    let v0 = fab.create_vi(0, p0, tag).unwrap();
    let v1 = fab.create_vi(1, p1, tag).unwrap();
    fab.set_reliability(0, v0, reliability).unwrap();
    fab.set_reliability(1, v1, reliability).unwrap();
    fab.connect((0, v0), (1, v1)).unwrap();
    let len = PAGE_SIZE;
    let b0 = fab.mmap(0, p0, len, prot::READ | prot::WRITE).unwrap();
    let b1 = fab.mmap(1, p1, len, prot::READ | prot::WRITE).unwrap();
    fab.write_user(0, p0, b0, &[0x5A; 256]).unwrap();
    let m0 = fab.register_mem(0, p0, b0, len, tag).unwrap();
    let m1 = fab.register_mem(1, p1, b1, len, tag).unwrap();
    Pair {
        fab,
        v0,
        v1,
        m0,
        m1,
        b0,
        b1,
    }
}

impl<F: Fabric> Pair<F> {
    /// Deliver everything in flight: one pump, then the audit, which on
    /// the threaded fabric settles every node first.
    fn settle(&mut self) {
        self.fab.pump().unwrap();
        self.fab.check_invariants().unwrap();
    }

    fn receiver_state(&mut self) -> ViState {
        let v1 = self.v1;
        self.fab
            .with_node(1, move |node| node.nic.vi(v1).unwrap().state)
    }
}

fn reliable_drop<F: Fabric>(fab: F) {
    let mut p = pair(
        fab,
        Reliability::Reliable,
        FaultPlan::new(11).fail(FaultSite::WireDrop, 1),
    );
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_send(0, p.v0, p.m0, p.b0, 256).unwrap();
    p.settle();

    // The receiver learns about the loss: its oldest posted recv completes
    // in error and the VI transitions to the error state.
    let c = p.fab.poll_cq(1, p.v1).unwrap().expect("error completion");
    assert_eq!(c.status, DescStatus::TransportError);
    assert!(c.status.is_error());
    assert_eq!(p.receiver_state(), ViState::Error);
    assert_eq!(p.fab.nic_stats(1).wire_drops, 1);

    // Further posts on the broken VI are refused with a typed error.
    assert!(p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).is_err());
    p.fab.check_invariants().unwrap();
}

#[test]
fn reliable_drop_breaks_connection_with_transport_error() {
    on_both_fabrics!(reliable_drop);
}

fn unreliable_drop<F: Fabric>(fab: F) {
    let mut p = pair(
        fab,
        Reliability::Unreliable,
        FaultPlan::new(12).fail(FaultSite::WireDrop, 1),
    );
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_send(0, p.v0, p.m0, p.b0, 256).unwrap();
    p.settle();

    // No completion, no broken VI — just a counter. The recv stays posted
    // and a retransmission lands in it.
    assert!(p.fab.poll_cq(1, p.v1).unwrap().is_none());
    assert_eq!(p.receiver_state(), ViState::Connected);
    assert_eq!(p.fab.nic_stats(1).wire_drops, 1);

    p.fab.post_send(0, p.v0, p.m0, p.b0, 256).unwrap();
    p.settle();
    let c = p
        .fab
        .poll_cq(1, p.v1)
        .unwrap()
        .expect("retransmit delivered");
    assert_eq!(c.status, DescStatus::Done);
    p.fab.check_invariants().unwrap();
}

#[test]
fn unreliable_drop_is_silent() {
    on_both_fabrics!(unreliable_drop);
}

fn reliable_duplicate<F: Fabric>(fab: F) {
    let mut p = pair(
        fab,
        Reliability::Reliable,
        FaultPlan::new(13).fail(FaultSite::WireDuplicate, 1),
    );
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_send(0, p.v0, p.m0, p.b0, 256).unwrap();
    p.settle();

    // Sequence numbers discard the copy: exactly one receive completes.
    let c = p.fab.poll_cq(1, p.v1).unwrap().expect("one delivery");
    assert_eq!(c.status, DescStatus::Done);
    assert!(p.fab.poll_cq(1, p.v1).unwrap().is_none());
    assert_eq!(p.fab.nic_stats(1).wire_dups, 1);
    assert_eq!(p.receiver_state(), ViState::Connected);
    p.fab.check_invariants().unwrap();
}

#[test]
fn reliable_duplicate_is_suppressed() {
    on_both_fabrics!(reliable_duplicate);
}

fn unreliable_duplicate<F: Fabric>(fab: F) {
    let mut p = pair(
        fab,
        Reliability::Unreliable,
        FaultPlan::new(14).fail(FaultSite::WireDuplicate, 1),
    );
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_send(0, p.v0, p.m0, p.b0, 256).unwrap();
    p.settle();

    // No sequence numbers: the copy consumes a second posted recv.
    let c1 = p.fab.poll_cq(1, p.v1).unwrap().expect("first delivery");
    let c2 = p.fab.poll_cq(1, p.v1).unwrap().expect("duplicate delivery");
    assert_eq!(c1.status, DescStatus::Done);
    assert_eq!(c2.status, DescStatus::Done);
    assert_eq!(c1.len, c2.len);
    assert_eq!(p.fab.nic_stats(1).wire_dups, 1);
    p.fab.check_invariants().unwrap();
}

#[test]
fn unreliable_duplicate_delivers_twice() {
    on_both_fabrics!(unreliable_duplicate);
}

fn delayed_packet<F: Fabric>(fab: F) {
    let mut p = pair(
        fab,
        Reliability::Reliable,
        FaultPlan::new(15).fail(FaultSite::WireDelay, 1),
    );
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE).unwrap();
    // Both sends in one closure: shipped together, they reach node 1 as
    // one batch, so the second is already queued there when the first is
    // delayed — on the threaded fabric too.
    let (v0, m0, b0) = (p.v0, p.m0, p.b0);
    p.fab
        .try_with_node(0, move |node| {
            node.nic.post(v0, Descriptor::send(m0, b0, 256), true)?; // delayed
            node.nic.post(v0, Descriptor::send(m0, b0, 128), true) // overtakes it
        })
        .unwrap()
        .unwrap();
    p.settle();

    // Both arrive, but the second send completes first.
    let c1 = p.fab.poll_cq(1, p.v1).unwrap().expect("first delivery");
    let c2 = p.fab.poll_cq(1, p.v1).unwrap().expect("second delivery");
    assert_eq!(c1.status, DescStatus::Done);
    assert_eq!(c2.status, DescStatus::Done);
    assert_eq!((c1.len, c2.len), (128, 256), "delay did not reorder");
    assert_eq!(p.fab.nic_stats(1).wire_delays, 1);
    p.fab.check_invariants().unwrap();
}

#[test]
fn delayed_packet_is_reordered_behind_later_traffic() {
    on_both_fabrics!(delayed_packet);
}

fn pool_ledger<F: Fabric>(fab: F) {
    // Hammer all three wire sites probabilistically over many exchanges;
    // the pool ledger and every other invariant must hold after each round.
    let plan = FaultPlan::new(0xFEED)
        .fail_with_probability(FaultSite::WireDrop, 8192)
        .fail_with_probability(FaultSite::WireDuplicate, 8192)
        .fail_with_probability(FaultSite::WireDelay, 8192);
    let mut p = pair(fab, Reliability::Unreliable, plan);
    for _ in 0..64 {
        let _ = p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE);
        let _ = p.fab.post_recv(1, p.v1, p.m1, p.b1, PAGE_SIZE);
        let _ = p.fab.post_send(0, p.v0, p.m0, p.b0, 128);
        p.settle();
        while p.fab.poll_cq(1, p.v1).unwrap().is_some() {}
        while p.fab.poll_cq(0, p.v0).unwrap().is_some() {}
    }
    let s = p.fab.nic_stats(1);
    assert!(
        s.wire_drops + s.wire_dups + s.wire_delays > 0,
        "probabilistic plan never fired"
    );
}

#[test]
fn wire_faults_never_unbalance_the_pool_ledger() {
    on_both_fabrics!(pool_ledger);
}
