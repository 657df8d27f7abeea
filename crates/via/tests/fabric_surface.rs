//! One script, two fabrics, equal transcripts.
//!
//! A node-local [`Fabric`] operation is written once, as a provided method
//! over [`Fabric::try_with_node`]; what lets one body stand for both
//! fabrics is that they already answered every call alike. [`script`]
//! calls every `Fabric` method with good arguments and with bad ones and
//! records each result's `Debug` form; the transcripts of [`ViaSystem`] and
//! [`ThreadedCluster`] must be equal line for line.
//!
//! Two results are fabric-specific by contract and normalised here: the
//! packet count `pump` returns (the threaded fabric also delivers on its
//! own), and `wait_cq` on a queue nothing will ever reach, which the
//! deterministic fabric answers `BadState` after one pump and the threaded
//! one `Timeout` after its wait budget — the script waits on such a queue
//! with `wait_cq_deadline` only, which is `Timeout` on both.

use std::time::Duration;

use simmem::{prot, KernelConfig, PAGE_SIZE};
use via::tpt::{MemId, ProtectionTag};
use via::vi::ViState;
use via::vi::{Reliability, ViId};
use via::{ClusterBuilder, Descriptor, Fabric, ThreadedCluster, ViaError, ViaSystem};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

const RW: u8 = prot::READ | prot::WRITE;
const TAG: ProtectionTag = ProtectionTag(7);
const NO_VI: ViId = ViId(999);
const NO_MEM: MemId = MemId(999);

fn script<F: Fabric>(fab: &mut F) -> Vec<String> {
    let mut t: Vec<String> = Vec::new();
    // One transcript line per call: the call as written, then its result.
    // `take!` hands the result on as well.
    macro_rules! take {
        ($e:expr) => {{
            let r = $e;
            t.push(format!("{}: {:?}", stringify!($e), r));
            r
        }};
    }
    macro_rules! rec {
        ($e:expr) => {
            t.push(format!("{}: {:?}", stringify!($e), $e))
        };
    }
    rec!(fab.node_count());

    // Processes, address spaces, CPU loads and stores.
    let pa = take!(fab.spawn_process(0));
    let pb = take!(fab.spawn_process(1));
    let ba = take!(fab.mmap(0, pa, 2 * PAGE_SIZE, RW)).unwrap();
    let bb = take!(fab.mmap(1, pb, 2 * PAGE_SIZE, RW)).unwrap();
    rec!(fab.mmap(0, pa, usize::MAX, RW));
    let gone = take!(fab.mmap(0, pa, PAGE_SIZE, RW)).unwrap();
    rec!(fab.munmap(0, pa, gone, PAGE_SIZE));
    rec!(fab.munmap(0, pa, 0u64.wrapping_sub(PAGE_SIZE as u64), 2 * PAGE_SIZE));
    rec!(fab.touch_pages(0, pa, ba, 2 * PAGE_SIZE, true));
    rec!(fab.touch_pages(0, pa, gone, PAGE_SIZE, true));
    rec!(fab.write_user(0, pa, ba, b"ping over VIA"));
    rec!(fab.write_user(0, pa, gone, b"nowhere"));
    let mut ping = [0u8; 13];
    rec!(fab.read_user(0, pa, ba, &mut ping));
    rec!(ping);
    rec!(fab.read_user(0, pa, gone, &mut ping));

    // VIs and connections. A connect that is refused leaves both VIs as
    // they were, so `vd` is still there to be connected at the end.
    let va = take!(fab.create_vi(0, pa, TAG)).unwrap();
    let vb = take!(fab.create_vi(1, pb, TAG)).unwrap();
    let vc = take!(fab.create_vi(1, pb, TAG)).unwrap();
    let vd = take!(fab.create_vi(0, pa, TAG)).unwrap();
    rec!(fab.set_reliability(1, vc, Reliability::Unreliable));
    rec!(fab.set_reliability(1, vc, Reliability::Reliable));
    rec!(fab.set_reliability(1, NO_VI, Reliability::Reliable));
    rec!(fab.connect((0, va), (1, vb)));
    rec!(fab.connect((0, vd), (1, vb)));
    rec!(fab.connect((0, vd), (1, NO_VI)));
    rec!(fab.connect((0, vd), (0, vd)));
    rec!(fab.connect((0, vd), (1, vc)));

    // Registration.
    let ma = take!(fab.register_mem(0, pa, ba, 2 * PAGE_SIZE, TAG)).unwrap();
    let mb = take!(fab.register_mem_attrs(1, pb, bb, 2 * PAGE_SIZE, TAG, true, true)).unwrap();
    rec!(fab.register_mem(0, pa, gone, PAGE_SIZE, TAG));
    let extra = take!(fab.register_mem(0, pa, ba, PAGE_SIZE, TAG)).unwrap();
    rec!(fab.deregister_mem(0, extra));
    rec!(fab.deregister_mem(0, extra));
    rec!(fab.deregister_mem(0, NO_MEM));

    // Send / receive.
    rec!(fab.poll_cq(0, va));
    rec!(fab.poll_cq(0, NO_VI));
    rec!(fab.post_recv(1, vb, mb, bb, PAGE_SIZE));
    rec!(fab.post_send(0, va, ma, ba, 13));
    rec!(fab.post_send(0, NO_VI, ma, ba, 13));
    rec!(fab.post_recv_desc(1, NO_VI, Descriptor::recv(mb, bb, 8)));
    rec!(fab.wait_cq(1, vb));
    rec!(fab.wait_cq(0, va));
    rec!(fab.wait_cq(0, NO_VI));
    rec!(fab.wait_cq_deadline(0, va, Duration::from_millis(20)));
    rec!(fab.wait_cq_deadline(0, NO_VI, Duration::from_millis(20)));
    let mut received = [0u8; 13];
    rec!(fab.read_user(1, pb, bb, &mut received));
    rec!(received);

    // RDMA write: completes at the requester when shipped, so settle the
    // fabric (check_invariants quiesces it) before reading the target.
    rec!(fab.write_user(0, pa, ba + 64, b"one-sided"));
    rec!(fab.post_rdma_write(0, va, ma, ba + 64, 9, mb, bb + 512));
    rec!(fab.wait_cq(0, va));
    rec!(fab.check_invariants());
    let mut rdma_written = [0u8; 9];
    rec!(fab.read_user(1, pb, bb + 512, &mut rdma_written));
    rec!(rdma_written);
    // A remote region that does not exist is the target's refusal.
    rec!(fab.post_send_desc(0, vd, Descriptor::rdma_write(ma, ba, 8, NO_MEM, bb)));
    rec!(fab.pump().map(|_| ()));
    rec!(fab.poll_cq(0, vd));

    // RDMA read and compare-and-swap round trips.
    rec!(fab.post_rdma_read(0, va, ma, ba + 128, 9, mb, bb + 512));
    rec!(fab.wait_cq(0, va));
    let mut rdma_read = [0u8; 9];
    rec!(fab.read_user(0, pa, ba + 128, &mut rdma_read));
    rec!(rdma_read);
    rec!(fab.write_user(1, pb, bb + 1024, &5u64.to_le_bytes()));
    rec!(fab.post_atomic_cas(0, va, ma, ba + 256, mb, bb + 1024, 5, 9));
    rec!(fab.wait_cq(0, va));
    let (mut cas_old, mut cas_word) = ([0u8; 8], [0u8; 8]);
    rec!(fab.read_user(0, pa, ba + 256, &mut cas_old));
    rec!(fab.read_user(1, pb, bb + 1024, &mut cas_word));
    rec!((u64::from_le_bytes(cas_old), u64::from_le_bytes(cas_word)));

    // SCI programmed I/O: good, past the region, unknown region, unmapped
    // source.
    rec!(fab.sci_write((0, pa, ba), 13, (1, mb, 2048)));
    rec!(fab.sci_write((0, pa, ba), PAGE_SIZE, (1, mb, PAGE_SIZE + 1)));
    rec!(fab.sci_write((0, pa, ba), 13, (1, NO_MEM, 0)));
    rec!(fab.sci_write((0, pa, gone), 13, (1, mb, 0)));
    rec!(fab.sci_write_bytes(b"registers", (1, mb, 3000)));
    rec!(fab.sci_write_bytes(&[0u8; 8], (1, mb, 2 * PAGE_SIZE - 4)));
    rec!(fab.sci_write_bytes(b"x", (1, NO_MEM, 0)));
    let mut pio = [0u8; 13];
    rec!(fab.sci_read_bytes((1, mb, 2048), &mut pio));
    rec!(pio);
    rec!(fab.sci_read_bytes((1, mb, 2 * PAGE_SIZE), &mut pio));
    rec!(fab.sci_read_bytes((1, NO_MEM, 0), &mut pio));

    // A protection-tag mismatch is refused at the sender.
    let odd = take!(fab.register_mem(0, pa, ba, PAGE_SIZE, ProtectionTag(9))).unwrap();
    rec!(fab.post_send(0, va, odd, ba, 4));
    rec!(fab.wait_cq(0, va));

    // A send nobody posted a receive for breaks the reliable connection;
    // the broken VI refuses further posts.
    rec!(fab.post_send(0, va, ma, ba, 4));
    rec!(fab.pump().map(|_| ()));
    rec!(fab.poll_cq(0, va));
    rec!(fab.post_recv(1, vb, mb, bb, 8));
    rec!(fab.post_send(1, vb, mb, bb, 8));
    rec!(fab.pump().map(|_| ()));

    // An injected TPT exhaustion, through the shared plan.
    fab.install_fault_plan(&fault::handle(
        FaultPlan::new(1).fail(FaultSite::TptFull, 1),
    ));
    rec!(fab.register_mem(1, pb, bb, PAGE_SIZE, TAG));
    rec!(fab.register_mem(1, pb, bb, PAGE_SIZE, TAG));

    // Process exit takes the process's VIs and registrations with it.
    rec!(fab.exit_process(0, pa));
    rec!(fab.post_send(0, vd, ma, ba, 4));
    rec!(fab.deregister_mem(0, ma));
    rec!(fab.mmap(0, pa, PAGE_SIZE, RW));
    rec!(fab.exit_process(0, pa));

    let s = fab.nic_stats(0);
    rec!((
        s.sends,
        s.rdma_writes,
        s.rdma_reads,
        s.atomic_cas,
        s.protection_errors
    ));
    let s = fab.nic_stats(1);
    rec!((s.recvs, s.dropped, s.cas_applied, s.bytes_rx));
    rec!(fab.with_node(1, |node| (
        node.registry.live_regions(),
        node.nic.vi_count()
    )));
    rec!(fab.try_with_node(0, |node| node.nic.vi(NO_VI).map(|v| v.state)));
    rec!(fab.check_invariants());
    t
}

fn small_pair() -> (ViaSystem, ThreadedCluster) {
    let (cfg, strategy) = (KernelConfig::small(), StrategyKind::KiobufReliable);
    let cluster = ClusterBuilder::new(2, cfg, strategy)
        .wait_timeout(Duration::from_millis(250))
        .build();
    (ViaSystem::new(2, cfg, strategy), cluster)
}

#[test]
fn both_fabrics_answer_the_script_alike() {
    let (mut sys, mut cluster) = small_pair();
    let det = script(&mut sys);
    let thr = script(&mut cluster);
    assert_eq!(det.len(), thr.len());
    let differing: Vec<_> = det.iter().zip(&thr).filter(|(d, t)| d != t).collect();
    assert!(
        differing.is_empty(),
        "(deterministic, threaded): {differing:#?}"
    );
    // The script is a test of the surface only if it got somewhere.
    for landed in [
        format!("rdma_written: {:?}", b"one-sided"),
        "(u64::from_le_bytes(cas_old), u64::from_le_bytes(cas_word)): (5, 9)".to_string(),
        "fab.connect((0, vd), (1, vc)): Ok(())".to_string(),
    ] {
        assert!(det.contains(&landed), "{landed} not in {det:#?}");
    }
}

fn vi_state<F: Fabric>(fab: &mut F, n: usize, vi: ViId) -> (ViState, Option<(usize, ViId)>) {
    fab.with_node(n, move |node| {
        let v = node.nic.vi(vi).expect("vi");
        (v.state, v.peer)
    })
}

/// A connect that cannot complete leaves both VIs as it found them: the
/// one connect rule, on either fabric.
fn refused_connects_change_nothing<F: Fabric>(fab: &mut F) {
    let pa = fab.spawn_process(0);
    let pb = fab.spawn_process(1);
    let va = fab.create_vi(0, pa, TAG).unwrap();
    let vb = fab.create_vi(1, pb, TAG).unwrap();
    let vc = fab.create_vi(1, pb, TAG).unwrap();
    fab.connect((0, va), (1, vb)).unwrap();
    let vd = fab.create_vi(0, pa, TAG).unwrap();
    let idle = (ViState::Idle, None);
    // vb is taken: the fresh VI must come out idle, and vb keep its peer.
    assert_eq!(
        fab.connect((0, vd), (1, vb)),
        Err(ViaError::BadState("connect on non-idle VI"))
    );
    assert_eq!(vi_state(fab, 0, vd), idle);
    assert_eq!(vi_state(fab, 1, vb), (ViState::Connected, Some((0, va))));
    // The other way round fails on its first VI and touches neither.
    assert!(fab.connect((1, vb), (0, vd)).is_err());
    assert_eq!(vi_state(fab, 0, vd), idle);
    // A peer that does not exist.
    assert_eq!(fab.connect((0, vd), (1, NO_VI)), Err(ViaError::BadId("vi")));
    assert_eq!(vi_state(fab, 0, vd), idle);
    // A VI is not its own peer.
    assert_eq!(
        fab.connect((0, vd), (0, vd)),
        Err(ViaError::BadState("connect VI to itself"))
    );
    assert_eq!(vi_state(fab, 0, vd), idle);
    // Still idle, so it connects; two VIs of one node connect too.
    fab.connect((0, vd), (1, vc)).unwrap();
    assert_eq!(vi_state(fab, 1, vc), (ViState::Connected, Some((0, vd))));
    let (ve, vf) = (
        fab.create_vi(1, pb, TAG).unwrap(),
        fab.create_vi(1, pb, TAG).unwrap(),
    );
    fab.connect((1, ve), (1, vf)).unwrap();
    assert_eq!(vi_state(fab, 1, vf), (ViState::Connected, Some((1, ve))));
}

#[test]
fn refused_connects_change_nothing_on_either_fabric() {
    let (mut sys, mut cluster) = small_pair();
    refused_connects_change_nothing(&mut sys);
    refused_connects_change_nothing(&mut cluster);
}

/// `connect_request` runs the same rule one level up: whatever refuses,
/// the client stays idle and the discriminator stays parked.
#[test]
fn refused_connect_request_leaves_client_idle_and_listener_parked() {
    let (mut sys, _) = small_pair();
    let server = sys.spawn_process(0);
    let client = sys.spawn_process(1);
    let sv = sys.create_vi(0, server, TAG).unwrap();
    let cv = sys.create_vi(1, client, TAG).unwrap();
    let busy = sys.create_vi(1, client, TAG).unwrap();
    let other = sys.create_vi(1, client, TAG).unwrap();
    sys.connect((1, busy), (1, other)).unwrap();
    sys.connect_wait(0, sv, 7).unwrap();
    // A client that is already connected is refused; the listener is
    // parked again.
    assert!(sys.connect_request((1, busy), 0, 7).is_err());
    assert_eq!(vi_state(&mut sys, 0, sv), (ViState::Listening, None));
    assert_eq!(
        vi_state(&mut sys, 1, busy),
        (ViState::Connected, Some((1, other)))
    );
    let sv2 = sys.create_vi(0, server, TAG).unwrap();
    assert!(
        sys.connect_wait(0, sv2, 7).is_err(),
        "discriminator still taken"
    );
    // The listener's process exits while it is parked: a dead listener.
    sys.exit_process(0, server).unwrap();
    assert_eq!(
        sys.connect_request((1, cv), 0, 7),
        Err(ViaError::BadState("listener is no longer listening"))
    );
    assert_eq!(vi_state(&mut sys, 1, cv), (ViState::Idle, None));
    assert_eq!(vi_state(&mut sys, 0, sv).0, ViState::Error);
    assert!(
        sys.connect_wait(0, sv2, 7).is_err(),
        "discriminator still taken"
    );
}

/// A two-node cluster whose node 1 has been killed.
fn cluster_with_dead_node() -> ThreadedCluster {
    let (_, mut fab) = small_pair();
    fab.kill_node(1).unwrap();
    fab
}

/// After `kill_node(1)` every operation on node 1 whose signature can
/// carry an error answers `PeerGone(1)` — at once, no panic, no hang —
/// and node 0 keeps answering.
#[test]
fn a_dead_node_is_a_typed_error() {
    let mut fab = cluster_with_dead_node();
    let (pid, vi, mem) = (simmem::Pid(1), ViId(0), MemId(1));
    let gone = Err(ViaError::PeerGone(1));
    let mut buf = [0u8; 8];
    let started = std::time::Instant::now();
    // The provided methods.
    assert_eq!(fab.exit_process(1, pid), gone);
    assert_eq!(fab.mmap(1, pid, PAGE_SIZE, RW).map(|_| ()), gone);
    assert_eq!(fab.munmap(1, pid, 0x4000_0000, PAGE_SIZE), gone);
    assert_eq!(fab.touch_pages(1, pid, 0x4000_0000, 8, false), gone);
    assert_eq!(fab.create_vi(1, pid, TAG).map(|_| ()), gone);
    assert_eq!(fab.set_reliability(1, vi, Reliability::Unreliable), gone);
    assert_eq!(
        fab.register_mem_attrs(1, pid, 0x4000_0000, PAGE_SIZE, TAG, true, true)
            .map(|_| ()),
        gone
    );
    assert_eq!(fab.deregister_mem(1, mem), gone);
    assert_eq!(fab.post_send_desc(1, vi, Descriptor::send(mem, 0, 8)), gone);
    assert_eq!(fab.post_recv_desc(1, vi, Descriptor::recv(mem, 0, 8)), gone);
    assert_eq!(fab.poll_cq(1, vi).map(|_| ()), gone);
    assert_eq!(
        fab.try_with_node(1, |node| node.nic.vi_count()),
        Err(ViaError::PeerGone(1))
    );
    // The five that move caller bytes.
    assert_eq!(fab.write_user(1, pid, 0x4000_0000, &buf), gone);
    assert_eq!(fab.read_user(1, pid, 0x4000_0000, &mut buf), gone);
    assert_eq!(fab.sci_write_bytes(&buf, (1, mem, 0)), gone);
    assert_eq!(fab.sci_read_bytes((1, mem, 0), &mut buf), gone);
    let p0 = fab.spawn_process(0);
    let b0 = fab.mmap(0, p0, PAGE_SIZE, RW).unwrap();
    assert_eq!(fab.sci_write((0, p0, b0), 8, (1, mem, 0)), gone);
    // What was required all along.
    assert_eq!(fab.wait_cq(1, vi).map(|_| ()), gone);
    assert_eq!(
        fab.wait_cq_deadline(1, vi, Duration::from_millis(5))
            .map(|_| ()),
        gone
    );
    assert_eq!(fab.pump().map(|_| ()), gone);
    assert!(fab.check_invariants().is_err());
    // A connect that reaches the dead node rolls its live end back.
    let v0 = fab.create_vi(0, p0, TAG).unwrap();
    assert_eq!(fab.connect((0, v0), (1, vi)), gone);
    assert_eq!(vi_state(&mut fab, 0, v0), (ViState::Idle, None));
    assert_eq!(fab.connect((1, vi), (0, v0)), gone);
    assert!(started.elapsed() < fab.wait_timeout());
    // Node 0 is unaffected.
    fab.write_user(0, p0, b0, b"still up").unwrap();
    fab.read_user(0, p0, b0, &mut buf).unwrap();
    assert_eq!(&buf, b"still up");
    assert_eq!(fab.nic_stats(0).sends, 0);
}

// The four whose signatures cannot carry an error keep their documented
// panic.

#[test]
#[should_panic(expected = "unreachable")]
fn spawn_process_on_a_dead_node_panics() {
    cluster_with_dead_node().spawn_process(1);
}

#[test]
#[should_panic(expected = "unreachable")]
fn nic_stats_of_a_dead_node_panics() {
    cluster_with_dead_node().nic_stats(1);
}

#[test]
#[should_panic(expected = "unreachable")]
fn install_fault_plan_with_a_dead_node_panics() {
    cluster_with_dead_node().install_fault_plan(&fault::handle(FaultPlan::new(1)));
}

#[test]
#[should_panic(expected = "unreachable")]
fn with_node_on_a_dead_node_panics() {
    cluster_with_dead_node().with_node(1, |node| node.nic.vi_count());
}
