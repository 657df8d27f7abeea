//! Quickstart: a two-node VIA "cluster", one connected VI pair, a
//! send/receive and an RDMA write — each call named after its VIPL entry
//! point, with the paper's kiobuf-based registration underneath.
//!
//! Run with: `cargo run --example quickstart`

use simmem::{prot, KernelConfig, PAGE_SIZE};
use via::system::ViaSystem;
use via::tpt::ProtectionTag;
use vialock::StrategyKind;

fn main() {
    // A cluster of two nodes, pinning registered memory with the paper's
    // kiobuf mechanism.
    let mut sys = ViaSystem::new(2, KernelConfig::medium(), StrategyKind::KiobufReliable);
    let alice = sys.spawn_process(0);
    let bob = sys.spawn_process(1);
    let tag = ProtectionTag(42);

    // Create and connect a VI pair: VipCreateVi, then VipConnectRequest +
    // VipConnectAccept collapsed into one fabric-level connect.
    let vi_a = sys.create_vi(0, alice, tag).expect("create VI");
    let vi_b = sys.create_vi(1, bob, tag).expect("create VI");
    sys.connect((0, vi_a), (1, vi_b)).expect("connect");

    // Allocate and register communication buffers (VipRegisterMem).
    // Registration faults the pages in, pins them (kiobuf + pin table) and
    // fills the NIC's TPT.
    let sbuf = sys
        .mmap(0, alice, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
        .expect("mmap");
    let rbuf = sys
        .mmap(1, bob, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
        .expect("mmap");
    let smem = sys
        .register_mem(0, alice, sbuf, 2 * PAGE_SIZE, tag)
        .expect("register");
    let rmem = sys
        .register_mem(1, bob, rbuf, 2 * PAGE_SIZE, tag)
        .expect("register");
    println!("registered 2 pages on each node; TPT regions: {}", 2);

    // Two-sided send/receive: the receive descriptor must be pre-posted
    // (VipPostRecv before VipPostSend).
    let msg = b"hello from the Virtual Interface Architecture";
    sys.write_user(0, alice, sbuf, msg).expect("fill");
    sys.post_recv(1, vi_b, rmem, rbuf, 2 * PAGE_SIZE)
        .expect("post recv");
    sys.post_send(0, vi_a, smem, sbuf, msg.len())
        .expect("post send");
    sys.pump().expect("fabric");

    // VipCQDone in polling mode.
    let done = sys.poll_cq(1, vi_b).expect("poll").expect("completion");
    let mut got = vec![0u8; done.len];
    sys.read_user(1, bob, rbuf, &mut got).expect("read");
    println!("send/receive: bob got {:?}", String::from_utf8_lossy(&got));
    assert_eq!(&got, msg);

    // One-sided RDMA write (VipPostSend with an address segment): no
    // receive descriptor involved.
    let rdma = b"one-sided RDMA write, straight into bob's registered pages";
    sys.write_user(0, alice, sbuf + 512, rdma).expect("fill");
    sys.post_rdma_write(0, vi_a, smem, sbuf + 512, rdma.len(), rmem, rbuf + 512)
        .expect("post rdma");
    sys.pump().expect("fabric");
    let mut got = vec![0u8; rdma.len()];
    sys.read_user(1, bob, rbuf + 512, &mut got).expect("read");
    println!("rdma write:   bob got {:?}", String::from_utf8_lossy(&got));
    assert_eq!(&got, rdma);

    // Registration survives memory pressure — that is the paper's point.
    let stats = sys.node(0).nic.stats;
    println!(
        "nic 0: {} sends, {} rdma writes, {} bytes tx",
        stats.sends, stats.rdma_writes, stats.bytes_tx
    );
    // VipDeregisterMem.
    sys.deregister_mem(0, smem).expect("deregister");
    sys.deregister_mem(1, rmem).expect("deregister");
    println!("deregistered cleanly — quickstart OK");
}
