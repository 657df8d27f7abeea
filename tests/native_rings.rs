//! End-to-end transfers through the native descriptor path: descriptors
//! encoded into rings in registered memory, DMA-fetched by the NIC, then
//! executed — both work queues of both nodes.

use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};
use via::descriptor::{DescOp, Descriptor};
use via::nic::Node;
use via::ring::DescriptorRing;
use via::tpt::ProtectionTag;
use vialock::StrategyKind;

struct RingNode {
    node: Node,
    pid: simmem::Pid,
    vi: via::vi::ViId,
    send_ring: DescriptorRing,
    recv_ring: DescriptorRing,
}

fn setup_pair() -> (RingNode, RingNode, ProtectionTag) {
    let tag = ProtectionTag(9);
    let make = |index_hint: u32| {
        let mut node = Node::new(KernelConfig::medium(), StrategyKind::KiobufReliable, 2048);
        let pid = node.kernel.spawn_process(Capabilities::default());
        let vi = node.nic.create_vi(pid, tag);
        let slots = 16;
        let ring_len = DescriptorRing::bytes(slots);
        let sbase = node
            .kernel
            .mmap_anon(pid, ring_len, prot::READ | prot::WRITE)
            .unwrap();
        let smem = node.register_mem(pid, sbase, ring_len, tag).unwrap();
        let rbase = node
            .kernel
            .mmap_anon(pid, ring_len, prot::READ | prot::WRITE)
            .unwrap();
        let rmem = node.register_mem(pid, rbase, ring_len, tag).unwrap();
        let _ = index_hint;
        RingNode {
            node,
            pid,
            vi,
            send_ring: DescriptorRing::new(smem, sbase, slots),
            recv_ring: DescriptorRing::new(rmem, rbase, slots),
        }
    };
    let mut a = make(0);
    let mut b = make(1);
    // Connect the VIs across "the fabric".
    a.node.nic.set_peer(a.vi, (1, b.vi)).unwrap();
    b.node.nic.set_peer(b.vi, (0, a.vi)).unwrap();
    (a, b, tag)
}

#[test]
fn send_receive_entirely_through_rings() {
    let (mut a, mut b, tag) = setup_pair();

    // Payload buffers.
    let sbuf = a
        .node
        .kernel
        .mmap_anon(a.pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    a.node
        .kernel
        .write_user(a.pid, sbuf, b"ring path!")
        .unwrap();
    let smem = a.node.register_mem(a.pid, sbuf, PAGE_SIZE, tag).unwrap();
    let rbuf = b
        .node
        .kernel
        .mmap_anon(b.pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let rmem = b.node.register_mem(b.pid, rbuf, PAGE_SIZE, tag).unwrap();

    // The receiver posts its descriptor into ITS recv ring (CPU stores),
    // and the NIC prefetches it by DMA.
    b.recv_ring
        .post(
            &mut b.node.kernel,
            b.pid,
            &Descriptor::recv(rmem, rbuf, PAGE_SIZE),
        )
        .unwrap();
    assert_eq!(
        b.node.prefetch_ring_recvs(b.vi, &mut b.recv_ring).unwrap(),
        1
    );

    // The sender posts into its send ring; the NIC fetches + executes.
    a.send_ring
        .post(
            &mut a.node.kernel,
            a.pid,
            &Descriptor::send(smem, sbuf, 10).with_imm(3),
        )
        .unwrap();
    let packets = a.node.pump_ring_sends(a.vi, &mut a.send_ring, 0).unwrap();
    assert_eq!(packets.len(), 1);
    for p in packets {
        b.node.deliver(p).unwrap();
    }

    // Completions on both sides, data in place.
    let c = a.node.nic.vi_mut(a.vi).unwrap().poll_cq().unwrap();
    assert_eq!(c.op, DescOp::Send);
    let c = b.node.nic.vi_mut(b.vi).unwrap().poll_cq().unwrap();
    assert_eq!((c.op, c.len, c.imm), (DescOp::Recv, 10, Some(3)));
    let mut out = [0u8; 10];
    b.node.kernel.read_user(b.pid, rbuf, &mut out).unwrap();
    assert_eq!(&out, b"ring path!");
}

#[test]
fn rdma_write_through_rings() {
    let (mut a, mut b, tag) = setup_pair();
    let sbuf = a
        .node
        .kernel
        .mmap_anon(a.pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    a.node
        .kernel
        .write_user(a.pid, sbuf, b"one-sided ring")
        .unwrap();
    let smem = a.node.register_mem(a.pid, sbuf, PAGE_SIZE, tag).unwrap();
    let rbuf = b
        .node
        .kernel
        .mmap_anon(b.pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let rmem = b.node.register_mem(b.pid, rbuf, PAGE_SIZE, tag).unwrap();

    a.send_ring
        .post(
            &mut a.node.kernel,
            a.pid,
            &Descriptor::rdma_write(smem, sbuf, 14, rmem, rbuf),
        )
        .unwrap();
    let packets = a.node.pump_ring_sends(a.vi, &mut a.send_ring, 0).unwrap();
    for p in packets {
        b.node.deliver(p).unwrap();
    }
    let mut out = [0u8; 14];
    b.node.kernel.read_user(b.pid, rbuf, &mut out).unwrap();
    assert_eq!(&out, b"one-sided ring");
}

#[test]
fn non_recv_on_recv_ring_is_rejected() {
    let (_, mut b, tag) = setup_pair();
    let buf = b
        .node
        .kernel
        .mmap_anon(b.pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mem = b.node.register_mem(b.pid, buf, PAGE_SIZE, tag).unwrap();
    b.recv_ring
        .post(&mut b.node.kernel, b.pid, &Descriptor::send(mem, buf, 4))
        .unwrap();
    assert!(b.node.prefetch_ring_recvs(b.vi, &mut b.recv_ring).is_err());
}

#[test]
fn ring_batches_multiple_descriptors() {
    let (mut a, mut b, tag) = setup_pair();
    let len = 4 * PAGE_SIZE;
    let sbuf = a
        .node
        .kernel
        .mmap_anon(a.pid, len, prot::READ | prot::WRITE)
        .unwrap();
    let smem = a.node.register_mem(a.pid, sbuf, len, tag).unwrap();
    let rbuf = b
        .node
        .kernel
        .mmap_anon(b.pid, len, prot::READ | prot::WRITE)
        .unwrap();
    let rmem = b.node.register_mem(b.pid, rbuf, len, tag).unwrap();

    for i in 0..4u8 {
        a.node
            .kernel
            .write_user(a.pid, sbuf + (i as usize * PAGE_SIZE) as u64, &[i + 1; 64])
            .unwrap();
        b.recv_ring
            .post(
                &mut b.node.kernel,
                b.pid,
                &Descriptor::recv(rmem, rbuf + (i as usize * PAGE_SIZE) as u64, PAGE_SIZE),
            )
            .unwrap();
        a.send_ring
            .post(
                &mut a.node.kernel,
                a.pid,
                &Descriptor::send(smem, sbuf + (i as usize * PAGE_SIZE) as u64, 64),
            )
            .unwrap();
    }
    b.node.prefetch_ring_recvs(b.vi, &mut b.recv_ring).unwrap();
    let packets = a.node.pump_ring_sends(a.vi, &mut a.send_ring, 0).unwrap();
    assert_eq!(packets.len(), 4);
    for p in packets {
        b.node.deliver(p).unwrap();
    }
    for i in 0..4u8 {
        let mut out = [0u8; 64];
        b.node
            .kernel
            .read_user(b.pid, rbuf + (i as usize * PAGE_SIZE) as u64, &mut out)
            .unwrap();
        assert!(out.iter().all(|&x| x == i + 1), "message {i}");
    }
}
