//! Failure injection across the stack: resource exhaustion (TPT, swap,
//! RAM, registration limits), busy page locks, and the rollback behaviour
//! each must trigger.

use simmem::{prot, Capabilities, Kernel, KernelConfig, MmError, PAGE_SIZE};
use via::nic::Node;
use via::tpt::ProtectionTag;
use via::{DescOp, Descriptor, Fabric, ThreadedCluster, ViaError, ViaSystem};
use vialock::{MemoryRegistry, RegError, StrategyKind};

#[test]
fn tpt_exhaustion_rolls_back_the_pin() {
    // A NIC with a 8-page TPT: the failed registration must leave no pins
    // behind.
    let mut node = Node::new(KernelConfig::small(), StrategyKind::KiobufReliable, 8);
    let pid = node.kernel.spawn_process(Capabilities::default());
    let tag = ProtectionTag(1);
    let a = node
        .kernel
        .mmap_anon(pid, 16 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let small = node.register_mem(pid, a, 4 * PAGE_SIZE, tag).unwrap();
    // 12 more pages do not fit into the remaining 4 slots.
    let r = node.register_mem(pid, a + 4 * PAGE_SIZE as u64, 12 * PAGE_SIZE, tag);
    assert!(matches!(r, Err(ViaError::Reg(RegError::LimitExceeded))));
    assert_eq!(node.registry.live_regions(), 1, "failed pin rolled back");
    assert_eq!(node.registry.pinned_frames(), 4);
    node.deregister_mem(small).unwrap();
    assert_eq!(node.registry.pinned_frames(), 0);
}

#[test]
fn registry_page_limit_is_a_hard_cap() {
    let mut k = Kernel::new(KernelConfig::small());
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 32 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable).with_page_limit(10);
    let h1 = reg.register(&mut k, pid, a, 6 * PAGE_SIZE).unwrap();
    assert_eq!(
        reg.register(&mut k, pid, a + 6 * PAGE_SIZE as u64, 6 * PAGE_SIZE),
        Err(RegError::LimitExceeded)
    );
    // Freeing capacity unblocks.
    reg.deregister(&mut k, h1).unwrap();
    let h2 = reg.register(&mut k, pid, a, 10 * PAGE_SIZE).unwrap();
    reg.deregister(&mut k, h2).unwrap();
}

#[test]
fn would_block_then_retry_succeeds() {
    // The page-wait-queue dance: a registration that hits a page under
    // kernel I/O reports WouldBlock; after the I/O completes the retry
    // pins everything.
    let mut k = Kernel::new(KernelConfig::small());
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.touch_pages(pid, a, 8 * PAGE_SIZE, true).unwrap();
    let busy = k.frame_of(pid, a + 3 * PAGE_SIZE as u64).unwrap().unwrap();
    k.begin_page_io(busy);

    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let mut attempts = 0;
    let handle = loop {
        attempts += 1;
        match reg.register(&mut k, pid, a, 8 * PAGE_SIZE) {
            Ok(h) => break h,
            Err(RegError::WouldBlock) => {
                // "Sleep" until the I/O finishes.
                assert!(k.end_page_io(busy), "I/O lock was intact");
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    };
    assert_eq!(attempts, 2);
    assert_eq!(reg.snapshot().blocked, 1);
    assert!(reg.verify_consistency(&k, handle).unwrap());
    reg.deregister(&mut k, handle).unwrap();
}

#[test]
fn oom_during_registration_fails_cleanly() {
    // Tiny machine, tiny swap: faulting a large cold region in during
    // registration runs out of memory; the registry must surface the error
    // without leaking pins.
    let mut k = Kernel::new(KernelConfig {
        nframes: 32,
        reserved_frames: 4,
        swap_slots: 4,
        default_rlimit_memlock: None,
        swap_cache: false,
    });
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let r = reg.register(&mut k, pid, a, 64 * PAGE_SIZE);
    assert_eq!(r, Err(RegError::Mm(MmError::OutOfMemory)));
    assert_eq!(reg.live_regions(), 0);
    // Invariant intact even though pins from the partial loop... must be 0.
    reg.check_invariants(&k).unwrap();
}

#[test]
fn rlimit_memlock_blocks_the_mlock_strategy() {
    let mut k = Kernel::new(KernelConfig {
        nframes: 256,
        reserved_frames: 8,
        swap_slots: 512,
        default_rlimit_memlock: Some(4 * PAGE_SIZE as u64),
        swap_cache: false,
    });
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
    assert_eq!(
        reg.register(&mut k, pid, a, 8 * PAGE_SIZE),
        Err(RegError::Mm(MmError::MlockLimit)),
        "RLIMIT_MEMLOCK applies even through the capability dance"
    );
    // The kiobuf mechanism is not subject to the mlock rlimit at all.
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let h = reg.register(&mut k, pid, a, 8 * PAGE_SIZE).unwrap();
    reg.deregister(&mut k, h).unwrap();
}

#[test]
fn swap_full_under_pressure_is_oom_not_corruption() {
    // When swap fills, the machine OOMs; registered memory stays coherent.
    let mut node = Node::new(
        KernelConfig {
            nframes: 128,
            reserved_frames: 8,
            swap_slots: 32,
            default_rlimit_memlock: None,
            swap_cache: false,
        },
        StrategyKind::KiobufReliable,
        512,
    );
    let pid = node.kernel.spawn_process(Capabilities::default());
    let tag = ProtectionTag(2);
    let a = node
        .kernel
        .mmap_anon(pid, 8 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    node.kernel
        .write_user(pid, a, &vec![7u8; 8 * PAGE_SIZE])
        .unwrap();
    let mem = node.register_mem(pid, a, 8 * PAGE_SIZE, tag).unwrap();

    // Hog until OOM.
    let hog = node.kernel.spawn_process(Capabilities::default());
    let hb = node
        .kernel
        .mmap_anon(hog, 512 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut oomed = false;
    for i in 0..512 {
        match node
            .kernel
            .write_user(hog, hb + (i * PAGE_SIZE) as u64, &[1u8; 8])
        {
            Ok(()) => {}
            Err(MmError::OutOfMemory) => {
                oomed = true;
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(oomed, "swap must fill");
    // The registration is untouched and data is intact.
    let region = node.nic.tpt.region(mem).unwrap().clone();
    let (frame, _) = node
        .nic
        .tpt
        .translate(mem, region.user_addr, tag, via::tpt::Access::Local)
        .unwrap();
    let mut out = [0u8; 4];
    node.kernel.dma_read(frame, 0, &mut out).unwrap();
    assert_eq!(out, [7u8; 4]);
    node.deregister_mem(mem).unwrap();
}

#[test]
fn range_wrapping_the_address_space_is_a_typed_error_for_every_strategy() {
    // `addr + len` overflows a u64: the request must be refused before any
    // page arithmetic, with nothing registered and nothing pinned — through
    // the bare registry and through the node's `VipRegisterMem` path alike.
    let wrapping = u64::MAX - 100;
    for strategy in StrategyKind::ALL {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let mut reg = MemoryRegistry::new(strategy);
        assert!(
            matches!(
                reg.register(&mut k, pid, wrapping, PAGE_SIZE),
                Err(RegError::InvalidArgument(_))
            ),
            "{strategy:?}: registry accepted a wrapping range"
        );
        // The sum fits but its page-aligned end does not.
        assert!(
            matches!(
                reg.register(&mut k, pid, u64::MAX - PAGE_SIZE as u64, 8),
                Err(RegError::InvalidArgument(_))
            ),
            "{strategy:?}: registry accepted a range whose last page wraps"
        );
        assert_eq!(reg.live_regions(), 0, "{strategy:?}");
        reg.check_invariants(&k).unwrap();

        let mut node = Node::new(KernelConfig::small(), strategy, 64);
        let pid = node.kernel.spawn_process(Capabilities::default());
        assert!(
            matches!(
                node.register_mem(pid, wrapping, PAGE_SIZE, ProtectionTag(1)),
                Err(ViaError::Reg(RegError::InvalidArgument(_)))
            ),
            "{strategy:?}: node accepted a wrapping range"
        );
        assert_eq!(node.registry.live_regions(), 0, "{strategy:?}");
        assert_eq!(node.nic.tpt.used_slots(), 0, "{strategy:?}");
        node.check_local_invariants().unwrap();
    }
}

/// Where a descriptor under test aims its address, relative to the 2-page
/// region the address names.
#[derive(Clone, Copy, Debug)]
enum Aim {
    Base,
    /// In `u64`, but a page past the region's end: the ordinary refusal.
    PastEnd,
    Abs(u64),
}

/// Run one operation between two fresh nodes with the span under test in
/// the slot a hostile or buggy poster controls — the local segment of a
/// send or receive, the remote address of an RDMA write, read or CAS (the
/// one-sided operations also claim `len` bytes) — and report everything
/// observable: the pump's result, both completion queues, refusals and
/// payload allocations. The invariant audit (pin census, pool ledger)
/// runs here.
fn span_outcome(op: DescOp, aim: Aim, len: usize) -> String {
    let mut sys = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
    let tag = ProtectionTag(3);
    let mut ends = Vec::new();
    for n in 0..2 {
        let pid = sys.spawn_process(n);
        let vi = sys.create_vi(n, pid, tag).unwrap();
        let buf = sys
            .mmap(n, pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let mem = sys
            .node_mut(n)
            .register_mem_attrs(pid, buf, 2 * PAGE_SIZE, tag, true, true)
            .unwrap();
        ends.push((vi, mem, buf));
    }
    let [(va, ma, ba), (vb, mb, bb)] = ends[..] else {
        unreachable!()
    };
    sys.connect((0, va), (1, vb)).unwrap();
    let at = |base: u64| match aim {
        Aim::Base => base,
        Aim::PastEnd => base + 3 * PAGE_SIZE as u64,
        Aim::Abs(a) => a,
    };
    match op {
        DescOp::Send => {
            sys.post_recv(1, vb, mb, bb, 2 * PAGE_SIZE).unwrap();
            sys.post_send(0, va, ma, at(ba), len).unwrap();
        }
        DescOp::Recv => {
            sys.post_recv(1, vb, mb, at(bb), len).unwrap();
            sys.post_send(0, va, ma, ba, 64).unwrap();
        }
        DescOp::RdmaWrite => sys.post_rdma_write(0, va, ma, ba, len, mb, at(bb)).unwrap(),
        DescOp::RdmaRead => sys.post_rdma_read(0, va, ma, ba, len, mb, at(bb)).unwrap(),
        DescOp::AtomicCas => sys
            .post_send_desc(0, va, Descriptor::atomic_cas(ma, ba, mb, at(bb), 0, 1))
            .unwrap(),
    }
    let pumped = sys.pump();
    let cqs = [sys.poll_cq(0, va).unwrap(), sys.poll_cq(1, vb).unwrap()];
    let stats = [0, 1].map(|n| sys.node(n).nic.stats);
    let counts = stats.map(|s| (s.protection_errors, s.payload_allocs));
    sys.check_invariants()
        .unwrap_or_else(|e| panic!("{op:?} {aim:?} {len}: {e}"));
    format!("{pumped:?} {cqs:?} {counts:?}")
}

#[test]
fn wrapping_and_oversized_spans_are_refused_like_ordinary_out_of_range_ones() {
    // `addr + len` wraps u64, or `len` dwarfs the host's memory: each must
    // end exactly as the in-range-of-u64 refusal beside it does — typed,
    // nothing allocated for the claimed length, ledgers balanced.
    let cases = [
        ((Aim::Abs(u64::MAX - 10), 100), (Aim::PastEnd, 100)),
        ((Aim::Base, 1usize << 45), (Aim::Base, 3 * PAGE_SIZE)),
        ((Aim::Base, usize::MAX), (Aim::Base, 3 * PAGE_SIZE)),
    ];
    for op in [
        DescOp::Send,
        DescOp::Recv,
        DescOp::RdmaWrite,
        DescOp::RdmaRead,
    ] {
        for ((aim, len), (plain_aim, plain_len)) in cases {
            let got = span_outcome(op, aim, len);
            assert_eq!(
                got,
                span_outcome(op, plain_aim, plain_len),
                "{op:?} {aim:?} {len}"
            );
            // A receive only places the bytes that arrive, so an over-long
            // receive buffer claim is harmless; everything else is refused.
            let harmless = op == DescOp::Recv && matches!(aim, Aim::Base);
            assert_eq!(
                got.contains("OutOfBounds") || got.contains("ProtectionError"),
                !harmless,
                "{op:?} {aim:?} {len}: {got}"
            );
        }
    }
    // The CAS operand is a fixed aligned word; only its address can wrap.
    let got = span_outcome(DescOp::AtomicCas, Aim::Abs(u64::MAX - 7), 8);
    assert_eq!(got, span_outcome(DescOp::AtomicCas, Aim::PastEnd, 8));
    assert!(got.contains("ProtectionError"), "{got}");
}

/// `sci_write` of `len` bytes at byte offset `off` into a 2-page exported
/// region, on one fabric: the result, and what the target holds afterwards.
fn sci_write_outcome<F: Fabric>(fab: &mut F, off: usize, len: usize) -> String {
    let rw = prot::READ | prot::WRITE;
    let tag = ProtectionTag(3);
    let (pa, pb) = (fab.spawn_process(0), fab.spawn_process(1));
    let src = fab.mmap(0, pa, 2 * PAGE_SIZE, rw).unwrap();
    let dst = fab.mmap(1, pb, 2 * PAGE_SIZE, rw).unwrap();
    fab.write_user(0, pa, src, &[0xAB; 2 * PAGE_SIZE]).unwrap();
    let exported = fab.register_mem(1, pb, dst, 2 * PAGE_SIZE, tag).unwrap();
    let r = fab.sci_write((0, pa, src), len, (1, exported, off));
    let mut held = vec![0u8; 2 * PAGE_SIZE];
    fab.read_user(1, pb, dst, &mut held).unwrap();
    fab.check_invariants().unwrap();
    let stored = held.iter().filter(|&&b| b == 0xAB).count();
    format!("{r:?} stored {stored}")
}

#[test]
fn sci_write_checks_the_destination_before_it_sizes_a_buffer() {
    // The length is the caller's; the staging buffer is ours. A length no
    // exported region could hold is refused typed, on both fabrics, before
    // either allocates for it — and one that fits still lands.
    let cases = [
        (0, 1usize << 46, "Err(OutOfBounds) stored 0"),
        (0, usize::MAX, "Err(OutOfBounds) stored 0"),
        (8, usize::MAX - 4, "Err(OutOfBounds) stored 0"),
        (0, 2 * PAGE_SIZE + 1, "Err(OutOfBounds) stored 0"),
        (PAGE_SIZE, PAGE_SIZE + 1, "Err(OutOfBounds) stored 0"),
        (PAGE_SIZE - 8, PAGE_SIZE, "Ok(()) stored 4096"),
        (0, 2 * PAGE_SIZE, "Ok(()) stored 8192"),
    ];
    for (off, len, want) in cases {
        let (cfg, strategy) = (KernelConfig::small(), StrategyKind::KiobufReliable);
        let got = sci_write_outcome(&mut ViaSystem::new(2, cfg, strategy), off, len);
        assert_eq!(got, want, "deterministic fabric, off {off} len {len}");
        let got = sci_write_outcome(&mut ThreadedCluster::new(2, cfg, strategy), off, len);
        assert_eq!(got, want, "threaded fabric, off {off} len {len}");
    }
}
