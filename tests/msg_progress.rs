//! The message progress engine's resource discipline, seen from outside
//! `msg`: a send that finishes or is discarded gives back its completions,
//! its registration and its slot, and the registration cache makes room
//! when the NIC's table fills first.

use msg::{Comm, MsgConfig};
use simmem::{KernelConfig, VirtAddr};
use via::ViaError;
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

fn comm(n_ranks: usize, cfg: MsgConfig) -> Comm {
    Comm::new(
        n_ranks,
        n_ranks,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        cfg,
    )
    .expect("communicator")
}

fn filled(c: &mut Comm, rank: usize, len: usize, byte: u8) -> VirtAddr {
    let addr = c.alloc_buffer(rank, len).expect("alloc");
    c.fill_buffer(rank, addr, &vec![byte; len]).expect("fill");
    addr
}

fn busy_cache_entries(c: &Comm) -> Vec<usize> {
    (0..c.n_ranks()).map(|n| c.cache_in_use(n)).collect()
}

#[test]
fn one_way_one_copy_stream_never_overruns_the_cq() {
    // 32 KiB = 4 chunks: 2 000 messages leave 8 000 Send completions, twice
    // the CQ's capacity, and nothing but the sends themselves reaps them.
    let mut c = comm(2, MsgConfig::classic());
    let len = 32 * 1024;
    let sbuf = filled(&mut c, 0, len, 0xA5);
    let rbuf = c.alloc_buffer(1, len).unwrap();
    for i in 0..2_000 {
        c.send(0, 1, 1, sbuf, len)
            .unwrap_or_else(|e| panic!("send {i}: {e}"));
        assert_eq!(c.recv(1, 0, 1, rbuf, len).unwrap(), len);
    }
    assert_eq!(c.stats.oc_msgs, 2_000);
    assert_eq!(c.nic_stats(0).cq_overruns + c.nic_stats(1).cq_overruns, 0);
    let mut out = vec![0u8; len];
    c.read_buffer(1, rbuf, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0xA5));
}

/// One zero-copy message under `plan`; whatever the fault does to it, no
/// registration may stay held and the pin ledgers must balance.
fn zero_copy_under(plan: FaultPlan) -> (Comm, Result<usize, ViaError>) {
    let mut c = comm(2, MsgConfig::tiny());
    let len = 20_000;
    let sbuf = filled(&mut c, 0, len, 7);
    let rbuf = c.alloc_buffer(1, len).unwrap();
    // Control traffic is PIO: the RDMA write is the first descriptor
    // posted, the first completion pushed and the first packet on the wire.
    c.system_mut().install_fault_plan(&fault::handle(plan));
    let h = c.send(0, 1, 4, sbuf, len).unwrap();
    // The receiver drives the sender's rendezvous step, so a failure there
    // surfaces from `recv`.
    let received = c.recv(1, 0, 4, rbuf, len);
    c.wait(h).unwrap();
    assert_eq!(c.in_flight(), 0);
    assert_eq!(
        busy_cache_entries(&c),
        [0, 0],
        "both sides unpinnable again"
    );
    c.system_mut().check_invariants().unwrap();
    // Nothing is stuck pinned: every cached registration can be flushed.
    c.flush_caches().unwrap();
    c.system_mut().check_invariants().unwrap();
    (c, received)
}

#[test]
fn failed_zero_copy_rdma_is_discarded_with_nothing_held() {
    // The RDMA's completion overruns the sender's CQ: the fence fails, the
    // progress engine discards the send and the receiver gives up.
    let (mut c, received) = zero_copy_under(FaultPlan::new(3).fail(FaultSite::CqOverrun, 1));
    assert!(matches!(received, Err(ViaError::CqOverrun)));
    assert_eq!(c.nic_stats(0).cq_overruns, 1);
    // The slot came back too: the pair takes a full set of new sends.
    let sbuf = c.alloc_buffer(0, 64).unwrap();
    for _ in 0..MsgConfig::tiny().info_slots {
        c.send(0, 1, 5, sbuf, 32).unwrap();
    }
}

#[test]
fn dropped_zero_copy_rdma_leaves_no_registration_held() {
    // The deterministic fabric completes an RDMA write at transmission, so
    // the sender never learns of the drop; the loss shows on the receiving
    // NIC. Either way nothing stays pinned.
    let (mut c, _) = zero_copy_under(FaultPlan::new(3).fail(FaultSite::WireDrop, 1));
    assert_eq!(c.nic_stats(1).wire_drops, 1);
}

#[test]
fn retiring_a_rank_releases_the_survivors_sends_toward_it() {
    let cfg = MsgConfig::tiny();
    let mut c = comm(3, cfg);
    let (oc, zc) = (3_000, 20_000);
    let to_dead_zc = filled(&mut c, 0, zc, 1);
    let to_dead_oc = filled(&mut c, 0, oc, 2);
    let from_dead = filled(&mut c, 1, zc, 3);
    // Survivor → casualty: a zero-copy announcement and a one-copy message
    // whose chunks are already out; casualty → survivor: one announcement.
    c.send(0, 1, 1, to_dead_zc, zc).unwrap();
    c.send(0, 1, 2, to_dead_oc, oc).unwrap();
    c.send(1, 0, 3, from_dead, zc).unwrap();
    assert_eq!(c.in_flight(), 3);
    assert_eq!(busy_cache_entries(&c), [2, 1, 0]);

    c.retire_rank(1).unwrap();
    assert_eq!(c.in_flight(), 0);
    assert_eq!(busy_cache_entries(&c), [0, 0, 0]);
    c.system_mut().check_invariants().unwrap();

    // Fresh sends toward the casualty fail at the transport, typed.
    assert!(c.send(0, 1, 9, to_dead_oc, 32).is_err());
    // Survivor-to-survivor traffic is untouched and the caches still work.
    let rbuf = c.alloc_buffer(2, zc).unwrap();
    let h = c.send(0, 2, 5, to_dead_zc, zc).unwrap();
    assert_eq!(c.recv(2, 0, 5, rbuf, zc).unwrap(), zc);
    c.wait(h).unwrap();
    c.flush_caches().unwrap();
    c.system_mut().check_invariants().unwrap();
}

#[test]
fn fresh_buffers_evict_when_the_tpt_fills_before_the_cache_budget() {
    // classic(): the cache budget equals the TPT's capacity, and the pair
    // segments and rings occupy part of the TPT, so the table fills first.
    let mut c = comm(2, MsgConfig::classic());
    let len = 256 * 1024;
    for i in 0..64u8 {
        let sbuf = filled(&mut c, 0, len, i);
        let rbuf = c.alloc_buffer(1, len).unwrap();
        let h = c
            .send(0, 1, 1, sbuf, len)
            .unwrap_or_else(|e| panic!("buffer #{i}: {e}"));
        assert_eq!(c.recv(1, 0, 1, rbuf, len).unwrap(), len);
        c.wait(h).unwrap();
    }
    assert_eq!(c.stats.registrations, 128, "every buffer was new");
    assert!(c.cache_stats(0).evictions > 0);
    assert!(c.cache_stats(1).evictions > 0);
    assert_eq!(busy_cache_entries(&c), [0, 0]);
    c.system_mut().check_invariants().unwrap();
}
