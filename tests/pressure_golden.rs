//! Behaviour pin for the page stealer under on-demand registration: the
//! benchmark's `pressure_ondemand` machine at a size that runs in about a
//! second, with **exact** totals and a hash of the victim order.
//!
//! Two 512-frame nodes, `StrategyKind::OnDemand`, sixteen pairs of 8-page
//! registered buffers, an antagonist per node that owns 1 024 pages (twice
//! the machine) and dirties sixteen of them per node per operation; the
//! pairs carry a payload node 0 → node 1 in rotation and every transfer is
//! read back and compared.
//!
//! Which page the stealer takes decides which lazy pins dissolve, which
//! transfers repin and — with the NIC's repin budget (benchmark README,
//! finding 4) — whether a transfer completes at all, so the order of
//! victims is load-bearing. The numbers below were recorded at a84c34b,
//! before the stealer's bookkeeping was rewritten to walk in place; a
//! change to `simmem::reclaim`, `Tpt::invalidate_frame` or
//! `MemoryRegistry::drain_lazy_invalidations` that moves any of them has
//! changed behaviour, not just cost. Fix the order, not the numbers.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::{DescStatus, MemId, ProtectionTag, ViId, ViaSystem};
use vialock::StrategyKind;
use workload::pressure::{apply_pressure, PressureReport};

const PAIRS: usize = 16;
const BUF_PAGES: usize = 8;
const BUF_BYTES: usize = BUF_PAGES * PAGE_SIZE;
const ANTAGONIST_PAGES: usize = 1024;
const DIRTY_PER_OP: usize = 16;
/// A tenth of the ruler's 2 000 operations, warmed up the way it warms up.
const OPS: usize = 200;
const WARM: usize = OPS / 10 + 1;

struct Machine {
    sys: ViaSystem,
    pid: [Pid; 2],
    vi: [ViId; 2],
    pairs: Vec<[(MemId, VirtAddr); 2]>,
    antagonist: [PressureReport; 2],
    cursor: [usize; 2],
}

fn build() -> Machine {
    let kcfg = KernelConfig {
        nframes: 512,
        reserved_frames: 8,
        swap_slots: 8192,
        default_rlimit_memlock: None,
        swap_cache: false,
    };
    let mut sys = ViaSystem::new(2, kcfg, StrategyKind::OnDemand);
    let tag = ProtectionTag(7);
    let pid = [sys.spawn_process(0), sys.spawn_process(1)];
    let vi = [
        sys.create_vi(0, pid[0], tag).unwrap(),
        sys.create_vi(1, pid[1], tag).unwrap(),
    ];
    sys.connect((0, vi[0]), (1, vi[1])).unwrap();
    let mut pairs = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let mut pair = [(MemId(0), 0); 2];
        for (n, slot) in pair.iter_mut().enumerate() {
            let addr = sys
                .mmap(n, pid[n], BUF_BYTES, prot::READ | prot::WRITE)
                .unwrap();
            let mem = sys.register_mem(n, pid[n], addr, BUF_BYTES, tag).unwrap();
            *slot = (mem, addr);
        }
        pairs.push(pair);
    }
    let antagonist = [0, 1].map(|n| apply_pressure(sys.kernel_mut(n), ANTAGONIST_PAGES));
    for a in &antagonist {
        assert!(!a.hit_oom && a.pages_dirtied == ANTAGONIST_PAGES);
    }
    Machine {
        sys,
        pid,
        vi,
        pairs,
        antagonist,
        cursor: [0; 2],
    }
}

impl Machine {
    /// One operation over buffer pair `k`; `false` is a failed transfer.
    fn op(&mut self, k: usize, payload: &[u8], got: &mut [u8]) -> bool {
        for n in 0..2 {
            let a = self.antagonist[n];
            for _ in 0..DIRTY_PER_OP {
                let page = self.cursor[n] % a.pages_dirtied;
                self.cursor[n] += 1;
                let addr = simmem::mm::TASK_UNMAPPED_BASE + (page * PAGE_SIZE) as u64;
                self.sys
                    .kernel_mut(n)
                    .write_user(a.pid, addr, &[page as u8; 8])
                    .unwrap();
            }
        }
        let [(smem, saddr), (rmem, raddr)] = self.pairs[k];
        self.sys.write_user(0, self.pid[0], saddr, payload).unwrap();
        self.sys
            .post_recv(1, self.vi[1], rmem, raddr, BUF_BYTES)
            .unwrap();
        self.sys
            .post_send(0, self.vi[0], smem, saddr, BUF_BYTES)
            .unwrap();
        self.sys.pump().unwrap();
        let mut ok = true;
        for n in 0..2 {
            ok &= self
                .sys
                .poll_cq(n, self.vi[n])
                .unwrap()
                .is_some_and(|c| c.status == DescStatus::Done && c.len == BUF_BYTES);
        }
        self.sys.read_user(1, self.pid[1], raddr, got).unwrap();
        ok && got == payload
    }

    /// Fold the frame behind every buffer page on both nodes into `hash`
    /// (FNV-1a; a non-resident page folds as `u32::MAX`). Which pages are
    /// resident, and where, after each operation *is* the victim order.
    fn fold_residency(&self, hash: &mut u64) {
        for pair in &self.pairs {
            for (n, &(_, addr)) in pair.iter().enumerate() {
                for page in 0..BUF_PAGES {
                    let frame = self
                        .sys
                        .node(n)
                        .kernel
                        .frame_of(self.pid[n], addr + (page * PAGE_SIZE) as u64)
                        .unwrap()
                        .map_or(u32::MAX, |f| f.0);
                    for b in frame.to_le_bytes() {
                        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
        }
    }

    /// The exact counters of the ruler, both nodes summed, in the order
    /// of [`GOLDEN`].
    fn totals(&self) -> [u64; GOLDEN.len()] {
        let mut t = [0u64; GOLDEN.len()];
        for n in 0..2 {
            let node = self.sys.node(n);
            let mm = node.kernel.mm_stats();
            let reg = self.sys.registry_stats(n);
            let nic = &node.nic.stats;
            let row = [
                mm.reclaim_passes,
                mm.swap_outs,
                mm.pressure_unpins,
                mm.protection_faults,
                mm.skipped_pg_locked,
                mm.minor_faults + mm.major_faults,
                reg.pages_pinned,
                reg.repins,
                nic.repins,
                nic.repin_failures,
                nic.tpt_invalidations,
                nic.dma_ops,
            ];
            for (sum, v) in t.iter_mut().zip(row) {
                *sum += v;
            }
        }
        t
    }
}

/// What [`OPS`] operations after [`WARM`] of warm-up cost, recorded at
/// a84c34b (the ruler's shape gives ten times these over 2 000 operations).
const GOLDEN: [(&str, u64); 12] = [
    ("reclaim passes", 7_183),
    ("swap-outs", 7_183),
    ("pressure unpins", 2_904),
    ("protection faults", 2_914),
    ("skipped PG_locked", 0),
    ("page faults", 7_183),
    ("pages pinned", 2_914),
    ("registry repins", 2_914),
    ("NIC repins", 3_673),
    ("repin failures", 0),
    ("TPT invalidations", 3_663),
    ("dma_ops", 3_132),
];
/// FNV-1a over the frame of every buffer page after every operation.
const GOLDEN_VICTIM_HASH: u64 = 0x040e_f90f_46d0_86f7;

/// A payload that differs per operation (SplitMix64; the counters do not
/// depend on the bytes, the comparison at the far end does).
fn fill(rng: &mut StdRng, buf: &mut [u8]) {
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
}

#[test]
fn pressure_ondemand_golden() {
    let mut m = build();
    let mut rng = StdRng::seed_from_u64(7);
    let (mut payload, mut got) = (vec![0u8; BUF_BYTES], vec![0u8; BUF_BYTES]);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..WARM {
        fill(&mut rng, &mut payload);
        assert!(m.op(i % PAIRS, &payload, &mut got), "warm-up transfer {i}");
        m.fold_residency(&mut hash);
    }
    let before = m.totals();
    let mut failed = 0u64;
    for i in WARM..WARM + OPS {
        fill(&mut rng, &mut payload);
        failed += !m.op(i % PAIRS, &payload, &mut got) as u64;
        m.fold_residency(&mut hash);
    }
    let after = m.totals();
    m.sys.check_invariants().unwrap();

    assert_eq!(failed, 0, "failed transfers");
    for (((name, want), now), then) in GOLDEN.into_iter().zip(after).zip(before) {
        assert_eq!(now - then, want, "{name}");
    }
    assert_eq!(
        hash, GOLDEN_VICTIM_HASH,
        "victim order (frame of every buffer page, per op): {hash:#018x}"
    );
}
