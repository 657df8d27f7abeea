//! `pressure_ondemand`: the paper's locktest threat as a steady workload.
//!
//! Two 512-frame nodes (the `dma_under_pressure` machine of `regpath_bench`)
//! with `StrategyKind::OnDemand`, sixteen registered 8-page buffer pairs and
//! an allocator antagonist per node that has already pushed memory into
//! swap. One operation: the antagonist dirties sixteen more of its pages on
//! each node (the stealer runs, cold lazy pins dissolve), then one buffer
//! pair carries a fresh seeded payload node 0 → node 1 (protection fault,
//! lazy pin, NIC repin) and the payload is read back through node 1's page
//! tables and compared — every operation is checked.
//!
//! The pairs take turns in a fixed rotation. Picking them at random makes
//! about 3 operations in 1000 exhaust the NIC's repin budget on the seed
//! code (README, "found while sizing"); a workload must not fail by design.

use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::{DescStatus, MemId, ProtectionTag, ViId, ViaSystem};
use vialock::StrategyKind;
use workload::pressure::{apply_pressure, PressureReport};

use super::{err, Epoch, Params, Recorder, SysSnap};
use crate::kit::Rng;
use crate::trace::{Span, Tracer};

const PAIRS: usize = 16;
const BUF_BYTES: usize = 8 * PAGE_SIZE;
/// Pages the antagonist may own: twice the machine, so it lives in swap.
const ANTAGONIST_PAGES: usize = 1024;
/// Antagonist page writes per node per operation.
const DIRTY_PER_OP: usize = 16;

struct Machine {
    sys: ViaSystem,
    pid: [Pid; 2],
    vi: [ViId; 2],
    /// `(send buffer on node 0, receive buffer on node 1)` per pair.
    pairs: Vec<[(MemId, VirtAddr); 2]>,
    antagonist: [PressureReport; 2],
    /// Next antagonist page to dirty, per node (round robin).
    cursor: [usize; 2],
}

fn build() -> Result<Machine, String> {
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
        sys.create_vi(0, pid[0], tag).map_err(err("create_vi"))?,
        sys.create_vi(1, pid[1], tag).map_err(err("create_vi"))?,
    ];
    sys.connect((0, vi[0]), (1, vi[1]))
        .map_err(err("connect"))?;
    let mut pairs = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let mut pair = [(MemId(0), 0); 2];
        for (n, slot) in pair.iter_mut().enumerate() {
            let addr = sys
                .mmap(n, pid[n], BUF_BYTES, prot::READ | prot::WRITE)
                .map_err(err("mmap"))?;
            let mem = sys
                .register_mem(n, pid[n], addr, BUF_BYTES, tag)
                .map_err(err("register"))?;
            *slot = (mem, addr);
        }
        pairs.push(pair);
    }
    let antagonist = [0, 1].map(|n| apply_pressure(sys.kernel_mut(n), ANTAGONIST_PAGES));
    Ok(Machine {
        sys,
        pid,
        vi,
        pairs,
        antagonist,
        cursor: [0; 2],
    })
}

impl Machine {
    /// One operation over buffer pair `k`. Returns whether it succeeded.
    fn op(
        &mut self,
        tr: &mut Tracer,
        k: usize,
        payload: &[u8],
        got: &mut [u8],
    ) -> Result<bool, String> {
        tr.op();
        tr.enter(Span::SimmemAntagonistWrite);
        for n in 0..2 {
            let a = &self.antagonist[n];
            for _ in 0..DIRTY_PER_OP {
                let page = self.cursor[n] % a.pages_dirtied;
                self.cursor[n] += 1;
                let addr = simmem::mm::TASK_UNMAPPED_BASE + (page * PAGE_SIZE) as u64;
                self.sys
                    .kernel_mut(n)
                    .write_user(a.pid, addr, &[page as u8; 8])
                    .map_err(err("antagonist write"))?;
            }
        }
        let [(smem, saddr), (rmem, raddr)] = self.pairs[k];
        tr.next(Span::SimmemUserCopy);
        self.sys
            .write_user(0, self.pid[0], saddr, payload)
            .map_err(err("write payload"))?;
        tr.next(Span::ViaPost);
        self.sys
            .post_recv(1, self.vi[1], rmem, raddr, BUF_BYTES)
            .map_err(err("post_recv"))?;
        self.sys
            .post_send(0, self.vi[0], smem, saddr, BUF_BYTES)
            .map_err(err("post_send"))?;
        tr.next(Span::ViaPump);
        self.sys.pump().map_err(err("pump"))?;
        tr.next(Span::ViaPollCq);
        let mut ok = true;
        for n in 0..2 {
            ok &= self
                .sys
                .poll_cq(n, self.vi[n])
                .map_err(err("poll_cq"))?
                .is_some_and(|c| c.status == DescStatus::Done && c.len == BUF_BYTES);
        }
        tr.next(Span::SimmemUserCopy);
        self.sys
            .read_user(1, self.pid[1], raddr, got)
            .map_err(err("read back"))?;
        tr.exit();
        tr.exit();
        Ok(ok && got == payload)
    }
}

pub fn epoch(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    let mut rec = Recorder::start();
    let mut m = build()?;
    for a in &m.antagonist {
        if a.hit_oom || a.pages_dirtied != ANTAGONIST_PAGES {
            return Err(format!("antagonist stopped at {} pages", a.pages_dirtied));
        }
    }
    let mut rng = Rng::new(p.seed);
    let (mut payload, mut got) = (vec![0u8; BUF_BYTES], vec![0u8; BUF_BYTES]);
    let ops = p.ops(2000, PAIRS as u64);
    let mut failed = 0u64;
    let mut quiet = Tracer::new(false);
    let warm = ops / 10 + 1;
    for i in 0..warm {
        rng.fill(&mut payload);
        if !m.op(&mut quiet, i as usize % PAIRS, &payload, &mut got)? {
            return Err("transfer failed during warm-up".into());
        }
    }
    if p.setup_only {
        return Ok(rec.setup_only());
    }

    let before = SysSnap::take(&m.sys);
    for i in warm..warm + ops {
        rng.fill(&mut payload);
        if !rec.batch(1, || m.op(tr, i as usize % PAIRS, &payload, &mut got))? {
            failed += 1;
        }
    }
    let counts = SysSnap::take(&m.sys).since(&before);

    let e = rec.epoch();
    e.failed = failed;
    e.bytes = ops * BUF_BYTES as u64;
    e.counts = counts;
    if let Err(v) = m.sys.check_invariants() {
        e.violations.push(format!("check_invariants: {v}"));
    }
    Ok(rec.finish())
}
