//! `msg_reuse` / `msg_fresh`: `msg::Comm` ping-pong between two ranks on two
//! nodes, the same message layer used two ways.
//!
//! * **reuse** cycles 64 B (shared memory) → 32 KiB (one-copy) → 256 KiB
//!   (zero-copy) over the same three buffer pairs: after the first cycle the
//!   registration cache only hits. The zero-copy message of each cycle also
//!   drains the one-copy `Send` completions, which is the only reason the
//!   run survives the CQ defect described in the README.
//! * **fresh** sends 256 KiB zero-copy messages through a pool of buffers
//!   whose pages are twice the cache budget, walked in a fixed seeded
//!   permutation with ping and pong half a pool apart: every acquire finds
//!   its buffer evicted, so every message registers and deregisters.

use msg::{Comm, MsgConfig};
use simmem::{KernelConfig, VirtAddr};
use vialock::StrategyKind;

use super::{err, Epoch, Params, Recorder, SysSnap, CHECK_EVERY};
use crate::kit::Rng;
use crate::trace::{Span, Tracer};

const SM_BYTES: usize = 64;
const OC_BYTES: usize = 32 * 1024;
pub const ZC_BYTES: usize = 256 * 1024;

const SM: [Span; 3] = [Span::MsgSmSend, Span::MsgSmRecv, Span::MsgSmWait];
const OC: [Span; 3] = [Span::MsgOcSend, Span::MsgOcRecv, Span::MsgOcWait];
const ZC: [Span; 3] = [Span::MsgZcSend, Span::MsgZcRecv, Span::MsgZcWait];

/// Cache budget of `msg_fresh`, in pages per node.
pub const FRESH_CACHE_PAGES: usize = 1024;
/// Buffers per rank in `msg_fresh`: their pages are 2 × the cache budget.
pub const FRESH_POOL: usize = 2 * FRESH_CACHE_PAGES * simmem::PAGE_SIZE / ZC_BYTES;

fn comm(cfg: MsgConfig) -> Result<Comm, String> {
    Comm::new(
        2,
        2,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        cfg,
    )
    .map_err(err("Comm::new"))
}

/// One message `from → to` out of `src` into `dst`; a short delivery counts
/// as a failed operation, a typed error aborts the run.
fn message(
    c: &mut Comm,
    tr: &mut Tracer,
    spans: [Span; 3],
    (from, src): (usize, VirtAddr),
    (to, dst): (usize, VirtAddr),
    len: usize,
    failed: &mut u64,
) -> Result<(), String> {
    tr.op();
    tr.enter(spans[0]);
    let h = c.send(from, to, 1, src, len).map_err(err("send"))?;
    tr.next(spans[1]);
    let got = c.recv(to, from, 1, dst, len).map_err(err("recv"))?;
    tr.next(spans[2]);
    c.wait(h).map_err(err("wait"))?;
    tr.exit();
    tr.exit();
    if got != len {
        *failed += 1;
    }
    Ok(())
}

/// Allocate `len` bytes in `rank` and fill them with seeded bytes.
fn buffer(
    c: &mut Comm,
    rank: usize,
    len: usize,
    rng: &mut Rng,
    scratch: &mut Vec<u8>,
) -> Result<VirtAddr, String> {
    let addr = c.alloc_buffer(rank, len).map_err(err("alloc_buffer"))?;
    scratch.resize(len, 0);
    rng.fill(scratch);
    c.fill_buffer(rank, addr, scratch)
        .map_err(err("fill_buffer"))?;
    Ok(addr)
}

fn same(
    c: &mut Comm,
    (ra, a): (usize, VirtAddr),
    expect: &[u8],
    got: &mut Vec<u8>,
) -> Result<bool, String> {
    got.resize(expect.len(), 0);
    c.read_buffer(ra, a, got).map_err(err("read_buffer"))?;
    Ok(got == expect)
}

/// Counter deltas of both the fabric and the communicator over the timed region.
struct CommSnap {
    sys: SysSnap,
    msg: msg::MsgStats,
    evictions: u64,
}

impl CommSnap {
    fn take(c: &mut Comm) -> Self {
        CommSnap {
            sys: SysSnap::take(c.system_mut()),
            msg: c.stats,
            evictions: (0..2).map(|n| c.cache_stats(n).evictions).sum(),
        }
    }

    fn finish(self, c: &mut Comm, mut rec: Recorder, failed: u64, bytes: u64) -> Epoch {
        let now = CommSnap::take(c);
        let e = rec.epoch();
        e.failed = failed;
        e.bytes = bytes;
        e.counts = now.sys.since(&self.sys);
        e.msg = now.msg.since(&self.msg);
        e.counts.add_msg(&e.msg);
        e.counts.cache_evictions = now.evictions - self.evictions;
        e.expect_steady();
        if let Err(v) = c.system_mut().check_invariants() {
            e.violations.push(format!("check_invariants: {v}"));
        }
        rec.finish()
    }
}

pub fn reuse(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    let mut rec = Recorder::start();
    let mut c = comm(MsgConfig::classic())?;
    let mut rng = Rng::new(p.seed);
    let (mut payload, mut got) = (Vec::new(), Vec::new());
    let classes = [(SM_BYTES, SM), (OC_BYTES, OC), (ZC_BYTES, ZC)];
    let mut pairs = Vec::new();
    for (len, spans) in classes {
        let a = buffer(&mut c, 0, len, &mut rng, &mut payload)?;
        let b = buffer(&mut c, 1, len, &mut rng, &mut payload)?;
        pairs.push((len, spans, a, b));
    }
    let mut failed = 0u64;
    let cycle = |c: &mut Comm, tr: &mut Tracer, failed: &mut u64| -> Result<(), String> {
        for &(len, spans, a, b) in &pairs {
            message(c, tr, spans, (0, a), (1, b), len, failed)?;
            message(c, tr, spans, (1, b), (0, a), len, failed)?;
        }
        Ok(())
    };
    // Warm-up: the first cycle registers all six buffers; from here on the
    // cache must only hit.
    let cycles = p.ops(3000, CHECK_EVERY);
    let mut quiet = Tracer::new(false);
    for _ in 0..cycles / 10 + 1 {
        cycle(&mut c, &mut quiet, &mut failed)?;
    }
    if p.setup_only {
        return Ok(rec.setup_only());
    }

    let before = CommSnap::take(&mut c);
    for batch in 0..cycles {
        let checked = batch % CHECK_EVERY == 0;
        if checked {
            // Fresh bytes in every rank-0 buffer; after the cycle each has
            // been to rank 1 and back.
            for &(len, _, a, _) in &pairs {
                payload.resize(len, 0);
                rng.fill(&mut payload);
                c.fill_buffer(0, a, &payload).map_err(err("fill_buffer"))?;
            }
        }
        rec.batch(6, || cycle(&mut c, tr, &mut failed))?;
        if checked {
            // `payload` still holds the zero-copy class's bytes.
            let &(_, _, a, b) = pairs.last().expect("three size classes");
            for at in [(1, b), (0, a)] {
                if !same(&mut c, at, &payload, &mut got)? {
                    failed += 1;
                }
            }
        }
    }
    let bytes = cycles * 2 * (SM_BYTES + OC_BYTES + ZC_BYTES) as u64;
    let mut e = before.finish(&mut c, rec, failed, bytes);
    if e.counts.registrations > 0 {
        e.violations.push(format!(
            "{} registrations after warm-up: the cache must only hit",
            e.counts.registrations
        ));
    }
    Ok(e)
}

pub fn fresh(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    let mut rec = Recorder::start();
    let mut c = comm(MsgConfig {
        cache_pages: FRESH_CACHE_PAGES,
        ..MsgConfig::classic()
    })?;
    let mut rng = Rng::new(p.seed);
    let (mut payload, mut got) = (Vec::new(), Vec::new());
    let mut pool = [Vec::new(), Vec::new()];
    for (rank, bufs) in pool.iter_mut().enumerate() {
        for _ in 0..FRESH_POOL {
            bufs.push(buffer(&mut c, rank, ZC_BYTES, &mut rng, &mut payload)?);
        }
    }
    // One fixed permutation, walked cyclically: a buffer comes round again
    // only after every other buffer of the pool was used, and the pool is
    // twice what the cache may keep.
    let order = rng.permutation(FRESH_POOL);
    let ping = |i: u64| order[i as usize % FRESH_POOL];
    let pong = |i: u64| order[(i as usize + FRESH_POOL / 2) % FRESH_POOL];
    let mut failed = 0u64;
    let round_trip =
        |c: &mut Comm, tr: &mut Tracer, i: u64, failed: &mut u64| -> Result<(), String> {
            let (k, q) = (ping(i), pong(i));
            message(
                c,
                tr,
                ZC,
                (0, pool[0][k]),
                (1, pool[1][k]),
                ZC_BYTES,
                failed,
            )?;
            message(
                c,
                tr,
                ZC,
                (1, pool[1][q]),
                (0, pool[0][q]),
                ZC_BYTES,
                failed,
            )
        };
    let round_trips = p.ops(3000, CHECK_EVERY);
    let warm = round_trips / 10 + 1;
    let mut quiet = Tracer::new(false);
    for i in 0..warm {
        round_trip(&mut c, &mut quiet, i, &mut failed)?;
    }
    if p.setup_only {
        return Ok(rec.setup_only());
    }

    let before = CommSnap::take(&mut c);
    for batch in 0..round_trips {
        let i = warm + batch;
        let checked = batch % CHECK_EVERY == 0;
        if checked {
            payload.resize(ZC_BYTES, 0);
            rng.fill(&mut payload);
            c.fill_buffer(0, pool[0][ping(i)], &payload)
                .map_err(err("fill_buffer"))?;
        }
        rec.batch(2, || round_trip(&mut c, tr, i, &mut failed))?;
        if checked {
            if !same(&mut c, (1, pool[1][ping(i)]), &payload, &mut got)? {
                failed += 1;
            }
            // The pong carried rank 1's buffer `q` over rank 0's.
            c.read_buffer(1, pool[1][pong(i)], &mut payload)
                .map_err(err("read_buffer"))?;
            if !same(&mut c, (0, pool[0][pong(i)]), &payload, &mut got)? {
                failed += 1;
            }
        }
    }
    let bytes = round_trips * 2 * ZC_BYTES as u64;
    let mut e = before.finish(&mut c, rec, failed, bytes);
    if e.counts.cache_hits > 0 {
        e.violations.push(format!(
            "{} cache hits: every acquire must miss",
            e.counts.cache_hits
        ));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bypass prediction the workload exists for: whatever the seed, the
    /// permutation walk never finds a buffer still cached.
    #[test]
    fn seeded_permutation_keeps_msg_fresh_at_zero_hits() {
        for seed in [0, 1, 42, u64::MAX] {
            let e = fresh(&Params::smoke(seed), &mut Tracer::new(false)).unwrap();
            assert_eq!(e.counts.cache_hits, 0, "seed {seed}");
            assert_eq!(e.counts.registrations, 2 * e.attempted, "seed {seed}");
            assert_eq!((e.failed, e.violations.len()), (0, 0), "seed {seed}");
        }
    }

    #[test]
    fn msg_reuse_only_hits_after_warm_up() {
        let e = reuse(&Params::smoke(3), &mut Tracer::new(false)).unwrap();
        assert_eq!(e.counts.registrations, 0);
        assert!(e.counts.cache_hits > 0);
        assert_eq!((e.failed, e.violations.len()), (0, 0));
    }
}
