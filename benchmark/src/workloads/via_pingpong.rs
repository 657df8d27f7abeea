//! `via_small` / `via_large`: raw VI send/receive ping-pong on the
//! single-threaded functional fabric, buffers registered once (kiobuf).
//!
//! Node 0 sends from `a` and receives the pong into `b`; node 1 bounces
//! through `c`. After a checked batch both `c` and `b` must hold the payload
//! written into `a` before it.

use simmem::{prot, Pid, VirtAddr};
use via::nic::Packet;
use via::{DescStatus, MemId, ProtectionTag, ViId, ViaSystem};
use vialock::StrategyKind;

use super::{err, roomy_kernel, Epoch, Params, Recorder, SysSnap, CHECK_EVERY};
use crate::kit::Rng;
use crate::trace::{Span, Tracer};

pub fn small(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    // 64 round trips ≈ 128 messages ≈ 30 µs per sample.
    epoch(p, tr, 64, p.ops(400_000, 64 * CHECK_EVERY), 64)
}

pub fn large(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    epoch(p, tr, 256 * 1024, p.ops(12_000, CHECK_EVERY), 1)
}

struct Buf {
    mem: MemId,
    addr: VirtAddr,
}

struct PingPong {
    sys: ViaSystem,
    pid: [Pid; 2],
    vi: [ViId; 2],
    a: Buf,
    b: Buf,
    c: Buf,
    size: usize,
    /// Packets between the decomposed pump's transmit and receive halves.
    wire: Vec<Packet>,
    failed: u64,
}

impl PingPong {
    fn build(size: usize) -> Result<Self, String> {
        let mut sys = ViaSystem::new(2, roomy_kernel(), StrategyKind::KiobufReliable);
        let tag = ProtectionTag(7);
        let pid = [sys.spawn_process(0), sys.spawn_process(1)];
        let vi = [
            sys.create_vi(0, pid[0], tag).map_err(err("create_vi"))?,
            sys.create_vi(1, pid[1], tag).map_err(err("create_vi"))?,
        ];
        sys.connect((0, vi[0]), (1, vi[1]))
            .map_err(err("connect"))?;
        let mut buf = |n: usize| -> Result<Buf, String> {
            let addr = sys
                .mmap(n, pid[n], size, prot::READ | prot::WRITE)
                .map_err(err("mmap"))?;
            sys.touch_pages(n, pid[n], addr, size, true)
                .map_err(err("touch"))?;
            let mem = sys
                .register_mem(n, pid[n], addr, size, tag)
                .map_err(err("register"))?;
            Ok(Buf { mem, addr })
        };
        let (a, b, c) = (buf(0)?, buf(0)?, buf(1)?);
        Ok(PingPong {
            sys,
            pid,
            vi,
            a,
            b,
            c,
            size,
            wire: Vec::new(),
            failed: 0,
        })
    }

    /// One message `from → 1 − from`. `decomposed` replaces
    /// `ViaSystem::pump` by the two public calls it makes for this traffic,
    /// so the traced run can time transmit and receive apart.
    fn message(&mut self, tr: &mut Tracer, from: usize, decomposed: bool) -> Result<(), String> {
        let to = 1 - from;
        let (src, dst) = if from == 0 {
            (&self.a, &self.c)
        } else {
            (&self.c, &self.b)
        };
        tr.op();
        tr.enter(Span::ViaPost);
        self.sys
            .post_recv(to, self.vi[to], dst.mem, dst.addr, self.size)
            .map_err(err("post_recv"))?;
        self.sys
            .post_send(from, self.vi[from], src.mem, src.addr, self.size)
            .map_err(err("post_send"))?;
        if decomposed {
            tr.next(Span::ViaNicTx);
            self.sys
                .node_mut(from)
                .pump_vi_sends_into(self.vi[from], from, &mut self.wire)
                .map_err(err("pump_vi_sends_into"))?;
            tr.next(Span::ViaNicRx);
            for pkt in self.wire.drain(..) {
                self.sys.node_mut(to).deliver(pkt).map_err(err("deliver"))?;
            }
        } else {
            tr.next(Span::ViaPump);
            self.sys.pump().map_err(err("pump"))?;
        }
        tr.next(Span::ViaPollCq);
        for n in [from, to] {
            let done = self
                .sys
                .poll_cq(n, self.vi[n])
                .map_err(err("poll_cq"))?
                .is_some_and(|c| c.status == DescStatus::Done && c.len == self.size);
            if !done {
                self.failed += 1;
            }
        }
        tr.exit();
        tr.exit();
        Ok(())
    }

    fn round_trips(&mut self, tr: &mut Tracer, n: u64, decomposed: bool) -> Result<(), String> {
        for _ in 0..n {
            self.message(tr, 0, decomposed)?;
            self.message(tr, 1, decomposed)?;
        }
        Ok(())
    }
}

fn epoch(
    p: &Params,
    tr: &mut Tracer,
    size: usize,
    round_trips: u64,
    per_batch: u64,
) -> Result<Epoch, String> {
    let mut rec = Recorder::start();
    let mut pp = PingPong::build(size)?;
    let mut rng = Rng::new(p.seed);
    let mut payload = vec![0u8; size];
    let mut got = vec![0u8; size];
    // Warm-up: fill the mini-TLBs, circulate the pool buffers, grow the queues.
    let mut quiet = Tracer::new(false);
    pp.round_trips(&mut quiet, round_trips / 10 + 1, false)?;
    if pp.failed > 0 {
        return Err(format!("{} error completions during warm-up", pp.failed));
    }
    if p.setup_only {
        return Ok(rec.setup_only());
    }

    let before = SysSnap::take(&pp.sys);
    for batch in 0..round_trips / per_batch {
        let checked = batch % CHECK_EVERY == 0;
        if checked {
            rng.fill(&mut payload);
            pp.sys
                .write_user(0, pp.pid[0], pp.a.addr, &payload)
                .map_err(err("write payload"))?;
        }
        // A traced epoch alternates the real pump with the decomposed one,
        // in blocks that each start with a checked batch.
        let decomposed = tr.enabled() && (batch / CHECK_EVERY) % 2 == 1;
        rec.batch(2 * per_batch, || pp.round_trips(tr, per_batch, decomposed))?;
        if checked {
            for (n, buf) in [(1, &pp.c), (0, &pp.b)] {
                pp.sys
                    .read_user(n, pp.pid[n], buf.addr, &mut got)
                    .map_err(err("read back"))?;
                if got != payload {
                    pp.failed += 1;
                }
            }
        }
    }
    let counts = SysSnap::take(&pp.sys).since(&before);

    let e = rec.epoch();
    e.failed = pp.failed;
    e.bytes = e.attempted * size as u64;
    e.counts = counts;
    e.expect_steady();
    if let Err(v) = pp.sys.check_invariants() {
        e.violations.push(format!("check_invariants: {v}"));
    }
    Ok(rec.finish())
}
