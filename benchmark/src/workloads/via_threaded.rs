//! `via_threaded`: the 64 B ping-pong on two real node threads
//! (`via::threaded::run_cluster`, `NodeCtx::wait_completion`).
//!
//! Exactly two threads work — the sender and the echo — while the caller
//! sits in `join`. The sender owns the clock, the tracer and the checks; the
//! echo bounces a fixed number of rounds. An operation span here is one
//! *round trip*: the sender cannot see where the ping ends and the pong
//! begins.
//!
//! Set-up ends when the sender thread starts, *before* the warm-up — unlike
//! every other workload. The warm-up is threaded traffic: it runs through the
//! park ladder, whose cost doubles from one process to the next, and with it
//! inside `setup_s` read 25 to 35 ms in two modes (quartile distance 26 % of
//! the median over ten runs) where build + connect + spawn is a steady 3 ms.

use simmem::{prot, Capabilities, Pid, VirtAddr};
use via::threaded::{connect_nodes, run_cluster, NodeCtx};
use via::{DescStatus, Descriptor, FabricStats, MemId, NicStats, Node, ProtectionTag, ViId};
use vialock::StrategyKind;

use super::{err, roomy_kernel, Counts, Epoch, Params, Recorder, CHECK_EVERY};
use crate::kit::Rng;
use crate::trace::{Span, Tracer};

const SIZE: usize = 64;
/// 8 round trips ≈ 16 messages ≈ 40 µs per sample.
const PER_BATCH: u64 = 8;

struct Side {
    pid: Pid,
    vi: ViId,
    /// Sender: `[a, b]` (send from, receive into). Echo: `[c]`.
    bufs: Vec<(MemId, VirtAddr)>,
}

fn node(nbufs: usize) -> Result<(Node, Side), String> {
    let mut n = Node::new(roomy_kernel(), StrategyKind::KiobufReliable, 1024);
    let tag = ProtectionTag(9);
    let pid = n.kernel.spawn_process(Capabilities::default());
    let vi = n.nic.create_vi(pid, tag);
    let mut bufs = Vec::new();
    for _ in 0..nbufs {
        let addr = n
            .kernel
            .mmap_anon(pid, SIZE, prot::READ | prot::WRITE)
            .map_err(err("mmap"))?;
        n.kernel
            .touch_pages(pid, addr, SIZE, true)
            .map_err(err("touch"))?;
        let mem = n
            .register_mem(pid, addr, SIZE, tag)
            .map_err(err("register"))?;
        bufs.push((mem, addr));
    }
    Ok((n, Side { pid, vi, bufs }))
}

/// What a node thread hands back: its counter deltas over the timed region,
/// and (sender only) the recorder, tracer and failure count.
struct ThreadOut {
    nic: NicStats,
    fabric: FabricStats,
    mailbox_peak: u64,
    sender: Option<(Recorder, Tracer, u64)>,
}

fn ok(c: via::Completion) -> bool {
    c.status == DescStatus::Done && c.len == SIZE
}

/// Sender round trip: post the pong receive and the ping send, reap both.
fn round_trip(
    ctx: &mut NodeCtx,
    s: &Side,
    tr: &mut Tracer,
    failed: &mut u64,
) -> via::ViaResult<()> {
    let ((a_mem, a), (b_mem, b)) = (s.bufs[0], s.bufs[1]);
    tr.op();
    tr.enter(Span::ViaPost);
    let vi = ctx.node.nic.vi_mut(s.vi)?;
    vi.recv_q.push_back(Descriptor::recv(b_mem, b, SIZE));
    vi.send_q.push_back(Descriptor::send(a_mem, a, SIZE));
    tr.next(Span::ViaWaitCompletion);
    for _ in 0..2 {
        if !ok(ctx.wait_completion(s.vi)?) {
            *failed += 1;
        }
    }
    tr.exit();
    tr.exit();
    Ok(())
}

/// Echo round: receive the ping into `c`, send it back from `c`.
fn echo(ctx: &mut NodeCtx, s: &Side) -> via::ViaResult<()> {
    let (mem, c) = s.bufs[0];
    ctx.node
        .nic
        .vi_mut(s.vi)?
        .recv_q
        .push_back(Descriptor::recv(mem, c, SIZE));
    ctx.wait_completion(s.vi)?;
    ctx.node
        .nic
        .vi_mut(s.vi)?
        .send_q
        .push_back(Descriptor::send(mem, c, SIZE));
    ctx.wait_completion(s.vi)?;
    Ok(())
}

type Driver = Box<dyn FnOnce(&mut NodeCtx) -> via::ViaResult<ThreadOut> + Send>;

pub fn epoch(p: &Params, tr: &mut Tracer) -> Result<Epoch, String> {
    let mut rec = Recorder::start();
    let (n0, sender) = node(2)?;
    let (n1, echoer) = node(1)?;
    let mut nodes = vec![n0, n1];
    connect_nodes(&mut nodes, (0, sender.vi), (1, echoer.vi)).map_err(err("connect_nodes"))?;

    let round_trips = p.ops(80_000, PER_BATCH * CHECK_EVERY);
    let warm = round_trips / 10 + 1;
    // A set-up-only epoch still spawns, connects and warms up on both threads.
    let batches = if p.setup_only {
        0
    } else {
        round_trips / PER_BATCH
    };
    let seed = p.seed;
    // The sender thread records the spans; the tracer travels there and back.
    let mut tracer = std::mem::replace(tr, Tracer::new(false));

    let drive_sender: Driver = Box::new(move |ctx| {
        // See the module comment: the warm-up is in neither figure here.
        rec.end_setup();
        let mut failed = 0u64;
        let mut quiet = Tracer::new(false);
        for _ in 0..warm {
            round_trip(ctx, &sender, &mut quiet, &mut failed)?;
        }
        let (nic0, fab0) = (ctx.node.nic.stats, ctx.fabric_stats());
        let mut rng = Rng::new(seed);
        let (mut payload, mut got) = ([0u8; SIZE], [0u8; SIZE]);
        for batch in 0..batches {
            let checked = batch % CHECK_EVERY == 0;
            if checked {
                rng.fill(&mut payload);
                ctx.node
                    .kernel
                    .write_user(sender.pid, sender.bufs[0].1, &payload)?;
            }
            rec.batch(2 * PER_BATCH, || {
                (0..PER_BATCH).try_for_each(|_| round_trip(ctx, &sender, &mut tracer, &mut failed))
            })?;
            if checked {
                // `b` holds what the echo node received and sent back.
                ctx.node
                    .kernel
                    .read_user(sender.pid, sender.bufs[1].1, &mut got)?;
                if got != payload {
                    failed += 1;
                }
            }
        }
        let fab1 = ctx.fabric_stats();
        Ok(ThreadOut {
            nic: ctx.node.nic.stats.since(&nic0),
            fabric: fab1.since(&fab0),
            mailbox_peak: fab1.mailbox_peak,
            sender: Some((rec, tracer, failed)),
        })
    });
    let drive_echo: Driver = Box::new(move |ctx| {
        for _ in 0..warm {
            echo(ctx, &echoer)?;
        }
        let (nic0, fab0) = (ctx.node.nic.stats, ctx.fabric_stats());
        for _ in 0..batches * PER_BATCH {
            echo(ctx, &echoer)?;
        }
        let fab1 = ctx.fabric_stats();
        Ok(ThreadOut {
            nic: ctx.node.nic.stats.since(&nic0),
            fabric: fab1.since(&fab0),
            mailbox_peak: fab1.mailbox_peak,
            sender: None,
        })
    });

    let out = run_cluster(nodes, vec![drive_sender, drive_echo]).map_err(err("run_cluster"))?;

    let mut counts = Counts::default();
    let mut sender_out = None;
    let mut violations = Vec::new();
    for (i, (t, node)) in out.into_iter().enumerate() {
        counts.add_nic(&t.nic);
        counts.add_fabric(&t.fabric, t.mailbox_peak);
        if let Err(v) = node.check_local_invariants() {
            violations.push(format!("node {i} check_local_invariants: {v}"));
        }
        sender_out = sender_out.or(t.sender);
    }
    let (mut rec, tracer, failed) = sender_out.expect("sender thread returns its recorder");
    *tr = tracer;
    let e = rec.epoch();
    e.failed = failed;
    e.bytes = e.attempted * SIZE as u64;
    e.counts = counts;
    e.violations = violations;
    e.expect_steady();
    Ok(rec.finish())
}
