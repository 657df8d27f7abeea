//! A seeded cross-fabric differential: one generated script, two fabrics,
//! the same behaviour under injected faults. Driven by [`check::diff`].
//!
//! Each seed draws a script from `fabric_surface`'s vocabulary — processes,
//! mappings, CPU stores and loads, registrations, VIs, reliability levels,
//! connects, batches of send / recv / RDMA-write / RDMA-read / CAS posts,
//! process exit — plus a receive posted through a native descriptor ring
//! (the one path that consults `DoorbellOverflow`), and one `FaultPlan` per
//! node drawn from the whole `vialock::fault` catalog. The script runs step
//! by step on a [`ViaSystem`] and on a [`ThreadedCluster`] of the same size.
//! After every step both are quiesced — `pump` until it reports no error
//! (a pump that stops at a collection error leaves the rest to the next),
//! then `check_invariants`, which on the cluster settles every service
//! thread first — and must agree on:
//!
//! * the step's result;
//! * per node, every completion then on every CQ (drained), each VI's
//!   state and queue depths, and `nic_stats(n)`;
//! * per node and fault site, how often the site was consulted and how
//!   often it fired;
//! * `check_invariants` being Ok.
//!
//! At teardown every process exits and the audit of `tests/chaos.rs` runs:
//! no pin, TPT region or lazy pin is left on any node.
//!
//! The fabrics are comparable at all only because every node consults its
//! plan in the same order on both. Three rules make that so:
//!
//! 1. every node has its own plan, installed through `try_with_node`; one
//!    shared plan would be consulted in whatever order the service threads
//!    race to it;
//! 2. the posts of one step are issued by one closure on one node, so they
//!    are collected together and reach each destination as one ring
//!    publish;
//! 3. what a node receives in one step comes from one sender. The poster's
//!    packets to another node arrive FIFO in that one publish; what the
//!    poster receives is either only its own loopback traffic (answered on
//!    its own thread) or the single response of its single off-node RDMA
//!    read or CAS. Two responses from other nodes, or one beside loopback
//!    traffic, would race each other to the poster's ingress.
//!
//! Where the two fabrics place a packet the wire delayed (or an unreliable
//! duplicate) decides the order of later consultations on that node, so a
//! fabric that places it anywhere but behind everything already queued for
//! delivery there shows up here as a differing step.

use std::fmt::Write as _;
use std::time::Instant;

use check::diff::{self, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::ring::DescriptorRing;
use via::tpt::{MemId, ProtectionTag};
use via::vi::Reliability::{self, Reliable, Unreliable};
use via::vi::ViId;
use via::{ClusterBuilder, Descriptor, Fabric, Node, ThreadedCluster, ViaResult, ViaSystem};
use vialock::{fault, FaultHandle, FaultPlan, FaultSite, StrategyKind};
use Post::{Cas, RdmaRead, RdmaWrite, Recv, Send};

const RW: u8 = prot::READ | prot::WRITE;
const TAG: ProtectionTag = ProtectionTag(1);
const ODD_TAG: ProtectionTag = ProtectionTag(2);
const SEEDS: u64 = 32;
const STEPS: usize = 200;
const MAX_PROCS: usize = 2;
const MAX_MAPS: usize = 8;
const MAX_VIS: usize = 10;

/// One script step. Everything it names comes from results both fabrics
/// already agreed on.
#[derive(Debug, Clone)]
enum Op {
    Spawn(usize),
    Mmap(usize, Pid, usize),
    Munmap(usize, Pid, VirtAddr, usize),
    Touch(usize, Pid, VirtAddr, usize, bool),
    /// `len` copies of one byte.
    Write(usize, Pid, VirtAddr, u8, usize),
    Read(usize, Pid, VirtAddr, usize),
    Register(usize, Pid, VirtAddr, usize, ProtectionTag, bool),
    Deregister(usize, MemId),
    CreateVi(usize, Pid, ProtectionTag),
    SetReliability(usize, ViId, Reliability),
    Connect((usize, ViId), (usize, ViId)),
    /// `(vi, descriptor, immediate data, send queue?)`, posted by one
    /// closure.
    Batch(usize, Vec<(ViId, Post, u32, bool)>),
    /// Post a receive into `recv` `(mem, addr, len)` through a two-slot
    /// ring at `(ring_mem, ring_at)` and let the NIC fetch it into `vi`'s
    /// receive queue.
    RingRecv {
        node: usize,
        pid: Pid,
        vi: ViId,
        ring_mem: MemId,
        ring_at: VirtAddr,
        recv: (MemId, VirtAddr, usize),
    },
    Exit(usize, Pid),
}

/// A descriptor as a script names it: the `Descriptor` constructor of the
/// same name and arguments (a CAS swaps `word` for `word + 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Post {
    Send(MemId, VirtAddr, usize),
    Recv(MemId, VirtAddr, usize),
    RdmaRead(MemId, VirtAddr, usize, MemId, VirtAddr),
    RdmaWrite(MemId, VirtAddr, usize, MemId, VirtAddr),
    Cas(MemId, VirtAddr, MemId, VirtAddr, u64),
}

impl Post {
    fn desc(self, imm: u32) -> Descriptor {
        match self {
            Send(m, a, l) => Descriptor::send(m, a, l),
            Recv(m, a, l) => Descriptor::recv(m, a, l),
            RdmaRead(m, a, l, rm, ra) => Descriptor::rdma_read(m, a, l, rm, ra),
            RdmaWrite(m, a, l, rm, ra) => Descriptor::rdma_write(m, a, l, rm, ra),
            Cas(m, a, rm, ra, w) => Descriptor::atomic_cas(m, a, rm, ra, w, w + 1),
        }
        .with_imm(imm)
    }
}

/// What a successful step made, for the harness's model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Made {
    Nothing,
    Pid(Pid),
    Addr(VirtAddr),
    Mem(MemId),
    Vi(ViId),
}

/// Run one step; its transcript line, and what it made if it succeeded.
fn apply<F: Fabric>(fab: &mut F, op: &Op) -> (String, Option<Made>) {
    fn line<T: std::fmt::Debug>(
        r: ViaResult<T>,
        made: impl FnOnce(T) -> Made,
    ) -> (String, Option<Made>) {
        (format!("{r:?}"), r.ok().map(made))
    }
    fn nothing<T>(_: T) -> Made {
        Made::Nothing
    }
    match op.clone() {
        Op::Spawn(n) => {
            let pid = fab.spawn_process(n);
            (format!("{pid:?}"), Some(Made::Pid(pid)))
        }
        Op::Mmap(n, pid, pages) => line(fab.mmap(n, pid, pages * PAGE_SIZE, RW), Made::Addr),
        Op::Munmap(n, pid, addr, len) => line(fab.munmap(n, pid, addr, len), nothing),
        Op::Touch(n, pid, addr, len, write) => {
            line(fab.touch_pages(n, pid, addr, len, write), nothing)
        }
        Op::Write(n, pid, addr, byte, len) => {
            line(fab.write_user(n, pid, addr, &vec![byte; len]), nothing)
        }
        Op::Read(n, pid, addr, len) => {
            let mut buf = vec![0u8; len];
            // What a failed read leaves in the caller's buffer is not part
            // of the contract (the threaded fabric copies nothing back).
            let r = fab.read_user(n, pid, addr, &mut buf).map(|()| fnv(&buf));
            (format!("{r:x?}"), None)
        }
        Op::Register(n, pid, addr, len, tag, rdma_read) => line(
            fab.register_mem_attrs(n, pid, addr, len, tag, true, rdma_read),
            Made::Mem,
        ),
        Op::Deregister(n, mem) => line(fab.deregister_mem(n, mem), nothing),
        Op::CreateVi(n, pid, tag) => line(fab.create_vi(n, pid, tag), Made::Vi),
        Op::SetReliability(n, vi, r) => line(fab.set_reliability(n, vi, r), nothing),
        Op::Connect(a, b) => line(fab.connect(a, b), nothing),
        Op::Batch(n, posts) => {
            let r = fab.try_with_node(n, move |node| {
                posts
                    .into_iter()
                    .map(|(vi, post, imm, send)| node.nic.post(vi, post.desc(imm), send))
                    .collect::<Vec<_>>()
            });
            (format!("{r:?}"), None)
        }
        Op::RingRecv {
            node,
            pid,
            vi,
            ring_mem,
            ring_at,
            recv,
        } => line(
            fab.try_with_node(node, move |node| -> ViaResult<usize> {
                let mut ring = DescriptorRing::new(ring_mem, ring_at, 2);
                ring.post(
                    &mut node.kernel,
                    pid,
                    &Descriptor::recv(recv.0, recv.1, recv.2),
                )?;
                node.prefetch_ring_recvs(vi, &mut ring)
            })
            .and_then(|r| r),
            nothing,
        ),
        Op::Exit(n, pid) => line(fab.exit_process(n, pid), nothing),
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Node `n` after a step: every VI's state and queue depths with its CQ
/// drained, then the NIC counters.
fn observe<F: Fabric>(fab: &mut F, n: usize) -> String {
    let vis = fab.with_node(n, |node: &mut Node| {
        let mut s = String::new();
        for i in 0..node.nic.vi_count() {
            let Ok(v) = node.nic.vi_mut(ViId(i as u32)) else {
                continue;
            };
            let _ = write!(
                s,
                "vi{i} {:?} {:?} recv {} reads {}:",
                v.state,
                v.reliability,
                v.recv_q.len(),
                v.pending_reads.len()
            );
            while let Some(c) = v.poll_cq() {
                let _ = write!(s, " {c:?}");
            }
            s.push('\n');
        }
        s
    });
    format!("{vis}{:?}", fab.nic_stats(n))
}

/// Per site, `consulted/fired`, for one node's plan.
fn fault_counts(h: &FaultHandle) -> String {
    let plan = h.lock().unwrap();
    FaultSite::ALL
        .iter()
        .map(|&s| format!("{s} {}/{}", plan.hits(s), plan.fired(s)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Pump until a pump reports no error, then the fabric's own audit (which
/// on the cluster quiesces every service thread first).
fn quiesce<F: Fabric>(fab: &mut F) -> Result<(), String> {
    for _ in 0..64 {
        if fab.pump().is_ok() {
            break;
        }
    }
    fab.check_invariants()
}

/// Everything the two fabrics must agree on after one step: per node, the
/// lines of [`observe`] and the fault counts.
#[derive(Debug, PartialEq)]
struct Snapshot {
    nodes: Vec<Vec<String>>,
    faults: Vec<String>,
}

/// A fabric and the plans installed on its nodes.
struct Fab<F> {
    fab: F,
    plans: Vec<FaultHandle>,
}

impl<F: Fabric> Side<Op, (String, Option<Made>), Snapshot> for Fab<F> {
    fn apply(&mut self, op: &Op) -> (String, Option<Made>) {
        apply(&mut self.fab, op)
    }

    fn snapshot(&mut self) -> Result<Snapshot, String> {
        quiesce(&mut self.fab)?;
        let nodes = (0..self.fab.node_count()).map(|n| observe(&mut self.fab, n));
        Ok(Snapshot {
            nodes: nodes
                .map(|s| s.lines().map(String::from).collect())
                .collect(),
            faults: self.plans.iter().map(fault_counts).collect(),
        })
    }
}

#[derive(Debug)]
struct Twins {
    seed: u64,
}

impl diff::Twins for Twins {
    type Op = Op;
    type Out = (String, Option<Made>);
    type Snap = Snapshot;
    type Left = Fab<ViaSystem>;
    type Right = Fab<ThreadedCluster>;

    /// The same nodes on both fabrics, each node with its own plan. The
    /// low three bits of the seed pick node count, strategy and swap
    /// semantics, so every combination recurs.
    fn build(&self) -> (Fab<ViaSystem>, Fab<ThreadedCluster>) {
        let seed = self.seed;
        let nodes = 2 + (seed & 1) as usize;
        let strategy = if seed & 2 == 0 {
            StrategyKind::KiobufReliable
        } else {
            StrategyKind::OnDemand
        };
        // Small enough that touching a few mappings makes the stealer work.
        let config = KernelConfig {
            nframes: 24,
            reserved_frames: 4,
            swap_slots: 256,
            default_rlimit_memlock: None,
            swap_cache: seed & 4 != 0,
        };
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let plans: Vec<FaultPlan> = (0..nodes).map(|_| draw_plan(&mut rng)).collect();
        fn install<F: Fabric>(fab: F, plans: &[FaultPlan]) -> Fab<F> {
            let mut fab = Fab {
                fab,
                plans: Vec::new(),
            };
            for (n, plan) in plans.iter().enumerate() {
                let h = fault::handle(plan.clone());
                fab.plans.push(h.clone());
                let install = move |node: &mut Node| node.install_fault_plan(&h);
                fab.fab.try_with_node(n, install).unwrap();
            }
            fab
        }
        (
            install(ViaSystem::new(nodes, config, strategy), &plans),
            install(ClusterBuilder::new(nodes, config, strategy).build(), &plans),
        )
    }
}

/// A per-node plan: every site of the catalog is off, a burst after a
/// skip, or a residual probability.
fn draw_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.random_range(0..u64::MAX));
    for site in FaultSite::ALL {
        // Frame allocation and completions are consulted on almost every
        // operation: keep their odds low or nothing gets done. The sites
        // behind swapping, lazy pinning and rings are consulted rarely:
        // give them high odds and short skips, or they never fire.
        let (cap, skip) = match site {
            FaultSite::FrameAlloc | FaultSite::CqOverrun => (1200u32, 40u64),
            FaultSite::WireDrop | FaultSite::WireDuplicate | FaultSite::WireDelay => (9000, 40),
            FaultSite::PageLock | FaultSite::TptFull => (6000, 20),
            _ => (24000, 4),
        };
        plan = match rng.random_range(0..4u32) {
            0 => plan,
            1 => plan.fail_after(site, rng.random_range(0..skip), rng.random_range(1..3u64)),
            _ => plan.fail_with_probability(site, rng.random_range(1..cap)),
        };
    }
    plan
}

#[derive(Clone, Copy)]
struct Map {
    node: usize,
    pid: Pid,
    addr: VirtAddr,
    pages: usize,
}

#[derive(Clone, Copy)]
struct Reg {
    node: usize,
    pid: Pid,
    mem: MemId,
    addr: VirtAddr,
    len: usize,
    tag: ProtectionTag,
}

#[derive(Clone, Copy)]
struct Vi {
    node: usize,
    pid: Pid,
    vi: ViId,
    tag: ProtectionTag,
    peer: Option<(usize, ViId)>,
    dead: bool,
}

/// The harness's picture of the cluster, kept from results both fabrics
/// agreed on. It only aims operations: a stale entry makes an operation
/// fail the same way on both sides.
struct Model {
    nodes: usize,
    procs: Vec<(usize, Pid)>,
    maps: Vec<Map>,
    regs: Vec<Reg>,
    vis: Vec<Vi>,
    /// Steps taken and typed errors they returned.
    steps: u64,
    errors: u64,
}

/// An element of `xs`, the older ones likelier: a shrunk script then
/// keeps fewer of the steps that made the ids it names.
fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    let mut draw = || rng.random_range(0..xs.len());
    (!xs.is_empty()).then(|| &xs[draw().min(draw())])
}

impl Model {
    fn draw_op(&self, rng: &mut StdRng, step: usize) -> Op {
        let n = rng.random_range(0..self.nodes);
        let procs: Vec<Pid> = self
            .procs
            .iter()
            .filter(|p| p.0 == n)
            .map(|p| p.1)
            .collect();
        let Some(&pid) = pick(rng, &procs) else {
            return Op::Spawn(n);
        };
        let maps: Vec<Map> = self
            .maps
            .iter()
            .filter(|m| m.node == n && m.pid == pid)
            .copied()
            .collect();
        let roll = rng.random_range(0..100u32);
        let Some(&map) = pick(rng, &maps) else {
            return Op::Mmap(n, pid, rng.random_range(2..11usize));
        };
        let span = map.pages * PAGE_SIZE;
        match roll {
            0..=2 if procs.len() < MAX_PROCS => Op::Spawn(n),
            0..=9 if maps.len() < MAX_MAPS => Op::Mmap(n, pid, rng.random_range(2..11usize)),
            // Unmapping registered memory orphans its pinned frames, which
            // `check_invariants` rightly reports; unmap only the unregistered.
            10..=11 if !self.regs.iter().any(|r| (r.node, r.pid) == (n, pid)) => {
                Op::Munmap(n, pid, map.addr, span)
            }
            12..=17 => Op::Touch(n, pid, map.addr, span, rng.random_range(0..4u32) > 0),
            18..=23 => {
                let off = rng.random_range(0..span);
                let len = rng.random_range(1..(span - off).min(300) + 1);
                let byte = (step % 251) as u8;
                Op::Write(n, pid, map.addr + off as u64, byte, len)
            }
            24..=29 => Op::Read(n, pid, map.addr, span),
            30..=41 => {
                let tag = if rng.random_range(0..8u32) == 0 {
                    ODD_TAG
                } else {
                    TAG
                };
                Op::Register(n, pid, map.addr, span, tag, rng.random_range(0..3u32) > 0)
            }
            42..=44 => match pick(rng, &self.regs) {
                Some(r) => Op::Deregister(r.node, r.mem),
                None => Op::Spawn(n),
            },
            45..=51 if self.vis.iter().filter(|v| v.node == n).count() < MAX_VIS => {
                let tag = if rng.random_range(0..10u32) == 0 {
                    ODD_TAG
                } else {
                    TAG
                };
                Op::CreateVi(n, pid, tag)
            }
            52..=54 => match pick(rng, &self.vis) {
                Some(v) => {
                    let r = [Reliable, Unreliable][rng.random_range(0..2usize)];
                    Op::SetReliability(v.node, v.vi, r)
                }
                None => Op::CreateVi(n, pid, TAG),
            },
            55..=63 => self.draw_connect(rng, n, pid),
            64..=68 => self
                .draw_ring_recv(rng, n)
                .unwrap_or(Op::Touch(n, pid, map.addr, span, true)),
            69..=70 if step > STEPS / 2 => Op::Exit(n, pid),
            _ => self
                .draw_batch(rng, n)
                .unwrap_or_else(|| self.draw_connect(rng, n, pid)),
        }
    }

    /// Two idle VIs, one of them on `n`: a loopback pair half the time.
    /// Now and then any two VIs at all, so refusals are scripted too.
    fn draw_connect(&self, rng: &mut StdRng, n: usize, pid: Pid) -> Op {
        let idle = |node: usize| -> Vec<Vi> {
            self.vis
                .iter()
                .filter(|v| v.node == node && v.peer.is_none() && !v.dead)
                .copied()
                .collect()
        };
        if rng.random_range(0..10u32) == 0 {
            if let (Some(a), Some(b)) = (pick(rng, &self.vis), pick(rng, &self.vis)) {
                return Op::Connect((a.node, a.vi), (b.node, b.vi));
            }
        }
        let m = if rng.random_range(0..2u32) == 0 {
            n
        } else {
            rng.random_range(0..self.nodes)
        };
        let (here, there) = (idle(n), idle(m));
        match (pick(rng, &here), pick(rng, &there)) {
            (Some(a), Some(b)) if (a.node, a.vi) != (b.node, b.vi) => {
                Op::Connect((a.node, a.vi), (b.node, b.vi))
            }
            _ => Op::CreateVi(n, pid, TAG),
        }
    }

    /// A registration of `pid` on `node`, preferring one under `tag`.
    fn reg_of(&self, rng: &mut StdRng, node: usize, pid: Pid, tag: ProtectionTag) -> Option<Reg> {
        let mine: Vec<Reg> = self
            .regs
            .iter()
            .filter(|r| {
                r.node == node && r.pid == pid && (r.tag == tag || rng.random_range(0..8u32) == 0)
            })
            .copied()
            .collect();
        pick(rng, &mine).copied()
    }

    /// A span of `reg`: `(addr, len)`, 8-byte aligned, at most `max` bytes.
    fn span_in(rng: &mut StdRng, reg: &Reg, max: usize) -> (VirtAddr, usize) {
        let off = rng.random_range(0..reg.len / 8) * 8;
        let len = rng.random_range(1..(reg.len - off).min(max) + 1);
        (reg.addr + off as u64, len)
    }

    /// One batch of posts on node `n`, obeying rule 3 of the module docs:
    /// at most one off-node RDMA read or CAS, and none beside loopback
    /// traffic.
    fn draw_batch(&self, rng: &mut StdRng, n: usize) -> Option<Op> {
        let vis: Vec<Vi> = self
            .vis
            .iter()
            .filter(|v| v.node == n && !v.dead)
            .copied()
            .collect();
        if vis.is_empty() {
            return None;
        }
        let mut posts: Vec<(ViId, Post, u32, bool)> = Vec::new();
        let (mut remote_answers, mut loopback_packets) = (0usize, 0usize);
        let imm0 = rng.random_range(0..1u32 << 20) << 8;
        for k in 0..rng.random_range(1..8usize) {
            let v = *pick(rng, &vis)?;
            let Some(local) = self.reg_of(rng, n, v.pid, v.tag) else {
                continue;
            };
            let imm = imm0 | k as u32;
            let kind = rng.random_range(0..100u32);
            if kind < 25 {
                posts.push((v.vi, Recv(local.mem, local.addr, local.len), imm, false));
                continue;
            }
            let remote_reg = v.peer.and_then(|(pn, pv)| {
                let owner = self.vis.iter().find(|w| (w.node, w.vi) == (pn, pv))?;
                self.reg_of(rng, pn, owner.pid, v.tag)
            });
            let (addr, len) = Self::span_in(rng, &local, 300);
            let post = match (kind, remote_reg) {
                (25..=39, _) | (_, None) => Send(local.mem, addr, len),
                (40..=54, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    let len = len.min(remote.len - (raddr - remote.addr) as usize);
                    RdmaRead(local.mem, addr, len, remote.mem, raddr)
                }
                (55..=69, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    Cas(
                        local.mem,
                        addr,
                        remote.mem,
                        raddr,
                        rng.random_range(0..4u64),
                    )
                }
                (_, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    let len = len.min(remote.len - (raddr - remote.addr) as usize);
                    RdmaWrite(local.mem, addr, len, remote.mem, raddr)
                }
            };
            let loopback = v.peer.is_some_and(|p| p.0 == n);
            let answered_off_node =
                v.peer.is_some_and(|p| p.0 != n) && matches!(post, RdmaRead(..) | Cas(..));
            if (answered_off_node && (remote_answers > 0 || loopback_packets > 0))
                || (loopback && remote_answers > 0)
            {
                continue;
            }
            remote_answers += answered_off_node as usize;
            loopback_packets += loopback as usize;
            if loopback && matches!(post, Send(..)) && rng.random_range(0..5u32) > 0 {
                // Give the send a receive to land in.
                let peer = self.vis.iter().find(|w| Some((w.node, w.vi)) == v.peer);
                if let Some(p) = peer {
                    if let Some(r) = self.reg_of(rng, n, p.pid, p.tag) {
                        posts.push((p.vi, Recv(r.mem, r.addr, r.len), imm | 0x80, false));
                    }
                }
            }
            posts.push((v.vi, post, imm, true));
        }
        (!posts.is_empty()).then_some(Op::Batch(n, posts))
    }

    /// A receive for one of `n`'s VIs, posted through a ring laid in one
    /// of its own registrations.
    fn draw_ring_recv(&self, rng: &mut StdRng, n: usize) -> Option<Op> {
        let vis: Vec<Vi> = self
            .vis
            .iter()
            .filter(|v| v.node == n && !v.dead)
            .copied()
            .collect();
        let v = *pick(rng, &vis)?;
        let ring = self.reg_of(rng, n, v.pid, v.tag)?;
        let buf = self.reg_of(rng, n, v.pid, v.tag)?;
        if ring.len < DescriptorRing::bytes(2) {
            return None;
        }
        Some(Op::RingRecv {
            node: n,
            pid: v.pid,
            vi: v.vi,
            ring_mem: ring.mem,
            ring_at: ring.addr,
            recv: (buf.mem, buf.addr, buf.len),
        })
    }

    /// Fold an agreed result into the picture.
    fn record(&mut self, op: &Op, made: &Made) {
        match (op, *made) {
            (Op::Spawn(n), Made::Pid(pid)) => self.procs.push((*n, pid)),
            (&Op::Mmap(node, pid, pages), Made::Addr(addr)) => self.maps.push(Map {
                node,
                pid,
                addr,
                pages,
            }),
            (&Op::Munmap(node, pid, addr, _), _) => self
                .maps
                .retain(|m| (m.node, m.pid, m.addr) != (node, pid, addr)),
            (&Op::Register(node, pid, addr, len, tag, _), Made::Mem(mem)) => self.regs.push(Reg {
                node,
                pid,
                mem,
                addr,
                len,
                tag,
            }),
            (&Op::Deregister(node, mem), _) => self.regs.retain(|r| (r.node, r.mem) != (node, mem)),
            (&Op::CreateVi(node, pid, tag), Made::Vi(vi)) => self.vis.push(Vi {
                node,
                pid,
                vi,
                tag,
                peer: None,
                dead: false,
            }),
            (&Op::Connect(a, b), _) => {
                for v in self.vis.iter_mut() {
                    if (v.node, v.vi) == a {
                        v.peer = Some(b);
                    } else if (v.node, v.vi) == b {
                        v.peer = Some(a);
                    }
                }
            }
            (&Op::Exit(node, pid), _) => {
                self.procs.retain(|p| *p != (node, pid));
                self.maps.retain(|m| (m.node, m.pid) != (node, pid));
                self.regs.retain(|r| (r.node, r.pid) != (node, pid));
                for v in self
                    .vis
                    .iter_mut()
                    .filter(|v| (v.node, v.pid) == (node, pid))
                {
                    v.dead = true;
                }
            }
            _ => {}
        }
    }
}

impl diff::Model<Twins> for Model {
    fn draw(&mut self, rng: &mut StdRng, step: usize) -> Op {
        self.draw_op(rng, step)
    }

    fn observe(&mut self, op: &Op, (line, made): &(String, Option<Made>)) {
        self.steps += 1;
        self.errors += line.matches("Err(").count() as u64;
        if let Some(made) = made {
            self.record(op, made);
        }
    }

    /// Every process exits; `done` then audits for leaks.
    fn teardown(&mut self) -> Vec<Op> {
        self.procs
            .iter()
            .map(|&(n, pid)| Op::Exit(n, pid))
            .collect()
    }
}

/// `(node, pins, TPT regions, lazy pins)` for every node not clean.
fn leak_audit<F: Fabric>(fab: &mut F) -> Vec<(usize, usize, usize, usize)> {
    (0..fab.node_count())
        .map(|n| {
            fab.with_node(n, move |node| {
                (
                    n,
                    node.registry.pinned_frames(),
                    node.nic.tpt.region_count(),
                    node.kernel.lazy_pinned_frames().len(),
                )
            })
        })
        .filter(|&(_, pins, regions, lazy)| (pins, regions, lazy) != (0, 0, 0))
        .collect()
}

#[test]
fn both_fabrics_agree_step_by_step_under_per_node_fault_plans() {
    let started = Instant::now();
    // `fired[side][site]`, deterministic fabric first.
    let mut fired = [[0u64; FaultSite::ALL.len()]; 2];
    let (mut steps, mut errors) = (0, 0);
    diff::run(
        0..SEEDS,
        STEPS,
        |seed| {
            let model = Model {
                nodes: 2 + (seed & 1) as usize,
                procs: Vec::new(),
                maps: Vec::new(),
                regs: Vec::new(),
                vis: Vec::new(),
                steps: 0,
                errors: 0,
            };
            (Twins { seed }, model)
        },
        |twins, mut det, mut thr, model| {
            (steps, errors) = (steps + model.steps, errors + model.errors);
            for (side, plans) in [&det.plans, &thr.plans].into_iter().enumerate() {
                for h in plans {
                    let plan = h.lock().unwrap();
                    for (i, &site) in FaultSite::ALL.iter().enumerate() {
                        fired[side][i] += plan.fired(site);
                    }
                }
            }
            // Nothing may be left pinned, mapped into the TPT or lazily
            // pinned anywhere once every process has exited.
            for (side, leaks) in [leak_audit(&mut det.fab), leak_audit(&mut thr.fab)]
                .into_iter()
                .enumerate()
            {
                assert!(leaks.is_empty(), "{twins:?}, fabric {side}: {leaks:?}");
            }
        },
    );
    eprintln!(
        "fabric_diff: {SEEDS} seeds, {steps} steps, {errors} typed errors, {:.1?}; fired per site \
         (deterministic, threaded): {:?}",
        started.elapsed(),
        FaultSite::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{s} {}/{}", fired[0][i], fired[1][i]))
            .collect::<Vec<_>>(),
    );
    // The differential means something only if the faults bit.
    for (i, site) in FaultSite::ALL.iter().enumerate() {
        let floor = match site {
            FaultSite::WireDrop | FaultSite::WireDuplicate | FaultSite::WireDelay => 10,
            _ => 1,
        };
        for fired in fired {
            assert!(
                fired[i] >= floor,
                "{site} fired {} times, want {floor}",
                fired[i]
            );
        }
    }
    assert!(errors > 0, "no typed error in {steps} steps");
}
