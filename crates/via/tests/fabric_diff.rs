//! A seeded cross-fabric differential: one generated script, two fabrics,
//! the same behaviour under injected faults.
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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmem::{prot, KernelConfig, Pid, VirtAddr, PAGE_SIZE};
use via::ring::DescriptorRing;
use via::tpt::{MemId, ProtectionTag};
use via::vi::{Reliability, ViId};
use via::{ClusterBuilder, DescOp, Descriptor, Fabric, Node, ViaResult, ViaSystem};
use vialock::{fault, FaultHandle, FaultPlan, FaultSite, StrategyKind};

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
    Write(usize, Pid, VirtAddr, Vec<u8>),
    Read(usize, Pid, VirtAddr, usize),
    Register(usize, Pid, VirtAddr, usize, ProtectionTag, bool),
    Deregister(usize, MemId),
    CreateVi(usize, Pid, ProtectionTag),
    SetReliability(usize, ViId, Reliability),
    Connect((usize, ViId), (usize, ViId)),
    /// `(vi, descriptor, send queue?)`, posted by one closure.
    Batch(usize, Vec<(ViId, Descriptor, bool)>),
    /// Post `recv` through a two-slot ring at `(ring_mem, ring_at)` and let
    /// the NIC fetch it into `vi`'s receive queue.
    RingRecv {
        node: usize,
        pid: Pid,
        vi: ViId,
        ring_mem: MemId,
        ring_at: VirtAddr,
        recv: Descriptor,
    },
    Exit(usize, Pid),
}

/// What a successful step made, for the harness's model.
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
        Op::Write(n, pid, addr, data) => line(fab.write_user(n, pid, addr, &data), nothing),
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
                    .map(|(vi, desc, send)| node.nic.post(vi, desc, send))
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
                ring.post(&mut node.kernel, pid, &recv)?;
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

/// Everything the two fabrics must agree on after one step.
#[derive(Debug, PartialEq)]
struct Snapshot {
    result: String,
    nodes: Vec<String>,
    faults: Vec<String>,
    invariants: Result<(), String>,
}

fn snapshot<F: Fabric>(fab: &mut F, plans: &[FaultHandle], result: String) -> Snapshot {
    let invariants = quiesce(fab);
    Snapshot {
        result,
        nodes: (0..fab.node_count()).map(|n| observe(fab, n)).collect(),
        faults: plans.iter().map(fault_counts).collect(),
        invariants,
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
}

fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        xs.get(rng.random_range(0..xs.len()))
    }
}

impl Model {
    fn draw(&self, rng: &mut StdRng, step: usize) -> Op {
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
                Op::Write(n, pid, map.addr + off as u64, vec![byte; len])
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
                    let r = if rng.random_range(0..2u32) == 0 {
                        Reliability::Reliable
                    } else {
                        Reliability::Unreliable
                    };
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
        let mut posts: Vec<(ViId, Descriptor, bool)> = Vec::new();
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
                let recv = Descriptor::recv(local.mem, local.addr, local.len);
                posts.push((v.vi, recv.with_imm(imm), false));
                continue;
            }
            let remote_reg = v.peer.and_then(|(pn, pv)| {
                let owner = self.vis.iter().find(|w| (w.node, w.vi) == (pn, pv))?;
                self.reg_of(rng, pn, owner.pid, v.tag)
            });
            let (addr, len) = Self::span_in(rng, &local, 300);
            let desc = match (kind, remote_reg) {
                (25..=39, _) | (_, None) => Descriptor::send(local.mem, addr, len),
                (40..=54, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    let len = len.min(remote.len - (raddr - remote.addr) as usize);
                    Descriptor::rdma_read(local.mem, addr, len, remote.mem, raddr)
                }
                (55..=69, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    let word = rng.random_range(0..4u64);
                    Descriptor::atomic_cas(local.mem, addr, remote.mem, raddr, word, word + 1)
                }
                (_, Some(remote)) => {
                    let (raddr, _) = Self::span_in(rng, &remote, 8);
                    let len = len.min(remote.len - (raddr - remote.addr) as usize);
                    Descriptor::rdma_write(local.mem, addr, len, remote.mem, raddr)
                }
            };
            let loopback = v.peer.is_some_and(|p| p.0 == n);
            let answered_off_node = v.peer.is_some_and(|p| p.0 != n)
                && matches!(desc.op, DescOp::RdmaRead | DescOp::AtomicCas);
            if (answered_off_node && (remote_answers > 0 || loopback_packets > 0))
                || (loopback && remote_answers > 0)
            {
                continue;
            }
            remote_answers += answered_off_node as usize;
            loopback_packets += loopback as usize;
            if loopback && desc.op == DescOp::Send && rng.random_range(0..5u32) > 0 {
                // Give the send a receive to land in.
                let peer = self.vis.iter().find(|w| Some((w.node, w.vi)) == v.peer);
                if let Some(p) = peer {
                    if let Some(r) = self.reg_of(rng, n, p.pid, p.tag) {
                        let recv = Descriptor::recv(r.mem, r.addr, r.len).with_imm(imm | 0x80);
                        posts.push((p.vi, recv, false));
                    }
                }
            }
            posts.push((v.vi, desc.with_imm(imm), true));
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
            recv: Descriptor::recv(buf.mem, buf.addr, buf.len),
        })
    }

    /// Fold an agreed result into the picture.
    fn record(&mut self, op: &Op, made: Made) {
        match (op, made) {
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

/// What the seeds exercised; `fired[side][site]`, deterministic fabric
/// first.
#[derive(Default)]
struct Coverage {
    fired: [[u64; FaultSite::ALL.len()]; 2],
    errors: u64,
    steps: u64,
}

/// Run one seed's script on both fabrics; panic at the first step where
/// they disagree.
fn run_seed(seed: u64, cov: &mut Coverage) {
    // The low three bits of the seed pick node count, strategy and swap
    // semantics, so every combination recurs.
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
    let mut det = ViaSystem::new(nodes, config, strategy);
    let mut thr = ClusterBuilder::new(nodes, config, strategy).build();
    let mut rng = StdRng::seed_from_u64(0xD1FF ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut plans: [Vec<FaultHandle>; 2] = [Vec::new(), Vec::new()];
    for n in 0..nodes {
        let plan = draw_plan(&mut rng);
        for (side, handles) in plans.iter_mut().enumerate() {
            let h = fault::handle(plan.clone());
            handles.push(h.clone());
            let install = move |node: &mut Node| node.install_fault_plan(&h);
            if side == 0 {
                det.try_with_node(n, install).unwrap();
            } else {
                thr.try_with_node(n, install).unwrap();
            }
        }
    }
    let mut model = Model {
        nodes,
        procs: Vec::new(),
        maps: Vec::new(),
        regs: Vec::new(),
        vis: Vec::new(),
    };
    let check = |step: &str, op: &dyn std::fmt::Debug, d: &Snapshot, t: &Snapshot| {
        if d == t {
            return;
        }
        let mut why = String::new();
        if d.result != t.result {
            let _ = writeln!(why, "result: {} | {}", d.result, t.result);
        }
        for (n, (a, b)) in d.nodes.iter().zip(&t.nodes).enumerate() {
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    let _ = writeln!(why, "node {n}:\n  det {la}\n  thr {lb}");
                }
            }
        }
        for (n, (a, b)) in d.faults.iter().zip(&t.faults).enumerate() {
            if a != b {
                let _ = writeln!(why, "node {n} faults:\n  det {a}\n  thr {b}");
            }
        }
        if d.invariants != t.invariants {
            let _ = writeln!(why, "invariants: {:?} | {:?}", d.invariants, t.invariants);
        }
        panic!("seed {seed} step {step}: {op:?}\n(deterministic | threaded)\n{why}");
    };
    for step in 0..STEPS {
        let op = model.draw(&mut rng, step);
        let (dline, made) = apply(&mut det, &op);
        let (tline, _) = apply(&mut thr, &op);
        let d = snapshot(&mut det, &plans[0], dline);
        let t = snapshot(&mut thr, &plans[1], tline);
        check(&step.to_string(), &op, &d, &t);
        if let Err(e) = &d.invariants {
            panic!("seed {seed} step {step}: {op:?}: invariants: {e}");
        }
        cov.steps += 1;
        cov.errors += d.result.matches("Err(").count() as u64;
        if let Some(made) = made {
            model.record(&op, made);
        }
    }
    // Teardown: every process exits, then nothing may be left pinned,
    // mapped into the TPT or lazily pinned anywhere.
    for (n, pid) in model.procs.clone() {
        let op = Op::Exit(n, pid);
        let (dline, _) = apply(&mut det, &op);
        let (tline, _) = apply(&mut thr, &op);
        let d = snapshot(&mut det, &plans[0], dline);
        let t = snapshot(&mut thr, &plans[1], tline);
        check("teardown", &op, &d, &t);
    }
    for (side, handles) in plans.iter().enumerate() {
        for h in handles {
            let plan = h.lock().unwrap();
            for (i, &site) in FaultSite::ALL.iter().enumerate() {
                cov.fired[side][i] += plan.fired(site);
            }
        }
    }
    for (side, leaks) in [leak_audit(&mut det), leak_audit(&mut thr)]
        .into_iter()
        .enumerate()
    {
        assert!(leaks.is_empty(), "seed {seed}, fabric {side}: {leaks:?}");
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
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        run_seed(seed, &mut cov);
    }
    eprintln!(
        "fabric_diff: {SEEDS} seeds, {} steps, {} typed errors, {:.1?}; fired per site \
         (deterministic, threaded): {:?}",
        cov.steps,
        cov.errors,
        started.elapsed(),
        FaultSite::ALL
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{s} {}/{}", cov.fired[0][i], cov.fired[1][i]))
            .collect::<Vec<_>>(),
    );
    // The differential means something only if the faults bit.
    for (i, site) in FaultSite::ALL.iter().enumerate() {
        let floor = match site {
            FaultSite::WireDrop | FaultSite::WireDuplicate | FaultSite::WireDelay => 10,
            _ => 1,
        };
        for fired in cov.fired {
            assert!(
                fired[i] >= floor,
                "{site} fired {} times, want {floor}",
                fired[i]
            );
        }
    }
    assert!(cov.errors > 0, "no typed error in {} steps", cov.steps);
}
