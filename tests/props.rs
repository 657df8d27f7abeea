//! Property-based tests on the core invariants:
//!
//! * VMA sets stay sorted/disjoint/aligned under random mlock surgery;
//! * data survives arbitrary swap pressure (VM correctness);
//! * registry pin counts always equal the sum of live registrations;
//! * frames are conserved (free + mapped + pinned + orphaned accounts for
//!   every frame);
//! * the message layer delivers random payloads intact across protocols;
//! * the NIC's one DMA walker moves the bytes, and refuses the spans, that a
//!   per-page reference does — for eager and on-demand registration alike.
//!
//! Each property runs on [`check::diff::cases`]: its inputs are drawn in
//! declaration order from a generator seeded by the property's name, and a
//! failure prints the case index and the inputs.

#![allow(clippy::needless_range_loop)] // page/rank indices are semantic

use check::diff::{cases, coin, vec_of};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use simmem::{prot, Capabilities, Kernel, KernelConfig, Pid, PAGE_SIZE};
use vialock::{MemoryRegistry, StrategyKind};

/// `pages` fresh read-write pages of `pid`, and the address of page `i`.
fn map(k: &mut Kernel, pid: Pid, pages: usize) -> u64 {
    k.mmap_anon(pid, pages * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap()
}

fn page(base: u64, i: usize) -> u64 {
    base + (i * PAGE_SIZE) as u64
}

/// 128 frames and a large swap device: a hog soon puts it under pressure.
fn pressured() -> Kernel {
    let swap_slots = 4096;
    let (nframes, reserved_frames) = (128, 8);
    let (default_rlimit_memlock, swap_cache) = (None, false);
    Kernel::new(KernelConfig {
        nframes,
        reserved_frames,
        swap_slots,
        default_rlimit_memlock,
        swap_cache,
    })
}

/// Touch `pages` pages of a fresh mapping of a fresh process.
fn hog(k: &mut Kernel, pages: usize) {
    let hog = k.spawn_process(Capabilities::default());
    let hbuf = map(k, hog, pages);
    for i in 0..pages {
        let _ = k.write_user(hog, page(hbuf, i), &[1u8; 8]);
    }
}

// ---------------------------------------------------------------------
// VMA surgery
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum VmaOp {
    Lock { page: u8, pages: u8 },
    Unlock { page: u8, pages: u8 },
}

fn vma_op(rng: &mut StdRng) -> VmaOp {
    let lock = rng.random_range(0..2usize) == 0;
    let (page, pages) = (rng.random_range(0u8..60), rng.random_range(1u8..8));
    match lock {
        true => VmaOp::Lock { page, pages },
        false => VmaOp::Unlock { page, pages },
    }
}

/// `(page, pages, register?)` for the registry properties.
fn reg_op(rng: &mut StdRng, pages: usize, len: usize) -> (usize, usize, bool) {
    (
        rng.random_range(0..pages),
        rng.random_range(1..len),
        coin(rng),
    )
}

#[test]
fn vma_invariants_under_random_mlock() {
    let draw = |rng: &mut StdRng| Some(vec_of(rng, 1..40, vma_op));
    cases("vma_invariants_under_random_mlock", 64, draw, |ops| {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let base = map(&mut k, pid, 64);
        for op in ops {
            let (page, pages, lock) = match op {
                VmaOp::Lock { page, pages } => (page, pages, true),
                VmaOp::Unlock { page, pages } => (page, pages, false),
            };
            let addr = base + (page as u64) * PAGE_SIZE as u64;
            let len = (pages as usize).min(64 - page as usize) * PAGE_SIZE;
            let r = match lock {
                _ if len == 0 => continue,
                true => k.sys_mlock(pid, addr, len),
                false => k.sys_munlock(pid, addr, len),
            };
            assert!(r.is_ok(), "{:?}", r);
            // The invariant the kernel would BUG() on:
            let proc_vmas = k.vma_count(pid).unwrap();
            assert!(proc_vmas <= 129, "unbounded VMA growth");
        }
    });
}

#[test]
fn data_survives_random_pressure() {
    let draw = |rng: &mut StdRng| {
        let seeds = vec_of(rng, 4..16, |rng| rng.random_range(0u8..255));
        Some((seeds, rng.random_range(32usize..160)))
    };
    let name = "data_survives_random_pressure";
    cases(name, 64, draw, |(seeds, hog_pages)| {
        let mut k = pressured();
        let pid = k.spawn_process(Capabilities::default());
        let buf = map(&mut k, pid, seeds.len());
        for (i, &s) in seeds.iter().enumerate() {
            k.write_user(pid, page(buf, i), &[s; 64]).unwrap();
        }
        // Random pressure.
        hog(&mut k, hog_pages);
        // Every byte must come back — swapping is transparent to the CPU.
        for (i, &s) in seeds.iter().enumerate() {
            let mut out = [0u8; 64];
            k.read_user(pid, page(buf, i), &mut out).unwrap();
            assert!(out.iter().all(|&b| b == s), "page {i} corrupted");
        }
    });
}

#[test]
fn registry_pin_counts_match_registrations() {
    let draw = |rng: &mut StdRng| Some(vec_of(rng, 1..30, |rng| reg_op(rng, 8, 6)));
    cases("registry_pin_counts_match_registrations", 64, draw, |ops| {
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = map(&mut k, pid, 64);
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let mut live = Vec::new();
        for (page, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let len = pages.min(64 - page) * PAGE_SIZE;
                if len > 0 {
                    live.push(
                        reg.register(&mut k, pid, self::page(base, page), len)
                            .unwrap(),
                    );
                }
            } else {
                let h = live.swap_remove(0);
                reg.deregister(&mut k, h).unwrap();
            }
            assert!(reg.check_invariants(&k).is_ok());
        }
        for h in live {
            reg.deregister(&mut k, h).unwrap();
        }
        assert_eq!(reg.pinned_frames(), 0);
        assert!(reg.check_invariants(&k).is_ok());
    });
}

#[test]
fn frames_are_conserved() {
    let draw =
        |rng: &mut StdRng| Some((rng.random_range(1usize..32), rng.random_range(16usize..128)));
    cases("frames_are_conserved", 64, draw, |(npages, hog_pages)| {
        let mut k = pressured();
        let pid = k.spawn_process(Capabilities::default());
        let buf = map(&mut k, pid, npages);
        k.touch_pages(pid, buf, npages * PAGE_SIZE, true).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::RefcountOnly);
        let h = reg.register(&mut k, pid, buf, npages * PAGE_SIZE).unwrap();
        hog(&mut k, hog_pages);
        // Conservation: free + resident(+zero-page refs) + orphaned must
        // never exceed the machine, and orphaned frames equal the stealer's
        // counter.
        assert_eq!(
            k.count_orphaned_frames() as u64,
            k.mm_stats().orphaned_pages
        );
        reg.deregister(&mut k, h).unwrap();
        // After dropping the pins, orphans become free again.
        assert_eq!(k.count_orphaned_frames(), 0);
    });
}

#[test]
fn fork_chains_preserve_isolation() {
    let write = |rng: &mut StdRng| (rng.random_range(0u8..8), rng.next_u64() as u8);
    let draw = |rng: &mut StdRng| Some(vec_of(rng, 1..12, write));
    cases("fork_chains_preserve_isolation", 48, draw, |writes| {
        // A parent and two generations of children: every write lands only
        // in the writer's view.
        let mut k = Kernel::new(KernelConfig::medium());
        let p0 = k.spawn_process(Capabilities::default());
        let a = map(&mut k, p0, 8);
        k.write_user(p0, a, &[0u8; 8 * PAGE_SIZE]).unwrap();
        let p1 = k.fork(p0).unwrap();
        let p2 = k.fork(p1).unwrap();
        let procs = [p0, p1, p2];
        let mut shadow = [[0u8; 8]; 3];
        for (i, (pg, val)) in writes.into_iter().enumerate() {
            let who = i % 3;
            k.write_user(procs[who], page(a, pg as usize), &[val])
                .unwrap();
            shadow[who][pg as usize] = val;
            // Every process must see exactly its shadow.
            for (j, &p) in procs.iter().enumerate() {
                for pg in 0..8usize {
                    let mut out = [0u8; 1];
                    k.read_user(p, page(a, pg), &mut out).unwrap();
                    assert_eq!(out[0], shadow[j][pg], "proc {} page {}", j, pg);
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Registration fast path: interval index + run-length mlock bookkeeping
// ---------------------------------------------------------------------

#[test]
fn find_covering_agrees_with_linear_oracle() {
    let draw = |rng: &mut StdRng| {
        let ops = vec_of(rng, 1..40, |rng| reg_op(rng, 60, 8));
        let query = |rng: &mut StdRng| (rng.random_range(0usize..63), rng.random_range(1usize..8));
        Some((ops, vec_of(rng, 1..16, query)))
    };
    let name = "find_covering_agrees_with_linear_oracle";
    cases(name, 48, draw, |(ops, queries)| {
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = map(&mut k, pid, 64);
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        // Oracle: live spans as (handle, first page, page count).
        let mut live: Vec<(vialock::MemHandle, usize, usize)> = Vec::new();
        for (pg, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let pages = pages.min(64 - pg);
                if pages > 0 {
                    let h = reg
                        .register(&mut k, pid, page(base, pg), pages * PAGE_SIZE)
                        .unwrap();
                    live.push((h, pg, pages));
                }
            } else {
                let (h, _, _) = live.swap_remove(live.len() / 2);
                reg.deregister(&mut k, h).unwrap();
            }
        }
        for (qpage, qpages) in queries {
            let qpages = qpages.min(64 - qpage).max(1);
            let got = reg.find_covering(pid, page(base, qpage), qpages * PAGE_SIZE);
            let covers = |&(_, p, n): &(_, usize, usize)| p <= qpage && p + n >= qpage + qpages;
            let covered = live.iter().any(covers);
            assert_eq!(got.is_some(), covered, "query page {} + {}", qpage, qpages);
            if let Some(h) = got {
                // Whatever handle the index returned really covers the query.
                let span = live
                    .iter()
                    .find(|l| l.0 == h)
                    .expect("returned handle is live");
                assert!(covers(span));
            }
        }
        for (h, _, _) in live {
            reg.deregister(&mut k, h).unwrap();
        }
    });
}

#[test]
fn mlock_run_length_counters_match_per_page_oracle() {
    use std::collections::HashMap;
    let draw = |rng: &mut StdRng| Some(vec_of(rng, 1..40, |rng| reg_op(rng, 60, 8)));
    let name = "mlock_run_length_counters_match_per_page_oracle";
    cases(name, 48, draw, |ops| {
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = map(&mut k, pid, 64);
        let base_vpn = base / PAGE_SIZE as u64;
        let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
        let mut live: Vec<(vialock::MemHandle, usize, usize)> = Vec::new();
        // Oracle: one count per (virtual) page, the seed's representation.
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        for (pg, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let pages = pages.min(64 - pg);
                if pages == 0 {
                    continue;
                }
                let h = reg
                    .register(&mut k, pid, page(base, pg), pages * PAGE_SIZE)
                    .unwrap();
                for vpn in pg..pg + pages {
                    *oracle.entry(base_vpn + vpn as u64).or_insert(0) += 1;
                }
                live.push((h, pg, pages));
            } else {
                let (h, pg, pages) = live.swap_remove(live.len() / 2);
                reg.deregister(&mut k, h).unwrap();
                for vpn in pg..pg + pages {
                    let c = oracle.get_mut(&(base_vpn + vpn as u64)).unwrap();
                    *c -= 1;
                    if *c == 0 {
                        oracle.remove(&(base_vpn + vpn as u64));
                    }
                }
            }
            // The run-length counters agree with the per-page oracle at
            // every page...
            for vpn in base_vpn..base_vpn + 64 {
                let want = oracle.get(&vpn).copied().unwrap_or(0);
                assert_eq!(reg.mlock_count_at(pid, vpn), want, "vpn {}", vpn - base_vpn);
            }
            // ...and the kernel agrees exactly which pages are still locked.
            let locked = oracle.len() as u64 * PAGE_SIZE as u64;
            assert_eq!(k.locked_bytes(pid).unwrap(), locked);
        }
        for (h, _, _) in live {
            reg.deregister(&mut k, h).unwrap();
        }
        assert_eq!(k.locked_bytes(pid).unwrap(), 0);
    });
}

/// Acceptance check for the interval-indexed lookup: with well over a
/// thousand live regions, a covering lookup probes a handful of index
/// entries, and the probe count does not grow between 100 and 1200 live
/// regions. Probe counts are the deterministic stand-in for wall-clock
/// non-linearity.
#[test]
fn covering_lookup_stays_flat_at_a_thousand_regions() {
    const N: usize = 1200;
    let mut k = Kernel::new(KernelConfig::large());
    let pid = k.spawn_process(Capabilities::default());
    let base = k
        .mmap_anon(pid, N * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
    let mut handles = Vec::new();
    let mut probes_at = Vec::new();
    for i in 0..N {
        let addr = base + (i * PAGE_SIZE) as u64;
        handles.push(reg.register(&mut k, pid, addr, PAGE_SIZE).unwrap());
        if i + 1 == 100 || i + 1 == N {
            let q = base + ((i / 2) * PAGE_SIZE) as u64;
            let (hit, probes) = reg.find_covering_probed(pid, q, PAGE_SIZE);
            assert!(hit.is_some());
            probes_at.push(probes);
        }
    }
    let (at_100, at_1200) = (probes_at[0], probes_at[1]);
    assert!(
        at_1200 <= 4,
        "lookup probed {at_1200} entries with {N} live regions"
    );
    assert!(
        at_1200 <= at_100 + 2,
        "probe count grew with the live-region count: {at_100} -> {at_1200}"
    );
    // Misses are cheap too: no region spans two pages, and the max-span
    // bound prunes the scan before it starts.
    let (miss, probes) = reg.find_covering_probed(pid, base + 7, 2 * PAGE_SIZE);
    assert_eq!(miss, None);
    assert!(probes <= 4);
    for h in handles {
        reg.deregister(&mut k, h).unwrap();
    }
}

// ---------------------------------------------------------------------
// Message-layer integrity
// ---------------------------------------------------------------------

#[test]
fn random_messages_arrive_intact() {
    let draw = |rng: &mut StdRng| {
        let lens = vec_of(rng, 1..5, |rng| rng.random_range(1usize..60_000));
        Some((lens, rng.next_u64()))
    };
    cases("random_messages_arrive_intact", 12, draw, |(lens, seed)| {
        let mut c = msg::Comm::new(
            2,
            2,
            KernelConfig::large(),
            StrategyKind::KiobufReliable,
            msg::MsgConfig::tiny(),
        )
        .unwrap();
        for (i, &len) in lens.iter().enumerate() {
            let data: Vec<u8> = (0..len)
                .map(|j| ((j as u64).wrapping_mul(seed | 1).wrapping_add(i as u64) % 256) as u8)
                .collect();
            let sbuf = c.alloc_buffer(0, len).unwrap();
            let rbuf = c.alloc_buffer(1, len).unwrap();
            c.fill_buffer(0, sbuf, &data).unwrap();
            let h = c.send(0, 1, i as u32, sbuf, len).unwrap();
            let got = c.recv(1, 0, i as u32, rbuf, len).unwrap();
            c.wait(h).unwrap();
            assert_eq!(got, len);
            let mut out = vec![0u8; len];
            c.read_buffer(1, rbuf, &mut out).unwrap();
            assert_eq!(out, data);
        }
    });
}

// ---------------------------------------------------------------------
// The NIC's one DMA walker against the per-page path it replaced
// ---------------------------------------------------------------------

mod dma_reference {
    use std::collections::VecDeque;
    use std::hash::{DefaultHasher, Hash, Hasher};

    use check::diff::{self, cases, coin, vec_of, Side};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore};
    use simmem::{prot, KernelConfig, Pid, PAGE_SIZE};
    use via::descriptor::{DataSeg, RdmaSeg};
    use via::tpt::{Access, ProtectionTag};
    use via::vi::Reliability;
    use via::DescOp::{self, RdmaRead, RdmaWrite, Recv, Send};
    use via::DescStatus::{self, Done, Dropped, ProtectionError};
    use via::{Descriptor, ViId, ViaError, ViaSystem};
    use vialock::StrategyKind;

    const PAGES: usize = 6;
    const AREA: usize = PAGES * PAGE_SIZE;
    const TAG: ProtectionTag = ProtectionTag(9);
    /// Offsets are generated from `SLACK` bytes before a region's start.
    const SLACK: usize = 64;

    /// (region 0 or 1, offset from `SLACK` bytes before its start, length).
    type SegSpec = (usize, usize, usize);

    #[derive(Debug, Clone)]
    enum Op {
        SendRecv(Vec<SegSpec>, Vec<SegSpec>),
        Write(Vec<SegSpec>, SegSpec),
        Read(Vec<SegSpec>, SegSpec),
    }

    fn seg(rng: &mut StdRng) -> SegSpec {
        let region = rng.random_range(0usize..2);
        // Start: a region's first byte, inside its first page (twice as
        // likely), its first half, anywhere, its last page and just past the
        // end, before the start.
        let off = match rng.random_range(0..7usize) {
            0 => SLACK,
            1 | 2 => rng.random_range(SLACK..SLACK + PAGE_SIZE),
            3 => rng.random_range(SLACK..SLACK + AREA / 2),
            4 => rng.random_range(SLACK..SLACK + AREA),
            5 => rng.random_range(SLACK + AREA - PAGE_SIZE..SLACK + AREA + 32),
            _ => rng.random_range(0..SLACK),
        };
        // Length: nothing, sub-page (twice as likely), around one page,
        // page-crossing.
        let len = match rng.random_range(0..6usize) {
            0 => 0,
            1 | 2 => rng.random_range(1usize..300),
            3 => rng.random_range(PAGE_SIZE - 8..PAGE_SIZE + 8),
            4 => rng.random_range(1..2 * PAGE_SIZE),
            _ => rng.random_range(1..3 * PAGE_SIZE),
        };
        (region, off, len)
    }

    fn op(rng: &mut StdRng) -> Op {
        let segs = |rng: &mut StdRng| vec_of(rng, 1..4, seg);
        match rng.random_range(0..3usize) {
            0 => Op::SendRecv(segs(rng), segs(rng)),
            1 => Op::Write(segs(rng), seg(rng)),
            _ => Op::Read(segs(rng), seg(rng)),
        }
    }

    /// What the per-page path decided about one span: walk it a page at a
    /// time through the public [`via::Tpt::translate`] (bounds, tag, RDMA
    /// attribute), and let a refusal anywhere refuse the whole span before
    /// a byte moves — a byte out of bounds ahead of any other refusal, as
    /// bounds are the span's first check. `translate` vouches for one byte,
    /// so each page's piece is asked about at both ends (the deleted path
    /// asked about the first only, and let a span run past the end of a
    /// region that stops mid-page). A non-resident on-demand page is a
    /// valid page: the kernel agent pins it when the NIC touches it.
    fn span_ok(sys: &ViaSystem, n: usize, s: &DataSeg, access: Access) -> Result<(), ViaError> {
        let (mut addr, mut left) = (s.addr, s.len);
        let mut verdict = Ok(());
        while left > 0 {
            let piece = left.min(PAGE_SIZE - addr as usize % PAGE_SIZE);
            for byte in [addr, addr + piece as u64 - 1] {
                match sys.node(n).nic.tpt.translate(s.mem, byte, TAG, access) {
                    Ok(_) | Err(ViaError::NotResident { .. }) => {}
                    Err(ViaError::OutOfBounds) => return Err(ViaError::OutOfBounds),
                    Err(e) => verdict = verdict.and(Err(e)),
                }
            }
            addr += piece as u64;
            left -= piece;
        }
        verdict
    }

    fn total(segs: &[DataSeg]) -> usize {
        segs.iter().map(|s| s.len).sum()
    }

    fn desc(op: DescOp, segs: &[DataSeg], rdma: Option<DataSeg>) -> Descriptor {
        let rdma = rdma.map(|r| RdmaSeg {
            remote_mem: r.mem,
            remote_addr: r.addr,
        });
        let base = Descriptor::send(segs[0].mem, 0, 0);
        Descriptor {
            op,
            segs: segs.iter().copied().collect(),
            rdma,
            ..base
        }
    }

    /// A step's outcome: the pump's error, then each node's completions.
    type Out = (Option<ViaError>, [Vec<(DescOp, DescStatus, usize)>; 2]);

    /// Two connected nodes; on each, two 6-page areas whose pages were first
    /// touched in a scrambled order (so their frames fragment), one region
    /// registered over all of area 0 and one inset by a few bytes in area 1.
    /// The walker's world posts, pumps and drains; the reference's world
    /// only answers `translate`, and places the bytes it predicts with CPU
    /// stores.
    struct World {
        sys: ViaSystem,
        walker: Walker,
        reference: bool,
        /// Per node: the process, its VI, the two areas' first bytes and
        /// the region registered in each.
        pid: Vec<Pid>,
        vi: Vec<ViId>,
        area: Vec<[u64; 2]>,
        region: Vec<[DataSeg; 2]>,
        /// The reference's receives posted on node 1 and reads parked on
        /// node 0, oldest first: a refused send or read leaves its
        /// descriptor queued for the next message.
        recv_q: VecDeque<Vec<DataSeg>>,
        parked: VecDeque<Vec<DataSeg>>,
        /// A reliable connection does not survive a receive too small for
        /// its message: every later step is skipped.
        broken: bool,
    }

    /// The generated setup: strategy, reliability, frame scramble and the
    /// RDMA enables of node 1's inset region.
    #[derive(Debug, Clone, Copy)]
    struct Walker {
        on_demand: bool,
        reliable: bool,
        scramble: u64,
        rdma: (bool, bool),
    }

    impl World {
        fn new(walker: Walker, reference: bool) -> World {
            let strategy = match walker.on_demand {
                true => StrategyKind::OnDemand,
                false => StrategyKind::KiobufReliable,
            };
            let mut scramble = walker.scramble;
            let mut sys = ViaSystem::new(2, KernelConfig::small(), strategy);
            let (mut pid, mut vi, mut area, mut region) = (vec![], vec![], vec![], vec![]);
            for n in 0..2 {
                let p = sys.spawn_process(n);
                area.push([0, 1].map(|_| sys.mmap(n, p, AREA, prot::READ | prot::WRITE).unwrap()));
                let mut order: Vec<usize> = (0..2 * PAGES).collect();
                for i in (1..order.len()).rev() {
                    scramble = scramble
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    order.swap(i, (scramble >> 33) as usize % (i + 1));
                }
                for pg in order {
                    let fill: Vec<u8> = (0..PAGE_SIZE)
                        .map(|j| (j * 7 + pg * 13 + n * 101) as u8)
                        .collect();
                    let addr = area[n][pg / PAGES] + (pg % PAGES * PAGE_SIZE) as u64;
                    sys.write_user(n, p, addr, &fill).unwrap();
                }
                // Only node 1 is an RDMA target; its inset region takes the
                // generated enables.
                let spans = [
                    (area[n][0], AREA, (true, true)),
                    (area[n][1] + 40, AREA - 100, walker.rdma),
                ];
                region.push(spans.map(|(addr, len, (w, r))| {
                    let mem = sys
                        .node_mut(n)
                        .register_mem_attrs(p, addr, len, TAG, w, r)
                        .unwrap();
                    DataSeg { mem, addr, len }
                }));
                vi.push(sys.create_vi(n, p, TAG).unwrap());
                pid.push(p);
            }
            sys.connect((0, vi[0]), (1, vi[1])).unwrap();
            if !walker.reliable {
                for n in 0..2 {
                    sys.set_reliability(n, vi[n], Reliability::Unreliable)
                        .unwrap();
                }
            }
            let (recv_q, parked) = (VecDeque::new(), VecDeque::new());
            let broken = false;
            World {
                sys,
                walker,
                reference,
                pid,
                vi,
                area,
                region,
                recv_q,
                parked,
                broken,
            }
        }

        fn seg(&self, n: usize, (r, off, len): SegSpec) -> DataSeg {
            let region = self.region[n][r];
            let addr = region.addr + off as u64 - SLACK as u64;
            DataSeg {
                addr,
                len,
                ..region
            }
        }

        fn segs(&self, n: usize, specs: &[SegSpec]) -> Vec<DataSeg> {
            specs.iter().map(|&s| self.seg(n, s)).collect()
        }

        /// The walker: post, pump, drain both CQs.
        fn walk(&mut self, op: &Op) -> Out {
            let (s, remote) = match op {
                Op::SendRecv(send, recv) => {
                    let r = desc(Recv, &self.segs(1, recv), None);
                    self.sys.post_recv_desc(1, self.vi[1], r).unwrap();
                    ((Send, send), None)
                }
                Op::Write(local, remote) => ((RdmaWrite, local), Some(self.seg(1, *remote))),
                Op::Read(local, remote) => ((RdmaRead, local), Some(self.seg(1, *remote))),
            };
            let s = desc(s.0, &self.segs(0, s.1), remote);
            self.sys.post_send_desc(0, self.vi[0], s).unwrap();
            let err = self.sys.pump().err();
            let cq = [0, 1].map(|n| {
                let mut cq = Vec::new();
                while let Some(c) = self.sys.poll_cq(n, self.vi[n]).unwrap() {
                    cq.push((c.op, c.status, c.len));
                }
                cq
            });
            (err, cq)
        }

        /// The reference gather: the list's verdict, then its bytes in order.
        fn take(&mut self, n: usize, segs: &[DataSeg], a: Access) -> Result<Vec<u8>, ViaError> {
            segs.iter().try_for_each(|s| span_ok(&self.sys, n, s, a))?;
            let mut out = Vec::new();
            for s in segs {
                let mut b = vec![0u8; s.len];
                self.sys.read_user(n, self.pid[n], s.addr, &mut b).unwrap();
                out.extend(b);
            }
            Ok(out)
        }

        /// The reference scatter into node `n`: the list is cut off where
        /// `data` ends (only what arrived is placed), judged, then stored;
        /// returns the bytes placed.
        fn land(
            &mut self,
            n: usize,
            segs: &[DataSeg],
            data: &[u8],
            a: Access,
        ) -> Result<usize, ViaError> {
            let mut left = data.len();
            let cut: Vec<DataSeg> = segs
                .iter()
                .map_while(|s| {
                    let (more, len) = (left > 0, s.len.min(left));
                    left -= len;
                    more.then_some(DataSeg { len, ..*s })
                })
                .collect();
            cut.iter().try_for_each(|s| span_ok(&self.sys, n, s, a))?;
            let mut at = 0;
            // An empty segment is valid wherever it points: skip it.
            for s in cut.iter().filter(|s| s.len > 0) {
                let bytes = &data[at..at + s.len];
                self.sys.write_user(n, self.pid[n], s.addr, bytes).unwrap();
                at += s.len;
            }
            Ok(at)
        }

        /// The per-page reference: what the walker should complete, place
        /// and report.
        fn predict(&mut self, op: &Op) -> Out {
            let (mut cq, mut err): ([Vec<_>; 2], _) = Default::default();
            match op {
                Op::SendRecv(send, recv) => {
                    let (s, r) = (self.segs(0, send), self.segs(1, recv));
                    self.recv_q.push_back(r);
                    let Ok(data) = self.take(0, &s, Access::Local) else {
                        cq[0].push((Send, ProtectionError, 0));
                        return (err, cq);
                    };
                    cq[0].push((Send, Done, data.len()));
                    let r = self.recv_q.pop_front().unwrap();
                    if self.walker.reliable && total(&r) < data.len() {
                        cq[1].push((Recv, Dropped, 0));
                        let (need, have) = (data.len(), total(&r));
                        err = Some(ViaError::RecvTooSmall { need, have });
                    } else {
                        match self.land(1, &r, &data, Access::Local) {
                            Ok(n) => cq[1].push((Recv, Done, n)),
                            Err(e) => err = Some(e),
                        }
                    }
                }
                Op::Write(local, remote) => {
                    let (s, t) = (self.segs(0, local), self.seg(1, *remote));
                    let Ok(data) = self.take(0, &s, Access::Local) else {
                        cq[0].push((RdmaWrite, ProtectionError, 0));
                        return (err, cq);
                    };
                    cq[0].push((RdmaWrite, Done, data.len()));
                    let t = [DataSeg {
                        len: data.len(),
                        ..t
                    }];
                    err = self.land(1, &t, &data, Access::RdmaWrite).err();
                }
                Op::Read(local, remote) => {
                    let (d, t) = (self.segs(0, local), self.seg(1, *remote));
                    let t = [DataSeg {
                        len: total(&d),
                        ..t
                    }];
                    self.parked.push_back(d);
                    // The answer lands in the oldest parked read.
                    let landed = self.take(1, &t, Access::RdmaRead).and_then(|data| {
                        let d = self.parked.pop_front().unwrap();
                        self.land(0, &d, &data, Access::Local)
                    });
                    match landed {
                        Ok(n) => cq[0].push((RdmaRead, Done, n)),
                        Err(e) => err = Some(e),
                    }
                }
            }
            (err, cq)
        }
    }

    impl Side<Op, Out, Vec<u64>> for World {
        fn apply(&mut self, op: &Op) -> Out {
            if self.broken {
                return Default::default();
            }
            let out = if self.reference {
                self.predict(op)
            } else {
                self.walk(op)
            };
            self.broken = matches!(out.0, Some(ViaError::RecvTooSmall { .. }));
            out
        }

        /// Both areas of both nodes as the CPU sees them, a hash per page.
        fn snapshot(&mut self) -> Result<Vec<u64>, String> {
            self.sys.check_invariants()?;
            let mut out = vec![0u8; AREA];
            let mut pages = Vec::new();
            for (n, a) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                self.sys
                    .read_user(n, self.pid[n], self.area[n][a], &mut out)
                    .unwrap();
                pages.extend(out.chunks(PAGE_SIZE).map(|page| {
                    let mut h = DefaultHasher::new();
                    page.hash(&mut h);
                    h.finish()
                }));
            }
            Ok(pages)
        }
    }

    impl diff::Twins for Walker {
        type Op = Op;
        type Out = Out;
        type Snap = Vec<u64>;
        type Left = World;
        type Right = World;

        fn build(&self) -> (World, World) {
            (World::new(*self, false), World::new(*self, true))
        }
    }

    #[test]
    fn dma_walker_agrees_with_the_per_page_reference() {
        let draw = |rng: &mut StdRng| {
            let setup = (coin(rng), coin(rng), rng.next_u64(), (coin(rng), coin(rng)));
            Some((setup, vec_of(rng, 1..7, op)))
        };
        let name = "dma_walker_agrees_with_the_per_page_reference";
        cases(name, 256, draw, |(setup, ops)| {
            let (on_demand, reliable, scramble, rdma) = setup;
            let walker = Walker {
                on_demand,
                reliable,
                scramble,
                rdma,
            };
            diff::replay(&walker, &ops);
        });
    }
}
