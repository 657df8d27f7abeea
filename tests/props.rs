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

#![allow(clippy::needless_range_loop)] // page/rank indices are semantic

use proptest::prelude::*;

use simmem::{prot, Capabilities, Kernel, KernelConfig, PAGE_SIZE};
use vialock::{MemoryRegistry, StrategyKind};

// ---------------------------------------------------------------------
// VMA surgery
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum VmaOp {
    Lock { page: u8, pages: u8 },
    Unlock { page: u8, pages: u8 },
}

fn vma_op() -> impl Strategy<Value = VmaOp> {
    prop_oneof![
        (0u8..60, 1u8..8).prop_map(|(page, pages)| VmaOp::Lock { page, pages }),
        (0u8..60, 1u8..8).prop_map(|(page, pages)| VmaOp::Unlock { page, pages }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vma_invariants_under_random_mlock(ops in prop::collection::vec(vma_op(), 1..40)) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::root());
        let base = k.mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        for op in ops {
            let (page, pages, lock) = match op {
                VmaOp::Lock { page, pages } => (page, pages, true),
                VmaOp::Unlock { page, pages } => (page, pages, false),
            };
            let addr = base + (page as u64) * PAGE_SIZE as u64;
            let len = (pages as usize).min(64 - page as usize) * PAGE_SIZE;
            if len == 0 { continue; }
            let r = if lock {
                k.sys_mlock(pid, addr, len)
            } else {
                k.sys_munlock(pid, addr, len)
            };
            prop_assert!(r.is_ok(), "{:?}", r);
            // The invariant the kernel would BUG() on:
            let proc_vmas = k.vma_count(pid).unwrap();
            prop_assert!(proc_vmas <= 129, "unbounded VMA growth");
        }
    }

    #[test]
    fn data_survives_random_pressure(
        seeds in prop::collection::vec(0u8..255, 4..16),
        hog_pages in 32usize..160,
    ) {
        let mut k = Kernel::new(KernelConfig {
            nframes: 128,
            reserved_frames: 8,
            swap_slots: 4096,
            default_rlimit_memlock: None,
            swap_cache: false,
        });
        let pid = k.spawn_process(Capabilities::default());
        let n = seeds.len();
        let buf = k.mmap_anon(pid, n * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        for (i, &s) in seeds.iter().enumerate() {
            k.write_user(pid, buf + (i * PAGE_SIZE) as u64, &[s; 64]).unwrap();
        }
        // Random pressure.
        let hog = k.spawn_process(Capabilities::default());
        let hbuf = k.mmap_anon(hog, hog_pages * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        for i in 0..hog_pages {
            k.write_user(hog, hbuf + (i * PAGE_SIZE) as u64, &[1u8; 8]).unwrap();
        }
        // Every byte must come back — swapping is transparent to the CPU.
        for (i, &s) in seeds.iter().enumerate() {
            let mut out = [0u8; 64];
            k.read_user(pid, buf + (i * PAGE_SIZE) as u64, &mut out).unwrap();
            prop_assert!(out.iter().all(|&b| b == s), "page {i} corrupted");
        }
    }

    #[test]
    fn registry_pin_counts_match_registrations(
        ops in prop::collection::vec((0usize..8, 1usize..6, any::<bool>()), 1..30)
    ) {
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = k.mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        let mut live = Vec::new();
        for (page, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let addr = base + (page * PAGE_SIZE) as u64;
                let len = pages.min(64 - page) * PAGE_SIZE;
                if len == 0 { continue; }
                let h = reg.register(&mut k, pid, addr, len).unwrap();
                live.push(h);
            } else {
                let h = live.swap_remove(0);
                reg.deregister(&mut k, h).unwrap();
            }
            prop_assert!(reg.check_invariants(&k).is_ok());
        }
        for h in live {
            reg.deregister(&mut k, h).unwrap();
        }
        prop_assert_eq!(reg.pinned_frames(), 0);
        prop_assert!(reg.check_invariants(&k).is_ok());
    }

    #[test]
    fn frames_are_conserved(
        npages in 1usize..32,
        hog_pages in 16usize..128,
    ) {
        let mut k = Kernel::new(KernelConfig {
            nframes: 128,
            reserved_frames: 8,
            swap_slots: 4096,
            default_rlimit_memlock: None,
            swap_cache: false,
        });
        let pid = k.spawn_process(Capabilities::default());
        let buf = k.mmap_anon(pid, npages * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        k.touch_pages(pid, buf, npages * PAGE_SIZE, true).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::RefcountOnly);
        let h = reg.register(&mut k, pid, buf, npages * PAGE_SIZE).unwrap();

        let hog = k.spawn_process(Capabilities::default());
        let hbuf = k.mmap_anon(hog, hog_pages * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        for i in 0..hog_pages {
            let _ = k.write_user(hog, hbuf + (i * PAGE_SIZE) as u64, &[1u8; 8]);
        }

        // Conservation: free + resident(+zero-page refs) + orphaned must
        // never exceed the machine, and orphaned frames equal the stealer's
        // counter.
        prop_assert_eq!(k.count_orphaned_frames() as u64, k.mm_stats().orphaned_pages);
        reg.deregister(&mut k, h).unwrap();
        // After dropping the pins, orphans become free again.
        prop_assert_eq!(k.count_orphaned_frames(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fork_chains_preserve_isolation(
        writes in prop::collection::vec((0u8..8, any::<u8>()), 1..12),
    ) {
        // A parent and two generations of children: every write lands only
        // in the writer's view.
        let mut k = Kernel::new(KernelConfig::medium());
        let p0 = k.spawn_process(Capabilities::default());
        let a = k.mmap_anon(p0, 8 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        k.write_user(p0, a, &[0u8; 8 * PAGE_SIZE]).unwrap();
        let p1 = k.fork(p0).unwrap();
        let p2 = k.fork(p1).unwrap();
        let procs = [p0, p1, p2];
        let mut shadow = [[0u8; 8]; 3];
        for (i, (page, val)) in writes.into_iter().enumerate() {
            let who = i % 3;
            let addr = a + (page as u64) * PAGE_SIZE as u64;
            k.write_user(procs[who], addr, &[val]).unwrap();
            shadow[who][page as usize] = val;
            // Every process must see exactly its shadow.
            for (j, &p) in procs.iter().enumerate() {
                for pg in 0..8usize {
                    let mut out = [0u8; 1];
                    k.read_user(p, a + (pg * PAGE_SIZE) as u64, &mut out).unwrap();
                    prop_assert_eq!(out[0], shadow[j][pg], "proc {} page {}", j, pg);
                }
            }
        }
    }

    #[test]
    fn route_planner_never_beats_itself(
        n_nodes in 2usize..6,
        seed_links in prop::collection::vec((0usize..6, 0usize..6, 1u64..100_000, 0u32..100), 1..12),
        msg in 1usize..100_000,
    ) {
        use netsim::routes::{plan_routes, Link, NetworkDescription};
        let links: Vec<Link> = seed_links
            .into_iter()
            .filter(|&(a, b, _, _)| a < n_nodes && b < n_nodes && a != b)
            .map(|(a, b, lat, bw)| Link {
                a,
                b,
                device: "dev",
                latency_ns: lat,
                per_byte_ns: bw as f64 / 10.0,
            })
            .collect();
        prop_assume!(!links.is_empty());
        let desc = NetworkDescription { n_nodes, links: links.clone(), forward_ns: Some(5_000) };
        let rt = plan_routes(&desc, msg);
        for l in &links {
            // A planned route between directly linked nodes can never cost
            // more than that direct link.
            let direct = l.latency_ns + (msg as f64 * l.per_byte_ns).round() as u64;
            let r = rt.route(l.a, l.b).expect("linked nodes are reachable");
            prop_assert!(r.cost_ns <= direct, "route {} > direct {}", r.cost_ns, direct);
            // Costs are symmetric on an undirected description.
            let back = rt.route(l.b, l.a).expect("reachable");
            prop_assert_eq!(r.cost_ns, back.cost_ns);
        }
    }
}

// ---------------------------------------------------------------------
// Registration fast path: interval index + run-length mlock bookkeeping
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn find_covering_agrees_with_linear_oracle(
        ops in prop::collection::vec((0usize..60, 1usize..8, any::<bool>()), 1..40),
        queries in prop::collection::vec((0usize..63, 1usize..8), 1..16),
    ) {
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = k.mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
        // Oracle: live spans as (handle, first page, page count).
        let mut live: Vec<(vialock::MemHandle, usize, usize)> = Vec::new();
        for (page, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let pages = pages.min(64 - page);
                if pages == 0 { continue; }
                let addr = base + (page * PAGE_SIZE) as u64;
                let h = reg.register(&mut k, pid, addr, pages * PAGE_SIZE).unwrap();
                live.push((h, page, pages));
            } else {
                let (h, _, _) = live.swap_remove(live.len() / 2);
                reg.deregister(&mut k, h).unwrap();
            }
        }
        for (qpage, qpages) in queries {
            let qpages = qpages.min(64 - qpage).max(1);
            let addr = base + (qpage * PAGE_SIZE) as u64;
            let got = reg.find_covering(pid, addr, qpages * PAGE_SIZE);
            let covered = live
                .iter()
                .any(|&(_, p, n)| p <= qpage && p + n >= qpage + qpages);
            prop_assert_eq!(got.is_some(), covered, "query page {} + {}", qpage, qpages);
            if let Some(h) = got {
                // Whatever handle the index returned really covers the query.
                let (_, p, n) = *live
                    .iter()
                    .find(|&&(lh, _, _)| lh == h)
                    .expect("returned handle is live");
                prop_assert!(p <= qpage && p + n >= qpage + qpages);
            }
        }
        for (h, _, _) in live {
            reg.deregister(&mut k, h).unwrap();
        }
    }

    #[test]
    fn mlock_run_length_counters_match_per_page_oracle(
        ops in prop::collection::vec((0usize..60, 1usize..8, any::<bool>()), 1..40),
    ) {
        use std::collections::HashMap;
        let mut k = Kernel::new(KernelConfig::medium());
        let pid = k.spawn_process(Capabilities::default());
        let base = k.mmap_anon(pid, 64 * PAGE_SIZE, prot::READ | prot::WRITE).unwrap();
        let base_vpn = base / PAGE_SIZE as u64;
        let mut reg = MemoryRegistry::new(StrategyKind::VmaMlock);
        let mut live: Vec<(vialock::MemHandle, usize, usize)> = Vec::new();
        // Oracle: one count per (virtual) page, the seed's representation.
        let mut oracle: HashMap<u64, u32> = HashMap::new();
        for (page, pages, do_register) in ops {
            if do_register || live.is_empty() {
                let pages = pages.min(64 - page);
                if pages == 0 { continue; }
                let addr = base + (page * PAGE_SIZE) as u64;
                let h = reg.register(&mut k, pid, addr, pages * PAGE_SIZE).unwrap();
                for vpn in page..page + pages {
                    *oracle.entry(base_vpn + vpn as u64).or_insert(0) += 1;
                }
                live.push((h, page, pages));
            } else {
                let (h, page, pages) = live.swap_remove(live.len() / 2);
                reg.deregister(&mut k, h).unwrap();
                for vpn in page..page + pages {
                    let c = oracle.get_mut(&(base_vpn + vpn as u64)).unwrap();
                    *c -= 1;
                    if *c == 0 {
                        oracle.remove(&(base_vpn + vpn as u64));
                    }
                }
            }
            // The run-length counters agree with the per-page oracle at
            // every page...
            for vpn in 0..64u64 {
                prop_assert_eq!(
                    reg.mlock_count_at(pid, base_vpn + vpn),
                    oracle.get(&(base_vpn + vpn)).copied().unwrap_or(0),
                    "vpn {}", vpn
                );
            }
            // ...and the kernel agrees exactly which pages are still locked.
            prop_assert_eq!(
                k.locked_bytes(pid).unwrap(),
                oracle.len() as u64 * PAGE_SIZE as u64
            );
        }
        for (h, _, _) in live {
            reg.deregister(&mut k, h).unwrap();
        }
        prop_assert_eq!(k.locked_bytes(pid).unwrap(), 0);
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_messages_arrive_intact(
        lens in prop::collection::vec(1usize..60_000, 1..5),
        seed in any::<u64>(),
    ) {
        let mut c = msg::Comm::new(
            2,
            2,
            KernelConfig::large(),
            StrategyKind::KiobufReliable,
            msg::MsgConfig::tiny(),
        ).unwrap();
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
            prop_assert_eq!(got, len);
            let mut out = vec![0u8; len];
            c.read_buffer(1, rbuf, &mut out).unwrap();
            prop_assert_eq!(out, data);
        }
    }
}

// ---------------------------------------------------------------------
// The NIC's one DMA walker against the per-page path it replaced
// ---------------------------------------------------------------------

mod dma_reference {
    use std::collections::VecDeque;

    use proptest::prelude::*;
    use simmem::{prot, KernelConfig, Pid, PAGE_SIZE};
    use via::descriptor::{DataSeg, RdmaSeg};
    use via::tpt::{Access, ProtectionTag};
    use via::vi::Reliability;
    use via::{DescOp, DescStatus, Descriptor, ViId, ViaError, ViaSystem};
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

    fn seg() -> impl Strategy<Value = SegSpec> {
        // Start: a region's first byte, inside its first page (twice as
        // likely), its first half, anywhere, its last page and just past the
        // end, before the start.
        let off = prop_oneof![
            Just(SLACK),
            SLACK..SLACK + PAGE_SIZE,
            SLACK..SLACK + PAGE_SIZE,
            SLACK..SLACK + AREA / 2,
            SLACK..SLACK + AREA,
            SLACK + AREA - PAGE_SIZE..SLACK + AREA + 32,
            0..SLACK,
        ];
        // Length: nothing, sub-page (twice as likely), around one page,
        // page-crossing.
        let len = prop_oneof![
            Just(0usize),
            1usize..300,
            1usize..300,
            PAGE_SIZE - 8..PAGE_SIZE + 8,
            1..2 * PAGE_SIZE,
            1..3 * PAGE_SIZE,
        ];
        (0usize..2, off, len)
    }

    fn op() -> impl Strategy<Value = Op> {
        let segs = || prop::collection::vec(seg(), 1..4);
        prop_oneof![
            (segs(), segs()).prop_map(|(s, r)| Op::SendRecv(s, r)),
            (segs(), seg()).prop_map(|(l, r)| Op::Write(l, r)),
            (segs(), seg()).prop_map(|(l, r)| Op::Read(l, r)),
        ]
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

    fn desc(op: DescOp, segs: &[DataSeg], rdma: Option<&DataSeg>) -> Descriptor {
        Descriptor {
            op,
            segs: segs.iter().copied().collect(),
            rdma: rdma.map(|r| RdmaSeg {
                remote_mem: r.mem,
                remote_addr: r.addr,
            }),
            imm: None,
            cas: None,
            status: DescStatus::Pending,
            done_len: 0,
        }
    }

    /// Two connected nodes; on each, two 6-page areas whose pages were first
    /// touched in a scrambled order (so their frames fragment), one region
    /// registered over all of area 0 and one inset by a few bytes in area 1.
    struct World {
        sys: ViaSystem,
        /// Per node: the process, its VI, the two areas' first bytes and
        /// the region registered in each.
        pid: Vec<Pid>,
        vi: Vec<ViId>,
        area: Vec<[u64; 2]>,
        region: Vec<[DataSeg; 2]>,
        /// Receives posted on node 1 and reads parked on node 0, oldest
        /// first: a refused send or read leaves its descriptor queued for
        /// the next message.
        recv_q: VecDeque<Vec<DataSeg>>,
        parked: VecDeque<Vec<DataSeg>>,
    }

    type Memory = [[Vec<u8>; 2]; 2];

    impl World {
        fn new(
            strategy: StrategyKind,
            reliable: bool,
            mut scramble: u64,
            rdma: (bool, bool),
        ) -> World {
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
                    (area[n][1] + 40, AREA - 100, rdma),
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
            if !reliable {
                for n in 0..2 {
                    sys.set_reliability(n, vi[n], Reliability::Unreliable)
                        .unwrap();
                }
            }
            World {
                sys,
                pid,
                vi,
                area,
                region,
                recv_q: VecDeque::new(),
                parked: VecDeque::new(),
            }
        }

        fn seg(&self, n: usize, (r, off, len): SegSpec) -> DataSeg {
            let region = self.region[n][r];
            DataSeg {
                addr: region.addr + off as u64 - SLACK as u64,
                len,
                ..region
            }
        }

        fn segs(&self, n: usize, specs: &[SegSpec]) -> Vec<DataSeg> {
            specs.iter().map(|&s| self.seg(n, s)).collect()
        }

        /// Both areas of both nodes as the CPU sees them.
        fn memory(&mut self) -> Memory {
            [0, 1].map(|n| {
                [0, 1].map(|a| {
                    let mut out = vec![0u8; AREA];
                    self.sys
                        .read_user(n, self.pid[n], self.area[n][a], &mut out)
                        .unwrap();
                    out
                })
            })
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

        /// The reference scatter into node `n`'s half of `mem`: the list is
        /// cut off where `data` ends (only what arrived is placed), judged,
        /// then written; returns the bytes placed.
        fn land(
            &self,
            mem: &mut Memory,
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
                let area = (s.mem == self.region[n][1].mem) as usize;
                let off = (s.addr - self.area[n][area]) as usize;
                mem[n][area][off..off + s.len].copy_from_slice(&data[at..at + s.len]);
                at += s.len;
            }
            Ok(at)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn dma_walker_agrees_with_the_per_page_reference(
            setup in (any::<bool>(), any::<bool>(), any::<u64>(), (any::<bool>(), any::<bool>())),
            ops in prop::collection::vec(op(), 1..7),
        ) {
            use DescOp::{RdmaRead, RdmaWrite, Recv, Send};
            use DescStatus::{Done, Dropped, ProtectionError};
            let (on_demand, reliable, scramble, rdma) = setup;
            let strategy = if on_demand { StrategyKind::OnDemand } else { StrategyKind::KiobufReliable };
            let mut w = World::new(strategy, reliable, scramble, rdma);
            for op in &ops {
                // Everything expected is worked out before the fabric moves.
                let mut want = w.memory();
                let mut want_cq: [Vec<(DescOp, DescStatus, usize)>; 2] = Default::default();
                let mut want_err = None;
                match op {
                    Op::SendRecv(send, recv) => {
                        let (s, r) = (w.segs(0, send), w.segs(1, recv));
                        w.sys.post_recv_desc(1, w.vi[1], desc(Recv, &r, None)).unwrap();
                        w.recv_q.push_back(r);
                        w.sys.post_send_desc(0, w.vi[0], desc(Send, &s, None)).unwrap();
                        if let Ok(data) = w.take(0, &s, Access::Local) {
                            want_cq[0].push((Send, Done, data.len()));
                            let r = w.recv_q.pop_front().unwrap();
                            if reliable && total(&r) < data.len() {
                                want_cq[1].push((Recv, Dropped, 0));
                                want_err = Some(ViaError::RecvTooSmall { need: data.len(), have: total(&r) });
                            } else {
                                match w.land(&mut want, 1, &r, &data, Access::Local) {
                                    Ok(n) => want_cq[1].push((Recv, Done, n)),
                                    Err(e) => want_err = Some(e),
                                }
                            }
                        } else {
                            want_cq[0].push((Send, ProtectionError, 0));
                        }
                    }
                    Op::Write(local, remote) => {
                        let (s, t) = (w.segs(0, local), w.seg(1, *remote));
                        w.sys.post_send_desc(0, w.vi[0], desc(RdmaWrite, &s, Some(&t))).unwrap();
                        if let Ok(data) = w.take(0, &s, Access::Local) {
                            want_cq[0].push((RdmaWrite, Done, data.len()));
                            let t = [DataSeg { len: data.len(), ..t }];
                            want_err = w.land(&mut want, 1, &t, &data, Access::RdmaWrite).err();
                        } else {
                            want_cq[0].push((RdmaWrite, ProtectionError, 0));
                        }
                    }
                    Op::Read(local, remote) => {
                        let (d, t) = (w.segs(0, local), w.seg(1, *remote));
                        w.sys.post_send_desc(0, w.vi[0], desc(RdmaRead, &d, Some(&t))).unwrap();
                        let t = [DataSeg { len: total(&d), ..t }];
                        w.parked.push_back(d);
                        // The answer lands in the oldest parked read.
                        let landed = w.take(1, &t, Access::RdmaRead).and_then(|data| {
                            let d = w.parked.pop_front().unwrap();
                            w.land(&mut want, 0, &d, &data, Access::Local)
                        });
                        match landed {
                            Ok(n) => want_cq[0].push((RdmaRead, Done, n)),
                            Err(e) => want_err = Some(e),
                        }
                    }
                }
                prop_assert_eq!(w.sys.pump().err(), want_err.clone(), "{:?}", op);
                for n in 0..2 {
                    let mut cq = Vec::new();
                    while let Some(c) = w.sys.poll_cq(n, w.vi[n]).unwrap() {
                        cq.push((c.op, c.status, c.len));
                    }
                    prop_assert_eq!(&cq, &want_cq[n], "node {} after {:?}", n, op);
                }
                prop_assert!(w.memory() == want, "memory differs after {:?}", op);
                if matches!(want_err, Some(ViaError::RecvTooSmall { .. })) {
                    break; // a reliable connection does not survive that
                }
            }
            prop_assert!(w.sys.check_invariants().is_ok(), "{:?}", w.sys.check_invariants());
        }
    }
}
