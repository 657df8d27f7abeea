//! The boundary table: every public entry point that takes an (address,
//! length) or an (offset, length) — the simulated system calls, the
//! registry and its cache under every strategy, `Node` / `Fabric` posts
//! and PIO, and `Comm` buffers and windows from the owner and from a
//! remote rank — is called with spans that leave the address space or the
//! window. Each call must be refused with a typed error (a `Result::Err`,
//! or an error completion for a posted descriptor), must not panic, and
//! must change nothing: the invariant checks, the frame census and every
//! process's VMAs read as before.
//!
//! The table collects every failing call and reports them together, so a
//! red run lists the whole class at once. It matters in both build
//! profiles: debug panics on an overflowing `+`, release wraps it, and the
//! two fail differently. CI runs this file in both.
//!
//! A second test pins the RDMA-read refusal: a read the target refuses
//! completes the requester's own descriptor in error, so the next read on
//! the same VI completes its own descriptor with its own bytes.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use msg::{Comm, MsgConfig, Window};
use simmem::{
    prot, Capabilities, FrameId, Kernel, KernelConfig, MemInfo, PageFlags, Pid, VirtAddr, PAGE_SIZE,
};
use via::tpt::{MemId, ProtectionTag};
use via::vi::ViId;
use via::{Fabric, Node, ThreadedCluster, ViaError, ViaSystem};
use vialock::{MemoryRegistry, RegistrationCache, StrategyKind};

/// (address, length) spans: one starting at 0 whose page-aligned end
/// wraps, one at the top whose byte end wraps, and one whose end is one
/// past the last address (2^64, so the sum wraps to exactly 0).
const SPANS: [(u64, usize); 3] = [(0, usize::MAX), (u64::MAX - 3, 16), (u64::MAX - 15, 16)];
/// The same three shapes as (offset, length) into a window or a region.
const OFFSETS: [(usize, usize); 3] = [(0, usize::MAX), (usize::MAX - 3, 16), (usize::MAX - 15, 16)];
/// Offsets for the 8-byte compare-and-swap: end past the top, and end
/// exactly at 2^64.
const CAS_OFFSETS: [usize; 2] = [usize::MAX - 3, usize::MAX - 7];
/// Bytes of every fixture area and window.
const AREA: usize = 4 * PAGE_SIZE;
const TAG: ProtectionTag = ProtectionTag(7);

/// What a refused call must leave as it was, for one kernel: its own
/// invariant check, the frame census (meminfo, kiobufs, and per page of
/// each fixture area the frame, its count and flags) and per process its
/// VMA count, locked bytes, resident set and per-page writability.
#[derive(Debug, PartialEq)]
struct KernelCensus {
    invariants: Result<(), String>,
    meminfo: MemInfo,
    kiobufs: usize,
    procs: Vec<(Pid, usize, u64, usize)>,
    pages: Vec<(Option<FrameId>, u32, PageFlags, Option<bool>)>,
}

fn kernel_census(k: &Kernel, areas: &[(Pid, VirtAddr)]) -> KernelCensus {
    let procs = (k.pids().into_iter())
        .map(|p| {
            let vmas = k.vma_count(p).unwrap();
            (p, vmas, k.locked_bytes(p).unwrap(), k.rss(p).unwrap())
        })
        .collect();
    let mut pages = Vec::new();
    for &(pid, base) in areas {
        for i in 0..AREA / PAGE_SIZE {
            let a = base + (i * PAGE_SIZE) as u64;
            let frame = k.frame_of(pid, a).unwrap();
            let (count, flags) = frame.map_or((0, PageFlags::default()), |f| {
                let d = k.page_descriptor(f);
                (d.count(), d.flags())
            });
            pages.push((frame, count, flags, k.vma_writable(pid, a).ok()));
        }
    }
    KernelCensus {
        invariants: k.check_invariants(),
        meminfo: k.meminfo(),
        kiobufs: k.kiobuf_count(),
        procs,
        pages,
    }
}

/// A node's census: its local invariants (registry, TPT, kernel), its
/// registrations and TPT occupancy, and its kernel's census.
#[derive(Debug, PartialEq)]
struct NodeCensus {
    invariants: Result<(), String>,
    regions: usize,
    tpt_slots: usize,
    kernel: KernelCensus,
}

fn node_census(n: &Node, areas: &[(Pid, VirtAddr)]) -> NodeCensus {
    NodeCensus {
        invariants: n.check_local_invariants(),
        regions: n.registry.live_regions(),
        tpt_slots: n.nic.tpt.used_slots(),
        kernel: kernel_census(&n.kernel, areas),
    }
}

/// A fabric's census: the fabric-wide invariants and every node's census.
fn fabric_census<F: Fabric>(
    f: &mut F,
    areas: &[Vec<(Pid, VirtAddr)>],
) -> (Result<(), String>, Vec<NodeCensus>) {
    let nodes = (0..f.node_count())
        .map(|n| {
            let a = areas[n].clone();
            f.with_node(n, move |node| node_census(node, &a))
        })
        .collect();
    (f.check_invariants(), nodes)
}

/// `Err(detail)` when a call was not refused.
type Verdict = Result<(), String>;

/// A refusal is any `Err`.
fn refused<T: Debug, E>(r: Result<T, E>) -> Verdict {
    match r {
        Ok(v) => Err(format!("accepted ({v:?})")),
        Err(_) => Ok(()),
    }
}

/// The calls that were not refused cleanly, by entry point.
#[derive(Default)]
struct Table {
    failures: Vec<(String, String)>,
    probes: usize,
}

impl Table {
    /// Build a fresh fixture, take its census, make the call, and record a
    /// panic, an acceptance or a changed census under `name`.
    fn probe<S, C: PartialEq + Debug>(
        &mut self,
        name: &str,
        span: impl Debug,
        setup: impl FnOnce() -> S,
        census: impl Fn(&mut S) -> C,
        call: impl FnOnce(&mut S) -> Verdict,
    ) {
        self.probes += 1;
        let mut s = setup();
        let before = census(&mut s);
        let what = match catch_unwind(AssertUnwindSafe(|| call(&mut s))) {
            Err(_) => "panicked".to_string(),
            Ok(Err(accepted)) => accepted,
            Ok(Ok(())) => {
                let after = census(&mut s);
                if after == before {
                    return;
                }
                format!("refused, but changed state: {before:?} -> {after:?}")
            }
        };
        self.failures
            .push((name.to_string(), format!("{name} {span:?}: {what}")));
    }

    /// Panic with every failing entry point, once each, then the details.
    fn report(self, which: &str) {
        let mut names: Vec<&str> = self.failures.iter().map(|(n, _)| n.as_str()).collect();
        names.dedup();
        if names.is_empty() {
            return;
        }
        let details: Vec<&str> = self.failures.iter().map(|(_, d)| d.as_str()).collect();
        panic!(
            "{which}: {} of {} probes failed, in {} entry points: {}\n{}",
            details.len(),
            self.probes,
            names.len(),
            names.join(", "),
            details.join("\n")
        );
    }
}

// ---------------------------------------------------------------------
// The simulated system calls
// ---------------------------------------------------------------------

/// A root process with one mapped, touched area.
fn kernel() -> (Kernel, Pid, VirtAddr) {
    let mut k = Kernel::new(KernelConfig::small());
    let pid = k.spawn_process(Capabilities::root());
    let a = k.mmap_anon(pid, AREA, prot::READ | prot::WRITE).unwrap();
    k.touch_pages(pid, a, AREA, true).unwrap();
    (k, pid, a)
}

type KernelCall = fn(&mut Kernel, Pid, VirtAddr, usize) -> Verdict;

#[test]
fn every_kernel_entry_point_refuses_a_span_that_leaves_the_address_space() {
    let calls: [(&str, KernelCall); 13] = [
        ("munmap", |k, p, a, l| refused(k.munmap(p, a, l))),
        ("mprotect", |k, p, a, l| {
            refused(k.mprotect(p, a, l, prot::READ))
        }),
        ("madvise_dontfork", |k, p, a, l| {
            refused(k.madvise_dontfork(p, a, l, true))
        }),
        ("sys_mlock", |k, p, a, l| refused(k.sys_mlock(p, a, l))),
        ("sys_munlock", |k, p, a, l| refused(k.sys_munlock(p, a, l))),
        ("touch_pages", |k, p, a, l| {
            refused(k.touch_pages(p, a, l, true))
        }),
        ("write_protect_range", |k, p, a, l| {
            refused(k.write_protect_range(p, a, l))
        }),
        ("frames_of_range", |k, p, a, l| {
            refused(k.frames_of_range(p, a, l))
        }),
        ("get_user_pages", |k, p, a, l| {
            refused(k.get_user_pages(p, a, l))
        }),
        ("fault_in_range", |k, p, a, l| {
            refused(k.fault_in_range(p, a, l))
        }),
        ("map_user_kiobuf", |k, p, a, l| {
            refused(k.map_user_kiobuf(p, a, l))
        }),
        ("write_user", |k, p, a, _| {
            refused(k.write_user(p, a, &[1; 16]))
        }),
        ("read_user", |k, p, a, _| {
            refused(k.read_user(p, a, &mut [0; 16]))
        }),
    ];
    let mut t = Table::default();
    for (name, call) in calls {
        for (addr, len) in SPANS {
            if name == "frames_of_range" && len == usize::MAX {
                // The result is sized before the range is walked: without
                // the span check this asks the allocator for 2^52 entries
                // and aborts the run instead of failing one probe.
                continue;
            }
            t.probe(
                name,
                (addr, len),
                kernel,
                |(k, pid, a)| kernel_census(k, &[(*pid, *a)]),
                |(k, pid, _)| call(k, *pid, addr, len),
            );
        }
    }
    t.probe(
        "mmap_anon",
        usize::MAX,
        kernel,
        |(k, pid, a)| kernel_census(k, &[(*pid, *a)]),
        |(k, pid, _)| refused(k.mmap_anon(*pid, usize::MAX, prot::READ)),
    );
    t.report("kernel");
}

// ---------------------------------------------------------------------
// Registration, for each strategy
// ---------------------------------------------------------------------

#[test]
fn every_registration_entry_point_refuses_a_wrapping_span_under_every_strategy() {
    let mut t = Table::default();
    for strategy in StrategyKind::ALL {
        let setup = || {
            let (k, pid, a) = kernel();
            (k, pid, a, MemoryRegistry::new(strategy))
        };
        let census = |(k, pid, a, reg): &mut (Kernel, Pid, VirtAddr, MemoryRegistry)| {
            (
                reg.check_invariants(k),
                reg.live_regions(),
                kernel_census(k, &[(*pid, *a)]),
            )
        };
        for (addr, len) in SPANS {
            t.probe(
                &format!("{strategy:?} register"),
                (addr, len),
                setup,
                census,
                |(k, pid, _, reg)| refused(reg.register(k, *pid, addr, len)),
            );
            t.probe(
                &format!("{strategy:?} RegistrationCache::acquire"),
                (addr, len),
                setup,
                census,
                |(k, pid, _, reg)| {
                    refused(RegistrationCache::new(64).acquire(k, reg, *pid, addr, len))
                },
            );
        }
    }
    // A lookup, not a pin: one strategy serves. A registration covering
    // the fixture area is live, so the lookup has something to find.
    for (addr, len) in SPANS {
        t.probe(
            "find_covering",
            (addr, len),
            || {
                let (mut k, pid, a) = kernel();
                let mut reg = MemoryRegistry::new(StrategyKind::KiobufReliable);
                reg.register(&mut k, pid, a, AREA).unwrap();
                (k, pid, a, reg)
            },
            |(k, pid, a, reg)| (reg.live_regions(), kernel_census(k, &[(*pid, *a)])),
            |(_, pid, _, reg)| match reg.find_covering(*pid, addr, len) {
                None => Ok(()),
                Some(h) => Err(format!("covered by {h:?}")),
            },
        );
    }
    t.report("registration");
}

// ---------------------------------------------------------------------
// Node / Fabric posts and PIO
// ---------------------------------------------------------------------

/// Two connected VIs; on each node one touched area registered with both
/// RDMA enables.
struct Wire {
    fab: ViaSystem,
    pid: [Pid; 2],
    vi: [ViId; 2],
    area: [(MemId, VirtAddr); 2],
}

fn wire() -> Wire {
    let mut fab = ViaSystem::new(2, KernelConfig::small(), StrategyKind::KiobufReliable);
    let pid = [0, 1].map(|n| fab.spawn_process(n));
    let vi = [0, 1].map(|n| fab.create_vi(n, pid[n], TAG).unwrap());
    fab.connect((0, vi[0]), (1, vi[1])).unwrap();
    let area = [0, 1].map(|n| {
        let a = fab.mmap(n, pid[n], AREA, prot::READ | prot::WRITE).unwrap();
        fab.touch_pages(n, pid[n], a, AREA, true).unwrap();
        let mem = fab
            .register_mem_attrs(n, pid[n], a, AREA, TAG, true, true)
            .unwrap();
        (mem, a)
    });
    Wire { fab, pid, vi, area }
}

fn wire_census(w: &mut Wire) -> impl PartialEq + Debug {
    let areas = [0, 1].map(|n| vec![(w.pid[n], w.area[n].1)]);
    fabric_census(&mut w.fab, &areas)
}

/// A post is refused when the post itself, the pump that delivers it or
/// the completion it leaves on node `n`'s VI says so.
fn post_refused(w: &mut Wire, n: usize, posted: Result<(), ViaError>) -> Verdict {
    if posted.is_err() {
        return Ok(());
    }
    if w.fab.pump().is_err() {
        return Ok(());
    }
    match w.fab.poll_cq(n, w.vi[n]) {
        Ok(Some(c)) if c.status.is_error() => Ok(()),
        other => Err(format!("completed {other:?}")),
    }
}

type WireCall = fn(&mut Wire, u64, usize) -> Verdict;

#[test]
fn every_node_and_fabric_entry_point_refuses_a_span_that_leaves_its_region() {
    let calls: [(&str, WireCall); 8] = [
        ("Fabric::register_mem", |w, a, l| {
            refused(w.fab.register_mem(0, w.pid[0], a, l, TAG))
        }),
        ("Fabric::post_send (local segment)", |w, a, l| {
            let (mem, vi) = (w.area[0].0, w.vi[0]);
            let posted = w.fab.post_send(0, vi, mem, a, l);
            post_refused(w, 0, posted)
        }),
        ("Fabric::post_recv (local segment)", |w, a, l| {
            let (rmem, vi) = (w.area[1].0, w.vi[1]);
            if w.fab.post_recv(1, vi, rmem, a, l).is_err() {
                return Ok(());
            }
            let (smem, sa) = w.area[0];
            w.fab.post_send(0, w.vi[0], smem, sa, 16).unwrap();
            let r = w.fab.pump();
            match w.fab.poll_cq(1, vi) {
                _ if r.is_err() => Ok(()),
                Ok(Some(c)) if c.status.is_error() => Ok(()),
                other => Err(format!("completed {other:?}")),
            }
        }),
        ("Fabric::post_rdma_write (local segment)", |w, a, l| {
            let ((lmem, _), (rmem, ra)) = (w.area[0], w.area[1]);
            let posted = w.fab.post_rdma_write(0, w.vi[0], lmem, a, l, rmem, ra);
            post_refused(w, 0, posted)
        }),
        ("Fabric::post_rdma_write (remote address)", |w, a, l| {
            let ((lmem, la), (rmem, _)) = (w.area[0], w.area[1]);
            let posted = w.fab.post_rdma_write(0, w.vi[0], lmem, la, l, rmem, a);
            post_refused(w, 0, posted)
        }),
        ("Fabric::post_rdma_read (remote address)", |w, a, l| {
            let ((lmem, la), (rmem, _)) = (w.area[0], w.area[1]);
            let posted = w.fab.post_rdma_read(0, w.vi[0], lmem, la, l, rmem, a);
            post_refused(w, 0, posted)
        }),
        ("Fabric::post_atomic_cas (remote address)", |w, a, _| {
            let ((lmem, la), (rmem, _)) = (w.area[0], w.area[1]);
            let posted = w
                .fab
                .post_atomic_cas(0, w.vi[0], lmem, la, rmem, a & !7, 0, 1);
            post_refused(w, 0, posted)
        }),
        ("Fabric::sci_write (source span)", |w, a, l| {
            let dst = (1, w.area[1].0, 0);
            refused(w.fab.sci_write((0, w.pid[0], a), l, dst))
        }),
    ];
    let mut t = Table::default();
    for (name, call) in calls {
        for (addr, len) in SPANS {
            t.probe(name, (addr, len), wire, wire_census, |w| call(w, addr, len));
        }
    }
    for (off, len) in OFFSETS {
        t.probe("Node::check_pio_span", (off, len), wire, wire_census, |w| {
            let mem = w.area[1].0;
            refused(w.fab.with_node(1, move |n| n.check_pio_span(mem, off, len)))
        });
    }
    // A byte slice cannot be `usize::MAX` long: these take the two shapes
    // whose offset is at the top.
    for (off, len) in &OFFSETS[1..] {
        let (off, len) = (*off, *len);
        t.probe(
            "Fabric::sci_write (destination offset)",
            (off, len),
            wire,
            wire_census,
            |w| {
                let src = (0, w.pid[0], w.area[0].1);
                refused(w.fab.sci_write(src, len, (1, w.area[1].0, off)))
            },
        );
        t.probe(
            "Fabric::sci_write_bytes (destination offset)",
            (off, len),
            wire,
            wire_census,
            |w| refused(w.fab.sci_write_bytes(&[1; 16], (1, w.area[1].0, off))),
        );
        t.probe(
            "Fabric::sci_read_bytes (source offset)",
            (off, len),
            wire,
            wire_census,
            |w| refused(w.fab.sci_read_bytes((1, w.area[1].0, off), &mut [0; 16])),
        );
    }
    t.report("node and fabric");
}

// ---------------------------------------------------------------------
// Comm buffers and windows, from the owner and from a remote rank
// ---------------------------------------------------------------------

/// Two ranks on two nodes; rank 1 exposes a 4 KiB window right after a
/// buffer of its own, so a store that escapes the window below its base
/// lands in mapped memory. Rank 0 has already put, got and swapped once,
/// so its buffers are registration-cache hits: a refused call is judged
/// on what it touches, not on the miss it would have taken.
struct Win {
    c: Comm,
    w: Window,
    /// One buffer per rank.
    buf: [VirtAddr; 2],
}

fn win() -> Win {
    let mut c = Comm::new(
        2,
        2,
        KernelConfig::medium(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .unwrap();
    let buf = [0, 1].map(|r| {
        let b = c.alloc_buffer(r, AREA).unwrap();
        c.fill_buffer(r, b, &[r as u8 + 1; AREA]).unwrap();
        b
    });
    let base = c.alloc_buffer(1, PAGE_SIZE).unwrap();
    c.fill_buffer(1, base, &[0x5A; PAGE_SIZE]).unwrap();
    let w = c.expose_window(1, base, PAGE_SIZE).unwrap();
    c.put(0, buf[0], 16, &w, 0).unwrap();
    c.get(0, buf[0], 16, &w, 0).unwrap();
    c.cas(0, &w, 0, 0, 0).unwrap();
    Win { c, w, buf }
}

fn win_census(w: &mut Win) -> impl PartialEq + Debug {
    // The bytes first: the load marks the window's frame accessed, and the
    // census after it must see the same flags both times.
    let mut window = vec![0; PAGE_SIZE];
    w.c.read_buffer(1, w.w.base, &mut window).unwrap();
    let (p0, p1) = (w.c.rank_pid(0), w.c.rank_pid(1));
    let areas = [vec![(p0, w.buf[0])], vec![(p1, w.buf[1]), (p1, w.w.base)]];
    (fabric_census(w.c.system_mut(), &areas), window)
}

type WinCall = fn(&mut Win, usize, usize, usize) -> Verdict;

#[test]
fn every_comm_entry_point_refuses_a_span_that_leaves_its_buffer_or_window() {
    // (name, call(origin rank, offset, len)), each from the owner (rank 1)
    // and from the remote rank 0.
    let window_calls: [(&str, WinCall); 2] = [
        ("put", |w, r, off, len| {
            let win = w.w;
            refused(w.c.put(r, w.buf[r], len, &win, off))
        }),
        ("get", |w, r, off, len| {
            let win = w.w;
            refused(w.c.get(r, w.buf[r], len, &win, off))
        }),
    ];
    let mut t = Table::default();
    for (name, call) in window_calls {
        for (who, r) in [("owner", 1), ("remote", 0)] {
            for (off, len) in OFFSETS {
                t.probe(
                    &format!("Comm::{name} ({who})"),
                    (off, len),
                    win,
                    win_census,
                    |w| call(w, r, off, len),
                );
            }
        }
    }
    for (who, r) in [("owner", 1), ("remote", 0)] {
        for off in CAS_OFFSETS {
            t.probe(&format!("Comm::cas ({who})"), off, win, win_census, |w| {
                let win = w.w;
                refused(w.c.cas(r, &win, off, 0, 1))
            });
        }
    }
    for (addr, len) in SPANS {
        t.probe("Comm::fill_buffer", addr, win, win_census, |w| {
            refused(w.c.fill_buffer(0, addr, &[1; 16]))
        });
        t.probe("Comm::read_buffer", addr, win, win_census, |w| {
            refused(w.c.read_buffer(0, addr, &mut [0; 16]))
        });
        t.probe("Comm::free_buffer", (addr, len), win, win_census, |w| {
            refused(w.c.free_buffer(0, addr, len))
        });
        t.probe("Comm::send", (addr, len), win, win_census, |w| {
            refused(w.c.send(0, 1, 3, addr, len))
        });
        t.probe("Comm::expose_window", (addr, len), win, win_census, |w| {
            refused(w.c.expose_window(0, addr, len))
        });
    }
    t.probe("Comm::alloc_buffer", usize::MAX, win, win_census, |w| {
        refused(w.c.alloc_buffer(0, usize::MAX))
    });
    t.report("comm");
}

// ---------------------------------------------------------------------
// A refused RDMA read completes its own descriptor
// ---------------------------------------------------------------------

/// Rank 0 reads from a region of rank 1 registered without RDMA read: the
/// target refuses. The refusal must complete that read's descriptor in
/// error; the next read, from a window that allows it, must land its own
/// bytes in its own buffer; a compare-and-swap after that must complete
/// as a CAS. The registration cache holds nothing acquired afterwards.
fn a_refused_read_completes_its_own_descriptor<F: Fabric>(fab: F) {
    let mut c = Comm::on_fabric(fab, 2, MsgConfig::tiny()).unwrap();
    let d1 = c.alloc_buffer(0, 16).unwrap();
    let d2 = c.alloc_buffer(0, 16).unwrap();
    let open = c.alloc_buffer(1, PAGE_SIZE).unwrap();
    c.fill_buffer(1, open, &[0xA5; PAGE_SIZE]).unwrap();
    let w = c.expose_window(1, open, PAGE_SIZE).unwrap();
    let shut = c.alloc_buffer(1, PAGE_SIZE).unwrap();
    let (node, pid, tag) = (c.rank_node(1), c.rank_pid(1), c.rank_tag(1));
    let mem = c
        .system_mut()
        .register_mem_attrs(node, pid, shut, PAGE_SIZE, tag, true, false)
        .unwrap();
    let closed = Window {
        owner: 1,
        base: shut,
        len: PAGE_SIZE,
        mem,
    };

    assert!(
        c.get(0, d1, 16, &closed, 0).is_err(),
        "read-disabled region"
    );
    c.get(0, d2, 16, &w, 0).unwrap();
    let (mut got1, mut got2) = ([0u8; 16], [0u8; 16]);
    c.read_buffer(0, d1, &mut got1).unwrap();
    c.read_buffer(0, d2, &mut got2).unwrap();
    assert_eq!(got2, [0xA5; 16], "the second read landed in its own buffer");
    assert_eq!(got1, [0; 16], "the refused read landed nothing");
    assert_eq!(
        c.cache_in_use(c.rank_node(0)),
        0,
        "a refused get holds nothing"
    );
    assert_eq!(c.cas(0, &w, 0, 0, 1).unwrap(), 0xA5A5_A5A5_A5A5_A5A5);
    assert_eq!(c.cache_in_use(c.rank_node(0)), 0);
    c.system_mut().check_invariants().unwrap();
}

#[test]
fn a_refused_read_completes_its_own_descriptor_on_both_fabrics() {
    let (cfg, strategy) = (KernelConfig::medium(), StrategyKind::KiobufReliable);
    a_refused_read_completes_its_own_descriptor(ViaSystem::new(2, cfg, strategy));
    a_refused_read_completes_its_own_descriptor(ThreadedCluster::new(2, cfg, strategy));
}
