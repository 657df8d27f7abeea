//! Differential test of the page stealer: the in-place walk of
//! [`crate::reclaim`] against the collect-then-scan routine it replaced,
//! which survives as the `oracle` module there, on [`check::diff`].
//!
//! Twin 64-frame kernels — one with `oracle_stealer` set — run the same
//! seeded script, and after **every** step everything the stealer can
//! influence must be identical (see [`Snap`]). The census
//! (`Kernel::check_invariants`) is each side's audit at every step, which
//! is also what exercises the present index under every kind of PTE edit.
//!
//! With the injector on, each kernel draws its vetoes from *its own* copy of
//! one seeded stream, advanced on every consultation whatever the site — so
//! a walk that consults the injector at different sites, or in a different
//! order, draws different answers and diverges.

#![cfg(test)]

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;

use check::diff::{self, coin, pick, Model, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mm::TASK_UNMAPPED_BASE;
use crate::page::RMap;
use crate::{inject, prot, Capabilities, FrameId, Kernel, KernelConfig, MmStats, PageFlags};
use crate::{Pid, Pte, SlotId, VmArea, Vpn, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;
const STEPS: usize = 600;
const SEEDS: u64 = 16;
/// Mapped pages the harness allows at once: several times the machine,
/// comfortably inside the swap device.
const MAX_MAPPED_PAGES: u64 = 400;

/// One step; `(pid, address, pages)` name a run of pages, and `Read` and
/// `Write` touch 8 bytes at offset 16 of each. A new process gets the pid
/// the script names and a mapping the address it names, so dropping one
/// step of a script moves nothing another step names.
#[derive(Debug, Clone)]
enum Op {
    /// `(pid, root?)`.
    Spawn(Pid, bool),
    /// `(pid, address, pages, read-only?, populate?)`: a populated mapping
    /// faults every page in at once, so a few steps make the pressure a
    /// shrunk script needs.
    Mmap(Pid, u64, u64, bool, bool),
    Read(Pid, u64, u64),
    Write(Pid, u64, u64, u8),
    /// `(parent, child)`.
    Fork(Pid, Pid),
    LazyPin(Pid, u64),
    /// A refcount-only "pin" (Berkeley-VIA style) on a resident page.
    RawGet(Pid, u64),
    RawPut(FrameId),
    /// A raw `PG_locked` (Giganet style) on a resident, unlocked page.
    RawLock(Pid, u64),
    /// Clear it, unless the frame now carries a lazy pin (it may have been
    /// freed and handed out again in between).
    RawUnlock(FrameId),
    Mlock(Pid, u64, u64, bool),
    Munmap(Pid, u64, u64),
    Exit(Pid),
    /// The device layer drains the invalidation queue.
    Drain,
    Idle,
}

#[derive(Debug, PartialEq)]
enum Out {
    Pid(Pid),
    /// A new mapping, and how populating it went.
    Base(u64, String),
    /// The frame a raw reference or raw lock was taken on.
    Took(FrameId),
    Answer(String),
}

fn answer(r: impl Debug) -> Out {
    Out::Answer(format!("{r:?}"))
}

/// Everything the stealer can influence: per process its page table, VMAs
/// and rss; per frame its count, flags, rmap and swap slot; the free list
/// (order included); the counters, rotor and swap device; the lazy-pin
/// ledger, invalidation queue and pending repins; the swap cache; and every
/// 16th step the bytes of every frame and swap slot.
#[derive(Debug, PartialEq)]
#[allow(clippy::type_complexity)] // one tuple per process and per frame, compared whole
struct Snap {
    procs: Vec<(Pid, Vec<(Vpn, Pte)>, Vec<VmArea>, usize)>,
    pages: Vec<(u32, u8, Option<RMap>, Option<SlotId>)>,
    free_list: Vec<FrameId>,
    counters: (MmStats, usize, (usize, usize, u64, u64)),
    ledgers: (HashMap<FrameId, u32>, Vec<FrameId>, HashSet<(Pid, Vpn)>),
    swap_cache: HashMap<SlotId, FrameId>,
    bytes: Vec<Option<Bytes>>,
}

/// A page's bytes, compared in full and printed as their FNV-1a hash.
#[derive(PartialEq)]
struct Bytes(Vec<u8>);

impl Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        write!(f, "{:016x}", self.0.iter().fold(0xcbf2_9ce4_8422_2325, fnv))
    }
}

/// A kernel and the steps it has taken.
struct Stealer(Kernel, usize);

/// The frame `pid` maps at `addr`, if resident and `take` accepts it.
fn resident(k: &Kernel, pid: Pid, addr: u64, take: impl Fn(FrameId) -> bool) -> Out {
    match k.frame_of(pid, addr) {
        Ok(Some(f)) if take(f) => Out::Took(f),
        r => answer(r),
    }
}

impl Side<Op, Out, Snap> for Stealer {
    fn apply(&mut self, op: &Op) -> Out {
        self.1 += 1;
        let k = &mut self.0;
        let bytes = |pages| (0..pages).map(move |i: u64| i * P + 16);
        match *op {
            Op::Spawn(pid, root) => {
                k.next_pid = pid.0;
                let caps = [Capabilities::default(), Capabilities::root()][root as usize];
                Out::Pid(k.spawn_process(caps))
            }
            Op::Mmap(pid, at, pages, readonly, populate) => {
                if let Some(p) = k.procs.get_mut(&pid) {
                    p.mm.mmap_base = at;
                }
                let p = prot::READ | if readonly { 0 } else { prot::WRITE };
                let len = (pages * P) as usize;
                match k.mmap_anon(pid, len, p) {
                    Ok(base) if populate => Out::Base(
                        base,
                        format!("{:?}", k.touch_pages(pid, base, len, !readonly)),
                    ),
                    Ok(base) => Out::Base(base, String::new()),
                    e => answer(e),
                }
            }
            Op::Read(pid, addr, pages) => answer(
                bytes(pages)
                    .map(|at| {
                        let mut out = [0u8; 8];
                        k.read_user(pid, addr + at, &mut out).map(|()| out)
                    })
                    .collect::<Vec<_>>(),
            ),
            Op::Write(pid, addr, pages, fill) => answer(
                bytes(pages)
                    .map(|at| k.write_user(pid, addr + at, &[fill; 8]))
                    .collect::<Vec<_>>(),
            ),
            Op::Fork(parent, child) => {
                k.next_pid = child.0;
                k.fork(parent).map_or_else(answer, Out::Pid)
            }
            Op::LazyPin(pid, addr) => answer(k.lazy_pin_page(pid, addr)),
            Op::RawGet(pid, addr) => {
                let out = resident(k, pid, addr, |f| f != k.zero_frame());
                if let Out::Took(f) = out {
                    k.raw_get_page(f);
                }
                out
            }
            Op::RawPut(f) => answer(k.raw_put_page(f)),
            Op::RawLock(pid, addr) => {
                let out = resident(k, pid, addr, |f| {
                    let flags = k.page_descriptor(f).flags();
                    !flags.contains(PageFlags::LOCKED) && !flags.contains(PageFlags::RESERVED)
                });
                if let Out::Took(f) = out {
                    k.raw_set_page_flag(f, PageFlags::LOCKED);
                }
                out
            }
            Op::RawUnlock(f) => {
                let clear = k.lazy_pin_count(f) == 0;
                if clear {
                    k.raw_clear_page_flag(f, PageFlags::LOCKED);
                }
                answer(clear)
            }
            Op::Mlock(pid, addr, pages, lock) => answer(match lock {
                true => k.sys_mlock(pid, addr, (pages * P) as usize),
                false => k.sys_munlock(pid, addr, (pages * P) as usize),
            }),
            Op::Munmap(pid, addr, pages) => answer(k.munmap(pid, addr, (pages * P) as usize)),
            Op::Exit(pid) => answer(k.exit_process(pid)),
            Op::Drain => answer(k.take_lazy_invalidations()),
            Op::Idle => answer(()),
        }
    }

    fn snapshot(&mut self) -> Result<Snap, String> {
        let k = &self.0;
        k.check_invariants()?;
        let frames = (0..k.config.nframes).map(|f| Some(k.phys.frame(FrameId(f))));
        let slots = (0..k.swap.capacity() as u32).map(|s| k.swap.peek(SlotId(s)));
        let deep = self.1.is_multiple_of(16) || self.1 == STEPS;
        Ok(Snap {
            procs: (k.procs.iter())
                .map(|(&pid, p)| {
                    let ptes = p.mm.ptes_in(0, u64::MAX).map(|(v, p)| (v, *p)).collect();
                    (pid, ptes, p.mm.vmas.iter().cloned().collect(), p.mm.rss())
                })
                .collect(),
            pages: (k.pagemap.iter())
                .map(|(_, d)| (d.count(), d.flags().bits(), d.rmap, d.swap_slot))
                .collect(),
            free_list: k.free_list.clone(),
            counters: (k.mm_stats(), k.swap_rotor, k.swap_stats()),
            ledgers: (
                k.lazy_pins.clone(),
                k.lazy_invalidations.clone(),
                k.repin_pending.clone(),
            ),
            swap_cache: k.swap_cache.clone(),
            bytes: (frames.chain(slots).filter(|_| deep))
                .map(|b| b.map(|b| Bytes(b.to_vec())))
                .collect(),
        })
    }
}

#[derive(Debug)]
struct Twins {
    seed: u64,
    swap_cache: bool,
    inject: bool,
}

impl diff::Twins for Twins {
    type Op = Op;
    type Out = Out;
    type Snap = Snap;
    type Left = Stealer;
    type Right = Stealer;

    /// `(in-place walk, oracle)`.
    fn build(&self) -> (Stealer, Stealer) {
        let kernel = |oracle| {
            let mut k = Kernel::new(KernelConfig {
                nframes: 64,
                reserved_frames: 4,
                swap_slots: 1024,
                default_rlimit_memlock: None,
                swap_cache: self.swap_cache,
            });
            k.oracle_stealer = oracle;
            if self.inject {
                let mut stream = StdRng::seed_from_u64(self.seed ^ 0x5eed);
                k.set_injector(Some(Box::new(move |site| {
                    let draw = stream.random_range(0u32..64);
                    match site {
                        inject::PRESSURE_UNPIN => draw < 16,
                        inject::SWAP_FULL => draw < 4,
                        inject::FRAME_ALLOC => draw < 2,
                        _ => false,
                    }
                })));
            }
            Stealer(k, 0)
        };
        (kernel(false), kernel(true))
    }
}

/// What the script believes exists; it only aims operations. Mappings are
/// `(pid, base, pages)`; every new process and mapping gets a pid and a
/// 16-page slot no other step of the script uses.
#[derive(Default)]
struct Picture {
    pids: Vec<Pid>,
    maps: Vec<(Pid, u64, u64)>,
    raw_refs: Vec<FrameId>,
    raw_locks: Vec<FrameId>,
    made: u32,
}

impl Picture {
    fn next(&mut self) -> u32 {
        self.made += 1;
        self.made
    }
}

impl Picture {
    /// A run of pages inside one mapping: `(pid, address, pages)`.
    fn run(&self, rng: &mut StdRng) -> Option<(Pid, u64, u64)> {
        let (pid, base, pages) = pick(rng, &self.maps)?;
        let first = rng.random_range(0..pages) / 2;
        Some((
            pid,
            base + first * P,
            rng.random_range(1..pages - first + 1),
        ))
    }

    fn page(&self, rng: &mut StdRng) -> Option<(Pid, u64)> {
        let (pid, base, pages) = pick(rng, &self.maps)?;
        Some((pid, base + rng.random_range(0..pages) * P))
    }
}

impl Model<Twins> for Picture {
    fn draw(&mut self, rng: &mut StdRng, _: usize) -> Op {
        let n = self.pids.len();
        let mapped: u64 = self.maps.iter().map(|m| m.2).sum();
        let op = match rng.random_range(0u32..100) {
            // Processes come and go; some may mlock.
            0..=3 if n < 6 => Some(Op::Spawn(Pid(self.next()), rng.random_range(0u32..2) == 0)),
            4..=15 if n > 0 && mapped < MAX_MAPPED_PAGES => {
                let pid = self.pids[rng.random_range(0..n)];
                let (at, pages) = (
                    TASK_UNMAPPED_BASE + self.next() as u64 * 16 * P,
                    rng.random_range(1u64..13),
                );
                let readonly = rng.random_range(0u32..8) == 0;
                Some(Op::Mmap(pid, at, pages, readonly, coin(rng)))
            }
            // The bulk of the traffic: touches of a run of pages, mostly
            // writes — they allocate, so they are what runs the stealer.
            16..=55 => self.run(rng).map(|(pid, addr, pages)| {
                if rng.random_range(0u32..4) == 0 {
                    Op::Read(pid, addr, pages)
                } else {
                    Op::Write(pid, addr, pages, rng.random_range(0u32..256) as u8)
                }
            }),
            56..=60 if n > 0 && n < 6 => Some(Op::Fork(
                self.pids[rng.random_range(0..n)],
                Pid(self.next()),
            )),
            61..=72 => self.page(rng).map(|(pid, addr)| Op::LazyPin(pid, addr)),
            73..=76 => self.page(rng).map(|(pid, addr)| Op::RawGet(pid, addr)),
            77..=79 => pick(rng, &self.raw_refs).map(Op::RawPut),
            80..=83 => self.page(rng).map(|(pid, addr)| Op::RawLock(pid, addr)),
            84..=86 => pick(rng, &self.raw_locks).map(Op::RawUnlock),
            87..=90 => (self.run(rng))
                .map(|(pid, addr, n)| Op::Mlock(pid, addr, n, rng.random_range(0u32..3) != 0)),
            // Unmap a whole mapping, or its front.
            91..=94 => pick(rng, &self.maps).map(|(pid, base, pages)| {
                let whole = rng.random_range(0u32..2) == 0;
                Op::Munmap(
                    pid,
                    base,
                    if whole {
                        pages
                    } else {
                        rng.random_range(1..pages + 1)
                    },
                )
            }),
            95 if n > 2 => Some(Op::Exit(self.pids[rng.random_range(0..n)])),
            96..=97 => Some(Op::Drain),
            _ => None,
        };
        op.unwrap_or(Op::Idle)
    }

    fn observe(&mut self, op: &Op, out: &Out) {
        let forget = |xs: &mut Vec<FrameId>, f| {
            let i = xs
                .iter()
                .position(|&x| x == f)
                .expect("drawn from the list");
            xs.swap_remove(i);
        };
        match (op, out) {
            (Op::Spawn(..), &Out::Pid(pid)) => self.pids.push(pid),
            (&Op::Mmap(pid, _, pages, ..), &Out::Base(base, _)) => {
                self.maps.push((pid, base, pages))
            }
            (&Op::Fork(parent, _), &Out::Pid(child)) => {
                self.pids.push(child);
                let inherited: Vec<_> = (self.maps.iter().filter(|m| m.0 == parent))
                    .map(|&(_, base, pages)| (child, base, pages))
                    .collect();
                self.maps.extend(inherited);
            }
            (Op::RawGet(..), &Out::Took(f)) => self.raw_refs.push(f),
            (Op::RawLock(..), &Out::Took(f)) => self.raw_locks.push(f),
            (&Op::RawPut(f), _) => forget(&mut self.raw_refs, f),
            (&Op::RawUnlock(f), _) => forget(&mut self.raw_locks, f),
            (&Op::Munmap(pid, base, n), _) => {
                for m in self.maps.iter_mut().filter(|m| (m.0, m.1) == (pid, base)) {
                    *m = (pid, base + n * P, m.2 - n);
                }
                self.maps.retain(|m| m.2 > 0);
            }
            (&Op::Exit(pid), _) => {
                self.pids.retain(|&p| p != pid);
                self.maps.retain(|m| m.0 != pid);
            }
            _ => {}
        }
    }
}

fn run(swap_cache: bool, inject: bool) {
    let mut total = MmStats::default();
    let setup = |seed| {
        (
            Twins {
                seed,
                swap_cache,
                inject,
            },
            Picture::default(),
        )
    };
    diff::run(0..SEEDS, STEPS, setup, |_, walk, _, _| {
        let s = walk.0.mm_stats();
        total.reclaim_passes += s.reclaim_passes;
        total.swap_outs += s.swap_outs;
        total.pressure_unpins += s.pressure_unpins;
        total.skipped_pg_locked += s.skipped_pg_locked;
        total.skipped_vm_locked += s.skipped_vm_locked;
        total.orphaned_pages += s.orphaned_pages;
        total.swap_cache_hits += s.swap_cache_hits;
        total.cow_copies += s.cow_copies;
        total.faults_injected += s.faults_injected;
    });
    println!("swap_cache {swap_cache}, injector {inject}: {total:?}");
    // The property is vacuous unless the stealer ran, and met every kind of
    // page it treats differently.
    assert!(total.reclaim_passes > 2000, "{total:?}");
    assert!(total.pressure_unpins > 50, "{total:?}");
    assert!(total.skipped_pg_locked > 50, "{total:?}");
    assert!(total.skipped_vm_locked > 50, "{total:?}");
    assert!(total.cow_copies > 50, "{total:?}");
    assert_eq!(total.orphaned_pages > 0, !swap_cache, "{total:?}");
    assert_eq!(total.swap_cache_hits > 0, swap_cache, "{total:?}");
    assert_eq!(total.faults_injected > 50, inject, "{total:?}");
}

#[test]
fn in_place_walk_matches_the_oracle() {
    run(false, false);
}

#[test]
fn in_place_walk_matches_the_oracle_with_swap_cache() {
    run(true, false);
}

#[test]
fn in_place_walk_matches_the_oracle_under_injection() {
    run(false, true);
}

#[test]
fn in_place_walk_matches_the_oracle_with_swap_cache_under_injection() {
    run(true, true);
}
