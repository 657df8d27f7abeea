//! Differential test of the page stealer: the in-place walk of
//! [`crate::reclaim`] against the collect-then-scan routine it replaced,
//! which survives as the `oracle` module there.
//!
//! Twin 64-frame kernels — one with `oracle_stealer` set — are driven through
//! the same seeded sequence of operations, and after **every** step
//! everything the stealer can influence must be identical: page tables and
//! VMAs, every page descriptor, the free list (order included), `MmStats`,
//! the rotor, the lazy-pin ledger and the invalidation queue, the swap
//! cache. The census (`Kernel::check_invariants`) runs on both at every
//! step, which is also what exercises the present index under every kind of
//! PTE edit. Physical memory and the swap slots are compared every few
//! steps.
//!
//! With the injector on, each kernel draws its vetoes from *its own* copy of
//! one seeded stream, advanced on every consultation whatever the site — so
//! a walk that consults the injector at different sites, or in a different
//! order, draws different answers and diverges.

#![cfg(test)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{inject, prot, Capabilities, Kernel, KernelConfig, PageFlags, Pid, Pte, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;
const STEPS: usize = 600;
const SEEDS: u64 = 16;
/// Mapped pages the harness allows at once: several times the machine,
/// comfortably inside the swap device.
const MAX_MAPPED_PAGES: u64 = 400;

struct Twins {
    /// `[in-place walk, oracle]`.
    k: [Kernel; 2],
    /// What the harness believes is mapped: `(pid, base, pages)`. Only used
    /// to aim operations; a stale entry just makes an operation fail the
    /// same way on both sides.
    maps: Vec<(Pid, u64, u64)>,
    /// Raw references and raw `PG_locked` bits taken, to be dropped later.
    raw_refs: Vec<crate::FrameId>,
    raw_locks: Vec<crate::FrameId>,
    rng: StdRng,
    /// Configuration, seed and step, for the assertion messages.
    at: String,
}

impl Twins {
    fn new(seed: u64, swap_cache: bool, inject: bool) -> Self {
        let k = [false, true].map(|oracle| {
            let mut k = Kernel::new(KernelConfig {
                nframes: 64,
                reserved_frames: 4,
                swap_slots: 1024,
                default_rlimit_memlock: None,
                swap_cache,
            });
            k.oracle_stealer = oracle;
            if inject {
                let mut stream = StdRng::seed_from_u64(seed ^ 0x5eed);
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
            k
        });
        Twins {
            k,
            maps: Vec::new(),
            raw_refs: Vec::new(),
            raw_locks: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            at: String::new(),
        }
    }

    /// Run `op` on both kernels; the outcomes must agree.
    fn both<T: PartialEq + std::fmt::Debug>(&mut self, mut op: impl FnMut(&mut Kernel) -> T) -> T {
        let a = op(&mut self.k[0]);
        let b = op(&mut self.k[1]);
        assert_eq!(a, b, "{}: the operation answered differently", self.at);
        a
    }

    /// [`Twins::both`] for an operation whose outcome — failures included,
    /// they are part of the property — only has to agree.
    fn agree<T: PartialEq + std::fmt::Debug>(&mut self, op: impl FnMut(&mut Kernel) -> T) {
        let _ = self.both(op);
    }

    /// A random mapping the harness knows of: `(pid, base, pages)`.
    fn pick_map(&mut self) -> Option<(Pid, u64, u64)> {
        if self.maps.is_empty() {
            return None;
        }
        Some(self.maps[self.rng.random_range(0..self.maps.len())])
    }

    /// A random run of pages inside one mapping: `(pid, address, pages)`.
    fn pick_run(&mut self) -> Option<(Pid, u64, u64)> {
        let (pid, base, pages) = self.pick_map()?;
        let first = self.rng.random_range(0..pages) / 2;
        let n = self.rng.random_range(1..pages - first + 1);
        Some((pid, base + first * P, n))
    }

    /// A random mapped page: `(pid, address)`.
    fn pick_page(&mut self) -> Option<(Pid, u64)> {
        let (pid, base, pages) = self.pick_map()?;
        Some((pid, base + self.rng.random_range(0..pages) * P))
    }

    fn mapped_pages(&self) -> u64 {
        self.maps.iter().map(|m| m.2).sum()
    }

    fn step(&mut self) -> &'static str {
        let pids = self.k[0].pids();
        match self.rng.random_range(0u32..100) {
            // Processes come and go; some may mlock.
            0..=3 if pids.len() < 6 => {
                let caps = if self.rng.random_range(0u32..2) == 0 {
                    Capabilities::root()
                } else {
                    Capabilities::default()
                };
                self.agree(|k| k.spawn_process(caps));
                "spawn"
            }
            4..=15 if !pids.is_empty() && self.mapped_pages() < MAX_MAPPED_PAGES => {
                let pid = pids[self.rng.random_range(0..pids.len())];
                let pages = self.rng.random_range(1u64..13);
                let readonly = self.rng.random_range(0u32..8) == 0;
                let p = if readonly {
                    prot::READ
                } else {
                    prot::READ | prot::WRITE
                };
                if let Ok(base) = self.both(|k| k.mmap_anon(pid, (pages * P) as usize, p)) {
                    self.maps.push((pid, base, pages));
                }
                "mmap"
            }
            16..=55 => {
                // The bulk of the traffic: touches of a run of pages, mostly
                // writes — they allocate, so they are what runs the stealer.
                let Some((pid, addr, n)) = self.pick_run() else {
                    return "idle";
                };
                if self.rng.random_range(0u32..4) == 0 {
                    self.agree(|k| {
                        let mut out = [0u8; 8];
                        (0..n)
                            .map(|i| k.read_user(pid, addr + i * P + 16, &mut out).map(|()| out))
                            .collect::<Vec<_>>()
                    });
                    "read"
                } else {
                    let fill = self.rng.random_range(0u32..256) as u8;
                    self.agree(|k| {
                        (0..n)
                            .map(|i| k.write_user(pid, addr + i * P + 16, &[fill; 8]))
                            .collect::<Vec<_>>()
                    });
                    "write"
                }
            }
            56..=60 if !pids.is_empty() && pids.len() < 6 => {
                let parent = pids[self.rng.random_range(0..pids.len())];
                if let Ok(child) = self.both(|k| k.fork(parent)) {
                    let inherited: Vec<_> = self
                        .maps
                        .iter()
                        .filter(|m| m.0 == parent)
                        .map(|&(_, base, pages)| (child, base, pages))
                        .collect();
                    self.maps.extend(inherited);
                }
                "fork"
            }
            61..=72 => {
                let Some((pid, addr)) = self.pick_page() else {
                    return "idle";
                };
                self.agree(|k| k.lazy_pin_page(pid, addr));
                "lazy_pin_page"
            }
            73..=76 => {
                // A refcount-only "pin" (Berkeley-VIA style) on a resident page.
                let Some((pid, addr)) = self.pick_page() else {
                    return "idle";
                };
                if let Ok(Some(frame)) = self.both(|k| k.frame_of(pid, addr)) {
                    if frame != self.k[0].zero_frame() {
                        self.agree(|k| k.raw_get_page(frame));
                        self.raw_refs.push(frame);
                    }
                }
                "raw_get_page"
            }
            77..=79 if !self.raw_refs.is_empty() => {
                let frame = self
                    .raw_refs
                    .swap_remove(self.rng.random_range(0..self.raw_refs.len()));
                self.agree(|k| k.raw_put_page(frame));
                "raw_put_page"
            }
            80..=83 => {
                // A raw PG_locked (Giganet style) on a resident, unlocked page.
                let Some((pid, addr)) = self.pick_page() else {
                    return "idle";
                };
                if let Ok(Some(frame)) = self.both(|k| k.frame_of(pid, addr)) {
                    let flags = self.k[0].page_descriptor(frame).flags();
                    if !flags.contains(PageFlags::LOCKED) && !flags.contains(PageFlags::RESERVED) {
                        self.agree(|k| k.raw_set_page_flag(frame, PageFlags::LOCKED));
                        self.raw_locks.push(frame);
                    }
                }
                "raw PG_locked"
            }
            84..=86 if !self.raw_locks.is_empty() => {
                let frame = self
                    .raw_locks
                    .swap_remove(self.rng.random_range(0..self.raw_locks.len()));
                // The frame may have been freed and handed out again in
                // between (munmap, exit): only clear a bit that is not a
                // lazy pin's.
                if self.k[0].lazy_pin_count(frame) == 0 {
                    self.agree(|k| k.raw_clear_page_flag(frame, PageFlags::LOCKED));
                }
                "raw PG_locked clear"
            }
            87..=90 => {
                let Some((pid, addr, n)) = self.pick_run() else {
                    return "idle";
                };
                let lock = self.rng.random_range(0u32..3) != 0;
                self.agree(|k| {
                    if lock {
                        k.sys_mlock(pid, addr, (n * P) as usize)
                    } else {
                        k.sys_munlock(pid, addr, (n * P) as usize)
                    }
                });
                "mlock"
            }
            91..=94 if !self.maps.is_empty() => {
                // Unmap a whole mapping, or its front.
                let i = self.rng.random_range(0..self.maps.len());
                let (pid, base, pages) = self.maps[i];
                let n = if self.rng.random_range(0u32..2) == 0 {
                    pages
                } else {
                    self.rng.random_range(1..pages + 1)
                };
                self.agree(|k| k.munmap(pid, base, (n * P) as usize));
                if n == pages {
                    self.maps.swap_remove(i);
                } else {
                    self.maps[i] = (pid, base + n * P, pages - n);
                }
                "munmap"
            }
            95 if pids.len() > 2 => {
                let pid = pids[self.rng.random_range(0..pids.len())];
                self.agree(|k| k.exit_process(pid));
                self.maps.retain(|m| m.0 != pid);
                "exit"
            }
            96..=97 => {
                // The device layer drains the queue now and then.
                self.agree(|k| k.take_lazy_invalidations());
                "drain"
            }
            _ => "idle",
        }
    }

    /// Everything the stealer can influence, on both sides.
    fn assert_same(&self, deep: bool, what: &str) {
        let [a, b] = &self.k;
        let at = format!("{} ({what})", self.at);
        assert_eq!(a.pids(), b.pids(), "{at}: pids");
        for pid in a.pids() {
            let (pa, pb) = (&a.procs[&pid], &b.procs[&pid]);
            let table = |p: &crate::kernel::Process| -> Vec<(u64, Pte)> {
                p.mm.ptes_in(0, u64::MAX).map(|(v, p)| (v, *p)).collect()
            };
            assert_eq!(table(pa), table(pb), "{at}: page table of {pid:?}");
            assert!(pa.mm.vmas.iter().eq(pb.mm.vmas.iter()), "{at}: VMAs");
            assert_eq!(pa.mm.rss(), pb.mm.rss(), "{at}: rss of {pid:?}");
        }
        let descriptors = |k: &Kernel| -> Vec<_> {
            k.pagemap
                .iter()
                .map(|(_, d)| (d.count(), d.flags().bits(), d.rmap, d.swap_slot))
                .collect()
        };
        assert_eq!(descriptors(a), descriptors(b), "{at}: page descriptors");
        assert_eq!(a.free_list, b.free_list, "{at}: free list");
        assert_eq!(a.mm_stats(), b.mm_stats(), "{at}: MmStats");
        assert_eq!(a.swap_rotor, b.swap_rotor, "{at}: rotor");
        assert_eq!(a.lazy_pins, b.lazy_pins, "{at}: lazy-pin ledger");
        assert_eq!(
            a.lazy_invalidations, b.lazy_invalidations,
            "{at}: invalidation queue"
        );
        assert_eq!(a.repin_pending, b.repin_pending, "{at}: repin_pending");
        assert_eq!(a.swap_cache, b.swap_cache, "{at}: swap cache");
        assert_eq!(a.swap_stats(), b.swap_stats(), "{at}: swap device");
        for k in &self.k {
            k.check_invariants().unwrap_or_else(|e| panic!("{at}: {e}"));
        }
        if deep {
            for f in 0..a.config.nframes {
                let f = crate::FrameId(f);
                assert!(a.phys.frame(f) == b.phys.frame(f), "{at}: frame {f:?}");
            }
            for s in 0..a.swap.capacity() as u32 {
                let s = crate::SlotId(s);
                assert!(a.swap.peek(s) == b.swap.peek(s), "{at}: swap {s:?}");
            }
        }
    }
}

fn run(swap_cache: bool, inject: bool) {
    let mut total = crate::MmStats::default();
    for seed in 0..SEEDS {
        let mut t = Twins::new(seed, swap_cache, inject);
        for step in 0..STEPS {
            t.at = format!("swap_cache {swap_cache}, injector {inject}, seed {seed}, step {step}");
            let what = t.step();
            t.assert_same(step % 16 == 15 || step + 1 == STEPS, what);
        }
        let s = t.k[0].mm_stats();
        total.reclaim_passes += s.reclaim_passes;
        total.swap_outs += s.swap_outs;
        total.pressure_unpins += s.pressure_unpins;
        total.skipped_pg_locked += s.skipped_pg_locked;
        total.skipped_vm_locked += s.skipped_vm_locked;
        total.orphaned_pages += s.orphaned_pages;
        total.swap_cache_hits += s.swap_cache_hits;
        total.cow_copies += s.cow_copies;
        total.faults_injected += s.faults_injected;
    }
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
