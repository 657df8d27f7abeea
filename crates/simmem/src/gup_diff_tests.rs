//! Differential test of the range walk: [`Kernel::walk_user_range`] — one
//! VMA lookup per area, one ordered page-table pass per run of present
//! pages, the fault path only where a page really faults — against the
//! per-page loop it replaced, which survives as `gup::oracle`, on
//! [`check::diff`].
//!
//! Twin 64-frame kernels — one with `reference_walk` set — run the same
//! seeded script: holes mapped and unmapped, protections changed over
//! present pages, read touches (zero pages),
//! forks and writes (COW), stealer passes (swapped pages), foreign page
//! I/O, and registrations and deregistrations through every eager
//! strategy's hold plus `map_user_kiobuf`. After **every** step the frames
//! or error of the step and everything a walk can influence must be
//! identical (see [`Snap`]); the census (`Kernel::check_invariants`) is
//! each side's audit.
//!
//! With the injector on, each kernel draws its vetoes from *its own* copy of
//! one seeded stream, advanced on every consultation whatever the site — so
//! a walk that consults `PAGE_LOCK` for different pages, or in a different
//! order, draws different answers and diverges.

#![cfg(test)]

use std::collections::{BTreeMap, HashMap};

use check::diff::{self, coin, pick, Model, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mm::TASK_UNMAPPED_BASE;
use crate::page::RMap;
use crate::{inject, prot, Capabilities, FrameId, Kernel, KernelConfig, KiobufId, MmError};
use crate::{MmStats, PageFlags, PageHold, Pid, Pte, SlotId, VmArea, Vpn, PAGE_SIZE};

const P: u64 = PAGE_SIZE as u64;
const STEPS: usize = 500;
const SEEDS: u64 = 16;
/// Mapped pages the script allows at once: several times the machine.
const MAX_MAPPED_PAGES: u64 = 240;
/// Live registrations the script allows at once, so pinned pages leave
/// the stealer something to take.
const MAX_REGS: usize = 6;

/// How a registration holds its pages: the eager strategies' holds, and
/// the kiobuf facility itself.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hold {
    /// A page reference (`get_user_pages`).
    Refcount,
    /// A reference and `PG_locked`, set blindly.
    RawFlags,
    /// `do_mlock`, then the frames with no reference (`fault_in_range`).
    Mlock,
    /// A reference and a nesting pin that takes `PG_locked` first — the
    /// proposal's pin table.
    Kiobuf,
    /// `map_user_kiobuf`, then `lock_kiobuf` if it can.
    MapKiobuf,
}

const HOLDS: [Hold; 5] = [
    Hold::Refcount,
    Hold::RawFlags,
    Hold::Mlock,
    Hold::Kiobuf,
    Hold::MapKiobuf,
];

/// One step; `(pid, address, pages)` name a run of pages. A new process,
/// mapping or registration gets the id the script names, so dropping one
/// step of a script moves nothing another step names.
#[derive(Debug, Clone)]
enum Op {
    Spawn(Pid),
    /// `(pid, address, pages, read-only?, populate?)`.
    Mmap(Pid, u64, u64, bool, bool),
    Munmap(Pid, u64, u64),
    /// `(pid, address, pages, prot)`: a read-only or inaccessible area
    /// over present pages, or a writable one over write-protected PTEs.
    Mprotect(Pid, u64, u64, u8),
    /// Touch every page of a run: a read maps the zero page where nothing
    /// is.
    Touch(Pid, u64, u64, bool),
    /// `(parent, child)`.
    Fork(Pid, Pid),
    /// One stealer pass.
    Steal,
    /// Foreign I/O takes the page lock of a resident, unlocked page.
    BeginIo(Pid, u64),
    EndIo(FrameId),
    /// `(id, hold, pid, address, pages)`.
    Register(u32, Hold, Pid, u64, u64),
    Deregister(u32),
    Idle,
}

#[derive(Debug, PartialEq)]
enum Out {
    Pid(Pid),
    Base(u64, String),
    /// The frame foreign I/O locked.
    Took(FrameId),
    Answer(String),
}

fn answer(r: impl std::fmt::Debug) -> Out {
    Out::Answer(format!("{r:?}"))
}

/// Everything a walk can influence: per process its page table (present,
/// writable, accessed and dirty bits included) and VMAs; per frame its
/// count, flags (`PG_locked` included), rmap and swap slot; the free list;
/// the kernel's counters and swap device; the swap cache; the pin counts;
/// and each live registration's frames.
#[derive(Debug, PartialEq)]
#[allow(clippy::type_complexity)] // one tuple per process and per frame, compared whole
struct Snap {
    procs: Vec<(Pid, Vec<(Vpn, Pte)>, Vec<VmArea>)>,
    pages: Vec<(u32, u8, Option<RMap>, Option<SlotId>)>,
    free_list: Vec<FrameId>,
    counters: (MmStats, usize, (usize, usize, u64, u64)),
    swap_cache: HashMap<SlotId, FrameId>,
    pins: BTreeMap<FrameId, u32>,
    regs: Vec<(u32, Vec<FrameId>)>,
}

/// The proposal's pin table, as `vialock::PinTable` keeps it: the first
/// pin of a frame takes `PG_locked` unless foreign I/O holds it (or the
/// injector says it does), later pins nest.
#[derive(Default)]
struct Pins(BTreeMap<FrameId, u32>);

impl PageHold for Pins {
    type Error = MmError;

    fn take(&mut self, k: &mut Kernel, frame: FrameId) -> Result<(), MmError> {
        let n = self.0.get(&frame).copied().unwrap_or(0);
        if n == 0 {
            if k.page_descriptor(frame).flags().contains(PageFlags::LOCKED)
                || k.inject(inject::PAGE_LOCK)
            {
                return Err(MmError::PageBusy(frame));
            }
            k.raw_set_page_flag(frame, PageFlags::LOCKED);
        }
        self.0.insert(frame, n + 1);
        k.raw_get_page(frame);
        Ok(())
    }

    fn give_back(&mut self, k: &mut Kernel, frame: FrameId) {
        let n = self.0.remove(&frame).expect("a pinned frame");
        if n == 1 {
            k.raw_clear_page_flag(frame, PageFlags::LOCKED);
        } else {
            self.0.insert(frame, n - 1);
        }
        k.put_user_page(frame);
    }
}

/// The Giganet-style hold: a reference and `PG_locked`, set blindly.
struct RawLock;

impl PageHold for RawLock {
    type Error = MmError;

    fn take(&mut self, k: &mut Kernel, frame: FrameId) -> Result<(), MmError> {
        k.raw_get_page(frame);
        k.raw_set_page_flag(frame, PageFlags::LOCKED);
        Ok(())
    }

    fn give_back(&mut self, k: &mut Kernel, frame: FrameId) {
        k.raw_clear_page_flag(frame, PageFlags::LOCKED);
        k.put_user_page(frame);
    }
}

/// A live registration: how it holds which frames of which range.
struct Reg {
    hold: Hold,
    pid: Pid,
    addr: u64,
    pages: u64,
    frames: Vec<FrameId>,
    kiobuf: Option<KiobufId>,
}

/// A kernel, its pin table and its live registrations.
struct Walker {
    k: Kernel,
    pins: Pins,
    regs: BTreeMap<u32, Reg>,
    /// Registrations refused with a busy page, for coverage.
    refused: u64,
}

impl Walker {
    fn register(&mut self, hold: Hold, pid: Pid, addr: u64, pages: u64) -> Result<Reg, MmError> {
        let (k, len) = (&mut self.k, (pages * P) as usize);
        let mut kiobuf = None;
        let frames = match hold {
            Hold::Refcount => k.get_user_pages(pid, addr, len)?,
            Hold::RawFlags => k.walk_user_range(pid, addr, len, &mut RawLock)?,
            Hold::Mlock => {
                k.do_mlock(pid, addr, len, true)?;
                k.fault_in_range(pid, addr, len)?
            }
            Hold::Kiobuf => k.walk_user_range(pid, addr, len, &mut self.pins)?,
            Hold::MapKiobuf => {
                let id = k.map_user_kiobuf(pid, addr, len)?;
                // A busy page leaves the kiobuf mapped but unlocked.
                let _ = k.lock_kiobuf(id);
                kiobuf = Some(id);
                k.kiobuf(id)?.frames.clone()
            }
        };
        Ok(Reg {
            hold,
            pid,
            addr,
            pages,
            frames,
            kiobuf,
        })
    }

    fn deregister(&mut self, reg: Reg) -> Result<(), MmError> {
        let k = &mut self.k;
        match reg.hold {
            Hold::Refcount => k.put_user_pages(&reg.frames),
            Hold::RawFlags => reg.frames.iter().for_each(|&f| RawLock.give_back(k, f)),
            Hold::Mlock => k.do_mlock(reg.pid, reg.addr, (reg.pages * P) as usize, false)?,
            Hold::Kiobuf => (reg.frames.iter()).for_each(|&f| self.pins.give_back(k, f)),
            Hold::MapKiobuf => {
                let id = reg.kiobuf.expect("a mapped kiobuf");
                if k.kiobuf(id)?.locked {
                    k.unlock_kiobuf(id)?;
                }
                k.unmap_kiobuf(id)?;
            }
        }
        Ok(())
    }
}

impl Side<Op, Out, Snap> for Walker {
    fn apply(&mut self, op: &Op) -> Out {
        let k = &mut self.k;
        match *op {
            Op::Spawn(pid) => {
                k.next_pid = pid.0;
                Out::Pid(k.spawn_process(Capabilities::default()))
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
            Op::Munmap(pid, addr, pages) => answer(k.munmap(pid, addr, (pages * P) as usize)),
            Op::Mprotect(pid, addr, pages, p) => {
                answer(k.mprotect(pid, addr, (pages * P) as usize, p))
            }
            Op::Touch(pid, addr, pages, write) => {
                answer(k.touch_pages(pid, addr, (pages * P) as usize, write))
            }
            Op::Fork(parent, child) => {
                k.next_pid = child.0;
                k.fork(parent).map_or_else(answer, Out::Pid)
            }
            Op::Steal => answer(k.try_to_free_pages()),
            Op::BeginIo(pid, addr) => match k.frame_of(pid, addr) {
                Ok(Some(f))
                    if !k.page_descriptor(f).flags().contains(PageFlags::LOCKED)
                        && !k.page_descriptor(f).flags().contains(PageFlags::RESERVED) =>
                {
                    k.begin_page_io(f);
                    Out::Took(f)
                }
                r => answer(r),
            },
            Op::EndIo(f) => answer(k.end_page_io(f)),
            Op::Register(id, hold, pid, addr, pages) => {
                let r = self.register(hold, pid, addr, pages);
                let out = answer(r.as_ref().map(|reg| &reg.frames));
                match r {
                    Ok(reg) => drop(self.regs.insert(id, reg)),
                    Err(MmError::PageBusy(_)) => self.refused += 1,
                    Err(_) => {}
                }
                out
            }
            Op::Deregister(id) => match self.regs.remove(&id) {
                Some(reg) => answer(self.deregister(reg)),
                None => answer("no such registration"),
            },
            Op::Idle => answer(()),
        }
    }

    fn snapshot(&mut self) -> Result<Snap, String> {
        let k = &self.k;
        k.check_invariants()?;
        Ok(Snap {
            procs: (k.procs.iter())
                .map(|(&pid, p)| {
                    let ptes = p.mm.ptes_in(0, u64::MAX).map(|(v, p)| (v, *p)).collect();
                    (pid, ptes, p.mm.vmas.iter().cloned().collect())
                })
                .collect(),
            pages: (k.pagemap.iter())
                .map(|(_, d)| (d.count(), d.flags().bits(), d.rmap, d.swap_slot))
                .collect(),
            free_list: k.free_list.clone(),
            counters: (k.mm_stats(), k.swap_rotor, k.swap_stats()),
            swap_cache: k.swap_cache.clone(),
            pins: self.pins.0.clone(),
            regs: (self.regs.iter())
                .map(|(&id, r)| (id, r.frames.clone()))
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
    type Left = Walker;
    type Right = Walker;

    /// `(run walk, per-page reference)`.
    fn build(&self) -> (Walker, Walker) {
        let walker = |reference| {
            let mut k = Kernel::new(KernelConfig {
                nframes: 64,
                reserved_frames: 4,
                swap_slots: 1024,
                default_rlimit_memlock: None,
                swap_cache: self.swap_cache,
            });
            k.reference_walk = reference;
            if self.inject {
                let mut stream = StdRng::seed_from_u64(self.seed ^ 0x9a9e);
                k.set_injector(Some(Box::new(move |site| {
                    let draw = stream.random_range(0u32..64);
                    match site {
                        inject::PAGE_LOCK => draw < 6,
                        inject::SWAP_FULL => draw < 4,
                        inject::SWAP_IO => draw < 4,
                        inject::FRAME_ALLOC => draw < 2,
                        _ => false,
                    }
                })));
            }
            Walker {
                k,
                pins: Pins::default(),
                regs: BTreeMap::new(),
                refused: 0,
            }
        };
        (walker(false), walker(true))
    }
}

/// What the script believes exists; it only aims operations. Mappings are
/// `(pid, base, pages)`; every new process, mapping and registration gets
/// an id no other step of the script uses.
#[derive(Default)]
struct Picture {
    pids: Vec<Pid>,
    maps: Vec<(Pid, u64, u64)>,
    regs: Vec<u32>,
    ios: Vec<FrameId>,
    made: u32,
}

impl Picture {
    fn next(&mut self) -> u32 {
        self.made += 1;
        self.made
    }

    /// A run of pages inside one mapping: `(pid, address, pages)`.
    fn run(&self, rng: &mut StdRng) -> Option<(Pid, u64, u64)> {
        let (pid, base, pages) = pick(rng, &self.maps)?;
        let first = rng.random_range(0..pages);
        Some((
            pid,
            base + first * P,
            rng.random_range(1..pages - first + 1),
        ))
    }
}

impl Model<Twins> for Picture {
    fn draw(&mut self, rng: &mut StdRng, _: usize) -> Op {
        let n = self.pids.len();
        let mapped: u64 = self.maps.iter().map(|m| m.2).sum();
        let op = match rng.random_range(0u32..100) {
            0..=3 if n < 4 => Some(Op::Spawn(Pid(self.next()))),
            4..=13 if n > 0 && mapped < MAX_MAPPED_PAGES => {
                let pid = self.pids[rng.random_range(0..n)];
                let at = TASK_UNMAPPED_BASE + self.next() as u64 * 32 * P;
                let readonly = rng.random_range(0u32..6) == 0;
                Some(Op::Mmap(
                    pid,
                    at,
                    rng.random_range(2u64..17),
                    readonly,
                    coin(rng),
                ))
            }
            // Touches: writes allocate, so they are what runs the stealer;
            // reads map the zero page.
            14..=31 => (self.run(rng)).map(|(pid, addr, pages)| {
                Op::Touch(pid, addr, pages, rng.random_range(0u32..4) != 0)
            }),
            32..=34 if n > 0 && n < 5 => Some(Op::Fork(
                self.pids[rng.random_range(0..n)],
                Pid(self.next()),
            )),
            35..=36 => Some(Op::Steal),
            37..=38 => self.run(rng).map(|(pid, addr, pages)| {
                let p = [0, prot::READ, prot::READ | prot::WRITE][rng.random_range(0..3usize)];
                Op::Mprotect(pid, addr, pages, p)
            }),
            39..=44 => self.run(rng).map(|(pid, addr, _)| Op::BeginIo(pid, addr)),
            45..=48 => pick(rng, &self.ios).map(Op::EndIo),
            // A hole punched into a mapping, or its end cut off.
            49..=53 => self.run(rng).map(|(pid, addr, pages)| {
                Op::Munmap(pid, addr, pages.min(rng.random_range(1u64..4)))
            }),
            // Registrations, some running past their mapping's end — into
            // a hole, or a neighbour with other protections.
            54..=82 if self.regs.len() < MAX_REGS => self.run(rng).map(|(pid, addr, pages)| {
                let hold = HOLDS[rng.random_range(0..HOLDS.len())];
                let over = rng.random_range(0u64..8).saturating_sub(5);
                Op::Register(self.next(), hold, pid, addr, pages + over)
            }),
            83..=95 => pick(rng, &self.regs).map(Op::Deregister),
            _ => None,
        };
        op.unwrap_or(Op::Idle)
    }

    fn observe(&mut self, op: &Op, out: &Out) {
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
            (&Op::Munmap(pid, addr, pages), _) => {
                let end = addr + pages * P;
                let mut left = Vec::new();
                for &(p, base, n) in &self.maps {
                    let top = base + n * P;
                    if p != pid || end <= base || top <= addr {
                        left.push((p, base, n));
                        continue;
                    }
                    if base < addr {
                        left.push((p, base, (addr - base) / P));
                    }
                    if end < top {
                        left.push((p, end, (top - end) / P));
                    }
                }
                self.maps = left;
            }
            (Op::BeginIo(..), &Out::Took(f)) => self.ios.push(f),
            (&Op::EndIo(f), _) => self.ios.retain(|&x| x != f),
            (&Op::Register(id, ..), Out::Answer(a)) if a.starts_with("Ok") => self.regs.push(id),
            (&Op::Deregister(id), _) => self.regs.retain(|&r| r != id),
            _ => {}
        }
    }

    fn teardown(&mut self) -> Vec<Op> {
        let regs = self.regs.iter().map(|&id| Op::Deregister(id));
        regs.chain(self.ios.iter().map(|&f| Op::EndIo(f))).collect()
    }
}

fn run(swap_cache: bool, inject: bool) {
    let (mut total, mut refused, mut regs) = (MmStats::default(), 0, 0);
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
    diff::run(0..SEEDS, STEPS, setup, |_, walk, _, picture| {
        let s = walk.k.mm_stats();
        total.reclaim_passes += s.reclaim_passes;
        total.swap_ins += s.swap_ins;
        total.cow_copies += s.cow_copies;
        total.orphaned_pages += s.orphaned_pages;
        total.faults_injected += s.faults_injected;
        refused += walk.refused;
        regs += picture.made;
    });
    println!(
        "swap_cache {swap_cache}, injector {inject}: {refused} refused of {regs} ids, {total:?}"
    );
    // The property is vacuous unless the walks met every kind of page they
    // treat differently, under pressure, and were refused part-way.
    assert!(total.reclaim_passes > 500, "{total:?}");
    assert!(total.swap_ins > 200, "{total:?}");
    assert!(total.cow_copies > 100, "{total:?}");
    assert!(refused > 20, "{refused} refused");
    assert_eq!(total.faults_injected > 50, inject, "{total:?}");
}

#[test]
fn run_walk_matches_the_per_page_loop() {
    run(false, false);
}

#[test]
fn run_walk_matches_the_per_page_loop_with_swap_cache() {
    run(true, false);
}

#[test]
fn run_walk_matches_the_per_page_loop_under_injection() {
    run(false, true);
}
