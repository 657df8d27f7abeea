//! **E1 — the locktest experiment**, exactly the eight steps of the paper's
//! section 3.1, parameterised by pinning strategy, with the NIC's TPT in
//! the loop (the "kernel agent write" of step 5 is a DMA through the
//! translation the NIC captured at registration time).

use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};
use via::nic::Node;
use via::tpt::ProtectionTag;
use via::{Fabric, NodeId};
use vialock::StrategyKind;

use crate::pressure::apply_pressure;

/// Magic value the simulated NIC DMA-writes in step 5.
pub const DMA_MAGIC: u8 = 0xD7;

/// Outcome of one locktest run.
#[derive(Debug, Clone)]
pub struct LocktestOutcome {
    pub strategy: &'static str,
    /// Pages whose physical address changed between steps 2 and 6.
    pub pages_moved: usize,
    /// Total registered pages.
    pub pages_total: usize,
    /// Step 8: is the NIC's DMA write visible to the process?
    pub dma_visible: bool,
    /// Frames orphaned by the stealer during the run.
    pub orphaned_frames: usize,
    /// Pages the stealer skipped because of `VM_LOCKED`.
    pub skipped_vm_locked: u64,
    /// Pages the stealer skipped because of `PG_locked`/`PG_reserved`.
    pub skipped_pg_locked: u64,
    /// Did the stealer swap anything at all (sanity: pressure worked)?
    pub swap_outs: u64,
    /// Refaults served by the swap cache (nonzero only under 2.4 semantics).
    pub swap_cache_hits: u64,
    /// Verdict: registration stayed consistent with the page tables.
    pub reliable: bool,
}

/// Run the eight-step locktest with `npages` registered pages on a machine
/// sized so the antagonist can force eviction, under 2.2 eviction semantics
/// (the paper's target kernel).
pub fn run_locktest(strategy: StrategyKind, npages: usize) -> LocktestOutcome {
    run_locktest_with(strategy, npages, false)
}

/// The locktest with selectable kernel semantics: `swap_cache = true`
/// models Linux 2.4, where the swap cache re-unifies an evicted,
/// still-referenced page — the ablation explaining why refcount-only VIA
/// drivers *appeared* to work on later kernels while still paying writeback
/// and refault costs (and still being specified-behaviour-free).
pub fn run_locktest_with(
    strategy: StrategyKind,
    npages: usize,
    swap_cache: bool,
) -> LocktestOutcome {
    // A machine where `npages` is a small fraction of RAM and swap is
    // ample — mirroring the paper's setup (they registered a block and let
    // the allocator take everything else).
    let kcfg = KernelConfig {
        nframes: (npages as u32 * 8).max(128),
        reserved_frames: 8,
        swap_slots: npages as u32 * 64,
        default_rlimit_memlock: None,
        swap_cache,
    };
    let mut node = Node::new(kcfg, strategy, npages * 4);
    locktest_steps(&mut node, npages)
}

/// Run the eight locktest steps against one node of a live fabric: the
/// steps ship to the node via [`Fabric::with_node`], so on a threaded
/// cluster they execute on the node's service thread while the rest of the
/// cluster keeps running. The node's own pinning strategy (whatever the
/// fabric was built with) is the one under test.
pub fn run_locktest_on<F: Fabric>(fab: &mut F, node: NodeId, npages: usize) -> LocktestOutcome {
    fab.with_node(node, move |n| locktest_steps(n, npages))
}

/// The eight steps of section 3.1 against an existing node. Pressure is
/// sized off the node's own RAM (twice the frame count), as in the paper's
/// setup where the antagonist takes everything the allocator will give.
pub fn locktest_steps(node: &mut Node, npages: usize) -> LocktestOutcome {
    let strategy = node.registry.strategy();
    let tag = ProtectionTag(1);

    // Step 1: allocate memory and fill it with data (distinct frames per
    // page thanks to the write faults).
    let pid = node.kernel.spawn_process(Capabilities::default());
    let len = npages * PAGE_SIZE;
    let buf = node
        .kernel
        .mmap_anon(pid, len, prot::READ | prot::WRITE)
        .expect("locktest mmap");
    for i in 0..npages {
        let a = buf + (i * PAGE_SIZE) as u64;
        node.kernel
            .write_user(pid, a, &[i as u8; 32])
            .expect("fill page");
    }

    // Step 2: register — pin with the strategy under test and capture the
    // physical addresses into the NIC's TPT. On-demand registration
    // obtains no addresses at all; its equivalent is the first NIC access
    // of each page (the protection trap that takes the lazy pin), so
    // fault the span resident the way the NIC would and run the same
    // stale-address protocol against those frames.
    let mem = node.register_mem(pid, buf, len, tag).expect("registration");
    let reg_handle = node.nic.tpt.region(mem).expect("region").reg_handle;
    let frames_at_reg: Vec<_> = if strategy.pins_eagerly() {
        node.registry.frames(reg_handle).expect("frames").to_vec()
    } else {
        (0..npages)
            .map(|i| {
                node.registry
                    .pin_on_access(&mut node.kernel, reg_handle, i)
                    .expect("lazy pin")
            })
            .collect()
    };

    // Step 3: the allocator antagonist grabs as much memory as possible.
    let swap_outs_before = node.kernel.mm_stats().swap_outs;
    let pressure_pages = (node.kernel.config.nframes as usize) * 2;
    let _rep = apply_pressure(&mut node.kernel, pressure_pages);

    // Step 4: the locktest process writes to each page of the block again.
    for i in 0..npages {
        let a = buf + (i * PAGE_SIZE) as u64;
        node.kernel
            .write_user(pid, a, &[(i as u8).wrapping_add(1); 16])
            .expect("rewrite page");
    }

    // Step 5: the kernel agent (NIC) writes a value to the first page
    // using the physical address obtained during registration — a DMA.
    node.kernel
        .dma_write(frames_at_reg[0], 100, &[DMA_MAGIC])
        .expect("DMA write");

    // Step 6: derive the physical addresses from the page tables again and
    // compare with those acquired during registration.
    let frames_now = node
        .kernel
        .frames_of_range(pid, buf, len)
        .expect("walk page tables");
    let pages_moved = frames_at_reg
        .iter()
        .zip(frames_now.iter())
        .filter(|(reg, cur)| Some(**reg) != **cur)
        .count();

    // Step 8 (before deregistration frees the pins): read the first page —
    // did the DMA write reach the process?
    let mut first = [0u8; 1];
    node.kernel
        .read_user(pid, buf + 100, &mut first)
        .expect("read first page");
    let dma_visible = first[0] == DMA_MAGIC;

    // Step 4 continued for 2.4 semantics: the rewrite loop above refaults
    // evicted pages through the swap cache, re-unifying the frames; the
    // counters below tell whether that happened.
    let orphaned = node.kernel.count_orphaned_frames();
    let stats = node.kernel.mm_stats();

    // Step 7: deregister.
    node.deregister_mem(mem).expect("deregistration");

    LocktestOutcome {
        strategy: strategy.label(),
        pages_moved,
        pages_total: npages,
        dma_visible,
        orphaned_frames: orphaned,
        skipped_vm_locked: stats.skipped_vm_locked,
        skipped_pg_locked: stats.skipped_pg_locked,
        swap_outs: stats.swap_outs - swap_outs_before,
        swap_cache_hits: stats.swap_cache_hits,
        reliable: pages_moved == 0 && dma_visible,
    }
}

/// Run the full E1 matrix: all four strategies.
pub fn run_locktest_matrix(npages: usize) -> Vec<LocktestOutcome> {
    StrategyKind::ALL
        .into_iter()
        .map(|s| run_locktest(s, npages))
        .collect()
}

/// **E1b** — damage as a function of pressure: run the locktest with the
/// antagonist capped at a fraction of RAM and report how many registered
/// pages were lost. The shape: below ~free-RAM pressure nothing moves; as
/// the antagonist grows past available memory the refcount-pinned pages
/// are progressively evicted until all are orphaned.
pub fn run_pressure_sweep(
    strategy: StrategyKind,
    npages: usize,
    fractions: &[f64],
) -> Vec<(f64, LocktestOutcome)> {
    fractions
        .iter()
        .map(|&frac| {
            let kcfg = KernelConfig {
                nframes: (npages as u32 * 8).max(128),
                reserved_frames: 8,
                swap_slots: npages as u32 * 64,
                default_rlimit_memlock: None,
                swap_cache: false,
            };
            (frac, run_locktest_pressured(strategy, npages, kcfg, frac))
        })
        .collect()
}

fn run_locktest_pressured(
    strategy: StrategyKind,
    npages: usize,
    kcfg: KernelConfig,
    pressure_frac: f64,
) -> LocktestOutcome {
    let mut node = Node::new(kcfg, strategy, npages * 4);
    let tag = ProtectionTag(1);
    let pid = node.kernel.spawn_process(Capabilities::default());
    let len = npages * PAGE_SIZE;
    let buf = node
        .kernel
        .mmap_anon(pid, len, prot::READ | prot::WRITE)
        .expect("mmap");
    for i in 0..npages {
        node.kernel
            .write_user(pid, buf + (i * PAGE_SIZE) as u64, &[i as u8; 32])
            .expect("fill");
    }
    let mem = node.register_mem(pid, buf, len, tag).expect("register");
    let reg_handle = node.nic.tpt.region(mem).expect("region").reg_handle;
    let frames_at_reg: Vec<_> = node.registry.frames(reg_handle).expect("frames").to_vec();

    let swap_outs_before = node.kernel.mm_stats().swap_outs;
    let pressure_pages = ((kcfg.nframes as f64) * pressure_frac) as usize;
    if pressure_pages > 0 {
        apply_pressure(&mut node.kernel, pressure_pages);
    }

    let frames_now = node.kernel.frames_of_range(pid, buf, len).expect("walk");
    let pages_moved = frames_at_reg
        .iter()
        .zip(frames_now.iter())
        .filter(|(reg, cur)| Some(**reg) != **cur)
        .count();
    let stats = node.kernel.mm_stats();
    let orphaned = node.kernel.count_orphaned_frames();
    node.deregister_mem(mem).expect("deregister");
    LocktestOutcome {
        strategy: strategy.label(),
        pages_moved,
        pages_total: npages,
        dma_visible: pages_moved == 0,
        orphaned_frames: orphaned,
        skipped_vm_locked: stats.skipped_vm_locked,
        skipped_pg_locked: stats.skipped_pg_locked,
        swap_outs: stats.swap_outs - swap_outs_before,
        swap_cache_hits: stats.swap_cache_hits,
        reliable: pages_moved == 0,
    }
}

/// The kernel-semantics ablation: refcount-only pinning under 2.2 vs 2.4.
pub fn run_semantics_ablation(npages: usize) -> Vec<(&'static str, LocktestOutcome)> {
    vec![
        (
            "2.2 (no swap cache)",
            run_locktest_with(StrategyKind::RefcountOnly, npages, false),
        ),
        (
            "2.4 (swap cache)",
            run_locktest_with(StrategyKind::RefcountOnly, npages, true),
        ),
        (
            "2.4 + kiobuf",
            run_locktest_with(StrategyKind::KiobufReliable, npages, true),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_only_fails_exactly_as_the_paper_observed() {
        let o = run_locktest(StrategyKind::RefcountOnly, 16);
        assert!(o.swap_outs > 0, "pressure must actually swap");
        assert!(o.pages_moved > 0, "physical addresses changed");
        assert!(
            !o.dma_visible,
            "the first page still contains its original value"
        );
        assert!(o.orphaned_frames > 0, "orphaned frames remain");
        assert!(!o.reliable);
    }

    #[test]
    fn mlock_is_reliable() {
        let o = run_locktest(StrategyKind::VmaMlock, 16);
        assert_eq!(o.pages_moved, 0);
        assert!(o.dma_visible);
        assert!(o.skipped_vm_locked > 0, "stealer bounced off VM_LOCKED");
        assert!(o.reliable);
    }

    #[test]
    fn raw_flags_keeps_pages_but_is_risky() {
        let o = run_locktest(StrategyKind::RawFlags, 16);
        assert!(o.reliable, "PG_locked does keep pages resident");
        assert!(o.skipped_pg_locked > 0);
    }

    #[test]
    fn kiobuf_proposal_is_reliable() {
        let o = run_locktest(StrategyKind::KiobufReliable, 16);
        assert_eq!(o.pages_moved, 0);
        assert!(o.dma_visible);
        assert!(
            o.skipped_pg_locked > 0,
            "stealer bounced off the page locks"
        );
        assert!(o.reliable);
    }

    #[test]
    fn pressure_sweep_shows_a_cliff() {
        let sweep = run_pressure_sweep(StrategyKind::RefcountOnly, 32, &[0.0, 0.3, 2.0]);
        let moved: Vec<usize> = sweep.iter().map(|(_, o)| o.pages_moved).collect();
        assert_eq!(moved[0], 0, "no pressure, no damage");
        assert_eq!(moved[2], 32, "overcommit destroys every page");
        assert!(moved[1] <= moved[2], "damage is monotone in pressure");
        // Kiobuf stays flat across the whole sweep.
        let sweep = run_pressure_sweep(StrategyKind::KiobufReliable, 32, &[0.0, 0.3, 2.0]);
        assert!(sweep.iter().all(|(_, o)| o.pages_moved == 0));
    }

    #[test]
    fn swap_cache_rescues_refcount_pinning_at_a_cost() {
        let rows = run_semantics_ablation(16);
        let (_, on_22) = &rows[0];
        let (_, on_24) = &rows[1];
        let (_, kiobuf_24) = &rows[2];
        assert!(!on_22.reliable, "2.2: refcount fails");
        assert!(on_24.reliable, "2.4: the swap cache reunifies the frames");
        assert!(
            on_24.swap_cache_hits > 0,
            "…but only by taking eviction + refault round-trips"
        );
        assert!(kiobuf_24.reliable);
        assert_eq!(
            kiobuf_24.swap_cache_hits, 0,
            "the proposed mechanism never lets the pages be evicted at all"
        );
    }

    #[test]
    fn matrix_verdicts() {
        let m = run_locktest_matrix(8);
        assert_eq!(m.len(), 5);
        let verdict: Vec<(&str, bool)> = m.iter().map(|o| (o.strategy, o.reliable)).collect();
        // On-demand fails the *stale-address* protocol by design (its
        // reliability lives in the NIC fault-and-repin loop) — but
        // cleanly, leaving no orphaned frames.
        assert_eq!(
            verdict,
            vec![
                ("refcount-only", false),
                ("raw-flags", true),
                ("vma-mlock", true),
                ("kiobuf", true),
                ("on-demand", false),
            ]
        );
        assert_eq!(m[4].orphaned_frames, 0, "on-demand fails without orphans");
    }
}
