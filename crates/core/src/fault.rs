//! Deterministic fault injection: the seeded [`FaultPlan`] and the site
//! catalog ([`FaultSite`]) threaded through the whole stack.
//!
//! The design follows the layering of the repo: `simmem` cannot depend on
//! this crate, so the kernel exposes a *generic* `u32`-coded injector hook
//! ([`simmem::Kernel::set_injector`]) and fires its own five sites
//! (`simmem::inject::*`). This module owns the full catalog — kernel sites
//! plus the VIA-layer and wire sites, which reuse codes from
//! `simmem::inject::UPPER_BASE` upward — and the seeded plan deciding when
//! a consulted site actually fails.
//!
//! Determinism: a plan is a pure function of its construction (seed + per
//! site rules) and the *sequence of consultations*. Two runs that perform
//! the same operations see the same faults. The probabilistic mode uses a
//! SplitMix64 stream seeded from the plan seed and the site code, so sites
//! do not perturb each other's streams.
//!
//! Cost when disabled: nothing in this module runs. Every hot-path hook is
//! `Kernel::inject(code)`, which is a single branch on a `None` option.

use std::sync::{Arc, Mutex};

use simmem::inject;

/// Named injection sites across the stack. The first five are fired by the
/// simulated kernel itself; the rest by the VIA layer and the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// `__get_free_page()` fails (`ENOMEM`).
    FrameAlloc,
    /// The swap device is full mid-reclaim.
    SwapFull,
    /// Swap-in hits a device read error (`EIO`).
    SwapIo,
    /// `PG_locked` held by foreign I/O — batch pinning sees `WouldBlock`.
    PageLock,
    /// The page stealer fails to dissolve a cold on-demand pin (the frame
    /// stays pinned in place for this reclaim pass).
    PressureUnpin,
    /// The translation-and-protection table has no room for the region.
    TptFull,
    /// The completion queue is full; a completion cannot be delivered.
    CqOverrun,
    /// The wire drops a packet.
    WireDrop,
    /// The wire duplicates a packet.
    WireDuplicate,
    /// The wire delays a packet past later traffic.
    WireDelay,
    /// The fault-and-repin path: an on-demand registration's lazy pin
    /// fails on NIC access (typed `WouldBlock` degradation).
    LazyPin,
}

impl FaultSite {
    /// Every site, in catalog order — the chaos harness sweeps this.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::FrameAlloc,
        FaultSite::SwapFull,
        FaultSite::SwapIo,
        FaultSite::PageLock,
        FaultSite::PressureUnpin,
        FaultSite::TptFull,
        FaultSite::CqOverrun,
        FaultSite::WireDrop,
        FaultSite::WireDuplicate,
        FaultSite::WireDelay,
        FaultSite::LazyPin,
    ];

    /// The wire code for this site, shared with `simmem::inject`.
    pub const fn code(self) -> u32 {
        match self {
            FaultSite::FrameAlloc => inject::FRAME_ALLOC,
            FaultSite::SwapFull => inject::SWAP_FULL,
            FaultSite::SwapIo => inject::SWAP_IO,
            FaultSite::PageLock => inject::PAGE_LOCK,
            FaultSite::PressureUnpin => inject::PRESSURE_UNPIN,
            FaultSite::TptFull => inject::UPPER_BASE,
            // A site's SplitMix64 stream is seeded from its code, so codes
            // are never renumbered or reused; `UPPER_BASE + 1` is retired.
            FaultSite::CqOverrun => inject::UPPER_BASE + 2,
            FaultSite::WireDrop => inject::UPPER_BASE + 3,
            FaultSite::WireDuplicate => inject::UPPER_BASE + 4,
            FaultSite::WireDelay => inject::UPPER_BASE + 5,
            FaultSite::LazyPin => inject::UPPER_BASE + 6,
        }
    }

    /// Inverse of [`FaultSite::code`].
    pub fn from_code(code: u32) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.code() == code)
    }

    /// Stable human-readable name (used in reports and test output).
    pub const fn label(self) -> &'static str {
        match self {
            FaultSite::FrameAlloc => "frame-alloc",
            FaultSite::SwapFull => "swap-full",
            FaultSite::SwapIo => "swap-io",
            FaultSite::PageLock => "page-lock",
            FaultSite::PressureUnpin => "pressure-unpin",
            FaultSite::TptFull => "tpt-full",
            FaultSite::CqOverrun => "cq-overrun",
            FaultSite::WireDrop => "wire-drop",
            FaultSite::WireDuplicate => "wire-duplicate",
            FaultSite::WireDelay => "wire-delay",
            FaultSite::LazyPin => "lazy-pin",
        }
    }

    const fn index(self) -> usize {
        match self {
            FaultSite::FrameAlloc => 0,
            FaultSite::SwapFull => 1,
            FaultSite::SwapIo => 2,
            FaultSite::PageLock => 3,
            FaultSite::PressureUnpin => 4,
            FaultSite::TptFull => 5,
            FaultSite::CqOverrun => 6,
            FaultSite::WireDrop => 7,
            FaultSite::WireDuplicate => 8,
            FaultSite::WireDelay => 9,
            FaultSite::LazyPin => 10,
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When a consulted site fails. Deterministic: skip the first `skip`
/// consultations, then fail the next `fail` ones, then (optionally) fail
/// each further consultation with probability `prob_per_64k / 65536` drawn
/// from the plan's SplitMix64 stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRule {
    /// Consultations to let through before failing.
    pub skip: u64,
    /// Number of consultations to fail after the skips.
    pub fail: u64,
    /// Residual failure probability (numerator out of 65536) once the
    /// deterministic budget is exhausted. `0` = never.
    pub prob_per_64k: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct SiteState {
    rule: FaultRule,
    /// Times this site was consulted.
    hits: u64,
    /// Times this site was forced to fail.
    fired: u64,
}

/// A seeded, deterministic fault plan: per-site rules plus counters.
///
/// On a `ViaSystem`, one plan may be shared across the whole fabric (every
/// node's kernel hook holds a clone of the same [`FaultHandle`]): the
/// fabric runs on one thread, so the wire, the NIC and the kernel consume
/// one consultation sequence. On a `ThreadedCluster` the service threads
/// race each other to a shared plan and the sequence is whatever the
/// scheduler made it; install one plan per node there, as `fabric_diff`'s
/// rule 1 does.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    sites: [SiteState; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// An empty plan: every site always succeeds.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            sites: [SiteState::default(); FaultSite::ALL.len()],
        }
    }

    /// Builder: fail the first `fail` consultations of `site`.
    pub fn fail(mut self, site: FaultSite, fail: u64) -> Self {
        self.sites[site.index()].rule = FaultRule {
            skip: 0,
            fail,
            prob_per_64k: 0,
        };
        self
    }

    /// Builder: let `skip` consultations through, then fail `fail` of them.
    pub fn fail_after(mut self, site: FaultSite, skip: u64, fail: u64) -> Self {
        self.sites[site.index()].rule = FaultRule {
            skip,
            fail,
            prob_per_64k: 0,
        };
        self
    }

    /// Builder: fail each consultation of `site` with probability
    /// `prob_per_64k / 65536` (deterministic given the seed).
    pub fn fail_with_probability(mut self, site: FaultSite, prob_per_64k: u32) -> Self {
        self.sites[site.index()].rule = FaultRule {
            skip: 0,
            fail: 0,
            prob_per_64k,
        };
        self
    }

    /// Builder: install an explicit rule.
    pub fn rule(mut self, site: FaultSite, rule: FaultRule) -> Self {
        self.sites[site.index()].rule = rule;
        self
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decide whether the consultation at `site` fails, and advance the
    /// plan's counters. This is the single decision point for every hook.
    pub fn should_fail(&mut self, site: FaultSite) -> bool {
        let seed = self.seed;
        let st = &mut self.sites[site.index()];
        let n = st.hits;
        st.hits += 1;
        let fire = if n < st.rule.skip {
            false
        } else if n < st.rule.skip + st.rule.fail {
            true
        } else if st.rule.prob_per_64k > 0 {
            // Per-site SplitMix64 stream: seed ⊕ site, position = hit index.
            let x = rand::splitmix64(
                seed ^ ((site.code() as u64 + 1) << 32) ^ n.wrapping_mul(rand::GAMMA),
            );
            (x & 0xffff) < st.rule.prob_per_64k as u64
        } else {
            false
        };
        if fire {
            st.fired += 1;
        }
        fire
    }

    /// Times `site` was consulted.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].hits
    }

    /// Times `site` was forced to fail.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].fired
    }

    /// Total forced failures across all sites.
    pub fn total_fired(&self) -> u64 {
        self.sites.iter().map(|s| s.fired).sum()
    }

    /// Reset counters (rules stay).
    pub fn reset_counters(&mut self) {
        for s in &mut self.sites {
            s.hits = 0;
            s.fired = 0;
        }
    }
}

/// Shared handle to a plan — clone freely; every layer consults the same
/// counters through it.
pub type FaultHandle = Arc<Mutex<FaultPlan>>;

/// Wrap a plan in a shareable handle.
pub fn handle(plan: FaultPlan) -> FaultHandle {
    Arc::new(Mutex::new(plan))
}

/// Build the closure a `simmem::Kernel` wants: maps wire codes back to
/// [`FaultSite`] and consults the shared plan. Unknown codes never fail.
pub fn kernel_hook(h: &FaultHandle) -> Box<dyn FnMut(u32) -> bool + Send> {
    let h = Arc::clone(h);
    Box::new(move |code| match FaultSite::from_code(code) {
        Some(site) => h
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .should_fail(site),
        None => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::from_code(s.code()), Some(s));
        }
        assert_eq!(FaultSite::from_code(9999), None);
    }

    #[test]
    fn skip_then_fail_budget() {
        let mut p = FaultPlan::new(1).fail_after(FaultSite::TptFull, 2, 3);
        let fired: Vec<bool> = (0..8).map(|_| p.should_fail(FaultSite::TptFull)).collect();
        assert_eq!(
            fired,
            vec![false, false, true, true, true, false, false, false]
        );
        assert_eq!(p.hits(FaultSite::TptFull), 8);
        assert_eq!(p.fired(FaultSite::TptFull), 3);
        // Other sites untouched.
        assert!(!p.should_fail(FaultSite::WireDrop));
        assert_eq!(p.fired(FaultSite::WireDrop), 0);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut p = FaultPlan::new(seed).fail_with_probability(FaultSite::WireDrop, 0x8000);
            (0..64)
                .map(|_| p.should_fail(FaultSite::WireDrop))
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds, different streams");
        let fired = run(42).iter().filter(|&&b| b).count();
        assert!((8..=56).contains(&fired), "p=0.5 should fire sometimes");
    }

    #[test]
    fn kernel_hook_drives_kernel_sites() {
        use simmem::{Capabilities, Kernel, KernelConfig, MmError};
        let h = handle(FaultPlan::new(7).fail(FaultSite::FrameAlloc, 1));
        let mut k = Kernel::new(KernelConfig::small());
        k.set_injector(Some(kernel_hook(&h)));
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(
                pid,
                simmem::PAGE_SIZE,
                simmem::prot::READ | simmem::prot::WRITE,
            )
            .unwrap();
        // First write needs a frame → injected ENOMEM; retry succeeds.
        assert_eq!(k.write_user(pid, a, b"x"), Err(MmError::OutOfMemory));
        k.write_user(pid, a, b"x").unwrap();
        assert_eq!(h.lock().unwrap().fired(FaultSite::FrameAlloc), 1);
        assert_eq!(k.mm_stats().faults_injected, 1);
    }
}
