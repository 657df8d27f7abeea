//! Per-protocol cost composition for the CHEMPI-style message-passing
//! protocols (companion paper "An optimized MPI library for VIA/SCI
//! cards"):
//!
//! * **shared-memory PIO** — sender copies into the SCI segment (CPU
//!   store latency + per-byte PIO cost), receiver copies out;
//! * **one-copy VIA** — descriptor per 8 KiB chunk into pre-posted,
//!   pre-registered buffers, plus one receiver-side copy;
//! * **zero-copy VIA** — rendezvous synchronisation (two small control
//!   messages), dynamic registration of the user buffers on both sides
//!   (amortised by the registration cache), then one RDMA.
//!
//! The registration costs are where the paper under reproduction enters the
//! bandwidth picture: an expensive or kernel-heavy pinning path pushes the
//! zero-copy crossover to larger messages.

use crate::cost::{Nanos, NetworkProfile};

/// Host page size assumed by the per-page registration charges (x86: 4 KiB;
/// kept local so `netsim` stays dependency-free).
pub const PAGE_BYTES: usize = 4096;

/// Cost of registering a buffer (kernel trap + per-page pinning), by
/// pinning strategy. Values are per-operation nanosecond charges used by
/// the simulated-time protocol model; the *relative* magnitudes follow the
/// structure of each strategy (mlock walks and splits VMAs; kiobuf faults
/// and locks per page; refcount only bumps a counter per page).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistrationCost {
    /// Fixed trap into the kernel agent.
    pub trap_ns: Nanos,
    /// Per-page pinning work.
    pub per_page_ns: Nanos,
}

impl RegistrationCost {
    /// Refcount-only: cheapest — and wrong.
    pub fn refcount() -> Self {
        RegistrationCost {
            trap_ns: 2_000,
            per_page_ns: 200,
        }
    }

    /// Raw-flags: refcount plus a flag write.
    pub fn raw_flags() -> Self {
        RegistrationCost {
            trap_ns: 2_000,
            per_page_ns: 250,
        }
    }

    /// mlock-based: VMA surgery dominates the fixed part.
    pub fn vma_mlock() -> Self {
        RegistrationCost {
            trap_ns: 6_000,
            per_page_ns: 350,
        }
    }

    /// kiobuf-based (the proposal): fault-in + page lock per page.
    pub fn kiobuf() -> Self {
        RegistrationCost {
            trap_ns: 3_000,
            per_page_ns: 400,
        }
    }

    /// On-demand: registration only write-protects the span — no fault-in,
    /// no per-page pin. The pinning cost moves to the first NIC access of
    /// each page (charged as protection faults at run time, not here).
    pub fn on_demand() -> Self {
        RegistrationCost {
            trap_ns: 2_500,
            per_page_ns: 60,
        }
    }

    /// Cost of registering `pages` pages.
    pub fn register_ns(&self, pages: usize) -> Nanos {
        self.trap_ns + self.per_page_ns * pages as u64
    }
}

/// The full protocol cost model.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolCosts {
    /// SCI PIO path (shared-memory protocol).
    pub pio: NetworkProfile,
    /// VIA DMA path (one-copy and zero-copy protocols).
    pub dma: NetworkProfile,
    /// Receiver-side memcpy speed in ns/byte (PIII-era ~1 GB/s).
    pub memcpy_per_byte_ns: f64,
    /// One-copy chunk size (the pre-posted buffer size M).
    pub chunk_bytes: usize,
    /// Per-descriptor post + completion cost.
    pub descriptor_ns: Nanos,
    /// Registration cost model for dynamic (zero-copy) registration.
    pub reg: RegistrationCost,
    /// Fraction of zero-copy sends whose buffers hit the registration
    /// cache (0.0 = always register, 1.0 = always cached).
    pub reg_cache_hit: f64,
}

impl ProtocolCosts {
    /// Defaults calibrated to the companion papers' hardware.
    pub fn classic(reg: RegistrationCost) -> Self {
        ProtocolCosts {
            pio: NetworkProfile::sci_raw(),
            dma: NetworkProfile::via_clan_hw(),
            memcpy_per_byte_ns: 1.0,
            chunk_bytes: 8 * 1024,
            descriptor_ns: 2_000,
            reg,
            reg_cache_hit: 0.0,
        }
    }

    /// With a registration cache at the given hit rate.
    pub fn with_cache_hit(mut self, hit: f64) -> Self {
        self.reg_cache_hit = hit.clamp(0.0, 1.0);
        self
    }

    /// Shared-memory protocol: sender PIO-copies into the SCI segment
    /// (which IS the transfer), receiver copies out into the user buffer.
    pub fn shared_memory_ns(&self, bytes: usize) -> Nanos {
        self.pio.transfer_ns(bytes) + (bytes as f64 * self.memcpy_per_byte_ns).round() as Nanos
    }

    /// One-copy VIA protocol: a descriptor per chunk, DMA transfer, then
    /// the receiver copies out of the pre-registered buffer.
    pub fn one_copy_ns(&self, bytes: usize) -> Nanos {
        let chunks = bytes.div_ceil(self.chunk_bytes).max(1);
        self.dma.transfer_ns(bytes)
            + self.descriptor_ns * chunks as u64
            + (bytes as f64 * self.memcpy_per_byte_ns).round() as Nanos
    }

    /// Zero-copy VIA protocol: rendezvous (2 control messages), dynamic
    /// registration on both sides (discounted by the cache hit rate), one
    /// RDMA of the full payload, no copies.
    pub fn zero_copy_ns(&self, bytes: usize) -> Nanos {
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let rendezvous = 2 * self.pio.transfer_ns(16);
        let reg_each = self.reg.register_ns(pages) as f64 * (1.0 - self.reg_cache_hit);
        let reg_both = (2.0 * reg_each).round() as Nanos;
        rendezvous + reg_both + self.dma.transfer_ns(bytes) + self.descriptor_ns
    }

    /// The cheapest protocol at a size, as (name, time).
    pub fn best(&self, bytes: usize) -> (&'static str, Nanos) {
        let sm = ("shared-memory", self.shared_memory_ns(bytes));
        let oc = ("one-copy", self.one_copy_ns(bytes));
        let zc = ("zero-copy", self.zero_copy_ns(bytes));
        [sm, oc, zc]
            .into_iter()
            .min_by_key(|&(_, t)| t)
            .expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> ProtocolCosts {
        ProtocolCosts::classic(RegistrationCost::kiobuf())
    }

    #[test]
    fn shared_memory_wins_short_messages() {
        let c = costs();
        let (name, _) = c.best(64);
        assert_eq!(name, "shared-memory");
    }

    #[test]
    fn zero_copy_wins_long_messages() {
        let c = costs();
        let (name, _) = c.best(1 << 20);
        assert_eq!(name, "zero-copy");
    }

    #[test]
    fn crossovers_are_ordered() {
        // shared-memory → (one-copy) → zero-copy as size grows; the first
        // switch must happen before the second.
        let c = costs();
        let mut last = "shared-memory";
        let mut switches = Vec::new();
        for p in 2..=22 {
            let (name, _) = c.best(1usize << p);
            if name != last {
                switches.push((1usize << p, name));
                last = name;
            }
        }
        assert!(!switches.is_empty());
        // Protocol order never goes backwards (zero-copy → shared-memory).
        let order = |n: &str| match n {
            "shared-memory" => 0,
            "one-copy" => 1,
            _ => 2,
        };
        let mut prev = 0;
        for (_, n) in &switches {
            assert!(order(n) > prev, "protocol order regressed at {n}");
            prev = order(n);
        }
    }

    #[test]
    fn registration_cache_moves_zero_copy_crossover_down() {
        let cold = ProtocolCosts::classic(RegistrationCost::kiobuf());
        let warm = ProtocolCosts::classic(RegistrationCost::kiobuf()).with_cache_hit(1.0);
        let first_zc = |c: &ProtocolCosts| {
            (2..=24)
                .map(|p| 1usize << p)
                .find(|&n| c.best(n).0 == "zero-copy")
        };
        let cold_x = first_zc(&cold).expect("zero-copy eventually wins");
        let warm_x = first_zc(&warm).expect("zero-copy eventually wins");
        assert!(
            warm_x <= cold_x,
            "cache can only help ({warm_x} vs {cold_x})"
        );
    }

    #[test]
    fn expensive_registration_penalises_zero_copy() {
        let cheap = ProtocolCosts::classic(RegistrationCost::refcount());
        let dear = ProtocolCosts::classic(RegistrationCost::vma_mlock());
        let n = 64 * 1024;
        assert!(dear.zero_copy_ns(n) > cheap.zero_copy_ns(n));
    }

    #[test]
    fn register_cost_scales_with_pages() {
        let r = RegistrationCost::kiobuf();
        assert!(r.register_ns(100) > r.register_ns(1));
        assert_eq!(r.register_ns(10) - r.register_ns(0), 10 * r.per_page_ns);
    }
}
