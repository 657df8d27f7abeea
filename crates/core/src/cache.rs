//! The registration cache.
//!
//! The paper (section 1): *"the bad effects \[of dynamic registration\] can
//! be remedied by 'caching' registered regions, i.e. by keeping them
//! registered as long as possible."* Zero-copy protocols register the user
//! buffer of every long send; with a cache, a buffer that was registered
//! before — the common case for applications with buffer reuse — costs a
//! table lookup instead of a kernel trap plus per-page pinning.
//!
//! The cache logic itself lives in the generic [`CoveringLru`]: covering
//! hits (a sub-range of a cached span is a hit, not a re-registration),
//! stamp-ordered O(log n) eviction of idle entries within a page budget,
//! and O(1) release through a handle reverse map. This type binds it to a
//! [`MemoryRegistry`], turning misses into `register` calls and evictions
//! into `deregister` calls.

use simmem::{Kernel, PageSpan, Pid, VirtAddr};

use crate::error::{RegError, RegResult};
use crate::lru::{CacheReleaseError, CoveringLru};
use crate::region::MemHandle;
use crate::registry::MemoryRegistry;

pub use crate::lru::CacheStats;

fn release_err(e: CacheReleaseError) -> RegError {
    match e {
        CacheReleaseError::UnknownHandle => RegError::NoSuchHandle,
        CacheReleaseError::Underflow => RegError::PinUnderflow,
    }
}

/// LRU cache of live registrations in front of a [`MemoryRegistry`].
pub struct RegistrationCache {
    lru: CoveringLru<MemHandle>,
}

impl RegistrationCache {
    /// Cache with a page budget (the paper's "as long as possible" bounded
    /// by the pinnable-memory limit).
    pub fn new(capacity_pages: usize) -> Self {
        RegistrationCache {
            lru: CoveringLru::new(capacity_pages),
        }
    }

    /// Acquire a registration for `[addr, addr+len)`: reuse a cached one
    /// (exact span or any covering span) or register anew. Pair every
    /// acquire with [`RegistrationCache::release`]. A span that wraps the
    /// address space is refused before the cache is consulted.
    pub fn acquire(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut MemoryRegistry,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
    ) -> RegResult<MemHandle> {
        let span = PageSpan::of(addr, len)?;
        if let Some(handle) = self.lru.acquire(pid, span) {
            return Ok(handle);
        }
        // Register the full page span so any sub-span request hits.
        let handle = registry.register(kernel, pid, span.base, span.bytes())?;
        self.lru.admit(pid, span, handle);
        Ok(handle)
    }

    /// Release a prior acquisition. The registration stays cached; unused
    /// entries beyond the page budget are evicted LRU-first. Releasing a
    /// handle more often than it was acquired is an error
    /// ([`RegError::PinUnderflow`]), not a silent saturation.
    pub fn release(
        &mut self,
        kernel: &mut Kernel,
        registry: &mut MemoryRegistry,
        handle: MemHandle,
    ) -> RegResult<()> {
        self.lru.release(handle).map_err(release_err)?;
        for victim in self.lru.evict_over_budget() {
            registry.deregister(kernel, victim)?;
        }
        Ok(())
    }

    /// Drop every unused cached registration (shutdown / low-memory
    /// callback).
    pub fn flush(&mut self, kernel: &mut Kernel, registry: &mut MemoryRegistry) -> RegResult<()> {
        for victim in self.lru.drain_idle() {
            registry.deregister(kernel, victim)?;
        }
        Ok(())
    }

    /// Total pages held by cached registrations (used + unused).
    pub fn cached_pages(&self) -> usize {
        self.lru.cached_pages()
    }

    /// Number of cached registrations.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Performance counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;
    use simmem::{prot, Capabilities, KernelConfig, PAGE_SIZE};

    fn setup() -> (Kernel, Pid, VirtAddr, MemoryRegistry) {
        let mut k = Kernel::new(KernelConfig::small());
        let pid = k.spawn_process(Capabilities::default());
        let a = k
            .mmap_anon(pid, 32 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (k, pid, a, MemoryRegistry::new(StrategyKind::KiobufReliable))
    }

    #[test]
    fn second_acquire_hits() {
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(64);
        let h1 = cache
            .acquire(&mut k, &mut reg, pid, a, 4 * PAGE_SIZE)
            .unwrap();
        cache.release(&mut k, &mut reg, h1).unwrap();
        let h2 = cache
            .acquire(&mut k, &mut reg, pid, a, 4 * PAGE_SIZE)
            .unwrap();
        assert_eq!(h1, h2, "cache returns the live registration");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(
            reg.snapshot().registrations,
            1,
            "only one kernel registration"
        );
        cache.release(&mut k, &mut reg, h2).unwrap();
    }

    #[test]
    fn sub_span_acquire_is_a_covering_hit_with_zero_registrations() {
        // The tentpole semantics: [base+PAGE, base+3*PAGE) after caching
        // [base, base+8*PAGE) hits the cached span — no kernel trap, no
        // re-pin.
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(64);
        let big = cache
            .acquire(&mut k, &mut reg, pid, a, 8 * PAGE_SIZE)
            .unwrap();
        cache.release(&mut k, &mut reg, big).unwrap();
        assert_eq!(reg.snapshot().registrations, 1);

        let sub = cache
            .acquire(&mut k, &mut reg, pid, a + PAGE_SIZE as u64, 2 * PAGE_SIZE)
            .unwrap();
        assert_eq!(sub, big, "served by the covering span's handle");
        assert_eq!(reg.snapshot().registrations, 1, "zero new registrations");
        assert_eq!(cache.stats().covering_hits, 1);
        assert_eq!(cache.stats().hits, 0, "covering hits counted separately");
        assert_eq!(cache.stats().misses, 1);
        cache.release(&mut k, &mut reg, sub).unwrap();
    }

    #[test]
    fn lru_eviction_on_budget() {
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(8); // budget: 8 pages
        let mut handles = Vec::new();
        for i in 0..3 {
            let addr = a + (i * 4 * PAGE_SIZE) as u64;
            let h = cache
                .acquire(&mut k, &mut reg, pid, addr, 4 * PAGE_SIZE)
                .unwrap();
            cache.release(&mut k, &mut reg, h).unwrap();
            handles.push(h);
        }
        // 12 pages acquired against an 8-page budget → oldest evicted.
        assert!(cache.cached_pages() <= 8);
        assert_eq!(cache.stats().evictions, 1);
        // Oldest is gone: re-acquiring it misses.
        let h = cache
            .acquire(&mut k, &mut reg, pid, a, 4 * PAGE_SIZE)
            .unwrap();
        assert_ne!(h, handles[0]);
        assert_eq!(cache.stats().misses, 4);
        cache.release(&mut k, &mut reg, h).unwrap();
    }

    #[test]
    fn in_use_entries_are_never_evicted() {
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(4);
        let h1 = cache
            .acquire(&mut k, &mut reg, pid, a, 4 * PAGE_SIZE)
            .unwrap();
        // Second region busts the budget while the first is still in use.
        let h2 = cache
            .acquire(
                &mut k,
                &mut reg,
                pid,
                a + 16 * PAGE_SIZE as u64,
                4 * PAGE_SIZE,
            )
            .unwrap();
        cache.release(&mut k, &mut reg, h2).unwrap();
        // h1 (in use) must survive; h2 (idle) is the only evictable one.
        assert!(reg.frames(h1).is_ok());
        cache.release(&mut k, &mut reg, h1).unwrap();
    }

    #[test]
    fn flush_clears_idle_entries() {
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(64);
        let h = cache
            .acquire(&mut k, &mut reg, pid, a, 2 * PAGE_SIZE)
            .unwrap();
        cache.release(&mut k, &mut reg, h).unwrap();
        cache.flush(&mut k, &mut reg).unwrap();
        assert!(cache.is_empty());
        assert_eq!(reg.live_regions(), 0);
    }

    #[test]
    fn hit_ratio() {
        let s = CacheStats {
            hits: 2,
            covering_hits: 1,
            misses: 1,
            evictions: 0,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn unknown_handle_release_fails() {
        let (mut k, _, _, mut reg) = setup();
        let mut cache = RegistrationCache::new(4);
        assert_eq!(
            cache.release(&mut k, &mut reg, MemHandle(999)),
            Err(RegError::NoSuchHandle)
        );
    }

    #[test]
    fn wrapping_span_is_refused_before_the_lru_is_touched() {
        // The page-aligned end of the span does not fit in a u64: a typed
        // refusal (it used to overflow in the span arithmetic), with no
        // lookup counted and nothing registered or cached.
        let (mut k, pid, _, mut reg) = setup();
        let mut cache = RegistrationCache::new(64);
        assert_eq!(
            cache.acquire(&mut k, &mut reg, pid, u64::MAX - 100, 200),
            Err(RegError::InvalidArgument("region wraps the address space"))
        );
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.is_empty());
        assert_eq!(reg.live_regions(), 0);
    }

    #[test]
    fn double_release_is_an_error_not_a_saturation() {
        let (mut k, pid, a, mut reg) = setup();
        let mut cache = RegistrationCache::new(64);
        let h = cache.acquire(&mut k, &mut reg, pid, a, PAGE_SIZE).unwrap();
        cache.release(&mut k, &mut reg, h).unwrap();
        assert_eq!(
            cache.release(&mut k, &mut reg, h),
            Err(RegError::PinUnderflow)
        );
    }
}
