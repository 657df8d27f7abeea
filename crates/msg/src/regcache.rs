//! TPT-level registration cache: the `vialock` cache idea applied at the
//! NIC-handle level, which is where a zero-copy MPI needs it — a cache hit
//! avoids both the kernel-agent trap *and* the TPT refill.
//!
//! The mechanics (covering-span hits, stamp-ordered LRU eviction, O(1)
//! release) are the shared [`vialock::CoveringLru`]; this wrapper turns
//! misses into registration calls and evictions into deregistration calls
//! against any [`RegPort`] — a bare `Node` (deterministic fabric, or inside
//! a service thread) or a [`via::FabricNode`] adapter routing through the
//! `Fabric` trait. Since each rank has its own protection tag *and* its own
//! pid, the pid-keyed covering index never serves a span registered under
//! another rank's tag.

use simmem::{Pid, VirtAddr};
use via::tpt::{MemId, ProtectionTag};
use via::{RegPort, ViaError, ViaResult};
use vialock::{CacheReleaseError, CacheStats, CoveringLru, PageSpan, RegError};

/// LRU cache of live NIC registrations for one node.
pub struct NodeRegCache {
    lru: CoveringLru<MemId>,
}

impl NodeRegCache {
    pub fn new(capacity_pages: usize) -> Self {
        NodeRegCache {
            lru: CoveringLru::new(capacity_pages),
        }
    }

    /// Acquire a registration covering `[addr, addr+len)` under `tag`. Any
    /// cached span covering the request — exact or larger — is a hit; a
    /// miss registers the full page span with the NIC. A span that wraps
    /// the address space is refused before the cache is consulted.
    pub fn acquire<P: RegPort>(
        &mut self,
        port: &mut P,
        pid: Pid,
        addr: VirtAddr,
        len: usize,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        let span = PageSpan::of(addr, len)?;
        match self.lru.acquire(pid, span) {
            Some(mem) => Ok(mem),
            None => self.register_miss(port, pid, span, tag),
        }
    }

    /// The miss path, kept out of line so the hit path stays small enough
    /// to inline: register the full page span and admit it. If the NIC's
    /// table fills before this cache's page budget does, idle entries are
    /// the room we can make — evict the least recently used ones and try
    /// once more.
    fn register_miss<P: RegPort>(
        &mut self,
        port: &mut P,
        pid: Pid,
        span: PageSpan,
        tag: ProtectionTag,
    ) -> ViaResult<MemId> {
        let mem = match port.port_register(pid, span.base, span.bytes(), tag) {
            Err(ViaError::Reg(RegError::LimitExceeded)) => {
                let victims = self.lru.evict_pages(span.npages);
                if victims.is_empty() {
                    return Err(ViaError::Reg(RegError::LimitExceeded));
                }
                for victim in victims {
                    port.port_deregister(victim)?;
                }
                port.port_register(pid, span.base, span.bytes(), tag)?
            }
            r => r?,
        };
        self.lru.admit(pid, span, mem);
        Ok(mem)
    }

    /// Release a prior acquisition; evict idle LRU entries beyond budget.
    /// Releasing more often than acquired is an error, not a silent
    /// saturation.
    pub fn release<P: RegPort>(&mut self, port: &mut P, mem: MemId) -> ViaResult<()> {
        self.lru.release(mem).map_err(|e| match e {
            CacheReleaseError::UnknownHandle => ViaError::BadId("cached memory"),
            CacheReleaseError::Underflow => ViaError::Reg(RegError::PinUnderflow),
        })?;
        for victim in self.lru.evict_over_budget() {
            port.port_deregister(victim)?;
        }
        Ok(())
    }

    /// Deregister every idle cached region.
    pub fn flush<P: RegPort>(&mut self, port: &mut P) -> ViaResult<()> {
        for victim in self.lru.drain_idle() {
            port.port_deregister(victim)?;
        }
        Ok(())
    }

    /// Forget every entry of an exited process without deregistering:
    /// process exit already reclaimed its registrations.
    pub fn forget_pid(&mut self, pid: Pid) {
        self.lru.forget_pid(pid);
    }

    pub fn cached_pages(&self) -> usize {
        self.lru.cached_pages()
    }

    /// Cached registrations currently held by some user.
    pub fn in_use(&self) -> usize {
        self.lru.in_use()
    }

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
    use simmem::{prot, KernelConfig, PAGE_SIZE};
    use via::nic::Node;
    use vialock::StrategyKind;

    fn node() -> (Node, Pid, VirtAddr) {
        let mut n = Node::new(KernelConfig::small(), StrategyKind::KiobufReliable, 1024);
        let pid = n.kernel.spawn_process(simmem::Capabilities::default());
        let a = n
            .kernel
            .mmap_anon(pid, 32 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        (n, pid, a)
    }

    #[test]
    fn hit_on_reuse() {
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(128);
        let tag = ProtectionTag(1);
        let m1 = c.acquire(&mut n, pid, a, PAGE_SIZE, tag).unwrap();
        c.release(&mut n, m1).unwrap();
        let m2 = c.acquire(&mut n, pid, a, PAGE_SIZE, tag).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(n.registry.snapshot().registrations, 1);
        c.release(&mut n, m2).unwrap();
    }

    #[test]
    fn sub_span_hits_cached_covering_region() {
        // The NIC-level mirror of the tentpole test: cache [a, a+8p), then
        // ask for [a+p, a+3p) — zero new TPT registrations.
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(128);
        let tag = ProtectionTag(1);
        let big = c.acquire(&mut n, pid, a, 8 * PAGE_SIZE, tag).unwrap();
        c.release(&mut n, big).unwrap();
        assert_eq!(n.registry.snapshot().registrations, 1);
        let sub = c
            .acquire(&mut n, pid, a + PAGE_SIZE as u64, 2 * PAGE_SIZE, tag)
            .unwrap();
        assert_eq!(sub, big, "served by the covering TPT entry");
        assert_eq!(
            n.registry.snapshot().registrations,
            1,
            "zero new registrations"
        );
        assert_eq!(c.stats().covering_hits, 1);
        assert_eq!(n.nic.tpt.region_count(), 1);
        c.release(&mut n, sub).unwrap();
    }

    #[test]
    fn budget_evicts_idle_lru() {
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(4);
        let tag = ProtectionTag(1);
        for i in 0..3 {
            let addr = a + (i * 2 * PAGE_SIZE) as u64;
            let m = c.acquire(&mut n, pid, addr, 2 * PAGE_SIZE, tag).unwrap();
            c.release(&mut n, m).unwrap();
        }
        assert!(c.cached_pages() <= 4);
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn full_tpt_evicts_idle_entries_and_retries() {
        // A 6-page TPT behind a cache whose own budget never binds.
        let mut n = Node::new(KernelConfig::small(), StrategyKind::KiobufReliable, 6);
        let pid = n.kernel.spawn_process(simmem::Capabilities::default());
        let a = n
            .kernel
            .mmap_anon(pid, 32 * PAGE_SIZE, prot::READ | prot::WRITE)
            .unwrap();
        let mut c = NodeRegCache::new(128);
        let tag = ProtectionTag(1);
        let span = |i: usize| a + (i * 4 * PAGE_SIZE) as u64;
        let m0 = c.acquire(&mut n, pid, span(0), 4 * PAGE_SIZE, tag).unwrap();
        // While the only entry is in use there is no room to make.
        assert!(matches!(
            c.acquire(&mut n, pid, span(1), 4 * PAGE_SIZE, tag),
            Err(ViaError::Reg(RegError::LimitExceeded))
        ));
        c.release(&mut n, m0).unwrap();
        // Idle now: the refused registration evicts it and goes through.
        let m1 = c.acquire(&mut n, pid, span(1), 4 * PAGE_SIZE, tag).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert_eq!((c.len(), n.nic.tpt.region_count()), (1, 1));
        c.release(&mut n, m1).unwrap();
    }

    #[test]
    fn flush_deregisters() {
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(128);
        let tag = ProtectionTag(1);
        let m = c.acquire(&mut n, pid, a, 4 * PAGE_SIZE, tag).unwrap();
        c.release(&mut n, m).unwrap();
        assert_eq!(n.nic.tpt.region_count(), 1);
        c.flush(&mut n).unwrap();
        assert_eq!(n.nic.tpt.region_count(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn unaligned_requests_share_the_page_span() {
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(128);
        let tag = ProtectionTag(1);
        // Two different byte ranges with the same page span hit the same
        // entry.
        let m1 = c.acquire(&mut n, pid, a + 10, 100, tag).unwrap();
        let m2 = c.acquire(&mut n, pid, a + 500, 200, tag).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(c.stats().hits, 1);
        c.release(&mut n, m1).unwrap();
        c.release(&mut n, m2).unwrap();
    }

    #[test]
    fn wrapping_span_is_refused_before_the_lru_is_touched() {
        let (mut n, pid, _) = node();
        let mut c = NodeRegCache::new(128);
        assert_eq!(
            c.acquire(&mut n, pid, u64::MAX - 100, 200, ProtectionTag(1)),
            Err(ViaError::Reg(RegError::InvalidArgument(
                "region wraps the address space"
            )))
        );
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.is_empty());
        assert_eq!(n.nic.tpt.region_count(), 0);
    }

    #[test]
    fn double_release_is_reported() {
        let (mut n, pid, a) = node();
        let mut c = NodeRegCache::new(128);
        let m = c
            .acquire(&mut n, pid, a, PAGE_SIZE, ProtectionTag(1))
            .unwrap();
        c.release(&mut n, m).unwrap();
        assert!(matches!(
            c.release(&mut n, m),
            Err(via::ViaError::Reg(RegError::PinUnderflow))
        ));
        assert!(matches!(
            c.release(&mut n, MemId(4242)),
            Err(via::ViaError::BadId(_))
        ));
    }
}
