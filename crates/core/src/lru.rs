//! The generic covering-aware LRU used by both registration caches
//! ([`crate::cache::RegistrationCache`] at the kernel-agent level and the
//! msg crate's `NodeRegCache` at the NIC-handle level).
//!
//! Three structural properties replace the seed's per-cache ad-hoc maps:
//!
//! * **Covering hits** — a request for a sub-range of an already-cached
//!   (already-pinned!) span is a hit on that span, via the same
//!   [`SpanIndex`] the region table uses, instead of a full miss that
//!   re-pins the pages and refills the TPT.
//! * **O(log n) eviction** — idle entries sit in a stamp-ordered
//!   `BTreeMap`, so the LRU victim is the first key, not an O(n)
//!   `min_by_key` scan over every entry.
//! * **O(1) release** — a handle → key reverse map replaces the O(n)
//!   `iter().find` on every release.
//!
//! The cache tracks spans and use counts only; the caller owns the actual
//! register/deregister side effects (kernel agent trap, TPT fill), keeping
//! this type free of kernel/NIC dependencies.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use simmem::{PageSpan, Pid};

use crate::span::SpanIndex;

/// Cache performance counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-span hits.
    pub hits: u64,
    /// Hits served by a cached span strictly larger than the request.
    pub covering_hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when no lookups happened. Covering hits are
    /// hits — the request was served without a registration.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.covering_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.covering_hits) as f64 / total as f64
        }
    }
}

/// Why a release was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheReleaseError {
    /// The handle is not cached here.
    UnknownHandle,
    /// The entry's use count is already zero: release without a matching
    /// acquire (the double-release bug the seed only `debug_assert`ed).
    Underflow,
}

/// Key identifying a cached registration: same process, same page span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpanKey {
    pid: Pid,
    span: PageSpan,
}

struct Entry<H> {
    handle: H,
    /// Outstanding acquisitions; only zero-use entries may be evicted.
    users: u32,
    /// LRU stamp: larger = more recently used. Unique across entries (the
    /// clock ticks once per lookup and an entry absorbs at most one tick),
    /// so it doubles as the idle-queue key.
    stamp: u64,
    npages: usize,
}

/// Covering-aware LRU over spans, generic in the handle type (kernel-agent
/// `MemHandle`, NIC `MemId`, ...).
pub struct CoveringLru<H> {
    entries: HashMap<SpanKey, Entry<H>>,
    by_handle: HashMap<H, SpanKey>,
    /// stamp → key for entries with `users == 0`, oldest first.
    idle: BTreeMap<u64, SpanKey>,
    index: SpanIndex<SpanKey>,
    capacity_pages: usize,
    cached_pages: usize,
    clock: u64,
    stats: CacheStats,
}

impl<H: Copy + Eq + Hash> CoveringLru<H> {
    /// Cache with a page budget: idle entries beyond it are evicted.
    pub fn new(capacity_pages: usize) -> Self {
        CoveringLru {
            entries: HashMap::new(),
            by_handle: HashMap::new(),
            idle: BTreeMap::new(),
            index: SpanIndex::new(),
            capacity_pages,
            cached_pages: 0,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Look up `span` for `pid`: an exact-span or covering-span hit bumps
    /// the entry's use count and returns its handle; a miss returns `None`
    /// and the caller registers the span, then calls
    /// [`CoveringLru::admit`]. Stats are counted here for all three
    /// outcomes.
    pub fn acquire(&mut self, pid: Pid, span: PageSpan) -> Option<H> {
        let key = SpanKey { pid, span };
        self.clock += 1;
        if self.entries.contains_key(&key) {
            self.stats.hits += 1;
            return Some(self.touch(key));
        }
        if let Some(ckey) = self.index.find_covering(pid, span.base, span.end()) {
            self.stats.covering_hits += 1;
            return Some(self.touch(ckey));
        }
        self.stats.misses += 1;
        None
    }

    /// Mark `key`'s entry used now and return its handle.
    fn touch(&mut self, key: SpanKey) -> H {
        let e = self.entries.get_mut(&key).expect("caller checked presence");
        if e.users == 0 {
            self.idle.remove(&e.stamp);
        }
        e.users += 1;
        e.stamp = self.clock;
        e.handle
    }

    /// Record the registration a miss produced. The caller must have
    /// registered the whole of `span` (so future sub-range requests hit).
    /// The entry starts with one user.
    pub fn admit(&mut self, pid: Pid, span: PageSpan, handle: H) {
        let key = SpanKey { pid, span };
        assert!(
            !self.entries.contains_key(&key),
            "admit of an already-cached span; acquire first"
        );
        self.entries.insert(
            key,
            Entry {
                handle,
                users: 1,
                stamp: self.clock,
                npages: span.npages,
            },
        );
        self.by_handle.insert(handle, key);
        self.index.insert(pid, span.base, span.end(), key);
        self.cached_pages += span.npages;
    }

    /// Release one acquisition of `handle`. The registration stays cached;
    /// when the last user leaves, the entry joins the idle (evictable) set.
    pub fn release(&mut self, handle: H) -> Result<(), CacheReleaseError> {
        let key = *self
            .by_handle
            .get(&handle)
            .ok_or(CacheReleaseError::UnknownHandle)?;
        let e = self.entries.get_mut(&key).expect("reverse map in sync");
        if e.users == 0 {
            return Err(CacheReleaseError::Underflow);
        }
        e.users -= 1;
        if e.users == 0 {
            self.idle.insert(e.stamp, key);
        }
        Ok(())
    }

    /// Idle LRU handles to evict until the cache fits its page budget.
    /// Entries are removed from the cache here; the caller deregisters the
    /// returned handles.
    pub fn evict_over_budget(&mut self) -> Vec<H> {
        self.evict_down_to(self.capacity_pages)
    }

    /// Idle LRU handles to evict so that `npages` fewer pages stay cached
    /// (or nothing idle is left) — room for a registration the table
    /// behind the cache refused although the page budget is not reached.
    pub fn evict_pages(&mut self, npages: usize) -> Vec<H> {
        self.evict_down_to(self.cached_pages.saturating_sub(npages))
    }

    fn evict_down_to(&mut self, target_pages: usize) -> Vec<H> {
        let mut victims = Vec::new();
        while self.cached_pages > target_pages {
            let Some((&stamp, &key)) = self.idle.iter().next() else {
                break; // everything in use: over budget but stuck
            };
            self.idle.remove(&stamp);
            victims.push(self.remove_entry(key));
        }
        victims
    }

    /// Remove and return every idle entry's handle (flush / low-memory
    /// callback); in-use entries stay.
    pub fn drain_idle(&mut self) -> Vec<H> {
        let idle = std::mem::take(&mut self.idle);
        idle.into_values()
            .map(|key| self.remove_entry(key))
            .collect()
    }

    /// Drop every entry of `pid`, in use or idle, without handing the
    /// handles back: the process exited and its registrations were
    /// reclaimed with it, so there is nothing left to deregister.
    pub fn forget_pid(&mut self, pid: Pid) {
        let keys: Vec<SpanKey> = self
            .entries
            .keys()
            .filter(|k| k.pid == pid)
            .copied()
            .collect();
        for key in keys {
            let e = self.detach(key);
            if e.users == 0 {
                self.idle.remove(&e.stamp);
            }
        }
    }

    /// Evict an entry the caller already took off the idle queue.
    fn remove_entry(&mut self, key: SpanKey) -> H {
        self.stats.evictions += 1;
        self.detach(key).handle
    }

    /// Take `key`'s entry out of every map but the idle queue.
    fn detach(&mut self, key: SpanKey) -> Entry<H> {
        let e = self.entries.remove(&key).expect("caller holds a live key");
        self.by_handle.remove(&e.handle);
        self.index.remove(key.pid, key.span.base, key);
        self.cached_pages -= e.npages;
        e
    }

    /// Total pages held by cached registrations (used + idle) — a running
    /// counter, not a scan.
    pub fn cached_pages(&self) -> usize {
        self.cached_pages
    }

    /// Number of cached registrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of cached registrations with at least one user (never
    /// evictable while that holds).
    pub fn in_use(&self) -> usize {
        self.entries.len() - self.idle.len()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmem::{VirtAddr, PAGE_SIZE};

    const P: Pid = Pid(1);
    const PG: u64 = PAGE_SIZE as u64;

    fn span(addr: VirtAddr, len: usize) -> PageSpan {
        PageSpan::of(addr, len).unwrap()
    }

    #[test]
    fn exact_then_covering_then_miss() {
        let mut c: CoveringLru<u32> = CoveringLru::new(64);
        assert_eq!(c.acquire(P, span(8 * PG, 8 * PAGE_SIZE)), None);
        c.admit(P, span(8 * PG, 8 * PAGE_SIZE), 1);
        // Exact.
        assert_eq!(c.acquire(P, span(8 * PG, 8 * PAGE_SIZE)), Some(1));
        // Sub-span → covering hit on the same handle.
        assert_eq!(c.acquire(P, span(9 * PG, 3 * PAGE_SIZE)), Some(1));
        // Overhang → miss.
        assert_eq!(c.acquire(P, span(12 * PG, 8 * PAGE_SIZE)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.covering_hits, s.misses), (1, 1, 2));
        // Three acquisitions succeeded → three releases.
        for _ in 0..3 {
            c.release(1).unwrap();
        }
        assert_eq!(c.release(1), Err(CacheReleaseError::Underflow));
        assert_eq!(c.release(99), Err(CacheReleaseError::UnknownHandle));
    }

    #[test]
    fn eviction_is_lru_and_skips_in_use() {
        let mut c: CoveringLru<u32> = CoveringLru::new(8);
        for (i, h) in [(0u64, 10u32), (1, 11), (2, 12)] {
            assert_eq!(c.acquire(P, span(i * 4 * PG, 4 * PAGE_SIZE)), None);
            c.admit(P, span(i * 4 * PG, 4 * PAGE_SIZE), h);
        }
        // Only 10 and 12 released; 11 stays in use.
        c.release(10).unwrap();
        c.release(12).unwrap();
        assert_eq!(c.cached_pages(), 12);
        // Victim must be 10 (oldest idle), leaving 8 pages.
        assert_eq!(c.evict_over_budget(), vec![10]);
        assert_eq!(c.cached_pages(), 8);
        // Covering lookups no longer see the evicted span.
        assert_eq!(c.acquire(P, span(0, PAGE_SIZE)), None);
        c.release(11).unwrap();
    }

    #[test]
    fn drain_idle_leaves_users() {
        let mut c: CoveringLru<u32> = CoveringLru::new(64);
        c.acquire(P, span(0, PAGE_SIZE));
        c.admit(P, span(0, PAGE_SIZE), 1);
        c.acquire(P, span(4 * PG, PAGE_SIZE));
        c.admit(P, span(4 * PG, PAGE_SIZE), 2);
        c.release(2).unwrap();
        assert_eq!(c.drain_idle(), vec![2]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.cached_pages(), 1);
        c.release(1).unwrap();
    }

    #[test]
    fn evict_pages_makes_room_below_the_budget() {
        let mut c: CoveringLru<u32> = CoveringLru::new(64);
        for (i, h) in [(0u64, 10u32), (1, 11), (2, 12)] {
            c.acquire(P, span(i * 4 * PG, 4 * PAGE_SIZE));
            c.admit(P, span(i * 4 * PG, 4 * PAGE_SIZE), h);
        }
        c.release(10).unwrap();
        c.release(11).unwrap();
        assert_eq!(c.in_use(), 1);
        // 12 of 64 pages cached: nothing is over budget…
        assert!(c.evict_over_budget().is_empty());
        // …yet five pages of room cost the two oldest idle entries.
        assert_eq!(c.evict_pages(5), vec![10, 11]);
        assert_eq!(c.cached_pages(), 4);
        // Only the in-use entry is left: no room to make.
        assert!(c.evict_pages(1).is_empty());
        c.release(12).unwrap();
    }

    #[test]
    fn forget_pid_drops_busy_and_idle_entries_of_that_pid_only() {
        let other = Pid(2);
        let mut c: CoveringLru<u32> = CoveringLru::new(64);
        c.acquire(P, span(0, PAGE_SIZE));
        c.admit(P, span(0, PAGE_SIZE), 1); // stays in use
        c.acquire(P, span(4 * PG, 2 * PAGE_SIZE));
        c.admit(P, span(4 * PG, 2 * PAGE_SIZE), 2);
        c.release(2).unwrap(); // idle
        c.acquire(other, span(0, PAGE_SIZE));
        c.admit(other, span(0, PAGE_SIZE), 3);
        c.release(3).unwrap();
        c.forget_pid(P);
        assert_eq!((c.len(), c.cached_pages(), c.in_use()), (1, 1, 0));
        assert_eq!(c.stats().evictions, 0, "forgotten, not evicted");
        assert_eq!(c.release(1), Err(CacheReleaseError::UnknownHandle));
        assert_eq!(c.acquire(P, span(0, PAGE_SIZE)), None);
        assert_eq!(c.drain_idle(), vec![3]);
    }

    #[test]
    fn reacquire_after_idle_restores_eviction_order() {
        let mut c: CoveringLru<u32> = CoveringLru::new(2);
        c.acquire(P, span(0, PAGE_SIZE));
        c.admit(P, span(0, PAGE_SIZE), 1);
        c.acquire(P, span(4 * PG, PAGE_SIZE));
        c.admit(P, span(4 * PG, PAGE_SIZE), 2);
        c.release(1).unwrap();
        c.release(2).unwrap();
        // Touch 1 again: 2 becomes the LRU victim.
        assert_eq!(c.acquire(P, span(0, PAGE_SIZE)), Some(1));
        c.release(1).unwrap();
        c.acquire(P, span(8 * PG, PAGE_SIZE));
        c.admit(P, span(8 * PG, PAGE_SIZE), 3);
        c.release(3).unwrap();
        assert_eq!(c.evict_over_budget(), vec![2]);
    }
}
