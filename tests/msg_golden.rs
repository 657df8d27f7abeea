//! Behaviour pin for the message layer: the benchmark's `msg_reuse` and
//! `msg_fresh` shapes at their smoke size, seed 7, with every delivered
//! payload compared byte for byte and **exact** registration-cache counters.
//!
//! Both shapes run two ranks on two `KernelConfig::large()` nodes under
//! `StrategyKind::KiobufReliable`, and draw buffer contents, the pool
//! permutation and the checked refills from the ruler's SplitMix64 stream
//! in the ruler's order, so the timed-region counters below are the ones
//! `benchmark run --workload msg_reuse|msg_fresh --seed 7 --trace 1 --smoke`
//! records.
//!
//! * **reuse** cycles 64 B, 32 KiB and 256 KiB over the same three buffer
//!   pairs: after the first cycle the registration cache only hits.
//! * **fresh** walks 32 buffers of 256 KiB per rank, twice the
//!   1 024-page cache budget, in a fixed permutation: every acquire misses
//!   and evicts.
//!
//! The numbers were recorded at a346103. A change that moves any of them
//! has changed which buffers the caches register or evict, not just what
//! that costs.

use std::collections::HashMap;

use msg::{Comm, MsgConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use simmem::{KernelConfig, VirtAddr, PAGE_SIZE};
use vialock::StrategyKind;

const SEED: u64 = 7;
const SM_BYTES: usize = 64;
const OC_BYTES: usize = 32 * 1024;
const ZC_BYTES: usize = 256 * 1024;
/// `msg_fresh`'s cache budget, in pages per node.
const CACHE_PAGES: usize = 1024;
/// `msg_fresh`'s buffers per rank: their pages are twice the budget.
const POOL: usize = 2 * CACHE_PAGES * PAGE_SIZE / ZC_BYTES;
/// Timed batches of a smoke run (`Params::ops(3000, CHECK_EVERY)`).
const BATCHES: u64 = 64;
const WARM: u64 = BATCHES / 10 + 1;
/// Every `CHECK_EVERY`-th batch refills its source buffers with fresh bytes.
const CHECK_EVERY: u64 = 64;

/// The ruler's stream: SplitMix64 from the seed itself.
struct Rng(StdRng);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for chunk in out.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        out
    }

    /// Fisher–Yates permutation of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// What the caches did, summed over both nodes.
#[derive(Debug, PartialEq)]
struct Counts {
    registrations: u64,
    pages_registered: u64,
    cache_hits: u64,
    evictions: u64,
}

vialock::impl_since!(Counts {
    registrations,
    pages_registered,
    cache_hits,
    evictions,
});

/// A communicator and what every buffer it carried must now hold.
struct Run {
    c: Comm,
    rng: Rng,
    expect: HashMap<(usize, VirtAddr), Vec<u8>>,
    messages: u64,
}

impl Run {
    fn new(cfg: MsgConfig) -> Self {
        let c = Comm::new(
            2,
            2,
            KernelConfig::large(),
            StrategyKind::KiobufReliable,
            cfg,
        )
        .unwrap();
        Run {
            c,
            rng: Rng(StdRng::seed_from_u64(SEED)),
            expect: HashMap::new(),
            messages: 0,
        }
    }

    /// Write fresh seeded bytes over `rank`'s buffer at `addr`.
    fn fill(&mut self, rank: usize, addr: VirtAddr, len: usize) {
        let bytes = self.rng.bytes(len);
        self.c.fill_buffer(rank, addr, &bytes).unwrap();
        self.expect.insert((rank, addr), bytes);
    }

    /// Allocate `len` bytes in `rank` and fill them.
    fn buffer(&mut self, rank: usize, len: usize) -> VirtAddr {
        let addr = self.c.alloc_buffer(rank, len).unwrap();
        self.fill(rank, addr, len);
        addr
    }

    /// One message `from → to`: the whole length arrives and every byte of
    /// it is the sender's.
    fn message(&mut self, from: (usize, VirtAddr), to: (usize, VirtAddr), len: usize) {
        let h = self.c.send(from.0, to.0, 1, from.1, len).unwrap();
        let got = self.c.recv(to.0, from.0, 1, to.1, len).unwrap();
        self.c.wait(h).unwrap();
        assert_eq!(got, len, "message {}: short delivery", self.messages);
        let sent = self.expect[&from].clone();
        let mut landed = vec![0u8; len];
        self.c.read_buffer(to.0, to.1, &mut landed).unwrap();
        assert!(
            landed == sent,
            "message {}: {len} B {from:?} → {to:?} landed different bytes",
            self.messages
        );
        self.expect.insert(to, sent);
        self.messages += 1;
    }

    fn counts(&self) -> Counts {
        let s = self.c.stats;
        Counts {
            registrations: s.registrations,
            pages_registered: s.pages_registered,
            cache_hits: s.cache_hits,
            evictions: (0..2).map(|n| self.c.cache_stats(n).evictions).sum(),
        }
    }

    fn audit(&mut self) {
        self.c.system_mut().check_invariants().unwrap();
    }
}

#[test]
fn msg_reuse_golden_counts() {
    let mut r = Run::new(MsgConfig::classic());
    let mut pairs = Vec::new();
    for len in [SM_BYTES, OC_BYTES, ZC_BYTES] {
        let a = r.buffer(0, len);
        let b = r.buffer(1, len);
        pairs.push((len, a, b));
    }
    let cycle = |r: &mut Run| {
        for &(len, a, b) in &pairs {
            r.message((0, a), (1, b), len);
            r.message((1, b), (0, a), len);
        }
    };
    for _ in 0..WARM {
        cycle(&mut r);
    }
    let warm = r.counts();
    for batch in 0..BATCHES {
        if batch % CHECK_EVERY == 0 {
            for &(len, a, _) in &pairs {
                r.fill(0, a, len);
            }
        }
        cycle(&mut r);
    }
    let timed = r.counts().since(&warm);
    r.audit();
    assert_eq!(r.messages, 6 * (WARM + BATCHES));
    assert_eq!(
        warm,
        Counts {
            registrations: 4,
            pages_registered: 144,
            cache_hits: 38,
            evictions: 0,
        }
    );
    // Warm-up registered the four buffers above 8 KiB once; now the cache
    // only hits.
    assert_eq!(
        timed,
        Counts {
            registrations: 0,
            pages_registered: 0,
            cache_hits: 384,
            evictions: 0,
        }
    );
}

#[test]
fn msg_fresh_golden_counts() {
    let mut r = Run::new(MsgConfig {
        cache_pages: CACHE_PAGES,
        ..MsgConfig::classic()
    });
    let pool: Vec<Vec<VirtAddr>> = (0..2)
        .map(|rank| (0..POOL).map(|_| r.buffer(rank, ZC_BYTES)).collect())
        .collect();
    let order = r.rng.permutation(POOL);
    let ping = |i: u64| order[i as usize % POOL];
    let pong = |i: u64| order[(i as usize + POOL / 2) % POOL];
    let round_trip = |r: &mut Run, i: u64| {
        let (k, q) = (ping(i), pong(i));
        r.message((0, pool[0][k]), (1, pool[1][k]), ZC_BYTES);
        r.message((1, pool[1][q]), (0, pool[0][q]), ZC_BYTES);
    };
    for i in 0..WARM {
        round_trip(&mut r, i);
    }
    let warm = r.counts();
    for batch in 0..BATCHES {
        let i = WARM + batch;
        if batch % CHECK_EVERY == 0 {
            r.fill(0, pool[0][ping(i)], ZC_BYTES);
        }
        round_trip(&mut r, i);
    }
    let timed = r.counts().since(&warm);
    r.audit();
    assert_eq!(r.messages, 2 * (WARM + BATCHES));
    assert_eq!(
        warm,
        Counts {
            registrations: 28,
            pages_registered: 1792,
            cache_hits: 0,
            evictions: 0,
        }
    );
    // Every acquire misses: two registrations a message, none of them a hit.
    assert_eq!(
        timed,
        Counts {
            registrations: 256,
            pages_registered: 16384,
            cache_hits: 0,
            evictions: 252,
        }
    );
}
