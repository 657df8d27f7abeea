//! Differential test of the progress engine: `Comm::progress`, which reads
//! only the live sends whose response record was written since their last
//! read, against the engine it replaced, which read every live send on
//! every round and survives as `Comm::visit_every_send`.
//!
//! Twin communicators — the second with `visit_every_send` set — are driven
//! through the same seeded sequence of sends (all three protocols),
//! budgeted receives from one source or any, `test`, `wait`, bare
//! `progress` and one `retire_rank`, and after **every** step everything
//! the engine can influence must be identical: the step's result, the
//! received bytes, `MsgStats` except `progress_visits` (the one number
//! that is meant to differ), the live-send count, every node's NIC counters
//! and every node's registration-cache counters. A quarter of the seeds
//! overrun a completion queue once, so the discard path runs too.
//!
//! Each rank sends from several buffers into a registration cache smaller
//! than their sum, so the order in which finished sends give their
//! registrations back decides what the cache evicts: visiting the same
//! sends in another order shows in the cache counters.

#![cfg(test)]

use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmem::{KernelConfig, VirtAddr, PAGE_SIZE};
use vialock::{fault, FaultPlan, FaultSite, StrategyKind};

use crate::comm::{Comm, RankId, SendHandle, ANY_TAG};
use crate::{MsgConfig, MsgStats};

const SEEDS: u64 = 16;
const STEPS: usize = 300;
/// Send buffers per rank.
const BUFS: usize = 3;
/// Largest message: three pages, zero-copy under `MsgConfig::tiny()`.
const MAX_LEN: usize = 3 * PAGE_SIZE;
const TAGS: [u32; 3] = [1, 2, 3];

/// A send the harness made, or tried to: a one-copy launch that fails
/// after its announcement leaves a message behind without a handle.
struct Sent {
    handles: Option<[SendHandle; 2]>,
    from: RankId,
    to: RankId,
    len: usize,
    consumed: bool,
}

#[derive(Default, Debug)]
struct Coverage {
    consumed: u64,
    waited: u64,
    retired: u64,
    errors: u64,
    cq_overruns: u64,
}

struct Twins {
    /// `[marks, reference]`.
    c: [Comm; 2],
    nodes: usize,
    sbufs: Vec<[VirtAddr; BUFS]>,
    rbufs: Vec<VirtAddr>,
    sent: Vec<Sent>,
    retired: Option<RankId>,
    rng: StdRng,
    cov: Coverage,
    /// Seed and step, for the assertion messages.
    at: String,
}

impl Twins {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let ranks = rng.random_range(3..5usize);
        let nodes = rng.random_range(2..ranks + 1);
        let mut cfg = MsgConfig::tiny();
        // Room for two of a rank's three largest buffers.
        cfg.cache_pages = 2 * MAX_LEN / PAGE_SIZE + 1;
        let c = [false, true].map(|reference| {
            let mut c = Comm::new(
                ranks,
                nodes,
                KernelConfig::medium(),
                StrategyKind::KiobufReliable,
                cfg,
            )
            .unwrap();
            c.visit_every_send = reference;
            if seed % 4 == 3 {
                let plan = FaultPlan::new(seed).fail_after(FaultSite::CqOverrun, seed * 2, 1);
                c.system_mut().install_fault_plan(&fault::handle(plan));
            }
            c
        });
        let mut t = Twins {
            c,
            nodes,
            sbufs: Vec::new(),
            rbufs: Vec::new(),
            sent: Vec::new(),
            retired: None,
            rng,
            cov: Coverage::default(),
            at: format!("seed {seed}, setup"),
        };
        for r in 0..ranks {
            let pattern: Vec<u8> = (0..MAX_LEN).map(|i| (i * 31 + r * 7) as u8).collect();
            let sbufs = [0, 1, 2].map(|shift| {
                let [a, b] = t.both(|c, _| {
                    let addr = c.alloc_buffer(r, MAX_LEN)?;
                    c.fill_buffer(r, addr, &pattern[shift..])?;
                    Ok::<_, via::ViaError>(addr)
                });
                assert_eq!(a, b, "buffers at the same addresses");
                a.unwrap()
            });
            t.sbufs.push(sbufs);
            let [a, b] = t.both(|c, _| c.alloc_buffer(r, MAX_LEN));
            assert_eq!(a, b);
            t.rbufs.push(a.unwrap());
        }
        t
    }

    /// Run `op` on both communicators (the second argument is the side).
    fn both<T>(&mut self, mut op: impl FnMut(&mut Comm, usize) -> T) -> [T; 2] {
        let [a, b] = &mut self.c;
        [op(a, 0), op(b, 1)]
    }

    /// The two outcomes of one step must agree.
    fn same<T: PartialEq + Debug>(&self, [a, b]: &[T; 2], what: &str) {
        assert_eq!(a, b, "{}: {what} answered differently", self.at);
    }

    fn n_ranks(&self) -> usize {
        self.c[0].n_ranks()
    }

    /// A rank, alive nine times in ten.
    fn rank(&mut self) -> RankId {
        let r = self.rng.random_range(0..self.n_ranks());
        if Some(r) == self.retired && self.rng.random_range(0u32..10) != 0 {
            return (r + 1) % self.n_ranks();
        }
        r
    }

    /// Two distinct ranks.
    fn two_ranks(&mut self) -> (RankId, RankId) {
        let a = self.rank();
        let b = (a + self.rng.random_range(1..self.n_ranks())) % self.n_ranks();
        (a, b)
    }

    fn step(&mut self, step: usize) -> &'static str {
        match self.rng.random_range(0u32..100) {
            0..=34 => self.send(),
            35..=62 => self.recv(),
            63..=75 => self.recv_any(),
            76..=85 => self.test(),
            86..=93 => self.wait(),
            94..=96 => {
                let r = self.both(|c, _| c.progress());
                self.same(&r, "progress");
                "progress"
            }
            97..=98 if self.retired.is_none() && step > STEPS / 4 => {
                let r = self.rank();
                let out = self.both(|c, _| c.retire_rank(r));
                self.same(&out, "retire_rank");
                self.retired = Some(r);
                self.cov.retired += 1;
                "retire_rank"
            }
            _ => "idle",
        }
    }

    fn send(&mut self) -> &'static str {
        let (from, to) = self.two_ranks();
        // A length no unconsumed message of the pair has, so a receive's
        // length names the send it consumed.
        let len = loop {
            let len = match self.rng.random_range(0u32..10) {
                0..=3 => self.rng.random_range(1..513usize),
                4..=6 => self.rng.random_range(513..2049usize),
                _ => self.rng.random_range(4097..MAX_LEN + 1),
            };
            if !self
                .sent
                .iter()
                .any(|s| !s.consumed && (s.from, s.to, s.len) == (from, to, len))
            {
                break len;
            }
        };
        let tag = TAGS[self.rng.random_range(0..TAGS.len())];
        let buf = self.sbufs[from][self.rng.random_range(0..BUFS)];
        let r = self.both(|c, _| c.send(from, to, tag, buf, len));
        let outcome = [0, 1].map(|i| r[i].as_ref().map(|_| ()).map_err(Clone::clone));
        self.same(&outcome, "send");
        let handles = match r {
            [Ok(a), Ok(b)] => Some([a, b]),
            _ => None,
        };
        self.sent.push(Sent {
            handles,
            from,
            to,
            len,
            consumed: false,
        });
        "send"
    }

    /// `at` received `len` bytes from `from`: compare what landed and
    /// remember which send it was.
    fn received(&mut self, from: RankId, at: RankId, len: usize) {
        let rbuf = self.rbufs[at];
        let landed = self.both(|c, _| {
            let mut out = vec![0u8; len];
            c.read_buffer(at, rbuf, &mut out).map(|()| out)
        });
        self.same(&landed, "the received bytes");
        if let Some(s) = self
            .sent
            .iter_mut()
            .find(|s| !s.consumed && (s.from, s.to, s.len) == (from, at, len))
        {
            s.consumed = true;
            self.cov.consumed += 1;
        }
    }

    fn recv(&mut self) -> &'static str {
        let (at, from) = self.two_ranks();
        let tag = match self.rng.random_range(0..TAGS.len() + 1) {
            0 => ANY_TAG,
            t => TAGS[t - 1],
        };
        let buf_len = if self.rng.random_range(0u32..10) == 0 {
            256
        } else {
            MAX_LEN
        };
        let budget = self.rng.random_range(1..5usize);
        let rbuf = self.rbufs[at];
        let r = self.both(|c, _| c.recv_budget(at, from, tag, rbuf, buf_len, budget));
        self.same(&r, "recv_budget");
        if let [Ok(len), _] = r {
            self.received(from, at, len);
        }
        "recv_budget"
    }

    fn recv_any(&mut self) -> &'static str {
        let at = self.rank();
        let tag = match self.rng.random_range(0..TAGS.len() + 1) {
            0 => ANY_TAG,
            t => TAGS[t - 1],
        };
        let budget = self.rng.random_range(1..5usize);
        let rbuf = self.rbufs[at];
        let r = self.both(|c, _| c.recv_any_budget(at, tag, rbuf, MAX_LEN, budget));
        self.same(&r, "recv_any_budget");
        if let [Ok((from, len)), _] = r {
            self.received(from, at, len);
        }
        "recv_any_budget"
    }

    /// A random handle among the sends that match `keep`.
    fn pick(&mut self, keep: impl Fn(&Sent) -> bool) -> Option<[SendHandle; 2]> {
        let candidates: Vec<[SendHandle; 2]> = self
            .sent
            .iter()
            .filter(|s| keep(s))
            .filter_map(|s| s.handles)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[self.rng.random_range(0..candidates.len())])
    }

    fn test(&mut self) -> &'static str {
        let Some(h) = self.pick(|_| true) else {
            return "idle";
        };
        let r = self.both(|c, i| c.test(h[i]));
        self.same(&r, "test");
        "test"
    }

    /// Wait for a send whose message was received: a send nobody receives
    /// would spin the reference through the whole wait bound.
    fn wait(&mut self) -> &'static str {
        let Some(h) = self.pick(|s| s.consumed) else {
            return "idle";
        };
        let r = self.both(|c, i| c.wait(h[i]));
        self.same(&r, "wait");
        self.cov.waited += 1;
        "wait"
    }

    /// Everything the engine can influence, on both sides.
    fn assert_same(&mut self, what: &str) {
        self.at = format!("{} ({what})", self.at);
        let stats = self.both(|c, _| MsgStats {
            progress_visits: 0,
            ..c.stats
        });
        self.same(&stats, "MsgStats");
        let in_flight = self.both(|c, _| c.in_flight());
        self.same(&in_flight, "in_flight");
        for n in 0..self.nodes {
            let nic = self.both(|c, _| format!("{:?}", c.nic_stats(n)));
            self.same(&nic, "nic_stats");
            let cache = self.both(|c, _| (c.cache_stats(n), c.cache_in_use(n)));
            self.same(&cache, "cache stats");
        }
    }
}

#[test]
fn marked_progress_matches_visiting_every_send() {
    let mut total = Coverage::default();
    let (mut stats, mut reference_visits) = (MsgStats::default(), 0);
    for seed in 0..SEEDS {
        let mut t = Twins::new(seed);
        for step in 0..STEPS {
            t.at = format!("seed {seed}, step {step}");
            let what = t.step(step);
            t.assert_same(what);
        }
        for c in &mut t.c {
            c.system_mut()
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        t.cov.errors = t.sent.iter().filter(|s| s.handles.is_none()).count() as u64;
        t.cov.cq_overruns = (0..t.nodes).map(|n| t.c[0].nic_stats(n).cq_overruns).sum();
        total.consumed += t.cov.consumed;
        total.waited += t.cov.waited;
        total.retired += t.cov.retired;
        total.errors += t.cov.errors;
        total.cq_overruns += t.cov.cq_overruns;
        let s = t.c[0].stats;
        stats.sm_msgs += s.sm_msgs;
        stats.oc_msgs += s.oc_msgs;
        stats.zc_msgs += s.zc_msgs;
        stats.progress_visits += s.progress_visits;
        reference_visits += t.c[1].stats.progress_visits;
    }
    println!(
        "{total:?}; sm {} oc {} zc {}; progress visits {} (reference {reference_visits})",
        stats.sm_msgs, stats.oc_msgs, stats.zc_msgs, stats.progress_visits
    );
    // The property is vacuous unless every protocol ran, messages were
    // received and waited for, a rank was retired and a CQ overran.
    assert!(
        stats.sm_msgs > 300 && stats.oc_msgs > 200 && stats.zc_msgs > 200,
        "{stats:?}"
    );
    assert!(total.consumed > 500 && total.waited > 100, "{total:?}");
    assert!(total.retired >= SEEDS / 2, "{total:?}");
    assert!(total.cq_overruns > 0 && total.errors > 0, "{total:?}");
    assert!(stats.progress_visits * 5 < reference_visits);
}

/// The bound the marks buy: a send nobody answers is never read, however
/// often the engine runs.
#[test]
fn unanswered_sends_cost_no_reads() {
    let mut c = Comm::new(
        9,
        3,
        KernelConfig::medium(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .unwrap();
    // 30 sends parked toward rank 0, which never receives.
    for i in 0..30 {
        let from = 1 + i % 8;
        let buf = c.alloc_buffer(from, 64).unwrap();
        c.send(from, 0, 1, buf, 64).unwrap();
    }
    assert_eq!(c.in_flight(), 30);
    let rbuf = c.alloc_buffer(1, 64).unwrap();
    let misses = |c: &mut Comm| {
        let before = c.stats.progress_visits;
        for _ in 0..1_000 {
            assert!(c.recv_budget(1, 2, 1, rbuf, 64, 1).is_err());
        }
        c.stats.progress_visits - before
    };
    assert_eq!(misses(&mut c), 0, "1 000 empty rounds read nothing");
    c.visit_every_send = true;
    assert_eq!(
        misses(&mut c),
        30_000,
        "the reference reads all 30 each round"
    );
}
