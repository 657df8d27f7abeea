//! Differential test of the progress engine: `Comm::progress`, which reads
//! only the live sends whose response record was written since their last
//! read, against the engine it replaced, which read every live send on
//! every round and survives as `Comm::visit_every_send`. Driven by
//! [`check::diff`].
//!
//! Twin communicators — the second with `visit_every_send` set — run the
//! same seeded script of sends (all three protocols), budgeted receives
//! from one source or any, `test`, `wait`, bare `progress` and one
//! `retire_rank`, and after **every** step everything the engine can
//! influence must be identical: the step's result, the received bytes,
//! `MsgStats` except `progress_visits` (the one number that is meant to
//! differ), the live-send count, every node's NIC counters and every
//! node's registration-cache counters. Both pass `check_invariants` at
//! the end of every seed. A quarter of the seeds overrun a completion
//! queue once, so the discard path runs too.
//!
//! Each rank sends from several buffers into a registration cache smaller
//! than their sum, so the order in which finished sends give their
//! registrations back decides what the cache evicts: visiting the same
//! sends in another order shows in the cache counters.

#![cfg(test)]

use check::diff::{self, pick, Model, Side};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simmem::{KernelConfig, VirtAddr, PAGE_SIZE};
use via::{ViaError, ViaResult};
use vialock::{fault, CacheStats, FaultPlan, FaultSite, StrategyKind};

use crate::comm::{Comm, RankId, SendHandle, ANY_TAG};
use crate::{MsgConfig, MsgStats};

const SEEDS: u64 = 16;
const STEPS: usize = 300;
/// Send buffers per rank.
const BUFS: usize = 3;
/// Largest message: three pages, zero-copy under `MsgConfig::tiny()`.
const MAX_LEN: usize = 3 * PAGE_SIZE;
const TAGS: [u32; 3] = [1, 2, 3];

/// One step. `Test` and `Wait` name a send by its ordinal among the
/// script's sends; one that made no handle fails alike on both sides.
#[derive(Debug, Clone)]
enum Op {
    /// `(from, to, tag, send buffer, len)`.
    Send(RankId, RankId, u32, usize, usize),
    /// `(at, from, tag, buffer length, budget)`.
    Recv(RankId, RankId, u32, usize, usize),
    /// `(at, tag, budget)`.
    RecvAny(RankId, u32, usize),
    Test(usize),
    Wait(usize),
    Progress,
    Retire(RankId),
    Idle,
}

#[derive(Debug, PartialEq)]
enum Out {
    Sent(ViaResult<()>),
    /// A receive's `(source, length)`, and what landed if it succeeded.
    Got(ViaResult<(RankId, usize)>, Option<ViaResult<Vec<u8>>>),
    Answer(String),
}

/// A communicator, its buffers, and the handles of the sends it made.
struct Engine {
    c: Comm,
    nodes: usize,
    sbufs: Vec<[VirtAddr; BUFS]>,
    rbufs: Vec<VirtAddr>,
    sends: Vec<Option<SendHandle>>,
}

impl Engine {
    fn received(&mut self, at: RankId, r: ViaResult<(RankId, usize)>) -> Out {
        let landed = r.as_ref().ok().map(|&(_, len)| {
            let mut out = vec![0u8; len];
            self.c
                .read_buffer(at, self.rbufs[at], &mut out)
                .map(|()| out)
        });
        Out::Got(r, landed)
    }

    fn handle(&self, i: usize) -> ViaResult<SendHandle> {
        let h = self.sends.get(i).copied().flatten();
        h.ok_or(ViaError::BadState("no such send"))
    }
}

impl Side<Op, Out, Snap> for Engine {
    fn apply(&mut self, op: &Op) -> Out {
        let answer = |r: &dyn std::fmt::Debug| Out::Answer(format!("{r:?}"));
        match *op {
            Op::Send(from, to, tag, buf, len) => {
                let r = self.c.send(from, to, tag, self.sbufs[from][buf], len);
                self.sends.push(r.as_ref().ok().copied());
                Out::Sent(r.map(|_| ()))
            }
            Op::Recv(at, from, tag, len, budget) => {
                let r = self
                    .c
                    .recv_budget(at, from, tag, self.rbufs[at], len, budget);
                self.received(at, r.map(|len| (from, len)))
            }
            Op::RecvAny(at, tag, budget) => {
                let r = self
                    .c
                    .recv_any_budget(at, tag, self.rbufs[at], MAX_LEN, budget);
                self.received(at, r)
            }
            Op::Test(i) => answer(&self.handle(i).and_then(|h| self.c.test(h))),
            Op::Wait(i) => answer(&self.handle(i).and_then(|h| self.c.wait(h))),
            Op::Progress => answer(&self.c.progress()),
            Op::Retire(r) => answer(&self.c.retire_rank(r)),
            Op::Idle => answer(&()),
        }
    }

    fn snapshot(&mut self) -> Result<Snap, String> {
        Ok(Snap {
            stats: MsgStats {
                progress_visits: 0,
                ..self.c.stats
            },
            in_flight: self.c.in_flight(),
            nics: (0..self.nodes)
                .map(|n| format!("{:?}", self.c.nic_stats(n)))
                .collect(),
            caches: (0..self.nodes)
                .map(|n| (self.c.cache_stats(n), self.c.cache_in_use(n)))
                .collect(),
        })
    }
}

/// Everything the engine can influence.
#[derive(Debug, PartialEq)]
struct Snap {
    stats: MsgStats,
    in_flight: usize,
    nics: Vec<String>,
    caches: Vec<(CacheStats, usize)>,
}

#[derive(Debug)]
struct Twins {
    seed: u64,
}

impl Twins {
    /// `(ranks, nodes)`.
    fn shape(&self) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(!self.seed);
        let ranks = rng.random_range(3..5usize);
        (ranks, rng.random_range(2..ranks + 1))
    }
}

impl diff::Twins for Twins {
    type Op = Op;
    type Out = Out;
    type Snap = Snap;
    type Left = Engine;
    type Right = Engine;

    /// `[marks, reference]`.
    fn build(&self) -> (Engine, Engine) {
        let (ranks, nodes) = self.shape();
        let mut cfg = MsgConfig::tiny();
        // Room for two of a rank's three largest buffers.
        cfg.cache_pages = 2 * MAX_LEN / PAGE_SIZE + 1;
        let [a, b] = [false, true].map(|reference| {
            let kernel = KernelConfig::medium();
            let mut c = Comm::new(ranks, nodes, kernel, StrategyKind::KiobufReliable, cfg).unwrap();
            c.visit_every_send = reference;
            if self.seed % 4 == 3 {
                let plan = FaultPlan::new(self.seed);
                let plan = plan.fail_after(FaultSite::CqOverrun, self.seed * 2, 1);
                c.system_mut().install_fault_plan(&fault::handle(plan));
            }
            let (mut sbufs, mut rbufs) = (Vec::new(), Vec::new());
            for r in 0..ranks {
                let pattern: Vec<u8> = (0..MAX_LEN).map(|i| (i * 31 + r * 7) as u8).collect();
                sbufs.push([0, 1, 2].map(|shift| {
                    let addr = c.alloc_buffer(r, MAX_LEN).unwrap();
                    c.fill_buffer(r, addr, &pattern[shift..]).unwrap();
                    addr
                }));
                rbufs.push(c.alloc_buffer(r, MAX_LEN).unwrap());
            }
            Engine {
                c,
                nodes,
                sbufs,
                rbufs,
                sends: Vec::new(),
            }
        });
        assert_eq!(a.sbufs, b.sbufs, "buffers at the same addresses");
        (a, b)
    }
}

/// A send the script made, or tried to: a one-copy launch that fails
/// after its announcement leaves a message behind without a handle.
struct Sent {
    handle: bool,
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

struct Picture {
    ranks: usize,
    sent: Vec<Sent>,
    retired: Option<RankId>,
    cov: Coverage,
}

impl Picture {
    /// A rank, alive nine times in ten.
    fn rank(&self, rng: &mut StdRng) -> RankId {
        let r = rng.random_range(0..self.ranks);
        if Some(r) == self.retired && rng.random_range(0u32..10) != 0 {
            return (r + 1) % self.ranks;
        }
        r
    }

    /// Two distinct ranks.
    fn two_ranks(&self, rng: &mut StdRng) -> (RankId, RankId) {
        let a = self.rank(rng);
        (a, (a + rng.random_range(1..self.ranks)) % self.ranks)
    }

    fn tag(rng: &mut StdRng) -> u32 {
        match rng.random_range(0..TAGS.len() + 1) {
            0 => ANY_TAG,
            t => TAGS[t - 1],
        }
    }

    fn send(&self, rng: &mut StdRng) -> Op {
        let (from, to) = self.two_ranks(rng);
        // A length no unconsumed message of the pair has, so a receive's
        // length names the send it consumed.
        let len = loop {
            let len = match rng.random_range(0u32..10) {
                0..=3 => rng.random_range(1..513usize),
                4..=6 => rng.random_range(513..2049usize),
                _ => rng.random_range(4097..MAX_LEN + 1),
            };
            let pending = |s: &Sent| !s.consumed && (s.from, s.to, s.len) == (from, to, len);
            if !self.sent.iter().any(pending) {
                break len;
            }
        };
        let tag = TAGS[rng.random_range(0..TAGS.len())];
        Op::Send(from, to, tag, rng.random_range(0..BUFS), len)
    }

    /// The ordinal of a random send with a handle among those `keep`
    /// accepts.
    fn pick(&self, rng: &mut StdRng, keep: impl Fn(&Sent) -> bool) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.sent.len())
            .filter(|&i| self.sent[i].handle && keep(&self.sent[i]))
            .collect();
        pick(rng, &candidates)
    }
}

impl Model<Twins> for Picture {
    fn draw(&mut self, rng: &mut StdRng, step: usize) -> Op {
        match rng.random_range(0u32..100) {
            0..=34 => self.send(rng),
            35..=62 => {
                let ((at, from), tag) = (self.two_ranks(rng), Self::tag(rng));
                let len = [MAX_LEN, 256][(rng.random_range(0u32..10) == 0) as usize];
                Op::Recv(at, from, tag, len, rng.random_range(1..5usize))
            }
            63..=75 => {
                let (at, tag) = (self.rank(rng), Self::tag(rng));
                Op::RecvAny(at, tag, rng.random_range(1..5usize))
            }
            76..=85 => self.pick(rng, |_| true).map_or(Op::Idle, Op::Test),
            // Wait for a send whose message was received: a send nobody
            // receives would spin the reference through the whole wait
            // bound.
            86..=93 => self.pick(rng, |s| s.consumed).map_or(Op::Idle, Op::Wait),
            94..=96 => Op::Progress,
            97..=98 if self.retired.is_none() && step > STEPS / 4 => Op::Retire(self.rank(rng)),
            _ => Op::Idle,
        }
    }

    fn observe(&mut self, op: &Op, out: &Out) {
        match (op, out) {
            (&Op::Send(from, to, _, _, len), Out::Sent(r)) => self.sent.push(Sent {
                handle: r.is_ok(),
                from,
                to,
                len,
                consumed: false,
            }),
            (&Op::Recv(at, ..) | &Op::RecvAny(at, ..), Out::Got(Ok((from, len)), _)) => {
                let pending =
                    |s: &&mut Sent| !s.consumed && (s.from, s.to, s.len) == (*from, at, *len);
                if let Some(s) = self.sent.iter_mut().find(pending) {
                    s.consumed = true;
                    self.cov.consumed += 1;
                }
            }
            (Op::Wait(_), _) => self.cov.waited += 1,
            (&Op::Retire(r), _) => {
                self.retired = Some(r);
                self.cov.retired += 1;
            }
            _ => {}
        }
    }
}

#[test]
fn marked_progress_matches_visiting_every_send() {
    let mut total = Coverage::default();
    let (mut stats, mut reference_visits) = (MsgStats::default(), 0);
    diff::run(
        0..SEEDS,
        STEPS,
        |seed| {
            let twins = Twins { seed };
            let model = Picture {
                ranks: twins.shape().0,
                sent: Vec::new(),
                retired: None,
                cov: Coverage::default(),
            };
            (twins, model)
        },
        |twins, mut marks, mut reference, model| {
            for c in [&mut marks.c, &mut reference.c] {
                let audit = c.system_mut().check_invariants();
                audit.unwrap_or_else(|e| panic!("{twins:?}: {e}"));
            }
            let cov = model.cov;
            total.consumed += cov.consumed;
            total.waited += cov.waited;
            total.retired += cov.retired;
            total.errors += model.sent.iter().filter(|s| !s.handle).count() as u64;
            total.cq_overruns += (0..marks.nodes)
                .map(|n| marks.c.nic_stats(n).cq_overruns)
                .sum::<u64>();
            let s = marks.c.stats;
            stats.sm_msgs += s.sm_msgs;
            stats.oc_msgs += s.oc_msgs;
            stats.zc_msgs += s.zc_msgs;
            stats.progress_visits += s.progress_visits;
            reference_visits += reference.c.stats.progress_visits;
        },
    );
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
