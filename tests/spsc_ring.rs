//! The SPSC wire ring on its own: single-thread edge cases (wraparound,
//! full, empty, close races), a two-thread producer/consumer stress run,
//! and a differential that replays a random op sequence against a
//! `VecDeque` oracle. The threaded-cluster matrix exercises the ring
//! in situ; these tests pin its contract down in isolation.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use check::diff::{self, cases, vec_of, Side};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use via::spsc::{ring, Consumer, Doorbell, PopError, Producer, PushError};

// ---------------------------------------------------------------------
// Single-thread edge cases
// ---------------------------------------------------------------------

#[test]
fn wraparound_many_times_preserves_fifo() {
    // Capacity 8, 1000 items: the cursors wrap the ring 125 times and
    // cross several batch boundaries per lap.
    let (mut p, mut c) = ring::<u32>(8);
    let mut next_out = 0u32;
    for i in 0..1000u32 {
        p.push(i).unwrap();
        if i % 3 == 0 {
            // Drain in bursts so occupancy varies across the lap.
            while let Ok(v) = c.pop() {
                assert_eq!(v, next_out, "FIFO order broken");
                next_out += 1;
            }
        }
    }
    while let Ok(v) = c.pop() {
        assert_eq!(v, next_out);
        next_out += 1;
    }
    assert_eq!(next_out, 1000);
}

#[test]
fn full_ring_rejects_and_returns_the_value() {
    let (mut p, mut c) = ring::<String>(4);
    for i in 0..4 {
        p.push(format!("item-{i}")).unwrap();
    }
    match p.push("overflow".to_string()) {
        Err(PushError::Full(v)) => assert_eq!(v, "overflow"),
        other => panic!("expected Full, got {other:?}"),
    }
    // One pop frees exactly one slot.
    assert_eq!(c.pop().unwrap(), "item-0");
    p.push("fits-now".to_string()).unwrap();
    match p.push("overflow-again".to_string()) {
        Err(PushError::Full(v)) => assert_eq!(v, "overflow-again"),
        other => panic!("expected Full, got {other:?}"),
    }
}

#[test]
fn empty_ring_reports_empty_not_closed() {
    let (mut p, mut c) = ring::<u8>(4);
    assert!(matches!(c.pop(), Err(PopError::Empty)));
    p.push(9).unwrap();
    assert_eq!(c.pop().unwrap(), 9);
    assert!(matches!(c.pop(), Err(PopError::Empty)));
}

#[test]
fn capacity_rounds_up_to_power_of_two() {
    let (p, _c) = ring::<u8>(5);
    assert_eq!(p.capacity(), 8);
    let (p, _c) = ring::<u8>(1);
    assert_eq!(p.capacity(), 2);
}

#[test]
fn deferred_pushes_invisible_until_publish() {
    let (mut p, mut c) = ring::<u32>(8);
    p.push_deferred(1).unwrap();
    p.push_deferred(2).unwrap();
    assert!(
        matches!(c.pop(), Err(PopError::Empty)),
        "deferred slots leaked before the publish"
    );
    assert_eq!(p.publish(), 2);
    assert_eq!(c.pop().unwrap(), 1);
    assert_eq!(c.pop().unwrap(), 2);
}

#[test]
fn producer_close_publishes_pending_then_closes() {
    let (mut p, mut c) = ring::<u32>(8);
    p.push_deferred(41).unwrap();
    p.push_deferred(42).unwrap();
    drop(p); // close() publishes the deferred batch first
    assert_eq!(c.pop().unwrap(), 41);
    assert_eq!(c.pop().unwrap(), 42);
    assert!(matches!(c.pop(), Err(PopError::Closed)));
}

#[test]
fn consumer_close_surfaces_on_next_push() {
    let (mut p, c) = ring::<u32>(8);
    p.push(1).unwrap();
    drop(c);
    match p.push(2) {
        Err(PushError::Closed(v)) => assert_eq!(v, 2),
        other => panic!("expected Closed, got {other:?}"),
    }
    assert!(p.is_closed());
}

// ---------------------------------------------------------------------
// Two-thread stress
// ---------------------------------------------------------------------

/// A real producer thread against a real consumer thread through a
/// small ring: every value arrives exactly once, in order, under
/// genuine concurrency (with backoff on both sides so a single-core
/// host makes progress).
#[test]
fn stress_two_threads_fifo_exactly_once() {
    const N: u64 = 50_000;
    let (mut p, mut c) = ring::<u64>(64);
    let bell = Arc::new(Doorbell::default());
    let bell_rx = Arc::clone(&bell);

    let producer = std::thread::spawn(move || {
        let mut v = 0u64;
        while v < N {
            match p.push(v) {
                Ok(()) => {
                    bell.ring();
                    v += 1;
                }
                Err(PushError::Full(_)) => std::thread::yield_now(),
                Err(PushError::Closed(_)) => panic!("consumer died early"),
            }
        }
    });

    let consumer = std::thread::spawn(move || {
        let mut expect = 0u64;
        loop {
            let observed = bell_rx.events();
            match c.pop() {
                Ok(v) => {
                    assert_eq!(v, expect, "reordered or duplicated");
                    expect += 1;
                    if expect == N {
                        return;
                    }
                }
                Err(PopError::Empty) => {
                    bell_rx.wait(observed, Duration::from_millis(1));
                }
                Err(PopError::Closed) => {
                    assert_eq!(expect, N, "producer closed early");
                    return;
                }
            }
        }
    });

    producer.join().unwrap();
    consumer.join().unwrap();
}

/// Batched publishes under concurrency: the consumer must never observe
/// a partially published batch (a value it can pop implies every earlier
/// value of the batch was poppable before it).
#[test]
fn stress_batched_publish_is_atomic_per_flush() {
    const BATCHES: u64 = 5_000;
    const BATCH: u64 = 7;
    let (mut p, mut c) = ring::<u64>(64);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_p = Arc::clone(&stop);

    let producer = std::thread::spawn(move || {
        let mut v = 0u64;
        for _ in 0..BATCHES {
            let mut queued = 0u64;
            while queued < BATCH {
                match p.push_deferred(v) {
                    Ok(()) => {
                        v += 1;
                        queued += 1;
                    }
                    Err(PushError::Full(_)) => {
                        p.publish();
                        std::thread::yield_now();
                    }
                    Err(PushError::Closed(_)) => panic!("consumer died early"),
                }
            }
            p.publish();
        }
        stop_p.store(true, Ordering::Release);
    });

    let consumer = std::thread::spawn(move || {
        let mut expect = 0u64;
        loop {
            match c.pop() {
                Ok(v) => {
                    assert_eq!(v, expect, "gap inside a published batch");
                    expect += 1;
                }
                Err(PopError::Empty) => {
                    if stop.load(Ordering::Acquire) && c.is_empty() {
                        break;
                    }
                    std::thread::yield_now();
                }
                Err(PopError::Closed) => break,
            }
        }
        // Whatever the producer published before closing, we saw a
        // contiguous prefix of it.
        while let Ok(v) = c.pop() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, BATCHES * BATCH);
    });

    producer.join().unwrap();
    consumer.join().unwrap();
}

// ---------------------------------------------------------------------
// Differential against a VecDeque oracle
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RingOp {
    Push(u16),
    PushDeferred(u16),
    Publish,
    Pop,
    /// Drop the producer and drain the consumer; always the last op.
    Close,
}

fn ring_op(rng: &mut StdRng) -> RingOp {
    match rng.random_range(0..4usize) {
        0 => RingOp::Push(rng.next_u64() as u16),
        1 => RingOp::PushDeferred(rng.next_u64() as u16),
        2 => RingOp::Publish,
        _ => RingOp::Pop,
    }
}

#[derive(Debug, PartialEq)]
enum Out {
    Pushed(Result<(), u16>),
    Published(usize),
    Popped(Result<u16, PopError>),
    /// What the consumer drains after the close, and how it ends.
    Drained(Vec<u16>, PopError),
}

/// The ring under test, and its capacity.
struct Ring(Option<Producer<u16>>, Consumer<u16>, usize);

impl Side<RingOp, Out, (usize, usize)> for Ring {
    fn apply(&mut self, op: &RingOp) -> Out {
        let p = self.0.as_mut();
        let refused = |e| match e {
            PushError::Full(v) => v,
            PushError::Closed(_) => panic!("nothing closed"),
        };
        match *op {
            RingOp::Push(v) => Out::Pushed(p.unwrap().push(v).map_err(refused)),
            RingOp::PushDeferred(v) => Out::Pushed(p.unwrap().push_deferred(v).map_err(refused)),
            RingOp::Publish => Out::Published(p.unwrap().publish()),
            RingOp::Pop => Out::Popped(self.1.pop()),
            RingOp::Close => {
                drop(self.0.take());
                let mut out = Vec::new();
                loop {
                    match self.1.pop() {
                        Ok(v) => out.push(v),
                        Err(e) => return Out::Drained(out, e),
                    }
                }
            }
        }
    }

    fn snapshot(&mut self) -> Result<(usize, usize), String> {
        Ok((self.2, self.1.len()))
    }
}

/// A VecDeque-based model tracking published and deferred items
/// separately.
struct Oracle {
    cap: usize,
    published: VecDeque<u16>,
    deferred: VecDeque<u16>,
}

impl Side<RingOp, Out, (usize, usize)> for Oracle {
    fn apply(&mut self, op: &RingOp) -> Out {
        let full = self.published.len() + self.deferred.len() == self.cap;
        match *op {
            RingOp::Push(v) | RingOp::PushDeferred(v) if full => Out::Pushed(Err(v)),
            RingOp::Push(v) => {
                // push = push_deferred + publish, so the deferred queue
                // publishes alongside it.
                self.published.append(&mut self.deferred);
                self.published.push_back(v);
                Out::Pushed(Ok(()))
            }
            RingOp::PushDeferred(v) => {
                self.deferred.push_back(v);
                Out::Pushed(Ok(()))
            }
            RingOp::Publish => {
                let n = self.deferred.len();
                self.published.append(&mut self.deferred);
                Out::Published(n)
            }
            RingOp::Pop => Out::Popped(self.published.pop_front().ok_or(PopError::Empty)),
            RingOp::Close => {
                // The consumer sees exactly the published prefix plus the
                // final deferred batch (close publishes it).
                self.published.append(&mut self.deferred);
                Out::Drained(self.published.drain(..).collect(), PopError::Closed)
            }
        }
    }

    fn snapshot(&mut self) -> Result<(usize, usize), String> {
        Ok((self.cap, self.published.len()))
    }
}

#[derive(Debug)]
struct Twins {
    cap: usize,
}

impl diff::Twins for Twins {
    type Op = RingOp;
    type Out = Out;
    type Snap = (usize, usize);
    type Left = Ring;
    type Right = Oracle;

    fn build(&self) -> (Ring, Oracle) {
        let (p, c) = ring::<u16>(self.cap);
        let cap = p.capacity();
        let oracle = Oracle {
            cap: self.cap,
            published: VecDeque::new(),
            deferred: VecDeque::new(),
        };
        (Ring(Some(p), c, cap), oracle)
    }
}

/// Replay a random op sequence, then a close, on the ring and on the
/// oracle: every push/pop outcome, every popped value and the occupancy
/// after every step must match.
#[test]
fn ring_matches_vecdeque_oracle() {
    let draw = |rng: &mut StdRng| Some((vec_of(rng, 1..120, ring_op), rng.random_range(1u32..5)));
    let name = "ring_matches_vecdeque_oracle";
    cases(name, 128, draw, |(mut ops, cap_exp)| {
        ops.push(RingOp::Close);
        diff::replay(&Twins { cap: 1 << cap_exp }, &ops);
    });
}
