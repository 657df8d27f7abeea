//! Lock-free bounded SPSC rings and the doorbell wakeup protocol — the
//! data plane of the threaded cluster.
//!
//! The per-node mpsc mailbox the cluster shipped with serialized every
//! producer through one channel (a lock, an allocation per batch, and a
//! futex wake per send). In the spirit of *Virtual-Link*, each
//! (producer, consumer) node pair instead owns a private bounded ring:
//! the producer writes packets directly into the consumer's queue with
//! plain stores and publishes them with **one release-store per flush**,
//! so a whole `ship_sends` batch costs a single atomic on the shared
//! cache line. Wakeups ride a per-node [`Doorbell`] — a compact event
//! counter whose slow path (a condvar) is only touched when the consumer
//! has actually parked, in the spirit of compact per-node signaling.
//!
//! Layout and ordering (the argument DESIGN.md §12 spells out in full):
//!
//! * `head` is the producer's publish cursor, `tail` the consumer's; both
//!   are monotonically increasing `u64`s indexed mod the power-of-two
//!   capacity, each on its own cache line ([`CachePadded`]).
//! * The producer keeps a **cached tail** and the consumer a **cached
//!   head**, refreshed from the shared atomics only when the cached view
//!   says full/empty — the fast path never loads the counterpart's line.
//! * Slot writes happen-before the `Release` store of `head`; the
//!   consumer's `Acquire` load of `head` therefore sees fully written
//!   slots. Symmetrically the consumer's `Release` store of `tail`
//!   happens-after the slot read, so the producer's `Acquire` refresh
//!   can safely reuse the slot.
//! * `closed` is a `Release`-stored flag either side sets on drop (the
//!   producer publishes its pending batch first). A pop on an empty ring
//!   re-checks `head` *after* observing `closed`, so a close can never
//!   hide items published just before it.
//!
//! The explicit [`PopError::Closed`] / [`PushError::Closed`] states
//! replace the channel-disconnect semantics the old transport relied on
//! for `PeerGone` detection.

use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Duration;

// The sync shim: std re-exports in normal builds; under `--cfg viamodel`
// the model checker's instrumented primitives, so `cargo test -p check`
// can exhaustively explore this module's interleavings (DESIGN.md §15).
use check::sync::cell::UnsafeCell;
use check::sync::{AtomicBool, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};

/// Pads and aligns a value to 128 bytes — two x86 cache lines, covering
/// the adjacent-line prefetcher — so the producer's and consumer's hot
/// cursors never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// Why a push was refused. The rejected value rides back to the caller
/// so a packet is never dropped by the transport itself.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring has no free slot (consumer lagging). Retry after the
    /// consumer drains, or treat as backpressure.
    Full(T),
    /// The consumer side is gone; no push will ever succeed again.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the value that was refused.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

/// Why a pop produced nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum PopError {
    /// Nothing published right now; more may arrive.
    Empty,
    /// The ring is empty *and* the producer side is gone: nothing will
    /// ever arrive again.
    Closed,
}

/// The shared core of one ring. Owned jointly by one [`Producer`] and
/// one [`Consumer`]; never touched by anyone else.
struct Ring<T> {
    /// Publish cursor: slots `< head` are visible to the consumer.
    head: CachePadded<AtomicU64>,
    /// Consume cursor: slots `< tail` are free for the producer.
    tail: CachePadded<AtomicU64>,
    /// Either endpoint dropped (or explicitly closed).
    closed: AtomicBool,
    /// `capacity` slots, `capacity` a power of two.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
}

// SAFETY: the producer only writes slots in `[head, tail + capacity)` and
// the consumer only reads slots in `[tail, head)`; the release/acquire
// pairs on `head` and `tail` order those accesses. Only one producer and
// one consumer exist (the handles are neither Clone nor Sync).
unsafe impl<T: Send> Sync for Ring<T> {}
// SAFETY: the ring owns its slots; moving the whole ring moves T values,
// which is safe exactly when T: Send.
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both handles are gone (Arc refcount hit zero), so the atomics
        // are exact: drain every published-but-unconsumed slot.
        // relaxed: `&mut self` proves exclusive access — the Arc refcount
        // decrement that dropped the last handle is the synchronization.
        let head = self.head.0.load(Ordering::Relaxed);
        // relaxed: same argument as `head` above.
        let mut tail = self.tail.0.load(Ordering::Relaxed);
        while tail != head {
            let idx = (tail & self.mask) as usize;
            self.slots[idx].with_mut(|p| {
                // SAFETY: slot was published and never consumed; we have
                // exclusive access in Drop.
                unsafe { (*p).assume_init_drop() }
            });
            tail += 1;
        }
    }
}

/// The producer endpoint of a bounded SPSC ring. Not `Clone`: single
/// producer is what makes the ring's plain stores sound.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Next slot to write (local; published to `ring.head` on
    /// [`Producer::publish`]).
    next: u64,
    /// Last value of `ring.head` we stored (so `publish` can skip the
    /// release-store when nothing is pending).
    published: u64,
    /// Cached view of `ring.tail`; refreshed only when apparently full.
    cached_tail: u64,
}

/// The consumer endpoint. Not `Clone`.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Next slot to read (local mirror of `ring.tail`).
    next: u64,
    /// Cached view of `ring.head`; refreshed only when apparently empty.
    cached_head: u64,
}

/// A bounded lock-free SPSC ring of `capacity` slots (rounded up to a
/// power of two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two() as u64;
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
        slots,
        mask: cap - 1,
    });
    (
        Producer {
            ring: Arc::clone(&ring),
            next: 0,
            published: 0,
            cached_tail: 0,
        },
        Consumer {
            ring,
            next: 0,
            cached_head: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slot count.
    pub fn capacity(&self) -> usize {
        (self.ring.mask + 1) as usize
    }

    /// Whether the counterpart has closed the ring.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Entries written but not yet visible to the consumer.
    pub fn pending(&self) -> usize {
        (self.next - self.published) as usize
    }

    /// Write `v` into the next free slot **without publishing it**: the
    /// consumer cannot see it until [`Producer::publish`]. This is the
    /// batching half of the fast path — stage a whole flush, then pay
    /// one release-store.
    pub fn push_deferred(&mut self, v: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(v));
        }
        let cap = self.ring.mask + 1;
        if self.next - self.cached_tail == cap {
            self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
            if self.next - self.cached_tail == cap {
                return Err(PushError::Full(v));
            }
        }
        let idx = (self.next & self.ring.mask) as usize;
        self.ring.slots[idx].with_mut(|p| {
            // SAFETY: `next < cached_tail + capacity`, so this slot's
            // previous occupant (if any) was consumed; only this producer
            // writes slots.
            unsafe { (*p).write(v) };
        });
        self.next += 1;
        Ok(())
    }

    /// Make every deferred entry visible to the consumer with a single
    /// release-store. Returns how many entries this publish exposed.
    pub fn publish(&mut self) -> usize {
        let n = (self.next - self.published) as usize;
        if n > 0 {
            self.ring.head.0.store(self.next, Ordering::Release);
            self.published = self.next;
        }
        n
    }

    /// Push-and-publish in one call (the unbatched path).
    pub fn push(&mut self, v: T) -> Result<(), PushError<T>> {
        self.push_deferred(v)?;
        self.publish();
        Ok(())
    }

    /// Close the ring from the producer side. Pending entries are
    /// published first so nothing staged is lost.
    pub fn close(&mut self) {
        self.publish();
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> Consumer<T> {
    /// Whether the counterpart has closed the ring. Note a closed ring
    /// may still hold published items — [`Consumer::pop`] drains them
    /// before reporting [`PopError::Closed`].
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Published entries not yet consumed (approximate while the
    /// producer runs: may under-count in-flight publishes).
    pub fn len(&self) -> usize {
        (self.ring.head.0.load(Ordering::Acquire) - self.next) as usize
    }

    /// Whether [`Consumer::len`] is zero (same staleness caveat).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop the oldest published entry.
    pub fn pop(&mut self) -> Result<T, PopError> {
        if self.next == self.cached_head {
            self.cached_head = self.ring.head.0.load(Ordering::Acquire);
            if self.next == self.cached_head {
                if !self.is_closed() {
                    return Err(PopError::Empty);
                }
                // Closed — but the producer publishes before it closes,
                // so re-read head after observing the flag: items
                // published in the close race must not be lost.
                self.cached_head = self.ring.head.0.load(Ordering::Acquire);
                if self.next == self.cached_head {
                    return Err(PopError::Closed);
                }
            }
        }
        let idx = (self.next & self.ring.mask) as usize;
        let v = self.ring.slots[idx].with(|p| {
            // SAFETY: `next < cached_head <= head`, so the slot is
            // published and not yet consumed; only this consumer reads
            // slots.
            unsafe { (*p).assume_init_read() }
        });
        self.next += 1;
        // The release-store hands the slot back to the producer: it
        // happens-after the read above.
        self.ring.tail.0.store(self.next, Ordering::Release);
        Ok(v)
    }

    /// Close the ring from the consumer side: the producer's next push
    /// fails with [`PushError::Closed`] (its PeerGone signal).
    pub fn close(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

// ----------------------------------------------------------------------
// Doorbell
// ----------------------------------------------------------------------

/// A per-node wakeup line: producers ring it after publishing, the owner
/// parks on it when idle.
///
/// The fast path is one `fetch_add` on the event counter plus one load of
/// the sleeper count — **no lock, no syscall** unless the owner is
/// actually parked. The park protocol is lost-wakeup-free:
///
/// 1. the waiter registers itself in `sleepers` (SeqCst), takes the lock,
///    and re-checks the event counter *before* waiting;
/// 2. the ringer bumps `events` (SeqCst) and only then reads `sleepers`;
///    if it sees a sleeper it acquires the same lock and notifies.
///
/// In the SeqCst total order either the waiter's re-check sees the new
/// event, or the ringer's `sleepers` load sees the waiter — and the lock
/// serializes the re-check/wait against the notify, so the wake cannot
/// slip between them. Parks still use a bounded timeout so cluster wait
/// budgets (and chaos timeouts) fire even if the peer wedges.
#[derive(Default)]
pub struct Doorbell {
    /// Bumped on every ring; waiters detect "something happened since I
    /// last looked" by comparing against a snapshot.
    events: AtomicU64,
    /// Number of threads inside [`Doorbell::wait`]'s slow path.
    sleepers: AtomicU32,
    gate: Mutex<()>,
    cv: Condvar,
}

impl Doorbell {
    /// Snapshot the event counter (take one before the work-check that
    /// precedes a [`Doorbell::wait`]).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// Signal the owner: new work is visible. Cheap when nobody sleeps.
    pub fn ring(&self) {
        self.events.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) != 0 {
            // Taking the gate serializes this notify against a waiter
            // between its re-check and its wait.
            drop(self.gate.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
        }
    }

    /// Park until the event counter moves past `observed` or `timeout`
    /// elapses. Returns a fresh snapshot (callers re-check their queues
    /// regardless — the doorbell carries no payload).
    pub fn wait(&self, observed: u64, timeout: Duration) -> u64 {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if self.events.load(Ordering::SeqCst) == observed {
            let _ = self
                .cv
                .wait_timeout(guard, timeout)
                .unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.events.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = ring::<u32>(100);
        assert_eq!(p.capacity(), 128);
        let (p, _c) = ring::<u32>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn deferred_items_invisible_until_publish() {
        let (mut p, mut c) = ring::<u32>(8);
        p.push_deferred(1).unwrap();
        p.push_deferred(2).unwrap();
        assert_eq!(c.pop(), Err(PopError::Empty));
        assert_eq!(p.pending(), 2);
        assert_eq!(p.publish(), 2);
        assert_eq!(p.pending(), 0);
        assert_eq!(c.pop(), Ok(1));
        assert_eq!(c.pop(), Ok(2));
        assert_eq!(c.pop(), Err(PopError::Empty));
        // An empty publish is free.
        assert_eq!(p.publish(), 0);
    }

    #[test]
    fn full_ring_refuses_then_recovers() {
        let (mut p, mut c) = ring::<u32>(4);
        for i in 0..4 {
            p.push(i).unwrap();
        }
        match p.push(99) {
            Err(PushError::Full(v)) => assert_eq!(v, 99),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(c.pop(), Ok(0));
        p.push(99).unwrap();
        for want in [1, 2, 3, 99] {
            assert_eq!(c.pop(), Ok(want));
        }
    }

    #[test]
    fn producer_close_publishes_pending_first() {
        let (mut p, mut c) = ring::<String>(8);
        p.push_deferred("staged".to_string()).unwrap();
        drop(p);
        assert_eq!(c.pop(), Ok("staged".to_string()));
        assert_eq!(c.pop(), Err(PopError::Closed));
    }

    #[test]
    fn consumer_close_fails_pushes() {
        let (mut p, c) = ring::<u32>(8);
        drop(c);
        match p.push(5) {
            Err(PushError::Closed(v)) => assert_eq!(v, 5),
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn drop_drains_unconsumed_items() {
        // Leak-checked implicitly: Rc would abort under miri; here we at
        // least prove Drop runs for queued items.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = ring::<D>(8);
        for _ in 0..5 {
            p.push(D).unwrap();
        }
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn doorbell_wakes_parked_waiter() {
        let bell = Arc::new(Doorbell::default());
        let b2 = Arc::clone(&bell);
        let observed = bell.events();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            b2.ring();
        });
        // Generous timeout: the ring must cut it short.
        let now = bell.wait(observed, Duration::from_secs(10));
        assert!(now > observed);
        h.join().unwrap();
    }

    #[test]
    fn doorbell_wait_returns_immediately_when_stale() {
        let bell = Doorbell::default();
        let observed = bell.events();
        bell.ring();
        let t = std::time::Instant::now();
        let now = bell.wait(observed, Duration::from_secs(10));
        assert!(now > observed);
        assert!(t.elapsed() < Duration::from_secs(1));
    }
}
