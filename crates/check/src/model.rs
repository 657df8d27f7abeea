//! The bounded model checker: a deterministic cooperative scheduler that
//! DFS-explores thread interleavings of programs written against
//! [`crate::sync`], with a vector-clock race detector driven by the
//! *declared* `Ordering` of every atomic access.
//!
//! ## How an execution runs
//!
//! Modeled threads are real OS threads, but only one ever runs at a time:
//! every operation on a shim primitive is a *yield point* where the thread
//! parks and waits for the controller to grant it the next step. The
//! controller (the caller of [`Checker::check`]) repeatedly waits for all
//! threads to park, computes the set of *enabled* threads (a thread waiting
//! on a held mutex, an un-notified condvar, or an unfinished join target is
//! not enabled), and grants one of them according to the schedule under
//! exploration. Because exactly one thread runs between yield points, an
//! execution is fully determined by the sequence of choices made at
//! decision points (states with more than one enabled thread) — which is
//! what makes replay, and therefore DFS over schedules, exact.
//!
//! ## What the race detector models
//!
//! Executions are sequentially consistent in *values* (every load observes
//! the latest store in the interleaving), but happens-before is computed
//! from the *declared* orderings:
//!
//! * `Release` store → location's release clock := the storing thread's
//!   clock. A `Relaxed` store *clears* the clock (it publishes nothing).
//! * `Acquire` load ← thread joins the location's release clock; a
//!   `Relaxed` load learns nothing.
//! * RMWs join in/out per their ordering and *extend* the release clock
//!   (continuing the release sequence) rather than replacing it.
//! * Mutexes, condvars, spawn and join contribute their usual edges.
//!
//! Data accessed through [`crate::sync::cell::UnsafeCell`] is checked
//! against this happens-before relation: two accesses to the same cell, at
//! least one a write, from different threads, with neither ordered before
//! the other, are reported as a race — even when the sequentially
//! consistent interleaving happened to produce the right value. This is
//! what catches a `Relaxed`-weakened publish whose bad outcomes only
//! manifest on weakly-ordered hardware.
//!
//! ## Bounds
//!
//! Exploration is bounded three ways: a **preemption bound** (schedules
//! with more than N involuntary context switches are pruned — most real
//! concurrency bugs need very few), a **schedule budget**
//! (`max_schedules`), and a per-execution **step limit** that turns
//! accidental livelock into a typed failure. All three are builder methods
//! on [`Checker`].

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use crate::vc::VClock;

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------------
// Location ids
// ---------------------------------------------------------------------------

static NEXT_LOC: StdAtomicU64 = StdAtomicU64::new(1);

fn fresh_loc() -> u64 {
    // relaxed: pure id allocator — only uniqueness matters.
    NEXT_LOC.fetch_add(1, StdOrdering::Relaxed)
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// Operations (yield points)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Start,
    Yield,
    AtomicLoad { loc: u64 },
    AtomicStore { loc: u64 },
    AtomicRmw { loc: u64 },
    CellRead { loc: u64 },
    CellWrite { loc: u64 },
    Lock { m: u64 },
    Unlock { m: u64 },
    CondWait { cv: u64, m: u64 },
    NotifyAll { cv: u64 },
    Spawn { child: usize },
    Join { child: usize },
    Park,
    Unpark { target: usize },
}

impl Op {
    fn describe(&self) -> String {
        match self {
            Op::Start => "start".into(),
            Op::Yield => "yield".into(),
            Op::AtomicLoad { loc } => format!("atomic-load a{loc}"),
            Op::AtomicStore { loc } => format!("atomic-store a{loc}"),
            Op::AtomicRmw { loc } => format!("atomic-rmw a{loc}"),
            Op::CellRead { loc } => format!("cell-read c{loc}"),
            Op::CellWrite { loc } => format!("cell-write c{loc}"),
            Op::Lock { m } => format!("lock m{m}"),
            Op::Unlock { m } => format!("unlock m{m}"),
            Op::CondWait { cv, m } => format!("cond-wait cv{cv} m{m}"),
            Op::NotifyAll { cv } => format!("notify-all cv{cv}"),
            Op::Spawn { child } => format!("spawn t{child}"),
            Op::Join { child } => format!("join t{child}"),
            Op::Park => "park".into(),
            Op::Unpark { target } => format!("unpark t{target}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Reserved by `spawn` but the `Spawn` effect has not run yet.
    Embryo,
    /// Parked at a yield point with a pending op; schedulable if enabled.
    Ready,
    /// Granted; executing real code between yield points.
    Running,
    /// Waiting to be woken (condvar wait / park): not schedulable.
    Blocked(Block),
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    CondWait { cv: u64, m: u64 },
    Parked,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    pending: Option<Op>,
    vc: VClock,
    park_token: bool,
}

impl ThreadState {
    fn embryo() -> Self {
        ThreadState {
            status: Status::Embryo,
            pending: None,
            vc: VClock::new(),
            park_token: false,
        }
    }
}

#[derive(Debug, Default)]
struct AtomicState {
    /// The release clock: what an acquire load of this location learns.
    sync: VClock,
}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<usize>,
    /// Clock published by the last unlock.
    clock: VClock,
}

#[derive(Debug, Default)]
struct CellState {
    /// Last write as (thread, epoch).
    write: Option<(usize, u32)>,
    /// Reads since the last write, one epoch per thread.
    reads: Vec<(usize, u32)>,
}

/// One scheduling decision: the candidate threads that were enabled and
/// which one was chosen. Candidates are ordered with the previously running
/// thread first (when still enabled), so index 0 is always the
/// non-preemptive continuation.
#[derive(Debug, Clone)]
struct Decision {
    cands: Vec<usize>,
    chosen: usize,
    preempt_before: u32,
    la_present: bool,
}

/// Why a check failed. Carried inside [`CheckFailure`] with the schedule
/// trace that produced it.
#[derive(Debug, Clone)]
pub enum FailureKind {
    /// Two happens-before-unordered accesses to one `UnsafeCell`, at least
    /// one a write. `prev`/`cur` are `(thread, "read"|"write")`.
    DataRace {
        loc: u64,
        prev: (usize, &'static str),
        cur: (usize, &'static str),
    },
    /// Live threads exist but none is enabled — a lost wakeup or a lock
    /// cycle.
    Deadlock { waiting: Vec<(usize, String)> },
    /// A modeled thread panicked (failed assertion in the checked program).
    Panic { thread: usize, message: String },
    /// One execution exceeded the per-execution step limit (livelock).
    StepLimit,
}

/// A failed check: the failure plus the schedule that produced it.
#[derive(Debug)]
pub struct CheckFailure {
    pub kind: FailureKind,
    /// Choice indices at each decision point — feed back via
    /// [`Checker::replay`] to reproduce.
    pub schedule: Vec<usize>,
    /// `(thread, op)` grant trace of the failing execution.
    pub trace: Vec<(usize, String)>,
    /// Executions explored before (and including) the failing one.
    pub schedules_explored: usize,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            FailureKind::DataRace { loc, prev, cur } => write!(
                f,
                "data race on cell c{loc}: t{} {} unordered with t{} {}",
                prev.0, prev.1, cur.0, cur.1
            )?,
            FailureKind::Deadlock { waiting } => {
                write!(f, "deadlock; waiting: {waiting:?}")?;
            }
            FailureKind::Panic { thread, message } => {
                write!(f, "thread t{thread} panicked: {message}")?;
            }
            FailureKind::StepLimit => write!(f, "step limit exceeded (livelock?)")?,
        }
        write!(
            f,
            " [schedule {:?} after {} executions; trace: {}]",
            self.schedule,
            self.schedules_explored,
            self.trace
                .iter()
                .map(|(t, o)| format!("t{t}:{o}"))
                .collect::<Vec<_>>()
                .join(" ")
        )
    }
}

/// Statistics of a completed (non-failing) exploration.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Distinct schedules (executions) explored.
    pub schedules: usize,
    /// True if the schedule budget ran out before the DFS frontier did —
    /// the result is a bounded smoke pass, not an exhaustive proof.
    pub truncated: bool,
}

struct ExecState {
    threads: Vec<ThreadState>,
    granted: Option<usize>,
    decisions: Vec<Decision>,
    trace: Vec<(usize, Op)>,
    atomics: HashMap<u64, AtomicState>,
    mutexes: HashMap<u64, MutexState>,
    cells: HashMap<u64, CellState>,
    error: Option<FailureKind>,
    cancelled: bool,
    steps: usize,
    max_steps: usize,
    last_active: Option<usize>,
    preemptions: u32,
}

struct ExecShared {
    st: StdMutex<ExecState>,
    cv: StdCondvar,
}

impl ExecShared {
    fn new(max_steps: usize) -> Self {
        let mut threads = Vec::new();
        threads.push(ThreadState {
            status: Status::Ready,
            pending: Some(Op::Start),
            vc: VClock::new(),
            park_token: false,
        });
        ExecShared {
            st: StdMutex::new(ExecState {
                threads,
                granted: None,
                decisions: Vec::new(),
                trace: Vec::new(),
                atomics: HashMap::new(),
                mutexes: HashMap::new(),
                cells: HashMap::new(),
                error: None,
                cancelled: false,
                steps: 0,
                max_steps,
                last_active: None,
                preemptions: 0,
            }),
            cv: StdCondvar::new(),
        }
    }
}

// Cancellation unwinds modeled threads without reporting a user panic.
struct Cancelled;

// ---------------------------------------------------------------------------
// Thread-local execution context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    exec: Arc<ExecShared>,
    tid: usize,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

fn lock_st(exec: &ExecShared) -> std::sync::MutexGuard<'_, ExecState> {
    exec.st.lock().unwrap_or_else(|e| e.into_inner())
}

fn cancel_unwind() -> ! {
    resume_unwind(Box::new(Cancelled))
}

/// Park at a yield point with `op`, wait to be granted, apply the
/// structural effect. Returns only once the thread is `Running` again
/// (condvar waits and parks loop here until woken *and* re-granted).
fn schedule_point(op: Op) -> bool {
    // During unwinding (cancellation or a real panic) shim ops degrade to
    // passthrough so drops can run without re-entering the scheduler.
    if std::thread::panicking() {
        return false;
    }
    let Some(ctx) = current() else {
        return false;
    };
    let exec = &ctx.exec;
    let me = ctx.tid;
    let mut st = lock_st(exec);
    if st.cancelled {
        drop(st);
        cancel_unwind();
    }
    st.threads[me].pending = Some(op);
    st.threads[me].status = Status::Ready;
    exec.cv.notify_all();
    loop {
        if st.cancelled {
            drop(st);
            cancel_unwind();
        }
        if st.granted == Some(me) {
            st.granted = None;
            let op = match st.threads[me].pending.take() {
                Some(op) => op,
                None => Op::Yield,
            };
            st.threads[me].status = Status::Running;
            st.steps += 1;
            if st.steps > st.max_steps {
                st.error = Some(FailureKind::StepLimit);
                st.cancelled = true;
                exec.cv.notify_all();
                drop(st);
                cancel_unwind();
            }
            apply_structural(&mut st, me, op);
            exec.cv.notify_all();
            if st.threads[me].status == Status::Running {
                drop(st);
                return true;
            }
            // The effect blocked us (CondWait / Park): keep waiting until a
            // waker re-readies us and the controller grants the follow-up op.
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Effects that change scheduler-visible structure, applied under the state
/// lock at grant time. Value operations (atomics, cells) happen after this
/// returns, while the thread is the only one running.
fn apply_structural(st: &mut ExecState, me: usize, op: Op) {
    match op {
        Op::Start | Op::Yield => st.threads[me].vc.tick(me),
        Op::AtomicLoad { .. }
        | Op::AtomicStore { .. }
        | Op::AtomicRmw { .. }
        | Op::CellRead { .. }
        | Op::CellWrite { .. } => {
            // Vector-clock treatment happens post-op (it may depend on the
            // op's outcome, e.g. CAS success); nothing structural here.
        }
        Op::Lock { m } => {
            let mutex = st.mutexes.entry(m).or_default();
            debug_assert!(mutex.owner.is_none(), "granted a held mutex");
            mutex.owner = Some(me);
            let clock = mutex.clock.clone();
            st.threads[me].vc.join(&clock);
            st.threads[me].vc.tick(me);
        }
        Op::Unlock { m } => {
            st.threads[me].vc.tick(me);
            let vc = st.threads[me].vc.clone();
            let mutex = st.mutexes.entry(m).or_default();
            mutex.owner = None;
            mutex.clock = vc;
        }
        Op::CondWait { cv, m } => {
            st.threads[me].vc.tick(me);
            let vc = st.threads[me].vc.clone();
            let mutex = st.mutexes.entry(m).or_default();
            mutex.owner = None;
            mutex.clock = vc;
            st.threads[me].status = Status::Blocked(Block::CondWait { cv, m });
        }
        Op::NotifyAll { cv } => {
            st.threads[me].vc.tick(me);
            let waker_vc = st.threads[me].vc.clone();
            for t in 0..st.threads.len() {
                if let Status::Blocked(Block::CondWait { cv: w, m }) = st.threads[t].status {
                    if w == cv {
                        st.threads[t].status = Status::Ready;
                        st.threads[t].pending = Some(Op::Lock { m });
                        st.threads[t].vc.join(&waker_vc);
                    }
                }
            }
        }
        Op::Spawn { child } => {
            st.threads[me].vc.tick(me);
            let parent_vc = st.threads[me].vc.clone();
            let c = &mut st.threads[child];
            c.vc = parent_vc;
            c.vc.tick(child);
            c.status = Status::Ready;
            c.pending = Some(Op::Start);
        }
        Op::Join { child } => {
            let child_vc = st.threads[child].vc.clone();
            st.threads[me].vc.join(&child_vc);
            st.threads[me].vc.tick(me);
        }
        Op::Park => {
            st.threads[me].vc.tick(me);
            if st.threads[me].park_token {
                st.threads[me].park_token = false;
            } else {
                st.threads[me].status = Status::Blocked(Block::Parked);
            }
        }
        Op::Unpark { target } => {
            st.threads[me].vc.tick(me);
            let waker_vc = st.threads[me].vc.clone();
            let t = &mut st.threads[target];
            if t.status == Status::Blocked(Block::Parked) {
                t.status = Status::Ready;
                t.pending = Some(Op::Yield);
                t.vc.join(&waker_vc);
            } else {
                t.park_token = true;
            }
        }
    }
}

fn fail(exec: &ExecShared, st: &mut ExecState, kind: FailureKind) -> ! {
    if st.error.is_none() {
        st.error = Some(kind);
    }
    st.cancelled = true;
    exec.cv.notify_all();
    cancel_unwind()
}

// Post-op vector-clock treatment (thread is Running; brief state lock).

fn vc_atomic_load(loc: u64, ord: Ordering) {
    let Some(ctx) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mut st = lock_st(&ctx.exec);
    if is_acquire(ord) {
        let sync = st.atomics.entry(loc).or_default().sync.clone();
        st.threads[ctx.tid].vc.join(&sync);
    }
    st.threads[ctx.tid].vc.tick(ctx.tid);
}

fn vc_atomic_store(loc: u64, ord: Ordering) {
    let Some(ctx) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mut st = lock_st(&ctx.exec);
    st.threads[ctx.tid].vc.tick(ctx.tid);
    let vc = st.threads[ctx.tid].vc.clone();
    let a = st.atomics.entry(loc).or_default();
    if is_release(ord) {
        a.sync = vc;
    } else {
        // A Relaxed store publishes nothing: it wipes the release clock
        // (and with it any release sequence it overwrote).
        a.sync.clear();
    }
}

/// RMW: acquire side joins in, release side *extends* the release clock
/// (continuing the release sequence); a fully `Relaxed` RMW leaves the
/// clock as-is.
fn vc_atomic_rmw(loc: u64, ord: Ordering) {
    let Some(ctx) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let mut st = lock_st(&ctx.exec);
    if is_acquire(ord) {
        let sync = st.atomics.entry(loc).or_default().sync.clone();
        st.threads[ctx.tid].vc.join(&sync);
    }
    st.threads[ctx.tid].vc.tick(ctx.tid);
    if is_release(ord) {
        let vc = st.threads[ctx.tid].vc.clone();
        st.atomics.entry(loc).or_default().sync.join(&vc);
    }
}

fn vc_cell_access(loc: u64, is_write: bool) {
    let Some(ctx) = current() else { return };
    if std::thread::panicking() {
        return;
    }
    let me = ctx.tid;
    let mut st = lock_st(&ctx.exec);
    let my_vc = st.threads[me].vc.clone();
    let cell = st.cells.entry(loc).or_default();
    if let Some((wt, we)) = cell.write {
        if wt != me && !my_vc.covers(wt, we) {
            let kind = FailureKind::DataRace {
                loc,
                prev: (wt, "write"),
                cur: (me, if is_write { "write" } else { "read" }),
            };
            fail(&ctx.exec, &mut st, kind);
        }
    }
    if is_write {
        let racy_read = cell
            .reads
            .iter()
            .find(|&&(rt, re)| rt != me && !my_vc.covers(rt, re))
            .copied();
        if let Some((rt, re)) = racy_read {
            let _ = re;
            let kind = FailureKind::DataRace {
                loc,
                prev: (rt, "read"),
                cur: (me, "write"),
            };
            fail(&ctx.exec, &mut st, kind);
        }
        st.threads[me].vc.tick(me);
        let epoch = st.threads[me].vc.get(me);
        let cell = st.cells.entry(loc).or_default();
        cell.write = Some((me, epoch));
        cell.reads.clear();
    } else {
        st.threads[me].vc.tick(me);
        let epoch = st.threads[me].vc.get(me);
        let cell = st.cells.entry(loc).or_default();
        if let Some(r) = cell.reads.iter_mut().find(|r| r.0 == me) {
            r.1 = epoch;
        } else {
            cell.reads.push((me, epoch));
        }
    }
}

// ---------------------------------------------------------------------------
// Modeled thread spawning
// ---------------------------------------------------------------------------

/// Handle to a modeled thread; `join` is a synchronization edge and a
/// scheduling point.
pub struct JoinHandle<T> {
    tid: usize,
    os: Option<std::thread::JoinHandle<()>>,
    slot: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and take its result.
    pub fn join(mut self) -> T {
        schedule_point(Op::Join { child: self.tid });
        if let Some(os) = self.os.take() {
            let _ = os.join();
        }
        let v = lock_st_slot(&self.slot).take();
        match v {
            Some(v) => v,
            // Unreachable in practice: a failed/cancelled child unwinds the
            // joiner inside schedule_point before we get here.
            None => cancel_unwind(),
        }
    }

    /// Deliver an unpark token to the thread ([`crate::sync::thread::park`]).
    pub fn unpark(&self) {
        schedule_point(Op::Unpark { target: self.tid });
    }
}

fn lock_st_slot<T>(slot: &StdMutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawn a modeled thread. Panics if called outside [`Checker::check`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let ctx = current().expect("model::spawn called outside a model execution");
    let child = {
        let mut st = lock_st(&ctx.exec);
        st.threads.push(ThreadState::embryo());
        st.threads.len() - 1
    };
    schedule_point(Op::Spawn { child });
    let slot = Arc::new(StdMutex::new(None));
    let slot2 = Arc::clone(&slot);
    let exec = Arc::clone(&ctx.exec);
    let os = std::thread::spawn(move || {
        run_modeled(exec, child, move || {
            let v = f();
            *lock_st_slot(&slot2) = Some(v);
        });
    });
    JoinHandle {
        tid: child,
        os: Some(os),
        slot,
    }
}

fn run_modeled(exec: Arc<ExecShared>, tid: usize, f: impl FnOnce()) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            exec: Arc::clone(&exec),
            tid,
        })
    });
    // Wait for the Start grant (the controller schedules thread birth too).
    wait_for_start(&exec, tid);
    let r = catch_unwind(AssertUnwindSafe(f));
    let mut st = lock_st(&exec);
    if let Err(payload) = r {
        if payload.downcast_ref::<Cancelled>().is_none() {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            if st.error.is_none() {
                st.error = Some(FailureKind::Panic {
                    thread: tid,
                    message,
                });
            }
            st.cancelled = true;
        }
    }
    st.threads[tid].status = Status::Finished;
    exec.cv.notify_all();
    drop(st);
    CURRENT.with(|c| *c.borrow_mut() = None);
}

fn wait_for_start(exec: &ExecShared, me: usize) {
    let mut st = lock_st(exec);
    loop {
        if st.cancelled {
            // Cancelled before ever running: finish silently.
            st.threads[me].status = Status::Finished;
            exec.cv.notify_all();
            drop(st);
            cancel_unwind();
        }
        if st.granted == Some(me) {
            st.granted = None;
            st.threads[me].pending = None;
            st.threads[me].status = Status::Running;
            st.steps += 1;
            apply_structural(&mut st, me, Op::Start);
            exec.cv.notify_all();
            return;
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Explicit scheduling point (models `std::thread::yield_now`).
pub fn yield_now() {
    schedule_point(Op::Yield);
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// Bounded DFS over schedules of one modeled program.
pub struct Checker {
    preemption_bound: Option<u32>,
    max_schedules: usize,
    max_steps: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self::new()
    }
}

impl Checker {
    pub fn new() -> Self {
        Checker {
            preemption_bound: None,
            max_schedules: 200_000,
            max_steps: 20_000,
        }
    }

    /// Prune schedules with more than `n` preemptions (`None` = unbounded,
    /// i.e. exhaustive at the given program size).
    pub fn preemption_bound(mut self, n: Option<u32>) -> Self {
        self.preemption_bound = n;
        self
    }

    /// Budget of distinct executions; exceeding it sets
    /// [`Report::truncated`] instead of failing.
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Per-execution step limit (livelock guard).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Explore every schedule of `f` within the bounds. `f` runs once per
    /// schedule and must be deterministic apart from scheduling.
    pub fn check<F>(&self, f: F) -> Result<Report, Box<CheckFailure>>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            let out = self.run_one(&prefix, &f);
            schedules += 1;
            if let Some(kind) = out.error {
                return Err(Box::new(CheckFailure {
                    kind,
                    schedule: out.decisions.iter().map(|d| d.chosen).collect(),
                    trace: out
                        .trace
                        .iter()
                        .map(|(t, op)| (*t, op.describe()))
                        .collect(),
                    schedules_explored: schedules,
                }));
            }
            if schedules >= self.max_schedules {
                return Ok(Report {
                    schedules,
                    truncated: next_prefix(&out.decisions, self.preemption_bound).is_some(),
                });
            }
            match next_prefix(&out.decisions, self.preemption_bound) {
                Some(p) => prefix = p,
                None => {
                    return Ok(Report {
                        schedules,
                        truncated: false,
                    })
                }
            }
        }
    }

    /// Re-run a single schedule (from [`CheckFailure::schedule`]) — for
    /// debugging a reported failure.
    pub fn replay<F>(&self, schedule: &[usize], f: F) -> Option<Box<CheckFailure>>
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let out = self.run_one(schedule, &f);
        out.error.map(|kind| {
            Box::new(CheckFailure {
                kind,
                schedule: out.decisions.iter().map(|d| d.chosen).collect(),
                trace: out
                    .trace
                    .iter()
                    .map(|(t, op)| (*t, op.describe()))
                    .collect(),
                schedules_explored: 1,
            })
        })
    }

    fn run_one(&self, prefix: &[usize], f: &Arc<dyn Fn() + Send + Sync>) -> ExecOutcome {
        let exec = Arc::new(ExecShared::new(self.max_steps));
        let f = Arc::clone(f);
        let exec0 = Arc::clone(&exec);
        let main = std::thread::spawn(move || run_modeled(exec0, 0, move || f()));

        let mut st = lock_st(&exec);
        loop {
            // Quiescence: nobody granted, nobody running.
            while st.granted.is_some() || st.threads.iter().any(|t| t.status == Status::Running) {
                st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.cancelled || st.error.is_some() {
                break;
            }
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                break;
            }
            // Enabled candidates, previously-running thread first.
            let mut cands: Vec<usize> = Vec::new();
            for (tid, t) in st.threads.iter().enumerate() {
                if t.status != Status::Ready {
                    continue;
                }
                let enabled = match t.pending {
                    Some(Op::Lock { m }) => {
                        st.mutexes.get(&m).map_or(true, |mx| mx.owner.is_none())
                    }
                    Some(Op::Join { child }) => st.threads[child].status == Status::Finished,
                    Some(_) => true,
                    None => false,
                };
                if enabled {
                    cands.push(tid);
                }
            }
            if cands.is_empty() {
                // Embryos whose OS thread has not reached its start wait yet
                // are not a deadlock — wait for them to park.
                if st.threads.iter().any(|t| t.status == Status::Embryo) {
                    st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                let waiting = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !matches!(t.status, Status::Finished))
                    .map(|(tid, t)| {
                        let what = match (&t.status, &t.pending) {
                            (Status::Blocked(b), _) => format!("{b:?}"),
                            (_, Some(op)) => op.describe(),
                            _ => format!("{:?}", t.status),
                        };
                        (tid, what)
                    })
                    .collect();
                st.error = Some(FailureKind::Deadlock { waiting });
                break;
            }
            let la_present = st
                .last_active
                .map(|la| cands.contains(&la))
                .unwrap_or(false);
            if la_present {
                let la = match st.last_active {
                    Some(la) => la,
                    None => cands[0],
                };
                if let Some(pos) = cands.iter().position(|&c| c == la) {
                    cands.swap(0, pos);
                    cands[1..].sort_unstable();
                }
            }
            let chosen = if cands.len() > 1 {
                let idx = st.decisions.len();
                let choice = prefix.get(idx).copied().unwrap_or(0).min(cands.len() - 1);
                let preempt_before = st.preemptions;
                if la_present && choice != 0 {
                    st.preemptions += 1;
                }
                st.decisions.push(Decision {
                    cands: cands.clone(),
                    chosen: choice,
                    preempt_before,
                    la_present,
                });
                cands[choice]
            } else {
                cands[0]
            };
            if let Some(op) = st.threads[chosen].pending {
                st.trace.push((chosen, op));
            }
            st.last_active = Some(chosen);
            st.granted = Some(chosen);
            exec.cv.notify_all();
        }
        // Teardown: cancel stragglers and wait for every thread to exit.
        st.cancelled = true;
        exec.cv.notify_all();
        while st
            .threads
            .iter()
            .any(|t| !matches!(t.status, Status::Finished))
        {
            st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let outcome = ExecOutcome {
            error: st.error.clone(),
            decisions: st.decisions.clone(),
            trace: st.trace.clone(),
        };
        drop(st);
        let _ = main.join();
        outcome
    }
}

struct ExecOutcome {
    error: Option<FailureKind>,
    decisions: Vec<Decision>,
    trace: Vec<(usize, Op)>,
}

/// The DFS frontier step: find the deepest decision with an unexplored
/// alternative admissible under the preemption bound and advance it.
fn next_prefix(decisions: &[Decision], bound: Option<u32>) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let d = &decisions[i];
        for alt in d.chosen + 1..d.cands.len() {
            let cost = u32::from(d.la_present && alt != 0);
            if let Some(b) = bound {
                if d.preempt_before + cost > b {
                    continue;
                }
            }
            let mut p: Vec<usize> = decisions[..i].iter().map(|x| x.chosen).collect();
            p.push(alt);
            return Some(p);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Model flavors of the sync primitives (used via crate::sync under
// --cfg viamodel; passthrough to std behavior outside an execution)
// ---------------------------------------------------------------------------

pub mod sync_impl {
    use super::*;

    macro_rules! model_atomic {
        ($name:ident, $std:ident, $ty:ty) => {
            /// Model-instrumented atomic: std storage plus a tracked
            /// location id. Outside an execution it behaves exactly like
            /// the std atomic.
            #[derive(Debug)]
            pub struct $name {
                inner: std::sync::atomic::$std,
                id: u64,
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl $name {
                pub fn new(v: $ty) -> Self {
                    $name {
                        inner: std::sync::atomic::$std::new(v),
                        id: fresh_loc(),
                    }
                }

                pub fn load(&self, ord: Ordering) -> $ty {
                    if schedule_point(Op::AtomicLoad { loc: self.id }) {
                        let v = self.inner.load(Ordering::SeqCst);
                        vc_atomic_load(self.id, ord);
                        v
                    } else {
                        self.inner.load(ord)
                    }
                }

                pub fn store(&self, v: $ty, ord: Ordering) {
                    if schedule_point(Op::AtomicStore { loc: self.id }) {
                        self.inner.store(v, Ordering::SeqCst);
                        vc_atomic_store(self.id, ord);
                    } else {
                        self.inner.store(v, ord);
                    }
                }

                pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                    if schedule_point(Op::AtomicRmw { loc: self.id }) {
                        let old = self.inner.swap(v, Ordering::SeqCst);
                        vc_atomic_rmw(self.id, ord);
                        old
                    } else {
                        self.inner.swap(v, ord)
                    }
                }

                pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                    if schedule_point(Op::AtomicRmw { loc: self.id }) {
                        let old = self.inner.fetch_add(v, Ordering::SeqCst);
                        vc_atomic_rmw(self.id, ord);
                        old
                    } else {
                        self.inner.fetch_add(v, ord)
                    }
                }

                pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                    if schedule_point(Op::AtomicRmw { loc: self.id }) {
                        let old = self.inner.fetch_sub(v, Ordering::SeqCst);
                        vc_atomic_rmw(self.id, ord);
                        old
                    } else {
                        self.inner.fetch_sub(v, ord)
                    }
                }

                pub fn compare_exchange(
                    &self,
                    cur: $ty,
                    new: $ty,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$ty, $ty> {
                    if schedule_point(Op::AtomicRmw { loc: self.id }) {
                        let r = self.inner.compare_exchange(
                            cur,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        match r {
                            Ok(_) => vc_atomic_rmw(self.id, succ),
                            Err(_) => vc_atomic_load(self.id, fail),
                        }
                        r
                    } else {
                        self.inner.compare_exchange(cur, new, succ, fail)
                    }
                }

                pub fn compare_exchange_weak(
                    &self,
                    cur: $ty,
                    new: $ty,
                    succ: Ordering,
                    fail: Ordering,
                ) -> Result<$ty, $ty> {
                    // The model never fails spuriously: weak == strong.
                    self.compare_exchange(cur, new, succ, fail)
                }
            }
        };
    }

    model_atomic!(AtomicU32, AtomicU32, u32);
    model_atomic!(AtomicU64, AtomicU64, u64);
    model_atomic!(AtomicUsize, AtomicUsize, usize);

    /// Model-instrumented `AtomicBool` (subset of the std API the ported
    /// code uses).
    #[derive(Debug)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
        id: u64,
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            AtomicBool {
                inner: std::sync::atomic::AtomicBool::new(v),
                id: fresh_loc(),
            }
        }

        pub fn load(&self, ord: Ordering) -> bool {
            if schedule_point(Op::AtomicLoad { loc: self.id }) {
                let v = self.inner.load(Ordering::SeqCst);
                vc_atomic_load(self.id, ord);
                v
            } else {
                self.inner.load(ord)
            }
        }

        pub fn store(&self, v: bool, ord: Ordering) {
            if schedule_point(Op::AtomicStore { loc: self.id }) {
                self.inner.store(v, Ordering::SeqCst);
                vc_atomic_store(self.id, ord);
            } else {
                self.inner.store(v, ord);
            }
        }

        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            if schedule_point(Op::AtomicRmw { loc: self.id }) {
                let old = self.inner.swap(v, Ordering::SeqCst);
                vc_atomic_rmw(self.id, ord);
                old
            } else {
                self.inner.swap(v, ord)
            }
        }
    }

    pub mod cell {
        use super::*;

        /// Tracked interior mutability: every access is a scheduling point
        /// and a race-detector event. The `with`/`with_mut` closures run
        /// while the thread holds the (exclusive) execution step, so the
        /// raw pointer access inside is data-race-free *in the host
        /// process* even when the detector reports a *modeled* race.
        #[derive(Debug)]
        pub struct UnsafeCell<T> {
            inner: std::cell::UnsafeCell<T>,
            id: u64,
        }

        // SAFETY: mirrors the passthrough flavor — ownership transfer is
        // as safe as for the underlying T.
        unsafe impl<T: Send> Send for UnsafeCell<T> {}
        // SAFETY: `with`/`with_mut` run while their thread holds the
        // exclusive execution step (one modeled thread runs at a time), so
        // host-process accesses never overlap; modeled races are what the
        // detector reports.
        unsafe impl<T: Send> Sync for UnsafeCell<T> {}

        impl<T: Default> Default for UnsafeCell<T> {
            fn default() -> Self {
                Self::new(T::default())
            }
        }

        impl<T> UnsafeCell<T> {
            pub fn new(v: T) -> Self {
                UnsafeCell {
                    inner: std::cell::UnsafeCell::new(v),
                    id: fresh_loc(),
                }
            }

            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                if schedule_point(Op::CellRead { loc: self.id }) {
                    let r = f(self.inner.get());
                    vc_cell_access(self.id, false);
                    r
                } else {
                    f(self.inner.get())
                }
            }

            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                if schedule_point(Op::CellWrite { loc: self.id }) {
                    let r = f(self.inner.get());
                    vc_cell_access(self.id, true);
                    r
                } else {
                    f(self.inner.get())
                }
            }
        }
    }

    /// Model mutex: acquisition order arbitrated by the scheduler, data
    /// stored in an inner std mutex that is uncontended by construction
    /// (only the granted thread ever touches it).
    #[derive(Debug)]
    pub struct Mutex<T> {
        inner: StdMutex<T>,
        id: u64,
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Self::new(T::default())
        }
    }

    pub struct MutexGuard<'a, T> {
        inner: Option<std::sync::MutexGuard<'a, T>>,
        mutex: &'a Mutex<T>,
        modeled: bool,
    }

    impl<T> Mutex<T> {
        pub fn new(v: T) -> Self {
            Mutex {
                inner: StdMutex::new(v),
                id: fresh_loc(),
            }
        }

        #[allow(clippy::type_complexity)]
        pub fn lock(&self) -> Result<MutexGuard<'_, T>, std::sync::PoisonError<MutexGuard<'_, T>>> {
            let modeled = schedule_point(Op::Lock { m: self.id });
            let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard {
                inner: Some(inner),
                mutex: self,
                modeled,
            })
        }
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard accessed after wait")
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard accessed after wait")
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the OS lock first, then tell the scheduler: the next
            // thread granted Lock must find the inner mutex free.
            self.inner.take();
            if self.modeled {
                schedule_point(Op::Unlock { m: self.mutex.id });
            }
        }
    }

    /// Model condvar. `wait` has no timeout in the model: a wakeup that
    /// never arrives is a deadlock the checker reports, which is exactly
    /// the lost-wakeup bug timeouts would otherwise paper over.
    #[derive(Debug)]
    pub struct Condvar {
        inner: StdCondvar,
        id: u64,
    }

    impl Default for Condvar {
        fn default() -> Self {
            Self::new()
        }
    }

    /// Stand-in for `std::sync::WaitTimeoutResult` (which has no public
    /// constructor). The model never times out.
    #[derive(Debug, Clone, Copy)]
    pub struct WaitTimeoutResult(());

    impl WaitTimeoutResult {
        pub fn timed_out(&self) -> bool {
            false
        }
    }

    impl Condvar {
        pub fn new() -> Self {
            Condvar {
                inner: StdCondvar::new(),
                id: fresh_loc(),
            }
        }

        #[allow(clippy::type_complexity)]
        pub fn wait<'a, T>(
            &self,
            mut guard: MutexGuard<'a, T>,
        ) -> Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>> {
            if guard.modeled && current().is_some() && !std::thread::panicking() {
                let mutex = guard.mutex;
                // Drop the OS lock before blocking in the scheduler.
                guard.inner.take();
                guard.modeled = false; // its Drop must not emit Unlock
                drop(guard);
                schedule_point(Op::CondWait {
                    cv: self.id,
                    m: mutex.id,
                });
                // schedule_point returned: we were woken and re-granted the
                // lock (the waker queued a Lock op for us).
                let inner = mutex.inner.lock().unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    inner: Some(inner),
                    mutex,
                    modeled: true,
                })
            } else {
                let mutex = guard.mutex;
                let inner = match guard.inner.take() {
                    Some(g) => g,
                    None => mutex.inner.lock().unwrap_or_else(|e| e.into_inner()),
                };
                let modeled = guard.modeled;
                guard.modeled = false;
                drop(guard);
                let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
                Ok(MutexGuard {
                    inner: Some(inner),
                    mutex,
                    modeled,
                })
            }
        }

        #[allow(clippy::type_complexity)]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: std::time::Duration,
        ) -> Result<
            (MutexGuard<'a, T>, WaitTimeoutResult),
            std::sync::PoisonError<(MutexGuard<'a, T>, WaitTimeoutResult)>,
        > {
            if guard.modeled && current().is_some() && !std::thread::panicking() {
                // Timeouts don't exist under the model (see type docs).
                let g = self.wait(guard).unwrap_or_else(|e| e.into_inner());
                Ok((g, WaitTimeoutResult(())))
            } else {
                let mutex = guard.mutex;
                let mut guard = guard;
                let inner = match guard.inner.take() {
                    Some(g) => g,
                    None => mutex.inner.lock().unwrap_or_else(|e| e.into_inner()),
                };
                let modeled = guard.modeled;
                guard.modeled = false;
                drop(guard);
                let (inner, _to) = self
                    .inner
                    .wait_timeout(inner, timeout)
                    .unwrap_or_else(|e| e.into_inner());
                Ok((
                    MutexGuard {
                        inner: Some(inner),
                        mutex,
                        modeled,
                    },
                    WaitTimeoutResult(()),
                ))
            }
        }

        pub fn notify_all(&self) {
            if !schedule_point(Op::NotifyAll { cv: self.id }) {
                self.inner.notify_all();
            }
        }

        pub fn notify_one(&self) {
            // The model wakes all waiters and lets them re-arbitrate the
            // mutex — a sound over-approximation of notify_one.
            if !schedule_point(Op::NotifyAll { cv: self.id }) {
                self.inner.notify_one();
            }
        }
    }

    pub mod thread {
        use super::super::{schedule_point, Op};

        /// Scheduling-aware park (a real `std::thread::park` outside the
        /// model). Wake it with [`crate::model::JoinHandle::unpark`].
        pub fn park() {
            if !schedule_point(Op::Park) {
                std::thread::park();
            }
        }

        pub fn yield_now() {
            if !schedule_point(Op::Yield) {
                std::thread::yield_now();
            }
        }
    }
}
