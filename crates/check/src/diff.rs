//! A seeded differential harness with shrinking, and the case runner the
//! property tests use.
//!
//! **Differentials.** Two implementations of one behaviour — a fast path
//! and the reference it replaced, or two fabrics — run the same script of
//! operations and must agree after every step. A [`Twins`] value builds the
//! two [`Side`]s; a [`Model`] aims the next operation from what both sides
//! agreed on so far. For each seed [`run`] builds fresh twins and a model,
//! and at each step it draws an `Op` value from the model, applies it to
//! both sides and compares the outcomes, compares the sides' snapshots (a
//! side may refuse its own snapshot: an audit that fails on both sides
//! alike still fails), and lets the model take in the agreed outcome.
//!
//! At the first divergence the recorded script is delta-debugged: halves,
//! then smaller chunks, then single ops are dropped, each candidate replayed
//! on fresh twins, and a candidate is kept if it still goes wrong the same
//! way: the sides differ (in an outcome or a snapshot), an audit fails, a
//! side panics, or both panic alike. An op that a removal made invalid
//! fails alike on both sides, which is no divergence. The panic
//! prints the seed, the first divergent step, what differed, and the
//! shrunk script as a `#[test]` calling [`replay`].
//!
//! **Properties.** [`cases`] draws each case's inputs from one [`StdRng`]
//! seeded with the FNV-1a hash of the property's name, so every run draws
//! the same cases; a rejected draw draws again, and a failure prints the
//! case index and its inputs.

use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Replays the shrinker may spend on one divergence.
const REPLAYS: usize = 1_000;

/// One side of a differential.
pub trait Side<Op, Out, Snap> {
    fn apply(&mut self, op: &Op) -> Out;

    /// What the two sides must agree on after a step, or why this side
    /// fails its own audit.
    fn snapshot(&mut self) -> Result<Snap, String>;
}

/// How to build two sides: a value, so a failure prints it as the setup of
/// its reproducer.
pub trait Twins: Debug {
    type Op: Debug + Clone;
    type Out: Debug + PartialEq;
    type Snap: Debug + PartialEq;
    type Left: Side<Self::Op, Self::Out, Self::Snap>;
    type Right: Side<Self::Op, Self::Out, Self::Snap>;

    fn build(&self) -> (Self::Left, Self::Right);
}

/// The abstract state that aims the operations of [`run`].
pub trait Model<T: Twins> {
    fn draw(&mut self, rng: &mut StdRng, step: usize) -> T::Op;

    /// Take in an outcome both sides agreed on.
    fn observe(&mut self, _op: &T::Op, _out: &T::Out) {}

    /// Operations run, and compared, after the drawn steps.
    fn teardown(&mut self) -> Vec<T::Op> {
        Vec::new()
    }
}

/// How a step went wrong: `(kind, what differed)`.
type Wrong = (&'static str, String);

fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().unwrap_or(&"a panic").to_string(),
    })
}

fn both(kind: &'static str, a: impl Debug, b: impl Debug) -> Wrong {
    (kind, format!("  left  {a:?}\n  right {b:?}\n"))
}

/// One step on both sides: the outcome they agreed on, or how they did not.
fn step<T: Twins>(left: &mut T::Left, right: &mut T::Right, op: &T::Op) -> Result<T::Out, Wrong> {
    let out = match (guarded(|| left.apply(op)), guarded(|| right.apply(op))) {
        (Ok(a), Ok(b)) if a == b => a,
        (Ok(a), Ok(b)) => return Err(both("outcome", a, b)),
        (Err(a), Err(b)) if a == b => return Err(both("panic alike", a, b)),
        (a, b) => return Err(both("panic", a.err(), b.err())),
    };
    match (guarded(|| left.snapshot()), guarded(|| right.snapshot())) {
        (Ok(Ok(a)), Ok(Ok(b))) if a == b => Ok(out),
        (Ok(Ok(a)), Ok(Ok(b))) => {
            // The first lines of the two pretty-printed snapshots that differ.
            let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
            let (a, b): (Vec<_>, Vec<_>) = (a.lines().collect(), b.lines().collect());
            let line =
                |v: &[&str], i: usize| v.get(i).map_or(String::new(), |l| l.trim().to_string());
            let differ = (0..a.len().max(b.len())).filter(|&i| line(&a, i) != line(&b, i));
            let what = differ
                .take(12)
                .map(|i| format!("  left  {}\n  right {}\n", line(&a, i), line(&b, i)));
            Err(("snapshot", what.collect()))
        }
        (Ok(a), Ok(b)) => Err(both("audit", a.err(), b.err())),
        (a, b) => Err(both("panic", a.err(), b.err())),
    }
}

/// Replay `script` on fresh twins: the first step that goes wrong, and how.
fn diverges<T: Twins>(twins: &T, script: &[T::Op]) -> Option<(usize, Wrong)> {
    let (mut left, mut right) = twins.build();
    for (i, op) in script.iter().enumerate() {
        if let Err(wrong) = step::<T>(&mut left, &mut right, op) {
            return Some((i, wrong));
        }
    }
    None
}

/// Whether two failures go wrong the same way: the sides differ (in an
/// outcome or a snapshot), both fail an audit, one side panics, or both
/// panic alike. A removal that leaves an op invalid may fail an audit or
/// panic alike on both sides; that is not the divergence being shrunk.
fn same_way(a: &str, b: &str) -> bool {
    let differ = |k| k == "outcome" || k == "snapshot";
    a == b || differ(a) && differ(b)
}

/// Delta-debug `script`, which goes wrong as `kind` at its last op: drop
/// halves, then chunks, then single ops, while a removal still does.
fn shrink<T: Twins>(twins: &T, mut script: Vec<T::Op>, kind: &str) -> Vec<T::Op> {
    let (mut budget, mut chunk) = (REPLAYS, (script.len() / 2).max(1));
    while budget > 0 {
        let (mut at, mut removed) = (0, false);
        while at < script.len() && budget > 0 {
            budget -= 1;
            let end = (at + chunk).min(script.len());
            let candidate = [&script[..at], &script[end..]].concat();
            match diverges(twins, &candidate) {
                Some((i, (k, _))) if same_way(k, kind) => {
                    script = candidate;
                    script.truncate(i + 1);
                    removed = true;
                }
                _ => at = end,
            }
        }
        if chunk == 1 && !removed {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    script
}

/// Shrink `script`, which went wrong at its last op, and panic with the
/// report.
fn fail<T: Twins>(twins: &T, script: Vec<T::Op>, (kind, what): Wrong) -> ! {
    let (at, op) = (script.len() - 1, format!("{:?}", script[script.len() - 1]));
    let shrunk = shrink(twins, script, kind);
    // The pasted test sits beside the op type, whose variants it names.
    let ty = std::any::type_name::<T::Op>()
        .rsplit("::")
        .next()
        .unwrap_or("Op");
    let ops: String = shrunk
        .iter()
        .map(|op| format!("            {op:?},\n"))
        .collect();
    panic!(
        "{twins:?}: diverged at step {at} ({kind}) on {op}\n{what}\nshrunk to {} ops; as a test:\n\n\
         #[test]\nfn shrunk() {{\n    use {ty}::*;\n    check::diff::replay(\n        &{twins:?},\n        &[\n{ops}        ],\n    );\n}}\n",
        shrunk.len(),
    )
}

/// Run `script` on fresh twins; on a divergence, shrink it and panic with
/// the report.
pub fn replay<T: Twins>(twins: &T, script: &[T::Op]) {
    if let Some((at, wrong)) = diverges(twins, script) {
        fail(twins, script[..=at].to_vec(), wrong)
    }
}

/// For every seed: twins and a model from `setup`, `steps` ops drawn from a
/// [`StdRng`] seeded with the seed, then the model's teardown, compared step
/// by step; `done` then gets the sides and the model, for coverage.
pub fn run<T: Twins, M: Model<T>>(
    seeds: Range<u64>,
    steps: usize,
    setup: impl Fn(u64) -> (T, M),
    mut done: impl FnMut(&T, T::Left, T::Right, M),
) {
    for seed in seeds {
        let (twins, mut model) = setup(seed);
        let (mut left, mut right) = twins.build();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut script, mut tail) = (Vec::new(), None);
        loop {
            let op = if script.len() < steps {
                model.draw(&mut rng, script.len())
            } else {
                match tail
                    .get_or_insert_with(|| model.teardown().into_iter())
                    .next()
                {
                    Some(op) => op,
                    None => break,
                }
            };
            script.push(op.clone());
            match step::<T>(&mut left, &mut right, &op) {
                Ok(out) => model.observe(&op, &out),
                Err(wrong) => {
                    drop((left, right));
                    fail(&twins, script, wrong)
                }
            }
        }
        done(&twins, left, right, model);
    }
}

/// Run `body` on `cases` inputs drawn by `draw` from one [`StdRng`] seeded
/// with the FNV-1a hash of `name`. A draw of `None` is a rejection and draws
/// again, at most `1024 + 64 × cases` times in all. A panic in `body` fails
/// the property with the case index and the inputs.
pub fn cases<I: Debug + Clone>(
    name: &str,
    cases: u32,
    mut draw: impl FnMut(&mut StdRng) -> Option<I>,
    mut body: impl FnMut(I),
) {
    let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    let mut rng = StdRng::seed_from_u64(name.bytes().fold(0xcbf2_9ce4_8422_2325, fnv));
    let (mut passed, mut rejected) = (0u32, 0u64);
    while passed < cases {
        let Some(input) = draw(&mut rng) else {
            rejected += 1;
            let cap = 1024 + 64 * cases as u64;
            assert!(
                rejected <= cap,
                "{name}: {rejected} rejections for {passed} passing cases"
            );
            continue;
        };
        if let Err(e) = guarded(|| body(input.clone())) {
            panic!("{name} failed at case {passed} on {input:?}:\n{e}");
        }
        passed += 1;
    }
}

/// A vector whose length is drawn from `len` first, then its elements.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.random_range(len);
    (0..n).map(|_| elem(rng)).collect()
}

/// A fair coin: the low bit of one draw.
pub fn coin(rng: &mut StdRng) -> bool {
    rng.next_u64() & 1 == 1
}

/// A uniformly drawn element of `xs`, if any.
pub fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> Option<T> {
    (!xs.is_empty()).then(|| xs[rng.random_range(0..xs.len())])
}
