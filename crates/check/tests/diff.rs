//! Self-tests of `check::diff`: a planted defect that first shows late in
//! a long script shrinks to the known minimal script, the printed script
//! replays, and the case runner keeps its contract.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use check::diff::{cases, coin, replay, run, vec_of, Model, Side, Twins};
use rand::rngs::StdRng;
use rand::Rng;

#[derive(Debug, Clone)]
enum Op {
    Push(u8),
    Pop,
}
use Op::{Pop, Push};

impl Side<Op, Option<u8>, Vec<u8>> for VecDeque<u8> {
    fn apply(&mut self, op: &Op) -> Option<u8> {
        match *op {
            Push(v) => self.push_back(v),
            Pop => return self.pop_front(),
        }
        None
    }
    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        Ok(self.iter().copied().collect())
    }
}

/// The planted defect: a push onto four held values is silently dropped.
struct Leaky(Vec<u8>);

impl Side<Op, Option<u8>, Vec<u8>> for Leaky {
    fn apply(&mut self, op: &Op) -> Option<u8> {
        match *op {
            Push(v) if self.0.len() < 4 => self.0.push(v),
            Pop if !self.0.is_empty() => return Some(self.0.remove(0)),
            _ => {}
        }
        None
    }
    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        Ok(self.0.clone())
    }
}

#[derive(Debug)]
struct Toy;

impl Twins for Toy {
    type Op = Op;
    type Out = Option<u8>;
    type Snap = Vec<u8>;
    type Left = VecDeque<u8>;
    type Right = Leaky;
    fn build(&self) -> (VecDeque<u8>, Leaky) {
        (VecDeque::new(), Leaky(Vec::new()))
    }
}

/// The queue's length: at most three values for 100 steps, then mostly
/// pushes.
struct Len(usize);

impl Model<Toy> for Len {
    fn draw(&mut self, rng: &mut StdRng, step: usize) -> Op {
        let late = step >= 100 && rng.random_range(0..4u32) > 0;
        if late || step < 100 && self.0 < 3 && coin(rng) {
            Push(rng.random_range(0..100u8))
        } else {
            Pop
        }
    }
    fn observe(&mut self, op: &Op, out: &Option<u8>) {
        match (op, out) {
            (Push(_), _) => self.0 += 1,
            (Pop, Some(_)) => self.0 -= 1,
            (Pop, None) => {}
        }
    }
}

fn report(f: impl FnOnce()) -> String {
    let p = catch_unwind(AssertUnwindSafe(f)).expect_err("the twins diverge");
    *p.downcast::<String>().unwrap()
}

#[test]
fn a_late_defect_shrinks_to_the_five_pushes_that_show_it() {
    let r = report(|| run(0..1, 300, |_| (Toy, Len(0)), |_, _, _, _| {}));
    let first = r.strip_prefix("Toy: diverged at step ").unwrap();
    let first: usize = first[..first.find(' ').unwrap()].parse().unwrap();
    assert!(first > 100 && r.contains("(snapshot)"), "{r}");
    // The printed script is five pushes, and replaying it shows the
    // divergence at its last step.
    let push = |l: &str| {
        l.trim()
            .strip_prefix("Push(")?
            .strip_suffix("),")?
            .parse()
            .ok()
    };
    let pushes: Vec<Op> = r.lines().filter_map(push).map(Push).collect();
    assert!(r.contains("shrunk to 5 ops") && pushes.len() == 5, "{r}");
    let again = report(|| replay(&Toy, &pushes));
    let replayed = again.starts_with("Toy: diverged at step 4 (snapshot)");
    assert!(replayed && again.contains("shrunk to 5 ops"), "{again}");
}

#[test]
#[should_panic(expected = "diverged at step 4 (snapshot)")]
fn a_pasted_reproducer_replays() {
    use Op::*;
    replay(&Toy, &[Push(1), Push(2), Push(3), Push(4), Push(5)]);
}

#[test]
fn invalid_ops_that_fail_alike_are_no_divergence() {
    replay(&Toy, &[Pop, Push(1), Pop, Pop, Push(2), Push(3)]);
}

#[test]
fn case_ranges_stay_in_bounds_and_a_rejection_draws_again() {
    let (mut drawn, mut ran) = (0, 0);
    let draw = |rng: &mut StdRng| {
        drawn += 1;
        let x = rng.random_range(3u64..17);
        let v = vec_of(rng, 1..9, |rng| rng.random_range(0u8..4));
        (x != 5).then_some((x, v))
    };
    cases("ranges_stay_in_bounds", 32, draw, |(x, v)| {
        ran += 1;
        assert!((3..17).contains(&x) && x != 5);
        assert!(!v.is_empty() && v.len() < 9 && v.iter().all(|&b| b < 4));
    });
    assert_eq!(ran, 32);
    assert!(drawn > 32, "x = 5 is drawn about once in fourteen");
}

#[test]
#[should_panic(expected = "always_fails failed at case 3 on (3, true):\nboom")]
fn a_failing_case_reports_its_index_and_inputs() {
    let mut n = 0;
    let draw = |_: &mut StdRng| {
        n += 1;
        Some((n - 1, true))
    };
    cases("always_fails", 8, draw, |(i, _)| assert!(i < 3, "boom"));
}
