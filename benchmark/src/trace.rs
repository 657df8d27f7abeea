//! In-memory spans recorded from the benchmark's own files, around each call
//! into a layer.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`; the root of every
//! operation is `bench.op`, and spans of one operation share its `op`
//! number. A span's *self time* is its duration minus what its children
//! cover. Self times are folded into per-name totals as each span closes, so
//! a run of millions of operations costs a few hundred bytes; only the first
//! [`KEEP_SPANS`] raw spans are kept for the JSON dump.
//!
//! [`Tracer::next`] closes one span and opens its sibling on a single clock
//! reading. A clock read costs about as much as the cheapest call traced
//! here, so back-to-back calls are separated by one reading, not two, and the
//! reading is charged to the spans on either side instead of to the harness.

use std::time::Instant;

use crate::kit::Json;

/// Raw spans kept for `out/trace-<workload>.json`.
const KEEP_SPANS: usize = 20_000;

/// Every span the benchmark records; the discriminant indexes [`SPAN_NAMES`]
/// and the per-name totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    Op,
    ViaPost,
    ViaNicTx,
    ViaNicRx,
    ViaPollCq,
    ViaPump,
    ViaWaitCompletion,
    SimmemAntagonistWrite,
    SimmemUserCopy,
    MsgSmSend,
    MsgSmRecv,
    MsgSmWait,
    MsgOcSend,
    MsgOcRecv,
    MsgOcWait,
    MsgZcSend,
    MsgZcRecv,
    MsgZcWait,
    DlmStep,
}

pub const SPAN_NAMES: [&str; 19] = [
    "bench.op",
    "via.post",
    "via.nic_tx",
    "via.nic_rx",
    "via.poll_cq",
    "via.pump",
    "via.wait_completion",
    "simmem.antagonist_write",
    "simmem.user_copy",
    "msg.sm.send",
    "msg.sm.recv",
    "msg.sm.wait",
    "msg.oc.send",
    "msg.oc.recv",
    "msg.oc.wait",
    "msg.zc.send",
    "msg.zc.recv",
    "msg.zc.wait",
    "dlm.step",
];

/// Per-name totals over every closed span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    span: Span,
    start_ns: u64,
    children_ns: u64,
    /// Index into `kept`, when this span is among the raw spans retained.
    kept: Option<usize>,
}

struct Kept {
    span: Span,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Span recorder. A disabled tracer (the untraced run) makes every call a
/// single predictable branch.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    stack: Vec<Open>,
    totals: [SpanTotals; SPAN_NAMES.len()],
    kept: Vec<Kept>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: [SpanTotals::default(); SPAN_NAMES.len()],
            kept: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open the root span of the next operation.
    #[inline]
    pub fn op(&mut self) {
        if self.enabled {
            self.op += 1;
            let now = self.now_ns();
            self.open(Span::Op, now);
        }
    }

    /// Open `span` as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, span: Span) {
        if self.enabled {
            let now = self.now_ns();
            self.open(span, now);
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            let now = self.now_ns();
            self.close(now);
        }
    }

    /// Close the innermost open span and open `span` as its sibling, both on
    /// one clock reading.
    #[inline]
    pub fn next(&mut self, span: Span) {
        if self.enabled {
            let now = self.now_ns();
            self.close(now);
            self.open(span, now);
        }
    }

    fn open(&mut self, span: Span, now: u64) {
        let kept = (self.kept.len() < KEEP_SPANS).then(|| {
            self.kept.push(Kept {
                span,
                start_ns: now,
                end_ns: now,
                parent: self.stack.last().and_then(|p| p.kept),
                op: self.op,
            });
            self.kept.len() - 1
        });
        self.stack.push(Open {
            span,
            start_ns: now,
            children_ns: 0,
            kept,
        });
    }

    fn close(&mut self, now: u64) {
        let o = self.stack.pop().expect("exit without a matching enter");
        let dur = now - o.start_ns;
        let t = &mut self.totals[o.span as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - o.children_ns.min(dur);
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if let Some(i) = o.kept {
            self.kept[i].end_ns = now;
        }
    }

    pub fn totals(&self, span: Span) -> SpanTotals {
        self.totals[span as usize]
    }

    /// Mean self time of `span` per closed span, in ns; 0 if it never ran.
    pub fn self_ns_per_span(&self, span: Span) -> f64 {
        let t = self.totals(span);
        crate::kit::per(t.self_ns, t.count)
    }

    /// Σ self time of every layer span ÷ Σ duration of the root spans: the
    /// share of an operation's wall time spent inside calls into the layers.
    /// The rest is the harness's own (payload generation, loop control).
    pub fn coverage(&self) -> f64 {
        let layers: u64 = self.totals[1..].iter().map(|t| t.self_ns).sum();
        crate::kit::per(layers, self.totals(Span::Op).total_ns)
    }

    /// The retained raw spans and the per-name totals, for
    /// `out/trace-<workload>.json`.
    pub fn to_json(&self) -> Json {
        let spans = self
            .kept
            .iter()
            .map(|k| {
                Json::obj([
                    ("name", Json::Str(SPAN_NAMES[k.span as usize].into())),
                    ("start_ns", Json::Num(k.start_ns as f64)),
                    ("end_ns", Json::Num(k.end_ns as f64)),
                    (
                        "parent",
                        k.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(k.op as f64)),
                ])
            })
            .collect();
        let totals = SPAN_NAMES
            .iter()
            .zip(&self.totals)
            .filter(|(_, t)| t.count > 0)
            .map(|(name, t)| {
                (
                    *name,
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                    ]),
                )
            });
        Json::obj([
            ("totals", Json::obj(totals)),
            ("spans_kept", Json::Num(self.kept.len() as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The public calls with an explicit clock reading.
    impl Tracer {
        fn op_at(&mut self, now: u64) {
            self.op += 1;
            self.open(Span::Op, now);
        }
        fn next_at(&mut self, span: Span, now: u64) {
            self.close(now);
            self.open(span, now);
        }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let mut t = Tracer::new(true);
        // op [0,100]: post [10,30], pump [30,90] { tx [40,60], rx [60,80] }
        t.op_at(0);
        t.open(Span::ViaPost, 10);
        t.next_at(Span::ViaPump, 30); // adjacent sibling, shared reading
        t.open(Span::ViaNicTx, 40);
        t.next_at(Span::ViaNicRx, 60);
        t.close(80);
        t.close(90);
        t.close(100);

        let s = |sp| t.totals(sp);
        assert_eq!(s(Span::ViaPost).self_ns, 20);
        assert_eq!(s(Span::ViaNicTx).self_ns, 20);
        assert_eq!(s(Span::ViaNicRx).self_ns, 20);
        // pump: 60 total, children cover 40.
        assert_eq!(s(Span::ViaPump).total_ns, 60);
        assert_eq!(s(Span::ViaPump).self_ns, 20);
        // root: 100 total, direct children cover 20 + 60.
        assert_eq!(s(Span::Op).self_ns, 20);
        // Self times partition the root's duration.
        let sum: u64 = t.totals.iter().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
        assert!((t.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn raw_spans_carry_parent_and_op() {
        let mut t = Tracer::new(true);
        for op in 0..2u64 {
            let base = op * 100;
            t.op_at(base);
            t.open(Span::ViaPump, base + 1);
            t.open(Span::ViaNicTx, base + 2);
            t.close(base + 3);
            t.close(base + 4);
            t.close(base + 5);
        }
        let k = &t.kept;
        assert_eq!(k.len(), 6);
        assert_eq!((k[0].parent, k[0].op), (None, 1));
        assert_eq!((k[1].parent, k[2].parent), (Some(0), Some(1)));
        assert_eq!((k[3].parent, k[3].op), (None, 2));
        assert_eq!((k[5].parent, k[5].op, k[5].end_ns), (Some(4), 2, 103));
        assert_eq!(t.totals(Span::ViaNicTx).count, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.op();
        t.enter(Span::ViaPost);
        t.next(Span::ViaPump);
        t.exit();
        t.exit();
        assert_eq!(t.totals(Span::Op), SpanTotals::default());
        assert!(t.kept.is_empty());
    }
}
