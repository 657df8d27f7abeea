//! The runner: repeat a workload's epochs until the measuring time is used
//! up, fold them into the named metrics, check the steady-state asserts and
//! print the result.

use std::io::Write as _;
use std::path::PathBuf;

use netsim::proto::ProtocolCosts;
use vialock::StrategyKind;

use crate::kit::{median, peak_rss_mb, per, percentile, Fingerprint, Json, Metrics};
use crate::probes;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::{Span, Tracer};
use crate::workloads::{Counts, Epoch, Params, Workload};

pub struct Options {
    pub seed: u64,
    /// Host seconds of timed batches to collect (epochs are never cut short).
    pub seconds: f64,
    /// Also run traced epochs and the probes, and report the per-layer metrics.
    pub trace: bool,
    /// One short epoch of each kind, every check on.
    pub smoke: bool,
    /// Append the full record (JSON line) here, for `compare`.
    pub record: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub epochs: usize,
    pub end_to_end: Metrics,
    pub per_layer: Option<Metrics>,
    pub violations: Vec<String>,
}

fn ops_per_s(e: &Epoch) -> f64 {
    (e.attempted - e.failed) as f64 / e.timed_s
}

fn all_samples(epochs: &[Epoch]) -> Vec<f64> {
    epochs
        .iter()
        .flat_map(|e| e.samples_us.iter().copied())
        .collect()
}

/// Median of the last tenth of an epoch's samples ÷ median of the first
/// tenth: 1.0 for a path that keeps no state, ≫ 1 for one that slows as it runs.
fn drift(e: &Epoch) -> f64 {
    let tenth = (e.samples_us.len() / 10).max(1);
    let first = median(&e.samples_us[..tenth.min(e.samples_us.len())]);
    let last = median(&e.samples_us[e.samples_us.len().saturating_sub(tenth)..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Set-ups a run reports the median of, not counting the first. A process's
/// first set-up touches memory the host has not backed yet (1 to 1.6 s against
/// 0.05 s on `dlm_*`, whose nine nodes hold 590 MB), and epochs that run for
/// seconds leave a run only two or three set-ups unless it makes more.
const WARM_SETUPS: usize = 9;

fn end_to_end(plain: &[Epoch], setups: &[f64]) -> Metrics {
    let warm = &setups[1.min(setups.len() - 1)..];
    Metrics::from([
        ("setup_s", median(warm)),
        ("op_p50_us", median(&all_samples(plain))),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

fn per_layer(plain: &[Epoch], traced: &[Epoch], tr: &Tracer, mut m: Metrics) -> Metrics {
    let mut c = Counts::default();
    for e in plain {
        c.add(&e.counts);
    }
    let n = plain.len() as u64;
    let ops: u64 = plain.iter().map(|e| e.attempted).sum();
    let failed: u64 = plain.iter().map(|e| e.failed).sum();
    let timed_s: f64 = plain.iter().map(|e| e.timed_s).sum();
    let span = |s: Span| tr.self_ns_per_span(s);

    // simmem
    m.insert("simmem.swap_outs_per_op", per(c.swap_outs, ops));
    m.insert("simmem.reclaim_passes_per_op", per(c.reclaim_passes, ops));
    m.insert(
        "simmem.skipped_pg_locked_per_op",
        per(c.skipped_pg_locked, ops),
    );
    m.insert("simmem.pressure_unpins_per_op", per(c.pressure_unpins, ops));
    m.insert(
        "simmem.protection_faults_per_op",
        per(c.protection_faults, ops),
    );
    m.insert("simmem.faults_per_op", per(c.faults, ops));
    m.insert(
        "simmem.antagonist_write_ns",
        span(Span::SimmemAntagonistWrite),
    );
    m.insert("simmem.user_copy_ns", span(Span::SimmemUserCopy));
    // vialock
    m.insert("vialock.pages_pinned_per_op", per(c.pages_pinned, ops));
    m.insert("vialock.pin_retries_per_op", per(c.pin_retries, ops));
    m.insert("vialock.blocked_per_op", per(c.blocked, ops));
    m.insert("vialock.fallbacks_per_op", per(c.fallbacks, ops));
    m.insert("vialock.repins_per_op", per(c.reg_repins, ops));
    m.insert(
        "vialock.cow_invalidations_per_op",
        per(c.cow_invalidations, ops),
    );
    // via
    let (pump, tx, rx) = (
        span(Span::ViaPump),
        span(Span::ViaNicTx),
        span(Span::ViaNicRx),
    );
    m.insert("via.post_ns", span(Span::ViaPost));
    m.insert("via.nic_tx_ns", tx);
    m.insert("via.nic_rx_ns", rx);
    m.insert("via.poll_cq_ns", span(Span::ViaPollCq));
    m.insert("via.pump_ns", pump);
    // What `pump` costs beyond the two calls it makes per message: VI scans,
    // queue swaps, fault-site checks. Defined where both variants ran.
    let scan = if tx > 0.0 { pump - tx - rx } else { 0.0 };
    m.insert("via.pump_scan_ns", scan);
    m.insert(
        "via.tlb_hit_ratio",
        per(c.tlb_hits, c.tlb_hits + c.tlb_misses),
    );
    m.insert("via.dma_ops_per_msg", per(c.dma_ops, c.nic_msgs));
    m.insert(
        "via.payload_allocs_per_msg",
        per(c.payload_allocs, c.nic_msgs),
    );
    m.insert(
        "via.pool_recycled_per_msg",
        per(c.pool_recycled, c.nic_msgs),
    );
    m.insert("via.desc_errors_per_op", per(c.desc_errors, ops));
    m.insert("via.cq_overruns", c.cq_overruns as f64);
    m.insert("via.repins_per_op", per(c.nic_repins, ops));
    m.insert("via.repin_failures_per_op", per(c.repin_failures, ops));
    m.insert(
        "via.tpt_invalidations_per_op",
        per(c.tpt_invalidations, ops),
    );
    m.insert("via.atomic_cas_per_grant", per(c.atomic_cas, c.grants));
    m.insert("via.cas_applied_ratio", per(c.cas_applied, c.atomic_cas));
    m.insert("via.wait_completion_ns", span(Span::ViaWaitCompletion));
    m.insert("via.parks_per_msg", per(c.parks, c.nic_msgs));
    m.insert("via.spin_wakes_per_msg", per(c.spin_wakes, c.nic_msgs));
    m.insert(
        "via.doorbell_rings_per_msg",
        per(c.doorbell_rings, c.nic_msgs),
    );
    m.insert("via.batches_per_msg", per(c.batches_sent, c.nic_msgs));
    m.insert("via.wire_stalls_per_msg", per(c.wire_stalls, c.nic_msgs));
    m.insert("via.mailbox_peak", c.mailbox_peak as f64);
    // msg
    for (name, s) in [
        ("msg.sm.send_ns", Span::MsgSmSend),
        ("msg.sm.recv_ns", Span::MsgSmRecv),
        ("msg.sm.wait_ns", Span::MsgSmWait),
        ("msg.oc.send_ns", Span::MsgOcSend),
        ("msg.oc.recv_ns", Span::MsgOcRecv),
        ("msg.oc.wait_ns", Span::MsgOcWait),
        ("msg.zc.send_ns", Span::MsgZcSend),
        ("msg.zc.recv_ns", Span::MsgZcRecv),
        ("msg.zc.wait_ns", Span::MsgZcWait),
    ] {
        m.insert(name, span(s));
    }
    m.insert("msg.control_writes_per_msg", per(c.control_writes, c.msgs));
    m.insert("msg.copy_bytes_per_msg", per(c.copy_bytes, c.msgs));
    m.insert("msg.copy_ops_per_msg", per(c.copy_ops, c.msgs));
    m.insert("msg.registrations_per_msg", per(c.registrations, c.msgs));
    m.insert(
        "msg.pages_registered_per_msg",
        per(c.pages_registered, c.msgs),
    );
    m.insert(
        "msg.cache_hit_ratio",
        per(c.cache_hits, c.cache_hits + c.registrations),
    );
    m.insert(
        "msg.cache_evictions_per_msg",
        per(c.cache_evictions, c.msgs),
    );
    m.insert(
        "msg.latency_drift_ratio",
        median(&plain.iter().map(drift).collect::<Vec<_>>()),
    );
    // dlm: whole-simulation tallies are per epoch (one simulation each).
    m.insert(
        "dlm.step_ns",
        if c.steps > 0 {
            timed_s * 1e9 / c.steps as f64
        } else {
            0.0
        },
    );
    m.insert("dlm.grants_per_step", per(c.grants, c.steps));
    m.insert("dlm.giveups", per(c.giveups, n));
    m.insert("dlm.steals", per(c.steals, n));
    m.insert("dlm.expiries", per(c.expiries, n));
    m.insert("dlm.reclaimed", per(c.reclaimed, n));
    m.insert("dlm.stale_rejections", per(c.stale_rejections, n));
    m.insert("dlm.orphans", per(c.orphans, n));
    m.insert("dlm.cas_attempts_per_grant", per(c.cas_attempts, c.grants));
    m.insert("dlm.queued_ratio", per(c.queued, c.queued + c.grants));
    let sim = plain[0].dlm;
    m.insert(
        "dlm.sim_p50_ticks",
        sim.map_or(0.0, |d| d.acquire_p50_ticks),
    );
    m.insert(
        "dlm.sim_p99_ticks",
        sim.map_or(0.0, |d| d.acquire_p99_ticks),
    );
    m.insert(
        "dlm.release_p50_ticks",
        sim.map_or(0.0, |d| d.release_p50_ticks),
    );
    m.insert(
        "dlm.release_p99_ticks",
        sim.map_or(0.0, |d| d.release_p99_ticks),
    );
    m.insert("dlm.jain_fairness", sim.map_or(0.0, |d| d.jain_fairness));
    // netsim: the model charged with what the message layer counted.
    let costs = ProtocolCosts::classic(workload::model::reg_cost_for(StrategyKind::KiobufReliable));
    let model_ns = workload::model::time_from_stats(&plain[0].msg, &costs);
    m.insert(
        "netsim.model_us_per_op",
        per(model_ns, plain[0].msg.msgs()) / 1e3,
    );
    // bench
    let rate = |es: &[Epoch]| median(&es.iter().map(ops_per_s).collect::<Vec<_>>());
    let samples = all_samples(plain);
    let bytes: u64 = plain.iter().map(|e| e.bytes).sum();
    m.insert("bench.fail_ratio", per(failed, ops));
    m.insert("bench.ops_per_s", rate(plain));
    m.insert("bench.mb_per_s", bytes as f64 / timed_s / 1e6);
    m.insert("bench.op_p99_us", percentile(&samples, 0.99));
    m.insert("bench.op_max_us", percentile(&samples, 1.0));
    m.insert("bench.samples", samples.len() as f64);
    // Per epoch, then the median: the first epoch of a process pays a few
    // one-time allocations that would otherwise make the figure depend on
    // how many epochs the run held.
    let per_epoch = |f: fn(&Epoch) -> u64| {
        median(
            &plain
                .iter()
                .map(|e| per(f(e), e.attempted))
                .collect::<Vec<_>>(),
        )
    };
    m.insert("bench.allocs_per_op", per_epoch(|e| e.allocs));
    m.insert("bench.alloc_bytes_per_op", per_epoch(|e| e.alloc_bytes));
    m.insert("bench.trace_coverage", tr.coverage());
    m.insert("bench.trace_overhead_ratio", rate(traced) / rate(plain));
    m
}

/// The asserts that hold on every run of the seed code; a broken one makes
/// the result incorrect instead of letting a number through.
fn check(w: &Workload, plain: &[Epoch]) -> Vec<String> {
    let mut v: Vec<String> = plain.iter().flat_map(|e| e.violations.clone()).collect();
    let first = &plain[0];
    for (i, e) in plain.iter().enumerate().skip(1) {
        let same = (e.counts, e.attempted, e.failed, e.dlm, e.msg)
            == (
                first.counts,
                first.attempted,
                first.failed,
                first.dlm,
                first.msg,
            );
        if w.exact && !same {
            v.push(format!(
                "epoch {i} counted differently from epoch 0 on a seeded single-threaded workload"
            ));
        }
    }
    for e in plain {
        if e.failed > 0 && !w.gives_up {
            v.push(format!("{} of {} operations failed", e.failed, e.attempted));
        }
    }
    v.dedup();
    v
}

pub fn run(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let params = Params {
        seed: o.seed,
        smoke: o.smoke,
        setup_only: false,
    };
    reset_peak_rss();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true);
    let mut timed = 0.0;
    loop {
        let e = (w.epoch)(&params, &mut Tracer::new(false))?;
        eprintln!(
            "   {} epoch {}: setup {:.4} s, timed {:.4} s, {:.1} ops/s",
            w.name,
            plain.len(),
            e.setup_s,
            e.timed_s,
            ops_per_s(&e)
        );
        timed += e.timed_s;
        plain.push(e);
        if o.trace {
            let e = (w.epoch)(&params, &mut tracer)?;
            timed += e.timed_s;
            traced.push(e);
        }
        if o.smoke || timed >= o.seconds {
            break;
        }
    }

    let mut setups: Vec<f64> = plain.iter().map(|e| e.setup_s).collect();
    let setup_only = Params {
        setup_only: true,
        ..params
    };
    while !o.smoke && setups.len() <= WARM_SETUPS {
        setups.push((w.epoch)(&setup_only, &mut Tracer::new(false))?.setup_s);
    }
    eprintln!("   {} set-ups: {setups:.4?}", w.name);

    let end_to_end = end_to_end(&plain, &setups);
    let per_layer = if o.trace {
        let mut m = Metrics::new();
        probes::run(&mut m)?;
        let m = per_layer(&plain, &traced, &tracer, m);
        let dir = crate::kit::package_dir().join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, tracer.to_json().render())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(m)
    } else {
        None
    };
    let violations = check(w, &plain);
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted: plain.iter().map(|e| e.attempted).sum(),
        failed: plain.iter().map(|e| e.failed).sum(),
        epochs: plain.len(),
        end_to_end,
        per_layer,
        violations,
    })
}

/// Restart `VmHWM` so each workload of `--workload all` reports its own peak.
/// Best effort: where the kernel refuses, the peak is the process's so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn metrics_json(values: &Metrics) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, v)| {
                (
                    (*name).to_string(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(unit_of(name).into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Print one workload's result: the table for people on stderr, then on
/// stdout the full record and — last — the line the driver reads.
pub fn report(w: &Workload, o: &Options, out: &Outcome, fp: &Fingerprint) -> Result<(), String> {
    eprintln!(
        "\n== {} — seed {}, {} epoch(s), {} attempted, {} failed, {}",
        w.name,
        o.seed,
        out.epochs,
        out.attempted,
        out.failed,
        if out.correct { "correct" } else { "INCORRECT" }
    );
    for v in &out.violations {
        eprintln!("   violation: {v}");
    }
    for (name, v) in out.end_to_end.iter().chain(out.per_layer.iter().flatten()) {
        eprintln!("   {name:<36} {v:>16.4} {}", unit_of(name));
    }

    let mut all = out.end_to_end.clone();
    all.extend(out.per_layer.iter().flatten().map(|(k, v)| (*k, *v)));
    let record = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Str(o.seed.to_string())),
        ("seconds", Json::Num(o.seconds)),
        ("trace", Json::Bool(o.trace)),
        ("smoke", Json::Bool(o.smoke)),
        ("epochs", Json::Num(out.epochs as f64)),
        ("host", fp.to_json()),
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "violations",
            Json::Arr(out.violations.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", metrics_json(&all)),
    ])
    .render();
    if let Some(path) = &o.record {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(f, "{record}").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{record}");

    // With --trace the driver wants every per-layer metric, without it every
    // end-to-end one.
    let emitted = out.per_layer.as_ref().unwrap_or(&out.end_to_end);
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(out.correct)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json(emitted)),
        ])
        .render()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Every workload at smoke size, traced: all checks pass, and the metric
    /// names that come out are exactly the ones the tables promise.
    #[test]
    fn smoke_run_emits_exactly_the_named_metrics() {
        let o = Options {
            seed: 11,
            seconds: 0.0,
            trace: true,
            smoke: true,
            record: None,
        };
        for w in &WORKLOADS {
            if w.threads > crate::kit::available_parallelism() {
                continue;
            }
            let out = run(w, &o).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(out.correct, "{}: {:?}", w.name, out.violations);
            let names = |m: &Metrics| m.keys().copied().collect::<Vec<_>>();
            let mut want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names(&out.end_to_end), want, "{}", w.name);
            let mut want: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
            want.sort_unstable();
            assert_eq!(names(out.per_layer.as_ref().unwrap()), want, "{}", w.name);
            for (name, v) in &out.end_to_end {
                assert!(v.is_finite() && *v > 0.0, "{}: {name} = {v}", w.name);
            }
        }
    }
}
